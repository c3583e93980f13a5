"""Linear identities on additive maps: constraint systems, checkers, full
solution spaces, and the constructive decompositions that witness why the
solution spaces collapse the way they do.

An identity is a table of terms (coef, left, arg, right), each standing for
coef * left.D(arg).right.  ``left``, ``arg`` and ``right`` are words over the
letters a, b, 1, e and f (or None for no factor); a word's value is the
product of its letters, with e = E11 and f = 1 - E11 (matrix rings only).
Every term is linear in the unknown map D, so the maps satisfying an identity
form a submodule of the flattened map-coordinate space.  The quantifier says
where the identity must vanish:

  * ``basis`` - every module basis element a (b does not occur);
  * ``basis_pairs`` - every ordered pair of module basis elements, enough
    since every term is bilinear in the pair;
  * ``two_sided_zero``, ``anti_commuting``, ``left_zero`` - the conditional
    pair sets (ab = ba = 0, ab + ba = 0, ab = 0), quantified through the span
    of their tensors a (x) b in A (x) A: exact (``exhaustive`` pair mode) or
    the kernel of the condition's structural operator (``structured``); see
    ``rings.pair_span``.

The catalogue ``IDENTITY_TERMS`` holds the identities keyed by tag; the steps
of the corner-peeling argument and the Peirce component checks are term
tables of the same kind.  There is one evaluation route: constraint assembly
(``_assembly``) turns the terms into the row blocks of the basis pairs and
combines them by the generators of the quantifier's span, and their module
is memoised per process, keyed by the identity's value (its terms and
quantifier, not its tag), the ring, the bimodule and the pair mode.  Every
row block comes from one builder (``_block_builder``), which writes each
term's contribution straight into the column table {column: {row id:
entry}} that the kernel elimination (``linalg.column_kernel``) reads;
repeated rows are kept, as eliminating them costs about what dropping them
would.  Its work follows the nonzeros: the word values and action operators
of basis pairs are read from tables built once per (ring, bimodule) and
process (``_Tables``), shared by every identity, assembly and check over
them.  ``check`` is membership of the flattened map in the structured
module, in every pair mode; only a failing map walks the elements or pairs
to find the first one whose row block does not annihilate it.  The test
suite plays this route against independent evaluators on explicit 2 x 2
matrices and against the per-pair block evaluator and assembly it replaced
(``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import GuardError, InternalVerificationError, PreconditionError
from .linalg import ResidueMatrix, SolutionModule, column_kernel
from .maps import AdditiveMap, as_bimodule, from_columns, inner_derivation, lift_map, right_multiplier
from .rings import (
    CONDITIONS,
    Bimodule,
    RingElement,
    act,
    annihilator_kernels,
    basis_elements,
    bimodule_center,
    bimodule_rank,
    bimodule_tables,
    is_unital,
    matrix_unit,
    one_element,
    pair_span,
    peirce_split,
    require_odd,
    ring_rank,
    structure,
)

# ---------------------------------------------------------------------------
# Identity catalogue
# ---------------------------------------------------------------------------
# A term (coef, left, arg, right) stands for coef * left.D(arg).right; each of
# left, arg and right is a word over {a, b, 1, e, f} (None: no factor) whose
# value is the product of its letters.  An identity asserts that its term sum
# vanishes on every quantified element or pair.

_DERIVATION = (
    (1, None, "ab", None),
    (-1, None, "a", "b"),
    (-1, "a", "b", None),
)
_JORDAN = (
    (1, None, "ab", None),
    (1, None, "ba", None),
    (-1, None, "a", "b"),
    (-1, "a", "b", None),
    (-1, None, "b", "a"),
    (-1, "b", "a", None),
)
_STAR = (
    (1, None, "a", "b"),
    (1, "a", "b", None),
    (1, None, "b", "a"),
    (1, "b", "a", None),
)


@dataclass(frozen=True)
class IdentitySpec:
    tag: str = field(compare=False)  # a label; specs compare by value
    terms: tuple
    quantifier: str  # basis | basis_pairs | two_sided_zero | anti_commuting | left_zero


IDENTITY_TERMS = {
    "derivation": IdentitySpec("derivation", _DERIVATION, "basis_pairs"),
    "generalized_derivation": IdentitySpec(
        "generalized_derivation", _DERIVATION + ((1, "a", "1", "b"),), "basis_pairs"
    ),
    "jordan": IdentitySpec("jordan", _JORDAN, "basis_pairs"),
    "generalized_jordan": IdentitySpec(
        "generalized_jordan",
        _JORDAN + ((1, "a", "1", "b"), (1, "b", "1", "a")),
        "basis_pairs",
    ),
    "star": IdentitySpec("star", _STAR, "two_sided_zero"),
    "star_star": IdentitySpec(
        "star_star",
        _STAR + ((-1, "a", "1", "b"), (-1, "b", "1", "a")),
        "two_sided_zero",
    ),
    "phi": IdentitySpec(
        "phi",
        (
            (1, None, "ab", None),
            (1, None, "ba", None),
            (-1, "a", "b", None),
            (-1, None, "b", "a"),
        ),
        "basis_pairs",
    ),
    "remark_antizero": IdentitySpec("remark_antizero", _STAR, "anti_commuting"),
    # The hypothesis is one-sided (ab = 0 only); the companion ba = 0 is
    # deliberately not imposed.
    "remark_abzero": IdentitySpec(
        "remark_abzero",
        _STAR + ((-1, None, "ab", None), (-1, None, "ba", None)),
        "left_zero",
    ),
}

IDENTITY_KINDS = tuple(IDENTITY_TERMS)
_UNCONDITIONAL = ("basis", "basis_pairs")
PAIR_MODES = ("structured", "exhaustive")


def _spec_for(kind):
    """The spec of a catalogue tag; an ``IdentitySpec`` stands for itself."""
    if isinstance(kind, IdentitySpec):
        return kind
    try:
        return IDENTITY_TERMS[kind]
    except KeyError:
        raise ValueError(f"unknown identity kind {kind!r}") from None


def _nonzero(coords):
    """Ring coordinates as the sorted (index, residue) pairs of their nonzero
    entries: the form of every word value below."""
    return tuple((k, v) for k, v in enumerate(coords) if v)


class _Tables:
    """The word values and action operators read by the row blocks over one
    (ring, bimodule).  A value is the ``_nonzero`` form of ring coordinates,
    interned as a small integer: basis element i is value i, then come the
    basis products, the letters 1, e and f (e and f on matrix rings only) and
    every product a word has needed.  ``prod`` memoises products of values
    (prod[i, j] = basis_i * basis_j) and ``ops`` the operators m |-> x.m.y as
    (row, column, value) triples, both keyed by value numbers (None: no
    factor); ``coords`` maps the coordinate tuples seen to their values.
    The tables take no lock: the package calls them from one thread."""

    def __init__(self, ring, bim):
        st = structure(ring)
        self.r, self.m, self.actions = st.rank, ring.m, bimodule_tables(bim)
        self.values, self.ids = [], {}
        self.coords = {x.coords: self.intern(((i, 1),)) for i, x in enumerate(basis_elements(ring))}
        # basis_i * basis_j is column j of the regular bimodule's left table i
        columns = [[[] for _ in range(st.rank)] for _ in range(st.rank)]
        for i, triples in enumerate(bimodule_tables(Bimodule.regular(ring)).triples["L"]):
            for k, j, v in triples:
                columns[i][j].append((k, v))
        self.prod = {(i, j): self.intern(tuple(p))
                     for i, row in enumerate(columns) for j, p in enumerate(row)}
        letters = {"1": st.one}
        if ring.kind == "matrix":
            e = matrix_unit(ring, 1, 1)
            letters.update(e=e.coords, f=(one_element(ring) - e).coords)
        self.letters = {k: self.intern(_nonzero(v)) for k, v in letters.items()}
        self.ops = {(None, None): tuple((e, e, 1) for e in range(self.actions.rank))}

    def intern(self, value):
        k = self.ids.get(value)
        if k is None:
            k = self.ids[value] = len(self.values)
            self.values.append(value)
        return k

    def element(self, coords):
        k = self.coords.get(coords)
        if k is None:
            k = self.coords[coords] = self.intern(_nonzero(coords))
        return k

    def mul(self, x, y):
        z = self.prod.get((x, y))
        if z is None:
            acc = {}
            values, prod = self.values, self.prod
            for i, xi in values[x]:
                for j, yj in values[y]:
                    c = xi * yj
                    for k, v in values[prod[i, j]]:
                        acc[k] = acc.get(k, 0) + c * v
            m = self.m
            z = self.prod[x, y] = self.intern(tuple(sorted((k, v % m) for k, v in acc.items() if v % m)))
        return z

    def op(self, x, y):
        """Triples of m |-> x.m.y; one-sided ones come from the action
        tables, two-sided ones are the left triples times the right rows."""
        ops = self.ops.get((x, y))
        if ops is None:
            acc = {}
            if x is None or y is None:
                coords, side = (x, "L") if y is None else (y, "R")
                for i, c in self.values[coords]:
                    for e, u, w in self.actions.triples[side][i]:
                        acc[e, u] = acc.get((e, u), 0) + c * w
            else:
                right = {}
                for k, u, rv in self.op(None, y):
                    right.setdefault(k, []).append((u, rv))
                for e, k, lv in self.op(x, None):
                    for u, rv in right.get(k, ()):
                        acc[e, u] = acc.get((e, u), 0) + lv * rv
            m = self.m
            ops = self.ops[x, y] = tuple((e, u, v % m) for (e, u), v in acc.items() if v % m)
        return ops


@lru_cache(maxsize=None)
def _tables(ring, bim):
    return _Tables(ring, bim)


# ---------------------------------------------------------------------------
# Public check / solve surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    a: RingElement
    b: RingElement | None  # None under the ``basis`` quantifier
    residual: tuple

    def to_json(self):
        return {
            "a": self.a.to_json(),
            "b": self.b.to_json() if self.b is not None else None,
            "residual": list(self.residual),
        }


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    witness: Witness | None = None
    witness_unavailable: str | None = None  # why a failing map has no witness

    def to_json(self):
        payload = {
            "passed": self.passed,
            "witness": self.witness.to_json() if self.witness else None,
        }
        if self.witness_unavailable:
            payload["witness_unavailable"] = self.witness_unavailable
        return payload


def check(fmap, kind):
    """Test the map against the identity (a catalogue tag or an
    ``IdentitySpec``) by membership of its flattened matrix in the memoised
    structured solution module (see ``solve_counted``).

    No pair mode is needed: every pair tensor lies in the structural kernel,
    so the structured module lies inside the exhaustive one.  A map it
    contains meets the identity on every pair; a map it does not contain is
    tested on the exhaustive scan below, whichever module a caller solved.

    A failing map gets a witness: the first required element or pair whose
    constraint-row block does not annihilate the map; that product is the
    residual of the identity there.  The order is basis order or
    basis-lexicographic for the unconditional quantifiers and the exhaustive
    scan for the conditional ones: a in index order, and the elements of K_a
    in sorted order.  Every term is additive in b, so a K_a whose Howell
    generators all pass is skipped whole.  The scan solves the kernels one a
    at a time; above ``EXHAUSTIVE_ELEMENT_BUDGET`` it is out of reach, and the
    failing report carries the reason as ``witness_unavailable`` in place of
    a witness.  A map outside the module that fails on no pair raises
    ``InternalVerificationError``: the module was wrong.
    """
    spec = _spec_for(kind)
    ring = fmap.domain
    bim = fmap.codomain
    flat = fmap.to_flat()
    module, _ = solve_counted(spec, ring, bim)
    if module.contains(flat):
        return CheckReport(True)
    m, rank_m = ring.m, bimodule_rank(bim)
    block = _block_builder(spec, ring, bim)

    def residual(a, b):
        table, res = defaultdict(dict), [0] * rank_m
        block(a.coords, None if b is None else b.coords, table, 0)
        for col, entries in table.items():
            if x := flat[col]:
                for e, v in entries.items():
                    res[e] += v * x
        return tuple(v % m for v in res)

    try:
        for a, b in _scan(spec, ring, residual):
            res = residual(a, b)
            if any(res):
                return CheckReport(False, Witness(a, b, res))
    except GuardError as exc:
        return CheckReport(False, witness_unavailable=str(exc))
    raise InternalVerificationError(
        "map outside the solution module meets the identity on every pair", fmap
    )


def _scan(spec, ring, residual):
    """The elements or pairs a failing map is tested on, in witness order."""
    if spec.quantifier in _UNCONDITIONAL:
        basis = basis_elements(ring)
        yield from itertools.product(basis, basis if spec.quantifier == "basis_pairs" else [None])
        return
    for coords, kernel in annihilator_kernels(ring, spec.quantifier):
        a = RingElement(ring, coords)
        gens = [RingElement(ring, tuple(g)) for g in kernel.generators.to_rows()]
        if any(any(residual(a, g)) for g in gens):
            yield from ((a, RingElement(ring, b)) for b in sorted(kernel.elements()))


@dataclass(frozen=True)
class ConstraintSystem:
    kind: str
    ring: object
    bimodule: Bimodule
    pair_mode: str
    matrix: ResidueMatrix
    counts: dict  # {"pair_count": n} or, structured conditional, {"span_rank": k}


def _block_builder(spec, ring, bim):
    """block(a, b, table, row): add the constraint rows of the pair of ring
    coordinate tuples (a, b) (b is None under the ``basis`` quantifier) to
    ``table``, a system in the column form of ``linalg.column_kernel``
    ({column: {row id: entry}}, a ``defaultdict(dict)``), as the rows
    row + e, e < rank(M).  Column u * rank(A) + v holds D[u][v]; a term
    coef * x.D(w).y adds coef * (x.-.y)[e][u] * w[v] to row e.  Entries are
    the sums as they come, unreduced; the kernel step reduces them.

    Word values and operators come from ``_Tables``: a pair of basis
    elements reads the ones of its (ring, bimodule), shared by every spec,
    builder and check in the process; a pair with any other element reads
    tables of the builder's own, which live as long as it does.  A pair's
    rows get an entry only where a term contributes."""
    shared, own = _tables(ring, bim), []
    r = shared.r
    # the letters in the order a term's words are read (arg, left, right),
    # and every word of two or more letters as word: (prefix, last letter),
    # each after its prefixes
    letters, words = {}, {}
    for term in spec.terms:
        for word in (term[2], term[1], term[3]):
            letters.update(dict.fromkeys(word or ""))
            for k in range(2, len(word or "") + 1):
                words.setdefault(word[:k], (word[:k - 1], word[k - 1]))

    def block(a, b, table, row):
        t = shared
        if a not in shared.coords or (b is not None and b not in shared.coords):
            if not own:
                own.append(_Tables(ring, bim))
            t = own[0]
        values = dict(t.letters, a=t.element(a))
        values[None] = None
        if b is not None:
            values["b"] = t.element(b)
        for letter in letters:
            if letter not in values:
                if letter in "ef":
                    raise GuardError("letters e and f (E11, 1 - E11) need a matrix ring")
                raise ValueError(f"letter {letter!r} has no value here")
        mul, op, tv = t.mul, t.op, t.values
        for word, (prefix, last) in words.items():
            values[word] = mul(values[prefix], values[last])
        for coef, lft, arg, rgt in spec.terms:
            w = tv[values[arg]]
            if not w:
                continue
            for e, u, pu in op(values[lft], values[rgt]):
                cc, i, off = coef * pu, row + e, u * r
                for v, wv in w:
                    col = table[off + v]
                    col[i] = col.get(i, 0) + cc * wv

    return block


_SWAP = str.maketrans("ab", "ba")


def _symmetric(spec):
    """Whether swapping a and b in every word leaves the terms unchanged as a
    multiset; then block(a, b) = block(b, a) on every ring, since the two
    blocks sum the same terms."""
    swapped = [(coef, *(w and w.translate(_SWAP) for w in words)) for coef, *words in spec.terms]
    return Counter(swapped) == Counter(spec.terms)


def _assembly(spec, ring, bim, pair_mode):
    """(table, nrows, width, counts) of an identity's constraint system: its
    nrows x width matrix in the column form of ``_block_builder``, where row
    p * rank(M) + e is row e of block p, over the width rank(M) * rank(A).

    Every term is bilinear in (a, b), so the rows of a pair set span the
    image of W = span{a (x) b} under w |-> sum_ij w_ij block(e_i, e_j).  The
    blocks, one per generator of W, all come from one ``_block_builder``.
    W is the full span for the unconditional quantifiers, whose blocks are
    then those of the basis elements or basis pairs in order, each written
    straight into the table, and ``rings.pair_span`` otherwise, exact or
    structural by pair mode; there the r^2 basis-pair blocks are built
    first, each in a table of its own, reduced, and summed into the table
    of each generator by its coefficients.  The structural span is the
    kernel of the condition's operator, which is the pair span on matrix
    rings (the zero product determined property of M_n(B); measured by
    ``rings.structural_and_exact_spans``) but can be larger elsewhere: on
    Z/3[eps] ker mu holds 1 (x) eps - eps (x) 1.  So structured mode takes
    it on matrix rings only, and the two-sided one, being symmetrised, only
    for blocks with block(e_i, e_j) = block(e_j, e_i) over an odd modulus;
    every other conditional system takes the exact span.  ``counts`` is
    {"pair_count": n} or, for structured conditional systems,
    {"span_rank": the number of Howell generators of W}.

    A spec symmetric in a and b (``_symmetric``; the Jordan identity, for
    one) has block(e_i, e_j) = block(e_j, e_i), so only the pairs i <= j
    are built: they give the basis-pair rows, still counted as r^2 pairs,
    and the conditional blocks mirror them.
    """
    if bim.ring != ring:
        raise ValueError("bimodule is not over the given ring")
    quantifier = spec.quantifier
    r, rank_m = ring_rank(ring), bimodule_rank(bim)
    width = rank_m * r
    m = ring.m
    basis = [x.coords for x in basis_elements(ring)]
    block = _block_builder(spec, ring, bim)
    table = defaultdict(dict)
    symmetric = _symmetric(spec)
    if quantifier == "basis":
        pairs = [(a, None) for a in basis]
    elif symmetric:
        pairs = list(itertools.combinations_with_replacement(basis, 2))
    else:
        pairs = list(itertools.product(basis, basis))
    if quantifier in _UNCONDITIONAL:
        for p, (a, b) in enumerate(pairs):
            block(a, b, table, p * rank_m)
        counts = {"pair_count": r if quantifier == "basis" else r * r}
        return table, len(pairs) * rank_m, width, counts
    if quantifier not in CONDITIONS:
        raise ValueError(f"unknown quantifier {quantifier!r}")
    for term in spec.terms:
        letters = "".join(word for word in term[1:] if word)
        if letters.count("a") != 1 or letters.count("b") != 1:
            raise ValueError(f"conditional term {term!r} is not bilinear in (a, b)")

    def reduced(a, b):
        own = defaultdict(dict)
        block(a, b, own, 0)
        return {col: red for col, entries in own.items()
                if (red := {e: x for e, v in entries.items() if (x := v % m)})}

    if symmetric:
        blocks = [None] * (r * r)
        for i, j in itertools.combinations_with_replacement(range(r), 2):
            blocks[i * r + j] = blocks[j * r + i] = reduced(basis[i], basis[j])
    else:
        blocks = list(itertools.starmap(reduced, pairs))
    source = pair_mode
    if pair_mode == "structured" and ring.kind != "matrix":
        source = "exhaustive"
    elif pair_mode == "structured" and quantifier == "two_sided_zero":
        symmetric = m % 2 == 1 and (symmetric or all(
            blocks[i * r + j] == blocks[j * r + i] for i in range(r) for j in range(i)
        ))
        source = "structured" if symmetric else "exhaustive"
    span, pair_count = pair_span(ring, quantifier, source)
    counts = {"pair_count": pair_count} if pair_mode == "exhaustive" else {"span_rank": len(span.rows)}
    for p, gen in enumerate(span.rows):
        row = p * rank_m
        for k, c in gen:
            for col, entries in blocks[k].items():
                target = table[col]
                for e, v in entries.items():
                    target[row + e] = target.get(row + e, 0) + c * v
    return table, len(span.rows) * rank_m, width, counts


def constraint_system(kind, ring, bimodule=None, pair_mode="structured"):
    """Homogeneous system over the flattened map matrix whose solution set is
    exactly the maps satisfying the identity, as a dense matrix with the
    rows of ``_assembly``: rank(M) per block, zero rows included.  ``kind``
    is a catalogue tag or an ``IdentitySpec``.  Solving does not build this
    matrix; see ``_solved``.
    """
    spec = _spec_for(kind)
    bim = as_bimodule(bimodule if bimodule is not None else ring)
    table, nrows, width, counts = _assembly(spec, ring, bim, pair_mode)
    rows = [[] for _ in range(nrows)]
    for col, entries in table.items():
        for i, v in entries.items():
            rows[i].append((col, v))
    mat = ResidueMatrix.from_sparse(ring.m, width, rows)
    return ConstraintSystem(spec.tag, ring, bim, pair_mode, mat, counts)


def solve_counted(kind, ring, bimodule=None, pair_mode="structured"):
    """(module, counts): the canonical module of all maps (as flattened
    matrices) satisfying the identity kind, and the size of what it
    quantifies over (see ``_assembly``).

    Solved once per process for each (identity terms and quantifier, ring,
    bimodule, pair mode); unconditional quantifiers ignore the pair mode, so
    it is not part of their key, but it must still be one of ``PAIR_MODES``.
    """
    if pair_mode not in PAIR_MODES:
        raise ValueError(f"unknown pair mode {pair_mode!r}")
    spec = _spec_for(kind)
    bim = as_bimodule(bimodule if bimodule is not None else ring)
    if spec.quantifier in _UNCONDITIONAL:
        pair_mode = "structured"
    return _solved(spec, ring, bim, pair_mode)


@lru_cache(maxsize=None)
def _solved(spec, ring, bim, pair_mode):
    # Keyed on the spec's value, so a catalogue entry replaced under the same
    # tag gets its own module.  The assembly's column table is the A^T block
    # that the kernel step eliminates, passed as it is; no dense matrix.
    table, nrows, width, counts = _assembly(spec, ring, bim, pair_mode)
    return column_kernel(ring.m, width, nrows, table), counts


def solve_all(kind, ring, bimodule=None, pair_mode="structured"):
    """Canonical module of all maps (as flattened matrices) satisfying the
    identity kind."""
    return solve_counted(kind, ring, bimodule, pair_mode)[0]


def maps_from_module(module, ring, codomain):
    """The generator rows of a map-space module, as additive maps."""
    bim = as_bimodule(codomain)
    return [AdditiveMap.from_flat(ring, bim, row) for row in module.generators.to_rows()]


def _map_span(codomain, build, gens=None):
    """Span of the maps build(codomain, g), flattened like every other map
    space, with g over ``gens`` (default: the unit coordinate vectors of the
    codomain)."""
    bim = as_bimodule(codomain)
    rank_m = bimodule_rank(bim)
    if gens is None:
        gens = [tuple(1 if k == j else 0 for k in range(rank_m)) for j in range(rank_m)]
    rows = [build(bim, tuple(g)).to_flat() for g in gens]
    return SolutionModule.from_rows(bim.ring.m, rank_m * ring_rank(bim.ring), rows)


def right_multiplier_module(codomain, c_module=None):
    """Span of {a |-> a.c} with c running over a coordinate module (default:
    the whole codomain), flattened like every other map space."""
    gens = None if c_module is None else c_module.generators.to_rows()
    return _map_span(codomain, right_multiplier, gens)


def inner_derivation_module(codomain):
    """Span of all inner derivations into the codomain."""
    return _map_span(codomain, inner_derivation)


# ---------------------------------------------------------------------------
# Constructive decomposition: zero-product condition => derivation + a.D(1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionTrace:
    """Intermediate objects of the corner-peeling decomposition.

    ``delta`` is the derivation part and ``central`` the image of 1, so that
    D(x) = delta(x) + x.central on every basis element; ``d`` is delta with
    the inner derivation by the corner element ``m_elt`` removed.
    """

    e: RingElement
    f: RingElement
    m_elt: tuple
    delta: AdditiveMap
    d: AdditiveMap
    central: tuple

    def to_json(self):
        return {
            "e": self.e.to_json(),
            "f": self.f.to_json(),
            "m_elt": list(self.m_elt),
            "delta": self.delta.to_json(),
            "d": self.d.to_json(),
            "central": list(self.central),
        }


def _corner_split(dmap):
    """E = E11, F = 1 - E and the corner element m = E.D(E).F - F.D(E).E (in
    module coordinates) of a map that must meet the hypotheses of Theorem
    2.1: a matrix ring domain over an odd modulus, a unital codomain and the
    zero-product condition."""
    ring = dmap.domain
    bim = dmap.codomain
    if ring.kind != "matrix":
        raise ValueError("the corner split needs a matrix ring domain")
    require_odd(ring, "the corner split")
    if not is_unital(bim):
        raise ValueError("the corner split needs a unital codomain")
    report = check(dmap, "star")
    if not report.passed:
        raise PreconditionError(
            "map does not satisfy the zero-product condition", report
        )
    e = matrix_unit(ring, 1, 1)
    f = one_element(ring) - e
    d_of_e = dmap.apply(e)
    lhs = act(bim, "R", f.coords, act(bim, "L", e.coords, d_of_e))
    rhs = act(bim, "R", e.coords, act(bim, "L", f.coords, d_of_e))
    return e, f, tuple((x - y) % ring.m for x, y in zip(lhs, rhs))


def decompose_theorem21(dmap):
    """Split a map satisfying the two-sided zero-product condition into a
    derivation plus right multiplication by the central element D(1).

    The construction peels the inner derivation by the corner element
    m = E.D(E).F - F.D(E).E off D, then the right multiplier by D(1) off the
    remainder.  All postconditions are re-verified; a failure raises, because
    it would constitute a numerical counterexample to the decomposition and
    must never happen over an odd modulus.
    """
    ring = dmap.domain
    bim = dmap.codomain
    e, f, m_elt = _corner_split(dmap)
    i_m = inner_derivation(bim, m_elt)
    central = dmap.apply(one_element(ring))
    d = (dmap - i_m) - right_multiplier(bim, central)
    delta = d + i_m
    deriv_report = check(delta, "derivation")
    if not deriv_report.passed:
        raise InternalVerificationError(
            "derivation part fails the derivation identity", deriv_report
        )
    if not bimodule_center(bim).contains(central):
        raise InternalVerificationError("image of 1 is not central", central)
    m = ring.m
    for basis in basis_elements(ring):
        lhs = dmap.apply(basis)
        rhs = delta.apply(basis)
        shift = act(bim, "L", basis.coords, central)
        if any((x - y - z) % m for x, y, z in zip(lhs, rhs, shift)):
            raise InternalVerificationError("recomposition failed", basis)
    return DecompositionTrace(e, f, m_elt, delta, d, central)


# ---------------------------------------------------------------------------
# Step-by-step verification of the corner-peeling argument
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepResult:
    step: int
    passed: bool
    witness: dict | None = None

    def to_json(self):
        return {"step": self.step, "passed": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class ProofStepsReport:
    steps: tuple

    @property
    def all_passed(self):
        return all(s.passed for s in self.steps)

    def to_json(self):
        return {
            "all_passed": self.all_passed,
            "steps": [s.to_json() for s in self.steps],
        }


def _corner_identity(x, y):
    """corner_xy: Delta(x a y) = x.Delta(x a y).y, over basis elements a."""
    word = f"{x}a{y}"
    return IdentitySpec(f"corner_{x}{y}", ((1, None, word, None), (-1, x, word, y)), "basis")


def _corner_rule(tag, out_l, out_r, p, q, corr):
    """out_l.Delta(pq).out_r = out_l.Delta(p).q + p.Delta(q).out_r
    - cx.Delta(cy).cz with corr = (cx, cy, cz), over basis pairs (a, b)."""
    terms = ((1, out_l, p + q, out_r), (-1, out_l, p, q), (-1, p, q, out_r), (1, *corr))
    return IdentitySpec(tag, terms, "basis_pairs")


# (step, spec) in report order; the spec's tag names the part.  rule_ef_ff,
# rule_ff_fe, rule_ee_ee and rule_ff_ff hold for every additive map when the
# corners they multiply are Z/m times one matrix unit (M2(Z/m) for every m);
# they can fail only on rings with larger corners, such as M2(Z/3[eps]).
_PROOF_STEPS = (
    (1, _corner_identity("e", "e")),
    (1, _corner_identity("f", "f")),
    (2, _corner_identity("e", "f")),
    (3, _corner_identity("f", "e")),
    (4, _corner_rule("rule_ee_ef", "e", "f", "eae", "ebf", ("eaeebf", "f", "f"))),
    (4, _corner_rule("rule_ef_ff", "e", "f", "eaf", "fbf", ("eaf", "f", "fbf"))),
    (5, _corner_rule("rule_fe_ee", "f", "e", "fae", "ebe", ("f", "f", "faeebe"))),
    (5, _corner_rule("rule_ff_fe", "f", "e", "faf", "fbe", ("faf", "f", "fbe"))),
    (6, _corner_rule("rule_ee_ee", "e", "e", "eae", "ebe", ("eae", "e", "ebe"))),
    (6, _corner_rule("rule_ff_ff", "f", "f", "faf", "fbf", ("faf", "f", "fbf"))),
    (7, IdentitySpec(
        "central_image_of_one", ((1, "a", "1", None), (-1, None, "1", "a")), "basis"
    )),
    (8, _corner_rule("rule_ef_fe", "e", "e", "eaf", "fbe", ("eaffbe", "e", "e"))),
    (8, _corner_rule("rule_fe_ef", "f", "f", "fbe", "eaf", ("f", "f", "fbeeaf"))),
)


def verify_proof_steps(dmap):
    """Check the eight intermediate identities of the corner-peeling argument
    for Delta = D - I_m, with E = E11 and F = 1 - E:

      1. corner_ee: Delta(EaE) = E.Delta(EaE).E;
         corner_ff: Delta(FaF) = F.Delta(FaF).F;
      2. corner_ef: Delta(EaF) = E.Delta(EaF).F;
      3. corner_fe: Delta(FaE) = F.Delta(FaE).E;
      4. rule_ee_ef (P = EaE, Q = EbF):
           E.Delta(PQ).F = E.Delta(P).Q + P.Delta(Q).F - PQ.Delta(F).F;
         rule_ef_ff (P = EaF, Q = FbF):
           E.Delta(PQ).F = E.Delta(P).Q + P.Delta(Q).F - P.Delta(F).Q;
      5. rule_fe_ee (P = FaE, Q = EbE):
           F.Delta(PQ).E = F.Delta(P).Q + P.Delta(Q).E - F.Delta(F).PQ;
         rule_ff_fe (P = FaF, Q = FbE):
           F.Delta(PQ).E = F.Delta(P).Q + P.Delta(Q).E - P.Delta(F).Q;
      6. rule_ee_ee (P = EaE, Q = EbE):
           E.Delta(PQ).E = E.Delta(P).Q + P.Delta(Q).E - P.Delta(E).Q;
         rule_ff_ff (P = FaF, Q = FbF):
           F.Delta(PQ).F = F.Delta(P).Q + P.Delta(Q).F - P.Delta(F).Q;
      7. central_image_of_one: a.Delta(1) = Delta(1).a;
      8. rule_ef_fe (P = EaF, Q = FbE):
           E.Delta(PQ).E = E.Delta(P).Q + P.Delta(Q).E - PQ.Delta(E).E;
         rule_fe_ef (P = FbE, Q = EaF):
           F.Delta(PQ).F = F.Delta(P).Q + P.Delta(Q).F - F.Delta(F).PQ.

    Steps 1-3 and 7 run over basis elements a, the rest over ordered basis
    pairs (a, b).  Each part is the term table in ``_PROOF_STEPS``, checked
    like any identity; a step's witness is the first failing part's.
    """
    _, _, m_elt = _corner_split(dmap)
    delta = dmap - inner_derivation(dmap.codomain, m_elt)
    steps = []
    for step_no, parts in itertools.groupby(_PROOF_STEPS, key=lambda part: part[0]):
        failure = None
        for _, spec in parts:
            report = check(delta, spec)
            if not report.passed:
                failure = {"part": spec.tag, **report.witness.to_json()}
                break
        steps.append(StepResult(step_no, failure is None, failure))
    return ProofStepsReport(tuple(steps))


# ---------------------------------------------------------------------------
# Derivations of matrix rings: inner part plus entrywise lift
# ---------------------------------------------------------------------------

def decompose_inner_plus_lifted(delta):
    """Split a derivation of an n x n matrix ring (into matrices over a base
    bimodule) as an entrywise lift of a base derivation plus an inner
    derivation.

    G = sum_k E_k1.delta(E_1k), read off the matrix units.  The remainder
    delta - I_G is verified to be supported entrywise and to be the lift of
    the base map d it determines, and lift(d) + I_G to recompose delta; so
    delta and I_G agree on every matrix unit, where lift(d) vanishes.
    Returns (d, G).  G is only canonical up to a central summand, so callers
    should compare inner derivations at the map level.
    """
    ring = delta.domain
    bim = delta.codomain
    if ring.kind != "matrix":
        raise ValueError("the inner-plus-lift split needs a matrix ring domain")
    report = check(delta, "derivation")
    if not report.passed:
        raise PreconditionError("map is not a derivation", report)
    if bim.kind == "regular":
        base_bim = Bimodule.regular(ring.base)
    elif bim.kind == "matrix_over":
        base_bim = bim.base
    else:
        raise ValueError("codomain must be matrices over a base bimodule")
    n = ring.n
    m = ring.m
    rn = bimodule_rank(base_bim)
    rb = ring_rank(ring.base)
    g = (0,) * bimodule_rank(bim)
    for k in range(1, n + 1):
        img = delta.apply(matrix_unit(ring, 1, k))
        term = act(bim, "L", matrix_unit(ring, k, 1).coords, img)
        g = tuple((x + y) % m for x, y in zip(g, term))
    remainder = (delta - inner_derivation(bim, g)).matrix
    # Entrywise support: the image of x placed in cell (i, j) must live in
    # cell (i, j), and all cells must carry the same base map.
    cols = remainder.cols
    for k in range(cols):
        img = remainder.entries[k::cols]
        if any(val and t // rn != k // rb for t, val in enumerate(img)):
            raise InternalVerificationError(
                "remainder is not entrywise supported", (k // rb, k % rb, img)
            )
    # d is the remainder's top-left block: its action on cell (1, 1)
    d_rows = (remainder.row(t)[:rb] for t in range(rn))
    d = AdditiveMap(ring.base, base_bim, ResidueMatrix.from_rows(m, d_rows))
    base_report = check(d, "derivation")
    if not base_report.passed:
        raise InternalVerificationError(
            "entrywise part is not a base derivation", base_report
        )
    # lift_map infers its own codomain; rebind to the input's bimodule (the
    # coordinate layouts coincide) so the recomposition compares like with like
    lifted = AdditiveMap(ring, bim, lift_map(d, n).matrix)
    if (lifted + inner_derivation(bim, g)).matrix != delta.matrix:
        raise InternalVerificationError("lift-plus-inner recomposition failed", d)
    return d, g


# ---------------------------------------------------------------------------
# Component split of maps on the square-zero extension
# ---------------------------------------------------------------------------

def decompose_trivial_extension(dmap):
    """Four component maps of a self-map of the square-zero extension, split
    along the canonical (first, second)-component basis.

    When the input passes the Jordan check over an odd modulus, the component
    conclusions are re-verified: the diagonal components satisfy the Jordan
    identity, the upper mixed component vanishes, and the lower diagonal
    differs from the upper one by right multiplication by a central element.
    """
    ring = dmap.domain
    if ring.kind != "trivial_ext":
        raise ValueError("component split needs a trivial-extension domain")
    if dmap.codomain != Bimodule.regular(ring):
        raise ValueError("component split is defined for self-maps of the extension")
    base = ring.base
    ra = ring_rank(base)
    m = ring.m

    def block(r0, c0):
        rows = (dmap.matrix.row(r0 + u)[c0:c0 + ra] for u in range(ra))
        return AdditiveMap(base, Bimodule.regular(base), ResidueMatrix.from_rows(m, rows))

    d1, d2 = block(0, 0), block(0, ra)
    d3, d4 = block(ra, 0), block(ra, ra)
    if m % 2 == 1 and check(dmap, "jordan").passed:
        for label, comp in (("first_diagonal", d1), ("second_to_ideal", d3)):
            rep = check(comp, "jordan")
            if not rep.passed:
                raise InternalVerificationError(
                    f"{label} component fails the Jordan identity", rep
                )
        if not d2.is_zero():
            raise InternalVerificationError(
                "ideal-to-first component is nonzero", d2
            )
        c = d4.apply(one_element(base))
        if not bimodule_center(Bimodule.regular(base)).contains(c):
            raise InternalVerificationError("component gap at 1 is not central", c)
        if (d4 - d1).matrix != right_multiplier(Bimodule.regular(base), c).matrix:
            raise InternalVerificationError(
                "lower diagonal is not the upper one plus a right multiplier", c
            )
    return d1, d2, d3, d4


# ---------------------------------------------------------------------------
# Component split over non-unital codomains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentCheck:
    name: str
    passed: bool
    witness: dict | None = None

    def to_json(self):
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


@dataclass(frozen=True)
class PeirceReport:
    components: tuple  # (D1, D2, D3, D4) additive maps
    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        return {
            "all_passed": self.all_passed,
            "checks": [c.to_json() for c in self.checks],
        }


# (component index, spec) in report order; the spec's tag names the check.
_PEIRCE_CHECKS = (
    (0, IdentitySpec("unital_component_jordan", _JORDAN, "basis_pairs")),
    (1, IdentitySpec(
        "left_degenerate_rule",
        ((1, None, "ab", None), (1, None, "ba", None), (-1, "a", "b", None), (-1, "b", "a", None)),
        "basis_pairs",
    )),
    (2, IdentitySpec(
        "right_degenerate_rule",
        ((1, None, "ab", None), (1, None, "ba", None), (-1, None, "a", "b"), (-1, None, "b", "a")),
        "basis_pairs",
    )),
    (3, IdentitySpec(
        "outer_component_jordan_zero", ((1, None, "ab", None), (1, None, "ba", None)), "basis_pairs"
    )),
    (1, IdentitySpec(
        "left_degenerate_is_multiplier", ((1, None, "a", None), (-1, "a", "1", None)), "basis"
    )),
    (2, IdentitySpec(
        "right_degenerate_is_multiplier", ((1, None, "a", None), (-1, None, "1", "a")), "basis"
    )),
    (3, IdentitySpec("outer_component_vanishes", ((1, None, "a", None),), "basis")),
)


def peirce_component_check(dmap):
    """Split a Jordan map into a non-unital codomain along the two-sided
    identity action into D1 = 1.D.1, D2 = 1.D - D1, D3 = D.1 - D1 and D4 = the
    rest, and check the component identities and their b = 1 conclusions:

      unital_component_jordan: D1(ab + ba) = D1(a)b + aD1(b) + D1(b)a + bD1(a);
      left_degenerate_rule: D2(ab + ba) = aD2(b) + bD2(a);
      right_degenerate_rule: D3(ab + ba) = D3(a)b + D3(b)a;
      outer_component_jordan_zero: D4(ab + ba) = 0;
      left_degenerate_is_multiplier: D2(a) = aD2(1);
      right_degenerate_is_multiplier: D3(a) = D3(1)a;
      outer_component_vanishes: D4(a) = 0.

    The first four run over ordered basis pairs, the rest over basis elements;
    each is the term table in ``_PEIRCE_CHECKS``, checked like any identity.
    That the doubly-degenerate component vanishes is where 2-torsion freeness
    is used, so even moduli are rejected."""
    ring = dmap.domain
    bim = dmap.codomain
    if bim.kind != "inflated":
        raise ValueError("the component check targets non-unital (inflated) codomains")
    require_odd(ring, "the component-split conclusions")
    rep = check(dmap, "jordan")
    if not rep.passed:
        raise PreconditionError("map does not satisfy the Jordan identity", rep)
    splits = [peirce_split(bim, dmap.apply(a)) for a in basis_elements(ring)]

    comps = tuple(from_columns(ring, bim, [getattr(split, part) for split in splits])
                  for part in ("m1", "m2", "m3", "m4"))
    checks = []
    for index, spec in _PEIRCE_CHECKS:
        report = check(comps[index], spec)
        witness = None if report.passed else report.witness.to_json()
        checks.append(ComponentCheck(spec.tag, report.passed, witness))
    return PeirceReport(comps, tuple(checks))
