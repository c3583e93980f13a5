"""Finite unital rings and bimodules over Z/mZ.

Supported ring shapes:

  * ``zmod(m)``            - Z/mZ itself;
  * ``dual_numbers(m)``    - Z/mZ[eps]/(eps^2), the smallest base ring with a
                             nonzero derivation (d(eps) = c*eps);
  * ``matrix_ring(n, B)``  - n x n matrices over a base B in {zmod, dual},
                             n >= 2;
  * ``trivial_extension(A)`` - pairs (a, x) with (a1,x1)(a2,x2) =
                             (a1*a2, a1*x2 + x1*a2); the second component is a
                             square-zero ideal.

Every ring is a free Z/mZ-module of finite rank with a fixed canonical basis
(order documented on each constructor), so elements are coordinate tuples.

Bimodules over these rings are described by ``Bimodule`` values: the ring
acting on itself (``regular``), matrices over a base bimodule
(``matrix_over``), and direct sums with a summand on which the ring acts as
zero on both sides (``inflated`` - deliberately non-unital).  Each has one
cached table per ring basis element and side, the (row, column, value)
entries of its action (``bimodule_tables``).  Multiplication is one of them:
the product of a ring is the left action of its regular bimodule.

Even moduli are constructible here for exploration; entry points that need
2-torsion freeness reject them explicitly (see ``require_odd``).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import EvenModulusError, GuardError
from .linalg import SolutionModule, _check_modulus, column_kernel, module_equal
from .linalg import _json_field, _json_int, _json_ints

MAX_RANK = 64
EXHAUSTIVE_ELEMENT_BUDGET = 10**5


# ---------------------------------------------------------------------------
# Ring descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingDescriptor:
    kind: str  # zmod | dual | matrix | trivial_ext
    m: int
    n: int | None = None
    base: "RingDescriptor | None" = None

    def __post_init__(self):
        _check_modulus(self.m)
        if self.kind == "zmod" or self.kind == "dual":
            if self.n is not None or self.base is not None:
                raise ValueError(f"{self.kind} descriptor takes no n or base")
        elif self.kind == "matrix":
            if self.n is None or self.n < 2:
                raise ValueError("matrix rings require size n >= 2")
            if self.base is None or self.base.kind not in ("zmod", "dual"):
                raise GuardError("matrix base must be zmod or dual")
            if self.base.m != self.m:
                raise ValueError("base modulus must match")
        elif self.kind == "trivial_ext":
            if self.base is None or self.base.kind == "trivial_ext":
                raise GuardError("trivial extensions cannot be nested")
            if self.base.m != self.m:
                raise ValueError("base modulus must match")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if ring_rank(self) > MAX_RANK:
            raise GuardError(f"ring rank exceeds the supported bound {MAX_RANK}")

    def to_json(self):
        if self.kind in ("zmod", "dual"):
            return {"kind": self.kind, "m": self.m}
        if self.kind == "matrix":
            return {"kind": "matrix", "n": self.n, "base": self.base.to_json()}
        return {"kind": "trivial_ext", "base": self.base.to_json()}

    @classmethod
    def from_json(cls, obj):
        kind = _json_field(obj, "kind")
        if kind == "zmod":
            return zmod(_json_int(obj, "m"))
        if kind == "dual":
            return dual_numbers(_json_int(obj, "m"))
        if kind == "matrix":
            return matrix_ring(_json_int(obj, "n"), cls.from_json(_json_field(obj, "base")))
        if kind == "trivial_ext":
            return trivial_extension(cls.from_json(_json_field(obj, "base")))
        raise ValueError(f"unknown ring kind {kind!r}")


def zmod(m):
    """Z/mZ with basis [1]."""
    return RingDescriptor("zmod", m)


def dual_numbers(m):
    """Z/mZ[eps]/(eps^2) with basis [1, eps]."""
    return RingDescriptor("dual", m)


def matrix_ring(n, base):
    """n x n matrices over `base`; basis = matrix units in row-major (i, j)
    order, each tensored with the base basis in base order."""
    return RingDescriptor("matrix", base.m, n=n, base=base)


def trivial_extension(base):
    """Pairs (a, x) over `base`; basis = first-component basis then
    second-component basis.  The second component squares to zero."""
    return RingDescriptor("trivial_ext", base.m, base=base)


def ring_rank(desc):
    if desc.kind == "zmod":
        return 1
    if desc.kind == "dual":
        return 2
    if desc.kind == "matrix":
        return desc.n * desc.n * ring_rank(desc.base)
    return 2 * ring_rank(desc.base)


def ring_size(desc):
    return desc.m ** ring_rank(desc)


def require_odd(desc, what="this operation"):
    if desc.m % 2 == 0:
        raise EvenModulusError(
            f"{what} needs a 2-torsion free module, i.e. an odd modulus; "
            f"got m={desc.m}"
        )


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

class _Structure:
    """Rank, modulus, identity and basis labels of one ring descriptor.  Its
    multiplication is the left action of its regular bimodule: e_i.e_j is
    column j of left table i in ``bimodule_tables``."""

    __slots__ = ("rank", "m", "one", "labels")

    def __init__(self, rank, m, one, labels):
        self.rank = rank
        self.m = m
        self.one = one        # coords of the ring identity
        self.labels = labels  # printable basis labels


def _unit_coords(rank, idx):
    return tuple(1 if k == idx else 0 for k in range(rank))


@lru_cache(maxsize=None)
def structure(desc):
    m = desc.m
    if desc.kind == "zmod":
        return _Structure(1, m, (1,), ("1",))
    if desc.kind == "dual":
        return _Structure(2, m, (1, 0), ("1", "eps"))
    bs = structure(desc.base)
    if desc.kind == "matrix":
        n, rb = desc.n, bs.rank
        one = [0] * (n * n * rb)
        for i in range(n):
            one[(i * n + i) * rb:(i * n + i + 1) * rb] = bs.one
        labels = []
        for i in range(n):
            for j in range(n):
                cell = f"E{i + 1}{j + 1}"
                labels += [cell if bl == "1" else f"{bl}*{cell}" for bl in bs.labels]
        return _Structure(n * n * rb, m, tuple(one), tuple(labels))
    if desc.kind == "trivial_ext":
        labels = tuple(f"({l},0)" for l in bs.labels) + tuple(
            f"(0,{l})" for l in bs.labels
        )
        return _Structure(2 * bs.rank, m, bs.one + (0,) * bs.rank, labels)
    raise ValueError(f"unknown ring kind {desc.kind!r}")


def mul_coords(desc, x, y):
    return act(Bimodule.regular(desc), "L", x, y)


def add_coords(desc, x, y, coef=1):
    m = desc.m
    return tuple((a + coef * b) % m for a, b in zip(x, y))


def format_element(desc, coords):
    """Human-readable linear combination over the canonical basis."""
    st = structure(desc)
    parts = [
        (f"{v}*{lbl}" if v != 1 else lbl)
        for v, lbl in zip(coords, st.labels)
        if v
    ]
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Ring elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingElement:
    descriptor: RingDescriptor
    coords: tuple

    def __post_init__(self):
        st = structure(self.descriptor)
        if len(self.coords) != st.rank:
            raise ValueError("coordinate length does not match ring rank")
        if any(not (0 <= v < st.m) for v in self.coords):
            raise ValueError("coordinates must be reduced residues")

    def _match(self, other):
        if not isinstance(other, RingElement) or other.descriptor != self.descriptor:
            raise ValueError("ring descriptor mismatch")

    def __add__(self, other):
        self._match(other)
        return RingElement(self.descriptor, add_coords(self.descriptor, self.coords, other.coords))

    def __sub__(self, other):
        self._match(other)
        return RingElement(self.descriptor, add_coords(self.descriptor, self.coords, other.coords, -1))

    def __neg__(self):
        m = self.descriptor.m
        return RingElement(self.descriptor, tuple((-v) % m for v in self.coords))

    def __mul__(self, other):
        self._match(other)
        return RingElement(self.descriptor, mul_coords(self.descriptor, self.coords, other.coords))

    def __rmul__(self, scalar):
        m = self.descriptor.m
        return RingElement(self.descriptor, tuple((scalar * v) % m for v in self.coords))

    def is_zero(self):
        return not any(self.coords)

    def __str__(self):
        return format_element(self.descriptor, self.coords)

    def to_json(self):
        return {"ring": self.descriptor.to_json(), "coords": list(self.coords)}

    @classmethod
    def from_json(cls, obj):
        desc = RingDescriptor.from_json(_json_field(obj, "ring"))
        m = desc.m
        return cls(desc, tuple(v % m for v in _json_ints(obj, "coords")))


def zero_element(desc):
    return RingElement(desc, (0,) * ring_rank(desc))


def one_element(desc):
    return RingElement(desc, structure(desc).one)


def basis_element(desc, idx):
    return RingElement(desc, _unit_coords(ring_rank(desc), idx))


def basis_elements(desc):
    return [basis_element(desc, i) for i in range(ring_rank(desc))]


def matrix_unit(desc, i, j):
    """E_ij (1-based indices) of a matrix ring: base identity in cell (i, j)."""
    if desc.kind != "matrix":
        raise ValueError("matrix units exist only in matrix rings")
    n = desc.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"matrix unit index out of range for n={n}")
    bs = structure(desc.base)
    coords = [0] * ring_rank(desc)
    off = ((i - 1) * n + (j - 1)) * bs.rank
    for t, v in enumerate(bs.one):
        coords[off + t] = v
    return RingElement(desc, tuple(coords))


def element_from_index(desc, index):
    """The index-th element; digits of `index` base m, first coordinate most
    significant.  Enumerates all ring_size(desc) elements as index runs."""
    m = desc.m
    rank = ring_rank(desc)
    coords = [0] * rank
    for pos in range(rank - 1, -1, -1):
        index, coords[pos] = divmod(index, m)
    if index:
        raise ValueError("element index out of range")
    return RingElement(desc, tuple(coords))


def all_elements(desc):
    for idx in range(ring_size(desc)):
        yield element_from_index(desc, idx)


# ---------------------------------------------------------------------------
# Bimodules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bimodule:
    """Descriptor of a bimodule over `ring` with precomputable actions."""

    kind: str  # regular | matrix_over | inflated
    ring: RingDescriptor
    base: "Bimodule | None" = None
    extra_rank: int = 0

    def __post_init__(self):
        if self.kind == "regular":
            if self.base is not None or self.extra_rank:
                raise ValueError("regular bimodules take no base or extra rank")
        elif self.kind == "matrix_over":
            if self.ring.kind != "matrix":
                raise ValueError("matrix_over requires a matrix ring")
            if self.base is None or self.base.ring != self.ring.base:
                raise ValueError("matrix_over base must be a bimodule over the base ring")
        elif self.kind == "inflated":
            if self.base is None or self.base.ring != self.ring:
                raise ValueError("inflated base must be a bimodule over the same ring")
            if self.extra_rank < 1:
                raise ValueError("inflated summand rank must be >= 1")
        else:
            raise ValueError(f"unknown bimodule kind {self.kind!r}")
        if bimodule_rank(self) > MAX_RANK + MAX_RANK:
            raise GuardError("bimodule rank exceeds the supported bound")

    @classmethod
    def regular(cls, ring):
        return cls("regular", ring)

    @classmethod
    def matrix_over(cls, ring, base_bimodule):
        return cls("matrix_over", ring, base=base_bimodule)

    @classmethod
    def inflated(cls, base_bimodule, extra_rank):
        return cls("inflated", base_bimodule.ring, base=base_bimodule, extra_rank=extra_rank)

    def to_json(self):
        if self.kind == "regular":
            return {"kind": "regular", "ring": self.ring.to_json()}
        if self.kind == "matrix_over":
            return {
                "kind": "matrix_over",
                "ring": self.ring.to_json(),
                "base": self.base.to_json(),
            }
        return {
            "kind": "inflated",
            "base": self.base.to_json(),
            "extra_rank": self.extra_rank,
        }

    @classmethod
    def from_json(cls, obj):
        kind = _json_field(obj, "kind")
        if kind == "regular":
            return cls.regular(RingDescriptor.from_json(_json_field(obj, "ring")))
        if kind == "matrix_over":
            return cls.matrix_over(
                RingDescriptor.from_json(_json_field(obj, "ring")),
                cls.from_json(_json_field(obj, "base")),
            )
        if kind == "inflated":
            return cls.inflated(cls.from_json(_json_field(obj, "base")),
                                _json_int(obj, "extra_rank"))
        raise ValueError(f"unknown bimodule kind {kind!r}")


def bimodule_rank(bim):
    if bim.kind == "regular":
        return ring_rank(bim.ring)
    if bim.kind == "matrix_over":
        return bim.ring.n * bim.ring.n * bimodule_rank(bim.base)
    return bimodule_rank(bim.base) + bim.extra_rank


class _BimoduleTables:
    __slots__ = ("rank", "m", "triples")

    def __init__(self, rank, m, triples):
        self.rank = rank
        self.m = m
        # triples[side][i]: the (row, column, value) entries, sorted, of the
        # matrix of side "L" (m |-> e_i.m) or "R" (m |-> m.e_i)
        self.triples = triples

    def side(self, side):
        """The tables of side "L" or "R"; any other side raises ValueError."""
        if side not in ("L", "R"):
            raise ValueError(f"side must be 'L' or 'R', got {side!r}")
        return self.triples[side]


@lru_cache(maxsize=None)
def bimodule_tables(bim):
    """The action tables of ``bim``, built once per bimodule and process.  A
    ring's own multiplication is its regular bimodule's left action, so the
    regular tables of Z/m and Z/m[eps] are literal, those of T(A) come from
    A's by the square-zero rule, and those of M_n(B) come from B's by the
    matrix rule, exactly as for ``matrix_over`` (the layouts are identical)."""
    ring = bim.ring
    if bim.kind == "inflated":  # the zero summand adds no entries
        base = bimodule_tables(bim.base)
        return _BimoduleTables(base.rank + bim.extra_rank, ring.m, base.triples)
    if bim.kind == "matrix_over" or ring.kind == "matrix":
        base = bimodule_tables(bim.base or Bimodule.regular(ring.base))
        n = ring.n
        rank = n * n * base.rank

        def slot(k, l, t):
            return (k * n + l) * base.rank + t

        tables = {"L": [], "R": []}
        for i, j in itertools.product(range(n), repeat=2):
            # (E_ij b).(E_jl x) = E_il (b.x) and (E_ki x).(E_ij b) = E_kj (x.b)
            for lt, rt in zip(base.triples["L"], base.triples["R"]):
                tables["L"].append([(slot(i, l, t), slot(j, l, v), w) for t, v, w in lt for l in range(n)])
                tables["R"].append([(slot(k, j, t), slot(k, i, v), w) for t, v, w in rt for k in range(n)])
    elif ring.kind == "trivial_ext":
        # (a, x)(b, y) = (ab, ay + xb) on the basis (e_i, 0), then (0, e_i):
        # (e_i, 0) acts on both components, and (0, e_i) carries the first
        # component into the second
        base = bimodule_tables(Bimodule.regular(ring.base))
        r = base.rank
        rank = 2 * r
        tables = {side: [[*t, *((r + e, r + j, w) for e, j, w in t)] for t in ts]
                  + [[(r + e, j, w) for e, j, w in t] for t in ts]
                  for side, ts in base.triples.items()}
    elif ring.kind == "zmod":
        rank, tables = 1, {"L": [[(0, 0, 1)]], "R": [[(0, 0, 1)]]}
    else:  # Z/m[eps] on the basis [1, eps]: 1 acts as the identity, eps.1 = eps
        one, eps = [(0, 0, 1), (1, 1, 1)], [(1, 0, 1)]
        rank, tables = 2, {"L": [one, eps], "R": [one, eps]}
    return _BimoduleTables(rank, ring.m, {side: tuple(tuple(sorted(t)) for t in ts)
                                          for side, ts in tables.items()})


def _table_kernel(m, rank, width, blocks):
    """The kernel in (Z/mZ)^width of the stacked blocks, one
    ``column_kernel`` call.  A block is the sum of the tables in its parts,
    each a (triples, coefficient, column offset): row p * rank + e is row e
    of block p, and a triple (e, j, w) adds coefficient * w to column
    offset + j of it.  The entries are written straight into the column
    table, as the sums come, unreduced; the kernel step reduces them."""
    columns = defaultdict(dict)
    for p, parts in enumerate(blocks):
        first = p * rank
        for triples, c, offset in parts:
            for e, j, w in triples:
                col, i = columns[offset + j], first + e
                col[i] = col.get(i, 0) + c * w
    return column_kernel(m, width, len(blocks) * rank, columns)


def _check_ring_coords(ring_coords, tables):
    if len(ring_coords) != len(tables):
        raise ValueError(f"ring coordinates have length {len(ring_coords)}, "
                         f"expected {len(tables)}")


def action_rows(bim, side, ring_coords):
    """Rows of the matrix of m |-> a.m (side "L") or m |-> m.a (side "R") for
    the ring element a with coordinates ring_coords, as sparse
    {column: value} dicts of nonzero entries."""
    tb = bimodule_tables(bim)
    n = tb.m
    tables = tb.side(side)
    _check_ring_coords(ring_coords, tables)
    out = [{} for _ in range(tb.rank)]
    for c, triples in zip(ring_coords, tables):
        if c:
            for e, j, w in triples:
                out[e][j] = out[e].get(j, 0) + c * w
    return [{j: v % n for j, v in ot.items() if v % n} for ot in out]


def act(bim, side, ring_coords, vec):
    """a.m (side "L") or m.a (side "R"), with a given by ring coordinates and
    m by module coordinates: for each nonzero coordinate of a, the rows of
    its action table dotted with m, summed and reduced once."""
    tb = bimodule_tables(bim)
    tables = tb.side(side)
    _check_ring_coords(ring_coords, tables)
    if len(vec) != tb.rank:
        raise ValueError(f"module vector has length {len(vec)}, expected {tb.rank}")
    out = [0] * tb.rank
    for c, triples in zip(ring_coords, tables):
        if c:
            for e, j, w in triples:
                out[e] += c * w * vec[j]
    return tuple([x % tb.m for x in out])


def is_unital(bim):
    """True when the ring identity acts as the identity on both sides."""
    one = structure(bim.ring).one
    eye = [{i: 1} for i in range(bimodule_rank(bim))]
    return action_rows(bim, "L", one) == eye and action_rows(bim, "R", one) == eye


@dataclass(frozen=True)
class PeirceComponents:
    """Split of a bimodule element by the two-sided action of the identity:
    m1 = 1.x.1, m2 = 1.x - 1.x.1, m3 = x.1 - 1.x.1, m4 = the rest."""

    m1: tuple
    m2: tuple
    m3: tuple
    m4: tuple


def peirce_split(bim, vec):
    n = bim.ring.m
    one = structure(bim.ring).one
    lx = act(bim, "L", one, vec)
    xr = act(bim, "R", one, vec)
    lxr = act(bim, "R", one, lx)
    m1 = lxr
    m2 = tuple((a - b) % n for a, b in zip(lx, lxr))
    m3 = tuple((a - b) % n for a, b in zip(xr, lxr))
    m4 = tuple((x - a - b + c) % n for x, a, b, c in zip(vec, lx, xr, lxr))
    return PeirceComponents(m1, m2, m3, m4)


# ---------------------------------------------------------------------------
# Centres
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bimodule_center(bim):
    """Solution module {c in M : a.c = c.a for every ring basis element a},
    solved once per bimodule and process."""
    tb = bimodule_tables(bim)
    blocks = [((lt, 1, 0), (rt, -1, 0)) for lt, rt in zip(tb.triples["L"], tb.triples["R"])]
    return _table_kernel(tb.m, tb.rank, tb.rank, blocks)


def center_basis(desc):
    """Centre of the ring as a solution module over element coordinates."""
    return bimodule_center(Bimodule.regular(desc))


# ---------------------------------------------------------------------------
# Conditional pair sets and their spans in A (x) A
# ---------------------------------------------------------------------------

# With a fixed, each pair condition on (a, b) says that b lies in the kernel
# of a stack of blocks; each block is the sum of the listed operators
# L_a = (b |-> ab) and R_a = (b |-> ba).  On A (x) A the same table gives the
# condition's structural operator, with L read as multiplication
# mu(a (x) b) = ab and R as mu.tau(a (x) b) = ba (tau swaps the factors).
_CONDITION_OPERATORS = {
    "two_sided_zero": (("L",), ("R",)),  # ab = 0 and ba = 0: [L_a; R_a]
    "anti_commuting": (("L", "R"),),     # ab + ba = 0: L_a + R_a
    "left_zero": (("L",),),              # ab = 0: L_a
}
CONDITIONS = tuple(_CONDITION_OPERATORS)


def _annihilator_operator(desc, condition):
    """a |-> K_a: the kernel of the condition's operator A_a, one
    ``_table_kernel`` call on the action tables of A_a.  The ring-size guard
    fires here, before any kernel is solved.  Each block of A_a sums the
    action tables of the sides it names, weighted by a's coordinates."""
    blocks = _CONDITION_OPERATORS[condition]
    size = ring_size(desc)
    if size > EXHAUSTIVE_ELEMENT_BUDGET:
        raise GuardError(
            f"exhaustive pairs need one annihilator kernel per element: ring "
            f"size {size} is over the {EXHAUSTIVE_ELEMENT_BUDGET}-element budget"
        )
    tables = bimodule_tables(Bimodule.regular(desc)).triples
    n, rank = desc.m, ring_rank(desc)

    def operator(a):
        return _table_kernel(n, rank, rank, [[(t, c, 0) for side in block
                                              for c, t in zip(a, tables[side]) if c]
                                             for block in blocks])

    return operator


def annihilator_kernels(desc, condition):
    """(a, K_a) over every element a in index order, where the solution
    module K_a = {b : (a, b) satisfies the condition} is over element
    coordinates.  The kernels are solved lazily, as the iterator is read, so
    a walk that stops early solves no further kernel.

    The exhaustive pair set is the disjoint union of {a} x K_a.  This walk
    solves one small kernel per element; ``pair_span`` solves one per orbit
    {u.phi(a)} of the scalar units u and monomial conjugations phi, as
    K_(u.phi(a)) = phi(K_a).  The ring-size guard fires when this is called,
    before any kernel is solved.
    """
    operator = _annihilator_operator(desc, condition)
    elements = itertools.product(range(desc.m), repeat=ring_rank(desc))
    return ((a, operator(a)) for a in elements)


def _symmetries(desc):
    """Coordinate maps (perm, scale), x |-> y with y[perm[k]] = scale[k].x[k],
    of ring automorphisms, which keep every pair condition.  On M_n(B) they
    are the conjugations a |-> (PD).a.(PD)^-1 by a permutation matrix P of p
    and D = diag(1, d_2, ..., d_n) over units d_i of Z/mZ, taking entry
    (i, j, t) to (p(i), p(j), t) times d_i / d_j; any other ring is read as
    one cell (n = 1), which leaves the identity alone."""
    m, r = desc.m, ring_rank(desc)
    n, rb = (desc.n, ring_rank(desc.base)) if desc.kind == "matrix" else (1, r)
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    cells = list(itertools.product(range(n), range(n), range(rb)))
    maps = []
    for p in itertools.permutations(range(n)):
        for d in itertools.product(units, repeat=n - 1):
            d = (1,) + d
            maps.append((tuple((p[i] * n + p[j]) * rb + t for i, j, t in cells),
                         tuple(d[i] * pow(d[j], -1, m) % m for i, j, _ in cells)))
    return maps


def _mapped(phi, items, m):
    """phi(x) as {coordinate: residue}, x given by its (coordinate, residue)
    items; phi scales by units, so no entry is 0."""
    perm, scale = phi
    return {perm[k]: scale[k] * v % m for k, v in items if v}


def _orbits(desc, maps):
    """(a, |orbit(a)|) for each orbit {u.phi(a)} of the scalar units u of
    Z/mZ and the maps phi of ``_symmetries``, a the orbit's least element in
    index order.  Visited elements are marked by index in a bytearray of m^r
    bytes, so an element still unmarked when the walk reaches it is the
    least of its orbit."""
    m, r = desc.m, ring_rank(desc)
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    weights = [m ** (r - 1 - k) for k in range(r)]
    seen = bytearray(m ** r)
    for index, a in enumerate(itertools.product(range(m), repeat=r)):
        if seen[index]:
            continue
        size = 0
        for phi in maps:
            image = [(weights[k], x) for k, x in _mapped(phi, enumerate(a), m).items()]
            for u in units:
                j = sum(w * (u * x % m) for w, x in image)
                if not seen[j]:
                    seen[j] = 1
                    size += 1
        yield a, size


@lru_cache(maxsize=None)
def _orbit_walk(desc):
    """(maps, orbits): ``_symmetries(desc)`` and the ``_orbits`` over them,
    walked once per ring and process; the orbits depend on the ring alone,
    so every condition's exact span reads the same list."""
    maps = _symmetries(desc)
    return maps, tuple(_orbits(desc, maps))


def _symmetrised(span, r):
    """Sym W = {w + tau.w : w in W}, where tau swaps the tensor factors
    (column i * r + j <-> j * r + i)."""
    rows = [dict(w) for w in span.rows]
    for row, w in zip(rows, span.rows):
        for k, v in w:
            t = (k % r) * r + k // r
            row[t] = row.get(t, 0) + v
    return SolutionModule.from_rows(span.modulus, r * r, rows)


def _structural_kernel(desc, condition):
    """ker mu, ker(mu + mu.tau) or ker[mu; mu.tau] on A (x) A, by condition."""
    r = ring_rank(desc)
    tables = bimodule_tables(Bimodule.regular(desc)).triples
    # e_i.e_j is column j of left table i, e_j.e_i column j of right table i:
    # both land in column i * r + j of A (x) A
    return _table_kernel(desc.m, r, r * r, [[(t, 1, i * r) for side in block
                                             for i, t in enumerate(tables[side])]
                                            for block in _CONDITION_OPERATORS[condition]])


@lru_cache(maxsize=None)
def pair_span(desc, condition, mode):
    """(W, pair_count): the span W of {a (x) b : (a, b) meets the condition}
    in A (x) A = (Z/mZ)^(r * r), column i * r + j standing for e_i (x) e_j.

    ``exhaustive`` builds W exactly from the tensors a (x) g, g over the
    Howell generators of each K_a; ``pair_count`` is the sum of |K_a|.  For
    a unit u of Z/mZ and a map phi of ``_symmetries``, K_(u.phi(a)) =
    phi(K_a), so only the least element a of each orbit {u.phi(a)} is
    visited: its K_a is solved once, |K_a| counts |orbit| times, and
    phi(a) (x) phi(g) over every phi stand for the orbit's tensors.  Tensors
    are built only until they span S below: W lies in S, so a span of
    tensors equal to S proves W = S.  The span is Howell-compacted, and
    compared with S, whenever more tensors are pending than it has
    generators.  The early stop saves tensor building and compaction; every
    orbit's kernel is still solved, for its size.
    ``structured`` takes the kernel S of the condition's operator, one solve
    of width r * r whatever the ring size: ker mu (``left_zero``),
    ker(mu + mu.tau) (``anti_commuting``) or Sym ker[mu; mu.tau]
    (``two_sided_zero``), with Sym w = w + tau.w; ``pair_count`` is None.
    The kernel contains every pair tensor; that it is no larger is measured
    (``structural_and_exact_spans``), never assumed, and is false off matrix
    rings: on Z/3[eps] ker mu holds 1 (x) eps - eps (x) 1.  So solves take
    the structural span on matrix rings only, and Sym only for identities
    whose constraint rows are the same for a tensor and its swap, over an
    odd modulus (see ``identities._assembly``).
    """
    r, n = ring_rank(desc), desc.m
    if mode == "exhaustive":
        operator = _annihilator_operator(desc, condition)
        structural = _structural_kernel(desc, condition)
        maps, orbits = _orbit_walk(desc)
        span, rows, pair_count, spanned = SolutionModule(n, r * r, ()), [], 0, False
        for a, orbit in orbits:
            kernel = operator(a)
            pair_count += orbit * kernel.size()
            if spanned:
                continue
            for phi in maps:
                image = _mapped(phi, enumerate(a), n).items()
                rows += [{i * r + j: x * y for i, x in image for j, y in g_image.items()}
                         for g_image in (_mapped(phi, g, n) for g in kernel.rows)]
            if len(rows) > len(span.rows):
                span = SolutionModule.from_rows(n, r * r, span.rows + tuple(rows))
                rows, spanned = [], module_equal(span, structural)
        return SolutionModule.from_rows(n, r * r, span.rows + tuple(rows)), pair_count
    if mode != "structured":
        raise ValueError(f"unknown pair mode {mode!r}")
    kernel = _structural_kernel(desc, condition)
    return (_symmetrised(kernel, r) if condition == "two_sided_zero" else kernel), None


def structural_and_exact_spans(desc, condition):
    """(structural, exact): the two spans of ``pair_span`` for the condition,
    the exact one symmetrised for ``two_sided_zero`` as the structural one
    is.  Equal spans give equal solution modules in both pair modes for every
    identity with this condition.  The exact span needs the exhaustive
    kernels, so this is guarded like them."""
    structural, _ = pair_span(desc, condition, "structured")
    exact, _ = pair_span(desc, condition, "exhaustive")
    if condition == "two_sided_zero":
        exact = _symmetrised(exact, ring_rank(desc))
    return structural, exact


def _condition_pairs(desc, condition):
    return [
        (RingElement(desc, a), RingElement(desc, b))
        for a, kernel in annihilator_kernels(desc, condition)
        for b in sorted(kernel.elements())
    ]


def zero_product_pairs(desc):
    """Ordered pairs (A, B) with AB = BA = 0: for each A in index order, the
    elements B of its two-sided annihilator kernel (see
    ``annihilator_kernels``) in sorted coordinate order, which is index order.

    These are the exact pairs of exhaustive mode; structured mode quantifies
    over the span ``pair_span`` builds, which is not a pair set, so it has no
    listing.
    """
    return _condition_pairs(desc, "two_sided_zero")


def anti_commuting_pairs(desc):
    """Ordered pairs with AB + BA = 0, listed like ``zero_product_pairs`` from
    the kernels of L_A + R_A."""
    return _condition_pairs(desc, "anti_commuting")


def left_zero_pairs(desc):
    """Ordered pairs with AB = 0 (one-sided, exactly as stated; the companion
    BA = 0 is deliberately not required), listed like ``zero_product_pairs``
    from the kernels of L_A."""
    return _condition_pairs(desc, "left_zero")
