"""Independent brute-force oracles for the test suite.

Apart from ``howell_form``, the dense view through which the tests read the
package's sparse Howell routine, ``kernel_of_rows``, which builds the
transpose of its rows itself and hands those columns to the package's one
kernel routine (``column_kernel``), and the package's pair spans, which the
reference assembly combines its blocks by, nothing here goes through the
package's Howell machinery, and apart from the per-pair constraint blocks
and the orbit walk below nothing goes through its action tables: spans are
enumerated by closure, matrix products are computed entry by entry on
explicit 2 x 2 representations (identities are evaluated on them pair by
pair, term by term), and echelon forms over prime fields use a textbook
RREF.  Routines the package used before it moved to sparse, shared work are
kept here as references: the dense Howell routine and the dense two-step
kernel, for the sparse one and for every kernel the package writes in
column form; the per-pair constraint block evaluator and the assembly of
its dict rows, zero rows included, for the one-sweep block builder and the
column table it writes, repeated rows kept, for the kernel step; the
membership test that reduces every entry before it reads a generator, for
the one that follows the generators' nonzeros; the dense row-by-column
product, for maps that sum the columns of their argument's nonzero
coordinates and compose column by column; the dense structure-constant
table and the per-basis sparse action rows built from it, for the (row,
column, value) action triples that serve as both the ring's multiplication
and its bimodules' actions; and the module action through the materialised
action matrix, for the one that dots the action tables with the vector.  The
orbit walk's reference conjugates by explicit monomial matrices, where the
package permutes and scales coordinates.  These routes stay deliberately
separate from the code paths they check.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from math import gcd

from derivlab.errors import GuardError
from derivlab.linalg import SolutionModule, annihilator, column_kernel, lift_unit, xgcd
from derivlab.rings import (
    action_rows,
    basis_elements,
    bimodule_rank,
    matrix_unit,
    mul_coords,
    one_element,
    pair_span,
    ring_rank,
    structure,
)


def howell_form(matrix):
    """Canonical Howell form of the row span of ``matrix``, as a dense matrix.

    Idempotent; two inputs with equal row span produce identical output.
    Zero rows are dropped, so the zero span yields a 0-row matrix.
    """
    module = SolutionModule.from_rows(matrix.modulus, matrix.cols, matrix.to_rows())
    return module.generators


def kernel_of_rows(m, width, rows):
    """The kernel of dense or dict ``rows``: their transpose, {column: {row:
    entry}}, built here, then the package's kernel routine."""
    columns = {}
    for i, row in enumerate(rows):
        for j, v in row.items() if isinstance(row, dict) else enumerate(row):
            columns.setdefault(j, {})[i] = v
    return column_kernel(m, width, len(rows), columns)


def span_elements(rows, m):
    """All vectors in the row span over Z/mZ, by additive closure."""
    width = len(rows[0]) if rows else 0
    zero = (0,) * width
    seen = {zero}
    frontier = [zero]
    gens = [tuple(v % m for v in r) for r in rows]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((a + b) % m for a, b in zip(cur, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def all_vectors(m, k):
    return [tuple(v) for v in product(range(m), repeat=k)]


def kernel_by_enumeration(rows, m, k):
    """{x : rows @ x == 0 (mod m)} by scanning every vector."""
    out = set()
    for x in all_vectors(m, k):
        if all(sum(r[j] * x[j] for j in range(k)) % m == 0 for r in rows):
            out.add(x)
    return out


def rref_mod_p(rows, p):
    """Textbook reduced row echelon form over the field Z/pZ; zero rows
    dropped."""
    mat = [[v % p for v in r] for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(inv * v) % p for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        r += 1
    return [row for row in mat if any(row)]


def rewrite_span(rows, m, rng, steps=12):
    """A random span-preserving rewrite: permutations, unit scalings, row
    additions, and appended multiples."""
    units = [u for u in range(1, m) if _gcd(u, m) == 1]
    work = [list(r) for r in rows]
    for _ in range(steps):
        if not work:
            break
        op = rng.randrange(4)
        i = rng.randrange(len(work))
        if op == 0:
            j = rng.randrange(len(work))
            work[i], work[j] = work[j], work[i]
        elif op == 1:
            u = rng.choice(units)
            work[i] = [(u * v) % m for v in work[i]]
        elif op == 2:
            j = rng.randrange(len(work))
            if i != j:
                c = rng.randrange(m)
                work[i] = [(a + c * b) % m for a, b in zip(work[i], work[j])]
        else:
            c = rng.randrange(m)
            work.append([(c * v) % m for v in work[i]])
    return work


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# Dense Howell reference (scalar helpers xgcd, lift_unit and annihilator are
# checked against brute force in test_linalg.py)
# ---------------------------------------------------------------------------

def howell_dense_reference(rows, n):
    """Howell normal form of the span of `rows` (lists of reduced residues).

    Returns a new list of nonzero rows; the input is not modified.  All rows
    must share one width.  Deterministic: leftmost pivot column, first nonzero
    row, minimal pivot via unit scaling.
    """
    work = []
    for r in rows:
        rr = [v % n for v in r]
        if any(rr):
            work.append(rr)
    if not work:
        return []
    width = len(work[0])
    rank = 0
    for c in range(width):
        j = rank
        while j < len(work) and work[j][c] == 0:
            j += 1
        if j == len(work):
            continue
        work[rank], work[j] = work[j], work[rank]
        piv = work[rank]
        u = lift_unit(piv[c], n)
        if u != 1:
            piv = [(u * v) % n for v in piv]
            work[rank] = piv
        for i in range(rank + 1, len(work)):
            row = work[i]
            if row[c]:
                a, b = piv[c], row[c]
                g, s, t = xgcd(a, b)
                ua, va = -(b // g), a // g
                new_piv = [(s * x + t * y) % n for x, y in zip(piv, row)]
                work[i] = [(ua * x + va * y) % n for x, y in zip(piv, row)]
                piv = new_piv
                work[rank] = piv
        b = piv[c]
        for i in range(rank):
            q = work[i][c] // b
            if q:
                row = work[i]
                work[i] = [(x - q * y) % n for x, y in zip(row, piv)]
        ann = annihilator(b, n)
        if ann:
            extra = [(ann * v) % n for v in piv]
            if any(extra):
                work.append(extra)
        rank += 1
    return work[:rank]


def kernel_dense_reference(rows, ncols, n):
    """Howell generators of the right kernel of ``rows`` (each of length
    ``ncols``), read off the Howell form of [H^T | I] for the Howell form H
    of the deduplicated rows, all on dense rows."""
    rows = [list(r) for r in dict.fromkeys(tuple(r) for r in rows)]
    h = howell_dense_reference(rows, n)
    nrows = len(h)
    aug = [
        [h[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    hh = howell_dense_reference(aug, n)
    kernel = [r[nrows:] for r in hh if not any(r[:nrows])]
    return howell_dense_reference(kernel, n)


# ---------------------------------------------------------------------------
# Membership (reference for ``contains``)
# ---------------------------------------------------------------------------

def contains_reference(module, vec):
    """Whether ``module`` contains ``vec``: every entry reduced first, then
    greedy reduction against the Howell generators, dense row by dense row,
    a pivot entry that the pivot does not divide ruling the vector out."""
    if len(vec) != module.ambient_rank:
        raise ValueError("vector length does not match ambient rank")
    n = module.modulus
    w = [v % n for v in vec]
    for row in module.generators.to_rows():
        c = next(k for k, v in enumerate(row) if v)
        q, r = divmod(w[c], row[c])
        if r:
            return False
        if q:
            w = [(x - q * v) % n for x, v in zip(w, row)]
    return not any(w)


# ---------------------------------------------------------------------------
# Orbits (reference for ``rings._orbits`` over ``rings._symmetries``)
# ---------------------------------------------------------------------------

def _monomial_conjugators(desc):
    """(M, M^-1) as coordinates for every monomial matrix
    M = sum_i d_i E_(p(i), i) of a matrix ring, over every permutation p and
    all units d_i of Z/mZ (d_1 included), with
    M^-1 = sum_i d_i^-1 E_(i, p(i)); on any other ring (1, 1) alone."""
    one = one_element(desc)
    if desc.kind != "matrix":
        return [(one.coords, one.coords)]
    m, n = desc.m, desc.n
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    pairs = []
    for p in permutations(range(n)):
        for d in product(units, repeat=n):
            mat = inv = one - one
            for i in range(n):
                mat = mat + d[i] * matrix_unit(desc, p[i] + 1, i + 1)
                inv = inv + pow(d[i], -1, m) * matrix_unit(desc, i + 1, p[i] + 1)
            if (mat * inv).coords != one.coords:
                raise AssertionError("a monomial matrix times its inverse is not 1")
            pairs.append((mat.coords, inv.coords))
    return pairs


def unit_orbits_reference(desc):
    """(a, |orbit(a)|) for each orbit {u.M.a.M^-1} of the scalar units u of
    Z/mZ times conjugation by the monomial matrices M of a matrix ring (the
    scalar units alone on any other ring), a the orbit's least element in
    index order.  Each conjugate is the explicit product M.a.M^-1 through
    ``mul_coords``.  Elements are read in index order; one that no built
    orbit set holds yet is kept, and its orbit set built."""
    m = desc.m
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    conjugators = _monomial_conjugators(desc)
    seen = set()
    for a in product(range(m), repeat=ring_rank(desc)):
        if a in seen:
            continue
        orbit = set()
        for mat, inv in conjugators:
            c = mul_coords(desc, mul_coords(desc, mat, a), inv)
            orbit.update(tuple(u * x % m for x in c) for u in units)
        if min(orbit) != a:
            raise AssertionError(f"{a} is not the least element of its orbit")
        seen |= orbit
        yield a, len(orbit)


# ---------------------------------------------------------------------------
# Products and module actions (reference for ``rings.bimodule_tables``)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dense_products_reference(desc):
    """prod[i][j] = coords of basis_i * basis_j, built densely: literal for
    Z/m and Z/m[eps], cell by cell for matrix rings, component by component
    for trivial extensions."""
    if desc.kind == "zmod":
        return (((1,),),)
    if desc.kind == "dual":
        return (
            ((1, 0), (0, 1)),
            ((0, 1), (0, 0)),
        )
    if desc.kind == "matrix":
        bprod = dense_products_reference(desc.base)
        n, rb = desc.n, len(bprod)
        rank = n * n * rb
        zero = (0,) * rank

        def slot(i, j, t):
            return (i * n + j) * rb + t

        prod = [[zero] * rank for _ in range(rank)]
        for i in range(n):
            for j in range(n):
                for b in range(rb):
                    left = slot(i, j, b)
                    # E_ij x E_kl vanishes unless k = j
                    for l in range(n):
                        for c in range(rb):
                            coords = [0] * rank
                            for t, v in enumerate(bprod[b][c]):
                                if v:
                                    coords[slot(i, l, t)] = v
                            prod[left][slot(j, l, c)] = tuple(coords)
        return tuple(tuple(r) for r in prod)
    if desc.kind == "trivial_ext":
        bprod = dense_products_reference(desc.base)
        ra = len(bprod)
        rank = 2 * ra
        zero = (0,) * rank

        def first(coords):
            return tuple(coords) + (0,) * ra

        def second(coords):
            return (0,) * ra + tuple(coords)

        prod = [[zero] * rank for _ in range(rank)]
        for a in range(ra):
            for b in range(ra):
                p = bprod[a][b]
                prod[a][b] = first(p)
                prod[a][ra + b] = second(p)
                prod[ra + a][b] = second(p)
                # (0,x)(0,y) = (0,0)
        return tuple(tuple(r) for r in prod)
    raise ValueError(f"unknown ring kind {desc.kind!r}")


def _zero_mat(r):
    return [{} for _ in range(r)]


@lru_cache(maxsize=None)
def action_tables_reference(bim):
    """(left, right): left[i] and right[i] are the rank sparse {column:
    value} rows of the left and right actions of ring basis i, read off
    ``dense_products_reference`` for the regular bimodule and built from the
    base's rows for ``matrix_over`` and ``inflated``."""
    ra = ring_rank(bim.ring)
    if bim.kind == "regular":
        rank = ra
        prod = dense_products_reference(bim.ring)
        left = []
        right = []
        for i in range(ra):
            li = _zero_mat(rank)
            ri = _zero_mat(rank)
            for j in range(ra):
                for t, v in enumerate(prod[i][j]):
                    if v:
                        li[t][j] = v
                for t, v in enumerate(prod[j][i]):
                    if v:
                        ri[t][j] = v
            left.append(li)
            right.append(ri)
    elif bim.kind == "matrix_over":
        base_left, base_right = action_tables_reference(bim.base)
        n = bim.ring.n
        rb = ring_rank(bim.ring.base)
        rn = bimodule_rank(bim.base)
        rank = n * n * rn

        def mslot(k, l, t):
            return (k * n + l) * rn + t

        left = []
        right = []
        for i in range(n):
            for j in range(n):
                for b in range(rb):
                    # (E_ij b).(E_jl x) = E_il (b.x) and (E_ki x).(E_ij b) = E_kj (x.b)
                    li = _zero_mat(rank)
                    ri = _zero_mat(rank)
                    for t, row in enumerate(base_left[b]):
                        for v, w in row.items():
                            for l in range(n):
                                li[mslot(i, l, t)][mslot(j, l, v)] = w
                    for t, row in enumerate(base_right[b]):
                        for v, w in row.items():
                            for k in range(n):
                                ri[mslot(k, j, t)][mslot(k, i, v)] = w
                    left.append(li)
                    right.append(ri)
    else:  # inflated
        base_left, base_right = action_tables_reference(bim.base)
        left = []
        right = []
        for i in range(ra):
            left.append(base_left[i] + _zero_mat(bim.extra_rank))
            right.append(base_right[i] + _zero_mat(bim.extra_rank))
    return left, right


def action_rows_reference(bim, side, ring_coords):
    """Rows of the action matrix of the ring element a with coordinates
    ring_coords: the reference tables of the basis, times a's coordinates,
    summed and reduced, as sparse {column: value} dicts."""
    left, right = action_tables_reference(bim)
    n = bim.ring.m
    out = _zero_mat(bimodule_rank(bim))
    for c, table in zip(ring_coords, left if side == "L" else right):
        if not c:
            continue
        for ot, row in zip(out, table):
            for j, w in row.items():
                ot[j] = ot.get(j, 0) + c * w
    return [{j: v % n for j, v in ot.items() if v % n} for ot in out]


def act_reference(bim, side, ring_coords, vec):
    """a.m (side "L") or m.a (side "R") as the reduced rows of the action
    matrix of a (``action_rows_reference``), each dotted with m."""
    n = bim.ring.m
    return tuple(
        sum(w * vec[j] for j, w in row.items()) % n
        for row in action_rows_reference(bim, side, ring_coords)
    )


# ---------------------------------------------------------------------------
# Dense map arithmetic (reference for maps that read their own columns)
# ---------------------------------------------------------------------------

def dense_product_reference(matrix, other):
    """matrix @ other over Z/mZ, row by column with every entry multiplied:
    the product of two ``ResidueMatrix`` values, or of one and a vector
    (any integers), returned then as a tuple."""
    n, cols = matrix.modulus, matrix.cols
    rows = [matrix.entries[i * cols:(i + 1) * cols] for i in range(matrix.rows)]
    if not hasattr(other, "entries"):
        if len(other) != cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(x * y for x, y in zip(r, other)) % n for r in rows)
    if other.rows != cols:
        raise ValueError("inner dimensions differ")
    other_cols = [other.entries[j::other.cols] for j in range(other.cols)]
    return [[sum(x * y for x, y in zip(r, c)) % n for c in other_cols] for r in rows]


# ---------------------------------------------------------------------------
# Per-pair constraint blocks (reference for the one-sweep block builder)
# ---------------------------------------------------------------------------

def _word_values(ring, a, b):
    """Evaluator of words on the pair (a, b) of ring elements (b is None
    under the ``basis`` quantifier): a word's value is the product of its
    letters, memoised with its prefixes."""
    values = {"1": structure(ring).one, "a": a.coords}
    if ring.kind == "matrix":
        e = matrix_unit(ring, 1, 1)
        values["e"] = e.coords
        values["f"] = (one_element(ring) - e).coords
    if b is not None:
        values["b"] = b.coords

    def value(word):
        if word not in values:
            if len(word) == 1:
                if word in "ef":
                    raise GuardError("letters e and f (E11, 1 - E11) need a matrix ring")
                raise ValueError(f"letter {word!r} has no value here")
            values[word] = mul_coords(ring, value(word[:-1]), value(word[-1]))
        return values[word]

    return value


def _sandwich(bim, x, y, actions):
    """Sparse rows of m |-> x.m.y for ring coordinates x and y (None: no
    factor); None when both are absent."""

    def act_rows(side, coords):
        if (side, coords) not in actions:
            actions[side, coords] = action_rows(bim, side, coords)
        return actions[side, coords]

    if x is None and y is None:
        return None
    if x is None:
        return act_rows("R", y)
    left = act_rows("L", x)
    if y is None:
        return left
    right = act_rows("R", y)
    m = bim.ring.m
    out = []
    for lrow in left:
        acc = {}
        for k, lv in lrow.items():
            for u, rv in right[k].items():
                acc[u] = acc.get(u, 0) + lv * rv
        out.append({u: v % m for u, v in acc.items() if v % m})
    return out


def pair_block_reference(spec, ring, bim, a, b, actions):
    """The rank(M) reduced {column: residue} rows of the pair (a, b) of ring
    elements (b is None under the ``basis`` quantifier), zero rows included,
    evaluated pair by pair and row by row.  Column u * rank(A) + v holds
    D[u][v]; a term coef * x.D(w).y adds coef * (x.-.y)[e][u] * w[v] to row
    e.  ``actions`` memoises the one-sided action rows by side and ring
    coordinates, so that several pairs can share them."""
    rank_a = ring_rank(ring)
    m = ring.m
    value = _word_values(ring, a, b)
    block = [{} for _ in range(bimodule_rank(bim))]
    for coef, lft, arg, rgt in spec.terms:
        w = [(v, x) for v, x in enumerate(value(arg)) if x]
        op = _sandwich(bim, lft and value(lft), rgt and value(rgt), actions)
        for e, row in enumerate(block):
            for u, pu in op[e].items() if op is not None else ((e, 1),):
                cc = coef * pu
                off = u * rank_a
                for v, x in w:
                    row[off + v] = row.get(off + v, 0) + cc * x
    return [{k: v % m for k, v in row.items() if v % m} for row in block]


def assembly_reference(spec, ring, bim, pair_mode):
    """The constraint rows of an identity as the assembly streamed them
    before its blocks became sparse tuples: rank(M) {column: residue} rows
    per basis element, ordered basis pair or span generator, zero rows
    included, every block from ``pair_block_reference``.  The span is the
    package's, chosen by its rule (see ``identities._assembly``)."""
    r, rank_m, m = ring_rank(ring), bimodule_rank(bim), ring.m
    basis, actions = basis_elements(ring), {}
    if spec.quantifier == "basis":
        return [row for a in basis for row in pair_block_reference(spec, ring, bim, a, None, actions)]
    blocks = [pair_block_reference(spec, ring, bim, a, b, actions) for a in basis for b in basis]
    if spec.quantifier == "basis_pairs":
        return [row for block in blocks for row in block]
    source = pair_mode
    if pair_mode == "structured" and ring.kind != "matrix":
        source = "exhaustive"
    elif pair_mode == "structured" and spec.quantifier == "two_sided_zero":
        mirrored = all(blocks[i * r + j] == blocks[j * r + i] for i in range(r) for j in range(i))
        source = "structured" if m % 2 == 1 and mirrored else "exhaustive"
    span, _ = pair_span(ring, spec.quantifier, source)
    rows = []
    for gen in span.rows:
        for e in range(rank_m):
            acc = {}
            for k, c in gen:
                for col, v in blocks[k][e].items():
                    acc[col] = acc.get(col, 0) + c * v
            rows.append({col: v % m for col, v in acc.items() if v % m})
    return rows


# ---------------------------------------------------------------------------
# Direct 2 x 2 matrix arithmetic over zmod and dual-number entries
# ---------------------------------------------------------------------------

def coords_to_mat2(coords, m, dual=False):
    """Coordinates of a 2 x 2 matrix ring element -> nested-list matrix.

    Entries are ints for a zmod base and (value, eps_value) pairs for a
    dual-number base; the coordinate order is row-major cells, base basis
    fastest.
    """
    if dual:
        cells = [
            (coords[2 * i] % m, coords[2 * i + 1] % m) for i in range(4)
        ]
    else:
        cells = [coords[i] % m for i in range(4)]
    return [[cells[0], cells[1]], [cells[2], cells[3]]]


def mat2_to_coords(mat, m, dual=False):
    flat = [mat[0][0], mat[0][1], mat[1][0], mat[1][1]]
    if dual:
        out = []
        for a, b in flat:
            out.extend([a % m, b % m])
        return tuple(out)
    return tuple(v % m for v in flat)


def _entry_mul(x, y, m, dual):
    if dual:
        (a, b), (c, d) = x, y
        return ((a * c) % m, (a * d + b * c) % m)
    return (x * y) % m


def _entry_add(x, y, m, dual):
    if dual:
        return ((x[0] + y[0]) % m, (x[1] + y[1]) % m)
    return (x + y) % m


def mat2_mul(x, y, m, dual=False):
    zero = (0, 0) if dual else 0
    out = [[zero, zero], [zero, zero]]
    for i in range(2):
        for j in range(2):
            acc = zero
            for k in range(2):
                acc = _entry_add(acc, _entry_mul(x[i][k], y[k][j], m, dual), m, dual)
            out[i][j] = acc
    return out


def mat2_is_zero(x, dual=False):
    zero = (0, 0) if dual else 0
    return all(v == zero for row in x for v in row)


def mat2_sub(x, y, m, dual=False):
    if dual:
        return [
            [((a[0] - b[0]) % m, (a[1] - b[1]) % m) for a, b in zip(rx, ry)]
            for rx, ry in zip(x, y)
        ]
    return [[(a - b) % m for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


# ---------------------------------------------------------------------------
# Conditional pair sets by a full scan of ordered pairs
# ---------------------------------------------------------------------------

def _mat2_add(x, y, m):
    return [[(a + b) % m for a, b in zip(rx, ry)] for rx, ry in zip(x, y)]


_PAIR_TESTS = {
    "two_sided_zero": lambda ab, ba, m: mat2_is_zero(ab) and mat2_is_zero(ba),
    "anti_commuting": lambda ab, ba, m: mat2_is_zero(_mat2_add(ab, ba, m)),
    "left_zero": lambda ab, ba, m: mat2_is_zero(ab),
}


@lru_cache(maxsize=None)
def _scan_mat2(m):
    """{condition: ordered pairs of M2(Z/m) meeting it}, with ab and ba
    computed once per pair and shared by every condition."""
    elements = all_vectors(m, 4)
    mats = [coords_to_mat2(x, m) for x in elements]
    found = {condition: [] for condition in _PAIR_TESTS}
    for xa, am in zip(elements, mats):
        for xb, bm in zip(elements, mats):
            ab, ba = mat2_mul(am, bm, m), mat2_mul(bm, am, m)
            for condition, keep in _PAIR_TESTS.items():
                if keep(ab, ba, m):
                    found[condition].append((xa, xb))
    return found


def scan_pairs_mat2(m, condition):
    """Every ordered pair (a, b) of coordinate tuples of M2(Z/m) that meets
    the condition, by testing all |R|^2 products entry by entry.

    Elements run in index order (first coordinate most significant), a in
    the outer loop and b in the inner one.  The scan runs once per m; each
    call returns a fresh list.
    """
    return list(_scan_mat2(m)[condition])


# ---------------------------------------------------------------------------
# Direct per-pair evaluation of an identity on M2(Z/m)
# ---------------------------------------------------------------------------

_E11 = [[1, 0], [0, 0]]
_F = [[0, 0], [0, 1]]
_ONE = [[1, 0], [0, 1]]


def _word_mat2(word, am, bm, m):
    """Product of the word's letters: a, b, 1, e = E11, f = 1 - E11."""
    letters = {"a": am, "b": bm, "1": _ONE, "e": _E11, "f": _F}
    out = letters[word[0]]
    for letter in word[1:]:
        out = mat2_mul(out, letters[letter], m)
    return out


def identity_residual_mat2(terms, flat, m, extra, a, b):
    """Residual of an identity on the pair (a, b) of M2(Z/m) coordinate
    tuples (b is None for single-element identities), for the map whose
    row-major matrix is `flat`.

    The codomain is M2(Z/m) plus a summand (Z/m)^extra on which the ring acts
    as zero from both sides (extra = 0 is the ring acting on itself); its
    coordinates are the four matrix cells, then the summand.  A term
    (coef, left, arg, right) adds coef * left.D(arg).right, each of left, arg
    and right being a word over a, b, 1, e, f (or None).
    """
    am = coords_to_mat2(a, m)
    bm = coords_to_mat2(b, m) if b is not None else None
    acc = [0] * (4 + extra)
    for coef, left, arg, right in terms:
        x = mat2_to_coords(_word_mat2(arg, am, bm, m), m)
        image = [sum(flat[u * 4 + v] * x[v] for v in range(4)) % m for u in range(4 + extra)]
        if left is not None or right is not None:
            cell = coords_to_mat2(image, m)
            if left is not None:
                cell = mat2_mul(_word_mat2(left, am, bm, m), cell, m)
            if right is not None:
                cell = mat2_mul(cell, _word_mat2(right, am, bm, m), m)
            image = list(mat2_to_coords(cell, m)) + [0] * extra
        acc = [(s + coef * v) % m for s, v in zip(acc, image)]
    return tuple(acc)


def first_failing_pair_mat2(terms, flat, m, extra, pairs):
    """(a, b, residual) for the first pair in `pairs` on which the identity
    does not vanish, or None when it vanishes on all of them."""
    for a, b in pairs:
        res = identity_residual_mat2(terms, flat, m, extra, a, b)
        if any(res):
            return a, b, res
    return None


# ---------------------------------------------------------------------------
# The proof-step and Peirce component statements, one evaluator each
# ---------------------------------------------------------------------------

class _Mat2Map:
    """A map M2(B) -> M2(B) + (Z/m)^extra given by its row-major matrix, for
    B = Z/m or (dual) Z/m[eps], with the ring acting by explicit 2 x 2
    products on the matrix cells and as zero on the summand."""

    def __init__(self, flat, m, extra, dual=False):
        self.flat, self.m, self.extra, self.dual = flat, m, extra, dual
        self.rank = 8 if dual else 4
        zero, unit = ((0, 0), (1, 0)) if dual else (0, 1)
        self.e = [[unit, zero], [zero, zero]]
        self.f = [[zero, zero], [zero, unit]]
        self.one = [[unit, zero], [zero, unit]]

    def __call__(self, x):
        """D(x) for a 2 x 2 matrix x, as codomain coordinates."""
        xc = mat2_to_coords(x, self.m, self.dual)
        r = self.rank
        return [
            sum(self.flat[u * r + v] * xc[v] for v in range(r)) % self.m
            for u in range(r + self.extra)
        ]

    def side(self, x, vec, y):
        """x.vec.y; x or y None means no factor on that side."""
        cell = coords_to_mat2(vec, self.m, self.dual)
        if x is not None:
            cell = mat2_mul(x, cell, self.m, self.dual)
        if y is not None:
            cell = mat2_mul(cell, y, self.m, self.dual)
        return list(mat2_to_coords(cell, self.m, self.dual)) + [0] * self.extra

    def mul(self, *mats):
        out = mats[0]
        for x in mats[1:]:
            out = mat2_mul(out, x, self.m, self.dual)
        return out

    def add(self, x, y):
        return [
            [_entry_add(u, v, self.m, self.dual) for u, v in zip(rx, ry)]
            for rx, ry in zip(x, y)
        ]

    def residual(self, lhs, *rhs):
        """lhs minus the sum of the (sign, vector) pairs in rhs."""
        out = list(lhs)
        for sign, vec in rhs:
            out = [(u - sign * v) % self.m for u, v in zip(out, vec)]
        return tuple(out)


def _corner_ee(d, a, b):
    w = d.mul(d.e, a, d.e)
    return d.residual(d(w), (1, d.side(d.e, d(w), d.e)))


def _corner_ff(d, a, b):
    w = d.mul(d.f, a, d.f)
    return d.residual(d(w), (1, d.side(d.f, d(w), d.f)))


def _corner_ef(d, a, b):
    w = d.mul(d.e, a, d.f)
    return d.residual(d(w), (1, d.side(d.e, d(w), d.f)))


def _corner_fe(d, a, b):
    w = d.mul(d.f, a, d.e)
    return d.residual(d(w), (1, d.side(d.f, d(w), d.e)))


def _rule_ee_ef(d, a, b):
    p, q = d.mul(d.e, a, d.e), d.mul(d.e, b, d.f)
    pq = d.mul(p, q)
    return d.residual(
        d.side(d.e, d(pq), d.f),
        (1, d.side(d.e, d(p), q)), (1, d.side(p, d(q), d.f)), (-1, d.side(pq, d(d.f), d.f)),
    )


def _rule_ef_ff(d, a, b):
    p, q = d.mul(d.e, a, d.f), d.mul(d.f, b, d.f)
    return d.residual(
        d.side(d.e, d(d.mul(p, q)), d.f),
        (1, d.side(d.e, d(p), q)), (1, d.side(p, d(q), d.f)), (-1, d.side(p, d(d.f), q)),
    )


def _rule_fe_ee(d, a, b):
    p, q = d.mul(d.f, a, d.e), d.mul(d.e, b, d.e)
    pq = d.mul(p, q)
    return d.residual(
        d.side(d.f, d(pq), d.e),
        (1, d.side(d.f, d(p), q)), (1, d.side(p, d(q), d.e)), (-1, d.side(d.f, d(d.f), pq)),
    )


def _rule_ff_fe(d, a, b):
    p, q = d.mul(d.f, a, d.f), d.mul(d.f, b, d.e)
    return d.residual(
        d.side(d.f, d(d.mul(p, q)), d.e),
        (1, d.side(d.f, d(p), q)), (1, d.side(p, d(q), d.e)), (-1, d.side(p, d(d.f), q)),
    )


def _rule_ee_ee(d, a, b):
    p, q = d.mul(d.e, a, d.e), d.mul(d.e, b, d.e)
    return d.residual(
        d.side(d.e, d(d.mul(p, q)), d.e),
        (1, d.side(d.e, d(p), q)), (1, d.side(p, d(q), d.e)), (-1, d.side(p, d(d.e), q)),
    )


def _rule_ff_ff(d, a, b):
    p, q = d.mul(d.f, a, d.f), d.mul(d.f, b, d.f)
    return d.residual(
        d.side(d.f, d(d.mul(p, q)), d.f),
        (1, d.side(d.f, d(p), q)), (1, d.side(p, d(q), d.f)), (-1, d.side(p, d(d.f), q)),
    )


def _central_image_of_one(d, a, b):
    return d.residual(d.side(a, d(d.one), None), (1, d.side(None, d(d.one), a)))


def _rule_ef_fe(d, a, b):
    p, q = d.mul(d.e, a, d.f), d.mul(d.f, b, d.e)
    pq = d.mul(p, q)
    return d.residual(
        d.side(d.e, d(pq), d.e),
        (1, d.side(d.e, d(p), q)), (1, d.side(p, d(q), d.e)), (-1, d.side(pq, d(d.e), d.e)),
    )


def _rule_fe_ef(d, a, b):
    p, q = d.mul(d.f, b, d.e), d.mul(d.e, a, d.f)
    pq = d.mul(p, q)
    return d.residual(
        d.side(d.f, d(pq), d.f),
        (1, d.side(d.f, d(p), q)), (1, d.side(p, d(q), d.f)), (-1, d.side(d.f, d(d.f), pq)),
    )


def _unital_component_jordan(d, a, b):
    s = d.add(d.mul(a, b), d.mul(b, a))
    return d.residual(
        d(s),
        (1, d.side(None, d(a), b)), (1, d.side(a, d(b), None)),
        (1, d.side(None, d(b), a)), (1, d.side(b, d(a), None)),
    )


def _left_degenerate_rule(d, a, b):
    s = d.add(d.mul(a, b), d.mul(b, a))
    return d.residual(d(s), (1, d.side(a, d(b), None)), (1, d.side(b, d(a), None)))


def _right_degenerate_rule(d, a, b):
    s = d.add(d.mul(a, b), d.mul(b, a))
    return d.residual(d(s), (1, d.side(None, d(a), b)), (1, d.side(None, d(b), a)))


def _outer_component_jordan_zero(d, a, b):
    return d.residual(d(d.add(d.mul(a, b), d.mul(b, a))))


def _left_degenerate_is_multiplier(d, a, b):
    return d.residual(d(a), (1, d.side(a, d(d.one), None)))


def _right_degenerate_is_multiplier(d, a, b):
    return d.residual(d(a), (1, d.side(None, d(d.one), a)))


def _outer_component_vanishes(d, a, b):
    return d.residual(d(a))


# name -> (evaluator, arity): arity 1 statements quantify over basis
# elements a, arity 2 over ordered basis pairs (a, b).
PART_STATEMENTS_MAT2 = {
    "corner_ee": (_corner_ee, 1),
    "corner_ff": (_corner_ff, 1),
    "corner_ef": (_corner_ef, 1),
    "corner_fe": (_corner_fe, 1),
    "rule_ee_ef": (_rule_ee_ef, 2),
    "rule_ef_ff": (_rule_ef_ff, 2),
    "rule_fe_ee": (_rule_fe_ee, 2),
    "rule_ff_fe": (_rule_ff_fe, 2),
    "rule_ee_ee": (_rule_ee_ee, 2),
    "rule_ff_ff": (_rule_ff_ff, 2),
    "central_image_of_one": (_central_image_of_one, 1),
    "rule_ef_fe": (_rule_ef_fe, 2),
    "rule_fe_ef": (_rule_fe_ef, 2),
    "unital_component_jordan": (_unital_component_jordan, 2),
    "left_degenerate_rule": (_left_degenerate_rule, 2),
    "right_degenerate_rule": (_right_degenerate_rule, 2),
    "outer_component_jordan_zero": (_outer_component_jordan_zero, 2),
    "left_degenerate_is_multiplier": (_left_degenerate_is_multiplier, 1),
    "right_degenerate_is_multiplier": (_right_degenerate_is_multiplier, 1),
    "outer_component_vanishes": (_outer_component_vanishes, 1),
}


def first_failing_part_mat2(name, flat, m, extra, dual=False):
    """(a, b, residual) of the first basis element (b None) or ordered basis
    pair, in basis order, on which the named statement fails for the map
    `flat` into M2(B) + (Z/m)^extra, B = Z/m or (dual) Z/m[eps]; None when it
    holds everywhere."""
    fn, arity = PART_STATEMENTS_MAT2[name]
    d = _Mat2Map(flat, m, extra, dual)
    basis = [tuple(int(k == i) for k in range(d.rank)) for i in range(d.rank)]
    cases = [(a, None) for a in basis] if arity == 1 else [(a, b) for a in basis for b in basis]
    for a, b in cases:
        bm = coords_to_mat2(b, m, dual) if b is not None else None
        res = fn(d, coords_to_mat2(a, m, dual), bm)
        if any(res):
            return a, b, res
    return None
