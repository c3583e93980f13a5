"""Independent brute-force oracles for the test suite.

Nothing here goes through the package's Howell machinery or structure-constant
multiplication: spans are enumerated by closure, matrix products are computed
entry by entry on explicit 2 x 2 representations (identities are evaluated on
them pair by pair, term by term), and echelon forms over prime fields use a
textbook RREF.  These routes stay deliberately separate from the
code paths they check.
"""

from __future__ import annotations

from itertools import product


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


def affine_by_enumeration(rows, rhs, m, k):
    out = set()
    for x in all_vectors(m, k):
        if all(
            sum(r[j] * x[j] for j in range(k)) % m == b % m
            for r, b in zip(rows, rhs)
        ):
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


def scan_pairs_mat2(m, condition):
    """Every ordered pair (a, b) of coordinate tuples of M2(Z/m) that meets
    the condition, by testing all |R|^2 products entry by entry.

    Elements run in index order (first coordinate most significant), a in
    the outer loop and b in the inner one.
    """
    keep = _PAIR_TESTS[condition]
    elements = all_vectors(m, 4)
    mats = [coords_to_mat2(x, m) for x in elements]
    found = []
    for xa, am in zip(elements, mats):
        for xb, bm in zip(elements, mats):
            if keep(mat2_mul(am, bm, m), mat2_mul(bm, am, m), m):
                found.append((xa, xb))
    return found


# ---------------------------------------------------------------------------
# Direct per-pair evaluation of an identity on M2(Z/m)
# ---------------------------------------------------------------------------

def identity_residual_mat2(terms, flat, m, extra, a, b):
    """Residual of an identity on the pair (a, b) of M2(Z/m) coordinate
    tuples, for the map whose row-major matrix is `flat`.

    The codomain is M2(Z/m) plus a summand (Z/m)^extra on which the ring acts
    as zero from both sides (extra = 0 is the ring acting on itself); its
    coordinates are the four matrix cells, then the summand.  A term
    (coef, left, arg, right) adds coef * left.D(arg).right.
    """
    am, bm = coords_to_mat2(a, m), coords_to_mat2(b, m)
    ab, ba = mat2_mul(am, bm, m), mat2_mul(bm, am, m)
    args = {"a": am, "b": bm, "one": [[1, 0], [0, 1]], "ab": ab, "ba": ba,
            "ab+ba": _mat2_add(ab, ba, m)}
    sides = {"a": am, "b": bm}
    acc = [0] * (4 + extra)
    for coef, left, arg, right in terms:
        x = mat2_to_coords(args[arg], m)
        image = [sum(flat[u * 4 + v] * x[v] for v in range(4)) % m for u in range(4 + extra)]
        if left is not None or right is not None:
            cell = coords_to_mat2(image, m)
            if left is not None:
                cell = mat2_mul(sides[left], cell, m)
            if right is not None:
                cell = mat2_mul(cell, sides[right], m)
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
