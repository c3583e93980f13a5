"""Exact linear algebra over Z/mZ for arbitrary modulus m >= 2.

Everything here is computed with exact integer arithmetic; no floating point
is involved anywhere.  The central tool is the Howell normal form: the unique
canonical generating matrix of a row span over Z/mZ.  Unlike echelon or Smith
forms, the Howell form canonicalizes row *spans* even when m is composite,
which makes submodule equality and membership decidable by syntactic
comparison and greedy reduction.

A matrix in Howell form satisfies, with pivot = leading (leftmost nonzero)
entry of a row:

  * leading columns strictly increase from top to bottom;
  * every pivot divides the modulus (it is the minimal generator of the ideal
    of its column, obtained by unit scaling);
  * entries above a pivot are reduced into [0, pivot);
  * the span is "saturated": any span element whose first j columns vanish
    lies in the span of the rows with leading column > j.  This is enforced by
    appending annihilator multiples (m // pivot) * row during elimination.

Residues are stored reduced in [0, m).  Python integers keep all intermediate
products exact; moduli are capped at 2**31 which keeps every product at desk
scale.  Everything here is a pure function on immutable values, so concurrent
callers need no coordination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, prod

MAX_MODULUS = 1 << 31


def _check_modulus(m):
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    if m > MAX_MODULUS:
        raise ValueError(f"modulus {m} exceeds the supported bound 2**31")


def xgcd(a, b):
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def modinv(a, n):
    g, s, _ = xgcd(a % n, n)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    return s % n


def lift_unit(a, n):
    """A unit u mod n with u*a = gcd(a, n) (mod n), for a in (0, n).

    The inverse of a/g modulo n/g is shifted by multiples of n/g until it is
    coprime to n; a valid shift always exists because the inverse is already
    coprime to n/g.
    """
    g = gcd(a, n)
    if g == a:
        return 1
    step = n // g
    u = modinv((a // g) % step, step)
    while gcd(u, n) != 1:
        u += step
    return u % n


def annihilator(a, n):
    """Generator of {x : x*a = 0 (mod n)}, reduced mod n."""
    return (n // gcd(a, n)) % n


def _howell(rows, n):
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


@dataclass(frozen=True)
class ResidueMatrix:
    """Dense matrix of residues mod `modulus`, stored row-major and reduced."""

    modulus: int
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        _check_modulus(self.modulus)
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if any(not (0 <= v < self.modulus) for v in self.entries):
            raise ValueError("entries must be reduced residues in [0, modulus)")

    @classmethod
    def from_rows(cls, modulus, rows):
        # Rows that are already sequences are read in place: constraint
        # matrices run to millions of entries, and a copy doubles the peak.
        rows = [r if isinstance(r, (list, tuple)) else list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        ent = tuple(v % modulus for r in rows for v in r)
        return cls(modulus, nrows, ncols, ent)

    @classmethod
    def identity(cls, modulus, k):
        ent = tuple(1 if i == j else 0 for i in range(k) for j in range(k))
        return cls(modulus, k, k, ent)

    @classmethod
    def zeros(cls, modulus, rows, cols):
        return cls(modulus, rows, cols, (0,) * (rows * cols))

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def to_json(self):
        return {
            "m": self.modulus,
            "rows": self.rows,
            "cols": self.cols,
            "data": list(self.entries),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(obj["m"], obj["rows"], obj["cols"], tuple(obj["data"]))

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


def mat_vec(matrix, vec):
    """matrix @ vec over Z/mZ; vec is a sequence of length matrix.cols."""
    if len(vec) != matrix.cols:
        raise ValueError("vector length does not match column count")
    n = matrix.modulus
    ent = matrix.entries
    c = matrix.cols
    out = []
    for i in range(matrix.rows):
        base = i * c
        out.append(sum(ent[base + j] * vec[j] for j in range(c)) % n)
    return tuple(out)


def mat_mul(a, b):
    if a.modulus != b.modulus:
        raise ValueError("modulus mismatch")
    if a.cols != b.rows:
        raise ValueError("inner dimensions differ")
    n = a.modulus
    arows = a.to_rows()
    bcols = [[b.entry(i, j) for i in range(b.rows)] for j in range(b.cols)]
    ent = []
    for r in arows:
        for col in bcols:
            ent.append(sum(x * y for x, y in zip(r, col)) % n)
    return ResidueMatrix(n, a.rows, b.cols, tuple(ent))


def mat_add(a, b, coef=1):
    if (a.modulus, a.rows, a.cols) != (b.modulus, b.rows, b.cols):
        raise ValueError("shape or modulus mismatch")
    n = a.modulus
    ent = tuple((x + coef * y) % n for x, y in zip(a.entries, b.entries))
    return ResidueMatrix(n, a.rows, a.cols, ent)


def howell_form(matrix):
    """Canonical Howell form of the row span of `matrix`.

    Idempotent; two inputs with equal row span produce identical output.
    Zero rows are dropped, so the zero span yields a 0-row matrix.
    """
    h = _howell(matrix.to_rows(), matrix.modulus)
    return ResidueMatrix.from_rows(matrix.modulus, h) if h else ResidueMatrix.zeros(
        matrix.modulus, 0, matrix.cols
    )


def _leading(row):
    for j, v in enumerate(row):
        if v:
            return j
    return None


def _reduce_greedy(howell_rows, vec, n):
    """Greedily reduce vec against Howell rows; returns the residual.

    For Howell forms the residual is zero exactly when vec lies in the span.
    """
    w = [v % n for v in vec]
    for row in howell_rows:
        c = _leading(row)
        p = row[c]
        if w[c] % p == 0:
            q = w[c] // p
            if q:
                w = [(x - q * y) % n for x, y in zip(w, row)]
    return w


@dataclass(frozen=True)
class SolutionModule:
    """A submodule of (Z/mZ)^ambient_rank with canonical Howell generators."""

    modulus: int
    ambient_rank: int
    generators: ResidueMatrix

    def __post_init__(self):
        g = self.generators
        if g.modulus != self.modulus or g.cols != self.ambient_rank:
            raise ValueError("generator matrix does not match module header")

    @classmethod
    def from_rows(cls, modulus, ambient_rank, rows):
        h = _howell([list(r) for r in rows], modulus)
        gen = (
            ResidueMatrix.from_rows(modulus, h)
            if h
            else ResidueMatrix.zeros(modulus, 0, ambient_rank)
        )
        return cls(modulus, ambient_rank, gen)

    def contains(self, vec):
        if len(vec) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        res = _reduce_greedy(self.generators.to_rows(), vec, self.modulus)
        return not any(res)

    def size(self):
        """Number of elements: product over pivots p of (m // p)."""
        n = self.modulus
        return prod(n // row[_leading(row)] for row in self.generators.to_rows())

    def elements(self):
        """Iterate every element exactly once (coefficients run mod m//pivot)."""
        n = self.modulus
        gens = self.generators.to_rows()
        if not gens:
            yield (0,) * self.ambient_rank
            return
        ranges = [n // row[_leading(row)] for row in gens]
        idx = [0] * len(gens)
        while True:
            acc = [0] * self.ambient_rank
            for lam, row in zip(idx, gens):
                if lam:
                    for k in range(self.ambient_rank):
                        acc[k] = (acc[k] + lam * row[k]) % n
            yield tuple(acc)
            pos = len(idx) - 1
            while pos >= 0:
                idx[pos] += 1
                if idx[pos] < ranges[pos]:
                    break
                idx[pos] = 0
                pos -= 1
            if pos < 0:
                return

    def random_element(self, rng):
        n = self.modulus
        acc = [0] * self.ambient_rank
        for row in self.generators.to_rows():
            lam = rng.randrange(n)
            if lam:
                for k in range(self.ambient_rank):
                    acc[k] = (acc[k] + lam * row[k]) % n
        return tuple(acc)

    def sum_with(self, other):
        _compatible(self, other)
        rows = self.generators.to_rows() + other.generators.to_rows()
        return SolutionModule.from_rows(self.modulus, self.ambient_rank, rows)

    def to_json(self):
        return {
            "modulus": self.modulus,
            "ambient_rank": self.ambient_rank,
            "generators": self.generators.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj["modulus"],
            obj["ambient_rank"],
            ResidueMatrix.from_json(obj["generators"]),
        )


def _compatible(s1, s2):
    if s1.modulus != s2.modulus:
        raise ValueError("modulus mismatch")
    if s1.ambient_rank != s2.ambient_rank:
        raise ValueError("ambient rank mismatch")


def module_equal(s1, s2):
    """Equality of submodules; sound because generators are canonical."""
    _compatible(s1, s2)
    return s1.generators == s2.generators


def _dedupe_rows(rows):
    return [list(r) for r in dict.fromkeys(tuple(r) for r in rows)]


def _howell_kernel(rows, ncols, n):
    """Howell form H of the deduplicated ``rows``, the Howell form HH of
    [H^T | I] built on the first ``ncols`` columns of H, and the right kernel
    of those columns.

    The kernel is read off the rows of HH whose leading column lies in the
    identity block; those tails are already canonical.
    """
    h = _howell(_dedupe_rows(rows), n)
    nrows = len(h)
    aug = [
        [h[i][j] for i in range(nrows)] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    hh = _howell(aug, n)
    kernel = [r[nrows:] for r in hh if not any(r[:nrows])]
    return h, hh, SolutionModule.from_rows(n, ncols, kernel)


def solve_homogeneous(matrix):
    """The solution module {x : matrix @ x = 0 (mod m)}.

    The equations are first deduplicated and compressed to their Howell form
    (the kernel only depends on the row span); see ``_howell_kernel``.
    """
    return _howell_kernel(matrix.to_rows(), matrix.cols, matrix.modulus)[2]


def solve_affine(matrix, rhs):
    """One solution of matrix @ x = rhs plus the homogeneous module.

    Returns (particular, module); particular is None when the system is
    inconsistent (this is a result, not an error).
    """
    n = matrix.modulus
    if len(rhs) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    ncols = matrix.cols
    rows_ab = [list(r) + [b % n] for r, b in zip(matrix.to_rows(), rhs)]
    hab, hh, module = _howell_kernel(rows_ab, ncols, n)
    nrows = len(hab)
    target = [hab[i][ncols] for i in range(nrows)] + [0] * ncols
    res = _reduce_greedy(hh, target, n)
    if any(res[:nrows]):
        return None, module
    particular = tuple((-t) % n for t in res[nrows:])
    return particular, module
