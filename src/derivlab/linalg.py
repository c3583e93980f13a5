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

Elimination runs on sparse rows: each row is a {column: residue} dict holding
only its nonzero entries, and a row's pivot is its smallest key.  Constraint
rows have a handful of nonzeros in hundreds of columns, and their Howell forms
stay sparse.  Elimination touches only the entries a row holds, and the final
reduction above the pivots visits only the pivot columns a row holds or gains
on the way, so the work follows the nonzeros, not the width.  Rows are passed
around in one form, the canonical row: a tuple of (column, residue) pairs,
residues reduced and nonzero, in column order.  A ``SolutionModule`` is its
Howell rows in that form, and ``_canonical`` is the one converter from dense
or dict rows; a tuple row that is not canonical is refused there.  There is
one kernel routine, ``column_kernel``, and every kernel in the package is
one call to it.  It reads a system by its columns, {column: {row: entry}},
the A^T block of [A^T | I], entries as they come: identity solves and the
action-table kernels (centres, structural and annihilator kernels) write
their systems in that form, repeated and zero rows kept, and
``solve_homogeneous`` reads a dense matrix's columns.  It checks every
column and row against the system's shape before elimination.  The dense
``ResidueMatrix`` is a container with no arithmetic: it holds an additive
map's coordinates (``maps`` computes on them), and it is built on demand for
constraint systems, JSON, and a module's ``generators`` when first read.

Residues are stored reduced in [0, m).  Python integers keep all intermediate
products exact; moduli are capped at 2**31 which keeps every product at desk
scale.  Everything here is a pure function on immutable values, so concurrent
callers need no coordination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod

MAX_MODULUS = 1 << 31


def _check_modulus(m):
    if not isinstance(m, int) or m < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {m!r}")
    if m > MAX_MODULUS:
        raise ValueError(f"modulus {m} exceeds the supported bound 2**31")


def _json_field(obj, key):
    """``obj[key]`` of JSON read from outside; ValueError when there is none."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"expected a JSON object with key {key!r}")
    return obj[key]


def _json_int(obj, key):
    """The integer ``obj[key]``; a bool, float or string raises ValueError."""
    value = _json_field(obj, key)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {type(value).__name__}")
    return value


def _json_ints(obj, key):
    """The list of integers ``obj[key]``, checked like ``_json_int``."""
    values = _json_field(obj, key)
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{key!r} must be a list of integers")
    return values


def xgcd(a, b):
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


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
    u = pow(a // g, -1, step)
    while gcd(u, n) != 1:
        u += step
    return u % n


def annihilator(a, n):
    """Generator of {x : x*a = 0 (mod n)}, reduced mod n."""
    return (n // gcd(a, n)) % n


def _canonical(rows, width, n):
    """``rows`` as canonical rows (the zero row is ()).  A row is a sequence
    of ``width`` residues, a {column: residue} dict with columns in
    [0, width), or a tuple of (column, residue) pairs, kept as it is if it
    is canonical: columns strictly increasing in [0, width), residues in
    (0, n).  Any other row raises ``ValueError`` naming its index and the
    width."""
    _check_modulus(n)
    out = []
    for i, r in enumerate(rows):
        if isinstance(r, dict):
            if r and (min(r) < 0 or max(r) >= width):
                raise ValueError(f"row {i} has a column outside width {width}")
            r = tuple(sorted((k, x) for k, v in r.items() if (x := v % n)))
        elif type(r) is tuple and (not r or type(r[0]) is tuple):
            last = -1
            for k, x in r:
                if not (last < k < width and 0 < x < n):
                    raise ValueError(f"row {i} is not a canonical row of width {width}")
                last = k
        elif len(r) != width:
            raise ValueError(f"row {i} has {len(r)} entries, not width {width}")
        else:
            r = tuple((k, x) for k, v in enumerate(r) if (x := v % n))
        out.append(r)
    return out


def _draws(rng, n, count):
    """``count`` draws from range(n), the ones ``count`` calls of
    ``rng.randrange(n)`` make, leaving ``rng`` in the same state: CPython
    3.10-3.13 draw ``getrandbits(n.bit_length())`` and reject values >= n
    (checked against ``randrange`` on 3.10.13, 3.11.7, 3.12.1 and 3.13.0)."""
    k = n.bit_length()
    bits = rng.getrandbits
    out = []
    append = out.append
    for _ in range(count):
        x = bits(k)
        while x >= n:
            x = bits(k)
        append(x)
    return out


def _add_multiple(row, q, other, n):
    """row += q * other (mod n) in place, keeping only nonzero entries."""
    for k, v in other.items():
        x = (row.get(k, 0) + q * v) % n
        if x:
            row[k] = x
        elif k in row:
            del row[k]


def _combine(s, x, t, y, n):
    """s * x + t * y (mod n) as a new sparse row."""
    out = {}
    for k in x.keys() | y.keys():
        v = (s * x.get(k, 0) + t * y.get(k, 0)) % n
        if v:
            out[k] = v
    return out


def _howell(rows, n, start=0):
    """Howell normal form of the elements of the span of ``rows`` (canonical
    rows or {column: residue} dicts, reduced; zero rows are skipped) that
    vanish before column ``start``, as new sparse rows in pivot order; the
    input is not modified.  By saturation these are the basis rows with
    pivot >= ``start``, the only ones back-reduced.

    Each row is reduced against a basis keyed by pivot column, leftmost column
    first.  Where its leading column has no basis row yet, the row becomes one,
    scaled by a unit to the minimal pivot gcd(entry, n).  Where the basis pivot
    divides the entry, a multiple of the basis row is subtracted.  Otherwise
    the gcd step replaces the pair by a unimodular combination: a new basis row
    with pivot gcd(pivot, entry) and a remainder that vanishes in that column.
    Whenever a pivot p other than 1 is set, (n // p) * row is queued too,
    which saturates the span.  Last, the entries above each pivot are
    reduced into [0, pivot): from the bottom basis row up, each row visits
    the pivot columns it holds, least first, and subtracting a multiple of a
    lower row adds the pivot columns that row brings in.  Subtracting the
    row of pivot c changes only columns after c, so no column is visited
    twice and the columns are reduced in ascending order, as a walk over
    every later pivot would.  A row holds few pivot columns, so ``min`` over
    a set finds the least.  The result is canonical, so it does not depend
    on the order of the rows.
    """
    basis = {}
    todo = [dict(r) for r in rows]
    while todo:
        row = todo.pop()
        while row:
            c = min(row)
            v = row[c]
            piv = basis.get(c)
            if piv is not None and v % piv[c] == 0:
                _add_multiple(row, -(v // piv[c]), piv, n)
                continue
            if piv is None:
                # row is a private copy; a unit keeps every entry nonzero
                u = lift_unit(v, n)
                new = row if u == 1 else {k: u * x % n for k, x in row.items()}
                row = None
            else:
                a = piv[c]
                g, s, t = xgcd(a, v)
                new = _combine(s, piv, t, row, n)
                row = _combine(-(v // g), piv, a // g, row, n)
            basis[c] = new
            q = annihilator(new[c], n)  # 0 for a unit pivot
            if q:
                extra = {k: y for k, x in new.items() if (y := q * x % n)}
                if extra:
                    todo.append(extra)
    cols = sorted(c for c in basis if c >= start)
    for c0 in reversed(cols):
        row = basis[c0]
        pending = row.keys() & basis.keys()
        pending.discard(c0)
        while pending:
            c = min(pending)
            pending.remove(c)
            piv = basis[c]
            x = row.get(c, 0)
            if x >= piv[c]:
                _add_multiple(row, -(x // piv[c]), piv, n)
                pending |= piv.keys() & basis.keys()
                pending.discard(c)
    return [basis[c] for c in cols]


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
        if self.entries and (min(self.entries) < 0 or max(self.entries) >= self.modulus):
            raise ValueError("entries must be reduced residues in [0, modulus)")

    @classmethod
    def from_rows(cls, modulus, rows):
        # Dense rows; rows that are already sequences are read in place.
        # Solving never comes through here: it runs on sparse rows.
        rows = [r if isinstance(r, (list, tuple)) else list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        ent = tuple(v % modulus for r in rows for v in r)
        return cls(modulus, nrows, ncols, ent)

    @classmethod
    def from_sparse(cls, modulus, cols, rows):
        """The dense matrix of rows of (column, residue) pairs, such as
        canonical rows, zero rows kept."""
        ent = []
        nrows = 0
        for nrows, r in enumerate(rows, 1):
            dense = [0] * cols
            for k, v in r:
                if not 0 <= k < cols:
                    raise ValueError(f"column {k} outside width {cols}")
                dense[k] = v % modulus
            ent.extend(dense)
        return cls(modulus, nrows, cols, tuple(ent))

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
        return cls(_json_int(obj, "m"), _json_int(obj, "rows"), _json_int(obj, "cols"),
                   tuple(_json_ints(obj, "data")))


def _frozen(rows, shift=0):
    """Dict rows as the ``SolutionModule.rows`` tuples, columns less ``shift``."""
    return tuple(tuple(sorted((k - shift, v) for k, v in r.items())) for r in rows)


@dataclass(frozen=True)
class SolutionModule:
    """A submodule of (Z/mZ)^ambient_rank as its canonical Howell rows: tuples
    of nonzero (column, residue) entries in column order, pivot first.  A
    dense matrix given for ``rows`` is read as given and kept as ``generators``;
    ``from_rows`` and ``from_json`` canonicalise any generators."""

    modulus: int
    ambient_rank: int
    rows: tuple

    def __post_init__(self):
        g = self.rows
        if isinstance(g, ResidueMatrix):
            if g.modulus != self.modulus or g.cols != self.ambient_rank:
                raise ValueError("generator matrix does not match module header")
            object.__setattr__(self, "rows", tuple(_canonical(g.to_rows(), g.cols, g.modulus)))
            self.__dict__["generators"] = g

    @classmethod
    def from_rows(cls, modulus, ambient_rank, rows):
        """The module spanned by ``rows``: dense sequences of length
        ``ambient_rank``, {column: residue} dicts or canonical rows (see
        ``_canonical``)."""
        rows = dict.fromkeys(_canonical(rows, ambient_rank, modulus))
        return cls(modulus, ambient_rank, _frozen(_howell(rows, modulus)))

    @cached_property
    def generators(self):
        """The Howell rows as a dense ``ResidueMatrix``, built when first read."""
        return ResidueMatrix.from_sparse(self.modulus, self.ambient_rank, self.rows)

    def contains(self, vec):
        """Whether ``vec`` (integers, reduced or not) lies in the module.

        Only the entries the rows hold are read and reduced: each pivot
        entry, read mod m, must be a multiple of its pivot, as later rows
        vanish in its column.  The other entries are reduced only when one
        is left nonzero: an unreduced input or a non-member."""
        if len(vec) != self.ambient_rank:
            raise ValueError("vector length does not match ambient rank")
        n = self.modulus
        w = list(vec)
        for row in self.rows:
            c, p = row[0]
            q, r = divmod(w[c] % n, p)
            if r:
                return False
            if q:
                for k, v in row:
                    w[k] = (w[k] - q * v) % n
        return not any(w) or not any(x % n for x in w)

    def size(self):
        """Number of elements: product over pivots p of (m // p)."""
        n = self.modulus
        return prod(n // row[0][1] for row in self.rows)

    def _combination(self, coefs):
        n = self.modulus
        acc = [0] * self.ambient_rank
        for lam, row in zip(coefs, self.rows):
            if lam:
                for k, v in row:
                    acc[k] = (acc[k] + lam * v) % n
        return tuple(acc)

    def elements(self):
        """Iterate every element exactly once (coefficients run mod m//pivot)."""
        ranges = [range(self.modulus // row[0][1]) for row in self.rows]
        for idx in itertools.product(*ranges):
            yield self._combination(idx)

    def random_element(self, rng):
        return self._combination(_draws(rng, self.modulus, len(self.rows)))

    def sum_with(self, other):
        _compatible(self, other)
        return SolutionModule.from_rows(self.modulus, self.ambient_rank, self.rows + other.rows)

    def to_json(self):
        return {
            "modulus": self.modulus,
            "ambient_rank": self.ambient_rank,
            "generators": self.generators.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        """The module the JSON generators span, in canonical rows, whether
        or not they are a Howell form."""
        g = ResidueMatrix.from_json(_json_field(obj, "generators"))
        if g.modulus != _json_int(obj, "modulus") or g.cols != _json_int(obj, "ambient_rank"):
            raise ValueError("generator matrix does not match module header")
        return cls.from_rows(g.modulus, g.cols, g.to_rows())


def _compatible(s1, s2):
    if s1.modulus != s2.modulus:
        raise ValueError("modulus mismatch")
    if s1.ambient_rank != s2.ambient_rank:
        raise ValueError("ambient rank mismatch")


def module_equal(s1, s2):
    """Equality of submodules; sound because Howell rows are canonical."""
    _compatible(s1, s2)
    return s1.rows == s2.rows


def column_kernel(modulus, width, nrows, columns):
    """The kernel in (Z/mZ)^width of the nrows x width system A given by its
    columns, {column j: {row i: entry}}, read off one Howell form of
    [A^T | I].  Entries are any integers, reduced here; zero, repeated and
    missing rows are kept as they come, since they leave the kernel as it
    is.  A column outside [0, width), or a nonzero entry in a row outside
    [0, nrows), raises ``ValueError`` before any elimination.  The row span
    of [A^T | I] is {(A.x, x)}, so the kernel is the part of it that
    vanishes on the A^T block: the Howell rows whose pivot lies in the
    identity block, which are canonical there (Storjohann and Mulders, "Fast
    algorithms for linear algebra modulo N", ESA 1998).
    """
    _check_modulus(modulus)
    aug = [{nrows + j: 1} for j in range(width)]
    for j, col in columns.items():
        if not 0 <= j < width:
            raise ValueError(f"column {j} outside width {width}")
        row = aug[j]
        for i, v in col.items():
            if x := v % modulus:
                if not 0 <= i < nrows:
                    raise ValueError(f"column {j} has row {i}, outside the {nrows} rows")
                row[i] = x
    return SolutionModule(modulus, width, _frozen(_howell(aug, modulus, nrows), nrows))


def solve_homogeneous(matrix):
    """The solution module {x : matrix @ x = 0 (mod m)}: ``column_kernel``
    of the matrix's columns, read off its row-major entries."""
    e, width = matrix.entries, matrix.cols
    columns = {j: dict(enumerate(e[j::width])) for j in range(width)}
    return column_kernel(matrix.modulus, width, matrix.rows, columns)
