"""Additive maps from a finite ring into a bimodule over it.

An additive map between Z/mZ-modules is automatically Z/mZ-linear: scalar
action is repeated addition, so additivity pins the whole scalar action down.
(The test suite samples this fact rather than leaving it folklore.)  Maps are
therefore stored as exact coordinate matrices, codomain rank by domain rank,
acting on coordinate columns; every operation reads the row-major entries
directly, column j being ``entries[j::cols]``, the image of the j-th basis
element.

Map *spaces* - e.g. all derivations of a given ring - are handled elsewhere as
solution modules over the row-major flattening of these matrices; the helpers
``to_flat`` / ``from_flat`` fix that flattening order once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .linalg import ResidueMatrix, _json_field
from .rings import (
    Bimodule,
    RingDescriptor,
    RingElement,
    act,
    basis_elements,
    bimodule_rank,
    matrix_ring,
    ring_rank,
)


def as_bimodule(codomain):
    """Accept a ring descriptor or a bimodule; rings mean themselves."""
    if isinstance(codomain, RingDescriptor):
        return Bimodule.regular(codomain)
    if isinstance(codomain, Bimodule):
        return codomain
    raise ValueError("codomain must be a ring descriptor or a bimodule")


@dataclass(frozen=True)
class AdditiveMap:
    domain: RingDescriptor
    codomain: Bimodule
    matrix: ResidueMatrix

    def __post_init__(self):
        if self.matrix.rows != bimodule_rank(self.codomain):
            raise ValueError("matrix row count must equal codomain rank")
        if self.matrix.cols != ring_rank(self.domain):
            raise ValueError("matrix column count must equal domain rank")
        if self.matrix.modulus != self.domain.m:
            raise ValueError("matrix modulus must match the ring modulus")

    def apply(self, x):
        """Image of a domain element, a RingElement or raw coordinates (any
        integers): the columns of its nonzero coordinates, scaled, summed
        and reduced once."""
        coords = x.coords if isinstance(x, RingElement) else tuple(x)
        mat = self.matrix
        if len(coords) != mat.cols:
            raise ValueError("vector length does not match column count")
        out = [0] * mat.rows
        for j, c in enumerate(coords):
            if c:
                out = [o + c * v for o, v in zip(out, mat.entries[j::mat.cols])]
        return tuple([o % mat.modulus for o in out])

    def __add__(self, other):
        self._match(other)
        flat = map(operator.add, self.to_flat(), other.to_flat())
        return AdditiveMap.from_flat(self.domain, self.codomain, flat)

    def __sub__(self, other):
        self._match(other)
        flat = map(operator.sub, self.to_flat(), other.to_flat())
        return AdditiveMap.from_flat(self.domain, self.codomain, flat)

    def _match(self, other):
        if not isinstance(other, AdditiveMap):
            raise ValueError("expected an additive map")
        if other.domain != self.domain or other.codomain != self.codomain:
            raise ValueError("map descriptor mismatch")

    def is_zero(self):
        return not any(self.matrix.entries)

    def to_flat(self):
        """Row-major flattening used throughout for map-space modules."""
        return self.matrix.entries

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
            "matrix": self.matrix.to_json(),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            RingDescriptor.from_json(_json_field(obj, "domain")),
            Bimodule.from_json(_json_field(obj, "codomain")),
            ResidueMatrix.from_json(_json_field(obj, "matrix")),
        )

    @classmethod
    def from_flat(cls, domain, codomain, flat):
        codomain = as_bimodule(codomain)
        rows = bimodule_rank(codomain)
        cols = ring_rank(domain)
        m = domain.m
        return cls(domain, codomain, ResidueMatrix(m, rows, cols, tuple(v % m for v in flat)))


def zero_map(domain, codomain):
    codomain = as_bimodule(codomain)
    mat = ResidueMatrix.zeros(domain.m, bimodule_rank(codomain), ring_rank(domain))
    return AdditiveMap(domain, codomain, mat)


def identity_map(ring):
    bim = Bimodule.regular(ring)
    return AdditiveMap(ring, bim, ResidueMatrix.identity(ring.m, ring_rank(ring)))


def from_columns(domain, codomain, cols):
    """The map whose image of the j-th basis element of ``domain`` is
    ``cols[j]``, given in codomain coordinates."""
    return AdditiveMap(domain, codomain, ResidueMatrix.from_rows(domain.m, zip(*cols)))


def compose(f, g):
    """f after g; g's codomain must be its ring acting on itself.  Column j
    is f applied to g's column j."""
    if g.codomain != Bimodule.regular(f.domain):
        raise ValueError("inner codomain does not match outer domain")
    cols = [f.apply(g.matrix.entries[j::g.matrix.cols]) for j in range(g.matrix.cols)]
    return from_columns(g.domain, f.codomain, cols)


def _map_from_columns(codomain, column):
    """The map whose image of the j-th ring basis element is
    column(codomain, basis_j)."""
    codomain = as_bimodule(codomain)
    cols = [column(codomain, x.coords) for x in basis_elements(codomain.ring)]
    return from_columns(codomain.ring, codomain, cols)


def inner_derivation(codomain, m_coords):
    """The derivation a |-> a.m - m.a for a fixed module element m."""

    def column(bim, a):
        am = act(bim, "L", a, m_coords)
        ma = act(bim, "R", a, m_coords)
        return tuple((x - y) % bim.ring.m for x, y in zip(am, ma))

    return _map_from_columns(codomain, column)


def right_multiplier(codomain, c_coords):
    """The map a |-> a.c; for central c this satisfies the zero-product
    hypothesis, and for any c it is a generalized derivation."""
    return _map_from_columns(codomain, lambda bim, a: act(bim, "L", a, c_coords))


def lift_map(d, n):
    """Entrywise lift of a base-ring map to the n x n matrix ring over it.

    The lifted map sends the matrix with (i, j) entry x to the matrix with
    (i, j) entry d(x); its matrix is block diagonal with n^2 copies of d.
    Base maps into the base ring itself lift into the matrix ring; base maps
    into a genuine base bimodule lift into matrices over that bimodule.
    """
    base = d.domain
    ring = matrix_ring(n, base)
    if d.codomain == Bimodule.regular(base):
        codomain = Bimodule.regular(ring)
    else:
        codomain = Bimodule.matrix_over(ring, d.codomain)
    rb = ring_rank(base)
    cells = n * n
    rows = ((0,) * (cell * rb) + d.matrix.row(u) + (0,) * ((cells - 1 - cell) * rb)
            for cell in range(cells) for u in range(bimodule_rank(d.codomain)))
    return AdditiveMap(ring, codomain, ResidueMatrix.from_rows(base.m, rows))
