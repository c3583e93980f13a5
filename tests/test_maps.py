import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivlab.identities import check, maps_from_module, solve_all
from derivlab.linalg import ResidueMatrix, module_equal, solve_homogeneous
from derivlab.maps import (
    AdditiveMap,
    compose,
    identity_map,
    inner_derivation,
    lift_map,
    right_multiplier,
    zero_map,
)
from derivlab.rings import (
    Bimodule,
    RingElement,
    bimodule_rank,
    center_basis,
    dual_numbers,
    element_from_index,
    matrix_ring,
    matrix_unit,
    one_element,
    ring_rank,
    zero_element,
    zmod,
)
import oracles

M2Z3 = matrix_ring(2, zmod(3))
REG = Bimodule.regular(M2Z3)
DUAL3 = dual_numbers(3)
M2D3 = matrix_ring(2, DUAL3)


def test_apply_zero_and_identity():
    z = zero_map(M2Z3, REG)
    i = identity_map(M2Z3)
    x = matrix_unit(M2Z3, 1, 2) + one_element(M2Z3)
    assert z.apply(x) == (0, 0, 0, 0)
    assert i.apply(x) == x.coords


def test_inner_derivation_examples():
    e11 = matrix_unit(M2Z3, 1, 1)
    e12 = matrix_unit(M2Z3, 1, 2)
    inner = inner_derivation(REG, e11.coords)
    # convention a |-> a.m - m.a: E12.E11 - E11.E12 = -E12
    assert inner.apply(e12) == (-e12).coords
    # I_1 = 0 and I_m(1) = 0
    assert inner_derivation(REG, one_element(M2Z3).coords).is_zero()
    assert inner.apply(one_element(M2Z3)) == (0, 0, 0, 0)


def test_inner_derivation_additive_in_element():
    rng = random.Random(2)
    for _ in range(20):
        x = element_from_index(M2Z3, rng.randrange(81))
        y = element_from_index(M2Z3, rng.randrange(81))
        lhs = inner_derivation(REG, (x + y).coords)
        rhs = inner_derivation(REG, x.coords) + inner_derivation(REG, y.coords)
        assert lhs.matrix == rhs.matrix


def test_inner_derivation_kernel_is_center():
    # the kernel of m |-> I_m equals the centre, as modules over the m-coords
    rank = ring_rank(M2Z3)
    cols = []
    for j in range(rank):
        basis = tuple(1 if k == j else 0 for k in range(rank))
        cols.append(inner_derivation(REG, basis).to_flat())
    rows = [[cols[j][t] for j in range(rank)] for t in range(rank * rank)]
    kernel = solve_homogeneous(ResidueMatrix.from_rows(3, rows))
    assert module_equal(kernel, center_basis(M2Z3))


def test_right_multiplier_examples():
    assert right_multiplier(REG, (0, 0, 0, 0)).is_zero()
    c = (1, 2, 0, 1)
    rmap = right_multiplier(REG, c)
    assert rmap.apply(one_element(M2Z3)) == c


def test_right_multiplier_is_generalized_derivation_for_every_basis_c():
    rank = ring_rank(M2Z3)
    for j in range(rank):
        c = tuple(1 if k == j else 0 for k in range(rank))
        rep = check(right_multiplier(REG, c), "generalized_derivation")
        assert rep.passed


def test_right_multiplier_central_satisfies_zero_product_condition():
    for c in center_basis(M2Z3).elements():
        rep = check(right_multiplier(REG, c), "star")
        assert rep.passed


def test_map_algebra():
    f = inner_derivation(REG, matrix_unit(M2Z3, 1, 2).coords)
    assert (f - f).is_zero()
    assert compose(identity_map(M2Z3), f).matrix == f.matrix
    assert compose(f, identity_map(M2Z3)).matrix == f.matrix
    g = right_multiplier(REG, (1, 0, 0, 1))
    assert ((f + g) - g).matrix == f.matrix


@pytest.mark.parametrize("ring, codomain", [
    (M2Z3, REG),
    (matrix_ring(2, zmod(9)), None),
    (M2D3, None),
    (M2Z3, Bimodule.inflated(REG, 3)),
])
def test_map_arithmetic_matches_the_dense_product(ring, codomain):
    # apply sums the columns of the nonzero coordinates and compose applies
    # f to g's columns; both against the row-by-column product, on any
    # integers, reduced or not, negative, or read from a RingElement
    rng = random.Random(11)
    bim = codomain or Bimodule.regular(ring)
    m, rank = ring.m, ring_rank(ring)

    def random_map(target):
        flat = [rng.randrange(m) for _ in range(bimodule_rank(target) * rank)]
        return AdditiveMap.from_flat(ring, target, flat)

    for _ in range(4):
        f, g, h = random_map(bim), random_map(bim), random_map(Bimodule.regular(ring))
        vectors = [[rng.randrange(-2 * m, 3 * m) for _ in range(rank)] for _ in range(4)]
        vectors += [[0] * rank, [0] * (rank - 1) + [-1]]
        for vec in vectors:
            expect = oracles.dense_product_reference(f.matrix, vec)
            assert f.apply(vec) == expect
            assert f.apply(iter(vec)) == expect
            element = RingElement(ring, tuple(v % m for v in vec))
            assert f.apply(element) == expect
            fx, gx = expect, oracles.dense_product_reference(g.matrix, vec)
            assert (f + g).apply(vec) == tuple((x + y) % m for x, y in zip(fx, gx))
            assert (f - g).apply(vec) == tuple((x - y) % m for x, y in zip(fx, gx))
        pairs = list(zip(f.matrix.entries, g.matrix.entries))
        assert (f + g).matrix.entries == tuple((x + y) % m for x, y in pairs)
        assert (f - g).matrix.entries == tuple((x - y) % m for x, y in pairs)
        product = oracles.dense_product_reference(f.matrix, h.matrix)
        assert compose(f, h).matrix.to_rows() == product
        for bad in (vec[:-1], vec + [0]):
            with pytest.raises(ValueError, match="vector length"):
                f.apply(bad)


def test_map_subtraction_is_pointwise():
    e = matrix_unit(M2Z3, 1, 1)
    d = inner_derivation(REG, (1, 2, 1, 0))
    inner = inner_derivation(REG, d.apply(e))
    delta = d - inner
    for idx in range(81):
        x = element_from_index(M2Z3, idx)
        expect = tuple((a - b) % 3 for a, b in zip(d.apply(x), inner.apply(x)))
        assert delta.apply(x) == expect


def test_descriptor_mismatch_errors():
    f = identity_map(M2Z3)
    g = identity_map(matrix_ring(2, zmod(5)))
    with pytest.raises(ValueError):
        f + g
    with pytest.raises(ValueError):
        compose(f, g)
    with pytest.raises(ValueError):
        f.apply((1, 0, 0))


def test_lift_map_zero_and_entrywise():
    z = zero_map(DUAL3, Bimodule.regular(DUAL3))
    assert lift_map(z, 2).is_zero()
    # d(1) = 0, d(eps) = eps
    d = AdditiveMap(
        DUAL3,
        Bimodule.regular(DUAL3),
        ResidueMatrix.from_rows(3, [[0, 0], [0, 1]]),
    )
    lifted = lift_map(d, 2)
    eps_e12 = tuple((0, 0, 0, 1, 0, 0, 0, 0))  # eps in cell (1,2)
    e12 = matrix_unit(M2D3, 1, 2)
    assert lifted.apply(eps_e12) == eps_e12
    assert lifted.apply(e12) == (0,) * 8


def test_lift_of_base_derivation_is_derivation():
    d = AdditiveMap(
        DUAL3,
        Bimodule.regular(DUAL3),
        ResidueMatrix.from_rows(3, [[0, 0], [0, 1]]),
    )
    assert check(d, "derivation").passed
    assert check(lift_map(d, 2), "derivation").passed


def test_generalized_derivation_shift_equivalence():
    # f is a generalized derivation iff f - right_multiplier(f(1)) is a
    # derivation; checked on the generators of the solved map space
    gd = solve_all("generalized_derivation", M2Z3)
    one = one_element(M2Z3)
    for gen in maps_from_module(gd, M2Z3, M2Z3):
        shifted = gen - right_multiplier(REG, gen.apply(one))
        assert check(shifted, "derivation").passed
    deriv = solve_all("derivation", M2Z3)
    for gen in maps_from_module(deriv, M2Z3, M2Z3):
        for j in range(ring_rank(M2Z3)):
            c = tuple(1 if k == j else 0 for k in range(ring_rank(M2Z3)))
            lifted = gen + right_multiplier(REG, c)
            assert gd.contains(lifted.to_flat())


@given(st.integers(0, 3**16 - 1), st.integers(0, 80), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_additivity_forces_linearity(matrix_index, elem_index, scalar):
    # an additive map is determined by repeated addition: f(k.x) = k.f(x)
    flat = []
    k = matrix_index
    for _ in range(16):
        k, r = divmod(k, 3)
        flat.append(r)
    f = AdditiveMap.from_flat(M2Z3, REG, tuple(flat))
    x = element_from_index(M2Z3, elem_index)
    repeated = (0, 0, 0, 0)
    sx = zero_element(M2Z3)
    for _ in range(scalar):
        sx = sx + x
        fx = f.apply(x)
        repeated = tuple((a + b) % 3 for a, b in zip(repeated, fx))
    assert f.apply(sx) == repeated


def test_map_json_round_trip():
    f = inner_derivation(REG, (1, 2, 0, 1))
    assert AdditiveMap.from_json(f.to_json()) == f
    lifted = lift_map(
        AdditiveMap(
            DUAL3, Bimodule.regular(DUAL3), ResidueMatrix.from_rows(3, [[0, 0], [0, 1]])
        ),
        2,
    )
    assert AdditiveMap.from_json(lifted.to_json()) == lifted
