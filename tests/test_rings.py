import random
from itertools import product
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derivlab import rings
from derivlab.errors import GuardError
from derivlab.linalg import SolutionModule
from derivlab.maps import inner_derivation
from derivlab.rings import (
    CONDITIONS,
    EXHAUSTIVE_ELEMENT_BUDGET,
    Bimodule,
    RingDescriptor,
    RingElement,
    act,
    action_rows,
    all_elements,
    annihilator_kernels,
    anti_commuting_pairs,
    basis_elements,
    bimodule_center,
    bimodule_rank,
    center_basis,
    dual_numbers,
    element_from_index,
    format_element,
    is_unital,
    left_zero_pairs,
    matrix_ring,
    matrix_unit,
    mul_coords,
    one_element,
    pair_span,
    peirce_split,
    ring_rank,
    ring_size,
    structural_and_exact_spans,
    trivial_extension,
    zero_element,
    zero_product_pairs,
    zmod,
)
from oracles import (
    act_reference,
    action_rows_reference,
    coords_to_mat2,
    dense_products_reference,
    kernel_dense_reference,
    mat2_is_zero,
    mat2_mul,
    mat2_to_coords,
    scan_pairs_mat2,
    unit_orbits_reference,
)

M2Z3 = matrix_ring(2, zmod(3))
M2D3 = matrix_ring(2, dual_numbers(3))
T2Z3 = trivial_extension(M2Z3)

RINGS = [zmod(6), dual_numbers(5), M2Z3, M2D3, T2Z3, matrix_ring(3, zmod(5))]


# ---------------------------------------------------------------------------
# descriptors and guards
# ---------------------------------------------------------------------------

def test_descriptor_validation():
    with pytest.raises(ValueError):
        zmod(1)
    with pytest.raises(ValueError):
        matrix_ring(1, zmod(3))
    with pytest.raises(GuardError):
        matrix_ring(2, matrix_ring(2, zmod(3)))
    with pytest.raises(GuardError):
        trivial_extension(trivial_extension(zmod(3)))
    with pytest.raises(GuardError):
        matrix_ring(9, zmod(3))  # rank 81 > 64
    # even moduli are constructible for exploration
    assert ring_size(matrix_ring(2, zmod(2))) == 16


def test_ranks_and_sizes():
    assert ring_rank(M2Z3) == 4 and ring_size(M2Z3) == 81
    assert ring_rank(M2D3) == 8 and ring_size(M2D3) == 3**8
    assert ring_rank(T2Z3) == 8 and ring_size(T2Z3) == 3**8


def test_descriptor_json_round_trip():
    for ring in RINGS:
        assert RingDescriptor.from_json(ring.to_json()) == ring
    assert M2Z3.to_json() == {
        "kind": "matrix",
        "n": 2,
        "base": {"kind": "zmod", "m": 3},
    }


def test_element_json_round_trip():
    el = matrix_unit(M2Z3, 1, 2) + one_element(M2Z3)
    assert RingElement.from_json(el.to_json()) == el


# ---------------------------------------------------------------------------
# arithmetic axioms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ring", RINGS)
def test_identity_element(ring):
    one = one_element(ring)
    for b in basis_elements(ring):
        assert one * b == b
        assert b * one == b


@pytest.mark.parametrize("ring", RINGS)
def test_associativity_and_distributivity_on_basis(ring):
    basis = basis_elements(ring)
    for a in basis:
        for b in basis:
            for c in basis:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


def test_matrix_unit_relations():
    for ring in (M2Z3, matrix_ring(3, zmod(5))):
        n = ring.n
        zero = zero_element(ring)
        for i, j, k, l in product(range(1, n + 1), repeat=4):
            prod_ = matrix_unit(ring, i, j) * matrix_unit(ring, k, l)
            expected = matrix_unit(ring, i, l) if j == k else zero
            assert prod_ == expected


def test_matrix_unit_errors_and_coords():
    with pytest.raises(ValueError):
        matrix_unit(M2Z3, 0, 1)
    with pytest.raises(ValueError):
        matrix_unit(M2Z3, 1, 3)
    with pytest.raises(ValueError):
        matrix_unit(zmod(3), 1, 1)
    e12 = matrix_unit(M2Z3, 1, 2)
    assert sum(e12.coords) == 1 and e12.coords[1] == 1


def test_matrix_idempotent_pair():
    e = matrix_unit(M2Z3, 1, 1)
    f = one_element(M2Z3) - e
    assert e * e == e and f * f == f
    assert (e * f).is_zero() and (f * e).is_zero()
    assert e + f == one_element(M2Z3)


def test_mul_matches_direct_2x2_arithmetic():
    rng = random.Random(7)
    for dual in (False, True):
        ring = M2D3 if dual else M2Z3
        m = ring.m
        for _ in range(60):
            x = element_from_index(ring, rng.randrange(ring_size(ring)))
            y = element_from_index(ring, rng.randrange(ring_size(ring)))
            direct = mat2_mul(
                coords_to_mat2(x.coords, m, dual),
                coords_to_mat2(y.coords, m, dual),
                m,
                dual,
            )
            assert (x * y).coords == mat2_to_coords(direct, m, dual)


def test_trivial_extension_rules():
    one = one_element(T2Z3)
    assert one.coords[:4] == one_element(M2Z3).coords and not any(one.coords[4:])
    ra = ring_rank(M2Z3)
    basis = basis_elements(T2Z3)
    for x in basis[ra:]:
        for y in basis[ra:]:
            assert (x * y).is_zero()  # the second component squares to zero
    for b in basis:
        assert one * b == b and b * one == b
    # (1,0)(0,x) = (0,x)
    second = basis[ra]
    assert one * second == second


def test_dual_numbers_rules():
    d = dual_numbers(5)
    one, eps = basis_elements(d)
    assert (eps * eps).is_zero()
    assert one * eps == eps
    # (a+b eps)(c+d eps) = ac + (ad+bc) eps
    a = RingElement(d, (2, 3))
    b = RingElement(d, (4, 1))
    assert (a * b).coords == ((2 * 4) % 5, (2 * 1 + 3 * 4) % 5)


def test_format_element():
    e12 = matrix_unit(M2Z3, 1, 2)
    assert format_element(M2Z3, e12.coords) == "E12"
    assert format_element(M2Z3, (0, 0, 0, 0)) == "0"
    assert "eps" in format_element(M2D3, (0, 1) + (0,) * 6)


# ---------------------------------------------------------------------------
# centres (oracle: exhaustive commutation scan)
# ---------------------------------------------------------------------------

def _center_by_enumeration(ring):
    found = set()
    basis = basis_elements(ring)
    for x in all_elements(ring):
        if all(x * b == b * x for b in basis):
            found.add(x.coords)
    return found


def test_center_of_matrix_ring_mod3():
    center = center_basis(M2Z3)
    assert center.size() == 3
    assert center.contains(one_element(M2Z3).coords)
    assert set(center.elements()) == _center_by_enumeration(M2Z3)


def test_center_of_trivial_extension():
    center = center_basis(T2Z3)
    assert center.size() == 9
    assert center.contains(one_element(T2Z3).coords)
    # z and w scalar: both components central in the base
    base_center = center_basis(M2Z3)
    for el in center.elements():
        assert base_center.contains(el[:4])
        assert base_center.contains(el[4:])


def test_center_enumeration_cross_check_trivial_extension():
    center = center_basis(T2Z3)
    assert set(center.elements()) == _center_by_enumeration(T2Z3)


# ---------------------------------------------------------------------------
# bimodules, actions, Peirce split
# ---------------------------------------------------------------------------

def test_regular_bimodule_actions_match_ring_mult():
    bim = Bimodule.regular(M2Z3)
    rng = random.Random(3)
    for _ in range(30):
        a = element_from_index(M2Z3, rng.randrange(81))
        x = element_from_index(M2Z3, rng.randrange(81))
        assert act(bim, "L", a.coords, x.coords) == (a * x).coords
        assert act(bim, "R", a.coords, x.coords) == (x * a).coords


def test_matrix_over_regular_base_matches_regular():
    bim = Bimodule.matrix_over(M2D3, Bimodule.regular(dual_numbers(3)))
    reg = Bimodule.regular(M2D3)
    assert bimodule_rank(bim) == bimodule_rank(reg)
    rng = random.Random(5)
    for _ in range(20):
        a = element_from_index(M2D3, rng.randrange(ring_size(M2D3)))
        x = tuple(rng.randrange(3) for _ in range(8))
        assert act(bim, "L", a.coords, x) == act(reg, "L", a.coords, x)
        assert act(bim, "R", a.coords, x) == act(reg, "R", a.coords, x)


def test_inflated_bimodule_zero_action():
    bim = Bimodule.inflated(Bimodule.regular(M2Z3), 4)
    assert bimodule_rank(bim) == 8
    assert not is_unital(bim)
    assert is_unital(Bimodule.regular(M2Z3))
    v = (0, 0, 0, 0, 1, 2, 0, 1)
    for a in basis_elements(M2Z3):
        assert act(bim, "L", a.coords, v) == (0,) * 8
        assert act(bim, "R", a.coords, v) == (0,) * 8


ACT_BIMODULES = [
    Bimodule.regular(M2Z3),
    Bimodule.regular(T2Z3),
    Bimodule.inflated(Bimodule.regular(M2D3), 3),
    Bimodule.matrix_over(M2D3, Bimodule.regular(dual_numbers(3))),
    Bimodule.matrix_over(matrix_ring(2, zmod(5)), Bimodule.inflated(Bimodule.regular(zmod(5)), 2)),
]


@given(st.sampled_from(ACT_BIMODULES), st.sampled_from("LR"), st.data())
@settings(max_examples=150, deadline=None)
def test_act_equals_action_matrix_reference(bim, side, data):
    # any ring element, basis or not, and a module vector with unreduced and
    # negative entries: the tables dotted with the vector and reduced once,
    # against the reduced action matrix dotted row by row
    m = bim.ring.m
    a = data.draw(st.tuples(*[st.integers(0, m - 1)] * ring_rank(bim.ring)))
    vec = data.draw(st.tuples(*[st.integers(-3 * m, 3 * m)] * bimodule_rank(bim)))
    assert act(bim, side, a, vec) == act_reference(bim, side, a, vec)


TABLE_RINGS = RINGS + [
    matrix_ring(3, zmod(9)),
    trivial_extension(M2D3),
    trivial_extension(dual_numbers(3)),
]


@pytest.mark.parametrize("ring", TABLE_RINGS)
def test_basis_products_equal_dense_reference(ring):
    # the ring's product is its regular bimodule's left action table; the
    # reference is the dense structure-constant table, built without it
    basis = basis_elements(ring)
    assert [[(x * y).coords for y in basis] for x in basis] == [
        list(row) for row in dense_products_reference(ring)
    ]


@pytest.mark.parametrize("bim", [Bimodule.regular(ring) for ring in TABLE_RINGS] + ACT_BIMODULES)
def test_action_rows_equal_reference_rows(bim):
    for x in basis_elements(bim.ring):
        for side in "LR":
            assert action_rows(bim, side, x.coords) == action_rows_reference(bim, side, x.coords)


# each pair condition on (a, b) as the stack of blocks whose kernel is
# {b : (a, b) meets it}, a block summing b |-> ab (L) and b |-> ba (R) as
# it lists them
KERNEL_BLOCKS = {"two_sided_zero": ("L", "R"), "anti_commuting": ("LR",), "left_zero": ("L",)}


def _summed_rows(rank, parts):
    # the rows of a sum of reference action matrices, each part given as
    # (rows, coefficient, column offset)
    out = [{} for _ in range(rank)]
    for rows, c, offset in parts:
        for acc, row in zip(out, rows):
            for j, w in row.items():
                acc[offset + j] = acc.get(offset + j, 0) + c * w
    return out


def test_table_kernels_equal_dense_reference_of_reference_rows():
    # every kernel solved from the action tables, against the dense
    # two-step kernel of rows summed from the reference action rows: the
    # centre {c : a.c = c.a} of regular, matrix_over and inflated
    # bimodules, the structural kernel on A (x) A of each condition, and
    # the annihilator kernel K_a of every element a
    def expect(module, rows, width, m):
        dense = [[row.get(j, 0) for j in range(width)] for row in rows]
        assert module.generators.to_rows() == kernel_dense_reference(dense, width, m)

    for bim in [Bimodule.regular(M2Z3), Bimodule.regular(T2Z3)] + ACT_BIMODULES[2:]:
        rank = bimodule_rank(bim)
        rows = [row for x in basis_elements(bim.ring) for row in _summed_rows(
            rank, [(action_rows_reference(bim, "L", x.coords), 1, 0),
                   (action_rows_reference(bim, "R", x.coords), -1, 0)])]
        expect(bimodule_center(bim), rows, rank, bim.ring.m)
    for ring in (M2Z3, dual_numbers(9), T2Z3):
        bim, r = Bimodule.regular(ring), ring_rank(ring)
        basis = [x.coords for x in basis_elements(ring)]
        for condition, blocks in KERNEL_BLOCKS.items():
            rows = [row for block in blocks for row in _summed_rows(
                r * r, [(action_rows_reference(bim, side, x), 1, i * r)
                        for side in block for i, x in enumerate(basis)])]
            expect(rings._structural_kernel(ring, condition), rows, r * r, ring.m)
    for ring in (M2Z3, dual_numbers(9)):
        bim, r = Bimodule.regular(ring), ring_rank(ring)
        operators = {c: rings._annihilator_operator(ring, c) for c in KERNEL_BLOCKS}
        for a in product(range(ring.m), repeat=r):
            actions = {side: action_rows_reference(bim, side, a) for side in "LR"}
            for condition, blocks in KERNEL_BLOCKS.items():
                rows = [row for block in blocks for row in _summed_rows(
                    r, [(actions[side], 1, 0) for side in block])]
                expect(operators[condition](a), rows, r, ring.m)


@pytest.mark.parametrize("side", ["l", "x"])
def test_unknown_action_side_raises(side):
    # a mistyped side raises instead of acting from the other side: on
    # M2(Z/3), E12.E21 = E11 while E21.E12 = E22
    bim = Bimodule.regular(M2Z3)
    e12, e21 = matrix_unit(M2Z3, 1, 2).coords, matrix_unit(M2Z3, 2, 1).coords
    assert act(bim, "L", e12, e21) == matrix_unit(M2Z3, 1, 1).coords
    with pytest.raises(ValueError, match="side"):
        act(bim, side, e12, e21)
    with pytest.raises(ValueError, match="side"):
        action_rows(bim, side, e12)


def test_wrong_action_lengths_raise():
    # each of these once read a prefix of its input or ignored an entry:
    # (1, 0) acted as E11, the fifth coordinate vanished, the 9 was dropped
    bim = Bimodule.regular(M2Z3)
    with pytest.raises(ValueError, match="ring coordinates have length 2, expected 4"):
        act(bim, "L", (1, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError, match="module vector has length 5, expected 4"):
        inner_derivation(M2Z3, (1, 0, 0, 0, 1))
    with pytest.raises(ValueError, match="module vector has length 5, expected 4"):
        peirce_split(bim, (1, 2, 0, 0, 9))


@pytest.mark.parametrize("coords", [(1, 0), (1, 0, 0, 0, 1)], ids=["short", "long"])
@pytest.mark.parametrize("side", "LR")
def test_wrong_action_row_lengths_raise(coords, side):
    # both once gave the rows of E11: zip dropped the missing or extra entries
    with pytest.raises(ValueError, match=f"ring coordinates have length {len(coords)}, "
                                         "expected 4"):
        action_rows(Bimodule.regular(M2Z3), side, coords)


@pytest.mark.parametrize("read, obj", [
    (RingDescriptor.from_json, {"kind": "matrix", "n": 2.0, "base": {"kind": "zmod", "m": 3}}),
    (RingDescriptor.from_json, {"kind": "matrix", "n": 2}),
    (RingDescriptor.from_json, [{"kind": "zmod", "m": 3}]),
    (RingElement.from_json, {"ring": {"kind": "zmod", "m": 3}, "coords": [True]}),
    (RingElement.from_json, {"ring": {"kind": "zmod", "m": 3}, "coords": "1"}),
    (Bimodule.from_json, {"kind": "inflated", "extra_rank": 2.0,
                          "base": {"kind": "regular", "ring": {"kind": "zmod", "m": 3}}}),
    (Bimodule.from_json, {"kind": "regular"}),
], ids=["float size", "no base", "list", "bool coordinate",
        "string coordinates", "float extra rank", "no ring"])
def test_malformed_json_raises_value_error(read, obj):
    with pytest.raises(ValueError):
        read(obj)


def test_bimodule_json_round_trip():
    for bim in (
        Bimodule.regular(M2Z3),
        Bimodule.inflated(Bimodule.regular(M2Z3), 4),
        Bimodule.matrix_over(M2D3, Bimodule.regular(dual_numbers(3))),
    ):
        assert Bimodule.from_json(bim.to_json()) == bim


def test_peirce_split_unital():
    bim = Bimodule.regular(M2Z3)
    rng = random.Random(11)
    for _ in range(20):
        x = tuple(rng.randrange(3) for _ in range(4))
        pc = peirce_split(bim, x)
        assert pc.m1 == x
        assert pc.m2 == pc.m3 == pc.m4 == (0,) * 4


def test_peirce_split_inflated():
    bim = Bimodule.inflated(Bimodule.regular(M2Z3), 4)
    v = (0, 0, 0, 0, 2, 1, 0, 2)
    pc = peirce_split(bim, v)
    assert pc.m1 == pc.m2 == pc.m3 == (0,) * 8
    assert pc.m4 == v


@given(st.integers(0, 3**8 - 1))
@settings(max_examples=60, deadline=None)
def test_peirce_reconstruction_and_degeneracies(index):
    bim = Bimodule.inflated(Bimodule.regular(M2Z3), 4)
    m = 3
    digits = []
    k = index
    for _ in range(8):
        k, r = divmod(k, m)
        digits.append(r)
    x = tuple(digits)
    pc = peirce_split(bim, x)
    recomposed = tuple(
        (a + b + c + d) % m for a, b, c, d in zip(pc.m1, pc.m2, pc.m3, pc.m4)
    )
    assert recomposed == x
    one = one_element(M2Z3).coords
    # component normalizations from the split definition
    assert act(bim, "R", one, act(bim, "L", one, pc.m1)) == pc.m1
    assert act(bim, "L", one, pc.m2) == pc.m2
    assert act(bim, "R", one, pc.m3) == pc.m3
    # degeneracies: m2.a = a.m3 = a.m4 = m4.a = 0 for every ring element a
    for a in basis_elements(M2Z3):
        assert act(bim, "R", a.coords, pc.m2) == (0,) * 8
        assert act(bim, "L", a.coords, pc.m3) == (0,) * 8
        assert act(bim, "L", a.coords, pc.m4) == (0,) * 8
        assert act(bim, "R", a.coords, pc.m4) == (0,) * 8


# ---------------------------------------------------------------------------
# pair enumeration (oracle: direct 2x2 products)
# ---------------------------------------------------------------------------

def _zero_product_pairs_by_enumeration():
    m = 3
    found = 0
    for ai in range(81):
        a = element_from_index(M2Z3, ai)
        am = coords_to_mat2(a.coords, m)
        for bi in range(81):
            b = element_from_index(M2Z3, bi)
            bm = coords_to_mat2(b.coords, m)
            if mat2_is_zero(mat2_mul(am, bm, m)) and mat2_is_zero(mat2_mul(bm, am, m)):
                found += 1
    return found


def test_exhaustive_zero_product_pairs_match_oracle_count():
    pairs = zero_product_pairs(M2Z3)
    assert len(pairs) == _zero_product_pairs_by_enumeration()
    zero = zero_element(M2Z3)
    for a, b in pairs:
        assert a * b == zero and b * a == zero
    as_set = {(a.coords, b.coords) for a, b in pairs}
    e11, e22 = matrix_unit(M2Z3, 1, 1), matrix_unit(M2Z3, 2, 2)
    assert (e11.coords, e22.coords) in as_set
    one = one_element(M2Z3)
    with_one = [b for a, b in pairs if a == one]
    assert with_one == [zero]


def test_exhaustive_pairs_equal_index_order_scan():
    # the kernel listing must reproduce the full scan list for list: same
    # pairs, same order, so every enumeration and witness stays the same
    for condition, enumerate_pairs in (
        ("two_sided_zero", zero_product_pairs),
        ("anti_commuting", anti_commuting_pairs),
        ("left_zero", left_zero_pairs),
    ):
        listed = [(a.coords, b.coords) for a, b in enumerate_pairs(M2Z3)]
        assert listed == scan_pairs_mat2(3, condition)


def _tensor_products(ring, w):
    """(mu(w), mu.tau(w)) for w in A (x) A: sum_ij w_ij e_i e_j and
    sum_ij w_ij e_j e_i, by ring multiplication of basis elements."""
    r = ring_rank(ring)
    basis = basis_elements(ring)
    mu = mu_tau = zero_element(ring)
    for k, c in enumerate(w):
        if c:
            x, y = basis[k // r], basis[k % r]
            mu = mu + c * (x * y)
            mu_tau = mu_tau + c * (y * x)
    return mu, mu_tau


def test_structured_pairs_are_zero_products():
    # every generator of a structured span is a tensor on which the
    # condition's operator vanishes: mu, mu + mu.tau, or both mu and mu.tau;
    # the span needs no matrix units, so any ring has one
    for ring in (M2Z3, dual_numbers(3), trivial_extension(zmod(3))):
        zero = zero_element(ring)
        for condition in CONDITIONS:
            span, pair_count = pair_span(ring, condition, "structured")
            assert pair_count is None and span.generators.rows > 0
            for w in span.generators.to_rows():
                mu, mu_tau = _tensor_products(ring, w)
                if condition == "two_sided_zero":
                    assert mu == zero and mu_tau == zero
                elif condition == "anti_commuting":
                    assert mu + mu_tau == zero
                else:
                    assert mu == zero


SPAN_RINGS = {f"M2(Z/{m})": matrix_ring(2, zmod(m)) for m in (3, 4, 5)}
SPAN_RINGS["M2(Z/3[eps])"] = matrix_ring(2, dual_numbers(3))
SPAN_RINGS["Z/3[eps]"] = dual_numbers(3)
STRUCTURAL_SPAN_CASES = [
    (label, condition) for label in list(SPAN_RINGS)[:3] for condition in CONDITIONS
] + [("M2(Z/3[eps])", "two_sided_zero")] + [("Z/3[eps]", c) for c in CONDITIONS]
# Off matrix rings the kernel can be larger: on Z/3[eps] ker mu and
# ker(mu + mu.tau) also hold 1 (x) eps - eps (x) 1, while the pairs span only
# eps (x) eps; (structural, exact) element counts
UNEQUAL_SPANS = {("Z/3[eps]", "left_zero"): (9, 3), ("Z/3[eps]", "anti_commuting"): (9, 3)}
# exhaustive two-sided pair_count, pinned instead of re-walked
PINNED_PAIR_COUNTS = {("M2(Z/3[eps])", "two_sided_zero"): 35073}


@pytest.mark.parametrize("label, condition", STRUCTURAL_SPAN_CASES)
def test_structural_span_equals_exact_span(label, condition):
    # the kernel of the condition's operator on A (x) A against the span of
    # the tensors a (x) g over every element a and the generators g of K_a;
    # two-sided spans agree only after Sym (on M2(Z/3[eps]) the kernel of
    # [mu; mu.tau] has 50 Howell generators and the exact span 49)
    ring = SPAN_RINGS[label]
    structural, exact = structural_and_exact_spans(ring, condition)
    if (label, condition) in UNEQUAL_SPANS:
        assert (structural.size(), exact.size()) == UNEQUAL_SPANS[label, condition]
        assert structural.contains([0, 1, 2, 0]) and not exact.contains([0, 1, 2, 0])
    else:
        assert structural == exact
    full, pair_count = pair_span(ring, condition, "exhaustive")
    if (label, condition) in PINNED_PAIR_COUNTS:
        # the all-element walk (6561 kernels) gives the same count; the orbit
        # walk is compared with it in test_orbit_span_equals_all_element_walk
        assert pair_count == PINNED_PAIR_COUNTS[label, condition]
    else:
        assert pair_count == sum(k.size() for _, k in annihilator_kernels(ring, condition))
    if condition != "two_sided_zero":
        assert full == exact


ORBIT_RINGS = {
    "M2(Z/4)": matrix_ring(2, zmod(4)),
    "M2(Z/9)": matrix_ring(2, zmod(9)),
    "Z/3[eps]": dual_numbers(3),
    "T(Z/3)": trivial_extension(zmod(3)),
}


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("label", ORBIT_RINGS)
def test_orbit_span_equals_all_element_walk(label, condition):
    # pair_span solves one kernel per orbit of the scalar units times
    # monomial conjugation and counts it once per orbit member; the
    # all-element walk solves one per element.  Composite m is where a unit
    # can fix an element (on M2(Z/9) the orbit of 3.E11 is {3.E11, 6.E11,
    # 3.E22, 6.E22})
    ring = ORBIT_RINGS[label]
    r = ring_rank(ring)
    rows, pair_count = [], 0
    for a, kernel in annihilator_kernels(ring, condition):
        pair_count += kernel.size()
        rows += [[x * y for x in a for y in g] for g in kernel.generators.to_rows()]
    walked = SolutionModule.from_rows(ring.m, r * r, rows)
    assert pair_span(ring, condition, "exhaustive") == (walked, pair_count)


ORBIT_WALK_RINGS = {
    "Z/15": zmod(15),
    "Z/27": zmod(27),
    "M2(Z/4)": matrix_ring(2, zmod(4)),
    "M2(Z/9)": matrix_ring(2, zmod(9)),
    "M2(Z/3[eps])": M2D3,
    "M3(Z/3)": matrix_ring(3, zmod(3)),
    "T(Z/3)": trivial_extension(zmod(3)),
}


@pytest.mark.parametrize("label", ORBIT_WALK_RINGS)
def test_unit_orbits_equal_orbit_set_walk(label):
    # the walk permutes and scales coordinates and marks elements in a
    # bytearray; the reference conjugates by explicit monomial matrices and
    # keeps its orbits as sets
    ring = ORBIT_WALK_RINGS[label]
    walked = list(rings._orbits(ring, rings._symmetries(ring)))
    assert walked == list(unit_orbits_reference(ring))
    assert sum(size for _, size in walked) == ring_size(ring)


@pytest.mark.parametrize("label", ORBIT_WALK_RINGS)
def test_symmetries_are_ring_automorphisms(label):
    # each coordinate map is a bijection that fixes 1 and is multiplicative
    # on basis pairs, so it is a ring automorphism and keeps every condition
    ring = ORBIT_WALK_RINGS[label]
    r = ring_rank(ring)
    one = one_element(ring).coords
    basis = [e.coords for e in basis_elements(ring)]
    maps = rings._symmetries(ring)
    if ring.kind == "matrix":
        units = sum(1 for u in range(1, ring.m) if gcd(u, ring.m) == 1)
        assert len(maps) == factorial(ring.n) * units ** (ring.n - 1)
    else:
        assert maps == [(tuple(range(r)), (1,) * r)]
    for phi in maps:
        def image(x):
            y = [0] * r
            for k, v in rings._mapped(phi, enumerate(x), ring.m).items():
                y[k] = v
            return tuple(y)

        assert sorted(phi[0]) == list(range(r))
        assert image(one) == one
        for x in basis:
            for y in basis:
                assert image(mul_coords(ring, x, y)) == mul_coords(ring, image(x), image(y))


def _log_walk_steps(monkeypatch):
    # ("kernel", width) per kernel solve, ("compare", equal) per comparison
    # of the compacted span with S, and ("tensor",) per coordinate map
    # applied while building tensors
    log = []
    kernel_step, compare, mapped = rings.column_kernel, rings.module_equal, rings._mapped

    def kernel(m, width, nrows, columns):
        log.append(("kernel", width))
        return kernel_step(m, width, nrows, columns)

    def compared(a, b):
        log.append(("compare", compare(a, b)))
        return log[-1][1]

    def tensor(*args):
        log.append(("tensor",))
        return mapped(*args)

    monkeypatch.setattr(rings, "column_kernel", kernel)
    monkeypatch.setattr(rings, "module_equal", compared)
    monkeypatch.setattr(rings, "_mapped", tensor)
    return log


@pytest.mark.parametrize("condition", CONDITIONS)
def test_exact_walk_stops_solving_once_tensors_span_the_structural_kernel(
        monkeypatch, condition):
    # The walk solves the structural kernel S (width r * r), then one kernel
    # per orbit (width r).  On M2(Z/5) the tensors span S before the walk
    # ends: the span is compacted and compared with S no further, and no
    # tensor is built for the later orbits, whose kernels are still solved
    # for pair_count.  On Z/3[eps], S holds 1 (x) eps - eps (x) 1, which no
    # pair tensor reaches, so tensors are built for every orbit and no
    # comparison finds S.  The cached spans, made before the wrapping, must
    # agree.
    for ring, spanned in ((matrix_ring(2, zmod(5)), True), (dual_numbers(3), False)):
        expected = pair_span(ring, condition, "exhaustive")
        r, orbits = ring_rank(ring), len(rings._orbit_walk(ring)[1])
        log = _log_walk_steps(monkeypatch)
        assert pair_span.__wrapped__(ring, condition, "exhaustive") == expected
        monkeypatch.undo()
        assert orbits == (30 if spanned else 5)
        assert [step for step in log if step[0] == "kernel"] == (
            [("kernel", r * r)] + [("kernel", r)] * orbits)
        compared = [step[1] for step in log if step[0] == "compare"]
        last_tensor = max(i for i, step in enumerate(log) if step[0] == "tensor")
        solved = sum(1 for step in log[:last_tensor] if step[0] == "kernel") - 1
        if spanned:
            assert compared[-1] and not any(compared[:-1])
            assert solved < orbits
        else:
            assert compared and not any(compared)
            assert solved == orbits


PIVOT_COUNT_RINGS = {"M2(Z/4)": matrix_ring(2, zmod(4)), "Z/9[eps]": dual_numbers(9)}


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("label", PIVOT_COUNT_RINGS)
def test_pivot_count_equals_kernel_size(label, condition):
    # the exhaustive pair_count, read off the Howell pivots of one kernel
    # per orbit and counted once per orbit member, equals the sum of |K_a|
    # over the kernels of every element
    ring = PIVOT_COUNT_RINGS[label]
    _, pair_count = pair_span(ring, condition, "exhaustive")
    assert pair_count == sum(kernel.size() for _, kernel in annihilator_kernels(ring, condition))


def test_exact_span_guard_fires_before_any_solve(monkeypatch):
    # neither S nor any annihilator kernel is solved above the budget
    def no_solve(m, width, nrows, columns):
        raise AssertionError("the guard must fire before any solve")

    monkeypatch.setattr(rings, "column_kernel", no_solve)
    big = matrix_ring(2, zmod(101))
    for condition in CONDITIONS:
        with pytest.raises(GuardError, match="element budget"):
            pair_span.__wrapped__(big, condition, "exhaustive")


def test_exhaustive_pair_counts_on_m2_z9():
    ring = ORBIT_RINGS["M2(Z/9)"]
    counts = [pair_span(ring, condition, "exhaustive")[1] for condition in CONDITIONS]
    assert counts == [35073, 123201, 123201]  # two-sided, anti-commuting, left zero


# computed by the scalar-unit orbit walk and by the walk under scalar units
# times monomial conjugation; two-sided, anti-commuting, left zero
LARGE_PAIR_COUNTS = {
    "M3(Z/3)": (matrix_ring(3, zmod(3)), [82629, 221157, 496341]),
    "M2(Z/17)": (matrix_ring(2, zmod(17)), [249985, 1660033, 1660033]),
}


@pytest.mark.parametrize("label", LARGE_PAIR_COUNTS)
def test_exhaustive_pair_counts_on_large_rings(label):
    ring, expected = LARGE_PAIR_COUNTS[label]
    assert [pair_span(ring, condition, "exhaustive")[1] for condition in CONDITIONS] == expected


def test_anti_commuting_pairs():
    pairs = anti_commuting_pairs(M2Z3)
    zero = zero_element(M2Z3)
    for a, b in pairs:
        assert (a * b + b * a) == zero
    zp = {(a.coords, b.coords) for a, b in zero_product_pairs(M2Z3)}
    assert zp <= {(a.coords, b.coords) for a, b in pairs}


def test_left_zero_pairs_one_sided():
    pairs = left_zero_pairs(M2Z3)
    zero = zero_element(M2Z3)
    one_sided_only = 0
    for a, b in pairs:
        assert a * b == zero
        if b * a != zero:
            one_sided_only += 1
    # the one-sided condition is genuinely weaker than the two-sided one
    assert one_sided_only > 0


def test_pair_budget_guard(monkeypatch):
    big = matrix_ring(2, zmod(101))  # 101^4 elements, over the element budget

    def no_kernel(m, width, nrows, columns):
        raise AssertionError("the guard must fire before any kernel is solved")

    monkeypatch.setattr(rings, "column_kernel", no_kernel)
    message = f"ring size {101 ** 4} is over the {EXHAUSTIVE_ELEMENT_BUDGET}-element budget"
    for enumerate_pairs in (zero_product_pairs, anti_commuting_pairs, left_zero_pairs):
        with pytest.raises(GuardError, match=message):
            enumerate_pairs(big)
    monkeypatch.undo()
    # a ring well inside the budget runs
    assert len(zero_product_pairs(matrix_ring(2, zmod(7)))) == 7105


def test_element_enumeration_round_trip():
    for ring in (zmod(6), M2Z3):
        seen = set()
        for idx in range(ring_size(ring)):
            seen.add(element_from_index(ring, idx).coords)
        assert len(seen) == ring_size(ring)
    with pytest.raises(ValueError):
        element_from_index(M2Z3, 81)


# ---------------------------------------------------------------------------
# bimodule centre
# ---------------------------------------------------------------------------

def test_bimodule_center_is_solved_once_per_bimodule():
    # equal bimodules built apart share one solved centre, which is the one
    # a fresh solve gives
    bim = Bimodule.inflated(Bimodule.regular(M2Z3), 2)
    center = bimodule_center(bim)
    assert bimodule_center(Bimodule.inflated(Bimodule.regular(matrix_ring(2, zmod(3))), 2)) is center
    assert center == bimodule_center.__wrapped__(bim)
    assert center_basis(matrix_ring(2, zmod(3))) is bimodule_center(Bimodule.regular(M2Z3))


def test_bimodule_center_inflated_contains_summand():
    bim = Bimodule.inflated(Bimodule.regular(M2Z3), 2)
    center = bimodule_center(bim)
    # the zero-action summand is entirely central
    assert center.contains((0, 0, 0, 0, 1, 0))
    assert center.contains((0, 0, 0, 0, 0, 1))
    # scalars remain central
    one = one_element(M2Z3).coords
    assert center.contains(one + (0, 0))
