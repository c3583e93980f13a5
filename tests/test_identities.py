import collections
import functools
import itertools
import json
import random

import pytest

from derivlab import identities, linalg, rings
from derivlab.errors import (
    EvenModulusError,
    GuardError,
    InternalVerificationError,
    PreconditionError,
)
from derivlab.identities import (
    _PEIRCE_CHECKS,
    _PROOF_STEPS,
    IDENTITY_KINDS,
    IDENTITY_TERMS,
    IdentitySpec,
    _block_builder,
    check,
    constraint_system,
    decompose_inner_plus_lifted,
    decompose_theorem21,
    decompose_trivial_extension,
    inner_derivation_module,
    maps_from_module,
    peirce_component_check,
    right_multiplier_module,
    solve_all,
    verify_proof_steps,
)
from derivlab.linalg import ResidueMatrix, module_equal, solve_homogeneous
from derivlab.maps import (
    AdditiveMap,
    identity_map,
    inner_derivation,
    lift_map,
    right_multiplier,
    zero_map,
)
from derivlab.rings import (
    CONDITIONS,
    Bimodule,
    RingElement,
    all_elements,
    annihilator_kernels,
    basis_elements,
    bimodule_rank,
    center_basis,
    dual_numbers,
    matrix_ring,
    matrix_unit,
    one_element,
    pair_span,
    ring_rank,
    trivial_extension,
    zmod,
)
from derivlab.cli import run
from derivlab.theorems import verify_theorem
import oracles
from oracles import (
    coords_to_mat2,
    first_failing_pair_mat2,
    first_failing_part_mat2,
    howell_dense_reference,
    kernel_of_rows,
    mat2_mul,
    mat2_to_coords,
    pair_block_reference,
    scan_pairs_mat2,
)

M2Z3 = matrix_ring(2, zmod(3))
REG = Bimodule.regular(M2Z3)
DUAL3 = dual_numbers(3)
M2D3 = matrix_ring(2, dual_numbers(3))
T2Z3 = trivial_extension(M2Z3)


# ---------------------------------------------------------------------------
# constraint shapes
# ---------------------------------------------------------------------------

def test_constraint_shapes_on_rank_four_ring():
    system = constraint_system("derivation", M2Z3)
    assert system.matrix.cols == 16
    assert system.matrix.rows == 16 * 4  # ordered basis pairs x codomain rank
    assert system.counts == {"pair_count": 16}

    # the Jordan identity is symmetric in a and b, so its rows come from the
    # 10 unordered basis pairs; phi is not, and keeps all 16 ordered ones
    jordan = constraint_system("jordan", M2Z3)
    phi = constraint_system("phi", M2Z3)
    assert (jordan.matrix.rows, jordan.matrix.cols) == (10 * 4, 16)
    assert (phi.matrix.rows, phi.matrix.cols) == (16 * 4, 16)
    assert jordan.counts == phi.counts == {"pair_count": 16}

    # conditional rows come from the generators of the span W of the pair
    # tensors a (x) b, rank(M) rows each; exhaustive mode counts the full
    # pair set, structured mode the Howell generators of W
    star = constraint_system("star", M2Z3, pair_mode="exhaustive")
    assert star.counts == {"pair_count": 225}
    assert sum(k.size() for _, k in annihilator_kernels(M2Z3, "two_sided_zero")) == 225
    span, _ = pair_span(M2Z3, "two_sided_zero", "exhaustive")
    assert star.matrix.rows == 4 * span.generators.rows
    structured = constraint_system("star", M2Z3)
    assert structured.counts == {"span_rank": 6}
    assert structured.matrix.rows == 4 * 6


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        solve_all("nope", M2Z3)
    with pytest.raises(ValueError):
        check(zero_map(M2Z3, REG), "nope")


# ---------------------------------------------------------------------------
# check() and witnesses
# ---------------------------------------------------------------------------

def test_inner_derivation_passes_derivation_check():
    inner = inner_derivation(REG, matrix_unit(M2Z3, 1, 2).coords)
    assert check(inner, "derivation").passed
    assert check(inner, "jordan").passed
    assert check(inner, "star").passed


def test_right_multiplier_by_one_fails_derivation_with_first_witness():
    rmap = right_multiplier(REG, one_element(M2Z3).coords)
    report = check(rmap, "derivation")
    assert not report.passed
    w = report.witness
    # deterministic: first failing ordered basis pair is (E11, E11) with
    # residual -(E11 . 1) = 2*E11 mod 3
    assert w.a == matrix_unit(M2Z3, 1, 1)
    assert w.b == matrix_unit(M2Z3, 1, 1)
    assert w.residual == (2, 0, 0, 0)
    payload = report.to_json()
    assert payload["passed"] is False
    assert payload["witness"]["residual"] == [2, 0, 0, 0]


def test_right_multiplier_passes_generalized_but_not_plain():
    for j in range(4):
        c = tuple(1 if k == j else 0 for k in range(4))
        rmap = right_multiplier(REG, c)
        assert check(rmap, "generalized_derivation").passed


CONDITIONAL_KINDS = ("star", "star_star", "remark_antizero", "remark_abzero")
BASIS_PAIRS = [
    (tuple(int(k == i) for k in range(4)), tuple(int(k == j) for k in range(4)))
    for i in range(4)
    for j in range(4)
]


@functools.lru_cache(maxsize=None)
def _oracle_pairs(kind):
    """The pairs the oracle evaluates, in the order check must report them:
    basis pairs, or the full scan."""
    quantifier = IDENTITY_TERMS[kind].quantifier
    if quantifier == "basis_pairs":
        return BASIS_PAIRS
    return scan_pairs_mat2(3, quantifier)


def _assert_check_matches_oracle(kind, extra, flat):
    bim = REG if extra == 0 else Bimodule.inflated(REG, extra)
    report = check(AdditiveMap.from_flat(M2Z3, bim, flat), kind)
    expected = first_failing_pair_mat2(
        IDENTITY_TERMS[kind].terms, flat, 3, extra, _oracle_pairs(kind)
    )
    if expected is None:
        assert report.passed, (kind, extra, flat)
    else:
        w = report.witness
        assert not report.passed, (kind, extra, flat)
        assert (w.a.coords, w.b.coords, w.residual) == expected, (kind, extra)


def test_check_matches_constraint_membership():
    # membership in the module solved from the kernel generators gives the
    # verdict the oracle reaches by evaluating every pair of the full scan
    rng = random.Random(0)
    star = solve_all("star", M2Z3, pair_mode="exhaustive")
    scan = scan_pairs_mat2(3, "two_sided_zero")
    samples = [tuple(rng.randrange(3) for _ in range(16)) for _ in range(25)]
    samples += [star.random_element(rng) for _ in range(5)]
    for flat in samples:
        oracle = first_failing_pair_mat2(IDENTITY_TERMS["star"].terms, flat, 3, 0, scan)
        assert star.contains(flat) == (oracle is None)
        _assert_check_matches_oracle("star", 0, flat)


@pytest.mark.parametrize("kind", IDENTITY_KINDS)
def test_check_and_solve_agree_on_random_maps(kind):
    # check against the oracle's direct per-pair evaluation: verdict and
    # first witness (a, b, residual), into the ring and into an inflated
    # codomain.  Random maps mostly fail early; members of either pair mode's
    # solved module pass; members with one entry bumped fail anywhere.
    rng = random.Random(hash(kind) & 0xFFFF)
    modes = ("structured", "exhaustive") if kind in CONDITIONAL_KINDS else ("structured",)
    for mode in modes:
        for extra in (0, 4):
            bim = REG if extra == 0 else Bimodule.inflated(REG, extra)
            module = solve_all(kind, M2Z3, bimodule=bim, pair_mode=mode)
            width = 4 * (4 + extra)
            samples = [tuple(rng.randrange(3) for _ in range(width)) for _ in range(6)]
            samples += [module.random_element(rng) for _ in range(4)]
            for _ in range(6):
                bumped = list(module.random_element(rng))
                bumped[rng.randrange(width)] += 1
                samples.append(tuple(v % 3 for v in bumped))
            for flat in samples:
                _assert_check_matches_oracle(kind, extra, flat)


# ---------------------------------------------------------------------------
# solution modules (cross-checked against independent routes)
# ---------------------------------------------------------------------------

def test_derivation_module_is_all_inner_maps():
    deriv = solve_all("derivation", M2Z3)
    assert deriv.size() == 27
    for gen in maps_from_module(deriv, M2Z3, M2Z3):
        assert check(gen, "derivation").passed
    # oracle: the 81 inner maps, built from direct 2x2 products, are exactly
    # the module elements (81 inner maps collapse to 27 distinct matrices)
    inner_flats = set()
    for m_el in all_elements(M2Z3):
        mm = coords_to_mat2(m_el.coords, 3)
        cols = []
        for j in range(4):
            basis = coords_to_mat2(tuple(1 if k == j else 0 for k in range(4)), 3)
            am = mat2_mul(basis, mm, 3)
            ma = mat2_mul(mm, basis, 3)
            diff = [[(x - y) % 3 for x, y in zip(rx, ry)] for rx, ry in zip(am, ma)]
            cols.append(mat2_to_coords(diff, 3))
        flat = tuple(cols[j][t] for t in range(4) for j in range(4))
        inner_flats.add(flat)
    assert len(inner_flats) == 27
    assert inner_flats == set(deriv.elements())


def test_jordan_equals_derivation_module():
    assert module_equal(solve_all("jordan", M2Z3), solve_all("derivation", M2Z3))


def test_phi_module_is_central_multipliers():
    phi = solve_all("phi", M2Z3)
    assert phi.size() == 3
    expected = right_multiplier_module(M2Z3, center_basis(M2Z3))
    assert module_equal(phi, expected)
    # oracle route: enumerate the three central elements directly
    flats = {right_multiplier(REG, c).to_flat() for c in center_basis(M2Z3).elements()}
    assert flats == set(phi.elements())


def test_star_module_decomposes():
    star = solve_all("star", M2Z3, pair_mode="exhaustive")
    deriv = solve_all("derivation", M2Z3)
    central = right_multiplier_module(M2Z3, center_basis(M2Z3))
    assert star.size() == 81
    assert module_equal(star, deriv.sum_with(central))


def test_star_star_module_decomposes():
    starstar = solve_all("star_star", M2Z3, pair_mode="exhaustive")
    deriv = solve_all("derivation", M2Z3)
    assert module_equal(starstar, deriv.sum_with(right_multiplier_module(M2Z3)))


def test_containment_chains():
    deriv = solve_all("derivation", M2Z3)
    jordan = solve_all("jordan", M2Z3)
    star = solve_all("star", M2Z3, pair_mode="exhaustive")
    for gen in deriv.generators.to_rows():
        assert jordan.contains(tuple(gen))
    for gen in jordan.generators.to_rows():
        assert star.contains(tuple(gen))
    gd = solve_all("generalized_derivation", M2Z3)
    gj = solve_all("generalized_jordan", M2Z3)
    ss = solve_all("star_star", M2Z3, pair_mode="exhaustive")
    for gen in gd.generators.to_rows():
        assert gj.contains(tuple(gen))
    for gen in gj.generators.to_rows():
        assert ss.contains(tuple(gen))


def test_weakened_hypotheses_still_imply_zero_product_condition():
    star = solve_all("star", M2Z3, pair_mode="exhaustive")
    anti = solve_all("remark_antizero", M2Z3, pair_mode="exhaustive")
    onesided = solve_all("remark_abzero", M2Z3, pair_mode="exhaustive")
    for gen in anti.generators.to_rows():
        assert star.contains(tuple(gen))
    for gen in onesided.generators.to_rows():
        assert star.contains(tuple(gen))


def test_inner_module_equals_derivation_module():
    assert module_equal(inner_derivation_module(M2Z3), solve_all("derivation", M2Z3))


def test_structured_and_exhaustive_agree_on_small_ring():
    # measured, not assumed: on these rings the structural span in A (x) A
    # cuts out the same solution module as the exact span of the pair set
    for ring in (M2Z3, matrix_ring(2, zmod(5))):
        for kind in CONDITIONAL_KINDS:
            st_mod = solve_all(kind, ring, pair_mode="structured")
            ex_mod = solve_all(kind, ring, pair_mode="exhaustive")
            assert module_equal(st_mod, ex_mod), (ring, kind)


def test_non_symmetric_two_sided_spec_takes_the_exact_span():
    # Sym keeps only what identities symmetric in a <-> b need; a sign-flipped
    # star is not symmetric, so structured mode solves it from the exact span
    # (9 Howell generators on M2(Z/3), against 6 for the symmetrised kernel),
    # and so does a symmetric one over an even modulus, where 2 is no unit
    star = IDENTITY_TERMS["star"]
    flipped = IdentitySpec("star", ((-1, None, "a", "b"),) + star.terms[1:], "two_sided_zero")
    exact, _ = pair_span(M2Z3, "two_sided_zero", "exhaustive")
    assert exact.generators.rows == 9
    assert constraint_system(flipped, M2Z3).counts == {"span_rank": 9}
    assert constraint_system(star, M2Z3).counts == {"span_rank": 6}
    assert solve_all(flipped, M2Z3) == solve_all(flipped, M2Z3, pair_mode="exhaustive")
    # mirroring is decided on the blocks reduced mod m: a coefficient 4 is 1
    # mod 3, so this star is no symmetric term table, but its blocks mirror
    shifted = IdentitySpec("star", ((4, None, "a", "b"),) + star.terms[1:], "two_sided_zero")
    assert not identities._symmetric(shifted)
    assert constraint_system(shifted, M2Z3).counts == {"span_rank": 6}
    assert solve_all(shifted, M2Z3) == solve_all(star, M2Z3)
    m2z4 = matrix_ring(2, zmod(4))
    exact4, _ = pair_span(m2z4, "two_sided_zero", "exhaustive")
    assert constraint_system(star, m2z4).counts == {"span_rank": exact4.generators.rows}
    assert solve_all(star, m2z4) == solve_all(star, m2z4, pair_mode="exhaustive")
    # above the element budget the exact span is out of reach; the symmetric
    # spec still solves from the kernel: Der + central multipliers, p^3 * p
    big = matrix_ring(2, zmod(101))
    with pytest.raises(GuardError, match="budget"):
        solve_all(flipped, big)
    assert solve_all(star, big).size() == 101 ** 4


def test_off_matrix_rings_take_the_exact_span():
    # on Z/3[eps] and T(Z/3) the kernels of mu and mu + mu.tau are larger than
    # the pair spans (9 elements against 3), so a one-term identity, which no
    # symmetry saves, solves from the exact span in structured mode too
    for ring in (dual_numbers(3), trivial_extension(zmod(3))):
        for condition in CONDITIONS:
            spec = IdentitySpec("one_term", ((1, None, "a", "b"),), condition)
            assert constraint_system(spec, ring).counts == {"span_rank": 1}
            assert solve_all(spec, ring) == solve_all(spec, ring, pair_mode="exhaustive")


def test_failing_check_above_the_budget_has_no_witness():
    # the witness scan walks the exhaustive pairs, so a failing map on a ring
    # over the element budget gets the budget named, not a made-up pair; the
    # map still fails, as membership has decided that already
    big = matrix_ring(2, zmod(101))
    rmap = right_multiplier(Bimodule.regular(big), matrix_unit(big, 1, 2).coords)
    report = check(rmap, "star")
    assert not report.passed and report.witness is None
    assert "budget" in report.witness_unavailable
    payload = report.to_json()
    assert payload == {"passed": False, "witness": None,
                       "witness_unavailable": report.witness_unavailable}
    # a report with a witness, or a passing one, has no such key
    assert set(check(rmap, "generalized_derivation").to_json()) == {"passed", "witness"}
    assert set(check(rmap, "derivation").to_json()) == {"passed", "witness"}


INCLUSION_RINGS = {
    "M2(Z/3)": M2Z3,
    "M2(Z/3[eps])": M2D3,
    "M2(Z/9)": matrix_ring(2, zmod(9)),
    "T(M2(Z/3))": T2Z3,
}
# a sign-flipped star is not symmetric in a and b, so structured mode takes
# the exact span for it
FLIPPED_STAR = IdentitySpec("star", ((-1, None, "a", "b"),) + IDENTITY_TERMS["star"].terms[1:],
                            "two_sided_zero")


@pytest.mark.parametrize("label", INCLUSION_RINGS)
def test_structured_module_lies_inside_the_exhaustive_one(label):
    # every pair tensor lies in the structural kernel, so the structured
    # system has the more constraints; check reads the structured module in
    # every pair mode and relies on this inclusion
    ring = INCLUSION_RINGS[label]
    for spec in [IDENTITY_TERMS[kind] for kind in CONDITIONAL_KINDS] + [FLIPPED_STAR]:
        st = solve_all(spec, ring)
        ex = solve_all(spec, ring, pair_mode="exhaustive")
        assert module_equal(ex.sum_with(st), ex), (label, spec)


def test_check_with_a_shrunk_structured_module_raises(monkeypatch, tmp_path, capsys):
    # negative control: a structured solve that loses members (here, the
    # zero module) leaves star maps outside it that fail on no pair; check
    # must say the module was wrong, never pass them or make up a witness
    real = identities.solve_counted

    def shrunk(kind, ring, bimodule=None, pair_mode="structured"):
        module, counts = real(kind, ring, bimodule, pair_mode)
        if pair_mode == "structured":
            module = linalg.SolutionModule.from_rows(ring.m, module.ambient_rank, [])
        return module, counts

    gen = maps_from_module(solve_all("star", M2Z3, pair_mode="exhaustive"), M2Z3, M2Z3)[0]
    assert not gen.is_zero()
    monkeypatch.setattr(identities, "solve_counted", shrunk)
    with pytest.raises(InternalVerificationError, match="every pair"):
        check(gen, "star")
    path = tmp_path / "map.json"
    path.write_text(json.dumps(gen.to_json()))
    assert run(["check", "--kind", "star", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal verification failed: ")


BLOCK_RINGS = {
    "M2(Z/3[eps])": M2D3,
    "M3(Z/3)": matrix_ring(3, zmod(3)),
    "T(M2(Z/3))": T2Z3,
    "T(Z/3)": trivial_extension(zmod(3)),
}
ALL_SPECS = (
    list(IDENTITY_TERMS.values())
    + [spec for _, spec in _PROOF_STEPS]
    + [spec for _, spec in _PEIRCE_CHECKS]
)


def _table_rows(table, nrows, width, m):
    # a column table read back as nrows reduced {column: residue} rows, zero
    # rows included; every column lies in [0, width)
    rows = [{} for _ in range(nrows)]
    for col, entries in table.items():
        assert 0 <= col < width, col
        for i, v in entries.items():
            if v % m:
                rows[i][col] = v % m
    return rows


@pytest.mark.parametrize("extra", [0, 3])
@pytest.mark.parametrize("label", BLOCK_RINGS)
def test_block_builder_equals_per_pair_reference(label, extra):
    # one builder per spec, shared by all its pairs as in an assembly, with
    # each pair's block written into one column table at rows p * rank(M)
    # on, against the per-pair reference blocks stacked the same way: every
    # basis element or ordered basis pair, then random element pairs as a
    # failing check's witness scan meets them; e and f raise off matrix
    # rings in both.  A spec flagged symmetric gets one block for (e_i, e_j)
    # and (e_j, e_i).
    ring = BLOCK_RINGS[label]
    bim = Bimodule.regular(ring) if extra == 0 else Bimodule.inflated(Bimodule.regular(ring), extra)
    rank_m, width = bimodule_rank(bim), bimodule_rank(bim) * ring_rank(ring)
    basis = [RingElement(ring, tuple(int(k == i) for k in range(ring_rank(ring))))
             for i in range(ring_rank(ring))]
    rng = random.Random(label)
    drawn = [RingElement(ring, tuple(rng.randrange(ring.m) for _ in range(ring_rank(ring))))
             for _ in range(8)]

    def built(block, a, b):
        table = collections.defaultdict(dict)
        block(a.coords, None if b is None else b.coords, table, 0)
        return _table_rows(table, rank_m, width, ring.m)

    for spec in ALL_SPECS:
        if spec.quantifier == "basis":
            pairs = [(a, None) for a in basis + drawn]
        else:
            pairs = [(a, b) for a in basis for b in basis] + list(zip(drawn, reversed(drawn)))
        block = _block_builder(spec, ring, bim)
        actions = {}
        uses_corners = any("e" in (w or "") or "f" in (w or "") for t in spec.terms for w in t[1:])
        if uses_corners and ring.kind != "matrix":
            for a, b in pairs:
                with pytest.raises(GuardError):
                    built(block, a, b)
                with pytest.raises(GuardError):
                    pair_block_reference(spec, ring, bim, a, b, actions)
            continue
        table = collections.defaultdict(dict)
        for p, (a, b) in enumerate(pairs):
            block(a.coords, None if b is None else b.coords, table, p * rank_m)
        want = [row for a, b in pairs
                for row in pair_block_reference(spec, ring, bim, a, b, actions)]
        assert _table_rows(table, len(pairs) * rank_m, width, ring.m) == want, spec.tag
        if spec.quantifier != "basis" and identities._symmetric(spec):
            for a, b in itertools.combinations(basis, 2):
                assert built(block, a, b) == built(block, b, a), (spec.tag, a, b)


SYMMETRIC_TAGS = {
    "jordan", "generalized_jordan", "star", "star_star", "remark_antizero", "remark_abzero",
    "unital_component_jordan", "left_degenerate_rule", "right_degenerate_rule",
    "outer_component_jordan_zero",
}


def test_symmetric_specs_have_mirrored_blocks():
    # a spec whose terms a <-> b only permutes is flagged, and the per-pair
    # reference gives it one block for (e_i, e_j) and (e_j, e_i); derivation
    # and phi are not flagged, and some basis pair tells their blocks apart
    bim = Bimodule.regular(M2D3)
    basis = basis_elements(M2D3)
    actions = {}
    flagged = {spec.tag for spec in ALL_SPECS if identities._symmetric(spec)}
    assert flagged == SYMMETRIC_TAGS
    for spec in ALL_SPECS:
        if spec.quantifier == "basis":
            continue
        mirrored = all(
            pair_block_reference(spec, M2D3, bim, a, b, actions)
            == pair_block_reference(spec, M2D3, bim, b, a, actions)
            for i, a in enumerate(basis) for b in basis[:i]
        )
        assert mirrored or spec.tag not in flagged, spec.tag
        if spec.tag in ("derivation", "phi"):
            assert not mirrored
    # terms compare as a multiset: a repeated term needs a repeated swap
    doubled = ((1, None, "a", "b"), (1, None, "a", "b"), (1, None, "b", "a"))
    assert not identities._symmetric(IdentitySpec("doubled", doubled, "basis_pairs"))
    balanced = doubled + ((1, None, "b", "a"),)
    assert identities._symmetric(IdentitySpec("balanced", balanced, "basis_pairs"))


SYMMETRY_CODOMAINS = {
    "M2(Z/3[eps])": Bimodule.regular(M2D3),
    "T(M2(Z/3))": Bimodule.regular(T2Z3),
    "M3(Z/3)": Bimodule.regular(matrix_ring(3, zmod(3))),
    "M2(Z/3) + (Z/3)^3": Bimodule.inflated(REG, 3),
}


@pytest.mark.parametrize("label", SYMMETRY_CODOMAINS)
def test_symmetric_specs_solve_from_unordered_pairs(label):
    # the assembly builds a symmetric spec's blocks on the pairs i <= j only;
    # its module against the one of every ordered basis pair's reference
    # block and, for the conditional quantifiers, against the span
    # generators combined over all r^2 reference blocks (matrix rings only:
    # elsewhere the exact spans take seconds)
    bim = SYMMETRY_CODOMAINS[label]
    ring = bim.ring
    basis = basis_elements(ring)
    width = bimodule_rank(bim) * ring_rank(ring)
    actions = {}
    for spec in ALL_SPECS:
        if spec.tag not in SYMMETRIC_TAGS:
            continue
        if spec.quantifier != "basis_pairs" and ring.kind != "matrix":
            continue
        blocks = [pair_block_reference(spec, ring, bim, a, b, actions)
                  for a in basis for b in basis]
        if spec.quantifier == "basis_pairs":
            rows = [row for block in blocks for row in block]
        else:
            span, _ = pair_span(ring, spec.quantifier, "structured")
            rows = []
            for gen in span.generators.to_rows():
                for e in range(bimodule_rank(bim)):
                    row = {}
                    for k, c in enumerate(gen):
                        for col, v in blocks[k][e].items() if c else ():
                            row[col] = row.get(col, 0) + c * v
                    rows.append(row)
        want = kernel_of_rows(ring.m, width, rows)
        assert solve_all(spec, ring, bim) == want, spec.tag


def _reference_module(kind, bim):
    # the module solved from the reference blocks of every ordered basis pair
    ring = bim.ring
    basis = basis_elements(ring)
    actions = {}
    rows = [row for a in basis for b in basis
            for row in pair_block_reference(IDENTITY_TERMS[kind], ring, bim, a, b, actions)]
    return kernel_of_rows(ring.m, bimodule_rank(bim) * ring_rank(ring), rows)


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_shared_tables_keep_rings_and_bimodules_apart(order):
    # one process solves derivation and jordan over the regular and rank-3
    # inflated bimodules of M2(Z/3[eps]) and over T(Z/3), from cleared
    # memos, in either order; a table read under the wrong ring or bimodule
    # would change a module
    cases = [(kind, bim)
             for bim in (Bimodule.regular(M2D3), Bimodule.inflated(Bimodule.regular(M2D3), 3),
                         Bimodule.regular(trivial_extension(zmod(3))))
             for kind in ("derivation", "jordan")]
    identities._solved.cache_clear()
    identities._tables.cache_clear()
    for kind, bim in cases if order == "forward" else reversed(cases):
        assert solve_all(kind, bim.ring, bim) == _reference_module(kind, bim), (kind, bim)


# first witness (a, b, residual) of the negated map below against each
# proof-step part on M2(Z/3[eps]); a and b as basis indices
FLIPPED_WITNESSES = {
    "corner_ee": (0, None, (0, 0, 0, 0, 2, 2, 2, 0)),
    "corner_ff": (6, None, (2, 2, 0, 1, 1, 0, 0, 0)),
    "corner_ef": (2, None, (0, 1, 0, 0, 2, 2, 1, 2)),
    "corner_fe": (4, None, (1, 1, 1, 2, 0, 0, 0, 0)),
    "rule_ee_ef": (0, 2, (0, 0, 0, 2, 0, 0, 0, 0)),
    "rule_ef_ff": (2, 7, (0, 0, 2, 1, 0, 0, 0, 0)),
    "rule_fe_ee": (4, 0, (0, 0, 0, 0, 0, 2, 0, 0)),
    "rule_ff_fe": (7, 4, (0, 0, 0, 0, 1, 1, 0, 0)),
    "rule_ee_ee": (1, 1, (0, 2, 0, 0, 0, 0, 0, 0)),
    "rule_ff_ff": (7, 7, (0, 0, 0, 0, 0, 0, 0, 2)),
    "central_image_of_one": (0, None, (0, 0, 0, 1, 0, 1, 0, 0)),
    "rule_ef_fe": (2, 4, (1, 0, 0, 0, 0, 0, 0, 0)),
    "rule_fe_ef": (2, 4, (0, 0, 0, 0, 0, 0, 1, 1)),
}


def test_witnesses_are_unchanged_once_the_tables_are_warm():
    # every proof-step part is solved first, so the scans read tables that
    # the solves filled; the witnesses are the ones recorded from the
    # per-check builder these tables replaced
    for _, spec in _PROOF_STEPS:
        solve_all(spec, M2D3)
    bim = Bimodule.regular(M2D3)
    report = check(right_multiplier(bim, one_element(M2D3).coords), "derivation")
    assert _witness_tuple(report.witness) == (
        matrix_unit(M2D3, 1, 1).coords, matrix_unit(M2D3, 1, 1).coords, (2,) + (0,) * 7)
    rng = random.Random(0)
    fmap = AdditiveMap.from_flat(M2D3, bim, [rng.randrange(3) for _ in range(64)])
    flipped = zero_map(M2D3, bim) - fmap
    basis = basis_elements(M2D3)
    for _, spec in _PROOF_STEPS:
        a, b, residual = FLIPPED_WITNESSES[spec.tag]
        want = (basis[a].coords, None if b is None else basis[b].coords, residual)
        assert _witness_tuple(check(flipped, spec).witness) == want, spec.tag


WIDE_KINDS = ("derivation", "jordan", "generalized_derivation", "generalized_jordan", "phi")


@pytest.mark.parametrize("kind", WIDE_KINDS)
def test_solve_all_equals_dense_reference_route(kind):
    # the sparse assembly and solve against the dense constraint matrix,
    # normalised by the dense reference Howell routine, then solved
    ring = matrix_ring(3, zmod(3))
    matrix = constraint_system(kind, ring).matrix
    normalised = howell_dense_reference(matrix.to_rows(), 3)
    reference = solve_homogeneous(ResidueMatrix(3, len(normalised), matrix.cols,
                                                tuple(v for r in normalised for v in r)))
    assert solve_all(kind, ring) == reference


ROUTE_CODOMAINS = {
    "M2(Z/3)": REG,
    "M2(Z/3[eps])": Bimodule.regular(M2D3),
    "M3(Z/9)": Bimodule.regular(matrix_ring(3, zmod(9))),
    "T(M2(Z/3))": Bimodule.regular(T2Z3),
    "M2(Z/3) + (Z/3)^3": Bimodule.inflated(REG, 3),
}


def _outcome(compute):
    # the value, or GuardError where the computation raises it
    try:
        return compute()
    except GuardError:
        return GuardError


@pytest.mark.parametrize("pair_mode", ["structured", "exhaustive"])
@pytest.mark.parametrize("label", ROUTE_CODOMAINS)
def test_deduplicated_rows_equal_the_per_pair_route(label, pair_mode):
    # for every spec, the assembly's column table read back row by row
    # against the per-pair reference rows (zero rows included, as dicts;
    # for a symmetric spec over basis pairs, those of the pairs i <= j,
    # the ones the assembly builds), so their distinct rows agree too; and
    # the memoised module against the solve of the dense constraint matrix.
    # A corner letter off a matrix ring, or an exhaustive span over the
    # element budget, raises in every route.
    bim = ROUTE_CODOMAINS[label]
    ring = bim.ring
    r, rank_m = ring_rank(ring), bimodule_rank(bim)
    width = rank_m * r
    for spec in ALL_SPECS:
        got = _outcome(lambda: _table_rows(
            *identities._assembly(spec, ring, bim, pair_mode)[:2], width, ring.m))
        want = _outcome(lambda: oracles.assembly_reference(spec, ring, bim, pair_mode))
        halved = spec.quantifier == "basis_pairs" and identities._symmetric(spec)
        if halved and want is not GuardError:
            want = [want[(i * r + j) * rank_m + e]
                    for i, j in itertools.combinations_with_replacement(range(r), 2)
                    for e in range(rank_m)]
        assert got == want, spec.tag
        module = _outcome(lambda: identities._solved(spec, ring, bim, pair_mode)[0])
        dense = _outcome(lambda: solve_homogeneous(
            constraint_system(spec, ring, bim, pair_mode).matrix))
        assert module == dense, spec.tag
        assert (got is GuardError) == (module is GuardError), spec.tag


def test_constraint_columns_outside_the_width_raise_before_elimination(monkeypatch):
    # a column table with a column past the width, or a negative one, is
    # refused once per system, before the kernel step starts any
    # elimination, on the basis-pair path and the span path alike
    builder = identities._block_builder

    def no_elimination(*args):
        raise AssertionError("elimination started")

    pair_span(M2Z3, "two_sided_zero", "structured")  # the span is solved first
    width = bimodule_rank(REG) * ring_rank(M2Z3)
    for column in (width, -1):
        def widened(spec, ring, bim, column=column):
            block = builder(spec, ring, bim)

            def build(a, b, table, row):
                block(a, b, table, row)
                table[column][row] = 1
            return build

        monkeypatch.setattr(identities, "_block_builder", widened)
        monkeypatch.setattr(linalg, "_howell", no_elimination)
        identities._solved.cache_clear()
        with pytest.raises(ValueError, match=f"column {column} outside width {width}"):
            solve_all("derivation", M2Z3)
        with pytest.raises(ValueError, match=f"column {column} outside width {width}"):
            solve_all("star", M2Z3)
        monkeypatch.undo()
    identities._solved.cache_clear()


def _solve_from_pairs(kind, ring, coord_pairs):
    # the row blocks of every listed pair, evaluated pair by pair by the
    # reference evaluator
    bim = Bimodule.regular(ring)
    actions = {}
    rows = [
        row
        for a, b in coord_pairs
        for row in pair_block_reference(IDENTITY_TERMS[kind], ring, bim,
                                        RingElement(ring, a), RingElement(ring, b), actions)
    ]
    return kernel_of_rows(ring.m, ring_rank(ring) ** 2, rows)


@pytest.mark.parametrize("m", [3, 4])
def test_kernel_route_equals_full_pair_scan(m):
    # exactness of the annihilator-kernel route, against the module solved
    # from every ordered pair; m = 4 brings non-unit pivots into the kernels
    ring = matrix_ring(2, zmod(m))
    scans = {}
    for kind in CONDITIONAL_KINDS:
        condition = IDENTITY_TERMS[kind].quantifier
        if condition not in scans:
            scans[condition] = scan_pairs_mat2(m, condition)
        system = constraint_system(kind, ring, pair_mode="exhaustive")
        assert system.counts == {"pair_count": len(scans[condition])}
        assert module_equal(
            solve_homogeneous(system.matrix), _solve_from_pairs(kind, ring, scans[condition])
        ), kind


def test_exhaustive_truths_on_m2_z5():
    # truths measured by a full scan of all ordered pairs
    m2z5 = matrix_ring(2, zmod(5))
    star = constraint_system("star", m2z5, pair_mode="exhaustive")
    onesided = constraint_system("remark_abzero", m2z5, pair_mode="exhaustive")
    assert star.counts == {"pair_count": 1825}
    assert solve_homogeneous(star.matrix).size() == 625
    assert solve_all("star_star", m2z5, pair_mode="exhaustive").size() == 78125
    assert onesided.counts == {"pair_count": 4705}
    assert solve_homogeneous(onesided.matrix).size() == 125


def test_even_modulus_solves_are_allowed_for_exploration():
    m2z6 = matrix_ring(2, zmod(6))
    deriv = solve_all("derivation", m2z6)
    for gen in maps_from_module(deriv, m2z6, m2z6):
        assert check(gen, "derivation").passed


# ---------------------------------------------------------------------------
# zero-product decomposition and proof steps
# ---------------------------------------------------------------------------

def test_solves_build_no_dense_matrix(monkeypatch):
    # a solution module is its sparse Howell rows: solving, membership,
    # size, sums, equality and sampling build no dense matrix; only reading
    # the generators does
    def dense(*args):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(ResidueMatrix, "from_sparse", classmethod(dense))
    identities._solved.cache_clear()
    rings.pair_span.cache_clear()
    m3z3 = matrix_ring(3, zmod(3))
    wide = [solve_all(kind, m3z3) for kind in
            ("derivation", "jordan", "generalized_derivation", "generalized_jordan", "phi")]
    star = solve_all("star", M2Z3, pair_mode="exhaustive")
    assert module_equal(wide[0], wide[1])
    rng = random.Random(4)
    for module in wide + [star]:
        doubled = module.sum_with(module)
        assert module_equal(doubled, module) and doubled.size() == module.size()
        assert module.contains(module.random_element(rng))
    with pytest.raises(AssertionError, match="dense"):
        star.generators


def test_decompose_inner_input():
    g = matrix_unit(M2Z3, 1, 2) + matrix_unit(M2Z3, 2, 1)
    ig = inner_derivation(REG, g.coords)
    trace = decompose_theorem21(ig)
    assert trace.delta.matrix == ig.matrix
    assert trace.central == (0, 0, 0, 0)
    assert (trace.e + trace.f) == one_element(M2Z3)


def test_decompose_central_right_multiplier():
    c = (2, 0, 0, 2)  # 2 * identity, central
    rmap = right_multiplier(REG, c)
    trace = decompose_theorem21(rmap)
    assert trace.delta.is_zero()
    assert trace.central == c
    assert not any(trace.m_elt)


def test_decompose_all_star_generators_and_random_members():
    star = solve_all("star", M2Z3, pair_mode="exhaustive")
    deriv = solve_all("derivation", M2Z3)
    center = center_basis(M2Z3)
    rng = random.Random(1)
    members = [tuple(r) for r in star.generators.to_rows()]
    members += [star.random_element(rng) for _ in range(15)]
    for flat in members:
        fmap = AdditiveMap.from_flat(M2Z3, REG, flat)
        trace = decompose_theorem21(fmap)
        assert check(trace.delta, "derivation").passed
        assert center.contains(trace.central)
        assert deriv.contains(trace.delta.to_flat())


def test_decompose_rejects_non_star_maps():
    bad = AdditiveMap.from_flat(M2Z3, REG, tuple([1] + [0] * 14 + [2]))
    if check(bad, "star").passed:
        pytest.skip("accidentally picked a conforming map")
    with pytest.raises(PreconditionError) as err:
        decompose_theorem21(bad)
    assert err.value.report is not None and not err.value.report.passed


def test_decompose_rejects_even_modulus():
    m2z6 = matrix_ring(2, zmod(6))
    with pytest.raises(EvenModulusError):
        decompose_theorem21(zero_map(m2z6, Bimodule.regular(m2z6)))


def test_proof_steps_pass_for_derivations_and_multipliers():
    inner = inner_derivation(REG, matrix_unit(M2Z3, 2, 1).coords)
    report = verify_proof_steps(inner)
    assert report.all_passed and len(report.steps) == 8

    c = (1, 0, 0, 1)
    rmap = right_multiplier(REG, c)
    report = verify_proof_steps(rmap)
    assert report.all_passed
    # step 7 asserts centrality of the image of one, which here is c itself
    assert report.steps[6].step == 7 and report.steps[6].passed


def test_proof_steps_on_sampled_star_members():
    star = solve_all("star", M2Z3, pair_mode="exhaustive")
    rng = random.Random(2)
    for _ in range(10):
        fmap = AdditiveMap.from_flat(M2Z3, REG, star.random_element(rng))
        assert verify_proof_steps(fmap).all_passed


# Parts that hold for every additive map on M2(Z/3): each corner they multiply
# is Z/3 times one matrix unit.  A change that makes more parts vacuous shows
# here.
VACUOUS_ON_M2Z3 = {"rule_ef_ff", "rule_ff_fe", "rule_ee_ee", "rule_ff_ff"}


@pytest.mark.parametrize("ring, vacuous", [(M2Z3, VACUOUS_ON_M2Z3), (M2D3, set())],
                         ids=["M2(Z/3)", "M2(Z/3[eps])"])
def test_vacuous_proof_parts_are_pinned(ring, vacuous):
    full = 3 ** (ring_rank(ring) ** 2)
    got = {spec.tag for _, spec in _PROOF_STEPS if solve_all(spec, ring).size() == full}
    assert got == vacuous


# The steps' grouping into parts, in report order, as the docstring states it.
STEP_PARTS = {
    1: ("corner_ee", "corner_ff"),
    2: ("corner_ef",),
    3: ("corner_fe",),
    4: ("rule_ee_ef", "rule_ef_ff"),
    5: ("rule_fe_ee", "rule_ff_fe"),
    6: ("rule_ee_ee", "rule_ff_ff"),
    7: ("central_image_of_one",),
    8: ("rule_ef_fe", "rule_fe_ef"),
}
PARTS = [(spec, 0) for _, spec in _PROOF_STEPS] + [(spec, 4) for _, spec in _PEIRCE_CHECKS]


def _witness_tuple(w):
    return w.a.coords, (w.b.coords if w.b is not None else None), w.residual


@pytest.mark.parametrize("spec, extra", PARTS, ids=[spec.tag for spec, _ in PARTS])
def test_proof_and_peirce_parts_match_their_statements(spec, extra):
    # each part's term table, checked by membership, against the oracle's
    # evaluator written from the stated identity: verdict and first witness
    # (a, b, residual).  Proof steps map into the ring, Peirce checks into an
    # inflated codomain; an arbitrary map stands in for Delta or a component.
    # Four corner rules hold for every additive map on M2(Z/3) (its corners
    # are Z/3), so the steps also run on M2(Z/3[eps]), where every part can
    # fail.
    rng = random.Random(spec.tag)
    rings = [(M2Z3, 4, False)] + ([(M2D3, 8, True)] if extra == 0 else [])
    failing = 0
    for ring, rank, dual in rings:
        reg = Bimodule.regular(ring)
        bim = reg if extra == 0 else Bimodule.inflated(reg, extra)
        module = solve_all(spec, ring, bimodule=bim)
        width = rank * (rank + extra)
        samples = [tuple(rng.randrange(3) for _ in range(width)) for _ in range(5)]
        samples += [module.random_element(rng) for _ in range(2)]
        for _ in range(5):
            bumped = list(module.random_element(rng))
            bumped[rng.randrange(width)] += 1
            samples.append(tuple(v % 3 for v in bumped))
        for flat in samples:
            report = check(AdditiveMap.from_flat(ring, bim, flat), spec)
            expected = first_failing_part_mat2(spec.tag, flat, 3, extra, dual)
            if expected is None:
                assert report.passed, (ring, flat)
            else:
                failing += 1
                assert not report.passed, (ring, flat)
                assert _witness_tuple(report.witness) == expected, (ring, flat)
    assert failing >= 1


def test_failing_proof_steps_report_first_failing_part(monkeypatch):
    # with a zero corner element, Delta is the map itself, so arbitrary maps
    # reach the steps; each step reports its first failing part's witness.
    # M2(Z/3[eps]) because every step can fail there.
    def zero_corner(dmap):
        e = matrix_unit(M2D3, 1, 1)
        return e, one_element(M2D3) - e, (0,) * 8

    monkeypatch.setattr(identities, "_corner_split", zero_corner)
    table = [(step, spec.tag) for step, spec in _PROOF_STEPS]
    assert table == [(step, part) for step, parts in STEP_PARTS.items() for part in parts]
    rng = random.Random(9)
    failed_steps = set()
    for _ in range(3):
        flat = tuple(rng.randrange(3) for _ in range(64))
        report = verify_proof_steps(AdditiveMap.from_flat(M2D3, Bimodule.regular(M2D3), flat))
        assert [s.step for s in report.steps] == list(STEP_PARTS)
        for result in report.steps:
            expected = None
            for part in STEP_PARTS[result.step]:
                found = first_failing_part_mat2(part, flat, 3, 0, dual=True)
                if found:
                    a, b, res = found
                    expected = {"part": part, "a": list(a), "b": b and list(b),
                                "residual": list(res)}
                    break
            got = result.witness
            if got is not None:
                got = dict(got, a=got["a"]["coords"], b=got["b"] and got["b"]["coords"])
                failed_steps.add(result.step)
            assert result.passed == (expected is None)
            assert got == expected
    assert failed_steps == set(STEP_PARTS)


PEIRCE_PARTS = (
    "unital_component_jordan",
    "left_degenerate_rule",
    "right_degenerate_rule",
    "outer_component_jordan_zero",
    "left_degenerate_is_multiplier",
    "right_degenerate_is_multiplier",
    "outer_component_vanishes",
)


def test_failing_peirce_report_checks_each_component(monkeypatch):
    # with the Jordan precondition waived, an arbitrary map into the inflated
    # codomain splits into D1 (the matrix cells), D2 = D3 = 0 and D4 (the
    # zero-action summand); each check reports its statement on its component
    real_check = identities.check

    def waive_jordan(fmap, kind):
        if kind == "jordan":
            return identities.CheckReport(True)
        return real_check(fmap, kind)

    monkeypatch.setattr(identities, "check", waive_jordan)
    bim = Bimodule.inflated(REG, 4)
    rng = random.Random(10)
    for _ in range(3):
        flat = tuple(rng.randrange(3) for _ in range(32))
        cells = flat[:16] + (0,) * 16
        summand = (0,) * 16 + flat[16:]
        comps = (cells, (0,) * 32, (0,) * 32, summand)
        report = peirce_component_check(AdditiveMap.from_flat(M2Z3, bim, flat))
        assert [c.to_flat() for c in report.components] == list(comps)
        assert [c.name for c in report.checks] == list(PEIRCE_PARTS)
        for result, comp in zip(report.checks, (0, 1, 2, 3, 1, 2, 3)):
            expected = first_failing_part_mat2(result.name, comps[comp], 3, 4)
            assert result.passed == (expected is None)
            if expected is not None:
                a, b, res = expected
                got = result.witness
                assert got["a"]["coords"] == list(a)
                assert (got["b"] and got["b"]["coords"]) == (b and list(b))
                assert got["residual"] == list(res)
        assert not report.all_passed


def test_corner_letters_need_a_matrix_ring():
    spec = IdentitySpec("corner", ((1, None, "eae", None),), "basis")
    with pytest.raises(GuardError):
        constraint_system(spec, zmod(3))
    assert constraint_system(spec, M2Z3).matrix.rows == 4 * 4


def test_proof_steps_reject_non_star_input():
    bad = AdditiveMap.from_flat(M2Z3, REG, tuple([1] + [0] * 14 + [2]))
    if check(bad, "star").passed:
        pytest.skip("accidentally picked a conforming map")
    with pytest.raises(PreconditionError):
        verify_proof_steps(bad)


# ---------------------------------------------------------------------------
# inner-plus-lift decomposition
# ---------------------------------------------------------------------------

def test_inner_plus_lift_recovers_inner():
    g0 = (1, 2, 0, 1, 0, 0, 2, 0)
    ig = inner_derivation(Bimodule.regular(M2D3), g0)
    d, g = decompose_inner_plus_lifted(ig)
    assert d.is_zero()
    # g may differ from g0 by a central element; compare at the map level
    assert inner_derivation(Bimodule.regular(M2D3), g).matrix == ig.matrix
    # G = sum_k E_k1.delta(E_1k), whose (1, 1) cell is zero
    assert g == (0, 0, 0, 1, 0, 0, 1, 1)


def test_inner_plus_lift_recovers_lifted_base_derivation():
    base_d = AdditiveMap(
        DUAL3, Bimodule.regular(DUAL3), ResidueMatrix.from_rows(3, [[0, 0], [0, 1]])
    )
    lifted = lift_map(base_d, 2)
    d, g = decompose_inner_plus_lifted(lifted)
    assert d.matrix == base_d.matrix
    assert inner_derivation(Bimodule.regular(M2D3), g).is_zero()


def test_inner_plus_lift_covers_whole_derivation_module():
    deriv = solve_all("derivation", M2D3)
    nonzero = 0
    for gen in maps_from_module(deriv, M2D3, M2D3):
        d, g = decompose_inner_plus_lifted(gen)
        recomposed = lift_map(d, 2) + inner_derivation(Bimodule.regular(M2D3), g)
        assert recomposed.matrix == gen.matrix
        if not d.is_zero():
            nonzero += 1
    assert nonzero >= 1


def test_inner_plus_lift_rejects_non_derivations():
    rmap = right_multiplier(REG, one_element(M2Z3).coords)
    with pytest.raises(PreconditionError):
        decompose_inner_plus_lifted(rmap)


def test_inner_plus_lift_on_matrix_over_codomain():
    # same split, with the codomain described as matrices over the base
    # bimodule rather than as the ring acting on itself
    bim = Bimodule.matrix_over(M2D3, Bimodule.regular(DUAL3))
    base_d = AdditiveMap(
        DUAL3, Bimodule.regular(DUAL3), ResidueMatrix.from_rows(3, [[0, 0], [0, 2]])
    )
    target = AdditiveMap(M2D3, bim, lift_map(base_d, 2).matrix)
    g0 = (0, 1, 0, 0, 2, 0, 0, 0)
    fmap = target + inner_derivation(bim, g0)
    d, g = decompose_inner_plus_lifted(fmap)
    assert d.matrix == base_d.matrix
    assert inner_derivation(bim, g).matrix == inner_derivation(bim, g0).matrix
    assert g == (0, 0, 0, 0, 2, 0, 0, 2)


def test_inner_plus_lift_over_non_unital_base():
    # matrices over a base bimodule on which the identity does not act as
    # the identity: every derivation generator still splits and recomposes
    base_bim = Bimodule.inflated(Bimodule.regular(DUAL3), 1)
    bim = Bimodule.matrix_over(M2D3, base_bim)
    deriv = solve_all("derivation", M2D3, bimodule=bim)
    gens = maps_from_module(deriv, M2D3, bim)
    assert len(gens) == 7
    for gen in gens:
        d, g = decompose_inner_plus_lifted(gen)
        assert d.codomain == base_bim
        lifted = AdditiveMap(M2D3, bim, lift_map(d, 2).matrix)
        assert (lifted + inner_derivation(bim, g)).matrix == gen.matrix


def test_inner_plus_lift_support_check_fires(monkeypatch):
    # with I_G stubbed to zero the remainder is delta itself, and I_E12 sends
    # E11 to E12, out of cell (1, 1): the first column off its cell is named
    monkeypatch.setattr(identities, "inner_derivation", lambda bim, g: zero_map(bim.ring, bim))
    delta = inner_derivation(REG, matrix_unit(M2Z3, 1, 2).coords)
    with pytest.raises(InternalVerificationError, match="not entrywise supported") as exc:
        decompose_inner_plus_lifted(delta)
    assert exc.value.payload == (0, 0, (0, 1, 0, 0))


def test_inner_plus_lift_base_derivation_check_fires(monkeypatch):
    # the identity of M2(Z/3) is the lift of the identity of Z/3, which is no
    # derivation; with the matrix ring's precondition waived the split gets
    # as far as the base check
    real_check = identities.check

    def waive_matrix_ring(fmap, kind):
        if fmap.domain == M2Z3:
            return identities.CheckReport(True)
        return real_check(fmap, kind)

    monkeypatch.setattr(identities, "check", waive_matrix_ring)
    with pytest.raises(InternalVerificationError, match="not a base derivation") as exc:
        decompose_inner_plus_lifted(identity_map(M2Z3))
    assert not exc.value.payload.passed


def test_inner_plus_lift_recomposition_check_fires(monkeypatch):
    # with the lift stubbed to zero, lift(d) + I_G misses the lifted part
    base_d = AdditiveMap(
        DUAL3, Bimodule.regular(DUAL3), ResidueMatrix.from_rows(3, [[0, 0], [0, 1]])
    )
    monkeypatch.setattr(identities, "lift_map",
                        lambda d, n: zero_map(M2D3, Bimodule.regular(M2D3)))
    with pytest.raises(InternalVerificationError, match="recomposition failed") as exc:
        decompose_inner_plus_lifted(lift_map(base_d, 2))
    assert exc.value.payload.matrix == base_d.matrix


# ---------------------------------------------------------------------------
# trivial-extension components
# ---------------------------------------------------------------------------

def test_extension_components_of_inner_map():
    g = (1, 0, 2, 0)
    h = (0, 1, 0, 0)
    ig = inner_derivation(Bimodule.regular(T2Z3), g + h)
    d1, d2, d3, d4 = decompose_trivial_extension(ig)
    reg = Bimodule.regular(M2Z3)
    assert d1.matrix == inner_derivation(reg, g).matrix
    assert d2.is_zero()
    assert d3.matrix == inner_derivation(reg, h).matrix
    assert d4.matrix == inner_derivation(reg, g).matrix


def test_extension_components_of_zero_map():
    comps = decompose_trivial_extension(zero_map(T2Z3, Bimodule.regular(T2Z3)))
    assert all(c.is_zero() for c in comps)


def test_extension_components_verified_on_jordan_generators():
    jordan = solve_all("jordan", T2Z3)
    base_center = center_basis(M2Z3)
    reg = Bimodule.regular(M2Z3)
    for gen in maps_from_module(jordan, T2Z3, T2Z3):
        d1, d2, d3, d4 = decompose_trivial_extension(gen)
        assert d2.is_zero()
        assert check(d1, "jordan").passed
        assert check(d3, "jordan").passed
        c = d4.apply(one_element(M2Z3))
        assert base_center.contains(c)
        assert (d4 - d1).matrix == right_multiplier(reg, c).matrix


def test_extension_components_need_extension_domain():
    with pytest.raises(ValueError):
        decompose_trivial_extension(zero_map(M2Z3, REG))


# ---------------------------------------------------------------------------
# components over non-unital codomains
# ---------------------------------------------------------------------------

def test_component_check_on_inflated_jordan_generators():
    bim = Bimodule.inflated(REG, 4)
    jordan = solve_all("jordan", M2Z3, bimodule=bim)
    for gen in maps_from_module(jordan, M2Z3, bim):
        report = peirce_component_check(gen)
        assert report.all_passed
        d1, d2, d3, d4 = report.components
        # both one-sided components vanish identically for an inflated
        # codomain (its degenerate parts collapse), and so does the outer one
        assert d2.is_zero() and d3.is_zero() and d4.is_zero()
        assert check(d1, "jordan").passed


def test_component_check_requires_inflated_codomain():
    with pytest.raises(ValueError):
        peirce_component_check(zero_map(M2Z3, REG))


def test_component_check_rejects_even_modulus():
    ring = matrix_ring(2, zmod(6))
    bim = Bimodule.inflated(Bimodule.regular(ring), 2)
    with pytest.raises(EvenModulusError):
        peirce_component_check(zero_map(ring, bim))


# ---------------------------------------------------------------------------
# corrupted identities are caught (the machinery can fail honestly)
# ---------------------------------------------------------------------------

def test_sign_flipped_jordan_identity_rejects_inner_derivations(monkeypatch):
    spec = IDENTITY_TERMS["jordan"]
    flipped = spec.terms[:-1] + ((1, "b", "a", None),)  # flip the last sign
    monkeypatch.setitem(
        IDENTITY_TERMS, "jordan", IdentitySpec("jordan", flipped, "basis_pairs")
    )
    inner = inner_derivation(REG, matrix_unit(M2Z3, 1, 2).coords)
    report = check(inner, "jordan")
    assert not report.passed
    assert report.witness is not None and any(report.witness.residual)


def test_memo_is_keyed_on_identity_terms_not_tag(monkeypatch):
    # the genuine Jordan module is solved and memoised first; the flipped
    # table entry under the same tag must get its own module
    inner = inner_derivation(REG, matrix_unit(M2Z3, 1, 2).coords)
    assert check(inner, "jordan").passed
    assert verify_theorem("thm3_2i", M2Z3).status == "verified"
    spec = IDENTITY_TERMS["jordan"]
    flipped = spec.terms[:-1] + ((1, "b", "a", None),)
    monkeypatch.setitem(
        IDENTITY_TERMS, "jordan", IdentitySpec("jordan", flipped, "basis_pairs")
    )
    report = check(inner, "jordan")
    assert not report.passed and any(report.witness.residual)
    w = report.witness
    expected = first_failing_pair_mat2(flipped, inner.to_flat(), 3, 0, BASIS_PAIRS)
    assert (w.a.coords, w.b.coords, w.residual) == expected
    assert verify_theorem("thm3_2i", M2Z3).status == "falsified"


@pytest.mark.parametrize("kind", CONDITIONAL_KINDS)
def test_exhaustive_witness_is_first_failing_pair_in_scan_order(kind):
    # a = 0 and the other early elements annihilate everything, so the first
    # failure sits deep in the enumeration; the witness must be the oracle's
    # first failing pair of the full index-order scan
    scan = scan_pairs_mat2(3, IDENTITY_TERMS[kind].quantifier)
    maps = [right_multiplier(REG, (0, 1, 0, 0)), right_multiplier(REG, (1, 0, 0, 2))]
    maps.append(AdditiveMap.from_flat(M2Z3, REG, tuple([1] + [0] * 14 + [2])))
    rng = random.Random(4)
    maps.append(AdditiveMap.from_flat(M2Z3, REG, tuple(rng.randrange(3) for _ in range(16))))
    failing = 0
    for fmap in maps:
        expected = first_failing_pair_mat2(
            IDENTITY_TERMS[kind].terms, fmap.to_flat(), 3, 0, scan
        )
        report = check(fmap, kind)
        if expected is None:
            assert report.passed
            continue
        failing += 1
        w = report.witness
        assert (w.a.coords, w.b.coords, w.residual) == expected
    assert failing >= 1  # star_star: only the last map fails
