import json
import os

import pytest

from derivlab import identities, theorems
from derivlab.cli import run
from derivlab.identities import (
    IDENTITY_TERMS,
    IdentitySpec,
    maps_from_module,
    solve_all,
    solve_counted,
)
from derivlab.maps import zero_map
from derivlab.rings import dual_numbers, matrix_ring, trivial_extension, zmod
from derivlab.theorems import (
    THEOREM_IDS,
    exit_status,
    run_all,
    verify_theorem,
)

M2Z3 = matrix_ring(2, zmod(3))


def test_jordan_collapse_report():
    rep = verify_theorem("thm3_2i", M2Z3)
    assert rep.status == "verified"
    assert rep.counts["jordan_module_size"] == 27
    assert rep.counts["derivation_module_size"] == 27
    assert rep.counterexample is None
    payload = rep.to_json()
    assert payload["status"] == "verified"
    assert payload["ring"] == M2Z3.to_json()


def test_unknown_pair_mode_raises_up_front():
    # thm3_2i solves unconditional identities only and thm2_1 reads the
    # mode; both raise before anything runs, like an unknown id
    for theorem_id in ("thm3_2i", "thm2_1"):
        with pytest.raises(ValueError, match="unknown pair mode 'bogus'"):
            verify_theorem(theorem_id, M2Z3, pair_mode="bogus")
    for kind in ("derivation", "star"):
        with pytest.raises(ValueError, match="unknown pair mode 'bogus'"):
            solve_counted(kind, M2Z3, pair_mode="bogus")
        with pytest.raises(ValueError, match="unknown pair mode 'bogus'"):
            solve_all(kind, M2Z3, pair_mode="bogus")


def test_internal_verification_error_is_a_falsified_report(monkeypatch):
    # a zero I_G makes the inner-plus-lift support check fire on the first
    # derivation generator, I_E21, which sends E11 to 2.E21 in cell (2, 1);
    # the report carries the error and its payload
    monkeypatch.setattr(identities, "inner_derivation", lambda bim, g: zero_map(bim.ring, bim))
    rep = verify_theorem("cor2_3", M2Z3)
    assert rep.status == "falsified"
    assert rep.counterexample["error"] == "remainder is not entrywise supported"
    assert rep.counterexample["payload"] == "(0, 0, (0, 0, 2, 0))"
    assert exit_status([rep]) == 1


def test_one_sided_multiplier_report():
    rep = verify_theorem("thm4_2", M2Z3)
    assert rep.status == "verified"
    assert rep.counts["one_sided_module_size"] == 3
    assert rep.counts["center_size"] == 3


def test_zero_product_reports_with_mode_comparison():
    rep = verify_theorem("thm2_1", M2Z3, pair_mode="exhaustive")
    assert rep.status == "verified"
    assert rep.counts["star_module_size"] == 81
    assert rep.counts["structured_equals_exhaustive"] == 1

    rep = verify_theorem("thm2_2", M2Z3, pair_mode="exhaustive")
    assert rep.status == "verified"
    assert rep.counts["star_star_module_size"] == 2187


def test_even_modulus_skips_with_reason():
    rep = verify_theorem("thm2_1", matrix_ring(2, zmod(2)))
    assert rep.status == "skipped"
    assert "2-torsion" in rep.reason


def test_wrong_ring_shape_skips_with_reason():
    rep = verify_theorem("thm2_1", zmod(5))
    assert rep.status == "skipped"
    assert "matrix ring" in rep.reason
    rep = verify_theorem("thm4_4", zmod(5))
    assert rep.status == "skipped"
    assert "wraps a matrix ring" in rep.reason
    rep = verify_theorem("remark1_2", zmod(5), pair_mode="exhaustive")
    assert rep.status == "skipped"
    assert "matrix ring" in rep.reason


def test_stray_exception_is_an_error_not_a_skip(monkeypatch, capsys):
    def broken(ring, report, **_):
        raise ValueError("stray bug")

    monkeypatch.setitem(theorems._PROCEDURES, "thm3_2i", broken)
    rep = verify_theorem("thm3_2i", M2Z3)
    assert rep.status == "error"
    assert rep.reason == "ValueError: stray bug"
    assert exit_status([rep]) == 1
    assert run(["verify", "--theorem", "thm3_2i", "--base", "zmod:3", "--n", "2"]) == 1
    assert "error (ValueError: stray bug)" in capsys.readouterr().out


def test_extension_theorem_wraps_matrix_ring():
    rep = verify_theorem("thm4_4", M2Z3)
    assert rep.status == "verified"
    assert rep.counts["extension_rank"] == 8
    # an explicitly pre-wrapped ring works too
    rep2 = verify_theorem("thm4_4", trivial_extension(M2Z3))
    assert rep2.status == "verified"
    assert rep2.counts == rep.counts


def test_unknown_theorem_id():
    with pytest.raises(ValueError):
        verify_theorem("thm9_9", M2Z3)


def stripped_report(rep):
    payload = rep.to_json()
    payload.pop("elapsed_ms")
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def battery_reports():
    """The 30 battery reports at seed 1."""
    battery = [matrix_ring(2, zmod(3)), matrix_ring(2, dual_numbers(3)),
               matrix_ring(2, zmod(5))]
    return [verify_theorem(tid, ring, seed=1) for tid in THEOREM_IDS for ring in battery]


def test_battery_reports_match_the_recorded_ones(battery_reports):
    # recorded from the element-at-a-time membership sampler, whose
    # ``membership_samples`` count was then dropped from 15 of the lines, and
    # the three thm2_1 lines' ``proof_step_samples: 20`` since replaced by
    # ``proof_step_generators``; the rest of every report is unchanged
    lines = [stripped_report(rep) for rep in battery_reports]
    path = os.path.join(os.path.dirname(__file__), "battery_seed1_reports.jsonl")
    with open(path, encoding="utf-8") as fh:
        assert "\n".join(lines) + "\n" == fh.read()


def test_no_battery_report_counts_membership_samples(battery_reports):
    # module equalities are decided on canonical generators, not sampled
    assert all(rep.status == "verified" for rep in battery_reports)
    assert not any("membership_samples" in rep.counts for rep in battery_reports)


def test_module_mismatch_witness_is_pinned():
    star, deriv = solve_all("star", M2Z3), solve_all("derivation", M2Z3)
    with pytest.raises(theorems._Falsified) as exc:
        theorems._require_equal(star, deriv, "zero_product_maps", "derivations",
                                M2Z3, M2Z3, "star", "derivation")
    found = exc.value.counterexample
    assert (found["found_in"], found["missing_from"]) == ("zero_product_maps", "derivations")
    assert found["passed"] is False
    assert found["map"]["matrix"]["data"] == [1, 0, 0, 0, 0, 0, 0, 0,
                                              0, 0, 2, 0, 0, 0, 0, 1]
    flat = found["map"]["matrix"]["data"]
    assert star.contains(flat) and not deriv.contains(flat)


@pytest.mark.parametrize("ring, generators", [
    (M2Z3, 4), (matrix_ring(2, dual_numbers(3)), 9), (matrix_ring(2, zmod(5)), 4),
], ids=["M2(Z/3)", "M2(Z/3[eps])", "M2(Z/5)"])
def test_proof_steps_run_on_every_star_generator(ring, generators):
    # the steps are linear in the map, so they run on the star module's
    # Howell generators and nothing is sampled
    assert not hasattr(theorems, "PROOF_STEP_SAMPLES")
    rep = verify_theorem("thm2_1", ring)
    assert rep.status == "verified"
    assert rep.counts["proof_step_generators"] == len(solve_all("star", ring).rows) == generators
    with pytest.raises(TypeError):
        verify_theorem("thm2_1", ring, sample=5)


def test_reports_are_deterministic_except_elapsed():
    a = verify_theorem("thm3_2i", M2Z3, seed=0)
    b = verify_theorem("thm3_2i", M2Z3, seed=0)
    assert stripped_report(a) == stripped_report(b)

    c = verify_theorem("remark1_2", M2Z3, pair_mode="exhaustive")
    d = verify_theorem("remark1_2", M2Z3, pair_mode="exhaustive")
    assert stripped_report(c) == stripped_report(d)


def test_run_all_over_dual_base():
    ring = matrix_ring(2, dual_numbers(3))
    reports = run_all(ring, theorem_ids=("thm3_2i", "cor2_3"))
    assert [r.status for r in reports] == ["verified", "verified"]
    assert reports[1].counts["generators_with_nonzero_base_part"] >= 1
    assert exit_status(reports) == 0


def test_corrupted_jordan_identity_falsifies_with_witness(monkeypatch):
    spec = IDENTITY_TERMS["jordan"]
    flipped = spec.terms[:-1] + ((1, "b", "a", None),)
    monkeypatch.setitem(
        IDENTITY_TERMS, "jordan", IdentitySpec("jordan", flipped, "basis_pairs")
    )
    rep = verify_theorem("thm3_2i", M2Z3)
    assert rep.status == "falsified"
    assert rep.counterexample is not None
    witness = rep.counterexample.get("witness")
    assert witness is not None
    assert witness["a"]["coords"] and witness["b"]["coords"]
    assert any(witness["residual"])
    assert exit_status([rep]) == 1


@pytest.mark.parametrize("ring, size", [
    (M2Z3, 27),
    (matrix_ring(2, zmod(5)), 125),
    (matrix_ring(2, dual_numbers(3)), 2187),
], ids=["M2(Z/3)", "M2(Z/5)", "M2(Z/3[eps])"])
def test_one_sided_zero_maps_are_the_derivations(ring, size):
    # the one-sided hypothesis ab = 0 leaves exactly Der; structured mode
    # once fed it the two-sided pairs and read the star module instead
    rep = verify_theorem("remark1_2", ring)
    assert rep.status == "verified"
    assert rep.counts["one_sided_zero_module_size"] == size


def _sign_flipped(spec, index):
    coef, *words = spec.terms[index]
    terms = spec.terms[:index] + ((-coef, *words),) + spec.terms[index + 1:]
    return IdentitySpec(spec.tag, terms, spec.quantifier)


SIGN_FLIPS = [(kind, i) for kind, spec in IDENTITY_TERMS.items() for i in range(len(spec.terms))]
# -D(ab) in remark_abzero is quantified over pairs with ab = 0, where it
# vanishes, so its flip is an equivalent mutant
EQUIVALENT_FLIP = ("remark_abzero", 4)


def test_every_sign_flip_is_caught(monkeypatch):
    # flip the sign of each term of each catalogue identity in turn; some
    # procedure on M2(Z/3) must then report falsified
    assert len(SIGN_FLIPS) == 45
    escaped = []
    for kind, index in SIGN_FLIPS:
        if (kind, index) == EQUIVALENT_FLIP:
            continue
        with monkeypatch.context() as patch:
            patch.setitem(IDENTITY_TERMS, kind, _sign_flipped(IDENTITY_TERMS[kind], index))
            statuses = {r.status for r in run_all(M2Z3)}
        assert "error" not in statuses, (kind, index)
        if "falsified" not in statuses:
            escaped.append((kind, index))
    assert escaped == []


def test_equivalent_sign_flip_keeps_the_module():
    kind, index = EQUIVALENT_FLIP
    spec = IDENTITY_TERMS[kind]
    assert spec.terms[index] == (-1, None, "ab", None)
    flipped = _sign_flipped(spec, index)
    for mode in ("structured", "exhaustive"):
        assert solve_all(flipped, M2Z3, pair_mode=mode) == solve_all(spec, M2Z3, pair_mode=mode)


_SWAP_AB = str.maketrans("ab", "ba")
QUANTIFIERS = ("basis_pairs", "two_sided_zero", "anti_commuting", "left_zero")


def _mutants(spec):
    """(label, spec) for each single edit of ``spec``: per term, flip its
    sign, drop it, double its coefficient, swap a and b in it, or move its
    one-sided factor to the other side; and each other quantifier."""
    terms = spec.terms
    for i, (coef, left, arg, right) in enumerate(terms):
        swapped = tuple(w and w.translate(_SWAP_AB) for w in (left, arg, right))
        edits = {"flip": [(-coef, left, arg, right)], "drop": [],
                 "double": [(2 * coef, left, arg, right)], "swap": [(coef, *swapped)]}
        if (left is None) != (right is None):
            edits["move"] = [(coef, right, arg, left)]
        for op, term in edits.items():
            yield (op, i), IdentitySpec(spec.tag, terms[:i] + tuple(term) + terms[i + 1:],
                                        spec.quantifier)
    for quantifier in QUANTIFIERS:
        if quantifier != spec.quantifier:
            yield ("quantifier", quantifier), IdentitySpec(spec.tag, terms, quantifier)


# mutants that leave their module unchanged on M2(Z/3) (asserted below), so
# no procedure can tell them apart: generalized_derivation,
# generalized_jordan and phi keep their modules under every pair condition
# (M_n(R) is zero product determined); star and star_star under
# anti-commuting pairs and remark_antizero under two-sided zero pairs give
# the modules remark1_2 proves equal; -D(ab) vanishes where ab = 0; and
# remark_abzero over all basis pairs is Der
EQUIVALENT_MUTANTS = {
    *((kind, ("quantifier", q))
      for kind in ("generalized_derivation", "generalized_jordan", "phi")
      for q in QUANTIFIERS[1:]),
    ("star", ("quantifier", "anti_commuting")),
    ("star_star", ("quantifier", "anti_commuting")),
    ("remark_antizero", ("quantifier", "two_sided_zero")),
    *(("remark_abzero", (op, 4)) for op in ("flip", "drop", "double")),
    ("remark_abzero", ("quantifier", "basis_pairs")),
}


def test_mutant_count():
    assert sum(1 for spec in IDENTITY_TERMS.values() for _ in _mutants(spec)) == 237
    assert len(EQUIVALENT_MUTANTS) == 16


@pytest.mark.parametrize("kind", list(IDENTITY_TERMS))
def test_every_single_edit_is_caught(kind, monkeypatch):
    # each mutant patched into the catalogue must falsify some procedure on
    # M2(Z/3), unless it is one of the equivalent mutants, which verify
    spec = IDENTITY_TERMS[kind]
    for label, mutant in _mutants(spec):
        with monkeypatch.context() as patch:
            patch.setitem(IDENTITY_TERMS, kind, mutant)
            statuses = {r.status for r in run_all(M2Z3)}
        if (kind, label) in EQUIVALENT_MUTANTS:
            assert statuses == {"verified"}, label
            assert solve_all(mutant, M2Z3) == solve_all(spec, M2Z3), label
        else:
            assert "falsified" in statuses and "error" not in statuses, label


PROOF_STEP_MUTANTS = [
    (index, label, mutant)
    for index, (_, spec) in enumerate(identities._PROOF_STEPS)
    for label, mutant in _mutants(spec) if label[0] in ("flip", "drop")
]


def test_every_proof_step_flip_and_drop_is_caught(monkeypatch):
    # thm2_1 runs the steps on every star generator, so each mutant step
    # patched into the table falsifies it, with a generator as the map
    assert len(PROOF_STEP_MUTANTS) == 84
    generators = [g.to_json() for g in maps_from_module(solve_all("star", M2Z3), M2Z3, M2Z3)]
    for index, label, mutant in PROOF_STEP_MUTANTS:
        table = list(identities._PROOF_STEPS)
        table[index] = (table[index][0], mutant)
        with monkeypatch.context() as patch:
            patch.setattr(identities, "_PROOF_STEPS", tuple(table))
            rep = verify_theorem("thm2_1", M2Z3)
        assert rep.status == "falsified", (mutant.tag, label)
        assert rep.counterexample["map"] in generators, (mutant.tag, label)
        assert not rep.counterexample["steps"]["all_passed"], (mutant.tag, label)


def test_corrupted_star_above_the_budget_still_falsifies(monkeypatch):
    # a.D(b).E + b.D(a).E added to star keeps its blocks symmetric, so the
    # structured solve still runs on M2(Z/19), past the element budget; the
    # derivations now fall outside the star module, and the witness scan for
    # that (against star, over the exhaustive pairs) is out of reach there
    spec = IDENTITY_TERMS["star"]
    extra = ((1, "a", "b", "e"), (1, "b", "a", "e"))
    monkeypatch.setitem(IDENTITY_TERMS, "star",
                        IdentitySpec("star", spec.terms + extra, "two_sided_zero"))
    big = matrix_ring(2, zmod(19))
    rep = verify_theorem("thm2_1", big)
    assert rep.status == "falsified"
    assert rep.reason is None
    assert "budget" in rep.counterexample["witness_unavailable"]
    assert rep.counterexample["missing_from"] == "zero_product_maps"
    assert exit_status([rep]) == 1


def test_unconditional_quantifier_skips_the_pair_mode_comparison(monkeypatch):
    # star_star rebound to the basis pairs is a corruption to catch, not a
    # span comparison to run: the report falsifies with no mode flag
    spec = IDENTITY_TERMS["star_star"]
    monkeypatch.setitem(IDENTITY_TERMS, "star_star",
                        IdentitySpec("star_star", spec.terms, "basis_pairs"))
    rep = verify_theorem("thm2_2", M2Z3)
    assert rep.status == "falsified"
    assert rep.counts["star_star_module_size"] == 1
    assert rep.counts["derivation_module_size"] == 27
    assert "structured_equals_exhaustive" not in rep.counts


def test_all_theorem_ids_run_verified_on_m2z3():
    reports = run_all(M2Z3, pair_mode="exhaustive")
    assert len(reports) == len(THEOREM_IDS)
    assert all(r.status == "verified" for r in reports)


def test_composite_odd_moduli_verify():
    # odd prime powers and products: 2-torsion free but full of zero divisors,
    # which exercises the composite-modulus solver path end to end
    for m, expected in ((9, 9**4 // 9), (15, 15**4 // 15)):
        ring = matrix_ring(2, zmod(m))
        rep = verify_theorem("thm3_2i", ring)
        assert rep.status == "verified"
        assert rep.counts["derivation_module_size"] == expected


def _composite_counts(m):
    # every count of the ten reports on M2(Z/m), recorded for m = 9 and 15
    return {
        "thm2_1": {"center_size": m, "derivation_module_size": m**3, "proof_step_generators": 4,
                   "span_rank": 6, "star_module_size": m**4},
        "thm2_2": {"derivation_module_size": m**3, "span_rank": 6, "star_star_module_size": m**7},
        "cor2_3": {"derivation_module_size": m**3, "generators": 3,
                   "generators_with_nonzero_base_part": 0},
        "lemma3_1": {"derivation_module_size": m**3, "inflation_rank": 4,
                     "jordan_module_size": m**3},
        "thm3_2i": {"derivation_module_size": m**3, "jordan_module_size": m**3},
        "thm3_2ii": {"generalized_derivation_module_size": m**7,
                     "generalized_jordan_module_size": m**7},
        "thm4_2": {"center_size": m, "central_multiplier_module_size": m, "one_sided_module_size": m},
        "thm4_4": {"derivation_module_size": m**7, "extension_rank": 8, "jordan_module_size": m**7},
        "remark1_1": {"derivation_module_size": m**3, "generalized_derivation_module_size": m**7},
        "remark1_2": {"anticommuting_module_size": m**4, "one_sided_zero_module_size": m**3,
                      "star_module_size": m**4},
    }


@pytest.mark.parametrize("m", [9, 15])
def test_every_report_on_composite_moduli_is_pinned(m):
    # non-unit pivots in every solve of all ten procedures
    reports = run_all(matrix_ring(2, zmod(m)))
    assert [rep.theorem_id for rep in reports] == list(THEOREM_IDS)
    assert all(rep.status == "verified" for rep in reports)
    assert {rep.theorem_id: rep.counts for rep in reports} == _composite_counts(m)


def test_inflation_rank_option():
    rep = verify_theorem("lemma3_1", M2Z3, inflation_rank=2)
    assert rep.status == "verified"
    assert rep.counts["inflation_rank"] == 2
    rep_default = verify_theorem("lemma3_1", M2Z3)
    assert rep_default.counts["inflation_rank"] == 4  # defaults to the ring rank


def test_three_by_three_matrices_verify():
    ring = matrix_ring(3, zmod(3))
    rep = verify_theorem("thm3_2i", ring)
    assert rep.status == "verified"
    assert rep.counts["derivation_module_size"] == 3**9 // 3
    # the argument steps are built from E = E11 and its complement, which is
    # a sum of two units when n = 3; structured mode quantifies over the
    # symmetrised kernel of [mu; mu.tau] on A (x) A, 36 Howell generators
    rep = verify_theorem("thm2_1", ring, pair_mode="structured")
    assert rep.status == "verified"
    assert rep.counts["span_rank"] == 36
    assert "pair_count" not in rep.counts
