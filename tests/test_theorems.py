import json

import pytest

from derivlab import theorems
from derivlab.cli import run
from derivlab.identities import IDENTITY_TERMS, IdentitySpec
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


def test_stray_exception_is_an_error_not_a_skip(monkeypatch, capsys):
    def broken(ring, report, **_):
        raise ValueError("stray bug")

    monkeypatch.setattr(theorems, "_verify_jordan_is_derivation", broken)
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


def test_reports_are_deterministic_except_elapsed():
    def stripped(rep):
        payload = rep.to_json()
        payload.pop("elapsed_ms")
        return json.dumps(payload, sort_keys=True)

    a = verify_theorem("thm3_2i", M2Z3, seed=0)
    b = verify_theorem("thm3_2i", M2Z3, seed=0)
    assert stripped(a) == stripped(b)

    c = verify_theorem("remark1_2", M2Z3, pair_mode="exhaustive")
    d = verify_theorem("remark1_2", M2Z3, pair_mode="exhaustive")
    assert stripped(c) == stripped(d)


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


def test_all_theorem_ids_run_verified_on_m2z3():
    reports = run_all(M2Z3, pair_mode="exhaustive", sample=50)
    assert len(reports) == len(THEOREM_IDS)
    assert all(r.status == "verified" for r in reports)


def test_composite_odd_moduli_verify():
    # odd prime powers and products: 2-torsion free but full of zero divisors,
    # which exercises the composite-modulus solver path end to end
    for m, expected in ((9, 9**4 // 9), (15, 15**4 // 15)):
        ring = matrix_ring(2, zmod(m))
        rep = verify_theorem("thm3_2i", ring, sample=100)
        assert rep.status == "verified"
        assert rep.counts["derivation_module_size"] == expected


def test_inflation_rank_option():
    rep = verify_theorem("lemma3_1", M2Z3, inflation_rank=2)
    assert rep.status == "verified"
    assert rep.counts["inflation_rank"] == 2
    rep_default = verify_theorem("lemma3_1", M2Z3)
    assert rep_default.counts["inflation_rank"] == 4  # defaults to the ring rank


def test_three_by_three_matrices_verify():
    ring = matrix_ring(3, zmod(3))
    rep = verify_theorem("thm3_2i", ring, sample=100)
    assert rep.status == "verified"
    assert rep.counts["derivation_module_size"] == 3**9 // 3
    # the structured schema family and the argument steps are built from
    # E = E11 and its complement, which is a sum of two units when n = 3
    rep = verify_theorem("thm2_1", ring, pair_mode="structured", sample=10)
    assert rep.status == "verified"
    assert rep.counts["pair_count"] == 2 * 9 + 7 * 81
