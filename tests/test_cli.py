import json
import os
import subprocess
import sys

import pytest

from derivlab import identities
from derivlab.cli import run
from derivlab.maps import AdditiveMap, inner_derivation, right_multiplier, zero_map
from derivlab.rings import (
    Bimodule,
    dual_numbers,
    matrix_ring,
    matrix_unit,
    one_element,
    trivial_extension,
    zmod,
)

M2Z3 = matrix_ring(2, zmod(3))
REG = Bimodule.regular(M2Z3)


def test_verify_single_theorem(capsys):
    status = run(["verify", "--theorem", "thm3_2i", "--base", "zmod:3", "--n", "2"])
    out = capsys.readouterr().out
    assert status == 0
    assert "verified" in out


def test_verify_even_modulus_skips(capsys):
    status = run(["verify", "--theorem", "thm2_1", "--base", "zmod:2", "--n", "2"])
    out = capsys.readouterr().out
    assert status == 0
    assert "skipped" in out


def test_verify_json_output_parses(capsys):
    status = run(
        ["verify", "--theorem", "thm4_2", "--base", "zmod:3", "--n", "2", "--json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload[0]["theorem_id"] == "thm4_2"
    assert payload[0]["status"] == "verified"


def test_verify_all_on_m3_dual_numbers_matches_the_recorded_reports(capsys):
    # M3(Z/3[eps]) is the widest dual-number ring the suite verifies and the
    # one whose constraint systems repeat the most rows; one report a line,
    # keys sorted, ``elapsed_ms`` dropped
    status = run(["verify", "--theorem", "all", "--base", "dual:3", "--n", "3", "--json"])
    reports = json.loads(capsys.readouterr().out)
    for rep in reports:
        rep.pop("elapsed_ms")
    lines = "".join(json.dumps(rep, sort_keys=True) + "\n" for rep in reports)
    path = os.path.join(os.path.dirname(__file__), "verify_m3_dual3_reports.jsonl")
    with open(path, encoding="utf-8") as fh:
        assert lines == fh.read()
    assert status == 0


def test_solve_writes_basis_and_checks_round_trip(tmp_path, capsys):
    out_file = tmp_path / "basis.json"
    status = run(
        [
            "solve", "--kind", "star", "--base", "zmod:3", "--n", "2",
            "--pairs", "exhaustive", "--out", str(out_file),
        ]
    )
    capsys.readouterr()
    assert status == 0
    payload = json.loads(out_file.read_text())
    assert payload["size"] == 81
    assert payload["pair_count"] == 225
    for map_json in payload["maps"]:
        map_file = tmp_path / "gen.json"
        map_file.write_text(json.dumps(map_json))
        rc = run(["check", "--input", str(map_file), "--kind", "star"])
        assert rc == 0
        assert "passed" in capsys.readouterr().out


def test_check_inner_derivation_passes(tmp_path, capsys):
    inner = inner_derivation(REG, matrix_unit(M2Z3, 1, 2).coords)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(inner.to_json()))
    status = run(["check", "--input", str(path), "--kind", "derivation"])
    assert status == 0
    assert "passed" in capsys.readouterr().out


def test_check_failure_exits_one_and_prints_witness(tmp_path, capsys):
    rmap = right_multiplier(REG, one_element(M2Z3).coords)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(rmap.to_json()))
    status = run(["check", "--input", str(path), "--kind", "derivation"])
    out = capsys.readouterr().out
    assert status == 1
    assert "failed" in out and "witness" in out


def test_decompose_zero_product_method(tmp_path, capsys):
    inner = inner_derivation(REG, matrix_unit(M2Z3, 2, 1).coords)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(inner.to_json()))
    out_file = tmp_path / "trace.json"
    status = run(
        ["decompose", "--input", str(path), "--method", "zero-product",
         "--out", str(out_file)]
    )
    capsys.readouterr()
    assert status == 0
    trace = json.loads(out_file.read_text())
    assert trace["central"] == [0, 0, 0, 0]
    delta = AdditiveMap.from_json(trace["delta"])
    assert delta.matrix == inner.matrix


def test_decompose_inner_lifted_method(tmp_path, capsys):
    md = matrix_ring(2, dual_numbers(3))
    inner = inner_derivation(Bimodule.regular(md), (1, 0, 2, 0, 0, 1, 0, 0))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(inner.to_json()))
    status = run(["decompose", "--input", str(path), "--method", "inner-lifted", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["base_map"]["matrix"]["data"] == [0] * 4
    assert payload["inner_element"] == [0, 0, 2, 0, 0, 1, 2, 0]


def test_decompose_internal_verification_error_exits_1(tmp_path, capsys, monkeypatch):
    # a zero I_G makes the inner-plus-lift support check fire on I_E12
    monkeypatch.setattr(identities, "inner_derivation", lambda bim, g: zero_map(bim.ring, bim))
    inner = inner_derivation(REG, matrix_unit(M2Z3, 1, 2).coords)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(inner.to_json()))
    status = run(["decompose", "--input", str(path), "--method", "inner-lifted"])
    err = capsys.readouterr().err
    assert status == 1
    assert "internal verification failed: remainder is not entrywise supported" in err
    assert "payload: (0, 0, (0, 1, 0, 0))" in err


def test_decompose_extension_components(tmp_path, capsys):
    ext = trivial_extension(M2Z3)
    inner = inner_derivation(Bimodule.regular(ext), (1, 0, 0, 1, 0, 2, 0, 0))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(inner.to_json()))
    status = run(["decompose", "--input", str(path), "--method",
                  "extension-components", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["mixed_component_zero"] is True
    assert len(payload["components"]) == 4


def test_solve_on_trivial_extension_flag(capsys):
    status = run(["solve", "--kind", "jordan", "--base", "zmod:3", "--n", "2",
                  "--trivial-ext", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["ring"]["kind"] == "trivial_ext"
    assert payload["size"] == 2187


def test_decompose_proof_steps(tmp_path, capsys):
    inner = inner_derivation(REG, matrix_unit(M2Z3, 2, 1).coords)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(inner.to_json()))
    status = run(["decompose", "--input", str(path), "--method", "proof-steps"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.count("pass") == 8


M2Z2 = matrix_ring(2, zmod(2))


@pytest.mark.parametrize("fmap, reason", [
    (AdditiveMap.from_flat(M2Z2, Bimodule.regular(M2Z2), (0, 1) + (0,) * 14), "m=2"),
    (AdditiveMap.from_flat(M2Z3, Bimodule.inflated(REG, 2), (0,) * 16 + (1,) + (0,) * 7),
     "unital codomain"),
], ids=["even modulus", "non-unital codomain"])
def test_proof_steps_outside_the_hypotheses_are_usage_errors(fmap, reason, tmp_path, capsys):
    # both maps meet the zero-product condition; the first lies outside
    # Der + central multipliers of M2(Z/2), and each once printed a failing
    # step and exited 0
    path = tmp_path / "map.json"
    path.write_text(json.dumps(fmap.to_json()))
    for method in ("proof-steps", "zero-product"):
        assert run(["decompose", "--input", str(path), "--method", method]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err


def test_failing_proof_step_exits_one(tmp_path, capsys, monkeypatch):
    # corner_ee with its second term's sign flipped asks 2.Delta(EaE) = 0,
    # which the identity map (Delta = D, as its corner element is 0) fails
    step, spec = identities._PROOF_STEPS[0]
    (coef, *words), *rest = spec.terms[1:]
    flipped = identities.IdentitySpec(spec.tag, (spec.terms[0], (-coef, *words), *rest),
                                      spec.quantifier)
    monkeypatch.setattr(identities, "_PROOF_STEPS",
                        ((step, flipped),) + identities._PROOF_STEPS[1:])
    path = tmp_path / "map.json"
    path.write_text(json.dumps(right_multiplier(REG, one_element(M2Z3).coords).to_json()))
    assert run(["decompose", "--input", str(path), "--method", "proof-steps"]) == 1
    out = capsys.readouterr().out
    assert "step 1: FAIL" in out and out.count("pass") == 7


def test_pairs_subcommand(capsys):
    status = run(["pairs", "--base", "zmod:3", "--n", "2", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["mode"] == "exhaustive"
    assert payload["count"] == 225
    assert len(payload["pairs"]) == 225


def test_malformed_flags_exit_two(capsys):
    assert run(["solve", "--kind", "bogus", "--base", "zmod:3", "--n", "2"]) == 2
    assert run(["verify", "--base", "nonsense"]) == 2
    assert run(["verify", "--threads", "4"]) == 2
    assert run(["verify", "--compare-modes"]) == 2
    assert run(["nonexistent-subcommand"]) == 2


@pytest.mark.parametrize("command", [
    ["check", "--kind", "star", "--input", "map.json"],
    ["decompose", "--method", "zero-product", "--input", "map.json"],
    ["pairs", "--n", "2"],
])
def test_pair_mode_is_a_solve_option_only(command, capsys):
    # check and decompose read the structured module whatever the mode (it
    # lies inside the exhaustive one), and pairs lists exhaustive pairs only
    for mode in ("structured", "exhaustive"):
        assert run(command + ["--pairs", mode]) == 2
        assert "--pairs" in capsys.readouterr().err


def test_check_above_the_budget_fails_without_a_witness(tmp_path, capsys):
    # membership decides that the map fails; only the witness scan is out of
    # reach on M2(Z/101), so check reports the reason and exits 1, not 2
    big = matrix_ring(2, zmod(101))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(right_multiplier(Bimodule.regular(big),
                                                matrix_unit(big, 1, 2).coords).to_json()))
    assert run(["check", "--kind", "star", "--input", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "failed"
    assert out[1].startswith("witness unavailable: ") and "budget" in out[1]
    assert run(["check", "--kind", "star", "--input", str(path), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is False and payload["witness"] is None
    assert "budget" in payload["witness_unavailable"]


def test_verify_sample_flag_is_a_usage_error(capsys):
    # thm2_1 runs its proof steps on every star generator; no flag samples
    assert run(["verify", "--theorem", "thm2_1", "--n", "2", "--sample", "5"]) == 2
    assert "--sample" in capsys.readouterr().err


def test_negative_inflation_rank_is_a_usage_error(capsys):
    args = ["verify", "--theorem", "lemma3_1", "--n", "2", "--json", "--inflation-rank"]
    assert run(args + ["-2"]) == 2
    assert "--inflation-rank" in capsys.readouterr().err
    # 0 keeps the default, the ring rank; a positive rank is used as given
    for text, rank in (("0", 4), ("2", 2)):
        assert run(args + [text]) == 0
        report, = json.loads(capsys.readouterr().out)
        assert (report["status"], report["counts"]["inflation_rank"]) == ("verified", rank)


@pytest.mark.parametrize("command", [
    ["verify", "--theorem", "thm3_2i"], ["solve", "--kind", "jordan"], ["pairs"]])
def test_matrix_size_below_two_is_a_usage_error(command, capsys):
    # --n 0 once fell through to the base ring and exited 0
    for n in ("0", "1", "-2"):
        assert run(command + ["--base", "zmod:3", "--n", n]) == 2, n
        assert "n >= 2" in capsys.readouterr().err, n


@pytest.mark.parametrize("command", [
    ["solve", "--kind", "derivation", "--n", "2"],
    ["check", "--kind", "derivation", "--input", "map.json"],
    ["decompose", "--method", "zero-product", "--input", "map.json"],
    ["pairs", "--n", "2"],
    ["verify", "--n", "2"],
])
def test_seed_is_no_option(command, capsys):
    # nothing is sampled; verify once took --seed for thm2_1's proof-step
    # samples, and the other commands once accepted it and ignored it
    assert run(command + ["--seed", "7"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_missing_input_file_exits_two(capsys):
    assert run(["check", "--input", "/nonexistent/map.json", "--kind", "jordan"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def _set(path, value):
    """An edit of a map's JSON: put ``value`` at ``path`` (None: delete)."""
    def edit(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        if value is None:
            del obj[last]
        else:
            obj[last] = value
    return edit


MALFORMED_MAPS = {
    # a float residue once read as a map outside every module, so check
    # reported "internal verification failed", the outcome of a counterexample
    "float residue": _set(("matrix", "data", 3), 1.5),
    "bool residue": _set(("matrix", "data", 3), True),
    "float matrix size": _set(("domain", "n"), 2.0),
    "string row count": _set(("matrix", "rows"), "4"),
    "missing data": _set(("matrix", "data"), None),
    "list domain": _set(("domain",), [2]),
}


@pytest.mark.parametrize("edit", MALFORMED_MAPS.values(), ids=MALFORMED_MAPS)
@pytest.mark.parametrize("command", [
    ["check", "--kind", "derivation"],
    ["decompose", "--method", "zero-product"],
])
def test_malformed_map_file_is_a_usage_error(edit, command, tmp_path, capsys):
    obj = zero_map(M2Z3, M2Z3).to_json()
    edit(obj)
    with pytest.raises(ValueError):
        AdditiveMap.from_json(obj)
    path = tmp_path / "map.json"
    path.write_text(json.dumps(obj))
    assert run(command + ["--input", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "internal verification" not in err


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "derivlab", "verify", "--theorem", "thm3_2i",
         "--base", "zmod:3", "--n", "2"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "verified" in proc.stdout
