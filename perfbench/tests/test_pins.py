"""Tests of the benchmark's own checking and trace arithmetic.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import pytest  # noqa: E402

import pins  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from derivlab import identities, rings  # noqa: E402
from derivlab.linalg import ResidueMatrix, SolutionModule  # noqa: E402

OP = "star@M2(Z/3)"


@pytest.fixture(scope="module")
def exhaustive_pins():
    return pins.load()["workloads"]["exhaustive"]


@pytest.fixture(scope="module")
def star_module():
    return identities.solve_all("star", rings.matrix_ring(2, rings.zmod(3)),
                                pair_mode="exhaustive")


def _payload(name, output):
    return {"outputs": {name: output}, "errors": {}}


def test_true_result_passes(exhaustive_pins, star_module):
    output = pins.summarize("module", star_module)
    assert run.check_pass(_payload(OP, output), exhaustive_pins) == {}


def test_sign_flipped_generator_row_is_a_failed_op(exhaustive_pins, star_module):
    gens = star_module.generators
    m = gens.modulus
    rows = gens.to_rows()
    rows[0] = [(-v) % m for v in rows[0]]
    corrupted = SolutionModule(m, star_module.ambient_rank, ResidueMatrix.from_rows(m, rows))
    failed = run.check_pass(_payload(OP, pins.summarize("module", corrupted)), exhaustive_pins)
    assert list(failed) == [OP]
    assert "digest" in failed[OP]


def test_wrong_module_size_is_a_failed_op(exhaustive_pins, star_module):
    output = dict(pins.summarize("module", star_module))
    output["size"] += 1
    failed = run.check_pass(_payload(OP, output), exhaustive_pins)
    assert list(failed) == [OP] and "size" in failed[OP]


def test_report_pins_status_and_unconditional_counts():
    battery = pins.load()["workloads"]["battery"]
    name = "thm3_2i@M2(Z/3)"
    good = {"status": "verified", "reason": None,
            "counts": dict(battery[name]["counts"], membership_samples=1000)}
    assert pins.check(battery[name], good) is None
    assert pins.check(battery[name], dict(good, status="skipped"))
    wrong = dict(good, counts=dict(good["counts"], jordan_module_size=81))
    assert "jordan_module_size" in pins.check(battery[name], wrong)


def test_remark1_2_is_pinned_to_the_exhaustive_truth():
    all_pins = pins.load()
    battery = all_pins["workloads"]["battery"]
    exhaustive = all_pins["workloads"]["exhaustive"]
    for label in ("M2(Z/3)", "M2(Z/5)"):
        truth = exhaustive[f"remark_abzero@{label}"]["size"]
        assert battery[f"remark1_2@{label}"]["counts"]["one_sided_zero_module_size"] == truth
    assert exhaustive["remark_abzero@M2(Z/3)"]["size"] == 27
    assert exhaustive["remark_abzero@M2(Z/5)"]["size"] == 125


def test_raised_op_is_a_failed_op():
    payload = {"outputs": {}, "errors": {OP: "raised ValueError: boom"}}
    assert run.check_pass(payload, {}) == {OP: "raised ValueError: boom"}


def test_self_times_and_uncovered_time_add_up_to_the_pass():
    names = ["solve_all", "constraint_system", "zero_product_pairs", "_howell"]
    spans = [
        (0, 1.0, 5.0, -1, 0),   # solve_all, 4 s, children cover 3.5 s
        (1, 1.5, 3.5, 0, 0),    # constraint_system, 2 s, child covers 1 s
        (2, 2.0, 3.0, 1, 0),    # zero_product_pairs, 1 s
        (3, 3.5, 5.0, 0, 0),    # _howell, 1.5 s
        (3, 6.0, 6.5, -1, 1),   # _howell at top level, 0.5 s
    ]
    doc = {"names": names, "spans": spans, "counts": {}, "absent": []}
    metrics = tracing.summarize(doc, 7.0, {}, ())
    assert metrics["identities.assemble_s"] == pytest.approx(0.5 + 1.0)
    assert metrics["rings.pairs_s"] == pytest.approx(1.0)
    assert metrics["linalg.howell_s"] == pytest.approx(2.0)
    assert metrics["trace.uncovered_s"] == pytest.approx(2.5)
    layers = sum(metrics[m] for m in tracing.SELF_TIME_METRICS if m in metrics)
    assert layers + metrics["trace.uncovered_s"] == pytest.approx(7.0)
