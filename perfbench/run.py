"""derivlab benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 44 --trace 0

Closed loop, one client: passes run one after another, each in a fresh
interpreter, so caches filled inside a pass count toward that pass and
nothing carries over.  A pass starts only when it is predicted to end
within ``--seconds`` of the run's start (the first always starts).  Every
result is checked against ``pins.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see README.md).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pins  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0
THEOREM_IDS = ("thm2_1", "thm2_2", "cor2_3", "lemma3_1", "thm3_2i", "thm3_2ii",
               "thm4_2", "thm4_4", "remark1_1", "remark1_2")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def src_lines():
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "derivlab", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def spawn(workload, seed, mode, deadline, spans=None):
    """Run one_pass.py; return (set-up seconds, final JSON payload or None)."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} pass exceeded the run deadline") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass failed (exit {proc.returncode}):\n{err.strip()[-3000:]}")
    setup_s = json.loads(lines[0])["ready"] - start
    payload = json.loads(lines[-1]) if mode != "setup" else None
    return setup_s, payload


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def check_pass(payload, workload_pins):
    """Map of failed op name -> reason for one pass."""
    failed = dict(payload["errors"])
    for name, output in payload["outputs"].items():
        reason = pins.check(workload_pins.get(name), output)
        if reason:
            failed[name] = reason
    return failed


def run(workload, seed, seconds, trace):
    """Set-up probes, then passes while the next one is predicted to end
    within ``seconds`` (at least one pass; with tracing, one of each kind)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    started = time.monotonic()
    setups = [spawn(workload, seed, "setup", deadline)[0] for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    out_dir = os.path.join(HERE, "out")
    if trace:
        os.makedirs(out_dir, exist_ok=True)
    longest = 0.0
    while True:
        mode = "traced" if trace and len(traced) < len(untraced) else "pass"
        spans = None
        if mode == "traced":
            spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}-{len(traced)}.json")
        pass_started = time.monotonic()
        setup_s, payload = spawn(workload, seed, mode, deadline, spans)
        longest = max(longest, time.monotonic() - pass_started)
        setups.append(setup_s)
        payload["spans"] = spans
        (traced if mode == "traced" else untraced).append(payload)
        complete = traced if trace else untraced
        if complete and time.monotonic() - started + longest > seconds:
            break
    return setups, untraced, traced


def fmt(value):
    return f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("battery", "exhaustive", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "derivlab", "__init__.py")):
        print(f"no derivlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    all_pins = pins.load()
    workload_pins = all_pins["workloads"][args.workload]
    known_defects = all_pins["known_defects"].get(args.workload, {})
    try:
        setups, untraced, traced = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    ops_per_pass = len(passes[0]["op_ms"])
    attempted = ops_per_pass * len(passes)
    failures = {}
    failed = 0
    for payload in passes:
        for name, reason in check_pass(payload, workload_pins).items():
            failures.setdefault(name, reason)
            failed += 1
    correct = set(failures) <= set(known_defects)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced + {len(traced)} traced passes of {ops_per_pass} ops, "
          f"{len(setups)} set-ups; untraced pass_s "
          + " ".join(fmt(p["pass_s"]) for p in untraced))
    print("info " + json.dumps({
        "src_lines": src_lines(), "seed": args.seed, "python": platform.python_version(),
        "nproc": os.cpu_count(), "workload": args.workload,
    }))
    print(f"failed_ops_ratio {failed}/{attempted} = {fmt(failed / attempted)} ratio")
    for name, reason in sorted(failures.items()):
        tag = " [known defect]" if name in known_defects else ""
        print(f"  failed op {name}{tag}: {reason}")

    pass_times = [p["pass_s"] for p in untraced]
    if args.trace:
        metrics = traced_metrics(traced, statistics.mean(pass_times))
    else:
        # Each op's latency is its mean over the run's passes, like pass_s;
        # ranking single samples let host noise reorder neighbouring ops.
        by_op = {}
        for p in untraced:
            for name, ms in p["op_ms"]:
                by_op.setdefault(name, []).append(ms)
        op_ms = [statistics.mean(v) for v in by_op.values()]
        p90 = quantile(op_ms, 0.90)
        per_op = f"{len(op_ms)} ops, each a mean of {len(untraced)} passes"
        metrics = {
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
            # With two or three passes a run, their mean uses all the measured
            # work; the median across runs is left to the comparison.
            "pass_s": (statistics.mean(pass_times), "s", f"mean of {len(pass_times)} passes"),
            "op_ms_p50": (statistics.median(op_ms), "ms", per_op),
            "op_ms_p90": (p90, "ms", f"{per_op}; {sum(1 for v in op_ms if v > p90)} above"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB",
                            f"median of {len(untraced)} passes"),
        }
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:28s} {fmt(value):>12s} {unit:6s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in metrics.items()},
    }))
    return 0


UNITS = {"_s": "s", "_calls": "count", "_returned": "count", "_raw": "count",
         "_unique": "count", "_rank": "count", "_cells": "count", ".spans": "count",
         "_yield": "ratio"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def traced_metrics(traced, untraced_pass):
    """Per-layer metrics (medians over the traced passes, pass times as means
    like ``pass_s``); prints the layer table of the first traced pass."""
    summaries = []
    for payload in traced:
        with open(payload["spans"], encoding="utf-8") as fh:
            doc = json.load(fh)
        op_theorems = {i: op["theorem"] for i, op in enumerate(doc["ops"]) if op["theorem"]}
        summaries.append(tracing.summarize(doc, payload["pass_s"], op_theorems, THEOREM_IDS))
    layers = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    traced_pass = statistics.mean(p["pass_s"] for p in traced)
    layers["trace.pass_s"] = traced_pass
    layers["trace.untraced_pass_s"] = untraced_pass
    layers["trace.overhead_s"] = traced_pass - untraced_pass

    first, first_pass = summaries[0], traced[0]["pass_s"]
    self_times = {name: first[name] for name in tracing.SELF_TIME_METRICS if name in first}
    print(f"layer self times of traced pass 0 ({fmt(first_pass)} s):")
    rows = sorted(self_times.items(), key=lambda kv: -kv[1])
    for name, value in rows + [("(no span)", first["trace.uncovered_s"])]:
        print(f"  {name:28s} {fmt(value):>12s} s  {100 * value / first_pass:5.1f}%")
    total = sum(self_times.values()) + first["trace.uncovered_s"]
    print(f"  self times + no-span time = {fmt(total)} s; traced pass_s = {fmt(first_pass)} s")
    print(f"largest layer by self time: {rows[0][0]}")
    print(f"tracing overhead: {fmt(layers['trace.overhead_s'])} s "
          f"(traced mean {fmt(traced_pass)} s - untraced mean {fmt(untraced_pass)} s)")
    if doc["absent"]:
        print("absent wrapped names (no metric): " + ", ".join(doc["absent"]))
    return {name: (value, unit_of(name), "") for name, value in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
