"""One pass of a workload in a fresh interpreter (started by run.py).

Prints a JSON line with the monotonic time at which set-up finished (derivlab
imported, ring descriptors and ops built), then runs every op once, timing
each, and prints a JSON line with the pass time, op times, peak memory and a
checkable summary of every result.  ``--mode setup`` stops after set-up;
``--mode traced`` installs the span wrappers after set-up and writes the
spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import derivlab

    if not os.path.abspath(derivlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"derivlab imported from {derivlab.__file__}, not from {SRC}")
    import pins
    import workloads

    ops = workloads.build(args.workload, args.seed)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = {}
    errors = {}
    op_ms = []
    pass_start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            results[op.name] = op.call(results)
        except Exception as exc:  # a failing op is a result to count, not a crash
            errors[op.name] = f"raised {type(exc).__name__}: {exc}"
        op_ms.append((op.name, (time.perf_counter() - t0) * 1000.0))
    pass_s = time.perf_counter() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = {}
    for op in ops:
        if op.name in errors:
            continue
        try:
            outputs[op.name] = pins.summarize(op.kind, results[op.name])
        except Exception as exc:  # an unreadable result is a wrong result
            errors[op.name] = f"result unreadable: {type(exc).__name__}: {exc}"

    if tracer is not None:
        doc = tracer.dump()
        doc["ops"] = [{"name": op.name, "theorem": op.theorem} for op in ops]
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    print(json.dumps({
        "pass_s": pass_s,
        "op_ms": op_ms,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
        "errors": errors,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
