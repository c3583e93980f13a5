#!/usr/bin/env python3
"""Run the whole verification battery over the standard desk rings.

Usage:
    python scripts/run_theorems.py [--json out.json] [--pairs exhaustive]

Every procedure decides exactly: nothing is sampled.

Prints one line per (ring, result) pair and exits 1 if anything is falsified or
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from derivlab.identities import PAIR_MODES
from derivlab.rings import dual_numbers, matrix_ring, zmod
from derivlab.theorems import THEOREM_IDS, exit_status, verify_theorem

DESK_RINGS = [
    ("M2(Z/3)", matrix_ring(2, zmod(3))),
    ("M2(Z/5)", matrix_ring(2, zmod(5))),
    ("M2(Z/3[eps])", matrix_ring(2, dual_numbers(3))),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="also write all reports to this file")
    parser.add_argument("--pairs", choices=PAIR_MODES, default="structured")
    args = parser.parse_args(argv)

    all_reports = []
    for label, ring in DESK_RINGS:
        for tid in THEOREM_IDS:
            rep = verify_theorem(tid, ring, pair_mode=args.pairs)
            all_reports.append(rep)
            counts = " ".join(f"{k}={v}" for k, v in sorted(rep.counts.items()))
            extra = f" reason={rep.reason!r}" if rep.reason else ""
            print(f"{label:14s} {tid:10s} {rep.status:9s} "
                  f"{rep.elapsed_ms:7.0f}ms  {counts}{extra}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([r.to_json() for r in all_reports], fh, sort_keys=True, indent=2)
        print(f"wrote {len(all_reports)} reports to {args.json}")
    return exit_status(all_reports)


if __name__ == "__main__":
    sys.exit(main())
