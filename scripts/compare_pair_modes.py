#!/usr/bin/env python3
"""Measure whether the structured pair schemas cut out the same solution
modules as the exhaustive zero-product pair set.

The structured family is the exact list of pair shapes consumed by the
corner-peeling argument, instantiated over module basis elements only.  That
instantiation is *not* claimed to be equivalent to the full pair set anywhere;
this script reports the comparison empirically per ring and per conditional
kind.

Usage:
    python scripts/compare_pair_modes.py [--max-size 6561]
"""

from __future__ import annotations

import argparse
import sys

from derivlab.linalg import module_equal
from derivlab.identities import solve_all
from derivlab.rings import dual_numbers, matrix_ring, ring_size, zmod

CANDIDATE_RINGS = [
    ("M2(Z/3)", matrix_ring(2, zmod(3))),
    ("M2(Z/5)", matrix_ring(2, zmod(5))),
    ("M2(Z/7)", matrix_ring(2, zmod(7))),
    ("M2(Z/9)", matrix_ring(2, zmod(9))),
    ("M2(Z/3[eps])", matrix_ring(2, dual_numbers(3))),
    ("M3(Z/3)", matrix_ring(3, zmod(3))),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=6561,
                        help="skip rings with more elements than this "
                             "(exhaustive mode solves one annihilator kernel "
                             "per element)")
    args = parser.parse_args(argv)

    print(f"{'ring':14s} {'kind':10s} {'structured':>11s} {'exhaustive':>11s} equal")
    for label, ring in CANDIDATE_RINGS:
        if ring_size(ring) > args.max_size:
            print(f"{label:14s} {'-':10s} skipped (size {ring_size(ring)})")
            continue
        for kind in ("star", "star_star"):
            structured = solve_all(kind, ring, pair_mode="structured")
            exhaustive = solve_all(kind, ring, pair_mode="exhaustive")
            same = module_equal(structured, exhaustive)
            print(f"{label:14s} {kind:10s} {structured.size():11d} "
                  f"{exhaustive.size():11d} {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
