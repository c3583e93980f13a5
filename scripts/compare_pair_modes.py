#!/usr/bin/env python3
"""Measure whether the structured pair mode quantifies over the same span as
the exhaustive pair set, per ring and per condition.

For a condition on pairs (a, b), the exact span W is spanned by the tensors
a (x) b of the pairs that meet it, built from the annihilator kernels: the
walk solves one kernel per orbit of the scalar units u of Z/mZ times
monomial conjugation phi (K_(u.phi(a)) = phi(K_a)), but builds tensors only
until they span the kernel of the condition's operator, which contains W.  The structural span is that kernel on A (x) A (ker mu,
ker(mu + mu.tau), and Sym ker[mu; mu.tau] for two-sided, with the exact
span symmetrised too).  Equal spans give equal solution modules in both pair
modes for every identity with that condition.  Equality is not claimed
anywhere; this script measures it, prints one row per ring and condition
with the Howell generator counts of both spans, and exits 1 when any pair of
spans differs.  By default it measures every ring inside the exhaustive
element budget, up to M2(Z/17) (83,521 elements).

Usage:
    python scripts/compare_pair_modes.py [--max-size 100000]
"""

from __future__ import annotations

import argparse
import sys
import time

from derivlab.rings import (
    CONDITIONS,
    EXHAUSTIVE_ELEMENT_BUDGET,
    dual_numbers,
    matrix_ring,
    ring_size,
    structural_and_exact_spans,
    trivial_extension,
    zmod,
)

CANDIDATE_RINGS = [
    ("M2(Z/3)", matrix_ring(2, zmod(3))),
    ("M2(Z/4)", matrix_ring(2, zmod(4))),
    ("M2(Z/5)", matrix_ring(2, zmod(5))),
    ("M2(Z/7)", matrix_ring(2, zmod(7))),
    ("M2(Z/9)", matrix_ring(2, zmod(9))),
    ("M2(Z/3[eps])", matrix_ring(2, dual_numbers(3))),
    ("T(M2(Z/3))", trivial_extension(matrix_ring(2, zmod(3)))),
    ("M3(Z/3)", matrix_ring(3, zmod(3))),
    ("M2(Z/15)", matrix_ring(2, zmod(15))),
    ("M2(Z/17)", matrix_ring(2, zmod(17))),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-size", type=int, default=EXHAUSTIVE_ELEMENT_BUDGET,
                        help="skip rings with more elements than this "
                             "(the exact span solves one annihilator kernel "
                             "per orbit of the scalar units times monomial "
                             "conjugation and builds tensors until they span "
                             "the structural kernel)")
    args = parser.parse_args(argv)

    print(f"{'ring':14s} {'condition':15s} {'structural':>10s} {'exact':>6s} "
          f"{'seconds':>8s} equal")
    unequal = 0
    for label, ring in CANDIDATE_RINGS:
        if ring_size(ring) > args.max_size:
            print(f"{label:14s} {'-':15s} skipped (size {ring_size(ring)})")
            continue
        for condition in CONDITIONS:
            start = time.perf_counter()
            structural, exact = structural_and_exact_spans(ring, condition)
            seconds = time.perf_counter() - start
            same = structural == exact
            unequal += not same
            print(f"{label:14s} {condition:15s} {len(structural.rows):10d} "
                  f"{len(exact.rows):6d} {seconds:8.2f} {same}")
    return 1 if unequal else 0


if __name__ == "__main__":
    sys.exit(main())
