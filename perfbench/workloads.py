"""The benchmark's workloads: the ops of one pass, built from a seed.

Workloads call only ``verify_theorem``, ``solve_all``, the ring constructors
and ``SolutionModule`` methods, and pass no tuning option, so they keep
working when options such as ``threads`` or ``compare_modes`` go away.
Library functions are looked up on their module at call time, so wrappers
installed by the tracer after set-up are the ones called.

The seed fixes every random input: the ``seed`` given to ``verify_theorem``
on ``battery`` and the module elements drawn for the membership batches on
``wide``.  ``exhaustive`` has no random input.  Op order is fixed, because
it decides which modules are alive together and so the peak memory.  Rings
alternate within each workload, so the short ops, which set the median
latency, are spread over the pass instead of sampling one stretch of it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from derivlab import identities, rings, theorems

MEMBERSHIP_DRAWS = 1000


def _rings():
    z3, z5, z9 = rings.zmod(3), rings.zmod(5), rings.zmod(9)
    d3 = rings.dual_numbers(3)
    return {
        "M2(Z/3)": rings.matrix_ring(2, z3),
        "M2(Z/5)": rings.matrix_ring(2, z5),
        "M2(Z/3[eps])": rings.matrix_ring(2, d3),
        "T(M2(Z/3[eps]))": rings.trivial_extension(rings.matrix_ring(2, d3)),
        "M3(Z/3[eps])": rings.matrix_ring(3, d3),
        "M3(Z/9)": rings.matrix_ring(3, z9),
    }


@dataclass
class Op:
    """One timed op.  ``call`` takes the results of the ops before it, by
    name, which only the membership batches read."""

    name: str
    call: Callable
    kind: str  # report | module | membership
    theorem: str | None = None


def _battery(ring_of, seed):
    ops = []
    for tid in theorems.THEOREM_IDS:
        for label in ("M2(Z/3)", "M2(Z/3[eps])", "M2(Z/5)"):
            ring = ring_of[label]
            ops.append(Op(
                f"{tid}@{label}",
                lambda results, tid=tid, ring=ring: theorems.verify_theorem(tid, ring, seed=seed),
                "report",
                theorem=tid,
            ))
    return ops


_EXHAUSTIVE = (
    ("star", ("M2(Z/3)", "M2(Z/5)")),
    ("star_star", ("M2(Z/3)", "M2(Z/5)")),
    ("remark_antizero", ("M2(Z/3)",)),
    ("remark_abzero", ("M2(Z/3)", "M2(Z/5)")),
)


def _exhaustive(ring_of, seed):
    ops = []
    for kind, labels in _EXHAUSTIVE:
        for label in labels:
            ring = ring_of[label]
            ops.append(Op(
                f"{kind}@{label}",
                lambda results, kind=kind, ring=ring: identities.solve_all(
                    kind, ring, pair_mode="exhaustive"),
                "module",
            ))
    return ops


_WIDE_RINGS = ("T(M2(Z/3[eps]))", "M3(Z/3[eps])", "M3(Z/9)")
_WIDE_KINDS = ("derivation", "jordan", "generalized_derivation", "generalized_jordan", "phi")
# Each Jordan-type module is tested against its derivation-type partner.
_PARTNERS = (("jordan", "derivation"), ("generalized_jordan", "generalized_derivation"))


def _membership_batch(source, target, rng):
    """Draw elements of `source` and count those that `target` contains."""
    vectors = [source.random_element(rng) for _ in range(MEMBERSHIP_DRAWS)]
    return sum(1 for v in vectors if target.contains(v))


def _wide(ring_of, seed):
    solves = []
    for label in _WIDE_RINGS:
        ring = ring_of[label]
        for kind in _WIDE_KINDS:
            solves.append(Op(
                f"{kind}@{label}",
                lambda results, kind=kind, ring=ring: identities.solve_all(kind, ring),
                "module",
            ))
    batches = []
    for label in _WIDE_RINGS:
        for source, target in _PARTNERS:
            name = f"contains:{source}->{target}@{label}"
            batches.append(Op(
                name,
                lambda results, source=f"{source}@{label}", target=f"{target}@{label}",
                draw_rng=random.Random(f"{seed}:{name}"): _membership_batch(
                    results[source], results[target], draw_rng),
                "membership",
            ))
    return solves + batches


_BUILDERS = {"battery": _battery, "exhaustive": _exhaustive, "wide": _wide}


def build(workload, seed):
    """Ring descriptors and op list of one pass; this is the timed set-up."""
    return _BUILDERS[workload](_rings(), seed)
