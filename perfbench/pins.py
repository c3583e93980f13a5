"""Correctness pins: what any correct implementation must return per op.

Module ops (``exhaustive`` and ``wide``) pin the module size and a digest of
the canonical Howell generators.  Report ops (``battery``) pin status
``verified`` and only counts that come from unconditional (basis-pair)
solves, plus ``one_sided_zero_module_size`` of ``remark1_2`` where the
exhaustive truth is known.  Counts that legitimately change with the pair
strategy (``pair_count``, ``structured_equals_exhaustive``) are not pinned.
Membership ops pin that every drawn element is a member.

This module does not import derivlab: ``summarize`` reads results through
their public methods only, so it also runs on hand-made corrupted values.
"""

from __future__ import annotations

import hashlib
import json
import os

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def module_digest(module):
    """SHA-256 over modulus, ambient rank and generator rows."""
    obj = module.to_json()
    gens = obj["generators"]
    cols = gens["cols"]
    data = gens["data"]
    rows = [data[i:i + cols] for i in range(0, len(data), cols)]
    text = json.dumps([obj["modulus"], obj["ambient_rank"], rows], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(kind, result):
    """The checkable part of one op's result, as plain JSON values."""
    if kind == "module":
        return {"size": result.size(), "digest": module_digest(result)}
    if kind == "report":
        return {"status": result.status, "counts": result.counts, "reason": result.reason}
    if kind == "membership":
        return {"contained": result}
    raise ValueError(f"unknown op kind {kind!r}")


def check(pin, output):
    """None when ``output`` satisfies ``pin``, else the reason it does not."""
    if pin is None:
        return "no pin for this op"
    problems = []
    for key in ("size", "digest", "status", "contained"):
        if key in pin and output.get(key) != pin[key]:
            problems.append(f"{key} {output.get(key)!r} != pinned {pin[key]!r}")
    counts = output.get("counts") or {}
    for key, want in pin.get("counts", {}).items():
        if counts.get(key) != want:
            problems.append(f"{key} {counts.get(key)!r} != pinned {want!r}")
    return "; ".join(problems) or None
