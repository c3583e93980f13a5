"""Span tracing of derivlab's layers from outside the package.

``install`` replaces selected public functions (and a few private helpers
that only feed counters) with wrappers that record one span per call:
name, start, end, parent span and op id.  Spans stay in memory and are
written out when the pass ends; ``summarize`` turns them into per-layer self
times.  A layer's self time is the time its spans cover minus the time their
child spans cover, so the layer self times plus the time no span covers add
up to the traced pass time.

Each wrapped name belongs to exactly one layer metric (``TARGETS``).  A name
that the package no longer has is skipped and reported as absent, so a later
refactor shows up as a missing metric rather than a crash.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from collections import Counter
from time import perf_counter

# (module, attribute or Class.attribute, layer metric that gets its self time)
TARGETS = (
    ("derivlab.rings", "zero_product_pairs", "rings.pairs_s"),
    ("derivlab.rings", "anti_commuting_pairs", "rings.pairs_s"),
    ("derivlab.rings", "left_zero_pairs", "rings.pairs_s"),
    ("derivlab.rings", "_scan_condition", "rings.pairs_s"),
    ("derivlab.rings", "_structured_schemas", "rings.pairs_s"),
    ("derivlab.maps", "AdditiveMap.apply", "maps.apply_s"),
    ("derivlab.maps", "AdditiveMap.from_flat", "maps.build_s"),
    ("derivlab.maps", "inner_derivation", "maps.build_s"),
    ("derivlab.maps", "right_multiplier", "maps.build_s"),
    ("derivlab.maps", "lift_map", "maps.build_s"),
    ("derivlab.identities", "maps_from_module", "maps.build_s"),
    ("derivlab.identities", "check", "identities.check_s"),
    ("derivlab.identities", "verify_proof_steps", "identities.proof_steps_s"),
    ("derivlab.identities", "decompose_theorem21", "identities.decompose_s"),
    ("derivlab.identities", "decompose_inner_plus_lifted", "identities.decompose_s"),
    ("derivlab.identities", "decompose_trivial_extension", "identities.decompose_s"),
    ("derivlab.identities", "peirce_component_check", "identities.decompose_s"),
    ("derivlab.identities", "solve_all", "identities.assemble_s"),
    ("derivlab.identities", "constraint_system", "identities.assemble_s"),
    ("derivlab.linalg", "solve_homogeneous", "linalg.howell_s"),
    ("derivlab.linalg", "solve_affine", "linalg.howell_s"),
    ("derivlab.linalg", "howell_form", "linalg.howell_s"),
    ("derivlab.linalg", "_howell", "linalg.howell_s"),
    ("derivlab.linalg", "SolutionModule.from_rows", "linalg.howell_s"),
    ("derivlab.linalg", "SolutionModule.sum_with", "linalg.howell_s"),
    ("derivlab.linalg", "ResidueMatrix.from_rows", "linalg.matrix_build_s"),
    ("derivlab.linalg", "SolutionModule.contains", "linalg.membership_s"),
    ("derivlab.linalg", "SolutionModule.random_element", "linalg.sample_s"),
    ("derivlab.theorems", "verify_theorem", "theorems.self_s"),
)

SELF_TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric in TARGETS))

# Span names whose call counts are reported, by metric.
CALL_COUNTS = {
    "rings.pairs_calls": ("zero_product_pairs", "anti_commuting_pairs", "left_zero_pairs"),
    "maps.apply_calls": ("AdditiveMap.apply",),
    "identities.check_calls": ("check",),
    "linalg.solve_calls": ("solve_homogeneous", "solve_affine"),
    "linalg.membership_calls": ("SolutionModule.contains",),
    "linalg.sample_calls": ("SolutionModule.random_element",),
}


class Tracer:
    """Spans and counters of one traced pass (single thread)."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span or -1, op id)
        self.stack = []
        self.op = -1
        self.counts = Counter()
        self.absent = []
        # Ticks once per candidate pair the exhaustive scan tests.
        self.scan_ticks = itertools.count()
        # Constraint matrix whose solve should report its Howell rank.
        self.pending_matrix = None
        self.rank_parent = None

    def wrap(self, name, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if before is not None:
                args = before(self, idx, args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.op)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def dump(self):
        counts = dict(self.counts)
        scanned = next(self.scan_ticks)
        if scanned:
            counts["rings.candidates"] = counts.get("rings.candidates", 0) + scanned
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": counts,
            "absent": self.absent,
        }


# ---------------------------------------------------------------------------
# Counter hooks.  `after` hooks run outside the callee's span, so their cost
# lands in the caller's self time.  The scan's counting `keep` adds one call
# and one C-level tick per candidate to the scan's own span.
# ---------------------------------------------------------------------------

def _after_pairs(tracer, args, kwargs, result):
    tracer.counts["rings.pairs_returned"] += len(result)


def _before_scan(tracer, idx, args):
    # Count every candidate product the exhaustive scan tests.
    desc, keep, *rest = args
    tick = tracer.scan_ticks.__next__

    def counted_keep(ab, ba):
        tick()
        return keep(ab, ba)

    return (desc, counted_keep, *rest)


def _after_schemas(tracer, args, kwargs, result):
    # Every instantiated schema is re-multiplied and checked.
    tracer.counts["rings.candidates"] += len(result)


def _after_constraint_system(tracer, args, kwargs, result):
    tracer.counts["identities.rows_raw"] += result.matrix.rows
    tracer.pending_matrix = result.matrix


def _before_solve(tracer, idx, args):
    if args and args[0] is tracer.pending_matrix:
        tracer.pending_matrix = None
        tracer.rank_parent = idx
    return args


def _after_howell(tracer, args, kwargs, result):
    # The first Howell call inside a constraint solve normalises the
    # deduplicated equations: its input size and output rank are the counts.
    if tracer.rank_parent is not None and tracer.stack and tracer.stack[-1] == tracer.rank_parent:
        tracer.rank_parent = None
        tracer.counts["identities.rows_unique"] += len(args[0])
        tracer.counts["identities.howell_rank"] += len(result)


def _after_from_rows(tracer, args, kwargs, result):
    tracer.counts["linalg.matrix_cells"] += result.rows * result.cols


HOOKS = {
    "zero_product_pairs": (None, _after_pairs),
    "anti_commuting_pairs": (None, _after_pairs),
    "left_zero_pairs": (None, _after_pairs),
    "_scan_condition": (_before_scan, None),
    "_structured_schemas": (None, _after_schemas),
    "constraint_system": (None, _after_constraint_system),
    "solve_homogeneous": (_before_solve, None),
    "solve_affine": (_before_solve, None),
    "_howell": (None, _after_howell),
    "ResidueMatrix.from_rows": (None, _after_from_rows),
}


def install(tracer):
    """Wrap every target that exists.  A function is replaced under every
    name that binds it in a derivlab module; a method on its class."""
    mods = [m for name, m in list(sys.modules.items())
            if name == "derivlab" or name.startswith("derivlab.")]
    for modname, attr, _metric in TARGETS:
        before, after = HOOKS.get(attr, (None, None))
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                tracer.absent.append(f"{modname}.{attr}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(attr, raw.__func__, before, after))
            else:
                wrapped = tracer.wrap(attr, raw, before, after)
            setattr(cls, meth, wrapped)
            continue
        original = getattr(module, attr, None)
        if original is None:
            tracer.absent.append(f"{modname}.{attr}")
            continue
        wrapped = tracer.wrap(attr, original, before, after)
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


METRIC_OF = {attr: metric for _modname, attr, metric in TARGETS}


def summarize(doc, pass_s, op_theorems, theorem_ids):
    """Per-layer metrics of one traced pass.

    ``doc`` is ``Tracer.dump()`` (possibly after a JSON round trip),
    ``pass_s`` the traced pass's wall time, ``op_theorems`` maps op id to the
    theorem id the op verifies, and ``theorem_ids`` lists the ids that get a
    ``theorems.<id>_s`` metric (inclusive time of their verify_theorem spans).
    """
    names = doc["names"]
    layer = [METRIC_OF[n] for n in names]
    spans = doc["spans"]
    covered_by_children = [0.0] * len(spans)
    for nid, t0, t1, parent, _op in spans:
        if parent >= 0:
            covered_by_children[parent] += t1 - t0
    absent = set(doc["absent"])
    metrics = {}
    for modname, attr, metric in TARGETS:
        if f"{modname}.{attr}" not in absent:
            metrics.setdefault(metric, 0.0)
    present = set(names)
    if "verify_theorem" in present:
        for tid in theorem_ids:
            metrics[f"theorems.{tid}_s"] = 0.0
    calls = Counter()
    top_level = 0.0
    for i, (nid, t0, t1, parent, op) in enumerate(spans):
        name = names[nid]
        dur = t1 - t0
        metrics[layer[nid]] += dur - covered_by_children[i]
        calls[name] += 1
        if parent < 0:
            top_level += dur
        if name == "verify_theorem" and op in op_theorems:
            metrics[f"theorems.{op_theorems[op]}_s"] += dur
    for metric, span_names in CALL_COUNTS.items():
        if any(n in present for n in span_names):
            metrics[metric] = sum(calls[n] for n in span_names)
    counts = doc["counts"]
    if "zero_product_pairs" in present:
        metrics["rings.pairs_returned"] = counts.get("rings.pairs_returned", 0)
        if counts.get("rings.candidates"):
            metrics["rings.pair_yield"] = (
                counts.get("rings.pairs_returned", 0) / counts["rings.candidates"]
            )
        else:
            metrics["rings.pair_yield"] = 0.0
    if "constraint_system" in present:
        raw = counts.get("identities.rows_raw", 0)
        metrics["identities.rows_raw"] = raw
        if "_howell" in present:
            metrics["identities.rows_unique"] = counts.get("identities.rows_unique", 0)
            metrics["identities.howell_rank"] = counts.get("identities.howell_rank", 0)
            metrics["identities.row_yield"] = (
                counts.get("identities.howell_rank", 0) / raw if raw else 0.0
            )
    if "ResidueMatrix.from_rows" in present:
        metrics["linalg.matrix_cells"] = counts.get("linalg.matrix_cells", 0)
    metrics["trace.uncovered_s"] = pass_s - top_level
    metrics["trace.spans"] = len(spans)
    return metrics
