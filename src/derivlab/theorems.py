"""End-to-end verification procedures, one per supported result.

Each procedure computes full solution modules, compares them as canonical
Howell forms and exercises the constructive decompositions on every
generator.  Generator-level verification is complete for the module-identity
conclusions because every conclusion checked here is linear in the map, and
the Howell form is unique per span, so two modules with equal canonical
generators are equal; nothing is sampled to test an equality already
decided.  The proof steps of ``thm2_1`` run on the star module's
generators too: each step asks whether Delta = D - I_m(D) lies in a solved
module, and m(D) is linear in D, so the steps hold on all of the module when
they hold on its generators.  Nothing is sampled.
Solution modules come from the per-process memo of
``identities.solve_counted``, which ``check`` reads as well, so no system is
assembled twice.

Reports are deterministic: identical inputs produce identical JSON except for
the elapsed-milliseconds field.  Falsification is a first-class outcome - a
failed module identity or decomposition surfaces as status "falsified" with a
serialized witness, and the test suite drives that path on purpose with a
corrupted identity table so it cannot rot.  Only guards (``GuardError``,
``EvenModulusError``) give "skipped"; any other exception gives "error" with
its type and message, so a bug never passes for a skip.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from .errors import EvenModulusError, GuardError, InternalVerificationError
from .identities import (
    IDENTITY_TERMS,
    PAIR_MODES,
    check,
    decompose_inner_plus_lifted,
    decompose_theorem21,
    decompose_trivial_extension,
    maps_from_module,
    peirce_component_check,
    right_multiplier_module,
    solve_all,
    solve_counted,
    verify_proof_steps,
)
from .linalg import module_equal
from .maps import right_multiplier
from .rings import (
    CONDITIONS,
    Bimodule,
    basis_elements,
    center_basis,
    one_element,
    ring_rank,
    ring_size,
    structural_and_exact_spans,
    trivial_extension,
)

_MODE_COMPARE_SIZE = 128


@dataclass
class TheoremReport:
    theorem_id: str
    ring: object
    status: str  # verified | falsified | skipped | error
    counts: dict = field(default_factory=dict)
    counterexample: dict | None = None
    reason: str | None = None
    seed: int = 0
    elapsed_ms: float = 0.0

    def to_json(self):
        return {
            "theorem_id": self.theorem_id,
            "ring": self.ring.to_json(),
            "status": self.status,
            "counts": self.counts,
            "counterexample": self.counterexample,
            "reason": self.reason,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
        }


class _Falsified(Exception):
    def __init__(self, counterexample):
        super().__init__("falsified")
        self.counterexample = counterexample


def _witness_from_check(fmap, kind):
    """The map with the witness ``check`` names for it.  Above the element
    budget the exhaustive scan is out of reach; the map then stands alone,
    with the reason, so a falsification is never reported as a skip.  The
    witness is the same whichever pair mode solved the module the map fell
    outside of (see ``check``)."""
    rep = check(fmap, kind)
    if rep.witness_unavailable:
        return {"map": fmap.to_json(), "witness_unavailable": rep.witness_unavailable}
    if rep.passed:
        return {"map": fmap.to_json()}
    return {**rep.to_json(), "map": fmap.to_json()}


def _containment_witness(sub, sup, sub_name, sup_name, ring, codomain, sup_kind):
    """Witness detail for the first generator of ``sub`` outside ``sup``,
    checked against the identity that defines ``sup``; None when sub is
    contained in sup."""
    for gen in maps_from_module(sub, ring, codomain):
        if not sup.contains(gen.to_flat()):
            detail = _witness_from_check(gen, sup_kind)
            detail["found_in"] = sub_name
            detail["missing_from"] = sup_name
            return detail
    return None


def _require_equal(s1, s2, name1, name2, ring, codomain, kind1, kind2):
    """Raise with a generator witnessing that two map-space modules differ."""
    if not module_equal(s1, s2):
        raise _Falsified(
            _containment_witness(s1, s2, name1, name2, ring, codomain, kind2)
            or _containment_witness(s2, s1, name2, name1, ring, codomain, kind1)
            or {"found_in": name1, "missing_from": name2}
        )


def verify_theorem(theorem_id, ring, *, pair_mode="structured", seed=0,
                   inflation_rank=None):
    """Run one verification procedure and return its report.

    Guard violations (wrong ring shape, even modulus, pair budget) surface as
    status "skipped" with the reason attached, never silently; any other
    exception surfaces as status "error".  An unknown theorem id or pair
    mode raises ``ValueError`` before anything runs.  ``seed`` is only
    copied into the report: no procedure reads it.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if pair_mode not in PAIR_MODES:
        raise ValueError(f"unknown pair mode {pair_mode!r}")
    start = time.perf_counter()
    report = TheoremReport(theorem_id, ring, "skipped", seed=seed)
    try:
        _dispatch(theorem_id, ring, report, pair_mode, inflation_rank)
        report.status = "verified"
    except _Falsified as exc:
        report.status = "falsified"
        report.counterexample = exc.counterexample
    except InternalVerificationError as exc:
        report.status = "falsified"
        payload = exc.payload
        report.counterexample = {
            "error": str(exc),
            "payload": payload.to_json() if hasattr(payload, "to_json") else repr(payload),
        }
    except (EvenModulusError, GuardError) as exc:
        report.status = "skipped"
        report.reason = str(exc)
    except Exception as exc:  # a bug or a broken precondition, never a skip
        report.status = "error"
        report.reason = f"{type(exc).__name__}: {exc}"
    report.elapsed_ms = (time.perf_counter() - start) * 1000.0
    return report


def _dispatch(theorem_id, ring, report, pair_mode, inflation_rank):
    if ring.m % 2 == 0:
        raise EvenModulusError(
            f"modulus not 2-torsion free (m={ring.m}); construct the ring for "
            "exploration, but the verification suite only runs over odd moduli"
        )
    _PROCEDURES[theorem_id](ring, report, pair_mode=pair_mode,
                            inflation_rank=inflation_rank)


def _need_matrix(ring):
    if ring.kind != "matrix":
        raise GuardError("this verification needs a matrix ring (use --n)")


def _compare_pair_modes(kind, ring, requested_mode):
    """(module, counts): the requested module with its counts, and in them
    ``structured_equals_exhaustive``, whether the structural span of the
    identity's condition equals the exact span (both symmetrised for
    two-sided; see ``rings.pair_span``), which makes the structured and
    exhaustive modules equal.

    Equality is measured, not assumed; the flag lands in the counts as 0/1
    when the comparison runs, which it does for pair conditions on rings of
    at most ``_MODE_COMPARE_SIZE`` elements (``scripts/compare_pair_modes.py``
    measures larger ones).
    """
    module, counts = solve_counted(kind, ring, pair_mode=requested_mode)
    quantifier = IDENTITY_TERMS[kind].quantifier
    if ring_size(ring) > _MODE_COMPARE_SIZE or quantifier not in CONDITIONS:
        return module, counts
    structural, exact = structural_and_exact_spans(ring, quantifier)
    return module, {**counts, "structured_equals_exhaustive": int(module_equal(structural, exact))}


def _verify_zero_product_decomposition(ring, report, *, pair_mode, **_):
    _need_matrix(ring)
    star, pair_counts = _compare_pair_modes("star", ring, pair_mode)
    deriv = solve_all("derivation", ring)
    center = center_basis(ring)
    shifted = deriv.sum_with(right_multiplier_module(ring, center))
    report.counts = {
        "star_module_size": star.size(),
        "derivation_module_size": deriv.size(),
        "center_size": center.size(),
        "proof_step_generators": len(star.rows),
        **pair_counts,
    }
    _require_equal(star, shifted, "zero_product_maps", "derivations_plus_central_multipliers",
                   ring, ring, "star", "derivation")
    for gen in maps_from_module(star, ring, ring):
        decompose_theorem21(gen)
        steps = verify_proof_steps(gen)
        if not steps.all_passed:
            raise _Falsified({"map": gen.to_json(), "steps": steps.to_json()})


def _verify_corrected_zero_product(ring, report, *, pair_mode, **_):
    _need_matrix(ring)
    starstar, pair_counts = _compare_pair_modes("star_star", ring, pair_mode)
    deriv = solve_all("derivation", ring)
    shifted = deriv.sum_with(right_multiplier_module(ring))
    report.counts = {
        "star_star_module_size": starstar.size(),
        "derivation_module_size": deriv.size(),
        **pair_counts,
    }
    _require_equal(starstar, shifted, "corrected_zero_product_maps",
                   "derivations_plus_multipliers", ring, ring,
                   "star_star", "derivation")


def _verify_inner_plus_lift(ring, report, **_):
    _need_matrix(ring)
    deriv = solve_all("derivation", ring)
    nonzero_base_parts = 0
    for gen in maps_from_module(deriv, ring, ring):
        d, _g = decompose_inner_plus_lifted(gen)
        if not d.is_zero():
            nonzero_base_parts += 1
    report.counts = {
        "derivation_module_size": deriv.size(),
        "generators": len(deriv.rows),
        "generators_with_nonzero_base_part": nonzero_base_parts,
    }


def _verify_nonunital_components(ring, report, *, inflation_rank, **_):
    _need_matrix(ring)
    extra = inflation_rank if inflation_rank else ring_rank(ring)
    bim = Bimodule.inflated(Bimodule.regular(ring), extra)
    jordan = solve_all("jordan", ring, bimodule=bim)
    derivation = solve_all("derivation", ring, bimodule=bim)
    report.counts = {
        "jordan_module_size": jordan.size(),
        "derivation_module_size": derivation.size(),
        "inflation_rank": extra,
    }
    for gen in maps_from_module(jordan, ring, bim):
        comp_report = peirce_component_check(gen)
        if not comp_report.all_passed:
            failing = [c.to_json() for c in comp_report.checks if not c.passed]
            raise _Falsified({"map": gen.to_json(), "component_checks": failing})
    _require_equal(jordan, derivation, "jordan_maps", "derivations",
                   ring, bim, "jordan", "derivation")


def _verify_collapse(ring, report, *, kind, target, **_):
    """The maps satisfying ``kind`` are exactly those satisfying ``target``."""
    _need_matrix(ring)
    source = solve_all(kind, ring)
    dest = solve_all(target, ring)
    report.counts = {
        f"{kind}_module_size": source.size(),
        f"{target}_module_size": dest.size(),
    }
    _require_equal(source, dest, f"{kind}_maps", f"{target}s", ring, ring, kind, target)


def _verify_one_sided_multiplier(ring, report, **_):
    _need_matrix(ring)
    phi = solve_all("phi", ring)
    center = center_basis(ring)
    multipliers = right_multiplier_module(ring, center)
    report.counts = {
        "one_sided_module_size": phi.size(),
        "central_multiplier_module_size": multipliers.size(),
        "center_size": center.size(),
    }
    _require_equal(phi, multipliers, "one_sided_jordan_maps", "central_right_multipliers",
                   ring, ring, "phi", "derivation")


def _verify_extension_jordan(ring, report, **_):
    ext = ring if ring.kind == "trivial_ext" else trivial_extension(ring)
    if ext.base.kind != "matrix":
        raise GuardError("the extension verification wraps a matrix ring")
    jordan = solve_all("jordan", ext)
    deriv = solve_all("derivation", ext)
    report.counts = {
        "jordan_module_size": jordan.size(),
        "derivation_module_size": deriv.size(),
        "extension_rank": ring_rank(ext),
    }
    _require_equal(jordan, deriv, "jordan_maps", "derivations",
                   ext, ext, "jordan", "derivation")
    # the split re-verifies the component conclusions on every generator and
    # raises InternalVerificationError when one fails
    for gen in maps_from_module(jordan, ext, ext):
        decompose_trivial_extension(gen)


def _verify_generalized_shift(ring, report, **_):
    gd = solve_all("generalized_derivation", ring)
    deriv = solve_all("derivation", ring)
    report.counts = {
        "generalized_derivation_module_size": gd.size(),
        "derivation_module_size": deriv.size(),
    }
    bim = Bimodule.regular(ring)
    one = one_element(ring)
    for gen in maps_from_module(gd, ring, ring):
        shifted = gen - right_multiplier(bim, gen.apply(one))
        rep = check(shifted, "derivation")
        if not rep.passed:
            raise _Falsified(_witness_from_check(shifted, "derivation"))
    shifts = [right_multiplier(bim, c.coords) for c in basis_elements(ring)]
    for gen in maps_from_module(deriv, ring, ring):
        for shift in shifts:
            lifted = gen + shift
            if not gd.contains(lifted.to_flat()):
                raise _Falsified(_witness_from_check(lifted, "generalized_derivation"))


def _verify_hypothesis_weakenings(ring, report, *, pair_mode, **_):
    _need_matrix(ring)
    star = solve_all("star", ring, pair_mode=pair_mode)
    anti = solve_all("remark_antizero", ring, pair_mode=pair_mode)
    onesided = solve_all("remark_abzero", ring, pair_mode=pair_mode)
    report.counts = {
        "star_module_size": star.size(),
        "anticommuting_module_size": anti.size(),
        "one_sided_zero_module_size": onesided.size(),
    }
    _require_equal(anti, star, "anticommuting_maps", "zero_product_maps",
                   ring, ring, "remark_antizero", "star")
    _require_equal(onesided, solve_all("derivation", ring), "one_sided_zero_maps",
                   "derivations", ring, ring, "remark_abzero", "derivation")


# theorem id -> procedure, in report order
_PROCEDURES = {
    "thm2_1": _verify_zero_product_decomposition,
    "thm2_2": _verify_corrected_zero_product,
    "cor2_3": _verify_inner_plus_lift,
    "lemma3_1": _verify_nonunital_components,
    "thm3_2i": partial(_verify_collapse, kind="jordan", target="derivation"),
    "thm3_2ii": partial(_verify_collapse, kind="generalized_jordan",
                        target="generalized_derivation"),
    "thm4_2": _verify_one_sided_multiplier,
    "thm4_4": _verify_extension_jordan,
    "remark1_1": _verify_generalized_shift,
    "remark1_2": _verify_hypothesis_weakenings,
}
THEOREM_IDS = tuple(_PROCEDURES)


def run_all(ring, theorem_ids=THEOREM_IDS, **options):
    return [verify_theorem(tid, ring, **options) for tid in theorem_ids]


def exit_status(reports):
    """CLI exit code: 1 when anything falsified or errored, else 0."""
    return 1 if any(r.status in ("falsified", "error") for r in reports) else 0
