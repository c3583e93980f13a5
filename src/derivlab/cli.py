"""Command-line front end.

Subcommands:

  verify     run a verification procedure (or all of them) over a ring
  solve      compute the canonical module of maps satisfying an identity kind
  check      test one serialized map against an identity kind
  decompose  run a constructive decomposition on a serialized map
  pairs      enumerate conditional pair sets (exhaustive mode only)

Rings are assembled from flags: ``--base zmod:M | dual:M`` picks the base,
``--n N`` wraps it into the N x N matrix ring, ``--trivial-ext`` wraps that
once more into the square-zero extension.  ``--pairs`` picks the pair mode
of a solve, so only ``verify`` and ``solve`` take it.  Structured mode is the
default (exhaustive mode solves one annihilator kernel per orbit of the
scalar units u of Z/mZ times monomial conjugation phi, as
K_(u.phi(a)) = phi(K_a), and builds pair tensors until they span the
structural kernel; its cost still grows with ring size).  ``check`` and
``decompose`` need no mode: the structured module lies inside the exhaustive
one, and a map outside it gets its witness from the exhaustive scan either
way.  ``pairs`` lists the exhaustive pair sets, as structured mode
quantifies over a span, not a pair list.  Nothing is sampled, so no command
takes a seed.
Exit codes: 0 on success or skip, 1 when a verification is falsified or ends
in error or a check or proof step fails (also a failing check whose witness
is over the element budget), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import GuardError, InternalVerificationError, PreconditionError
from .identities import (
    IDENTITY_KINDS,
    PAIR_MODES,
    check,
    decompose_inner_plus_lifted,
    decompose_theorem21,
    decompose_trivial_extension,
    maps_from_module,
    solve_counted,
    verify_proof_steps,
)
from .maps import AdditiveMap
from .rings import (
    anti_commuting_pairs,
    dual_numbers,
    left_zero_pairs,
    matrix_ring,
    ring_rank,
    ring_size,
    trivial_extension,
    zero_product_pairs,
    zmod,
)
from .theorems import THEOREM_IDS, exit_status, run_all, verify_theorem

# pairs --condition -> listing
_PAIR_LISTINGS = {
    "zero-product": zero_product_pairs,
    "anticommuting": anti_commuting_pairs,
    "one-sided-zero": left_zero_pairs,
}


def _parse_base(text):
    try:
        kind, mod = text.split(":")
        m = int(mod)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected zmod:M or dual:M, got {text!r}"
        ) from None
    if kind == "zmod":
        return zmod(m)
    if kind == "dual":
        return dual_numbers(m)
    raise argparse.ArgumentTypeError(f"unknown base kind {kind!r}")


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {value}")
    return value


def _ring_from_args(args):
    ring = args.base
    if args.n is not None:  # matrix_ring refuses n < 2, a usage error
        ring = matrix_ring(args.n, ring)
    if args.trivial_ext:
        ring = trivial_extension(ring)
    return ring


def _add_ring_flags(parser):
    parser.add_argument("--base", type=_parse_base, default=zmod(3),
                        help="base ring, zmod:M or dual:M (default zmod:3)")
    parser.add_argument("--n", type=int, default=None,
                        help="wrap the base into the n x n matrix ring")
    parser.add_argument("--trivial-ext", action="store_true",
                        help="wrap the ring into its square-zero extension")


def _add_pair_mode_flag(parser):
    parser.add_argument("--pairs", choices=PAIR_MODES, default=PAIR_MODES[0],
                        help="conditional pair mode of the solves")


def _add_common_flags(parser):
    parser.add_argument("--json", action="store_true", help="machine output")
    parser.add_argument("--out", help="write the result to this file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="derivlab",
        description="Exact workbench for derivation-style identities on "
                    "finite matrix rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification procedures")
    _add_ring_flags(p_verify)
    _add_pair_mode_flag(p_verify)
    _add_common_flags(p_verify)
    p_verify.add_argument("--theorem", default="all",
                          choices=THEOREM_IDS + ("all",),
                          help="which result to verify (default all)")
    p_verify.add_argument("--inflation-rank", type=_nonnegative_int, default=0,
                          help="zero-action summand rank for the non-unital check")
    p_verify.set_defaults(handler=_cmd_verify)

    p_solve = sub.add_parser("solve", help="solve for a full map space")
    _add_ring_flags(p_solve)
    _add_pair_mode_flag(p_solve)
    _add_common_flags(p_solve)
    p_solve.add_argument("--kind", required=True, choices=IDENTITY_KINDS)
    p_solve.set_defaults(handler=_cmd_solve)

    p_check = sub.add_parser("check", help="check a serialized map")
    _add_common_flags(p_check)
    p_check.add_argument("--kind", required=True, choices=IDENTITY_KINDS)
    p_check.add_argument("--input", required=True, help="map JSON file")
    p_check.set_defaults(handler=_cmd_check)

    p_dec = sub.add_parser("decompose", help="decompose a serialized map")
    _add_common_flags(p_dec)
    p_dec.add_argument("--input", required=True, help="map JSON file")
    p_dec.add_argument(
        "--method",
        required=True,
        choices=("zero-product", "inner-lifted", "extension-components", "proof-steps"),
    )
    p_dec.set_defaults(handler=_cmd_decompose)

    p_pairs = sub.add_parser("pairs", help="list the exhaustive conditional pair set")
    _add_ring_flags(p_pairs)
    _add_common_flags(p_pairs)
    p_pairs.add_argument("--condition", default="zero-product", choices=_PAIR_LISTINGS)
    p_pairs.set_defaults(handler=_cmd_pairs)
    return parser


def _emit(args, payload, text_lines):
    body = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    if args.json:
        print(body)
    else:
        for line in text_lines:
            print(line)


def _ring_label(ring):
    return json.dumps(ring.to_json(), sort_keys=True)


def _cmd_verify(args):
    ring = _ring_from_args(args)
    options = dict(pair_mode=args.pairs, inflation_rank=args.inflation_rank or None)
    if args.theorem == "all":
        reports = run_all(ring, **options)
    else:
        reports = [verify_theorem(args.theorem, ring, **options)]
    lines = []
    for rep in reports:
        detail = f" ({rep.reason})" if rep.reason else ""
        counts = ", ".join(f"{k}={v}" for k, v in sorted(rep.counts.items()))
        counts = f" [{counts}]" if counts else ""
        lines.append(
            f"{rep.theorem_id} on {_ring_label(ring)}: {rep.status}{detail}{counts}"
            f" ({rep.elapsed_ms:.0f} ms)"
        )
    _emit(args, [r.to_json() for r in reports], lines)
    return exit_status(reports)


def _cmd_solve(args):
    ring = _ring_from_args(args)
    module, counts = solve_counted(args.kind, ring, pair_mode=args.pairs)
    gens = maps_from_module(module, ring, ring)
    payload = {
        "kind": args.kind,
        "ring": ring.to_json(),
        "pair_mode": args.pairs,
        **counts,
        "module": module.to_json(),
        "size": module.size(),
        "maps": [g.to_json() for g in gens],
    }
    lines = [
        f"kind={args.kind} ring={_ring_label(ring)} pairs={args.pairs}",
        f"generators={len(module.rows)} module_size={module.size()}",
    ]
    _emit(args, payload, lines)
    return 0


def _load_map(path):
    with open(path, encoding="utf-8") as fh:
        return AdditiveMap.from_json(json.load(fh))


def _cmd_check(args):
    fmap = _load_map(args.input)
    report = check(fmap, args.kind)
    payload = report.to_json()
    lines = ["passed" if report.passed else "failed"]
    if report.witness:
        w = report.witness
        lines.append(f"witness a = {w.a}")
        lines.append(f"witness b = {w.b}")
        lines.append(f"residual = {list(w.residual)}")
    if report.witness_unavailable:
        lines.append(f"witness unavailable: {report.witness_unavailable}")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_decompose(args):
    fmap = _load_map(args.input)
    status = 0
    if args.method == "zero-product":
        trace = decompose_theorem21(fmap)
        payload = trace.to_json()
        lines = [
            "decomposed: derivation part plus right multiplication by the image of 1",
            f"central = {list(trace.central)}",
        ]
    elif args.method == "inner-lifted":
        d, g = decompose_inner_plus_lifted(fmap)
        payload = {"base_map": d.to_json(), "inner_element": list(g)}
        lines = [
            "decomposed: entrywise lift plus inner derivation",
            f"base map zero: {d.is_zero()}",
        ]
    elif args.method == "extension-components":
        comps = decompose_trivial_extension(fmap)
        payload = {
            "components": [c.to_json() for c in comps],
            "mixed_component_zero": comps[1].is_zero(),
        }
        lines = [f"component matrices extracted; mixed component zero: {comps[1].is_zero()}"]
    else:  # proof-steps
        steps = verify_proof_steps(fmap)
        payload = steps.to_json()
        lines = [
            f"step {s.step}: {'pass' if s.passed else 'FAIL'}" for s in steps.steps
        ]
        status = 0 if steps.all_passed else 1
    _emit(args, payload, lines)
    return status


def _cmd_pairs(args):
    ring = _ring_from_args(args)
    pairs = _PAIR_LISTINGS[args.condition](ring)
    payload = {
        "ring": ring.to_json(),
        "condition": args.condition,
        "mode": "exhaustive",
        "count": len(pairs),
        "pairs": [[list(a.coords), list(b.coords)] for a, b in pairs],
    }
    lines = [
        f"{args.condition} pairs (exhaustive) on ring of size {ring_size(ring)}"
        f" rank {ring_rank(ring)}: {len(pairs)}"
    ]
    _emit(args, payload, lines)
    return 0


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.handler(args)
    except InternalVerificationError as exc:
        # a decomposition postcondition failed: that is a concrete numerical
        # counterexample, the most report-worthy outcome there is
        print(f"internal verification failed: {exc}", file=sys.stderr)
        print(f"payload: {exc.payload!r}", file=sys.stderr)
        return 1
    except (GuardError, PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
