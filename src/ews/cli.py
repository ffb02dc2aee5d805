"""Command-line entry point.

Subcommands: state, family, report, mirror, blockpos, ndew, detect,
verify.  Matrices travel as the JSON interchange format; reports are JSON
or CSV.  Exit codes: 0 success, 1 check/verdict failure, 2 usage or input
error.  All randomness flows from --seed (default 42, never wall clock).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import blockpos, states, verify, witness
from .errors import EwsError
from .linalg import operator_to_json, read_operator

DEFAULT_SEED = 42


def _dumps(obj, indent=None) -> str:
    # a NaN or Inf that reached the output is an error, not a JSON extension
    return json.dumps(obj, indent=indent, allow_nan=False)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_operator(op, out: str | None) -> None:
    _emit(_dumps(operator_to_json(op)) + "\n", out)


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key] = float(val) if "." in val or "e" in val.lower() else int(val)
        except ValueError:
            out[key] = val
    return out


def _cmd_state(args) -> int:
    params = _parse_params(args.param or [])
    if args.m is not None:
        params.setdefault("m", args.m)
    if args.n is not None:
        params.setdefault("n", args.n)
    op = states.canonical_state(args.name, **params)
    _emit_operator(op, args.out)
    return 0


def _cmd_family(args) -> int:
    p = witness.FamilyParams(args.a, args.b, args.c, args.d, args.m, args.n)
    _emit_operator(witness.w_family(p).op, args.out)
    return 0


def _report_payload(rep) -> dict:
    return {
        "m": rep.m,
        "n": rep.n,
        "is_ew": rep.is_ew,
        "lambda1": rep.lambda1,
        "lambda_min": rep.lambda_min,
        "negativity": rep.negativity,
        "fro_sq": rep.fro_sq,
        "neg_count": rep.neg_count,
        "lambdas": [float(x) for x in rep.lambdas],
        "bounds": [asdict(b) for b in rep.bounds],
        "all_pass": rep.all_pass,
    }


def _report_csv(rep) -> str:
    lines = ["name,measured,lower,upper,passed,attained"]
    scalars = [
        ("lambda1", rep.lambda1),
        ("lambda_min", rep.lambda_min),
        ("negativity", rep.negativity),
        ("fro_sq", rep.fro_sq),
        ("neg_count", float(rep.neg_count)),
    ]
    for name, value in scalars:
        lines.append(f"{name},{value!r},,,,")
    for b in rep.bounds:
        lines.append(
            f"{b.name},{b.measured!r},{'' if b.lower is None else repr(b.lower)},"
            f"{'' if b.upper is None else repr(b.upper)},{b.passed},{b.attained}"
        )
    return "\n".join(lines) + "\n"


def _cmd_report(args) -> int:
    op = read_operator(args.input)
    rep = witness.spectral_report(op)
    if args.format == "csv":
        _emit(_report_csv(rep), args.out)
    else:
        _emit(_dumps(_report_payload(rep), indent=2) + "\n", args.out)
    return 0


def _cmd_mirror(args) -> int:
    op = read_operator(args.input)
    w = witness.Witness(op=op.normalized(), class_tag=witness.TAG_UNCLASSIFIED)
    res = witness.mirror(w, restarts=args.restarts, seed=args.seed)
    payload = {
        "mu": res.mu,
        "verdict": res.verdict,
        "restarts_converged": res.opt.restarts_converged,
        "spread": res.opt.spread,
        "mirror_operator": operator_to_json(res.w_m),
    }
    _emit(_dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_blockpos(args) -> int:
    op = read_operator(args.input)
    if args.mode == "verdict":
        verdict = blockpos.is_block_positive(op, restarts=args.restarts, seed=args.seed)
        payload = {
            "status": verdict.status,
            "value": verdict.value,
            "restarts_tried": verdict.restarts_tried,
            "restarts_converged": verdict.restarts_converged,
            "counterexample_value": (
                None if verdict.counterexample is None else verdict.counterexample[2]
            ),
        }
        _emit(_dumps(payload, indent=2) + "\n", args.out)
        return 0 if verdict.status.startswith("yes") else 1
    fn = (
        blockpos.product_expectation_min
        if args.mode == "min"
        else blockpos.product_expectation_max
    )
    opt = fn(op, restarts=args.restarts, seed=args.seed)
    payload = {
        "mode": args.mode,
        "value": opt.value,
        "restarts_tried": opt.restarts_tried,
        "restarts_converged": opt.restarts_converged,
        "spread": opt.spread,
        "vec_a": [[z.real, z.imag] for z in opt.vec_a],
        "vec_b": [[z.real, z.imag] for z in opt.vec_b],
    }
    _emit(_dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_ndew(args) -> int:
    sigma = read_operator(args.input)
    params = witness.NdewParams(z=args.z, delta=args.delta)
    w = witness.ndew_from_edge(sigma, params, restarts=args.restarts, seed=args.seed)
    payload = {
        "class": w.class_tag,
        "provenance": w.provenance,
        "witness": operator_to_json(w.op),
    }
    _emit(_dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_detect(args) -> int:
    rho = read_operator(args.input)
    cert = witness.detect_npt(rho, restarts=args.restarts, seed=args.seed)
    payload = {
        "expectation": cert.expectation,
        "pipeline": cert.pipeline,
        "witness": operator_to_json(cert.witness.op),
    }
    _emit(_dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    report = verify.run_suite(
        args.suite, m=args.m, n=args.n, samples=args.samples, seed=args.seed
    )
    data = verify.emit_report(report, fmt=args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
    sys.stderr.write(
        f"{report.suite}: {report.n_pass} passed, {report.n_fail} failed "
        f"({report.wall_time:.1f}s)\n"
    )
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ews",
        description="Construct, analyze and verify entanglement witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="emit a canonical state as matrix JSON")
    p.add_argument("--name", required=True, choices=states.CANONICAL_NAMES)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_state)

    p = sub.add_parser("family", help="four-term block-positive family witness")
    for w in "abcd":
        p.add_argument(f"--{w}", type=float, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("report", help="spectral report of a witness")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("mirror", help="mirror operator and verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_mirror)

    p = sub.add_parser("blockpos", help="product-vector optimization / verdict")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=("min", "max", "verdict"), default="verdict")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_blockpos)

    p = sub.add_parser("ndew", help="kernel witness from a bound entangled state")
    p.add_argument("--input", required=True)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_ndew)

    p = sub.add_parser("detect", help="certify an NPT state against a witness")
    p.add_argument("--input", required=True)
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="accepted for compatibility; detection does not depend on it",
    )
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (EwsError, ValueError, OSError) as exc:
        sys.stderr.write(f"ews: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
