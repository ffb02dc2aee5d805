"""Command-line entry point.

Subcommands: state, family, report, mirror, blockpos, ndew, detect,
verify.  Matrices travel as the JSON interchange format; reports are JSON
or CSV.  Exit codes: 0 success, 1 check/verdict failure, 2 usage or input
error.  All randomness flows from --seed (default 42, never wall clock).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict

from . import blockpos, states, verify, witness
from .errors import EwsError
from .linalg import operator_to_json, read_operator

DEFAULT_SEED = 42


def _json(obj, indent=None) -> str:
    # a NaN or Inf that reached the output is an error, not a JSON extension
    return json.dumps(obj, indent=indent, allow_nan=False) + "\n"


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        if val.lower() in ("true", "false"):
            out[key] = val.lower() == "true"
            continue
        try:
            out[key] = float(val) if "." in val or "e" in val.lower() else int(val)
        except ValueError:
            out[key] = val
    return out


# Command handlers return (output, exit code); main writes the output.

def _cmd_state(args):
    params = _parse_params(args.param or [])
    if args.m is not None:
        params.setdefault("m", args.m)
    if args.n is not None:
        params.setdefault("n", args.n)
    return _json(operator_to_json(states.canonical_state(args.name, **params))), 0


def _cmd_family(args):
    p = witness.FamilyParams(args.a, args.b, args.c, args.d, args.m, args.n)
    return _json(operator_to_json(witness.w_family(p).op)), 0


# The report's scalar fields, in output order.
_REPORT_SCALARS = ("lambda1", "lambda_min", "negativity", "fro_sq", "neg_count")
# The CSV report's columns: a scalar row fills the first two, a bound row
# every one (`witness.ReportBound`).
_CSV_FIELDS = ("name", "measured", "lower", "upper", "passed", "attained")


def _report_payload(rep) -> dict:
    return {
        "m": rep.m,
        "n": rep.n,
        "is_ew": rep.is_ew,
        **{name: getattr(rep, name) for name in _REPORT_SCALARS},
        "lambdas": [float(x) for x in rep.lambdas],
        "bounds": [asdict(b) for b in rep.bounds],
        "all_pass": rep.all_pass,
    }


def _report_csv(rep) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for name in _REPORT_SCALARS:
        writer.writerow({"name": name, "measured": float(getattr(rep, name))})
    writer.writerows(asdict(b) for b in rep.bounds)
    return buf.getvalue()


def _cmd_report(args):
    rep = witness.spectral_report(read_operator(args.input))
    if args.format == "csv":
        return _report_csv(rep), 0
    return _json(_report_payload(rep), indent=2), 0


def _cmd_mirror(args):
    op = read_operator(args.input)
    w = witness.Witness(op=op.normalized(), class_tag=witness.TAG_UNCLASSIFIED)
    res = witness.mirror(w, restarts=args.restarts, seed=args.seed)
    payload = {
        "mu": res.mu,
        "verdict": res.verdict,
        **blockpos.evidence(res.opt),
        "mirror_operator": operator_to_json(res.w_m),
    }
    return _json(payload, indent=2), 0


def _cmd_blockpos(args):
    op = read_operator(args.input)
    if args.mode == "verdict":
        verdict = blockpos.is_block_positive(op, restarts=args.restarts, seed=args.seed)
        payload = {
            "status": verdict.status,
            "value": verdict.value,
            **blockpos.evidence(verdict),
            "counterexample_value": (
                None if verdict.counterexample is None else verdict.counterexample[2]
            ),
        }
        return _json(payload, indent=2), (0 if verdict.status.startswith("yes") else 1)
    fn = (
        blockpos.product_expectation_min
        if args.mode == "min"
        else blockpos.product_expectation_max
    )
    opt = fn(op, restarts=args.restarts, seed=args.seed)
    payload = {
        "mode": args.mode,
        "value": opt.value,
        **blockpos.evidence(opt),
        "vec_a": [[z.real, z.imag] for z in opt.vec_a],
        "vec_b": [[z.real, z.imag] for z in opt.vec_b],
    }
    return _json(payload, indent=2), 0


def _cmd_ndew(args):
    sigma = read_operator(args.input)
    params = witness.NdewParams(z=args.z, delta=args.delta)
    w = witness.ndew_from_edge(sigma, params, restarts=args.restarts, seed=args.seed)
    payload = {
        "class": w.class_tag,
        "provenance": w.provenance,
        "witness": operator_to_json(w.op),
    }
    return _json(payload, indent=2), 0


def _cmd_detect(args):
    rho = read_operator(args.input)
    cert = witness.detect_npt(rho, restarts=args.restarts, seed=args.seed)
    payload = {
        "expectation": cert.expectation,
        "pipeline": cert.pipeline,
        "witness": operator_to_json(cert.witness.op),
    }
    return _json(payload, indent=2), 0


def _cmd_verify(args):
    report = verify.run_suite(
        args.suite, m=args.m, n=args.n, samples=args.samples, seed=args.seed
    )
    data = verify.emit_report(report, fmt=args.format)
    sys.stderr.write(
        f"{report.suite}: {report.n_pass} passed, {report.n_fail} failed "
        f"({report.wall_time:.1f}s)\n"
    )
    return data, (0 if report.passed else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ews",
        description="Construct, analyze and verify entanglement witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    inp = argparse.ArgumentParser(add_help=False)
    inp.add_argument("--input", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    seesaw = argparse.ArgumentParser(add_help=False, parents=[inp, seed])
    seesaw.add_argument("--restarts", type=int, default=blockpos.DEFAULT_RESTARTS)

    def command(name, fn, summary, *parents, **kw):
        p = sub.add_parser(name, help=summary, parents=[*parents, out], **kw)
        p.set_defaults(fn=fn)
        return p

    p = command("state", _cmd_state, "emit a canonical state as matrix JSON")
    p.add_argument("--name", required=True, choices=states.CANONICAL_NAMES)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)

    p = command("family", _cmd_family, "four-term block-positive family witness")
    for w in "abcd":
        p.add_argument(f"--{w}", type=float, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, default=2)

    p = command("report", _cmd_report, "spectral report of a witness", inp)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    command("mirror", _cmd_mirror, "mirror operator and verdict", seesaw)

    p = command(
        "blockpos", _cmd_blockpos, "product-vector optimization / verdict", seesaw
    )
    p.add_argument("--mode", choices=("min", "max", "verdict"), default="verdict")

    p = command(
        "ndew", _cmd_ndew, "kernel witness from a bound entangled state", seesaw
    )
    p.add_argument("--z", type=float, default=witness.NdewParams.z)
    p.add_argument("--delta", type=float, default=witness.NdewParams.delta)

    command(
        "detect",
        _cmd_detect,
        "certify an NPT state against a witness",
        seesaw,
        description="Certify an NPT state against a witness.  --seed is "
        "accepted for compatibility; detection does not depend on it.",
    )

    p = command("verify", _cmd_verify, "run a named verification suite", seed)
    p.add_argument("--suite", required=True)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--samples", type=int)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output, code = args.fn(args)
        data = output.encode() if isinstance(output, str) else output
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.buffer.write(data)
        return code
    except (EwsError, ValueError, OSError) as exc:
        sys.stderr.write(f"ews: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
