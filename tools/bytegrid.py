"""Compare verification-report and CLI output bytes of a git revision
with this checkout.

    python3 tools/bytegrid.py REV

Exports REV with ``git archive`` into a temporary directory, then runs the
grid once per tree, each in its own Python process importing that tree's
``src/``.  A suite entry is one ``verify.run_suite`` call, and its digest
is the SHA-256 of the ``emit_report`` JSON bytes followed by the CSV
bytes.  A CLI entry is one ``cli.main`` call writing to ``--out``, and its
digest is the SHA-256 of the output bytes followed by the exit code.
Each entry also has an outcome: for a suite, ``pass`` or ``fail:`` and the
claim ids of its failed checks; for a CLI entry, its exit code and the
``class``, ``verdict``, ``status`` and ``passed`` fields of a JSON output.
Prints the entries whose digests differ, with their outcomes when those
differ too, and exits 1 if any digest differs, 0 if none does, and 2 if
the revision or a tree cannot be run.

The grid has 453 entries.  286 suite entries cover all eight suites:

- ``dew_bounds``, ``ew_spectral_ranges``, ``tail_sum_bounds`` and
  ``absolute_ppt`` at (2,2), (2,3), (3,3), (2,4), (3,4), seeds 1/7/42,
  samples 1/3/50/640;
- ``absolute_ppt`` at (3,3), seed 1, 5000 samples, whose unitary orbit
  spans more than one stacked block (``verify._ORBIT_BLOCK``);
- ``npt_detection`` at (3,3), (2,4), (3,4), seeds 1/7/42, samples 1/3;
- ``dew_attainability``, ``ndew_constructions`` and ``mirror_conditions``
  at (3,3), seeds 1/7/42, samples 1/3/50.

Suites sharing a key run back to back, so a tree that reuses work across
suites is compared on both its cold and its reused path.

42 CLI entries follow the suites, at the CLI's default seed and restarts
unless named: ``ndew`` on ``gamma``, ``gamma_prime`` and ``rho_b`` at
b = 0.9; ``blockpos`` in modes ``verdict``, ``min`` and ``max`` and
``mirror`` on each ``ndew`` output; ``ndew`` on the tiles state with one
product vector dropped, (I - P4)/5, whose margin vanishes;
``blockpos --mode verdict`` at the default and at 4 restarts on -SWAP at
2x2 and on diag(1, ..., 1, -0.2) at 3x3, which are not block positive and
so reach a ``no``; ``detect`` on
the qubit Bell state embedded at (3,3) and (2,4), on the qutrit Bell
state (whose transposed bottom eigenvector has Schmidt rank 2) and on a
seeded 3x3 Wishart state that takes the ``gamma2`` base; ``report`` in
JSON and in CSV on each ``detect`` output, and in CSV on the PSD
``gamma`` state, which has no bound rows; ``blockpos --mode verdict``, ``mirror`` and
``ndew`` at ``--restarts`` 0 and -3; and ``blockpos --mode verdict`` on
the PSD ``gamma`` state itself at ``--restarts`` 0 and -3 and at
``--seed -1``, which fail before its PSD path.  A command that fails writes no
output, so its digest covers empty bytes and its exit code; an uncaught
exception stands in for the exit code by its type name.

60 more CLI entries cover the named states, the mirror rule and the size
checks: ``state`` for every canonical name at its defaults (12); ``state``
with each parameter varied, a key the state does not take, and the sizes
m=2.5 n=3.9, l=1.5, m=3.0, m=1e309, l=1e309, m=nan and l=true, and the
reals b=true and b=x (34); ``family`` with a NaN weight, twice at 2x2 (one
of them the transposed Bell projector) and once at 3x3 (4); ``mirror`` on
that
transposed Bell projector, whose mirror is PSD, and on its negation, whose
trace is -1 (2); and ``verify`` of every suite at the trivial size (1,1)
with 3 samples (8).

2 CLI entries run ``verify --suite mirror_conditions`` at (2,2) and (4,5),
sizes other than the (3,3) its fixed states run at.

5 CLI entries run ``ndew`` on ``gamma`` with ``--z`` or ``--delta`` at
``nan`` or ``inf``, or ``--delta`` at 0, which are rejected before the see-saw runs, and 3 run
it at ``--restarts`` 1, 2 and 3, too few restarts to back a margin.

54 more CLI entries run ``mirror`` at ``--restarts`` 1, 2 and 4 on the
decomposable witnesses ``sample_dew(m, n, x=0.3, seed)`` at 2x2, 2x3 and
3x3, seeds 0 to 5.  Below ``blockpos.AGREE_MIN`` restarts the max search
backs no maximum, so those answer ``inconclusive``; at 4 restarts a mirror
is ``inconclusive`` where its restarts settle at different local maxima.

The last CLI entry runs ``mirror --restarts 4 --seed 217065368`` on the 3x3
witness in ``tests/stall_mirror_3x3.json``, where none of the four
restarts converges within ``blockpos.SEESAW_ITER_CAP`` rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SIZES = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))
SEEDS = (1, 7, 42)
BOUND_SUITES = ("dew_bounds", "ew_spectral_ranges", "tail_sum_bounds")
FIXED_SUITES = ("dew_attainability", "ndew_constructions", "mirror_conditions")


def grid():
    """(suite, m, n, samples, seed) of every entry, in run order."""
    for m, n in SIZES:
        for seed in SEEDS:
            for samples in (1, 3, 50, 640):
                for suite in BOUND_SUITES + ("absolute_ppt",):
                    yield suite, m, n, samples, seed
    yield "absolute_ppt", 3, 3, 5000, 1
    for m, n in ((3, 3), (2, 4), (3, 4)):
        for seed in SEEDS:
            for samples in (1, 3):
                yield "npt_detection", m, n, samples, seed
    for suite in FIXED_SUITES:
        for seed in SEEDS:
            for samples in (1, 3, 50):
                yield suite, 3, 3, samples, seed


NDEW_INPUTS = (("gamma", {}), ("gamma_prime", {}), ("rho_b", {"b": 0.9}))
BAD_RESTARTS = ("0", "-3")
BAD_SEARCH = (("--restarts", "0"), ("--restarts", "-3"), ("--seed", "-1"))
FEW_RESTARTS = ("1", "2", "3")  # below blockpos.AGREE_MIN
# (name, --param values) of the state entries beyond the defaults
STATE_PARAMS = (
    ("zeta1", ("m=2",)), ("zeta1", ("m=4",)), ("zeta1", ("l=5",)),
    ("zeta1", ("m=2", "l=4")), ("zeta1", ("l=10",)),
    ("zeta2", ("m=2",)), ("zeta2", ("n=4",)), ("zeta2", ("m=2", "n=3")),
    ("rho1", ("m=2",)), ("rho1", ("n=4",)), ("rho1", ("normalized=0",)),
    ("rho1", ("m=2", "n=4", "normalized=false")),
    ("rho2", ("m=2",)), ("rho2", ("n=4",)), ("rho2", ("normalized=0",)),
    ("max_ball_center", ("m=2",)), ("max_ball_center", ("n=4",)),
    ("max_ball_center", ("m=1",)),
    ("rho_b", ("b=0.5",)), ("rho_b", ("b=1.5",)), ("rho_a", ("a=0.5",)),
    ("gamma", ("bogus=1",)), ("zeta1", ("n=3",)), ("rho_b", ("a=0.5",)),
    ("zeta2", ("m=2.5", "n=3.9")), ("zeta1", ("l=1.5",)),
    ("rho1", ("m=3.0",)), ("zeta1", ("m=3.0", "l=2.0")),
    ("zeta2", ("m=1e309",)), ("zeta1", ("l=1e309",)), ("zeta2", ("m=nan",)),
    ("zeta1", ("l=true",)), ("rho_b", ("b=true",)), ("rho_b", ("b=x",)),
)
NDEW_BAD_PARAMS = (
    ("--z", "nan"), ("--z", "inf"), ("--delta", "nan"), ("--delta", "inf"),
    ("--delta", "0"),
)
SLOW_MIRROR = os.path.join(ROOT, "tests", "stall_mirror_3x3.json")
DEW_SIZES = ((2, 2), (2, 3), (3, 3))
DEW_SEEDS = range(6)
OFF_SIZE_MIRROR_SUITE = ((2, 2), (4, 5))
FAMILY_ARGS = (
    "--a nan --b 1 --c 0 --d 0".split(),
    "--a 0.25 --b 0.25 --c 0.25 --d 0.25 --m 2 --n 2".split(),
    "--a 0.2 --b 0.4 --c 0.2 --d 0.2 --m 3 --n 3".split(),
    "--a 0 --b 1 --c 0 --d 0".split(),
)


def _cli_outcome(body: bytes, code) -> str:
    """Exit code and the verdict fields of a JSON output."""
    try:
        payload = json.loads(body)
    except ValueError:
        payload = None
    fields = payload.items() if isinstance(payload, dict) else ()
    return " ".join([f"exit {code}"] + [
        f"{key}={value}" for key, value in fields
        if key in ("class", "verdict", "status", "passed")
    ])


def cli_digests() -> dict:
    """(digest, outcome) of every CLI entry; each command's output feeds
    the ones after it."""
    import numpy as np

    from ews import cli, linalg, states, verify
    from ews.witness import sample_dew

    out = {}
    with tempfile.TemporaryDirectory(prefix="bytegrid-cli-") as tmp:
        def run(name, argv):
            dest = os.path.join(tmp, name.replace(" ", "_") + ".json")
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main([*argv, "--out", dest])
                except Exception as exc:  # noqa: BLE001 - a crash is an outcome
                    code = type(exc).__name__
            body = b""
            if os.path.exists(dest):
                with open(dest, "rb") as fh:
                    body = fh.read()
            out[f"cli {name}"] = (
                hashlib.sha256(body + str(code).encode()).hexdigest(),
                _cli_outcome(body, code),
            )
            return dest

        ndew_files = {}
        for name, params in NDEW_INPUTS:
            sigma = os.path.join(tmp, name + ".json")
            linalg.write_operator(sigma, states.canonical_state(name, **params))
            witness = run(f"ndew {name}", ["ndew", "--input", sigma])
            ndew_files[name] = sigma, witness
            for mode in ("verdict", "min", "max"):
                run(f"blockpos --mode {mode} ndew {name}",
                    ["blockpos", "--mode", mode, "--input", witness])
            run(f"mirror ndew {name}", ["mirror", "--input", witness])
        sigma, witness = ndew_files["gamma"]
        for restarts in BAD_RESTARTS:
            for argv in (["blockpos", "--mode", "verdict", "--input", witness],
                         ["mirror", "--input", witness],
                         ["ndew", "--input", sigma]):
                run(f"{argv[0]} --restarts {restarts} gamma",
                    [*argv, "--restarts", restarts])
        for option in BAD_SEARCH:
            run(f"blockpos {' '.join(option)} gamma state",
                ["blockpos", "--mode", "verdict", "--input", sigma, *option])
        for restarts in FEW_RESTARTS:
            run(f"ndew --restarts {restarts} gamma",
                ["ndew", "--input", sigma, "--restarts", restarts])
        p4 = sum(np.outer(v, v.conj()) for v in states.tiles_upb_vectors()[:4])
        sigma4 = os.path.join(tmp, "tiles4.json")
        linalg.write_operator(
            sigma4, linalg.BipartiteOperator(3, 3, (np.eye(9) - p4) / 5.0)
        )
        run("ndew tiles4", ["ndew", "--input", sigma4])
        swap = np.eye(4)[[0, 2, 1, 3]]
        for name, op in (
            ("-swap 2x2", linalg.BipartiteOperator(2, 2, -swap)),
            ("diag(1..1,-0.2) 3x3",
             linalg.BipartiteOperator(3, 3, np.diag([1.0] * 8 + [-0.2]))),
        ):
            refuted = os.path.join(tmp, f"refuted{op.m}x{op.n}.json")
            linalg.write_operator(refuted, op)
            for extra in ([], ["--restarts", "4"]):
                run(" ".join(["blockpos --mode verdict", name, *extra]),
                    ["blockpos", "--mode", "verdict", "--input", refuted, *extra])
        detect_inputs = (
            ("bell3x3", states.pure_from_schmidt([2**-0.5] * 2, 3, 3).projector()),
            ("bell2x4", states.pure_from_schmidt([2**-0.5] * 2, 2, 4).projector()),
            ("qutrit_bell3x3",
             states.pure_from_schmidt([3**-0.5] * 3, 3, 3).projector()),
            ("wishart3x3",
             states.random_state("density_wishart", 3, 3, rank=9, seed=2000)),
        )
        for name, state in detect_inputs:
            rho = os.path.join(tmp, f"{name}.json")
            linalg.write_operator(rho, state)
            certificate = run(f"detect {name}", ["detect", "--input", rho])
            run(f"report detect {name}", ["report", "--input", certificate])
            run(f"report --format csv detect {name}",
                ["report", "--input", certificate, "--format", "csv"])
        run("report --format csv gamma state",
            ["report", "--input", ndew_files["gamma"][0], "--format", "csv"])
        for name in states.CANONICAL_NAMES:
            run(f"state {name}", ["state", "--name", name])
        for name, params in STATE_PARAMS:
            run(f"state {name} {' '.join(params)}",
                ["state", "--name", name, *(a for p in params for a in ("--param", p))])
        for argv in FAMILY_ARGS:
            family = run(f"family {' '.join(argv)}", ["family", *argv])
        # the last family output is the transposed Bell projector
        run("mirror family bell", ["mirror", "--input", family])
        negated = os.path.join(tmp, "neg_bell.json")
        bell = linalg.read_operator(family)
        linalg.write_operator(negated, linalg.BipartiteOperator(2, 2, -bell.mat))
        run("mirror negated bell", ["mirror", "--input", negated])
        for suite in verify.SUITE_NAMES:
            run(f"verify {suite} (1,1)",
                ["verify", "--suite", suite, "--m", "1", "--n", "1", "--samples", "3"])
        for m, n in OFF_SIZE_MIRROR_SUITE:
            run(f"verify mirror_conditions ({m},{n})",
                ["verify", "--suite", "mirror_conditions", "--m", str(m), "--n", str(n)])
        for option, value in NDEW_BAD_PARAMS:
            run(f"ndew {option} {value} gamma",
                ["ndew", "--input", ndew_files["gamma"][0], option, value])
        for m, n in DEW_SIZES:
            for seed in DEW_SEEDS:
                dew = os.path.join(tmp, f"dew{m}x{n}_{seed}.json")
                linalg.write_operator(dew, sample_dew(m, n, x=0.3, seed=seed).op)
                for restarts in ("1", "2", "4"):
                    run(f"mirror dew {m}x{n} seed={seed} --restarts {restarts}",
                        ["mirror", "--input", dew, "--restarts", restarts])
        run("mirror slow 3x3 --restarts 4 --seed 217065368",
            ["mirror", "--input", SLOW_MIRROR, "--restarts", "4", "--seed", "217065368"])
    return out


def digests(src: str) -> dict:
    """(digest, outcome) of every grid entry, computed with the ews under
    `src`."""
    from ews import verify

    if os.path.dirname(os.path.abspath(verify.__file__)) != os.path.join(src, "ews"):
        sys.stderr.write(f"imported ews from {verify.__file__}, not from {src}\n")
        raise SystemExit(2)
    out = {}
    for suite, m, n, samples, seed in grid():
        report = verify.run_suite(suite, m=m, n=n, samples=samples, seed=seed)
        body = verify.emit_report(report, "json") + verify.emit_report(report, "csv")
        failed = [c.claim_id for c in report.checks if not c.passed]
        out[f"{suite} ({m},{n}) samples={samples} seed={seed}"] = (
            hashlib.sha256(body).hexdigest(),
            "fail: " + ", ".join(failed) if failed else "pass",
        )
    out.update(cli_digests())
    return out


def run_tree(tree: str) -> dict:
    src = os.path.join(tree, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--digests", src],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(f"grid run on {tree} failed:\n{proc.stderr[-2000:]}\n")
        raise SystemExit(2)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("rev", nargs="?", help="git revision to compare with this checkout")
    p.add_argument("--digests", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.digests:
        print(json.dumps(digests(os.path.abspath(args.digests))))
        return 0
    if not args.rev:
        p.error("a git revision is required")
    with tempfile.TemporaryDirectory(prefix="bytegrid-") as tmp:
        archive = subprocess.run(
            ["git", "-C", ROOT, "archive", "--format=tar", args.rev],
            capture_output=True, check=False,
        )
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode(errors="replace"))
            return 2
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        theirs = run_tree(tmp)
    ours = run_tree(ROOT)
    missing = [None, None]
    differ = sorted(k for k in ours.keys() | theirs.keys()
                    if ours.get(k, missing)[0] != theirs.get(k, missing)[0])
    moved = 0
    for key in differ:
        old, old_outcome = theirs.get(key, missing)
        new, new_outcome = ours.get(key, missing)
        print(f"differs: {key}  {old} -> {new}")
        if old_outcome != new_outcome:
            moved += 1
            print(f"  outcome: {old_outcome} -> {new_outcome}")
    print(f"{len(ours) - len(differ)}/{len(ours)} digests identical to {args.rev}")
    print(f"{len(ours) - moved}/{len(ours)} outcomes identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
