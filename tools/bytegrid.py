"""Compare verification-report and CLI output bytes of a git revision
with this checkout.

    python3 tools/bytegrid.py REV

Exports REV with ``git archive`` into a temporary directory, then runs the
grid once per tree, each in its own Python process importing that tree's
``src/``.  A suite entry is one ``verify.run_suite`` call, and its digest
is the SHA-256 of the ``emit_report`` JSON bytes followed by the CSV
bytes.  A CLI entry is one ``cli.main`` call writing to ``--out``, and its
digest is the SHA-256 of the output bytes followed by the exit code.
Prints the entries whose digests differ and exits 1 if any do, 0 if none
do, and 2 if the revision or a tree cannot be run.

The grid has 413 entries.  286 suite entries cover all eight suites:

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

30 CLI entries follow the suites, at the CLI's default seed and restarts
unless named: ``ndew`` on ``gamma``, ``gamma_prime`` and ``rho_b`` at
b = 0.9; ``blockpos`` in modes ``verdict``, ``min`` and ``max`` and
``mirror`` on each ``ndew`` output; ``ndew`` on the tiles state with one
product vector dropped, (I - P4)/5, whose margin vanishes; ``detect`` on
the qubit Bell state embedded at (3,3) and (2,4), on the qutrit Bell
state (whose transposed bottom eigenvector has Schmidt rank 2) and on a
seeded 3x3 Wishart state that takes the ``gamma2`` base; ``report`` on
each ``detect`` output; and ``blockpos --mode verdict``, ``mirror`` and
``ndew`` at ``--restarts`` 0 and -3.  A command that fails writes no
output, so its digest covers empty bytes and its exit code; an uncaught
exception stands in for the exit code by its type name.

56 more CLI entries cover the named states, the mirror rule and the size
checks: ``state`` for every canonical name at its defaults (12); ``state``
with each parameter varied, a key the state does not take, and the sizes
m=2.5 n=3.9, l=1.5, m=3.0, m=1e309, l=1e309 and m=nan (31); ``family``
twice at 2x2 (one of them the transposed Bell projector) and once at 3x3
(3); ``mirror`` on that
transposed Bell projector, whose mirror is PSD, and on its negation, whose
trace is -1 (2); and ``verify`` of every suite at the trivial size (1,1)
with 3 samples (8).

4 CLI entries run ``ndew`` on ``gamma`` with ``--z`` or ``--delta`` at
``nan`` or ``inf``, which are rejected before the see-saw runs.

36 more CLI entries run ``mirror`` at ``--restarts`` 2 and 4 on the
decomposable witnesses ``sample_dew(m, n, x=0.3, seed)`` at 2x2, 2x3 and
3x3, seeds 0 to 5.  Six of them answer ``inconclusive``, where the restarts
of the max search settle at different local maxima; the rest answer
``mirror-EW``.

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
)
NDEW_NON_FINITE = (
    ("--z", "nan"), ("--z", "inf"), ("--delta", "nan"), ("--delta", "inf"),
)
SLOW_MIRROR = os.path.join(ROOT, "tests", "stall_mirror_3x3.json")
DEW_SIZES = ((2, 2), (2, 3), (3, 3))
DEW_SEEDS = range(6)
FAMILY_ARGS = (
    "--a 0.25 --b 0.25 --c 0.25 --d 0.25 --m 2 --n 2".split(),
    "--a 0.2 --b 0.4 --c 0.2 --d 0.2 --m 3 --n 3".split(),
    "--a 0 --b 1 --c 0 --d 0".split(),
)


def cli_digests() -> dict:
    """Digest of every CLI entry; each command's output feeds the ones
    after it."""
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
            out[f"cli {name}"] = hashlib.sha256(body + str(code).encode()).hexdigest()
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
        p4 = sum(np.outer(v, v.conj()) for v in states.tiles_upb_vectors()[:4])
        sigma4 = os.path.join(tmp, "tiles4.json")
        linalg.write_operator(
            sigma4, linalg.BipartiteOperator(3, 3, (np.eye(9) - p4) / 5.0)
        )
        run("ndew tiles4", ["ndew", "--input", sigma4])
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
        for option, value in NDEW_NON_FINITE:
            run(f"ndew {option} {value} gamma",
                ["ndew", "--input", ndew_files["gamma"][0], option, value])
        for m, n in DEW_SIZES:
            for seed in DEW_SEEDS:
                dew = os.path.join(tmp, f"dew{m}x{n}_{seed}.json")
                linalg.write_operator(dew, sample_dew(m, n, x=0.3, seed=seed).op)
                for restarts in ("2", "4"):
                    run(f"mirror dew {m}x{n} seed={seed} --restarts {restarts}",
                        ["mirror", "--input", dew, "--restarts", restarts])
        run("mirror slow 3x3 --restarts 4 --seed 217065368",
            ["mirror", "--input", SLOW_MIRROR, "--restarts", "4", "--seed", "217065368"])
    return out


def digests(src: str) -> dict:
    """Digest of every grid entry, computed with the ews under `src`."""
    from ews import verify

    if os.path.dirname(os.path.abspath(verify.__file__)) != os.path.join(src, "ews"):
        sys.stderr.write(f"imported ews from {verify.__file__}, not from {src}\n")
        raise SystemExit(2)
    out = {}
    for suite, m, n, samples, seed in grid():
        report = verify.run_suite(suite, m=m, n=n, samples=samples, seed=seed)
        body = verify.emit_report(report, "json") + verify.emit_report(report, "csv")
        out[f"{suite} ({m},{n}) samples={samples} seed={seed}"] = (
            hashlib.sha256(body).hexdigest()
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
    differ = sorted(k for k in ours.keys() | theirs.keys()
                    if ours.get(k) != theirs.get(k))
    for key in differ:
        print(f"differs: {key}  {theirs.get(key)} -> {ours.get(key)}")
    print(f"{len(ours) - len(differ)}/{len(ours)} digests identical to {args.rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
