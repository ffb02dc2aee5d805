"""The four benchmark workloads.

Each workload is an endless sequence of cycles; a cycle is a fixed mix of
operations whose inputs the benchmark builds with its own numpy code from
(workload seed, cycle index).  The mix is the same in every cycle and at
every seed, and a run always ends on a cycle boundary, so two runs that
complete the same number of cycles did the same kinds of work.

An operation is an ``Op``: ``call`` invokes the program once, ``check``
verifies the result with numpy alone (never trusting the code under test)
and raises ``CheckFailed`` when it is wrong, and ``canon`` gives the bytes
that enter the output digest.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# Relative tolerance for matching an eigenvalue or an expectation value.
EIG_RTOL = 1e-9


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], bytes]


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(key)))


def _seed31(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# Independent numerics: numpy only.

def pt(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """Partial transpose on the first factor, row index i*n + j."""
    return mat.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def scale(mat: np.ndarray) -> float:
    return max(1.0, float(np.linalg.norm(mat)))


def eigvals_down(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[::-1]


def product_value(mat: np.ndarray, a, b) -> float:
    v = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    return float(np.vdot(v, mat @ v).real)


def wishart(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    w = g @ g.conj().T
    return w / np.trace(w).real


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


def npt_wishart(rng, m: int, n: int) -> np.ndarray:
    """Full-rank Wishart state with a clearly negative partial transpose."""
    d = m * n
    while True:
        rho = wishart(rng, d, d)
        if eigvals_down(pt(rho, m, n))[-1] < -1e-6:
            return rho


def pure_near_boundary(rng, m: int, n: int, rank: int) -> np.ndarray:
    """Haar-rotated Schmidt-rank-`rank` pure state mixed with white noise
    just past the weight where its partial transpose turns negative."""
    d = m * n
    if rank == 2:
        theta = rng.uniform(np.pi / 8.0, np.pi / 4.0)
        coeffs = np.array([np.cos(theta), np.sin(theta)])
    else:
        coeffs = np.sort(np.sqrt(rng.dirichlet([2.0] * rank)))[::-1]
    core = np.zeros((m, n), dtype=complex)
    for i, c in enumerate(coeffs):
        core[i, i] = c
    psi = (haar_unitary(rng, m) @ core @ haar_unitary(rng, n).T).reshape(d)
    # min eigenvalue of the mixture's PT: -p c0 c1 + (1 - p)/d
    p_star = 1.0 / (1.0 + d * coeffs[0] * coeffs[1])
    p = p_star + (1.0 - p_star) * rng.uniform(0.05, 0.3)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) * np.eye(d) / d


def dew_matrix(rng, m: int, n: int) -> np.ndarray:
    """Random decomposable witness x P + (1 - x) Q^PT with a negative
    eigenvalue, from full-rank unit-trace Wishart factors.  Full rank keeps
    the product-vector optima isolated, so an op's cost follows its size."""
    d = m * n
    while True:
        x = rng.uniform(0.05, 0.5)
        w = x * wishart(rng, d, d) + (1.0 - x) * pt(wishart(rng, d, d), m, n)
        if eigvals_down(w)[-1] < -1e-6:
            return w


def non_ppt_operator(rng, m: int, n: int) -> np.ndarray:
    """Hermitian operator neither it nor its partial transpose PSD: a
    decomposable witness shifted down by delta I, so the block-positivity
    verdict has to come from the see-saw."""
    d = m * n
    w = dew_matrix(rng, m, n)
    floor_pt = eigvals_down(pt(w, m, n))[-1]
    delta = max(0.0, floor_pt) + rng.uniform(0.002, 0.05)
    return w - delta * np.eye(d)


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check_close(measured: float, expected: float, tol: float, what: str) -> None:
    require(abs(measured - expected) <= tol,
            f"{what}: {measured!r} differs from {expected!r} by more than {tol:.1e}")


def check_in_spectrum(value: float, mat: np.ndarray, what: str) -> None:
    lam = eigvals_down(mat)
    tol = EIG_RTOL * scale(mat)
    require(lam[-1] - tol <= value <= lam[0] + tol,
            f"{what} {value!r} outside [{lam[-1]!r}, {lam[0]!r}]")


def check_certificate(w: np.ndarray, rho: np.ndarray, reported: float) -> None:
    """tr W = 1 and tr(W rho) < -1e-9, recomputed from the returned matrix."""
    require(np.abs(w - w.conj().T).max() <= 1e-12 * scale(w), "witness is not Hermitian")
    check_close(float(np.trace(w).real), 1.0, 1e-9, "witness trace")
    expect = float(np.trace(w @ rho).real)
    require(expect < -1e-9, f"tr(W rho) = {expect!r} is not below -1e-9")
    check_close(reported, expect, EIG_RTOL, "reported expectation")


def mat_bytes(mat) -> bytes:
    return np.ascontiguousarray(mat, dtype=complex).tobytes()


# ---------------------------------------------------------------------------
# spectra: verification suites, full-size eigensolves, no see-saw.

SPECTRA_DIMS = ((2, 2), (2, 3), (3, 3), (2, 4))
BOUND_SUITES = ("dew_bounds", "ew_spectral_ranges", "tail_sum_bounds")
# Samples per suite call, scaled so each call costs about the same at the
# commit that defined the benchmark (cost per sample grows with d = mn).
SPECTRA_SAMPLES = {(2, 2): 640, (2, 3): 250, (3, 3): 100, (2, 4): 140}


def _stream_seed(seed: int, idx: int) -> int:
    """Per-sample seed of the verification stream: SeedSequence([seed, idx])."""
    return int(np.random.SeedSequence([seed, idx]).generate_state(1)[0])


class Spectra:
    def __init__(self, ews, seed: int):
        self.ews = ews
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.seed, 1, c)
        ops = []
        for k in rng.permutation(len(SPECTRA_DIMS)):
            m, n = SPECTRA_DIMS[k]
            samples = SPECTRA_SAMPLES[(m, n)]
            suite_seed = _seed31(rng)
            for suite in BOUND_SUITES:
                ops.append(self._op(suite, m, n, samples, suite_seed))
            ops.append(self._op("absolute_ppt", m, n, samples // 2, _seed31(rng)))
        return ops

    def _op(self, suite, m, n, samples, seed) -> Op:
        verify = self.ews.verify

        def call():
            return verify.run_suite(suite, m=m, n=n, samples=samples, seed=seed)

        def check(rep):
            require((rep.suite, rep.m, rep.n, rep.samples, rep.seed)
                    == (suite, m, n, samples, seed), "report echoes other parameters")
            failed = [c.claim_id for c in rep.checks if c.gating and not c.passed]
            require(rep.passed and not failed, f"suite checks failed: {failed}")
            picks = sorted({0, samples // 2, samples - 1})
            if suite == "absolute_ppt":
                self._check_orbit(rep, m, n, seed, picks)
            else:
                self._check_stream(m, n, seed, picks)

        return Op(f"{suite}.{m}x{n}", call, check,
                  lambda rep: verify.emit_report(rep, fmt="json"))

    def _check_stream(self, m, n, seed, picks):
        """Rebuild stream samples with numpy and compare their eigenvalues
        with the program's spectral report of the same sample."""
        witness = self.ews.witness
        d = m * n
        for i in picks:
            rng = np.random.default_rng(_stream_seed(seed, i))
            x = float(rng.uniform(0.0, 1.0))
            rank_p = int(rng.integers(1, d + 1))
            rank_q = int(rng.integers(1, d + 1))
            sub = int(rng.integers(0, 2**63))
            r2 = np.random.default_rng(sub)
            mat = x * wishart(r2, d, rank_p) + (1.0 - x) * pt(wishart(r2, d, rank_q), m, n)
            w = witness.sample_dew(m, n, x, rank_p, rank_q, seed=sub)
            tol = EIG_RTOL * scale(mat)
            require(np.abs(w.op.mat - mat).max() <= tol, f"sample {i} is not the stream's matrix")
            lam = eigvals_down(mat)
            got = np.asarray(witness.spectral_report(w).lambdas)
            require(got.shape == lam.shape and np.abs(got - lam).max() <= tol,
                    f"sample {i}: eigenvalues differ from numpy.linalg.eigvalsh")
            if lam[-1] < -tol:
                require(lam[-1] >= -0.5 - tol and lam[0] > 1.0 / (d - 1) - tol,
                        f"sample {i}: witness spectrum breaks the bound table")

    def _check_orbit(self, rep, m, n, seed, picks):
        d = m * n
        worst = {c.claim_id: c.measured for c in rep.checks}
        base = {"rho1": np.ones(d), "rho2": np.ones(d)}
        base["rho1"][:2] = np.sqrt(2.0) + 1.0
        base["rho2"][:3] = 2.0
        for name, diag in base.items():
            rho = np.diag(diag / diag.sum()).astype(complex)
            reported = worst[f"ap_{name}_unitary_orbit"]
            for i in picks:
                u = haar_unitary(np.random.default_rng(_stream_seed(seed, i)), d)
                low = eigvals_down(pt(u @ rho @ u.conj().T, m, n))[-1]
                require(low >= -1e-9, f"{name} orbit sample {i} is not PPT: {low!r}")
                require(low >= reported - 1e-9,
                        f"{name} sample {i} floor {low!r} below reported minimum {reported!r}")


# ---------------------------------------------------------------------------
# certify: detection pipeline and kernel witnesses.

# The library default; with fewer restarts the base witness's margin
# estimate is sometimes not reproducible and detection refuses to certify.
CERTIFY_RESTARTS = 64
# One cycle, all 3x3: Wishart states (base gamma2), rank-2 and rank-3 pure
# states near the PPT boundary (base gamma1), and the kernel witness of the
# canonical gamma state.
CERTIFY_MIX = ("wishart33", "pure2_33", "ndew_gamma", "pure3_33", "wishart33", "pure2_33")


class Certify:
    def __init__(self, ews, seed: int):
        self.ews = ews
        self.seed = seed
        self.gamma = ews.states.canonical_state("gamma")

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.seed, 2, c)
        ops = []
        for kind in CERTIFY_MIX:
            op_seed = _seed31(rng)
            if kind == "wishart33":
                ops.append(self._detect(kind, npt_wishart(rng, 3, 3), 3, 3, op_seed))
            elif kind == "pure2_33":
                ops.append(self._detect(kind, pure_near_boundary(rng, 3, 3, 2), 3, 3, op_seed))
            elif kind == "pure3_33":
                ops.append(self._detect(kind, pure_near_boundary(rng, 3, 3, 3), 3, 3, op_seed))
            else:
                ops.append(self._ndew(kind, self.gamma, op_seed))
        return ops

    def _detect(self, kind, rho, m, n, op_seed) -> Op:
        ews = self.ews
        op = ews.linalg.BipartiteOperator(m, n, rho)

        def call():
            return ews.witness.detect_npt(op, restarts=CERTIFY_RESTARTS, seed=op_seed)

        def check(cert):
            check_certificate(np.asarray(cert.witness.op.mat), rho, cert.expectation)

        return Op("detect_npt." + kind, call, check,
                  lambda cert: mat_bytes(cert.witness.op.mat) + repr(cert.expectation).encode())

    def _ndew(self, kind, sigma, op_seed) -> Op:
        ews = self.ews
        rho = np.array(sigma.mat)

        def call():
            return ews.witness.ndew_from_edge(
                sigma, ews.witness.NdewParams(), restarts=CERTIFY_RESTARTS, seed=op_seed)

        def check(w):
            check_certificate(np.asarray(w.op.mat), rho, w.provenance["expectation"])

        return Op("ndew_from_edge." + kind, call, check,
                  lambda w: mat_bytes(w.op.mat) + repr(w.provenance["expectation"]).encode())


# ---------------------------------------------------------------------------
# seesaw: product-vector optimization on operators never seen twice.

# Fewer restarts than the library default, so a run holds enough ops to
# average out how much the see-saw's iteration count varies between inputs.
SEESAW_RESTARTS = 4
# 2x3 appears twice so the median op falls inside one size class rather than
# on the gap between two.
SEESAW_DIMS = ((2, 2), (2, 3), (3, 3), (2, 3))
VERDICTS = ("yes-psd", "yes-heuristic", "no", "inconclusive")


class Seesaw:
    def __init__(self, ews, seed: int):
        self.ews = ews
        self.seed = seed

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.seed, 3, c)
        ops = []
        for m, n in SEESAW_DIMS:
            ops.append(self._mirror(dew_matrix(rng, m, n), m, n, _seed31(rng)))
            ops.append(self._blockpos(non_ppt_operator(rng, m, n), m, n, _seed31(rng)))
        return ops

    def _mirror(self, w, m, n, op_seed) -> Op:
        witness = self.ews.witness
        wit = witness.Witness(op=self.ews.linalg.BipartiteOperator(m, n, w),
                              class_tag=witness.TAG_DEW)

        def call():
            return witness.mirror(wit, restarts=SEESAW_RESTARTS, seed=op_seed)

        def check(res):
            tol = EIG_RTOL * scale(w)
            check_close(product_value(w, res.opt.vec_a, res.opt.vec_b), res.mu, tol,
                        "<a,b|W|a,b> at the returned vectors")
            check_in_spectrum(res.mu, w, "mirror mu")
            expected = res.mu * np.eye(m * n) - w
            require(np.abs(np.asarray(res.w_m.mat) - expected).max() <= 1e-12 * scale(w),
                    "w_m differs from mu I - W")
            require(res.verdict in ("mirror-EW", "mirror-PSD", "inconclusive"),
                    f"unknown verdict {res.verdict!r}")
            if res.verdict == "mirror-PSD":
                require(eigvals_down(expected)[-1] >= -1e-9, "mirror-PSD operator is not PSD")

        def canon(res):
            return (repr(res.mu).encode() + res.verdict.encode() + mat_bytes(res.w_m.mat)
                    + mat_bytes(res.opt.vec_a) + mat_bytes(res.opt.vec_b))

        return Op(f"mirror.{m}x{n}", call, check, canon)

    def _blockpos(self, h, m, n, op_seed) -> Op:
        blockpos = self.ews.blockpos
        op = self.ews.linalg.BipartiteOperator(m, n, h)

        def call():
            return blockpos.is_block_positive(op, restarts=SEESAW_RESTARTS, seed=op_seed)

        def check(v):
            require(v.status in VERDICTS, f"unknown verdict {v.status!r}")
            if v.status == "yes-psd":
                require(min(eigvals_down(h)[-1], eigvals_down(pt(h, m, n))[-1]) >= -1e-9,
                        "yes-psd on an operator whose PT and itself are not PSD")
                return
            require(v.restarts_tried == SEESAW_RESTARTS, "restart count differs from request")
            if v.value is not None:
                check_in_spectrum(v.value, h, "see-saw minimum")
            if v.status == "no":
                a, b, val = v.counterexample
                check_close(product_value(h, a, b), val, EIG_RTOL * scale(h),
                            "<a,b|W|a,b> at the counterexample")
                require(val < 0.0, "counterexample value is not negative")

        def canon(v):
            out = v.status.encode() + repr(v.value).encode()
            if v.counterexample is not None:
                out += mat_bytes(v.counterexample[0]) + mat_bytes(v.counterexample[1])
            return out

        return Op(f"is_block_positive.{m}x{n}", call, check, canon)


# ---------------------------------------------------------------------------
# cli: one child process per operation.

# See-saw commands run at 4 of the CLI's default 64 restarts: their cost
# follows the input operator, and at more restarts the few input sets of a
# run decided its throughput and tail.  detect runs at the CLI's defaults (64 restarts,
# which it needs to certify reliably, and the default seed): its cost is the
# base-witness build on a fixed operator, which only the seed varies, so a
# user at the defaults pays the same build on every call.
CLI_SEESAW_RESTARTS = 4
CLI_INPUT_SETS = 4
CLI_SUITES = ("dew_bounds", "ew_spectral_ranges", "tail_sum_bounds", "absolute_ppt")
CLI_STATES = ("rho_b", "gamma", "tiles_upb", "zeta1")
CLI_TIMEOUT_S = 150


@dataclass
class ChildResult:
    rc: int
    stdout: bytes
    maxrss_kb: int


def write_matrix(path: str, mat: np.ndarray, m: int, n: int) -> None:
    entries = [[float(z.real), float(z.imag)] for z in np.asarray(mat).reshape(-1)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"m": m, "n": n, "entries": entries}, fh)


def parse_matrix(obj: dict) -> np.ndarray:
    d = int(obj["m"]) * int(obj["n"])
    ent = np.asarray(obj["entries"], dtype=float)
    require(ent.shape == (d * d, 2), f"matrix JSON has {ent.shape[0]} entries, not {d * d}")
    return (ent[:, 0] + 1j * ent[:, 1]).reshape(d, d)


def run_child(argv: list[str], env: dict, out_dir: str) -> ChildResult:
    """Run one child to completion with stdout in a file; wait4 gives the
    child's own peak RSS."""
    out_path = os.path.join(out_dir, "child.stdout")
    err_path = os.path.join(out_dir, "child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=out_dir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return ChildResult(proc.returncode, stdout, usage.ru_maxrss)


class Cli:
    def __init__(self, seed: int, root: str, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.trace_dir = None  # set by the runner for the traced run
        self.max_child_rss_kb = 0
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.inputs = []
        rng = _rng(seed, 4)
        for s in range(CLI_INPUT_SETS):
            files = {}
            for key, m, n, make in (
                ("w33", 3, 3, dew_matrix), ("w24", 2, 4, dew_matrix),
                ("w55", 5, 5, dew_matrix), ("h23", 2, 3, non_ppt_operator),
                ("h33", 3, 3, non_ppt_operator), ("rho33", 3, 3, npt_wishart),
                ("pure33", 3, 3, lambda r, m, n: pure_near_boundary(r, m, n, 2)),
            ):
                mat = make(rng, m, n)
                path = os.path.join(work_dir, f"{key}-{s}.json")
                write_matrix(path, mat, m, n)
                files[key] = (path, mat, m, n)
            self.inputs.append(files)
        self._n_children = 0

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.seed, 5, c)
        files = self.inputs[c % CLI_INPUT_SETS]
        state = CLI_STATES[c % len(CLI_STATES)]
        if state == "rho_b":
            state_args = ["--name", "rho_b", "--param", f"b={rng.uniform(0.6, 0.95)!r}"]
        elif state == "zeta1":
            state_args = ["--name", "zeta1", "--m", "3", "--param", f"l={int(rng.integers(1, 10))}"]
        else:
            state_args = ["--name", state]
        weights = rng.dirichlet([1.0] * 4)
        weights[3] = max(0.0, 1.0 - weights[:3].sum())
        fam = ["--a", repr(float(weights[0])), "--b", repr(float(weights[1])),
               "--c", repr(float(weights[2])), "--d", repr(float(weights[3])),
               "--m", "3", "--n", "3"]
        suite = CLI_SUITES[c % len(CLI_SUITES)]
        seeds = [str(_seed31(rng)) for _ in range(4)]
        restarts = ["--restarts", str(CLI_SEESAW_RESTARTS)]
        seesaw = [
            self._op("mirror", ["mirror", "--input", files["w33"][0], "--seed", seeds[1]]
                     + restarts, self._check_mirror(files["w33"])),
            self._op("blockpos.verdict", ["blockpos", "--mode", "verdict", "--input",
                                          files["h33"][0], "--seed", seeds[2]] + restarts,
                     self._check_verdict(files["h33"])),
        ]
        detect = [
            self._op("detect.wishart", ["detect", "--input", files["rho33"][0]],
                     self._check_detect(files["rho33"])),
            self._op("detect.pure", ["detect", "--input", files["pure33"][0]],
                     self._check_detect(files["pure33"])),
        ]
        light = [
            self._op("state", ["state"] + state_args, self._check_state),
            self._op("report.json", ["report", "--input", files["w33"][0]],
                     self._check_report(files["w33"])),
            self._op("blockpos.min", ["blockpos", "--mode", "min", "--input", files["h23"][0],
                                      "--seed", seeds[0]] + restarts,
                     self._check_min(files["h23"])),
            self._op("family", ["family"] + fam, self._check_family),
            self._op("report.csv", ["report", "--format", "csv", "--input", files["w24"][0]],
                     self._check_csv(files["w24"])),
            self._op("report.json.d25", ["report", "--input", files["w55"][0]],
                     self._check_report(files["w55"])),
            self._op("report.json.h23", ["report", "--input", files["h23"][0]],
                     self._check_report(files["h23"])),
            self._op("verify." + suite, ["verify", "--suite", suite, "--m", "2", "--n", "2",
                                         "--samples", "100", "--seed", seeds[3]],
                     self._check_verify(suite)),
        ]
        # the heavy commands spread out between the light ones
        return light[:3] + detect[:1] + light[3:6] + seesaw + light[6:] + detect[1:]

    def _op(self, kind, args, check) -> Op:
        def call():
            self._n_children += 1
            if self.trace_dir is None:
                argv = [sys.executable, "-m", "ews.cli"] + args
            else:
                dump = os.path.join(self.trace_dir, f"child-{self._n_children}.json")
                argv = [sys.executable, os.path.join(HERE, "launch.py"), dump, "--"] + args
            res = run_child(argv, self.env, self.work_dir)
            self.max_child_rss_kb = max(self.max_child_rss_kb, res.maxrss_kb)
            return res

        return Op("cli." + kind, call, check,
                  lambda res: str(res.rc).encode() + b"\n" + res.stdout)

    # -- checks ------------------------------------------------------------

    @staticmethod
    def _json(res, rc=0):
        require(res.rc == rc, f"exit code {res.rc}, expected {rc}")
        try:
            return json.loads(res.stdout)
        except ValueError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from None

    def _check_state(self, res):
        mat = parse_matrix(self._json(res))
        require(np.abs(mat - mat.conj().T).max() <= 1e-12, "state is not Hermitian")
        check_close(float(np.trace(mat).real), 1.0, 1e-9, "state trace")
        require(eigvals_down(mat)[-1] >= -1e-9, "state is not PSD")

    def _check_family(self, res):
        mat = parse_matrix(self._json(res))
        require(np.abs(mat - mat.conj().T).max() <= 1e-12, "family witness is not Hermitian")
        check_close(float(np.trace(mat).real), 1.0, 1e-9, "family witness trace")

    def _check_report(self, entry):
        _, mat, m, n = entry

        def check(res):
            obj = self._json(res)
            lam = eigvals_down(mat)
            got = np.asarray(obj["lambdas"], dtype=float)
            tol = EIG_RTOL * scale(mat)
            require((obj["m"], obj["n"]) == (m, n), "report dims differ from input")
            require(got.shape == lam.shape and np.abs(got - lam).max() <= tol,
                    "report eigenvalues differ from numpy.linalg.eigvalsh")
            require(obj["is_ew"] == bool(lam[-1] < -1e-10 * scale(mat)), "is_ew disagrees")
            require(obj["all_pass"] == all(b["passed"] for b in obj["bounds"]),
                    "all_pass disagrees with the bound rows")
        return check

    def _check_csv(self, entry):
        _, mat, _, _ = entry

        def check(res):
            require(res.rc == 0, f"exit code {res.rc}, expected 0")
            rows = {r["name"]: r for r in csv.DictReader(io.StringIO(res.stdout.decode()))}
            lam = eigvals_down(mat)
            tol = EIG_RTOL * scale(mat)
            check_close(float(rows["lambda1"]["measured"]), lam[0], tol, "csv lambda1")
            check_close(float(rows["lambda_min"]["measured"]), lam[-1], tol, "csv lambda_min")
        return check

    def _check_min(self, entry):
        _, mat, _, _ = entry

        def check(res):
            obj = self._json(res)
            a = [complex(re, im) for re, im in obj["vec_a"]]
            b = [complex(re, im) for re, im in obj["vec_b"]]
            check_close(product_value(mat, a, b), obj["value"], EIG_RTOL * scale(mat),
                        "<a,b|W|a,b> at the returned vectors")
            check_in_spectrum(obj["value"], mat, "see-saw minimum")
            require(obj["restarts_tried"] == CLI_SEESAW_RESTARTS,
                    "restart count differs from request")
        return check

    def _check_verdict(self, entry):
        _, mat, _, _ = entry

        def check(res):
            require(res.rc in (0, 1), f"exit code {res.rc}, expected 0 or 1")
            obj = self._json(res, rc=res.rc)
            require(obj["status"] in VERDICTS, f"unknown verdict {obj['status']!r}")
            require(res.rc == (0 if obj["status"].startswith("yes") else 1),
                    f"exit code {res.rc} does not match verdict {obj['status']}")
            if obj["value"] is not None:
                check_in_spectrum(obj["value"], mat, "see-saw minimum")
            if obj["status"] == "no":
                require(obj["counterexample_value"] < 0.0, "counterexample is not negative")
        return check

    def _check_mirror(self, entry):
        _, mat, m, n = entry

        def check(res):
            obj = self._json(res)
            w = mat / np.trace(mat).real
            check_in_spectrum(obj["mu"], w, "mirror mu")
            w_m = parse_matrix(obj["mirror_operator"])
            require(np.abs(w_m - (obj["mu"] * np.eye(m * n) - w)).max() <= 1e-12 * scale(w),
                    "mirror operator differs from mu I - W")
        return check

    def _check_detect(self, entry):
        _, rho, _, _ = entry

        def check(res):
            obj = self._json(res)
            check_certificate(parse_matrix(obj["witness"]), rho, obj["expectation"])
        return check

    def _check_verify(self, suite):
        def check(res):
            obj = self._json(res)
            require(obj["suite"] == suite and obj["passed"] and obj["n_fail"] == 0,
                    f"suite {suite} did not pass")
        return check


WORKLOADS = {"spectra": Spectra, "certify": Certify, "seesaw": Seesaw, "cli": Cli}
