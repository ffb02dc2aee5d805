"""Closed-loop benchmark of the ews toolkit.

    python3 perfbench/run.py --workload {spectra,certify,seesaw,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  One caller issues one operation at a time and waits for it.  The
run measures whole cycles of the workload's mix, ending on the cycle
boundary nearest to S seconds, checks every result independently, and
prints a detail line (provenance, failures, digest) followed by the result
line: a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Times are reference times: wall time corrected for the
shared host's speed with the calibration kernel in calib.py.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a separate
traced run: it wraps each layer's public functions, runs cycles for S/2
seconds, then reruns the same operations untraced in a child process to get
the tracing overhead and to confirm the outputs are byte-identical, and
reports the per-layer metrics.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 4  # extra fresh processes; setup_s is the median of these and the run's own
# op_tail_ms is this percentile, the same in every run: a percentile that
# rose with the op count would move whenever the program got faster.
TAIL_PCT = 90.0
MAX_LISTED_FAILURES = 20
CAL_INTERVAL_S = 0.25  # run the calibration kernel at most this often
ENV_SEEN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EWS_THREADS")

# Layers each workload must exercise in the traced run (> 0), and counts
# that must stay at exactly zero.
REQUIRED_NONZERO = {
    "spectra": ("verify.run_suite.calls", "witness.sample_dew.calls",
                "witness.spectral_report.calls", "linalg.eig_hermitian.direct.calls",
                "linalg.require_hermitian.calls"),
    "certify": ("witness.detect_npt.calls", "witness.ndew_from_edge.calls",
                "blockpos.seesaw.calls", "linalg.eig_hermitian.seesaw.calls",
                "linalg.svd.calls", "states.PureState.from_vector.calls",
                "states.is_ppt.calls"),
    "seesaw": ("witness.mirror.calls", "blockpos.is_block_positive.calls",
               "blockpos.seesaw.calls", "linalg.eig_hermitian.seesaw.calls"),
    "cli": ("cli.main.calls", "cli.import_s", "cli.process_s", "linalg.json.bytes",
            "linalg.json.calls", "linalg.eig_hermitian.direct.calls",
            "blockpos.seesaw.calls"),
}
REQUIRED_ZERO = {"spectra": ("linalg.eig_hermitian.seesaw.calls",)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("spectra", "certify", "seesaw", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, help="run exactly this many operations (untraced reference)")
    p.add_argument("--setup-only", action="store_true", help="time set-up alone and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance.

def git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(root, ".git", name)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == name:
                    return parts[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ews")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # older numpy has no dict mode; provenance only
        return None


def provenance(np, env_seen, args, cpus_usable):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "env": env_seen,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
    }


# ---------------------------------------------------------------------------
# The closed loop.

def run_loop(wl, check_failed, cal, seconds=None, n_ops=None, tracer=None, warned=None):
    """Run whole cycles, ending on the cycle boundary nearest to `seconds`
    (or after exactly `n_ops` operations).  Checks run outside the op
    timing, with tracing paused.

    The calibration kernel runs before the first op and then after any op
    that ends at least CAL_INTERVAL_S after the previous kernel run.  An
    op's speed factor is the mean of the two kernel times around it over
    the kernel's reference time, and its reference time is its wall time
    over that factor."""
    lat, kinds, failures, speed = [], [], [], []
    kernel_prev = cal.kernel_s()
    t_kernel = time.perf_counter()
    first, every = hashlib.sha256(), hashlib.sha256()
    t_start = time.perf_counter()

    def calibrate():
        nonlocal kernel_prev, t_kernel
        kernel = cal.kernel_s()
        t_kernel = time.perf_counter()
        factor = (kernel_prev + kernel) / (2.0 * cal.KERNEL_REF_S)
        speed.extend([factor] * (len(lat) - len(speed)))
        kernel_prev = kernel

    c = 0
    while True:
        for op in wl.cycle(c):
            if n_ops is not None and len(lat) >= n_ops:
                break
            err = None
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # a failed op is recorded, never fatal
                err = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            lat.append(t1 - t0)
            kinds.append(op.kind)
            if err is None:
                if tracer is not None:
                    tracer.paused = True
                try:
                    op.check(res)
                    canon = op.canon(res)
                except check_failed as exc:
                    err = f"check failed: {exc}"
                except Exception as exc:
                    err = f"check raised {type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.paused = False
            if err is not None:
                failures.append({"index": len(lat) - 1, "kind": op.kind, "error": err[:500]})
                canon = b"error:" + err.split(":", 1)[0].encode()
            h = hashlib.sha256(op.kind.encode() + b"\0" + canon).digest()
            every.update(h)
            if c == 0:
                first.update(h)
            if warned is not None:
                warned.drain()
            if t1 - t_kernel >= CAL_INTERVAL_S:
                calibrate()
        c += 1
        if n_ops is not None:
            if len(lat) >= n_ops:
                break
        else:
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * elapsed / c >= seconds:
                break
    if len(speed) < len(lat):
        calibrate()
    return {
        "latencies": lat,
        "ref_latencies": [t / f for t, f in zip(lat, speed)],
        "speed": speed,
        "kinds": kinds,
        "failures": failures,
        "cycles": c,
        "loop_wall_s": time.perf_counter() - t_start,
        "digest_first_cycle": first.hexdigest(),
        "digest_all": every.hexdigest(),
    }


def tail(latencies):
    """Latency at TAIL_PCT, interpolated between ranks.  Returns (latency,
    percentile, ops beyond)."""
    lat = sorted(latencies)
    n = len(lat)
    pos = TAIL_PCT / 100.0 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    value = lat[lo] + (pos - lo) * (lat[hi] - lat[lo])
    return value, TAIL_PCT, sum(1 for t in lat if t > value)


def end_to_end(loop, setup_s, peak_rss_mb):
    """End-to-end metrics from the reference op times; the same figures
    from wall times go to the detail record."""
    n = len(loop["latencies"])
    failed = len(loop["failures"])

    def timing(lat):
        tail_s, tail_pct, beyond = tail(lat)
        return {"ops_per_s": (n - failed) / sum(lat), "op_p50_ms": 1e3 * statistics.median(lat),
                "op_tail_ms": 1e3 * tail_s}, tail_pct, beyond

    values, tail_pct, beyond = timing(loop["ref_latencies"])
    values.update({"setup_s": setup_s, "ok_ratio": (n - failed) / n, "peak_rss_mb": peak_rss_mb})
    info = {"tail_percentile": tail_pct, "tail_ops_beyond": beyond, "ops": n,
            "fail_ratio": failed / n, "wall": timing(loop["latencies"])[0],
            "speed_factor_median": statistics.median(loop["speed"])}
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, info


def setup_repeats(args) -> list:
    """Set-up times (wall and reference) of fresh processes that import ews
    and build inputs."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def reference_run(args, n_ops: int) -> dict:
    """The same operations, untraced, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--ops", str(n_ops), "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    for line in proc.stdout.splitlines():
        if line.startswith('{"detail"'):
            return json.loads(line)["detail"]
    raise RuntimeError(f"reference run printed no detail (exit {proc.returncode}): "
                       f"{proc.stderr[-500:]}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an error, so children are killed and files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env_seen = {k: os.environ.get(k) for k in ENV_SEEN}
    # One core for this process and every child it starts, so the
    # calibration kernel and the work it calibrates share a core.
    cpus_usable = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the workloads run with EWS_THREADS unset, in this process and its children
    os.environ.pop("EWS_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "ews", "__init__.py")):
        sys.stderr.write(f"run.py: no ews sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, SRC)

    import numpy as np
    import ews
    import workloads
    import calib
    from tracer import PER_LAYER, Tracer, WarningCounter

    if os.path.dirname(os.path.abspath(ews.__file__)) != os.path.join(SRC, "ews"):
        sys.stderr.write(f"run.py: imported ews from {ews.__file__}, not from {SRC}\n")
        return 2

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        cls = workloads.WORKLOADS[args.workload]
        if args.workload == "cli":
            wl = cls(args.seed, ROOT, work_dir)
        else:
            wl = cls(ews, args.seed)
        setup_wall_s = time.perf_counter() - T0
        setup = {"wall_s": setup_wall_s, "ref_s": setup_wall_s / calib.speed_factor()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        detail = {"provenance": provenance(np, env_seen, args, cpus_usable), "trace": args.trace}
        if args.trace == 0:
            with WarningCounter() as warned:
                loop = run_loop(wl, workloads.CheckFailed, calib, seconds=args.seconds,
                                n_ops=args.ops, warned=warned)
            if args.workload == "cli":
                rss_kb = wl.max_child_rss_kb
            else:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            setups = [setup] if args.ops is not None else [setup] + setup_repeats(args)
            metrics, info = end_to_end(loop, statistics.median(s["ref_s"] for s in setups),
                                       rss_kb / 1024.0)
            detail.update(info)
            detail["setup_samples"] = setups
            detail["runtime_warnings"] = warned.count
            correct = not loop["failures"]
        else:
            import ews.cli  # noqa: F401  (so the cli layer's bindings are wrapped too)

            tracer = Tracer()
            missing = tracer.install()
            if args.workload == "cli":
                wl.trace_dir = os.path.join(work_dir, "spans")
                os.makedirs(wl.trace_dir)
            try:
                with WarningCounter() as warned:
                    loop = run_loop(wl, workloads.CheckFailed, calib, seconds=args.seconds / 2.0,
                                    tracer=tracer, warned=warned)
            finally:
                tracer.uninstall()
            tracer.counters["linalg.runtime_warnings"] += warned.count
            if args.workload == "cli":
                tracer.counters["cli.process_s"] += sum(loop["latencies"])
                for i in range(1, len(loop["latencies"]) + 1):
                    path = os.path.join(wl.trace_dir, f"child-{i}.json")
                    if not os.path.isfile(path):
                        missing.append(f"(no span dump from cli child {i})")
                        continue
                    with open(path, encoding="utf-8") as fh:
                        dumped = json.load(fh)
                    missing += [m for m in dumped.pop("missing_bindings") if m not in missing]
                    tracer.absorb(dumped)
            ref = reference_run(args, len(loop["latencies"]))
            stats = tracer.aggregate()
            stats["trace.overhead_s"] = sum(loop["ref_latencies"]) - ref["ref_op_time_s"]
            metrics = {name: {"value": stats.get(name, 0), "unit": unit}
                       for name, unit, _ in PER_LAYER}
            problems = [f"binding not wrapped: {m}" for m in missing]
            problems += [f"{k} is 0 but this workload must exercise it"
                         for k in REQUIRED_NONZERO[args.workload] if not stats.get(k)]
            problems += [f"{k} is {stats.get(k)}, predicted 0"
                         for k in REQUIRED_ZERO.get(args.workload, ()) if stats.get(k)]
            if ref["digest_all"] != loop["digest_all"]:
                problems.append("traced outputs differ from the untraced reference run")
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
            tracer.save(trace_path)
            detail.update({
                "ops": len(loop["latencies"]),
                "traced_ref_op_time_s": sum(loop["ref_latencies"]),
                "untraced_ref_op_time_s": ref["ref_op_time_s"],
                "reference_digest_all": ref["digest_all"],
                "spans": len(tracer.start),
                "trace_file": os.path.relpath(trace_path, ROOT),
                "problems": problems,
            })
            correct = not loop["failures"] and not problems
        detail.update({
            "cycles": loop["cycles"],
            "op_time_s": sum(loop["latencies"]),
            "ref_op_time_s": sum(loop["ref_latencies"]),
            "loop_wall_s": loop["loop_wall_s"],
            "ops_by_kind": {k: loop["kinds"].count(k) for k in sorted(set(loop["kinds"]))},
            "op_latencies_ms": [round(1e3 * t, 3) for t in loop["latencies"]],
            "op_ref_latencies_ms": [round(1e3 * t, 3) for t in loop["ref_latencies"]],
            "op_kinds": loop["kinds"],
            "failures": loop["failures"][:MAX_LISTED_FAILURES],
            "digest_first_cycle": loop["digest_first_cycle"],
            "digest_all": loop["digest_all"],
        })
        result = {
            "correct": bool(correct),
            "attempted": len(loop["latencies"]),
            "failed": len(loop["failures"]),
            "metrics": metrics,
        }
        if args.ops is None:
            path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"detail": detail, "result": result}, fh, indent=1)
        print(json.dumps({"detail": detail}))
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
