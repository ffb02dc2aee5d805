"""Span tracer for the benchmark's traced run.

Wraps the public functions of each ews module at every name they are bound
under (modules import by name, so wrapping ``ews.linalg.eig_hermitian``
alone would miss the see-saw's own binding in ``ews.blockpos``).  Each call
records a span (layer key, start, end, parent) in columnar arrays kept in
memory; counters ride along at the same boundaries.  ``aggregate`` turns
spans and counters into the per-layer metrics listed in ``PER_LAYER``.

Nothing here changes what a wrapped function computes: the wrapper calls
the original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import json
import os
import sys
import time
import warnings
from array import array
from collections import Counter

import numpy as np

# (module defining the function, attribute, layer key).  Every ews module
# that holds the same function object under the same name is rebound too.
TARGETS = (
    ("ews.linalg", "eig_hermitian", "linalg.eig_hermitian"),
    ("ews.linalg", "require_hermitian", "linalg.require_hermitian"),
    ("ews.linalg", "svd", "linalg.svd"),
    ("ews.linalg", "operator_to_json", "linalg.json"),
    ("ews.linalg", "operator_from_json", "linalg.json"),
    ("ews.linalg", "read_operator", "linalg.json"),
    ("ews.linalg", "write_operator", "linalg.json"),
    ("ews.states", "is_ppt", "states.is_ppt"),
    ("ews.blockpos", "product_expectation_min", "blockpos.seesaw"),
    ("ews.blockpos", "product_expectation_max", "blockpos.seesaw"),
    ("ews.blockpos", "is_block_positive", "blockpos.is_block_positive"),
    ("ews.witness", "spectral_report", "witness.spectral_report"),
    ("ews.witness", "sample_dew", "witness.sample_dew"),
    ("ews.witness", "mirror", "witness.mirror"),
    ("ews.witness", "ndew_from_edge", "witness.ndew_from_edge"),
    ("ews.witness", "detect_npt", "witness.detect_npt"),
    ("ews.verify", "run_suite", "verify.run_suite"),
    ("ews.cli", "main", "cli.main"),
)

# Bindings that must be wrapped once the tracer is installed; a missing one
# means a layer would be traced only in part.
REQUIRED_BINDINGS = (
    [(mod, "eig_hermitian") for mod in
     ("ews.linalg", "ews.states", "ews.blockpos", "ews.witness", "ews.verify", "ews")]
    + [(mod, fn) for mod in ("ews.witness", "ews.verify")
       for fn in ("ndew_from_edge", "detect_npt", "spectral_report", "mirror", "sample_dew")]
    + [("ews.cli", "operator_to_json"), ("ews.cli", "read_operator")]
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("linalg.eig_hermitian.seesaw.calls", "count", "lower"),
    ("linalg.eig_hermitian.seesaw.self_s", "s", "lower"),
    ("linalg.eig_hermitian.direct.calls", "count", "lower"),
    ("linalg.eig_hermitian.direct.self_s", "s", "lower"),
    ("linalg.eig_hermitian.computed_d3", "count", "lower"),
    ("linalg.require_hermitian.calls", "count", "lower"),
    ("linalg.require_hermitian.self_s", "s", "lower"),
    ("linalg.svd.calls", "count", "lower"),
    ("linalg.svd.self_s", "s", "lower"),
    ("linalg.json.self_s", "s", "lower"),
    ("linalg.json.bytes", "bytes", "lower"),
    ("linalg.runtime_warnings", "count", "lower"),
    ("states.is_ppt.calls", "count", "lower"),
    ("states.is_ppt.self_s", "s", "lower"),
    ("states.PureState.from_vector.calls", "count", "lower"),
    ("states.PureState.from_vector.self_s", "s", "lower"),
    ("states.PureState.from_vector.fails", "count", "lower"),
    ("blockpos.seesaw.calls", "count", "lower"),
    ("blockpos.seesaw.self_s", "s", "lower"),
    ("blockpos.seesaw.iterations", "count", "lower"),
    ("blockpos.seesaw.restarts_tried", "count", "lower"),
    ("blockpos.seesaw.converged_ratio", "1", "higher"),
    ("blockpos.is_block_positive.calls", "count", "lower"),
    ("blockpos.is_block_positive.self_s", "s", "lower"),
    ("blockpos.is_block_positive.psd_shortcut_ratio", "1", "higher"),
    ("witness.spectral_report.calls", "count", "lower"),
    ("witness.spectral_report.self_s", "s", "lower"),
    ("witness.sample_dew.calls", "count", "lower"),
    ("witness.sample_dew.self_s", "s", "lower"),
    ("witness.mirror.calls", "count", "lower"),
    ("witness.mirror.self_s", "s", "lower"),
    ("witness.ndew_from_edge.calls", "count", "lower"),
    ("witness.ndew_from_edge.self_s", "s", "lower"),
    ("witness.ndew_from_edge.fails", "count", "lower"),
    ("witness.detect_npt.calls", "count", "lower"),
    ("witness.detect_npt.self_s", "s", "lower"),
    ("witness.detect_npt.fails", "count", "lower"),
    ("witness.base_cache.hit_ratio", "1", "higher"),
    ("verify.run_suite.calls", "count", "lower"),
    ("verify.run_suite.self_s", "s", "lower"),
    ("verify.checks_failed", "count", "lower"),
    ("cli.process_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Layer keys whose spans count failures (exceptions raised through them).
_FAIL_KEYS = ("states.PureState.from_vector", "witness.ndew_from_edge", "witness.detect_npt")


class Tracer:
    """In-memory span store plus counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self.paused = False
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def _wrap(self, fn, key: str):
        tracer = self
        if key == "linalg.eig_hermitian":
            seesaw_idx = self._intern(key + ".seesaw")
            direct_idx = self._intern(key + ".direct")
        else:
            plain_idx = self._intern(key)

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if key == "linalg.eig_hermitian":
                idx = seesaw_idx if tracer._active["blockpos.seesaw"] else direct_idx
            else:
                idx = plain_idx
            if key == "witness.ndew_from_edge" and tracer._active["witness.detect_npt"]:
                tracer.counters["witness.ndew_from_edge.under_detect"] += 1
            sid = len(tracer.start)
            tracer.key.append(idx)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(sid)
            tracer._active[key] += 1
            ok = False
            tracer.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                tracer.end[sid] = time.perf_counter()
                tracer._stack.pop()
                tracer._active[key] -= 1
                if ok:
                    tracer._count(key, args, out)
                elif key in _FAIL_KEYS:
                    tracer.counters[key + ".fails"] += 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def _count(self, key: str, args, out) -> None:
        c = self.counters
        if key == "linalg.eig_hermitian":
            d = int(np.shape(args[0])[0])
            c["linalg.eig_hermitian.computed_d3"] += d ** 3
        elif key == "linalg.json":
            if isinstance(out, dict):
                c["linalg.json.bytes"] += len(json.dumps(out))
            elif args and isinstance(args[0], str) and os.path.exists(args[0]):
                c["linalg.json.bytes"] += os.path.getsize(args[0])
        elif key == "blockpos.seesaw":
            c["blockpos.seesaw.iterations"] += int(out.iterations)
            c["blockpos.seesaw.restarts_tried"] += int(out.restarts_tried)
            c["blockpos.seesaw.restarts_converged"] += int(out.restarts_converged)
        elif key == "blockpos.is_block_positive":
            if out.status == "yes-psd":
                c["blockpos.is_block_positive.yes_psd"] += 1
        elif key == "verify.run_suite":
            c["verify.checks_failed"] += int(out.n_fail)

    # -- installing --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every binding of every target; returns the bindings that
        REQUIRED_BINDINGS names but that could not be wrapped."""
        ews_mods = [m for name, m in sorted(sys.modules.items())
                    if m is not None and (name == "ews" or name.startswith("ews."))]
        for mod_name, attr, key in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, key)
            for mod in ews_mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapped)
        states = sys.modules["ews.states"]
        descriptor = states.PureState.__dict__["from_vector"]
        self._restore.append((states.PureState, "from_vector", descriptor))
        states.PureState.from_vector = classmethod(
            self._wrap(descriptor.__func__, "states.PureState.from_vector")
        )
        return [f"{mod}.{attr}" for mod, attr in REQUIRED_BINDINGS
                if not hasattr(getattr(sys.modules.get(mod), attr, None), "__wrapped__")]

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- merging and output -------------------------------------------------

    def dump(self) -> dict:
        return {
            "names": self.names,
            "key": self.key.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": dict(self.counters),
        }

    def absorb(self, dumped: dict) -> None:
        """Append another process's spans (ids shifted) and add its counters."""
        offset = len(self.start)
        remap = [self._intern(n) for n in dumped["names"]]
        self.key.extend(remap[k] for k in dumped["key"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dumped["parent"])
        self.start.extend(dumped["start"])
        self.end.extend(dumped["end"])
        self.counters.update(dumped["counters"])

    def _columns(self):
        return (np.array(self.key, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def save(self, path: str) -> None:
        key, parent, start, end = self._columns()
        np.savez_compressed(path, names=np.array(self.names), key=key, parent=parent,
                            start=start, end=end)

    def aggregate(self) -> dict:
        """Per-layer metrics: calls, self time (span minus child spans),
        counters and ratios."""
        key, parent, start, end = self._columns()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child[: len(dur)]
        calls = np.bincount(key, minlength=len(self.names))
        self_s = np.bincount(key, weights=self_t, minlength=len(self.names))
        stats = {}
        for i, name in enumerate(self.names):
            stats[name + ".calls"] = int(calls[i])
            stats[name + ".self_s"] = float(self_s[i])
        c = self.counters
        stats.update(c)

        def ratio(num, den):
            return float(num) / den if den else 0.0

        stats["blockpos.seesaw.converged_ratio"] = ratio(
            c["blockpos.seesaw.restarts_converged"], c["blockpos.seesaw.restarts_tried"])
        stats["blockpos.is_block_positive.psd_shortcut_ratio"] = ratio(
            c["blockpos.is_block_positive.yes_psd"],
            stats.get("blockpos.is_block_positive.calls", 0))
        detects = stats.get("witness.detect_npt.calls", 0)
        stats["witness.base_cache.hit_ratio"] = (
            1.0 - ratio(c["witness.ndew_from_edge.under_detect"], detects) if detects else 0.0)
        return stats


class WarningCounter:
    """Counts every numpy RuntimeWarning raised while active (each
    occurrence, not just the first per code location)."""

    def __init__(self):
        self.count = 0
        self._ctx = None
        self._log = None

    def __enter__(self):
        self._ctx = warnings.catch_warnings(record=True)
        self._log = self._ctx.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        return self

    def drain(self) -> None:
        self.count += sum(1 for w in self._log if issubclass(w.category, RuntimeWarning))
        self._log.clear()

    def __exit__(self, *exc):
        self.drain()
        return self._ctx.__exit__(*exc)
