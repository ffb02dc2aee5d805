"""Host-speed calibration.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same work can take up to twice as long for seconds to minutes at a time, in
CPU time as well as in wall time.  ``kernel_s`` times a fixed piece of
benchmark-owned work (small complex eigensolves, einsum contractions and
scalar Python, the instruction mix of the ews see-saw) that never calls the
program under test, so a change to the program cannot change it.

An operation's reference time is its wall time scaled by
``KERNEL_REF_S / kernel time measured around it``: the time the operation
would have taken with the host at the speed at which the kernel takes
``KERNEL_REF_S``.  ``KERNEL_REF_S`` is the kernel's median time on the
reference machine (2 cores, Intel Xeon, Python 3.11.7, numpy 2.4.6) while
the host was quiet, so there one reference second is about one second.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_REF_S = 0.0060
_REPS = 300

_rng = np.random.default_rng(20250811)
_H = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_H = _H + _H.conj().T
_W4 = _rng.standard_normal((3, 3, 3, 3)) + 1j * _rng.standard_normal((3, 3, 3, 3))
_A = _H[0, :3].copy()


def _kernel() -> float:
    acc = 0.0
    a = _A
    for _ in range(_REPS):
        vals, vecs = np.linalg.eigh(_H)
        red = np.einsum("i,ijkl,k->jl", a.conj(), _W4, a)
        a = vecs[:3, 0] + 0.5 * red[:, 0]
        a = a / np.linalg.norm(a)
        acc += float(vals[0]) + abs(complex(red[0, 0]))
        for j in range(40):
            acc += j * 0.5
    return acc


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Median kernel time over five runs, as a multiple of the reference:
    1.0 on the quiet reference host, 1.8 when it is 1.8 times slower."""
    kernel_s()  # the first run pays numpy's lazy set-up
    return statistics.median(kernel_s() for _ in range(5)) / KERNEL_REF_S
