"""Host-speed calibration: a fixed numpy kernel timed next to every fit.

Other tenants of a shared host slow the whole benchmark process, by up to
1.8x and for minutes at a time (see README.md, "Measurements").  No clock in
the process avoids it: CPU time slows as much as wall time.  So before every
timed fit the benchmark times a kernel of its own, which never calls cpfast,
and reports solve times at the kernel's reference speed:

    reported seconds = measured seconds x ref_s / (mean kernel seconds)

where the mean is over the kernel samples taken next to the measured work.
A change to cpfast moves the measured seconds and not the kernel, so it moves
the reported seconds by the same factor; a slow stretch of the host slows
both, and cancels.

Contention slows small-call Python code and dense BLAS work by different
amounts, so each workload names the kernel that does its kind of work:

- ``small``: small-matrix numpy calls, bound by Python and call overhead,
  like the fits of the overhead-bound swamp workload;
- ``tall``: a tall matmul and a norm over an 8 MB array, like the MTTKRPs
  and residuals of the tensor-bound workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

_rng = np.random.default_rng(20120512)
_SMALL_A = _rng.standard_normal((20, 3))
_SMALL_Y = _rng.standard_normal((400, 20))
_SMALL_M = _rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
_TALL_Y = _rng.standard_normal((10000, 100))
_TALL_B = _rng.standard_normal((100, 5))


def _small() -> float:
    acc = 0.0
    for _ in range(30):
        k = _SMALL_Y @ _SMALL_A
        g = (_SMALL_A.T @ _SMALL_A) * (_SMALL_A.T @ _SMALL_A)
        acc += float(np.linalg.norm(np.linalg.solve(g + _SMALL_M, k.T)))
    return acc


def _tall() -> float:
    acc = 0.0
    for _ in range(12):
        acc += float(np.linalg.norm(_TALL_Y @ _TALL_B)) + float(np.linalg.norm(_TALL_Y))
    return acc


_KERNELS = {"small": _small, "tall": _tall}

# Seconds one kernel call takes on the reference host in a quiet stretch
# (near the fastest of a few thousand samples): Intel Xeon (family 6,
# model 143), 2 vCPUs under KVM, numpy 2.4 with scipy-openblas 0.3.31, one
# BLAS thread.  They fix the unit of the reported times and nothing else.
REF_S = {"small": 1.5e-3, "tall": 20e-3}


@dataclass(frozen=True)
class Calibration:
    kind: str  # a key of REF_S

    @property
    def ref_s(self) -> float:
        return REF_S[self.kind]

    def sample(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        acc = _KERNELS[self.kind]()
        elapsed = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise RuntimeError("calibration kernel produced a non-finite value")
        return elapsed

    def scale(self, samples) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return self.ref_s * len(samples) / sum(samples)
