"""Time the mode-N MTTKRP pass Y_(N)^T conj(K) as one product and summed
over column slabs, the evidence behind ``cpfast.kruskal.MTTKRP_SLAB``.

Usage (from the root of a checkout):

    python3 tools/mttkrp_slabs.py [--grid real:100x100x100:5,...] [--repeat 15]

Each grid item is ``KIND:DIMS:R``, KIND ``real`` or ``complex``.  For each,
a Gaussian tensor Y and a Gaussian K x R matrix (K = J / I_N) are drawn from
a fixed seed, and the product is timed, best of ``--repeat`` runs on one BLAS
thread, three ways: as one matmul, summed over slabs of c columns and over
slabs of 2c, with c = max(64, MTTKRP_SLAB // (I_N R)), the kernel's rule for
real data (complex data keeps one matmul).  A row holds the item's kind,
dims and rank, K, c, the three times in ms and the relative difference
||M - M_1|| / ||M_1|| between the kernel's result M
(``cpfast.kruskal._last_mttkrp``) and the one matmul's M_1.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from cpfast.kruskal import MTTKRP_SLAB, _last_mttkrp  # noqa: E402
from cpfast.tensor import DenseTensor, _gaussian  # noqa: E402

GRID = (
    "real:100x100x100:5,real:100x100x100:10,real:100x100x100:20,"
    "real:200x200x50:5,real:50x50x400:5,real:1000x1000x8:3,"
    "real:30x30x30x30:4,real:300x300x10:2,"
    "complex:100x100x100:5,complex:60x60x60:5"
)
HEADER = ("kind", "dims", "R", "K", "c", "single_ms", "slab_ms", "slab2_ms", "rel_diff")


def _items(text: str) -> list:
    items = []
    for part in filter(None, text.split(",")):
        kind, dims, rank = part.split(":")
        if kind not in ("real", "complex"):
            raise argparse.ArgumentTypeError(f"unknown kind {kind!r} in {part!r}")
        items.append((kind, tuple(int(d) for d in dims.split("x")), int(rank)))
    return items


def slabs(yt: np.ndarray, kr: np.ndarray, width: int) -> np.ndarray:
    """yt conj(kr) summed over slabs of ``width`` columns of ``yt``."""
    out = yt[:, :width] @ kr[:width].conj()
    for s in range(width, yt.shape[1], width):
        out += yt[:, s : s + width] @ kr[s : s + width].conj()
    return out


def best_ms(fn, repeat: int) -> float:
    """The best of ``repeat`` runs of ``fn``, in ms per call, each run long
    enough (about 10 ms) for the clock to resolve."""
    t0 = time.perf_counter()
    fn()
    number = max(1, round(0.01 / max(time.perf_counter() - t0, 1e-9)))
    runs = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        runs.append((time.perf_counter() - t0) / number)
    return 1e3 * min(runs)


def measure(kind: str, dims: tuple, rank: int, repeat: int) -> tuple:
    rng = np.random.default_rng(0)
    y = DenseTensor(_gaussian(rng, dims, kind))
    k = y.size // dims[-1]
    kr = _gaussian(rng, (k, rank), kind)
    yt = y.data.reshape((-1, dims[-1]), order="F").T
    width = max(64, MTTKRP_SLAB // (dims[-1] * rank))
    single = yt @ kr.conj()
    times = [
        best_ms(lambda w=w: slabs(yt, kr, w), repeat) for w in (k, width, 2 * width)
    ]
    diff = np.linalg.norm(_last_mttkrp(y, kr) - single) / np.linalg.norm(single)
    return (kind, "x".join(map(str, dims)), rank, k, width, *times, diff)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", type=_items, default=GRID)
    parser.add_argument("--repeat", type=int, default=15)
    args = parser.parse_args(argv)
    print(*HEADER)
    for kind, dims, rank in args.grid:
        row = measure(kind, dims, rank, args.repeat)
        print(*row[:5], *(f"{t:.3f}" for t in row[5:8]), f"{row[8]:.1e}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
