"""Workload definitions: which CP problems each workload fits.

Every workload is a list of cells, each fitted once per problem seed.  The
problem seeds come from the workload seed alone, so the same ``--seed`` always
gives the same tensors.  A cell is a collinear ("swamp") problem from
``cpfast.synth.gen_collinear``, or, with ``nu=None``, a model with independent
Gaussian factors.  Why each workload exists is recorded in ``why`` and
explained at length in README.md.  ``calibration`` names the host-speed
kernel of calibration.py that does the same kind of work as the fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cpfast import (
    CollinearSpec,
    KruskalModel,
    add_noise,
    gen_collinear,
    reconstruct,
    relative_error,
)


@dataclass(frozen=True)
class Cell:
    dims: tuple
    rank: int
    nu: float | None
    snr_db: float | None
    scalar_kind: str = "real"

    @property
    def label(self) -> str:
        size = "x".join(str(d) for d in self.dims)
        snr = "inf" if self.snr_db is None else f"{self.snr_db:g}"
        shape = "random" if self.nu is None else f"nu{self.nu:g}"
        return f"{self.scalar_kind}-{size}-R{self.rank}-{shape}-snr{snr}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple
    seeds_per_cell: int
    calibration: str


@dataclass
class Problem:
    cell: Cell
    seed: int
    truth: object
    tensor: object
    ref_relerr: float

    @property
    def label(self) -> str:
        return f"{self.cell.label}-s{self.seed}"


SWAMP_3WAY = (20, 20, 20)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "swamp-small",
            "overhead-bound: the paper's swamp at 20^3 and 12^4, where "
            "small-matrix calls and Python overhead dominate",
            (
                Cell(SWAMP_3WAY, 3, 0.1, None),
                Cell(SWAMP_3WAY, 3, 0.1, 40.0),
                Cell(SWAMP_3WAY, 3, 0.5, 40.0),
                Cell(SWAMP_3WAY, 3, 0.3, 40.0, "complex"),
                Cell((12, 12, 12, 12), 4, 0.5, 40.0),
            ),
            seeds_per_cell=12,
            calibration="small",
        ),
        Workload(
            "tensor-tall",
            "tensor-bound: 100^3 at R=5 with Gaussian factors, where SVD "
            "init, MTTKRP and the dense residual dominate both solvers",
            (Cell((100, 100, 100), 5, None, 30.0),),
            seeds_per_cell=10,
            calibration="tall",
        ),
        # Seconds-long smoke workload for selftest.py; not in BENCHMARK.json.
        Workload(
            "tiny",
            "smoke test of the benchmark itself",
            (Cell((6, 6, 6), 2, 0.5, 30.0), Cell((5, 4, 3), 2, 0.5, 30.0, "complex")),
            seeds_per_cell=1,
            calibration="small",
        ),
    )
}


def problem_seed(workload_seed: int, k: int) -> int:
    """Seed of the k-th draw of every cell; distinct for distinct inputs."""
    return workload_seed * 1000 + k


def generate(cell: Cell, seed: int):
    """Ground-truth model and its noise-free tensor for one cell and seed."""
    if cell.nu is None:
        rng = np.random.default_rng([seed, 2])
        truth = KruskalModel([rng.standard_normal((d, cell.rank)) for d in cell.dims])
        return truth, reconstruct(truth)
    spec = CollinearSpec(
        cell.dims, cell.rank, cell.nu, cell.snr_db, seed, cell.scalar_kind
    )
    return gen_collinear(spec)


def make_problems(workload: Workload, workload_seed: int) -> list:
    """Generate the tensors and the accuracy reference of every problem.

    The reference is the relative error of the generating model on the noisy
    tensor: a least-squares fit that found the true basin does at least as
    well, whatever the noise draw.
    """
    problems = []
    for k in range(workload.seeds_per_cell):
        seed = problem_seed(workload_seed, k)
        for cell in workload.cells:
            truth, clean = generate(cell, seed)
            tensor = add_noise(clean, cell.snr_db, seed)
            problems.append(
                Problem(cell, seed, truth, tensor, relative_error(tensor, truth))
            )
    return problems
