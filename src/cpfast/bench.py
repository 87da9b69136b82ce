"""Monte-Carlo benchmark runner: one record per (cell x seed x algorithm),
with deterministic seeding and CSV output suitable for machine diffing."""

from __future__ import annotations

import csv
import itertools
import math
import statistics
from dataclasses import dataclass, fields

from .kruskal import KruskalModel
from .solver import FitConfig, fit
from .synth import CollinearSpec, add_noise, gen_collinear, medsae_pair
from .tensor import DenseTensor

# Stop reasons of a fit that ran to one of its stopping rules; any other
# reason (an error message) is recorded as "error" with its text kept.
STOP_REASONS = ("tol", "max_iters", "mu_overflow", "nonfinite")
# Runs whose numbers are not a usable fit.
FAILED = ("error", "nonfinite")


@dataclass
class RunRecord:
    seed: int
    nu: float
    R: int
    snr_db: float | None
    algo: str
    iters: int
    accepted_iters: int
    time_ms: float
    final_relerr: float
    medsae_first_db: float | None
    medsae_rest_db: float | None
    stop_reason: str
    error: str | None = None

    def __post_init__(self):
        if not (self.iters >= self.accepted_iters >= 0):
            raise ValueError("need iters >= accepted_iters >= 0")

    def row(self) -> list:
        return [_fmt(getattr(self, f.name)) for f in fields(self)]


CSV_COLUMNS = tuple(f.name for f in fields(RunRecord))
# Summary column -> the record field whose median over a cell's usable runs
# it holds.
MEDIANS = {
    "median_iters": "iters",
    "median_relerr": "final_relerr",
    "median_medsae_first_db": "medsae_first_db",
    "median_medsae_rest_db": "medsae_rest_db",
}
SUMMARY_COLUMNS = ("nu", "R", "snr_db", "algo", "runs", "errors") + tuple(MEDIANS)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def record_from_result(
    result, truth: KruskalModel, seed, nu, rank, snr_db, algo
) -> RunRecord:
    stop = result.stop_reason if result.stop_reason in STOP_REASONS else "error"
    scores = medsae_pair(truth, result.model) if truth is not None else None
    return RunRecord(
        seed=seed,
        nu=nu,
        R=rank,
        snr_db=snr_db,
        algo=algo,
        iters=result.iters,
        accepted_iters=result.accepted_iters,
        time_ms=result.time_ms,
        final_relerr=result.final_relerr,
        medsae_first_db=scores["first_db"] if scores else None,
        medsae_rest_db=scores["rest_db"] if scores else None,
        stop_reason=stop,
        error=result.stop_reason if stop == "error" else None,
    )


def run_grid(
    dims,
    ranks,
    nus,
    snrs,
    algos,
    seeds: int,
    scalar_kind: str = "real",
    tol: float = 1e-8,
    max_iters: int = 1000,
) -> list:
    """All (nu, R, snr) x seed x algo cells, deterministic order: each one
    fit of a :func:`~cpfast.synth.gen_collinear` tensor with
    :func:`~cpfast.synth.add_noise` noise, whose failure anywhere is
    recorded as an "error" row with its text."""
    records = []
    cells = itertools.product(nus, ranks, snrs, range(seeds), algos)
    for nu, rank, snr_db, seed, algo in cells:
        try:
            spec = CollinearSpec(dims, rank, nu, snr_db, seed, scalar_kind)
            truth, tensor = gen_collinear(spec)
            config = FitConfig(rank, algo, tol=tol, max_iters=max_iters, seed=seed)
            result = fit(add_noise(tensor, snr_db, seed), config)
            record = record_from_result(result, truth, seed, nu, rank, snr_db, algo)
        except Exception as exc:
            record = RunRecord(
                seed, nu, rank, snr_db, algo, 0, 0, 0.0, float("nan"), None,
                None, "error", f"{type(exc).__name__}: {exc}",
            )
        records.append(record)
    return records


def write_rows(path, header, rows) -> None:
    """A CSV file of ``header`` and then ``rows``, UTF-8 with LF endings."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_csv(path, records) -> None:
    write_rows(path, CSV_COLUMNS, [record.row() for record in records])


def _cell_order(cell) -> tuple:
    """Sort key of a (nu, R, snr_db, algo) cell: numeric, noiseless last."""
    nu, rank, snr_db, algo = cell
    return nu, rank, snr_db is None, snr_db or 0.0, algo


def summarize(records) -> list:
    """Per (nu, R, snr, algo) cell, in numeric order with the noiseless cells
    (snr None) last: the run and error counts and the ``MEDIANS``.

    ``errors`` counts the runs that failed (see ``FAILED``); the medians
    leave them out, and a median with no value to take is "".
    """
    cells = {}
    for rec in records:
        cells.setdefault((rec.nu, rec.R, rec.snr_db, rec.algo), []).append(rec)
    rows = []
    for cell in sorted(cells, key=_cell_order):
        group = cells[cell]
        ok = [r for r in group if r.stop_reason not in FAILED]
        row = dict(zip(("nu", "R", "snr_db", "algo"), cell))
        row.update(runs=len(group), errors=len(group) - len(ok))
        for column, name in MEDIANS.items():
            values = [getattr(r, name) for r in ok if getattr(r, name) is not None]
            row[column] = statistics.median(values) if values else ""
        rows.append(row)
    return rows


def write_summary_csv(path, rows) -> None:
    table = [[_fmt(row[c]) for c in SUMMARY_COLUMNS] for row in rows]
    write_rows(path, SUMMARY_COLUMNS, table)
