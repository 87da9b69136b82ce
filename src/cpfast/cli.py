"""Command-line interface: benchmark generation, fitting, Monte-Carlo sweeps,
spectral feasibility reports, and the identity-verification suite."""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import bench as benchmod
from . import cptn
from .kruskal import KruskalModel
from .solver import FitConfig, INITS, VARIANTS, fit
from .synth import CollinearSpec, add_noise, gen_collinear, spectrum
from .tensor import COMPLEX, REAL
from .verify import format_report, run_suite


def _snr(text: str) -> float | None:
    """One SNR in dB; 'inf' and 'none' (any case) mean noiseless, None."""
    value = math.inf if text.lower() == "none" else float(text)
    return None if math.isinf(value) else value


def _algo(text: str) -> str:
    if text not in VARIANTS:
        raise ValueError(f"unknown algo {text!r} (choose from {', '.join(VARIANTS)})")
    return text


def _items(convert):
    """``convert`` applied to each item of a comma-separated text."""
    return lambda text: tuple(
        convert(part.strip()) for part in text.split(",") if part.strip()
    )


def _checked(convert):
    """Click callback that parses an option's text with ``convert`` (None
    passes through); a ValueError becomes a usage error naming the option."""

    def callback(ctx, param, value):
        try:
            return None if value is None else convert(value)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from None

    return callback


def _fail(message: str):
    """Print ``message`` as one line on stderr and exit with status 1."""
    click.echo(message, err=True)
    sys.exit(1)


@click.group()
def main():
    """CP decomposition benchmark toolkit."""


@main.command("gen")
@click.option("--dims", required=True, callback=_checked(_items(int)),
              help="Comma-separated sizes, e.g. 20,20,20.")
@click.option("--rank", "-r", type=int, required=True)
@click.option("--nu", type=float, required=True, help="Collinearity parameter > 0.")
@click.option("--snr", "snr_db", default=None, callback=_checked(_snr),
              help="SNR in dB; omit or 'inf' for noiseless.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--complex", "use_complex", is_flag=True, help="Complex scalars.")
@click.option("--out", default="collinear", show_default=True, help="Output prefix.")
def cmd_gen(dims, rank, nu, snr_db, seed, use_complex, out):
    """Generate a collinear benchmark tensor plus ground-truth factors."""
    kind = COMPLEX if use_complex else REAL
    try:
        spec = CollinearSpec(dims, rank, nu, snr_db, seed, kind)
    except ValueError as exc:
        _fail(str(exc))
    truth, tensor = gen_collinear(spec)

    prefix = Path(out)
    cptn.write_tensor(f"{prefix}.cptn", tensor)
    factor_paths = []
    for n, factor in enumerate(truth.factors, start=1):
        path = f"{prefix}_factor{n}.cptn"
        cptn.write_matrix(path, factor)
        factor_paths.append(path)
    meta = {
        "dims": ",".join(str(d) for d in spec.dims),
        "R": rank,
        "nu": nu,
        "snr_db": "inf" if snr_db is None else snr_db,
        "seed": seed,
        "scalar_kind": kind,
        "factors": ";".join(factor_paths),
        "tensor": f"{prefix}.cptn",
    }
    if snr_db is not None:
        noisy = add_noise(tensor, snr_db, seed)
        cptn.write_tensor(f"{prefix}_noisy.cptn", noisy)
        meta["noisy_tensor"] = f"{prefix}_noisy.cptn"
    cptn.write_metadata(f"{prefix}.meta", meta)
    click.echo(f"wrote {prefix}.cptn ({tensor.scalar_kind}, dims {spec.dims})")


def _load_truth(meta_path, dims, rank) -> KruskalModel:
    """The generating model of a ``gen`` run; exits 1 with one line if the
    sidecar names no factor files, if one cannot be read as a matrix, or if
    the model's dims or rank differ from the fit's, which MedSAE could not
    score."""
    try:
        paths = cptn.read_metadata(meta_path)["factors"].split(";")
        truth = KruskalModel([cptn.read_matrix(p) for p in paths])
    except KeyError:
        _fail(f"{meta_path}: no factors entry in the truth sidecar")
    except (ValueError, OSError) as exc:
        _fail(f"{meta_path}: {exc}")
    if truth.dims != dims or truth.rank != rank:
        _fail(f"truth model has dims {truth.dims} and rank {truth.rank}; "
              f"the fit has dims {dims} and rank {rank}")
    return truth


def _write_trace(path, trace) -> None:
    """One JSON object per iteration record (JSONL), in trace order, with
    every non-finite number (ALS's NaN gain ratio and norms) written as
    null."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in trace:
            row = {
                key: None if isinstance(val, float) and not math.isfinite(val)
                else val
                for key, val in asdict(rec).items()
            }
            fh.write(json.dumps(row, allow_nan=False) + "\n")


@main.command("fit")
@click.argument("tensor_file", type=click.Path(exists=True))
@click.option("--algo", type=click.Choice(VARIANTS), default="auto", show_default=True)
@click.option("--rank", "-r", type=int, required=True)
@click.option("--tau", type=float, default=1e-3, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iters", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--init", type=click.Choice(INITS), default="svd")
@click.option("--truth", default=None, type=click.Path(exists=True),
              help="Metadata sidecar of the generating run, for MedSAE scoring.")
@click.option("--out", default=None, help="Prefix for fitted factors + CSV record.")
@click.option("--trace", "trace_path", default=None, type=click.Path(dir_okay=False),
              help="Write the per-iteration trace here as JSON lines.")
def cmd_fit(tensor_file, algo, rank, tau, tol, max_iters, seed, init, truth, out,
            trace_path):
    """Decompose a tensor file with the selected algorithm."""
    try:
        y = cptn.read_tensor(tensor_file)
    except cptn.FormatError as exc:
        _fail(f"{tensor_file}: {exc}")
    try:
        config = FitConfig(
            rank=rank, variant=algo, tau=tau, tol=tol,
            max_iters=max_iters, seed=seed, init=init,
        )
    except ValueError as exc:
        _fail(str(exc))
    truth_model = _load_truth(truth, y.dims, rank) if truth else None
    try:
        result = fit(y, config)
    except (ValueError, ZeroDivisionError) as exc:
        # Input that fit rejects: NaN or infinite entries, an all-zero
        # tensor, order below 2.
        _fail(str(exc))
    record = benchmod.record_from_result(
        result, truth_model, seed, float("nan"), rank, None, algo
    )
    click.echo(
        f"algo={algo} iters={record.iters} accepted={record.accepted_iters} "
        f"relerr={record.final_relerr:.3e} stop={record.stop_reason} "
        f"time_ms={record.time_ms:.1f}"
    )
    if out:
        for n, factor in enumerate(result.model.factors, start=1):
            cptn.write_matrix(f"{out}_factor{n}.cptn", factor)
        benchmod.write_csv(f"{out}.csv", [record])
        click.echo(f"wrote {out}.csv")
    if trace_path:
        _write_trace(trace_path, result.trace)
        click.echo(f"wrote {trace_path}")
    if record.error:
        click.echo(record.error, err=True)
    if record.stop_reason in benchmod.FAILED:
        sys.exit(1)


@main.command("bench")
@click.option("--dims", default="20,20,20", show_default=True,
              callback=_checked(_items(int)))
@click.option("--rank", "ranks", default="3", show_default=True,
              callback=_checked(_items(int)), help="Comma-separated ranks.")
@click.option("--nu", "nus", default="0.1,0.9", show_default=True,
              callback=_checked(_items(float)))
@click.option("--snr", "snrs", default="inf", show_default=True,
              callback=_checked(_items(_snr)))
@click.option("--algos", default="als-ls,auto", show_default=True,
              callback=_checked(_items(_algo)),
              help=f"Comma-separated, from {', '.join(VARIANTS)}.")
@click.option("--seeds", type=int, default=10, show_default=True)
@click.option("--complex", "use_complex", is_flag=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
@click.option("--max-iters", type=int, default=1000, show_default=True)
@click.option("--out", default="bench.csv", show_default=True)
def cmd_bench(dims, ranks, nus, snrs, algos, seeds, use_complex, tol, max_iters,
              out):
    """Monte-Carlo sweep over (nu, R, SNR) x seeds x algorithms."""
    # Every (dims, rank, nu) spec is checked before the sweep, so a bad one
    # exits with a usage error instead of an error row in every cell.
    for rank_val, nu_val in itertools.product(ranks, nus):
        try:
            CollinearSpec(dims, rank_val, nu_val)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from None
    records = benchmod.run_grid(
        dims,
        ranks,
        nus,
        snrs,
        algos,
        seeds,
        COMPLEX if use_complex else REAL,
        tol=tol,
        max_iters=max_iters,
    )
    benchmod.write_csv(out, records)
    summary = benchmod.summarize(records)
    summary_path = str(Path(out).with_name(Path(out).stem + "_summary.csv"))
    benchmod.write_summary_csv(summary_path, summary)
    click.echo(f"wrote {len(records)} rows to {out}; summary in {summary_path}")
    for row in summary:
        click.echo(
            f"nu={row['nu']} R={row['R']} snr={row['snr_db']} algo={row['algo']}: "
            f"median_iters={row['median_iters']} "
            f"median_relerr={row['median_relerr']}"
        )


@main.command("spectrum")
@click.option("--size", "-i", type=int, required=True, help="Cubic dimension I.")
@click.option("--rank", "-r", type=int, required=True)
@click.option("--order", "-n", type=int, default=3, show_default=True)
@click.option("--nu", "nus", default="0.1", show_default=True,
              callback=_checked(_items(float)))
@click.option("--snr", "snrs", default="inf", show_default=True,
              callback=_checked(_items(_snr)))
@click.option("--csv", "csv_path", default=None, help="Optional CSV output path.")
def cmd_spectrum(size, rank, order, nus, snrs, csv_path):
    """Closed-form unfolding spectrum versus the noise floor per (nu, SNR)."""
    rows = []
    for nu_val in nus:
        for snr_db in snrs:
            try:
                rep = spectrum(size, rank, order, nu_val, snr_db)
            except ValueError as exc:
                _fail(str(exc))
            verdict = "feasible" if rep.feasible else "infeasible"
            click.echo(
                f"nu={nu_val} snr={'inf' if snr_db is None else snr_db}: "
                f"lam_max={rep.lam_max:.6g} lam_mid={rep.lam_mid:.6g} "
                f"lam_min={rep.lam_min:.6g} noise_floor={rep.noise_floor:.6g} "
                f"-> {verdict}"
            )
            rows.append((nu_val, snr_db, rep))
    if csv_path:
        benchmod.write_rows(
            csv_path,
            ["nu", "snr_db", "x", "y", "lam_max", "lam_mid", "lam_min",
             "sigma2", "noise_floor", "norm2", "feasible"],
            [[nu_val, "inf" if snr_db is None else snr_db, rep.x, rep.y,
              rep.lam_max, rep.lam_mid, rep.lam_min, rep.sigma2,
              rep.noise_floor, rep.norm2, rep.feasible]
             for nu_val, snr_db, rep in rows],
        )
        click.echo(f"wrote {csv_path}")


@main.command("verify")
@click.option("--seeds", type=int, default=10, show_default=True)
@click.option("--perturb", is_flag=True,
              help="Inject a deliberate defect (the suite must then fail).")
def cmd_verify(seeds, perturb):
    """Run every structural-identity check against dense oracles."""
    results = run_suite(seeds=seeds, perturb=perturb)
    click.echo(format_report(results))
    if any(not r.passed for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
