"""cpfast benchmark: time-to-tolerance of fLM against ALS-ls.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload swamp-small --seed 0 --seconds 45 --trace 0

Generates the workload's problems from ``--seed``, fits each one with
``cpfast.fit`` at the default ``tol``/``max_iters`` (``variant="auto"``, then
``variant="als-ls"``), one fit at a time, and checks every result.  Whole
passes over the problem set repeat while ``--seconds`` allows.  Before every
fit the host-speed kernel of calibration.py is timed; reported solve times
are the mean over the passes, scaled to that kernel's reference speed.  With ``--trace 1`` the untraced passes are followed by one
pass under the span recorder of tracer.py, and the per-layer metrics are
printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it is
the run record: provenance, computed kernel counts and one entry per fit,
with the text of any error.  Spans of a traced run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# BLAS threads are pinned before numpy is first imported (by this process or
# by the import-timing children), so timings do not depend on core count.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

VARIANTS = {"flm": "auto", "als": "als-ls"}
STOP_REASONS = ("tol", "max_iters", "mu_overflow")
# A fit solves its problem when it reaches the generating model's residual.
REF_RTOL = 1e-3
REF_ATOL = 1e-6
# Reported final_relerr must match a recomputation from the returned model.
CONSISTENCY_RTOL = 1e-6
CONSISTENCY_ATOL = 1e-12
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "flm_solve_s": "s",
    "als_solve_s": "s",
    "flm_solved_frac": "ratio",
    "als_solved_frac": "ratio",
    "flm_accuracy_db": "dB",
    "als_accuracy_db": "dB",
    "peak_rss_mb": "MB",
}

SELF_TIMED = (
    "solver.flm_step",
    "solver.damped_als_factor",
    "solver.compute_w",
    "solver.flm_update",
    "hessian.b_matrix",
    "hessian.kernel_matrix",
    "hessian.kernel_inverse",
    "hessian.psi_blocks",
    "hessian.apply_damped_inverse",
    "hessian.apply_damped_hessian",
    "kruskal.svd_init",
    "kruskal.mttkrp",
    "kruskal.relative_error",
    "kruskal.reconstruct",
    "kruskal.build_gram_cache",
    "kruskal.normalize_equal_energy",
    "kruskal.pinv_psd",
    "kruskal.als_step",
    "kruskal.als_line_search_step",
    "tensor.unfold",
    "tensor.fold",
    "tensor.khatri_rao_excl",
)
FLM_PER_ITER = (
    "hessian.kernel_is_invertible",
    "hessian.apply_damped_inverse",
    "kruskal.mttkrp",
    "kruskal.relative_error",
    "numpy.linalg.inv",
)
ALS_PER_ITER = ("kruskal.mttkrp", "kruskal.relative_error")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (for example, no cpfast source)."""


@dataclass
class FitRecord:
    problem: str
    variant: str
    seconds: float
    iters: int = 0
    accepted_iters: int = 0
    stop_reason: str = ""
    final_relerr: float = math.nan
    ref_relerr: float = math.nan
    medsae_db: float = math.nan
    solved: bool = False
    consistent: bool = False
    error: str | None = None
    calib_s: float = math.nan

    @property
    def failed(self) -> bool:
        """The operation failed: the fit raised or stopped on an error."""
        return self.error is not None


def pin_threads() -> dict:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}


def import_cpfast():
    """Import cpfast from this checkout's src/, never from an installed copy."""
    if not (SRC / "cpfast" / "__init__.py").is_file():
        raise SetupError(f"no cpfast package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpfast

    if not Path(cpfast.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"cpfast imported from {cpfast.__file__}, not {SRC}")
    return cpfast


def time_fresh_import() -> float:
    """Wall time from starting a fresh interpreter to cpfast imported in it.

    The child reads the clock itself once the import is done: timing the
    parent's wait instead would add the 50 ms polling steps that
    ``subprocess`` uses to wait with a timeout.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import cpfast; "
        "print(repr(time.time()))"
    )
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        timeout=120,
        capture_output=True,
        text=True,
    )
    return float(done.stdout.split()[-1]) - t0


def timed_fit(fit, tensor, config):
    """One closed-loop fit; returns (result or the exception raised, seconds)."""
    t0 = time.perf_counter()
    try:
        outcome = fit(tensor, config)
    except Exception as exc:  # the benchmark must score every fit and go on
        outcome = exc
    return outcome, time.perf_counter() - t0


def score(problem, variant, outcome, seconds) -> FitRecord:
    """Check one fit against its problem, outside the timed region."""
    from cpfast.kruskal import relative_error
    from cpfast.synth import medsae_pair

    record = FitRecord(problem.label, variant, seconds, ref_relerr=problem.ref_relerr)
    if isinstance(outcome, Exception):
        record.error = f"{type(outcome).__name__}: {outcome}"
        return record
    record.iters = outcome.iters
    record.accepted_iters = outcome.accepted_iters
    record.stop_reason = outcome.stop_reason
    record.final_relerr = outcome.final_relerr
    if outcome.stop_reason not in STOP_REASONS:
        record.error = outcome.stop_reason
        return record
    recomputed = relative_error(problem.tensor, outcome.model)
    record.consistent = (
        outcome.iters >= 1
        and math.isfinite(recomputed)
        and abs(recomputed - outcome.final_relerr)
        <= CONSISTENCY_RTOL * recomputed + CONSISTENCY_ATOL
    )
    record.solved = (
        math.isfinite(outcome.final_relerr)
        and outcome.final_relerr <= (1 + REF_RTOL) * problem.ref_relerr + REF_ATOL
    )
    scores = medsae_pair(problem.truth, outcome.model)
    record.medsae_db = float(scores["per_component"].mean())
    return record


def run_pass(cpfast, problems, calib, tracer=None) -> list:
    """Fit every problem with fLM then ALS-ls; fit ids count within the pass.

    The host-speed kernel runs just before each fit, outside its timed region.
    """
    records = []
    for problem in problems:
        for variant in VARIANTS.values():
            config = cpfast.FitConfig(rank=problem.cell.rank, variant=variant)
            calib_s = calib.sample()
            span = tracer.fit(len(records), variant) if tracer else nullcontext()
            with span:
                outcome, seconds = timed_fit(cpfast.fit, problem.tensor, config)
            record = score(problem, variant, outcome, seconds)
            record.calib_s = calib_s
            records.append(record)
    return records


def pass_metrics(passes, calib) -> dict:
    """End-to-end numbers of a run's passes over the same problems.

    Times are the mean pass total, scaled to the calibration kernel's
    reference speed by the kernel samples taken next to the same fits.
    Outcomes repeat exactly from pass to pass, so they come from the first.
    """
    out = {}
    for short, variant in VARIANTS.items():
        recs = [r for r in passes[0] if r.variant == variant]
        timed = [r for p in passes for r in p if r.variant == variant]
        raw_s = sum(r.seconds for r in timed) / len(passes)
        out[f"{short}_raw_s"] = raw_s
        out[f"{short}_solve_s"] = raw_s * calib.scale([r.calib_s for r in timed])
        out[f"{short}_solved_frac"] = sum(r.solved for r in recs) / len(recs)
        scored = [r.medsae_db for r in recs if not math.isnan(r.medsae_db)]
        # Accuracy in dB is -MedSAE, so that the metric is positive.
        out[f"{short}_accuracy_db"] = (
            -statistics.median(scored) if scored else math.nan
        )
        out[f"{short}_iters"] = sum(r.iters for r in recs)
        out[f"{short}_accepted"] = sum(r.accepted_iters for r in recs)
    return out


def measure(cpfast, problems, calib, seconds: float) -> list:
    """Repeat whole untraced passes while the next one fits into ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(cpfast, problems, calib))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return passes


def same_outcome(a, b) -> bool:
    """Passes over the same inputs must repeat exactly (single-threaded BLAS)."""
    return all(
        (x.problem, x.variant, x.iters, x.stop_reason, x.error)
        == (y.problem, y.variant, y.iters, y.stop_reason, y.error)
        and (x.final_relerr == y.final_relerr or x.error is not None)
        for x, y in zip(a, b, strict=True)
    )


def l3_bytes() -> int | None:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    keys = ("name", "version", "openblas configuration")
    return {k: blas[k] for k in keys if k in blas}


def kernel_counts(cell) -> dict:
    """Computed (not measured) flops and bytes of one call, real flops.

    mttkrp (mode 1): 2 J R flops for the matmul, (N-2) (J/I_1) R for the
    Khatri-Rao product; minimum traffic reads the tensor and the Khatri-Rao
    matrix once and writes the I_1 x R result.  relative_error: the same
    Khatri-Rao product and a 2 J R matmul to rebuild the tensor, J for the
    difference and 2 J for each of the two norms; as written it reads Y twice
    and writes and reads the reconstruction once.  For complex scalars the
    product terms are counted four times over (a complex multiply-add is 8
    real flops against 2), an approximation for the Khatri-Rao part.
    """
    j = math.prod(cell.dims)
    r = cell.rank
    n = len(cell.dims)
    scalar = 16 if cell.scalar_kind == "complex" else 8
    cplx = 4 if cell.scalar_kind == "complex" else 1
    kr = (n - 2) * (j // cell.dims[0]) * r
    mttkrp_flops = cplx * (2 * j * r + kr)
    mttkrp_bytes = scalar * (j + (j // cell.dims[0]) * r + cell.dims[0] * r)
    relerr_flops = cplx * (2 * j * r + kr) + 5 * j
    relerr_bytes = scalar * 4 * j
    return {
        "label": "computed",
        "tensor_bytes": scalar * j,
        "mttkrp": {
            "flops": mttkrp_flops,
            "bytes": mttkrp_bytes,
            "flops_per_byte": mttkrp_flops / mttkrp_bytes,
        },
        "relative_error": {
            "flops": relerr_flops,
            "bytes": relerr_bytes,
            "flops_per_byte": relerr_flops / relerr_bytes,
        },
    }


def provenance(args, workload, problems, threads) -> dict:
    import numpy as np
    import scipy

    cells = {p.cell.label: p.cell for p in problems}
    return {
        "workload": workload.name,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "problems": len(problems),
        "problem_seeds": sorted({p.seed for p in problems}),
        "tensor_bytes_total": sum(p.tensor.data.nbytes for p in problems),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l3_bytes": l3_bytes(),
        "kernels": {label: kernel_counts(c) for label, c in cells.items()},
    }


def layer_metrics(tracer, traced, untraced, adjacent) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Iteration counts and ms/iter come from the untraced passes of the same
    run, so tracing overhead does not inflate them; the overhead itself
    compares the traced pass with the untraced pass just before it, both
    scaled by their own calibration samples.
    """
    from tracer import LAYERS

    selfs = tracer.self_times()
    flm, als = VARIANTS["flm"], VARIANTS["als"]
    flm_iters, als_iters = untraced["flm_iters"], untraced["als_iters"]
    out = {
        "solver.flm_iters": (flm_iters, "count"),
        "solver.als_iters": (als_iters, "count"),
        "solver.flm_accept_ratio": (untraced["flm_accepted"] / flm_iters, "ratio"),
        "solver.flm_ms_per_iter": (1e3 * untraced["flm_solve_s"] / flm_iters, "ms"),
        "solver.als_ms_per_iter": (1e3 * untraced["als_solve_s"] / als_iters, "ms"),
    }
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (selfs.get((flm, name), 0.0) + selfs.get((als, name), 0.0), "s")
    b_calls = tracer.calls[(flm, "hessian.b_matrix")]
    kinv = tracer.extra[(flm, "b_matrix_kinv")] / b_calls if b_calls else 0.0
    out["hessian.b_matrix.kinv_frac"] = (kinv, "ratio")
    for name in FLM_PER_ITER:
        out[f"{name}.per_iter"] = (tracer.calls[(flm, name)] / flm_iters, "count")
    for name in ALS_PER_ITER:
        out[f"{name}.als_per_iter"] = (tracer.calls[(als, name)] / als_iters, "count")
    mttkrp_s = out["kruskal.mttkrp.self_s"][0]
    flops = tracer.extra[(flm, "mttkrp_flops")] + tracer.extra[(als, "mttkrp_flops")]
    out["kruskal.mttkrp.gflops"] = (flops / mttkrp_s / 1e9 if mttkrp_s else 0.0, "GFLOP/s")
    # Share of each variant's fit time spent in each layer's own code.
    for short, variant in VARIANTS.items():
        total = tracer.fit_seconds(variant)
        for layer in LAYERS:
            share = sum(
                t
                for (v, name), t in selfs.items()
                if v == variant and name.startswith(layer + ".")
            )
            out[f"{layer}.{short}_frac"] = (share / total, "ratio")
    overhead = traced["flm_solve_s"] / adjacent["flm_solve_s"] - 1
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    t_start = time.perf_counter()
    cpfast = import_cpfast()
    from workloads import WORKLOADS, make_problems

    if args.workload not in WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]
    from calibration import Calibration

    calib = Calibration(workload.calibration)
    first_import_s = time.perf_counter() - t_start

    import_s = [time_fresh_import() for _ in range(SETUP_REPEATS)]
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        problems = make_problems(workload, args.seed)
        gen_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(gen_s)

    all_records = measure(cpfast, problems, calib, args.seconds)
    untraced = pass_metrics(all_records, calib)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "provenance": provenance(args, workload, problems, threads),
        "setup": {
            "first_import_s": first_import_s,
            "fresh_import_s": import_s,
            "generate_s": gen_s,
        },
        "calibration": {
            "kind": calib.kind,
            "ref_s": calib.ref_s,
            "median_s": statistics.median(
                r.calib_s for recs in all_records for r in recs
            ),
        },
        "passes": len(all_records),
        "raw_solve_s": {k: untraced[f"{k}_raw_s"] for k in VARIANTS},
        "fits": [asdict(r) for r in all_records[0]],
    }

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced_records = run_pass(cpfast, problems, calib, tracer)
        finally:
            tracer.uninstall()
        traced = pass_metrics([traced_records], calib)
        adjacent = pass_metrics(all_records[-1:], calib)
        metrics = layer_metrics(tracer, traced, untraced, adjacent)
        all_records.append(traced_records)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload.name}-seed{args.seed}.spans.jsonl.gz"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["span_count"] = len(tracer.spans)
    else:
        values = dict(untraced, setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {
            name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()
        }

    flat = [r for recs in all_records for r in recs]
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    correct = (
        finite
        and all(r.consistent for r in flat if not r.failed)
        and all(same_outcome(all_records[0], recs) for recs in all_records[1:])
    )
    record["errors"] = sorted(
        {f"{r.problem} {r.variant}: {r.error}" for r in flat if r.failed}
    )
    print(json.dumps(record, default=str))
    result = {
        "correct": correct,
        "attempted": len(flat),
        "failed": sum(r.failed for r in flat),
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
