"""Self-checking identity suite: every structural claim the fast solver relies
on is re-derived from an independent dense oracle and compared at desk scale.

``run_suite`` fuzzes seeded random models and reports the worst observed error
per identity; ``perturb=True`` injects a deliberate defect so the suite itself
can be shown to catch one (negative control).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hessian import damped_core
from .kruskal import (
    KruskalModel,
    build_gram_cache,
    gradient,
    model_from_vector,
    random_init,
    reconstruct,
    second_order_term,
    st_hosvd,
    stack,
)
from .oracle import (
    assemble_hessian,
    build_parts,
    dense_damped_solve,
    dense_second_order_term,
    jacobian,
    kernel_inverse,
    kernel_matrix,
)
from .solver import _expanded_start, flm_step
from .synth import (
    CollinearSpec,
    collinear_mixing,
    frobenius_sq_closed_form,
    gen_collinear,
    spectrum,
)
from .tensor import COMPLEX, DenseTensor, REAL, _gaussian, fold, khatri_rao_excl, unfold

MU_GRID = (1e-6, 1e-2, 1.0, 1e3)
FD_STEP = 1e-6


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def _rel(delta: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(delta) / max(np.linalg.norm(ref), 1e-300))


def _random_instance(rng, scalar_kind):
    n_modes = int(rng.integers(2, 5))
    dims = tuple(int(rng.integers(2, 7)) for _ in range(n_modes))
    rank = int(rng.integers(1, 4))
    model = random_init(dims, rank, rng, scalar_kind)
    for f in model.factors:
        f /= np.linalg.norm(f, axis=0, keepdims=True)
    noise = _gaussian(rng, dims, scalar_kind)
    y = DenseTensor(reconstruct(model).data + 0.1 * noise)
    return y, model


def fd_gradient(y: DenseTensor, model: KruskalModel):
    """Central-difference gradient of ||Y - Yhat||^2, with step ``FD_STEP``,
    mapped to the analytic convention (the projected residual, i.e. -1/2 of
    the objective slope)."""

    def objective(vec):
        m = model_from_vector(vec, model.dims, model.rank)
        return float(np.linalg.norm(y.data - reconstruct(m).data) ** 2)

    base = model.as_vector()
    out = np.zeros_like(base)
    for k in range(base.size):
        for direction in ([1.0] if out.dtype.kind != "c" else [1.0, 1.0j]):
            e = np.zeros_like(base)
            e[k] = direction * FD_STEP
            slope = (objective(base + e) - objective(base - e)) / (2.0 * FD_STEP)
            out[k] += direction * slope
    return -0.5 * out


def compression_error(y: DenseTensor, rank: int) -> float:
    """The larger of the ST-HOSVD's two errors: how far its bases are from
    orthonormal columns, max ||U_n^H U_n - I||, and how far ||Y||^2 - ||G||^2
    is from ||Y - Y x_n U_n U_n^H||^2 (Pythagoras for the orthogonal
    projection), relative to ||Y||^2: the left side is a difference of two
    O(||Y||^2) numbers, so it resolves no finer, and a residual can be zero
    (an order-2 Y of rank R).  The projection is formed densely, mode by
    mode, through unfold and fold."""
    bases, core, _ = st_hosvd(y, rank)
    ortho = max(
        float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]))) for u in bases
    )
    proj = y
    for n, u in enumerate(bases, start=1):
        proj = fold(u @ (u.conj().T @ unfold(proj, n)), n, y.dims)
    resid = float(np.linalg.norm(y.data - proj.data)) ** 2
    gap = y.norm() ** 2 - core.norm() ** 2
    return max(ortho, abs(gap - resid) / y.norm() ** 2)


def compressed_start_error(y: DenseTensor, rank: int, rng) -> float:
    """Relative error of the compressed fit's start M^(N), formed from the
    ST-HOSVD's ``lead`` with no pass over Y, against the dense unfold(Y, N)
    conj(KR) of the expanded model, for a random model of the core and
    kappa = 0.5."""
    bases, core, lead = st_hosvd(y, rank)
    b = random_init(core.dims, rank, rng, core.scalar_kind)
    start, last = _expanded_start(bases, lead, b, 0.5)
    ref = unfold(y, y.order) @ khatri_rao_excl(start.factors, y.order).conj()
    return _rel(last - ref, ref)


def run_suite(seeds: int = 10, perturb: bool = False) -> list:
    """Execute every identity check; returns one CheckResult per identity."""
    worst = {}

    def record(name, err, tol):
        prev = worst.get(name)
        if prev is None or err > prev.max_err:
            worst[name] = CheckResult(name, err, tol)

    for seed in range(seeds):
        for kind in (REAL, COMPLEX):
            rng = np.random.default_rng([seed, 2])
            y, model = _random_instance(rng, kind)
            cache = build_gram_cache(model)
            tag = kind

            j = jacobian(model)
            h = assemble_hessian(model, cache)
            jhj = j.conj().T @ j
            record(f"hessian-blocks-{tag}", _rel(h - jhj, jhj), 1e-10)

            parts = build_parts(cache, model.factors)
            if perturb:
                parts.K = parts.K * (1.0 + 1e-3)
            lowrank = parts.G + parts.Z @ parts.K @ parts.Z.conj().T
            record(f"low-rank-adjust-{tag}", _rel(h - lowrank, h), 1e-12)

            k = kernel_matrix(cache)
            ktilde = kernel_inverse(cache)
            eye = np.eye(k.shape[0])
            record(f"kernel-inverse-{tag}", _rel(k @ ktilde - eye, eye), 1e-10)

            eye = np.eye(h.shape[0])
            for mu in MU_GRID:
                dense = np.linalg.inv(h + mu * eye)
                core = damped_core(stack(model.factors), model.dims, cache, mu)
                mat = np.column_stack([core(e) for e in eye])
                record(f"fast-inverse-{tag}", _rel(mat - dense, dense), 1e-8)

            for mu in (1e-4, 1e-1, 10.0):
                step = dense_damped_solve(y, model, mu)
                err = _rel(flm_step(y, model, mu) - step, step)
                record(f"step-equivalence-{tag}", err, 1e-8)

            g = gradient(y, model, cache)
            g_fd = fd_gradient(y, model)
            record(f"gradient-fd-{tag}", _rel(g - g_fd, g), 1e-5)

            v = random_init(model.dims, model.rank, rng, kind).as_vector()
            term = second_order_term(model.factors, cache.C, v)
            ref = dense_second_order_term(model, v)
            record(f"second-order-{tag}", _rel(term - ref, ref), 1e-10)

            record(f"compress-{tag}", compression_error(y, model.rank), 1e-10)
            err = compressed_start_error(y, model.rank, rng)
            record(f"compress-start-{tag}", err, 1e-10)

    for seed in range(max(1, seeds // 2)):
        size, rank, order = 10, 3, 3
        for nu in (0.3, 0.9, 2.0):
            report = spectrum(size, rank, order, nu)
            q = collinear_mixing(rank, nu)
            sigma = q @ (q.T @ q) ** (order - 1) @ q.T
            eigs = np.sort(np.linalg.eigvalsh(sigma))[::-1]
            closed = np.array(
                [report.lam_max]
                + [report.lam_mid] * (rank - 2)
                + [report.lam_min]
            )
            record("spectrum-closed-form", _rel(eigs - closed, closed), 1e-10)

            truth, tensor = gen_collinear(
                CollinearSpec((size,) * order, rank, nu, seed=seed)
            )
            record(
                "frobenius-closed-form",
                abs(tensor.norm() ** 2 - frobenius_sq_closed_form(rank, nu, order))
                / frobenius_sq_closed_form(rank, nu, order),
                1e-8,
            )

    return list(worst.values())


def format_report(results) -> str:
    lines = []
    for res in sorted(results, key=lambda r: r.name):
        status = "PASS" if res.passed else "FAIL"
        lines.append(
            f"{status}  {res.name:<28s} max_err={res.max_err:.3e}  tol={res.tol:.0e}"
        )
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} identities passed"
    )
    return "\n".join(lines)
