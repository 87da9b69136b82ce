"""Shared test settings and helpers.

Property tests run with a derandomized Hypothesis profile, no deadline and no
example database, so every run draws the same examples and slow hosts do not
fail on timing.
"""

import numpy as np
import pytest
from hypothesis import settings

from cpfast.kruskal import (
    build_gram_cache,
    gradient,
    model_from_stack,
    model_from_vector,
    mttkrp,
    random_init,
    stack,
    svd_init,
)
import cpfast.solver
from cpfast.oracle import assemble_phi, build_parts
from cpfast.solver import flm_step

settings.register_profile("cpfast", derandomize=True, deadline=None, database=None)
settings.load_profile("cpfast")


def _damped_step(form, y, model, mu):
    cache = build_gram_cache(model)
    g = gradient(y, model, cache)
    if form == "flm-a":
        g = stack(model_from_vector(g, model.dims, model.rank).factors)
        v = flm_step(stack(model.factors), cache, g, mu)[0]
        return model_from_stack(v, model.dims).as_vector()
    parts = build_parts(cache, model.factors)
    gtilde = np.linalg.inv(parts.G + mu * np.eye(parts.G.shape[0]))
    u = gtilde @ g
    w = np.linalg.solve(assemble_phi(cache, mu, "phi2"), parts.Z.conj().T @ u)
    return u - gtilde @ parts.Z @ w


@pytest.fixture(scope="session")
def damped_step():
    """The damped dGN step (H + mu I)^{-1} g, as a stacked vector, by one of
    the paper's two block forms of the inverse.  "flm-a" (Phi_1 = I + Psi K)
    is the fast core the solver runs: the Gauss-Newton step v of
    :func:`cpfast.solver.flm_step`, the one step a fit takes, on the stacks of
    the model and of g.  "flm-b" (Phi_2 = K^{-1} + Psi) is kept only as a
    dense oracle: G~ g - G~ Z Phi_2^{-1} Z^H G~ g with G~ = (G + mu I)^{-1}
    and the closed-form K^{-1} of :mod:`cpfast.oracle`.  Session-scoped, so
    property tests can take it."""
    return _damped_step


def _equal_energy_loop(model):
    """Per-component reference for the equal-energy normalization."""
    factors = [f.copy() for f in model.factors]
    for r in range(model.rank):
        norms = np.array([np.linalg.norm(f[:, r]) for f in factors])
        target = np.prod(norms) ** (1.0 / model.order)
        for n in range(model.order):
            factors[n][:, r] *= target / norms[n]
        lead = factors[0][:, r]
        top = lead[np.argmax(np.abs(lead))]
        phase = top / np.abs(top) if top != 0 else 1.0
        factors[0][:, r] /= phase
        factors[-1][:, r] *= phase
    return factors


@pytest.fixture
def equal_energy_loop():
    """Per-component loop that rescales every component to equal norms in all
    modes and makes the largest entry of its first-mode vector real-positive,
    folding the phase into the last mode; the reference for
    :func:`cpfast.kruskal.normalize_with_grams`."""
    return _equal_energy_loop


def _svd_start(y, config):
    """``svd_init`` of ``y`` from the generator of ``config.seed`` that a fit
    draws from, and its mode-N MTTKRP."""
    model = svd_init(y, config.rank, np.random.default_rng([config.seed, 0]))
    return model, mttkrp(y, model, y.order)


def _random_start(y, config):
    """``random_init`` of ``y`` from the generator of ``config.seed`` that a
    fit draws from, and its mode-N MTTKRP."""
    rng = np.random.default_rng([config.seed, 0])
    model = random_init(y.dims, config.rank, rng, y.scalar_kind)
    return model, mttkrp(y, model, y.order)


def _hand_starts(monkeypatch, build):
    """Run each loop (:func:`cpfast.solver._fit_lm`,
    :func:`cpfast.solver._fit_als`) from ``build`` of its tensor and the
    ``FitConfig``, whatever start the front end hands it, and return
    ``build``."""

    def handing(loop):
        def handed(y, config, t0, start, last, *args, **kwargs):
            return loop(y, config, t0, *build(y, config), *args, **kwargs)

        return handed

    for name in ("_fit_lm", "_fit_als"):
        monkeypatch.setattr(cpfast.solver, name, handing(getattr(cpfast.solver, name)))
    return build


@pytest.fixture
def svd_start(monkeypatch):
    """Every plain fit in the test iterates from the SVD start of Y / ||Y||
    itself, not from a start of its ST-HOSVD core: each loop is handed
    ``svd_init`` of the unit tensor and its mode-N MTTKRP in place of the
    start the front end built.  For tests that measure the loop, not the
    start, on that trajectory bit for bit: from the GEVD start a noiseless
    fit is exact before its first step, and a noisy one skips the iterations
    these tests count.  Returns the function that builds the handed start
    from the unit tensor and the ``FitConfig``."""
    return _hand_starts(monkeypatch, _svd_start)


@pytest.fixture
def random_start(monkeypatch):
    """As ``svd_start``, with Gaussian factors of Y / ||Y|| itself, drawn
    from the fit's seed, in place of the SVD start: the handed start costs
    one pass over Y, its mode-N MTTKRP."""
    return _hand_starts(monkeypatch, _random_start)
