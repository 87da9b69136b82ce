"""Shared test settings and helpers.

Property tests run with a derandomized Hypothesis profile, no deadline and no
example database, so every run draws the same examples and slow hosts do not
fail on timing.
"""

import numpy as np
import pytest
from hypothesis import settings

from cpfast.kruskal import build_gram_cache, gradient
from cpfast.oracle import assemble_phi, build_parts
from cpfast.solver import flm_step

settings.register_profile("cpfast", derandomize=True, deadline=None, database=None)
settings.load_profile("cpfast")


def _damped_step(form, y, model, mu):
    if form == "flm-a":
        return flm_step(y, model, mu)
    cache = build_gram_cache(model)
    parts = build_parts(cache, model.factors)
    gtilde = np.linalg.inv(parts.G + mu * np.eye(parts.G.shape[0]))
    u = gtilde @ gradient(y, model, cache)
    w = np.linalg.solve(assemble_phi(cache, mu, "phi2"), parts.Z.conj().T @ u)
    return u - gtilde @ parts.Z @ w


@pytest.fixture
def damped_step():
    """The damped dGN step (H + mu I)^{-1} g by one of the paper's two block
    forms of the inverse.  "flm-a" (Phi_1 = I + Psi K) is the fast core the
    solver runs, :func:`cpfast.solver.flm_step`.  "flm-b" (Phi_2 = K^{-1} +
    Psi) is kept only as a dense oracle: G~ g - G~ Z Phi_2^{-1} Z^H G~ g with
    G~ = (G + mu I)^{-1} and the closed-form K^{-1} of :mod:`cpfast.oracle`."""
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
