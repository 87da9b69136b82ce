"""Collinear benchmark generator, noise calibration, spectral feasibility, and
MedSAE scoring, checked against measurements on the generated data itself."""

import math

import numpy as np
import pytest

from cpfast.kruskal import KruskalModel
from cpfast.synth import (
    CollinearSpec,
    add_noise,
    collinear_mixing,
    collinearity_angles,
    component_angles,
    component_magnitude,
    frobenius_sq_closed_form,
    gen_collinear,
    match_components,
    medsae,
    medsae_pair,
    spectrum,
)
from cpfast.tensor import COMPLEX, unfold

NUS = (0.1, 0.3, 0.5, 0.7, 1.0, 2.0, 3.0, 4.0, 5.0)


def measured_angle_deg(a, b):
    cos = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
    return math.degrees(math.acos(min(cos, 1.0)))


class TestSpec:
    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            CollinearSpec((4, 4, 4), 2, nu=0.0)

    def test_rank_exceeds_dims(self):
        with pytest.raises(ValueError):
            CollinearSpec((3, 8, 8), 4, nu=0.5)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_nu_not_finite_and_positive_rejected(self, nu):
        """Every entry point that takes nu rejects NaN and infinities as it
        rejects nu <= 0, so no NaN tensor or NaN angle is produced."""
        for make in (
            lambda: CollinearSpec((4, 4, 4), 2, nu=nu),
            lambda: collinearity_angles(nu),
            lambda: collinear_mixing(3, nu),
        ):
            with pytest.raises(ValueError, match="nu must be positive and finite"):
                make()


class TestGenerator:
    def test_seeded_determinism(self):
        spec = CollinearSpec((6, 6, 6), 3, nu=0.4, seed=11)
        t1, y1 = gen_collinear(spec)
        t2, y2 = gen_collinear(spec)
        assert np.array_equal(y1.data, y2.data)
        for a, b in zip(t1.factors, t2.factors):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("nu", NUS)
    def test_measured_angles_match_closed_forms(self, nu):
        truth, _ = gen_collinear(CollinearSpec((8, 8, 8), 3, nu, seed=0))
        theta_1r, theta_qr = collinearity_angles(nu)
        for f in truth.factors:
            assert abs(measured_angle_deg(f[:, 0], f[:, 1]) - theta_1r) < 0.01
            assert abs(measured_angle_deg(f[:, 1], f[:, 2]) - theta_qr) < 0.01

    @pytest.mark.parametrize("nu,order", [(3.0, 3), (0.5, 4)])
    def test_component_magnitudes(self, nu, order):
        dims = (6,) * order
        truth, _ = gen_collinear(CollinearSpec(dims, 2, nu, seed=1))
        norm = np.prod([np.linalg.norm(f[:, 1]) for f in truth.factors])
        assert np.isclose(norm, component_magnitude(nu, order), rtol=1e-10)

    @pytest.mark.parametrize("rank", [2, 3, 4])
    @pytest.mark.parametrize("nu", [0.2, 0.9, 3.0])
    def test_frobenius_closed_form(self, rank, nu):
        _, y = gen_collinear(CollinearSpec((6, 6, 6), rank, nu, seed=2))
        assert np.isclose(
            y.norm() ** 2, frobenius_sq_closed_form(rank, nu, 3), rtol=1e-8
        )

    def test_rank_one_norm_is_unit(self):
        """The closed form needs R >= 2; a single unit component has norm 1."""
        _, y = gen_collinear(CollinearSpec((6, 6, 6), 1, 0.5, seed=3))
        assert np.isclose(y.norm(), 1.0)
        with pytest.raises(ValueError):
            frobenius_sq_closed_form(1, 0.5, 3)

    def test_complex_generation(self):
        truth, y = gen_collinear(
            CollinearSpec((6, 6, 6), 2, 0.5, seed=4, scalar_kind=COMPLEX)
        )
        assert y.scalar_kind == COMPLEX
        assert np.abs(y.data.imag).max() > 0


class TestNoise:
    def test_infinite_snr_is_identity(self):
        _, y = gen_collinear(CollinearSpec((5, 5, 5), 2, 0.5, seed=0))
        assert add_noise(y, None, 0) is y
        assert add_noise(y, float("inf"), 0) is y

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_non_finite_snr_rejected(self, snr_db):
        """-inf is not noiseless and NaN would write an all-NaN tensor."""
        _, y = gen_collinear(CollinearSpec((5, 5, 5), 2, 0.5, seed=0))
        with pytest.raises(ValueError, match=f"got {snr_db!r}"):
            add_noise(y, snr_db, 0)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
    @pytest.mark.parametrize("kind", ["real", COMPLEX])
    def test_empirical_snr_within_tolerance(self, snr_db, kind):
        _, y = gen_collinear(
            CollinearSpec((22, 22, 22), 3, 0.5, seed=5, scalar_kind=kind)
        )
        noisy = add_noise(y, snr_db, seed=5)
        noise_norm2 = np.linalg.norm((noisy.data - y.data).ravel()) ** 2
        measured = 10.0 * math.log10(y.norm() ** 2 / noise_norm2)
        assert abs(measured - snr_db) < 0.3

    def test_zero_db_variance(self):
        _, y = gen_collinear(CollinearSpec((10, 10, 10), 2, 0.5, seed=6))
        sigma_sq = y.norm() ** 2 / y.size
        noisy = add_noise(y, 0.0, seed=6)
        sample = np.var((noisy.data - y.data).ravel())
        assert abs(sample - sigma_sq) / sigma_sq < 0.1


class TestSpectrum:
    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            spectrum(10, 1, 3, 0.5)

    @pytest.mark.parametrize(
        "size,rank,order,nu,snr_db,message",
        [
            (0, 3, 3, 0.1, None, "rank 3 exceeds smallest dimension 0"),
            (2, 3, 3, 0.1, None, "rank 3 exceeds smallest dimension 2"),
            (0, 3, 3, 0.1, 20.0, "rank 3 exceeds smallest dimension 0"),
            (10, 3, 3, 0.0, None, "nu must be positive"),
            (10, 3, 3, -0.5, None, "nu must be positive"),
            (10, 3, 1, 0.1, None, "order >= 2"),
            (10, 3, -1, 0.1, None, "order >= 2"),
        ],
        ids=["size-zero", "size-below-rank", "size-zero-noisy", "nu-zero",
             "nu-negative", "order-one", "order-negative"],
    )
    def test_collinear_spec_rules(self, size, rank, order, nu, snr_db, message):
        """The spectrum takes the swamps that CollinearSpec takes, and rejects
        the rest with ValueError instead of a verdict or a ZeroDivisionError."""
        with pytest.raises(ValueError, match=message):
            spectrum(size, rank, order, nu, snr_db)

    @pytest.mark.parametrize("snr_db", [-math.inf, math.nan])
    def test_non_finite_snr_rejected(self, snr_db):
        """-inf was reported feasible (noiseless), NaN infeasible (a NaN
        floor); both have no verdict.  +inf stays noiseless."""
        with pytest.raises(ValueError, match=f"snr_db must be finite.*{snr_db!r}"):
            spectrum(20, 3, 3, 0.1, snr_db)
        assert spectrum(20, 3, 3, 0.1, math.inf) == spectrum(20, 3, 3, 0.1)

    @pytest.mark.parametrize("nu", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("rank", [2, 3, 5])
    def test_vieta_identities(self, nu, rank):
        rep = spectrum(10, rank, 3, nu)
        x, y = rep.x, rep.y
        assert np.isclose(
            rep.lam_max + rep.lam_min, x * y + (rank - 2) * (rank + x + y) + 3
        )
        assert np.isclose(rep.lam_max * rep.lam_min, (x - 1) * (y - 1))
        assert rep.lam_max >= rep.lam_mid >= rep.lam_min > 0

    @pytest.mark.parametrize("nu", [0.3, 0.9, 2.0])
    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_matches_mixing_eigendecomposition(self, nu, rank):
        rep = spectrum(10, rank, 3, nu)
        q = collinear_mixing(rank, nu)
        sigma = q @ (q.T @ q) ** 2 @ q.T
        eigs = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        closed = np.array(
            [rep.lam_max] + [rep.lam_mid] * (rank - 2) + [rep.lam_min]
        )
        np.testing.assert_allclose(eigs, closed, rtol=1e-10)

    @pytest.mark.parametrize("nu", [0.4, 1.0])
    def test_matches_empirical_unfolding_spectrum(self, nu):
        rank = 3
        _, y = gen_collinear(CollinearSpec((12, 12, 12), rank, nu, seed=7))
        rep = spectrum(12, rank, 3, nu)
        mat = unfold(y, 1)
        eigs = np.sort(np.linalg.eigvalsh(mat @ mat.T))[::-1][:rank]
        closed = np.array(
            [rep.lam_max] + [rep.lam_mid] * (rank - 2) + [rep.lam_min]
        )
        np.testing.assert_allclose(eigs, closed, rtol=1e-6)

    def test_feasibility_verdicts(self):
        assert spectrum(100, 15, 3, 0.1, 20.0).feasible is False
        assert spectrum(100, 15, 3, 0.1, None).feasible is True
        assert spectrum(100, 15, 3, 0.1, None).noise_floor == 0.0

    def test_collinear_collapse(self):
        assert spectrum(10, 3, 3, 1e-6).lam_mid < 1e-11

    @pytest.mark.parametrize("order", [400, 80])
    def test_overflow_rejected(self, order):
        """(1 + nu^2)^(N-1) beyond float64 (order 400), or its square inside
        the discriminant (order 80), raises ValueError naming nu and order,
        not OverflowError or an infinite eigenvalue."""
        with pytest.raises(ValueError, match=f"nu=10.0 and order={order}"):
            spectrum(10, 3, order, 10.0)
        assert np.isfinite(spectrum(10, 3, 40, 10.0).lam_max)

    def test_closed_form_norm_overflow_rejected(self):
        with pytest.raises(ValueError, match="nu=10.0 and order=400"):
            frobenius_sq_closed_form(3, 10.0, 400)

    @pytest.mark.parametrize(
        "order,snr_db", [(400, 20.0), (3, 4000.0)], ids=["order-400", "snr-4000"]
    )
    def test_noise_floor_underflows_to_zero(self, order, snr_db):
        """A floor or sigma^2 below float64's range is 0, not an
        OverflowError from I^N or 10^(SNR/10); the floor stays
        ||Y||^2 10^(-SNR/10) / I."""
        rep = spectrum(10, 3, order, 0.1, snr_db)
        assert rep.sigma2 == 0.0
        expected = rep.norm2 * 10.0 ** (-snr_db / 10.0) / 10
        assert rep.noise_floor == pytest.approx(expected, rel=1e-15, abs=0)
        assert rep.feasible is (rep.lam_min > rep.noise_floor)

    def test_noise_floor_overflow_rejected(self):
        """A floor beyond float64 raises the one-line ValueError, not
        ZeroDivisionError; one just inside it is finite."""
        with pytest.raises(ValueError, match="noise floor overflows float64"):
            spectrum(10, 3, 3, 0.1, -4000.0)
        rep = spectrum(10, 3, 3, 0.1, -3000.0)
        assert rep.noise_floor == pytest.approx(rep.norm2 * 1e299, rel=1e-15)

    @pytest.mark.parametrize("size,order", [(3, 2), (10, 3), (100, 3), (7, 8)])
    def test_noise_floor_matches_direct_formula(self, size, order):
        """Where the direct formula sigma^2 = ||Y||^2 / (10^(SNR/10) I^N)
        and floor = sigma^2 I^(N-1) is finite, both agree with it within
        1e-15 relative."""
        for snr_db in (-30.0, 0.0, 7.3, 20.0, 60.0):
            rep = spectrum(size, 3, order, 0.5, snr_db)
            sigma2 = rep.norm2 / (10.0 ** (snr_db / 10.0) * float(size) ** order)
            assert rep.sigma2 == pytest.approx(sigma2, rel=1e-15, abs=0)
            floor = sigma2 * float(size) ** (order - 1)
            assert rep.noise_floor == pytest.approx(floor, rel=1e-15, abs=0)


class TestMedsae:
    def _truth(self, seed=0):
        truth, _ = gen_collinear(CollinearSpec((6, 6, 6), 3, 0.5, seed=seed))
        return truth

    def test_exact_estimate_hits_floor(self):
        truth = self._truth()
        scores = medsae_pair(truth, KruskalModel([f.copy() for f in truth.factors]))
        assert scores["first_db"] == -300.0
        assert scores["rest_db"] == -300.0
        assert np.all(scores["per_component"] == -300.0)

    def test_permutation_and_sign_invariance(self):
        truth = self._truth(1)
        perm = [2, 0, 1]
        flipped = KruskalModel(
            [f[:, perm] * np.array([-1.0, 1.0, -1.0]) for f in truth.factors]
        )
        base = medsae_pair(truth, truth)
        moved = medsae_pair(truth, flipped)
        np.testing.assert_allclose(
            base["per_component"], moved["per_component"]
        )
        assert np.array_equal(match_components(truth, flipped), np.argsort(perm))

    def test_phase_invariance_complex(self):
        truth, _ = gen_collinear(
            CollinearSpec((6, 6, 6), 2, 0.5, seed=2, scalar_kind=COMPLEX)
        )
        phases = np.exp(1j * np.array([0.3, -1.2]))
        rotated = KruskalModel([f * phases[None, :] for f in truth.factors])
        scores = medsae_pair(truth, rotated)
        assert np.all(scores["per_component"] <= -250.0)

    def test_db_angle_anchors(self):
        """-30 dB corresponds to about 2 degrees, -20 dB to about 6."""
        angles = np.full((3, 2), 10 ** (-30 / 20))
        scores = medsae([angles])
        assert np.isclose(scores["first_db"], -30.0)
        assert math.degrees(10 ** (-30 / 20)) == pytest.approx(1.81, abs=0.01)
        assert math.degrees(10 ** (-20 / 20)) == pytest.approx(5.73, abs=0.01)

    def test_median_over_runs(self):
        runs = [np.full((2, 2), a) for a in (0.001, 0.01, 0.1)]
        scores = medsae(runs)
        assert np.isclose(scores["first_db"], 10 * math.log10(0.01**2))

    def test_rank_mismatch_rejected(self):
        truth = self._truth(3)
        other, _ = gen_collinear(CollinearSpec((6, 6, 6), 2, 0.5, seed=3))
        with pytest.raises(ValueError):
            medsae_pair(truth, other)

    def test_zero_column_rejected(self):
        """An estimate with a zero-norm column scores NaN, which the
        assignment rejects instead of matching at random."""
        truth = self._truth(5)
        estimate = KruskalModel([f.copy() for f in truth.factors])
        estimate.factors[1][:, 2] = 0.0
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match="invalid numeric entries"):
                match_components(truth, estimate)

    def test_rank_one_has_no_rest(self):
        truth, _ = gen_collinear(CollinearSpec((5, 5, 5), 1, 0.5, seed=4))
        scores = medsae_pair(truth, truth)
        assert scores["rest_db"] is None
