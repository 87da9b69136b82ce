"""Kruskal-model kernels against elementwise / dense-matrix oracles."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cpfast.kruskal
import cpfast.solver
from cpfast.kruskal import (
    MTTKRP_SLAB,
    KruskalModel,
    _batch_last_mttkrp,
    _contract_all_but,
    _contraction_shapes,
    _gradient,
    _gram_error,
    _last_mttkrp,
    _last_partial,
    _leading_left_vectors,
    _sweep,
    _sweep_plan,
    build_gram_cache,
    gram_stack,
    model_from_stack,
    normalize_with_grams,
    pinv_psd,
    random_init,
    reconstruct,
    relative_error,
    residual_decrease,
    second_order_term,
    st_hosvd,
    stack,
    svd_init,
)
from cpfast.oracle import (
    as_vector,
    dense_second_order_term,
    jacobian,
    model_from_vector,
)
from cpfast.solver import FitConfig, fit
from cpfast.synth import CollinearSpec, gen_collinear
from cpfast.tensor import (
    COMPLEX,
    DenseTensor,
    REAL,
    ScalarKindError,
    _khatri_rao_rows,
    fold,
    khatri_rao_excl,
    unfold,
)
from references import dense_mttkrp, last_mttkrp


def sweep(y, x):
    """One ALS sweep of the stack ``x`` on ``y``, as the fit loop runs it:
    the swept stack, its mode-N MTTKRP and its Gram stack."""
    return _sweep(y, x, _sweep_plan(y.dims, x.shape[1], x.dtype))


def normalize(model):
    """The equal-energy normalization of ``model`` from its Gram matrices."""
    x = stack(model.factors)
    return model_from_stack(normalize_with_grams(x, gram_stack(x))[0], model.dims)


def unit_pair(y, model):
    """Y / ||Y|| and ``model`` with its first factor divided by ||Y||: the
    same relative error, on the unit-norm Y that the Gram identity takes."""
    ynorm = y.norm()
    scaled = KruskalModel([model.factors[0] / ynorm] + model.factors[1:])
    return DenseTensor(y.data / ynorm), scaled


def random_model(rng, dims, rank, kind=REAL, scaled=False):
    """Gaussian factors; with ``scaled``, the last factor is A^(N) diag(w)
    for drawn scales w (complex for complex models), so components differ in
    size and phase."""
    model = random_init(dims, rank, rng, kind)
    if scaled:
        w = rng.standard_normal(rank)
        if kind == COMPLEX:
            w = w + 1j * rng.standard_normal(rank)
        model.factors[-1] = model.factors[-1] * w
    return model


def random_tensor(rng, dims, kind=REAL):
    data = rng.standard_normal(dims)
    if kind == COMPLEX:
        data = data + 1j * rng.standard_normal(dims)
    return DenseTensor(data)


def reconstruct_oracle(model):
    """Elementwise sum of rank-one outer products."""
    out = np.zeros(model.dims, dtype=model.factors[0].dtype)
    for idx in itertools.product(*[range(d) for d in model.dims]):
        for r in range(model.rank):
            term = 1.0
            for n, i in enumerate(idx):
                term = term * model.factors[n][i, r]
            out[idx] += term
    return out


class TestModel:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KruskalModel([np.zeros((3, 2)), np.zeros((4, 3))])

    def test_vector_roundtrip(self):
        """The stacked vector, the factors and the zero-padded stack convert
        into each other exactly through the oracle's ``model_from_vector``
        and ``as_vector`` and :func:`stack` and :func:`model_from_stack`,
        also with I_n = 1 and I_n < R at orders 3 and 4."""
        rng = np.random.default_rng(0)
        cases = [((3, 4, 5), 2), ((4, 4, 4), 2), ((2, 1, 4), 3), ((1, 3, 2, 4), 3)]
        for (dims, rank), kind in itertools.product(cases, [REAL, COMPLEX]):
            m = random_model(rng, dims, rank, kind)
            vec = as_vector(m)
            back = model_from_vector(vec, m.dims, m.rank)
            for a, b in zip(m.factors, back.factors):
                np.testing.assert_array_equal(a, b)
            x = stack(back.factors)
            np.testing.assert_array_equal(x, stack(m.factors))
            for xn, f in zip(x, m.factors):
                np.testing.assert_array_equal(xn[:, : len(f)], f.T)
                assert not xn[:, len(f) :].any()
            for a, b in zip(m.factors, model_from_stack(x, dims).factors):
                np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(as_vector(model_from_stack(x, dims)), vec)


class TestReconstruct:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_elementwise_oracle(self, kind, scaled):
        rng = np.random.default_rng(1)
        m = random_model(rng, (2, 3, 4), 2, kind, scaled)
        np.testing.assert_allclose(
            reconstruct(m).data, reconstruct_oracle(m), atol=1e-12
        )

    def test_unfolding_identity(self):
        """unfold(reconstruct, n) == A^(n) (KR excluding n)^T for every mode."""
        rng = np.random.default_rng(2)
        m = random_model(rng, (3, 4, 2, 3), 3, COMPLEX)
        y = reconstruct(m)
        for n in range(1, m.order + 1):
            np.testing.assert_allclose(
                unfold(y, n),
                m.factors[n - 1] @ khatri_rao_excl(m.factors, n).T,
                atol=1e-12,
            )


class TestGramCache:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_pieces_match_direct_products(self, kind):
        rng = np.random.default_rng(3)
        m = random_model(rng, (3, 4, 5), 2, kind)
        cache = build_gram_cache(m)
        C = [f.conj().T @ f for f in m.factors]
        for n in range(3):
            np.testing.assert_allclose(cache.C[n], C[n])
            np.testing.assert_allclose(
                cache.gamma_excl[n],
                reduce(np.multiply, [C[k] for k in range(3) if k != n]),
            )
            for mm in range(3):
                if n == mm:
                    continue
                rest = [C[k] for k in range(3) if k not in (n, mm)]
                np.testing.assert_allclose(
                    cache.kernel[n][mm], reduce(np.multiply, rest)
                )

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
    def test_masked_reduce_is_ascending_product(self, kind, n_modes):
        """The one masked reduce gives bit for bit the products taken in
        ascending mode order: each Gamma^(n), and each pairwise Gamma^(n,m),
        n != m, as an off-diagonal block of ``kernel``, whose diagonal
        blocks are zero."""
        rng = np.random.default_rng(n_modes)
        m = random_model(rng, (2, 3, 4, 3, 2)[:n_modes], 3, kind)
        cache = build_gram_cache(m)
        C = [f.conj().T @ f for f in m.factors]

        def ascending(skip):
            rest = [C[k] for k in range(n_modes) if k not in skip]
            return reduce(np.multiply, rest) if rest else np.ones_like(C[0])

        for n in range(n_modes):
            assert np.array_equal(cache.gamma_excl[n], ascending((n,)))
            for mm in range(n_modes):
                pair = 0 * C[0] if n == mm else ascending((n, mm))
                assert np.array_equal(cache.kernel[n, mm], pair)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("n_modes", [2, 3, 4])
    def test_model_parts_of_the_step(self, kind, n_modes):
        """``kernel[n, m]`` is the ascending product of C^(k) over k != n, m
        where n != m and zero where n = m, and ``c_masked[j, k]`` is C^(j),
        or ones where j = k, each block ``c_masked[j]`` contiguous."""
        rng = np.random.default_rng(40 + n_modes)
        m = random_model(rng, (2, 3, 4, 3)[:n_modes], 3, kind)
        cache = build_gram_cache(m)
        C = cache.C
        for n in range(n_modes):
            assert cache.c_masked[n].flags.c_contiguous
            for mm in range(n_modes):
                rest = [C[k] for k in range(n_modes) if k not in (n, mm)]
                pair = reduce(np.multiply, rest) if rest else np.ones_like(C[0])
                kernel = 0 * pair if n == mm else pair
                assert np.array_equal(cache.kernel[n, mm], kernel)
                ref = np.ones_like(pair) if n == mm else cache.C[n]
                assert np.array_equal(cache.c_masked[n, mm], ref)

    def test_empty_pair_product_is_ones(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, (3, 4), 2)
        cache = build_gram_cache(m)
        np.testing.assert_array_equal(cache.kernel[0][1], np.ones((2, 2)))

    def test_hermitian_grams(self):
        rng = np.random.default_rng(5)
        m = random_model(rng, (4, 4, 4), 3, COMPLEX)
        cache = build_gram_cache(m)
        for c in cache.C:
            np.testing.assert_allclose(c, c.conj().T)


class TestMttkrpGradient:
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_mttkrp_dense_oracle(self, kind):
        """The fit's MTTKRP kernels match the unfolding definition: mode N is
        ``_last_mttkrp`` of the Khatri-Rao product of modes 1..N-1, and a
        mode n < N a contraction of the partial product ``_last_partial``."""
        rng = np.random.default_rng(6)
        m = random_model(rng, (3, 4, 5), 2, kind)
        y = DenseTensor(
            rng.standard_normal((3, 4, 5))
            + (1j * rng.standard_normal((3, 4, 5)) if kind == COMPLEX else 0)
        )
        rows = [f.T for f in m.factors]
        pt = _last_partial(y, rows[-1])
        shapes = _contraction_shapes(y.dims, m.rank)
        for n in range(1, 4):
            expected = dense_mttkrp(y, m, n)
            if n == 3:
                got = _last_mttkrp(y, _khatri_rao_rows(rows[:-1]).mT)
            else:
                got = _contract_all_but(pt, rows[:-1], n - 1, shapes).T
            np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "dims",
        [(4, 5), (3, 4, 5), (3, 2, 4, 5), (2, 3, 2, 3, 2), (1, 3, 1, 2), (2, 1, 4)],
    )
    def test_shared_mttkrps_dense_oracle(self, dims, kind, gradient_vector):
        """The MTTKRPs that _gradient writes into its stack match the
        unfolding oracle for N = 2..5, also with modes of size one, and
        the gradient built from them is J^H vec(Y - Yhat) with the dense
        Jacobian, also where the stack is padded (unequal dims, I_n = 1 and
        I_n < R).  With a zero Gamma the gradient's blocks are the MTTKRPs
        themselves, zero past column I_n.  A given M^(N) is returned as is
        and written as block N, and leaves blocks 1..N-1 bit for bit as they
        are without it."""
        rng = np.random.default_rng(61)
        m = random_model(rng, dims, 3, kind)
        y = random_tensor(rng, dims, kind)
        expected = [dense_mttkrp(y, m, n) for n in range(1, len(dims) + 1)]
        x = stack(m.factors)
        zero = np.zeros((len(dims), 3, 3), x.dtype)
        shared, last = _gradient(y, x, zero)
        given, given_last = _gradient(y, x, zero, last=expected[-1])
        assert given_last is expected[-1]
        np.testing.assert_array_equal(shared[-1, :, : dims[-1]].T, last)
        np.testing.assert_array_equal(given[-1, :, : dims[-1]].T, expected[-1])
        np.testing.assert_array_equal(given[:-1], shared[:-1])
        for n, (d, ref) in enumerate(zip(dims, expected), start=1):
            np.testing.assert_allclose(shared[n - 1, :, :d].T, ref, atol=1e-12)
            np.testing.assert_allclose(given[n - 1, :, :d].T, ref, atol=1e-12)
            assert not shared[n - 1, :, d:].any()
        residual = (y.data - reconstruct(m).data).reshape(-1, order="F")
        ref = jacobian(m).conj().T @ residual
        err = np.linalg.norm(gradient_vector(y, m) - ref)
        assert err <= 1e-12 * np.linalg.norm(ref)

    def test_gradient_zero_at_exact_fit(self, gradient_vector):
        rng = np.random.default_rng(7)
        m = random_model(rng, (3, 4, 5), 2, COMPLEX)
        g = gradient_vector(reconstruct(m), m)
        assert np.abs(g).max() < 1e-10

    @pytest.mark.parametrize(
        "tensor_kind,model_kind", [(REAL, COMPLEX), (COMPLEX, REAL)]
    )
    @pytest.mark.parametrize("kernel", [relative_error], ids=["relative_error"])
    def test_mixed_kinds_rejected(self, kernel, tensor_kind, model_kind):
        rng = np.random.default_rng(81)
        y = random_tensor(rng, (3, 4, 2), tensor_kind)
        m = random_model(rng, (3, 4, 2), 2, model_kind)
        with pytest.raises(ScalarKindError):
            kernel(y, m)

    def test_relative_error_dims_mismatch_rejected(self):
        """A model of dims (3, 1, 4) against a (3, 5, 4) tensor raises
        instead of broadcasting its reconstruction over mode 2."""
        rng = np.random.default_rng(82)
        y = DenseTensor(rng.standard_normal((3, 5, 4)))
        m = random_model(rng, (3, 1, 4), 2)
        with pytest.raises(ValueError, match="do not match"):
            relative_error(y, m)


class SliceLog(np.ndarray):
    """A real array that logs, as (start, stop), the row slices
    ``a[..., start:stop, :]`` taken of it; each slice is a plain array."""

    def __getitem__(self, key):
        rows = key[-2]
        self.log.append((rows.start or 0, rows.stop))
        return np.asarray(self)[key]


class TestMttkrpSlabs:
    """``_last_mttkrp`` sums a real product over column slabs of c = max(64,
    MTTKRP_SLAB // (I_N R)) columns of the unfolding; complex data, and real
    data with K = J / I_N <= c, take one matmul."""

    @staticmethod
    def single(y, kr):
        return y.data.reshape((-1, y.dims[-1]), order="F").T @ kr.conj()

    @staticmethod
    def slabs_taken(y, kr):
        """The kernel's result for ``kr`` and the row slabs it took of it."""
        logged = kr.view(SliceLog)
        logged.log = []
        return _last_mttkrp(y, logged), logged.log

    @pytest.mark.parametrize(
        "dims,rank,width",
        [((50, 60, 40), 6, 2184), ((20, 20, 30, 40), 5, 2621), ((2, 70, 8192), 65, 64)],
        ids=["50x60x40", "20x20x30x40", "floor"],
    )
    def test_split_matches_unfolding_oracle(self, dims, rank, width):
        """Where K is split, into slabs whose last is short (K is not a
        multiple of c), the sum matches the unfolding oracle to 1e-13.  At
        I_N R = 8192 * 65 > 2^19 the width is the 64-column floor."""
        assert width == max(64, MTTKRP_SLAB // (dims[-1] * rank))
        rng = np.random.default_rng(28)
        m = random_model(rng, dims, rank)
        y = random_tensor(rng, dims)
        kr = khatri_rao_excl(m.factors, len(dims))
        k = kr.shape[0]
        got, taken = self.slabs_taken(y, kr)
        assert k % width and len(taken) >= 2
        assert taken == [(s, s + width) for s in range(0, k, width)]
        ref = unfold(y, len(dims)) @ kr.conj()
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dims,rank", [((50, 60, 40), 6), ((2, 70, 8192), 65)])
    def test_batch_element_equals_it_alone(self, dims, rank):
        """``_batch_last_mttkrp`` of B = 1..3 stacks gives each stack's
        result scored alone, bit for bit."""
        rng = np.random.default_rng(29)
        y = random_tensor(rng, dims)
        xs = np.array([stack(random_model(rng, dims, rank).factors) for _ in range(3)])
        for b in range(1, 4):
            batch = _batch_last_mttkrp(y, xs[:b])
            for j in range(b):
                alone = _batch_last_mttkrp(y, xs[j : j + 1])[0]
                np.testing.assert_array_equal(batch[j], alone)

    @pytest.mark.parametrize(
        "dims,rank,kind",
        [
            ((20, 20, 20), 3, REAL),
            ((20, 20, 20), 3, COMPLEX),
            ((12, 12, 12, 12), 4, REAL),
            ((50, 60, 40), 6, COMPLEX),
            ((20, 20, 30, 40), 5, COMPLEX),
        ],
    )
    def test_one_matmul_where_not_split(self, dims, rank, kind):
        """On the swamp shapes (K <= c) and on complex data of any size the
        result is the single product's, bit for bit, and real data takes no
        slice of ``kr``: the kernel makes that product directly."""
        rng = np.random.default_rng(30)
        kr = khatri_rao_excl(random_model(rng, dims, rank, kind).factors, len(dims))
        y = random_tensor(rng, dims, kind)
        np.testing.assert_array_equal(_last_mttkrp(y, kr), self.single(y, kr))
        if kind == REAL:
            width = max(64, MTTKRP_SLAB // (dims[-1] * rank))
            assert width >= kr.shape[0]
            assert self.slabs_taken(y, kr)[1] == []


def projection(model, tensor):
    """J^H vec(T) at ``model``: the stacked column-major mode MTTKRPs of T."""
    return np.concatenate(
        [
            dense_mttkrp(tensor, model, n).reshape(-1, order="F")
            for n in range(1, model.order + 1)
        ]
    )


class TestSecondOrderTerm:
    """J^H M''(v, v) from R x R products against dense references."""

    @staticmethod
    def term(model, direction):
        """The term on the stacks of ``model`` and ``direction``, as a stacked
        vector."""
        x = stack(model.factors)
        term = second_order_term(x, build_gram_cache(model), stack(direction.factors))
        return as_vector(model_from_stack(term, model.dims))

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "dims", [(4, 5), (3, 4, 5), (3, 2, 4, 5), (2, 1, 4), (1, 3, 2, 4)]
    )
    def test_matches_dense_oracle(self, dims, kind):
        rng = np.random.default_rng(62)
        m = random_model(rng, dims, 3, kind, scaled=True)
        v = random_model(rng, dims, 3, kind)
        ref = dense_second_order_term(m, as_vector(v))
        assert np.linalg.norm(self.term(m, v) - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_two_way_closed_form(self, kind):
        """For N = 2, M''(v, v) = 2 [[V^(1), V^(2)]]."""
        rng = np.random.default_rng(63)
        m = random_model(rng, (4, 6), 3, kind)
        v = random_model(rng, (4, 6), 3, kind)
        second = DenseTensor(2.0 * reconstruct(v).data)
        ref = projection(m, second)
        assert np.linalg.norm(self.term(m, v) - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims", [(4, 5), (3, 4, 5)])
    def test_oracle_is_central_second_difference(self, dims, kind):
        """M(x + v) + M(x - v) - 2 M(x) is M''(v, v) exactly up to order 3,
        where M(x + t v) has no t^4 term, so the oracle's tensor is checked
        without the pairwise sum it is built from."""
        rng = np.random.default_rng(64)
        m = random_model(rng, dims, 2, kind)
        v = random_model(rng, dims, 2, kind)
        shifted = [
            reconstruct(KruskalModel([a + s * b for a, b in zip(m.factors, v.factors)]))
            for s in (1.0, -1.0)
        ]
        diff = shifted[0].data + shifted[1].data - 2.0 * reconstruct(m).data
        ref = projection(m, DenseTensor(diff))
        oracle = dense_second_order_term(m, as_vector(v))
        assert np.linalg.norm(oracle - ref) <= 1e-12 * np.linalg.norm(ref)

    @given(
        dims=st.lists(st.integers(1, 5), min_size=2, max_size=5).map(tuple),
        rank=st.integers(1, 4),
        kind=st.sampled_from([REAL, COMPLEX]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_dense_oracle(self, dims, rank, kind, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, dims, rank, kind, scaled=True)
        v = random_model(rng, dims, rank, kind)
        ref = dense_second_order_term(m, as_vector(v))
        err = np.linalg.norm(self.term(m, v) - ref)
        assert err <= 1e-12 * max(np.linalg.norm(ref), 1e-300)


class TestErrorsAndNormalization:
    def test_relative_error_zero_tensor(self):
        rng = np.random.default_rng(9)
        m = random_model(rng, (2, 2), 1)
        with pytest.raises(ZeroDivisionError):
            relative_error(DenseTensor(np.zeros((2, 2))), m)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("target", [1e-1, 1e-2, 1e-3])
    def test_gram_error_matches_dense(self, kind, target):
        rng = np.random.default_rng(62)
        m = random_model(rng, (5, 6, 7), 3, kind, scaled=True)
        clean = reconstruct(m).data
        noise = random_tensor(rng, m.dims, kind).data
        noise *= target * np.linalg.norm(clean) / np.linalg.norm(noise)
        y, m = unit_pair(DenseTensor(clean + noise), m)
        dense = relative_error(y, m)
        x = stack(m.factors)[None]
        (gram,) = _gram_error(x, last_mttkrp(y, m)[None], gram_stack(x))
        assert dense == pytest.approx(target, rel=0.2)
        assert gram == pytest.approx(dense, rel=1e-9)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims", [(3, 4, 5), (2, 1, 3, 4)])
    def test_residual_decrease_matches_extended_precision(self, dims, kind):
        """The decrease of ||Y - M||^2 from x to x' against the difference of
        the two squared residuals in 50-digit arithmetic, for steps of norm
        1e-2 down to 1e-12, to 1e-8 of the decrease (the Gram identity
        rounds at a few eps ||Y||^2, more than the smallest of them); its
        mode-N MTTKRP of x' matches a fresh one."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(65)
        y = random_tensor(rng, dims, kind)
        m = random_model(rng, dims, 2, kind)
        x = stack(m.factors)

        def exact_sq_residual(model):
            total = mpmath.mpf(0)
            with mpmath.workdps(50):
                for idx in itertools.product(*[range(d) for d in dims]):
                    value = mpmath.mpc(y.data[idx])
                    for r in range(2):
                        term = mpmath.mpc(1)
                        for f, i in zip(model.factors, idx):
                            term *= mpmath.mpc(f[i, r])
                        value -= term
                    total += abs(value) ** 2
            return total

        before = exact_sq_residual(m)
        for size in (1e-2, 1e-5, 1e-8, 1e-12):
            s = stack(random_model(rng, dims, 2, kind).factors)
            cand = x + size / np.linalg.norm(s) * s
            moved = model_from_stack(cand, dims)
            decrease, last = residual_decrease(
                y, x, cand, gram_stack(x), gram_stack(cand), last_mttkrp(y, m)
            )
            with mpmath.workdps(50):
                ref = float(before - exact_sq_residual(moved))
            assert abs(decrease - ref) <= 1e-8 * abs(ref), size
            np.testing.assert_allclose(
                last, dense_mttkrp(y, moved, len(dims)), rtol=0, atol=1e-13
            )

    def test_equal_energy_preserves_reconstruction(self):
        rng = np.random.default_rng(10)
        m = random_model(rng, (3, 4, 5), 2, COMPLEX, scaled=True)
        normalized = normalize(m)
        np.testing.assert_allclose(
            reconstruct(normalized).data, reconstruct(m).data, atol=1e-12
        )

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_equal_energy_matches_per_component_loop(
        self, kind, equal_energy_loop
    ):
        rng = np.random.default_rng(13)
        m = random_model(rng, (3, 4, 5, 2), 4, kind, scaled=True)
        for got, ref in zip(normalize(m).factors, equal_energy_loop(m)):
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-15)

    def test_equal_energy_balances_norms(self):
        m = KruskalModel(
            [np.array([[2.0], [0.0]]), np.array([[8.0], [0.0]])]
        )
        normalized = normalize(m)
        for f in normalized.factors:
            assert np.isclose(np.linalg.norm(f[:, 0]), 4.0)

    def test_equal_energy_phase_convention(self):
        rng = np.random.default_rng(11)
        m = random_model(rng, (3, 4, 5), 2, COMPLEX)
        normalized = normalize(m)
        for r in range(2):
            lead = normalized.factors[0][:, r]
            top = lead[np.argmax(np.abs(lead))]
            assert abs(np.imag(top)) < 1e-12 and np.real(top) > 0

    def test_real_top_phase_is_unit_phase(self):
        """For real columns the sign of the largest-magnitude entry, the
        first on a tie, is the unit phase of that entry bit for bit; a zero
        column's phase is 1."""
        u = np.array([[0.5, -3.0, 0.0, 2.0], [-1.5, 1.0, 0.0, -2.0]])
        phase = cpfast.kruskal._top_phase(u)
        assert phase.tolist() == [-1.0, -1.0, 1.0, 1.0]
        top = u[np.abs(u).argmax(axis=0), np.arange(4)]
        assert np.array_equal(phase, cpfast.kruskal._unit_phase(top))


def mode_products(y, mats):
    """Y x_1 M_1 ... x_N M_N through unfold and fold, mode by mode."""
    for n, m in enumerate(mats, start=1):
        dims = list(y.dims)
        dims[n - 1] = m.shape[0]
        y = fold(m @ unfold(y, n), n, dims)
    return y


class TestStHosvd:
    """The ST-HOSVD front end of a compressed fit."""

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "dims,rank",
        [
            ((9, 8, 7), 3),
            ((9, 3, 7), 3),  # I_2 = R: mode 2 is not compressed
            ((9, 2, 7), 3),  # I_2 < R
            ((6, 5, 4, 7), 2),
            ((8, 6), 2),
        ],
    )
    def test_core_and_bases(self, dims, rank, kind):
        """Bases have orthonormal columns, min(I_n, R) of them, and the
        identity where I_n <= R; the core is Y x_n U_n^H from unfold and
        fold, and the reconstruction G x_n U_n leaves a residual whose
        squared norm is ||Y||^2 - ||G||^2 (Pythagoras).  ``lead`` is the
        mode-N unfolding of Y x_n U_n^H over modes 1..N-1."""
        rng = np.random.default_rng(71)
        truth = random_model(rng, dims, rank, kind)
        y = DenseTensor(
            reconstruct(truth).data + 0.1 * random_tensor(rng, dims, kind).data
        )
        bases, core, lead = st_hosvd(y, rank)
        head = mode_products(y, [u.conj().T for u in bases[:-1]] + [np.eye(dims[-1])])
        np.testing.assert_allclose(
            lead, unfold(head, len(dims)), atol=1e-12 * y.norm()
        )
        assert core.dims == tuple(min(d, rank) for d in dims)
        assert core.scalar_kind == kind
        for d, u in zip(dims, bases):
            assert u.shape == (d, min(d, rank))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
            if d <= rank:
                assert np.array_equal(u, np.eye(d))
        ref = mode_products(y, [u.conj().T for u in bases])
        np.testing.assert_allclose(core.data, ref.data, atol=1e-12 * y.norm())
        resid = y.data - mode_products(core, bases).data
        gap = y.norm() ** 2 - core.norm() ** 2
        assert gap == pytest.approx(np.linalg.norm(resid) ** 2, rel=1e-9)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_first_basis_is_svd_init(self, kind):
        """Mode 1's basis and the SVD init's first factor come from the same
        kernel on the same unfolding: equal up to the init's column phases."""
        rng = np.random.default_rng(72)
        y = random_tensor(rng, (9, 8, 7), kind)
        u = st_hosvd(y, 3)[0][0]
        init = svd_init(y, 3, 72).factors[0]
        phases = np.sum(u.conj() * init, axis=0)
        np.testing.assert_allclose(np.abs(phases), 1.0, atol=1e-12)
        np.testing.assert_allclose(init, u * phases, atol=1e-12)

    @given(
        order=st.sampled_from([3, 4]),
        rank=st.integers(2, 4),
        kind=st.sampled_from([REAL, COMPLEX]),
        noise=st.sampled_from([0.01, 1.0]),
        step=st.sampled_from([1e-6, 1e-2, 1.0]),
        data=st.data(),
    )
    def test_core_error_bounds_tensor_error(
        self, order, rank, kind, noise, step, data
    ):
        """Stated bounds.  For bases U_n and core G from st_hosvd, and core
        models B_1, B_2 with expansions U B, let e_Y = ||Y - [[U B]]|| / ||Y||,
        e_G = ||G - [[B]]|| / ||G|| and kappa = ||G|| / ||Y||.  Then e_Y^2 =
        1 - kappa^2 + kappa^2 e_G^2 within 1e-12 + ((1 + R delta)^N - 1)
        ||[[B]]||^2 / ||Y||^2, where delta = max_n max |U_n^H U_n - I| is
        the bases' own departure from orthonormality (the identity is exact
        for orthonormal bases, and the rest of the gap is ||[[U B]]||^2 -
        ||[[B]]||^2); and the two models' errors satisfy |De_Y| <= |De_G|
        (1 + 1e-12) + 1e-15.  One mode has I_n <= R."""
        dims = data.draw(
            st.lists(st.integers(rank + 1, 7), min_size=order, max_size=order)
        )
        dims[data.draw(st.integers(0, order - 1))] = data.draw(st.integers(1, rank))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = DenseTensor(
            reconstruct(random_model(rng, dims, rank, kind)).data
            + noise * random_tensor(rng, dims, kind).data
        )
        bases, core, _ = st_hosvd(y, rank)
        kappa = core.norm() / y.norm()
        delta = max(np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() for u in bases)
        first = random_model(rng, core.dims, rank, kind)
        nudge = random_model(rng, core.dims, rank, kind)
        second = KruskalModel(
            [b + step * d for b, d in zip(first.factors, nudge.factors)]
        )
        e_y, e_g = [], []
        for b in (first, second):
            e_g.append(relative_error(core, b))
            expanded = KruskalModel([u @ f for u, f in zip(bases, b.factors)])
            e_y.append(relative_error(y, expanded))
            identity = 1 - kappa**2 + kappa**2 * e_g[-1] ** 2
            distortion = (1 + rank * delta) ** order - 1
            slack = distortion * (reconstruct(b).norm() / y.norm()) ** 2
            assert abs(e_y[-1] ** 2 - identity) <= 1e-12 + slack
        assert abs(e_y[0] - e_y[1]) <= abs(e_g[0] - e_g[1]) * (1 + 1e-12) + 1e-15

    def test_exact_rank_core_keeps_the_tensor(self):
        """A rank-R tensor lies in the span of its bases: the core keeps
        all of its energy."""
        rng = np.random.default_rng(73)
        y = reconstruct(random_model(rng, (10, 9, 8), 3))
        bases, core, _ = st_hosvd(y, 3)
        assert core.norm() == pytest.approx(y.norm(), rel=1e-12)
        np.testing.assert_allclose(
            mode_products(core, bases).data, y.data, atol=1e-12 * y.norm()
        )

    def test_tall_unfolding_bases_are_orthonormal(self):
        """A 7x1x6 rank-3 tensor at 1% noise whose mode-1 unfolding (7 x 6,
        tall) has sigma_3 / sigma_1 = 3.9e-3: U = M V S^{-1} alone departs
        from orthonormal columns by ~eps (sigma_1 / sigma_3)^2 (7.9e-12
        here); re-orthonormalized, every basis is within 1e-14."""
        rng = np.random.default_rng(636)
        dims = (7, 1, 6)
        y = DenseTensor(
            reconstruct(random_model(rng, dims, 3)).data
            + 0.01 * random_tensor(rng, dims).data
        )
        sigma = np.linalg.svd(unfold(y, 1), compute_uv=False)
        assert sigma[2] / sigma[0] < 5e-3
        for u in st_hosvd(y, 3)[0]:
            assert np.abs(u.conj().T @ u - np.eye(u.shape[1])).max() <= 1e-14


class TestTopEigenpairs:
    """:func:`_leading_left_vectors` computes only the leading eigenpairs of
    the smaller Gram."""

    @staticmethod
    def projector(u):
        return u @ u.conj().T

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "shape,rank",
        [
            ((9, 40), 3),  # wide
            ((40, 9), 3),  # tall
            ((6, 40), 6),  # wide, R = n
            ((6, 40), 8),  # wide, R > n
            ((40, 5), 5),  # tall, R = n
            ((40, 5), 7),  # tall, R > n
        ],
    )
    def test_same_leading_subspace_as_full_eigh(self, shape, rank, kind):
        """The kept columns span the subspace that the full ``eigh`` of the
        same Gram gives (U = M V S^{-1} when tall), with projector difference
        <= 1e-12, and are orthonormal.  The matrix is rank-min(R, n) plus
        1% noise, so its leading subspace is well separated."""
        rng = np.random.default_rng(74)
        rows, cols = shape
        k = min(rank, rows, cols)
        mat = random_tensor(rng, (rows, k), kind).data @ random_tensor(
            rng, (k, cols), kind
        ).data + 0.01 * random_tensor(rng, shape, kind).data
        u = _leading_left_vectors(mat, rank)
        if rows <= cols:
            ref = np.linalg.eigh(mat @ mat.conj().T)[1][:, ::-1][:, :k]
        else:
            lam, v = np.linalg.eigh(mat.conj().T @ mat)
            ref = (mat @ v[:, ::-1][:, :k]) / np.sqrt(lam[::-1][:k])
        assert u.shape == (rows, k)
        diff = self.projector(u) - self.projector(ref)
        assert np.abs(diff).max() <= 1e-12
        np.testing.assert_allclose(u.conj().T @ u, np.eye(k), atol=1e-14)


class TestInitAndAls:
    def test_svd_init_pads_when_rank_exceeds_dim(self):
        rng = np.random.default_rng(13)
        y = DenseTensor(rng.standard_normal((2, 6, 6)))
        m = svd_init(y, 4, 13)
        assert m.factors[0].shape == (2, 4)
        np.testing.assert_allclose(
            np.linalg.norm(m.factors[0][:, 2:], axis=0), np.ones(2)
        )

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "dims, rank",
        [
            ((7, 8, 9), 3),  # wide unfoldings: eigh of Y_(n) Y_(n)^H
            ((30, 2, 3), 3),  # mode 1 tall: eigh of Y_(1)^H Y_(1)
            ((2, 6, 6), 4),  # R > I_1: random padding
            ((30, 2, 2), 5),  # tall with R > J/I_1: random padding
        ],
    )
    def test_svd_init_matches_phase_fixed_svd(self, dims, rank, kind):
        """Leading columns equal the SVD's up to the phase rule: largest entry
        real-positive in modes 1..N-1, real-positive <Y, rank-one term> in
        mode N.  The remaining columns are unit-norm padding."""
        rng = np.random.default_rng(63)
        truth = random_model(rng, dims, rank, kind)
        truth.factors[-1] = truth.factors[-1] * (10.0 * 0.5 ** np.arange(rank))
        noise = 1e-3 * random_tensor(rng, dims, kind).data
        y = DenseTensor(reconstruct(truth).data + noise)
        m = svd_init(y, rank, 63)
        last = last_mttkrp(y, m)  # independent of the mode-N factor
        inner = np.sum(m.factors[-1].conj() * last, axis=0)
        assert np.all(np.abs(inner.imag) <= 1e-12 * np.abs(inner))
        assert np.all(inner.real > 0)
        for n in range(1, len(dims) + 1):
            u = np.linalg.svd(unfold(y, n), full_matrices=False)[0]
            k = min(rank, u.shape[1])
            u = u[:, :k]
            if n < len(dims):
                top = u[np.argmax(np.abs(u), axis=0), np.arange(k)]
                u = u / (top / np.abs(top))
            else:
                c = np.sum(u.conj() * last[:, :k], axis=0)
                u = u * (c / np.abs(c))
            got = m.factors[n - 1]
            assert got.shape == (dims[n - 1], rank)
            np.testing.assert_allclose(got[:, :k], u, atol=1e-10)
            np.testing.assert_allclose(
                np.linalg.norm(got[:, k:], axis=0), np.ones(rank - k)
            )

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_als_decreases_error(self, kind):
        rng = np.random.default_rng(14)
        truth = random_model(rng, (6, 6, 6), 3, kind)
        y = reconstruct(truth)
        x = stack(random_init(y.dims, 3, rng, kind).factors)
        errs = [relative_error(y, model_from_stack(x, y.dims))]
        for _ in range(5):
            x = sweep(y, x)[0]
            errs.append(relative_error(y, model_from_stack(x, y.dims)))
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))

    def test_als_fixed_point_at_exact_fit(self):
        rng = np.random.default_rng(15)
        truth = random_model(rng, (5, 5, 5), 2)
        y = reconstruct(truth)
        stepped = sweep(y, stack(truth.factors))[0]
        assert relative_error(y, model_from_stack(stepped, y.dims)) < 1e-12

    def test_line_search_no_worse_than_plain_als(self):
        """Each ALS-ls iteration keeps a model no worse than the plain sweep
        from the model before it.  A fit with a smaller budget is a prefix of
        the same run, so fit(max_iters=t - 1) gives that model."""
        rng = np.random.default_rng(16)
        truth = random_model(rng, (6, 6, 6), 3)
        y = reconstruct(truth)

        def als_ls(iters):
            config = FitConfig(rank=3, variant="als-ls", max_iters=iters,
                               init="random")
            return fit(y, config).model

        m = als_ls(1)
        for t in range(2, 7):
            nxt = als_ls(t)
            plain = sweep(y, stack(m.factors))[0]
            plain = model_from_stack(plain, y.dims)
            assert relative_error(y, nxt) <= relative_error(y, plain) + 1e-12
            m = nxt

    @staticmethod
    def assert_textbook_sweep(y, m):
        """Every factor of the ALS sweep equals the unfolding update
        M^(n) pinv_psd(Gamma^(n))^T from the factors swept so far, the
        returned matrix is the new model's mode-N MTTKRP, and the stack
        passed in is left as it was."""
        x = stack(m.factors)
        before = x.copy()
        stepped, last, _ = sweep(y, x)
        stepped = model_from_stack(stepped, y.dims)
        factors = list(m.factors)
        for n in range(1, y.order + 1):
            model = KruskalModel(factors)
            gamma = build_gram_cache(model).gamma_excl[n - 1]
            factors[n - 1] = dense_mttkrp(y, model, n) @ pinv_psd(gamma).T
            got = stepped.factors[n - 1]
            err = np.linalg.norm(got - factors[n - 1])
            assert err <= 1e-12 * np.linalg.norm(factors[n - 1])
        ref = dense_mttkrp(y, stepped, y.order)
        assert np.linalg.norm(last - ref) <= 1e-12 * np.linalg.norm(ref)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims", [(5, 6), (4, 5, 6), (3, 4, 2, 5)])
    def test_als_step_matches_textbook_update(self, dims, kind):
        """See ``assert_textbook_sweep``; here every Gamma^(n) is positive
        definite, and the update is a Cholesky solve."""
        rng = np.random.default_rng(64)
        self.assert_textbook_sweep(
            random_tensor(rng, dims, kind), random_model(rng, dims, 3, kind)
        )

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("gap", [0.0, 1e-9], ids=["singular", "near-singular"])
    def test_als_step_falls_back_to_pinv(self, gap, kind, monkeypatch):
        """Where the first two components are equal in every mode (Gamma^(n)
        singular) or equal to within ``gap`` = 1e-9 (its smallest eigenvalue
        ~1e-18 of its largest, which ``pinv_psd`` truncates), every mode's
        update falls back to ``pinv_psd`` and matches the textbook update
        (see ``assert_textbook_sweep``), not a huge Cholesky solution."""
        rng = np.random.default_rng(66)
        dims = (4, 5, 6)
        y = random_tensor(rng, dims, kind)
        m = random_model(rng, dims, 3, kind)
        for f in m.factors:
            f[:, 1] = f[:, 0] + gap * rng.standard_normal(f.shape[0])
        calls = []

        def counted(gamma):
            calls.append(None)
            return pinv_psd(gamma)

        monkeypatch.setattr(cpfast.kruskal, "pinv_psd", counted)
        sweep(y, stack(m.factors))
        assert len(calls) == len(dims)
        self.assert_textbook_sweep(y, m)

    @pytest.mark.parametrize("deficient", [False, True], ids=["cholesky", "pinv"])
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("dims", [(5, 6), (4, 5, 6), (3, 4, 2, 5)])
    def test_sweep_returns_the_swept_stacks_grams(
        self, dims, kind, deficient, monkeypatch
    ):
        """The Gram stack that the fit loop's sweep returns, refreshed one
        mode at a time, is == to ``gram_stack`` of the swept stack.  With the
        first two components
        equal in every mode, each Gamma^(n) is singular and every update
        takes the ``pinv_psd`` fallback."""
        rng = np.random.default_rng(67)
        y = random_tensor(rng, dims, kind)
        m = random_model(rng, dims, 3, kind)
        if deficient:
            for f in m.factors:
                f[:, 1] = f[:, 0]
        calls = []

        def counted(gamma):
            calls.append(None)
            return pinv_psd(gamma)

        monkeypatch.setattr(cpfast.kruskal, "pinv_psd", counted)
        x = stack(m.factors)
        swept, _, grams = sweep(y, x)
        assert len(calls) == (len(dims) if deficient else 0)
        assert (grams == gram_stack(swept)).all()

    @pytest.mark.parametrize(
        "dims, kind",
        [((20, 20, 20), REAL), ((20, 20, 20), COMPLEX), ((12, 12, 12, 12), REAL)],
        ids=["real-20^3", "complex-20^3", "real-12^4"],
    )
    def test_chained_als_steps_are_the_fit_loops_sweeps(self, dims, kind, monkeypatch):
        """50 sweeps chained from the start of a 50-sweep ALS fit of a swamp
        tensor give, each compared with ==, the stack and M^(N) of the
        loop's own sweep: the loop hands each sweep the stack that the one
        before it returned, with nothing done between them."""
        _, y = gen_collinear(CollinearSpec(dims, 3, 0.5, 30.0, 5, kind))
        sweeps = []
        original = cpfast.solver._sweep

        def recorded(unit, x, plan):
            out = original(unit, x, plan)
            sweeps.append((unit, x, out))
            return out

        monkeypatch.setattr(cpfast.solver, "_sweep", recorded)
        fit(y, FitConfig(rank=3, variant="als", max_iters=50, tol=0.0))
        assert len(sweeps) == 50
        unit, x, _ = sweeps[0]
        for _, _, (swept, last, _) in sweeps:
            x, stepped_last, _ = sweep(unit, x)
            assert (x == swept).all() and (stepped_last == last).all()

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("variant", ["als", "als-ls"])
    def test_well_conditioned_fit_needs_no_eigh(self, variant, kind, monkeypatch):
        """On a noisy fit with Gaussian factors every Gram matrix is well
        conditioned, so no sweep falls back to ``pinv_psd`` and its
        ``np.linalg.eigh``."""
        rng = np.random.default_rng(67)
        truth = random_model(rng, (6, 7, 8), 3, kind)
        noise = random_tensor(rng, truth.dims, kind).data
        y = DenseTensor(reconstruct(truth).data + 0.05 * noise)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        result = fit(y, FitConfig(rank=3, variant=variant, max_iters=50))
        assert result.iters >= 10 and result.final_relerr < 0.1


@st.composite
def noisy_pairs(draw):
    """A random model and a tensor whose relative error against it is drawn
    from [1e-3, 1): noise orthogonal to the model's tensor, scaled to fit."""
    order = draw(st.integers(2, 4))
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=order, max_size=order)))
    rank = draw(st.integers(1, 4))
    kind = draw(st.sampled_from([REAL, COMPLEX]))
    target = draw(st.floats(1e-3, 1.0, exclude_max=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_model(rng, dims, rank, kind, scaled=draw(st.booleans()))
    clean = reconstruct(m).data
    noise = random_tensor(rng, dims, kind).data
    noise -= clean * (np.vdot(clean, noise) / np.vdot(clean, clean))
    scale = target / np.sqrt(1.0 - target**2) * np.linalg.norm(clean)
    noise *= scale / np.linalg.norm(noise)
    return DenseTensor(clean + noise), m, target


@given(noisy_pairs())
def test_gram_error_property(pair):
    """The Gram-identity error equals the dense one within 1e-9 relative for
    every order, size, rank and scalar kind, down to relerr 1e-3."""
    y, m = unit_pair(*pair[:2])
    target = pair[2]
    dense = relative_error(y, m)
    x = stack(m.factors)[None]
    (gram,) = _gram_error(x, last_mttkrp(y, m)[None], gram_stack(x))
    assert dense == pytest.approx(target, rel=1e-6)
    assert gram == pytest.approx(dense, rel=1e-9)
