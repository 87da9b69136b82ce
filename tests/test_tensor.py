"""Unfolding, Khatri-Rao, and commutation-matrix behavior against brute-force
index-arithmetic oracles."""

import itertools
from functools import reduce

import numpy as np
import pytest

from cpfast.kruskal import KruskalModel
from cpfast.oracle import commutation, mode_commutation
from cpfast.tensor import (
    COMPLEX,
    DenseTensor,
    REAL,
    ScalarKindError,
    _khatri_rao_rows,
    fold,
    frobenius,
    khatri_rao,
    khatri_rao_excl,
    unfold,
    vectorize,
)


def random_tensor(rng, dims, kind=REAL):
    data = rng.standard_normal(dims)
    if kind == COMPLEX:
        data = data + 1j * rng.standard_normal(dims)
    return DenseTensor(data)


def unfold_oracle(t, n):
    """Brute-force mode-n unfolding: column index enumerates the remaining
    modes in ascending order, fastest first."""
    dims = t.dims
    rest = [k for k in range(len(dims)) if k != n - 1]
    out = np.zeros((dims[n - 1], t.size // dims[n - 1]), dtype=t.data.dtype)
    for idx in itertools.product(*[range(d) for d in dims]):
        col = 0
        stride = 1
        for k in rest:
            col += idx[k] * stride
            stride *= dims[k]
        out[idx[n - 1], col] = t.data[idx]
    return out


class TestDenseTensor:
    def test_scalar_kind_tags(self):
        assert DenseTensor(np.zeros(3)).scalar_kind == REAL
        assert DenseTensor(np.zeros(3, dtype=complex)).scalar_kind == COMPLEX

    def test_fortran_storage_and_dtype(self):
        t = DenseTensor(np.arange(24).reshape(2, 3, 4))
        assert t.data.flags.f_contiguous
        assert t.data.dtype == np.float64
        assert t.dims == (2, 3, 4)
        assert t.order == 3
        assert t.size == 24

    def test_norm(self):
        """``frobenius``, which ``norm`` uses, sums as ``np.linalg.norm``
        does: the same bits for real and complex arrays in either order."""
        rng = np.random.default_rng(0)
        t = random_tensor(rng, (3, 4, 5), COMPLEX)
        assert np.isclose(t.norm(), np.linalg.norm(t.data.ravel()))
        for shape, kind in itertools.product([(7,), (3, 9, 20)], [REAL, COMPLEX]):
            data = random_tensor(rng, shape, kind).data
            for a in (data, np.ascontiguousarray(data)):
                assert frobenius(a) == float(np.linalg.norm(a))

    def test_mixed_kind_rejected(self):
        model = KruskalModel([np.zeros((2, 1)), np.zeros((3, 1), dtype=complex)])
        with pytest.raises(ScalarKindError):
            model.scalar_kind


class TestUnfold:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 4, 5), (2, 3, 2, 4)])
    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    def test_matches_enumeration_oracle(self, dims, kind):
        rng = np.random.default_rng(hash((dims, kind)) % 2**32)
        t = random_tensor(rng, dims, kind)
        for n in range(1, len(dims) + 1):
            np.testing.assert_allclose(unfold(t, n), unfold_oracle(t, n))

    @pytest.mark.parametrize("dims", [(3, 4, 5), (2, 2, 3, 2)])
    def test_fold_roundtrip(self, dims):
        rng = np.random.default_rng(3)
        t = random_tensor(rng, dims)
        for n in range(1, len(dims) + 1):
            back = fold(unfold(t, n), n, dims)
            np.testing.assert_array_equal(back.data, t.data)

    def test_vectorize_is_mode1_vec(self):
        rng = np.random.default_rng(4)
        t = random_tensor(rng, (3, 4, 2))
        np.testing.assert_array_equal(
            vectorize(t), unfold(t, 1).reshape(-1, order="F")
        )

    def test_bad_mode_raises(self):
        t = DenseTensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 3)


class TestProducts:
    def test_khatri_rao_columnwise_oracle(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        kr = khatri_rao(a, b)
        assert kr.shape == (15, 4)
        for r in range(4):
            np.testing.assert_allclose(kr[:, r], np.kron(a[:, r], b[:, r]))

    def test_khatri_rao_column_mismatch(self):
        with pytest.raises(ValueError):
            khatri_rao(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_khatri_rao_excl_descending_order(self, n):
        rng = np.random.default_rng(8)
        factors = [rng.standard_normal((d, 2)) for d in (3, 4, 5)]
        got = khatri_rao_excl(factors, n)
        rest = [factors[k] for k in reversed(range(3)) if k != n - 1]
        expected = np.zeros((got.shape[0], 2))
        for r in range(2):
            col = rest[0][:, r]
            for f in rest[1:]:
                col = np.kron(col, f[:, r])
            expected[:, r] = col
        np.testing.assert_allclose(got, expected)

    @pytest.mark.parametrize("kind", [REAL, COMPLEX])
    @pytest.mark.parametrize("n_factors", [1, 2, 3, 4])
    def test_row_layout_kernel_matches_kron(self, n_factors, kind):
        """Column r of the K x R product, ``.mT`` of ``_khatri_rao_rows``, is
        ==, not just close, to np.kron of the factors' columns r taken from
        the last factor down, kron(kron(a_N, a_N-1), ...), the association
        the kernel uses; a batch of row sets (B x R x I_n each) gives each
        set's product."""
        rng = np.random.default_rng(9)
        dims, rank, batch = (3, 1, 4, 2)[:n_factors], 3, 2

        def draw(shape):
            a = rng.standard_normal(shape)
            return a + 1j * rng.standard_normal(shape) if kind == COMPLEX else a

        rows = [draw((batch, rank, d)) for d in dims]

        def kron_columns(factors):
            cols = [reduce(np.kron, [f[:, r] for f in factors[::-1]])
                    for r in range(rank)]
            return np.stack(cols, axis=1)

        batched = _khatri_rao_rows(rows)
        assert batched.shape == (batch, rank, np.prod(dims))
        for b in range(batch):
            alone = _khatri_rao_rows([r[b] for r in rows])
            expected = kron_columns([r[b].T for r in rows])
            assert (alone.mT == expected).all()
            assert (batched[b] == alone).all()


class TestCommutation:
    @pytest.mark.parametrize("shape", [(2, 3), (4, 4), (1, 5), (3, 2)])
    def test_transposes_vec(self, shape):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(shape)
        p = commutation(*shape)
        np.testing.assert_array_equal(
            p @ x.T.reshape(-1, order="F"), x.reshape(-1, order="F")
        )

    def test_is_permutation(self):
        p = commutation(3, 4)
        assert np.array_equal(p @ p.T, np.eye(12))
        assert np.array_equal(p.sum(axis=0), np.ones(12))
        assert np.array_equal(p.sum(axis=1), np.ones(12))

    @pytest.mark.parametrize("dims", [(3, 4, 5), (2, 3, 2, 3)])
    def test_mode_commutation_links_vectorizations(self, dims):
        rng = np.random.default_rng(11)
        t = random_tensor(rng, dims)
        for n in range(1, len(dims) + 1):
            q = mode_commutation(dims, n)
            np.testing.assert_array_equal(
                q @ unfold(t, n).reshape(-1, order="F"), vectorize(t)
            )
