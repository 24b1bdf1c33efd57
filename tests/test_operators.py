import json
import warnings

import numpy as np
import pytest

from entlab.rates import _schmidt_rate
from entlab.operators import (
    HermitianOperator,
    NonHermitianError,
    NotPositiveError,
    input_number,
    input_numbers,
    matrix_log_on_support,
    operator_norm,
    partial_trace_matrix,
    trace_norm,
)


def rand_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def rand_psd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            HermitianOperator(np.zeros((2, 3)))

    def test_built_stores_like_the_constructor(self):
        # a program-built matrix skips the check but is stored bit for bit
        # as the constructor stores it: (M + M^dag)/2, read-only
        rng = np.random.default_rng(10)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m = g @ g.conj().T / 3.0  # Hermitian up to rounding
        built = HermitianOperator._built(m)
        assert built.mat.tobytes() == HermitianOperator(m).mat.tobytes()
        assert not built.mat.flags.writeable
        with pytest.raises(ValueError):
            HermitianOperator.identity(0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        op = HermitianOperator(rand_herm(rng, 5))
        blob = json.dumps(op.to_json())
        back = HermitianOperator.from_json(json.loads(blob))
        assert np.allclose(back.mat, op.mat)

    @pytest.mark.parametrize("entry", [(0, 0, np.nan), (0, 1, np.inf), (1, 1, -np.inf), (1, 0, complex(0, np.nan))])
    def test_rejects_non_finite_entries(self, entry):
        # an infinity beside a finite mirror entry included; rejected before
        # any arithmetic on it, so numpy has nothing to warn of
        i, j, value = entry
        m = np.eye(2, dtype=complex)
        m[i, j] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="matrix has entries that are not finite"):
                HermitianOperator(m)

    @pytest.mark.parametrize("dim", [2.9, True, "2", None])
    def test_json_dim_is_an_integer(self, dim):
        obj = HermitianOperator.identity(2).to_json()
        assert HermitianOperator.from_json({**obj, "dim": 2.0}).dim == 2
        with pytest.raises(ValueError, match="dim must be an integer"):
            HermitianOperator.from_json({**obj, "dim": dim})


class TestInputNumber:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float32("nan")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="x must be a finite number"):
            input_number("x", value)
        with pytest.raises(ValueError, match="x must be an integer"):
            input_number("x", value, integer=True)
        with pytest.raises(ValueError, match="x entry must be a finite number"):
            input_numbers("x", [1.0, value])

    def test_finite_numbers_kept(self):
        assert input_number("x", np.float64(1e308)) == 1e308
        assert input_number("x", -0.25) == -0.25


class TestCachedEigh:
    def test_computed_once_and_read_only(self):
        op = HermitianOperator(rand_herm(np.random.default_rng(1), 6))
        w, v = op.eigh
        assert op.eigh[1] is v
        assert np.allclose((v * w) @ v.conj().T, op.mat)
        with pytest.raises(ValueError):
            v[0, 0] = 0.0

    def test_real_arithmetic_when_exactly_real(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((6, 6))
        real_op = HermitianOperator(g + g.T)
        w, v = real_op.eigh
        assert v.dtype == np.float64
        assert np.allclose(w, np.linalg.eigvalsh(real_op.mat))
        assert np.iscomplexobj(HermitianOperator(rand_herm(rng, 6)).eigh[1])


class TestSpectrum:
    # HermitianOperator.eigh is the one diagonalisation path: ascending
    # eigenvalues, eigenvector columns
    def test_diagonal_sorted_descending(self):
        w, v = HermitianOperator(np.diag([0.8, 0.2])).eigh
        assert np.allclose(w[::-1], [0.8, 0.2])
        assert np.allclose(np.abs(v[:, ::-1]), np.eye(2))

    def test_identity(self):
        w, _ = HermitianOperator.identity(4).eigh
        assert np.allclose(w, 1.0)

    def test_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rand_herm(rng, 6)
            w, v = HermitianOperator(m).eigh
            rec = (v * w) @ v.conj().T
            assert np.linalg.norm(rec - m) <= 1e-10 * np.linalg.norm(m)


class TestMatrixLog:
    def test_diagonal(self):
        out = matrix_log_on_support(HermitianOperator(np.diag([0.8, 0.2])))
        assert np.allclose(out.mat, np.diag([np.log(0.8), np.log(0.2)]))

    def test_rank_one_projector(self):
        # ln 1 = 0 on the support, 0 off it
        out = matrix_log_on_support(HermitianOperator(np.diag([1.0, 0.0])))
        assert np.allclose(out.mat, 0.0)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y = rand_psd(rng, 5)
            y /= np.trace(y).real
            lg = matrix_log_on_support(HermitianOperator(y))
            w, v = np.linalg.eigh(lg.mat)
            back = (v * np.exp(w)) @ v.conj().T
            assert np.max(np.abs(back - y)) < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveError):
            matrix_log_on_support(HermitianOperator(np.diag([1.0, -0.5])))


class TestPartialTrace:
    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        red = partial_trace_matrix(np.outer(bell, bell.conj()), [2, 2], [0])
        assert np.allclose(red, np.eye(2) / 2)

    def test_product_state(self):
        rng = np.random.default_rng(3)
        a = rand_psd(rng, 2)
        a /= np.trace(a).real
        b = rand_psd(rng, 3)
        b /= np.trace(b).real
        rho = np.kron(a, b)
        assert np.allclose(partial_trace_matrix(rho, [2, 3], [0]), a)
        assert np.allclose(partial_trace_matrix(rho, [2, 3], [1]), b)

    def test_schmidt_spectra_agree(self):
        # independent oracle: direct index summation over the pure-state tensor
        rng = np.random.default_rng(4)
        psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        psi /= np.linalg.norm(psi)
        t = psi.reshape(2, 3)
        rho_a_direct = np.einsum("ij,kj->ik", t, t.conj())
        rho_b_direct = np.einsum("ij,ik->jk", t, t.conj())
        rho = np.outer(psi, psi.conj())
        assert np.allclose(partial_trace_matrix(rho, [2, 3], [0]), rho_a_direct)
        assert np.allclose(partial_trace_matrix(rho, [2, 3], [1]), rho_b_direct)
        wa = np.linalg.eigvalsh(rho_a_direct)
        wb = np.linalg.eigvalsh(rho_b_direct)
        assert np.allclose(wa[-2:], wb[-2:], atol=1e-10)

    def test_trace_and_psd_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rand_psd(rng, 12)
            m /= np.trace(m).real
            red = partial_trace_matrix(m, [2, 3, 2], [0, 2])
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red)[0] > -1e-10

    def test_dimension_mismatch(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError):
            partial_trace_matrix(rho, [2, 3], [0])
        with pytest.raises(ValueError):
            partial_trace_matrix(rho, [2, 2], [0, 1])

    @staticmethod
    def _trace_every_factor(mat, dims, keep):
        """Reference: np.trace over each traced factor in turn, those of
        dimension 1 included."""
        lead, n = mat.shape[:-2], len(dims)
        t = mat.reshape(lead + tuple(dims) * 2)
        for off, i in enumerate(i for i in range(n) if i not in keep):
            ax = len(lead) + i - off
            t = np.trace(t, axis1=ax, axis2=ax + (t.ndim - len(lead)) // 2)
        d = int(np.prod([dims[k] for k in keep]))
        return t.reshape(lead + (d, d))

    def test_factors_of_dimension_one_are_reshaped_away(self):
        # tracing out a trivial factor leaves the input as it is, -0.0 and
        # all, where np.trace over it turns -0.0 into +0.0
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        m[:, 0, 0] = complex(-0.0, -0.0)
        red = partial_trace_matrix(m, [1, 2, 2, 1], [0, 1, 2])
        assert red.shape == m.shape and red.tobytes() == m.tobytes()
        ref = self._trace_every_factor(m, [1, 2, 2, 1], [0, 1, 2])
        assert np.array_equal(red, ref)
        moved = np.signbit(red.view(float)) != np.signbit(ref.view(float))
        assert np.all(red.view(float)[moved] == 0.0) and np.count_nonzero(moved) == 6

    @pytest.mark.parametrize(
        "dims, keep",
        [
            ([1, 2, 2, 1], [1]), ([1, 2, 2, 1], [1, 2]), ([1, 2, 2, 1], [0, 3]), ([1, 2, 2, 1], [3]),
            ([2, 1, 3], [0]), ([2, 1, 3], [1]), ([2, 1, 3], [2]), ([2, 1, 3], [0, 1]), ([2, 1, 3], [0, 2]),
            ([3, 1, 1, 2], [1, 2]), ([3, 1, 1, 2], [0, 3]), ([1, 1, 4], [2]), ([1, 1, 4], [0]),
        ],
    )
    def test_mixed_factors_match_tracing_each(self, dims, keep):
        rng = np.random.default_rng(7)
        n = int(np.prod(dims))
        for shape in ((n, n), (5, n, n), (2, 3, n, n)):
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            red = partial_trace_matrix(m, dims, keep)
            ref = self._trace_every_factor(m, dims, keep)
            assert red.shape == ref.shape and np.array_equal(red, ref)

    def test_input_errors_kept_with_trivial_factors(self):
        m = np.eye(4)
        for dims, keep, match in (
            ([1, 2, 3, 1], [1], "product of dims"),
            ([1, 4, 2], [1], "product of dims"),
            ([1, 2, 2, 1], [], "nonempty strict subset"),
            ([1, 2, 2, 1], [0, 1, 2, 3], "nonempty strict subset"),
            ([1, 2, 2, 1], [4], "nonempty strict subset"),
            ([1, 2, 2, 1], [-1], "nonempty strict subset"),
            ([1, 4], [0, 1], "nonempty strict subset"),
        ):
            with pytest.raises(ValueError, match=match):
                partial_trace_matrix(m, dims, keep)


class TestNorms:
    def test_trace_norm_values(self):
        assert trace_norm(HermitianOperator(np.diag([1.0, -2.0]))) == pytest.approx(3.0)
        assert trace_norm(HermitianOperator(np.zeros((3, 3)))) == 0.0

    def test_trace_norm_vs_svd(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = rand_herm(rng, 7)
            sv = np.linalg.svd(m, compute_uv=False)
            assert trace_norm(HermitianOperator(m)) == pytest.approx(
                float(np.sum(sv)), abs=1e-10
            )

    def test_operator_norm_values(self):
        assert operator_norm(HermitianOperator(np.diag([1.0, -2.0]))) == pytest.approx(2.0)
        assert operator_norm(HermitianOperator.identity(5)) == pytest.approx(1.0)

    def test_operator_norm_vs_power_iteration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = rand_herm(rng, 8)
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v /= np.linalg.norm(v)
            m2 = m @ m  # iterate on M^2 so the top |eigenvalue| wins
            for _ in range(2000):
                v = m2 @ v
                v /= np.linalg.norm(v)
            est = np.sqrt(abs(np.vdot(v, m2 @ v)))
            assert operator_norm(HermitianOperator(m)) == pytest.approx(est, abs=1e-8)


class TestEntropy:
    # the one entropy the program computes: S(rho_L) of a chain state across
    # its cut, -sum w ln w over the support, from the spectrum w of
    # rho_L = M M^dag that the rate kernel takes of the 2^cut x 2^(n-cut)
    # Schmidt matrix M
    @staticmethod
    def entropy(psi, cut):
        M = psi.reshape(2**cut, -1)
        _, w, _, on, lw = _schmidt_rate(M, np.zeros_like(M))[:5]
        return -np.sum(w[on] * lw[on])

    def test_pure_state(self):
        psi = np.zeros(8)
        psi[5] = 1.0  # a product basis state: rho_L is pure
        for cut in (1, 2):
            assert self.entropy(psi, cut) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        # maximally entangled on 2^k x 2^k: rho_L = I / 2^k
        for k in (1, 2, 3):
            psi = np.eye(2**k).ravel() / np.sqrt(2**k)
            assert self.entropy(psi, k) == pytest.approx(k * np.log(2.0))

    def test_two_level_value(self):
        # Schmidt weights (0.8, 0.2)
        psi = np.array([np.sqrt(0.8), 0.0, 0.0, np.sqrt(0.2)])
        expected = -0.8 * np.log(0.8) - 0.2 * np.log(0.2)
        assert self.entropy(psi, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.500402, abs=1e-6)


class TestOperatorInequalities:
    def test_psd_ordering_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rand_psd(rng, 6)
            b = a + rand_psd(rng, 6)
            assert np.linalg.eigvalsh(b - a)[0] >= -1e-10

    def test_kittaneh_commutator_inequality(self):
        # ||[X, L]||_1 <= ||L|| Tr X for PSD X and L
        rng = np.random.default_rng(9)
        for d in (2, 5, 9):
            for _ in range(200):
                x = rand_psd(rng, d)
                ell = rand_psd(rng, d)
                lhs = trace_norm(HermitianOperator(1j * (x @ ell - ell @ x)))
                rhs = operator_norm(HermitianOperator(ell)) * np.trace(x).real
                assert lhs <= rhs * (1 + 1e-12)
