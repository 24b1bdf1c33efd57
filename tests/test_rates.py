from dataclasses import replace

import numpy as np
import pytest

from entlab.operators import (
    PSD_TOL,
    SIE_VIOLATION_RTOL,
    HermitianOperator,
    partial_trace_matrix,
    trace_norm,
)
from entlab.rates import (
    AdmissiblePair,
    BipartiteState,
    BOUND_CONSTANTS,
    bucket_eigenvalues,
    entanglement_rate,
    lambda_functional,
    maximize_over_hamiltonian,
    proof_decomposition,
    sie_lambda_bound,
    sie_rate_bound,
    sim_bound,
)
from entlab.rates import (
    AdmissibilityError,
    NumericalConsistencyError,
    _eigenbasis_terms,
    _entanglement_rates,
)
from entlab.search import sample_admissible_pair, sample_bipartite_state

from audit_reference import reference_audit


def rand_unit_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = (g + g.conj().T) / 2
    return m / np.abs(np.linalg.eigvalsh(m)).max()


class TestAdmissiblePair:
    def test_accepts_valid(self):
        X = HermitianOperator(np.diag([0.05, 0.05]))
        Y = HermitianOperator(np.diag([0.6, 0.4]))
        pair = AdmissiblePair(X, Y, 0.1)
        assert pair.dim == 2

    def test_rejects_trace_mismatch(self):
        X = HermitianOperator(np.diag([0.05, 0.05]))
        Y = HermitianOperator(np.diag([0.6, 0.4]))
        with pytest.raises(AdmissibilityError):
            AdmissiblePair(X, Y, 0.2)

    def test_rejects_x_above_y(self):
        X = HermitianOperator(np.diag([0.5, 0.0]))
        Y = HermitianOperator(np.diag([0.4, 0.6]))
        with pytest.raises(AdmissibilityError):
            AdmissiblePair(X, Y, 0.5)

    def test_rejects_negative_x(self):
        X = HermitianOperator(np.diag([0.2, -0.1]))
        Y = HermitianOperator(np.diag([0.6, 0.4]))
        with pytest.raises(AdmissibilityError):
            AdmissiblePair(X, Y, 0.1)

    @pytest.mark.parametrize("check", ["X", "Y - X", "P", "I - P"])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_psd_checks_decided_at_the_tolerance(self, check, factor):
        # the lowest eigenvalue of the checked matrix at -factor * PSD_TOL,
        # in bases where no matrix is diagonal: accepted within the
        # tolerance, rejected 1 % beyond it
        rng = np.random.default_rng(4)
        U, V = (np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0] for _ in range(2))
        rot = lambda Q, w: HermitianOperator((Q * np.asarray(w)) @ Q.conj().T)  # noqa: E731
        low = -factor * PSD_TOL
        X = rot(U, [low, 0.02, 0.03, 0.05 - low] if check == "X" else [0.01, 0.02, 0.03, 0.04])
        gap = rot(V, [low, 0.2, 0.3, 0.4 - low] if check == "Y - X" else [0.2, 0.2, 0.25, 0.25])
        P = rot(V, [low, 0.3, 0.6, 1.0] if check == "P" else [0.0, 0.3, 0.6, 1.0 - low])
        message = {"X": "X has eigenvalue", "Y - X": "Y - X has eigenvalue"}.get(check, "outside")

        def run():
            pair = AdmissiblePair(X, HermitianOperator(X.mat + gap.mat), 0.1)
            _eigenbasis_terms(pair, P)

        if factor < 1.0:
            run()
        else:
            with pytest.raises(ValueError, match=message):
                run()

    def test_json_round_trip(self):
        pair = sample_admissible_pair(4, 0.1, 11)
        back = AdmissiblePair.from_json(pair.to_json())
        assert np.allclose(back.X.mat, pair.X.mat)
        assert np.allclose(back.Y.mat, pair.Y.mat)

    @pytest.mark.parametrize("p", ["0.1", None, True, [0.1]])
    def test_json_p_is_a_number(self, p):
        obj = sample_admissible_pair(2, 0.1, 3).to_json()
        with pytest.raises(ValueError, match="p must be a number"):
            AdmissiblePair.from_json({**obj, "p": p})


class TestBipartiteState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_amplitudes_rejected(self, bad):
        amp = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        amp[1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            BipartiteState((1, 2, 2, 1), amp)


class TestBoundFunctions:
    def test_sie_lambda_values(self):
        p = np.exp(-2.0)
        assert sie_lambda_bound(p) == pytest.approx(18.0 * np.exp(-2.0))
        assert sie_lambda_bound(0.01) == pytest.approx(0.09 * np.log(100.0))

    def test_sie_lambda_regime(self):
        with pytest.raises(ValueError):
            sie_lambda_bound(0.2)
        with pytest.raises(ValueError):
            sie_lambda_bound(0.0)

    def test_sie_rate_values(self):
        assert sie_rate_bound(3, 1.0) == pytest.approx(18.0 * np.log(3.0))
        assert sie_rate_bound(1, 5.0) == 0.0
        with pytest.raises(ValueError):
            sie_rate_bound(0, 1.0)
        for h_norm in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="H_norm"):
                sie_rate_bound(2, h_norm)

    def test_sim_values(self):
        assert sim_bound(0.5) == pytest.approx(np.log(2.0))
        assert sim_bound(0.1) == pytest.approx(
            -0.1 * np.log(0.1) - 0.9 * np.log(0.9)
        )
        assert sim_bound(0.3) == pytest.approx(sim_bound(0.7))
        with pytest.raises(ValueError):
            sim_bound(1.0)

    def test_constants_registry(self):
        assert BOUND_CONSTANTS.c_sie == 18.0
        assert BOUND_CONSTANTS.beta == 1.9123


class TestLambdaFunctional:
    def hand_pair(self):
        # X with off-diagonal 0.05, Y diagonal (0.8, 0.2): the commutator with
        # log Y is purely off-diagonal and the maximum works out by hand
        X = HermitianOperator(np.array([[0.05, 0.05], [0.05, 0.05]]))
        Y = HermitianOperator(np.diag([0.8, 0.2]))
        return AdmissiblePair(X, Y, 0.1)

    def test_hand_computed_maximum(self):
        lam, H_opt = maximize_over_hamiltonian(self.hand_pair())
        assert lam == pytest.approx(2.0 * 0.05 * np.log(4.0), abs=1e-12)
        assert np.abs(np.linalg.eigvalsh(H_opt.mat)).max() == pytest.approx(1.0)

    def test_maximum_is_attained(self):
        rng = np.random.default_rng(21)
        for dim in (2, 3, 6):
            pair = sample_admissible_pair(dim, 0.08, int(rng.integers(1 << 30)))
            lam, H_opt = maximize_over_hamiltonian(pair)
            assert lambda_functional(H_opt, pair) == pytest.approx(lam, abs=1e-10)

    def test_maximum_dominates_random_h(self):
        rng = np.random.default_rng(22)
        for dim in (2, 4, 7):
            pair = sample_admissible_pair(dim, 0.05, int(rng.integers(1 << 30)))
            lam, _ = maximize_over_hamiltonian(pair)
            for _ in range(50):
                H = HermitianOperator(rand_unit_herm(rng, dim))
                assert abs(lambda_functional(H, pair)) <= lam * (1 + 1e-10)

    def test_equals_trace_norm_of_commutator(self):
        from entlab.operators import matrix_log_on_support, commutator

        rng = np.random.default_rng(23)
        for dim in (2, 5, 9):
            pair = sample_admissible_pair(dim, 0.1, int(rng.integers(1 << 30)))
            lam, _ = maximize_over_hamiltonian(pair)
            logY = matrix_log_on_support(pair.Y).mat
            C = HermitianOperator(1j * commutator(pair.X.mat, logY))
            assert lam == pytest.approx(trace_norm(C), abs=1e-12)

    def test_genuine_imaginary_residue_raises(self):
        # an operator with an anti-Hermitian part (built past the validator)
        # gives -i Tr(H [X, log Y]) an imaginary part of its own size
        rng = np.random.default_rng(34)
        pair = sample_admissible_pair(4, 0.1, 34)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        H = object.__new__(HermitianOperator)
        object.__setattr__(H, "mat", (g + g.conj().T) / 2 + 1j * (g + g.conj().T) / 2)
        with pytest.raises(NumericalConsistencyError, match="lambda_functional: imaginary residue"):
            lambda_functional(H, pair)

    def test_residue_check_scales_with_h(self):
        # the residue tolerance is relative: at ||H|| = 1e10 the value is
        # 1e10 times the unit-norm value, not a realness failure
        rng = np.random.default_rng(37)
        pair = sample_admissible_pair(4, 0.1, 37)
        h = rand_unit_herm(rng, 4)
        unit = lambda_functional(HermitianOperator(h), pair)
        assert lambda_functional(HermitianOperator(1e10 * h), pair) == pytest.approx(1e10 * unit, rel=1e-12)

    def test_commuting_pair_gives_zero(self):
        # X proportional to Y commutes with log Y, so the functional vanishes
        Y = HermitianOperator(np.diag([0.7, 0.3]))
        X = HermitianOperator(0.1 * Y.mat)
        pair = AdmissiblePair(X, Y, 0.1)
        lam, H_opt = maximize_over_hamiltonian(pair)
        assert lam == 0.0
        assert np.allclose(H_opt.mat, np.eye(2))

    def test_eigenbasis_sum_matches_commutator_form(self):
        # the audit's direct eigenbasis double sum is 2|Tr(P [X, log Y])|
        rng = np.random.default_rng(24)
        for dim in (2, 4, 8):
            pair = sample_admissible_pair(dim, 0.09, int(rng.integers(1 << 30)))
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            w, v = np.linalg.eigh((g + g.conj().T) / 2)
            P = HermitianOperator(
                (v * rng.uniform(0.0, 1.0, size=dim)) @ v.conj().T
            )
            direct = proof_decomposition(pair, P).direct_lambda
            assert direct == pytest.approx(
                2.0 * abs(lambda_functional(P, pair)), abs=1e-9
            )

    def test_eigenbasis_rejects_bad_projector(self):
        pair = sample_admissible_pair(3, 0.1, 5)
        with pytest.raises(ValueError):
            proof_decomposition(pair, HermitianOperator(2.0 * np.eye(3)))


class TestEntanglementRate:
    def _finite_difference_rate(self, state, H, dt=1e-5):
        """Oracle: entropy of the aA factor after evolving by exp(iHt)."""
        d_a, d_A, d_B, d_b = state.dims
        Hfull = np.kron(
            np.kron(np.eye(d_a), H.mat), np.eye(d_b)
        )
        w, v = np.linalg.eigh(Hfull)

        def entropy_at(t):
            u = (v * np.exp(1j * w * t)) @ v.conj().T
            psi = u @ state.amplitudes
            rho = np.outer(psi, psi.conj())
            rho_aA = partial_trace_matrix(rho, [d_a * d_A, d_B * d_b], [0])
            lam = np.linalg.eigvalsh(rho_aA)
            lam = lam[lam > 1e-14]
            return -np.sum(lam * np.log(lam))

        return (entropy_at(dt) - entropy_at(-dt)) / (2 * dt)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(31)
        # ancillas wider than the interacting pair: (8, 2, 2, 8) is the
        # half-chain cut of a 10-site chain at its middle bond
        for dims in ((1, 2, 2, 1), (2, 2, 3, 1), (1, 3, 2, 2), (4, 2, 2, 4), (8, 2, 2, 8)):
            n = int(np.prod(dims))
            amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            amp /= np.linalg.norm(amp)
            state = BipartiteState(dims, amp)
            dAB = dims[1] * dims[2]
            g = rng.standard_normal((dAB, dAB)) + 1j * rng.standard_normal((dAB, dAB))
            H = HermitianOperator((g + g.conj().T) / 2)
            rate = entanglement_rate(state, H)
            fd = self._finite_difference_rate(state, H)
            assert rate == pytest.approx(fd, abs=1e-5)

    def test_product_state_zero_rate_when_h_local(self):
        # H acting on A alone cannot build aA|Bb entanglement
        rng = np.random.default_rng(32)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        amp = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        state = BipartiteState((1, 2, 3, 1), amp)
        hA = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = HermitianOperator(np.kron((hA + hA.conj().T) / 2, np.eye(3)))
        assert entanglement_rate(state, H) == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        state = BipartiteState((1, 2, 2, 1), np.array([1.0, 0, 0, 0]))
        with pytest.raises(ValueError):
            entanglement_rate(state, HermitianOperator(np.eye(6)))

    def test_large_norm_scales_exactly(self):
        # the rate is linear in H: at ||H|| = 1e10 it is 1e10 times the
        # unit-norm rate
        state = sample_bipartite_state((1, 2, 2, 1), 3)
        sz = np.diag([1.0, -1.0])
        h = np.kron(sz, sz)
        unit = entanglement_rate(state, HermitianOperator(h))
        big = entanglement_rate(state, HermitianOperator(1e10 * h))
        assert big == pytest.approx(1e10 * unit, rel=1e-12)

    def test_sign_is_that_of_e_plus_iht(self):
        # the rate is taken under e^{+iH~t}; under e^{-iH~t} it is the rate
        # at -H, the exact negative, bit for bit
        for dims, seed in (((1, 2, 2, 1), 3), ((2, 2, 3, 2), 4), ((4, 2, 2, 4), 5)):
            state = sample_bipartite_state(dims, seed)
            d = dims[1] * dims[2]
            H = HermitianOperator(rand_unit_herm(np.random.default_rng(seed), d))
            minus = HermitianOperator(-H.mat)
            assert entanglement_rate(state, minus) == -entanglement_rate(state, H)
            assert entanglement_rate(state, H) != 0.0

    def test_stacked_rows_match_one_by_one(self):
        # a row's rate does not depend on its batch, bit for bit, and is
        # the rate of that state
        rng = np.random.default_rng(35)
        for dims in ((1, 2, 2, 1), (2, 2, 3, 1), (1, 3, 2, 2)):
            n = int(np.prod(dims))
            amps = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
            amps /= np.linalg.norm(amps, axis=1)[:, None]
            dAB = dims[1] * dims[2]
            g = rng.standard_normal((dAB, dAB)) + 1j * rng.standard_normal((dAB, dAB))
            H = HermitianOperator((g + g.conj().T) / 2)
            stacked = _entanglement_rates(amps, dims, H.mat)
            for k in range(len(amps)):
                one = _entanglement_rates(amps[k : k + 1], dims, H.mat)
                assert one.tobytes() == stacked[k : k + 1].tobytes()
                assert entanglement_rate(BipartiteState(dims, amps[k]), H) == stacked[k]

    def test_real_rows_read_as_complex_rows(self):
        # a real Schmidt matrix has a complex tangent i M_h: the kernel
        # takes their dot in complex arithmetic
        rng = np.random.default_rng(38)
        dims = (2, 2, 3, 2)
        amps = rng.standard_normal((3, 24))
        amps /= np.linalg.norm(amps, axis=1)[:, None]
        H = rand_unit_herm(rng, 6)
        assert _entanglement_rates(amps, dims, H) == pytest.approx(
            _entanglement_rates(amps.astype(complex), dims, H), rel=1e-13, abs=1e-15
        )


def support_basis(pair):
    """Y's support eigenvalues, descending, and X's diagonal in their
    eigenvectors, as the audit hands them to ``bucket_eigenvalues``."""
    P = HermitianOperator.identity(pair.dim)
    y, x_diag, _ = _eigenbasis_terms(pair, P)
    return y, x_diag


class TestBuckets:
    def test_index_examples(self):
        # p = 0.25: [0.25, 1) is bucket 1, [0.0625, 0.25) is bucket 2; a
        # single eigenvalue's bucket is the number of buckets
        bucket = lambda y: len(bucket_eigenvalues(np.array([y]), np.zeros(1), 0.25).index_ranges)  # noqa: E731
        assert bucket(0.5) == 1
        assert bucket(0.3) == 1
        assert bucket(0.2) == 2
        assert bucket(1.0) == 1
        assert bucket(0.25) == 1
        assert bucket(0.0625) == 2
        assert bucket(1e-6) == 10
        y = np.array([1.0, 0.5, 0.3, 0.25, 0.2, 0.0625, 1e-6])
        buckets = bucket_eigenvalues(y, np.arange(7.0), 0.25)
        assert buckets.index_ranges == [(0, 4), (4, 6)] + [(6, 6)] * 7 + [(6, 7)]
        assert buckets.weights.tolist() == [6.0, 9.0] + [0.0] * 7 + [6.0]

    def test_weights_sum_to_p(self):
        rng = np.random.default_rng(61)
        for dim in (3, 6, 10):
            pair = sample_admissible_pair(dim, 0.1, int(rng.integers(1 << 30)))
            buckets = bucket_eigenvalues(*support_basis(pair), pair.p)
            assert np.sum(buckets.weights) == pytest.approx(pair.p, abs=1e-10)
            assert np.all(buckets.weights > -1e-12)
            # ranges tile the spectrum in order
            hi_prev = 0
            for lo, hi in buckets.index_ranges:
                assert lo == hi_prev
                hi_prev = hi
            assert hi_prev == dim

    def test_rejects_large_p(self):
        y, x_diag = support_basis(sample_admissible_pair(3, 0.1, 1))
        with pytest.raises(ValueError):
            bucket_eigenvalues(y, x_diag, 0.7)

    def test_rejects_unsorted_or_off_support(self):
        y, x_diag = support_basis(sample_admissible_pair(3, 0.1, 1))
        with pytest.raises(ValueError, match="descending"):
            bucket_eigenvalues(y[::-1], x_diag[::-1], 0.1)
        with pytest.raises(ValueError, match="support"):
            bucket_eigenvalues(np.array([0.5, 0.0]), np.zeros(2), 0.1)


class TestProofDecomposition:
    def audit(self, dim, p, seed):
        pair = sample_admissible_pair(dim, p, seed)
        _, H_opt = maximize_over_hamiltonian(pair)
        P = HermitianOperator(0.5 * (np.eye(dim) - H_opt.mat))
        return pair, proof_decomposition(pair, P)

    def test_identity_and_bounds(self):
        rng = np.random.default_rng(71)
        for dim in (3, 8, 16):
            for _ in range(20):
                pair, rep = self.audit(dim, 0.1, int(rng.integers(1 << 30)))
                assert rep.reassembled_total == pytest.approx(
                    rep.direct_lambda, abs=1e-9
                )
                assert rep.all_bounds_hold()
                assert np.min(rep.margins) > -1e-9
                assert rep.total_bound == pytest.approx(sie_lambda_bound(0.1))

    @pytest.mark.parametrize("excess, holds", [(2.0, False), (0.5, True)])
    def test_bracket_over_its_bound(self, excess, holds):
        # one line-one bracket over its bound by excess times the slack
        _, rep = self.audit(8, 0.1, 17)
        assert rep.all_bounds_hold()
        slack = SIE_VIOLATION_RTOL * max(1.0, rep.total_bound)
        _, b = rep.line1_brackets[0]
        over = replace(
            rep,
            line1_brackets=[(b + excess * slack, b)] + rep.line1_brackets[1:],
            margins=np.concatenate([[-excess * slack], rep.margins[1:]]),
        )
        assert over.all_bounds_hold() is holds

    def test_matches_mask_reference(self):
        # the block-sum table against per-bracket masks and the scalar bucket
        # search: same buckets, brackets and margins to rounding of sums of
        # at most d^2 terms, the direct value bit for bit
        cases = [(dim, t) for dim in range(3, 17) for t in range(30)]
        cases += [(dim, t) for dim in (32, 64, 128) for t in range(2)]
        for dim, t in cases:
            p = (0.02, 0.05, 0.1)[t % 3]
            pair = sample_admissible_pair(dim, p, [7, dim, t])
            _, H_opt = maximize_over_hamiltonian(pair)
            P = HermitianOperator(0.5 * (np.eye(dim) - H_opt.mat))
            rep, ref = proof_decomposition(pair, P), reference_audit(pair, P)
            assert bucket_eigenvalues(*support_basis(pair), p).index_ranges == ref["ranges"]
            assert rep.direct_lambda == ref["direct"]
            tol = 1e-12 * max(1.0, rep.total_bound)
            for got, want in ((rep.line1_brackets, ref["line1"]), (rep.line3_brackets, ref["line3"])):
                assert len(got) == len(want)
                assert np.all(np.abs(np.array(got) - np.array(want)) <= tol)
            assert np.all(np.abs(np.subtract(rep.separated_sum, ref["separated"])) <= tol)
            assert abs(rep.reassembled_total - ref["reassembled"]) <= tol
            assert np.all(np.abs(rep.margins - ref["margins"]) <= tol)
            assert rep.total_bound == ref["total_bound"]

    def test_direct_matches_eigenbasis_sum(self):
        pair = sample_admissible_pair(6, 0.05, 99)
        _, H_opt = maximize_over_hamiltonian(pair)
        P = HermitianOperator(0.5 * (np.eye(6) - H_opt.mat))
        rep = proof_decomposition(pair, P)
        assert rep.direct_lambda == pytest.approx(
            2.0 * abs(lambda_functional(P, pair)), abs=1e-9
        )

    def test_optimal_projector_halves_the_maximum(self):
        # P = (I - H_opt)/2 turns the closed-form maximum into 2|Tr(P[X,logY])|
        pair = sample_admissible_pair(5, 0.08, 100)
        lam, H_opt = maximize_over_hamiltonian(pair)
        P = HermitianOperator(0.5 * (np.eye(5) - H_opt.mat))
        rep = proof_decomposition(pair, P)
        assert rep.direct_lambda == pytest.approx(lam, abs=1e-9)

    def test_rejects_out_of_regime_p(self):
        pair = sample_admissible_pair(3, 0.2, 3)
        with pytest.raises(ValueError):
            proof_decomposition(pair, HermitianOperator(np.eye(3) / 2))

    def test_json_keys(self):
        _, rep = self.audit(4, 0.1, 17)
        blob = rep.to_json()
        assert set(blob) == {
            "brackets_line1",
            "brackets_line3",
            "separated",
            "total",
            "direct",
            "margins",
            "p",
            "dim",
        }
