import numpy as np
import pytest

from entlab.operators import CONTRACTION_TOL, ROW_TRACE_FLOOR, HermitianOperator
from entlab.rates import sie_lambda_bound, sim_bound
from entlab.search import (
    P_SIE_MAX,
    ProvedBoundViolation,
    SearchRecord,
    TrialBudget,
    check_lambda_bound,
    conjecture_scan,
    maximize_lambda_over_pairs,
    maximize_rate_over_states,
    sample_admissible_pair,
    sample_bipartite_state,
    scan_rows,
)
from entlab import rates
from entlab.rates import BipartiteState, entanglement_rate
from entlab import search
from entlab.search import (
    _LINE_STEPS,
    _as_int_seed,
    _eval_pair_params,
    _haar_unitary,
    _herm_to_vec,
    _pair_forward,
    _pair_gradient,
    _row_norms,
)
from entlab.operators import log_divided_differences, spectral_rebuild


def _replay_draw(dim, p, seed):
    """The sampler's draws from the seed's generator in plain numpy, until
    one is admissible: Y = G G^dag / Tr, Z = U diag(z) U^dag with U Haar,
    W = Y^{1/2} Z Y^{1/2} and c = p / Tr W, rejected while c max z > 1.
    Returns (c W, the number of rejected draws)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ginibre = lambda: rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    for rejections in range(10_000):
        G = ginibre()
        Y = G @ G.conj().T
        Y /= np.trace(Y).real
        z = rng.uniform(0.0, 1.0, size=dim)
        q, r = np.linalg.qr(ginibre())
        U = q * (np.diag(r) / np.abs(np.diag(r)))
        w, v = np.linalg.eigh(Y)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        W = root @ (U * z) @ U.conj().T @ root
        tw = np.trace(W).real
        c = p / tw
        if tw > ROW_TRACE_FLOOR and c * z.max() <= 1.0 + CONTRACTION_TOL:
            return c * W, rejections
    raise AssertionError("no admissible draw")


class TestSampling:
    def test_pair_is_admissible(self):
        for dim in (2, 3, 8, 16):
            for p in (0.02, 0.1, 0.3):
                pair = sample_admissible_pair(dim, p, [dim, 1000])
                assert pair.dim == dim
                assert pair.p == p  # constructor re-validates traces and PSD

    @pytest.mark.parametrize("p", [0.05, 0.5])
    @pytest.mark.parametrize("dim", [2, 3, 8, 16, 64])
    def test_pair_is_the_sampler_formula(self, dim, p):
        # X = c Y^{1/2} Z Y^{1/2}, c = p / Tr(Y^{1/2} Z Y^{1/2}), rebuilt
        # densely from a replay of the draw
        X, _ = _replay_draw(dim, p, [dim, 5])
        pair = sample_admissible_pair(dim, p, [dim, 5])
        assert np.linalg.norm(pair.X.mat - X) <= 1e-13 * np.linalg.norm(X)

    def test_rejections_are_the_replayed_count(self):
        for dim in (2, 3):
            rec = maximize_lambda_over_pairs(dim, 0.5, TrialBudget(20, 0), 11)
            replayed = sum(_replay_draw(dim, 0.5, [11, r])[1] for r in range(20))
            assert rec.rejections == replayed > 0

    def test_pair_deterministic(self):
        a = sample_admissible_pair(4, 0.1, 42)
        b = sample_admissible_pair(4, 0.1, 42)
        c = sample_admissible_pair(4, 0.1, 43)
        assert np.array_equal(a.X.mat, b.X.mat)
        assert np.array_equal(a.Y.mat, b.Y.mat)
        assert not np.array_equal(a.X.mat, c.X.mat)

    def test_drawn_y_diagonalised_once(self):
        # the draw's decomposition of Y is the one the pair carries: already
        # cached, with the bits of numpy's eigh of the stored matrix
        for dim in (2, 3, 8):
            pair = sample_admissible_pair(dim, 0.1, [dim, 7])
            assert "eigh" in vars(pair.Y)
            w, v = np.linalg.eigh(pair.Y.mat)
            assert pair.Y.eigh[0].tobytes() == w.tobytes()
            assert pair.Y.eigh[1].tobytes() == v.tobytes()

    def test_pair_input_validation(self):
        with pytest.raises(ValueError):
            sample_admissible_pair(1, 0.1, 0)
        with pytest.raises(ValueError):
            sample_admissible_pair(3, 0.0, 0)
        with pytest.raises(ValueError, match="dim must be an integer"):
            sample_admissible_pair(2.5, 0.1, 0)
        assert sample_admissible_pair(3.0, 0.1, 0).dim == 3

    def test_sampler_numbers_checked(self):
        # p and the seed are numbers from outside the program: a string, a
        # bool or a fractional seed is rejected, not parsed or truncated
        for p in ("0.1", True):
            with pytest.raises(ValueError, match="p must be a number"):
                sample_admissible_pair(2, p, 0)
        for seed in (2.9, "3", True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                sample_admissible_pair(2, 0.1, seed)
            with pytest.raises(ValueError, match="seed must be an integer"):
                sample_bipartite_state((1, 2, 2, 1), seed)
        for seed in ([1, 2.5], (1, "2")):
            with pytest.raises(ValueError, match="seed entry must be an integer"):
                sample_admissible_pair(2, 0.1, seed)
        # an integral float reads as the integer, alone or in a list
        for seed, same in ((2.0, 2), ([2.0, 5], [2, 5])):
            a, b = sample_admissible_pair(3, 0.1, seed), sample_admissible_pair(3, 0.1, same)
            assert a.X.mat.tobytes() == b.X.mat.tobytes()
            a, b = sample_bipartite_state((1, 2, 2, 1), seed), sample_bipartite_state((1, 2, 2, 1), same)
            assert a.amplitudes.tobytes() == b.amplitudes.tobytes()

    def test_state_unit_norm_and_deterministic(self):
        s1 = sample_bipartite_state((1, 2, 2, 1), 7)
        s2 = sample_bipartite_state((1, 2, 2, 1), 7)
        assert np.array_equal(s1.amplitudes, s2.amplitudes)
        assert np.linalg.norm(s1.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_y_spectrum_varies(self):
        # a stuck generator would make every Y identical
        mats = [sample_admissible_pair(3, 0.1, s).Y.mat for s in range(5)]
        assert len({round(float(np.linalg.eigvalsh(m)[0]), 12) for m in mats}) > 1


class TestMaximizeLambda:
    def test_record_fields(self):
        rec = maximize_lambda_over_pairs(2, 0.1, TrialBudget(3, 0), 5)
        assert rec.dim == 2
        assert rec.p == 0.1
        assert rec.bound_value == pytest.approx(sim_bound(0.1))
        assert rec.ratio == pytest.approx(rec.best_value / rec.bound_value)
        assert rec.method == "random"
        assert rec.restarts_used == 3
        assert rec.seed == 5
        assert rec.trials >= 3

    def test_deterministic(self):
        a = maximize_lambda_over_pairs(3, 0.08, TrialBudget(4, 10), 9)
        b = maximize_lambda_over_pairs(3, 0.08, TrialBudget(4, 10), 9)
        assert a.best_value == b.best_value
        assert a.to_json() == b.to_json()

    def test_hybrid_beats_or_matches_random(self):
        rnd = maximize_lambda_over_pairs(2, 0.1, TrialBudget(5, 0), 1)
        hyb = maximize_lambda_over_pairs(2, 0.1, TrialBudget(5, 30), 1)
        assert hyb.best_value >= rnd.best_value - 1e-12

    def test_stays_below_proved_bound(self):
        for seed in range(5):
            rec = maximize_lambda_over_pairs(4, 0.05, TrialBudget(5, 20), seed)
            assert rec.best_value <= sie_lambda_bound(0.05) * (1 + 1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_argmax_reproduces_value(self, dim):
        # the record's pair, rebuilt from the best row's forward pass in Y's
        # eigenbasis, valued in the original basis by another path
        from entlab.rates import AdmissiblePair, maximize_over_hamiltonian

        rec = maximize_lambda_over_pairs(dim, 0.1, TrialBudget(4, 15), 2)
        assert rec.method == "hybrid"
        pair = AdmissiblePair.from_json(rec.argmax)
        val, _ = maximize_over_hamiltonian(pair)
        assert val == pytest.approx(rec.best_value, rel=1e-12)

    @pytest.mark.parametrize(
        "budget", [TrialBudget(3, 0), TrialBudget(2, 5)], ids=["random", "ascent"]
    )
    def test_pair_checked_once_per_call(self, monkeypatch, budget):
        # draws and ascent rows are admissible by construction; only the
        # record's pair goes through the AdmissiblePair check
        calls = []
        check = rates.AdmissiblePair.__post_init__
        counted = lambda pair: calls.append(check(pair))  # noqa: E731
        monkeypatch.setattr(rates.AdmissiblePair, "__post_init__", counted)
        maximize_lambda_over_pairs(3, 0.1, budget, 4)
        assert len(calls) == 1

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_random_cell_matches_independent_valuation(self, dim):
        # the same draws valued by another path: the public sampler, which
        # checks each pair, and maximize_over_hamiltonian (eigh of the
        # symmetrised C), not the search's stacked eigvalsh kernel
        from entlab.rates import AdmissiblePair, maximize_over_hamiltonian

        p, seed = 0.1, [dim, 3]
        rec = maximize_lambda_over_pairs(dim, p, TrialBudget(4, 0), seed)
        ref = max(
            maximize_over_hamiltonian(sample_admissible_pair(dim, p, [_as_int_seed(seed), r]))[0]
            for r in range(4)
        )
        assert rec.best_value == pytest.approx(ref, rel=1e-12)
        val, _ = maximize_over_hamiltonian(AdmissiblePair.from_json(rec.argmax))
        assert val == pytest.approx(rec.best_value, rel=1e-12)

    def test_trials_count_evaluations_not_rejected_draws(self):
        # at p = 0.5 most draws break c Z <= I and are drawn again
        rec = maximize_lambda_over_pairs(4, 0.5, TrialBudget(6, 0), 1)
        assert rec.trials == 6
        assert rec.rejections > 0

    def test_composite_seed_folding(self):
        assert _as_int_seed(3) == 3
        assert _as_int_seed([1, 2]) == _as_int_seed((1, 2))
        assert _as_int_seed([1, 2]) != _as_int_seed([2, 1])

    def test_batched_evaluation_matches_row_by_row(self):
        # a row's value and matrices do not depend on the batch it is in,
        # bit for bit, and infeasible rows (Y with no positive eigenvalue,
        # Z = 0) come back as nan
        d, p = 4, 0.1
        rng = np.random.default_rng(3)
        pair = sample_admissible_pair(d, p, 11)
        base = np.concatenate([_herm_to_vec(pair.Y.mat), _herm_to_vec(0.5 * np.eye(d))])
        rows = base + 1e-2 * rng.standard_normal((6, base.size))
        rows[2, :d] = -1.0
        rows[4, d * d :] = 0.0
        stack = _eval_pair_params(rows, d, p)
        vals = stack[0]
        assert np.isnan(vals[[2, 4]]).all()
        assert not np.isnan(vals[[0, 1, 3, 5]]).any()
        for k in range(rows.shape[0]):
            one = _eval_pair_params(rows[k : k + 1], d, p)
            # the value and both parameter eigendecompositions
            assert len(one) == len(stack) == 5
            for a, b in zip(one, stack):
                assert a[0].tobytes() == b[k].tobytes()

    def test_proved_bound_check_raises_on_fake_record(self):
        rec = SearchRecord(
            dim=2,
            p=0.1,
            best_value=10.0,
            bound_value=sim_bound(0.1),
            ratio=10.0 / sim_bound(0.1),
            argmax={},
            seed=0,
            trials=1,
            method="random",
        )
        with pytest.raises(ProvedBoundViolation) as exc:
            check_lambda_bound(rec.best_value, rec.p, rec.to_json())
        assert exc.value.bundle["best_value"] == 10.0


def _one_row_pair_gradient(row, p):
    """Reference: ``_pair_gradient`` one row at a time, as it was before it
    took stacks, for the stacked gradient to match bit for bit."""
    a, uy, b, uz = row[1:]
    C, _, _, X, t, s, on, l, Q, zc, Z, W, tw, c, dl = _pair_forward(a, uy, b, uz, p)
    d = a.size
    w, v = np.linalg.eigh(C)
    S = spectral_rebuild(v, np.sign(w))
    GX = -1j * dl * S
    GL = 1j * (S @ X - X @ S)
    GW = c * GX
    GW.flat[:: d + 1] -= c * (GX * W.T).sum().real / tw
    GR = Z @ (s[:, None] * GW) + (GW * s) @ Z
    da = a[:, None] - a
    pos = a > 0
    Dh = np.divide(1.0, t * (s[:, None] + s), out=np.zeros((d, d)), where=pos[:, None] & pos)
    Dh = np.divide(s[:, None] - s, da, out=Dh, where=pos[:, None] ^ pos)
    GA = Dh * GR + log_divided_differences(a, on, l) * GL
    GA.flat[:: d + 1] -= pos * GL.diagonal().real[on].sum() / t
    inside = (b > 0) & (b < 1)
    db = b[:, None] - b
    Dz = np.divide(zc[:, None] - zc, db, out=np.outer(inside, inside) * 1.0, where=db != 0)
    GB = Dz * (Q.conj().T @ (s[:, None] * GW * s) @ Q)
    weight = np.where(np.arange(d * d) < d, 1.0, 2.0)
    return np.concatenate([_herm_to_vec(u @ G @ u.conj().T) * weight for u, G in ((uy, GA), (uz, GB))])


class TestPairGradient:
    """``_pair_gradient`` against central differences of the objective it
    differentiates, ``_eval_pair_params``, along random directions."""

    @staticmethod
    def _theta(rng, a, b):
        """Parameters of the Y parameter U diag(a) U^dag and the Z parameter
        V diag(b) V^dag, in Haar-random bases."""
        U, V = _haar_unitary(rng, len(a)), _haar_unitary(rng, len(b))
        return np.concatenate([_herm_to_vec((U * a) @ U.conj().T), _herm_to_vec((V * b) @ V.conj().T)])

    @staticmethod
    def _check(theta, d, p=0.1, h=1e-6, directions=4):
        rng = np.random.default_rng(d)
        rows = _eval_pair_params(theta[None], d, p)
        assert np.isfinite(rows[0][0])
        g = _pair_gradient(rows, p)[0]
        for _ in range(directions):
            u = rng.standard_normal(theta.size)
            u /= np.linalg.norm(u)
            up, down = _eval_pair_params(np.stack([theta + h * u, theta - h * u]), d, p)[0]
            fd = (up - down) / (2.0 * h)
            assert abs(g @ u - fd) <= 1e-6 * abs(fd), (d, g @ u, fd)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_matches_central_differences(self, d):
        rng = np.random.default_rng([1, d])
        self._check(self._theta(rng, rng.uniform(1.0, 2.0, d), rng.uniform(0.2, 0.8, d)), d)

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_clipped_y_eigenvalue(self, d):
        # one negative eigenvalue of the Y parameter: off the support, so
        # the divided differences across the support boundary enter (at
        # d = 2 the value would be 0: X <= Y of rank 1 commutes with log Y)
        rng = np.random.default_rng([2, d])
        a = np.concatenate([[-0.5], rng.uniform(1.0, 2.0, d - 1)])
        self._check(self._theta(rng, a, rng.uniform(0.2, 0.8, d)), d)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_clipped_z_eigenvalues(self, d):
        # Z eigenvalues below 0 and above 1, each far from its kink
        rng = np.random.default_rng([3, d])
        b = np.concatenate([[-0.4, 1.3], rng.uniform(0.2, 0.8, d - 2)])
        self._check(self._theta(rng, rng.uniform(1.0, 2.0, d), b), d)

    def test_each_line_search_stacks_the_live_restarts_of_its_group(self, monkeypatch):
        # every evaluation of an ascent holds the line-search rows of each
        # restart its gradient was taken for, and no more than the group cap
        d, n = 4, _LINE_STEPS.size
        grads, rows = [], []
        gradient, evaluate = search._pair_gradient, search._eval_pair_params
        monkeypatch.setattr(search, "_pair_gradient", lambda r, p: grads.append(len(r[0])) or gradient(r, p))
        monkeypatch.setattr(
            search, "_eval_pair_params", lambda t, d, p: rows.append(len(t)) or evaluate(t, d, p)
        )
        monkeypatch.setattr(search, "_GROUP_ENTRIES", 3 * n * d * d)
        rec = maximize_lambda_over_pairs(d, 0.1, TrialBudget(7, 40), 3)
        assert rows == [n * k for k in grads]
        assert max(rows) * d * d <= search._GROUP_ENTRIES and max(grads) == 3
        assert rec.method == "hybrid"

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_stacked_gradient_matches_row_by_row(self, d):
        # Y parameters with one or two eigenvalues off the support in some
        # rows, Z parameters beyond [0, 1] in others
        rng = np.random.default_rng([4, d])
        thetas = []
        for k in range(6):
            a, b = rng.uniform(1.0, 2.0, d), rng.uniform(0.2, 0.8, d)
            if d > 2:
                a[: k % 3] = -0.5
            if k % 2:
                b[:2] = -0.4, 1.3
            thetas.append(self._theta(rng, a, b))
        stack = _eval_pair_params(np.stack(thetas), d, 0.1)
        assert np.isfinite(stack[0]).all()
        g = _pair_gradient(stack, 0.1)
        for k in range(len(thetas)):
            one = _pair_gradient(tuple(x[k : k + 1] for x in stack), 0.1)[0]
            ref = _one_row_pair_gradient(tuple(x[k] for x in stack), 0.1)
            assert one.tobytes() == g[k].tobytes() == ref.tobytes()

    def test_public_input_checked(self):
        budget = TrialBudget(1, 1)
        for p in ("0.1", True):
            with pytest.raises(ValueError, match="p must be a number"):
                maximize_lambda_over_pairs(2, p, budget, 1)
            with pytest.raises(ValueError, match="p must be a number"):
                conjecture_scan([2], [p], budget, 1)
        for seed in (2.9, "2", True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                maximize_lambda_over_pairs(2, 0.1, budget, seed)
            with pytest.raises(ValueError, match="seed must be an integer"):
                conjecture_scan([2], [0.1], budget, seed)
        for seed in ([1, 2.5], (1, "2")):
            with pytest.raises(ValueError, match="seed entry must be an integer"):
                maximize_lambda_over_pairs(2, 0.1, budget, seed)
        # an integral float reads as the integer
        ref = maximize_lambda_over_pairs(2, 0.1, budget, [2, 3])
        assert maximize_lambda_over_pairs(2, 0.1, budget, [2.0, 3]).to_json() == ref.to_json()
        scan = lambda seed: [r.to_json() for r in conjecture_scan([2], [0.1], budget, seed)[0]]  # noqa: E731
        assert scan(2.0) == scan(2)


class TestRateGradient:
    """``rates._rate_gradient`` against central differences of the stacked
    rate it differentiates, ``rates._entanglement_rates``, along random
    directions of the real parameters (Re amp, Im amp)."""

    # (2, 2, 3, 1): rho_aA is 4 x 4 of rank at most 3, so the divided
    # differences across the support boundary enter
    _DIMS = [(1, 2, 2, 1), (1, 2, 3, 1), (2, 2, 2, 2), (1, 3, 3, 1), (1, 3, 3, 2), (2, 2, 3, 1), (4, 2, 2, 4)]

    @pytest.mark.parametrize("dims", _DIMS)
    def test_matches_central_differences(self, dims, h=1e-6):
        rng = np.random.default_rng(list(dims))
        n, d = int(np.prod(dims)), dims[1] * dims[2]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (g + g.conj().T) / 2
        amp = sample_bipartite_state(dims, 7).amplitudes
        theta = np.concatenate([amp.real, amp.imag])
        grad = rates._rate_gradient(amp, dims, H)
        # a form of degree 2 in the amplitudes: its radial derivative is 2 rate
        rate = rates._entanglement_rates(amp[None], dims, H)[0]
        assert theta @ grad == pytest.approx(2.0 * rate, rel=1e-12, abs=1e-12)
        for _ in range(4):
            u = rng.standard_normal(2 * n)
            u /= np.linalg.norm(u)
            rows = np.stack([theta + h * u, theta - h * u])
            up, down = rates._entanglement_rates(rows[:, :n] + 1j * rows[:, n:], dims, H)
            fd = (up - down) / (2.0 * h)
            assert abs(grad @ u - fd) <= 1e-7 * abs(fd), (dims, grad @ u, fd)

    @pytest.mark.parametrize("dims", _DIMS)
    def test_stacked_gradient_matches_row_by_row(self, dims):
        d = dims[1] * dims[2]
        rng = np.random.default_rng([6, *dims])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (g + g.conj().T) / 2
        amps = np.stack([sample_bipartite_state(dims, k).amplitudes for k in range(5)])
        grads = rates._rate_gradient(amps, dims, H)
        for k, amp in enumerate(amps):
            assert rates._rate_gradient(amp, dims, H).tobytes() == grads[k].tobytes()


class TestMaximizeRate:
    def test_two_qubit_record(self):
        sz = np.diag([1.0, -1.0])
        H = HermitianOperator(np.kron(sz, sz))
        rec = maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(2, 40), 3)
        assert np.isfinite(rec.best_value)
        assert rec.best_value > 0.5  # even a short ascent clears this easily
        assert rec.best_value <= rec.bound_value * (1 + 1e-9)

    def test_proved_rate_bound_violation_raises(self, monkeypatch):
        # a rate above 18 ||H|| ln 2 is a bug; force one through the kernel
        # that values each start point
        monkeypatch.setattr(
            rates, "_entanglement_rates", lambda amps, dims, H: np.full(len(amps), 100.0)
        )
        sz = np.diag([1.0, -1.0])
        H = HermitianOperator(np.kron(sz, sz))
        with pytest.raises(ProvedBoundViolation) as exc:
            maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(1, 2), 3)
        assert "18 ||H|| ln min(d_A, d_B)" in str(exc.value)
        assert exc.value.bundle["best_value"] == 100.0
        assert exc.value.bundle["argmax"]["dims"] == [1, 2, 2, 1]

    def test_deterministic(self):
        H = HermitianOperator(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))
        a = maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(2, 10), 8)
        b = maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(2, 10), 8)
        assert a.best_value == b.best_value

    @staticmethod
    def _sequential_search(dims, H, budget, seed):
        """Reference: the ascent one point at a time, each through
        entanglement_rate, the exact gradient taken at each point; a restart
        ends at its first line search without a gain."""
        n = int(np.prod(dims))

        def unit(theta):
            amp = theta[:n] + 1j * theta[n:]
            return amp / np.linalg.norm(amp)

        rate = lambda theta: entanglement_rate(BipartiteState(dims, unit(theta)), H)  # noqa: E731
        best, best_theta, trials = -np.inf, None, 0
        for r in range(budget.restarts):
            rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
            amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            amp /= np.linalg.norm(amp)
            theta = np.concatenate([amp.real, amp.imag])
            f, trials = rate(theta), trials + 1
            for _ in range(budget.iters):
                g = rates._rate_gradient(unit(theta), dims, H.mat) - 2.0 * f * theta
                trials += 1
                gn = float(np.linalg.norm(g))
                if gn < 1e-12:
                    break
                alpha, accepted = 0.1, False
                while alpha >= 1e-8:
                    tn = theta + alpha * g / gn
                    tn /= np.linalg.norm(tn)
                    fn = rate(tn)
                    trials += 1
                    if fn > f + 1e-14:
                        theta, f, accepted = tn, fn, True
                        break
                    alpha /= 2.0
                if not accepted:
                    break
            if f > best:
                best, best_theta = f, theta
        return best, best_theta, trials

    @pytest.mark.parametrize("dims", [(1, 2, 2, 1), (1, 2, 3, 1)])
    def test_matches_sequential_ascent_bit_for_bit(self, dims):
        # the stacked ascent takes the same steps as a point-by-point one
        rng = np.random.default_rng(5)
        d = dims[1] * dims[2]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = HermitianOperator((g + g.conj().T) / 2)
        # every restart stops before its 300 steps run out
        budget = TrialBudget(2, 300)
        rec = maximize_rate_over_states(dims, H, budget, 4)
        best, theta, trials = self._sequential_search(dims, H, budget, 4)
        n = theta.size // 2
        amp = theta[:n] + 1j * theta[n:]
        amp /= np.linalg.norm(amp)
        assert rec.best_value == best
        assert rec.trials == trials
        assert rec.argmax == BipartiteState(dims, amp).to_json()

    def test_zero_iterations_mean_random_sampling(self):
        H = HermitianOperator(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))
        rec = maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(3, 0), 2)
        assert (rec.method, rec.trials) == ("random", 3)
        assert maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(3, 1), 2).method == "hybrid"

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="restarts"):
            TrialBudget(0, 10)
        with pytest.raises(ValueError, match="iters"):
            TrialBudget(2, -3)
        assert TrialBudget(1, 0).iters == 0
        # counts are integers: an integral float reads as one, a bool does not
        for restarts, iters in ((1.8, 0), (True, 0), (2, 0.5), ("2", 0)):
            with pytest.raises(ValueError, match="must be an integer"):
                TrialBudget(restarts, iters)
        budget = TrialBudget(2.0, 1.0)
        assert (budget.restarts, budget.iters) == (2, 1) and type(budget.restarts) is int

    def test_dims_and_hamiltonian_checked_before_any_restart(self, monkeypatch):
        # four dims, each at least 1, and H_AB of width d_A d_B; no start
        # point is valued before the check
        monkeypatch.setattr(search, "_rng", lambda seed: pytest.fail("a restart began"))
        H = HermitianOperator(np.diag([1.0, -1.0, -1.0, 1.0]))
        for dims in ((1, 2, 2), (1, 2, 2, 1, 1), (0, 2, 2, 1), (1, 2, 2, -1)):
            with pytest.raises(ValueError, match="dims must be four positive integers"):
                maximize_rate_over_states(dims, H, TrialBudget(1, 0), 1)
        for dims in ((1, 2, 3, 1), (2, 1, 2, 2)):
            with pytest.raises(ValueError, match=r"H_AB dim 4 != d_A\*d_B"):
                maximize_rate_over_states(dims, H, TrialBudget(1, 0), 1)

    def test_trivial_factor_rejected_before_any_restart(self, monkeypatch):
        # at d_A = 1 or d_B = 1 every rate is 0 and so is the bound
        # 18 ||H|| ln 1, so the ratio would be 0 / 0
        monkeypatch.setattr(search, "_rng", lambda seed: pytest.fail("a restart began"))
        H = HermitianOperator(np.diag([1.0, -1.0]))
        for dims in ((1, 1, 2, 1), (2, 2, 1, 3)):
            with pytest.raises(ValueError, match="a state search needs both >= 2"):
                maximize_rate_over_states(dims, H, TrialBudget(1, 0), 1)

    def test_dims_input_checked(self):
        # dims are integers: a fractional entry or a string is rejected, not
        # truncated or parsed, and an integral float reads as the integer
        H = HermitianOperator(np.diag([1.0, -1.0, -1.0, 1.0]))
        amp = np.full(4, 0.5)
        for dims in ((1, 2.7, 2, 1), (1, "2", 2, 1)):
            with pytest.raises(ValueError, match="dims entry must be an integer"):
                sample_bipartite_state(dims, 3)
            with pytest.raises(ValueError, match="dims entry must be an integer"):
                maximize_rate_over_states(dims, H, TrialBudget(1, 0), 1)
            with pytest.raises(ValueError, match="dims entry must be an integer"):
                BipartiteState(dims, amp)
        dims = (1, 2.0, 2, 1)
        assert sample_bipartite_state(dims, 3).dims == (1, 2, 2, 1)
        assert BipartiteState(dims, amp).dims == (1, 2, 2, 1)
        rec = maximize_rate_over_states(dims, H, TrialBudget(1, 0), 1)
        assert rec.to_json() == maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(1, 0), 1).to_json()


def test_row_norms_match_numpy_norm_bit_for_bit():
    # C-ordered rows, and F-ordered or column-sliced stacks, whose rows
    # are strided
    rng = np.random.default_rng(9)
    for n in (4, 8, 12, 32, 40):
        rows = rng.standard_normal((5, 2 * n))
        amps = rows[:, :n] + 1j * rows[:, n:]
        wide = rng.standard_normal((5, 3 * n))
        strided = (np.asfortranarray(rows), np.asfortranarray(amps), wide[:, ::3], wide[:, n:])
        for stack in (rows, amps, *strided):
            ref = np.array([np.linalg.norm(r) for r in stack])
            assert _row_norms(stack).tobytes() == ref.tobytes()


class TestLockstep:
    """``_ascend`` steps the restarts of a search together, in groups of at
    most ``_GROUP_ENTRIES``; no restart's path depends on the others."""

    @staticmethod
    def _ascents(monkeypatch, cap, search_call):
        """The record of ``search_call`` with the group cap at ``cap``, and
        the size of each group and the end point, row and evaluation count
        of each restart, in restart order."""
        calls = []
        ascend = search._ascend

        def recorded(*args):
            calls.append(ascend(*args))
            return calls[-1]

        monkeypatch.setattr(search, "_ascend", recorded)
        monkeypatch.setattr(search, "_GROUP_ENTRIES", cap)
        rec = search_call()
        ends = [np.concatenate([c[0] for c in calls]), np.concatenate([c[2] for c in calls])]
        ends += [np.concatenate(parts) for parts in zip(*(c[1] for c in calls))]
        return rec, [len(c[2]) for c in calls], ends

    def _check(self, monkeypatch, side, search_call):
        # one restart per group, as R one-start ascents; groups of two; and
        # every restart in one group
        n = _LINE_STEPS.size
        caps = (1, 2 * n * side**2, search._GROUP_ENTRIES)
        runs = [self._ascents(monkeypatch, cap, search_call) for cap in caps]
        R = len(runs[0][1])
        assert [r[1] for r in runs] == [[1] * R, [2] * (R // 2) + [1] * (R % 2), [R]]
        for rec, _, ends in runs[1:]:
            assert rec.to_json() == runs[0][0].to_json()
            assert [e.tobytes() for e in ends] == [e.tobytes() for e in runs[0][2]]
        # the restarts stop at different steps
        assert len(set(runs[0][2][1])) > 1

    @pytest.mark.parametrize("d, budget", [(2, (5, 200)), (4, (5, 60)), (8, (3, 20))])
    def test_pair_restarts_match_one_start_ascents(self, monkeypatch, d, budget):
        self._check(monkeypatch, d, lambda: maximize_lambda_over_pairs(d, 0.2, TrialBudget(*budget), 6))

    @pytest.mark.parametrize("dims", [(1, 2, 2, 1), (1, 2, 3, 1)])
    def test_state_restarts_match_one_start_ascents(self, monkeypatch, dims):
        rng = np.random.default_rng(5)
        d = dims[1] * dims[2]
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = HermitianOperator((g + g.conj().T) / 2)
        search_call = lambda: maximize_rate_over_states(dims, H, TrialBudget(5, 100), 2)  # noqa: E731
        # a row is valued through Schmidt matrices (d_a d_A) x (d_B d_b)
        self._check(monkeypatch, max(dims[0] * dims[1], dims[2] * dims[3]), search_call)

    def test_zero_gradient_stops_its_restart_only(self):
        # f(x) = -|x|^2 from x = 0, a stationary point, and from x = (1, 0):
        # the first stops after its gradient, the second climbs to 0
        evaluate = lambda rows: (-(rows**2).sum(axis=1),)  # noqa: E731
        gradient = lambda theta, rows: -2.0 * theta  # noqa: E731
        theta = np.array([[0.0, 0.0], [1.0, 0.0]])
        both = search._ascend(evaluate, theta, evaluate(theta), 50, gradient)
        assert both[2][0] == 2 and both[2][1] > 2
        for k in range(2):
            one = search._ascend(evaluate, theta[k : k + 1], evaluate(theta[k : k + 1]), 50, gradient)
            assert [x[0].tobytes() for x in (one[0], one[1][0], one[2])] == [
                x[k].tobytes() for x in (both[0], both[1][0], both[2])
            ]


def _first_stall_ascent(evaluate, theta, start, iters, gradient, retract=lambda rows: rows):
    """Reference for one restart of ``_ascend``, one row at a time: stop
    after ``iters`` steps, at a zero gradient, or at the first line search
    without a gain.  Returns the end point, its row of the tuple and the
    evaluations: the start point, each gradient and each line-search step
    run."""
    th, row, evals = theta[None], tuple(s[None] for s in start), 1
    for _ in range(iters):
        g = gradient(th, row)
        evals += 1
        gn = _row_norms(g)
        if gn[0] < 1e-12:
            break
        for alpha in _LINE_STEPS:
            trial = retract(th + alpha * g / gn[:, None])
            out = evaluate(trial)
            evals += 1
            if out[0][0] > row[0][0] + 1e-14:
                th, row = trial, out
                break
        else:
            break
    return th[0], tuple(r[0] for r in row), evals


def _random_hamiltonian(d, seed=5):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator((g + g.conj().T) / 2)


ZZ = HermitianOperator(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))
# searches as functions of their ascent steps per restart; "state-zz" is criterion 4's
SEARCHES = {
    "pair-d2": lambda iters: maximize_lambda_over_pairs(2, 0.2, TrialBudget(5, iters), 6),
    "pair-d4": lambda iters: maximize_lambda_over_pairs(4, 0.35, TrialBudget(3, iters), 1),
    "state-zz": lambda iters: maximize_rate_over_states((1, 2, 2, 1), ZZ, TrialBudget(5, iters), 0),
    "state-1231": lambda iters: maximize_rate_over_states(
        (1, 2, 3, 1), _random_hamiltonian(6), TrialBudget(2, iters), 2
    ),
}


class TestEarlyStop:
    """A restart ends at its first line search without a gain, which leaves
    its point where it was, and counts only the evaluations it ran."""

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_no_restart_is_valued_after_a_search_without_gain(self, monkeypatch, name):
        # each block of 24 rows is the line search of one live restart, from
        # the point its gradient was taken at
        ascend, n = search._ascend, _LINE_STEPS.size
        fruitless, searches = set(), [0]

        def traced(evaluate, theta, start, iters, gradient, *rest):
            pending = []

            def grad(th, rows):
                g = gradient(th, rows)
                pending[:] = [(t.tobytes(), v) for t, v, gn in zip(th, rows[0], _row_norms(g)) if gn >= 1e-12]
                return g

            def ev(rows):
                out = evaluate(rows)
                assert len(rows) == n * len(pending)
                for (point, value), block in zip(pending, out[0].reshape(-1, n)):
                    assert point not in fruitless, "a restart stepped again from a point without a gain"
                    searches[0] += 1
                    if not (block > value + 1e-14).any():
                        fruitless.add(point)
                return out

            return ascend(ev, theta, start, iters, grad, *rest)

        monkeypatch.setattr(search, "_ascend", traced)
        SEARCHES[name](300)
        assert fruitless and searches[0] > len(fruitless)

    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_evaluations_match_the_five_stall_rule(self, monkeypatch, name):
        # every restart of a full-budget search against ``_first_stall_ascent``:
        # the same end point, row and evaluations
        ascend, total = search._ascend, [0]

        def checked(evaluate, theta, start, iters, gradient, *rest):
            got = ascend(evaluate, theta, start, iters, gradient, *rest)
            for k in range(len(theta)):
                ref = _first_stall_ascent(evaluate, theta[k], tuple(s[k] for s in start), iters, gradient, *rest)
                assert got[0][k].tobytes() == ref[0].tobytes()
                assert [r[k].tobytes() for r in got[1]] == [r.tobytes() for r in ref[1]]
                assert got[2][k] == ref[2], f"restart {k}: {got[2][k]} evaluations, first-stall rule {ref[2]}"
            total[0] += int(got[2].sum())
            return got

        monkeypatch.setattr(search, "_ascend", checked)
        assert SEARCHES[name](300).trials == total[0]


class TestScan:
    def test_records_in_grid_order_and_no_events(self):
        budget = TrialBudget(3, 5)
        records, events = conjecture_scan([2, 3], [0.1, 0.3], budget, 4)
        assert [(r.dim, r.p) for r in records] == [
            (2, 0.1),
            (2, 0.3),
            (3, 0.1),
            (3, 0.3),
        ]
        assert events == []

    def test_worker_count_does_not_change_results(self):
        budget = TrialBudget(2, 5)
        serial, _ = conjecture_scan([2, 3], [0.1, 0.2], budget, 6, workers=1)
        parallel, _ = conjecture_scan([2, 3], [0.1, 0.2], budget, 6, workers=2)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The size of each pool the scan opens, recorded by a stand-in for
        ``ProcessPoolExecutor`` that starts no process."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(search, "ProcessPoolExecutor", Pool)
        return sizes

    def test_pool_no_larger_than_the_cells(self, pool_sizes):
        # a pool starts all its workers at once, so it gets one per cell at most
        budget = TrialBudget(1, 0)
        serial, _ = conjecture_scan([2], [0.1, 0.2], budget, 3)
        parallel, _ = conjecture_scan([2], [0.1, 0.2], budget, 3, workers=5000)
        assert pool_sizes == [2]
        assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]

    def test_worker_count_checked(self, pool_sizes):
        # an integer of at least 1, checked before any pool opens
        budget = TrialBudget(1, 0)
        for workers in ("2", True, 2.5, 0):
            with pytest.raises(ValueError, match="workers"):
                conjecture_scan([2, 3], [0.1, 0.2], budget, 3, workers=workers)
        assert pool_sizes == []
        conjecture_scan([2], [0.1, 0.2], budget, 3, workers=2.0)
        assert pool_sizes == [2]

    def test_zero_iterations_mean_random_sampling_at_every_dim(self):
        records, _ = conjecture_scan([2, 3, 8], [0.1], TrialBudget(4, 0), 2)
        assert [(r.method, r.restarts_used) for r in records] == [("random", 4)] * 3

    def test_scan_rows_columns_and_nan_regime(self):
        budget = TrialBudget(2, 0)
        records, _ = conjecture_scan([2], [0.1, 0.3], budget, 5)
        rows = scan_rows(records)
        assert list(rows[0]) == [
            "dim",
            "p",
            "best",
            "sim_bound",
            "sie_bound",
            "ratio_sim",
            "ratio_sie",
            "seed",
            "trials",
        ]
        assert rows[0]["sie_bound"] == pytest.approx(sie_lambda_bound(0.1))
        assert np.isnan(rows[1]["sie_bound"])  # 0.3 > 1/e^2
        assert np.isnan(rows[1]["ratio_sie"])

    def test_events_are_the_records_above_the_envelope(self, monkeypatch):
        records, _ = conjecture_scan([2], [0.1, 0.3], TrialBudget(2, 0), 5)
        ratios = sorted(r.ratio for r in records)
        assert ratios[0] < ratios[1]
        # a threshold between the two ratios keeps the larger record alone
        monkeypatch.setattr(search, "SIM_VIOLATION_RTOL", (ratios[0] + ratios[1]) / 2 - 1.0)
        again, events = conjecture_scan([2], [0.1, 0.3], TrialBudget(2, 0), 5)
        assert [r.to_json() for r in again] == [r.to_json() for r in records]
        assert [e.to_json() for e in events] == [r.to_json() for r in records if r.ratio == ratios[1]]

    def test_fractional_dims_rejected(self):
        with pytest.raises(ValueError, match="dim must be an integer"):
            maximize_lambda_over_pairs(2.5, 0.1, TrialBudget(1, 0), 1)
        with pytest.raises(ValueError, match="dim must be an integer"):
            conjecture_scan([2.9], [0.1], TrialBudget(2, 0), 1)
        rec = maximize_lambda_over_pairs(3.0, 0.1, TrialBudget(2, 1), 1)
        assert type(rec.dim) is int
        assert rec.to_json() == maximize_lambda_over_pairs(3, 0.1, TrialBudget(2, 1), 1).to_json()

    def test_regime_constant(self):
        assert P_SIE_MAX == pytest.approx(np.exp(-2.0))
