"""End-to-end acceptance checks, one test per criterion.

These run at full stated scale, so the file is slow (tens of minutes in
total); everything else in the test suite is fast.  Each test is independent
and seeded, and the terminal summary prints one PASS/FAIL line per criterion
(see conftest.py).
"""

import json

import numpy as np
import pytest

from entlab.chains import (
    ChainPathSpec,
    adiabatic_generator,
    build_chain_hamiltonian,
    centered_generator_term,
    chain_hprime,
    entropy_along_path,
    ground_state,
    locality_profile,
)
from entlab.cli import main
from entlab.operators import (
    HermitianOperator,
    commutator,
    matrix_log_on_support,
    operator_norm,
    partial_trace_matrix,
    trace_norm,
)
from entlab.rates import (
    lambda_functional,
    maximize_over_hamiltonian,
    proof_decomposition,
    sie_lambda_bound,
)
from entlab.search import (
    TrialBudget,
    conjecture_scan,
    maximize_rate_over_states,
    sample_admissible_pair,
)
from transport_reference import transport_residual


def test_criterion_1_proved_bound_suite():
    """maximize_over_hamiltonian never exceeds 9 p ln(1/p): >= 1e4 pairs per
    dim in {2,...,64}, p in {0.02, 0.05, 0.1}, zero tolerance past 1e-9."""
    p_values = (0.02, 0.05, 0.1)
    per_p = 3334  # 3 x 3334 >= 1e4 pairs per dimension
    worst_by_dim = {}
    for dim in (2, 4, 8, 16, 32, 64):
        for p in p_values:
            bound = sie_lambda_bound(p)
            worst = 0.0
            for t in range(per_p):
                pair = sample_admissible_pair(dim, p, [1, dim, int(p * 1000), t])
                val, _ = maximize_over_hamiltonian(pair)
                worst = max(worst, val / bound)
            assert worst <= 1.0 + 1e-9, (
                f"bound violated at dim={dim}, p={p}: ratio {worst}"
            )
            worst_by_dim[dim] = max(worst_by_dim.get(dim, 0.0), worst)
    ratios = ", ".join(f"d{dim} {w:.4f}" for dim, w in worst_by_dim.items())
    print(f"criterion 1: proved-bound suite clean over 6 dims x 3 p x 3334 pairs; worst val / bound {ratios}")


def test_criterion_2_proof_step_audit():
    """Rearrangement identity within 1e-9 and every per-bracket bound holds:
    >= 1e3 pairs per dim in {3..16}."""
    p_values = (0.02, 0.05, 0.1)
    least = closest = (np.inf, None)
    for dim in range(3, 17):
        for t in range(1000):
            p = p_values[t % 3]
            pair = sample_admissible_pair(dim, p, [2, dim, t])
            _, H_opt = maximize_over_hamiltonian(pair)
            P = HermitianOperator(0.5 * (np.eye(dim) - H_opt.mat))
            rep = proof_decomposition(pair, P)  # raises if identity fails
            assert abs(rep.reassembled_total - rep.direct_lambda) <= 1e-9
            assert rep.all_bounds_hold(), (
                f"bracket bound failed at dim={dim}, trial={t}, p={p}"
            )
            least = min(least, (float(rep.margins.min()), dim))
            # an empty bucket's bracket has bound 0 and margin 0
            closest = min(closest, (float(rep.margins[rep.margins > 0].min()), dim))
    print(
        "criterion 2: decomposition audit clean over dims 3..16 x 1000 pairs;"
        f" smallest margin {least[0]:.3e} (dim {least[1]}),"
        f" smallest positive margin {closest[0]:.3e} (dim {closest[1]})"
    )


def test_criterion_3_sim_reproduction_scan():
    """conjecture_scan over dims {2..128} x 10 p-points finds no ratio above
    1 + 1e-6, and the dim-2 cells reach ratio >= 0.9."""
    dims = [2, 4, 8, 16, 32, 64, 128]
    p_grid = list(np.linspace(0.05, 0.5, 10))
    budget = TrialBudget(restarts=200, iters=500)
    records, events = conjecture_scan(dims, p_grid, budget, seed=0)
    assert events == [], f"conjectured bound exceeded: {[e.to_json() for e in events]}"
    best_dim2 = max(r.ratio for r in records if r.dim == 2)
    assert best_dim2 >= 0.9, f"dim-2 best ratio only {best_dim2}"
    print(f"criterion 3: scan clean, dim-2 best ratio {best_dim2:.4f}")


def test_criterion_4_beta_saturation():
    """Two-qubit rate search with H = sz x sz reaches 1.9123 +- 0.01 (bits)."""
    sz = np.diag([1.0, -1.0])
    H = HermitianOperator(np.kron(sz, sz))
    assert operator_norm(H) == pytest.approx(1.0)
    rec = maximize_rate_over_states((1, 2, 2, 1), H, TrialBudget(5, 300), seed=0)
    bits = rec.best_value / np.log(2.0)
    assert bits == pytest.approx(1.9123, abs=0.01), f"reached {bits}"
    print(f"criterion 4: beta saturation at {bits:.5f}")


def _refine_hamiltonian(H0, C, pair, steps=60):
    """Projected-gradient ascent over unit-operator-norm H.  The objective is
    linear (-Tr(H C)), so the projection just clips eigenvalues to [-1, 1];
    the step size grows geometrically, which a line search would also settle
    on for a linear objective."""
    H = H0.copy()
    best = lambda_functional(HermitianOperator(H), pair)
    alpha = 1e-3
    for _ in range(steps):
        w, v = np.linalg.eigh(H - alpha * C)
        Hn = (v * np.clip(w, -1.0, 1.0)) @ v.conj().T
        val = lambda_functional(HermitianOperator(Hn), pair)
        if val > best:
            best = val
            H = Hn
        alpha *= 2.0
    return best


def test_criterion_5_closed_form_vs_search():
    """On 100 random pairs (dims 2..12) the closed form matches 1e3 random
    unit-norm probes plus gradient refinement within 1e-6 relative, and
    equals trace_norm(i[X, log Y]) to 1e-12."""
    rng = np.random.default_rng(50)
    for t in range(100):
        dim = int(rng.integers(2, 13))
        p = float(rng.uniform(0.02, 0.13))
        pair = sample_admissible_pair(dim, p, [5, t])
        lam, _ = maximize_over_hamiltonian(pair)
        logY = matrix_log_on_support(pair.Y).mat
        C = 1j * commutator(pair.X.mat, logY)
        assert lam == pytest.approx(
            trace_norm(HermitianOperator(C)), abs=1e-12 * max(1.0, lam)
        )
        best = -np.inf
        best_H = None
        for _ in range(1000):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            m = (g + g.conj().T) / 2
            m /= np.abs(np.linalg.eigvalsh(m)).max()
            val = abs(lambda_functional(HermitianOperator(m), pair))
            if val > best:
                best = val
                best_H = m if lambda_functional(HermitianOperator(m), pair) > 0 else -m
        refined = _refine_hamiltonian(best_H, C, pair)
        assert refined <= lam * (1 + 1e-12)
        assert refined == pytest.approx(lam, rel=1e-6), (
            f"search reached {refined}, closed form {lam} (trial {t}, dim {dim})"
        )
    print("criterion 5: closed form matched by probe + refinement on 100 pairs")


def test_criterion_6_operator_inequality_properties():
    """Kittaneh commutator inequality and rho_AB <= d_B rho_A x I_B each
    hold over 1e4 random instances at dims <= 16."""
    rng = np.random.default_rng(60)
    for _ in range(10_000):
        d = int(rng.integers(2, 17))
        gx = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        gl = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        X = gx @ gx.conj().T
        L = gl @ gl.conj().T
        lhs = trace_norm(HermitianOperator(1j * (X @ L - L @ X)))
        rhs = operator_norm(HermitianOperator(L)) * float(np.trace(X).real)
        assert lhs <= rhs * (1 + 1e-10)
    shapes = [(2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 8), (3, 5)]
    for t in range(10_000):
        dA, dB = shapes[t % len(shapes)]
        d = dA * dB
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho_A = partial_trace_matrix(rho, [dA, dB], [0])
        gap = dB * np.kron(rho_A, np.eye(dB)) - rho
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10
    print("criterion 6: both operator inequalities clean over 1e4 instances each")


def _chain_spec_n8():
    return ChainPathSpec(
        n_sites=8,
        cut=4,
        J=(1.0,),
        g=(1.5, 1.0),
        s_grid=tuple(np.linspace(0.0, 1.0, 21)),
    )


def test_criterion_7_adiabatic_transport():
    """TFIM n=8, g: 1.5 -> 2.5, 21 points: gap > 0.5, transport residual
    <= 1e-4 everywhere, dual-method rates agree, endpoint fidelity >= 0.999,
    entropy drift <= 0.2 nats."""
    spec = _chain_spec_n8()
    points = entropy_along_path(spec)  # raises if the interior rates disagree
    assert all(pt.gap > 0.5 for pt in points)
    s0 = points[0].entropy_left
    assert max(abs(pt.entropy_left - s0) for pt in points) <= 0.2
    for pt in points[1:-1]:
        tol = max(1e-4, 1e-2 * abs(pt.rate_commutator))
        assert abs(pt.rate_commutator - pt.rate_finite_difference) <= tol

    # transport residual ||iK psi - dpsi/ds|| at every grid point, against a
    # gauge-aligned second-order difference of ground states
    for pt in points:
        residual = transport_residual(spec, pt.s)
        assert residual <= 1e-4, f"residual {residual} at s={pt.s}"

    # integrate dpsi/ds = iK(s) psi with RK4 and compare with the endpoint
    k_cache = {}

    def K_at(s):
        if s not in k_cache:
            H = build_chain_hamiltonian(spec, s)
            k_cache[s] = 1j * adiabatic_generator(H, chain_hprime(spec, s)).R
        return k_cache[s]

    psi_at = lambda s: ground_state(build_chain_hamiltonian(spec, s))[1]  # noqa: E731
    psi = psi_at(0.0).astype(complex)
    n_steps = 50
    h = 1.0 / n_steps
    for i in range(n_steps):
        s = i * h
        k1 = 1j * (K_at(s) @ psi)
        k2 = 1j * (K_at(s + h / 2) @ (psi + h / 2 * k1))
        k3 = 1j * (K_at(s + h / 2) @ (psi + h / 2 * k2))
        k4 = 1j * (K_at(s + h) @ (psi + h * k3))
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        psi /= np.linalg.norm(psi)
    fidelity = abs(np.vdot(psi_at(1.0), psi))
    assert fidelity >= 0.999, f"endpoint fidelity {fidelity}"
    print(f"criterion 7: transport clean, endpoint fidelity {fidelity:.6f}")


def test_criterion_8_locality_decay():
    """Shell strengths of the mid-chain generator component decrease strictly
    beyond r = 2 on the same path at s = 0.5."""
    spec = _chain_spec_n8()
    center = 4
    k_c = centered_generator_term(spec, 0.5, center)
    prof = locality_profile(k_c, spec, center)
    assert prof.radii[-1] >= 4
    for r in range(3, len(prof.strengths)):
        assert prof.strengths[r] < prof.strengths[r - 1], (
            f"no decay at r={r}: {prof.strengths}"
        )
    print(f"criterion 8: shell strengths {np.round(prof.strengths, 4)}")


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI command re-run with identical config and seed is
    byte-identical, worker count included."""
    state_f = tmp_path / "state.json"
    ham_f = tmp_path / "ham.json"
    cfg_f = tmp_path / "cfg.json"
    path_f = tmp_path / "path.json"
    from entlab.search import sample_bipartite_state

    state_f.write_text(json.dumps(sample_bipartite_state((1, 2, 2, 1), 3).to_json()))
    sz = np.diag([1.0, -1.0])
    ham_f.write_text(json.dumps(HermitianOperator(np.kron(sz, sz)).to_json()))
    cfg_f.write_text(
        json.dumps({"dims": [2, 3], "p_grid": [0.1, 0.3], "restarts": 2, "iters": 5, "seed": 6})
    )
    path_f.write_text(
        json.dumps(
            {
                "n_sites": 4,
                "cut": 2,
                "J": [1.0],
                "g": [1.5, 1.0],
                "s_grid": list(np.linspace(0.0, 1.0, 21)),
            }
        )
    )
    commands = [
        ["bounds", "--d", "3", "--p", "0.1"],
        ["rate", "--state", str(state_f), "--ham", str(ham_f)],
        ["lambda-max", "--dim", "3", "--p", "0.1", "--seed", "5"],
        ["proof-audit", "--dim", "3", "--p", "0.1", "--trials", "5"],
        ["sim-scan", "--config", str(cfg_f), "--workers", "1"],
        ["beta-search", "--restarts", "1", "--iters", "10"],
        ["adiabatic", "--path", str(path_f)],
        ["locality", "--path", str(path_f), "--s", "0.5"],
    ]
    for i, cmd in enumerate(commands):
        a = tmp_path / f"out_{i}_a"
        b = tmp_path / f"out_{i}_b"
        assert main(cmd + ["--out", str(a)]) == 0, f"command failed: {cmd}"
        assert main(cmd + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"nondeterministic: {cmd}"
    # parallel cells must reproduce the serial report byte for byte
    serial = tmp_path / "scan_serial"
    parallel = tmp_path / "scan_parallel"
    assert main(["sim-scan", "--config", str(cfg_f), "--workers", "1", "--out", str(serial)]) == 0
    assert main(["sim-scan", "--config", str(cfg_f), "--workers", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()
    print("criterion 9: all CLI reports byte-identical across reruns and workers")
