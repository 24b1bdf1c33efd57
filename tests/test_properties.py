"""Property tests: symmetries that hold whatever the kernel computes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entlab.chains import _SECTORS, ChainPathSpec, GapCollapseError, _sector_vector
from entlab.chains import build_chain_hamiltonian, ground_state
from entlab.operators import HermitianOperator
from entlab.rates import (
    AdmissiblePair,
    BipartiteState,
    _eigenbasis_terms,
    bucket_eigenvalues,
    entanglement_rate,
    maximize_over_hamiltonian,
)
from entlab.search import sample_admissible_pair


def haar_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    d_ = np.diag(r)
    return q * (d_ / np.abs(d_))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 8),
    p=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_max_over_hamiltonian_is_unitarily_covariant(dim, p, seed):
    # lambda(U H U^dag; U X U^dag, U Y U^dag) = lambda(H; X, Y), so the
    # maximum is invariant and the maximiser rotates with the pair
    pair = sample_admissible_pair(dim, p, seed)
    U = haar_unitary(np.random.default_rng([seed, 1]), dim)
    rotated = AdmissiblePair(
        HermitianOperator(U @ pair.X.mat @ U.conj().T),
        HermitianOperator(U @ pair.Y.mat @ U.conj().T),
        p,
    )
    lam, H = maximize_over_hamiltonian(pair)
    lam_u, H_u = maximize_over_hamiltonian(rotated)
    assert abs(lam_u - lam) <= 1e-9 * max(lam, 1e-12)
    # H_opt = -sign(C) is unique when no eigenvalue of C = i[X, log Y] is
    # near zero; rounding can flip the sign of such an eigenvalue
    wy, vy = np.linalg.eigh(pair.Y.mat)  # sampled Y has full rank
    L = (vy * np.log(wy)) @ vy.conj().T
    C = 1j * (pair.X.mat @ L - L @ pair.X.mat)
    w = np.linalg.eigvalsh(C)
    if np.min(np.abs(w)) > 1e-6 * np.max(np.abs(w)):
        assert np.max(np.abs(H_u.mat - U @ H.mat @ U.conj().T)) < 1e-6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=st.floats(0.01, 0.5), seed=st.integers(0, 2**32 - 1))
def test_max_over_hamiltonian_two_level_closed_form(p, seed):
    # at d = 2, in Y's eigenbasis, C = i[X, log Y] has only the off-diagonal
    # entries +-i X_12 ln(y_2 / y_1), so ||C||_1 = 2 |X_12| |ln(y_1 / y_2)|
    pair = sample_admissible_pair(2, p, seed)
    w, v = np.linalg.eigh(pair.Y.mat)
    x12 = (v.conj().T @ pair.X.mat @ v)[0, 1]
    expected = 2.0 * abs(x12) * abs(np.log(w[0] / w[1]))
    lam, _ = maximize_over_hamiltonian(pair)
    assert abs(lam - expected) <= 1e-9 * expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    dim=st.integers(2, 16),
    p=st.floats(0.01, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_buckets_follow_the_interval_rule(dim, p, seed):
    # each support eigenvalue y of bucket k has p^k <= y < p^(k-1), the
    # ranges tile the descending support in order and the weights add up to
    # Tr X = p
    pair = sample_admissible_pair(dim, p, seed)
    y, x_diag, _ = _eigenbasis_terms(pair, HermitianOperator.identity(dim))
    buckets = bucket_eigenvalues(y, x_diag, p)
    pos = 0
    for k, (lo, hi) in enumerate(buckets.index_ranges, start=1):
        assert lo == pos
        assert np.all((p**k <= y[lo:hi]) & (y[lo:hi] < p ** (k - 1)))
        pos = hi
    assert pos == y.size
    assert abs(np.sum(buckets.weights) - p) <= 1e-12


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 7),
    J=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
    g=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    s=st.floats(0.0, 1.0),
)
def test_sector_spectrum_is_the_dense_spectrum(n, J, g, s):
    # polynomial J and g of degree <= 2, |g(s)| >= 0.1
    spec = ChainPathSpec(n_sites=n, cut=1, J=J, g=g)
    g_s = spec.couplings(s)[1]
    assume(abs(g_s) >= 0.1)
    H = build_chain_hamiltonian(spec, s)
    dense = np.linalg.eigvalsh(H.mat)
    scale = np.max(np.abs(dense))
    # the four sectors' eigenvalues together are the spectrum of the full
    # matrix, and each sector's eigenvectors, unfolded, are eigenvectors of
    # H, of the spin flip F and of the mirror M with the sector's signs
    both = np.sort(np.concatenate([w for w, _ in H.sectors]))
    assert np.max(np.abs(both - dense)) <= 1e-12 * scale
    V = np.hstack([_sector_vector(u, 2**n, k) for k, (_, u) in enumerate(H.sectors)])
    W = np.concatenate([w for w, _ in H.sectors])
    assert np.max(np.abs(V.T @ V - np.eye(2**n))) <= 1e-12
    assert np.max(np.abs(H.mat @ V - V * W)) <= 1e-12 * scale
    ends = np.cumsum([w.size for w, _ in H.sectors])[:-1]
    for (f, m), cols in zip(_SECTORS, np.split(V, ends, axis=1)):
        assert np.max(np.abs(cols[::-1] - f * cols), initial=0.0) <= 1e-12
        assert np.max(np.abs(mirrored(cols, n) - m * cols), initial=0.0) <= 1e-12
    e0, psi, gap = ground_state(H)
    assert abs(e0 - dense[0]) <= 1e-12 * scale
    assert abs(gap - (dense[1] - dense[0])) <= 1e-12 * scale
    assert np.max(np.abs(H.mat @ psi - e0 * psi)) <= 1e-12 * scale
    # the ground state is a spin-flip eigenvector: F = +1 for g > 0, and
    # (-1)^n for g < 0, where prod Z_i maps g to -g and anticommutes with
    # each X_i
    parity = 1.0 if g_s > 0 else (-1.0) ** n
    assert np.max(np.abs(psi[::-1] - parity * psi)) <= 1e-12


def mirrored(V, n):
    """The columns of V with site i exchanged for site n - 1 - i."""
    t = V.reshape([2] * n + [-1])
    return t.transpose(list(range(n - 1, -1, -1)) + [n]).reshape(V.shape)


@pytest.mark.parametrize(
    "n, widths", [(2, (2, 0, 1, 1)), (3, (3, 1, 3, 1)), (8, (72, 56, 64, 64)), (10, (272, 240, 256, 256))]
)
def test_sector_widths(n, widths):
    # (F, M) = (+1, -1) is empty at n = 2 and one level wide at n = 3; the
    # ground state, the gap and a closed gap are read across such sectors
    spec = ChainPathSpec(n_sites=n, cut=1, J=(1.0,), g=(0.8,))
    H = build_chain_hamiltonian(spec, 0.0)
    assert tuple(w.size for w, _ in H.sectors) == widths
    dense = np.linalg.eigvalsh(H.mat)
    e0, psi, gap = ground_state(H)
    assert abs(e0 - dense[0]) <= 1e-12 * abs(dense[0])
    assert abs(gap - (dense[1] - dense[0])) <= 1e-12 * abs(dense[0])
    assert np.max(np.abs(psi - mirrored(psi[:, None], n)[:, 0])) <= 1e-12
    if n <= 3:
        closed = build_chain_hamiltonian(ChainPathSpec(n_sites=n, cut=1, J=(1.0,), g=(0.0,)), 0.0)
        with pytest.raises(GapCollapseError):
            ground_state(closed)


SIGMA_Z = np.diag([1.0, -1.0])
ZZ = HermitianOperator(np.kron(SIGMA_Z, SIGMA_Z))


def two_qubit_state(x):
    """sqrt(x)|++> + i sqrt(1 - x)|-->."""
    plus, minus = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
    return np.sqrt(x) * np.kron(plus, plus) + 1j * np.sqrt(1 - x) * np.kron(minus, minus)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.floats(0.001, 0.999), seed=st.integers(0, 2**32 - 1))
def test_two_qubit_rate_closed_form(x, seed):
    # under H = Z (x) Z the Schmidt weights x, 1 - x of psi_x flow at the
    # rate 2 sqrt(x(1 - x)) ln(x / (1 - x)); it vanishes at x = 1/2
    expected = 2.0 * np.sqrt(x * (1 - x)) * np.log(x / (1 - x))
    tol = 1e-12 * max(abs(expected), 1e-3)
    psi = two_qubit_state(x)
    assert abs(entanglement_rate(BipartiteState((1, 2, 2, 1), psi), ZZ) - expected) <= tol
    # one local unitary U_A (x) U_B on both the state and H leaves it unchanged
    rng = np.random.default_rng(seed)
    U = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    H_u = HermitianOperator(U @ ZZ.mat @ U.conj().T)
    assert abs(entanglement_rate(BipartiteState((1, 2, 2, 1), U @ psi), H_u) - expected) <= tol


def test_two_qubit_rate_maximum():
    # the largest rate any two-qubit state reaches under Z (x) Z is
    # 1.9123 bits (Dur, Vidal, Cirac, Linden and Popescu, 2001)
    def bits(x):
        return entanglement_rate(BipartiteState((1, 2, 2, 1), two_qubit_state(x)), ZZ) / np.log(2)

    coarse = np.linspace(0.5, 0.999, 500)
    best = coarse[np.argmax([bits(x) for x in coarse])]
    top = max(bits(x) for x in np.linspace(best - 1e-3, best + 1e-3, 201))
    assert abs(top - 1.9123) <= 1e-4


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_max_over_hamiltonian_diagonal_y_closed_form(dim, seed):
    # Y diagonal and X = Y^1/2 Z Y^1/2 with 0 <= Z <= I block diagonal on
    # disjoint index pairs: C = i[X, log Y] is block diagonal on the same
    # pairs, with eigenvalues +-|X_ij| ln(y_i / y_j) on pair (i, j)
    rng = np.random.default_rng(seed)
    y = np.exp(rng.uniform(-6.0, 0.0, dim))
    y /= y.sum()
    Z = np.diag(rng.uniform(0.0, 1.0, dim)).astype(complex)
    order = rng.permutation(dim)
    pairs = list(zip(order[0::2], order[1::2]))
    for i, j in pairs:
        u = haar_unitary(rng, 2)
        Z[np.ix_([i, j], [i, j])] = (u * rng.uniform(0.0, 1.0, 2)) @ u.conj().T
    X = np.sqrt(y)[:, None] * Z * np.sqrt(y)[None, :]
    p = float(np.trace(X).real)
    pair = AdmissiblePair(HermitianOperator(X), HermitianOperator(np.diag(y)), p)
    expected = sum(2.0 * abs(X[i, j]) * abs(np.log(y[i] / y[j])) for i, j in pairs)
    lam, _ = maximize_over_hamiltonian(pair)
    assert abs(lam - expected) <= 1e-9 * expected
