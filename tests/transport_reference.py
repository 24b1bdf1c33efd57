"""Dense references for ground-state transport along a chain path, shared by
the unit and acceptance tests.  Every state and spectrum here comes from
``numpy.linalg.eigh`` of the full 2^n matrix, never from the flip or
mirror sector blocks that ``entlab.chains`` diagonalises."""

from functools import lru_cache

import numpy as np

from entlab.chains import adiabatic_generator, build_chain_hamiltonian, chain_hprime
from entlab.operators import DEGENERACY_TOL, partial_trace_matrix

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def site_op(op, i, n):
    return np.kron(np.kron(np.eye(2**i), op), np.eye(2 ** (n - i - 1)))


def kron_tfim(n, bonds, fields):
    """-sum_i bonds[i] Z_i Z_{i+1} - sum_i fields[i] X_i from tensor
    products, site 0 leftmost."""
    H = np.zeros((2**n, 2**n))
    zz = np.kron(SIGMA_Z, SIGMA_Z)
    for i, b in enumerate(bonds):
        H -= b * np.kron(np.kron(np.eye(2**i), zz), np.eye(2 ** (n - i - 2)))
    for i, f in enumerate(fields):
        H -= f * site_op(SIGMA_X, i, n)
    return H


def dense_ground_state(H):
    """Lowest eigenvector of the full matrix of H, first amplitude of
    magnitude above 1e-10 made positive."""
    v = np.linalg.eigh(H.mat)[1][:, 0]
    return v * np.sign(v[np.argmax(np.abs(v) > 1e-10)])


@lru_cache(maxsize=2)
def dense_eigh(spec, s):
    """``numpy.linalg.eigh`` of the full matrix of H(s), kept for the next
    reference at the same point."""
    return np.linalg.eigh(build_chain_hamiltonian(spec, s).mat)


def dense_quotients(spec, s, source):
    """Eigenvalues, eigenvectors and B_mn = <m|source|n> / (E_m - E_n),
    zero where |E_m - E_n| <= DEGENERACY_TOL, from the full matrix of H(s)."""
    w, v = dense_eigh(spec, s)
    A = v.T @ source @ v
    dE = w[:, None] - w[None, :]
    return w, v, np.divide(A, dE, out=np.zeros_like(A), where=np.abs(dE) > DEGENERACY_TOL)


def dense_path_point(spec, s):
    """(E0, gap, S_L, dS/ds, K_norm) at s.  The entropy and its rate come
    from the singular values of the Schmidt matrix: with p_k = sigma_k^2,
    S = -sum p ln p and dS/ds = -sum ln(p_k) dp_k, where
    dp_k = 2 sigma_k <u_k|dM|w_k>."""
    w, v, B = dense_quotients(spec, s, chain_hprime(spec, s).mat)
    psi = v[:, 0]
    dpsi = -v @ B[:, 0]  # iK|psi>, K = i v B v^T
    M = psi.reshape(2**spec.cut, -1)
    u, sigma, wt = np.linalg.svd(M, full_matrices=False)
    dp = 2.0 * sigma * np.einsum("ik,ij,kj->k", u, dpsi.reshape(M.shape), wt)
    p = sigma**2
    on = p > 1e-12 * p[0]
    entropy = float(-np.sum(p[on] * np.log(p[on])))
    rate = float(-np.sum(np.log(p[on]) * dp[on]))
    return w[0], w[1] - w[0], entropy, rate, float(np.linalg.norm(B, 2))


def dense_generator(spec, s, bonds, fields):
    """K = i v B v^T for the source -sum bonds Z Z - sum fields X, built
    from tensor products, and its norm ||B||."""
    _, v, B = dense_quotients(spec, s, kron_tfim(spec.n_sites, bonds, fields))
    return 1j * (v @ B @ v.T), float(np.sqrt(np.linalg.eigvalsh(B.T @ B)[-1]))


def dense_centered_term(spec, s, center):
    """``dense_generator`` for the source dJ Z_c Z_{c+1} + dg X_c, sign as
    in H."""
    n = spec.n_sites
    dJ, dg = spec.coupling_derivatives(s)
    bonds, fields = np.zeros(n - 1), np.zeros(n)
    fields[center] = dg
    if center < n - 1:
        bonds[center] = dJ
    return dense_generator(spec, s, bonds, fields)


def _aligned(psi_ref, psi):
    return psi * np.exp(-1j * np.angle(np.vdot(psi_ref, psi)))


def transport_residual(spec, s, ds=1e-4):
    """|| iK|psi> - d|psi>/ds || at s, for the generator under test.  The
    derivative is a second-order difference of dense ground states, each
    phase-aligned to psi(s) (parallel-transport gauge): central, one-sided at
    the ends of [0, 1], where s +- ds would leave the path."""
    psi_at = lambda t: dense_ground_state(build_chain_hamiltonian(spec, t))  # noqa: E731
    H = build_chain_hamiltonian(spec, s)
    K = 1j * adiabatic_generator(H, chain_hprime(spec, s)).R
    psi = psi_at(s)
    if s - ds < 0.0:
        f1, f2 = _aligned(psi, psi_at(s + ds)), _aligned(psi, psi_at(s + 2 * ds))
        dpsi = (-3.0 * psi + 4.0 * f1 - f2) / (2.0 * ds)
    elif s + ds > 1.0:
        b1, b2 = _aligned(psi, psi_at(s - ds)), _aligned(psi, psi_at(s - 2 * ds))
        dpsi = (3.0 * psi - 4.0 * b1 + b2) / (2.0 * ds)
    else:
        dpsi = (_aligned(psi, psi_at(s + ds)) - _aligned(psi, psi_at(s - ds))) / (2.0 * ds)
    return float(np.linalg.norm(1j * (K @ psi) - dpsi))


def dense_shell_strengths(R, n, center):
    """Shell strengths of K = i R around ``center``: each shell
    R_r - I (x) R_{r-1} (x) I is taken on its ball, as a whole matrix with
    no spin-flip blocks, and its norm is sqrt(lambda_max(S^T S))."""
    cur, lo, hi = R, 0, n - 1
    strengths = []
    for r in range(max(center, n - 1 - center), -1, -1):
        if r:
            in_lo, in_hi = max(0, center - r + 1), min(n - 1, center + r - 1)
        else:  # the empty ball keeps one 1 x 1 block, Tr R / dim
            in_lo, in_hi = center, center - 1
        dims = (2 ** (in_lo - lo), 2 ** (in_hi - in_lo + 1), 2 ** (hi - in_hi))
        inner = partial_trace_matrix(cur, dims, [1]) / (dims[0] * dims[2])
        shell = cur - np.kron(np.kron(np.eye(dims[0]), inner), np.eye(dims[2]))
        strengths.append(np.sqrt(np.linalg.eigvalsh(shell.T @ shell)[-1]))
        cur, lo, hi = inner, in_lo, in_hi
    return np.array(strengths[::-1])
