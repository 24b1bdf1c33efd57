"""Independent solutions the benchmark checks entlab's outputs against.

None of this calls entlab.  Where entlab diagonalises with ``numpy.linalg.eigh``
these routines take a different route: the matrix log comes from
``scipy.linalg.logm`` (Schur-based inverse scaling and squaring), trace norms
from singular values, and the spin chain from its free-fermion solution.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

BETA_BITS = 1.9123  # two-qubit rate ceiling in bits (Dur, Vidal, Cirac, Linden, Popescu 2001)


def binary_entropy(p: float) -> float:
    """-p ln p - (1-p) ln(1-p), nats."""
    return float(-p * np.log(p) - (1.0 - p) * np.log1p(-p))


def proved_lambda_bound(p: float) -> float:
    """9 p ln(1/p), the proved ceiling of the functional for p <= 1/e^2."""
    return float(9.0 * p * np.log(1.0 / p))


def _log_on_support(Y: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """log Y on its support.  Full-rank Y goes through ``logm`` directly;
    a rank-deficient Y is compressed onto the span of its singular vectors
    above ``rel_tol`` first, with log 0 := 0 on the kernel."""
    u, sv, _ = sla.svd(Y)
    on = sv > rel_tol * sv[0]
    if on.all():
        return sla.logm(Y)
    us = u[:, on]
    return us @ sla.logm(us.conj().T @ Y @ us) @ us.conj().T


def commutator_matrix(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """C = i[X, log Y]; the functional at H is -Tr(H C)."""
    L = _log_on_support(Y)
    return 1j * (X @ L - L @ X)


def trace_norm(M: np.ndarray) -> float:
    return float(np.sum(sla.svdvals(M)))


def operator_norm(M: np.ndarray) -> float:
    return float(sla.svdvals(M)[0])


def lambda_max(X: np.ndarray, Y: np.ndarray) -> float:
    """max over unit-norm Hermitian H of -i Tr(H [X, log Y]) = || i[X, log Y] ||_1."""
    return trace_norm(commutator_matrix(X, Y))


def admissibility_defect(X: np.ndarray, Y: np.ndarray, p: float) -> float:
    """Largest violation of Tr X = p, Tr Y = 1, X >= 0, Y - X >= 0 (0 when admissible)."""
    tx = abs(np.trace(X).real - p)
    ty = abs(np.trace(Y).real - 1.0)
    neg_x = max(0.0, -float(sla.eigvalsh(X, driver="ev")[0]))
    neg_yx = max(0.0, -float(sla.eigvalsh(Y - X, driver="ev")[0]))
    return float(max(tx, ty, neg_x, neg_yx))


def two_qubit_rate(psi: np.ndarray, H: np.ndarray) -> float:
    """Entropy growth rate (nats) of the A|B cut of a pure two-qubit state
    under H: -i Tr(H [rho_AB, log rho_A (x) I])."""
    psi = np.asarray(psi, dtype=complex).ravel()
    M = psi.reshape(2, 2)
    rho_A = M @ M.conj().T
    rho = np.outer(psi, psi.conj())
    L = np.kron(_log_on_support(rho_A), np.eye(2))
    return float((-1j * np.trace(H @ (rho @ L - L @ rho))).real)


# ---------------------------------------------------------------------------
# open transverse-field Ising chain, H = -J sum Z_i Z_{i+1} - g sum X_i,
# through Jordan-Wigner.  A Hadamard on every site maps it to
# -J sum X_i X_{i+1} - g sum Z_i without changing spectrum or cut entropy;
# with Majoranas c_{2j} = (prod_{k<j} Z_k) X_j and c_{2j+1} = (prod_{k<j} Z_k) Y_j
# that is H = (i/4) c^T A c with A_{2j,2j+1} = 2g and A_{2j+1,2j+2} = 2J
# (Peschel 2003 for the entropy of a block).


def _majorana_matrix(n: int, J: float, g: float) -> np.ndarray:
    A = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    A[2 * idx, 2 * idx + 1] = 2.0 * g
    A[2 * idx[:-1] + 1, 2 * idx[:-1] + 2] = 2.0 * J
    return A - A.T


def tfim_spectrum(n: int, J: float, g: float) -> tuple[float, float]:
    """Ground energy -1/2 sum eps_k and gap min eps_k of the open chain."""
    eps = np.sort(np.abs(sla.eigvalsh(1j * _majorana_matrix(n, J, g))))[::2]  # +-eps pairs
    return float(-0.5 * eps.sum()), float(eps[0])


def tfim_cut_entropy(n: int, cut: int, J: float, g: float) -> float:
    """Ground-state entropy (nats) of the first ``cut`` sites."""
    w, v = sla.eigh(1j * _majorana_matrix(n, J, g))
    gamma = (1j * (v * np.sign(w)) @ v.conj().T).real  # <i c_k c_l>, k != l
    mu = sla.eigvalsh(1j * gamma[: 2 * cut, : 2 * cut])
    q = np.clip((1.0 + mu) / 2.0, 0.0, 1.0)
    q = q[q > 0.0]
    return float(-np.sum(q * np.log(q)))


def tfim_path_point(n: int, cut: int, J_coeffs, g_coeffs, s: float, ds: float = 1e-3):
    """(E0, gap, S_L, dS/ds) at s on a polynomial path; dS/ds from a
    five-point stencil of the exact entropy (truncation ~ ds^4)."""
    poly = np.polynomial.polynomial.polyval

    def entropy(t):
        return tfim_cut_entropy(n, cut, poly(t, J_coeffs), poly(t, g_coeffs))

    e0, gap = tfim_spectrum(n, poly(s, J_coeffs), poly(s, g_coeffs))
    rate = (
        -entropy(s + 2 * ds) + 8 * entropy(s + ds) - 8 * entropy(s - ds) + entropy(s - 2 * ds)
    ) / (12.0 * ds)
    return e0, gap, entropy(s), float(rate)
