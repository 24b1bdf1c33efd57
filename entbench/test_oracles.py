"""Tests of the benchmark's independent solutions against closed forms and
small dense diagonalisations.  From the repository root:

    python3 -m pytest entbench
"""

import numpy as np
import pytest

import oracles

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])
HAD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _site(op, i, n):
    return np.kron(np.kron(np.eye(2**i), op), np.eye(2 ** (n - i - 1)))


def _dense_tfim(n, J, g):
    H = np.zeros((2**n, 2**n))
    for i in range(n - 1):
        H -= J * _site(SZ, i, n) @ _site(SZ, i + 1, n)
    for i in range(n):
        H -= g * _site(SX, i, n)
    return H


def _dense_cut_entropy(psi, n, cut):
    M = psi.reshape(2**cut, 2 ** (n - cut))
    lam = np.linalg.svd(M, compute_uv=False) ** 2
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log(lam)))


@pytest.mark.parametrize("n,g", [(3, 0.7), (6, 2.0)])
def test_tfim_decoupled_sites(n, g):
    e0, gap = oracles.tfim_spectrum(n, 0.0, g)
    assert e0 == pytest.approx(-n * g, abs=1e-12)
    assert gap == pytest.approx(2 * g, abs=1e-12)
    assert oracles.tfim_cut_entropy(n, n // 2, 0.0, g) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,cut,J,g", [(5, 2, 1.0, 1.7), (6, 3, 0.6, 1.1), (4, 1, 1.0, 2.5)])
def test_tfim_matches_dense_diagonalisation(n, cut, J, g):
    w, v = np.linalg.eigh(_dense_tfim(n, J, g))
    e0, gap = oracles.tfim_spectrum(n, J, g)
    assert e0 == pytest.approx(w[0], abs=1e-10)
    assert gap == pytest.approx(w[1] - w[0], abs=1e-10)
    assert oracles.tfim_cut_entropy(n, cut, J, g) == pytest.approx(
        _dense_cut_entropy(v[:, 0], n, cut), abs=1e-10
    )


def test_tfim_rate_matches_dense_difference():
    n, cut, s, ds = 6, 3, 0.4, 1e-4
    J, gc = (1.0,), (1.5, 1.0)

    def dense_entropy(t):
        w, v = np.linalg.eigh(_dense_tfim(n, 1.0, 1.5 + t))
        return _dense_cut_entropy(v[:, 0], n, cut)

    ref = (dense_entropy(s + ds) - dense_entropy(s - ds)) / (2 * ds)
    *_, rate = oracles.tfim_path_point(n, cut, J, gc, s)
    assert rate == pytest.approx(ref, rel=1e-6)


def test_lambda_two_level_closed_form():
    y1, y2, a, c, b = 0.7, 0.3, 0.05, 0.02, 0.01 - 0.004j
    X = np.array([[a, b], [np.conj(b), c]])
    Y = np.diag([y1, y2])
    assert oracles.lambda_max(X, Y) == pytest.approx(2 * abs(b) * abs(np.log(y1 / y2)), rel=1e-12)
    # a zero eigenvalue of Y is off the support: log 0 := 0 there
    X3 = np.zeros((3, 3), dtype=complex)
    X3[:2, :2] = X
    assert oracles.lambda_max(X3, np.diag([y1, y2, 0.0])) == pytest.approx(
        2 * abs(b) * abs(np.log(y1 / y2)), rel=1e-12
    )


def test_lambda_vanishes_on_commuting_pair():
    Y = np.diag([0.5, 0.3, 0.2])
    assert oracles.lambda_max(0.1 * Y, Y) == pytest.approx(0.0, abs=1e-15)


def test_two_qubit_rate_closed_form_and_ceiling():
    # for psi' = sqrt(x)|00> + i sqrt(1-x)|11> and X (x) X the functional
    # -i Tr(H [rho, log rho_A (x) I]) is 2 sqrt(x(1-x)) ln(x/(1-x)); a
    # Hadamard on both qubits turns X (x) X into Z (x) Z
    U = np.kron(HAD, HAD)
    H = np.kron(SZ, SZ)
    xs = np.linspace(0.51, 0.99, 2001)
    rates = []
    for x in xs:
        psi = U @ np.array([np.sqrt(x), 0, 0, 1j * np.sqrt(1 - x)])
        rates.append(oracles.two_qubit_rate(psi, H))
    closed = 2 * np.sqrt(xs * (1 - xs)) * np.log(xs / (1 - xs))
    np.testing.assert_allclose(rates, closed, rtol=1e-10)
    assert max(rates) / np.log(2) == pytest.approx(oracles.BETA_BITS, abs=1e-4)
    assert oracles.two_qubit_rate(np.array([1.0, 0, 0, 0]), H) == 0.0


def test_admissibility_defect():
    Y = np.diag([0.6, 0.4])
    assert oracles.admissibility_defect(0.1 * Y, Y, 0.1) == pytest.approx(0.0, abs=1e-15)
    assert oracles.admissibility_defect(0.1 * Y, Y, 0.2) == pytest.approx(0.1)
    X = np.diag([0.7, -0.6])  # Tr X = 0.1 but X is not >= 0 and not <= Y
    assert oracles.admissibility_defect(X, Y, 0.1) == pytest.approx(0.6)


def test_bound_closed_forms():
    assert oracles.binary_entropy(0.5) == pytest.approx(np.log(2.0), rel=1e-15)
    assert oracles.proved_lambda_bound(np.exp(-2.0)) == pytest.approx(18 * np.exp(-2.0))
