"""Reference for ground-state transport along a chain path, shared by the
unit and acceptance tests: the derivative of the ground state taken by
finite differences, independent of the spectral generator under test."""

import numpy as np

from entlab.chains import adiabatic_generator, build_chain_hamiltonian, chain_hprime, ground_state


def _aligned(psi_ref, psi):
    return psi * np.exp(-1j * np.angle(np.vdot(psi_ref, psi)))


def transport_residual(spec, s, ds=1e-4):
    """|| iK|psi> - d|psi>/ds || at s.  The derivative is a second-order
    difference of ground states, each phase-aligned to psi(s)
    (parallel-transport gauge): central, one-sided at the ends of [0, 1],
    where s +- ds would leave the path."""
    psi_at = lambda t: ground_state(build_chain_hamiltonian(spec, t))[1]  # noqa: E731
    H = build_chain_hamiltonian(spec, s)
    K = adiabatic_generator(H, chain_hprime(spec, s))
    psi = ground_state(H)[1]
    if s - ds < 0.0:
        f1, f2 = _aligned(psi, psi_at(s + ds)), _aligned(psi, psi_at(s + 2 * ds))
        dpsi = (-3.0 * psi + 4.0 * f1 - f2) / (2.0 * ds)
    elif s + ds > 1.0:
        b1, b2 = _aligned(psi, psi_at(s - ds)), _aligned(psi, psi_at(s - 2 * ds))
        dpsi = (3.0 * psi - 4.0 * b1 + b2) / (2.0 * ds)
    else:
        dpsi = (_aligned(psi, psi_at(s + ds)) - _aligned(psi, psi_at(s - ds))) / (2.0 * ds)
    return float(np.linalg.norm(1j * (K.mat @ psi) - dpsi))
