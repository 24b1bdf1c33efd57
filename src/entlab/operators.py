"""Dense Hermitian linear algebra primitives.

Everything downstream (rate functionals, searches, spin chains) goes through
the small set of operations here: certified Hermitian/PSD containers,
eigendecomposition, matrix log restricted to the support, partial trace,
Schatten norms and the von Neumann entropy.  All logs are natural logs;
entropies are reported in nats.

Spectral functions share one kernel: a ``HermitianOperator`` is diagonalised
at most once (``HermitianOperator.eigh``), ``support_mask`` is the one
support rule (eigenvalues above ``SUPPORT_RTOL`` times the largest), and
``spectral_rebuild`` forms V f(w) V^dag for one matrix or a stack.

Operations are pure functions of their inputs and hold no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
# an eigenvalue is on the support when it exceeds this times the largest one
SUPPORT_RTOL = 1e-12

__all__ = [
    "HERMITICITY_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "SUPPORT_RTOL",
    "HermitianOperator",
    "DensityMatrix",
    "Spectrum",
    "real_if_exact",
    "support_mask",
    "log_on_support",
    "spectral_rebuild",
    "matrix_log_on_support",
    "partial_trace",
    "partial_trace_matrix",
    "trace_norm",
    "von_neumann_entropy",
    "operator_norm",
    "commutator",
]


class NonHermitianError(ValueError):
    """Input matrix deviates from M = M^dag beyond tolerance."""


class NotPositiveError(ValueError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix with certified Hermiticity.

    The constructor symmetrizes ``(M + M^dag)/2`` after checking that the
    deviation from Hermiticity is below ``HERMITICITY_TOL`` (max elementwise),
    so ``mat`` is exactly Hermitian in storage.  The operator is immutable,
    so its eigendecomposition (``eigh``) is computed at most once.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
        scale = max(1.0, float(np.max(np.abs(m))))
        if dev > HERMITICITY_TOL * scale:
            raise NonHermitianError(
                f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}"
            )
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``numpy.linalg.eigh`` of ``mat``, computed on first use and kept:
        ascending eigenvalues and eigenvector columns, both read-only.  A
        matrix with no imaginary part is diagonalised in real arithmetic and
        gets real eigenvectors."""
        w, v = np.linalg.eigh(real_if_exact(self.mat))
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    def to_json(self) -> dict:
        """Serialize as {"dim": n, "re": [[...]], "im": [[...]]}, row-major."""
        return {
            "dim": self.dim,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "HermitianOperator":
        n = int(obj["dim"])
        m = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"dim field {n} inconsistent with matrix shape {m.shape}")
        return cls(m)

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD (within PSD_TOL), unit-trace operator."""

    op: HermitianOperator

    def __post_init__(self):
        ev = np.linalg.eigvalsh(self.op.mat)
        if ev[0] < -PSD_TOL:
            raise NotPositiveError(f"density matrix has eigenvalue {ev[0]:.3e}")
        tr = float(np.trace(self.op.mat).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} != 1")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "DensityMatrix":
        return cls(HermitianOperator(m))

    @classmethod
    def from_pure(cls, psi: np.ndarray) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        return cls(HermitianOperator(np.outer(psi, psi.conj())))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order with the matching eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=float)
        if np.any(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        object.__setattr__(self, "eigenvalues", ev)
        object.__setattr__(self, "eigenvectors", np.asarray(self.eigenvectors, dtype=complex))


def real_if_exact(m: np.ndarray) -> np.ndarray:
    """The real part of ``m`` when its imaginary part is exactly zero,
    otherwise ``m`` itself."""
    return m if m.imag.any() else m.real


def support_mask(w: np.ndarray) -> np.ndarray:
    """True where an eigenvalue lies on the support: above SUPPORT_RTOL
    times the largest one.  ``w`` is ascending along its last axis, as eigh
    returns it, one row per matrix of a stack."""
    return w > SUPPORT_RTOL * np.maximum(w[..., -1:], 0.0)


def log_on_support(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(on, f)``: the support mask of ``w`` and ln w on it, 0 off it."""
    on = support_mask(w)
    f = np.zeros_like(w)
    f[on] = np.log(w[on])
    return on, f


def spectral_rebuild(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """V diag(f) V^dag from eigenvector columns ``v`` and values ``f``; one
    matrix, or a stack of them along the leading axes."""
    return (v * f[..., None, :]) @ v.conj().swapaxes(-1, -2)


def matrix_log_on_support(Y: HermitianOperator) -> HermitianOperator:
    """Natural matrix log restricted to the support of a PSD operator:
    eigenvalues on the support (``support_mask``) map to their log, the
    others to 0."""
    w, v = Y.eigh
    if w[0] < -PSD_TOL:
        raise NotPositiveError(f"operator has eigenvalue {w[0]:.3e}, not PSD")
    return HermitianOperator(spectral_rebuild(v, log_on_support(w)[1]))


def partial_trace(rho: DensityMatrix, dims: list[int], keep: list[int]) -> DensityMatrix:
    """Trace out the tensor factors not listed in ``keep``.

    ``dims`` are the factor dimensions in tensor order; their product must
    equal the dimension of ``rho``.  ``keep`` is a nonempty strict subset of
    factor indices; factor order among the kept indices is preserved.
    """
    m = partial_trace_matrix(rho.mat, dims, keep)
    return DensityMatrix.from_matrix(m)


def partial_trace_matrix(mat: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace on a raw square matrix (not necessarily unit trace), or
    on each matrix of a stack along the leading axes."""
    dims = [int(d) for d in dims]
    n = len(dims)
    if int(np.prod(dims)) != mat.shape[-1]:
        raise ValueError(f"product of dims {dims} != matrix dimension {mat.shape[-1]}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or len(keep) >= n or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep={keep} must be a nonempty strict subset of 0..{n-1}")
    lead = mat.shape[:-2]
    t = mat.reshape(lead + tuple(dims + dims))
    traced = [i for i in range(n) if i not in keep]
    for off, i in enumerate(traced):
        ax = len(lead) + i - off
        t = np.trace(t, axis1=ax, axis2=ax + (t.ndim - len(lead)) // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(lead + (d_keep, d_keep))


def trace_norm(M: HermitianOperator) -> float:
    """Schatten-1 norm: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(M.mat))))


def operator_norm(M: HermitianOperator) -> float:
    """Schatten-inf norm: largest absolute eigenvalue."""
    w = np.linalg.eigvalsh(M.mat)
    return float(max(abs(w[0]), abs(w[-1])))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln(lambda) over the eigenvalues on the support; nats."""
    w = rho.op.eigh[0]
    on, f = log_on_support(w)
    return float(-np.sum(w[on] * f[on]))


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A
