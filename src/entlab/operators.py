"""Dense Hermitian linear algebra primitives.

Everything downstream (rate functionals, searches, spin chains) goes through
the small set of operations here: a certified Hermitian container, its
eigendecomposition, the matrix log restricted to the support, the partial
trace of a matrix or a stack of them, and Schatten norms.  All logs are
natural logs.

Spectral functions share one kernel: a ``HermitianOperator`` is diagonalised
at most once (``HermitianOperator.eigh``), ``support_mask`` is the one
support rule (eigenvalues above ``SUPPORT_RTOL`` times the largest), and
``spectral_rebuild`` forms V f(w) V^dag for one matrix or a stack.

Input from outside the program is checked once, where it enters; what the
program builds is stored unchecked (``HermitianOperator._built``).  Counts
and lists of numbers read from JSON go through ``input_number`` and
``input_numbers``, and a JSON object may hold only the keys its reader
reads (``input_keys``).  Every threshold is in one table, ``TOLERANCES``.

Operations are pure functions of their inputs and hold no shared state.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Every threshold that decides a check, a support, a degeneracy or
# feasibility, by name: (value, what the value is relative to; "absolute"
# names the quantity it bounds).  Every report header prints the table.
TOLERANCES: dict[str, tuple[float, str]] = {}


def _tol(name: str, value: float, relative_to: str) -> float:
    TOLERANCES[name] = (value, relative_to)
    return value


HERMITICITY_TOL = _tol("HERMITICITY_TOL", 1e-12, "max(1, max |M_ij|) of an input matrix")
PSD_TOL = _tol("PSD_TOL", 1e-10, "absolute: lowest eigenvalue of a unit-trace operator, P or I - P")
TRACE_TOL = _tol("TRACE_TOL", 1e-10, "absolute: Tr Y - 1 and Tr X - p")
NORM_TOL = _tol("NORM_TOL", 1e-12, "absolute: |psi| - 1 for a state's amplitudes")
SUPPORT_RTOL = _tol("SUPPORT_RTOL", 1e-12, "the largest eigenvalue of a PSD operator")
IMAG_RESIDUE_TOL = _tol("IMAG_RESIDUE_TOL", 1e-8, "the summed magnitude of the terms of a real sum")
ZERO_LAMBDA_TOL = _tol("ZERO_LAMBDA_TOL", 1e-15, "absolute: ||i[X, log Y]||_1, taken as 0 below it")
P_REGIME_TOL = _tol("P_REGIME_TOL", 1e-15, "absolute: p against 1/e^2 in the decomposition audit")
IDENTITY_RTOL = _tol("IDENTITY_RTOL", 1e-9, "max(1, |direct sum|) in the rearrangement identity")
SIE_VIOLATION_RTOL = _tol("SIE_VIOLATION_RTOL", 1e-9, "the proved bound (at least 1 in the audit)")
SIM_VIOLATION_RTOL = _tol("SIM_VIOLATION_RTOL", 1e-6, "the binary-entropy envelope")
ROW_TRACE_FLOOR = _tol(
    "ROW_TRACE_FLOOR", 1e-300, "absolute: Tr(Y^1/2 Z Y^1/2) of a draw or ascent row"
)
CONTRACTION_TOL = _tol("CONTRACTION_TOL", 1e-12, "absolute: c max z - 1 of a draw or ascent row")
GAP_FLOOR = _tol("GAP_FLOOR", 1e-8, "absolute: the gap E_1 - E_0 of H(s)")
DEGENERACY_TOL = _tol("DEGENERACY_TOL", 1e-8, "absolute: an energy difference E_m - E_n")
GAUGE_TOL = _tol("GAUGE_TOL", 1e-10, "absolute: an amplitude of the unit ground state")
RATE_CHECK_ATOL = _tol("RATE_CHECK_ATOL", 1e-4, "absolute: an interior rate dS/ds")
RATE_CHECK_RTOL = _tol("RATE_CHECK_RTOL", 1e-2, "|dS/ds| at the interior point")

__all__ = [
    "TOLERANCES",
    *TOLERANCES,
    "HermitianOperator",
    "real_if_exact",
    "support_mask",
    "log_on_support",
    "spectral_rebuild",
    "matrix_log_on_support",
    "partial_trace_matrix",
    "trace_norm",
    "operator_norm",
    "commutator",
]


def input_number(name: str, value, integer: bool = False):
    """A number from outside the program: a finite float, or an int when
    ``integer``.  ValueError for a string, a bool, any other non-number, nan,
    an infinity and, when ``integer``, a number with a fractional part."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
        integer and not float(value).is_integer()
    ):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return int(value) if integer else float(value)


def input_numbers(name: str, values, least: int = 0, integer: bool = False) -> tuple:
    """A list from outside the program as a tuple of at least ``least``
    numbers (``input_number``); ValueError for a string or a non-list."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a list of numbers, got {values!r}")
    out = tuple(input_number(f"{name} entry", v, integer) for v in values)
    if len(out) < least:
        raise ValueError(f"{name} has {len(out)} values, needs at least {least}")
    return out


def input_keys(name: str, obj, keys) -> None:
    """Check a JSON object from outside the program: ValueError unless it
    is a dict whose every key is one of ``keys``, naming the first other."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be a JSON object, got {obj!r}")
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"{name} has unknown key {unknown[0]!r}; its keys are {', '.join(keys)}")


class NonHermitianError(ValueError):
    """Input matrix deviates from M = M^dag beyond tolerance."""


class NotPositiveError(ValueError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


@dataclass(frozen=True)
class HermitianOperator:
    """Dense complex Hermitian matrix with certified Hermiticity.

    The constructor checks that the deviation from Hermiticity is below
    ``HERMITICITY_TOL`` (max elementwise) and stores ``(M + M^dag)/2``, so
    ``mat`` is exactly Hermitian.  That check is for input from outside the
    program; a matrix the program builds goes through ``_built``, stored
    alike.  The operator is immutable, so ``eigh`` is computed at most once.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        # max |M_ij| is not finite exactly when an entry is not, and taking it
        # warns of neither, so it comes before any arithmetic that would
        scale = float(np.max(np.abs(m), initial=1.0))
        if not math.isfinite(scale):
            raise NonHermitianError("matrix has entries that are not finite")
        self._store(m)
        dev = np.max(np.abs(m - m.conj().T))
        if dev / scale > HERMITICITY_TOL:
            raise NonHermitianError(f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e}")

    def _store(self, m: np.ndarray) -> None:
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @classmethod
    def _built(cls, m: np.ndarray) -> "HermitianOperator":
        """The operator of a square matrix the program built as Hermitian,
        stored as the constructor stores it, without the Hermiticity check."""
        op = object.__new__(cls)
        op._store(np.asarray(m, dtype=complex))
        return op

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
        n = input_number("dim", obj["dim"], integer=True)
        m = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        if m.shape != (n, n):
            raise ValueError(f"dim field {n} inconsistent with matrix shape {m.shape}")
        return cls(m)

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls._built(np.eye(dim, dtype=complex))


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


def log_divided_differences(w: np.ndarray, on: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The Daleckii-Krein matrix of ``log_on_support`` at eigenvalues ``w``
    with its ``(on, f)``, f the log of w or of a rescaled w: the first-order
    change of the log is V (D o V^dag dM V) V^dag.  In a closed form that
    needs no threshold: log1p((w_i - w_j)/w_j)/(w_i - w_j) on the support (1/w
    on the diagonal), a plain quotient across it, 0 off it.  One row of
    eigenvalues, or a stack of them along the leading axes."""
    col = lambda u: u[..., :, None]
    row = lambda u: u[..., None, :]
    dw = col(w) - row(w)
    on2 = col(on) & row(on)
    x = np.divide(dw, row(w), out=np.zeros(dw.shape), where=on2)
    D = np.divide(1.0, row(w), out=np.zeros(dw.shape), where=on2)
    D = np.divide(np.log1p(x), dw, out=D, where=x != 0)
    return np.divide(col(f) - row(f), dw, out=D, where=col(on) ^ row(on))


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
    return HermitianOperator._built(spectral_rebuild(v, log_on_support(w)[1]))


def partial_trace_matrix(mat: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace on a raw square matrix (not necessarily unit trace), or
    on each matrix of a stack along the leading axes.  A traced factor of
    dimension 1 is reshaped away, not traced, so the result may be a view of
    ``mat``; a trace over it would differ only by turning -0.0 into +0.0."""
    dims = [int(d) for d in dims]
    n = len(dims)
    if math.prod(dims) != mat.shape[-1]:
        raise ValueError(f"product of dims {dims} != matrix dimension {mat.shape[-1]}")
    keep = sorted(set(int(k) for k in keep))
    if not keep or len(keep) >= n or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep={keep} must be a nonempty strict subset of 0..{n-1}")
    lead, left = mat.shape[:-2], [i for i in range(n) if i in keep or dims[i] != 1]
    t = mat.reshape(lead + tuple(dims[i] for i in left + left))
    traced = [j for j, i in enumerate(left) if i not in keep]
    for off, i in enumerate(traced):
        ax = len(lead) + i - off
        t = np.trace(t, axis1=ax, axis2=ax + (t.ndim - len(lead)) // 2)
    d_keep = math.prod(dims[k] for k in keep)
    return t.reshape(lead + (d_keep, d_keep))


def trace_norm(M: HermitianOperator) -> float:
    """Schatten-1 norm: sum of absolute eigenvalues."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(M.mat))))


def operator_norm(M: HermitianOperator) -> float:
    """Schatten-inf norm: largest absolute eigenvalue."""
    w = np.linalg.eigvalsh(M.mat)
    return float(max(abs(w[0]), abs(w[-1])))


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A
