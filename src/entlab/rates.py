"""Entanglement-rate functionals, their closed-form maximization, and the
numerical audit of the interval/rearrangement bound.

The central abstraction is the admissible pair (X, Y, p): X and Y Hermitian,
Tr X = p, Tr Y = 1, 0 <= X <= Y.  The commutator functional

    lam(H; X, Y) = -i Tr(H [X, log Y])

is bounded over unit-norm H in closed form by the trace norm of i[X, log Y],
and for p <= 1/e^2 the interval decomposition of Y's spectrum certifies
lam <= 9 p ln(1/p).  Everything here measures those quantities and margins
numerically; nothing is assumed, bound violations are reported as data.

The entanglement rate of a pure state on aABb has one kernel on its
(d_a d_A) x (d_B d_b) Schmidt matrix, ``_schmidt_rate``, which the rate
under H_AB, its gradient and the chain path read; nothing of more than
max(d_a d_A, d_B d_b)^2 entries is formed per state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    IDENTITY_RTOL, IMAG_RESIDUE_TOL, NORM_TOL, P_REGIME_TOL, PSD_TOL,
    SIE_VIOLATION_RTOL, TRACE_TOL, ZERO_LAMBDA_TOL,
    HermitianOperator,
    commutator,
    input_number,
    input_numbers,
    log_divided_differences,
    log_on_support,
    matrix_log_on_support,
    spectral_rebuild,
    support_mask,
)

__all__ = [
    "AdmissiblePair",
    "BipartiteState",
    "IntervalBuckets",
    "DecompositionReport",
    "BOUND_CONSTANTS",
    "BoundConstants",
    "P_SIE_MAX",
    "entanglement_rate",
    "lambda_functional",
    "maximize_over_hamiltonian",
    "bucket_eigenvalues",
    "proof_decomposition",
    "sie_lambda_bound",
    "sie_rate_bound",
    "sim_bound",
]


class AdmissibilityError(ValueError):
    """(X, Y, p) fails one of Tr X = p, Tr Y = 1, 0 <= X <= Y."""


class NumericalConsistencyError(RuntimeError):
    """A quantity that is real/identical by theory came out otherwise."""


@dataclass(frozen=True)
class BoundConstants:
    """Fixed registry of the bound constants; never silently changed."""

    c_sie: float = 18.0
    beta: float = 1.9123


BOUND_CONSTANTS = BoundConstants()
# the regime p <= 1/e^2 of the proved bound 9 p ln(1/p)
P_SIE_MAX = float(np.exp(-2.0))


def _psd(m: np.ndarray) -> bool:
    """Whether the Hermitian ``m``, or each matrix of a stack, has no
    eigenvalue below -PSD_TOL: whether m + PSD_TOL I has a Cholesky factor.
    One call for a stack costs little more than one for a matrix."""
    try:
        np.linalg.cholesky(m + PSD_TOL * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class AdmissiblePair:
    """Operators X, Y with Tr X = p, Tr Y = 1 and 0 <= X <= Y."""

    X: HermitianOperator
    Y: HermitianOperator
    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise AdmissibilityError(f"p = {self.p} outside (0, 1]")
        if self.X.dim != self.Y.dim:
            raise AdmissibilityError("X and Y dimensions differ")
        tx = float(np.trace(self.X.mat).real)
        ty = float(np.trace(self.Y.mat).real)
        if abs(tx - self.p) > TRACE_TOL:
            raise AdmissibilityError(f"Tr X = {tx}, expected p = {self.p}")
        if abs(ty - 1.0) > TRACE_TOL:
            raise AdmissibilityError(f"Tr Y = {ty}, expected 1")
        X, YX = self.X.mat, self.Y.mat - self.X.mat
        if not _psd(np.array([X, YX])):
            name, m = ("X", X) if not _psd(X) else ("Y - X", YX)
            raise AdmissibilityError(f"{name} has eigenvalue {np.linalg.eigvalsh(m)[0]:.3e} < 0")

    @property
    def dim(self) -> int:
        return self.X.dim

    def to_json(self) -> dict:
        return {"p": self.p, "X": self.X.to_json(), "Y": self.Y.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "AdmissiblePair":
        return cls(
            HermitianOperator.from_json(obj["X"]),
            HermitianOperator.from_json(obj["Y"]),
            input_number("p", obj["p"]),
        )


def _input_dims(dims) -> tuple:
    """The factor dimensions (d_a, d_A, d_B, d_b) of a state, from outside
    the program: four integers, each at least 1."""
    dims = input_numbers("dims", dims, integer=True)
    if len(dims) != 4 or any(d < 1 for d in dims):
        raise ValueError(f"dims must be four positive integers, got {dims}")
    return dims


@dataclass(frozen=True)
class BipartiteState:
    """Pure state on a (x) A (x) B (x) b with explicit factor dimensions.

    The non-interacting ancillas a and b may be trivial (dimension 1).
    """

    dims: tuple[int, int, int, int]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _input_dims(self.dims)
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amp.size != int(np.prod(dims)):
            raise ValueError(f"amplitude length {amp.size} != product of dims {np.prod(dims)}")
        nrm = float(np.linalg.norm(amp))
        # a non-finite amplitude makes the norm nan or inf
        if not (abs(nrm - 1.0) <= NORM_TOL):
            raise ValueError(f"state norm {nrm} != 1" if np.isfinite(nrm) else "state amplitudes are not finite")
        amp.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amp)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BipartiteState":
        amp = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
        return cls(tuple(obj["dims"]), amp)


@dataclass(frozen=True)
class IntervalBuckets:
    """Grouping of Y's support eigenvalues into the intervals [p^k, p^{k-1}).

    ``index_ranges[k-1]`` is the half-open range [lo, hi) of positions, in
    the descending support spectrum, whose eigenvalues fall in bucket k; an
    empty bucket has lo == hi.
    ``weights[k-1]`` is p_k = sum of X's diagonal (in Y's eigenbasis) over
    bucket k.  Sum of weights equals Tr X.
    """

    index_ranges: list[tuple[int, int]]
    weights: np.ndarray


@dataclass
class DecompositionReport:
    """Per-bracket values and bound margins of the sum rearrangement.

    All "values" carry the overall factor 2 of the functional, so
    ``direct_lambda`` is the plain eigenbasis evaluation 2|sum_{i<j} ...|
    and ``reassembled_total`` must match it exactly (the rearrangement is an
    identity).  The single-interval brackets are bounded by p ln(1/p) taken
    together; the per-bracket entries carry the alternative accounting
    p_k ln(1/p) each.
    """

    line1_brackets: list[tuple[float, float]]
    line3_brackets: list[tuple[float, float]]
    separated_sum: tuple[float, float]
    reassembled_total: float
    direct_lambda: float
    total_bound: float
    margins: np.ndarray
    p: float
    dim: int

    def all_bounds_hold(self) -> bool:
        """True when every per-bracket and aggregate bound holds, each to
        SIE_VIOLATION_RTOL relative to max(1, total_bound)."""
        slack = SIE_VIOLATION_RTOL * max(1.0, self.total_bound)
        return bool(np.all(self.margins >= -slack))

    def to_json(self) -> dict:
        return {
            "brackets_line1": [[v, b] for v, b in self.line1_brackets],
            "brackets_line3": [[v, b] for v, b in self.line3_brackets],
            "separated": list(self.separated_sum),
            "total": self.reassembled_total,
            "direct": self.direct_lambda,
            "margins": self.margins.tolist(),
            "p": self.p,
            "dim": self.dim,
        }


# ---------------------------------------------------------------------------
# bound functions


def sie_lambda_bound(p: float) -> float:
    """9 p ln(1/p), valid for 0 < p <= 1/e^2."""
    if not (0.0 < p <= P_SIE_MAX):
        raise ValueError(f"p = {p} outside (0, 1/e^2]")
    return 9.0 * p * np.log(1.0 / p)


def sie_rate_bound(d: int, H_norm: float) -> float:
    """18 ||H|| ln d: rate ceiling in terms of the smaller interacting dimension."""
    if d < 1:
        raise ValueError(f"d = {d} must be >= 1")
    if not (0.0 <= H_norm < np.inf):
        raise ValueError(f"H_norm = {H_norm} must be finite and >= 0")
    return BOUND_CONSTANTS.c_sie * H_norm * np.log(d)


def sim_bound(p: float) -> float:
    """Binary entropy -p ln p - (1-p) ln(1-p), the conjectured sharp envelope."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p = {p} outside (0, 1)")
    return float(-p * np.log(p) - (1.0 - p) * np.log(1.0 - p))


# ---------------------------------------------------------------------------
# functionals


def _checked_part(z: complex, scale, context: str, imaginary: bool = False) -> float:
    """The real part of ``z`` (the imaginary part if ``imaginary``) after
    checking that the other part, zero by theory, is a rounding residue: at
    most IMAG_RESIDUE_TOL times ``scale()``, the summed magnitude of the
    terms that make up ``z``.  That sum is at least |z|, so ``scale`` is
    called only when the residue exceeds IMAG_RESIDUE_TOL |z|."""
    kept, residue = (z.imag, z.real) if imaginary else (z.real, z.imag)
    if abs(residue) > IMAG_RESIDUE_TOL * abs(z):
        tol = IMAG_RESIDUE_TOL * scale()
        if abs(residue) > tol:
            raise NumericalConsistencyError(
                f"{context}: {'real' if imaginary else 'imaginary'} residue "
                f"{residue:.3e} exceeds {tol:.3e}"
            )
    return float(kept)


def _schmidt(amps: np.ndarray, dims) -> np.ndarray:
    """The (d_a d_A) x (d_B d_b) Schmidt matrix of a row of amplitudes, or
    of each row of a stack: the aA|Bb cut of the state."""
    d_a, d_A, d_B, d_b = dims
    return amps.reshape(amps.shape[:-1] + (d_a * d_A, d_B * d_b))


def _apply_h(H: np.ndarray, m: np.ndarray, dims) -> np.ndarray:
    """I_a (x) H (x) I_b on a Schmidt matrix, or on each of a stack, for
    the H_AB matrix H: H times each (d_A d_B) x d_b slice, with no kron."""
    d_a, d_A, d_B, d_b = dims
    return (H @ m.reshape(m.shape[:-2] + (d_a, d_A * d_B, d_b))).reshape(m.shape)


def _schmidt_rate(M: np.ndarray, dM: np.ndarray):
    """The entropy rate -2 Re Tr(dM M^dag log rho), rho = M M^dag, of a
    Schmidt matrix M along a tangent dM, or of each of a stack, with log on
    the support: (rate, w, v, on, l, log rho, phi), (w, v) the eigenpairs of
    rho, (on, l) ``log_on_support`` of w and phi = log rho M.  Real M and dM
    stay real.  Each matrix takes the LAPACK and BLAS calls it would take
    on its own, so its bits do not depend on its batch."""
    w, v = np.linalg.eigh(M @ M.conj().swapaxes(-1, -2))
    on, l = log_on_support(w)
    log_rho = spectral_rebuild(v, l)
    phi = log_rho @ M
    # Re <phi, dM> is the dot of the real views, one BLAS dot per matrix,
    # taken in the wider of the two types (a real M has a complex i M_h)
    kind = np.result_type(phi, dM)
    flat = lambda m: np.ascontiguousarray(m, dtype=kind).reshape(m.shape[:-2] + (-1,)).view(np.float64)
    dot = (flat(phi)[..., None, :] @ flat(dM)[..., :, None])[..., 0, 0]
    return -2.0 * dot, w, v, on, l, log_rho, phi


def _rate_forward(amps: np.ndarray, dims, H: np.ndarray):
    """``_schmidt_rate`` of a row of unit amplitudes, or of each row of a
    stack, along the tangent of e^{+i H~ t}, H~ = I_a (x) H (x) I_b: dM =
    i M_h with M_h = ``_apply_h`` of M.  Its first entry is the rate."""
    M = _schmidt(amps, dims)
    return _schmidt_rate(M, 1j * _apply_h(H, M, dims))


def _entanglement_rates(amps: np.ndarray, dims, H: np.ndarray) -> np.ndarray:
    """The rate of ``entanglement_rate`` for each row of a stack of unit
    amplitude rows, with H the H_AB matrix; a row's bits do not depend on
    its batch."""
    return _rate_forward(amps, dims, H)[0]


def _rate_gradient(amps: np.ndarray, dims, H: np.ndarray, forward=None) -> np.ndarray:
    """The gradient of the rate at a row of amplitudes, or at each row of a
    stack, in (Re amp, Im amp): one backward pass in Schmidt form from
    ``forward``, the pass of ``_rate_forward`` there (taken here when not
    given).  At fixed log rho the rate is <psi|G|psi>, G = -i[log rho (x)
    I, H~], and G psi = -i(log rho M_h - H~ phi).  Through log rho it
    changes by Tr(dlog rho N), N = -i(M_h M^dag - M M_h^dag), that is by
    Tr(d rho K), K = v (D o v^dag N v) v^dag with D from
    ``log_divided_differences``, and K M is its part.  So the gradient is
    2 (Re, Im) of G psi + K M; a form of degree 2, its part along a unit
    amp is 2 rate.  A row's bits do not depend on its batch."""
    M = _schmidt(amps, dims)
    Mh = _apply_h(H, M, dims)
    _, w, v, on, l, log_rho, phi = _rate_forward(amps, dims, H) if forward is None else forward
    adj = lambda m: m.conj().swapaxes(-1, -2)
    N = -1j * (Mh @ adj(M) - M @ adj(Mh))
    K = v @ (log_divided_differences(w, on, l) * (adj(v) @ N @ v)) @ adj(v)
    g = (2.0 * (-1j * (log_rho @ Mh - _apply_h(H, phi, dims)) + K @ M)).reshape(amps.shape)
    return np.concatenate([g.real, g.imag], axis=-1)


def entanglement_rate(state: BipartiteState, H_AB: HermitianOperator) -> float:
    """Instantaneous growth rate dS(rho_aA)/dt of the aA|Bb entanglement
    entropy under e^{+i H~ t}, H~ = I_a (x) H_AB (x) I_b; under e^{-i H~ t}
    the rate is ``entanglement_rate(state, -H_AB)``, its exact negative.

    It is -2 Re Tr(dM M^dag log rho_aA), rho_aA = M M^dag, for the Schmidt
    matrix M of the state and dM = i M_h, M_h = H~ psi (``_schmidt_rate``):
    real by construction, with the log taken on the support of rho_aA.
    """
    d_a, d_A, d_B, d_b = state.dims
    if H_AB.dim != d_A * d_B:
        raise ValueError(f"H_AB dim {H_AB.dim} != d_A*d_B = {d_A * d_B}")
    return float(_entanglement_rates(state.amplitudes[None], state.dims, H_AB.mat)[0])


def lambda_functional(H: HermitianOperator, pair: AdmissiblePair) -> float:
    """-i Tr(H [X, log Y]) with the log taken on Y's support, real for
    Hermitian H, X and log Y and checked: its terms H_ij X_jk L_ki and
    H_ij L_jk X_ki add up to at most 2 ||H||_F ||X||_F ||L||_F in
    magnitude, the scale of the residue check."""
    if H.dim != pair.dim:
        raise ValueError(f"H dim {H.dim} != pair dim {pair.dim}")
    X, L = pair.X.mat, matrix_log_on_support(pair.Y).mat
    z = complex(-1j * np.trace(H.mat @ commutator(X, L)))
    scale = lambda: 2.0 * float(np.linalg.norm(H.mat) * np.linalg.norm(X) * np.linalg.norm(L))
    return _checked_part(z, scale, "lambda_functional")


def _eigenbasis_terms(pair: AdmissiblePair, P: HermitianOperator):
    """Check 0 <= P <= I; return Y's support eigenvalues (descending), X's
    diagonal in their eigenvectors and the signed terms
    T_ij = ln(y_i/y_j)(X_ij P_ji - X_ji P_ij) in that basis."""
    if not _psd(np.array([P.mat, np.eye(P.dim) - P.mat])):
        wp = np.linalg.eigvalsh(P.mat)
        raise ValueError(f"P eigenvalues [{wp[0]:.3e}, {wp[-1]:.3e}] outside [0, 1]")
    w, v = pair.Y.eigh
    n = int(np.sum(support_mask(w)))
    y, vs = w[::-1][:n], v[:, ::-1][:, :n]
    Xb = vs.conj().T @ pair.X.mat @ vs
    Pb = vs.conj().T @ P.mat @ vs
    logy = np.log(y)
    L = logy[:, None] - logy[None, :]  # L[i,j] = ln(y_i / y_j)
    return y, np.diagonal(Xb).real, L * (Xb * Pb.T - Xb.conj() * Pb.conj().T)


def maximize_over_hamiltonian(pair: AdmissiblePair) -> tuple[float, HermitianOperator]:
    """Closed-form maximum of |lambda| over unit-operator-norm Hermitian H.

    The optimum is the trace norm of C = i[X, log Y] (Hermitian), attained by
    H_opt = -sign(C) from C's eigendecomposition.  When C = 0 the optimum is 0
    and H_opt = I by convention (any unit-norm H attains it).
    """
    logY = matrix_log_on_support(pair.Y).mat
    w, v = HermitianOperator._built(1j * commutator(pair.X.mat, logY)).eigh
    lam_max = float(np.sum(np.abs(w)))
    if lam_max <= ZERO_LAMBDA_TOL:
        return 0.0, HermitianOperator.identity(pair.dim)
    # lam(H) = -Tr(H C); maximized by H = -sign(C)
    s = -np.sign(w)
    s[s == 0] = 1.0
    return lam_max, HermitianOperator._built(spectral_rebuild(v, s))


# ---------------------------------------------------------------------------
# interval decomposition


def bucket_eigenvalues(y: np.ndarray, x_diag: np.ndarray, p: float) -> IntervalBuckets:
    """Group Y's support eigenvalues into the intervals [p^k, p^{k-1}).

    ``y`` holds Y's support eigenvalues in descending order (zero modes
    removed) and ``x_diag`` X's diagonal in the matching eigenvectors.  An
    eigenvalue goes to the bucket k with p^k <= y < p^{k-1}, one more than
    the number of edges p^j (j >= 1) above it, so y >= 1 goes to bucket 1.
    Weights are p_k = sum of ``x_diag`` over bucket k; they add up to Tr X.
    """
    if not (0.0 < p <= 0.5):
        raise ValueError(f"p = {p} outside (0, 1/2]")
    y = np.asarray(y, dtype=float)
    if y.size == 0 or y[-1] <= 0:
        raise ValueError("y must hold the support eigenvalues: at least one, all y > 0")
    if np.any(y[1:] > y[:-1]):
        raise ValueError("eigenvalues must be sorted descending")
    # ascending edges p^J, ..., p^1, with J large enough that p^J <= min y
    n_edges = max(1, int(np.ceil(np.log(y[-1]) / np.log(p))) + 1)
    edges = np.array([p**j for j in range(n_edges, 0, -1)])
    k = n_edges - np.searchsorted(edges, y, side="right")  # bucket index - 1
    weights = np.bincount(k, weights=x_diag)
    hi = np.cumsum(np.bincount(k)).tolist()
    return IntervalBuckets(list(zip([0] + hi[:-1], hi)), weights)


def proof_decomposition(pair: AdmissiblePair, P: HermitianOperator) -> DecompositionReport:
    """Audit the rearrangement of the eigenbasis double sum bucket by bucket.

    Splits sum_{i<j} into consecutive-two-interval brackets, subtracted
    single-interval brackets, and the separated-pairs remainder, evaluates
    each alongside its bound (2(p_k+p_{k+1}) ln(1/p) per line-one bracket,
    p ln(1/p) aggregate for line three, 4p ln(1/p) for the separated sum),
    and checks that the signed reassembly reproduces the direct value, which
    it must: the rearrangement is an exact identity.

    Requires p <= 1/e^2 (the regime of the separated-sum bound).
    """
    if pair.p > P_SIE_MAX + P_REGIME_TOL:
        raise ValueError(f"p = {pair.p} > 1/e^2; decomposition bound regime violated")
    p = pair.p
    # signed term matrix: t[i,j] contributes for i<j; total = sum_{i<j} t[i,j]
    y, x_diag, T = _eigenbasis_terms(pair, P)
    iu = np.triu(np.ones(T.shape, dtype=bool), k=1)
    ln1p = np.log(1.0 / p)
    buckets = bucket_eigenvalues(y, x_diag, p)
    pk = buckets.weights
    K = len(pk)
    # S[k, m]: sum of t[i,j], i<j, over i in bucket k and j in bucket m
    E = np.repeat(np.eye(K), [hi - lo for lo, hi in buckets.index_ranges], axis=0)
    S = E.T @ np.where(iu, T, 0.0) @ E
    diag = np.diagonal(S)
    if K == 1:
        line1_vals, line1_bounds = diag, 2.0 * pk * ln1p
    else:
        line1_vals = diag[:-1] + np.diagonal(S, 1) + diag[1:]
        line1_bounds = 2.0 * (pk[:-1] + pk[1:]) * ln1p
    line3_vals = diag[1:-1]
    sep_signed = complex(np.triu(S, k=2).sum())
    line1 = [(2.0 * abs(v), float(b)) for v, b in zip(line1_vals.tolist(), line1_bounds)]
    line3 = [(2.0 * abs(v), float(b)) for v, b in zip(line3_vals.tolist(), pk[1:-1] * ln1p)]
    sep = (2.0 * abs(sep_signed), 4.0 * p * ln1p)

    direct_signed = complex(np.sum(T[iu]))
    reassembled_signed = complex(line1_vals.sum() - line3_vals.sum()) + sep_signed
    scale = lambda: float(np.sum(np.abs(T[iu])))
    direct = 2.0 * abs(_checked_part(direct_signed, scale, "signed sum", imaginary=True))
    reassembled = 2.0 * abs(_checked_part(reassembled_signed, scale, "signed sum", imaginary=True))
    if abs(reassembled_signed - direct_signed) > IDENTITY_RTOL * max(1.0, abs(direct_signed)):
        raise NumericalConsistencyError(
            f"rearrangement identity failed: |{reassembled_signed} - {direct_signed}|"
        )

    total_bound = 9.0 * p * ln1p
    line3_total = sum(v for v, _ in line3)
    margins = np.array(
        [b - v for v, b in line1]
        + [p * ln1p - line3_total]
        + [sep[1] - sep[0]]
        + [total_bound - direct]
    )
    return DecompositionReport(
        line1_brackets=line1,
        line3_brackets=line3,
        separated_sum=sep,
        reassembled_total=reassembled,
        direct_lambda=direct,
        total_bound=total_bound,
        margins=margins,
        p=p,
        dim=pair.dim,
    )

