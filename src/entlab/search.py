"""Randomized generators and maximizers hunting for extremal instances of the
commutator functional and the entanglement rate.

Search is hybrid: random restarts over admissible pairs (or states), each
refined by gradient ascent.  One routine, ``_ascend``, runs both searches, and
it steps the restarts of a search in lockstep: each step takes one stacked
exact gradient of the live restarts from its caller and sends the rows of
all their backtracking line searches to an objective that evaluates a stack
of parameter rows at once (``_eval_pair_params`` for pairs, the stacked
forward pass of the rate ``rates._rate_forward`` for states).  Each gradient
is one backward pass through its objective's forward pass
(``_pair_gradient`` for pairs, ``rates._rate_gradient`` for states).  A
row's bits do not depend on its batch, so a record does not depend on how
many restarts step together; restarts go in groups (``_groups``) that bound
the memory of one stack by the widest matrix a row is valued through, d wide
for a pair and max(d_a d_A, d_B d_b) for a state's Schmidt matrix.  A
restart ends at its first line search without a gain.  The inner
optimization over the Hamiltonian is always the closed form,
||i[X, log Y]||_1, from one forward pass in Y's eigenbasis (``_pair_forward``)
for draws and ascent rows alike, so pure random sampling is an ascent of
zero steps.
Every record is reproducible from (config, seed): per-restart generators are
derived from the base seed, and aggregation is a max-reduction, so results do
not depend on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import rates
from .operators import CONTRACTION_TOL, ROW_TRACE_FLOOR, SIE_VIOLATION_RTOL, SIM_VIOLATION_RTOL
from .operators import HermitianOperator, input_number, input_numbers, log_on_support, operator_norm
from .operators import log_divided_differences, spectral_rebuild
from .rates import (
    AdmissiblePair,
    BipartiteState,
    BOUND_CONSTANTS,
    P_SIE_MAX,
    sie_lambda_bound,
    sie_rate_bound,
    sim_bound,
)

# rejection sampling gives up after this many draws in a row
_MAX_DRAWS = 10_000

__all__ = [
    "TrialBudget",
    "SearchRecord",
    "ProvedBoundViolation",
    "sample_admissible_pair",
    "sample_bipartite_state",
    "maximize_lambda_over_pairs",
    "maximize_rate_over_states",
    "conjecture_scan",
    "check_lambda_bound",
    "check_rate_bound",
]


class GeneratorFailure(RuntimeError):
    """Rejection sampling exhausted its trial budget without a valid sample."""


class ProvedBoundViolation(RuntimeError):
    """A record exceeded a proved bound: an implementation bug, never physics.

    Carries a serialized reproduction bundle in ``bundle``.
    """

    def __init__(self, message: str, bundle: dict):
        super().__init__(message)
        self.bundle = bundle


@dataclass(frozen=True)
class TrialBudget:
    """Restarts and ascent steps per restart, integers (``input_number``)."""

    restarts: int = 20
    iters: int = 100

    def __post_init__(self):
        for name in ("restarts", "iters"):
            object.__setattr__(self, name, input_number(name, getattr(self, name), integer=True))
        if self.restarts < 1:
            raise ValueError(f"restarts = {self.restarts} must be >= 1")
        if self.iters < 0:
            raise ValueError(f"iters = {self.iters} must be >= 0")


@dataclass
class SearchRecord:
    dim: int
    p: float
    best_value: float
    bound_value: float
    ratio: float
    argmax: dict
    seed: int
    # evaluations, summed over the restarts: each start point, each gradient,
    # and each line search up to its first gain (all of it without one)
    trials: int
    method: str  # random (iters = 0) | hybrid (random restarts refined by ascent)
    restarts_used: int = 0
    rejections: int = 0

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# generators


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def _ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, dim))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _contraction(tw, zmax, p: float):
    """c = p / Tr W, and whether c Z <= I: Tr W > ROW_TRACE_FLOOR and
    c max z <= 1 + CONTRACTION_TOL, for a draw or each ascent row."""
    ok = tw > ROW_TRACE_FLOOR
    c = p / np.where(ok, tw, 1.0)
    return c, ok & (c * zmax <= 1.0 + CONTRACTION_TOL)


def _draw_pair(rng: np.random.Generator, dim: int, p: float):
    """Draw (Y, Z, X) until rescaling keeps the effective contraction below
    the identity, at most _MAX_DRAWS times.  Returns ((Y, (z, U), Xm), the
    number of rejected draws), with ``Y.eigh`` already taken for Y^{1/2} and
    Z = U diag(z) U^dag."""
    for rejections in range(_MAX_DRAWS):
        G = _ginibre(rng, dim)
        Ym = G @ G.conj().T
        Ym /= np.trace(Ym).real
        z_ev = rng.uniform(0.0, 1.0, size=dim)
        U = _haar_unitary(rng, dim)
        Y = HermitianOperator._built(Ym)
        wy, vy = Y.eigh
        sq = spectral_rebuild(vy, np.sqrt(np.clip(wy, 0, None)))
        W = sq @ spectral_rebuild(U, z_ev) @ sq
        c, ok = _contraction(np.trace(W).real, z_ev.max(), p)
        if ok:
            return (Y, (z_ev, U), c * W), rejections
    raise GeneratorFailure(f"no admissible sample in {_MAX_DRAWS} tries (dim={dim}, p={p})")


def sample_admissible_pair(dim: int, p: float, seed) -> AdmissiblePair:
    """Random admissible pair: Y from the trace-normalized Wishart ensemble,
    X = (p / Tr(Y^{1/2} Z Y^{1/2})) Y^{1/2} Z Y^{1/2} with Z uniform-spectrum
    in a Haar basis; samples whose rescaling breaks Z <= I are rejected.

    Deterministic per seed.
    """
    dim = input_number("dim", dim, integer=True)
    if dim < 2:
        raise ValueError(f"dim = {dim} must be >= 2")
    p = input_number("p", p)
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p = {p} outside (0, 1]")
    (Y, _, Xm), _ = _draw_pair(_rng(_input_seed(seed)), dim, p)
    return AdmissiblePair(HermitianOperator._built(Xm), Y, p)


def sample_bipartite_state(dims, seed) -> BipartiteState:
    """Haar-random unit vector on the full a x A x B x b space; deterministic per seed."""
    dims = input_numbers("dims", dims, integer=True)
    n = int(np.prod(dims))
    rng = _rng(_input_seed(seed))
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amp /= np.linalg.norm(amp)
    return BipartiteState(dims, amp)


# ---------------------------------------------------------------------------
# projected-gradient ascent over admissible pairs


@lru_cache(maxsize=None)
def _herm_layout(d: int):
    """Flat positions of the diagonal, the strict upper triangle (row-major)
    and its mirror in a d x d matrix."""
    iu = np.triu_indices(d, 1)
    return np.arange(d) * (d + 1), iu[0] * d + iu[1], iu[1] * d + iu[0]


def _herm_to_vec(m: np.ndarray) -> np.ndarray:
    """Real parameters of a Hermitian matrix (its diagonal, then the real and
    imaginary parts of its strict upper triangle), or of each matrix of a
    stack along the leading axes."""
    diag, upper, _ = _herm_layout(m.shape[-1])
    flat = m.reshape(m.shape[:-2] + (-1,))
    up = flat.take(upper, axis=-1)
    return np.concatenate([flat.take(diag, axis=-1).real, up.real, up.imag], axis=-1)


def _vec_to_herm(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of ``_herm_to_vec``, row by row for a stack of vectors."""
    diag, upper, lower = _herm_layout(d)
    n_off = upper.size
    off = v[..., d : d + n_off] + 1j * v[..., d + n_off :]
    m = np.zeros(v.shape[:-1] + (d * d,), dtype=complex)
    m[..., diag] += v[..., :d]
    m[..., upper] += off
    m[..., lower] += off.conj()
    return m.reshape(v.shape[:-1] + (d, d))


def _pair_forward(a, uy, b, uz, p: float):
    """The pair objective up to C = i[X, log Y], for a row or a stack of
    rows of eigenpairs (a, uy) of the Y parameter and (b, uz) of the Z
    parameter, in Y's eigenbasis: Y = diag(y), log Y = diag(l), so C_ij =
    i X_ij dl_ij, dl_ij = l_j - l_i, and a matrix M there is uy M uy^dag.
    Returns (C, ok, y, X, t, s, on, l, Q, zc, Z, W, tw, c, dl) as the body
    names them; ``ok`` is ``_contraction``'s test, failed at t = 0 (W = 0)."""
    ap = np.maximum(a, 0.0)
    t = ap.sum(axis=-1)
    y = ap / np.where(t > 0, t, 1.0)[..., None]
    s = np.sqrt(y)
    on, l = log_on_support(y)
    Q = uy.conj().swapaxes(-1, -2) @ uz
    zc = np.minimum(np.maximum(b, 0.0), 1.0)
    Z = spectral_rebuild(Q, zc)
    W = s[..., :, None] * Z * s[..., None, :]
    tw = np.trace(W, axis1=-2, axis2=-1).real
    c, ok = _contraction(tw, zc.max(axis=-1), p)
    X = c[..., None, None] * W
    dl = l[..., None, :] - l[..., :, None]
    return 1j * X * dl, ok, y, X, t, s, on, l, Q, zc, Z, W, tw, c, dl


def _pair_values(a, uy, b, uz, p: float) -> np.ndarray:
    """||C||_1 of ``_pair_forward`` per row, nan where a row is infeasible."""
    C, ok = _pair_forward(a, uy, b, uz, p)[:2]
    vals = np.full(ok.shape, np.nan)
    vals[ok] = np.abs(np.linalg.eigvalsh(C[ok])).sum(axis=-1)
    return vals


def _eval_pair_params(theta: np.ndarray, d: int, p: float):
    """Value rows of raw Hermitian parameters (Y's, then Z's) by
    ``_pair_values``; returns (values, a, uy, b, uz) stacked over the rows,
    with the eigenpairs of the two parameter matrices.  A row's bits do not
    depend on its batch: each goes through the same LAPACK and BLAS calls."""
    n = theta.shape[1] // 2
    a, uy = np.linalg.eigh(_vec_to_herm(theta[:, :n], d))
    b, uz = np.linalg.eigh(_vec_to_herm(theta[:, n:], d))
    return _pair_values(a, uy, b, uz, p), a, uy, b, uz


def _pair_gradient(rows, p: float) -> np.ndarray:
    """The gradient of the objective at each row of a stack of rows of
    ``_eval_pair_params``, by one backward pass through ``_pair_forward`` at
    their eigenpairs; a row's bits do not depend on its batch.

    With S = sign(C), the objective ||C||_1 = Tr(S C) pulls back to G_X =
    i[L, S] and G_L = i[S, X], L = log Y; then through the rescaling X =
    c W, c = p / Tr W, and W = Y^{1/2} Z Y^{1/2}; then through the spectral
    functions sqrt(a+ / t), log(a+ / t) and clip(b, 0, 1) by their divided
    differences (Daleckii-Krein; log's is ``log_divided_differences``),
    plus the diagonal term of t = sum a+.  sqrt's needs no threshold either:
    1/(t (s_i + s_j)) where both eigenvalues are positive, a plain quotient
    across."""
    a, uy, b, uz = rows[1:]
    C, _, _, X, t, s, on, l, Q, zc, Z, W, tw, c, dl = _pair_forward(a, uy, b, uz, p)
    n, d = a.shape
    col = lambda u: u[:, :, None]
    row = lambda u: u[:, None, :]
    adj = lambda u: u.conj().swapaxes(-1, -2)
    diag = lambda m: m.reshape(n, -1)[:, :: d + 1]  # a view of each diagonal
    sc, sr = col(s), row(s)
    w, v = np.linalg.eigh(C)
    S = spectral_rebuild(v, np.sign(w))
    GX = -1j * dl * S
    GL = 1j * (S @ X - X @ S)
    GW = c[:, None, None] * GX
    tr_gxw = (GX * W.swapaxes(-1, -2)).reshape(n, -1).sum(axis=-1).real
    diag(GW)[...] -= (c * tr_gxw / tw)[:, None]
    GR = Z @ (sc * GW) + (GW * sr) @ Z
    # the Y parameter: sqrt(a+ / t) and log(a+ / t) at fixed t, then t.  X
    # does not change with the scale of Y^{1/2}, so t enters only through
    # log(a+ / t) = log a+ - log t on the support
    da = col(a) - row(a)
    pos = a > 0
    Dh = np.divide(1.0, t[:, None, None] * (sc + sr), out=np.zeros(da.shape), where=col(pos) & row(pos))
    Dh = np.divide(sc - sr, da, out=Dh, where=col(pos) ^ row(pos))
    GA = Dh * GR + log_divided_differences(a, on, l) * GL
    # the support is a suffix of the ascending spectrum: each row sums the
    # diagonal over its own, in the order a sum over that row alone takes
    gl, off = np.ascontiguousarray(diag(GL).real), d - on.sum(axis=-1)
    gl_on = gl.sum(axis=-1)
    for k in set(off.tolist()) - {0}:
        gl_on[off == k] = gl[off == k, k:].sum(axis=-1)
    diag(GA)[...] -= pos * gl_on[:, None] / t[:, None]
    # the Z parameter: clip(b, 0, 1)
    inside = (b > 0) & (b < 1)
    db = col(b) - row(b)
    Dz = np.divide(col(zc) - row(zc), db, out=(col(inside) & row(inside)) * 1.0, where=db != 0)
    GB = Dz * (adj(Q) @ (sc * GW * sr) @ Q)
    # d/dv Tr(G dM) in the layout of _vec_to_herm: G_ii, then 2 Re G_ij, 2 Im G_ij
    weight = np.where(np.arange(d * d) < d, 1.0, 2.0)
    return (_herm_to_vec(np.stack([uy @ GA @ adj(uy), uz @ GB @ adj(uz)], axis=1)) * weight).reshape(n, -1)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, bit for bit: matmul takes the same
    BLAS dot of the same (real and imaginary) views of C-ordered rows, one
    row at a time (a strided row would take another summation order)."""
    rows = np.ascontiguousarray(rows)
    dot = lambda x: (x[:, None, :] @ x[:, :, None])[:, 0, 0]
    if np.iscomplexobj(rows):
        return np.sqrt(dot(rows.real) + dot(rows.imag))
    return np.sqrt(dot(rows))


# backtracking line-search steps: 0.1, halved down to the floor 1e-8
_LINE_STEPS = 0.1 / 2.0 ** np.arange(24)
# restarts ascend together in groups whose line-search stack holds at most
# this many matrix entries, as one restart's does at d = 64
_GROUP_ENTRIES = _LINE_STEPS.size * 64**2


def _groups(restarts: int, side: int) -> list[range]:
    """The restarts of a search in groups that ascend together, each line
    search of a group holding at most _GROUP_ENTRIES entries of the side x
    side matrices its rows are valued through."""
    size = max(1, _GROUP_ENTRIES // (_LINE_STEPS.size * side * side))
    return [range(lo, min(lo + size, restarts)) for lo in range(0, restarts, size)]


def _ascend(evaluate, theta, start, iters, gradient, retract=lambda rows: rows):
    """Gradient ascent from each row of the stack ``theta``, all of them in
    lockstep: the gradient from ``gradient`` and a backtracking line search
    (0.1 halved down to 1e-8), ``retract`` mapping its rows back onto the
    parameter set.  Each restart stops on its own after ``iters`` steps, at
    a zero gradient, or at its first line search without a gain above 1e-14,
    which leaves its point where it was; the ascent goes on while any
    restart is live.

    ``evaluate`` maps a stack of parameter rows to a tuple of stacks over
    the rows: their values, nan where a row is infeasible, then whatever
    else the caller keeps of the point the ascent ends at.  ``start`` is
    that tuple for ``theta``.  ``gradient(theta, rows)`` returns the exact
    gradients at a stack of points, whose rows of that tuple are ``rows``.
    Each step takes one gradient of the live restarts and sends all their
    line-search steps to ``evaluate`` as one stack; a row's bits do not
    depend on its batch, so neither does any restart's path.  ``evals``
    counts, per restart, the start point, each gradient as one, and each
    line search up to its first gain, as a sequential search would.  Returns
    (theta, start, evals) at the end of each restart."""
    n = _LINE_STEPS.size
    # the live restarts: their places in the result, points, rows of the
    # tuple and counts
    live, th, row = np.arange(len(theta)), theta.copy(), tuple(s.copy() for s in start)
    ev = np.ones(len(theta), dtype=int)
    theta, start, evals = np.empty_like(th), [np.empty_like(r) for r in row], np.empty_like(ev)

    def drop(done):
        # the result of each restart that stops; the others stay live
        theta[live[done]], evals[live[done]] = th[done], ev[done]
        for s, r in zip(start, row):
            s[live[done]] = r[done]
        keep = ~done
        return live[keep], th[keep], tuple(r[keep] for r in row), ev[keep]

    for _ in range(iters):
        g = gradient(th, row)
        ev += 1
        gn = _row_norms(g)
        zero = gn < 1e-12
        if np.count_nonzero(zero):
            g, gn = g[~zero], gn[~zero]
            live, th, row, ev = drop(zero)
            if not live.size:
                break
        steps = th[:, None] + _LINE_STEPS[:, None] * g[:, None] / gn[:, None, None]
        trial = retract(steps.reshape(-1, th.shape[1]))
        out = evaluate(trial)
        gain = out[0].reshape(-1, n) > (row[0] + 1e-14)[:, None]
        # each backtracking search stops at its first (largest) step that gains
        up, j = gain.any(axis=1), gain.argmax(axis=1)
        ev += np.where(up, j + 1, n)
        at = up.nonzero()[0]
        pick = at * n + j[at]
        th[at] = trial[pick]
        for r, o in zip(row, out):
            r[at] = o[pick]
        if not up.all():
            live, th, row, ev = drop(~up)
            if not live.size:
                break
    drop(np.ones(live.size, dtype=bool))
    return theta, tuple(start), evals


def maximize_lambda_over_pairs(dim: int, p: float, budget: TrialBudget, seed) -> SearchRecord:
    """Hunt for the largest closed-form maximum of the functional over
    admissible pairs at fixed (dim, p).

    Each of ``restarts`` random draws is valued from its own Y.eigh and Z's
    (z, U), as an ascent row is, then refined by gradient ascent for up to
    ``iters`` steps (stopped at the first line search without a gain), each
    step on the exact gradient (``_pair_gradient``), the draws of a group
    (``_groups``) in lockstep; ``iters`` = 0 keeps the draws (method
    "random").  ``trials`` sums the evaluations ``_ascend`` counts, and
    ``rejections`` the rejected draws.  The best row's pair is rebuilt and
    checked once; the ratio is against the envelope.
    """
    dim = input_number("dim", dim, integer=True)
    if dim < 2:
        raise ValueError(f"dim = {dim} must be >= 2")
    p = input_number("p", p)
    bound = sim_bound(p)  # raises for p outside (0, 1)
    seed = _as_int_seed(seed)
    # the ascent runs over the raw Hermitian parameters of Y and Z
    evaluate = lambda rows: _eval_pair_params(rows, dim, p)
    gradient = lambda theta, rows: _pair_gradient(rows, p)
    best, trials, rejections = (-1.0,), 0, 0
    for group in _groups(budget.restarts, dim):
        draws, rej = zip(*(_draw_pair(_rng([seed, r]), dim, p) for r in group))
        rejections += sum(rej)
        wy, uy = map(np.stack, zip(*(Y.eigh for Y, _, _ in draws)))
        z, uz = map(np.stack, zip(*(zu for _, zu, _ in draws)))
        start = (_pair_values(wy, uy, z, uz, p), wy, uy, z, uz)
        Ym = np.stack([Y.mat for Y, _, _ in draws])
        theta = np.concatenate([_herm_to_vec(Ym), _herm_to_vec(spectral_rebuild(uz, z))], axis=-1)
        _, end, evals = _ascend(evaluate, theta, start, budget.iters, gradient)
        trials += int(evals.sum())
        k = int(np.argmax(end[0]))
        if end[0][k] > best[0]:
            best = tuple(e[k] for e in end)
    value, a, uy, b, uz = best
    y, X = _pair_forward(a, uy, b, uz, p)[2:4]
    Ym, Xm = spectral_rebuild(uy, y), uy @ X @ uy.conj().T
    pair = AdmissiblePair(HermitianOperator._built(Xm), HermitianOperator._built(Ym), p)
    record = SearchRecord(
        dim=dim,
        p=p,
        best_value=float(value),
        bound_value=bound,
        ratio=float(value) / bound,
        argmax=pair.to_json(),
        seed=seed,
        trials=trials,
        method="hybrid" if budget.iters > 0 else "random",
        restarts_used=budget.restarts,
        rejections=rejections,
    )
    check_lambda_bound(record.best_value, p, record.to_json())
    return record


def _input_seed(seed):
    """A seed from outside the program: an integer or a list of them."""
    if isinstance(seed, (list, tuple)):
        return input_numbers("seed", seed, integer=True)
    return input_number("seed", seed, integer=True)


def _as_int_seed(seed) -> int:
    """``_input_seed`` as one integer, a list folded into one 64-bit word."""
    seed = _input_seed(seed)
    if isinstance(seed, int):
        return seed
    h = 0
    for s in seed:
        h = (h * 1_000_003 + s) % (1 << 63)
    return h


def check_lambda_bound(value: float, p: float, bundle: dict) -> None:
    """Raise ProvedBoundViolation, carrying ``bundle`` and the bound, if a
    value of the functional exceeds 9 p ln(1/p), which is proved, and
    checked, at p <= 1/e^2 only; the slack scales with the bound."""
    if p <= P_SIE_MAX:
        bound = sie_lambda_bound(p)
        _raise_above(value, bound, "9 p ln(1/p)", bound, bundle)


def check_rate_bound(value: float, d: int, h_norm: float, bundle: dict) -> None:
    """Raise ProvedBoundViolation, carrying ``bundle`` and the bound, if
    |rate| exceeds 18 ||H|| ln d, d = min(d_A, d_B); at d = 1 the bound is
    0, so the slack scales with max(bound, ||H||)."""
    bound = sie_rate_bound(d, h_norm)
    _raise_above(abs(value), bound, "18 ||H|| ln min(d_A, d_B)", max(bound, h_norm), bundle)


def _raise_above(value: float, bound: float, formula: str, scale: float, bundle: dict) -> None:
    """Raise ProvedBoundViolation if ``value`` exceeds a proved bound by more
    than SIE_VIOLATION_RTOL * scale, carrying ``bundle`` and the bound."""
    if value > bound + SIE_VIOLATION_RTOL * scale:
        raise ProvedBoundViolation(
            f"proved bound exceeded: value {value} > {formula} = {bound}", {**bundle, "bound": bound}
        )


# ---------------------------------------------------------------------------
# entanglement-rate search over states


def maximize_rate_over_states(
    dims, H_AB: HermitianOperator, budget: TrialBudget, seed
) -> SearchRecord:
    """Gradient ascent of the entanglement rate on the unit sphere of states,
    with random restarts (a pure product start is a stationary point of the
    entropy, so restarts are what escape it).  Each restart's start point
    goes through ``rates.entanglement_rate``; the restarts then ascend in
    lockstep, evaluating stacks of parameter rows (real parts, then
    imaginary parts) through the same forward pass (``rates._rate_forward``),
    normalising every row, and stepping on the exact gradient of the rate:
    one backward pass (``rates._rate_gradient``) from the forward pass the
    line search took at the accepted row.  A restart stops at its first
    line search without a gain, and ``trials`` sums the evaluations
    ``_ascend`` counts.  ``iters`` = 0 keeps the start points (method
    "random").

    The reference bound is beta ||H|| for the plain two-qubit case
    (1, 2, 2, 1) and 18 ||H|| ln min(d_A, d_B) otherwise.  A record above
    the proved 18 ||H|| ln min(d_A, d_B) raises ProvedBoundViolation.  A
    trivial factor, d_A = 1 or d_B = 1, is a ValueError before any restart:
    every rate there is 0 and so is the bound.
    """
    dims = rates._input_dims(dims)
    seed = _as_int_seed(seed)
    d_a, d_A, d_B, d_b = dims
    if H_AB.dim != d_A * d_B:
        raise ValueError(f"H_AB dim {H_AB.dim} != d_A*d_B = {d_A * d_B}")
    if min(d_A, d_B) < 2:
        raise ValueError(f"d_A = {d_A}, d_B = {d_B}: a state search needs both >= 2")
    n = int(np.prod(dims))
    h_norm = operator_norm(H_AB)
    if dims == (1, 2, 2, 1):
        # beta is a base-2 constant (entropy in bits); rates here are in nats
        bound = BOUND_CONSTANTS.beta * np.log(2.0) * h_norm
    else:
        bound = sie_rate_bound(min(d_A, d_B), h_norm)

    def amplitudes(rows):
        amp = rows[:, :n] + 1j * rows[:, n:]
        return amp / _row_norms(amp)[:, None]

    normalise = lambda rows: rows / _row_norms(rows)[:, None]
    # a row's value, then the rest of its forward pass, which the gradient reads
    evaluate = lambda rows: rates._rate_forward(amplitudes(rows), dims, H_AB.mat)

    # a row's value is the rate at the row over its squared norm, so at a
    # unit theta the step drops the rate gradient's component 2 f theta
    def gradient(theta, rows):
        grad = rates._rate_gradient(amplitudes(theta), dims, H_AB.mat, rows)
        return grad - 2.0 * rows[0][:, None] * theta

    best, best_params, trials = -np.inf, None, 0
    for group in _groups(budget.restarts, max(d_a * d_A, d_B * d_b)):
        draws = np.array([sample_bipartite_state(dims, [seed, r]).amplitudes for r in group])
        theta = np.concatenate([draws.real, draws.imag], axis=1)
        amps = amplitudes(theta)
        f = [rates.entanglement_rate(BipartiteState(dims, amp), H_AB) for amp in amps]
        start = (np.array(f), *rates._rate_forward(amps, dims, H_AB.mat)[1:])
        theta, (f, *_), evals = _ascend(evaluate, theta, start, budget.iters, gradient, normalise)
        trials += int(evals.sum())
        k = int(np.argmax(f))
        if f[k] > best:
            best, best_params = f[k], theta[k]
    record = SearchRecord(
        dim=min(d_A, d_B),
        p=1.0 / min(d_A, d_B) ** 2,
        best_value=float(best),
        bound_value=float(bound),
        ratio=float(best / bound),
        argmax=BipartiteState(dims, amplitudes(best_params[None])[0]).to_json(),
        seed=seed,
        trials=trials,
        method="hybrid" if budget.iters > 0 else "random",
        restarts_used=budget.restarts,
    )
    check_rate_bound(record.best_value, min(d_A, d_B), h_norm, record.to_json())
    return record


# ---------------------------------------------------------------------------
# scan


def _cell_budget(dim: int, budget: TrialBudget) -> TrialBudget:
    """Deterministic desk-scale policy: full ascent at dim 2, shortened
    ascent through dim 8, pure random sampling beyond (the cubic eigensolver
    cost and the quadratic parameter count make full-budget ascent at large
    dim pointless for a ceiling check).  A budget of pure random sampling
    (``iters`` = 0) is kept as asked at every dim."""
    if dim <= 2 or budget.iters == 0:
        return budget
    if dim <= 4:
        return TrialBudget(max(1, budget.restarts // 4), max(1, budget.iters // 5))
    if dim <= 8:
        return TrialBudget(max(1, budget.restarts // 20), max(1, budget.iters // 20))
    return TrialBudget(budget.restarts, 0)


def _scan_cell(args):
    dim, p, budget, seed, i, j = args
    eff = _cell_budget(dim, budget)
    return maximize_lambda_over_pairs(dim, p, eff, [seed, i, j])


def conjecture_scan(
    dim_list,
    p_grid,
    budget: TrialBudget,
    seed: int,
    workers: int = 1,
) -> tuple[list[SearchRecord], list[SearchRecord]]:
    """Scan (dim, p) cells for the best functional value against both the
    binary-entropy envelope and, where p <= 1/e^2, the proved 9 p ln(1/p)
    ceiling.

    Returns the per-cell records (in grid order) and, as the events, those
    whose ratio to the conjectured envelope exceeds 1 + SIM_VIOLATION_RTOL.
    A proved-bound violation raises instead: that is a bug, not a discovery.
    """
    seed = input_number("seed", seed, integer=True)
    workers = input_number("workers", workers, integer=True)
    if workers < 1:
        raise ValueError(f"workers = {workers} must be >= 1")
    tasks = [
        (input_number("dim", dim, integer=True), input_number("p", p), budget, seed, i, j)
        for i, dim in enumerate(dim_list)
        for j, p in enumerate(p_grid)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            records = list(pool.map(_scan_cell, tasks))
    else:
        records = [_scan_cell(t) for t in tasks]
    return records, [rec for rec in records if rec.ratio > 1.0 + SIM_VIOLATION_RTOL]


def scan_rows(records: list[SearchRecord]) -> list[dict]:
    """CSV-ready rows: dim,p,best,sim_bound,sie_bound,ratio_sim,ratio_sie,seed,trials."""
    rows = []
    for rec in records:
        in_regime = rec.p <= P_SIE_MAX
        sie = sie_lambda_bound(rec.p) if in_regime else float("nan")
        rows.append(
            {
                "dim": rec.dim,
                "p": rec.p,
                "best": rec.best_value,
                "sim_bound": rec.bound_value,
                "sie_bound": sie,
                "ratio_sim": rec.ratio,
                "ratio_sie": rec.best_value / sie if in_regime else float("nan"),
                "seed": rec.seed,
                "trials": rec.trials,
            }
        )
    return rows
