"""Randomized generators and maximizers hunting for extremal instances of the
commutator functional and the entanglement rate.

Search is hybrid: random restarts over admissible pairs (or states), each
refined by projected-gradient ascent with numerically differenced gradients;
the inner optimization over the Hamiltonian is always the closed form.
Every record is reproducible from (config, seed): per-restart generators are
derived from the base seed, and aggregation is a max-reduction, so results do
not depend on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import HermitianOperator, log_on_support, operator_norm, spectral_rebuild
from .rates import (
    AdmissiblePair,
    BipartiteState,
    BOUND_CONSTANTS,
    entanglement_rate,
    maximize_over_hamiltonian,
    sie_lambda_bound,
    sie_rate_bound,
    sim_bound,
)

P_SIE_MAX = float(np.exp(-2.0))
SIM_VIOLATION_RTOL = 1e-6
SIE_VIOLATION_RTOL = 1e-9

__all__ = [
    "TrialBudget",
    "SearchRecord",
    "FalsificationEvent",
    "ProvedBoundViolation",
    "sample_admissible_pair",
    "sample_bipartite_state",
    "maximize_lambda_over_pairs",
    "maximize_rate_over_states",
    "conjecture_scan",
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
    restarts: int = 20
    iters: int = 100


@dataclass
class FalsificationEvent:
    """A conjectured bound exceeded by a concrete instance; kept, not clipped."""

    kind: str  # "sim"
    dim: int
    p: float
    value: float
    bound: float
    instance: dict
    seed: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "p": self.p,
            "value": self.value,
            "bound": self.bound,
            "instance": self.instance,
            "seed": self.seed,
        }


@dataclass
class SearchRecord:
    dim: int
    p: float
    best_value: float
    bound_value: float
    ratio: float
    argmax: dict
    seed: int
    trials: int
    method: str  # random | projected_gradient | hybrid
    restarts_used: int = 0
    rejections: int = 0

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "p": self.p,
            "best_value": self.best_value,
            "bound_value": self.bound_value,
            "ratio": self.ratio,
            "argmax": self.argmax,
            "seed": self.seed,
            "trials": self.trials,
            "method": self.method,
            "restarts_used": self.restarts_used,
            "rejections": self.rejections,
        }


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


def _draw_pair(rng: np.random.Generator, dim: int, p: float):
    """One attempt at (Y, Z, X); returns None when rescaling would push the
    effective contraction above the identity."""
    G = _ginibre(rng, dim)
    Ym = G @ G.conj().T
    Ym /= np.trace(Ym).real
    z_ev = rng.uniform(0.0, 1.0, size=dim)
    U = _haar_unitary(rng, dim)
    Zm = (U * z_ev) @ U.conj().T
    wy, vy = np.linalg.eigh(Ym)
    sq = spectral_rebuild(vy, np.sqrt(np.clip(wy, 0, None)))
    W = sq @ Zm @ sq
    t = float(np.trace(W).real)
    if t <= 0:
        return None
    c = p / t
    if c * float(z_ev.max()) > 1.0:
        return None
    return Ym, Zm, c * W


def sample_admissible_pair(
    dim: int, p: float, seed, max_tries: int = 10_000
) -> AdmissiblePair:
    """Random admissible pair: Y from the trace-normalized Wishart ensemble,
    X = (p / Tr(Y^{1/2} Z Y^{1/2})) Y^{1/2} Z Y^{1/2} with Z uniform-spectrum
    in a Haar basis; samples whose rescaling breaks Z <= I are rejected.

    Deterministic per seed.
    """
    if dim < 2:
        raise ValueError(f"dim = {dim} must be >= 2")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p = {p} outside (0, 1]")
    rng = _rng(seed)
    for _ in range(max_tries):
        drawn = _draw_pair(rng, dim, p)
        if drawn is not None:
            Ym, _, Xm = drawn
            return AdmissiblePair(HermitianOperator(Xm), HermitianOperator(Ym), p)
    raise GeneratorFailure(
        f"no admissible sample in {max_tries} tries (dim={dim}, p={p})"
    )


def sample_bipartite_state(dims, seed) -> BipartiteState:
    """Haar-random unit vector on the full a x A x B x b space; deterministic per seed."""
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    rng = _rng(seed)
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
    diag, upper, _ = _herm_layout(m.shape[0])
    flat = m.ravel()
    return np.concatenate([flat[diag].real, flat[upper].real, flat[upper].imag])


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


def _eval_pair_params(theta: np.ndarray, d: int, p: float):
    """Project rows of raw Hermitian parameters (Y's, then Z's) onto the
    admissible set.  Returns (values, Ym, Xm) stacked over the rows; an
    infeasible row gets the value nan and zero matrices.  Every row goes
    through the same LAPACK and BLAS calls as it would on its own, so a row's
    value does not depend on the batch it came in."""
    n = theta.shape[1] // 2
    vals = np.full(theta.shape[0], np.nan)
    Ym = np.zeros((theta.shape[0], d, d), dtype=complex)
    Xm = np.zeros_like(Ym)
    wy, uy = np.linalg.eigh(_vec_to_herm(theta[:, :n], d))
    wy = np.clip(wy, 0.0, None)
    t = wy.sum(axis=-1)
    rows = np.flatnonzero(t > 0)
    wy, uy = wy[rows] / t[rows, None], uy[rows]
    wz, uz = np.linalg.eigh(_vec_to_herm(theta[rows, n:], d))
    wz = np.clip(wz, 0.0, 1.0)
    Zm = spectral_rebuild(uz, wz)
    sq = spectral_rebuild(uy, np.sqrt(wy))
    W = sq @ Zm @ sq
    tw = np.trace(W, axis1=1, axis2=2).real
    ok = tw > 1e-300
    c = p / np.where(ok, tw, 1.0)
    ok &= ~(c * wz.max(axis=-1) > 1.0 + 1e-12)
    rows, wy, uy = rows[ok], wy[ok], uy[ok]
    X = c[ok, None, None] * W[ok]
    logY = spectral_rebuild(uy, log_on_support(wy)[1])
    C = 1j * (X @ logY - logY @ X)
    vals[rows] = np.abs(np.linalg.eigvalsh(C)).sum(axis=-1)
    Ym[rows] = spectral_rebuild(uy, wy)
    Xm[rows] = X
    return vals, Ym, Xm


# backtracking line-search steps: 0.1, halved down to the floor 1e-8
_LINE_STEPS = 0.1 / 2.0 ** np.arange(24)


def _ascend_pair(rng, dim, p, iters, fd_step=1e-5, patience=5):
    """One restart: random feasible start, then gradient ascent with central
    differences and a backtracking line search (start 0.1, floor 1e-8).
    The 2 x (number of parameters) differenced points of a step are
    evaluated in one batch, and so are all the line-search steps; ``evals``
    counts the line search up to its first gain, as a sequential search
    would.  Returns (best value, Ym, Xm, evals, rejections)."""
    rejections = 0
    while True:
        drawn = _draw_pair(rng, dim, p)
        if drawn is not None:
            break
        rejections += 1
        if rejections > 10_000:
            raise GeneratorFailure(f"no feasible restart (dim={dim}, p={p})")
    Ym0, Zm0, Xm0 = drawn
    theta = np.concatenate([_herm_to_vec(Ym0), _herm_to_vec(Zm0)])
    m = theta.size
    vals, Ym, Xm = _eval_pair_params(theta[None], dim, p)
    assert not np.isnan(vals[0])
    f, Ym, Xm = float(vals[0]), Ym[0], Xm[0]
    evals = 1
    stall = 0
    diag = np.arange(m)
    for _ in range(iters):
        shifted = np.tile(theta, (2 * m, 1))
        shifted[diag, diag] += fd_step
        shifted[m + diag, diag] -= fd_step
        vals = _eval_pair_params(shifted, dim, p)[0]
        evals += 2 * m
        vals[np.isnan(vals)] = f
        g = (vals[:m] - vals[m:]) / (2.0 * fd_step)
        gn = float(np.linalg.norm(g))
        if gn < 1e-12:
            break
        trial = theta + _LINE_STEPS[:, None] * g / gn
        vals, Yn, Xn = _eval_pair_params(trial, dim, p)
        up = np.flatnonzero(vals > f + 1e-14)
        if up.size:
            # the backtracking search stops at the first (largest) step that gains
            j = int(up[0])
            evals += j + 1
            theta = trial[j]
            f, Ym, Xm = float(vals[j]), Yn[j], Xn[j]
            stall = 0
        else:
            evals += _LINE_STEPS.size
            stall += 1
            if stall >= patience:
                break
    return f, Ym, Xm, evals, rejections


def maximize_lambda_over_pairs(
    dim: int, p: float, budget: TrialBudget, seed, method: str = "hybrid"
) -> SearchRecord:
    """Hunt for the largest closed-form maximum of the functional over
    admissible pairs at fixed (dim, p).

    ``method``: "random" draws ``restarts`` samples; "hybrid" (default)
    additionally refines each sample by projected-gradient ascent for up to
    ``iters`` steps (early-stopped once the line search stalls).  The ratio
    is reported against the binary-entropy envelope.
    """
    if dim < 2:
        raise ValueError(f"dim = {dim} must be >= 2")
    if not (0.0 < p < 1.0):
        raise ValueError(f"p = {p} outside (0, 1)")
    bound = sim_bound(p)
    best = -1.0
    best_pair = None
    trials = 0
    rejections = 0
    restarts_used = 0
    for r in range(budget.restarts):
        rng = _rng([_as_int_seed(seed), r])
        restarts_used += 1
        if method == "random" or budget.iters == 0:
            drawn = None
            for _ in range(10_000):
                trials += 1
                drawn = _draw_pair(rng, dim, p)
                if drawn is not None:
                    break
                rejections += 1
            if drawn is None:
                raise GeneratorFailure(f"no sample (dim={dim}, p={p})")
            Ym, _, Xm = drawn
            pair = AdmissiblePair(HermitianOperator(Xm), HermitianOperator(Ym), p)
            val, _ = maximize_over_hamiltonian(pair)
        else:
            val, Ym, Xm, evals, rej = _ascend_pair(rng, dim, p, budget.iters)
            trials += evals
            rejections += rej
        if val > best:
            best = val
            best_pair = AdmissiblePair(
                HermitianOperator(Xm), HermitianOperator(Ym), p
            )
    record = SearchRecord(
        dim=dim,
        p=p,
        best_value=best,
        bound_value=bound,
        ratio=best / bound,
        argmax=best_pair.to_json(),
        seed=_as_int_seed(seed),
        trials=trials,
        method=method if budget.iters > 0 else "random",
        restarts_used=restarts_used,
        rejections=rejections,
    )
    _check_proved_bound(record)
    return record


def _as_int_seed(seed) -> int:
    if isinstance(seed, (list, tuple)):
        # fold a composite seed into one 64-bit word for the record
        h = 0
        for s in seed:
            h = (h * 1_000_003 + int(s)) % (1 << 63)
        return h
    return int(seed)


def _check_proved_bound(record: SearchRecord) -> None:
    """Abort with a reproduction bundle if a pair record exceeds 9 p ln(1/p)."""
    if record.p <= P_SIE_MAX:
        sie = sie_lambda_bound(record.p)
        _raise_above(record, sie, "9 p ln(1/p)", sie)


def _raise_above(record: SearchRecord, bound: float, formula: str, scale: float) -> None:
    """Raise ProvedBoundViolation, with the record as its bundle, if the
    record exceeds a proved bound by more than SIE_VIOLATION_RTOL * scale."""
    if record.best_value > bound + SIE_VIOLATION_RTOL * scale:
        raise ProvedBoundViolation(
            f"proved bound exceeded: value {record.best_value} > "
            f"{formula} = {bound} at dim={record.dim}, p={record.p}",
            bundle=record.to_json(),
        )


# ---------------------------------------------------------------------------
# entanglement-rate search over states


def _eval_state(params: np.ndarray, dims, H_AB) -> float:
    n = params.size // 2
    amp = params[:n] + 1j * params[n:]
    nrm = np.linalg.norm(amp)
    if nrm <= 0:
        return -np.inf
    return entanglement_rate(BipartiteState(dims, amp / nrm), H_AB)


def maximize_rate_over_states(
    dims, H_AB: HermitianOperator, budget: TrialBudget, seed
) -> SearchRecord:
    """Gradient ascent of the entanglement rate on the unit sphere of states,
    with random restarts (a pure product start is a stationary point of the
    entropy, so restarts are what escape it).

    The reference bound is beta ||H|| for the plain two-qubit case
    (1, 2, 2, 1) and 18 ||H|| ln min(d_A, d_B) otherwise.  A record above
    the proved 18 ||H|| ln min(d_A, d_B) raises ProvedBoundViolation.
    """
    dims = tuple(int(d) for d in dims)
    d_a, d_A, d_B, d_b = dims
    n = int(np.prod(dims))
    h_norm = operator_norm(H_AB)
    if dims == (1, 2, 2, 1):
        # beta is a base-2 constant (entropy in bits); rates here are in nats
        bound = BOUND_CONSTANTS.beta * np.log(2.0) * h_norm
    else:
        bound = sie_rate_bound(min(d_A, d_B), h_norm)
    best = -np.inf
    best_params = None
    trials = 0
    fd_step = 1e-6
    for r in range(budget.restarts):
        rng = _rng([_as_int_seed(seed), r])
        amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        amp /= np.linalg.norm(amp)
        theta = np.concatenate([amp.real, amp.imag])
        f = _eval_state(theta, dims, H_AB)
        trials += 1
        stall = 0
        for _ in range(budget.iters):
            g = np.zeros_like(theta)
            for i in range(theta.size):
                tp = theta.copy()
                tp[i] += fd_step
                tm = theta.copy()
                tm[i] -= fd_step
                g[i] = (_eval_state(tp, dims, H_AB) - _eval_state(tm, dims, H_AB)) / (
                    2.0 * fd_step
                )
                trials += 2
            gn = float(np.linalg.norm(g))
            if gn < 1e-12:
                break
            alpha = 0.1
            accepted = False
            while alpha >= 1e-8:
                tn = theta + alpha * g / gn
                tn /= np.linalg.norm(tn)
                fn = _eval_state(tn, dims, H_AB)
                trials += 1
                if fn > f + 1e-14:
                    theta, f = tn, fn
                    accepted = True
                    break
                alpha /= 2.0
            if not accepted:
                stall += 1
                if stall >= 5:
                    break
            else:
                stall = 0
        if f > best:
            best = f
            best_params = theta
    amp = best_params[: n] + 1j * best_params[n:]
    amp /= np.linalg.norm(amp)
    record = SearchRecord(
        dim=min(d_A, d_B),
        p=1.0 / min(d_A, d_B) ** 2,
        best_value=float(best),
        bound_value=float(bound),
        ratio=float(best / bound),
        argmax=BipartiteState(dims, amp).to_json(),
        seed=_as_int_seed(seed),
        trials=trials,
        method="hybrid",
        restarts_used=budget.restarts,
    )
    # at min(d_A, d_B) = 1 the bound is 0, so the slack scales with ||H||
    sie = sie_rate_bound(min(d_A, d_B), h_norm)
    _raise_above(record, sie, "18 ||H|| ln min(d_A, d_B)", max(sie, h_norm))
    return record


# ---------------------------------------------------------------------------
# scan


def _cell_budget(dim: int, budget: TrialBudget) -> TrialBudget:
    """Deterministic desk-scale policy: full ascent at dim 2, shortened
    ascent through dim 8, pure random sampling beyond (the cubic eigensolver
    cost and the quadratic parameter count make full-budget ascent at large
    dim pointless for a ceiling check)."""
    if dim <= 2:
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
) -> tuple[list[SearchRecord], list[FalsificationEvent]]:
    """Scan (dim, p) cells for the best functional value against both the
    binary-entropy envelope and, where p <= 1/e^2, the proved 9 p ln(1/p)
    ceiling.

    Returns the per-cell records (in grid order) and any falsification events
    against the conjectured envelope.  A proved-bound violation raises
    instead: that is a bug, not a discovery.
    """
    tasks = [
        (int(dim), float(p), budget, int(seed), i, j)
        for i, dim in enumerate(dim_list)
        for j, p in enumerate(p_grid)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_scan_cell, tasks))
    else:
        records = [_scan_cell(t) for t in tasks]
    events = []
    for rec in records:
        if rec.ratio > 1.0 + SIM_VIOLATION_RTOL:
            events.append(
                FalsificationEvent(
                    kind="sim",
                    dim=rec.dim,
                    p=rec.p,
                    value=rec.best_value,
                    bound=rec.bound_value,
                    instance=rec.argmax,
                    seed=rec.seed,
                )
            )
    return records, events


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
