"""The three workloads: their inputs, the round each run repeats, and the
checks of every output against the independent solutions in ``oracles``.

Every workload runs the same round: certify batches (sample a pair, maximise
over H, audit the decomposition), pair-ascent cells, two-qubit state
searches, and chain path windows, each with one locality profile.  The
workloads differ in how much of each a round holds (``WORKLOADS``): each
loads one end of the program from the seed and carries fixed probes of the
others, which lets every run report every end-to-end metric.

The program only receives the drawn dims, p values, seeds and path windows.
All calls go through module attributes so that ``tracing`` can wrap them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import oracles
from entlab import chains, rates, search
from entlab.operators import HermitianOperator

P_CERTIFY = (0.02, 0.05, 0.1)
SMALL_DIMS = (2, 8)
LARGE_DIMS = (32, 128)
SMALL_PER_COMBO = 10  # a small batch is 10 pairs at each (dim, p): 60 pairs
P_ASCENT = (0.08, 0.2, 0.35)
SZ = np.diag([1.0, -1.0])
ZZ = np.kron(SZ, SZ)

# criterion-7/8 path: J = 1, g = 1.5 + s, cut in the middle
CHAIN_J = (1.0,)
CHAIN_G = (1.5, 1.0)
WINDOW_HALF_WIDTH = 0.02  # 3-point window; the program's interior rate check passes
# shell strengths must fall strictly beyond this radius; criterion 8 states
# r = 2 at n = 8, at n = 10 the profile peaks at r = 3 (see CHANGES.md)
LOCALITY_DECAY_FROM = {6: 2, 8: 2, 10: 3}

ADMISSIBLE_TOL = 1e-10
MATCH_RTOL = 1e-9
BOUND_RTOL = 1e-9
SIM_RTOL = 1e-6  # conjectured envelope, as in criterion 3
BETA_ABS_BITS = 0.01


@dataclass(frozen=True)
class Mix:
    """How much of each operation one round holds, and which kinds of
    operation draw their inputs from the seed (``main``: round r of a run
    uses ``default_rng([seed, r])``).  The other kinds are fixed probes with
    the same inputs in every round of every run, so that their metrics move
    with the program and the host only."""

    small_batches: int  # 60 pairs each, dims 2 and 8
    large_batches: int  # 6 pairs each, one per (dim, p) at dims 32 and 128
    cells: dict  # dim -> (restarts, iters); one cell per p in P_ASCENT
    cell_sets: int
    state_searches: int
    state_budget: tuple
    windows: tuple  # chain size of each path window; the largest reports path_point_s, locality_s
    main: tuple


# probe cells run at dim 2 only, where this budget already reaches ratio ~0.95
PROBE_CELLS = {2: (2, 10)}
WORKLOADS = {
    "certify": Mix(8, 3, PROBE_CELLS, 3, 3, (1, 300), (8, 8), main=("small", "large")),
    "ascent": Mix(
        4, 3, {2: (3, 40), 4: (2, 10), 8: (1, 3)}, 1, 3, (2, 300), (8, 8, 8), main=("cells", "states")
    ),
    "chain": Mix(12, 5, PROBE_CELLS, 5, 6, (1, 300), (8, 10), main=("windows",)),
}
KINDS = ("small", "large", "cells", "states", "windows")
PROBE_SEED = 20130423


@dataclass
class Inputs:
    small: list  # batches of (dim, p, seed)
    large: list
    cells: list  # sets of (dim, p, restarts, iters, seed)
    states: list  # seeds
    windows: list  # (n, s_center)


def make_inputs(mix: Mix, seed: int, r: int) -> Inputs:
    main = np.random.default_rng([seed, r])

    def rng(kind):
        return main if kind in mix.main else np.random.default_rng([PROBE_SEED, KINDS.index(kind)])

    g = rng("small")
    small = [
        [(d, p, int(g.integers(2**62))) for _ in range(SMALL_PER_COMBO) for d in SMALL_DIMS for p in P_CERTIFY]
        for _ in range(mix.small_batches)
    ]
    g = rng("large")
    large = [
        [(d, p, int(g.integers(2**62))) for d in LARGE_DIMS for p in P_CERTIFY]
        for _ in range(mix.large_batches)
    ]
    g = rng("cells")
    cells = [
        [(d, p, R, I, int(g.integers(2**62))) for d, (R, I) in mix.cells.items() for p in P_ASCENT]
        for _ in range(mix.cell_sets)
    ]
    g = rng("states")
    states = [int(g.integers(2**62)) for _ in range(mix.state_searches)]
    g = rng("windows")
    windows = [(n, round(float(g.uniform(0.1, 0.9)), 6)) for n in mix.windows]
    return Inputs(small, large, cells, states, windows)


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0  # operations that raised or failed a check
    bad_checks: int = 0
    busy: float = 0.0  # seconds inside operations
    problems: list = field(default_factory=list)
    # samples at the reference host speed (see reference_s)
    small_rates: list = field(default_factory=list)  # pairs/s per batch
    large_rates: list = field(default_factory=list)
    cell_set_s: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    state_s: list = field(default_factory=list)
    point_s: list = field(default_factory=list)  # (n, seconds per path point)
    locality_s: list = field(default_factory=list)  # (n, seconds)
    speeds: list = field(default_factory=list)  # REFERENCE_S / reference_s()
    wall: float = 0.0


class _Untraced:
    def op(self, name, label):
        return _Clock()


class _Clock:
    def __enter__(self):
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter_ns()
        return False

    @property
    def dur(self):
        return (self.end - self.start) * 1e-9


# ---------------------------------------------------------------------------
# host speed.  Other tenants of a shared host slow every kind of work here by
# up to 2x for seconds at a time.  A fixed numpy kernel that does not touch
# entlab, timed right before and after each sample, tracks that; samples are
# reported at the speed where the kernel takes REFERENCE_S (its median on the
# 2-core host the figures in README.md come from).

REFERENCE_S = 0.0023
SCALE_MAX_S = 2.0


def _hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


_rng = np.random.default_rng(PROBE_SEED)
_REF8, _REF64 = _hermitian(_rng, 8), _hermitian(_rng, 64)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """Seconds of a sample at reference speed, from the host speed read just
    before and just after it.  A sample longer than SCALE_MAX_S outlasts the
    swings two readings can see (scaling the n = 10 chain calls this way
    widened their run-to-run spread), so it stays as measured."""
    if seconds >= SCALE_MAX_S:
        return seconds
    return seconds * 0.5 * (before + after)


def reference_s() -> float:
    """Seconds for the reference kernel: small eigendecompositions and
    products driven from Python, plus one 64-wide eigh."""
    t0 = time.perf_counter()
    for _ in range(30):
        w, v = np.linalg.eigh(_REF8)
        float(np.trace((v * w) @ v.conj().T).real)
    np.linalg.eigh(_REF64)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# operations: each is one closed-loop call sequence into entlab


def _certify(dim, p, seed):
    pair = search.sample_admissible_pair(dim, p, seed)
    lam, H = rates.maximize_over_hamiltonian(pair)
    P = HermitianOperator(0.5 * (np.eye(dim) - H.mat))
    return pair, lam, H, rates.proof_decomposition(pair, P)


def _cell(dim, p, restarts, iters, seed):
    return search.maximize_lambda_over_pairs(dim, p, search.TrialBudget(restarts, iters), seed)


def _state(seed, budget):
    return search.maximize_rate_over_states(
        (1, 2, 2, 1), HermitianOperator(ZZ), search.TrialBudget(*budget), seed
    )


def _spec(n, s):
    h = WINDOW_HALF_WIDTH
    return chains.ChainPathSpec(
        n_sites=n, cut=n // 2, J=CHAIN_J, g=CHAIN_G, s_grid=(s - h, s, s + h)
    )


def _path(n, s):
    return chains.entropy_along_path(_spec(n, s))


def _locality(n, s):
    spec = _spec(n, s)
    center = n // 2
    return chains.locality_profile(chains.centered_generator_term(spec, s, center), spec, center)


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is right


def _close(a, b, rtol, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _matrix(obj) -> np.ndarray:
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


def check_certify(dim, p, out) -> list[str]:
    pair, lam, H, rep = out
    X, Y = pair.X.mat, pair.Y.mat
    bad = []
    if oracles.admissibility_defect(X, Y, p) > ADMISSIBLE_TOL:
        bad.append("sampled pair not admissible")
    C = oracles.commutator_matrix(X, Y)
    ref = oracles.trace_norm(C)
    if not _close(lam, ref, MATCH_RTOL, 1e-15):
        bad.append(f"lambda_max {lam!r} != independent {ref!r}")
    if oracles.operator_norm(H.mat) > 1.0 + 1e-12:
        bad.append("argmax H has norm above 1")
    if not _close(float((-np.trace(H.mat @ C)).real), ref, MATCH_RTOL, 1e-15):
        bad.append("argmax H does not attain lambda_max")
    bound = oracles.proved_lambda_bound(p)
    slack = BOUND_RTOL * bound
    if lam > bound + slack:
        bad.append(f"lambda_max {lam!r} above 9 p ln(1/p) = {bound!r}")
    if not _close(rep.total_bound, bound, 1e-12):
        bad.append("decomposition total bound is not 9 p ln(1/p)")
    if not _close(rep.direct_lambda, ref, MATCH_RTOL, 1e-15):
        bad.append("decomposition direct value != lambda_max")
    if abs(rep.reassembled_total - rep.direct_lambda) > 1e-9:
        bad.append("rearrangement identity fails")
    line3 = sum(v for v, _ in rep.line3_brackets)
    if (
        any(v > b + slack for v, b in rep.line1_brackets)
        or line3 > p * np.log(1 / p) + slack
        or rep.separated_sum[0] > 4 * p * np.log(1 / p) + slack
    ):
        bad.append("a bracket exceeds its bound")
    return bad


def check_cell(dim, p, rec) -> list[str]:
    X, Y = _matrix(rec.argmax["X"]), _matrix(rec.argmax["Y"])
    bad = []
    if oracles.admissibility_defect(X, Y, p) > ADMISSIBLE_TOL:
        bad.append("argmax pair not admissible")
    ref = oracles.lambda_max(X, Y)
    if not _close(rec.best_value, ref, MATCH_RTOL, 1e-15):
        bad.append(f"best_value {rec.best_value!r} != independent {ref!r}")
    if not _close(rec.ratio, rec.best_value / oracles.binary_entropy(p), 1e-12):
        bad.append("ratio is not best_value / binary entropy")
    if rec.ratio > 1.0 + SIM_RTOL:
        bad.append(f"ratio {rec.ratio!r} above the binary-entropy envelope")
    if p <= np.exp(-2.0) and rec.best_value > oracles.proved_lambda_bound(p) * (1 + BOUND_RTOL):
        bad.append("best_value above 9 p ln(1/p)")
    return bad


def check_state(rec) -> list[str]:
    ref = oracles.two_qubit_rate(_matrix(rec.argmax), ZZ)
    bad = []
    if not _close(rec.best_value, ref, MATCH_RTOL, 1e-15):
        bad.append(f"rate {rec.best_value!r} != independent {ref!r}")
    bits = ref / np.log(2.0)
    if abs(bits - oracles.BETA_BITS) > BETA_ABS_BITS:
        bad.append(f"best rate {bits:.5f} bits misses 1.9123 +- 0.01")
    if rec.best_value > oracles.BETA_BITS * np.log(2.0) * (1 + BOUND_RTOL):
        bad.append("rate above beta ln 2 ||H||")
    return bad


def check_path(n, points) -> list[str]:
    bad = []
    for pt in points:
        e0, gap, S, rate = oracles.tfim_path_point(n, n // 2, CHAIN_J, CHAIN_G, pt.s)
        if not _close(pt.ground_energy, e0, 1e-10):
            bad.append(f"E0 {pt.ground_energy!r} != free-fermion {e0!r} at s={pt.s}")
        if not _close(pt.gap, gap, 1e-9):
            bad.append(f"gap {pt.gap!r} != free-fermion {gap!r} at s={pt.s}")
        if not _close(pt.entropy_left, S, 0.0, 1e-9):
            bad.append(f"S_L {pt.entropy_left!r} != free-fermion {S!r} at s={pt.s}")
        if not _close(pt.rate_commutator, rate, 1e-6, 1e-8):
            bad.append(f"dS/ds {pt.rate_commutator!r} != free-fermion {rate!r} at s={pt.s}")
    return bad


def check_locality(n, prof) -> list[str]:
    st = np.asarray(prof.strengths)
    if not np.all(np.isfinite(st)) or np.any(st < 0):
        return ["shell strengths not finite and non-negative"]
    r0 = LOCALITY_DECAY_FROM[n]
    if np.any(np.diff(st[r0:]) >= 0):
        return [f"shell strengths do not fall beyond r={r0}: {st.tolist()}"]
    return []


# ---------------------------------------------------------------------------


def warm_up() -> None:
    """One small call of every operation and check, so that lazy imports
    and first-call costs land in set-up, not in the first timed round."""
    reference_s()
    for dim in (2, 32):
        check_certify(dim, 0.05, _certify(dim, 0.05, 0))
    check_cell(2, 0.2, _cell(2, 0.2, 1, 1, 0))
    rec = _state(0, (1, 1))
    oracles.two_qubit_rate(_matrix(rec.argmax), ZZ)
    check_path(6, _path(6, 0.5))
    check_locality(6, _locality(6, 0.5))


def run_round(mix: Mix, inp: Inputs, tracer=None) -> RoundResult:
    """Run one round; ``tracer`` (a tracing.Tracer) wraps every operation in a
    root span, otherwise the operations are only clocked."""
    clock = tracer or _Untraced()
    res = RoundResult()
    t_round = time.perf_counter()

    def attempt(name, label, fn, *args):
        res.attempted += 1
        with clock.op(name, label) as sp:
            try:
                out = fn(*args)
            except Exception as exc:  # a program error fails this operation only
                out = exc
        res.busy += sp.dur
        if isinstance(out, Exception):
            res.failed += 1
            res.problems.append(f"{name} {label}: {type(out).__name__}: {out}")
            return None, sp.dur
        return out, sp.dur

    def verify(name, label, problems):
        if problems:
            res.failed += 1
            res.bad_checks += 1
            res.problems.extend(f"{name} {label}: {msg}" for msg in problems)

    def host_speed():
        speed = REFERENCE_S / reference_s()
        res.speeds.append(speed)
        return speed

    def timed(name, label, fn, *args):
        """attempt() between two host-speed readings; the seconds come back
        at reference speed."""
        before = host_speed()
        out, dt = attempt(name, label, fn, *args)
        return out, at_reference_speed(dt, before, host_speed())

    def certify_batch(batch, rates):
        outs, busy = [], 0.0
        before = host_speed()
        for dim, p, seed in batch:
            out, dt = attempt("bench.pair", f"d{dim}", _certify, dim, p, seed)
            outs.append(out)
            busy += dt
        rates.append(len(batch) / at_reference_speed(busy, before, host_speed()))
        for (dim, p, _), out in zip(batch, outs):
            if out is not None:
                verify("bench.pair", f"d{dim}", check_certify(dim, p, out))

    def cell_set(cells):
        busy = 0.0
        for dim, p, R, I, seed in cells:
            rec, dt = timed("bench.cell", f"d{dim}", _cell, dim, p, R, I, seed)
            busy += dt
            if rec is not None:
                res.ratios.append(rec.best_value / oracles.binary_entropy(p))
                verify("bench.cell", f"d{dim}", check_cell(dim, p, rec))
        res.cell_set_s.append(busy)

    def state(seed):
        rec, dt = timed("bench.state", "q2", _state, seed, mix.state_budget)
        res.state_s.append(dt)
        if rec is not None:
            verify("bench.state", "q2", check_state(rec))

    def window(n, s):
        points, dt = timed("bench.path", f"n{n}", _path, n, s)
        res.point_s.append((n, dt / 3))
        if points is not None:
            verify("bench.path", f"n{n}", check_path(n, points))
        prof, dt = timed("bench.locality", f"n{n}", _locality, n, s)
        res.locality_s.append((n, dt))
        if prof is not None:
            verify("bench.locality", f"n{n}", check_locality(n, prof))

    # spread every kind of task evenly over the round, so that each metric
    # samples the whole run rather than one stretch of it
    kinds = [
        [(certify_batch, (b, res.small_rates)) for b in inp.small],
        [(certify_batch, (b, res.large_rates)) for b in inp.large],
        [(cell_set, (c,)) for c in inp.cells],
        [(state, (seed,)) for seed in inp.states],
        [(window, w) for w in inp.windows],
    ]
    order = sorted(
        ((i + 0.5) / len(tasks), k, i) for k, tasks in enumerate(kinds) for i in range(len(tasks))
    )
    for _, k, i in order:
        fn, args = kinds[k][i]
        fn(*args)

    res.wall = time.perf_counter() - t_round
    return res
