"""Spans around calls into entlab's layers, recorded from outside the program.

``Tracer.install`` replaces every public function of entlab's four layers
(in every entlab module that imported it by name), the ``__post_init__``
validators of ``HermitianOperator`` and ``AdmissiblePair`` and the
``numpy.linalg`` functions entlab calls with wrappers that record a span:
name, size label, start, end and parent.
``Tracer.uninstall`` puts the originals back, so untraced rounds run the
program untouched.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("operators", "rates", "search", "chains")
LINALG_FUNCS = ("eigh", "eigvalsh", "qr")  # every numpy.linalg eigensolver and factorisation entlab calls


def _n_of(mat) -> str:
    return f"n{int(np.shape(mat)[0]).bit_length() - 1}"


def _size_label(args) -> str:
    a = args[0] if args else None
    if hasattr(a, "n_sites"):
        return f"n{a.n_sites}"
    if hasattr(a, "dim"):
        return f"d{a.dim}"
    if isinstance(a, (int, np.integer)):
        return f"d{a}"
    if isinstance(a, np.ndarray) and a.ndim == 2:
        return f"d{a.shape[0]}"
    return "-"


# Every public function of each layer (its ``__all__``) gets a span named
# "<layer>.<function>" labelled by _size_label; these get a shorter name, a
# size label of their own or a count taken from the result.
# (layer, attribute) -> (span name, size label from the arguments, count from the result)
_NAMED = {
    ("operators", "HermitianOperator.__post_init__"): ("operators.hermitian", lambda a: f"d{np.shape(a[0].mat)[0]}", None),
    ("operators", "matrix_log_on_support"): ("operators.log_on_support", _size_label, None),
    ("operators", "partial_trace_matrix"): ("operators.partial_trace", lambda a: _n_of(a[0]), None),
    ("rates", "AdmissiblePair.__post_init__"): ("rates.admissible_pair", _size_label, None),
    ("rates", "maximize_over_hamiltonian"): ("rates.max_over_h", _size_label, None),
    ("rates", "proof_decomposition"): ("rates.proof_decomposition", _size_label, None),
    ("rates", "entanglement_rate"): ("rates.entanglement_rate", lambda a: f"q{len(a[0].dims) - a[0].dims.count(1)}", None),
    ("search", "sample_admissible_pair"): ("search.sample_pair", _size_label, None),
    ("search", "maximize_lambda_over_pairs"): ("search.pair_cell", _size_label, lambda r: r.trials),
    ("search", "maximize_rate_over_states"): ("search.state_search", lambda a: "q2", lambda r: r.trials),
    ("chains", "build_chain_hamiltonian"): ("chains.build", _size_label, None),
    ("chains", "chain_hprime"): ("chains.hprime", _size_label, None),
    ("chains", "ground_state"): ("chains.ground_state", lambda a: _n_of(a[0].mat), None),
    ("chains", "adiabatic_generator"): ("chains.generator", lambda a: _n_of(a[0].mat), None),
    ("chains", "entropy_along_path"): ("chains.path", _size_label, len),
    ("chains", "centered_generator_term"): ("chains.centered_term", _size_label, None),
    ("chains", "locality_profile"): ("chains.locality_profile", lambda a: f"n{a[1].n_sites}", None),
}


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "root", "count")

    def __init__(self, name, label, parent, root):
        self.name, self.label, self.parent, self.root = name, label, parent, root
        self.start = self.end = 0
        self.count = None

    @property
    def dur(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name, label) -> Span:
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]] if self._stack else None
        sp = Span(name, label, parent, root)
        if root is None:
            sp.root = sp
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter_ns()
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter_ns()
        self._stack.pop()

    def op(self, name: str, label: str):
        """Context manager for one benchmark operation (a root span)."""
        tracer = self

        class _Op:
            def __enter__(self):
                self.sp = tracer._open(name, label)
                return self.sp

            def __exit__(self, *exc):
                tracer._close(self.sp)
                return False

        return _Op()

    def _wrap(self, fn, name, label_of, count_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:  # outside a benchmark operation
                return fn(*args, **kwargs)
            sp = tracer._open(name, label_of(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sp)
            if count_of is not None:
                sp.count = count_of(out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k.startswith("entlab.")]
        for layer in LAYERS:
            mod = sys.modules[f"entlab.{layer}"]
            for attr in mod.__all__:
                orig = getattr(mod, attr)
                if not (inspect.isfunction(orig) and orig.__module__ == mod.__name__):
                    continue
                name, label_of, count_of = _NAMED.get((layer, attr), (f"{layer}.{attr}", _size_label, None))
                wrapped = self._wrap(orig, name, label_of, count_of)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._patch(m, k, wrapped)
        for (layer, attr), (name, label_of, count_of) in _NAMED.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[f"entlab.{layer}"], cls_name)
                self._patch(cls, meth, self._wrap(getattr(cls, meth), name, label_of, count_of))
        for f in LINALG_FUNCS:
            label = (lambda a: f"d{np.shape(a[0])[0]}")
            self._patch(np.linalg, f, self._wrap(getattr(np.linalg, f), f"linalg.{f}", label, None))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds of each layer's own work: span durations minus the part their
    direct children cover, summed by layer (the name before the first dot)."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child[sp.parent] += sp.dur
    out: dict[str, float] = defaultdict(float)
    for i, sp in enumerate(spans):
        out[sp.name.split(".")[0]] += sp.dur - child[i]
    return dict(out)


def dump(spans: list[Span]) -> list[list]:
    """Compact rows [name, label, start_ns, end_ns, parent] for the trace file."""
    t0 = spans[0].start if spans else 0
    return [[s.name, s.label, s.start - t0, s.end - t0, s.parent] for s in spans]


def _median(xs):
    return float(np.median(xs))


# spans whose median duration per call is a per-layer metric
PER_CALL_US = {
    "operators.hermitian", "operators.log_on_support", "operators.partial_trace",
    "rates.admissible_pair", "rates.max_over_h", "rates.proof_decomposition",
    "rates.entanglement_rate", "search.sample_pair",
}
PER_CALL_S = {
    "search.pair_cell", "chains.build", "chains.hprime", "chains.ground_state",
    "chains.generator", "chains.centered_term", "chains.locality_profile",
}


def layer_metrics(spans: list[Span], first_round: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of the traced rounds.

    Times are medians over every traced round; counts come from the spans
    of the first traced round (``spans[:first_round]``), whose inputs depend
    only on the seed, so they repeat exactly from run to run.
    """
    first = set(map(id, spans[:first_round]))
    by_key: dict[tuple[str, str], list[Span]] = defaultdict(list)
    for sp in spans:
        by_key[(sp.name, sp.label)].append(sp)
    out: dict[str, tuple[float, str]] = {}

    for (name, label), group in by_key.items():
        if name in PER_CALL_US:
            out[f"{name}_us.{label}"] = (_median([s.dur for s in group]) * 1e6, "us")
        if name in PER_CALL_S:
            out[f"{name}_s.{label}"] = (_median([s.dur for s in group]), "s")
        if name == "search.pair_cell":
            evals = sum(s.count for s in group)
            out[f"search.pair_eval_us.{label}"] = (sum(s.dur for s in group) / evals * 1e6, "us")
            out[f"search.pair_evals.{label}"] = (sum(s.count for s in group if id(s) in first), "count")
        if name == "search.state_search":
            trials = sum(s.count for s in group)
            out["search.state_eval_us"] = (sum(s.dur for s in group) / trials * 1e6, "us")
            out["search.state_trials"] = (sum(s.count for s in group if id(s) in first), "count")
        if name == "chains.path":
            points = sum(s.count for s in group)
            out[f"chains.path_point_s.{label}"] = (sum(s.dur for s in group) / points, "s")

    # numpy.linalg calls under the first round's operations
    eig = defaultdict(int)  # root span id -> linalg calls
    eig_big = defaultdict(int)  # root span id -> linalg calls at 2^n for path roots
    n3 = defaultdict(float)
    linalg_busy = 0.0
    for sp in spans:
        if not sp.name.startswith("linalg."):
            continue
        linalg_busy += sp.dur
        if id(sp) not in first:
            continue
        root = sp.root
        d = int(sp.label[1:])
        eig[id(root)] += 1
        n3[id(root)] += float(d) ** 3
        if root.name == "bench.path" and d == 2 ** int(root.label[1:]):
            eig_big[id(root)] += 1
    roots = [sp for sp in spans[:first_round] if sp.parent == -1]
    pairs8 = [r for r in roots if r.name == "bench.pair" and r.label == "d8"]
    out["linalg.eig_calls_per_pair"] = (sum(eig[id(r)] for r in pairs8) / len(pairs8), "count")
    cells = [r for r in roots if r.name == "bench.cell"]
    cell_evals = sum(
        s.count for s in spans[:first_round] if s.name == "search.pair_cell"
    )
    out["linalg.eig_calls_per_eval"] = (sum(eig[id(r)] for r in cells) / cell_evals, "count")
    for label in sorted({r.label for r in roots if r.name == "bench.path"}):
        paths = [r for r in roots if r.name == "bench.path" and r.label == label]
        points = sum(
            s.count for s in spans[:first_round] if s.name == "chains.path" and s.root in paths
        )
        out[f"linalg.eig_calls_per_point.{label}"] = (sum(eig_big[id(r)] for r in paths) / points, "count")
        out[f"linalg.eig_n3_per_point.{label}"] = (sum(n3[id(r)] for r in paths) / points, "count")
    op_time = sum(sp.dur for sp in spans if sp.parent == -1)
    out["linalg.busy_frac"] = (linalg_busy / op_time, "1")
    return out
