#!/usr/bin/env python3
"""Benchmark for entlab.  Run from the root of the repository:

    python3 entbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, ascent, chain (see workloads.py and README.md).  The run
repeats whole rounds of its workload in one process, one call after another,
for about ``--seconds`` seconds, checks every output against the independent
solutions in oracles.py, and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and the metrics.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` replays each round with spans around
the calls into entlab's layers and gives the per-layer metrics, and writes
the spans to .entbench/trace-<workload>-seed<seed>.json.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in the setup probes
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SRC = os.path.abspath("src")
OUT_DIR = ".entbench"
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "small_pairs_per_s": "pairs/s",
    "large_pairs_per_s": "pairs/s",
    "pair_search_s": "s",
    "state_search_s": "s",
    "best_ratio": "1",
    "path_point_s": "s",
    "locality_s": "s",
}
# per-layer metrics every workload emits; the trace file holds the rest
PER_LAYER = (
    [f"{m}.d{d}" for m in ("operators.hermitian_us", "operators.log_on_support_us",
                           "rates.admissible_pair_us", "rates.max_over_h_us",
                           "rates.proof_decomposition_us", "search.sample_pair_us")
     for d in (2, 8, 32, 128)]
    + ["operators.partial_trace_us.n8", "rates.entanglement_rate_us.q2"]
    + ["search.pair_cell_s.d2", "search.pair_eval_us.d2", "search.pair_evals.d2"]
    + ["search.state_trials", "search.state_eval_us"]
    + [f"chains.{m}_s.n8" for m in ("build", "hprime", "ground_state", "generator",
                                    "path_point", "centered_term", "locality_profile")]
    + ["linalg.eig_calls_per_pair", "linalg.eig_calls_per_eval",
       "linalg.eig_calls_per_point.n8", "linalg.eig_n3_per_point.n8", "linalg.busy_frac",
       "trace.overhead_frac"]
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "ascent", "chain"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args):
    """Imports, the first round's inputs and a warm-up: everything a run does
    before its first timed call."""
    sys.path.insert(0, SRC)
    import entlab

    if not os.path.abspath(entlab.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"entlab imported from {entlab.__file__}, not {SRC}")
    import workloads

    mix = workloads.WORKLOADS[args.workload]
    first = workloads.make_inputs(mix, args.seed, 0)
    workloads.warm_up()
    return workloads, mix, first


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter to the point where a run
    would make its first timed call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code})")
    return elapsed


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "entlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    rev = None
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        rev = got.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def samples(rounds, mix, setup_times) -> dict:
    """Every timed sample of the run, by end-to-end metric."""
    n = max(mix.windows)
    return {
        "setup_s": setup_times,
        "small_pairs_per_s": [x for rd in rounds for x in rd.small_rates],
        "large_pairs_per_s": [x for rd in rounds for x in rd.large_rates],
        "pair_search_s": [x for rd in rounds for x in rd.cell_set_s],
        "state_search_s": [x for rd in rounds for x in rd.state_s],
        "path_point_s": [t for rd in rounds for m, t in rd.point_s if m == n],
        "locality_s": [t for rd in rounds for m, t in rd.locality_s if m == n],
    }


def end_to_end(rounds, sampled) -> dict:
    values = {name: statistics.median(xs) for name, xs in sampled.items()}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # round 0's inputs depend on the seed alone, so this is exact per seed
    values["best_ratio"] = statistics.fmean(rounds[0].ratios)
    return {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entlab", "__init__.py")):
        print("entbench: no entlab sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args)
        print("ready", flush=True)
        return 0

    setup_times = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workloads, mix, inputs = setup(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds, traced_rounds, first_round_spans = [], [], None
    t0 = time.perf_counter()
    r = 0
    while True:
        plain = workloads.run_round(mix, inputs)
        rounds.append(plain)
        spent = plain.wall
        if tracer is not None:  # replay the same inputs with spans on
            tracer.install()
            try:
                traced_rounds.append(workloads.run_round(mix, inputs, tracer))
            finally:
                tracer.uninstall()
            if first_round_spans is None:
                first_round_spans = len(tracer.spans)
            spent += traced_rounds[-1].wall
        r += 1
        if time.perf_counter() - t0 + spent > args.seconds:
            break
        inputs = workloads.make_inputs(mix, args.seed, r)

    all_rounds = rounds + traced_rounds
    attempted = sum(rd.attempted for rd in all_rounds)
    failed = sum(rd.failed for rd in all_rounds)
    bad_checks = sum(rd.bad_checks for rd in all_rounds)
    problems = [msg for rd in all_rounds for msg in rd.problems]
    for msg in problems[:20]:
        print(f"entbench: {msg}", file=sys.stderr)

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    if tracer is None:
        sampled = samples(rounds, mix, setup_times)
        print("# samples " + json.dumps(sampled))
        metrics = end_to_end(rounds, sampled)
        shown = metrics
    else:
        shown = tracing.layer_metrics(tracer.spans, first_round_spans)
        overhead = [t.busy - p.busy for p, t in zip(rounds, traced_rounds)]
        shown["trace.overhead_frac"] = (
            statistics.median(overhead) / statistics.median([p.busy for p in rounds]), "1")
        missing = [m for m in PER_LAYER if m not in shown]
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {missing}")
        metrics = {m: shown[m] for m in PER_LAYER}
        self_s = tracing.self_times(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({
                "workload": args.workload, "seed": args.seed, "env": env,
                "rounds": len(traced_rounds),
                "traced_wall_s": [t.wall for t in traced_rounds],
                "untraced_wall_s": [p.wall for p in rounds],
                "overhead_s": overhead,
                "self_s": self_s,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(shown.items())},
                "span_fields": ["name", "label", "start_ns", "end_ns", "parent"],
                "spans": tracing.dump(tracer.spans),
            }, fh)
        print(f"# spans written to {path}")
        for layer, secs in sorted(self_s.items()):
            print(f"# self time {layer:30s} {secs:16.6g} s")
    for name, (value, unit) in sorted(shown.items()):
        print(f"# {name:40s} {value:16.6g} {unit}")
    speeds = [x for rd in all_rounds for x in rd.speeds]
    print(f"# host speed {statistics.median(speeds):.3f} of reference "
          f"(range {min(speeds):.3f}-{max(speeds):.3f}, {len(speeds)} readings)")
    print(f"# rounds {len(rounds)}  attempted {attempted}  failed {failed}")
    print(json.dumps({
        "correct": bad_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
