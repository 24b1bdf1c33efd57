"""Command-line front end.

Subcommands wrap the engines one-to-one and emit CSV/JSON reports.  Every
report embeds the config hash, seed, artifact version and tolerances, and
re-running a command with the same config and seed reproduces the output
byte for byte (worker count included: parallel cells are seeded per cell and
aggregated in grid order).

``sim-scan`` reads all of its parameters, the seed included (default 0),
from its config file and takes no ``--seed``.

Exit codes: 0 success; 1 input error, including a chain path whose gap
closes and a sampler that exhausts its trial budget (one line on stderr);
2 proved-bound violation, failed transport identity or other failed theory
identity (a bug — reproduction bundle written); 3 conjectured-bound
violation (a scientific event; the bundle lists the records that exceed the
envelope).  The searches check every record against its proved bound;
``lambda-max`` and ``rate`` check their value after writing the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .operators import TOLERANCES, HermitianOperator, input_keys, input_number, input_numbers, operator_norm
from .rates import (
    AdmissiblePair,
    BipartiteState,
    P_SIE_MAX,
    NumericalConsistencyError,
    entanglement_rate,
    maximize_over_hamiltonian,
    proof_decomposition,
    sie_lambda_bound,
    sie_rate_bound,
    sim_bound,
)
from .search import (
    GeneratorFailure,
    ProvedBoundViolation,
    TrialBudget,
    check_lambda_bound,
    check_rate_bound,
    conjecture_scan,
    maximize_rate_over_states,
    sample_admissible_pair,
    scan_rows,
)
from .chains import (
    ChainPathSpec,
    GapCollapseError,
    TransportConsistencyError,
    centered_generator_term,
    entropy_along_path,
    locality_profile,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROVED_VIOLATION = 2
EXIT_CONJECTURE_VIOLATION = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _header_lines(config: dict, seed: int) -> list[str]:
    return [
        f"# entlab {__version__}",
        f"# config_hash={_config_hash(config)}",
        f"# seed={seed}",
        "# tolerances " + " ".join(f"{k}={v:.1e}" for k, (v, _) in TOLERANCES.items()),
        "# blas_threads " + " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_THREAD_VARS),
    ]


def _write_report(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_bundle(out: str | None, bundle: dict) -> str:
    path = (out or "entlab-report") + ".falsification.json"
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
    return path


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_bounds(args) -> int:
    config = {"cmd": "bounds", "d": args.d, "hnorm": args.hnorm, "p": args.p}
    lines = _header_lines(config, args.seed)
    lines.append(f"sie_rate_bound {_fmt(sie_rate_bound(args.d, args.hnorm))}")
    if args.p is not None:
        lines.append(f"sim_bound {_fmt(sim_bound(args.p))}")
        if args.p <= P_SIE_MAX:
            lines.append(f"sie_lambda_bound {_fmt(sie_lambda_bound(args.p))}")
    _write_report(args.out, lines)
    return EXIT_OK


def _cmd_rate(args) -> int:
    config = {"cmd": "rate", "state": _load_json(args.state), "ham": _load_json(args.ham)}
    state = BipartiteState.from_json(config["state"])
    H = HermitianOperator.from_json(config["ham"])
    rate = entanglement_rate(state, H)
    lines = _header_lines(config, args.seed)
    lines.append(f"rate {_fmt(rate)}")
    _write_report(args.out, lines)
    inputs = {"state": state.to_json(), "ham": H.to_json()}
    check_rate_bound(rate, min(state.dims[1:3]), operator_norm(H), {"value": rate, "input": inputs})
    return EXIT_OK


def _cmd_lambda_max(args) -> int:
    if args.pair is not None:
        config = {"cmd": "lambda-max", "pair": _load_json(args.pair)}
        pair = AdmissiblePair.from_json(config["pair"])
    else:
        if args.dim is None or args.p is None:
            raise SystemExit("lambda-max needs --pair or both --dim and --p")
        pair = sample_admissible_pair(args.dim, args.p, args.seed)
        config = {"cmd": "lambda-max", "dim": args.dim, "p": args.p}
    lam, H_opt = maximize_over_hamiltonian(pair)
    lines = _header_lines(config, args.seed)
    lines.append(f"lambda_max {_fmt(lam)}")
    lines.append("H_opt " + json.dumps(H_opt.to_json(), sort_keys=True))
    _write_report(args.out, lines)
    check_lambda_bound(lam, pair.p, {"value": lam, "input": {**config, "pair": pair.to_json()}})
    return EXIT_OK


def _cmd_proof_audit(args) -> int:
    if input_number("trials", args.trials, integer=True) < 1:
        raise ValueError(f"trials = {args.trials} must be >= 1")
    config = {
        "cmd": "proof-audit",
        "dim": args.dim,
        "p": args.p,
        "trials": args.trials,
    }
    lines = _header_lines(config, args.seed)
    lines.append("trial,direct,total_bound,min_margin,bounds_hold")
    worst = None
    for t in range(args.trials):
        pair = sample_admissible_pair(args.dim, args.p, [args.seed, t])
        _, H_opt = maximize_over_hamiltonian(pair)
        P = HermitianOperator._built(0.5 * (np.eye(pair.dim) - H_opt.mat))
        rep = proof_decomposition(pair, P)
        ok = rep.all_bounds_hold()
        min_margin = float(np.min(rep.margins))
        lines.append(
            f"{t},{_fmt(rep.direct_lambda)},{_fmt(rep.total_bound)},"
            f"{_fmt(min_margin)},{int(ok)}"
        )
        if not ok and worst is None:
            worst = {"trial": t, "report": rep.to_json(), "pair": pair.to_json()}
    _write_report(args.out, lines)
    if worst is not None:
        path = _write_bundle(args.out, worst)
        sys.stderr.write(f"proved bound violated; bundle at {path}\n")
        return EXIT_PROVED_VIOLATION
    return EXIT_OK


def _cmd_sim_scan(args) -> int:
    if args.workers < 1:
        raise ValueError(f"workers = {args.workers} must be >= 1")
    cfg = _load_json(args.config) if args.config else {}
    input_keys("sim-scan config", cfg, ("dims", "p_grid", "restarts", "iters", "seed"))
    dims = input_numbers("dims", cfg.get("dims", [2]), least=1, integer=True)
    p_grid = input_numbers("p_grid", cfg.get("p_grid", []), least=1)
    count = lambda name, default: input_number(name, cfg.get(name, default), integer=True)
    budget = TrialBudget(restarts=count("restarts", 20), iters=count("iters", 100))
    seed = count("seed", 0)
    config = {
        "cmd": "sim-scan",
        "dims": list(dims),
        "p_grid": list(p_grid),
        "restarts": budget.restarts,
        "iters": budget.iters,
        "seed": seed,
    }
    records, events = conjecture_scan(dims, p_grid, budget, seed, workers=args.workers)
    lines = _header_lines(config, seed)
    columns = ("dim", "p", "best", "sim_bound", "sie_bound", "ratio_sim", "ratio_sie", "seed", "trials")
    lines.append(",".join(columns))
    for row in scan_rows(records):
        lines.append(",".join(_fmt(row[k]) for k in columns))
    _write_report(args.out, lines)
    if events:
        path = _write_bundle(args.out, {"events": [rec.to_json() for rec in events]})
        sys.stderr.write(
            f"{len(events)} conjectured-bound violation(s); bundle at {path}\n"
        )
        return EXIT_CONJECTURE_VIOLATION
    return EXIT_OK


def _cmd_beta_search(args) -> int:
    dims = tuple(int(x) for x in args.dims.split(","))
    if args.ham:
        ham_json = _load_json(args.ham)
        H = HermitianOperator.from_json(ham_json)
    else:
        ham_json = None
        sz = np.diag([1.0, -1.0])
        H = HermitianOperator._built(np.kron(sz, sz))
    budget = TrialBudget(restarts=args.restarts, iters=args.iters)
    rec = maximize_rate_over_states(dims, H, budget, args.seed)
    config = {
        "cmd": "beta-search",
        "dims": list(dims),
        "ham": ham_json,
        "restarts": args.restarts,
        "iters": args.iters,
    }
    lines = _header_lines(config, args.seed)
    lines.append(f"best_rate_nats {_fmt(rec.best_value)}")
    lines.append(f"best_rate_bits {_fmt(rec.best_value / np.log(2.0))}")
    lines.append(f"bound_nats {_fmt(rec.bound_value)}")
    lines.append(f"ratio {_fmt(rec.ratio)}")
    lines.append(f"trials {rec.trials}")
    lines.append(f"restarts {rec.restarts_used}")
    _write_report(args.out, lines)
    return EXIT_OK


def _cmd_adiabatic(args) -> int:
    path_json = _load_json(args.path)
    spec = ChainPathSpec.from_json(path_json)
    try:
        points = entropy_along_path(spec)
    except TransportConsistencyError as exc:
        path = _write_bundle(args.out, {"path": path_json, **exc.bundle})
        sys.stderr.write(f"{exc}; bundle at {path}\n")
        return EXIT_PROVED_VIOLATION
    config = {"cmd": "adiabatic", "path": path_json}
    lines = _header_lines(config, args.seed)
    lines.append("s,E0,gap,S_L,dS_ds_comm,dS_ds_fd,K_norm")
    for pt in points:
        lines.append(
            ",".join(
                _fmt(x)
                for x in (
                    pt.s,
                    pt.ground_energy,
                    pt.gap,
                    pt.entropy_left,
                    pt.rate_commutator,
                    pt.rate_finite_difference,
                    pt.K_norm,
                )
            )
        )
    _write_report(args.out, lines)
    return EXIT_OK


def _cmd_locality(args) -> int:
    path_json = _load_json(args.path)
    spec = ChainPathSpec.from_json(path_json)
    center = args.center if args.center is not None else spec.n_sites // 2
    k_c = centered_generator_term(spec, args.s, center)
    prof = locality_profile(k_c, spec, center)
    config = {"cmd": "locality", "path": path_json, "s": args.s, "center": center}
    lines = _header_lines(config, args.seed)
    lines.append("r,strength")
    for r, st in zip(prof.radii, prof.strengths):
        lines.append(f"{int(r)},{_fmt(float(st))}")
    _write_report(args.out, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entlab",
        description="Entanglement-rate bounds: functionals, searches, audits, spin-chain paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("bounds", help="evaluate the closed-form bound functions")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--hnorm", type=float, default=1.0)
    p.add_argument("--p", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("rate", help="entanglement rate of a state under H_AB")
    p.add_argument("--state", type=str, required=True)
    p.add_argument("--ham", type=str, required=True)
    common(p)
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("lambda-max", help="closed-form maximum over Hamiltonians")
    p.add_argument("--pair", type=str, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    common(p)
    p.set_defaults(func=_cmd_lambda_max)

    p = sub.add_parser("proof-audit", help="per-bracket decomposition audit")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_proof_audit)

    p = sub.add_parser("sim-scan", help="scan best functional value vs the envelopes")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", type=str, default=None)  # the seed is the config's
    p.set_defaults(func=_cmd_sim_scan)

    p = sub.add_parser("beta-search", help="maximize the rate over pure states")
    p.add_argument("--dims", type=str, default="1,2,2,1")
    p.add_argument("--ham", type=str, default=None)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--iters", type=int, default=300)
    common(p)
    p.set_defaults(func=_cmd_beta_search)

    p = sub.add_parser("adiabatic", help="entropy and rates along a chain path")
    p.add_argument("--path", type=str, required=True)
    common(p)
    p.set_defaults(func=_cmd_adiabatic)

    p = sub.add_parser("locality", help="shell strengths of the transport generator")
    p.add_argument("--path", type=str, required=True)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--center", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_locality)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ProvedBoundViolation, NumericalConsistencyError) as exc:
        # a run is deterministic, so its arguments reproduce a failed identity
        rerun = {k: v for k, v in vars(args).items() if k != "func"}
        bundle = getattr(exc, "bundle", {"arguments": rerun, "error": str(exc)})
        path = _write_bundle(args.out, bundle)
        sys.stderr.write(f"{exc}; bundle at {path}\n")
        return EXIT_PROVED_VIOLATION
    except (
        OSError, ValueError, KeyError, json.JSONDecodeError, SystemExit, GapCollapseError,
        GeneratorFailure,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
