import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entlab
from entlab import chains, cli, search
from entlab.cli import (
    EXIT_CONJECTURE_VIOLATION,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PROVED_VIOLATION,
    _config_hash,
    main,
)
from entlab.operators import TOLERANCES, HermitianOperator
from entlab.rates import (
    AdmissiblePair,
    NumericalConsistencyError,
    maximize_over_hamiltonian,
    entanglement_rate,
    sie_rate_bound,
    sim_bound,
)
from entlab.search import sample_bipartite_state


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def body(lines):
    return [l for l in lines if not l.startswith("#")]


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


@pytest.fixture
def chain_path_file(tmp_path):
    return write_json(
        tmp_path / "path.json",
        {
            "n_sites": 4,
            "cut": 2,
            "J": [1.0],
            "g": [1.5, 1.0],
            "s_grid": list(np.linspace(0.0, 1.0, 21)),
        },
    )


class TestHeaders:
    def test_report_header(self, tmp_path):
        out = str(tmp_path / "r.txt")
        assert main(["bounds", "--d", "3", "--out", out]) == EXIT_OK
        lines = read_lines(out)
        assert lines[0].startswith("# entlab ")
        assert lines[1].startswith("# config_hash=")
        assert lines[2] == "# seed=0"
        assert lines[3].startswith("# tolerances ")
        # one line, name=value for every entry of the tolerance table
        printed = dict(field.split("=") for field in lines[3].split()[2:])
        assert printed.keys() == TOLERANCES.keys()
        for name, (value, _) in TOLERANCES.items():
            assert float(printed[name]) == value
        assert lines[4].startswith("# blas_threads ")

    def test_config_hash_stable(self):
        a = _config_hash({"x": 1, "y": [2, 3]})
        b = _config_hash({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 16
        assert a != _config_hash({"x": 2, "y": [2, 3]})


BLAS_UNSET = {k: v for k, v in os.environ.items() if k not in entlab.BLAS_THREAD_VARS}


def console_header(env):
    """The blas_threads header line of ``python -m entlab bounds`` run in a
    fresh interpreter with environment ``env``."""
    src = str(Path(entlab.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join([src, env.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-m", "entlab", "bounds", "--d", "3"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return next(line for line in out.splitlines() if line.startswith("# blas_threads "))


class TestBlasThreads:
    def test_console_sets_one_thread_when_unset(self):
        assert console_header(BLAS_UNSET) == (
            "# blas_threads OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1"
        )

    def test_console_keeps_a_set_value(self):
        assert console_header({**BLAS_UNSET, "OPENBLAS_NUM_THREADS": "2"}) == (
            "# blas_threads OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1"
        )

    def test_library_call_sets_nothing(self, tmp_path, monkeypatch):
        for var in entlab.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        out = str(tmp_path / "r.txt")
        assert main(["bounds", "--d", "3", "--out", out]) == EXIT_OK
        assert read_lines(out)[4] == (
            "# blas_threads OPENBLAS_NUM_THREADS=unset OMP_NUM_THREADS=unset MKL_NUM_THREADS=unset"
        )
        assert not any(var in os.environ for var in entlab.BLAS_THREAD_VARS)


class TestBounds:
    def test_values(self, tmp_path):
        out = str(tmp_path / "b.txt")
        assert main(["bounds", "--d", "3", "--p", "0.1", "--out", out]) == EXIT_OK
        vals = dict(l.split() for l in body(read_lines(out)))
        assert float(vals["sie_rate_bound"]) == pytest.approx(sie_rate_bound(3, 1.0))
        assert float(vals["sim_bound"]) == pytest.approx(sim_bound(0.1))
        assert float(vals["sie_lambda_bound"]) == pytest.approx(
            9 * 0.1 * np.log(10.0)
        )

    def test_no_sie_line_out_of_regime(self, tmp_path):
        out = str(tmp_path / "b.txt")
        main(["bounds", "--d", "2", "--p", "0.3", "--out", out])
        assert not any("sie_lambda" in l for l in read_lines(out))


class TestRate:
    def test_matches_library(self, tmp_path):
        state = sample_bipartite_state((1, 2, 2, 1), 3)
        sz = np.diag([1.0, -1.0])
        H = HermitianOperator(np.kron(sz, sz))
        sf = write_json(tmp_path / "state.json", state.to_json())
        hf = write_json(tmp_path / "ham.json", H.to_json())
        out = str(tmp_path / "r.txt")
        assert main(["rate", "--state", sf, "--ham", hf, "--out", out]) == EXIT_OK
        (line,) = body(read_lines(out))
        assert float(line.split()[1]) == pytest.approx(
            entanglement_rate(state, H), abs=1e-12
        )

    def test_proved_bound_violation_exits_2_after_the_report(self, tmp_path, monkeypatch, capsys):
        # the check (search.check_rate_bound) reads search.sie_rate_bound; a
        # zero bound leaves only the slack 1e-9 ||H||, which the rate of this
        # state exceeds
        monkeypatch.setattr(search, "sie_rate_bound", lambda d, h_norm: 0.0)
        state = sample_bipartite_state((1, 2, 2, 1), 3)
        H = HermitianOperator(np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])))
        sf = write_json(tmp_path / "state.json", state.to_json())
        hf = write_json(tmp_path / "ham.json", H.to_json())
        out = str(tmp_path / "r.txt")
        assert main(["rate", "--state", sf, "--ham", hf, "--out", out]) == EXIT_PROVED_VIOLATION
        assert "18 ||H|| ln min(d_A, d_B)" in capsys.readouterr().err
        (line,) = body(read_lines(out))
        with open(out + ".falsification.json") as fh:
            bundle = json.load(fh)
        assert bundle["value"] == float(line.split()[1]) == entanglement_rate(state, H)
        assert bundle["bound"] == 0.0
        assert bundle["input"] == {"state": state.to_json(), "ham": H.to_json()}

    def test_trivial_factor_rate_is_zero(self, tmp_path):
        # at d_A = 1 rho_aA is pure: the rate is 0 up to rounding, within the
        # slack of its bound 0
        state = sample_bipartite_state((1, 1, 2, 1), 3)
        sf = write_json(tmp_path / "state.json", state.to_json())
        hf = write_json(tmp_path / "ham.json", HermitianOperator(np.diag([1.0, -1.0])).to_json())
        out = str(tmp_path / "r.txt")
        assert main(["rate", "--state", sf, "--ham", hf, "--out", out]) == EXIT_OK
        (line,) = body(read_lines(out))
        assert abs(float(line.split()[1])) <= 1e-15


class TestLambdaMax:
    def test_sampled_pair(self, tmp_path):
        out = str(tmp_path / "l.txt")
        rc = main(
            ["lambda-max", "--dim", "3", "--p", "0.1", "--seed", "4", "--out", out]
        )
        assert rc == EXIT_OK
        lines = body(read_lines(out))
        assert lines[0].startswith("lambda_max ")
        assert float(lines[0].split()[1]) > 0
        blob = json.loads(lines[1][len("H_opt "):])
        H = HermitianOperator.from_json(blob)
        assert np.abs(np.linalg.eigvalsh(H.mat)).max() == pytest.approx(1.0)

    def test_requires_pair_or_dims(self, capsys):
        assert main(["lambda-max"]) == EXIT_INPUT

    def test_proved_bound_violation_exits_2_after_the_report(self, tmp_path, monkeypatch, capsys):
        # the check (search.check_lambda_bound) reads search.sie_lambda_bound,
        # at p <= 1/e^2 only
        monkeypatch.setattr(search, "sie_lambda_bound", lambda p: 0.0)
        out = str(tmp_path / "l.txt")
        rc = main(["lambda-max", "--dim", "3", "--p", "0.1", "--seed", "4", "--out", out])
        assert rc == EXIT_PROVED_VIOLATION
        assert "9 p ln(1/p)" in capsys.readouterr().err
        lines = body(read_lines(out))
        with open(out + ".falsification.json") as fh:
            bundle = json.load(fh)
        assert bundle["value"] == float(lines[0].split()[1]) > 0
        assert bundle["bound"] == 0.0
        assert bundle["input"]["dim"] == 3 and bundle["input"]["p"] == 0.1
        pair = AdmissiblePair.from_json(bundle["input"]["pair"])
        assert maximize_over_hamiltonian(pair)[0] == bundle["value"]
        # above 1/e^2 there is no proved bound to check
        assert main(["lambda-max", "--dim", "3", "--p", "0.3", "--out", out]) == EXIT_OK


class TestProofAudit:
    def test_all_trials_hold(self, tmp_path):
        out = str(tmp_path / "a.csv")
        rc = main(
            ["proof-audit", "--dim", "4", "--p", "0.1", "--trials", "20", "--out", out]
        )
        assert rc == EXIT_OK
        rows = body(read_lines(out))
        assert rows[0] == "trial,direct,total_bound,min_margin,bounds_hold"
        assert len(rows) == 21
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[-1] == "1"
            assert float(fields[3]) > -1e-9

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_no_trials_exits_1_with_one_line(self, tmp_path, capsys, trials):
        out = tmp_path / "a.csv"
        assert main(["proof-audit", "--dim", "4", "--p", "0.1", "--trials", trials, "--out", str(out)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: trials = {trials} must be >= 1\n"
        assert not out.exists()


class TestSimScan:
    def test_scan_report(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {"dims": [2, 3], "p_grid": [0.1, 0.3], "restarts": 2, "iters": 5, "seed": 6},
        )
        out = str(tmp_path / "s.csv")
        assert main(["sim-scan", "--config", cfg, "--out", out]) == EXIT_OK
        rows = body(read_lines(out))
        assert rows[0] == "dim,p,best,sim_bound,sie_bound,ratio_sim,ratio_sie,seed,trials"
        assert len(rows) == 5
        for row in rows[1:]:
            assert float(row.split(",")[5]) <= 1.0 + 1e-6

    def test_seed_is_the_configs(self, tmp_path, capsys):
        cfg = {"dims": [2], "p_grid": [0.1], "restarts": 1, "iters": 0}
        out = tmp_path / "s.csv"
        assert main(["sim-scan", "--config", write_json(tmp_path / "a.json", cfg), "--out", str(out)]) == EXIT_OK
        assert read_lines(out)[2] == "# seed=0"
        seeded = write_json(tmp_path / "b.json", {**cfg, "seed": 6})
        assert main(["sim-scan", "--config", seeded, "--out", str(out)]) == EXIT_OK
        assert read_lines(out)[2] == "# seed=6"
        # one source for the seed: the command line takes none
        assert main(["sim-scan", "--config", seeded, "--seed", "9"]) == EXIT_INPUT
        assert "unrecognized arguments: --seed 9" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, name",
        [(None, "p_grid"), ({"dims": [], "p_grid": [0.1]}, "dims"), ({"dims": [2], "p_grid": []}, "p_grid")],
        ids=["no-config", "empty-dims", "empty-p-grid"],
    )
    def test_no_cell_exits_1_with_one_line(self, tmp_path, capsys, cfg, name):
        # a scan of no cell would write a header-only report
        out = tmp_path / "s.csv"
        flags = [] if cfg is None else ["--config", write_json(tmp_path / "cfg.json", cfg)]
        assert main(["sim-scan", "--out", str(out)] + flags) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {name} has 0 values, needs at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["restart", "seeds", "dim"])
    def test_unknown_config_key_exits_1_with_one_line(self, tmp_path, capsys, key):
        cfg = write_json(tmp_path / "cfg.json", {"dims": [2], "p_grid": [0.1], "iters": 0, key: 2})
        assert main(["sim-scan", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: sim-scan config has unknown key '{key}'") and err.count("\n") == 1

    def test_conjectured_bound_exceeded_exits_3_with_the_records(self, tmp_path, capsys, monkeypatch):
        # below zero, every record with a positive ratio exceeds the envelope
        monkeypatch.setattr(search, "SIM_VIOLATION_RTOL", -1.0)
        cfg = {"dims": [2, 3], "p_grid": [0.1, 0.3], "restarts": 2, "iters": 2, "seed": 6}
        out = str(tmp_path / "s.csv")
        assert main(["sim-scan", "--config", write_json(tmp_path / "cfg.json", cfg), "--out", out]) == EXIT_CONJECTURE_VIOLATION
        bundle_path = out + ".falsification.json"
        assert capsys.readouterr().err == f"4 conjectured-bound violation(s); bundle at {bundle_path}\n"
        assert len(body(read_lines(out))) == 5
        with open(bundle_path) as fh:
            bundle = json.load(fh)
        records, _ = search.conjecture_scan([2, 3], [0.1, 0.3], search.TrialBudget(2, 2), 6)
        assert bundle["events"] == json.loads(json.dumps([r.to_json() for r in records]))


class TestBetaSearch:
    def test_short_run(self, tmp_path):
        out = str(tmp_path / "beta.txt")
        rc = main(
            ["beta-search", "--restarts", "1", "--iters", "20", "--out", out]
        )
        assert rc == EXIT_OK
        vals = dict(l.split() for l in body(read_lines(out)))
        nats = float(vals["best_rate_nats"])
        assert float(vals["best_rate_bits"]) == pytest.approx(nats / np.log(2.0))
        assert nats <= float(vals["bound_nats"]) * (1 + 1e-9)

    @pytest.mark.parametrize("dims", ["1,1,2,1", "1,2,1,1"])
    def test_trivial_factor_exits_1_with_one_line(self, tmp_path, capsys, dims):
        # a trivial factor has rate 0 and bound 0: no ratio to search for
        hf = write_json(tmp_path / "h2.json", HermitianOperator(np.diag([1.0, -1.0])).to_json())
        out = tmp_path / "beta.txt"
        assert main(["beta-search", "--dims", dims, "--ham", hf, "--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: d_A = ") and "needs both >= 2" in err and err.count("\n") == 1
        assert not out.exists()

    def test_config_hash_names_the_hamiltonian(self, tmp_path):
        # the default H and two --ham files: three configs, three hashes
        sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        runs = [[]] + [
            ["--ham", write_json(tmp_path / f"{name}.json", HermitianOperator(np.kron(m, m)).to_json())]
            for name, m in (("zz", sz), ("xx", sx))
        ]
        hashes = set()
        for i, flags in enumerate(runs):
            out = str(tmp_path / f"beta_{i}.txt")
            assert main(["beta-search", "--restarts", "1", "--iters", "2", "--out", out] + flags) == EXIT_OK
            hashes.add(read_lines(out)[1])
        assert len(hashes) == 3


class TestConfigHashReadsFiles:
    """A config that names an input file hashes the file's parsed contents:
    two different files written in turn to the same path give two hashes."""

    @staticmethod
    def two_hashes(tmp_path, args, path, contents):
        hashes = set()
        for i, obj in enumerate(contents):
            write_json(path, obj)
            out = str(tmp_path / f"report_{i}.txt")
            assert main(args + ["--out", out]) == EXIT_OK
            hashes.add(read_lines(out)[1])
        return hashes

    def test_rate_state_and_ham(self, tmp_path):
        sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        sf = write_json(tmp_path / "state.json", sample_bipartite_state((1, 2, 2, 1), 3).to_json())
        hf = write_json(tmp_path / "ham.json", HermitianOperator(np.kron(sz, sz)).to_json())
        args = ["rate", "--state", sf, "--ham", hf]
        states = [sample_bipartite_state((1, 2, 2, 1), seed).to_json() for seed in (3, 4)]
        assert len(self.two_hashes(tmp_path, args, sf, states)) == 2
        hams = [HermitianOperator(np.kron(m, m)).to_json() for m in (sz, sx)]
        assert len(self.two_hashes(tmp_path, args, hf, hams)) == 2

    def test_lambda_max_pair(self, tmp_path):
        pf = str(tmp_path / "pair.json")
        pairs = [search.sample_admissible_pair(3, 0.1, seed).to_json() for seed in (4, 5)]
        assert len(self.two_hashes(tmp_path, ["lambda-max", "--pair", pf], pf, pairs)) == 2

    def test_beta_search_ham(self, tmp_path):
        hf = str(tmp_path / "ham.json")
        sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        hams = [HermitianOperator(np.kron(m, m)).to_json() for m in (sz, sx)]
        args = ["beta-search", "--restarts", "1", "--iters", "2", "--ham", hf]
        assert len(self.two_hashes(tmp_path, args, hf, hams)) == 2


class TestChainCommands:
    def test_adiabatic_report(self, tmp_path, chain_path_file):
        out = str(tmp_path / "ad.csv")
        rc = main(["adiabatic", "--path", chain_path_file, "--out", out])
        assert rc == EXIT_OK
        rows = body(read_lines(out))
        assert rows[0] == "s,E0,gap,S_L,dS_ds_comm,dS_ds_fd,K_norm"
        assert len(rows) == 22
        for row in rows[1:]:
            assert float(row.split(",")[2]) > 0.5

    def test_locality_report(self, tmp_path, chain_path_file):
        out = str(tmp_path / "loc.csv")
        rc = main(["locality", "--path", chain_path_file, "--s", "0.5", "--out", out])
        assert rc == EXIT_OK
        rows = body(read_lines(out))
        assert rows[0] == "r,strength"
        assert all(float(r.split(",")[1]) >= 0 for r in rows[1:])


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["rate", "--state", "/no/such.json", "--ham", "/no/such.json"]) == EXIT_INPUT

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_bad_p(self, capsys):
        assert main(["bounds", "--d", "2", "--p", "1.5"]) == EXIT_INPUT

    def test_nan_hnorm(self, capsys):
        assert main(["bounds", "--d", "2", "--hnorm", "nan"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: H_norm = nan") and err.count("\n") == 1

    def test_nan_in_path_schedule(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"n_sites": 4, "cut": 2, "J": [1.0, float("nan")]})
        assert main(["adiabatic", "--path", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: J entry must be a finite number") and err.count("\n") == 1

    @pytest.mark.parametrize("key", ["sgrid", "cuts"])
    def test_unknown_path_key_exits_1_with_one_line(self, tmp_path, capsys, key):
        path = write_json(tmp_path / "p.json", {"n_sites": 4, "cut": 2, key: [0.0, 1.0]})
        assert main(["adiabatic", "--path", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: chain path has unknown key '{key}'") and err.count("\n") == 1

    def test_gapless_path(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"n_sites": 4, "cut": 2, "J": [1], "g": [0]})
        assert main(["adiabatic", "--path", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: gap ") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", [[0.5], []])
    def test_short_grid_exits_1_with_one_line(self, tmp_path, capsys, grid):
        path = write_json(tmp_path / "p.json", {"n_sites": 4, "cut": 2, "s_grid": grid})
        assert main(["adiabatic", "--path", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: s_grid") and err.count("\n") == 1

    def test_string_schedule_exits_1_with_one_line(self, tmp_path, capsys):
        path = write_json(tmp_path / "p.json", {"n_sites": 4, "cut": 2, "J": "15"})
        assert main(["adiabatic", "--path", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: J must be a list") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [("dims", "23"), ("dims", [2.9]), ("dims", [True]), ("p_grid", ["0.1"]), ("p_grid", 0.1),
         ("restarts", 1.8), ("iters", "5"), ("iters", False), ("seed", 2.5)],
    )
    def test_non_integer_scan_count_exits_1_with_one_line(self, tmp_path, capsys, key, value):
        cfg = {"dims": [2], "p_grid": [0.1], "restarts": 1, "iters": 0, key: value}
        assert main(["sim-scan", "--config", write_json(tmp_path / "cfg.json", cfg)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value", [("n_sites", 4.7), ("cut", 2.2), ("cut", "2"), ("n_sites", True)]
    )
    def test_non_integer_path_count_exits_1_with_one_line(self, tmp_path, capsys, key, value):
        path = write_json(tmp_path / "p.json", {"n_sites": 4, "cut": 2, key: value})
        assert main(["adiabatic", "--path", path]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be an integer") and err.count("\n") == 1

    def test_integral_floats_are_counts(self, tmp_path):
        # a number without a fractional part is read as the integer it is
        cfg = {"dims": [2.0], "p_grid": [0.1], "restarts": 2.0, "iters": 0}
        cfg = write_json(tmp_path / "c.json", cfg)
        out = str(tmp_path / "s.csv")
        assert main(["sim-scan", "--config", cfg, "--out", out]) == EXIT_OK
        assert body(read_lines(out))[1].startswith("2,0.10000000000000001,")

    def test_transport_inconsistency_bundle(self, tmp_path, chain_path_file, capsys, monkeypatch):
        monkeypatch.setattr(chains, "RATE_CHECK_ATOL", 1e-15)
        monkeypatch.setattr(chains, "RATE_CHECK_RTOL", 1e-15)
        out = str(tmp_path / "ad.csv")
        rc = main(["adiabatic", "--path", chain_path_file, "--out", out])
        assert rc == EXIT_PROVED_VIOLATION
        assert "Traceback" not in capsys.readouterr().err
        with open(out + ".falsification.json") as fh:
            bundle = json.load(fh)
        assert bundle["path"]["n_sites"] == 4
        assert 0.0 < bundle["s"] < 1.0
        assert abs(bundle["rate_commutator"] - bundle["rate_entropy"]) > bundle["tol"]


class TestFailureTaxonomy:
    def test_generator_failure_exits_1_with_one_line(self, capsys):
        # at p = 1 no rescaled contraction stays below the identity
        assert main(["lambda-max", "--dim", "2", "--p", "1.0"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: no admissible sample") and err.count("\n") == 1

    def test_numerical_consistency_error_exits_2_with_bundle(self, tmp_path, monkeypatch, capsys):
        def fail(pair):
            raise NumericalConsistencyError("lambda_functional: imaginary residue 1e-3")

        monkeypatch.setattr(cli, "maximize_over_hamiltonian", fail)
        out = str(tmp_path / "l.txt")
        rc = main(["lambda-max", "--dim", "3", "--p", "0.1", "--seed", "4", "--out", out])
        assert rc == EXIT_PROVED_VIOLATION
        err = capsys.readouterr().err
        assert "Traceback" not in err and "imaginary residue" in err
        with open(out + ".falsification.json") as fh:
            bundle = json.load(fh)
        assert bundle["arguments"]["command"] == "lambda-max"
        assert bundle["arguments"]["dim"] == 3 and bundle["arguments"]["seed"] == 4
        assert "imaginary residue" in bundle["error"]

    @pytest.mark.parametrize("flags", [["--restarts", "0"], ["--iters", "-3"]])
    def test_bad_beta_search_budget_exits_1_with_one_line(self, flags, capsys):
        assert main(["beta-search"] + flags) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flags[0][2:] in err

    def test_three_beta_search_dims_exit_1_with_one_line(self, capsys):
        assert main(["beta-search", "--dims", "1,2,2"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "error: dims must be four positive integers, got (1, 2, 2)\n"

    def test_zero_restart_scan_exits_1_with_one_line(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"dims": [2], "p_grid": [0.1], "restarts": 0})
        assert main(["sim-scan", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: restarts") and err.count("\n") == 1

    def test_workers_only_on_sim_scan(self, capsys):
        assert main(["bounds", "--d", "3", "--workers", "2"]) == EXIT_INPUT

    def test_zero_workers_exits_1_with_one_line(self, capsys):
        assert main(["sim-scan", "--workers", "0"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: workers") and err.count("\n") == 1


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path):
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        for out in (a, b):
            main(["lambda-max", "--dim", "4", "--p", "0.08", "--seed", "12", "--out", out])
        assert open(a, "rb").read() == open(b, "rb").read()
