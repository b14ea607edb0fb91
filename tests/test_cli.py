import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sensorplace import NonconvergenceError
from sensorplace.cli import ConfigError, build_runspec, main, parse_config


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TINY_LIDAR = """
problem = lidar
n_d = 8
n_r = 4
n_x = 6
n_t = 2
node_constant = 4
epsilon = 1e-4
"""

# the oracle stops at its own fixed epsilon and refuses a config that
# sets another, so its LIDAR runs leave TINY_LIDAR's epsilon out
TINY_LIDAR_ORACLE = TINY_LIDAR.replace("epsilon = 1e-4\n", "")

TINY_ANALYTIC = """
problem = gauss
n = 30
alpha = 1.0
node_constant = 3
budget_fraction = 0.2
"""


class TestParseConfig:
    def test_key_values_and_comments(self, tmp_path):
        path = write_config(tmp_path, "a = 1\n# comment\nb = two # trailing\n\n")
        assert parse_config(path) == {"a": "1", "b": "two"}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.cfg")

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "just a line\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_runspec({"no_such_key": "1"}, {})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            build_runspec({"n": "many"}, {})

    def test_lidar_keys_for_analytic_problem_rejected(self):
        with pytest.raises(ConfigError):
            build_runspec({"problem": "gauss", "n_d": "8"}, {})


class TestDesignCommand:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path, TINY_LIDAR)
        out = tmp_path / "out"
        assert main(["--command", "design", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "design.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "angle", "w_rel", "w_int"]
        assert len(rows) == 9
        w_int = np.array([float(r[3]) for r in rows[1:]])
        assert set(np.unique(w_int)) <= {0.0, 1.0}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["command"] == "design"
        assert summary["status"] == "ok"
        for key in ("config", "metrics", "timings"):
            assert key in summary
        # SUR budget drift
        w_rel = np.array([float(r[2]) for r in rows[1:]])
        assert abs(w_int.sum() - w_rel.sum()) <= 0.5 + 1e-9

    def test_non_converged_sqp_is_reported(self, tmp_path):
        # At TINY_LIDAR's node constant 4 the surrogate gives every sector
        # the same gradient, so the uniform start is already optimal; at 8
        # one SQP iteration cannot finish
        extra = "node_constant = 8\nmax_outer = 1\nepsilon = 1e-12\n"
        cfg = write_config(tmp_path, TINY_LIDAR + extra)
        out = tmp_path / "short"
        assert main(["--command", "design", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["sqp_status"] == "max_outer"
        assert summary["status"] == "not_converged"

    def test_dense_guard_counts_rows(self, tmp_path, monkeypatch):
        import sensorplace.cli as cli_module
        import sensorplace.lidar as lidar_module

        def no_dense_f(*args, **kwargs):
            raise AssertionError("dense F built although its rows exceed the guard")

        # TINY_LIDAR's F is 64 x 36: its columns pass a guard of 40, its rows do not.
        monkeypatch.setattr(lidar_module, "exact_factor", no_dense_f)
        monkeypatch.setattr(cli_module, "DENSE_MAX_N", 40)
        cfg = write_config(tmp_path, TINY_LIDAR)
        out = tmp_path / "guard"
        assert main(["--command", "design", "--config", cfg, "--out", str(out)]) == 0
        metrics = json.loads((out / "summary.json").read_text())["metrics"]
        assert not any(key.startswith("objective_dense_") for key in metrics)

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_config(tmp_path, TINY_ANALYTIC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--command", "design", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["--command", "design", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "design.csv").read_bytes() == (out2 / "design.csv").read_bytes()


class TestOracleCommand:
    def test_small_problem(self, tmp_path):
        cfg = write_config(tmp_path, TINY_ANALYTIC)
        out = tmp_path / "oracle"
        assert main(["--command", "oracle", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "objective_dense_relaxed" in summary["metrics"]

    def test_cap_refusal(self, tmp_path, monkeypatch):
        import sensorplace.cli as cli_module

        def no_dense_f(*args, **kwargs):
            raise AssertionError("dense F built before the cap check")

        # The cap is checked on the surrogate's shape, before any dense F.
        monkeypatch.setattr(cli_module, "dense_kernel_matrix", no_dense_f)
        monkeypatch.setattr(cli_module, "ORACLE_MAX_N", 10)
        cfg = write_config(tmp_path, TINY_ANALYTIC)
        out = tmp_path / "x"
        assert main(["--command", "oracle", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()

    def test_lidar_oracle_rows_are_sectors(self, tmp_path):
        cfg = write_config(tmp_path, TINY_LIDAR_ORACLE)
        out = tmp_path / "lidar"
        assert main(["--command", "oracle", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "oracle.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "angle", "w_rel", "w_int"]
        # one row per sector, n_d = 8, at the sector centres 2 pi (k + 1/2) / n_d
        angles = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_allclose(angles, 2 * np.pi * (np.arange(8) + 0.5) / 8)


class TestGapSweep:
    def test_rows_and_columns(self, tmp_path):
        cfg = write_config(tmp_path, TINY_ANALYTIC)
        out = tmp_path / "sweep"
        code = main([
            "--command", "gap-sweep", "--config", cfg,
            "--sizes", "16,32", "--constants", "2,3", "--out", str(out),
        ])
        assert code == 0
        with open(out / "gap_sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "c", "gap_surrogate", "gap_dense", "time_seconds", "status"]
        assert len(rows) == 5
        assert all(r[-1] == "ok" for r in rows[1:])

    # TINY_LIDAR at size 4 has a 32 x 16 F, at size 6 a 72 x 36 one
    @pytest.mark.parametrize("max_n, filled", [(None, [True, True]), (40, [True, False])])
    def test_lidar_sweep_gap_dense(self, tmp_path, monkeypatch, max_n, filled):
        import sensorplace.cli as cli_module

        if max_n is not None:
            monkeypatch.setattr(cli_module, "DENSE_MAX_N", max_n)
        cfg = write_config(tmp_path, TINY_LIDAR)
        out = tmp_path / "sweep"
        assert main(["--command", "gap-sweep", "--config", cfg,
                     "--sizes", "4,6", "--out", str(out)]) == 0
        with open(out / "gap_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["4", "6"]
        assert all(r["status"] == "ok" for r in rows)
        assert [r["gap_dense"] != "" for r in rows] == filled

    def test_gap_dense_is_designs_dense_difference(self, tmp_path):
        # without sizes or constants the sweep's one cell is the design's
        # problem, and both commands take the dense figures one way
        cfg = write_config(tmp_path, TINY_ANALYTIC)
        sweep, design = tmp_path / "sweep", tmp_path / "design"
        assert main(["--command", "gap-sweep", "--config", cfg, "--out", str(sweep)]) == 0
        assert main(["--command", "design", "--config", cfg, "--out", str(design)]) == 0
        with open(sweep / "gap_sweep.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        metrics = json.loads((design / "summary.json").read_text())["metrics"]
        expected = metrics["objective_dense_binary"] - metrics["objective_dense_relaxed"]
        assert float(row["gap_dense"]) == expected

    def test_lidar_sweep_without_sizes_rejected(self, tmp_path, monkeypatch):
        import sensorplace.cli as cli_module

        def no_assemble(*args, **kwargs):
            raise AssertionError("lidar sweep assembled a problem without sizes")

        # without sizes an analytic sweep runs at n; a lidar one has no size
        monkeypatch.setattr(cli_module, "_assemble", no_assemble)
        cfg = write_config(tmp_path, TINY_LIDAR)
        assert main(["--command", "gap-sweep", "--config", cfg, "--out", str(tmp_path / "z")]) == 2

    def test_descending_sizes_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TINY_ANALYTIC)
        code = main([
            "--command", "gap-sweep", "--config", cfg,
            "--sizes", "32,16", "--out", str(tmp_path / "y"),
        ])
        assert code == 2


class TestLidarSanity:
    def test_reconstruction_errors(self, tmp_path):
        cfg = write_config(tmp_path, TINY_LIDAR)
        out = tmp_path / "sanity"
        assert main(["--command", "lidar-sanity", "--config", cfg,
                     "--sizes", "1,2,3", "--out", str(out)]) == 0
        with open(out / "sanity.csv", newline="") as fh:
            rows = {int(r[0]): float(r[1]) for r in list(csv.reader(fh))[1:]}
        assert rows[1] == pytest.approx(1.0)
        assert rows[2] < 1e-8
        assert rows[3] < 1e-8


# Config and extra flags for one small run of each command.
COMMAND_RUNS = {
    "design": (TINY_ANALYTIC, []),
    "oracle": (TINY_ANALYTIC, []),
    "gap-sweep": (TINY_ANALYTIC, ["--sizes", "16"]),
    "lidar-sanity": (TINY_LIDAR, ["--sizes", "1,2"]),
}


class TestSummaryTimings:
    @pytest.mark.parametrize("command", list(COMMAND_RUNS))
    def test_wall_seconds_positive(self, tmp_path, command):
        config, extra = COMMAND_RUNS[command]
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        assert main(["--command", command, "--config", cfg, "--out", str(out), *extra]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["timings"]["wall_seconds"] > 0.0


# TINY_ANALYTIC's design block; "out" is filled in per run
ANALYTIC_CONFIG = {"command": "design", "problem": "gauss", "criterion": "A",
                   "node_constant": 3.0, "out": None, "n": 30, "budget_fraction": 0.2,
                   "alpha": 1.0, "sigma2_noise": 1.0, "epsilon": 1e-3, "max_outer": 200}


class TestSummaryConfig:
    """summary.json's config block: the run's fields in declaration order,
    then the lidar config's other fields, unset and empty fields left out."""

    @staticmethod
    def config_block(tmp_path, text, *flags):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), *flags]) == 0
        return json.loads((out / "summary.json").read_text())["config"], str(out)

    def test_lidar_design(self, tmp_path):
        config, out = self.config_block(tmp_path, TINY_LIDAR, "--command", "design")
        expected = {"command": "design", "problem": "lidar", "criterion": "A",
                    "node_constant": 4.0, "out": out, "alpha": 0.01, "sigma2_noise": 1.0,
                    "epsilon": 1e-4, "max_outer": 200, "c1": 0.1, "c2": 0.0, "mu": 1.0,
                    "horizon": 1.0, "n_t": 2, "p": 3, "n_d": 8, "n_r": 4, "n_x": 6, "r": 0.2}
        assert list(config.items()) == list(expected.items())

    def test_analytic_design(self, tmp_path):
        config, out = self.config_block(tmp_path, TINY_ANALYTIC, "--command", "design")
        assert list(config.items()) == list({**ANALYTIC_CONFIG, "out": out}.items())

    def test_gap_sweep_lists(self, tmp_path):
        config, out = self.config_block(tmp_path, TINY_ANALYTIC, "--command", "gap-sweep",
                                        "--sizes", "16 32", "--constants", "2,3")
        expected = {**ANALYTIC_CONFIG, "command": "gap-sweep", "out": out,
                    "sizes": [16, 32], "constants": [2.0, 3.0]}
        assert list(config.items()) == list(expected.items())

    # neither config sets epsilon: the oracle records its own, not the default 1e-3
    @pytest.mark.parametrize("text", [TINY_LIDAR_ORACLE, TINY_ANALYTIC], ids=["lidar", "analytic"])
    def test_oracle_records_its_epsilon(self, tmp_path, text):
        config, _ = self.config_block(tmp_path, text, "--command", "oracle")
        assert config["epsilon"] == 1e-8


def run_outputs(out):
    """A run's CSV tables (gap-sweep without time_seconds) and metrics."""
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if path.name == "gap_sweep.csv":
            rows = [row[:4] + row[5:] for row in rows]
        tables[path.name] = rows
    return tables, json.loads((out / "summary.json").read_text())["metrics"]


def config_lines(config):
    """A config block written back as a config file, ``out`` dropped."""
    return "".join(f"{key} = {','.join(map(str, value)) if isinstance(value, list) else value}\n"
                   for key, value in config.items() if key != "out")


class TestConfigRoundTrip:
    """Each run's config block, written back as a config file, reruns it."""

    RUNS = {
        "design-lidar": ("design", TINY_LIDAR, []),
        "design-analytic": ("design", TINY_ANALYTIC, []),
        "oracle-lidar": ("oracle", TINY_LIDAR_ORACLE, []),
        "oracle-analytic": ("oracle", TINY_ANALYTIC, []),
        "sweep-analytic": ("gap-sweep", TINY_ANALYTIC, ["--sizes", "16,32", "--constants", "2,3"]),
        "sweep-lidar": ("gap-sweep", TINY_LIDAR, ["--sizes", "4,6"]),
        "sanity": ("lidar-sanity", TINY_LIDAR, ["--sizes", "1,2,3"]),
    }

    @pytest.mark.parametrize("command, text, flags", list(RUNS.values()), ids=list(RUNS))
    def test_rerun_from_config_block(self, tmp_path, command, text, flags):
        first = tmp_path / "first"
        cfg = write_config(tmp_path, text)
        assert main(["--command", command, "--config", cfg, "--out", str(first), *flags]) == 0
        pairs = json.loads((first / "summary.json").read_text(),
                           object_pairs_hook=lambda items: items)
        config_pairs = dict(pairs)["config"]
        keys = [key for key, _ in config_pairs]
        assert len(keys) == len(set(keys)) and "lidar" not in keys
        if "n_d" in keys:
            assert not {"n", "budget_fraction"} & set(keys)
        again = tmp_path / "again"
        cfg = write_config(tmp_path, config_lines(dict(config_pairs)), name="again.cfg")
        assert main(["--config", cfg, "--out", str(again)]) == 0
        assert run_outputs(again) == run_outputs(first)


def test_module_entry_point(tmp_path):
    """``python -m sensorplace`` runs the CLI through ``__main__``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "entry"
    done = subprocess.run(
        [sys.executable, "-m", "sensorplace", "--command", "lidar-sanity",
         "--sizes", "1,2", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "lidar-sanity" and summary["status"] == "ok"
    assert set(summary["metrics"]) == {"1", "2"}


class TestExitCodes:
    def test_invalid_config_is_2(self, tmp_path):
        assert main(["--command", "design", "--config", "/missing.cfg"]) == 2

    def test_lidar_key_r_for_analytic_problem_is_2(self, tmp_path):
        cfg = write_config(tmp_path, TINY_ANALYTIC + "r = 0.3\n")
        out = tmp_path / "r"
        assert main(["--command", "design", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()

    # the dense limits are constants of the module, not configuration
    @pytest.mark.parametrize("line", ["oracle_cap = 10", "gap_dense_max_n = 40"])
    def test_dense_limit_key_is_2(self, tmp_path, line):
        cfg = write_config(tmp_path, TINY_ANALYTIC + line + "\n")
        out = tmp_path / "limit"
        assert main(["--command", "oracle", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()

    # the oracle's epsilon is fixed at cli.ORACLE_EPSILON, which the message names
    @pytest.mark.parametrize("line", ["epsilon = 0.5", "epsilon = 1e-4"])
    def test_oracle_epsilon_is_2(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, TINY_LIDAR_ORACLE + line + "\n")
        out = tmp_path / "eps"
        assert main(["--command", "oracle", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()
        assert "epsilon = 1e-08" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["n = 500", "budget_fraction = 0.9"])
    def test_analytic_key_for_lidar_problem_is_2(self, tmp_path, line):
        cfg = write_config(tmp_path, TINY_LIDAR + line + "\n")
        out = tmp_path / "n"
        assert main(["--command", "design", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("command", ["design", "oracle", "gap-sweep"])
    @pytest.mark.parametrize("line", ["n = 0", "n = -3"])
    def test_analytic_size_below_one_is_2(self, tmp_path, command, line):
        cfg = write_config(tmp_path, TINY_ANALYTIC + line + "\n")
        out = tmp_path / "small"
        assert main(["--command", command, "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()

    # nan passes a plain `x <= 0` rejection test
    @pytest.mark.parametrize("base, line", [
        (TINY_ANALYTIC, "alpha = nan"),
        (TINY_ANALYTIC, "epsilon = nan"),
        (TINY_ANALYTIC, "sigma2_noise = inf"),
        (TINY_ANALYTIC, "budget_fraction = nan"),
        (TINY_ANALYTIC, "node_constant = nan"),
        (TINY_ANALYTIC, "max_outer = 0"),
        (TINY_LIDAR, "mu = nan"),
    ])
    def test_non_finite_setting_is_2(self, tmp_path, base, line):
        cfg = write_config(tmp_path, base + line + "\n")
        out = tmp_path / "bad"
        assert main(["--command", "design", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()

    # list entries follow their scalar keys: node_constant's rule for each
    # constant, a positive integer for each size
    @pytest.mark.parametrize("line, flags", [
        ("constants = nan", []),
        ("", ["--constants", "inf"]),
        ("", ["--constants=-3"]),
        ("sizes = 16, many", []),
        ("", ["--sizes", "0"]),
        ("", ["--sizes", "16.5"]),
    ])
    def test_bad_list_entry_is_2(self, tmp_path, line, flags):
        cfg = write_config(tmp_path, TINY_ANALYTIC + line + "\n")
        out = tmp_path / "bad"
        argv = ["--command", "gap-sweep", "--config", cfg, "--out", str(out), *flags]
        assert main(argv) == 2
        assert not (out / "summary.json").exists()

    def test_solver_failure_is_3(self, tmp_path, monkeypatch):
        import sensorplace.cli as cli_module

        def explode(*args, **kwargs):
            raise NonconvergenceError("forced failure", {"mu": 1.0})

        monkeypatch.setattr(cli_module, "solve_relaxed", explode)
        cfg = write_config(tmp_path, TINY_ANALYTIC)
        out = tmp_path / "fail"
        assert main(["--command", "design", "--config", cfg, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "error"
