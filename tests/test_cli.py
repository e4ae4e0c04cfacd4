import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import warnlab.cli as cli
import warnlab.lyapunov as lyapunov
import warnlab.scaling as scaling
import warnlab.spectrum as spectrum
from warnlab.cli import _build_parser, main
from warnlab.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DATA_DIR = Path(__file__).resolve().parent / "data"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def assert_matches_golden(out, name):
    """The CSVs in ``out`` are, by file name and byte for byte, the ones
    stored under ``tests/data/golden/<name>``."""
    golden = DATA_DIR / "golden" / name
    expected = sorted(path.name for path in golden.iterdir())
    assert sorted(path.name for path in out.iterdir()) == expected
    for file_name in expected:
        assert (out / file_name).read_bytes() == (golden / file_name).read_bytes()


def run(*argv):
    return main([str(a) for a in argv])


def write_json(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def minimal_spectral(**overrides):
    cfg = {
        "model": {
            "kind": "spectral",
            "curves": [{"id": 0, "kind": "affine", "slope": 1.0, "offset": 0.0}],
            "critical_index": 0,
            "noise_matrix": [[1.0]],
        },
        "sweep": {"start": -0.5, "count": 4},
        "quantities": ["critical_diagonal"],
    }
    cfg.update(overrides)
    return cfg


class TestValidate:
    @pytest.mark.parametrize("name", [
        "single_mode.json", "jordan_block.json", "single_mode_mc.json",
        "quadratic_symbol.json", "quadratic_symbol_coarse.json",
    ])
    def test_bundled_configs_are_valid(self, name, capsys):
        assert run("validate", "--config", CONFIG_DIR / name) == 0
        assert "config OK" in capsys.readouterr().out

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert run("validate", "--config", tmp_path / "nope.json") == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run("validate", "--config", path) == 2

    def test_schema_error_names_field(self, tmp_path, capsys):
        cfg = minimal_spectral()
        del cfg["model"]["curves"]
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "model.curves" in capsys.readouterr().err

    def test_bad_quantity_named_with_index(self, tmp_path, capsys):
        cfg = minimal_spectral(quantities=["critical_diagonal", "bogus"])
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "quantities[1]" in capsys.readouterr().err

    def test_quantity_model_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = minimal_spectral(quantities=["norm"])
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "quantities[0]" in capsys.readouterr().err

    def test_stable_curve_without_root_is_numerical_failure(self, tmp_path, capsys):
        cfg = minimal_spectral()
        cfg["model"]["curves"][0] = {"id": 0, "kind": "affine", "slope": 0.0, "offset": -1.0}
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_prints_mode_count_and_abscissa(self, capsys):
        assert run("validate", "--config", CONFIG_DIR / "single_mode.json") == 0
        out = capsys.readouterr().out
        assert "1 modes" in out
        assert "spectral abscissa" in out

    def test_prints_planned_monte_carlo_work(self, capsys):
        assert run("validate", "--config", CONFIG_DIR / "single_mode_mc.json") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("config OK")
        # N = 400, horizon 40 / dt 0.05 = 800 steps, 3 grid points
        assert lines[1] == ("planned work: 400 trajectories x 800 steps x 3 points = "
                            "960000 trajectory-steps")

    def test_closed_form_config_plans_no_monte_carlo_work(self, capsys):
        assert run("validate", "--config", CONFIG_DIR / "single_mode.json") == 0
        assert "planned work" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_unrunnable_step_count_is_config_error(self, command, tmp_path, capsys):
        # finite, but 1e300 steps per trajectory
        cfg = json.loads((CONFIG_DIR / "single_mode_mc.json").read_text())
        cfg["engine"]["dt"] = 1e-300
        out = tmp_path / "out"
        assert run(command, "--config", write_json(tmp_path, cfg), "--out", out) == 2
        assert "engine.horizon" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_crossing_threshold_is_config_error(self, tmp_path, capsys):
        cfg = minimal_spectral(
            sweep={"start": -0.5, "count": 4, "spacing": "linear", "stop": 0.5}
        )
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "sweep" in capsys.readouterr().err

    def test_non_hermitian_noise_is_config_error(self, tmp_path, capsys):
        cfg = minimal_spectral()
        cfg["model"]["curves"].append(
            {"id": 1, "kind": "affine", "slope": 0.0, "offset": -1.0}
        )
        cfg["model"]["noise_matrix"] = [[1.0, 1.0], [0.0, 1.0]]
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "ermitian" in capsys.readouterr().err

    def test_second_curve_inside_gap_is_config_error(self, tmp_path, capsys):
        cfg = minimal_spectral()
        cfg["model"]["curves"].append(
            {"id": 1, "kind": "affine", "slope": 1.0, "offset": 0.0}
        )
        cfg["model"]["noise_matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "spectral gap" in capsys.readouterr().err

    def test_gap_width_is_configurable(self, tmp_path, capsys):
        cfg = minimal_spectral()
        cfg["model"]["curves"].append(
            {"id": 1, "kind": "affine", "slope": 0.0, "offset": -0.5}
        )
        cfg["model"]["noise_matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 0
        capsys.readouterr()
        cfg["validation"] = {"spectral_gap": 1.0}
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "curve 1" in capsys.readouterr().err


    def test_noise_threshold_off_p_star_is_config_error(self, tmp_path, capsys):
        # lambda(p) = p - 0.5 puts p* at 0.5; the default p_star 0.0 would leave
        # sigma(p*) > 0 and turn the finite limit into a divergence
        cfg = minimal_spectral(sweep={"start": 0.0, "count": 10})
        cfg["model"]["curves"][0]["offset"] = -0.5
        cfg["model"]["sigma"] = {"kind": "power_of_p", "scale": 1.0, "exponent": 0.5}
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "model.sigma.p_star" in capsys.readouterr().err
        cfg["model"]["sigma"]["p_star"] = 0.5
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 0
        out = tmp_path / "out"
        assert run("analytic", "--config", write_json(tmp_path, cfg), "--out", out) == 0
        res = json.loads((out / "report.json").read_text())["results"]["critical_diagonal"]
        assert res["verdict"]["classification"] == "finite_limit"
        assert 0.0 <= res["fit"]["r_squared"] <= 1.0

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_sweeps_reject_noise_threshold_off_p_star(self, command, tmp_path, capsys):
        cfg = minimal_spectral(sweep={"start": 0.0, "count": 10})
        cfg["model"]["curves"][0]["offset"] = -0.5
        cfg["model"]["sigma"] = {"kind": "power_of_p", "exponent": 0.5}
        cfg["engine"] = {"kind": "empirical", "dt": 0.1, "horizon": 5.0,
                         "n_trajectories": 4, "master_seed": 1}
        out = tmp_path / "out"
        assert run(command, "--config", write_json(tmp_path, cfg), "--out", out) == 2
        assert "model.sigma.p_star" in capsys.readouterr().err
        assert not out.exists()


class TestConfigNumbers:
    @pytest.mark.parametrize("command,keys,value,dotted", [
        ("validate", ("validation", "spectral_gap"), float("nan"), "validation.spectral_gap"),
        ("validate", ("validation", "lipschitz_budget"), float("nan"),
         "validation.lipschitz_budget"),
        ("simulate", ("engine", "horizon"), float("inf"), "engine.horizon"),
        ("validate", ("model", "curves", 0, "offset"), float("nan"), "model.curves[0].offset"),
        ("validate", ("validation", "spectral_gap"), 10**400, "validation.spectral_gap"),
    ])
    def test_non_finite_number_is_config_error(self, command, keys, value, dotted,
                                               tmp_path, capsys):
        # a second curve through the threshold, which a NaN gap would let through
        cfg = minimal_spectral(validation={})
        cfg["model"]["curves"].append({"id": 1, "kind": "affine", "slope": 1.0, "offset": 0.0})
        cfg["model"]["noise_matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        cfg["engine"] = {"kind": "empirical", "dt": 0.1, "horizon": 5.0,
                         "n_trajectories": 4, "master_seed": 1}
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = write_json(tmp_path, cfg)  # json writes the literals NaN and Infinity
        assert run(command, "--config", path, "--out", tmp_path / "out") == 2
        assert f"{dotted}: expected a finite number" in capsys.readouterr().err

    def test_negative_jordan_size_without_noise_matrix(self, tmp_path, capsys):
        cfg = minimal_spectral()
        cfg["model"]["jordan_sizes"] = {"0": -1}
        del cfg["model"]["noise_matrix"]
        assert run("validate", "--config", write_json(tmp_path, cfg)) == 2
        assert "model.jordan_sizes[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("windows,dotted", [
        ({"critical_diag": "all"}, "fit_windows.critical_diag:"),
        ({"critical_diagonal": "all", " critical_diagonal": "all"},
         "fit_windows. critical_diagonal: a second window"),
    ])
    def test_fit_window_key_must_name_one_swept_quantity(self, windows, dotted,
                                                         tmp_path, capsys):
        cfg = minimal_spectral(fit_windows=windows)
        out = tmp_path / "out"
        assert run("analytic", "--config", write_json(tmp_path, cfg), "--out", out) == 2
        assert dotted in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config,key,value,dotted", [
        ("quadratic_symbol.json", "quantities", ["norm", "norm"], "quantities[1]: repeats"),
        ("jordan_block.json", "quantities", ["block_entry:1,1", "block_entry:2,2",
                                             "block_entry:1, 1"], "quantities[2]: repeats"),
        ("quadratic_symbol.json", "weyl", {"k_values": [2, 5, 2]}, "weyl.k_values[2]: repeats"),
    ])
    @pytest.mark.parametrize("command", ["validate", "analytic", "weyl"])
    def test_repeated_quantity_is_config_error(self, config, key, value, dotted, command,
                                               tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / config).read_text())
        cfg[key] = value
        out = tmp_path / "out"
        assert run(command, "--config", write_json(tmp_path, cfg), "--out", out) == 2
        assert dotted in capsys.readouterr().err
        assert not out.exists()

    def test_fit_window_key_is_canonicalized(self, tmp_path):
        cfg = json.loads((CONFIG_DIR / "jordan_block.json").read_text())
        cfg["fit_windows"] = {"block_entry:1, 1": "all"}
        out = tmp_path / "out"
        assert run("analytic", "--config", write_json(tmp_path, cfg), "--out", out) == 0
        results = json.loads((out / "report.json").read_text())["results"]
        assert len(results["block_entry:1,1"]["fit"]["window"]) == cfg["sweep"]["count"]
        assert len(results["block_entry:2,2"]["fit"]["window"]) < cfg["sweep"]["count"]


class TestPreflight:
    """Every command runs validate's checks before it sweeps."""

    def empirical(self, cfg):
        cfg["engine"] = {"kind": "empirical", "dt": 0.1, "horizon": 20.0,
                         "n_trajectories": 8, "master_seed": 1}
        return cfg

    def run_all(self, path, tmp_path, capsys):
        outcomes = {}
        for command in ("validate", "analytic", "simulate"):
            out = tmp_path / f"out_{command}"
            rc = run(command, "--config", path, "--out", out)
            outcomes[command] = (rc, capsys.readouterr().err)
            if rc != 0:
                assert not out.exists()
        return outcomes

    def test_gap_violation_fails_every_command(self, tmp_path, capsys):
        cfg = self.empirical(minimal_spectral())
        cfg["model"]["curves"].append({"id": 1, "kind": "affine", "slope": 1.0, "offset": 0.0})
        cfg["model"]["noise_matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        outcomes = self.run_all(write_json(tmp_path, cfg), tmp_path, capsys)
        rc, err = outcomes["validate"]
        assert rc == 2 and "model.curves: curve 1" in err
        assert outcomes["analytic"] == outcomes["simulate"] == (rc, err)

    def test_continuity_violation_fails_every_command(self, tmp_path, capsys):
        # slope 1 against a budget of 0.5 per unit of p: every step jumps too far
        cfg = self.empirical(minimal_spectral(validation={"lipschitz_budget": 0.5}))
        outcomes = self.run_all(write_json(tmp_path, cfg), tmp_path, capsys)
        rc, err = outcomes["validate"]
        assert rc == 3
        assert err.count("curve 0: jump") == 3
        assert "3 eigenvalue curve continuity violations" in err
        assert outcomes["analytic"] == outcomes["simulate"] == (rc, err)

    @pytest.mark.parametrize("horizon,count", [(2.0, 1), (100.0, 0)])
    def test_short_horizon_warns_once_under_every_command(self, horizon, count,
                                                          tmp_path, capsys):
        cfg = self.empirical(minimal_spectral())
        cfg["engine"]["horizon"] = horizon
        outcomes = self.run_all(write_json(tmp_path, cfg), tmp_path, capsys)
        warnings = {}
        for command, (rc, err) in outcomes.items():
            assert rc == 0
            warnings[command] = [line for line in err.splitlines() if "horizon" in line]
        assert len(warnings["validate"]) == count
        assert warnings["analytic"] == warnings["simulate"] == warnings["validate"]

    def test_unstable_grid_point_fails_every_command(self, tmp_path, capsys):
        # lambda_1(p) = -p - 0.5 clears the gap at p* = 0 but crosses the axis at p = -0.5
        cfg = self.empirical(minimal_spectral(sweep={"start": -1.0, "count": 4}))
        cfg["model"]["curves"].append({"id": 1, "kind": "affine", "slope": -1.0,
                                       "offset": -0.5})
        cfg["model"]["noise_matrix"] = [[1.0, 0.0], [0.0, 1.0]]
        outcomes = self.run_all(write_json(tmp_path, cfg), tmp_path, capsys)
        rc, err = outcomes["validate"]
        assert rc == 3 and "drift not strictly stable at p=-1.0" in err
        assert outcomes["analytic"] == outcomes["simulate"] == (rc, err)

    @pytest.mark.parametrize("field,path", [("weyl", "weyl.k_values[2]"),
                                            ("quantities", "quantities[1]")])
    def test_undersized_weyl_support_fails_every_command(self, field, path, tmp_path, capsys):
        # half-width 1/k = 1e-4 on a grid of spacing 1e-3 covers one grid point
        cfg = json.loads((CONFIG_DIR / "quadratic_symbol.json").read_text())
        if field == "weyl":
            cfg["weyl"]["k_values"] = [2, 5, 10_000]
        else:
            cfg["quantities"] = ["norm", "weyl_pairing:10000"]
        config = write_json(tmp_path, cfg)
        outcomes = {}
        for command in ("validate", "analytic", "weyl"):
            out = tmp_path / f"out_{command}"
            outcomes[command] = (run(command, "--config", config, "--out", out),
                                 capsys.readouterr().err)
            assert not out.exists()
        assert outcomes["validate"] == (
            2, f"config error: {path}: weyl vector k=10000 at center=0.0: support contains 1 "
               "grid points, need at least 3 (refine the grid or lower k)\n")
        assert outcomes["analytic"] == outcomes["weyl"] == outcomes["validate"]

    def test_power_of_p_noise_on_one_point_grid_fails_every_command(self, tmp_path, capsys):
        cfg = self.empirical(minimal_spectral(sweep={"start": -0.5, "count": 1}))
        cfg["model"]["sigma"] = {"kind": "power_of_p", "exponent": 0.5}
        outcomes = self.run_all(write_json(tmp_path, cfg), tmp_path, capsys)
        rc, err = outcomes["validate"]
        assert rc == 2 and "config error: sweep.count" in err
        assert outcomes["analytic"] == outcomes["simulate"] == (rc, err)


class TestArguments:
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_rejected(self, threads, capsys):
        with pytest.raises(SystemExit) as exc:
            run("validate", "--config", CONFIG_DIR / "single_mode.json", "--threads", threads)
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_parser_is_built_once(self, capsys):
        _build_parser.cache_clear()
        for _ in range(2):
            assert run("validate", "--config", CONFIG_DIR / "single_mode.json") == 0
        info = _build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_no_argument_leaks_into_the_next_call(self, tmp_path, capsys):
        mc = CONFIG_DIR / "single_mode_mc.json"
        assert run("simulate", "--config", mc, "--seed", 7, "--out", tmp_path / "a") == 0
        assert run("simulate", "--config", mc, "--out", tmp_path / "b") == 0
        seeds = [json.loads((tmp_path / d / "report.json").read_text())["seed_record"]
                 ["master_seed"] for d in "ab"]
        assert seeds == [7, 20260813]
        single = CONFIG_DIR / "single_mode.json"
        assert run("analytic", "--config", single, "--format", "json",
                   "--out", tmp_path / "c") == 0
        assert run("analytic", "--config", single, "--out", tmp_path / "d") == 0
        assert sorted(f.name for f in (tmp_path / "c").iterdir()) == ["report.json"]
        assert sorted(f.name for f in (tmp_path / "d").iterdir()) == [
            "report.json", "sweep_critical_diagonal.csv"]
        with pytest.raises(SystemExit) as exc:
            run("validate", "--config", single, "--threads", "0")
        assert exc.value.code == 2
        assert run("validate", "--config", single) == 0


class TestLogging:
    def test_each_call_applies_current_level_and_stderr(self, monkeypatch, capsys):
        single = CONFIG_DIR / "single_mode.json"
        monkeypatch.delenv("WARNLAB_LOG", raising=False)
        assert run("validate", "--config", single) == 0
        monkeypatch.setenv("WARNLAB_LOG", "debug")
        second = io.StringIO()
        with contextlib.redirect_stderr(second):
            assert run("validate", "--config", single) == 0
        assert "INFO warnlab: bifurcation parameter p* = 0.0\n" in second.getvalue()
        monkeypatch.setenv("WARNLAB_LOG", "error")
        assert run("validate", "--config", single) == 0
        assert capsys.readouterr().err == ""


class TestShell:
    def test_module_runs_from_the_shell(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "WARNLAB_LOG"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR),
                                                          env.get("PYTHONPATH")]))

        def shell(config, **extra_env):
            return subprocess.run(
                [sys.executable, "-m", "warnlab.cli", "validate", "--config", str(config)],
                env={**env, **extra_env}, capture_output=True, text=True, timeout=300)

        ok = shell(CONFIG_DIR / "single_mode.json")
        assert (ok.returncode, ok.stderr) == (0, "")
        assert ok.stdout.startswith("config OK")
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        bad = shell(broken)
        assert bad.returncode == 2
        assert bad.stderr.startswith("config error")
        debug = shell(CONFIG_DIR / "jordan_block.json", WARNLAB_LOG="debug")
        assert debug.returncode == 0
        assert "INFO warnlab: bifurcation parameter p* = " in debug.stderr


class TestAnalyticCommand:
    def test_single_mode_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("analytic", "--config", CONFIG_DIR / "single_mode.json", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "diverging" in stdout
        csv_path = out / "sweep_critical_diagonal.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "p,quantity,value,stderr,provenance"
        assert len(lines) == 11
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["command"] == "analytic"
        assert report["p_star"] == 0.0
        fit = report["results"]["critical_diagonal"]["fit"]
        assert abs(fit["exponent"] + 1.0) < 1e-10
        assert report["results"]["critical_diagonal"]["verdict"]["classification"] == "diverging"
        assert "config_echo" in report and "timing" in report
        # only simulate reports flag mixing
        assert "mixing_warning" not in report

    def test_jordan_block_run(self, tmp_path):
        out = tmp_path / "out"
        assert run("analytic", "--config", CONFIG_DIR / "jordan_block.json", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        exps = sorted(
            report["results"][q]["fit"]["exponent"]
            for q in ("block_entry:1,1", "block_entry:1,2", "block_entry:2,2")
        )
        assert abs(exps[0] + 3.0) < 0.05
        assert abs(exps[1] + 2.0) < 0.05
        assert abs(exps[2] + 1.0) < 0.05
        # colon/comma are sanitized out of filenames
        assert (out / "sweep_block_entry_1_1.csv").exists()

    def test_overflowing_closed_form_is_numerical_failure(self, tmp_path, capsys):
        # |p - p*|^{-3} overflows a double once the grid comes within 2^-342 of p*
        cfg = json.loads((CONFIG_DIR / "jordan_block.json").read_text())
        cfg["sweep"]["count"] = 400
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("analytic", "--config", write_json(tmp_path, cfg), "--out", out) == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("numerical failure: sweep failed at p=")
        assert "block_entry:1,1 evaluates to inf" in err
        assert not out.exists()

    # jordan_dense_noise sweeps non-dyadic p under complex dense noise, so
    # its values are inexact and pin the kernel's last-bit rounding; the
    # quadratic_symbol ones pin the multiplication model's norm and Gaussian
    # pairing summed over the whole grid
    GOLDEN_CONFIGS = {
        "single_mode": CONFIG_DIR / "single_mode.json",
        "jordan_block": CONFIG_DIR / "jordan_block.json",
        "jordan_dense_noise": DATA_DIR / "jordan_dense_noise.json",
        "quadratic_symbol": CONFIG_DIR / "quadratic_symbol.json",
        "quadratic_symbol_coarse": CONFIG_DIR / "quadratic_symbol_coarse.json",
    }

    @pytest.mark.parametrize("name", list(GOLDEN_CONFIGS))
    def test_csv_bytes_match_golden(self, name, tmp_path):
        out = tmp_path / "out"
        assert run("analytic", "--config", self.GOLDEN_CONFIGS[name], "--out", out,
                   "--format", "csv") == 0
        assert_matches_golden(out, name)

    def test_format_csv_only(self, tmp_path):
        out = tmp_path / "out"
        assert run("analytic", "--config", CONFIG_DIR / "single_mode.json",
                   "--out", out, "--format", "csv") == 0
        assert (out / "sweep_critical_diagonal.csv").exists()
        assert not (out / "report.json").exists()


class TestOutputFiles:
    def test_stale_longer_outputs_are_fully_replaced(self, tmp_path, capsys):
        config = CONFIG_DIR / "single_mode.json"
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        assert run("analytic", "--config", config, "--out", fresh) == 0
        stale.mkdir()
        junk = b"x" * 65536
        for name in ("sweep_critical_diagonal.csv", "report.json"):
            (stale / name).write_bytes(junk)
        assert run("analytic", "--config", config, "--out", stale) == 0
        csv_name = "sweep_critical_diagonal.csv"
        assert (stale / csv_name).read_bytes() == (fresh / csv_name).read_bytes()
        # json.loads rejects any stale tail after the document
        assert json.loads((stale / "report.json").read_text())["command"] == "analytic"

    def test_report_layout_and_new_file_modes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("analytic", "--config", CONFIG_DIR / "single_mode.json", "--out", out) == 0
        text = (out / "report.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        umask = os.umask(0)
        os.umask(umask)
        (tmp_path / "reference").write_text("")  # through open(path, "w")
        mode = (tmp_path / "reference").stat().st_mode & 0o777
        assert mode == 0o666 & ~umask
        for name in ("sweep_critical_diagonal.csv", "report.json"):
            assert (out / name).stat().st_mode & 0o777 == mode, name

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run("analytic", "--config", CONFIG_DIR / "single_mode.json", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output {out}: cannot write")
        assert len(err.splitlines()) == 1

    def test_directory_in_place_of_an_output_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "sweep_critical_diagonal.csv").mkdir(parents=True)
        assert run("analytic", "--config", CONFIG_DIR / "single_mode.json", "--out", out) == 2
        err = capsys.readouterr().err
        path = out / "sweep_critical_diagonal.csv"
        assert err.startswith(f"config error: output {path}: cannot write")
        assert len(err.splitlines()) == 1


class TestSimulateCommand:
    # jordan_dense_noise_mc has 2100 trajectories, more than one chunk of the
    # widest size, under complex dense noise on a size-2 Jordan block
    GOLDEN_RUNS = {
        "single_mode_mc_seed42": (CONFIG_DIR / "single_mode_mc.json", "--seed", 42),
        "jordan_dense_noise_mc": (DATA_DIR / "jordan_dense_noise_mc.json",),
        # dim 8: a size-3 Jordan block and five simple complex modes
        "jordan3_dense_noise_mc": (DATA_DIR / "jordan3_dense_noise_mc.json",),
        # the same dim-8 model read at one diagonal entry of a middle mode: the
        # engine accumulates a two-mode block, whose mean reduces like the
        # full matrix's, not a lone column, which numpy sums pairwise
        "jordan3_middle_entry_mc": (DATA_DIR / "jordan3_middle_entry_mc.json",),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("name", list(GOLDEN_RUNS))
    def test_csv_bytes_match_golden(self, name, threads, tmp_path):
        config, *extra = self.GOLDEN_RUNS[name]
        out = tmp_path / "out"
        assert run("simulate", "--config", config, *extra, "--out", out, "--format", "csv",
                   "--threads", threads) == 0
        assert_matches_golden(out, name)

    def test_requires_empirical_engine(self, capsys):
        assert run("simulate", "--config", CONFIG_DIR / "single_mode.json") == 2
        assert "empirical" in capsys.readouterr().err

    def test_run_is_byte_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = CONFIG_DIR / "single_mode_mc.json"
        assert run("simulate", "--config", cfg, "--out", out1) == 0
        assert run("simulate", "--config", cfg, "--out", out2, "--threads", 3) == 0
        csv1 = (out1 / "sweep_critical_diagonal.csv").read_bytes()
        csv2 = (out2 / "sweep_critical_diagonal.csv").read_bytes()
        assert csv1 == csv2
        report = json.loads((out1 / "report.json").read_text())
        assert report["results"]["critical_diagonal"]["stderr"] is not None
        assert report["seed_record"]["master_seed"] == 20260813
        assert len(report["seed_record"]["point_seeds"]) == 3

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = CONFIG_DIR / "single_mode_mc.json"
        assert run("simulate", "--config", cfg, "--out", out1) == 0
        assert run("simulate", "--config", cfg, "--out", out2, "--seed", 99) == 0
        assert (out1 / "sweep_critical_diagonal.csv").read_bytes() != \
               (out2 / "sweep_critical_diagonal.csv").read_bytes()

    def test_values_track_closed_form(self, tmp_path):
        out = tmp_path / "out"
        assert run("simulate", "--config", CONFIG_DIR / "single_mode_mc.json", "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        res = report["results"]["critical_diagonal"]
        for p, v, e in zip(res["p_values"], res["values"], res["stderr"]):
            assert abs(v - 1.0 / (2.0 * abs(p))) < 4 * e

    def small_mc_config(self, tmp_path, **engine):
        cfg = json.loads((CONFIG_DIR / "single_mode_mc.json").read_text())
        cfg["engine"].update({"n_trajectories": 200, "horizon": 20.0, "dt": 0.1,
                              "master_seed": 5, **engine})
        return write_json(tmp_path, cfg)

    def test_report_audits_each_point(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("simulate", "--config", self.small_mc_config(tmp_path), "--out", out) == 0
        assert "within 3 standard errors" not in capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        res = report["results"]["critical_diagonal"]
        diag = report["diagnostics"]
        assert [pt["p"] for pt in diag["points"]] == res["p_values"]
        hits = 0
        for pt, v, e in zip(diag["points"], res["values"], res["stderr"]):
            assert pt["mixing_ratio"] == pytest.approx(20.0 * abs(pt["p"]), rel=1e-12)
            q = pt["quantities"]["critical_diagonal"]
            assert q["closed_form"] == pytest.approx(1.0 / (2.0 * abs(pt["p"])), rel=1e-12)
            assert q["z"] == pytest.approx((v - q["closed_form"]) / e, rel=1e-12)
            hits += abs(q["z"]) <= 3.0
        assert diag["within_3se_frac"] == hits / 3

    def test_warns_when_estimates_miss_closed_form(self, tmp_path, capsys):
        # two time units from zero data fall far short of the stationary variance
        out = tmp_path / "out"
        cfg = self.small_mc_config(tmp_path, horizon=2.0)
        assert run("simulate", "--config", cfg, "--out", out) == 0
        assert "within 3 standard errors" in capsys.readouterr().err
        diag = json.loads((out / "report.json").read_text())["diagnostics"]
        assert diag["within_3se_frac"] < 0.95
        assert all(pt["quantities"]["critical_diagonal"]["z"] < -3.0 for pt in diag["points"])

    @pytest.mark.parametrize("horizon,warned", [(2.0, True), (100.0, False)])
    def test_report_flags_short_horizon(self, horizon, warned, tmp_path):
        # mixing ratios horizon * |p| on p = -0.5, -0.25, -0.125 against the threshold 5
        out = tmp_path / "out"
        cfg = self.small_mc_config(tmp_path, horizon=horizon)
        assert run("simulate", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "report.json").read_text())["mixing_warning"] is warned

    def test_zero_noise_writes_zero_columns(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "single_mode_mc.json").read_text())
        cfg["model"]["sigma"] = {"kind": "constant", "value": 0.0}
        cfg["engine"].update({"n_trajectories": 16, "horizon": 5.0, "dt": 0.1})
        out = tmp_path / "out"
        assert run("simulate", "--config", write_json(tmp_path, cfg), "--out", out) == 0
        assert "no power-law fit" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        res = report["results"]["critical_diagonal"]
        assert all(v == 0.0 for v in res["values"])
        assert res["fit"] is None and "fit_error" in res
        for line in (out / "sweep_critical_diagonal.csv").read_text().splitlines()[1:]:
            assert line.split(",")[2] == "0.0"
        diag = report["diagnostics"]
        assert all(pt["quantities"]["critical_diagonal"]["z"] is None for pt in diag["points"])
        assert diag["within_3se_frac"] == 1.0


class TestPointTiming:
    @pytest.mark.parametrize("command,config", [
        ("analytic", "single_mode.json"),
        ("simulate", "small_mc"),
        ("weyl", "quadratic_symbol.json"),
    ])
    def test_report_times_each_point(self, command, config, tmp_path):
        if config == "small_mc":
            cfg = json.loads((CONFIG_DIR / "single_mode_mc.json").read_text())
            cfg["engine"].update({"n_trajectories": 64, "horizon": 10.0, "dt": 0.1})
            path = write_json(tmp_path, cfg)
        else:
            path = CONFIG_DIR / config
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert run(command, "--config", path, "--out", serial, "--threads", 1) == 0
        assert run(command, "--config", path, "--out", pooled, "--threads", 2) == 0
        for out in (serial, pooled):
            report = json.loads((out / "report.json").read_text())
            points = report["timing"]["points"]
            first = next(iter(report["results"].values()))
            assert [pt["p"] for pt in points] == first["p_values"]
            assert all(pt["seconds"] > 0.0 for pt in points)
            assert sum(pt["seconds"] for pt in points) <= report["timing"]["seconds"] * 2
        csvs = sorted(path.name for path in serial.glob("sweep_*.csv"))
        assert csvs == sorted(path.name for path in pooled.glob("sweep_*.csv"))
        for name in csvs:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()


class TestOneFitPerQuantity:
    def test_analytic_fits_each_quantity_once(self, tmp_path, monkeypatch):
        calls = []
        fit = scaling.fit_power_law

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(scaling, "fit_power_law", counted)
        assert run("analytic", "--config", CONFIG_DIR / "jordan_block.json",
                   "--out", tmp_path / "out") == 0
        # three block_entry quantities, one fit each
        assert len(calls) == 3


class TestWeylCommand:
    def test_probe_prints_defect_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("weyl", "--config", CONFIG_DIR / "quadratic_symbol.json", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "defect" in stdout
        report = json.loads((out / "report.json").read_text())
        assert report["weyl"]["k_values"] == [2, 5, 10]
        for k in (2, 5, 10):
            assert (out / f"sweep_weyl_pairing_{k}.csv").exists()
            assert report["weyl"]["defects"][str(k)] <= 1.0 / k**2
            fit = report["results"][f"weyl_pairing:{k}"]["fit"]
            assert abs(fit["exponent"] + 1.0) < 0.05

    def test_runs_the_probe_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        probe = cli.weyl_divergence_probe

        def counted(*args, **kwargs):
            calls.append(args)
            return probe(*args, **kwargs)

        monkeypatch.setattr(cli, "weyl_divergence_probe", counted)
        assert run("weyl", "--config", CONFIG_DIR / "quadratic_symbol.json",
                   "--out", tmp_path / "out") == 0
        assert len(calls) == 1

    def test_builds_each_weyl_vector_once(self, tmp_path, monkeypatch, capsys):
        # the defects are taken of the vectors the sweep paired, bit for bit
        calls = []
        build = lyapunov.build_weyl_sequence

        def counted(model, k, center):
            calls.append(k)
            return build(model, k, center)

        for module in (spectrum, lyapunov, cli):
            monkeypatch.setattr(module, "build_weyl_sequence", counted, raising=False)
        out = tmp_path / "out"
        assert run("weyl", "--config", CONFIG_DIR / "quadratic_symbol.json", "--out", out) == 0
        assert sorted(calls) == [2, 5, 10]
        model = load_config(CONFIG_DIR / "quadratic_symbol.json").model
        center = float(model.argmax_points[0])
        defects = json.loads((out / "report.json").read_text())["weyl"]["defects"]
        for k in (2, 5, 10):
            expected = spectrum.weyl_defect(model, build(model, k, center), model.esssup)
            assert defects[str(k)] == expected

    def test_failed_fit_carries_reason(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "quadratic_symbol.json").read_text())
        cfg["fit_windows"] = {"weyl_pairing:2": [1e-9, 2e-9]}
        out = tmp_path / "out"
        assert run("weyl", "--config", write_json(tmp_path, cfg), "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "weyl_pairing:2: no power-law fit (window" in stdout
        results = json.loads((out / "report.json").read_text())["results"]
        assert results["weyl_pairing:2"]["fit"] is None
        assert "fewer than 3 sweep points" in results["weyl_pairing:2"]["fit_error"]
        assert results["weyl_pairing:5"]["fit"] is not None
        assert "fit_error" not in results["weyl_pairing:5"]

    def test_csv_bytes_match_golden(self, tmp_path, capsys):
        # 78 Weyl pairings, each one sum over the whole grid
        out = tmp_path / "out"
        assert run("weyl", "--config", CONFIG_DIR / "quadratic_symbol.json", "--out", out,
                   "--format", "csv") == 0
        assert_matches_golden(out, "quadratic_symbol_weyl")

    def test_rejects_spectral_model(self, capsys):
        assert run("weyl", "--config", CONFIG_DIR / "single_mode.json") == 2

    def test_missing_k_values_is_config_error(self, tmp_path, capsys):
        cfg = json.loads((CONFIG_DIR / "quadratic_symbol.json").read_text())
        del cfg["weyl"]
        assert run("weyl", "--config", write_json(tmp_path, cfg)) == 2
        assert "k_values" in capsys.readouterr().err

    def test_too_fine_weyl_vector_is_config_error(self, tmp_path, capsys):
        # the pre-flight rejects it before any sweep
        cfg = json.loads((CONFIG_DIR / "quadratic_symbol.json").read_text())
        cfg["weyl"]["k_values"] = [10_000_000]
        assert run("weyl", "--config", write_json(tmp_path, cfg)) == 2
        assert "config error: weyl.k_values[0]: weyl vector" in capsys.readouterr().err
