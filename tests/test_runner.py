import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from betadens import ConfigError, histogram_bins_lsv, risk
from betadens.cli import main
from betadens.config import (EXPERIMENTS, ExperimentConfig, load_config, parse_config,
                             serialize_config)
from betadens.csvio import read_csv
from betadens.runner import _RUNNERS, run_experiment

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _run(text, out):
    return run_experiment(parse_config(text), out_dir=out)


def _assert_valid_svg(path):
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


class TestExperiments:
    def test_risk_table_sweep_layout(self, tmp_path):
        files = _run("experiment = risk-table-sweep\nn_grid = 1000,2000,3000\n"
                     "trials = 4\nmaster_seed = 7\n", tmp_path)
        header, rows = read_csv(files[0])
        assert header == ["n", "m", "mean_risk", "std_error"]
        assert [int(r[0]) for r in rows] == [1000, 2000, 3000]
        assert [int(r[1]) for r in rows] == [10, 12, 14]

    def test_risk_table_sweep_starts_one_pool(self, tmp_path, monkeypatch):
        started = []

        class CountingPool(risk.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(risk, "ProcessPoolExecutor", CountingPool)
        files = _run("experiment = risk-table-sweep\nn_grid = 1000,2000,3000\n"
                     "trials = 4\nmaster_seed = 7\nthreads = 2\n", tmp_path)
        assert started == [2]
        serial = _run("experiment = risk-table-sweep\nn_grid = 1000,2000,3000\n"
                      "trials = 4\nmaster_seed = 7\n", tmp_path / "serial")
        assert files[0].read_bytes() == serial[0].read_bytes()

    def test_kernel_gaussian_figure(self, tmp_path):
        files = _run("experiment = kernel-gaussian-figure\nn = 400\nmu = 10\n"
                     "sigma2 = 2\nmaster_seed = 3\ngrid_points = 64\n", tmp_path)
        header, rows = read_csv(files[0])
        assert header == ["x", "estimate", "true_density"]
        assert len(rows) == 64
        _assert_valid_svg(files[1])

    def test_histogram_two_level_figure(self, tmp_path):
        files = _run("experiment = histogram-two-level-figure\nn = 2000\n"
                     "master_seed = 5\n", tmp_path)
        header, rows = read_csv(files[0])
        assert len(rows) == 12   # floor(2000^(1/3))
        _assert_valid_svg(files[1])

    def test_lsv_histogram_figure_uses_schedule(self, tmp_path):
        files = _run("experiment = lsv-histogram-figure\nn = 3000\ngamma = 0.75\n"
                     "master_seed = 2\n", tmp_path)
        header, rows = read_csv(files[0])
        assert len(rows) == histogram_bins_lsv(3000, 0.75)
        assert header[-1] == "equivalent_density_at_mid"
        _assert_valid_svg(files[1])

    def test_risk_slope_plot_outputs(self, tmp_path):
        files = _run("experiment = risk-slope-plot\nn_grid = 500,1500,4000,9000\n"
                     "trials = 3\nmaster_seed = 11\nloglog = true\n", tmp_path)
        names = sorted(p.name for p in files)
        assert names == ["risk_slope.svg", "risk_slope_summary.csv",
                         "risk_slope_table.csv"]
        _, summary = read_csv([p for p in files if p.name.endswith("summary.csv")][0])
        slope = float(summary[0][0])
        assert -1.0 < slope < 0.1

    @pytest.mark.parametrize("experiment, missing", [
        ("kernel-gaussian-figure", "['mu', 'n', 'sigma2']"),
        ("histogram-two-level-figure", "['n']"),
        ("risk-table-sweep", "['n_grid']"),
        ("risk-slope-plot", "['n_grid']"),
        ("lsv-histogram-figure", "['gamma', 'n']")])
    def test_config_built_in_code_names_missing_keys(self, tmp_path, experiment, missing):
        with pytest.raises(ConfigError, match=re.escape(f"missing keys {missing}")):
            run_experiment(ExperimentConfig(experiment=experiment), out_dir=tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_coefficient_report(self, tmp_path):
        files = _run("experiment = coefficient-report\nk_max = 4\n", tmp_path)
        header, rows = read_csv(files[0])
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
        for row in rows:
            assert float(row[1]) <= float(row[2])
        _, pair_rows = read_csv(files[1])
        for row in pair_rows:
            assert float(row[3]) <= float(row[4]) + 1e-9


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        text = ("experiment = risk-table-sweep\nn_grid = 800,1600\ntrials = 5\n"
                "master_seed = 99\n")
        first = _run(text, tmp_path / "a")
        second = _run(text, tmp_path / "b")
        assert first[0].read_bytes() == second[0].read_bytes()

    def test_figure_bytes_deterministic(self, tmp_path):
        text = ("experiment = lsv-histogram-figure\nn = 1200\ngamma = 0.25\n"
                "master_seed = 4\n")
        a = _run(text, tmp_path / "a")
        b = _run(text, tmp_path / "b")
        assert a[1].read_bytes() == b[1].read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        base = ("experiment = risk-table-sweep\nn_grid = 700,1400\ntrials = 6\n"
                "master_seed = 123\nthreads = {t}\n")
        one = _run(base.format(t=1), tmp_path / "one")
        four = _run(base.format(t=4), tmp_path / "four")
        assert one[0].read_bytes() == four[0].read_bytes()


class TestCli:
    def test_run_and_table_commands(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("experiment = risk-table-sweep\nn_grid = 500,1000\n"
                       "trials = 3\nmaster_seed = 8\n")
        assert main(["table", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,m,mean_risk,std_error")

    def test_cli_overrides(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("experiment = risk-table-sweep\nn_grid = 500\ntrials = 9\n"
                       "master_seed = 8\n")
        out_dir = tmp_path / "o"
        assert main(["run", str(cfg), "--trials", "2", "--seed", "5",
                     "--out", str(out_dir), "--threads", "2"]) == 0
        assert (out_dir / "risk_table.csv").exists()

    def test_coeffs_command(self, tmp_path):
        assert main(["coeffs", "--k-max", "3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "coefficients.csv").exists()

    def test_bad_config_is_reported(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for text, named in (
                ("experiment = risk-table-sweep\nbogus_key = 1\n", "bogus_key"),
                ("experiment = risk-table-sweep\nn_grid = 500\ntrials = 2\np = 0.5\n",
                 "p must be >= 1"),
                ("experiment = risk-table-sweep\nn_grid = 500\ntrials = 2\n"
                 "bins_constant = nan\n", "bins_constant must be a finite number > 0"),
                ("experiment = kernel-gaussian-figure\nn = 100\nmu = 0\nsigma2 = 1\n"
                 "grid_points = 0\n", "grid_points must be >= 2"),
                ("experiment = risk-table-sweep\nn_grid = 500\ntrials = 2\np = inf\n",
                 "p must be >= 1"),
                ("experiment = kernel-gaussian-figure\nn = 100\nmu = nan\nsigma2 = 1\n",
                 "mu must be finite"),
                ("experiment = kernel-gaussian-figure\nn = 100\nmu = 0\nsigma2 = nan\n",
                 "sigma2 must be a finite number > 0"),
                ("experiment = kernel-gaussian-figure\nn = 100\nmu = 0\nsigma2 = inf\n",
                 "sigma2 must be a finite number > 0"),
                ("experiment = kernel-gaussian-figure\nn = 100\nmu = 0\nsigma2 = 1\n"
                 "bandwidth = nan\n", "bandwidth must be 'silverman' or a number"),
                ("experiment = kernel-gaussian-figure\nn = 100\nmu = 0\nsigma2 = 1\n"
                 "bandwidth = inf\n", "bandwidth must be 'silverman' or a number"),
                ("experiment = kernel-gaussian-figure\nn = 100\nmu = 0\nsigma2 = 1\n"
                 "kernel = foo\n", "unknown kernel 'foo'"),
                ("experiment = coefficient-report\nk_max = 0\n", "k_max must be >= 1"),
                ("experiment = lsv-histogram-figure\nn = 100\ngamma = 0.5\nm = 0\n",
                 "m must be >= 1")):
            cfg.write_text(text)
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err
        # overrides meet the same checks as config values, before any work
        cfg.write_text("experiment = risk-table-sweep\nn_grid = 500\ntrials = 2\n")
        for argv, named in (
                (["run", str(cfg), "--seed", str(2**64)], "master_seed"),
                (["run", str(cfg), "--seed", "-1"], "master_seed"),
                (["table", str(cfg), "--threads", "0"], "threads"),
                (["run", str(cfg), "--threads", "-3"], "threads"),
                (["run", str(cfg), "--trials", "0"], "trials"),
                (["coeffs", "--k-max", "0"], "k_max")):
            assert main(argv + ["--out", str(tmp_path / "override")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "override").exists()

    def test_config_error_type(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = risk-table-sweep\nn_grid = 10\ntrials = 0\n")


def test_shipped_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) >= 8
    for path in paths:
        config = load_config(path)
        assert parse_config(serialize_config(config)) == config
    assert set(_RUNNERS) == set(EXPERIMENTS)
