import hashlib
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from betadens import ConfigError, ProcessKind, ProcessSpec, histogram_bins_lsv, risk
from betadens.cli import main
from betadens.config import (EXPERIMENTS, ExperimentConfig, load_config, parse_config,
                             serialize_config)
from betadens.csvio import read_csv
from betadens.runner import _RUNNERS, run_experiment
from betadens.svg import SvgFigure

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# runs `betadens run` as the child of a fresh interpreter and prints the
# child's ru_maxrss (kilobytes on Linux); a process started by the test
# process itself would start from the test process's own peak, which exec keeps
_RUN_AND_REPORT_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "betadens.cli", "run", *sys.argv[1:]], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _run(text, out):
    return run_experiment(parse_config(text), out_dir=out)


def count_pools(monkeypatch):
    """The max_workers of every Monte Carlo pool started from here on."""
    started = []

    class CountingPool(risk.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(risk, "ProcessPoolExecutor", CountingPool)
    return started


def _golden_digests(workload, name):
    # the benchmark's recorded digests of member 0, whose inputs are the
    # shipped seeds, for the outputs of config `name`
    goldens = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
    return {key.split("/", 1)[1]: digest
            for key, digest in goldens[workload]["full"][0].items()
            if key.startswith(f"{name}/")}


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
        started = count_pools(monkeypatch)
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
        # loglog changes only the figure's axes, never the tables
        tables = {}
        for loglog, labels in ((True, ("log10 n", "log10 risk")), (False, ("n", "risk"))):
            files = _run("experiment = risk-slope-plot\nn_grid = 500,1500,4000,9000\n"
                         f"trials = 3\nmaster_seed = 11\nloglog = {loglog}\n",
                         tmp_path / str(loglog))
            by_name = {p.name: p for p in files}
            assert sorted(by_name) == ["risk_slope.svg", "risk_slope_summary.csv",
                                       "risk_slope_table.csv"]
            _, summary = read_csv(by_name["risk_slope_summary.csv"])
            slope = float(summary[0][0])
            assert -1.0 < slope < 0.1
            # the axis labels are the two 12-point texts, the y one rotated
            texts = [t for t in ET.parse(by_name["risk_slope.svg"]).getroot().iter()
                     if t.tag.endswith("text") and t.get("font-size") == "12"]
            assert [t.text for t in texts] == list(labels)
            assert "transform" in texts[1].attrib
            tables[loglog] = [by_name[name].read_bytes() for name in
                              ("risk_slope_table.csv", "risk_slope_summary.csv")]
        assert tables[True] == tables[False]

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
        # the flags replace the file's values
        (expected,) = _run("experiment = risk-table-sweep\nn_grid = 500\ntrials = 2\n"
                           "master_seed = 5\n", tmp_path / "expected")
        assert (out_dir / "risk_table.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kilobytes")
    def test_shipped_lsv_figure_at_full_size(self, tmp_path):
        # the 10^7-step figure, counted block by block in a fresh interpreter:
        # the benchmark's golden bytes (member 0 is the shipped seed) in
        # well under the ~265 MB that holding the whole trajectory took
        name = "figure_lsv_gamma075_n10000000"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        child = subprocess.run([sys.executable, "-c", _RUN_AND_REPORT_RSS,
                                str(CONFIG_DIR / f"{name}.cfg"), "--out", str(tmp_path)],
                               env=env, capture_output=True, text=True, check=True)
        want = _golden_digests("figures", name)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
        assert got == want and len(want) == 2
        peak_mb = int(child.stdout.split()[-1]) / 1024
        assert peak_mb < 100, peak_mb

    @pytest.mark.parametrize("name", ["figure_kernel_gaussian_n1000",
                                      "figure_kernel_gaussian_n5000"])
    def test_shipped_kernel_figure_at_full_size(self, tmp_path, name):
        # every point of the figure grid is a kernel window sum: the
        # benchmark's golden bytes pin them bit for bit
        files = run_experiment(load_config(CONFIG_DIR / f"{name}.cfg"), tmp_path)
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        want = _golden_digests("figures", name)
        assert got == want and len(want) == 2

    def test_shipped_kernel_risk_at_full_size(self):
        # the kernel_risk inputs: n = 1,000, Silverman bandwidth, 2 trials
        # at the config's seed; each trial's L1 risk is pinned by its hex
        cfg = load_config(CONFIG_DIR / "figure_kernel_gaussian_n1000.cfg")
        assert cfg.bandwidth == "silverman"
        process = ProcessSpec(kind=ProcessKind.AR1_GAUSSIAN, n=cfg.n, seed=0,
                              burn_in=cfg.burn_in, mu=cfg.mu, sigma2=cfg.sigma2)
        report = risk.monte_carlo_risk(
            process, risk.KernelEstimatorSpec(kernel_name=cfg.kernel, bandwidth=None),
            risk.gaussian(cfg.mu, cfg.sigma2), trials=2, p=cfg.p,
            master_seed=cfg.master_seed)
        goldens = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
        want = goldens["kernel_risk"]["full"][0]
        assert {f"trial-{t}": float(v).hex()
                for t, v in enumerate(report.per_trial, 1)} == want
        assert len(want) == 2

    def test_run_coefficients_config(self, tmp_path):
        path = CONFIG_DIR / "coefficients.cfg"
        assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 0
        files = run_experiment(load_config(path), tmp_path / "lib")
        assert [p.name for p in files] == ["coefficients.csv",
                                           "pair_coefficient_lower_bounds.csv"]
        for p in files:
            assert (tmp_path / "cli" / p.name).read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("argv, named", [
        (["run", "coefficients.cfg", "--seed", "5"], "'master_seed'"),
        (["run", "figure_lsv_gamma025_n60000.cfg", "--trials", "5"], "'trials'"),
        (["run", "figure_kernel_gaussian_n1000.cfg", "--threads", "2"], "'threads'"),
        (["run", "table_risk_sweep.cfg", "--seed", "abc"], "'master_seed'"),
        (["table", "figure_lsv_gamma025_n60000.cfg"], "'n_grid'")])
    def test_flag_the_config_cannot_take_is_refused(self, tmp_path, capsys, argv, named):
        command, name, *flags = argv
        out = tmp_path / "out"
        assert main([command, str(CONFIG_DIR / name), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

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
                (["run", str(cfg), "--trials", "0"], "trials")):
            assert main(argv + ["--out", str(tmp_path / "override")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "override").exists()

    def test_overflowing_bin_count_is_reported(self, tmp_path, capsys):
        # a finite bins_constant whose product with n^(1/3) is not: the BV
        # schedule refuses it when the sweep builds its rows, and a kernel
        # figure of one point has no bandwidth; each exits with one error
        # line and makes no output directory
        for name, text, named in (
                ("huge", "experiment = risk-table-sweep\nn_grid = 1000\ntrials = 2\n"
                         "bins_constant = 1e308\n", "bin count C n^(1/3) overflows"),
                ("single", "experiment = kernel-gaussian-figure\nn = 1\nmu = 0\nsigma2 = 1\n",
                 "bandwidth rule needs at least two points")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text)
            out = tmp_path / f"out-{name}"
            assert main(["run", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err
            assert len(err.splitlines()) == 1
            assert not out.exists()

    @pytest.mark.parametrize("values, named", [
        (dict(experiment="histogram-two-level-figure", n=0), "n must be >= 1"),
        (dict(experiment="risk-table-sweep", n_grid=(500, 0)), "n_grid entries must be >= 1"),
        (dict(experiment="risk-slope-plot", n_grid=(500, 1000, -5)),
         "n_grid entries must be >= 1"),
        (dict(experiment="lsv-histogram-figure", n=100, gamma=0.5, burn_in=-1),
         "burn_in must be >= 0"),
        (dict(experiment="coefficient-report", k_max=0), "k_max must be >= 1 and <= 40"),
        (dict(experiment="coefficient-report", k_max=41), "k_max must be >= 1 and <= 40"),
        (dict(experiment="risk-table-sweep", n_grid=(500, 700, 500)),
         "n_grid entries must be distinct"),
        (dict(experiment="risk-slope-plot", n_grid=(500, 500, 500)),
         "n_grid entries must be distinct"),
        (dict(experiment="risk-slope-plot", n_grid=(500, 1000)), "at least 3 n_grid entries")])
    def test_out_of_range_value_refused_before_any_work(self, tmp_path, capsys, values,
                                                        named):
        config = ExperimentConfig(**values)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=named):
            run_experiment(config, out_dir=out)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(serialize_config(config))
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["risk-table-sweep", "risk-slope-plot"])
    def test_empty_n_grid_refused_before_any_work(self, tmp_path, experiment):
        # only a config built in code can hold one: parse_n_grid refuses ''
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=re.escape("n_grid must have at least one entry")):
            run_experiment(ExperimentConfig(experiment=experiment, n_grid=(), trials=2),
                           out_dir=out)
        assert not out.exists()

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


def test_svg_limits_must_increase():
    figure = SvgFigure()
    for xlim, ylim in (((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (2.0, -1.0))):
        with pytest.raises(ValueError, match="axis limits must be increasing"):
            figure.set_limits(xlim, ylim)
