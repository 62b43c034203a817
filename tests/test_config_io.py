from dataclasses import MISSING, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betadens import KERNELS, ConfigError
from betadens.config import (_RULES, EXPERIMENTS, MAX_GRID_POINTS, config_keys,
                             load_config, parse_config, parse_n_grid, serialize_config)
from betadens.csvio import emit_csv, format_float, read_csv
from betadens.processes import MAX_STEPS
from betadens.risk import MAX_TRIALS, MAX_WORKERS

SWEEP_TEXT = """
# comment line
experiment = risk-table-sweep
n_grid = 5000:110000:5000
trials = 300
master_seed = 42
p = 1
threads = 8
"""


# n + burn_in, for a sweep with its largest n, stays within MAX_STEPS, and
# len(n_grid) x trials within MAX_TRIALS
_MAX_BURN_IN, _MAX_GRID_LEN = 10**6, 25
_NS = st.integers(1, MAX_STEPS - _MAX_BURN_IN)


def _n_grids(min_size):
    return st.lists(_NS, min_size=min_size, max_size=_MAX_GRID_LEN, unique=True).map(tuple)


_FINITE = dict(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(0.0, exclude_min=True, **_FINITE)
# a valid value for every config key
_KEY_VALUES = {
    "n": _NS,
    "n_grid": _n_grids(1),
    "trials": st.integers(1, MAX_TRIALS // _MAX_GRID_LEN),
    "master_seed": st.integers(0, 2**64 - 1),
    "p": st.floats(1.0, **_FINITE),
    "gamma": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "mu": st.floats(**_FINITE),
    "sigma2": _POSITIVE,
    "kernel": st.sampled_from(sorted(KERNELS)),
    "bandwidth": st.one_of(st.just("silverman"), _POSITIVE.map(repr)),
    "m": st.integers(1, 10**4),
    "bins_constant": _POSITIVE,
    "threads": st.integers(1, MAX_WORKERS),
    "grid_points": st.integers(2, MAX_GRID_POINTS),
    "k_max": st.integers(1, 40),
    "burn_in": st.integers(0, _MAX_BURN_IN),
}
# risk-slope-plot fits a line, so its grid needs at least three sizes
_SLOPE_KEY_VALUES = {**_KEY_VALUES, "n_grid": _n_grids(3)}


class TestParse:
    def test_parses_sweep(self):
        cfg = parse_config(SWEEP_TEXT)
        assert cfg.experiment == "risk-table-sweep"
        assert cfg.n_grid[0] == 5000 and cfg.n_grid[-1] == 110000
        assert len(cfg.n_grid) == 22
        assert cfg.trials == 300 and cfg.master_seed == 42 and cfg.threads == 8

    def test_n_grid_range_above_the_cap_refused_before_it_is_made(self):
        # a range is counted before its tuple is made, so one of 10^15
        # entries is refused at once instead of exhausting memory
        with pytest.raises(ConfigError, match=f"has {MAX_TRIALS + 1} entries, more than "
                                              f"MAX_TRIALS = {MAX_TRIALS}"):
            parse_n_grid(f"1:{MAX_TRIALS + 1}:1")

    def test_n_grid_comma_form(self):
        assert parse_n_grid("10,20,30") == (10, 20, 30)
        with pytest.raises(ConfigError):
            parse_n_grid("10:5:1")
        with pytest.raises(ConfigError):
            parse_n_grid("abc")

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("experiment = risk-table-sweep\nfrobnicate = 1\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config(SWEEP_TEXT, {"frobnicate": "1"})

    def test_overrides_replace_and_add_keys(self):
        cfg = parse_config(SWEEP_TEXT, {"master_seed": "5", "trials": "7"})
        assert cfg == replace(parse_config(SWEEP_TEXT), master_seed=5, trials=7)
        text = "experiment = risk-table-sweep\nn_grid = 10,20\n"
        assert parse_config(text, {"threads": "3"}).threads == 3

    def test_key_outside_experiment_schema(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config("experiment = risk-table-sweep\nn_grid = 10,20\n"
                         "trials = 2\ngamma = 0.5\n")

    def test_two_level_figure_refuses_bins_constant(self):
        # the figure takes m or the default schedule, never a bins_constant
        # that its run would ignore
        with pytest.raises(ConfigError, match="'bins_constant' does not belong"):
            parse_config("experiment = histogram-two-level-figure\nn = 1000\nm = 5\n"
                         "bins_constant = 3\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="n_grid"):
            parse_config("experiment = risk-table-sweep\ntrials = 5\n")
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("n = 100\n")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config("experiment = mystery\n")

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config("experiment = lsv-histogram-figure\nn = ten\ngamma = 0.5\n")
        with pytest.raises(ConfigError):
            parse_config("experiment = lsv-histogram-figure\nn = 10\ngamma = 1.5\n")
        with pytest.raises(ConfigError, match="p must be >= 1"):
            parse_config("experiment = risk-table-sweep\nn_grid = 10,20\ntrials = 2\n"
                         "p = 0.5\n")
        for value in ("nan", "inf", "-inf", "0", "-1.5"):
            with pytest.raises(ConfigError, match="bins_constant must be a finite number"):
                parse_config("experiment = risk-table-sweep\nn_grid = 10,20\ntrials = 2\n"
                             f"bins_constant = {value}\n")
        for value in ("0", "-2"):
            with pytest.raises(ConfigError, match="k_max must be >= 1"):
                parse_config(f"experiment = coefficient-report\nk_max = {value}\n")
        for value in ("0", "-3"):
            with pytest.raises(ConfigError, match="m must be >= 1"):
                parse_config(f"experiment = histogram-two-level-figure\nn = 10\nm = {value}\n")
        for value in ("0", "1", "-4"):
            with pytest.raises(ConfigError, match="grid_points must be >= 2"):
                parse_config("experiment = kernel-gaussian-figure\nn = 10\nmu = 0\n"
                             f"sigma2 = 1\ngrid_points = {value}\n")
        for value in ("inf", "nan"):
            with pytest.raises(ConfigError, match="p must be >= 1"):
                parse_config("experiment = risk-table-sweep\nn_grid = 10,20\ntrials = 2\n"
                             f"p = {value}\n")
        for key, value, named in (
                ("mu", "nan", "mu must be finite"), ("mu", "-inf", "mu must be finite"),
                ("sigma2", "nan", "sigma2 must be a finite number > 0"),
                ("sigma2", "inf", "sigma2 must be a finite number > 0"),
                ("bandwidth", "nan", "bandwidth must be 'silverman' or a number"),
                ("bandwidth", "inf", "bandwidth must be 'silverman' or a number"),
                ("bandwidth", "-inf", "bandwidth must be 'silverman' or a number"),
                ("kernel", "foo", "unknown kernel 'foo'")):
            keys = {"mu": "0", "sigma2": "1", key: value}
            with pytest.raises(ConfigError, match=named):
                parse_config("experiment = kernel-gaussian-figure\nn = 10\n"
                             + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        # kernel names are matched case-insensitively, as kernel_by_name does
        assert parse_config("experiment = kernel-gaussian-figure\nn = 10\nmu = 0\n"
                            "sigma2 = 1\nkernel = Triangular\n").kernel == "Triangular"

    def test_bandwidth_that_is_no_number_is_refused(self):
        with pytest.raises(ConfigError, match="bandwidth must be 'silverman' or a number"):
            parse_config("experiment = kernel-gaussian-figure\nn = 10\nmu = 0\n"
                         "sigma2 = 1\nbandwidth = abc\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("experiment = coefficient-report\nk_max = 3\nk_max = 4\n")

    def test_master_seed_range(self):
        with pytest.raises(ConfigError, match="master_seed"):
            parse_config("experiment = histogram-two-level-figure\nn = 10\n"
                         "master_seed = -3\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("experiment = coefficient-report\njust words\nk_max = 3\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(SWEEP_TEXT)
        assert load_config(path) == parse_config(SWEEP_TEXT)


class TestSerializeRoundTrip:
    def test_idempotent(self):
        cfg = parse_config(SWEEP_TEXT)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_each_experiment(self, data):
        # every experiment, each required key set and each optional key set
        # or left at its default, every value valid
        for experiment, cls in EXPERIMENTS.items():
            keys = config_keys(cls)
            valid = _SLOPE_KEY_VALUES if experiment == "risk-slope-plot" else _KEY_VALUES
            values = data.draw(st.fixed_dictionaries(
                {key: valid[key] for key, f in keys.items() if f.default is MISSING},
                optional={key: valid[key] for key, f in keys.items()
                          if f.default is not MISSING}))
            cfg = cls(**values)
            assert parse_config(serialize_config(cfg)) == cfg


def test_every_key_has_one_range_rule_and_one_strategy():
    # a key added to an experiment class without a range rule would skip
    # validation, and one without a strategy the round trip above
    keys = {}
    for cls in EXPERIMENTS.values():
        keys.update(config_keys(cls))
    assert set(_RULES) == set(keys)
    assert set(_KEY_VALUES) == set(keys)


def test_every_key_converts_from_text_by_its_type():
    # the grammar has four value types: int, float and str convert a key's
    # text by calling the type, and n_grid has its own parser; a bool key
    # would read "false" as bool("false"), which is True
    for cls in EXPERIMENTS.values():
        for key, f in config_keys(cls).items():
            assert key == "n_grid" or f.type in (int, float, str), (cls.experiment, key)


def test_readme_key_table_matches_the_experiment_classes():
    # the README's key table: one row per experiment, its required keys and
    # its optional ones with their defaults, each in field order
    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in EXPERIMENTS:
            rows[cells[0].strip("`")] = cells[1:]

    def optional(key, default):
        return f"`{key}`" if default is None else f"`{key} = {default}`"

    expected = {}
    for experiment, cls in EXPERIMENTS.items():
        keys = config_keys(cls).items()
        required = [f"`{key}`" for key, f in keys if f.default is MISSING]
        expected[experiment] = [", ".join(required) or "none",
                                ", ".join(optional(key, f.default) for key, f in keys
                                          if f.default is not MISSING)]
    assert rows == expected


class TestCsv:
    def test_ten_significant_digits(self):
        assert format_float(0.0477) == "0.04770000000"
        assert format_float(5000.0) == "5000.000000"
        assert format_float(1.0) == "1.000000000"
        assert format_float(0.0) == "0.000000000"
        assert format_float(-0.25) == "-0.2500000000"
        assert format_float(1e-9) == "0.000000001000000000"
        assert format_float(12345678912.0) == "12345678910.0"

    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_format_float_reads_back_as_ten_digit_rounding(self, x):
        assert float(format_float(x)) == float(f"{x:.9e}")

    def test_report_row_format(self, tmp_path):
        path = emit_csv(tmp_path / "t.csv", ["n", "mean_risk"], [(5000, 0.0477)])
        assert path.read_bytes() == b"n,mean_risk\r\n5000,0.04770000000\r\n"

    def test_header_only_for_empty_table(self, tmp_path):
        path = emit_csv(tmp_path / "e.csv", ["a", "b"], [])
        assert path.read_bytes() == b"a,b\r\n"

    def test_round_trip_reproduces_emitted_values(self, tmp_path):
        rows = [(1, 0.123456789012345), (2, 7.5), (3, 1e-8), (4, -3.25)]
        first = emit_csv(tmp_path / "r1.csv", ["k", "v"], rows)
        header, parsed = read_csv(first)
        reparsed_rows = [(int(k), float(v)) for k, v in parsed]
        second = emit_csv(tmp_path / "r2.csv", header, reparsed_rows)
        assert first.read_bytes() == second.read_bytes()

    def test_read_reverses_emit(self, tmp_path):
        path = emit_csv(tmp_path / "x.csv", ["a", "b"], [(1, 2.0), (3, 4.0)])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "2.000000000"], ["3", "4.000000000"]]
