"""Criterion 1 decomposed: binning bias, a lower bound and candidate protocols.

Prints the tables of notes/decisions.md.  Every exact distance is the
package's `lp_distance` of a step density (`step_density`) to a step
reference, and the other density's sample is its own `quantile` of the
chain.  Run as

    PYTHONPATH=src python notes/criterion1_protocols.py [--table risk_table.csv]

Without --table it first runs configs/table_risk_sweep.cfg (300 trials a row,
1.4-1.5 s on two cores with the default 2 workers).  The lower bound and the
candidate protocols use the first 60 trials of every row, on the sweep's own
seeds.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

import betadens as bd
from betadens.config import load_config
from betadens.csvio import read_csv
from betadens.runner import run_experiment

ROOT = Path(__file__).resolve().parents[1]

TRIALS = 60
GRIDS = (100, 256, 512, 1000, 1024)


def regular_heights(y, m, left_closed=False):
    j = np.floor(y * m) if left_closed else np.ceil(y * m) - 1
    j = np.clip(j.astype(int), 0, m - 1)
    return np.bincount(j, minlength=m) * m / len(y)


def lower_bound(hist_l1, heights, m, rb, rv) -> float:
    """Exact L1 of the histogram with every straddling bin re-levelled optimally.

    In a bin that holds a jump of size d at fraction alpha, a constant height
    has error at least d min(alpha, 1 - alpha) / m; the other bins keep the
    histogram's error, which does not depend on the straddling heights.
    """
    total = hist_l1
    for k in range(1, len(rb) - 1):
        j = math.floor(rb[k] * m)
        alpha = rb[k] * m - j
        if alpha == 0.0:
            continue
        left, right, h = rv[k - 1], rv[k], heights[j]
        total -= (alpha * abs(h - left) + (1 - alpha) * abs(h - right)) / m
        total += abs(right - left) * min(alpha, 1 - alpha) / m
    return total


def trial_values(n, m, seed, burn_in):
    """Risk of one trial under every protocol, keyed by protocol name."""
    ref = bd.two_level()
    rb, rv = ref.step_representation()
    u = bd.ar1_binary_chain(n, burn_in, seed)
    y = ref.quantile(u)
    hist = bd.histogram_estimate(y, m)
    heights = hist.bin_values()
    edges = np.arange(m + 1) / m
    out = {"exact breaks (package)": bd.lp_distance(hist, ref, 1.0)}
    out["lower bound, straddling bins re-levelled"] = lower_bound(
        out["exact breaks (package)"], heights, m, rb, rv)
    for g in GRIDS:
        x = (np.arange(g) + 0.5) / g
        out[f"midpoint grid {g}"] = float(np.mean(np.abs(hist.evaluate(x) - ref.pdf(x))))
        x = np.arange(g + 1) / g
        w = np.full(g + 1, 1.0 / g)
        w[[0, -1]] *= 0.5
        out[f"trapezoid grid {g}"] = float(np.abs(hist.evaluate(x) - ref.pdf(x)) @ w)

    def l1(breaks, heights, reference=ref):
        return bd.lp_distance(bd.step_density(breaks, heights), reference)

    lo, hi = float(y.min()), float(y.max())
    counts, range_edges = np.histogram(y, bins=m, range=(lo, hi))
    out["bins on the sample range"] = l1(range_edges, counts / (n * (hi - lo) / m))
    out["left-closed bins"] = l1(edges, regular_heights(y, m, True))
    cube = n ** (1.0 / 3.0)
    for name, mm in (("m = round(n^(1/3))", round(cube)), ("m = ceil(n^(1/3))", math.ceil(cube))):
        out[name] = l1(np.arange(mm + 1) / mm, regular_heights(y, mm))
    iid = ref.quantile(np.random.Generator(np.random.Philox(key=seed)).random(n))
    out["iid sampling"] = l1(edges, regular_heights(iid, m))
    levels = bd.step_density(rb, (7 / 8, 9 / 8, 7 / 8))
    out["levels 7/8 and 9/8 (another density)"] = l1(
        edges, regular_heights(levels.quantile(u), m), levels)
    return out


def sweep_rows(table: str | None, threads: int):
    if table is None:
        config = replace(load_config(ROOT / "configs" / "table_risk_sweep.cfg"),
                         threads=threads)
        with tempfile.TemporaryDirectory() as tmp:
            _, rows = read_csv(run_experiment(config, out_dir=tmp)[0])
    else:
        _, rows = read_csv(table)
    return [(int(n), int(m), float(r), float(se)) for n, m, r, se in rows]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", help="risk_table.csv of the shipped sweep config")
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import REFERENCE_TABLE
    config = load_config(ROOT / "configs" / "table_risk_sweep.cfg")
    rows = sweep_rows(args.table, args.threads)

    print("| n | m | risk | se | b(m) | risk - b(m) | published | share of b(m) | margin |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for n, m, risk, se in rows:
        ref = REFERENCE_TABLE[n]
        b = bd.binning_bias(m, bd.two_level(), config.p)
        tol = 3.0 * se + 0.15 * ref
        if b <= 1e-12:
            share, margin = "-", tol - abs(risk - ref)
        else:
            share = f"{(ref - (risk - b)) / b:.2f}"
            margin = min(ref - (risk - b - tol), risk + tol - ref)
        print(f"| {n} | {m} | {risk:.4f} | {se:.4f} | {b:.4f} | {risk - b:.4f} "
              f"| {ref:.4f} | {share} | {margin:.4f} |")

    per_row = {}
    for n, m, _, _ in rows:
        seed = bd.row_seed(config.master_seed, n)
        values = [trial_values(n, m, seed ^ t, config.burn_in) for t in range(1, TRIALS + 1)]
        per_row[n] = {k: np.array([v[k] for v in values]) for k in values[0]}

    print(f"\nFirst {TRIALS} trials of every row; 'rows in' counts the rows within "
          "3 se + 0.15 ref of the published value, se from the same trials.\n")
    print("| protocol | n = 5000 | n = 110000 | rows in |")
    print("| --- | --- | --- | --- |")
    for name in per_row[rows[0][0]]:
        inside = 0
        for n, _, _, _ in rows:
            v = per_row[n][name]
            ref = REFERENCE_TABLE[n]
            se = v.std(ddof=1) / math.sqrt(len(v))
            inside += abs(v.mean() - ref) <= 3.0 * se + 0.15 * ref
        first, last = per_row[rows[0][0]][name], per_row[rows[-1][0]][name]
        print(f"| {name} | {first.mean():.4f} | {last.mean():.4f} | {inside}/{len(rows)} |")

    print("\nLower bound against the published value plus the sweep's tolerance:\n")
    print("| n | m | lower bound | published + tolerance |")
    print("| --- | --- | --- | --- |")
    for n, m, _, se in rows:
        if bd.binning_bias(m, bd.two_level(), config.p) > 1e-12:
            ref = REFERENCE_TABLE[n]
            bound = per_row[n]["lower bound, straddling bins re-levelled"].mean()
            print(f"| {n} | {m} | {bound:.4f} | {ref + 3.0 * se + 0.15 * ref:.4f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
