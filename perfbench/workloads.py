"""The benchmark workloads and the inputs of each pass.

A pass is one closed-loop batch job, run from this process: the next call
starts when the previous one returns.  Its inputs come from a pool member j,
which offsets every master seed of the shipped configs by SEED_STRIDE * j;
member 0 is the shipped seeds.  The outputs of every pool member were
recorded at the seed commit (goldens.json), so every pass is checked byte for
byte.  A pass returns {member: {operation: fingerprint}}: the sha256 of each
output file, or the exact hex of each Monte Carlo trial value.

Every workload keeps nproc cores busy.  On a machine that shares its cores, a
single busy core changes speed by up to 1.8x from one stretch of seconds to
the next, while two busy cores hold their speed (see README.md).

Importing this module needs betadens on sys.path.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from betadens import config as bconfig
from betadens import risk, runner
from betadens.processes import ProcessKind, ProcessSpec

from catalog import CONFIGS

POOL = 16
SEED_STRIDE = 1000
SIZES = ("full", "tiny")

SWEEP_TRIALS = {"full": 60, "tiny": 4}
SWEEP_ROWS_TINY = 3
KERNEL_TRIALS = {"full": 2, "tiny": 1}
KERNEL_N_TINY = 200
FIGURE_N_TINY = 20000


def member_seed(master_seed: int, member: int) -> int:
    return (master_seed + SEED_STRIDE * member) % 2**64


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """A named batch job; subclasses set the inputs and run one pass."""

    name = ""
    workers = 1        # worker count the timed passes use
    values = 0         # sum of n over every sample of a pass
    trials = 0         # Monte Carlo trials of a pass
    configs: list      # (config file stem, parsed config) the pass runs

    def __init__(self, root: Path, size: str, nproc: int):
        self.root = root
        self.size = size

    def config_paths(self) -> list[Path]:
        return [self.root / "configs" / name for name in CONFIGS[self.name]]

    def members(self, member: int) -> list[int]:
        """Pool members whose inputs the pass starting at `member` runs."""
        return [member]

    def run(self, member: int, out: Path, workers: int) -> dict[int, dict[str, str]]:
        """One pass; `workers` changes its speed, never its outputs."""
        raise NotImplementedError


class HistogramSweep(Workload):
    """The risk-table sweep of table_risk_sweep.cfg at nproc workers."""

    name = "histogram_sweep"

    def __init__(self, root, size, nproc):
        super().__init__(root, size, nproc)
        (path,) = self.config_paths()
        cfg = bconfig.load_config(path)
        cfg.trials = SWEEP_TRIALS[size]
        if size == "tiny":
            cfg.n_grid = cfg.n_grid[:SWEEP_ROWS_TINY]
        self.config = cfg
        self.configs = [(path.stem, cfg)]
        self.workers = nproc
        self.trials = cfg.trials * len(cfg.n_grid)
        self.values = cfg.trials * sum(cfg.n_grid)

    def run(self, member, out, workers):
        cfg = replace(self.config, threads=workers,
                      master_seed=member_seed(self.config.master_seed, member))
        return {member: {p.name: file_digest(p) for p in runner.run_experiment(cfg, out)}}


class KernelRisk(Workload):
    """Monte Carlo L1 risk of the kernel estimate on nproc workers."""

    name = "kernel_risk"

    def __init__(self, root, size, nproc):
        super().__init__(root, size, nproc)
        (path,) = self.config_paths()
        cfg = bconfig.load_config(path)
        n = cfg.n if size == "full" else KERNEL_N_TINY
        self.process = ProcessSpec(kind=ProcessKind.AR1_GAUSSIAN, n=n, seed=0,
                                   burn_in=cfg.burn_in, mu=cfg.mu, sigma2=cfg.sigma2)
        bandwidth = None if cfg.bandwidth == "silverman" else float(cfg.bandwidth)
        self.estimator = risk.KernelEstimatorSpec(kernel_name=cfg.kernel,
                                                  bandwidth=bandwidth)
        self.reference = risk.gaussian(cfg.mu, cfg.sigma2)
        self.config = cfg
        self.configs = [(path.stem, cfg)]
        self.workers = nproc
        self.trials = KERNEL_TRIALS[size]
        self.values = self.trials * n

    def run(self, member, out, workers):
        report = risk.monte_carlo_risk(
            self.process, self.estimator, self.reference, trials=self.trials,
            p=self.config.p, master_seed=member_seed(self.config.master_seed, member),
            workers=workers)
        return {member: {f"trial-{t}": float(v).hex()
                         for t, v in enumerate(report.per_trial, 1)}}


class Figures(Workload):
    """Every shipped config except the two sweeps, run serially by each of
    nproc clients; client i runs the inputs of member + i."""

    name = "figures"

    def __init__(self, root, size, nproc):
        super().__init__(root, size, nproc)
        self.configs = []
        for path in self.config_paths():
            cfg = bconfig.load_config(path)
            if size == "tiny" and cfg.n is not None:
                cfg.n = min(cfg.n, FIGURE_N_TINY)
            self.configs.append((path.stem, cfg))
        self.workers = nproc
        self.clients = nproc
        self.values = self.clients * sum(cfg.n or 0 for _, cfg in self.configs)

    def members(self, member):
        return [(member + i) % POOL for i in range(self.clients)]

    def run(self, member, out, workers):
        tasks = [(self.configs, m, out / f"member-{m}") for m in self.members(member)]
        if workers == 1:
            return dict(map(_figure_client, tasks))
        # forked like the program's own Monte Carlo pools
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            return dict(pool.map(_figure_client, tasks))


def _figure_client(task) -> tuple[int, dict[str, str]]:
    """Run every figure config for one member, serially."""
    configs, member, out = task
    fingerprints = {}
    for stem, cfg in configs:
        cfg = replace(cfg, master_seed=member_seed(cfg.master_seed, member))
        try:
            files = runner.run_experiment(cfg, out / stem)
        except Exception:
            # the config's outputs stay missing and fail the golden check
            traceback.print_exc(file=sys.stderr)
            continue
        fingerprints.update({f"{stem}/{p.name}": file_digest(p) for p in files})
    return member, fingerprints


WORKLOADS = {cls.name: cls for cls in (HistogramSweep, KernelRisk, Figures)}
