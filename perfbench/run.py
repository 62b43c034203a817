"""betadens benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--size full|tiny]

Run from anywhere; the program is imported from ../src next to this
directory.  The run warms up with one untimed pass at the tiny size, then
repeats passes while the next one is expected to end within --seconds;
between passes it measures set-up in fresh processes, spread over the run.
Pass k starts at pool member (seed + k) mod 16; every output is checked
against the digests recorded at the seed commit.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see README.md).  The last line of standard output is the JSON
result {"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
output is correct, 1 when one is not, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import catalog
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=catalog.NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the pool members; 0 starts at the shipped seeds")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a small size (smoke check)")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its largest child."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_seconds(config_paths) -> float:
    """Import betadens and parse the configs in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           *(str(p) for p in config_paths)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *(ROOT / "configs").glob("*.cfg")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(workload, args, nproc: int, members: list[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload.name,
        "size": workload.size,
        "seed": args.seed,
        "members": members,
        "master_seeds": {stem: cfg.master_seed for stem, cfg in workload.configs},
        "seed_rule": "master_seed + 1000 * member",
        "values_per_pass": workload.values,
        "trials_per_pass": workload.trials,
        "workers": workload.workers,
    }


class Bench:
    """Runs and checks passes of one workload; counts the checked operations."""

    def __init__(self, workload, goldens: dict, scratch: Path, pool: int):
        self.workload = workload
        self.pool = pool
        self.goldens = goldens
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self._passes = 0

    def run_pass(self, member: int, workers: int, tracer=None,
                 workload=None) -> tuple[float, float]:
        """One checked pass of the run's workload, or of `workload` if given;
        returns (wall seconds, cpu seconds)."""
        workload = workload or self.workload
        self._passes += 1
        out = self.scratch / f"pass-{self._passes}"
        if tracer is not None:
            tracer.group = f"pass-{self._passes}/member-{member}"
            tracer.install()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            outputs = workload.run(member, out, workers)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outputs = {}
        finally:
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        golden = self.goldens.get(workload.name, {}).get(workload.size, [])
        for m in workload.members(member):
            self._check(m, outputs.get(m, {}), golden[m] if m < len(golden) else {})
        return wall, cpu

    def _check(self, member: int, got: dict, expected: dict) -> None:
        ops = set(expected) | set(got)
        bad = sorted(op for op in ops if got.get(op) != expected.get(op))
        self.attempted += max(len(ops), 1)
        self.failed += len(bad) if ops else 1
        for op in bad:
            print(f"mismatch member={member} {op}: got {got.get(op)} "
                  f"want {expected.get(op)}", file=sys.stderr)


def repeat(deadline: float, step) -> None:
    """Call step() until the next call is expected to end after the deadline."""
    durations = []
    while True:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return


def end_to_end(bench: Bench, args, start: float, deadline: float):
    """Timed passes; the set-up probes run between them, spread over the run."""
    workload = bench.workload
    walls, cpus, members, setup = [], [], [], []

    def probe_until(count: float):
        while len(setup) < count:
            setup.append(setup_seconds(workload.config_paths()))

    def step(k):
        member = (args.seed + k) % bench.pool
        wall, cpu = bench.run_pass(member, workload.workers)
        walls.append(wall)
        cpus.append(cpu)
        members.append(workload.members(member))
        elapsed = (time.perf_counter() - start) / (deadline - start)
        probe_until(SETUP_PROBES * min(elapsed, 1.0))

    probe_until(1)
    repeat(deadline, step)
    probe_until(SETUP_PROBES)
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "values_per_s": (workload.values / wall, "1/s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"passes {len(walls)}: wall_s {[round(w, 4) for w in walls]}",
             f"cpu_s {[round(c, 4) for c in cpus]}",
             f"setup_s {[round(s, 4) for s in setup]}"]
    return metrics, members, notes


def layer_metrics(tracer, start: int, stop: int) -> dict[str, float]:
    """Per-layer metrics of the traced pass spans[start:stop]."""
    summary = tracer.summary(start, stop)
    out = {}
    for metric, (span, kind) in [*spans.TIME_METRICS.items(), *spans.COUNT_METRICS.items()]:
        if metric != "config.parse_s":
            out[metric] = summary.get(span, {}).get(kind, 0)
    out["trace.overhead_s"] = summary["tracer"]["total"]
    return out


def traced(bench: Bench, args, deadline: float, tracer, setup_parse: float):
    """Per-layer metrics from serial traced passes.

    Each step runs the pass untraced at the workload's worker count, then,
    with a pool, untraced on one worker, and last traced on one worker, all
    on one input.  Spans are recorded in this process only, so the traced
    pass runs serially; the pool metrics compare the serial pass (the busy
    worker-seconds) with workers x the pool pass's wall time.
    """
    workload = bench.workload
    member = args.seed % bench.pool
    workers = workload.workers
    rows, slowdowns = [], []

    def step(k):
        pool_wall, _ = bench.run_pass(member, workers)
        serial_wall = bench.run_pass(member, 1)[0] if workers > 1 else pool_wall
        start = tracer.mark()
        wall, _ = bench.run_pass(member, 1, tracer)
        row = layer_metrics(tracer, start, tracer.mark())
        row["risk.pool_busy_ratio"] = serial_wall / (workers * pool_wall)
        row["risk.pool_overhead_s"] = workers * pool_wall - serial_wall
        row["trace.wall_s"] = wall
        row["trace.unattributed_s"] = (wall - row["trace.overhead_s"]
                                       - sum(row[m] for m in spans.SELF_METRICS))
        rows.append(row)
        slowdowns.append(wall - serial_wall)

    repeat(deadline, step)
    metrics = {}
    for name in rows[0]:
        value = statistics.fmean(row[name] for row in rows)
        if name in spans.COUNT_METRICS:
            # the passes share one input, so their counts are equal
            metrics[name] = (int(value) if value.is_integer() else value,
                             "bytes" if name.endswith(".bytes") else "count")
        elif name == "risk.pool_busy_ratio":
            metrics[name] = (value, "ratio")
        else:
            metrics[name] = (value, "s")
    metrics["config.parse_s"] = (setup_parse, "s")
    identity = (f"trace: wall {metrics['trace.wall_s'][0]:.4f} s = layer self times + "
                f"tracer overhead {metrics['trace.overhead_s'][0]:.4f} s + unattributed "
                f"{metrics['trace.unattributed_s'][0]:.6f} s; {workers} workers x pool "
                f"wall = serial wall + {metrics['risk.pool_overhead_s'][0]:.4f} s idle; "
                f"steps {len(rows)}")
    # traced and untraced serial passes run seconds apart: noise, not overhead
    note = (f"traced minus untraced serial wall (not the overhead): "
            f"{statistics.fmean(slowdowns):.4f} s")
    return metrics, [workload.members(member)] * len(rows), [identity, note]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "betadens" / "__init__.py").is_file():
        print(f"error: no betadens package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    nproc = len(os.sched_getaffinity(0))
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="utf-8"))
    cls = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.group = "setup"
        tracer.install()
    try:
        workload = cls(ROOT, args.size, nproc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_parse = tracer.summary(0).get("config.parse", {}).get("self", 0.0) if tracer else 0.0

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    bench = Bench(workload, goldens, scratch, workloads.POOL)
    try:
        # warm-up: lazy set-up (imports, first pool, caches) runs at tiny size
        bench.run_pass((args.seed - 1) % bench.pool, workload.workers,
                       workload=cls(ROOT, "tiny", nproc))
        start = time.perf_counter()
        deadline = start + args.seconds
        if tracer is None:
            metrics, members, notes = end_to_end(bench, args, start, deadline)
        else:
            metrics, members, notes = traced(bench, args, deadline, tracer, setup_parse)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if tracer is not None:
            spans_path = OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl"
            tracer.write(spans_path)

    print("provenance " + json.dumps(provenance(workload, args, nproc, members)))
    for note in notes:
        print(note)
    if tracer is not None:
        print(f"spans written to {spans_path}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"metric failed_ratio = {bench.failed / bench.attempted!r} "
          f"({bench.failed} of {bench.attempted} operations)")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
