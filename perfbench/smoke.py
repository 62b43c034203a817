"""Smoke check of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload with --size tiny, untraced and traced, and checks that
each run is correct and prints every metric of BENCHMARK.json by name with
its unit, plus failed_ratio, and that the layer self times and the tracer
overhead of a traced run leave little of its wall time unattributed.  Then
checks that a copy holding only BENCHMARK.json and this directory fails
without printing a result.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the traced pass's time outside every top-level span, as a share of its wall
UNATTRIBUTED_SHARE = 0.05


def got_value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", "tiny")
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        problems.append(f"{where}: metrics {got}")
    for name, unit in got.items():
        if not any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in lines):
            problems.append(f"{where}: no line for {name} [{unit}]")
    if trace and not abs(got_value(result, "trace.unattributed_s")) \
            < UNATTRIBUTED_SHARE * got_value(result, "trace.wall_s"):
        problems.append(f"{where}: layer self times and tracer overhead leave "
                        f"{got_value(result, 'trace.unattributed_s')} s of "
                        f"{got_value(result, 'trace.wall_s')} s unattributed")
    if not any(line.startswith("metric failed_ratio = ") for line in lines):
        problems.append(f"{where}: no failed_ratio line")
    if not any(line.startswith("provenance ") for line in lines):
        problems.append(f"{where}: no provenance line")
    return problems


def check_without_program() -> list[str]:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, "--workload", "figures", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"without the program: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_without_program()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"checked {workload} trace={trace}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
