"""Record the golden outputs of every workload, size and pool member.

    python3 perfbench/record_goldens.py [WORKLOAD ...]

Run once, at the commit whose outputs are the reference; it rewrites the
named workloads' entries of goldens.json (all workloads by default).  Every
pass runs once on one worker and once on nproc workers; every run of a pool
member must give the same bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main(names) -> int:
    path = HERE / "goldens.json"
    goldens = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    nproc = len(os.sched_getaffinity(0))
    scratch = Path(tempfile.mkdtemp(prefix="goldens-"))
    try:
        for name in names or workloads.WORKLOADS:
            goldens[name] = {}
            for size in workloads.SIZES:
                workload = workloads.WORKLOADS[name](ROOT, size, nproc)
                members = {}
                for member in range(workloads.POOL):
                    counts = sorted({1, workload.workers})
                    runs = [workload.run(member, scratch / f"{name}-{size}-{member}-{w}", w)
                            for w in counts]
                    for run in runs:
                        for m, outputs in run.items():
                            if members.setdefault(m, outputs) != outputs:
                                print(f"{name} {size} member {m}: outputs differ between "
                                      f"runs on {counts} workers", file=sys.stderr)
                                return 1
                    print(f"{name} {size} member {member}: workers {counts}", flush=True)
                goldens[name][size] = [members[m] for m in range(workloads.POOL)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
