"""Record the reference results of every pool task from the current source.

    python3 perfbench/record.py [workload ...]

Run from the root of a source checkout, on the commit whose outputs are the
references. Every task runs at one worker; ``references/<name>.json`` holds
the result-carrying fields of each task (see ``Workload.result``), which a
benchmark run compares its outputs against. Recording all four workloads
takes a few minutes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import POOL_SEED, REFERENCE_DIR, WORKLOADS  # noqa: E402


def record(workload, work: Path) -> dict:
    work.mkdir(parents=True)
    workload.write_fixtures(work)
    tasks = []
    for index in range(workload.pool_size):
        output = workload.run(work, index, threads=1)
        tasks.append(workload.result(work, output))
        print(f"{workload.name} {index + 1}/{workload.pool_size}", file=sys.stderr)
    return {"workload": workload.name, "pool_seed": POOL_SEED, "tasks": tasks}


def main(names: list[str]) -> int:
    work_root = ROOT / ".perfbench_work" / "record"
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names or sorted(WORKLOADS):
            refs = record(WORKLOADS[name], work_root / name)
            (REFERENCE_DIR / f"{name}.json").write_text(
                json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
