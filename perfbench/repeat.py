"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/repeat.py [--runs 10] [--first-seed 1] [--trace 0]
                                [--against OLD.json] [workload ...]

For each workload, runs ``run.py`` once per seed, one run at a time, and
prints per end-to-end metric the median of the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median. A spread above a third of the metric's bound
in BENCHMARK.json is flagged. ``--against`` compares the medians with those
of an earlier set and flags a metric whose median got worse by more than its
bound. The runs are saved to ``.perfbench_out/repeat-<time>.json``.
With ``--trace 1`` every run uses the first seed, and a count metric that
differs between the runs is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import OUT_ROOT, ROOT, spread


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    *_, record, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["run_record"] = json.loads(record)["run_record"]
    if not result["correct"]:
        print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--against", help="an earlier repeat-*.json to compare medians with")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    old = json.loads(open(args.against).read()) if args.against else {}

    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in workloads:
        seeds = ([args.first_seed] * args.runs if args.trace
                 else range(args.first_seed, args.first_seed + args.runs))
        runs[workload] = [run_once(workload, seed, spec["run_seconds"], args.trace)
                          for seed in seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs[workload])
        for metric in declared:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            if args.trace:
                if metric["unit"] == "count" and len(set(values)) > 1:
                    print(f"{workload:17} {name}: count differs between runs "
                          f"{sorted(set(values))}")
                continue
            med, sprd, bound = statistics.median(values), spread(values), metric["bound"]
            flag = "" if sprd <= bound / 3 else "  SPREAD > bound/3"
            if old.get(workload):
                old_med = statistics.median(r["metrics"][name]["value"]
                                            for r in old[workload])
                worse = (med - old_med if metric["better"] == "lower"
                         else old_med - med) / old_med
                flag += f"  vs old {worse:+.3f}" + ("  WORSE" if worse > bound else "")
            print(f"{workload:17} {name:12} median {med:12.5g}  spread "
                  f"{sprd:.4f}  bound {bound}{flag}")
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(runs), encoding="utf-8")
    print(f"runs saved to {path}; all correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
