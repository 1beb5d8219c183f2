"""Spread report: is the benchmark steady enough for its own bounds?

    python3 perfbench/spread.py --runs 10 --out .perfbench_work/a.jsonl
    python3 perfbench/spread.py --from .perfbench_work/a.jsonl
    python3 perfbench/spread.py --from a.jsonl --from b.jsonl

The first form runs ``run.py`` ``--runs`` times per workload, one seed
per round and workloads interleaved in rotating order, and appends every
result to ``--out``.  It then prints, per workload and end-to-end metric,
the median, the quartiles and the interquartile range as a share of the
median, flagging ``OVER`` a spread above the metric's bound and ``warn``
one above a third of it (``setup_s`` is judged on its median alone, so
its spread is never ``OVER``).
Given two result files, it also prints how far each median moved from the
first set to the second, in the metric's worse direction, against the
bound.  Exits 1 when any run failed or any flag is ``OVER``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict

from common import quartiles, relative_spread
from run import HERE, ROOT, load_spec


def run_sets(runs, workloads, seconds, seed_base, out) -> None:
    for round_index in range(runs):
        shift = round_index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            seed = seed_base + round_index
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=str(ROOT),
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "metrics": {}}
            stamps = [line[len("# stamp "):] for line in lines
                      if line.startswith("# stamp ")]
            entry = {"workload": workload, "seed": seed,
                     "exit_code": proc.returncode, "result": result,
                     "stamp": json.loads(stamps[-1]) if stamps else None}
            with open(out, "a") as handle:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            values = {name: round(metric["value"], 4)
                      for name, metric in result["metrics"].items()}
            print(f"round {round_index} {workload} seed {seed} "
                  f"exit {proc.returncode} {values}", flush=True)


def load(path):
    """workload → metric → values, plus the count of failed runs."""
    table = defaultdict(lambda: defaultdict(list))
    failed = 0
    with open(path) as handle:
        for line in handle:
            entry = json.loads(line)
            result = entry["result"]
            if entry["exit_code"] != 0 or not result.get("correct"):
                failed += 1
                continue
            for name, metric in result["metrics"].items():
                table[entry["workload"]][name].append(metric["value"])
    return table, failed


def report(paths) -> int:
    spec = {entry["name"]: entry for entry in load_spec()["end_to_end"]}
    sets = [load(path) for path in paths]
    bad = False
    for index, (table, failed) in enumerate(sets):
        print(f"set {index + 1}: {paths[index]} ({failed} failed runs)")
        bad |= failed > 0
        for workload in sorted(table):
            for name, entry in spec.items():
                values = table[workload][name]
                if not values:
                    continue
                q1, median, q3 = quartiles(values)
                spread = relative_spread(values)
                flag = ""
                if name != "setup_s" and spread > entry["bound"]:
                    flag, bad = "OVER", True
                elif spread > entry["bound"] / 3:
                    flag = "warn"
                print(f"  {workload:<18} {name:<15} n={len(values):<3} "
                      f"median {median:<10.5g} q1 {q1:<10.5g} "
                      f"q3 {q3:<10.5g} spread {spread:6.1%} "
                      f"(bound {entry['bound']:.0%}) {flag}")
    if len(sets) == 2:
        print("median drift, set 2 vs set 1 (positive = worse)")
        first, second = sets[0][0], sets[1][0]
        for workload in sorted(first):
            for name, entry in spec.items():
                if not first[workload][name] or not second[workload][name]:
                    continue
                before = quartiles(first[workload][name])[1]
                after = quartiles(second[workload][name])[1]
                drift = (after - before) / before
                if entry["better"] == "higher":
                    drift = -drift
                flag = ""
                if drift > entry["bound"]:
                    flag, bad = "OVER", True
                print(f"  {workload:<18} {name:<15} {drift:+7.1%} "
                      f"(bound {entry['bound']:.0%}) {flag}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default every workload")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--out", help="append run results to this file")
    parser.add_argument("--from", dest="sources", action="append",
                        default=[], help="report on saved results (1 or 2)")
    args = parser.parse_args()
    if args.sources:
        return report(args.sources)
    if not args.out:
        parser.error("--out is required when running")
    spec = load_spec()
    workloads = ([name for name in args.workloads.split(",") if name]
                 or [entry["name"] for entry in spec["workloads"]])
    run_sets(args.runs, workloads, args.seconds or spec["run_seconds"],
             args.seed_base, args.out)
    return report([args.out])


if __name__ == "__main__":
    sys.exit(main())
