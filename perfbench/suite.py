"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/suite.py --seeds 7001 7002 7003 --trace

Each run is a separate ``run.py`` process, one after another.  For every
workload and end-to-end metric the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``; a spread above a third of the bound is flagged.
``--trace`` adds one traced run per workload on the first seed and
prints its per-layer table and tracing overhead.  Every run's result
line and the run facts go to ``.perfbench_out/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
    return completed.returncode, lines


def spread(values):
    """Median, quartiles, and the quartiles' distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"seconds": args.seconds, "seeds": args.seeds, "runs": {}}
    status = 0
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            code, lines = run_once(workload, seed, args.seconds, 0)
            status |= code
            if lines:
                results.append(json.loads(lines[-1]))
                print(f"{workload} seed {seed}: exit {code} " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
            facts = [line[len("facts: "):] for line in lines if line.startswith("facts: ")]
            if facts and "facts" not in record:
                record["facts"] = facts[0]
        record["runs"][workload] = results
        if len(results) >= 2:
            print(f"{workload}: {len(results)} runs, failed {sum(r['failed'] for r in results)}"
                  f"/{sum(r['attempted'] for r in results)}")
            for name in results[0]["metrics"]:
                median, q1, q3, share = spread([r["metrics"][name]["value"] for r in results])
                bound = bounds.get(name)
                flag = " <-- above bound/3" if bound and share > bound / 3 else ""
                print(f"  {name:16s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                      f"  spread {share:6.3f}  bound {bound}{flag}")
        if args.trace:
            code, lines = run_once(workload, args.seeds[0], args.seconds, 1)
            status |= code
            print("\n".join(line for line in lines[:-1]))
            record["runs"][f"{workload} traced"] = [json.loads(lines[-1])] if lines else []
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "suite.json"), "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
