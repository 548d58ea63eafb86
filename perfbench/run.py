"""Benchmark one cyberevo workload in this process and print its metrics.

    python3 perfbench/run.py --workload fsm-episodes --seed 1000 --seconds 30 --trace 0

Run from anywhere; the package is imported from the ``src/`` directory
beside this one, never from an installed copy.  The command

1. sets the workload up several times, each time importing ``cyberevo``
   afresh (and as often again after the timed region), and reports the
   median as ``setup_s``;
2. runs rounds of the workload's seeded unit stream while ``--seconds``
   allow another (at least one round), then runs the first unit again;
   each end-to-end timing is a median over the rounds;
3. checks that the second run of the first unit gives the same bytes,
   that each round pinned in ``expected.json`` for this seed gives its
   pinned digest, and the episode accounting;
4. prints one line per metric, then the result as one JSON line.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` each round runs untraced and then traced; the metrics are
the per-layer ones and the tracing overhead, and the spans are written
to ``.perfbench_out/``.  Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DEFAULT_SEED = 1000
SETUPS_EACH_END = 16

sys.path.insert(0, HERE)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "episodes_per_s": "1/s",
    "episode_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="work per unit and round; tiny is for the self-test")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"),
                        help="pinned output digests")
    return parser.parse_args(argv)


def forget_cyberevo():
    """Drop every ``cyberevo`` module, so the next import starts afresh."""
    for name in [m for m in sys.modules if m.split(".")[0] == "cyberevo"]:
        del sys.modules[name]
    gc.collect()


def fresh_import():
    """Import ``cyberevo`` from ``src/``, never from an installed copy."""
    import cyberevo

    if not os.path.abspath(cyberevo.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported cyberevo from {cyberevo.__file__}, not from {SRC}")


def set_up(workload_cls, seed, size, out_dir):
    """One fresh import plus workload set-up: (seconds, workload)."""
    forget_cyberevo()
    started = time.perf_counter()
    fresh_import()
    workload = workload_cls(seed, size, out_dir)
    return time.perf_counter() - started, workload


class Checker:
    """Output and accounting checks over every unit and round of one run."""

    def __init__(self, pinned):
        self.pinned = pinned or []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _fail(self, problems):
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        self.problems.extend(problems)
        self.failed += len(problems)

    def unit(self, result, probed_episodes, faults):
        problems = list(result.problems)
        if probed_episodes != result.episodes:
            problems.append(f"{probed_episodes} run_episode calls seen, {result.episodes} reported")
        self.attempted += result.episodes + result.llm_calls
        self.failed += faults + result.llm_failures
        self._fail(problems)

    def same(self, what, got, want):
        self.attempted += 1
        if got != want:
            self._fail([f"{what}: got {got}, expected {want}"])

    def round_digest(self, index, digest):
        if index < len(self.pinned):
            self.same(f"round {index} digest differs from the pinned one", digest,
                      self.pinned[index])


@dataclass
class Round:
    seconds: float
    episodes: int
    llm_tokens: int
    digest: str
    latencies_ms: list[float]
    first_output: bytes


def round_units(workload, index):
    """The stream positions of the units in round ``index``."""
    return range(index * workload.per_round, (index + 1) * workload.per_round)


def run_round(workload, index, probe, checker):
    """Round ``index``'s units, timed as a whole; outputs digested in unit order."""
    digest = hashlib.sha256()
    episodes = tokens = 0
    first_output = None
    seen = len(probe.latencies)
    started = time.perf_counter()
    for unit in round_units(workload, index):
        calls, faults = len(probe.latencies), probe.faults
        result = workload.run_unit(unit)
        checker.unit(result, len(probe.latencies) - calls, probe.faults - faults)
        digest.update(result.output)
        episodes += result.episodes
        tokens += result.llm_tokens
        if first_output is None:
            first_output = result.output
    elapsed = time.perf_counter() - started
    latencies_ms = [t * 1000.0 for t in probe.latencies[seen:]]
    return Round(elapsed, episodes, tokens, digest.hexdigest(), latencies_ms, first_output)


def percentile(values, q):
    """The q-th percentile, by ``statistics.quantiles``' default method."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def measure(workload, probe, checker, seconds):
    """End-to-end metrics: medians over the untraced rounds that fill
    ``seconds`` (at least one)."""
    rounds = []
    started = time.perf_counter()
    while not rounds or (time.perf_counter() - started
                         + statistics.median(r.seconds for r in rounds) <= seconds):
        rounds.append(run_round(workload, len(rounds), probe, checker))
        checker.round_digest(len(rounds) - 1, rounds[-1].digest)
    # Repeats must agree byte for byte: run the first unit once more.
    checker.same("first unit's output on a second run", workload.run_unit(0).output,
                 rounds[0].first_output)
    metrics = {
        "run_s": statistics.median(r.seconds for r in rounds),
        "episodes_per_s": statistics.median(r.episodes / r.seconds for r in rounds),
        "episode_ms_p50": statistics.median(statistics.median(r.latencies_ms) for r in rounds),
    }
    every_ms = [t for r in rounds for t in r.latencies_ms]
    details = {"round_s": [r.seconds for r in rounds], "episode_samples": len(every_ms),
               "episode_ms_p90": percentile(every_ms, 90),
               "episodes_per_round": rounds[0].episodes}
    return metrics, details


def measure_traced(workload, probe, checker, seconds):
    """Per-layer metrics from traced rounds, each run right after the
    same round untraced.

    A traced round must give the same digest as its untraced twin, so the
    wrappers provably leave every random stream alone.
    """
    from tracer import LAYER_NAMES, Tracer

    tracer = Tracer()
    plain, traced = [], []
    faults = 0
    started = time.perf_counter()
    while not traced or (time.perf_counter() - started
                         + statistics.median(r.seconds for r in plain)
                         + statistics.median(r.seconds for r in traced) <= seconds):
        index = len(plain)
        plain.append(run_round(workload, index, probe, checker))
        checker.round_digest(index, plain[-1].digest)
        tracer.install()
        before = probe.faults
        try:
            traced.append(run_round(workload, index, probe, checker))
        finally:
            tracer.uninstall()
        faults += probe.faults - before
        checker.same(f"traced round {index} digest differs from the untraced one",
                     traced[-1].digest, plain[-1].digest)
    wall = sum(r.seconds for r in traced)
    n = len(traced)
    metrics = {}
    table = {}
    for name in LAYER_NAMES:
        calls, busy, self_s = tracer.totals[name]
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.busy_pct"] = 100.0 * busy / wall
        metrics[f"{name}.self_pct"] = 100.0 * self_s / wall
        table[name] = {"calls": calls / n, "busy_s": busy / n, "self_s": self_s / n}
    decodes = tracer.totals["grammar.decode"][0]
    mutations = tracer.totals["llm.mutate"][0]
    metrics["episodes.run_episode.faults"] = faults / n
    metrics["episodes.run_episode.p90_ms"] = percentile(
        [t for r in plain for t in r.latencies_ms], 90)
    metrics["grammar.decode.valid_ratio"] = (
        tracer.counters["grammar.decode.valid"] / decodes if decodes else 0.0)
    metrics["llm.success_ratio"] = tracer.counters["llm.mutate.ok"] / mutations if mutations else 0.0
    metrics["llm.tokens"] = sum(r.llm_tokens for r in traced) / n
    metrics["trace_overhead"] = statistics.median(
        t.seconds / p.seconds for p, t in zip(plain, traced))
    details = {"untraced_round_s": [r.seconds for r in plain],
               "traced_round_s": [r.seconds for r in traced],
               "per_round": table, "spans": len(tracer.spans)}
    return metrics, details, tracer


PER_LAYER_UNITS = {"calls": "count", "busy_pct": "%", "self_pct": "%", "faults": "count",
                   "p90_ms": "ms",
                   "valid_ratio": "ratio", "success_ratio": "ratio", "tokens": "count",
                   "trace_overhead": "ratio"}


def unit_of(name):
    return END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def src_lines():
    total = 0
    for folder, _, files in os.walk(os.path.join(SRC, "cyberevo")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def run_facts(args):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "cyberevo")):
        print(f"error: no cyberevo sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracer import EpisodeProbe
    from workloads import SIZES, WORKLOADS, output_dir

    with open(args.expected) as handle:
        pinned = json.load(handle).get(args.workload, {}).get(args.size, {}).get(str(args.seed))
    out_dir = output_dir(OUT, args.workload, args.seed, args.size)
    workload_cls = WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUPS_EACH_END):
        seconds, workload = set_up(workload_cls, args.seed, args.size, out_dir)
        setup_times.append(seconds)
    probe = EpisodeProbe()
    probe.install()
    checker = Checker(pinned)
    try:
        if args.trace:
            metrics, details, tracer = measure_traced(workload, probe, checker, args.seconds)
        else:
            metrics, details = measure(workload, probe, checker, args.seconds)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        probe.uninstall()
    if not args.trace:
        # Set-up is timed at both ends of the run, so that a slow or fast
        # spell of the machine moves the median less.
        setup_times += [set_up(workload_cls, args.seed, args.size, out_dir)[0]
                        for _ in range(SETUPS_EACH_END)]
        metrics["setup_s"] = statistics.median(setup_times)
        details["setup_s"] = setup_times

    facts = run_facts(args)
    facts["work"] = SIZES[args.workload][args.size]
    facts["pinned_digest"] = pinned
    stem = os.path.join(out_dir, f"trace{args.trace}")
    if args.trace:
        tracer.write_spans(stem + ".spans.jsonl")
    failed_share = checker.failed / checker.attempted
    with open(stem + ".json", "w") as handle:
        json.dump({"facts": facts, "metrics": metrics, "details": details,
                   "attempted": checker.attempted, "failed": checker.failed,
                   "failed_share": failed_share, "problems": checker.problems},
                  handle, indent=2, sort_keys=True)
        handle.write("\n")

    print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace:
        print(f"{'layer (per traced round)':32s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s}")
        for name, row in details["per_round"].items():
            print(f"{name:32s} {row['calls']:10.1f} {row['busy_s']:10.4f} {row['self_s']:10.4f}")
    else:
        print(f"rounds: {len(details['round_s'])}, "
              f"episode latency samples: {details['episode_samples']}")
        print(f"episode_ms_p90 {details['episode_ms_p90']:.6g} ms (not gated, see README.md)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    print(f"failed_share {failed_share:.6g} ({checker.failed}/{checker.attempted})")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not checker.problems else 1


if __name__ == "__main__":
    sys.exit(main())
