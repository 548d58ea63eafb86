"""Command-line interface: run experiments, summarize traces, list names."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Optional, Sequence

from .errors import CyberevoError
from .evolution import EvoConfig
from .experiments import (
    RunSettings,
    get_experiment,
    list_experiments,
    run_experiment,
    summarize_traces,
)
from .scenario.config import ScenarioConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyberevo",
        description="Evolutionary training in a simulated cyber-defense scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run one experiment from a settings file or a registry name",
    )
    run.add_argument("spec", help="settings JSON path or experiment name")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--iterations", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--population", type=int, default=None)
    run.add_argument("--repetitions", type=int, default=None)
    run.add_argument(
        "--steps", type=int, default=None,
        help="episode length (phase boundaries scale proportionally)",
    )
    run.add_argument("--output-dir", default="runs", help="artifact directory")
    run.add_argument(
        "--mock-llm", action="store_true",
        help="force the offline mock client for LLM-driven mutation",
    )

    summarize = sub.add_parser("summarize", help="summarize fitness trace CSV files")
    summarize.add_argument("traces", nargs="+", help="trace CSV paths")

    sub.add_parser("list-experiments", help="list known experiment names")
    return parser


def _settings_for(args) -> RunSettings:
    if os.path.exists(args.spec):
        settings = RunSettings.from_file(args.spec)
    else:
        get_experiment(args.spec)  # fail fast on unknown names
        settings = RunSettings(experiment=args.spec)
    if args.seed is not None:
        settings.master_seed = args.seed
    for attr in ("iterations", "trials", "repetitions", "steps"):
        value = getattr(args, attr)
        if value is not None:
            setattr(settings, attr, value)
    if args.population is not None:
        settings.population_size = args.population
    if args.mock_llm:
        settings.llm = {"kind": "mock"}
    return settings


def _scenario_for(steps: Optional[int]) -> ScenarioConfig:
    """Scenario for a custom episode length, phase boundaries scaled to fit."""
    if steps is None:
        return ScenarioConfig()
    default = ScenarioConfig()
    scale = steps / default.steps
    first = max(1, round(default.phase_boundaries[0] * scale))
    second = max(first + 1, round(default.phase_boundaries[1] * scale))
    return ScenarioConfig(steps=steps, phase_boundaries=(first, second))


def _run(args) -> int:
    settings = _settings_for(args)
    spec = get_experiment(settings.experiment)
    if settings.variant is not None:
        spec = dataclasses.replace(spec, variant=settings.variant)
    if settings.controllers_per_team is not None:
        spec = dataclasses.replace(
            spec, controllers_per_team=settings.controllers_per_team
        )

    evo_kwargs = {"controllers_per_team": spec.controllers_per_team}
    for attr in ("iterations", "trials", "population_size", "repetitions"):
        value = getattr(settings, attr)
        if value is not None:
            evo_kwargs[attr] = value
    evo = EvoConfig(**evo_kwargs)
    scenario = _scenario_for(settings.steps)

    outcome = run_experiment(
        spec,
        output_dir=args.output_dir,
        master_seed=settings.master_seed,
        evo=evo,
        scenario=scenario,
        llm_settings=settings.llm or None,
    )
    records = outcome.result.trace.records
    best = max(r.best for r in records) if records else float("nan")
    print(f"experiment: {outcome.spec.name}")
    print(f"trace: {outcome.csv_path}")
    print(f"meta: {outcome.meta_path}")
    print(f"episodes: {outcome.result.episodes_total}")
    print(f"peak best fitness: {best:.1f}")
    print(f"wall time: {outcome.wall_time_s:.1f}s")
    return 0


def _summarize(args) -> int:
    print(summarize_traces(args.traces))
    return 0


def _list(_args) -> int:
    for spec in list_experiments():
        print(f"{spec.name:12s} {spec.description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _run, "summarize": _summarize, "list-experiments": _list}
    try:
        return handlers[args.command](args)
    except (CyberevoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
