"""Named experiment configurations, the runner, and trace summaries.

Experiment names follow ``<algorithm>-<mode>[-<grammar variant>]``:
``-B`` evolves blue against the fixed red adversary, ``-R`` evolves red
against the fixed blue adversary, and ``-C`` coevolves both sides.
Grammar-variant suffixes (TR/TN/TO/TC/OE) select the target-selection
or observation-set variant used by grammar-based runs.

A run writes two artifacts into the output directory: a deterministic
fitness-trace CSV (equal configuration and seed ⇒ equal bytes) and a
metadata JSON sidecar holding everything run-specific — wall-clock
time, configuration echo, seed scheme, and any LLM call statistics.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from .coevolution import coevolve
from .controllers.fsm import load_fsm_adversary
from .errors import ExperimentSpecError
from .evolution import EvoConfig, EvolutionResult, evolve_one_sided, make_decoder
from .grammar.variants import Variant
from .llm import EchoClient, ExpandingMockClient, HttpClient
from .scenario.config import ScenarioConfig
from .traces import FitnessTrace

DEFAULT_MASTER_SEED = 1000

SEED_SCHEME = (
    "Episode seeds derive from (master_seed, trial, iteration, row index, "
    "column index, repetition) through named SeedSequence streams; variation "
    "and controller randomness use separate streams of the same master seed."
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One named training configuration."""

    name: str
    algorithm: str  # ES | GA | GE | GE-LLM
    evolving: str  # blue | red | both
    variant: Variant = Variant.BASELINE
    controllers_per_team: str = "one"
    description: str = ""

    def __post_init__(self) -> None:
        # A variant given by name ("tc") becomes the Variant member.
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError as exc:
            known = ", ".join(v.value for v in Variant)
            raise ExperimentSpecError(
                f"{self.name}: unknown grammar variant {self.variant!r}; known: {known}"
            ) from exc


def _registry() -> dict[str, ExperimentSpec]:
    specs: list[ExperimentSpec] = []
    for algorithm in ("ES", "GA", "GE", "GE-LLM"):
        specs.append(
            ExperimentSpec(
                f"{algorithm}-B", algorithm, "blue",
                description=f"{algorithm} evolves blue vs the fixed red adversary",
            )
        )
        specs.append(
            ExperimentSpec(
                f"{algorithm}-R", algorithm, "red",
                description=f"{algorithm} evolves red vs the fixed blue adversary",
            )
        )
        specs.append(
            ExperimentSpec(
                f"{algorithm}-C", algorithm, "both",
                description=f"{algorithm} coevolves both sides, all-vs-all",
            )
        )
    for mode, side in (("B", "blue"), ("R", "red")):
        for variant in (Variant.TR, Variant.TN, Variant.TO, Variant.TC, Variant.OE):
            tag = variant.value.upper()
            specs.append(
                ExperimentSpec(
                    f"GE-{mode}-{tag}", "GE", side, variant=variant,
                    description=f"GE evolves {side} with the {tag} grammar variant",
                )
            )
    return {spec.name: spec for spec in specs}


REGISTRY = _registry()


def list_experiments() -> list[ExperimentSpec]:
    return list(REGISTRY.values())


def get_experiment(name: str) -> ExperimentSpec:
    try:
        return REGISTRY[name]
    except KeyError as exc:
        known = ", ".join(sorted(REGISTRY))
        raise ExperimentSpecError(f"unknown experiment {name!r}; known: {known}") from exc


_SPEC_FILE_INTS = {
    "master_seed", "iterations", "trials", "population_size", "repetitions", "steps",
}
_SPEC_FILE_KEYS = _SPEC_FILE_INTS | {"experiment", "controllers_per_team", "variant", "llm"}


def _check_master_seed(master_seed: int, where: str = "") -> None:
    """Seed parts are 64-bit words, so a master seed outside [0, 2**64)
    would silently alias one inside it."""
    if not 0 <= master_seed < 2**64:
        raise ExperimentSpecError(f"{where}master_seed must be in [0, 2**64), got {master_seed}")


@dataclass
class RunSettings:
    """Spec-file contents: which experiment plus overrides."""

    experiment: str
    master_seed: int = DEFAULT_MASTER_SEED
    iterations: Optional[int] = None
    trials: Optional[int] = None
    population_size: Optional[int] = None
    repetitions: Optional[int] = None
    steps: Optional[int] = None
    controllers_per_team: Optional[str] = None
    variant: Optional[str] = None
    llm: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str) -> "RunSettings":
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ExperimentSpecError(f"cannot read run settings {path!r}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ExperimentSpecError(f"{path}: run settings must be a JSON object")
        unknown = set(raw) - _SPEC_FILE_KEYS
        if unknown:
            raise ExperimentSpecError(f"{path}: unknown settings {sorted(unknown)}")
        if "experiment" not in raw:
            raise ExperimentSpecError(f"{path}: 'experiment' is required")
        if not isinstance(raw["experiment"], str):
            raise ExperimentSpecError(f"{path}: 'experiment' must be a string, got {raw['experiment']!r}")
        for key in ("controllers_per_team", "variant"):
            if raw.get(key) is not None and not isinstance(raw[key], str):
                raise ExperimentSpecError(f"{path}: {key!r} must be a string or null, got {raw[key]!r}")
        for key in _SPEC_FILE_INTS & set(raw):
            if type(raw[key]) is not int:  # a bool is not a count
                raise ExperimentSpecError(f"{path}: {key!r} must be an integer, got {raw[key]!r}")
        if "master_seed" in raw:
            _check_master_seed(raw["master_seed"], f"{path}: ")
        if not isinstance(raw.get("llm", {}), dict):
            raise ExperimentSpecError(f"{path}: 'llm' must be a JSON object")
        return cls(**raw)


# The settings each llm client kind takes.
_LLM_KEYS = {
    "mock": {"kind"},
    "echo": {"kind"},
    "http": {"kind", "url", "model", "api_key", "api_key_env", "timeout"},
}


def _make_llm_client(settings: dict, master_seed: int):
    """The client an ``llm`` settings block selects; malformed settings
    are refused here, before anything runs."""
    kind = settings.get("kind", "mock")
    if not isinstance(kind, str) or kind not in _LLM_KEYS:
        raise ExperimentSpecError(f"unknown llm client kind {kind!r}")
    unknown = set(settings) - _LLM_KEYS[kind]
    if unknown:
        raise ExperimentSpecError(f"unknown settings {sorted(unknown)} for the {kind} llm client")
    if kind == "mock":
        return ExpandingMockClient(seed=master_seed)
    if kind == "echo":
        return EchoClient()
    for key in ("url", "model"):
        if not isinstance(settings.get(key), str) or not settings[key]:
            raise ExperimentSpecError(f"http llm settings need {key!r} as a non-empty string")
    for key in ("api_key", "api_key_env"):
        if settings.get(key) is not None and not isinstance(settings[key], str):
            raise ExperimentSpecError(f"http llm setting {key!r} must be a string")
    timeout = settings.get("timeout", 30.0)
    # A bool is not a duration; a timeout that can never pass would turn
    # every call into a transport failure.
    if type(timeout) not in (int, float) or not 0 < timeout < math.inf:
        raise ExperimentSpecError(f"http llm 'timeout' must be a positive number of seconds, got {timeout!r}")
    api_key = settings.get("api_key")
    env = settings.get("api_key_env")
    if api_key is None and env:
        api_key = os.environ.get(env)
        if not api_key:
            raise ExperimentSpecError(f"http llm settings name api_key_env {env!r}, which is unset or empty")
    return HttpClient(settings["url"], settings["model"], api_key=api_key, timeout=timeout)


@dataclass
class ExperimentOutcome:
    """Artifacts and results of one finished experiment run."""

    spec: ExperimentSpec
    csv_path: str
    meta_path: str
    result: EvolutionResult
    wall_time_s: float


def run_experiment(
    experiment: ExperimentSpec | str,
    output_dir: str,
    master_seed: int = DEFAULT_MASTER_SEED,
    evo: Optional[EvoConfig] = None,
    scenario: Optional[ScenarioConfig] = None,
    llm_settings: Optional[dict] = None,
) -> ExperimentOutcome:
    """Run one named experiment and write its CSV + metadata artifacts."""
    _check_master_seed(master_seed)
    spec = get_experiment(experiment) if isinstance(experiment, str) else experiment
    if spec.variant is not Variant.BASELINE and spec.algorithm not in ("GE", "GE-LLM"):
        raise ExperimentSpecError(
            f"{spec.name}: grammar variant {spec.variant.value!r} needs a GE or GE-LLM "
            f"experiment, not {spec.algorithm}"
        )
    scenario = scenario if scenario is not None else ScenarioConfig()
    if evo is None:
        evo = EvoConfig(controllers_per_team=spec.controllers_per_team)
    elif evo.controllers_per_team != spec.controllers_per_team:
        raise ExperimentSpecError(
            f"{spec.name}: the spec asks for {spec.controllers_per_team!r} controllers per team, "
            f"the evolution config for {evo.controllers_per_team!r}"
        )
    # Every experiment checks its llm settings, so a malformed block is
    # never silently ignored; only GE-LLM uses the client.
    llm_client = _make_llm_client(llm_settings or {}, master_seed)
    if spec.algorithm != "GE-LLM":
        llm_client = None

    started = time.perf_counter()
    if spec.evolving == "both":
        result = coevolve(
            make_decoder(spec.algorithm, "red", evo.controllers_per_team, spec.variant),
            make_decoder(spec.algorithm, "blue", evo.controllers_per_team, spec.variant),
            scenario, evo, master_seed, spec.name, llm_client=llm_client,
        )
    else:
        side = spec.evolving
        adversary_side = "red" if side == "blue" else "blue"
        result = evolve_one_sided(
            side,
            make_decoder(spec.algorithm, side, evo.controllers_per_team, spec.variant),
            [load_fsm_adversary(adversary_side)],
            scenario, evo, master_seed, spec.name, llm_client=llm_client,
        )
    wall = time.perf_counter() - started

    # Only a run that returned gets a directory: a rejected spec leaves none.
    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{spec.name}.csv")
    meta_path = os.path.join(output_dir, f"{spec.name}.meta.json")
    result.trace.write_csv(csv_path)
    meta = {
        "experiment": spec.name,
        "algorithm": spec.algorithm,
        "evolving": spec.evolving,
        "variant": spec.variant.value,
        "master_seed": master_seed,
        "wall_time_s": wall,
        "episodes_total": result.episodes_total,
        "seed_scheme": SEED_SCHEME,
        "evolution_config": asdict(evo),
        "scenario_config": asdict(scenario),
    }
    if result.llm_report is not None:
        meta["llm"] = result.llm_report
    tmp = f"{meta_path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, meta_path)
    return ExperimentOutcome(
        spec=spec,
        csv_path=csv_path,
        meta_path=meta_path,
        result=result,
        wall_time_s=wall,
    )


def _curve(trace: FitnessTrace, side: str) -> list[float]:
    """Cross-trial mean of the per-iteration best for one side."""
    per_iteration: dict[int, list[float]] = {}
    for record in trace.records:
        if record.side != side:
            continue
        per_iteration.setdefault(record.iteration, []).append(record.best)
    return [
        sum(values) / len(values)
        for _, values in sorted(per_iteration.items())
    ]


def _peak(trace: FitnessTrace, side: str) -> Optional[float]:
    values = [r.best for r in trace.records if r.side == side]
    return max(values) if values else None


def summarize_traces(paths: Sequence[str]) -> str:
    """Human-readable summary of trace files, plus coevolution comparisons.

    For every coevolved algorithm with a matching one-sided run in the
    input, the report states whether coevolution kept peak fitness below
    the one-sided peak for that side (a reported observation, not a
    checked property).
    """
    traces: dict[str, FitnessTrace] = {}
    for path in paths:
        trace = FitnessTrace.read_csv(path)
        for record in trace.records:
            traces.setdefault(record.algorithm, FitnessTrace()).records.append(record)

    lines: list[str] = []
    for name in sorted(traces):
        trace = traces[name]
        for side in trace.sides():
            curve = _curve(trace, side)
            best = _peak(trace, side)
            final = curve[-1] if curve else float("nan")
            lines.append(
                f"{name} [{side}]: trials={len(trace.trials())} "
                f"iterations={len(curve)} peak_best={best:.1f} "
                f"final_mean_best={final:.1f}"
            )
    for name in sorted(traces):
        if not name.endswith("-C"):
            continue
        family = name[: -len("-C")]
        for side, suffix in (("blue", "-B"), ("red", "-R")):
            partner = f"{family}{suffix}"
            if partner not in traces:
                continue
            coev_peak = _peak(traces[name], side)
            solo_peak = _peak(traces[partner], side)
            if coev_peak is None or solo_peak is None:
                continue
            dampened = coev_peak < solo_peak
            lines.append(
                f"dampening {family} [{side}]: coevolved peak {coev_peak:.1f} "
                f"{'stays below' if dampened else 'exceeds'} one-sided peak {solo_peak:.1f}"
            )
    return "\n".join(lines)
