"""Evolutionary and coevolutionary training of cyber-defense controllers
inside a discrete-step red/blue/green network scenario."""

from .coevolution import all_vs_all, coevolve, mean_expected_utility
from .episodes import EpisodeResult, run_episode
from .errors import (
    ControllerError,
    CyberevoError,
    ExperimentSpecError,
    GrammarParseError,
    GrammarVariantError,
    ProgramParseError,
    ScenarioConfigError,
    SimulationFault,
)
from .evolution import (
    EvoConfig,
    EvolutionResult,
    Individual,
    MatrixTeamDecoder,
    RuleTeamDecoder,
    evaluate_team,
    evolve_one_sided,
    fresh_individual,
    make_decoder,
    one_point_crossover,
    tournament_select,
)
from .experiments import (
    ExperimentOutcome,
    ExperimentSpec,
    RunSettings,
    get_experiment,
    list_experiments,
    run_experiment,
    summarize_traces,
)
from .llm import (
    CompletionResult,
    EchoClient,
    ExpandingMockClient,
    HttpClient,
    LlmStats,
    MutationOutcome,
    ScriptedClient,
    build_prompt,
    llm_mutate,
)
from .scenario.config import ScenarioConfig
from .scenario.engine import ScenarioSim
from .traces import FitnessTrace, TraceRecord, running_best

__version__ = "0.1.0"

__all__ = [
    "CompletionResult",
    "ControllerError",
    "CyberevoError",
    "EchoClient",
    "EpisodeResult",
    "EvoConfig",
    "EvolutionResult",
    "ExpandingMockClient",
    "ExperimentOutcome",
    "ExperimentSpec",
    "ExperimentSpecError",
    "FitnessTrace",
    "GrammarParseError",
    "GrammarVariantError",
    "HttpClient",
    "Individual",
    "LlmStats",
    "MatrixTeamDecoder",
    "MutationOutcome",
    "ProgramParseError",
    "RuleTeamDecoder",
    "RunSettings",
    "ScenarioConfig",
    "ScenarioConfigError",
    "ScenarioSim",
    "ScriptedClient",
    "SimulationFault",
    "TraceRecord",
    "all_vs_all",
    "build_prompt",
    "coevolve",
    "evaluate_team",
    "evolve_one_sided",
    "fresh_individual",
    "get_experiment",
    "list_experiments",
    "llm_mutate",
    "make_decoder",
    "mean_expected_utility",
    "one_point_crossover",
    "run_episode",
    "run_experiment",
    "summarize_traces",
    "tournament_select",
    "running_best",
]
