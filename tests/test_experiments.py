"""Experiment registry, runner artifacts, summaries, and the CLI."""

from __future__ import annotations

import dataclasses
import json

import pytest

from cyberevo.cli import _scenario_for, main
from cyberevo.errors import ExperimentSpecError, ScenarioConfigError
from cyberevo.evolution import EvoConfig
from cyberevo.experiments import (
    DEFAULT_MASTER_SEED,
    REGISTRY,
    RunSettings,
    _make_llm_client,
    get_experiment,
    list_experiments,
    run_experiment,
    summarize_traces,
)
from cyberevo.grammar.variants import Variant
from cyberevo.llm import EchoClient, ExpandingMockClient, HttpClient
from cyberevo.scenario.config import ScenarioConfig
from cyberevo.scenario.topology import TopologyBounds
from cyberevo.traces import CSV_COLUMNS, FitnessTrace

TINY = ScenarioConfig(
    steps=6,
    phase_boundaries=(2, 4),
    bounds=TopologyBounds(servers=(1, 1), user_hosts=(3, 3), services=(1, 1)),
)

SMALL_EVO = EvoConfig(population_size=2, iterations=2, trials=1, repetitions=1)


# ---------------------------------------------------------------------------
# registry


def test_registry_contains_every_algorithm_mode_combination():
    names = {spec.name for spec in list_experiments()}
    for algorithm in ("ES", "GA", "GE", "GE-LLM"):
        for mode in ("B", "R", "C"):
            assert f"{algorithm}-{mode}" in names
    for mode in ("B", "R"):
        for tag in ("TR", "TN", "TO", "TC", "OE"):
            assert f"GE-{mode}-{tag}" in names
    assert len(names) == 12 + 10


def test_registry_specs_are_consistent():
    assert get_experiment("ES-B").evolving == "blue"
    assert get_experiment("GA-R").evolving == "red"
    assert get_experiment("GE-C").evolving == "both"
    assert get_experiment("GE-B-TC").variant is Variant.TC
    assert get_experiment("GE-R-OE").variant is Variant.OE
    assert get_experiment("GE-B").variant is Variant.BASELINE
    with pytest.raises(ExperimentSpecError):
        get_experiment("GA-X")
    assert REGISTRY["GE-LLM-B"].algorithm == "GE-LLM"


# ---------------------------------------------------------------------------
# run settings files


def test_run_settings_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "experiment": "GA-B", "master_seed": 7, "iterations": 3,
        "variant": "tc", "llm": {"kind": "mock"},
    }))
    settings = RunSettings.from_file(str(path))
    assert settings.experiment == "GA-B"
    assert settings.master_seed == 7
    assert settings.iterations == 3
    assert settings.variant == "tc"
    assert settings.llm == {"kind": "mock"}
    assert settings.trials is None  # untouched fields stay at their defaults


def test_run_settings_validation(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ExperimentSpecError):
        RunSettings.from_file(str(missing))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ExperimentSpecError):
        RunSettings.from_file(str(bad_json))
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(ExperimentSpecError):
        RunSettings.from_file(str(not_object))
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text('{"experiment": "GA-B", "warp": 9}')
    with pytest.raises(ExperimentSpecError):
        RunSettings.from_file(str(unknown_key))
    no_experiment = tmp_path / "none.json"
    no_experiment.write_text('{"master_seed": 1}')
    with pytest.raises(ExperimentSpecError):
        RunSettings.from_file(str(no_experiment))
    assert RunSettings(experiment="GA-B").master_seed == DEFAULT_MASTER_SEED


HTTP = {"kind": "http", "url": "http://localhost:1/v1", "model": "m"}


def test_llm_client_factory():
    assert isinstance(_make_llm_client({}, 1), ExpandingMockClient)
    assert isinstance(_make_llm_client({"kind": "mock"}, 1), ExpandingMockClient)
    assert isinstance(_make_llm_client({"kind": "echo"}, 1), EchoClient)
    http = _make_llm_client(HTTP, 1)
    assert isinstance(http, HttpClient)
    assert http.timeout == 30.0
    http = _make_llm_client(HTTP | {"api_key": "k", "timeout": 2}, 1)
    assert (http.url, http.model, http.api_key, http.timeout) == (HTTP["url"], "m", "k", 2)
    # null stands for a key not given
    assert _make_llm_client(HTTP | {"api_key": None, "api_key_env": None}, 1).api_key is None
    with pytest.raises(ExperimentSpecError):
        _make_llm_client({"kind": "http", "url": "u"}, 1)  # model missing
    with pytest.raises(ExperimentSpecError):
        _make_llm_client({"kind": "telepathy"}, 1)


@pytest.mark.parametrize("llm", [
    HTTP | {"timeout": "soon"},
    HTTP | {"timeout": -1},
    HTTP | {"timeout": 0},
    HTTP | {"timeout": True},
    HTTP | {"timeout": float("nan")},
    {"kind": "mock", "sed": 3},
    {"kind": "echo", "url": "http://localhost:1/v1"},
    HTTP | {"retries": 2},
    HTTP | {"url": 7},
    HTTP | {"url": ""},
    HTTP | {"model": ["m"]},
    HTTP | {"model": ""},
    HTTP | {"api_key_env": 1},
    {"kind": ["http"]},
], ids=str)
def test_malformed_llm_settings_are_rejected_before_the_run(llm, tmp_path, capsys):
    # A timeout no call can meet would turn every LLM child into a random
    # restart, and a misspelt key would be silently ignored.
    with pytest.raises(ExperimentSpecError):
        _make_llm_client(llm, 1)
    out = tmp_path / "out"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment": "GE-LLM-B", "steps": 6, "llm": llm}))
    assert main(["run", str(spec), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_malformed_llm_settings_are_rejected_for_every_experiment(tmp_path, capsys):
    out = tmp_path / "out"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment": "GE-B", "steps": 6, "llm": {"kind": "telepathy"}}))
    assert main(["run", str(spec), "--output-dir", str(out)]) == 2
    assert "telepathy" in capsys.readouterr().err
    assert not out.exists()


def test_an_unset_api_key_variable_is_rejected_before_the_run(tmp_path, monkeypatch, capsys):
    # Without the key every call would fail as transport and GE-LLM
    # would quietly turn into random restarts.
    monkeypatch.delenv("CYBEREVO_TEST_API_KEY", raising=False)
    llm = {"kind": "http", "url": "http://localhost:1/v1", "model": "m",
           "api_key_env": "CYBEREVO_TEST_API_KEY"}
    with pytest.raises(ExperimentSpecError, match="CYBEREVO_TEST_API_KEY"):
        _make_llm_client(llm, 1)
    out = tmp_path / "out"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"experiment": "GE-LLM-B", "steps": 6, "llm": llm}))
    assert main(["run", str(spec), "--output-dir", str(out)]) == 2
    assert "CYBEREVO_TEST_API_KEY" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.setenv("CYBEREVO_TEST_API_KEY", "secret")
    assert _make_llm_client(llm, 1).api_key == "secret"


# ---------------------------------------------------------------------------
# run_experiment artifacts


def test_run_experiment_writes_csv_and_metadata(tmp_path):
    outcome = run_experiment(
        "ES-B", str(tmp_path), master_seed=5, evo=SMALL_EVO, scenario=TINY
    )
    assert outcome.csv_path.endswith("ES-B.csv")
    assert outcome.meta_path.endswith("ES-B.meta.json")
    trace = FitnessTrace.read_csv(outcome.csv_path)
    assert trace.records == outcome.result.trace.records
    assert len(trace.records) == SMALL_EVO.trials * SMALL_EVO.iterations
    with open(outcome.meta_path) as handle:
        meta = json.load(handle)
    assert meta["experiment"] == "ES-B"
    assert meta["algorithm"] == "ES"
    assert meta["master_seed"] == 5
    assert meta["episodes_total"] == outcome.result.episodes_total
    assert meta["wall_time_s"] == pytest.approx(outcome.wall_time_s)
    assert meta["evolution_config"]["population_size"] == 2
    assert meta["scenario_config"]["steps"] == 6
    # The echoes hold what a caller can set; the fixed settings are constants.
    assert sorted(meta["evolution_config"]) == [
        "controllers_per_team", "iterations", "population_size", "repetitions", "trials",
    ]
    assert sorted(meta["scenario_config"]) == ["bounds", "phase_boundaries", "steps"]
    assert "seed_scheme" in meta
    assert "llm" not in meta  # no language model involved
    # wall time lives in the sidecar only, never in the deterministic CSV
    with open(outcome.csv_path) as handle:
        assert handle.readline().strip() == ",".join(CSV_COLUMNS)


def test_metadata_echoes_the_whole_scenario_config(tmp_path):
    outcome = run_experiment("GA-B", str(tmp_path), evo=SMALL_EVO, scenario=TINY)
    with open(outcome.meta_path) as handle:
        echoed = json.load(handle)["scenario_config"]
    assert echoed["bounds"] == {"servers": [1, 1], "user_hosts": [3, 3], "services": [1, 1]}
    bounds = TopologyBounds(**{name: tuple(r) for name, r in echoed["bounds"].items()})
    rebuilt = ScenarioConfig(**{
        **echoed, "bounds": bounds, "phase_boundaries": tuple(echoed["phase_boundaries"]),
    })
    assert rebuilt == TINY
    # The fixed structure is package constants, not configuration.
    with pytest.raises(TypeError):
        ScenarioConfig(red_slots=7)


def test_run_experiment_csvs_are_byte_identical_across_runs(tmp_path):
    first = run_experiment(
        "GA-C", str(tmp_path / "a"), master_seed=5, evo=SMALL_EVO, scenario=TINY
    )
    second = run_experiment(
        "GA-C", str(tmp_path / "b"), master_seed=5, evo=SMALL_EVO, scenario=TINY
    )
    with open(first.csv_path, "rb") as fa, open(second.csv_path, "rb") as fb:
        assert fa.read() == fb.read()
    third = run_experiment(
        "GA-C", str(tmp_path / "c"), master_seed=6, evo=SMALL_EVO, scenario=TINY
    )
    with open(first.csv_path, "rb") as fa, open(third.csv_path, "rb") as fc:
        assert fa.read() != fc.read()


def test_run_experiment_coevolution_logs_both_sides(tmp_path):
    outcome = run_experiment(
        "GA-C", str(tmp_path), master_seed=9, evo=SMALL_EVO, scenario=TINY
    )
    trace = outcome.result.trace
    assert trace.sides() == ("blue", "red")
    assert len(trace.records) == SMALL_EVO.trials * SMALL_EVO.iterations * 2


def test_run_experiment_with_llm_reports_call_stats(tmp_path):
    outcome = run_experiment(
        "GE-LLM-B", str(tmp_path), master_seed=3, evo=SMALL_EVO, scenario=TINY,
        llm_settings={"kind": "echo"},
    )
    with open(outcome.meta_path) as handle:
        meta = json.load(handle)
    assert meta["llm"]["calls"] > 0
    assert meta["llm"]["calls"] == (
        meta["llm"]["successes"]
        + meta["llm"]["parse_failures"]
        + meta["llm"]["transport_failures"]
    )


def test_non_llm_experiments_ignore_llm_clients(tmp_path):
    outcome = run_experiment(
        "ES-B", str(tmp_path), master_seed=2, evo=SMALL_EVO, scenario=TINY,
        llm_settings={"kind": "echo"},
    )
    assert outcome.result.llm_report is None


# ---------------------------------------------------------------------------
# summaries


def write_trace(path, records):
    trace = FitnessTrace()
    for record in records:
        trace.append(*record)
    trace.write_csv(str(path))
    return str(path)


def test_summarize_reports_peaks_and_dampening(tmp_path):
    solo = write_trace(tmp_path / "GA-B.csv", [
        (0, 0, "blue", "GA-B", -20.0, -30.0, 20),
        (0, 1, "blue", "GA-B", -10.0, -25.0, 18),
    ])
    coev = write_trace(tmp_path / "GA-C.csv", [
        (0, 0, "red", "GA-C", 5.0, 1.0, 200),
        (0, 0, "blue", "GA-C", -35.0, -40.0, 200),
        (0, 1, "red", "GA-C", 6.0, 2.0, 200),
        (0, 1, "blue", "GA-C", -25.0, -33.0, 200),
    ])
    report = summarize_traces([solo, coev])
    assert "GA-B [blue]" in report
    assert "peak_best=-10.0" in report
    assert (
        "dampening GA [blue]: coevolved peak -25.0 stays below one-sided peak -10.0"
        in report
    )
    assert "dampening GA [red]" not in report  # no GA-R input to compare against


def test_summarize_reports_exceeding_coevolution(tmp_path):
    solo = write_trace(tmp_path / "GE-R.csv", [
        (0, 0, "red", "GE-R", 3.0, 1.0, 10),
    ])
    coev = write_trace(tmp_path / "GE-C.csv", [
        (0, 0, "red", "GE-C", 8.0, 4.0, 50),
        (0, 0, "blue", "GE-C", -8.0, -9.0, 50),
    ])
    report = summarize_traces([coev, solo])
    assert "dampening GE [red]: coevolved peak 8.0 exceeds one-sided peak 3.0" in report


# ---------------------------------------------------------------------------
# CLI


def test_scenario_for_scales_phase_boundaries():
    assert _scenario_for(None).phase_boundaries == (25, 50)
    assert _scenario_for(75).phase_boundaries == (25, 50)
    assert _scenario_for(8).phase_boundaries == (3, 5)
    assert _scenario_for(3).phase_boundaries == (1, 2)
    with pytest.raises(ScenarioConfigError):
        _scenario_for(2)


def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    assert "ES-B" in out and "GE-LLM-C" in out and "GE-B-TC" in out


def test_cli_run_by_name_with_overrides(tmp_path, capsys):
    code = main([
        "run", "ES-B", "--seed", "4", "--steps", "6", "--iterations", "2",
        "--trials", "1", "--population", "2", "--repetitions", "1",
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "experiment: ES-B" in out
    assert (tmp_path / "ES-B.csv").exists()
    assert (tmp_path / "ES-B.meta.json").exists()
    meta = json.loads((tmp_path / "ES-B.meta.json").read_text())
    assert meta["master_seed"] == 4
    assert meta["scenario_config"]["steps"] == 6
    assert meta["evolution_config"]["iterations"] == 2


def test_cli_run_from_settings_file(tmp_path, capsys):
    spec = tmp_path / "settings.json"
    spec.write_text(json.dumps({
        "experiment": "GE-B",
        "variant": "tc",
        "master_seed": 11,
        "iterations": 2,
        "trials": 1,
        "population_size": 2,
        "repetitions": 1,
        "steps": 6,
    }))
    code = main(["run", str(spec), "--output-dir", str(tmp_path / "out")])
    assert code == 0
    meta = json.loads((tmp_path / "out" / "GE-B.meta.json").read_text())
    assert meta["variant"] == "tc"
    assert meta["master_seed"] == 11
    capsys.readouterr()


TINY_RUN = ["--steps", "6", "--iterations", "1", "--trials", "1", "--population", "2",
            "--repetitions", "1"]


@pytest.mark.parametrize("llm", [None, {"kind": "echo"}], ids=["no-llm", "echo"])
@pytest.mark.parametrize("seed", [-1, 2**64, 0], ids=str)
def test_master_seeds_outside_64_bits_are_refused_by_name(seed, llm, tmp_path, capsys):
    """Seed parts are 64-bit words: -1 would run as 2**64 - 1 and 2**64
    as 0, so both are refused before anything runs, whatever the llm
    block says."""
    spec = tmp_path / "spec.json"
    settings = {"experiment": "GE-B", "master_seed": seed} | ({"llm": llm} if llm else {})
    spec.write_text(json.dumps(settings))
    by_flag = ["run", "GE-B", f"--seed={seed}"]
    for argv in (["run", str(spec)], by_flag):
        out = tmp_path / "out"
        code = main([*argv, *TINY_RUN, "--output-dir", str(out)])
        err = capsys.readouterr().err
        if seed == 0:
            assert code == 0, err
            assert json.loads((out / "GE-B.meta.json").read_text())["master_seed"] == 0
            (out / "GE-B.csv").unlink()
            (out / "GE-B.meta.json").unlink()
            out.rmdir()
            continue
        assert code == 2
        assert err.startswith("error: ") and "master_seed must be in [0, 2**64)" in err, err
        assert (str(spec) in err) == (argv[1] == str(spec)), err
        assert not out.exists()
    if seed != 0:
        with pytest.raises(ExperimentSpecError, match="master_seed"):
            run_experiment("GE-B", str(tmp_path / "direct"), master_seed=seed)
        assert not (tmp_path / "direct").exists()


def test_cli_rejects_unknown_experiments(tmp_path, capsys):
    assert main(["run", "WARP-9", "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_cli_reports_rejected_settings_without_a_traceback(tmp_path, capsys):
    for flags in (
        ["--population", "1"],
        ["--iterations", "0"],
        ["--repetitions", "0"],
        ["--trials", "0"],
    ):
        assert main(["run", "GA-B", *flags, "--output-dir", str(tmp_path)]) == 2, flags
        assert capsys.readouterr().err.startswith("error: "), flags
    spec = tmp_path / "spec.json"
    for settings in (
        {"experiment": "GE-LLM-C", "controllers_per_team": "many"},
        {"experiment": "GA-B", "iterations": "2"},
        {"experiment": "GA-B", "trials": True},
        {"experiment": "GE-LLM-B", "llm": "mock"},
    ):
        spec.write_text(json.dumps(settings))
        assert main(["run", str(spec), "--output-dir", str(tmp_path)]) == 2, settings
        assert capsys.readouterr().err.startswith("error: "), settings
    assert list(tmp_path.iterdir()) == [spec]


@pytest.mark.parametrize("settings", [
    {"experiment": ["GE-B"]},
    {"experiment": None},
    {"experiment": 7},
    {"experiment": "GE-B", "controllers_per_team": 1},
    {"experiment": "GE-B", "controllers_per_team": ["one"]},
    {"experiment": "GE-B", "variant": ["tc"]},
    {"experiment": "GE-B", "variant": False},
], ids=str)
def test_a_setting_of_the_wrong_type_is_rejected_without_a_traceback(settings, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(settings))
    with pytest.raises(ExperimentSpecError, match="must be a string"):
        RunSettings.from_file(str(spec))
    out = tmp_path / "out"
    assert main(["run", str(spec), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_a_rejected_spec_leaves_no_output_directory(tmp_path):
    out = tmp_path / "never-made"
    spec = dataclasses.replace(get_experiment("GE-LLM-C"), controllers_per_team="many")
    evo = dataclasses.replace(SMALL_EVO, controllers_per_team="many")
    with pytest.raises(ValueError, match="single shared controller"):
        run_experiment(spec, str(out), evo=evo, scenario=TINY, llm_settings={"kind": "mock"})
    assert not out.exists()


def test_conflicting_controllers_per_team_are_rejected(tmp_path):
    out = tmp_path / "never-made"
    spec = dataclasses.replace(get_experiment("GE-B"), controllers_per_team="many")
    with pytest.raises(ExperimentSpecError, match="controllers per team"):
        run_experiment(spec, str(out), evo=SMALL_EVO, scenario=TINY)
    with pytest.raises(ExperimentSpecError, match="controllers per team"):
        run_experiment("GE-B", str(out), scenario=TINY,
                       evo=dataclasses.replace(SMALL_EVO, controllers_per_team="many"))
    assert not out.exists()


def test_a_grammar_variant_on_a_matrix_experiment_is_rejected(tmp_path, capsys):
    # ES and GA decoders ignore the variant, so the metadata would lie about it
    out = tmp_path / "out"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "experiment": "ES-B", "variant": "tc", "iterations": 1, "trials": 1,
        "population_size": 2, "repetitions": 1, "steps": 6,
    }))
    assert main(["run", str(spec), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'tc'" in err
    assert not out.exists()
    ga_tc = dataclasses.replace(get_experiment("GA-B"), variant=Variant.TC)
    with pytest.raises(ExperimentSpecError, match="GE or GE-LLM"):
        run_experiment(ga_tc, str(out), evo=SMALL_EVO, scenario=TINY)
    assert not out.exists()


def test_a_variant_given_by_name_is_coerced(tmp_path):
    es_baseline = dataclasses.replace(get_experiment("ES-B"), variant="baseline")
    assert es_baseline.variant is Variant.BASELINE
    out = tmp_path / "es"
    run_experiment(es_baseline, str(out), evo=SMALL_EVO, scenario=TINY)
    assert json.loads((out / "ES-B.meta.json").read_text())["variant"] == "baseline"
    ge_tc = dataclasses.replace(get_experiment("GE-B"), variant="tc")
    assert ge_tc.variant is Variant.TC
    out = tmp_path / "ge"
    run_experiment(ge_tc, str(out), evo=SMALL_EVO, scenario=TINY)
    assert json.loads((out / "GE-B.meta.json").read_text())["variant"] == "tc"
    with pytest.raises(ExperimentSpecError, match="unknown grammar variant 'median'"):
        dataclasses.replace(get_experiment("GE-B"), variant="median")


def test_cli_summarize(tmp_path, capsys):
    path = write_trace(tmp_path / "ES-B.csv", [
        (0, 0, "blue", "ES-B", -12.0, -20.0, 20),
    ])
    assert main(["summarize", path]) == 0
    out = capsys.readouterr().out
    assert "ES-B [blue]" in out
    assert main(["summarize", str(tmp_path / "nope.csv")]) == 2
