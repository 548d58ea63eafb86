"""Outside-in instrumentation of cyberevo's public functions.

Nothing under ``src/`` is edited.  Both classes here rebind names on
cyberevo's modules and classes while they are installed, and put the
originals back on ``uninstall``.  A module-level function is rebound in
every loaded ``cyberevo`` module that holds it (``run_episode`` is bound
in ``episodes``, ``evolution``, ``coevolution`` and the package), so a
call is seen whichever import made it.  A method is rebound on its class.

- ``EpisodeProbe`` times each ``run_episode`` call and counts the
  ``SimulationFault``s raised out of it.  It costs two clock reads per
  episode and stays installed in untraced runs, where it supplies the
  episode latency percentiles, the fault count and an episode count
  that is checked against the program's own.
- ``Tracer`` records a span per call at each layer boundary in
  ``LAYERS``.  Spans are kept in memory and written out once, at exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (layer name, where it is defined, kept as a raw span?).  Per-decision
# calls happen several times per step; they are not kept one by one but
# totalled into the nearest raw ancestor span, so span memory grows with
# steps, not with decisions.  Self time is exact for both kinds.
LAYERS = (
    ("evolution.loop", "cyberevo.evolution:evolve_one_sided", True),
    ("evolution.loop", "cyberevo.coevolution:coevolve", True),
    ("coevolution.all_vs_all", "cyberevo.coevolution:all_vs_all", True),
    ("evolution.fresh_individual", "cyberevo.evolution:fresh_individual", True),
    ("grammar.decode", "cyberevo.evolution:RuleTeamDecoder.decode", True),
    ("grammar.parse_program", "cyberevo.grammar.program:parse_program", True),
    ("llm.mutate", "cyberevo.llm:llm_mutate", True),
    ("llm.build_prompt", "cyberevo.llm:build_prompt", True),
    ("llm.complete", "cyberevo.llm:ExpandingMockClient.complete", True),
    ("episodes.run_episode", "cyberevo.episodes:run_episode", True),
    ("engine.setup", "cyberevo.scenario.engine:ScenarioSim.__init__", True),
    ("topology.generate", "cyberevo.scenario.topology:generate_topology", True),
    ("engine.step", "cyberevo.scenario.engine:ScenarioSim.step", True),
    ("engine.agent_context", "cyberevo.scenario.engine:ScenarioSim.agent_context", False),
    ("episodes.resolve_target", "cyberevo.episodes:resolve_heuristic_target", False),
    ("controllers.matrix_decide", "cyberevo.controllers.matrix:MatrixController.decide", False),
    ("controllers.classify", "cyberevo.controllers.classifier:classify_state", False),
    ("controllers.rule_decide", "cyberevo.controllers.rules:RuleController.decide", False),
    ("traces.write_csv", "cyberevo.traces:FitnessTrace.write_csv", True),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def _resolve(spec: str):
    """(owner, attribute, object) for a ``module:attr`` or ``module:Class.attr``."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _bindings(spec: str) -> list[tuple[object, str, object]]:
    """Every (namespace, attribute, original) that must be rebound for ``spec``."""
    owner, attr, original = _resolve(spec)
    if isinstance(owner, type):
        return [(owner, attr, original)]
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "cyberevo":
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                found.append((module, name, original))
    return found


class _Patches:
    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, spec: str, make_wrapper) -> None:
        bindings = _bindings(spec)
        wrapper = make_wrapper(bindings[0][2])
        for owner, attr, original in bindings:
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class EpisodeProbe:
    """Latency and fault count of every ``run_episode`` call."""

    def __init__(self):
        self.latencies: list[float] = []
        self.faults = 0
        self._patches = _Patches()

    def install(self) -> None:
        fault = importlib.import_module("cyberevo.errors").SimulationFault
        clock = time.perf_counter
        latencies = self.latencies

        def make(run_episode):
            def probed(*args, **kwargs):
                started = clock()
                try:
                    return run_episode(*args, **kwargs)
                except fault:
                    self.faults += 1
                    raise
                finally:
                    latencies.append(clock() - started)
            return probed

        self._patches.rebind("cyberevo.episodes:run_episode", make)

    def uninstall(self) -> None:
        self._patches.restore()


class _Frame:
    __slots__ = ("span_id", "owner", "episode", "start", "child", "totals")

    def __init__(self, span_id, owner, episode):
        self.span_id = span_id
        self.owner = owner  # nearest frame kept as a raw span (itself if raw)
        self.episode = episode
        self.start = 0.0
        self.child = 0.0
        self.totals: dict[str, list] = {}


class Tracer:
    """Spans at the layer boundaries in ``LAYERS``.

    ``totals`` maps a layer name to ``[calls, busy_s, self_s]``, where
    self time is a call's duration minus the time its child spans
    cover.  ``counters`` holds the useful-outcome counts behind the
    ratios: valid decodes and successful LLM mutations.  A raw span is
    ``(id, name, start, end, parent id, episode seed, totals of the
    per-decision calls made inside it)``; the episode seed is the id
    shared by every span of one episode.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {name: [0, 0.0, 0.0] for name in LAYER_NAMES}
        self.counters = {"grammar.decode.valid": 0, "llm.mutate.ok": 0}
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._patches = _Patches()

    def install(self) -> None:
        for name, spec, raw in LAYERS:
            self._patches.rebind(spec, lambda fn, n=name, r=raw: self._wrap(fn, n, r))

    def uninstall(self) -> None:
        self._patches.restore()

    def _observe(self, name: str, result) -> None:
        if name == "grammar.decode" and result.valid:
            self.counters["grammar.decode.valid"] += 1
        elif name == "llm.mutate" and result.ok:
            self.counters["llm.mutate.ok"] += 1

    def _wrap(self, fn, name: str, raw: bool):
        stack = self._stack
        spans = self.spans
        totals = self.totals[name]
        clock = time.perf_counter
        starts_episode = name == "episodes.run_episode"
        observed = name in ("grammar.decode", "llm.mutate")

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if starts_episode:
                episode = args[1] if len(args) > 1 else kwargs["seed"]
            else:
                episode = parent.episode if parent is not None else None
            if raw:
                self._next_id += 1
                frame = _Frame(self._next_id, None, episode)
                frame.owner = frame
            else:
                frame = _Frame(None, parent.owner if parent is not None else None, episode)
            stack.append(frame)
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame.child
                if parent is not None:
                    parent.child += duration
                if raw:
                    parent_id = parent.owner.span_id if parent is not None and parent.owner else None
                    spans.append((frame.span_id, name, frame.start, end, parent_id,
                                  episode, frame.totals or None))
                elif frame.owner is not None:
                    agg = frame.owner.totals.setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
            if observed:
                self._observe(name, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        """One JSON object per raw span, in the order the spans ended."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent, episode, inner in self.spans:
                record = {"id": span_id, "name": name, "start": start, "end": end,
                          "parent": parent, "episode": episode}
                if inner:
                    record["inner"] = {k: {"calls": c, "busy_s": b} for k, (c, b) in inner.items()}
                handle.write(json.dumps(record) + "\n")
