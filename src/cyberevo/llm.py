"""Program mutation through a language-model completion service.

The mutation operator works on rendered controller code, not on the
genome: the program, the grammar it must respect, and an instruction
block are packed into one prompt; the completion is parsed back through
the grammar.  Anything that fails — transport errors, refusals,
ungrammatical code, code nested deeper than the stack allows — turns
into a flagged invalid individual rather than an exception, and every
call lands in `LlmStats`.

Besides the HTTP client there are deterministic in-process clients for
tests and offline runs.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Protocol, Sequence

import numpy as np

from .errors import GrammarParseError, ProgramParseError
from .grammar.ast import RuleAst
from .grammar.mapping import build_ast
from .grammar.model import Grammar
from .grammar.program import parse_program, render_program

_FENCE = re.compile(r"```(?:[A-Za-z0-9_+-]*\n)?(.*?)```", re.DOTALL)

GRAMMAR_HEADER = "The grammar:"
PROGRAM_HEADER = "The current program:"


PERSONA = (
    "You are improving the decision policy of an autonomous network "
    "defense exercise agent. The policy is a small Python-like "
    "program produced by a context-free grammar."
)
INSTRUCTIONS = (
    "Mutate the program above: change, add or remove a small number "
    "of statements while keeping every line derivable from the "
    "grammar. Reply with only the mutated program in a fenced code "
    "block."
)


def build_prompt(grammar: Grammar, program: str) -> str:
    """Assemble the mutation prompt: persona, grammar, code, instructions."""
    grammar_text = grammar.source.strip()
    program = program.strip()
    for name, text in (("grammar", grammar_text), ("program", program)):
        if not text:
            raise ValueError(f"prompt section {name!r} is empty")
    return _assemble(grammar_text, program)


def _assemble(grammar_text: str, program: str) -> str:
    return (
        f"{PERSONA}\n\n"
        f"{GRAMMAR_HEADER}\n\n{grammar_text}\n\n"
        f"{PROGRAM_HEADER}\n\n```python\n{program}\n```\n\n"
        f"{INSTRUCTIONS}\n"
    )


@lru_cache(maxsize=None)
def _fixed_prompt_tokens(grammar_source: str) -> int:
    """The whitespace tokens of a prompt for this grammar, less the program's.

    Every section of the prompt is set off by whitespace, so
    ``len(build_prompt(grammar, program).split())`` is this count plus
    ``len(program.split())``, without splitting the whole prompt.
    """
    return len(_assemble(grammar_source.strip(), "").split())


@dataclass(frozen=True)
class CompletionResult:
    """One raw completion: text plus the token count the service reported."""

    text: str
    tokens: Optional[int] = None


class CompletionClient(Protocol):
    def complete(self, prompt: str) -> CompletionResult: ...


def extract_code(text: str) -> str:
    """The last fenced block of a reply, or the whole reply when unfenced."""
    blocks = _FENCE.findall(text)
    return (blocks[-1] if blocks else text).strip()


class EchoClient:
    """Returns the prompt's program unchanged; the identity mutation."""

    def complete(self, prompt: str) -> CompletionResult:
        return CompletionResult(text=f"```python\n{extract_code(prompt)}\n```")


class ScriptedClient:
    """Replays a fixed list of responses, cycling when exhausted."""

    def __init__(self, responses: Sequence[str]):
        if not responses:
            raise ValueError("ScriptedClient needs at least one response")
        self._responses = list(responses)
        self._cursor = 0

    def complete(self, prompt: str) -> CompletionResult:
        text = self._responses[self._cursor % len(self._responses)]
        self._cursor += 1
        return CompletionResult(text=text)


class ExpandingMockClient:
    """Offline stand-in: appends one grammar-legal action assignment.

    The new statement lands at the end of the action section, so the
    mutated program stays inside the grammar while its behavior (the
    final action assignment wins) actually changes.  The client reads the
    grammar embedded in each prompt, so a single instance serves prompts
    from either side and any grammar variant; each distinct grammar
    section is parsed once.
    """

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)
        self._actions_by_section: dict[str, tuple[str, ...]] = {}

    def _legal_actions(self, prompt: str) -> tuple[str, ...]:
        from .grammar.parse import parse_grammar

        section = prompt.partition(GRAMMAR_HEADER)[2].partition(PROGRAM_HEADER)[0].strip()
        actions = self._actions_by_section.get(section)
        if actions is None:
            try:
                actions = parse_grammar(section).action_terminals()
            except GrammarParseError as exc:
                raise ValueError(f"prompt carries no readable grammar: {exc}") from exc
            self._actions_by_section[section] = actions
        return actions

    def complete(self, prompt: str) -> CompletionResult:
        program = extract_code(prompt)
        actions = self._legal_actions(prompt)
        action = actions[int(self._rng.integers(len(actions)))]
        lines = program.splitlines()
        insert_at = len(lines)
        for i, line in enumerate(lines):
            stripped = line.strip()
            if stripped.startswith("#Select target") or stripped.startswith(
                "target_heuristic"
            ) or stripped.startswith("return"):
                insert_at = i
                break
        lines.insert(insert_at, f"    action = {action}")
        return CompletionResult(text="```python\n" + "\n".join(lines) + "\n```")


class HttpClient:
    """Minimal chat-completions client: one attempt, fixed timeout."""

    def __init__(
        self,
        url: str,
        model: str,
        api_key: Optional[str] = None,
        timeout: float = 30.0,
    ):
        self.url = url
        self.model = model
        self.api_key = api_key
        self.timeout = timeout

    def complete(self, prompt: str) -> CompletionResult:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        response = requests.post(
            self.url, json=payload, headers=headers, timeout=self.timeout
        )
        response.raise_for_status()
        body = response.json()
        text = body["choices"][0]["message"]["content"]
        tokens = body.get("usage", {}).get("total_tokens")
        # A malformed reply fails here, as a transport failure would.
        if not isinstance(text, str):
            raise ValueError(f"reply content is {type(text).__name__}, not text")
        if tokens is not None and (type(tokens) is not int or tokens < 0):  # a bool is not a count
            raise ValueError(f"reply token count {tokens!r} is not a count")
        return CompletionResult(text=text, tokens=tokens)


@dataclass
class LlmStats:
    """Counters over every mutation attempt in a run."""

    calls: int = 0
    successes: int = 0
    parse_failures: int = 0
    transport_failures: int = 0
    tokens_total: int = 0
    latency_total: float = 0.0

    def summary(self) -> dict:
        calls = max(self.calls, 1)
        return {
            "calls": self.calls,
            "successes": self.successes,
            "parse_failures": self.parse_failures,
            "transport_failures": self.transport_failures,
            "success_rate": self.successes / calls,
            "tokens_total": self.tokens_total,
            "mean_latency": self.latency_total / calls,
        }


def format_stats(s: dict) -> str:
    """One line from an `LlmStats.summary()` dict, such as a run's `llm_report`."""
    return (
        f"llm calls: {s['calls']}  ok: {s['successes']}  "
        f"parse failures: {s['parse_failures']}  "
        f"transport failures: {s['transport_failures']}  "
        f"success rate: {s['success_rate']:.2f}  "
        f"tokens: {s['tokens_total']}  "
        f"mean latency: {s['mean_latency'] * 1000:.1f} ms"
    )


@dataclass(frozen=True)
class MutationOutcome:
    """What one program mutation produced: the edited program and its AST, or an error."""

    ok: bool
    program: Optional[str] = None
    ast: Optional[RuleAst] = None
    error: Optional[str] = None


def llm_mutate(
    client: CompletionClient,
    program: str,
    grammar: Grammar,
    stats: LlmStats,
) -> MutationOutcome:
    """Ask the client for a mutated program and validate it via the grammar."""
    prompt = build_prompt(grammar, program)
    stats.calls += 1
    started = time.perf_counter()
    try:
        completion = client.complete(prompt)
    except Exception as exc:  # transport problems become flagged individuals
        stats.transport_failures += 1
        return MutationOutcome(ok=False, error=str(exc))
    finally:
        stats.latency_total += time.perf_counter() - started
    tokens = completion.tokens
    if tokens is None:
        prompt_tokens = _fixed_prompt_tokens(grammar.source) + len(program.split())
        tokens = prompt_tokens + len(completion.text.split())
    stats.tokens_total += int(tokens)
    code = extract_code(completion.text)
    try:
        tree = parse_program(code, grammar)
        ast = build_ast(tree, grammar)
        program = render_program(tree)
    except (ProgramParseError, RecursionError) as exc:  # or an if chain nested too deeply
        stats.parse_failures += 1
        return MutationOutcome(ok=False, error=str(exc))
    stats.successes += 1
    return MutationOutcome(ok=True, program=program, ast=ast)
