"""Controller-grammar variants.

Each (side, variant) grammar is one packaged file,
``data/<side>_<variant>.grammar``, parsed at load time; the files are
the definition. Relative to the baseline, whose target line hardcodes
the random heuristic:

- ``TR``: the same grammar as the baseline (fixed random target).
- ``TN``: the target line fixes the newest target, the most recently
  learned entry of the ordered known-host list.
- ``TO``: the target line fixes the oldest target, the list's first entry.
- ``TC``: the target line becomes ``#Select target`` and an evolvable
  block of conditional target assignments (``th_statements``).
- ``OE``: three more observations, the connection, user-file and
  root-file counts, come before the baseline's two.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from importlib import resources

from ..errors import GrammarVariantError
from .model import Grammar
from .parse import parse_grammar

SIDES = ("red", "blue")


class Variant(str, Enum):
    BASELINE = "baseline"
    TR = "tr"
    TN = "tn"
    TO = "to"
    TC = "tc"
    OE = "oe"


def grammar_asset_name(side: str, variant: Variant | str = Variant.BASELINE) -> str:
    if side not in SIDES:
        raise GrammarVariantError(f"side must be one of {SIDES}, got {side!r}")
    variant = Variant(variant)
    return f"{side}_{variant.value}.grammar"


@lru_cache(maxsize=None)
def load_grammar(side: str, variant: Variant | str = Variant.BASELINE) -> Grammar:
    """Load a packaged controller grammar for one side and variant."""
    name = grammar_asset_name(side, variant)
    text = resources.files("cyberevo.grammar").joinpath(f"data/{name}").read_text()
    return parse_grammar(text)
