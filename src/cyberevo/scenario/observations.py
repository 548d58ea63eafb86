"""Per-agent observation records.

An observation holds exactly what a rule program reads: the success flag
of the agent's last completed action and the five counts named by the
grammars' observation functions.  A program's condition reads the field
of the same name.  Only rule controllers read observations, through the
agent's decision context (`AgentContext.observation`).  A red agent's
is built when asked, from counts the agent keeps current; blue's are
built by the simulation once per step, one for each success flag, and
shared by every blue agent with that flag.

An `Observation` is a named tuple: immutable, hashable and cheap to
build.  The engine builds it with ``tuple.__new__``, which skips the
named tuple's Python-level constructor.  Rule controllers key their
decision memos on it.
"""

from __future__ import annotations

from typing import NamedTuple

TRUE = "TRUE"
FALSE = "FALSE"
UNKNOWN = "UNKNOWN"


class Observation(NamedTuple):
    """What one agent sees after a step.

    A red agent counts its known hosts (``connections``), its sessions
    (``files_user``), its root sessions (``files_root`` and
    ``root_access_levels``) and its known servers (``n_servers``).  The
    agent keeps its root-session and known-server counts current as its
    sessions and knowledge change (`RedAgent.set_session`,
    `RedAgent.learn`).

    Blue agents differ only in their success flag; the engine counts
    the rest once at set-up and at the end of each step, and builds one
    observation per flag from those counts: scans detected
    that step in a monitored zone (``connections``), the evidence
    Analyse found (``files_user``, ``files_root``), the topology's
    server count (``n_servers``, fixed for the episode, and above every
    grammar constant) and a ``root_access_levels`` that is always 0.
    The baseline, TR, TN, TO and TC grammars offer only those last two,
    so their blue programs can branch only on the success flag.
    """

    success: str = UNKNOWN
    connections: int = 0
    files_user: int = 0
    files_root: int = 0
    n_servers: int = 0
    root_access_levels: int = 0
