"""Fitness traces: per-iteration evolution records and their CSV form.

The CSV body is fully deterministic for a given configuration and seed
(floats are written with ``repr`` so equal runs are byte-identical);
anything run-specific such as wall-clock timings belongs in the
sidecar metadata JSON the experiment harness writes next to the CSV.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional

CSV_COLUMNS = ("trial", "iteration", "side", "algorithm", "best", "mean", "episodes_used")


@dataclass(frozen=True)
class TraceRecord:
    """One population snapshot: best/mean fitness at one iteration."""

    trial: int
    iteration: int
    side: str
    algorithm: str
    best: float
    mean: float
    episodes_used: int


@dataclass
class FitnessTrace:
    """Ordered collection of per-iteration records."""

    records: list[TraceRecord] = field(default_factory=list)

    def append(
        self,
        trial: int,
        iteration: int,
        side: str,
        algorithm: str,
        best: float,
        mean: float,
        episodes_used: int,
    ) -> TraceRecord:
        record = TraceRecord(
            trial=int(trial),
            iteration=int(iteration),
            side=side,
            algorithm=algorithm,
            best=float(best),
            mean=float(mean),
            episodes_used=int(episodes_used),
        )
        self.records.append(record)
        return record

    def filter(self, side: Optional[str] = None, trial: Optional[int] = None) -> "FitnessTrace":
        out = [
            r
            for r in self.records
            if (side is None or r.side == side) and (trial is None or r.trial == trial)
        ]
        return FitnessTrace(out)

    def trials(self) -> tuple[int, ...]:
        return tuple(sorted({r.trial for r in self.records}))

    def sides(self) -> tuple[str, ...]:
        return tuple(sorted({r.side for r in self.records}))

    def write_csv(self, path: str) -> None:
        """Write records atomically; equal traces produce equal bytes."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow(
                    [r.trial, r.iteration, r.side, r.algorithm,
                     repr(r.best), repr(r.mean), r.episodes_used]
                )
        os.replace(tmp, path)

    @classmethod
    def read_csv(cls, path: str) -> "FitnessTrace":
        trace = cls()
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if tuple(header or ()) != CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected trace columns {header!r}")
            for row in reader:
                trial, iteration, side, algorithm, best, mean, episodes = row
                trace.append(
                    int(trial), int(iteration), side, algorithm,
                    float(best), float(mean), int(episodes),
                )
        return trace


def running_best(values: Iterable[float]) -> list[float]:
    """Best-so-far curve of a fitness sequence."""
    out: list[float] = []
    top: Optional[float] = None
    for value in values:
        top = value if top is None or value > top else top
        out.append(top)
    return out
