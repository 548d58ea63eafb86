"""Fitness traces and their deterministic CSV serialization."""

from __future__ import annotations

import pytest

from cyberevo.traces import CSV_COLUMNS, FitnessTrace, TraceRecord, running_best


def sample_trace() -> FitnessTrace:
    trace = FitnessTrace()
    trace.append(0, 0, "blue", "GA-B", -31.5, -40.25, 20)
    trace.append(0, 1, "blue", "GA-B", -30.0, -33.125, 18)
    trace.append(1, 0, "blue", "GA-B", -29.0, -35.0, 20)
    trace.append(1, 0, "red", "GA-C", 12.0, 3.0, 200)
    return trace


def test_append_coerces_and_stores_records():
    trace = FitnessTrace()
    record = trace.append("2", "3", "red", "GE-R", -1, -2, 10.0)
    assert record == TraceRecord(2, 3, "red", "GE-R", -1.0, -2.0, 10)
    assert isinstance(record.trial, int)
    assert isinstance(record.best, float)
    assert trace.records == [record]


def test_filter_trials_and_sides():
    trace = sample_trace()
    assert trace.trials() == (0, 1)
    assert trace.sides() == ("blue", "red")
    blue = trace.filter(side="blue")
    assert len(blue.records) == 3
    assert [r.best for r in blue.filter(trial=1).records] == [-29.0]
    assert [r.best for r in trace.filter(side="red", trial=1).records] == [12.0]
    assert trace.filter(side="green").records == []


def test_csv_round_trip_preserves_every_record(tmp_path):
    trace = sample_trace()
    path = tmp_path / "trace.csv"
    trace.write_csv(str(path))
    again = FitnessTrace.read_csv(str(path))
    assert again.records == trace.records


def test_csv_bytes_are_reproducible(tmp_path):
    trace = sample_trace()
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    trace.write_csv(str(first))
    trace.write_csv(str(second))
    assert first.read_bytes() == second.read_bytes()
    body = first.read_text()
    assert body.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert "\r" not in body  # one line terminator on every platform
    # floats are written with repr, so nothing is silently rounded
    trace2 = FitnessTrace()
    trace2.append(0, 0, "blue", "X", 0.1 + 0.2, 1 / 3, 1)
    path = tmp_path / "c.csv"
    trace2.write_csv(str(path))
    assert repr(0.1 + 0.2) in path.read_text()
    assert repr(1 / 3) in path.read_text()


def test_write_is_atomic(tmp_path):
    trace = sample_trace()
    path = tmp_path / "t.csv"
    trace.write_csv(str(path))
    leftovers = [p.name for p in tmp_path.iterdir()]
    assert leftovers == ["t.csv"]  # no .tmp file remains


def test_read_rejects_unexpected_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        FitnessTrace.read_csv(str(path))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        FitnessTrace.read_csv(str(empty))


def test_running_best_curve():
    assert running_best([]) == []
    assert running_best([-5.0, -7.0, -3.0, -3.0, -9.0]) == [-5.0, -5.0, -3.0, -3.0, -3.0]
    assert running_best([1.0]) == [1.0]
