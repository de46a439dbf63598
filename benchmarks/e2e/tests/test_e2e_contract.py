"""``BENCHMARK.json`` is well formed and the code produces what it names."""

from __future__ import annotations

import re
from types import SimpleNamespace

import pytest

from benchmarks.e2e import load_contract, run
from benchmarks.e2e import workloads as wl

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    return load_contract()


def test_keys_command_and_paths(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60


def test_workloads_are_the_ones_the_code_runs(contract):
    assert [w["name"] for w in contract["workloads"]] == [
        w.name for w in wl.WORKLOADS
    ]
    for entry in contract["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_bounds(contract):
    """The contract's largest bound on everything a clock measures (what
    this box's loud spells need, README "Bounds"), the issue's 5% on
    memory and 1% on the disk count; set-up time carries the largest."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    assert bounds.pop("disk_bytes_per_event") == 0.01
    assert bounds.pop("peak_rss_mb") == 0.05
    assert set(bounds.values()) == {0.25}
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert 1 <= len(contract["per_layer"]) <= 128


def test_names_and_units_are_well_formed_and_unique(contract):
    names = [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"] + contract["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)


def test_output_names_equal_the_contract_names(contract):
    """The metric dict a run builds has exactly the declared names."""
    rounds = [
        SimpleNamespace(
            start=float(i), end=i + 1.0, query_ms=[1.0, 2.0, 3.0],
            query_wall_s=0.5, ingest_events=100, ingest_wall_s=0.25,
        )
        for i in range(3)
    ]
    measured = SimpleNamespace(
        rounds=rounds,
        crash=SimpleNamespace(
            disk_bytes=2000, acked_events=10, peak_rss_mb=100.0
        ),
    )
    commits = [(0.5, 4.0), (1.5, 6.0), (2.5, 5.0)]
    alerts = [(0.6, 7.0), (2.6, 9.0)]
    recovery = SimpleNamespace(recovery_s=[1.0, 3.0, 2.0])
    values = run.end_to_end_metrics(2.0, measured, commits, alerts, recovery)
    assert list(values) == [m["name"] for m in contract["end_to_end"]]
    assert values["setup_s"] == 2.0
    assert values["query_ms_p50"] == 2.0
    assert values["queries_per_s"] == 6.0
    assert values["ingest_events_per_s"] == 400.0
    assert values["commit_ms_p50"] == 5.0
    assert values["alert_ms_p50"] == 8.0  # the round without alerts is skipped
    assert values["recovery_s"] == 2.0
    assert values["disk_bytes_per_event"] == 200.0


def test_round_metrics_are_reported_at_reference_box_speed(contract):
    """A box 25% slow: timings shrink and rates grow by that much; the
    counts stay as measured, and so does the write side when the writer
    follows a schedule."""
    measured = {m["name"]: 100.0 for m in contract["end_to_end"]}
    scaled = run.at_reference_speed(measured, 1.25, paced_writes=False)
    assert list(scaled) == list(measured)
    for name in ("setup_s", "recovery_s", "query_ms_p50", "query_ms_p90",
                 "commit_ms_p50", "alert_ms_p50"):
        assert scaled[name] == 80.0
    for name in ("queries_per_s", "ingest_events_per_s"):
        assert scaled[name] == 125.0
    for name in ("disk_bytes_per_event", "peak_rss_mb"):
        assert scaled[name] == 100.0
    paced = run.at_reference_speed(measured, 1.25, paced_writes=True)
    assert paced["query_ms_p50"] == 80.0 and paced["queries_per_s"] == 125.0
    assert paced["setup_s"] == 80.0 and paced["recovery_s"] == 80.0
    for name in run.WRITE_SIDE:
        assert paced[name] == 100.0
    assert run.at_reference_speed(measured, 1.0, paced_writes=False) == measured


def test_samples_are_sliced_by_round_interval():
    rounds = [
        SimpleNamespace(start=0.0, end=1.0),
        SimpleNamespace(start=1.5, end=2.5),
    ]
    samples = [(2.0, "c"), (0.2, "a"), (1.2, "gap"), (0.9, "b"), (3.0, "late")]
    assert run._by_round(rounds, samples) == [["a", "b"], ["c"]]
