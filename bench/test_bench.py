"""Tests of the benchmark itself: its oracle, time cap, layer tracer and
speed normalisation.

    PYTHONPATH=src python -m pytest bench
"""

from __future__ import annotations

import json
import time

import pytest

import run
from oracle import check_envelope, check_paper_report
from run import Runner, census, genus, hyper, paper_report
from speed import PROBE_S, SpeedMonitor
from tracer import layer_metrics


@pytest.fixture
def runner(tmp_path):
    with SpeedMonitor() as monitor:
        yield Runner(tmp_path, time.perf_counter() + 120, monitor)


def test_oracle_rejects_conjugacy_orbit_count_off_by_one(runner):
    case = census(3)
    proc, _ = runner.spawn(list(case.argv))
    assert check_envelope("census", case.params, proc.returncode, proc.stdout) == []

    envelope = json.loads(proc.stdout)
    claim = next(c for c in envelope["payload"]["claims"] if c["id"] == "unordered_types")
    claim["data"]["entries"][0]["conjugacy_orbits"] += 1
    problems = check_envelope("census", case.params, proc.returncode,
                              json.dumps(envelope))
    assert len(problems) == 1 and "conjugacy orbits" in problems[0]


def test_oracle_rejects_a_second_failing_claim(runner, tmp_path):
    case = paper_report(2, 4, seed=3)
    assert runner.run_case(case, traced=False).problems == []

    report = tmp_path / "report"
    path = report / "n3.json"
    payload = json.loads(path.read_text())
    claim = next(c for c in payload["claims"] if c["id"] == "conjugacy_classes")
    claim["status"] = "fail"
    path.write_text(json.dumps(payload))
    problems = check_paper_report(range(2, 5), 3, True, 1, report)
    assert problems == ["paper-report n=3: failing claims "
                        "['conjugacy_classes', 'quotient_genera'], "
                        "expected ['quotient_genera']"]


def test_case_over_the_time_cap_is_killed_and_failed(runner, monkeypatch):
    monkeypatch.setattr(run, "CASE_CAP_S", 0.05)
    result = runner.run_case(census(24), traced=False)
    assert result.problems == ["census --n 24: not done within the time cap"]


def test_layer_wrappers_leave_every_payload_digest_unchanged(runner):
    cases = [census(3), genus(4, "pure"), hyper(5), paper_report(2, 4, seed=5)]
    plain = runner.run_pass(cases, traced=False)
    traced = runner.run_pass(cases, traced=True)
    # The runner fails a case whose digest differs from its first run.
    assert [r.problems for r in plain.runs + traced.runs] == [[]] * 8

    traces = [r.trace for r in traced.runs]
    assert all(t["missing"] == [] for t in traces)
    metrics = layer_metrics([(t, 1.0) for t in traces])
    for name in ("covering.census_s", "genus.search_s", "real_forms.search_s",
                 "curves.checks_s", "monodromy.dessin_s", "cli.self_s"):
        assert metrics[name] > 0, name
    assert metrics["covering.census_calls"] >= 1 + 3  # census case + paper n=2..4
    assert metrics["covering.pairs_enumerated"] > 0


def test_speed_scale_averages_the_probes_taken_during_a_spawn():
    monitor = SpeedMonitor()
    monitor.starts = [0.0, 1.0, 2.0, 3.0]
    monitor.durations = [1e-3, 2e-3, 4e-3, 1e-3]
    assert monitor.scale(0.5, 2.5) == pytest.approx(PROBE_S / 3e-3)
    # With no probe inside the interval, the latest one before it counts.
    assert monitor.scale(3.5, 3.6) == pytest.approx(PROBE_S / 1e-3)
