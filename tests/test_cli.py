"""End-to-end tests of the command line interface.

Each test runs the CLI in a separate process as `python -m
dicyclic_dessins`, with the interpreter and environment of the test
run, so it exercises the same code the tests import: the checkout under
`PYTHONPATH=src`, or the installed package.
"""

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "dicyclic_dessins"]


def run_cli(*args):
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, timeout=300
    )


def payload_of(completed):
    return json.loads(completed.stdout)["payload"]


def test_census_passes():
    result = run_cli("census", "--n", "3")
    assert result.returncode == 0
    payload = payload_of(result)
    assert payload["command"] == "census"
    assert all(c["status"] == "pass" for c in payload["claims"])


def test_census_usage_error():
    assert run_cli("census", "--n", "1").returncode == 2
    assert run_cli("census").returncode == 2


def test_monodromy_with_dot_export(tmp_path):
    dot = tmp_path / "graph.dot"
    result = run_cli("monodromy", "--n", "2", "--case", "I",
                     "--dot", str(dot))
    assert result.returncode == 0
    assert dot.read_text().startswith("graph ")


def test_monodromy_case_II_needs_odd_n():
    assert run_cli("monodromy", "--n", "4", "--case", "II").returncode == 2


def test_hyper_reports_witness():
    result = run_cli("hyper", "--n", "3")
    assert result.returncode == 0
    claims = payload_of(result)["claims"]
    (claim,) = [c for c in claims if c["id"] == "minimal_hyperbolic_genus"]
    assert claim["data"]["genus"] == 4


def test_pseudo_real():
    result = run_cli("pseudo-real", "--n", "2", "--q", "2")
    assert result.returncode == 0


def test_curves_pass_and_unknown_model():
    ok = run_cli("curves", "--n", "2", "--model", "Sn_hyperelliptic")
    assert ok.returncode == 0
    assert run_cli("curves", "--n", "2", "--model", "bogus").returncode == 2


def test_curves_seed_determinism():
    a = run_cli("curves", "--n", "3", "--model", "Rn_cyclic", "--seed", "4")
    b = run_cli("curves", "--n", "3", "--model", "Rn_cyclic", "--seed", "4")
    assert payload_of(a) == payload_of(b)


@pytest.mark.parametrize("args", [
    ("hyper", "--n", "2", "--gamma-max", "0"),
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--trials", "0"),
    ("curves", "--n", "3", "--model", "Sn_cyclic"),
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--tol", "0"),
])
def test_bad_parameter_values_are_usage_errors(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


def test_genus_modes():
    strong = run_cli("genus", "--n", "3", "--mode", "strong")
    assert strong.returncode == 0
    pure = run_cli("genus", "--n", "3", "--mode", "pure")
    assert pure.returncode == 0


def test_json_flag_writes_payload(tmp_path):
    out = tmp_path / "census.json"
    result = run_cli("census", "--n", "2", "--json", str(out))
    assert result.returncode == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == payload_of(result)


def test_paper_report_determinism(tmp_path):
    rep1, rep2 = tmp_path / "a", tmp_path / "b"
    first = run_cli("paper-report", "--n-range", "2..3", "--out", str(rep1))
    second = run_cli("paper-report", "--n-range", "2..3", "--out", str(rep2))
    # n=3 carries a recorded counterexample claim, hence exit 1
    assert first.returncode == second.returncode == 1
    for name in ("n2.json", "n3.json", "summary.md"):
        assert (rep1 / name).read_text() == (rep2 / name).read_text()


def test_paper_report_bad_range(tmp_path):
    result = run_cli("paper-report", "--n-range", "5..2",
                     "--out", str(tmp_path / "x"))
    assert result.returncode == 2


def test_envelope_has_timing_outside_payload():
    result = run_cli("census", "--n", "2")
    envelope = json.loads(result.stdout)
    assert set(envelope) == {"payload", "ms"}
    assert isinstance(envelope["ms"], float)
