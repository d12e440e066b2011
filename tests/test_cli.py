"""End-to-end tests of the command line interface.

The command tests run the CLI in a separate process as `python -m
dicyclic_dessins`, with the interpreter and environment of the test
run and the directory of the imported package first on PYTHONPATH, so
they exercise the same code the tests import: the checkout's `src`, or
the installed package.  The import-footprint test runs `cli.main` in a
fresh interpreter on the same path and lists the modules it loaded.
The package-export, model-name, README-usage and search-exhaustion
tests, and the last one, which draws many small command lines, run in
process.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicyclic_dessins
from dicyclic_dessins import cli, reports, search
from dicyclic_dessins.curves import MODEL_NAMES

CLI = [sys.executable, "-m", "dicyclic_dessins"]
PACKAGE_ROOT = str(Path(dicyclic_dessins.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parent.parent / "README.md"
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
    ),
}


def run_cli(*args):
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, timeout=300, env=CLI_ENV
    )


def payload_of(completed):
    return json.loads(completed.stdout)["payload"]


def run_in_process(*args):
    """Run `cli.main` on these arguments; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        old_argv, sys.argv = sys.argv, ["dicyclic-dessins", *args]
        try:
            cli.main()
            code = 0
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.argv = old_argv
    return code, out.getvalue(), err.getvalue()


def test_census_passes():
    result = run_cli("census", "--n", "3")
    assert result.returncode == 0
    payload = payload_of(result)
    assert payload["command"] == "census"
    assert all(c["status"] == "pass" for c in payload["claims"])


@pytest.mark.parametrize("n", [255, 256, 1024])
def test_census_passes_both_claims_at_large_n(n):
    result = run_cli("census", "--n", str(n))
    assert result.returncode == 0
    claims = payload_of(result)["claims"]
    assert [(c["id"], c["status"]) for c in claims] == [
        ("unordered_types", "pass"),
        ("one_automorphism_orbit_per_ordered_type", "pass"),
    ]


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


def test_a_broken_pseudo_real_genus_fails_its_claims(monkeypatch):
    # the claims are the only check of the pseudo-real invariants, so a
    # wrong genus reads as failing claims with their data, not a traceback
    from dicyclic_dessins import real_forms

    monkeypatch.setattr(real_forms, "rh_genus",
                        lambda order, sig: search.rh_genus(order, sig) + 1)
    report = reports.pseudo_real_report(3, 2)
    failed = {c.id: c.data for c in report.failures()}
    assert failed == {
        "genus_formula": {"l": 9, "genus": 41},
        "genus_cross_check": {"nec": 41, "cyclic_cover": 40},
    }
    code, out, err = run_in_process("pseudo-real", "--n", "3", "--q", "2")
    assert code == 1 and err == ""
    assert json.loads(out)["payload"] == report.payload()


def test_curves_pass_and_unknown_model():
    ok = run_cli("curves", "--n", "2", "--model", "Sn_hyperelliptic")
    assert ok.returncode == 0
    assert run_cli("curves", "--n", "2", "--model", "bogus").returncode == 2


def test_curves_seed_determinism():
    a = run_cli("curves", "--n", "3", "--model", "Rn_cyclic", "--seed", "4")
    b = run_cli("curves", "--n", "3", "--model", "Rn_cyclic", "--seed", "4")
    assert payload_of(a) == payload_of(b)


@pytest.mark.parametrize("args", [
    ("hyper", "--n", "1"),
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--trials", "0"),
    ("curves", "--n", "3", "--model", "Sn_cyclic"),
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--tol", "0"),
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--tol", "inf"),
    # unwritable output paths, below a regular file
    ("census", "--n", "2", "--json", "{file}/x.json"),
    ("monodromy", "--n", "3", "--case", "II", "--dot", "{missing}/x.dot"),
    ("paper-report", "--n-range", "2..2", "--out", "{file}/report"),
    # the searches prove their own bounds, so no command takes one
    ("genus", "--n", "3", "--g-max", "5"),
    ("hyper", "--n", "3", "--gamma-max", "1"),
    ("hyper", "--n", "3", "--r-max", "3"),
])
def test_bad_parameter_values_are_usage_errors(args, tmp_path):
    file = tmp_path / "file"
    file.write_text("")
    paths = {"file": file, "missing": tmp_path / "missing"}
    result = run_cli(*(a.format(**paths) for a in args))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


def test_a_search_that_runs_out_of_genera_exits_3(monkeypatch):
    monkeypatch.setattr(search, "quotient_signatures", lambda n, g, handle: [])
    for args in (("genus", "--n", "3"), ("hyper", "--n", "3")):
        code, out, err = run_in_process(*args)
        assert code == 3, (args, err)
        assert out == ""
        assert err.startswith("search exhausted: "), err


def test_readme_usage_lists_every_option_of_every_command():
    # the ```sh block of README.md whose lines run dicyclic-dessins
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    (usage,) = [b for b in blocks if b.startswith("dicyclic-dessins ")]
    documented = {}
    for line in usage.splitlines():
        _, command, rest = line.split(" ", 2)
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
    wired = {name: {opt for p in command.params for opt in p.opts}
             for name, command in cli.cli.commands.items()}
    assert documented == wired


@pytest.mark.parametrize("args", [
    ("curves", "--n", "1200", "--model", "Sn_cyclic", "--trials", "5"),
    ("curves", "--n", "700", "--model", "Sn_hyperelliptic", "--trials", "20"),
    ("curves", "--n", "256", "--model", "Sn_cyclic", "--trials", "20"),
    # every trajectory overflows, so the resample budget runs out
    ("curves", "--n", "5000", "--model", "Sn_cyclic", "--trials", "2"),
])
def test_curves_at_large_n_end_without_a_traceback(args):
    # powers of z and w overflow or underflow here; that rejects a point
    # or ends a trajectory, and running out of points is an error, not a
    # crash
    result = run_cli(*args)
    assert result.returncode in {0, 1, 2}
    assert "Traceback" not in result.stderr
    if result.returncode == 2:
        assert result.stderr.startswith("error: ")


def test_sn_cyclic_relations_hold_at_n_16():
    # the printed form of the y map lost precision with n and failed the
    # default --tol 1e-9 from n = 14 on
    result = run_cli("curves", "--n", "16", "--model", "Sn_cyclic")
    assert result.returncode == 0
    assert all(c["status"] == "pass" for c in payload_of(result)["claims"])


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


def test_paper_report_refined_quotient_claim_passes(tmp_path):
    # the stated all-subgroup claim fails exactly when n is not a power of
    # two; restricted to the subgroups holding x^n it passes for every n
    result = run_cli("paper-report", "--n-range", "2..10", "--out", str(tmp_path))
    assert result.returncode == 1
    for n in range(2, 11):
        claims = json.loads((tmp_path / f"n{n}.json").read_text())["claims"]
        quotient = [(c["id"], c["status"]) for c in claims if "quotient_genera" in c["id"]]
        stated = "fail" if n & (n - 1) else "pass"
        assert quotient == [("quotient_genera", stated),
                            ("involution_quotient_genera", "pass")], n


def test_paper_report_bad_range(tmp_path):
    result = run_cli("paper-report", "--n-range", "5..2",
                     "--out", str(tmp_path / "x"))
    assert result.returncode == 2


def test_envelope_has_timing_outside_payload():
    result = run_cli("census", "--n", "2")
    envelope = json.loads(result.stdout)
    assert set(envelope) == {"payload", "ms"}
    assert isinstance(envelope["ms"], float)


FOOTPRINT = """
import contextlib, io, json, sys
from dicyclic_dessins import cli
sys.argv = ["dicyclic-dessins", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main()
    except SystemExit:
        pass
print(json.dumps({
    "modules": sorted(name.split(".", 1)[1] for name in sys.modules
                      if name.startswith("dicyclic_dessins.")),
    "fractions": "fractions" in sys.modules,
}))
"""
FRONT = ["cli", "errors", "reports"]


@pytest.mark.parametrize("args, modules, fractions", [
    (["--help"], FRONT, False),
    (["census", "--n", "4"], FRONT + ["covering", "group", "search"], False),
    (["genus", "--n", "3"], FRONT + ["covering", "genus", "group", "search"], False),
    (["hyper", "--n", "4"], FRONT + ["group", "real_forms", "search"], False),
    (["monodromy", "--n", "3", "--case", "I"], FRONT + ["monodromy"], False),
    (["pseudo-real", "--n", "3", "--q", "2"],
     FRONT + ["group", "real_forms", "search"], False),
    (["curves", "--n", "3", "--model", "Rn_cyclic", "--trials", "5"],
     FRONT + ["curves"], False),
    (["paper-report", "--n-range", "2..3", "--out", "{out}"],
     FRONT + ["covering", "covers", "curves", "genus", "group", "monodromy",
              "real_forms", "search"], False),
])
def test_each_command_imports_only_the_layers_it_runs(args, modules, fractions,
                                                     tmp_path):
    args = [a.format(out=tmp_path / "report") for a in args]
    result = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *args],
        capture_output=True, text=True, timeout=300, env=CLI_ENV,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded == {"modules": sorted(modules), "fractions": fractions}


def test_package_exports_resolve_lazily_to_their_submodules():
    for name in dicyclic_dessins.__all__:
        obj = getattr(dicyclic_dessins, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
    from dicyclic_dessins import DicyclicGroup, triangular_census

    assert triangular_census(2).n == DicyclicGroup(2).n == 2
    namespace = {}
    exec("from dicyclic_dessins import *", namespace)
    assert set(dicyclic_dessins.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        dicyclic_dessins.no_such_name


def test_model_choices_spell_out_the_curve_models():
    (model,) = [p for p in cli.curves_cmd.params if p.name == "model_name"]
    assert list(model.type.choices) == list(MODEL_NAMES)


small = st.integers(-1, 4)
OPTIONS = {
    "census": {},
    "monodromy": {"--case": st.sampled_from(["I", "II"])},
    "hyper": {},
    "pseudo-real": {"--q": small},
    "curves": {"--model": st.sampled_from(MODEL_NAMES), "--trials": small,
               "--tol": st.floats() | st.just(1e-9)},
    "genus": {"--mode": st.sampled_from(["strong", "pure"])},
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    args = [command, f"--n={draw(st.integers(-2, 6))}"]
    for option, values in OPTIONS[command].items():
        args.append(f"{option}={draw(values)}")
    return args


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_any_small_command_line_exits_with_a_documented_code(args):
    # in process, so an escaping exception fails the test with its traceback
    code, _, err = run_in_process(*args)
    assert code in {0, 1, 2, 3}, (args, code, err)


# sha256 of the payloads that test_payloads_match_the_pinned_digest builds.
# A deliberate claim change (for example namespaced claim IDs) changes it:
# update the digest in the same change and name the change in CHANGES.md.
PAYLOAD_DIGEST = "10f3764424ecd9c9b1a00f7847a287f5d5445a183aad41f0014deba81b067595"


def test_payloads_match_the_pinned_digest():
    # every exact command for n = 2..12, in process; the curve payloads
    # are left out because their float fields depend on the C math library
    texts = []
    for n in range(2, 13):
        built = [reports.census_report(n), reports.monodromy_report(n, "I")]
        if n % 2:
            built.append(reports.monodromy_report(n, "II"))
        built += [reports.hyper_report(n), reports.pseudo_real_report(n, 2),
                  reports.genus_report(n, "strong"), reports.genus_report(n, "pure")]
        texts += [report.payload_json() for report in built]
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == PAYLOAD_DIGEST


# sha256 of the paper-report payloads that
# test_paper_report_sections_match_the_pinned_digest builds; the same rule
# as PAYLOAD_DIGEST applies.
PAPER_REPORT_DIGEST = "1cb2a447c225091497d79c3326be541b02d1662f5e8041a7b2bf4b8e67ef2df3"
FLOAT_CLAIMS = ("relation:", "anticonformal:", "belyi_projection")


def test_paper_report_sections_match_the_pinned_digest():
    # the per-n report for n = 2..12 pins what the command digest skips:
    # the fixed points, the free elements and the quotient genera; the
    # curve claims are left out for their float fields
    texts = []
    claims = 0
    for n in range(2, 13):
        report = reports.per_n_report(n, 0, False)
        report.claims = [c for c in report.claims if not c.id.startswith(FLOAT_CLAIMS)]
        claims += len(report.claims)
        texts.append(report.payload_json())
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert claims == 309
    assert digest == PAPER_REPORT_DIGEST
