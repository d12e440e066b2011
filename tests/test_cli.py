"""End-to-end tests of the command line interface.

The command tests run the CLI in a separate process as `python -m
dicyclic_dessins`, with the interpreter and environment of the test
run and the directory of the imported package first on PYTHONPATH, so
they exercise the same code the tests import: the checkout's `src`, or
the installed package.  The import-footprint test runs `cli.main` in a
fresh interpreter on the same path and lists the modules it loaded; the
exit-hook tests run it there behind an atexit probe of their own.
The package-export, model-name and README-usage tests, and the two
that draw many small command lines and raw token lists, run in process
(the README-usage and model-name tests read `cli.COMMANDS`); the
standard-library, token-step and dead-code tests read the
sources, and the annotation test resolves the annotations of every
package function.
"""

import ast
import contextlib
import gc
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
import tokenize
import typing
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicyclic_dessins
from dicyclic_dessins import cli, monodromy, reports, search
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
    # wrong genus of the action record reads as failing claims with their
    # data, not a traceback
    from dicyclic_dessins.covering import GeneratingVector

    monkeypatch.setattr(GeneratingVector, "genus",
                        lambda act: search.rh_genus(act.group.order, act.signature) + 1)
    report = reports.pseudo_real_report(3, 2)
    failed = {c["id"]: c["data"] for c in report.failures()}
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


def test_curves_determinism():
    a = run_cli("curves", "--n", "3", "--model", "Rn_cyclic")
    b = run_cli("curves", "--n", "3", "--model", "Rn_cyclic")
    assert payload_of(a) == payload_of(b)


@pytest.mark.parametrize("args", [
    ("hyper", "--n", "1"),
    ("curves", "--n", "3", "--model", "Sn_cyclic"),
    ("curves", "--n", "4", "--model", "Rn_hyperelliptic"),
    ("curves", "--n", "4", "--model", "Rn_cyclic"),
    # the curve checks are exact: they sample nothing and have no tolerance
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--seed", "0"),
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--trials", "100"),
    ("curves", "--n", "2", "--model", "Sn_hyperelliptic", "--tol", "1e-9"),
    # unwritable output paths, below a regular file
    ("census", "--n", "2", "--json", "{file}/x.json"),
    ("monodromy", "--n", "3", "--case", "II", "--dot", "{missing}/x.dot"),
    ("paper-report", "--n-range", "2..2", "--out", "{file}/report"),
    # the searches prove their own bounds, so no command takes one
    ("genus", "--n", "3", "--g-max", "5"),
    ("hyper", "--n", "3", "--gamma-max", "1"),
    ("hyper", "--n", "3", "--r-max", "3"),
    # usage errors the parser itself reports
    (),
    ("bogus",),
    ("census",),
    ("census", "--n", "abc"),
    ("genus", "--n", "3", "--mode", "x"),
    ("census", "--n", "3", "--bogus"),
    # every option has one spelling: no abbreviations and no -h
    ("curves", "--n", "2", "--mod", "Sn_hyperelliptic"),
    ("-h",),
])
def test_bad_parameter_values_are_usage_errors(args, tmp_path):
    file = tmp_path / "file"
    file.write_text("")
    paths = {"file": file, "missing": tmp_path / "missing"}
    result = run_cli(*(a.format(**paths) for a in args))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize("args, option", [
    (("census", "--n", "1"), "--n"),
    (("genus", "--n", "0"), "--n"),
    (("monodromy", "--n", "1", "--case", "I"), "--n"),
    (("curves", "--n", "1", "--model", "Sn_hyperelliptic"), "--n"),
    (("pseudo-real", "--n", "3", "--q", "1"), "--q"),
    (("paper-report", "--n-range", "1..3", "--out", "{out}"), "--n-range"),
    (("paper-report", "--n-range", "3..2", "--out", "{out}"), "--n-range"),
    (("paper-report", "--n-range", "2..3..4", "--out", "{out}"), "--n-range"),
])
def test_an_out_of_domain_value_is_reported_against_its_option(args, option, tmp_path):
    code, out, err = run_in_process(*(a.format(out=tmp_path / "report") for a in args))
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and option in err, err
    assert not (tmp_path / "report").exists()


def test_case_II_at_even_n_writes_no_dot_file(tmp_path, monkeypatch):
    # the domain of --case II is the report's to check, and it fails
    # before any permutation is built or the graph is written
    def refuse(n):
        raise AssertionError(f"work done for n={n} before the domain check")

    monkeypatch.setattr(monodromy, "build_remark_permutations", refuse)
    monkeypatch.setattr(monodromy, "verify_remark_relations", refuse)
    dot = tmp_path / "graph.dot"
    code, out, err = run_in_process("monodromy", "--n", "4", "--case", "II",
                                    "--dot", str(dot))
    assert code == 2 and out == "", err
    assert err.startswith("error: ")
    assert not dot.exists()


def test_paper_report_checks_the_remark_relations_once_per_n(monkeypatch):
    # the relations do not depend on the case, so both case reports of
    # an odd n read one result
    calls, verify = [], monodromy.verify_remark_relations

    def counted(n, *built):
        calls.append(n)
        return verify(n, *built)

    monkeypatch.setattr(monodromy, "verify_remark_relations", counted)
    reports.per_n_report(5, 0, False)
    assert calls == [5]


def _count_remark_builds(monkeypatch) -> Counter:
    """Count the builds of the explicit pair, and of each case's remark
    dessin, from now on."""
    built = Counter()

    def counting(name):
        func = getattr(monodromy, name)

        def wrapper(n, *args):
            built[name, *args[:1]] += 1
            return func(n, *args)
        return wrapper

    for name in ("build_remark_permutations", "remark_dessin"):
        monkeypatch.setattr(monodromy, name, counting(name))
    return built


@pytest.mark.parametrize("n, dessins", [(4, ["I"]), (5, ["I", "II"])])
def test_paper_report_builds_the_pair_and_each_remark_dessin_once_per_n(
        n, dessins, monkeypatch):
    # both the relation checks and each case's report read one explicit
    # pair and one dessin per case
    built = _count_remark_builds(monkeypatch)
    reports.per_n_report(n, 0, False)
    assert built == Counter([("build_remark_permutations",)]
                            + [("remark_dessin", case) for case in dessins])


@pytest.mark.parametrize("n, case, dessins", [
    (4, "I", ["I"]), (5, "I", ["I"]), (5, "II", ["I", "II"]),
])
def test_monodromy_command_builds_the_pair_and_its_dessins_once(
        n, case, dessins, tmp_path, monkeypatch):
    # the report builds the explicit pair once and the dessins of the
    # cases up to its own, and --dot draws the dessin the report checked
    expected_dot = monodromy.export_dot(monodromy.graph_of(monodromy.remark_dessin(n, case)))
    built = _count_remark_builds(monkeypatch)
    dot = tmp_path / "graph.dot"
    code, _, err = run_in_process("monodromy", "--n", str(n), "--case", case,
                                  "--dot", str(dot))
    assert code == 0, err
    assert built == Counter([("build_remark_permutations",)]
                            + [("remark_dessin", c) for c in dessins])
    assert dot.read_text() == expected_dot


def test_monodromy_command_builds_the_graph_once(tmp_path, monkeypatch):
    # the doubled-cycle claim and --dot read one graph of the dessin
    calls, graph_of = [], monodromy.graph_of

    def counted(dessin):
        calls.append(dessin)
        return graph_of(dessin)

    expected_dot = monodromy.export_dot(graph_of(monodromy.remark_dessin(5, "I")))
    monkeypatch.setattr(monodromy, "graph_of", counted)
    dot = tmp_path / "graph.dot"
    code, _, err = run_in_process("monodromy", "--n", "5", "--case", "I", "--dot", str(dot))
    assert code == 0, err
    assert len(calls) == 1
    assert dot.read_text() == expected_dot


# Registered before the CLI's own exit hook, so it runs after it (atexit
# runs its handlers last in, first out) and sees whether the objects
# alive at exit were frozen out of the finalizer's collections.
EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen:", gc.get_freeze_count() > 0))
from dicyclic_dessins.cli import main
sys.argv = ["dicyclic-dessins", *sys.argv[1:]]
main()
"""


@pytest.mark.parametrize("args, code", [
    (["census", "--n", "3"], 0),
    (["paper-report", "--n-range", "3..3", "--out", "{out}"], 1),
    (["census", "--n", "1"], 2),
    (["--help"], 0),
])
def test_every_exit_path_skips_the_exit_time_collections(args, code, tmp_path):
    args = [a.format(out=tmp_path / "report") for a in args]
    result = subprocess.run([sys.executable, "-c", EXIT_PROBE, *args],
                            capture_output=True, text=True, timeout=300, env=CLI_ENV)
    assert result.returncode == code, result.stderr
    assert result.stdout.splitlines()[-1] == "frozen: True"


def test_running_main_in_process_freezes_nothing():
    before = gc.get_freeze_count()
    assert run_in_process("census", "--n", "3")[0] == 0
    assert run_in_process("census", "--n", "1")[0] == 2
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("args", [("--help",), ("census", "--help")])
def test_help_exits_0_with_usage_on_stdout(args):
    # the check the bench's setup spawn makes before it times anything
    result = run_cli(*args)
    assert result.returncode == 0
    assert "Usage" in result.stdout


@pytest.mark.parametrize("n", [800, 801, 100000, 100001])
def test_every_curve_model_passes_at_large_n(n):
    # in process: the exact checks neither overflow nor sample, so every
    # applicable model passes, each command in well under a second (the
    # numeric checks once exited 2 here: "the projection overflows")
    from dicyclic_dessins.curves import applicable_models

    for model in applicable_models(n):
        started = time.perf_counter()
        code, out, err = run_in_process("curves", "--n", str(n), "--model", model)
        assert time.perf_counter() - started < 1.0, (n, model)
        assert code == 0 and err == "", (n, model, err)
        claims = json.loads(out)["payload"]["claims"]
        assert claims and all(c["status"] == "pass" for c in claims), (n, model)


@pytest.mark.parametrize("args", [
    ("pseudo-real", "--n", "2", "--q", "100000000000"),
    ("monodromy", "--n", "1000000000000", "--case", "I"),
])
def test_an_input_too_large_to_hold_exits_2(args, monkeypatch):
    # the builders raise MemoryError whatever the machine's overcommit
    def refuse(*_):
        raise MemoryError

    monkeypatch.setattr(reports, "pseudo_real_report", refuse)
    monkeypatch.setattr(reports, "monodromy_report", refuse)
    code, out, err = run_in_process(*args)
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and "Traceback" not in err


def commands():
    """The options of each command, by name, as `cli.COMMANDS` lists them."""
    return {name: options for name, (_, _, options) in cli.COMMANDS.items()}


def test_readme_usage_lists_every_option_of_every_command():
    # the ```sh block of README.md whose lines run dicyclic-dessins
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    (usage,) = [b for b in blocks if b.startswith("dicyclic-dessins ")]
    documented = {}
    for line in usage.splitlines():
        _, command, rest = line.split(" ", 2)
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", rest))
    wired = {name: {flag for flag, *_ in options} for name, options in commands().items()}
    assert documented == wired


def test_sn_cyclic_relations_hold_at_n_16():
    # the numeric checks once lost precision in the printed form of the y
    # map and failed from n = 14 on
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


# json is imported only after the footprint is taken, since the report
# code is what should load it
FOOTPRINT = """
import contextlib, io, sys
from dicyclic_dessins import cli
sys.argv = ["dicyclic-dessins", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main()
    except SystemExit:
        pass
loaded = {
    "modules": sorted(name.split(".", 1)[1] for name in sys.modules
                      if name.startswith("dicyclic_dessins.")),
    "fractions": "fractions" in sys.modules,
    "numeric": [name for name in ("cmath", "random") if name in sys.modules],
    "click": "click" in sys.modules,
    "inspect": "inspect" in sys.modules,
    "serializers": [name for name in ("dataclasses", "json") if name in sys.modules],
    "parsers": [name for name in ("argparse", "gettext", "locale") if name in sys.modules],
}
import json
print(json.dumps(loaded))
"""
FRONT = ["cli", "errors", "reports"]


@pytest.mark.parametrize("args, modules, fractions", [
    (["--help"], ["cli", "errors"], False),
    (["census", "--n", "4"], FRONT + ["covering", "group", "search"], False),
    (["genus", "--n", "3"], FRONT + ["covering", "genus", "group", "search"], False),
    (["hyper", "--n", "4"],
     FRONT + ["covering", "group", "real_forms", "search"], False),
    (["monodromy", "--n", "3", "--case", "I"], FRONT + ["monodromy"], False),
    (["pseudo-real", "--n", "3", "--q", "2"],
     FRONT + ["covering", "group", "real_forms", "search"], False),
    (["curves", "--n", "3", "--model", "Rn_cyclic"], FRONT + ["curves"], False),
    (["paper-report", "--n-range", "2..3", "--out", "{out}"],
     FRONT + ["covering", "covers", "curves", "genus", "group", "monodromy",
              "real_forms", "search"], False),
])
def test_each_command_imports_only_the_layers_it_runs(args, modules, fractions, tmp_path):
    args = [a.format(out=tmp_path / "report") for a in args]
    # -S: what the site hooks of an installation import (a .pth file may
    # load random, through tempfile) is no command's footprint
    result = subprocess.run(
        [sys.executable, "-S", "-c", FOOTPRINT, *args],
        capture_output=True, text=True, timeout=300, env=CLI_ENV,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    # json comes with the report code, and only with it; the curve checks
    # are exact, so no command loads cmath or random; the records are
    # hand-written classes, so no command loads dataclasses (or the
    # inspect module that it imports); the command line is parsed from
    # cli.COMMANDS, so no command, --help included, loads argparse or the
    # gettext and locale modules that argparse's messages load
    serializers = ["json"] if "reports" in modules else []
    assert loaded == {"modules": sorted(modules), "fractions": fractions, "numeric": [],
                      "click": False, "inspect": False, "serializers": serializers,
                      "parsers": []}


def package_imports():
    """(file name, top-level module) for every absolute import under the
    package, at any depth: module level, in a function or in a block."""
    for path in sorted(Path(PACKAGE_ROOT, "dicyclic_dessins").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name.split(".")[0]


def test_the_package_imports_only_the_standard_library():
    # a third-party import here would be a runtime dependency and a cost
    # paid by every spawn of the command line
    for where, top in package_imports():
        assert (top in sys.stdlib_module_names
                or top in {"__future__", "dicyclic_dessins"}), (where, top)


def test_the_package_imports_neither_dataclasses_nor_typing():
    # the records are hand-written classes, and annotations are strings
    # (`from __future__ import annotations`) whose abstract types come
    # from collections.abc: dataclasses costs every spawn its import
    # (inspect, ast, dis, tokenize) and a generated class per record
    for where, top in package_imports():
        assert top not in {"dataclasses", "typing"}, (where, top)


def package_functions():
    """Every function defined at the top of a package module, and every
    method, property getter and cached-property function of its classes."""
    for path in sorted(Path(PACKAGE_ROOT, "dicyclic_dessins").glob("*.py")):
        name = "dicyclic_dessins" + ("" if path.stem == "__init__" else f".{path.stem}")
        module = importlib.import_module(name)
        for obj in list(vars(module).values()):
            if getattr(obj, "__module__", None) != name:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                for attr in ("fget", "func", "__func__"):
                    member = getattr(member, attr, member)
                if inspect.isfunction(member):
                    yield member


def test_every_annotation_resolves():
    # annotations are strings, so a name that the module never imports
    # goes unnoticed until something such as typing.get_type_hints reads it
    unresolved = []
    for func in package_functions():
        try:
            typing.get_type_hints(func)
        except NameError as exc:
            unresolved.append(f"{func.__module__}.{func.__qualname__}: {exc}")
    assert unresolved == []


def test_every_case_domain_is_checked_by_the_one_owner():
    # which cases exist at n is the rule of errors.cases alone: every
    # package function taking n and case refuses a missing case with the
    # message of errors.check_case, so no module states the rule again
    from dicyclic_dessins.errors import ParameterError, check_case

    taking = [func for func in package_functions()
              if "." not in func.__qualname__
              and {"n", "case"} <= set(inspect.signature(func).parameters)]
    names = {func.__name__ for func in taking}
    assert {"case_type", "census_representative", "remark_dessin",
            "admissible_triples", "monodromy_report"} <= names, names
    for n, case in ((4, "II"), (3, "III")):
        with pytest.raises(ParameterError) as owner:
            check_case(n, case)
        for func in taking:
            with pytest.raises(ParameterError) as info:
                func(n=n, case=case)
            assert str(info.value) == str(owner.value), (func.__qualname__, n, case)


def test_every_reader_agrees_with_each_owner():
    # errors.case_type owns the type (4, 4, m) of each case and
    # CurveModel.hyperelliptic the family of each model; every reader of
    # them agrees with a fact derived without them
    from math import gcd

    from dicyclic_dessins import covering, covers, curves, errors

    for n in range(2, 61):
        census = {e.signature for e in covering.triangular_census(n).entries}
        for case in errors.cases(n):
            kind = errors.case_type(n, case)
            m = kind[2]
            assert covering.census_representative(n, case).signature.cone_orders == kind
            assert all(gcd(b, 2 * n) == 2 * n // m
                       for _, b, _ in covers.admissible_triples(n, case)), (n, case)
            face = monodromy.remark_dessin(n, case).face
            assert face.cycle_type() == (m,) * (4 * n // m), (n, case)
            assert kind in census, (n, case)
    for n in range(2, 17):
        for name in curves.applicable_models(n):
            model = curves.CurveModel(name, n)
            assert model.hyperelliptic == ("tau" in model.maps), (n, name)
            assert model.hyperelliptic == (model.degree == 2), (n, name)


def test_every_module_compiles_below_the_parser_token_step():
    # Runs without cached bytecode (PYTHONDONTWRITEBYTECODE, a fresh
    # checkout) compile every imported module from source, and CPython's
    # parser doubles its token array past 4,096 tokens, which costs about
    # 0.2 MB of peak memory per module over the step.  Counted as the
    # tokenizer yields them, without comments and non-logical newlines.
    skipped = {tokenize.COMMENT, tokenize.NL}
    for path in sorted(Path(PACKAGE_ROOT, "dicyclic_dessins").glob("*.py")):
        with path.open() as source:
            count = sum(t.type not in skipped
                        for t in tokenize.generate_tokens(source.readline))
        assert count < 4096, (path.name, count)


# methods that a library calls: collections.abc calls
# Subgroup._from_iterable
LIBRARY_HOOKS = {"_from_iterable"}


def _named(tree):
    """How often each name is used in a tree: as a Name, an Attribute or
    an imported name."""
    return Counter(
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name.rpartition(".")[2]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_package_definition_is_named_elsewhere():
    # The package holds only what something calls: each function,
    # method and class defined in it is named outside its own body, in
    # the package, the tests or the bench, or is part of a dotted target
    # in the SPANS and COUNTS that bench/tracer.py wraps.  Dunder methods
    # and LIBRARY_HOOKS are called from outside.  The check sees names
    # only, so a dead definition whose name is also used for something
    # else (another method, an attribute, a variable) goes unnoticed.
    root = Path(__file__).resolve().parent.parent
    package = sorted(Path(PACKAGE_ROOT, "dicyclic_dessins").glob("*.py"))
    others = sorted(root.glob("tests/*.py")) + sorted(root.glob("bench/*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + others}
    uses = sum((_named(tree) for tree in trees.values()), Counter())
    for node in trees[root / "bench" / "tracer.py"].body:
        target = getattr(node, "targets", [None])[0]
        if getattr(target, "id", None) in ("SPANS", "COUNTS"):
            for entry in node.value.elts:
                uses.update(entry.elts[1].value.split("."))
    unused = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in package
        for node in ast.walk(trees[path])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in LIBRARY_HOOKS
        and uses[node.name] <= _named(node)[node.name]
    ]
    assert unused == []


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
    (model,) = [kind for flag, _, kind, _ in commands()["curves"] if flag == "--model"]
    assert list(model) == list(MODEL_NAMES)


small = st.integers(-1, 4)
OPTIONS = {
    "census": {},
    "monodromy": {"--case": st.sampled_from(["I", "II"])},
    "hyper": {},
    "pseudo-real": {"--q": small},
    "curves": {"--model": st.sampled_from(MODEL_NAMES)},
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
    assert code in {0, 1, 2}, (args, code, err)


FLAGS = sorted({flag for options in commands().values() for flag, *_ in options})
VALUES = ["-1", "0", "2", "3", "I", "II", "pure", "Sn_cyclic", "2..3", "1e-9",
          "abc", "", "-x", "--x", "--help"]
# a line of each command that exits 0 or 1, which the drawn tokens perturb
VALID = {
    "census": {"--n": "3"},
    "monodromy": {"--n": "3", "--case": "II"},
    "hyper": {"--n": "3"},
    "pseudo-real": {"--n": "2", "--q": "3"},
    "curves": {"--n": "3", "--model": "Rn_cyclic"},
    "genus": {"--n": "3", "--mode": "pure"},
    "paper-report": {"--n-range": "2..3", "--out": "-out"},
}


@st.composite
def token_lines(draw):
    """Raw command lines: a command or not, then its own options, those
    of other commands, unknown ones and stray tokens, each as `--opt v`,
    `--opt=v` or a bare `--opt` whose value is missing or is the next
    token, placed anywhere in a line that would run."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "-h", "--help"]))
    own = [flag for flag, *_ in commands().get(command, [])] or FLAGS
    items = [draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
             for flag, value in VALID.get(command, {}).items()]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(own)
                    | st.sampled_from(FLAGS + ["--bogus", "--tri", "--", "-h", "--help"]))
        value = draw(st.sampled_from(VALUES))
        item = draw(st.sampled_from([[flag, value], [f"{flag}={value}"], [flag], [value]]))
        items.insert(draw(st.integers(0, len(items))), item)
    return [command] + [token for item in items for token in item]


@settings(max_examples=300, deadline=None)
@given(token_lines())
def test_any_raw_command_line_exits_with_a_documented_code(tmp_path_factory, tokens):
    # in process, in a directory of its own, since a drawn line may write
    # --json, --dot or --out files under any of the drawn values
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("line"))
    try:
        code, out, err = run_in_process(*tokens)
    finally:
        os.chdir(cwd)
    assert code in {0, 1, 2}, (tokens, code, err)
    assert "Traceback" not in err, tokens
    if code == 2:
        assert err.startswith("error: ") and out == "", (tokens, err)
    if "--help" in tokens:
        assert code == 0 and out.startswith("Usage: "), tokens


# sha256 of the payloads that test_payloads_match_the_pinned_digest builds.
# A deliberate claim change (for example namespaced claim IDs) changes it:
# update the digest in the same change and name the change in CHANGES.md.
PAYLOAD_DIGEST = "10f3764424ecd9c9b1a00f7847a287f5d5445a183aad41f0014deba81b067595"


def test_payloads_match_the_pinned_digest():
    # every other command for n = 2..12, in process; CURVE_SHAPE_DIGEST
    # pins the curve claims
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
CURVE_CLAIMS = ("relation:", "anticonformal:", "belyi_projection")


def test_paper_report_sections_match_the_pinned_digest():
    # the per-n report for n = 2..12 pins what the command digest skips:
    # the fixed points, the free elements and the quotient genera; the
    # curve claims are left to CURVE_SHAPE_DIGEST
    texts = []
    claims = 0
    for n in range(2, 13):
        report = reports.per_n_report(n, 0, False)
        report.claims = [c for c in report.claims if not c["id"].startswith(CURVE_CLAIMS)]
        claims += len(report.claims)
        texts.append(report.payload_json())
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert claims == 309
    assert digest == PAPER_REPORT_DIGEST


# sha256 of the curve claims that test_curve_claims_match_the_pinned_shape
# builds; the same rule as PAYLOAD_DIGEST applies.
CURVE_SHAPE_DIGEST = "3a92829dca546c979f5edb50b51d6d1ee100b2eebfd8ffc51d6a1e2b82347bc5"


def test_curve_claims_match_the_pinned_shape():
    # the curve claims that the other digests leave out, for n = 2..8,
    # whole: their ids and order, and all their data, the reduced
    # exponent vectors of each word and the terms of the projection
    texts = []
    claims = 0
    for n in range(2, 9):
        report = reports.per_n_report(n, 0, False)
        report.claims = [c for c in report.claims if c["id"].startswith(CURVE_CLAIMS)]
        claims += len(report.claims)
        texts.append(report.payload_json())
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert claims == 129
    assert digest == CURVE_SHAPE_DIGEST
