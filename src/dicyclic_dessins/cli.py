"""Command-line front end: the command table, its parser and the file
writes only.

Each command runs one verification suite, built by its report builder
in `reports.py`, prints a JSON envelope (deterministic payload plus a
timing field) and exits 0 only if every checked, non-assumed claim
passed.  Exit codes: 0 all pass, 1 claim failure, 2 usage or sampling
error, 130 interrupted.

`COMMANDS` is the whole command line: `parse` and the help text both
read it.  An option is given as `--opt value` or `--opt=value`, and a
value that begins with `--` only in the second form; there is no `-h`
and no abbreviation, a repeated option keeps its last value, and
`--help` anywhere prints the help and exits 0.  The parser is these few
lines rather than argparse, whose import (with gettext and locale) cost
every spawn more than most commands' report work.  `main` imports
`reports` once the parse has succeeded, so `--help` and usage errors
load no report code.  The builders import the layers they call when
they run, so a command loads only the layers it uses.

The process ends without the interpreter's exit-time garbage
collections: `main` has `gc.freeze` run at exit, so the finalizer's
full collections skip every object still alive, which frees nothing a
user sees.  That is safe because every output file is written and
closed before `main` returns, the standard streams are still flushed and
atexit handlers still run, and Python never promised to call `__del__`
for objects alive at exit.
"""

from __future__ import annotations

import atexit
import gc
import math
import sys
import time
from pathlib import Path

from .errors import ParameterError, SamplingError


class UsageError(Exception):
    """The command line does not parse, or an option is outside its domain."""


def _at_least(low: int):
    """The type of an integer option whose values start at low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return integer


def tolerance(text: str) -> float:
    """The type of `--tol`: a finite float > 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"must be finite and > 0, got {text}")
    return tol


def _n_range(text: str) -> range:
    """The type of `--n-range`: lo..hi, inclusive, with 2 <= lo <= hi."""
    lo, _, hi = text.partition("..")
    if not (lo.isdecimal() and hi.isdecimal() and 2 <= int(lo) <= int(hi)):
        raise ValueError(f"must be lo..hi, 2 <= lo <= hi, got {text!r}")
    return range(int(lo), int(hi) + 1)


def report_of(build):
    """The runner of a command that builds one report: it writes the
    report to --json, prints its envelope and exits 1 if a claim fails."""
    def run(reports, args: dict) -> None:
        started = time.perf_counter()
        report = build(reports, args)
        ms = (time.perf_counter() - started) * 1000.0
        if args["--json"]:
            Path(args["--json"]).write_text(report.payload_json())
        sys.stdout.write(report.envelope_json(ms))
        if not report.all_pass():
            sys.exit(1)
    return run


def monodromy_with_dot(reports, args: dict):
    """The monodromy report, and its dessin's graph written to --dot."""
    n, case = args["--n"], args["--case"]
    report = reports.monodromy_report(n, case)
    if args["--dot"]:
        Path(args["--dot"]).write_text(reports.monodromy_dot(n, case))
    return report


def paper_report(reports, args: dict) -> None:
    """Run the full suite per n; one JSON per n plus a markdown summary."""
    out = Path(args["--out"])
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    lines = ["# Verification summary", ""]
    for n in args["--n-range"]:
        report = reports.per_n_report(n, args["--seed"], args["--heavy"])
        (out / f"n{n}.json").write_text(report.payload_json())
        failures = report.failures()
        all_ok = all_ok and not failures
        passed = sum(1 for c in report.claims if c["status"] == "pass")
        assumed = sum(1 for c in report.claims if c["status"] == "assumed")
        lines.append(
            f"## n = {n}\n\n"
            f"- claims: {passed} pass, {len(failures)} fail, {assumed} assumed"
        )
        for c in failures:
            lines.append(f"- FAIL `{c['id']}`: {c['anchor']}")
        lines.append("")
    (out / "summary.md").write_text("\n".join(lines))
    print(f"wrote {len(args['--n-range'])} reports to {out}")
    if not all_ok:
        sys.exit(1)


# An option is (flag, metavar, type, default).  Its value is type(text),
# except that a tuple type lists the choices (which the help shows for a
# metavar of None) and a bool type makes a flag, which takes no value; an
# option whose default is REQUIRED must be given.
REQUIRED = ...
N, JSON = ("--n", "N", _at_least(2), REQUIRED), ("--json", "PATH", str, None)
SEED = ("--seed", "SEED", int, 0)

# Each command: (description, run(reports, args), options), where args
# maps each flag of the options to its value.
COMMANDS = {
    "census": ("Classify all triangular actions for one n.",
               report_of(lambda reports, a: reports.census_report(a["--n"])), [N, JSON]),
    "monodromy": ("Verify the explicit permutation monodromy for one n.",
                  report_of(monodromy_with_dot),
                  [N, JSON, ("--case", None, ("I", "II"), REQUIRED),
                   ("--dot", "PATH", str, None)]),
    "hyper": ("Minimal genus with anticonformal elements, in closed form.\n\nIt "
              "decides the least candidate signature and searches it for the first datum.",
              report_of(lambda reports, a: reports.hyper_report(a["--n"])), [N, JSON]),
    "pseudo-real": ("Build and verify one pseudo-real certificate.",
                    report_of(lambda reports, a: reports.pseudo_real_report(a["--n"], a["--q"])),
                    [N, JSON, ("--q", "Q", _at_least(2), REQUIRED)]),
    # The names of curves.MODEL_NAMES, spelt out so that parsing the
    # command line does not import the curve models.
    "curves": ("Numerically verify one curve model's self-maps.",
               report_of(lambda reports, a: reports.curves_report(
                   a["--n"], a["--model"], a["--seed"], a["--trials"], a["--tol"])),
               [N, JSON, ("--model", None, ("Sn_hyperelliptic", "Rn_hyperelliptic",
                                            "Sn_cyclic", "Rn_cyclic"), REQUIRED),
                SEED, ("--trials", "TRIALS", _at_least(1), 100),
                ("--tol", "TOL", tolerance, 1e-9)]),
    "genus": ("Minimal genus (strong or pure symmetric genus) in closed form, "
              "with the first witness vector.",
              report_of(lambda reports, a: reports.genus_report(a["--n"], a["--mode"])),
              [N, JSON, ("--mode", None, ("strong", "pure"), "strong")]),
    "paper-report": ("Run the full suite per n; one JSON per n plus a markdown summary."
                     "\n\nThe range lo..hi is inclusive.  --heavy adds the minimal-genus "
                     "and torus-exclusion claims for every n, not only for n <= 5.",
                     paper_report,
                     [("--n-range", "LO..HI", _n_range, REQUIRED),
                      ("--out", "PATH", str, REQUIRED), SEED, ("--heavy", "", bool, False)]),
}


def usage(command: str) -> str:
    """The help text of a command, or of the command line if none is named."""
    if command not in COMMANDS:
        return ("Usage: dicyclic-dessins COMMAND [--help] [OPTION ...]\n\n"
                "Desk-scale verifier for triangular dicyclic group actions.\n\ncommands:\n"
                + "".join(f"  {name:14}{doc.splitlines()[0]}\n"
                          for name, (doc, _, _) in COMMANDS.items()))
    doc, _, options = COMMANDS[command]
    text = f"Usage: dicyclic-dessins {command} [--help] [OPTION ...]\n\n{doc}\n\noptions:\n"
    for flag, metavar, kind, default in options:
        if metavar is None:
            metavar = "{" + ",".join(kind) + "}"
        note = "required" if default is REQUIRED else "" if default is None else f"default: {default}"
        text += f"  {flag + ' ' + metavar:24} {note}".rstrip() + "\n"
    return text


def parse(argv: list[str]) -> tuple[str, dict]:
    """The command that argv names and its args, by flag.  `--help`
    anywhere prints the `usage` of that command, or of the command line,
    and exits 0."""
    command = argv[0] if argv else ""
    if "--help" in argv:
        sys.stdout.write(usage(command))
        sys.exit(0)
    if command not in COMMANDS:
        raise UsageError(f"COMMAND must be one of {', '.join(COMMANDS)}, got {command!r}")
    options = COMMANDS[command][2]
    kinds = {flag: kind for flag, _, kind, _ in options}
    args = {flag: default for flag, _, _, default in options}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, joined, text = token.partition("=")
        kind = kinds.get(flag)
        if kind is None or joined and kind is bool:
            raise UsageError(f"unrecognized argument: {token}")
        if kind is bool:
            args[flag] = True
            continue
        if not joined:
            text = next(tokens, "--")
            if text.startswith("--"):
                raise UsageError(f"argument {flag}: expected one argument")
        try:
            if isinstance(kind, tuple) and text not in kind:
                raise ValueError(f"must be one of {', '.join(kind)}, got {text!r}")
            args[flag] = text if isinstance(kind, tuple) else kind(text)
        except ValueError as exc:
            raise UsageError(f"argument {flag}: {exc}") from None
    missing = [flag for flag, value in args.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return command, args


def main() -> None:
    # registered once per process however often main runs, and run only
    # when the interpreter ends, so an in-process caller is not frozen
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        command, args = parse(sys.argv[1:])
        # only after a successful parse: --help and usage errors load no report code
        from . import reports

        COMMANDS[command][1](reports, args)
    except (UsageError, ParameterError, SamplingError, OSError) as exc:
        # SamplingError: too many curve points or trajectories were
        # rejected at these parameters; OSError: an output path (--json,
        # --dot, --out) cannot be written
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except MemoryError:
        # an input too large to hold, such as a huge --q or --n
        print("error: the input is too large to hold in memory", file=sys.stderr)
        sys.exit(2)
    except KeyboardInterrupt:
        sys.exit(130)


if __name__ == "__main__":
    main()
