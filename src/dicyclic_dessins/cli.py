"""Command-line front end: the argparse wiring only.

Each subcommand runs one verification suite, built by its report
builder in `reports.py`, prints a JSON envelope (deterministic payload
plus a timing field) and exits 0 only if every checked, non-assumed
claim passed.  Exit codes: 0 all pass, 1 claim failure, 2 usage or
sampling error.

The command line is parsed with the standard library alone, and `main`
imports `reports` once the parse has succeeded, so `--help` and usage
errors load no report code.  The builders import the layers they call
when they run, so a command loads only the layers it uses.

The process ends without the interpreter's exit-time garbage
collections: `main` has `gc.freeze` run at exit, so the finalizer's
full collections skip every object still alive, which frees nothing a
user sees.  That is safe because every output file is written and
closed before `main` returns, the standard streams are still flushed and
atexit handlers still run, and Python never promised to call `__del__`
for objects alive at exit.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import sys
import time
from pathlib import Path

from .errors import ParameterError, SamplingError


class UsageError(Exception):
    """The command line does not parse, or an option is outside its domain."""


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        # argparse passes prefix "" when it builds a subcommand's prog
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


class _Parser(argparse.ArgumentParser):
    """Raises its usage errors into `main`, which reports them as
    `error: <message>` with exit code 2."""

    def error(self, message):
        raise UsageError(message)


def _at_least(low: int):
    """The type of an integer option whose values start at low."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def tolerance(text: str) -> float:
    """The type of `--tol`: a finite float > 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return tol


def _n_range(text: str) -> range:
    """The type of `--n-range`: lo..hi, inclusive, with 2 <= lo <= hi."""
    lo, _, hi = text.partition("..")
    if not (lo.isdecimal() and hi.isdecimal() and 2 <= int(lo) <= int(hi)):
        raise argparse.ArgumentTypeError(f"must be lo..hi, 2 <= lo <= hi, got {text!r}")
    return range(int(lo), int(hi) + 1)


def run_report(reports, args) -> None:
    """Build the command's report, write it to --json, print its envelope
    and exit 1 if a claim fails."""
    started = time.perf_counter()
    report = args.build(reports, args)
    ms = (time.perf_counter() - started) * 1000.0
    if args.json_path:
        Path(args.json_path).write_text(report.payload_json())
    sys.stdout.write(report.envelope_json(ms))
    if not report.all_pass():
        sys.exit(1)


def monodromy_with_dot(reports, args):
    """The monodromy report, and its dessin's graph written to --dot."""
    report = reports.monodromy_report(args.n, args.case)
    if args.dot_path:
        Path(args.dot_path).write_text(reports.monodromy_dot(args.n, args.case))
    return report


def paper_report(reports, args) -> None:
    """Run the full suite per n; one JSON per n plus a markdown summary."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    lines = ["# Verification summary", ""]
    for n in args.n_range:
        report = reports.per_n_report(n, args.seed, args.heavy)
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
    print(f"wrote {len(args.n_range)} reports to {out}")
    if not all_ok:
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: one subparser per command, whose `run`
    default runs it; a command given a `build` takes `--n` and `--json`,
    and `run_report` runs the one report of its `build`."""
    # no -h and no abbreviated option names: every option has one spelling
    style = dict(formatter_class=_Formatter, add_help=False, allow_abbrev=False)
    parser = _Parser(prog="dicyclic-dessins",
                     description="Desk-scale verifier for triangular dicyclic group actions.",
                     **style)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(name, doc, build=None, run=run_report):
        sub = commands.add_parser(name, help=doc.splitlines()[0], description=doc, **style)
        sub.set_defaults(run=run, build=build)
        sub.add_argument("--help", action="help", help="Show this message and exit.")
        if build:
            sub.add_argument("--n", type=_at_least(2), required=True)
            sub.add_argument("--json", dest="json_path", metavar="PATH")
        return sub

    default = "default: %(default)s"

    command("census", "Classify all triangular actions for one n.",
            lambda reports, args: reports.census_report(args.n))

    sub = command("monodromy", "Verify the explicit permutation monodromy for one n.",
                  monodromy_with_dot)
    sub.add_argument("--case", choices=["I", "II"], required=True)
    sub.add_argument("--dot", dest="dot_path", metavar="PATH")

    command("hyper", "Minimal genus with anticonformal elements, in closed form."
            "\n\nIt decides the least candidate signature and searches it for "
            "the first datum.", lambda reports, args: reports.hyper_report(args.n))

    sub = command("pseudo-real", "Build and verify one pseudo-real certificate.",
                  lambda reports, args: reports.pseudo_real_report(args.n, args.q))
    sub.add_argument("--q", type=_at_least(2), required=True)

    sub = command("curves", "Numerically verify one curve model's self-maps.",
                  lambda reports, args: reports.curves_report(
                      args.n, args.model_name, args.seed, args.trials, args.tol))
    # The names of curves.MODEL_NAMES, spelt out so that building the
    # command line does not import the curve models.
    sub.add_argument("--model", dest="model_name", required=True,
                     choices=["Sn_hyperelliptic", "Rn_hyperelliptic",
                              "Sn_cyclic", "Rn_cyclic"])
    sub.add_argument("--seed", type=int, default=0, help=default)
    sub.add_argument("--trials", type=_at_least(1), default=100, help=default)
    sub.add_argument("--tol", type=tolerance, default=1e-9, help=default)

    sub = command("genus", "Minimal genus (strong or pure symmetric genus) in closed "
                  "form, with the first witness vector.",
                  lambda reports, args: reports.genus_report(args.n, args.mode))
    sub.add_argument("--mode", choices=["strong", "pure"], default="strong", help=default)

    sub = command("paper-report", paper_report.__doc__, run=paper_report)
    sub.add_argument("--n-range", dest="n_range", type=_n_range, required=True,
                     help="inclusive range, e.g. 2..6")
    sub.add_argument("--out", dest="out_dir", metavar="PATH", required=True)
    sub.add_argument("--seed", type=int, default=0, help=default)
    sub.add_argument("--heavy", action="store_true",
                     help="add the minimal-genus and torus-exclusion claims for "
                     "every n, not only for n <= 5")
    return parser


def main() -> None:
    # registered once per process however often main runs, and run only
    # when the interpreter ends, so an in-process caller is not frozen
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        args = build_parser().parse_args()
        # only after a successful parse: --help and usage errors load no report code
        from . import reports

        args.run(reports, args)
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
