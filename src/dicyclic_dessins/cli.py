"""Command-line front end: the click wiring only.

Each subcommand runs one verification suite, built by its report
builder in `reports.py`, prints a JSON envelope (deterministic payload
plus a timing field) and exits 0 only if every checked, non-assumed
claim passed.  Exit codes: 0 all pass, 1 claim failure, 2 usage or
sampling error, 3 search exhausted: a search found no action below the
genus bound that its completeness argument states.

This module imports no layer: the builders import the layers they call
when they run, so a command loads only the layers it uses and `--help`
loads none.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import click

from . import reports
from .errors import ParameterError, SamplingError, SearchExhaustedError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise click.UsageError(message)


def _finish(report: reports.Report, started: float, json_path: str | None = None) -> None:
    ms = (time.perf_counter() - started) * 1000.0
    if json_path:
        Path(json_path).write_text(report.payload_json())
    click.echo(report.envelope_json(ms), nl=False)
    if not report.all_pass():
        sys.exit(1)


@click.group()
def cli() -> None:
    """Desk-scale verifier for triangular dicyclic group actions."""


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def census(n: int, json_path: str | None) -> None:
    """Classify all triangular actions for one n."""
    _require(n >= 2, "census needs --n >= 2")
    started = time.perf_counter()
    _finish(reports.census_report(n), started, json_path)


@cli.command("monodromy")
@click.option("--n", type=int, required=True)
@click.option("--case", "case", type=click.Choice(["I", "II"]), required=True)
@click.option("--dot", "dot_path", type=click.Path(), default=None)
@click.option("--json", "json_path", type=click.Path(), default=None)
def monodromy_cmd(n: int, case: str, dot_path: str | None, json_path: str | None) -> None:
    """Verify the explicit permutation monodromy for one n."""
    _require(n >= 2, "monodromy needs --n >= 2")
    _require(not (case == "II" and n % 2 == 0), "case II needs odd --n")
    started = time.perf_counter()
    report = reports.monodromy_report(n, case)
    if dot_path:
        Path(dot_path).write_text(reports.monodromy_dot(n, case))
    _finish(report, started, json_path)


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def hyper(n: int, json_path: str | None) -> None:
    """Minimal genus with anticonformal elements, by exhaustive search.

    It tries every non-orientable signature below genus 2n, where the minimum lies.
    """
    _require(n >= 2, "hyper needs --n >= 2")
    started = time.perf_counter()
    _finish(reports.hyper_report(n), started, json_path)


@cli.command("pseudo-real")
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def pseudo_real(n: int, q: int, json_path: str | None) -> None:
    """Build and verify one pseudo-real certificate."""
    _require(n >= 2, "pseudo-real needs --n >= 2")
    _require(q >= 2, "pseudo-real needs --q >= 2")
    started = time.perf_counter()
    _finish(reports.pseudo_real_report(n, q), started, json_path)


@cli.command()
@click.option("--n", type=int, required=True)
# The names of curves.MODEL_NAMES, spelt out so that building the command
# line does not import the curve models.
@click.option("--model", "model_name",
              type=click.Choice(["Sn_hyperelliptic", "Rn_hyperelliptic",
                                 "Sn_cyclic", "Rn_cyclic"]),
              required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def curves_cmd(n: int, model_name: str, seed: int, trials: int, tol: float,
               json_path: str | None) -> None:
    """Numerically verify one curve model's self-maps."""
    _require(n >= 2, "curves needs --n >= 2")
    _require(not (model_name.startswith("Rn") and n % 2 == 0),
             f"{model_name} needs odd --n")
    _require(math.isfinite(tol) and tol > 0, "curves needs a finite --tol > 0")
    started = time.perf_counter()
    _finish(reports.curves_report(n, model_name, seed, trials, tol), started, json_path)


@cli.command("genus")
@click.option("--n", type=int, required=True)
@click.option("--mode", type=click.Choice(["strong", "pure"]), default="strong",
              show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def genus_cmd(n: int, mode: str, json_path: str | None) -> None:
    """Minimal-genus search (strong or pure symmetric genus) up to genus n + 2."""
    _require(n >= 2, "genus needs --n >= 2")
    started = time.perf_counter()
    _finish(reports.genus_report(n, mode), started, json_path)


@cli.command("paper-report")
@click.option("--n-range", "n_range", type=str, required=True,
              help="inclusive range, e.g. 2..6")
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--heavy", is_flag=True,
              help="run the minimal-genus searches for every n, not just n <= 5")
def paper_report(n_range: str, out_dir: str, seed: int, heavy: bool) -> None:
    """Run the full suite per n; one JSON per n plus a markdown summary."""
    try:
        lo_s, hi_s = n_range.split("..")
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise click.UsageError(f"--n-range must look like 2..6, got {n_range!r}")
    _require(lo >= 2, "--n-range must start at 2 or above")
    _require(hi >= lo, "--n-range is empty")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_ok = True
    lines = ["# Verification summary", ""]
    for n in range(lo, hi + 1):
        report = reports.per_n_report(n, seed, heavy)
        (out / f"n{n}.json").write_text(report.payload_json())
        failures = report.failures()
        all_ok = all_ok and not failures
        passed = sum(1 for c in report.claims if c.status == "pass")
        assumed = sum(1 for c in report.claims if c.status == "assumed")
        lines.append(
            f"## n = {n}\n\n"
            f"- claims: {passed} pass, {len(failures)} fail, {assumed} assumed"
        )
        for c in failures:
            lines.append(f"- FAIL `{c.id}`: {c.anchor}")
        lines.append("")
    (out / "summary.md").write_text("\n".join(lines))
    click.echo(f"wrote {hi - lo + 1} reports to {out}")
    if not all_ok:
        sys.exit(1)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except (ParameterError, SamplingError, OSError) as exc:
        # SamplingError: too many curve points or trajectories were
        # rejected at these parameters; OSError: an output path (--json,
        # --dot, --out) cannot be written
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except SearchExhaustedError as exc:
        click.echo(f"search exhausted: {exc}", err=True)
        sys.exit(3)


if __name__ == "__main__":
    main()
