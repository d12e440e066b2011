"""Command-line front end.

Each subcommand runs one verification suite, prints a JSON envelope
(deterministic payload plus a timing field) and exits 0 only if every
checked, non-assumed claim passed.  Exit codes: 0 all pass, 1 claim
failure, 2 usage or sampling error, 3 search exhausted.

Each report builder imports the layer modules it calls when it runs, so
a command loads only the layers it uses and `--help` loads none.  The
builders call a layer through its module attribute
(`covering.triangular_census`), so a wrapper set on that attribute, as
the benchmark's tracer does, takes effect.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import click

from .errors import ParameterError, SamplingError, SearchExhaustedError
from .reports import Report


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise click.UsageError(message)


def _finish(report: Report, started: float, json_path: str | None = None) -> None:
    ms = (time.perf_counter() - started) * 1000.0
    if json_path:
        Path(json_path).write_text(report.payload_json())
    click.echo(report.envelope_json(ms), nl=False)
    if not report.all_pass():
        sys.exit(1)


@click.group()
def cli() -> None:
    """Desk-scale verifier for triangular dicyclic group actions."""


# -- census -------------------------------------------------------------


def census_report(n: int) -> Report:
    from . import covering

    report = Report("census", {"n": n})
    result = covering.triangular_census(n)
    types = result.unordered_types()
    data = {
        "entries": [
            {
                "signature": list(e.signature),
                "pairs": e.pair_count,
                "conjugacy_orbits": e.conjugacy_orbits,
                "automorphism_orbits": e.automorphism_orbits,
                "representative": [repr(e.representative.group.element_at(c))
                                   for c in e.representative.cone_images],
            }
            for e in result.entries
        ],
        "unordered_types": {str(list(k)): v for k, v in sorted(types.items())},
    }
    if n % 2 == 0:
        expected_types = [tuple(sorted((4, 4, 2 * n)))]
        anchor = "exactly one triangular action: unordered type {4,4,2n}"
    else:
        expected_types = sorted(
            [tuple(sorted((4, 4, 2 * n))), tuple(sorted((4, 4, n)))]
        )
        anchor = "exactly two triangular actions: types {4,4,2n} and {4,4,n}"
    report.add("unordered_types", anchor, sorted(types) == expected_types, data)
    report.add(
        "one_automorphism_orbit_per_ordered_type",
        "up to isomorphisms, one action per signature",
        all(e.automorphism_orbits == 1 for e in result.entries),
        {str(list(e.signature)): e.automorphism_orbits for e in result.entries},
    )
    return report


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def census(n: int, json_path: str | None) -> None:
    """Classify all triangular actions for one n."""
    _require(n >= 2, "census needs --n >= 2")
    started = time.perf_counter()
    _finish(census_report(n), started, json_path)


# -- monodromy ----------------------------------------------------------


def monodromy_report(n: int, case: str) -> Report:
    from . import monodromy

    report = Report("monodromy", {"n": n, "case": case})
    relations = monodromy.verify_remark_relations(n)
    for name, ok in relations["checks"].items():
        if case == "I" and name.startswith("case_II"):
            continue
        report.add(name, "explicit permutation pair relations", ok)
    dessin = monodromy.remark_dessin(n, case)
    expected_genus = n if case == "I" else n - 1
    report.add(
        "dessin_genus",
        "Euler characteristic reproduces the covering genus",
        dessin.genus() == expected_genus,
        {"genus": dessin.genus(), "passport": [list(t) for t in dessin.passport()],
         "convention": monodromy.CONVENTION},
    )
    report.add(
        "monodromy_group_order",
        "the pair generates a group of order 4n",
        dessin.monodromy_group_order() == 4 * n,
    )
    if case == "I":
        graph = monodromy.graph_of(dessin)
        report.add(
            "bipartite_graph_is_doubled_cycle",
            "the bipartite graph is the doubled cycle on 2n vertices",
            monodromy.is_doubled_cycle(graph, 2 * n),
            {"vertices": graph.vertex_count, "edges": graph.edge_count},
        )
    return report


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
    report = monodromy_report(n, case)
    if dot_path:
        from . import monodromy

        dessin = monodromy.remark_dessin(n, case)
        Path(dot_path).write_text(monodromy.export_dot(monodromy.graph_of(dessin)))
    _finish(report, started, json_path)


# -- hyper --------------------------------------------------------------


def hyper_report(n: int, gamma_max: int, r_max: int) -> Report:
    from . import real_forms

    report = Report(
        "hyper", {"n": n, "gamma_max": gamma_max, "r_max": r_max}
    )
    g, witness = real_forms.sigma_hyp(n, gamma_max, r_max)
    element = witness.group.element_at
    expected = n + 1 if n % 2 == 0 else 2 * n - 2
    anchor = (
        "sigma^hyp(G_n) = n+1 for n even" if n % 2 == 0
        else "sigma^hyp(G_n) = 2n-2 for n odd"
    )
    report.add(
        "minimal_hyperbolic_genus", anchor, g == expected,
        {
            "genus": g,
            "signature": {"gamma": witness.sig.gamma,
                          "cone_orders": list(witness.sig.cone_orders)},
            "plus_part": repr(witness.plus_part),
            "alpha_images": [repr(element(a)) for a in witness.alpha_images],
            "beta_images": [repr(element(b)) for b in witness.beta_images],
            "scope": "reflection-free non-orientable quotients "
                     "(the induced involution is fixed-point free)",
        },
    )
    return report


@cli.command()
@click.option("--n", type=int, required=True)
@click.option("--gamma-max", type=int, default=1, show_default=True,
              help="Largest gamma (gamma + 1 crosscaps) of the signatures searched.")
@click.option("--r-max", type=int, default=3, show_default=True,
              help="Most cone points of the signatures searched.")
@click.option("--json", "json_path", type=click.Path(), default=None)
def hyper(n: int, gamma_max: int, r_max: int, json_path: str | None) -> None:
    """Minimal genus with anticonformal elements, by exhaustive search.

    No signature of genus below 2n exceeds the default bounds.
    """
    _require(n >= 2, "hyper needs --n >= 2")
    started = time.perf_counter()
    _finish(hyper_report(n, gamma_max, r_max), started, json_path)


# -- pseudo-real --------------------------------------------------------


def pseudo_real_report(n: int, q: int) -> Report:
    from . import real_forms

    report = Report("pseudo-real", {"n": n, "q": q})
    cert = real_forms.build_pseudo_real(n, q)
    report.add(
        "genus_formula", "genus g = (l-1)(2n-1) with l = n(2q-1)",
        cert.genus == cert.expected_genus,
        {"l": cert.l, "genus": cert.genus},
    )
    report.add(
        "genus_cross_check",
        "non-orientable formula agrees with the cyclic-cover count",
        cert.genus == cert.genus_via_cyclic_cover,
        {"nec": cert.genus, "cyclic_cover": cert.genus_via_cyclic_cover},
    )
    report.add(
        "no_anticonformal_involution",
        "every element outside <x> has order four",
        cert.obstruction_report["orders_outside_plus_part"] == [4],
        cert.obstruction_report,
    )
    report.add_assumed(
        "full_automorphism_group",
        "maximality from the maximal-signature list (2l > 6 cone points)",
        {"cone_points": cert.obstruction_report["cone_point_count_on_cyclic_quotient"]},
    )
    return report


@cli.command("pseudo-real")
@click.option("--n", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def pseudo_real(n: int, q: int, json_path: str | None) -> None:
    """Build and verify one pseudo-real certificate."""
    _require(n >= 2, "pseudo-real needs --n >= 2")
    _require(q >= 2, "pseudo-real needs --q >= 2")
    started = time.perf_counter()
    _finish(pseudo_real_report(n, q), started, json_path)


# -- curves -------------------------------------------------------------


def curves_report(n: int, model_name: str, seed: int, trials: int, tol: float) -> Report:
    from . import curves

    report = Report(
        "curves",
        {"n": n, "model": model_name, "seed": seed, "trials": trials, "tol": tol},
    )
    model = curves.CurveModel(model_name, n)
    for wr in curves.verify_dicyclic_relations(model, tol, trials, seed):
        report.add(f"relation:{wr.description}", "dicyclic relations hold on the model",
                   wr.passed, wr.as_dict())
    if model_name.endswith("hyperelliptic"):
        belyi = curves.verify_belyi(model, tol, trials, seed)
        report.add("belyi_projection",
                   "pi is deck-invariant with branch values {0,1,inf}",
                   belyi["pass"], belyi)
        for wr in curves.verify_anticonformal(model, tol, trials, seed):
            report.add(f"anticonformal:{wr.description}",
                       "conjugation inverts the generators",
                       wr.passed, wr.as_dict())
    return report


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
    _finish(curves_report(n, model_name, seed, trials, tol), started, json_path)


# -- genus --------------------------------------------------------------


def genus_report(n: int, mode: str, g_max: int) -> Report:
    from . import genus

    report = Report("genus", {"n": n, "mode": mode, "g_max": g_max})
    if mode == "strong":
        g, witness = genus.strong_symmetric_genus(n, g_max)
        expected = n if n % 2 == 0 else n - 1
        anchor = "sigma^0(G_n) = n (n even) / n-1 (n odd)"
    else:
        g, witness = genus.pure_symmetric_genus(n, g_max)
        expected = n
        anchor = "sigma_p(G_n) = n"
    report.add(
        f"{mode}_symmetric_genus", anchor, g == expected,
        {
            "genus": g,
            "signature": {
                "gamma": witness.quotient_genus,
                "cone_orders": list(witness.signature.cone_orders),
            },
            "cone_images": [repr(witness.group.element_at(c))
                            for c in witness.cone_images],
        },
    )
    return report


@cli.command("genus")
@click.option("--n", type=int, required=True)
@click.option("--mode", type=click.Choice(["strong", "pure"]), default="strong",
              show_default=True)
@click.option("--g-max", type=int, default=None,
              help="search bound; defaults to n + 2")
@click.option("--json", "json_path", type=click.Path(), default=None)
def genus_cmd(n: int, mode: str, g_max: int | None, json_path: str | None) -> None:
    """Minimal-genus search (strong or pure symmetric genus)."""
    _require(n >= 2, "genus needs --n >= 2")
    if g_max is None:
        g_max = n + 2
    _require(g_max >= 2, "genus needs --g-max >= 2")
    started = time.perf_counter()
    _finish(genus_report(n, mode, g_max), started, json_path)


# -- paper-report -------------------------------------------------------


def _per_n_report(n: int, seed: int, heavy: bool) -> Report:
    """Everything verifiable for a single n, bundled."""
    from . import covering, covers, curves, genus
    from .group import DicyclicGroup

    report = Report("paper-report", {"n": n, "seed": seed})
    report.claims.extend(census_report(n).claims)
    report.claims.extend(monodromy_report(n, "I").claims)
    if n % 2 == 1:
        report.claims.extend(monodromy_report(n, "II").claims)

    group = DicyclicGroup(n)
    sizes = sorted(len(c) for c in group.conjugacy_classes)
    report.add(
        "conjugacy_classes",
        "n+3 classes of sizes {1,1,n,n} + {2 x (n-1)}",
        len(group.conjugacy_classes) == n + 3
        and sizes == sorted([1, 1, n, n] + [2] * (n - 1)),
        {"sizes": sizes},
    )

    act1 = covering.census_representative(n, "I")
    # x^a y^b has index 2a + b
    indices = {"x": 2, "x^n": 2 * n, "y": 1, "xy": 3}
    fps = {name: covering.fixed_point_count(act1, i) for name, i in indices.items()}
    report.add(
        "case_I_fixed_points",
        "fixed points of (x, x^n, y, xy) = (2, 2+2n, 2, 2)",
        fps == {"x": 2, "x^n": 2 + 2 * n, "y": 2, "xy": 2},
        fps,
    )
    pnf, free = covering.is_purely_non_free(act1)
    report.add("case_I_purely_non_free", "the genus-n action is purely non-free",
               pnf, {"free_elements": [repr(group.element_at(i)) for i in free]})
    actions = [act1]
    if n % 2 == 1:
        act2 = covering.census_representative(n, "II")
        actions.append(act2)
        _, free2 = covering.is_purely_non_free(act2)
        expected_free = [2 * k for k in range(1, 2 * n, 2) if k != n]
        report.add(
            "case_II_free_elements",
            "exactly the odd powers of x other than x^n act freely",
            free2 == expected_free,
            {"free_elements": [repr(group.element_at(i)) for i in free2]},
        )
    # The stated claim fails for every n that is not a power of two: some
    # odd-order subgroups of <x> have quotients of positive genus.  The
    # refined claim keeps only the subgroups holding the involution x^n.
    involution = 2 * n  # the index of x^n
    counterexamples, involution_counterexamples = [], []
    for case_name, act in zip(("I", "II"), actions):
        for H in group.subgroups:
            if H.is_trivial():
                continue
            qg = covering.quotient_genus(act, H)
            if qg != 0:
                counterexamples.append({
                    "case": case_name,
                    "subgroup": sorted(repr(g) for g in H.generators),
                    "order": H.order,
                    "quotient_genus": qg,
                })
                if involution in H.members:
                    involution_counterexamples.append(counterexamples[-1])
    report.add(
        "quotient_genera",
        "S/H has genus zero for every nontrivial subgroup H",
        not counterexamples,
        {"subgroups_checked": sum(1 for H in group.subgroups if not H.is_trivial()),
         "actions_checked": len(actions),
         "counterexamples": counterexamples},
    )
    report.add(
        "involution_quotient_genera",
        "S/H has genus zero for every H containing x^n",
        not involution_counterexamples,
        {"subgroups_checked": sum(1 for H in group.subgroups
                                  if involution in H.members),
         "actions_checked": len(actions),
         "counterexamples": involution_counterexamples},
    )

    for case in ("I",) if n % 2 == 0 else ("I", "II"):
        count = covers.class_count(n, case)
        reps = [t.as_tuple() for t in covers.canonical_representatives(n, case)]
        expected_rep = (n, 1, 2 * n - 1) if case == "I" else (n, 2, 2 * n - 2)
        report.add(
            f"cover_classes_case_{case}",
            "one exponent-triple class with canonical representative "
            + ("(n,1,2n-1)" if case == "I" else "(n,2,2n-2)"),
            count == 1 and reps == [expected_rep],
            {"class_count": count, "representatives": [list(r) for r in reps]},
        )

    report.claims.extend(hyper_report(n, 1, 3).claims)
    report.claims.extend(pseudo_real_report(n, 2).claims)

    if n <= 8:
        for model_name in curves.applicable_models(n):
            report.claims.extend(
                curves_report(n, model_name, seed, 100, 1e-9).claims
            )
    if heavy or n <= 5:
        report.claims.extend(genus_report(n, "strong", n + 2).claims)
        report.claims.extend(genus_report(n, "pure", n + 2).claims)
        exclusion = genus.torus_exclusion_report(n)
        report.add(
            "torus_exclusion",
            "no generating vector for any of the five flat signatures",
            all(exclusion.values()),
            exclusion,
        )
    return report


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
        report = _per_n_report(n, seed, heavy)
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
