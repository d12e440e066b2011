"""Machine-readable claim reports.

A report is a command name, its parameters, and a list of claims.  A
claim is the dict that its payload holds: an id, an anchor (the
mathematical statement being checked), a status in {pass, fail,
assumed} and supporting data.  "assumed" is reserved for the
maximal-signature and full-automorphism-group assertions that cannot
be established numerically.

Serialisation is deterministic (sorted keys, fixed separators); timing
lives in a separate envelope field outside the payload so repeated runs
produce byte-identical payloads.

The report builders (one per command, and `per_n_report` for one n of
`paper-report`) import the layers they call when they run, so a command
loads only the layers it uses, and call a layer through its module
attribute (`covering.triangular_census`), so a wrapper set there, as the
benchmark's tracer sets, takes effect.  They turn indices into elements.
"""

from __future__ import annotations

import json


class Report:
    """A command's parameters and its claims, in the order they were made.

    A claim is the dict its payload holds, with the keys "id", "anchor",
    "status" and "data"; only `add` and `add_assumed` make one, so its
    status is always one of "pass", "fail" and "assumed".
    """

    __slots__ = ("command", "params", "claims")

    def __init__(self, command: str, params: dict):
        self.command, self.params, self.claims = command, params, []

    def add(self, id: str, anchor: str, ok: bool, data: object = None) -> None:
        self.claims.append({"id": id, "anchor": anchor,
                            "status": "pass" if ok else "fail", "data": data})

    def add_assumed(self, id: str, anchor: str, data: object = None) -> None:
        self.claims.append({"id": id, "anchor": anchor, "status": "assumed",
                            "data": data})

    def all_pass(self) -> bool:
        return all(c["status"] != "fail" for c in self.claims)

    def failures(self) -> list[dict]:
        return [c for c in self.claims if c["status"] == "fail"]

    def payload(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "claims": self.claims,
        }

    def payload_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"

    def envelope_json(self, ms: float) -> str:
        envelope = {"payload": self.payload(), "ms": ms}
        return json.dumps(envelope, sort_keys=True, indent=2,
                          separators=(",", ": ")) + "\n"


# -- census -------------------------------------------------------------


def census_report(n: int) -> Report:
    from . import covering, errors

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
    expected_types = sorted(tuple(sorted(errors.case_type(n, c))) for c in errors.cases(n))
    anchor = {
        1: "exactly one triangular action: unordered type {4,4,2n}",
        2: "exactly two triangular actions: types {4,4,2n} and {4,4,n}",
    }[len(expected_types)]
    report.add("unordered_types", anchor, sorted(types) == expected_types, data)
    report.add(
        "one_automorphism_orbit_per_ordered_type",
        "up to isomorphisms, one action per signature",
        all(e.automorphism_orbits == 1 for e in result.entries),
        {str(list(e.signature)): e.automorphism_orbits for e in result.entries},
    )
    return report


# -- monodromy ----------------------------------------------------------


def remark_checks(n: int, case: str) -> tuple[dict, dict]:
    """The remark dessins of the cases at n up to and including `case`,
    all built from one explicit pair, and the relations of that pair
    checked on them."""
    from . import errors, monodromy

    errors.check_case(n, case)  # first: nothing is built outside the domain
    cases = errors.cases(n)
    pair = monodromy.build_remark_permutations(n)
    dessins = {c: monodromy.remark_dessin(n, c, pair)
               for c in cases[:cases.index(case) + 1]}
    return dessins, monodromy.verify_remark_relations(n, pair, dessins)


def monodromy_report(n: int, case: str, remark: tuple | None = None) -> Report:
    """The case's dessin and the relations of the explicit pair, which
    are the same for both cases: `remark` is `remark_checks(n, c)` for
    `case` or a later case c, built here if not given."""
    from . import errors, monodromy

    dessins, relations = remark or remark_checks(n, case)
    report = Report("monodromy", {"n": n, "case": case})
    dessin = dessins[case]
    cases = errors.cases(n)
    later = cases[cases.index(case) + 1:]  # their triples are in their own reports
    for name, ok in relations.items():
        if any(name.startswith(f"case_{c}_") for c in later):
            continue
        report.add(name, "explicit permutation pair relations", ok)
    expected_genus = n if case == "I" else n - 1
    genus = dessin.genus()
    report.add(
        "dessin_genus",
        "Euler characteristic reproduces the covering genus",
        genus == expected_genus,
        {"genus": genus, "passport": [list(t) for t in dessin.passport()],
         "convention": monodromy.CONVENTION},
    )
    report.add(
        "monodromy_group_order",
        "the pair generates a group of order 4n",
        dessin.is_regular(),  # regular on its 4n edges, so of order 4n
    )
    if case == "I":
        edges = dessin.graph
        report.add(
            "bipartite_graph_is_doubled_cycle",
            "the bipartite graph is the doubled cycle on 2n vertices",
            monodromy.is_doubled_cycle(edges, 2 * n),
            {"vertices": sum(len(set(ends)) for ends in zip(*edges)),
             "edges": len(edges)},
        )
    return report


def monodromy_dot(dessin) -> str:
    """DOT text of the bipartite graph of a dessin."""
    from . import monodromy

    return monodromy.export_dot(dessin.graph)


# -- hyper --------------------------------------------------------------


def hyper_report(n: int) -> Report:
    from . import real_forms

    # the scope of the proof: below genus 2n, where the stated values lie, no
    # non-orientable signature has gamma > 1 or r > 3 (`sigma_hyp`)
    report = Report("hyper", {"n": n, "gamma_max": 1, "r_max": 3})
    g, witness = real_forms.sigma_hyp(n)
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
            "signature": {"gamma": witness.signature.gamma,
                          "cone_orders": list(witness.signature.cone_orders)},
            "plus_part": repr(witness.plus_part),
            "alpha_images": [repr(element(a)) for a in witness.hyperbolic_images],
            "beta_images": [repr(element(b)) for b in witness.cone_images],
            "scope": "reflection-free non-orientable quotients "
                     "(the induced involution is fixed-point free)",
        },
    )
    return report


# -- pseudo-real --------------------------------------------------------


def pseudo_real_report(n: int, q: int) -> Report:
    from . import real_forms

    report = Report("pseudo-real", {"n": n, "q": q})
    action, genus_cyclic, obstruction = real_forms.build_pseudo_real(n, q)
    l, genus = n * (2 * q - 1), action.genus()
    report.add(
        "genus_formula", "genus g = (l-1)(2n-1) with l = n(2q-1)",
        genus == (l - 1) * (2 * n - 1),
        {"l": l, "genus": genus},
    )
    report.add(
        "genus_cross_check",
        "non-orientable formula agrees with the cyclic-cover count",
        genus == genus_cyclic,
        {"nec": genus, "cyclic_cover": genus_cyclic},
    )
    report.add(
        "no_anticonformal_involution",
        "every element outside <x> has order four",
        obstruction["orders_outside_plus_part"] == [4],
        obstruction,
    )
    report.add_assumed(
        "full_automorphism_group",
        "maximality from the maximal-signature list (2l > 6 cone points)",
        {"cone_points": obstruction["cone_point_count_on_cyclic_quotient"]},
    )
    return report


# -- curves -------------------------------------------------------------


def curves_report(n: int, model_name: str) -> Report:
    from . import curves

    report = Report("curves", {"n": n, "model": model_name})
    model = curves.CurveModel(model_name, n)
    for check in curves.verify_dicyclic_relations(model):
        report.add(f"relation:{check['word']}", "dicyclic relations hold on the model",
                   check["pass"], check)
    if model.hyperelliptic:
        belyi = curves.verify_belyi(model)
        report.add("belyi_projection",
                   "pi is deck-invariant with branch values {0,1,inf}",
                   belyi["pass"], belyi)
        for check in curves.verify_anticonformal(model):
            report.add(f"anticonformal:{check['word']}",
                       "conjugation inverts the generators", check["pass"], check)
    return report


# -- genus --------------------------------------------------------------


def genus_report(n: int, mode: str) -> Report:
    from . import genus

    # g_max = n + 2 bounds no search; it stays until the next deliberate payload change
    report = Report("genus", {"n": n, "mode": mode, "g_max": n + 2})
    if mode == "strong":
        g, witness = genus.strong_symmetric_genus(n)
        expected = n if n % 2 == 0 else n - 1
        anchor = "sigma^0(G_n) = n (n even) / n-1 (n odd)"
    else:
        g, witness = genus.pure_symmetric_genus(n)
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


# -- paper-report -------------------------------------------------------


def per_n_report(n: int, seed: int, heavy: bool) -> Report:
    """Everything verifiable for a single n, bundled.  Every claim is
    exact, so `seed` changes nothing but the params it is recorded in."""
    from . import covering, covers, curves, errors, genus
    from .group import DicyclicGroup

    report = Report("paper-report", {"n": n, "seed": seed})
    cases = errors.cases(n)
    report.claims.extend(census_report(n).claims)
    remark = remark_checks(n, cases[-1])
    for case in cases:
        report.claims.extend(monodromy_report(n, case, remark).claims)

    group = DicyclicGroup(n)
    sizes = sorted(len(c) for c in group.conjugacy_classes)
    report.add(
        "conjugacy_classes",
        "n+3 classes of sizes {1,1,n,n} + {2 x (n-1)}",
        len(group.conjugacy_classes) == n + 3
        and sizes == sorted([1, 1, n, n] + [2] * (n - 1)),
        {"sizes": sizes},
    )

    actions = [covering.census_representative(n, case) for case in cases]
    act1 = actions[0]
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
    if "II" in cases:
        _, free2 = covering.is_purely_non_free(actions[1])
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
    for case_name, act in zip(cases, actions):
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
                if involution in H:
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
                                  if involution in H),
         "actions_checked": len(actions),
         "counterexamples": involution_counterexamples},
    )

    for case in cases:
        reps = covers.canonical_representatives(n, case)
        count = len(reps)
        expected_rep = (n, 1, 2 * n - 1) if case == "I" else (n, 2, 2 * n - 2)
        report.add(
            f"cover_classes_case_{case}",
            "one exponent-triple class with canonical representative "
            + ("(n,1,2n-1)" if case == "I" else "(n,2,2n-2)"),
            count == 1 and reps == [expected_rep],
            {"class_count": count, "representatives": [list(r) for r in reps]},
        )

    report.claims.extend(hyper_report(n).claims)
    report.claims.extend(pseudo_real_report(n, 2).claims)

    if n <= 8:
        for model_name in curves.applicable_models(n):
            report.claims.extend(curves_report(n, model_name).claims)
    if heavy or n <= 5:
        report.claims.extend(genus_report(n, "strong").claims)
        report.claims.extend(genus_report(n, "pure").claims)
        exclusion = genus.torus_exclusion_report(n)
        report.add(
            "torus_exclusion",
            "no generating vector for any of the five flat signatures",
            all(exclusion.values()),
            exclusion,
        )
    return report
