"""Machine-readable claim reports.

A report is a command name, its parameters, and a list of claims, each
carrying an anchor (the mathematical statement being checked), a status
in {pass, fail, assumed} and supporting data.  "assumed" is reserved
for the maximal-signature and full-automorphism-group assertions that
cannot be established numerically.

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
from dataclasses import dataclass, field

VALID_STATUSES = ("pass", "fail", "assumed")


@dataclass
class Claim:
    id: str
    anchor: str
    status: str
    data: object = None

    def __post_init__(self) -> None:
        if self.status not in VALID_STATUSES:
            raise ValueError(f"invalid status {self.status!r}")

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "status": self.status,
            "data": self.data,
        }


@dataclass
class Report:
    command: str
    params: dict
    claims: list[Claim] = field(default_factory=list)

    def add(self, id: str, anchor: str, ok: bool, data: object = None) -> Claim:
        claim = Claim(id, anchor, "pass" if ok else "fail", data)
        self.claims.append(claim)
        return claim

    def add_assumed(self, id: str, anchor: str, data: object = None) -> Claim:
        claim = Claim(id, anchor, "assumed", data)
        self.claims.append(claim)
        return claim

    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.claims)

    def failures(self) -> list[Claim]:
        return [c for c in self.claims if c.status == "fail"]

    def payload(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "claims": [c.as_dict() for c in self.claims],
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
        graph = monodromy.graph_of(dessin)
        report.add(
            "bipartite_graph_is_doubled_cycle",
            "the bipartite graph is the doubled cycle on 2n vertices",
            monodromy.is_doubled_cycle(graph, 2 * n),
            {"vertices": graph.vertex_count, "edges": graph.edge_count},
        )
    return report


def monodromy_dot(n: int, case: str) -> str:
    """DOT text of the bipartite graph of the case's dessin."""
    from . import monodromy

    return monodromy.export_dot(monodromy.graph_of(monodromy.remark_dessin(n, case)))


# -- hyper --------------------------------------------------------------


def hyper_report(n: int) -> Report:
    from . import real_forms

    # the scope of the walk: below genus 2n, where the stated values lie, no
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


# -- curves -------------------------------------------------------------


def curves_report(n: int, model_name: str, seed: int, trials: int, tol: float) -> Report:
    from . import curves

    report = Report(
        "curves",
        {"n": n, "model": model_name, "seed": seed, "trials": trials, "tol": tol},
    )
    model = curves.CurveModel(model_name, n)
    relations, anticonformal = curves.verify_model_words(model, tol, trials, seed)
    for wr in relations:
        report.add(f"relation:{wr.description}", "dicyclic relations hold on the model",
                   wr.passed, wr.as_dict())
    if model_name.endswith("hyperelliptic"):
        belyi = curves.verify_belyi(model, tol, trials, seed)
        report.add("belyi_projection",
                   "pi is deck-invariant with branch values {0,1,inf}",
                   belyi["pass"], belyi)
        for wr in anticonformal:
            report.add(f"anticonformal:{wr.description}",
                       "conjugation inverts the generators",
                       wr.passed, wr.as_dict())
    return report


# -- genus --------------------------------------------------------------


def genus_report(n: int, mode: str) -> Report:
    from . import genus

    report = Report("genus", {"n": n, "mode": mode, "g_max": genus.last_genus(n)})
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
        reps = [t.as_tuple() for t in covers.canonical_representatives(n, case)]
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
            report.claims.extend(
                curves_report(n, model_name, seed, 100, 1e-9).claims
            )
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
