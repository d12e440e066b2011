"""Mutation test of the closed-form deciders `search.admits` and
`genus.admits_pure`, of the closure `DicyclicGroup._closure_indices`, of
`covering.quotient_genus`, of the candidate lists of
`genus.strong_symmetric_genus` and `real_forms.sigma_hyp`, of the exact
curve layer `curves`, of the exclusion-zone test of the numeric
sampler's step loop `sampler._walk`, and of the doubled-cycle test
`monodromy.is_doubled_cycle`.

Each mutant deletes or changes one clause of a function's source text;
it is executed into a fresh module namespace in process, and some answer
of the mutated function must differ from its oracle, a raise counting as
a different answer.  The unmutated source, run the same way, is the
control and must agree everywhere.

The deciders' oracle is the exhaustive search (`search.vectors`, and
`covering.is_pure` on every vector for purity).  It covers, for
n = 2..8, and again for n = 9..14 against the package's deciders, every
genus-0 signature of at most four orders from
`walks.order_pool(n)` and 2n + 1 (at most six for n <= 4), every (1; m)
and (1; -), and every handle-1 signature of gamma <= 1 and at most three
cones over each index-two plus part.  Four cones leave some clauses
unreachable: an odd count of order-4 cones at odd n, or the t >= 4
y-element cones of a pure vector beside an order 2n, needs five or six.

The closure's oracle is the breadth-first closure over the
multiplication table that `test_group.py` keeps, on every generator pair
at n = 2..8; that of `quotient_genus` is the coset-cycle count
`covering.quotient_signature`, on every subgroup and case at n = 2..12;
that of the candidate lists is the genus-by-genus walks of `walks.py`
at n = 2..16, which must give the same genus, signature, plus part and
images.  The exact curve layer's oracle is the numeric sampler: its
verdict on every curve claim at n = 2..8, on the true maps and with x's
w root shifted by one (`test_curves.shifted`), must be the layer's, and
each image in the table of each map must evaluate, at sample points, to
the basis factor at the sampler's image point (`test_curves.table_errors`).
The zone test's oracle is the full scan over `branch_locus()`:
one x step from each probe of `test_sampler._locus_probes` at n = 2..6,
on every applicable model, must stop exactly where the scan puts the
probe within BRANCH_DISTANCE of the locus.  The doubled-cycle test's
oracle is its definition, `test_monodromy.doubled_cycle_oracle` (every
edge twice, and a connected simple graph on m vertices of degree two),
on `test_monodromy.doubled_cycle_samples`: the dessin graphs at
n = 2..12, and small graphs that break one rule each (an undoubled and
a tripled cycle, a doubled path, two doubled cycles apart or sharing a
vertex).
"""

import itertools
import random
from functools import lru_cache
from pathlib import Path

import pytest

import sampler
import walks
from dicyclic_dessins import covering, curves, genus, group, monodromy, real_forms, search
from dicyclic_dessins.covering import census_representative, is_pure
from dicyclic_dessins.errors import cases
from dicyclic_dessins.group import DicyclicGroup
from dicyclic_dessins.search import Signature

from test_curves import sampled_shifted_x, sampled_verdicts, shifted, table_errors
from test_group import closure_oracle
from test_monodromy import doubled_cycle_oracle, doubled_cycle_samples
from test_sampler import _locus_probes
from walks import order_pool

# (decider, the source text of one clause, its mutant): each source text
# occurs exactly once in its module
MUTANTS = [
    # search.admits, orientable
    ("admits", "        if any(m != 4 and two_n % m for m in orders):\n            return False\n",
     ""),
    ("admits", "return orders == (n,) if sig.gamma == 1",
     "return orders == (two_n,) if sig.gamma == 1"),
    ("admits", "if fours < 2 or n % 2 and fours % 2:",
     "if fours < 2:"),
    ("admits", "if fours < 2 or n % 2 and fours % 2:",
     "if fours < 1 or n % 2 and fours % 2:"),
    ("admits", "        if fours >= 4:\n            return True\n", ""),
    ("admits", "return rest == two_n or n % 2 == 1 and rest == n",
     "return rest == two_n"),
    ("admits", "return rest == two_n or n % 2 == 1 and rest == n",
     "return rest == two_n or rest == n"),
    # search.admits, handle 1 over <x^2, x^s y>
    ("admits", "if any(m != 4 and n % m for m in orders) or fours % 2 and n % 4:",
     "if any(m != 4 and n % m for m in orders):"),
    ("admits", "if any(m != 4 and n % m for m in orders) or fours % 2 and n % 4:",
     "if any(m != 4 and two_n % m for m in orders) or fours % 2 and n % 4:"),
    ("admits", "        if fours >= 2:\n            return True\n", ""),
    ("admits", "if all((k_x + (k - k_x) * n // 2 + odd) % 2 for k_x in range(1, k)):",
     "if all((k_x + odd) % 2 for k_x in range(1, k)):"),
    ("admits", "return k > 2 or q & (q - 1) == 0", "return True"),
    # search.admits, handle 1 over <x>
    ("admits", "    if any(two_n % m for m in orders):\n        return False\n", ""),
    ("admits", "if k == 1 and gcd(n, two_n // lcm(*orders)) != 1:", "if False:"),
    ("admits", "return gcd(k * n, two_n) in reached", "return gcd(n, two_n) in reached"),
    # genus.admits_pure
    ("admits_pure", "    if any(m != 4 and two_n % m for m in orders):\n        return False\n",
     ""),
    ("admits_pure", "        if n % 2 and t < fours:\n            continue\n", ""),
    ("admits_pure", "if two_n in rest and", "if True and"),
    ("admits_pure", "(t > 2 or n % 2 or sum(two_n // m % 2 for m in rest) % 2)",
     "(t > 2 or n % 2 or True)"),
    ("admits_pure", "(t > 2 or n % 2 or sum(two_n // m % 2 for m in rest) % 2)",
     "(n % 2 or sum(two_n // m % 2 for m in rest) % 2)"),
    ("admits_pure", "for t in range(2, fours + 1, 2):", "for t in range(2, fours + 1):"),
]

# (function, the source text of one clause, its mutant) for the functions
# that `ORACLES` compares one at a time
CONSTRUCTION_MUTANTS = [
    # DicyclicGroup._closure_indices
    ("DicyclicGroup._closure_indices", "s, d = a, gcd(d, self.n)", "s, d = a, d"),
    ("DicyclicGroup._closure_indices", "d = gcd(d, a - s if b else a)", "d = gcd(d, a)"),
    ("DicyclicGroup._closure_indices", "if b and s is None:", "if b:"),
    ("DicyclicGroup._closure_indices", "d, s = 2 * self.n, None", "d, s = self.n, None"),
    # covering.quotient_genus
    ("quotient_genus", "for h in H if h)", "for h in H)"),
    ("quotient_genus", "return trace // (2 * len(H))", "return trace // len(H)"),
    ("quotient_genus", "trace = 2 * act.genus() +", "trace = act.genus() +"),
    # the candidate lists of the minimal-genus formulas
    ("strong_symmetric_genus", "[(_triangle(2 * n), None), (_triangle(n), None)]",
     "[(_triangle(2 * n), None)]"),
    ("strong_symmetric_genus", "[(_triangle(2 * n), None), (_triangle(n), None)]",
     "[(_triangle(n), None)]"),
    ("sigma_hyp", "(4, 4) if n % 2 == 0 else (n, 2 * n)", "(4, 4) if n % 2 else (n, 2 * n)"),
    ("sigma_hyp", "for H in group.index_two_subgroups()]",
     "for H in group.index_two_subgroups()[1:]]"),
    # the exact curve layer: tau conjugates, -z sends z - 1 to -(z + 1),
    # 1/z sends B to -z^-2n B, w^f is reduced, the fibres alternate
    ("CurveModel", "out = [-v[K] if anti else v[K],", "out = [v[K],"),
    ("CurveModel", "_factor(model, k, 0, sign * r - k)", "_factor(model, 0, 0, sign * r - k)"),
    ("CurveModel", "monomial(2 * n, z=-2 * n, b=1)", "monomial(b=1)"),
    ("CurveModel", "q, v[W] = divmod(v[W], model.degree)", "q = 0"),
    ("CurveModel", "for k in (0, 1)]", "for k in (1, 2)]"),
    # sampler._walk: the zone test before each step
    ("_walk", "(modulus < SHELL or -SHELL < modulus - 1.0 < SHELL)",
     "(-SHELL < modulus - 1.0 < SHELL)"),
    ("_walk", "(modulus < SHELL or -SHELL < modulus - 1.0 < SHELL)", "(modulus < SHELL)"),
    ("_walk", "model.branch_distance(z) < BRANCH_DISTANCE",
     "model.branch_distance(z) < BRANCH_DISTANCE / 2"),
    # monodromy.is_doubled_cycle: each rule of the definition, and the walk
    ("is_doubled_cycle", "any(k != 2 for k in doubled.values())", "False"),
    ("is_doubled_cycle", "any(len(nbrs) != 2 for nbrs in neighbours.values())", "False"),
    ("is_doubled_cycle", "return length == m", "return True"),
    ("is_doubled_cycle", "len(neighbours) != m", "False"),
    ("is_doubled_cycle", "if m < 3 or", "if"),
]

MODULES = {"admits": search, "admits_pure": genus,
           "DicyclicGroup._closure_indices": group, "quotient_genus": covering,
           "strong_symmetric_genus": genus, "sigma_hyp": real_forms, "CurveModel": curves,
           "_walk": sampler, "is_doubled_cycle": monodromy}


@lru_cache(maxsize=2)
def oracle(ns):
    """Every (n, signature, plus part) of the module docstring, for n in
    ns, with whether it has a generating vector and, for an orientable
    one, whether it has a purely-non-free one."""
    answers = []
    for n in ns:
        group = DicyclicGroup(n)
        pool = order_pool(n)
        # 2n + 1 is no element order; five and six cones reach t >= 4
        # order-4 cones beside other cones
        orientable = [Signature(2, 0, orders) for r in range(7 if n <= 4 else 5)
                      for orders in itertools.combinations_with_replacement(
                          pool + [2 * n + 1], r)]
        orientable += [Signature(2, 1, orders) for orders in [()] + [(m,) for m in pool]]
        for sig in orientable:
            vectors = search.vectors(group, sig)
            first = next(vectors, None)
            pure = first is not None and (is_pure(group, first[1]) or any(
                is_pure(group, cones) for _, cones in vectors))
            answers.append((n, sig, None, first is not None, pure))
        for H in group.index_two_subgroups():
            for gamma in (0, 1):
                for r in range(4):
                    for orders in itertools.combinations_with_replacement(pool, r):
                        sig = Signature(1, gamma, orders)
                        found = next(search.vectors(group, sig, H), None) is not None
                        answers.append((n, sig, H, found, None))
    return answers


def disagreements(deciders, ns=range(2, 9)):
    """The oracle entries for n in ns where `deciders` (name -> function)
    answer otherwise."""
    admits, admits_pure = deciders["admits"], deciders["admits_pure"]
    wrong = []
    for n, sig, H, found, pure in oracle(ns):
        group = DicyclicGroup(n)
        if admits(group, sig, H) != found:
            wrong.append(("admits", n, sig, H))
        if pure is not None and admits_pure(n, sig) != pure:
            wrong.append(("admits_pure", n, sig))
    return wrong


def executed(name, source):
    """The function `name` (a method as `Class.method`) of this module
    source, executed into a fresh namespace of the package."""
    module = MODULES[name]
    namespace = {"__name__": f"{module.__name__}_mutant", "__package__": "dicyclic_dessins"}
    exec(compile(source, module.__file__, "exec"), namespace)
    owner, _, attr = name.rpartition(".")
    return vars(namespace[owner])[attr] if owner else namespace[attr]


def mutated(name, clause="", mutant=""):
    """The function `name`, executed from its module's source text with
    `clause` replaced by `mutant`."""
    source = Path(MODULES[name].__file__).read_text()
    if clause:
        assert source.count(clause) == 1, clause
        source = source.replace(clause, mutant)
    return executed(name, source)


def deciders(name=None, clause="", mutant=""):
    """Both deciders, executed from their source texts, with one clause of
    `name` replaced by its mutant."""
    return {decider: mutated(decider, *((clause, mutant) if decider == name else ()))
            for decider in ("admits", "admits_pure")}


def test_the_unmutated_deciders_agree_with_the_oracle():
    answers = oracle(range(2, 9))
    assert any(a[3] for a in answers) and any(a[4] for a in answers)
    assert disagreements(deciders()) == []


def test_the_deciders_agree_with_the_oracle_at_n_9_to_14():
    # the same signatures past n = 8, where the walks alone met the
    # search: search.admits against the exhaustive search on every one,
    # admits_pure against is_pure on every vector of the orientable ones
    answers = oracle(range(9, 15))
    assert any(a[3] for a in answers) and any(a[4] for a in answers)
    assert any(a[3] and a[4] is False for a in answers)
    deciders = {"admits": search.admits, "admits_pure": genus.admits_pure}
    assert disagreements(deciders, range(9, 15)) == []


@pytest.mark.parametrize("name, clause, mutant", MUTANTS)
def test_every_one_clause_mutant_of_a_decider_is_killed(name, clause, mutant):
    assert disagreements(deciders(name, clause, mutant)), (name, clause, mutant)


def answer(func, *args):
    """func(*args), or the type of the exception it raised."""
    try:
        return func(*args)
    except Exception as error:  # a mutant may raise anything; that is its answer
        return type(error)


@lru_cache(maxsize=1)
def closure_answers():
    """(group, generator pair, members) for every pair at n = 2..8."""
    return [(G, pair, closure_oracle(G, pair))
            for G in map(DicyclicGroup, range(2, 9))
            for pair in itertools.combinations_with_replacement(range(G.order), 2)]


def members(closure, G, pair):
    return frozenset(closure(G, pair))


def wrong_closures(closure):
    return [(G.n, pair) for G, pair, want in closure_answers()
            if answer(members, closure, G, pair) != want]


@lru_cache(maxsize=1)
def quotient_answers():
    """(action, subgroup, genus of the quotient) for every subgroup and
    case at n = 2..12."""
    out = []
    for n in range(2, 13):
        for case in cases(n):
            act = census_representative(n, case)
            out += [(act, H, covering.quotient_signature(act, H).gamma)
                    for H in DicyclicGroup(n).subgroups]
    return out


def wrong_quotients(quotient_genus):
    return [(act.group.n, H) for act, H, gamma in quotient_answers()
            if answer(quotient_genus, act, H) != gamma]


def witness_of(found):
    """The genus and witness data of a formula's answer, or what it raised."""
    if isinstance(found, type):
        return found
    g, w = found
    return g, w.signature, w.plus_part, w.hyperbolic_images, w.cone_images


@lru_cache(maxsize=2)
def walk_answers(walk):
    return [(n, witness_of(walk(n))) for n in range(2, 17)]


def wrong_candidates(formula, walk):
    return [n for n, expected in walk_answers(walk)
            if witness_of(answer(formula, n)) != expected]


def curve_verdicts(model_class, verdicts):
    """The verdicts on every curve claim at n = 2..8, on the true maps
    and with x's w root shifted, of models of `model_class`."""
    return [verdicts(change(model_class(name, n)))
            for n in range(2, 9) for name in curves.applicable_models(n)
            for change in (lambda model: model, lambda model: shifted(model, "x", 2))]


@lru_cache(maxsize=1)
def curve_answers():
    """The sampler's verdicts on the claims of `curve_verdicts`."""
    return [sampled_verdicts(change(sampler.CurveModel(name, n)), 0)
            for n in range(2, 9) for name in curves.applicable_models(n)
            for change in (lambda model: model, sampled_shifted_x)]


def wrong_curve_claims(model_class):
    """The claims on which the curve layer of this `CurveModel` (the
    functions of its module namespace) and the sampler disagree, and the
    table images of its maps that the sampler's maps refute."""
    namespace = model_class.__init__.__globals__

    def verdicts(model):
        found = namespace["verify_dicyclic_relations"](model)
        if model.hyperelliptic:
            found.append(namespace["verify_belyi"](model))
            found += namespace["verify_anticonformal"](model)
        return [r["pass"] for r in found]

    got = answer(curve_verdicts, model_class, verdicts)
    if isinstance(got, type):
        return got
    tables = [answer(table_errors, model_class(name, n), namespace["_table"])
              for n in range(2, 9) for name in curves.applicable_models(n)]
    return [i for i, (a, b) in enumerate(zip(got, curve_answers())) if a != b] + [
        errors for errors in tables if errors]


@lru_cache(maxsize=1)
def zone_answers():
    """(model, its plan of one x step, the step's slot, probe, whether the
    full scan puts the probe in the exclusion zone) at n = 2..6."""
    rng = random.Random(22)
    out = []
    for n in range(2, 7):
        ring = sampler.CurveModel("Sn_hyperelliptic", n).branch_locus()
        probes = _locus_probes(n, ring, rng)
        for name in curves.applicable_models(n):
            model = sampler.CurveModel(name, n)
            trails, size, [(got, _)] = sampler._plan(model, [([("x", 1)], [])])
            locus = model.branch_locus()
            out += [(model, (trails, size), got, z,
                     min(abs(z - b) for b in locus) < sampler.BRANCH_DISTANCE)
                    for z in probes]
    return out


def stops(walk, model, plan, got, z):
    return walk(model, *plan, (z, 1 + 0j))[got] is None


def wrong_zones(walk):
    return [(model.name, model.n, z) for model, plan, got, z, inside in zone_answers()
            if answer(stops, walk, model, plan, got, z) != inside]


def wrong_doubled_cycles(is_doubled_cycle):
    return [(edges, m) for edges, m in doubled_cycle_samples()
            if answer(is_doubled_cycle, edges, m) != doubled_cycle_oracle(edges, m)]


ORACLES = {
    "DicyclicGroup._closure_indices": wrong_closures,
    "quotient_genus": wrong_quotients,
    "strong_symmetric_genus": lambda f: wrong_candidates(f, walks.strong_symmetric_genus),
    "sigma_hyp": lambda f: wrong_candidates(f, walks.sigma_hyp),
    "CurveModel": wrong_curve_claims,
    "_walk": wrong_zones,
    "is_doubled_cycle": wrong_doubled_cycles,
}


@pytest.mark.parametrize("name", ORACLES)
def test_the_unmutated_constructions_agree_with_their_oracles(name):
    assert ORACLES[name](mutated(name)) == []


@pytest.mark.parametrize("name, clause, mutant", CONSTRUCTION_MUTANTS)
def test_every_one_clause_mutant_of_a_construction_is_killed(name, clause, mutant):
    assert ORACLES[name](mutated(name, clause, mutant)), (name, clause, mutant)
