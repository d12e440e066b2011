"""Tests for the minimal-genus formulas, with the walks of `walks.py`
as their oracles."""

import itertools
from collections import Counter

from dicyclic_dessins import genus, real_forms, search
from dicyclic_dessins.covering import (
    fixed_point_count,
    fixed_points,
    generating_vectors,
    is_pure,
    is_purely_non_free,
)
from dicyclic_dessins.errors import InadmissibleSignatureError
from dicyclic_dessins.genus import (
    TORUS_SIGNATURES,
    exists_generating_vector,
    pure_symmetric_genus,
    strong_symmetric_genus,
    torus_exclusion_report,
)
from dicyclic_dessins.group import DicyclicGroup
from dicyclic_dessins.real_forms import sigma_hyp
from dicyclic_dessins.search import Signature, rh_genus

import walks
from walks import last_genus, order_pool, quotient_signatures


def orientable_genus(n: int, gamma: int, orders: tuple[int, ...]) -> int:
    return rh_genus(4 * n, Signature(2, gamma, orders))


def bounded_signatures(n: int, genus, gamma_max: int, r_max: int):
    """Brute force: every (g, gamma, orders) with gamma <= gamma_max and at
    most r_max orders from the pool whose genus(n, gamma, orders) is a
    non-negative integer, sorted."""
    out = []
    for gamma in range(gamma_max + 1):
        for r in range(r_max + 1):
            for orders in itertools.combinations_with_replacement(order_pool(n), r):
                try:
                    out.append((genus(n, gamma, orders), gamma, orders))
                except InadmissibleSignatureError:
                    continue
    return sorted(out)


def listed_signatures(n: int, handle: int, genera):
    """quotient_signatures over the genera, as (g, gamma, orders)."""
    return [(g, sig.gamma, sig.cone_orders) for g in genera
            for sig in quotient_signatures(n, g, handle)]


def test_signature_candidates_are_rh_exact():
    # Up to genus 3n + 2, (g - 1)/2n = 2(gamma - 1) + sum(1 - 1/m) < 2
    # gives gamma <= 1 and, each term being at least 1/2, r <= 7: the
    # brute force within those bounds lists every signature there is.
    for n in range(2, 41):
        top = 3 * n + 2
        bounded = [s for s in bounded_signatures(n, orientable_genus, 1, 7)
                   if 2 <= s[0] <= top]
        assert listed_signatures(n, 2, range(2, top + 1)) == bounded, n


def test_partitions_match_the_brute_force():
    # the oracle's partitions solve the last cone from the target; every
    # multiset of pool orders from each start index, bucketed by its sum
    # and sorted, is the brute force, for every target up to 4 lcm(pool),
    # past the largest that the walks and the tests here ask for
    for n in range(2, 13):
        pool, terms, unit = walks._scaled_pool(n)
        top = 8 * n * unit
        for lo in range(len(pool)):
            brute = {}
            for r in range(top // terms[lo] + 1):
                for picks in itertools.combinations_with_replacement(range(lo, len(pool)), r):
                    total = sum(terms[i] for i in picks)
                    if total <= top:
                        brute.setdefault(total, []).append(tuple(pool[i] for i in picks))
            for target in range(top + 1):
                listed = list(walks._partitions(target, pool, terms, lo))
                assert listed == sorted(brute.get(target, [])), (n, lo, target)


def test_genus_one_signatures_are_the_flat_ones():
    for n in range(2, 13):
        flat = [sig for sig in TORUS_SIGNATURES
                if set(sig.cone_orders) <= set(order_pool(n))]
        flat.sort(key=lambda sig: (sig.gamma, sig.cone_orders))
        assert quotient_signatures(n, 1, 2) == flat, n


def test_strong_symmetric_genus_values():
    for n in (2, 3, 4, 5):
        expected = n if n % 2 == 0 else n - 1
        g, witness = strong_symmetric_genus(n)
        assert g == expected
        gens = list(witness.hyperbolic_images) + list(witness.cone_images)
        G = DicyclicGroup(n)
        assert G.subgroup_generated(map(G.element_at, gens)).order == G.order


def test_pure_symmetric_genus_values():
    for n in (2, 3, 4, 5):
        g, witness = pure_symmetric_genus(n)
        assert g == n
        # purity cross-check against the coset fixed-point oracle:
        # on a genus-0 quotient a purely-non-free triangular witness
        # gives every element fixed points
        if witness.quotient_genus == 0 and len(witness.cone_images) == 3:
            G = witness.group
            for i in range(1, G.order):
                assert fixed_point_count(witness, i) > 0


def pure_symmetric_genus_oracle(n: int):
    """The pure search one vector at a time: each vector of each candidate
    signature up to genus n + 2 becomes a GeneratingVector tested by
    is_purely_non_free."""
    group = DicyclicGroup(n)
    for g in range(2, n + 3):
        for sig in quotient_signatures(n, g, 2):
            for vector in generating_vectors(group, sig):
                if is_purely_non_free(vector)[0]:
                    return g, vector
    raise AssertionError(f"no purely-non-free action of G_{n} up to {n + 2}")


def test_pure_search_matches_vector_oracle():
    for n in range(2, 14):
        g, witness = pure_symmetric_genus(n)
        oracle_g, oracle = pure_symmetric_genus_oracle(n)
        assert g == oracle_g, n
        assert witness.quotient_genus == oracle.quotient_genus, n
        assert witness.hyperbolic_images == oracle.hyperbolic_images, n
        assert witness.cone_images == oracle.cone_images, n


def test_purity_per_class_matches_the_fixed_point_table():
    # the pure search's one bit per conjugacy class against the whole
    # table, on the first vectors of every signature it walks, and on
    # every one or two nontrivial cone indices (the class formula of
    # `fixed_points` holds for any cones, generating or not)
    outcomes = Counter()
    for n in range(2, 9):
        group = DicyclicGroup(n)
        for g in range(2, last_genus(n) + 1):
            for sig in quotient_signatures(n, g, 2):
                for _, cones in itertools.islice(search.vectors(group, sig), 5):
                    pure = all(fixed_points(group, cones)[1:])
                    assert is_pure(group, cones) == pure, (n, sig, cones)
                    outcomes[pure] += 1
    assert outcomes[True] and outcomes[False]
    for n in range(2, 7):
        group = DicyclicGroup(n)
        nontrivial = range(1, group.order)
        for r in (1, 2):
            for cones in itertools.combinations_with_replacement(nontrivial, r):
                pure = all(fixed_points(group, cones)[1:])
                assert is_pure(group, cones) == pure, (n, cones)


def test_torus_exclusion():
    for n in (2, 3, 4, 5):
        report = torus_exclusion_report(n)
        assert len(report) == len(TORUS_SIGNATURES)
        assert all(report.values()), report


def test_admits_refutes_the_flat_signatures_in_closed_form():
    # the torus exclusion in closed form: all five flat signatures are
    # refuted at every n, and the exhaustive search agrees up to n = 40
    for n in range(2, 201):
        G = DicyclicGroup(n)
        assert [search.admits(G, sig) for sig in TORUS_SIGNATURES] == [False] * 5, n
        if n <= 40:
            assert [exists_generating_vector(G, sig) for sig in TORUS_SIGNATURES] == [None] * 5, n


def test_purity_rule_matches_every_vector_of_every_admitted_signature():
    # admits_pure against is_pure on every vector of every genus-0
    # signature that search.admits admits, up to genus 2n + 2; this holds
    # (0; 4, 4, 4, 4) at genus 2n + 1, which has no pure vector although
    # at n = 2 its order 4 is 2n: its cones there are x^(+-1) or
    # y-elements of one class
    outcomes = Counter()
    for n in range(2, 15):
        group = DicyclicGroup(n)
        for g in range(2, 2 * n + 3):
            for sig in quotient_signatures(n, g, 2):
                if sig.gamma or not search.admits(group, sig):
                    continue
                pure = any([is_pure(group, cones) for _, cones in search.vectors(group, sig)])
                assert genus.admits_pure(n, sig) == pure, (n, sig)
                outcomes[pure] += 1
    assert outcomes[True] and outcomes[False], outcomes
    assert not genus.admits_pure(2, Signature(2, 0, (4, 4, 4, 4)))
    assert genus.admits_pure(3, Signature(2, 0, (4, 4, 4, 4, 6)))


def test_purity_rule_admits_only_what_search_admits():
    # a pure vector is a generating vector, so admits_pure may hold only
    # where search.admits does; over every genus-0 signature of 1 to 4
    # cones from the pool, including those whose Riemann-Hurwitz genus is
    # not an integer, which the test above never reaches
    checked = 0
    for n in range(2, 15):
        group = DicyclicGroup(n)
        for r in range(1, 5):
            for orders in itertools.combinations_with_replacement(order_pool(n), r):
                sig = Signature(2, 0, orders)
                assert search.admits(group, sig) or not genus.admits_pure(n, sig), (n, sig)
                checked += 1
    assert checked == 1375


def test_the_walks_search_only_the_signatures_that_survive(monkeypatch):
    # the formulas decide their candidates in closed form and run the
    # engine once, on the witness's signature, at n = 255, 256, 4095 and
    # 4096, and the torus exclusion runs no engine; the genera are the
    # paper's n - 1 or n, 2n - 2 or n + 1, and n
    searched, drawn = [], []

    def counting(func, log):
        def wrapper(*args, **kwargs):
            log.append(args)
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(genus, "exists_generating_vector",
                        counting(genus.exists_generating_vector, searched))
    monkeypatch.setattr(real_forms, "admissible_homomorphisms",
                        counting(real_forms.admissible_homomorphisms, searched))
    monkeypatch.setattr(search, "vectors", counting(search.vectors, drawn))
    for n in (255, 256, 4095, 4096):
        searched.clear()
        g, witness = strong_symmetric_genus(n)
        assert g == (n if n % 2 == 0 else n - 1)
        assert searched == [(witness.group, witness.signature)], n
        searched.clear()
        g, witness = sigma_hyp(n)
        assert g == (n + 1 if n % 2 == 0 else 2 * n - 2)
        assert searched == [(witness.group, witness.plus_part, witness.signature)], n
        drawn.clear()
        g, witness = pure_symmetric_genus(n)
        assert g == n
        assert drawn == [(witness.group, witness.signature)], n
    searched.clear()
    drawn.clear()
    for n in (2, 3, 255, 256):
        assert all(torus_exclusion_report(n).values())
    assert searched == drawn == []


def test_the_formulas_match_the_walks():
    # the least admitted candidate against the genus-by-genus walk over
    # every Riemann-Hurwitz signature: the same genus, signature, plus
    # part and images, so every payload is the walk's
    pairs = ((strong_symmetric_genus, walks.strong_symmetric_genus),
             (pure_symmetric_genus, walks.pure_symmetric_genus),
             (sigma_hyp, walks.sigma_hyp))
    for n in range(2, 201):
        for formula, walk in pairs:
            (g, witness), (walk_g, oracle) = formula(n), walk(n)
            assert g == walk_g, (formula.__name__, n)
            assert witness.signature == oracle.signature, (formula.__name__, n)
            assert witness.plus_part == oracle.plus_part, (formula.__name__, n)
            assert witness.hyperbolic_images == oracle.hyperbolic_images, (formula.__name__, n)
            assert witness.cone_images == oracle.cone_images, (formula.__name__, n)


def test_flat_signatures_have_no_generating_vector():
    for n in (2, 3):
        G = DicyclicGroup(n)
        for sig in TORUS_SIGNATURES:
            assert exists_generating_vector(G, sig) is None


def test_strong_witness_is_minimal_signature_action():
    # for n even the minimum is attained by the triangular action itself
    for n in (2, 4):
        g, witness = strong_symmetric_genus(n)
        assert witness.quotient_genus == 0
        G = witness.group
        assert sorted(G.element_at(c).order() for c in witness.cone_images) == sorted(
            (4, 4, 2 * n)
        )
