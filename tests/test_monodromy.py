"""Tests for permutations, the explicit monodromy pair and dessin data."""

import random

import pytest
from hypothesis import given, strategies as st

from dicyclic_dessins import monodromy, reports
from dicyclic_dessins.covering import census_representative
from dicyclic_dessins.search import rh_genus
from dicyclic_dessins.monodromy import (
    BipartiteMapGraph,
    DessinMonodromy,
    Permutation,
    build_remark_permutations,
    export_dot,
    graph_of,
    is_doubled_cycle,
    permutation_group_order,
    regular_dessin,
    remark_dessin,
    verify_remark_relations,
)


# -- permutation utilities ---------------------------------------------


def test_from_cycles_roundtrip():
    p = Permutation.from_cycles(5, [(1, 2, 3)])
    assert p(1) == 2 and p(3) == 1 and p(4) == 4
    assert p.cycles() == [(1, 2, 3), (4,), (5,)]
    assert repr(p) == "(1,2,3)"


def test_composition_convention():
    # (p * q)(i) = p(q(i))
    p = Permutation.from_cycles(3, [(1, 2)])
    q = Permutation.from_cycles(3, [(2, 3)])
    assert (p * q)(3) == 1


@st.composite
def permutations(draw, degree=6):
    images = draw(st.permutations(range(1, degree + 1)))
    return Permutation(tuple(images))


@given(permutations(), permutations())
def test_inverse_of_product(p, q):
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(permutations())
def test_cycle_type_sums_to_degree(p):
    assert sum(p.cycle_type()) == p.degree


def power_by_products(p: Permutation, k: int) -> Permutation:
    """p^k by |k| multiplications, the oracle for the cycle-walking power."""
    result = Permutation.identity(p.degree)
    base = p if k >= 0 else p.inverse()
    for _ in range(abs(k)):
        result = base * result
    return result


@given(st.integers(1, 7).flatmap(lambda d: permutations(d)))
def test_power_and_order_match_repeated_multiplication(p):
    d = p.degree
    for k in range(-2 * d, 2 * d + 1):
        assert p ** k == power_by_products(p, k), k


def test_permutation_group_order_symmetric():
    gens = [
        Permutation.from_cycles(4, [(1, 2)]),
        Permutation.from_cycles(4, [(1, 2, 3, 4)]),
    ]
    assert permutation_group_order(gens) == 24


# -- the explicit pair --------------------------------------------------


def test_remark_relations_hold_for_all_small_n():
    for n in range(2, 51):
        result = verify_remark_relations(n)
        assert result["all_pass"], (n, result["checks"])


def test_pair_generates_group_of_order_4n():
    for n in range(2, 13):
        eta, sigma = build_remark_permutations(n)
        assert permutation_group_order([eta, sigma]) == 4 * n


def test_sigma_has_order_four():
    for n in range(2, 10):
        _, sigma = build_remark_permutations(n)
        assert sigma.cycle_type() == (4,) * n  # n disjoint 4-cycles


# -- dessins ------------------------------------------------------------


def test_remark_dessin_case_I():
    for n in range(2, 8):
        dessin = remark_dessin(n, "I")
        assert is_transitive(dessin)
        assert dessin.genus() == n
        assert dessin.monodromy_group_order() == 4 * n
        # regular: automorphism count equals edge count
        assert dessin.automorphism_count() == 4 * n
        assert dessin.is_regular()


def test_remark_dessin_case_II():
    for n in (3, 5, 7):
        dessin = remark_dessin(n, "II")
        assert is_transitive(dessin)
        assert dessin.genus() == n - 1
        assert dessin.monodromy_group_order() == 4 * n
        assert dessin.is_regular()


def test_case_II_requires_odd_n():
    with pytest.raises(Exception):
        remark_dessin(4, "II")


def test_case_I_passport():
    # white and black vertices have valence 4, faces have 2n sides
    for n in (2, 3, 4):
        dessin = remark_dessin(n, "I")
        white, black, face = dessin.passport()
        assert set(white) == {4}
        assert set(black) == {4}
        assert set(face) == {2 * n}


def dessin_genus_matches_rh(act):
    """Cross-check: Euler characteristic vs Riemann-Hurwitz."""
    dessin = regular_dessin(act)
    return dessin.genus() == rh_genus(act.group.order, act.signature)


def test_regular_dessin_matches_remark_dessin():
    for n in (2, 3, 4, 5):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            act = census_representative(n, case)
            dessin = regular_dessin(act)
            assert dessin.genus() == remark_dessin(n, case).genus()
            assert dessin_genus_matches_rh(act)


def is_transitive(dessin: DessinMonodromy) -> bool:
    """Whether the orbit of edge 1 under white, black and their inverses
    is every edge."""
    moves = [dessin.white, dessin.black, dessin.white.inverse(), dessin.black.inverse()]
    reached = {1}
    frontier = [1]
    while frontier:
        e = frontier.pop()
        for p in moves:
            q = p(e)
            if q not in reached:
                reached.add(q)
                frontier.append(q)
    return len(reached) == dessin.edge_count


def regular_by_closure(dessin: DessinMonodromy) -> bool:
    """The oracle of `is_regular`: transitive, and the BFS closure of the
    pair has as many elements as there are edges."""
    return is_transitive(dessin) and permutation_group_order(
        [dessin.white, dessin.black]) == dessin.edge_count


def test_is_regular_matches_the_closure_on_the_paper_dessins():
    for n in range(2, 41):
        eta, sigma = build_remark_permutations(n)
        dessins = [DessinMonodromy(4 * n, eta, sigma)]
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            dessins.append(remark_dessin(n, case))
            dessins.append(regular_dessin(census_representative(n, case)))
        for dessin in dessins:
            assert dessin.is_regular() and regular_by_closure(dessin), n


def test_is_regular_matches_the_closure_on_random_pairs():
    rng = random.Random(1)
    outcomes = []
    for _ in range(2000):
        degree = rng.randint(1, 6)
        white, black = (Permutation(tuple(rng.sample(range(1, degree + 1), degree)))
                        for _ in range(2))
        dessin = DessinMonodromy(degree, white, black)
        outcomes.append(dessin.is_regular())
        assert outcomes[-1] == regular_by_closure(dessin), (white, black)
    assert True in outcomes and False in outcomes


def test_no_report_path_closes_the_monodromy_group(monkeypatch):
    # the reports decide the group order by regularity; the closure is the
    # oracle of the tests above
    def closure(*args):
        raise AssertionError("a report closed a permutation group")

    monkeypatch.setattr(monodromy, "permutation_group_order", closure)
    monkeypatch.setattr(DessinMonodromy, "monodromy_group_order", closure)
    for n in range(3, 8):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            assert reports.monodromy_report(n, case).all_pass()
    reports.per_n_report(5, 0, True)


def test_case_I_graph_is_doubled_cycle():
    for n in range(2, 7):
        graph = graph_of(remark_dessin(n, "I"))
        assert graph.vertex_count == 2 * n
        assert graph.edge_count == 4 * n
        assert is_doubled_cycle(graph, 2 * n)
        assert not is_doubled_cycle(graph, 2 * n + 1)


def test_case_II_graph_is_also_a_doubled_cycle():
    # same underlying graph as case I; only the face structure differs
    for n in (3, 5):
        graph = graph_of(remark_dessin(n, "II"))
        assert is_doubled_cycle(graph, 2 * n)


def _doubled_cycles(*lengths):
    """Disjoint doubled cycles w0 b0 w1 b1 ... of the given even lengths."""
    edges, w0 = [], 0
    for length in lengths:
        half = length // 2
        for i in range(half):
            w, w_next = w0 + i, w0 + (i + 1) % half
            edges += [(w, w), (w, w), (w_next, w), (w_next, w)]
        w0 += half
    vertices = [(i,) for i in range(w0)]
    return BipartiteMapGraph(vertices, list(vertices), edges)


def test_disjoint_doubled_cycles_are_not_one_doubled_cycle():
    # every degree is right, but the graph has two components
    assert is_doubled_cycle(_doubled_cycles(8), 8)
    two = _doubled_cycles(4, 4)
    assert (two.vertex_count, two.edge_count) == (8, 16)
    assert not is_doubled_cycle(two, 8)


def test_dot_export_is_deterministic():
    graph = graph_of(remark_dessin(3, "I"))
    first = export_dot(graph)
    second = export_dot(graph_of(remark_dessin(3, "I")))
    assert first == second
    assert first.startswith("graph ")
    assert "w0" in first and "b0" in first
