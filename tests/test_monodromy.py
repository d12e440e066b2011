"""Tests for permutations, the explicit monodromy pair and dessin data."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dicyclic_dessins import monodromy, reports
from dicyclic_dessins.covering import census_representative
from dicyclic_dessins.errors import cases
from dicyclic_dessins.search import rh_genus
from dicyclic_dessins.monodromy import (
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
from test_cli import run_in_process


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
        checks = verify_remark_relations(n)
        assert all(checks.values()), (n, checks)


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


def test_edge_count_is_the_degree_of_the_pair():
    for n in (2, 3):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            assert remark_dessin(n, case).edge_count == 4 * n
            assert regular_dessin(census_representative(n, case)).edge_count == 4 * n
    dessin = DessinMonodromy(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    assert dessin.edge_count == 3
    with pytest.raises(AttributeError):
        dessin.edge_count = 4


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
        dessins = [DessinMonodromy(eta, sigma)]
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
        dessin = DessinMonodromy(white, black)
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
        edges = graph_of(remark_dessin(n, "I"))
        whites, blacks = zip(*edges)
        assert len(set(whites)) + len(set(blacks)) == 2 * n
        assert len(edges) == 4 * n
        assert is_doubled_cycle(edges, 2 * n)
        assert not is_doubled_cycle(edges, 2 * n - 1)
        assert not is_doubled_cycle(edges, 2 * n + 1)


def test_case_II_graph_is_also_a_doubled_cycle():
    # same underlying graph as case I; only the face structure differs
    for n in (3, 5):
        edges = graph_of(remark_dessin(n, "II"))
        assert is_doubled_cycle(edges, 2 * n)


def test_graph_is_one_pair_per_edge_point_in_cycle_order():
    # edge point e joins the white cycle and the black cycle holding e,
    # each numbered in `Permutation.cycles` order
    for n in range(2, 8):
        for case in cases(n):
            dessin = remark_dessin(n, case)
            white, black = dessin.white.cycles(), dessin.black.cycles()
            edges = graph_of(dessin)
            assert dessin.graph == edges
            assert len(edges) == dessin.edge_count
            for e, (w, b) in enumerate(edges, start=1):
                assert e in white[w] and e in black[b]


def _doubled_cycles(*lengths):
    """The edge list of disjoint doubled cycles w0 b0 w1 b1 ... of the
    given even lengths."""
    edges, w0 = [], 0
    for length in lengths:
        half = length // 2
        for i in range(half):
            w, w_next = w0 + i, w0 + (i + 1) % half
            edges += [(w, w), (w, w), (w_next, w), (w_next, w)]
        w0 += half
    return edges


def test_disjoint_doubled_cycles_are_not_one_doubled_cycle():
    # every degree is right, but the graph has two components
    assert is_doubled_cycle(_doubled_cycles(8), 8)
    two = _doubled_cycles(4, 4)
    whites, blacks = zip(*two)
    assert (len(set(whites)) + len(set(blacks)), len(two)) == (8, 16)
    assert not is_doubled_cycle(two, 8)


def doubled_cycle_oracle(edges, m):
    """The definition: every edge twice, and the simple graph left is
    connected, on m >= 3 vertices, each of degree two."""
    simple = set(edges)
    degree = Counter([("w", w) for w, _ in simple] + [("b", b) for _, b in simple])
    if m < 3 or sorted(edges) != sorted(list(simple) * 2) or len(degree) != m \
            or set(degree.values()) != {2}:
        return False
    reached, grew = {("w", edges[0][0])}, True
    while grew:
        new = {("b", b) for w, b in simple if ("w", w) in reached}
        new |= {("w", w) for w, b in simple if ("b", b) in reached}
        grew, reached = not new <= reached, reached | new
    return len(reached) == m


def doubled_cycle_samples():
    """(edge list, m) pairs: the graphs of the remark and the regular
    dessins at n = 2..12, at m = 2n - 1, 2n, 2n + 1, and small graphs
    that break one rule each, at their vertex count and beside it."""
    samples = []
    for n in range(2, 13):
        for case in cases(n):
            for dessin in (remark_dessin(n, case),
                           regular_dessin(census_representative(n, case))):
                samples += [(graph_of(dessin), m) for m in (2 * n - 1, 2 * n, 2 * n + 1)]
    cycle = sorted(set(_doubled_cycles(8)))
    path = [(0, 0), (1, 0), (1, 1)]  # w0 b0 w1 b1
    eight = [(1, 0), (0, 0), (1, 1), (0, 1), (0, 2), (2, 2), (2, 3), (0, 3)]  # at w0
    small = [_doubled_cycles(4), _doubled_cycles(6), _doubled_cycles(8),
             _doubled_cycles(4, 4), _doubled_cycles(8, 4), _doubled_cycles(4, 6),
             cycle, cycle * 3, path * 2, eight * 2]
    for edges in small:
        vertices = sum(len(set(ends)) for ends in zip(*edges))
        samples += [(edges, m) for m in (vertices - 4, vertices - 1, vertices, vertices + 1)]
    return samples + [([], 0), ([], 2)]


def test_is_doubled_cycle_matches_the_definition():
    answers = [is_doubled_cycle(edges, m) for edges, m in doubled_cycle_samples()]
    assert answers == [doubled_cycle_oracle(*sample) for sample in doubled_cycle_samples()]
    assert True in answers and False in answers


def test_dot_export_is_deterministic():
    graph = graph_of(remark_dessin(3, "I"))
    first = export_dot(graph)
    second = export_dot(graph_of(remark_dessin(3, "I")))
    assert first == second
    assert first.startswith("graph ")
    assert "w0" in first and "b0" in first


# sha256 of the DOT text that `monodromy --n N --case C --dot PATH` writes,
# for every case of n = 2..9; a deliberate change of the DOT text changes
# them: update them in the same change and name it in CHANGES.md.
DOT_DIGESTS = {
    (2, "I"): "eb08ae53a6d81925a7dde66766471cf303478e9ace06fd99cac640f3d10f1638",
    (3, "I"): "762d739a0962287668a3633a6f8595e864ec0aeaa01b4f036c708a4205a5c218",
    (3, "II"): "628d66acbc2b59a2559b6d669cb75ca4169ccb82daed76c8dbfb265868bff016",
    (4, "I"): "13c6f3c31aa15ff940617fc7014e61542dc29e44e6fadd998b060f0f96fd0d22",
    (5, "I"): "a61fcecff22bcb31b5102483f7da1b41f5840b82c6a732879f21820b6dc0ed34",
    (5, "II"): "4a9312c383fdc12dcd45dfc4120ae5ec7571860f5a81b4a1d07949c4666b8bd2",
    (6, "I"): "66d437c1ec94b5a19dbbd373f305a601d24696a982cd466efd79c9770d598410",
    (7, "I"): "c78fb404fc750929b92658d03059477d108891582d358168385f7bc6a890a140",
    (7, "II"): "8107ad2ac757fb7213ce15a1580d34ce3d301bcb2cb5f4d97d720e683073234a",
    (8, "I"): "58fbfd514c689b48f64a27ce72e691a5a9229367cf1908e7922e9a7f56af0e33",
    (9, "I"): "b7e8b0eac326c1b40f55fe555b7e08119844eaecd855d0beaeaaab881623fca6",
    (9, "II"): "58a42a24283d565a1e9f72b78d42e2fa56850ff5ca66fdc299532662d275f3da",
}


def test_dot_files_match_the_pinned_digests(tmp_path):
    assert list(DOT_DIGESTS) == [(n, case) for n in range(2, 10) for case in cases(n)]
    for (n, case), digest in DOT_DIGESTS.items():
        dot = tmp_path / f"{n}{case}.dot"
        code, _, err = run_in_process("monodromy", "--n", str(n), "--case", case,
                                      "--dot", str(dot))
        assert code == 0, err
        assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest, (n, case)
