"""Tests for the dicyclic group core."""

import itertools
import pickle
from math import prod

import pytest
from hypothesis import given, strategies as st

from dicyclic_dessins import reports
from dicyclic_dessins.covering import quotient_genus, triangular_census
from dicyclic_dessins.errors import ParameterError
from dicyclic_dessins.genus import pure_symmetric_genus, strong_symmetric_genus
from dicyclic_dessins.group import DicyclicGroup, GroupElement
from dicyclic_dessins.real_forms import build_pseudo_real, sigma_hyp


def test_rejects_small_n():
    with pytest.raises(ParameterError):
        DicyclicGroup(1)


def test_group_is_shared_per_n():
    assert DicyclicGroup(5) is DicyclicGroup(5)
    G = DicyclicGroup(5)
    DicyclicGroup(6)
    # only the last group is held, so n = 5 is built again
    assert DicyclicGroup(5) is not G
    assert DicyclicGroup(5) is DicyclicGroup(5)


def test_shared_group_survives_pickling():
    G = DicyclicGroup(7)
    data = pickle.dumps(G)
    DicyclicGroup(8)
    copy = pickle.loads(data)
    assert copy is not G and (copy.n, copy.order) == (7, 28)
    assert copy.mul_table == G.mul_table


def test_report_payloads_do_not_depend_on_section_order():
    # cold: each n = 5 section builds its group afresh; warm: the sections
    # run in reverse after an n = 6 section, and reuse one shared group
    sections = (
        lambda n: reports.census_report(n),
        lambda n: reports.genus_report(n, "strong"),
        lambda n: reports.genus_report(n, "pure"),
        lambda n: reports.hyper_report(n),
    )
    cold = []
    for section in sections:
        DicyclicGroup(7)
        cold.append(section(5).payload_json())
    sections[0](6)
    warm = [section(5).payload_json() for section in reversed(sections)]
    assert warm[::-1] == cold


@pytest.mark.parametrize("n", [5, 6])
def test_no_production_path_builds_the_product_table(n):
    # the searches, the census, the coset cycles and a heavy report all
    # multiply by the closed-form `mul`; the table is for the tests only
    DicyclicGroup(n + 1)  # evict the shared group, so the next one is fresh
    G = DicyclicGroup(n)
    census = triangular_census(n)
    strong_symmetric_genus(n)
    pure_symmetric_genus(n)
    sigma_hyp(n)
    for entry in census.entries:
        for H in G.subgroups:
            quotient_genus(entry.representative, H)
    reports.per_n_report(n, 0, True)
    assert DicyclicGroup(n) is G
    assert "mul_table" not in vars(G)


def test_no_production_search_path_builds_a_group_element(monkeypatch):
    # the census, the searches and the pseudo-real datum hold element
    # indices only; GroupElement is the edge of the reports and the tests
    runs = (
        lambda: triangular_census(24),
        lambda: strong_symmetric_genus(27),
        lambda: pure_symmetric_genus(32),
        lambda: sigma_hyp(33),
        lambda: sigma_hyp(40),
        lambda: build_pseudo_real(12, 2),
    )
    built = []
    post_init = GroupElement.__post_init__

    def counting_post_init(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(GroupElement, "__post_init__", counting_post_init)
    for run in runs:
        DicyclicGroup(2)  # evict the shared group, so each run starts cold
        run()
    assert built == []


def test_order_is_4n():
    for n in range(2, 9):
        assert DicyclicGroup(n).order == 4 * n
        assert len(DicyclicGroup(n).elements) == 4 * n


def test_defining_relations():
    for n in range(2, 9):
        G = DicyclicGroup(n)
        x, y = G.x, G.y
        assert prod([x] * (2 * n), start=G.identity).is_identity()
        assert y * y == prod([x] * n, start=G.identity)
        assert y * x * y.inverse() == x.inverse()


def test_normal_form_reduction():
    G = DicyclicGroup(3)
    assert GroupElement(3, 7, 0) == GroupElement(3, 1, 0)
    # the y^2 = x^n fold happens in multiplication, not construction
    assert G.y * G.y == G.element(3)
    assert G.element(0, 0).is_identity()


def test_quaternion_group_structure():
    # n=2 is the quaternion group Q8
    G = DicyclicGroup(2)
    assert sorted(len(c) for c in G.conjugacy_classes) == [1, 1, 2, 2, 2]
    assert len(G.automorphisms) == 24
    assert sorted(H.order for H in G.subgroups) == [1, 2, 4, 4, 4, 8]


def test_unique_involution():
    for n in range(2, 8):
        G = DicyclicGroup(n)
        involutions = [g for g in G.elements if g.order() == 2]
        assert involutions == [G.element(n)]


def test_elements_outside_cyclic_part_have_order_four():
    for n in range(2, 8):
        G = DicyclicGroup(n)
        for g in G.elements:
            if g.b == 1:
                assert g.order() == 4


def test_conjugacy_class_count_and_sizes():
    for n in range(2, 11):
        G = DicyclicGroup(n)
        classes = G.conjugacy_classes
        assert len(classes) == n + 3
        sizes = sorted(len(c) for c in classes)
        assert sizes == sorted([1, 1, n, n] + [2] * (n - 1))


def test_index_two_subgroups():
    # <x> always; for n even also <x^2, y> and <x^2, xy>
    for n in range(2, 25):
        G = DicyclicGroup(n)
        subs = G.index_two_subgroups()
        assert len(subs) == (3 if n % 2 == 0 else 1)
        cyclic_part = G.cyclic(G.x)
        assert any(H.members == cyclic_part.members for H in subs)


def test_subgroup_lattice_is_closed_under_conjugation():
    G = DicyclicGroup(3)
    for H in G.subgroups:
        for g in G.elements:
            conj = frozenset(G.index_of(g * G.element_at(h) * g.inverse())
                             for h in H.members)
            assert any(conj == K.members for K in G.subgroups)


def test_automorphisms_fix_relations():
    for n in (2, 3, 4):
        G = DicyclicGroup(n)
        for ix, iy in G.automorphisms:
            assert prod([ix] * (2 * n), start=G.identity).is_identity()
            assert iy * iy == prod([ix] * n, start=G.identity)
            assert iy * ix * iy.inverse() == ix.inverse()


def test_index_tables_match_element_arithmetic():
    # the tables are built on indices; GroupElement arithmetic is the oracle
    for n in range(2, 13):
        G = DicyclicGroup(n)
        idx = G.index_of
        assert G.mul_table == [[idx(g * h) for h in G.elements] for g in G.elements]
        assert all(G.mul(idx(g), idx(h)) == idx(g * h)
                   for g in G.elements for h in G.elements)
        assert G.inverse_table == [idx(g.inverse()) for g in G.elements]
        assert G.order_table == [g.order() for g in G.elements]


def _order_by_powers(g: GroupElement) -> int:
    """Element order by multiplying until the identity: the oracle for
    the closed form of GroupElement.order."""
    e, k = g, 1
    while not e.is_identity():
        e, k = e * g, k + 1
    return k


def test_closed_form_order_matches_repeated_multiplication():
    for n in range(2, 41):
        for g in DicyclicGroup(n).elements:
            assert g.order() == _order_by_powers(g), (n, g)


element_indices = st.integers(min_value=0, max_value=23)


@given(st.integers(2, 7), st.integers(0, 100), st.integers(0, 1),
       st.integers(0, 100), st.integers(0, 1))
def test_multiplication_associative_with_inverse(n, a1, b1, a2, b2):
    g = GroupElement(n, a1, b1)
    h = GroupElement(n, a2, b2)
    assert (g * h).inverse() == h.inverse() * g.inverse()
    assert (g * g.inverse()).is_identity()


@given(st.integers(2, 7), st.integers(0, 100), st.integers(0, 1))
def test_order_divides_group_order(n, a, b):
    g = GroupElement(n, a, b)
    assert (4 * n) % g.order() == 0
    assert prod([g] * g.order(), start=g.identity()).is_identity()


@given(st.integers(2, 6), st.integers(0, 50), st.integers(0, 1),
       st.integers(0, 50), st.integers(0, 1))
def test_conjugation_preserves_order(n, a1, b1, a2, b2):
    g = GroupElement(n, a1, b1)
    h = GroupElement(n, a2, b2)
    assert (h * g * h.inverse()).order() == g.order()


def conjugacy_classes_oracle(G):
    """The orbits {h g h^-1} by GroupElement arithmetic, as index sets,
    each one the orbit of the least index not yet covered."""
    unseen = set(range(G.order))
    classes = []
    while unseen:
        g = G.element_at(min(unseen))
        orbit = frozenset(G.index_of(h * g * h.inverse()) for h in G.elements)
        unseen -= orbit
        classes.append(orbit)
    return classes


def test_conjugacy_classes_match_conjugation_scan():
    for n in range(2, 41):
        G = DicyclicGroup(n)
        assert list(G.conjugacy_classes) == conjugacy_classes_oracle(G), n


# -- closed-form closure and lattice against brute force ----------------


def closure_oracle(G, gen_indices):
    """The subgroup generated by element indices, by breadth-first search
    over the multiplication table (the identity is always a member)."""
    table = G.mul_table
    gens = sorted(set(gen_indices) | {0})
    members = set(gens)
    frontier = list(members)
    while frontier:
        new = []
        for i in frontier:
            row = table[i]
            for g in gens:
                j = row[g]
                if j not in members:
                    members.add(j)
                    new.append(j)
        frontier = new
    return frozenset(members)


def subgroups_oracle(G):
    """(sorted member indices, generator indices) of every subgroup, by
    closing every pair with repetition; each subgroup keeps the first
    pair that generates it.  Sorted by order, then by members."""
    seen = {frozenset({0}): (0,)}
    for i, j in itertools.combinations_with_replacement(range(G.order), 2):
        members = closure_oracle(G, (i, j))
        if members not in seen:
            seen[members] = (i, j) if i != j else (i,)
    return sorted(((sorted(m), gens) for m, gens in seen.items()),
                  key=lambda entry: (len(entry[0]), entry[0]))


def assert_closure_matches_oracle(G, gens):
    """The closed-form closure behaves as the oracle's frozenset: size,
    membership of every index, equality both ways, hash, and set algebra
    with a frozenset that returns plain frozensets."""
    got, want = G._closure_indices(gens), closure_oracle(G, gens)
    assert len(got) == len(want), gens
    assert [i in got for i in range(G.order)] == [i in want for i in range(G.order)], gens
    assert got == want and want == got, gens
    assert hash(got) == hash(want), gens
    other = frozenset(range(0, G.order, 3))
    for result, expected in ((got & other, want & other), (other & got, other & want),
                             (got | other, want | other), (other | got, other | want),
                             (got - other, want - other), (other - got, other - want)):
        assert type(result) is frozenset and result == expected, gens


def test_closure_matches_oracle_on_every_pair():
    # ordered pairs, so either element can be the first y-element
    for n in range(2, 17):
        G = DicyclicGroup(n)
        for pair in itertools.product(range(G.order), repeat=2):
            assert_closure_matches_oracle(G, pair)
            # two closures compare by (d, s) exactly when their members agree
            first, both = G._closure_indices(pair[:1]), G._closure_indices(pair)
            assert (first == both) == (frozenset(first) == frozenset(both)), (n, pair)


_groups = {n: DicyclicGroup(n) for n in range(2, 25)}


@given(st.data())
def test_closure_matches_oracle_on_index_lists(data):
    G = _groups[data.draw(st.integers(2, 24), label="n")]
    gens = data.draw(st.lists(st.integers(0, G.order - 1), max_size=5), label="gens")
    assert_closure_matches_oracle(G, gens)


def test_subgroups_match_all_pairs_oracle():
    for n in range(2, 25):
        G = _groups[n]
        got = [
            (sorted(H.members), tuple(map(G.index_of, H.generators)))
            for H in G.subgroups
        ]
        assert got == subgroups_oracle(G), n


def test_subgroup_membership_and_equality_at_the_element_edge():
    # `g in H` takes a GroupElement and H.members holds indices; both must
    # agree with the breadth-first closure of H's generators
    for n in range(2, 13):
        G = _groups[n]
        stranger = GroupElement(n + 1, 0, 0)  # index 0, but of another group
        for H in G.subgroups:
            oracle = closure_oracle(G, map(G.index_of, H.generators))
            for g in G.elements:
                i = G.index_of(g)
                assert (g in H) == (i in H.members) == (i in oracle), (n, H, g)
            assert stranger not in H
            # equality and hash see the members, never the generators
            all_members = [G.element_at(i) for i in sorted(H.members)]
            for gens in (H.generators, H.generators[::-1], all_members,
                         (*H.generators, G.identity)):
                K = G.subgroup_generated(gens)
                assert K.generators == tuple(gens)
                assert [K == L for L in G.subgroups] == [L is H for L in G.subgroups]
                assert hash(K) == hash(H), (n, H, gens)
        assert len(set(G.subgroups)) == len(G.subgroups)


def test_subgroup_count_is_tau_2n_plus_sigma_n():
    # <x^d> for each d | 2n, and d subgroups <x^d, x^i y> for each d | n
    for n in range(2, 41):
        tau_2n = sum(1 for d in range(1, 2 * n + 1) if 2 * n % d == 0)
        sigma_n = sum(d for d in range(1, n + 1) if n % d == 0)
        assert len(DicyclicGroup(n).subgroups) == tau_2n + sigma_n, n
