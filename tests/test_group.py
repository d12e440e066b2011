"""Tests for the dicyclic group core."""

import itertools

import pytest
from hypothesis import given, strategies as st

from dicyclic_dessins.errors import ParameterError
from dicyclic_dessins.group import DicyclicGroup, GroupElement


def test_rejects_small_n():
    with pytest.raises(ParameterError):
        DicyclicGroup(1)


def test_order_is_4n():
    for n in range(2, 9):
        assert DicyclicGroup(n).order == 4 * n
        assert len(DicyclicGroup(n).elements) == 4 * n


def test_defining_relations():
    for n in range(2, 9):
        G = DicyclicGroup(n)
        x, y = G.x, G.y
        assert x.power(2 * n).is_identity()
        assert y * y == x.power(n)
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
    assert sorted(c.size for c in G.conjugacy_classes) == [1, 1, 2, 2, 2]
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
        sizes = sorted(c.size for c in classes)
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
            conj = frozenset(g * h * g.inverse() for h in H.members)
            assert any(conj == K.members for K in G.subgroups)


def test_automorphisms_fix_relations():
    for n in (2, 3, 4):
        G = DicyclicGroup(n)
        for phi in G.automorphisms:
            ix, iy = phi.image_of_x, phi.image_of_y
            assert ix.power(2 * n).is_identity()
            assert iy * iy == ix.power(n)
            assert iy * ix * iy.inverse() == ix.inverse()


def test_index_tables_match_element_arithmetic():
    # the tables are built on indices; GroupElement arithmetic is the oracle
    for n in range(2, 13):
        G = DicyclicGroup(n)
        idx = G.index_of
        assert G.mul_table == [[idx(g * h) for h in G.elements] for g in G.elements]
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
    assert g.power(g.order()).is_identity()


@given(st.integers(2, 6), st.integers(0, 50), st.integers(0, 1),
       st.integers(0, 50), st.integers(0, 1))
def test_conjugation_preserves_order(n, a1, b1, a2, b2):
    g = GroupElement(n, a1, b1)
    h = GroupElement(n, a2, b2)
    assert (h * g * h.inverse()).order() == g.order()


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
            (sorted(map(G.index_of, H.members)), tuple(map(G.index_of, H.generators)))
            for H in G.subgroups
        ]
        assert got == subgroups_oracle(G), n


def test_subgroup_count_is_tau_2n_plus_sigma_n():
    # <x^d> for each d | 2n, and d subgroups <x^d, x^i y> for each d | n
    for n in range(2, 41):
        tau_2n = sum(1 for d in range(1, 2 * n + 1) if 2 * n % d == 0)
        sigma_n = sum(d for d in range(1, n + 1) if n % d == 0)
        assert len(DicyclicGroup(n).subgroups) == tau_2n + sigma_n, n
