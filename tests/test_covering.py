"""Tests for signatures, Riemann-Hurwitz and the triangular census."""

import itertools
from fractions import Fraction
from math import gcd

import pytest

from dicyclic_dessins import covering, reports
from dicyclic_dessins.covering import (
    GeneratingVector,
    _coset_cycles,
    _free_orbits,
    census_representative,
    fixed_point_count,
    free_elements,
    generating_vectors,
    is_purely_non_free,
    quotient_genus,
    quotient_signature,
    triangular_census,
)
from dicyclic_dessins.errors import (
    ConstructionError,
    InadmissibleSignatureError,
    ParameterError,
)
from dicyclic_dessins.genus import (
    exists_generating_vector,
    pure_symmetric_genus,
    strong_symmetric_genus,
)
from dicyclic_dessins.group import DicyclicGroup, GroupElement
from dicyclic_dessins.real_forms import build_pseudo_real
from dicyclic_dessins.search import Signature, rh_genus, vectors
from test_group import closure_oracle
from walks import last_genus, order_pool, quotient_signatures


def indices(G, *elements):
    """The element indices of the given elements, the form every action holds."""
    return tuple(map(G.index_of, elements))


# -- Riemann-Hurwitz ----------------------------------------------------


def test_rh_genus_of_triangular_signatures():
    for n in range(2, 13):
        assert rh_genus(4 * n, Signature(2, 0, (4, 4, 2 * n))) == n
        if n % 2 == 1:
            assert rh_genus(4 * n, Signature(2, 0, (4, 4, n))) == n - 1


def test_rh_genus_rejects_non_integral():
    with pytest.raises(InadmissibleSignatureError):
        rh_genus(12, Signature(2, 0, (4, 4, 5)))


def test_rh_genus_unramified():
    # 2g - 2 = N(2*gamma - 2) with no cone points
    assert rh_genus(5, Signature(2, 2, ())) == 6


def rh_genus_oracle(group_order: int, sig: Signature) -> int:
    """Riemann-Hurwitz in Fractions: 1 + N (handle (gamma - 1) + sum(1 - 1/m)) / 2."""
    total = Fraction(sig.handle * (sig.gamma - 1))
    for m in sig.cone_orders:
        total += 1 - Fraction(1, m)
    g = 1 + Fraction(group_order) * total / 2
    if g.denominator != 1 or g < 0:
        raise InadmissibleSignatureError(
            f"signature {sig} with group order {group_order} gives genus {g}"
        )
    return int(g)


def outcome(func, *args):
    """The value of func(*args), or the message of the signature error it raises."""
    try:
        return func(*args)
    except InadmissibleSignatureError as exc:
        return ("error", str(exc))


def check_rh_genus_against_oracle(handle: int) -> None:
    """rh_genus equals the oracle, value or error message, at every group
    order 4n and every subgroup order, for every signature of this handle
    with gamma <= 2, r <= 4 and orders from the order pool."""
    for n in range(2, 13):
        orders = sorted({H.order for H in DicyclicGroup(n).subgroups} | {4 * n})
        for gamma in range(3):
            for r in range(5):
                for cones in itertools.combinations_with_replacement(order_pool(n), r):
                    sig = Signature(handle, gamma, cones)
                    for N in orders:
                        expected = outcome(rh_genus_oracle, N, sig)
                        assert outcome(rh_genus, N, sig) == expected, (N, sig)


def test_rh_genus_matches_fraction_oracle():
    check_rh_genus_against_oracle(2)


# -- validators ----------------------------------------------------------


def test_triangular_action_rejects_a_non_generating_pair():
    G = DicyclicGroup(4)
    with pytest.raises(ParameterError, match="images do not generate the group"):
        GeneratingVector(G, 0, (), indices(G, G.x, G.x, G.element(-2)))


def test_generating_vector_rejects_non_generating_images():
    G = DicyclicGroup(4)
    with pytest.raises(ParameterError, match="images do not generate the group"):
        GeneratingVector(G, 0, (), indices(G, G.x, G.element(-1)))
    with pytest.raises(ParameterError, match="images do not generate the group"):
        GeneratingVector(G, 1, indices(G, G.x, G.element(2)),
                         indices(G, G.element(4), G.element(4)))


def test_generating_vector_rejects_trivial_cone_images():
    G = DicyclicGroup(4)
    with pytest.raises(ParameterError, match="cone images must be nontrivial"):
        GeneratingVector(G, 0, (), indices(G, G.identity, G.x, G.element(-1)))
    # and images that are no element index of G_4: out of range, an
    # element (of G_4 or of another group) or no number at all
    for bad in (-1, G.order, G.x, GroupElement(5, 1, 0), 2.0, None,
                True, False):
        with pytest.raises(ParameterError, match="is not an element index of G_4"):
            GeneratingVector(G, 0, (), (bad, 2, 13))
        with pytest.raises(ParameterError, match="is not an element index of G_4"):
            GeneratingVector(G, 1, (2, bad), (4,))


def test_generating_vector_rejects_a_failing_long_relation():
    # x, y generate G_4, but x * y * y = x^5; on a torus quotient
    # [x, y] * x = x^3
    G = DicyclicGroup(4)
    with pytest.raises(ParameterError) as info:
        GeneratingVector(G, 0, (), indices(G, G.x, G.y, G.y))
    assert str(info.value) == "long relation fails"
    with pytest.raises(ParameterError) as info:
        GeneratingVector(G, 1, indices(G, G.x, G.y), indices(G, G.x))
    assert str(info.value) == "long relation fails"


# -- census -------------------------------------------------------------


def test_census_even_n_single_type():
    for n in (2, 4, 6):
        census = triangular_census(n)
        assert sorted(census.unordered_types()) == [tuple(sorted((4, 4, 2 * n)))]
        assert all(e.automorphism_orbits == 1 for e in census.entries)


def test_census_odd_n_two_types():
    for n in (3, 5):
        census = triangular_census(n)
        expected = sorted([tuple(sorted((4, 4, n))), tuple(sorted((4, 4, 2 * n)))])
        assert sorted(census.unordered_types()) == expected
        assert all(e.automorphism_orbits == 1 for e in census.entries)


def test_census_n2_counts():
    census = triangular_census(2)
    (entry,) = census.entries
    assert entry.signature == (4, 4, 4)
    assert entry.pair_count == 24
    assert entry.conjugacy_orbits == 6
    assert entry.automorphism_orbits == 1


def test_census_representatives_are_generating_triples():
    for n in range(2, 7):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            act = census_representative(n, case)
            c1, c2, c3 = map(act.group.element_at, act.cone_images)
            assert (c1 * c2 * c3).is_identity()
            expected_genus = n if case == "I" else n - 1
            assert act.genus() == expected_genus


def _orbit_count(pairs: set[tuple[int, int]], moves) -> int:
    """Orbits of an explicit family of pair moves on a pair set (BFS)."""
    unseen = set(pairs)
    count = 0
    while unseen:
        frontier = [unseen.pop()]
        while frontier:
            p = frontier.pop()
            for move in moves:
                q = move(p)
                if q in unseen:
                    unseen.discard(q)
                    frontier.append(q)
        count += 1
    return count


def test_census_orbit_counts_match_orbit_search():
    # the census divides by |Inn G| and |Aut G|; the oracle closes every
    # generating pair by brute force and walks the orbits of both actions
    for n in range(2, 9):
        G = DicyclicGroup(n)
        mul, inv, orders = G.mul_table, G.inverse_table, G.order_table
        by_sig: dict[tuple[int, int, int], set[tuple[int, int]]] = {}
        for i in range(1, G.order):
            for j in range(1, G.order):
                k = inv[mul[i][j]]
                if k and len(closure_oracle(G, (i, j))) == G.order:
                    by_sig.setdefault((orders[i], orders[j], orders[k]), set()).add((i, j))
        conj_moves = [
            (lambda p, h=h: (mul[mul[h][p[0]]][inv[h]], mul[mul[h][p[1]]][inv[h]]))
            for h in range(G.order)
        ]
        aut_moves = [
            (lambda p, perm=perm: (perm[p[0]], perm[p[1]]))
            for perm in G.automorphism_index_perms()
        ]
        census = triangular_census(n)
        assert [e.signature for e in census.entries] == sorted(by_sig)
        for entry in census.entries:
            pairs = by_sig[entry.signature]
            assert entry.pair_count == len(pairs)
            assert entry.conjugacy_orbits == _orbit_count(pairs, conj_moves), n
            assert entry.automorphism_orbits == _orbit_count(pairs, aut_moves), n
            i, j, k = entry.representative.cone_images
            assert (i, j) == min(pairs) and k == inv[mul[i][j]]


def search_census(n: int) -> list[tuple]:
    """The census by exhaustive search: every generating triple of every
    ordered triple of cone orders from `order_pool`, with the counts of
    pairs, of conjugacy orbits (|G/Z(G)| from the classes of size one)
    and of automorphism orbits (|Aut G| from the scan), and the least
    triple as the representative."""
    G = DicyclicGroup(n)
    by_sig: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for orders in itertools.product(order_pool(n), repeat=3):
        for _, cones in vectors(G, Signature(2, 0, orders)):
            by_sig.setdefault(tuple(G.order_table[c] for c in cones), []).append(cones)
    centre = sum(1 for cls in G.conjugacy_classes if len(cls) == 1)
    automorphisms = len(G.automorphisms)
    return [
        (sig, len(triples), len(triples) * centre // G.order,
         len(triples) // automorphisms, min(triples))
        for sig, triples in sorted(by_sig.items())
    ]


def test_census_equals_the_search_census():
    # the closed-form counts and the least-vector representatives against
    # the enumeration of every generating pair
    for n in range(2, 41):
        census = [
            (e.signature, e.pair_count, e.conjugacy_orbits, e.automorphism_orbits,
             e.representative.cone_images)
            for e in triangular_census(n).entries
        ]
        assert census == search_census(n), n


def test_orbit_count_that_does_not_divide_is_an_error():
    # a wrong pair count must not round down to "one orbit"
    assert _free_orbits(48, 24, "automorphism") == 2
    with pytest.raises(ConstructionError):
        _free_orbits(25, 24, "automorphism")


def test_census_representative_is_the_census_entry():
    for n in range(2, 13):
        entries = {e.signature: e for e in triangular_census(n).entries}
        for case, m in (("I", 2 * n),) if n % 2 == 0 else (("I", 2 * n), ("II", n)):
            act = census_representative(n, case)
            assert act.cone_images == entries[(4, 4, m)].representative.cone_images, (
                n, case)


def test_automorphism_index_perms_are_automorphisms():
    for n in range(2, 9):
        G = DicyclicGroup(n)
        mul = G.mul_table
        perms = G.automorphism_index_perms()
        assert len(perms) == len(G.automorphisms)
        for (image_x, image_y), perm in zip(G.automorphisms, perms):
            assert sorted(perm) == list(range(G.order))
            assert perm[G.index_of(G.x)] == G.index_of(image_x)
            assert perm[G.index_of(G.y)] == G.index_of(image_y)
            for i in range(G.order):
                for j in range(G.order):
                    assert perm[mul[i][j]] == mul[perm[i]][perm[j]]


def test_automorphism_group_order():
    # |Aut Q_8| = |S_4| = 24; otherwise |Aut G_n| = 2n * phi(2n)
    assert len(DicyclicGroup(2).automorphisms) == 24
    for n in range(3, 13):
        totient = sum(1 for k in range(1, 2 * n) if gcd(k, 2 * n) == 1)
        assert len(DicyclicGroup(n).automorphisms) == 2 * n * totient
    # the census divides by the closed form; the scan is its oracle
    for n in range(2, 41):
        group = DicyclicGroup(n)
        assert group.automorphism_count == len(group.automorphisms)


# -- fixed points -------------------------------------------------------


def fixed_point_oracle(act, g) -> int:
    """Fixed points of the element g by scanning conjugates: for each cone
    image c, the cosets h<c> with h^-1 g h in <c> (the condition is
    constant on cosets since <c> normalises itself)."""
    group = act.group
    total = 0
    for c in map(group.element_at, act.cone_images):
        cyc = group.cyclic(c)
        hits = sum(
            1 for h in group.elements if h.inverse() * g * h in cyc
        )
        total += hits // cyc.order
    return total


def _census_representatives(n_max: int):
    return [
        census_representative(n, case)
        for n in range(2, n_max + 1)
        for case in (("I",) if n % 2 == 0 else ("I", "II"))
    ]


def test_fixed_point_count_matches_conjugate_scan():
    # the class formula against the conjugate scan, on every nontrivial
    # element of every census representative and minimal-genus witness
    actions = _census_representatives(12)
    for n in range(2, 13):
        actions.append(strong_symmetric_genus(n)[1])
        actions.append(pure_symmetric_genus(n)[1])
    for act in actions:
        for i, g in enumerate(act.group.elements[1:], start=1):
            assert fixed_point_count(act, i) == fixed_point_oracle(act, g), (act, g)


def test_case_I_fixed_point_counts():
    for n in range(2, 9):
        G = DicyclicGroup(n)
        act = census_representative(n, "I")
        assert fixed_point_count(act, G.index_of(G.x)) == 2
        assert fixed_point_count(act, G.index_of(G.element(n))) == 2 + 2 * n
        assert fixed_point_count(act, G.index_of(G.y)) == 2
        assert fixed_point_count(act, G.index_of(G.x * G.y)) == 2


def test_fixed_point_count_rejects_the_identity_and_non_indices():
    act = census_representative(4, "I")
    with pytest.raises(ParameterError, match="the identity fixes every point"):
        fixed_point_count(act, 0)
    for bad in (-1, 16, act.group.x, GroupElement(5, 1, 0), 2.0, None,
                True, False):
        with pytest.raises(ParameterError, match="is not an element index of G_4"):
            fixed_point_count(act, bad)


def test_case_I_purely_non_free():
    for n in range(2, 8):
        act = census_representative(n, "I")
        pure, free = is_purely_non_free(act)
        assert pure
        assert free == []


def test_case_II_free_elements():
    for n in (3, 5, 7):
        G = DicyclicGroup(n)
        act = census_representative(n, "II")
        expected = sorted(G.index_of(G.element(k))
                          for k in range(1, 2 * n, 2) if k != n)
        assert free_elements(act) == expected
        pure, _ = is_purely_non_free(act)
        assert not pure


def test_free_elements_match_fixed_point_oracle():
    # free_elements works on conjugacy classes; fixed_point_count counts
    # fixed points element by element
    actions = _census_representatives(10)
    for n in range(2, 7):
        actions.append(strong_symmetric_genus(n)[1])
        actions.append(pure_symmetric_genus(n)[1])
    for act in actions:
        oracle = [
            i for i, g in enumerate(act.group.elements)
            if not g.is_identity() and fixed_point_oracle(act, g) == 0
        ]
        assert free_elements(act) == oracle


def test_an_unramified_action_has_every_nontrivial_element_free():
    # with no cone points the identity's entry of the table is 0 as well,
    # and it must still not be listed as a free element
    act = exists_generating_vector(DicyclicGroup(2), Signature(2, 2, ()))
    assert act.genus() == 9
    assert act.fixed_points == [0] * 8
    assert free_elements(act) == list(range(1, 8))
    assert is_purely_non_free(act) == (False, list(range(1, 8)))
    # with cone points the identity's entry counts them
    ramified = census_representative(4, "I")
    assert ramified.fixed_points[0] == 16 // 4 + 16 // 4 + 16 // 8


def test_fixed_points_satisfy_riemann_hurwitz():
    # cross-oracle: summing fixed points over nontrivial elements must
    # reproduce the genus through the Riemann-Hurwitz formula
    for n in range(2, 7):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            G = DicyclicGroup(n)
            act = census_representative(n, case)
            total = sum(
                fixed_point_oracle(act, g)
                for g in G.elements
                if not g.is_identity()
            )
            assert 2 * act.genus() - 2 == -2 * G.order + total


# -- quotients ----------------------------------------------------------


def coset_cycles_oracle(group, H, c) -> list[int]:
    """Cycle lengths of c on G/H, naming each coset gH by the min over H
    of the indices of gh and starting each cycle at the least unseen name."""
    mul = group.mul_table
    rep_of = [min(mul[g][h] for h in H) for g in range(group.order)]
    lengths = []
    unseen = set(rep_of)
    while unseen:
        start = min(unseen)
        length = 0
        cur = start
        while True:
            unseen.discard(cur)
            length += 1
            cur = rep_of[mul[c][cur]]
            if cur == start:
                break
        lengths.append(length)
    return lengths


def test_coset_cycles_match_min_scan():
    for act in _census_representatives(16):
        G = act.group
        for H in G.subgroups:
            for c in act.cone_images:
                assert _coset_cycles(G, H, c) == coset_cycles_oracle(G, H, c), (H, c)


def test_quotient_by_full_group_is_base():
    for n in (2, 3, 4):
        G = DicyclicGroup(n)
        act = census_representative(n, "I")
        full = G.subgroup_generated([G.x, G.y])
        assert quotient_genus(act, full) == 0


def test_quotient_genus_central_involution_zero():
    for n in range(2, 8):
        G = DicyclicGroup(n)
        act = census_representative(n, "I")
        H = G.cyclic(G.element(n))
        assert quotient_genus(act, H) == 0


def test_quotient_signature_by_y():
    # S/<y> has signature (0; 4, 4, 2, ..., 2) with n twos
    for n in (2, 3, 4, 5):
        G = DicyclicGroup(n)
        act = census_representative(n, "I")
        sig = quotient_signature(act, G.cyclic(G.y))
        assert sig.gamma == 0
        assert sorted(sig.cone_orders) == sorted([4, 4] + [2] * n)


def test_quotient_signature_by_x():
    # S/<x> carries four cone points: order 2 over 0 and infinity, and
    # order 2n over each of +1 and -1 (the printed three-point form is
    # not Riemann-Hurwitz consistent)
    for n in (2, 3, 4):
        G = DicyclicGroup(n)
        act = census_representative(n, "I")
        sig = quotient_signature(act, G.cyclic(G.x))
        assert sig.gamma == 0
        assert sorted(sig.cone_orders) == [2, 2, 2 * n, 2 * n]


def test_quotient_genus_exceptions_match_hand_computation():
    # odd-order subgroups of <x> that avoid x^n give positive genus;
    # hand Riemann-Hurwitz on w^2 = z(z^(2n)-1): x^2 (n=3) fixes only
    # the two points over 0 and infinity, forcing genus one
    G3 = DicyclicGroup(3)
    act = census_representative(3, "I")
    assert quotient_genus(act, G3.cyclic(G3.element(2))) == 1
    G6 = DicyclicGroup(6)
    act6 = census_representative(6, "I")
    assert quotient_genus(act6, G6.cyclic(G6.element(4))) == 2


def test_quotient_genus_zero_for_subgroups_containing_involution():
    # the genus-zero counting argument covers exactly the subgroups that
    # contain the hyperelliptic involution x^n; verify that scope
    for n in range(2, 8):
        G = DicyclicGroup(n)
        center = G.element(n)
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            act = census_representative(n, case)
            for H in G.subgroups:
                if H.is_trivial() or center not in H:
                    continue
                assert quotient_genus(act, H) == 0, (n, case, H)


def test_quotient_genus_constant_on_conjugate_subgroups():
    G = DicyclicGroup(4)
    act = census_representative(4, "I")
    for H in G.subgroups:
        if H.is_trivial():
            continue
        base = quotient_genus(act, H)
        for g in G.elements:
            K = G.subgroup_generated(
                [g * h * g.inverse() for h in map(G.element_at, H)]
            )
            assert quotient_genus(act, K) == base


def test_quotient_signature_reproduces_genus():
    # RH through the intermediate quotient recovers the surface genus
    for n in (2, 3, 5):
        G = DicyclicGroup(n)
        act = census_representative(n, "I")
        for H in G.subgroups:
            if H.is_trivial() or H.order == G.order:
                continue
            sig = quotient_signature(act, H)
            assert rh_genus(H.order, sig) == act.genus()


def _first_vectors(n: int, count: int):
    """The first `count` generating vectors of every orientable signature
    of genus at most n + 2."""
    group = DicyclicGroup(n)
    for g in range(2, last_genus(n) + 1):
        for sig in quotient_signatures(n, g, 2):
            yield from itertools.islice(generating_vectors(group, sig), count)


def test_lefschetz_quotient_genus_matches_coset_cycles():
    # two independent computations of every quotient genus: the Lefschetz
    # sum over H of the fixed-point table, and Riemann-Hurwitz over the
    # coset cycles of the cone images
    actions = [
        census_representative(n, case)
        for n in (*range(2, 41), 64, 127, 128)
        for case in (("I",) if n % 2 == 0 else ("I", "II"))
    ]
    actions += [act for n in range(2, 9) for act in _first_vectors(n, 5)]
    assert any(act.quotient_genus >= 1 for act in actions)
    for act in actions:
        for H in act.group.subgroups:
            assert quotient_genus(act, H) == quotient_signature(act, H).gamma, (act, H)


def test_no_production_path_walks_coset_cycles(monkeypatch):
    # the reports and the pure search read the fixed-point table; the
    # coset walk of quotient_signature is the oracle of the test above
    def walk(*args):
        raise AssertionError("a production path walked coset cycles")

    monkeypatch.setattr(covering, "_coset_cycles", walk)
    act = census_representative(5, "I")
    with pytest.raises(AssertionError):
        quotient_signature(act, act.group.subgroups[1])
    for n in (5, 6):
        reports.per_n_report(n, 0, True)
    pure_symmetric_genus(8)


def test_quotient_genus_rejects_a_table_that_breaks_lefschetz():
    # an unramified table on the genus-3 action: x^2 (order 3) gives the
    # trace 2*3 + 2*2 = 10, not divisible by 2|H| = 6
    act = census_representative(3, "I")
    act.fixed_points = [0] * act.group.order
    with pytest.raises(ConstructionError, match="Lefschetz trace 10"):
        quotient_genus(act, act.group.cyclic(act.group.element(2)))


def _act_and_foreign_subgroup():
    # <x> of G_4 has order 8 and is no subgroup of G_3, of order 12
    act = census_representative(3, "I")
    return act, DicyclicGroup(4).cyclic(DicyclicGroup(4).x)


def test_quotient_genus_rejects_a_subgroup_of_another_group():
    act, H = _act_and_foreign_subgroup()
    with pytest.raises(ParameterError):
        quotient_genus(act, H)


def test_quotient_signature_rejects_a_subgroup_of_another_group():
    act, H = _act_and_foreign_subgroup()
    with pytest.raises(ParameterError):
        quotient_signature(act, H)


def test_quotient_formulas_reject_a_non_orientable_quotient():
    # both count an orientable quotient of genus gamma': on the pseudo-real
    # action, over a projective plane, either would return a wrong number
    act, _, _ = build_pseudo_real(3, 2)
    H = act.group.cyclic(act.group.element(2))
    with pytest.raises(ParameterError, match="needs an orientable quotient"):
        quotient_genus(act, H)
    with pytest.raises(ParameterError, match="needs an orientable quotient"):
        quotient_signature(act, H)
