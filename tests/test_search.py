"""Tests for the quotient layer of `search.py`: signatures, the closed-form
words, the long relation and the vector search.

The oracles are the loops over the multiplication table that the
search ran before its products became closed form, and the element
products that the validators ran before they checked the long relation
on indices.
"""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dicyclic_dessins import search
from dicyclic_dessins.covering import generating_vectors
from dicyclic_dessins.errors import InadmissibleSignatureError, ParameterError
from dicyclic_dessins.group import DicyclicGroup
from dicyclic_dessins.real_forms import admissible_homomorphisms
from dicyclic_dessins.search import (
    Signature,
    commutators,
    relation_holds,
    squares,
    vectors,
)
from walks import last_genus, order_pool, quotient_signatures


def test_signature_validation():
    for handle in (1, 2):
        assert Signature(handle, 0, [2, 3]).cone_orders == (2, 3)
        with pytest.raises(InadmissibleSignatureError):
            Signature(handle, -1, ())
        with pytest.raises(InadmissibleSignatureError):
            Signature(handle, 0, (1,))
    for handle in (0, 3):
        with pytest.raises(InadmissibleSignatureError):
            Signature(handle, 0, ())


def commutators_oracle(G, hyper):
    mul, inv = G.mul_table, G.inverse_table
    prod = 0
    for a, b in zip(hyper[::2], hyper[1::2]):
        prod = mul[mul[mul[mul[prod][a]][b]][inv[a]]][inv[b]]
    return prod


def squares_oracle(G, hyper):
    mul = G.mul_table
    prod = 0
    for a in hyper:
        prod = mul[mul[prod][a]][a]
    return prod


def vectors_oracle(G, hyper_pools, word, cone_pools):
    """Every generating vector, the forced last cone image looked up in
    the multiplication table."""
    if not all(cone_pools):
        return []
    mul, inv = G.mul_table, G.inverse_table
    last_pool = set(cone_pools[-1]) if cone_pools else {0}
    found = []
    for hyper in itertools.product(*hyper_pools):
        prod = word(G, hyper)
        for head in itertools.product(*cone_pools[:-1]):
            total = prod
            for c in head:
                total = mul[total][c]
            last = inv[total]
            if last not in last_pool:
                continue
            cones = head + (last,) if cone_pools else ()
            if len(G._closure_indices(hyper + cones)) == G.order:
                found.append((hyper, cones))
    return found


def cone_pools(G, orders, within=None):
    """For each cone order m, the indices of the elements of order m in
    index order, only those in `within` when it is given."""
    members = range(G.order) if within is None else sorted(within)
    return [[i for i in members if G.element_at(i).order() == m] for m in orders]


def test_words_match_the_table_on_every_pair():
    for n in range(2, 25):
        G = DicyclicGroup(n)
        for i in range(G.order):
            for j in range(G.order):
                c, s = commutators(G, (i, j)), squares(G, (i, j))
                assert c == commutators_oracle(G, (i, j)), (n, i, j)
                assert s == squares_oracle(G, (i, j)), (n, i, j)
                # the commutators lie in <x^2>, the squares in <x>
                assert c % 4 == 0 and s % 2 == 0


@given(st.data())
def test_words_match_the_table_on_drawn_tuples(data):
    n = data.draw(st.integers(2, 24))
    G = DicyclicGroup(n)
    index = st.integers(0, G.order - 1)
    hyper = tuple(data.draw(st.lists(index, max_size=4)))
    assert squares(G, hyper) == squares_oracle(G, hyper)
    pairs = hyper[: len(hyper) // 2 * 2]
    assert commutators(G, pairs) == commutators_oracle(G, pairs)


def relation_oracle(G, word, hyper, cones):
    """word(hyper) * c_1 ... c_r == 1 in `GroupElement` arithmetic."""
    prod = G.identity
    elements = [G.element_at(i) for i in hyper]
    if word is commutators:
        for a, b in zip(elements[::2], elements[1::2]):
            prod = prod * a * b * a.inverse() * b.inverse()
    else:
        for a in elements:
            prod = prod * a * a
    for c in cones:
        prod = prod * G.element_at(c)
    return prod.is_identity()


@given(st.data())
def test_relation_holds_matches_element_arithmetic(data):
    n = data.draw(st.integers(2, 12))
    G = DicyclicGroup(n)
    index = st.integers(0, G.order - 1)
    handle = data.draw(st.sampled_from([2, 1]))
    word = {2: commutators, 1: squares}[handle]
    hyper = tuple(data.draw(st.lists(index, max_size=4)))
    if word is commutators:
        hyper = hyper[: len(hyper) // 2 * 2]
    head = tuple(data.draw(st.lists(index, max_size=3)))
    # close the relation half of the time, so both outcomes are drawn
    if data.draw(st.booleans()):
        total = word(G, hyper)
        for c in head:
            total = G.mul(total, c)
        head += (G.inverse_table[total],)
    expected = relation_oracle(G, word, hyper, head)
    assert relation_holds(G, handle, hyper, head) == expected


def test_vectors_match_the_table_search_on_triangular_triples():
    for n in range(2, 9):
        G = DicyclicGroup(n)
        pools = [range(1, G.order)] * 3
        found = sorted(vector for orders in itertools.product(order_pool(n), repeat=3)
                       for vector in vectors(G, Signature(2, 0, orders)))
        assert found and found == vectors_oracle(G, (), commutators_oracle, pools), n


def test_vectors_match_the_table_search_on_genus_one_quotients():
    for n in range(2, 6):
        G = DicyclicGroup(n)
        hyper_pools = [range(G.order)] * 2
        hits = 0
        for m in order_pool(n):
            pools = cone_pools(G, (m,))
            found = list(vectors(G, Signature(2, 1, (m,))))
            assert found == vectors_oracle(
                G, hyper_pools, commutators_oracle, pools), (n, m)
            hits += len(found)
        assert hits, n


def test_vectors_match_the_table_search_on_square_words():
    # (0; m, m) and (1; m) over every index-two plus part, the glide
    # reflections outside the plus part and the elliptics inside it; for
    # odd n the only plus part is <x> and none of them is realised
    hits = 0
    for n in range(2, 7):
        G = DicyclicGroup(n)
        for H in G.index_two_subgroups():
            outside = [i for i in range(G.order) if i not in H]
            for m in order_pool(n):
                for alphas, orders in ((1, (m, m)), (2, (m,))):
                    alpha_pools = [outside] * alphas
                    pools = cone_pools(G, orders, H)
                    found = list(vectors(G, Signature(1, alphas - 1, orders), H))
                    assert found == vectors_oracle(
                        G, alpha_pools, squares_oracle, pools), (n, H, orders)
                    hits += len(found)
    assert hits


def test_every_search_refuses_a_mismatched_plus_part():
    # a handle-2 signature takes no plus part and a handle-1 signature an
    # index-two subgroup of the searched group; any other pair is refused
    # before a vector is searched
    G, G6 = DicyclicGroup(3), DicyclicGroup(6)
    H = G.index_two_subgroups()[0]
    orientable, one_sided = Signature(2, 0, (4, 4, 3)), Signature(1, 0, (3, 6))
    mismatches = [
        (orientable, H),
        (Signature(2, 1, ()), H),
        (one_sided, None),
        (one_sided, G.cyclic(G.element(2))),  # <x^2>, of index four
        (one_sided, G6.cyclic(G6.element(2))),  # index two in size, not in G_3
    ]
    for sig, plus_part in mismatches:
        # the call raises, before any vector is drawn
        with pytest.raises(ParameterError):
            vectors(G, sig, plus_part)
        with pytest.raises(ParameterError):
            generating_vectors(G, sig, plus_part)
        with pytest.raises(ParameterError):
            search.admits(G, sig, plus_part)
        for limit in (0, 1):
            with pytest.raises(ParameterError):
                admissible_homomorphisms(G, plus_part, sig, limit=limit)
    # the matching pairs are searched: case II and sigma^hyp(G_3) = 4
    assert next(vectors(G, orientable)) and next(vectors(G, one_sided, H))


def test_admits_matches_the_exhaustive_search_on_every_walked_pair():
    # every pair the strong and pure walks (handle 2, genus 2 to
    # last_genus(n)) and sigma_hyp (handle 1, each index-two plus part,
    # genus 2 to 2n - 1) list: the closed form decides every one of them,
    # and the exhaustive search is the oracle
    decided = {True: 0, False: 0}
    for n in range(2, 41):
        G = DicyclicGroup(n)
        pairs = [(sig, None) for g in range(2, last_genus(n) + 1)
                 for sig in quotient_signatures(n, g, 2)]
        pairs += [(sig, H) for g in range(2, 2 * n)
                  for sig in quotient_signatures(n, g, 1)
                  for H in G.index_two_subgroups()]
        for sig, H in pairs:
            answer = search.admits(G, sig, H)
            assert answer == (next(vectors(G, sig, H), None) is not None), (n, sig, H)
            decided[answer] += 1
    # both answers occur, and most of the walked pairs are refuted
    assert decided[False] > decided[True] > 0, decided


def test_admits_matches_the_exhaustive_search_off_riemann_hurwitz():
    # admits takes any signature, not only those of an integral genus:
    # every multiset of at most five pool orders at genus 0, which holds
    # the t >= 4 y-element cones and the odd counts of order-4 cones that
    # no walk lists, and at most three over each index-two plus part with
    # up to three crosscaps
    for n in range(2, 6):
        G = DicyclicGroup(n)
        cases = [(Signature(2, 0, orders), None) for r in range(6)
                 for orders in itertools.combinations_with_replacement(order_pool(n), r)]
        cases += [(Signature(1, gamma, orders), H) for gamma in range(3) for r in range(4)
                  for orders in itertools.combinations_with_replacement(order_pool(n), r)
                  for H in G.index_two_subgroups()]
        for sig, H in cases:
            expected = next(vectors(G, sig, H), None) is not None
            assert search.admits(G, sig, H) == expected, (n, sig, H)


def test_admits_decides_the_genus_one_signatures_with_one_cone():
    # (1; m) iff m = n, for every pool order m ((1; -) is one of the flat
    # signatures of tests/test_genus.py); the other orientable signatures
    # of gamma >= 1 stay undecided
    for n in range(2, 31):
        G = DicyclicGroup(n)
        for m in order_pool(n):
            sig = Signature(2, 1, (m,))
            expected = next(vectors(G, sig), None) is not None
            assert search.admits(G, sig) == expected == (m == n), (n, sig)
        assert search.admits(G, Signature(2, 1, (2, 2))) is None
        assert search.admits(G, Signature(2, 2, ())) is None


def test_only_search_names_the_words():
    # the quotient kind is decided in search.py alone: every other module
    # passes a signature or a handle to the engine, never a word
    words = {"commutators", "squares"}
    naming = {
        path.name
        for path in Path(search.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id in words
        or isinstance(node, ast.Attribute) and node.attr in words
    }
    assert naming == {"search.py"}


def test_only_the_action_record_validates_an_action():
    # one validator: no module but search.py (which defines it) and
    # covering.py (whose GeneratingVector checks every action) calls
    # relation_holds, or defines a class with a violations method
    checking = set()
    for path in Path(search.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "relation_holds":
                    checking.add(path.name)
            elif isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "violations"
                for item in node.body
            ):
                checking.add(path.name)
    assert checking <= {"search.py", "covering.py"}
    assert "covering.py" in checking
