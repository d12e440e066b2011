"""Tests for the minimal-genus searches."""

import itertools

import pytest

from dicyclic_dessins import search
from dicyclic_dessins.covering import fixed_point_count, is_purely_non_free
from dicyclic_dessins.errors import InadmissibleSignatureError, SearchExhaustedError
from dicyclic_dessins.genus import (
    TORUS_SIGNATURES,
    exists_generating_vector,
    generating_vectors,
    pure_symmetric_genus,
    strong_symmetric_genus,
    torus_exclusion_report,
)
from dicyclic_dessins.group import DicyclicGroup
from dicyclic_dessins.real_forms import sigma_hyp
from dicyclic_dessins.search import Signature, order_pool, quotient_signatures, rh_genus


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
    raise SearchExhaustedError(f"no purely-non-free action of G_{n} up to {n + 2}")


def test_pure_search_matches_vector_oracle():
    for n in range(2, 14):
        g, witness = pure_symmetric_genus(n)
        oracle_g, oracle = pure_symmetric_genus_oracle(n)
        assert g == oracle_g, n
        assert witness.quotient_genus == oracle.quotient_genus, n
        assert witness.hyperbolic_images == oracle.hyperbolic_images, n
        assert witness.cone_images == oracle.cone_images, n


def test_search_exhaustion_raises(monkeypatch):
    # the walks prove their own bounds, so only a search that lists no
    # signature at all can run out of genera
    monkeypatch.setattr(search, "quotient_signatures", lambda n, g, handle: [])
    for run in (strong_symmetric_genus, pure_symmetric_genus, sigma_hyp):
        with pytest.raises(SearchExhaustedError):
            run(5)


def test_torus_exclusion():
    for n in (2, 3, 4, 5):
        report = torus_exclusion_report(n)
        assert len(report) == len(TORUS_SIGNATURES)
        assert all(report.values()), report


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
