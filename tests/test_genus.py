"""Tests for the minimal-genus searches."""

from fractions import Fraction

import pytest

from dicyclic_dessins.covering import fixed_point_count, is_purely_non_free
from dicyclic_dessins.errors import ParameterError, SearchExhaustedError
from dicyclic_dessins.genus import (
    TORUS_SIGNATURES,
    SignatureCandidate,
    exists_generating_vector,
    generating_vectors,
    pure_symmetric_genus,
    signature_candidates,
    strong_symmetric_genus,
    torus_exclusion_report,
)
from dicyclic_dessins.group import DicyclicGroup
from dicyclic_dessins.search import defect_partitions, order_pool


def test_signature_candidates_are_rh_exact():
    from dicyclic_dessins.covering import rh_genus

    for n in (2, 3, 4):
        for g in (2, 3, 4):
            for cand in signature_candidates(n, g):
                assert rh_genus(4 * n, cand.signature) == g


def defect_partitions_oracle(target: Fraction, pool: list[int], lo: int = 0):
    """Non-decreasing order tuples with sum(1 - 1/m) equal to target, with
    a Fraction at every step."""
    if target == 0:
        yield ()
        return
    for i in range(lo, len(pool)):
        m = pool[i]
        term = 1 - Fraction(1, m)
        if term > target:
            break
        for rest in defect_partitions_oracle(target - term, pool, i):
            yield (m,) + rest


def test_defect_partitions_match_fraction_oracle():
    # every target that inverting Riemann-Hurwitz asks for
    for n in range(2, 41):
        pool = order_pool(n)
        for g in range(2, n + 3):
            gamma = 0
            while (target := Fraction(2 * g - 2, 4 * n) - (2 * gamma - 2)) >= 0:
                assert (list(defect_partitions(target, pool))
                        == list(defect_partitions_oracle(target, pool))), (n, g, gamma)
                gamma += 1


def test_defect_partitions_of_unreachable_targets_are_empty():
    assert list(defect_partitions(Fraction(1, 7), [2, 3, 4, 6])) == []
    assert list(defect_partitions(-1, [2, 3])) == []
    assert list(defect_partitions(0, [2, 3])) == [()]
    assert list(defect_partitions(1, [2, 3])) == [(2, 2)]


def test_signature_candidates_reject_genus_below_two():
    with pytest.raises(ParameterError):
        signature_candidates(3, 1)
    with pytest.raises(ParameterError, match="n=1"):
        signature_candidates(1, 2)


def test_strong_symmetric_genus_values():
    for n in (2, 3, 4, 5):
        expected = n if n % 2 == 0 else n - 1
        g, witness = strong_symmetric_genus(n, n + 2)
        assert g == expected
        gens = list(witness.hyperbolic_images) + list(witness.cone_images)
        G = DicyclicGroup(n)
        assert G.subgroup_generated(gens).order == G.order


def test_pure_symmetric_genus_values():
    for n in (2, 3, 4, 5):
        g, witness = pure_symmetric_genus(n, n + 2)
        assert g == n
        # purity cross-check against the coset fixed-point oracle:
        # on a genus-0 quotient a purely-non-free triangular witness
        # gives every element fixed points
        if witness.quotient_genus == 0 and len(witness.cone_images) == 3:
            from dicyclic_dessins.covering import TriangularAction

            act = TriangularAction(witness.group, tuple(witness.cone_images))
            G = witness.group
            for el in G.elements:
                if not el.is_identity():
                    assert fixed_point_count(act, el) > 0


def pure_symmetric_genus_oracle(n: int, g_max: int):
    """The pure search one vector at a time: each vector of each candidate
    signature becomes a GeneratingVector tested by is_purely_non_free."""
    group = DicyclicGroup(n)
    for g in range(2, g_max + 1):
        for candidate in signature_candidates(n, g):
            for vector in generating_vectors(group, candidate):
                if is_purely_non_free(vector)[0]:
                    return g, vector
    raise SearchExhaustedError(f"no purely-non-free action of G_{n} up to {g_max}")


def test_pure_search_matches_vector_oracle():
    for n in range(2, 14):
        g, witness = pure_symmetric_genus(n, n + 2)
        oracle_g, oracle = pure_symmetric_genus_oracle(n, n + 2)
        assert g == oracle_g, n
        assert witness.quotient_genus == oracle.quotient_genus, n
        assert witness.hyperbolic_images == oracle.hyperbolic_images, n
        assert witness.cone_images == oracle.cone_images, n


def test_search_exhaustion_raises():
    with pytest.raises(SearchExhaustedError):
        # G_5 has no action below genus 4, so a cap of 3 must exhaust
        strong_symmetric_genus(5, 3)


def test_torus_exclusion():
    for n in (2, 3, 4, 5):
        report = torus_exclusion_report(n)
        assert len(report) == len(TORUS_SIGNATURES)
        assert all(report.values()), report


def test_flat_signatures_have_no_generating_vector():
    for n in (2, 3):
        G = DicyclicGroup(n)
        for sig in TORUS_SIGNATURES:
            cand = SignatureCandidate(1, sig)
            assert exists_generating_vector(G, cand) is None


def test_strong_witness_is_minimal_signature_action():
    # for n even the minimum is attained by the triangular action itself
    for n in (2, 4):
        g, witness = strong_symmetric_genus(n, n + 1)
        assert witness.quotient_genus == 0
        assert sorted(c.order() for c in witness.cone_images) == sorted(
            (4, 4, 2 * n)
        )
