"""Tests for the exponent-triple classification of the cyclic covers."""

from math import gcd

import pytest

from dicyclic_dessins.covers import (
    CoverTriple,
    _case_conditions,
    admissible_triples,
    canonical_representatives,
    class_count,
    condition_readings_report,
    normalize,
    orbit,
)
from dicyclic_dessins.errors import ParameterError


def _cube_admissible_triples(n, case):
    """Exhaustive scan of {1, ..., 2n-1}^3: the oracle for the O(n) loop."""
    out = []
    rng = range(1, 2 * n)
    for a in rng:
        for b in rng:
            for c in rng:
                if _case_conditions(n, case, a, b, c):
                    out.append(CoverTriple(n, case, a, b, c))
    return out


def _cube_condition_readings(n):
    """Both case-I readings over the whole cube, as sets of triples."""
    two_n = 2 * n
    verbatim = set()
    strict = set()
    rng = range(1, two_n)
    for a in rng:
        for b in rng:
            for c in rng:
                if gcd(a, two_n) != n or (b + c) % two_n != 0:
                    continue
                if gcd(a + b + c, two_n) != n:
                    continue
                if gcd(b, n) == 1 and gcd(c, n) == 1:
                    verbatim.add((a, b, c))
                    if gcd(b, two_n) == 1 and gcd(c, two_n) == 1:
                        strict.add((a, b, c))
    return verbatim, strict


def test_admissible_triples_match_the_cube_scan():
    for n in range(2, 31):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            assert admissible_triples(n, case) == _cube_admissible_triples(n, case), (
                n, case)


def test_condition_readings_match_the_cube_scan():
    for n in range(2, 31):
        verbatim, strict = _cube_condition_readings(n)
        report = condition_readings_report(n)
        assert report["verbatim_count"] == len(verbatim)
        assert report["strict_count"] == len(strict)
        assert report["readings_agree"] == (verbatim == strict)
        assert report["verbatim_only"] == sorted(verbatim - strict)


def test_first_exponent_is_forced_to_n():
    for n in range(2, 10):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            assert all(t.a == n for t in admissible_triples(n, case))


def test_exponent_sum_condition():
    for n in (2, 3, 4, 5):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            for t in admissible_triples(n, case):
                assert (t.b + t.c) % (2 * n) == 0


def test_single_class_everywhere():
    for n in range(2, 13):
        assert class_count(n, "I") == 1
        if n % 2 == 1:
            assert class_count(n, "II") == 1


def test_canonical_representatives():
    for n in range(2, 13):
        assert [t.as_tuple() for t in canonical_representatives(n, "I")] == [
            (n, 1, 2 * n - 1)
        ]
        if n % 2 == 1:
            assert [t.as_tuple() for t in canonical_representatives(n, "II")] == [
                (n, 2, 2 * n - 2)
            ]


def test_case_II_needs_odd_n():
    with pytest.raises(ParameterError):
        admissible_triples(4, "II")


def test_orbit_closed_under_normalization():
    for n in (3, 4, 5):
        for t in admissible_triples(n, "I"):
            rep, size = normalize(t)
            assert rep in orbit(t)
            assert size == len(orbit(t))
            # normalization is idempotent
            assert normalize(rep)[0] == rep


def test_orbits_partition_the_admissible_set():
    for n in (3, 4, 6):
        triples = admissible_triples(n, "I")
        seen = set()
        for t in triples:
            seen.update(u.as_tuple() for u in orbit(t) if u in triples)
        assert seen == {t.as_tuple() for t in triples}


def test_condition_readings_diverge_only_for_odd_n():
    # the two printed gcd readings agree for even n and differ for odd
    # n, where the weaker one also admits the other family's cover
    for n in range(2, 13):
        report = condition_readings_report(n)
        assert report["readings_agree"] == (n % 2 == 0), report
