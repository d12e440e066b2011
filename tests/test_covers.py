"""Tests for the exponent-triple classification of the cyclic covers,
whose triples are plain (a, b, c) tuples."""

from math import gcd

import pytest

from dicyclic_dessins import covers
from dicyclic_dessins.covers import (
    admissible_triples,
    canonical_representatives,
    class_count,
    normalize,
    orbit,
)
from dicyclic_dessins.errors import ParameterError, cases


def _printed_conditions(n, case, a, b, c, strict=True):
    """The paper's admissibility conditions on one exponent triple.

    Case I is the printed condition (b, c coprime to n), plus with
    `strict` the branch-order-2n condition gcd(b, 2n) = gcd(c, 2n) = 1
    at the points +-1.
    """
    two_n = 2 * n
    if gcd(a, two_n) != n or (b + c) % two_n != 0:
        return False
    if gcd(a + b + c, two_n) != n:
        return False
    if case == "II":
        return gcd(b, two_n) == 2 and gcd(c, two_n) == 2
    if gcd(b, n) != 1 or gcd(c, n) != 1:
        return False
    return not strict or (gcd(b, two_n) == 1 and gcd(c, two_n) == 1)


def _cube_scan(n, case, strict=True):
    """Exhaustive scan of {1, ..., 2n-1}^3: the oracle for the O(n) loop."""
    rng = range(1, 2 * n)
    return [(a, b, c)
            for a in rng for b in rng for c in rng
            if _printed_conditions(n, case, a, b, c, strict)]


def test_admissible_triples_match_the_cube_scan():
    for n in range(2, 31):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            assert admissible_triples(n, case) == _cube_scan(n, case), (n, case)


def test_first_exponent_is_forced_to_n():
    for n in range(2, 10):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            assert all(a == n for a, _, _ in admissible_triples(n, case))


def test_exponent_sum_condition():
    for n in (2, 3, 4, 5):
        for case in ("I",) if n % 2 == 0 else ("I", "II"):
            for _, b, c in admissible_triples(n, case):
                assert (b + c) % (2 * n) == 0


def test_single_class_everywhere():
    for n in range(2, 13):
        assert class_count(n, "I") == 1
        if n % 2 == 1:
            assert class_count(n, "II") == 1


def test_canonical_representatives():
    for n in range(2, 13):
        representatives = canonical_representatives(n, "I")
        assert representatives == [(n, 1, 2 * n - 1)]
        assert type(representatives[0]) is tuple
        if n % 2 == 1:
            assert canonical_representatives(n, "II") == [(n, 2, 2 * n - 2)]


def test_canonical_representatives_match_normalize_on_every_triple():
    # per-triple normalization is the oracle of one orbit per class
    for n in range(2, 61):
        for case in cases(n):
            oracle = sorted({normalize(n, t)[0] for t in admissible_triples(n, case)})
            assert canonical_representatives(n, case) == oracle, (n, case)


def test_one_orbit_is_built_per_class(monkeypatch):
    built = []

    def counted(n, t):
        built.append(t)
        return orbit(n, t)

    monkeypatch.setattr(covers, "orbit", counted)
    for n in range(2, 61):
        for case in cases(n):
            built.clear()
            representatives = canonical_representatives(n, case)
            assert len(built) == len(representatives), (n, case, len(built))
            # one orbit for each class: their least members are the classes
            assert sorted(orbit(n, t)[0] for t in built) == representatives, (n, case)


def test_case_II_needs_odd_n():
    with pytest.raises(ParameterError):
        admissible_triples(4, "II")


def test_orbit_closed_under_normalization():
    for n in (3, 4, 5):
        for t in admissible_triples(n, "I"):
            rep, size = normalize(n, t)
            assert rep in orbit(n, t)
            assert size == len(orbit(n, t))
            # normalization is idempotent
            assert normalize(n, rep)[0] == rep


def test_orbits_partition_the_admissible_set():
    for n in (3, 4, 6):
        triples = admissible_triples(n, "I")
        seen = set()
        for t in triples:
            seen.update(u for u in orbit(n, t) if u in triples)
        assert seen == set(triples)


def test_condition_readings_diverge_only_for_odd_n():
    # the printed case-I condition and the branch-order reading agree
    # for even n, where b coprime to n forces b odd; for odd n the
    # printed one also admits exactly the case-II triples
    for n in range(2, 13):
        verbatim = set(_cube_scan(n, "I", strict=False))
        strict = set(_cube_scan(n, "I"))
        if n % 2 == 0:
            assert verbatim == strict, n
        else:
            case_II = set(_cube_scan(n, "II"))
            assert strict.isdisjoint(case_II) and verbatim == strict | case_II, n
