"""Exponent-triple classifier for the cyclic covers v^(2n) = u^a (u-1)^b (u+1)^c.

Enumerates the admissible exponent triples for the two cover families,
quotients by unit scaling mod 2n together with the b <-> c swap, and
counts equivalence classes.  The uniqueness statements correspond to a
single class with canonical representative (n, 1, 2n-1) in case I and
(n, 2, 2n-2) in case II.

Admissibility in case I is the conjunction of the printed condition
(b, c coprime to n) and the branch-order condition gcd(b, 2n) = 1
(branch order 2n at the points +-1); the two readings coincide for all
even n and `condition_readings_report` records where they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ParameterError


@dataclass(frozen=True, order=True)
class CoverTriple:
    n: int
    case: str
    a: int
    b: int
    c: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _case_conditions(n: int, case: str, a: int, b: int, c: int) -> bool:
    two_n = 2 * n
    if gcd(a, two_n) != n:
        return False
    if (b + c) % two_n != 0:
        return False
    if gcd(a + b + c, two_n) != n:
        return False
    if case == "I":
        # printed condition plus the branch-order-2n condition at +-1
        return (gcd(b, n) == 1 and gcd(c, n) == 1
                and gcd(b, two_n) == 1 and gcd(c, two_n) == 1)
    return gcd(two_n, b) == 2 and gcd(two_n, c) == 2


def _candidates(n: int) -> list[tuple[int, int, int]]:
    """The triples in {1, ..., 2n-1}^3 that can meet the first two conditions.

    gcd(a, 2n) = n forces a = n, and b + c = 0 mod 2n forces c = 2n - b,
    so the cube reduces to one loop over b, in the cube's lexicographic
    order.
    """
    two_n = 2 * n
    return [(n, b, two_n - b) for b in range(1, two_n)]


def admissible_triples(n: int, case: str) -> list[CoverTriple]:
    """All admissible exponent triples in {1, ..., 2n-1}^3, in O(n)."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    if case not in ("I", "II"):
        raise ParameterError(f"case must be 'I' or 'II', got {case!r}")
    if case == "II" and n % 2 == 0:
        raise ParameterError("case II covers only exist for n odd")
    return [
        CoverTriple(n, case, a, b, c)
        for a, b, c in _candidates(n)
        if _case_conditions(n, case, a, b, c)
    ]


def _units(two_n: int) -> list[int]:
    return [alpha for alpha in range(1, two_n) if gcd(alpha, two_n) == 1]


def orbit(t: CoverTriple) -> list[CoverTriple]:
    """Orbit under unit scaling mod 2n and swapping b with c."""
    two_n = 2 * t.n
    seen = set()
    for alpha in _units(two_n):
        a = (alpha * t.a) % two_n
        b = (alpha * t.b) % two_n
        c = (alpha * t.c) % two_n
        seen.add((a, b, c))
        seen.add((a, c, b))
    return [CoverTriple(t.n, t.case, *abc) for abc in sorted(seen)]


def normalize(t: CoverTriple) -> tuple[CoverTriple, int]:
    """Canonical (lexicographically least) orbit member plus orbit size."""
    members = orbit(t)
    return members[0], len(members)


def class_count(n: int, case: str) -> int:
    """Number of equivalence classes of admissible triples."""
    return len(canonical_representatives(n, case))


def canonical_representatives(n: int, case: str) -> list[CoverTriple]:
    return sorted({normalize(t)[0] for t in admissible_triples(n, case)})


def condition_readings_report(n: int) -> dict:
    """Compare the printed case-I condition with the gcd(b, 2n) = 1 reading.

    Returns both triple sets (as (a, b, c) tuples) and whether they
    coincide; they provably do for even n, where b coprime to n forces
    b odd.
    """
    two_n = 2 * n
    verbatim = set()
    strict = set()
    for a, b, c in _candidates(n):
        if gcd(a + b + c, two_n) != n:
            continue
        if gcd(b, n) == 1 and gcd(c, n) == 1:
            verbatim.add((a, b, c))
            if gcd(b, two_n) == 1 and gcd(c, two_n) == 1:
                strict.add((a, b, c))
    return {
        "n": n,
        "verbatim_count": len(verbatim),
        "strict_count": len(strict),
        "readings_agree": verbatim == strict,
        "verbatim_only": sorted(verbatim - strict),
    }
