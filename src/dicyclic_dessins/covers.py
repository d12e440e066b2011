"""Exponent-triple classifier for the cyclic covers v^(2n) = u^a (u-1)^b (u+1)^c.

Enumerates the admissible exponent triples for the two cover families,
quotients by unit scaling mod 2n together with the b <-> c swap, and
counts equivalence classes.  A triple is the plain tuple (a, b, c); n
and the case are the caller's own arguments.  The cover of a case of
type (4, 4, m), as `errors.case_type` gives it, has branch order m at
the points +-1, that is gcd(b, 2n) = 2n/m.  The uniqueness statements
correspond to a single class with canonical representative
(n, 1, 2n-1) in case I and (n, 2, 2n-2) in case II.

Admissibility in case I is the conjunction of the printed condition
(b, c coprime to n) and the branch-order condition gcd(b, 2n) = 1
(branch order 2n at the points +-1).  The printed condition alone
admits the same triples for even n; for odd n it also admits the
case-II triples, as the cube scan in the tests records.
"""

from __future__ import annotations

from math import gcd

from .errors import ParameterError, case_type

Triple = tuple[int, int, int]


def admissible_triples(n: int, case: str) -> list[Triple]:
    """All admissible exponent triples in {1, ..., 2n-1}^3, in O(n).

    The printed conditions are gcd(a, 2n) = n, b + c = 0 mod 2n,
    gcd(a + b + c, 2n) = n, and then gcd(b, n) = gcd(c, n) = 1 with
    branch order 2n at +-1 (gcd(b, 2n) = gcd(c, 2n) = 1) in case I, or
    gcd(b, 2n) = gcd(c, 2n) = 2 in case II.  The first two force a = n
    and c = 2n - b, which makes gcd(a + b + c, 2n) = gcd(3n, 2n) = n
    hold always; c = -b mod 2n has the gcds of b, and gcd(b, 2n) = 1
    implies gcd(b, n) = 1.  So the triples are (n, b, 2n - b) with
    gcd(b, 2n) = 2n/m for the case's type (4, 4, m), 1 in case I and 2
    in case II, in the cube's lexicographic order.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    two_n = 2 * n
    want = two_n // case_type(n, case)[2]
    return [(n, b, two_n - b) for b in range(1, two_n) if gcd(b, two_n) == want]


def orbit(n: int, t: Triple) -> list[Triple]:
    """Orbit of t under unit scaling mod 2n and swapping b with c, sorted."""
    two_n = 2 * n
    a, b, c = t
    return sorted({(u * a % two_n, u * p % two_n, u * q % two_n)
                   for u in range(1, two_n) if gcd(u, two_n) == 1
                   for p, q in ((b, c), (c, b))})


def normalize(n: int, t: Triple) -> tuple[Triple, int]:
    """Canonical (lexicographically least) orbit member plus orbit size."""
    members = orbit(n, t)
    return members[0], len(members)


def class_count(n: int, case: str) -> int:
    """Number of equivalence classes of admissible triples."""
    return len(canonical_representatives(n, case))


def canonical_representatives(n: int, case: str) -> list[Triple]:
    """The least member of each class, in order.

    Unit scaling and the swap keep gcd(b, 2n), so every orbit member is
    admissible and the orbits partition the admissible triples: each
    triple not yet seen opens a class, whose orbit is built once and
    marks its members seen.  That is one orbit per class, not one per
    triple, and no number of classes is assumed.
    """
    seen: set[Triple] = set()
    least = []
    for t in admissible_triples(n, case):
        if t not in seen:
            members = orbit(n, t)
            seen.update(members)
            least.append(members[0])
    return sorted(least)
