"""The genus-by-genus walks: the oracles of the minimal-genus formulas.

`quotient_signatures` inverts Riemann-Hurwitz, listing every quotient
signature of one genus, and the three walks try each genus from 2 up,
skipping the signatures that the closed forms refute and searching the
rest, so each returns the first vector in index order of the first
realised signature of the least genus.  The package computes the same
genera, signatures and witnesses from a few decided candidate families
(`genus.strong_symmetric_genus`, `genus.pure_symmetric_genus`,
`real_forms.sigma_hyp`); the tests compare the two.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import lcm

from dicyclic_dessins import search
from dicyclic_dessins.covering import GeneratingVector, exists_generating_vector, is_pure
from dicyclic_dessins.genus import admits_pure
from dicyclic_dessins.group import DicyclicGroup
from dicyclic_dessins.real_forms import admissible_homomorphisms
from dicyclic_dessins.search import Signature


def order_pool(n: int) -> list[int]:
    """Possible cone orders: divisors >= 2 of 2n, together with 4."""
    two_n = 2 * n
    return sorted({d for d in range(2, two_n + 1) if two_n % d == 0} | {4})


def quotient_signatures(n: int, g: int, handle: int) -> list[Signature]:
    """Every signature of this handle with rh_genus(4n, sig) = g, that is
    (g - 1)/2n = handle (gamma - 1) + sum(1 - 1/m).

    The cone orders are non-decreasing tuples from `order_pool(n)`.
    Everything is scaled by L = lcm(pool): 2n lies in the pool, so the
    target (L/2n)(g - 1 - 2n handle (gamma - 1)) and each term L - L/m
    are integers.  Results come ordered by gamma, then by cone orders in
    lexicographic order.  The pool and its scaled terms are built once
    per n (`_scaled_pool`), not once per genus of a walk.
    """
    pool, terms, unit = _scaled_pool(n)
    out = []
    gamma = 0
    while (target := unit * (g - 1 - 2 * n * handle * (gamma - 1))) >= 0:
        out.extend(Signature(handle, gamma, orders)
                   for orders in _partitions(target, pool, terms, 0))
        gamma += 1
    return out


@lru_cache(maxsize=1)
def _scaled_pool(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """`order_pool(n)`, its terms L - L/m and L/2n, for L = lcm(pool)."""
    pool = tuple(order_pool(n))
    scale = lcm(*pool)
    return pool, tuple(scale - scale // m for m in pool), scale // (2 * n)


def _partitions(target: int, pool: tuple[int, ...], terms: tuple[int, ...], lo: int):
    """Non-decreasing tuples from pool[lo:] whose terms sum to target,
    depth first, hence in lexicographic order.

    The terms grow with the order, so a cone leaves room for another one
    only while twice its term fits in the target; those cones recurse.
    The last cone is solved from the remaining target by bisection, and
    its one-cone tuple comes after every longer tuple, which all start
    with a smaller order.
    """
    if target == 0:
        yield ()
        return
    i = lo
    while i < len(pool) and 2 * terms[i] <= target:
        for rest in _partitions(target - terms[i], pool, terms, i):
            yield (pool[i],) + rest
        i += 1
    last = bisect_left(terms, target, i)
    if last < len(terms) and terms[last] == target:
        yield (pool[last],)


def last_genus(n: int) -> int:
    """The last genus the orientable walks try, two past the case-I
    bound n: (0; 4, 4, 2n) has genus n and is purely non-free."""
    return n + 2


def strong_symmetric_genus(n: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting any conformal action of the group,
    searching only the signatures that `search.admits` does not refute."""
    group = DicyclicGroup(n)
    for g in range(2, last_genus(n) + 1):
        for sig in quotient_signatures(n, g, 2):
            if search.admits(group, sig) is False:
                continue
            witness = exists_generating_vector(group, sig)
            if witness is not None:
                return g, witness
    raise AssertionError(f"no action of G_{n} found up to genus {last_genus(n)}")


def pure_symmetric_genus(n: int) -> tuple[int, GeneratingVector]:
    """Least genus >= 2 admitting a purely-non-free conformal action,
    searching only the signatures that `admits_pure` does not refute and
    testing the vectors it draws from them in index order."""
    group = DicyclicGroup(n)
    for g in range(2, last_genus(n) + 1):
        for sig in quotient_signatures(n, g, 2):
            if not admits_pure(n, sig):
                continue
            for hyper, cones in search.vectors(group, sig):
                if is_pure(group, cones):
                    return g, GeneratingVector(group, sig.gamma, hyper, cones)
    raise AssertionError(
        f"no purely-non-free action of G_{n} found up to genus {last_genus(n)}"
    )


def sigma_hyp(n: int) -> tuple[int, GeneratingVector]:
    """Minimal genus >= 2 of a conformal/anticonformal dicyclic action.

    Walks g = 2, ..., 2n - 1 through the non-orientable quotient
    signatures of each genus, in the order they are listed, and returns
    the first admissible datum over the index-two plus parts, searching
    only the pairs that `search.admits` does not refute.  The stated
    values, n + 1 (n even) and 2n - 2 (n odd), lie below 2n.
    """
    group = DicyclicGroup(n)
    plus_parts = group.index_two_subgroups()
    for g in range(2, 2 * n):
        for sig in quotient_signatures(n, g, 1):
            for H in plus_parts:
                if search.admits(group, sig, H) is False:
                    continue
                for witness in admissible_homomorphisms(group, H, sig, limit=1):
                    return g, witness
    raise AssertionError(f"no admissible action for n={n} exists below genus {2 * n}")

