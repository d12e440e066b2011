"""The quotient layer shared by both quotient kinds, over element indices.

A quotient signature has a handle of 2 (orientable, genus gamma) or 1
(non-orientable, gamma + 1 crosscaps), and both kinds obey one
Riemann-Hurwitz formula 2g - 2 = |G| (handle (gamma - 1) + sum(1 - 1/m))
(T. Breuer, *Characters and Automorphism Groups of Compact Riemann
Surfaces*, 2000).  This module holds the one `Signature` type, the genus
`rh_genus`, the long relation word(hyper) * c_1 ... c_r = 1 with a
product of commutators (orientable) or of squares (non-orientable), and
the one exhaustive generating-vector search.  The quotient kind is
decided here alone: `vectors(group, sig, plus_part)` checks, when it is
called, that the plus part matches the handle, reads the word and the
hyperbolic pools off the handle and the cone pools off the cone orders,
and `relation_holds` takes the handle that the one action record,
`covering.GeneratingVector`, reads off its plus part.  Both words are
sums in the abelian <x>, and the cone products follow the closed-form
`DicyclicGroup.mul`, so no product table is built.  The records hold the
index tuples as they come; only the command-line reports convert them to
`GroupElement` values.

`admits(group, sig, plus_part)` decides in closed form whether a
signature has a generating vector: for orientable signatures of genus 0
and of genus 1 with at most one cone, and over every index-two plus
part; it returns None for the other orientable ones.  The minimal
genera are formulas over a few candidate families: `least_admitted`
picks the candidate of least genus that `admits` accepts, and the
engine runs once, on that signature, so the witness is the first vector
in index order.  `vectors` itself stays exhaustive and is the oracle of
`admits`.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm

from .errors import ConstructionError, InadmissibleSignatureError, ParameterError, Value
from .group import DicyclicGroup


class Signature(Value):
    """Quotient-orbifold datum: the handle (2 for an orientable quotient of
    genus gamma, 1 for gamma + 1 crosscaps), gamma and the cone orders.

    Immutable; equal and hashed as the tuple (handle, gamma, cone_orders),
    and unordered.
    """

    __slots__ = ("handle", "gamma", "cone_orders")

    def __init__(self, handle: int, gamma: int, cone_orders: tuple[int, ...]):
        if handle not in (1, 2):
            raise InadmissibleSignatureError("handle must be 1 or 2")
        if gamma < 0:
            raise InadmissibleSignatureError("gamma must be >= 0")
        if any(m < 2 for m in cone_orders):
            raise InadmissibleSignatureError("cone orders must be >= 2")
        object.__setattr__(self, "handle", handle)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "cone_orders", tuple(cone_orders))

    def _key(self) -> tuple[int, int, tuple[int, ...]]:
        return (self.handle, self.gamma, self.cone_orders)


def rh_genus(group_order: int, sig: Signature) -> int:
    """Genus of the surface covering this quotient, by Riemann-Hurwitz.

    Solves 2g - 2 = N (handle (gamma - 1) + sum(1 - 1/m)) for g and
    insists on a non-negative integer; anything else is an inadmissible
    signature for a group of this order.  The sum runs in integers over
    the common denominator L = lcm(m), so g = (2L + N * total) / 2L.
    """
    if group_order < 1:
        raise ParameterError(f"group order must be >= 1, got {group_order}")
    denom = lcm(*sig.cone_orders)
    total = sig.handle * (sig.gamma - 1) * denom + sum(
        denom - denom // m for m in sig.cone_orders
    )
    g_numerator = 2 * denom + group_order * total
    if g_numerator % (2 * denom) or g_numerator < 0:
        from fractions import Fraction  # imported here: only the message needs it

        raise InadmissibleSignatureError(
            f"signature {sig} with group order {group_order} gives genus "
            f"{Fraction(g_numerator, 2 * denom)}"
        )
    return g_numerator // (2 * denom)


def commutators(group: DicyclicGroup, hyper: tuple[int, ...]) -> int:
    """[a_1, b_1] ... [a_g, b_g] for hyper = (a_1, b_1, ..., a_g, b_g), a sum in
    <x^2>: [x^a, x^c y] = x^(2a), [x^a y, x^c] = x^(-2c), [x^a y, x^c y] =
    x^(2(a-c)), so the pair of indices (i, j) adds 2(i (j mod 2) - j (i mod 2))."""
    total = 0
    for i, j in zip(hyper[::2], hyper[1::2]):
        total += i * (j % 2) - j * (i % 2)
    return 2 * total % group.order


def squares(group: DicyclicGroup, hyper: tuple[int, ...]) -> int:
    """a_1^2 ... a_k^2 for hyper = (a_1, ..., a_k), a sum in <x>: x^a squares
    to x^(2a) (index 2i) and x^a y to x^n (index 2n)."""
    n, total = group.n, 0
    for i in hyper:
        total += n if i % 2 else i
    return 2 * total % group.order


WORDS = {2: commutators, 1: squares}


def relation_holds(group: DicyclicGroup, handle: int, hyper, cones) -> bool:
    """Whether word(hyper) * c_1 ... c_r is the identity, on indices, with
    the word of this handle: `commutators` for 2, `squares` for 1."""
    total = WORDS[handle](group, hyper)
    for c in cones:
        total = group.mul(total, c)
    return total == 0


def _check_pair(group: DicyclicGroup, sig: Signature, plus_part) -> None:
    """Raise `ParameterError` unless a handle-2 signature comes with no
    plus part and a handle-1 signature with an index-two subgroup of
    this group: the pairs that `vectors` and `admits` take."""
    one_sided = sig.handle == 1
    if (plus_part is not None) != one_sided or one_sided and plus_part.index_in(group) != 2:
        raise ParameterError("a handle-2 signature takes no plus part and a handle-1 "
                             "signature an index-two subgroup of this group")


def admits(group: DicyclicGroup, sig: Signature, plus_part=None) -> bool | None:
    """Whether this signature has a generating vector over this plus
    part, where a closed form decides it, and None elsewhere: for the
    orientable signatures with gamma >= 2, or gamma = 1 and r >= 2, which
    no minimality proof needs.  It checks the pair as `vectors` does, and
    `vectors` stays the exhaustive oracle.

    Hurwitz moves permute the cone images and keep their orders, their
    product and the group they generate, so only the multiset of cone
    orders matters.  Every element outside <x> is some x^s y, of order 4,
    and a product of them lies in <x> iff there are evenly many.  An
    element x^a of order m has gcd(a, 2n) = 2n/m, so gcd(n, a) = gcd(n,
    2n/m) whatever the unit a m/2n; by `DicyclicGroup._closure_indices`
    the images generate iff they hold some x^s y and gcd(n, the
    differences of the y-exponents, the x-exponents) = 1.

    Orientable, gamma = 0 (Harvey's method for cyclic groups, W. J.
    Harvey, Quart. J. Math. 1966): every m_j is 4 or divides 2n, and
    an even number t >= 2 of the f order-4 cones are y-elements, the
    others x^(+-n/2), which needs n even.  With t >= 4 the differences
    of s_1, s_2, s_3 are free, s_2 - s_1 = 1 generates and s_4 solves
    the relation.  With t = 2 the relation fixes s_2 - s_1 to n plus the
    sum of the x-exponents, so generation needs gcd(n, 2n/L) = 1 for the
    lcm L of the other orders: L = 2n, or L = n with n odd.

    Orientable, gamma = 1, at most one cone: c = [a, b]^-1 lies in <a,
    b>, so a and b generate; they are not both in <x>, and [x^i, x^j y]
    = x^(2i), [x^i y, x^j y] = x^(2(i - j)) with gcd(n, i), resp. gcd(n,
    i - j), equal to 1, so [a, b] has order n.  So (1; -) never occurs
    ([a, b] = 1 would make G_n = <a, b> abelian), and (1; m) occurs iff
    m = n, with (a, b) = (x, y).

    Handle 1 over <x> (k = gamma + 1 crosscaps; E. Bujalance et al.,
    LNM 1439, 1990): the glide reflections are y-elements, each squaring
    to x^n, and the cone images lie in <x>, so every m_j divides 2n and
    the relation is sum (2n/m_j) u_j = kn (mod 2n) for units u_j mod
    m_j.  Each cone's terms are the elements of order m_j in Z/2n, a
    set that the units of Z/2n fix, so the reachable sums are unions of
    those orbits, the residues of one gcd with 2n each, and one pass per
    cone over the gcds reached decides the sum.  For k >= 2 a second
    free glide reflection generates; for k = 1 generation needs gcd(n,
    2n/L) = 1 for the lcm L of all the orders.

    Handle 1 over <x^2, x^s y> (n even): a glide reflection is x^a with
    a odd, squaring to x^(2a), or a y-element x^c y with c - s odd,
    squaring to x^n; a cone image is x^(2w) with m_j | n, or a y-element
    x^b y with b - s even, of order 4.  So every m_j is 4 or divides n,
    the t order-4 cones that are y-elements are evenly many, and the
    other order-4 cones, x^(+-n/2), need 4 | n.  The relation lies in
    <x^2>: halve it to Z/n.  With t >= 2, b_1 - b_2 is free and solves
    it, while a glide x^1, or a y-glide at c = b_1 + 1, generates.  With
    t = 0 the generators need a y-glide and, for an odd exponent, an
    x-glide, so k >= 2 with k_x x-glides, 0 < k_x < k, and every halved
    term has a fixed parity: odd for an x-glide, n/2 for a y-glide, and
    n/m_j for an x-cone (its unit is odd when n/m_j is); they must add
    to an even sum.  Then for k >= 3 a second glide of either kind
    (x^1, or a y-glide two steps from the first) generates and an
    x-glide solves the relation.  For k = 2 that x-glide is forced, and
    an odd prime dividing n and every x-cone divides it too, so
    generation needs n/L to be a power of two for the lcm L of the
    orders.
    """
    _check_pair(group, sig, plus_part)
    n, two_n, orders = group.n, 2 * group.n, sig.cone_orders
    if sig.handle == 2:
        if sig.gamma:
            return orders == (n,) if sig.gamma == 1 and len(orders) < 2 else None
        if any(m != 4 and two_n % m for m in orders):
            return False
        fours = orders.count(4)
        if fours < 2 or n % 2 and fours % 2:
            return False
        if fours >= 4:
            return True
        rest = lcm(*(m for m in orders if m != 4), *(4,) * (fours - 2))
        return rest == two_n or n % 2 == 1 and rest == n
    k = sig.gamma + 1
    if plus_part.s is not None:  # <x^2, y> or <x^2, xy>, at even n
        fours = orders.count(4)
        if any(m != 4 and n % m for m in orders) or fours % 2 and n % 4:
            return False
        if fours >= 2:
            return True
        odd = sum(n // m % 2 for m in orders)
        if all((k_x + (k - k_x) * n // 2 + odd) % 2 for k_x in range(1, k)):
            return False
        q = n // lcm(*orders)
        return k > 2 or q & (q - 1) == 0
    if any(two_n % m for m in orders):
        return False
    if k == 1 and gcd(n, two_n // lcm(*orders)) != 1:
        return False
    reached = {two_n}  # gcd(sum, 2n) of the sums so far; the empty sum is 0
    for m in orders:
        steps = [two_n // m * u for u in range(1, m) if gcd(u, m) == 1]
        reached = {gcd(g + step, two_n) for g in reached for step in steps}
    return gcd(k * n, two_n) in reached


def least_admitted(group: DicyclicGroup, pairs):
    """The (signature, plus part) pair of least genus among these that
    `admits` accepts, the first one listed on a tie.  Its callers list
    families that their proofs show to hold the minimum, so a list with
    no admitted pair is a bug and raises `ConstructionError`."""
    admitted = [pair for pair in pairs if admits(group, *pair)]
    if not admitted:
        raise ConstructionError(f"no candidate signature is admitted for G_{group.n}")
    return min(admitted, key=lambda pair: rh_genus(group.order, pair[0]))


def vectors(group: DicyclicGroup, sig: Signature, plus_part=None):
    """An iterator over every generating vector (hyper, cones) of this
    signature as index tuples, in lexicographic order.

    The signature decides the quotient kind.  Handle 2 takes no plus
    part, 2 gamma hyperbolic images from the whole group and the word of
    commutators; handle 1 takes an index-two `plus_part` of this group,
    gamma + 1 glide-reflection images from outside it and the word of
    squares.  Any other pair raises `ParameterError` here, when it is
    called, not when the first vector is drawn.
    """
    _check_pair(group, sig, plus_part)
    return _search(group, sig, plus_part)


def _search(group: DicyclicGroup, sig: Signature, plus_part):
    """The exhaustive search behind `vectors`.  The cone image c_j has
    order m_j and lies in `plus_part` (the whole group when it is None).
    The last cone image is forced by the long relation; without cone
    images the forced image must be the identity.
    """
    order, table = group.order, group.order_table
    if sig.handle == 2:
        hyper_pools = [range(order)] * (2 * sig.gamma)
    else:
        hyper_pools = [[i for i in range(order) if i not in plus_part]] * (sig.gamma + 1)
    members = range(order) if plus_part is None else sorted(plus_part)
    pools = [[i for i in members if table[i] == m] for m in sig.cone_orders]
    if not all(pools):
        return
    word, two_n, inv = WORDS[sig.handle], 2 * group.n, group.inverse_table
    last_pool = set(pools[-1]) if pools else {0}
    for hyper in itertools.product(*hyper_pools):
        prod = word(group, hyper)
        for head in itertools.product(*pools[:-1]):
            total = prod
            for c in head:
                # group.mul(total, c), written out in the one hot loop
                total = (total - c + two_n * (c % 2) if total % 2 else total + c) % order
            last = inv[total]
            if last not in last_pool:
                continue
            cones = head + (last,) if pools else ()
            if len(group._closure_indices(hyper + cones)) == order:
                yield hyper, cones
