"""The anticonformal side: minimal hyperbolic genus and the pseudo-real family.

An action with anticonformal elements is a `covering.GeneratingVector`
with a plus part: the index-two conformal subgroup, a non-orientable
quotient (gamma + 1 crosscaps, r cone points) and the images of the
glide reflection and elliptic generators, subject to the long relation
alpha_1^2 ... alpha_(gamma+1)^2 beta_1 ... beta_r = 1 with torsion-free
kernel (exact cone orders), all of which that record checks.  Reflection
generators are excluded throughout: the quotients arising here have no
boundary, because the induced anticonformal involution acts without
fixed points (the only involution x^n lies in every index-two subgroup).

This module certifies the minimal hyperbolic genus values as the least
Riemann-Hurwitz genus over closed-form candidates, `search.Signature`
values with handle 1 over the index-two plus parts, which `search.admits`
decides when it runs; `sigma_hyp` proves that no other pair of at most
that genus is realised.  The images of the winning pair come from
`covering.generating_vectors` over its plus part, that is from the
exhaustive `search.vectors`, which reads the word of squares and the
image pools off the signature and the plus part; the record, its genus,
the decision and the engine are shared with the orientable layers.  It
also builds the pseudo-real family with all of its computable
properties.
"""

from __future__ import annotations

from itertools import islice

from . import search
from .covering import GeneratingVector, generating_vectors
from .errors import ConstructionError, ParameterError
from .group import DicyclicGroup, Subgroup
from .search import Signature


def admissible_homomorphisms(
    group: DicyclicGroup,
    plus_part: Subgroup,
    sig: Signature,
    limit: int | None = None,
) -> list[GeneratingVector]:
    """Exhaustive list of admissible image tuples for one signature.

    The handle-1 `covering.generating_vectors` over this plus part puts
    the glide-reflection images outside it and the elliptic images inside
    it.  Results come out in a fixed lexicographic order; `limit`
    truncates early when only existence (or one witness) is needed.
    """
    return list(islice(generating_vectors(group, sig, plus_part), limit))


def sigma_hyp(n: int) -> tuple[int, GeneratingVector]:
    """Minimal genus >= 2 of a conformal/anticonformal dicyclic action:
    (0; 4, 4) at even n, of genus n + 1, over the first index-two plus
    part that `search.admits` accepts, and (0; n, 2n) over <x> at odd n,
    of genus 2n - 2, with the first datum of that pair.

    Proof.  With k = gamma + 1 crosscaps, Riemann-Hurwitz reads
    (g - 1)/2n = k - 2 + sum(1 - 1/m), each term at least 1/2.  Both
    answers lie below 1, which leaves k = 1 with r <= 3, and k = 2 with
    r <= 1, where (1; -) has g = 1.

    Over <x> a cone image is x^(a_j) with gcd(a_j, 2n) = 2n/m_j and a
    glide image is a y-element, squaring to x^n, so the relation is
    sum a_j = kn (mod 2n), and the images generate iff gcd(n, the a_j)
    = 1.  (1; m) needs a_1 = 0: refuted.  (0; m_1, m_2) needs a_2 = n -
    a_1, so gcd(n, a_1) = gcd(n, a_2) = 1: each 2n/m_j divides 2, and
    for odd n one a_j is odd.  That leaves (0; 2n, 2n) at even n, of
    genus 2n - 1, and (0; n, 2n) at odd n.

    Odd n, where <x> is the only plus part: (0; m_1, m_2, m_3) of genus
    at most 2n - 2 has sum 1/m >= 1 + 3/2n, and 4 does not divide 2n,
    so it is (2, 2, m) with m <= 2n/3, (2, 3, 3) with n >= 9, or
    (2, 3, 5) with n >= 45.  The only element of order 2 is x^n, so the
    first needs gcd(n, a_3) = 1, that is m >= n, and n/3, resp. n/15,
    divides every a_j of the others.  So (0; n, 2n) is the one pair of
    genus at most 2n - 2.

    Even n: genus at most n + 1 leaves (1; 2), (0; m_1, m_2) with
    sum 1/m >= 1/2, and (0; 2, 2, 2), whose a_j = n do not generate.
    Over <x^2, x^s y> `admits` refutes (1; 2) by the parity of its terms
    and needs two cones of order 4 at k = 1.  So (0; 4, 4), of genus
    n + 1, is the one signature, over <x^2, x^s y> (and over <x> at
    n = 2, where 2n = 4).
    """
    group = DicyclicGroup(n)
    family = Signature(1, 0, (4, 4) if n % 2 == 0 else (n, 2 * n))
    sig, H = search.least_admitted(group, [(family, H) for H in group.index_two_subgroups()])
    for witness in admissible_homomorphisms(group, H, sig, limit=1):
        return witness.genus(), witness
    raise ConstructionError(f"{sig} over {H!r} is admitted but has no datum for G_{n}")


# -- pseudo-real construction ------------------------------------------


class PseudoRealCertificate:
    """Computable evidence for one member of the pseudo-real family."""

    __slots__ = ("n", "q", "l", "action", "genus", "genus_via_cyclic_cover",
                 "obstruction_report")

    def __init__(
        self,
        n: int,
        q: int,
        l: int,
        action: GeneratingVector,
        genus: int,
        genus_via_cyclic_cover: int,
        obstruction_report: dict,
    ):
        self.n, self.q, self.l, self.action = n, q, l, action
        self.genus, self.genus_via_cyclic_cover = genus, genus_via_cyclic_cover
        self.obstruction_report = obstruction_report

    @property
    def expected_genus(self) -> int:
        return (self.l - 1) * (2 * self.n - 1)


def build_pseudo_real(n: int, q: int) -> PseudoRealCertificate:
    """The pseudo-real datum: one glide reflection to y, l elliptics to x.

    l = n(2q - 1) cone points of order 2n on a projective-plane
    quotient.  The genus is computed twice (the non-orientable genus
    formula, and Riemann-Hurwitz through the degree-2n cyclic cover
    with 2l cone points), and the report's claims compare both with
    (l-1)(2n-1).  The pseudo-real obstruction is that the anticonformal
    elements, the coset outside <x>, all have order four, which the
    report's claims read off the orders recorded here; maximality of the
    group rests on a maximal-signature assumption recorded as such.
    """
    if q < 2:
        raise ParameterError(f"need q >= 2, got q={q}")
    l = n * (2 * q - 1)
    group = DicyclicGroup(n)
    plus_part = Subgroup(n, 1, None)  # <x>
    action = GeneratingVector(group, 0, (1,), (2,) * l, plus_part)
    # Riemann-Hurwitz through S -> S/<x>: degree 2n, genus-zero base,
    # exactly 2l cone points of order 2n.  Over the denominator 2n,
    # 2g - 2 = 2n (-2 * 2n + 2l (2n - 1)) / 2n, an integer since 4n
    # divides 2n * 2(-2n + l(2n - 1)).
    two_n = 2 * n
    euler = two_n * (-2 * two_n + 2 * l * (two_n - 1))
    genus_cyclic = 1 + euler // (2 * two_n)
    outside_orders = sorted(
        {group.order_table[i] for i in range(group.order) if i not in plus_part}
    )
    report = {
        "unique_involution": "x^n",
        "involution_inside_plus_part": 2 * n in plus_part,
        "orders_outside_plus_part": outside_orders,
        "cone_point_count_on_cyclic_quotient": 2 * l,
        "maximality": "assumed (maximal-signature list; 2l > 6 holds)",
    }
    return PseudoRealCertificate(
        n=n,
        q=q,
        l=l,
        action=action,
        genus=action.genus(),
        genus_via_cyclic_cover=genus_cyclic,
        obstruction_report=report,
    )
