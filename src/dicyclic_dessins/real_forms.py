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

This module certifies the minimal hyperbolic genus values: the quotient
signatures of each genus are `search.Signature` values with handle 1
from inverting the Riemann-Hurwitz formula (`search.quotient_signatures`).
Over each index-two plus part `search.admits` decides each in closed
form, and the walk skips the pairs it refutes; the images of the others
come from `covering.generating_vectors` over their plus part, that is
from the exhaustive `search.vectors`, which reads the word of squares
and the image pools off the signature and the plus part; the record,
its genus, the decision and the engine are shared with the orientable
layers.  It also builds the pseudo-real family with all of its
computable properties.
"""

from __future__ import annotations

from itertools import islice

from . import search
from .covering import GeneratingVector, generating_vectors
from .errors import ParameterError, SearchExhaustedError
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
    """Minimal genus >= 2 of a conformal/anticonformal dicyclic action.

    Walks g = 2, ..., 2n - 1 through the non-orientable quotient
    signatures of each genus (`search.quotient_signatures` with handle
    1), in the order they are listed, and returns the first admissible
    datum over the index-two plus parts, searching only the pairs that
    `search.admits` does not refute.  The stated values, n + 1 (n
    even) and 2n - 2 (n odd), lie below 2n, so the walk stops there and
    raises `SearchExhaustedError` if it finds no action.
    """
    group = DicyclicGroup(n)
    plus_parts = group.index_two_subgroups()
    # For g < 2n, (g - 1)/2n = gamma - 1 + sum(1 - 1/m) < 1 forces
    # gamma <= 1 and, each term being at least 1/2, r <= 3: the scope,
    # gamma <= 1 and r <= 3, that `hyper` reports.
    for g in range(2, 2 * n):
        for sig in search.quotient_signatures(n, g, 1):
            for H in plus_parts:
                if search.admits(group, sig, H) is False:
                    continue
                for witness in admissible_homomorphisms(group, H, sig, limit=1):
                    return g, witness
    raise SearchExhaustedError(
        f"no admissible action for n={n} exists below genus {2 * n}"
    )


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
