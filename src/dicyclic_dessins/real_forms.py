"""The anticonformal side: non-orientable quotient data for dicyclic actions.

An action with anticonformal elements is encoded combinatorially by the
index-two conformal subgroup, a non-orientable quotient signature
(gamma + 1 crosscaps, r cone points) and the images of the glide
reflection and elliptic generators, subject to the long relation
alpha_1^2 ... alpha_(gamma+1)^2 beta_1 ... beta_r = 1 with torsion-free
kernel (exact cone orders).  Reflection generators are excluded
throughout: the quotients arising here have no boundary, because the
induced anticonformal involution acts without fixed points (the only
involution x^n lies in every index-two subgroup).

This module certifies the minimal hyperbolic genus values by exhaustive
search: the quotient signatures of each genus are `search.Signature`
values with handle 1 from inverting the Riemann-Hurwitz formula
(`search.quotient_signatures`), their genus is `search.rh_genus`, and
their images come from the vector engine of `search.py`, all shared
with the orientable layers.  Images are element indices 2a + b, as in
`covering.py`.  It also builds the pseudo-real family with all of its
computable properties.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import search
from .errors import ParameterError, SearchExhaustedError
from .group import DicyclicGroup, Subgroup
from .search import Signature, rh_genus


@dataclass
class NECActionData:
    """A conformal/anticonformal dicyclic action, as a finite datum; the
    glide-reflection and elliptic images are element indices."""

    group: DicyclicGroup
    plus_part: Subgroup
    sig: Signature
    alpha_images: tuple[int, ...]
    beta_images: tuple[int, ...]

    def __post_init__(self) -> None:
        self.group.check_indices((*self.alpha_images, *self.beta_images))
        problems = self.violations()
        if problems:
            raise ParameterError("; ".join(problems))

    def violations(self) -> list[str]:
        group, members = self.group, self.plus_part.members
        orders = group.order_table
        out = []
        if self.plus_part.index_in(group) != 2:
            out.append("plus part is not an index-two subgroup")
        if len(self.alpha_images) != self.sig.gamma + 1:
            out.append("wrong number of glide-reflection images")
        if len(self.beta_images) != len(self.sig.cone_orders):
            out.append("wrong number of elliptic images")
        for a in self.alpha_images:
            if a in members:
                out.append(f"alpha image {group.element_at(a)!r} lies in the plus part")
        for b, m in zip(self.beta_images, self.sig.cone_orders):
            if b not in members:
                out.append(f"beta image {group.element_at(b)!r} outside the plus part")
            if orders[b] != m:
                out.append(f"beta image {group.element_at(b)!r} has order "
                           f"{orders[b]}, not {m}")
        alphas, betas = self.alpha_images, self.beta_images
        if not search.relation_holds(group, search.squares, alphas, betas):
            out.append("long relation fails")
        # Generation settles the plus part too: with transversal {1, a_1},
        # Reidemeister-Schreier gives it the betas, the alpha squares, the
        # alpha-conjugates of the betas and the a_i a_j (i < j), since
        # a_j a_i = a_j^2 (a_i a_j)^-1 a_i^2.
        if len(group._closure_indices((*alphas, *betas))) != group.order:
            out.append("images do not generate the group")
        return out

    def genus(self) -> int:
        return rh_genus(self.group.order, self.sig)


def admissible_homomorphisms(
    group: DicyclicGroup,
    plus_part: Subgroup,
    sig: Signature,
    limit: int | None = None,
) -> list[NECActionData]:
    """Exhaustive list of admissible image tuples for one signature.

    `search.vectors` with the word of squares, glide-reflection images
    outside the plus part and elliptic images inside it, so every vector
    passes `NECActionData.violations` by construction.  Results come out
    in a fixed lexicographic order; `limit` truncates early when only
    existence (or one witness) is needed.
    """
    if plus_part.index_in(group) != 2:
        raise ParameterError("plus part must have index two")
    outside = [i for i in range(group.order) if i not in plus_part.members]
    beta_pools = search.cone_pools(group, sig.cone_orders, plus_part.members)
    found: list[NECActionData] = []
    alpha_pools = [outside] * (sig.gamma + 1)
    for alphas, betas in search.vectors(group, alpha_pools, search.squares, beta_pools):
        found.append(NECActionData(group, plus_part, sig, alphas, betas))
        if limit is not None and len(found) >= limit:
            break
    return found


def sigma_hyp(n: int) -> tuple[int, NECActionData]:
    """Minimal genus >= 2 of a conformal/anticonformal dicyclic action.

    Walks g = 2, ..., 2n - 1 through the non-orientable quotient
    signatures of each genus (`search.quotient_signatures` with handle
    1), in the order they are listed, and returns the first admissible
    datum over the index-two plus parts.  The stated values, n + 1 (n
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
                for witness in admissible_homomorphisms(group, H, sig, limit=1):
                    return g, witness
    raise SearchExhaustedError(
        f"no admissible action for n={n} exists below genus {2 * n}"
    )


# -- pseudo-real construction ------------------------------------------


@dataclass
class PseudoRealCertificate:
    """Computable evidence for one member of the pseudo-real family."""

    n: int
    q: int
    l: int
    action: NECActionData
    genus: int
    genus_via_cyclic_cover: int
    obstruction_report: dict

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
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    if q < 2:
        raise ParameterError(f"need q >= 2, got q={q}")
    l = n * (2 * q - 1)
    group = DicyclicGroup(n)
    plus_part = group._subgroup((2,))  # <x>; x has index 2 and y index 1
    sig = Signature(1, 0, (2 * n,) * l)
    action = NECActionData(group, plus_part, sig,
                           alpha_images=(1,), beta_images=(2,) * l)
    genus = rh_genus(group.order, sig)
    # Riemann-Hurwitz through S -> S/<x>: degree 2n, genus-zero base,
    # exactly 2l cone points of order 2n.  Over the denominator 2n,
    # 2g - 2 = 2n (-2 * 2n + 2l (2n - 1)) / 2n, an integer since 4n
    # divides 2n * 2(-2n + l(2n - 1)).
    two_n = 2 * n
    euler = two_n * (-2 * two_n + 2 * l * (two_n - 1))
    genus_cyclic = 1 + euler // (2 * two_n)
    outside_orders = sorted(
        {group.order_table[i] for i in range(group.order) if i not in plus_part.members}
    )
    report = {
        "unique_involution": "x^n",
        "involution_inside_plus_part": 2 * n in plus_part.members,
        "orders_outside_plus_part": outside_orders,
        "cone_point_count_on_cyclic_quotient": 2 * l,
        "maximality": "assumed (maximal-signature list; 2l > 6 holds)",
    }
    return PseudoRealCertificate(
        n=n,
        q=q,
        l=l,
        action=action,
        genus=genus,
        genus_via_cyclic_cover=genus_cyclic,
        obstruction_report=report,
    )
