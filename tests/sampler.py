"""The numeric sampler: the second computation of the exact curve checks
of `dicyclic_dessins.curves`.

It checks the same models and words (`curves._checks`) with its own
formulas: a model's `maps` holds each self-map as its coordinate
function over complex doubles, and `orders` its order.  The tests
require its verdicts to equal the exact layer's on every word, and its
perturbation control (`perturb`) to fail.  All checks are numeric:
words in the maps are applied to pseudo-random points sampled on the
curve and compared within a tolerance, with every intermediate point
required to stay on the curve.  Residuals are relative
(|lhs - rhs| / (1 + |lhs| + |rhs|)) so that the large right-hand sides
of the cyclic models do not drown the signal.

Each model picks its relation-sides function once, at construction,
and the sampler, the residual and the step loop all call it.  The
sampler and every map step first test whether a point is in the
exclusion zone: only a point whose modulus is near 0 or 1 can be, and
only for such a point is the distance to the nearest branch point
scanned over `branch_locus()`.

A word applies a nonnegative exponent literally, so an order relation
such as x^(2n) = 1 takes its 2n steps; only a negative exponent is
rewritten modulo the map's order.  A claim bundle makes its plan once:
each point a word reaches after one factor gets an integer slot, and
each (map, origin slot) pair one power trajectory, so x^(2n), x^n and
x^(2n-1) share one chain of 2n steps.  The bundle draws its points once
and walks them one at a time through every trajectory, into one list of
(point, drift) per slot, the drift being the worst residual on the way
from the start point.  Each check then reads its two image slots, and
is the dict its payload holds.  The report of a model walks its
relation and anticonformal words as one bundle, so u^-1 and y^-1 in the
anticonformal words read the relations' u and y chains.  A sample
point or a trajectory whose arithmetic overflows (or, in a map, divides
by a power that underflowed to zero) is resampled like one that enters
the exclusion zone around poles and branch points.

Reports are deterministic functions of (model, word, seed).
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Callable

from dicyclic_dessins import curves
from dicyclic_dessins.curves import _checks, _word_description, applicable_models
from dicyclic_dessins.errors import ParameterError

ADMISSION_TOLERANCE = 1e-12
BRANCH_DISTANCE = 1e-3
SHELL = 2 * BRANCH_DISTANCE

Point = tuple[complex, complex]


class SamplingError(RuntimeError):
    """Rejection sampling of curve points failed within the retry budget."""


def root_of_unity(m: int) -> complex:
    return cmath.exp(2j * cmath.pi / m)


class CurveModel:
    """A named curve family at a fixed n, with its maps: `maps` sends each
    name to its coordinate function and `orders` to its order.

    `perturb` shifts the primitive root used in the map formulas by a
    relative amount; it exists solely for the sensitivity control that
    shows the numeric checks would catch a wrong formula.
    `hyperelliptic` is the one record of the model's family (the
    hyperelliptic models carry the ring of branch points, tau and pi).
    `sides` is the relation-sides function picked for the model,
    `branch_distance` the distance from z to the nearest point of
    `branch_locus()`, and `_samples` keeps the points drawn per
    (count, seed).
    """

    __slots__ = ("name", "n", "perturb", "hyperelliptic", "maps", "orders",
                 "sides", "branch_distance", "_samples")

    def __init__(self, name: str, n: int, perturb: float = 0.0):
        curves.CurveModel(name, n)  # the domain: an unknown name or a wrong parity raises
        self.name, self.n, self.perturb = name, n, perturb
        self.hyperelliptic = name.endswith("hyperelliptic")
        self._samples = {}
        self.sides = _relation_sides(name, n)
        self.maps, self.orders = _build_maps(self)
        locus = self.branch_locus()
        self.branch_distance = lambda z: min(abs(z - b) for b in locus)

    # -- defining relation ---------------------------------------------

    def residual(self, p: Point) -> float:
        """|lhs - rhs| / (1 + |lhs| + |rhs|) of the defining relation."""
        lhs, rhs = self.sides(p[0], p[1])
        return abs(lhs - rhs) / (1.0 + (abs(lhs) + abs(rhs)))

    # -- sampling -------------------------------------------------------

    def branch_locus(self) -> list[complex]:
        """First-coordinate values to stay away from while sampling.

        Includes every branch value and every pole appearing in a map
        denominator (0, +-1, the relevant roots of unity).
        """
        n = self.n
        pts = [0j, 1 + 0j, -1 + 0j]
        if self.hyperelliptic:
            pts += [root_of_unity(2 * n) ** k for k in range(2 * n)]
        return pts

    def lift(self, z: complex) -> Point:
        """Second coordinate from the defining relation, fixed branch."""
        _, rhs = self.sides(z, 0j)
        if self.hyperelliptic:
            return (z, cmath.sqrt(rhs))
        if abs(rhs) < 2.2250738585072014e-308:
            # below sys.float_info.min the right-hand side has lost its
            # bits to underflow, and its 2n-th root carries none
            raise ValueError("the right-hand side underflows")
        return (z, cmath.exp(cmath.log(rhs) / (2 * self.n)))

    def sample_points(self, count: int, seed: int) -> list[Point]:
        """Deterministic rejection sampling away from the branch locus.

        Each (count, seed) draw is made once per model and memoised; the
        caller gets a fresh list it may overwrite.
        """
        if count < 1:
            raise ParameterError(f"need count >= 1, got {count}")
        key = (count, seed)
        if key not in self._samples:
            self._samples[key] = self._draw(count, seed)
        return list(self._samples[key])

    def _draw(self, count: int, seed: int) -> list[Point]:
        rng = random.Random(seed)
        points = []
        budget = 1000 * count
        for _ in range(budget):
            radius = rng.uniform(0.4, 1.8)
            angle = rng.uniform(0.0, 2 * cmath.pi)
            z = radius * cmath.exp(1j * angle)
            # the pre-test of `_walk`; a radius of at least 0.4 is not near 0
            if (-SHELL < radius - 1.0 < SHELL
                    and self.branch_distance(z) < BRANCH_DISTANCE):
                continue
            try:
                p = self.lift(z)
                admitted = self.residual(p) <= ADMISSION_TOLERANCE
            except (OverflowError, ValueError):
                # a power of z overflowed, or the cyclic right-hand side
                # underflowed below the normal floats: reject, as off
                # the curve
                continue
            if admitted:
                points.append(p)
                if len(points) == count:
                    return points
        raise SamplingError(f"rejection sampling failed after {budget} attempts")


def _relation_sides(
    name: str, n: int
) -> Callable[[complex, complex], tuple[complex, complex]]:
    """(z, w) -> (lhs, rhs) of the defining relation of model `name`."""
    two_n = 2 * n
    if name == "Sn_hyperelliptic":
        return lambda z, w: (w * w, z * (z ** two_n - 1))
    if name == "Rn_hyperelliptic":
        return lambda z, w: (w * w, z ** two_n - 1)
    if name == "Sn_cyclic":
        odd = two_n - 1
        return lambda z, w: (w ** two_n, z ** n * (z - 1) * (z + 1) ** odd)
    even = two_n - 2
    return lambda z, w: (w ** two_n, z ** n * (z - 1) ** 2 * (z + 1) ** even)


def _build_maps(model: CurveModel) -> tuple[dict[str, Callable], dict[str, int]]:
    """Each self-map's coordinate function and its order, by name."""
    n = model.n
    r2n, r4n, rn = (root_of_unity(m) * (1 + model.perturb) for m in (2 * n, 4 * n, n))
    maps, orders = {}, {}

    def add(name: str, func, order: int) -> None:
        maps[name], orders[name] = func, order

    if model.name == "Sn_hyperelliptic":
        add("u", lambda p: (r2n * p[0], r4n * p[1]), 4 * n)
        add("y", lambda p: (1 / p[0], 1j * p[1] / p[0] ** (n + 1)), 4)
        add("x", lambda p: (rn * p[0], r2n * p[1]), 2 * n)
        if n == 2:
            add(
                "t",
                lambda p: (
                    1j * (1 - p[0]) / (1 + p[0]),
                    2 * (1 + 1j) * p[1] / (p[0] + 1) ** 3,
                ),
                3,
            )
        add("tau", lambda p: (p[0].conjugate(), p[1].conjugate()), 2)
    elif model.name == "Rn_hyperelliptic":
        add("u", lambda p: (r2n * p[0], p[1]), 2 * n)
        add("y", lambda p: (1 / p[0], 1j * p[1] / p[0] ** n), 4)
        add("x", lambda p: (rn * p[0], -p[1]), 2 * n)
        add("tau", lambda p: (p[0].conjugate(), p[1].conjugate()), 2)
    elif model.name == "Sn_cyclic":
        add("x", lambda p: (p[0], r2n * p[1]), 2 * n)
        # The printed w^(2n-1) / (z^(n-1) (z+1)^(2n-2)) is z (z^2 - 1) / w
        # on the curve, where w^(2n) = z^n (z-1) (z+1)^(2n-1); the quotient
        # form loses precision in proportion to n, this one does not.
        add("y", lambda p: (-p[0], p[0] * (p[0] ** 2 - 1) / p[1]), 4)
    else:  # Rn_cyclic
        add("x", lambda p: (p[0], r2n * p[1]), 2 * n)
        add(
            "y",
            lambda p: (-p[0], r4n * p[0] * (p[0] ** 2 - 1) / p[1]),
            4,
        )

    if model.hyperelliptic:
        add("xy", lambda p: maps["x"](maps["y"](p)), 4)
    return maps, orders


def belyi_projection(n: int, p: Point) -> complex:
    z = p[0]
    return -(z ** n + z ** (-n) - 2) / 4


# -- words --------------------------------------------------------------


Word = list[tuple[str, int]]


def _walk(model: CurveModel, trails: list, size: int, start: Point) -> list:
    """The step loop: walk `start` through the `trails` of a bundle's
    plan, each listed after the trail whose node it starts from, into a
    list of `size` slots holding (point, drift) at each node, or None
    where no walk reached.

    The drift of a node is the worst residual of every step from the
    start point to it.  Each trail walks from its origin slot, its point
    and drift held in locals, and writes its node after step k + 1 into
    slot schedule[k] where that is not None.  It tests the exclusion
    zone before each step and the finiteness of its image after it;
    either failure, or an overflow or a division by an underflowed zero
    in the map or the residual, ends the trail, and the slots it did not
    reach stay None.

    Every branch value is 0 or on the unit circle, so a z whose modulus
    lies SHELL or more from both 0 and 1 is outside the zone without
    the scan of `branch_distance`: |z - b| >= ||z| - |b||, and the
    factor two in SHELL covers the rounding of both moduli.
    """
    sides = model.sides
    isfinite = cmath.isfinite
    state = [None] * size
    state[0] = start, 0.0
    for func, origin, schedule in trails:
        if state[origin] is None:
            continue
        p, drift = state[origin]
        z = p[0]
        try:
            for slot in schedule:
                modulus = abs(z)
                if ((modulus < SHELL or -SHELL < modulus - 1.0 < SHELL)
                        and model.branch_distance(z) < BRANCH_DISTANCE):
                    break
                p = func(p)
                z, w = p
                if not (isfinite(z) and isfinite(w)):
                    break
                lhs, rhs = sides(z, w)
                r = abs(lhs - rhs) / (1.0 + (abs(lhs) + abs(rhs)))
                if r > drift:
                    drift = r
                if slot is not None:
                    state[slot] = p, drift
        except (OverflowError, ZeroDivisionError):
            pass
    return state


Check = tuple[Word, Word]


def _plan(model: CurveModel, checks: list[Check]) -> tuple[list, int, list]:
    """The walk of a bundle, made once: its trails, its number of slots
    and, for each check, its (got slot, want slot).

    A word applies its factors right to left (group notation); a
    nonnegative exponent takes its steps as written, a negative one is
    rewritten modulo the map's order.  A node is the point a word
    reaches after one factor: (trail, step), or (None, 0) for the start
    point.  A trail, (map name, node), is the power trajectory of a map
    from a node; words that apply one map to one node share it, so
    x^(2n), x^n and x^(2n-1) read one chain of 2n steps.  Each node gets
    an integer slot, 0 for the start point, and each trail becomes
    (map func, origin slot, schedule) for `_walk`, listed in the order
    their origins need.
    """
    slots, reach, pairs = {(None, 0): 0}, {}, []
    for check in checks:
        images = []
        for w in check:
            node = (None, 0)
            for name, exponent in reversed(w):
                steps = exponent if exponent >= 0 else exponent % model.orders[name]
                trail = (name, node)
                node = (trail, steps)
                slots.setdefault(node, len(slots))
                reach[trail] = max(reach.get(trail, 0), steps)
            images.append(slots[node])
        pairs.append(tuple(images))
    trails = [
        (model.maps[name], slots[origin],
         [slots.get(((name, origin), k)) for k in range(1, last + 1)])
        for (name, origin), last in reach.items()
    ]
    return trails, len(slots), pairs


def _verify_bundle(
    model: CurveModel,
    checks: list[Check],
    tolerance: float,
    trials: int,
    seed: int,
) -> list[dict]:
    """Check word identities (word, expected) on one draw of sample points.

    A check is the dict its payload holds: the model, n, `word`, trials,
    `max_error` over its trials, tolerance, `pass`, `resampled` (the
    sample points it redrew) and an empty `note`.

    The plan is made once per bundle (`_plan`), and each sample point
    walks every trail once (`_walk`).  A check reads only its two image
    slots: its error is the largest of their drifts and the relative
    errors between the images, since a word reaches its image through
    the steps of exactly its factors.  No error or drift is NaN, so the
    largest does not depend on the order it is taken in.  A check whose
    image slot is empty (its walk left the sampling safety zone near a
    pole or a branch point, or overflowed) redraws that point from its
    own seed sequence seed + 1, seed + 2, ..., walks it through the
    whole plan and counts it.  A slot depends only on the trails that
    lead to it, so the redrawn images are those the check's own words
    reach, and each report equals the one its check would get alone.
    """
    trails, size, pairs = _plan(model, checks)
    reports = [
        {"model": model.name, "n": model.n,
         "word": f"{_word_description(word)} = {_word_description(expected)}",
         "trials": trials, "max_error": 0.0, "tolerance": tolerance,
         "pass": False, "resampled": 0, "note": ""}
        for word, expected in checks
    ]
    for start in model.sample_points(trials, seed):
        state = _walk(model, trails, size, start)
        for report, (got, want) in zip(reports, pairs):
            image, expected = state[got], state[want]
            while image is None or expected is None:
                report["resampled"] += 1
                if report["resampled"] > 10 * trials:
                    raise SamplingError("too many trajectories hit the exclusion zone")
                [redrawn] = model.sample_points(1, seed + report["resampled"])
                walked = _walk(model, trails, size, redrawn)
                image, expected = walked[got], walked[want]
            (g0, g1), drift_got = image
            (w0, w1), drift_want = expected
            report["max_error"] = max(report["max_error"], drift_got, drift_want,
                                      abs(g0 - w0) / (1.0 + abs(w0)),
                                      abs(g1 - w1) / (1.0 + abs(w1)))
    for report in reports:
        report["pass"] = report["max_error"] < tolerance
    return reports


# -- claim bundles ------------------------------------------------------


def verify_dicyclic_relations(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> list[dict]:
    """The defining relations x^(2n) = 1, y^2 = x^n, y^-1 x y = x^-1,
    plus the definitional identities tying x to u on each model."""
    return _verify_bundle(model, _checks(model)[0], tolerance, trials, seed)


def verify_belyi(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> dict:
    """pi is invariant under the deck maps and sends the two fibres of
    marked points to 0 and 1."""
    if not model.hyperelliptic:
        raise ParameterError("the projection is defined on the hyperelliptic models")
    n = model.n
    points = model.sample_points(trials, seed)
    checks = {}
    try:
        base = [belyi_projection(n, p) for p in points]
        for name in ("x", "y", "xy"):
            checks[f"pi_invariant_under_{name}"] = max(
                abs(belyi_projection(n, model.maps[name](p)) - pi) / (1.0 + abs(pi))
                for p, pi in zip(points, base)
            )
    except (OverflowError, ZeroDivisionError):
        raise SamplingError(
            f"the projection overflows at a sample point for n={n}"
        ) from None
    # the fibre over 0 at the even powers of the root, over 1 at the odd
    checks["special_fibres"] = max(
        abs(belyi_projection(n, (root_of_unity(2 * n) ** k, 0j)) - k % 2)
        for k in range(2 * n)
    )
    max_error = max(checks.values())
    return {
        "model": model.name,
        "n": n,
        "checks": checks,
        "max_error": max_error,
        "tolerance": tolerance,
        "pass": max_error < tolerance,
    }


def verify_anticonformal(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> list[dict]:
    """tau^2 = 1 and the conjugation relations tau u tau = u^-1,
    tau y tau = y^-1 on the hyperelliptic models."""
    if not model.hyperelliptic:
        raise ParameterError("tau is defined on the hyperelliptic models only")
    return _verify_bundle(model, _checks(model)[1], tolerance, trials, seed)


def verify_model_words(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> tuple[list[dict], list[dict]]:
    """The reports of `verify_dicyclic_relations` and, on the hyperelliptic
    models, of `verify_anticonformal` (else []), from one bundle: the
    anticonformal words read u^-1 and y^-1 off the relations' u and y
    trajectories instead of walking them again."""
    relations, anticonformal = _checks(model)
    reports = _verify_bundle(
        model, relations + anticonformal, tolerance, trials, seed
    )
    return reports[:len(relations)], reports[len(relations):]
