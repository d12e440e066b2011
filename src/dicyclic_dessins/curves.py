"""Numeric verification of the explicit curve families and their self-maps.

Four models are supported: the two hyperelliptic families

    Sn_hyperelliptic:  w^2 = z (z^(2n) - 1)          (genus n)
    Rn_hyperelliptic:  w^2 = z^(2n) - 1              (n odd, genus n-1)

and their singular cyclic-cover models

    Sn_cyclic:  v^(2n) = u^n (u-1)   (u+1)^(2n-1)
    Rn_cyclic:  v^(2n) = u^n (u-1)^2 (u+1)^(2n-2)

with the named self-maps u, y, x, t (n = 2 only), the anticonformal
conjugation tau, and the degree-|G| projection pi.  All checks are
numeric: words in the maps are applied to pseudo-random points sampled
on the curve and compared within a tolerance, with every intermediate
point required to stay on the curve.  Residuals are relative
(|lhs - rhs| / (1 + |lhs| + |rhs|)) so that the large right-hand sides
of the cyclic models do not drown the signal.

Each model picks its relation-sides function once, at construction,
and the sampler, the residual and the step loop all call it.  The
sampler and every map step first test whether a point is in the
exclusion zone: only a point whose modulus is near 0 or 1 can be, and
for such a point the distance to the nearest branch point is found in
O(1), on the hyperelliptic models by rounding the argument (see
`_branch_distance`).

A word applies a nonnegative exponent literally, so an order relation
such as x^(2n) = 1 takes its 2n steps; only a negative exponent is
rewritten modulo the map's order.  A claim bundle makes its plan once
(the factors of each word, and the steps each power trajectory is read
at), draws its points once and walks them a block of BLOCK points at a
time.  Every word walked on the block shares the power trajectory of
each (map, start column) pair: x^(2n), x^n and x^(2n-1) take one chain
of 2n steps, which each start point of the block walks in turn with its
point and drift held in locals.  Each check then folds the errors and
drifts of the whole block into its largest error in one pass.  The
report of a model walks its relation and anticonformal words as one
bundle, so u^-1 and y^-1 in the anticonformal words read the relations'
u and y chains.  A block's trajectories are dropped before the next
block starts.  A sample point or a trajectory whose arithmetic
overflows (or, in a map, divides by a power that underflowed to zero)
is resampled like one that enters the exclusion zone around poles and
branch points.

Reports are deterministic functions of (model, word, seed).
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Callable

from .errors import ParameterError, SamplingError

MODEL_NAMES = ("Sn_hyperelliptic", "Rn_hyperelliptic", "Sn_cyclic", "Rn_cyclic")

ADMISSION_TOLERANCE = 1e-12
BRANCH_DISTANCE = 1e-3
SHELL = 2 * BRANCH_DISTANCE

Point = tuple[complex, complex]


def root_of_unity(m: int) -> complex:
    return cmath.exp(2j * cmath.pi / m)


class NamedMap:
    """A self-map of a model, as a coordinate formula.

    `order` lets negative word exponents be rewritten as positive ones;
    a nonnegative exponent is applied step by step as written, so an
    order relation m^order = 1 takes `order` steps.
    """

    __slots__ = ("func", "order")

    def __init__(self, func: Callable[[Point], Point], order: int):
        self.func, self.order = func, order

    def __call__(self, p: Point) -> Point:
        return self.func(p)


class CurveModel:
    """A named curve family at a fixed n, with its map dictionary.

    `perturb` shifts the primitive root used in the map formulas by a
    relative amount; it exists solely for the sensitivity control that
    shows the numeric checks would catch a wrong formula.
    `hyperelliptic` is the one record of the model's family (the
    hyperelliptic models carry the ring of branch points, tau and pi).
    `sides` and `branch_distance` are the functions picked for the
    model, and `_samples` keeps the points drawn per (count, seed).
    """

    __slots__ = ("name", "n", "perturb", "hyperelliptic", "maps", "sides",
                 "branch_distance", "_samples")

    # The parity of n (1 odd, 0 even) a model needs, if any.  The R-family
    # is built for odd n.  The y map of Sn_cyclic sends the curve to itself
    # only when n is even: its image satisfies v^{2n} = (-1)^n rhs, so for
    # odd n it lands off the curve and no order-4 lift with these
    # coordinates exists in the stated form.
    PARITY = {"Rn_hyperelliptic": 1, "Sn_cyclic": 0, "Rn_cyclic": 1}

    def __init__(self, name: str, n: int, perturb: float = 0.0):
        if name not in MODEL_NAMES:
            raise ParameterError(f"unknown model {name!r}")
        if n < 2:
            raise ParameterError(f"need n >= 2, got n={n}")
        if name not in applicable_models(n):
            raise ParameterError(f"{name} needs n {('even', 'odd')[self.PARITY[name]]}")
        self.name, self.n, self.perturb = name, n, perturb
        self.hyperelliptic = name.endswith("hyperelliptic")
        self._samples = {}
        self.sides = _relation_sides(name, n)
        self.maps = _build_maps(self)
        self.branch_distance = _branch_distance(self.branch_locus(), self.hyperelliptic)

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
            # the pre-test of `_trail`; a radius of at least 0.4 is not near 0
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


def _branch_distance(
    locus: list[complex], ring: bool
) -> Callable[[complex], float]:
    """Distance from z to the nearest point of `locus`, in O(1).

    `locus` is `branch_locus()`: 0, +1, -1 and, when `ring` is set, the
    2n-th roots of unity with locus[3 + k] = zeta^k.  The root nearest to
    z is the one nearest in argument, k = round(phase(z) 2n / 2pi) mod 2n;
    its neighbours k - 1 and k + 1 cover halfway angles and the rounding
    of the phase, and +-1 are read explicitly because zeta^n is -1 only up
    to rounding.  This subset holds the argmin of the full scan, so the
    result is the same float as min(abs(z - b) for b in locus).
    """
    zero, one, minus_one = locus[:3]
    if not ring:
        return lambda z: min(abs(z - zero), abs(z - one), abs(z - minus_one))
    roots = locus[3:]
    two_n = len(roots)
    n = two_n // 2
    # windows[k + n] for k = round(...) in [-n, n], phase(z) being in [-pi, pi]
    windows = [
        (roots[(k - 1) % two_n], roots[k % two_n], roots[(k + 1) % two_n])
        for k in range(-n, n + 1)
    ]
    scale = n / cmath.pi
    phase = cmath.phase

    def distance(z: complex) -> float:
        a, b, c = windows[round(phase(z) * scale) + n]
        return min(abs(z - zero), abs(z - one), abs(z - minus_one),
                   abs(z - a), abs(z - b), abs(z - c))

    return distance


def _build_maps(model: CurveModel) -> dict[str, NamedMap]:
    n = model.n
    r2n, r4n, rn = (root_of_unity(m) * (1 + model.perturb) for m in (2 * n, 4 * n, n))
    maps = {}

    def add(name: str, func, order: int) -> None:
        maps[name] = NamedMap(func, order)

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
    return maps


def belyi_projection(n: int, p: Point) -> complex:
    z = p[0]
    return -(z ** n + z ** (-n) - 2) / 4


# -- words --------------------------------------------------------------


Word = list[tuple[str, int]]


class WordReport:
    """The check of one word identity on a model: the largest error seen
    over its trials, and how many sample points it resampled."""

    __slots__ = ("model", "n", "description", "trials", "max_error",
                 "tolerance", "passed", "resampled")

    def __init__(self, model: str, n: int, description: str, trials: int,
                 max_error: float, tolerance: float, passed: bool,
                 resampled: int = 0):
        self.model, self.n, self.description = model, n, description
        self.trials, self.max_error, self.tolerance = trials, max_error, tolerance
        self.passed, self.resampled = passed, resampled

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "n": self.n,
            "word": self.description,
            "trials": self.trials,
            "max_error": self.max_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "resampled": self.resampled,
            "note": "",
        }


# Start points a bundle walks together: a block's trails hold columns of at
# most BLOCK slots and are dropped before the next block starts, so the
# memory a bundle holds does not grow with its trials.
BLOCK = 10


def _trail(model: CurveModel, name: str, start: list, reads: set) -> dict:
    """The step loop: walk the map `name` from every slot of `start` to
    the last step in `reads`; returns {step: (points, drifts)} for the
    steps in `reads`.

    Column k holds the k-th image of each start point, and its drift
    column the worst residual of steps 1..k.  Each start point walks the
    whole trail in turn, its point and worst residual held in locals, and
    is written into the columns of the steps in `reads` as it passes
    them.  It tests the exclusion zone before each step and the
    finiteness of its image after it; either failure, or an overflow or a
    division by an underflowed zero in the map or the residual, ends its
    walk, and its slot holds None in the columns it did not reach.  Every
    point applies the same expressions in the same order as it would
    alone.

    Every branch value is 0 or on the unit circle, so a z whose modulus
    lies SHELL or more from both 0 and 1 is outside the zone without
    asking `branch_distance`: |z - b| >= ||z| - |b||, and the factor two
    in SHELL covers the rounding of both moduli.
    """
    func = model.maps[name].func
    sides = model.sides
    isfinite = cmath.isfinite
    kept = {}
    schedule = [None] * max(reads)  # the columns written after each step
    for step in reads:
        kept[step] = schedule[step - 1] = [None] * len(start), [0.0] * len(start)
    for s, p in enumerate(start):
        if p is None:
            continue
        z, drift = p[0], 0.0
        try:
            for read in schedule:
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
                if read:
                    read[0][s], read[1][s] = p, drift
        except (OverflowError, ZeroDivisionError):
            pass
    return kept


def _walk(model: CurveModel, reads: dict, block: list, plans: list) -> list:
    """Walk the trails of `reads`, each listed after the trail its node
    names, from the column `block` to the steps they are read at, and
    read the columns of each check's plan off them: the image column of
    each of its words, then the drift column of each of its factors."""
    walked = {(None, 0): (block, None)}
    for trail in reads:
        kept = _trail(model, trail[0], walked[trail[1]][0], reads[trail])
        walked.update(((trail, step), columns) for step, columns in kept.items())
    return [[walked[node][0] for node in images] + [walked[f][1] for f in factors]
            for images, factors in plans]


def _word_description(word: Word) -> str:
    return "*".join(
        name if exponent == 1 else f"{name}^{exponent}" for name, exponent in word
    ) or "1"


Check = tuple[Word, Word]


def _verify_bundle(
    model: CurveModel,
    checks: list[Check],
    tolerance: float,
    trials: int,
    seed: int,
) -> list[WordReport]:
    """Check word identities (word, expected) on one draw of sample points.

    The plan is made once per bundle.  A word applies its factors right
    to left (group notation); a nonnegative exponent takes its steps as
    written, a negative one is rewritten modulo the map's order.  A
    trail, (map name, node), is the power trajectory of a map from the
    column a node names: (None, 0) for the start column, else the
    (trail, step) an earlier factor reached.  Words that apply one map to
    one column share its trail: x^(2n), x^n and x^(2n-1) read one chain
    of 2n steps.  Each check's plan keeps the nodes of its two images and
    its factors; `reads` keeps the steps each trail is read at, with the
    trails in the order their nodes need.

    The points are walked a block of BLOCK at a time: each trail walks
    the whole block once, and each check reads its columns off the
    block's trails and folds its errors and drifts into its largest
    error in one pass.  No error or drift is NaN, so their largest does
    not depend on the order of the fold.  A check whose walk at a slot
    leaves the sampling safety zone (hits a pole or a branch point) or
    overflows redraws that slot's point from its own seed sequence
    seed + 1, seed + 2, ..., walks it through its own trails and counts
    it, so each report equals the one its check would get alone.
    """
    reports, plans, reads = [], [], {}
    for word, expected in checks:
        description = f"{_word_description(word)} = {_word_description(expected)}"
        reports.append(WordReport(
            model.name, model.n, description, trials, 0.0, tolerance, False
        ))
        images, factors = [], []
        for w in word, expected:
            node = (None, 0)
            for name, exponent in reversed(w):
                node = ((name, node), exponent if exponent >= 0
                        else exponent % model.maps[name].order)
                reads.setdefault(node[0], set()).add(node[1])
                factors.append(node)
            images.append(node)
        plans.append((images, factors))
    starts = model.sample_points(trials, seed)
    for first in range(0, trials, BLOCK):
        block = starts[first:first + BLOCK]
        walked = _walk(model, reads, block, plans)
        for report, plan, columns in zip(reports, plans, walked):
            got, want, *drifts = columns
            if None in got or None in want:
                columns = got, want, *drifts = [list(c) for c in columns]
                for s in range(len(block)):
                    while got[s] is None or want[s] is None:
                        report.resampled += 1
                        if report.resampled > 10 * trials:
                            raise SamplingError(
                                "too many trajectories hit the exclusion zone"
                            )
                        start = model.sample_points(1, seed + report.resampled)
                        own = {trail: reads[trail] for trail, _ in plan[1]}
                        [redrawn] = _walk(model, own, start, [plan])
                        for column, (value,) in zip(columns, redrawn):
                            column[s] = value
            worst = max(report.max_error, *map(max, drifts))
            for (g0, g1), (w0, w1) in zip(got, want):
                error = abs(g0 - w0) / (1.0 + abs(w0))
                if error > worst:
                    worst = error
                error = abs(g1 - w1) / (1.0 + abs(w1))
                if error > worst:
                    worst = error
            report.max_error, report.passed = worst, worst < tolerance
    return reports


# -- claim bundles ------------------------------------------------------


def _checks(model: CurveModel) -> tuple[list[Check], list[Check]]:
    """The relation checks and, on the hyperelliptic models, the
    anticonformal ones."""
    n = model.n
    relations: list[Check] = [
        ([("x", 2 * n)], []),
        ([("y", 2)], [("x", n)]),
        ([("y", -1), ("x", 1), ("y", 1)], [("x", -1)]),
    ]
    if model.name == "Sn_hyperelliptic":
        relations += [
            ([("u", 2)], [("x", 1)]),
            ([("u", 4 * n)], []),
            ([("y", 4)], []),
            # u y^-1 = y u^-1
            ([("u", 1), ("y", -1)], [("y", 1), ("u", -1)]),
        ]
        if n == 2:
            relations.append(([("t", 3)], []))
    elif model.name == "Rn_hyperelliptic":
        relations += [
            ([("y", 2), ("u", 2)], [("x", 1)]),
            ([("u", 2 * n)], []),
            ([("y", 4)], []),
        ]
    if not model.hyperelliptic:
        return relations, []
    return relations, [
        ([("tau", 2)], []),
        ([("tau", 1), ("u", 1), ("tau", 1)], [("u", -1)]),
        ([("tau", 1), ("y", 1), ("tau", 1)], [("y", -1)]),
    ]


def verify_dicyclic_relations(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> list[WordReport]:
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
) -> list[WordReport]:
    """tau^2 = 1 and the conjugation relations tau u tau = u^-1,
    tau y tau = y^-1 on the hyperelliptic models."""
    if not model.hyperelliptic:
        raise ParameterError("tau is defined on the hyperelliptic models only")
    return _verify_bundle(model, _checks(model)[1], tolerance, trials, seed)


def verify_model_words(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> tuple[list[WordReport], list[WordReport]]:
    """The reports of `verify_dicyclic_relations` and, on the hyperelliptic
    models, of `verify_anticonformal` (else []), from one bundle: the
    anticonformal words read u^-1 and y^-1 off the relations' u and y
    trajectories instead of walking them again."""
    relations, anticonformal = _checks(model)
    reports = _verify_bundle(
        model, relations + anticonformal, tolerance, trials, seed
    )
    return reports[:len(relations)], reports[len(relations):]


def applicable_models(n: int) -> list[str]:
    """Model names whose printed formulas apply at this n, in
    `MODEL_NAMES` order: those whose `CurveModel.PARITY` n has."""
    return [name for name in MODEL_NAMES if CurveModel.PARITY.get(name, n % 2) == n % 2]
