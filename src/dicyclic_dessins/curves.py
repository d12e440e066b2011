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
and the sampler, the residual and the step loop all call it.  Every map
step first tests whether its point is in the exclusion zone: only a
point whose modulus is near 0 or 1 can be, and for such a point the
distance to the nearest branch point is found in O(1), on the
hyperelliptic models by rounding the argument (see `_branch_distance`).

A word applies a nonnegative exponent literally, so an order relation
such as x^(2n) = 1 takes its 2n steps; only a negative exponent is
rewritten modulo the map's order.  A claim bundle draws its points once
and walks them a block of BLOCK points at a time: each map step advances
a whole column of the block, and every word walked on the block shares
the power trajectory of each (map, start column) pair: x^(2n), x^n and
x^(2n-1) take one chain of 2n steps.  The report of a model walks its
relation and anticonformal words as one bundle, so u^-1 and y^-1 in the
anticonformal words read the relations' u and y chains.  A block's
trajectories are dropped before the next block starts.  A sample point
or a trajectory whose arithmetic overflows (or, in a map, divides by a
power that underflowed to zero) is resampled like one that enters the
exclusion zone around poles and branch points.

Reports are deterministic functions of (model, word, seed).
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import ParameterError, SamplingError

MODEL_NAMES = ("Sn_hyperelliptic", "Rn_hyperelliptic", "Sn_cyclic", "Rn_cyclic")

ADMISSION_TOLERANCE = 1e-12
BRANCH_DISTANCE = 1e-3
SHELL = 2 * BRANCH_DISTANCE

Point = tuple[complex, complex]


def root_of_unity(m: int) -> complex:
    return cmath.exp(2j * cmath.pi / m)


@dataclass(frozen=True)
class NamedMap:
    """A self-map of a model, as a coordinate formula.

    `anticonformal` marks maps that involve conjugation; words with an
    odd number of anticonformal factors are never compared against
    conformal ones.  `order` lets negative word exponents be rewritten
    as positive ones; a nonnegative exponent is applied step by step as
    written, so an order relation m^order = 1 takes `order` steps.
    """

    name: str
    func: Callable[[Point], Point]
    order: int
    anticonformal: bool = False

    def __call__(self, p: Point) -> Point:
        return self.func(p)


@dataclass
class CurveModel:
    """A named curve family at a fixed n, with its map dictionary.

    `perturb` shifts the primitive root used in the map formulas by a
    relative amount; it exists solely for the sensitivity control that
    shows the numeric checks would catch a wrong formula.
    """

    name: str
    n: int
    perturb: float = 0.0
    maps: dict[str, NamedMap] = field(init=False)
    sides: Callable[[complex, complex], tuple[complex, complex]] = field(
        init=False, repr=False, compare=False
    )
    branch_distance: Callable[[complex], float] = field(
        init=False, repr=False, compare=False
    )
    _samples: dict[tuple[int, int], list[Point]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.name not in MODEL_NAMES:
            raise ParameterError(f"unknown model {self.name!r}")
        if self.n < 2:
            raise ParameterError(f"need n >= 2, got n={self.n}")
        if self.name.startswith("Rn") and self.n % 2 == 0:
            raise ParameterError(f"{self.name} needs n odd")
        if self.name == "Sn_cyclic" and self.n % 2 == 1:
            # The y map sends the curve to itself only when n is even: its
            # image satisfies v^{2n} = (-1)^n rhs, so for odd n it lands
            # off the curve and no order-4 lift with these
            # coordinates exists in the stated form.
            raise ParameterError(f"{self.name} needs n even")
        self.sides = _relation_sides(self.name, self.n)
        self.maps = _build_maps(self)
        self.branch_distance = _branch_distance(
            self.branch_locus(), self.name.endswith("hyperelliptic")
        )

    # -- defining relation ---------------------------------------------

    def residual(self, p: Point) -> float:
        """|lhs - rhs| / (1 + |lhs| + |rhs|) of the defining relation."""
        lhs, rhs = self.sides(p[0], p[1])
        return abs(lhs - rhs) / (1.0 + (abs(lhs) + abs(rhs)))

    def on_curve(self, p: Point, tolerance: float = ADMISSION_TOLERANCE) -> bool:
        return self.residual(p) <= tolerance

    # -- sampling -------------------------------------------------------

    def branch_locus(self) -> list[complex]:
        """First-coordinate values to stay away from while sampling.

        Includes every branch value and every pole appearing in a map
        denominator (0, +-1, the relevant roots of unity).
        """
        n = self.n
        pts = [0j, 1 + 0j, -1 + 0j]
        if self.name.endswith("hyperelliptic"):
            pts += [root_of_unity(2 * n) ** k for k in range(2 * n)]
        return pts

    def lift(self, z: complex) -> Point:
        """Second coordinate from the defining relation, fixed branch."""
        _, rhs = self.sides(z, 0j)
        if self.name.endswith("hyperelliptic"):
            return (z, cmath.sqrt(rhs))
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
        points: list[Point] = []
        attempts = 0
        budget = 1000 * count
        while len(points) < count:
            attempts += 1
            if attempts > budget:
                raise SamplingError(
                    f"rejection sampling failed after {budget} attempts"
                )
            radius = rng.uniform(0.4, 1.8)
            angle = rng.uniform(0.0, 2 * cmath.pi)
            z = radius * cmath.exp(1j * angle)
            if self.branch_distance(z) < BRANCH_DISTANCE:
                continue
            try:
                p = self.lift(z)
                admitted = self.on_curve(p)
            except (OverflowError, ValueError):
                # a power of z overflowed, or the cyclic right-hand side
                # underflowed to 0 and has no logarithm: reject, as off
                # the curve
                continue
            if admitted:
                points.append(p)
        return points

    def perturbed(self, eps: float) -> "CurveModel":
        return CurveModel(self.name, self.n, perturb=eps)


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
    r2n = root_of_unity(2 * n) * (1 + model.perturb)
    r4n = root_of_unity(4 * n) * (1 + model.perturb)
    rn = root_of_unity(n) * (1 + model.perturb)
    maps: dict[str, NamedMap] = {}

    def add(name: str, func, order: int, anticonformal: bool = False) -> None:
        maps[name] = NamedMap(name, func, order, anticonformal)

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
        add("tau", lambda p: (p[0].conjugate(), p[1].conjugate()), 2, True)
    elif model.name == "Rn_hyperelliptic":
        add("u", lambda p: (r2n * p[0], p[1]), 2 * n)
        add("y", lambda p: (1 / p[0], 1j * p[1] / p[0] ** n), 4)
        add("x", lambda p: (rn * p[0], -p[1]), 2 * n)
        add("tau", lambda p: (p[0].conjugate(), p[1].conjugate()), 2, True)
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

    if model.name.endswith("hyperelliptic"):
        add("xy", lambda p: maps["x"](maps["y"](p)), 4)
    return maps


def belyi_projection(n: int, p: Point) -> complex:
    z = p[0]
    return -(z ** n + z ** (-n) - 2) / 4


# -- words --------------------------------------------------------------


Word = list[tuple[str, int]]


@dataclass
class WordReport:
    model: str
    n: int
    description: str
    trials: int
    max_error: float
    tolerance: float
    passed: bool
    resampled: int = 0
    note: str = ""

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
            "note": self.note,
        }


def _word_parity(model: CurveModel, word: Word) -> int:
    parity = 0
    for name, exponent in word:
        if model.maps[name].anticonformal:
            parity += abs(exponent)
    return parity % 2


# Start points a bundle walks together: each map step advances a column of
# at most BLOCK slots, and a block's trails are dropped before the next block
# starts, so the memory a bundle holds does not grow with its trials.
BLOCK = 10


def _factors(model: CurveModel, word: Word) -> Iterator[tuple]:
    """Yield (trail, step) for each factor of `word`, first applied first.

    A word applies its factors right to left (group notation); a
    nonnegative exponent takes its steps as written, a negative one is
    rewritten modulo the map's order.  A trail, (map name, node), is the
    power trajectory of a map from the column a node names: None for the
    start column, else the (trail, step) an earlier factor reached.  Words
    that apply one map to one column share its trail: x^(2n), x^n and
    x^(2n-1) read one chain of 2n steps.
    """
    node = None
    for name, exponent in reversed(word):
        order = model.maps[name].order
        node = ((name, node), exponent if exponent >= 0 else exponent % order)
        yield node


def _trail(model: CurveModel, name: str, start: list, reads: set) -> dict:
    """The step loop: walk the map `name` from every slot of `start`, one
    column per step, to the last step in `reads`; returns {step: (points,
    drifts)} for step 0 and the steps in `reads`.

    Column k holds the k-th image of each start point, and its drift
    column the worst residual of steps 1..k.  Each slot tests the
    exclusion zone before its step and the finiteness of its image after
    it; either failure, or an overflow or a division by an underflowed
    zero in the map or the residual, kills the slot: it holds None from
    that step on.  The other slots walk on, each applying the same
    expressions in the same order as it would alone.

    Every branch value is 0 or on the unit circle, so a z whose modulus
    lies SHELL or more from both 0 and 1 is outside the zone without
    asking `branch_distance`: |z - b| >= ||z| - |b||, and the factor two
    in SHELL covers the rounding of both moduli.
    """
    func = model.maps[name].func
    branch_distance = model.branch_distance
    sides = model.sides
    isfinite = cmath.isfinite
    column, drift = start, [0.0] * len(start)
    kept = {0: (column, drift)}
    for step in range(1, max(reads) + 1):
        last = column
        column, drift = [None] * len(last), drift[:]
        for s, p in enumerate(last):
            if p is None:
                continue
            z = p[0]
            modulus = abs(z)
            if ((modulus < SHELL or -SHELL < modulus - 1.0 < SHELL)
                    and branch_distance(z) < BRANCH_DISTANCE):
                continue
            try:
                p = func(p)
                z, w = p
                if isfinite(z) and isfinite(w):
                    lhs, rhs = sides(z, w)
                    r = abs(lhs - rhs) / (1.0 + (abs(lhs) + abs(rhs)))
                    if r > drift[s]:
                        drift[s] = r
                    column[s] = p
            except (OverflowError, ZeroDivisionError):
                pass
        if step in reads:
            kept[step] = (column, drift)
    return kept


def _images(
    model: CurveModel, reads: dict, walked: dict, words: list[Word], start: list
) -> Iterator[tuple]:
    """Each word applied to the column `start`: a tuple per slot of the
    image under each word and its worst residual on the way, the image
    None if the walk died.  A trail not yet in `walked` is walked to the
    steps `reads` lists for it."""
    images: list = []
    for word in words:
        column, worst = start, [0.0] * len(start)
        for trail, step in _factors(model, word):
            if trail not in walked:
                walked[trail] = _trail(model, trail[0], column, reads[trail])
            column, drift = walked[trail][step]
            worst = list(map(max, worst, drift))
        images += column, worst
    return zip(*images)


def _word_description(word: Word) -> str:
    if not word:
        return "1"
    return "*".join(
        name if exponent == 1 else f"{name}^{exponent}" for name, exponent in word
    )


Check = tuple[Word, Word | str]


def _verify_bundle(
    model: CurveModel,
    checks: list[Check],
    tolerance: float,
    trials: int,
    seed: int,
) -> list[WordReport]:
    """Check word identities (word, expected) on one draw of sample points.

    `expected` is another word, or "identity".  The points are walked a
    block of BLOCK at a time: every word and its expected word walk the
    whole block, and share one store of trails that is dropped before the
    next block starts.  A check whose walk at a slot leaves the sampling
    safety zone (hits a pole or a branch point) or overflows redraws that
    slot's point from its own seed sequence seed + 1, seed + 2, ... and
    counts it, so each report equals the one its check would get alone.
    """
    reports: list[WordReport] = []
    live: list[tuple[WordReport, Word, Word]] = []
    reads: dict = {}
    for word, expected in checks:
        for name, _ in word:
            if name not in model.maps:
                raise ParameterError(f"map {name!r} not defined on {model.name}")
        expected_word: Word = [] if expected == "identity" else list(expected)
        description = f"{_word_description(word)} = {_word_description(expected_word)}"
        if _word_parity(model, word) != _word_parity(model, expected_word):
            reports.append(WordReport(
                model.name, model.n, description, 0, float("inf"), tolerance, False,
                note="conformality mismatch: words differ in conjugation parity",
            ))
            continue
        report = WordReport(
            model.name, model.n, description, trials, 0.0, tolerance, False
        )
        reports.append(report)
        live.append((report, word, expected_word))
        for trail, step in [*_factors(model, word), *_factors(model, expected_word)]:
            reads.setdefault(trail, set()).add(step)
    if not live:
        return reports
    starts = model.sample_points(trials, seed)
    for first in range(0, trials, BLOCK):
        block = starts[first:first + BLOCK]
        walked: dict = {}
        for report, *words in live:
            for g, dg, w, dw in _images(model, reads, walked, words, block):
                while g is None or w is None:
                    report.resampled += 1
                    if report.resampled > 10 * trials:
                        raise SamplingError(
                            "too many trajectories hit the exclusion zone"
                        )
                    start = model.sample_points(1, seed + report.resampled)
                    [(g, dg, w, dw)] = _images(model, reads, {}, words, start)
                err = max(
                    abs(g[0] - w[0]) / (1.0 + abs(w[0])),
                    abs(g[1] - w[1]) / (1.0 + abs(w[1])),
                    dg,
                    dw,
                )
                report.max_error = max(report.max_error, err)
    for report, _, _ in live:
        report.passed = report.max_error < tolerance
    return reports


def verify_word(
    model: CurveModel,
    word: Word,
    expected: Word | str,
    tolerance: float = 1e-9,
    trials: int = 100,
    seed: int = 0,
) -> WordReport:
    """Check one word identity numerically on sampled points; see
    `_verify_bundle`."""
    return _verify_bundle(model, [(word, expected)], tolerance, trials, seed)[0]


# -- claim bundles ------------------------------------------------------


def _checks(model: CurveModel) -> tuple[list[Check], list[Check]]:
    """The relation checks and, on the hyperelliptic models, the
    anticonformal ones."""
    n = model.n
    relations: list[Check] = [
        ([("x", 2 * n)], "identity"),
        ([("y", 2)], [("x", n)]),
        ([("y", -1), ("x", 1), ("y", 1)], [("x", -1)]),
    ]
    if model.name == "Sn_hyperelliptic":
        relations += [
            ([("u", 2)], [("x", 1)]),
            ([("u", 4 * n)], "identity"),
            ([("y", 4)], "identity"),
            # u y^-1 = y u^-1
            ([("u", 1), ("y", -1)], [("y", 1), ("u", -1)]),
        ]
        if n == 2:
            relations.append(([("t", 3)], "identity"))
    elif model.name == "Rn_hyperelliptic":
        relations += [
            ([("y", 2), ("u", 2)], [("x", 1)]),
            ([("u", 2 * n)], "identity"),
            ([("y", 4)], "identity"),
        ]
    if "tau" not in model.maps:
        return relations, []
    return relations, [
        ([("tau", 2)], "identity"),
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
    if not model.name.endswith("hyperelliptic"):
        raise ParameterError("the projection is defined on the hyperelliptic models")
    n = model.n
    points = model.sample_points(trials, seed)
    base = [belyi_projection(n, p) for p in points]
    checks: dict[str, float] = {}
    for name in ("x", "y", "xy"):
        m = model.maps[name]
        checks[f"pi_invariant_under_{name}"] = max(
            abs(belyi_projection(n, m(p)) - pi) / (1.0 + abs(pi))
            for p, pi in zip(points, base)
        )
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
    if "tau" not in model.maps:
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
    """Model names whose printed formulas apply at this n.

    The R-family needs n odd by construction; the singular cyclic model
    of the S-family needs n even (see the constructor note on the parity
    of its y formula).
    """
    if n % 2 == 1:
        return ["Sn_hyperelliptic", "Rn_hyperelliptic", "Rn_cyclic"]
    return ["Sn_hyperelliptic", "Sn_cyclic"]
