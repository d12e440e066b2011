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
and walks every word at one point before moving to the next, sharing the
power trajectory of each (map, start point) pair between words: x^(2n),
x^n and x^(2n-1) take one chain of 2n steps.  A sample point or a
trajectory whose arithmetic overflows (or, in a map, divides by a power
that underflowed to zero) is resampled like one that enters the
exclusion zone around poles and branch points.

Reports are deterministic functions of (model, word, seed).
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field
from typing import Callable

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


class _NearPole(Exception):
    """A trajectory entered the sampling exclusion zone, or its arithmetic
    overflowed; resample."""


def _apply_word(
    model: CurveModel, word: Word, p: Point, memo: dict
) -> tuple[Point, float]:
    """Apply a word right to left (group notation) and track curve drift.

    Returns the final point together with the worst relative residual of
    any intermediate point; drifting off the curve is an error the
    caller reports, while landing in the exclusion zone around poles and
    branch points aborts the trajectory for resampling.  A factor m^k
    reads the first k steps of the trajectory of m from its start point
    out of `memo`, keyed by (map name, start point), and extends it when
    it is shorter: words walked from the same point share their steps.
    """
    worst = 0.0
    for name, exponent in reversed(word):
        m = model.maps[name]
        steps = exponent if exponent >= 0 else exponent % m.order
        trail = memo.get((name, p))
        if trail is None:
            trail = memo[name, p] = ([p], [0.0])
        points, drifts = trail
        if steps >= len(points):
            _extend_trajectory(model, m.func, points, drifts, steps)
        p = points[steps]
        if drifts[steps] > worst:
            worst = drifts[steps]
    return p, worst


def _extend_trajectory(
    model: CurveModel,
    func: Callable[[Point], Point],
    points: list[Point],
    drifts: list[float],
    steps: int,
) -> None:
    """The step loop: extend a power trajectory of `func` to `steps` steps.

    points[k] is func^k(points[0]) and drifts[k] the worst residual of
    points[1..k].  Each step tests the exclusion zone before it and the
    finiteness of its image after it; either failure, or an overflow or
    a division by an underflowed zero in the map or the residual, raises
    `_NearPole` and leaves the trajectory as long as it got, so a retry
    fails at the same step.

    Every branch value is 0 or on the unit circle, so a z whose modulus
    lies SHELL or more from both 0 and 1 is outside the zone without
    asking `branch_distance`: |z - b| >= ||z| - |b||, and the factor two
    in SHELL covers the rounding of both moduli.
    """
    branch_distance = model.branch_distance
    sides = model.sides
    isfinite = cmath.isfinite
    p = points[-1]
    worst = drifts[-1]
    try:
        for _ in range(steps + 1 - len(points)):
            z = p[0]
            modulus = abs(z)
            if ((modulus < SHELL or -SHELL < modulus - 1.0 < SHELL)
                    and branch_distance(z) < BRANCH_DISTANCE):
                raise _NearPole
            p = func(p)
            z, w = p
            if not (isfinite(z) and isfinite(w)):
                raise _NearPole
            lhs, rhs = sides(z, w)
            r = abs(lhs - rhs) / (1.0 + (abs(lhs) + abs(rhs)))
            if r > worst:
                worst = r
            points.append(p)
            drifts.append(worst)
    except (OverflowError, ZeroDivisionError):
        raise _NearPole from None


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

    `expected` is another word, or "identity".  The loop over sample
    indices is the outer one: at each point every word and its expected
    word are walked with one memo of power trajectories, dropped before
    the next point.  A check whose trajectory leaves the sampling safety
    zone (hits a pole or a branch point) or overflows redraws its point
    from its own seed sequence seed + 1, seed + 2, ... and counts it, so
    each report equals the one its check would get alone.
    """
    reports: list[WordReport] = []
    live: list[tuple[WordReport, Word, Word]] = []
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
    if not live:
        return reports
    for start in model.sample_points(trials, seed):
        memo: dict = {}
        for report, word, expected_word in live:
            p = start
            while True:
                try:
                    got, drift_got = _apply_word(model, word, p, memo)
                    want, drift_want = _apply_word(model, expected_word, p, memo)
                    break
                except _NearPole:
                    report.resampled += 1
                    if report.resampled > 10 * trials:
                        raise SamplingError(
                            "too many trajectories hit the exclusion zone"
                        )
                    p = model.sample_points(1, seed + report.resampled)[0]
            err = max(
                abs(got[0] - want[0]) / (1.0 + abs(want[0])),
                abs(got[1] - want[1]) / (1.0 + abs(want[1])),
                drift_got,
                drift_want,
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


def verify_dicyclic_relations(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> list[WordReport]:
    """The defining relations x^(2n) = 1, y^2 = x^n, y^-1 x y = x^-1,
    plus the definitional identities tying x to u on each model."""
    n = model.n
    checks: list[Check] = [
        ([("x", 2 * n)], "identity"),
        ([("y", 2)], [("x", n)]),
        ([("y", -1), ("x", 1), ("y", 1)], [("x", -1)]),
    ]
    if model.name == "Sn_hyperelliptic":
        checks += [
            ([("u", 2)], [("x", 1)]),
            ([("u", 4 * n)], "identity"),
            ([("y", 4)], "identity"),
            # u y^-1 = y u^-1
            ([("u", 1), ("y", -1)], [("y", 1), ("u", -1)]),
        ]
        if n == 2:
            checks.append(([("t", 3)], "identity"))
    elif model.name == "Rn_hyperelliptic":
        checks += [
            ([("y", 2), ("u", 2)], [("x", 1)]),
            ([("u", 2 * n)], "identity"),
            ([("y", 4)], "identity"),
        ]
    return _verify_bundle(model, checks, tolerance, trials, seed)


def verify_belyi(
    model: CurveModel, tolerance: float = 1e-9, trials: int = 100, seed: int = 0
) -> dict:
    """pi is invariant under the deck maps and sends the two fibres of
    marked points to 0 and 1."""
    if not model.name.endswith("hyperelliptic"):
        raise ParameterError("the projection is defined on the hyperelliptic models")
    n = model.n
    points = model.sample_points(trials, seed)
    checks: dict[str, float] = {}
    for name in ("x", "y", "xy"):
        m = model.maps[name]
        err = max(
            abs(belyi_projection(n, m(p)) - belyi_projection(n, p))
            / (1.0 + abs(belyi_projection(n, p)))
            for p in points
        )
        checks[f"pi_invariant_under_{name}"] = err
    for k in range(2 * n):
        z = root_of_unity(2 * n) ** k
        value = belyi_projection(n, (z, 0j))
        target = 0.0 if (k % 2 == 0) else 1.0
        checks.setdefault("special_fibres", 0.0)
        checks["special_fibres"] = max(
            checks["special_fibres"], abs(value - target)
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
    checks: list[Check] = [
        ([("tau", 2)], "identity"),
        ([("tau", 1), ("u", 1), ("tau", 1)], [("u", -1)]),
        ([("tau", 1), ("y", 1), ("tau", 1)], [("y", -1)]),
    ]
    return _verify_bundle(model, checks, tolerance, trials, seed)


def applicable_models(n: int) -> list[str]:
    """Model names whose printed formulas apply at this n.

    The R-family needs n odd by construction; the singular cyclic model
    of the S-family needs n even (see the constructor note on the parity
    of its y formula).
    """
    if n % 2 == 1:
        return ["Sn_hyperelliptic", "Rn_hyperelliptic", "Rn_cyclic"]
    return ["Sn_hyperelliptic", "Sn_cyclic"]
