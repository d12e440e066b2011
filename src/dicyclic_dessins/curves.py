"""Exact verification of the explicit curve families and their self-maps.

Four models are supported: the two hyperelliptic families

    Sn_hyperelliptic:  w^2 = z (z^(2n) - 1)          (genus n)
    Rn_hyperelliptic:  w^2 = z^(2n) - 1              (n odd, genus n-1)

and their singular cyclic-cover models

    Sn_cyclic:  v^(2n) = u^n (u-1)   (u+1)^(2n-1)
    Rn_cyclic:  v^(2n) = u^n (u-1)^2 (u+1)^(2n-2)

with the named self-maps u, y, x, t (n = 2 only), the anticonformal
conjugation tau, and the degree-|G| projection pi.

Every map sends z to c z, c / z or conj(z), except t, a Moebius map that
permutes 0, infinity, +-1 and +-i.  So each coordinate of each map, and
of each word in the maps, is a monomial

    zeta^k sqrt(2)^j z^e0 (z-1)^e1 (z+1)^e2 (z-i)^e3 (z+i)^e4 B^e5 w^f

with zeta = zeta_4n and B = z^(2n) - 1, held as the integer vector
(k, j, e0, ..., e5, f).  The factors z -+ i and sqrt(2) serve t alone: on
Sn_hyperelliptic at n = 2 the equation splits B into (z-1)(z+1)(z-i)(z+i).
A vector is reduced: k is taken mod 4n, and w^f is brought to
0 <= f < d by the curve equation w^d = R(z), so two monomials are equal
on the curve exactly when their reduced vectors are.

A map is the triple (anti, z, w) of its coordinates and whether it is
anticonformal, whose coordinates are the complex conjugates of the
monomials held; conjugation sends k to -k and z -+ i to z +- i.  To
compose, a map is read as its table: the monomial that each basis
factor and w pull back to under it (None where that is no monomial of
the basis).  Tables compose by pulling back, a power takes O(log e)
compositions by repeated squaring, and a negative exponent is taken
modulo the map's order.

A word check holds when both words reduce to the same coordinates and
every map in them keeps the curve: (w o m)^d = R o m.  The Belyi check
pulls -4 pi = z^n - 2 + z^-n back as a Laurent polynomial, and reads
the special fibres at z = zeta_2n^k, where z^n = (-1)^k.
"""

from __future__ import annotations

from .errors import ParameterError

MODEL_NAMES = ("Sn_hyperelliptic", "Rn_hyperelliptic", "Sn_cyclic", "Rn_cyclic")

# the slots of a monomial vector: zeta^k, sqrt(2)^j, the basis factors z,
# z - 1, z + 1, z - i, z + i and B, and w
K, J, Z, M1, P1, MI, PI, B, W = range(9)
UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # 1, i, -1, -i: the Gaussian units
# the root of each linear basis factor at n = 2, as a Gaussian integer
GAUSSIAN_ROOTS = {Z: (0, 0), M1: (1, 0), P1: (-1, 0), MI: (0, 1), PI: (0, -1)}


def monomial(k=0, j=0, z=0, zm1=0, zp1=0, zmi=0, zpi=0, b=0, w=0) -> tuple[int, ...]:
    return (k, j, z, zm1, zp1, zmi, zpi, b, w)


IDENTITY = (False, tuple(tuple(int(i == slot) for i in range(W + 1))
                         for slot in range(Z, W + 1)))


class CurveModel:
    """A named curve family at a fixed n: its equation w^d = R(z), as the
    `degree` d and the vector `equation` of R, and its maps: `maps` sends
    each name to its (anti, z, w) and `orders` to its order.

    `hyperelliptic` is the one record of the model's family (the
    hyperelliptic models carry tau and pi), and `_powers` keeps the
    table of each power of a map that a check has composed.
    """

    __slots__ = ("name", "n", "hyperelliptic", "degree", "equation", "maps", "orders",
                 "_powers")

    # The parity of n (1 odd, 0 even) a model needs, if any.  The R-family
    # is built for odd n.  The y map of Sn_cyclic sends the curve to itself
    # only when n is even: its image satisfies v^{2n} = (-1)^n rhs, so for
    # odd n it lands off the curve and no order-4 lift with these
    # coordinates exists in the stated form.
    PARITY = {"Rn_hyperelliptic": 1, "Sn_cyclic": 0, "Rn_cyclic": 1}

    def __init__(self, name: str, n: int):
        if name not in MODEL_NAMES:
            raise ParameterError(f"unknown model {name!r}")
        if n < 2:
            raise ParameterError(f"need n >= 2, got n={n}")
        if name not in applicable_models(n):
            raise ParameterError(f"{name} needs n {('even', 'odd')[self.PARITY[name]]}")
        self.name, self.n = name, n
        self.hyperelliptic = name.endswith("hyperelliptic")
        self.degree = 2 if self.hyperelliptic else 2 * n
        self.equation = {
            "Sn_hyperelliptic": monomial(z=1, b=1) if n > 2
            else monomial(z=1, zm1=1, zp1=1, zmi=1, zpi=1),
            "Rn_hyperelliptic": monomial(b=1),
            "Sn_cyclic": monomial(z=n, zm1=1, zp1=2 * n - 1),
            "Rn_cyclic": monomial(z=n, zm1=2, zp1=2 * n - 2),
        }[name]
        self.maps, self.orders = _build_maps(self)
        self._powers = {}

    def sample_points(self, count: int, seed: int) -> list:
        """No points: every check is exact.  `bench/tracer.py` counts what
        this returns as `curves.points_sampled`, so the name stays, never
        called, for as long as the tracer wraps it."""
        return []


def _build_maps(model: CurveModel) -> tuple[dict[str, tuple], dict[str, int]]:
    """Each self-map's (anti, z, w) and its order, by name; k counts
    powers of zeta_4n, so zeta_2n is k = 2, zeta_n k = 4 and i k = n."""
    n = model.n
    maps, orders = {}, {}

    def add(name: str, z: tuple, w: tuple, order: int, anti: bool = False) -> None:
        maps[name], orders[name] = (anti, z, w), order

    if model.name == "Sn_hyperelliptic":
        add("u", monomial(2, z=1), monomial(1, w=1), 4 * n)  # (zeta_2n z, zeta_4n w)
        add("y", monomial(z=-1), monomial(n, z=-n - 1, w=1), 4)  # (1/z, i w / z^(n+1))
        add("x", monomial(4, z=1), monomial(2, w=1), 2 * n)  # (zeta_n z, zeta_2n w)
        if n == 2:
            # (i (1-z)/(1+z), 2 (1+i) w / (z+1)^3): -i = zeta_8^6, 2 (1+i) = zeta_8 sqrt(2)^3
            add("t", monomial(6, zm1=1, zp1=-1), monomial(1, 3, zp1=-3, w=1), 3)
    elif model.name == "Rn_hyperelliptic":
        add("u", monomial(2, z=1), monomial(w=1), 2 * n)  # (zeta_2n z, w)
        add("y", monomial(z=-1), monomial(n, z=-n, w=1), 4)  # (1/z, i w / z^n)
        add("x", monomial(4, z=1), monomial(2 * n, w=1), 2 * n)  # (zeta_n z, -w)
    else:
        add("x", monomial(z=1), monomial(2, w=1), 2 * n)  # (z, zeta_2n w)
        # (-z, c z (z^2 - 1) / w), c = 1 (S) or zeta_4n (R); on the curve
        # w^(2n) = z^n (z-1) (z+1)^(2n-1) the S-map's second coordinate is
        # the printed w^(2n-1) / (z^(n-1) (z+1)^(2n-2))
        add("y", monomial(2 * n, z=1),
            monomial(int(model.name == "Rn_cyclic"), z=1, zm1=1, zp1=1, w=-1), 4)
    if model.hyperelliptic:
        add("tau", monomial(z=1), monomial(w=1), 2, anti=True)  # (conj z, conj w)
    return maps, orders


# -- monomial arithmetic -------------------------------------------------


def _reduce(model: CurveModel, v: list[int]) -> tuple[int, ...]:
    """v with w^f brought to 0 <= f < d by the equation and k mod 4n."""
    q, v[W] = divmod(v[W], model.degree)
    if q:
        for i, e in enumerate(model.equation[:W]):
            v[i] += q * e
    v[K] %= 4 * model.n
    return tuple(v)


def _pull(model: CurveModel, v: tuple[int, ...], table: tuple) -> tuple[int, ...] | None:
    """The monomial v o m, reduced, of the map m with this table, or
    None if v has a factor that m sends outside the basis."""
    anti, images = table
    out = [-v[K] if anti else v[K], v[J], 0, 0, 0, 0, 0, 0, 0]
    for e, image in zip(v[Z:], images):
        if e:
            if image is None:
                return None
            for i, x in enumerate(image):
                out[i] += e * x
    return _reduce(model, out)


def _compose(model: CurveModel, first: tuple, then: tuple) -> tuple:
    """The table of first o then: each image of `first` pulled back by `then`."""
    return (first[0] != then[0],
            tuple(image and _pull(model, image, then) for image in first[1]))


def _factor(model: CurveModel, k: int, z: int, r: int) -> tuple[int, ...] | None:
    """zeta^k z^z (z - zeta^r), or None if z - zeta^r is not a basis factor."""
    n = model.n
    slot = {0: M1, 2 * n: P1, n: MI, 3 * n: PI}.get(r % (4 * n))
    if slot is None:
        return None
    v = [k % (4 * n), 0, z, 0, 0, 0, 0, 0, 0]
    v[slot] = 1
    return tuple(v)


def _gaussian(v: tuple[int, ...]) -> tuple[int, int]:
    """The constant zeta_8^k sqrt(2)^j of v as a Gaussian integer (n = 2)."""
    a, b = UNITS[(v[K] - v[J]) // 2 % 4]
    for _ in range(v[J]):
        a, b = a - b, a + b  # times 1 + i = sqrt(2) zeta_8
    return a, b


def _linear(form: tuple) -> tuple[int, ...] | None:
    """The monomial of a Gaussian linear form (a, c) = a z + c at n = 2,
    or None if its root is no root of a basis factor."""
    (a, b), (c, d) = form
    if a == b == 0:
        g, slot = (c, d), None
    else:
        slot = next((s for s, (x, y) in GAUSSIAN_ROOTS.items()
                     if c + a * x - b * y == 0 and d + a * y + b * x == 0), None)
        if slot is None:
            return None
        g = a, b
    j = 0  # g = unit (1 + i)^j: strip the factors 1 + i
    while (g[0] or g[1]) and (g[0] - g[1]) % 2 == 0:
        g, j = ((g[0] + g[1]) // 2, (g[1] - g[0]) // 2), j + 1
    if g not in UNITS:
        return None
    v = [(2 * UNITS.index(g) + j) % 8, j, 0, 0, 0, 0, 0, 0, 0]
    if slot is not None:
        v[slot] = 1
    return tuple(v)


def _table(model: CurveModel, m: tuple) -> tuple:
    """(anti, images) of the map m = (anti, z, w): the pullbacks of z,
    z - 1, z + 1, z - i, z + i, B and w."""
    anti, zc, wc = m
    n, k, e = model.n, zc[K], zc[Z]
    sign = -1 if anti else 1  # conj(z - r) pulls back as z - conj(r)
    if zc[J] == 0 and e in (1, -1) and not any(zc[M1:]):
        # z -> zeta^k z: zeta^k (z - zeta^(r - k)); z -> zeta^k / z:
        # -zeta^r (z - zeta^(k - r)) / z; B -> B, or -z^(-2n) B
        linear = [_factor(model, k, 0, sign * r - k) if e == 1
                  else _factor(model, sign * r + 2 * n, -1, k - sign * r)
                  for r in (0, 2 * n, n, 3 * n)]
        pulled_b = None if k % 2 else monomial(b=1) if e == 1 else monomial(2 * n, z=-2 * n, b=1)
    else:
        # a Moebius map over the Gaussian integers (t, at n = 2): z -> num / den,
        # each a linear form (a, c) = a z + c
        num, den = ((0, 0), _gaussian(zc)), ((0, 0), (1, 0))
        for slot, (x, y) in GAUSSIAN_ROOTS.items():
            if zc[slot] == 1:
                c0, c1 = num[1]
                num = (num[1], (-c0 * x + c1 * y, -c0 * y - c1 * x))
            elif zc[slot] == -1:
                den = ((1, 0), (-x, -y))
        below = _linear(den)
        linear = []
        for x, y in ((1, 0), (-1, 0), (0, sign), (0, -sign)):
            # num - r den for the root r = x + iy, over den
            above = _linear(tuple((p[0] - x * q[0] + y * q[1], p[1] - x * q[1] - y * q[0])
                                  for p, q in zip(num, den)))
            linear.append(above and below and tuple(s - t for s, t in zip(above, below)))
        pulled_b = None
    return anti, (zc, *linear, pulled_b, wc)


def _power(model: CurveModel, name: str, e: int) -> tuple:
    """The table of maps[name]^e, e >= 0, by repeated squaring."""
    key = (name, e)
    if key not in model._powers:
        if e <= 1:
            table = _table(model, model.maps[name]) if e else IDENTITY
        else:
            half = _power(model, name, e // 2)
            table = _compose(model, half, half)
            if e % 2:
                table = _compose(model, table, _power(model, name, 1))
        model._powers[key] = table
    return model._powers[key]


def _word_map(model: CurveModel, word: Word) -> tuple:
    """The reduced (anti, z, w) of a word, its factors applied right to
    left (group notation): a nonnegative exponent as written, so x^(2n) = 1
    is not x^0 = 1, and a negative one modulo the map's order.  Only the
    powers need whole tables: the word itself pulls back z and w alone."""
    anti, z, w = False, IDENTITY[1][0], IDENTITY[1][-1]
    for name, e in word:
        table = _power(model, name, e if e >= 0 else e % model.orders[name])
        anti = anti != table[0]
        z, w = (v and _pull(model, v, table) for v in (z, w))
    return anti, z, w


def _keeps_curve(model: CurveModel, name: str) -> bool:
    """(w o m)^d = R o m on the curve, for the map m = maps[name]."""
    table = _power(model, name, 1)
    lhs = _reduce(model, [model.degree * x for x in table[1][-1]])
    return lhs == _pull(model, model.equation, table)


# -- words --------------------------------------------------------------


Word = list[tuple[str, int]]
Check = tuple[Word, Word]


def _word_description(word: Word) -> str:
    return "*".join(
        name if exponent == 1 else f"{name}^{exponent}" for name, exponent in word
    ) or "1"


def _coordinates(word_map: tuple) -> dict:
    anti, z, w = word_map
    return {"anti": anti, "z": z and list(z), "w": w and list(w)}


def _verify(model: CurveModel, checks: list[Check]) -> list[dict]:
    """Decide word identities (word, expected) exactly.

    A check is the dict its payload holds: the model, n, `word`, the
    reduced coordinates of both sides (`image`, `expected`: anti and the
    z and w vectors), `pass` and a `note` that names any map in the
    check that does not keep the curve.
    """
    reports = []
    for word, expected in checks:
        image = _coordinates(_word_map(model, word))
        want = _coordinates(_word_map(model, expected))
        off = sorted({name for name, _ in word + expected if not _keeps_curve(model, name)})
        reports.append({
            "model": model.name, "n": model.n,
            "word": f"{_word_description(word)} = {_word_description(expected)}",
            "image": image, "expected": want, "pass": image == want and not off,
            "note": f"off the curve: {', '.join(off)}" if off else "",
        })
    return reports


# -- claims -------------------------------------------------------------


def _checks(model) -> tuple[list[Check], list[Check]]:
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


def verify_dicyclic_relations(model: CurveModel) -> list[dict]:
    """The defining relations x^(2n) = 1, y^2 = x^n, y^-1 x y = x^-1,
    plus the definitional identities tying x to u on each model."""
    return _verify(model, _checks(model)[0])


def verify_anticonformal(model: CurveModel) -> list[dict]:
    """tau^2 = 1 and the conjugation relations tau u tau = u^-1,
    tau y tau = y^-1 on the hyperelliptic models."""
    if not model.hyperelliptic:
        raise ParameterError("tau is defined on the hyperelliptic models only")
    return _verify(model, _checks(model)[1])


def _laurent_pullback(model: CurveModel, poly: dict, word: Word) -> dict | None:
    """poly o m for the word's map m, or None unless m is conformal and
    sends z to zeta^k z^(+-1).  A Laurent polynomial is {exponent: (c, p)}
    for the terms c zeta^p z^exponent, 0 <= p < 2n."""
    anti, zc, _ = _word_map(model, word)
    if anti or zc is None or zc[J] or zc[Z] not in (1, -1) or any(zc[M1:]):
        return None
    k, s = zc[K], zc[Z]
    out = {}
    for e, (c, p) in poly.items():
        p = (p + k * e) % (4 * model.n)
        out[s * e] = (c, p) if p < 2 * model.n else (-c, p - 2 * model.n)
    return out


def _value(model: CurveModel, poly: dict, k: int) -> int | None:
    """poly at z = zeta^k, or None if that is not an integer."""
    total = 0
    for e, (c, p) in poly.items():
        power = (p + k * e) % (4 * model.n)
        if power % (2 * model.n):
            return None
        total += c if power == 0 else -c
    return total


def verify_belyi(model: CurveModel) -> dict:
    """pi is invariant under the deck maps and sends the two fibres of
    marked points to 0 and 1.

    The check is the dict its payload holds: the model, n, `projection`
    (the terms [exponent, coefficient, power of zeta_4n] of -4 pi),
    `checks` (each invariance, and the special fibres), `fibre_values`
    (-4 pi at z = zeta_2n^k for even and odd k: every exponent of pi is a
    multiple of n, so that value depends on k mod 2 alone) and `pass`.
    """
    if not model.hyperelliptic:
        raise ParameterError("the projection is defined on the hyperelliptic models")
    n = model.n
    projection = {n: (1, 0), 0: (-2, 0), -n: (1, 0)}
    checks = {f"pi_invariant_under_{name}":
              _laurent_pullback(model, projection, word) == projection
              for name, word in (("x", [("x", 1)]), ("y", [("y", 1)]),
                                 ("xy", [("x", 1), ("y", 1)]))}
    # zeta_2n^k = zeta_4n^(2k): over 0 at even k, over 1 (-4 pi = -4) at odd k
    fibres = [_value(model, projection, 2 * k) for k in (0, 1)]
    checks["special_fibres"] = fibres == [0, -4]
    return {
        "model": model.name,
        "n": n,
        "projection": [[e, c, p] for e, (c, p) in sorted(projection.items(), reverse=True)],
        "checks": checks,
        "fibre_values": fibres,
        "pass": all(checks.values()),
    }


def applicable_models(n: int) -> list[str]:
    """Model names whose printed formulas apply at this n, in
    `MODEL_NAMES` order: those whose `CurveModel.PARITY` n has."""
    return [name for name in MODEL_NAMES if CurveModel.PARITY.get(name, n % 2) == n % 2]
