"""Correctness oracle and payload digests for the benchmark cases.

Every check compares a command's output with a closed form from the
paper, never with another output of the code under test:

- census: the unordered signature types are {4,4,2n}, plus {4,4,n} for
  odd n; every ordering of each type occurs; each ordered entry has
  |Aut G_n| generating pairs (2n * phi(2n) for n >= 3, 24 for n = 2),
  |Aut G_n| / 2n conjugacy orbits and one automorphism orbit;
- genus: sigma^0 = n (n even) or n - 1 (n odd), sigma_p = n;
- hyper: sigma^hyp = n + 1 (n even) or 2n - 2 (n odd);
- every witness signature reproduces the reported genus through
  Riemann-Hurwitz;
- paper-report: all of the above for each n, the dessin genera n (case
  I) and n - 1 (case II), the pseudo-real genus (l - 1)(2n - 1) with
  l = 3n, and exactly one failing claim, `quotient_genera`, for each n
  that is not a power of two (the stated claim is false there).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import permutations
from math import gcd
from pathlib import Path


def aut_order(n: int) -> int:
    """|Aut G_n|: 24 for the quaternion group, else 2n * phi(2n)."""
    if n == 2:
        return 24
    return 2 * n * sum(1 for k in range(1, 2 * n) if gcd(k, 2 * n) == 1)


def unordered_types(n: int) -> set[tuple[int, ...]]:
    types = {tuple(sorted((4, 4, 2 * n)))}
    if n % 2 == 1:
        types.add(tuple(sorted((4, 4, n))))
    return types


def strong_genus(n: int) -> int:
    return n if n % 2 == 0 else n - 1


def pure_genus(n: int) -> int:
    return n


def hyp_genus(n: int) -> int:
    return n + 1 if n % 2 == 0 else 2 * n - 2


def orientable_rh(n: int, gamma: int, orders: list[int]) -> Fraction:
    """Riemann-Hurwitz genus of a 4n-sheeted cover of (gamma; orders)."""
    return 1 + 2 * n * (2 * gamma - 2 + sum(1 - Fraction(1, m) for m in orders))


def nec_rh(n: int, gamma: int, orders: list[int]) -> Fraction:
    """Genus over a non-orientable quotient with gamma + 1 crosscaps."""
    return 1 + 2 * n * (gamma + len(orders) - 1 - sum(Fraction(1, m) for m in orders))


def _claims(payload: dict, claim_id: str) -> list[dict]:
    return [c for c in payload["claims"] if c["id"] == claim_id]


def _one_claim(payload: dict, claim_id: str, problems: list[str], where: str):
    found = _claims(payload, claim_id)
    if len(found) != 1:
        problems.append(f"{where}: expected one {claim_id} claim, found {len(found)}")
        return None
    return found[0]


def check_census_data(n: int, data: dict, where: str) -> list[str]:
    problems = []
    entries = data["entries"]
    want_ordered = {p for t in unordered_types(n) for p in permutations(t)}
    got_ordered = [tuple(e["signature"]) for e in entries]
    if sorted(got_ordered) != sorted(want_ordered):
        problems.append(f"{where}: ordered signatures {got_ordered}, "
                        f"expected {sorted(want_ordered)}")
    got_types = {tuple(json.loads(k)) for k in data["unordered_types"]}
    if got_types != unordered_types(n):
        problems.append(f"{where}: unordered types {sorted(got_types)}")
    pairs = aut_order(n)
    for e in entries:
        sig = e["signature"]
        if e["pairs"] != pairs:
            problems.append(f"{where} {sig}: {e['pairs']} pairs, expected {pairs}")
        if e["conjugacy_orbits"] != pairs // (2 * n):
            problems.append(f"{where} {sig}: {e['conjugacy_orbits']} conjugacy "
                            f"orbits, expected {pairs // (2 * n)}")
        if e["automorphism_orbits"] != 1:
            problems.append(f"{where} {sig}: {e['automorphism_orbits']} "
                            "automorphism orbits, expected 1")
    return problems


def _check_census(n: int, payload: dict, where: str) -> list[str]:
    problems: list[str] = []
    claim = _one_claim(payload, "unordered_types", problems, where)
    if claim is not None:
        problems += check_census_data(n, claim["data"], where)
    return problems


def _check_genus(n: int, mode: str, payload: dict, where: str) -> list[str]:
    problems: list[str] = []
    claim = _one_claim(payload, f"{mode}_symmetric_genus", problems, where)
    if claim is None:
        return problems
    data = claim["data"]
    want = strong_genus(n) if mode == "strong" else pure_genus(n)
    sig = data["signature"]
    if data["genus"] != want:
        problems.append(f"{where}: {mode} genus {data['genus']}, expected {want}")
    if orientable_rh(n, sig["gamma"], sig["cone_orders"]) != data["genus"]:
        problems.append(f"{where}: witness signature {sig} does not give genus "
                        f"{data['genus']}")
    return problems


def _check_hyper(n: int, payload: dict, where: str) -> list[str]:
    problems: list[str] = []
    claim = _one_claim(payload, "minimal_hyperbolic_genus", problems, where)
    if claim is None:
        return problems
    data = claim["data"]
    sig = data["signature"]
    if data["genus"] != hyp_genus(n):
        problems.append(f"{where}: sigma^hyp {data['genus']}, expected {hyp_genus(n)}")
    if nec_rh(n, sig["gamma"], sig["cone_orders"]) != data["genus"]:
        problems.append(f"{where}: witness signature {sig} does not give genus "
                        f"{data['genus']}")
    return problems


def _failing_ids(payload: dict) -> list[str]:
    return [c["id"] for c in payload["claims"] if c["status"] == "fail"]


def check_envelope(command: str, params: dict, returncode: int, stdout: str) -> list[str]:
    """Problems with the output of census, genus or hyper (empty if none)."""
    where = f"{command} {params}"
    if returncode != 0:
        return [f"{where}: exit code {returncode}"]
    payload = json.loads(stdout)["payload"]
    if payload["command"] != command or payload["params"] != params:
        return [f"{where}: payload is for {payload['command']} {payload['params']}"]
    problems = [f"{where}: claim {i} fails" for i in _failing_ids(payload)]
    n = params["n"]
    if command == "census":
        problems += _check_census(n, payload, where)
    elif command == "genus":
        problems += _check_genus(n, params["mode"], payload, where)
    elif command == "hyper":
        problems += _check_hyper(n, payload, where)
    else:
        problems.append(f"no oracle for {command}")
    return problems


def _is_power_of_two(n: int) -> bool:
    return n & (n - 1) == 0


def check_paper_report(ns: range, seed: int, heavy: bool, returncode: int,
                       out_dir: Path) -> list[str]:
    """Problems with a `paper-report` output directory (empty if none)."""
    problems = []
    names = sorted(p.name for p in out_dir.iterdir())
    want_names = sorted([f"n{n}.json" for n in ns] + ["summary.md"])
    if names != want_names:
        return [f"paper-report wrote {names}, expected {want_names}"]
    expected_failures = [n for n in ns if not _is_power_of_two(n)]
    want_code = 1 if expected_failures else 0
    if returncode != want_code:
        problems.append(f"paper-report: exit code {returncode}, expected {want_code}")
    summary = (out_dir / "summary.md").read_text()
    if summary.count("FAIL `quotient_genera`") != len(expected_failures):
        problems.append("summary.md does not list exactly the expected failures")
    for n in ns:
        where = f"paper-report n={n}"
        payload = json.loads((out_dir / f"n{n}.json").read_text())
        if payload["params"] != {"n": n, "seed": seed}:
            problems.append(f"{where}: params {payload['params']}")
        failing = _failing_ids(payload)
        want = ["quotient_genera"] if n in expected_failures else []
        if failing != want:
            problems.append(f"{where}: failing claims {failing}, expected {want}")
        problems += _check_census(n, payload, where)
        problems += _check_hyper(n, payload, where)
        if heavy or n <= 5:
            problems += _check_genus(n, "strong", payload, where)
            problems += _check_genus(n, "pure", payload, where)
        # Case I comes before case II, and only odd n have case II.
        dessin = [c["data"]["genus"] for c in _claims(payload, "dessin_genus")]
        want_dessin = [n] if n % 2 == 0 else [n, n - 1]
        if dessin != want_dessin:
            problems.append(f"{where}: dessin genera {dessin}, expected {want_dessin}")
        pseudo = _one_claim(payload, "genus_formula", problems, where)
        if pseudo is not None:
            l = pseudo["data"]["l"]
            if l != 3 * n or pseudo["data"]["genus"] != (l - 1) * (2 * n - 1):
                problems.append(f"{where}: pseudo-real data {pseudo['data']}")
    return problems


def envelope_digest(stdout: str) -> str:
    """Digest of the deterministic part of a JSON envelope (all but `ms`)."""
    envelope = json.loads(stdout)
    envelope.pop("ms", None)
    return hashlib.sha256(json.dumps(envelope, sort_keys=True).encode()).hexdigest()


def directory_digest(out_dir: Path) -> str:
    """Digest of every file a `paper-report` run wrote."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
