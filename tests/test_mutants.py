"""Mutation test of the closed-form deciders `search.admits` and
`genus.admits_pure`.

Each mutant deletes or changes one clause of a decider's source text; it
is executed into a fresh module namespace in process, and some answer of
the mutated decider must differ from the exhaustive oracle (`search.vectors`,
and `covering.is_pure` on every vector for purity).  The unmutated source,
run the same way, is the control and must agree everywhere.  The oracle
covers, for n = 2..8, every genus-0 signature of at most four orders
from `walks.order_pool(n)` and 2n + 1 (at most six for n <= 4), every
(1; m) and (1; -), and every handle-1 signature of gamma <= 1 and at
most three cones over each index-two plus part.  Four cones leave some
clauses unreachable: an odd count of order-4 cones at odd n, or the
t >= 4 y-element cones of a pure vector beside an order 2n, needs five
or six.
"""

import itertools
from functools import lru_cache
from pathlib import Path

import pytest

from dicyclic_dessins import genus, search
from dicyclic_dessins.covering import is_pure
from dicyclic_dessins.group import DicyclicGroup
from dicyclic_dessins.search import Signature

from walks import order_pool

# (decider, the source text of one clause, its mutant): each source text
# occurs exactly once in its module
MUTANTS = [
    # search.admits, orientable
    ("admits", "        if any(m != 4 and two_n % m for m in orders):\n            return False\n",
     ""),
    ("admits", "return orders == (n,) if sig.gamma == 1",
     "return orders == (two_n,) if sig.gamma == 1"),
    ("admits", "if fours < 2 or n % 2 and fours % 2:",
     "if fours < 2:"),
    ("admits", "if fours < 2 or n % 2 and fours % 2:",
     "if fours < 1 or n % 2 and fours % 2:"),
    ("admits", "        if fours >= 4:\n            return True\n", ""),
    ("admits", "return rest == two_n or n % 2 == 1 and rest == n",
     "return rest == two_n"),
    ("admits", "return rest == two_n or n % 2 == 1 and rest == n",
     "return rest == two_n or rest == n"),
    # search.admits, handle 1 over <x^2, x^s y>
    ("admits", "if any(m != 4 and n % m for m in orders) or fours % 2 and n % 4:",
     "if any(m != 4 and n % m for m in orders):"),
    ("admits", "if any(m != 4 and n % m for m in orders) or fours % 2 and n % 4:",
     "if any(m != 4 and two_n % m for m in orders) or fours % 2 and n % 4:"),
    ("admits", "        if fours >= 2:\n            return True\n", ""),
    ("admits", "if all((k_x + (k - k_x) * n // 2 + odd) % 2 for k_x in range(1, k)):",
     "if all((k_x + odd) % 2 for k_x in range(1, k)):"),
    ("admits", "return k > 2 or q & (q - 1) == 0", "return True"),
    # search.admits, handle 1 over <x>
    ("admits", "    if any(two_n % m for m in orders):\n        return False\n", ""),
    ("admits", "if k == 1 and gcd(n, two_n // lcm(*orders)) != 1:", "if False:"),
    ("admits", "return gcd(k * n, two_n) in reached", "return gcd(n, two_n) in reached"),
    # genus.admits_pure
    ("admits_pure", "    if any(m != 4 and two_n % m for m in orders):\n        return False\n",
     ""),
    ("admits_pure", "        if n % 2 and t < fours:\n            continue\n", ""),
    ("admits_pure", "if two_n in rest and", "if True and"),
    ("admits_pure", "(t > 2 or n % 2 or sum(two_n // m % 2 for m in rest) % 2)",
     "(t > 2 or n % 2 or True)"),
    ("admits_pure", "(t > 2 or n % 2 or sum(two_n // m % 2 for m in rest) % 2)",
     "(n % 2 or sum(two_n // m % 2 for m in rest) % 2)"),
    ("admits_pure", "for t in range(2, fours + 1, 2):", "for t in range(2, fours + 1):"),
]

MODULES = {"admits": search, "admits_pure": genus}


@lru_cache(maxsize=1)
def oracle():
    """Every (n, signature, plus part) of the module docstring, with
    whether it has a generating vector and, for an orientable one,
    whether it has a purely-non-free one."""
    answers = []
    for n in range(2, 9):
        group = DicyclicGroup(n)
        pool = order_pool(n)
        # 2n + 1 is no element order; five and six cones reach t >= 4
        # order-4 cones beside other cones
        orientable = [Signature(2, 0, orders) for r in range(7 if n <= 4 else 5)
                      for orders in itertools.combinations_with_replacement(
                          pool + [2 * n + 1], r)]
        orientable += [Signature(2, 1, orders) for orders in [()] + [(m,) for m in pool]]
        for sig in orientable:
            vectors = search.vectors(group, sig)
            first = next(vectors, None)
            pure = first is not None and (is_pure(group, first[1]) or any(
                is_pure(group, cones) for _, cones in vectors))
            answers.append((n, sig, None, first is not None, pure))
        for H in group.index_two_subgroups():
            for gamma in (0, 1):
                for r in range(4):
                    for orders in itertools.combinations_with_replacement(pool, r):
                        sig = Signature(1, gamma, orders)
                        found = next(search.vectors(group, sig, H), None) is not None
                        answers.append((n, sig, H, found, None))
    return answers


def disagreements(deciders):
    """The oracle entries where `deciders` (name -> function) answer
    otherwise."""
    admits, admits_pure = deciders["admits"], deciders["admits_pure"]
    wrong = []
    for n, sig, H, found, pure in oracle():
        group = DicyclicGroup(n)
        if admits(group, sig, H) != found:
            wrong.append(("admits", n, sig, H))
        if pure is not None and admits_pure(n, sig) != pure:
            wrong.append(("admits_pure", n, sig))
    return wrong


def executed(name, source):
    """The function `name` of this module source, executed into a fresh
    namespace of the package."""
    module = MODULES[name]
    namespace = {"__name__": f"{module.__name__}_mutant", "__package__": "dicyclic_dessins"}
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[name]


def deciders(mutated=None, clause="", mutant=""):
    """Both deciders, executed from their source texts, with one clause of
    `mutated` replaced by its mutant."""
    out = {}
    for name, module in MODULES.items():
        source = Path(module.__file__).read_text()
        if name == mutated:
            assert source.count(clause) == 1, clause
            source = source.replace(clause, mutant)
        out[name] = executed(name, source)
    return out


def test_the_unmutated_deciders_agree_with_the_oracle():
    answers = oracle()
    assert any(a[3] for a in answers) and any(a[4] for a in answers)
    assert disagreements(deciders()) == []


@pytest.mark.parametrize("mutated, clause, mutant", MUTANTS)
def test_every_one_clause_mutant_of_a_decider_is_killed(mutated, clause, mutant):
    assert disagreements(deciders(mutated, clause, mutant)), (mutated, clause, mutant)
