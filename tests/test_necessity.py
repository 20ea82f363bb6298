"""Why the hardness statement needs its hypotheses: two easy cases, exactly.

Drop "both nondecreasing or both nonincreasing", or let f and g be modular,
and n ratio queries, one per singleton, find the exact minimum of f/g that
brute force finds over every nonempty set.  The tables weight elements
differently, so the singletons do not all tie.
"""

from fractions import Fraction

import pytest
from reference import FunctionTable

from ratiolab.optimize import brute_force_min_ratio
from ratiolab.oracles import CountingOracle, ratio
from ratiolab.sets import Subset
from ratiolab.verify import check_monotone, check_nonnegative, check_supermodular


def _weights(n: int, step: int, spread: int) -> list[int]:
    return [(step * i + 1) % spread + 1 for i in range(n)]


def _table(n: int, value) -> FunctionTable:
    """value(members) at every subset, as an explicit table."""
    return FunctionTable(n, [value([i for i in range(n) if mask >> i & 1]) for mask in range(1 << n)])


def _singletons_reach_the_optimum(f: FunctionTable, g: FunctionTable, n: int) -> None:
    f_oracle, g_oracle = CountingOracle(f), CountingOracle(g)
    by_singleton = [ratio(Subset(1 << i, n), f_oracle, g_oracle) for i in range(n)]
    assert f_oracle.count == g_oracle.count == n
    assert len(set(by_singleton)) > 1
    assert min(by_singleton) == brute_force_min_ratio(CountingOracle(f), CountingOracle(g), n).value


@pytest.mark.parametrize("n", [4, 8, 12])
def test_mixed_directions(n):
    # f = a(S)^2 >= 0 and g = (b(V) - b(S))^2 + 1 > 0 are supermodular, as
    # convex functions of nonnegative modular ones, but f is nondecreasing
    # and g nonincreasing: f/g is nondecreasing, so a singleton is a minimiser
    a, b = _weights(n, 3, 7), _weights(n, 5, 11)
    f = _table(n, lambda members: Fraction(sum(a[i] for i in members) ** 2))
    g = _table(n, lambda members: Fraction((sum(b) - sum(b[i] for i in members)) ** 2 + 1))
    assert check_supermodular(f, n) == check_supermodular(g, n) == []
    assert check_monotone(f, n, "nondecreasing") == check_monotone(g, n, "nonincreasing") == []
    assert check_nonnegative(f, n) == []
    _singletons_reach_the_optimum(f, g, n)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_modular_pair(n):
    # f(S) = a(S) of either sign and g(S) = b(S) with b > 0: f(S)/g(S) is a
    # mediant of the singletons' ratios a_i/b_i, so it is at least their minimum
    a = [w - 4 for w in _weights(n, 3, 9)]
    b = _weights(n, 5, 11)
    f = _table(n, lambda members: Fraction(sum(a[i] for i in members)))
    g = _table(n, lambda members: Fraction(sum(b[i] for i in members)))
    assert f.values[0] == g.values[0] == 0
    _singletons_reach_the_optimum(f, g, n)
