from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from partcalc.combinat import binomial, lcm_range, stirling_first_unsigned


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@given(st.integers(1, 60), st.integers(-3, 63))
def test_binomial_pascal(n, k):
    assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_lcm_range_values():
    assert lcm_range(1) == 1
    assert lcm_range(3) == 6
    assert lcm_range(4) == 12
    assert lcm_range(5) == 60
    assert lcm_range(10) == 2520
    with pytest.raises(ValueError):
        lcm_range(0)


@given(st.integers(2, 40))
def test_lcm_range_divisibility_and_growth(n):
    d = lcm_range(n)
    assert all(d % s == 0 for s in range(1, n + 1))
    ratio = d // lcm_range(n - 1)
    # the ratio is 1 or a prime power
    if ratio > 1:
        prime = next(p for p in range(2, ratio + 1) if ratio % p == 0)
        while ratio % prime == 0:
            ratio //= prime
        assert ratio == 1


def test_stirling_rows():
    assert stirling_first_unsigned(1) == (1,)
    assert stirling_first_unsigned(2) == (1, 1)
    assert stirling_first_unsigned(3) == (2, 3, 1)
    assert stirling_first_unsigned(4) == (6, 11, 6, 1)
    with pytest.raises(ValueError):
        stirling_first_unsigned(0)


@given(st.integers(1, 12))
def test_stirling_row_sums(r):
    table = stirling_first_unsigned(r)
    assert len(table) == r
    assert table[r - 1] == 1
    assert table[0] == math.factorial(r - 1)
    assert sum(table) == math.factorial(r)


@given(st.integers(1, 12), st.integers(0, 20))
def test_stirling_rising_factorial_identity(r, n):
    table = stirling_first_unsigned(r)
    assert sum(c * n**k for k, c in enumerate(table, start=1)) == math.prod(range(n, n + r))
