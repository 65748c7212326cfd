from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from partcalc.combinat import stirling_first_unsigned


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
