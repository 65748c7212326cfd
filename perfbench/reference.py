"""Reference counts computed without calling partcalc.

Every quantity is the coefficient of q^n in prod_k (1 - q^k)^(-m(k)) for the
family's multiplicity pattern m.  Its coefficients satisfy the log-derivative
recurrence

    n a(n) = sum_{k=1..n} b(k) a(n-k),   b(k) = sum_{d | k} d m(d),

which none of the routes partcalc has today (DP, series product, diagram
enumeration, multiplicity-vector sum, Stirling congruence sum) uses.  ROADMAP
item 4 plans to make it the oracle-series route.  So that route is not
checked against its own algorithm alone, the benchmark also requires every
value to equal the other routes' values for the same case in the same round
(oracle-dp on every oracle-large case), and its tests compare these rows
with a direct expansion of the product.
"""

from __future__ import annotations


def multiplicity(quantity: str, k: int, r: int | None = None, parts: tuple[int, ...] = ()) -> int:
    """How many times part k may repeat in the family's weight sequence."""
    if quantity == "p":
        return 1
    if quantity == "pp":
        return k
    if quantity == "pp_r":
        return min(k, r)
    if quantity == "pps":
        return (k + 1) // 2
    if quantity == "ppso":
        return 1 if k % 2 else k // 2
    if quantity == "P_r":
        return r
    if quantity == "p_a":
        return parts.count(k)
    raise ValueError(f"no multiplicity pattern for {quantity!r}")


def row(quantity: str, top: int, r: int | None = None, parts: tuple[int, ...] = ()) -> list[int]:
    """Values a(0..top) by the log-derivative recurrence; exact integers."""
    b = [0] * (top + 1)
    for d in range(1, top + 1):
        m = multiplicity(quantity, d, r, parts)
        if m:
            for k in range(d, top + 1, d):
                b[k] += d * m
    a = [1] + [0] * top
    for n in range(1, top + 1):
        total = 0
        for k in range(1, n + 1):
            if b[k]:
                total += b[k] * a[n - k]
        value, rest = divmod(total, n)
        if rest:
            raise ArithmeticError(f"recurrence gave a non-integer at n={n}")
        a[n] = value
    return a


class Reference:
    """Rows by (quantity, r, parts), each recomputed when a larger n is asked.

    Ask for the largest n of a row first to compute it once.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple, list[int]] = {}

    def value(self, quantity: str, n: int, r: int | None = None, parts: tuple[int, ...] = ()) -> int:
        key = (quantity, r, tuple(parts))
        cached = self._rows.get(key)
        if cached is None or len(cached) <= n:
            cached = self._rows[key] = row(quantity, n, r, tuple(parts))
        return cached[n]
