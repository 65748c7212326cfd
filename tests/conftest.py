from __future__ import annotations

import pytest

from partcalc import diagrams, sequences, series, stirling


@pytest.fixture
def listings(monkeypatch) -> list[int]:
    """The n of every plane-partition listing that the guard admits, in call
    order."""
    listed = []
    original = diagrams._check_listing

    def spy(n):
        original(n)  # raises when the guard refuses n
        listed.append(n)

    monkeypatch.setattr(diagrams, "_check_listing", spy)
    return listed


@pytest.fixture
def family_patterns_up_to(monkeypatch):
    """A call family_patterns_up_to(k) makes sequences.pattern, in every
    module that binds it, raise for a family pattern of more than k parts:
    a guard that reads at most k parts before it refuses passes, and a
    pattern as long as n built before the guard fails.  A p_a pattern, as
    long as its part list, is still built."""
    real = sequences.pattern

    def install(longest: int) -> None:
        def spy(quantity, bound, *rest):
            if quantity != "p_a" and bound > longest:
                raise AssertionError(f"a pattern of {quantity} to {bound} was built before the guard")
            return real(quantity, bound, *rest)

        for module in (sequences, series, stirling):
            monkeypatch.setattr(module, "pattern", spy)

    return install
