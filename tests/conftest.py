from __future__ import annotations

import pytest

from partcalc import diagrams


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
