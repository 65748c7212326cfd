from __future__ import annotations

import pytest

from partcalc import diagrams


@pytest.fixture
def listings(monkeypatch) -> list[int]:
    """The n of every plane-partition listing that the guard admits, in call
    order."""
    listed = []
    original = diagrams._plane_partitions

    def spy(n):
        rows = original(n)  # raises when the guard refuses n
        listed.append(n)
        return rows

    monkeypatch.setattr(diagrams, "_plane_partitions", spy)
    return listed
