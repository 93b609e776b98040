"""Shared fixtures."""

import pytest

from qdecouple import sdp


@pytest.fixture
def solve_calls(monkeypatch):
    """Record every ``sdp.solve`` call as (keyword arguments, solution)."""
    calls = []
    solve = sdp.solve

    def recording(problem, **kwargs):
        sol = solve(problem, **kwargs)
        calls.append((kwargs, sol))
        return sol

    monkeypatch.setattr(sdp, "solve", recording)
    return calls
