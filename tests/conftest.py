"""Shared fixtures and the test-only helpers that more than one module uses."""

import numpy as np
import pytest

from qdecouple import sdp
from qdecouple.channel import Channel
from qdecouple.linalg import Dims, PureState, hermitian_part

KRAUS_CUTOFF = 1e-12


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


def iterate_sweep(problem: sdp.SdpProblem, start: sdp.Start
                  ) -> tuple[sdp.SdpSolution, list[sdp.SdpSolution]]:
    """The full solve from ``start`` and the solves with ``max_iterations``
    1..N, N its iteration count.  The iteration is deterministic, so each
    returns the best of the first k iterates of the full solve's path; where
    that is the latest, the sweep returns every iterate the full solve
    visited."""
    full = sdp.solve(problem, start=start)
    return full, [sdp.solve(problem, start=start, max_iterations=k)
                  for k in range(1, full.iterations + 1)]


def kraus_of(ch: Channel) -> list[np.ndarray]:
    """Kraus operators from the Choi eigendecomposition, zero modes dropped."""
    w, v = np.linalg.eigh(hermitian_part(ch.choi.matrix * ch.dim_in))
    ops = []
    for i in range(len(w) - 1, -1, -1):
        if w[i] <= KRAUS_CUTOFF:
            break
        vec = np.sqrt(w[i]) * v[:, i]
        ops.append(vec.reshape(ch.dim_in, ch.dim_out).T)
    if not ops:
        ops = [np.zeros((ch.dim_out, ch.dim_in), dtype=complex)]
    return ops


def tensor_pure(a: PureState, b: PureState) -> PureState:
    """|a> (x) |b> with concatenated labels."""
    return PureState(Dims(a.dims.pairs + b.dims.pairs),
                     np.kron(a.amplitudes, b.amplitudes), validate=False)
