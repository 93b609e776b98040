"""Property tests over random 2x2 and 2x3 states, purifications and
diagonal states.

Each property draws a seed and a shape; hypothesis picks few examples
(derandomized, so runs repeat exactly) and the programs stay small, so the
suite costs a few seconds.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecouple import entropy
from qdecouple.linalg import (StateOperator, dims_of, herm_basis, pure_marginal,
                              purified_distance, random_density, random_pure)
from qdecouple.sdp import ProblemBuilder, SdpStatus
from conftest import iterate_sweep

SHAPES = ((2, 2), (2, 3))
seeds = st.integers(min_value=0, max_value=2**32 - 1)
shapes = st.sampled_from(SHAPES)
few = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def state(seed: int, shape: tuple[int, int]):
    d_a, d_b = shape
    return random_density(np.random.default_rng(seed), (("A", d_a), ("B", d_b)))


@few
@given(seeds, shapes)
def test_min_entropy_sdp_weak_duality_and_certificate(seed, shape):
    d_a, d_b = shape
    rho = state(seed, shape).matrix
    basis = herm_basis(d_b)
    build = ProblemBuilder()
    blk = build.add_block(d_a * d_b, -rho)
    for g in basis:
        build.add_constraint({blk: np.kron(np.eye(d_a), g)}, float(np.trace(g).real))
    # strictly feasible start, so weak duality holds on every iterate, and
    # every iterate's pair brackets the converged optimum
    lam = float(np.abs(np.linalg.eigvalsh(rho)).max()) + 1.0
    sigma0 = lam * np.eye(d_b, dtype=complex)
    y0 = -np.array([float(np.trace(g @ sigma0).real) for g in basis])
    sol, sweep = iterate_sweep(build.build(), ([np.eye(d_a * d_b, dtype=complex) / d_a],
                                               y0, [-rho + np.kron(np.eye(d_a), sigma0)]))
    assert sol.status is SdpStatus.OPTIMAL
    for s in sweep:
        assert s.dual_obj <= s.primal_obj + 1e-9
        assert s.dual_obj <= sol.primal_obj + 1e-9
        assert s.primal_obj >= sol.dual_obj - 1e-9
    lo, hi = sorted((-sol.primal_obj, -sol.dual_obj))
    assert math.log2(hi / lo) <= entropy.CERT_LIMIT_BITS


@few
@given(seeds, shapes)
def test_min_entropy_at_most_collision_entropy(seed, shape):
    rho = state(seed, shape)
    h_min = entropy.h_min(rho, ("A",), ("B",))
    assert h_min.certificate_gap <= entropy.CERT_LIMIT_BITS
    assert h_min.value <= entropy.h2(rho, ("A",), ("B",)).value + 1e-6


@few
@given(seeds, shapes, st.sampled_from((0.0, 0.05)))
def test_smooth_min_max_duality_on_purifications(seed, shape, eps):
    d_a, d_b = shape
    psi = random_pure(np.random.default_rng(seed), (("A", d_a), ("B", d_b), ("C", 2)))
    h_min = entropy.h_min_smooth(pure_marginal(psi, ["A", "B"]), ("A",), ("B",), eps)
    h_max = entropy.h_max_smooth(pure_marginal(psi, ["A", "C"]), ("A",), ("C",), eps)
    assert abs(h_min.value + h_max.value) <= 1e-5


@few
@given(seeds, shapes, st.sampled_from((0.01, 0.05, 0.2)), st.sampled_from((1.0, 0.7)))
def test_diagonal_smoothing_is_feasible_and_smooths(seed, shape, eps, scale):
    # a diagonal state with some empty cells, normalized or not, through the
    # exact dual route: its smoothed state lies in the ball, satisfies
    # rho_hat <= I (x) sigma' with sigma' = 2^(gap - value) sigma, the
    # certified upper end, and the value is at least the unsmoothed one
    d_a, d_b = shape
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(d_a * d_b)) * (rng.random(d_a * d_b) > 0.25)
    w[0] += 1e-3
    rho = StateOperator(dims_of(("A", d_a), ("B", d_b)),
                        np.diag(scale * w / w.sum()).astype(complex))
    res = entropy.h_min_smooth(rho, ("A",), ("B",), eps)
    assert purified_distance(res.smoothed_state, rho) <= eps + 1e-9
    sigma = 2.0 ** (res.certificate_gap - res.value) * res.optimizer_sigma.matrix
    gap_op = np.kron(np.eye(d_a), sigma) - res.smoothed_state.matrix
    assert float(np.linalg.eigvalsh(gap_op)[0]) >= -1e-12
    assert res.value >= entropy.h_min(rho, ("A",), ("B",)).value - entropy.CERT_LIMIT_BITS
