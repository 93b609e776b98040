"""One-shot state merging: per-outcome decoupling test, decoder fidelity
and entanglement-cost accounting.

The protocol transfers the sender's share of a tripartite pure state to the
receiver using shared entanglement and one classical message: prepend a
rank-K maximally entangled pair, apply a Haar unitary and a rank-L block
measurement on the sender's side, send the outcome, then decode on the
receiver's side with an Uhlmann isometry toward the target state.

By Uhlmann's theorem each outcome's decoder fidelity depends only on the
outcome's sender-reference marginal, so neither entry point builds the
protocol state: ``run_merging`` evaluates every outcome of one full Haar
unitary, and ``estimate_merging_fidelity`` estimates the mean fidelity from
one Haar row block per draw (the transposed first L columns of a Haar
unitary), at costs where even that unitary would not fit.  The explicit
protocol, with its measurement isometry and Uhlmann decoder, is built in
``tests/test_merging.py`` as the oracle for this shortcut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qdecouple import entropy, haar
from qdecouple.linalg import (
    DimCapError,
    PureState,
    StateOperator,
    fidelities,
    pure_marginal,
    trace_norms,
    trace_out_leading,
)

LOG2_13 = math.log2(13.0)
# default cap on the entries of a run's largest array (1 GiB of complex128)
ENTRY_CAP = 1 << 26
# outcomes below this probability have no normalized state and fidelity 0
_P_DEAD = 1e-15


class MergingError(ValueError):
    """Invalid merging instance or protocol failure."""


@dataclass(frozen=True)
class MergingInstance:
    """Pure state on the sender A, receiver B and reference E, plus the
    entanglement registers' Schmidt ranks.

    ``cap`` bounds the entry count of the largest array a run allocates:
    the (K|A|)^2 Haar unitary in ``run_merging`` and the K|A| x L row block
    in ``estimate_merging_fidelity``; None means ``ENTRY_CAP``.
    """

    psi: PureState
    k_rank: int
    l_rank: int
    epsilon_target: float
    seed: haar.RngSeed = haar.RngSeed(0)
    cap: int | None = None

    def __post_init__(self) -> None:
        if set(self.psi.labels) != {"A", "B", "E"}:
            raise MergingError(f"labels ['A', 'B', 'E'] != state labels {self.psi.labels}")
        if self.k_rank < 1 or self.l_rank < 1:
            raise MergingError("Schmidt ranks must be positive")
        if (self.k_rank * self.dim_a) % self.l_rank != 0:
            raise MergingError(
                f"L = {self.l_rank} must divide K * |A| = {self.k_rank * self.dim_a}")

    @property
    def dim_a(self) -> int:
        return self.psi.dims.dim_of("A")

    @property
    def num_outcomes(self) -> int:
        return (self.k_rank * self.dim_a) // self.l_rank


@dataclass
class MergingResult:
    fidelity: float
    per_outcome: list[tuple[int, float, float]]  # (outcome, probability, fidelity)
    cost_bits: float
    bound_achievable: float
    bound_converse: float | None
    decoupled_fraction: float
    seed: haar.RngSeed


@dataclass
class MergingEstimate:
    """Monte Carlo estimate of the mean protocol fidelity over Haar draws."""

    fidelity: float
    std_err: float
    samples: list[float]
    cost_bits: float


def run_merging(instance: MergingInstance,
                bounds: tuple[float, float | None] | None = None) -> MergingResult:
    """Run the merging protocol for one Haar draw, all outcomes at once.

    The draw is the unitary ``haar_unitary_indexed(seed, 0, K|A|)`` on the
    sender registers (A0, A); outcome x is its rows x L .. (x + 1) L.  Each
    outcome's probability, Uhlmann-decoder fidelity and decoupling test come
    from its receiver-independent A1 E marginal, and ``_outcome_kernel``
    forms them for the whole stack of outcomes, so the largest arrays are
    that (K|A|)^2 unitary and the Gram step's regrouped copies of it, never
    the K^2|A||B||E| protocol state; the unitary's entry count is held to
    the instance's cap.  ``bounds`` is ``cost_bounds`` of the instance's
    state and epsilon, which do not depend on the seed; it is computed here
    when not given.
    """
    inst = instance
    psi = inst.psi
    k_dim, l_dim = inst.k_rank, inst.l_rank
    n_out = inst.num_outcomes
    reg = k_dim * inst.dim_a
    _check_entries("the (K|A|)^2 Haar unitary", reg * reg, inst.cap)
    rho_ae = _sender_env_marginal(inst)
    u = haar.haar_unitary_indexed(inst.seed, 0, reg)
    p, f, states, ideal = _outcome_kernel(u.reshape(n_out, l_dim, reg), rho_ae, inst.dim_a)
    decoupled = int(np.count_nonzero(trace_norms(states - ideal)
                                     <= 4.0 * inst.epsilon_target))

    per_outcome: list[tuple[int, float, float]] = []
    p_sum = 0.0
    overall = 0.0
    for x, (p_x, f_x) in enumerate(zip(p.tolist(), f.tolist())):
        per_outcome.append((x, p_x, f_x))
        if p_x < _P_DEAD:
            continue
        p_sum += p_x
        # classical outcome registers dephase, so the full-state fidelity is
        # the block fidelity sum_x sqrt(p_x / N) f_x against the uniform
        # outcome distribution of the reference protocol state
        overall += math.sqrt(p_x / n_out) * f_x

    if abs(p_sum - 1.0) > 1e-9:
        raise MergingError(f"outcome probabilities sum to {p_sum}")

    if bounds is None:
        bounds = cost_bounds(psi, ("A",), ("B",), inst.epsilon_target)
    bound_ach, bound_con = bounds
    cost = math.log2(k_dim) - math.log2(l_dim)
    return MergingResult(overall, per_outcome, cost, bound_ach, bound_con,
                         decoupled / max(n_out, 1), inst.seed)


def _check_entries(what: str, entries: int, cap: int | None) -> None:
    limit = ENTRY_CAP if cap is None else cap
    if entries > limit:
        raise DimCapError(f"{what} has {entries} entries, above the merging cap {limit}")


def _sender_env_marginal(inst: MergingInstance) -> np.ndarray:
    """rho_AE as a matrix with A major."""
    return pure_marginal(inst.psi, ["A", "E"]).permute(["A", "E"]).matrix


def _outcome_kernel(blocks: np.ndarray, rho_ae: np.ndarray, dim_a: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p, f, states, ideal) of a stack of outcomes.

    ``blocks`` (count, L, K|A|) holds each outcome's rows U_x of the unitary
    on the K|A| register (index k |A| + a, A0 major), and ``rho_ae`` is the
    sender-reference marginal with the sender index major.  An outcome's
    A1 E marginal does not depend on the receiver:

        sigma_x = (1/K) sum G_x rho_AE,
        G_x[l, a, l', a'] = sum_k U_x[l, k, a] conj(U_x[l', k, a']),

    so p_x = tr sigma_x and, by Uhlmann's theorem, the decoder fidelity is
    f_x = F(sigma_x / p_x, I/L (x) rho_E): the values the explicit protocol
    gets from its K^2|A||B||E| state and a per-outcome Uhlmann isometry.
    ``states`` stacks the normalized marginals sigma_x / p_x of the outcomes
    with p_x >= ``_P_DEAD``, in order (the others have f = 0), and ``ideal``
    is I/L (x) rho_E.  Every step is one stacked call, and an outcome's
    values do not depend on the rest of the stack.
    """
    count, l_dim, reg = blocks.shape
    if reg % dim_a != 0:
        raise MergingError(f"register dimension {reg} is not a multiple of |A| = {dim_a}")
    k_dim = reg // dim_a
    d_e = rho_ae.shape[0] // dim_a
    # each G_x as an (L|A|, L|A|) Gram matrix of the K-long columns of U_x
    cols = (blocks.reshape(count, l_dim, k_dim, dim_a).transpose(0, 2, 1, 3)
            .reshape(count, k_dim, l_dim * dim_a))
    g = (cols.swapaxes(1, 2) @ cols.conj()).reshape(count, l_dim, dim_a, l_dim, dim_a)
    g /= k_dim
    rho = rho_ae.reshape(dim_a, d_e, dim_a, d_e)
    sigma = np.einsum("xlamb,aebf->xlemf", g, rho).reshape(count, l_dim * d_e, l_dim * d_e)
    ideal = np.kron(np.eye(l_dim) / l_dim, trace_out_leading(rho_ae, dim_a))
    p = np.trace(sigma, axis1=1, axis2=2).real
    live = p >= _P_DEAD
    states = sigma[live] / p[live, None, None]
    f = np.zeros(count)
    f[live] = fidelities(states, ideal[None])
    return p, f, states, ideal


def estimate_merging_fidelity(instance: MergingInstance,
                              draws: int) -> MergingEstimate:
    """Mean protocol fidelity over ``draws`` Haar draws, one outcome each.

    Haar row blocks are exchangeable, so the mean of the per-draw fidelity
    sum_x sqrt(p_x / N) f_x of ``run_merging`` equals
    sqrt(N) E[sqrt(p_0) f_0] with N outcomes.  Draw i is the row block
    whose transpose is ``haar_columns_indexed(seed, i, i + 1, K|A|, L)``, the
    first L columns of a Haar unitary (the transpose of a Haar unitary is
    Haar); the largest array is that K|A| x L block, never the K^2|A||B||E|
    protocol state or a (K|A|)^2 unitary, and its entry count is held to the
    instance's cap.
    """
    inst = instance
    if draws < 2:
        raise MergingError("a standard error needs at least two draws")
    reg = inst.k_rank * inst.dim_a
    _check_entries("the K|A| x L row block", reg * inst.l_rank, inst.cap)
    rho_ae = _sender_env_marginal(inst)
    n_out = inst.num_outcomes
    samples = []
    for i in range(draws):
        rows = haar.haar_columns_indexed(inst.seed, i, i + 1, reg, inst.l_rank)
        p, f, _, _ = _outcome_kernel(rows.swapaxes(1, 2), rho_ae, inst.dim_a)
        samples.append(math.sqrt(n_out * float(p[0])) * float(f[0]))
    mean = float(np.mean(samples))
    std_err = float(np.std(samples, ddof=1) / math.sqrt(draws))
    cost = math.log2(inst.k_rank) - math.log2(inst.l_rank)
    return MergingEstimate(mean, std_err, samples, cost)


# ---------------------------------------------------------------------------
# entanglement-cost bounds
# ---------------------------------------------------------------------------

def _two_adic_valuation(n: int) -> int:
    v = 0
    while n % 2 == 0 and n > 1:
        n //= 2
        v += 1
    return v


def realize_cost(target_bits: float, dim_a: int) -> tuple[int, int]:
    """Smallest power-of-two (K, L) with log K - log L >= target_bits.

    The register constraint L | K * |A| limits how negative the cost can be:
    log K - log L >= -v2(|A|) for power-of-two registers.
    """
    c = max(math.ceil(target_bits - 1e-9), -_two_adic_valuation(dim_a))
    ell = max(0, -c)
    kappa = c + ell
    return 2 ** kappa, 2 ** ell


def cost_achievable(state: StateOperator | PureState, target: Sequence[str],
                    condition: Sequence[str], epsilon: float,
                    realize: bool = True) -> float:
    """Achievable entanglement cost: smoothed max-entropy plus protocol slack,
    rounded up to the nearest cost realizable with integer registers."""
    if epsilon <= 0:
        raise MergingError("achievability bound needs epsilon > 0")
    op = state.to_operator() if isinstance(state, PureState) else state
    h = entropy.h_max_smooth(op, tuple(target), tuple(condition),
                             epsilon * epsilon / 13.0).value
    raw = h - 4.0 * math.log2(epsilon) + 2.0 * LOG2_13
    if not realize:
        return raw
    d_a = 1
    for lab in target:
        d_a *= op.dims.dim_of(lab)
    k_dim, l_dim = realize_cost(raw, d_a)
    return math.log2(k_dim) - math.log2(l_dim)


def cost_bounds(state: StateOperator | PureState, target: Sequence[str],
                condition: Sequence[str], epsilon: float) -> tuple[float, float | None]:
    """(``cost_achievable``, ``cost_converse``), the converse None where it
    does not apply."""
    bound_ach = cost_achievable(state, target, condition, epsilon)
    try:
        bound_con = cost_converse(state, target, condition, epsilon)
    except MergingError:
        bound_con = None
    return bound_ach, bound_con


def cost_converse(state: StateOperator | PureState, target: Sequence[str],
                  condition: Sequence[str], epsilon: float) -> float:
    """Converse entanglement cost; valid only while 4 sqrt(eps) < 1."""
    if epsilon <= 0:
        raise MergingError("converse bound needs epsilon > 0")
    smooth = 4.0 * math.sqrt(epsilon)
    if smooth >= 1.0:
        raise MergingError(
            f"converse smoothing parameter 4 sqrt(eps) = {smooth:.3f} is not below 1")
    op = state.to_operator() if isinstance(state, PureState) else state
    h = entropy.h_max_smooth(op, tuple(target), tuple(condition), smooth).value
    return h + math.log2(epsilon) - 1.0
