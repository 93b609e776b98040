"""One-shot state merging: measurement isometry, Uhlmann decoder, fidelity
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
one Haar row block per draw, at costs where even that unitary would not
fit.  ``measurement_isometry`` and ``uhlmann_isometry`` are the explicit
protocol's pieces, kept for checking this shortcut against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qdecouple import entropy, haar
from qdecouple.linalg import (
    LabelError,
    PureState,
    StateOperator,
    check_cap,
    fidelity,
    pure_marginal,
    purified_distance,
    trace_norm,
    trace_out_leading,
)

LOG2_13 = math.log2(13.0)


class MergingError(ValueError):
    """Invalid merging instance or protocol failure."""


@dataclass(frozen=True)
class MergingInstance:
    """Tripartite pure state with sender/receiver/reference label sets plus
    the entanglement registers' Schmidt ranks.

    ``cap`` bounds the entry count of the largest array a run allocates:
    the (K|A|)^2 Haar unitary in ``run_merging`` and the K|A| x L row block
    in ``estimate_merging_fidelity``; None means ``linalg.DIM_CAP``.
    """

    psi: PureState
    k_rank: int
    l_rank: int
    epsilon_target: float
    seed: haar.RngSeed = haar.RngSeed(0)
    a_labels: tuple[str, ...] = ("A",)
    b_labels: tuple[str, ...] = ("B",)
    e_labels: tuple[str, ...] = ("E",)
    cap: int | None = None

    def __post_init__(self) -> None:
        want = set(self.a_labels) | set(self.b_labels) | set(self.e_labels)
        if want != set(self.psi.labels):
            raise MergingError(f"labels {sorted(want)} != state labels {self.psi.labels}")
        if self.k_rank < 1 or self.l_rank < 1:
            raise MergingError("Schmidt ranks must be positive")
        if (self.k_rank * self.dim_a) % self.l_rank != 0:
            raise MergingError(
                f"L = {self.l_rank} must divide K * |A| = {self.k_rank * self.dim_a}")

    @property
    def dim_a(self) -> int:
        d = 1
        for lab in self.a_labels:
            d *= self.psi.dims.dim_of(lab)
        return d

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

    def to_json(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "per_outcome": [{"x": x, "p": p, "fidelity": f}
                            for x, p, f in self.per_outcome],
            "cost_bits": self.cost_bits,
            "bound_achievable": self.bound_achievable,
            "bound_converse": self.bound_converse,
            "decoupled_fraction": self.decoupled_fraction,
            "seed": self.seed.to_json(),
        }


@dataclass
class MergingEstimate:
    """Monte Carlo estimate of the mean protocol fidelity over Haar draws."""

    fidelity: float
    std_err: float
    samples: list[float]
    cost_bits: float


def measurement_isometry(dim_aa0: int, l_rank: int, u: np.ndarray) -> np.ndarray:
    """W = sum_x P_x (x) |x>|x> after the unitary u on the combined register.

    P_x maps the x-th L-dimensional block to the output register, so W has
    shape (L * N * N, dim_aa0) with N = dim_aa0 / L outcome blocks.
    """
    if dim_aa0 % l_rank != 0:
        raise MergingError(f"L = {l_rank} must divide the register dimension {dim_aa0}")
    if u.shape != (dim_aa0, dim_aa0):
        raise MergingError(f"unitary shape {u.shape} != ({dim_aa0}, {dim_aa0})")
    n = dim_aa0 // l_rank
    w = np.zeros((l_rank * n * n, dim_aa0), dtype=complex)
    for x in range(n):
        for j in range(l_rank):
            row = (j * n + x) * n + x  # index order (A1, X_A, X_B)
            w[row, :] = u[x * l_rank + j, :]
    return w


def uhlmann_isometry(sigma_pure: PureState, target_pure: PureState,
                     bob_labels: Sequence[str], delta: float = 1e-6
                     ) -> tuple[np.ndarray, tuple[tuple[str, int], ...]]:
    """Partial isometry on the receiver side carrying sigma toward target.

    Both states are cut as (rest : receiver); the returned operator acts on
    the receiver factor of sigma and outputs the receiver factor of target,
    achieving fidelity equal to the fidelity of the rest-side marginals.
    The marginals must agree within purified distance ``delta``.
    """
    bob_set = set(bob_labels)
    rest = [lab for lab in sigma_pure.labels if lab not in bob_set]
    target_bob = [lab for lab in target_pure.labels if lab not in set(rest)]
    for lab in rest:
        if lab not in target_pure.labels:
            raise LabelError(f"shared label {lab!r} missing from target")
        if sigma_pure.dims.dim_of(lab) != target_pure.dims.dim_of(lab):
            raise LabelError(f"dimension mismatch on shared label {lab!r}")

    sig_rest = pure_marginal(sigma_pure, rest).permute(rest)
    tgt_rest = pure_marginal(target_pure, rest).permute(rest)
    dist = purified_distance(sig_rest, tgt_rest)
    if dist > delta:
        raise MergingError(
            f"marginals on {rest} differ by purified distance {dist:.3e} > {delta:.3e}")

    sig_mat = _cut_matrix(sigma_pure, rest, list(bob_labels))
    tgt_mat = _cut_matrix(target_pure, rest, target_bob)
    d_out = tgt_mat.shape[1]
    # domain = support of sigma's receiver marginal (right singular vectors)
    _, s_sig, vh_sig = np.linalg.svd(sig_mat, full_matrices=False)
    k_sig = int(np.sum(s_sig > 1e-12 * max(float(s_sig[0]) if s_sig.size else 0.0,
                                           1e-30)))
    dom = vh_sig.conj().T[:, :k_sig]
    if d_out < k_sig:
        raise MergingError("target receiver space too small for an isometry")
    # optimal receiver map: conjugated polar factor of G = T^H S restricted to
    # the domain, completed orthonormally on directions G annihilates
    g = (tgt_mat.conj().T @ sig_mat) @ dom
    u_g, s_g, vh_g = np.linalg.svd(g, full_matrices=False)
    rank = int(np.sum(s_g > 1e-13 * max(float(s_g[0]) if s_g.size else 0.0, 1e-30)))
    images = np.zeros((d_out, k_sig), dtype=complex)
    images[:, :rank] = u_g[:, :rank]
    if k_sig > rank:
        images[:, rank:] = _complete_isometry(u_g[:, :rank], k_sig - rank)
    vbar = images @ (dom @ vh_g.conj().T).conj().T
    v = vbar.conj()
    out_pairs = tuple((lab, target_pure.dims.dim_of(lab)) for lab in target_bob)
    return v, out_pairs


def _cut_matrix(psi: PureState, rest: Sequence[str], bob: Sequence[str]) -> np.ndarray:
    perm = psi.permute(list(rest) + list(bob))
    d_rest = 1
    for lab in rest:
        d_rest *= psi.dims.dim_of(lab)
    return perm.amplitudes.reshape(d_rest, -1)


def _complete_isometry(cols: np.ndarray, extra: int) -> np.ndarray:
    """Deterministic orthonormal completion of a set of orthonormal columns."""
    d = cols.shape[0]
    basis = [cols[:, i] for i in range(cols.shape[1])]
    out = []
    for j in range(d):
        if len(out) == extra:
            break
        v = np.zeros(d, dtype=complex)
        v[j] = 1.0
        for b in basis:
            v = v - b * np.vdot(b, v)
        norm = float(np.linalg.norm(v))
        if norm > 1e-7:
            v = v / norm
            basis.append(v)
            out.append(v)
    if len(out) < extra:
        raise MergingError("could not complete isometry")
    return np.stack(out, axis=1)


def run_merging(instance: MergingInstance,
                bounds: tuple[float, float | None] | None = None) -> MergingResult:
    """Run the merging protocol for one Haar draw, outcome by outcome.

    The draw is the unitary ``haar_unitary_indexed(seed, 0, K|A|)`` on the
    sender registers (A0, A); outcome x is its rows x L .. (x + 1) L.  Each
    outcome's probability, Uhlmann-decoder fidelity and decoupling test come
    from its receiver-independent A1 E marginal (``outcome_fidelity``), so
    the largest array is that (K|A|)^2 unitary, never the K^2|A||B||E|
    protocol state; its entry count is held to the instance's cap.
    ``bounds`` is ``cost_bounds`` of the instance's state and epsilon, which
    do not depend on the seed; it is computed here when not given.
    """
    inst = instance
    psi = inst.psi
    k_dim, l_dim = inst.k_rank, inst.l_rank
    d_a = inst.dim_a
    n_out = inst.num_outcomes
    reg = k_dim * d_a
    check_cap(reg * reg, inst.cap)
    rho_ae = _sender_env_marginal(inst)
    u = haar.haar_unitary_indexed(inst.seed, 0, reg)

    per_outcome: list[tuple[int, float, float]] = []
    decoupled = 0
    p_sum = 0.0
    overall = 0.0
    for x in range(n_out):
        p_x, state, ideal = _outcome_state(u[x * l_dim:(x + 1) * l_dim], rho_ae, d_a)
        if state is None:
            per_outcome.append((x, p_x, 0.0))
            continue
        p_sum += p_x
        if trace_norm(state - ideal) <= 4.0 * inst.epsilon_target:
            decoupled += 1
        f_x = fidelity(state, ideal)
        per_outcome.append((x, p_x, f_x))
        # classical outcome registers dephase, so the full-state fidelity is
        # the block fidelity sum_x sqrt(p_x / N) f_x against the uniform
        # outcome distribution of the reference protocol state
        overall += math.sqrt(p_x / n_out) * f_x

    if abs(p_sum - 1.0) > 1e-9:
        raise MergingError(f"outcome probabilities sum to {p_sum}")

    if bounds is None:
        bounds = cost_bounds(psi, inst.a_labels, inst.b_labels, inst.epsilon_target)
    bound_ach, bound_con = bounds
    cost = math.log2(k_dim) - math.log2(l_dim)
    return MergingResult(overall, per_outcome, cost, bound_ach, bound_con,
                         decoupled / max(n_out, 1), inst.seed)


def _sender_env_marginal(inst: MergingInstance) -> np.ndarray:
    """rho_AE as a matrix with the sender labels major."""
    sender_env = [*inst.a_labels, *inst.e_labels]
    return pure_marginal(inst.psi, sender_env).permute(sender_env).matrix


def _outcome_state(rows: np.ndarray, rho_ae: np.ndarray, dim_a: int
                   ) -> tuple[float, np.ndarray | None, np.ndarray]:
    """(p_x, sigma_x / p_x, I/L (x) rho_E) for the outcome with block ``rows``.

    sigma_x is the outcome's unnormalized A1 E marginal (see
    ``outcome_fidelity``); the normalized state is None when p_x < 1e-15.
    """
    l_dim, reg = rows.shape
    if reg % dim_a != 0:
        raise MergingError(f"register dimension {reg} is not a multiple of |A| = {dim_a}")
    k_dim = reg // dim_a
    d_e = rho_ae.shape[0] // dim_a
    # G as an (L|A|, L|A|) Gram matrix of the K-long columns of U_x
    cols = rows.reshape(l_dim, k_dim, dim_a).transpose(1, 0, 2).reshape(k_dim, -1)
    g = (cols.T @ cols.conj()).reshape(l_dim, dim_a, l_dim, dim_a) / k_dim
    rho = rho_ae.reshape(dim_a, d_e, dim_a, d_e)
    sigma = np.einsum("lamb,aebf->lemf", g, rho).reshape(l_dim * d_e, l_dim * d_e)
    ideal = np.kron(np.eye(l_dim) / l_dim, trace_out_leading(rho_ae, dim_a))
    p_x = float(np.trace(sigma).real)
    if p_x < 1e-15:
        return p_x, None, ideal
    return p_x, sigma / p_x, ideal


def outcome_fidelity(rows: np.ndarray, rho_ae: np.ndarray,
                     dim_a: int) -> tuple[float, float]:
    """(p_x, f_x) of the outcome whose block of the sender unitary is ``rows``.

    ``rows`` are the L rows U_x of the unitary on the K|A| register (index
    k |A| + a, A0 major) and ``rho_ae`` is the sender-reference marginal with
    the sender index major.  The outcome's A1 E marginal does not depend on
    the receiver:

        sigma_x = (1/K) sum G_x rho_AE,
        G_x[l, a, l', a'] = sum_k U_x[l, k, a] conj(U_x[l', k, a']),

    so p_x = tr sigma_x and, by Uhlmann's theorem, the decoder fidelity is
    f_x = F(sigma_x / p_x, I/L (x) rho_E): the values the explicit protocol
    gets from its K^2|A||B||E| state and a per-outcome Uhlmann isometry.
    """
    p_x, state, ideal = _outcome_state(rows, rho_ae, dim_a)
    return p_x, (0.0 if state is None else fidelity(state, ideal))


def estimate_merging_fidelity(instance: MergingInstance,
                              draws: int) -> MergingEstimate:
    """Mean protocol fidelity over ``draws`` Haar draws, one outcome each.

    Haar row blocks are exchangeable, so the mean of the per-draw fidelity
    sum_x sqrt(p_x / N) f_x of ``run_merging`` equals
    sqrt(N) E[sqrt(p_0) f_0] with N outcomes.  Draw i is the row block
    ``haar_row_block_indexed(seed, i, K|A|, L)``; the largest array is that
    K|A| x L block, never the K^2|A||B||E| protocol state or a (K|A|)^2
    unitary, and its entry count is held to the instance's cap.
    """
    inst = instance
    if draws < 2:
        raise MergingError("a standard error needs at least two draws")
    reg = inst.k_rank * inst.dim_a
    check_cap(reg * inst.l_rank, inst.cap)
    rho_ae = _sender_env_marginal(inst)
    n_out = inst.num_outcomes
    samples = []
    for i in range(draws):
        rows = haar.haar_row_block_indexed(inst.seed, i, reg, inst.l_rank)
        p_0, f_0 = outcome_fidelity(rows, rho_ae, inst.dim_a)
        samples.append(math.sqrt(n_out * p_0) * f_0)
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
