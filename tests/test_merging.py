"""Merging protocol tests: end-to-end runs, the entanglement-cost bounds,
and the explicit LOCC protocol (measurement isometry and Uhlmann decoder,
with their contracts) as the oracle for ``run_merging``."""

import math
from typing import Sequence

import numpy as np
import pytest

from qdecouple import entropy as ent
from qdecouple import haar
from qdecouple import merging as mg
from qdecouple import sdp
from qdecouple.linalg import (
    DimCapError,
    Dims,
    LabelError,
    PureState,
    dims_of,
    fidelity,
    maximally_entangled,
    pure_marginal,
    purified_distance,
    purify,
    random_density,
    random_pure,
    trace_norm,
    trace_out_leading,
)

from conftest import tensor_pure


def cc_state(k):
    """Classically correlated k-qubit state with purifying reference."""
    d = 2 ** k
    amps = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        amps[i, i, i] = 1.0 / math.sqrt(d)
    return PureState(dims_of(("A", d), ("B", d), ("E", d)), amps.reshape(-1))


# ---------------------------------------------------------------------------
# end-to-end protocol
# ---------------------------------------------------------------------------

def test_merging_trivial_sender_is_free():
    psi = random_pure(np.random.default_rng(9), (("A", 1), ("B", 2), ("E", 2)))
    res = mg.run_merging(mg.MergingInstance(psi, 1, 1, 0.3))
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.cost_bits == 0.0


def test_merging_probabilities_and_outcomes():
    res = mg.run_merging(mg.MergingInstance(cc_state(1), 8, 1, 0.3,
                                            seed=haar.RngSeed(3), cap=4096))
    total = sum(p for _, p, _ in res.per_outcome)
    assert total == pytest.approx(1.0, abs=1e-9)
    assert len(res.per_outcome) == 16
    assert all(0.0 <= f <= 1.0 + 1e-9 for _, _, f in res.per_outcome)


def test_merging_fidelity_grows_with_cost():
    fids = []
    for k_dim in (4, 16, 64):
        res = mg.run_merging(mg.MergingInstance(cc_state(2), k_dim, 1, 0.3,
                                                seed=haar.RngSeed(0), cap=1 << 19))
        fids.append(res.fidelity)
    assert fids[0] < fids[1] < fids[2]


def test_merging_entanglement_gain_on_shared_pair():
    # sender and receiver already share a maximally entangled pair: merging
    # at negative cost (returning entanglement) still succeeds exactly,
    # because the decoupling condition is trivial for |A1| = 1 ... here L=2
    phi = maximally_entangled("A", "B", 2)
    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 1)),
                    np.kron(phi.amplitudes, [1.0]))
    res = mg.run_merging(mg.MergingInstance(psi, 1, 2, 0.4, seed=haar.RngSeed(2),
                                            cap=256))
    assert res.cost_bits == -1.0
    assert res.fidelity == pytest.approx(1.0, abs=1e-9)
    assert ent.h_max(phi.to_operator(), ("A",), ("B",)).value == pytest.approx(
        -1.0, abs=1e-5)


def test_merging_divisibility_enforced():
    with pytest.raises(mg.MergingError):
        mg.MergingInstance(cc_state(1), 3, 4, 0.3)


def test_merging_deterministic_per_seed():
    r1 = mg.run_merging(mg.MergingInstance(cc_state(1), 8, 1, 0.3,
                                           seed=haar.RngSeed(7), cap=4096))
    r2 = mg.run_merging(mg.MergingInstance(cc_state(1), 8, 1, 0.3,
                                           seed=haar.RngSeed(7), cap=4096))
    assert r1.fidelity == r2.fidelity
    assert r1.per_outcome == r2.per_outcome


# ---------------------------------------------------------------------------
# cost bounds
# ---------------------------------------------------------------------------

def test_realize_cost_power_of_two():
    assert mg.realize_cost(2.3, 4) == (8, 1)
    assert mg.realize_cost(3.0, 4) == (8, 1)
    assert mg.realize_cost(-0.4, 4) == (1, 1)
    assert mg.realize_cost(-3.5, 4) == (1, 4)   # gain capped by v2(|A|)
    assert mg.realize_cost(-0.5, 3) == (1, 1)   # odd |A| cannot gain


def test_cost_achievable_formula_arithmetic():
    # maximally entangled pair: smoothed conditional max-entropy near -1
    phi = maximally_entangled("A", "B", 2)
    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 1)),
                    np.kron(phi.amplitudes, [1.0]))
    eps = 0.2
    raw = mg.cost_achievable(psi, ("A",), ("B",), eps, realize=False)
    h = ent.h_max_smooth(psi.to_operator(), ("A",), ("B",), eps * eps / 13).value
    want = h - 4 * math.log2(eps) + 2 * math.log2(13)
    assert raw == pytest.approx(want, abs=1e-9)
    assert raw == pytest.approx(-1 + 4 * math.log2(5) + 2 * math.log2(13), abs=0.1)
    rounded = mg.cost_achievable(psi, ("A",), ("B",), eps)
    assert rounded >= raw - 1e-9
    assert rounded == math.ceil(raw - 1e-9)


def test_cost_achievable_monotone_in_epsilon():
    psi = cc_state(1)
    values = [mg.cost_achievable(psi, ("A",), ("B",), e, realize=False)
              for e in (0.1, 0.2, 0.3)]
    assert values[0] > values[1] > values[2]


def test_cost_bounds_product_state_reduces_to_unconditional():
    rng = np.random.default_rng(10)
    rho_a = random_density(rng, (("A", 2),))
    psi_a = purify(rho_a, "E")
    psi = tensor_pure(psi_a, random_pure(rng, (("B", 2),)))
    radius = 0.05
    h_cond = ent.h_max_smooth(psi.to_operator(), ("A",), ("B",), radius).value
    h_marg = ent.h_max_smooth(pure_marginal(psi, ["A", "E"]), ("A",), (),
                              radius).value
    assert h_cond == pytest.approx(h_marg, abs=1e-4)


def test_cost_converse_validity_range():
    psi = cc_state(1)
    with pytest.raises(mg.MergingError):
        mg.cost_converse(psi, ("A",), ("B",), 0.3)   # 4 sqrt(eps) >= 1
    with pytest.raises(mg.MergingError):
        mg.cost_converse(psi, ("A",), ("B",), 0.0)
    val = mg.cost_converse(psi, ("A",), ("B",), 0.05)
    assert np.isfinite(val)


def test_cost_sandwich():
    eps = 0.05
    # diagonal family certifies at any smoothing radius
    for k in (1, 2):
        con = mg.cost_converse(cc_state(k), ("A",), ("B",), eps)
        ach = mg.cost_achievable(cc_state(k), ("A",), ("B",), eps, realize=False)
        assert con <= ach + 1e-9
    for seed in (0, 1, 2, 3):
        psi = random_pure(np.random.default_rng(seed), (("A", 2), ("B", 2), ("E", 2)))
        con = mg.cost_converse(psi, ("A",), ("B",), eps)
        ach = mg.cost_achievable(psi, ("A",), ("B",), eps, realize=False)
        assert con <= ach + 1e-9


def test_achievable_cost_past_200_iterations_certifies_in_one_solve(solve_calls):
    # test_cost_sandwich's seed 3: dense smoothing at eps^2/13 runs past 200
    # iterations, within the single solve's budget of 400
    psi = random_pure(np.random.default_rng(3), (("A", 2), ("B", 2), ("E", 2)))
    assert np.isfinite(mg.cost_achievable(psi, ("A",), ("B",), 0.05, realize=False))
    assert len(solve_calls) == 1
    assert solve_calls[0][1].iterations > 200


def test_achievable_cost_below_the_start_gate_starts_infeasible(solve_calls):
    # the same program smooths at eps^2/13 = 1.9e-4, below the radius from
    # which dense smoothing starts feasibly: one solve, with no start, ending
    # at the iteration limit as it always has
    psi = random_pure(np.random.default_rng(3), (("A", 2), ("B", 2), ("E", 2)))
    mg.cost_achievable(psi, ("A",), ("B",), 0.05, realize=False)
    assert [kwargs for kwargs, _ in solve_calls] == [
        {"start": None, "gap_tol": ent._cert_gap_tol, "max_iterations": 400}]
    assert solve_calls[0][1].status is sdp.SdpStatus.MAX_ITER
    assert solve_calls[0][1].iterations == 400


def test_achievable_cost_certifies_through_the_fallback_solve(solve_calls):
    # seed 4's dense smoothing at eps^2/13, below the start gate: the first
    # solve ends uncertified at its 400-iteration limit, and the fallback's
    # smaller regularization and shorter steps certify the value
    psi = random_pure(np.random.default_rng(4), (("A", 2), ("B", 2), ("E", 2)))
    assert np.isfinite(mg.cost_achievable(psi, ("A",), ("B",), 0.05))
    assert [(kwargs["max_iterations"], kwargs.get("reg"), sol.status)
            for kwargs, sol in solve_calls] == [
        (400, None, sdp.SdpStatus.MAX_ITER), (600, 1e-14, sdp.SdpStatus.OPTIMAL)]
    fallback = solve_calls[1][1]
    lo, hi = sorted((fallback.primal_obj, fallback.dual_obj))
    assert math.log2(hi / lo) <= ent.CERT_LIMIT_BITS


def test_cost_bounds_of_diagonal_marginals_solve_no_sdp(solve_calls):
    # the merge benchmark's three instances: each A:E marginal is diagonal,
    # so both cost bounds smooth through the exact dual, with no SDP
    p = (0.5, 0.25, 0.125, 0.125)
    amps = np.zeros((2, 4, 2), dtype=complex)
    for a in range(2):
        for e in range(2):
            amps[a, 2 * a + e, e] = math.sqrt(p[2 * a + e])
    cq = PureState(dims_of(("A", 2), ("B", 4), ("E", 2)), amps.reshape(-1))
    for psi, eps in ((cc_state(2), 0.3), (cc_state(1), 0.3), (cq, 0.06)):
        ach, con = mg.cost_bounds(psi, ("A",), ("B",), eps)
        assert np.isfinite(ach) and (con is None or con <= ach + 1e-9)
    assert not solve_calls


def test_merging_cost_trend_toward_conditional_entropy():
    beta = cc_state(1)
    h_vn = ent.von_neumann(beta.to_operator(), ("A",), ("B",))
    state = None
    rates = []
    for n in range(1, 4):
        piece = beta.relabel({"A": f"A{n}", "B": f"B{n}", "E": f"E{n}"})
        state = piece if state is None else tensor_pure(state, piece)
        a = tuple(f"A{i}" for i in range(1, n + 1))
        b = tuple(f"B{i}" for i in range(1, n + 1))
        rates.append(mg.cost_achievable(state, a, b, 0.3, realize=False) / n)
    assert rates[0] > rates[1] > rates[2]
    assert all(r >= h_vn - 1e-6 for r in rates)


# ---------------------------------------------------------------------------
# the explicit protocol's measurement isometry
# ---------------------------------------------------------------------------

def measurement_isometry(dim_aa0: int, l_rank: int, u: np.ndarray) -> np.ndarray:
    """W = sum_x P_x (x) |x>|x> after the unitary u on the combined register.

    P_x maps the x-th L-dimensional block to the output register, so W has
    shape (L * N * N, dim_aa0) with N = dim_aa0 / L outcome blocks.
    """
    if dim_aa0 % l_rank != 0:
        raise mg.MergingError(
            f"L = {l_rank} must divide the register dimension {dim_aa0}")
    if u.shape != (dim_aa0, dim_aa0):
        raise mg.MergingError(f"unitary shape {u.shape} != ({dim_aa0}, {dim_aa0})")
    n = dim_aa0 // l_rank
    w = np.zeros((l_rank * n * n, dim_aa0), dtype=complex)
    for x in range(n):
        for j in range(l_rank):
            row = (j * n + x) * n + x  # index order (A1, X_A, X_B)
            w[row, :] = u[x * l_rank + j, :]
    return w


def test_measurement_isometry_contracts():
    rng = haar.generator(0)
    u = haar.haar_unitary(4, rng)
    w = measurement_isometry(4, 2, u)
    assert w.shape == (2 * 2 * 2, 4)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)
    # two blocks of rank two
    t = w.reshape(2, 2, 2, 4)
    for x in range(2):
        block = t[:, x, x, :]
        assert np.linalg.matrix_rank(block) == 2


def test_measurement_isometry_single_outcome():
    u = haar.haar_unitary(4, haar.generator(1))
    w = measurement_isometry(4, 4, u)
    np.testing.assert_allclose(w.reshape(4, 1, 1, 4)[:, 0, 0, :], u, atol=1e-14)


def test_measurement_isometry_rank_one_blocks():
    u = haar.haar_unitary(4, haar.generator(2))
    w = measurement_isometry(4, 1, u)
    assert w.shape == (16, 4)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(4), atol=1e-12)


def test_measurement_isometry_divisibility():
    u = haar.haar_unitary(4, haar.generator(3))
    with pytest.raises(mg.MergingError):
        measurement_isometry(4, 3, u)


# ---------------------------------------------------------------------------
# the explicit protocol's Uhlmann decoder
# ---------------------------------------------------------------------------

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
        raise mg.MergingError(
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
        raise mg.MergingError("target receiver space too small for an isometry")
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
        raise mg.MergingError("could not complete isometry")
    return np.stack(out, axis=1)


def test_uhlmann_identity_case():
    psi = random_pure(np.random.default_rng(4), (("R", 2), ("Q", 3)))
    v, out = uhlmann_isometry(psi, psi, ("Q",))
    eta = apply_matrix_pure(psi, v, ("Q",), out)
    assert abs(inner(psi, eta)) == pytest.approx(1.0, abs=1e-12)


def test_uhlmann_recovers_local_unitary():
    phi = maximally_entangled("R", "Q", 2)
    u = haar.haar_unitary(2, haar.generator(5))
    rotated = apply_matrix_pure(phi, u, ("Q",))
    v, out = uhlmann_isometry(phi, rotated, ("Q",))
    eta = apply_matrix_pure(phi, v, ("Q",), out)
    assert abs(inner(rotated, eta)) == pytest.approx(1.0, abs=1e-10)


def test_uhlmann_between_random_purifications():
    rng = np.random.default_rng(6)
    for _ in range(10):
        rho = random_density(rng, (("R", 3),), rank=int(rng.integers(1, 4)))
        psi1 = purify(rho, "Q")
        psi2 = purify(rho, "Q2")
        u = haar.haar_unitary(psi2.dims.dim_of("Q2"), haar.generator(int(rng.integers(100))))
        psi2 = apply_matrix_pure(psi2, u, ("Q2",))
        v, out = uhlmann_isometry(psi1, psi2, ("Q",))
        eta = apply_matrix_pure(psi1, v, ("Q",), out)
        assert abs(inner(psi2, eta)) == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_equality_for_unequal_marginals():
    # SVD-matching oracle: output fidelity equals the marginal fidelity even
    # far from the equal-marginal regime
    rng = np.random.default_rng(7)
    for _ in range(10):
        s1 = random_pure(rng, (("R", 3), ("Q", 4)))
        s2 = random_pure(rng, (("R", 3), ("Q2", 5)))
        v, out = uhlmann_isometry(s1, s2, ("Q",), delta=2.0)
        eta = apply_matrix_pure(s1, v, ("Q",), out)
        got = abs(inner(s2, eta))
        want = fidelity(pure_marginal(s1, ["R"]), pure_marginal(s2, ["R"]))
        assert got == pytest.approx(want, abs=1e-10)
        # the decoder is an isometry on the support it acts on
        np.testing.assert_allclose(v @ v.conj().T @ v, v, atol=1e-10)


def test_uhlmann_enforces_marginal_delta():
    rng = np.random.default_rng(8)
    s1 = random_pure(rng, (("R", 2), ("Q", 2)))
    s2 = random_pure(rng, (("R", 2), ("Q2", 2)))
    with pytest.raises(mg.MergingError):
        uhlmann_isometry(s1, s2, ("Q",), delta=1e-9)


# ---------------------------------------------------------------------------
# explicit LOCC protocol, the oracle for run_merging
# ---------------------------------------------------------------------------

def apply_matrix_pure(psi: PureState, m: np.ndarray, on: Sequence[str],
                      out: Sequence[tuple[str, int]] | None = None) -> PureState:
    """(M (x) I) |psi> on the ``on`` subsystems, M's output labelled ``out``
    (the ``on`` labels when omitted), ahead of the remaining labels."""
    front = Dims(tuple((lab, psi.dims.dim_of(lab)) for lab in on))
    rest = Dims(tuple(p for p in psi.dims.pairs if p[0] not in set(on)))
    perm = psi.permute(list(on) + list(rest.labels))
    vec = np.asarray(m, dtype=complex) @ perm.amplitudes.reshape(front.total, -1)
    out_pairs = front.pairs if out is None else tuple(out)
    return PureState(Dims(out_pairs + rest.pairs), vec.reshape(-1), validate=False)


def inner(a: PureState, b: PureState) -> complex:
    """<a|b> with b permuted into a's label order."""
    return complex(np.vdot(a.amplitudes, b.permute(a.labels).amplitudes))


def rotated_protocol_state(inst):
    """First half of the explicit protocol: Phi_K on (A0, B0) next to psi, and
    the sender's Haar unitary on (A0, A) into the register R.

    Returns the unitary, the unrotated state and the rotated amplitudes as a
    (K|A|, rest) matrix with R major, plus the labels and dimensions of the
    rest.
    """
    reg = inst.k_rank * inst.dim_a
    theta = tensor_pure(maximally_entangled("A0", "B0", inst.k_rank), inst.psi)
    u = haar.haar_unitary_indexed(inst.seed, 0, reg)
    rotated = apply_matrix_pure(theta, u, on=("A0", "A"), out=(("R", reg),))
    perm = rotated.permute(["R"] + [lab for lab in rotated.labels if lab != "R"])
    rest_pairs = tuple(p for p in perm.dims.pairs if p[0] != "R")
    return u, theta, perm.amplitudes.reshape(reg, -1), rest_pairs


def explicit_protocol(inst):
    """The LOCC protocol on its full K^2|A||B||E| state, as the oracle for
    ``run_merging``: per outcome, the block measurement's post-measurement
    state, its A1 E marginal for the decoupling test, and the receiver's
    Uhlmann isometry on (B0, B) toward Phi_L (x) psi with A moved to the
    receiver.  Returns (per_outcome, fidelity, decoupled_fraction)."""
    l_dim, n_out = inst.l_rank, inst.num_outcomes
    _, _, amps, rest_pairs = rotated_protocol_state(inst)
    target = tensor_pure(maximally_entangled("A1", "B1", l_dim),
                         inst.psi.relabel({"A": "A'"}))
    rho_e = pure_marginal(inst.psi, ["E"]).matrix
    ideal = np.kron(np.eye(l_dim) / l_dim, rho_e)
    per_outcome, overall, decoupled = [], 0.0, 0
    for x in range(n_out):
        block = amps[x * l_dim:(x + 1) * l_dim]
        p_x = float(np.vdot(block, block).real)
        sigma_x = PureState(Dims((("A1", l_dim),) + rest_pairs),
                            (block / math.sqrt(p_x)).reshape(-1), validate=False)
        marg = pure_marginal(sigma_x, ["A1", "E"]).matrix
        decoupled += trace_norm(marg - ideal) <= 4.0 * inst.epsilon_target
        v, out_pairs = uhlmann_isometry(sigma_x, target,
                                        bob_labels=["B0", "B"],
                                        delta=1.0)
        eta_x = apply_matrix_pure(sigma_x, v, on=["B0", "B"], out=out_pairs)
        f_x = abs(inner(target, eta_x))
        per_outcome.append((x, p_x, f_x))
        overall += math.sqrt(p_x / n_out) * f_x
    return per_outcome, overall, decoupled / n_out


def test_protocol_matches_explicit_isometry():
    # the in-protocol block slicing equals applying the explicit W, and the
    # classical flags are perfectly correlated (no cross-outcome amplitude)
    inst = mg.MergingInstance(cc_state(1), 2, 2, 0.3, seed=haar.RngSeed(9))
    u, theta, amps, _ = rotated_protocol_state(inst)
    k_dim, l_dim, n_out = inst.k_rank, inst.l_rank, inst.num_outcomes
    w = measurement_isometry(k_dim * 2, l_dim, u)
    theta_perm = theta.permute(["A0", "A"] + [l for l in theta.labels
                                              if l not in ("A0", "A")])
    full = (w @ theta_perm.amplitudes.reshape(k_dim * 2, -1)).reshape(
        l_dim, n_out, n_out, -1)
    for x in range(n_out):
        for x2 in range(n_out):
            block = full[:, x, x2, :]
            if x != x2:
                assert np.abs(block).max() <= 1e-14
            else:
                np.testing.assert_allclose(block, amps[x * l_dim:(x + 1) * l_dim],
                                           atol=1e-12)


# ---------------------------------------------------------------------------
# per-outcome marginals and the row-block estimator
# ---------------------------------------------------------------------------

def test_run_merging_matches_explicit_protocol():
    # run_merging's receiver-independent marginals reproduce the explicit
    # protocol's per-outcome probabilities and Uhlmann-decoder fidelities,
    # its overall fidelity and its decoupled fraction; at eps = 0.06 the
    # cc(2) outcomes fall on both sides of the 4 eps decoupling test
    psi_r = random_pure(np.random.default_rng(5), (("A", 2), ("B", 3), ("E", 3)))
    fractions = []
    for psi, k_dim, l_dim, eps in ((cc_state(2), 8, 1, 0.06), (psi_r, 4, 2, 0.3),
                                   (psi_r, 8, 4, 0.3)):
        inst = mg.MergingInstance(psi, k_dim, l_dim, eps, seed=haar.RngSeed(4),
                                  cap=1 << 16)
        res = mg.run_merging(inst)
        per_outcome, overall, decoupled = explicit_protocol(inst)
        assert len(res.per_outcome) == inst.num_outcomes
        for (x, p_x, f_x), (y, p_y, f_y) in zip(res.per_outcome, per_outcome):
            assert x == y
            assert p_x == pytest.approx(p_y, abs=1e-12)
            assert f_x == pytest.approx(f_y, abs=1e-12)
        assert res.fidelity == pytest.approx(overall, abs=1e-12)
        assert res.decoupled_fraction == pytest.approx(decoupled, abs=1e-12)
        fractions.append(decoupled)
    assert 0.0 < fractions[0] < 1.0


def test_run_merging_cap_bounds_the_unitary():
    # K|A| = 16: the 256-entry unitary is the largest array, and the
    # 512-amplitude protocol state is never built
    def make(cap):
        return mg.MergingInstance(cc_state(1), 8, 1, 0.3, cap=cap)
    with pytest.raises(DimCapError):
        mg.run_merging(make(255))
    assert len(mg.run_merging(make(256)).per_outcome) == 16


def test_merging_default_cap_counts_entries():
    # no cap means merging.ENTRY_CAP entries: the C9 companion's K|A| = 256
    # unitary has 65536, far above linalg.DIM_CAP, which bounds a dimension
    assert len(mg.run_merging(mg.MergingInstance(cc_state(2), 64, 1, 0.3)).per_outcome) == 256
    with pytest.raises(DimCapError, match="Haar unitary has 65536 entries"):
        mg.run_merging(mg.MergingInstance(cc_state(2), 64, 1, 0.3, cap=65535))
    with pytest.raises(DimCapError, match=r"x L row block has 131072 entries"):
        mg.estimate_merging_fidelity(
            mg.MergingInstance(cc_state(2), 1 << 15, 1, 0.3, cap=1 << 16), draws=2)


def test_estimator_matches_run_merging_at_desk_scale():
    # the desk-scale companion of C9: K = 64, L = 1, 20 run_merging seeds
    psi, eps = cc_state(2), 0.3
    fids = [mg.run_merging(mg.MergingInstance(psi, 64, 1, eps, seed=haar.RngSeed(s),
                                              cap=1 << 19)).fidelity
            for s in range(20)]
    mean = float(np.mean(fids))
    std_err = float(np.std(fids, ddof=1) / math.sqrt(len(fids)))
    est = mg.estimate_merging_fidelity(
        mg.MergingInstance(psi, 64, 1, eps, cap=1 << 19), draws=2000)
    assert est.cost_bits == 6.0
    assert len(est.samples) == 2000
    assert abs(est.fidelity - mean) <= 3 * math.hypot(est.std_err, std_err)


def test_estimator_validation():
    inst = mg.MergingInstance(cc_state(1), 8, 1, 0.3, cap=1 << 10)
    with pytest.raises(mg.MergingError):
        mg.estimate_merging_fidelity(inst, draws=1)
    with pytest.raises(DimCapError):
        mg.estimate_merging_fidelity(
            mg.MergingInstance(cc_state(2), 1 << 15, 1, 0.3, cap=1 << 16), draws=2)
    est = mg.estimate_merging_fidelity(inst, draws=4)
    again = mg.estimate_merging_fidelity(inst, draws=4)
    assert est.samples == again.samples


# ---------------------------------------------------------------------------
# the per-outcome route, the oracle for the stacked outcome kernel
# ---------------------------------------------------------------------------

def cq_state():
    """sum_{a,e} sqrt(p_ae) |a>|(a,e)>|e> on A:2, B:4, E:2."""
    p = (0.5, 0.25, 0.125, 0.125)
    amps = np.zeros((2, 4, 2), dtype=complex)
    for a in range(2):
        for e in range(2):
            amps[a, 2 * a + e, e] = math.sqrt(p[2 * a + e])
    return PureState(dims_of(("A", 2), ("B", 4), ("E", 2)), amps.reshape(-1))


def outcome_by_outcome(rows, rho_ae, d_a):
    """(p_x, f_x, sigma_x / p_x or None, I/L (x) rho_E) for one outcome, by
    the per-outcome einsum, ``linalg.fidelity`` and no stacking."""
    l_dim, reg = rows.shape
    k_dim, d_e = reg // d_a, rho_ae.shape[0] // d_a
    cols = rows.reshape(l_dim, k_dim, d_a).transpose(1, 0, 2).reshape(k_dim, -1)
    g = (cols.T @ cols.conj()).reshape(l_dim, d_a, l_dim, d_a) / k_dim
    rho = rho_ae.reshape(d_a, d_e, d_a, d_e)
    sigma = np.einsum("lamb,aebf->lemf", g, rho).reshape(l_dim * d_e, l_dim * d_e)
    ideal = np.kron(np.eye(l_dim) / l_dim, trace_out_leading(rho_ae, d_a))
    p_x = float(np.trace(sigma).real)
    if p_x < 1e-15:
        return p_x, 0.0, None, ideal
    return p_x, fidelity(sigma / p_x, ideal), sigma / p_x, ideal


def sender_env(inst):
    return pure_marginal(inst.psi, ["A", "E"]).permute(["A", "E"]).matrix


def test_outcome_kernel_matches_the_per_outcome_route():
    # the stacked kernel reproduces the per-outcome route bit for bit: the
    # C9 companion (K = 64, 256 outcomes), C11, the L = 2 cq instance of the
    # benchmark and L = 8 on a random state, whose 24 x 24 marginals sum
    # their traces pairwise
    psi_r = random_pure(np.random.default_rng(12), (("A", 4), ("B", 2), ("E", 3)))
    for psi, k_dim, l_dim, eps in ((cc_state(2), 64, 1, 0.3), (cc_state(1), 8, 1, 0.3),
                                   (cq_state(), 8, 2, 0.06), (psi_r, 8, 8, 0.3)):
        inst = mg.MergingInstance(psi, k_dim, l_dim, eps, seed=haar.RngSeed(3),
                                  cap=1 << 16)
        res = mg.run_merging(inst, bounds=(0.0, None))
        rho_ae, n_out = sender_env(inst), inst.num_outcomes
        u = haar.haar_unitary_indexed(inst.seed, 0, k_dim * inst.dim_a)
        per_outcome, overall, decoupled = [], 0.0, 0
        for x in range(n_out):
            p_x, f_x, state, ideal = outcome_by_outcome(
                u[x * l_dim:(x + 1) * l_dim], rho_ae, inst.dim_a)
            per_outcome.append((x, p_x, f_x))
            if state is not None:
                decoupled += trace_norm(state - ideal) <= 4.0 * eps
                overall += math.sqrt(p_x / n_out) * f_x
        assert res.per_outcome == per_outcome
        assert res.fidelity == overall
        assert res.decoupled_fraction == decoupled / n_out


def test_estimator_matches_the_per_outcome_route():
    inst = mg.MergingInstance(cq_state(), 8, 2, 0.06, seed=haar.RngSeed(8))
    est = mg.estimate_merging_fidelity(inst, draws=6)
    rho_ae, reg = sender_env(inst), inst.k_rank * inst.dim_a
    want = []
    for i in range(6):
        rows = haar.haar_columns_indexed(inst.seed, i, i + 1, reg, inst.l_rank)[0].T
        p_0, f_0, _, _ = outcome_by_outcome(rows, rho_ae, inst.dim_a)
        want.append(math.sqrt(inst.num_outcomes * p_0) * f_0)
    assert est.samples == want
