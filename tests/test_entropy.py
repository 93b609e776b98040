"""Entropy tests: closed-form reference values, independent brute-force
oracles (spectral sums, grid searches, one-parameter families), and the
randomized property suites behind the smooth-entropy calculus.
"""

import dataclasses
import math

import numpy as np
import pytest

from qdecouple import entropy as ent
from qdecouple import sdp
from qdecouple.decoupling import classical_state, entangled_state, independent_state
from qdecouple.linalg import (
    PureState,
    StateOperator,
    dims_of,
    hermitian_part,
    partial_trace,
    psd_power,
    pure_marginal,
    purified_distance,
    random_density,
    random_pure,
    tensor,
)

from conftest import maximally_mixed


def diag_state(probs, pairs):
    return StateOperator(dims_of(*pairs), np.diag(np.asarray(probs, dtype=complex)))


# ---------------------------------------------------------------------------
# reference values for the three bipartite state families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_reference_state_min_entropies(k):
    assert ent.h_min(independent_state(k), ("A",), ("E",)).value == pytest.approx(k, abs=1e-6)
    assert ent.h_min(classical_state(k), ("A",), ("E",)).value == pytest.approx(0.0, abs=1e-6)
    assert ent.h_min(entangled_state(k), ("A",), ("E",)).value == pytest.approx(-k, abs=1e-12)


def test_hmin_witness_is_feasible():
    res = ent.h_min(classical_state(1), ("A",), ("E",))
    sigma = res.optimizer_sigma
    assert sigma is not None
    assert sigma.trace == pytest.approx(1.0, abs=1e-8)
    # I (x) sigma' - rho >= 0 at sigma' = 2^(-value) sigma
    lam = 2.0 ** (-res.value)
    gap_op = lam * np.kron(np.eye(2), sigma.matrix) - classical_state(1).matrix
    assert float(np.linalg.eigvalsh(gap_op)[0]) >= -1e-7


# ---------------------------------------------------------------------------
# von Neumann
# ---------------------------------------------------------------------------

def test_von_neumann_flat():
    for k in (1, 2, 3):
        st = maximally_mixed((("A", 2 ** k),))
        assert ent.von_neumann(st, ("A",)) == pytest.approx(k, abs=1e-12)


def test_von_neumann_entangled_is_minus_k():
    for k in (1, 2):
        assert ent.von_neumann(entangled_state(k), ("A",), ("E",)) == pytest.approx(
            -k, abs=1e-9)


def test_von_neumann_spectral_oracle_and_bounds():
    rng = np.random.default_rng(30)
    for _ in range(20):
        st = random_density(rng, (("A", 2), ("B", 3)))
        w_joint = np.linalg.eigvalsh(st.matrix)
        w_b = np.linalg.eigvalsh(partial_trace(st, ["B"]).matrix)

        def shannon(w):
            w = w[w > 1e-15]
            return float(-(w * np.log2(w)).sum())

        want = shannon(w_joint) - shannon(w_b)
        got = ent.von_neumann(st, ("A",), ("B",))
        assert got == pytest.approx(want, abs=1e-9)
        assert -1.0 - 1e-9 <= got <= 1.0 + 1e-9  # within +- log|A|


def test_von_neumann_rejects_subnormalized():
    sub = StateOperator(dims_of(("A", 2)), np.diag([0.4, 0.4]))
    with pytest.raises(ent.EntropyError):
        ent.von_neumann(sub, ("A",))


# ---------------------------------------------------------------------------
# min-entropy
# ---------------------------------------------------------------------------

def test_hmin_unconditional_closed_form():
    st = diag_state([0.5, 0.3, 0.2], (("A", 3),))
    assert ent.h_min(st, ("A",)).value == pytest.approx(1.0, abs=1e-12)


def test_hmin_dimension_lower_bound():
    # H_min(A|B) >= -log|B| for normalized states
    rng = np.random.default_rng(31)
    for _ in range(15):
        st = random_density(rng, (("A", 3), ("B", 2)))
        assert ent.h_min(st, ("A",), ("B",)).value >= -1.0 - 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hmin_of_reference_diagonal_states_is_closed_form(k, solve_calls):
    for build, want in ((independent_state, k), (classical_state, 0)):
        res = ent.h_min(build(k), ("A",), ("E",))
        assert abs(res.value - want) <= 1e-12
        assert res.certificate_gap <= 1e-12
    assert not solve_calls


def test_hmin_diag_matches_sdp_oracle(solve_calls):
    # product-diagonal states, normalized and subnormalized, some with an
    # all-zero column: the closed form and the SDP route, kept as its
    # oracle, certify overlapping intervals
    rng = np.random.default_rng(49)
    for trial in range(12):
        d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)
        if trial % 3 == 0:
            p[:, int(rng.integers(d_b))] = 0.0
            p /= p.sum()
        p *= 0.7 if trial % 2 else 1.0
        st = diag_state(p.reshape(-1), (("A", d_a), ("B", d_b)))
        res = ent.h_min(st, ("A",), ("B",))
        assert not solve_calls
        value, sigma_prime, width = ent._hmin_sdp(st.matrix, d_a, d_b)
        assert abs(res.value - value) <= (res.certificate_gap + width) / 2 + 1e-12, trial
        assert res.value == pytest.approx(-math.log2(p.max(axis=0).sum()), abs=1e-12)
        np.testing.assert_allclose(res.optimizer_sigma.matrix,
                                   np.diag(p.max(axis=0)) / p.max(axis=0).sum(), atol=1e-15)
        solve_calls.clear()


def test_hmin_diag_width_covers_off_diagonal_noise():
    # off-diagonal entries the diagonal test lets through widen the interval
    # so that it still holds the optimum
    p = np.array([0.4, 0.1, 0.2, 0.3])
    rho = np.diag(p).astype(complex)
    rho[0, 3] = rho[3, 0] = 1e-14
    value, _, width = ent._hmin_diag(rho, 2, 2)
    sdp_value, _, sdp_width = ent._hmin_sdp(rho, 2, 2)
    assert 0 < width <= 1e-12
    assert abs(value - sdp_value) <= (width + sdp_width) / 2


def test_hmin_of_zero_diagonal_operator_raises():
    st = StateOperator(dims_of(("A", 2), ("B", 2)), np.zeros((4, 4), dtype=complex),
                       validate=False)
    with pytest.raises(ent.EntropyError, match="zero operator"):
        ent.h_min(st, ("A",), ("B",))


def isotropic(d, f):
    """F Phi + (1 - F)(I - Phi)/(d^2 - 1) on A:d,B:d, Phi maximally entangled."""
    phi = np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d)
    proj = np.outer(phi, phi.conj())
    rho = f * proj + (1 - f) * (np.eye(d * d) - proj) / (d * d - 1)
    return StateOperator(dims_of(("A", d), ("B", d)), rho)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_isotropic_hmin_exact_value(d, solve_calls):
    # twirl symmetry reduces the program to -log2(d max(F, (1 - F)/(d^2 - 1)))
    for f in (0.3, 0.7, 0.95):
        want = -math.log2(d * max(f, (1 - f) / (d * d - 1)))
        value, _, width = ent._hmin_sdp(isotropic(d, f).matrix, d, d)
        assert abs(value - want) <= width / 2, (f, value - want, width)
    solve_calls.clear()
    res = ent.h_min(isotropic(d, 1.0), ("A",), ("B",))
    assert not solve_calls
    assert abs(res.value + math.log2(d)) <= 1e-12
    assert res.certificate_gap <= 1e-12


def pure_route_cases():
    rng = np.random.default_rng(50)
    for k in (1, 2, 3):
        yield entangled_state(k), 2 ** k, 2 ** k
    for d_a, d_b in ((2, 3), (3, 2), (4, 4), (2, 8)):
        yield random_pure(rng, (("A", d_a), ("B", d_b))).to_operator(), d_a, d_b
    psi = random_pure(rng, (("A", 2), ("B", 3))).to_operator()
    mixed = random_density(rng, (("A", 2), ("B", 3)))
    yield StateOperator(psi.dims, 0.7 * psi.matrix), 2, 3
    yield StateOperator(psi.dims, (1 - 1e-12) * psi.matrix + 1e-12 * mixed.matrix), 2, 3


def test_hmin_pure_route_matches_sdp_oracle(solve_calls):
    # the closed form runs no solve; the SDP, kept as its oracle, certifies
    # an overlapping interval, and the witness is feasible
    for case, (st, d_a, d_b) in enumerate(pure_route_cases()):
        res = ent.h_min(st, st.labels[:1], st.labels[1:])
        assert not solve_calls, case
        # exactly pure inputs pin the value to rounding; 1e-12 of mixing
        # widens it by about 2 d_A 1e-12 / (S^2 ln 2)
        assert res.certificate_gap <= (1e-11 if case == 8 else 1e-12), case
        value, _, width = ent._hmin_sdp(st.matrix, d_a, d_b)
        assert abs(res.value - value) <= (res.certificate_gap + width) / 2, case
        if case < 3:
            assert abs(res.value + case + 1) <= 1e-12
            assert abs(value + case + 1) <= width / 2
        assert abs(np.trace(res.optimizer_sigma.matrix) - 1) <= 1e-12, case
        _, sigma_prime, _ = ent._hmin_pure(st.matrix, d_a, d_b)
        gap_op = np.kron(np.eye(d_a), sigma_prime) - st.matrix
        assert float(np.linalg.eigvalsh(gap_op)[0]) >= -1e-12, case
        assert abs(np.trace(sigma_prime).real * 2.0 ** res.value - 1) <= 1e-11, case
        solve_calls.clear()


def test_hmin_pure_route_gate(solve_calls):
    rng = np.random.default_rng(51)
    psi = random_pure(rng, (("A", 2), ("B", 3))).to_operator()
    mixed = random_density(rng, (("A", 2), ("B", 3)))
    # 1e-3 of mixing widens the closed form's sandwich past the limit
    near = StateOperator(psi.dims, (1 - 1e-3) * psi.matrix + 1e-3 * mixed.matrix)
    res = ent.h_min(near, ("A",), ("B",))
    assert len(solve_calls) == 1
    assert res.certificate_gap <= ent.CERT_LIMIT_BITS
    assert ent._hmin_pure(near.matrix, 2, 3) is None
    assert ent._hmin_pure(mixed.matrix, 2, 3) is None

    # 1.2e-8 of an orthogonal pure state on A:32,B:4 makes the sandwich
    # 1 -+ 32 t 1.1e-6 bits wide: no closed form
    a, b = random_pure(rng, (("A", 32),)), random_pure(rng, (("B", 4),))
    prod = np.kron(a.amplitudes, b.amplitudes)
    other = random_pure(rng, (("A", 32), ("B", 4))).amplitudes
    other -= np.vdot(prod, other) * prod
    other /= np.linalg.norm(other)
    wide = np.outer(prod, prod.conj()) + 1.2e-8 * np.outer(other, other.conj())
    assert ent._hmin_pure(wide, 32, 4) is None


def test_hmin_pure_witness_feasible_at_gate():
    # 3e-7 of mixing on 2x3 is about the most the route accepts; the pure
    # part's witness S sqrt(rho_B) alone misses the rest by about t / 4,
    # S sqrt(rho_B) + t I_B covers it
    rng = np.random.default_rng(53)
    psi = random_pure(rng, (("A", 2), ("B", 3))).to_operator().matrix
    mixed = random_density(rng, (("A", 2), ("B", 3))).matrix
    assert ent._hmin_pure((1 - 4e-7) * psi + 4e-7 * mixed, 2, 3) is None
    rho = (1 - 3e-7) * psi + 3e-7 * mixed
    value, sigma_prime, width = ent._hmin_pure(rho, 2, 3)
    assert 0.8 * ent.CERT_LIMIT_BITS <= width <= ent.CERT_LIMIT_BITS
    gap_op = np.kron(np.eye(2), sigma_prime) - rho
    assert float(np.linalg.eigvalsh(gap_op)[0]) >= -1e-15
    t = float(np.abs(np.linalg.eigvalsh(rho)[:-1]).sum())
    assert abs(np.trace(sigma_prime).real - 2.0 ** (-value) - 3 * t) <= 1e-15


def test_hmin_pure_sandwich_is_tight():
    # rho = |00><00| + delta |phi><phi|, phi = (|01> + |12>)/sqrt 2: Y =
    # |00><00| + 2 |phi><phi| is feasible, so lambda = 1 + d_A delta exactly,
    # the top of the sandwich 1 -+ d_A delta
    delta = 1e-10
    phi = np.zeros(6, dtype=complex)
    phi[1] = phi[5] = 1 / math.sqrt(2)
    rho = delta * np.outer(phi, phi)
    rho[0, 0] = 1.0
    value, _, width = ent._hmin_pure(rho, 2, 3)
    assert value == 0.0
    assert value - width / 2 <= -math.log2(1 + 2 * delta) + 1e-15


def test_request_validation():
    st = maximally_mixed((("A", 2), ("B", 2)))
    with pytest.raises(ValueError):
        ent.h_min(st, ("A",), ("A",))
    with pytest.raises(ValueError):
        ent.h_min(st, ("Q",))
    with pytest.raises(ValueError):
        ent.h_min_smooth(st, ("A",), ("B",), 1.0)


# ---------------------------------------------------------------------------
# max-entropy
# ---------------------------------------------------------------------------

def test_hmax_maximally_mixed():
    for k in (1, 2):
        st = maximally_mixed((("A", 2 ** k),))
        assert ent.h_max(st, ("A",)).value == pytest.approx(k, abs=1e-9)


def test_hmax_pure_joint_is_zero():
    assert ent.h_max(entangled_state(1), ("A", "E")).value == pytest.approx(0.0, abs=1e-9)


def test_hmax_conditional_of_maximally_entangled():
    assert ent.h_max(entangled_state(1), ("A",), ("E",)).value == pytest.approx(
        -1.0, abs=1e-6)


def hmax_fidelity_sdp(rho, d_a, d_b):
    """H_max(A|B) as log max_sigma F(rho, I (x) sigma), through the PSD block
    embedding of the fidelity (Watrous, arXiv:1207.5726): the oracle for the
    duality route of ``h_max``.  Returns (value_bits, sigma, width_bits)."""
    d = d_a * d_b
    r_iso, _, gam, corner = ent._fidelity_embedding(rho)
    r = r_iso.shape[1]
    build = sdp.ProblemBuilder()
    v_blk = build.add_block(r + d, -gam)
    s_blk = build.add_block(d_b)
    build.add_family(r, {v_blk: sdp.embed(0)}, corner)
    # X = I (x) sigma, one constraint per h of herm_basis(d)
    build.add_family(d, {v_blk: sdp.embed(r), s_blk: sdp.neg_trace_out(d_a)},
                     np.zeros(d * d))
    build.add_constraint({s_blk: np.eye(d_b, dtype=complex)}, 1.0)
    mid, width, sol = ent._certified_solve(build.build(), "max-entropy fidelity SDP",
                                           None, flip=True)
    sigma = hermitian_part(sol.x_blocks[s_blk])
    return 2 * math.log2(mid), sigma, 2 * width


def fidelity_oracle_cases():
    """(state, d_A, d_B) on labels A, B: the shapes the fidelity route used to
    cross-check at run time."""
    rng = np.random.default_rng(32)
    for _ in range(10):
        yield random_density(rng, (("A", 2), ("B", 3)), rank=int(rng.integers(1, 7))), 2, 3
    for d in (2, 3, 4):
        yield random_density(rng, (("A", d), ("B", d))), d, d
    # rank-deficient: the fidelity corner is compressed onto the support
    yield random_density(rng, (("A", 3), ("B", 3)), rank=2), 3, 3
    yield random_pure(rng, (("A", 2), ("B", 2))).to_operator(), 2, 2
    # subnormalized: h_max purifies it without renormalizing
    sub = random_density(rng, (("A", 2), ("B", 3)))
    yield StateOperator(sub.dims, 0.7 * sub.matrix), 2, 3
    # C8's pure triples, reduced to their (A, C) marginals
    rng = np.random.default_rng(800)
    for trial in range(30):
        d_a, d_b = ((2, 2), (2, 3), (3, 2))[trial % 3]
        psi = random_pure(rng, (("A", d_a), ("B", d_b), ("C", 2)))
        ac = pure_marginal(psi, ["A", "C"]).matrix
        yield StateOperator(dims_of(("A", d_a), ("B", 2)), ac), d_a, 2


def diag_smoothing_sdp(p, d_a, d_b, eps):
    """The diagonal smoothing program as an SDP, one 2x2 fidelity block per
    live cell: the oracle for ``entropy._smooth_hmin_diag``, with the same
    arguments and return value (value_bits, q, s, width_bits)."""
    d = d_a * d_b
    top = float(p.max(initial=0.0))
    if top <= 0:
        raise ent.EntropyError("smoothing a zero operator")
    live = [i for i in range(d) if float(p.flat[i]) > 1e-15 * top]

    build = sdp.ProblemBuilder()
    f_blks = {i: build.add_block(2) for i in live}      # [[p_i, x_i], [x_i, q_i]]
    s_blks = [build.add_block(1, np.eye(1, dtype=complex)) for _ in range(d_b)]
    u_blks = {i: build.add_block(1) for i in live}      # s_beta - q_i slack

    for i in live:
        build.add_constraint({f_blks[i]: ent._E11}, float(p.flat[i]))
    for i in live:
        build.add_constraint({s_blks[i % d_b]: np.eye(1, dtype=complex),
                              f_blks[i]: -ent._E22,
                              u_blks[i]: -np.eye(1, dtype=complex)}, 0.0)
    ent._close_smoothing(build, {f_blks[i]: ent._EX for i in live},
                         {f_blks[i]: ent._E22 for i in live},
                         max(0.0, 1.0 - float(p.sum())), eps)

    mid, width, sol = ent._certified_solve(build.build(), "diagonal smoothing SDP", None)
    q = np.zeros(d)
    for i in live:
        q[i] = float(sol.x_blocks[f_blks[i]][1, 1].real)
    s = np.array([float(sol.x_blocks[s_blks[b]][0, 0].real) for b in range(d_b)])
    return -math.log2(mid), q.reshape(d_a, d_b), s, width


def test_hmax_two_routes_agree_on_random_states():
    # h_max returns the duality route alone; the fidelity SDP is its oracle
    worst = 0.0
    for st, d_a, d_b in fidelity_oracle_cases():
        res = ent.h_max(st, ("A",), ("B",))
        direct, _, width = hmax_fidelity_sdp(st.matrix, d_a, d_b)
        assert width <= 2 * ent.CERT_LIMIT_BITS
        worst = max(worst, abs(direct - res.value))
    assert worst <= 1e-5


def test_conditional_hmax_is_one_solve(solve_calls):
    st = random_density(np.random.default_rng(46), (("A", 2), ("B", 3)))
    res = ent.h_max(st, ("A",), ("B",))
    assert len(solve_calls) == 1
    assert res.certificate_gap <= ent.CERT_LIMIT_BITS
    assert res.optimizer_sigma is None


def test_hmax_of_pure_input_uses_its_spectator_as_purifier(solve_calls, monkeypatch):
    psi = random_pure(np.random.default_rng(47), (("A", 2), ("B", 2), ("C", 2)))
    purify, purified = ent.purify, []
    monkeypatch.setattr(ent, "purify", lambda *a, **k: purified.append(a) or purify(*a, **k))
    res = ent.h_max(psi.to_operator(), ("A",), ("B",))
    assert not purified
    assert len(solve_calls) == 1
    assert res.certificate_gap <= ent.CERT_LIMIT_BITS
    marginal = ent.h_max(pure_marginal(psi, ["A", "B"]), ("A",), ("B",))
    assert res.value == pytest.approx(marginal.value, abs=1e-5)
    dual = ent.h_min(pure_marginal(psi, ["A", "C"]), ("A",), ("C",))
    assert res.value == pytest.approx(-dual.value, abs=1e-5)


# ---------------------------------------------------------------------------
# collision entropy
# ---------------------------------------------------------------------------

def test_h2_flat_state():
    st = maximally_mixed((("A", 2), ("B", 2)))
    assert ent.h2(st, ("A",), ("B",)).value == pytest.approx(1.0, abs=1e-10)


def test_h2_at_least_hmin():
    rng = np.random.default_rng(33)
    for _ in range(30):
        st = random_density(rng, (("A", 2), ("B", 2)), rank=int(rng.integers(1, 5)))
        h2_val = ent.h2(st, ("A",), ("B",)).value
        hmin_val = ent.h_min(st, ("A",), ("B",)).value
        assert h2_val >= hmin_val - 1e-6


def test_h2_support_mismatch_raises():
    st = tensor(maximally_mixed((("A", 2),)),
                diag_state([1.0, 0.0], (("B", 2),)))
    bad_sigma = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ent.EntropyError):
        ent._h2_at_sigma(st.matrix, bad_sigma, 2)


def _h2_kron_oracle(rho, sigma, d_a):
    # the dense form: (I (x) sigma^-1/4) rho (I (x) sigma^-1/4), then tr(T^2)
    tilt = np.kron(np.eye(d_a), psd_power(sigma, -0.25))
    tilted = tilt @ rho @ tilt
    return -math.log2(float(np.trace(tilted @ tilted).real))


@pytest.mark.parametrize("case", ["random", "rank-deficient-sigma", "subnormalized"])
def test_h2_matches_kron_oracle(case):
    rng = np.random.default_rng(34)
    for d_a, d_b in ((2, 3), (3, 2), (4, 4)):
        st = random_density(rng, (("A", d_a), ("B", d_b)))
        m = st.matrix
        if case == "rank-deficient-sigma":
            # no weight on the last B level: sigma has rank d_b - 1
            keep = np.arange(d_a * d_b) % d_b != d_b - 1
            m = np.where(np.outer(keep, keep), m, 0.0)
            m /= np.trace(m).real
        elif case == "subnormalized":
            m = 0.7 * m
        st = StateOperator(st.dims, m)
        res = ent.h2(st, ("A",), ("B",))
        sigma = res.optimizer_sigma.matrix
        assert np.linalg.matrix_rank(sigma) == d_b - (case == "rank-deficient-sigma")
        want = _h2_kron_oracle(m, sigma, d_a)
        assert 2 ** -res.value == pytest.approx(2 ** -want, rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# smooth min-entropy
# ---------------------------------------------------------------------------

def test_smooth_hmin_epsilon_zero_matches():
    rng = np.random.default_rng(35)
    st = random_density(rng, (("A", 2), ("B", 2)))
    a = ent.h_min(st, ("A",), ("B",)).value
    b = ent.h_min_smooth(st, ("A",), ("B",), 0.0).value
    assert a == pytest.approx(b, abs=1e-6)


def test_smooth_hmin_monotone_in_epsilon():
    rng = np.random.default_rng(36)
    for _ in range(5):
        st = random_density(rng, (("A", 2), ("B", 2)))
        values = [ent.h_min_smooth(st, ("A",), ("B",), e).value
                  for e in (0.0, 0.05, 0.1, 0.2)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-6


def test_smooth_hmin_witness_stays_in_ball():
    rng = np.random.default_rng(37)
    st = random_density(rng, (("A", 2), ("B", 2)))
    eps = 0.1
    res = ent.h_min_smooth(st, ("A",), ("B",), eps)
    assert res.smoothed_state is not None
    assert res.smoothed_state.trace <= 1.0 + 1e-7
    assert purified_distance(res.smoothed_state, st) <= eps + 1e-6
    assert res.certificate_gap <= 1e-6


def test_smooth_hmin_one_parameter_oracle():
    # nearly pure qubit: smoothing strips the small eigenvalue; compare with
    # a brute-force search over diagonal smoothed states
    delta, eps = 0.004, 0.12
    st = diag_state([1 - delta, delta], (("A", 2),))
    got = ent.h_min_smooth(st, ("A",), (), eps).value

    c = math.sqrt(1 - eps * eps)
    qs = np.linspace(0.0, 1.0, 2501)
    q0, q1 = np.meshgrid(qs, qs, indexing="ij")
    fbar = (np.sqrt((1 - delta) * q0) + np.sqrt(delta * q1)
            + np.sqrt(np.clip(1 - q0 - q1, 0.0, 1.0) * 0.0))
    feasible = (fbar >= c) & (q0 + q1 <= 1.0)
    best = np.where(feasible, np.maximum(q0, q1), np.inf).min()
    want = -math.log2(best)
    assert got == pytest.approx(want, abs=2e-3)
    assert got > -math.log2(1 - delta)  # smoothing strictly helps


def test_smooth_hmin_diag_matches_dense():
    rng = np.random.default_rng(38)
    for _ in range(4):
        p = rng.dirichlet(np.ones(4))
        st = diag_state(p, (("A", 2), ("B", 2)))
        via_diag = ent.h_min_smooth(st, ("A",), ("B",), 0.1).value
        via_dense, _, _, _ = ent._smooth_hmin_dense(st.matrix, 2, 2, 0.1)
        assert via_diag == pytest.approx(via_dense, abs=1e-6)


def test_dense_smoothing_intervals_contain_the_exact_value():
    # product-diagonal states through the dense SDP, against the exact dual
    # route: from the feasible start every iterate is primal and dual
    # feasible, so the interval brackets the optimum (from an infeasible
    # start 17 of these 72 missed it, the worst by 16.7 half-widths)
    rng = np.random.default_rng(5)
    for d_a, d_b in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(6):
            p = rng.dirichlet(np.ones(d_a * d_b))
            rho = np.diag(p).astype(complex)
            for eps in (0.02, 0.05, 0.1):
                value, _, _, width = ent._smooth_hmin_dense(rho, d_a, d_b, eps)
                exact, _, _, exact_width = ent._smooth_hmin_diag(
                    p.reshape(d_a, d_b), d_a, d_b, eps)
                assert abs(value - exact) <= width / 2 + exact_width, (d_a, d_b, eps)


def test_clip_diag_matches_clip_psd_bit_for_bit(monkeypatch):
    # the diagonal routes clip their outputs without an eigendecomposition;
    # _clip_psd, which they used before, is the oracle
    states = [(classical_state(k), ("A",), ("E",)) for k in (1, 2, 3, 4)]
    rng = np.random.default_rng(41)
    states += [(diag_state(rng.dirichlet(np.ones(12)), (("A", 3), ("B", 4))), ("A",), ("B",))
               for _ in range(3)]

    def outputs():
        out = []
        for st, target, condition in states:
            out.append(ent.h_min(st, target, condition).optimizer_sigma.matrix)
            for eps in (0.005, 0.05, 0.3):
                res = ent.h_min_smooth(st, target, condition, eps)
                out += [res.smoothed_state.matrix, res.optimizer_sigma.matrix]
        return out

    got = outputs()
    monkeypatch.setattr(ent, "_clip_diag", ent._clip_psd)
    want = outputs()
    assert len(got) == 49
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_smooth_hmin_diag_exact_values(solve_calls):
    # a perfectly correlated state's optimum scales it by 1 - eps^2
    for k in (1, 2, 3, 4):
        for eps in (0.005, 0.05, 0.3):
            res = ent.h_min_smooth(classical_state(k), ("A",), ("E",), eps)
            assert res.value == pytest.approx(-math.log2(1 - eps * eps), abs=1e-12)
            assert res.certificate_gap <= 1e-9
    # the near-pure state of the fallback test below, where an independent
    # SLSQP solve gives the same value
    st = diag_state([1e-11, 1e-6, 1 - 1e-6 - 1e-11, 0.0], (("A", 2), ("B", 2)))
    res = ent.h_min_smooth(st, ("A",), ("B",), 0.5)
    assert res.value == pytest.approx(0.41504276727553, abs=1e-9)
    assert res.certificate_gap <= 1e-9
    # the optimum caps the heavier cell of each column at h_b and scales the
    # others by b: sqrt(0.7 (1 - 0.3 b)) + 0.3 sqrt(b) = sqrt(1 - eps^2),
    # solved to 40 digits, gives 2^-value = 1 - 0.3 b
    st = diag_state([0.4, 0.1, 0.2, 0.3], (("A", 2), ("B", 2)))
    res = ent.h_min_smooth(st, ("A",), ("B",), 1e-5)
    assert res.value == pytest.approx(0.51459206234794, abs=1e-8)
    assert res.certificate_gap <= 1e-9
    assert not solve_calls


def test_smooth_hmin_diag_matches_sdp_oracle():
    # 2x2 to 3x3 Dirichlet states and their 0.8x subnormalized copies; the
    # oracle's sandwich need not contain the optimum, but lies within 1e-6
    # bits of it
    rng = np.random.default_rng(5)
    worst = 0.0
    for d_a in (2, 3):
        for d_b in (2, 3):
            for _ in range(6):
                p = rng.dirichlet(np.ones(d_a * d_b)).reshape(d_a, d_b)
                for eps in (0.02, 0.05, 0.1):
                    for scale in (1.0, 0.8):
                        got = ent._smooth_hmin_diag(scale * p, d_a, d_b, eps)
                        want = diag_smoothing_sdp(scale * p, d_a, d_b, eps)
                        assert got[3] <= 1e-9
                        worst = max(worst, abs(got[0] - want[0]))
    assert worst <= 1e-6


def test_smooth_hmin_diag_point_is_feasible_as_evaluated():
    # a single column whose multipliers give a point a few ulps short of the
    # fidelity row: the returned point meets it as evaluated, 1 - F summed
    # as squares against 1 - c = eps^2 / (1 + c)
    p = np.array([[0.46095461371753405], [0.5390453862824662]])
    eps = 0.1
    value, q, s, width = ent._smooth_hmin_diag(p, 2, 1, eps)
    c = math.sqrt(1 - eps * eps)
    short = (float(((np.sqrt(p) - np.sqrt(q)) ** 2).sum())
             + (1.0 - float(p.sum())) + (1.0 - float(q.sum()))) / 2
    assert short <= eps * eps / (1 + c)
    assert float(q.sum()) <= 1.0
    assert np.array_equal(s, q.max(axis=0))
    assert value == pytest.approx(-math.log2(float(s.sum())), abs=width + 1e-15)


def test_smoothing_a_state_within_epsilon_of_zero_raises(solve_calls):
    # tr rho <= eps^2: the ball holds the zero operator, the value is +inf
    st = diag_state(0.5 * np.array([0.4, 0.1, 0.2, 0.3]), (("A", 2), ("B", 2)))
    with pytest.raises(ent.EntropyError, match="contains the zero operator"):
        ent.h_min_smooth(st, ("A",), ("B",), 0.9)
    dense = StateOperator(st.dims, 0.3 * random_density(
        np.random.default_rng(48), (("A", 2), ("B", 2))).matrix)
    with pytest.raises(ent.EntropyError, match="contains the zero operator"):
        ent.h_min_smooth(dense, ("A",), ("B",), 0.6)
    assert not solve_calls


def test_smooth_hmin_certifies_through_the_fallback_solve(solve_calls, monkeypatch):
    # near-pure diagonal state through the diagonal SDP oracle: the first
    # solve ends uncertified at its 400-iteration limit; only the
    # fallback's smaller regularization and shorter steps certify the value
    monkeypatch.setattr(ent, "_smooth_hmin_diag", diag_smoothing_sdp)
    st = diag_state([1e-11, 1e-6, 1 - 1e-6 - 1e-11, 0.0], (("A", 2), ("B", 2)))
    res = ent.h_min_smooth(st, ("A",), ("B",), 0.5)
    assert res.certificate_gap <= ent.CERT_LIMIT_BITS
    assert [(kw["max_iterations"], sol.status) for kw, sol in solve_calls] == [
        (400, sdp.SdpStatus.MAX_ITER), (600, sdp.SdpStatus.OPTIMAL)]
    assert "reg" not in solve_calls[0][0] and "step_frac" not in solve_calls[0][0]
    assert "reg" in solve_calls[1][0] and "step_frac" in solve_calls[1][0]


def test_cq_converse_certifies_in_one_solve(solve_calls, monkeypatch):
    # the converse smoothing of the merging benchmark's cq instance through
    # the diagonal SDP oracle: a solve stopped at the solver's default gap
    # would leave the sandwich too wide
    monkeypatch.setattr(ent, "_smooth_hmin_diag", diag_smoothing_sdp)
    p = (0.5, 0.25, 0.125, 0.125)
    amps = np.zeros((2, 4, 2), dtype=complex)
    for a in range(2):
        for e in range(2):
            amps[a, 2 * a + e, e] = math.sqrt(p[2 * a + e])
    psi = PureState(dims_of(("A", 2), ("B", 4), ("E", 2)), amps.reshape(-1))
    res = ent.h_max_smooth(psi.to_operator(), ("A",), ("B",), 4 * math.sqrt(0.06))
    assert res.certificate_gap <= ent.CERT_LIMIT_BITS
    assert len(solve_calls) == 1
    assert solve_calls[0][1].status is sdp.SdpStatus.OPTIMAL


def test_smooth_hmax_epsilon_zero_matches():
    rng = np.random.default_rng(39)
    st = random_density(rng, (("A", 2), ("B", 2)))
    assert ent.h_max_smooth(st, ("A",), ("B",), 0.0).value == pytest.approx(
        ent.h_max(st, ("A",), ("B",)).value, abs=1e-9)


def result_bits(res: ent.EntropyResult) -> dict:
    """Every field of an entropy result, floats as hex and operators as their
    dims and matrix bytes, so that equal results compare bit for bit."""
    def enc(v):
        if isinstance(v, StateOperator):
            return v.dims.pairs, v.matrix.tobytes()
        return v if v is None else float(v).hex()
    return {f.name: enc(getattr(res, f.name)) for f in dataclasses.fields(res)}


# (state, target, condition, number of SDP solves) per epsilon-0 route
HMIN_ROUTES = {
    "unconditional": lambda: (random_density(np.random.default_rng(50), (("A", 2), ("B", 2))),
                              ("A",), (), 0),
    "product-diagonal": lambda: (classical_state(1), ("A",), ("E",), 0),
    "pure": lambda: (entangled_state(1), ("A",), ("E",), 0),
    "sdp": lambda: (random_density(np.random.default_rng(51), (("A", 2), ("B", 3))),
                    ("A",), ("B",), 1),
}
HMAX_ROUTES = {
    "unconditional": lambda: (random_density(np.random.default_rng(52), (("A", 2), ("B", 2))),
                              ("A",), (), 0),
    "duality": lambda: (random_density(np.random.default_rng(53), (("A", 2), ("B", 2))),
                        ("A",), ("B",), 1),
}


@pytest.mark.parametrize("route", list(HMIN_ROUTES))
def test_hmin_is_smooth_hmin_at_epsilon_zero(route, solve_calls):
    # h_min_smooth picks every min-entropy route; h_min is its epsilon-0 call
    state, target, condition, solves = HMIN_ROUTES[route]()
    res = ent.h_min(state, target, condition)
    assert len(solve_calls) == solves
    assert (res.optimizer_sigma is None) == (not condition)
    assert res.smoothed_state is None
    assert result_bits(res) == result_bits(ent.h_min_smooth(state, target, condition, 0.0))


@pytest.mark.parametrize("route", list(HMAX_ROUTES))
def test_hmax_is_smooth_hmax_at_epsilon_zero(route, solve_calls):
    state, target, condition, solves = HMAX_ROUTES[route]()
    res = ent.h_max(state, target, condition)
    assert len(solve_calls) == solves
    assert res.optimizer_sigma is None and res.smoothed_state is None
    assert result_bits(res) == result_bits(ent.h_max_smooth(state, target, condition, 0.0))


def test_smooth_hmax_rejects_subnormalized_input():
    st = StateOperator(dims_of(("A", 2), ("B", 2)), 0.7 * random_density(
        np.random.default_rng(54), (("A", 2), ("B", 2))).matrix)
    with pytest.raises(ent.EntropyError, match="normalized"):
        ent.h_max_smooth(st, ("A",), ("B",), 0.05)


def test_purifier_label_avoids_the_query_labels():
    # a target named like the purifier's default label gets a fresh one, and
    # the value is that of the same matrix under other labels
    rho = random_density(np.random.default_rng(55), (("A", 2), ("B", 2))).matrix
    st = StateOperator(dims_of(("_pur", 2), ("B", 2)), rho)
    carrier, purifier = ent._purified(st, ("_pur",), ("B",))
    assert purifier == ("_pur_",)
    assert carrier.labels == ("_pur", "_pur_")
    renamed = StateOperator(dims_of(("A", 2), ("B", 2)), rho)
    assert ent.h_max(st, ("_pur",), ("B",)).value == ent.h_max(renamed, ("A",), ("B",)).value


# ---------------------------------------------------------------------------
# smooth-entropy calculus properties
# ---------------------------------------------------------------------------

def test_duality_on_purified_triples():
    rng = np.random.default_rng(40)
    for _ in range(5):
        psi = random_pure(rng, (("A", 2), ("B", 2), ("C", 2)))
        for eps in (0.0, 0.05, 0.1):
            hmin = ent.h_min_smooth(pure_marginal(psi, ["A", "B"]),
                                    ("A",), ("B",), eps).value
            # independent purification route on the (A, C) marginal
            hmax = ent.h_max_smooth(pure_marginal(psi, ["A", "C"]),
                                    ("A",), ("C",), eps).value
            assert hmin == pytest.approx(-hmax, abs=1e-5)


def test_strong_subadditivity():
    rng = np.random.default_rng(41)
    for _ in range(4):
        st = random_density(rng, (("A", 2), ("B", 2), ("C", 2)))
        for eps in (0.0, 0.05):
            lhs = ent.h_min_smooth(st, ("A",), ("B", "C"), eps).value
            rhs = ent.h_min_smooth(st, ("A",), ("B",), eps).value
            assert lhs <= rhs + 1e-6


def test_superadditivity():
    rng = np.random.default_rng(42)
    for _ in range(3):
        a = random_density(rng, (("A", 2), ("B", 2)))
        b = random_density(rng, (("A2", 2), ("B2", 2)))
        joint = tensor(a, b)
        e1, e2 = 0.05, 0.08
        lhs = ent.h_min_smooth(joint, ("A", "A2"), ("B", "B2"), e1 + e2).value
        rhs = (ent.h_min_smooth(a, ("A",), ("B",), e1).value
               + ent.h_min_smooth(b, ("A2",), ("B2",), e2).value)
        assert lhs >= rhs - 1e-5


def test_dimension_upper_bound():
    rng = np.random.default_rng(43)
    for _ in range(4):
        st = random_density(rng, (("A", 2), ("B", 2), ("C", 2)))
        for eps in (0.0, 0.05):
            lhs = ent.h_min_smooth(st, ("A", "B"), ("C",), eps).value
            rhs = ent.h_min_smooth(st, ("A",), ("C",), eps).value + 1.0
            assert lhs <= rhs + 1e-6


def test_classical_quantum_block_formula():
    rng = np.random.default_rng(44)
    for _ in range(4):
        n_blocks = 3
        probs = rng.dirichlet(np.ones(n_blocks))
        blocks = [random_density(rng, (("A", 2), ("B", 2))) for _ in range(n_blocks)]
        d = 4 * n_blocks
        mat = np.zeros((d, d), dtype=complex)
        for x, (p, blk) in enumerate(zip(probs, blocks)):
            # embed p * rho_x (x) |x><x| on (A, B, X)
            t = np.kron(blk.matrix, np.zeros((n_blocks, n_blocks)))
            proj = np.zeros((n_blocks, n_blocks))
            proj[x, x] = 1.0
            mat += p * np.kron(blk.matrix, proj)
        cq = StateOperator(dims_of(("A", 2), ("B", 2), ("X", n_blocks)), mat)
        lhs = ent.h_min(cq, ("A",), ("B", "X")).value
        rhs = -math.log2(sum(
            p * 2.0 ** (-ent.h_min(blk, ("A",), ("B",)).value)
            for p, blk in zip(probs, blocks)))
        assert lhs == pytest.approx(rhs, abs=1e-5)


def test_chain_rule():
    rng = np.random.default_rng(45)
    for _ in range(3):
        st = random_density(rng, (("A", 2), ("B", 2), ("C", 2)))
        e, e1, e2 = 0.12, 0.05, 0.05
        lhs = ent.h_min_smooth(st, ("A", "B"), ("C",), e + 2 * e1 + e2).value
        rhs = (ent.h_min_smooth(st, ("A",), ("B", "C"), e1).value
               + ent.h_min_smooth(st, ("B",), ("C",), e2).value
               - math.log2(2.0 / (e * e)))
        assert lhs >= rhs - 1e-5


def test_aep_trend_on_tensor_powers():
    # fixed diagonal two-qubit state: gaps |H_min^eps / n - H(A|B)| shrink
    probs = np.array([0.35, 0.15, 0.3, 0.2])
    base = diag_state(probs, (("A", 2), ("B", 2)))
    h_vn = ent.von_neumann(base, ("A",), ("B",))
    eps = 0.1
    gaps = []
    state = None
    for n in range(1, 5):
        piece = StateOperator(dims_of((f"A{n}", 2), (f"B{n}", 2)), base.matrix)
        state = piece if state is None else tensor(state, piece)
        a_labels = tuple(f"A{i}" for i in range(1, n + 1))
        b_labels = tuple(f"B{i}" for i in range(1, n + 1))
        val = ent.h_min_smooth(state, a_labels, b_labels, eps).value
        gaps.append(abs(val / n - h_vn))
    for prev, nxt in zip(gaps, gaps[1:]):
        assert nxt <= prev + 1e-6
