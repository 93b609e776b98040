"""Decoupling experiment tests: exact integrand cases, bound arithmetic,
Monte Carlo determinism, the converse checker, and the randomized lemma
suites."""

import tracemalloc

import numpy as np
import pytest

from qdecouple import channel as chan
from qdecouple import decoupling as dec
from qdecouple import haar
from qdecouple.linalg import (
    DimCapError,
    Dims,
    StateOperator,
    apply_matrix,
    hermitian_part,
    partial_trace,
    random_density,
    tensor,
    trace_norm,
)

from conftest import maximally_mixed


def test_sample_distance_erasure_is_zero():
    rng = haar.generator(0)
    st = dec.classical_state(2)
    er = chan.reference_channel("erase", 2)
    for _ in range(5):
        u = haar.haar_unitary(4, rng)
        assert dec.sample_distance(st, er, u) <= 1e-12


def test_sample_distance_identity_direct_oracle():
    st = dec.entangled_state(1)
    iden = chan.identity_channel(2)
    got = dec.sample_distance(st, iden, np.eye(2))
    rho_a = partial_trace(st, ["A"]).matrix
    rho_e = partial_trace(st, ["E"]).matrix
    want = trace_norm(st.matrix - np.kron(rho_a, rho_e))
    assert got == pytest.approx(want, abs=1e-10)
    assert got > 1.0  # genuinely correlated


def test_sample_distance_invariance_for_maximally_mixed_input():
    rng = haar.generator(1)
    st = tensor(maximally_mixed((("A", 2),)), random_density(np.random.default_rng(5), (("E", 2),)))
    iden = chan.identity_channel(2)
    values = [dec.sample_distance(st, iden, haar.haar_unitary(2, rng)) for _ in range(5)]
    assert max(values) - min(values) <= 1e-12


def test_sample_distance_rejects_non_unitary():
    st = dec.classical_state(1)
    with pytest.raises(dec.DecouplingError):
        dec.sample_distance(st, chan.identity_channel(2), np.ones((2, 2)))


def test_experiment_needs_the_input_system_a():
    st = random_density(np.random.default_rng(7), (("A1", 2), ("E", 2)))
    with pytest.raises(dec.DecouplingError, match="acts on A.*'A1', 'E'"):
        dec.DecouplingExperiment(st, chan.identity_channel(2), 10)
    with pytest.raises(dec.DecouplingError, match="acts on A"):
        dec.sample_distance(st, chan.identity_channel(2), np.eye(2))


def test_run_exact_zero_for_uniform_product():
    rng = np.random.default_rng(6)
    st = tensor(maximally_mixed((("A", 2),)), random_density(rng, (("E", 2),)))
    rep = dec.run(dec.DecouplingExperiment(st, chan.identity_channel(2), 40,
                                           seed=haar.RngSeed(3)))
    assert rep.empirical_mean <= 1e-12


def test_run_deterministic_and_worker_invariant():
    rng = np.random.default_rng(7)
    st = random_density(rng, (("A", 2), ("E", 2)))
    ch = chan.random_tp_channel(rng, 2, 2)
    exp = dec.DecouplingExperiment(st, ch, 300, seed=haar.RngSeed(42))
    r1 = dec.run(exp, workers=1)
    r2 = dec.run(exp, workers=4)
    r3 = dec.run(exp, workers=1)
    assert r1.empirical_mean == r2.empirical_mean == r3.empirical_mean
    assert r1.per_sample_distances == r2.per_sample_distances
    assert r1.std_error == r2.std_error


@pytest.mark.parametrize("case", ["c5-blocks", "dense", "dense-large-reference"])
def test_chunked_run_matches_per_sample_distances(case, monkeypatch):
    # sample i's distance does not depend on its chunk or on the workers:
    # 1, S - 1 and S + 1 samples at S samples per chunk
    if case == "c5-blocks":
        # at a budget of 2^11 entries, so that S - 1 and S + 1 stay small
        monkeypatch.setattr(dec, "CHUNK_ENTRIES", 2 ** 11)
        st, ch = dec.classical_state(4), chan.reference_channel("id+trace", 4, 3)
    else:
        # the dense kernel orders its middle product's rows by whether the
        # reference is smaller than the input ("dense") or not
        monkeypatch.setattr(dec, "CHUNK_ENTRIES", 200)
        rng = np.random.default_rng(31)
        d_a, d_e = (3, 2) if case == "dense" else (2, 3)
        st = random_density(rng, (("A", d_a), ("E", d_e)))
        ch = chan.random_cpm(rng, d_a, 2, trace=0.8)
    seed = haar.RngSeed(12, "chunks")
    kernel, chunk, _ = dec._kernel(dec.DecouplingExperiment(st, ch, 1))
    assert chunk == {"c5-blocks": 2, "dense": 12, "dense-large-reference": 5}[case]
    assert kernel == ("blocks:16" if case == "c5-blocks" else "dense")
    for n in (1, chunk - 1, chunk + 1):
        want = [dec.sample_distance(st, ch, haar.haar_unitary_indexed(seed, i, ch.dim_in))
                for i in range(n)]
        for workers in (1, 3):
            rep = dec.run(dec.DecouplingExperiment(st, ch, n, seed=seed), workers)
            assert rep.per_sample_distances == want


# ``on`` is the input of the library oracle; the experiment always acts on A
@pytest.mark.parametrize("family,dims,d_out,on", [
    ("tp", (("A", 2), ("E", 3)), 3, ("A",)),
    ("cpm", (("A", 3), ("E", 2)), 2, ("A",)),
    # A between two reference labels: the kernel permutes A to the front
    ("tp", (("E1", 2), ("A", 2), ("E2", 3)), 2, ("A",)),
    # the benchmark's C3 slice: a kernel running one batched einsum per chunk
    # fails this oracle in the last bit on 2x4->2 and 3x3->4
    ("tp", (("A", 2), ("E", 4)), 2, ("A",)),
    ("cpm", (("A", 3), ("E", 3)), 4, ("A",)),
    ("tp", (("A", 4), ("E", 4)), 4, ("A",)),
    ("cpm", (("A", 8), ("E", 2)), 4, ("A",)),
    # a state on the input alone (no reference system)
    ("tp", (("A", 3),), 2, ("A",)),
])
def test_kernel_distances_match_library_route(family, dims, d_out, on):
    # oracle: rotate with apply_matrix, apply the channel with channel.apply,
    # and subtract tau_B (x) rho_E built from partial traces (tau_B alone
    # when there is no reference)
    rng = np.random.default_rng(17)
    st = random_density(rng, dims)
    d_in = int(np.prod([d for lab, d in dims if lab in on]))
    make = chan.random_tp_channel if family == "tp" else chan.random_cpm
    ch = make(rng, d_in, d_out)
    exp = dec.DecouplingExperiment(st, ch, 30, seed=haar.RngSeed(8))
    refs = [lab for lab, _ in dims if lab not in on]
    target = partial_trace(ch.choi, [chan.OUT_LABEL]).matrix
    if refs:
        target = np.kron(target, partial_trace(st, refs).matrix)
    want = []
    for i in range(exp.num_samples):
        u = haar.haar_unitary_indexed(exp.seed, i, d_in)
        out = chan.apply(ch, apply_matrix(st, u, on), on)
        want.append(trace_norm(out.matrix - target))
        assert dec.sample_distance(st, ch, u) == want[-1]
    assert dec.run(exp).per_sample_distances == want


def _cq_state(rng, d_a, weights, rank):
    """sum_e w_e rho_e (x) |e><e| on (A, E), each rho_e a random density
    matrix of rank ``rank`` (one rank for every block, or one per block)."""
    d_e = len(weights)
    m = np.zeros((d_a * d_e, d_a * d_e), dtype=complex)
    for e, (w, r) in enumerate(zip(weights, np.broadcast_to(rank, d_e))):
        g = rng.standard_normal((d_a, r)) + 1j * rng.standard_normal((d_a, r))
        block = g @ g.conj().T
        proj = np.zeros((d_e, d_e))
        proj[e, e] = 1.0
        m += np.kron(w * block / np.trace(block).real, proj)
    return StateOperator(Dims((("A", d_a), ("E", d_e))), m)


def _cq_case(name):
    rng = np.random.default_rng(23)
    if name == "classical":
        return dec.classical_state(2), chan.reference_channel("id+trace", 2, 1), 4
    if name in ("id+trace:3,2", "id+meas:3,2", "id:3", "id+trace:3,1"):
        return dec.classical_state(3), chan.parse_spec(name), 8
    if name == "ranks-1-2":
        # rank 1 padded to rank 2 by a zero weight
        return _cq_state(rng, 3, [0.6, 0.4], [1, 2]), chan.identity_channel(3), 2
    if name == "non-unital":
        # tau_B != t I with Kraus rank 3 < d_B = 4
        return _cq_state(rng, 3, [0.5, 0.3, 0.2], 1), chan.random_tp_channel(rng, 3, 4), 3
    if name == "negative-eigenvalue-unital":
        # a -1e-12 weight through the identity: Kraus rank 1, k = 3 < d_B = 4
        return _cq_case("negative-eigenvalue")[0], chan.identity_channel(4), 3
    if name == "rank2-zero-weight":
        st = _cq_state(rng, 3, [0.5, 0.0, 0.3, 0.2], 2)
        return st, chan.random_tp_channel(rng, 3, 2), 3
    if name == "two-labels":
        # E = (E1, E2) in row-major order, then A moved between them
        st = _cq_state(rng, 2, [0.3, 0.1, 0.2, 0.15, 0.05, 0.2], 2)
        st = StateOperator(Dims((("A", 2), ("E1", 2), ("E2", 3))), st.matrix)
        return st.permute(["E1", "A", "E2"]), chan.random_tp_channel(rng, 2, 3), 6
    if name == "negative-eigenvalue":
        # blocks of ranks 1, 3 and 2, the last with a -1e-12 eigenvalue off
        # its support: the block kernel pads to rank 3 and keeps the sign
        cq = _cq_state(rng, 4, [0.4, 0.35, 0.25], [1, 3, 2])
        null = np.linalg.eigh(cq.matrix.reshape(4, 3, 4, 3)[:, 2, :, 2])[1][:, 0]
        m = cq.matrix + np.kron(-1e-12 * np.outer(null, null.conj()), np.diag([0.0, 0.0, 1.0]))
        return StateOperator(cq.dims, m), chan.random_tp_channel(rng, 4, 2), 3
    if name == "kraus-rank-1":
        return _cq_state(rng, 3, [0.6, 0.4], 2), chan.identity_channel(3), 2
    # a Ginibre Choi matrix: full Kraus rank
    st = _cq_state(rng, 3, [0.6, 0.4], 3)
    return st, chan.random_cpm(rng, 3, 2, trace=0.7), 2


def _library_distances(exp):
    # oracle: rotate with apply_matrix, apply the channel with channel.apply,
    # and subtract tau_B (x) rho_E built from partial traces
    st, ch, on = exp.state, exp.channel, ["A"]
    target = np.kron(partial_trace(ch.choi, [chan.OUT_LABEL]).matrix,
                     partial_trace(st, list(exp.reference_labels)).matrix)
    out = []
    for i in range(exp.num_samples):
        u = haar.haar_unitary_indexed(exp.seed, i, ch.dim_in)
        out.append(trace_norm(chan.apply(ch, apply_matrix(st, u, on), on).matrix - target))
    return out


def _trace_norms_called(_):
    raise AssertionError("trace_norms called")


# tau_B = t I exactly, every weight d_in mu_j lam_ek >= 0 and k = kappa r < d_B:
# the cases whose block norms come from the k x k Gram spectrum.  Of the
# others, "id+trace:3,1" fails only k < d_B, "non-unital" only tau_B = t I and
# "negative-eigenvalue-unital" only the weights' signs
GRAM_CASES = ("kraus-rank-1", "id+trace:3,2", "id+meas:3,2", "id:3", "ranks-1-2")


@pytest.mark.parametrize("name", ["classical", "rank2-zero-weight", "two-labels", "cpm",
                                  "negative-eigenvalue", "kraus-rank-1", "id+trace:3,2",
                                  "id+meas:3,2", "id:3", "ranks-1-2", "id+trace:3,1",
                                  "non-unital", "negative-eigenvalue-unital"])
def test_block_kernel_matches_library_route(name, monkeypatch):
    st, ch, blocks = _cq_case(name)
    exp = dec.DecouplingExperiment(st, ch, 30, seed=haar.RngSeed(4))
    want = _library_distances(exp)
    # the Gram step makes no call to trace_norms
    monkeypatch.setattr(dec, "trace_norms", _trace_norms_called)
    if name not in GRAM_CASES:
        with pytest.raises(AssertionError, match="trace_norms called"):
            dec.run(exp)
        monkeypatch.undo()
    rep = dec.run(exp)
    assert rep.kernel == f"blocks:{blocks}"
    assert max(abs(a - b) for a, b in zip(rep.per_sample_distances, want)) <= 1e-12
    assert max(want) > 0.05  # the distances are not all trivially zero
    for i in (0, 17):
        u = haar.haar_unitary_indexed(exp.seed, i, ch.dim_in)
        assert dec.sample_distance(st, ch, u) == rep.per_sample_distances[i]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gram_step_identity_closed_form(k, monkeypatch):
    # the identity leaves 2^k blocks U|e><e|U^H / 2^k against I / 4^k: each block
    # has norm 2 (2^k - 1) / 4^k, for 2 (1 - 2^-k) on every sample
    monkeypatch.setattr(dec, "trace_norms", _trace_norms_called)
    exp = dec.DecouplingExperiment(dec.classical_state(k), chan.parse_spec(f"id:{k}"), 40,
                                   seed=haar.RngSeed(6))
    got = np.array(dec.run(exp).per_sample_distances)
    assert np.abs(got - 2 * (1 - 2.0 ** -k)).max() <= 1e-14


def test_block_factors_pad_and_keep_signs():
    # ranks 1, 3 and 2 with a -1e-12 eigenvalue on the rank-2 block, inside
    # the validation tolerance: padded to rank 3 by zero weights and vectors,
    # every kept eigenvalue with its sign
    st = _cq_case("negative-eigenvalue")[0]
    blocks = st.matrix.reshape(4, 3, 4, 3).transpose(1, 3, 0, 2)[np.arange(3), np.arange(3)]
    lam, vec = dec._factors(blocks)
    assert lam.shape == (3, 3) and vec.shape == (3, 4, 3)
    assert np.count_nonzero(lam == 0.0) == 2 and not vec.swapaxes(1, 2)[lam == 0.0].any()
    assert lam.min() == pytest.approx(-1e-12, rel=1e-3)
    rebuilt = (vec * lam[:, None, :]) @ vec.conj().swapaxes(1, 2)
    assert np.abs(rebuilt - blocks).max() <= 1e-15
    # Kraus ranks 1 (identity) and full (a Ginibre Choi matrix)
    for ch, kappa in ((chan.identity_channel(3), 1),
                      (chan.random_cpm(np.random.default_rng(2), 3, 2), 6)):
        assert dec._factors(ch.choi.matrix[None])[0].shape == (1, kappa)


def dense_factors(stack):
    """``_factors`` through one ``eigh`` of each whole item: the route before
    the isolated/linked split, kept as its oracle."""
    lam, vec = np.linalg.eigh(hermitian_part(stack))
    mag = np.abs(lam)
    keep = mag > 1e-15 * mag.max(axis=1, keepdims=True)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :int(keep.sum(axis=1).max())]
    kept = np.take_along_axis(keep, order, axis=1)
    lam = np.take_along_axis(lam, order, axis=1) * kept
    vec = np.take_along_axis(vec, order[:, None, :], axis=2) * kept[:, None, :]
    return lam, vec


def _rebuilt(lam, vec):
    return (vec * lam[:, None, :]) @ vec.conj().swapaxes(1, 2)


@pytest.mark.parametrize("ch", [
    *(chan.parse_spec(f"{kind}:{m},{mp}") for kind in ("id+trace", "id+meas")
      for m in (1, 2, 3) for mp in range(m + 1)),
    chan.identity_channel(3),
], ids=lambda ch: f"{ch.dim_in}->{ch.dim_out}")
def test_factors_match_dense_eigh_on_reference_choi_matrices(ch):
    # these Choi matrices have isolated indices, so the split decomposes
    # fewer of them but keeps the same factors up to the basis of each
    # eigenspace
    stack = ch.choi.matrix[None]
    lam, vec = dec._factors(stack)
    want_lam, want_vec = dense_factors(stack)
    assert lam.shape == want_lam.shape and vec.shape == want_vec.shape
    assert np.array_equal(np.sort(np.sign(lam)), np.sort(np.sign(want_lam)))
    np.testing.assert_allclose(np.sort(lam), np.sort(want_lam), rtol=0, atol=1e-15)
    assert np.abs(_rebuilt(lam, vec) - stack).max() <= 1e-15
    assert np.abs(_rebuilt(lam, vec) - _rebuilt(want_lam, want_vec)).max() <= 1e-15


def test_factors_on_a_random_choi_matrix_are_the_dense_bits():
    # a Ginibre Choi matrix has no isolated index: its linked submatrix is
    # the whole matrix, which eigh gets as the dense route gives it
    for seed in (2, 3):
        stack = chan.random_cpm(np.random.default_rng(seed), 3, 2).choi.matrix[None]
        for got, want in zip(dec._factors(stack), dense_factors(stack)):
            np.testing.assert_array_equal(got, want)
    # beside a diagonal item, which the split takes whole, it keeps its bits
    diagonal = np.diag([0.5, 0.0, 0.0, 0.25, 0.0, 0.0]).astype(complex)[None]
    lam, vec = dec._factors(np.concatenate([stack, diagonal]))
    want_lam, want_vec = dense_factors(stack)
    r = want_lam.shape[1]
    np.testing.assert_array_equal(lam[0, :r], want_lam[0])
    np.testing.assert_array_equal(vec[0, :, :r], want_vec[0])


def test_c5_block_kernel_chunk_sizes():
    # the largest per-sample arrays are the factor products (256 entries) at
    # m'=1 and the 16 output blocks of 8 x 8 (1024 entries) at m'=3
    st = dec.classical_state(4)
    for spec, chunk in (("id+trace:4,1", 64), ("id+trace:4,3", 16)):
        exp = dec.DecouplingExperiment(st, chan.parse_spec(spec), 1)
        assert dec._kernel(exp)[:2] == ("blocks:16", chunk)


def test_near_cq_state_takes_dense_kernel():
    # one entry off the reference diagonal (and its mirror) set to 1e-3
    rng = np.random.default_rng(24)
    cq = _cq_state(rng, 3, [0.5, 0.3, 0.2], 3)
    m = 0.9 * cq.matrix + 0.1 * np.eye(9) / 9
    m[0 * 3 + 0, 1 * 3 + 2] = m[1 * 3 + 2, 0 * 3 + 0] = 1e-3
    st = StateOperator(cq.dims, m)
    exp = dec.DecouplingExperiment(st, chan.random_tp_channel(rng, 3, 2), 10,
                                   seed=haar.RngSeed(5))
    rep = dec.run(exp)
    assert rep.kernel == "dense"
    assert max(abs(a - b) for a, b in
               zip(rep.per_sample_distances, _library_distances(exp))) <= 1e-12
    assert dec.run(dec.DecouplingExperiment(
        StateOperator(cq.dims, 0.9 * cq.matrix + 0.1 * np.eye(9) / 9),
        exp.channel, 1)).kernel == "blocks:3"


def test_nonsmooth_bound_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(4):
        st = random_density(rng, (("A", 2), ("E", 3)))
        if trial % 2 == 0:
            ch = chan.random_tp_channel(rng, 2, 2)
        else:
            ch = chan.random_cpm(rng, 2, 3, trace=float(rng.uniform(0.4, 1.0)))
        rep = dec.run(dec.DecouplingExperiment(st, ch, 600, seed=haar.RngSeed(trial)))
        assert rep.empirical_mean <= rep.bound_nonsmooth + 3 * rep.std_error


def test_bound_nonsmooth_flat_closed_form():
    # maximally mixed on 1+1 qubits through the identity: both collision
    # entropies are +-1 and the bound is exactly one
    st = tensor(maximally_mixed((("A", 2),)), maximally_mixed((("E", 2),)))
    got = dec.bound_nonsmooth(st, chan.identity_channel(2))
    assert got == pytest.approx(1.0, abs=1e-9)


def test_bound_nonsmooth_erasure_scaling():
    # erasing m qubits contributes 2^(-m/2) through the channel term
    st2 = dec.classical_state(2)
    b2 = dec.bound_nonsmooth(st2, chan.reference_channel("erase", 2))
    st3 = dec.classical_state(3)
    b3 = dec.bound_nonsmooth(st3, chan.reference_channel("erase", 3))
    assert b3 / b2 == pytest.approx(2 ** -0.5, abs=1e-9)


def test_bound_exponent_arithmetic():
    # improving the state entropy by two bits halves the bound
    st1 = dec.independent_state(1)
    st2 = dec.independent_state(2)
    iden1 = chan.identity_channel(2)
    iden2 = chan.identity_channel(4)
    b1 = dec.bound_nonsmooth(st1, iden1)
    b2 = dec.bound_nonsmooth(st2, iden2)
    # H2(A|E) grows by 1, H2(A|B) of the Choi state drops by 1: ratio is one;
    # instead scale only the state side with a fixed channel
    st_flat2 = tensor(maximally_mixed((("A", 2),)), maximally_mixed((("E", 2),)))
    meas = chan.reference_channel("meas", 1)
    base = dec.bound_nonsmooth(st_flat2, meas)
    del b1, b2
    assert base == pytest.approx(2 ** -0.5, abs=1e-9)


def test_bound_smooth_additive_term():
    st = dec.independent_state(1)
    ch = chan.reference_channel("meas", 1)
    b0 = dec.bound_smooth(st, ch, 0.0)
    b5 = dec.bound_smooth(st, ch, 0.05)
    # the smooth entropies can only grow with epsilon, so the bound minus the
    # additive term cannot exceed the epsilon = 0 exponent value
    assert b5 - 0.6 <= b0 + 1e-9
    assert b0 == pytest.approx(2 ** -0.5, abs=1e-6)  # H_min = 1 and 0


def test_bound_smooth_reference_example():
    # two random bits plus a two-qubit measurement: exponent -(2 + 0)/2
    st = dec.independent_state(2)
    ch = chan.reference_channel("meas", 2)
    for eps in (0.0, 0.05):
        got = dec.bound_smooth(st, ch, eps)
        assert got >= 0.5 - 1e-6 if eps == 0 else True
        if eps == 0.0:
            assert got == pytest.approx(0.5, abs=1e-5)
        else:
            assert got <= 0.5 + 12 * eps + 1e-9


def test_smooth_bound_soundness_small_sweep():
    rng = np.random.default_rng(9)
    st = random_density(rng, (("A", 2), ("E", 2)))
    ch = chan.random_tp_channel(rng, 2, 2)
    rep = dec.run(dec.DecouplingExperiment(st, ch, 500, epsilon=0.05,
                                           seed=haar.RngSeed(11)))
    assert rep.bound_smooth is not None
    assert rep.empirical_mean <= rep.bound_smooth + 3 * rep.std_error


def test_converse_exact_decoupling_cases():
    rng = np.random.default_rng(10)
    # product input: any channel decouples exactly
    prod = tensor(random_density(rng, (("A", 2),)), random_density(rng, (("E", 2),)))
    for ch in (chan.random_tp_channel(rng, 2, 2), chan.reference_channel("meas", 1)):
        rep = dec.converse_check(prod, ch, eps=1e-10, eps1=0.05, eps2=0.0, eps3=0.1)
        assert rep.holds
    # erasure channel decouples any input
    st = dec.classical_state(1)
    rep = dec.converse_check(st, chan.reference_channel("erase", 1),
                             eps=1e-10, eps1=0.05, eps2=0.0, eps3=0.1)
    assert rep.holds
    assert rep.measured_distance <= 1e-10


def test_converse_weakly_correlated_identity():
    # identity channel on a weakly correlated state: the converse
    # inequality must hold with the measured distance as its parameter
    rng = np.random.default_rng(11)
    prod = tensor(random_density(rng, (("A", 2),)), random_density(rng, (("E", 2),)))
    corr = dec.classical_state(1)
    lam = 0.015
    st = StateOperator(prod.dims, (1 - lam) * prod.matrix + lam * corr.permute(prod.labels).matrix)
    iden = chan.identity_channel(2)
    out = chan.apply(iden, st, ("A",))
    rho_a = partial_trace(st, ["A"]).matrix
    rho_e = partial_trace(st, ["E"]).matrix
    measured = trace_norm(out.matrix - np.kron(rho_a, rho_e))
    assert measured < 0.05
    e1, e2, e3 = dec.default_converse_epsilons(measured)
    rep = dec.converse_check(st, iden, eps=measured + 1e-12, eps1=e1, eps2=e2, eps3=e3)
    assert rep.holds
    assert rep.lhs >= rep.rhs - 1e-6


def test_converse_precondition_enforced():
    st = dec.entangled_state(1)
    with pytest.raises(dec.DecouplingError):
        dec.converse_check(st, chan.identity_channel(2), eps=0.01,
                           eps1=0.05, eps2=0.0, eps3=0.05)


def test_converse_smoothing_budget_enforced():
    rng = np.random.default_rng(12)
    prod = tensor(random_density(rng, (("A", 2),)), random_density(rng, (("E", 2),)))
    with pytest.raises(dec.DecouplingError):
        dec.converse_check(prod, chan.identity_channel(2), eps=0.45,
                           eps1=0.3, eps2=0.1, eps3=0.3)


def test_verify_proof_lemmas_defaults_pass():
    reports = dec.verify_proof_lemmas(haar.RngSeed(5), trials=120)
    assert set(reports) == {"swap_trick", "purity_ratio", "weighted_trace_norm"}
    for rep in reports.values():
        assert rep.passed, rep


def test_verify_proof_lemmas_zero_trials():
    reports = dec.verify_proof_lemmas(0, trials=0)
    for rep in reports.values():
        assert rep.trials == 0 and rep.failures == 0


def test_report_serialization_and_csv():
    rng = np.random.default_rng(13)
    st = random_density(rng, (("A", 2), ("E", 2)))
    rep = dec.run(dec.DecouplingExperiment(st, chan.identity_channel(2), 25,
                                           seed=haar.RngSeed(1)))
    payload = rep.to_json()
    assert payload["num_samples"] == 25
    assert len(payload["per_sample_distances"]) == 25
    csv = rep.samples_csv()
    assert csv.splitlines()[0] == "sample,distance"
    assert len(csv.strip().splitlines()) == 26


def _wide_input():
    # a state on A:2,E:128 and a 2 -> 4 map on A: the output on B:4,E:128
    # has total dimension 512
    rng = np.random.default_rng(0)
    return (random_density(rng, (("A", 2), ("E", 128))), chan.random_cpm(rng, 2, 4),
            rng.standard_normal((4, 2)))


@pytest.mark.parametrize("build, inputs", [
    (dec.independent_state, lambda: (5,)), (dec.classical_state, lambda: (5,)),
    (chan.parse_spec, lambda: ("id:8",)), (chan.parse_spec, lambda: ("id+trace:9,1",)),
    (dec.independent_state, lambda: (40,)), (dec.classical_state, lambda: (40,)),
    (chan.parse_spec, lambda: ("id:40",)), (chan.parse_spec, lambda: ("meas:40",)),
    (lambda st, ch, _: chan.apply(ch, st, ["A"]), _wide_input),
    (lambda st, _, m: apply_matrix(st, m, ["A"], out=(("B", 4),)), _wide_input),
    (chan.random_cpm, lambda: (np.random.default_rng(0), 32, 16)),
    (chan.random_tp_channel, lambda: (np.random.default_rng(0), 32, 16)),
], ids=["independent_state(5)", "classical_state(5)", "id:8", "id+trace:9,1",
        "independent_state(40)", "classical_state(40)", "id:40", "meas:40",
        "apply(2->4 on A:2,E:128)", "apply_matrix(2->4 on A:2,E:128)",
        "random_cpm(32,16)", "random_tp_channel(32,16)"])
def test_reference_builders_check_the_cap_before_allocating(build, inputs):
    # built first, the first four allocated 25.2, 16.8, 2.1 and 4.3 MB before
    # the operator's own cap check failed, the next four ended in numpy's
    # "array is too big", and the last four allocated 8.0, 8.0, 12.0 and
    # 16.3 MiB before the check of their output's dimension
    args = inputs()
    tracemalloc.start()
    try:
        with pytest.raises(DimCapError, match="exceeds cap"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
