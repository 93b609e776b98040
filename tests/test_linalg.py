"""Tests for the labeled linear-algebra core.

Derived expectations are computed by independent oracles (index arithmetic,
explicit double sums, eigenvalue sums) rather than by the code under test.
"""

import json

import numpy as np
import pytest

from qdecouple.channel import parse_spec
from qdecouple.decoupling import classical_state
from qdecouple.linalg import (
    TOL_PSD,
    DimCapError,
    Dims,
    InvariantError,
    LabelError,
    PureState,
    StateOperator,
    dims_of,
    extension_map,
    fidelities,
    fidelity,
    generalized_fidelity,
    herm_basis,
    herm_combination,
    herm_coords,
    herm_matrices,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    pure_marginal,
    purified_distance,
    purify,
    random_density,
    parse_state_json,
    random_pure,
    sqrt_psd,
    state_from_json,
    state_to_json,
    swap_operator,
    tensor,
    trace_distance,
    trace_norm,
    trace_norms,
    _block_eigvalsh,
)


def basis_ket(pairs, index):
    """The product basis vector |index> on the labeled dimensions ``pairs``."""
    dims = Dims(tuple(pairs))
    amps = np.zeros(dims.total, dtype=complex)
    amps[np.ravel_multi_index(tuple(index), dims.dims)] = 1.0
    return PureState(dims, amps, validate=False)


def rnd_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


# ---------------------------------------------------------------------------
# construction invariants
# ---------------------------------------------------------------------------

def test_dims_reject_duplicates_and_bad_dims():
    with pytest.raises(LabelError):
        Dims((("A", 2), ("A", 3)))
    with pytest.raises(ValueError):
        Dims((("A", 0),))


def test_state_operator_validation():
    with pytest.raises(InvariantError):
        StateOperator(dims_of(("A", 2)), np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvariantError):  # negative eigenvalue
        StateOperator(dims_of(("A", 2)), np.diag([1.0, -0.5]))
    with pytest.raises(InvariantError):  # trace above one
        StateOperator(dims_of(("A", 2)), np.diag([0.9, 0.9]))
    with pytest.raises(DimCapError):
        maximally_mixed((("A", 512),))
    # subnormalized states are fine
    assert not StateOperator(dims_of(("A", 2)), np.diag([0.3, 0.2])).is_normalized
    # normalized means trace one within TOL_TRACE = 1e-9, on either side
    for off, normalized in ((0.0, True), (5e-10, True), (-5e-10, True), (-2e-9, False)):
        state = StateOperator(dims_of(("A", 2)), np.diag([0.5, 0.5 + off]))
        assert state.is_normalized is normalized, off


def permuted_blocks(rng, blocks, zeros=0):
    """The matrices ``blocks`` on the diagonal, ``zeros`` all-zero rows after
    them, and the whole under a random permutation."""
    n = sum(len(b) for b in blocks) + zeros
    m = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        m[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    p = rng.permutation(n)
    return m[np.ix_(p, p)]


def dense_psd_decision(m):
    """The positivity decision from one dense eigvalsh of the whole operator."""
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return not w[0] < -TOL_PSD * max(np.abs(w).max(), 1.0)


@pytest.mark.parametrize("sizes, zeros", [
    ([1] * 12, 0),
    ([1] * 5, 7),
    ([40], 0),
    ([3, 3, 3, 5, 1, 1, 40, 2, 2, 7], 6),
    ([2] * 20, 3),
    ([17, 1, 23, 1], 0),
    ([12, 12, 12, 1, 1], 30),
])
def test_block_eigvalsh_matches_dense_eigvalsh(sizes, zeros):
    rng = np.random.default_rng(sum(sizes) + zeros)
    h = permuted_blocks(rng, [rnd_herm(rng, s) for s in sizes], zeros)
    dense = np.linalg.eigvalsh(h)
    w = _block_eigvalsh(h)
    if min(sizes) > 1 and not zeros:
        np.testing.assert_array_equal(w, dense)  # nothing isolated: the dense call
    elif max(sizes) == 1:
        np.testing.assert_array_equal(np.sort(w), dense)  # diagonal: exact
    else:
        np.testing.assert_allclose(np.sort(w), dense, rtol=0,
                                   atol=1e-12 * np.abs(dense).max())


def test_block_eigvalsh_on_a_choi_matrix():
    # id+trace:4,3 has a 128 x 128 Choi matrix: 16 linked indices, the
    # other 112 all zero
    choi = parse_spec("id+trace:4,3").choi.matrix
    link = choi != 0
    np.fill_diagonal(link, False)
    assert np.count_nonzero(link.any(axis=1)) == 16
    dense = np.linalg.eigvalsh(choi)
    np.testing.assert_allclose(np.sort(_block_eigvalsh(choi)), dense, rtol=0, atol=1e-15)


def test_state_validation_finds_a_negative_eigenvalue_in_any_block():
    c5 = classical_state(4)
    zero = np.flatnonzero(np.diagonal(c5.matrix) == 0)[3]
    m = c5.matrix.copy()
    m[zero, zero] = -1e-6
    with pytest.raises(InvariantError, match=r"min eigenvalue -1\.000e-06"):
        StateOperator(c5.dims, m)
    # every diagonal entry is >= 0; only the 2 x 2 block of two linked
    # indices has the eigenvalue 1/16 - (1/16 + 1e-6)
    i, j = np.flatnonzero(np.diagonal(c5.matrix))[[2, 9]]
    m = c5.matrix.copy()
    m[i, j] = m[j, i] = 1 / 16 + 1e-6
    with pytest.raises(InvariantError, match=r"min eigenvalue -1\.000e-06"):
        StateOperator(c5.dims, m)


@pytest.mark.parametrize("low", [0.0, -1e-13, -1e-6, -0.02])
def test_state_validation_decisions_match_dense_eigvalsh(low):
    rng = np.random.default_rng(2700)
    for sizes, zeros in (([1] * 8, 4), ([2, 2, 5, 1, 9], 3), ([6] * 4, 0), ([33], 0)):
        blocks = []
        for s in sizes:
            v = np.linalg.qr(rng.standard_normal((s, s))
                             + 1j * rng.standard_normal((s, s)))[0]
            blocks.append((v * rng.uniform(0.01, 1.0, s)) @ v.conj().T)
        total = sum(np.trace(b).real for b in blocks)
        blocks = [0.9 * b / total for b in blocks]
        # one eigenvalue of one block moved to ``low``
        k = rng.integers(len(blocks))
        w, v = np.linalg.eigh(blocks[k])
        w[0] = low
        blocks[k] = (v * w) @ v.conj().T
        m = permuted_blocks(rng, blocks, zeros)
        expected = dense_psd_decision(m)
        assert expected is (low > -1e-10), (sizes, low)
        try:
            StateOperator(dims_of(("A", len(m))), m)
            accepted = True
        except InvariantError:
            accepted = False
        assert accepted is expected, (sizes, zeros, low)


def test_dim_cap_configurable():
    st = maximally_mixed((("A", 512),), cap=1024)
    assert st.trace == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# tensor product
# ---------------------------------------------------------------------------

def test_tensor_maximally_mixed():
    a = maximally_mixed((("A", 2),))
    b = maximally_mixed((("B", 2),))
    out = tensor(a, b)
    np.testing.assert_allclose(out.matrix, np.eye(4) / 4)
    assert out.dims.pairs == (("A", 2), ("B", 2))


def test_tensor_basis_projectors():
    p0 = basis_ket((("A", 2),), (0,)).to_operator()
    p1 = basis_ket((("B", 2),), (1,)).to_operator()
    out = tensor(p0, p1)
    want = np.zeros((4, 4))
    want[1, 1] = 1.0  # |01>
    np.testing.assert_allclose(out.matrix, want, atol=1e-15)


def test_tensor_entrywise_kronecker_oracle():
    rng = np.random.default_rng(1)
    a = random_density(rng, (("A", 2),))
    b = random_density(rng, (("B", 2),))
    out = tensor(a, b)
    for i in range(4):
        for j in range(4):
            i1, i2 = divmod(i, 2)
            j1, j2 = divmod(j, 2)
            assert out.matrix[i, j] == pytest.approx(
                a.matrix[i1, j1] * b.matrix[i2, j2])
    assert out.trace == pytest.approx(a.trace * b.trace)


def test_tensor_rejects_duplicate_labels():
    a = maximally_mixed((("A", 2),))
    with pytest.raises(LabelError):
        tensor(a, a)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    a = random_density(rng, (("A", 3),))
    b = StateOperator(dims_of(("B", 2)), 0.5 * random_density(rng, (("B", 2),)).matrix)
    joint = tensor(a, b)
    red = partial_trace(joint, ["A"])
    np.testing.assert_allclose(red.matrix, a.matrix * b.trace, atol=1e-12)


def test_partial_trace_maximally_entangled_marginal():
    psi = maximally_entangled("A", "E", 2).to_operator()
    red = partial_trace(psi, ["A"])
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_three_subsystem_double_sum_oracle():
    rng = np.random.default_rng(3)
    st = random_density(rng, (("A", 2), ("B", 3), ("C", 2)))
    red = partial_trace(st, ["A", "C"])
    t = st.matrix.reshape(2, 3, 2, 2, 3, 2)
    want = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for c in range(2):
            for a2 in range(2):
                for c2 in range(2):
                    for b in range(3):
                        want[a * 2 + c, a2 * 2 + c2] += t[a, b, c, a2, b, c2]
    np.testing.assert_allclose(red.matrix, want, atol=1e-12)
    assert red.trace == pytest.approx(st.trace, abs=1e-12)


def test_partial_trace_unknown_label():
    st = maximally_mixed((("A", 2),))
    with pytest.raises(LabelError):
        partial_trace(st, ["Q"])


def test_partial_trace_preserves_positivity_and_trace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        st = random_density(rng, (("A", 2), ("B", 2), ("C", 3)))
        red = partial_trace(st, ["B"])
        w = np.linalg.eigvalsh(red.matrix)
        assert w.min() >= -1e-12
        assert red.trace == pytest.approx(st.trace, abs=1e-12)


def test_pure_marginal_matches_operator_partial_trace():
    rng = np.random.default_rng(5)
    psi = random_pure(rng, (("A", 2), ("B", 3), ("C", 2)))
    m1 = pure_marginal(psi, ["A", "C"])
    m2 = partial_trace(psi.to_operator(), ["A", "C"])
    np.testing.assert_allclose(m1.matrix, m2.matrix, atol=1e-12)


def test_sqrt_psd_and_fidelity_take_stacks_item_by_item():
    rng = np.random.default_rng(21)
    stack = np.stack([random_density(rng, (("A", 3),)).matrix for _ in range(4)])
    stack[2] *= 1e6
    sigma = random_density(rng, (("A", 3),)).matrix
    for item, root, f in zip(stack, sqrt_psd(stack), fidelities(stack, sigma[None])):
        np.testing.assert_array_equal(root, sqrt_psd(item))
        assert f == fidelity(item, sigma)
    # each item is held to its own norm: -1e-6 is rounding noise next to 1e6
    # but not next to 1, wherever the item sits in the stack
    tolerated, negative = np.diag([1e6, -1e-6]), np.diag([1.0, -1e-6])
    np.testing.assert_array_equal(sqrt_psd(np.stack([tolerated, np.eye(2)]))[0],
                                  np.diag([1e3, 0.0]))
    with pytest.raises(InvariantError, match=r"min eigenvalue -1\.000e-06"):
        sqrt_psd(np.stack([tolerated, negative, np.eye(2)]))


# ---------------------------------------------------------------------------
# trace norm
# ---------------------------------------------------------------------------

def test_trace_norm_identity():
    for d in (1, 2, 5):
        assert trace_norm(np.eye(d)) == pytest.approx(d)


def test_trace_norm_signed_eigenvalues():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)


def test_trace_norm_eigen_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = rnd_herm(rng, 4)
        want = float(np.abs(np.linalg.eigvalsh(m)).sum())
        assert trace_norm(m) == pytest.approx(want, abs=1e-10)


def test_trace_norm_psd_equals_trace():
    rng = np.random.default_rng(7)
    st = random_density(rng, (("A", 3),))
    assert trace_norm(st.matrix) == pytest.approx(st.trace, abs=1e-12)


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))
    with pytest.raises(ValueError):
        trace_norm(np.ones((4, 2, 3)))
    with pytest.raises(ValueError):
        trace_norm(np.ones(3))


def test_trace_norm_stack_is_sum_of_matrices():
    rng = np.random.default_rng(8)
    stack = np.array([rnd_herm(rng, 5) for _ in range(6)]).reshape(2, 3, 5, 5)
    want = sum(float(np.abs(np.linalg.eigvalsh(m)).sum()) for m in stack.reshape(6, 5, 5))
    assert trace_norm(stack) == pytest.approx(want, rel=1e-13)
    assert trace_norm(stack[:1, :1]) == trace_norm(stack[0, 0])
    assert trace_norm(np.zeros((0, 5, 5))) == 0.0


def test_trace_norm_non_hermitian_stack_takes_svd():
    # one non-Hermitian matrix sends the whole stack to the SVD; on it the
    # eigenvalue route of the Hermitian part would give a different number
    rng = np.random.default_rng(9)
    herm = rnd_herm(rng, 4)
    skew = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    want = sum(float(np.linalg.svd(m, compute_uv=False).sum()) for m in (herm, skew))
    got = trace_norm(np.array([herm, skew]))
    assert got == pytest.approx(want, rel=1e-13)
    herm_skew = (skew + skew.conj().T) / 2
    wrong = trace_norm(herm) + float(np.abs(np.linalg.eigvalsh(herm_skew)).sum())
    assert abs(got - wrong) > 1e-3


def test_trace_norms_route_each_item_on_its_own():
    # items of 3 matrices each; item 1 holds one non-Hermitian matrix, so it
    # alone takes the SVD, and every value equals trace_norm of that item
    rng = np.random.default_rng(10)
    items = np.array([[rnd_herm(rng, 4) for _ in range(3)] for _ in range(4)])
    items[1, 2] = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = trace_norms(items)
    assert got.shape == (4,)
    for k, item in enumerate(items):
        assert got[k] == trace_norm(item)
        assert trace_norms(items[k:k + 1])[0] == got[k]
        if k == 1:
            want = sum(float(np.linalg.svd(m, compute_uv=False).sum()) for m in item)
        else:
            want = sum(float(np.abs(np.linalg.eigvalsh(m)).sum()) for m in item)
        assert got[k] == pytest.approx(want, rel=1e-13)
    flat = items.reshape(12, 4, 4)
    got_flat = trace_norms(flat)
    for k, m in enumerate(flat):
        assert got_flat[k] == trace_norm(m)
    assert trace_norms(np.zeros((0, 3, 3))).shape == (0,)
    with pytest.raises(ValueError):
        trace_norms(np.eye(3))
    with pytest.raises(ValueError):
        trace_norms(np.ones((2, 3, 4)))


# ---------------------------------------------------------------------------
# fidelity and purified distance
# ---------------------------------------------------------------------------

def test_fidelity_self_is_trace():
    rng = np.random.default_rng(8)
    st = random_density(rng, (("A", 3),))
    assert fidelity(st, st) == pytest.approx(st.trace, abs=1e-10)
    sub = StateOperator(dims_of(("A", 3)), 0.7 * st.matrix)
    assert fidelity(sub, sub) == pytest.approx(0.7, abs=1e-10)


def test_fidelity_orthogonal_pure_states():
    p0 = basis_ket((("A", 2),), (0,)).to_operator()
    p1 = basis_ket((("A", 2),), (1,)).to_operator()
    assert fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_state_overlap_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        phi = random_pure(rng, (("A", 3),))
        sigma = random_density(rng, (("A", 3),))
        want = np.sqrt(float(np.real(
            phi.amplitudes.conj() @ sigma.matrix @ phi.amplitudes)))
        assert fidelity(phi.to_operator(), sigma) == pytest.approx(want, abs=1e-10)


def test_fidelity_symmetric_and_bounded():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = random_density(rng, (("A", 3),))
        b = StateOperator(dims_of(("A", 3)),
                          rng.uniform(0.2, 1.0) * random_density(rng, (("A", 3),)).matrix)
        f1, f2 = fidelity(a, b), fidelity(b, a)
        assert f1 == pytest.approx(f2, abs=1e-10)
        assert -1e-12 <= f1 <= 1.0 + 1e-10


def test_purified_distance_basics():
    rng = np.random.default_rng(11)
    st = random_density(rng, (("A", 3),))
    assert purified_distance(st, st) == pytest.approx(0.0, abs=1e-7)
    p0 = basis_ket((("A", 2),), (0,)).to_operator()
    p1 = basis_ket((("A", 2),), (1,)).to_operator()
    assert purified_distance(p0, p1) == pytest.approx(1.0, abs=1e-12)


def test_generalized_fidelity_decomposition_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = StateOperator(dims_of(("A", 3)),
                          rng.uniform(0.3, 1.0) * random_density(rng, (("A", 3),)).matrix)
        b = StateOperator(dims_of(("A", 3)),
                          rng.uniform(0.3, 1.0) * random_density(rng, (("A", 3),)).matrix)
        want = fidelity(a, b) + np.sqrt((1 - a.trace) * (1 - b.trace))
        assert generalized_fidelity(a, b) == pytest.approx(want, abs=1e-12)
        p = purified_distance(a, b)
        assert p == pytest.approx(np.sqrt(max(0.0, 1 - min(want, 1.0) ** 2)), abs=1e-12)


def test_purified_distance_metric_properties():
    rng = np.random.default_rng(13)
    for _ in range(50):
        states = [random_density(rng, (("A", 2),), rank=rng.integers(1, 3))
                  for _ in range(3)]
        scale = rng.uniform(0.5, 1.0, size=3)
        a, b, c = (StateOperator(dims_of(("A", 2)), s * st.matrix)
                   for s, st in zip(scale, states))
        dab = purified_distance(a, b)
        dac = purified_distance(a, c)
        dcb = purified_distance(c, b)
        assert dab == pytest.approx(purified_distance(b, a), abs=1e-10)
        assert dab <= dac + dcb + 1e-9


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_density(rng, (("A", 3),), rank=int(rng.integers(1, 4)))
        b = random_density(rng, (("A", 3),), rank=int(rng.integers(1, 4)))
        f = fidelity(a, b)
        half_dist = 0.5 * trace_distance(a, b)
        p = purified_distance(a, b)
        assert 1 - f <= half_dist + 1e-9
        assert half_dist <= p + 1e-9


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def test_purify_maximally_mixed():
    psi = purify(maximally_mixed((("A", 2),)), "R")
    assert psi.dims.pairs == (("A", 2), ("R", 2))
    red = pure_marginal(psi, ["A"])
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-10)


def test_purify_pure_input_has_trivial_ancilla():
    psi0 = basis_ket((("A", 3),), (1,))
    pur = purify(psi0.to_operator(validate=True), "R")
    assert pur.dims.dim_of("R") == 1
    assert abs(np.vdot(pur.amplitudes[:3], psi0.amplitudes)) == pytest.approx(1.0)


def test_purify_round_trip_oracle():
    rng = np.random.default_rng(15)
    for _ in range(20):
        st = random_density(rng, (("A", 2), ("B", 2)), rank=int(rng.integers(1, 5)))
        pur = purify(st, "R")
        red = pure_marginal(pur, ["A", "B"])
        assert trace_distance(red, st) <= 1e-9


def test_purify_rejects_subnormalized():
    sub = StateOperator(dims_of(("A", 2)), np.diag([0.4, 0.4]))
    with pytest.raises(InvariantError, match="purify requires a normalized state"):
        purify(sub, "R")
    # trace one within TOL_TRACE passes
    purify(StateOperator(dims_of(("A", 2)), np.diag([0.5, 0.5 - 5e-10])), "R")
    with pytest.raises(InvariantError):
        purify(StateOperator(dims_of(("A", 2)), np.diag([0.5, 0.5 - 2e-9])), "R")


# ---------------------------------------------------------------------------
# swap operator
# ---------------------------------------------------------------------------

def test_herm_matrices_order_and_orthonormality():
    # oracle: the basis written out by index, diagonal units first, then the
    # (symmetric, antisymmetric) pair of each a < b in row-major order
    for d in (1, 2, 3, 4):
        want = []
        for a in range(d):
            want.append(np.outer(np.eye(d)[a], np.eye(d)[a]).astype(complex))
        for a in range(d):
            for b in range(a + 1, d):
                e_ab = np.outer(np.eye(d)[a], np.eye(d)[b])
                want.append((e_ab + e_ab.T) / np.sqrt(2))
                want.append(1j * (e_ab - e_ab.T) / np.sqrt(2))
        got = list(herm_matrices(d))
        assert len(got) == d * d
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, atol=1e-15)
        np.testing.assert_array_equal(herm_basis(d), np.array(got))
        gram = np.einsum("iab,jba->ij", np.array(got), np.array(got)).real
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-14)


def test_herm_coords_and_combination_against_the_basis():
    # oracle: Re tr(h_i m) and sum_i u_i h_i written out over herm_basis
    rng = np.random.default_rng(23)
    for d in (1, 2, 3, 5):
        basis = herm_basis(d)
        m = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
        want = np.einsum("iab,kba->ki", basis, m).real
        np.testing.assert_allclose(herm_coords(m), want, atol=1e-14)
        # a non-contiguous view: m^T has coordinates Re tr(h_i m^T)
        np.testing.assert_allclose(herm_coords(m.transpose(0, 2, 1)),
                                   np.einsum("iab,kab->ki", basis, m).real, atol=1e-14)
        u = rng.standard_normal((3, d * d))
        np.testing.assert_allclose(herm_combination(u), np.einsum("ki,iab->kab", u, basis),
                                   atol=1e-14)
        np.testing.assert_allclose(herm_coords(herm_combination(u)), u, atol=1e-14)


def test_swap_trivial_dimension():
    np.testing.assert_allclose(swap_operator(1), [[1.0]])


def test_swap_properties():
    for d in (2, 3):
        f = swap_operator(d)
        np.testing.assert_allclose(f @ f, np.eye(d * d), atol=1e-14)
        assert np.trace(f) == pytest.approx(d)


def test_swap_trick_trace_oracle():
    rng = np.random.default_rng(16)
    for d in (2, 3, 4):
        f = swap_operator(d)
        for _ in range(200):
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            n = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            lhs = np.trace(np.kron(m, n) @ f)
            rhs = np.trace(m @ n)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# extension map
# ---------------------------------------------------------------------------

def test_extension_map_identity_case():
    rng = np.random.default_rng(17)
    st = random_density(rng, (("A", 2), ("B", 2)))
    rho_a = partial_trace(st, ["A"])
    t_a, ext = extension_map(st, rho_a)
    # T is the projector onto supp(rho_A), here full rank: identity
    np.testing.assert_allclose(t_a, np.eye(2), atol=1e-8)
    assert trace_distance(ext, st) <= 1e-8


def test_extension_map_product_factorization():
    rng = np.random.default_rng(18)
    rho_a = random_density(rng, (("A", 2),))
    rho_b = random_density(rng, (("B", 3),))
    joint = tensor(rho_a, rho_b)
    sigma_a = random_density(rng, (("A", 2),))
    _, ext = extension_map(joint, sigma_a)
    want = tensor(sigma_a, rho_b)
    assert trace_distance(ext, want) <= 1e-8


def test_extension_map_post_conditions_random():
    rng = np.random.default_rng(19)
    for trial in range(100):
        rank = int(rng.integers(1, 5)) if trial % 2 == 0 else 4
        st = random_density(rng, (("A", 4), ("B", 2)), rank=int(rng.integers(2, 9)))
        rho_a = partial_trace(st, ["A"])
        # sigma supported inside supp(rho_A): compress a random state
        w, v = np.linalg.eigh(rho_a.matrix)
        keep = v[:, w > 1e-12 * w[-1]]
        raw = random_density(rng, (("A", keep.shape[1]),)).matrix
        sig = keep @ raw @ keep.conj().T
        sigma_a = StateOperator(dims_of(("A", 4)), sig / np.trace(sig).real)
        _, ext = extension_map(st, sigma_a)
        red = partial_trace(ext, ["A"])
        assert trace_distance(red, sigma_a) <= 1e-9
        lhs = purified_distance(st, ext)
        rhs = purified_distance(rho_a, sigma_a)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_extension_map_label_mismatch():
    rng = np.random.default_rng(20)
    st = random_density(rng, (("A", 2), ("B", 2)))
    sigma = random_density(rng, (("Q", 2),))
    with pytest.raises(LabelError):
        extension_map(st, sigma)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def test_state_json_round_trip():
    rng = np.random.default_rng(21)
    st = random_density(rng, (("A", 2), ("E", 3)))
    back = state_from_json(state_to_json(st))
    assert back.dims.pairs == st.dims.pairs
    np.testing.assert_array_equal(back.matrix, st.matrix)


def test_state_json_rejects_invalid():
    bad = state_to_json(maximally_mixed((("A", 2),)))
    bad["matrix"]["re"][0][0] = 5.0
    with pytest.raises(InvariantError):
        state_from_json(bad)


def _malformed_state(defect):
    obj = state_to_json(maximally_mixed((("A", 2),)))
    defect(obj)
    return obj


@pytest.mark.parametrize("make", [
    lambda: [_malformed_state(lambda o: None)],
    lambda: _malformed_state(lambda o: o.pop("matrix")),
    lambda: _malformed_state(lambda o: o.update(matrix=[[0.5, 0.0], [0.0, 0.5]])),
    lambda: _malformed_state(lambda o: o.update(dims={"label": "A", "dim": 2})),
    lambda: _malformed_state(lambda o: o.update(dims=[["A", 2]])),
    lambda: _malformed_state(lambda o: o["dims"][0].update(dim=2.5)),
    lambda: _malformed_state(lambda o: o["dims"][0].update(dim="2")),
    lambda: _malformed_state(lambda o: o["dims"][0].update(dim=True)),
    lambda: _malformed_state(lambda o: o["dims"][0].update(label=1)),
    lambda: _malformed_state(lambda o: o["dims"][0].pop("dim")),
    lambda: _malformed_state(lambda o: o["matrix"].update(im=[[0, 0]])),
    lambda: _malformed_state(lambda o: o["matrix"].update(re=[[0.5, 0.0]] * 3)),
    lambda: _malformed_state(lambda o: o["matrix"].update(re=[[0.5], [0.0, 0.5]])),
    lambda: _malformed_state(lambda o: o["matrix"].update(im={"0": 0})),
    lambda: _malformed_state(lambda o: o["matrix"].pop("im")),
    lambda: {"dims": [{"label": "A", "dim": 2}],
             "matrix": {"rows": [0, 1], "re": [0.5, 0.5], "im": [0.0, 0.0]}},
    lambda: _coordinate_json(re={"0": 0.5}),
    lambda: _coordinate_json(im=["x", 0.0]),
], ids=["top-level list", "no matrix", "matrix list", "dims object", "dims pair",
        "float dim", "string dim", "bool dim", "int label", "no dim",
        "im one row", "re three rows", "ragged re", "im object", "no im",
        "coordinates without cols", "coordinate re object", "coordinate im string"])
def test_state_json_rejects_malformed_objects(make):
    # each of these raised KeyError, TypeError or numpy's ValueError, or
    # loaded a truncated dim, a coerced one or a broadcast row
    with pytest.raises(InvariantError):
        parse_state_json(make(), None)


def test_state_json_matrix_matches_the_two_array_construction(tmp_path):
    # the loader fills one complex array in place of re + 1j * im; the CLI
    # loader drops the parsed lists before validating
    from qdecouple import cli

    st = random_density(np.random.default_rng(22), (("A", 4), ("E", 8)))
    obj = state_to_json(st)
    old = (np.asarray(obj["matrix"]["re"], dtype=float)
           + 1j * np.asarray(obj["matrix"]["im"], dtype=float))
    assert np.array_equal(state_from_json(obj).matrix, old)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    loaded = cli._load_state(str(path), None)
    assert loaded.dims.pairs == st.dims.pairs
    assert np.array_equal(loaded.matrix, old)
    bad = state_to_json(maximally_mixed((("A", 2),)))
    bad["matrix"]["im"][0][1] = 0.5
    path.write_text(json.dumps(bad))
    with pytest.raises(InvariantError):
        cli._load_state(str(path), None)


def _dense_json(st):
    """The dense encoding, which every state file used before the coordinate
    form and which the reader still takes."""
    return {"dims": [{"label": lab, "dim": d} for lab, d in st.dims.pairs],
            "matrix": {"re": st.matrix.real.tolist(), "im": st.matrix.imag.tolist()}}


def _bits(m):
    return np.ascontiguousarray(m).view(np.uint64)


def _signed_zero_state():
    # a complex state whose stored entries include -0.0 parts, and a -0.0 + 0j
    # entry that is stored only for its sign bit
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0], m[3, 3] = 0.75, 0.25
    m[0, 3], m[3, 0] = complex(-0.0, 0.125), complex(-0.0, -0.125)
    m[1, 1] = complex(-0.0, 0.0)
    m[5, 2] = complex(0.0, -0.0)
    return StateOperator(dims_of(("A", 2), ("E", 4)), m)


@pytest.mark.parametrize("make", [
    lambda: classical_state(4),
    lambda: parse_spec("id+trace:4,3").choi,
    _signed_zero_state,
], ids=["classical_state(4)", "choi id+trace:4,3", "signed zeros"])
def test_state_json_coordinate_form_round_trips_bit_for_bit(make):
    st = make()
    obj = json.loads(json.dumps(state_to_json(st)))
    assert set(obj["matrix"]) == {"rows", "cols", "re", "im"}
    back = state_from_json(obj)
    assert back.dims.pairs == st.dims.pairs
    assert np.array_equal(_bits(back.matrix), _bits(st.matrix))


def test_state_json_coordinate_form_is_row_major_and_keeps_signed_zeros():
    obj = state_to_json(_signed_zero_state())["matrix"]
    assert list(zip(obj["rows"], obj["cols"])) == [(0, 0), (0, 3), (1, 1), (3, 0),
                                                   (3, 3), (5, 2)]
    assert np.signbit(obj["re"][2]) and np.signbit(obj["im"][5])


@pytest.mark.parametrize("stored, form", [(7, {"rows", "cols", "re", "im"}),
                                          (8, {"re", "im"})])
def test_state_json_encoding_switches_at_half_the_entries(stored, form):
    # 4 x 4: fewer than 8 stored entries take the coordinate form
    m = np.zeros(16, dtype=complex)
    m[:stored] = np.arange(1, stored + 1) * (1 - 0.5j)
    st = StateOperator(dims_of(("A", 4)), m.reshape(4, 4), validate=False)
    obj = state_to_json(st)
    assert set(obj["matrix"]) == form
    _, matrix = parse_state_json(json.loads(json.dumps(obj)), None)
    assert np.array_equal(_bits(matrix), _bits(st.matrix))


def _coordinate_json(**matrix):
    """A 2 x 2 state in coordinate form, with ``matrix`` overriding its lists."""
    entries = {"rows": [0, 1], "cols": [0, 1], "re": [0.5, 0.5], "im": [0.0, 0.0]}
    entries.update(matrix)
    return {"dims": [{"label": "A", "dim": 2}], "matrix": entries}


def test_state_json_coordinate_form_loads_a_valid_state():
    st = state_from_json(_coordinate_json())
    assert np.array_equal(st.matrix, np.eye(2) / 2)


@pytest.mark.parametrize("matrix", [
    {"cols": [0]},
    {"re": [0.5, 0.25, 0.25]},
    {"im": [0.0]},
    {"re": [[0.5], [0.5]]},
], ids=["cols", "re", "im", "nested re"])
def test_state_json_rejects_coordinate_lists_of_unequal_length(matrix):
    with pytest.raises(InvariantError, match="differ in length"):
        parse_state_json(_coordinate_json(**matrix), None)


@pytest.mark.parametrize("matrix", [
    {"rows": [0.0, 1]},
    {"cols": [0, True]},
    {"rows": ["0", 1]},
    {"cols": 0},
], ids=["float", "bool", "string", "not a list"])
def test_state_json_rejects_non_integer_indices(matrix):
    with pytest.raises(InvariantError, match="list of integers"):
        parse_state_json(_coordinate_json(**matrix), None)


@pytest.mark.parametrize("matrix", [
    {"rows": [-1, 1]},       # numpy would wrap it to row 1
    {"cols": [0, 2]},
    {"rows": [0, 2 ** 70]},  # past int64, checked before any conversion
], ids=["negative", "at d", "huge"])
def test_state_json_rejects_indices_outside_the_matrix(matrix):
    with pytest.raises(InvariantError, match="outside"):
        parse_state_json(_coordinate_json(**matrix), None)


def test_state_json_rejects_a_duplicate_coordinate():
    obj = _coordinate_json(rows=[1, 1], cols=[1, 1])
    with pytest.raises(InvariantError, match="twice"):
        parse_state_json(obj, None)


def test_state_json_cap_precedes_the_matrix_allocation(tmp_path):
    # 2^40 x 2^40 complex entries would need 2^84 bytes: a loader that
    # allocated first would raise numpy's "too big" ValueError or MemoryError
    from qdecouple import cli

    obj = _coordinate_json()
    obj["dims"] = [{"label": "A", "dim": 2 ** 20}, {"label": "E", "dim": 2 ** 20}]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert path.stat().st_size < 200
    with pytest.raises(DimCapError, match="exceeds cap 256"):
        cli._load_state(str(path), None)
    with pytest.raises(DimCapError, match="exceeds cap 64"):
        state_from_json(obj, cap=64)


def test_legacy_dense_file_loads_to_the_same_bits(tmp_path):
    from qdecouple import cli

    st = classical_state(4)
    dense, sparse = tmp_path / "dense.json", tmp_path / "sparse.json"
    dense.write_text(json.dumps(_dense_json(st)))
    sparse.write_text(json.dumps(state_to_json(st)))
    assert sparse.stat().st_size < 1000 < dense.stat().st_size
    for path in (dense, sparse):
        loaded = cli._load_state(str(path), None)
        assert loaded.dims.pairs == st.dims.pairs
        assert np.array_equal(_bits(loaded.matrix), _bits(st.matrix))
