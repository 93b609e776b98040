"""Tests for the labeled linear-algebra core.

Derived expectations are computed by independent oracles (index arithmetic,
explicit double sums, eigenvalue sums) rather than by the code under test.
"""

import numpy as np
import pytest

from qdecouple import linalg
from qdecouple.linalg import (
    DimCapError,
    Dims,
    InvariantError,
    LabelError,
    StateOperator,
    basis_ket,
    dims_of,
    extension_map,
    fidelity,
    generalized_fidelity,
    herm_basis,
    herm_matrices,
    is_hermitian,
    maximally_entangled,
    maximally_mixed,
    partial_trace,
    pure_marginal,
    purified_distance,
    purify,
    random_density,
    random_pure,
    sqrt_psd,
    state_from_json,
    state_to_json,
    swap_operator,
    tensor,
    trace_distance,
    trace_norm,
    trace_norms,
)


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
    StateOperator(dims_of(("A", 2)), np.diag([0.3, 0.2]))


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


def test_tolerance_defaults_are_read_at_call_time(monkeypatch):
    # --tol-herm and --tol-psd set these constants after import
    skew = np.array([[0.0, 0.1], [0.0, 0.0]])
    assert not is_hermitian(skew)
    monkeypatch.setattr(linalg, "TOL_HERM", 0.5)
    assert is_hermitian(skew)
    assert not is_hermitian(skew, tol=1e-12)
    slightly_negative = np.diag([1.0, -1e-6])
    with pytest.raises(InvariantError):
        sqrt_psd(slightly_negative)
    monkeypatch.setattr(linalg, "TOL_PSD", 1e-3)
    np.testing.assert_array_equal(sqrt_psd(slightly_negative), np.diag([1.0, 0.0]))


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
    with pytest.raises(InvariantError):
        purify(sub, "R")


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
