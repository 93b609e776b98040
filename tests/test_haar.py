"""Haar sampling and exact twirling tests, including the Monte Carlo
cross-checks of the exact two-copy average."""

import hashlib

import numpy as np
import pytest

from qdecouple import haar
from qdecouple.linalg import swap_operator


def test_unitarity():
    rng = haar.generator(0)
    for d in (1, 2, 5):
        u = haar.haar_unitary(d, rng)
        assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-12


def test_d1_is_uniform_phase():
    rng = haar.generator(1)
    samples = np.array([haar.haar_unitary(1, rng)[0, 0] for _ in range(2000)])
    np.testing.assert_allclose(np.abs(samples), 1.0, atol=1e-12)
    # uniform phase: first circular moment vanishes statistically
    assert abs(samples.mean()) <= 4 / np.sqrt(2000)


def test_projector_twirl_matches_exact_average():
    # mean of U E11 U^H over 1e4 samples approaches I/2 within 3 std errors
    n = 10_000
    e11 = np.diag([1.0, 0.0]).astype(complex)
    acc = np.zeros((2, 2), dtype=complex)
    acc2 = np.zeros((2, 2))
    for i in range(n):
        u = haar.haar_unitary_indexed(7, i, 2)
        term = u @ e11 @ u.conj().T
        acc += term
        acc2 += np.abs(term) ** 2
    mean = acc / n
    std_err = np.sqrt(np.maximum(acc2 / n - np.abs(mean) ** 2, 0.0) / n)
    assert (np.abs(mean - np.eye(2) / 2) <= 3 * std_err + 1e-12).all()


def test_left_invariance_statistics():
    # distribution invariant under fixed left multiplication: compare the
    # mean of a fixed matrix element under U and VU
    n = 4000
    v = haar.haar_unitary(2, haar.generator(99))
    tot_u = 0.0
    tot_vu = 0.0
    for i in range(n):
        u = haar.haar_unitary_indexed(13, i, 2)
        tot_u += abs(u[0, 0]) ** 2
        tot_vu += abs((v @ u)[0, 0]) ** 2
    # both estimate E|U00|^2 = 1/2
    assert abs(tot_u / n - 0.5) <= 0.05
    assert abs(tot_vu / n - 0.5) <= 0.05


def test_indexed_sampling_deterministic():
    a = haar.haar_unitary_indexed(42, 5, 3)
    b = haar.haar_unitary_indexed(42, 5, 3)
    np.testing.assert_array_equal(a, b)
    c = haar.haar_unitary_indexed(42, 6, 3)
    assert np.abs(a - c).max() > 1e-3
    d = haar.haar_unitary_indexed(haar.RngSeed(42, "other"), 5, 3)
    assert np.abs(a - d).max() > 1e-3


def test_batched_draws_match_jumped_generators():
    # oracle: sample i is _stiefel of the Ginibre matrix a Generator over
    # Philox(key).jumped(i) draws, the key being (seed, first 8 bytes of
    # sha256(stream), little endian); at cols = d it is haar_unitary there
    cases = ((haar.RngSeed(2026), 0, 5), (haar.RngSeed(9, "other"), 3, 7),
             (haar.RngSeed(1), 2 ** 32 - 1, 2 ** 32 + 2))
    for seed, start, stop in cases:
        key = _philox_key(seed)
        np.testing.assert_array_equal(
            haar.generator(seed).standard_normal(8),
            np.random.Generator(np.random.Philox(key=key)).standard_normal(8))
        for d in (1, 2, 3, 16, 64, 256):
            for cols in sorted({c for c in (1, 2, d // 2, d) if 1 <= c <= d}):
                stack = haar.haar_columns_indexed(seed, start, stop, d, cols)
                assert stack.shape == (stop - start, d, cols)
                for j, i in enumerate(range(start, stop)):
                    np.testing.assert_array_equal(stack[j], _jumped_draw(key, i, d, cols))
                    if cols == d:
                        rng = np.random.Generator(np.random.Philox(key=key).jumped(i))
                        np.testing.assert_array_equal(stack[j], haar.haar_unitary(d, rng))
                        np.testing.assert_array_equal(
                            stack[j], haar.haar_unitary_indexed(seed, i, d))
    # the merging estimator's single-column draws on large registers
    key = _philox_key(haar.RngSeed(7))
    for d, index in ((256, 0), (256, 9), (65536, 3)):
        np.testing.assert_array_equal(haar.haar_columns_indexed(7, index, index + 1, d, 1),
                                      _jumped_draw(key, index, d, 1)[None])
    with pytest.raises(ValueError):
        haar.haar_columns_indexed(0, 3, 3, 2, 2)
    for d, cols in ((3, 0), (3, 4), (1, 2)):
        with pytest.raises(ValueError, match="1 <= cols <= d"):
            haar.haar_columns_indexed(0, 0, 1, d, cols)


def _philox_key(seed: haar.RngSeed) -> np.ndarray:
    stream = int.from_bytes(hashlib.sha256(seed.stream.encode()).digest()[:8], "little")
    return np.array([seed.seed, stream], dtype=np.uint64)


def _jumped_draw(key: np.ndarray, i: int, d: int, cols: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=key).jumped(i))
    return haar._stiefel(haar._ginibre(rng.standard_normal((2, d, cols))))


def test_row_block_rows_orthonormal():
    # a row block is the transposed column draw: the first rows of a Haar
    # unitary, the transpose of a Haar unitary being Haar
    for d, rows in ((1, 1), (5, 1), (6, 2), (8, 4), (4, 4), (1 << 12, 2)):
        block = haar.haar_columns_indexed(11, 0, 1, d, rows)[0].T
        assert block.shape == (rows, d)
        assert np.abs(block @ block.conj().T - np.eye(rows)).max() <= 1e-12


def test_unitary_is_the_transposed_full_row_block():
    for d in (1, 2, 3, 16, 64, 256):
        for seed, index in ((haar.RngSeed(0), 0), (haar.RngSeed(7, "x"), 3)):
            unitary = haar.haar_unitary_indexed(seed, index, d)
            block = haar.haar_columns_indexed(seed, index, index + 1, d, d)[0].T
            np.testing.assert_array_equal(block.T, unitary)
            rng = np.random.Generator(np.random.Philox(key=_philox_key(seed)).jumped(index))
            np.testing.assert_array_equal(unitary, haar.haar_unitary(d, rng))


def test_row_block_indexed_independent_of_order():
    seed = haar.RngSeed(42, "blocks")
    forward = [haar.haar_columns_indexed(seed, i, i + 1, 12, 3)[0] for i in range(6)]
    backward = {i: haar.haar_columns_indexed(seed, i, i + 1, 12, 3)[0]
                for i in (5, 3, 1, 4, 0, 2)}
    stack = haar.haar_columns_indexed(seed, 0, 6, 12, 3)
    for i in range(6):
        np.testing.assert_array_equal(forward[i], backward[i])
        np.testing.assert_array_equal(forward[i], stack[i])
    assert np.abs(forward[0] - forward[1]).max() > 1e-3
    other = haar.haar_columns_indexed(haar.RngSeed(42, "other"), 0, 1, 12, 3)[0]
    assert np.abs(forward[0] - other).max() > 1e-3


def test_row_block_projector_average():
    # the row space of a Haar row block is uniform: the mean projector onto
    # it approaches (L/d) I within 3 standard errors
    d, rows, n = 4, 2, 4000
    acc = np.zeros((d, d), dtype=complex)
    acc2 = np.zeros((d, d))
    for i in range(n):
        block = haar.haar_columns_indexed(5, i, i + 1, d, rows)[0].T
        term = block.conj().T @ block
        acc += term
        acc2 += np.abs(term) ** 2
    mean = acc / n
    std_err = np.sqrt(np.maximum(acc2 / n - np.abs(mean) ** 2, 0.0) / n)
    assert (np.abs(mean - rows / d * np.eye(d)) <= 3 * std_err + 1e-12).all()


def test_twirl_exact_identity_and_swap():
    coeffs, mat = haar.twirl_exact(np.eye(4, dtype=complex))
    assert (coeffs.alpha, coeffs.beta) == pytest.approx((1.0, 0.0), abs=1e-12)
    np.testing.assert_allclose(mat, np.eye(4), atol=1e-12)
    f = swap_operator(2).astype(complex)
    coeffs, mat = haar.twirl_exact(f)
    assert (coeffs.alpha, coeffs.beta) == pytest.approx((0.0, 1.0), abs=1e-12)
    np.testing.assert_allclose(mat, f, atol=1e-12)


def test_twirl_exact_d1_convention():
    coeffs, mat = haar.twirl_exact(np.array([[2.5 + 0j]]))
    assert coeffs.alpha == pytest.approx(2.5)
    assert coeffs.beta == 0.0
    np.testing.assert_allclose(mat, [[2.5]])


def test_twirl_exact_rejects_non_hermitian():
    # real coefficients cannot represent i I, the twirl of i I
    with pytest.raises(ValueError, match="Hermitian"):
        haar.twirl_exact(1j * np.eye(4))
    with pytest.raises(ValueError, match="Hermitian"):
        haar.twirl_exact(np.triu(np.ones((4, 4))))


def test_twirl_trace_equations_residual():
    rng = haar.generator(3)
    for d in (2, 3, 4):
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        m = (g + g.conj().T) / 2
        coeffs, _ = haar.twirl_exact(m)
        f = swap_operator(d)
        eq1 = coeffs.alpha * d * d + coeffs.beta * d - np.trace(m).real
        eq2 = coeffs.alpha * d + coeffs.beta * d * d - np.trace(m @ f).real
        assert abs(eq1) <= 1e-10
        assert abs(eq2) <= 1e-10
        assert coeffs.residual <= 1e-10


def test_twirl_monte_carlo_oracle():
    # Monte Carlo two-copy average matches alpha I + beta F entrywise
    d, n = 3, 10_000
    rng = haar.generator(21)
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    m = (g + g.conj().T) / 2
    _, exact = haar.twirl_exact(m)
    acc = np.zeros((d * d, d * d), dtype=complex)
    acc2 = np.zeros((d * d, d * d))
    for i in range(n):
        u = haar.haar_unitary_indexed(77, i, d)
        u2 = np.kron(u, u)
        term = u2 @ m @ u2.conj().T
        acc += term
        acc2 += np.abs(term) ** 2
    mean = acc / n
    std_err = np.sqrt(np.maximum(acc2 / n - np.abs(mean) ** 2, 0.0) / n)
    assert (np.abs(mean - exact) <= 5 * std_err + 1e-9).all()


def test_seed_validation():
    with pytest.raises(ValueError):
        haar.RngSeed(-1)
    with pytest.raises(ValueError):
        haar.RngSeed(2 ** 64)
    assert haar.RngSeed(3, "stream-x").to_json() == {"seed": 3, "stream": "stream-x"}
