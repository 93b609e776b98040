"""Haar-random unitaries and exact two-copy twirling.

Sampling is counter-based: sample i of a seeded stream is a deterministic
function of (seed, stream, i), so parallel evaluation order cannot change
results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from qdecouple.linalg import is_hermitian, swap_operator


@dataclass(frozen=True)
class RngSeed:
    """Seed plus named stream; equal values reproduce bit-identical samples."""

    seed: int = 0
    stream: str = "default"

    def __post_init__(self) -> None:
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 bits")

    def to_json(self) -> dict:
        return {"seed": int(self.seed), "stream": self.stream}


def _stream_key(stream: str) -> int:
    digest = hashlib.sha256(stream.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


_WORD = 2 ** 64 - 1


def _key(seed: RngSeed | int) -> np.ndarray:
    if isinstance(seed, int):
        seed = RngSeed(seed)
    return np.array([seed.seed, _stream_key(seed.stream)], dtype=np.uint64)


def _counter(index: int) -> np.ndarray:
    """Philox counter of sample ``index``: the state ``Philox(key).jumped(index)``
    reaches from counter zero, set directly."""
    return np.array([0, 0, index & _WORD, (index >> 64) & _WORD], dtype=np.uint64)


def generator(seed: RngSeed | int) -> np.random.Generator:
    """Generator over the seeded stream, from Philox's zero counter."""
    return np.random.Generator(np.random.Philox(key=_key(seed)))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary drawn from ``rng``."""
    return _stiefel(_ginibre(rng.standard_normal((2, d, d))))


def haar_unitary_indexed(seed: RngSeed | int, index: int, d: int) -> np.ndarray:
    """Sample ``index`` of the Haar stream; independent of evaluation order."""
    return haar_columns_indexed(seed, index, index + 1, d, d)[0]


def haar_columns_indexed(seed: RngSeed | int, start: int, stop: int, d: int,
                         cols: int) -> np.ndarray:
    """First ``cols`` columns of samples ``start, ..., stop - 1`` of the Haar
    stream, as an (n, d, cols) stack: Haar points on the Stiefel manifold,
    at O(d cols^2) per sample.

    Sample i is ``_stiefel`` of the Ginibre matrix that a Generator over
    ``Philox(key).jumped(i)`` draws, bit for bit: one Philox draws every
    sample's Gaussians, its counter set to each sample's ``_counter(i)`` in
    turn, and the stack takes one batched QR.  At ``cols = d`` sample i is
    ``haar_unitary`` on that Generator.
    """
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got start={start}, stop={stop}")
    if not 1 <= cols <= d:
        raise ValueError(f"need 1 <= cols <= d, got cols={cols}, d={d}")
    bitgen = np.random.Philox(key=_key(seed))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    normals = np.empty((stop - start, 2, d, cols))
    for j, i in enumerate(range(start, stop)):
        state["state"]["counter"] = _counter(i)
        bitgen.state = state  # also empties the output buffer
        rng.standard_normal(out=normals[j])
    g = _ginibre(normals)
    del normals
    return _stiefel(g)


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """(re + 1j im) / sqrt(2) for ``normals`` (..., 2, d, cols) holding the
    real and imaginary parts, without stack-sized temporaries."""
    g = np.empty(normals.shape[:-3] + normals.shape[-2:], dtype=complex)
    g.real, g.imag = normals[..., 0, :, :], normals[..., 1, :, :]
    g /= np.sqrt(2.0)
    return g


def _stiefel(g: np.ndarray) -> np.ndarray:
    """Q of the reduced QR of each Ginibre matrix in ``g`` (..., d, cols), each
    column's phase fixed by the phase of R's diagonal (Mezzadri,
    math-ph/0609050): the first ``cols`` columns of a Haar d x d unitary."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


@dataclass(frozen=True)
class TwirlCoefficients:
    """Coefficients of the two-copy average in span{identity, swap}."""

    alpha: float
    beta: float
    residual: float

    def matrix(self, d: int) -> np.ndarray:
        return self.alpha * np.eye(d * d) + self.beta * swap_operator(d)


def twirl_exact(m: np.ndarray) -> tuple[TwirlCoefficients, np.ndarray]:
    """Average of U^(x)2 M U^(x)2-dagger over Haar U, as alpha*I + beta*F.

    M must be Hermitian, so that alpha and beta are real; a non-Hermitian M
    raises ``ValueError``.  The coefficients solve tr M = alpha d^2 + beta d
    and tr(M F) = alpha d + beta d^2; at d = 1 (where I = F) the convention
    is alpha = tr M, beta = 0.
    """
    m = np.asarray(m, dtype=complex)
    d2 = m.shape[0]
    d = int(round(np.sqrt(d2)))
    if m.shape != (d2, d2) or d * d != d2:
        raise ValueError(f"matrix of shape {m.shape} is not a two-copy operator")
    if not is_hermitian(m):
        raise ValueError("twirl_exact needs a Hermitian matrix")
    tr_m = complex(np.trace(m))
    if d == 1:
        coeffs = TwirlCoefficients(tr_m.real, 0.0, 0.0)
        return coeffs, coeffs.matrix(1)
    f = swap_operator(d)
    tr_mf = complex(np.trace(m @ f))
    system = np.array([[d * d, d], [d, d * d]], dtype=float)
    rhs = np.array([tr_m.real, tr_mf.real])
    alpha, beta = np.linalg.solve(system, rhs)
    residual = float(np.linalg.norm(system @ np.array([alpha, beta]) - rhs))
    coeffs = TwirlCoefficients(float(alpha), float(beta), residual)
    return coeffs, coeffs.matrix(d)

