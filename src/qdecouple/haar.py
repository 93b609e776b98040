"""Haar-random unitaries, exact two-copy twirling, and Weyl operators.

Sampling is counter-based: sample i of a seeded stream is a deterministic
function of (seed, stream, i), so parallel evaluation order cannot change
results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from qdecouple.linalg import check_cap, swap_operator


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

    @staticmethod
    def from_json(obj: dict) -> "RngSeed":
        return RngSeed(int(obj["seed"]), str(obj.get("stream", "default")))


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


def generator(seed: RngSeed | int, index: int = 0) -> np.random.Generator:
    """Independent generator for sample ``index`` of the seeded stream."""
    return np.random.Generator(np.random.Philox(key=_key(seed), counter=_counter(index)))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d x d unitary: the transposed all-rows ``haar_row_block``."""
    return haar_row_block(d, d, rng).T


def haar_unitary_indexed(seed: RngSeed | int, index: int, d: int) -> np.ndarray:
    """Sample ``index`` of the Haar stream; independent of evaluation order."""
    return haar_unitaries_indexed(seed, index, index + 1, d)[0]


def haar_unitaries_indexed(seed: RngSeed | int, start: int, stop: int,
                           d: int) -> np.ndarray:
    """Samples ``start, ..., stop - 1`` of the Haar stream as an (n, d, d) stack.

    Sample i is the unitary ``haar_unitary(d, generator(seed, i))``, bit for
    bit: one Philox draws every sample's Gaussians, its counter set to each
    sample's ``_counter(i)`` in turn, and the stack takes one batched QR.
    """
    if not 0 <= start < stop:
        raise ValueError(f"need 0 <= start < stop, got start={start}, stop={stop}")
    bitgen = np.random.Philox(key=_key(seed))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    normals = np.empty((stop - start, 2, d, d))
    for j, i in enumerate(range(start, stop)):
        state["state"]["counter"] = _counter(i)
        bitgen.state = state  # also empties the output buffer
        rng.standard_normal(out=normals[j])
    g = _ginibre(normals)
    del normals
    return _stiefel(g)


def _ginibre(normals: np.ndarray) -> np.ndarray:
    """(re + 1j im) / sqrt(2) for ``normals`` (..., 2, d, rows) holding the
    real and imaginary parts, without stack-sized temporaries."""
    g = np.empty(normals.shape[:-3] + normals.shape[-2:], dtype=complex)
    g.real, g.imag = normals[..., 0, :, :], normals[..., 1, :, :]
    g /= np.sqrt(2.0)
    return g


def _stiefel(g: np.ndarray) -> np.ndarray:
    """Q of the reduced QR of each Ginibre matrix in ``g`` (..., d, rows), each
    column's phase fixed by the phase of R's diagonal (Mezzadri,
    math-ph/0609050): the first ``rows`` columns of a Haar d x d unitary."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diag / np.abs(diag))[..., None, :]
    return q


def haar_row_block(d: int, rows: int, rng: np.random.Generator) -> np.ndarray:
    """First ``rows`` rows of a Haar d x d unitary, as a (rows, d) array.

    A Haar point on the Stiefel manifold (``_stiefel`` of a d x rows Ginibre
    matrix) gives the first columns of a Haar unitary, and the transpose of
    a Haar unitary is Haar.  Costs O(d rows^2), never d^2.
    """
    if not 1 <= rows <= d:
        raise ValueError(f"need 1 <= rows <= d, got rows={rows}, d={d}")
    return _stiefel(_ginibre(rng.standard_normal((2, d, rows)))).T


def haar_row_block_indexed(seed: RngSeed | int, index: int, d: int,
                           rows: int) -> np.ndarray:
    """Sample ``index`` of the Haar row-block stream; independent of
    evaluation order."""
    return haar_row_block(d, rows, generator(seed, index))


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

    The coefficients solve tr M = alpha d^2 + beta d and
    tr(M F) = alpha d + beta d^2; at d = 1 (where I = F) the convention is
    alpha = tr M, beta = 0.
    """
    m = np.asarray(m, dtype=complex)
    d2 = m.shape[0]
    d = int(round(np.sqrt(d2)))
    if m.shape != (d2, d2) or d * d != d2:
        raise ValueError(f"matrix of shape {m.shape} is not a two-copy operator")
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


def weyl_operators(d: int, cap: int | None = None) -> list[np.ndarray]:
    """The d^2 shift-and-phase unitaries; the first is the identity.

    Their uniform conjugation average sends any operator to tr(X) I / d,
    i.e. summing over all of them depolarizes: sum_i U_i X U_i^dag = d tr(X) I.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    check_cap(d * d, cap)
    omega = np.exp(2j * np.pi / d)
    shift = np.zeros((d, d), dtype=complex)
    for j in range(d):
        shift[(j + 1) % d, j] = 1.0
    phase = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(np.linalg.matrix_power(shift, a)
                       @ np.linalg.matrix_power(phase, b))
    return ops
