"""Haar-random unitaries and their first columns.

Sampling is counter-based: sample i of a seeded stream is a deterministic
function of (seed, stream, i), so parallel evaluation order cannot change
results.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


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
