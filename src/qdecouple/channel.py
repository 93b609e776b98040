"""Completely positive maps as Choi matrices, built from Kraus operators.

The Choi matrix lives on labels (A', B) where A' is a copy of the input
system, normalized so the identity channel has Choi trace one; the input
marginal of a trace-preserving channel's Choi matrix is I/dim_in.  A channel
read from JSON keeps the output label its file names.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from qdecouple import haar
from qdecouple.linalg import (
    Dims,
    LabelError,
    StateOperator,
    check_cap,
    dims_of,
    hermitian_part,
    partial_trace,
    state_from_json,
    state_to_json,
)

IN_LABEL = "A'"
OUT_LABEL = "B"
TP_TOL = 1e-9


class ChannelError(ValueError):
    """Malformed channel data or dimension mismatch."""


class TraceClass(enum.Enum):
    TRACE_PRESERVING = "TracePreserving"
    TRACE_NON_INCREASING = "TraceNonIncreasing"
    GENERAL = "General"


@dataclass(frozen=True)
class Channel:
    """CPM with Choi matrix on (A', out_label)."""

    dim_in: int
    dim_out: int
    choi: StateOperator
    out_label: str = OUT_LABEL
    trace_class: TraceClass = field(init=False)

    def __post_init__(self) -> None:
        want = ((IN_LABEL, self.dim_in), (self.out_label, self.dim_out))
        if self.choi.dims.pairs != want:
            raise ChannelError(f"Choi dims {self.choi.dims.pairs} != {want}")
        object.__setattr__(self, "trace_class", _classify(self.choi, self.dim_in))

    @property
    def choi_tensor(self) -> np.ndarray:
        return self.choi.matrix.reshape(self.dim_in, self.dim_out,
                                        self.dim_in, self.dim_out)


def _classify(choi: StateOperator, dim_in: int) -> TraceClass:
    marg = partial_trace(choi, [IN_LABEL]).matrix
    target = np.eye(dim_in) / dim_in
    if float(np.abs(marg - target).max()) <= TP_TOL:
        return TraceClass.TRACE_PRESERVING
    w = np.linalg.eigvalsh(hermitian_part(target - marg))
    if float(w[0]) >= -TP_TOL:
        return TraceClass.TRACE_NON_INCREASING
    return TraceClass.GENERAL


def channel_from_choi(choi_matrix: np.ndarray, dim_in: int, dim_out: int,
                      cap: int | None = None) -> Channel:
    op = StateOperator(dims_of((IN_LABEL, dim_in), (OUT_LABEL, dim_out)),
                       choi_matrix, cap=cap)
    return Channel(dim_in, dim_out, op)


def choi_of(kraus: Sequence[np.ndarray], cap: int | None = None) -> Channel:
    """Choi matrix of a Kraus decomposition: J = sum_i |k_i><k_i| / dim_in.

    The operators are dim_out x dim_in; sum K^H K <= I for TNI channels.
    """
    ops = [np.asarray(k, dtype=complex) for k in kraus]
    if not ops:
        raise ChannelError("empty Kraus set")
    dout, din = ops[0].shape
    if any(k.shape != (dout, din) for k in ops):
        raise ChannelError("inconsistent Kraus operator shapes")
    check_cap(din * dout, cap)
    j = np.zeros((din * dout, din * dout), dtype=complex)
    for k in ops:
        vec = k.T.reshape(-1)  # index (a, b) -> K[b, a]
        j += np.outer(vec, vec.conj())
    return channel_from_choi(j / din, din, dout, cap=cap)


def apply(ch: Channel, state: StateOperator, on: Sequence[str]) -> StateOperator:
    """Apply the channel to the ``on`` subsystems via Choi contraction.

    The ``on`` labels are replaced by the channel's output label, which must
    not collide with the remaining labels.
    """
    on = list(on)
    din = 1
    for lab in on:
        din *= state.dims.dim_of(lab)
    if din != ch.dim_in:
        raise ChannelError(f"subsystem dim {din} != channel input dim {ch.dim_in}")
    rest = [lab for lab in state.labels if lab not in set(on)]
    if ch.out_label in rest:
        raise LabelError(f"output label {ch.out_label!r} collides with {rest}")
    rest_pairs = tuple((lab, state.dims.dim_of(lab)) for lab in rest)
    new_dims = Dims(((ch.out_label, ch.dim_out),) + rest_pairs)
    d = new_dims.total
    check_cap(d)
    perm = state.permute(on + rest)
    dr = perm.dims.total // din
    t = perm.matrix.reshape(din, dr, din, dr)
    out = ch.dim_in * np.einsum("abcd,arcs->brds", ch.choi_tensor, t, optimize=True)
    return StateOperator(new_dims, out.reshape(d, d), validate=False)


# ---------------------------------------------------------------------------
# channel builders
# ---------------------------------------------------------------------------

def identity_channel(d: int) -> Channel:
    return choi_of([np.eye(d, dtype=complex)])


def reference_channel(kind: str, m: int, m_prime: int | None = None,
                      cap: int | None = None) -> Channel:
    """Reference channels on m qubits: identity, measurement, erasure, and the
    identity-plus-measurement / identity-plus-partial-trace combinations.

    Erasure maps everything to a fixed state of a trivial (one-dimensional)
    output system.
    """
    if m < 0 or (m_prime is not None and not (0 <= m_prime <= m)):
        raise ChannelError(f"invalid qubit counts m={m}, m_prime={m_prime}")
    # id:m is id+meas:m,m; meas:m is id+meas:m,0; erase:m is id+trace:m,0
    kind, m_prime = {"id": ("id+meas", m), "meas": ("id+meas", 0),
                     "erase": ("id+trace", 0)}.get(kind, (kind, m_prime))
    if m_prime is None:
        raise ChannelError(f"builder {kind!r} needs m_prime")
    if kind not in ("id+meas", "id+trace"):
        raise ChannelError(f"unknown channel kind {kind!r}")
    dk = 2 ** m_prime       # kept coherently
    dm = 2 ** (m - m_prime)  # measured or traced out
    # d_in d_out is 4^m for id+meas and 2^(m + m') for id+trace, checked
    # before the d_m Kraus operators are built
    check_cap(dk * dm * (dk * dm if kind == "id+meas" else dk), cap)
    if kind == "id+meas":
        ops = []
        for i in range(dm):
            proj = np.zeros((dm, dm), dtype=complex)
            proj[i, i] = 1.0
            ops.append(np.kron(np.eye(dk, dtype=complex), proj))
        return choi_of(ops, cap=cap)
    ops = []
    for i in range(dm):
        bra = np.zeros((1, dm), dtype=complex)
        bra[0, i] = 1.0
        ops.append(np.kron(np.eye(dk, dtype=complex), bra))
    return choi_of(ops, cap=cap)


def random_tp_channel(rng: np.random.Generator, dim_in: int, dim_out: int,
                      env: int | None = None) -> Channel:
    """TPCPM from a Haar-random Stinespring isometry."""
    env = env if env is not None else dim_in
    total = dim_out * env
    if total < dim_in:
        raise ChannelError("dim_out * env must be at least dim_in")
    check_cap(dim_in * dim_out)  # the Choi matrix's, before the draw
    u = haar.haar_unitary(total, rng)
    v = u[:, :dim_in]
    # rows of V grouped as (out, env): K_i[b, a] = V[(b, i), a]
    kraus = []
    for i in range(env):
        k = np.zeros((dim_out, dim_in), dtype=complex)
        for b in range(dim_out):
            k[b, :] = v[b * env + i, :]
        kraus.append(k)
    return choi_of(kraus)


def random_cpm(rng: np.random.Generator, dim_in: int, dim_out: int,
               trace: float = 1.0) -> Channel:
    """CPM with a Ginibre-random Choi matrix of the given trace (<= 1)."""
    d = dim_in * dim_out
    check_cap(d)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    j = g @ g.conj().T
    j *= trace / float(np.trace(j).real)
    return channel_from_choi(j, dim_in, dim_out)


# ---------------------------------------------------------------------------
# serialization and spec strings
# ---------------------------------------------------------------------------

_SPEC_RE = re.compile(r"^(id|meas|erase|id\+meas|id\+trace):(\d+)(?:,(\d+))?$")


def parse_spec(spec: str, cap: int | None = None) -> Channel:
    """Builder strings: id:m, meas:m, erase:m, id+meas:m,m', id+trace:m,m'."""
    m = _SPEC_RE.match(spec.strip())
    if not m:
        raise ChannelError(f"cannot parse channel spec {spec!r}")
    kind, m_qubits, m_prime = m.group(1), int(m.group(2)), m.group(3)
    return reference_channel(kind, m_qubits,
                             int(m_prime) if m_prime is not None else None,
                             cap=cap)


def channel_to_json(ch: Channel) -> dict:
    return {"dim_in": ch.dim_in, "dim_out": ch.dim_out,
            "choi": state_to_json(ch.choi)}


def channel_from_json(obj: dict, cap: int | None = None) -> Channel:
    """Parse the channel JSON format: int ``dim_in`` and ``dim_out`` and a
    ``choi`` state object on two systems, else ``ChannelError``."""
    if not (isinstance(obj, dict) and type(obj.get("dim_in")) is int
            and type(obj.get("dim_out")) is int and isinstance(obj.get("choi"), dict)):
        raise ChannelError("a channel must be an object with integer dim_in and "
                           "dim_out and a choi object")
    choi = state_from_json(obj["choi"], cap=cap)
    if len(choi.dims.pairs) != 2:
        raise ChannelError(f"Choi dims {choi.dims.pairs} must name two systems")
    return Channel(obj["dim_in"], obj["dim_out"], choi, choi.dims.pairs[1][0])
