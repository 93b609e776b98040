"""Dense complex-matrix algebra over labeled tensor-product Hilbert spaces.

States are square complex matrices together with an ordered list of labeled
subsystem dimensions.  Everything here is immutable after construction and
every operation is a pure function, so values can be shared freely across
workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# Default total-dimension cap.  All dense algorithms here are O(d^3)-O(d^6);
# the cap keeps test suites fast.  Callers may override per operation.
DIM_CAP = 256

TOL_HERM = 1e-10   # Hermiticity tolerance, relative to operator norm
TOL_PSD = 1e-10    # allowed negative eigenvalue, relative to operator norm
TOL_TRACE = 1e-9   # allowed excess above trace one
GINV_RCOND = 1e-10  # relative eigenvalue cutoff for generalized inverses


class LabelError(ValueError):
    """Unknown, duplicate, or mismatched subsystem labels."""


class DimCapError(ValueError):
    """Total dimension exceeds the configured cap."""


class InvariantError(ValueError):
    """A state violates Hermiticity, positivity, or normalization."""


LabelPair = tuple[str, int]


@dataclass(frozen=True)
class Dims:
    """Ordered list of (label, dimension) pairs for a tensor-product space."""

    pairs: tuple[LabelPair, ...]

    def __post_init__(self) -> None:
        labels = [p[0] for p in self.pairs]
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate labels in {labels}")
        for lab, d in self.pairs:
            if not isinstance(d, (int, np.integer)) or d < 1:
                raise ValueError(f"dimension of {lab!r} must be a positive integer, got {d}")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p[0] for p in self.pairs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(p[1]) for p in self.pairs)

    @property
    def total(self) -> int:
        out = 1
        for _, d in self.pairs:
            out *= int(d)
        return out

    def dim_of(self, label: str) -> int:
        for lab, d in self.pairs:
            if lab == label:
                return int(d)
        raise LabelError(f"unknown label {label!r} in {self.labels}")

    def axis_of(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.pairs):
            if lab == label:
                return i
        raise LabelError(f"unknown label {label!r} in {self.labels}")

    def subset(self, labels: Iterable[str]) -> "Dims":
        """Pairs for ``labels``, in their current order of appearance."""
        want = set(labels)
        missing = want - set(self.labels)
        if missing:
            raise LabelError(f"unknown labels {sorted(missing)} in {self.labels}")
        return Dims(tuple(p for p in self.pairs if p[0] in want))

    def reorder(self, order: Sequence[str]) -> "Dims":
        if set(order) != set(self.labels) or len(order) != len(self.pairs):
            raise LabelError(f"order {order} is not a permutation of {self.labels}")
        return Dims(tuple((lab, self.dim_of(lab)) for lab in order))


def dims_of(*pairs: LabelPair) -> Dims:
    return Dims(tuple((str(lab), int(d)) for lab, d in pairs))


def check_cap(total: int, cap: int | None = None) -> None:
    limit = DIM_CAP if cap is None else cap
    if total > limit:
        raise DimCapError(f"total dimension {total} exceeds cap {limit}")


# ---------------------------------------------------------------------------
# matrix primitives
# ---------------------------------------------------------------------------

def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger)/2 — used before every eigendecomposition.

    A stack ``(..., n, n)`` is taken matrix by matrix."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def is_hermitian(m: np.ndarray, tol: float | None = None) -> bool:
    """Hermitian within ``tol`` (default ``TOL_HERM``, read at call time).

    On a stack ``(..., n, n)`` the test covers the whole stack at once."""
    tol = TOL_HERM if tol is None else tol
    return bool(_hermitian_items(np.asarray(m)[None], tol)[0])


def _hermitian_items(m: np.ndarray, tol: float) -> np.ndarray:
    """Per item of ``m`` (k, ..., n, n): max |m - m^dagger| <= tol max(1, max |m|)."""
    item = tuple(range(1, m.ndim))
    scale = np.abs(m).max(axis=item, initial=1.0)
    skew = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=item, initial=0.0)
    return skew <= tol * scale


def _by_item(x: np.ndarray) -> np.ndarray:
    """``x`` as a (k, entries per item) array; k may be 0."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


def herm_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices, shape (d*d, d, d): the
    matrices of ``herm_matrices(d)`` stacked."""
    return np.array(list(herm_matrices(d)), dtype=complex).reshape(d * d, d, d)


def herm_matrices(d: int) -> Iterator[np.ndarray]:
    """The orthonormal Hermitian basis of d x d matrices, one fresh matrix at
    a time, so that only the consumer decides what to keep.

    Order: diagonal units, then (symmetric, antisymmetric) pairs for a < b,
    the pairs in row-major order.
    """
    s = 1.0 / np.sqrt(2.0)
    for a in range(d):
        h = np.zeros((d, d), dtype=complex)
        h[a, a] = 1.0
        yield h
    for a in range(d):
        for b in range(a + 1, d):
            h = np.zeros((d, d), dtype=complex)
            h[a, b] = h[b, a] = s
            yield h
            h = np.zeros((d, d), dtype=complex)
            h[a, b] = 1j * s
            h[b, a] = -1j * s
            yield h


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix via eigenvalue calculus.

    Eigenvalues within ``TOL_PSD * ||m||`` below zero are clipped to zero;
    anything more negative raises.
    """
    w, v = np.linalg.eigh(hermitian_part(m))
    scale = max(float(w[-1]), 0.0) if w.size else 0.0
    if w.size and float(w[0]) < -TOL_PSD * max(scale, 1.0):
        raise InvariantError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    # eigenvalues at rounding-noise level are exact zeros; the square root
    # would otherwise amplify them to sqrt(eps)-sized artifacts
    w = np.where(w < 1e-15 * max(scale, 1e-300), 0.0, w)
    return (v * np.sqrt(w)) @ v.conj().T


def psd_power(m: np.ndarray, power: float) -> np.ndarray:
    """m**power on the support of m (generalized inverse for power < 0).

    Eigenvalues above ``GINV_RCOND * max_eig`` are raised to ``power``; the
    rest map to zero, matching a support-restricted inverse.
    """
    w, v = np.linalg.eigh(hermitian_part(m))
    w = np.clip(w, 0.0, None)
    top = float(w[-1]) if w.size else 0.0
    keep = w > GINV_RCOND * top if top > 0 else np.zeros_like(w, dtype=bool)
    out = np.zeros_like(w)
    out[keep] = w[keep] ** power
    return (v * out) @ v.conj().T


def support_projector(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(m))
    top = float(np.max(np.abs(w), initial=0.0))
    keep = np.abs(w) > GINV_RCOND * top if top > 0 else np.zeros_like(w, dtype=bool)
    return (v[:, keep]) @ v[:, keep].conj().T


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|.

    A stack ``(..., n, n)`` gives the sum over the stack: it is one item of
    ``trace_norms``.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"trace_norm needs square matrices, got shape {m.shape}")
    return float(trace_norms(m[None])[0])


def trace_norms(m: np.ndarray) -> np.ndarray:
    """``trace_norm`` of each item of a stack ``(k, ..., n, n)``, as a length-k array.

    Each item takes the eigenvalue route if it passes the Hermitian test on
    its own and the SVD otherwise; both routes run once, stacked, over their
    items.  An item's route and value do not depend on the rest of the stack.
    """
    m = np.asarray(m)
    if m.ndim < 3 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"trace_norms needs a stack of square matrices, "
                         f"got shape {m.shape}")
    herm = _hermitian_items(m, 1e-12)
    if herm.all():
        return _eigenvalue_norms(m)
    out = np.empty(m.shape[0])
    if herm.any():
        out[herm] = _eigenvalue_norms(m[herm])
    out[~herm] = _by_item(np.linalg.svd(m[~herm], compute_uv=False)).sum(axis=1)
    return out


def _eigenvalue_norms(m: np.ndarray) -> np.ndarray:
    return _by_item(np.abs(np.linalg.eigvalsh(hermitian_part(m)))).sum(axis=1)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateOperator:
    """Subnormalized positive operator on a labeled tensor-product space."""

    dims: Dims
    matrix: np.ndarray

    def __init__(self, dims: Dims, matrix: np.ndarray, *, validate: bool = True,
                 cap: int | None = None) -> None:
        matrix = np.asarray(matrix, dtype=complex)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", matrix)
        d = dims.total
        if matrix.shape != (d, d):
            raise InvariantError(f"matrix shape {matrix.shape} != ({d}, {d})")
        if validate:
            check_cap(d, cap)
            if not np.all(np.isfinite(matrix)):
                raise InvariantError("matrix has non-finite entries")
            if not is_hermitian(matrix):
                raise InvariantError("matrix is not Hermitian within tolerance")
            w = np.linalg.eigvalsh(hermitian_part(matrix))
            norm = float(np.max(np.abs(w), initial=0.0))
            if w.size and float(w[0]) < -TOL_PSD * max(norm, 1.0):
                raise InvariantError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
            tr = float(np.trace(matrix).real)
            if tr > 1.0 + TOL_TRACE:
                raise InvariantError(f"trace {tr} exceeds 1 beyond tolerance")
            if tr < -TOL_TRACE:
                raise InvariantError(f"trace {tr} is negative")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def labels(self) -> tuple[str, ...]:
        return self.dims.labels

    def tensor_view(self) -> np.ndarray:
        shape = self.dims.dims
        return self.matrix.reshape(shape + shape)

    def permute(self, order: Sequence[str]) -> "StateOperator":
        new_dims = self.dims.reorder(order)
        if new_dims.labels == self.dims.labels:
            return self
        axes = [self.dims.axis_of(lab) for lab in order]
        n = len(self.dims.pairs)
        t = self.tensor_view().transpose(axes + [a + n for a in axes])
        d = self.dims.total
        return StateOperator(new_dims, t.reshape(d, d), validate=False)

    def relabel(self, mapping: dict[str, str]) -> "StateOperator":
        pairs = tuple((mapping.get(lab, lab), d) for lab, d in self.dims.pairs)
        return StateOperator(Dims(pairs), self.matrix, validate=False)


@dataclass(frozen=True)
class PureState:
    """State vector on a labeled tensor-product space, squared norm in (0, 1]."""

    dims: Dims
    amplitudes: np.ndarray

    def __init__(self, dims: Dims, amplitudes: np.ndarray, *, validate: bool = True,
                 cap: int | None = None) -> None:
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amplitudes)
        if amplitudes.shape != (dims.total,):
            raise InvariantError(f"amplitude length {amplitudes.shape[0]} != {dims.total}")
        if validate:
            check_cap(dims.total, cap)
            if not np.all(np.isfinite(amplitudes)):
                raise InvariantError("amplitudes have non-finite entries")
            n2 = float(np.vdot(amplitudes, amplitudes).real)
            if n2 <= 0.0 or n2 > 1.0 + TOL_TRACE:
                raise InvariantError(f"squared norm {n2} outside (0, 1]")

    @property
    def labels(self) -> tuple[str, ...]:
        return self.dims.labels

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims.dims)

    def permute(self, order: Sequence[str]) -> "PureState":
        new_dims = self.dims.reorder(order)
        if new_dims.labels == self.dims.labels:
            return self
        axes = [self.dims.axis_of(lab) for lab in order]
        return PureState(new_dims, self.tensor_view().transpose(axes).reshape(-1),
                         validate=False)

    def relabel(self, mapping: dict[str, str]) -> "PureState":
        pairs = tuple((mapping.get(lab, lab), d) for lab, d in self.dims.pairs)
        return PureState(Dims(pairs), self.amplitudes, validate=False)

    def to_operator(self, *, validate: bool = False) -> StateOperator:
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return StateOperator(self.dims, m, validate=validate)


# ---------------------------------------------------------------------------
# tensor products, partial traces, subsystem maps
# ---------------------------------------------------------------------------

def tensor(a: StateOperator, b: StateOperator, cap: int | None = None) -> StateOperator:
    """Kronecker product with concatenated labels; trace multiplies."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise LabelError(f"duplicate labels {sorted(overlap)} in tensor product")
    check_cap(a.dims.total * b.dims.total, cap)
    return StateOperator(Dims(a.dims.pairs + b.dims.pairs),
                         np.kron(a.matrix, b.matrix), validate=False)


def tensor_pure(a: PureState, b: PureState, cap: int | None = None) -> PureState:
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise LabelError(f"duplicate labels {sorted(overlap)} in tensor product")
    check_cap(a.dims.total * b.dims.total, cap)
    return PureState(Dims(a.dims.pairs + b.dims.pairs),
                     np.kron(a.amplitudes, b.amplitudes), validate=False)


def partial_trace(op: StateOperator, keep: Iterable[str]) -> StateOperator:
    """Reduced operator on ``keep`` (original order); trace is preserved."""
    keep_set = set(keep)
    missing = keep_set - set(op.labels)
    if missing:
        raise LabelError(f"unknown labels {sorted(missing)} in {op.labels}")
    keep_pairs = op.dims.subset(keep_set)
    n = len(op.dims.pairs)
    t = op.tensor_view()
    row_sub = list(range(n))
    col_sub = [i + n if op.dims.pairs[i][0] in keep_set else i for i in range(n)]
    out_sub = ([i for i in range(n) if op.dims.pairs[i][0] in keep_set]
               + [i + n for i in range(n) if op.dims.pairs[i][0] in keep_set])
    res = np.einsum(t, row_sub + col_sub, out_sub)
    d = keep_pairs.total
    return StateOperator(keep_pairs, res.reshape(d, d), validate=False)


def trace_out_leading(m: np.ndarray, d_lead: int) -> np.ndarray:
    """tr_1 of a matrix on C^d_lead (x) C^d_rest, as a d_rest x d_rest array."""
    d_rest = m.shape[0] // d_lead
    return np.einsum("abad->bd", m.reshape(d_lead, d_rest, d_lead, d_rest))


def pure_marginal(psi: PureState, keep: Iterable[str]) -> StateOperator:
    """Reduced operator of a pure state, via its (keep : rest) matricization."""
    keep_set = set(keep)
    missing = keep_set - set(psi.labels)
    if missing:
        raise LabelError(f"unknown labels {sorted(missing)} in {psi.labels}")
    keep_labels = [lab for lab in psi.labels if lab in keep_set]
    rest = [lab for lab in psi.labels if lab not in keep_set]
    m = psi.permute(keep_labels + rest)
    dk = m.dims.subset(keep_set).total
    mat = m.amplitudes.reshape(dk, -1)
    return StateOperator(psi.dims.subset(keep_set), mat @ mat.conj().T, validate=False)


def _split_front(dims: Dims, front: Sequence[str]) -> tuple[Dims, Dims]:
    front_pairs = tuple((lab, dims.dim_of(lab)) for lab in front)
    rest_pairs = tuple(p for p in dims.pairs if p[0] not in set(front))
    return Dims(front_pairs), Dims(rest_pairs)


def apply_matrix(op: StateOperator, m: np.ndarray, on: Sequence[str],
                 out: Sequence[LabelPair] | None = None, *,
                 cap: int | None = None) -> StateOperator:
    """Sandwich (M (x) I) rho (M^dagger (x) I) applied to the ``on`` subsystems.

    ``m`` maps the composite ``on`` space (in the given label order) to the
    ``out`` space; ``out=None`` means ``m`` is square and labels are kept.
    Output label order is out-labels first, then the remaining labels.
    """
    front, rest = _split_front(op.dims, on)
    din = front.total
    m = np.asarray(m, dtype=complex)
    if m.shape[1] != din:
        raise LabelError(f"operator input dim {m.shape[1]} != subsystem dim {din}")
    if out is None:
        if m.shape[0] != din:
            raise LabelError("square operator required when out labels are omitted")
        out_pairs = front.pairs
    else:
        out_pairs = tuple(out)
        dout = 1
        for _, d in out_pairs:
            dout *= d
        if m.shape[0] != dout:
            raise LabelError(f"operator output dim {m.shape[0]} != {dout}")
    perm = op.permute(list(on) + list(rest.labels))
    dr = rest.total
    t = perm.matrix.reshape(din, dr, din, dr)
    res = np.einsum("ik,krls,jl->irjs", m, t, m.conj(), optimize=True)
    new_dims = Dims(out_pairs + rest.pairs)
    check_cap(new_dims.total, cap)
    dtot = new_dims.total
    return StateOperator(new_dims, res.reshape(dtot, dtot), validate=False)


def apply_matrix_pure(psi: PureState, m: np.ndarray, on: Sequence[str],
                      out: Sequence[LabelPair] | None = None, *,
                      cap: int | None = None) -> PureState:
    """(M (x) I) |psi> on the ``on`` subsystems; see ``apply_matrix``."""
    front, rest = _split_front(psi.dims, on)
    din = front.total
    m = np.asarray(m, dtype=complex)
    if m.shape[1] != din:
        raise LabelError(f"operator input dim {m.shape[1]} != subsystem dim {din}")
    if out is None:
        if m.shape[0] != din:
            raise LabelError("square operator required when out labels are omitted")
        out_pairs = front.pairs
    else:
        out_pairs = tuple(out)
    perm = psi.permute(list(on) + list(rest.labels))
    vec = m @ perm.amplitudes.reshape(din, -1)
    new_dims = Dims(out_pairs + rest.pairs)
    check_cap(new_dims.total, cap)
    return PureState(new_dims, vec.reshape(-1), validate=False)


def inner(a: PureState, b: PureState) -> complex:
    """<a|b> with b permuted into a's label order."""
    if set(a.labels) != set(b.labels):
        raise LabelError(f"label mismatch {a.labels} vs {b.labels}")
    return complex(np.vdot(a.amplitudes, b.permute(a.labels).amplitudes))


# ---------------------------------------------------------------------------
# metric quantities
# ---------------------------------------------------------------------------

def _as_matrix(x: StateOperator | np.ndarray) -> np.ndarray:
    return x.matrix if isinstance(x, StateOperator) else np.asarray(x, dtype=complex)


def fidelity(rho: StateOperator | np.ndarray, sigma: StateOperator | np.ndarray) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch {r.shape} vs {s.shape}")
    sv = np.linalg.svd(sqrt_psd(r) @ sqrt_psd(s), compute_uv=False)
    return float(sv.sum())


def generalized_fidelity(rho: StateOperator | np.ndarray,
                         sigma: StateOperator | np.ndarray) -> float:
    """F(rho, sigma) + sqrt((1 - tr rho)(1 - tr sigma)) for subnormalized states."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    tr_r = min(float(np.trace(r).real), 1.0)
    tr_s = min(float(np.trace(s).real), 1.0)
    return fidelity(r, s) + float(np.sqrt((1.0 - tr_r) * (1.0 - tr_s)))


def purified_distance(rho: StateOperator | np.ndarray,
                      sigma: StateOperator | np.ndarray) -> float:
    """sqrt(1 - generalized_fidelity^2); a metric on subnormalized states."""
    fbar = min(generalized_fidelity(rho, sigma), 1.0)
    return float(np.sqrt(max(0.0, 1.0 - fbar * fbar)))


def trace_distance(rho: StateOperator | np.ndarray,
                   sigma: StateOperator | np.ndarray) -> float:
    """|| rho - sigma ||_1 (no factor 1/2)."""
    return trace_norm(_as_matrix(rho) - _as_matrix(sigma))


def purify(rho: StateOperator, new_label: str, *, cap: int | None = None,
           require_normalized: bool = True) -> PureState:
    """Purification with ancilla dimension equal to rank(rho).

    The ancilla label is appended last.  Requires a normalized input unless
    ``require_normalized`` is disabled (internal callers purify subnormalized
    states, whose purification simply has squared norm tr(rho)).
    """
    if new_label in rho.labels:
        raise LabelError(f"label {new_label!r} already present")
    tr = rho.trace
    if require_normalized and abs(tr - 1.0) > 1e-9:
        raise InvariantError(f"purify requires a normalized state, trace = {tr}")
    w, v = np.linalg.eigh(hermitian_part(rho.matrix))
    top = float(w[-1]) if w.size else 0.0
    keep = np.where(w > max(top, 1.0) * 1e-14)[0]
    if keep.size == 0:
        raise InvariantError("cannot purify the zero operator")
    rank = int(keep.size)
    d = rho.dims.total
    check_cap(d * rank, cap)
    amps = np.zeros((d, rank), dtype=complex)
    for j, idx in enumerate(keep):
        amps[:, j] = np.sqrt(w[idx]) * v[:, idx]
    dims = Dims(rho.dims.pairs + ((new_label, rank),))
    return PureState(dims, amps.reshape(-1), validate=False)


def swap_operator(d: int, cap: int | None = None) -> np.ndarray:
    """The d^2 x d^2 permutation F with F(|i> (x) |k>) = |k> (x) |i>."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    check_cap(d * d, cap)
    f = np.zeros((d * d, d * d))
    for i in range(d):
        for k in range(d):
            f[k * d + i, i * d + k] = 1.0
    return f


def extension_map(rho_ab: StateOperator, sigma_a: StateOperator
                  ) -> tuple[np.ndarray, StateOperator]:
    """Local map T on the A part with (T (x) I) rho (T (x) I)^dagger extending sigma_a.

    T = sigma_a^{1/2} V rho_a^{-1/2} with V the unitary polar factor of
    sigma_a^{1/2} rho_a^{1/2} and a support-restricted inverse.  The purified
    distance to rho_ab equals the purified distance of the A marginals.
    """
    a_labels = sigma_a.labels
    missing = set(a_labels) - set(rho_ab.labels)
    if missing:
        raise LabelError(f"labels {sorted(missing)} not in {rho_ab.labels}")
    rho_a = partial_trace(rho_ab, a_labels).permute(a_labels)
    sr = sqrt_psd(sigma_a.matrix)
    rr = sqrt_psd(rho_a.matrix)
    x = sr @ rr
    u, _, vh = np.linalg.svd(x)
    v_pol = u @ vh
    t_a = sr @ v_pol @ psd_power(rho_a.matrix, -0.5)
    sigma_ab = apply_matrix(rho_ab, t_a, on=a_labels)
    sigma_ab = sigma_ab.permute(rho_ab.labels)
    return t_a, sigma_ab


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def maximally_mixed(pairs: Sequence[LabelPair], cap: int | None = None) -> StateOperator:
    dims = Dims(tuple(pairs))
    check_cap(dims.total, cap)
    d = dims.total
    return StateOperator(dims, np.eye(d) / d, validate=False)


def basis_ket(pairs: Sequence[LabelPair], index: Sequence[int],
              cap: int | None = None) -> PureState:
    dims = Dims(tuple(pairs))
    check_cap(dims.total, cap)
    flat = int(np.ravel_multi_index(tuple(index), dims.dims))
    amps = np.zeros(dims.total, dtype=complex)
    amps[flat] = 1.0
    return PureState(dims, amps, validate=False)


def maximally_entangled(label_a: str, label_b: str, d: int,
                        cap: int | None = None) -> PureState:
    """|Phi> = d^{-1/2} sum_x |x>|x> on two d-dimensional subsystems."""
    check_cap(d * d, cap)
    amps = (np.eye(d) / np.sqrt(d)).reshape(-1)
    return PureState(dims_of((label_a, d), (label_b, d)), amps, validate=False)


def random_density(rng: np.random.Generator, pairs: Sequence[LabelPair],
                   rank: int | None = None, cap: int | None = None) -> StateOperator:
    """Normalized density operator sampled from a Ginibre factor G G^dagger."""
    dims = Dims(tuple(pairs))
    check_cap(dims.total, cap)
    d = dims.total
    r = d if rank is None else max(1, min(rank, d))
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return StateOperator(dims, m / np.trace(m).real, validate=False)


def random_pure(rng: np.random.Generator, pairs: Sequence[LabelPair],
                cap: int | None = None) -> PureState:
    dims = Dims(tuple(pairs))
    check_cap(dims.total, cap)
    v = rng.standard_normal(dims.total) + 1j * rng.standard_normal(dims.total)
    return PureState(dims, v / np.linalg.norm(v), validate=False)


# ---------------------------------------------------------------------------
# JSON state format
# ---------------------------------------------------------------------------

def state_to_json(op: StateOperator) -> dict:
    return {
        "dims": [{"label": lab, "dim": d} for lab, d in op.dims.pairs],
        "matrix": {
            "re": op.matrix.real.tolist(),
            "im": op.matrix.imag.tolist(),
        },
    }


def state_from_json(obj: dict | str, cap: int | None = None) -> StateOperator:
    """Parse the state JSON format, rejecting invariant violations."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    pairs = tuple((str(e["label"]), int(e["dim"])) for e in obj["dims"])
    re = np.asarray(obj["matrix"]["re"], dtype=float)
    im = np.asarray(obj["matrix"]["im"], dtype=float)
    return StateOperator(Dims(pairs), re + 1j * im, validate=True, cap=cap)
