"""Dense complex-matrix algebra over labeled tensor-product Hilbert spaces.

States are square complex matrices together with an ordered list of labeled
subsystem dimensions.  Everything here is immutable after construction and
every operation is a pure function, so values can be shared freely across
workers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Default total-dimension cap.  All dense algorithms here are O(d^3)-O(d^6);
# the cap keeps test suites fast.  Callers may override per operation.
DIM_CAP = 256

TOL_HERM = 1e-10   # Hermiticity tolerance, relative to operator norm
TOL_PSD = 1e-10    # allowed negative eigenvalue, relative to operator norm
TOL_TRACE = 1e-9   # allowed excess above trace one, and |trace - 1| of a normalized state
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


def _hermitian_items(m: np.ndarray, tol: float, adjoint: np.ndarray | None = None
                     ) -> np.ndarray:
    """Per item of ``m`` (k, ..., n, n): max |m - m^dagger| <= tol max(1, max |m|).

    ``adjoint`` is m^dagger when the caller has formed it already."""
    if adjoint is None:
        adjoint = m.conj().swapaxes(-1, -2)
    item = tuple(range(1, m.ndim))
    scale = np.abs(m).max(axis=item, initial=1.0)
    skew = np.abs(m - adjoint).max(axis=item, initial=0.0)
    return skew <= tol * scale


def _by_item(x: np.ndarray) -> np.ndarray:
    """``x`` as a (k, entries per item) array; k may be 0."""
    return x.reshape(x.shape[0], math.prod(x.shape[1:]))


def herm_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of d x d matrices, shape (d*d, d, d).

    Order: diagonal units, then (symmetric, antisymmetric) pairs for a < b,
    the pairs in row-major order.  ``herm_coords`` and ``herm_combination``
    use the same order; the basis is ``herm_combination`` of the unit
    vectors, + 0.0 so that every zero entry is +0.0.
    """
    return herm_combination(np.eye(d * d)) + 0.0


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays made read-only: cached tables are shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=None)
def herm_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each a < b, in the pair order of ``herm_basis(d)``."""
    return read_only(*np.triu_indices(d, 1))


@functools.lru_cache(maxsize=None)
def _herm_slots(d: int) -> tuple[np.ndarray, ...]:
    """Index tables between ``herm_basis(d)`` coordinates and the real view
    of a d x d complex matrix (real and imaginary parts interleaved, 2 d^2
    slots): coordinate i is c1_i v[s1_i] + c2_i v[s2_i], and slot t of
    sum_i u_i h_i is k_t u[j_t]."""
    a, b = herm_pairs(d)
    r = 1.0 / np.sqrt(2.0)
    diag, up, lo = 2 * np.arange(d) * (d + 1), 2 * (a * d + b), 2 * (b * d + a)
    s1, s2 = np.empty(d * d, dtype=np.intp), np.empty(d * d, dtype=np.intp)
    c1, c2 = np.empty(d * d), np.empty(d * d)
    s1[:d], s2[:d], c1[:d], c2[:d] = diag, diag, 1.0, 0.0
    s1[d::2], s2[d::2], c1[d::2], c2[d::2] = up, lo, r, r
    s1[d + 1::2], s2[d + 1::2], c1[d + 1::2], c2[d + 1::2] = up + 1, lo + 1, r, -r
    j, k = np.zeros(2 * d * d, dtype=np.intp), np.zeros(2 * d * d)
    j[diag], k[diag] = np.arange(d), 1.0
    sym = d + 2 * np.arange(len(a))
    j[up], j[lo], k[up], k[lo] = sym, sym, r, r
    j[up + 1], j[lo + 1], k[up + 1], k[lo + 1] = sym + 1, sym + 1, r, -r
    return read_only(s1, s2, c1, c2, j, k)


def herm_coords(m: np.ndarray) -> np.ndarray:
    """Re tr(h_i m) for the matrices h_i of ``herm_basis(d)``, over the last
    two axes: (..., d, d) -> (..., d*d), real.  For Hermitian m these are its
    coordinates in that orthonormal basis."""
    d = m.shape[-1]
    s1, s2, c1, c2, _, _ = _herm_slots(d)
    v = np.ascontiguousarray(m, dtype=complex).view(float)
    v = v.reshape(v.shape[:-2] + (2 * d * d,))
    return v[..., s1] * c1 + v[..., s2] * c2


def herm_combination(u: np.ndarray) -> np.ndarray:
    """sum_i u_i h_i over the matrices of ``herm_basis(d)``, over the last
    axis: (..., d*d) real -> (..., d, d) Hermitian; inverse of ``herm_coords``."""
    d = math.isqrt(u.shape[-1])
    *_, j, k = _herm_slots(d)
    out = np.empty(u.shape[:-1] + (2 * d * d,))
    np.multiply(np.asarray(u, dtype=float)[..., j], k, out=out)
    return out.view(complex).reshape(u.shape[:-1] + (d, d))


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix via eigenvalue calculus.

    Eigenvalues within ``TOL_PSD * ||m||`` below zero are clipped to zero;
    anything more negative raises.  A stack ``(..., n, n)`` is taken matrix
    by matrix, each with its own norm, in one stacked ``eigh``.
    """
    w, v = np.linalg.eigh(hermitian_part(m))
    scale = np.max(w, axis=-1, initial=0.0)[..., None]
    low = np.min(w, axis=-1, initial=0.0)
    bad = low < -TOL_PSD * np.maximum(scale[..., 0], 1.0)
    if bad.any():
        raise InvariantError(f"matrix is not PSD: min eigenvalue {low[bad].min():.3e}")
    # eigenvalues at rounding-noise level are exact zeros; the square root
    # would otherwise amplify them to sqrt(eps)-sized artifacts
    w = np.where(w < 1e-15 * np.maximum(scale, 1e-300), 0.0, w)
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


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
    adjoint = m.conj().swapaxes(-1, -2)
    herm = _hermitian_items(m, 1e-12, adjoint)
    if herm.all():
        return hermitian_trace_norms((m + adjoint) / 2)
    out = np.empty(m.shape[0])
    if herm.any():
        out[herm] = hermitian_trace_norms((m[herm] + adjoint[herm]) / 2)
    out[~herm] = _by_item(np.linalg.svd(m[~herm], compute_uv=False)).sum(axis=1)
    return out


def hermitian_trace_norms(h: np.ndarray) -> np.ndarray:
    """Sum of |eigenvalues| of each item of a Hermitian stack ``(k, ..., n, n)``,
    as a length-k array, read from the real diagonal and the lower triangle
    as ``eigvalsh`` reads them.

    At n = 2 the eigenvalues are (a + d)/2 +- hypot((a - d)/2, |b|), so the
    sum of their moduli is max(|a + d|, hypot(a - d, 2|b|)): the closed form
    of LAPACK's 2 x 2 symmetric eigenproblem (DLAE2), with no LAPACK call.
    Every other n takes ``eigvalsh`` and sums the moduli in item order.
    """
    if h.shape[-1] != 2:
        return _by_item(np.abs(np.linalg.eigvalsh(h))).sum(axis=1)
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    return _by_item(np.maximum(np.abs(a + d),
                               np.hypot(a - d, 2 * np.abs(h[..., 1, 0])))).sum(axis=1)


def _split(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The isolated and the linked indices of the Hermitian matrix ``h``.

    An isolated index has no off-diagonal nonzero in its row: its unit vector
    is an eigenvector, with its real diagonal entry as eigenvalue.  The
    linked indices span the rest of the spectrum, that of their principal
    submatrix."""
    link = h != 0
    np.fill_diagonal(link, False)
    has_link = link.any(axis=1)
    return np.flatnonzero(~has_link), np.flatnonzero(has_link)


def _block_eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian matrix ``h``, unsorted: the isolated
    indices' real diagonal entries (``_split``), then ``eigvalsh`` of the
    linked indices' principal submatrix.  When no index is isolated that
    submatrix is ``h`` itself, so this is ``np.linalg.eigvalsh(h)`` bit for bit.
    """
    isolated, linked = _split(h)
    return np.concatenate([np.diagonal(h).real[isolated],
                           np.linalg.eigvalsh(h[np.ix_(linked, linked)])])


def block_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of the Hermitian matrix ``h``, unsorted, with
    h = v diag(w) v^H: each isolated index (``_split``) gives its real
    diagonal entry and its unit vector, and the linked indices one ``eigh``
    of their principal submatrix.  When no index is isolated that submatrix
    is ``h`` itself, so this is ``np.linalg.eigh(h)`` bit for bit.
    """
    isolated, linked = _split(h)
    w, v_linked = np.linalg.eigh(h[np.ix_(linked, linked)])
    v = np.zeros_like(h)
    v[isolated, np.arange(len(isolated))] = 1.0
    v[linked[:, None], len(isolated) + np.arange(len(linked))] = v_linked
    return np.concatenate([np.diagonal(h).real[isolated], w]), v


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateOperator:
    """Subnormalized positive operator on a labeled tensor-product space.

    With ``validate`` the matrix must be finite, Hermitian within
    ``TOL_HERM``, positive within ``TOL_PSD`` of its norm and of trace at
    most one.  The positivity check takes an isolated index's eigenvalue
    from its diagonal entry and decomposes only the linked indices
    (``_block_eigvalsh``), so a diagonal state such as ``classical_state``
    needs no eigendecomposition.
    """

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
            adjoint = matrix.conj().T
            if not _hermitian_items(matrix[None], TOL_HERM, adjoint[None])[0]:
                raise InvariantError("matrix is not Hermitian within tolerance")
            w = _block_eigvalsh((matrix + adjoint) / 2)
            norm = float(np.max(np.abs(w), initial=0.0))
            low = w.min()
            if low < -TOL_PSD * max(norm, 1.0):
                raise InvariantError(f"matrix is not PSD: min eigenvalue {low:.3e}")
            tr = float(np.trace(matrix).real)
            if tr > 1.0 + TOL_TRACE:
                raise InvariantError(f"trace {tr} exceeds 1 beyond tolerance")
            if tr < -TOL_TRACE:
                raise InvariantError(f"trace {tr} is negative")

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def is_normalized(self) -> bool:
        """Trace one within ``TOL_TRACE``."""
        return abs(self.trace - 1.0) <= TOL_TRACE

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

def tensor(a: StateOperator, b: StateOperator) -> StateOperator:
    """Kronecker product with concatenated labels; trace multiplies."""
    overlap = set(a.labels) & set(b.labels)
    if overlap:
        raise LabelError(f"duplicate labels {sorted(overlap)} in tensor product")
    check_cap(a.dims.total * b.dims.total)
    return StateOperator(Dims(a.dims.pairs + b.dims.pairs),
                         np.kron(a.matrix, b.matrix), validate=False)


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
                 out: Sequence[LabelPair] | None = None) -> StateOperator:
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
    new_dims = Dims(out_pairs + rest.pairs)
    dtot = new_dims.total
    check_cap(dtot)
    perm = op.permute(list(on) + list(rest.labels))
    dr = rest.total
    t = perm.matrix.reshape(din, dr, din, dr)
    res = np.einsum("ik,krls,jl->irjs", m, t, m.conj(), optimize=True)
    return StateOperator(new_dims, res.reshape(dtot, dtot), validate=False)


# ---------------------------------------------------------------------------
# metric quantities
# ---------------------------------------------------------------------------

def _as_matrix(x: StateOperator | np.ndarray) -> np.ndarray:
    return x.matrix if isinstance(x, StateOperator) else np.asarray(x, dtype=complex)


def fidelity(rho: StateOperator | np.ndarray, sigma: StateOperator | np.ndarray) -> float:
    """F(rho, sigma) = || sqrt(rho) sqrt(sigma) ||_1.

    It is the one-item case of ``fidelities``."""
    r, s = _as_matrix(rho), _as_matrix(sigma)
    if r.shape != s.shape:
        raise ValueError(f"dimension mismatch {r.shape} vs {s.shape}")
    return float(fidelities(r[None], s[None])[0])


def fidelities(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``fidelity`` of each item pair of two stacks ``(k, n, n)``, as a length-k
    array.  Either stack may hold a single item, which then pairs with every
    item of the other: its square root is taken once.  The values do not
    depend on the rest of the stack."""
    sv = np.linalg.svd(sqrt_psd(rho) @ sqrt_psd(sigma), compute_uv=False)
    return sv.sum(axis=-1)


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
    if require_normalized and not rho.is_normalized:
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


def swap_operator(d: int) -> np.ndarray:
    """The d^2 x d^2 permutation F with F(|i> (x) |k>) = |k> (x) |i>."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    check_cap(d * d)
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
    """The state JSON object: ``dims`` and the matrix in one of two encodings.

    An entry is stored unless both its parts are +0.0, so -0.0 and NaN are
    stored.  A matrix with fewer than half its entries stored is written in
    coordinate form, ``{"rows", "cols", "re", "im"}`` with one item per stored
    entry in row-major order (four numbers per stored entry against two per
    entry); every other matrix is written dense, as nested ``re`` and ``im``
    row lists.  Both read back bit for bit.
    """
    m = np.ascontiguousarray(op.matrix, dtype=complex)
    stored = (m.view(np.uint64).reshape(m.shape + (2,)) != 0).any(axis=2)
    if 2 * np.count_nonzero(stored) < m.size:
        rows, cols = np.nonzero(stored)
        values = m[rows, cols]
        matrix = {"rows": rows.tolist(), "cols": cols.tolist(),
                  "re": values.real.tolist(), "im": values.imag.tolist()}
    else:
        matrix = {"re": m.real.tolist(), "im": m.imag.tolist()}
    return {"dims": [{"label": lab, "dim": d} for lab, d in op.dims.pairs],
            "matrix": matrix}


def _coordinates(items, d: int, name: str) -> np.ndarray:
    """A coordinate list as an index array, each index an int in [0, d)."""
    if not isinstance(items, list) or not set(map(type, items)) <= {int}:
        raise InvariantError(f"matrix {name} must be a list of integers")
    if items and (min(items) < 0 or max(items) >= d):
        raise InvariantError(f"matrix {name} has an index outside [0, {d})")
    return np.asarray(items, dtype=np.intp)


def _floats(entries: dict, name: str, shape: tuple[int, ...], mismatch: str) -> np.ndarray:
    """``entries[name]`` as a float array of ``shape``, else InvariantError
    (with ``mismatch`` for numbers of another shape)."""
    try:
        part = np.asarray(entries.get(name), dtype=float)
    except (TypeError, ValueError):
        raise InvariantError(f"matrix {name} must hold numbers only") from None
    if part.shape != shape:
        raise InvariantError(mismatch)
    return part


def parse_state_json(obj: dict, cap: int | None) -> tuple[Dims, np.ndarray]:
    """The dimensions and the complex matrix of a parsed state JSON object,
    not yet validated, from either encoding of ``state_to_json``.

    ``obj`` must be an object with a ``dims`` list of objects, each with a
    str ``label`` and an int ``dim``, and a ``matrix`` object; otherwise this
    raises ``InvariantError``.  The dense matrix is built in one array, so a
    caller that drops ``obj`` holds only it during validation, and each of
    its parts must be d x d numbers.  The coordinate form holds the total
    dimension to ``cap`` (see ``check_cap``) before it allocates the d x d
    array, and raises ``InvariantError`` on a missing list, lists of unequal
    length, values that are not numbers, an index that is not an int in
    [0, d) or a coordinate given twice.
    """
    if not (isinstance(obj, dict) and isinstance(obj.get("dims"), list)
            and isinstance(obj.get("matrix"), dict)):
        raise InvariantError("a state must be an object with a dims list and a "
                             "matrix object")
    for e in obj["dims"]:
        if not (isinstance(e, dict) and type(e.get("label")) is str
                and type(e.get("dim")) is int):
            raise InvariantError("each dims entry must be an object with a string "
                                 "label and an integer dim")
    dims = Dims(tuple((e["label"], e["dim"]) for e in obj["dims"]))
    d = dims.total
    entries = obj["matrix"]
    if "rows" not in entries:
        square = f"matrix re and im must each be {d} rows of {d} numbers"
        re = _floats(entries, "re", (d, d), square)
        matrix = np.empty((d, d), dtype=complex)
        matrix.real = re
        del re
        matrix.imag = _floats(entries, "im", (d, d), square)
        return dims, matrix
    check_cap(d, cap)
    rows = _coordinates(entries.get("rows"), d, "rows")
    cols = _coordinates(entries.get("cols"), d, "cols")
    unequal = "matrix rows, cols, re and im differ in length"
    if cols.shape != rows.shape:
        raise InvariantError(unequal)
    re = _floats(entries, "re", rows.shape, unequal)
    im = _floats(entries, "im", rows.shape, unequal)
    flat = rows * d + cols
    if np.unique(flat).size < flat.size:
        raise InvariantError("matrix has a coordinate given twice")
    values = np.empty(rows.shape, dtype=complex)
    values.real = re
    values.imag = im
    matrix = np.zeros((d, d), dtype=complex)
    matrix[rows, cols] = values
    return dims, matrix


def state_from_json(obj: dict, cap: int | None = None) -> StateOperator:
    """Parse the state JSON format, rejecting invariant violations."""
    dims, matrix = parse_state_json(obj, cap)
    return StateOperator(dims, matrix, validate=True, cap=cap)
