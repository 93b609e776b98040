"""Dense primal-dual interior-point solver for Hermitian-block SDPs.

Standard primal form over a block-diagonal Hermitian variable X:

    minimize    sum_k tr(C_k X_k)
    subject to  sum_k tr(A_ik X_k) = b_i   (i = 1..m),   X_k >= 0.

The dual is max b.y subject to Z_k = C_k - sum_i y_i A_ik >= 0.  Directions
use Nesterov-Todd scaling with a Mehrotra-style adaptive centering parameter;
the Schur complement is regularized to survive problems whose optimum sits on
the boundary of strict feasibility.  Each group of equal-size blocks adds its
part of the Schur complement with the dense sandwich W A_i W (``_DenseSchur``)
or, where the group carries constraint families (``ProblemBuilder.add_family``)
and that needs fewer operations, with the family term, which works from the
scaling matrix W alone (``_sdp_family``).  Every group factors its iterates
and bounds its steps with stacked LAPACK calls.  A solve returns X, y, both
objectives and both residuals at the best iterate it recorded, with one of
two outcomes: Optimal or MaxIter.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from qdecouple.linalg import (DimCapError, herm_combination, herm_pairs, hermitian_part,
                              read_only)


class SdpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"


FEAS_TOL = 1e-9  # relative residual at which an iterate counts as feasible
# dense constraint stacks hold m * sum_k n_k^2 complex entries (16 bytes each);
# ProblemBuilder refuses programs above this before allocating them
MAX_STACK_ENTRIES = 1 << 26
# a primal-dual start (X blocks, y, Z blocks) in original units
Start = tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]


def default_gap_tol(primal_obj: float) -> float:
    return 1e-7 * (1.0 + abs(primal_obj))


@dataclass(frozen=True)
class FamilyMap:
    """One block's part of a constraint family: a linear map h -> T(h), given
    by where it places h (``placement``).

    ``embed(o)``: h as the diagonal sub-block at offset o; ``kron_eye(a)``:
    I_a (x) h, h at the a offsets 0, d, ..., (a - 1) d; ``neg_trace_out(a)``:
    -tr_A h for h on A (x) B with d_A = a, as the whole block.
    """

    offset: int
    lead: int
    trace_out: bool

    def placement(self, d: int) -> tuple[int, tuple[int, ...], np.ndarray | None,
                                         np.ndarray]:
        """(s, offsets, src, coef): T(h_i) = coef_i g_src_i placed as the s x s
        diagonal sub-block at every offset, for h_i of ``herm_basis(d)`` and
        g_j of ``herm_basis(s)``.  src None means g_src_i = h_i; a trace-out
        map gathers from the ``_trace_out_rows`` table (coef -1 or 0)."""
        if self.trace_out:
            src, coef = _trace_out_rows(self.lead, d // self.lead)
            return d // self.lead, (0,), src, coef
        return (d, tuple(range(self.offset, self.offset + self.lead * d, d)), None,
                np.ones(d * d))

    def fits(self, d: int, n: int) -> bool:
        """Whether T(h) for h of size d fits a block of size n: every offset's
        sub-block inside it, and a gathered map's table of size d filling it."""
        s, offsets, src, coef = self.placement(d)
        return (len(coef) == d * d and offsets[0] >= 0 and offsets[-1] + s <= n
                and (src is None or s == n))

    def norms(self, d: int) -> np.ndarray:
        """||T(h_i)||_F^2 for each h_i of ``herm_basis(d)``."""
        _, offsets, _, coef = self.placement(d)
        return len(offsets) * coef ** 2

    def materialize(self, d: int, n: int) -> np.ndarray:
        """T(h_i) for every h_i of ``herm_basis(d)`` as a (d*d, n, n) stack."""
        s, offsets, src, coef = self.placement(d)
        u = np.zeros((d * d, s * s))
        u[np.arange(d * d), np.arange(d * d) if src is None else src] = coef
        # + 0.0: zero entries stay +0.0, as in a built stack
        g = herm_combination(u) + 0.0
        out = np.zeros((d * d, n, n), dtype=complex)
        for o in offsets:
            out[:, o:o + s, o:o + s] = g
        return out


def embed(offset: int) -> FamilyMap:
    return FamilyMap(offset, 1, False)


def kron_eye(lead: int) -> FamilyMap:
    return FamilyMap(0, lead, False)


def neg_trace_out(lead: int) -> FamilyMap:
    return FamilyMap(0, lead, True)


@functools.lru_cache(maxsize=None)
def _trace_out_rows(lead: int, db: int) -> tuple[np.ndarray, np.ndarray]:
    """-tr_A h_i = coef_i g_src_i for h_i of ``herm_basis(lead * db)`` and
    g_j of ``herm_basis(db)``: diagonal units go to diagonal units, a pair
    within one A index to the same pair of B indices, any other pair to 0."""
    d = lead * db
    src = np.zeros(d * d, dtype=np.intp)
    coef = np.zeros(d * d)
    src[:d] = np.arange(d) % db
    coef[:d] = -1.0
    x, y = herm_pairs(d)
    (ax, bx), (ay, by) = np.divmod(x, db), np.divmod(y, db)
    same = np.flatnonzero(ax == ay)
    b1, b2 = bx[same], by[same]
    pair = b1 * db - b1 * (b1 + 1) // 2 + (b2 - b1 - 1)
    for k in (0, 1):
        src[d + 2 * same + k] = db + 2 * pair + k
        coef[d + 2 * same + k] = -1.0
    return read_only(src, coef)


@dataclass(frozen=True)
class Family:
    """d^2 consecutive constraints from row ``start``: row start + i is
    sum_k T_k(h_i) over the (block k, map T_k) pairs of ``maps``, h_i the i-th
    matrix of ``herm_basis(d)``."""

    start: int
    d: int
    maps: tuple[tuple[int, FamilyMap], ...]

    @property
    def rows(self) -> slice:
        return slice(self.start, self.start + self.d * self.d)


@dataclass(frozen=True)
class SdpProblem:
    """Standard-form problem data.

    The constraints are the rows of ``families`` plus the explicit rows, which
    fill the remaining row indices in order (``explicit_index``):
    explicit_blocks[k] has shape (E, n_k, n_k), and explicit row e uses matrix
    explicit_blocks[k][e] on block k.  All constraint and objective matrices
    must be Hermitian; family rows are by construction.
    """

    block_dims: tuple[int, ...]
    c_blocks: tuple[np.ndarray, ...]
    explicit_blocks: tuple[np.ndarray, ...]
    b: np.ndarray
    families: tuple[Family, ...] = ()

    def __post_init__(self) -> None:
        m = len(self.b)
        if m == 0:
            raise ValueError("program has no constraints; add at least one "
                             "constraint or family before solving")
        n_tot = sum(self.block_dims)
        if m > n_tot * n_tot:
            raise ValueError(f"{m} constraints exceed total dimension squared {n_tot**2}")
        num_e = len(self.explicit_index)
        if num_e != m - sum(fam.d * fam.d for fam in self.families) or any(
                fam.start < 0 or fam.rows.stop > m for fam in self.families):
            raise ValueError("constraint families overlap or leave the row range")
        for fam in self.families:
            for k, fmap in fam.maps:
                if not (0 <= k < len(self.block_dims) and fmap.fits(fam.d, self.block_dims[k])):
                    raise ValueError(f"{fmap} of a size-{fam.d} family does not "
                                     f"fit block {k}")
        for k, n in enumerate(self.block_dims):
            if self.c_blocks[k].shape != (n, n):
                raise ValueError(f"objective block {k} has wrong shape")
            if self.explicit_blocks[k].shape != (num_e, n, n):
                raise ValueError(f"constraint stack {k} has wrong shape")
            for name, mat in (("C", self.c_blocks[k][None]), ("A", self.explicit_blocks[k])):
                err = np.abs(mat - np.conj(np.transpose(mat, (0, 2, 1)))).max(initial=0.0)
                if err > 1e-9:
                    raise ValueError(f"{name} block {k} is not Hermitian (err {err:.2e})")

    @property
    def num_constraints(self) -> int:
        return len(self.b)

    @property
    def explicit_index(self) -> np.ndarray:
        explicit = np.ones(len(self.b), dtype=bool)
        for fam in self.families:
            explicit[fam.rows] = False
        return np.flatnonzero(explicit)

    def block_stack(self, k: int) -> np.ndarray:
        """Every constraint's matrix on block k, a dense (m, n_k, n_k) stack."""
        if not self.families:
            return self.explicit_blocks[k]
        n = self.block_dims[k]
        out = np.zeros((len(self.b), n, n), dtype=complex)
        out[self.explicit_index] = self.explicit_blocks[k]
        for fam in self.families:
            for blk, fmap in fam.maps:
                if blk == k:
                    out[fam.rows] += fmap.materialize(fam.d, n)
        return out

    @property
    def a_blocks(self) -> tuple[np.ndarray, ...]:
        """The dense (m, n_k, n_k) constraint stacks, materialized."""
        return tuple(self.block_stack(k) for k in range(len(self.block_dims)))

    def row_norms(self, closed_form: bool) -> np.ndarray:
        """||A_i||_F^2 summed over blocks: family rows in closed form, or, with
        ``closed_form`` False and in a program of explicit rows only, summed
        over the dense stacks block by block."""
        m = len(self.b)
        row_norm = np.zeros(m)
        if not (closed_form and self.families):
            for a in self.a_blocks:
                row_norm += np.einsum("ipq,ipq->i", a, a.conj(), optimize=False).real
            return row_norm
        for a in self.explicit_blocks:
            row_norm[self.explicit_index] += np.einsum("ipq,ipq->i", a, a.conj(),
                                                       optimize=False).real
        for fam in self.families:
            for _, fmap in fam.maps:
                row_norm[fam.rows] += fmap.norms(fam.d)
        return row_norm


@dataclass
class SdpSolution:
    x_blocks: list[np.ndarray]
    y: np.ndarray
    primal_obj: float
    dual_obj: float
    gap: float
    status: SdpStatus
    iterations: int
    primal_infeas: float
    dual_infeas: float
    # Schur-complement kernel ("dense" or "family") per block size
    schur_kernels: dict[int, str]


class ProblemBuilder:
    """Incremental constructor for SdpProblem instances.

    Explicit constraint coefficients are kept as their nonzero entries, and a
    family of constraints (``add_family``) as its maps alone.  A program
    whose dense stacks would exceed MAX_STACK_ENTRIES raises DimCapError
    before any stack is allocated: in ``add_constraint`` or ``add_family``
    once its rows reach the limit, or in ``build``.
    """

    def __init__(self) -> None:
        self._dims: list[int] = []
        self._c: list[np.ndarray] = []
        self._rows: list[dict[int, tuple[np.ndarray, np.ndarray]]] = []  # explicit rows
        self._families: list[Family] = []
        self._rhs: list[np.ndarray] = []  # per explicit row or family, in row order
        self._m = 0
        self._row_entries = 0  # sum_k n_k^2, the stack entries of one row

    def add_block(self, n: int, c: np.ndarray | None = None) -> int:
        self._dims.append(n)
        self._row_entries += n * n
        self._c.append(np.zeros((n, n), dtype=complex) if c is None
                       else np.asarray(c, dtype=complex))
        return len(self._dims) - 1

    def _check_size(self, m: int) -> None:
        entries = m * self._row_entries
        if entries > MAX_STACK_ENTRIES:
            raise DimCapError(f"{m} constraints on blocks of sizes {tuple(self._dims)} "
                              f"need {entries} stack entries, above {MAX_STACK_ENTRIES}")

    def _check_blocks(self, ks: Iterable[int]) -> None:
        # a negative index would otherwise wrap onto a block from the end
        for k in ks:
            if k not in range(len(self._dims)):
                raise ValueError(f"block index {k!r} outside the {len(self._dims)} "
                                 f"blocks added")

    def add_constraint(self, coeffs: dict[int, np.ndarray], rhs: float) -> None:
        # refuse an oversized program as soon as its rows reach the limit
        self._check_size(self._m + 1)
        self._check_blocks(coeffs)
        row = {}
        for k, v in coeffs.items():
            v = np.asarray(v, dtype=complex)
            if v.shape != (self._dims[k], self._dims[k]):
                raise ValueError(f"coefficient of shape {v.shape} on block {k} "
                                 f"of size {self._dims[k]}")
            flat = (v != 0).reshape(-1).nonzero()[0]
            row[k] = (flat, v.reshape(-1)[flat])
        self._rows.append(row)
        self._rhs.append(np.array([float(rhs)]))
        self._m += 1

    def add_family(self, d: int, maps: dict[int, FamilyMap], rhs) -> None:
        """d^2 constraints sum_k T_k(h_i) = rhs_i, one per h_i of
        ``herm_basis(d)`` in that order, for the maps T_k of ``maps``."""
        self._check_size(self._m + d * d)
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (d * d,):
            raise ValueError(f"family of size {d} needs {d * d} right-hand sides")
        self._check_blocks(maps)
        for k, fmap in maps.items():
            if not fmap.fits(d, self._dims[k]):
                raise ValueError(f"{fmap} of a size-{d} family does not fit "
                                 f"block {k} of size {self._dims[k]}")
        self._families.append(Family(self._m, d, tuple(maps.items())))
        self._rhs.append(rhs)
        self._m += d * d

    def build(self) -> SdpProblem:
        self._check_size(self._m)
        num_e = len(self._rows)
        stacks = [np.zeros((num_e, n * n), dtype=complex) for n in self._dims]
        for i, row in enumerate(self._rows):
            for k, (flat, vals) in row.items():
                stacks[k][i, flat] = vals
        explicit = tuple(s.reshape(num_e, n, n) for s, n in zip(stacks, self._dims))
        b = np.concatenate(self._rhs) if self._rhs else np.zeros(0)
        return SdpProblem(tuple(self._dims), tuple(self._c), explicit, b,
                          tuple(self._families))


# ---------------------------------------------------------------------------
# solver internals
#
# Blocks of equal size are stacked into (count, n, n) arrays so that every
# per-iteration operation is a handful of batched LAPACK/BLAS calls; Python
# never loops over individual blocks.
# ---------------------------------------------------------------------------

def _b_floored(w: np.ndarray, rel_floor: float) -> np.ndarray:
    """Eigenvalues clamped below at rel_floor times each block's largest."""
    top = np.maximum(w[:, -1], 1e-100)
    return np.maximum(w, rel_floor * top[:, None])


def _b_spectral(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(w) V^H for each block."""
    return (v * w[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _b_factor(x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """(W, X^(-1/2), Z^(-1/2), Z^(-1)) from one stacked eigendecomposition of
    X and Z and one of X^(1/2) Z X^(1/2).

    W Z W = X is the Nesterov-Todd scaling point (Todd-Toh-Tutuncu, SIAM J.
    Optim. 8, 1998).  Eigenvalues are clamped at a relative machine floor:
    1e-16 for X, X^(1/2) Z X^(1/2) and Z^(-1/2), 1e-18 for Z^(-1).
    """
    count = len(x)
    w, v = np.linalg.eigh(hermitian_part(np.concatenate((x, z))))
    wx, vx, wz, vz = w[:count], v[:count], w[count:], v[count:]
    wx = _b_floored(wx, 1e-16)
    xh = _b_spectral(np.sqrt(wx), vx)
    wm, vm = np.linalg.eigh(hermitian_part(xh @ z @ xh))
    mih = _b_spectral(_b_floored(wm, 1e-16) ** -0.5, vm)
    return (hermitian_part(xh @ mih @ xh), _b_spectral(wx ** -0.5, vx),
            _b_spectral(_b_floored(wz, 1e-16) ** -0.5, vz),
            _b_spectral(1.0 / _b_floored(wz, 1e-18), vz))


def _b_lowest_eig(s: np.ndarray) -> np.ndarray:
    """The lowest eigenvalue of each Hermitian part of a (count, n, n) stack."""
    return np.linalg.eigvalsh(hermitian_part(s))[:, 0]


def _b_step_lows(isq: tuple[np.ndarray, np.ndarray], d: list[np.ndarray]) -> list[float]:
    """Lowest eigenvalue of isq_j d isq_j over the items of one group size, for
    each direction d of [dx_1, dz_1, dx_2, dz_2, ...], where the x-side
    directions take isq_0 = x^(-1/2) and the z-side ones isq_1 = z^(-1/2),
    from one stacked ``eigvalsh``.

    With isq = x^(-1/2), sup { a : x + a d >= 0 } is -1 / lowest, or
    infinite when lowest is not negative.  Each item is scaled to unit
    largest entry before its eigenvalues are taken.  Eigenvalues of x below
    a relative machine floor are clamped in isq, so callers must still
    verify positive definiteness of the stepped point.
    """
    count, n = isq[0].shape[:2]
    shape = (len(d) // 2, 2, count, n, n)  # (direction pair, side, item)
    i = np.concatenate(isq).reshape(shape[1:])
    s = hermitian_part((i @ np.concatenate(d).reshape(shape) @ i).reshape(-1, n, n))
    scale = np.abs(s).reshape(len(s), -1).max(axis=1)
    scale = np.maximum(scale, 1e-300)
    lam = np.linalg.eigvalsh(s / scale[:, None, None])[:, 0] * scale
    return lam.reshape(-1, count).min(axis=1).tolist()


def _b_max_steps(lows: list[list[float]]) -> list[float]:
    """Per side, the step bound -1 / lowest over every group (``_b_step_lows``
    of each group), infinite where no group's lowest is below -1e-14."""
    return [np.inf if lam >= -1e-14 else -1.0 / lam for lam in map(min, zip(*lows))]


def _b_back_off(x: list[np.ndarray], dx: list[np.ndarray], step: float,
                tries: int) -> float:
    """Halve step, at most ``tries`` times, until x + step dx is positive definite."""
    for _ in range(tries):
        if all(_b_lowest_eig(xg + step * dg).min() > 0.0 for xg, dg in zip(x, dx)):
            break
        step *= 0.5
    return step


def _b_back_off_pair(x: list[np.ndarray], dx: list[np.ndarray], ap: float,
                     z: list[np.ndarray], dz: list[np.ndarray], ad: float
                     ) -> tuple[float, float]:
    """(ap, ad) halved, at most 40 times each, until x + ap dx and z + ad dz
    are positive definite.  The first check of both is one stacked
    ``eigvalsh`` per group; ``_b_back_off`` goes on from half a step that
    fails it."""
    x_ok = z_ok = True
    for xg, dxg, zg, dzg in zip(x, dx, z, dz):
        w = _b_lowest_eig(np.concatenate((xg + ap * dxg, zg + ad * dzg)))
        x_low, z_low = w.reshape(2, -1).min(axis=1).tolist()
        x_ok, z_ok = x_ok and x_low > 0.0, z_ok and z_low > 0.0
    return (ap if x_ok else _b_back_off(x, dx, 0.5 * ap, 39),
            ad if z_ok else _b_back_off(z, dz, 0.5 * ad, 39))


class _DenseSchur:
    """A group's constraint map, adjoint, Schur term and Gram matrix from its
    dense (m, count, n, n) stack.

    The Schur term M_ij = sum_k Re tr(A_ik W_k A_jk W_k), the largest cost of
    an iteration, is the sandwich W A_i W of every constraint contracted with
    the stack.
    """

    kernel = "dense"
    corners = ()

    def __init__(self, a: np.ndarray, kept: np.ndarray | None):
        self.a = a
        self.a_flat = a.reshape(a.shape[0], -1)
        # the stack on the rows of the Newton system: all, or those kept
        # when fixed corners of other groups leave it
        self.a_kept, self.a_kept_flat = a, self.a_flat
        if kept is not None:
            self.a_kept_flat = self.a_flat[kept]
            self.a_kept = self.a_kept_flat.reshape((len(kept),) + a.shape[1:])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Re tr(A_i X) per constraint for a Hermitian (count, n, n) stack X."""
        return (self.a_flat @ x.conj().reshape(-1)).real

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """sum_i y_i A_i as a (count, n, n) stack."""
        return (y @ self.a_flat).reshape(self.a.shape[1:])

    def gram(self) -> np.ndarray:
        return (self.a_kept_flat @ self.a_kept_flat.conj().T).real

    def schur(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        wb = w[None, :, :, :]
        t = np.matmul(np.matmul(wb, self.a_kept), wb)
        out += (self.a_kept_flat @ t.reshape(t.shape[0], -1).conj().T).real
        return out


class _Groups:
    """Equal-size block groups plus scatter/gather to the flat block list.

    Constraint rows are divided by ``row_scale``, their norms, and the
    objective by ``c_scale``; division by positive scalars keeps every block
    Hermitian.  Each group takes the family term where
    ``_sdp_family.takes_family`` picks it, and the dense sandwich on its dense
    stack otherwise.  A program in which no group takes the family term is
    solved exactly as its dense stacks would be, row norms included.

    The fixed corners of family-term groups (``_sdp_family.newton_rows``)
    leave the Newton system: the Schur and Gram matrices cover the ``kept``
    rows alone (None: every row), and ``newton_solve`` eliminates and
    recovers the corner rows around their factors.
    """

    def __init__(self, problem: SdpProblem, c_scale: float):
        sizes = sorted(set(problem.block_dims))
        self.sizes = sizes
        self.index = [[k for k, n in enumerate(problem.block_dims) if n == s] for s in sizes]
        self.c = [np.stack([np.asarray(problem.c_blocks[k], dtype=complex) / c_scale
                            for k in idx]) for idx in self.index]
        family = [False] * len(sizes)
        if problem.families:
            # imported here, not at module level: without cached bytecode,
            # compiling it costs every start-up about 1 MB of resident memory,
            # and only programs with constraint families use it
            from qdecouple import _sdp_family

            family = [_sdp_family.takes_family(problem, idx) for idx in self.index]
        row_norm = problem.row_norms(closed_form=any(family))
        self.row_scale = row_scale = np.maximum(np.sqrt(row_norm), 1e-12)
        self.kept = None
        if any(family):
            newton_rows = _sdp_family.newton_rows(
                problem, [k for idx, fam in zip(self.index, family) if fam for k in idx])
            if newton_rows.min() < 0:
                self.kept = np.flatnonzero(newton_rows >= 0)
        self.terms: list[_DenseSchur | _sdp_family.FamilyTerm] = []
        for idx, fam in zip(self.index, family):
            if fam:
                self.terms.append(_sdp_family.family_term(problem, idx, row_scale,
                                                          newton_rows))
                continue
            a = np.stack([np.asarray(problem.block_stack(k), dtype=complex) for k in idx],
                         axis=1)  # (m, count, s, s)
            a /= row_scale[:, None, None, None]
            self.terms.append(_DenseSchur(a, self.kept))

    def scatter(self, blocks: list[np.ndarray]) -> list[np.ndarray]:
        return [np.stack([np.asarray(blocks[k], dtype=complex) for k in idx])
                for idx in self.index]

    def gather(self, grouped: list[np.ndarray]) -> list[np.ndarray]:
        out: list[np.ndarray] = [None] * sum(map(len, self.index))  # type: ignore[list-item]
        for idx, stack in zip(self.index, grouped):
            for j, k in enumerate(idx):
                out[k] = stack[j].copy()
        return out

    def identity(self, scale: float) -> list[np.ndarray]:
        return [scale * np.broadcast_to(np.eye(s, dtype=complex),
                                        (len(idx), s, s)).copy()
                for s, idx in zip(self.sizes, self.index)]

    def apply_a(self, x: list[np.ndarray], start: np.ndarray | None = None) -> np.ndarray:
        """start + A(X), added group by group in order (start defaults to zero)."""
        out = start
        for t, xg in zip(self.terms, x):
            v = t.apply(xg)
            out = v if out is None else out + v
        return out

    def apply_a_adjoint(self, y: np.ndarray) -> list[np.ndarray]:
        return [t.adjoint(y) for t in self.terms]

    def ip(self, x: list[np.ndarray], z: list[np.ndarray]) -> float:
        """sum_k tr(X_k Z_k), real for Hermitian blocks."""
        total = 0.0
        for xg, zg in zip(x, z):
            total += float(np.einsum("gpq,gqp->", xg, zg, optimize=False).real)
        return total

    def gram(self) -> np.ndarray:
        """Re <A_i, A_j>, the Gram matrix of the constraint map, on the rows
        of the Newton system (the corners eliminated at W = I)."""
        return sum(t.gram() for t in self.terms)

    def schur(self, w: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        """M_ij = sum_k Re tr(A_ik W_k A_jk W_k), each group by its own kernel,
        summed into ``out`` over the rows of the Newton system."""
        out.fill(0.0)
        for t, wg in zip(self.terms, w):
            t.schur(wg, out)
        return out

    def corners(self, w: list[np.ndarray]) -> list:
        """The fixed corners of each group at scaling w (``_sdp_family.Corners``)."""
        return [t.eliminate(wg) for t, wg in zip(self.terms, w) if t.corners]

    def newton_solve(self, solve: Callable[[np.ndarray], np.ndarray], u: np.ndarray,
                     corners: list) -> np.ndarray:
        """dy with M dy = u for the m x m Schur or Gram matrix M whose fixed
        corners at its scaling are ``corners``: ``solve`` solves the system
        of the kept rows, M_RR - M_RF M_FF^-1 M_FR, for u_R - M_RF M_FF^-1 u_F,
        and each corner's dy_F follows from dy_R."""
        if self.kept is None:
            return solve(u)
        v = u[self.kept]
        for c in corners:
            v -= c.reduce(u)[self.kept]
        dy = np.zeros(len(u))
        dy[self.kept] = solve(v)
        for c in corners:
            c.back(u, dy)
        return dy


def solve(problem: SdpProblem, *,
          start: Start | None = None,
          max_iterations: int = 200,
          gap_tol: Callable[[float], float] = default_gap_tol,
          reg: float = 1e-12,
          step_frac: float = 0.96) -> SdpSolution:
    """Run the interior-point iteration; see module docstring for the form.

    A strictly feasible ``start`` (X, y, Z) preserves feasibility exactly,
    so weak duality then holds on every iterate.  With None the solver
    starts at scaled identities with y = 0, in infeasible mode, and drives
    the residuals to zero alongside the gap.

    ``gap_tol`` is the stopping rule: it maps an iterate's primal objective
    (in original units) to the largest duality gap at which a feasible
    iterate counts as Optimal.  The default, ``default_gap_tol``, allows
    1e-7 * (1 + |primal|).  The same rule scales the gap in the merit that
    picks the iterate returned.  The solution is the best iterate recorded
    within ``max_iterations``: Optimal if its residuals are at most 1e-8 and
    its gap within ``gap_tol``, MaxIter otherwise.  A program with no
    feasible point therefore ends MaxIter, with its residuals reported.
    """
    m = problem.num_constraints

    # normalize constraints and objective; solved in scaled units, reported
    # in original units (y is rescaled on exit)
    c_scale = max(max(float(np.linalg.norm(c)) for c in problem.c_blocks), 1e-12)
    groups = _Groups(problem, c_scale)
    row_scale = groups.row_scale
    b = problem.b / row_scale
    n_tot = sum(problem.block_dims)
    norm_b = float(np.linalg.norm(b))
    norm_c = max(float(np.linalg.norm(c)) for cg in groups.c for c in cg)

    if start is None:
        x = groups.identity(max(1.0, norm_b))
        y = np.zeros(m)
        z = groups.identity(max(1.0, norm_c))
    else:
        x0, y0, z0 = start
        x = [hermitian_part(g) for g in groups.scatter(list(x0))]
        y = np.asarray(y0, dtype=float) * row_scale / c_scale
        z = [hermitian_part(g) / c_scale for g in groups.scatter(list(z0))]

    # Gram matrix of the constraint map, used to project search directions
    # exactly onto A(dx) = r_p so the primal residual cannot drift
    # (on the rows of the Newton system, m_n of them: the fixed corners leave it)
    gram = groups.gram()
    m_n = len(gram)
    gram = (gram + gram.T) / 2 + 1e-12 * max(1.0, float(np.trace(gram)) / max(m_n, 1)) * np.eye(m_n)
    gram_corners = groups.corners(groups.identity(1.0))
    # LAPACK's potrf and potrs, as scipy.linalg.cho_factor and cho_solve call
    # them (upper factor), without those wrappers' checks and copies on every
    # factorization and on every one of the three solves per direction.
    # scipy is imported here, not at module level: importing it costs a
    # start-up about 0.3 s, and only a solve needs it
    from scipy.linalg import get_lapack_funcs

    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), (gram,))

    def cho_factor(a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The Cholesky factor of a, formed in the Fortran-ordered m x m out."""
        out[...] = a
        factor, info = potrf(out, overwrite_a=True, clean=False)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        return factor

    def cho_solve(factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out, info = potrs(factor, rhs)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
        return out

    gram_factor = cho_factor(gram, np.empty((m_n, m_n), order="F"))
    # the Schur matrix, its symmetrized copy and its factor, reused every
    # iteration: fresh arrays would fault their pages in on first touch
    schur_sum, mat = np.empty((m_n, m_n)), np.empty((m_n, m_n))
    schur_factor = np.empty((m_n, m_n), order="F")

    it = 0
    best = None
    best_merit = np.inf

    def objective() -> tuple[float, float]:
        """Primal and dual objective in original (unscaled) units."""
        return groups.ip(groups.c, x) * c_scale, float(b @ y) * c_scale

    def residuals() -> tuple[np.ndarray, list[np.ndarray]]:
        """b - A(X) and C - A*(y) - Z at the current iterate."""
        r_p = b - groups.apply_a(x)
        aty = groups.apply_a_adjoint(y)
        return r_p, [cg - ag - zg for cg, ag, zg in zip(groups.c, aty, z)]

    def infeasibility(r_p, r_d) -> tuple[float, float]:
        return (float(np.linalg.norm(r_p)) / (1.0 + norm_b),
                max(float(np.linalg.norm(rd)) for rd in r_d) / (1.0 + norm_c))

    for it in range(1, max_iterations + 1):
        r_p, r_d = residuals()
        # residuals at machine-noise level are treated as exact zeros: the
        # W-sandwich below would otherwise amplify them by ||W||^2
        if float(np.linalg.norm(r_p)) <= 1e-13 * (1.0 + norm_b):
            r_p = np.zeros(m)
        r_d = [rd if float(np.abs(rd).max(initial=0.0)) > 1e-13 * (1.0 + norm_c)
               else np.zeros_like(rd) for rd in r_d]
        pobj, dobj = objective()
        gap = pobj - dobj
        pinf, dinf = infeasibility(r_p, r_d)

        tol_gap = gap_tol(pobj)
        merit = max(pinf / FEAS_TOL, dinf / FEAS_TOL,
                    abs(gap) / max(tol_gap, 1e-300))
        if merit < best_merit:
            best_merit = merit
            best = (x, y, z)
        if pinf <= FEAS_TOL and dinf <= FEAS_TOL and abs(gap) <= tol_gap:
            break

        w_scale, x_isq, z_isq, z_inv = zip(*map(_b_factor, x, z))
        groups.schur(w_scale, schur_sum)
        # mat is C-ordered: the summation order of mat @ dy below depends on it
        np.add(schur_sum, schur_sum.T, out=mat)
        mat *= 0.5
        mat.flat[::m_n + 1] += reg
        try:
            factor = cho_factor(mat, schur_factor)
        except np.linalg.LinAlgError:
            factor = cho_factor(mat + 1e-8 * np.trace(mat) / m_n * np.eye(m_n), schur_factor)
        corners = groups.corners(w_scale)

        mu = groups.ip(x, z) / n_tot

        wrw = [w @ rd @ w for w, rd in zip(w_scale, r_d)]

        def schur_solve(rhs):
            dy = cho_solve(factor, rhs)
            # one round of iterative refinement on the Schur system
            return dy + cho_solve(factor, rhs - mat @ dy)

        def direction(r_c):
            rhs = groups.apply_a([a - rc for a, rc in zip(wrw, r_c)], r_p)
            dy = groups.newton_solve(schur_solve, rhs, corners)
            dz = [rd - ad for rd, ad in zip(r_d, groups.apply_a_adjoint(dy))]
            dx = [hermitian_part(rc - w @ d @ w) for rc, w, d in zip(r_c, w_scale, dz)]
            dz = [hermitian_part(d) for d in dz]
            # project dx back onto A(dx) = r_p, killing residual drift
            lam = groups.newton_solve(lambda u: cho_solve(gram_factor, u),
                                      r_p - groups.apply_a(dx), gram_corners)
            dx = [hermitian_part(d + c) for d, c in zip(dx, groups.apply_a_adjoint(lam))]
            return dx, dy, dz

        def steps(*cands):
            """(primal, dual) step of each candidate (dx, dz), from one stacked
            eigvalsh per group for all of them."""
            lows = [_b_step_lows(isq, [d[g] for dx_c, dz_c in cands for d in (dx_c, dz_c)])
                    for g, isq in enumerate(zip(x_isq, z_isq))]
            return [min(1.0, step_frac * a) for a in _b_max_steps(lows)]

        # predictor
        dx_a, dy_a, dz_a = direction([-xg for xg in x])
        ap, ad = steps((dx_a, dz_a))
        mu_aff = groups.ip([xg + ap * d for xg, d in zip(x, dx_a)],
                           [zg + ad * d for zg, d in zip(z, dz_a)]) / n_tot
        mu_aff = max(mu_aff, 0.0)
        sigma = min(1.0, max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8))

        # corrector with centering; the Mehrotra second-order term is kept
        # only when it does not shrink the step
        nu = sigma * mu
        r_c_plain = [nu * zi - xg for zi, xg in zip(z_inv, x)]
        r_c_so = [rc - hermitian_part(dxa @ dza @ zi)
                  for rc, dxa, dza, zi in zip(r_c_plain, dx_a, dz_a, z_inv)]
        dx, dy, dz = direction(r_c_so)
        dx_p, dy_p, dz_p = direction(r_c_plain)
        ap, ad, ap_p, ad_p = steps((dx, dz), (dx_p, dz_p))
        if ap_p + ad_p > ap + ad:
            dx, dy, dz, ap, ad = dx_p, dy_p, dz_p, ap_p, ad_p
        if ap < 1e-12 and ad < 1e-12:
            break
        ap, ad = _b_back_off_pair(x, dx, ap, z, dz, ad)
        x = [hermitian_part(xg + ap * d) for xg, d in zip(x, dx)]
        z = [hermitian_part(zg + ad * d) for zg, d in zip(z, dz)]
        y = y + ad * dy

    if best is not None:
        # fall back to the best recorded iterate if later steps degraded it
        x, y, z = best
    pobj, dobj = objective()
    gap = pobj - dobj
    pinf, dinf = infeasibility(*residuals())
    optimal = pinf <= 1e-8 and dinf <= 1e-8 and abs(gap) <= gap_tol(pobj)
    return SdpSolution(groups.gather(x), y * c_scale / row_scale, pobj, dobj, gap,
                       SdpStatus.OPTIMAL if optimal else SdpStatus.MAX_ITER, it,
                       pinf, dinf,
                       {s: t.kernel for s, t in zip(groups.sizes, groups.terms)})
