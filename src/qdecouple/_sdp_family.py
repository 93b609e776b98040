"""The family term of ``sdp.solve``: a block group's constraint families
served from the Nesterov-Todd scaling matrix W alone.

A family (``sdp.Family``) is d^2 constraints sum_k T_k(h_i) over the matrices
h_i of ``herm_matrices(d)``, each T_k an embedded sub-block, I (x) h or
-tr_A h.  The family term forms their part of the Schur complement, the
constraint map, its adjoint and the Gram matrix without storing a constraint
matrix.  ``sdp`` imports this module only when a program has families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from qdecouple.linalg import herm_combination, herm_coords, herm_pairs, read_only
from qdecouple.sdp import SdpProblem


# The family term serves a group's constraint families from W alone.  Its
# gathers and elementwise products take about FAMILY_SCHUR_GAIN times as long
# per multiply-add as the dense sandwich's BLAS calls; its Python-level calls
# cost about FAMILY_SCHUR_FIXED dense multiply-adds an iteration, plus
# FAMILY_SCHUR_CALLS for each family map and each pair of maps on a block
# (measured on one core), so small programs keep the dense sandwich.
FAMILY_SCHUR_GAIN = 8
FAMILY_SCHUR_FIXED = 1 << 16
FAMILY_SCHUR_CALLS = 1 << 18


@dataclass
class Piece:
    """One family's map on one block of a group: row i of the family is
    w_i g_src_i (g = h, src = None, or the trace-out table) placed as the s x s
    diagonal sub-block at every offset of block c; w is coef / row scale."""

    c: int
    rows: slice | np.ndarray
    s: int
    offsets: tuple[int, ...]
    src: np.ndarray | None
    w: np.ndarray

    def restrict(self, g: np.ndarray) -> np.ndarray:
        """The adjoint map: sum over offsets of the s x s diagonal sub-blocks."""
        s, (o, *rest) = self.s, self.offsets
        out = g[..., o:o + s, o:o + s]
        for o in rest:
            out = out + g[..., o:o + s, o:o + s]
        return out

    def values(self, coords: np.ndarray) -> np.ndarray:
        """Row values from ``herm_matrices(s)`` coordinates on the last axis."""
        return (coords if self.src is None else coords[..., self.src]) * self.w


@functools.lru_cache(maxsize=None)
def upper_pairs(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Every a <= b: the diagonal pairs first, then the pair order of
    ``herm_matrices(s)``."""
    diag = np.arange(s)
    a, b = herm_pairs(s)
    return read_only(np.concatenate([diag, a]), np.concatenate([diag, b]))


def pair_block(w: np.ndarray, f: Piece, g: Piece) -> np.ndarray:
    """Re tr(g_i X g_j X^H) summed over the sub-blocks X = W[o_f, o_g] of
    every offset pair, for g_i of ``herm_matrices(f.s)`` and g_j of
    ``herm_matrices(g.s)``: an (f.s^2, g.s^2) real matrix.

    With P_ab[c, e] = sum_X conj(X[a, c]) X[b, e] (row products for one
    sub-block, else a Gram matrix), X^H g_i X is P_aa for a diagonal unit,
    r (P_ab + P_ab^H) for a symmetric and i r (P_ab - P_ab^H) for an
    antisymmetric g_i, so each entry is a real or imaginary part of
    tr(g_j P_ab), r = 2^(-1/2).  Only P_ab[c, c], P_ab[c, e] and P_ab[e, c]
    for a <= b and c < e are formed.
    """
    sf, sg = f.s, g.s
    aa, bb = upper_pairs(sf)
    c, e = herm_pairs(sg)
    blocks = [w[of:of + sf, og:og + sg] for of in f.offsets for og in g.offsets]
    if len(blocks) == 1:
        xa, xb = blocks[0][aa], blocks[0][bb]
        xa_c, xb_c = xa.conj(), xb.conj()
        # P_ab[c, c], P_ab[c, e] and conj(P_ab[e, c])
        gd, gu, gl_c = xa_c * xb, xa_c[:, c] * xb[:, e], xa[:, e] * xb_c[:, c]
    else:
        x = np.stack(blocks).reshape(len(blocks), sf * sg)
        p = (x.conj().T @ x).reshape(sf, sg, sf, sg)[aa, :, bb, :]
        gd, gu, gl_c = np.diagonal(p, axis1=1, axis2=2), p[:, c, e], p[:, e, c].conj()
    r, q = 1.0 / np.sqrt(2.0), np.sqrt(2.0)
    out = np.empty((sf * sf, sg * sg))
    # rows: the diagonal units, then (symmetric, antisymmetric) per pair a < b;
    # columns likewise.  The real view of the complex numbers
    # tr(g_sym P) = r (P[c, e] + P[e, c]) and i times them, taken per column
    # pair c < e, fills the (symmetric, antisymmetric) columns of each row.
    pairs = out[:, sg:].view(complex)
    np.add(gu[:sf], gl_c[:sf], out=pairs[:sf])
    pairs[:sf] *= r
    np.add(gu[sf:], gl_c[sf:], out=pairs[sf::2])
    np.subtract(gu[sf:], gl_c[sf:], out=pairs[sf + 1::2])
    pairs[sf + 1::2] *= 1j
    out[:sf, :sg] = gd.real[:sf]
    np.multiply(gd.real[sf:], q, out=out[sf::2, :sg])
    np.multiply(gd.imag[sf:], -q, out=out[sf + 1::2, :sg])
    return out


class FamilyTerm:
    """A group's constraint map, adjoint, Schur term and Gram matrix from its
    constraint families and W alone, with no constraint matrix stored.

    Between two families on one block the Schur block is
    M_ij = Re tr(g_i X g_j X^H) over sub-blocks X of W (``pair_block``), the
    trace-out rows gathered from it with their signs.  The few explicit rows
    on the group keep a dense (E, count, n, n) stack: their cross terms with
    a family are its coordinates of the restricted W A_e W.
    """

    kernel = "family"

    def __init__(self, m: int, count: int, n: int, pieces: list[Piece],
                 rows: np.ndarray, a: np.ndarray):
        self.m, self.count, self.n = m, count, n
        self.pieces = pieces
        self.rows, self.a = rows, a  # explicit rows touching the group, scaled
        self.a_flat = a.reshape(len(rows), count * n * n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.m)
        for p in self.pieces:
            out[p.rows] += p.values(herm_coords(p.restrict(x[p.c])))
        if len(self.rows):
            out[self.rows] += (self.a_flat @ x.conj().reshape(-1)).real
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.count, self.n, self.n), dtype=complex)
        for p in self.pieces:
            u = y[p.rows] * p.w
            if p.src is not None:
                u = np.bincount(p.src, u, minlength=p.s * p.s)
            h = herm_combination(u)
            for o in p.offsets:
                out[p.c, o:o + p.s, o:o + p.s] += h
        if len(self.rows):
            out += (y[self.rows] @ self.a_flat).reshape(out.shape)
        return out

    def gram(self) -> np.ndarray:
        return self.schur(np.broadcast_to(np.eye(self.n, dtype=complex),
                                          (self.count, self.n, self.n)))

    def schur(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros((self.m, self.m))
        for i, f in enumerate(self.pieces):
            for g in self.pieces[i:]:
                if g.c != f.c:
                    continue
                blk = pair_block(w[f.c], f, g)
                if f.src is not None:
                    blk = blk[f.src]
                if g.src is not None:
                    blk = blk[:, g.src]
                blk *= f.w[:, None]
                blk *= g.w
                out[block_index(f.rows, g.rows)] += blk
                if g is not f:
                    out[block_index(g.rows, f.rows)] += blk.T
        if len(self.rows):
            wb = w[None]
            t = np.matmul(np.matmul(wb, self.a), wb)
            out[np.ix_(self.rows, self.rows)] += (
                self.a_flat @ t.reshape(len(self.rows), -1).conj().T).real
            for p in self.pieces:
                v = p.values(herm_coords(p.restrict(t[:, p.c])))
                out[block_index(self.rows, p.rows)] += v
                out[block_index(p.rows, self.rows)] += v.T
        return out


def block_index(rows: slice | np.ndarray, cols: slice | np.ndarray) -> tuple:
    """Index of the (rows, cols) block of a matrix, rows and cols each a
    slice or an index array."""
    if isinstance(rows, slice) and isinstance(cols, slice):
        return rows, cols
    return np.ix_(*(np.arange(r.start, r.stop) if isinstance(r, slice) else r
                    for r in (rows, cols)))


def family_cost(term: FamilyTerm) -> int:
    """Cost per iteration of a family term in dense multiply-adds: per pair
    of maps on one block the products P ((P + 1) (s_f s_g)^2 for P offset
    pairs) and the weighted rows, the explicit rows' sandwich and cross terms,
    each weighted by FAMILY_SCHUR_GAIN, plus the call costs."""
    pieces, num_e, count, n = term.pieces, len(term.rows), term.count, term.n
    ops = num_e * count * (2 * n ** 3 + num_e * n * n) + num_e * sum(p.s ** 2 for p in pieces)
    calls = len(pieces)
    for i, f in enumerate(pieces):
        for g in pieces[i:]:
            if g.c == f.c:
                pairs = len(f.offsets) * len(g.offsets)
                ops += (pairs + 1) * (f.s * g.s) ** 2 + len(f.w) * len(g.w)
                calls += 1
    return FAMILY_SCHUR_GAIN * ops + FAMILY_SCHUR_FIXED + FAMILY_SCHUR_CALLS * calls


def family_term(problem: SdpProblem, idx: list[int], row_scale: np.ndarray) -> FamilyTerm:
    """The family term of the group of blocks ``idx``: its families' maps on
    those blocks and the explicit rows that touch them, rows divided by
    ``row_scale``."""
    count, n = len(idx), problem.block_dims[idx[0]]
    pieces = []
    for fam in problem.families:
        for k, fmap in fam.maps:
            if k not in idx:
                continue
            s, offsets = fmap.base(fam.d)
            rows, src, coef = fam.rows, None, 1.0
            if fmap.base_rows(fam.d) is not None:
                # trace-out rows: only those with coef != 0 touch the block
                src, coef = fmap.base_rows(fam.d)
                keep = np.flatnonzero(coef)
                rows, src, coef = fam.start + keep, src[keep], coef[keep]
            pieces.append(Piece(idx.index(k), rows, s, offsets, src, coef / row_scale[rows]))
    a = np.stack([problem.explicit_blocks[k] for k in idx], axis=1)
    touch = np.flatnonzero(a.reshape(len(a), count * n * n).any(axis=1))
    rows = problem.explicit_index[touch]
    return FamilyTerm(problem.num_constraints, count, n, pieces, rows,
                       a[touch] / row_scale[rows, None, None, None])


def takes_family(problem: SdpProblem, idx: list[int]) -> bool:
    """Whether the group of blocks ``idx`` takes the family term: in a program
    with constraint families, where it costs less than the dense sandwich
    over all rows (W A_i W for every row and block, then the m x m
    contraction).  The choice depends on shapes alone."""
    if not problem.families:
        return False
    m, count, n = problem.num_constraints, len(idx), problem.block_dims[idx[0]]
    term = family_term(problem, idx, np.ones(m))
    return count * (2 * m * n ** 3 + m * m * n * n) >= family_cost(term)
