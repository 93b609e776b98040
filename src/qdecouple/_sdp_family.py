"""The family term of ``sdp.solve``: a block group's constraint families
served from the Nesterov-Todd scaling matrix W alone.

A family (``sdp.Family``) is d^2 constraints sum_k T_k(h_i) over the matrices
h_i of ``herm_basis(d)``, each T_k a placement (``sdp.FamilyMap.placement``):
h at one or several offsets, or -tr_A h gathered from a table.  The family
term forms their part of the Schur complement, the constraint map, its
adjoint and the Gram matrix without storing a constraint matrix.  ``sdp``
imports this module only when a program has families.

A fixed-corner family, whose only map places h at one offset of one block of a
group that takes the family term, leaves the Newton system by block
elimination (Boyd-Vandenberghe, *Convex Optimization*, App. C.4): its Schur
block h -> W_DD h W_DD on the corner D has the inverse h -> W_DD^-1 h W_DD^-1,
so only the other rows are factored (``Corners``).
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
    """One family's map on one block of a group, from its placement: row i of
    the family is w_i g_src_i (g = h, src = None, or the trace-out table)
    placed as the s x s diagonal sub-block at every offset of block c; w is
    coef / row scale."""

    c: int
    rows: slice | np.ndarray
    s: int
    offsets: tuple[int, ...]
    src: np.ndarray | None
    w: np.ndarray
    srows: slice | np.ndarray  # the rows in the Newton system

    def restrict(self, g: np.ndarray) -> np.ndarray:
        """The adjoint map: sum over offsets of the s x s diagonal sub-blocks."""
        s, (o, *rest) = self.s, self.offsets
        out = g[..., o:o + s, o:o + s]
        for o in rest:
            out = out + g[..., o:o + s, o:o + s]
        return out

    def values(self, coords: np.ndarray) -> np.ndarray:
        """Row values from ``herm_basis(s)`` coordinates on the last axis."""
        return (coords if self.src is None else coords[..., self.src]) * self.w


@functools.lru_cache(maxsize=None)
def upper_pairs(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Every a <= b: the diagonal pairs first, then the pair order of
    ``herm_basis(s)``."""
    diag = np.arange(s)
    a, b = herm_pairs(s)
    return read_only(np.concatenate([diag, a]), np.concatenate([diag, b]))


def pair_block(w: np.ndarray, f: Piece, g: Piece) -> np.ndarray:
    """Re tr(g_i X g_j X^H) summed over the sub-blocks X = W[o_f, o_g] of
    every offset pair, for g_i of ``herm_basis(f.s)`` and g_j of
    ``herm_basis(g.s)``: an (f.s^2, g.s^2) real matrix.

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
        # P_ab[c, c], P_ab[c, e] and conj(P_ab[e, c]); np.take gathers the
        # columns several times faster than fancy indexing does
        gd = xa_c * xb
        gu = np.take(xa_c, c, axis=1)
        gu *= np.take(xb, e, axis=1)
        gl_c = np.take(xa, e, axis=1)
        gl_c *= np.take(xb_c, c, axis=1)
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
    a family are its coordinates of the restricted W A_e W.  The Schur term
    and the Gram matrix cover the rows of the Newton system (``size`` of
    them); the maps of eliminated fixed corners (``corners``) enter them
    through ``Corners``.
    """

    kernel = "family"

    def __init__(self, m: int, size: int, count: int, n: int, maps: list[Piece],
                 rows: np.ndarray, srows: np.ndarray, a: np.ndarray):
        self.m, self.size, self.count, self.n = m, size, count, n
        self.maps = maps
        self.pieces = [p for p in maps if p.srows is not None]
        self.corners = [p for p in maps if p.srows is None]
        self.rows, self.a = rows, a  # explicit rows touching the group, scaled
        self.srows = srows
        self.a_flat = a.reshape(len(rows), count * n * n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.m)
        for p in self.maps:
            out[p.rows] += p.values(herm_coords(p.restrict(x[p.c])))
        if len(self.rows):
            out[self.rows] += (self.a_flat @ x.conj().reshape(-1)).real
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros((self.count, self.n, self.n), dtype=complex)
        for p in self.maps:
            u = y[p.rows] * p.w
            if p.src is not None:
                u = np.bincount(p.src, u, minlength=p.s * p.s)
            h = herm_combination(u)
            for o in p.offsets:
                out[p.c, o:o + p.s, o:o + p.s] += h
        if len(self.rows):
            out += (y[self.rows] @ self.a_flat).reshape(out.shape)
        return out

    def eliminate(self, w: np.ndarray) -> Corners:
        return Corners(self, w)

    def gram(self) -> np.ndarray:
        return self.schur(np.broadcast_to(np.eye(self.n, dtype=complex),
                                          (self.count, self.n, self.n)),
                          np.zeros((self.size, self.size)))

    def schur(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        self._add_schur(w, self.pieces, out, 1.0)
        if self.corners:
            # minus the eliminated corners' share M_RF M_FF^-1 M_FR: the same
            # sum at P = W[:, D] W_DD^-1 W[D, :] on each corner's block
            on = {p.c for p in self.corners}
            self._add_schur(Corners(self, w).p, [p for p in self.pieces if p.c in on],
                            out, -1.0)
        return out

    def _add_schur(self, w: np.ndarray, pieces: list[Piece], out: np.ndarray,
                   sign: float) -> None:
        """sign times the Schur term of ``pieces`` and the explicit rows at w,
        added to ``out``."""
        for i, f in enumerate(pieces):
            for g in pieces[i:]:
                if g.c != f.c:
                    continue
                blk = pair_block(w[f.c], f, g)
                if f.src is not None:
                    blk = blk[f.src]
                if g.src is not None:
                    blk = blk[:, g.src]
                blk *= sign * f.w[:, None]
                blk *= g.w
                out[block_index(f.srows, g.srows)] += blk
                if g is not f:
                    out[block_index(g.srows, f.srows)] += blk.T
        if len(self.rows):
            wb = w[None]
            t = np.matmul(np.matmul(wb, self.a), wb)
            out[np.ix_(self.srows, self.srows)] += sign * (
                self.a_flat @ t.reshape(len(self.rows), -1).conj().T).real
            for p in pieces:
                v = sign * p.values(herm_coords(p.restrict(t[:, p.c])))
                out[block_index(self.srows, p.srows)] += v
                out[block_index(p.srows, self.srows)] += v.T


class Corners:
    """A family term's fixed corners at one scaling W, eliminated from the
    Newton system M dy = u by block elimination.

    A fixed corner's row i is w_i h_i placed at the corner D of its block, so
    M_FF = diag(w) K diag(w) with K: h -> W_DD h W_DD, whose inverse is
    h -> W_DD^-1 h W_DD^-1.  With G = W[:, D] W_DD^-1 and the other rows R:
    M_RF M_FF^-1 M_FR is the term at P = G W_DD G^H (``p``), subtracted in
    ``FamilyTerm.schur``; M_RF M_FF^-1 u_F is A_R(G H G^H) for
    H = herm_combination(u_F / w) (``reduce``); and dy_F = M_FF^-1 (u_F -
    M_FR dy_R) is the coordinates of W_DD^-1 H W_DD^-1 - G^H A_R*(dy_R) G
    over w (``back``).
    """

    def __init__(self, term: FamilyTerm, w: np.ndarray):
        self.term = term
        self.p = np.zeros((term.count, term.n, term.n), dtype=complex)
        self.factors = []  # (corner, W_DD^-1, G^H = W_DD^-1 W[D, :])
        for f in term.corners:
            (o,), s, wc = f.offsets, f.s, w[f.c]
            inv = np.linalg.inv(wc[o:o + s, o:o + s])
            gh = inv @ wc[o:o + s]
            self.p[f.c] = wc[:, o:o + s] @ gh
            self.factors.append((f, inv, gh))

    def reduce(self, u: np.ndarray) -> np.ndarray:
        """M_RF M_FF^-1 u_F on the rows R, over the whole row range (its
        entries on the corner rows are not used)."""
        x = np.zeros_like(self.p)
        for f, _, gh in self.factors:
            x[f.c] = gh.conj().T @ herm_combination(u[f.rows] / f.w) @ gh
        return self.term.apply(x)

    def back(self, u: np.ndarray, dy: np.ndarray) -> None:
        """Fill in dy_F, given u and dy on every other row (0 on F)."""
        y = self.term.adjoint(dy)
        for f, inv, gh in self.factors:
            h = inv @ herm_combination(u[f.rows] / f.w) @ inv - gh @ y[f.c] @ gh.conj().T
            dy[f.rows] = herm_coords(h) / f.w


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


def newton_rows(problem: SdpProblem, blocks: list[int]) -> np.ndarray:
    """Each row's index in the Newton system, -1 for the rows of a fixed
    corner that leaves it: a family whose only map places h itself at one
    offset (lead 1, not trace-out) of one of ``blocks`` (those whose group
    takes the family term), the first such on each block.  A program of fixed
    corners alone keeps every row."""
    keep = np.ones(problem.num_constraints, dtype=bool)
    fixed = set()
    for fam in problem.families:
        if len(fam.maps) != 1:
            continue
        ((k, fmap),) = fam.maps
        _, offsets, src, _ = fmap.placement(fam.d)
        if len(offsets) == 1 and src is None and k in blocks and k not in fixed:
            fixed.add(k)
            keep[fam.rows] = False
    if not keep.any():
        keep[:] = True
    return np.where(keep, np.cumsum(keep) - 1, -1)


def family_term(problem: SdpProblem, idx: list[int], row_scale: np.ndarray,
                rows_in_newton: np.ndarray) -> FamilyTerm:
    """The family term of the group of blocks ``idx``: its families' maps on
    those blocks and the explicit rows that touch them, rows divided by
    ``row_scale``, numbered in the Newton system by ``rows_in_newton``
    (``newton_rows``)."""
    count, n = len(idx), problem.block_dims[idx[0]]
    pieces = []
    for fam in problem.families:
        for k, fmap in fam.maps:
            if k not in idx:
                continue
            s, offsets, src, coef = fmap.placement(fam.d)
            rows = fam.rows
            if src is not None:
                # gathered rows: only those with coef != 0 touch the block
                keep = np.flatnonzero(coef)
                rows, src, coef = fam.start + keep, src[keep], coef[keep]
            if isinstance(rows, slice):
                start = rows_in_newton[rows.start]
                srows = None if start < 0 else slice(start, start + rows.stop - rows.start)
            else:
                srows = rows_in_newton[rows]
            pieces.append(Piece(idx.index(k), rows, s, offsets, src, coef / row_scale[rows],
                                srows))
    a = np.stack([problem.explicit_blocks[k] for k in idx], axis=1)
    touch = np.flatnonzero(a.reshape(len(a), count * n * n).any(axis=1))
    rows = problem.explicit_index[touch]
    return FamilyTerm(problem.num_constraints, int((rows_in_newton >= 0).sum()), count, n,
                      pieces, rows, rows_in_newton[rows],
                      a[touch] / row_scale[rows, None, None, None])


def takes_family(problem: SdpProblem, idx: list[int]) -> bool:
    """Whether the group of blocks ``idx`` takes the family term: in a program
    with constraint families, where it costs less than the dense sandwich
    over all rows (W A_i W for every row and block, then the m x m
    contraction).  The choice depends on shapes alone."""
    if not problem.families:
        return False
    m, count, n = problem.num_constraints, len(idx), problem.block_dims[idx[0]]
    term = family_term(problem, idx, np.ones(m), np.arange(m))
    return count * (2 * m * n ** 3 + m * m * n * n) >= family_cost(term)
