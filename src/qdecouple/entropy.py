"""Exact and smooth conditional entropies of finite-dimensional states.

Min-entropy and its smoothed variant are computed by the embedded SDP solver,
except that states diagonal in the product basis take a closed form and
smooth through the exact Lagrange dual of their reduced program, with no SDP,
and that a pure (or near-pure) state takes H_min(A|B) = -2 log2 tr sqrt(rho_A)
in closed form, its witness S sqrt(rho_B) + t I_B with S = tr sqrt(rho_A)
and t the trace norm of the rest of the spectrum.  A conditional
max-entropy, smooth or not, is minus the min-entropy of a purification
(duality), one certified program per query.  Collision entropy has a closed
form at the reduced conditioning state, a lower bound on its supremum over
conditioning operators.

All logarithms are base 2; values are reported in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qdecouple import sdp
from qdecouple.linalg import (
    Dims,
    StateOperator,
    hermitian_part,
    herm_combination,
    herm_coords,
    partial_trace,
    psd_power,
    pure_marginal,
    purify,
    sqrt_psd,
    support_projector,
    trace_out_leading,
)

# A solved entropy program is accepted when the primal/dual sandwich pins the
# value to this many bits, regardless of the raw solver status.
CERT_LIMIT_BITS = 1e-6
DIAG_TOL = 1e-13
# a smoothing input whose trace falls short of one by more than this is
# subnormalized: its missing weight enters the fidelity and trace rows
MISSING_WEIGHT_TOL = 1e-9


class EntropyError(RuntimeError):
    """Entropy computation failed or could not be certified."""


def _check_query(state: StateOperator, target: Sequence[str],
                 condition: Sequence[str], epsilon: float) -> None:
    """Raise ValueError unless the query's labels and epsilon are valid."""
    t, c = set(target), set(condition)
    if not t:
        raise ValueError("target label set is empty")
    if t & c:
        raise ValueError(f"target and condition overlap: {sorted(t & c)}")
    unknown = (t | c) - set(state.labels)
    if unknown:
        raise ValueError(f"labels {sorted(unknown)} not in state {state.labels}")
    if not (0.0 <= epsilon < 1.0):
        raise ValueError(f"epsilon {epsilon} outside [0, 1)")


@dataclass
class EntropyResult:
    value: float
    optimizer_sigma: StateOperator | None = None
    smoothed_state: StateOperator | None = None
    certificate_gap: float = 0.0


def _prepare(state: StateOperator, target: Sequence[str], condition: Sequence[str],
             epsilon: float) -> tuple[np.ndarray, int, int, Dims, Dims]:
    """Check the query, trace out spectator labels and order the matrix as
    (target, condition)."""
    _check_query(state, target, condition, epsilon)
    rel = list(target) + list(condition)
    reduced = state if set(rel) == set(state.labels) else partial_trace(state, rel)
    reduced = reduced.permute(rel)
    tdims = reduced.dims.subset(set(target))
    cdims = reduced.dims.subset(set(condition)) if condition else Dims(())
    return reduced.matrix, tdims.total, max(cdims.total, 1), tdims, cdims


def _sandwich(sol: sdp.SdpSolution, flip: bool) -> tuple[float, float]:
    lo, hi = sorted((sol.primal_obj, sol.dual_obj))
    return (-hi, -lo) if flip else (lo, hi)


def _cert_gap_tol(primal_obj: float) -> float:
    """The solver's default gap tolerance, tightened where it would leave the
    sandwich wider than a fraction 0.4 of CERT_LIMIT_BITS."""
    return min(sdp.default_gap_tol(primal_obj),
               0.4 * CERT_LIMIT_BITS * math.log(2.0) * abs(primal_obj))


def _certified_solve(problem: sdp.SdpProblem, what: str, start: sdp.Start | None,
                     flip: bool = False) -> tuple[float, float, sdp.SdpSolution]:
    """Solve and certify the optimum to within CERT_LIMIT_BITS.

    ``flip`` negates the sandwich for programs whose meaningful objective is
    the negative of the minimization objective.  One solve stops at the gap
    ``_cert_gap_tol`` allows, within 400 iterations.  Only if its sandwich is
    still wider than CERT_LIMIT_BITS does a fallback solve run with a
    smaller Schur regularization and shorter steps (``reg`` 1e-14,
    ``step_frac`` 0.93, 600 iterations), which near-pure states need; the
    narrower of the two sandwiches is kept.  Both solves take ``start``: a
    strictly feasible (x, y, z), as ``_hmin_sdp`` and ``_smooth_hmin_dense``
    above its epsilon gate pass, keeps every iterate feasible, so the
    sandwich brackets the optimum; with None, both start in infeasible mode.
    """
    sol = sdp.solve(problem, start=start, gap_tol=_cert_gap_tol, max_iterations=400)
    lo, hi = _sandwich(sol, flip)
    if hi > 0 and math.log2(hi / max(lo, 1e-300)) > CERT_LIMIT_BITS:
        cand = sdp.solve(problem, start=start, gap_tol=_cert_gap_tol, max_iterations=600,
                         reg=1e-14, step_frac=0.93)
        c_lo, c_hi = _sandwich(cand, flip)
        if c_hi > 0 and c_hi - c_lo < hi - lo:
            sol, lo, hi = cand, c_lo, c_hi
    if hi <= 0:
        raise EntropyError(f"{what}: solver reported {sol.status.value}")
    lo = max(lo, 1e-300)
    width = math.log2(hi / lo)
    if sol.primal_infeas > 1e-7 or sol.dual_infeas > 1e-7 or width > CERT_LIMIT_BITS:
        raise EntropyError(
            f"{what}: not certified (status {sol.status.value}, "
            f"width {width:.2e} bits, pinf {sol.primal_infeas:.2e}, "
            f"dinf {sol.dual_infeas:.2e})")
    return (lo + hi) / 2, width, sol


def _clip_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(m))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def _clip_diag(m: np.ndarray) -> np.ndarray:
    """``_clip_psd`` of a diagonal matrix, with no eigendecomposition: the
    same bits, its eigenvalues being the real diagonal."""
    return np.diag(np.clip(np.diag(m).real, 0.0, None)).astype(complex)


# ---------------------------------------------------------------------------
# von Neumann entropy
# ---------------------------------------------------------------------------

def _spectral_entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(hermitian_part(m))
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def von_neumann(state: StateOperator, target: Sequence[str],
                condition: Sequence[str] = ()) -> float:
    """H(target | condition) = H(target, condition) - H(condition), in bits."""
    if not state.is_normalized:
        raise EntropyError(f"von Neumann entropy needs a normalized state, trace {state.trace}")
    rho, d_a, d_b, _, _ = _prepare(state, target, condition, 0.0)
    h_joint = _spectral_entropy(rho)
    if not condition:
        return h_joint
    return h_joint - _spectral_entropy(trace_out_leading(rho, d_a))


# ---------------------------------------------------------------------------
# min-entropy
# ---------------------------------------------------------------------------

def _hmin_sdp(rho: np.ndarray, d_a: int, d_b: int) -> tuple[float, np.ndarray, float]:
    """Conditional min-entropy via max tr(rho Y) s.t. tr_A Y = I_B, Y >= 0.

    Returns (value_bits, sigma_prime, width_bits); sigma_prime is the dual
    witness with I (x) sigma' >= rho and tr sigma' = 2^(-value).  The
    constraints tr((I (x) g) Y) = tr g run over ``herm_matrices(d_b)``.
    """
    build = sdp.ProblemBuilder()
    blk = build.add_block(d_a * d_b, -rho)
    eye_b = np.eye(d_b, dtype=complex)
    build.add_family(d_b, {blk: sdp.kron_eye(d_a)}, herm_coords(eye_b))
    problem = build.build()
    # both sides strictly feasible: Y = I/d_a,  sigma' = (||rho|| + 1) I
    lam = float(np.abs(np.linalg.eigvalsh(hermitian_part(rho))).max(initial=0.0)) + 1.0
    sigma0 = lam * eye_b
    start = ([np.eye(d_a * d_b, dtype=complex) / d_a], -herm_coords(sigma0),
             [-rho + np.kron(np.eye(d_a), sigma0)])
    # minimization of tr(-rho Y): optimum of tr(sigma') lies in [-p, -d]
    mid, width, sol = _certified_solve(problem, "min-entropy SDP", start, flip=True)
    sigma_prime = hermitian_part(-herm_combination(sol.y))
    return -math.log2(mid), sigma_prime, width


def _hmin_diag(rho: np.ndarray, d_a: int, d_b: int) -> tuple[float, np.ndarray, float]:
    """Conditional min-entropy of a state diagonal in the product basis, in
    closed form: (value_bits, sigma_prime, width_bits) as ``_hmin_sdp``.

    Y = sum_b |a*(b)><a*(b)| (x) |b><b|, a*(b) the heaviest cell of column b,
    is feasible and gives lambda >= S = sum_b max_a p_ab.  With delta the
    largest off-diagonal magnitude, I (x) sigma' >= rho for sigma'_b =
    max_a p_ab + d delta (Gershgorin, d = d_a d_b), so lambda <= S + d_b d
    delta; the value is -log2 of the midpoint and the width the log2 ratio.
    """
    p = np.real(np.diag(rho)).reshape(d_a, d_b)
    top = p.max(axis=0)
    lo = float(top.sum())
    if lo <= 0:
        raise EntropyError("min-entropy of a zero operator")
    delta = float(np.abs(rho - np.diag(np.diag(rho))).max(initial=0.0))
    hi = lo + d_b * d_a * d_b * delta
    return -math.log2((lo + hi) / 2), np.diag(top).astype(complex), math.log2(hi / lo)


def _hmin_pure(rho: np.ndarray, d_a: int, d_b: int
               ) -> tuple[float, np.ndarray, float] | None:
    """Conditional min-entropy of a near-pure state in closed form, as
    ``_hmin_sdp``, or None where the sandwich is wider than CERT_LIMIT_BITS,
    as it is for every mixed input.

    With w, v the top eigenpair of rho and S the sum of the singular values
    of M = sqrt(w) v as a d_A x d_B matrix, the pure part has lambda = S^2
    (H_min(A|B) = -2 log2 tr sqrt(rho_A)) and witness S sqrt(rho_B), rho_B =
    M^T conj(M).  The rest of rho has trace norm t, so sigma' = S sqrt(rho_B)
    + t I_B is feasible for rho, of trace S^2 + d_B t.  Every feasible Y has
    ||Y|| <= d_A, as Y <= d_A I (x) tr_A Y, so the rest moves lambda by at
    most d_A t: the value is -log2 S^2, the midpoint of S^2 -+ d_A t, and
    the width their log2 ratio.
    """
    w, v = np.linalg.eigh(hermitian_part(rho))
    _, s, vh = np.linalg.svd(math.sqrt(max(float(w[-1]), 0.0)) * v[:, -1].reshape(d_a, d_b),
                             full_matrices=False)
    root, rest = float(s.sum()), float(np.abs(w[:-1]).sum())
    lam, spread = root * root, d_a * rest
    width = math.log2((lam + spread) / (lam - spread)) if lam > spread else math.inf
    if width > CERT_LIMIT_BITS:
        return None
    return -math.log2(lam), root * ((vh.T * s) @ vh.conj()) + rest * np.eye(d_b), width


def h_min(state: StateOperator, target: Sequence[str],
          condition: Sequence[str] = ()) -> EntropyResult:
    """Conditional min-entropy: ``h_min_smooth`` at epsilon 0, which picks
    the route."""
    return h_min_smooth(state, target, condition, 0.0)


# ---------------------------------------------------------------------------
# max-entropy
# ---------------------------------------------------------------------------

def h_max(state: StateOperator, target: Sequence[str],
          condition: Sequence[str] = ()) -> EntropyResult:
    """Conditional max-entropy: ``h_max_smooth`` at epsilon 0, which picks
    the route."""
    return h_max_smooth(state, target, condition, 0.0)


def _purified(state: StateOperator, target: Sequence[str], condition: Sequence[str]
              ) -> tuple[StateOperator, tuple[str, ...]]:
    """A state carrying target and a purifier of the (target, condition) state.

    A pure input with labels beyond target+condition serves as is, those
    labels being the purifier; otherwise the reduced state, normalized or
    not, is purified on a fresh label and its (target, purifier) marginal
    returned.
    """
    rel = set(target) | set(condition)
    spectators = tuple(lab for lab in state.labels if lab not in rel)
    if spectators and _is_rank_one(state.matrix):
        return state, spectators
    joint = state if not spectators else partial_trace(state, rel)
    joint = joint.permute(list(target) + list(condition))
    c_label = "_pur"
    while c_label in joint.labels:
        c_label += "_"
    psi = purify(joint, c_label, require_normalized=False, cap=joint.dims.total ** 2)
    return pure_marginal(psi, list(target) + [c_label]), (c_label,)


def _is_rank_one(m: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(hermitian_part(m))
    return bool(w[:-1].max(initial=0.0) <= 1e-10 * max(float(w[-1]), 1e-30))


# ---------------------------------------------------------------------------
# collision entropy
# ---------------------------------------------------------------------------

def _h2_at_sigma(rho: np.ndarray, sigma: np.ndarray, d_a: int) -> float:
    d_b = sigma.shape[0]
    proj = support_projector(sigma)
    rho_b = trace_out_leading(rho, d_a)
    leak = float(np.trace(rho_b @ (np.eye(d_b) - proj)).real)
    if leak > 1e-9 * max(float(np.trace(rho_b).real), 1e-12):
        raise EntropyError("state has support outside the conditioning operator")
    # (I (x) S) rho (I (x) S) with S = sigma^(-1/4), block by block over A;
    # tr(T^2) of the Hermitian result is its squared Frobenius norm
    tilt = psd_power(sigma, -0.25)
    tilted = tilt @ rho.reshape(d_a, d_b, d_a, d_b).swapaxes(1, 2) @ tilt
    val = float(np.vdot(tilted, tilted).real)
    if val <= 0:
        raise EntropyError("collision entropy of a zero operator")
    return -math.log2(val)


def h2(state: StateOperator, target: Sequence[str],
       condition: Sequence[str] = ()) -> EntropyResult:
    """Collision entropy at sigma = the normalized reduced condition state.

    The value is a lower bound on the supremum over conditioning operators,
    which is all the decoupling bound needs.
    """
    rho, d_a, _, _, cdims = _prepare(state, target, condition, 0.0)
    if not condition:
        val = float(np.trace(rho @ rho).real)
        if val <= 0:
            raise EntropyError("collision entropy of a zero operator")
        return EntropyResult(-math.log2(val))
    rho_b = trace_out_leading(rho, d_a)
    sigma = rho_b / float(np.trace(rho_b).real)
    return EntropyResult(_h2_at_sigma(rho, sigma, d_a),
                         optimizer_sigma=StateOperator(cdims, sigma, validate=False))


# ---------------------------------------------------------------------------
# smooth entropies
# ---------------------------------------------------------------------------

def _is_product_diagonal(rho: np.ndarray) -> bool:
    off = rho - np.diag(np.diag(rho))
    return float(np.abs(off).max(initial=0.0)) <= DIAG_TOL * max(
        float(np.trace(rho).real), 1e-12)


# coefficients of p, Re x and q on a 2x2 fidelity block [[p, x], [x, q]]
_E11 = np.diag([1.0, 0.0]).astype(complex)
_E22 = np.diag([0.0, 1.0]).astype(complex)
_EX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)


def _close_smoothing(build: sdp.ProblemBuilder, fid: dict[int, np.ndarray],
                     trace_row: dict[int, np.ndarray], missing: float,
                     eps: float) -> None:
    """Close a smoothing program: fidelity - t = sqrt(1 - eps^2) and trace = 1.

    ``fid`` and ``trace_row`` hold the candidate's terms; the slack blocks
    are added last.  A subnormalized input (missing weight above
    ``MISSING_WEIGHT_TOL``) adds a 2x2 block [[missing, x], [x, q]] to both
    rows, making the fidelity the generalized one; a normalized input gets a
    trace slack w instead.
    """
    fid[build.add_block(1)] = -np.eye(1, dtype=complex)
    if missing > MISSING_WEIGHT_TOL:
        g_blk = build.add_block(2)
        build.add_constraint({g_blk: _E11}, missing)
        fid[g_blk] = _EX
        trace_row[g_blk] = _E22
    else:
        trace_row[build.add_block(1)] = np.eye(1, dtype=complex)
    build.add_constraint(fid, math.sqrt(1.0 - eps * eps))
    build.add_constraint(trace_row, 1.0)


class _DiagDual:
    """The Lagrange dual of the diagonal smoothing program, water-filled.

    For a trace multiplier mu >= 0, each column b spreads unit weight over
    nu_ab = max(0, sqrt(p_ab) / theta_b - mu), its level theta_b fixed by
    sum_a nu_ab = 1.  With A(mu) = sum p_ab / (mu + nu_ab) + m / mu, the
    dual bound is c^2 / A - mu, and its derivative in mu is T(mu) - 1 with
    T = (c / A)^2 (sum p_ab / (mu + nu_ab)^2 + m / mu^2), the trace of the
    primal point the multipliers give.
    """

    def __init__(self, p: np.ndarray, missing: float, eps: float):
        self.m, self.eps2 = missing, eps * eps
        self.c2 = 1.0 - self.eps2
        # 1 - tr p - m: about 0 for a subnormalized input, the
        # sub-threshold missing weight (or an excess trace) of a normalized one
        self.slack = 1.0 - float(p.sum()) - missing
        # over the k heaviest cells of each column: the sum of their sqrt p
        # and the weight of the other cells; an empty column reads 0
        ps = -np.sort(-p, axis=0)
        self.rs = np.sqrt(ps)
        self.k = np.arange(1, p.shape[0] + 1)[:, None]
        tail = np.cumsum(ps[::-1], axis=0)[::-1]
        self.prefix = np.stack([np.cumsum(self.rs, axis=0),
                                np.vstack([tail[1:], np.zeros_like(tail[:1])])])
        self.cols = np.arange(p.shape[1])

    def at(self, mu: float) -> tuple[float, float, float, float, np.ndarray]:
        """(T, dT/dmu, A, dual bound, theta) at trace multiplier mu."""
        n = (self.rs * (1.0 + self.k * mu) > mu * self.prefix[0]).sum(axis=0)
        s_k, rest = self.prefix[:, n - 1, self.cols]
        den = 1.0 + n * mu
        theta = s_k / den
        nth2 = n * theta * theta
        a, b = float(s_k @ theta), float(nth2.sum())
        db = -2.0 * float((n * nth2 / den).sum())
        if mu > 0:
            out = float(rest.sum()) + self.m
            a += out / mu
            b += out / mu ** 2
            db -= 2.0 * out / mu ** 3
        t = self.c2 * b / (a * a)
        return t, self.c2 * (db + 2.0 * b * b / a) / (a * a), a, self.c2 / a - mu, theta


def _smooth_hmin_diag(p: np.ndarray, d_a: int, d_b: int, eps: float
                      ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Smoothing program restricted to diagonal states, solved exactly
    through its Lagrange dual.

    Valid whenever the input is diagonal in the product basis: dephasing in
    that basis fixes the input, preserves feasibility of every constraint,
    and leaves the objective unchanged, so a diagonal optimizer exists.
    The program minimizes sum_b s_b over q >= 0 with s_b >= q_ab, the
    fidelity sum sqrt(p q) + sqrt(m (1 - sum q)) at least c = sqrt(1 -
    eps^2) and sum q <= 1, m the missing weight.  The trace multiplier
    mu* solves T(mu) = 1 (``_DiagDual``), by Newton steps in log mu kept
    inside a bracket; mu* = 0 when m = 0 and T(0) <= 1.  The primal point
    q = (c / A)^2 p / (mu + nu)^2 is checked by direct evaluation, a sliver
    of p mixed in where rounding leaves its fidelity short.  The value is
    the midpoint of sum s and the best dual bound, and the width their
    log2 ratio, which bounds the optimum.
    """
    # cells with zero input weight carry no fidelity and only cost trace
    # budget, so an optimizer supported on the nonzero cells always exists
    top, total = float(p.max(initial=0.0)), float(p.sum())
    if top <= 0:
        raise EntropyError("smoothing a zero operator")
    p = np.where(p > 1e-15 * top, p, 0.0)
    missing = 1.0 - total if 1.0 - total > MISSING_WEIGHT_TOL else 0.0
    dual = _DiagDual(p, missing, eps)
    if dual.eps2 <= dual.slack:
        raise EntropyError(f"diagonal smoothing: no state within epsilon {eps} "
                           f"of a trace-{total} input has trace at most 1")
    mu, best = 0.0, -math.inf
    if missing == 0.0:
        t, dt, a, best, theta = dual.at(0.0)
    if missing > 0.0 or t > 1.0:
        # the dual bound is at least 0 at mu*, and A >= (1 - slack) / (1 + mu)
        lo, hi = 0.0, dual.c2 / (dual.eps2 - dual.slack)
        mu, at_hi = hi, None
        for _ in range(200):
            t, dt, a, bound, theta = dual.at(mu)
            best = max(best, bound)
            if t > 1.0:
                lo = mu
            else:
                hi, at_hi = mu, (mu, a, theta)
            if abs(t - 1.0) <= 1e-15 or hi - lo <= 1e-15 * hi:
                break
            step = -math.log(t) * t / (mu * dt) if dt < 0 else math.nan
            mu = mu * math.exp(step) if abs(step) < 40 else math.nan
            if not lo < mu < hi:
                mu = math.sqrt(lo * hi) if lo > 0 else 1e-3 * hi
        if t > 1.0 + 1e-15 and at_hi:
            mu, a, theta = at_hi

    c = math.sqrt(dual.c2)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(p > 0, (c / a) ** 2 * p / np.maximum(mu, np.sqrt(p) / theta) ** 2,
                     0.0)
    q /= max(1.0, float(q.sum()))
    budget = dual.eps2 / (1.0 + c)

    def deficit(x: np.ndarray) -> float:
        """1 - fidelity, summed as squares so that rounding stays relative."""
        rest = 1.0 - float(x.sum())
        tail = ((math.sqrt(missing) - math.sqrt(max(rest, 0.0))) ** 2 if missing > 0
                else rest)
        return (float(((np.sqrt(p) - np.sqrt(x)) ** 2).sum()) + dual.slack + tail) / 2

    short = deficit(q)
    if short > budget:
        # the fidelity is concave in q, so mixing in the input (its trace
        # capped at 1) closes the gap, up to rounding: double the share
        # until the evaluated deficit fits
        anchor = p / max(1.0, total)
        frac = min(1.0, (short - budget) / max(short - deficit(anchor), 1e-300)) / 2
        mixed = q
        while deficit(mixed) > budget and frac < 1.0:
            frac = min(1.0, 2.0 * frac)
            mixed = (1.0 - frac) * q + frac * anchor
        if deficit(mixed) > budget:
            raise EntropyError("diagonal smoothing: no feasible point at the dual optimum")
        q = mixed
    s = q.max(axis=0)
    lo, hi = sorted((best, float(s.sum())))
    width = math.log2(hi / lo) if lo > 0 else math.inf
    if width > CERT_LIMIT_BITS:
        raise EntropyError(f"diagonal smoothing: not certified (width {width:.2e} bits)")
    return -math.log2((lo + hi) / 2), q, s, width


def _support_factor(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isometry R onto supp(rho) and the full-rank compression D = R^H rho R."""
    w, v = np.linalg.eigh(hermitian_part(rho))
    top = max(float(w[-1]), 0.0)
    keep = w > 1e-12 * max(top, 1e-30)
    r = v[:, keep]
    return r, np.diag(w[keep]).astype(complex)


def _fidelity_embedding(rho: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Support-compressed PSD block embedding of the fidelity with rho.

    The embedding block is V = [[D, Y], [Y^H, X]] of size r + d, with the
    fixed corner D = R^H rho R compressed onto supp(rho) (rank r) so the
    programs keep a strictly feasible interior even for rank-deficient
    states.  Returns the support factor (R, D) of ``_support_factor``, the
    matrix Gamma with tr(Gamma V) = Re tr(R Y), and the right-hand sides of
    the family that fixes the D corner (the coordinates of D in
    ``herm_matrices(r)``, embedded at offset 0).
    """
    d = rho.shape[0]
    r_iso, d_mat = _support_factor(rho)
    r = r_iso.shape[1]
    gam = np.zeros((r + d, r + d), dtype=complex)
    gam[:r, r:] = r_iso.conj().T / 2
    gam[r:, :r] = r_iso / 2
    return r_iso, d_mat, gam, herm_coords(d_mat)


def _smoothing_start(rho: np.ndarray, r_iso: np.ndarray, d_mat: np.ndarray, d_a: int,
                     missing: float, eps: float) -> sdp.Start:
    """A strictly feasible primal-dual start (x, y, z) of the dense smoothing
    program, as ``sdp.solve`` takes it, in closed form from rho's support
    factor (R, D).

    With c0 = sqrt(1 - eps^2), c = (1 + c0) / 2 and b = (1 - c^2) / 4, the
    candidate is rho_hat = (1 - b)((1 - b) rho + b tr(rho) I / d), coupled
    to the corner by Y = c D R^H, so V = [[D, Y], [Y^H, rho_hat]] is
    positive definite (its Schur complement is rho_hat - c^2 rho) and the
    fidelity c tr(D) + c m exceeds c0 by the slack t.  sigma' = 1.5
    lambda_max(rho_hat) I, and the trace slack is 1 - tr(rho_hat), or for a
    subnormalized input (missing weight m) the block [[m, c m], [c m, 1 -
    tr(rho_hat)]].  The dual multipliers are -1 on the corner rows, -1/(2
    d_A) on the linking rows, +1 on the fidelity row and -1 on the trace
    and missing-weight rows, which leaves Z = C - A*(y) positive definite:
    [[I, -R^H/2], [-R/2, (1 + 1/(2 d_A)) I]] on V, I/(2 d_A) on the
    slack, I/2 on sigma' and 1 on the fidelity and trace slacks.
    """
    d, r = rho.shape[0], r_iso.shape[1]
    c0 = math.sqrt(1.0 - eps * eps)
    c = (1.0 + c0) / 2
    b = (1.0 - c * c) / 4
    lam = np.real(np.diag(d_mat))
    tr = float(lam.sum())
    rho_hat = (1.0 - b) * ((1.0 - b) * rho + (b * tr / d) * np.eye(d))
    y_blk = c * (d_mat @ r_iso.conj().T)
    top = 1.5 * (1.0 - b) * ((1.0 - b) * float(lam.max()) + b * tr / d)
    tr_hat = float(np.trace(rho_hat).real)
    if missing > MISSING_WEIGHT_TOL:
        x_tail = [[c * (tr + missing) - c0]], [[missing, c * missing],
                                               [c * missing, 1.0 - tr_hat]]
        y_tail, z_tail = [-1.0, 1.0, -1.0], [[1.0, -0.5], [-0.5, 1.0]]
    else:
        x_tail = [[c * tr - c0]], [[1.0 - tr_hat]]
        y_tail, z_tail = [1.0, -1.0], [[1.0]]
    x0 = [np.block([[d_mat, y_blk], [y_blk.conj().T, rho_hat]]),
          top * np.eye(d) - rho_hat, top * np.eye(d // d_a)]
    x0 += [np.array(t, dtype=complex) for t in x_tail]

    y0 = np.concatenate([herm_coords(-np.eye(r, dtype=complex)),
                         herm_coords(np.eye(d, dtype=complex) / (-2.0 * d_a)), y_tail])
    z_v = np.eye(r + d, dtype=complex)
    z_v[r:, r:] *= 1.0 + 1.0 / (2 * d_a)
    z_v[:r, r:] = -r_iso.conj().T / 2
    z_v[r:, :r] = -r_iso / 2
    z0 = [z_v, np.eye(d) / (2 * d_a), np.eye(d // d_a) / 2, np.eye(1),
          np.array(z_tail)]
    return x0, y0, [z.astype(complex) for z in z0]


def _smooth_hmin_dense(rho: np.ndarray, d_a: int, d_b: int, eps: float
                       ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Joint smoothing SDP over (smoothed state, conditioning operator).

    The fidelity constraint uses the PSD block embedding with the fixed
    corner compressed onto supp(rho); a generalized-fidelity block is added
    only for subnormalized inputs.  Where the fidelity slack's whole range
    1 - sqrt(1 - eps^2) is at least the certificate's relative precision
    CERT_LIMIT_BITS ln 2 (eps of about 1.18e-3 and up), the solve starts
    from ``_smoothing_start``: its iterates stay feasible, so weak duality
    brackets the optimum (the interval held the exact value on 72 of 72
    product-diagonal test states, where the infeasible start missed 17).
    Below that radius a feasible start stalls (at radius 1.9e-4 four random
    A:2,B:2,E:2 merging programs each ran 400 + 600 iterations and failed
    to certify), so the solver starts in infeasible mode there, as before.
    """
    d = d_a * d_b
    r_iso, d_mat, gam, corner = _fidelity_embedding(rho)
    r = r_iso.shape[1]
    missing = max(0.0, 1.0 - float(np.trace(rho).real))

    build = sdp.ProblemBuilder()
    v_blk = build.add_block(r + d)                      # [[D, Y], [Y^H, rho_hat]]
    s_blk = build.add_block(d)                          # I (x) sigma' - rho_hat
    sig_blk = build.add_block(d_b, np.eye(d_b, dtype=complex))

    build.add_family(r, {v_blk: sdp.embed(0)}, corner)
    # rho_hat + (I (x) sigma' - rho_hat) = I (x) sigma', per h of herm_matrices(d)
    build.add_family(d, {v_blk: sdp.embed(r), s_blk: sdp.embed(0),
                         sig_blk: sdp.neg_trace_out(d_a)}, np.zeros(d * d))
    trace = np.zeros((r + d, r + d), dtype=complex)
    trace[r:, r:] = np.eye(d)
    _close_smoothing(build, {v_blk: gam}, {v_blk: trace}, missing, eps)

    start = None
    if 1.0 - math.sqrt(1.0 - eps * eps) >= CERT_LIMIT_BITS * math.log(2.0):
        start = _smoothing_start(rho, r_iso, d_mat, d_a, missing, eps)
    mid, width, sol = _certified_solve(build.build(), "smoothing SDP", start)
    rho_hat = hermitian_part(sol.x_blocks[v_blk][r:, r:])
    sigma_prime = hermitian_part(sol.x_blocks[sig_blk])
    return -math.log2(mid), rho_hat, sigma_prime, width


def h_min_smooth(state: StateOperator, target: Sequence[str],
                 condition: Sequence[str] = (), epsilon: float = 0.0) -> EntropyResult:
    """Smooth conditional min-entropy over the purified-distance ball; the
    one place that picks a min-entropy route (``h_min`` is epsilon 0):

    ================  ===============================  ===========================
    epsilon           state (target, condition)        route
    ================  ===============================  ===========================
    0                 no condition                     -log2 lambda_max(rho)
    0                 diagonal in the product basis    ``_hmin_diag``
    0                 pure within CERT_LIMIT_BITS      ``_hmin_pure``
    0                 any other                        ``_hmin_sdp``
    > 0               diagonal in the product basis    ``_smooth_hmin_diag``
    > 0               any other                        ``_smooth_hmin_dense``
    ================  ===============================  ===========================

    Every route but the first returns a conditioning witness and a
    ``certificate_gap``; the smooth routes also return the smoothed state.
    ``_smooth_hmin_diag`` runs no SDP: it solves the reduced program
    through its Lagrange dual for epsilon down to about 5e-8, and its gap
    bounds the distance from the reported value to the optimum.  The dense
    smoothing SDP's gap is the width of its primal/dual sandwich.  From
    epsilon of about 1.18e-3 it starts from a strictly feasible point
    (``_smoothing_start``), and the sandwich brackets the optimum: on 72
    product-diagonal states at epsilon 0.02 to 0.1 it contained the exact
    value every time.  Below that radius it starts in infeasible mode, its
    sandwich need not contain the optimum, and it may fail to certify and
    raise ``EntropyError``.  At epsilon > 0 a state of trace at most
    epsilon^2 has the zero operator in its ball, so its value is +inf and
    ``EntropyError`` is raised.
    """
    rho, d_a, d_b, tdims, cdims = _prepare(state, target, condition, epsilon)
    if epsilon == 0.0 and not condition:
        lam = float(np.linalg.eigvalsh(hermitian_part(rho))[-1])
        if lam <= 0:
            raise EntropyError("min-entropy of a zero operator")
        return EntropyResult(-math.log2(lam))
    if epsilon > 0.0 and state.trace <= epsilon * epsilon:
        raise EntropyError(
            f"trace {state.trace:.6g} <= epsilon^2 = {epsilon * epsilon:.6g}: the "
            "epsilon-ball contains the zero operator, so the smooth min-entropy is +inf")
    diagonal = _is_product_diagonal(rho)
    clip = _clip_diag if diagonal else _clip_psd
    smoothed = None
    if epsilon == 0.0 and diagonal:
        value, sigma_prime, width = _hmin_diag(rho, d_a, d_b)
    elif epsilon == 0.0:
        value, sigma_prime, width = _hmin_pure(rho, d_a, d_b) or _hmin_sdp(rho, d_a, d_b)
    else:
        if diagonal:
            p = np.real(np.diag(rho)).reshape(d_a, d_b)
            value, q, s, width = _smooth_hmin_diag(p, d_a, d_b, epsilon)
            rho_hat = np.diag(q.reshape(-1)).astype(complex)
            sigma_prime = np.diag(s).astype(complex)
        else:
            value, rho_hat, sigma_prime, width = _smooth_hmin_dense(rho, d_a, d_b, epsilon)
        smoothed = StateOperator(Dims(tdims.pairs + cdims.pairs), clip(rho_hat),
                                 validate=False)
    tr_sig = float(np.trace(sigma_prime).real)
    sigma = None
    if condition and tr_sig > 0:
        sigma = StateOperator(cdims, clip(sigma_prime / tr_sig), validate=False)
    return EntropyResult(value, optimizer_sigma=sigma, smoothed_state=smoothed,
                         certificate_gap=width)


def h_max_smooth(state: StateOperator, target: Sequence[str],
                 condition: Sequence[str] = (), epsilon: float = 0.0) -> EntropyResult:
    """Smooth conditional max-entropy; the one place that picks a
    max-entropy route (``h_max`` is epsilon 0).

    With no condition at epsilon 0 it is the closed form 2 log2 tr sqrt(rho).
    Otherwise it is minus the smooth min-entropy of target given the
    purifier of ``_purified`` (duality, H_max(A|B) = -H_min(A|C)), whose
    ``certificate_gap`` it returns; at epsilon > 0 the input must be
    normalized.  No conditioning witness is returned (``optimizer_sigma``
    is None).
    """
    if epsilon == 0.0 and not condition:
        rho = _prepare(state, target, condition, epsilon)[0]
        return EntropyResult(2 * math.log2(float(np.trace(sqrt_psd(rho)).real)))
    _check_query(state, target, condition, epsilon)
    if epsilon > 0.0 and not state.is_normalized:
        raise EntropyError("smooth max-entropy needs a normalized state")
    carrier, purifier = _purified(state, target, condition)
    dual = h_min_smooth(carrier, target, purifier, epsilon)
    return EntropyResult(-dual.value, certificate_gap=dual.certificate_gap)
