"""Exact and smooth conditional entropies of finite-dimensional states.

Min-entropy and its smoothed variant are computed by the embedded SDP solver;
max-entropies come both from a direct fidelity SDP and from min-entropy of a
purification, cross-checked against each other.  Collision entropy has a
closed form at a fixed conditioning operator plus an optional local ascent.

All logarithms are base 2; values are reported in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from qdecouple import sdp
from qdecouple.linalg import (
    Dims,
    StateOperator,
    hermitian_part,
    herm_basis,
    herm_matrices,
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
CROSS_CHECK_TOL = 1e-4
DIAG_TOL = 1e-13


class EntropyError(RuntimeError):
    """Entropy computation failed or could not be certified."""


@dataclass(frozen=True)
class EntropyRequest:
    """Arguments of a conditional-entropy query."""

    state: StateOperator
    target: tuple[str, ...]
    condition: tuple[str, ...] = ()
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        t, c = set(self.target), set(self.condition)
        if not t:
            raise ValueError("target label set is empty")
        if t & c:
            raise ValueError(f"target and condition overlap: {sorted(t & c)}")
        unknown = (t | c) - set(self.state.labels)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in state {self.state.labels}")
        if not (0.0 <= self.epsilon < 1.0):
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1)")


@dataclass
class EntropyResult:
    value: float
    optimizer_sigma: StateOperator | None = None
    smoothed_state: StateOperator | None = None
    certificate_gap: float = 0.0


def _prepare(state: StateOperator, target: Sequence[str], condition: Sequence[str]
             ) -> tuple[np.ndarray, int, int, Dims, Dims]:
    """Trace out spectator labels and order the matrix as (target, condition)."""
    EntropyRequest(state, tuple(target), tuple(condition))
    rel = list(target) + list(condition)
    reduced = state if set(rel) == set(state.labels) else partial_trace(state, rel)
    reduced = reduced.permute(rel)
    tdims = reduced.dims.subset(set(target))
    cdims = reduced.dims.subset(set(condition)) if condition else Dims(())
    return reduced.matrix, tdims.total, max(cdims.total, 1), tdims, cdims


def _sandwich(sol: sdp.SdpSolution, flip: bool) -> tuple[float, float]:
    lo, hi = sorted((sol.primal_obj, sol.dual_obj))
    return (-hi, -lo) if flip else (lo, hi)


def _certified_solve(problem: sdp.SdpProblem, what: str, flip: bool = False,
                     **solve_kwargs) -> tuple[float, float, sdp.SdpSolution]:
    """Solve and certify the optimum to within CERT_LIMIT_BITS.

    ``flip`` negates the sandwich for programs whose meaningful objective is
    the negative of the minimization objective.  If the default tolerance
    leaves the bit-width too wide (small objectives), the program is re-solved
    with a gap tolerance matched to the target width.
    """
    sol = sdp.solve(problem, **solve_kwargs)
    lo, hi = _sandwich(sol, flip)
    if sol.status is not sdp.SdpStatus.INFEASIBLE and hi > 0:
        retries = ({"max_iterations": 400},
                   {"max_iterations": 600, "reg": 1e-14, "step_frac": 0.93})
        for extra in retries:
            width = math.log2(hi / max(lo, 1e-300))
            if width <= CERT_LIMIT_BITS:
                break
            tight = 0.4 * CERT_LIMIT_BITS * math.log(2.0) * max((lo + hi) / 2, 1e-12)
            cand = sdp.solve(problem, gap_tol=tight, **{**solve_kwargs, **extra})
            c_lo, c_hi = _sandwich(cand, flip)
            if c_hi > 0 and c_hi - c_lo < hi - lo:
                sol, lo, hi = cand, c_lo, c_hi
    if sol.status is sdp.SdpStatus.INFEASIBLE or hi <= 0:
        raise EntropyError(f"{what}: solver reported {sol.status.value}")
    lo = max(lo, 1e-300)
    width = math.log2(hi / lo)
    if sol.primal_infeas > 1e-7 or sol.dual_infeas > 1e-7 or width > CERT_LIMIT_BITS:
        raise EntropyError(
            f"{what}: not certified (status {sol.status.value}, "
            f"width {width:.2e} bits, pinf {sol.primal_infeas:.2e}, "
            f"dinf {sol.dual_infeas:.2e})")
    return (lo + hi) / 2, width, sol


def _fresh_label(used: Sequence[str], base: str) -> str:
    if base not in used:
        return base
    i = 2
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


def _clip_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(m))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


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
    if abs(state.trace - 1.0) > 1e-9:
        raise EntropyError(f"von Neumann entropy needs a normalized state, trace {state.trace}")
    rho, d_a, d_b, _, _ = _prepare(state, target, condition)
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
    witness with I (x) sigma' >= rho and tr sigma' = 2^(-value).
    """
    basis_b = herm_basis(d_b)
    build = sdp.ProblemBuilder()
    blk = build.add_block(d_a * d_b, -rho)
    eye_a = np.eye(d_a)
    for g in basis_b:
        build.add_constraint({blk: np.kron(eye_a, g)}, float(np.trace(g).real))
    problem = build.build()
    # both sides strictly feasible: Y = I/d_a,  sigma' = (||rho|| + 1) I
    x0 = [np.eye(d_a * d_b, dtype=complex) / d_a]
    lam = float(np.abs(np.linalg.eigvalsh(hermitian_part(rho))).max(initial=0.0)) + 1.0
    sigma0 = lam * np.eye(d_b, dtype=complex)
    y0 = -np.array([float(np.trace(g @ sigma0).real) for g in basis_b])
    z0 = [-rho + np.kron(eye_a, sigma0)]
    # minimization of tr(-rho Y): optimum of tr(sigma') lies in [-p, -d]
    mid, width, sol = _certified_solve(problem, "min-entropy SDP", flip=True,
                                       x0=x0, y0=y0, z0=z0)
    sigma_prime = hermitian_part(-np.einsum("i,ipq->pq", sol.y, basis_b))
    return -math.log2(mid), sigma_prime, width


def h_min(state: StateOperator, target: Sequence[str],
          condition: Sequence[str] = ()) -> EntropyResult:
    """Conditional min-entropy; closed form when the condition is trivial."""
    rho, d_a, d_b, _, cdims = _prepare(state, target, condition)
    if not condition:
        lam = float(np.linalg.eigvalsh(hermitian_part(rho))[-1])
        if lam <= 0:
            raise EntropyError("min-entropy of a zero operator")
        return EntropyResult(-math.log2(lam))
    value, sigma_prime, width = _hmin_sdp(rho, d_a, d_b)
    tr = float(np.trace(sigma_prime).real)
    sigma = StateOperator(cdims, _clip_psd(sigma_prime / tr), validate=False)
    return EntropyResult(value, optimizer_sigma=sigma, certificate_gap=width)


# ---------------------------------------------------------------------------
# max-entropy
# ---------------------------------------------------------------------------

def _support_factor(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Isometry R onto supp(rho) and the full-rank compression D = R^H rho R."""
    w, v = np.linalg.eigh(hermitian_part(rho))
    top = max(float(w[-1]), 0.0)
    keep = w > 1e-12 * max(top, 1e-30)
    r = v[:, keep]
    return r, np.diag(w[keep]).astype(complex)


def _embed(h: np.ndarray, offset: int, size: int) -> np.ndarray:
    """A size x size zero matrix with h as its diagonal block at ``offset``."""
    big = np.zeros((size, size), dtype=complex)
    big[offset:offset + len(h), offset:offset + len(h)] = h
    return big


def _fidelity_embedding(rho: np.ndarray
                        ) -> tuple[int, np.ndarray, Iterator[tuple[np.ndarray, float]]]:
    """Support-compressed PSD block embedding of the fidelity with rho.

    The embedding block is V = [[D, Y], [Y^H, X]] of size r + d, with the
    fixed corner D = R^H rho R compressed onto supp(rho) (rank r) so the
    programs keep a strictly feasible interior even for rank-deficient
    states.  Returns r, the matrix Gamma with tr(Gamma V) = Re tr(R Y), and
    the (coefficient, right-hand side) rows that fix the D corner, in the
    order of ``herm_matrices(r)``.  The rows are generated one at a time, so
    only the program builder holds them, as nonzero entries.
    """
    d = rho.shape[0]
    r_iso, d_mat = _support_factor(rho)
    r = r_iso.shape[1]
    gam = np.zeros((r + d, r + d), dtype=complex)
    gam[:r, r:] = r_iso.conj().T / 2
    gam[r:, :r] = r_iso / 2
    corner_rows = ((_embed(h, 0, r + d), float(np.einsum("ij,ji->", d_mat, h).real))
                   for h in herm_matrices(r))
    return r, gam, corner_rows


def _hmax_fidelity_sdp(rho: np.ndarray, d_a: int, d_b: int
                       ) -> tuple[float, np.ndarray, float]:
    """max_sigma F(rho, I (x) sigma) via the PSD block embedding of fidelity."""
    d = d_a * d_b
    r, gam, corner_rows = _fidelity_embedding(rho)
    build = sdp.ProblemBuilder()
    v_blk = build.add_block(r + d, -gam)
    s_blk = build.add_block(d_b)
    for big, rhs in corner_rows:
        build.add_constraint({v_blk: big}, rhs)
    for h in herm_matrices(d):
        build.add_constraint({v_blk: _embed(h, r, r + d),
                              s_blk: -trace_out_leading(h, d_a)}, 0.0)
    build.add_constraint({s_blk: np.eye(d_b, dtype=complex)}, 1.0)
    mid, width, sol = _certified_solve(build.build(), "max-entropy fidelity SDP",
                                       flip=True)
    sigma = hermitian_part(sol.x_blocks[s_blk])
    return 2 * math.log2(mid), sigma, 2 * width


def h_max(state: StateOperator, target: Sequence[str],
          condition: Sequence[str] = ()) -> EntropyResult:
    """Conditional max-entropy, computed two ways and cross-checked.

    The returned value comes from min-entropy duality on a purification; the
    fidelity-SDP route supplies the conditioning witness and the cross-check.
    """
    rho, d_a, d_b, tdims, cdims = _prepare(state, target, condition)
    if not condition:
        val = 2 * math.log2(float(np.trace(sqrt_psd(rho)).real))
        return EntropyResult(val)
    joint = StateOperator(Dims(tdims.pairs + cdims.pairs), rho, validate=False)
    c_label = _fresh_label(joint.labels, "_pur")
    psi = purify(joint, c_label, require_normalized=False, cap=joint.dims.total ** 2)
    reduced_ac = pure_marginal(psi, list(tdims.labels) + [c_label])
    dual = h_min(reduced_ac, tdims.labels, (c_label,))
    value = -dual.value
    direct, sigma, width_direct = _hmax_fidelity_sdp(rho, d_a, d_b)
    if abs(direct - value) > CROSS_CHECK_TOL:
        raise EntropyError(
            f"max-entropy cross-check disagreement: duality {value}, direct {direct}")
    tr = float(np.trace(sigma).real)
    witness = StateOperator(cdims, _clip_psd(sigma / tr), validate=False)
    return EntropyResult(value, optimizer_sigma=witness,
                         certificate_gap=max(dual.certificate_gap, width_direct))


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
    tilt = np.kron(np.eye(d_a), psd_power(sigma, -0.25))
    tilted = tilt @ rho @ tilt
    val = float(np.trace(tilted @ tilted).real)
    if val <= 0:
        raise EntropyError("collision entropy of a zero operator")
    return -math.log2(val)


def h2(state: StateOperator, target: Sequence[str], condition: Sequence[str] = (),
       optimize_sigma: bool = False) -> EntropyResult:
    """Collision entropy at sigma = reduced condition state, optionally improved.

    Without the ascent the value is a lower bound on the conditioning
    supremum, which is all the decoupling bound needs; the ascent never
    returns less than the starting value.
    """
    rho, d_a, d_b, _, cdims = _prepare(state, target, condition)
    if not condition:
        val = float(np.trace(rho @ rho).real)
        if val <= 0:
            raise EntropyError("collision entropy of a zero operator")
        return EntropyResult(-math.log2(val))
    rho_b = trace_out_leading(rho, d_a)
    sigma = rho_b / float(np.trace(rho_b).real)
    best = _h2_at_sigma(rho, sigma, d_a)
    if optimize_sigma:
        best, sigma = _h2_ascent(rho, sigma, d_a, best)
    return EntropyResult(best, optimizer_sigma=StateOperator(cdims, sigma, validate=False))


def _h2_ascent(rho: np.ndarray, sigma0: np.ndarray, d_a: int, start: float
               ) -> tuple[float, np.ndarray]:
    """Projected finite-difference ascent over normalized conditioning operators."""
    d_b = sigma0.shape[0]
    directions = [h for h in herm_basis(d_b) if abs(np.trace(h)) < 1e-12]
    sigma = sigma0.copy()
    best = start
    step = 0.1
    fd = 1e-6

    def project(m: np.ndarray) -> np.ndarray:
        m = _clip_psd(m) + 1e-12 * np.eye(d_b)
        return m / float(np.trace(m).real)

    def value_at(m: np.ndarray) -> float:
        try:
            return _h2_at_sigma(rho, m, d_a)
        except EntropyError:
            return -np.inf

    for _ in range(80):
        grad = np.zeros((d_b, d_b), dtype=complex)
        for h in directions:
            plus = value_at(project(sigma + fd * h))
            minus = value_at(project(sigma - fd * h))
            grad += (plus - minus) / (2 * fd) * h
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-9:
            break
        improved = False
        trial = step
        for _ in range(12):
            cand = project(sigma + trial * grad / gnorm)
            cand_val = value_at(cand)
            if cand_val > best + 1e-12:
                sigma, best, step, improved = cand, cand_val, trial * 1.5, True
                break
            trial /= 2
        if not improved:
            break
    return max(best, start), sigma


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
    are added last.  A subnormalized input (missing weight above 1e-9) adds
    a 2x2 block [[missing, x], [x, q]] to both rows, making the fidelity the
    generalized one; a normalized input gets a trace slack w instead.
    """
    fid[build.add_block(1)] = -np.eye(1, dtype=complex)
    if missing > 1e-9:
        g_blk = build.add_block(2)
        build.add_constraint({g_blk: _E11}, missing)
        fid[g_blk] = _EX
        trace_row[g_blk] = _E22
    else:
        trace_row[build.add_block(1)] = np.eye(1, dtype=complex)
    build.add_constraint(fid, math.sqrt(1.0 - eps * eps))
    build.add_constraint(trace_row, 1.0)


def _smooth_hmin_diag(p: np.ndarray, d_a: int, d_b: int, eps: float
                      ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Smoothing program restricted to diagonal states.

    Valid whenever the input is diagonal in the product basis: dephasing in
    that basis fixes the input, preserves feasibility of every constraint,
    and leaves the objective unchanged, so a diagonal optimizer exists.
    """
    d = d_a * d_b
    # cells with zero input weight carry no fidelity and only cost trace
    # budget, so an optimizer supported on the nonzero cells always exists
    top = float(p.max(initial=0.0))
    if top <= 0:
        raise EntropyError("smoothing a zero operator")
    live = [i for i in range(d) if float(p.flat[i]) > 1e-15 * top]

    build = sdp.ProblemBuilder()
    f_blks = {i: build.add_block(2) for i in live}      # [[p_i, x_i], [x_i, q_i]]
    s_blks = [build.add_block(1, np.eye(1, dtype=complex)) for _ in range(d_b)]
    u_blks = {i: build.add_block(1) for i in live}      # s_beta - q_i slack

    for i in live:
        build.add_constraint({f_blks[i]: _E11}, float(p.flat[i]))
    for i in live:
        build.add_constraint({s_blks[i % d_b]: np.eye(1, dtype=complex),
                              f_blks[i]: -_E22,
                              u_blks[i]: -np.eye(1, dtype=complex)}, 0.0)
    _close_smoothing(build, {f_blks[i]: _EX for i in live},
                     {f_blks[i]: _E22 for i in live}, max(0.0, 1.0 - float(p.sum())), eps)

    mid, width, sol = _certified_solve(build.build(), "diagonal smoothing SDP")
    q = np.zeros(d)
    for i in live:
        q[i] = float(sol.x_blocks[f_blks[i]][1, 1].real)
    s = np.array([float(sol.x_blocks[s_blks[b]][0, 0].real) for b in range(d_b)])
    return -math.log2(mid), q.reshape(d_a, d_b), s, width


def _smooth_hmin_dense(rho: np.ndarray, d_a: int, d_b: int, eps: float
                       ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Joint smoothing SDP over (smoothed state, conditioning operator).

    The fidelity constraint uses the PSD block embedding with the fixed
    corner compressed onto supp(rho); a generalized-fidelity block is added
    only for subnormalized inputs.
    """
    d = d_a * d_b
    r, gam, corner_rows = _fidelity_embedding(rho)

    build = sdp.ProblemBuilder()
    v_blk = build.add_block(r + d)                      # [[D, Y], [Y^H, rho_hat]]
    s_blk = build.add_block(d)                          # I (x) sigma' - rho_hat
    sig_blk = build.add_block(d_b, np.eye(d_b, dtype=complex))

    for big, rhs in corner_rows:
        build.add_constraint({v_blk: big}, rhs)
    for h in herm_matrices(d):
        build.add_constraint({v_blk: _embed(h, r, r + d), s_blk: h,
                              sig_blk: -trace_out_leading(h, d_a)}, 0.0)
    _close_smoothing(build, {v_blk: gam}, {v_blk: _embed(np.eye(d), r, r + d)},
                     max(0.0, 1.0 - float(np.trace(rho).real)), eps)

    mid, width, sol = _certified_solve(build.build(), "smoothing SDP")
    rho_hat = hermitian_part(sol.x_blocks[v_blk][r:, r:])
    sigma_prime = hermitian_part(sol.x_blocks[sig_blk])
    return -math.log2(mid), rho_hat, sigma_prime, width


def h_min_smooth(state: StateOperator, target: Sequence[str],
                 condition: Sequence[str] = (), epsilon: float = 0.0) -> EntropyResult:
    """Smooth conditional min-entropy over the purified-distance ball.

    The dense path is reliable for epsilon of roughly 0.01 and larger;
    states diagonal in the product basis use an exact reduced program that
    is well conditioned at any epsilon and any dimension within the cap.
    """
    EntropyRequest(state, tuple(target), tuple(condition), epsilon)
    if epsilon == 0.0:
        return h_min(state, target, condition)
    rho, d_a, d_b, tdims, cdims = _prepare(state, target, condition)
    joint_dims = Dims(tdims.pairs + cdims.pairs)
    if _is_product_diagonal(rho):
        p = np.real(np.diag(rho)).reshape(d_a, d_b)
        value, q, s, width = _smooth_hmin_diag(p, d_a, d_b, epsilon)
        rho_hat = np.diag(q.reshape(-1)).astype(complex)
        sigma_prime = np.diag(s).astype(complex)
    else:
        value, rho_hat, sigma_prime, width = _smooth_hmin_dense(rho, d_a, d_b, epsilon)
    smoothed = StateOperator(joint_dims, _clip_psd(rho_hat), validate=False)
    tr_sig = float(np.trace(sigma_prime).real)
    sigma = None
    if condition and tr_sig > 0:
        sigma = StateOperator(cdims, _clip_psd(sigma_prime / tr_sig), validate=False)
    return EntropyResult(value, optimizer_sigma=sigma, smoothed_state=smoothed,
                         certificate_gap=width)


def h_max_smooth(state: StateOperator, target: Sequence[str],
                 condition: Sequence[str] = (), epsilon: float = 0.0) -> EntropyResult:
    """Smooth conditional max-entropy via duality on a purifying system.

    If the input is pure and carries labels beyond target+condition, those
    labels serve as the purifier; otherwise the reduced state is purified on
    a fresh label.  Cross-checked against the direct route at epsilon = 0 by
    delegation.
    """
    EntropyRequest(state, tuple(target), tuple(condition), epsilon)
    if epsilon == 0.0:
        return h_max(state, target, condition)
    if abs(state.trace - 1.0) > 1e-9:
        raise EntropyError("smooth max-entropy needs a normalized state")
    rel = set(target) | set(condition)
    spectators = [lab for lab in state.labels if lab not in rel]
    if spectators and _is_rank_one(state.matrix):
        carrier = state
        c_labels = tuple(spectators)
    else:
        joint = state if not spectators else partial_trace(state, sorted(rel))
        joint = joint.permute(list(target) + list(condition))
        c_label = _fresh_label(joint.labels, "_pur")
        psi = purify(joint, c_label, cap=joint.dims.total ** 2)
        carrier = pure_marginal(psi, list(target) + [c_label])
        c_labels = (c_label,)
    dual = h_min_smooth(carrier, target, c_labels, epsilon)
    return EntropyResult(-dual.value, certificate_gap=dual.certificate_gap)


def _is_rank_one(m: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(hermitian_part(m))
    return bool(w[:-1].max(initial=0.0) <= 1e-10 * max(float(w[-1]), 1e-30))
