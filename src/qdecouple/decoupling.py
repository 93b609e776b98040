"""Randomized decoupling experiments: Monte Carlo trace distances against
entropy bounds, plus the converse inequality checker and the randomized
property suites backing the proofs.

The integrand is || T(U rho U^H) - tau_B (x) rho_E ||_1 with tau_B the output
marginal of the channel's Choi matrix and U Haar on the input system.
Sampling is indexed by (seed, sample), so worker scheduling cannot change any
reported number.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qdecouple import channel as chan
from qdecouple import entropy
from qdecouple import haar
from qdecouple.linalg import (
    Dims,
    TOL_TRACE,
    StateOperator,
    block_eigh,
    check_cap,
    hermitian_part,
    hermitian_trace_norms,
    partial_trace,
    psd_power,
    maximally_entangled,
    sqrt_psd,
    swap_operator,
    trace_norm,
    trace_norms,
    trace_out_leading,
)


class DecouplingError(ValueError):
    """Invalid experiment configuration or violated precondition."""


@dataclass(frozen=True)
class DecouplingExperiment:
    """State on the input system A and reference systems, a channel on A, and
    the Monte Carlo configuration."""

    state: StateOperator
    channel: chan.Channel
    num_samples: int
    epsilon: float = 0.0
    seed: haar.RngSeed = haar.RngSeed(0)

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise DecouplingError("num_samples must be positive")
        if not (0.0 <= self.epsilon < 1.0):
            raise DecouplingError("epsilon must lie in [0, 1)")
        if "A" not in self.state.labels:
            raise DecouplingError(
                f"the channel acts on A, but the state has labels {self.state.labels}")
        din = self.state.dims.dim_of("A")
        if din != self.channel.dim_in:
            raise DecouplingError(
                f"channel input dim {self.channel.dim_in} != system dim {din}")

    @property
    def reference_labels(self) -> tuple[str, ...]:
        return _references(self.state)


def _references(state: StateOperator) -> tuple[str, ...]:
    return tuple(lab for lab in state.labels if lab != "A")


@dataclass
class DecouplingReport:
    empirical_mean: float
    std_error: float
    bound_nonsmooth: float
    bound_smooth: float | None
    epsilon: float
    num_samples: int
    seed: haar.RngSeed
    kernel: str  # "blocks:<n>" for a state classical on the reference, else "dense"
    per_sample_distances: list[float] | None

    def to_json(self) -> dict:
        return {
            "empirical_mean": self.empirical_mean,
            "std_error": self.std_error,
            "bound_nonsmooth": self.bound_nonsmooth,
            "bound_smooth": self.bound_smooth,
            "epsilon": self.epsilon,
            "num_samples": self.num_samples,
            "seed": self.seed.to_json(),
            "kernel": self.kernel,
            "per_sample_distances": self.per_sample_distances,
        }

    def samples_csv(self) -> str:
        if self.per_sample_distances is None:
            raise DecouplingError("per-sample distances were not retained")
        lines = ["sample,distance"]
        lines += [f"{i},{d!r}" for i, d in enumerate(self.per_sample_distances)]
        return "\n".join(lines) + "\n"


MAX_RETAINED_SAMPLES = 10_000
# complex entries of the largest per-chunk array (256 KiB), which sets how
# many samples one kernel call takes from the experiment's shapes.  A
# stacked Haar draw costs less per sample the more samples it takes, so
# against 2^11 this budget ran the benchmark's six decouple configurations
# in 211 ms instead of 251 ms (one core), every distance bit-identical.  The
# allocator keeps the peak of one chunk's temporaries per thread, which
# cost the decouple workload 2% more peak RSS.  Criterion C5 gets S = 64 at
# m'=1 and S = 16 at m'=3 from its block kernel's output and factor arrays;
# the Gram step forms no (n, d_B, d_B) output blocks, but S still counts them.
CHUNK_ENTRIES = 2 ** 14

Kernel = Callable[[np.ndarray], np.ndarray]


def _kernel(exp: DecouplingExperiment) -> tuple[str, int, Kernel]:
    """The experiment's kernel: its name (``"blocks:<n>"`` or ``"dense"``),
    its chunk size S and the map from a stack of unitaries (s, d_in, d_in),
    s <= S, to the s values || T(U rho U^H) - tau_B (x) rho_E ||_1.

    A sample gets the same BLAS and LAPACK calls in any chunk (each kernel
    makes stacked ``matmul`` and ``eigvalsh`` calls, one call per item, or
    takes 2 x 2 spectra elementwise in closed form), and ``trace_norms``
    routes each sample's item on its own, so a sample's bits do not depend
    on its chunk.
    A state classical on the reference, rho = sum_e rho_e (x) |e><e| (every
    entry off the reference diagonal exactly zero), makes the difference
    block diagonal: the norm is sum_e || T(U rho_e U^H) - w_e tau_B ||_1 with
    w_e = tr rho_e, computed on the stack of the n nonzero blocks (a zero
    block contributes exactly 0).  The block kernel works on factors taken
    once per experiment (``_factors``): rho_e = sum_k lam_ek f_ek f_ek^H and
    T(X) = d_in sum_j mu_j K_j X K_j^H from the eigenvectors of the Choi
    matrix, so T(U rho_e U^H) = H_e diag(d_in mu_j lam_ek) H_e^H with
    columns K_j U f_ek.  When tau_B = t I exactly, every weight
    d_in mu_j lam_ek is >= 0 and k = kappa r < d_B, the Gram step takes
    block e's norm as sum_i |mu_ei - c_e| + (d_B - k) c_e from the
    eigenvalues mu_ei of the k x k Gram matrix G_e of H_e sqrt(w), with
    c_e = t tr rho_e: the first sum is ``hermitian_trace_norms`` of
    G_e - c_e I, and no d_B x d_B block is formed; every other block
    experiment forms the (n, d_B, d_B) blocks and calls ``trace_norms``.
    Any other state takes the dense kernel: the
    matmuls of numpy's ``einsum`` split of ``apply_matrix`` +
    ``channel.apply``.
    """
    ch, refs = exp.channel, list(exp.reference_labels)
    d_in = ch.dim_in
    perm = exp.state.permute(["A"] + refs)
    d_r = perm.dims.total // d_in
    rho = perm.matrix.reshape(d_in, d_r, d_in, d_r)
    tau_b, d_out = partial_trace(ch.choi, [chan.OUT_LABEL]).matrix, ch.dim_out

    diag = rho.transpose(1, 3, 0, 2)[np.arange(d_r), np.arange(d_r)]
    # every nonzero entry of rho lies on the reference diagonal
    if d_r > 1 and np.count_nonzero(diag) == np.count_nonzero(rho):
        blocks = diag[diag.any(axis=(1, 2))]
        n = len(blocks)
        targets = np.trace(blocks, axis1=1, axis2=2)[:, None, None] * tau_b
        lam, f = _factors(blocks)
        mu, v = _factors(ch.choi.matrix[None])
        r, kappa = lam.shape[1], mu.shape[1]
        # Choi eigenvector v_j[(a, b)] = K_j[b, a]; rows of k_all run over (j, b)
        k_all = v[0].reshape(d_in, d_out, kappa).transpose(2, 1, 0).reshape(-1, d_in)
        f_all = f.transpose(1, 0, 2).reshape(d_in, n * r)  # columns (e, k)
        k = kappa * r
        w = (d_in * mu[0][:, None] * lam[:, None, :]).reshape(n, 1, k)

        def products(us: np.ndarray) -> np.ndarray:
            s = len(us)
            g = k_all @ (us @ f_all)  # (s, (j, b), (e, k))
            h = g.reshape(s, kappa, d_out, n, r).transpose(0, 3, 2, 1, 4)
            return h.reshape(s, n, d_out, k)

        def block_distances(us: np.ndarray) -> np.ndarray:
            h = products(us)
            out = (h * w) @ h.conj().swapaxes(-1, -2)
            out -= targets
            return trace_norms(out)

        entries = max(n * d_out * d_out, max(d_in, kappa * d_out) * n * r)
        t = tau_b[0, 0].real
        if not (np.array_equal(tau_b, t * np.eye(d_out)) and (w >= 0).all() and k < d_out):
            return f"blocks:{n}", _chunk(entries, d_in), block_distances
        # block e is (H_e sqrt w)(H_e sqrt w)^H - c_e I: the k eigenvalues of
        # the Gram matrix (H_e sqrt w)^H (H_e sqrt w) less c_e, and d_B - k
        # eigenvalues -c_e
        root_w, c = np.sqrt(w), t * np.trace(blocks, axis1=1, axis2=2).real
        rest = (d_out - k) * np.abs(c).sum()

        def gram_distances(us: np.ndarray) -> np.ndarray:
            h = products(us) * root_w
            g = h.conj().swapaxes(-1, -2) @ h
            g[..., np.arange(k), np.arange(k)] -= c[:, None]  # G - c_e I
            return hermitian_trace_norms(g) + rest
        return f"blocks:{n}", _chunk(entries, d_in), gram_distances

    target = tau_b
    if refs:
        target = np.kron(target, partial_trace(exp.state, refs).matrix)
    # choi[(a, c), (b, d)] = choi_tensor[a, b, c, d], so T(rot) = d_in rot @ choi, flattened
    choi = ch.choi_tensor.transpose(0, 2, 1, 3).reshape(d_in * d_in, d_out * d_out)
    # einsum's split: (r l s, k) @ U^T, then (rows, l) @ conj(U)^T with rows
    # (r, s, i) if d_r < d_in else (i, r, s), then (r s, a c) @ choi
    rho_t, ref_first = rho.transpose(1, 2, 3, 0).reshape(-1, d_in), d_r < d_in

    def distances(us: np.ndarray) -> np.ndarray:
        n = len(us)
        rot = (rho_t @ us.transpose(0, 2, 1)).reshape(n, d_r, d_in, d_r, d_in)
        rot = rot.transpose((0, 1, 3, 4, 2) if ref_first else (0, 4, 1, 3, 2))
        rot = rot.reshape(n, -1, d_in) @ us.conj().transpose(0, 2, 1)
        if not ref_first:
            rot = rot.reshape(n, d_in, d_r * d_r, d_in).transpose(0, 2, 1, 3)
        out = (rot.reshape(n, d_r * d_r, -1) @ choi).reshape(n, d_r, d_r, d_out, d_out)
        out = (d_in * out.transpose(0, 3, 1, 4, 2)).reshape(n, *target.shape)
        out -= target
        return trace_norms(out)
    return "dense", _chunk(target.size, d_in), distances


def _factors(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed eigen-factors of a stack of Hermitian matrices (m, d, d): weights
    (m, r) and vectors (m, d, r) with item i = sum_k w_ik v_ik v_ik^H.  Each
    item's eigenpairs come from ``block_eigh`` (an isolated index's diagonal
    entry and unit vector, one ``eigh`` for the linked indices); each item
    keeps its eigenvalues above 1e-15 times its largest in modulus, signs
    included, and is padded to the largest kept count r with zero weights
    and zero vectors."""
    pairs = [block_eigh(h) for h in hermitian_part(stack)]
    lam, vec = np.array([w for w, _ in pairs]), np.array([v for _, v in pairs])
    mag = np.abs(lam)
    keep = mag > 1e-15 * mag.max(axis=1, keepdims=True)
    order = np.argsort(~keep, axis=1, kind="stable")[:, :int(keep.sum(axis=1).max())]
    kept = np.take_along_axis(keep, order, axis=1)
    lam = np.take_along_axis(lam, order, axis=1) * kept
    vec = np.take_along_axis(vec, order[:, None, :], axis=2) * kept[:, None, :]
    return lam, vec


def _chunk(entries: int, d_in: int) -> int:
    """Samples per chunk: the most whose per-sample share of the largest
    chunk array (``entries`` per sample, or the d_in x d_in draw) fits
    ``CHUNK_ENTRIES``.  The block kernel counts its output blocks, which the
    Gram step does not form, and its factor products; the dense kernel
    counts its output, not its rotated stack, which is (d_in / d_out)^2
    times larger, 4x on 8x2->4."""
    return max(1, CHUNK_ENTRIES // max(entries, d_in * d_in))


def sample_distance(state: StateOperator, ch: chan.Channel, u: np.ndarray) -> float:
    """|| T(U rho U^H) - tau_B (x) rho_E ||_1 for one unitary U."""
    exp = DecouplingExperiment(state, ch, num_samples=1)
    d = ch.dim_in
    if u.shape != (d, d) or float(np.abs(u @ u.conj().T - np.eye(d)).max()) > 1e-10:
        raise DecouplingError(f"U is not a {d} x {d} unitary within tolerance")
    return float(_kernel(exp)[2](u[None])[0])


def run(experiment: DecouplingExperiment, workers: int = 1) -> DecouplingReport:
    """Monte Carlo average of the decoupling distance with entropy bounds.

    The samples run in fixed chunks [c S, (c + 1) S) of the index, S set by
    ``CHUNK_ENTRIES`` from the experiment's shapes; ``workers`` threads take
    whole chunks.  The smooth bound (an extra pair of SDP solves) is
    computed when the experiment's epsilon is positive.  Results are
    bit-reproducible for a fixed seed at any worker count: sample i is a
    pure function of (seed, i) and aggregation is a fixed-order reduction
    over the sample index.
    """
    exp = experiment
    state, ch = exp.state, exp.channel
    kernel, chunk, distances = _kernel(exp)

    def one_chunk(start: int) -> np.ndarray:
        stop = min(start + chunk, exp.num_samples)
        d = ch.dim_in
        return distances(haar.haar_columns_indexed(exp.seed, start, stop, d, d))

    starts = range(0, exp.num_samples, chunk)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            dist = np.concatenate(list(pool.map(one_chunk, starts)))
    else:
        dist = np.concatenate([one_chunk(start) for start in starts])

    mean = float(np.mean(dist))
    if exp.num_samples > 1:
        std_err = float(np.std(dist, ddof=1) / math.sqrt(exp.num_samples))
    else:
        std_err = 0.0
    b_ns = bound_nonsmooth(state, ch)
    b_s = None
    if (exp.epsilon > 0.0 and ch.trace_class is not chan.TraceClass.GENERAL
            and state.is_normalized):
        b_s = bound_smooth(state, ch, exp.epsilon)
    retained = dist.tolist() if exp.num_samples <= MAX_RETAINED_SAMPLES else None
    return DecouplingReport(mean, std_err, b_ns, b_s, exp.epsilon,
                            exp.num_samples, exp.seed, kernel, retained)


def bound_nonsmooth(state: StateOperator, ch: chan.Channel) -> float:
    """2^(-H2(A|E)/2 - H2(A|B)/2) with collision entropies at default sigma.

    Valid for any CPM; the default conditioning operators only loosen the
    bound, never break it.
    """
    h2_state = entropy.h2(state, ("A",), _references(state)).value
    h2_choi = entropy.h2(ch.choi, (chan.IN_LABEL,), (chan.OUT_LABEL,)).value
    return 2.0 ** (-0.5 * h2_state - 0.5 * h2_choi)


def bound_smooth(state: StateOperator, ch: chan.Channel, epsilon: float) -> float:
    """2^(-Hmin^eps(A|E)/2 - Hmin^eps(A|B)/2) + 12 eps.

    Requires a channel with Choi trace at most one and a normalized state.
    """
    if ch.choi.trace > 1.0 + TOL_TRACE:
        raise DecouplingError("smooth bound needs Choi trace at most one")
    if not state.is_normalized:
        raise DecouplingError("smooth bound needs a normalized state")
    h_state = entropy.h_min_smooth(state, ("A",), _references(state), epsilon).value
    h_choi = entropy.h_min_smooth(ch.choi, (chan.IN_LABEL,), (chan.OUT_LABEL,),
                                  epsilon).value
    return 2.0 ** (-0.5 * h_state - 0.5 * h_choi) + 12.0 * epsilon


@dataclass
class ConverseReport:
    lhs: float
    rhs: float
    holds: bool
    measured_distance: float
    h_min_smooth_state: float
    h_max_joint: float
    h_min_output: float
    epsilons: tuple[float, float, float, float]


def converse_check(state: StateOperator, ch: chan.Channel, eps: float,
                   eps1: float, eps2: float, eps3: float) -> ConverseReport:
    """Check the converse inequality for a channel on A at the given
    smoothing parameters.

    Requires || T(rho_AE) - T(rho_A) (x) rho_E ||_1 <= eps (verified
    numerically) and a trace-one Choi matrix.
    """
    if not ch.choi.is_normalized:
        raise DecouplingError("converse needs a channel with Choi trace one")
    if not state.is_normalized:
        raise DecouplingError("converse needs a normalized state")
    if eps1 <= 0 or eps2 < 0 or eps3 < 0:
        raise DecouplingError("smoothing parameters must satisfy eps1 > 0, eps2, eps3 >= 0")
    on = ["A"]
    refs = _references(state)
    out_full = chan.apply(ch, state, on)
    rho_a = partial_trace(state, on).permute(on)
    out_a = chan.apply(ch, rho_a, on)
    rho_e = partial_trace(state, refs).matrix if refs else np.eye(1)
    measured = trace_norm(out_full.matrix - np.kron(out_a.matrix, rho_e))
    if measured > eps + 1e-12:
        raise DecouplingError(
            f"decoupling precondition fails: measured {measured:.3e} > eps {eps:.3e}")

    smooth_param = eps1 + 2 * eps2 + eps3 + math.sqrt(2 * eps)
    if smooth_param >= 1.0:
        raise DecouplingError(f"total smoothing {smooth_param:.3f} is not below 1")

    # tilted Choi state: dim_in * sqrt(rho_A) J sqrt(rho_A), trace one for
    # trace-preserving channels
    root_a = sqrt_psd(rho_a.matrix)
    tilt = np.kron(root_a, np.eye(ch.dim_out))
    tau_mat = ch.dim_in * hermitian_part(tilt @ ch.choi.matrix @ tilt)
    tau = StateOperator(ch.choi.dims, tau_mat, validate=False)

    h_state = entropy.h_min_smooth(state, tuple(on), refs, smooth_param).value
    h_joint = entropy.h_max_smooth(tau, (chan.IN_LABEL, chan.OUT_LABEL),
                                   epsilon=eps2).value
    h_out = entropy.h_min_smooth(tau, (chan.OUT_LABEL,), epsilon=eps3).value
    lhs = h_state + h_joint - h_out
    rhs = -math.log2(2.0 / (eps1 * eps1))
    return ConverseReport(lhs, rhs, lhs >= rhs - 1e-6, measured, h_state,
                          h_joint, h_out, (eps, eps1, eps2, eps3))


def default_converse_epsilons(eps: float) -> tuple[float, float, float]:
    """Default smoothing split (sqrt(eps), 0, 2 sqrt(eps)), sqrt(eps) floored
    at 1e-3."""
    root = max(math.sqrt(max(eps, 0.0)), 1e-3)
    return root, 0.0, 2 * root


# ---------------------------------------------------------------------------
# randomized property suites for the proof ingredients
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    name: str
    trials: int
    failures: int
    worst_slack: float

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _rnd_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


_LEMMA_DIMS = (2, 3, 4)


def _swap_trick(rng: np.random.Generator, t: int) -> tuple[float, float]:
    """tr((M (x) N) F) = tr(MN) with F the swap: the error and its bound."""
    d = int(rng.choice(_LEMMA_DIMS))
    m, n = _rnd_matrix(rng, d), _rnd_matrix(rng, d)
    lhs = complex(np.trace(np.kron(m, n) @ swap_operator(d)))
    rhs = complex(np.trace(m @ n))
    return abs(lhs - rhs), 1e-10 * max(1.0, abs(rhs))


def _purity_ratio(rng: np.random.Generator, t: int) -> tuple[float, float]:
    """1/d_A <= tr xi^2 / tr xi_B^2 <= d_A: the violation and its bound."""
    da = int(rng.choice(_LEMMA_DIMS))
    db = int(rng.choice(_LEMMA_DIMS))
    g = _rnd_matrix(rng, da * db)
    xi = g @ g.conj().T
    xi_b = trace_out_leading(xi, da)
    ratio = float(np.trace(xi @ xi).real) / float(np.trace(xi_b @ xi_b).real)
    return max(1.0 / da - ratio, ratio - da, 0.0), 1e-10


def _weighted_trace_norm(rng: np.random.Generator, t: int) -> tuple[float, float]:
    """||M||_1 <= sqrt(tr sigma tr (sigma^-1/4 M sigma^-1/4)^2): the
    violation and its bound."""
    d = int(rng.choice(_LEMMA_DIMS))
    m = hermitian_part(_rnd_matrix(rng, d))
    g = _rnd_matrix(rng, d)
    sigma = g @ g.conj().T
    if t % 5 == 1:
        # adversarial near-singular weight, above the inverse cutoff
        w, v = np.linalg.eigh(sigma)
        w[0] = 1e-8 * w[-1]
        sigma = (v * w) @ v.conj().T
    elif t % 5 == 3 and d >= 3:
        # exactly singular weight with M inside its support
        w, v = np.linalg.eigh(sigma)
        w[0] = 0.0
        sigma = (v * w) @ v.conj().T
        proj = (v[:, 1:]) @ v[:, 1:].conj().T
        m = hermitian_part(proj @ m @ proj)
    tilt = psd_power(sigma, -0.25)
    rhs = math.sqrt(float(np.trace(sigma).real)
                    * float(np.trace((tilt @ m @ tilt) @ (tilt @ m @ tilt)).real))
    return trace_norm(m) - rhs, 1e-8


def verify_proof_lemmas(seed: haar.RngSeed | int, trials: int) -> dict[str, LemmaReport]:
    """Randomized checks of the swap trick, the two-copy purity ratio, and
    the weighted trace-norm bound on dimensions 2, 3 and 4, run one suite
    after the other from one generator.  Failures are reported, never
    raised.
    """
    rng = haar.generator(seed)
    reports: dict[str, LemmaReport] = {}
    for name, trial in (("swap_trick", _swap_trick), ("purity_ratio", _purity_ratio),
                        ("weighted_trace_norm", _weighted_trace_norm)):
        fails = 0
        worst = 0.0
        for t in range(trials):
            slack, bound = trial(rng, t)
            worst = max(worst, slack)
            if slack > bound:
                fails += 1
        reports[name] = LemmaReport(name, trials, fails, worst)
    return reports


# ---------------------------------------------------------------------------
# reference states
# ---------------------------------------------------------------------------

def independent_state(k: int, cap: int | None = None) -> StateOperator:
    """k uniformly random bits, uncorrelated with a maximally mixed
    reference of the same dimension."""
    d = 2 ** k
    check_cap(d * d, cap)  # before the d^2 x d^2 matrix is built
    mixed = np.eye(d) / d
    return StateOperator(Dims((("A", d), ("E", d))), np.kron(mixed, mixed), cap=cap)


def classical_state(k: int, cap: int | None = None) -> StateOperator:
    """k bits perfectly correlated with a classical reference register."""
    d = 2 ** k
    check_cap(d * d, cap)  # before the d^2 x d^2 matrix is built
    m = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        m[i * d + i, i * d + i] = 1.0 / d
    return StateOperator(Dims((("A", d), ("E", d))), m, cap=cap)


def entangled_state(k: int, cap: int | None = None) -> StateOperator:
    """k qubits maximally entangled with the reference."""
    return maximally_entangled("A", "E", 2 ** k, cap=cap).to_operator()
