"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
captured output).  Derived thresholds were computed by the stated independent
oracles and frozen here; the generating configurations are recorded next to
the frozen numbers.
"""

import json
import math
import time

import numpy as np
import pytest

from qdecouple import channel as chan
from qdecouple import decoupling as dec
from qdecouple import entropy as ent
from qdecouple import haar
from qdecouple import merging as mg
from qdecouple import sdp
from qdecouple.cli import main as cli_main
from qdecouple.decoupling import classical_state, entangled_state, independent_state
from qdecouple.linalg import (
    PureState,
    StateOperator,
    dims_of,
    partial_trace,
    pure_marginal,
    random_density,
    random_pure,
    tensor,
    trace_norm,
)

from conftest import kraus_of, tensor_pure


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# C1: reference-state min-entropies
# ---------------------------------------------------------------------------

def test_c01_reference_state_table():
    start = time.monotonic()
    worst = 0.0
    for k in (1, 2, 3):
        cases = [(independent_state(k), float(k)),
                 (classical_state(k), 0.0),
                 (entangled_state(k), float(-k))]
        for state, want in cases:
            got = ent.h_min(state, ("A",), ("E",)).value
            worst = max(worst, abs(got - want))
            assert got == pytest.approx(want, abs=1e-6)
    elapsed = time.monotonic() - start
    report("C1", True, f"9 builder values within 1e-6 (worst {worst:.2e}), {elapsed:.1f}s")
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# C2: channel-family Choi-state entropies
# ---------------------------------------------------------------------------

def test_c02_channel_family_table():
    start = time.monotonic()
    cases = []
    for m in (1, 2, 3):
        cases.append(("id", m, None, float(-m)))
        cases.append(("meas", m, None, 0.0))
        cases.append(("erase", m, None, float(m)))
        for mp in range(m + 1):
            cases.append(("id+meas", m, mp, float(-mp)))
            cases.append(("id+trace", m, mp, float(m - 2 * mp)))
    worst_hmin = worst_flat = 0.0
    for kind, m, mp, want in cases:
        ch = chan.reference_channel(kind, m, mp)
        tau = ch.choi
        hmin = ent.h_min(tau, (chan.IN_LABEL,), (ch.out_label,)).value
        worst_hmin = max(worst_hmin, abs(hmin - want))
        assert hmin == pytest.approx(want, abs=1e-6)
        flat = (ent.h_max(tau, (chan.IN_LABEL, ch.out_label)).value
                - ent.h_min(tau, (ch.out_label,)).value)
        worst_flat = max(worst_flat, abs(flat - want))
        assert flat == pytest.approx(want, abs=1e-6)
    elapsed = time.monotonic() - start
    report("C2", True, f"{len(cases)} channel values within 1e-6 "
                       f"(worst {worst_hmin:.2e} / flat {worst_flat:.2e}), {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# C3: non-smooth bound soundness sweep
# ---------------------------------------------------------------------------

def test_c03_nonsmooth_bound_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(300)
    holds = 0
    margins = []
    for trial in range(30):
        d_a = int(rng.choice([2, 2, 3, 4, 8]))
        d_e = int(rng.choice([2, 3, 4] if d_a >= 8 else [2, 3, 4, 8]))
        d_b = int(rng.choice([2, 3, 4, 8]))
        state = random_density(rng, (("A", d_a), ("E", d_e)),
                               rank=int(rng.integers(1, d_a * d_e + 1)))
        if trial % 3 == 0:
            ch = chan.random_cpm(rng, d_a, d_b, trace=float(rng.uniform(0.3, 1.0)))
        else:
            env_min = max(1, -(-d_a // d_b))  # ceil(d_a / d_b)
            ch = chan.random_tp_channel(rng, d_a, d_b,
                                        env=int(rng.integers(env_min, env_min + 3)))
        exp = dec.DecouplingExperiment(state, ch, 2000, seed=haar.RngSeed(trial))
        rep = dec.run(exp, workers=4)
        margin = rep.bound_nonsmooth + 3 * rep.std_error - rep.empirical_mean
        margins.append(margin)
        if margin >= 0:
            holds += 1
    elapsed = time.monotonic() - start
    report("C3", holds == 30,
           f"{holds}/30 instances sound (min margin {min(margins):.3f}), {elapsed:.0f}s")
    assert holds == 30
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# C4: smooth bound soundness sweep
# ---------------------------------------------------------------------------

def test_c04_smooth_bound_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(400)
    checks = fails = 0
    for trial in range(15):
        d_a = int(rng.choice([2, 3]))
        d_e = int(rng.choice([2, 3]))
        d_b = int(rng.choice([2, 3]))
        state = random_density(rng, (("A", d_a), ("E", d_e)))
        if trial % 5 == 4:
            # trace-non-increasing channel exercises subnormalized smoothing
            kraus = kraus_of(chan.random_tp_channel(rng, d_a, d_b))
            scale = float(rng.uniform(0.85, 0.99))
            ch = chan.choi_of([math.sqrt(scale) * k for k in kraus])
        else:
            ch = chan.random_tp_channel(rng, d_a, d_b, env=int(rng.integers(1, 4)))
        rep = dec.run(dec.DecouplingExperiment(state, ch, 2000,
                                               seed=haar.RngSeed(4000 + trial)),
                      workers=4)
        for eps in (0.0, 0.02, 0.05):
            bound = dec.bound_smooth(state, ch, eps)
            checks += 1
            if rep.empirical_mean > bound + 3 * rep.std_error:
                fails += 1
    elapsed = time.monotonic() - start
    report("C4", fails == 0, f"{checks - fails}/{checks} bound checks sound, {elapsed:.0f}s")
    assert fails == 0
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# C5: worked example, frozen Monte Carlo thresholds
# ---------------------------------------------------------------------------

# Frozen from the stated oracle: direct Monte Carlo, n = 10^4 Haar samples,
# seed 2026, four classically-correlated qubits through keep-m' channels
# (means +- 3 sigma):
#   m' = 1: 0.393007 +- 0.001177
#   m' = 3: 1.500282 +- 0.000031
# The criterion's inline estimate 0.15 for m' = 1 is not attainable under the
# unhalved trace-norm convention (the entropy bound itself is 0.5); the
# derived-and-frozen thresholds govern, per the criterion's own instruction.
FROZEN_C5 = {1: (0.391830, 0.394184), 3: (1.500251, 1.500312)}


def test_c05_worked_example_monotone_decoupling():
    start = time.monotonic()
    state = classical_state(4)
    means = {}
    for mp in (1, 3):
        ch = chan.reference_channel("id+trace", 4, mp)
        exp = dec.DecouplingExperiment(state, ch, 10_000, seed=haar.RngSeed(2026))
        rep = dec.run(exp, workers=4)
        means[mp] = rep.empirical_mean
        lo, hi = FROZEN_C5[mp]
        assert lo <= rep.empirical_mean <= hi
        assert rep.empirical_mean <= rep.bound_nonsmooth + 3 * rep.std_error
    assert means[3] > 0.5          # correlation necessarily retained
    assert means[1] < means[3]     # decoupling improves below half the qubits
    assert means[1] < 0.5          # below the keep-1 entropy bound
    elapsed = time.monotonic() - start
    report("C5", True, f"means m'=1: {means[1]:.4f}, m'=3: {means[3]:.4f} "
                       f"within frozen bands, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# C6: converse inequality checker
# ---------------------------------------------------------------------------

def _converse_instances(rng):
    """20 (state, channel) pairs satisfying the decoupling precondition."""
    out = []
    for i in range(8):
        prod = tensor(random_density(rng, (("A", 2),)),
                      random_density(rng, (("E", 2),)))
        ch = (chan.random_tp_channel(rng, 2, 2) if i % 2 == 0
              else chan.reference_channel("meas", 1))
        out.append((prod, ch))
    for k in (1, 2):
        out.append((classical_state(k), chan.reference_channel("erase", k)))
        out.append((entangled_state(k), chan.reference_channel("erase", k)))
    for lam in (0.005, 0.01, 0.02, 0.03):
        prod = tensor(random_density(rng, (("A", 2),)),
                      random_density(rng, (("E", 2),)))
        corr = classical_state(1).permute(prod.labels)
        mixed = StateOperator(prod.dims,
                              (1 - lam) * prod.matrix + lam * corr.matrix)
        out.append((mixed, chan.identity_channel(2)))
        out.append((mixed, chan.reference_channel("meas", 1)))
    return out


def test_c06_converse_checker():
    start = time.monotonic()
    rng = np.random.default_rng(600)
    instances = _converse_instances(rng)
    assert len(instances) == 20
    holds = 0
    worst_slack = np.inf
    for state, ch in instances:
        on = ("A",)
        out_full = chan.apply(ch, state, on)
        rho_a = partial_trace(state, on)
        out_a = chan.apply(ch, rho_a, on)
        rho_e = partial_trace(state, ["E"]).matrix
        measured = trace_norm(out_full.matrix - np.kron(out_a.matrix, rho_e))
        e1, e2, e3 = dec.default_converse_epsilons(measured)
        rep = dec.converse_check(state, ch, eps=measured + 1e-12,
                                 eps1=e1, eps2=e2, eps3=e3)
        worst_slack = min(worst_slack, rep.lhs - rep.rhs)
        if rep.holds:
            holds += 1
    elapsed = time.monotonic() - start
    report("C6", holds == 20,
           f"{holds}/20 converse checks hold (min slack {worst_slack:.3f} bits), {elapsed:.0f}s")
    assert holds == 20


# ---------------------------------------------------------------------------
# C7: lemma property suites
# ---------------------------------------------------------------------------

def test_c07_lemma_property_suites():
    start = time.monotonic()
    rng = np.random.default_rng(700)
    lines = []

    core = dec.verify_proof_lemmas(haar.RngSeed(700), trials=200)
    for name, rep in core.items():
        assert rep.passed, name
        lines.append(f"{name} 200/200")

    # collision entropy dominates min-entropy
    for _ in range(30):
        st = random_density(rng, (("A", 2), ("B", 2)), rank=int(rng.integers(1, 5)))
        assert (ent.h2(st, ("A",), ("B",)).value
                >= ent.h_min(st, ("A",), ("B",)).value - 1e-6)
    lines.append("collision>=min 30/30")

    # superadditivity of smooth min-entropy on product states
    for trial in range(30):
        small = trial % 3 != 0
        a = random_density(rng, (("A", 2), ("B", 2)))
        b = (random_density(rng, (("A2", 2), ("B2", 1))) if small
             else random_density(rng, (("A2", 2), ("B2", 2))))
        e1, e2 = float(rng.uniform(0.03, 0.1)), float(rng.uniform(0.03, 0.1))
        lhs = ent.h_min_smooth(tensor(a, b), ("A", "A2"), ("B", "B2"), e1 + e2).value
        rhs = (ent.h_min_smooth(a, ("A",), ("B",), e1).value
               + ent.h_min_smooth(b, ("A2",), ("B2",), e2).value)
        assert lhs >= rhs - 1e-5
    lines.append("superadditivity 30/30")

    # dimension bounds
    for _ in range(30):
        st = random_density(rng, (("A", 3), ("B", 2)))
        assert ent.h_min(st, ("A",), ("B",)).value >= -1.0 - 1e-6
    for _ in range(30):
        st = random_density(rng, (("A", 2), ("B", 2), ("C", 2)))
        eps = float(rng.uniform(0.0, 0.1))
        lhs = ent.h_min_smooth(st, ("A", "B"), ("C",), eps).value
        rhs = ent.h_min_smooth(st, ("A",), ("C",), eps).value + 1.0
        assert lhs <= rhs + 1e-6
    lines.append("dimension bounds 60/60")

    # block formula for states classical on the conditioning register
    for _ in range(30):
        nb = int(rng.integers(2, 4))
        probs = rng.dirichlet(np.ones(nb))
        blocks = [random_density(rng, (("A", 2), ("B", 2))) for _ in range(nb)]
        mat = np.zeros((4 * nb, 4 * nb), dtype=complex)
        for x, (p, blk) in enumerate(zip(probs, blocks)):
            proj = np.zeros((nb, nb))
            proj[x, x] = 1.0
            mat += p * np.kron(blk.matrix, proj)
        cq = StateOperator(dims_of(("A", 2), ("B", 2), ("X", nb)), mat)
        lhs = ent.h_min(cq, ("A",), ("B", "X")).value
        rhs = -math.log2(sum(p * 2.0 ** (-ent.h_min(blk, ("A",), ("B",)).value)
                             for p, blk in zip(probs, blocks)))
        assert lhs == pytest.approx(rhs, abs=1e-5)
    lines.append("block formula 30/30")

    # chain rule
    for _ in range(30):
        st = random_density(rng, (("A", 2), ("B", 2), ("C", 2)))
        e = float(rng.uniform(0.08, 0.2))
        e1 = float(rng.uniform(0.02, 0.08))
        e2 = float(rng.uniform(0.02, 0.08))
        lhs = ent.h_min_smooth(st, ("A", "B"), ("C",), e + 2 * e1 + e2).value
        rhs = (ent.h_min_smooth(st, ("A",), ("B", "C"), e1).value
               + ent.h_min_smooth(st, ("B",), ("C",), e2).value
               - math.log2(2.0 / (e * e)))
        assert lhs >= rhs - 1e-5
    lines.append("chain rule 30/30")

    # metric inequalities between fidelity and trace distance
    from qdecouple.linalg import fidelity, purified_distance, trace_distance
    for _ in range(200):
        a = random_density(rng, (("A", 3),), rank=int(rng.integers(1, 4)))
        b = random_density(rng, (("A", 3),), rank=int(rng.integers(1, 4)))
        f = fidelity(a, b)
        assert 1 - f <= 0.5 * trace_distance(a, b) + 1e-9
        assert 0.5 * trace_distance(a, b) <= purified_distance(a, b) + 1e-9
    lines.append("metric inequalities 200/200")

    # extension map post-conditions, including rank-deficient inputs
    from qdecouple.linalg import extension_map
    for trial in range(100):
        rank = int(rng.integers(2, 9)) if trial % 2 == 0 else 8
        st = random_density(rng, (("A", 4), ("B", 2)), rank=rank)
        rho_a = partial_trace(st, ["A"])
        w, v = np.linalg.eigh(rho_a.matrix)
        keep = v[:, w > 1e-12 * w[-1]]
        raw = random_density(rng, (("A", keep.shape[1]),)).matrix
        sig = keep @ raw @ keep.conj().T
        sigma_a = StateOperator(dims_of(("A", 4)), sig / np.trace(sig).real)
        _, ext = extension_map(st, sigma_a)
        assert trace_norm(partial_trace(ext, ["A"]).matrix - sigma_a.matrix) <= 1e-9
        assert (purified_distance(st, ext)
                == pytest.approx(purified_distance(rho_a, sigma_a), abs=1e-8))
    lines.append("extension map 100/100")

    elapsed = time.monotonic() - start
    report("C7", True, "; ".join(lines) + f", {elapsed:.0f}s")
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# C8: duality cross-check
# ---------------------------------------------------------------------------

def test_c08_duality_cross_check():
    start = time.monotonic()
    rng = np.random.default_rng(800)
    worst = 0.0
    for trial in range(30):
        shape = [(("A", 2), ("B", 2), ("C", 2)),
                 (("A", 2), ("B", 3), ("C", 2)),
                 (("A", 3), ("B", 2), ("C", 2))][trial % 3]
        psi = random_pure(rng, shape)
        for eps in (0.0, 0.05):
            hmin = ent.h_min_smooth(pure_marginal(psi, ["A", "B"]),
                                    ("A",), ("B",), eps).value
            # independent route: reduce to (A, C) and purify afresh
            hmax = ent.h_max_smooth(pure_marginal(psi, ["A", "C"]),
                                    ("A",), ("C",), eps).value
            worst = max(worst, abs(hmin + hmax))
            assert hmin == pytest.approx(-hmax, abs=1e-5)
    elapsed = time.monotonic() - start
    report("C8", True, f"30 triples x eps in (0, 0.05), worst |diff| {worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# C9: state merging end to end
# ---------------------------------------------------------------------------

def _cc_pure(k: int) -> PureState:
    d = 2 ** k
    amps = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        amps[i, i, i] = 1.0 / math.sqrt(d)
    return PureState(dims_of(("A", d), ("B", d), ("E", d)), amps.reshape(-1))


def test_c09_merging_at_achievability_cost_as_stated():
    """Criterion as stated: execute the protocol at the achievable cost for
    the two-bit classically-correlated state at error 0.3.

    The achievability formula's additive slack (-4 log2(0.3) + 2 log2(13) =
    14.35 bits) forces K = 2^15, a 2^17-dimensional sender register.  The
    run goes through per-outcome marginals and Haar row blocks, which hold
    one 2^17 x L block per draw instead of the 2^36-amplitude protocol state
    and the full Haar unitary.  The converse bound is vacuous at error 0.3:
    its smoothing parameter 4 sqrt(0.3) exceeds one, so ``cost_converse``
    refuses it.
    """
    start = time.monotonic()
    psi = _cc_pure(2)
    eps = 0.3
    target_bits = mg.cost_achievable(psi, ("A",), ("B",), eps)
    k_dim, l_dim = mg.realize_cost(target_bits, 4)
    assert (k_dim, l_dim) == (1 << 15, 1)
    est = mg.estimate_merging_fidelity(
        mg.MergingInstance(psi, k_dim, l_dim, eps, cap=1 << 19), draws=20)
    target = 1 - 0.5 * eps * eps
    assert est.fidelity >= target - 3 * est.std_err
    raw_bits = mg.cost_achievable(psi, ("A",), ("B",), eps, realize=False)
    realized = math.log2(k_dim) - math.log2(l_dim)
    assert est.cost_bits == realized
    assert realized >= target_bits >= raw_bits
    with pytest.raises(mg.MergingError):
        mg.cost_converse(psi, ("A",), ("B",), eps)
    elapsed = time.monotonic() - start
    report("C9", True,
           f"mean fidelity {est.fidelity:.7f} (SE {est.std_err:.1e}, 20 Haar "
           f"draws) >= {target} - 3SE at K={k_dim}, L={l_dim}, cost "
           f"{realized:.0f} >= bound {raw_bits:.2f} bits; converse vacuous "
           f"at eps=0.3, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_c09_merging_desk_scale_companion():
    start = time.monotonic()
    psi = _cc_pure(2)
    eps = 0.3
    k_dim, l_dim = 64, 1  # largest power-of-two cost with in-cap registers
    fidelities = []
    for seed in range(20):
        res = mg.run_merging(mg.MergingInstance(
            psi, k_dim, l_dim, eps, seed=haar.RngSeed(seed), cap=1 << 19))
        fidelities.append(res.fidelity)
    mean = float(np.mean(fidelities))
    std_err = float(np.std(fidelities, ddof=1) / math.sqrt(len(fidelities)))
    target = 1 - 0.5 * eps * eps
    assert mean >= target - 3 * std_err
    # converse bound at the largest error with a defined converse
    eps_conv = 0.06
    con = mg.cost_converse(psi, ("A",), ("B",), eps_conv)
    realized = math.log2(k_dim) - math.log2(l_dim)
    assert con <= realized + 1e-9

    # finite-copy trend of the achievable cost rate toward H(A|B)
    beta = _cc_pure(1)
    h_vn = ent.von_neumann(beta.to_operator(), ("A",), ("B",))
    state = None
    rates = []
    for n in (1, 2, 3):
        piece = beta.relabel({"A": f"A{n}", "B": f"B{n}", "E": f"E{n}"})
        state = piece if state is None else tensor_pure(state, piece)
        labels_a = tuple(f"A{i}" for i in range(1, n + 1))
        labels_b = tuple(f"B{i}" for i in range(1, n + 1))
        rates.append(mg.cost_achievable(state, labels_a, labels_b, eps,
                                        realize=False) / n)
    assert rates[0] > rates[1] > rates[2] >= h_vn - 1e-6
    elapsed = time.monotonic() - start
    report("C9-companion", True,
           f"mean fidelity {mean:.5f} >= {target} - 3SE at cost 6 bits; "
           f"converse {con:.2f} <= 6; rate trend {[round(r, 3) for r in rates]} "
           f"-> H(A|B) = {h_vn}, {elapsed:.0f}s")
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# C10: solver certification
# ---------------------------------------------------------------------------

def test_c10_solver_certification():
    start = time.monotonic()
    rng = np.random.default_rng(1000)

    def rnd_herm(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return (g + g.conj().T) / 2

    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(10, n * n) + 1))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x_int = g @ g.conj().T + 0.1 * np.eye(n)
        amats = [rnd_herm(n) for _ in range(m)]
        y_int = rng.standard_normal(m)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        cmat = g @ g.conj().T + 0.1 * np.eye(n) + sum(
            y_int[i] * amats[i] for i in range(m))
        build = sdp.ProblemBuilder()
        blk = build.add_block(n, cmat)
        for a in amats:
            build.add_constraint({blk: a}, float(np.trace(a @ x_int).real))
        sol = sdp.solve(build.build())
        assert sol.status is sdp.SdpStatus.OPTIMAL
        rel = abs(sol.gap) / (1 + abs(sol.primal_obj))
        worst = max(worst, rel)
        assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal_obj))
    elapsed = time.monotonic() - start
    report("C10", True, f"100/100 certified (worst relative gap {worst:.2e}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# C11: byte-level reproducibility
# ---------------------------------------------------------------------------

def test_c11_reproducibility(tmp_path, capsys):
    start = time.monotonic()
    state_path = tmp_path / "state.json"
    assert cli_main(["gen-state", "classical", "--k", "2",
                     "--out", str(state_path)]) == 0
    payloads = []
    for idx, workers in enumerate((1, 4, 1)):
        out = tmp_path / f"r{idx}.json"
        code = cli_main(["decouple", "run", "--state", str(state_path),
                         "--channel", "id+trace:2,1", "--samples", "500",
                         "--seed", "11", "--workers", str(workers),
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        payload.pop("duration_s")
        payload["config"].pop("workers")
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]

    from qdecouple.linalg import state_to_json
    pure_path = tmp_path / "pure.json"
    pure_path.write_text(json.dumps(state_to_json(
        _cc_pure(1).to_operator(validate=True))))
    merges = []
    for idx in range(2):
        out = tmp_path / f"m{idx}.json"
        code = cli_main(["merge", "run", "--state", str(pure_path),
                         "--epsilon", "0.3", "--K", "8", "--L", "1",
                         "--num-seeds", "2", "--seed", "4", "--cap", "65536",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        payload.pop("duration_s")
        merges.append(json.dumps(payload, sort_keys=True))
    assert merges[0] == merges[1]
    capsys.readouterr()
    elapsed = time.monotonic() - start
    report("C11", True, f"decouple (workers 1/4/1) and merge reports byte-identical, {elapsed:.0f}s")
