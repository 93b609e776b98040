"""Seeded op lists for the benchmark workloads, with the checks on each output.

An op is one entropy query, one ``decouple run`` report or one merging seed.
A workload is one pass of ops built from the workload seed; the runner
repeats the pass, times each op on its own and runs its check afterwards,
outside the timed region.  Every call into the library goes through a module
attribute (``entropy.h_min``, ``cli.main``, ...) so that the traced run's
wrappers see it.

``shift`` is added to one expected value per workload.  It is 0 except in
the self-test, which plants a wrong expectation to prove the checks bite.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from qdecouple import channel, cli, decoupling, entropy, haar, linalg, merging

CERT_GAP_BITS = 1e-6
DUALITY_TOL = 1e-5
REFERENCE_TOL = 1e-6
SAMPLE_TOL = 1e-12
FIDELITY_SLACK = 1e-12
HEAVY_SEED = 0

Check = Callable[[Any, dict], list[str]]


@dataclass
class Op:
    name: str
    kind: str
    items: int
    call: Callable[[], Any]
    check: Check


@dataclass
class Workload:
    ops: list[Op]
    # untimed reference work done once before the first pass
    prepare: Callable[[], None] = lambda: None
    # checks over every result of the run, e.g. a mean over seeds
    finish: Callable[[dict], list[str]] = lambda results: []
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# entropy: certified entropy queries
# ---------------------------------------------------------------------------

def _value(res) -> float:
    return float(res) if isinstance(res, float) else float(res.value)


def _gap(res) -> float:
    return 0.0 if isinstance(res, float) else float(res.certificate_gap)


def _certified(res, done: dict) -> list[str]:
    if _gap(res) > CERT_GAP_BITS:
        return [f"certificate gap {_gap(res):.3e} bits > {CERT_GAP_BITS}"]
    return []


def _equals(want: float, tol: float) -> Check:
    def check(res, done):
        errs = _certified(res, done)
        if not abs(_value(res) - want) <= tol:
            errs.append(f"value {_value(res)!r} != reference {want!r}")
        return errs
    return check


def _dual_of(partner: str) -> Check:
    def check(res, done):
        errs = _certified(res, done)
        if partner not in done:
            return errs + [f"duality partner {partner} has no result"]
        total = _value(done[partner]) + _value(res)
        if not abs(total) <= DUALITY_TOL:
            errs.append(f"|h_min_smooth + h_max_smooth| = {abs(total):.3e} > {DUALITY_TOL}")
        return errs
    return check


def _above(partner: str) -> Check:
    """h2 of a state is at least its h_min (computed by ``partner``)."""
    def check(res, done):
        if partner not in done:
            return [f"h_min partner {partner} has no result"]
        if not _value(res) >= _value(done[partner]) - REFERENCE_TOL:
            return [f"h2 {_value(res)!r} < h_min {_value(done[partner])!r}"]
        return []
    return check


def entropy_workload(seed: int, tiny: bool, shift: float, workdir: str) -> Workload:
    """Certified entropy traffic of the kind criteria C4, C6, C7 and C8 generate.

    Sizes span about 300x in latency, from 0.04 s diagonal smoothing to
    seconds-long dense 4x4 smoothing, so the median follows the many small
    programs and the 90th percentile the few dense ones.
    """
    rng = np.random.default_rng(seed)
    ops: list[Op] = []

    def add(name, kind, call, check):
        ops.append(Op(name, kind, 1, call, check))

    # reference states with closed-form values (criterion C1)
    refs = (decoupling.independent_state, decoupling.classical_state,
            decoupling.entangled_state)
    for k in ((1,) if tiny else (1, 2, 3)):
        for build, want in zip(refs, (k, 0, -k)):
            st = build(k)
            tag = f"{build.__name__}{k}"
            add(f"hmin:{tag}", "hmin", lambda st=st: entropy.h_min(st, ("A",), ("E",)),
                _equals(want + shift, REFERENCE_TOL))
            add(f"vn:{tag}", "closed_form",
                lambda st=st: entropy.von_neumann(st, ("A",), ("E",)),
                _equals(want + shift, REFERENCE_TOL))

    # conditional h_min on random states, each paired with its h2
    for d in ((2,) if tiny else (2, 3, 4, 6)):
        st = linalg.random_density(rng, (("A", d), ("B", d)))
        add(f"hmin:rand{d}", "hmin", lambda st=st: entropy.h_min(st, ("A",), ("B",)),
            _certified)
        add(f"h2:rand{d}", "closed_form", lambda st=st: entropy.h2(st, ("A",), ("B",)),
            _above(f"hmin:rand{d}"))

    # duality pairs on random pure triples (criterion C8)
    shapes = ((("A", 2), ("B", 2), ("C", 2)),
              (("A", 2), ("B", 3), ("C", 2)),
              (("A", 3), ("B", 2), ("C", 2)))
    triples = 1 if tiny else 2
    for t in range(triples * len(shapes)):
        psi = linalg.random_pure(rng, shapes[t % len(shapes)])
        ab = linalg.pure_marginal(psi, ["A", "B"])
        ac = linalg.pure_marginal(psi, ["A", "C"])
        for eps in (0.0, 0.05):
            lo = f"dual{t}:{eps}:hmin"
            add(lo, "hmin_smooth",
                lambda ab=ab, eps=eps: entropy.h_min_smooth(ab, ("A",), ("B",), eps),
                _certified)
            add(f"dual{t}:{eps}:hmax", "hmax_smooth",
                lambda ac=ac, eps=eps: entropy.h_max_smooth(ac, ("A",), ("C",), eps),
                _dual_of(lo))

    # dense smoothing and the two-route max-entropy on random mixed states.
    # The 4x4 programs take two thirds of a pass, and their iteration count
    # (28 to 39 for dense smoothing) would move a pass by 10% from seed to
    # seed, so their states come from a fixed generator.
    fixed = np.random.default_rng(HEAVY_SEED)
    for d in ((2,) if tiny else (2, 3, 4)):
        gen = fixed if d == 4 else rng
        st = linalg.random_density(gen, (("A", d), ("B", d)))
        add(f"smooth_dense:{d}", "hmin_smooth_dense",
            lambda st=st: entropy.h_min_smooth(st, ("A",), ("B",), 0.05), _certified)
        st = linalg.random_density(gen, (("A", d), ("B", d)))
        add(f"hmax:{d}", "hmax", lambda st=st: entropy.h_max(st, ("A",), ("B",)),
            _certified)

    # diagonal smoothing on classically correlated states
    for k in ((2,) if tiny else (2, 3, 4)):
        st = decoupling.classical_state(k)
        for eps in (0.05, 0.005):
            add(f"smooth_diag:{k}:{eps}", "hmin_smooth_diag",
                lambda st=st, eps=eps: entropy.h_min_smooth(st, ("A",), ("E",), eps),
                _certified)

    # unconditional closed forms
    st = linalg.random_density(rng, (("A", 4), ("B", 2)))
    for fn in (entropy.h_min, entropy.h_max, entropy.h2, entropy.von_neumann):
        name = fn.__name__
        add(f"uncond:{name}", "closed_form",
            lambda st=st, name=name: getattr(entropy, name)(st, ("A", "B")),
            _certified)
    return Workload(ops)


# ---------------------------------------------------------------------------
# decouple: in-process `qdecouple decouple run` reports
# ---------------------------------------------------------------------------

@dataclass
class _Config:
    tag: str
    state: linalg.StateOperator
    channel: channel.Channel
    state_path: str
    channel_arg: str
    samples: int
    haar_seed: int


C5_SPECS = ("id+trace:4,1", "id+trace:4,3")
# (d_A, d_E, d_B, channel family): a fixed slice of criterion C3's sweep, so
# the per-sample cost is the same for every workload seed
C3_SLICE = ((2, 4, 2, "tp"), (3, 3, 4, "cpm"), (4, 4, 4, "tp"), (8, 2, 4, "cpm"))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _c5_configs(seed: int, samples: int, workdir: str) -> list[_Config]:
    state = decoupling.classical_state(4)
    path = os.path.join(workdir, "c5_state.json")
    _write_json(path, linalg.state_to_json(state))
    return [_Config(f"c5:{spec}", state, channel.parse_spec(spec), path, spec,
                    samples, seed) for spec in C5_SPECS]


def _c3_configs(seed: int, samples: int, tiny: bool, workdir: str) -> list[_Config]:
    rng = np.random.default_rng(seed)
    out = []
    for i, (d_a, d_e, d_b, family) in enumerate(C3_SLICE[:1] if tiny else C3_SLICE):
        state = linalg.random_density(rng, (("A", d_a), ("E", d_e)),
                                      rank=int(rng.integers(1, d_a * d_e + 1)))
        if family == "cpm":
            ch = channel.random_cpm(rng, d_a, d_b, trace=float(rng.uniform(0.3, 1.0)))
        else:
            env_min = -(-d_a // d_b)
            ch = channel.random_tp_channel(rng, d_a, d_b,
                                           env=int(rng.integers(env_min, env_min + 3)))
        state_path = os.path.join(workdir, f"c3_{i}_state.json")
        chan_path = os.path.join(workdir, f"c3_{i}_channel.json")
        _write_json(state_path, linalg.state_to_json(state))
        _write_json(chan_path, channel.channel_to_json(ch))
        out.append(_Config(f"c3:{d_a}x{d_e}->{d_b}:{family}", state, ch, state_path,
                           chan_path, samples, seed + 1 + i))
    return out


def _argv(cfg: _Config, workers: int, out: str) -> list[str]:
    return ["decouple", "run", "--state", cfg.state_path, "--channel", cfg.channel_arg,
            "--samples", str(cfg.samples), "--seed", str(cfg.haar_seed),
            "--workers", str(workers), "--out", out]


def _canonical(payload: dict) -> str:
    """Report text with only the fields that may differ across workers dropped."""
    rest = {k: v for k, v in payload.items() if k != "duration_s"}
    rest["config"] = {k: v for k, v in payload["config"].items() if k != "workers"}
    return json.dumps(rest, sort_keys=True)


def _report_check(cfg: _Config, out: str, shift: float,
                  reference: dict | None) -> Check:
    """Exit code, the non-smooth bound, spot-checked samples, worker invariance."""
    d_in = cfg.channel.dim_in
    picks = sorted({0, cfg.samples // 2, cfg.samples - 1})
    expected: dict[int, float] = {}

    def check(code, done):
        if code != 0:
            return [f"exit code {code}"]
        with open(out, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        rep = payload["result"]
        errs = []
        if not rep["empirical_mean"] <= rep["bound_nonsmooth"] + 3 * rep["std_error"]:
            errs.append(f"mean {rep['empirical_mean']} above bound {rep['bound_nonsmooth']}")
        if not expected:
            seed = haar.RngSeed(cfg.haar_seed)
            for i in picks:
                u = haar.haar_unitary_indexed(seed, i, d_in)
                expected[i] = decoupling.sample_distance(cfg.state, cfg.channel, u)
        dist = rep["per_sample_distances"]
        for i in picks:
            if not abs(dist[i] - (expected[i] + shift)) <= SAMPLE_TOL:
                errs.append(f"sample {i}: {dist[i]!r} != {expected[i] + shift!r}")
        if reference is not None and _canonical(payload) != reference.get(cfg.tag):
            errs.append("report differs from the workers=2 report")
        return errs
    return check


def decouple_workload(seed: int, tiny: bool, shift: float, workdir: str) -> Workload:
    """Every configuration at ``--workers 1``: criterion C5's pair and a C3 slice.

    The Haar sampler, the per-sample rotate/channel kernel and the trace norm
    (eigvalsh on 32x32 at m'=1, 128x128 at m'=3) do the work; no SDP runs
    because the non-smooth bound is closed form.  The C5 pair also runs once
    at ``--workers 2``, untimed, and each workers=1 report must equal it byte
    for byte after dropping ``duration_s`` and ``config.workers`` (C11).
    """
    samples = 20 if tiny else 400
    c5 = _c5_configs(seed, samples, workdir)
    configs = c5 + _c3_configs(seed, samples, tiny, workdir)
    reference: dict[str, str] = {}
    notes: dict = {}

    def prepare():
        start = time.perf_counter()
        for i, cfg in enumerate(c5):
            out = os.path.join(workdir, f"report_{i}_w2.json")
            if cli.main(_argv(cfg, 2, out)) == 0:
                with open(out, "r", encoding="utf-8") as fh:
                    reference[cfg.tag] = _canonical(json.load(fh))
        notes["w2_samples_per_s"] = len(c5) * samples / (time.perf_counter() - start)

    ops = []
    for i, cfg in enumerate(configs):
        out = os.path.join(workdir, f"report_{i}.json")
        argv = _argv(cfg, 1, out)
        check = _report_check(cfg, out, shift, reference if i < len(c5) else None)
        ops.append(Op(cfg.tag, "report", cfg.samples, lambda argv=argv: cli.main(argv),
                      check))
    return Workload(ops, prepare=prepare, notes=notes)


# ---------------------------------------------------------------------------
# merge: one `run_merging` call per Haar seed
# ---------------------------------------------------------------------------

def _cc_pure(k: int) -> linalg.PureState:
    """Classically correlated pure state sum_i |iii> / sqrt(d) on A, B, E."""
    d = 2 ** k
    amps = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        amps[i, i, i] = 1.0 / math.sqrt(d)
    return linalg.PureState(linalg.dims_of(("A", d), ("B", d), ("E", d)),
                            amps.reshape(-1))


def _cq_pure(p: tuple[float, ...]) -> linalg.PureState:
    """sum_{a,e} sqrt(p_ae) |a>|(a,e)>|e> on A:2, B:4, E:2; its A:E marginal is
    diagonal, so the cost bounds take the exact diagonal smoothing program."""
    amps = np.zeros((2, 4, 2), dtype=complex)
    for a in range(2):
        for e in range(2):
            amps[a, 2 * a + e, e] = math.sqrt(p[2 * a + e])
    return linalg.PureState(linalg.dims_of(("A", 2), ("B", 4), ("E", 2)),
                            amps.reshape(-1))


@dataclass
class _Instance:
    tag: str
    psi: linalg.PureState
    k_rank: int
    l_rank: int
    epsilon: float
    cap: int


def merge_workload(seed: int, tiny: bool, shift: float, workdir: str) -> Workload:
    """Three merging instances, one op per Haar seed.

    The C9 desk-scale companion (K=64) spends its time in one d=256 Haar
    unitary and a 256-outcome marginal/SVD decoder loop; the C11 instance is
    its small sibling; the ``cq`` instance at eps 0.06 makes ``cost_converse``
    solve its SDPs on every seed.  The instance states are fixed and the
    seed picks the Haar draws: the achievable bound smooths at eps^2/13, and
    on random states that program takes 50 to 600 iterations depending on
    the state (on a random pure A:4,B:2,E:4 state, the dense program at the
    200-iteration cap: 4 s per seed).
    """
    instances = [
        _Instance("c9", _cc_pure(2), 64, 1, 0.3, 1 << 19),
        _Instance("c11", _cc_pure(1), 8, 1, 0.3, 1 << 16),
        _Instance("cq", _cq_pure((0.5, 0.25, 0.125, 0.125)), 8, 2, 0.06, 1 << 16),
    ]
    # per round of Haar seeds: two c11 ops, two c9 ops and one cq op
    mix = ((instances[1], 2), (instances[0], 2), (instances[2], 1))
    rounds = 1 if tiny else 8
    realized: dict[str, float] = {}

    def realized_cost(inst: _Instance) -> float:
        if inst.tag not in realized:
            raw = merging.cost_achievable(inst.psi, ("A",), ("B",), inst.epsilon,
                                          realize=False)
            k_dim, l_dim = merging.realize_cost(raw, inst.psi.dims.dim_of("A"))
            realized[inst.tag] = math.log2(k_dim) - math.log2(l_dim)
        return realized[inst.tag]

    def check_for(inst: _Instance) -> Check:
        def check(res, done):
            errs = []
            p_sum = sum(p for _, p, _ in res.per_outcome)
            if not abs(p_sum - 1.0) <= 1e-9:
                errs.append(f"outcome probabilities sum to {p_sum!r}")
            fids = [f for _, _, f in res.per_outcome] + [res.fidelity]
            if not all(-FIDELITY_SLACK <= f <= 1.0 + FIDELITY_SLACK for f in fids):
                errs.append("a fidelity lies outside [0, 1]")
            want = realized_cost(inst) + shift
            if res.bound_achievable != want:
                errs.append(f"bound_achievable {res.bound_achievable!r} != "
                            f"realised cost {want!r}")
            return errs
        return check

    ops = []
    for r in range(rounds):
        for inst, count in mix:
            for j in range(count):
                hseed = seed * 1000 + 2 * r + j
                make = (lambda inst=inst, hseed=hseed: merging.MergingInstance(
                    inst.psi, inst.k_rank, inst.l_rank, inst.epsilon,
                    seed=haar.RngSeed(hseed), cap=inst.cap))
                ops.append(Op(f"{inst.tag}:{hseed}", f"seed_{inst.tag}", 1,
                              lambda make=make: merging.run_merging(make()),
                              check_for(inst)))

    def finish(results: dict) -> list[str]:
        """Companion mean fidelity at least 1 - eps^2/2 - 3 SE (criterion C9)."""
        fids = [r.fidelity for name, r in results.items() if name.startswith("c9:")]
        if len(fids) < 2:
            return []
        eps = instances[0].epsilon
        mean = float(np.mean(fids))
        se = float(np.std(fids, ddof=1) / math.sqrt(len(fids)))
        floor = 1.0 - 0.5 * eps * eps - 3.0 * se
        return [] if mean >= floor else [f"companion mean {mean:.5f} < {floor:.5f}"]

    return Workload(ops, finish=finish)


WORKLOADS: dict[str, Callable[[int, bool, float, str], Workload]] = {
    "entropy": entropy_workload,
    "decouple": decouple_workload,
    "merge": merge_workload,
}
