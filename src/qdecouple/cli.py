"""Batch command-line front end.

Subcommands: gen-state, gen-channel, entropy, decouple run, merge run,
lemmas check.  All structured output is JSON (per-sample vectors optionally
as CSV); every report embeds the seed, the parsed configuration, the library
version, and the wall-clock duration.  Exit codes: 0 success, 1 invariant or
assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import Sequence

import numpy as np

import qdecouple
from qdecouple import channel as chan
from qdecouple import decoupling, entropy, haar, merging
from qdecouple import linalg


def _apply_global_options(args: argparse.Namespace) -> None:
    """Resolve the dimension cap (flag, then environment, then default) and
    any tolerance overrides into the module constants; ``main`` restores the
    constants when the command returns."""
    if getattr(args, "cap", None) is None:
        env = os.environ.get("QDECOUPLE_DIM_CAP")
        if env:
            args.cap = int(env)
    if getattr(args, "tol_herm", None) is not None:
        linalg.TOL_HERM = args.tol_herm
    if getattr(args, "tol_psd", None) is not None:
        linalg.TOL_PSD = args.tol_psd
    if getattr(args, "tol_trace", None) is not None:
        linalg.TOL_TRACE = args.tol_trace


def _labels(arg: str | None) -> tuple[str, ...]:
    if not arg:
        return ()
    return tuple(part.strip() for part in arg.split(",") if part.strip())


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(command: str, config: dict, result: dict, seed: haar.RngSeed | None,
            started: float) -> dict:
    return {
        "command": command,
        "config": config,
        "version": qdecouple.__version__,
        "seed": seed.to_json() if seed is not None else None,
        "duration_s": time.time() - started,
        "result": result,
    }


# ---------------------------------------------------------------------------
# state and channel generators
# ---------------------------------------------------------------------------

def gen_state(kind: str, k: int, rho_e: str = "maximally-mixed",
              d_e: int | None = None, dims: str | None = None,
              seed: int = 0, cap: int | None = None) -> linalg.StateOperator:
    """Reference bipartite states on labels (A, E)."""
    if kind == "independent":
        d = 2 ** k
        de = d_e if d_e is not None else d
        if rho_e == "maximally-mixed":
            env = np.eye(de) / de
        elif rho_e == "pure0":
            env = np.zeros((de, de), dtype=complex)
            env[0, 0] = 1.0
        elif rho_e == "random":
            env = linalg.random_density(haar.generator(seed), (("E", de),)).matrix
        else:
            raise ValueError(f"unknown reference preparation {rho_e!r}")
        return decoupling.independent_state(k, env, cap=cap)
    if kind == "classical":
        return decoupling.classical_state(k, cap=cap)
    if kind == "entangled":
        return decoupling.entangled_state(k, cap=cap)
    if kind in ("random-mixed", "random-pure"):
        if not dims:
            raise ValueError("random states need --dims, e.g. A:2,E:3")
        pairs = []
        for part in dims.split(","):
            lab, _, dim = part.partition(":")
            pairs.append((lab.strip(), int(dim)))
        rng = haar.generator(seed)
        if kind == "random-mixed":
            return linalg.random_density(rng, pairs, cap=cap)
        return linalg.random_pure(rng, pairs, cap=cap).to_operator()
    raise ValueError(f"unknown state kind {kind!r}")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen_state(args: argparse.Namespace) -> int:
    state = gen_state(args.kind, args.k, args.rhoE, args.dE, args.dims,
                      args.seed, cap=args.cap)
    payload = linalg.state_to_json(state)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    else:
        print(json.dumps(payload))
    return 0


def _cmd_gen_channel(args: argparse.Namespace) -> int:
    ch = chan.parse_spec(args.spec, cap=args.cap)
    payload = chan.channel_to_json(ch)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    else:
        print(json.dumps(payload))
    return 0


def _load_state(path: str, cap: int | None) -> linalg.StateOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return linalg.state_from_json(json.load(fh), cap=cap)


def _load_channel(spec: str, cap: int | None) -> chan.Channel:
    if ":" in spec and not spec.endswith(".json"):
        return chan.parse_spec(spec, cap=cap)
    with open(spec, "r", encoding="utf-8") as fh:
        return chan.channel_from_json(json.load(fh), cap=cap)


def _cmd_entropy(args: argparse.Namespace) -> int:
    started = time.time()
    state = _load_state(args.state, args.cap)
    target = _labels(args.target)
    condition = _labels(args.condition)
    kind = args.kind
    note = None
    if kind == "vn":
        value, gap = entropy.von_neumann(state, target, condition), 0.0
    elif kind == "hmin":
        res = (entropy.h_min(state, target, condition) if args.epsilon == 0.0
               else entropy.h_min_smooth(state, target, condition, args.epsilon))
        value, gap = res.value, res.certificate_gap
    elif kind == "hmax":
        res = (entropy.h_max(state, target, condition) if args.epsilon == 0.0
               else entropy.h_max_smooth(state, target, condition, args.epsilon))
        value, gap = res.value, res.certificate_gap
    elif kind == "h2":
        res = entropy.h2(state, target, condition, optimize_sigma=args.optimize_sigma)
        value, gap = res.value, res.certificate_gap
        note = "lower bound on the conditioning supremum"
    else:
        raise ValueError(f"unknown entropy kind {kind!r}")
    result = {"value": value, "epsilon": args.epsilon, "kind": kind,
              "certificate_gap": gap}
    if note:
        result["note"] = note
    config = {"state": args.state, "kind": kind, "target": list(target),
              "condition": list(condition), "epsilon": args.epsilon}
    _emit(_report("entropy", config, result, None, started), args.out)
    return 0


def _cmd_decouple_run(args: argparse.Namespace) -> int:
    started = time.time()
    if args.csv and args.samples > decoupling.MAX_RETAINED_SAMPLES:
        print(f"error: --csv needs --samples <= {decoupling.MAX_RETAINED_SAMPLES}; "
              "larger runs do not retain per-sample distances", file=sys.stderr)
        return 2
    state = _load_state(args.state, args.cap)
    ch = _load_channel(args.channel, args.cap)
    seed = haar.RngSeed(args.seed, args.stream)
    exp = decoupling.DecouplingExperiment(
        state, ch, num_samples=args.samples, epsilon=args.epsilon, seed=seed,
        on=_labels(args.on) or ("A",))
    report = decoupling.run(exp, workers=args.workers)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.samples_csv())
    config = {"state": args.state, "channel": args.channel,
              "samples": args.samples, "epsilon": args.epsilon,
              "on": list(exp.on), "workers": args.workers}
    _emit(_report("decouple run", config, report.to_json(), seed, started), args.out)
    ok = report.empirical_mean <= report.bound_nonsmooth + 3 * report.std_error
    if not ok:
        print("error: empirical mean exceeds the non-smooth bound", file=sys.stderr)
        return 1
    return 0


def _cmd_merge_run(args: argparse.Namespace) -> int:
    started = time.time()
    with open(args.state, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    state = linalg.state_from_json(payload, cap=args.cap)
    w, v = np.linalg.eigh(linalg.hermitian_part(state.matrix))
    if w[-1] < 1.0 - 1e-7 or float(np.sum(w > 1e-9)) > 1:
        print("error: merge run needs a pure input state", file=sys.stderr)
        return 1
    psi = linalg.PureState(state.dims, v[:, -1] * math.sqrt(w[-1]), cap=args.cap)
    a_labels = _labels(args.a_labels) or ("A",)
    b_labels = _labels(args.b_labels) or ("B",)
    e_labels = _labels(args.e_labels) or ("E",)
    if args.K is not None and args.L is not None:
        k_dim, l_dim = args.K, args.L
    else:
        target_bits = merging.cost_achievable(psi, a_labels, b_labels, args.epsilon,
                                              realize=False)
        d_a = math.prod(psi.dims.dim_of(lab) for lab in a_labels)
        k_dim, l_dim = merging.realize_cost(target_bits, d_a)
    seeds = list(range(args.seed, args.seed + args.num_seeds))
    instances = [merging.MergingInstance(
        psi, k_dim, l_dim, args.epsilon, seed=haar.RngSeed(s, args.stream),
        a_labels=a_labels, b_labels=b_labels, e_labels=e_labels,
        cap=args.cap if args.cap is not None else 1 << 26) for s in seeds]
    # the bounds depend on the state and epsilon only: one pair of solves
    bounds = merging.cost_bounds(psi, a_labels, b_labels, args.epsilon)
    runs = [merging.run_merging(inst, bounds) for inst in instances]
    fidelities = [r.fidelity for r in runs]
    result = {
        "K": k_dim, "L": l_dim,
        "cost_bits": runs[0].cost_bits,
        "bound_achievable": runs[0].bound_achievable,
        "bound_converse": runs[0].bound_converse,
        "mean_fidelity": float(np.mean(fidelities)),
        "fidelities": fidelities,
        "decoupled_fraction": [r.decoupled_fraction for r in runs],
        "per_outcome": [r.to_json()["per_outcome"] for r in runs],
        "seeds": seeds,
    }
    config = {"state": args.state, "epsilon": args.epsilon, "K": k_dim,
              "L": l_dim, "seeds": seeds}
    _emit(_report("merge run", config, result,
                  haar.RngSeed(args.seed, args.stream), started), args.out)
    return 0


def _cmd_lemmas_check(args: argparse.Namespace) -> int:
    started = time.time()
    seed = haar.RngSeed(args.seed, args.stream)
    reports = decoupling.verify_proof_lemmas(seed, trials=args.trials)
    result = decoupling.lemma_report_json(reports)
    config = {"trials": args.trials}
    _emit(_report("lemmas check", config, result, seed, started), args.out)
    if not all(r.passed for r in reports.values()):
        print("error: lemma property suite reported violations", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecouple",
        description="Entropy computations, decoupling experiments, and "
                    "one-shot state merging on finite-dimensional states.")
    parser.add_argument("--version", action="version", version=qdecouple.__version__)

    # each subcommand registers only the flags its handler reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=None,
                        help="total-dimension cap (default "
                             f"{linalg.DIM_CAP}; env QDECOUPLE_DIM_CAP)")
    common.add_argument("--tol-herm", type=float, default=None,
                        help=f"Hermiticity tolerance (default {linalg.TOL_HERM})")
    common.add_argument("--tol-psd", type=float, default=None,
                        help=f"positivity tolerance (default {linalg.TOL_PSD})")
    common.add_argument("--tol-trace", type=float, default=None,
                        help=f"trace tolerance (default {linalg.TOL_TRACE})")
    common.add_argument("--out", default=None, help="write the JSON report here")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="base RNG seed recorded in the report (default 0)")
    seeded.add_argument("--stream", default="default",
                        help="named RNG stream (default 'default')")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-state", parents=[common],
                       help="emit a reference state as JSON")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("kind", choices=["independent", "classical", "entangled",
                                    "random-mixed", "random-pure"])
    p.add_argument("--k", type=int, default=1, help="number of qubits (default 1)")
    p.add_argument("--rhoE", default="maximally-mixed",
                   choices=["maximally-mixed", "pure0", "random"],
                   help="reference preparation for kind=independent")
    p.add_argument("--dE", type=int, default=None, help="reference dimension")
    p.add_argument("--dims", default=None, help="label:dim list for random kinds")
    p.set_defaults(func=_cmd_gen_state)

    p = sub.add_parser("gen-channel", parents=[common],
                       help="emit a builder channel as JSON")
    p.add_argument("spec", help="id:m | meas:m | erase:m | id+meas:m,m' | id+trace:m,m'")
    p.set_defaults(func=_cmd_gen_channel)

    p = sub.add_parser("entropy", parents=[common], help="entropy of a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--kind", required=True, choices=["vn", "hmin", "hmax", "h2"])
    p.add_argument("--target", required=True, help="comma-separated labels")
    p.add_argument("--condition", default="", help="comma-separated labels")
    p.add_argument("--epsilon", type=float, default=0.0,
                   help="smoothing parameter (default 0)")
    p.add_argument("--optimize-sigma", action="store_true",
                   help="run the conditioning ascent for kind=h2")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("decouple", help="decoupling experiments")
    dsub = p.add_subparsers(dest="subcommand", required=True)
    pr = dsub.add_parser("run", parents=[seeded, common], help="Monte Carlo experiment")
    pr.add_argument("--workers", type=_positive_int, default=1,
                    help="worker threads; results are worker-count invariant "
                         "(default 1)")
    pr.add_argument("--state", required=True)
    pr.add_argument("--channel", required=True,
                    help="builder spec like id+trace:4,1 or a channel JSON file")
    pr.add_argument("--samples", type=int, default=1000)
    pr.add_argument("--epsilon", type=float, default=0.0)
    pr.add_argument("--on", default="A", help="input labels (default A)")
    pr.add_argument("--csv", default=None, help="write per-sample distances here")
    pr.set_defaults(func=_cmd_decouple_run)

    p = sub.add_parser("merge", help="state-merging experiments")
    msub = p.add_subparsers(dest="subcommand", required=True)
    pm = msub.add_parser("run", parents=[seeded, common],
                         help="run the merging protocol")
    pm.add_argument("--state", required=True, help="pure tripartite state JSON")
    pm.add_argument("--epsilon", type=float, required=True)
    pm.add_argument("--num-seeds", type=_positive_int, default=1)
    pm.add_argument("--K", type=int, default=None)
    pm.add_argument("--L", type=int, default=None)
    pm.add_argument("--a-labels", default="A")
    pm.add_argument("--b-labels", default="B")
    pm.add_argument("--e-labels", default="E")
    pm.set_defaults(func=_cmd_merge_run)

    p = sub.add_parser("lemmas", help="randomized proof-ingredient suites")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pl = lsub.add_parser("check", parents=[seeded])
    pl.add_argument("--out", default=None, help="write the JSON report here")
    pl.add_argument("--trials", type=_positive_int, default=200)
    pl.set_defaults(func=_cmd_lemmas_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved = (linalg.TOL_HERM, linalg.TOL_PSD, linalg.TOL_TRACE)
    try:
        _apply_global_options(args)
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        linalg.TOL_HERM, linalg.TOL_PSD, linalg.TOL_TRACE = saved


if __name__ == "__main__":
    sys.exit(main())
