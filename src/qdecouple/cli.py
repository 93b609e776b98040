"""Batch command-line front end.

Subcommands: gen-state, gen-channel, entropy, decouple run, merge run,
lemmas check.  All structured output is JSON (per-sample vectors optionally
as CSV); every report embeds the seed, the parsed configuration, the library
version, and the wall-clock duration.  Exit codes: 0 success, 1 invariant or
assertion failure, 2 usage error.  Handlers return on success and raise
otherwise; ``main`` alone writes the ``error:`` line and picks the code.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import Sequence

import numpy as np

import qdecouple
from qdecouple import channel as chan
from qdecouple import decoupling, entropy, haar, merging
from qdecouple import linalg


def _emit(text: str, out: str | None) -> None:
    """Write serialized JSON and a newline to ``out``, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(command: str, config: dict, result: dict, seed: haar.RngSeed | None,
            started: float) -> str:
    """A subcommand's report as indented JSON with sorted keys."""
    return json.dumps({
        "command": command,
        "config": config,
        "version": qdecouple.__version__,
        "seed": seed.to_json() if seed is not None else None,
        "duration_s": time.time() - started,
        "result": result,
    }, indent=2, sort_keys=True)


class _UsageError(Exception):
    """A flag combination the parser cannot reject on its own (exit 2)."""


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

_FIXED_STATES = {"independent": decoupling.independent_state,
                 "classical": decoupling.classical_state,
                 "entangled": decoupling.entangled_state}


def _cmd_gen_state(args: argparse.Namespace) -> None:
    """Reference bipartite states on labels (A, E): the fixed kinds on k
    qubits each, the random kinds on the (label, dim) pairs of --dims."""
    fixed = _FIXED_STATES.get(args.kind)
    if args.seed is not None and fixed:
        raise _UsageError(f"--seed draws the random kinds only; {args.kind} takes none")
    if args.k is not None and not fixed:
        raise _UsageError(f"--k sizes the fixed kinds only; {args.kind} takes --dims")
    if (args.dims is None) != bool(fixed):
        raise _UsageError(f"--dims shapes the random kinds only; {args.kind} takes none"
                          if fixed else f"{args.kind} needs --dims, e.g. A:2,E:3")
    if fixed:
        state = fixed(1 if args.k is None else args.k, cap=args.cap)
    elif args.kind == "random-mixed":
        state = linalg.random_density(haar.generator(args.seed or 0), args.dims,
                                      cap=args.cap)
    else:
        state = linalg.random_pure(haar.generator(args.seed or 0), args.dims,
                                   cap=args.cap).to_operator()
    _emit(json.dumps(linalg.state_to_json(state)), args.out)


def _cmd_gen_channel(args: argparse.Namespace) -> None:
    ch = chan.parse_spec(args.spec, cap=args.cap)
    _emit(json.dumps(chan.channel_to_json(ch)), args.out)


def _load_state(path: str, cap: int | None) -> linalg.StateOperator:
    # the parsed lists are dropped before validation, which copies the matrix
    with open(path, "r", encoding="utf-8") as fh:
        dims, matrix = linalg.parse_state_json(json.load(fh), cap)
    return linalg.StateOperator(dims, matrix, validate=True, cap=cap)


def _load_channel(spec: str, cap: int | None) -> chan.Channel:
    if ":" in spec and not spec.endswith(".json"):
        return chan.parse_spec(spec, cap=cap)
    with open(spec, "r", encoding="utf-8") as fh:
        return chan.channel_from_json(json.load(fh), cap=cap)


def _cmd_entropy(args: argparse.Namespace) -> None:
    started = time.time()
    kind = args.kind
    if kind in ("vn", "h2") and args.epsilon > 0:
        raise _UsageError(f"--epsilon smooths hmin and hmax only; --kind {kind} "
                          "takes none")
    state = _load_state(args.state, args.cap)
    target, condition = args.target, args.condition
    note = None
    if kind == "vn":
        value, gap = entropy.von_neumann(state, target, condition), 0.0
    elif kind == "hmin":
        res = entropy.h_min_smooth(state, target, condition, args.epsilon)
        value, gap = res.value, res.certificate_gap
    elif kind == "hmax":
        res = entropy.h_max_smooth(state, target, condition, args.epsilon)
        value, gap = res.value, res.certificate_gap
    else:  # h2
        res = entropy.h2(state, target, condition)
        value, gap = res.value, res.certificate_gap
        note = "lower bound on the conditioning supremum"
    result = {"value": value, "epsilon": args.epsilon, "kind": kind,
              "certificate_gap": gap}
    if note:
        result["note"] = note
    config = {"state": args.state, "kind": kind, "target": list(target),
              "condition": list(condition), "epsilon": args.epsilon}
    _emit(_report("entropy", config, result, None, started), args.out)


def _cmd_decouple_run(args: argparse.Namespace) -> None:
    started = time.time()
    if args.csv and args.samples > decoupling.MAX_RETAINED_SAMPLES:
        raise _UsageError(f"--csv needs --samples <= {decoupling.MAX_RETAINED_SAMPLES}; "
                          "larger runs do not retain per-sample distances")
    state = _load_state(args.state, args.cap)
    ch = _load_channel(args.channel, args.cap)
    seed = haar.RngSeed(args.seed)
    exp = decoupling.DecouplingExperiment(
        state, ch, num_samples=args.samples, epsilon=args.epsilon, seed=seed)
    report = decoupling.run(exp, workers=args.workers)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.samples_csv())
    config = {"state": args.state, "channel": args.channel,
              "samples": args.samples, "epsilon": args.epsilon,
              "on": ["A"], "workers": args.workers}
    # the report is written either way; a mean above the bound then fails
    _emit(_report("decouple run", config, report.to_json(), seed, started), args.out)
    if not report.empirical_mean <= report.bound_nonsmooth + 3 * report.std_error:
        raise RuntimeError("empirical mean exceeds the non-smooth bound")


def _cmd_merge_run(args: argparse.Namespace) -> None:
    started = time.time()
    if (args.K is None) != (args.L is None):
        raise _UsageError("--K and --L go together; give both or neither")
    if args.seed + args.num_seeds > 2 ** 64:
        raise _UsageError("--seed + --num-seeds - 1 must be below 2^64")
    state = _load_state(args.state, args.cap)
    w, v = np.linalg.eigh(linalg.hermitian_part(state.matrix))
    if w[-1] < 1.0 - 1e-7 or float(np.sum(w > 1e-9)) > 1:
        raise ValueError("merge run needs a pure input state")
    psi = linalg.PureState(state.dims, v[:, -1] * math.sqrt(w[-1]), cap=args.cap)
    # the bounds depend on the state and epsilon only: one pair of solves.
    # The achievable bound is already a realised cost, so realize_cost
    # gives back its registers
    bounds = merging.cost_bounds(psi, ("A",), ("B",), args.epsilon)
    if args.K is not None:
        k_dim, l_dim = args.K, args.L
    else:
        k_dim, l_dim = merging.realize_cost(bounds[0], psi.dims.dim_of("A"))
    seeds = list(range(args.seed, args.seed + args.num_seeds))
    instances = [merging.MergingInstance(psi, k_dim, l_dim, args.epsilon,
                                         seed=haar.RngSeed(s), cap=args.cap)
                 for s in seeds]
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
        "per_outcome": [[{"x": x, "p": p, "fidelity": f} for x, p, f in r.per_outcome]
                        for r in runs],
        "seeds": seeds,
    }
    config = {"state": args.state, "epsilon": args.epsilon, "K": k_dim,
              "L": l_dim, "seeds": seeds}
    _emit(_report("merge run", config, result, haar.RngSeed(args.seed), started),
          args.out)


def _cmd_lemmas_check(args: argparse.Namespace) -> None:
    started = time.time()
    seed = haar.RngSeed(args.seed)
    reports = decoupling.verify_proof_lemmas(seed, trials=args.trials)
    result = {name: {"trials": r.trials, "failures": r.failures,
                     "worst_slack": r.worst_slack, "passed": r.passed}
              for name, r in reports.items()}
    _emit(_report("lemmas check", {"trials": args.trials}, result, seed, started),
          args.out)
    # the report is written either way; a violation then fails
    if not all(r.passed for r in reports.values()):
        raise RuntimeError("lemma property suite reported violations")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"must lie in [0, 2^64), got {value}")
    return value


def _dims(text: str) -> tuple[tuple[str, int], ...]:
    """A label:dim list such as A:2,E:3, each dim at least 1, no label twice."""
    pairs = []
    for part in text.split(","):
        lab, _, dim = part.partition(":")
        pairs.append((lab.strip(), _positive_int(dim)))
    labels = [lab for lab, _ in pairs]
    if len(set(labels)) < len(labels):
        raise argparse.ArgumentTypeError(f"duplicate labels in {text!r}")
    return tuple(pairs)


def _labels(text: str) -> tuple[str, ...]:
    """A comma-separated list naming at least one label."""
    labels = tuple(part.strip() for part in text.split(",") if part.strip())
    if not labels:
        raise argparse.ArgumentTypeError(f"names no label: {text!r}")
    return labels


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text}")
    return value


def _merging_epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


# built once per process: parsing reads the tree and writes only the
# namespace it returns, so repeated calls to ``main`` share it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdecouple",
        description="Entropy computations, decoupling experiments, and "
                    "one-shot state merging on finite-dimensional states.")
    parser.add_argument("--version", action="version", version=qdecouple.__version__)

    # each subcommand registers only the flags its handler reads
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=_positive_int, default=None,
                        help=f"total-dimension cap (default {linalg.DIM_CAP}); "
                             "merge run also holds the entries of its largest "
                             "array to it (default 2^26)")
    common.add_argument("--out", default=None, help="write the JSON report here")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0,
                        help="base RNG seed recorded in the report (default 0)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-state", parents=[common],
                       help="emit a reference state as JSON")
    p.add_argument("--seed", type=_seed, default=None,
                   help="RNG seed of the random kinds (default 0)")
    p.add_argument("kind", choices=["independent", "classical", "entangled",
                                    "random-mixed", "random-pure"])
    p.add_argument("--k", type=_non_negative_int, default=None,
                   help="number of qubits of the fixed kinds (default 1)")
    p.add_argument("--dims", type=_dims, default=None,
                   help="label:dim list for random kinds, e.g. A:2,E:3")
    p.set_defaults(func=_cmd_gen_state)

    p = sub.add_parser("gen-channel", parents=[common],
                       help="emit a builder channel as JSON")
    p.add_argument("spec", help="id:m | meas:m | erase:m | id+meas:m,m' | id+trace:m,m'")
    p.set_defaults(func=_cmd_gen_channel)

    p = sub.add_parser("entropy", parents=[common], help="entropy of a state file")
    p.add_argument("--state", required=True)
    p.add_argument("--kind", required=True, choices=["vn", "hmin", "hmax", "h2"])
    p.add_argument("--target", type=_labels, required=True,
                   help="comma-separated labels")
    p.add_argument("--condition", type=_labels, default=(),
                   help="comma-separated labels (default none)")
    p.add_argument("--epsilon", type=_epsilon, default=0.0,
                   help="smoothing parameter in [0, 1) for hmin and hmax "
                        "(default 0)")
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
    pr.add_argument("--samples", type=_positive_int, default=1000)
    pr.add_argument("--epsilon", type=_epsilon, default=0.0)
    pr.add_argument("--csv", default=None, help="write per-sample distances here")
    pr.set_defaults(func=_cmd_decouple_run)

    p = sub.add_parser("merge", help="state-merging experiments")
    msub = p.add_subparsers(dest="subcommand", required=True)
    pm = msub.add_parser("run", parents=[seeded, common],
                         help="run the merging protocol")
    pm.add_argument("--state", required=True, help="pure tripartite state JSON")
    pm.add_argument("--epsilon", type=_merging_epsilon, required=True,
                    help="error parameter in (0, 1)")
    pm.add_argument("--num-seeds", type=_positive_int, default=1)
    pm.add_argument("--K", type=_positive_int, default=None)
    pm.add_argument("--L", type=_positive_int, default=None)
    pm.set_defaults(func=_cmd_merge_run)

    p = sub.add_parser("lemmas", help="randomized proof-ingredient suites")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    pl = lsub.add_parser("check", parents=[seeded])
    pl.add_argument("--out", default=None, help="write the JSON report here")
    pl.add_argument("--trials", type=_positive_int, default=200)
    pl.set_defaults(func=_cmd_lemmas_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code: 0 when its handler
    returns, 2 when it raises ``_UsageError``, 1 when it raises a
    ``ValueError``, ``RuntimeError`` or ``OSError``."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
