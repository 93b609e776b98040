"""In-memory span tracing of qdecouple's layers, installed from outside.

Wrappers replace a function at the module attribute its callers look up
(``qdecouple.sdp.solve``, ``qdecouple.decoupling.trace_norm``, ...), record
one span per call and restore the original on exit.  Nothing under ``src/``
is edited, so the traced code is the code the untraced run measures.

A span is (id, name, start, end, parent, op, thread, info).  Spans opened on
a worker thread with no open span of its own take the innermost open span of
the thread that started the current op as parent, so the per-sample spans of
``decoupling.run(..., workers=2)`` nest under that run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import qdecouple.channel
import qdecouple.cli
import qdecouple.decoupling
import qdecouple.entropy
import qdecouple.haar
import qdecouple.merging
import qdecouple.sdp

COMPLEX_BYTES = 16


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    thread: int
    info: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sdp_info(args, kwargs, sol) -> dict:
    problem = args[0]
    return {"m": problem.num_constraints, "block_dims": list(problem.block_dims),
            "iterations": sol.iterations, "status": sol.status.value}


def _run_info(args, kwargs, report) -> dict:
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return {"samples": args[0].num_samples, "workers": workers}


def _cli_info(args, kwargs, code) -> dict:
    argv = list(args[0])
    info = {"exit_code": code}
    if "--out" in argv:
        try:
            with open(argv[argv.index("--out") + 1], "rb") as fh:
                info["report_bytes"] = len(fh.read())
        except OSError:
            info["report_bytes"] = 0
    return info


# (module, attribute, span name, info hook).  Attributes missing from a later
# version of the package are skipped and listed by ``Tracer.untraced``.
TARGETS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (qdecouple.sdp, "solve", "sdp.solve", _sdp_info),
    (qdecouple.entropy, "h_min", "entropy.h_min", None),
    (qdecouple.entropy, "h_max", "entropy.h_max", None),
    (qdecouple.entropy, "h_min_smooth", "entropy.h_min_smooth", None),
    (qdecouple.entropy, "h_max_smooth", "entropy.h_max_smooth", None),
    (qdecouple.entropy, "h2", "entropy.h2", None),
    (qdecouple.entropy, "von_neumann", "entropy.von_neumann", None),
    (qdecouple.entropy, "_smooth_hmin_diag", "entropy.smooth_diag", None),
    (qdecouple.entropy, "_smooth_hmin_dense", "entropy.smooth_dense", None),
    (qdecouple.entropy, "purify", "linalg.purify", None),
    (qdecouple.entropy, "pure_marginal", "linalg.pure_marginal", None),
    (qdecouple.haar, "haar_unitary_indexed", "haar.haar_unitary_indexed", None),
    (qdecouple.decoupling, "run", "decoupling.run", _run_info),
    (qdecouple.decoupling, "trace_norm", "linalg.trace_norm", None),
    (qdecouple.decoupling, "bound_nonsmooth", "decoupling.bound", None),
    (qdecouple.decoupling, "bound_smooth", "decoupling.bound", None),
    (qdecouple.merging, "run_merging", "merging.run_merging", None),
    (qdecouple.merging, "uhlmann_isometry", "merging.uhlmann_isometry", None),
    (qdecouple.merging, "apply_matrix_pure", "linalg.apply_matrix_pure", None),
    (qdecouple.merging, "pure_marginal", "linalg.pure_marginal", None),
    (qdecouple.merging, "trace_norm", "linalg.trace_norm", None),
    (qdecouple.merging, "cost_achievable", "merging.cost_bound", None),
    (qdecouple.merging, "cost_converse", "merging.cost_bound", None),
    (qdecouple.cli, "main", "cli.main", _cli_info),
    (qdecouple.channel, "parse_spec", "channel.build", None),
    (qdecouple.channel, "channel_from_json", "channel.build", None),
    (qdecouple.channel, "random_tp_channel", "channel.build", None),
    (qdecouple.channel, "random_cpm", "channel.build", None),
)


class Tracer:
    """Collects spans while ``installed``; safe to call from worker threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.untraced: list[str] = []
        self.active = False
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._op: str | None = None
        self._op_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, start: float, end: float, parent: int | None,
                sid: int, info: dict | None) -> None:
        span = Span(sid, name, start, end, parent, self._op,
                    threading.get_ident(), info)
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            owner = tracer._op_stack
            parent = stack[-1] if stack else (owner[-1] if owner else None)
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            info = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if note is not None:
                    info = note(args, kwargs, result)
                return result
            except BaseException as exc:
                end = time.perf_counter()
                info = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                tracer._record(name, start, end, parent, sid, info)

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the original attributes on exit."""
        saved = []
        try:
            for module, attr, name, note in TARGETS:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.untraced.append(f"{module.__name__}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, note))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def op(self, op_id: str, kind: str):
        """Span around one benchmark op; spans opened inside carry its id."""
        stack = self._stack()
        self._op, self._op_stack = op_id, stack
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record("op", start, end, None, sid, {"kind": kind})
            self._op, self._op_stack = None, []

    @contextmanager
    def paused(self):
        """Run output checks without recording them as workload traffic."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op,
                                     "thread": s.thread, "info": s.info}) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def schur_flops(info: dict) -> int:
    """Real flops of the dense Schur-complement work in one ``sdp.solve``.

    Per iteration and per block of size n: W A_i W for all m constraints
    (2 m n^3 complex multiply-adds) and the Gram product (m^2 n^2), at 8 real
    flops per complex multiply-add, plus m^3 / 3 for the Cholesky factor.
    Computed from the problem shape and the iteration count, not counted.
    """
    m = info["m"]
    per_iter = sum(8 * (2 * m * n ** 3 + m * m * n * n) for n in info["block_dims"])
    return info["iterations"] * (per_iter + m ** 3 // 3)


def stack_bytes(info: dict) -> int:
    """Bytes of one dense complex constraint stack, sum_k m n_k^2 entries."""
    return COMPLEX_BYTES * info["m"] * sum(n * n for n in info["block_dims"])


ENTROPY_KINDS = ("hmin", "hmin_smooth_dense", "hmin_smooth_diag", "hmax",
                 "hmax_smooth", "closed_form")

# counts that must repeat exactly between two traced passes on one seed
EXACT_COUNTS = ("sdp.solves", "sdp.iterations", "sdp.schur_flops_computed",
                "haar.samples", "decoupling.samples", "merging.decoder_calls",
                "merging.cost_bound_calls")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Counts, busy time and self time per layer.

    A span's self time is its duration minus the union of its direct
    children's intervals; a layer's self time sums that over its spans.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def busy(name: str) -> float:
        return sum((s.duration for s in named(name)), 0.0)

    def self_time(name: str) -> float:
        return sum((s.duration - _union([(c.start, c.end) for c in children[s.id]])
                    for s in named(name)), 0.0)

    def subtree_names(span: Span) -> set[str]:
        out, todo = set(), [span]
        while todo:
            for c in children[todo.pop().id]:
                out.add(c.name)
                todo.append(c)
        return out

    def has_ancestor(span: Span, prefix: str) -> bool:
        p = span.parent
        while p is not None and p in by_id:
            if by_id[p].name.startswith(prefix):
                return True
            p = by_id[p].parent
        return False

    solves = [s.info for s in named("sdp.solve") if s.info]
    entropy_spans = [s for s in spans if s.name.startswith("entropy.")]
    kinds = dict.fromkeys(ENTROPY_KINDS, 0.0)
    for s in entropy_spans:
        if has_ancestor(s, "entropy."):
            continue
        below = subtree_names(s)
        if "sdp.solve" not in below:
            kind = "closed_form"
        elif s.name == "entropy.h_min_smooth" and "entropy.smooth_diag" in below:
            kind = "hmin_smooth_diag"
        elif s.name == "entropy.h_min_smooth" and "entropy.smooth_dense" in below:
            kind = "hmin_smooth_dense"
        elif s.name == "entropy.h_max_smooth" and below & {"entropy.smooth_diag",
                                                          "entropy.smooth_dense"}:
            kind = "hmax_smooth"
        elif s.name in ("entropy.h_max", "entropy.h_max_smooth"):
            kind = "hmax"
        else:
            kind = "hmin"
        kinds[kind] += s.duration

    # SDP-backed entropy queries are the ops whose spans include a solve
    ops_with_solves = {s.op for s in named("sdp.solve")}
    query_ops = {s.op for s in entropy_spans if s.op is not None}
    sdp_queries = len(query_ops & ops_with_solves)
    solves_in_queries = sum(1 for s in named("sdp.solve") if s.op in query_ops)

    # the apply_matrix_pure right after an uhlmann_isometry applies the decoder
    decoder_apply = 0.0
    for kids in children.values():
        kids = sorted(kids, key=lambda c: c.start)
        for prev, cur in zip(kids, kids[1:]):
            if (cur.name == "linalg.apply_matrix_pure"
                    and prev.name == "merging.uhlmann_isometry"):
                decoder_apply += cur.duration

    haar_n = len(named("haar.haar_unitary_indexed"))
    haar_s = busy("haar.haar_unitary_indexed")
    metrics = {
        "sdp.solves": len(solves),
        "sdp.iterations": sum(i["iterations"] for i in solves),
        "sdp.not_optimal": sum(1 for i in solves if i["status"] != "Optimal"),
        "sdp.busy_s": busy("sdp.solve"),
        "sdp.schur_flops_computed": sum(schur_flops(i) for i in solves),
        "sdp.stack_bytes_computed_max": max((stack_bytes(i) for i in solves), default=0),
        "entropy.self_s": sum(s.duration - _union([(c.start, c.end) for c in children[s.id]])
                              for s in entropy_spans),
        "entropy.solves_per_query": solves_in_queries / sdp_queries if sdp_queries else 0.0,
        **{f"entropy.{k}.busy_s": v for k, v in kinds.items()},
        "haar.samples": haar_n,
        "haar.busy_s": haar_s,
        "haar.us_per_sample": 1e6 * haar_s / haar_n if haar_n else 0.0,
        "linalg.trace_norm.calls": len(named("linalg.trace_norm")),
        "linalg.trace_norm.busy_s": busy("linalg.trace_norm"),
        "linalg.pure_marginal.busy_s": sum(s.duration for s in named("linalg.pure_marginal")
                                           if not has_ancestor(s, "linalg.pure_marginal")),
        "linalg.purify.busy_s": busy("linalg.purify"),
        "decoupling.samples": sum(s.info["samples"] for s in named("decoupling.run") if s.info),
        "decoupling.kernel_self_s": self_time("decoupling.run"),
        "decoupling.bound_s": busy("decoupling.bound"),
        "merging.decoder_calls": len(named("merging.uhlmann_isometry")),
        "merging.decoder_s": busy("merging.uhlmann_isometry") + decoder_apply,
        "merging.cost_bound_calls": len(named("merging.cost_bound")),
        "merging.cost_bound_s": busy("merging.cost_bound"),
        "merging.self_s": self_time("merging.run_merging"),
        "cli.self_s": self_time("cli.main"),
        "cli.report_bytes": sum(s.info.get("report_bytes", 0) for s in named("cli.main")
                                if s.info),
        "channel.build_s": busy("channel.build"),
    }
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_sample"):
        return "us"
    if name.endswith("flops_computed"):
        return "flop"
    if "bytes" in name:
        return "B"
    if name.endswith("per_query"):
        return "ratio"
    return "count"
