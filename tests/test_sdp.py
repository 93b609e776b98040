"""Solver tests: closed-form programs, interior-constructed instances with
certified gaps, an independent first-order oracle on small blocks, weak
duality along the iterate trace, determinism, infeasibility detection, the
family term's constraint map, adjoint, Gram matrix and Schur term against
the dense sandwich, the Newton system with its fixed corners eliminated
against the full one, the eigendecompositions and the step search per
iteration, the elementwise 1x1 blocks against LAPACK's n = 1 case, and the
stack-size limit.
"""

import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from qdecouple import _sdp_family, entropy, sdp
from qdecouple.decoupling import classical_state
from qdecouple.linalg import (DimCapError, PureState, dims_of, herm_basis,
                              hermitian_part, random_density)
from qdecouple.sdp import ProblemBuilder, SdpProblem, SdpStatus, solve
from test_entropy import diag_smoothing_sdp, hmax_fidelity_sdp


def rnd_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def rnd_pd(rng, d, floor=0.1):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T + floor * np.eye(d)


def interior_problem(rng, n, m):
    """Problem with known strictly feasible primal/dual pair."""
    x_int = rnd_pd(rng, n)
    amats = [rnd_herm(rng, n) for _ in range(m)]
    y_int = rng.standard_normal(m)
    cmat = rnd_pd(rng, n) + sum(y_int[i] * amats[i] for i in range(m))
    build = ProblemBuilder()
    blk = build.add_block(n, cmat)
    for a in amats:
        build.add_constraint({blk: a}, float(np.trace(a @ x_int).real))
    return build.build()


def test_trivial_projector_problem():
    build = ProblemBuilder()
    blk = build.add_block(2, np.eye(2, dtype=complex))
    e11 = np.diag([1.0, 0.0]).astype(complex)
    build.add_constraint({blk: e11}, 1.0)
    sol = solve(build.build())
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.primal_obj == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(sol.x_blocks[0], e11, atol=1e-6)


def test_hmin_program_for_maximally_mixed():
    # min tr(sigma') s.t. I (x) sigma' >= I4/4 has optimum 1/2 (one bit of
    # conditional min-entropy per qubit structure); solved in the dual form
    # max tr(rho Y) s.t. tr_A Y = I_B
    rho = np.eye(4) / 4
    build = ProblemBuilder()
    blk = build.add_block(4, -rho)
    for g in herm_basis(2):
        build.add_constraint({blk: np.kron(np.eye(2), g)}, float(np.trace(g).real))
    sol = solve(build.build())
    assert sol.status is SdpStatus.OPTIMAL
    assert -sol.primal_obj == pytest.approx(0.5, abs=1e-8)
    assert -np.log2(-sol.primal_obj) == pytest.approx(1.0, abs=1e-7)


def test_gap_certification_on_interior_problems():
    rng = np.random.default_rng(100)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, min(8, n * n) + 1))
        sol = solve(interior_problem(rng, n, m))
        assert sol.status is SdpStatus.OPTIMAL
        assert abs(sol.gap) <= 1e-7 * (1 + abs(sol.primal_obj))
        for x in sol.x_blocks:
            assert float(np.linalg.eigvalsh(x)[0]) >= -1e-8


def test_small_block_first_order_oracle():
    """2x2 problems against scipy minimize over a Cholesky parametrization."""
    rng = np.random.default_rng(101)

    def oracle(c, amats, b):
        def unpack(z):
            l11, l21r, l21i, l22 = z
            lmat = np.array([[l11, 0.0], [l21r + 1j * l21i, l22]])
            return lmat @ lmat.conj().T

        def f(z):
            return float(np.trace(c @ unpack(z)).real)

        cons = [{"type": "eq",
                 "fun": (lambda z, a=a, bi=bi:
                         float(np.trace(a @ unpack(z)).real) - bi)}
                for a, bi in zip(amats, b)]
        best = np.inf
        for start in range(8):
            z0 = rng.standard_normal(4)
            res = minimize(f, z0, constraints=cons, method="SLSQP",
                           options={"maxiter": 400, "ftol": 1e-12})
            if res.success and np.max([abs(c["fun"](res.x)) for c in cons]) < 1e-7:
                best = min(best, res.fun)
        return best

    checked = 0
    for _ in range(12):
        x_int = rnd_pd(rng, 2)
        amats = [rnd_herm(rng, 2) for _ in range(2)]
        b = [float(np.trace(a @ x_int).real) for a in amats]
        c = rnd_pd(rng, 2) + sum(rng.standard_normal() * a for a in amats)
        build = ProblemBuilder()
        blk = build.add_block(2, c)
        for a, bi in zip(amats, b):
            build.add_constraint({blk: a}, bi)
        sol = solve(build.build())
        assert sol.status is SdpStatus.OPTIMAL
        ref = oracle(c, amats, b)
        if np.isfinite(ref):
            checked += 1
            assert abs(sol.primal_obj - ref) <= 1e-6 * (1 + abs(ref))
    assert checked >= 8


def test_weak_duality_on_every_iterate_with_feasible_start():
    rng = np.random.default_rng(102)
    rho = rnd_pd(rng, 4, floor=0.0)
    rho /= np.trace(rho).real
    basis = herm_basis(2)
    build = ProblemBuilder()
    blk = build.add_block(4, -rho)
    for g in basis:
        build.add_constraint({blk: np.kron(np.eye(2), g)}, float(np.trace(g).real))
    lam = float(np.abs(np.linalg.eigvalsh(rho)).max()) + 1.0
    sigma0 = lam * np.eye(2, dtype=complex)
    y0 = -np.array([float(np.trace(g @ sigma0).real) for g in basis])
    sol = solve(build.build(), x0=[np.eye(4, dtype=complex) / 2], y0=y0,
                z0=[-rho + np.kron(np.eye(2), sigma0)], record_trace=True)
    assert sol.status is SdpStatus.OPTIMAL
    assert len(sol.trace) > 2
    for rec in sol.trace:
        assert rec.dual_obj <= rec.primal_obj + 1e-9


def test_determinism():
    rng = np.random.default_rng(103)
    prob = interior_problem(rng, 4, 5)
    s1 = solve(prob)
    s2 = solve(prob)
    assert s1.primal_obj == s2.primal_obj
    assert s1.dual_obj == s2.dual_obj
    np.testing.assert_array_equal(s1.x_blocks[0], s2.x_blocks[0])


def test_infeasible_detection():
    build = ProblemBuilder()
    blk = build.add_block(2)
    build.add_constraint({blk: np.diag([1.0, 0.0]).astype(complex)}, -1.0)
    sol = solve(build.build())
    assert sol.status is SdpStatus.INFEASIBLE


def test_max_iter_escape_hatch():
    rng = np.random.default_rng(104)
    sol = solve(interior_problem(rng, 4, 4), max_iterations=2)
    assert sol.status is SdpStatus.MAX_ITER


def test_problem_validation():
    with pytest.raises(ValueError, match="not Hermitian"):
        SdpProblem((2,), (np.array([[0.0, 1.0], [0.0, 0.0]]),),
                   (np.eye(2)[None],), np.ones(1))
    build = ProblemBuilder()
    blk = build.add_block(2)
    for _ in range(5):
        build.add_constraint({blk: np.eye(2, dtype=complex)}, 1.0)
    with pytest.raises(ValueError):
        build.build()
    with pytest.raises(ValueError, match="shape"):
        build.add_constraint({blk: np.eye(1, dtype=complex)}, 1.0)
    with pytest.raises(ValueError, match="does not fit"):
        build.add_family(2, {blk: sdp.embed(1)}, np.zeros(4))
    with pytest.raises(ValueError, match="does not fit"):
        build.add_family(4, {blk: sdp.neg_trace_out(3)}, np.zeros(16))
    fam = sdp.Family(0, 2, ((0, sdp.kron_eye(1)),))
    eye = (np.eye(2, dtype=complex),)
    with pytest.raises(ValueError, match="overlap"):
        SdpProblem((2,), eye, (np.zeros((0, 2, 2)),), np.zeros(4), (fam, fam))
    with pytest.raises(ValueError, match="row range"):
        SdpProblem((2,), eye, (np.zeros((0, 2, 2)),), np.zeros(3), (fam,))


def test_program_without_constraints_is_rejected():
    build = ProblemBuilder()
    build.add_block(2, np.eye(2))
    with pytest.raises(ValueError, match="no constraints"):
        build.build()


@pytest.mark.parametrize("k", [-1, -2, 2, 5])
def test_block_index_outside_the_program_is_rejected(k):
    # a negative index must not wrap onto a block from the end, and a family's
    # index is checked when it is added, not later in SdpProblem
    build = ProblemBuilder()
    build.add_block(2)
    build.add_block(2)
    with pytest.raises(ValueError, match="block index"):
        build.add_constraint({k: np.eye(2, dtype=complex)}, 1.0)
    with pytest.raises(ValueError, match="block index"):
        build.add_family(2, {k: sdp.embed(0)}, np.zeros(4))
    # nothing was recorded: the program still has no constraints
    with pytest.raises(ValueError, match="no constraints"):
        build.build()


def test_trace_csv_export():
    rng = np.random.default_rng(105)
    sol = solve(interior_problem(rng, 3, 3), record_trace=True)
    csv = sol.trace_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "iteration,primal_obj,dual_obj,gap"
    assert len(lines) == len(sol.trace) + 1


# ---------------------------------------------------------------------------
# Schur-complement kernels
# ---------------------------------------------------------------------------

class _Built(Exception):
    """Carries the first program an entropy routine hands to the solver."""


def built_program(monkeypatch, call) -> SdpProblem:
    def capture(problem, **kwargs):
        raise _Built(problem)

    with monkeypatch.context() as patch:
        patch.setattr(sdp, "solve", capture)
        with pytest.raises(_Built) as info:
            call()
    return info.value.args[0]


def oracle_programs(monkeypatch) -> dict[str, SdpProblem]:
    rng = np.random.default_rng(110)
    rho23 = random_density(rng, (("A", 2), ("B", 3))).matrix
    rho22 = random_density(rng, (("A", 2), ("B", 2))).matrix
    rho32 = random_density(rng, (("A", 3), ("B", 2))).matrix
    p = np.real(np.diag(classical_state(2).matrix)).reshape(4, 4)
    # subnormalized: the programs gain the 2 x 2 generalized-fidelity block
    rho33 = 0.9 * random_density(rng, (("A", 3), ("B", 3)), rank=4).matrix
    rho22s = 0.8 * random_density(rng, (("A", 2), ("B", 2))).matrix
    rho26 = random_density(rng, (("A", 2), ("B", 6))).matrix
    return {
        "hmin 2x3": built_program(monkeypatch, lambda: entropy._hmin_sdp(rho23, 2, 3)),
        "hmax fidelity 2x2": built_program(
            monkeypatch, lambda: hmax_fidelity_sdp(rho22, 2, 2)),
        "dense smoothing 3x2": built_program(
            monkeypatch, lambda: entropy._smooth_hmin_dense(rho32, 3, 2, 0.05)),
        "diagonal smoothing classical(2)": built_program(
            monkeypatch, lambda: diag_smoothing_sdp(p, 4, 4, 0.05)),
        "random dense": interior_problem(rng, 5, 9),
        # rank 4 < 9: the corner family (4 x 4) differs from the lower-right one
        "dense smoothing 3x3 rank 4": built_program(
            monkeypatch, lambda: entropy._smooth_hmin_dense(rho33, 3, 3, 0.05)),
        # sigma' and the generalized-fidelity block form one group of two
        "dense smoothing 2x2 subnormalized": built_program(
            monkeypatch, lambda: entropy._smooth_hmin_dense(rho22s, 2, 2, 0.05)),
        "hmin 2x6": built_program(monkeypatch, lambda: entropy._hmin_sdp(rho26, 2, 6)),
    }


def test_family_term_matches_dense_sandwich(monkeypatch):
    # the dense term on the materialized stacks is the oracle for the family
    # term's constraint map, adjoint, Gram matrix and Schur term; the family
    # programs cover embedded sub-blocks, I (x) g, partial traces, the
    # explicit rows (fidelity, trace, E11) next to them and a two-block group
    rng = np.random.default_rng(112)
    programs = oracle_programs(monkeypatch)
    assert {name for name, problem in programs.items() if problem.families} == {
        "hmin 2x3", "hmax fidelity 2x2", "dense smoothing 3x2",
        "dense smoothing 3x3 rank 4", "dense smoothing 2x2 subnormalized", "hmin 2x6"}
    kinds = set()
    for name, problem in programs.items():
        m = problem.num_constraints
        row_scale = rng.uniform(0.5, 2.0, m)
        kinds |= {fmap.kind for fam in problem.families for _, fmap in fam.maps}
        for s in sorted(set(problem.block_dims)):
            idx = [k for k, n in enumerate(problem.block_dims) if n == s]
            a = np.stack([problem.block_stack(k) for k in idx], axis=1)
            dense = sdp._DenseSchur(a / row_scale[:, None, None, None], None)
            family = _sdp_family.family_term(problem, idx, row_scale, np.arange(m))
            w = np.stack([rnd_pd(rng, s) for _ in idx])
            x = np.stack([rnd_herm(rng, s) for _ in idx])
            y = rng.standard_normal(m)
            for op, args in (("schur", (w,)), ("apply", (x,)), ("adjoint", (y,)),
                             ("gram", ())):
                want = getattr(dense, op)(*args)
                got = getattr(family, op)(*args)
                assert got.shape == want.shape
                err = float(np.abs(got - want).max()) / float(np.abs(want).max())
                assert err <= 1e-12, (name, s, op, err)
    assert kinds == {"embed", "kron", "trace_out"}


def newton_step(groups, w, rhs, dx):
    """dy with M dy = rhs for the Schur matrix M at scaling w, and dx
    projected onto A(dx) = 0 through the Gram matrix, each system solved
    densely on the rows of the groups' Newton system."""
    size = groups.gram().shape[0]
    schur = groups.schur(w, np.empty((size, size)))
    dy = groups.newton_solve(lambda u: np.linalg.solve(schur, u), rhs, groups.corners(w))
    gram = groups.gram()
    lam = groups.newton_solve(lambda u: np.linalg.solve(gram, u), -groups.apply_a(dx),
                              groups.corners(groups.identity(1.0)))
    return dy, [d + c for d, c in zip(dx, groups.apply_a_adjoint(lam))]


def test_fixed_corner_elimination_matches_full_newton_system(monkeypatch):
    # the dense smoothing programs with every group on the family term: the
    # r^2 rows fixing the corner D of the fidelity block leave the Newton
    # system, and the reduced solve recovers dy and the projected dx of the
    # full system, which stays reachable with no row eliminated
    rng = np.random.default_rng(117)
    programs = oracle_programs(monkeypatch)
    monkeypatch.setattr(_sdp_family, "takes_family", lambda problem, idx: True)
    newton_rows = _sdp_family.newton_rows
    for name in ("dense smoothing 3x2", "dense smoothing 3x3 rank 4",
                 "dense smoothing 2x2 subnormalized"):
        problem = programs[name]
        m = problem.num_constraints
        corner = problem.families[0]
        reduced = sdp._Groups(problem, 1.0)
        assert reduced.kept.tolist() == list(range(corner.d ** 2, m)), name
        with monkeypatch.context() as patch:
            patch.setattr(_sdp_family, "newton_rows",
                          lambda problem, blocks: np.arange(problem.num_constraints))
            full = sdp._Groups(problem, 1.0)
        assert full.kept is None and newton_rows(problem, []).tolist() == list(range(m))
        for trial in range(3):
            w = [np.stack([rnd_pd(rng, s) for _ in idx])
                 for s, idx in zip(reduced.sizes, reduced.index)]
            dx = [np.stack([rnd_herm(rng, s) for _ in idx])
                  for s, idx in zip(reduced.sizes, reduced.index)]
            rhs = rng.standard_normal(m)
            got_dy, got_dx = newton_step(reduced, w, rhs, dx)
            want_dy, want_dx = newton_step(full, w, rhs, dx)
            err = np.abs(got_dy - want_dy).max() / np.abs(want_dy).max()
            assert err <= 1e-10, (name, trial, err)
            for g, want in zip(got_dx, want_dx):
                assert np.abs(g - want).max() <= 1e-10 * np.abs(want).max(), (name, trial)
            assert np.abs(full.apply_a(want_dx)).max() <= 1e-10 * np.abs(rhs).max()


def test_fixed_corners_leave_the_newton_system_only_on_family_groups(monkeypatch):
    # dense smoothing at 4x4 factors 258 of its 514 rows; programs whose
    # groups all take the dense sandwich keep every row
    rho = random_density(np.random.default_rng(0), (("A", 4), ("B", 4))).matrix
    problem = built_program(monkeypatch,
                            lambda: entropy._smooth_hmin_dense(rho, 4, 4, 0.05))
    groups = sdp._Groups(problem, 1.0)
    assert problem.num_constraints == 514 and len(groups.kept) == 258
    assert groups.gram().shape == (258, 258)
    for name, problem in oracle_programs(monkeypatch).items():
        groups = sdp._Groups(problem, 1.0)
        if all(t.kernel == "dense" for t in groups.terms):
            assert groups.kept is None, name


def test_family_rows_materialize_as_their_maps(monkeypatch):
    # each family row is sum_k T_k(h) for h of herm_basis(d), written out
    rho = random_density(np.random.default_rng(113), (("A", 3), ("B", 2))).matrix
    problem = built_program(monkeypatch, lambda: entropy._smooth_hmin_dense(rho, 3, 2, 0.05))
    v, s_blk, sig = problem.a_blocks[:3]
    r = problem.block_dims[0] - 6
    corner, lower = problem.families
    basis = herm_basis(6)
    np.testing.assert_array_equal(v[corner.rows, :r, :r], herm_basis(r))
    np.testing.assert_array_equal(v[lower.rows, r:, r:], basis)
    np.testing.assert_array_equal(s_blk[lower.rows], basis)
    want = np.array([-np.einsum("abac->bc", h.reshape(3, 2, 3, 2)) for h in basis])
    np.testing.assert_allclose(sig[lower.rows], want, atol=1e-15)
    norms = sum(np.einsum("ipq,ipq->i", a, a.conj()).real for a in problem.a_blocks)
    np.testing.assert_allclose(problem.row_norms(), norms, rtol=1e-15)


def count_lapack(monkeypatch) -> tuple[list, list]:
    """Record each eigh and eigvalsh call as (function, caller, block size),
    the caller of ``_b_lowest_eig`` being the routine that asked it, and
    each factored iteration (a Schur assembly) as one entry."""
    calls, factored = [], []

    def counting(fn):
        def counted(a, *args, **kwargs):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "_b_lowest_eig":
                frame = frame.f_back
            calls.append((fn.__name__, frame.f_code.co_name, a.shape[-1]))
            return fn(a, *args, **kwargs)
        return counted

    schur = sdp._Groups.schur

    def counted_schur(self, *args):
        factored.append(1)
        return schur(self, *args)

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    monkeypatch.setattr(sdp._Groups, "schur", counted_schur)
    return calls, factored


def test_iterates_are_factored_once_per_iteration(monkeypatch):
    # per group of n >= 2 and iteration: one stacked eigendecomposition of X
    # and Z and one of X^(1/2) Z X^(1/2), from which W, X^(-1/2), Z^(-1/2)
    # and Z^(-1) follow; groups of 1x1 blocks make no LAPACK call
    programs = oracle_programs(monkeypatch)
    calls, factored = count_lapack(monkeypatch)
    for name, problem in programs.items():
        calls.clear()
        factored.clear()
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL, name
        assert sol.iterations - 1 <= len(factored) <= sol.iterations, name
        lapack_groups = len(set(problem.block_dims) - {1})
        eigh = [call for call in calls if call[0] == "eigh"]
        assert all(caller == "_b_factor" and n > 1 for _, caller, n in eigh), name
        assert len(eigh) == 2 * lapack_groups * len(factored), name


def test_step_search_is_two_stacked_eigvalsh_per_group(monkeypatch):
    # per group of n >= 2 and factored iteration: one eigvalsh bounds the
    # predictor's x and z steps, one both correctors', and one makes the
    # back-off's first check of x and z; groups of 1x1 blocks make none
    programs = oracle_programs(monkeypatch)
    calls, factored = count_lapack(monkeypatch)
    for name, problem in programs.items():
        calls.clear()
        factored.clear()
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL, name
        lapack_groups = len(set(problem.block_dims) - {1})
        assert all(n > 1 for *_, n in calls), name
        lows = [call for call in calls if call[:2] == ("eigvalsh", "_b_step_lows")]
        first = [call for call in calls if call[:2] == ("eigvalsh", "_b_back_off_pair")]
        assert len(lows) == 2 * lapack_groups * len(factored), name
        assert len(first) == lapack_groups * len(factored), name
    # the programs cover groups of 1x1 blocks
    assert any(1 in problem.block_dims for problem in programs.values())


def max_step_per_side(isq, dx):
    """The step bound of one side and group as it was taken before the sides
    and candidates were stacked: the oracle for ``_b_step_lows``."""
    s = hermitian_part(isq @ dx @ isq)
    scale = np.abs(s).reshape(s.shape[0], -1).max(axis=1)
    scale = np.maximum(scale, 1e-300)
    lam = (np.linalg.eigvalsh(s / scale[:, None, None])[:, 0] * scale).min()
    if lam >= -1e-14:
        return np.inf
    return -1.0 / float(lam)


def test_stacked_step_bound_matches_per_side_bound():
    # two candidates (dx, dz) on groups of sizes 1, 3 and 4; a PSD direction
    # has no bound
    rng = np.random.default_rng(113)
    for trial in range(20):
        isq, cands = [], ([], [])
        for n, count in ((1, 2), (3, 1), (4, 3)):
            isq.append([np.stack([rnd_pd(rng, n) for _ in range(count)]) for _ in "xz"])
            for cand in cands:
                cand.append([np.stack([rnd_pd(rng, n) if trial % 5 == 0 else
                                       rnd_herm(rng, n) for _ in range(count)])
                             for _ in "xz"])
        lows = [sdp._b_step_lows(sides, cands[0][g] + cands[1][g])
                for g, sides in enumerate(isq)]
        want = [min(max_step_per_side(sides[j], cand[g][j]) for g, sides in enumerate(isq))
                for cand in cands for j in (0, 1)]
        assert sdp._b_max_steps(lows) == want
        assert (trial % 5 == 0) == (want == [np.inf] * 4)


# ---------------------------------------------------------------------------
# 1x1 blocks: the elementwise route against LAPACK's n = 1 case
# ---------------------------------------------------------------------------

# negative, zero, about 1e-300, below 1e-300, large and ordinary entries;
# zero and negative ones are clamped by the 1e-16 and 1e-18 floors
ONE_BY_ONE = (-0.7, -1e-300, -0.0, 0.0, 1e-305, 1e-300, 3e-300, 1e-17, 1e-3, 0.5,
              1.0, 2.5, 7e10)


def lapack_route(monkeypatch, fn, *args):
    """fn(*args) with the 1x1 dispatch off, every block through LAPACK."""
    with monkeypatch.context() as patch:
        patch.setattr(sdp, "_one_by_one", lambda stack: False)
        return fn(*args)


def one_by_one(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).reshape(-1, 1, 1)


def test_one_by_one_factor_is_lapacks(monkeypatch):
    x, z = (one_by_one(v) for v in zip(*[(a, b) for a in ONE_BY_ONE for b in ONE_BY_ONE]))
    got = sdp._b_factor(x, z)
    want = lapack_route(monkeypatch, sdp._b_factor, x, z)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert (g == w).all()
        assert g.tobytes() == w.tobytes()  # signed zeros too


def test_one_by_one_step_bounds_are_lapacks(monkeypatch):
    # isq spans 1e-160 to 1e140, so isq d isq runs from underflow through
    # entries below the 1e-300 scale floor to about 1e291
    rng = np.random.default_rng(115)
    scales = (1e-160, 1e-5, 0.3, 1.0, 4.0, 1e140)
    for trial in range(40):
        count = int(rng.integers(1, 6))
        isq = tuple(one_by_one(rng.choice(scales, count)) for _ in "xz")
        d = [one_by_one(rng.choice(ONE_BY_ONE, count) * rng.choice((-1.0, 1.0), count))
             for _ in range(4 if trial % 2 else 2)]
        got = sdp._b_step_lows(isq, d)
        assert got == lapack_route(monkeypatch, sdp._b_step_lows, isq, d), trial


def test_one_by_one_back_off_is_lapacks(monkeypatch):
    # steps that pass, that fail at the first check and back off, and that
    # land on an exact zero
    rng = np.random.default_rng(116)
    for trial in range(40):
        count = int(rng.integers(1, 6))
        x, z = (one_by_one(rng.choice(ONE_BY_ONE[5:], count)) for _ in "xz")
        dx, dz = (one_by_one(rng.choice(ONE_BY_ONE, count)) for _ in "xz")
        if trial % 4 == 0:
            dx = -x  # x + 1.0 dx is exactly zero
        args = ([x], [dx], float(rng.choice((1.0, 0.96, 0.3))), [z], [dz], 0.96)
        got = sdp._b_back_off_pair(*args)
        assert got == lapack_route(monkeypatch, sdp._b_back_off_pair, *args), trial


def cq_state() -> PureState:
    """sum_{a,e} sqrt(p_ae) |a>|(a,e)>|e> on A:2, B:4, E:2, p = (1/2, 1/4, 1/8,
    1/8): its A:E marginal is diagonal, so the smooth max-entropy of A given
    B takes the diagonal smoothing program, with groups of 1x1 and 2x2
    blocks."""
    p = (0.5, 0.25, 0.125, 0.125)
    amps = np.zeros((2, 4, 2), dtype=complex)
    for a in range(2):
        for e in range(2):
            amps[a, 2 * a + e, e] = math.sqrt(p[2 * a + e])
    return PureState(dims_of(("A", 2), ("B", 4), ("E", 2)), amps.reshape(-1))


@pytest.mark.parametrize("eps", [0.06 ** 2 / 13, 4 * math.sqrt(0.06)])
def test_one_by_one_solves_are_lapacks(monkeypatch, eps):
    # the state-merging cost bounds of the cq state at eps = 0.06, through
    # the diagonal SDP oracle: every solve's x, y and Z bytes, status and
    # iteration count, and the value, equal those of the solves with every
    # block through LAPACK
    state = cq_state().to_operator()
    monkeypatch.setattr(entropy, "_smooth_hmin_diag", diag_smoothing_sdp)
    runs = []
    for lapack in (False, True):
        solves = []

        def recording(problem, **kwargs):
            sol = solve(problem, **kwargs)
            solves.append((problem.block_dims, sol.status, sol.iterations,
                           [a.tobytes() for a in (*sol.x_blocks, sol.y, *sol.z_blocks)]))
            return sol

        with monkeypatch.context() as patch:
            patch.setattr(sdp, "solve", recording)
            if lapack:
                patch.setattr(sdp, "_one_by_one", lambda stack: False)
            value = entropy.h_max_smooth(state, ("A",), ("B",), eps).value
        runs.append((value, solves))
    assert runs[0] == runs[1]
    assert runs[0][1] and all(1 in dims and 2 in dims for dims, *_ in runs[0][1])


def test_schur_kernel_choice_is_recorded(monkeypatch):
    programs = oracle_programs(monkeypatch)
    kernels = {name: solve(problem, max_iterations=1).schur_kernels
               for name, problem in programs.items()}
    # programs without constraint families take the dense sandwich
    assert kernels["random dense"] == {5: "dense"}
    # multi-block groups: 2x2 fidelity blocks and 1x1 slacks
    assert kernels["diagonal smoothing classical(2)"] == {1: "dense", 2: "dense"}
    assert kernels["dense smoothing 3x2"][1] == "dense"

    rho = random_density(np.random.default_rng(0), (("A", 4), ("B", 4))).matrix
    problem = built_program(monkeypatch,
                            lambda: entropy._smooth_hmin_dense(rho, 4, 4, 0.05))
    sol = solve(problem, max_iterations=1)
    assert problem.block_dims[0] == 32  # V = [[D, Y], [Y^H, rho_hat]], rank 16
    assert sol.schur_kernels[32] == "family"
    assert set(sol.schur_kernels) == set(problem.block_dims)


def test_dense_only_solves_do_not_import_scipy_sparse():
    # scipy.sparse costs every start-up about 1.7 MB and up to 25 ms, and no
    # module of the package imports it; only a program with constraint
    # families imports the family term.  A fresh interpreter imports the
    # package and the CLI and solves the diagonal smoothing oracle program,
    # whose groups all take the dense kernel.
    code = textwrap.dedent("""
        import sys
        import qdecouple.cli
        from qdecouple import decoupling, entropy, sdp
        from test_entropy import diag_smoothing_sdp
        entropy._smooth_hmin_diag = diag_smoothing_sdp
        kernels = []
        solve = sdp.solve
        def recording(problem, **kwargs):
            sol = solve(problem, **kwargs)
            kernels.append(sol.schur_kernels)
            return sol
        sdp.solve = recording
        entropy.h_min_smooth(decoupling.classical_state(2), ("A",), ("E",), 0.05)
        assert kernels and all(set(k.values()) == {"dense"} for k in kernels), kernels
        print(sorted(m for m in sys.modules
                     if m.startswith("scipy.sparse") or m == "qdecouple._sdp_family"))
        """)
    src = str(Path(sdp.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, tests] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# stack-size limit
# ---------------------------------------------------------------------------

def test_oversized_program_fails_before_allocating():
    # dense smoothing at 8x8: m = 8194 rows of 20546 entries, about 2.7 GB
    # per stack copy; refused after about 0.6 s of row generation (2 cores)
    rho = random_density(np.random.default_rng(3), (("A", 8), ("B", 8)))
    start = time.monotonic()
    with pytest.raises(DimCapError, match=r"need \d+ stack entries, above 67108864"):
        entropy.h_min_smooth(rho, ("A",), ("B",), 0.05)
    assert time.monotonic() - start < 2.0


def test_dense_smoothing_4x8_is_within_the_limit(monkeypatch):
    rho = random_density(np.random.default_rng(4), (("A", 4), ("B", 8))).matrix
    problem = built_program(monkeypatch,
                            lambda: entropy._smooth_hmin_dense(rho, 4, 8, 0.05))
    entries = problem.num_constraints * sum(n * n for n in problem.block_dims)
    assert problem.num_constraints == 32 * 32 + 32 * 32 + 2
    assert entries == 10_631_300 <= sdp.MAX_STACK_ENTRIES
