"""Tests for the staged small-supersolution pipeline."""

import math
from collections import Counter

import numpy as np
import pytest

from modelpot import cli, core, criteria, obstacle
from modelpot.criteria import PropertyTag

from oracles import KL_WARPINGS, khasminskii_candidate_sweep, stage_candidates


EUC2 = core.manifold_from_tag("euclidean", 2)
EUC3 = core.manifold_from_tag("euclidean", 3)
RADII = [4.0, 8.0, 16.0, 32.0]


@pytest.fixture(scope="module")
def plane_report():
    return obstacle.khasminskii_construct(
        EUC2, 2.0, 0.0, K_radius=1.0, Omega_radius=2.0, eps=0.1,
        exhaustion_radii=RADII)


def test_plane_builds_potential(plane_report):
    rep = plane_report
    assert rep.verdict == "PotentialBuilt"
    assert rep.n_stages == len(RADII) - 1
    assert rep.h_limit_sup < 1e-3


def test_plane_budget_and_smallness(plane_report):
    rep = plane_report
    eps = 0.1
    # per-stage budgets eps/2^n and their sum below eps
    for n, used in enumerate(rep.budget_used, start=1):
        assert used <= eps / 2 ** n + 1e-12
    assert sum(rep.budget_used) <= eps + 1e-12
    # final profile small on the control annulus, zero at the core boundary
    on_omega = rep.w.problem.grid <= 2.0
    assert np.max(rep.w.values[on_omega]) <= eps + 1e-12
    assert rep.w.values[0] == 0.0


def test_plane_profile_is_supersolution_and_monotone(plane_report):
    rep = plane_report
    prob = rep.w.problem
    assert obstacle.is_supersolution(prob, rep.w.values, tol=1e-8).ok
    assert np.all(np.diff(rep.w.values) >= -1e-12)


def test_plane_profile_exhausts(plane_report):
    # the unscaled stages climb one level per stage; after scaling the
    # profile still attains its maximum at the outer end
    w = plane_report.w.values
    assert w[-1] == pytest.approx(np.max(w))
    assert w[-1] > 0


def test_space_detects_nonzero_limit():
    rep = obstacle.khasminskii_construct(
        EUC3, 2.0, 0.0, K_radius=1.0, Omega_radius=2.0, eps=0.1,
        exhaustion_radii=RADII)
    assert rep.verdict == "HLimitNonzero"
    assert rep.n_stages == 0
    # analytic limit 1 - 1/r has sup 0.75 on [1, 4]
    assert rep.h_limit_sup == pytest.approx(0.75, abs=0.15)


UNIT_RADII = [4.0, 6.0, 8.0, 12.0]


@pytest.mark.parametrize("tag, m, p, radii", [
    (tag, m, p, UNIT_RADII)
    for tag, m in (("euclidean", 2), ("euclidean", 3), ("hyperbolic", 2))
    for p in (1.5, 2.0, 3.0, 6.0) if (tag, p) != ("hyperbolic", 1.5)
] + [
    # past rho = 6 the weights reach sinh(r) and Newton stalls above the
    # absolute stationarity gate, so the reference exists only up to 6
    ("hyperbolic", 2, 1.5, UNIT_RADII[:2]),
])
def test_zero_lambda_unit_solutions_are_the_newton_solutions(tag, m, p,
                                                             radii):
    # at lambda = 0 stage 0 takes every h_j from one cumulative sum: it is
    # the Newton solution of its unit problem to rounding, and it passes
    # the solver's stationarity gate (solve_dirichlet is itself a closed
    # form at lambda = 0, so the reference is the Newton route)
    grid = obstacle._construct_grid(1.0, 2.0, radii, 48)
    prob = obstacle.make_problem(core.manifold_from_tag(tag, m), p, 0.0,
                                 grid)
    idx = np.searchsorted(grid, radii)
    for k, h in zip(idx, obstacle._unit_solutions(prob, idx)):
        sub = prob.leading(k)
        newton = obstacle._projected_newton(
            sub, obstacle.ObstacleSpec.dirichlet(k + 1, 0.0, 1.0)).values
        np.testing.assert_allclose(h[:k + 1], newton, rtol=0, atol=1e-14)
        assert np.all(h[k:] == 1.0)
        stat, _, _ = obstacle.residual_complementarity(
            sub, h[:k + 1], obstacle.ObstacleSpec.dirichlet(k + 1, 0.0, 1.0))
        assert stat <= 1e-8


def test_zero_lambda_unit_solutions_on_a_tiny_core():
    # h_e w_e^(-1/(p-1)) passes the largest double for a core this small
    # at p = 1.1, but S in units of the least weight does not: every h_j
    # is 1 but near K, so the limit is nonzero.  Newton stops once its
    # update is at most 1e-10 and lands within 1e-9 of the exact h_j
    M = core.manifold_from_tag("euclidean", 5)
    radii = [4e-9, 8e-9, 16e-9, 32e-9]
    rep = obstacle.khasminskii_construct(M, 1.1, 0.0, 1e-9, 2e-9, 0.1, radii)
    assert rep.verdict == "HLimitNonzero"
    assert rep.h_limit_sup == pytest.approx(1.0, abs=1e-12)
    prob = rep.w.problem
    idx = np.searchsorted(prob.grid, radii)
    for k, h in zip(idx, obstacle._unit_solutions(prob, idx)):
        newton = obstacle._projected_newton(
            prob.leading(k),
            obstacle.ObstacleSpec.dirichlet(k + 1, 0.0, 1.0)).values
        np.testing.assert_allclose(h[:k + 1], newton, rtol=0, atol=1e-9)


def test_stage_zero_solutions_decrease(plane_report):
    sups = plane_report.stage_sups
    assert all(sups[i + 1] <= sups[i] + 1e-9 for i in range(len(sups) - 1))


def test_report_csv_shape(plane_report, monkeypatch, capsys):
    # the khasminskii command writes the report of the pipeline it runs
    monkeypatch.setattr(obstacle, "khasminskii_construct",
                        lambda *args, **kwargs: plane_report)
    assert cli.main(["khasminskii", "--set", "manifold=euclidean",
                     "--set", "m=2", "--set", "K_radius=1",
                     "--set", "Omega_radius=2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# command=khasminskii", "# verdict=PotentialBuilt"]
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header] == "r,w"
    assert len(lines) - header - 1 == len(plane_report.w.problem.grid)


def test_positive_lambda_pipeline_runs():
    rep = obstacle.khasminskii_construct(
        EUC2, 2.0, 0.5, K_radius=1.0, Omega_radius=2.0, eps=0.1,
        exhaustion_radii=RADII)
    assert rep.verdict == "PotentialBuilt"
    assert obstacle.is_supersolution(rep.w.problem, rep.w.values, tol=1e-8).ok


def test_plane_pipeline_at_p3():
    eps = 0.1
    rep = obstacle.khasminskii_construct(
        EUC2, 3.0, 0.0, K_radius=1.0, Omega_radius=2.0, eps=eps,
        exhaustion_radii=RADII)
    assert rep.verdict == "PotentialBuilt"
    assert sum(rep.budget_used) <= eps + 1e-12
    assert obstacle.is_supersolution(rep.w.problem, rep.w.values, tol=1e-8).ok
    assert np.all(np.diff(rep.w.values) >= -1e-12)


def test_construct_validation():
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 3.0, 2.0, 0.1, RADII)
    # a nan used to pass every comparison: with tol=nan the limit check
    # never fires, and R^3 reports PotentialBuilt
    for eps, tol in ((-0.1, 1e-3), (math.nan, 1e-3), (math.inf, 1e-3),
                     (0.1, math.nan), (0.1, math.inf)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            obstacle.khasminskii_construct(EUC3, 2.0, 0.0, 1.0, 2.0, eps,
                                           RADII, tol=tol)
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 1.0, 2.0, 0.1,
                                       [4.0, 8.0])
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 1.0, 2.0, 0.1,
                                       [8.0, 4.0, 16.0, 32.0])
    # a nan radius used to reach np.polyfit (LinAlgError), an infinite one
    # the sphere volume at r = inf
    for radii, bad in (([4.0, math.nan, 16.0, 32.0], "nan"),
                       ([4.0, 8.0, 16.0, math.inf], "inf")):
        with pytest.raises(ValueError, match=f"radii must be finite, got "
                                             f"{bad}"):
            obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 1.0, 2.0, 0.1,
                                           radii)


@pytest.mark.parametrize("M, p, lam", [
    (EUC2, 2.0, 0.0), (EUC2, 2.0, 1.0), (EUC2, 3.0, 0.0), (EUC2, 3.0, 1.0),
    (EUC3, 2.0, 1.0),   # increments tie across candidates at lambda > 0
])
def test_whole_grid_stage_is_the_least_candidate(monkeypatch, M, p, lam):
    solves, problems = [], []
    solve, make = obstacle.solve_obstacle, obstacle.make_problem

    def recording_solve(prob, spec, **kwargs):
        out = solve(prob, spec, **kwargs)
        solves.append((prob, spec, out.values))
        return out

    def recording_make(*args):
        problems.append(args)
        return make(*args)

    monkeypatch.setattr(obstacle, "solve_obstacle", recording_solve)
    monkeypatch.setattr(obstacle, "make_problem", recording_make)
    rep = obstacle.khasminskii_construct(
        M, p, lam, K_radius=1.0, Omega_radius=2.0, eps=0.1,
        exhaustion_radii=RADII)
    monkeypatch.undo()
    ref = khasminskii_candidate_sweep(M, p, lam, 1.0, 2.0, 0.1, RADII)

    assert rep.verdict == ref.verdict == "PotentialBuilt"
    assert rep.n_stages == ref.n_stages
    np.testing.assert_allclose(rep.budget_used, ref.budget_used,
                               rtol=0, atol=1e-12)
    # one solve per stage, and per unit problem when lambda > 0 (at
    # lambda = 0 they are one cumulative sum); only the master problem is
    # built, and the unit problems are its leading slices
    unit_solves = 0 if lam == 0 else len(RADII)
    assert len(solves) == unit_solves + rep.n_stages - 1
    assert len(problems) == 1
    stages = [(prob, out) for prob, spec, out in solves
              if spec.theta_right > 1.0]
    assert len(stages) == rep.n_stages - 1
    w = ref.w0
    for n, (prob, w_next) in enumerate(stages, start=1):
        assert prob.n_nodes == len(rep.w.problem.grid)
        idx_n = int(np.searchsorted(rep.w.problem.grid, RADII[n]))
        inc = float(np.max((w_next - w)[:idx_n + 1]))
        for cand_inc, _ in stage_candidates(M, p, lam, rep.w.problem.grid,
                                            RADII, ref.h_funcs, w, n):
            assert inc <= cand_inc + 1e-12
        w = w_next


def test_khasminskii_answers_where_classify_does():
    # the khasminskii column of the paper's theorem: a potential exists iff
    # the manifold is parabolic (lambda = 0) or KL holds (lambda = 1).  An
    # opposite verdict or an untyped error fails; the typed errors of the
    # absolute stopping gates and of weights past a double are counted,
    # and their counts are upper bounds to be tightened as they fall
    outcomes = Counter()
    for tag, m, _ in KL_WARPINGS:
        M = core.manifold_from_tag(tag, m)
        for p in (2.0, 3.0):
            op = core.p_laplacian_operator(p)
            parabolic = criteria.classify_parabolic(M, op).property
            kl = criteria.classify_KL(M, op, core.potential_from_tag(
                f"linear-power:p={p:g},lambda=1")).property
            for lam, exists in ((0.0, parabolic is PropertyTag.PARABOLIC),
                                (1.0, kl is PropertyTag.KL_HOLDS)):
                for radii in ([3.0, 4.0, 5.0, 6.0], RADII):
                    try:
                        rep = obstacle.khasminskii_construct(
                            M, p, lam, 1.0, 2.0, 0.1, radii)
                    except (obstacle.SweepLimitError, core.DomainError) as e:
                        outcomes[type(e).__name__] += 1
                        continue
                    built = rep.verdict == "PotentialBuilt"
                    outcomes["agree" if built == exists else "opposite"] += 1
    assert sum(outcomes.values()) == 48
    assert outcomes["opposite"] == 0
    assert outcomes["SweepLimitError"] <= 8
    assert outcomes["DomainError"] <= 8
