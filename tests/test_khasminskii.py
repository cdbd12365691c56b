"""Tests for the staged small-supersolution pipeline."""

import numpy as np
import pytest

from modelpot import core, obstacle

from oracles import khasminskii_candidate_sweep, stage_candidates


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
    on_omega = rep.grid <= 2.0
    assert np.max(rep.w.values[on_omega]) <= eps + 1e-12
    assert rep.w.values[0] == 0.0


def test_plane_profile_is_supersolution_and_monotone(plane_report):
    rep = plane_report
    prob = rep.w.problem
    assert obstacle.is_supersolution(prob, rep.w, tol=1e-8).ok
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


def test_stage_zero_solutions_decrease(plane_report):
    sups = plane_report.stage_sups
    assert all(sups[i + 1] <= sups[i] + 1e-9 for i in range(len(sups) - 1))


def test_report_csv_shape(plane_report):
    text = plane_report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "# verdict=PotentialBuilt"
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header] == "r,w"
    assert len(lines) - header - 1 == len(plane_report.grid)


def test_positive_lambda_pipeline_runs():
    rep = obstacle.khasminskii_construct(
        EUC2, 2.0, 0.5, K_radius=1.0, Omega_radius=2.0, eps=0.1,
        exhaustion_radii=RADII)
    assert rep.verdict == "PotentialBuilt"
    assert obstacle.is_supersolution(rep.w.problem, rep.w, tol=1e-8).ok


def test_plane_pipeline_at_p3():
    eps = 0.1
    rep = obstacle.khasminskii_construct(
        EUC2, 3.0, 0.0, K_radius=1.0, Omega_radius=2.0, eps=eps,
        exhaustion_radii=RADII)
    assert rep.verdict == "PotentialBuilt"
    assert sum(rep.budget_used) <= eps + 1e-12
    assert obstacle.is_supersolution(rep.w.problem, rep.w, tol=1e-8).ok
    assert np.all(np.diff(rep.w.values) >= -1e-12)


def test_construct_validation():
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 3.0, 2.0, 0.1, RADII)
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 1.0, 2.0, -0.1, RADII)
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 1.0, 2.0, 0.1,
                                       [4.0, 8.0])
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 1.0, 2.0, 0.1,
                                       [8.0, 4.0, 16.0, 32.0])


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
    # one solve per unit problem and per stage; stages build no sub-problem
    assert len(solves) == len(RADII) + rep.n_stages - 1
    assert len(problems) == len(RADII) + 1
    stages = [(prob, out) for prob, spec, out in solves
              if spec.theta_right > 1.0]
    assert len(stages) == rep.n_stages - 1
    w = ref.w0
    for n, (prob, w_next) in enumerate(stages, start=1):
        assert prob.n_nodes == len(rep.grid)
        idx_n = int(np.searchsorted(rep.grid, RADII[n]))
        inc = float(np.max((w_next - w)[:idx_n + 1]))
        for cand_inc, _ in stage_candidates(M, p, lam, rep.grid, RADII,
                                            ref.h_funcs, w, n):
            assert inc <= cand_inc + 1e-12
        w = w_next
