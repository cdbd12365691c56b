"""Tests for the staged small-supersolution pipeline."""

import math
from collections import Counter

import numpy as np
import pytest

from modelpot import cli, core, criteria, obstacle, radial
from modelpot.criteria import PropertyTag

from oracles import (KL_WARPINGS, khasminskii_candidate_sweep,
                     stage_candidates, stage_grid_reference, unit_solutions)


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
    assert obstacle.is_supersolution(prob, rep.w.values).ok
    assert np.all(np.diff(rep.w.values) >= -1e-12)


def test_plane_profile_exhausts(plane_report):
    # the unscaled stages climb one level per stage; after scaling the
    # profile still attains its maximum at the outer end
    w = plane_report.w.values
    assert w[-1] == pytest.approx(np.max(w))
    assert w[-1] > 0


@pytest.mark.parametrize("K, radii", [
    (1.0, RADII), (1.0, [4.0, 6.0, 8.0, 12.0]), (1.0, [4.0, 8.0, 16.0, 64.0]),
    # past R_MAX: the classifier's range grows with rho_N
    (1e4, [4e4, 8e4, 1.6e5, 3.2e5])])
@pytest.mark.parametrize("m, p", [(3, 2.0), (4, 2.0), (4, 3.0), (5, 3.0),
                                  (3, 1.5)])
def test_space_detects_nonzero_limit(m, p, K, radii):
    # on R^m with e = (m-1)/(p-1) > 1 the unit solutions are S(r)/S(rho_j),
    # S(r) = K^(1-e) (1 - (r/K)^(1-e)) / (e-1), and decrease to the limit
    # 1 - (r/K)^(1-e), whose sup on [K, rho_1] h_limit_sup = h_N(rho_1)
    # bounds from above
    M = core.manifold_from_tag("euclidean", m)
    rep = obstacle.khasminskii_construct(M, p, 0.0, K, 2.0 * K, 0.1, radii)
    assert rep.verdict == "HLimitNonzero"
    assert rep.n_stages == 0
    e = (m - 1.0) / (p - 1.0)
    rho_1, rho_N = radii[0] / K, radii[-1] / K
    assert rep.h_limit_sup >= 1.0 - rho_1 ** (1.0 - e)
    closed = (1.0 - rho_1 ** (1.0 - e)) / (1.0 - rho_N ** (1.0 - e))
    # S is the midpoint sum of the convex t^-e: on an edge [a, q a] it
    # falls short of the integral by h^3 f''(xi) / 24, at most delta of it,
    # delta = e (e+1) (q-1)^2 / 24 ((1+q)/2)^e, so the quotient of two sums
    # is within delta / (1 - delta) of the closed form
    grid = rep.w.problem.grid
    q = float(np.max(grid[1:] / grid[:-1]))
    delta = e * (e + 1.0) * (q - 1.0) ** 2 / 24.0 * ((1.0 + q) / 2.0) ** e
    assert abs(rep.h_limit_sup / closed - 1.0) <= delta / (1.0 - delta)
    if radii[1:] == [2.0 * r for r in radii[:-1]]:
        # every stage is one doubling, so every edge has one ratio q and
        # one relative shortfall, which cancels: exact to rounding
        assert abs(rep.h_limit_sup / closed - 1.0) <= 1e-14


def test_verdict_is_the_classifier_from_the_last_radius(monkeypatch):
    # one classify_KL call on classify's range [1, R_MAX], whatever the
    # radii: radii past R_MAX build, and their verdict is the manifold's
    calls = []
    classify_KL = obstacle.classify_KL

    def recorded(M, op, pot):
        cls = classify_KL(M, op, pot)
        calls.append((op.name, pot.name, cls.divergence.r_max))
        return cls

    monkeypatch.setattr(obstacle, "classify_KL", recorded)
    for K, radii, lam in ((1.0, RADII, 0.0), (1.0, RADII, 1.0),
                          (1.0, [4.0, 8.0, 16.0, 1e4], 1.0),
                          (1e4, [4e4, 8e4, 1.6e5, 3.2e5], 0.0)):
        rep = obstacle.khasminskii_construct(EUC2, 2.0, lam, K, 2.0 * K, 0.1,
                                             radii)
        assert rep.verdict == "PotentialBuilt"
        assert rep.h_limit_sup == 0.0
        assert rep.divergence.reason == "critical_slope"
        assert obstacle.is_supersolution(rep.w.problem, rep.w.values).ok
    assert calls == [
        ("p-laplacian:p=2", "linear-power:p=2,lambda=0", criteria.R_MAX),
        ("p-laplacian:p=2", "linear-power:p=2,lambda=1", criteria.R_MAX),
        ("p-laplacian:p=2", "linear-power:p=2,lambda=1", criteria.R_MAX),
        ("p-laplacian:p=2", "linear-power:p=2,lambda=0", criteria.R_MAX)]



def _log_family(a, closed_form):
    """``g = r log(e + r)^a`` on the plane (m = 2): in closed form, or as
    400 samples on ``geomspace(1e-3, 1e7)``."""
    if closed_form:
        return core.ModelManifold(
            2, lambda r: np.log(r) + a * np.log(np.log(math.e + r)), True)
    r = np.geomspace(1e-3, 1e7, 400)
    return core.tabulated_manifold(r, r * np.log(math.e + r) ** a, 2)


@pytest.mark.parametrize("closed_form,p", [(True, 2.0), (False, 2.0),
                                           (False, 3.0)])
@pytest.mark.parametrize("a", [0.5, 1.0, 1.2, 1.5, 2.0, 2.5, 3.0, 5.0])
def test_every_command_tests_liouville_on_one_range(a, closed_form, p):
    # the Liouville property is the whole manifold's, so evans from R = 4
    # and khasminskii on radii 4..32 give classify's verdict: at p = 2 the
    # family is non-parabolic iff a > 1, at p = 3 it is parabolic, and
    # the test may only fail to tell
    M = _log_family(a, closed_form)
    op = core.p_laplacian_operator(p)
    cls = criteria.classify_parabolic(M, op)
    theory = PropertyTag.NON_PARABOLIC if p == 2.0 and a > 1.0 \
        else PropertyTag.PARABOLIC
    assert cls.property in (theory, PropertyTag.INCONCLUSIVE)
    try:
        exhaustion = radial.evans_for_triple(
            M, op, core.zero_potential(), R=4.0, R1=8.0, eps=0.1,
            R_max=60.0).exhaustion
    except radial.NoExhaustion as exc:
        exhaustion = exc.divergence
    assert exhaustion.verdict is cls.divergence.verdict
    rep = obstacle.khasminskii_construct(M, p, 0.0, 1.0, 2.0, 0.1, RADII)
    assert rep.verdict == {PropertyTag.PARABOLIC: "PotentialBuilt",
                           PropertyTag.NON_PARABOLIC: "HLimitNonzero",
                           PropertyTag.INCONCLUSIVE: "Inconclusive"}[
                               cls.property]


UNIT_RADII = [4.0, 6.0, 8.0, 12.0]


def grid_pin_failures(build):
    """The layouts on which ``build`` differs in any bit from the per-stage
    ``geomspace`` grid: 1000 seeded ones (K, Omega, 1-7 radii, 2-80 nodes
    per stage, stages from 1e-3 to 10 times their start) and the
    benchmark's."""
    rng = np.random.default_rng(32)
    layouts = []
    for _ in range(1000):
        K = 10.0 ** rng.uniform(-3.0, 2.0)
        Omega = K * (1.0 + 10.0 ** rng.uniform(-3.0, 1.0))
        steps = 1.0 + 10.0 ** rng.uniform(-3.0, 1.0, rng.integers(1, 8))
        layouts.append((K, Omega, (Omega * np.cumprod(steps)).tolist(),
                        int(rng.integers(2, 81))))
    layouts += [(1.0, 2.0, radii, 48) for radii in (
        RADII, UNIT_RADII, [4.0, 8.0, 16.0, 32.0, 64.0],
        [4.0, 8.0, 16.0, 32.0, 64.0, 128.0])] + [(1.0, 2.0, RADII, 5)]
    return [layout for layout in layouts
            if build(*layout).tobytes()
            != stage_grid_reference(*layout).tobytes()]


def test_stage_grid_is_the_per_stage_geomspace_bit_for_bit():
    # one geomspace pass over all stages takes each row's ends elementwise
    # in the scalar arithmetic; a grid from exp(linspace(log lo, log hi))
    # rounds differently, and the pin refuses it
    assert grid_pin_failures(obstacle._construct_grid) == []

    def log_linear(K, Omega, radii, nodes):
        ends = np.log([K, Omega, *radii])
        return np.unique(np.exp(np.linspace(ends[:-1], ends[1:], nodes,
                                            axis=1)))
    assert len(grid_pin_failures(log_linear)) > 900


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
    M = core.manifold_from_tag(tag, m)
    grid = obstacle._construct_grid(1.0, 2.0, radii, 48)
    prob = obstacle.make_problem(M, p, 0.0, grid)
    idx = np.searchsorted(grid, radii)
    S = obstacle._p_harmonic_coordinate(prob)
    for k, h in zip(idx, obstacle._unit_solutions(prob, idx)):
        # the one-array pass is the per-k quotient bit for bit
        assert h.tobytes() == np.append(S[:k + 1] / S[k],
                                        np.ones(len(grid) - k - 1)).tobytes()
        sub = obstacle.make_problem(M, p, 0.0, grid[:k + 1])
        newton = obstacle._projected_newton(
            sub, obstacle.ObstacleSpec.dirichlet(k + 1, 0.0, 1.0)).values
        np.testing.assert_allclose(h[:k + 1], newton, rtol=0, atol=1e-14)
        assert np.all(h[k:] == 1.0)
        _, gated = obstacle._kkt_gate(sub, h[:k + 1],
                                      np.full(k - 1, -math.inf))
        assert gated.stationarity <= 1e-8


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
            obstacle.make_problem(M, 1.1, 0.0, prob.grid[:k + 1]),
            obstacle.ObstacleSpec.dirichlet(k + 1, 0.0, 1.0)).values
        np.testing.assert_allclose(h[:k + 1], newton, rtol=0, atol=1e-9)


@pytest.mark.parametrize("tag, m", [("euclidean", 2), ("euclidean", 3),
                                    ("hyperbolic", 2)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
@pytest.mark.parametrize("lam", [0.25, 1.0])
def test_sweep_unit_solutions_are_the_newton_solutions(tag, m, p, lam):
    # at lambda > 0 stage 0 takes every h_j from one forward sweep; the
    # reference solves each unit problem by Newton, which stops once its
    # update is at most 1e-10, so the two agree to that (measured: 6.8e-15)
    M = core.manifold_from_tag(tag, m)
    grid = obstacle._construct_grid(1.0, 2.0, UNIT_RADII, 48)
    prob = obstacle.make_problem(M, p, lam, grid)
    idx = np.searchsorted(grid, UNIT_RADII)
    r = obstacle._forward_sweep(prob)
    for k, h, ref in zip(idx, obstacle._unit_solutions(prob, idx),
                         unit_solutions(M, p, lam, grid, UNIT_RADII)):
        np.testing.assert_allclose(h, ref, rtol=0, atol=1e-10)
        # each row is its own running product of the sweep, bit for bit
        assert h.tobytes() == np.concatenate(
            (np.cumprod(r[k - 1::-1])[::-1], np.ones(len(grid) - k))
        ).tobytes()


def test_scale_free_gate_builds_where_the_absolute_one_failed():
    # on hyperbolic m=3 the weights reach sinh(32)^2, and the absolute
    # residual of the built profile is -1.8e-3 at node 187, just inside
    # rho_{N-1}: rounding, which the backward error measures as ~1e-14
    M = core.manifold_from_tag("hyperbolic", 3)
    rep = obstacle.khasminskii_construct(M, 2.0, 1.0, 1.0, 2.0, 0.1, RADII)
    assert rep.verdict == "PotentialBuilt"
    prob, w = rep.w.problem, rep.w.values
    # the problem's weights are relative to exp(log_scale)
    assert math.exp(prob.log_scale) * prob.residual(w)[187] < -1e-3
    check = obstacle.is_supersolution(prob, w)
    assert check.ok and check.worst_residual > -1e-12
    # scaling by a power of two is exact at p = 2, and leaves the ratio
    assert obstacle.is_supersolution(prob, 2.0 ** 300 * w) == check
    # a dip of 1e-8 relative at that node is not rounding, and is refused
    dipped = w.copy()
    dipped[187] *= 1.0 - 1e-8
    check = obstacle.is_supersolution(prob, dipped)
    assert not check.ok
    assert check.worst_node == 187 and check.worst_residual < -1e-8


@pytest.mark.parametrize("delta", [54 * 2.0 ** -52, 1e-12, 1e-9, 1e-6],
                         ids=["54ulps", "1e-12", "1e-9", "1e-6"])
@pytest.mark.parametrize("p, lam", [(2.0, 0.0), (2.0, 1.0), (3.0, 0.0),
                                    (3.0, 1.0)])
def test_short_stage_builds_its_exact_supersolution(p, lam, delta):
    # a stage from 4 to 4 (1 + delta) (54 ulps is the shortest with 48
    # distinct nodes) makes du tiny against u there, so the rounding of the
    # node values moves a flux by (p-1) u / du of it: the final gate counts
    # that, as the KKT gate does, and passes the profile, a supersolution in
    # exact arithmetic.  A measure of the fluxes alone refused it (-1.4e-5
    # at node 117 for p = 2, lambda = 0, delta = 1e-9)
    radii = [4.0, 4.0 * (1.0 + delta), 16.0, 32.0]
    rep = obstacle.khasminskii_construct(EUC2, p, lam, 1.0, 2.0, 0.1, radii)
    assert rep.verdict == "PotentialBuilt"
    prob, w = rep.w.problem, rep.w.values
    assert obstacle.is_supersolution(prob, w).worst_residual > -1e-12
    # the profile is its own obstacle solution, after 0 steps; at p = 3,
    # lambda = 0 on 54 ulps the hull refuses its own majorant at rho_2
    # (KKT defect 0.88 at node 141), on values the gate does not make
    if (p, lam) != (3.0, 0.0) or delta >= 1e-12:
        sol = obstacle.solve_obstacle(
            prob, obstacle.ObstacleSpec(w[1:-1], w[0], w[-1]))
        assert sol.iterations == 0
        assert np.max(np.abs(sol.values - w)) <= 4e-16 * np.max(w)
    # a dip of 1e-8 relative inside the short stage (nodes 94..141) is not
    # rounding, and is refused at its node
    for i in (100, 115, 130):
        dipped = w.copy()
        dipped[i] *= 1.0 - 1e-8
        check = obstacle.is_supersolution(prob, dipped)
        assert not check.ok and check.worst_node == i


def test_p_near_one_gate_counts_the_node_values():
    # at p = 1.1 on hyperbolic m=3 the final gate refused the built profile
    # by fluxes alone; counting the node values' rounding it builds
    M = core.manifold_from_tag("hyperbolic", 3)
    rep = obstacle.khasminskii_construct(M, 1.1, 0.25, 1.0, 2.0, 0.1, RADII)
    assert rep.verdict == "PotentialBuilt"
    assert obstacle.is_supersolution(rep.w.problem, rep.w.values).ok


def test_sweep_stays_in_range():
    # u grows like exp(35 r) on the plane at p = 1.1, lambda = 5, past the
    # largest double; the sweep carries only ratios, so stage 0 builds
    # (pytest turns an overflow warning into an error).  p = 10 raises no
    # u^(p-1) either, and a sweep that does overflow names its node
    for p, lam in ((1.1, 5.0), (10.0, 1.0), (10.0, 100.0)):
        rep = obstacle.khasminskii_construct(EUC2, p, lam, 1.0, 2.0, 0.1,
                                             RADII)
        assert rep.verdict == "PotentialBuilt", (p, lam)
        assert obstacle.is_supersolution(rep.w.problem, rep.w.values).ok
    with pytest.raises(core.NumericError,
                       match="the forward sweep overflows at node 1"):
        obstacle.khasminskii_construct(EUC2, 1.1, 1e35, 1.0, 2.0, 0.1, RADII)
    # its start w_0 / h_0^(p-1) at p = 10: h_0^(p-1) underflows to 0 at
    # radii near 1e-40 and overflows near 1e40; both used to raise a bare
    # ZeroDivisionError or OverflowError.  The obstacle solve starts from
    # the same sweep
    for scale in (1e-40, 1e40):
        with pytest.raises(core.NumericError,
                           match=r"overflows at node 0: w_0 / h_0\^\(p-1\) "
                                 r"with h_0 = "):
            obstacle.khasminskii_construct(
                EUC2, 10.0, 1.0, 1.0 * scale, 2.0 * scale, 0.1,
                [r * scale for r in RADII])
        prob = obstacle.make_problem(
            EUC2, 10.0, 1.0, np.geomspace(scale, 2.0 * scale, 101))
        with pytest.raises(core.NumericError, match="overflows at node 0"):
            obstacle.solve_obstacle(prob, obstacle.ObstacleSpec.dirichlet(
                prob.n_nodes, 0.0, 1.0))


def test_stage_zero_solutions_decrease(plane_report):
    sups = plane_report.stage_sups
    assert all(sups[i + 1] <= sups[i] + 1e-9 for i in range(len(sups) - 1))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_stage_sups_are_values_at_the_first_radius(lam):
    # every unit solution is nondecreasing bit for bit (ratios <= 1
    # multiplied down from node k, or S / S[k]), so its sup on [K, rho_1]
    # is its value at rho_1
    rep = obstacle.khasminskii_construct(EUC2, 2.0, lam, 1.0, 2.0, 0.1, RADII)
    prob = rep.w.problem
    idx = np.searchsorted(prob.grid, RADII)
    H = obstacle._unit_solutions(prob, idx)
    assert np.all(np.diff(H, axis=1) >= 0.0)
    assert rep.stage_sups == tuple(H[:, idx[0]].tolist())


def test_budget_entries_are_the_rises_of_the_last_unit_solution():
    # stage n >= 2 raises the profile by h_{N-1}, whose sup on [K, rho_n]
    # is h_{N-1}(rho_n): the budget is sigma times that value, even where
    # it lies far below an ulp of the profile (6e-40 at rho_2 here)
    radii = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    rep = obstacle.khasminskii_construct(EUC2, 1.5, 1.0, 1.0, 2.0, 0.1, radii)
    assert rep.verdict == "PotentialBuilt" and rep.n_stages == 5
    prob = rep.w.problem
    idx = np.searchsorted(prob.grid, radii)
    h_last = obstacle._unit_solutions(prob, idx)[-2]
    # the profile is sigma (h_{j*} + (N - 1) h_{N-1}), both 1 at rho_N
    sigma = rep.w.values[-1] / rep.n_stages
    assert all(b > 0 for b in rep.budget_used)
    for n in range(1, rep.n_stages):
        assert rep.budget_used[n] == pytest.approx(sigma * h_last[idx[n]],
                                                   rel=1e-12, abs=0.0)
    assert rep.budget_used[1] < 1e-38


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
    assert obstacle.is_supersolution(rep.w.problem, rep.w.values).ok


def test_plane_pipeline_at_p3():
    eps = 0.1
    rep = obstacle.khasminskii_construct(
        EUC2, 3.0, 0.0, K_radius=1.0, Omega_radius=2.0, eps=eps,
        exhaustion_radii=RADII)
    assert rep.verdict == "PotentialBuilt"
    assert sum(rep.budget_used) <= eps + 1e-12
    assert obstacle.is_supersolution(rep.w.problem, rep.w.values).ok
    assert np.all(np.diff(rep.w.values) >= -1e-12)


def test_construct_validation():
    with pytest.raises(ValueError):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 3.0, 2.0, 0.1, RADII)
    for eps in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be positive and finite"):
            obstacle.khasminskii_construct(EUC3, 2.0, 0.0, 1.0, 2.0, eps,
                                           RADII)
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
    # a stage one ulp long has 2 doubles for its 48 nodes: np.unique used
    # to merge them, and the final check failed at node 95
    with pytest.raises(ValueError, match=r"the stage from r=4\.0 to r=4\."
                                         r"000000000000001 is too short"):
        obstacle.khasminskii_construct(EUC2, 2.0, 0.0, 1.0, 2.0, 0.1,
                                       [4.0, 4.000000000000001, 16.0, 32.0])


@pytest.mark.parametrize("M, p, lam", [
    (EUC2, 2.0, 0.0), (EUC2, 2.0, 1.0), (EUC2, 3.0, 0.0), (EUC2, 3.0, 1.0),
    (EUC3, 2.0, 1.0),   # increments tie across candidates at lambda > 0
])
def test_whole_grid_stage_is_the_least_candidate(monkeypatch, M, p, lam):
    problems = []
    make = obstacle.make_problem

    def no_solve(*args, **kwargs):
        raise AssertionError("khasminskii_construct made a solve")

    def recording_make(*args):
        problems.append(args)
        return make(*args)

    for name in ("solve_obstacle", "solve_dirichlet", "_projected_newton",
                 "_concave_majorant"):
        monkeypatch.setattr(obstacle, name, no_solve)
    monkeypatch.setattr(obstacle, "make_problem", recording_make)
    rep = obstacle.khasminskii_construct(
        M, p, lam, K_radius=1.0, Omega_radius=2.0, eps=0.1,
        exhaustion_radii=RADII)
    monkeypatch.undo()
    ref = khasminskii_candidate_sweep(M, p, lam, 1.0, 2.0, 0.1, RADII)

    assert rep.verdict == "PotentialBuilt"
    assert rep.n_stages == ref.n_stages
    np.testing.assert_allclose(rep.budget_used, ref.budget_used,
                               rtol=0, atol=1e-12)
    # no solve at any lambda (no_solve raises): the unit solutions are one
    # sweep (at lambda = 0 one cumulative sum) and the stages are closed
    # form; only the master problem is built
    assert len(problems) == 1
    # every closed-form stage w_n = w_0 + n h_{N-1} rises by no more than
    # any candidate of the sampling reference
    grid = rep.w.problem.grid
    for n in range(1, rep.n_stages):
        w, w_next = (ref.w0 + k * ref.h_funcs[-2] for k in (n - 1, n))
        idx_n = int(np.searchsorted(grid, RADII[n]))
        inc = float(np.max((w_next - w)[:idx_n + 1]))
        for cand_inc, _ in stage_candidates(M, p, lam, grid, RADII,
                                            ref.h_funcs, w, n):
            assert inc <= cand_inc + 1e-12


@pytest.mark.parametrize("tag, m, stages", [("euclidean", 2, 30),
                                            ("euclidean", 3, 24),
                                            ("hyperbolic", 2, 10)])
def test_stage_obstacle_is_its_own_solution(tag, m, stages):
    # h_{j*} + n h_{N-1} is a discrete supersolution for every p > 1 and
    # lambda >= 0 ((p-1)-homogeneity on [K, rho_{j*}], a nonnegative
    # potential defect past it, dropping fluxes at the kinks), so the
    # whole-grid obstacle problem of each stage returns its obstacle.  On
    # radii 3..6 every run takes j* = N; radii 4..32 add j* < N.  Only the
    # runs that reach the stages count, at least ``stages`` stages a warping
    M = core.manifold_from_tag(tag, m)
    checked = 0
    for radii in ([3.0, 4.0, 5.0, 6.0], RADII):
        for p in (1.5, 2.0, 3.0):
            for lam in (0.0, 0.25, 1.0):
                try:
                    rep = obstacle.khasminskii_construct(M, p, lam, 1.0, 2.0,
                                                         0.1, radii)
                except core.NumericError:
                    continue
                if rep.verdict != "PotentialBuilt":
                    continue
                prob = rep.w.problem
                idx = np.searchsorted(prob.grid, radii)
                h_funcs = obstacle._unit_solutions(prob, idx)
                j_star = next((j for j, s in enumerate(rep.stage_sups)
                               if s <= 0.05), len(radii) - 1)
                for n in range(1, len(radii) - 1):
                    psi = h_funcs[j_star] + n * h_funcs[-2]
                    assert obstacle.is_supersolution(prob, psi).ok
                    # at lambda > 0 Newton starts from max((n + 1) h_N,
                    # psi), which is psi
                    out = obstacle.solve_obstacle(
                        prob, obstacle.ObstacleSpec(psi[1:-1], 0.0, n + 1.0)
                    ).values
                    np.testing.assert_allclose(out, psi, rtol=1e-15, atol=0)
                    checked += 1
    assert checked >= stages


def test_khasminskii_answers_where_classify_does():
    # the khasminskii column of the paper's theorem: a potential exists iff
    # the manifold is parabolic (lambda = 0) or KL holds (lambda = 1).  An
    # opposite verdict, an Inconclusive or an untyped error fails; the
    # weights past a double are counted, and their count is an upper bound
    # to be tightened as it falls.  Stage 0 is a sweep, so no Newton step
    # can run out
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
                    if rep.verdict == "Inconclusive":
                        outcomes["Inconclusive"] += 1
                        continue
                    built = rep.verdict == "PotentialBuilt"
                    outcomes["agree" if built == exists else "opposite"] += 1
    assert sum(outcomes.values()) == 48
    assert outcomes["opposite"] == 0
    assert outcomes["agree"] >= 40
    assert outcomes["SweepLimitError"] == 0
    assert outcomes["Inconclusive"] == 0
    assert outcomes["DomainError"] <= 8
