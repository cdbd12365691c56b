"""Tests for the discrete obstacle solver: oracle comparisons,
convergence order, structural properties and error paths."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from modelpot import core, obstacle
from oracles import p_harmonic_profile, qp_obstacle_oracle, random_bump_spec


EUC2 = core.manifold_from_tag("euclidean", 2)
EUC3 = core.manifold_from_tag("euclidean", 3)


def make_euclidean_problem(m=3, p=2.0, lam=0.0, n=41, lo=1.0, hi=2.0):
    M = core.manifold_from_tag("euclidean", m)
    return obstacle.make_problem(M, p, lam, np.linspace(lo, hi, n))


# ---------------------------------------------------------------------------
# problem assembly


def test_make_problem_validation():
    grid = np.linspace(1.0, 2.0, 11)
    with pytest.raises(ValueError):
        obstacle.make_problem(EUC3, 1.05, 0.0, grid)    # p out of range
    with pytest.raises(ValueError):
        obstacle.make_problem(EUC3, 11.0, 0.0, grid)
    with pytest.raises(ValueError):
        obstacle.make_problem(EUC3, 2.0, -1.0, grid)    # negative lambda
    with pytest.raises(ValueError):
        obstacle.make_problem(EUC3, 2.0, 0.0, grid[::-1])
    with pytest.raises(ValueError):
        obstacle.make_problem(EUC3, 2.0, 0.0, np.array([1.0, 2.0]))


def test_energy_and_gradient_consistent():
    prob = make_euclidean_problem(p=3.0, lam=0.5)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.1, 1.0, prob.n_nodes)
    g = prob.gradient(u)
    for i in (0, 5, 20, prob.n_nodes - 1):
        h = 1e-7
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        fd = (prob.energy(up) - prob.energy(um)) / (2 * h)
        assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_constant_functions_are_supersolutions():
    prob = make_euclidean_problem(lam=0.7)
    assert obstacle.is_supersolution(prob, np.full(prob.n_nodes, 2.0)).ok
    # with lambda > 0 a positive constant is not a solution: strictly
    # positive residual somewhere
    res = prob.residual(np.full(prob.n_nodes, 2.0))
    assert np.all(res[1:-1] > 0)


# ---------------------------------------------------------------------------
# Dirichlet solves vs closed forms


@pytest.mark.parametrize("m,p", [(2, 2.0), (3, 2.0), (2, 3.0), (3, 3.0),
                                 (4, 1.5)])
def test_dirichlet_matches_p_harmonic(m, p):
    prob = make_euclidean_problem(m=m, p=p, n=201)
    sol = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    exact = p_harmonic_profile(p, m, prob.grid, 0.0, 1.0)
    assert np.max(np.abs(sol.values - exact)) < 5e-4


def test_dirichlet_refinement_order():
    # observed order of convergence of the p=3 solve toward the closed form
    errs = []
    ns = [26, 51, 101, 201]
    for n in ns:
        prob = make_euclidean_problem(m=2, p=3.0, n=n)
        sol = obstacle.solve_dirichlet(prob, 0.0, 1.0)
        exact = p_harmonic_profile(3.0, 2, prob.grid, 0.0, 1.0)
        errs.append(np.max(np.abs(sol.values - exact)))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0)
              for i in range(len(errs) - 1)]
    assert max(orders) >= 1.8


def test_linear_potential_solution_oracle():
    # m=1-like weights cannot happen (m >= 2); use m=2, lambda=1, p=2:
    # (r u')' = r u  => modified Bessel equation; check against scipy
    from scipy.special import iv, kv
    prob = make_euclidean_problem(m=2, p=2.0, lam=1.0, n=401)
    sol = obstacle.solve_dirichlet(prob, 1.0, 2.0)
    r = prob.grid
    A = np.array([[iv(0, r[0]), kv(0, r[0])], [iv(0, r[-1]), kv(0, r[-1])]])
    coef = np.linalg.solve(A, [1.0, 2.0])
    exact = coef[0] * iv(0, r) + coef[1] * kv(0, r)
    assert np.max(np.abs(sol.values - exact)) < 5e-5


# ---------------------------------------------------------------------------
# obstacle solves


def test_obstacle_matches_qp_oracle():
    prob = make_euclidean_problem(m=3, p=2.0, n=40)
    spec = obstacle.ObstacleSpec(
        psi=0.9 - ((prob.grid[1:-1] - 1.4) / 0.25) ** 2,
        theta_left=0.0, theta_right=1.0)
    sol = obstacle.solve_obstacle(prob, spec)
    ref = qp_obstacle_oracle(prob, spec)
    assert np.max(np.abs(sol.values - ref)) < 1e-6
    contact = sol.values[1:-1] <= spec.psi + 1e-6
    contact_ref = ref[1:-1] <= spec.psi + 1e-6
    assert np.array_equal(contact, contact_ref)
    assert np.any(contact)          # the bump is actually active


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_obstacle_matches_bound_constrained_oracle(p):
    # independent minimizer of the same energy at p != 2, where the QP
    # oracle does not apply: L-BFGS-B with the obstacle as a lower bound
    prob = make_euclidean_problem(m=3, p=p, lam=0.3, n=31)
    psi = 0.9 - ((prob.grid[1:-1] - 1.4) / 0.25) ** 2
    spec = obstacle.ObstacleSpec(psi=psi, theta_left=0.0, theta_right=1.0)
    sol = obstacle.solve_obstacle(prob, spec)

    def full(x):
        return np.concatenate([[0.0], x, [1.0]])

    t = (prob.grid[1:-1] - prob.grid[0]) / (prob.grid[-1] - prob.grid[0])
    ref = minimize(lambda x: prob.energy(full(x)),
                   np.maximum(t, psi),
                   jac=lambda x: prob.gradient(full(x))[1:-1],
                   method="L-BFGS-B", bounds=[(b, None) for b in psi],
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000})
    assert ref.success
    assert np.max(np.abs(sol.values[1:-1] - ref.x)) < 1e-6
    contact = sol.values[1:-1] <= psi + 1e-6
    assert np.array_equal(contact, ref.x <= psi + 1e-6)
    assert np.any(contact)          # the bump is actually active


def test_obstacle_inactive_when_below_solution():
    prob = make_euclidean_problem(m=3, p=2.0, n=41)
    free = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    spec = obstacle.ObstacleSpec(psi=free.values[1:-1] - 0.1,
                                 theta_left=0.0, theta_right=1.0)
    sol = obstacle.solve_obstacle(prob, spec)
    assert np.max(np.abs(sol.values - free.values)) < 1e-8


def test_obstacle_solution_above_obstacle_and_stationary():
    prob = make_euclidean_problem(m=2, p=2.5, n=81)
    rng = np.random.default_rng(3)
    spec = random_bump_spec(prob, rng)
    sol = obstacle.solve_obstacle(prob, spec)
    stat, viol, slack = obstacle.residual_complementarity(sol, spec)
    assert viol == 0.0
    assert stat <= 1e-8
    assert slack >= -1e-6
    assert obstacle.is_supersolution(prob, sol, tol=1e-6).ok


def test_obstacle_infeasible_raises():
    prob = make_euclidean_problem(n=11)
    psi = np.full(prob.n_nodes - 2, math.inf)
    with pytest.raises(obstacle.ConstraintError):
        obstacle.solve_obstacle(
            prob, obstacle.ObstacleSpec(psi, 0.0, 1.0))
    with pytest.raises(obstacle.ConstraintError):
        obstacle.solve_obstacle(
            prob, obstacle.ObstacleSpec(np.full(prob.n_nodes - 2, math.nan),
                                        0.0, 1.0))


def test_sweep_limit_raises():
    # the Newton solve needs two steps here, so a budget of one must trip
    prob = make_euclidean_problem(n=101)
    spec = obstacle.ObstacleSpec.dirichlet(prob.n_nodes, 0.0, 1.0)
    with pytest.raises(obstacle.SweepLimitError) as info:
        obstacle.solve_obstacle(prob, spec, max_iter=1)
    assert math.isfinite(info.value.residual)


def test_solver_reports_its_work():
    prob = make_euclidean_problem(m=2, p=3.0, n=101)
    sol = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    assert 1 <= sol.iterations <= 20
    assert 0.0 <= sol.stationarity <= 1e-8
    stat, _, _ = obstacle.residual_complementarity(
        sol, obstacle.ObstacleSpec.dirichlet(prob.n_nodes, 0.0, 1.0))
    assert sol.stationarity == stat


def test_deterministic_solves():
    prob = make_euclidean_problem(m=3, p=2.5, n=61)
    spec = random_bump_spec(prob, np.random.default_rng(11))
    a = obstacle.solve_obstacle(prob, spec)
    b = obstacle.solve_obstacle(prob, spec)
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# structural checks


def test_comparison_check_basic():
    prob = make_euclidean_problem()
    big = obstacle.solve_dirichlet(prob, 0.5, 1.5)
    small = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    assert obstacle.comparison_check(prob, big, small)
    with pytest.raises(core.DomainError):
        obstacle.comparison_check(prob, small, big)  # boundary not ordered


def test_comparison_check_rejects_bad_supersolution():
    prob = make_euclidean_problem()
    rng = np.random.default_rng(5)
    wiggly = np.linspace(0.0, 1.0, prob.n_nodes) \
        + 0.2 * rng.standard_normal(prob.n_nodes)
    sub = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    with pytest.raises(core.DomainError):
        obstacle.comparison_check(prob, wiggly, sub)


def test_pasting_min_supersolution():
    prob = make_euclidean_problem(m=2, n=81)
    w1 = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    i, j = 20, 60
    sub = obstacle.make_problem(EUC2, 2.0, 0.0, prob.grid[i:j + 1])
    psi = np.minimum(w1.values[i + 1:j], w1.values[i + 1:j])
    spec = obstacle.ObstacleSpec(psi=psi, theta_left=w1.values[i],
                                 theta_right=w1.values[j])
    w2 = obstacle.solve_obstacle(sub, spec)
    pasted = obstacle.pasting_min(prob, w1, w2.values, i)
    assert obstacle.is_supersolution(prob, pasted, tol=1e-6).ok


def test_pasting_min_junction_mismatch():
    prob = make_euclidean_problem(n=41)
    w1 = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    w2 = w1.values[10:20] + 0.5
    with pytest.raises(core.DomainError):
        obstacle.pasting_min(prob, w1, w2, 10)


def test_discrete_function_validation():
    prob = make_euclidean_problem(n=11)
    with pytest.raises(ValueError):
        obstacle.DiscreteFunction(np.zeros(5), prob)
    with pytest.raises(ValueError):
        obstacle.DiscreteFunction(np.full(11, math.nan), prob)
