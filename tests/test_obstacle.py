"""Tests for the discrete obstacle solver: oracle comparisons,
convergence order, structural properties and error paths."""

import math
import re

import numpy as np
import pytest
from scipy.optimize import minimize

from modelpot import cli, core, obstacle
from oracles import (comparison_check, p_harmonic_profile, pasting_min,
                     qp_obstacle_oracle, random_bump_spec,
                     structural_property_failures)


EUC2 = core.manifold_from_tag("euclidean", 2)
EUC3 = core.manifold_from_tag("euclidean", 3)


def gate_measures(prob, u, psi):
    """The gate's verdict on ``u`` and its three KKT measures, read off the
    result ``_kkt_gate`` builds."""
    failure, res = obstacle._kkt_gate(prob, u, psi)
    return failure, (res.stationarity, res.obstacle_violation,
                     res.min_slackness)


def measures(sol):
    return sol.stationarity, sol.obstacle_violation, sol.min_slackness


def make_euclidean_problem(m=3, p=2.0, lam=0.0, n=41, lo=1.0, hi=2.0):
    M = core.manifold_from_tag("euclidean", m)
    return obstacle.make_problem(M, p, lam, np.linspace(lo, hi, n))


# ---------------------------------------------------------------------------
# problem assembly


def test_make_problem_validation():
    grid = np.linspace(1.0, 2.0, 11)
    for p in (1.05, 11.0, math.nan):                   # p out of range
        with pytest.raises(ValueError, match=re.escape(
                f"exponent p must lie in [1.1, 10], got p={p:g}")):
            obstacle.make_problem(EUC3, p, 0.0, grid)
    with pytest.raises(ValueError):
        obstacle.make_problem(EUC3, 2.0, -1.0, grid)    # negative lambda
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"lambda must be finite and "
                                             f">= 0, got {lam:g}"):
            obstacle.make_problem(EUC3, 2.0, lam, grid)
    # the first pair that does not increase is named
    with pytest.raises(ValueError, match=r"strictly increasing: node 0 at "
                                         r"r=2\.0, node 1 at r=1\.9$"):
        obstacle.make_problem(EUC3, 2.0, 0.0, grid[::-1])
    with pytest.raises(ValueError, match=r"node 4 at r=1\.4, node 5 at "
                                         r"r=1\.4$"):
        obstacle.make_problem(EUC3, 2.0, 0.0, np.insert(grid, 4, grid[4]))
    with pytest.raises(ValueError):
        obstacle.make_problem(EUC3, 2.0, 0.0, np.array([1.0, 2.0]))
    # a nan passes the ordering check
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"grid must be finite, got "
                                             f"{bad:g}"):
            obstacle.make_problem(EUC3, 2.0, 0.0, np.append(grid, bad))


def test_make_problem_weighs_against_its_largest_weight():
    # (m-1) log g = log r + r^3 passes log(DBL_MAX) ~ 709.78 near r = 8.9:
    # the weights are relative to the largest, whose log is recorded, and
    # a span whose least weight would not be a normal double is refused by
    # its two ends
    M = core.manifold_from_tag("power-exp:alpha=3", 2)
    prob = obstacle.make_problem(M, 2.0, 0.0, np.linspace(9.0, 10.0, 11))
    assert prob.log_scale == core.log_sphere_volume(M, 10.0) > 1000.0
    assert prob.node_weights[-1] == 1.0
    assert 0.0 < prob.node_weights[0] < prob.edge_weights.max() < 1.0
    with pytest.raises(core.DomainError,
                       match=r"\(m-1\) log g spans 1001\.3.*, from 1 at r=1 "
                             r"to 1002\.3.* at r=10$"):
        obstacle.make_problem(M, 2.0, 0.0, np.array([1.0, 8.8, 10.0]))


def test_make_problem_refuses_a_log_weight_past_a_double():
    # log g = log r + r^1000 is inf past r ~ 2.035: the least radius of a
    # non-finite L, the midpoint 2.05, is named before L - max L would
    # be inf - inf, whose RuntimeWarning is an error here
    M = core.manifold_from_tag("power-exp:alpha=1e3", 2)
    with pytest.raises(core.DomainError,
                       match=r"^the weights need a finite \(m-1\) log g, "
                             r"got inf at r=2\.05$"):
        obstacle.make_problem(M, 2.0, 0.0, np.linspace(1.0, 3.0, 21))


def test_energy_and_gradient_consistent():
    prob = make_euclidean_problem(p=3.0, lam=0.5)
    scale = math.exp(prob.log_scale)        # the absolute weights
    rng = np.random.default_rng(7)
    u = rng.uniform(0.1, 1.0, prob.n_nodes)
    g = scale * prob.gradient(u)
    for i in (0, 5, 20, prob.n_nodes - 1):
        h = 1e-7
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        fd = scale * (prob.energy(up) - prob.energy(um)) / (2 * h)
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


@pytest.mark.parametrize("p,lam", [
    pytest.param(p, 0.3, id=f"{p}") for p in (1.5, 2.5, 3.0)
] + [pytest.param(3.0, 0.0, id="3.0-lambda0")])
def test_obstacle_matches_bound_constrained_oracle(p, lam):
    # independent minimizer of the same energy at p != 2, where the QP
    # oracle does not apply: L-BFGS-B with the obstacle as a lower bound;
    # at lambda = 0 it checks the concave majorant
    prob = make_euclidean_problem(m=3, p=p, lam=lam, n=31)
    psi = 0.9 - ((prob.grid[1:-1] - 1.4) / 0.25) ** 2
    spec = obstacle.ObstacleSpec(psi=psi, theta_left=0.0, theta_right=1.0)
    sol = obstacle.solve_obstacle(prob, spec)

    def full(x):
        return np.concatenate([[0.0], x, [1.0]])

    # the absolute energy, whose size the optimizer's tolerances assume
    scale = math.exp(prob.log_scale)
    t = (prob.grid[1:-1] - prob.grid[0]) / (prob.grid[-1] - prob.grid[0])
    ref = minimize(lambda x: scale * prob.energy(full(x)),
                   np.maximum(t, psi),
                   jac=lambda x: scale * prob.gradient(full(x))[1:-1],
                   method="L-BFGS-B", bounds=[(b, None) for b in psi],
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10000})
    assert ref.success
    assert np.max(np.abs(sol.values[1:-1] - ref.x)) < 1e-6
    contact = sol.values[1:-1] <= psi + 1e-6
    assert np.array_equal(contact, ref.x <= psi + 1e-6)
    assert np.any(contact)          # the bump is actually active


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
def test_majorant_is_the_newton_solution(m, p):
    # at lambda = 0 the solve is the least concave majorant in S; projected
    # Newton reaches the same minimizer and the same contact set
    rng = np.random.default_rng(int(10 * p) + m)
    active = 0
    for n in (21, 81) * 4:
        prob = make_euclidean_problem(m=m, p=p, n=n)
        spec = random_bump_spec(prob, rng)
        sol = obstacle.solve_obstacle(prob, spec)
        ref = obstacle._projected_newton(prob, spec)
        assert sol.iterations == 0 and ref.iterations >= 1
        np.testing.assert_allclose(sol.values, ref.values, rtol=0,
                                   atol=1e-12)
        contact = sol.values[1:-1] <= spec.psi + 1e-9
        assert np.array_equal(contact, ref.values[1:-1] <= spec.psi + 1e-9)
        active += bool(np.any(contact))
    assert active >= 2              # the bumps are actually active


def test_zero_lambda_structural_properties():
    # acceptance test A9's four properties with every lambda = 0, so that
    # every solve in them is a concave majorant
    assert structural_property_failures(20260824, 0.0) == {
        "comparison": 0, "minimality": 0, "stationarity": 0, "pasting": 0}


def test_majorant_on_tiny_weights():
    # w_e = r^4 ~ 1e-36 at p = 1.1: w_e^(-1/(p-1)) overflows, but S is
    # built from w_e / min w, and the solve gives Newton's profile to the
    # Newton step tolerance 1e-10 (Newton stops 2.5e-13 off the exact
    # majorant here, after 43 steps)
    M = core.manifold_from_tag("euclidean", 5)
    prob = obstacle.make_problem(M, 1.1, 0.0, np.geomspace(1e-9, 2e-9, 101))
    psi = 0.8 - ((prob.grid[1:-1] - 1.4e-9) / 1e-10) ** 2
    spec = obstacle.ObstacleSpec(psi=psi, theta_left=0.0, theta_right=1.0)
    sol = obstacle.solve_obstacle(prob, spec)
    ref = obstacle._projected_newton(prob, spec)
    np.testing.assert_allclose(sol.values, ref.values, rtol=0, atol=1e-10)
    assert np.max(sol.values) >= 0.8


def test_majorant_refuses_a_repeated_coordinate():
    # edge weights rising by 1e8 a node at p = 1.1 add terms below the
    # rounding of S (S = 0, 99, 99, 99, 99): a named error, not NaN node
    # values.  With no obstacle the chord S / S_N is flat past node 1,
    # which the KKT gate refuses; two hull vertices on one S are refused
    # before any chord divides by their zero step
    M = core.manifold_from_tag("euclidean", 5)
    prob = obstacle.make_problem(M, 1.1, 0.0, np.geomspace(1.0, 1e8, 5))
    spec = obstacle.ObstacleSpec.dirichlet(prob.n_nodes, 0.0, 1.0)
    with pytest.raises(core.NumericError,
                       match=r"KKT defect 9\.999e-01 at node 1"):
        obstacle.solve_obstacle(prob, spec)
    spec = obstacle.ObstacleSpec(np.array([-math.inf, -math.inf, 2.0]),
                                 0.0, 1.0)
    with pytest.raises(core.NumericError,
                       match=r"hull vertices 3 and 4 share the p-harmonic "
                             r"coordinate S = 9\.900e\+01"):
        obstacle.solve_obstacle(prob, spec)


def test_majorant_on_a_saturated_coordinate():
    # on hyperbolic m=2 at p = 1.5 the terms sinh(r)^-2 of S fall below
    # its rounding past r ~ 18: S repeats, the majorant S / S_N is flat
    # there, and it passes the KKT gate as Newton's minimizer does
    M = core.manifold_from_tag("hyperbolic", 2)
    prob = obstacle.make_problem(M, 1.5, 0.0, np.geomspace(1.0, 32.0, 101))
    assert np.any(np.diff(obstacle._p_harmonic_coordinate(prob)) == 0.0)
    spec = obstacle.ObstacleSpec.dirichlet(prob.n_nodes, 0.0, 1.0)
    sol = obstacle.solve_obstacle(prob, spec)
    ref = obstacle._projected_newton(prob, spec)
    assert sol.iterations == 0
    np.testing.assert_allclose(sol.values, ref.values, rtol=0, atol=1e-12)


def test_majorant_keeps_the_kkt_gate(monkeypatch):
    # the majorant passes the gate the Newton solve stops on, or is refused
    # with the failing measure and its value
    prob = make_euclidean_problem(n=21)
    spec = obstacle.ObstacleSpec.dirichlet(prob.n_nodes, 0.0, 1.0)
    ratio = np.zeros(prob.n_nodes - 2)
    ratio[2] = 2e-10
    monkeypatch.setattr(obstacle, "_gradient_ratio",
                        lambda *args, **kwargs: ratio)
    with pytest.raises(core.NumericError, match=r"KKT defect 2\.000e-10 "
                                                r"at node 3 \(gate 1e-10\)"):
        obstacle.solve_obstacle(prob, spec)


def test_kkt_gate_reads_the_residual_sign_on_the_contact_set():
    # u = psi at every interior node, on a convex obstacle: no node is off
    # the contact set and none lies below psi, so the gate's off-contact
    # measures see nothing, but the gradient pushes every node off the
    # obstacle (its ratio is about -0.5 at p = 2)
    prob = make_euclidean_problem(m=2, p=2.0, n=21)
    u = (prob.grid - 1.0) ** 2
    spec = obstacle.ObstacleSpec(u[1:-1], u[0], u[-1])
    failure, (stat, viol, _) = gate_measures(prob, u, spec.psi)
    assert stat == 0.0 and viol == 0.0
    assert re.fullmatch(r"KKT defect 5\.\d\d\de-01 at node 1 \(gate 1e-10\)",
                        failure)
    # the minimizer clears psi and passes, with the reported measures
    for lam in (0.0, 1.0):
        prob = make_euclidean_problem(m=2, p=2.0, lam=lam, n=21)
        sol = obstacle.solve_obstacle(prob, spec)
        assert np.all(sol.values[1:-1] > spec.psi)
        assert gate_measures(prob, sol.values, spec.psi) == ("",
                                                             measures(sol))


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
    _, (stat, viol, slack) = gate_measures(prob, sol.values, spec.psi)
    assert viol == 0.0
    assert stat <= 1e-8
    assert slack >= -1e-6
    assert obstacle.is_supersolution(prob, sol.values).ok


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


@pytest.mark.parametrize("psi_len,left,right,error,named", [
    (10, 0.0, 1.0, ValueError, "obstacle must be given at the interior "
                               "nodes"),
    (9, math.nan, 1.0, obstacle.ConstraintError,
     "boundary values must be finite"),
    (9, 0.0, math.inf, obstacle.ConstraintError,
     "boundary values must be finite"),
], ids=["length", "nan left", "inf right"])
def test_obstacle_specs_are_refused_by_name(psi_len, left, right, error,
                                            named):
    prob = make_euclidean_problem(n=11)
    spec = obstacle.ObstacleSpec(np.zeros(psi_len), left, right)
    with pytest.raises(error, match=named):
        obstacle.solve_obstacle(prob, spec)


def test_sweep_limit_raises(monkeypatch):
    # the Newton solve needs two steps here, so a budget of one must trip
    # (lambda > 0 and theta_left > 0: at lambda = 0 the solve takes no
    # Newton step, and from theta_left = 0 the sweep start is exact)
    prob = make_euclidean_problem(lam=1.0, n=101)
    spec = obstacle.ObstacleSpec.dirichlet(prob.n_nodes, 0.5, 1.0)
    assert obstacle.solve_obstacle(prob, spec).iterations >= 2
    monkeypatch.setattr(obstacle, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(obstacle.SweepLimitError) as info:
        obstacle.solve_obstacle(prob, spec)
    assert math.isfinite(info.value.residual)


SCALED_PROBLEMS = [
    # the CLI's theta_right=1e6 run, which ran out of Newton steps
    ("euclidean", 2, 3.0, 1.0, (1.0, 10.0), "none", 0.0),
    ("euclidean", 3, 2.0, 1.0, (1.0, 2.0),
     "bump:height=1.5,center=1.5,width=0.3", 0.0),
    ("hyperbolic", 2, 1.5, 1.0, (1.0, 10.0),
     "bump:height=0.8,center=5,width=2", 0.0),
    ("euclidean", 3, 3.0, 0.25, (1.0, 10.0),
     "bump:height=0.8,center=5,width=2", 0.5),
]


def _cli_problem(tag, m, p, lam, span, shape):
    """The ``obstacle`` command's problem: 101 geometric nodes on ``span``
    and the obstacle of the tag ``shape``."""
    grid = np.geomspace(*span, 101)
    prob = obstacle.make_problem(core.manifold_from_tag(tag, m), p, lam, grid)
    return prob, cli._parse_obstacle_shape(shape, grid)


@pytest.mark.parametrize("tag, m, p, lam, span, shape, theta_left",
                         SCALED_PROBLEMS)
def test_scaled_data_scale_the_newton_solve(tag, m, p, lam, span, shape,
                                            theta_left):
    # the energy is p-homogeneous, so the minimizer of theta (psi,
    # theta_left, theta_right) is theta times that of the data; the
    # relative Newton stop and contact set take the same steps to it;
    # Newton solves for the data over a power of two near their largest,
    # so neither 1e300 nor 1e-300 leaves the doubles in its energy
    prob, psi = _cli_problem(tag, m, p, lam, span, shape)
    unit = obstacle.solve_obstacle(
        prob, obstacle.ObstacleSpec(psi, theta_left, 1.0))
    # with no obstacle from theta_left = 0 the sweep's start is exact and
    # passes the gate in 0 steps; each bump takes Newton steps
    assert unit.iterations >= (shape != "none")
    for theta in (1e-300, 1e-6, 1e6, 1e110, 1e300):
        sol = obstacle.solve_obstacle(
            prob, obstacle.ObstacleSpec(theta * psi, theta * theta_left,
                                        theta))
        assert sol.iterations == unit.iterations
        assert np.max(np.abs(sol.values - theta * unit.values)) <= \
            1e-14 * np.max(np.abs(sol.values))


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_kkt_gate_refuses_a_lifted_contact_node_at_every_scale(lam):
    # a contact node lifted 5e-4 of max|u| off psi is off the contact set
    # at every scale, where its stationarity defect is not rounding; an
    # absolute contact set of 1e-9 took it for contact at theta = 1e-6.
    # An obstacle raised as far over a contact node is violated there
    prob, psi = _cli_problem("euclidean", 3, 2.0, lam, (1.0, 2.0),
                             "bump:height=1.5,center=1.5,width=0.3")
    u = obstacle.solve_obstacle(
        prob, obstacle.ObstacleSpec(psi, 0.0, 1.0)).values
    contact = np.flatnonzero(u[1:-1] <= psi + 1e-9 * np.max(u)) + 1
    assert len(contact) >= 3
    lifted = u.copy()
    lifted[contact[len(contact) // 2]] += 5e-4 * np.max(u)
    raised = psi.copy()
    raised[contact[len(contact) // 2] - 1] += 5e-4 * np.max(u)
    for theta in (1e-6, 1.0, 1e6):
        assert obstacle._kkt_gate(prob, theta * u, theta * psi)[0] == ""
        assert obstacle._kkt_gate(prob, theta * lifted,
                                  theta * psi)[0].startswith("KKT defect")
        assert re.fullmatch(r"obstacle violation 5\.000e-04 max\|u\| "
                            r"\(gate 1e-12\)", obstacle._kkt_gate(
                                prob, theta * u, theta * raised)[0])


@pytest.mark.parametrize("tag, m, p, lam", [
    ("euclidean", 2, 1.5, 10.0), ("euclidean", 3, 1.1, 1.0),
    ("hyperbolic", 3, 1.5, 10.0)])
def test_newton_starts_from_the_sweep(tag, m, p, lam):
    # from theta_left = 0 with no obstacle the sweep's unit solution h_N is
    # the minimizer, which passes the KKT gate before any Newton step (one
    # step used to confirm it); from the linear start these runs ended in
    # SweepLimitError (u_1 is 4e-28, 1.3e-16 and 4e-20)
    prob, psi = _cli_problem(tag, m, p, lam, (1.0, 10.0), "none")
    spec = obstacle.ObstacleSpec(psi, 0.0, 1.0)
    sol = obstacle.solve_obstacle(prob, spec)
    assert sol.iterations == 0
    h = obstacle._unit_solutions(prob, [prob.n_nodes - 1])[0]
    np.testing.assert_allclose(sol.values, h, rtol=0, atol=1e-15)


def test_solver_reports_its_work():
    # Newton steps for lambda > 0; the lambda = 0 majorant takes none.
    # From theta_left = 0.5 the sweep's start is not the minimizer (from
    # theta_left = 0 it is, and takes 0 steps)
    for lam in (0.0, 0.5):
        prob = make_euclidean_problem(m=2, p=3.0, lam=lam, n=101)
        sol = obstacle.solve_dirichlet(prob, 0.5, 1.0)
        if lam == 0:
            assert sol.iterations == 0
        else:
            assert 1 <= sol.iterations <= 20
        assert 0.0 <= sol.stationarity <= 1e-8
        # the solve's measures are the gate's on the values it returned,
        # bit for bit: at lambda > 0 those are Newton's times s
        psi = np.full(prob.n_nodes - 2, -math.inf)
        assert gate_measures(prob, sol.values, psi) == ("", measures(sol))


def test_predicates_take_problem_and_values():
    # both gates read a solved obstacle problem as (prob, values, ...), the
    # form the solver's own stopping test uses
    prob = make_euclidean_problem(m=2, p=3.0, n=81)
    spec = random_bump_spec(prob, np.random.default_rng(11))
    sol = obstacle.solve_obstacle(prob, spec)
    failure, (stat, viol, slack) = gate_measures(prob, sol.values, spec.psi)
    assert (failure, (stat, viol, slack)) == ("", measures(sol))
    assert viol == 0.0 and slack >= -1e-6
    check = obstacle.is_supersolution(prob, sol.values)
    assert check.ok and 1 <= check.worst_node <= prob.n_nodes - 2


@pytest.mark.parametrize("n", [1, 2, 3, 99, 400])
def test_tridiagonal_solve_is_solve_banded(n):
    # the Newton step's system, diagonally dominant with decoupled rows
    # where the active set cuts the coupling: elimination without pivoting
    # is dgtsv's arithmetic, bit for bit
    from scipy.linalg import solve_banded
    rng = np.random.default_rng(n)
    off = -rng.uniform(0.1, 2.0, n - 1) * (rng.uniform(size=n - 1) > 0.2)
    diag = rng.uniform(0.5, 3.0, n) + 4.0
    rhs = rng.normal(size=n)
    bands = np.zeros((3, n))
    bands[0, 1:], bands[1], bands[2, :-1] = off, diag, off
    assert np.array_equal(obstacle._solve_tridiagonal(off, diag, rhs),
                          solve_banded((1, 1), bands, rhs))
    # a system that is not positive definite (pivots 2, 1.5, 0.5 - 1/1.5):
    # its first non-positive pivot is refused by row, where pivoting
    # would go on
    if n >= 3:
        diag = np.full(n, 2.0)
        diag[2] = 0.5
        with pytest.raises(core.NumericError,
                           match=r"pivot at row 2 is -1\.667e-01"):
            obstacle._solve_tridiagonal(np.full(n - 1, -1.0), diag,
                                        np.ones(n))


def test_tridiagonal_solve_errors():
    system = (np.full(3, -1.0), np.full(4, 2.0), np.ones(4))
    for i, name in enumerate(("off-diagonal", "diagonal",
                              "right-hand side")):
        for value in (math.nan, math.inf):
            args = [a.copy() for a in system]
            args[i][1] = value
            with pytest.raises(core.NumericError,
                               match=f"{name} is not finite at row 1: "
                                     f"{value}"):
                obstacle._solve_tridiagonal(*args)
    # a zero pivot: the first row vanishes
    with pytest.raises(core.NumericError,
                       match=r"pivot at row 0 is 0\.000e\+00"):
        obstacle._solve_tridiagonal(np.zeros(3), np.array([0.0, 1, 1, 1]),
                                    np.ones(4))


def _newton_systems(monkeypatch):
    """The (off, diag, rhs, x) of every Newton system solved while the
    fixture is in force."""
    seen = []
    solve = obstacle._solve_tridiagonal

    def spy(off, diag, rhs):
        x = solve(off, diag, rhs)
        seen.append((off, diag, rhs, x))
        return x

    monkeypatch.setattr(obstacle, "_solve_tridiagonal", spy)
    return seen


@pytest.mark.parametrize("tag, m, p, lam", [
    ("euclidean", 2, 1.5, 10.0), ("euclidean", 3, 3.0, 1.0),
    ("hyperbolic", 2, 6.0, 0.25), ("hyperbolic", 3, 2.0, 1.0)])
def test_newton_systems_are_dgtsv(tag, m, p, lam, monkeypatch):
    # every Newton system of a lambda > 0 solve is solved as LAPACK's
    # dgtsv solves it: the Hessian is diagonally dominant, so dgtsv never
    # interchanges rows and the arithmetic is the same
    from scipy.linalg.lapack import dgtsv
    seen = _newton_systems(monkeypatch)
    M = core.manifold_from_tag(tag, m)
    prob = obstacle.make_problem(M, p, lam, np.geomspace(1.0, 10.0, 101))
    r = prob.grid[1:-1]
    spec = obstacle.ObstacleSpec(0.8 - ((r - 5.0) / 2.0) ** 2, 0.0, 1.0)
    obstacle.solve_obstacle(prob, spec)
    assert seen
    for off, diag, rhs, x in seen:
        assert np.array_equal(x, dgtsv(off, diag, off, rhs)[3])


def test_newton_solves_a_tiny_core_without_pivoting(monkeypatch):
    # the unit problems on a 1e-9 core at p = 1.1, lambda = 0 (the Newton
    # reference of the closed-form stage 0): 188 of their 331 systems
    # have an eliminated pivot one ulp short of its off-diagonal entry,
    # where dgtsv interchanges rows and a guard |d| >= |dl| would refuse.
    # The pivots stay positive, and each solve has the componentwise
    # backward error of stable elimination (Higham, 9.6): |b - A x| <= 4
    # eps (|A| |x| + |b|)
    seen = _newton_systems(monkeypatch)
    M = core.manifold_from_tag("euclidean", 5)
    grid = obstacle._construct_grid(1e-9, 2e-9, [4e-9, 8e-9, 16e-9, 32e-9],
                                    48)
    for k in np.searchsorted(grid, [4e-9, 8e-9, 16e-9, 32e-9]):
        obstacle._projected_newton(
            obstacle.make_problem(M, 1.1, 0.0, grid[:k + 1]),
            obstacle.ObstacleSpec.dirichlet(k + 1, 0.0, 1.0))
    assert len(seen) > 100
    eps = np.finfo(float).eps
    for off, diag, rhs, x in seen:
        ax = diag * x
        ax[:-1] += off * x[1:]
        ax[1:] += off * x[:-1]
        size = diag * np.abs(x) + np.abs(rhs)
        size[:-1] -= off * np.abs(x[1:])
        size[1:] -= off * np.abs(x[:-1])
        assert np.all(np.abs(rhs - ax) <= 4 * eps * size)


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
    assert comparison_check(prob, big.values, small.values)
    with pytest.raises(core.DomainError):
        # boundary not ordered
        comparison_check(prob, small.values, big.values)


def test_comparison_check_rejects_bad_supersolution():
    prob = make_euclidean_problem()
    rng = np.random.default_rng(5)
    wiggly = np.linspace(0.0, 1.0, prob.n_nodes) \
        + 0.2 * rng.standard_normal(prob.n_nodes)
    sub = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    with pytest.raises(core.DomainError):
        comparison_check(prob, wiggly, sub.values)


def test_pasting_min_supersolution():
    prob = make_euclidean_problem(m=2, n=81)
    w1 = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    i, j = 20, 60
    sub = obstacle.make_problem(EUC2, 2.0, 0.0, prob.grid[i:j + 1])
    psi = np.minimum(w1.values[i + 1:j], w1.values[i + 1:j])
    spec = obstacle.ObstacleSpec(psi=psi, theta_left=w1.values[i],
                                 theta_right=w1.values[j])
    w2 = obstacle.solve_obstacle(sub, spec)
    pasted = pasting_min(prob, w1.values, w2.values, i)
    assert obstacle.is_supersolution(prob, pasted).ok


def test_pasting_min_junction_mismatch():
    prob = make_euclidean_problem(n=41)
    w1 = obstacle.solve_dirichlet(prob, 0.0, 1.0)
    w2 = w1.values[10:20] + 0.5
    with pytest.raises(core.DomainError):
        pasting_min(prob, w1.values, w2, 10)


def test_discrete_function_validation():
    prob = make_euclidean_problem(n=11)
    with pytest.raises(ValueError):
        obstacle.DiscreteFunction(np.zeros(5), prob)
    with pytest.raises(ValueError):
        obstacle.DiscreteFunction(np.full(11, math.nan), prob)
