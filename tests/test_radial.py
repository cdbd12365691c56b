"""Tests for the radial initial-value solver and the exhaustion
construction: closed forms, an independent adaptive-ODE oracle, blow-up
detection and the slope-selection rules."""

import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import (cumulative_simpson, cumulative_trapezoid, quad,
                             solve_ivp)

from modelpot import core, criteria, obstacle, radial
from modelpot.criteria import Verdict
from oracles import (KL_WARPINGS, OPERATOR_TAGS, WARPINGS, choose_mu,
                     constant_flux_profile, count_picard_work,
                     evans_eager_sweep, exhaustion_at_unit_scale,
                     ode_residual, phi_inverse_brentq,
                     uniform_simpson_reference, volterra_apply_reference)


EUC2 = core.manifold_from_tag("euclidean", 2)
EUC3 = core.manifold_from_tag("euclidean", 3)
LAP2 = core.p_laplacian_operator(2.0)
LAP3 = core.p_laplacian_operator(3.0)
ZERO = core.zero_potential()


def pure_gradient_profile(M, op, params, r):
    """Closed-form solution for a vanishing potential: the flux is
    conserved, so z(r) = theta + (1/c) int_R^r phi^-1(w(R) phi(c mu)/w)."""
    wR = np.exp(core.log_sphere_volume(M, params.R))
    y0 = wR * float(op.phi(params.c * params.mu))

    def slope(s):
        return phi_inverse_brentq(
            op, y0 / np.exp(core.log_sphere_volume(M, s)))

    integral = quad(slope, params.R, r, epsabs=1e-10, epsrel=1e-8,
                    limit=200)[0]
    return params.theta + integral / params.c


# ---------------------------------------------------------------------------
# the integral operator and single-window iteration


def window_apply(M, op, pot, params, r_end, u, n_nodes=None):
    """``volterra_apply`` on the window of ``n_nodes`` (by default
    ``len(u)``) uniform nodes from ``R`` to ``r_end``, under the
    ``np.errstate`` that ``solve_on_interval`` holds."""
    window = radial._Window(M, op, pot, params, r_end, n_nodes or len(u))
    with np.errstate(over="ignore", invalid="ignore"):
        return radial.volterra_apply(window, u)


def test_volterra_apply_zero_potential_one_step():
    # with B = 0 one application from any iterate is already the solution
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    grid = np.linspace(1.0, 2.0, 400)
    out, slope = window_apply(EUC2, LAP2, ZERO, params, 2.0,
                              np.zeros_like(grid))
    assert np.max(np.abs(out - np.log(grid))) < 1e-6
    # the flux R mu / r is conserved, so the slope needs no quadrature
    assert np.allclose(slope, params.R * params.mu / grid, rtol=1e-14,
                       atol=0.0)


def test_volterra_apply_validation():
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    with pytest.raises(ValueError, match="matching shapes"):
        window_apply(EUC2, LAP2, ZERO, params, 2.0, np.zeros(5), n_nodes=8)
    with pytest.raises(ValueError, match="matching shapes"):
        window_apply(EUC2, LAP2, ZERO, params, 2.0, np.zeros((2, 4)),
                     n_nodes=8)
    with pytest.raises(core.DomainError):
        window_apply(EUC2, LAP2, ZERO, params, 2.0, -np.ones(8))


@pytest.mark.parametrize("r_end", [1.0, 0.5, math.nan])
def test_solve_on_interval_refuses_a_window_that_does_not_rise(r_end):
    # a window lays its own uniform grid from R to r_end, so the only grid
    # that is not strictly increasing is one whose end is not past R (a
    # nan end used to pass the check and fail in the sphere volume)
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    with pytest.raises(core.DomainError,
                       match="r_end must exceed the base radius"):
        radial.solve_on_interval(EUC2, LAP2, ZERO, params, r_end)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 64, 65, 400])
@pytest.mark.parametrize("spacing", ["uniform", "random"])
def test_cumint_is_scipy_cumulative_simpson(n, spacing):
    # the sizes interleave, so that the index arrays cached for one node
    # count are reused after grids of other counts
    rng = np.random.default_rng(n)
    for size in (n, 64, n, 3, 400, n + 1, n):
        if spacing == "uniform":
            x = np.linspace(1.0, 3.0, size)
        else:
            x = np.cumsum(rng.uniform(0.01, 1.0, size))
        y = np.exp(-x) + rng.normal(size=size)
        rule = core._CumulativeSimpson(x)
        assert np.array_equal(rule(y), cumulative_simpson(y, x=x,
                                                          initial=0.0))
        # rows of samples: each row integrated as it is alone
        rows = np.stack([y, np.cos(x), 1e300 * y])
        assert np.array_equal(rule(rows), np.stack([rule(r) for r in rows]))


def test_simpson_index_cache_is_read_only():
    core._CumulativeSimpson(np.linspace(1.0, 2.0, 64))(np.ones(64))
    other, nodes = core._simpson_indices(63)
    assert core._simpson_indices(63)[1] is nodes
    for cached in (other, nodes):
        assert not cached.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0


def test_cumint_two_nodes_is_trapezoid():
    x, y = np.array([1.0, 1.7]), np.array([0.3, -2.0])
    assert np.array_equal(core._CumulativeSimpson(x)(y),
                          cumulative_trapezoid(y, x, initial=0.0))
    assert np.array_equal(core._CumulativeSimpson(x)(np.stack([y, -y])),
                          np.stack([cumulative_trapezoid(r, x, initial=0.0)
                                    for r in (y, -y)]))


WINDOW_SIZES = [2, 3, 4, 5, 8, 17, 64, 65]


@pytest.mark.parametrize("n", WINDOW_SIZES)
def test_uniform_simpson_is_the_loop_oracle_and_read_only(n):
    rule = core._uniform_simpson(n)
    assert np.array_equal(rule, uniform_simpson_reference(n))
    assert core._uniform_simpson(n) is rule
    assert not rule.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rule[-1, 0] = 0.0


@pytest.mark.parametrize("n", WINDOW_SIZES)
def test_window_rule_is_scipy_cumulative_simpson(n):
    # h K_n/12 on a window's linspace grid is scipy's rule to rounding:
    # within 1e-14 of the largest partial sum (5e-16 measured).  The
    # spacings are powers of two, so the nodes are exact: a spacing that
    # is no double rounds the nodes, and scipy's rule on their rounded
    # spacings then departs from h by ulp(R)/h, which is no error of h
    rng = np.random.default_rng(n)
    for R, h in ((1.0, 1.0), (1.5, 2.0 ** -3), (3.0, 2.0 ** -7)):
        params = radial.CauchyParams(R=R, theta=0.0, mu=1.0, c=1.0)
        window = radial._Window(EUC2, LAP2, ZERO, params, R + h * (n - 1), n)
        assert (np.diff(window.grid) == h).all()
        for y in (np.exp(-window.grid), np.sin(3.0 * window.grid),
                  rng.normal(size=n)):
            want = cumulative_simpson(y, x=window.grid, initial=0.0)
            got = window.simpson @ y
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_volterra_apply_is_bytewise_the_same_on_an_offset_view():
    # the product's kernel may take another path for an unaligned vector;
    # the bytes of the application do not depend on where u sits
    params = radial.CauchyParams(R=1.0, theta=0.3, mu=2.0, c=0.5)
    pot = core.potential_from_tag("linear-power:p=2,lambda=1")
    u = np.linspace(0.3, 1.7, 64) ** 1.5
    want = window_apply(EUC3, LAP2, pot, params, 1.5, u)
    for offset in range(1, 8):
        buf = np.zeros(64 * 8 + offset + 1, dtype=np.uint8)
        view = buf[offset:offset + 64 * 8].view(np.float64)
        view[:] = u
        got = window_apply(EUC3, LAP2, pot, params, 1.5, view)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


_ORACLE_OPERATORS = {tag: core.operator_from_tag(tag) for tag in (
    "p-laplacian:p=1.5", "p-laplacian:p=2", "p-laplacian:p=3",
    "perturbed:p=2")}
_ORACLE_POTENTIALS = {tag: core.potential_from_tag(tag) for tag in (
    "zero", "linear-power:p=2,lambda=1", "plateau:T=1,p=2",
    "superlinear:q=5")}


@settings(deadline=None, max_examples=200)
@given(n=st.sampled_from(WINDOW_SIZES),
       width=st.floats(0.01, 40.0),
       data=st.data(),
       manifold=st.sampled_from([("euclidean", 2), ("euclidean", 3),
                                 ("hyperbolic", 2)]),
       op_tag=st.sampled_from(sorted(_ORACLE_OPERATORS)),
       pot_tag=st.sampled_from(sorted(_ORACLE_POTENTIALS)),
       c=st.sampled_from([1.0, 2.0 ** -4, 0.3]),
       R=st.floats(0.5, 3.0), theta=st.floats(0.0, 2.0),
       mu=st.floats(0.01, 3.0))
def test_volterra_apply_is_the_reference_bit_for_bit(n, width, data,
                                                     manifold, op_tag,
                                                     pot_tag, c, R, theta,
                                                     mu):
    # the lean window pass against the application with its checks and
    # errstate inside every call, on the uniform window (R, R + width) of
    # n nodes
    u = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=n,
                                    max_size=n)))
    M = core.manifold_from_tag(*manifold)
    op, pot = _ORACLE_OPERATORS[op_tag], _ORACLE_POTENTIALS[pot_tag]
    params = radial.CauchyParams(R=R, theta=theta, mu=mu, c=c)
    want = volterra_apply_reference(M, op, pot, params, R + width, u)
    got = window_apply(M, op, pot, params, R + width, u)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def reference_window(M, op, pot, params, r_end, n_nodes=64):
    """``solve_on_interval``'s Picard loop and stop rule on the checked
    per-call oracle ``volterra_apply_reference``: ``(grid, z, zp)`` and the
    number of applications."""
    grid = np.linspace(params.R, r_end, n_nodes)
    u, delta = np.full(n_nodes, params.theta), math.inf
    for k in range(1, radial.PICARD_MAX_ITER + 1):
        v, vp = volterra_apply_reference(M, op, pot, params, r_end, u)
        last, delta = delta, float(np.max(np.abs(v - u)))
        assert math.isfinite(delta)
        u = v
        if delta <= radial.PICARD_TOL * np.max(v):
            return (grid, u, vp), k
        assert delta <= last, "the reference window does not contract"
    raise AssertionError("the reference window reached the cap")


@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("table", [False, True], ids=["euclidean m=2",
                                                      "table g~r^(1/2)"])
@pytest.mark.parametrize("pot_tag", ["linear-power:p={p:g},lambda=1",
                                     "plateau:T=1,p={p:g}", "zero"])
@pytest.mark.parametrize("op_tag", ["p-laplacian:p=2", "p-laplacian:p=3",
                                    "perturbed:p=2"])
def test_solve_on_interval_is_the_reference_loop_bit_for_bit(
        monkeypatch, tmp_path, op_tag, pot_tag, table, theta):
    # a whole window, phi^-1 solved without its domain check, against the
    # loop on the application that checks everything in every call
    op = core.operator_from_tag(op_tag)
    pot = core.potential_from_tag(pot_tag.format(p=op.p))
    M = sqrt_table(tmp_path) if table else EUC2
    params = radial.CauchyParams(R=1.0, theta=theta, mu=2.0, c=1.0)
    want, applications = reference_window(M, op, pot, params, 1.5)
    counts = count_picard_work(monkeypatch)
    got = radial.solve_on_interval(M, op, pot, params, 1.5)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert counts["applications"] == applications


@pytest.mark.parametrize("n_nodes", [1, 0])
def test_solve_on_interval_refuses_fewer_than_two_nodes(n_nodes):
    # one node used to return the node at R as the "solution" on [R, 5],
    # and none an IndexError
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=0.5, c=1.0)
    with pytest.raises(ValueError, match=f"n_nodes must be >= 2, got "
                                         f"{n_nodes}$"):
        radial.solve_on_interval(EUC2, LAP2, ZERO, params, 5.0,
                                 n_nodes=n_nodes)


@pytest.mark.parametrize("nodes", [1, 0])
def test_solve_cauchy_refuses_fewer_than_two_nodes_per_window(nodes,
                                                              monkeypatch):
    # refused by the parameter's own name, before any window is solved
    def no_window(*args, **kwargs):
        raise AssertionError("a window was solved")

    monkeypatch.setattr(radial, "solve_on_interval", no_window)
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=0.5, c=1.0)
    with pytest.raises(ValueError, match=f"nodes_per_window must be >= 2, "
                                         f"got {nodes}$"):
        radial.solve_cauchy(EUC2, LAP2, core.linear_power_potential(2.0, 1.0),
                            params, 5.0, nodes_per_window=nodes)


def test_cauchy_params_validation():
    with pytest.raises(ValueError):
        radial.CauchyParams(R=0.0, theta=0.0, mu=1.0, c=1.0)
    with pytest.raises(ValueError):
        radial.CauchyParams(R=1.0, theta=-1.0, mu=1.0, c=1.0)
    with pytest.raises(ValueError):
        radial.CauchyParams(R=1.0, theta=0.0, mu=0.0, c=1.0)
    with pytest.raises(ValueError):
        radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=2.0)
    # a nan used to pass every check
    for key in ("R", "theta", "mu", "c"):
        kw = dict(R=1.0, theta=0.0, mu=1.0, c=1.0)
        kw[key] = math.nan
        with pytest.raises(ValueError, match=f"{key} .*got nan"):
            radial.CauchyParams(**kw)


def test_solve_on_interval_monotone_in_iterates():
    params = radial.CauchyParams(R=1.0, theta=0.5, mu=1.0, c=0.5)
    pot = core.linear_power_potential(2.0, 1.0)
    _, z, _ = radial.solve_on_interval(EUC3, LAP2, pot, params, 1.5)
    assert z[0] == pytest.approx(0.5)
    assert np.all(np.diff(z) > 0)


# ---------------------------------------------------------------------------
# continuation vs closed forms and an independent oracle


@pytest.mark.parametrize("op,M,c", [(LAP2, EUC2, 1.0), (LAP2, EUC3, 0.5),
                                    (LAP3, EUC2, 0.25),
                                    (core.perturbed_operator(2.0), EUC3, 1.0)])
def test_solve_cauchy_matches_conserved_flux(op, M, c):
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=c)
    sol = radial.solve_cauchy(M, op, ZERO, params, 10.0, nodes_per_window=128)
    assert sol.status == radial.COMPLETE
    idx = np.linspace(0, len(sol.grid) - 1, 25).astype(int)
    exact = [pure_gradient_profile(M, op, params, sol.grid[i]) for i in idx]
    assert np.max(np.abs(sol.z[idx] - exact)) < 1e-5


@pytest.mark.parametrize("m", [2, 3])
def test_solve_cauchy_vs_adaptive_ode_oracle(m):
    M = core.manifold_from_tag("euclidean", m)
    pot = core.linear_power_potential(2.0, 1.0)
    params = radial.CauchyParams(R=1.0, theta=0.2, mu=1.0, c=0.5)
    sol = radial.solve_cauchy(M, LAP2, pot, params, 10.0,
                              nodes_per_window=256)

    def rhs(r, y):
        z, q = y
        w = r ** (m - 1)
        return [phi_inverse_brentq(LAP2, q / w) / params.c,
                w * float(pot.B(params.c * z))]

    w0 = params.R ** (m - 1)
    ivp = solve_ivp(rhs, (1.0, 10.0),
                    [params.theta, w0 * float(LAP2.phi(params.c * params.mu))],
                    rtol=1e-10, atol=1e-12, dense_output=True)
    assert ivp.success
    err = np.max(np.abs(sol.z - ivp.sol(sol.grid)[0]))
    assert err < 1e-5


def test_solve_cauchy_matches_the_bessel_closed_form():
    # on the plane at p = 2, (r z')' = r z: z = a I0(r) + b K0(r), with
    # z(1) = 0 and z'(1) = 1 (I0' = I1, K0' = -K1); 5.463e-8 on r > 2
    pot = core.potential_from_tag("linear-power:p=2,lambda=1")
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    sol = radial.solve_cauchy(EUC2, LAP2, pot, params, 40.0)
    assert sol.status == radial.COMPLETE
    a, b = np.linalg.solve([[special.i0(1.0), special.k0(1.0)],
                            [special.i1(1.0), -special.k1(1.0)]], [0.0, 1.0])
    r = sol.grid[sol.grid > 2.0]
    exact = a * special.i0(r) + b * special.k0(r)
    assert np.max(np.abs(sol.z[sol.grid > 2.0] / exact - 1.0)) <= 5.5e-8


def test_solve_cauchy_value_is_the_integral_of_its_slope():
    # z and zp of a window come from one Picard application, so on every
    # window z - theta is the cumulative Simpson integral of zp
    pot = core.potential_from_tag("linear-power:p=2,lambda=1")
    params = radial.CauchyParams(R=1.0, theta=0.2, mu=1.0, c=0.5)
    sol = radial.solve_cauchy(EUC2, LAP2, pot, params, 10.0,
                              nodes_per_window=64)
    assert sol.status == radial.COMPLETE
    step = 63                        # windows share their end nodes
    assert (len(sol.grid) - 1) % step == 0
    for start in range(0, len(sol.grid) - 1, step):
        window = slice(start, start + step + 1)
        z, zp = sol.z[window], sol.zp[window]
        integral = cumulative_simpson(zp, x=sol.grid[window], initial=0.0)
        np.testing.assert_allclose(z - z[0], integral, rtol=1e-13, atol=0.0)


def test_two_routes_to_one_radial_function():
    # at lambda > 0 the staged pipeline's unit solution h_N (0 at K = 1, 1
    # at 32) and the march from K (theta = 0, normalized at 32) solve one
    # equation, (w phi(u'))' = lambda w phi(u); the forward sweep is second
    # order, so their largest relative gap on r >= 2 falls about 4x per
    # doubling of the nodes per stage (4.02 to 4.37 here)
    radii = [4.0, 8.0, 16.0, 32.0]
    start = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    for tag, m, p, lam in [("euclidean", 2, 2.0, 1.0),
                           ("euclidean", 3, 2.0, 1.0),
                           ("hyperbolic", 2, 2.0, 0.25),
                           ("euclidean", 2, 3.0, 1.0),
                           ("euclidean", 2, 1.5, 1.0)]:
        M = core.manifold_from_tag(tag, m)
        sol = radial.solve_cauchy(M, core.p_laplacian_operator(p),
                                  core.linear_power_potential(p, lam),
                                  start, 32.0)
        assert sol.status == radial.COMPLETE and sol.grid[-1] == 32.0
        gaps = []
        for nodes in (48, 96, 192):
            grid = obstacle._construct_grid(1.0, 2.0, radii, nodes)
            prob = obstacle.make_problem(M, p, lam, grid)
            h_N = obstacle._unit_solutions(
                prob, np.searchsorted(grid, radii))[-1]
            far = grid >= 2.0
            z = np.interp(grid[far], sol.grid, sol.z / sol.z[-1])
            gaps.append(np.max(np.abs(h_N[far] - z) / z))
        ratios = np.divide(gaps[:-1], gaps[1:])
        assert ((3.8 <= ratios) & (ratios <= 4.5)).all(), (tag, m, p, ratios)
    # at B = 0 the Evans profile at c = 1 integrates, on the divergence
    # test's grid and with its rule, the integrand that the test samples,
    # v_pa = w^(-1/(p-1)), times w(R)^(1/(p-1)) = g(R)^((m-1)/(p-1))
    for tag, m, p in [("euclidean", 2, 2.0), ("euclidean", 2, 3.0),
                      ("euclidean", 3, 3.0), ("hyperbolic", 2, 2.0)]:
        M = core.manifold_from_tag(tag, m)
        op = core.p_laplacian_operator(p)
        dv = criteria.classify_parabolic(M, op).divergence
        assert dv.r_max == 1e4
        prof = constant_flux_profile(M, op, start, dv.r_max, R1=10.0)
        assert np.array_equal(prof.grid, core.geometric_grid(1.0, 1e4))
        want = math.exp((m - 1) * M.log_g(1.0) / (p - 1.0)) \
            * dv.partial_integral
        assert abs(prof.z[-1] / want - 1.0) <= 1e-13, (tag, m, p)


@pytest.mark.parametrize("tag", ["p-laplacian:p=2", "p-laplacian:p=3",
                                 "perturbed:p=2"])
@pytest.mark.parametrize("potential", [
    "zero", "linear-power:p=2,lambda=1", "plateau:T=1,p=2",
    "superlinear:q=5"])
@pytest.mark.parametrize("k", [1, 4, 20])
def test_the_scale_is_a_change_of_variable(tag, potential, k):
    # the march at scale c from (theta, mu) is c z = y, the march at c = 1
    # from (c theta, c mu): with c a power of two every product by c is
    # exact, so the two agree bit for bit, blow-ups included
    op = core.operator_from_tag(tag)
    pot = core.potential_from_tag(potential)
    c = 2.0 ** -k
    scaled = radial.solve_cauchy(
        EUC2, op, pot, radial.CauchyParams(1.0, 0.3, 0.7, c), 20.0)
    unit = radial.solve_cauchy(
        EUC2, op, pot, radial.CauchyParams(1.0, c * 0.3, c * 0.7, 1.0), 20.0)
    assert np.array_equal(scaled.grid, unit.grid)
    assert np.array_equal(c * scaled.z, unit.z)
    assert np.array_equal(c * scaled.zp, unit.zp)
    assert (scaled.status, scaled.r_max, scaled.blowup_radius) \
        == (unit.status, unit.r_max, unit.blowup_radius)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_solve_cauchy_is_scale_covariant(p):
    # B = t^(p-1) and phi = t^(p-1) are both (p-1)-homogeneous and theta = 0,
    # so z(mu) = mu z(1) exactly, and a scale-free Picard stop keeps that
    # on the same grid.  Each window's fixed point is its last application,
    # a few ulps from the scaled one; ~10 applications of 4 ulps each give
    # 40 eps ~ 9e-15, and 1e-13 leaves a margin.  An absolute stop of 1e-10
    # took the mu = 1e-12 profile's first iterate (0.58 off at p = 2)
    M, op = EUC2, core.p_laplacian_operator(p)
    pot = core.linear_power_potential(p, 1.0)

    def profile(mu):
        params = radial.CauchyParams(R=1.0, theta=0.0, mu=mu, c=1.0)
        sol = radial.solve_cauchy(M, op, pot, params, 10.0,
                                  blowup_threshold=math.inf)
        assert sol.status == radial.COMPLETE
        return sol

    unit = profile(1.0)
    for mu in (1e3, 1e-3, 1e-6, 1e-9, 1e-12):
        sol = profile(mu)
        assert np.array_equal(sol.grid, unit.grid), mu
        np.testing.assert_allclose(sol.z / mu, unit.z, rtol=1e-13, atol=0.0,
                                   err_msg=f"mu={mu:g}")


def test_solution_is_increasing_and_flux_consistent():
    pot = core.linear_power_potential(2.0, 0.5)
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=0.7, c=1.0)
    sol = radial.solve_cauchy(EUC3, LAP2, pot, params, 8.0)
    assert np.all(np.diff(sol.z) > 0)
    assert np.all(sol.zp > 0)
    assert ode_residual(EUC3, LAP2, pot, sol) < 1e-3


def test_ode_residual_small_for_zero_potential():
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    sol = radial.solve_cauchy(EUC2, LAP2, ZERO, params, 10.0)
    assert ode_residual(EUC2, LAP2, ZERO, sol) < 1e-9


# ---------------------------------------------------------------------------
# blow-up


def test_blowup_detected_for_fast_potential():
    pot = core.superlinear_potential(5.0)
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    sol = radial.solve_cauchy(EUC2, LAP2, pot, params, 100.0)
    assert sol.status == radial.BLOWUP
    assert sol.blowup_radius is not None
    assert 1.0 < sol.blowup_radius < 10.0
    # solution has risen steeply by the reported radius
    assert sol.z[-1] > 1e3


@pytest.mark.parametrize("q", [60.0, 300.0])
def test_a_fast_potential_blows_up(q):
    # int B passes a double before z = 1e6: the tail's grid ends where
    # K(z') passes BETA_MAX, and keller_osserman's range where beta does
    # (the halving march ended in "window underflow without blow-up
    # signature"); r stops increasing in doubles after a few nodes
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    sol = radial.solve_cauchy(EUC2, LAP2, core.superlinear_potential(q),
                              params, 100.0)
    assert sol.status == radial.BLOWUP
    assert sol.grid[-1] <= sol.blowup_radius < 1.1
    assert np.all(np.diff(sol.grid) > 0) and np.all(np.diff(sol.z) > 0)


def test_blowup_radius_stable_under_grid_halving():
    pot = core.superlinear_potential(5.0)
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    rhos = []
    for nodes in (64, 128):
        sol = radial.solve_cauchy(EUC2, LAP2, pot, params, 100.0,
                                  nodes_per_window=nodes)
        assert sol.status == radial.BLOWUP
        rhos.append(sol.blowup_radius)
    assert abs(rhos[1] - rhos[0]) <= 0.02 * rhos[0]


def _simpson_error_bound(u, f, h):
    """At every sample of the fine uniform grid ``u``, a bound on the
    error of the cumulative Simpson rule of step ``h`` for ``int_u0^u f``:
    the composite rule's ``h**4 int |f^(4)| / 180`` plus the one unpaired
    sub-interval's ``h**4 max|f^(3)| / 24``, the derivatives from finite
    differences of the samples ``f``."""
    d = [f]
    for _ in range(4):
        d.append(np.gradient(d[-1], u, edge_order=2))
    return h ** 4 * (cumulative_trapezoid(np.abs(d[4]), u, initial=0) / 180
                     + np.maximum.accumulate(np.abs(d[3])) / 24)


@pytest.mark.parametrize("p,q,theta", [(2.0, 5.0, 1.0), (1.5, 4.0, 1.0),
                                       (2.0, 5.0, 5.0)])
def test_blowup_profile_matches_an_ode_oracle_in_z(p, q, theta):
    # each fails its first window [1, 2], so the profile is the node
    # (1, theta, 1) and then the tail's nodes in z up to 1e6 theta.  Near
    # the blow-up z(r) has no correct digit (z ~ (rho - r)**(-1/2)), so the
    # oracle is solve_ivp (DOP853, rtol 1e-13) in the tail's variable v =
    # log(z - z_c), z_c = theta - K(1)/B(theta), K(t) = (p-1)/p t^p: dr/dv
    # = e^v/z' and dz'/dv = e^v (z^q - phi(z')/r) / (phi'(z') z').  The
    # tail's r is the cumulative Simpson rule of e^v/z' in v, and its z'
    # is K^-1 of E = K(1) + int z^q - int e^v phi(z')/r dv: a node's r is
    # off by at most that rule's error, O(h^4) in the step h = ln 10 /
    # POINTS_PER_DECADE, and z' relatively by the damping term's over p E,
    # plus rounding and the oracle's global error (ten times its rtol).  At
    # theta = 5, E rises 562-fold over the first step of a grid in log z
    def rhs(v, state):
        r, zp = state
        dz = math.exp(v)
        return [dz / zp, dz * ((z_c + dz) ** q - zp ** (p - 1.0) / r)
                / ((p - 1.0) * zp ** (p - 1.0))]

    z_c = theta - (p - 1.0) / p / theta ** q
    rtol = 1e-13
    v = np.linspace(math.log(theta - z_c), math.log(1e6 * theta - z_c),
                    20001)
    oracle = solve_ivp(rhs, (v[0], v[-1] + math.log(10.0)), [1.0, 1.0],
                       method="DOP853", rtol=rtol, atol=1e-14,
                       dense_output=True)
    assert oracle.success
    params = radial.CauchyParams(R=1.0, theta=theta, mu=1.0, c=1.0)
    sol = radial.solve_cauchy(EUC2, core.p_laplacian_operator(p),
                              core.superlinear_potential(q), params, 100.0)
    assert sol.status == radial.BLOWUP and sol.grid[0] == 1.0
    z, r, zp = sol.z[1:], sol.grid[1:], sol.zp[1:]
    assert z[-1] <= 1e6 * theta
    h = math.log(10.0) / core.POINTS_PER_DECADE
    r_v, zp_v = oracle.sol(v)
    r_bound = _simpson_error_bound(v, np.exp(v) / zp_v, h)
    zp_bound = _simpson_error_bound(v, np.exp(v) * zp_v ** (p - 1.0) / r_v,
                                    h) / ((p - 1.0) * zp_v ** p)
    at = np.log(z - z_c)
    r_ref, zp_ref = oracle.sol(at)
    assert np.all(np.abs(r - r_ref) <= np.interp(at, v, r_bound))
    assert np.all(np.abs(zp / zp_ref - 1.0) <= np.interp(at, v, zp_bound)
                  + len(z) * np.finfo(float).eps + 10.0 * rtol)
    # past z = 1e6 theta the remainder is below 1e-12 here
    assert abs(sol.blowup_radius - oracle.y[0][-1]) <= r_bound[-1]


def _log_corrected(t):
    t = np.asarray(t, dtype=float)
    return t * np.log(math.e + t) ** 2


@pytest.mark.parametrize("op,pot,R_max,message", [
    (LAP2, core.PotentialB(_log_corrected), 50.0,
     "keller_osserman says Inconclusive"),
    (LAP2, core.superlinear_potential(1.0), 800.0,
     "keller_osserman says NotKO_holds"),
    (dataclasses.replace(LAP2, derivative_pinched=False),
     core.superlinear_potential(5.0), 100.0,
     "window underflow at radius 1.80696, where z = 7905.46, with no "
     "blow-up certificate: keller_osserman requires the derivative-pinched "
     "operator flag"),
], ids=["t log^2(e+t)", "t", "t^5 unpinched"])
def test_a_window_underflow_names_the_missing_certificate(op, pot, R_max,
                                                          message):
    # at p = 2, B = t log^2(e + t) has beta^(-1/2) ~ 1/(t log t), whose
    # slope drifts toward -1: its growth test is Inconclusive, and its
    # profile passes a double near r = 8.7; B = t does not blow up, and
    # its profile passes a double near r = 705.5.  B = t^5 blows up near
    # r = 1.807, but the growth test needs the derivative-pinched flag,
    # which this copy of the p-Laplacian drops.  Each way the windows
    # halve until they underflow, which no threshold turns into a blow-up
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    with pytest.raises(core.NumericError, match=re.escape(message)):
        radial.solve_cauchy(EUC2, op, pot, params, R_max)


def test_blowup_threshold_is_checked_and_unused():
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    pot = core.superlinear_potential(5.0)
    for threshold in (0.0, -1.0, math.nan):
        with pytest.raises(core.DomainError, match="blowup_threshold"):
            radial.solve_cauchy(EUC2, LAP2, pot, params, 100.0,
                                blowup_threshold=threshold)
    sols = [radial.solve_cauchy(EUC2, LAP2, pot, params, 100.0,
                                blowup_threshold=t)
            for t in (1e-3, 1e8, math.inf)]
    for sol in sols[1:]:
        for name in ("grid", "z", "zp"):
            assert np.array_equal(getattr(sol, name), getattr(sols[0], name))
        assert sol.blowup_radius == sols[0].blowup_radius


def test_a_blowup_past_R_max_is_no_blowup():
    # R_max just below the blow-up radius 1.807: a window that fails (none
    # does at 1.8) hands over to the tail, whose radius is not below R_max,
    # so the windows halve on and reach R_max.  At 1.8069 the march used
    # to end a window 4 ulps short of R_max and refuse the next, too short
    # for distinct nodes, with ValueError "grid must be strictly
    # increasing"
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    pot = core.superlinear_potential(5.0)
    for R_max in (1.8, 1.8069, 1.806957):
        sol = radial.solve_cauchy(EUC2, LAP2, pot, params, R_max)
        assert sol.status == radial.COMPLETE and sol.grid[-1] == R_max
        assert np.all(np.diff(sol.grid) > 0)


def test_window_fails_at_the_first_growing_increment():
    # [1, 2] reaches past the blow-up radius ~1.807: the iterates diverge
    # and the window is refused with both increments named, not iterated
    # until the flux overflows
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    with pytest.raises(radial.PicardNoConvergence,
                       match="increment 1.097e.00, then 2.308e.00 at "
                             "application 2;"):
        radial.solve_on_interval(EUC2, LAP2, core.superlinear_potential(5.0),
                                 params, 2.0)


@pytest.mark.parametrize("threshold", [1e8, 1e16, 1e50])
def test_blowup_march_work_counts(monkeypatch, threshold):
    # the first window [1, 2] reaches past the blow-up radius ~1.807 and
    # fails at its second application; the march hands over to the tail
    # in z from R, so no window is accepted: 2 Picard applications and 1
    # failed window (199 and 27, with 15 accepted, when windows halved
    # until they underflowed at 1e-8 R; 435 and 42 when they iterated
    # until the flux overflowed and always doubled)
    counts = {"applications": 0, "failed": 0, "accepted": 0}
    apply, solve = radial.volterra_apply, radial.solve_on_interval

    def counted_apply(*args):
        counts["applications"] += 1
        return apply(*args)

    def counted_solve(*args, **kwargs):
        try:
            out = solve(*args, **kwargs)
        except radial.PicardNoConvergence as err:
            # a blow-up: no fixed point, never a flux past a double
            assert not isinstance(err, radial.FluxOverflow)
            counts["failed"] += 1
            raise
        counts["accepted"] += 1
        return out

    monkeypatch.setattr(radial, "volterra_apply", counted_apply)
    monkeypatch.setattr(radial, "solve_on_interval", counted_solve)
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    sol = radial.solve_cauchy(EUC2, LAP2, core.superlinear_potential(5.0),
                              params, 100.0, blowup_threshold=threshold)
    assert counts == {"applications": 2, "failed": 1, "accepted": 0}
    assert (sol.applications, sol.failed_windows) == (2, 1)
    assert sol.status == radial.BLOWUP
    # 1.80695616081357 from the halving march, 9.1e-7 below the ODE
    # oracle's 1.80695707417; the tail is 1.2e-8 below it
    assert sol.blowup_radius == 1.8069570626531855
    assert abs(sol.blowup_radius - 1.80695707415) < 1e-7
    # the node (R, theta, mu), then the tail's 807 nodes in z from 1 to
    # 1e6, geometric in z - 1/2 (K(1)/B(1) = 1/2)
    assert len(sol.grid) == 808


@pytest.mark.parametrize("tag,work", [
    ("linear-power:p=2,lambda=1",
     {"applications": 306, "windows": 43, "failed": 0}),
    # the plateau profile stays below its kink: the constant-flux table
    ("plateau:T=1,p=2", {"applications": 0, "windows": 0, "failed": 0}),
])
def test_evans_march_work_counts(monkeypatch, tag, work):
    # the Picard work of an evans call on the plane, scales and windows
    # together, so that a faster window is seen to do the same work; the
    # profile carries the same counts, which its march summed
    counts = count_picard_work(monkeypatch)
    res = radial.evans_for_triple(EUC2, LAP2, core.potential_from_tag(tag),
                                  R=1.0, R1=2.0, eps=0.1, R_max=40.0)
    assert counts == work
    assert (res.solution.applications, res.solution.failed_windows) == \
        (work["applications"], work["failed"])


def test_no_blowup_for_subcritical_potential():
    pot = core.linear_power_potential(2.0, 1.0)
    for c in (1.0, 0.5, 0.25):
        params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=c)
        sol = radial.solve_cauchy(EUC2, LAP2, pot, params, 100.0,
                                  blowup_threshold=1e50)
        assert sol.status == radial.COMPLETE
        assert sol.r_max == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# slope selection and the triple construction


def evans_slopes(op):
    """``(c, mu)`` of every scale of the Evans sweep on the plane from
    ``R = 1`` through ``R1 = 2`` and ``R_max = 60``, for ``B = 0``, whose
    slopes come with table rows, and for ``B = t**(p-1)``, which has no
    kink and whose slopes come with the node ``R``."""
    slopes = []
    for pot in (ZERO, core.linear_power_potential(op.p, 1.0)):
        heads = radial._evans_heads(EUC2, op, pot, 1.0, 2.0, 60.0)
        slopes.append([(c, mu) for c, mu, _ in heads])
    assert slopes[0] == slopes[1]
    assert [c for c, _ in slopes[0]] == [2.0 ** -k for k in range(40)]
    return slopes[0]


def test_choose_mu_p_laplacian_is_unity():
    for p in (1.5, 2.0, 3.0):
        for _, mu in evans_slopes(core.p_laplacian_operator(p)):
            assert mu == pytest.approx(1.0)


def test_choose_mu_flux_bound():
    op = core.perturbed_operator(2.0)
    for c, mu in evans_slopes(op):
        assert float(op.phi(c * mu)) == pytest.approx(c ** (op.p - 1.0),
                                                      rel=1e-9)


def test_evans_for_triple_log_profile():
    res = radial.evans_for_triple(EUC2, LAP2, ZERO, R=1.0, R1=2.0,
                                  eps=0.1, R_max=60.0)
    assert res.sup_on_annulus < 0.1
    assert res.solution.status == radial.COMPLETE
    w = res.c_final * res.solution.z
    expected = res.c_final * np.log(res.solution.grid)
    rel = np.max(np.abs(w - expected)) / np.max(expected)
    assert rel < 0.01
    # grows like an exhaustion function
    i50 = np.searchsorted(res.solution.grid, 50.0)
    i2 = np.searchsorted(res.solution.grid, 2.0)
    assert w[i50] > 5.0 * w[i2]


def test_evans_for_triple_rejects_bad_inputs():
    with pytest.raises(core.DomainError):
        radial.evans_for_triple(EUC2, LAP2, ZERO, R=2.0, R1=1.0, eps=0.1,
                                R_max=10.0)
    for eps in (-1.0, math.inf, math.nan):
        with pytest.raises(core.DomainError, match="eps must be positive"):
            radial.evans_for_triple(EUC2, LAP2, ZERO, R=1.0, R1=2.0,
                                    eps=eps, R_max=10.0)
    with pytest.raises(core.DomainError):
        # no t**(p-1) bound available
        radial.evans_for_triple(EUC2, LAP2, core.superlinear_potential(5.0),
                                R=1.0, R1=2.0, eps=0.1, R_max=10.0)


def test_evans_blowup_names_scale_threshold_and_radius():
    # B <= t^5 = t^(p-1) at p = 6 rules out a finite-radius blow-up: eps = 1
    # accepts c = 1 on [1, 2], whose march passes z = 1e8 near r = 26.3
    # and runs on to R_max
    res = radial.evans_for_triple(EUC2, core.p_laplacian_operator(6.0),
                                  core.plateau_potential(1e-3, 6.0), R=1.0,
                                  R1=2.0, eps=1.0, R_max=50.0)
    sol = res.solution
    assert res.c_final == 1.0 and sol.status == radial.COMPLETE
    assert sol.grid[-1] == sol.r_max == 50.0
    assert np.all(np.diff(sol.z) > 0) and sol.z[-1] > 1e8


def test_evans_stall_names_scale_radius_and_value():
    # z grows like e^r on the plane; near r = 715 z itself passes the
    # largest double (the window weights are relative to their first
    # node, so no flux passes it first) and the windows underflow on it,
    # which is named, not a blow-up
    with pytest.raises(core.DomainError) as info:
        radial.evans_for_triple(EUC2, LAP2,
                                core.linear_power_potential(2.0, 1.0),
                                R=1.0, R1=2.0, eps=0.1, R_max=750.0)
    assert str(info.value) == ("the march at c=0.0625 passes the largest "
                               "double, in phi(c z') or in z, past radius "
                               "714.853, where z = 1.79769e+308; take a "
                               "smaller R_max")


@pytest.mark.parametrize("p,lam,R_max,message,overflows", [
    (3.0, 1.0, 700.0, "c=0.0625 passes the largest double, in phi(c z') or "
     "in z, past radius 453.837, where z = 2.14525e+155", 27),
    (2.0, 10.0, 300.0, "c=0.03125 passes the largest double, in phi(c z') "
     "or in z, past radius 226.75, where z = 1.10195e+308", 27),
], ids=["p=3 lambda=1", "p=2 lambda=10"])
def test_evans_names_a_flux_overflow(monkeypatch, p, lam, R_max, message,
                                     overflows):
    # the march of the accepted scale outgrows a double before R_max; its
    # last windows fail on the flux (at p = 2, lambda = 10 the last on z)
    # and halve until they underflow.  The window's rule h K_n/12 scales
    # each sample by h before it sums them, so a window overflows where its
    # integrand or integral passes a double: at p = 3 where (c z)**2 does,
    # c z = 1.34e154.  The per-spacing rule formed 2.5 y0 + 4 y1 before its
    # factor h/6 and passed a double 6.5x sooner, at 452.657 and 226.625
    failures = Counter()
    solve = radial.solve_on_interval

    def recording(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except radial.PicardNoConvergence as err:
            failures[type(err)] += 1
            raise

    monkeypatch.setattr(radial, "solve_on_interval", recording)
    with pytest.raises(core.DomainError) as info:
        radial.evans_for_triple(EUC2, core.p_laplacian_operator(p),
                                core.linear_power_potential(p, lam), R=1.0,
                                R1=2.0, eps=0.1, R_max=R_max)
    assert not isinstance(info.value, radial.EvansFailure)
    assert str(info.value) == (f"the march at {message}; take a smaller "
                               f"R_max")
    assert issubclass(radial.FluxOverflow, radial.PicardNoConvergence)
    assert failures[radial.FluxOverflow] == overflows


@pytest.mark.parametrize("failure, error, what", [
    (radial.FluxOverflow, core.DomainError,
     "passes the largest double, in phi(c z') or in z, past"),
    (radial.PicardNoConvergence, radial.EvansFailure,
     "stalled (window underflow) at"),
], ids=["flux overflow", "no fixed point"])
def test_the_march_raises_its_own_stall(monkeypatch, failure, error, what):
    # every window that passes r = 5 fails: the accepted scale's windows
    # halve there until they underflow, and the evans march raises by the
    # last failure's type, naming c, the radius and z; solve_cauchy's
    # march, which hands over to the blow-up tail, names the certificate
    # that is missing instead
    solve = radial.solve_on_interval
    last = {}

    def failing_past_5(M, op, pot, params, r_end, n_nodes, work):
        if r_end > 5.0:
            raise failure("injected")
        grid, z, zp = solve(M, op, pot, params, r_end, n_nodes=n_nodes,
                            work=work)
        last.update(c=params.c, r=float(grid[-1]), z=float(z[-1]))
        return grid, z, zp

    monkeypatch.setattr(radial, "solve_on_interval", failing_past_5)
    pot = core.linear_power_potential(2.0, 1.0)
    with pytest.raises(error) as info:
        radial.evans_for_triple(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=0.1,
                                R_max=40.0)
    assert type(info.value) is error
    assert (last["c"], last["r"]) == (0.0625, 5.0)
    assert str(info.value).startswith(
        f"the march at c=0.0625 {what} radius 5, where z = {last['z']:.6g}")
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    with pytest.raises(core.NumericError) as info:
        radial.solve_cauchy(EUC2, LAP2, pot, params, 40.0)
    assert last["r"] == 5.0
    assert str(info.value) == (
        f"window underflow at radius 5, where z = {last['z']:.6g}, with no "
        "blow-up certificate: keller_osserman says NotKO_holds")


# B != 0: each scale decided on the annulus against the eager sweep
EAGER_CASES = {
    "plane p=2 linear-power": (EUC2, LAP2,
                               core.linear_power_potential(2.0, 1.0), 40.0),
    "plane p=2 plateau": (EUC2, LAP2, core.plateau_potential(1.0, 2.0),
                          40.0),
    "plane p=3 linear-power": (EUC2, LAP3,
                               core.linear_power_potential(3.0, 1.0), 20.0),
    "hyperbolic m=2 p=2 linear-power": (
        core.manifold_from_tag("hyperbolic", 2), LAP2,
        core.linear_power_potential(2.0, 1.0), 20.0),
}


@pytest.mark.parametrize("M,op,pot,R_max", EAGER_CASES.values(),
                         ids=EAGER_CASES.keys())
def test_evans_scale_sweep_is_the_eager_sweep(monkeypatch, M, op, pot,
                                              R_max):
    R1 = 2.0
    windows = []       # (c, r_end, converged) of every window solve
    solve = radial.solve_on_interval

    def recording(M_, op_, pot_, params, r_end, **kw):
        try:
            out = solve(M_, op_, pot_, params, r_end, **kw)
        except radial.PicardNoConvergence:
            windows.append((params.c, r_end, False))
            raise
        windows.append((params.c, r_end, True))
        return out

    monkeypatch.setattr(radial, "solve_on_interval", recording)
    res = radial.evans_for_triple(M, op, pot, R=1.0, R1=R1, eps=0.1,
                                  R_max=R_max)
    monkeypatch.undo()
    eager = evans_eager_sweep(M, op, pot, R=1.0, R1=R1, eps=0.1,
                              R_max=R_max)
    assert res.solution.status == eager.solution.status == radial.COMPLETE
    for name in ("grid", "z", "zp"):
        assert np.array_equal(getattr(res.solution, name),
                              getattr(eager.solution, name)), name
    assert (res.c_final, res.mu_final, res.sup_on_annulus,
            res.constant_flux_to) == \
        (eager.c_final, eager.mu_final, eager.sup_on_annulus,
         eager.constant_flux_to)
    if pot.kink is not None:
        # c z stays below the plateau's kink on [1, R1] at every scale and
        # up to R_max at the accepted one: no scale lays a window
        assert windows == [] and res.constant_flux_to == R_max
        return
    # every rejected scale stops at its first window ending at or past R1
    scales = sorted({c for c, _, _ in windows}, reverse=True)
    assert scales[-1] == res.c_final and len(scales) > 1
    for c in scales:
        mine = [w for w in windows if w[0] == c]
        ends = [r for _, r, ok in mine if ok]
        assert mine[-1][2]          # the last window solve converged
        if c == res.c_final:
            assert ends[-1] == R_max
        else:
            assert ends[-1] >= R1
            assert all(r < R1 for r in ends[:-1])


def test_evans_crossing_past_the_annulus_of_a_rejected_scale():
    # the rejected scales c = 1, 1/2 of the plateau pass z = 1e8 only past
    # R1, which solve_cauchy's threshold used to report as a blow-up that
    # failed the eager sweep; no threshold decides a blow-up now, and the
    # annulus decides them first, below the kink, where B(c z) = 0 and each
    # scale is its constant-flux table: the accepted c = 1/8 is the eager
    # sweep's, the table up to R_max, where c z = log(40)/8 < 1
    pot = core.plateau_potential(1.0, 2.0)
    for c in (1.0, 0.5):
        params = radial.CauchyParams(R=1.0, theta=0.0,
                                     mu=choose_mu(LAP2, c), c=c)
        sol = radial.solve_cauchy(EUC2, LAP2, pot, params, 40.0)
        assert sol.status == radial.COMPLETE
        assert radial._sup_on(sol.grid, sol.z, 1.0, 2.0) < 1e8 < sol.z[-1]
    res = radial.evans_for_triple(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=0.1,
                                  R_max=40.0)
    eager = evans_eager_sweep(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=0.1,
                              R_max=40.0)
    assert res.c_final == eager.c_final == 0.125
    assert np.array_equal(res.solution.z, eager.solution.z)
    assert res.constant_flux_to == 40.0 and res.solution.applications == 0


def test_plateau_evans_profile_is_the_picard_solution():
    # B(c z) vanishes below the plateau's kink, and at the accepted
    # c = 1/8 c z = log(r)/8 stays below T = 1 up to R_max = 40: the
    # profile is the constant-flux table, which agrees with solve_cauchy's
    # pure Picard march where the table grid and the unit windows share
    # nodes, with the tolerances of the B = 0 check
    pot = core.plateau_potential(1.0, 2.0)
    res = radial.evans_for_triple(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=0.1,
                                  R_max=40.0)
    sol = res.solution
    assert (res.c_final, res.constant_flux_to, sol.applications) == \
        (0.125, 40.0, 0)
    params = radial.CauchyParams(1.0, 0.0, res.mu_final, res.c_final)
    picard = radial.solve_cauchy(EUC2, LAP2, pot, params, 40.0)
    assert picard.applications > 0
    shared, i, j = np.intersect1d(sol.grid, picard.grid, return_indices=True)
    assert shared.tolist() == [1.0, 2.0, 10.0, 40.0]
    np.testing.assert_allclose(sol.zp[i], picard.zp[j], rtol=1e-13,
                               atol=0.0)
    np.testing.assert_allclose(sol.z[i], picard.z[j], rtol=2e-8, atol=0.0)


# (operator, kink T, eps, R_max) of accepted profiles that pass their kink
HAND_OVER_CASES = {
    "plane p=2 T=1 eps=1": (LAP2, 1.0, 1.0, 40.0),
    "plane p=3 T=0.3 eps=0.5": (LAP3, 0.3, 0.5, 20.0),
}


@pytest.mark.parametrize("op,T,eps,R_max", HAND_OVER_CASES.values(),
                         ids=HAND_OVER_CASES.keys())
def test_evans_hands_the_plateau_profile_over_past_its_kink(op, T, eps,
                                                            R_max):
    # the accepted profile is the constant-flux table up to its last node
    # where c z <= T, then the Picard march from that node, with R1 a
    # node; at R_max it is within 2e-5 of a DOP853 oracle that restarts
    # at the kink (measured 1.15e-5 at p = 2 and 1.0e-8 at p = 3; the pure
    # Picard march is 7.8e-6 and 1.0e-7 off)
    pot = core.plateau_potential(T, op.p)
    res = radial.evans_for_triple(EUC2, op, pot, R=1.0, R1=2.0, eps=eps,
                                  R_max=R_max)
    sol, c, mu = res.solution, res.c_final, res.mu_final
    table = constant_flux_profile(
        EUC2, op, radial.CauchyParams(1.0, 0.0, mu, c), R_max, R1=2.0)
    k = int(np.searchsorted(table.grid, res.constant_flux_to))
    assert table.grid[k] == res.constant_flux_to
    assert c * table.z[k] <= T < c * table.z[k + 1]
    for name in ("grid", "z", "zp"):
        assert np.array_equal(getattr(sol, name)[:k + 1],
                              getattr(table, name)[:k + 1]), name
    assert sol.grid[k + 1] > sol.grid[k]
    assert sol.applications > 0 and sol.failed_windows == 0
    assert 2.0 in sol.grid and sol.grid[-1] == R_max

    def rhs(r, y):
        # (r phi(c z'))' = r B(c z) on the plane, phi(t) = t^(p-1)
        z, flux = y
        return [(max(flux, 0.0) / r) ** (1.0 / (op.p - 1.0)) / c,
                r * max(c * z - T, 0.0) ** (op.p - 1.0)]

    def kink(r, y):
        return c * y[0] - T

    kink.terminal = True
    below = solve_ivp(rhs, (1.0, R_max), [0.0, (c * mu) ** (op.p - 1.0)],
                      method="DOP853", rtol=1e-13, atol=1e-14, events=kink)
    past = solve_ivp(rhs, (below.t[-1], R_max), below.y[:, -1],
                     method="DOP853", rtol=1e-13, atol=1e-14)
    assert below.status == 1 and past.success
    assert abs(sol.z[-1] / past.y[0, -1] - 1.0) < 2e-5


@pytest.mark.parametrize("R_max", [12.0, 40.0])
def test_evans_reads_the_annulus_up_to_R1(R_max):
    # the c = 1/16 profile on the plane is 0.0509727 at R1 = 2 (solve_cauchy
    # to R1), above eps = 0.0509.  At R_max = 12 no window of the march
    # used to end at R1, and the sup was read at the last node below it,
    # 0.0506058, which accepted c = 1/16; at R_max = 40, [1, 2] is the
    # first window, and c = 1/32 was accepted
    pot = core.linear_power_potential(2.0, 1.0)
    c = 1.0 / 16.0
    to_R1 = radial.solve_cauchy(
        EUC2, LAP2, pot,
        radial.CauchyParams(1.0, 0.0, choose_mu(LAP2, c), c), 2.0)
    assert c * to_R1.z[-1] > 0.0509
    res = radial.evans_for_triple(EUC2, LAP2, pot, R=1.0, R1=2.0,
                                  eps=0.0509, R_max=R_max)
    assert res.c_final == 1.0 / 32.0


R1_OFF_WINDOW_ENDS = {
    "plane p=2 R_max=12": (EUC2, LAP2, "linear-power:p=2,lambda=1", 1.0,
                           2.0, 12.0),
    "plane p=2 R1=1.7": (EUC2, LAP2, "linear-power:p=2,lambda=1", 1.0, 1.7,
                         40.0),
    "plane m=3 p=3 R1=1.7": (EUC3, LAP3, "linear-power:p=3,lambda=1", 1.0,
                             1.7, 12.0),
    "hyperbolic m=2 p=2 R=0.5 R1=3": (
        core.manifold_from_tag("hyperbolic", 2), LAP2,
        "linear-power:p=2,lambda=1", 0.5, 3.0, 12.0),
    "hyperbolic m=3 perturbed R1=1.7": (
        core.manifold_from_tag("hyperbolic", 3),
        core.operator_from_tag("perturbed:p=2"),
        "linear-power:p=2,lambda=1", 1.0, 1.7, 12.0),
}


@pytest.mark.parametrize("M,op,tag,R,R1,R_max", R1_OFF_WINDOW_ENDS.values(),
                         ids=R1_OFF_WINDOW_ENDS.keys())
def test_evans_march_ends_a_window_at_R1(M, op, tag, R, R1, R_max):
    # R1 is no window end of solve_cauchy's march, but the evans march
    # ends one there, so the increasing profile's sup on [R, R1] is its
    # value at R1
    pot = core.potential_from_tag(tag)
    res = radial.evans_for_triple(M, op, pot, R=R, R1=R1, eps=0.1,
                                  R_max=R_max)
    params = radial.CauchyParams(R, 0.0, res.mu_final, res.c_final)
    assert R1 not in radial.solve_cauchy(M, op, pot, params, R_max).grid
    at_R1 = np.flatnonzero(res.solution.grid == R1)
    assert len(at_R1) == 1
    assert res.sup_on_annulus == res.c_final * res.solution.z[at_R1[0]]


@pytest.mark.parametrize("pot,exponents", [
    (core.linear_power_potential(3.0, 1.0), r"t\*\*2, .* t\*\*1 "),
    (core.plateau_potential(1e-3, 6.0), r"t\*\*5, .* t\*\*1 "),
])
def test_evans_refuses_potentials_growing_faster_than_the_operator(
        pot, exponents):
    # each grows like t^(p-1) for its own p; a p = 2 operator needs
    # B <= b t, and these potentials genuinely blow up
    with pytest.raises(core.DomainError, match=exponents):
        radial.evans_for_triple(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=0.1,
                                R_max=10.0)


def test_evans_refuses_a_pure_power_slower_than_the_operator(monkeypatch):
    # a p = 3 operator needs B <= b t^2, which lambda t fails near 0: the
    # refusal names both exponents before any classifier call or march
    # (from R = 0.5 the scales used to halve to the floor, "no admissible
    # scale", and from R = 1 a scale was accepted)
    op = core.p_laplacian_operator(3.0)
    calls = []
    monkeypatch.setattr(radial, "classify_KL",
                        lambda *args, **kw: calls.append(args))
    for M in (EUC2, core.manifold_from_tag("hyperbolic", 3)):
        for R, R1 in ((1.0, 2.0), (0.5, 3.0)):
            with pytest.raises(core.DomainError,
                               match=r"t\*\*1 near 0, slower than "
                                     r"t\*\*\(p-1\) = t\*\*2 "):
                radial.evans_for_triple(M, op, core.linear_power_potential(
                    2.0, 1.0), R=R, R1=R1, eps=0.1, R_max=12.0)
    assert calls == []
    monkeypatch.undo()
    # B = 0 and a potential that vanishes on [0, T] keep their bound
    for pot in (core.linear_power_potential(2.0, 0.0),
                core.plateau_potential(1.0, 2.0)):
        res = radial.evans_for_triple(EUC2, op, pot, R=1.0, R1=2.0, eps=0.1,
                                      R_max=12.0)
        assert res.solution.status == radial.COMPLETE


@pytest.mark.parametrize("pot", [
    core.PotentialB(B=lambda t: np.asarray(t, dtype=float)),
    core.PotentialB(B=lambda t: np.maximum(np.asarray(t, dtype=float) - 1.0,
                                           0.0), kink=1.0),
], ids=["no-kink", "kink"])
def test_evans_refuses_a_potential_that_declares_no_exponent(pot,
                                                             monkeypatch):
    # the bound B <= b t**(p-1) is read from the growth exponent: with no
    # exponent and B != 0 it is unknown, and the refusal says so before
    # any classifier call
    calls = []
    monkeypatch.setattr(radial, "classify_KL",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(core.DomainError,
                       match=r"^potential custom declares no growth exponent, "
                             r"so its bound b t\*\*\(p-1\) = b t\*\*1 of the "
                             r"operator p-laplacian:p=2 is unknown$"):
        radial.evans_for_triple(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=0.1,
                                R_max=12.0)
    assert calls == []


# ---------------------------------------------------------------------------
# B = 0: the constant-flux closed form against the Picard march


def plane_table(tmp_path):
    """The plane's warping g(r) = r, tabulated up to r = 100."""
    r = np.linspace(0.01, 100.0, 400)
    path = tmp_path / "plane.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    return core.load_manifold_csv(path, m=2)


def sqrt_table(tmp_path):
    """``g = r (1 + r^2)^(-1/4)``, so ``g ~ r^(1/2)``, up to r = 1e4."""
    r = np.geomspace(1e-3, 1e4, 400)
    path = tmp_path / "sqrt.csv"
    np.savetxt(path, np.column_stack([r, r * (1.0 + r * r) ** -0.25]),
               delimiter=",", header="r,g", comments="")
    return core.load_manifold_csv(path, m=2)


OPERATORS = {"p=2": LAP2, "p=3": LAP3,
             "perturbed:p=2": core.perturbed_operator(2.0)}
MANIFOLDS = {"euclidean m=2": lambda tmp: EUC2,
             "euclidean m=3": lambda tmp: EUC3,
             "hyperbolic m=2": lambda tmp: core.manifold_from_tag(
                 "hyperbolic", 2),
             "table g~r^(1/2)": sqrt_table}
# the warpings of the B = 0 scale sweep against the eager sweep
EXACT_SWEEP = ("euclidean m=2", "euclidean m=3", "table g~r^(1/2)")


@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
@pytest.mark.parametrize("make", MANIFOLDS.values(), ids=MANIFOLDS.keys())
def test_constant_flux_profile_is_the_picard_solution(make, op, tmp_path):
    # the geometric grid and the march's unit windows share R, R1 = 5,
    # 10 = 10**(128/128) and R_max; there the two rules agree
    M = make(tmp_path)
    params = radial.CauchyParams(R=1.0, theta=0.2, mu=0.7, c=0.5)
    exact = constant_flux_profile(M, op, params, 30.0, R1=5.0)
    picard = radial.solve_cauchy(M, op, ZERO, params, 30.0)
    assert exact.status == picard.status == radial.COMPLETE
    assert exact.r_max == picard.r_max == 30.0
    shared, i, j = np.intersect1d(exact.grid, picard.grid,
                                  return_indices=True)
    assert shared.tolist() == [1.0, 5.0, 10.0, 30.0]
    np.testing.assert_allclose(exact.zp[i], picard.zp[j], rtol=1e-13,
                               atol=0.0)
    np.testing.assert_allclose(exact.z[i], picard.z[j], rtol=2e-8, atol=0.0)


# (warping, operator, R1, eps) of the B = 0 sweeps: every warping,
# operator and R1 at eps = 0.1, and on the plane three whose accepted scale
# is past the first block, c = 2**-10, 2**-9 and 2**-17
ZERO_SWEEPS = {f"{m}-{o}-{R1}": (m, o, R1, 0.1) for m in EXACT_SWEEP
               for o in OPERATORS for R1 in (2.0, 5.0)} | {
    f"euclidean m=2-{o}-2.0-eps={eps:g}": ("euclidean m=2", o, 2.0, eps)
    for o, eps in (("p=2", 1e-3), ("perturbed:p=2", 1e-3), ("p=3", 1e-5))}


def scale_blocks(c_final):
    """The blocks of the sweep's scales up to the one holding ``c_final``."""
    k = round(math.log2(1.0 / c_final))
    scales = [2.0 ** -j for j in range(k + radial.EVANS_BLOCK)]
    return [scales[i:i + radial.EVANS_BLOCK]
            for i in range(0, k + 1, radial.EVANS_BLOCK)]


def recording_rows(monkeypatch):
    """Record ``(scales, nodes)`` of every constant-flux rows evaluation."""
    evaluated = []
    rows = radial._ConstantFluxTable.rows

    def recording(table, op, c, mu):
        evaluated.append((c.tolist(), len(table.grid)))
        return rows(table, op, c, mu)

    monkeypatch.setattr(radial._ConstantFluxTable, "rows", recording)
    return evaluated


def assert_is_the_eager_sweep(res, eager):
    for name in ("grid", "z", "zp"):
        assert np.array_equal(getattr(res.solution, name),
                              getattr(eager.solution, name)), name
    assert (res.c_final, res.mu_final, res.sup_on_annulus,
            res.constant_flux_to) == \
        (eager.c_final, eager.mu_final, eager.sup_on_annulus,
         eager.constant_flux_to)


@pytest.mark.parametrize("make, op, R1, eps", ZERO_SWEEPS.values(),
                         ids=ZERO_SWEEPS.keys())
def test_evans_zero_potential_sweep_is_the_eager_sweep(monkeypatch, make, op,
                                                       R1, eps, tmp_path):
    # the B = 0 twin of test_evans_scale_sweep_is_the_eager_sweep: the
    # table is evaluated once per block of scales up to the accepted one,
    # each time on the whole table grid through R1
    M, op, R, R_max = MANIFOLDS[make](tmp_path), OPERATORS[op], 1.0, 60.0
    evaluated = recording_rows(monkeypatch)
    try:
        res = radial.evans_for_triple(M, op, ZERO, R=R, R1=R1, eps=eps,
                                      R_max=R_max)
    except radial.NoExhaustion:
        # R^3 at p = 2: the Liouville test refuses before any build
        assert M is EUC3 and op.p == 2.0
        assert evaluated == []
        return
    monkeypatch.undo()
    eager = evans_eager_sweep(M, op, ZERO, R=R, R1=R1, eps=eps, R_max=R_max)
    assert res.solution.status == eager.solution.status == radial.COMPLETE
    for name in ("grid", "z", "zp"):
        assert np.array_equal(getattr(res.solution, name),
                              getattr(eager.solution, name)), name
    assert (res.c_final, res.mu_final, res.sup_on_annulus) == \
        (eager.c_final, eager.mu_final, eager.sup_on_annulus)
    grid = res.solution.grid
    assert R1 in grid and grid[-1] == R_max
    assert res.sup_on_annulus == res.c_final * res.solution.z[
        np.searchsorted(grid, R1)]
    assert [c for c, _ in evaluated] == scale_blocks(res.c_final)
    assert all(nodes == len(grid) for _, nodes in evaluated)


@pytest.mark.parametrize("eps, c, constant_flux_to, applications", [
    # the scales down to 1/8 pass the kink inside [1, 2] and march; the
    # accepted 1/16 passes it at r ~ 4.9 and hands over there
    (0.05, 2.0 ** -4, 4.86967525166, 410),
    # past the first block, below the kink up to R_max
    (1e-3, 2.0 ** -10, 60.0, 20),
])
def test_evans_plateau_block_that_marches_is_the_eager_sweep(
        monkeypatch, eps, c, constant_flux_to, applications):
    # a block whose first rows pass the kink T = 0.1 on the annulus, each
    # marching from its own row, and the rows after them decided by the
    # table alone
    pot = core.plateau_potential(0.1, 2.0)
    evaluated = recording_rows(monkeypatch)
    res = radial.evans_for_triple(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=eps,
                                  R_max=60.0)
    monkeypatch.undo()
    eager = evans_eager_sweep(EUC2, LAP2, pot, R=1.0, R1=2.0, eps=eps,
                              R_max=60.0)
    assert_is_the_eager_sweep(res, eager)
    assert res.c_final == c and res.solution.applications == applications
    assert f"{res.constant_flux_to:.12g}" == f"{constant_flux_to:.12g}"
    assert [c for c, _ in evaluated] == scale_blocks(c)


@pytest.mark.parametrize("op, tag, c", [
    (LAP2, "zero", 2.0 ** -10),
    (core.perturbed_operator(2.0), "zero", 2.0 ** -9),
    (LAP2, "linear-power:p=2,lambda=1", 2.0 ** -10)],
    ids=["p=2", "perturbed:p=2", "p=2-linear-power"])
def test_evans_phi_inverse_error_past_the_accepted_row(monkeypatch, op, tag,
                                                       c):
    # a phi^-1 that fails on every y below those of the accepted row (B = 0)
    # or slope (no kink): the block holding it is built again one row at a
    # time, which stops at the accepted row, so the error of the rows past
    # it never surfaces
    pot = core.potential_from_tag(tag)
    eager = evans_eager_sweep(EUC2, op, pot, R=1.0, R1=2.0, eps=1e-3,
                              R_max=60.0)
    assert eager.c_final == c
    # the row's least flux, at w(1)/w(60) = 1/60, or the slope's c**(p-1)
    least = (c ** (op.p - 1.0) if pot.kink is None
             else float(op.phi(c * eager.mu_final)) / 60.0)
    phi_inverse, refused = radial.phi_inverse, []

    def failing(op_, y):
        if np.min(y) < least * (1.0 - 1e-9):
            refused.append(np.size(y))
            raise core.NumericError("phi_inverse: y below the accepted row")
        return phi_inverse(op_, y)

    monkeypatch.setattr(radial, "phi_inverse", failing)
    res = radial.evans_for_triple(EUC2, op, pot, R=1.0, R1=2.0, eps=1e-3,
                                  R_max=60.0)
    assert_is_the_eager_sweep(res, eager)
    # a batched call of the second block failed (its slopes' or its
    # rows'), and no call of a single row did
    block = radial.EVANS_BLOCK
    assert refused == [block] or refused == [block * len(res.solution.grid)]


@pytest.mark.parametrize("R_max, nodes", [
    (60.0, 3718), (60.0 + 5e-9, 3718), (60.0 + 2e-8, 3781)])
def test_a_window_that_would_leave_a_sliver_takes_the_rest(R_max, nodes):
    # a window that would leave less than 1e-8 R takes the rest, so a last
    # 5e-9 joins the window before it, and a last 2e-8 is a window of its
    # own
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    grid = radial.solve_cauchy(EUC2, LAP2, ZERO, params, R_max).grid
    assert len(grid) == nodes and grid[-1] == R_max


# the table node 10**(38/128) = 1.98... next to R1 = 2
NODE = 10.0 ** (38 / 128)


@pytest.mark.parametrize("R1, R_max, nodes", [
    (2.0, 60.0, 230),
    # a table node within relative 1e-9 of R1 or of R_max gives way to it
    (NODE * (1.0 + 5e-10), 60.0, 229),
    (2.0, 10.0 * (1.0 + 5e-10), 130),
    # R1 within relative 1e-9 of R_max: both stay nodes
    (60.0 * (1.0 - 5e-10), 60.0, 230),
    (60.0 - 1e-12, 60.0, 230),
])
def test_constant_flux_grid_is_the_table_grid_through_R1(R1, R_max, nodes):
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    grid = constant_flux_profile(EUC2, LAP2, params, R_max, R1=R1).grid
    assert (np.diff(grid) > 0).all() and len(grid) == nodes
    assert grid[0] == 1.0 and R1 in grid and grid[-1] == R_max
    # the other nodes are the divergence test's, more than 1e-9 from both
    table = core.geometric_grid(1.0, R_max)[:-1]
    keep = np.abs(table / R1 - 1.0) > 1e-9
    assert np.array_equal(np.setdiff1d(grid, [R1, R_max]), table[keep])
    # and the profile stays increasing, its sup on [R, R1] at R1
    res = radial.evans_for_triple(EUC2, LAP2, ZERO, R=1.0, R1=R1, eps=0.1,
                                  R_max=R_max)
    assert np.all(np.diff(res.solution.z) > 0)
    assert res.sup_on_annulus == pytest.approx(
        res.c_final * math.log(R1), rel=1e-12)


@pytest.mark.parametrize("M,op,exact,bound", [
    # r z' = 1 is constant in log r, where Simpson's rule is exact
    (EUC2, LAP2, np.log, 1e-14),
    (EUC3, LAP2, lambda r: 1.0 - 1.0 / r, 5e-9),
    (EUC2, LAP3, lambda r: 2.0 * (np.sqrt(r) - 1.0), 5e-9),
], ids=["plane p=2", "R^3 p=2", "plane p=3"])
def test_constant_flux_profile_matches_closed_forms(M, op, exact, bound):
    # z = log r on the plane, 1 - 1/r on R^3, 2 (sqrt r - 1) on the plane
    # at p = 3; the error is the cumulative Simpson rule's in log r
    params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
    sol = constant_flux_profile(M, op, params, 60.0)
    assert np.max(np.abs(sol.z - exact(sol.grid))) <= bound


@pytest.mark.parametrize("tag", ["linear-power:p={p},lambda=1",
                                 "plateau:T=0.5,p={p}", "zero"])
@pytest.mark.parametrize("op", [core.p_laplacian_operator(1.5), LAP2, LAP3,
                                core.perturbed_operator(2.0)],
                         ids=["p=1.5", "p=2", "p=3", "perturbed:p=2"])
def test_evans_slopes_are_choose_mu(monkeypatch, tmp_path, op, tag):
    # every potential takes its slopes from one phi^-1 per block of
    # scales: each scale the sweep tries, past the first block too, has
    # choose_mu's slope bit for bit
    pot = core.potential_from_tag(tag.format(p=f"{op.p:g}"))
    tried, heads = [], radial._evans_heads

    def recording(*args):
        for c, mu, head in heads(*args):
            tried.append((c, mu))
            yield c, mu, head

    monkeypatch.setattr(radial, "_evans_heads", recording)
    res = radial.evans_for_triple(sqrt_table(tmp_path), op, pot, R=1.0,
                                  R1=2.0, eps=1e-3, R_max=20.0)
    assert [c for c, _ in tried] == [2.0 ** -k for k in range(len(tried))]
    assert tried[-1] == (res.c_final, res.mu_final)
    assert len(tried) > radial.EVANS_BLOCK
    for c, mu in tried:
        assert mu == choose_mu(op, c)


def test_a_head_that_ends_at_R_max_is_the_whole_march():
    # the march returns at once: no window, no Picard work, and no
    # CauchyParams from the head's last node, whose slope 0 it refuses
    head = (np.array([1.0, 2.0]), np.array([0.0, 0.5]), np.array([1.0, 0.0]))
    pieces, work = [], Counter()
    end = radial._take(radial._march(EUC2, LAP2, ZERO, 0.5, head, 2.0,
                                     radial.NODES_PER_WINDOW, work), pieces)
    assert end == (radial.COMPLETE, 2.0, None)
    assert len(pieces) == 1 and pieces[0] is head
    assert work == Counter()


@pytest.mark.parametrize("R_max", [1.0, 0.5])
def test_a_march_to_the_base_radius_or_below_is_refused(R_max):
    # the range check reads the first node of the march's head
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    with pytest.raises(core.DomainError) as info:
        radial.solve_cauchy(EUC2, LAP2, ZERO, params, R_max)
    assert str(info.value) == ("R_max must be finite and exceed the base "
                               f"radius, got {R_max:g}")


@pytest.mark.parametrize("R_max", [math.inf, math.nan])
def test_a_march_to_a_non_finite_radius_is_refused(R_max):
    # an infinite R_max used to march forever with B = 0, and to stop at
    # the blow-up threshold, reported as a blow-up, with B != 0
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    pot = core.linear_power_potential(2.0, 1.0)
    with pytest.raises(core.DomainError, match="R_max must be finite"):
        radial.solve_cauchy(EUC2, LAP2, pot, params, R_max)
    with pytest.raises(core.DomainError, match="R1 < R_max < inf"):
        radial.evans_for_triple(EUC2, LAP2, pot, 1.0, 2.0, 0.1, R_max)


def test_constant_flux_profile_names_an_overflowing_weight_ratio():
    # g = r up to 1, then e^(-300 (r - 1)): at m = 5 the ratio w(R)/w(r)
    # passes the largest double near r = 1.6; the checked phi^-1 names
    # the y = inf it makes, with no overflow warning first
    r = np.linspace(0.01, 2.0, 200)
    M = core.tabulated_manifold(
        r, np.where(r <= 1.0, r, np.exp(-300.0 * (r - 1.0))), m=5)
    params = radial.CauchyParams(R=0.5, theta=0.0, mu=1.0, c=1.0)
    with pytest.raises(core.DomainError,
                       match="phi_inverse requires finite y >= 0, got y=inf"):
        constant_flux_profile(M, LAP2, params, 2.0)


@pytest.mark.parametrize("R_max,R1", [
    (1.0, 2.0), (math.inf, 2.0), (math.nan, 2.0), (10.0, 1.0),
    (10.0, 0.5), (10.0, 11.0), (10.0, math.nan)])
def test_evans_radii_that_cannot_hold_the_table_are_refused(R_max, R1):
    # the constant-flux table is built from R through R1 and R_max only
    # inside evans_for_triple, so its guard is the table's range check:
    # each case breaks one side of 0 < R < R1 < R_max < inf
    with pytest.raises(core.DomainError) as info:
        radial.evans_for_triple(EUC2, LAP2, ZERO, 1.0, R1, 0.1, R_max)
    assert str(info.value) == ("need 0 < R < R1 < R_max < inf, got R=1, "
                               f"R1={R1:g} and R_max={R_max:g}")


# the 12 manifold cases of the benchmark: B = 0 profiles are unbounded
# (an exhaustion exists) iff the manifold is p-parabolic, i.e. R^m at
# p >= m; hyperbolic space never is
@pytest.mark.parametrize("op", OPERATORS.values(), ids=OPERATORS.keys())
@pytest.mark.parametrize("tag,m", [("euclidean", 2), ("euclidean", 3),
                                   ("hyperbolic", 2), ("hyperbolic", 3)])
def test_evans_exhaustion_verdict(tag, m, op):
    M = core.manifold_from_tag(tag, m)
    if tag == "euclidean" and op.p >= m:
        res = radial.evans_for_triple(M, op, ZERO, R=1.0, R1=2.0, eps=0.1,
                                      R_max=60.0)
        assert res.exhaustion.verdict is Verdict.DIVERGES
        assert res.sup_on_annulus < 0.1
        assert np.all(np.diff(res.solution.z) > 0)
    else:
        with pytest.raises(radial.NoExhaustion) as info:
            radial.evans_for_triple(M, op, ZERO, R=1.0, R1=2.0, eps=0.1,
                                    R_max=60.0)
        assert info.value.divergence.verdict is Verdict.CONVERGES
        assert isinstance(info.value, radial.EvansFailure)


@pytest.mark.parametrize("R", [0.5, 1.0, 3.0])
def test_evans_exhaustion_matches_the_unit_scale_test(R):
    # the parabolicity test that evans_for_triple asks gives the verdict of
    # the slope test at c = 1 on 7 warpings x 6 operators
    wrong = []
    for tag, m in WARPINGS:
        M = core.manifold_from_tag(tag, m)
        for op in map(core.operator_from_tag, OPERATOR_TAGS):
            expected = exhaustion_at_unit_scale(M, op, R).verdict
            try:
                got = radial.evans_for_triple(M, op, ZERO, R=R, R1=R + 1.0,
                                              eps=0.1, R_max=60.0).exhaustion
            except radial.NoExhaustion as exc:
                got = exc.divergence
            if got.verdict is not expected:
                wrong.append((M.name, m, op.name, got.verdict.value,
                              expected.value))
    assert wrong == []


def test_evans_refuses_a_table_shorter_than_its_reach(tmp_path):
    # the Liouville test reads from R = 1 to its reach, 1e4, past the end
    # of the table at r = 100: evans refuses, as classify does, although
    # the table holds R_max
    M = plane_table(tmp_path)
    assert M.monotone
    with pytest.raises(core.DomainError,
                       match=r"radius beyond tabulated range \(max 100\.0\)"):
        radial.evans_for_triple(M, LAP2, ZERO, R=1.0, R1=2.0, eps=0.1,
                                R_max=60.0)
    with pytest.raises(core.DomainError, match="beyond tabulated range"):
        criteria.classify_parabolic(M, LAP2)


@pytest.mark.parametrize("tag", ["zero", "linear-power:p=2,lambda=1",
                                 "plateau:T=1,p=2"])
@pytest.mark.parametrize("R", [1e-3, 1e-2])
def test_evans_builds_from_a_small_radius(tag, R):
    # the march's first window is at most R wide and the B = 0 grid is
    # geometric from R, so [R, 2R] holds nodes of its own and the profile
    # increases from R
    pot = core.potential_from_tag(tag)
    res = radial.evans_for_triple(EUC2, LAP2, pot, R=R, R1=2.0 * R, eps=0.1,
                                  R_max=60.0)
    sol = res.solution
    assert sol.status == radial.COMPLETE and sol.r_max == 60.0
    assert np.all(np.diff(sol.z) > 0)
    assert np.count_nonzero((sol.grid >= R) & (sol.grid <= 2.0 * R)) >= 2
    # the profile is c mu R log(r/R) near R, exactly for B = 0
    log_profile = res.c_final * res.mu_final * R * math.log(2.0)
    if pot.kink == math.inf:
        assert res.sup_on_annulus == pytest.approx(log_profile, rel=1e-9)
    else:
        assert res.sup_on_annulus == pytest.approx(log_profile, rel=1e-4)


def test_evans_reads_to_the_classifiers_reach():
    # from R = 2e4 the Liouville test is classify's, on [1, R_MAX]: the
    # property is the whole manifold's, so a base radius past R_MAX
    # moves neither its range nor its verdict
    res = radial.evans_for_triple(EUC2, LAP2, ZERO, R=2e4, R1=4e4, eps=0.1,
                                  R_max=8e4)
    assert res.exhaustion == criteria.classify_KL(EUC2, LAP2, ZERO).divergence
    assert res.exhaustion.r_max == criteria.R_MAX
    assert res.solution.status == radial.COMPLETE
    assert res.solution.r_max == 8e4
    # the table grid spans 0.6 decades here: 80 nodes
    assert len(res.solution.grid) < 100


def test_evans_inconclusive_exhaustion_is_not_a_verdict():
    # on g = r log(e + r) the profile 1/(r log(e + r)) decays with a slope
    # that drifts toward the critical -1 from decade to decade
    r = np.geomspace(1e-3, 2e4, 3000)
    M = core.tabulated_manifold(r, r * np.log(math.e + r), 2)
    with pytest.raises(radial.NoExhaustion) as info:
        radial.evans_for_triple(M, LAP2, ZERO, R=1.0, R1=2.0, eps=0.1,
                                R_max=60.0)
    assert info.value.divergence.verdict is Verdict.INCONCLUSIVE
    # int r^(-1/(p-1)) at p = 1.95 decays like the steady power r^-1.05:
    # it converges, and no exhaustion exists
    with pytest.raises(radial.NoExhaustion) as info:
        radial.evans_for_triple(EUC2, core.p_laplacian_operator(1.95), ZERO,
                                R=1.0, R1=2.0, eps=0.1, R_max=60.0)
    assert info.value.divergence.verdict is Verdict.CONVERGES


# the paper's theorem: an exhaustion exists iff the Liouville property
# holds, so evans answers where classify does


def test_evans_answers_where_classify_does():
    counts = Counter()
    for tag, m, R_max in KL_WARPINGS:
        M = core.manifold_from_tag(tag, m)
        for p in (2, 3):
            op = core.p_laplacian_operator(float(p))
            for pot_tag in (f"linear-power:p={p},lambda=1",
                            f"plateau:T=1,p={p}"):
                pot = core.potential_from_tag(pot_tag)
                kl = criteria.classify_KL(M, op, pot).property
                case = (tag, m, p, pot_tag, kl.value)
                counts[kl] += 1
                if kl is criteria.PropertyTag.KL_HOLDS:
                    sol = radial.evans_for_triple(
                        M, op, pot, R=1.0, R1=2.0, eps=0.1,
                        R_max=R_max).solution
                    assert sol.status == radial.COMPLETE, case
                    assert sol.r_max == R_max, case
                    assert np.all(np.diff(sol.z) > 0), case
                else:
                    with pytest.raises(radial.NoExhaustion) as info:
                        radial.evans_for_triple(M, op, pot, R=1.0, R1=2.0,
                                                eps=0.1, R_max=R_max)
                    assert info.value.divergence.verdict is \
                        Verdict.CONVERGES, case
    assert counts == {criteria.PropertyTag.KL_HOLDS: 13,
                      criteria.PropertyTag.KL_FAILS: 11}
