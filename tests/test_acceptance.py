"""Acceptance suite: eleven end-to-end criteria, each reporting a single
pass/fail line on the real stdout (bypassing capture) so the verdicts are
visible in batch logs."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import conftest
from modelpot import cli, core, criteria, obstacle, radial
from modelpot.criteria import PropertyTag, Verdict
from oracles import (p_harmonic_profile, p_laplacian_criteria,
                     phi_inverse_brentq, qp_obstacle_oracle,
                     structural_property_failures)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def slope_is_conclusive(dv):
    """Fitted slope clears the inconclusive band around the critical -1:
    divergent fits sit at or above the critical line (band tolerance),
    convergent fits at least the 0.15 margin below it."""
    if dv.verdict is Verdict.DIVERGES:
        return math.isnan(dv.slope_estimate) or dv.slope_estimate >= -1.01
    if dv.verdict is Verdict.CONVERGES:
        return dv.slope_estimate <= -1.15
    return False


def test_acceptance_01_classifier_truth_table():
    t0 = time.perf_counter()
    table = [("euclidean", 2, 2.0, PropertyTag.PARABOLIC),
             ("euclidean", 3, 3.0, PropertyTag.PARABOLIC),
             ("euclidean", 3, 2.0, PropertyTag.NON_PARABOLIC),
             ("hyperbolic", 3, 2.0, PropertyTag.NON_PARABOLIC)]
    ok = True
    for tag, m, p, expected in table:
        M = core.manifold_from_tag(tag, m)
        cls = criteria.classify_parabolic(M, core.p_laplacian_operator(p))
        ok &= cls.property is expected
        ok &= slope_is_conclusive(cls.divergence)
    op2 = core.p_laplacian_operator(2.0)
    pot = core.linear_power_potential(2.0, 1.0)
    kl1 = criteria.classify_KL(core.manifold_from_tag("euclidean", 3),
                               op2, pot)
    ok &= kl1.property is PropertyTag.KL_HOLDS
    ok &= slope_is_conclusive(kl1.divergence)
    kl2 = criteria.classify_KL(core.manifold_from_tag("power-exp:alpha=3", 2),
                               op2, pot)
    ok &= kl2.property is PropertyTag.KL_FAILS
    ok &= slope_is_conclusive(kl2.divergence)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(1, "classifier truth table", ok, f"{elapsed:.1f}s")


def test_acceptance_02_criteria_cross_consistency():
    cases = [("euclidean", 2), ("euclidean", 3),
             ("hyperbolic", 3), ("power-exp:alpha=3", 2)]
    mism = 0
    for p in (1.5, 2.0, 3.0):
        op = core.p_laplacian_operator(p)
        for tag, m in cases:
            M = core.manifold_from_tag(tag, m)
            st, pa = p_laplacian_criteria(M, p)
            gen_pa = criteria.classify_parabolic(M, op).divergence.verdict
            pot = core.linear_power_potential(p, 1.0)
            gen_st = criteria.classify_KL(M, op, pot).divergence.verdict
            mism += (gen_pa is not pa.verdict) + (gen_st is not st.verdict)
    report(2, "criteria cross-consistency", mism == 0,
           f"{mism} mismatches over 24 comparisons")


def test_acceptance_03_growth_condition_two_forms():
    bad = 0
    for p in (1.5, 2.0, 3.0):
        op = core.p_laplacian_operator(p)
        for pot, q in [(core.linear_power_potential(p, 1.0), p - 1.0),
                       (core.superlinear_potential(p - 0.5), p - 0.5),
                       (core.plateau_potential(1.0, p), p - 1.0)]:
            res = criteria.keller_osserman(op, pot)
            expected = "NotKO_holds" if q <= p - 1.0 else "NotKO_fails"
            if res.verdict != expected or \
                    res.form_primitive is not res.form_simple:
                bad += 1
    report(3, "growth-condition two-form agreement", bad == 0,
           f"{bad} bad cases of 9")


def test_acceptance_04_radial_solver_vs_closed_form():
    worst_err, worst_time = 0.0, 0.0
    for op in (core.p_laplacian_operator(2.0), core.p_laplacian_operator(3.0),
               core.perturbed_operator(2.0)):
        M = core.manifold_from_tag("euclidean", 2)
        params = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=1.0)
        t0 = time.perf_counter()
        sol = radial.solve_cauchy(M, op, core.zero_potential(), params, 10.0,
                                  nodes_per_window=251)   # 4001 nodes total
        worst_time = max(worst_time, time.perf_counter() - t0)
        y0 = np.exp(core.log_sphere_volume(M, 1.0)) * float(op.phi(1.0))
        idx = np.linspace(0, len(sol.grid) - 1, 40).astype(int)
        exact = [quad(
            lambda s: phi_inverse_brentq(
                op, y0 / np.exp(core.log_sphere_volume(M, s))),
            1.0, r, epsabs=1e-10, epsrel=1e-8, limit=200)[0]
            for r in sol.grid[idx]]
        worst_err = max(worst_err, float(np.max(np.abs(sol.z[idx] - exact))))
    ok = worst_err <= 1e-6 and worst_time < 1.0
    report(4, "radial solver vs closed form", ok,
           f"sup-err {worst_err:.2e}, {worst_time * 1e3:.0f} ms/case")


def test_acceptance_05_radial_solver_vs_ode_oracle():
    worst = 0.0
    for m in (2, 3):
        M = core.manifold_from_tag("euclidean", m)
        op = core.p_laplacian_operator(2.0)
        pot = core.linear_power_potential(2.0, 1.0)
        params = radial.CauchyParams(R=1.0, theta=0.2, mu=1.0, c=0.5)
        sol = radial.solve_cauchy(M, op, pot, params, 10.0,
                                  nodes_per_window=256)

        def rhs(r, y, m=m):
            z, flux = y
            w = r ** (m - 1)
            return [phi_inverse_brentq(op, flux / w) / params.c,
                    w * float(pot.B(params.c * z))]

        ivp = solve_ivp(rhs, (1.0, 10.0),
                        [params.theta, float(op.phi(params.c * params.mu))],
                        rtol=1e-11, atol=1e-13, dense_output=True)
        worst = max(worst, float(np.max(np.abs(sol.z - ivp.sol(sol.grid)[0]))))
    report(5, "radial solver vs adaptive ODE oracle", worst <= 1e-5,
           f"sup-err {worst:.2e}")


def test_acceptance_06_blowup_dichotomy():
    M = core.manifold_from_tag("euclidean", 2)
    op = core.p_laplacian_operator(2.0)
    fast = core.superlinear_potential(5.0)
    params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
    rhos = []
    for nodes in (64, 128):
        sol = radial.solve_cauchy(M, op, fast, params, 100.0,
                                  nodes_per_window=nodes)
        if sol.status != radial.BLOWUP:
            report(6, "blow-up dichotomy", False, "no blow-up detected")
        rhos.append(sol.blowup_radius)
    stable = abs(rhos[1] - rhos[0]) <= 0.02 * rhos[0]
    slow = core.linear_power_potential(2.0, 1.0)
    complete = True
    for c in (1.0, 0.5, 0.25):
        p2 = radial.CauchyParams(R=1.0, theta=0.0, mu=1.0, c=c)
        sol = radial.solve_cauchy(M, op, slow, p2, 100.0,
                                  blowup_threshold=1e50)
        complete &= sol.status == radial.COMPLETE and \
            sol.r_max == pytest.approx(100.0)
    report(6, "blow-up dichotomy", stable and complete,
           f"rho {rhos[0]:.4f} vs {rhos[1]:.4f}; linear case complete(100): "
           f"{complete}")


def test_acceptance_07_exhaustion_triple_contract():
    M = core.manifold_from_tag("euclidean", 2)
    op = core.p_laplacian_operator(2.0)
    res = radial.evans_for_triple(M, op, core.zero_potential(),
                                  R=1.0, R1=2.0, eps=0.1, R_max=60.0)
    w = res.c_final * res.solution.z
    grid = res.solution.grid
    w50 = w[np.searchsorted(grid, 50.0)]
    w2 = w[np.searchsorted(grid, 2.0)]
    expected = res.c_final * np.log(grid)
    rel = float(np.max(np.abs(w - expected)) / np.max(expected))
    ok = res.sup_on_annulus < 0.1 and w50 > 5.0 * w2 and rel < 0.01
    report(7, "exhaustion triple contract", ok,
           f"sup {res.sup_on_annulus:.3f}, growth x{w50 / w2:.1f}, "
           f"profile rel-err {rel:.2e}")


def test_acceptance_08_obstacle_solver_vs_brute_force():
    M3 = core.manifold_from_tag("euclidean", 3)
    prob = obstacle.make_problem(M3, 2.0, 0.0, np.linspace(1.0, 2.0, 40))
    spec = obstacle.ObstacleSpec(
        psi=0.9 - ((prob.grid[1:-1] - 1.4) / 0.25) ** 2,
        theta_left=0.0, theta_right=1.0)
    sol = obstacle.solve_obstacle(prob, spec)
    ref = qp_obstacle_oracle(prob, spec)
    err = float(np.max(np.abs(sol.values - ref)))
    contact_match = np.array_equal(sol.values[1:-1] <= spec.psi + 1e-6,
                                   ref[1:-1] <= spec.psi + 1e-6)

    M2 = core.manifold_from_tag("euclidean", 2)
    errs = []
    for n in (26, 51, 101, 201):
        pr = obstacle.make_problem(M2, 3.0, 0.0, np.linspace(1.0, 2.0, n))
        dl = obstacle.solve_dirichlet(pr, 0.0, 1.0)
        exact = p_harmonic_profile(3.0, 2, pr.grid, 0.0, 1.0)
        errs.append(float(np.max(np.abs(dl.values - exact))))
    order = max(math.log(errs[i] / errs[i + 1]) / math.log(2.0)
                for i in range(3))
    ok = err <= 1e-6 and contact_match and order >= 1.8
    report(8, "obstacle solver vs brute force", ok,
           f"QP err {err:.2e}, contact match {contact_match}, "
           f"order {order:.2f}")


def test_acceptance_09_structural_property_suite():
    n_trials = 1000
    failures = structural_property_failures(20260824, 1.0, n_trials)
    total = sum(failures.values())
    report(9, "structural property suite", total == 0,
           f"{n_trials} trials/property, failures {failures}")


def test_acceptance_10_staged_pipeline_dichotomy():
    t0 = time.perf_counter()
    eps = 0.1
    radii = [4.0, 8.0, 16.0, 32.0]
    rep2 = obstacle.khasminskii_construct(
        core.manifold_from_tag("euclidean", 2), 2.0, 0.0,
        K_radius=1.0, Omega_radius=2.0, eps=eps, exhaustion_radii=radii)
    built = rep2.verdict == "PotentialBuilt"
    budget_ok = sum(rep2.budget_used) <= eps + 1e-12
    on_omega = rep2.w.problem.grid <= 2.0
    small_ok = float(np.max(rep2.w.values[on_omega])) <= eps + 1e-12
    rep3 = obstacle.khasminskii_construct(
        core.manifold_from_tag("euclidean", 3), 2.0, 0.0,
        K_radius=1.0, Omega_radius=2.0, eps=eps, exhaustion_radii=radii)
    nonzero = rep3.verdict == "HLimitNonzero" and rep3.h_limit_sup >= 0.4
    elapsed = time.perf_counter() - t0
    ok = built and budget_ok and small_ok and nonzero and elapsed < 60.0
    report(10, "staged pipeline dichotomy", ok,
           f"built={built}, sum budget {sum(rep2.budget_used):.3f}, "
           f"h_limit {rep3.h_limit_sup:.2f}, {elapsed:.1f}s")


def test_acceptance_11_cli_determinism(tmp_path):
    commands = [
        ["classify", "--set", "manifold=euclidean", "--set", "m=2"],
        ["evans", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "R=1", "--set", "R1=2", "--set", "eps=0.1",
         "--rmax", "60"],
        ["khasminskii", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "K_radius=1", "--set", "Omega_radius=2",
         "--set", "eps=0.1", "--set", "radii=4,8,16,32"],
        ["obstacle", "--set", "manifold=euclidean", "--set", "m=3",
         "--set", "r_min=1", "--set", "r_max=2", "--set", "n_nodes=61",
         "--set", "obstacle=bump:height=0.8,center=1.4,width=0.1"],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        o1 = tmp_path / f"{idx}_a.csv"
        o2 = tmp_path / f"{idx}_b.csv"
        c1 = cli.main(argv + ["--out", str(o1)])
        c2 = cli.main(argv + ["--out", str(o2)])
        ok &= c1 == c2 and o1.read_bytes() == o2.read_bytes()
    report(11, "CLI determinism", ok, "4 commands, byte-identical reruns")
