"""Independent oracles shared by the unit and acceptance tests."""

import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from modelpot import criteria, obstacle, radial
from modelpot.core import (_GL_NODES, _GL_WEIGHTS, _ORIGIN_PANEL,
                           DomainError, geometric_grid, log_sphere_volume,
                           manifold_from_tag, phi_inverse, volume_ratio)
from modelpot.criteria import PropertyTag, Verdict


def _load_theory():
    """``perfbench/theory.py``, read-only: the facts live in one place."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "theory.py"
    spec = importlib.util.spec_from_file_location("theory", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("theory", module)
    spec.loader.exec_module(module)
    return module


theory = _load_theory()


def phi_inverse_brentq(op, y):
    """Scalar ``phi**-1(y)`` by Brent's method on a bracket widened from the
    pinching bounds until it holds the root; independent of the bisection
    in ``core.phi_inverse``."""
    if y == 0.0:
        return 0.0
    pe = 1.0 / (op.p - 1.0)
    lo = 0.5 * (y / op.a2) ** pe
    hi = 2.0 * (y / op.a1) ** pe
    for _ in range(200):      # brentq refuses a bracket that stays bad
        if float(op.phi(lo)) <= y and float(op.phi(hi)) >= y:
            break
        lo, hi = lo * 0.5, hi * 2.0
    return brentq(lambda t: float(op.phi(t)) - y, lo, hi,
                  xtol=1e-300, rtol=8.9e-16, maxiter=300)


# the scales of the comparison profiles, largest first
C_SWEEP = (1.0, 0.25, 0.0625, 0.015625)
# the warpings and operators on which the one-scale classifiers and the
# Evans exhaustion test are checked against the oracles below
WARPINGS = (("euclidean", 2), ("euclidean", 3), ("euclidean", 4),
            ("hyperbolic", 2), ("hyperbolic", 3),
            ("power-exp:alpha=2.2", 2), ("power-exp:alpha=3", 2))
OPERATOR_TAGS = tuple(f"{kind}:p={p:g}" for kind in ("p-laplacian",
                                                    "perturbed")
                      for p in (1.5, 2.0, 3.0))

# the paper's theorem as a matrix: the warpings on which classify, evans and
# khasminskii must answer alike, each with an evans R_max below the weight
# overflow of r e^{r^alpha}
KL_WARPINGS = [("euclidean", 2, 40.0), ("euclidean", 3, 40.0),
               ("hyperbolic", 2, 40.0), ("hyperbolic", 3, 40.0),
               ("power-exp:alpha=2.2", 2, 18.0),
               ("power-exp:alpha=3", 2, 8.0)]


def assert_slope_is_polyfit(rs, vals):
    """``criteria._slope`` against ``np.polyfit`` on the positive samples,
    to 1e-12 of the slope's scale: ``1 + |slope|`` plus the largest
    departure of ``log vals`` from its mean over the span of ``log rs``,
    which bounds what rounding in either least-squares fit can move.
    Fewer than half positive, or than 2, give NaN."""
    got = criteria._slope(rs, vals)
    mask = vals > 0
    if mask.sum() < max(len(rs) / 2, 2):
        assert math.isnan(got)
        return
    x, y = np.log(rs[mask]), np.log(vals[mask])
    expected = np.polyfit(x, y, 1)[0]
    scale = 1.0 + abs(expected) + np.abs(y - y.mean()).max() / np.ptp(x)
    assert abs(got - expected) <= 1e-12 * scale, (got, expected)


def classify_c_sweep(M, op, pot=None, r_max=criteria.R_MAX):
    """The property by the rule that samples the scale ``c``: the
    divergence test on the comparison profile at every ``c`` of
    ``C_SWEEP``.  It holds if every scale diverges, fails if the smallest
    converges, and is Inconclusive otherwise.  ``pot=None`` asks for
    parabolicity (``v_pa``); a potential asks for the Liouville property,
    which tests ``v_st`` for a potential without a kink and ``v_pa``
    for one that vanishes up to its kink."""
    if pot is None:
        holds, fails = PropertyTag.PARABOLIC, PropertyTag.NON_PARABOLIC
    else:
        holds, fails = PropertyTag.KL_HOLDS, PropertyTag.KL_FAILS
    if pot is not None and pot.kink is None:
        def profile(c, r):
            return criteria.v_st(M, op, c, 1.0, r)
    else:
        def profile(c, r):
            return criteria.v_pa(M, op, c, r)
    verdicts = [criteria.test_L1_at_infinity(
        lambda r, c=c: profile(c, r), 1.0, r_max).verdict for c in C_SWEEP]
    if all(v is Verdict.DIVERGES for v in verdicts):
        return holds
    if verdicts[-1] is Verdict.CONVERGES:
        return fails
    return PropertyTag.INCONCLUSIVE


def choose_mu(op, c):
    """The matched slope of the Evans sweep at scale ``c``, the largest
    that keeps the scaled initial flux ``phi(c mu)`` at ``c**(p-1)``:
    ``phi^-1(c**(p-1))/c`` from a Python float, the arithmetic of each
    row of ``radial._evans_heads``' block ``phi_inverse``."""
    return phi_inverse(op, c ** (op.p - 1.0)) / c


def constant_flux_profile(M, op, params, R_max, R1=None):
    """The ``B = 0`` radial solution from ``params`` in one pass, with no
    Picard iteration: the one row of ``(c, mu)`` of the Evans sweep's
    ``radial._ConstantFluxTable`` from ``R`` through ``R1`` (if given)
    and ``R_max``, plus ``theta``."""
    table = radial._ConstantFluxTable(
        M, params.R, [R_max] if R1 is None else [R1, R_max])
    (z,), (zp,) = table.rows(op, np.array([params.c]),
                             np.array([params.mu]))
    return radial.RadialSolution(grid=table.grid, z=params.theta + z, zp=zp,
                                 params=params, status=radial.COMPLETE,
                                 r_max=float(R_max))


def exhaustion_at_unit_scale(M, op, R):
    """Whether ``B = 0`` profiles from ``R`` are unbounded, decided on the
    constant-flux slope at ``c = 1``, ``phi^-1(phi(mu) w(R)/w)``: the
    divergence test from ``R`` to ``R_MAX``, whose verdict is that of the
    classifiers' test from 1."""
    flux = float(op.phi(choose_mu(op, 1.0)))

    def slope(r):
        with np.errstate(over="ignore"):
            y = flux * np.exp(log_sphere_volume(M, R)
                              - log_sphere_volume(M, r))
        return phi_inverse(op, y)

    return criteria.test_L1_at_infinity(slope, R)


def evans_eager_sweep(M, op, pot, R, R1, eps, R_max, nodes_per_window=64,
                      c_min=1e-12):
    """The scale sweep of ``radial.evans_for_triple`` with every scale
    built to ``R_max`` before its sup on the annulus is taken: by
    ``constant_flux_profile`` through ``R1`` at every node where ``c z``
    is at most ``T0``, the level below which ``B`` vanishes (the kink,
    ``inf`` for ``B = 0``, where one is set, else 0, with no table), and
    past the last of them by a full ``solve_cauchy`` from it, whose first
    node is the table's last.  Any blow-up status fails the sweep.  It
    asks no Liouville test, so its ``exhaustion`` is ``None``."""
    level = pot.kink or 0.0
    c = 1.0
    while c >= c_min:
        mu = choose_mu(op, c)
        params = radial.CauchyParams(R=R, theta=0.0, mu=mu, c=c)
        start, sol = params, None
        if level > 0:
            table = constant_flux_profile(M, op, params, R_max, R1=R1)
            keep = c * table.z <= level
            sol = replace(table, grid=table.grid[keep], z=table.z[keep],
                          zp=table.zp[keep])
            start = radial.CauchyParams(float(sol.grid[-1]), float(sol.z[-1]),
                                        float(sol.zp[-1]), c)
        if start.R < R_max:
            tail = radial.solve_cauchy(M, op, pot, start, R_max,
                                       nodes_per_window=nodes_per_window)
            sol = tail if sol is None else replace(
                tail, params=params, grid=np.append(sol.grid, tail.grid[1:]),
                z=np.append(sol.z, tail.z[1:]),
                zp=np.append(sol.zp, tail.zp[1:]))
        if sol.status == radial.BLOWUP:
            raise radial.EvansFailure(
                f"blow-up at c={c:g}, radius {sol.blowup_radius:g}")
        K_obs = radial._sup_on(sol.grid, sol.z, R, R1)
        if c * K_obs < eps:
            return radial.EvansResult(solution=sol, c_final=c, mu_final=mu,
                                      sup_on_annulus=c * K_obs,
                                      exhaustion=None,
                                      constant_flux_to=start.R)
        c *= 0.5
    raise radial.EvansFailure("no admissible scale above the floor")


def uniform_simpson_reference(n):
    """``K_n/12`` by explicit loops over Python integers: sub-interval
    ``j`` of ``n - 1`` weighs its triple's samples ``5, 8, -1`` from node
    ``j`` outwards, forward ``(j, j+1, j+2)`` if ``j`` is even and not the
    last, else backward ``(j+1, j, j-1)`` (scipy's cumulative Simpson rule
    on a uniform grid, over ``h/12``); two nodes are the trapezoid ``6,
    6``.  Row ``i`` sums the sub-intervals ``j < i``."""
    subs = []
    for j in range(n - 1):
        if n == 2:
            triple = {0: 6, 1: 6}
        elif j % 2 == 0 and j < n - 2:
            triple = {j: 5, j + 1: 8, j + 2: -1}
        else:
            triple = {j + 1: 5, j: 8, j - 1: -1}
        subs.append(triple)
    rows = []
    for i in range(n):
        row = [0] * n
        for triple in subs[:i]:
            for node, weight in triple.items():
                row[node] += weight
        rows.append(row)
    return np.array(rows, dtype=float) / 12.0


def volterra_apply_reference(M, op, pot, params, r_end, u):
    """One Picard application ``(T(u), T(u)')`` on the window
    ``np.linspace(R, r_end, len(u))``, as ``radial.volterra_apply``
    computes it, with every check and ``np.errstate`` inside each call and
    the rule ``h K_n/12`` from ``uniform_simpson_reference``: the oracle
    that the lean window pass must match bit for bit."""
    u = np.asarray(u, dtype=float)
    n = len(u)
    grid = np.linspace(params.R, r_end, n)
    L = log_sphere_volume(M, grid)
    simpson = (r_end - params.R) / (n - 1) * uniform_simpson_reference(n)
    with np.errstate(over="ignore", divide="ignore"):
        w = np.exp(L - L[0])        # relative to w(R), as the window's
        head = float(op.phi(params.c * params.mu)) / w
    if np.any(u < 0):
        raise DomainError("samples must be nonnegative")
    c = params.c
    with np.errstate(over="ignore", invalid="ignore"):
        flux = head + np.matmul(
            simpson, w * np.asarray(pot.B(c * u), dtype=float)) / w
        if not np.all(np.isfinite(flux)):
            raise radial.PicardNoConvergence(
                "flux overflow; shrink the interval")
        slope = phi_inverse(op, np.maximum(flux, 0.0))
        return (params.theta + np.maximum(np.matmul(simpson, slope), 0.0) / c,
                slope / c)


def count_picard_work(monkeypatch) -> dict:
    """Count, from now on, the Picard applications and the window solves,
    and those of them that fail, in a dict that the caller reads."""
    counts = {"applications": 0, "windows": 0, "failed": 0}
    apply, solve = radial.volterra_apply, radial.solve_on_interval

    def counted_apply(*args):
        counts["applications"] += 1
        return apply(*args)

    def counted_solve(*args, **kwargs):
        counts["windows"] += 1
        try:
            return solve(*args, **kwargs)
        except radial.PicardNoConvergence:
            counts["failed"] += 1
            raise

    monkeypatch.setattr(radial, "volterra_apply", counted_apply)
    monkeypatch.setattr(radial, "solve_on_interval", counted_solve)
    return counts


def volume_ratio_reference(M, r, R=0.0):
    """``core.volume_ratio`` with its recurrence over numpy scalars, one
    array element at a time, and its spacings from ``np.diff``: the
    oracle that the float recurrence must match bit for bit."""
    radii = np.asarray(r, dtype=float)
    least = float(np.min(radii, initial=R))
    top = float(np.max(radii, initial=R))
    if not (0 <= R <= least and top < math.inf):
        raise DomainError("volume_ratio requires finite r >= R >= 0")
    lo = R if R > 0 else float(np.min(radii, where=radii > 0,
                                      initial=_ORIGIN_PANEL))
    own = geometric_grid(lo, max(top, lo))[1:]
    asked = np.unique(radii[radii > 0])
    i = np.searchsorted(asked, own)
    gap = np.minimum(np.abs(own - asked[np.maximum(i - 1, 0)]),
                     np.abs(asked[np.minimum(i, len(asked) - 1)] - own))
    grid = np.unique(np.concatenate([[lo], own[gap > 1e-9 * own], asked]))
    L = log_sphere_volume(M, grid)
    rho = np.zeros(len(grid))
    if R == 0:
        rho[0] = lo * (_GL_WEIGHTS
                       @ np.exp(log_sphere_volume(M, lo * _GL_NODES) - L[0]))
    h = np.diff(grid)
    x = 0.25 * np.diff(L)
    x[x == 0.0] = 1e-300
    u = 1.0 + np.outer(np.expm1(-x), 1.0 - _GL_NODES)
    b, Lb = grid[1:, None], L[1:, None]
    t = b + (h / x)[:, None] * np.log(u)
    log_f = log_sphere_volume(M, t) - Lb + (x / h)[:, None] * (b - t)
    I = h * (-np.expm1(-x) / x) * (np.exp(log_f) @ _GL_WEIGHTS)
    decay = np.exp(-np.diff(L))
    for i in range(len(I)):
        rho[i + 1] = decay[i] * rho[i] + I[i]
    out = np.where(radii > R, rho[np.searchsorted(grid, radii)], 0.0)
    return float(out) if out.ndim == 0 else out


def qp_obstacle_oracle(prob, spec):
    """Exhaustive active-set solution of the p=2, lambda=0 obstacle problem.

    The energy is quadratic, so for every candidate contact interval the
    off-contact part solves a tridiagonal linear system; the unique KKT
    point among all candidates is the minimizer.  Only interval contact
    sets are enumerated, which covers concave (single-bump) obstacles.
    """
    if prob.p != 2.0 or prob.lam != 0.0:
        raise ValueError("oracle implemented for p=2, lambda=0 only")
    n = prob.n_nodes
    psi = np.asarray(spec.psi, dtype=float)
    # the absolute weights: the problem's are relative to exp(log_scale)
    scale = math.exp(prob.log_scale)
    k = scale * prob.edge_weights / prob.h  # spring stiffness per edge

    def solve_free(fixed_vals, free_idx):
        """Minimize over the free nodes with all others held fixed."""
        u = fixed_vals.copy()
        if len(free_idx) == 0:
            return u
        A = np.zeros((len(free_idx), len(free_idx)))
        b = np.zeros(len(free_idx))
        pos = {g: i for i, g in enumerate(free_idx)}
        for row, gi in enumerate(free_idx):
            A[row, row] = k[gi - 1] + k[gi]
            for gj, kk in ((gi - 1, k[gi - 1]), (gi + 1, k[gi])):
                if gj in pos:
                    A[row, pos[gj]] -= kk
                else:
                    b[row] += kk * u[gj]
        u[free_idx] = np.linalg.solve(A, b)
        return u

    base = np.empty(n)
    base[0] = spec.theta_left
    base[-1] = spec.theta_right
    base[1:-1] = psi
    interior = list(range(1, n - 1))

    candidates = [()]  # empty contact set
    for a in interior:
        for b in range(a, n - 1):
            candidates.append(tuple(range(a, b + 1)))

    best = None
    for contact in candidates:
        if any(not math.isfinite(psi[i - 1]) for i in contact):
            continue
        free = [i for i in interior if i not in contact]
        u = solve_free(base, free)
        # primal feasibility off the contact set
        finite = np.isfinite(psi)
        viol = psi[finite] - u[1:-1][finite]
        if np.any(viol > 1e-9):
            continue
        # dual feasibility on the contact set
        grad = scale * prob.gradient(u)
        if any(grad[i] < -1e-9 for i in contact):
            continue
        energy = scale * prob.energy(u)
        if best is None or energy < best[0] - 1e-15:
            best = (energy, u)
    if best is None:
        raise RuntimeError("oracle found no KKT point among interval "
                           "contact sets")
    return best[1]


def p_harmonic_profile(p, m, grid, theta_left, theta_right):
    """Closed-form radial profile with constant flux on g(r) = r.

    u(r) = A + C * integral r^((1-m)/(p-1)); normalized to the boundary
    values on [grid[0], grid[-1]].
    """
    e = (1.0 - m) / (p - 1.0)
    if abs(e + 1.0) < 1e-12:
        prim = np.log(grid)
    else:
        prim = grid ** (e + 1.0) / (e + 1.0)
    t = (prim - prim[0]) / (prim[-1] - prim[0])
    return theta_left + t * (theta_right - theta_left)


def random_bump_spec(prob, rng, theta_left=0.0, theta_right=1.0):
    """Feasible concave-bump obstacle spec on the problem's grid."""
    grid = prob.grid
    lo, hi = grid[0], grid[-1]
    center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
    width = rng.uniform(0.05, 0.4) * (hi - lo)
    height = rng.uniform(0.2, 0.9) * max(theta_left, theta_right)
    psi = height - ((grid[1:-1] - center) / width) ** 2
    return obstacle.ObstacleSpec(psi=psi, theta_left=theta_left,
                                 theta_right=theta_right)


def stage_grid_reference(K_radius, Omega_radius, radii, nodes_per_stage):
    """The staged pipeline's master grid one stage at a time: a
    ``geomspace`` from each control radius to the next, concatenated and
    made unique.  ``obstacle._construct_grid`` builds every stage in one
    pass, and equals it bit for bit."""
    ends = [K_radius, Omega_radius] + list(radii)
    return np.unique(np.concatenate(
        [np.geomspace(lo, hi, nodes_per_stage)
         for lo, hi in zip(ends[:-1], ends[1:])]))


def unit_solutions(M, p, lam, grid, radii):
    """Stage 0 of the staged pipeline: the unit boundary-value problems on
    ``[K, rho_j]``, each extended by 1 to the whole grid.  At lambda > 0
    each is Newton's from its linear start: ``solve_dirichlet`` starts at
    the forward sweep's answer, which is what this checks."""
    h_funcs = []
    for r in radii:
        k = int(np.searchsorted(grid, r))
        sub = obstacle.make_problem(M, p, lam, grid[:k + 1])
        spec = obstacle.ObstacleSpec.dirichlet(k + 1, 0.0, 1.0)
        solve = obstacle._projected_newton if lam > 0 else \
            obstacle.solve_obstacle
        hj = solve(sub, spec).values
        h_funcs.append(np.concatenate([hj, np.ones(len(grid) - k - 1)]))
    return h_funcs


def stage_candidates(M, p, lam, grid, radii, h_funcs, w, n):
    """Every stage-``n`` candidate from the profile ``w``: the obstacle
    problem on ``[K, rho_{j+1}]`` with obstacle ``w + h_j`` and boundary
    ``n + 1``, extended by ``n + 1``.  Returns ``(increment, profile)`` in
    ``j`` order; the increment is the rise over ``w`` on ``[K, rho_n]``."""
    idx_n = int(np.searchsorted(grid, radii[n]))
    out = []
    for j in range(len(radii) - 1):
        k = int(np.searchsorted(grid, radii[j + 1]))
        sub = obstacle.make_problem(M, p, lam, grid[:k + 1])
        spec = obstacle.ObstacleSpec(psi=(w + h_funcs[j])[1:k],
                                     theta_left=0.0,
                                     theta_right=float(n + 1))
        if lam == 0:
            s_j = obstacle.solve_obstacle(sub, spec).values
        else:
            s_j = obstacle._projected_newton(
                sub, spec, initial=(n + 1.0) * h_funcs[j + 1][:k + 1]).values
        full = np.concatenate([s_j, np.full(len(grid) - k - 1, n + 1.0)])
        out.append((float(np.max((full - w)[:idx_n + 1])), full))
    return out


@dataclass(frozen=True)
class CandidateSweep:
    n_stages: int
    budget_used: tuple
    h_funcs: list
    w0: np.ndarray            # the stage-0 profile the stages start from


def khasminskii_candidate_sweep(M, p, lam, K_radius, Omega_radius, eps,
                                radii, nodes_per_stage=48):
    """The stages of the staged pipeline, each chosen by sampling: every
    candidate of ``stage_candidates`` is solved and the first least
    increment wins (ties within 1e-14).  A reference for the stages of
    ``khasminskii_construct`` where it builds a potential, whose
    closed-form stage ``w + h_{N-1}`` solves the whole-grid candidate, the
    least one by the comparison principle."""
    radii = np.asarray(radii, dtype=float)
    grid = obstacle._construct_grid(K_radius, Omega_radius, radii,
                                    nodes_per_stage)
    h_funcs = unit_solutions(M, p, lam, grid, radii)
    idx_rho1 = int(np.searchsorted(grid, radii[0]))
    sups = [float(np.max(h[:idx_rho1 + 1])) for h in h_funcs]
    j_star = next((j for j, s in enumerate(sups) if s <= eps / 2.0),
                  len(radii) - 1)
    w0 = h_funcs[j_star]
    w = w0
    increments = [sups[j_star]]
    for n in range(1, len(radii) - 1):
        best_inc, best = math.inf, None
        for inc, full in stage_candidates(M, p, lam, grid, radii, h_funcs,
                                          w, n):
            if inc < best_inc - 1e-14:
                best_inc, best = inc, full
        # the closed-form stage rises by max h_{N-1} <= 1, a bound on
        # the least candidate
        assert best_inc < 1.0 + 1e-9
        w = best
        increments.append(best_inc)

    sigma = 1.0
    for n, inc in enumerate(increments, start=1):
        if inc > 0:
            sigma = min(sigma, (eps / 2.0 ** n) / inc)
    w_omega = float(np.max(w[:int(np.searchsorted(grid, Omega_radius)) + 1]))
    if w_omega > 0:
        sigma = min(sigma, eps / w_omega)
    return CandidateSweep(len(radii) - 1,
                          tuple(sigma * inc for inc in increments), h_funcs,
                          w0)


# ---------------------------------------------------------------------------
# cross-checks that no command runs


def p_laplacian_criteria(M, p, r_max=criteria.R_MAX):
    """Volume-form specializations for ``phi(t) = t**(p-1)``.

    Returns ``(stochastic_type, parabolic_type)`` verdicts for the
    integrands ``(vol(B_r)/vol(dB_r))**(1/(p-1))`` and
    ``vol(dB_r)**(-1/(p-1))``.
    """
    if p <= 1:
        raise DomainError("p_laplacian_criteria requires p > 1")
    e = 1.0 / (p - 1.0)

    def ratio_integrand(r):
        return volume_ratio(M, r, 0.0) ** e

    def surface_integrand(r):
        return np.exp(-e * log_sphere_volume(M, r))

    st = criteria.test_L1_at_infinity(ratio_integrand, 1.0, r_max)
    pa = criteria.test_L1_at_infinity(surface_integrand, 1.0, r_max)
    return st, pa


def ode_residual(M, op, pot, sol):
    """Max normalized defect of the flux-form equation at interior nodes."""
    if sol.status != radial.COMPLETE:
        raise DomainError("residual is defined for completed solutions")
    r, z, zp = sol.grid, sol.z, sol.zp
    c = sol.params.c
    w = np.exp(log_sphere_volume(M, r))
    flux = w * np.asarray(op.phi(c * zp), dtype=float)
    dflux = (flux[2:] - flux[:-2]) / (r[2:] - r[:-2])
    rhs = (w * np.asarray(pot.B(c * z), dtype=float))[1:-1]
    return float(np.max(np.abs(dflux - rhs) / (1.0 + rhs)))


def is_subsolution(prob, u, tol=1e-8):
    """The absolute residual is at most ``tol`` at every interior node."""
    res = math.exp(prob.log_scale) * prob.residual(u)[1:-1]
    worst = int(np.argmax(res))
    return obstacle.SupersolutionCheck(bool(res[worst] <= tol), worst + 1,
                                       float(res[worst]))


def comparison_check(prob, w, s, tol=1e-8):
    """Ordered boundary data and super/sub structure force ``w >= s``, for
    node value arrays ``w`` and ``s``.

    A failure indicates a solver bug, not an unfortunate input.
    """
    cw = obstacle.is_supersolution(prob, w)
    cs = is_subsolution(prob, s, tol=max(tol, 1e-6))
    if not cw.ok:
        raise DomainError(
            f"first argument is not a supersolution (node "
            f"{cw.worst_node}, residual {cw.worst_residual:.3e})")
    if not cs.ok:
        raise DomainError(
            f"second argument is not a subsolution (node "
            f"{cs.worst_node}, residual {cs.worst_residual:.3e})")
    if w[0] < s[0] - tol or w[-1] < s[-1] - tol:
        raise DomainError("boundary values are not ordered")
    return bool(np.all(w >= s - tol))


def pasting_min(prob, w1, w2, start):
    """Pointwise minimum of a global supersolution ``w1`` and one ``w2``
    living on the subgrid ``start .. start+len(w2)-1``, extended by the
    global one: node value arrays in, node value array out.

    Junction values must agree to 1e-8; the kinks introduced by the min
    keep the supersolution sign of the defect, which callers verify with
    ``is_supersolution``.
    """
    stop = start + len(w2)
    if start < 0 or stop > prob.n_nodes:
        raise ValueError("subinterval out of range")
    if start > 0 and abs(w1[start] - w2[0]) > 1e-8:
        raise DomainError(
            f"junction mismatch at node {start}: "
            f"{w1[start]:.6g} vs {w2[0]:.6g}")
    if stop < prob.n_nodes and abs(w1[stop - 1] - w2[-1]) > 1e-8:
        raise DomainError(
            f"junction mismatch at node {stop - 1}: "
            f"{w1[stop - 1]:.6g} vs {w2[-1]:.6g}")
    out = w1.copy()
    out[start:stop] = np.minimum(w1[start:stop], w2)
    return out


def structural_property_failures(seed, lam_scale, n_trials=1000):
    """Failures of comparison, minimality, off-contact stationarity and
    pasting over ``n_trials`` trials on a pool of 100 randomized p = 2
    obstacle problems on euclidean m = 2, 3, with lambda drawn from
    ``lam_scale * U(0, 1)``."""
    rng = np.random.default_rng(seed)
    M = {2: manifold_from_tag("euclidean", 2),
         3: manifold_from_tag("euclidean", 3)}
    failures = {"comparison": 0, "minimality": 0, "stationarity": 0,
                "pasting": 0}

    # pools of randomized solved problems, reused across the four suites
    pool = []
    for _ in range(100):
        m = int(rng.choice([2, 3]))
        lam = lam_scale * float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(14, 24))
        lo = float(rng.uniform(0.5, 1.5))
        hi = lo + float(rng.uniform(0.5, 1.5))
        prob = obstacle.make_problem(M[m], 2.0, lam,
                                     np.linspace(lo, hi, n))
        tl = float(rng.uniform(0.0, 0.5))
        tr = float(rng.uniform(0.5, 1.5))
        spec = random_bump_spec(prob, rng, tl, tr)
        sol = obstacle.solve_obstacle(prob, spec)
        pool.append((M[m], prob, spec, sol))

    for k in range(n_trials):
        manifold, prob, spec, sol = pool[k % len(pool)]

        # (a) comparison on ordered boundary data
        shift = float(rng.uniform(0.05, 0.5))
        sup = obstacle.solve_dirichlet(prob, spec.theta_left + shift,
                                       spec.theta_right + shift)
        sub = obstacle.solve_dirichlet(prob, spec.theta_left,
                                       spec.theta_right)
        if not comparison_check(prob, sup.values, sub.values, tol=1e-7):
            failures["comparison"] += 1

        # (b) minimality against randomized feasible competitors, in the
        # absolute energy: the problem's weights are relative to its
        # largest, exp(log_scale)
        scale = math.exp(prob.log_scale)
        bump = np.abs(rng.standard_normal(prob.n_nodes)) * 0.2
        bump[0] = bump[-1] = 0.0
        competitor = np.maximum(sol.values + bump, sol.values)
        if scale * prob.energy(sol.values) > \
                scale * prob.energy(competitor) + 1e-12:
            failures["minimality"] += 1

        # (c) off-contact stationarity of the absolute residual, off the
        # nodes within 1e-9 max|u| of the obstacle, and no violation
        inner = sol.values[1:-1]
        res = scale * prob.residual(sol.values)[1:-1]
        off = inner > spec.psi + 1e-9 * np.max(np.abs(sol.values))
        stat = float(np.max(np.abs(res[off]), initial=0.0))
        viol = float(np.max(spec.psi - inner))
        if stat > 1e-8 or viol > 0.0:
            failures["stationarity"] += 1

        # (d) pasted minima stay supersolutions
        i = int(rng.integers(1, prob.n_nodes // 2))
        j = int(rng.integers(i + 3, prob.n_nodes - 1))
        subp = obstacle.make_problem(manifold, prob.p, prob.lam,
                                     prob.grid[i:j + 1])
        psi2 = sol.values[i + 1:j] + rng.uniform(0.0, 0.2)
        spec2 = obstacle.ObstacleSpec(psi=psi2,
                                      theta_left=float(sol.values[i]),
                                      theta_right=float(sol.values[j]))
        w2 = obstacle.solve_obstacle(subp, spec2)
        pasted = pasting_min(prob, sol.values, w2.values, i)
        if not obstacle.is_supersolution(prob, pasted).ok:
            failures["pasting"] += 1
    return failures
