"""Independent oracles shared by the unit and acceptance tests."""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from modelpot import criteria, obstacle, radial
from modelpot.core import DomainError, phi_inverse, sphere_volume
from modelpot.criteria import OperatorTypeTag, PropertyTag, Verdict


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


def classify_c_sweep(M, op, pot=None, cfg=criteria.DEFAULT_DIVERGENCE,
                     R0=1.0):
    """The property by the rule that samples the scale ``c``: the
    divergence test on the comparison profile at every ``c`` of
    ``C_SWEEP``.  It holds if every scale diverges, fails if the smallest
    converges, and is Inconclusive otherwise.  ``pot=None`` asks for
    parabolicity (``v_pa``); a potential asks for the Liouville property,
    which tests ``v_st`` for a Type 1 potential and ``v_pa`` otherwise."""
    if pot is None:
        holds, fails = PropertyTag.PARABOLIC, PropertyTag.NON_PARABOLIC
    else:
        holds, fails = PropertyTag.KL_HOLDS, PropertyTag.KL_FAILS
    if pot is not None and \
            criteria.classify_operator_type(pot).tag is OperatorTypeTag.TYPE1:
        def profile(c, r):
            return criteria.v_st(M, op, c, R0, r)
    else:
        def profile(c, r):
            return criteria.v_pa(M, op, c, r)
    verdicts = [criteria.test_L1_at_infinity(
        lambda r, c=c: profile(c, r), R0, cfg).verdict for c in C_SWEEP]
    if all(v is Verdict.DIVERGES for v in verdicts):
        return holds
    if verdicts[-1] is Verdict.CONVERGES:
        return fails
    return PropertyTag.INCONCLUSIVE


def exhaustion_at_unit_scale(M, op, R):
    """Whether ``B = 0`` profiles from ``R`` are unbounded, decided on the
    slope of ``radial.constant_flux_profile`` at ``c = 1``,
    ``phi^-1(w(R)/w)``: the divergence test up to its ``r_max`` or the
    end of a table."""
    cfg = replace(criteria.DEFAULT_DIVERGENCE,
                  r_max=min(criteria.DEFAULT_DIVERGENCE.r_max,
                            M.r_max_valid))
    params = radial.CauchyParams(R=R, theta=0.0,
                                 mu=radial.choose_mu(op, 1.0), c=1.0)
    return criteria.test_L1_at_infinity(
        lambda r: radial._constant_flux_slope(M, op, params, r), R, cfg)


def evans_eager_sweep(M, op, pot, R, R1, eps, R_max, blowup_threshold=1e8,
                      nodes_per_window=64, c_min=1e-12):
    """The ``B != 0`` scale sweep of ``radial.evans_for_triple`` with every
    scale marched to ``R_max`` by a full ``solve_cauchy`` before its sup on
    the annulus is taken.  Any blow-up status fails the sweep."""
    c = 1.0
    while c >= c_min:
        mu = radial.choose_mu(op, c)
        params = radial.CauchyParams(R=R, theta=0.0, mu=mu, c=c)
        sol = radial.solve_cauchy(M, op, pot, params, R_max,
                                  blowup_threshold=blowup_threshold,
                                  nodes_per_window=nodes_per_window)
        if sol.status == radial.BLOWUP:
            raise radial.EvansFailure(
                f"blow-up at c={c:g}", blowup_radius=sol.blowup_radius)
        K_obs = sol.sup_on(R, R1)
        if c * K_obs < eps:
            return radial.EvansResult(solution=sol, c_final=c, mu_final=mu,
                                      sup_on_annulus=c * K_obs,
                                      K_bound=K_obs)
        c *= 0.5
    raise radial.EvansFailure("no admissible scale above the floor")


class _ReferenceSimpson:
    """The cumulative Simpson rule of ``radial`` before its index arrays
    were cached per node count, verbatim."""

    def __init__(self, x):
        h = np.diff(x)
        if not (h > 0).all():
            raise ValueError("grid must be strictly increasing")
        self.h = h
        if len(h) < 2:
            return
        j = np.arange(len(h))
        fwd = np.zeros(len(h), dtype=bool)
        fwd[:-1:2] = True
        h1, h2 = h, h[np.where(fwd, j + 1, j - 1)]
        r31 = h1 / (h1 + h2)
        r32 = r31 * (h1 / h2)
        self.a, self.p, self.q, self.s = h1 / 6, 3 - r31, 3 + r32 + r31, r32
        self.nodes = j + np.where(fwd, [[0], [1], [2]], [[1], [0], [-1]])

    def __call__(self, y):
        out = np.zeros(len(self.h) + 1)
        if len(self.h) < 2:
            sub = self.h * (y[1:] + y[:-1]) / 2.0
        else:
            y0, y1, y2 = y[self.nodes]
            sub = self.a * ((self.p * y0 + self.q * y1) - self.s * y2)
        np.cumsum(sub, out=out[1:])
        return out


def volterra_apply_reference(M, op, pot, params, grid, u):
    """One Picard application ``(T(u), T(u)')`` as ``radial.volterra_apply``
    computed it with every check and ``np.errstate`` inside each call,
    verbatim: the oracle that the lean window pass must match bit for
    bit."""
    grid = np.asarray(grid, dtype=float)
    w = sphere_volume(M, grid)
    cumint = _ReferenceSimpson(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        head = w[0] * float(op.phi(params.c * params.mu)) / w
    u = np.asarray(u, dtype=float)
    if grid.shape != u.shape:
        raise ValueError("grid and samples must have matching shapes")
    if np.any(u < 0):
        raise DomainError("samples must be nonnegative")
    c = params.c
    with np.errstate(over="ignore", invalid="ignore"):
        flux = head + cumint(w * np.asarray(pot(c * u), dtype=float)) / w
        if not np.all(np.isfinite(flux)):
            raise radial.PicardNoConvergence(
                "flux overflow; shrink the interval")
        slope = phi_inverse(op, np.maximum(flux, 0.0))
        return (params.theta + np.maximum(cumint(slope), 0.0) / c,
                slope / c)


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
    k = prob.edge_weights / prob.h          # spring stiffness per edge

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
        grad = prob.gradient(u)
        if any(grad[i] < -1e-9 for i in contact):
            continue
        energy = prob.energy(u)
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


def unit_solutions(M, p, lam, grid, radii):
    """Stage 0 of the staged pipeline: the unit boundary-value problems on
    ``[K, rho_j]``, each extended by 1 to the whole grid."""
    h_funcs = []
    for r in radii:
        k = int(np.searchsorted(grid, r))
        sub = obstacle.make_problem(M, p, lam, grid[:k + 1])
        hj = obstacle.solve_dirichlet(sub, 0.0, 1.0).values
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
        s_j = obstacle.solve_obstacle(
            sub, spec, initial=(n + 1.0) * h_funcs[j + 1][:k + 1]).values
        full = np.concatenate([s_j, np.full(len(grid) - k - 1, n + 1.0)])
        out.append((float(np.max((full - w)[:idx_n + 1])), full))
    return out


@dataclass(frozen=True)
class CandidateSweep:
    verdict: str
    n_stages: int
    budget_used: tuple
    h_funcs: list
    w0: np.ndarray            # the stage-0 profile the stages start from


def khasminskii_candidate_sweep(M, p, lam, K_radius, Omega_radius, eps,
                                radii, tol=1e-3, nodes_per_stage=48):
    """The staged pipeline choosing each stage by sampling: every candidate
    of ``stage_candidates`` is solved and the first least increment wins
    (ties within 1e-14).  A reference for ``khasminskii_construct``, whose
    single whole-grid solve per stage the comparison principle makes the
    least candidate."""
    radii = np.asarray(radii, dtype=float)
    grid = obstacle._construct_grid(K_radius, Omega_radius, radii,
                                    nodes_per_stage)
    h_funcs = unit_solutions(M, p, lam, grid, radii)
    idx_rho1 = int(np.searchsorted(grid, radii[0]))
    sups = [float(np.max(h[:idx_rho1 + 1])) for h in h_funcs]
    _, intercept = np.polyfit(1.0 / np.log(radii / K_radius), sups, 1)
    j_star = next((j for j, s in enumerate(sups) if s <= eps / 2.0),
                  len(radii) - 1)
    w0 = h_funcs[j_star]
    if max(float(intercept), 0.0) > 10.0 * tol:
        return CandidateSweep("HLimitNonzero", 0, (), h_funcs, w0)

    w = w0
    increments = [sups[j_star]]
    for n in range(1, len(radii) - 1):
        best_inc, best = math.inf, None
        for inc, full in stage_candidates(M, p, lam, grid, radii, h_funcs,
                                          w, n):
            if inc < best_inc - 1e-14:
                best_inc, best = inc, full
        if best_inc >= 1.0 + 1e-9:
            raise obstacle.BudgetError("no admissible stage", best_inc)
        w = best
        increments.append(best_inc)

    sigma = 1.0
    for n, inc in enumerate(increments, start=1):
        if inc > 0:
            sigma = min(sigma, (eps / 2.0 ** n) / inc)
    w_omega = float(np.max(w[:int(np.searchsorted(grid, Omega_radius)) + 1]))
    if w_omega > 0:
        sigma = min(sigma, eps / w_omega)
    return CandidateSweep("PotentialBuilt", len(radii) - 1,
                          tuple(sigma * inc for inc in increments), h_funcs,
                          w0)
