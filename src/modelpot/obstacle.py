"""Discrete obstacle problems on radial grids and the staged construction
of small exhaustion supersolutions.

The continuous energy of the weighted operator ``div(|u'|^{p-2}u') -
lambda |u|^{p-2}u`` restricted to radial functions is discretized as a
convex finite-difference functional

    J(u) = sum_edges  g_mid^{m-1} |du/dr|^p / p * dr
         + lambda * sum_nodes g_i^{m-1} |u_i|^p / p * dr_i .

Strict convexity (p > 1, lambda >= 0) makes the constrained minimizer
unique and turns minimality, comparison and pasting into checkable
node-wise statements.  At lambda = 0 the minimizer is exact: the least
concave majorant of the obstacle in the p-harmonic coordinate ``S``, one
hull pass with no iteration and no scipy.  For lambda > 0 the solver is
projected Newton with a primal-dual active set: the Hessian of ``J`` is
tridiagonal, so each step is one banded solve, and a backtracking search
on ``J`` makes it globally convergent for every ``p``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ModelManifold, NumericError, sphere_volume

NEG_INF = -math.inf
# solve_obstacle stops after MAX_NEWTON_STEPS steps with SweepLimitError
MAX_NEWTON_STEPS = 200


class ConstraintError(ValueError):
    """Obstacle/boundary data admit no feasible function."""


class SweepLimitError(NumericError):
    """Newton steps hit their budget before reaching tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class BudgetError(NumericError):
    """The staged construction ran out of exhaustion radii."""

    def __init__(self, message, smallest_increment):
        super().__init__(message)
        self.smallest_increment = smallest_increment


def _signed_power(t, e):
    """Signed power sign(t) |t|^e, safe at t = 0 for e < 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sign(t) * np.abs(t) ** e
    return np.where(t == 0.0, 0.0, out)


@dataclass(frozen=True)
class DiscreteProblem:
    """Weighted finite-difference energy on a radial annulus grid."""

    grid: np.ndarray
    p: float
    lam: float
    node_weights: np.ndarray = field(repr=False)   # g(r_i)^(m-1)
    edge_weights: np.ndarray = field(repr=False)   # g(midpoint)^(m-1)
    h: np.ndarray = field(repr=False)              # edge lengths
    dr: np.ndarray = field(repr=False)             # node quadrature weights

    @property
    def n_nodes(self) -> int:
        return len(self.grid)

    def energy(self, u) -> float:
        u = np.asarray(u, dtype=float)
        s = np.diff(u) / self.h
        grad_term = np.sum(self.edge_weights * np.abs(s) ** self.p
                           / self.p * self.h)
        pot_term = self.lam * np.sum(self.node_weights
                                     * np.abs(u) ** self.p / self.p * self.dr)
        return float(grad_term + pot_term)

    def gradient(self, u) -> np.ndarray:
        """dJ/du_i at every node (boundary entries included but unused
        by the solver; they carry the one-sided flux)."""
        u = np.asarray(u, dtype=float)
        p = self.p
        s = np.diff(u) / self.h
        flux = self.edge_weights * _signed_power(s, p - 1.0)
        g = np.zeros_like(u)
        g[1:] += flux
        g[:-1] -= flux
        g += self.lam * self.node_weights * _signed_power(u, p - 1.0) * self.dr
        return g

    def residual(self, u) -> np.ndarray:
        """Euler-Lagrange defect per unit measure; the sign convention is
        residual >= 0 at supersolution nodes."""
        return self.gradient(u) / self.dr

    def leading(self, k: int) -> "DiscreteProblem":
        """The problem on nodes ``0..k``, with these weights; node ``k`` is
        its end node."""
        return DiscreteProblem(
            self.grid[:k + 1], self.p, self.lam, self.node_weights[:k + 1],
            self.edge_weights[:k], self.h[:k],
            np.append(self.dr[:k], 0.5 * self.h[k - 1]))


def make_problem(M: ModelManifold, p: float, lam: float,
                 grid: Sequence[float]) -> DiscreteProblem:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be 1-D with at least 3 nodes")
    if not np.isfinite(grid).all():      # a NaN passes the order check
        bad = grid[~np.isfinite(grid)][0]
        raise ValueError(f"grid must be finite, got {bad:g}")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if not 1.1 <= p <= 10.0:
        raise ValueError("exponent p must lie in [1.1, 10]; outside this "
                         "band the nodal solves lose conditioning")
    if lam < 0:
        raise ValueError("potential coefficient lambda must be >= 0")
    mid = 0.5 * (grid[:-1] + grid[1:])
    wn = sphere_volume(M, grid)
    we = sphere_volume(M, mid)
    if np.any(wn <= 0) or np.any(we <= 0):
        raise ValueError("weights must be positive on the annulus")
    h = np.diff(grid)
    dr = np.empty_like(grid)
    dr[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    dr[0] = 0.5 * h[0]
    dr[-1] = 0.5 * h[-1]
    return DiscreteProblem(grid=grid, p=p, lam=lam, node_weights=wn,
                           edge_weights=we, h=h, dr=dr)


@dataclass(frozen=True)
class DiscreteFunction:
    values: np.ndarray
    problem: DiscreteProblem
    iterations: int = 0              # Newton steps of the solve
    stationarity: float = math.nan   # final KKT stationarity defect

    def __post_init__(self):
        if len(self.values) != self.problem.n_nodes:
            raise ValueError("value vector does not match the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


@dataclass(frozen=True)
class ObstacleSpec:
    """Obstacle at interior nodes plus Dirichlet boundary values.

    ``psi`` has length ``n_nodes - 2``; ``-inf`` entries disable the
    constraint at that node.
    """

    psi: np.ndarray
    theta_left: float
    theta_right: float

    @staticmethod
    def dirichlet(n_nodes: int, theta_left: float,
                  theta_right: float) -> "ObstacleSpec":
        return ObstacleSpec(np.full(n_nodes - 2, NEG_INF),
                            theta_left, theta_right)


def _check_spec(prob: DiscreteProblem, spec: ObstacleSpec):
    psi = np.asarray(spec.psi, dtype=float)
    if len(psi) != prob.n_nodes - 2:
        raise ValueError("obstacle must be given at the interior nodes")
    if np.any(np.isnan(psi)) or np.any(psi == math.inf):
        raise ConstraintError("obstacle admits no feasible function "
                              "(+inf or NaN entries)")
    if not (np.isfinite(spec.theta_left) and np.isfinite(spec.theta_right)):
        raise ConstraintError("boundary values must be finite")
    return psi


def _floored(a):
    """``|a|`` floored at 1e-16 of its largest entry (at 1 if all vanish),
    so that ``|a|^(p-2)`` stays finite and positive."""
    a = np.abs(a)
    top = float(np.max(a))
    return np.maximum(a, 1e-16 * top if top > 0.0 else 1.0)


def _hessian_bands(prob, u):
    """Tridiagonal Hessian of the energy at ``u`` on the interior nodes:
    (edge stiffness ``k_e``, diagonal).  ``|s|`` and ``|u|`` are floored
    so that the degenerate (p > 2) and singular (p < 2) terms stay finite;
    the energy, the gradient and the stopping test are exact."""
    p = prob.p
    k = (prob.edge_weights * (p - 1.0)
         * _floored(np.diff(u) / prob.h) ** (p - 2.0) / prob.h)
    diag = k[:-1] + k[1:] + (prob.lam * (p - 1.0) * prob.node_weights[1:-1]
                             * prob.dr[1:-1] * _floored(u[1:-1]) ** (p - 2.0))
    return k, diag


def _solve_tridiagonal(off, diag, rhs):
    """Solve the symmetric tridiagonal system with diagonal ``diag`` and
    off-diagonal ``off`` by LAPACK ``dgtsv``: what ``solve_banded((1, 1),
    ...)`` runs, bit for bit, without its validation (and, as it does, a
    1x1 system by one division).  Its errors stay: ``ValueError`` for a
    non-finite entry, ``LinAlgError`` for a zero pivot."""
    from scipy.linalg import LinAlgError
    from scipy.linalg.lapack import dgtsv
    if not (np.isfinite(off).all() and np.isfinite(diag).all()
            and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if len(diag) == 1:
        return rhs / diag
    x, info = dgtsv(off, diag, off, rhs)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def solve_obstacle(prob: DiscreteProblem, spec: ObstacleSpec,
                   tol: float = 1e-10, initial=None) -> DiscreteFunction:
    """Minimize the energy over ``{u >= psi, boundary = theta}``.

    At lambda = 0 the minimizer is exact and takes no Newton step: in the
    p-harmonic coordinate ``S_i = sum_{e<i} h_e w_e^(-1/(p-1))`` the
    energy is ``sum dS |du/dS|^p / p``, whose KKT conditions make the
    minimizer concave in ``S``, affine off the contact set and equal to
    ``psi`` where its slope drops.  So it is the least concave majorant of
    the boundary points and the points ``(S_i, psi_i)``
    (``_concave_majorant``), and ``tol`` and ``initial`` act only for
    lambda > 0, where the minimizer is ``_projected_newton``'s.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol:g}")
    psi = _check_spec(prob, spec)
    if prob.lam == 0:
        return _concave_majorant(prob, spec, psi)
    return _projected_newton(prob, spec, tol, initial)


def _p_harmonic_coordinate(prob: DiscreteProblem) -> np.ndarray:
    """``S_i = sum_{e<i} h_e (w_e / min w)^(-1/(p-1))``: no term exceeds
    ``h_e``, so the p-harmonic coordinate in these units cannot overflow."""
    w = prob.edge_weights
    return np.append(0.0, np.cumsum(
        prob.h * (w / np.min(w)) ** (-1.0 / (prob.p - 1.0))))


def _concave_majorant(prob: DiscreteProblem, spec: ObstacleSpec,
                      psi: np.ndarray) -> DiscreteFunction:
    """The lambda = 0 minimizer: the upper hull of the finite points
    ``(S_i, theta_left | psi_i | theta_right)`` in one monotone-chain pass,
    then its chords at the nodes.  It passes the Newton solve's KKT gate
    or is refused."""
    # the hull divides by the steps of S, which rounding can zero
    S = _p_harmonic_coordinate(prob)
    steps = np.diff(S)
    if not np.all(steps > 0.0):
        i = int(np.argmin(steps))
        raise NumericError(
            f"the p-harmonic coordinate S must increase strictly, but its "
            f"step at edge {i} is {steps[i]:.3e} (S = {S[i]:.3e})")
    y = np.concatenate(([spec.theta_left], psi, [spec.theta_right]))
    xs, ys = S.tolist(), y.tolist()
    hull = []
    for i in np.flatnonzero(np.isfinite(y)).tolist():
        x, v = xs[i], ys[i]
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b unless it lies strictly above the chord from a to i
            if ((xs[b] - xs[a]) * (v - ys[a])
                    - (ys[b] - ys[a]) * (x - xs[a])) < 0.0:
                break
            hull.pop()
        hull.append(i)
    u = np.empty_like(y)
    for a, b in zip(hull[:-1], hull[1:]):
        slope = (ys[b] - ys[a]) / (xs[b] - xs[a])
        u[a:b] = ys[a] + slope * (S[a:b] - xs[a])
    u[-1] = spec.theta_right
    u[1:-1] = np.maximum(u[1:-1], psi)
    stat, viol, _ = residual_complementarity(prob, u, spec)
    if not (stat <= 1e-8 and viol <= 1e-12):
        raise NumericError(
            f"the concave majorant fails the KKT gate: stationarity "
            f"{stat:.3e} (gate 1e-8), obstacle violation {viol:.3e} "
            f"(gate 1e-12)")
    return DiscreteFunction(u, prob, iterations=0, stationarity=stat)


def _projected_newton(prob: DiscreteProblem, spec: ObstacleSpec,
                      tol: float = 1e-10, initial=None) -> DiscreteFunction:
    """Projected Newton on the tridiagonal Hessian (Bertsekas, SIAM J.
    Control Optim. 20, 1982) with the primal-dual active-set prediction of
    Hintermueller, Ito & Kunisch (SIAM J. Optim. 13, 2002): a node whose
    gradient pushes it into the obstacle by more than its diagonal Newton
    step gets a decoupled diagonal row, so the full step lands it on the
    obstacle; the other nodes take the Newton step of the free block.  A
    backtracking search on the energy along the projected arc keeps every
    step a descent step; at p = 2 a fixed active set is solved in one step.
    Termination requires both a small maximal update and a small
    complementarity residual; ``MAX_NEWTON_STEPS`` bounds the Newton
    steps.  ``initial``, an array of node values, replaces the linear
    start.  It solves every lambda >= 0, and checks the lambda = 0
    majorant by an independent route.
    """
    psi = np.asarray(spec.psi, dtype=float)
    if initial is None:
        t = (prob.grid - prob.grid[0]) / (prob.grid[-1] - prob.grid[0])
        u = spec.theta_left + t * (spec.theta_right - spec.theta_left)
    else:
        u = np.array(initial, dtype=float)
    u[0] = spec.theta_left
    u[-1] = spec.theta_right
    u[1:-1] = np.maximum(u[1:-1], psi)

    energy = prob.energy(u)
    step = math.inf
    for it in range(1, MAX_NEWTON_STEPS + 1):
        x = u[1:-1]
        g = prob.gradient(u)[1:-1]
        k, diag = _hessian_bands(prob, u)
        active = g > diag * (x - psi)
        coupling = -k[1:-1] * ~(active[:-1] | active[1:])
        d = _solve_tridiagonal(coupling, diag, g)

        alpha = 1.0
        trial = u.copy()
        for _ in range(60):
            trial[1:-1] = np.maximum(x - alpha * d, psi)
            energy_trial = prob.energy(trial)
            decrease = float(g @ (x - trial[1:-1]))
            if energy_trial <= energy - 0.1 * decrease + 1e-13 * energy:
                break
            alpha *= 0.5
        step = float(np.max(np.abs(trial - u)))
        u, energy = trial, energy_trial
        if step <= tol:
            stat, viol, _ = residual_complementarity(prob, u, spec)
            if stat <= 1e-8 and viol <= 1e-12:
                return DiscreteFunction(u, prob, iterations=it,
                                        stationarity=stat)
    stat, viol, _ = residual_complementarity(prob, u, spec)
    raise SweepLimitError(
        f"no convergence in {MAX_NEWTON_STEPS} Newton steps (last update "
        f"{step:.3e})", stat)


def solve_dirichlet(prob: DiscreteProblem, theta_left: float,
                    theta_right: float, initial=None) -> DiscreteFunction:
    """Unconstrained boundary-value problem (obstacle disabled), solved by
    ``solve_obstacle`` with its default tolerance and step budget."""
    spec = ObstacleSpec.dirichlet(prob.n_nodes, theta_left, theta_right)
    return solve_obstacle(prob, spec, initial=initial)


def residual_complementarity(prob: DiscreteProblem, u, spec: ObstacleSpec):
    """KKT measures of the node values ``u``: (max stationarity defect off
    the contact set, max obstacle violation, min slackness product with
    capped gap).  A node within 1e-9 of the obstacle is on the contact
    set."""
    u = np.asarray(u, dtype=float)
    psi = np.asarray(spec.psi, dtype=float)
    res = prob.residual(u)[1:-1]
    inner = u[1:-1]
    off_contact = inner > psi + 1e-9
    stationarity = float(np.max(np.abs(res[off_contact]))) \
        if np.any(off_contact) else 0.0
    violation = float(np.max(np.maximum(psi - inner, 0.0)))
    gap = np.minimum(np.maximum(inner - psi, 0.0), 1.0)
    slackness = float(np.min(gap * res)) if len(res) else 0.0
    return stationarity, violation, slackness


@dataclass(frozen=True)
class SupersolutionCheck:
    ok: bool
    worst_node: int
    worst_residual: float


def is_supersolution(prob: DiscreteProblem, u, tol: float = 1e-8
                     ) -> SupersolutionCheck:
    """Discrete supersolution test of the node values ``u``: the
    Euler-Lagrange defect has the nonnegative sign (up to ``tol``) at every
    interior node."""
    res = prob.residual(u)[1:-1]
    worst = int(np.argmin(res))
    return SupersolutionCheck(bool(res[worst] >= -tol), worst + 1,
                              float(res[worst]))


# ---------------------------------------------------------------------------
# staged construction of a small exhaustion supersolution


@dataclass(frozen=True)
class KhasminskiiReport:
    w: DiscreteFunction
    n_stages: int
    budget_used: tuple
    h_limit_sup: float
    verdict: str                     # PotentialBuilt | HLimitNonzero
    stage_sups: tuple = ()


def _construct_grid(K_radius, Omega_radius, radii, nodes_per_stage):
    """Geometric master grid containing every control radius exactly: a
    ``geomspace`` from each control radius to the next, whose ends are
    exactly those radii."""
    ends = [K_radius, Omega_radius] + list(radii)
    return np.unique(np.concatenate(
        [np.geomspace(lo, hi, nodes_per_stage)
         for lo, hi in zip(ends[:-1], ends[1:])]))


def _unit_solutions(prob: DiscreteProblem, idx) -> list:
    """Stage 0: for each end node ``k`` of ``idx``, the unit solution
    ``h_j`` (0 at the first node, 1 at node ``k``) of the leading problem
    on nodes ``0..k``, extended by 1 past it.  At lambda = 0 the minimizer
    has a constant edge flux ``w_e s_e^(p-1)``, so ``h_j`` is ``S[:k+1] /
    S[k]`` (``_p_harmonic_coordinate``), with no solve.  For lambda > 0
    each is a Newton solve, warm-started from the previous one."""
    n = prob.n_nodes
    if prob.lam == 0:
        S = _p_harmonic_coordinate(prob)
        if not S[idx[0]] > 0.0:
            raise NumericError(
                f"the unit solutions need a positive p-harmonic coordinate "
                f"at node {idx[0]}, got {S[idx[0]]:.3e}")
        return [np.append(S[:k + 1] / S[k], np.ones(n - k - 1)) for k in idx]
    h_funcs = []
    for k in idx:
        guess = h_funcs[-1][:k + 1] if h_funcs else None
        hj = solve_dirichlet(prob.leading(k), 0.0, 1.0, initial=guess).values
        h_funcs.append(np.append(hj, np.ones(n - k - 1)))
    return h_funcs


def khasminskii_construct(M: ModelManifold, p: float, lam: float,
                          K_radius: float, Omega_radius: float, eps: float,
                          exhaustion_radii: Sequence[float],
                          tol: float = 1e-3,
                          nodes_per_stage: int = 48) -> KhasminskiiReport:
    """Build a small exhaustion supersolution or detect that none exists.

    Stage 0 takes the unit boundary-value problems ``h_j`` on the annuli
    ``[K, rho_j]`` (extended by 1) from ``_unit_solutions`` (at lambda = 0
    ratios of one ``S``, for lambda > 0 Newton solves) and extrapolates the
    sup of their decreasing limit near the core; a nonzero limit means the
    bounded-Liouville property fails at this desk scale.  Otherwise stage
    ``n`` raises the potential by one level with a single obstacle solve on
    the whole grid ``[K, rho_N]``: obstacle ``w + h_{N-1}``, boundary
    ``n + 1``.  Among the exhaustion radii this one gives the least
    increment, by comparison: a solve on a shorter ``[K, rho_{j+1}]`` with
    obstacle ``w + h_j`` extended by the constant ``n + 1`` is a
    supersolution above the whole-grid obstacle (``h_j >= h_{N-1}`` and
    ``w + h_{N-1} <= n + 1``), and the whole-grid solution is the least
    such supersolution, so it lies below every candidate.  The whole
    profile is rescaled at the end so that the per-stage increments fit the
    geometric budget (the operator and potential are both
    (p-1)-homogeneous, so scaling preserves the supersolution property
    exactly).
    """
    radii = np.asarray(exhaustion_radii, dtype=float)
    if len(radii) < 4:
        raise ValueError("need at least 4 exhaustion radii")
    if not np.isfinite(radii).all():
        bad = radii[~np.isfinite(radii)][0]
        raise ValueError(f"exhaustion radii must be finite, got {bad:g}")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("exhaustion radii must be increasing")
    if not (0 < K_radius < Omega_radius < radii[0]):
        raise ValueError("need K_radius < Omega_radius < first radius")
    for name, value in (("eps", eps), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got "
                             f"{value:g}")
    if nodes_per_stage < 2:
        raise ValueError(
            f"nodes_per_stage must be >= 2, got {nodes_per_stage}")

    grid = _construct_grid(K_radius, Omega_radius, radii, nodes_per_stage)
    prob = make_problem(M, p, lam, grid)
    idx = np.searchsorted(grid, radii)
    idx_omega = int(np.searchsorted(grid, Omega_radius))

    h_funcs = _unit_solutions(prob, idx)
    if any(np.any(b > a + 1e-9) for a, b in zip(h_funcs, h_funcs[1:])):
        raise NumericError("unit solutions failed to decrease with the "
                           "domain; comparison violated")
    idx_rho1 = idx[0]
    sups = [float(np.max(h[:idx_rho1 + 1])) for h in h_funcs]

    # extrapolate the sup of the decreasing limit: for vanishing limits the
    # sups decay linearly in 1/log(rho_j / K), so the fitted intercept
    # separates genuine nonzero limits from discretization noise
    x = 1.0 / np.log(radii / K_radius)
    slope, intercept = np.polyfit(x, np.asarray(sups), 1)
    h_limit_sup = max(float(intercept), 0.0)

    if h_limit_sup > 10.0 * tol:
        return KhasminskiiReport(
            w=DiscreteFunction(h_funcs[-1], prob), n_stages=0,
            budget_used=(), h_limit_sup=h_limit_sup,
            verdict="HLimitNonzero", stage_sups=tuple(sups))

    # inductive stages at natural (unit-increment) scale
    n_stages = len(radii) - 1
    target = eps / 2.0
    j_star = next((j for j, s in enumerate(sups) if s <= target),
                  len(radii) - 1)
    w_nat = h_funcs[j_star].copy()
    increments = [float(np.max(w_nat[:idx_rho1 + 1]))]

    for n in range(1, n_stages):
        spec = ObstacleSpec(psi=(w_nat + h_funcs[-2])[1:-1],
                            theta_left=0.0, theta_right=float(n + 1))
        # (p-1)-homogeneity: (n+1) h_N solves the same boundary problem
        # without the obstacle, so it bounds the solution below
        w_next = solve_obstacle(prob, spec,
                                initial=(n + 1.0) * h_funcs[-1]).values
        inc = float(np.max((w_next - w_nat)[:idx[n] + 1]))
        if inc >= 1.0 + 1e-9:
            raise BudgetError(
                "no admissible stage within the available exhaustion radii",
                smallest_increment=inc)
        w_nat = w_next
        increments.append(inc)

    # rescale so every stage increment fits its geometric budget and the
    # profile is below eps on the control annulus
    sigma = 1.0
    for n, inc in enumerate(increments, start=1):
        if inc > 0:
            sigma = min(sigma, (eps / 2.0 ** n) / inc)
    w_omega = float(np.max(w_nat[:idx_omega + 1]))
    if w_omega > 0:
        sigma = min(sigma, eps / w_omega)
    w_final = sigma * w_nat
    budget = tuple(sigma * inc for inc in increments)

    check = is_supersolution(prob, w_final, tol=1e-9)
    if not check.ok:
        raise NumericError(
            f"final profile fails the supersolution check at node "
            f"{check.worst_node} (residual {check.worst_residual:.3e})")
    return KhasminskiiReport(
        w=DiscreteFunction(w_final, prob), n_stages=n_stages,
        budget_used=budget, h_limit_sup=h_limit_sup,
        verdict="PotentialBuilt", stage_sups=tuple(sups))
