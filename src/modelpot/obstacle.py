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
hull pass with no iteration.  For lambda > 0 the solver is
projected Newton with a primal-dual active set, started from the forward
sweep's solution: the Hessian of ``J`` is tridiagonal and diagonally
dominant, so each step is one elimination without pivoting, and a
backtracking search on ``J`` makes it globally convergent for every
``p``.  Both routes end on one scale-free KKT gate, and Newton's stop is
relative, so scaling the data scales the minimizer, as scaling the
weights does: they are relative to the grid's largest.

The staged construction makes no solve: one forward sweep gives its
unit solutions, and its final check is a componentwise backward error,
which no weight scale can trip; its verdict is the Liouville classifier's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import (DomainError, ModelManifold, NumericError,
                   linear_power_potential, log_sphere_volume,
                   p_laplacian_operator)
from .criteria import DivergenceVerdict, PropertyTag, classify_KL

NEG_INF = -math.inf
# solve_obstacle stops after MAX_NEWTON_STEPS steps with SweepLimitError
MAX_NEWTON_STEPS = 200
# Newton stops on an update of at most NEWTON_TOL of max|u|: scale-free,
# like radial.PICARD_TOL
NEWTON_TOL = 1e-10


class ConstraintError(ValueError):
    """Obstacle/boundary data admit no feasible function."""


class SweepLimitError(NumericError):
    """Newton steps hit their budget before reaching tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _signed_power(t, e):
    """Signed power sign(t) |t|^e, safe at t = 0 for e < 1."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sign(t) * np.abs(t) ** e
    return np.where(t == 0.0, 0.0, out)


@dataclass(frozen=True)
class DiscreteProblem:
    """Weighted finite-difference energy on a radial annulus grid, its
    weights divided by the largest, ``exp(log_scale)``: no minimizer moves."""

    grid: np.ndarray
    p: float
    lam: float
    log_scale: float
    node_weights: np.ndarray = field(repr=False)   # g(r_i)^(m-1), relative
    edge_weights: np.ndarray = field(repr=False)   # g(midpoint)^(m-1), same
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

    def _terms(self, u):
        """The two parts of the gradient: the edge fluxes ``w_e
        phi(s_e)`` and the node potential terms ``lambda w_i dr_i
        phi(u_i)``."""
        u = np.asarray(u, dtype=float)
        p = self.p
        flux = self.edge_weights * _signed_power(np.diff(u) / self.h, p - 1.0)
        return flux, (self.lam * self.node_weights * _signed_power(u, p - 1.0)
                      * self.dr)

    def gradient(self, u) -> np.ndarray:
        """dJ/du_i at every node (boundary entries included but unused
        by the solver; they carry the one-sided flux)."""
        flux, pot = self._terms(u)
        g = np.zeros_like(pot)
        g[1:] += flux
        g[:-1] -= flux
        g += pot
        return g

    def residual(self, u) -> np.ndarray:
        """Euler-Lagrange defect per unit measure; the sign convention is
        residual >= 0 at supersolution nodes."""
        return self.gradient(u) / self.dr


def make_problem(M: ModelManifold, p: float, lam: float,
                 grid: Sequence[float]) -> DiscreteProblem:
    """The discrete energy of ``M`` on the strictly increasing ``grid``:
    one ``log_sphere_volume`` pass gives ``L = (m-1) log g`` at the nodes
    and edge midpoints, and the weights ``exp(L - max L)``.  A grid whose
    least weight is then no normal double is refused by name (the span
    of ``L`` and its ends); the spacings ``h`` serve both the order check
    and the problem."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 3:
        raise ValueError("grid must be 1-D with at least 3 nodes")
    if not np.isfinite(grid).all():      # a NaN passes the order check
        bad = grid[~np.isfinite(grid)][0]
        raise ValueError(f"grid must be finite, got {bad:g}")
    h = grid[1:] - grid[:-1]
    if (h <= 0).any():
        raise ValueError("grid must be strictly increasing")
    if not 1.1 <= p <= 10.0:
        raise ValueError("exponent p must lie in [1.1, 10]; outside this "
                         "band the nodal solves lose conditioning")
    if not 0 <= lam < math.inf:
        raise ValueError(f"the potential's lambda must be finite and >= 0, "
                         f"got {lam:g}")
    r = np.concatenate((grid, 0.5 * (grid[:-1] + grid[1:])))
    L = log_sphere_volume(M, r)
    lo, hi = np.argmin(L), np.argmax(L)
    w = np.exp(L - L[hi])
    if not w[lo] >= np.finfo(float).tiny:       # a NaN fails it
        raise DomainError(
            f"the least weight g^(m-1) underflows against the largest: "
            f"(m-1) log g spans {L[hi] - L[lo]:.6g}, from {L[lo]:.6g} at "
            f"r={r[lo]:.6g} to {L[hi]:.6g} at r={r[hi]:.6g}")
    dr = 0.5 * np.concatenate(([h[0]], grid[2:] - grid[:-2], [h[-1]]))
    n = len(grid)
    return DiscreteProblem(grid=grid, p=p, lam=lam, log_scale=float(L[hi]),
                           node_weights=w[:n], edge_weights=w[n:], h=h, dr=dr)


@dataclass(frozen=True)
class DiscreteFunction:
    values: np.ndarray
    problem: DiscreteProblem
    iterations: int = 0              # Newton steps of the solve
    # the final KKT measures of residual_complementarity, from the gate
    stationarity: float = math.nan
    obstacle_violation: float = math.nan
    min_slackness: float = math.nan

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
    off-diagonal ``off`` by elimination without pivoting, in LAPACK
    ``dgtsv``'s arithmetic: stable on the diagonally dominant Newton
    Hessian (Higham, Accuracy and Stability of Numerical Algorithms, 9.6).
    ``NumericError`` names a non-finite entry or a pivot that is not
    positive, and its row."""
    for name, a in (("off-diagonal", off), ("diagonal", diag),
                    ("right-hand side", rhs)):
        if not np.isfinite(a).all():
            i = int(np.argmin(np.isfinite(a)))
            raise NumericError(f"the Newton system's {name} is not finite "
                               f"at row {i}: {a[i]}")
    du, d, b = off.tolist(), diag.tolist(), rhs.tolist()
    last = len(du)
    for i in range(last + 1):
        if not d[i] > 0.0:
            raise NumericError(f"the Newton system's pivot at row {i} is "
                               f"{d[i]:.3e}, not positive")
        if i < last:
            fact = du[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
    b[-1] /= d[-1]
    for i in range(last - 1, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1]) / d[i]
    return np.array(b)


def solve_obstacle(prob: DiscreteProblem,
                   spec: ObstacleSpec) -> DiscreteFunction:
    """Minimize the energy over ``{u >= psi, boundary = theta}``.

    At lambda = 0 the minimizer is exact and takes no Newton step: in the
    p-harmonic coordinate ``S_i = sum_{e<i} h_e w_e^(-1/(p-1))`` the
    energy is ``sum dS |du/dS|^p / p``, whose KKT conditions make the
    minimizer concave in ``S``, affine off the contact set and equal to
    ``psi`` where its slope drops.  So it is the least concave majorant of
    the boundary points and the points ``(S_i, psi_i)``
    (``_concave_majorant``).  For lambda > 0 it is ``_projected_newton``'s,
    started from ``theta_left + (theta_right - theta_left) h_N``, where
    ``h_N`` is the forward sweep's unit solution on the whole grid
    (``_unit_solutions``): the exact minimizer when ``theta_left = 0`` and
    nothing touches ``psi``, which it then returns after 0 steps, so
    Newton has only the contact set to find.  It solves for the data over
    ``s``, the power of two within a factor 2 below the largest of
    ``|theta_left|``, ``|theta_right|`` and the finite ``|psi|``, and
    multiplies back: the energy is p-homogeneous and ``s`` divides
    exactly, so no ``|u|^p`` of its steps passes a double.
    """
    psi = _check_spec(prob, spec)
    if prob.lam == 0:
        return _concave_majorant(prob, spec, psi)
    top = max(abs(spec.theta_left), abs(spec.theta_right),
              float(np.max(np.abs(psi[np.isfinite(psi)]), initial=0.0)))
    s = math.ldexp(1.0, math.frexp(top)[1] - 1)
    left, right = spec.theta_left / s, spec.theta_right / s
    h = _unit_solutions(prob, [prob.n_nodes - 1])[0]
    sol = _projected_newton(prob, ObstacleSpec(psi / s, left, right),
                            left + (right - left) * h)
    return replace(sol, values=sol.values * s)


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
    then its chords at the nodes.  Where the weights rise fast, rounding
    makes steps of ``S`` vanish; a chord is refused only where its two
    hull vertices share an ``S``, and the Newton solve's KKT gate decides
    the rest."""
    S = _p_harmonic_coordinate(prob)
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
        if not xs[b] > xs[a]:
            raise NumericError(
                f"the concave majorant's hull vertices {a} and {b} share "
                f"the p-harmonic coordinate S = {xs[a]:.3e}")
        slope = (ys[b] - ys[a]) / (xs[b] - xs[a])
        u[a:b] = ys[a] + slope * (S[a:b] - xs[a])
    u[-1] = spec.theta_right
    u[1:-1] = np.maximum(u[1:-1], psi)
    failure, stat, viol, slack = _kkt_gate(prob, u, psi)
    if failure:
        raise NumericError(f"the concave majorant fails the KKT gate: "
                           f"{failure}")
    return DiscreteFunction(u, prob, iterations=0, stationarity=stat,
                            obstacle_violation=viol, min_slackness=slack)


def _projected_newton(prob: DiscreteProblem, spec: ObstacleSpec,
                      initial=None) -> DiscreteFunction:
    """Projected Newton on the tridiagonal Hessian (Bertsekas, SIAM J.
    Control Optim. 20, 1982) with the primal-dual active-set prediction of
    Hintermueller, Ito & Kunisch (SIAM J. Optim. 13, 2002): a node whose
    gradient pushes it into the obstacle by more than its diagonal Newton
    step gets a decoupled diagonal row, so the full step lands it on the
    obstacle; the other nodes take the Newton step of the free block.  A
    backtracking search on the energy along the projected arc keeps every
    step a descent step; at p = 2 a fixed active set is solved in one step.
    It stops on a maximal update of at most ``NEWTON_TOL`` times the
    largest node value that passes the KKT gate ``_kkt_gate``, so scaling
    the data scales the answer and its steps stay the same;
    ``MAX_NEWTON_STEPS`` bounds the Newton steps.  ``initial``, an array of
    node values, replaces the linear start (``solve_obstacle`` passes the
    forward sweep's); a start that passes the gate is the result, after 0
    steps.  It solves every lambda >= 0, and from the linear start checks
    the majorant and the sweep by an independent route.
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
    # an exact start is returned as it is: a Newton step on it can only
    # move the nodes below the Hessian floor of _floored
    done = _gated(prob, u, psi, 0)
    if done is not None:
        return done

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
        if step <= NEWTON_TOL * np.max(np.abs(u)):
            done = _gated(prob, u, psi, it)
            if done is not None:
                return done
    raise SweepLimitError(
        f"no convergence in {MAX_NEWTON_STEPS} Newton steps (last update "
        f"{step:.3e})", _kkt_gate(prob, u, psi)[1])


def _gated(prob: DiscreteProblem, u, psi, iterations: int):
    """The node values ``u`` as the solve's result after ``iterations``
    Newton steps, with the measures of ``_kkt_gate``, if they pass it;
    else ``None``."""
    failure, stat, viol, slack = _kkt_gate(prob, u, psi)
    if failure:
        return None
    return DiscreteFunction(u, prob, iterations=iterations,
                            stationarity=stat, obstacle_violation=viol,
                            min_slackness=slack)


def solve_dirichlet(prob: DiscreteProblem, theta_left: float,
                    theta_right: float) -> DiscreteFunction:
    """Unconstrained boundary-value problem (obstacle disabled), solved by
    ``solve_obstacle``."""
    spec = ObstacleSpec.dirichlet(prob.n_nodes, theta_left, theta_right)
    return solve_obstacle(prob, spec)


def residual_complementarity(prob: DiscreteProblem, u, spec: ObstacleSpec):
    """Scale-free KKT measures of the node values ``u``, as ``_kkt_gate``
    forms them in units of ``max|u|``: (max ``_gradient_ratio`` off the
    contact set, max obstacle violation, min product of the ratio with
    the gap capped at 1)."""
    return _kkt_gate(prob, np.asarray(u, dtype=float),
                     np.asarray(spec.psi, dtype=float))[1:]


def _gradient_ratio(prob: DiscreteProblem, u, nodes: float = 0.0):
    """``dJ/du_i`` at the interior nodes over the size of its terms,
    ``|flux_{i-1}| + |flux_i| + lambda w_i dr_i |u_i|^(p-1)`` (0
    where that vanishes, and with it the gradient): a componentwise
    backward error (Oettli-Prager), which scaling ``u`` or the weights
    leaves unchanged.  With ``nodes``, each flux counts that many times its
    change under a unit relative change of its node values as well,
    ``(p-1) (|u_i| + |u_{i+1}|) / |u_{i+1} - u_i|`` times the flux."""
    flux, pot = prob._terms(u)
    grad = (flux[:-1] - flux[1:]) + pot[1:-1]
    edge = np.abs(flux)
    if nodes:
        du, au = np.abs(np.diff(u)), np.abs(u)
        edge *= 1.0 + nodes * (prob.p - 1.0) * np.divide(
            au[:-1] + au[1:], du, out=np.zeros_like(du), where=du > 0)
    size = edge[:-1] + edge[1:] + np.abs(pot[1:-1])
    return np.divide(grad, size, out=np.zeros_like(grad), where=size > 0)


def _kkt_gate(prob: DiscreteProblem, u, psi):
    """The KKT gate of both obstacle routes: what the node values ``u``
    fail (``""`` if nothing), then the three measures of
    ``residual_complementarity`` (stationarity, violation, slackness) from
    the same terms.  It reads ``u`` and ``psi`` in units of ``max|u|``, so
    ``theta u`` against ``theta psi`` as ``u``, with no flux past a double.
    ``u`` passes where ``_gradient_ratio`` with ``nodes = 1e-3`` (a change
    of 1e-10 in the terms, 1e-13 in the node values) is within 1e-10 in
    size off the contact set (the nodes within 1e-9 of ``psi``) and above
    -1e-10 on it, and ``u`` lies at most 1e-12 below ``psi``.  The node
    values count because their rounding moves a flux by ``(p-1) u / du``
    of it, 1.8e11 at p = 1.1 on a 1e-9 core; elsewhere a minimizer's ratio
    is rounding, <= 4.3e-14 on the benchmark's majorants."""
    scale = float(np.max(np.abs(u))) or 1.0
    u, psi = u / scale, psi / scale
    inner = u[1:-1]
    ratio = _gradient_ratio(prob, u, nodes=1e-3)
    off = inner > psi + 1e-9
    defect = np.where(off, np.abs(ratio), -ratio)
    stationarity = float(np.max(defect[off], initial=0.0))
    violation = float(np.max(np.maximum(psi - inner, 0.0)))
    gap = np.minimum(np.maximum(inner - psi, 0.0), 1.0)
    slackness = float(np.min(gap * ratio))
    i = int(np.argmax(defect))
    failure = ""
    if not defect[i] <= 1e-10:
        failure = f"KKT defect {defect[i]:.3e} at node {i + 1} (gate 1e-10)"
    elif not violation <= 1e-12:
        failure = f"obstacle violation {violation:.3e} max|u| (gate 1e-12)"
    return failure, stationarity, violation, slackness


@dataclass(frozen=True)
class SupersolutionCheck:
    ok: bool
    worst_node: int
    worst_residual: float


def is_supersolution(prob: DiscreteProblem, u, tol: float = 1e-8
                     ) -> SupersolutionCheck:
    """Discrete supersolution test of the node values ``u``: at every
    interior node ``_gradient_ratio >= -tol``, that is ``dJ/du_i >= -tol
    (|flux_{i-1}| + |flux_i| + lambda w_i dr_i |u_i|^(p-1))``.
    ``worst_residual`` is the least ratio."""
    ratio = _gradient_ratio(prob, u)
    worst = int(np.argmin(ratio))
    return SupersolutionCheck(bool(ratio[worst] >= -tol), worst + 1,
                              float(ratio[worst]))


# ---------------------------------------------------------------------------
# staged construction of a small exhaustion supersolution


@dataclass(frozen=True)
class KhasminskiiReport:
    w: DiscreteFunction
    n_stages: int
    budget_used: tuple
    h_limit_sup: float    # a bound on the limit: 0, or stage_sups[-1]
    verdict: str          # PotentialBuilt | HLimitNonzero | Inconclusive
    divergence: DivergenceVerdict   # the classifier's test that decided it
    stage_sups: tuple = ()


def _construct_grid(K_radius, Omega_radius, radii, nodes_per_stage):
    """Geometric master grid containing every control radius exactly: one
    ``geomspace`` pass gives every stage, from each control radius to the
    next, as a row whose ends are exactly those radii (numpy takes array
    ends elementwise, in the arithmetic of scalar ones).  A stage too short
    for ``nodes_per_stage`` distinct doubles would lose nodes to
    ``np.unique``; ``ValueError`` names its two radii."""
    ends = np.array([K_radius, Omega_radius, *radii], dtype=float)
    stages = np.geomspace(ends[:-1], ends[1:], nodes_per_stage, axis=1)
    grid = np.unique(stages)
    if len(grid) < len(stages) * (nodes_per_stage - 1) + 1:
        i = int(np.argmax((np.diff(stages, axis=1) <= 0).any(axis=1)))
        lo, hi = ends[i:i + 2].tolist()
        raise ValueError(
            f"the stage from r={lo!r} to r={hi!r} is too short for "
            f"{nodes_per_stage} distinct nodes")
    return grid


def _forward_sweep(prob: DiscreteProblem) -> np.ndarray:
    """The node ratios ``r_i = u_i / u_{i+1}`` (``r_0 = 0``) of the
    forward sweep: from ``u_0 = 0`` and a unit first slope, node ``i``
    balances ``flux_i = flux_{i-1} + lambda w_i dr_i u_i^(p-1)`` with
    ``flux_e = w_e s_e^(p-1)``, and ``u_{i+1} = u_i + h_i s_i``.  By
    (p-1)-homogeneity the sweep renormalizes at every node: it carries
    ``t_i = flux_{i-1} / u_i^(p-1)`` and ``u_{i+1} / u_i``, which stay in
    range where ``u`` itself passes the largest double."""
    p, e = prob.p, 1.0 / (prob.p - 1.0)
    h, w = prob.h.tolist(), prob.edge_weights.tolist()
    lam_w = (prob.lam * prob.node_weights * prob.dr).tolist()
    r = [0.0]
    try:
        t = w[0] / h[0] ** (p - 1.0)     # flux_0 / u_1^(p-1), u_1 = h_0
    except (OverflowError, ZeroDivisionError):
        t = math.inf
    if t == math.inf:
        raise NumericError(f"the forward sweep overflows at node 0: w_0 / "
                           f"h_0^(p-1) with h_0 = {h[0]:.3e}")
    for i in range(1, len(h)):
        f = t + lam_w[i]                 # flux_i / u_i^(p-1)
        try:
            q = 1.0 + h[i] * (f / w[i]) ** e
            t = f / q ** (p - 1.0)
        except OverflowError:
            raise NumericError(
                f"the forward sweep overflows at node {i}: flux_i / (w_i "
                f"u_i^(p-1)) = {f / w[i]:.3e}") from None
        r.append(1.0 / q)
    return np.array(r)


def _unit_solutions(prob: DiscreteProblem, idx) -> np.ndarray:
    """Stage 0, one row per end node ``k`` of ``idx``: the unit solution
    ``h_j`` (0 at the first node, 1 at node ``k``) of the leading problem
    on nodes ``0..k``, extended by 1 past it.  Its Euler-Lagrange
    equations hold at nodes ``1..k-1`` only, which the forward sweep
    solves for every ``k`` at once, and they are (p-1)-homogeneous, so
    ``h_j`` is the sweep over its value at node ``k``: the products of the
    ratios ``_forward_sweep`` from node ``k`` down.  At lambda = 0 the flux
    is constant and the sweep is the p-harmonic coordinate ``S``, so
    ``h_j`` is ``S[:k+1] / S[k]`` (``_p_harmonic_coordinate``), and every
    row comes from one array pass.  No solve."""
    n = prob.n_nodes
    if prob.lam == 0:
        S = _p_harmonic_coordinate(prob)
        if not S[idx[0]] > 0.0:
            raise NumericError(
                f"the unit solutions need a positive p-harmonic coordinate "
                f"at node {idx[0]}, got {S[idx[0]]:.3e}")
        k = idx[:, None]
        return np.where(np.arange(n) <= k, S / S[k], 1.0)
    r = _forward_sweep(prob)
    H = np.ones((len(idx), n))
    for row, k in zip(H, idx):
        row[:k] = np.cumprod(r[k - 1::-1])[::-1]
    return H


def khasminskii_construct(M: ModelManifold, p: float, lam: float,
                          K_radius: float, Omega_radius: float, eps: float,
                          exhaustion_radii: Sequence[float],
                          nodes_per_stage: int = 48) -> KhasminskiiReport:
    """Build a small exhaustion supersolution or detect that none exists.

    It makes no solve: every piece is explicit.  Stage 0 takes the unit
    boundary-value problems ``h_j`` on the annuli ``[K, rho_j]`` (extended
    by 1) from ``_unit_solutions``, ratios of one forward sweep (at lambda =
    0 the p-harmonic coordinate ``S``).  Their decreasing limit vanishes
    iff the Liouville property holds, which ``classify_KL`` decides from
    ``rho_N``, to the reach it picks, under ``B = lambda t**(p-1)``
    (at lambda = 0 the parabolicity test).  Else the verdict is
    ``HLimitNonzero`` (``KL_Fails``) or ``Inconclusive``, and
    ``stage_sups[-1]`` bounds the limit.  Stage ``n`` raises the potential
    by one level, ``w_n = w_{n-1} + h_{N-1}`` from ``w_0 = h_{j*}``, the
    first ``h_j`` with sup at most ``eps/2`` (or ``h_N``).  This is the
    obstacle problem's own solution on the whole grid ``[K, rho_N]`` with
    obstacle ``w_{n-1} + h_{N-1}`` and boundary ``n + 1`` (by comparison
    the least increment among the exhaustion radii), because that obstacle
    is already a supersolution:

    - on nodes ``0..k_{j*}``, ``h_{j*} = h_{N-1} / h_{N-1}(rho_{j*})``: the
      leading problem has a unique minimizer and its discrete
      Euler-Lagrange equations are (p-1)-homogeneous, so the obstacle is a
      multiple of ``h_{N-1}`` there and solves the equation;
    - past ``rho_{j*}`` it is ``1 + n h_{N-1}``, whose defect is
      ``lambda w_i dr_i ((1 + n h)^(p-1) - (n h)^(p-1)) >= 0``;
    - at both kinks, ``rho_{j*}`` and ``rho_{N-1}``, the edge flux drops;
    - the default ``j* = N`` is the same argument with the roles of
      ``h_{N-1}`` and ``h_N`` swapped.

    So the last stage is one expression, ``w = h_{j*} + (N-1) h_{N-1}``.
    Every ``h_j`` is nondecreasing (ratios at most 1 multiplied down from
    node ``k``, or ``S / S[k]``), so each sup is a value: ``stage_sups``
    holds the ``h_j(rho_1)``, stage 1 rises by ``h_{j*}(rho_1)`` and stage
    ``n >= 2`` by ``h_{N-1}(rho_n)`` on ``[K, rho_n]``.

    The whole profile is rescaled at the end by the largest ``sigma <= 1``
    that fits each rise into ``eps / 2^n`` and the profile into ``eps`` on
    the control annulus (the operator and potential are both
    (p-1)-homogeneous, so scaling preserves the supersolution property
    exactly); ``budget_used`` is ``sigma`` times each rise, and the
    scale-free ``is_supersolution`` checks the result.
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
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps:g}")
    if nodes_per_stage < 2:
        raise ValueError(
            f"nodes_per_stage must be >= 2, got {nodes_per_stage}")

    grid = _construct_grid(K_radius, Omega_radius, radii, nodes_per_stage)
    prob = make_problem(M, p, lam, grid)
    idx = np.searchsorted(grid, radii)
    idx_omega = int(np.searchsorted(grid, Omega_radius))

    h_funcs = _unit_solutions(prob, idx)
    sups = h_funcs[:, idx[0]].tolist()

    cls = classify_KL(M, p_laplacian_operator(p),
                      linear_power_potential(p, lam), R0=float(radii[-1]))
    if cls.property is not PropertyTag.KL_HOLDS:
        return KhasminskiiReport(
            w=DiscreteFunction(h_funcs[-1], prob), n_stages=0,
            budget_used=(), h_limit_sup=sups[-1], verdict="HLimitNonzero"
            if cls.property is PropertyTag.KL_FAILS else "Inconclusive",
            divergence=cls.divergence, stage_sups=tuple(sups))

    # the last stage at natural (unit-increment) scale, and each stage's
    # rise on [K, rho_n]: every row is nondecreasing, so a sup is a value
    n_stages = len(radii) - 1
    j_star = next((j for j, s in enumerate(sups) if s <= eps / 2), n_stages)
    w_nat = h_funcs[j_star] + (n_stages - 1) * h_funcs[-2]
    increments = [sups[j_star], *h_funcs[-2][idx[1:n_stages]].tolist()]

    # rescale so every stage increment fits its geometric budget and the
    # profile is below eps on the control annulus
    caps = [(eps / 2.0 ** n, inc) for n, inc in enumerate(increments, 1)]
    caps.append((eps, float(w_nat[idx_omega])))
    sigma = min([1.0, *(cap / x for cap, x in caps if x > 0)])
    w_final = sigma * w_nat
    budget = tuple(sigma * inc for inc in increments)

    # the stages are supersolutions in exact arithmetic, so the defect is
    # rounding: node values carry up to n ulps from the sweep's running
    # products (n <~ 400 nodes: ~1e-13 relative), which a flux magnifies by
    # (p - 1) u / du <~ 1e3 on these geometric grids
    check = is_supersolution(prob, w_final, tol=1e-10)
    if not check.ok:
        raise NumericError(
            f"final profile fails the supersolution check at node "
            f"{check.worst_node} (residual {check.worst_residual:.3e})")
    return KhasminskiiReport(
        w=DiscreteFunction(w_final, prob), n_stages=n_stages,
        budget_used=budget, h_limit_sup=0.0, verdict="PotentialBuilt",
        divergence=cls.divergence, stage_sups=tuple(sups))
