"""Radial initial-value solver and exhaustion-potential construction.

The radial problem ``[g^{m-1} phi(c z')]' = g^{m-1} B(c z)`` with
``z(R) = theta, z'(R) = mu`` is solved by fixed-point (Picard) iteration of
its integral reformulation on short windows, continued window by window.
Solutions either reach the requested radius or blow up at a finite radius,
which is detected and bracketed.  For ``B = 0`` the flux is constant and
the solution is one integral, built in one pass.  On top of the solvers
sit the slope selection rules and the small-on-an-annulus construction
that produce exhaustion potentials for triples of concentric balls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (DomainError, ModelManifold, NumericError, PhiOperator,
                   PotentialB, log_sphere_volume, phi_inverse, sphere_volume)
# the array calls of the Picard windows, under a name of their own so that
# a profile can tell them from the scalar calls
from .core import phi_inverse as phi_inverse_array
from .criteria import (DEFAULT_DIVERGENCE, DivergenceVerdict, Verdict,
                       classify_parabolic)

COMPLETE = "complete"
BLOWUP = "blowup"


def _cumint(y, x):
    """Cumulative integral of ``y`` from 0 on a strictly increasing grid
    ``x`` (``ValueError`` otherwise): the rule of
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0)``, bit for bit,
    without its array-API dispatch, which costs more than the rule on a
    window.  See ``_CumulativeSimpson``."""
    return _CumulativeSimpson(x)(y)


@functools.lru_cache(maxsize=32)
def _simpson_indices(n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays of ``_CumulativeSimpson`` on ``n_sub >= 2``
    sub-intervals, which depend on nothing else: for each sub-interval
    ``j`` the other spacing of its triple, and the triple's nodes from
    ``j`` outwards, ``(j, j+1, j+2)`` forward and ``(j+1, j, j-1)``
    backward.  Built on first use and read-only, since every grid of that
    size shares them."""
    j = np.arange(n_sub)
    fwd = np.zeros(n_sub, dtype=bool)
    fwd[:-1:2] = True
    other = np.where(fwd, j + 1, j - 1)
    nodes = j + np.where(fwd, [[0], [1], [2]], [[1], [0], [-1]])
    other.flags.writeable = False
    nodes.flags.writeable = False
    return other, nodes


class _CumulativeSimpson:
    """``_cumint``'s rule on a fixed grid ``x``.  Building it takes the
    spacings, their check and the coefficient arithmetic; the index arrays
    come from ``_simpson_indices``, cached per node count.  Applying it to
    samples ``y`` is one gather, five array operations and one cumulative
    sum.

    Even sub-intervals (but the last) integrate the quadratic through the
    triple they start, odd ones and the last the triple they end.  Either
    way sub-interval ``j`` is ``a ((p y0 + q y1) - s y2)`` with
    ``h1 = h[j]``, ``h2`` the other spacing of the triple,
    ``r31 = h1/(h1 + h2)``, ``r32 = r31 (h1/h2)``, ``a = h1/6``,
    ``p = 3 - r31``, ``q = 3 + r32 + r31``, ``s = r32`` and ``y0, y1, y2``
    the triple's samples from node ``j`` outwards: scipy's arithmetic, in
    its order.  Two-node grids (continuation restarts) take the trapezoid
    rule.
    """

    def __init__(self, x):
        h = np.diff(x)
        if not (h > 0).all():
            raise ValueError("grid must be strictly increasing")
        self.h = h
        if len(h) < 2:
            return
        other, self.nodes = _simpson_indices(len(h))
        h1, h2 = h, h[other]
        r31 = h1 / (h1 + h2)
        r32 = r31 * (h1 / h2)
        self.a, self.p, self.q, self.s = h1 / 6, 3 - r31, 3 + r32 + r31, r32

    def __call__(self, y):
        out = np.zeros(len(self.h) + 1)
        if len(self.h) < 2:
            sub = self.h * (y[1:] + y[:-1]) / 2.0
        else:
            y0, y1, y2 = y[self.nodes]
            sub = self.a * ((self.p * y0 + self.q * y1) - self.s * y2)
        # the ufunc loop of np.cumsum, without its dispatch
        np.add.accumulate(sub, out=out[1:])
        return out


class PicardNoConvergence(NumericError):
    """Fixed-point iteration failed on the requested interval."""


class EvansFailure(NumericError):
    """The small-annulus construction could not accept any scale."""

    def __init__(self, message: str, observed_sup: float = math.nan,
                 blowup_radius: Optional[float] = None):
        super().__init__(message)
        self.observed_sup = observed_sup
        self.blowup_radius = blowup_radius


class NoExhaustion(EvansFailure):
    """For ``B = 0`` the parabolicity test from ``R`` did not find the
    slope integral to diverge, so no scale gives an unbounded profile.
    ``divergence`` is the verdict of the test: ``Converges`` (no
    exhaustion exists) or ``Inconclusive`` (the test cannot tell)."""

    def __init__(self, message: str, divergence: DivergenceVerdict):
        super().__init__(message)
        self.divergence = divergence


@dataclass(frozen=True)
class CauchyParams:
    R: float
    theta: float
    mu: float
    c: float

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("base radius R must be positive")
        if self.theta < 0:
            raise ValueError("initial value theta must be >= 0")
        if self.mu <= 0:
            raise ValueError("initial slope mu must be positive")
        if not 0.0 < self.c <= 1.0:
            raise ValueError("scale c must lie in (0, 1]")


@dataclass(frozen=True)
class RadialSolution:
    grid: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    params: CauchyParams
    status: str                      # COMPLETE or BLOWUP
    r_max: float                     # reached radius (COMPLETE)
    blowup_radius: Optional[float] = None

    def sup_on(self, a: float, b: float) -> float:
        return _sup_on(self.grid, self.z, a, b)


@dataclass(frozen=True)
class EvansResult:
    solution: RadialSolution
    c_final: float
    mu_final: float
    sup_on_annulus: float
    K_bound: float
    exhaustion: Optional[DivergenceVerdict] = None   # B = 0 only


class _Window:
    """Everything the Picard applications on one window share, built once
    per window from the ``M``, ``op``, ``pot``, ``params`` and grid that
    ``volterra_apply`` is called with: the grid, checked to be
    one-dimensional and strictly increasing; the weights
    ``w = g**(m-1)`` from ``sphere_volume``, which refuses radii out of
    range and weights that overflow a double; the head flux
    ``w(R) phi(c mu)/w``; the rule of ``_cumint`` on the grid; and the
    application's constants ``op``, ``pot``, ``c`` and ``theta``."""

    def __init__(self, M: ModelManifold, op: PhiOperator, pot: PotentialB,
                 params: CauchyParams, grid):
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        self.w = sphere_volume(M, self.grid)
        self.cumint = _CumulativeSimpson(self.grid)
        self.op, self.pot = op, pot
        self.c, self.theta = params.c, params.theta
        with np.errstate(over="ignore", invalid="ignore"):
            self.head = (self.w[0] * float(op.phi(params.c * params.mu))
                         / self.w)

    def apply(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``volterra_apply`` on this window, for a float array ``u``; the
        caller holds ``np.errstate(over="ignore", invalid="ignore")``.
        Each check is one reduction."""
        if u.shape != self.grid.shape:
            raise ValueError("grid and samples must have matching shapes")
        if u.min() < 0:
            raise DomainError("samples must be nonnegative")
        w, c = self.w, self.c
        flux = self.head + self.cumint(w * self.pot(c * u)) / w
        if not np.isfinite(flux).all():
            raise PicardNoConvergence("flux overflow; shrink the interval")
        # the composite rule can undershoot on steep data; the true flux
        # of a nonnegative source never drops below zero
        slope = phi_inverse_array(self.op, np.maximum(flux, 0.0))
        return (self.theta + np.maximum(self.cumint(slope), 0.0) / c,
                slope / c)


def volterra_apply(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                   params: CauchyParams, grid: np.ndarray | _Window,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the integral-reformulation operator: the pair
    ``(T(u), T(u)')`` on the grid.

    ``T(u)(t) = theta + (1/c) * int_R^t phi^-1( w(R) phi(c mu)/w(s)
    + int_R^s (w(tau)/w(s)) B(c u(tau)) dtau ) ds`` with
    ``w = g**(m-1)`` (``sphere_volume``); the slope ``T(u)'`` is the
    integrand, ``phi^-1`` of the flux identity divided by ``c``, so it is
    never differentiated numerically.  Both cumulative integrals use a
    composite higher-order rule on the shared grid, which must be strictly
    increasing (``ValueError`` otherwise).

    ``grid`` is an array, or the ``_Window`` that ``solve_on_interval``
    builds from one for all of a window's applications; the result is the
    same bit for bit.  On a window the application is one lean pass: the
    window's own ``op``, ``pot`` and ``params`` apply, ``u`` must be a
    float array, and the caller holds the ``np.errstate`` (as
    ``solve_on_interval`` does once per window).  Its checks (the shape,
    ``u >= 0`` and a finite flux, else ``PicardNoConvergence``) are one
    reduction each.
    """
    if isinstance(grid, _Window):
        return grid.apply(u)
    win = _Window(M, op, pot, params, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        return win.apply(np.asarray(u, dtype=float))


# A Picard iterate has converged once an application moves it by at most
# PICARD_TOL; a window fails at a growing increment or PICARD_MAX_ITER.
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200


def solve_on_interval(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                      params: CauchyParams, r_end: float, n_nodes: int = 64
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed point ``(grid, z, zp)`` on ``n_nodes`` uniform nodes of
    ``[R, r_end]``: the first Picard application, value and slope, that
    moves the iterate by at most ``PICARD_TOL``; raises at a growing
    increment, where the iteration does not contract, or at the cap.
    The window is built once and the whole iteration runs under one
    ``np.errstate``; each application goes through ``volterra_apply``."""
    if r_end <= params.R:
        raise DomainError("r_end must exceed the base radius")
    grid = np.linspace(params.R, r_end, n_nodes)
    window = _Window(M, op, pot, params, grid)
    u, delta = np.full(n_nodes, params.theta), math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, PICARD_MAX_ITER + 1):
            v, vp = volterra_apply(M, op, pot, params, window, u)
            if not np.isfinite(v).all():
                raise PicardNoConvergence("iteration produced non-finite "
                                          "values; shrink the interval")
            last, delta = delta, float(np.abs(v - u).max())
            u = v
            if delta <= PICARD_TOL:
                return grid, u, vp
            if delta > last:
                break
    raise PicardNoConvergence(
        f"no fixed point: Picard increment {last:.3e}, then {delta:.3e} at "
        f"application {k}; shrink the interval")


def _march(M: ModelManifold, op: PhiOperator, pot: PotentialB,
           params: CauchyParams, R_max: float, blowup_threshold: float,
           nodes_per_window: int):
    """``solve_cauchy``'s window continuation, lazily: yields the solution
    in pieces ``(grid, z, zp)``, first the node ``(R, theta, mu)`` and then
    each accepted window without its first node, and returns
    ``(status, r_reached, blowup_radius)``."""
    if R_max <= params.R:
        raise DomainError("R_max must exceed the base radius")
    if nodes_per_window < 2:
        raise ValueError(
            f"nodes_per_window must be >= 2, got {nodes_per_window}")
    base_window = min(1.0, (R_max - params.R) / 16.0)
    window = base_window
    min_window = 1e-8 * params.R

    yield np.array([params.R]), np.array([params.theta]), \
        np.array([params.mu])
    cur = params
    halved = False
    while cur.R < R_max:
        r_end = min(cur.R + window, R_max)
        try:
            grid, z, zp = solve_on_interval(M, op, pot, cur, r_end,
                                            n_nodes=nodes_per_window)
        except PicardNoConvergence:
            window *= 0.5
            halved = True
            if window < min_window:
                if cur.theta > 1e3 * max(1.0, params.theta + 1.0):
                    return BLOWUP, cur.R, cur.R + 0.5 * window
                raise NumericError(
                    "window underflow without blow-up signature")
            continue
        over = np.nonzero(z > blowup_threshold)[0]
        if len(over) > 0:
            k = int(over[0])
            cut = max(k, 1)
            yield grid[1:cut + 1], z[1:cut + 1], zp[1:cut + 1]
            return BLOWUP, grid[cut], 0.5 * (grid[max(k - 1, 0)] + grid[k])
        yield grid[1:], z[1:], zp[1:]
        cur = CauchyParams(r_end, float(z[-1]), float(zp[-1]), params.c)
        window = window if halved else min(window * 2.0, base_window)
        halved = False
    return COMPLETE, R_max, None


def _take(march, pieces: list, until: float = math.inf):
    """Move the pieces of ``march`` onto ``pieces`` until one ends at or
    past ``until``.  Returns the march's ``(status, r_reached,
    blowup_radius)`` if it ended, or ``None`` if it stopped at such a
    piece and can go on."""
    while True:
        try:
            piece = next(march)
        except StopIteration as end:
            return end.value
        pieces.append(piece)
        if piece[0][-1] >= until:
            return None


def solve_cauchy(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                 params: CauchyParams, R_max: float,
                 blowup_threshold: float = 1e8,
                 nodes_per_window: int = 64) -> RadialSolution:
    """March the radial problem to ``R_max`` by window continuation.

    Each window is solved by fixed-point iteration; the restart state
    ``(theta, mu)`` is the last node of its value and slope.  Windows halve
    on non-convergence and double, up to the first width, after one that
    did not; crossing ``blowup_threshold`` reports a finite blow-up radius
    bracketed by the last grid cell.
    """
    pieces = []
    end = _take(_march(M, op, pot, params, R_max, blowup_threshold,
                       nodes_per_window), pieces)
    return _assemble(pieces, params, *end)


def _concat(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.concatenate(a) for a in zip(*pieces))


def _assemble(pieces, params, status, r_reached, rho):
    grid, z, zp = _concat(pieces)
    return RadialSolution(
        grid=grid, z=z, zp=zp, params=params, status=status,
        r_max=float(r_reached), blowup_radius=rho)


def _sup_on(grid: np.ndarray, z: np.ndarray, a: float, b: float) -> float:
    mask = (grid >= a) & (grid <= b)
    if not np.any(mask):
        raise DomainError("no solution nodes in the requested interval")
    return float(np.max(z[mask]))


def _constant_flux_slope(M: ModelManifold, op: PhiOperator,
                         params: CauchyParams, r) -> np.ndarray:
    """``z' = phi^-1(phi(c mu) w(R)/w(r))/c``, the slope of the ``B = 0``
    solution, with the weight ratio taken in log form so that no weight
    overflows."""
    ratio = np.exp(log_sphere_volume(M, params.R) - log_sphere_volume(M, r))
    y = float(op.phi(params.c * params.mu)) * ratio
    return phi_inverse_array(op, y) / params.c


def constant_flux_profile(M: ModelManifold, op: PhiOperator,
                          params: CauchyParams, R_max: float,
                          nodes_per_window: int = 64) -> RadialSolution:
    """The radial solution for ``B = 0`` in one pass, on the nodes that
    ``solve_cauchy`` uses when no window halves, bit for bit: windows of
    ``min(1, (R_max - R)/16)`` from ``R``, the last cut at ``R_max``,
    ``nodes_per_window`` uniform nodes each.

    The flux ``w phi(c z')`` is constant, so the slope is
    ``_constant_flux_slope`` exactly and ``z = theta + int_R^r z'`` is its
    cumulative Simpson integral over the whole grid.
    """
    if R_max <= params.R:
        raise DomainError("R_max must exceed the base radius")
    if nodes_per_window < 2:
        raise ValueError(
            f"nodes_per_window must be >= 2, got {nodes_per_window}")
    base = min(1.0, (R_max - params.R) / 16.0)
    ends = [params.R]
    while ends[-1] < R_max:
        ends.append(min(ends[-1] + base, R_max))
    windows = np.linspace(ends[:-1], ends[1:], nodes_per_window, axis=1)
    grid = np.concatenate([[params.R], windows[:, 1:].ravel()])
    zp = _constant_flux_slope(M, op, params, grid)
    return RadialSolution(grid=grid, z=params.theta + _cumint(zp, grid),
                          zp=zp, params=params, status=COMPLETE,
                          r_max=float(R_max))


def choose_mu(op: PhiOperator, c: float) -> float:
    """Largest slope keeping the scaled initial flux below ``c**(p-1)``.

    This is the choice that makes the sup of the solution on a fixed
    annulus uniformly bounded in ``c``.
    """
    if not 0.0 < c <= 1.0:
        raise DomainError("choose_mu requires c in (0, 1]")
    return phi_inverse(op, c ** (op.p - 1.0)) / c


def evans_for_triple(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                     R: float, R1: float, eps: float, R_max: float,
                     blowup_threshold: float = 1e8,
                     nodes_per_window: int = 64,
                     c_min: float = 1e-12) -> EvansResult:
    """Exhaustion solution small on the annulus ``[R, R1]``.

    Halves the scale ``c`` from 1, picking the matched slope each time,
    until the scaled solution stays below ``eps`` on the annulus.  Requires
    a monotone warping and a potential with a ``t**(p-1)`` upper bound,
    ``p`` the operator's (otherwise solutions blow up and no scale can be
    accepted).  Otherwise each scale is decided by the windows of its
    ``solve_cauchy`` march that cover the annulus, and only the accepted
    scale is marched on to ``R_max``; a ``BLOWUP`` there is a threshold
    crossing and raises ``EvansFailure``.  For ``B = 0`` each scale's
    solution is ``constant_flux_profile``, whose slope is ``v_pa`` up to
    scale, and ``classify_parabolic`` from ``R`` decides first whether its
    integral diverges (up to its ``r_max`` or the end of a table):
    ``NoExhaustion`` unless it does.  The pinching of ``phi`` makes that
    verdict the same for every scale.
    """
    if not (0 < R < R1 < R_max):
        raise DomainError("need 0 < R < R1 < R_max")
    if eps <= 0:
        raise DomainError("eps must be positive")
    if not 0.0 < c_min <= 1.0:
        raise DomainError(f"c_min must lie in (0, 1], got {c_min:.6g}")
    if pot.b1 is None:
        raise DomainError(
            "potential lacks a t**(p-1) upper bound; the uniform sup bound "
            "does not apply")
    if pot.homogeneity is not None and pot.homogeneity > op.p - 1.0:
        raise DomainError(
            f"potential {pot.name} grows like t**{pot.homogeneity:g}, "
            f"faster than t**(p-1) = t**{op.p - 1.0:g} of the operator "
            f"{op.name}; its bound b1 t**(p-1) does not hold")
    if not M.monotone:
        raise DomainError("the construction requires a non-decreasing warping")
    exhaustion = None
    if pot.b1 == 0:
        M._check_radius(R_max)       # a short table fails before its tail
        cfg = replace(DEFAULT_DIVERGENCE,
                      r_max=min(DEFAULT_DIVERGENCE.r_max, M.r_max_valid))
        exhaustion = classify_parabolic(M, op, cfg, R).divergence
        if exhaustion.verdict is not Verdict.DIVERGES:
            raise NoExhaustion(
                "no exhaustion: the parabolicity test says "
                f"{exhaustion.verdict.value} (partial integral "
                f"{exhaustion.partial_integral:.6g}, slope "
                f"{exhaustion.slope_estimate:.6g})", exhaustion)
    c = 1.0
    while c >= c_min:
        mu = choose_mu(op, c)
        params = CauchyParams(R=R, theta=0.0, mu=mu, c=c)
        if exhaustion is not None:
            sol = constant_flux_profile(M, op, params, R_max,
                                        nodes_per_window=nodes_per_window)
            K_obs = sol.sup_on(R, R1)
        else:
            # the windows that cover [R, R1] decide the scale; only the
            # accepted one is marched on to R_max
            march = _march(M, op, pot, params, R_max, blowup_threshold,
                           nodes_per_window)
            pieces = []
            end = _take(march, pieces, R1)
            if end is not None:
                raise _threshold_failure(_assemble(pieces, params, *end),
                                         blowup_threshold)
            grid, z, _ = _concat(pieces)
            K_obs = _sup_on(grid, z, R, R1)
        sup = c * K_obs
        if sup < eps:
            if exhaustion is None:
                sol = _assemble(pieces, params, *_take(march, pieces))
                if sol.status == BLOWUP:
                    raise _threshold_failure(sol, blowup_threshold)
            if np.any(np.diff(sol.z) <= 0):
                raise NumericError("accepted solution is not increasing")
            return EvansResult(solution=sol, c_final=c, mu_final=mu,
                               sup_on_annulus=sup, K_bound=K_obs,
                               exhaustion=exhaustion)
        c *= 0.5
    raise EvansFailure(
        "no admissible scale above the floor; observed annulus bound "
        f"{sup:.6g}", observed_sup=sup)


def _threshold_failure(sol: RadialSolution,
                       blowup_threshold: float) -> EvansFailure:
    """``EvansFailure`` for a ``BLOWUP`` inside ``evans_for_triple``.  The
    bound ``B <= b1 t**(p-1)`` rules out a finite-radius blow-up there, so
    the march either crossed the threshold or its windows underflowed."""
    how = ("crossed" if sol.z[-1] > blowup_threshold
           else "stalled (window underflow) below")
    return EvansFailure(
        f"solution at c={sol.params.c:.6g} {how} the blow-up threshold "
        f"{blowup_threshold:g} at radius {sol.blowup_radius:.6g}",
        blowup_radius=sol.blowup_radius)


def ode_residual(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                 sol: RadialSolution) -> float:
    """Max normalized defect of the flux-form equation at interior nodes."""
    if sol.status != COMPLETE:
        raise DomainError("residual is defined for completed solutions")
    r, z, zp = sol.grid, sol.z, sol.zp
    c = sol.params.c
    w = sphere_volume(M, r)
    flux = w * np.asarray(op.phi(c * zp), dtype=float)
    dflux = (flux[2:] - flux[:-2]) / (r[2:] - r[:-2])
    rhs = (w * np.asarray(pot(c * z), dtype=float))[1:-1]
    return float(np.max(np.abs(dflux - rhs) / (1.0 + rhs)))
