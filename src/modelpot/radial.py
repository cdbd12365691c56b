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

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (DomainError, ModelManifold, NumericError, PhiOperator,
                   PotentialB, _CumulativeSimpson, log_sphere_volume,
                   phi_inverse, sphere_volume)
# the array calls of the Picard windows, under a name of their own so that
# a profile can tell them from the scalar calls
from .core import phi_inverse as phi_inverse_array
from .criteria import (DEFAULT_DIVERGENCE, DivergenceVerdict, Verdict,
                       classify_KL)

COMPLETE = "complete"
BLOWUP = "blowup"
# evans_for_triple halves the scale c from 1 while c >= EVANS_C_MIN
EVANS_C_MIN = 1e-12


class PicardNoConvergence(NumericError):
    """Fixed-point iteration failed on the requested interval."""


class FluxOverflow(PicardNoConvergence):
    """A Picard application's flux overflowed a double."""


class EvansFailure(NumericError):
    """The small-annulus construction accepted no scale, or its march
    stalled before ``R_max``."""

    def __init__(self, message: str, observed_sup: float = math.nan):
        super().__init__(message)
        self.observed_sup = observed_sup


class NoExhaustion(EvansFailure):
    """The Liouville test (``classify_KL``) from ``R`` did not find its
    profile's integral to diverge, so no scale gives an exhaustion.
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
    """The accepted profile and scale, and the Liouville test
    (``classify_KL``) whose divergence admitted it."""
    solution: RadialSolution
    c_final: float
    mu_final: float
    sup_on_annulus: float
    exhaustion: DivergenceVerdict


class _Window:
    """Everything the Picard applications on one window share, built once
    per window: the grid, checked to be one-dimensional and strictly
    increasing; the weights ``w = g**(m-1)`` from ``sphere_volume``, which
    refuses radii out of range and weights that overflow a double; the
    head flux ``w(R) phi(c mu)/w``; the ``_CumulativeSimpson`` rule of the
    grid; and the application's constants ``op``, ``pot``, ``c`` and
    ``theta``."""

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


def volterra_apply(window: _Window,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the integral-reformulation operator on a
    ``_Window``: the pair ``(T(u), T(u)')`` on its grid.

    ``T(u)(t) = theta + (1/c) * int_R^t phi^-1( w(R) phi(c mu)/w(s)
    + int_R^s (w(tau)/w(s)) B(c u(tau)) dtau ) ds`` with
    ``w = g**(m-1)`` (``sphere_volume``); the slope ``T(u)'`` is the
    integrand, ``phi^-1`` of the flux identity divided by ``c``, so it is
    never differentiated numerically.  Both cumulative integrals use the
    window's composite higher-order rule.

    ``u`` is a float array on the window's grid; the caller holds
    ``np.errstate(over="ignore", invalid="ignore")``, as
    ``solve_on_interval`` does once per window.  The checks (the shape,
    ``u >= 0`` and a finite flux, else ``FluxOverflow``) are one
    reduction each.
    """
    if u.shape != window.grid.shape:
        raise ValueError("grid and samples must have matching shapes")
    if u.min() < 0:
        raise DomainError("samples must be nonnegative")
    w, c = window.w, window.c
    # c > 0 and u >= 0: the samples need no clamp at zero
    flux = window.head + window.cumint(w * window.pot.B(c * u)) / w
    if not np.isfinite(flux).all():
        raise FluxOverflow("flux overflow; shrink the interval")
    # the composite rule can undershoot on steep data; the true flux
    # of a nonnegative source never drops below zero
    slope = phi_inverse_array(window.op, np.maximum(flux, 0.0))
    return (window.theta + np.maximum(window.cumint(slope), 0.0) / c,
            slope / c)


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
            v, vp = volterra_apply(window, u)
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


def _base_window(params: CauchyParams, R_max: float,
                 nodes_per_window: int) -> float:
    """The march's first window width, ``min(1, (R_max - R)/16)``, once
    ``R < R_max < inf`` and ``nodes_per_window >= 2`` are checked."""
    if not params.R < R_max < math.inf:
        raise DomainError("R_max must be finite and exceed the base radius, "
                          f"got {R_max:g}")
    if nodes_per_window < 2:
        raise ValueError(
            f"nodes_per_window must be >= 2, got {nodes_per_window}")
    return min(1.0, (R_max - params.R) / 16.0)


def _march(M: ModelManifold, op: PhiOperator, pot: PotentialB,
           params: CauchyParams, R_max: float, blowup_threshold: float,
           nodes_per_window: int):
    """``solve_cauchy``'s window continuation, lazily: yields the solution
    in pieces ``(grid, z, zp)``, first the node ``(R, theta, mu)`` and then
    each accepted window without its first node, and returns
    ``(status, r_reached, blowup_radius, failure)``: ``failure`` is the
    ``PicardNoConvergence`` of the last window if its halving underflowed,
    else ``None``."""
    base_window = _base_window(params, R_max, nodes_per_window)
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
        except PicardNoConvergence as failure:
            window *= 0.5
            halved = True
            if window < min_window:
                if cur.theta > 1e3 * max(1.0, params.theta + 1.0):
                    return BLOWUP, cur.R, cur.R + 0.5 * window, failure
                raise NumericError(
                    "window underflow without blow-up signature")
            continue
        over = np.nonzero(z > blowup_threshold)[0]
        if len(over) > 0:
            k = int(over[0])
            cut = max(k, 1)
            yield grid[1:cut + 1], z[1:cut + 1], zp[1:cut + 1]
            return (BLOWUP, grid[cut],
                    0.5 * (grid[max(k - 1, 0)] + grid[k]), None)
        yield grid[1:], z[1:], zp[1:]
        cur = CauchyParams(r_end, float(z[-1]), float(zp[-1]), params.c)
        window = window if halved else min(window * 2.0, base_window)
        halved = False
    return COMPLETE, R_max, None, None


def _take(march, pieces: list, until: float = math.inf):
    """Move the pieces of ``march`` onto ``pieces`` until one ends at or
    past ``until``.  Returns the march's ``(status, r_reached,
    blowup_radius, failure)`` if it ended, or ``None`` if it stopped at
    such a piece and can go on."""
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
    return _assemble(pieces, params, end)


def _concat(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.concatenate(a) for a in zip(*pieces))


def _assemble(pieces, params, end) -> RadialSolution:
    grid, z, zp = _concat(pieces)
    status, r_reached, rho, _ = end
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


def _constant_flux_grid(params: CauchyParams, R_max: float,
                        nodes_per_window: int) -> np.ndarray:
    """The nodes that ``solve_cauchy`` uses when no window halves: windows
    of the ``_base_window`` width from ``R``, the last cut at ``R_max``,
    ``nodes_per_window`` uniform nodes each.  They depend on ``R`` but not
    on the scale ``c``."""
    base = _base_window(params, R_max, nodes_per_window)
    ends = [params.R]
    while ends[-1] < R_max:
        ends.append(min(ends[-1] + base, R_max))
    windows = np.linspace(ends[:-1], ends[1:], nodes_per_window, axis=1)
    return np.concatenate([[params.R], windows[:, 1:].ravel()])


def constant_flux_profile(M: ModelManifold, op: PhiOperator,
                          params: CauchyParams, R_max: float,
                          nodes_per_window: int = 64) -> RadialSolution:
    """The radial solution for ``B = 0`` in one pass, with no Picard
    iteration, on the nodes that ``solve_cauchy`` uses when no window
    halves (``_constant_flux_grid``), bit for bit.  The flux ``w phi(c
    z')`` is constant, so the slope is ``_constant_flux_slope`` exactly and
    ``z = theta + int_R^r z'`` is its cumulative Simpson integral."""
    grid = _constant_flux_grid(params, R_max, nodes_per_window)
    zp = _constant_flux_slope(M, op, params, grid)
    z = params.theta + _CumulativeSimpson(grid)(zp)
    return RadialSolution(grid=grid, z=z, zp=zp, params=params,
                          status=COMPLETE, r_max=float(R_max))


def _constant_flux_march(M: ModelManifold, op: PhiOperator,
                         params: CauchyParams, grid: np.ndarray, R1: float,
                         nodes_per_window: int):
    """``constant_flux_profile`` on its ``grid`` as a march of
    ``(grid, z, zp)`` pieces, like ``_march``: the nodes up to the first
    window end at or past ``R1``, then the rest; returns ``(COMPLETE,
    R_max, None, None)``.  The first piece is evaluated on its nodes plus
    the next one, which gives every kept Simpson sub-interval the whole
    grid's triple, so a rejected scale costs only its annulus.  Going on
    evaluates the other nodes (the slope is elementwise) and takes one
    Simpson pass over the grid, the same on the annulus bit for bit."""
    # window ends are every (nodes_per_window - 1)-th node
    step = nodes_per_window - 1
    cut = math.ceil(np.searchsorted(grid, R1) / step) * step + 1
    zp = _constant_flux_slope(M, op, params, grid[:cut + 1])
    z = params.theta + _CumulativeSimpson(grid[:cut + 1])(zp)
    yield grid[:cut], z[:cut], zp[:cut]
    if cut < len(grid):
        zp = np.concatenate(
            [zp, _constant_flux_slope(M, op, params, grid[cut + 1:])])
        z = params.theta + _CumulativeSimpson(grid)(zp)
        yield grid[cut:], z[cut:], zp[cut:]
    return COMPLETE, float(grid[-1]), None, None


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
                     nodes_per_window: int = 64) -> EvansResult:
    """Exhaustion solution small on the annulus ``[R, R1]``.

    An exhaustion exists iff the Liouville property holds, so
    ``classify_KL`` from ``R`` (up to its ``r_max`` or the end of a table)
    decides first: ``NoExhaustion`` unless its profile's integral
    diverges, a verdict that the pinching of ``phi`` makes the same for
    every scale.  Then halves the scale ``c`` from 1 (down to
    ``EVANS_C_MIN``), picking the matched slope each time, until the scaled
    solution stays below ``eps`` on the annulus.  Requires a monotone
    warping and a potential with a ``t**(p-1)`` upper bound, ``p`` the
    operator's, under which no solution blows up.  Each scale runs one
    march, the exact ``_constant_flux_march`` for ``B = 0`` or else the
    ``solve_cauchy`` march with no threshold: its pieces that cover the
    annulus decide the scale (for ``B = 0``, on one grid for all scales,
    only the nodes of the windows that cover it, plus one, are evaluated,
    and the accepted scale then evaluates the others), and only the
    accepted scale is marched on to ``R_max``.  A march that stalls
    (window underflow) raises ``DomainError`` naming the flux if its last
    window failed on a flux that overflowed a double, else
    ``EvansFailure``.
    """
    if not (0 < R < R1 < R_max):
        raise DomainError("need 0 < R < R1 < R_max")
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps:g}")
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
    M._check_radius(R_max)           # a short table fails before its tail
    cfg = replace(DEFAULT_DIVERGENCE,
                  r_max=min(DEFAULT_DIVERGENCE.r_max, M.r_max_valid))
    dv = classify_KL(M, op, pot, cfg, R).divergence
    if dv.verdict is not Verdict.DIVERGES:
        raise NoExhaustion(
            f"no exhaustion: the Liouville test says {dv.verdict.value} "
            f"(partial integral {dv.partial_integral:.6g}, slope "
            f"{dv.slope_estimate:.6g})", dv)
    c, flux_grid = 1.0, None
    while c >= EVANS_C_MIN:
        mu = choose_mu(op, c)
        params = CauchyParams(R=R, theta=0.0, mu=mu, c=c)
        if pot.b1 != 0:
            march = _march(M, op, pot, params, R_max, math.inf,
                           nodes_per_window)
        else:
            if flux_grid is None:
                flux_grid = _constant_flux_grid(params, R_max,
                                                nodes_per_window)
            march = _constant_flux_march(M, op, params, flux_grid, R1,
                                         nodes_per_window)
        pieces = []
        end = _take(march, pieces, R1)
        if end is not None:
            raise _stalled(params, pieces, end)
        grid, z, _ = _concat(pieces)
        sup = c * _sup_on(grid, z, R, R1)
        if sup < eps:
            end = _take(march, pieces)
            if end[0] == BLOWUP:
                raise _stalled(params, pieces, end)
            sol = _assemble(pieces, params, end)
            if np.any(np.diff(sol.z) <= 0):
                raise NumericError("accepted solution is not increasing")
            return EvansResult(solution=sol, c_final=c, mu_final=mu,
                               sup_on_annulus=sup, exhaustion=dv)
        c *= 0.5
    raise EvansFailure(
        "no admissible scale above the floor; observed annulus bound "
        f"{sup:.6g}", observed_sup=sup)


def _stalled(params: CauchyParams, pieces: list, end) -> Exception:
    """The error for a march of ``evans_for_triple`` that ended before
    ``R_max``.  It has no threshold, so its windows underflowed: on a flux
    past the largest double (``DomainError``), or else (``EvansFailure``).
    """
    _, r_reached, _, failure = end
    where = f"radius {r_reached:.6g}, where z = {pieces[-1][1][-1]:.6g}"
    if isinstance(failure, FluxOverflow):
        return DomainError(
            f"the flux w phi(c z') of the march at c={params.c:.6g} "
            f"overflows a double past {where}; take a smaller R_max")
    return EvansFailure(f"the march at c={params.c:.6g} stalled (window "
                        f"underflow) at {where}")
