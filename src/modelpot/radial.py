"""Radial initial-value solver and exhaustion-potential construction.

The radial problem ``[g^{m-1} phi(c z')]' = g^{m-1} B(c z)`` with
``z(R) = theta, z'(R) = mu`` is solved by fixed-point (Picard) iteration of
its integral reformulation on short windows, continued window by window.
Solutions either reach the requested radius or blow up at a finite radius,
which is certified and then located with ``z`` as the variable, past the
last window that converged.  For ``B = 0`` the flux is constant and
the solution is one integral, built in one pass on the divergence test's
geometric grid with its Simpson rule in ``log r``.  On top of the solvers
sit the slope selection rules and the small-on-an-annulus construction
that produce exhaustion potentials for triples of concentric balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import criteria
from .core import (DomainError, ModelManifold, NumericError, PhiOperator,
                   PotentialB, _CumulativeSimpson, geometric_grid,
                   grid_through, log_sphere_volume, phi_inverse)
# the phi^-1 of the Picard applications, under a name of their own so that
# a profile counts them: the solve alone, since an application's finite,
# clamped flux is in [0, inf).  Every other call here is checked.
from .core import _phi_inverse_in_domain as phi_inverse_array
from .criteria import DivergenceVerdict, Verdict, classify_KL

COMPLETE = "complete"
BLOWUP = "blowup"
# evans_for_triple halves the scale c from 1 while c >= EVANS_C_MIN
EVANS_C_MIN = 1e-12


class PicardNoConvergence(NumericError):
    """Fixed-point iteration failed on the requested interval."""


class FluxOverflow(PicardNoConvergence):
    """A Picard application passed the largest double: in its flux
    ``phi(c z')``, or in the profile ``z`` itself."""


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
        # each check fails on nan
        if not self.R > 0:
            raise ValueError(f"base radius R must be positive, got {self.R}")
        if not self.theta >= 0:
            raise ValueError(f"initial theta must be >= 0, got {self.theta}")
        if not self.mu > 0:
            raise ValueError(f"initial slope mu must be > 0, got {self.mu}")
        if not 0.0 < self.c <= 1.0:
            raise ValueError(f"scale c must lie in (0, 1], got {self.c:g}")


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
    increasing; the weights ``w = g**(m-1)`` relative to the first node,
    ``exp(L - L[0])`` from ``log_sphere_volume``, which refuses radii out
    of range (a ratio past a double gives a non-finite flux, and the march
    halves the window); the head flux ``phi(c mu)/w``; the
    ``_CumulativeSimpson`` rule of the grid; and the application's
    constants ``op``, ``pot``, ``c`` and ``theta``."""

    def __init__(self, M: ModelManifold, op: PhiOperator, pot: PotentialB,
                 params: CauchyParams, grid):
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1:
            raise ValueError("grid must be one-dimensional")
        L = log_sphere_volume(M, self.grid)
        self.cumint = _CumulativeSimpson(self.grid)
        self.op, self.pot = op, pot
        self.c, self.theta = params.c, params.theta
        with np.errstate(over="ignore", divide="ignore"):
            self.w = np.exp(L - L[0])
            self.head = float(op.phi(params.c * params.mu)) / self.w


def volterra_apply(window: _Window,
                   u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One application of the integral-reformulation operator on a
    ``_Window``: the pair ``(T(u), T(u)')`` on its grid.

    ``T(u)(t) = theta + (1/c) * int_R^t phi^-1( w(R) phi(c mu)/w(s)
    + int_R^s (w(tau)/w(s)) B(c u(tau)) dtau ) ds`` with
    ``w = g**(m-1)``, relative to ``w(R)``; the slope ``T(u)'`` is the
    integrand, ``phi^-1`` of the flux identity divided by ``c``, so it is
    never differentiated numerically.  Both cumulative integrals use the
    window's composite higher-order rule.

    ``u`` is a float array on the window's grid; the caller holds
    ``np.errstate(over="ignore", invalid="ignore")``, as
    ``solve_on_interval`` does once per window.  The checks (the shape,
    ``u >= 0`` and a finite flux, else ``FluxOverflow``) are one
    reduction each; the finite flux, clamped at zero, is in ``phi^-1``'s
    domain, which is therefore not checked again.
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
# PICARD_TOL of its largest value, which is scale-free: an absolute bound
# sits below an ulp of a large profile and above all of a tiny one.  A
# window fails at a growing increment or PICARD_MAX_ITER.
PICARD_TOL = 1e-10
PICARD_MAX_ITER = 200
# the uniform nodes of each window of an evans march, and solve_cauchy's
# default, which the tests refine
NODES_PER_WINDOW = 64


def solve_on_interval(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                      params: CauchyParams, r_end: float, n_nodes: int = 64
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed point ``(grid, z, zp)`` on ``n_nodes`` uniform nodes of
    ``[R, r_end]``: the first Picard application, value and slope, whose
    increment ``max|v - u|`` is at most ``PICARD_TOL * max(v)`` (``v >=
    theta >= 0``, so that is ``max|v|``), so that scaling the data scales
    the answer; raises at a growing increment, where the iteration does
    not contract, or at the cap.  The increment is also the finiteness
    check: ``u`` is finite, so it is finite exactly when ``v`` is.  The
    window is built once and the whole iteration runs under one
    ``np.errstate``; each application goes through ``volterra_apply``."""
    if r_end <= params.R:
        raise DomainError("r_end must exceed the base radius")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    grid = np.linspace(params.R, r_end, n_nodes)
    window = _Window(M, op, pot, params, grid)
    u, delta = np.full(n_nodes, params.theta), math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, PICARD_MAX_ITER + 1):
            v, vp = volterra_apply(window, u)
            d = v - u
            last, delta = delta, float(np.abs(d, out=d).max())
            if not math.isfinite(delta):
                raise FluxOverflow("iteration produced non-finite values; "
                                   "shrink the interval")
            u = v
            if delta <= PICARD_TOL * v.max():
                return grid, u, vp
            if delta > last:
                break
    raise PicardNoConvergence(
        f"no fixed point: Picard increment {last:.3e}, then {delta:.3e} at "
        f"application {k}; shrink the interval")


def _march(M: ModelManifold, op: PhiOperator, pot: PotentialB,
           params: CauchyParams, R_max: float, nodes_per_window: int,
           hand_over: bool = False):
    """``solve_cauchy``'s window continuation, lazily: yields the solution
    in pieces ``(grid, z, zp)``, first the node ``(R, theta, mu)`` and then
    each accepted window of ``nodes_per_window`` uniform nodes without its
    first node, and returns ``(status, r_reached, blowup_radius)``.

    The width rule: ``R < R_max < inf`` is checked; no window is wider
    than ``min(1, (R_max - R)/16)``, the first no wider than ``R``, so
    that a march from a small radius resolves it; a window doubles, up to
    that cap, after one that did not halve; and a window that would leave
    less than ``1e-8 R`` before ``R_max``, too short to hold distinct
    nodes, ends at ``R_max``.

    With ``hand_over``, the first window that fails where ``z > 0`` hands
    the march over to ``_blowup_tail`` from the last accepted node, once:
    if it certifies a blow-up radius, its nodes are the last piece and
    the status is ``BLOWUP``.  Otherwise windows halve, and a width below
    ``1e-8 R`` raises ``NumericError`` naming the missing certificate.
    Without it (the ``evans_for_triple`` marches, which never blow up)
    that underflow raises ``DomainError`` if the last window passed the
    largest double (``FluxOverflow``), else ``EvansFailure``; each names
    ``c``, the radius and ``z`` there."""
    if not params.R < R_max < math.inf:
        raise DomainError("R_max must be finite and exceed the base radius, "
                          f"got {R_max:g}")
    cap = min(1.0, (R_max - params.R) / 16.0)
    window = min(params.R, cap)
    min_window = 1e-8 * params.R

    yield np.array([params.R]), np.array([params.theta]), \
        np.array([params.mu])
    cur = params
    halved = False
    missing = None
    while cur.R < R_max:
        r_end = cur.R + window
        if r_end > R_max - min_window:
            r_end = R_max
        try:
            grid, z, zp = solve_on_interval(M, op, pot, cur, r_end,
                                            n_nodes=nodes_per_window)
        except PicardNoConvergence as failure:
            if hand_over and missing is None and cur.theta > 0:
                try:
                    r, z, zp, radius = _blowup_tail(M, op, pot, cur, R_max)
                except (DomainError, NumericError) as exc:
                    missing = str(exc)
                else:
                    yield r, z, zp
                    return BLOWUP, float(r[-1]), radius
            window *= 0.5
            halved = True
            if window < min_window:
                where = f"radius {cur.R:.6g}, where z = {cur.theta:.6g}"
                if hand_over:
                    raise NumericError(
                        f"window underflow at {where}, with no blow-up "
                        f"certificate: {missing or 'the tail needs z > 0'}")
                if isinstance(failure, FluxOverflow):
                    raise DomainError(
                        f"the march at c={params.c:.6g} passes the largest "
                        f"double, in phi(c z') or in z, past {where}; take "
                        "a smaller R_max")
                raise EvansFailure(f"the march at c={params.c:.6g} stalled "
                                   f"(window underflow) at {where}")
            continue
        yield grid[1:], z[1:], zp[1:]
        cur = CauchyParams(r_end, float(z[-1]), float(zp[-1]), params.c)
        window = window if halved else min(window * 2.0, cap)
        halved = False
    return COMPLETE, R_max, None


# The blow-up tail runs y = c z over TAIL_SPAN times its first value; the
# log-derivative of the weight is a centred difference of relative step
# TAIL_STEP, whose truncation (~1e-11) and rounding (~1e-11) balance.
TAIL_SPAN = 1e6
TAIL_STEP = 1e-5
# K(y'*) is the kinetic table's rule on y'* times these 64 panels, read-only
_KINETIC_PANEL = np.append(0.0, np.geomspace(1e-8, 1.0, 65))
_KINETIC_PANEL.flags.writeable = False


def _blowup_tail(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                 node: CauchyParams, R_max: float):
    """The solution past ``node`` with ``y = c z`` as the variable, and
    its certified blow-up radius: ``(r, z, zp, radius)``, the nodes cut
    where ``r`` stops increasing.  ``NumericError`` names the certificate
    that is missing.

    The first certificate is ``keller_osserman`` saying ``NotKO_fails``
    (Keller, CPAM 10, 1957; Osserman, Pacific J. Math. 7, 1957).  Along a
    solution ``y' > 0``, so ``E = K(y')``, ``K(t) = int_0^t s phi'(s) ds``,
    obeys ``dE/dy = B(y) - (w'/w)(r) phi(y')`` and ``dr/dy = 1/y'``.  From
    the node's ``(r*, y*, y'*)`` both are solved on the nodes ``y = y_c +
    geometric_grid(y* - y_c, TAIL_SPAN y* - y_c)`` by sweeps of the fixed
    point ``E = K(y'*) + int_{y*}^y B - int_{y*}^y (w'/w)(r) phi(K^-1(E))``,
    each a ``_CumulativeSimpson`` pass in ``log(y - y_c)`` for ``r`` and
    one for the damping term, until a sweep moves no ``E`` by more than
    ``PICARD_TOL`` of itself.  The term's Lipschitz constant in ``E``
    integrates to ``log(w(rho)/w(r*))``, so the sweeps converge like its
    powers over factorials.  ``y* - y_c`` is ``K(y'*)/B(y*)``, kept within
    ``[1e-12 y*, y*]``: ``E`` rises like ``B(y*) (y - y_c)`` from ``y*``,
    so ``y'`` is a power of ``y - y_c`` there, which the rule in its log
    resolves however steep the rise.  ``int B`` is
    ``criteria._cumulative_table`` in ``y - y_c``, ``K^-1`` its
    ``_kinetic_inverse``; the grid ends where ``E`` would pass
    ``criteria.BETA_MAX``.  The second certificate is
    ``test_L1_at_infinity`` on ``1/y'`` in the same variable saying
    ``Converges``.  The radius is ``r`` at the last node plus the
    power-law remainder of that test's slope rule, and must lie below
    ``R_max``."""
    ko = criteria.keller_osserman(op, pot).verdict
    if ko != "NotKO_fails":
        raise NumericError(f"keller_osserman says {ko}")
    y0, yp0 = node.c * node.theta, node.c * node.mu
    E_star = float(criteria._cumulative_table(
        lambda s: s * op.phi_prime(s), yp0 * _KINETIC_PANEL)[-1])
    with np.errstate(divide="ignore"):
        offset = E_star / float(pot.B(np.array([y0]))[0])
    y_c = y0 - min(max(offset, 1e-12 * y0), y0)
    x = geometric_grid(y0 - y_c, TAIL_SPAN * y0 - y_c)
    y = y_c + x
    with np.errstate(over="ignore"):
        beta = criteria._cumulative_table(lambda s: pot.B(y_c + s),
                                          np.append(0.0, x))
    E0 = E_star + (beta[1:] - beta[1])
    n = int(np.searchsorted(E0, criteria.BETA_MAX, side="right"))
    x, y, E0 = x[:n], y[:n], E0[:n]
    simpson = _CumulativeSimpson(np.log(x))
    k_inv = criteria._kinetic_inverse(op, 1.05 * E0[-1])
    E = E0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(PICARD_MAX_ITER):
            yp = k_inv(E)
            r = node.R + simpson(x / yp)
            dlogw = (log_sphere_volume(M, r * (1.0 + TAIL_STEP))
                     - log_sphere_volume(M, r * (1.0 - TAIL_STEP))) \
                / (2.0 * TAIL_STEP * r)
            last, E = E, E0 - simpson(x * dlogw * op.phi(yp))
            if not E.min() > 0:
                raise NumericError("the tail's kinetic energy K(z') left "
                                   "(0, inf)")
            if (np.abs(E - last) <= PICARD_TOL * E).all():
                break
        else:
            raise NumericError(f"the tail's sweeps did not converge in "
                               f"{PICARD_MAX_ITER}")
        yp = k_inv(E)
        r = node.R + simpson(x / yp)
    dv = criteria.test_L1_at_infinity(lambda _: 1.0 / yp, x[0], x[-1],
                                      (x, simpson))
    if dv.verdict is not Verdict.CONVERGES:
        raise NumericError(f"the tail's test of 1/z' says "
                           f"{dv.verdict.value} ({dv.reason})")
    radius = float(r[-1] + x[-1] / yp[-1] / (-1.0 - dv.slope_estimate))
    if not radius < R_max:
        raise NumericError(f"the tail's blow-up radius {radius:.12g} is "
                           f"not below R_max = {R_max:.12g}")
    cut = int(np.argmax(np.append(np.diff(r) <= 0, True)))
    return (r[1:cut + 1], y[1:cut + 1] / node.c, yp[1:cut + 1] / node.c,
            radius)


def _take(march, pieces: list, until: float = math.inf):
    """Move the pieces of ``march`` onto ``pieces`` until one ends at or
    past ``until``.  Returns the march's ``(status, r_reached,
    blowup_radius)`` if it ended, or ``None`` if it stopped at
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
                 nodes_per_window: int = NODES_PER_WINDOW) -> RadialSolution:
    """March the radial problem to ``R_max`` by window continuation.

    Each window of ``nodes_per_window`` uniform nodes (at least 2) is
    solved by fixed-point iteration; the restart state ``(theta, mu)`` is
    the last node of its value and slope.  The widths follow ``_march``'s
    rule.  The first window that fails hands over to ``_blowup_tail``,
    which certifies a blow-up twice (``keller_osserman`` says
    ``NotKO_fails``, and the tail's own test finds ``int dz/z'`` to
    converge) and locates its radius in the variable ``z``: the status is
    then ``BLOWUP``, and the profile the march's nodes followed by the
    tail's.  Without both certificates windows halve on, and an underflow
    raises ``NumericError`` naming the missing one.  ``blowup_threshold`` is
    checked to be positive and otherwise unused: no threshold decides a
    blow-up.
    """
    if not blowup_threshold > 0:
        raise DomainError(f"blowup_threshold must be positive, got "
                          f"{blowup_threshold:g}")
    if nodes_per_window < 2:
        raise ValueError(
            f"nodes_per_window must be >= 2, got {nodes_per_window}")
    pieces = []
    end = _take(_march(M, op, pot, params, R_max, nodes_per_window,
                       hand_over=True), pieces)
    return _assemble(pieces, params, end)


def _concat(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.concatenate(a) for a in zip(*pieces))


def _assemble(pieces, params, end) -> RadialSolution:
    grid, z, zp = _concat(pieces)
    status, r_reached, rho = end
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
    overflows.  The ratio itself can, where ``w`` decreases: the checked
    ``phi_inverse`` then refuses its ``y = inf`` with ``DomainError``."""
    with np.errstate(over="ignore"):
        ratio = np.exp(log_sphere_volume(M, params.R)
                       - log_sphere_volume(M, r))
        y = float(op.phi(params.c * params.mu)) * ratio
    return phi_inverse(op, y) / params.c


def constant_flux_profile(M: ModelManifold, op: PhiOperator,
                          params: CauchyParams, R_max: float, *,
                          R1: Optional[float] = None) -> RadialSolution:
    """The radial solution for ``B = 0`` in one pass, with no Picard
    iteration, on the table grid of the divergence test:
    ``grid_through(R, (R1, R_max))``, so ``R``, ``R1`` (if given) and
    ``R_max`` are nodes.  The flux ``w phi(c z')`` is constant, so the
    slope is ``_constant_flux_slope`` exactly, and ``z = theta + int_R^r
    z'`` is the cumulative Simpson rule of ``r z'`` in ``log r``, the rule
    of ``test_L1_at_infinity`` on the integrand it tests."""
    radii = [R_max] if R1 is None else [R1, R_max]
    if not params.R < radii[0] <= R_max < math.inf:
        raise DomainError("R_max must be finite, at least R1 and above the "
                          f"base radius, got {R_max:g}")
    grid = grid_through(params.R, radii)
    zp = _constant_flux_slope(M, op, params, grid)
    z = params.theta + _CumulativeSimpson(np.log(grid))(grid * zp)
    return RadialSolution(grid=grid, z=z, zp=zp, params=params,
                          status=COMPLETE, r_max=float(R_max))


def _one_piece(sol: RadialSolution):
    """``sol`` as a march of one ``(grid, z, zp)`` piece, like ``_march``."""
    yield sol.grid, sol.z, sol.zp
    return sol.status, sol.r_max, sol.blowup_radius


def choose_mu(op: PhiOperator, c: float) -> float:
    """Largest slope keeping the scaled initial flux below ``c**(p-1)``.

    This is the choice that makes the sup of the solution on a fixed
    annulus uniformly bounded in ``c``.
    """
    if not 0.0 < c <= 1.0:
        raise DomainError("choose_mu requires c in (0, 1]")
    return phi_inverse(op, c ** (op.p - 1.0)) / c


def evans_for_triple(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                     R: float, R1: float, eps: float, R_max: float
                     ) -> EvansResult:
    """Exhaustion solution small on the annulus ``[R, R1]``.

    An exhaustion exists iff the Liouville property holds, so
    ``classify_KL`` from ``R``, to the reach it picks, decides first (a
    table that ends before the reach is refused by its range):
    ``NoExhaustion`` unless its profile's integral diverges, a verdict
    that the pinching of ``phi`` makes the same for every scale.  Then
    halves the scale ``c`` from 1 (down to ``EVANS_C_MIN``), picking the
    matched slope each time, until the scaled solution stays below
    ``eps`` on the annulus.  Requires a monotone
    warping and a potential with a ``t**(p-1)`` upper bound, ``p`` the
    operator's, under which no solution blows up.  Each scale runs one
    march.  For ``B = 0`` it is one piece, the whole
    ``constant_flux_profile`` through ``R1``, on the table grid from
    ``R``.  Otherwise it is the ``solve_cauchy`` march, on windows of
    ``NODES_PER_WINDOW`` nodes, with no blow-up tail: its pieces that
    cover the annulus decide the scale, and only the accepted scale is
    marched on to ``R_max``.  A march that stalls (window underflow)
    raises from ``_march``: ``DomainError`` if its last window passed the
    largest double (``FluxOverflow``), else ``EvansFailure``.
    """
    if not 0 < R < R1 < R_max < math.inf:
        raise DomainError("need 0 < R < R1 < R_max < inf")
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
    dv = classify_KL(M, op, pot, R0=R).divergence
    if dv.verdict is not Verdict.DIVERGES:
        raise NoExhaustion(
            f"no exhaustion: the Liouville test says {dv.verdict.value} "
            f"(partial integral {dv.partial_integral:.6g}, slope "
            f"{dv.slope_estimate:.6g})", dv)
    c = 1.0
    while c >= EVANS_C_MIN:
        mu = choose_mu(op, c)
        params = CauchyParams(R=R, theta=0.0, mu=mu, c=c)
        if pot.b1 != 0:
            march = _march(M, op, pot, params, R_max, NODES_PER_WINDOW)
        else:
            march = _one_piece(constant_flux_profile(M, op, params, R_max,
                                                     R1=R1))
        pieces = []
        _take(march, pieces, R1)
        grid, z, _ = _concat(pieces)
        sup = c * _sup_on(grid, z, R, R1)
        if sup < eps:
            sol = _assemble(pieces, params, _take(march, pieces))
            if np.any(np.diff(sol.z) <= 0):
                raise NumericError("accepted solution is not increasing")
            return EvansResult(solution=sol, c_final=c, mu_final=mu,
                               sup_on_annulus=sup, exhaustion=dv)
        c *= 0.5
    raise EvansFailure(
        "no admissible scale above the floor; observed annulus bound "
        f"{sup:.6g}", observed_sup=sup)

