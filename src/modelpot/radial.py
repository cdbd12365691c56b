"""Radial initial-value solver and exhaustion-potential construction.

The radial problem ``[g^{m-1} phi(c z')]' = g^{m-1} B(c z)`` with
``z(R) = theta, z'(R) = mu`` is solved by fixed-point (Picard) iteration of
its integral reformulation on short windows, continued window by window.
Solutions either reach the requested radius or blow up at a finite radius,
which is certified and then located with ``z`` as the variable, past the
last window that converged.  Where ``B(c z) = 0`` the flux is constant
and the solution is one integral, built in one pass on the divergence
test's geometric grid with its Simpson rule in ``log r``, for a block of
scales at once as rows of one table.  Every march starts from a head: a
Cauchy node, or an Evans scale's constant-flux profile up to the level
below which ``B`` vanishes.  On top of the solvers sits the scale sweep
of ``evans_for_triple``, the one home of the matched slope and of the
constant-flux table, whose small-on-an-annulus construction produces
exhaustion potentials for triples of concentric balls.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import criteria
from .core import (DomainError, ModelManifold, NumericError, PhiOperator,
                   PotentialB, _CumulativeSimpson, _uniform_simpson,
                   geometric_grid, grid_through, log_sphere_volume,
                   phi_inverse)
# the phi^-1 of the Picard applications, under a name of their own so that
# a profile counts them: the solve alone, since an application's finite,
# clamped flux is in [0, inf).  Every other call here is checked.
from .core import _phi_inverse_in_domain as phi_inverse_array
from .criteria import DivergenceVerdict, Verdict, classify_KL

COMPLETE = "complete"
BLOWUP = "blowup"
# evans_for_triple halves the scale c from 1 while c >= EVANS_C_MIN, and
# builds the slopes and heads of EVANS_BLOCK scales at once
EVANS_C_MIN = 1e-12
EVANS_BLOCK = 8


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
    """The Liouville test (``classify_KL`` on ``[1, R_MAX]``) did not find
    its profile's integral to diverge, so no scale gives an exhaustion.
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
    # the Picard work of the march: every application, and the windows
    # that failed (an evans_for_triple profile counts every scale it
    # tried); a constant-flux profile takes none
    applications: int = 0
    failed_windows: int = 0


@dataclass(frozen=True)
class EvansResult:
    """The accepted profile and scale, and the Liouville test
    (``classify_KL``) whose divergence admitted it."""
    solution: RadialSolution
    c_final: float
    mu_final: float
    sup_on_annulus: float
    exhaustion: DivergenceVerdict
    # the last node of the profile's constant-flux part (R if it has none)
    constant_flux_to: float


class _Window:
    """Everything the Picard applications on one window share, built once
    per window: the grid ``np.linspace(R, r_end, n_nodes)``, laid here so
    that every window is uniform; the weights ``w = g**(m-1)`` relative to
    the first node, ``exp(L - L[0])`` from ``log_sphere_volume``, which
    refuses radii out of range (a ratio past a double gives a non-finite
    flux, and the march halves the window); the head flux ``phi(c
    mu)/w``; the cumulative Simpson rule of the grid as one matrix,
    ``simpson = h K_n/12`` (``core._uniform_simpson``), with the spacing
    ``h`` inside it, so that no product is scaled after it is summed; and
    the application's constants ``op``, ``pot``, ``c`` and ``theta``."""

    def __init__(self, M: ModelManifold, op: PhiOperator, pot: PotentialB,
                 params: CauchyParams, r_end: float, n_nodes: int):
        self.grid = np.linspace(params.R, r_end, n_nodes)
        L = log_sphere_volume(M, self.grid)
        self.simpson = ((r_end - params.R) / (n_nodes - 1)
                        * _uniform_simpson(n_nodes))
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
    never differentiated numerically.  Both cumulative integrals are one
    product with the window's matrix ``simpson``, the cumulative Simpson
    rule of its uniform grid.

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
    flux = window.head + (window.simpson @ (w * window.pot.B(c * u))) / w
    if not np.isfinite(flux).all():
        raise FluxOverflow("flux overflow; shrink the interval")
    # the composite rule can undershoot on steep data; the true flux
    # of a nonnegative source never drops below zero
    slope = phi_inverse_array(window.op, np.maximum(flux, 0.0))
    return (window.theta + np.maximum(window.simpson @ slope, 0.0) / c,
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
                      params: CauchyParams, r_end: float, n_nodes: int = 64,
                      work: Optional[Counter] = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed point ``(grid, z, zp)`` on ``n_nodes`` uniform nodes of
    ``[R, r_end]``: the first Picard application, value and slope, whose
    increment ``max|v - u|`` is at most ``PICARD_TOL * max(v)`` (``v >=
    theta >= 0``, so that is ``max|v|``), so that scaling the data scales
    the answer; raises at a growing increment, where the iteration does
    not contract, or at the cap.  The increment is also the finiteness
    check: ``u`` is finite, so it is finite exactly when ``v`` is.  The
    window is built once and the whole iteration runs under one
    ``np.errstate``; each application goes through ``volterra_apply``.
    With ``work``, the window adds its applications to
    ``work["applications"]``, whether it converges or raises."""
    if not r_end > params.R:        # a nan fails it
        raise DomainError("r_end must exceed the base radius")
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    window = _Window(M, op, pot, params, r_end, n_nodes)
    u, delta, k = np.full(n_nodes, params.theta), math.inf, 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, PICARD_MAX_ITER + 1):
                v, vp = volterra_apply(window, u)
                d = v - u
                last, delta = delta, float(np.abs(d, out=d).max())
                if not math.isfinite(delta):
                    raise FluxOverflow("iteration produced non-finite "
                                       "values; shrink the interval")
                u = v
                if delta <= PICARD_TOL * v.max():
                    return window.grid, u, vp
                if delta > last:
                    break
    finally:
        if work is not None:
            work["applications"] += k
    raise PicardNoConvergence(
        f"no fixed point: Picard increment {last:.3e}, then {delta:.3e} at "
        f"application {k}; shrink the interval")


def _march(M: ModelManifold, op: PhiOperator, pot: PotentialB, c: float,
           head, R_max: float, nodes_per_window: int, work: Counter,
           hand_over: bool = False, R1: float = math.inf):
    """The march of scale ``c``, lazily: yields the solution in pieces
    ``(grid, z, zp)``, first ``head`` (``solve_cauchy``'s node, or an
    Evans scale's constant-flux head), then each accepted window of
    ``nodes_per_window`` uniform nodes without its first node, and
    returns ``(status, r_reached, blowup_radius)``, ``COMPLETE`` at once
    if ``head`` ends at ``R_max``.  It counts its Picard work in ``work``
    as it goes, under the names of ``RadialSolution``'s fields
    ``applications`` and ``failed_windows``, so that a march dropped
    before its end has counted its work too.

    The width rule, with ``R`` the last node of ``head``: ``R_max`` is
    checked to be finite and past its first node; no window is wider
    than ``min(1, (R_max - R)/16)``, the first no wider than ``R``, so
    that a march from a small radius resolves it; a window doubles, up to
    that cap, after one that did not halve; and a window that would leave
    less than ``1e-8 R`` before ``R_max``, too short to hold distinct
    nodes, ends at ``R_max``.  ``R1``, the outer radius of an
    ``evans_for_triple`` annulus, is a stop by the same rule, so that the
    march holds it as a node; an ``R1`` within ``1e-8 R`` of ``R`` is none.

    With ``hand_over``, the first window that fails where ``z > 0`` hands
    the march over to ``_blowup_tail`` from the last accepted node, once:
    if it certifies a blow-up radius, its nodes are the last piece and
    the status is ``BLOWUP``.  Otherwise windows halve, and a width below
    ``1e-8 R`` raises ``NumericError`` naming the missing certificate.
    Without it (the ``evans_for_triple`` marches, which never blow up)
    that underflow raises ``DomainError`` if the last window passed the
    largest double (``FluxOverflow``), else ``EvansFailure``; each names
    ``c``, the radius and ``z`` there."""
    grid, z, zp = head
    if not grid[0] < R_max < math.inf:
        raise DomainError("R_max must be finite and exceed the base radius, "
                          f"got {R_max:g}")
    yield head
    if grid[-1] == R_max:
        return COMPLETE, R_max, None
    cur = CauchyParams(float(grid[-1]), float(z[-1]), float(zp[-1]), c)
    cap = min(1.0, (R_max - cur.R) / 16.0)
    window = min(cur.R, cap)
    min_window = 1e-8 * cur.R
    halved = False
    missing = None
    while cur.R < R_max:
        stop = R1 if cur.R + min_window < R1 < R_max else R_max
        r_end = cur.R + window
        if r_end > stop - min_window:
            r_end = stop
        try:
            grid, z, zp = solve_on_interval(M, op, pot, cur, r_end,
                                            n_nodes=nodes_per_window,
                                            work=work)
        except PicardNoConvergence as failure:
            work["failed_windows"] += 1
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
                        f"the march at c={c:.6g} passes the largest "
                        f"double, in phi(c z') or in z, past {where}; take "
                        "a smaller R_max")
                raise EvansFailure(f"the march at c={c:.6g} stalled "
                                   f"(window underflow) at {where}")
            continue
        yield grid[1:], z[1:], zp[1:]
        cur = CauchyParams(r_end, float(z[-1]), float(zp[-1]), c)
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
    ``criteria.BETA_MAX``, and the nodes left are, bit for bit, the grid
    of the divergence rule of their range, whose cached rule the sweeps
    read.  The second certificate is ``test_L1_at_infinity`` on ``1/y'``
    in the same variable saying ``Converges``.  The radius is ``r`` at
    the last node plus the power-law remainder of that test's slope
    rule, and must lie below ``R_max``."""
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
    x, simpson = criteria._divergence_rule(float(x[0]), float(x[n - 1]))
    y, E0 = y[:n], E0[:n]
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
    dv = criteria.test_L1_at_infinity(lambda _: 1.0 / yp, float(x[0]),
                                      float(x[-1]))
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
    the last node of its value and slope.  It is ``_march`` from the node
    ``(R, theta, mu)``, with its width rule and its range check.  The
    first window that fails hands over to ``_blowup_tail``,
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
    node = np.array([[params.R], [params.theta], [params.mu]])
    pieces, work = [], Counter()
    end = _take(_march(M, op, pot, params.c, node, R_max, nodes_per_window,
                       work, hand_over=True), pieces)
    return _assemble(pieces, params, end, work)


def _concat(pieces) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.concatenate(a) for a in zip(*pieces))


def _assemble(pieces, params, end, work: Counter) -> RadialSolution:
    grid, z, zp = _concat(pieces)
    status, r_reached, rho = end
    return RadialSolution(
        grid=grid, z=z, zp=zp, params=params, status=status,
        r_max=float(r_reached), blowup_radius=rho, **work)


def _sup_on(grid: np.ndarray, z: np.ndarray, a: float, b: float) -> float:
    mask = (grid >= a) & (grid <= b)
    if not np.any(mask):
        raise DomainError("no solution nodes in the requested interval")
    return float(np.max(z[mask]))


class _ConstantFluxTable:
    """The geometry of the ``B = 0`` profile from ``R``, built once per
    ``evans_for_triple`` call for all of its scales (``_evans_heads``):
    the table grid of the divergence test, ``grid_through(R, radii)``, so
    ``R`` and every radius are nodes; the weight ratio ``w(R)/w(r)``,
    taken in log form so that no weight overflows; and the cumulative
    Simpson rule in ``log r``.  The ratio itself can overflow, where
    ``w`` decreases: the checked ``phi_inverse`` of ``rows`` then refuses
    its ``y = inf`` with ``DomainError``."""

    def __init__(self, M: ModelManifold, R: float, radii):
        self.grid = grid_through(R, radii)
        with np.errstate(over="ignore"):
            self.ratio = np.exp(log_sphere_volume(M, R)
                                - log_sphere_volume(M, self.grid))
        self.simpson = _CumulativeSimpson(np.log(self.grid))

    def rows(self, op: PhiOperator, c: np.ndarray,
             mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(z, zp)`` on the grid, one row per scale of the 1-D ``c``
        with its slope in ``mu``, from ``z(R) = 0``.  The flux ``w phi(c
        z')`` is constant, so ``z' = phi^-1(phi(c mu) w(R)/w(r))/c``
        exactly, one ``phi_inverse`` over all rows, and ``z = int_R^r
        z'`` is the cumulative Simpson rule of ``r z'`` in ``log r``, the
        rule of ``test_L1_at_infinity`` on the integrand it tests.
        ``phi^-1`` is elementwise and the rule runs along each row, so a
        row has the same bits alone or among others."""
        with np.errstate(over="ignore"):
            y = op.phi(c * mu)[:, None] * self.ratio
        zp = phi_inverse(op, y) / c[:, None]
        return self.simpson(self.grid * zp), zp


def _evans_heads(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                 R: float, R1: float, R_max: float):
    """The scales ``c = 2**-k`` of ``evans_for_triple``'s sweep, from 1
    down to ``EVANS_C_MIN`` in order, each as ``(c, mu, head)``.  ``mu``
    is the matched slope ``phi^-1(c**(p-1))/c``, the largest that keeps
    the scaled initial flux ``phi(c mu)`` at ``c**(p-1)``, so that the
    sup on a fixed annulus is bounded uniformly in ``c``; it comes from
    one ``phi_inverse`` of the ``c**(p-1)`` of ``EVANS_BLOCK`` scales at
    a time, each a Python float.  ``head`` is the first piece of the
    profile, from which ``_march`` goes on: the first nodes of the
    scale's row where ``c z`` is at most the kink.  The rows are those of
    one ``_ConstantFluxTable`` through ``R1`` and ``R_max``; without a
    kink the level is 0 and the "table" is the node ``R``, with ``z = 0``
    and ``zp = mu``.  A block whose ``phi_inverse`` raises is built again
    one row at a time as the sweep reaches each, so that an error
    surfaces only at a scale the sweep reaches."""
    scales, c = [], 1.0
    while c >= EVANS_C_MIN:
        scales.append(c)
        c *= 0.5
    if pot.kink is None:
        table, grid = None, np.array([R])
    else:
        table = _ConstantFluxTable(M, R, (R1, R_max))
        grid = table.grid

    def build(block):
        c = np.array(block)
        mu = phi_inverse(op, np.array([s ** (op.p - 1.0) for s in block])) / c
        z, zp = (table.rows(op, c, mu) if table else
                 (np.zeros((len(block), 1)), mu[:, None]))
        return zip(block, mu.tolist(), z, zp)

    for i in range(0, len(scales), EVANS_BLOCK):
        block = scales[i:i + EVANS_BLOCK]
        try:
            rows = build(block)
        except (DomainError, NumericError):
            rows = (row for c in block for row in build([c]))
        for c, mu, z, zp in rows:
            # the profile increases: c z <= kink on its first k nodes
            k = int(np.searchsorted(c * z, pot.kink or 0.0, side="right"))
            yield c, mu, (grid[:k], z[:k], zp[:k])


def evans_for_triple(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                     R: float, R1: float, eps: float, R_max: float
                     ) -> EvansResult:
    """Exhaustion solution small on the annulus ``[R, R1]``.

    An exhaustion exists iff the Liouville property holds, a property of
    the whole manifold, so ``classify_KL`` on ``[1, R_MAX]`` decides first
    whatever ``R`` is (a table that ends before ``R_MAX`` is refused):
    ``NoExhaustion`` unless its profile's integral diverges, a verdict
    that the pinching of ``phi`` makes the same for every scale.  Then
    halves the scale ``c`` from 1 (down to ``EVANS_C_MIN``), picking the
    matched slope each time, until the scaled solution stays below
    ``eps`` on the annulus.  Requires a monotone warping and ``B(t) <= b
    t**(p-1)``, ``p`` the operator's, under which no solution blows up: it
    holds for ``kink = inf`` (``B = 0``), a growth exponent ``p - 1``, or
    one below it with a kink; any other exponent, or none, is refused
    before the classifier runs.  Each scale runs one ``_march`` from its
    head: the constant-flux profile on the table grid from ``R`` as far
    as ``B(c z)`` vanishes (for ``B = 0`` the whole profile, without a
    kink the node ``(R, 0, mu)``), then windows of ``NODES_PER_WINDOW``
    nodes, with no blow-up tail and a window end at ``R1``.
    ``_evans_heads`` builds the table's geometry once and the slopes and
    heads of ``EVANS_BLOCK`` scales at a time, each with the bits it has
    alone, and the scales are decided in order of ``c``, as one at a
    time.  The pieces up to ``R1`` decide the scale by their
    sup, which the increasing profile takes at ``R1`` (a row that stays
    below the kink through ``R1`` is decided by the table alone), and
    only the accepted scale is marched on to ``R_max``; its
    ``constant_flux_to`` is the last node of the table (``R`` with
    none).
    A march that stalls (window underflow) raises from ``_march``:
    ``DomainError`` if its last window passed the largest double
    (``FluxOverflow``), else ``EvansFailure``.
    """
    if not 0 < R < R1 < R_max < math.inf:
        raise DomainError(f"need 0 < R < R1 < R_max < inf, got R={R:g}, "
                          f"R1={R1:g} and R_max={R_max:g}")
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps:g}")
    h, q = pot.homogeneity, op.p - 1.0
    # B <= b t**(p-1) holds for B = 0, for h = p - 1, and for h < p - 1
    # where B vanishes up to a kink
    if pot.kink != math.inf and h is None:
        raise DomainError(f"potential {pot.name} declares no growth exponent, "
                          f"so its bound b t**(p-1) = b t**{q:g} of the "
                          f"operator {op.name} is unknown")
    if pot.kink != math.inf and (h > q or (h < q and pot.kink is None)):
        side = ", faster" if h > q else " near 0, slower"
        raise DomainError(
            f"potential {pot.name} grows like t**{h:g}{side} than t**(p-1) "
            f"= t**{q:g} of the operator {op.name}; its bound b t**(p-1) "
            "does not hold")
    if not M.monotone:
        raise DomainError("the construction requires a non-decreasing warping")
    M._check_radius(R_max)           # a short table fails before its tail
    dv = classify_KL(M, op, pot).divergence
    if dv.verdict is not Verdict.DIVERGES:
        raise NoExhaustion(
            f"no exhaustion: the Liouville test says {dv.verdict.value} "
            f"(partial integral {dv.partial_integral:.6g}, slope "
            f"{dv.slope_estimate:.6g})", dv)
    work = Counter()
    for c, mu, head in _evans_heads(M, op, pot, R, R1, R_max):
        march = _march(M, op, pot, c, head, R_max, NODES_PER_WINDOW, work,
                       R1=R1)
        pieces = []
        _take(march, pieces, R1)
        grid, z, _ = _concat(pieces)
        sup = c * _sup_on(grid, z, R, R1)
        if sup < eps:
            params = CauchyParams(R=R, theta=0.0, mu=mu, c=c)
            sol = _assemble(pieces, params, _take(march, pieces), work)
            if np.any(np.diff(sol.z) <= 0):
                raise NumericError("accepted solution is not increasing")
            return EvansResult(solution=sol, c_final=c, mu_final=mu,
                               sup_on_annulus=sup, exhaustion=dv,
                               constant_flux_to=float(pieces[0][0][-1]))
    raise EvansFailure(
        "no admissible scale above the floor; observed annulus bound "
        f"{sup:.6g}", observed_sup=sup)

