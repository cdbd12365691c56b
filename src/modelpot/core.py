"""Rotationally symmetric manifolds, gradient nonlinearities and potentials.

Everything downstream (integral classifiers, the radial solver, the
discrete variational-inequality pipeline) consumes the three immutable
descriptors defined here:

* ``ModelManifold``   -- dimension ``m`` and warping ``g`` of the metric
  ``dr^2 + g(r)^2 dtheta^2``, held as ``log g``;
* ``PhiOperator``     -- the gradient nonlinearity ``phi`` pinched between
  multiples of ``t**(p-1)``;
* ``PotentialB``      -- the non-decreasing zero-order term ``B``.

Every weight comes from ``log g``: ``log_sphere_volume`` gives
``L = (m-1) log g`` at any radius.  The equations are homogeneous in the
weight, so each layer forms only the ratios it needs, ``exp`` of
differences of ``L``, and no weight ``g**(m-1)`` past a double.

The package runs on numpy alone, so that every command costs little more
than ``import numpy``: monotone-cubic tables are ``pchip``, and a table's
panels at 0 and at a kink, where its integrand is a power, take one rule,
``_power_panel``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(RuntimeError):
    """A numerical procedure failed to reach its tolerance."""


class QuadratureError(NumericError):
    """A table panel's integrand is not integrable at its left end, or is
    no power of the distance to it."""


# ---------------------------------------------------------------------------
# quadrature


def _power_panel(f, a: float, b: float) -> float:
    """``integral_a^b f`` as ``(b - a) f(b)/(k + 1)``, ``k =
    log2(f(b)/f(a + (b - a)/2))``, from one call of ``f`` on those two
    points: exact for ``(t - a)**k``, 0 where ``f(b)`` is not positive,
    and ``QuadratureError`` for a ``k <= -1``, not integrable at ``a``, or
    for ``f`` 0 in the middle under a normal ``f(b)``, which no power with
    ``k`` below 52 gives (the rule's ``k = inf`` would make the panel 0).
    Under a subnormal ``f(b)`` a zero middle is a power's underflow, and
    the panel, below ``(b - a) f(b)``, is 0."""
    mid = a + 0.5 * (b - a)
    half, whole = np.asarray(f(np.array([mid, b])), dtype=float)
    if not whole > 0:
        return 0.0
    if not half > 0:
        if whole < np.finfo(float).tiny:
            return 0.0
        raise QuadratureError(
            f"the panel [{a:g}, {b:.3e}] is no power of (t - {a:g}): its "
            f"integrand is {half:g} at {mid:.3e} and {whole:g} at {b:.3e}")
    power = math.log2(whole / half)
    if not power > -1:
        raise QuadratureError(f"the panel [{a:g}, {b:.3e}] grows like (t - "
                              f"{a:g})**{power:.3g}, not integrable at {a:g}")
    return (b - a) * whole / (power + 1.0)


class Quadrature:
    """``_power_panel`` on the panel of a table of ``B`` at its kink, as a
    class, so that a tracer can wrap ``Quadrature.integrate``."""

    def integrate(self, f, a: float, b: float, points=None) -> float:
        """``_power_panel(f, a, b)``; no split ``points``."""
        if points is not None:
            raise ValueError("Quadrature.integrate takes no split points")
        return _power_panel(f, a, b)


DEFAULT_QUADRATURE = Quadrature()


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


@functools.lru_cache(maxsize=32)
def _uniform_simpson(n: int) -> np.ndarray:
    """``K_n/12``, where ``h K_n/12`` applied to samples on ``n >= 2``
    uniform nodes of spacing ``h`` is ``_CumulativeSimpson``'s rule on
    them, up to rounding: the lower-triangular matrix of the radial
    windows.  Row ``i`` of the integer matrix ``K_n`` is the running sum
    over the sub-intervals ``j < i`` of the weights ``5, 8, -1`` of their
    triples from node ``j`` outwards (``_simpson_indices(n - 1)``), and
    ``6, 6`` for the trapezoid of two nodes.  Built on first use and
    read-only, since every uniform grid of ``n`` nodes shares it."""
    sub = np.zeros((n - 1, n))
    if n == 2:
        sub[0] = 6.0
    else:
        j = np.arange(n - 1)
        for nodes, weight in zip(_simpson_indices(n - 1)[1], (5, 8, -1)):
            sub[j, nodes] += weight
    rule = np.zeros((n, n))
    np.cumsum(sub, axis=0, out=rule[1:])
    rule /= 12.0
    rule.flags.writeable = False
    return rule


class _CumulativeSimpson:
    """Cumulative integral from 0 on a strictly increasing grid ``x``
    (``ValueError`` otherwise), the Simpson rule of the divergence test,
    the blow-up tail and the ``B = 0`` profile; the radial windows, whose
    grids are uniform, take the same rule as the matrix
    ``_uniform_simpson``.
    ``_CumulativeSimpson(x)(y)`` is
    ``scipy.integrate.cumulative_simpson(y, x=x, initial=0)``, bit for bit,
    without its array-API dispatch, which costs more than the rule on a
    window.  Building it takes the spacings, their check and the
    coefficient arithmetic; the index arrays come from
    ``_simpson_indices``, cached per node count.  Applying it to samples
    ``y`` is one gather, five array operations and one cumulative sum,
    along the last axis: a 2-D ``y`` is a stack of rows, each integrated
    as it would be alone, bit for bit (the ``B = 0`` rows of several Evans
    scales).

    Even sub-intervals (but the last) integrate the quadratic through the
    triple they start, odd ones and the last the triple they end.  Either
    way sub-interval ``j`` is ``a ((p y0 + q y1) - s y2)`` with
    ``h1 = h[j]``, ``h2`` the other spacing of the triple,
    ``r31 = h1/(h1 + h2)``, ``r32 = r31 (h1/h2)``, ``a = h1/6``,
    ``p = 3 - r31``, ``q = 3 + r32 + r31``, ``s = r32`` and ``y0, y1, y2``
    the triple's samples from node ``j`` outwards: scipy's arithmetic, in
    its order.  Two-node grids (a divergence test on an interval shorter
    than one table step) take the trapezoid rule.
    """

    def __init__(self, x):
        # np.diff of a 1-D array, bit for bit, without its dispatch
        h = x[1:] - x[:-1]
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
        out = np.zeros(y.shape)
        if len(self.h) < 2:
            sub = self.h * (y[..., 1:] + y[..., :-1]) / 2.0
        else:
            # a leading axis of rows goes behind the triple's
            y0, y1, y2 = (y[self.nodes] if y.ndim == 1 else
                          np.moveaxis(y[..., self.nodes], -2, 0))
            sub = self.a * ((self.p * y0 + self.q * y1) - self.s * y2)
        # the ufunc loop of np.cumsum, without its dispatch
        np.add.accumulate(sub, axis=-1, out=out[..., 1:])
        return out


# ---------------------------------------------------------------------------
# model manifolds


@dataclass(frozen=True)
class ModelManifold:
    """``R^m`` with metric ``dr^2 + g(r)^2 dtheta^2``.

    The warping enters every criterion and construction only through the
    sphere volume ``g**(m-1)``, so it is held once, as ``log_g``, an
    overflow-safe evaluation of ``log g(r)``; presets supply closed forms so
    volume ratios stay computable at radii where ``g`` itself overflows a
    double.
    """

    m: int
    log_g: Callable[[float], float]
    monotone: bool = False
    name: str = "custom"
    r_max_valid: float = math.inf

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"dimension m must be >= 2, got m={self.m}")

    def _check_radius(self, r):
        # no radius passes an infinite table end, so only a table scans
        if self.r_max_valid < math.inf and \
                (np.asarray(r) > self.r_max_valid).any():
            raise DomainError(
                f"radius beyond tabulated range (max {self.r_max_valid}), "
                f"got r={np.max(r):.6g}")


def log_sphere_volume(M: ModelManifold, r):
    """``log vol(dB_r) = (m-1) log g(r)`` at a radius or an array of radii,
    safe for warpings that overflow ``g`` itself."""
    radii = np.asarray(r, dtype=float)
    if not (radii > 0).all():            # a nan fails it
        raise DomainError(f"the sphere volume requires r > 0, got "
                          f"r={radii[~(radii > 0)].flat[0]:g}")
    M._check_radius(radii)
    out = (M.m - 1) * np.asarray(M.log_g(radii), dtype=float)
    return float(out) if out.ndim == 0 else out


# Grid tables are geometric, with this many points per decade; their panel
# rule is 8-node Gauss-Legendre on [0, 1], (x + 1)/2 and w/2 of leggauss(8)
# bit for bit, written out so that no command imports numpy.polynomial.
POINTS_PER_DECADE = 128
_GL_NODES, _GL_WEIGHTS = np.array([
    [0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
     0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
     0.8983332387068134, 0.9801449282487681],
    [0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
     0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
     0.11119051722668721, 0.05061426814518853]])
# a table from the origin starts its geometric grid here at the latest
_ORIGIN_PANEL = 1e-3


def geometric_grid(lo: float, hi: float) -> np.ndarray:
    """The table nodes ``lo * 10**(k/POINTS_PER_DECADE)``, ``k >= 0``, that
    lie below ``hi`` and not within relative 1e-9 of it, then ``hi``
    (``0 < lo <= hi``): the grid of ``volume_ratio`` and of the
    divergence test.  A node that close to ``hi`` would leave a sliver
    panel beside it."""
    n = math.ceil(POINTS_PER_DECADE * math.log10(hi / lo))
    nodes = lo * 10.0 ** (np.arange(n) / POINTS_PER_DECADE)
    return np.append(nodes[(nodes < hi) & (hi - nodes > 1e-9 * nodes)], hi)


def distinct(values) -> np.ndarray:
    """The numbers of the 1-D ``values``, sorted, each once: ``np.unique``
    without its first call's import of ``numpy.ma``, which costs a
    command more than its own arithmetic."""
    out = np.sort(np.asarray(values, dtype=float))
    keep = np.ones(len(out), dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


def grid_through(lo: float, radii) -> np.ndarray:
    """``geometric_grid`` from ``lo`` to the largest of ``radii`` (each in
    ``[lo, inf)``; ``lo`` alone if there are none), with ``lo`` and every
    radius as nodes, sorted and distinct: the grid of ``volume_ratio`` and
    of the ``B = 0`` Evans profile.  A table node within relative 1e-9 of
    a radius gives way to it, rather than leave a sliver panel beside it;
    ``lo`` is a node anyway."""
    asked = distinct(radii)
    own = geometric_grid(lo, float(np.max(asked, initial=lo)))[1:]
    i = np.searchsorted(asked, own)
    gap = np.minimum(np.abs(own - asked[np.maximum(i - 1, 0)]),
                     np.abs(asked[np.minimum(i, len(asked) - 1)] - own))
    return distinct(np.concatenate([[lo], own[gap > 1e-9 * own], asked]))


def volume_ratio(M: ModelManifold, r, R: float = 0.0):
    """``rho(r) = g(r)**(1-m) * integral_R^r g(t)**(m-1) dt`` at a radius or
    an array of radii, from one pass of the exact recurrence
    ``rho_{i+1} = exp(-dL_i) rho_i + I_i``, ``L = (m-1) log g``, on a
    geometric grid.  ``I_i = integral exp(L(t) - L(r_{i+1})) dt`` is taken in
    ``u = exp(-a (r_{i+1} - t))``, ``a = dL_i / (4 h_i)``, where it is the
    integral of ``u**3`` times the exponential of the departure of ``L`` from
    its secant: the rule is exact for linear ``L``, and ``g**(m-1)``, which
    may overflow, is never formed.  (The full secant slope would leave a
    ``u**beta`` singularity at ``u = 0`` that costs four digits on r e^{r^3}.)
    """
    radii = np.asarray(r, dtype=float)
    least = float(np.min(radii, initial=R))
    top = float(np.max(radii, initial=R))
    if not (0 <= R <= least and top < math.inf):     # a nan fails it
        raise DomainError(f"volume_ratio requires finite r >= R >= 0, got "
                          f"R={R:g} and r from {least:g} to {top:g}")
    lo = R if R > 0 else float(np.min(radii, where=radii > 0,
                                      initial=_ORIGIN_PANEL))
    grid = grid_through(lo, radii[radii > 0])
    L = log_sphere_volume(M, grid)
    if not np.isfinite(L).all():
        i = int(np.argmax(~np.isfinite(L)))
        raise DomainError(f"the volume ratio needs a finite (m-1) log g, "
                          f"got {L[i]:g} at r={grid[i]:.6g}")
    rho = [0.0]
    if R == 0:
        # g ~ t near the origin: the rule acts on exp(L(t) - L(lo)) directly
        rho = [float(lo * (_GL_WEIGHTS @ np.exp(
            log_sphere_volume(M, lo * _GL_NODES) - L[0])))]
    h, dL = grid[1:] - grid[:-1], L[1:] - L[:-1]
    x = 0.25 * dL                        # a * h
    x[x == 0.0] = 1e-300                 # the map below tends to t = a + h xi
    u = 1.0 + np.outer(np.expm1(-x), 1.0 - _GL_NODES)
    b, Lb = grid[1:, None], L[1:, None]
    t = b + (h / x)[:, None] * np.log(u)
    log_f = log_sphere_volume(M, t) - Lb + (x / h)[:, None] * (b - t)
    I = h * (-np.expm1(-x) / x) * (np.exp(log_f) @ _GL_WEIGHTS)
    # the recurrence over Python floats: the multiply-then-add of numpy
    # scalars, bit for bit, without their per-element boxing
    for decay, inc in zip(np.exp(-dL).tolist(), I.tolist()):
        rho.append(decay * rho[-1] + inc)
    out = np.where(radii > R, np.array(rho)[np.searchsorted(grid, radii)],
                   0.0)
    return float(out) if out.ndim == 0 else out


def _log_sinh(r):
    r = np.asarray(r, dtype=float)
    # sinh r = e^r (1 - e^{-2r}) / 2, stable for all r > 0
    return r + np.log1p(-np.exp(-2.0 * r)) - math.log(2.0)


def read_tag(tag: str, kinds: dict, what: str, *args):
    """``build(*values, *args)`` for a tag ``name`` or ``name:k1=v1,k2=v2``
    of a kind with ``(build, keys)`` in ``kinds``: exactly those keys in
    that order, ``,`` or ``;`` between them, each value a finite ``float``
    (keys ``None``: the text after ``:`` is the one value)."""
    name, colon, rest = tag.partition(":")
    if name not in kinds:
        raise ValueError(f"unknown {what} tag {tag!r}")
    build, keys = kinds[name]
    if keys is None:
        return build(rest, *args)
    pairs = [s.partition("=")
             for s in (rest.replace(";", ",").split(",") if colon else ())]
    given = tuple(k.strip() for k, _, _ in pairs)
    if given != keys:
        raise ValueError(f"{what} tag {tag!r}: {name} takes the keys "
                         f"{list(keys)} in that order, got {list(given)}")
    values = []
    for key, (_, _, raw) in zip(keys, pairs):
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{what} tag {tag!r}: key {key!r} needs a "
                             f"finite number, got {raw.strip()!r}")
        values.append(value)
    return build(*values, *args)


def _power_exp_manifold(alpha: float, m: int) -> ModelManifold:
    if not alpha > 0:
        raise ValueError(f"power-exp preset requires alpha > 0, got "
                         f"alpha={alpha:g}")
    def log_g(r):
        with np.errstate(over="ignore"):    # inf is the value of r**alpha
            return np.log(r) + np.asarray(r, dtype=float) ** alpha

    return ModelManifold(m, log_g, True, f"power-exp:alpha={alpha:g}")


def manifold_from_tag(tag: str, m: int) -> ModelManifold:
    """The preset or table manifold of dimension ``m`` that ``tag`` names."""
    return read_tag(tag, {
        "euclidean": (lambda m: ModelManifold(m, np.log, True, "euclidean"),
                      ()),
        "hyperbolic": (lambda m: ModelManifold(m, _log_sinh, True,
                                               "hyperbolic"), ()),
        "power-exp": (_power_exp_manifold, ("alpha",)),
        "table": (load_manifold_csv, None)}, "manifold", m)


def _pchip_slopes(h, m):
    """Node derivatives of the monotone cubic on spacings ``h`` and secant
    slopes ``m``: the weighted harmonic mean of Fritsch & Butland (SIAM J.
    Sci. Stat. Comput. 5, 1984) inside, zero at a local extremum, and the
    shape-preserving one-sided three-point rule at the ends (Moler,
    Numerical Computing with MATLAB, 3.6), in scipy's arithmetic."""
    if len(m) == 1:
        return np.array([m[0], m[0]])
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    extremum = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) \
        | (m[:-1] == 0)
    # a secant slope that underflows to (near) 0 makes the harmonic mean 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    # both ends at once: (h0, h1, m0, m1) from the first and last intervals
    h0, h1 = h[[0, -1]], h[[1, -2]]
    m0, m1 = m[[0, -1]], m[[1, -2]]
    end = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    end = np.where(np.sign(end) != np.sign(m0), 0.0, np.where(
        (np.sign(m0) != np.sign(m1)) & (np.abs(end) > 3.0 * np.abs(m0)),
        3.0 * m0, end))
    return np.concatenate([end[:1], np.where(extremum, 0.0, inner),
                           end[1:]])


def pchip(x, y):
    """The monotone piecewise cubic Hermite interpolant of ``(x, y)``
    (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980), as a function of a
    value or an array of values: scipy's ``PchipInterpolator``, bit for bit.

    Each interval holds ``(t/h, (m - d0)/h - t, d0, y0)``, ``t = (d0 + d1 -
    2m)/h``, evaluated at ``s = x - x_i`` in the order of scipy's
    ``evaluate_poly1``.  A query selects the interval ``[x_i, x_{i+1})``
    that holds it, or the first or last interval, which extrapolate: ``i``
    counts the interior nodes at or below it.  ``ValueError`` unless
    ``x`` and ``y`` are 1-D, of one length of at least 2 and finite, and
    ``x`` strictly increases.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or y.shape != x.shape:
        raise ValueError("pchip needs 1-D x and y of equal length")
    if len(x) < 2:
        raise ValueError("pchip needs at least 2 points")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("pchip needs finite x and y")
    h = x[1:] - x[:-1]
    if (h <= 0).any():
        raise ValueError("pchip needs strictly increasing x")
    m = (y[1:] - y[:-1]) / h
    d = _pchip_slopes(h, m)
    t = (d[:-1] + d[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]
    inner, left = x[1:-1], x[:-1]

    def interpolant(q):
        i = np.searchsorted(inner, q, side="right")
        s = q - left.take(i)
        s2 = s * s
        return (((0.0 + c3.take(i)) + c2.take(i) * s) + c1.take(i) * s2
                + c0.take(i) * (s2 * s))

    return interpolant


def tabulated_manifold(r_samples, g_samples, m: int,
                       name: str = "tabulated") -> ModelManifold:
    """Manifold from sampled ``(r, g(r))`` pairs, monotone-cubic interpolated.

    The warping is monotone when its samples do not decrease: the PCHIP
    interpolant of monotone data is monotone.  Evaluation beyond the table
    raises ``DomainError``: silently extending the warping would corrupt
    every downstream criterion.
    """
    r_samples = np.asarray(r_samples, dtype=float)
    g_samples = np.asarray(g_samples, dtype=float)
    if r_samples.ndim != 1 or r_samples.shape != g_samples.shape:
        raise ValueError("r and g samples must be 1-D arrays of equal length")
    bad = ~(np.isfinite(r_samples) & np.isfinite(g_samples))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"sample {i} is (r, g) = ({r_samples[i]:g}, "
                         f"{g_samples[i]:g}); samples must be finite")
    if not (r_samples > 0).any():
        raise ValueError("tabulated warping has no sample at r > 0 "
                         f"(sample count {len(r_samples)})")
    if not np.all(np.diff(r_samples) > 0):
        i = int(np.argmax(np.diff(r_samples) <= 0))
        raise ValueError(f"r samples must be strictly increasing, got "
                         f"sample {i} at r={r_samples[i]:g} and sample "
                         f"{i + 1} at r={r_samples[i + 1]:g}")
    if r_samples[0] < 0:
        raise ValueError(f"r sample 0 is {r_samples[0]:g}; the warping is "
                         "tabulated on r >= 0")
    if r_samples[0] == 0 and g_samples[0] != 0:
        raise ValueError(f"tabulated warping must satisfy g(0)=0, got "
                         f"sample 0 (r, g) = (0, {g_samples[0]:g})")
    bad = (r_samples > 0) & (g_samples <= 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"tabulated warping must be positive for r > 0, "
                         f"got sample {i} (r, g) = ({r_samples[i]:g}, "
                         f"{g_samples[i]:g})")
    if r_samples[0] > 0:
        r_samples = np.concatenate([[0.0], r_samples])
        g_samples = np.concatenate([[0.0], g_samples])
    # g'(0)=1 checked at the smallest sample to 5% only; higher-order
    # smoothness at the origin is trusted, not verified.
    slope0 = g_samples[1] / r_samples[1]
    if abs(slope0 - 1.0) > 0.05:
        raise ValueError(
            f"tabulated warping has g'(0) ~= {slope0:.4f}, expected 1 (5% tol)")
    interp = pchip(r_samples, g_samples)
    return ModelManifold(m=m, log_g=lambda r: np.log(interp(r)),
                         monotone=bool(np.all(np.diff(g_samples) >= 0)),
                         name=name, r_max_valid=float(r_samples[-1]))


def load_manifold_csv(path, m: int) -> ModelManifold:
    """Load a two-column ``r, g(r)`` CSV as a ``tabulated_manifold``.  Its
    first line is a header, and is skipped: a first line that reads as two
    numbers raises ``ValueError`` rather than lose that sample, and so
    does a table with no sample line under its header."""
    with open(path) as fh:
        first, *rows = fh.read().splitlines() or [""]
    try:
        _r, _g = map(float, first.split(","))
    except ValueError:
        pass
    else:
        raise ValueError(f"{path}, line 1: {first!r} is a sample; the "
                         "manifold CSV needs a header line")
    rows = [row for row in rows if row.split("#", 1)[0].strip()]
    if not rows:
        raise ValueError(f"{path}: the manifold CSV has no samples")
    data = np.loadtxt(rows, delimiter=",", ndmin=2)
    if data.shape[1] != 2:
        raise ValueError("manifold CSV must have exactly two columns")
    return tabulated_manifold(data[:, 0], data[:, 1], m=m,
                              name=f"table:{path}")


# ---------------------------------------------------------------------------
# gradient nonlinearities


KO_R_MAX = 1e6      # where the growth tests' tables of beta(s) end
# the samples on which PhiOperator checks phi and phi', and PotentialB
# checks B, at 0 and from 1e-6 on to KO_R_MAX at the table density:
# read-only, since every operator and potential shares them
_PHI_SAMPLES = np.logspace(-6, 3, 61)
_POTENTIAL_SAMPLES = np.append(0.0, geometric_grid(1e-6, KO_R_MAX))
_PHI_SAMPLES.flags.writeable = _POTENTIAL_SAMPLES.flags.writeable = False


def _on_samples(f, t, name):
    """``f`` called once on the sample array ``t``: one value per sample,
    none of them NaN (``ValueError`` naming the first NaN sample)."""
    vals = np.asarray(f(t), dtype=float)
    if vals.shape != t.shape:
        raise ValueError(f"{name} must give one value per sample of an "
                         f"array argument, got shape {vals.shape}")
    nan = np.isnan(vals)
    if nan.any():
        raise ValueError(f"{name} is NaN at the sample t={t[nan][0]:g}")
    return vals


@dataclass(frozen=True)
class PhiOperator:
    """Monotone nonlinearity ``phi`` with two-sided ``t**(p-1)`` pinching.

    ``a1 * t**(p-1) <= phi(t) <= a2 * t**(p-1)`` always; when ``derivative_pinched``
    is set, the derivative bound ``a2**-1 * t**(p-1) <= t phi'(t) <=
    a1 + a2 * t**(p-1)`` is also required (and sampled at construction).
    ``phi_inv`` may carry an analytic inverse; otherwise ``phi_inverse``
    runs a safeguarded Newton iteration with ``phi_prime`` on the bracket
    the pinching bounds give.
    """

    phi: Callable[[float], float]
    phi_prime: Callable[[float], float]
    p: float
    a1: float
    a2: float
    derivative_pinched: bool = False
    phi_inv: Optional[Callable[[float], float]] = None
    name: str = "custom"

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("exponent p must be > 1")
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError("ellipticity constants must be positive")
        t = _PHI_SAMPLES
        ph = _on_samples(self.phi, t, "phi")
        tp = t ** (self.p - 1.0)
        if (ph < self.a1 * tp * (1 - 1e-9)).any() or \
           (ph > self.a2 * tp * (1 + 1e-9)).any():
            raise ValueError("phi violates its two-sided t**(p-1) bounds")
        if (ph[1:] <= ph[:-1]).any():
            raise ValueError("phi must be strictly increasing")
        if self.phi_inv is not None:
            # phi_inverse trusts phi_inv: it must undo a normal phi(t)
            back = _on_samples(lambda _: self.phi_inv(ph), t, "phi_inv")
            bad = (ph >= _TINY) & (ph < math.inf) & (abs(back - t) > 1e-9 * t)
            if bad.any():
                raise ValueError(f"phi_inv(phi(t)) = {back[bad][0]:g} at the "
                                 f"sample t={t[bad][0]:g}")
        if self.derivative_pinched:
            dp = _on_samples(self.phi_prime, t, "phi'")
            lo = tp / self.a2
            hi = self.a1 + self.a2 * tp
            if (t * dp < lo * (1 - 1e-9)).any() or \
               (t * dp > hi * (1 + 1e-9)).any():
                raise ValueError("phi' violates the derivative pinching bounds")


def p_laplacian_operator(p: float) -> PhiOperator:
    """``phi(t) = t**(p-1)``."""
    if not p > 1:
        raise ValueError(f"exponent p must be > 1, got p={p:g}")

    def phi(t):
        return np.asarray(t, dtype=float) ** (p - 1.0)

    def phi_prime(t):
        return (p - 1.0) * np.asarray(t, dtype=float) ** (p - 2.0)

    def phi_inv(y):
        return np.asarray(y, dtype=float) ** (1.0 / (p - 1.0))

    a2 = max(1.0, p - 1.0, 1.0 / (p - 1.0))
    return PhiOperator(phi=phi, phi_prime=phi_prime, p=p, a1=1.0,
                       a2=a2, derivative_pinched=True, phi_inv=phi_inv,
                       name=f"p-laplacian:p={p:g}")


def perturbed_operator(p: float) -> PhiOperator:
    """``phi(t) = t**(p-1) * (1 + 1/(1+t))``, a non-homogeneous exemplar."""
    if not 1.25 < p <= 5:
        raise ValueError(f"perturbed preset supported for p in (1.25, 5], "
                         f"got p={p:g}")

    def phi(t):
        t = np.asarray(t, dtype=float)
        return t ** (p - 1.0) * (1.0 + 1.0 / (1.0 + t))

    def phi_prime(t):
        t = np.asarray(t, dtype=float)
        return ((p - 1.0) * t ** (p - 2.0) * (1.0 + 1.0 / (1.0 + t))
                - t ** (p - 1.0) / (1.0 + t) ** 2)

    a2 = max(4.0, 2.0 * (p - 1.0), 1.0 / (p - 1.25))
    return PhiOperator(phi=phi, phi_prime=phi_prime, p=p, a1=1.0, a2=a2,
                       derivative_pinched=True, name=f"perturbed:p={p:g}")


def operator_from_tag(tag: str) -> PhiOperator:
    return read_tag(tag, {"p-laplacian": (p_laplacian_operator, ("p",)),
                          "perturbed": (perturbed_operator, ("p",))},
                    "operator")


_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def phi_inverse(op: PhiOperator, y):
    """Solve ``phi(t) = y`` for ``t >= 0`` at a value or an array of values:
    check the domain, then solve (``_phi_inverse_in_domain``).  A negative
    or non-finite ``y`` raises ``DomainError`` naming it, on either branch
    of the solve."""
    ys = np.asarray(y, dtype=float)
    # two reductions decide the domain (a NaN fails both); the mask is
    # built only to name the first offending y
    if ys.size and not (ys.min() >= 0 and ys.max() < math.inf):
        bad = ~((ys >= 0) & (ys < math.inf))
        raise DomainError(f"phi_inverse requires finite y >= 0, got "
                          f"y={ys[bad][0]:.6g}")
    return _phi_inverse_in_domain(op, ys)


def _phi_inverse_in_domain(op: PhiOperator, ys: np.ndarray):
    """``phi_inverse`` of a float array ``ys`` already known to be finite
    and ``>= 0``, with no domain check: the operator's analytic inverse if
    it has one, else a vectorized safeguarded Newton iteration (rtsafe,
    Press et al., Numerical Recipes 9.4) on the bracket the pinching bounds
    give.  It starts from the geometric mean of the two pinching estimates
    ``(y/a)**(1/(p-1))``; every step shrinks the bracket by the sign of
    ``phi(t) - y`` and takes the Newton step only if it lands strictly
    inside, else bisects.  Each element stops at its own first step within
    4 ulps, or after 90 steps, so the result is elementwise: a value's
    ``phi^-1`` is the same alone or in any array, bit for bit.
    For ``y > 0`` the upper end of the bracket is floored at the least
    normal double ``tiny``: where ``(y/a1)**(1/(p-1))`` underflows,
    ``phi(tiny) >= a1 tiny**(p-1) > y``, so the root stays inside.
    The bounds are only sampled, so a bracket without the root raises
    ``NumericError``, as does a residual above ``1e-12 * (1 + y)`` (which
    is what a ``phi_prime`` far above ``phi'`` leads to: its short Newton
    steps stay inside the bracket and use up the steps); a NaN ``phi`` at
    the bracket's ends or at the result fails either test.  A 0-d ``ys``
    gives a float.
    """
    if op.phi_inv is not None:
        t = np.asarray(op.phi_inv(ys), dtype=float)
        return float(t) if t.ndim == 0 else t
    e = 1.0 / (op.p - 1.0)
    lo = 0.25 * (ys / op.a2) ** e
    hi = np.maximum(4.0 * (ys / op.a1) ** e, np.where(ys > 0, _TINY, 0.0))
    phi_lo, phi_hi = op.phi(lo), op.phi(hi)
    miss = ~((phi_lo <= ys) & (phi_hi >= ys))       # a NaN phi fails
    if miss.any():
        i = np.argmax(miss)
        raise NumericError(
            "phi_inverse: the pinching bracket misses the root for "
            f"y={ys.flat[i]:.6g}: phi({np.ravel(lo)[i]:.6g}) = "
            f"{np.ravel(phi_lo)[i]:.6g}, phi({np.ravel(hi)[i]:.6g}) = "
            f"{np.ravel(phi_hi)[i]:.6g}")
    t = (ys / math.sqrt(op.a1 * op.a2)) ** e
    moving = np.ones(ys.shape, dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(90):
            f = op.phi(t) - ys
            lo, hi = np.where(f < 0, t, lo), np.where(f > 0, t, hi)
            newton = t - f / op.phi_prime(t)
            ulps = 4 * _EPS * t
            close = np.abs(newton - t) <= ulps
            step = np.where(close | ((newton > lo) & (newton < hi)), newton,
                            0.5 * (lo + hi))
            # an element stops at its own first step within 4 ulps, so
            # its value does not depend on the array it sits in
            t, moving = (np.where(moving, step, t),
                         moving & ~(np.abs(step - t) <= ulps))
            if not moving.any():
                break
    resid = np.abs(op.phi(t) - ys)
    over = ~(resid <= 1e-12 * (1.0 + ys))       # a NaN residual fails
    if over.any():
        raise NumericError(f"phi_inverse did not reach its tolerance for "
                           f"y={ys[over][0]:.6g} (residual "
                           f"{resid[over][0]:.3e})")
    return float(t) if t.ndim == 0 else t


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class PotentialB:
    """Non-decreasing zero-order term ``B`` on ``[0, inf)``, ``B(0) = 0``.

    ``B`` is read for ``t >= 0`` only, and the package calls it only there:
    at ``c z`` for a profile ``z >= 0`` and at the nodes of the table of
    ``integral_0^s B``.  It is sampled at 0 and on ``[1e-6, KO_R_MAX]``.

    ``kink`` types ``B``.  Without one ``B`` is positive on ``(0, inf)``
    (a zero below 1e-6 is not seen): a zero sample past 0 is refused,
    asking for a kink, unless it is a power's underflow, under a subnormal
    ``B(t_{i+1})`` or one with ``B(t_{i+1}) (t_i/t_{i+1})**h`` below the
    least subnormal.  ``kink = T > 0`` is a node of the tables of ``B``,
    past which ``B`` is a power of ``t - T``, so ``B`` vanishes on ``[0,
    T]`` (refused otherwise, at 101 samples): KL is parabolicity, and an
    Evans profile is the constant-flux one while ``c z <= T``; ``kink =
    inf`` says ``B = 0``.  ``homogeneity`` is ``h``, the growth exponent:
    without a kink the log-log slope of ``B`` at its first and last normal
    samples (past a kink ``plateau``'s is ``h t/(t - T)``).  The two decide
    the Evans bound ``B(t) <= b t**(p-1)``.
    """

    B: Callable[[float], float]
    homogeneity: Optional[float] = None
    name: str = "custom"
    kink: Optional[float] = None

    def __post_init__(self):
        t = _POTENTIAL_SAMPLES
        with np.errstate(over="ignore"):     # inf is the value of t**52
            vals = _on_samples(self.B, t, "potential")
        if not vals[0] == 0:
            raise ValueError("potential must satisfy B(0)=0")
        drop = vals[1:] < vals[:-1] - 1e-12
        if drop.any():
            i = int(np.argmax(drop))
            raise ValueError(
                f"potential must be non-decreasing, got B({t[i]:.4g})="
                f"{vals[i]:g} > B({t[i + 1]:.4g})={vals[i + 1]:g}")
        if (vals < -1e-15).any():
            raise ValueError("potential must be nonnegative on [0, inf)")
        if self.kink is None:
            h = self.homogeneity
            i = int(np.argmax(vals > 0))        # the first positive sample
            if not i:
                raise ValueError("potential is 0 at every sample: B = 0 "
                                 "needs kink=inf")
            # a power's underflow, below 2**-1074, the least subnormal
            if i > 1 and not (vals[i] < _TINY or h is not None and math.log2(
                    vals[i]) + h * math.log2(t[i - 1] / t[i]) < -1074):
                raise ValueError(
                    f"potential without a kink is 0 at the sample "
                    f"t={t[i - 1]:g} under B({t[i]:g})={vals[i]:g}: one "
                    "that vanishes on [0, T] needs kink=T")
            normal = (vals >= _TINY) & (vals < math.inf)
            ts, bs = t[normal], vals[normal]
            for j in (0, -2) if h is not None and len(ts) > 1 else ():
                slope = (math.log(bs[j + 1]) - math.log(bs[j])) / math.log(
                    ts[j + 1] / ts[j])
                if not abs(slope - h) <= 1e-6 * max(1.0, h):
                    raise ValueError(
                        f"potential declares the exponent {h:g}, but its "
                        f"log-log slope from B({ts[j]:g})={bs[j]:g} to "
                        f"B({ts[j + 1]:g})={bs[j + 1]:g} is {slope:.6g}")
        else:
            if not self.kink > 0:
                raise ValueError(f"kink must be positive, got "
                                 f"T={self.kink:g}")
            # evans takes B = 0 up to the kink: sampled there, T included,
            # and for T = inf on the potential's own samples
            end = ""
            if self.kink < math.inf:
                t = np.linspace(0.0, self.kink, 101)
                vals = _on_samples(self.B, t, "potential")
                end = f" and B(T)={vals[-1]:g}"
            if vals.any():
                i = int(np.argmax(vals != 0))
                raise ValueError(
                    f"potential must vanish up to its kink T={self.kink:g}, "
                    f"got B({t[i]:g})={vals[i]:g}{end}")


def zero_potential() -> PotentialB:
    return PotentialB(B=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                      name="zero", kink=math.inf)


def linear_power_potential(p: float, lam: float) -> PotentialB:
    """``B(t) = lam * t**(p-1)``."""
    if not lam >= 0:
        raise ValueError(f"lambda must be >= 0, got lambda={lam:g}")

    def B(t):
        t = np.asarray(t, dtype=float)
        # at lambda = 0, B is 0 also where t**(p-1) passes the largest double
        return lam * t ** (p - 1.0) if lam else 0.0 * t

    return PotentialB(B=B, homogeneity=p - 1.0, kink=None if lam else math.inf,
                      name=f"linear-power:p={p:g},lambda={lam:g}")


def plateau_potential(T: float, p: float) -> PotentialB:
    """``B(t) = max(t - T, 0)**(p-1)``; vanishes on ``[0, T]``."""
    if not T > 0:
        raise ValueError(f"plateau width T must be positive, got T={T:g}")

    def B(t):
        return np.maximum(np.asarray(t, dtype=float) - T, 0.0) ** (p - 1.0)

    return PotentialB(B=B, homogeneity=p - 1.0,
                      name=f"plateau:T={T:g},p={p:g}", kink=T)


def superlinear_potential(q: float) -> PotentialB:
    """``B(t) = t**q``."""
    if not q > 0:
        raise ValueError(f"superlinear exponent q must be positive, got "
                         f"q={q:g}")

    def B(t):
        return np.asarray(t, dtype=float) ** q

    return PotentialB(B=B, homogeneity=q, name=f"superlinear:q={q:g}")


def potential_from_tag(tag: str) -> PotentialB:
    return read_tag(tag, {
        "zero": (zero_potential, ()),
        "linear-power": (linear_power_potential, ("p", "lambda")),
        "plateau": (plateau_potential, ("T", "p")),
        "superlinear": (superlinear_potential, ("q",))}, "potential")
