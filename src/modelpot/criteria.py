"""Integral classifiers: parabolicity, the bounded-Liouville/potential
property on model manifolds, and the blow-up growth condition.

All verdicts reduce to a numerical surrogate for "the integrand is not
integrable at infinity".  That surrogate is a heuristic (log-log slope fits
on the last two decades plus tail extrapolation) that decides by the
tail's shape, not its size, so a constant factor moves no verdict.  It
owns an explicit ``Inconclusive`` verdict: honest reporting beats silent
misclassification on integrands like ``1/(r log r)`` whose slope drifts
toward the critical line.  Profiles and integrands take a radius or an
array of radii.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (_GL_NODES, _GL_WEIGHTS, DEFAULT_QUADRATURE, KO_R_MAX,
                   DomainError, ModelManifold, NumericError, PhiOperator,
                   PotentialB, _CumulativeSimpson, _power_panel,
                   _volume_ratio_table, distinct, geometric_grid,
                   log_sphere_volume, phi_inverse, pchip, volume_ratio)


class Verdict(enum.Enum):
    DIVERGES = "Diverges"
    CONVERGES = "Converges"
    INCONCLUSIVE = "Inconclusive"


class PropertyTag(enum.Enum):
    PARABOLIC = "Parabolic"
    NON_PARABOLIC = "NonParabolic"
    KL_HOLDS = "KL_Holds"
    KL_FAILS = "KL_Fails"
    INCONCLUSIVE = "Inconclusive"


class ConsistencyError(RuntimeError):
    """Two formulations that must agree produced different verdicts."""


# Bounds of the improper-integral heuristic: the table nodes of a decade
# give its log-log slope; a slope at or above -1 - SLOPE_ROUNDING is
# critical (the fit of 1/r returns -1 to ~1e-12), and so is one within
# SLOPE_BAND below -1 that is not a steady power; slopes within
# SLOPE_MARGIN below -1 converge only if the last decade's slope is that
# of the decade before it to STEADY_DRIFT of its distance from -1; and the
# extrapolated tail may add at most TAIL_REL_TOL of the partial integral.
# Each is a ratio, so that a constant factor moves no verdict.
SLOPE_ROUNDING = 1e-9
SLOPE_BAND = 0.01
SLOPE_MARGIN = 0.15
STEADY_DRIFT = 0.1
TAIL_REL_TOL = 0.05
# the classifiers read from 1 to R_MAX unless told r_max
R_MAX = 1e4


@dataclass(frozen=True)
class DivergenceVerdict:
    """The verdict of ``test_L1_at_infinity``, and ``reason``, the branch
    that gave it:

    * ``tail_underflow`` -- Converges: the integrand's last sample, at
      ``r_max``, is 0 (slope ``-inf``);
    * ``few_positive_samples`` -- Inconclusive: fewer than half of the
      last decade's nodes, or than 2, are positive: no slope fit (NaN);
    * ``critical_slope`` -- Diverges: the fitted slope is at or above
      ``-1 - SLOPE_ROUNDING``, or at or above ``-1 - SLOPE_BAND`` and
      not a steady power;
    * ``tail_within_tolerance`` -- Converges: the slope clears the margin
      and the extrapolated tail is within ``TAIL_REL_TOL`` of the partial
      integral;
    * ``steady_power_tail`` -- Converges: the slope of the decade before
      the last is the last decade's to ``STEADY_DRIFT`` of its distance
      from -1, as for a power, whose extrapolated tail is exact;
    * ``slope_or_tail_undecided`` -- Inconclusive: the slope drifts toward
      -1 from decade to decade, as for ``1/(r log r)``, and lies in the
      margin or leaves too large a tail.
    """

    verdict: Verdict
    partial_integral: float
    slope_estimate: float
    r_max: float
    reason: str


@dataclass(frozen=True)
class Classification:
    property: PropertyTag
    divergence: DivergenceVerdict   # the test that decided the property


@dataclass(frozen=True)
class KellerOssermanResult:
    """Verdicts of both equivalent forms of the growth condition."""

    verdict: str  # NotKO_holds | NotKO_fails | Inconclusive
    form_primitive: Verdict   # via the inverse of the kinetic primitive
    form_simple: Verdict      # via beta(s)**(-1/p)


@functools.lru_cache(maxsize=32)
def _divergence_rule(R0: float, r_max: float):
    """The sampling grid of ``test_L1_at_infinity`` on ``[R0, r_max]`` and
    its Simpson rule in ``log r``, which depend on nothing else.

    Returns ``(grid, simpson)``: ``grid`` is ``geometric_grid(R0, r_max)``,
    which the volume-ratio table from ``R0`` shares, and ``simpson`` the
    ``_CumulativeSimpson`` rule on its ``log r``.  Built on first use and
    cached per range, so a process builds the rule of ``[1, R_MAX]`` once;
    its arrays are read-only, since the test hands ``grid`` to caller
    integrands, and one that writes into it raises ``ValueError``.
    ``DomainError`` unless ``0 < R0 < r_max < inf``, or if ``r_max`` lies
    within relative 1e-9 of ``R0``, where the grid is one node.
    """
    if not 0 < R0 < r_max < math.inf:
        raise DomainError(f"test_L1_at_infinity requires 0 < R0 < r_max < "
                          f"inf, got R0={float(R0)!r}, "
                          f"r_max={float(r_max)!r}")
    grid = geometric_grid(R0, r_max)
    if len(grid) < 2:
        raise DomainError(f"[{R0:.17g}, {r_max:.17g}] is too short to "
                          "sample: its ends are within relative 1e-9")
    simpson = _CumulativeSimpson(np.log(grid))
    for array in (grid, *vars(simpson).values()):
        array.flags.writeable = False
    return grid, simpson


def _slope(rs, vals):
    """The log-log slope fitted to the positive ``vals`` at ``rs``, or
    NaN if fewer than half of them, or than 2, are positive: the ordinary
    least-squares slope in closed form, without the SVD of a library line
    fit, which costs more than the two sums."""
    mask = vals > 0
    if mask.sum() < max(len(rs) / 2, 2):
        return math.nan
    x, y = np.log(rs[mask]), np.log(vals[mask])
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def test_L1_at_infinity(integrand: Callable, R0: float,
                        r_max: float = R_MAX) -> DivergenceVerdict:
    """Decide whether ``integral_R0^inf integrand`` diverges.

    ``integrand`` maps an array of radii to values and is sampled once, on
    the grid of ``_divergence_rule(R0, r_max)``: a read-only array, shared
    by every test of the range in a process, so a caller that needs the
    grid reads it from that rule.  The partial integral over all of
    ``[R0, r_max]`` is the last value of the cumulative Simpson rule in
    ``log r`` on the table nodes (``scipy.integrate.cumulative_simpson(r
    * f, x=log r)``, bit for bit); a log-log slope is fitted on the last
    decade's nodes, those at or past ``r_max / 10``.  A fitted slope at
    or above the critical -1 means the extrapolated tail is unbounded,
    which is reported as divergence.  Below it the integrand converges if the
    slope clears the margin and its extrapolated tail is a small share of
    the partial integral, or if the decade before the last, from the same
    samples, has the same slope: a steady power.  Slopes that drift
    toward -1 diverge within ``SLOPE_BAND`` of it, and otherwise stay
    inconclusive.  Every test is of a ratio or of a slope,
    so ``a * integrand`` has the verdict of ``integrand`` for any ``a >
    0`` that keeps its samples finite and its last one nonzero.  The
    verdict's ``reason`` names the branch that decided.
    """
    grid, simpson = _divergence_rule(R0, r_max)
    vals = np.zeros_like(grid) + integrand(grid)
    bad = ~np.isfinite(vals) | (vals < 0)
    if bad.any():
        raise NumericError("integrand must be finite and nonnegative: "
                           f"f({grid[bad][0]:g}) = {vals[bad][0]:g}")
    partial = float(simpson(grid * vals)[-1])

    def verdict(v, slope, reason):
        return DivergenceVerdict(v, partial, slope, r_max, reason)

    if vals[-1] == 0:
        return verdict(Verdict.CONVERGES, -math.inf, "tail_underflow")
    last = grid >= r_max / 10.0
    slope = _slope(grid[last], vals[last])
    if math.isnan(slope):
        return verdict(Verdict.INCONCLUSIVE, slope, "few_positive_samples")
    if slope >= -1.0 - SLOPE_ROUNDING:
        # extrapolated power-law tail is not integrable
        return verdict(Verdict.DIVERGES, slope, "critical_slope")
    tail = vals[-1] * r_max / (-1.0 - slope)
    if slope <= -1.0 - SLOPE_MARGIN and tail <= TAIL_REL_TOL * partial:
        return verdict(Verdict.CONVERGES, slope, "tail_within_tolerance")
    before = (grid >= r_max / 100.0) & (grid <= r_max / 10.0)
    if abs(_slope(grid[before], vals[before]) - slope) <= \
            STEADY_DRIFT * (-1.0 - slope):
        return verdict(Verdict.CONVERGES, slope, "steady_power_tail")
    if slope >= -1.0 - SLOPE_BAND:
        return verdict(Verdict.DIVERGES, slope, "critical_slope")
    return verdict(Verdict.INCONCLUSIVE, slope, "slope_or_tail_undecided")


# ---------------------------------------------------------------------------
# the two radial comparison profiles


def v_pa(M: ModelManifold, op: PhiOperator, c: float, r):
    """``phi**-1(c * g(r)**(1-m))``, the pure-gradient comparison profile."""
    if (np.asarray(r) <= 0).any() or c < 0:
        raise DomainError("v_pa requires r > 0 and c >= 0")
    return phi_inverse(op, c * np.exp(-log_sphere_volume(M, r)))


def v_st(M: ModelManifold, op: PhiOperator, c: float, R: float, r):
    """``phi**-1(c * g(r)**(1-m) * integral_R^r g**(m-1))`` at radii at or
    past ``R``, through ``volume_ratio``.  ``classify_KL`` tests it at
    ``c = 1`` from 1 on its rule's grid, where it reads the same table
    pass without ``volume_ratio``'s merge."""
    if R <= 0 or c < 0:
        raise DomainError("v_st requires R > 0 and c >= 0")
    return phi_inverse(op, c * volume_ratio(M, r, R))


def _property(dv: DivergenceVerdict, holds: PropertyTag,
              fails: PropertyTag) -> PropertyTag:
    return {Verdict.DIVERGES: holds, Verdict.CONVERGES: fails}.get(
        dv.verdict, PropertyTag.INCONCLUSIVE)


def classify_parabolic(M: ModelManifold, op: PhiOperator,
                       r_max: float = R_MAX) -> Classification:
    """Parabolic iff the pure-gradient profile ``v_pa`` at ``c = 1`` is not
    integrable on ``[1, inf)``, tested to ``r_max``.  Whether it is does not
    depend on the compact set the test starts past, so every command tests
    from 1.  The pinching puts ``phi**-1(c y)`` within constant factors of
    ``(c y)**(1/(p-1))``, so whether a profile is integrable does not
    depend on ``c``, and neither does the test."""
    dv = test_L1_at_infinity(lambda r: v_pa(M, op, 1.0, r), 1.0, r_max)
    return Classification(
        _property(dv, PropertyTag.PARABOLIC, PropertyTag.NON_PARABOLIC), dv)


def classify_KL(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                r_max: float = R_MAX) -> Classification:
    """Liouville/potential property by the potential's declared type:
    without a kink the volume-ratio profile's test from 1, and with one
    (``B = 0`` at ``inf``) the parabolicity test.  Either test reads
    ``[1, r_max]``, the range of every command's verdict, and no ``B``.
    The profile is ``v_st`` at ``c = 1`` from 1, bit for bit, with its
    volume ratio from one table pass on the test's own grid, which holds
    every node the table needs: no grid to merge and no map back."""
    if pot.kink is None:
        dv = test_L1_at_infinity(
            lambda r: phi_inverse(op, _volume_ratio_table(M, r)), 1.0, r_max)
    else:
        dv = classify_parabolic(M, op, r_max).divergence
    return Classification(
        _property(dv, PropertyTag.KL_HOLDS, PropertyTag.KL_FAILS), dv)


# ---------------------------------------------------------------------------
# the growth condition on the potential


# The growth tests read beta and the kinetic primitive K only below
# BETA_MAX: K's table then runs to ~4**p a2**2 times that, still a double.
BETA_MAX = 1e300
# every beta table's nodes but the potential's kink, shared and read-only
_BETA_GRID = np.concatenate([[0.0], np.geomspace(1e-6, KO_R_MAX, 400)])
_BETA_GRID.flags.writeable = False


def _cumulative_table(f, x, kinks=()):
    """``integral_0^x f`` at the nodes ``x`` of a log grid with ``x[0] = 0``.

    ``f`` is called once on the 8 Gauss-Legendre nodes of every panel after
    the first, as one array.  The head panel ``[0, x[1]]`` and the panel
    from each of the ``kinks`` (nodes of ``x``) take the power rule
    ``_power_panel``: ``B`` and ``s phi'(s)`` vanish at 0 like powers
    (``t**0.5``, ``s**(p-1)`` by the pinching), and ``B`` is a power of
    ``t - T`` past a kink ``T``, where one 8-node panel of ``(t - T)**0.5``
    is off by 2.5e-4 relative.  Only the kink panels go through
    ``DEFAULT_QUADRATURE``, so a table with no kink makes no call of it.
    """
    a, h = x[1:-1], x[2:] - x[1:-1]
    panels = h * (f(a[:, None] + h[:, None] * _GL_NODES) @ _GL_WEIGHTS)
    for t in kinks:
        i = int(np.searchsorted(a, t))
        panels[i] = DEFAULT_QUADRATURE.integrate(f, t, float(x[i + 2]))
    head = _power_panel(f, 0.0, float(x[1]))
    return np.cumsum(np.concatenate([[0.0, head], panels]))


def _beta_interpolant(pot: PotentialB):
    """``beta(s) = integral_0^s B`` on ``_BETA_GRID``, 400 log nodes to
    ``KO_R_MAX``, with the potential's kink as one more node: 8-node
    Gauss-Legendre panels, and power panels at 0 and at the kink, where
    power potentials such as ``t**0.5`` and ``max(t - T, 0)**0.5`` are not
    smooth (``_cumulative_table``)."""
    kinks = (pot.kink,) if pot.kink and pot.kink < KO_R_MAX else ()
    s = distinct(np.concatenate([_BETA_GRID, kinks]))
    return s, _cumulative_table(pot.B, s, kinks)


def _kinetic_inverse(op: PhiOperator, y_max: float):
    """Inverse of ``K(t) = integral_0^t s phi'(s) ds`` via a monotone table
    of ``K`` on a 600-node log grid: 8-node Gauss-Legendre panels, and a
    power head panel at 0, where ``s phi'(s) ~ s**(p-1)`` is not smooth
    for ``p < 2`` (``_cumulative_table``)."""
    # K(t) grows like t**p: size the grid so the table covers y_max
    t_hi = 4.0 * max(1.0, (op.a2 * op.p * y_max) ** (1.0 / op.p))
    t = np.concatenate([[0.0], np.geomspace(1e-8, t_hi, 600)])
    K = _cumulative_table(lambda s: s * op.phi_prime(s), t)
    if K[-1] < y_max:
        raise NumericError("kinetic primitive table does not cover the range")
    interp = pchip(np.log(K[1:]), np.log(t[1:]))

    def k_inv(y):
        # below the table: use the power-law behaviour near zero (each
        # branch clamped to its side, so that neither overflows)
        return np.where(y <= K[1],
                        t[1] * (np.minimum(y, K[1]) / K[1]) ** (1.0 / op.p),
                        np.exp(interp(np.log(np.maximum(y, K[1])))))

    return k_inv


def keller_osserman(op: PhiOperator, pot: PotentialB) -> KellerOssermanResult:
    """Growth verdict in both equivalent forms, with a cross-check.

    ``NotKO_holds`` means the reciprocal profiles are non-integrable, so
    radial solutions exist globally; ``NotKO_fails`` signals finite-radius
    blow-up.  Both the kinetic-primitive form and the ``beta**(-1/p)`` form
    are evaluated on ``[max(1, 2 s_+), KO_R_MAX]``, ``s_+`` the
    first table node where ``beta > 0``: one divergence rule, and ``beta``
    interpolated once on its grid, serve both tests.  Where ``beta``
    passes ``BETA_MAX`` first (``t**q``, ``q >= 49``), the range ends at
    the last table node below it.  A hard disagreement raises
    ``ConsistencyError``.
    """
    if not op.derivative_pinched:
        raise DomainError("keller_osserman requires the derivative-pinched "
                          "operator flag")
    with np.errstate(over="ignore"):
        s_grid, b_vals = _beta_interpolant(pot)
    if b_vals[-1] <= 0.0:
        # potential with vanishing antiderivative: both profiles are
        # infinite, trivially non-integrable
        return KellerOssermanResult("NotKO_holds", Verdict.DIVERGES,
                                    Verdict.DIVERGES)
    if not b_vals[-1] <= BETA_MAX:
        # the test range ends at the last node where beta is below it
        n = int(np.searchsorted(b_vals, BETA_MAX, side="right"))
        s_grid, b_vals = s_grid[:n], b_vals[:n]
    r_max = float(s_grid[-1])
    pos = np.nonzero(b_vals > 0)[0][0]
    R0 = max(1.0, 2.0 * float(s_grid[pos]))
    k_inv = _kinetic_inverse(op, float(b_vals[-1]) * 1.05)
    beta = pchip(s_grid, b_vals)(_divergence_rule(R0, r_max)[0])
    if (beta <= 0.0).any():
        raise NumericError("antiderivative not positive on the test range")
    v1 = test_L1_at_infinity(lambda s: 1.0 / k_inv(beta), R0, r_max)
    v2 = test_L1_at_infinity(lambda s: beta ** (-1.0 / op.p), R0, r_max)
    if {v1.verdict, v2.verdict} == {Verdict.DIVERGES, Verdict.CONVERGES}:
        raise ConsistencyError(
            "the two growth-condition forms disagree: "
            f"{v1.verdict.value} vs {v2.verdict.value}")
    if Verdict.DIVERGES in (v1.verdict, v2.verdict):
        verdict = "NotKO_holds"
    elif Verdict.CONVERGES in (v1.verdict, v2.verdict):
        verdict = "NotKO_fails"
    else:
        verdict = "Inconclusive"
    return KellerOssermanResult(verdict, v1.verdict, v2.verdict)

