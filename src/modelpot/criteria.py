"""Integral classifiers: parabolicity, the bounded-Liouville/potential
property on model manifolds, and the blow-up growth condition.

All verdicts reduce to a numerical surrogate for "the integrand is not
integrable at infinity".  That surrogate is a heuristic (log-log slope fit
plus tail extrapolation) and owns an explicit ``Inconclusive`` verdict:
honest reporting beats silent misclassification on integrands like
``1/(r log^2 r)`` whose slope sits on the critical line.  Profiles and
integrands take a radius or an array of radii.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (_GL_NODES, _GL_WEIGHTS, DEFAULT_QUADRATURE,
                   DomainError, ModelManifold, NumericError, PhiOperator,
                   PotentialB, _CumulativeSimpson, geometric_grid,
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


class OperatorTypeTag(enum.Enum):
    TYPE1 = "Type1"
    TYPE2 = "Type2"


class ConsistencyError(RuntimeError):
    """Two formulations that must agree produced different verdicts."""


# Bounds of the improper-integral heuristic: a partial integral above
# DIVERGENCE_THRESHOLD diverges; the table nodes of the last decade give
# the log-log slope; a slope above -1 - SLOPE_BAND counts as critical (pure
# 1/r-type integrands fit to -1 up to rounding); and slopes within
# SLOPE_MARGIN below -1 stay inconclusive.
DIVERGENCE_THRESHOLD = 1e6
SLOPE_BAND = 0.01
SLOPE_MARGIN = 0.15


@dataclass(frozen=True)
class DivergenceConfig:
    """Truncation radius of the improper-integral heuristic, and the
    largest share of the partial integral its extrapolated tail may add
    for a ``Converges`` verdict."""

    r_max: float = 1e4
    tail_rel_tol: float = 0.05


DEFAULT_DIVERGENCE = DivergenceConfig()


@dataclass(frozen=True)
class DivergenceVerdict:
    """The verdict of ``test_L1_at_infinity``, and ``reason``, the branch
    that gave it:

    * ``partial_above_threshold`` -- Diverges: the partial integral over
      all of ``[R0, r_max]`` passed ``DIVERGENCE_THRESHOLD`` (the slope is
      not fitted: NaN);
    * ``tail_underflow`` -- Converges: the integrand has underflowed by
      ``r_max``, its last sample (slope ``-inf``);
    * ``few_positive_samples`` -- Inconclusive: fewer than half of the
      last decade's nodes, or than 2, are positive: no slope fit (NaN);
    * ``critical_slope`` -- Diverges: the fitted slope is at or above
      ``-1 - SLOPE_BAND``;
    * ``tail_above_threshold`` -- Diverges: partial integral plus the
      extrapolated tail passes ``DIVERGENCE_THRESHOLD``;
    * ``tail_within_tolerance`` -- Converges: the slope clears the margin
      and the tail is within ``tail_rel_tol``;
    * ``slope_or_tail_undecided`` -- Inconclusive: the slope lies in the
      margin, or the tail is too large a share.
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


def _divergence_rule(R0: float, r_max: float):
    """The sampling grid of ``test_L1_at_infinity`` on ``[R0, r_max]`` and
    its Simpson rule in ``log r``, which depend on nothing else.

    Returns ``(grid, simpson)``: ``grid`` is ``geometric_grid(R0, r_max)``,
    which the volume-ratio table from ``R0`` shares, and ``simpson`` the
    ``_CumulativeSimpson`` rule on its ``log r``.  ``DomainError`` unless
    ``0 < R0 < r_max < inf``, or if ``r_max`` lies within relative 1e-9 of
    ``R0``, where the grid is one node.
    """
    if not 0 < R0 < r_max < math.inf:
        raise DomainError("test_L1_at_infinity requires 0 < R0 < r_max < inf")
    grid = geometric_grid(R0, r_max)
    if len(grid) < 2:
        raise DomainError(f"[{R0:.17g}, {r_max:.17g}] is too short to "
                          "sample: its ends are within relative 1e-9")
    return grid, _CumulativeSimpson(np.log(grid))


def test_L1_at_infinity(integrand: Callable, R0: float,
                        cfg: DivergenceConfig = DEFAULT_DIVERGENCE,
                        rule=None) -> DivergenceVerdict:
    """Decide whether ``integral_R0^inf integrand`` diverges.

    ``integrand`` maps an array of radii to values and is sampled once, on
    the grid of ``rule``, which is ``_divergence_rule(R0, cfg.r_max)``
    unless the caller built it.  The partial integral over all of ``[R0,
    r_max]`` is the last value of the cumulative Simpson rule in ``log r``
    on the table nodes (``scipy.integrate.cumulative_simpson(r * f, x=log
    r)``, bit for bit); a log-log slope is fitted on the last decade's
    nodes, those at or past ``r_max / 10``.  A partial integral past
    ``DIVERGENCE_THRESHOLD`` diverges.  A fitted slope at or above the
    critical -1 means the extrapolated tail is unbounded, which is
    reported as divergence; slopes inside the margin band but below
    critical stay inconclusive.  The verdict's ``reason`` names the branch
    that decided.
    """
    grid, simpson = _divergence_rule(R0, cfg.r_max) if rule is None \
        else rule
    vals = np.zeros_like(grid) + integrand(grid)
    bad = ~np.isfinite(vals) | (vals < -1e-300)
    if np.any(bad):
        raise NumericError("integrand must be finite and nonnegative: "
                           f"f({grid[bad][0]:g}) = {vals[bad][0]:g}")
    vals = np.maximum(vals, 0.0)
    partial = float(simpson(grid * vals)[-1])

    def verdict(v, slope, reason):
        return DivergenceVerdict(v, partial, slope, cfg.r_max, reason)

    if partial > DIVERGENCE_THRESHOLD:
        return verdict(Verdict.DIVERGES, math.nan, "partial_above_threshold")
    if vals[-1] < 1e-280:
        return verdict(Verdict.CONVERGES, -math.inf, "tail_underflow")

    # slope fit on the last decade, never on a single point
    decade = grid >= cfg.r_max / 10.0
    rs, vals = grid[decade], vals[decade]
    mask = vals > 0
    if mask.sum() < max(len(rs) / 2, 2):
        return verdict(Verdict.INCONCLUSIVE, math.nan, "few_positive_samples")
    slope = float(np.polyfit(np.log(rs[mask]), np.log(vals[mask]), 1)[0])
    f_end = float(vals[-1])

    if slope >= -1.0 - SLOPE_BAND:
        # extrapolated power-law tail is not integrable
        return verdict(Verdict.DIVERGES, slope, "critical_slope")
    tail = f_end * cfg.r_max / (-1.0 - slope)
    if partial + tail > DIVERGENCE_THRESHOLD:
        return verdict(Verdict.DIVERGES, slope, "tail_above_threshold")
    if slope <= -1.0 - SLOPE_MARGIN and \
            tail <= cfg.tail_rel_tol * (1.0 + partial):
        return verdict(Verdict.CONVERGES, slope, "tail_within_tolerance")
    return verdict(Verdict.INCONCLUSIVE, slope, "slope_or_tail_undecided")


# ---------------------------------------------------------------------------
# the two radial comparison profiles


def v_pa(M: ModelManifold, op: PhiOperator, c: float, r):
    """``phi**-1(c * g(r)**(1-m))``, the pure-gradient comparison profile."""
    if np.any(np.asarray(r) <= 0) or c < 0:
        raise DomainError("v_pa requires r > 0 and c >= 0")
    return phi_inverse(op, c * np.exp(-log_sphere_volume(M, r)))


def v_st(M: ModelManifold, op: PhiOperator, c: float, R: float, r):
    """``phi**-1(c * g(r)**(1-m) * integral_R^r g**(m-1))``."""
    if R <= 0 or c < 0:
        raise DomainError("v_st requires R > 0 and c >= 0")
    return phi_inverse(op, c * volume_ratio(M, r, R))


# The scale c of the comparison profiles.  Pinching puts phi**-1(c y)
# within constant factors of (c y)**(1/(p-1)), so whether a profile is
# integrable does not depend on c; the test's absolute slack
# tail <= tail_rel_tol * (1 + partial) does, and a smaller c is judged
# more leniently.  The Type 1 profile on r e^{r^2.2} (slope -1.2,
# tail/partial ~ 0.2) is Inconclusive at c = 1 and Converges at every
# c <= 1/16; 2**-6 gives the properties of the rule that samples
# c in {1, 1/4, 1/16, 1/64} (tests/oracles.py).
PROFILE_C = 2.0 ** -6


def _property(dv: DivergenceVerdict, holds: PropertyTag,
              fails: PropertyTag) -> PropertyTag:
    return {Verdict.DIVERGES: holds, Verdict.CONVERGES: fails}.get(
        dv.verdict, PropertyTag.INCONCLUSIVE)


def classify_parabolic(M: ModelManifold, op: PhiOperator,
                       cfg: DivergenceConfig = DEFAULT_DIVERGENCE,
                       R0: float = 1.0) -> Classification:
    """Parabolic iff the pure-gradient profile ``v_pa`` at ``PROFILE_C`` is
    not integrable on ``[R0, inf)``."""
    dv = test_L1_at_infinity(lambda r: v_pa(M, op, PROFILE_C, r), R0, cfg)
    return Classification(
        _property(dv, PropertyTag.PARABOLIC, PropertyTag.NON_PARABOLIC), dv)


def classify_operator_type(pot: PotentialB) -> OperatorTypeTag:
    """Type1 iff ``B(1e-6) > 0``, from one call of ``B`` on a one-element
    array; otherwise Type2: ``B`` vanishes on ``[0, 1e-6]``.  ``B`` does not
    decrease, so this is the verdict of any probe grid that starts at
    ``1e-6``."""
    if pot.B(np.array([1e-6]))[0] > 0:
        return OperatorTypeTag.TYPE1
    return OperatorTypeTag.TYPE2


def classify_KL(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                cfg: DivergenceConfig = DEFAULT_DIVERGENCE,
                R0: float = 1.0) -> Classification:
    """Liouville/potential property via the type dispatch: strictly positive
    potentials test the volume-ratio profile, potentials vanishing near zero
    reduce to the parabolicity test."""
    if classify_operator_type(pot) is OperatorTypeTag.TYPE1:
        dv = test_L1_at_infinity(lambda r: v_st(M, op, PROFILE_C, R0, r),
                                 R0, cfg)
    else:
        dv = classify_parabolic(M, op, cfg, R0).divergence
    return Classification(
        _property(dv, PropertyTag.KL_HOLDS, PropertyTag.KL_FAILS), dv)


# ---------------------------------------------------------------------------
# the growth condition on the potential


# Growth-condition integrands are smooth powers of an antiderivative, so a
# power-law tail extrapolation is reliable once the slope clears the margin;
# the laxer tail fraction lets slowly-converging near-critical cases resolve.
KO_DIVERGENCE = DivergenceConfig(r_max=1e6, tail_rel_tol=0.5)


def _cumulative_table(f, x, kinks=()):
    """``integral_0^x f`` at the nodes ``x`` of a log grid with ``x[0] = 0``.

    ``f`` is called once, on the 8 Gauss-Legendre nodes of every panel after
    the first, as one array.  The head panel ``[0, x[1]]``, and the panel
    that starts at each of the ``kinks`` (nodes of ``x``), are
    ``DEFAULT_QUADRATURE`` calls, graded toward their left end: power
    integrands such as ``t**0.5`` are singular at 0, where one 8-node panel
    is off by 2.5e-4 relative, and ``(t - T)**0.5`` at ``T``.
    """
    a, h = x[1:-1], np.diff(x[1:])
    panels = h * (f(a[:, None] + h[:, None] * _GL_NODES) @ _GL_WEIGHTS)
    for t in kinks:
        i = int(np.searchsorted(a, t))
        panels[i] = DEFAULT_QUADRATURE.integrate(f, t, float(x[i + 2]))
    head = DEFAULT_QUADRATURE.integrate(f, 0.0, float(x[1]))
    return np.cumsum(np.concatenate([[0.0, head], panels]))


def _beta_interpolant(pot: PotentialB, s_max: float):
    """``beta(s) = integral_0^s B`` on a 400-node log grid to ``s_max``,
    with the potential's kink as one more node: 8-node Gauss-Legendre
    panels, graded ones at 0 and at the kink, where power potentials such
    as ``t**0.5`` and ``max(t - T, 0)**0.5`` are not smooth."""
    s = np.concatenate([[0.0], np.geomspace(1e-6, s_max, 400)])
    kinks = (pot.kink,) if pot.kink is not None and 0 < pot.kink < s_max \
        else ()
    s = np.unique(np.concatenate([s, kinks]))
    return s, _cumulative_table(pot.B, s, kinks)


def _kinetic_inverse(op: PhiOperator, y_max: float):
    """Inverse of ``K(t) = integral_0^t s phi'(s) ds`` via a monotone table
    of ``K`` on a 600-node log grid: 8-node Gauss-Legendre panels, and a
    graded head panel at 0, where ``s phi'(s) ~ s**(p-1)`` is not smooth
    for ``p < 2``."""
    # K(t) grows like t**p: size the grid so the table covers y_max
    t_hi = 4.0 * max(1.0, (op.a2 * op.p * y_max) ** (1.0 / op.p))
    t = np.concatenate([[0.0], np.geomspace(1e-8, t_hi, 600)])
    K = _cumulative_table(lambda s: s * op.phi_prime(s), t)
    if K[-1] < y_max:
        raise NumericError("kinetic primitive table does not cover the range")
    interp = pchip(np.log(K[1:]), np.log(t[1:]))

    def k_inv(y):
        # below the table: use the power-law behaviour near zero
        return np.where(y <= K[1], t[1] * (y / K[1]) ** (1.0 / op.p),
                        np.exp(interp(np.log(np.maximum(y, K[1])))))

    return k_inv


def keller_osserman(op: PhiOperator, pot: PotentialB) -> KellerOssermanResult:
    """Growth verdict in both equivalent forms, with a cross-check.

    ``NotKO_holds`` means the reciprocal profiles are non-integrable, so
    radial solutions exist globally; ``NotKO_fails`` signals finite-radius
    blow-up.  Both the kinetic-primitive form and the ``beta**(-1/p)`` form
    are evaluated on ``[max(1, 2 s_+), KO_DIVERGENCE.r_max]``, ``s_+`` the
    first table node where ``beta > 0``: one divergence rule, and ``beta``
    interpolated once on its grid, serve both tests.  A hard disagreement
    raises ``ConsistencyError``.
    """
    if not op.derivative_pinched:
        raise DomainError("keller_osserman requires the derivative-pinched "
                          "operator flag")
    s_grid, b_vals = _beta_interpolant(pot, KO_DIVERGENCE.r_max)
    if b_vals[-1] <= 0.0:
        # potential with vanishing antiderivative: both profiles are
        # infinite, trivially non-integrable
        return KellerOssermanResult("NotKO_holds", Verdict.DIVERGES,
                                    Verdict.DIVERGES)
    pos = np.nonzero(b_vals > 0)[0][0]
    R0 = max(1.0, 2.0 * float(s_grid[pos]))
    k_inv = _kinetic_inverse(op, float(b_vals[-1]) * 1.05)
    rule = _divergence_rule(R0, KO_DIVERGENCE.r_max)
    beta = pchip(s_grid, b_vals)(rule[0])
    if np.any(beta <= 0.0):
        raise NumericError("antiderivative not positive on the test range")
    v1 = test_L1_at_infinity(lambda s: 1.0 / k_inv(beta), R0, KO_DIVERGENCE,
                             rule)
    v2 = test_L1_at_infinity(lambda s: beta ** (-1.0 / op.p), R0,
                             KO_DIVERGENCE, rule)
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

