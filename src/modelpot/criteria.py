"""Integral classifiers: parabolicity, the bounded-Liouville/potential
property on model manifolds, and the blow-up growth condition.

All verdicts reduce to a numerical surrogate for "the integrand is not
integrable at infinity".  That surrogate is a heuristic (log-log slope fit
plus tail extrapolation) and owns an explicit ``Inconclusive`` verdict:
honest reporting beats silent misclassification on integrands like
``1/(r log^2 r)`` whose slope sits on the critical line.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator

from .core import (DEFAULT_QUADRATURE, DomainError, ModelManifold,
                   NumericError, PhiOperator, PotentialB, Quadrature, beta,
                   log_sphere_volume, phi_inverse, volume_ratio)


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


@dataclass(frozen=True)
class DivergenceConfig:
    """Tuning of the improper-integral heuristic.

    ``slope_margin`` is the half-width of the inconclusive band around the
    critical slope -1; ``slope_band`` is the small tolerance by which a
    fitted slope may undershoot -1 and still count as critical (pure
    ``1/r``-type integrands fit to -1 up to rounding).
    """

    r_max: float = 1e4
    divergence_threshold: float = 1e6
    slope_margin: float = 0.15
    slope_band: float = 0.01
    tail_rel_tol: float = 0.05
    samples: int = 33
    quadrature: Quadrature = field(default_factory=Quadrature)


DEFAULT_DIVERGENCE = DivergenceConfig()


@dataclass(frozen=True)
class DivergenceVerdict:
    verdict: Verdict
    partial_integral: float
    slope_estimate: float
    r_max: float


@dataclass(frozen=True)
class Classification:
    property: PropertyTag
    c_values_tested: tuple
    per_c: tuple  # DivergenceVerdict per c, same order

    def __post_init__(self):
        if len(self.c_values_tested) == 0:
            raise ValueError("c sample set must be non-empty")
        if list(self.c_values_tested) != sorted(self.c_values_tested,
                                                reverse=True):
            raise ValueError("c sample set must be decreasing")


@dataclass(frozen=True)
class OperatorType:
    tag: OperatorTypeTag
    T: float = 0.0  # right endpoint of the initial zero-interval (Type2)


@dataclass(frozen=True)
class KellerOssermanResult:
    """Verdicts of both equivalent forms of the growth condition."""

    verdict: str  # NotKO_holds | NotKO_fails | Inconclusive
    form_primitive: Verdict   # via the inverse of the kinetic primitive
    form_simple: Verdict      # via beta(s)**(-1/p)


def test_L1_at_infinity(integrand: Callable[[float], float], R0: float,
                        cfg: DivergenceConfig = DEFAULT_DIVERGENCE
                        ) -> DivergenceVerdict:
    """Decide whether ``integral_R0^inf integrand`` diverges.

    Partial integral over ``[R0, r_max]`` plus a log-log slope fit over the
    last decade.  A fitted slope at or above the critical -1 means the
    extrapolated tail is unbounded, which is reported as divergence; slopes
    inside the margin band but below critical stay inconclusive.
    """
    if R0 <= 0 or cfg.r_max <= R0:
        raise DomainError("test_L1_at_infinity requires 0 < R0 < r_max")

    def f(r):
        v = float(integrand(r))
        if not math.isfinite(v):
            raise NumericError(f"integrand not finite at r={r:g}")
        if v < -1e-300:
            raise NumericError("integrand must be nonnegative")
        return max(v, 0.0)

    # piecewise-decade partial integral
    edges = [R0]
    while edges[-1] * 10.0 < cfg.r_max:
        edges.append(edges[-1] * 10.0)
    edges.append(cfg.r_max)
    partial = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        partial += cfg.quadrature.integrate(f, a, b)
        if partial > cfg.divergence_threshold:
            return DivergenceVerdict(Verdict.DIVERGES, partial,
                                     math.nan, cfg.r_max)

    # slope fit on the last decade
    rs = np.geomspace(max(cfg.r_max / 10.0, R0), cfg.r_max, cfg.samples)
    vals = np.array([f(r) for r in rs])
    if np.all(vals < 1e-280):
        return DivergenceVerdict(Verdict.CONVERGES, partial, -math.inf,
                                 cfg.r_max)
    mask = vals > 0
    if mask.sum() < cfg.samples // 2:
        return DivergenceVerdict(Verdict.INCONCLUSIVE, partial, math.nan,
                                 cfg.r_max)
    slope = float(np.polyfit(np.log(rs[mask]), np.log(vals[mask]), 1)[0])
    f_end = float(vals[-1])

    if slope >= -1.0 - cfg.slope_band:
        # extrapolated power-law tail is not integrable
        return DivergenceVerdict(Verdict.DIVERGES, partial, slope, cfg.r_max)
    tail = f_end * cfg.r_max / (-1.0 - slope)
    if partial + tail > cfg.divergence_threshold:
        return DivergenceVerdict(Verdict.DIVERGES, partial, slope, cfg.r_max)
    if slope <= -1.0 - cfg.slope_margin and \
            tail <= cfg.tail_rel_tol * (1.0 + partial):
        return DivergenceVerdict(Verdict.CONVERGES, partial, slope, cfg.r_max)
    return DivergenceVerdict(Verdict.INCONCLUSIVE, partial, slope, cfg.r_max)


# ---------------------------------------------------------------------------
# the two radial comparison profiles


def v_pa(M: ModelManifold, op: PhiOperator, c: float, r: float) -> float:
    """``phi**-1(c * g(r)**(1-m))``, the pure-gradient comparison profile."""
    if r <= 0 or c < 0:
        raise DomainError("v_pa requires r > 0 and c >= 0")
    if c == 0.0:
        return 0.0
    y = c * math.exp(-log_sphere_volume(M, r))
    return phi_inverse(op, y)


def v_st(M: ModelManifold, op: PhiOperator, c: float, R: float, r: float,
         q: Quadrature = DEFAULT_QUADRATURE) -> float:
    """``phi**-1(c * g(r)**(1-m) * integral_R^r g**(m-1))``."""
    if R <= 0 or c < 0:
        raise DomainError("v_st requires R > 0 and c >= 0")
    if r < R:
        raise DomainError("v_st requires r >= R")
    if r == R or c == 0.0:
        return 0.0
    return phi_inverse(op, c * volume_ratio(M, r, R, q))


DEFAULT_C_VALUES = (1.0, 0.25, 0.0625, 0.015625)


def _sweep_c(make_integrand, c_values, R0, cfg):
    per_c = []
    for c in c_values:
        per_c.append(test_L1_at_infinity(make_integrand(c), R0, cfg))
    return per_c


def _resolve(per_c, holds: PropertyTag, fails: PropertyTag) -> PropertyTag:
    verdicts = [v.verdict for v in per_c]
    if all(v is Verdict.DIVERGES for v in verdicts):
        return holds
    if verdicts[-1] is Verdict.CONVERGES:  # smallest c converges
        return fails
    return PropertyTag.INCONCLUSIVE


def classify_parabolic(M: ModelManifold, op: PhiOperator,
                       cfg: DivergenceConfig = DEFAULT_DIVERGENCE,
                       c_values: Sequence[float] = DEFAULT_C_VALUES,
                       R0: float = 1.0) -> Classification:
    """Parabolic iff the pure-gradient profile is non-integrable for every
    sampled ``c`` (the "for every c small enough" quantifier is sampled on a
    decreasing grid; for homogeneous ``phi`` one sample would suffice)."""
    per_c = _sweep_c(lambda c: (lambda r: v_pa(M, op, c, r)),
                     c_values, R0, cfg)
    prop = _resolve(per_c, PropertyTag.PARABOLIC, PropertyTag.NON_PARABOLIC)
    return Classification(prop, tuple(c_values), tuple(per_c))


def classify_operator_type(pot: PotentialB,
                           probe_grid: Optional[Sequence[float]] = None
                           ) -> OperatorType:
    """Type1 iff the potential is positive at every probe point; otherwise
    Type2 with the zero-interval endpoint resolved to probe resolution."""
    if probe_grid is None:
        probe_grid = np.geomspace(1e-6, 10.0, 200)
    probes = np.asarray(probe_grid, dtype=float)
    if probes[0] > 1e-6 or probes[-1] < 10.0:
        raise DomainError("probe grid must span at least [1e-6, 10]")
    vals = np.array([float(pot(t)) for t in probes])
    if np.all(vals > 0):
        return OperatorType(OperatorTypeTag.TYPE1)
    positive = np.nonzero(vals > 0)[0]
    if len(positive) == 0:
        return OperatorType(OperatorTypeTag.TYPE2, T=math.inf)
    first = positive[0]
    T = float(probes[first - 1]) if first > 0 else 0.0
    return OperatorType(OperatorTypeTag.TYPE2, T=T)


def classify_KL(M: ModelManifold, op: PhiOperator, pot: PotentialB,
                cfg: DivergenceConfig = DEFAULT_DIVERGENCE,
                c_values: Sequence[float] = DEFAULT_C_VALUES,
                R0: float = 1.0) -> Classification:
    """Liouville/potential property via the type dispatch: strictly positive
    potentials test the volume-ratio profile, potentials vanishing near zero
    reduce to the parabolicity test."""
    op_type = classify_operator_type(pot)
    if op_type.tag is OperatorTypeTag.TYPE1:
        q = cfg.quadrature
        per_c = _sweep_c(
            lambda c: (lambda r: v_st(M, op, c, R0, r, q)), c_values, R0, cfg)
    else:
        per_c = _sweep_c(lambda c: (lambda r: v_pa(M, op, c, r)),
                         c_values, R0, cfg)
    prop = _resolve(per_c, PropertyTag.KL_HOLDS, PropertyTag.KL_FAILS)
    return Classification(prop, tuple(c_values), tuple(per_c))


def p_laplacian_criteria(M: ModelManifold, p: float,
                         cfg: DivergenceConfig = DEFAULT_DIVERGENCE,
                         R0: float = 1.0):
    """Volume-form specializations for ``phi(t) = t**(p-1)``.

    Returns ``(stochastic_type, parabolic_type)`` verdicts for the
    integrands ``(vol(B_r)/vol(dB_r))**(1/(p-1))`` and
    ``vol(dB_r)**(-1/(p-1))``.
    """
    if p <= 1:
        raise DomainError("p_laplacian_criteria requires p > 1")
    q = cfg.quadrature
    e = 1.0 / (p - 1.0)

    def ratio_integrand(r):
        return volume_ratio(M, r, 0.0, q) ** e

    def surface_integrand(r):
        return math.exp(-e * log_sphere_volume(M, r))

    st = test_L1_at_infinity(ratio_integrand, R0, cfg)
    pa = test_L1_at_infinity(surface_integrand, R0, cfg)
    return st, pa


# ---------------------------------------------------------------------------
# the growth condition on the potential


# Growth-condition integrands are smooth powers of an antiderivative, so a
# power-law tail extrapolation is reliable once the slope clears the margin;
# the laxer tail fraction lets slowly-converging near-critical cases resolve.
KO_DIVERGENCE = DivergenceConfig(r_max=1e6, tail_rel_tol=0.5)


def _beta_interpolant(pot: PotentialB, s_max: float, q: Quadrature):
    """Cumulative antiderivative of the potential on a log grid."""
    s = np.concatenate([[0.0], np.geomspace(1e-6, s_max, 400)])
    incr = np.array([q.integrate(lambda t: float(pot(t)), a, b)
                     for a, b in zip(s[:-1], s[1:])])
    vals = np.concatenate([[0.0], np.cumsum(incr)])
    return s, vals


def _kinetic_inverse(op: PhiOperator, y_max: float, q: Quadrature):
    """Inverse of ``t -> integral_0^t s phi'(s) ds`` via a monotone table."""
    # K(t) grows like t**p: size the grid so the table covers y_max
    t_hi = 4.0 * max(1.0, (op.a2 * op.p * y_max) ** (1.0 / op.p))
    t = np.concatenate([[0.0], np.geomspace(1e-8, t_hi, 600)])
    incr = np.array([q.integrate(lambda s: s * float(op.phi_prime(s)), a, b)
                     for a, b in zip(t[:-1], t[1:])])
    K = np.concatenate([[0.0], np.cumsum(incr)])
    if K[-1] < y_max:
        raise NumericError("kinetic primitive table does not cover the range")
    interp = PchipInterpolator(np.log(K[1:]), np.log(t[1:]))

    def k_inv(y):
        if y <= K[1]:
            # below the table: use the power-law behaviour near zero
            return t[1] * (y / K[1]) ** (1.0 / op.p)
        return math.exp(float(interp(math.log(y))))

    return k_inv


def keller_osserman(op: PhiOperator, pot: PotentialB,
                    cfg: DivergenceConfig = KO_DIVERGENCE,
                    s0: float = 1.0) -> KellerOssermanResult:
    """Growth verdict in both equivalent forms, with a cross-check.

    ``NotKO_holds`` means the reciprocal profiles are non-integrable, so
    radial solutions exist globally; ``NotKO_fails`` signals finite-radius
    blow-up.  Both the kinetic-primitive form and the ``beta**(-1/p)`` form
    are evaluated; a hard disagreement raises ``ConsistencyError``.
    """
    if not op.derivative_pinched:
        raise DomainError("keller_osserman requires the derivative-pinched "
                          "operator flag")
    q = cfg.quadrature
    s_grid, b_vals = _beta_interpolant(pot, cfg.r_max, q)
    if b_vals[-1] <= 0.0:
        # potential with vanishing antiderivative: both profiles are
        # infinite, trivially non-integrable
        return KellerOssermanResult("NotKO_holds", Verdict.DIVERGES,
                                    Verdict.DIVERGES)
    beta_i = PchipInterpolator(s_grid, b_vals)
    pos = np.nonzero(b_vals > 0)[0][0]
    R0 = max(s0, 2.0 * float(s_grid[pos]))
    k_inv = _kinetic_inverse(op, float(b_vals[-1]) * 1.05, q)

    def f_primitive(s):
        b = float(beta_i(s))
        if b <= 0.0:
            raise NumericError("antiderivative not positive on the test range")
        return 1.0 / k_inv(b)

    def f_simple(s):
        b = float(beta_i(s))
        if b <= 0.0:
            raise NumericError("antiderivative not positive on the test range")
        return b ** (-1.0 / op.p)

    v1 = test_L1_at_infinity(f_primitive, R0, cfg)
    v2 = test_L1_at_infinity(f_simple, R0, cfg)
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


# ---------------------------------------------------------------------------
# serialization

CSV_COLUMNS = ("manifold", "p", "potential", "property", "verdict", "c",
               "partial_integral", "slope")


def classification_rows(manifold_name: str, p: float, potential_name: str,
                        cls: Classification):
    """Flatten a classification into CSV rows (one per tested ``c``).

    Option separators inside a tag are written as ``;`` so that the field
    holds no comma (``linear-power:p=2;lambda=1``); the CLI reads either.
    """
    potential_field = potential_name.replace(",", ";")
    rows = []
    for c, dv in zip(cls.c_values_tested, cls.per_c):
        rows.append((manifold_name, f"{p:g}", potential_field,
                     cls.property.value, dv.verdict.value, f"{c:g}",
                     f"{dv.partial_integral:.12g}",
                     f"{dv.slope_estimate:.6g}"))
    return rows


def classification_text(manifold_name: str, p: float, potential_name: str,
                        cls: Classification) -> str:
    """Flat key=value rendering of a classification record."""
    lines = [f"manifold={manifold_name}", f"p={p:g}",
             f"potential={potential_name}", f"property={cls.property.value}"]
    for c, dv in zip(cls.c_values_tested, cls.per_c):
        lines.append(f"c={c:g} verdict={dv.verdict.value} "
                     f"partial_integral={dv.partial_integral:.12g} "
                     f"slope={dv.slope_estimate:.6g}")
    return "\n".join(lines)
