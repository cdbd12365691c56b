"""Tests for the integral classifiers and the blow-up growth condition."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson

from modelpot import cli, core, criteria, radial
from modelpot.criteria import OperatorTypeTag, PropertyTag, Verdict
from oracles import (OPERATOR_TAGS, WARPINGS, assert_slope_is_polyfit,
                     classify_c_sweep, operator_type_scan,
                     p_laplacian_criteria)


# ---------------------------------------------------------------------------
# the divergence heuristic on analytic integrands


def test_heuristic_harmonic_diverges():
    v = criteria.test_L1_at_infinity(lambda r: 1.0 / r, 1.0)
    assert v.verdict is Verdict.DIVERGES
    assert v.slope_estimate == pytest.approx(-1.0, abs=1e-6)
    assert v.partial_integral == pytest.approx(math.log(1e4), rel=1e-8)


def test_heuristic_quadratic_converges():
    v = criteria.test_L1_at_infinity(lambda r: r ** -2.0, 1.0)
    assert v.verdict is Verdict.CONVERGES
    assert v.slope_estimate == pytest.approx(-2.0, abs=1e-6)


def test_heuristic_supercritical_power_diverges():
    v = criteria.test_L1_at_infinity(lambda r: r ** -0.5, 1.0)
    assert v.verdict is Verdict.DIVERGES


def test_heuristic_exponential_converges():
    v = criteria.test_L1_at_infinity(lambda r: np.exp(-r), 1.0)
    assert v.verdict is Verdict.CONVERGES


def test_heuristic_blind_spot_is_inconclusive():
    # 1/(r log r): diverges, but the fitted slope -1 - 1/log(r) sits inside
    # the critical band at any finite truncation
    v = criteria.test_L1_at_infinity(lambda r: 1.0 / (r * np.log(r)), 2.0)
    assert v.verdict is Verdict.INCONCLUSIVE
    assert -1.15 < v.slope_estimate < -1.01


def test_heuristic_slow_convergence_resolved_by_tail():
    # 1/(r log^2 r) converges; the slope estimate clears the margin
    v = criteria.test_L1_at_infinity(
        lambda r: 1.0 / (r * np.log(r) ** 2), 2.0)
    assert v.verdict is Verdict.CONVERGES


def test_heuristic_partial_integral_matches_closed_forms():
    v = criteria.test_L1_at_infinity(lambda r: r ** -2.0, 1.0)
    assert v.partial_integral == pytest.approx(1.0 - 1e-4, rel=1e-9)
    v = criteria.test_L1_at_infinity(lambda r: np.exp(-r), 1.0)
    assert v.partial_integral == pytest.approx(math.exp(-1.0), rel=1e-9)
    # a partial last decade
    v = criteria.test_L1_at_infinity(lambda r: r ** -1.5, 2.0, 3e3)
    exact = 2.0 * (2.0 ** -0.5 - 3e3 ** -0.5)
    assert v.partial_integral == pytest.approx(exact, rel=1e-9)


def test_heuristic_large_constant_diverges_by_its_slope():
    # no size decides: a constant diverges by its slope 0, as 1 does
    v = criteria.test_L1_at_infinity(lambda r: 1e6, 1.0)
    assert (v.verdict, v.reason) == (Verdict.DIVERGES, "critical_slope")
    assert v.partial_integral == pytest.approx(1e6 * (1e4 - 1.0), rel=1e-9)
    assert v.slope_estimate == pytest.approx(0.0, abs=1e-9)


def test_heuristic_validation():
    with pytest.raises(core.DomainError):
        criteria.test_L1_at_infinity(lambda r: 1.0, 0.0)
    with pytest.raises(core.NumericError):
        criteria.test_L1_at_infinity(lambda r: -1.0, 1.0)
    for r_max in (math.inf, math.nan):
        with pytest.raises(core.DomainError, match="r_max < inf"):
            criteria.test_L1_at_infinity(lambda r: 1.0 / r, 1.0, r_max)
    # a few ulps hold fewer distinct radii than the rule has nodes, whose
    # spacings would vanish and be divided by
    with pytest.raises(core.DomainError, match="too short to sample"):
        criteria.test_L1_at_infinity(lambda r: 1.0 / r, 1e3,
                                     1e3 * (1.0 + 3e-16))


@pytest.mark.parametrize("r_max", [1e3, 3e3, 1e4, 9999.0])
@pytest.mark.parametrize("R0", [0.5, 1.0, 2.0, 3.7])
def test_decade_rule_is_scipy_simpson(R0, r_max):
    # the divergence rule: the table nodes of [R0, r_max], which the slope
    # fit shares; every pair but (1, 1e3) and (1, 1e4) ends on a short
    # last interval.  The partial integral is scipy's cumulative Simpson
    # rule in log r, bit for bit
    grid, _ = criteria._divergence_rule(R0, r_max)
    nodes = core.geometric_grid(R0, r_max)
    assert np.array_equal(grid, nodes)
    assert nodes[0] == R0 and nodes[-1] == r_max
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = rng.uniform(0.0, 1.0, grid.size) * grid ** rng.uniform(-3, -1)
        y = nodes * f
        expected = cumulative_simpson(y, x=np.log(nodes), initial=0.0)[-1]
        dv = criteria.test_L1_at_infinity(lambda r: f, R0, r_max)
        assert dv.partial_integral == expected


@settings(max_examples=300, deadline=None)
@given(R0=st.floats(1e-3, 1e3), n=st.integers(2, 129),
       slope=st.floats(-5.0, 5.0), data=st.data())
def test_slope_is_the_least_squares_fit_of_polyfit(R0, n, slope, data):
    # a stretch of table nodes, as the divergence test fits it: a power
    # times noise, some samples zero and masked out
    rs = R0 * 10.0 ** (np.arange(n) / core.POINTS_PER_DECADE)
    noise = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                               max_size=n))
    zero = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    vals = np.where(zero, 0.0, rs ** slope * np.exp(noise))
    assert_slope_is_polyfit(rs, vals)


@pytest.mark.parametrize("f,R0,verdict,reason", [
    (lambda r: np.exp(-r), 1.0, Verdict.CONVERGES, "tail_underflow"),
    # an integrand that reaches zero before r_max has no tail to extrapolate
    (lambda r: np.where(r < 2e3, r ** -2.0, 0.0), 2.0, Verdict.CONVERGES,
     "tail_underflow"),
    # zeros inside the last decade, but not at r_max: no slope to fit
    (lambda r: np.where((r > 1.5e3) & (r < 9e3), 0.0, r ** -2.0), 1.0,
     Verdict.INCONCLUSIVE, "few_positive_samples"),
    # R0 inside the last decade, whose nodes are then all the grid's: 1
    # of 3 positive is fewer than half, and 1 of 2 is half but fewer than
    # 2; neither is fitted (a fit of one point warns)
    (lambda r: np.where(r < 1e4, 0.0, r ** -2.0), 9.7e3,
     Verdict.INCONCLUSIVE, "few_positive_samples"),
    (lambda r: np.where(r < 1e4, 0.0, r ** -2.0), 9.9e3,
     Verdict.INCONCLUSIVE, "few_positive_samples"),
    (lambda r: 1.0 / r, 1.0, Verdict.DIVERGES, "critical_slope"),
    # last samples near 1e-294 are no underflow: only an exact 0 is
    (lambda r: 1e-290 / r, 1.0, Verdict.DIVERGES, "critical_slope"),
    (lambda r: 1e-290 * r ** -0.9, 1.0, Verdict.DIVERGES, "critical_slope"),
    # a steady power in the margin: both decades fit the slope -1.1, so
    # the extrapolated tail (4.8e5, on a partial integral of 7.2e5) is
    # exact
    (lambda r: 1.2e5 * r ** -1.1, 1.0, Verdict.CONVERGES,
     "steady_power_tail"),
    # steady powers within SLOPE_BAND of -1 converge too: only rounding
    # (the fit of 1/r returns -1 to ~1e-12) makes a slope critical there
    (lambda r: r ** -1.002, 1.0, Verdict.CONVERGES, "steady_power_tail"),
    (lambda r: r ** -1.005, 1.0, Verdict.CONVERGES, "steady_power_tail"),
    (lambda r: r ** -1.009, 1.0, Verdict.CONVERGES, "steady_power_tail"),
    # a slope in the band that drifts toward -1 stays critical
    (lambda r: 1.0 / (r * np.log(math.e + r) ** 0.01), 1.0,
     Verdict.DIVERGES, "critical_slope"),
    (lambda r: 1.0 / (r * np.log(math.e + r) ** 0.05), 1.0,
     Verdict.DIVERGES, "critical_slope"),
    (lambda r: r ** -2.0, 1.0, Verdict.CONVERGES, "tail_within_tolerance"),
    (lambda r: 1.0 / (r * np.log(r)), 2.0, Verdict.INCONCLUSIVE,
     "slope_or_tail_undecided"),
])
@pytest.mark.filterwarnings("error")
def test_divergence_reason_names_the_branch(f, R0, verdict, reason):
    dv = criteria.test_L1_at_infinity(f, R0)
    assert (dv.verdict, dv.reason) == (verdict, reason)


@pytest.mark.parametrize("f,verdict", [
    (lambda r: r ** -1.2, Verdict.CONVERGES),
    (lambda r: r ** -2.0, Verdict.CONVERGES),
    (lambda r: 1.0 / r, Verdict.DIVERGES),
    (lambda r: 1.0 / (r * np.log(r) ** 2), Verdict.CONVERGES),
    (lambda r: 1.0 / (r * np.log(r)), Verdict.INCONCLUSIVE),
], ids=["r^-1.2", "r^-2", "1/r", "1/(r log^2 r)", "1/(r log r)"])
def test_a_constant_factor_moves_no_verdict(f, verdict):
    # integrability does not see a constant factor, and neither does the
    # test: at 1e-290 the samples are still normal doubles, far from 0
    for scale in (1e-290, 1e-12, 1.0, 1e12):
        dv = criteria.test_L1_at_infinity(lambda r: scale * f(r), 2.0)
        assert dv.verdict is verdict, (scale, dv)


# ---------------------------------------------------------------------------
# comparison profiles


def test_v_pa_closed_form():
    M = core.manifold_from_tag("euclidean", 2)
    op = core.p_laplacian_operator(2.0)
    assert criteria.v_pa(M, op, 0.5, 4.0) == pytest.approx(0.125)
    op3 = core.p_laplacian_operator(3.0)
    # phi^-1(y) = sqrt(y)
    assert criteria.v_pa(M, op3, 1.0, 4.0) == pytest.approx(0.5)


def test_v_st_closed_form():
    M = core.manifold_from_tag("euclidean", 3)
    op = core.p_laplacian_operator(2.0)
    # r^-2 * (r^3 - 1)/3 at r=2, c=1
    assert criteria.v_st(M, op, 1.0, 1.0, 2.0) == pytest.approx(7.0 / 12.0)
    assert criteria.v_st(M, op, 1.0, 1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# classifier truth table


TRUTH_TABLE = [
    ("euclidean", 2, 2.0, PropertyTag.PARABOLIC),
    ("euclidean", 3, 3.0, PropertyTag.PARABOLIC),
    ("euclidean", 3, 2.0, PropertyTag.NON_PARABOLIC),
    ("hyperbolic", 3, 2.0, PropertyTag.NON_PARABOLIC),
]


@pytest.mark.parametrize("tag,m,p,expected", TRUTH_TABLE)
def test_classify_parabolic_truth_table(tag, m, p, expected):
    M = core.manifold_from_tag(tag, m)
    op = core.p_laplacian_operator(p)
    cls = criteria.classify_parabolic(M, op)
    assert cls.property is expected


def test_classify_parabolic_slope_margins():
    # resolved verdicts clear the inconclusive band by >= 0.15
    M = core.manifold_from_tag("euclidean", 3)
    op = core.p_laplacian_operator(2.0)
    cls = criteria.classify_parabolic(M, op)
    assert abs(cls.divergence.slope_estimate - (-1.0)) >= 0.15


def test_classify_KL_linear_potential_holds():
    M = core.manifold_from_tag("euclidean", 3)
    op = core.p_laplacian_operator(2.0)
    pot = core.linear_power_potential(2.0, 1.0)
    cls = criteria.classify_KL(M, op, pot)
    assert cls.property is PropertyTag.KL_HOLDS


def test_classify_KL_fast_growth_fails():
    M = core.manifold_from_tag("power-exp:alpha=3", 2)
    op = core.p_laplacian_operator(2.0)
    pot = core.linear_power_potential(2.0, 1.0)
    cls = criteria.classify_KL(M, op, pot)
    assert cls.property is PropertyTag.KL_FAILS


def test_classify_KL_zero_potential_reduces_to_parabolicity():
    op = core.p_laplacian_operator(2.0)
    pot = core.zero_potential()
    M2 = core.manifold_from_tag("euclidean", 2)
    M3 = core.manifold_from_tag("euclidean", 3)
    assert criteria.classify_KL(M2, op, pot).property is PropertyTag.KL_HOLDS
    assert criteria.classify_KL(M3, op, pot).property is PropertyTag.KL_FAILS


def test_classify_inconclusive_on_tabulated_blind_spot():
    # warping r*log(e+r): the parabolicity integrand behaves like
    # 1/(r log r), squarely inside the heuristic's critical band
    r = np.geomspace(1e-3, 2e4, 4000)
    g = r * np.log(math.e + r)
    M = core.tabulated_manifold(r, g, m=2)
    op = core.p_laplacian_operator(2.0)
    cls = criteria.classify_parabolic(M, op)
    assert cls.property is PropertyTag.INCONCLUSIVE


def test_classify_KL_on_tabulated_warping():
    # g = r (1 + r^2)^(1/2) ~ r^2 at m=2: vol(B_r)/vol(dB_r) ~ r/3, so the
    # Type 1 profile is not integrable for any c
    r = np.geomspace(1e-3, 2e4, 4000)
    M = core.tabulated_manifold(r, r * np.sqrt(1.0 + r ** 2), m=2)
    cls = criteria.classify_KL(M, core.p_laplacian_operator(2.0),
                               core.potential_from_tag("superlinear:q=1"))
    assert cls.property is PropertyTag.KL_HOLDS


def test_operator_type_classification():
    t1 = criteria.classify_operator_type(core.linear_power_potential(2.0, 1.0))
    assert t1 is OperatorTypeTag.TYPE1
    t2 = criteria.classify_operator_type(core.plateau_potential(1.0, 2.0))
    assert t2 is OperatorTypeTag.TYPE2
    tz = criteria.classify_operator_type(core.zero_potential())
    assert tz is OperatorTypeTag.TYPE2


def _recording(base):
    """``base`` with a ``B`` that records every argument it is called
    with, as a float array."""
    args = []

    def B(t):
        args.append(np.asarray(t, dtype=float))
        return base.B(t)

    pot = dataclasses.replace(base, B=B)
    args.clear()
    return pot, args


@pytest.mark.parametrize("T", [1.0, 1e-3])
def test_operator_type_probes_in_one_call(T):
    # one call of B, on one probe, with the verdict of the 200-probe scan
    pot, args = _recording(core.plateau_potential(T, 2.0))
    res = criteria.classify_operator_type(pot)
    assert [a.shape for a in args] == [(1,)]
    assert res is OperatorTypeTag.TYPE2 is operator_type_scan(pot)


PRESET_TAGS = ("zero", "linear-power:p=2,lambda=1",
               "linear-power:p=1.5,lambda=0.01", "linear-power:p=3,lambda=2",
               "plateau:T=1,p=2", "plateau:T=0.001,p=6",
               "plateau:T=1e-07,p=2", "superlinear:q=5",
               "superlinear:q=0.5")
CUSTOM = tuple(
    core.PotentialB(B=lambda t, T=T: np.maximum(t - T, 0.0),
                    name=f"zero on [0, {T:g}]")
    for T in (1e-7, 5e-7, 1e-3, 1.0, 20.0)) + (
    core.PotentialB(B=lambda t: t ** 60, name="t**60"),  # 0 at 1e-6
    core.PotentialB(B=lambda t: t ** 0.1, name="t**0.1"))


@pytest.mark.parametrize("pot", [core.potential_from_tag(tag)
                                 for tag in PRESET_TAGS] + list(CUSTOM),
                         ids=lambda pot: pot.name)
def test_one_probe_type_is_the_scan(pot):
    recorded, args = _recording(pot)
    assert criteria.classify_operator_type(recorded) \
        is operator_type_scan(pot)
    assert [a.shape for a in args] == [(1,)]


@pytest.mark.parametrize("tag", ["zero", "linear-power:p=2,lambda=1",
                                 "plateau:T=1,p=2", "superlinear:q=5"])
def test_the_potential_is_read_at_nonnegative_arguments(tag):
    # every argument B receives is finite and >= 0: B is never asked
    # below 0, where a potential is not defined
    pot, args = _recording(core.potential_from_tag(tag))
    M, op = core.manifold_from_tag("euclidean", 2), \
        core.p_laplacian_operator(2.0)
    criteria.classify_KL(M, op, pot)
    criteria.keller_osserman(op, pot)
    if tag.startswith("superlinear"):
        with pytest.raises(core.DomainError):   # no t**(p-1) bound
            radial.evans_for_triple(M, op, pot, R=1.0, R1=2.0, eps=0.1,
                                    R_max=40.0)
    else:
        radial.evans_for_triple(M, op, pot, R=1.0, R1=2.0, eps=0.1,
                                R_max=40.0)
    seen = np.concatenate([a.ravel() for a in args])
    assert len(args) > 2 and seen.size > 1000
    assert np.all(np.isfinite(seen)) and seen.min() >= 0.0


# ---------------------------------------------------------------------------
# cross-consistency of the generic and p-Laplacian paths


CROSS_CASES = [("euclidean", 2), ("euclidean", 3),
               ("hyperbolic", 3), ("power-exp:alpha=3", 2)]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("tag,m", CROSS_CASES)
def test_cross_consistency_parabolic_form(tag, m, p):
    M = core.manifold_from_tag(tag, m)
    op = core.p_laplacian_operator(p)
    _, pa = p_laplacian_criteria(M, p)
    generic = criteria.classify_parabolic(M, op).divergence.verdict
    assert generic is pa.verdict


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("tag,m", CROSS_CASES)
def test_cross_consistency_stochastic_form(tag, m, p):
    M = core.manifold_from_tag(tag, m)
    op = core.p_laplacian_operator(p)
    st, _ = p_laplacian_criteria(M, p)
    pot = core.linear_power_potential(p, 1.0)   # strictly positive: Type1
    generic = criteria.classify_KL(M, op, pot).divergence.verdict
    assert generic is st.verdict


def test_one_scale_keeps_the_property_of_the_c_sweep():
    # 7 warpings x 6 operators x 4 potentials, and the benchmark's table
    # g = r (1 + r^2)^(-1/4) ~ r^(1/2): each property at c = 1 is the one
    # the sweep over four scales gives
    r = np.geomspace(1e-3, 1e4, 400)
    table = core.tabulated_manifold(r, r * (1.0 + r * r) ** -0.25, m=2)
    manifolds = [core.manifold_from_tag(tag, m) for tag, m in WARPINGS]
    cases, wrong = 0, []
    for M in manifolds + [table]:
        for op in map(core.operator_from_tag, OPERATOR_TAGS):
            for pot in (None, core.plateau_potential(1.0, op.p),
                        core.linear_power_potential(op.p, 1.0),
                        core.superlinear_potential(op.p + 0.5)):
                cls = criteria.classify_parabolic(M, op) if pot is None \
                    else criteria.classify_KL(M, op, pot)
                expected = classify_c_sweep(M, op, pot)
                cases += 1
                if cls.property is not expected:
                    wrong.append((M.name, M.m, op.name, pot and pot.name,
                                  cls.property.value, expected.value))
    assert cases == 7 * 6 * 4 + 6 * 4
    assert wrong == []


def _dip_table(k: float, m: int, a: float) -> core.ModelManifold:
    """``g = r`` up to r = 1, then ``log g`` moves by a smoothstep on [1, 2]
    to ``log(a r^k)``: a legal table (``g'(0) = 1``) whose warping past 2
    is ``a r^k``, sampled to 1e4."""
    r = np.geomspace(1e-3, 1e4, 3000)
    s = np.clip(r - 1.0, 0.0, 1.0)
    s = s * s * (3.0 - 2.0 * s)
    return core.tabulated_manifold(
        r, np.exp((1.0 - s) * np.log(r) + s * np.log(a * r ** k)), m,
        name=f"dip:k={k:g},a={a:g}")


@pytest.mark.parametrize("k,m,p", [(0.5, 2, 2.0), (1.0, 2, 2.0),
                                   (1.0, 3, 2.0), (1.5, 3, 3.0),
                                   (1.2, 3, 3.0), (0.4, 4, 2.0)])
def test_the_dip_depth_moves_no_parabolicity(k, m, p):
    # past r = 2 the warping is a r^k, and a constant factor does not change
    # parabolicity: from R0 = 2 it is non-parabolic iff k (m-1)/(p-1) > 1,
    # at every depth a of the dip
    op = core.p_laplacian_operator(p)
    expected = PropertyTag.NON_PARABOLIC if k * (m - 1) / (p - 1) > 1 \
        else PropertyTag.PARABOLIC
    for a in (1e6, 1.0, 1e-3, 1e-6, 1e-9):
        cls = criteria.classify_parabolic(_dip_table(k, m, a), op, R0=2.0)
        assert cls.property is expected, (a, cls)


def test_hyperbolic_volume_ratio_verdicts():
    # vol(B_r)/vol(dB_r) -> 1/2 on hyperbolic m=3: the ratio form diverges
    # even though the surface form converges (stochastically complete but
    # non-parabolic)
    M = core.manifold_from_tag("hyperbolic", 3)
    st, pa = p_laplacian_criteria(M, 2.0)
    assert st.verdict is Verdict.DIVERGES
    assert pa.verdict is Verdict.CONVERGES


def test_classifiers_sample_without_quadrature(monkeypatch):
    calls = []
    integrate = core.Quadrature.integrate

    def counted(self, f, a, b, points=None):
        calls.append((a, b))
        return integrate(self, f, a, b, points=points)

    monkeypatch.setattr(core.Quadrature, "integrate", counted)
    for op in (core.p_laplacian_operator(3.0), core.perturbed_operator(2.0)):
        pot = core.linear_power_potential(op.p, 1.0)
        for tag, m in CROSS_CASES:
            M = core.manifold_from_tag(tag, m)
            criteria.classify_parabolic(M, op)
            criteria.classify_KL(M, op, pot)
            p_laplacian_criteria(M, op.p)
    assert calls == []


def test_classifier_volume_ratio_node_counts(monkeypatch):
    # nodes of the volume-ratio table: the test's radii, whose grid is the
    # table's own, so that no node is added; Type 1 classify_KL builds one
    # table
    seen = []
    log_sphere_volume = core.log_sphere_volume

    def spy(M, r):
        seen.append(np.shape(r))
        return log_sphere_volume(M, r)

    monkeypatch.setattr(core, "log_sphere_volume", spy)
    M = core.manifold_from_tag("euclidean", 2)
    op = core.p_laplacian_operator(2.0)
    pot = core.linear_power_potential(2.0, 1.0)
    p_laplacian_criteria(M, 2.0, R0=1.0)
    assert seen[0] == (897,)
    for R0, nodes in ((1.0, 513), (2.0, 475)):
        seen.clear()
        criteria.classify_KL(M, op, pot, R0=R0)
        assert [s for s in seen if len(s) == 1] == [(nodes,)]


# ---------------------------------------------------------------------------
# growth condition


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("kind", ["critical", "super", "plateau"])
def test_keller_osserman_grid(p, kind):
    op = core.p_laplacian_operator(p)
    if kind == "critical":
        pot = core.linear_power_potential(p, 1.0)
        expected = "NotKO_holds"          # q = p-1
    elif kind == "super":
        pot = core.superlinear_potential(p - 1.0 + 0.5)
        expected = "NotKO_fails"          # q > p-1
    else:
        pot = core.plateau_potential(1.0, p)
        expected = "NotKO_holds"          # q = p-1 beyond the plateau
    res = criteria.keller_osserman(op, pot)
    assert res.verdict == expected
    assert res.form_primitive is res.form_simple


def test_keller_osserman_zero_potential_trivially_holds():
    op = core.p_laplacian_operator(2.0)
    res = criteria.keller_osserman(op, core.zero_potential())
    assert res.verdict == "NotKO_holds"


def test_keller_osserman_analytic_oracle():
    # beta(t) = t^(q+1)/(q+1): beta^(-1/p) integrable iff q > p - 1.  Past
    # q = 49 beta passes BETA_MAX before 1e6, and the test range ends at
    # the last node below it (its table of t^q ended in ValueError)
    for p, q in [(2.0, 0.5), (2.0, 1.0), (2.0, 5.0), (3.0, 1.5), (3.0, 3.0),
                 (2.0, 60.0), (3.0, 300.0)]:
        op = core.p_laplacian_operator(p)
        pot = core.superlinear_potential(q)
        res = criteria.keller_osserman(op, pot)
        assert res.verdict == ("NotKO_holds" if q <= p - 1 else "NotKO_fails")


def test_keller_osserman_builds_one_rule(monkeypatch):
    # both forms share one divergence rule, and the test still runs twice
    built, tested = [], []
    rule, test = criteria._divergence_rule, criteria.test_L1_at_infinity
    monkeypatch.setattr(criteria, "_divergence_rule",
                        lambda *a: built.append(a) or rule(*a))
    monkeypatch.setattr(criteria, "test_L1_at_infinity",
                        lambda *a: tested.append(a) or test(*a))
    op = core.p_laplacian_operator(2.0)
    for pot in (core.linear_power_potential(2.0, 1.0),
                core.superlinear_potential(1.5),
                core.plateau_potential(1.0, 2.0)):
        built.clear()
        tested.clear()
        criteria.keller_osserman(op, pot)
        assert len(built) == 1 and len(tested) == 2
        assert all(args[3] is tested[0][3] for args in tested)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_plateau_beta_table_has_its_kink_as_a_node(p):
    # beta(s) = (s - T)**p / p past the kink T = 1; the panel that starts
    # there is graded, as the head panel is
    s, beta = criteria._beta_interpolant(core.plateau_potential(1.0, p))
    assert 1.0 in s
    far = s >= 2.0
    assert np.allclose(beta[far], (s[far] - 1.0) ** p / p, rtol=1e-12,
                       atol=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_growth_tables_match_closed_forms(p):
    s, beta = criteria._beta_interpolant(core.linear_power_potential(p, 2.0))
    assert np.allclose(beta[s >= 1.0], 2.0 * s[s >= 1.0] ** p / p,
                       rtol=1e-12, atol=0.0)
    # K(t) = (p-1) t^p / p is a line in log-log, which the monotone
    # interpolant of the inverse table reproduces between nodes too
    k_inv = criteria._kinetic_inverse(core.p_laplacian_operator(p), 1e6)
    t = np.geomspace(1.0, 100.0, 57)
    assert np.allclose(k_inv((p - 1.0) * t ** p / p), t, rtol=1e-12, atol=0.0)


def test_growth_grids_are_read_only():
    # the beta table's nodes and the blow-up tail's kinetic panel are built
    # once, bit for bit the grids that every call used to build
    for grid, built in (
            (criteria._BETA_GRID, np.concatenate(
                [[0.0], np.geomspace(1e-6, criteria.KO_R_MAX, 400)])),
            (radial._KINETIC_PANEL,
             np.append(0.0, np.geomspace(1e-8, 1.0, 65)))):
        assert grid.tobytes() == built.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1.0


@pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
def test_table_head_panel_is_exact_for_a_power(a):
    # [0, b] of t**a is b**(a+1)/(a+1) in closed form, from f(b/2), f(b);
    # 1/t is not integrable at 0 and is refused by name
    b = 1e-6
    table = criteria._cumulative_table(lambda t: t ** a,
                                       np.array([0.0, b, 2.0 * b]))
    assert table[1] == pytest.approx(b ** (a + 1.0) / (a + 1.0), rel=1e-14)
    with pytest.raises(core.QuadratureError, match="not integrable at 0"):
        criteria._cumulative_table(lambda t: 1.0 / t,
                                   np.array([0.0, b, 2.0 * b]))


def test_keller_osserman_integrates_only_its_head_panels(monkeypatch):
    # the one graded panel is the plateau's at its kink T = 1; the head
    # panels at 0 of the beta and kinetic tables are powers, integrated
    # in closed form (they were graded quadratures too)
    calls = []
    integrate = core.Quadrature.integrate

    def counted(self, f, a, b, points=None):
        calls.append((a, b))
        return integrate(self, f, a, b, points=points)

    monkeypatch.setattr(core.Quadrature, "integrate", counted)
    for op in (core.p_laplacian_operator(1.5), core.perturbed_operator(3.0)):
        for pot in (core.linear_power_potential(op.p, 1.0),
                    core.superlinear_potential(op.p + 0.5),
                    core.plateau_potential(1.0, op.p), core.zero_potential()):
            calls.clear()
            criteria.keller_osserman(op, pot)
            starts = [1.0] if pot.name.startswith("plateau") else []
            assert [a for a, _ in calls] == starts, pot.name


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
def test_keller_osserman_perturbed_grid(p):
    op = core.perturbed_operator(p)
    for pot, q in [(core.linear_power_potential(p, 1.0), p - 1.0),
                   (core.superlinear_potential(p + 0.5), p + 0.5),
                   (core.superlinear_potential((p - 1.0) / 2.0),
                    (p - 1.0) / 2.0),
                   (core.plateau_potential(1.0, p), p - 1.0)]:
        res = criteria.keller_osserman(op, pot)
        assert res.verdict == ("NotKO_holds" if q <= p - 1.0
                               else "NotKO_fails"), pot.name
        assert res.form_primitive is res.form_simple, pot.name


# ---------------------------------------------------------------------------
# serialization


def test_classification_rows_and_text(capsys):
    M = core.manifold_from_tag("euclidean", 2)
    op = core.p_laplacian_operator(2.0)
    cls = criteria.classify_parabolic(M, op)
    row = cli._classification_row("euclidean", 2.0, "zero", cls)
    fields = row.split(",")
    assert len(fields) == len(cli.CSV_COLUMNS)
    assert fields[3] == "Parabolic"
    # the classify command writes the same row under its header
    assert cli.main(["classify", "--set", "manifold=euclidean",
                     "--set", "m=2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# command=classify", ",".join(cli.CSV_COLUMNS)]
    assert lines[2:] == [row]
