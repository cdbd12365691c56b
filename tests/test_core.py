"""Unit and property tests for manifolds, nonlinearities and potentials."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from modelpot import core, criteria
from oracles import phi_inverse_brentq, volume_ratio_reference


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_polynomial_exact():
    q = core.Quadrature()
    assert q.integrate(lambda t: 3 * t ** 2, 0.0, 2.0) == pytest.approx(8.0)


def test_quadrature_empty_interval():
    assert core.Quadrature().integrate(lambda t: t, 1.0, 1.0) == 0.0


def test_quadrature_nonfinite_raises():
    with pytest.raises(core.QuadratureError):
        core.Quadrature().integrate(lambda t: 1.0 / t, 0.0, 1.0)


@pytest.mark.parametrize("x", [1e-8, 1e-6, 1.0, 3.0])
@pytest.mark.parametrize("q", [0.05, 0.1, 0.25, 0.5, 1.0, 4.5])
def test_quadrature_power_head_panel(x, q):
    # the head panels of keller_osserman's tables: t**q on [0, x], which
    # the power rule integrates in closed form, to rounding
    exact = x ** (q + 1.0) / (q + 1.0)
    got = core.Quadrature().integrate(lambda t: t ** q, 0.0, x)
    assert abs(got - exact) <= 1e-14 * exact


@pytest.mark.parametrize("T, p", [(0.5, 1.1), (1.0, 1.5), (2.0, 3.0)])
def test_quadrature_kink_panel(T, p):
    # the kink panel of a plateau potential, max(t - T, 0)**(p - 1) from T
    f = core.plateau_potential(T, p).B
    exact = 0.7 ** p / p
    got = core.Quadrature().integrate(f, T, T + 0.7)
    assert abs(got - exact) <= 1e-14 * exact


def test_power_panel_refuses_a_zero_middle_below_a_positive_end():
    # a custom kink whose potential is 0 up to 60% of the beta table's
    # kink panel and a square root past it: no power of t - T is 0 at the
    # middle and positive at the end, and the rule's k = inf used to give
    # the panel 0 (its integral is 1.1e-3); the panel and both values are
    # named
    grid = criteria._BETA_GRID
    end = float(grid[np.searchsorted(grid, 1.0, side="right")])
    start = 1.0 + 0.6 * (end - 1.0)
    pot = core.PotentialB(
        B=lambda t: np.sqrt(np.maximum(np.asarray(t, float) - start, 0.0)),
        kink=1.0)
    whole = math.sqrt(end - start)
    message = re.escape(
        f"the panel [1, {end:.3e}] is no power of (t - 1): its integrand is "
        f"0 at {1.0 + 0.5 * (end - 1.0):.3e} and {whole:g} at {end:.3e}")
    with pytest.raises(core.QuadratureError, match=message):
        core.Quadrature().integrate(pot.B, 1.0, end)
    with pytest.raises(core.QuadratureError, match=message):
        criteria._beta_interpolant(pot)
    # a panel on which the integrand is 0 at its end stays 0, and so does
    # one whose middle underflows below a subnormal end: t**52 on the
    # beta table's head panel [0, 1e-6] is 1e-312 at its end, and
    # superlinear:q=52 keeps its verdict
    assert core.Quadrature().integrate(pot.B, 1.0, start) == 0.0
    assert core.Quadrature().integrate(lambda t: t ** 52, 0.0, 1e-6) == 0.0
    assert criteria.keller_osserman(
        core.p_laplacian_operator(2.0),
        core.superlinear_potential(52.0)).verdict == "NotKO_fails"


def half_t(t):
    return 0.5 * np.asarray(t, dtype=float)


def bump_past_the_samples(t):
    """0 up to 11, a bump of 5 on (11, 12), then ``max(t - 30, 0)``: its
    kink T = 30 has B(T) = 0, and it is non-decreasing on [0, 10], where
    every potential was sampled before the samples ran on to 1e6."""
    t = np.asarray(t, dtype=float)
    return 5.0 * ((t > 11.0) & (t < 12.0)) + np.maximum(t - 30.0, 0.0)


def bump_between_the_samples(t):
    """A bump of 5 on (11.05, 11.13), between the potential samples 10.94
    and 11.14 but over the kink sample 11.1, then ``max(t - 30, 0)``."""
    t = np.asarray(t, dtype=float)
    return 5.0 * ((t > 11.05) & (t < 11.13)) + np.maximum(t - 30.0, 0.0)


def past_thirty(t):
    """``max(t - 30, 0)``: 0 on every sample up to 30, and on [0, 10]."""
    return np.maximum(np.asarray(t, dtype=float) - 30.0, 0.0)


@pytest.mark.parametrize("B,kink,message", [
    (half_t, 1.0, r"potential must vanish up to its kink T=1, got "
                  r"B\(0\.01\)=0\.005 and B\(T\)=0\.5"),
    (half_t, 0.0, r"kink must be positive, got T=0"),
    (half_t, -1.0, r"kink must be positive, got T=-1"),
    (bump_past_the_samples, 30.0, r"potential must be non-decreasing, got "
                                  r"B\(11\.97\)=5 > B\(12\.19\)=0"),
    (bump_between_the_samples, 30.0, r"potential must vanish up to its kink "
                                     r"T=30, got B\(11\.1\)=5 and B\(T\)=0"),
    # T = inf says B = 0: any sample where B is not 0 is named
    (half_t, math.inf, r"potential must vanish up to its kink T=inf, got "
                       r"B\(1e-06\)=5e-07$"),
    (past_thirty, math.inf, r"potential must vanish up to its kink T=inf, "
                            r"got B\(30\.5053\)=0\.505279$"),
])
def test_potential_refuses_a_kink_where_it_does_not_vanish(B, kink, message):
    # past a kink B is a power of t - T, so B(T) = 0, and B, nonnegative
    # and non-decreasing, vanishes on [0, T]: evans takes the constant-flux
    # profile there, which would hide the bump from an evans run whose c z
    # crosses (11, 12); the samples to 1e6 see the bump fall first, and
    # the kink's own samples see one that falls between them
    with pytest.raises(ValueError, match=message):
        core.PotentialB(B=B, kink=kink)
    # the plateau vanishes at its kink, and a kink where B = 0 is kept,
    # at infinity too
    assert core.plateau_potential(1.0, 2.0).kink == 1.0
    assert core.PotentialB(B=lambda t: 0.0 * np.asarray(t, dtype=float),
                           kink=math.inf).kink == math.inf
    assert core.PotentialB(B=lambda t: 0.5 * np.maximum(
        np.asarray(t, dtype=float) - 2.0, 0.0), kink=2.0).kink == 2.0


def test_quadrature_refuses_split_points():
    with pytest.raises(ValueError, match="no split points"):
        core.Quadrature().integrate(lambda t: t, 0.0, 1.0, points=[0.5])


def test_quadrature_calls_the_integrand_once():
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return t

    assert core.Quadrature().integrate(f, 0.0, 2.0) == pytest.approx(2.0)
    assert calls == [(2,)]


def test_gauss_legendre_literals_are_leggauss():
    # the table panels' rule, written out so that no command imports
    # numpy.polynomial: leggauss(8) mapped to [0, 1], bit for bit
    x, w = np.polynomial.legendre.leggauss(8)
    assert core._GL_NODES.tobytes() == (0.5 * (x + 1.0)).tobytes()
    assert core._GL_WEIGHTS.tobytes() == (0.5 * w).tobytes()


# ---------------------------------------------------------------------------
# manifolds


def test_euclidean_volumes():
    M = core.manifold_from_tag("euclidean", 3)
    # vol(dB_r) = r^2 (angular factor normalized away)
    assert np.exp(core.log_sphere_volume(M, 2.0)) == pytest.approx(4.0)
    assert core.log_sphere_volume(M, 2.0) == pytest.approx(2 * math.log(2))
    assert core.volume_ratio(M, 2.0) == pytest.approx(2.0 / 3.0)


def test_hyperbolic_volumes():
    M = core.manifold_from_tag("hyperbolic", 2)
    assert np.exp(core.log_sphere_volume(M, 1.5)) == \
        pytest.approx(math.sinh(1.5))
    # ratio -> 1 as r -> inf in H^2
    assert core.volume_ratio(M, 40.0) == pytest.approx(1.0, rel=1e-6)


def test_hyperbolic_log_matches_direct():
    M = core.manifold_from_tag("hyperbolic", 3)
    for r in (0.1, 1.0, 5.0, 20.0):
        assert float(M.log_g(r)) == pytest.approx(math.log(math.sinh(r)),
                                                  rel=1e-12)


def test_log_form_survives_overflowing_warping():
    M = core.manifold_from_tag("power-exp:alpha=3", 2)
    # g(100) = 100 * e^1e6 overflows a double; log form must not
    assert math.isfinite(core.log_sphere_volume(M, 100.0))
    ratio = core.volume_ratio(M, 100.0)
    # integrand mass concentrates on a 1/L'(r) ~ 3.3e-5 wide strip
    assert 0 < ratio < 1e-3


RATIO_CLOSED_FORMS = [
    ("euclidean", 2, 1e4, lambda r, R: (r ** 2 - R ** 2) / (2 * r)),
    ("euclidean", 3, 1e4, lambda r, R: (r ** 3 - R ** 3) / (3 * r ** 2)),
    ("hyperbolic", 2, 40.0,
     lambda r, R: (np.cosh(r) - np.cosh(R)) / np.sinh(r)),
    ("hyperbolic", 3, 40.0,
     lambda r, R: (np.sinh(r) * np.cosh(r) - r - np.sinh(R) * np.cosh(R) + R)
     / (2 * np.sinh(r) ** 2)),
]


@pytest.mark.parametrize("R", [0.0, 1.0])
@pytest.mark.parametrize("tag,m,r_hi,exact", RATIO_CLOSED_FORMS)
def test_volume_ratio_table_matches_closed_forms(tag, m, r_hi, exact, R):
    M = core.manifold_from_tag(tag, m)
    r = R + np.geomspace(0.01, r_hi, 24)
    table = core.volume_ratio(M, r, R)
    assert np.allclose(table, exact(r, R), rtol=1e-9, atol=0.0)
    # one radius at a time, and out of order, gives the same values
    assert core.volume_ratio(M, r[7], R) == pytest.approx(table[7], rel=1e-12)
    assert np.allclose(core.volume_ratio(M, r[::-1], R), table[::-1],
                       rtol=1e-12, atol=0.0)


def test_volume_ratio_table_on_steep_warping():
    # on r e^{r^3} the integrand exp(L(t) - L(r)) lives within a few
    # 1/L'(r) of r; the reference integrates that window only
    M = core.manifold_from_tag("power-exp:alpha=3", 2)
    r = np.geomspace(1.5, 100.0, 20)
    table = core.volume_ratio(M, r, 1.0)
    for ri, vi in zip(r, table):
        Lr = core.log_sphere_volume(M, ri)
        lo = max(1.0, ri - 60.0 / (3.0 * ri ** 2))
        ref, _ = quad(lambda t: math.exp(core.log_sphere_volume(M, t) - Lr),
                      lo, ri, epsabs=0.0, epsrel=1e-10, limit=200)
        assert vi == pytest.approx(ref, rel=1e-6)


def test_volume_ratio_nodes_near_requested_radii_give_way(monkeypatch):
    # radii one rounding away from the table's own nodes replace them
    # rather than sit beside them: 256 radii on [1, 100] make 257 nodes
    seen = []
    log_sphere_volume = core.log_sphere_volume

    def spy(M, r):
        seen.append(np.shape(r))
        return log_sphere_volume(M, r)

    monkeypatch.setattr(core, "log_sphere_volume", spy)
    M = core.manifold_from_tag("euclidean", 2)
    r = 10.0 ** (np.arange(1, 257) / core.POINTS_PER_DECADE) * (1 + 1e-12)
    table = core.volume_ratio(M, r, 1.0)
    assert seen[0] == (257,)
    assert np.allclose(table, (r ** 2 - 1.0) / (2.0 * r), rtol=1e-9, atol=0.0)


def _power_table(m):
    t = np.geomspace(1e-3, 1e3, 800)
    return core.tabulated_manifold(t, t * (1.0 + t * t) ** -0.25, m)


@pytest.mark.parametrize("R", [0.0, 1.0])
@pytest.mark.parametrize("make,r_hi", [
    (lambda: core.manifold_from_tag("euclidean", 2), 1e4),
    (lambda: core.manifold_from_tag("euclidean", 3), 1e4),
    (lambda: core.manifold_from_tag("hyperbolic", 3), 40.0),
    (lambda: core.manifold_from_tag("power-exp:alpha=3", 2), 20.0),
    (lambda: _power_table(2), 900.0),
], ids=["euclidean m=2", "euclidean m=3", "hyperbolic m=3",
        "power-exp:alpha=3", "table"])
def test_volume_ratio_is_the_reference_bit_for_bit(make, r_hi, R):
    # the recurrence over Python floats is the numpy-scalar loop's
    # multiply-then-add, so no value moves, at an array of radii (with R
    # itself among them) and at a scalar radius
    M = make()
    r = np.concatenate([[R] if R else [], R + np.geomspace(0.01, r_hi, 24)])
    assert np.array_equal(core.volume_ratio(M, r, R),
                          volume_ratio_reference(M, r, R))
    for radius in (float(r[7]), R + r_hi):
        got = core.volume_ratio(M, radius, R)
        assert type(got) is float
        assert got == volume_ratio_reference(M, radius, R)


@pytest.mark.parametrize("make,r_hi", [
    (lambda: core.manifold_from_tag("euclidean", 2), 1e4),
    (lambda: core.manifold_from_tag("euclidean", 3), 1e4),
    (lambda: core.manifold_from_tag("hyperbolic", 3), 1e4),
    (lambda: core.manifold_from_tag("power-exp:alpha=2.2", 2), 1e4),
    (lambda: _power_table(2), 900.0),
], ids=["euclidean m=2", "euclidean m=3", "hyperbolic m=3",
        "power-exp:alpha=2.2", "table"])
def test_the_table_pass_on_its_own_grid_is_volume_ratio(make, r_hi):
    # on a table grid the pass needs no merge: from its first node it is
    # volume_ratio at the grid's radii, and from the origin volume_ratio
    # from 0, both bit for bit, and both the reference's
    M = make()
    grid = core.geometric_grid(1.0, r_hi)
    table = core._volume_ratio_table(M, grid)
    assert table[0] == 0.0
    assert np.array_equal(table, core.volume_ratio(M, grid, 1.0))
    assert np.array_equal(table, volume_ratio_reference(M, grid, 1.0))
    grid = core.geometric_grid(core._ORIGIN_PANEL, r_hi)
    table = core._volume_ratio_table(M, grid, from_origin=True)
    assert np.array_equal(table, core.volume_ratio(M, grid, 0.0))
    assert np.array_equal(table, volume_ratio_reference(M, grid, 0.0))


def test_validation_samples_are_read_only():
    # B is sampled at 0, then at 128 nodes a decade from 1e-6 to 1e6: the
    # table nodes, which may differ from logspace's in the last bit
    assert np.array_equal(core._PHI_SAMPLES, np.logspace(-6, 3, 61))
    B_samples = core._POTENTIAL_SAMPLES
    assert B_samples[0] == 0.0 and B_samples[1] == 1e-6
    assert np.allclose(B_samples[1:], np.logspace(-6.0, 6.0, 1537),
                       rtol=1e-14, atol=0.0)
    for samples in (core._PHI_SAMPLES, B_samples):
        with pytest.raises(ValueError, match="read-only"):
            samples[0] = 1.0


def test_manifold_validation():
    with pytest.raises(ValueError):
        core.manifold_from_tag("euclidean", 1)
    with pytest.raises(ValueError):
        core.manifold_from_tag("power-exp:alpha=-1", 2)
    with pytest.raises(ValueError, match="alpha > 0"):
        core._power_exp_manifold(math.nan, 2)
    with pytest.raises(ValueError):
        core.manifold_from_tag("klein-bottle", 2)
    M = core.manifold_from_tag("euclidean", 2)
    with pytest.raises(core.DomainError):
        np.exp(core.log_sphere_volume(M, -1.0))
    with pytest.raises(core.DomainError):
        core.volume_ratio(M, 1.0, 2.0)
    # a nan radius used to give nan; an infinite or nan radius or R in
    # volume_ratio an unnamed ValueError or an OverflowError
    for r in (math.nan, np.array([1.0, math.nan])):
        with pytest.raises(core.DomainError, match="got r=nan"):
            core.log_sphere_volume(M, r)
    for r, R, named in ((math.nan, 0.0, "r from nan"),
                        (np.array([2.0, math.nan]), 1.0, "r from nan"),
                        (math.inf, 0.0, "to inf"), (1.0, math.nan, "R=nan")):
        with pytest.raises(core.DomainError, match=named):
            core.volume_ratio(M, r, R)


def test_tabulated_manifold_matches_source():
    r = np.linspace(0.0, 10.0, 400)
    M = core.tabulated_manifold(r[1:], np.sinh(r[1:]), m=2)
    for x in (0.5, 2.0, 7.5):
        assert math.exp(M.log_g(x)) == pytest.approx(math.sinh(x), rel=1e-5)


def _pchip_data(rng, n, kind):
    x = np.cumsum(rng.uniform(1e-3, 2.0, n)) + rng.normal()
    if kind == "monotone":
        y = np.cumsum(rng.uniform(0.0, 1.0, n))
        y[rng.integers(1, n, size=n // 4)] = y[0]   # flat stretches
        y = np.maximum.accumulate(y)
    elif kind == "oscillating":
        y = np.sin(rng.uniform(0.5, 5.0) * x) + 0.1 * rng.normal(size=n)
    else:
        y = rng.uniform(0.1, 5.0, n)
    return x, y


@pytest.mark.parametrize("kind", ["monotone", "oscillating", "positive"])
def test_pchip_is_scipy_pchip(kind):
    from scipy.interpolate import PchipInterpolator
    rng = np.random.default_rng(11)
    for n in [2, 3, 4, 5, *rng.integers(6, 601, size=40)]:
        x, y = _pchip_data(rng, int(n), kind)
        # inside the range, on the nodes and outside it, as an array and
        # one value at a time
        q = np.concatenate([x, rng.uniform(x[0] - 3.0, x[-1] + 3.0, 300)])
        mine, theirs = core.pchip(x, y), PchipInterpolator(x, y)
        assert np.array_equal(mine(q), theirs(q))
        for v in (x[0], x[-1], x[0] - 1.0, x[-1] + 1.0, 0.5 * (x[0] + x[1])):
            assert mine(v) == theirs(v)


@pytest.mark.parametrize("x,y,message", [
    (np.zeros((2, 2)), np.zeros((2, 2)), "1-D"),
    ([0.0, 1.0, 2.0], [0.0, 1.0], "equal length"),
    ([0.0], [1.0], "at least 2"),
    ([0.0, math.inf], [0.0, 1.0], "finite"),
    ([0.0, 1.0], [0.0, math.nan], "finite"),
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "strictly increasing"),
    ([1.0, 0.0], [0.0, 1.0], "strictly increasing"),
])
def test_pchip_refuses_what_scipy_refuses(x, y, message):
    from scipy.interpolate import PchipInterpolator
    with pytest.raises(ValueError):
        PchipInterpolator(x, y)
    with pytest.raises(ValueError, match=message):
        core.pchip(x, y)


def test_tabulated_manifold_extrapolation_guard():
    r = np.linspace(0.0, 5.0, 100)
    M = core.tabulated_manifold(r[1:], r[1:], m=2)
    with pytest.raises(core.DomainError):
        np.exp(core.log_sphere_volume(M, 6.0))


def test_log_sphere_volume_refuses_radii_out_of_range():
    r = np.linspace(0.0, 5.0, 100)
    table = core.tabulated_manifold(r[1:], np.sinh(r[1:]), m=3)
    for M in (core.manifold_from_tag("euclidean", 3),
              core.manifold_from_tag("hyperbolic", 4),
              core.manifold_from_tag("power-exp:alpha=2", 2), table):
        for bad in (0.0, -1.0, np.array([1.0, 0.0])):
            with pytest.raises(core.DomainError, match="r > 0"):
                core.log_sphere_volume(M, bad)
    for bad in (5.5, np.array([1.0, 5.5])):
        with pytest.raises(core.DomainError,
                           match=r"tabulated range \(max 5\.0\)"):
            core.log_sphere_volume(table, bad)


def test_tabulated_manifold_origin_slope_check():
    r = np.linspace(0.0, 5.0, 100)[1:]
    with pytest.raises(ValueError):
        core.tabulated_manifold(r, 2.0 * r, m=2)


def test_tabulated_manifold_refuses_a_negative_first_radius():
    # g(0) = 0 and slope 1 pass, but the cubic through r = -1 would give
    # g(1e-9) ~ 0.249 and a volume ratio at r = 1 of 0.551, not 0.5
    r = [-1.0, 0.5, 1.0, 2.0, 5.0]
    with pytest.raises(ValueError, match=r"r sample 0 is -1;"):
        core.tabulated_manifold(r, [0.0, 0.5, 1.0, 2.0, 5.0], m=2)


@pytest.mark.parametrize("r,g,named", [
    ([0.5, 1.0, 2.0], [0.5, 1.0], "r and g samples must be 1-D arrays of "
                                  "equal length"),
    ([0.5, 2.0, 1.0], [0.5, 2.0, 1.0], "r samples must be strictly "
                                       "increasing, got sample 1 at r=2 and "
                                       "sample 2 at r=1"),
    ([0.0, 0.5, 1.0], [0.1, 0.5, 1.0], "tabulated warping must satisfy "
                                       "g(0)=0, got sample 0 (r, g) = "
                                       "(0, 0.1)"),
    ([0.5, 1.0, 2.0], [0.5, 0.0, 2.0], "tabulated warping must be positive "
                                       "for r > 0, got sample 1 (r, g) = "
                                       "(1, 0)"),
    # one row 0,0 raised IndexError, and a NaN g reached pchip unnamed
    ([0.0], [0.0], "tabulated warping has no sample at r > 0 (sample "
                   "count 1)"),
    ([], [], "tabulated warping has no sample at r > 0 (sample count 0)"),
    ([0.5, 1.0, 2.0], [0.5, np.nan, 2.0], "sample 1 is (r, g) = (1, nan); "
                                          "samples must be finite"),
    ([0.5, 1.0, np.inf], [0.5, 1.0, 2.0], "sample 2 is (r, g) = (inf, 2); "
                                          "samples must be finite"),
], ids=["shape", "order", "g(0)", "positive", "one-sample", "no-sample",
        "nan-g", "inf-r"])
def test_tabulated_manifold_refuses_its_samples_by_check(r, g, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        core.tabulated_manifold(r, g, m=2)


def test_load_manifold_csv_refuses_a_third_column(tmp_path):
    r = np.linspace(0.01, 5.0, 30)
    path = tmp_path / "warp.csv"
    np.savetxt(path, np.column_stack([r, r, r]), delimiter=",",
               header="r,g,h", comments="")
    with pytest.raises(ValueError, match="exactly two columns"):
        core.load_manifold_csv(path, m=2)


def test_load_manifold_csv(tmp_path):
    r = np.linspace(0.01, 5.0, 300)
    path = tmp_path / "warp.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    M = core.load_manifold_csv(path, m=3)
    assert np.exp(core.log_sphere_volume(M, 2.0)) == pytest.approx(4.0,
                                                                 rel=1e-6)


def test_load_manifold_csv_infers_monotone(tmp_path):
    r = np.linspace(0.01, 5.0, 300)
    for g, monotone in ((r, True), (r * np.exp(-r), False)):
        path = tmp_path / "warp.csv"
        np.savetxt(path, np.column_stack([r, g]), delimiter=",",
                   header="r,g", comments="")
        assert core.load_manifold_csv(path, m=2).monotone is monotone
        assert core.tabulated_manifold(r, g, m=2).monotone is monotone


def test_load_manifold_csv_refuses_a_table_without_header(tmp_path):
    # line 1 is skipped as the header: were it a sample, it would be lost
    r = np.linspace(0.01, 5.0, 300)
    path = tmp_path / "warp.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",")
    with pytest.raises(ValueError) as err:
        core.load_manifold_csv(path, m=2)
    assert str(path) in str(err.value) and "line 1" in str(err.value)


@pytest.mark.parametrize("text", ["r,g\n", "r,g\n\n# no data\n", ""])
def test_load_manifold_csv_refuses_a_table_without_samples(tmp_path, text):
    # numpy warned "input contained no data" and the loader then named the
    # column count; the table is refused by name, with no warning
    path = tmp_path / "warp.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="CSV has no samples$"):
            core.load_manifold_csv(path, m=2)


# ---------------------------------------------------------------------------
# operators


def test_p_laplacian_values():
    op = core.p_laplacian_operator(3.0)
    assert float(op.phi(2.0)) == pytest.approx(4.0)
    assert float(op.phi_prime(2.0)) == pytest.approx(4.0)
    assert op.p == 3.0 and op.derivative_pinched


def test_perturbed_operator_bounds_hold():
    op = core.perturbed_operator(2.0)
    t = np.logspace(-6, 3, 200)
    ph = np.array([float(op.phi(x)) for x in t])
    assert np.all(ph >= op.a1 * t ** (op.p - 1) * (1 - 1e-12))
    assert np.all(ph <= op.a2 * t ** (op.p - 1) * (1 + 1e-12))


def test_perturbed_operator_domain():
    with pytest.raises(ValueError):
        core.perturbed_operator(1.2)
    with pytest.raises(ValueError):
        core.perturbed_operator(6.0)


def test_operator_tag_roundtrip():
    assert core.operator_from_tag("p-laplacian:p=2.5").p == 2.5
    assert core.operator_from_tag("perturbed:p=2").name == "perturbed:p=2"
    with pytest.raises(ValueError, match="unknown operator tag "
                                         "'bilaplacian'"):
        core.operator_from_tag("bilaplacian")


@pytest.mark.parametrize("read,tag,named", [
    # a number that reads as inf used to build the preset at inf
    (core.manifold_from_tag, "power-exp:alpha=1e400",
     "manifold tag 'power-exp:alpha=1e400': key 'alpha' needs a finite "
     "number, got '1e400'"),
    (core.operator_from_tag, "p-laplacian:p=1e400",
     "operator tag 'p-laplacian:p=1e400': key 'p' needs a finite number, "
     "got '1e400'"),
    (core.potential_from_tag, "superlinear:q=1e400",
     "potential tag 'superlinear:q=1e400': key 'q' needs a finite number, "
     "got '1e400'"),
    (core.potential_from_tag, "linear-power:p=2,lambda=nan",
     "key 'lambda' needs a finite number, got 'nan'"),
    (core.potential_from_tag, "plateau:T=one,p=2",
     "key 'T' needs a finite number, got 'one'"),
    # keys are those of the kind, in its order
    (core.potential_from_tag, "linear-power:lambda=1,p=2",
     "linear-power takes the keys ['p', 'lambda'] in that order, got "
     "['lambda', 'p']"),
    (core.potential_from_tag, "linear-power:p=2", "got ['p']"),
    (core.potential_from_tag, "superlinear:q=2,r=1", "got ['q', 'r']"),
    (core.manifold_from_tag, "euclidean:alpha=1",
     "euclidean takes the keys [] in that order, got ['alpha']"),
    (core.manifold_from_tag, "klein-bottle", "unknown manifold tag "
     "'klein-bottle'"),
])
def test_tags_are_refused_by_key_and_value(read, tag, named):
    args = (2,) if read is core.manifold_from_tag else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(named)):
            read(tag, *args)


def test_tags_read_either_separator_with_spaces():
    for tag in ("linear-power:p=2;lambda=3", "linear-power: p=2 , lambda = 3"):
        pot = core.potential_from_tag(tag)
        assert pot.name == "linear-power:p=2,lambda=3"
        assert float(pot.B(2.0)) == 6.0


def test_operator_invalid_constants():
    with pytest.raises(ValueError):
        core.PhiOperator(phi=lambda t: t, phi_prime=lambda t: 1.0,
                         p=1.0, a1=1.0, a2=1.0)
    # a nan used to pass both checks, and p_laplacian_operator(nan) built
    for p, a1 in ((math.nan, 1.0), (2.0, math.nan)):
        with pytest.raises(ValueError):
            core.PhiOperator(phi=lambda t: t, phi_prime=lambda t: 1.0,
                             p=p, a1=a1, a2=1.0)
    with pytest.raises(ValueError, match="p must be > 1"):
        core.p_laplacian_operator(math.nan)
    with pytest.raises(ValueError, match="two-sided"):
        # wrong pinching: phi = t but claimed p = 3
        core.PhiOperator(phi=lambda t: t, phi_prime=lambda t: 1.0,
                         p=3.0, a1=1.0, a2=1.0)
    with pytest.raises(ValueError, match="phi must be strictly increasing"):
        # within t <= phi <= 2 t, but it drops from 2 t to t at t = 1
        core.PhiOperator(phi=lambda t: np.where(t < 1.0, 2.0 * t, t),
                         phi_prime=lambda t: 1.0, p=2.0, a1=1.0, a2=2.0)


def test_operator_refuses_a_wrong_inverse():
    # phi_inverse returns phi_inv unchecked: with y**2 for the inverse of
    # t this operator used to construct, and classify_parabolic called the
    # plane NonParabolic
    with pytest.raises(ValueError, match=re.escape(
            "phi_inv(phi(t)) = 1e-12 at the sample t=1e-06")):
        core.PhiOperator(phi=lambda t: t, phi_prime=np.ones_like, p=2.0,
                         a1=1.0, a2=1.0, derivative_pinched=True,
                         phi_inv=lambda y: y ** 2)
    # one wrong sample is enough, and a NaN one is named too
    with pytest.raises(ValueError, match=re.escape(
            "phi_inv(phi(t)) = 1100 at the sample t=1000")):
        core.PhiOperator(phi=lambda t: t, phi_prime=np.ones_like, p=2.0,
                         a1=1.0, a2=1.0,
                         phi_inv=lambda y: np.where(y >= 1e3, 1.1 * y, y))
    with pytest.raises(ValueError, match="phi_inv is NaN at the sample t=1"):
        core.PhiOperator(phi=lambda t: t, phi_prime=np.ones_like, p=2.0,
                         a1=1.0, a2=1.0,
                         phi_inv=lambda y: np.where(y == 1, math.nan, y))
    # the analytic inverses of the p-Laplacian give t back to rounding,
    # and samples where phi(t) leaves the normal doubles are not read
    for p in (1.0001, 1.1, 2.0, 3.0, 10.0, 55.0):
        core.p_laplacian_operator(p)


@pytest.mark.parametrize("build,named", [
    (lambda: core.PhiOperator(phi=lambda t: np.where(t > 10, math.nan, t),
                              phi_prime=lambda t: np.ones_like(t),
                              p=2.0, a1=1.0, a2=1.0),
     "phi is NaN at the sample t=11.2202"),
    (lambda: core.PhiOperator(phi=lambda t: t,
                              phi_prime=lambda t: np.where(t < 1e-3,
                                                           math.nan, 1.0),
                              p=2.0, a1=1.0, a2=1.0,
                              derivative_pinched=True),
     "phi' is NaN at the sample t=1e-06"),
    (lambda: core.PotentialB(B=lambda t: np.where(t > 5, math.nan, t)),
     "potential is NaN at the sample t=5.04807"),
], ids=["phi", "phi'", "B"])
def test_validation_refuses_nan_samples(build, named):
    # each used to construct: a NaN fails no comparison of the checks
    with pytest.raises(ValueError, match=re.escape(named)):
        build()


def test_operator_validation_calls_phi_once_on_an_array():
    with pytest.raises(ValueError, match="phi must give one value per "
                                         "sample.*shape \\(\\)"):
        core.PhiOperator(phi=lambda t: 1.0, phi_prime=lambda t: 0.0,
                         p=2.0, a1=1.0, a2=1.0)
    with pytest.raises(ValueError, match="phi' must give one value"):
        core.PhiOperator(phi=lambda t: t, phi_prime=lambda t: 1.0,
                         p=2.0, a1=1.0, a2=1.0, derivative_pinched=True)


def test_derivative_pinching_is_sampled():
    true = core.perturbed_operator(3.0)
    calls = []

    def phi_prime(t):
        calls.append(np.shape(t))
        return 1e-3 * true.phi_prime(t)

    with pytest.raises(ValueError, match="derivative pinching"):
        core.PhiOperator(phi=true.phi, phi_prime=phi_prime, p=true.p,
                         a1=true.a1, a2=true.a2, derivative_pinched=True)
    assert calls == [(61,)]
    core.PhiOperator(phi=true.phi, phi_prime=phi_prime, p=true.p,
                     a1=true.a1, a2=true.a2)
    assert calls == [(61,)]


@settings(deadline=None, max_examples=200)
@given(y=st.floats(min_value=1e-8, max_value=1e8),
       p=st.floats(min_value=1.3, max_value=5.0))
def test_phi_inverse_roundtrip_perturbed(y, p):
    op = core.perturbed_operator(p)
    t = core.phi_inverse(op, y)
    assert float(op.phi(t)) == pytest.approx(y, rel=1e-10, abs=1e-12)


@settings(deadline=None, max_examples=100)
@given(y=st.floats(min_value=0.0, max_value=1e6),
       p=st.floats(min_value=1.5, max_value=4.0))
def test_phi_inverse_analytic_branch(y, p):
    op = core.p_laplacian_operator(p)
    assert core.phi_inverse(op, y) == pytest.approx(y ** (1 / (p - 1)))


def test_phi_inverse_array_matches_scalar():
    op = core.perturbed_operator(2.5)
    ys = np.geomspace(1e-6, 1e4, 25)
    vec = core.phi_inverse(op, ys)
    scal = np.array([phi_inverse_brentq(op, y) for y in ys])
    assert np.allclose(vec, scal, rtol=1e-9, atol=1e-12)
    assert core.phi_inverse(op, np.array([0.0]))[0] == 0.0


@pytest.mark.parametrize("p", [1.3, 2.0, 3.0, 5.0])
def test_phi_inverse_newton_matches_brentq(p):
    op = core.perturbed_operator(p)
    ys = np.concatenate([[0.0], np.logspace(-60, 60, 121)])
    ref = np.array([phi_inverse_brentq(op, y) for y in ys])
    vec = core.phi_inverse(op, ys)
    scal = np.array([core.phi_inverse(op, y) for y in ys])
    for t in (vec, scal):
        assert t[0] == 0.0
        assert np.allclose(t, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.5])
def test_phi_inverse_is_the_same_in_any_batch(p):
    # each element stops at its own first step within 4 ulps, so its value
    # does not depend on the array it is solved in
    op = core.perturbed_operator(p)
    ys = 10.0 ** np.random.default_rng(1).uniform(-12.0, 8.0, 500)
    batch = core.phi_inverse(op, ys)
    alone = np.array([core.phi_inverse(op, y) for y in ys])
    assert np.array_equal(batch, alone)
    assert np.array_equal(core.phi_inverse(op, ys[::-1]), alone[::-1])


@pytest.mark.parametrize("p", [1.26, 1.3, 1.5, 1.9, 2.0, 2.5, 5.0])
def test_phi_inverse_with_an_underflowing_bracket(p):
    # for p < 2 the bracket end 4 (y/a1)**(1/(p-1)) underflows to 0 at small
    # y; floored at the least normal double it still holds the root
    op = core.perturbed_operator(p)
    ys = np.concatenate([[0.0], np.logspace(-323, 60, 384)])
    t = core.phi_inverse(op, ys)
    assert t[0] == 0.0
    assert np.all(np.abs(op.phi(t) - ys) <= 1e-12 * (1.0 + ys))
    if p == 1.5:
        assert core.phi_inverse(op, 1e-170) == 0.0


def test_phi_inverse_bisects_past_a_wrong_derivative():
    # phi' a thousand times too small sends every Newton step far past the
    # root; the bracket must reject those steps and bisect instead
    true = core.perturbed_operator(3.0)
    op = core.PhiOperator(phi=true.phi,
                          phi_prime=lambda t: 1e-3 * true.phi_prime(t),
                          p=true.p, a1=true.a1, a2=true.a2)
    ys = np.logspace(-8, 8, 33)
    t = core.phi_inverse(op, ys)
    assert np.all(np.abs(op.phi(t) - ys) <= 1e-12 * (1.0 + ys))
    assert np.allclose(t, core.phi_inverse(true, ys), rtol=1e-12)


def _jump_operator():
    """phi(t) = t, then 1e6 t beyond t = 2e3: strictly increasing, and the
    pinching bounds hold where they are sampled (t <= 1e3) only."""
    def phi(t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 2e3, t, 1e6 * t)

    return core.PhiOperator(phi=phi, phi_prime=lambda t: np.ones_like(t),
                            p=2.0, a1=1.0, a2=1.0)


@pytest.mark.parametrize("y,message", [
    (1e7, "bracket misses the root for y=1e+07"),
    (4e3, "tolerance for y=4000 (residual"),
])
def test_phi_inverse_failures_name_y(y, message):
    op = _jump_operator()
    assert core.phi_inverse(op, 10.0) == pytest.approx(10.0)
    with pytest.raises(core.NumericError) as err:
        core.phi_inverse(op, np.array([1.0, y]))
    assert message in str(err.value)


def _nan_operator(nan_at):
    """phi(t) = t, but NaN where ``nan_at(t)``: past the samples (t <= 1e3)
    that the construction checks."""
    def phi(t):
        t = np.asarray(t, dtype=float)
        return np.where(nan_at(t), math.nan, t)

    return core.PhiOperator(phi=phi, phi_prime=lambda t: np.ones_like(t),
                            p=2.0, a1=1.0, a2=1.0)


@pytest.mark.parametrize("nan_at,message", [
    # the bracket [1250, 20000] ends where phi is NaN
    (lambda t: t > 2e3, "bracket misses the root for y=5000: phi(1250) = "
                        "1250, phi(20000) = nan"),
    # the bracket holds, and phi is NaN about the root or at it
    (lambda t: (t > 4e3) & (t < 6e3), "tolerance for y=5000 (residual nan)"),
    (lambda t: t == 5e3, "tolerance for y=5000 (residual nan)"),
], ids=["past 2000", "about the root", "at the root"])
def test_phi_inverse_refuses_a_nan_phi(nan_at, message):
    # each used to return a number: 10625, 5937.5 and 5000
    with pytest.raises(core.NumericError) as err:
        core.phi_inverse(_nan_operator(nan_at), np.array([5000.0]))
    assert message in str(err.value)


def test_phi_inverse_rejects_negative():
    op = core.p_laplacian_operator(2.0)
    with pytest.raises(core.DomainError):
        core.phi_inverse(op, -1.0)


@pytest.mark.parametrize("tag", ["p-laplacian:p=2", "perturbed:p=2"])
@pytest.mark.parametrize("y", [math.nan, math.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_phi_inverse_refuses_non_finite(tag, y, as_array):
    # the analytic and the Newton branch alike name the value
    op = core.operator_from_tag(tag)
    ys = np.array([1.0, y]) if as_array else y
    with pytest.raises(core.DomainError, match=f"y={y}"):
        core.phi_inverse(op, ys)


@pytest.mark.parametrize("tag", ["p-laplacian:p=2", "perturbed:p=2"])
@pytest.mark.parametrize("y,named", [(math.nan, "nan"), (-1.0, "-1"),
                                     (math.inf, "inf"), (-math.inf, "-inf")])
@pytest.mark.parametrize("as_array", [False, True])
def test_phi_inverse_domain_errors_name_y(tag, y, named, as_array):
    # the analytic branch (p-laplacian) and the Newton branch (perturbed)
    # give one message, naming the first offending y
    op = core.operator_from_tag(tag)
    ys = np.array([1.0, y, -2.0]) if as_array else y
    with pytest.raises(core.DomainError) as err:
        core.phi_inverse(op, ys)
    assert str(err.value) == \
        f"phi_inverse requires finite y >= 0, got y={named}"
    empty = core.phi_inverse(op, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


# ---------------------------------------------------------------------------
# potentials


def test_potential_presets():
    lin = core.linear_power_potential(3.0, 2.0)
    assert float(lin.B(2.0)) == pytest.approx(8.0)
    plat = core.plateau_potential(1.0, 2.0)
    assert float(plat.B(0.5)) == 0.0
    assert float(plat.B(2.5)) == pytest.approx(1.5)
    sup = core.superlinear_potential(5.0)
    assert float(sup.B(2.0)) == pytest.approx(32.0)
    assert (sup.homogeneity, sup.kink) == (5.0, None)
    zero = core.zero_potential()
    assert float(zero.B(3.0)) == 0.0
    # B = 0 is the kink at infinity, for lambda = 0 too
    assert zero.kink == core.linear_power_potential(3.0, 0.0).kink == math.inf
    assert lin.kink is None and plat.kink == 1.0


def test_potential_validation():
    with pytest.raises(ValueError, match="B\\(0\\)=0"):
        core.PotentialB(B=lambda t: t - 1.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        core.PotentialB(B=lambda t: np.sin(np.asarray(t)))
    with pytest.raises(ValueError, match="potential must give one value"):
        core.PotentialB(B=lambda t: 0.0)
    with pytest.raises(ValueError):
        core.plateau_potential(-1.0, 2.0)
    with pytest.raises(ValueError):
        core.superlinear_potential(0.0)
    with pytest.raises(ValueError):
        core.linear_power_potential(2.0, -1.0)
    # a nan parameter used to build a potential that is nan everywhere
    for make, args in ((core.plateau_potential, (math.nan, 2.0)),
                       (core.plateau_potential, (1.0, math.nan)),
                       (core.superlinear_potential, (math.nan,)),
                       (core.linear_power_potential, (2.0, math.nan)),
                       (core.linear_power_potential, (math.nan, 1.0))):
        with pytest.raises(ValueError):
            make(*args)
    # an overflow to inf is a value, not a NaN: t**400 passes 1e308 at
    # t ~ 5.9, within the samples
    with np.errstate(over="ignore", invalid="ignore"):
        pot = core.superlinear_potential(400.0)
        assert pot.B(np.array([10.0]))[0] == math.inf


def test_potential_is_sampled_to_the_end_of_its_tables():
    # B is read on [0, 1e6], where the beta tables end: a dip past 10 used
    # to pass the samples on [0, 10]; the first falling pair is named
    with pytest.raises(ValueError, match=re.escape(
            "non-decreasing, got B(11.97)=5 > B(12.19)=0")):
        core.PotentialB(B=bump_past_the_samples)
    # every preset builds, with no warning: t**52 passes the largest
    # double below 1e6, and 0 t**59 is 0 there; the powers, at the
    # extremes of their parameters, have their declared exponent as slope
    # (t**1e5 has one normal sample and no slope to check, and past a
    # kink the exponent is not checked: plateau's slope is h t/(t - T))
    for tag in ("zero", "linear-power:p=2,lambda=1",
                "linear-power:p=60,lambda=0", "plateau:T=1,p=2",
                "plateau:T=1,p=1.5", "superlinear:q=2",
                "superlinear:q=52", "linear-power:p=2,lambda=1e-300",
                "linear-power:p=2,lambda=1e+300",
                "linear-power:p=3,lambda=1e+300", "superlinear:q=0.5",
                "superlinear:q=60", "superlinear:q=400",
                "superlinear:q=1000", "superlinear:q=100000",
                "plateau:T=10000,p=3"):
        assert core.potential_from_tag(tag).name == tag


def test_a_potential_without_a_kink_is_positive_at_its_samples():
    # B = 0 without a kink, or 0 at a sample under a normal value, would
    # be typed by v_st as positive on (0, inf): refused, and asked for
    # the kink that types it
    with pytest.raises(ValueError, match=r"^potential is 0 at every sample: "
                                         r"B = 0 needs kink=inf$"):
        core.PotentialB(B=lambda t: 0.0 * np.asarray(t, dtype=float))
    # t**3000 falls from 2e-305 to 0 in one sample, which no undeclared
    # power is known to do ...
    with pytest.raises(ValueError, match=re.escape(
            "potential without a kink is 0 at the sample t=0.777365 under "
            "B(0.791476)=2.05353e-305: one that vanishes on [0, T] needs "
            "kink=T")):
        core.PotentialB(B=lambda t: np.asarray(t, dtype=float) ** 3000)
    # ... but with its exponent declared, B(0.791) (0.777/0.791)**3000 is
    # below the least subnormal: the zero is the power's underflow
    assert core.superlinear_potential(3000.0).kink is None


@pytest.mark.parametrize("B,message", [
    (lambda t: np.asarray(t, dtype=float) ** 5,
     "from B(1e-06)=1e-30 to B(1.01815e-06)=1.09411e-30 is 5"),
    (lambda t: 1e-3 * np.sqrt(np.asarray(t, dtype=float)),
     "from B(1e-06)=1e-06 to B(1.01815e-06)=1.00904e-06 is 0.5"),
    (lambda t: np.asarray(t, dtype=float) + np.asarray(t, dtype=float) ** 3,
     "from B(982172)=9.47464e+17 to B(1e+06)=1e+18 is 3"),
], ids=["t**5", "1e-3 sqrt(t)", "t + t**3"])
def test_potential_checks_its_declared_exponent(B, message):
    # evans admits a potential by its exponent: t**5 declared as 1 used to
    # pass it and fail in the march, and 1e-3 sqrt(t) to claim B <= b t
    # near 0; the first or last normal pair whose slope is not the
    # declared exponent is named
    with pytest.raises(ValueError, match=re.escape(
            "potential declares the exponent 1, but its log-log slope "
            + message)):
        core.PotentialB(B=B, homogeneity=1.0)


def test_potential_tag_roundtrip():
    assert core.potential_from_tag("zero").name == "zero"
    assert float(core.potential_from_tag(
        "linear-power:p=2,lambda=3").B(2.0)) == pytest.approx(6.0)
    assert float(core.potential_from_tag("plateau:T=1,p=3").B(3.0)) \
        == pytest.approx(4.0)
    assert float(core.potential_from_tag("superlinear:q=2").B(3.0)) \
        == pytest.approx(9.0)
    with pytest.raises(ValueError):
        core.potential_from_tag("step")
