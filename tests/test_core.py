"""Unit and property tests for manifolds, nonlinearities and potentials."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from modelpot import core
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
    # the graded panels integrate to rounding (measured <= 5.4e-15)
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


def test_quadrature_refuses_split_points():
    with pytest.raises(ValueError, match="no split points"):
        core.Quadrature().integrate(lambda t: t, 0.0, 1.0, points=[0.5])


def test_quadrature_calls_the_integrand_once():
    calls = []

    def f(t):
        calls.append(np.shape(t))
        return t

    assert core.Quadrature().integrate(f, 0.0, 2.0) == pytest.approx(2.0)
    assert calls == [(core.GRADED_PANELS, 8)]


# ---------------------------------------------------------------------------
# manifolds


def test_euclidean_volumes():
    M = core.manifold_from_tag("euclidean", 3)
    # vol(dB_r) = r^2 (angular factor normalized away)
    assert core.sphere_volume(M, 2.0) == pytest.approx(4.0)
    assert core.log_sphere_volume(M, 2.0) == pytest.approx(2 * math.log(2))
    assert core.volume_ratio(M, 2.0) == pytest.approx(2.0 / 3.0)


def test_hyperbolic_volumes():
    M = core.manifold_from_tag("hyperbolic", 2)
    assert core.sphere_volume(M, 1.5) == pytest.approx(math.sinh(1.5))
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


def test_validation_samples_are_read_only():
    for samples, grid in ((core._PHI_SAMPLES, np.logspace(-6, 3, 61)),
                          (core._POTENTIAL_SAMPLES,
                           np.linspace(0.0, 10.0, 101))):
        assert np.array_equal(samples, grid)
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
        core.sphere_volume(M, -1.0)
    with pytest.raises(core.DomainError):
        core.volume_ratio(M, 1.0, 2.0)
    # a nan radius used to give nan; an infinite or nan radius or R in
    # volume_ratio an unnamed ValueError or an OverflowError
    for volume in (core.sphere_volume, core.log_sphere_volume):
        for r in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(core.DomainError, match="got r=nan"):
                volume(M, r)
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
        core.sphere_volume(M, 6.0)


def test_sphere_volume_is_exp_of_log():
    r = np.linspace(0.0, 5.0, 100)
    table = core.tabulated_manifold(r[1:], np.sinh(r[1:]), m=3)
    radii = np.array([0.01, 0.5, 2.0, 4.75])
    for M in (core.manifold_from_tag("euclidean", 3),
              core.manifold_from_tag("hyperbolic", 4),
              core.manifold_from_tag("power-exp:alpha=2", 2), table):
        assert np.array_equal(core.sphere_volume(M, radii),
                              np.exp(core.log_sphere_volume(M, radii)))
        assert core.sphere_volume(M, 2.0) == \
            np.exp(core.log_sphere_volume(M, 2.0))
        for bad in (0.0, -1.0, np.array([1.0, 0.0])):
            for volume in (core.sphere_volume, core.log_sphere_volume):
                with pytest.raises(core.DomainError, match="r > 0"):
                    volume(M, bad)
    for bad in (5.5, np.array([1.0, 5.5])):
        for volume in (core.sphere_volume, core.log_sphere_volume):
            with pytest.raises(core.DomainError,
                               match=r"tabulated range \(max 5\.0\)"):
                volume(table, bad)


def test_sphere_volume_refuses_overflow_by_name():
    M = core.manifold_from_tag("power-exp:alpha=3", 2)
    # (m-1) log g = log r + r^3 passes log(DBL_MAX) ~ 709.78 near r = 8.9
    assert math.isfinite(core.sphere_volume(M, 8.8))
    with pytest.raises(core.DomainError,
                       match=r"\(m-1\) log g = 1002\.3.* at r=10$"):
        core.sphere_volume(M, np.array([8.8, 10.0, 9.0]))


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


def test_load_manifold_csv(tmp_path):
    r = np.linspace(0.01, 5.0, 300)
    path = tmp_path / "warp.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    M = core.load_manifold_csv(path, m=3)
    assert core.sphere_volume(M, 2.0) == pytest.approx(4.0, rel=1e-6)


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
     "potential is NaN at the sample t=5.1"),
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
    assert sup.b1 is None
    zero = core.zero_potential()
    assert float(zero.B(3.0)) == 0.0


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
