"""The theory table as a guard on the classifiers, the radial solver and
the staged pipeline: on whole families of manifolds and potentials whose
answers follow from closed forms (``perfbench/theory.py``), no verdict
is wrong and none is Inconclusive.

The grids cross each critical line and hold both of its sides: the
parabolicity exponent ``k (m-1)/(p-1) = 1`` of the power tables, ``alpha
= p`` of the ``power-exp`` warpings and ``q = p - 1`` of the growth
condition.  A grid is never thinned where a defect shows.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from modelpot import core, criteria, obstacle, radial
from oracles import assert_slope_is_polyfit


def _load_theory():
    """``perfbench/theory.py``, read-only: the facts live in one place."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "theory.py"
    spec = importlib.util.spec_from_file_location("theory", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("theory", module)
    spec.loader.exec_module(module)
    return module


theory = _load_theory()

POWERS_K = [round(0.1 * i, 1) for i in range(2, 31)]      # 0.2 .. 3.0
POWERS_P = (1.5, 2.0, 3.0, 4.0)
ALPHAS = [round(1.2 + 0.2 * i, 1) for i in range(15)]     # 1.2 .. 4.0
KO_Q = (0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

# the staged pipeline on the power tables: each family's lambda and
# exhaustion radii
KHASMINSKII = {"khasminskii:lambda=1": (1.0, [4.0, 8.0, 16.0, 32.0]),
               "khasminskii:lambda=0.25": (0.25, [3.0, 4.0, 5.0, 6.0]),
               "khasminskii:lambda=0": (0.0, [4.0, 8.0, 16.0, 32.0])}


def _power_table(k: float, m: int) -> core.ModelManifold:
    """``g = r (1 + r^2)^((k-1)/2)`` (``g ~ r^k``) on 3000 geometric
    samples to ``1e4``, the benchmark's seeded table at a finer step."""
    r = np.geomspace(1e-3, 1e4, 3000)
    return core.tabulated_manifold(r, r * (1.0 + r * r) ** ((k - 1.0) / 2.0),
                                   m, name=f"power:k={k:g}")


def _kl_potentials(p: float):
    return ((core.superlinear_potential(p - 1.0),
             theory.Potential(f"superlinear:q={p - 1.0:g}", p - 1.0)),
            (core.linear_power_potential(p, 1.0),
             theory.Potential(f"linear-power:p={p:g},lambda=1", p - 1.0)))


def _khasminskii_verdict(M, p, lam, radii) -> str:
    """The staged pipeline's verdict, or the name of the error it ends
    in (which no family expects)."""
    try:
        return obstacle.khasminskii_construct(M, p, lam, 1.0, 2.0, 0.1,
                                              radii).verdict
    except (core.NumericError, ValueError) as exc:
        return type(exc).__name__


def _cauchy_status(p: float, q: float) -> str:
    """``solve_cauchy``'s status on the plane under ``B = t^q``, or the
    name of the error it ends in (which counts as wrong)."""
    try:
        return radial.solve_cauchy(
            core.manifold_from_tag("euclidean", 2),
            core.p_laplacian_operator(p), core.superlinear_potential(q),
            radial.CauchyParams(1.0, 1.0, 1.0, 1.0), 50.0).status
    except (core.NumericError, ValueError) as exc:
        return type(exc).__name__


def theory_cases():
    """``(family, case, expected, got)`` for every case of the table."""
    for k in POWERS_K:
        for m in (2, 3, 4):
            M = _power_table(k, m)
            truth = theory.Manifold(M.name, m, "power", k)
            for p in POWERS_P:
                cls = criteria.classify_parabolic(
                    M, core.p_laplacian_operator(p))
                yield ("power", f"k={k:g} m={m} p={p:g}",
                       theory.classify_property(truth, p, theory.ZERO),
                       cls.property.value)
                for family, (lam, radii) in KHASMINSKII.items():
                    B = theory.Potential(f"linear-power:p={p:g},lambda=1",
                                         p - 1) if lam else theory.ZERO
                    yield (family, f"k={k:g} m={m} p={p:g}",
                           "PotentialBuilt"
                           if theory.exhaustion_exists(truth, p, B)
                           else "HLimitNonzero",
                           _khasminskii_verdict(M, p, lam, radii))
    for alpha in ALPHAS:
        for m in (2, 3):
            M = core.manifold_from_tag(f"power-exp:alpha={alpha:g}", m)
            truth = theory.Manifold(M.name, m, "power-exp", alpha)
            for p in (1.5, 2.0, 3.0):
                op = core.p_laplacian_operator(p)
                for pot, B in _kl_potentials(p):
                    yield ("power-exp", f"alpha={alpha:g} m={m} {pot.name}",
                           theory.classify_property(truth, p, B),
                           criteria.classify_KL(M, op, pot).property.value)
    for m in (2, 3):
        M = core.manifold_from_tag("hyperbolic", m)
        truth = theory.Manifold("hyperbolic", m, "exp")
        for p in POWERS_P:
            op = core.p_laplacian_operator(p)
            yield ("hyperbolic", f"m={m} p={p:g} zero",
                   theory.classify_property(truth, p, theory.ZERO),
                   criteria.classify_parabolic(M, op).property.value)
            for pot, B in _kl_potentials(p):
                yield ("hyperbolic", f"m={m} {pot.name}",
                       theory.classify_property(truth, p, B),
                       criteria.classify_KL(M, op, pot).property.value)
    for p in POWERS_P:
        op = core.p_laplacian_operator(p)
        for q in KO_Q:
            B = theory.Potential(f"superlinear:q={q:g}", q)
            yield ("ko", f"p={p:g} q={q:g}", theory.ko_verdict(p, B),
                   criteria.keller_osserman(
                       op, core.superlinear_potential(q)).verdict)
            yield ("radial", f"p={p:g} q={q:g}",
                   radial.BLOWUP if theory.blows_up(p, B)
                   else radial.COMPLETE, _cauchy_status(p, q))


def test_theory_table_has_no_wrong_verdict():
    cases = list(theory_cases())
    assert Counter(family for family, *_ in cases) == {
        "power": 348, "power-exp": 180, "hyperbolic": 24, "ko": 48,
        "radial": 48, "khasminskii:lambda=1": 348,
        "khasminskii:lambda=0.25": 348, "khasminskii:lambda=0": 348}
    # the staged families read their verdict from the classifiers, so
    # they answer as those do
    assert [case for case in cases if case[3] != case[2]] == []


def test_slope_is_polyfit_on_the_theory_table_integrands(monkeypatch):
    # every log-log fit the table's cases make, from the samples of their
    # own integrands, against np.polyfit
    fits = []
    slope = criteria._slope

    def recorded(rs, vals):
        fits.append((rs, vals))
        return slope(rs, vals)

    monkeypatch.setattr(criteria, "_slope", recorded)
    for _ in theory_cases():
        pass
    monkeypatch.undo()
    assert len(fits) > 700
    for rs, vals in fits:
        assert_slope_is_polyfit(rs, vals)
