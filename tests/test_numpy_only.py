"""The package runs on numpy alone.

With scipy unimportable, every command runs, at lambda = 0 and 1, as do a
classification on a tabulated warping (a numpy monotone cubic),
``keller_osserman`` on a plateau potential, whose beta table has a power
panel at its kink, and the blow-up tail of ``solve_cauchy``, whose radius no
threshold moves.  The checks run in a fresh interpreter, so that no
module the test suite has loaded (its oracles import scipy) hides a
scipy import at load.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_ONLY = r"""
import os, sys
sys.modules['scipy'] = None
import numpy as np
from modelpot import cli, core, criteria, radial
r = np.linspace(0.01, 100.0, 400)
M = core.tabulated_manifold(r, r, m=2)
cls = criteria.classify_parabolic(M, core.p_laplacian_operator(2.0), 50.0)
assert cls.property is criteria.PropertyTag.PARABOLIC, cls
# the divergence test sees no constant factor: a tiny 1/r diverges, and a
# warping a r past a dip by a = 1e-9 on [1, 2] is non-parabolic on R^3 as
# at a = 1
dv = criteria.test_L1_at_infinity(lambda r: 1e-290 / r, 1.0)
assert dv.verdict is criteria.Verdict.DIVERGES, dv
# the closed-form least-squares slope, with no LAPACK: r^-2 on its one
# decade [1e3, 1e4] fits -2
dv = criteria.test_L1_at_infinity(lambda r: r ** -2.0, 1e3)
assert abs(dv.slope_estimate + 2.0) <= 1e-12, dv
# a custom phi that is NaN on its samples is refused by name
try:
    core.PhiOperator(phi=lambda t: np.where(t > 10, np.nan, t),
                     phi_prime=lambda t: np.ones_like(t),
                     p=2.0, a1=1.0, a2=1.0)
except ValueError as exc:
    assert 'phi is NaN at the sample t=11.2202' in str(exc), exc
else:
    raise AssertionError('a NaN phi was accepted')
r = np.geomspace(1e-3, 1e4, 3000)
t = np.clip(r - 1.0, 0.0, 1.0)
M = core.tabulated_manifold(r, r * 1e-9 ** (t * t * (3.0 - 2.0 * t)), m=3)
cls = criteria.classify_parabolic(M, core.p_laplacian_operator(2.0))
assert cls.property is criteria.PropertyTag.NON_PARABOLIC, cls
ko = criteria.keller_osserman(core.p_laplacian_operator(1.5),
                              core.plateau_potential(1.0, 1.5))
assert ko.verdict == 'NotKO_holds', ko
sols = [radial.solve_cauchy(core.manifold_from_tag('euclidean', 2),
                            core.p_laplacian_operator(2.0),
                            core.superlinear_potential(5.0),
                            radial.CauchyParams(1.0, 1.0, 1.0, 1.0),
                            100.0, blowup_threshold=t)
        for t in (1e8, 1e50)]
assert sols[0].status == radial.BLOWUP, sols[0].status
assert all(np.array_equal(getattr(sols[0], k), getattr(sols[1], k))
           for k in ('grid', 'z', 'zp')), 'profiles differ'
assert sols[0].blowup_radius == sols[1].blowup_radius
assert abs(sols[0].blowup_radius - 1.80695707415) < 1e-7, sols[0]
plane = ['--set', 'manifold=euclidean', '--set', 'm=2']
linear = ['--set', 'potential=linear-power:p=2,lambda=1']
for lam in ('0', '1'):
    for argv in (['khasminskii', *plane, '--set', 'K_radius=1',
                  '--set', 'Omega_radius=2', '--set', f'lambda={lam}'],
                 ['obstacle', *plane, '--set', 'r_min=1',
                  '--set', 'r_max=10', '--set', f'lambda={lam}', '--set',
                  'obstacle=bump:height=0.8,center=5,width=2']):
        assert cli.main(argv + ['--out', os.devnull]) == 0, argv
for argv in (['classify', *plane], ['classify', *plane, *linear],
             ['evans', *plane, *linear, '--set', 'R=1', '--set', 'R1=2',
              '--set', 'eps=0.1', '--rmax', '40']):
    assert cli.main(argv + ['--out', os.devnull]) == 0, argv
# no call imports numpy.ma, whose import np.unique's first call pays,
# nor numpy.polynomial, whose leggauss(8) the tables' panel rule writes out
assert 'numpy.ma' not in sys.modules
assert 'numpy.polynomial' not in sys.modules
"""


def test_the_package_runs_without_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NUMPY_ONLY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
