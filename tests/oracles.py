"""Independent oracles shared by the unit and acceptance tests."""

import math

import numpy as np
from scipy.optimize import brentq

from modelpot import obstacle


def phi_inverse_brentq(op, y):
    """Scalar ``phi**-1(y)`` by Brent's method on a bracket widened from the
    pinching bounds until it holds the root; independent of the bisection
    in ``core.phi_inverse``."""
    if y == 0.0:
        return 0.0
    pe = 1.0 / (op.p - 1.0)
    lo = 0.5 * (y / op.a2) ** pe
    hi = 2.0 * (y / op.a1) ** pe
    for _ in range(200):      # brentq refuses a bracket that stays bad
        if float(op.phi(lo)) <= y and float(op.phi(hi)) >= y:
            break
        lo, hi = lo * 0.5, hi * 2.0
    return brentq(lambda t: float(op.phi(t)) - y, lo, hi,
                  xtol=1e-300, rtol=8.9e-16, maxiter=300)


def qp_obstacle_oracle(prob, spec):
    """Exhaustive active-set solution of the p=2, lambda=0 obstacle problem.

    The energy is quadratic, so for every candidate contact interval the
    off-contact part solves a tridiagonal linear system; the unique KKT
    point among all candidates is the minimizer.  Only interval contact
    sets are enumerated, which covers concave (single-bump) obstacles.
    """
    if prob.p != 2.0 or prob.lam != 0.0:
        raise ValueError("oracle implemented for p=2, lambda=0 only")
    n = prob.n_nodes
    psi = np.asarray(spec.psi, dtype=float)
    k = prob.edge_weights / prob.h          # spring stiffness per edge

    def solve_free(fixed_vals, free_idx):
        """Minimize over the free nodes with all others held fixed."""
        u = fixed_vals.copy()
        if len(free_idx) == 0:
            return u
        A = np.zeros((len(free_idx), len(free_idx)))
        b = np.zeros(len(free_idx))
        pos = {g: i for i, g in enumerate(free_idx)}
        for row, gi in enumerate(free_idx):
            A[row, row] = k[gi - 1] + k[gi]
            for gj, kk in ((gi - 1, k[gi - 1]), (gi + 1, k[gi])):
                if gj in pos:
                    A[row, pos[gj]] -= kk
                else:
                    b[row] += kk * u[gj]
        u[free_idx] = np.linalg.solve(A, b)
        return u

    base = np.empty(n)
    base[0] = spec.theta_left
    base[-1] = spec.theta_right
    base[1:-1] = psi
    interior = list(range(1, n - 1))

    candidates = [()]  # empty contact set
    for a in interior:
        for b in range(a, n - 1):
            candidates.append(tuple(range(a, b + 1)))

    best = None
    for contact in candidates:
        if any(not math.isfinite(psi[i - 1]) for i in contact):
            continue
        free = [i for i in interior if i not in contact]
        u = solve_free(base, free)
        # primal feasibility off the contact set
        finite = np.isfinite(psi)
        viol = psi[finite] - u[1:-1][finite]
        if np.any(viol > 1e-9):
            continue
        # dual feasibility on the contact set
        grad = prob.gradient(u)
        if any(grad[i] < -1e-9 for i in contact):
            continue
        energy = prob.energy(u)
        if best is None or energy < best[0] - 1e-15:
            best = (energy, u)
    if best is None:
        raise RuntimeError("oracle found no KKT point among interval "
                           "contact sets")
    return best[1]


def p_harmonic_profile(p, m, grid, theta_left, theta_right):
    """Closed-form radial profile with constant flux on g(r) = r.

    u(r) = A + C * integral r^((1-m)/(p-1)); normalized to the boundary
    values on [grid[0], grid[-1]].
    """
    e = (1.0 - m) / (p - 1.0)
    if abs(e + 1.0) < 1e-12:
        prim = np.log(grid)
    else:
        prim = grid ** (e + 1.0) / (e + 1.0)
    t = (prim - prim[0]) / (prim[-1] - prim[0])
    return theta_left + t * (theta_right - theta_left)


def random_bump_spec(prob, rng, theta_left=0.0, theta_right=1.0):
    """Feasible concave-bump obstacle spec on the problem's grid."""
    grid = prob.grid
    lo, hi = grid[0], grid[-1]
    center = rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo))
    width = rng.uniform(0.05, 0.4) * (hi - lo)
    height = rng.uniform(0.2, 0.9) * max(theta_left, theta_right)
    psi = height - ((grid[1:-1] - center) / width) ** 2
    return obstacle.ObstacleSpec(psi=psi, theta_left=theta_left,
                                 theta_right=theta_right)
