"""The theory table: what each benchmark job must produce.

Every expectation here is derived from the potential theory of model
manifolds ``dr^2 + g(r)^2 dtheta^2``, never from the program's current
outputs, so a defect shows up as a disagreement instead of being baked
into the reference.  The facts used:

* ``R^m`` (``g = r``) is p-parabolic iff ``p >= m``; a warping growing
  like ``r^k`` is p-parabolic iff ``k (m-1) / (p-1) <= 1``, because
  parabolicity is the divergence of ``int vol(dB_r)^{-1/(p-1)}``.
  Exponentially growing warpings (hyperbolic, ``r e^{r^alpha}``) are
  never parabolic.
* For a potential positive on ``(0, inf)`` the Liouville property KL
  holds iff ``int (vol(B_r)/vol(dB_r))^{1/(p-1)} = inf``: always on
  polynomial and hyperbolic growth, and on ``r e^{r^alpha}`` iff
  ``alpha - 1 <= p - 1``.  A potential vanishing near zero reduces KL to
  parabolicity.
* Radial solutions blow up at a finite radius iff ``B(t) ~ t^q`` grows
  faster than ``t^{p-1}`` (Keller-Osserman): ``q > p - 1``.
* An exhaustion (Evans profile, Khas'minskii potential) exists iff KL
  holds for the operator; with ``B = 0`` that is parabolicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Manifold:
    """A model manifold as the CLI names it, with its growth class.

    ``growth`` is ``"power"`` for ``g ~ r^k`` (``k = 1`` is euclidean),
    ``"exp"`` for ``g ~ e^r`` and ``"power-exp"`` for ``g = r e^{r^k}``.
    """

    tag: str
    m: int
    growth: str
    k: float = 1.0


@dataclass(frozen=True)
class Potential:
    """A zero-order term ``B`` as the CLI names it.

    ``q`` is the growth exponent ``B(t) ~ t^q`` (``None`` for ``B = 0``);
    ``vanishes_near_zero`` marks potentials that are zero on ``[0, T]``.
    """

    tag: str
    q: Optional[float] = None
    vanishes_near_zero: bool = False


ZERO = Potential("zero")


def parabolic(M: Manifold, p: float) -> bool:
    if M.growth == "power":
        return M.k * (M.m - 1) / (p - 1.0) <= 1.0
    return False


def kl_holds(M: Manifold, p: float, B: Potential) -> bool:
    """Liouville property of ``div(phi(|grad u|) ...) - B(u)``."""
    if B.q is None or B.vanishes_near_zero:
        return parabolic(M, p)
    if M.growth == "power-exp":
        return M.k - 1.0 <= p - 1.0
    return True


def blows_up(p: float, B: Potential) -> bool:
    """Keller-Osserman: finite-radius blow-up of radial solutions."""
    return B.q is not None and B.q > p - 1.0


def classify_property(M: Manifold, p: float, B: Potential) -> str:
    if B.q is None:
        return "Parabolic" if parabolic(M, p) else "NonParabolic"
    return "KL_Holds" if kl_holds(M, p, B) else "KL_Fails"


def ko_verdict(p: float, B: Potential) -> str:
    return "NotKO_fails" if blows_up(p, B) else "NotKO_holds"


def exhaustion_exists(M: Manifold, p: float, B: Potential) -> bool:
    return kl_holds(M, p, B) and not blows_up(p, B)


# ---------------------------------------------------------------------------
# checks of one job's outcome; each returns None when the outcome agrees
# with the theory, else the reason it does not


def _split(text: str):
    """CSV text -> (metadata dict, header, rows of floats or strings)."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return meta, header, rows


def _columns(rows):
    return [list(map(float, col)) for col in zip(*rows)] if rows else [[], []]


def check_classify(code, text, expected: str):
    if code != 0:
        return f"exit {code}, expected 0 with {expected}"
    _, header, rows = _split(text)
    if not rows:
        return "no classification rows"
    col = header.index("property")
    got = {row[col] for row in rows}
    if got != {expected}:
        return f"property {'/'.join(sorted(got))}, expected {expected}"
    return None


def check_ko(result, expected: str):
    if result.verdict != expected:
        return f"verdict {result.verdict}, expected {expected}"
    if result.form_primitive is not result.form_simple:
        return (f"the two equivalent forms disagree: "
                f"{result.form_primitive.value} vs {result.form_simple.value}")
    return None


def check_evans(code, text, exists: bool, eps: float):
    """An exhaustion is increasing, small on the annulus and unbounded.

    Unboundedness is read off the last three doublings of the radius:
    ``w(r) ~ r^a`` or ``log r`` keeps its increments from shrinking,
    while a bounded profile ``w ~ C - r^{-s}`` halves them or worse.
    """
    if not exists:
        # no exhaustion exists: success (0), error (1) and blow-up (3) all
        # claim something false; only a typed verdict is honest
        if code in (0, 1, 3):
            return f"exit {code}, but no exhaustion exists"
        return None
    if code != 0:
        return f"exit {code}, expected an exhaustion"
    meta, _, rows = _split(text)
    r, w = _columns(rows)
    if meta.get("status") != "complete" or len(r) < 8:
        return f"status {meta.get('status')}, expected complete"
    if not float(meta["sup_on_annulus"]) < eps:
        return f"sup on the annulus {meta['sup_on_annulus']} >= eps {eps}"
    if any(b <= a for a, b in zip(w, w[1:])):
        return "profile not increasing"

    def at(x):
        return next(wi for ri, wi in zip(r, w) if ri >= x)

    top = r[-1]
    last = at(top) - at(top / 2)
    before = at(top / 2) - at(top / 4)
    if not last >= 0.75 * before:
        return (f"profile flattens: increment {last:.3g} over the last "
                f"doubling vs {before:.3g} before it (bounded)")
    return None


def check_cauchy(result, blowup: bool, radius_ref: float):
    status = "blowup" if blowup else "complete"
    if result.status != status:
        return f"status {result.status}, expected {status}"
    if blowup and not abs(result.blowup_radius - radius_ref) \
            <= 0.02 * radius_ref:
        return (f"blow-up radius {result.blowup_radius:.6g}, ODE oracle "
                f"{radius_ref:.6g}")
    return None


def check_khasminskii(code, text, built: bool, eps: float,
                      omega_radius: float):
    if not built:
        if code != 4:
            return f"exit {code}, expected 4 (HLimitNonzero)"
        meta, _, _ = _split(text)
        if meta.get("verdict") != "HLimitNonzero":
            return f"verdict {meta.get('verdict')}, expected HLimitNonzero"
        return None
    if code != 0:
        return f"exit {code}, expected 0 (PotentialBuilt)"
    meta, _, rows = _split(text)
    if meta.get("verdict") != "PotentialBuilt":
        return f"verdict {meta.get('verdict')}, expected PotentialBuilt"
    budget = sum(float(b) for b in meta["budget_used"].split(",") if b)
    if budget > eps + 1e-12:
        return f"stage budget {budget:.6g} exceeds eps {eps}"
    r, w = _columns(rows)
    core = max(wi for ri, wi in zip(r, w) if ri <= omega_radius)
    if core > eps + 1e-12:
        return f"potential {core:.6g} on the control ball exceeds eps {eps}"
    return None


def check_obstacle(code, text, m: int, p: float, psi, theta=(0.0, 1.0),
                   tol: float = 1e-6):
    """KKT conditions of the discrete obstacle problem, recomputed here.

    The minimizer of the convex energy lies above the obstacle, is a
    supersolution everywhere and a solution off the contact set.  The
    residual is evaluated independently from the printed profile with the
    weights ``r^(m-1)`` of ``R^m``, relative to the fluxes it balances, so
    that the 12 printed digits do not limit the check.
    """
    if code != 0:
        return f"exit {code}, expected 0"
    _, _, rows = _split(text)
    r, u = _columns(rows)
    if (u[0], u[-1]) != theta:
        return f"boundary values {u[0]}, {u[-1]}, expected {theta}"
    obstacle = psi(r[1:-1])
    if any(ui < oi - 1e-9 for ui, oi in zip(u[1:-1], obstacle)):
        return "profile below the obstacle"
    flux = []
    for a in range(len(r) - 1):
        s = (u[a + 1] - u[a]) / (r[a + 1] - r[a])
        mid = 0.5 * (r[a] + r[a + 1])
        flux.append(mid ** (m - 1) * math.copysign(abs(s) ** (p - 1), s))
    worst_super, worst_free = 0.0, 0.0
    for i in range(1, len(r) - 1):
        left, right = flux[i - 1], flux[i]
        res = (left - right) / max(abs(left) + abs(right), 1e-300)
        worst_super = min(worst_super, res)
        if u[i] > obstacle[i - 1] + 1e-6:
            worst_free = max(worst_free, abs(res))
    if worst_super < -tol:
        return f"not a supersolution (relative residual {worst_super:.3g})"
    if worst_free > tol:
        return f"not stationary off the contact set ({worst_free:.3g})"
    return None
