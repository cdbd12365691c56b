"""Seeded inputs and the job list of each workload.

A job is one user-facing request: a ``modelpot`` CLI command run through
``modelpot.cli.main(argv)`` with ``--out``, or, where the CLI has no
command for it, a direct call of ``criteria.keller_osserman`` or
``radial.solve_cauchy``.  Each job carries the check that the theory table
(``theory.py``) derives for it, and, where the program is known to get it
wrong, the defect that makes the check fail.

Why these three workloads: each leans on one solver module and leaves the
other two idle, so a change to one module has a workload that exercises
it and two where the prediction is "no change".

* ``classify`` -- integral criteria: nested adaptive quadrature in
  ``core`` and the divergence test in ``criteria``.
* ``evans`` -- the radial Picard solver in ``radial`` and the array
  ``phi^-1`` in ``core``; no quadrature and no obstacle solves.
* ``staged`` -- the discrete obstacle solver in ``obstacle``, at ``p = 2``
  (closed-form node solves) and ``p = 3`` (bisection node solves).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import theory
from theory import Manifold, Potential, ZERO


@dataclass
class Outcome:
    """What one job produced: exit code (0 for a direct call that
    returned), output bytes, and the returned object of a direct call."""

    code: int
    data: bytes
    result: object = None
    error: str = ""

    def digest(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


@dataclass
class Job:
    name: str
    argv: Optional[list] = None            # CLI argv, without --out
    call: Optional[Callable] = None        # direct call returning an object
    check: Callable[[Outcome], Optional[str]] = None
    defect: Optional[str] = None           # known defect behind a mismatch


@dataclass
class Inputs:
    """Everything a seed decides, generated in set-up."""

    table_parabolic: Manifold      # g ~ r^k, k well below critical
    bumps: list                    # (height, center, width) per bump
    blowup_radius: float           # ODE oracle for the superlinear:q=5 case


def _write_table(path: Path, k: float):
    """``g = r (1 + r^2)^((k-1)/2)``: ``g'(0) = 1``, ``g ~ r^k`` at
    infinity, sampled geometrically up to ``r = 1e4``."""
    r = np.geomspace(1e-3, 1e4, 400)
    g = r * (1.0 + r * r) ** ((k - 1.0) / 2.0)
    lines = ["r,g"] + [f"{a!r},{b!r}" for a, b in zip(r.tolist(), g.tolist())]
    path.write_text("\n".join(lines) + "\n")


def _blowup_radius_oracle() -> float:
    """Blow-up radius of ``(r z')' = r z^5``, ``z(1) = z'(1) = 1`` from an
    adaptive ODE integrator, independent of the Picard solver."""
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        return [y[1] / r, r * y[0] ** 5]

    def escape(r, y):
        return y[0] - 1e6
    escape.terminal = True
    sol = solve_ivp(rhs, (1.0, 100.0), [1.0, 1.0], events=escape,
                    rtol=1e-10, atol=1e-12)
    return float(sol.t_events[0][0])


def make_inputs(seed: int, workdir: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    k = float(rng.uniform(0.45, 0.55))
    path = workdir / "warp-parabolic.csv"
    _write_table(path, k)
    table = Manifold(f"table:{path}", 2, "power", k)
    bumps = [(float(rng.uniform(0.7, 0.9)), float(rng.uniform(1.35, 1.6)),
              float(rng.uniform(0.08, 0.14))) for _ in range(5)]
    return Inputs(table, bumps, _blowup_radius_oracle())


# ---------------------------------------------------------------------------

EUCLID2 = Manifold("euclidean", 2, "power")
EUCLID3 = Manifold("euclidean", 3, "power")
HYPER2 = Manifold("hyperbolic", 2, "exp")
HYPER3 = Manifold("hyperbolic", 3, "exp")
POWER_EXP = Manifold("power-exp:alpha=2.2", 2, "power-exp", 2.2)

OPERATORS = (("p-laplacian:p=2", 2.0), ("p-laplacian:p=3", 3.0),
             ("perturbed:p=2", 2.0))


def _sets(**kv):
    argv = []
    for key, value in kv.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _label(*parts):
    return " ".join(str(p) for p in parts if p != "")


def _manifold_label(M: Manifold) -> str:
    return f"table(k={M.k:.3f})" if M.tag.startswith("table:") else M.tag


def classify_jobs(inp: Inputs) -> list:
    jobs = []

    def cli_job(M, op, p, B, defect=None):
        expected = theory.classify_property(M, p, B)
        jobs.append(Job(
            _label("classify", _manifold_label(M), f"m={M.m}", op, B.tag),
            argv=["classify"] + _sets(manifold=M.tag, m=M.m, operator=op,
                                      potential=B.tag),
            check=lambda o, e=expected: theory.check_classify(
                o.code, o.data.decode(), e),
            defect=defect))

    for M in (EUCLID2, EUCLID3, HYPER3):
        for op, p in OPERATORS:
            for B in (ZERO, Potential(f"superlinear:q={p - 1:g}", p - 1)):
                # Type 1 on hyperbolic space (volume_ratio quadrature
                # nested in the outer one) costs ~1.6 s; once is enough
                if M is HYPER3 and B is not ZERO and op != OPERATORS[0][0]:
                    continue
                cli_job(M, op, p, B)
    # Type 1 on r e^{r^2.2}: nested quadrature, and KL fails
    cli_job(POWER_EXP, "p-laplacian:p=2", 2.0,
            Potential("superlinear:q=1", 1.0))
    cli_job(EUCLID2, "p-laplacian:p=2", 2.0,
            Potential("linear-power:p=2,lambda=1", 1.0),
            defect="the CLI splits the potential list at the tag's comma")
    # a non-parabolic table (k ~ 2) is left out: its cost jumps 2x with k
    T = inp.table_parabolic
    cli_job(T, "p-laplacian:p=2", 2.0, ZERO)
    cli_job(T, "p-laplacian:p=3", 3.0, ZERO)

    # the growth condition in both forms (direct calls, no CLI command)
    from modelpot import core, criteria

    def growth_pairs(op, p):
        return [(op, p, B) for B in (
            Potential(f"linear-power:p={p:g},lambda=1", p - 1.0),
            Potential(f"superlinear:q={p - 0.5:g}", p - 0.5),
            Potential(f"plateau:T=1,p={p:g}", p - 1.0, True))]

    pairs = [pair for p in (1.5, 2.0, 3.0)
             for pair in growth_pairs(f"p-laplacian:p={p:g}", p)]
    # the perturbed operator once, on the superlinear potential
    for op, p, B in pairs + growth_pairs("perturbed:p=2", 2.0)[1:2]:
        expected = theory.ko_verdict(p, B)

        def call(op=op, tag=B.tag):
            return criteria.keller_osserman(core.operator_from_tag(op),
                                            core.potential_from_tag(tag))
        jobs.append(Job(_label("keller_osserman", op, B.tag), call=call,
                        check=lambda o, e=expected: theory.check_ko(
                            o.result, e)))
    return jobs


EVANS_ANNULUS = dict(R=1, R1=2, eps=0.1)


def evans_jobs(inp: Inputs) -> list:
    jobs = []
    eps = EVANS_ANNULUS["eps"]

    def cli_job(M, op, p, B, rmax, threshold=None, defect=None):
        exists = theory.exhaustion_exists(M, p, B)
        extra = {} if threshold is None else {"blowup_threshold": threshold}
        jobs.append(Job(
            _label("evans", _manifold_label(M), f"m={M.m}", op, B.tag,
                   f"threshold={threshold}" if threshold else ""),
            argv=["evans"] + _sets(manifold=M.tag, m=M.m, operator=op,
                                   potential=B.tag, **EVANS_ANNULUS, **extra)
            + ["--rmax", str(rmax)],
            check=lambda o, x=exists: theory.check_evans(
                o.code, o.data.decode(), x, eps),
            defect=defect))

    # the non-parabolic cases have no exhaustion; the program claims one
    flat = "z' underflows and z plateaus: 'accepted solution is not " \
           "increasing'"
    bounded = "returns success with a bounded profile"
    table = "the CLI cannot mark a tabulated warping monotone"
    defects = {
        (EUCLID3, "p-laplacian:p=2"): bounded,
        (EUCLID3, "perturbed:p=2"): bounded,
        (HYPER2, "p-laplacian:p=2"): flat,
        (HYPER2, "p-laplacian:p=3"): bounded,
        (HYPER2, "perturbed:p=2"): flat,
        (HYPER3, "p-laplacian:p=2"): flat,
        (HYPER3, "p-laplacian:p=3"): flat,
        (HYPER3, "perturbed:p=2"): flat,
    }
    T = inp.table_parabolic
    for M in (EUCLID2, EUCLID3, HYPER2, HYPER3, T):
        for op, p in OPERATORS:
            defect = table if M is T else defects.get((M, op))
            cli_job(M, op, p, ZERO, 60, defect=defect)
    for B in (Potential("linear-power:p=2,lambda=1", 1.0),
              Potential("plateau:T=1,p=2", 1.0, True)):
        for threshold in ("1e8", "1e16"):
            defect = "false blow-up: the threshold crossing is reported " \
                     "as blow-up" if threshold == "1e8" else None
            cli_job(EUCLID2, "p-laplacian:p=2", 2.0, B, 40, threshold,
                    defect=defect)

    # genuine blow-up (direct calls): the radius must not follow the
    # threshold; larger thresholds exercise the window-halving path
    from modelpot import core, radial
    B = Potential("superlinear:q=5", 5.0)
    blowup = theory.blows_up(2.0, B)
    for threshold in (1e8, 1e16, 1e50):
        def call(threshold=threshold):
            params = radial.CauchyParams(R=1.0, theta=1.0, mu=1.0, c=1.0)
            return radial.solve_cauchy(
                core.manifold_from_tag("euclidean", 2),
                core.p_laplacian_operator(2.0),
                core.superlinear_potential(5.0), params, 100.0,
                blowup_threshold=threshold)
        jobs.append(Job(
            _label("solve_cauchy euclidean m=2 p=2", B.tag,
                   f"threshold={threshold:g}"),
            call=call,
            check=lambda o: theory.check_cauchy(o.result, blowup,
                                                inp.blowup_radius)))
    return jobs


KHAS_BALLS = dict(K_radius=1, Omega_radius=2)


def staged_jobs(inp: Inputs) -> list:
    jobs = []

    def khas_job(M, p=2.0, lam=0.0, radii=None, nodes=None, eps=0.1,
                 defect=None):
        B = ZERO if lam == 0 else Potential(f"linear-power:lambda={lam:g}",
                                            p - 1.0)
        built = theory.exhaustion_exists(M, p, B)
        kv = dict(manifold=M.tag, m=M.m, eps=f"{eps:g}", **KHAS_BALLS)
        if p != 2.0:
            kv["p"] = f"{p:g}"
        if lam:
            kv["lambda"] = f"{lam:g}"
        if radii:
            kv["radii"] = ",".join(f"{r:g}" for r in radii)
        if nodes:
            kv["nodes_per_stage"] = nodes
        jobs.append(Job(
            _label("khasminskii", M.tag, f"m={M.m}", f"p={p:g}",
                   f"lambda={lam:g}" if lam else "",
                   f"radii={kv['radii']}" if radii else "",
                   f"nodes_per_stage={nodes}" if nodes else "",
                   f"eps={eps:g}" if eps != 0.1 else ""),
            argv=["khasminskii"] + _sets(**kv),
            check=lambda o: theory.check_khasminskii(
                o.code, o.data.decode(), built, eps,
                KHAS_BALLS["Omega_radius"]),
            defect=defect))

    khas_job(EUCLID2)
    khas_job(EUCLID3)
    khas_job(EUCLID2, lam=1.0)
    khas_job(EUCLID2, radii=[4, 8, 16, 32, 64, 128])
    khas_job(HYPER2, radii=[4, 6, 8, 12])
    # more unseeded p=2 runs, so that the median and the latency tail of
    # this short job list fall on jobs whose work does not change with seed
    khas_job(EUCLID3, radii=[4, 8, 16, 32, 64])
    khas_job(Manifold("euclidean", 4, "power"))
    khas_job(EUCLID2, lam=0.25)
    khas_job(EUCLID3, lam=1.0)
    khas_job(EUCLID2, eps=0.05)
    # every bump at p=2; the first also at p=3, where each node solve is a
    # bisection: on 51 nodes rather than the CLI's 101 that solve costs
    # ~1.4 s whatever the bump, on 101 it costs 2.6-3.0 s by bump
    for n, (height, center, width) in enumerate(inp.bumps):
        bump = f"bump:height={height!r},center={center!r},width={width!r}"

        def psi(r, h=height, c=center, w=width):
            return [h - ((x - c) / w) ** 2 for x in r]
        for p in (2.0, 3.0) if n == 0 else (2.0,):
            jobs.append(Job(
                _label("obstacle euclidean m=3", f"p={p:g}",
                       f"bump=({height:.3f},{center:.3f},{width:.3f})"),
                argv=["obstacle"] + _sets(manifold="euclidean", m=3,
                                          p=f"{p:g}", r_min=1, r_max=2,
                                          n_nodes=101 if p == 2 else 51,
                                          obstacle=bump),
                check=lambda o, p=p, psi=psi: theory.check_obstacle(
                    o.code, o.data.decode(), 3, p, psi)))
    # 5 nodes per stage instead of 48 keeps this p=3 run near 2.5 s, not 22
    khas_job(EUCLID2, p=3.0, nodes=5)
    return jobs


JOB_LISTS = {"classify": classify_jobs, "evans": evans_jobs,
             "staged": staged_jobs}
