"""Command-line front end.

Commands: ``classify`` (integral criteria), ``evans`` (radial
exhaustion profile), ``khasminskii`` (staged supersolution pipeline) and
``obstacle`` (single constrained solve).  Configuration is flat
``key=value`` text (one pair per line, ``#`` comments) merged with
repeated ``--set key=value`` command-line overrides; later values win.

Exit codes: 0 success, 1 error, 2 a usage error (argparse's) or any
Inconclusive classification, exhaustion test or staged verdict, 4 nonzero
limit in the staged pipeline or no exhaustion for ``evans``.
Output is CSV with '#'-prefixed ``key=value`` metadata lines before the
header; identical configs produce byte-identical output.  ``evans`` and
``khasminskii`` name in ``# reason=`` the deciding branch of the Liouville
test and in ``# r_max=`` the radius it read to, ``classify`` in its
``reason`` column the branch of each row's test.
This module alone knows that format.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import core, criteria, obstacle, radial

log = logging.getLogger("modelpot")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_H_LIMIT_NONZERO = 4
EXIT_NO_EXHAUSTION = 4


class ConfigError(ValueError):
    def __init__(self, key, message):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def parse_config_text(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line, f"line {lineno} is not key=value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _merge(args) -> dict:
    cfg = {}
    if args.config:
        cfg.update(load_config(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(item, "--set needs key=value")
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    if args.rmax is not None:
        cfg["rmax"] = repr(args.rmax)
    return cfg


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(key, "missing required key")
    return default


def _get_float(cfg, key, default=None, required=False, positive=False):
    raw = _get(cfg, key, required=required)
    if raw is None:
        return default
    val = _finite(key, raw)
    if positive and val <= 0:
        raise ConfigError(key, "must be positive")
    return val


def _finite(key, raw):
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(key, f"not a number: {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(key, f"not a finite number: {raw!r}")
    return val


def _get_int(cfg, key, default=None):
    raw = _get(cfg, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(key, f"not an integer: {raw!r}") from None


def _split_list(raw):
    """Split at ``,`` or ``;``.  A ``key=value`` segment without ``:``
    continues the previous item when that item is a tag with options, so
    ``linear-power:p=2,lambda=1`` stays one tag."""
    items = []
    for seg in raw.replace(";", ",").split(","):
        seg = seg.strip()
        if not seg:
            continue
        if items and "=" in seg and ":" not in seg and ":" in items[-1]:
            items[-1] += "," + seg
        else:
            items.append(seg)
    return items


def _write(out_path, text):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _profile_csv(meta, column, r=(), values=()) -> str:
    """``# key=value`` lines for the ``meta`` items, the header
    ``r,<column>`` and one ``%.12g`` row per node of a radial profile."""
    pairs = np.column_stack((np.asarray(r, dtype=float),
                             np.asarray(values, dtype=float)))
    head = "".join(f"# {item}\n" for item in meta) + f"r,{column}\n"
    return head + ("%.12g,%.12g\n" * len(pairs)) % tuple(
        pairs.ravel().tolist())


CSV_COLUMNS = ("manifold", "p", "potential", "property", "verdict",
               "partial_integral", "slope", "reason")


def _classification_row(manifold_name, p, potential_name, cls):
    """The CSV row of a classification and the test that decided it.
    Option separators inside a tag are written as ``;`` so that the field
    holds no comma (``linear-power:p=2;lambda=1``); ``_split_list`` reads
    either."""
    dv = cls.divergence
    return ",".join((manifold_name, f"{p:g}",
                     potential_name.replace(",", ";"), cls.property.value,
                     dv.verdict.value, f"{dv.partial_integral:.12g}",
                     f"{dv.slope_estimate:.6g}", dv.reason))


# ---------------------------------------------------------------------------


def cmd_classify(cfg, out_path) -> int:
    manifolds = _split_list(_get(cfg, "manifold", required=True))
    operators = _split_list(_get(cfg, "operator", "p-laplacian:p=2"))
    potentials = _split_list(_get(cfg, "potential", "zero"))
    m = _get_int(cfg, "m", 2)
    rmax = _get_float(cfg, "rmax", criteria.R_MAX, positive=True)

    lines = ["# command=classify", ",".join(CSV_COLUMNS)]
    any_inconclusive = False
    for man_tag in manifolds:
        M = core.manifold_from_tag(man_tag, m)
        for op_tag in operators:
            op = core.operator_from_tag(op_tag)
            for pot_tag in potentials:
                pot = core.potential_from_tag(pot_tag)
                if pot.name == "zero":
                    cls = criteria.classify_parabolic(M, op, rmax)
                else:
                    cls = criteria.classify_KL(M, op, pot, rmax)
                if cls.property is criteria.PropertyTag.INCONCLUSIVE:
                    any_inconclusive = True
                lines.append(
                    _classification_row(M.name, op.p, pot.name, cls))
    _write(out_path, "\n".join(lines) + "\n")
    return EXIT_INCONCLUSIVE if any_inconclusive else EXIT_OK


def cmd_evans(cfg, out_path) -> int:
    m = _get_int(cfg, "m", 2)
    M = core.manifold_from_tag(_get(cfg, "manifold", required=True), m)
    op = core.operator_from_tag(_get(cfg, "operator", "p-laplacian:p=2"))
    pot = core.potential_from_tag(_get(cfg, "potential", "zero"))
    R = _get_float(cfg, "R", required=True, positive=True)
    R1 = _get_float(cfg, "R1", required=True, positive=True)
    eps = _get_float(cfg, "eps", required=True, positive=True)
    rmax = _get_float(cfg, "rmax", 100.0, positive=True)
    # read and checked, with no effect: under B <= b1 t**(p-1) no profile
    # blows up.  The key stays while the benchmark's threshold jobs send
    # it; it goes with them, in one change to the benchmark
    _get_float(cfg, "blowup_threshold", positive=True)
    try:
        result = radial.evans_for_triple(M, op, pot, R, R1, eps, rmax)
    except radial.NoExhaustion as exc:
        dv = exc.divergence
        converges = dv.verdict is criteria.Verdict.CONVERGES
        status = "no_exhaustion" if converges else "inconclusive"
        _write(out_path, _profile_csv(
            ["command=evans", f"status={status}",
             f"partial_integral={dv.partial_integral:.12g}",
             f"slope={dv.slope_estimate:.6g}", f"reason={dv.reason}",
             f"r_max={dv.r_max:.12g}"], "w"))
        log.info("%s", exc)
        return EXIT_NO_EXHAUSTION if converges else EXIT_INCONCLUSIVE
    sol, dv = result.solution, result.exhaustion
    _write(out_path, _profile_csv(
        ["command=evans", f"c={result.c_final:.12g}",
         f"mu={result.mu_final:.12g}",
         f"sup_on_annulus={result.sup_on_annulus:.12g}",
         f"status={sol.status}", f"reason={dv.reason}",
         f"r_max={dv.r_max:.12g}"], "w", sol.grid, result.c_final * sol.z))
    return EXIT_OK


def cmd_khasminskii(cfg, out_path) -> int:
    m = _get_int(cfg, "m", 2)
    M = core.manifold_from_tag(_get(cfg, "manifold", required=True), m)
    p = _get_float(cfg, "p", 2.0, positive=True)
    lam = _get_float(cfg, "lambda", 0.0)
    K_radius = _get_float(cfg, "K_radius", required=True, positive=True)
    Omega_radius = _get_float(cfg, "Omega_radius", required=True,
                              positive=True)
    eps = _get_float(cfg, "eps", 0.1, positive=True)
    radii = [_finite("radii", s)
             for s in _split_list(_get(cfg, "radii", "4,8,16,32"))]
    nodes = _get_int(cfg, "nodes_per_stage", 48)
    report = obstacle.khasminskii_construct(
        M, p, lam, K_radius, Omega_radius, eps, radii, nodes_per_stage=nodes)
    dv = report.divergence
    _write(out_path, _profile_csv(
        ["command=khasminskii", f"verdict={report.verdict}",
         f"reason={dv.reason}", f"n_stages={report.n_stages}",
         f"h_limit_sup={report.h_limit_sup:.12g}",
         "budget_used=" + ",".join(f"{b:.12g}" for b in report.budget_used),
         f"r_max={dv.r_max:.12g}"],
        "w", report.w.problem.grid, report.w.values))
    return {"HLimitNonzero": EXIT_H_LIMIT_NONZERO,
            "Inconclusive": EXIT_INCONCLUSIVE}.get(report.verdict, EXIT_OK)


def _bump(height, center, width, grid):
    if not width > 0:
        raise ValueError(f"bump width must be positive, got {width:g}")
    # a square past the largest double is the -inf (no constraint) that
    # the parabola tends to
    with np.errstate(over="ignore"):
        return height - ((grid[1:-1] - center) / width) ** 2


def _parse_obstacle_shape(raw, grid):
    try:
        return core.read_tag(raw, {
            "none": (lambda g: np.full(len(g) - 2, obstacle.NEG_INF), ()),
            "bump": (_bump, ("height", "center", "width"))}, "obstacle", grid)
    except ValueError as exc:
        raise ConfigError("obstacle", str(exc)) from None


def cmd_obstacle(cfg, out_path) -> int:
    m = _get_int(cfg, "m", 2)
    M = core.manifold_from_tag(_get(cfg, "manifold", required=True), m)
    p = _get_float(cfg, "p", 2.0, positive=True)
    lam = _get_float(cfg, "lambda", 0.0)
    r_min = _get_float(cfg, "r_min", required=True, positive=True)
    r_max = _get_float(cfg, "r_max", required=True, positive=True)
    n_nodes = _get_int(cfg, "n_nodes", 101)
    theta_left = _get_float(cfg, "theta_left", 0.0)
    theta_right = _get_float(cfg, "theta_right", 1.0)
    grid = np.geomspace(r_min, r_max, n_nodes)
    prob = obstacle.make_problem(M, p, lam, grid)
    psi = _parse_obstacle_shape(_get(cfg, "obstacle", "none"), grid)
    spec = obstacle.ObstacleSpec(psi=psi, theta_left=theta_left,
                                 theta_right=theta_right)
    sol = obstacle.solve_obstacle(prob, spec)
    # the energy with the absolute weights, inf past the largest double
    with np.errstate(divide="ignore", over="ignore"):
        energy = np.exp(np.log(prob.energy(sol.values)) + prob.log_scale)
    _write(out_path, _profile_csv(
        ["command=obstacle", f"energy={energy:.12g}",
         f"stationarity={sol.stationarity:.6g}",
         f"iterations={sol.iterations}",
         f"obstacle_violation={sol.obstacle_violation:.6g}",
         f"min_slackness={sol.min_slackness:.6g}"],
        "u", grid, sol.values))
    return EXIT_OK


# each command with the config keys it reads (--rmax sets rmax)
COMMANDS = {
    "classify": (cmd_classify, "manifold m operator potential rmax"),
    "evans": (cmd_evans, "manifold m operator potential R R1 eps rmax "
              "blowup_threshold"),
    "khasminskii": (cmd_khasminskii, "manifold m p lambda K_radius "
                    "Omega_radius eps radii nodes_per_stage"),
    "obstacle": (cmd_obstacle, "manifold m p lambda r_min r_max n_nodes "
                 "theta_left theta_right obstacle"),
}


# built once: each option's help formatter asks for the terminal size
PARSER = argparse.ArgumentParser(
    prog="modelpot",
    description="Classification and potential construction on "
                "rotationally symmetric manifolds.")
PARSER.add_argument("command", choices=tuple(COMMANDS))
PARSER.add_argument("--config", help="key=value config file")
PARSER.add_argument("--out", help="output CSV path (default stdout)")
PARSER.add_argument("--rmax", type=float,
                    help="outer radius / truncation override")
PARSER.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="config override (repeatable, last wins)")


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("MODELPOT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    args = PARSER.parse_args(argv)
    try:
        cfg = _merge(args)
        run, keys = COMMANDS[args.command]
        unread = [key for key in cfg if key not in keys.split()]
        if unread:
            raise ConfigError(unread[0], f"not read by {args.command}")
        return run(cfg, args.out)
    except (ConfigError, ValueError, core.NumericError, OSError,
            criteria.ConsistencyError) as exc:
        log.error("%s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
