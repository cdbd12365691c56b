"""Command-line front end.

Subcommands: ``classify`` (integral-criteria sweeps), ``evans`` (radial
exhaustion profile), ``khasminskii`` (staged supersolution pipeline) and
``obstacle`` (single constrained solve).  Configuration is flat
``key=value`` text (one pair per line, ``#`` comments) merged with
repeated ``--set key=value`` command-line overrides; later values win.

Exit codes: 0 success, 1 error, 2 any Inconclusive classification,
3 blow-up in the radial solve, 4 nonzero limit in the staged pipeline.
Output is CSV with '#'-prefixed ``key=value`` metadata lines before the
header; identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import core, criteria, obstacle, radial

log = logging.getLogger("modelpot")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_BLOWUP = 3
EXIT_H_LIMIT_NONZERO = 4


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
    if args.tol is not None:
        cfg["tol"] = repr(args.tol)
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
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(key, f"not a number: {raw!r}") from None
    if positive and val <= 0:
        raise ConfigError(key, "must be positive")
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
    ``linear-power:p=2,lambda=1`` stays one tag while the bare options
    ``height=..,center=..`` still split."""
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


def _manifold(tag, m):
    if tag.startswith("table:"):
        return core.load_manifold_csv(tag[len("table:"):], m)
    return core.manifold_from_tag(tag, m)


def _write(out_path, text):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------


def cmd_classify(cfg, out_path) -> int:
    manifolds = _split_list(_get(cfg, "manifold", required=True))
    operators = _split_list(_get(cfg, "operator", "p-laplacian:p=2"))
    potentials = _split_list(_get(cfg, "potential", "zero"))
    m = _get_int(cfg, "m", 2)
    rmax = _get_float(cfg, "rmax", positive=True)
    div_cfg = criteria.DEFAULT_DIVERGENCE
    if rmax is not None:
        div_cfg = criteria.DivergenceConfig(r_max=rmax)

    lines = ["# command=classify", ",".join(criteria.CSV_COLUMNS)]
    any_inconclusive = False
    for man_tag in manifolds:
        M = _manifold(man_tag, m)
        for op_tag in operators:
            op = core.operator_from_tag(op_tag)
            for pot_tag in potentials:
                pot = core.potential_from_tag(pot_tag)
                if pot.name == "zero":
                    cls = criteria.classify_parabolic(M, op, div_cfg)
                else:
                    cls = criteria.classify_KL(M, op, pot, div_cfg)
                if cls.property is criteria.PropertyTag.INCONCLUSIVE:
                    any_inconclusive = True
                for row in criteria.classification_rows(
                        M.name, op.p, pot.name, cls):
                    lines.append(",".join(row))
    _write(out_path, "\n".join(lines) + "\n")
    return EXIT_INCONCLUSIVE if any_inconclusive else EXIT_OK


def cmd_evans(cfg, out_path) -> int:
    m = _get_int(cfg, "m", 2)
    M = _manifold(_get(cfg, "manifold", required=True), m)
    op = core.operator_from_tag(_get(cfg, "operator", "p-laplacian:p=2"))
    pot = core.potential_from_tag(_get(cfg, "potential", "zero"))
    R = _get_float(cfg, "R", required=True, positive=True)
    R1 = _get_float(cfg, "R1", required=True, positive=True)
    eps = _get_float(cfg, "eps", required=True, positive=True)
    rmax = _get_float(cfg, "rmax", 100.0, positive=True)
    threshold = _get_float(cfg, "blowup_threshold", 1e8, positive=True)
    nodes = _get_int(cfg, "nodes_per_window", 64)
    try:
        result = radial.evans_for_triple(
            M, op, pot, R, R1, eps, rmax,
            blowup_threshold=threshold, nodes_per_window=nodes)
    except radial.EvansFailure as exc:
        if exc.blowup_radius is not None:
            _write(out_path,
                   f"# command=evans\n# status=blowup\n"
                   f"# blowup_radius={exc.blowup_radius:.12g}\nr,w\n")
            log.error("%s", exc)
            return EXIT_BLOWUP
        raise
    _write(out_path, "# command=evans\n" + result.to_csv())
    return EXIT_OK


def cmd_khasminskii(cfg, out_path) -> int:
    m = _get_int(cfg, "m", 2)
    M = _manifold(_get(cfg, "manifold", required=True), m)
    p = _get_float(cfg, "p", 2.0, positive=True)
    lam = _get_float(cfg, "lambda", 0.0)
    K_radius = _get_float(cfg, "K_radius", required=True, positive=True)
    Omega_radius = _get_float(cfg, "Omega_radius", required=True,
                              positive=True)
    eps = _get_float(cfg, "eps", 0.1, positive=True)
    raw_radii = _get(cfg, "radii", "4,8,16,32")
    try:
        radii = [float(s) for s in _split_list(raw_radii)]
    except ValueError:
        raise ConfigError("radii", f"not a number list: {raw_radii!r}") \
            from None
    tol = _get_float(cfg, "tol", 1e-3, positive=True)
    nodes = _get_int(cfg, "nodes_per_stage", 48)
    report = obstacle.khasminskii_construct(
        M, p, lam, K_radius, Omega_radius, eps, radii,
        tol=tol, nodes_per_stage=nodes)
    _write(out_path, "# command=khasminskii\n" + report.to_csv())
    return EXIT_H_LIMIT_NONZERO if report.verdict == "HLimitNonzero" \
        else EXIT_OK


def _parse_obstacle_shape(raw, grid):
    if raw == "none":
        return np.full(len(grid) - 2, obstacle.NEG_INF)
    if raw.startswith("bump:"):
        opts = dict(kv.split("=", 1) for kv in _split_list(raw[5:]))
        try:
            height = float(opts["height"])
            center = float(opts["center"])
            width = float(opts["width"])
        except (KeyError, ValueError):
            raise ConfigError(
                "obstacle", "bump needs height=..,center=..,width=..") \
                from None
        r = grid[1:-1]
        return height - ((r - center) / width) ** 2
    raise ConfigError("obstacle", f"unknown shape {raw!r}")


def cmd_obstacle(cfg, out_path) -> int:
    m = _get_int(cfg, "m", 2)
    M = _manifold(_get(cfg, "manifold", required=True), m)
    p = _get_float(cfg, "p", 2.0, positive=True)
    lam = _get_float(cfg, "lambda", 0.0)
    r_min = _get_float(cfg, "r_min", required=True, positive=True)
    r_max = _get_float(cfg, "r_max", required=True, positive=True)
    n_nodes = _get_int(cfg, "n_nodes", 101)
    theta_left = _get_float(cfg, "theta_left", 0.0)
    theta_right = _get_float(cfg, "theta_right", 1.0)
    tol = _get_float(cfg, "tol", 1e-10, positive=True)
    grid = np.geomspace(r_min, r_max, n_nodes)
    prob = obstacle.make_problem(M, p, lam, grid)
    psi = _parse_obstacle_shape(_get(cfg, "obstacle", "none"), grid)
    spec = obstacle.ObstacleSpec(psi=psi, theta_left=theta_left,
                                 theta_right=theta_right)
    sol = obstacle.solve_obstacle(prob, spec, tol=tol)
    stat, viol, slack = obstacle.residual_complementarity(sol, spec)
    lines = ["# command=obstacle",
             f"# energy={prob.energy(sol.values):.12g}",
             f"# stationarity={stat:.6g}",
             f"# iterations={sol.iterations}",
             f"# obstacle_violation={viol:.6g}",
             f"# min_slackness={slack:.6g}",
             "r,u"]
    for r, v in zip(grid, sol.values):
        lines.append(f"{r:.12g},{v:.12g}")
    _write(out_path, "\n".join(lines) + "\n")
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "evans": cmd_evans,
    "khasminskii": cmd_khasminskii,
    "obstacle": cmd_obstacle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelpot",
        description="Classification and potential construction on "
                    "rotationally symmetric manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="key=value config file")
        cmd.add_argument("--out", help="output CSV path (default stdout)")
        cmd.add_argument("--tol", type=float, help="tolerance override")
        cmd.add_argument("--rmax", type=float,
                         help="outer radius / truncation override")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="config override (repeatable, last wins)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("MODELPOT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge(args)
        return COMMANDS[args.command](cfg, args.out)
    except (ConfigError, ValueError, core.NumericError, OSError,
            criteria.ConsistencyError) as exc:
        log.error("%s", exc)
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
