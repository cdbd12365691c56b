"""End-to-end tests of the command-line front end: exit codes, CSV shape
and byte-level determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from modelpot import cli, core, obstacle, radial
from oracles import count_picard_work


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_fresh(args, **env):
    """``python args`` in a fresh process that imports this checkout's
    ``modelpot``, with ``env`` over the environment less MODELPOT_LOG."""
    src = str(Path(cli.__file__).parents[1])
    env = {**{key: value for key, value in os.environ.items()
              if key != "MODELPOT_LOG"}, **env}
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text():
    cfg = cli.parse_config_text(
        "# comment\nmanifold = euclidean\nm=2  # trailing\n\nR=1.5\n")
    assert cfg == {"manifold": "euclidean", "m": "2", "R": "1.5"}


def test_parse_config_rejects_bare_words():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("not-a-pair\n")


def test_overrides_win(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.cfg",
                    "manifold=euclidean\nm=3\noperator=p-laplacian:p=2\n")
    code, out = run_cli(["classify", "--config", cfg, "--set", "m=2"],
                        capsys)
    assert code == 0
    assert "Parabolic" in out        # m=2 after override; m=3 would not be


# ---------------------------------------------------------------------------
# classify


def test_classify_parabolic_plane(capsys):
    code, out = run_cli(["classify", "--set", "manifold=euclidean",
                         "--set", "m=2"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "manifold,p,potential,property,verdict," \
                       "partial_integral,slope,reason"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 1
    assert all(len(r) == len(cli.CSV_COLUMNS) for r in rows)
    assert {r[3] for r in rows} == {"Parabolic"}
    # int_1^1e4 dr/r = log 1e4, by the branch that decided
    assert rows[0][5:] == ["9.21034037198", "-1", "critical_slope"]


def test_classify_inconclusive_exit_code(tmp_path, capsys):
    # tabulated warping r*log(e+r) puts the integrand in the heuristic's
    # critical band
    r = np.geomspace(1e-3, 2e4, 3000)
    g = r * np.log(math.e + r)
    table = tmp_path / "slowlog.csv"
    np.savetxt(table, np.column_stack([r, g]), delimiter=",",
               header="r,g", comments="")
    code, out = run_cli(["classify", "--set", f"manifold=table:{table}",
                         "--set", "m=2"], capsys)
    assert code == 2
    assert "Inconclusive" in out


def test_split_list_keeps_tag_options_together():
    assert cli._split_list("zero,linear-power:p=2,lambda=1,superlinear:q=1") \
        == ["zero", "linear-power:p=2,lambda=1", "superlinear:q=1"]
    assert cli._split_list("height=0.8,center=1.4,width=0.1") \
        == ["height=0.8", "center=1.4", "width=0.1"]
    assert cli._split_list("4, 8;16,,32") == ["4", "8", "16", "32"]


def test_classify_tag_with_comma(capsys):
    code, out = run_cli(["classify", "--set", "manifold=euclidean",
                         "--set", "m=2",
                         "--set", "potential=linear-power:p=2,lambda=1"],
                        capsys)
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert rows
    assert all(len(r) == len(cli.CSV_COLUMNS) for r in rows)
    assert {r[2] for r in rows} == {"linear-power:p=2;lambda=1"}
    assert {r[3] for r in rows} == {"KL_Holds"}


def test_classify_with_an_underflowing_phi_inverse_bracket(capsys):
    # perturbed p=1.5 on the hyperbolic plane: phi^-1 meets y ~ 1e-165,
    # where the bracket of the Newton iteration underflows
    argv = ["--set", "manifold=hyperbolic", "--set", "m=2",
            "--set", "operator=perturbed:p=1.5"]
    code, out = run_cli(["classify"] + argv, capsys)
    assert code == 0
    assert {ln.split(",")[3] for ln in out.splitlines()[2:]} \
        == {"NonParabolic"}
    code, out = run_cli(["evans"] + argv + ["--set", "R=1", "--set", "R1=2",
                                            "--set", "eps=0.1",
                                            "--rmax", "60"], capsys)
    assert code == 4
    assert "# status=no_exhaustion\n" in out


CLASSIFY_LISTS = [("manifold", ["euclidean", "hyperbolic"]),
                  ("operator", ["p-laplacian:p=2", "perturbed:p=2"]),
                  ("potential", ["zero", "superlinear:q=1"])]


def test_classify_builds_each_tag_once(capsys, monkeypatch):
    # a 2x2x2 list builds 2 manifolds, 2 operators and 2 potentials, and
    # its 8 rows are the 8 single-tag runs', in the lists' nesting order
    built = []
    for name in ("manifold_from_tag", "operator_from_tag",
                 "potential_from_tag"):
        def spy(tag, *args, build=getattr(core, name)):
            built.append(tag)
            return build(tag, *args)

        monkeypatch.setattr(core, name, spy)
    argv = ["classify", "--set", "m=3"] + [
        arg for key, tags in CLASSIFY_LISTS
        for arg in ("--set", f"{key}={';'.join(tags)}")]
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert built == [tag for _, tags in CLASSIFY_LISTS for tag in tags]
    rows = out.splitlines()[2:]
    single = []
    for man in CLASSIFY_LISTS[0][1]:
        for op in CLASSIFY_LISTS[1][1]:
            for pot in CLASSIFY_LISTS[2][1]:
                code, one = run_cli(
                    ["classify", "--set", "m=3", "--set", f"manifold={man}",
                     "--set", f"operator={op}", "--set", f"potential={pot}"],
                    capsys)
                assert code == 0
                single += one.splitlines()[2:]
    assert rows == single and len(rows) == 8
    # the v_st rows the console-script step pins
    assert rows[1] == ("euclidean,2,superlinear:q=1,KL_Holds,Diverges,"
                       "16666666.3218,1,critical_slope")
    assert rows[7] == ("hyperbolic,2,superlinear:q=1,KL_Holds,Diverges,"
                       "2807.31505863,-8.25107e-14,critical_slope")


def test_classify_bad_tag_exit_code(capsys):
    code, _ = run_cli(["classify", "--set", "manifold=moebius",
                       "--set", "m=2"], capsys)
    assert code == 1


def test_classify_missing_key_names_it(capsys):
    code = cli.main(["classify"])
    assert code == 1
    assert "manifold" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evans


EVANS_ARGS = ["evans", "--set", "manifold=euclidean", "--set", "m=2",
              "--set", "R=1", "--set", "R1=2", "--set", "eps=0.1",
              "--rmax", "60"]


def test_evans_log_profile(capsys):
    code, out = run_cli(EVANS_ARGS, capsys)
    assert code == 0
    lines = out.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("sup_on_annulus" in ln for ln in meta)
    # B = 0: the profile is one pass, with no Picard work
    assert {"# picard_applications=0", "# failed_windows=0"} <= set(meta)
    # the Liouville test that admitted the profile: c/r, on the critical
    # line, read to the classifier's reach from R = 1
    assert meta[-3:] == ["# status=complete", "# reason=critical_slope",
                         "# r_max=10000"]
    data = np.loadtxt([ln for ln in lines if not ln.startswith("#")][1:],
                      delimiter=",")
    c = float(next(ln for ln in meta if "# c=" in ln).split("=")[1])
    assert np.allclose(data[:, 1], c * np.log(data[:, 0]), atol=1e-2)


def test_evans_blowup_exit_code(capsys):
    code, out = run_cli(
        ["evans", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "potential=superlinear:q=5", "--set", "R=1",
         "--set", "R1=2", "--set", "eps=1e-12", "--rmax", "50"], capsys)
    # superlinear potential has no t**(p-1) bound: config error, not blowup
    assert code == 1


def test_evans_blowup_reported(capsys):
    code, out = run_cli(
        ["evans", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "potential=plateau:T=0.001,p=6",
         "--set", "operator=p-laplacian:p=6", "--set", "R=1",
         "--set", "R1=2", "--set", "eps=1", "--rmax", "50"], capsys)
    # B <= t^(p-1) at p = 6 rules out blow-up, and the plane is
    # 6-parabolic: an exhaustion exists, and no threshold crossing is
    # reported as a blow-up
    assert code == 0
    assert "# status=complete\n" in out
    assert "blowup" not in out


def test_evans_blowup_threshold_has_no_effect(capsys):
    # the benchmark's linear-power plane job: its march crosses 1e8 at
    # r ~ 21.7, which is no blow-up under B <= b t**(p-1)
    args = ["evans", "--set", "manifold=euclidean", "--set", "m=2",
            "--set", "potential=linear-power:p=2,lambda=1", "--set", "R=1",
            "--set", "R1=2", "--set", "eps=0.1", "--rmax", "40"]
    outs = [run_cli(args + ["--set", f"blowup_threshold={t}"], capsys)
            for t in ("1e8", "1e16")]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and "# status=complete\n" in outs[0][1]
    code, out = run_cli(args + ["--set", "blowup_threshold=-1"], capsys)
    assert code == 1 and out == ""


@pytest.mark.parametrize("tag", ["linear-power:p=2,lambda=1",
                                 "plateau:T=1,p=2"])
def test_evans_prints_the_picard_work_it_did(capsys, monkeypatch, tag):
    # CI's B != 0 config: the counters that the march sums and evans
    # prints are the applications and failed windows counted call by call
    # (306 and 0 on linear-power, every scale tried; 0 and 0 on plateau,
    # whose profile stays below its kink T = 1 at every scale on [1, 2],
    # and at the accepted c = 1/8 up to R_max = 40: c z = log(r)/8 there)
    counts = count_picard_work(monkeypatch)
    code, out = run_cli(
        ["evans", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", f"potential={tag}", "--set", "R=1", "--set", "R1=2",
         "--set", "eps=0.1", "--set", "blowup_threshold=1e16",
         "--rmax", "40"], capsys)
    assert code == 0
    meta = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert f"# picard_applications={counts['applications']}" in meta
    assert f"# failed_windows={counts['failed']}" in meta
    assert counts["applications"] == (306 if tag.startswith("linear")
                                      else 0)
    assert counts["failed"] == 0
    reach = "1" if tag.startswith("linear") else "40"
    assert f"# constant_flux_to={reach}" in meta


def test_evans_rejected_scales_are_decided_on_the_annulus(capsys):
    # no scale is small enough on [1, 2]; the crossings past R1 of the
    # rejected scales are never reached
    code = cli.main(
        ["evans", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "potential=plateau:T=0.001,p=6",
         "--set", "operator=p-laplacian:p=6", "--set", "R=1",
         "--set", "R1=2", "--set", "eps=1e-12", "--rmax", "50"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    with pytest.raises(radial.EvansFailure) as info:
        radial.evans_for_triple(
            core.manifold_from_tag("euclidean", 2),
            core.p_laplacian_operator(6.0), core.plateau_potential(1e-3, 6.0),
            R=1.0, R1=2.0, eps=1e-12, R_max=50.0)
    assert ("no admissible scale above the floor; observed annulus bound "
            f"{info.value.observed_sup:.6g}") in captured.err


def test_evans_no_exhaustion_exit_code(capsys):
    # R^3 is not 2-parabolic: int r^-2 converges and no profile is
    # unbounded
    code, out = run_cli(EVANS_ARGS + ["--set", "m=3"], capsys)
    assert code == 4
    lines = out.splitlines()
    assert lines[:2] == ["# command=evans", "# status=no_exhaustion"]
    # int_1^1e4 r^-2 = 1 - 1e-4, to the Simpson rule's error
    assert lines[2] == "# partial_integral=0.999900000582"
    assert lines[3:] == ["# slope=-2", "# reason=tail_within_tolerance",
                         "# r_max=10000", "r,w"]


def test_evans_refuses_where_classify_says_kl_fails(capsys):
    # the plateau's profiles on R^3 are bounded, so no exhaustion exists;
    # evans reports the Liouville test of classify's row
    triple = ["--set", "manifold=euclidean", "--set", "m=3",
              "--set", "potential=plateau:T=1,p=2"]
    code, out = run_cli(["evans"] + triple + [
        "--set", "R=1", "--set", "R1=2", "--set", "eps=0.1", "--rmax", "15"],
        capsys)
    assert code == 4
    assert out.splitlines() == [
        "# command=evans", "# status=no_exhaustion",
        "# partial_integral=0.999900000582", "# slope=-2",
        "# reason=tail_within_tolerance", "# r_max=10000", "r,w"]
    code, row = run_cli(["classify"] + triple, capsys)
    assert code == 0
    assert row.splitlines()[2].endswith(
        ",KL_Fails,Converges,0.999900000582,-2,tail_within_tolerance")


@pytest.mark.parametrize("T", ["1e-07", "5e-07"])
def test_a_kink_below_the_samples_types_the_plateau(capsys, T):
    # plateau:T=1e-07 vanishes on [0, T], below B's first sample 1e-6: its
    # declared kink still types it, so on R^3 evans and classify say what
    # they say for T = 1, where they used to build a witness for KL
    triple = ["--set", "manifold=euclidean", "--set", "m=3",
              "--set", f"potential=plateau:T={T},p=2"]
    code, out = run_cli(["evans"] + triple + [
        "--set", "R=1", "--set", "R1=2", "--set", "eps=0.1", "--rmax", "40"],
        capsys)
    assert code == 4
    assert out.splitlines() == [
        "# command=evans", "# status=no_exhaustion",
        "# partial_integral=0.999900000582", "# slope=-2",
        "# reason=tail_within_tolerance", "# r_max=10000", "r,w"]
    code, row = run_cli(["classify"] + triple, capsys)
    assert code == 0
    assert row.splitlines()[2].endswith(
        ",KL_Fails,Converges,0.999900000582,-2,tail_within_tolerance")


def test_evans_inconclusive_exit_code(tmp_path, capsys):
    # on the warping r log(e + r) the profile 1/(r log(e + r)) drifts
    # toward the critical slope from decade to decade: Inconclusive
    r = np.geomspace(1e-3, 2e4, 3000)
    table = tmp_path / "slowlog.csv"
    np.savetxt(table, np.column_stack([r, r * np.log(math.e + r)]),
               delimiter=",", header="r,g", comments="")
    code, out = run_cli(
        EVANS_ARGS + ["--set", f"manifold=table:{table}"], capsys)
    assert code == 2
    assert "# status=inconclusive\n" in out
    assert "# reason=slope_or_tail_undecided\n" in out
    # the plane at p = 1.95 is not p-parabolic: its steady profile
    # r^-1.05 converges, and no exhaustion exists (exit 4)
    code, out = run_cli(
        EVANS_ARGS + ["--set", "operator=p-laplacian:p=1.95"], capsys)
    assert code == 4
    assert "# status=no_exhaustion\n" in out
    assert "# slope=-1.05263\n# reason=steady_power_tail\n" in out


def test_evans_on_a_table(tmp_path, capsys):
    # a table of non-decreasing samples loads as monotone, and evans
    # builds on one that reaches the classifier's reach from R = 1
    r = np.linspace(0.01, 1e4, 4000)
    path = tmp_path / "plane.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    code, out = run_cli(EVANS_ARGS + ["--set", f"manifold=table:{path}"],
                        capsys)
    assert code == 0
    assert "# sup_on_annulus=0.0866" in out
    assert "# status=complete" in out
    assert "# r_max=10000\n" in out


def test_evans_refuses_a_table_shorter_than_its_reach(tmp_path, capsys):
    # a table that ends at r = 100 holds R_max = 60 but not the Liouville
    # test's reach, 1e4: evans refuses it as classify does (exit 1)
    r = np.linspace(0.01, 100.0, 400)
    path = tmp_path / "plane.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    for argv in (EVANS_ARGS, ["classify"]):
        code = cli.main(argv + ["--set", f"manifold=table:{path}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: radius beyond tabulated range (max "
                                "100.0), got r=10000\n")


def test_classify_refuses_a_table_with_a_negative_radius(tmp_path, capsys):
    r = np.array([-1.0, 0.5, 1.0, 2.0, 5.0])
    path = tmp_path / "negative.csv"
    np.savetxt(path, np.column_stack([r, np.maximum(r, 0.0)]),
               delimiter=",", header="r,g", comments="")
    code = cli.main(["classify", "--set", f"manifold=table:{path}",
                     "--rmax", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "r sample 0 is -1;" in captured.err


@pytest.mark.parametrize("rows,named", [
    # one row 0,0 raised IndexError, and a NaN g reached pchip unnamed
    ("0,0\n", "tabulated warping has no sample at r > 0 (sample count 1)"),
    ("0.5,0.5\n1,nan\n2,2\n",
     "sample 1 is (r, g) = (1, nan); samples must be finite"),
], ids=["one-row", "nan-g"])
def test_classify_refuses_a_table_by_its_samples(rows, named, tmp_path,
                                                 capsys):
    path = tmp_path / "warp.csv"
    path.write_text("r,g\n" + rows)
    code = cli.main(["classify", "--set", f"manifold=table:{path}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: {named}\n" in captured.err


def test_an_error_is_one_stderr_line_in_a_fresh_process(tmp_path):
    # at the default MODELPOT_LOG=WARNING the logging handler used to print
    # "ERROR modelpot: ..." above the "error: ..." line
    path = tmp_path / "warp.csv"
    path.write_text("r,g\n0,0\n")
    proc = run_fresh(["-m", "modelpot.cli", "classify", "--set",
                      f"manifold=table:{path}"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: tabulated warping has no sample at r > 0 "
                           "(sample count 1)\n")


def test_an_unknown_log_level_is_one_stderr_line_in_a_fresh_process():
    # logging.basicConfig ran outside main's try and raised a traceback
    proc = run_fresh(["-m", "modelpot.cli", "classify", "--set",
                      "manifold=euclidean"], MODELPOT_LOG="verbose")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: MODELPOT_LOG='verbose' is no log level; "
                           "use DEBUG, INFO, WARNING, ERROR or CRITICAL\n")


def test_classify_refuses_an_interval_of_a_few_ulps(capsys):
    # the plane is parabolic; on [1, 1 + 1 ulp] no verdict can be sampled
    code = cli.main(["classify", "--set", "manifold=euclidean",
                     "--rmax", repr(1.0 + 3e-16)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "too short to sample" in captured.err


def test_evans_refuses_a_potential_faster_than_the_operator(capsys):
    code = cli.main(
        EVANS_ARGS + ["--set", "potential=linear-power:p=3,lambda=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "grows like t**2, faster than t**(p-1) = t**1" in captured.err


def test_evans_refuses_a_potential_slower_than_the_operator(capsys):
    code = cli.main(
        ["evans", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "operator=p-laplacian:p=3",
         "--set", "potential=linear-power:p=2,lambda=1", "--set", "R=0.5",
         "--set", "R1=3", "--set", "eps=0.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert ("grows like t**1 near 0, slower than t**(p-1) = t**2"
            in captured.err)


@pytest.mark.parametrize("operator,tag,twin", [
    ("p-laplacian:p=2", "linear-power:p=3,lambda=0", "zero"),
    ("p-laplacian:p=2", "superlinear:q=1", "linear-power:p=2,lambda=1"),
    ("p-laplacian:p=3", "superlinear:q=2", "linear-power:p=3,lambda=1"),
])
def test_evans_admits_a_potential_by_its_kink_and_exponent(operator, tag,
                                                           twin, capsys):
    # B <= b t**(p-1) holds for B = 0 (kink = inf), whatever its own p,
    # and for t**q with q = p - 1: each is its twin potential, byte for
    # byte
    args = ["evans", "--set", "manifold=euclidean", "--set", "m=2",
            "--set", f"operator={operator}", "--set", "R=1",
            "--set", "R1=2", "--set", "eps=0.1", "--rmax", "12"]
    code, out = run_cli(args + ["--set", f"potential={tag}"], capsys)
    assert code == 0 and "# status=complete\n" in out
    assert (code, out) == run_cli(args + ["--set", f"potential={twin}"],
                                  capsys)


def test_evans_invalid_eps(capsys):
    code, _ = run_cli(
        ["evans", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "R=1", "--set", "R1=2", "--set", "eps=-1"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# khasminskii


KHAS_ARGS = ["khasminskii", "--set", "manifold=euclidean",
             "--set", "K_radius=1", "--set", "Omega_radius=2",
             "--set", "eps=0.1", "--set", "radii=4,8,16,32"]


def test_khasminskii_plane_exit_zero(capsys):
    code, out = run_cli(KHAS_ARGS + ["--set", "m=2"], capsys)
    assert code == 0
    lines = out.splitlines()
    # the branch of the classifier's divergence test follows the verdict
    assert lines[:5] == ["# command=khasminskii", "# verdict=PotentialBuilt",
                         "# reason=critical_slope", "# n_stages=3",
                         "# h_limit_sup=0"]
    # the radius the classifier read to from rho_N = 32, then the least
    # ratio of the final gate and its node, which the report carries
    rep = obstacle.khasminskii_construct(
        core.manifold_from_tag("euclidean", 2), 2.0, 0.0, K_radius=1.0,
        Omega_radius=2.0, eps=0.1, exhaustion_radii=[4, 8, 16, 32])
    assert rep.gate == obstacle.is_supersolution(rep.w.problem, rep.w.values)
    assert rep.gate.ok
    assert lines[5:10] == ["# budget_used=0.005,0.009375,0.0125",
                           "# r_max=10000",
                           f"# gate_ratio={rep.gate.worst_residual:.6g}",
                           f"# gate_node={rep.gate.worst_node}", "r,w"]
    header = 9
    data = np.loadtxt(lines[header + 1:], delimiter=",")
    assert np.allclose(data[:, 0], rep.w.problem.grid, rtol=1e-11, atol=0.0)
    assert np.allclose(data[:, 1], rep.w.values, rtol=1e-11, atol=1e-300)


def test_khasminskii_m3_exit_four(capsys):
    code, out = run_cli(KHAS_ARGS + ["--set", "m=3"], capsys)
    assert code == 4
    # h_limit_sup is h_N(rho_1) = S(4) / S(32) = (3/4) / (31/32), above
    # the limit's sup 3/4
    assert out.splitlines()[1:5] == [
        "# verdict=HLimitNonzero", "# reason=tail_within_tolerance",
        "# n_stages=0", "# h_limit_sup=0.774193548387"]
    # no profile is built, so no final gate runs or prints
    assert "# gate_" not in out


def test_khasminskii_hyperbolic_default_radii_exit_four(capsys):
    # the hyperbolic plane is not parabolic; its weights reach sinh(32) on
    # the default radii, where stage 0 used to end in SweepLimitError
    code, out = run_cli(["khasminskii", "--set", "manifold=hyperbolic",
                         "--set", "m=2", "--set", "K_radius=1",
                         "--set", "Omega_radius=2"], capsys)
    assert code == 4
    assert "# verdict=HLimitNonzero" in out.splitlines()


def test_khasminskii_positive_lambda_builds_on_power_exp(capsys):
    # KL holds on r e^(r^3) at p = 3, and the classifier says so: a
    # potential is built on radii 3..6, where a 1/log fit of the stage-0
    # sups read a limit of 0.187 and the run was Inconclusive
    code, out = run_cli(["khasminskii", "--set", "manifold=power-exp:alpha=3",
                         "--set", "m=2", "--set", "p=3", "--set", "lambda=1",
                         "--set", "K_radius=1", "--set", "Omega_radius=2",
                         "--set", "radii=3,4,5,6"], capsys)
    assert code == 0
    assert out.splitlines()[1:4] == [
        "# verdict=PotentialBuilt", "# reason=critical_slope", "# n_stages=3"]


def test_khasminskii_inconclusive_exit_two(tmp_path, capsys):
    # on the warping r log(e + r) the parabolicity test's profile
    # 1/(r log(e + r)) drifts toward the critical slope: Inconclusive
    r = np.geomspace(1e-3, 2e4, 3000)
    table = tmp_path / "slowlog.csv"
    np.savetxt(table, np.column_stack([r, r * np.log(math.e + r)]),
               delimiter=",", header="r,g", comments="")
    code, out = run_cli(["khasminskii", "--set", f"manifold=table:{table}",
                         "--set", "m=2", "--set", "K_radius=1",
                         "--set", "Omega_radius=2"], capsys)
    assert code == 2
    assert out.splitlines()[1:4] == [
        "# verdict=Inconclusive", "# reason=slope_or_tail_undecided",
        "# n_stages=0"]


def test_khasminskii_bad_radii_order(capsys):
    code, _ = run_cli(["khasminskii", "--set", "manifold=euclidean",
                       "--set", "m=2", "--set", "K_radius=3",
                       "--set", "Omega_radius=2"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# obstacle


OBST_ARGS = ["obstacle", "--set", "manifold=euclidean", "--set", "m=3",
             "--set", "r_min=1", "--set", "r_max=2", "--set", "n_nodes=61",
             "--set", "obstacle=bump:height=0.8,center=1.4,width=0.1"]


def test_obstacle_command(capsys):
    code, out = run_cli(OBST_ARGS, capsys)
    assert code == 0
    lines = out.splitlines()
    assert any(ln.startswith("# energy=") for ln in lines)
    # lambda = 0: the exact concave majorant, no Newton step
    assert "# iterations=0" in lines
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header] == "r,u"
    data = np.loadtxt(lines[header + 1:], delimiter=",")
    assert len(data) == 61
    # solution clears the bump apex
    assert np.max(data[:, 1]) >= 0.8 - 1e-8
    # lambda > 0 is a projected Newton solve
    code, out = run_cli(OBST_ARGS + ["--set", "lambda=1"], capsys)
    assert code == 0
    iters = next(ln for ln in out.splitlines()
                 if ln.startswith("# iterations="))
    assert int(iters.split("=")[1]) >= 1


def test_obstacle_on_hyperbolic_m3(capsys):
    # weights up to sinh(10)^2: the absolute stationarity gate ended this
    # solve in SweepLimitError after 200 steps at 1.7e-7, with updates of
    # 1e-16; the scale-free gate passes the sweep's exact start (no
    # obstacle, theta_left = 0) before any Newton step
    code, out = run_cli(["obstacle", "--set", "manifold=hyperbolic",
                         "--set", "m=3", "--set", "lambda=1",
                         "--set", "r_min=1", "--set", "r_max=10"], capsys)
    assert code == 0
    iters = next(ln for ln in out.splitlines()
                 if ln.startswith("# iterations="))
    assert iters == "# iterations=0"


def test_obstacle_at_a_large_boundary_value(capsys):
    # theta_right = 1e6 at lambda = 1: the absolute Newton stop ran this
    # out of steps (last update 1.164e-10); the sweep start is exact and
    # passes the gate before any step, as at theta_right = 1 (the relative
    # stop confirmed it in one step)
    argv = ["obstacle", "--set", "manifold=euclidean", "--set", "m=2",
            "--set", "p=3", "--set", "lambda=1", "--set", "r_min=1",
            "--set", "r_max=10"]
    for theta in ("1", "1e6"):
        code, out = run_cli(argv + ["--set", f"theta_right={theta}"], capsys)
        assert code == 0
        assert "# iterations=0" in out.splitlines()


def test_obstacle_bad_shape(capsys):
    # a bump of width 0 used to divide by zero and solve with no obstacle
    # (exit 0); the other widths and a nan height are refused as well
    argv = ["obstacle", "--set", "manifold=euclidean", "--set", "m=3",
            "--set", "r_min=1", "--set", "r_max=2", "--set"]
    for shape in ("spike", "bump:height", "bump:height=0.5,center=1.5,width=0",
                  "bump:height=0.5,center=1.5,width=-0.1",
                  "bump:height=0.5,center=1.5,width=inf",
                  "bump:height=nan,center=1.5,width=0.1"):
        assert cli.main(argv + [f"obstacle={shape}"]) == 1, shape
        assert "config key 'obstacle'" in capsys.readouterr().err
    # a square past the largest double is the -inf (no constraint) the
    # parabola tends to: no overflow warning (pytest makes it an error)
    assert cli.main(argv + ["obstacle=bump:height=1e308,center=1.5,"
                            "width=1e-308", "--out", os.devnull]) == 0


# ---------------------------------------------------------------------------
# tabulated warpings are never extrapolated


SHORT_TABLE_ERROR = r"radius beyond tabulated range \(max 10\.0\)"


def write_short_table(tmp_path):
    """The plane's warping g(r) = r, tabulated up to r = 10 only."""
    r = np.linspace(0.01, 10.0, 200)
    path = tmp_path / "short.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    return path


def test_library_refuses_radii_past_the_table(tmp_path):
    M = core.load_manifold_csv(write_short_table(tmp_path), m=2)
    with pytest.raises(core.DomainError,
                       match=SHORT_TABLE_ERROR + ", got r=16$"):
        obstacle.make_problem(M, 2.0, 0.0, np.linspace(1.0, 16.0, 31))
    with pytest.raises(core.DomainError,
                       match=SHORT_TABLE_ERROR + ", got r=20$"):
        radial.evans_for_triple(M, core.p_laplacian_operator(2.0),
                                core.zero_potential(), R=1.0, R1=2.0,
                                eps=0.1, R_max=20.0)


@pytest.mark.parametrize("argv", [
    ["khasminskii", "--set", "K_radius=1", "--set", "Omega_radius=2",
     "--set", "radii=4,8,16,32"],
    # inside the table, but the classifier reads it to R_MAX
    ["khasminskii", "--set", "K_radius=1", "--set", "Omega_radius=2",
     "--set", "radii=4,5,6,8"],
    ["obstacle", "--set", "r_min=1", "--set", "r_max=16"],
])
def test_cli_refuses_radii_past_the_table(argv, tmp_path, capsys):
    table = write_short_table(tmp_path)
    code = cli.main(argv + ["--set", f"manifold=table:{table}",
                            "--set", "m=2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert re.search(SHORT_TABLE_ERROR, captured.err)


# ---------------------------------------------------------------------------
# weights whose span passes a double are refused by name


EVANS_STEEP = ["evans", "--set", "m=2",
               "--set", "potential=linear-power:p=2,lambda=1",
               "--set", "R=1", "--set", "R1=2", "--set", "eps=0.1"]
KHAS_STEEP = ["khasminskii", "--set", "m=2", "--set", "K_radius=1",
              "--set", "Omega_radius=2"]
OBSTACLE_STEEP = ["obstacle", "--set", "m=2", "--set", "r_min=1"]


@pytest.mark.parametrize("argv,alpha,where", [
    (OBSTACLE_STEEP + ["--set", "r_max=12"], "3",
     "spans 1729.48, from 1 at r=1 to 1730.48 at r=12"),
    (OBSTACLE_STEEP + ["--set", "r_max=25"], "2.2",
     "spans 1192, from 1 at r=1 to 1193 at r=25"),
    (KHAS_STEEP, "2.2", "spans 2050.47, from 1 at r=1 to 2051.47 at r=32"),
    (KHAS_STEEP, "3", "spans 32770.5, from 1 at r=1 to 32771.5 at r=32"),
])
def test_cli_refuses_overflowing_weights(argv, alpha, where, capsys):
    # g^(m-1) = r e^{r^alpha} spans more than a double over the run's
    # grid, so its least weight underflows against its largest; the error
    # names the span of (m-1) log g and both its ends, and nothing
    # overflows
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(argv + ["--set",
                                f"manifold=power-exp:alpha={alpha}"])
    err = capsys.readouterr().err
    assert code == 1
    assert re.search(r"\(m-1\) log g " + where, err)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("alpha,rmax", [("3", "12"), ("2.2", "25")])
def test_cli_evans_on_overflowing_warpings_has_no_exhaustion(alpha, rmax,
                                                            capsys):
    # KL fails on r e^{r^alpha} at p = 2, so the Liouville test refuses
    # the run before any weight past the largest double is formed
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code, out = run_cli(EVANS_STEEP + [
            "--rmax", rmax, "--set", f"manifold=power-exp:alpha={alpha}"],
            capsys)
    assert code == 4
    assert out.splitlines()[:2] == ["# command=evans",
                                    "# status=no_exhaustion"]
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_a_log_weight_past_a_double_is_refused_by_name(capsys):
    # log g = log r + r^1000 is inf past r ~ 2.03: the volume ratio of a
    # potential without a kink names it (exit 1), where it subtracted inf
    # from inf and refused r=nan; at B = 0 the profile's last sample
    # underflows, as before, and no overflow warns
    manifold = ["--set", "manifold=power-exp:alpha=1e3"]
    code = _no_runtime_warning(lambda: cli.main(
        ["classify", *manifold,
         "--set", "potential=linear-power:p=2,lambda=1"]))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: the volume ratio needs a finite (m-1) "
                            "log g, got inf at r=2.05353\n")
    for argv, exit_code in ((["classify"], 0),
                            (["evans", "--set", "R=1", "--set", "R1=2",
                              "--set", "eps=0.1"], 4)):
        code = _no_runtime_warning(lambda: cli.main(argv + manifold))
        captured = capsys.readouterr()
        assert code == exit_code
        assert "tail_underflow" in captured.out
        assert captured.err == ""


@pytest.mark.parametrize("argv,where", [
    (["khasminskii", "--set", "K_radius=1", "--set", "Omega_radius=2"],
     "2.04479"),
    (["obstacle", "--set", "r_min=1", "--set", "r_max=3"], "2.04234"),
], ids=["khasminskii", "obstacle"])
def test_a_log_weight_past_a_double_is_one_stderr_line_under_w_error(
        argv, where):
    # the discrete problem names the least radius of a non-finite L
    # before it forms L - max L, which would be inf - inf: under -W error
    # a warning there would be the error
    proc = run_fresh(["-W", "error", "-m", "modelpot.cli", *argv,
                      "--set", "manifold=power-exp:alpha=1e3"])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: the weights need a finite (m-1) log g, "
                           f"got inf at r={where}\n")


# ---------------------------------------------------------------------------
# weights past a double run, since only their ratios are formed


def _no_runtime_warning(run):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = run()
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    return result


def _meta_and_rows(out):
    lines = out.splitlines()
    meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
    rows = [ln for ln in lines if not ln.startswith("#")][1:]
    return meta, np.array([[float(x) for x in ln.split(",")] for ln in rows])


def test_evans_runs_where_the_weight_passes_a_double(capsys):
    # (m-1) log g = log r + r^3 passes log(DBL_MAX) near r = 8.9; KL holds
    # at p = 3, and the windows weigh their nodes against their first, so
    # the march runs on past it
    code, out = _no_runtime_warning(lambda: run_cli(
        ["evans", "--set", "manifold=power-exp:alpha=3", "--set", "m=2",
         "--set", "operator=p-laplacian:p=3",
         "--set", "potential=linear-power:p=3,lambda=1", "--set", "R=1",
         "--set", "R1=2", "--set", "eps=0.1", "--rmax", "20"], capsys))
    assert code == 0
    meta, rows = _meta_and_rows(out)
    assert meta["status"] == "complete"
    assert rows[0, 0] == 1.0 and rows[-1, 0] == 20.0
    assert np.all(np.diff(rows[:, 1]) > 0)


@pytest.mark.parametrize("lam,exit_code,verdict", [
    ("0", 4, "HLimitNonzero"), ("1", 0, "PotentialBuilt")])
def test_khasminskii_runs_where_the_weight_passes_a_double(lam, exit_code,
                                                          verdict, capsys):
    # sinh(r)^2 passes the largest double near r = 355; on [390, 400]
    # hyperbolic m=3 is non-parabolic, and KL holds at lambda = 1
    code, out = _no_runtime_warning(lambda: run_cli(
        ["khasminskii", "--set", "manifold=hyperbolic", "--set", "m=3",
         "--set", "K_radius=390", "--set", "Omega_radius=391",
         "--set", "radii=392,394,396,400", "--set", f"lambda={lam}"],
        capsys))
    assert code == exit_code
    assert _meta_and_rows(out)[0]["verdict"] == verdict


@pytest.mark.parametrize("lam", ["0", "1"])
def test_obstacle_runs_where_the_weight_passes_a_double(lam, capsys):
    # the energy with the absolute weights passes a double, and reads inf;
    # the KKT measures are scale-free
    code, out = _no_runtime_warning(lambda: run_cli(
        ["obstacle", "--set", "manifold=hyperbolic", "--set", "m=3",
         "--set", "r_min=390", "--set", "r_max=400", "--set", f"lambda={lam}",
         "--set", "obstacle=bump:height=0.8,center=395,width=2"], capsys))
    assert code == 0
    meta, rows = _meta_and_rows(out)
    assert meta["energy"] == "inf"
    assert float(meta["stationarity"]) <= 1e-10
    assert np.max(rows[:, 1]) >= 0.8 and rows[-1, 1] == 1.0


def test_obstacle_kkt_measures_are_scale_free(capsys):
    # the measures were absolute: 3.03e-14 at theta_right = 1, 0.0318 at
    # 1e6, and at 1e300 the fluxes of p = 3 passed a double and the solve
    # failed on NaN; the gate reads the profile in units of max|u|
    argv = ["obstacle", "--set", "manifold=euclidean", "--set", "m=2",
            "--set", "p=3", "--set", "lambda=1", "--set", "r_min=1",
            "--set", "r_max=10"]
    for theta in ("1", "1e6", "1e300"):
        code, out = _no_runtime_warning(lambda: run_cli(
            argv + ["--set", f"theta_right={theta}"], capsys))
        assert code == 0
        meta = _meta_and_rows(out)[0]
        assert 0.0 <= float(meta["stationarity"]) <= 1e-10
        assert float(meta["obstacle_violation"]) == 0.0
        assert abs(float(meta["min_slackness"])) <= 1e-10


@pytest.mark.parametrize("theta", ["1e103", "1e110", "1e300"])
def test_obstacle_newton_solves_data_past_a_double(theta, capsys):
    # theta_right = theta under a bump of height theta/2: Newton formed
    # |u|^p of the data itself, which warned of overflow at 1e103, ran out
    # of steps at 1e110 and met a non-finite right-hand side at 1e300; it
    # solves for the data over a power of two near their largest, in 6
    # steps at each
    code, out = _no_runtime_warning(lambda: run_cli(
        ["obstacle", "--set", "manifold=euclidean", "--set", "m=2",
         "--set", "p=3", "--set", "lambda=1", "--set", "r_min=1",
         "--set", "r_max=10", "--set", f"theta_right={theta}",
         "--set", f"obstacle=bump:height={float(theta) / 2!r},center=5,"
         "width=2"], capsys))
    assert code == 0
    meta, rows = _meta_and_rows(out)
    assert meta["iterations"] == "6"
    assert float(meta["stationarity"]) <= 1e-10
    assert rows[-1, 1] == float(theta)


# ---------------------------------------------------------------------------
# validation of what a command is given


@pytest.mark.parametrize("argv,message", [
    (KHAS_ARGS + ["--set", "m=2", "--set", "nodes_per_stage=1"],
     "nodes_per_stage must be >= 2, got 1"),
])
def test_node_counts_below_two_are_refused(argv, message, capsys):
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["classify", "--set", "manifold=euclidean",
      "--set", "operater=p-laplacian:p=3"], "operater"),
    (["classify", "--set", "manifold=euclidean", "--set", "tol=1e-3"], "tol"),
    (EVANS_ARGS + ["--set", "tol=1e-3"], "tol"),
    (KHAS_ARGS + ["--set", "m=2", "--rmax", "50"], "rmax"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "tol=1e-3"], "tol"),
    (OBST_ARGS + ["--set", "tol=1e-3"], "tol"),
    (OBST_ARGS + ["--rmax", "50"], "rmax"),
    # evans has no resolution knob: its march lays NODES_PER_WINDOW nodes
    (EVANS_ARGS + ["--set", "nodes_per_window=64"], "nodes_per_window"),
    (EVANS_ARGS + ["--set", "nodes_per_window=1"], "nodes_per_window"),
])
def test_keys_the_command_does_not_read_are_refused(argv, key, capsys):
    assert cli.main(argv) == 1
    assert f"config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["classify", "--set", "manifold=euclidean", "--rmax", "inf"], "rmax"),
    (["classify", "--set", "manifold=euclidean", "--rmax", "1e400"], "rmax"),
    # an infinite march, not an error, before the check
    (EVANS_ARGS + ["--rmax", "inf"], "rmax"),
    (EVANS_ARGS + ["--set", "R1=nan"], "R1"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "eps=nan"], "eps"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "radii=4,8,16,inf"], "radii"),
    (OBST_ARGS + ["--set", "r_max=inf"], "r_max"),
])
def test_non_finite_numbers_are_refused_by_name(argv, key, capsys):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config key '{key}': not a finite number" in captured.err


@pytest.mark.parametrize("argv,named", [
    # each used to run: power-exp:alpha=inf is NonParabolic (exit 0),
    # superlinear:q=inf KL_Holds (exit 0), lambda=inf an unnamed window
    # underflow, p=inf "phi must be strictly increasing" after two
    # RuntimeWarnings, and a bump key the bump does not read was ignored
    (["classify", "--set", "manifold=power-exp:alpha=1e400"],
     "manifold tag 'power-exp:alpha=1e400': key 'alpha' needs a finite "
     "number, got '1e400'"),
    (["classify", "--set", "manifold=euclidean",
      "--set", "potential=superlinear:q=1e400"],
     "potential tag 'superlinear:q=1e400': key 'q' needs a finite number, "
     "got '1e400'"),
    (EVANS_ARGS + ["--set", "potential=linear-power:p=2,lambda=1e400"],
     "potential tag 'linear-power:p=2,lambda=1e400': key 'lambda' needs a "
     "finite number, got '1e400'"),
    (["classify", "--set", "manifold=euclidean",
      "--set", "operator=p-laplacian:p=1e400"],
     "operator tag 'p-laplacian:p=1e400': key 'p' needs a finite number, "
     "got '1e400'"),
    # p = 1 used to divide by zero in the operator's constants
    (["classify", "--set", "manifold=euclidean",
      "--set", "operator=p-laplacian:p=1"],
     "exponent p must be > 1, got p=1"),
    (OBST_ARGS + ["--set", "obstacle=bump:height=0.8,center=1.5,width=0.1,"
                           "sharpness=3"],
     "config key 'obstacle': obstacle tag 'bump:height=0.8,center=1.5,"
     "width=0.1,sharpness=3': bump takes the keys ['height', 'center', "
     "'width'] in that order, got ['height', 'center', 'width', "
     "'sharpness']"),
    # a --set item, a number and an integer that do not read
    (["classify", "--set", "manifold"],
     "config key 'manifold': --set needs key=value"),
    (EVANS_ARGS + ["--set", "eps=small"],
     "config key 'eps': not a number: 'small'"),
    (["classify", "--set", "manifold=euclidean", "--set", "m=2.5"],
     "config key 'm': not an integer: '2.5'"),
    # refusals that name the values they refuse
    (["classify", "--set", "manifold=euclidean", "--set", "rmax=1e-3"],
     "test_L1_at_infinity requires 0 < R0 < r_max < inf, got R0=1.0, "
     "r_max=0.001"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "p=1.05"],
     "exponent p must lie in [1.1, 10], got p=1.05"),
    (OBST_ARGS + ["--set", "r_min=2", "--set", "r_max=1"],
     "grid must be strictly increasing: node 0 at r=2.0, node 1 at "
     "r=1.977"),
    (["classify", "--set", "manifold=euclidean", "--set", "m=1"],
     "dimension m must be >= 2, got m=1"),
    (["classify", "--set", "manifold=power-exp:alpha=0"],
     "power-exp preset requires alpha > 0, got alpha=0"),
    (["classify", "--set", "manifold=euclidean",
      "--set", "operator=perturbed:p=6"],
     "perturbed preset supported for p in (1.25, 5], got p=6"),
    (EVANS_ARGS + ["--set", "potential=linear-power:p=2,lambda=-1"],
     "lambda must be >= 0, got lambda=-1"),
    (EVANS_ARGS + ["--set", "potential=plateau:T=0,p=2"],
     "plateau width T must be positive, got T=0"),
    (EVANS_ARGS + ["--set", "potential=superlinear:q=0"],
     "superlinear exponent q must be positive, got q=0"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "radii=4,8,16"],
     "need at least 4 exhaustion radii, got 3"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "radii=4,8,8,32"],
     "exhaustion radii must be increasing: radius 1 is 8, radius 2 is 8"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "K_radius=3"],
     "need 0 < K_radius < Omega_radius < first radius, got K_radius=3, "
     "Omega_radius=2, first radius 4"),
    # n_nodes is refused by its key: -5 used to exit with numpy's "Number
    # of samples, -5, must be non-negative."
    (OBST_ARGS + ["--set", "n_nodes=2"],
     "config key 'n_nodes': must be >= 3, got 2"),
    (OBST_ARGS + ["--set", "n_nodes=-5"],
     "config key 'n_nodes': must be >= 3, got -5"),
    (["evans", "--set", "manifold=euclidean", "--set", "R=1",
      "--set", "R1=2", "--set", "eps=0.1", "--rmax", "2"],
     "need 0 < R < R1 < R_max < inf, got R=1, R1=2 and R_max=2"),
])
def test_tags_are_refused_by_key_and_value(argv, named, capsys):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("argv", [
    ["classify", "--set", "manifold=euclidean", "--set", "m=2"],
    EVANS_ARGS,
    KHAS_ARGS + ["--set", "m=2"],
    OBST_ARGS,
])
def test_byte_identical_reruns(argv, tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(out1)]) == \
        cli.main(argv + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv,code", [
    (["classify", "--set", "manifold=euclidean", "--set", "m=2"], 0),
    (EVANS_ARGS, 0),
    (KHAS_ARGS + ["--set", "m=2"], 0),
    (OBST_ARGS, 0),
])
def test_options_may_come_before_the_command(argv, code, tmp_path):
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert cli.main(argv[1:] + [argv[0], "--out", str(before)]) == code
    assert cli.main(argv + ["--out", str(after)]) == code
    assert before.read_bytes() == after.read_bytes()


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate", "--set", "manifold=euclidean"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "frobnicate" in err


def test_one_help_lists_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(cli.COMMANDS) + "}" in out
    for option in ("--config", "--out", "--rmax", "--set"):
        assert option in out
    assert "--tol" not in out


def test_tol_option_is_a_usage_error(capsys):
    # no command reads a tolerance: --tol is argparse's usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(OBST_ARGS + ["--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the profile writer


@pytest.mark.parametrize("r,values", [
    ([-0.0, 5e-324, 1e308, math.nan, math.inf, 2.0],
     [2.0, -math.inf, -0.0, 1 / 3, 5e-324, math.nan]),
    (np.geomspace(1.0, 1e4, 257), np.sqrt(np.geomspace(1.0, 1e4, 257))),
    ([], []),
])
def test_profile_csv_is_the_per_row_format(r, values):
    rows = [f"{a:.12g},{b:.12g}" for a, b in zip(r, values)]
    expected = "\n".join(["# command=evans", "# status=complete", "r,w"]
                         + rows) + "\n"
    assert cli._profile_csv(["command=evans", "status=complete"], "w",
                            r, values) == expected


# ---------------------------------------------------------------------------
# no command loads scipy


SCIPY_PARTS = ("scipy", "scipy.integrate", "scipy.interpolate",
               "scipy.linalg")
# prints the SCIPY_PARTS in sys.modules after `import modelpot`, then the
# exit code and the SCIPY_PARTS after each `cli.main(argv)`, in turn
LOADED_SCRIPT = f"""
import json, os, sys
import modelpot
def loaded():
    return [name for name in {SCIPY_PARTS!r} if name in sys.modules]
seen = [loaded()]
from modelpot import cli
for argv in json.loads(sys.argv[1]):
    seen.append([cli.main(argv + ["--out", os.devnull])] + loaded())
print(json.dumps(seen))
"""


def test_no_command_loads_scipy(tmp_path):
    # a table is a numpy monotone cubic: classify on one loads no scipy
    r = np.linspace(0.01, 100.0, 400)
    table = tmp_path / "plane.csv"
    np.savetxt(table, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    plane = ["--set", "manifold=euclidean", "--set", "m=2"]
    linear = ["--set", "potential=linear-power:p=2,lambda=1"]
    evans = ["evans", *plane, "--set", "R=1", "--set", "R1=2",
             "--set", "eps=0.1", "--rmax", "40"]
    runs = [["classify", *plane], ["classify", *plane, *linear],
            evans, evans + linear,
            ["classify", "--set", f"manifold=table:{table}", "--rmax", "50"],
            ["obstacle", *plane, "--set", "r_min=1", "--set", "r_max=10"],
            ["khasminskii", *plane, "--set", "K_radius=1",
             "--set", "Omega_radius=2"],
            ["khasminskii", *plane, "--set", "K_radius=1",
             "--set", "Omega_radius=2", "--set", "lambda=1"],
            ["obstacle", *plane, "--set", "r_min=1", "--set", "r_max=10",
             "--set", "lambda=1"]]
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", LOADED_SCRIPT,
                           json.dumps(runs)], env=env, capture_output=True,
                          text=True, check=True)
    seen = json.loads(proc.stdout)
    # the lambda = 0 obstacle run is an exact majorant, khasminskii makes
    # no solve at any lambda, and the lambda > 0 Newton step eliminates in
    # Python: no run loads scipy
    assert seen == [[], [0], [0], [0], [0], [0], [0], [0], [0], [0]]
