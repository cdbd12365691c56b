"""End-to-end tests of the command-line front end: exit codes, CSV shape
and byte-level determinism."""

import math
import re
import warnings

import numpy as np
import pytest

from modelpot import cli, core, obstacle, radial


def run_cli(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


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
                       "partial_integral,slope"
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 1
    assert all(len(r) == len(cli.CSV_COLUMNS) for r in rows)
    assert {r[3] for r in rows} == {"Parabolic"}


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
    # B <= t^(p-1) at p = 6: a crossing of the blow-up threshold
    assert code == 3
    assert "blowup_radius" in out


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
    assert info.value.blowup_radius is None
    assert ("no admissible scale above the floor; observed annulus bound "
            f"{info.value.observed_sup:.6g}") in captured.err


def test_evans_no_exhaustion_exit_code(capsys):
    # R^3 is not 2-parabolic: int r^-2 converges and no profile is
    # unbounded
    code, out = run_cli(EVANS_ARGS + ["--set", "m=3"], capsys)
    assert code == 4
    lines = out.splitlines()
    assert lines[:2] == ["# command=evans", "# status=no_exhaustion"]
    assert lines[2].startswith("# partial_integral=0.0156234375")
    assert lines[3:] == ["# slope=-2", "r,w"]


def test_evans_inconclusive_exit_code(capsys):
    code, out = run_cli(
        EVANS_ARGS + ["--set", "operator=p-laplacian:p=1.95"], capsys)
    assert code == 2
    assert "# status=inconclusive\n" in out
    assert "# slope=-1.05263\n" in out


def test_evans_on_a_table(tmp_path, capsys):
    # a table of non-decreasing samples loads as monotone
    r = np.linspace(0.01, 100.0, 400)
    path = tmp_path / "plane.csv"
    np.savetxt(path, np.column_stack([r, r]), delimiter=",", header="r,g",
               comments="")
    code, out = run_cli(EVANS_ARGS + ["--set", f"manifold=table:{path}"],
                        capsys)
    assert code == 0
    assert "# sup_on_annulus=0.0866" in out
    assert "# status=complete" in out


def test_evans_refuses_a_potential_faster_than_the_operator(capsys):
    code = cli.main(
        EVANS_ARGS + ["--set", "potential=linear-power:p=3,lambda=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "grows like t**2, faster than t**(p-1) = t**1" in captured.err


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
    assert lines[:2] == ["# command=khasminskii", "# verdict=PotentialBuilt"]
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header] == "r,w"
    rep = obstacle.khasminskii_construct(
        core.manifold_from_tag("euclidean", 2), 2.0, 0.0, K_radius=1.0,
        Omega_radius=2.0, eps=0.1, exhaustion_radii=[4, 8, 16, 32])
    data = np.loadtxt(lines[header + 1:], delimiter=",")
    assert np.allclose(data[:, 0], rep.grid, rtol=1e-11, atol=0.0)
    assert np.allclose(data[:, 1], rep.w.values, rtol=1e-11, atol=1e-300)


def test_khasminskii_m3_exit_four(capsys):
    code, out = run_cli(KHAS_ARGS + ["--set", "m=3"], capsys)
    assert code == 4
    assert "# verdict=HLimitNonzero" in out


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
    iters = next(ln for ln in lines if ln.startswith("# iterations="))
    assert int(iters.split("=")[1]) >= 1
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header] == "r,u"
    data = np.loadtxt(lines[header + 1:], delimiter=",")
    assert len(data) == 61
    # solution clears the bump apex
    assert np.max(data[:, 1]) >= 0.8 - 1e-8


def test_obstacle_bad_shape(capsys):
    for shape in ("spike", "bump:height"):
        assert cli.main(["obstacle", "--set", "manifold=euclidean",
                         "--set", "m=3", "--set", "r_min=1",
                         "--set", "r_max=2",
                         "--set", f"obstacle={shape}"]) == 1
        assert "config key 'obstacle'" in capsys.readouterr().err


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
    with pytest.raises(core.DomainError, match=SHORT_TABLE_ERROR):
        obstacle.make_problem(M, 2.0, 0.0, np.linspace(1.0, 16.0, 31))
    with pytest.raises(core.DomainError, match=SHORT_TABLE_ERROR):
        radial.evans_for_triple(M, core.p_laplacian_operator(2.0),
                                core.zero_potential(), R=1.0, R1=2.0,
                                eps=0.1, R_max=20.0)


@pytest.mark.parametrize("argv", [
    ["khasminskii", "--set", "K_radius=1", "--set", "Omega_radius=2",
     "--set", "radii=4,8,16,32"],
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
# weights that overflow a double are refused by name


EVANS_STEEP = ["evans", "--set", "m=2",
               "--set", "potential=linear-power:p=2,lambda=1",
               "--set", "R=1", "--set", "R1=2", "--set", "eps=0.1"]
KHAS_STEEP = ["khasminskii", "--set", "m=2", "--set", "K_radius=1",
              "--set", "Omega_radius=2"]


@pytest.mark.parametrize("argv,alpha,where", [
    (EVANS_STEEP + ["--rmax", "12"], "3", "= 793.678 > .* at r=9.25"),
    (EVANS_STEEP + ["--rmax", "25"], "2.2", "= 731.221 > .* at r=20"),
    (KHAS_STEEP, "2.2", "= 2051.47 > .* at r=32"),
    (KHAS_STEEP, "3", "= 32771.5 > .* at r=32"),
])
def test_cli_refuses_overflowing_weights(argv, alpha, where, capsys):
    # g^(m-1) = r e^{r^alpha} passes the largest double inside the run;
    # the error names (m-1) log g and its radius, and nothing overflows
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = cli.main(argv + ["--set",
                                f"manifold=power-exp:alpha={alpha}"])
    err = capsys.readouterr().err
    assert code == 1
    assert re.search(r"\(m-1\) log g " + where, err)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# validation of what a command is given


@pytest.mark.parametrize("argv,message", [
    (EVANS_ARGS + ["--set", "nodes_per_window=1"],
     "nodes_per_window must be >= 2, got 1"),
    (EVANS_ARGS + ["--set", "nodes_per_window=0"],
     "nodes_per_window must be >= 2, got 0"),
    (KHAS_ARGS + ["--set", "m=2", "--set", "nodes_per_stage=1"],
     "nodes_per_stage must be >= 2, got 1"),
])
def test_node_counts_below_two_are_refused(argv, message, capsys):
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["classify", "--set", "manifold=euclidean",
      "--set", "operater=p-laplacian:p=3"], "operater"),
    (["classify", "--set", "manifold=euclidean", "--tol", "1e-3"], "tol"),
    (EVANS_ARGS + ["--tol", "1e-3"], "tol"),
    (KHAS_ARGS + ["--set", "m=2", "--rmax", "50"], "rmax"),
    (OBST_ARGS + ["--rmax", "50"], "rmax"),
])
def test_keys_the_command_does_not_read_are_refused(argv, key, capsys):
    assert cli.main(argv) == 1
    assert f"config key '{key}'" in capsys.readouterr().err


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
    for option in ("--config", "--out", "--tol", "--rmax", "--set"):
        assert option in out


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
