"""End-to-end tests of the command-line front end: exit codes, CSV shape
and byte-level determinism."""

import math

import numpy as np
import pytest

from modelpot import cli, criteria


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
    assert lines[1] == "manifold,p,potential,property,verdict,c," \
                       "partial_integral,slope"
    assert all("Parabolic" in ln for ln in lines[2:])


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
    assert all(len(r) == len(criteria.CSV_COLUMNS) for r in rows)
    assert {r[2] for r in rows} == {"linear-power:p=2;lambda=1"}
    assert {r[3] for r in rows} == {"KL_Holds"}


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
         "--set", "potential=plateau:T=0.001,p=6", "--set", "R=1",
         "--set", "R1=2", "--set", "eps=1e-12", "--rmax", "50"], capsys)
    assert code == 3
    assert "blowup_radius" in out


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
    assert "# verdict=PotentialBuilt" in out


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
    code, _ = run_cli(["obstacle", "--set", "manifold=euclidean",
                       "--set", "m=3", "--set", "r_min=1",
                       "--set", "r_max=2", "--set", "obstacle=spike"],
                      capsys)
    assert code == 1


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
