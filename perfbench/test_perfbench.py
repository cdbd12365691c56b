"""Self-tests of the benchmark.  They run the benchmark itself, so they are
slow (about four minutes for all three workloads) and are not part of the
repository's test suite:

    python3 -m pytest perfbench/test_perfbench.py -q
    python3 -m pytest perfbench/test_perfbench.py -q -k evans   # ~20 s
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import theory
from theory import Manifold, Potential, ZERO

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# work counts of the program, as opposed to times
COUNTS = ("core.quad.calls", "core.quad.integrand_evals",
          "core.volume_ratio.calls", "core.phi_inverse.calls",
          "core.phi_inverse_array.calls", "core.phi_inverse_array.elements",
          "criteria.test_L1_at_infinity.calls", "radial.volterra_apply.calls",
          "radial.solve_on_interval.calls", "radial.solve_on_interval.failed",
          "radial.solve_cauchy.calls", "obstacle.solve_obstacle.calls",
          "obstacle.solve_obstacle.failed", "obstacle.nodes_solved",
          "cli.main.calls", "cli.output_bytes", "failed_share")


def run_bench(cwd, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", ["classify", "evans", "staged"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = run_bench(ROOT, workload, 7, 1)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = (r["metrics"] for r in runs)
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert runs[0]["correct"] and runs[1]["correct"]
    # each layer is busy in its own workload only
    quad = first["core.quad.calls"]["value"]
    solves = first["obstacle.solve_obstacle.calls"]["value"]
    windows = first["radial.solve_on_interval.calls"]["value"]
    assert (quad > 0) == (workload == "classify")
    assert (solves > 0) == (workload == "staged")
    assert (windows > 0) == (workload == "evans")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "evans", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_theory_table():
    for m in (2, 3, 4):
        for p in (1.5, 2.0, 3.0, 4.0):
            M = Manifold("euclidean", m, "power")
            assert theory.parabolic(M, p) == (p >= m)
    assert not theory.parabolic(Manifold("hyperbolic", 2, "exp"), 3.0)
    assert theory.parabolic(Manifold("t", 2, "power", 0.5), 2.0)
    assert not theory.parabolic(Manifold("t", 2, "power", 2.0), 2.0)
    power_exp = Manifold("power-exp:alpha=3", 2, "power-exp", 3.0)
    positive = Potential("superlinear:q=1", 1.0)
    assert theory.classify_property(power_exp, 2.0, positive) == "KL_Fails"
    assert theory.classify_property(power_exp, 3.0, positive) == "KL_Holds"
    for p, q in ((2.0, 1.0), (2.0, 1.5), (3.0, 2.0), (3.0, 2.5)):
        expected = "NotKO_holds" if q <= p - 1 else "NotKO_fails"
        assert theory.ko_verdict(p, Potential("B", q)) == expected
    hyperbolic = Manifold("hyperbolic", 2, "exp")
    assert not theory.exhaustion_exists(hyperbolic, 2.0, ZERO)
    assert theory.exhaustion_exists(hyperbolic, 2.0,
                                    Potential("linear-power", 1.0))
