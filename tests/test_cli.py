import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import cpproj.driver
from cpproj.cli import InputError, load_problem, render_json, run
from cpproj.driver import K_MIN, DriverSettings
from cpproj.relaxation import ProblemSpec, map_solution, solve_relaxation
from test_acceptance import K23

CP2 = [[2.0, 1.0], [1.0, 2.0]]

C4 = [
    [2.0, 1.0, 1.0, 1.0],
    [1.0, 2.0, 2.0, 1.0],
    [1.0, 2.0, 6.0, 5.0],
    [1.0, 1.0, 5.0, 6.0],
]

# 1.8 I + adj(C5): doubly nonnegative, and not CP, as <Horn, CYCLE5> = -1
CYCLE5 = [
    [1.8, 1.0, 0.0, 0.0, 1.0],
    [1.0, 1.8, 1.0, 0.0, 0.0],
    [0.0, 1.0, 1.8, 1.0, 0.0],
    [0.0, 0.0, 1.0, 1.8, 1.0],
    [1.0, 0.0, 0.0, 1.0, 1.8],
]

# the reference instance two-c4: 5x5, spectral norm, two equalities and one
# inequality; its gamma moves in the 8th digit between solver tolerances
# 1e-8 and 1e-7
S5 = [
    [1.0, -1.0, 1.0, -1.0, 1.0],
    [-1.0, 2.0, -2.0, 2.0, -2.0],
    [1.0, -2.0, 3.0, -3.0, 3.0],
    [-1.0, 2.0, -3.0, 4.0, -4.0],
    [1.0, -2.0, 3.0, -4.0, 5.0],
]
P5 = [
    [0.0, 1.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 1.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 1.0, 0.0, 1.0],
    [0.0, 1.0, 0.0, 1.0, 0.0],
]
TWO_C4 = {
    "n": 5,
    "C": [
        [2.0, 1.0, 1.0, 1.0, 2.0],
        [1.0, 2.0, 2.0, 1.0, 1.0],
        [1.0, 2.0, 6.0, 5.0, 1.0],
        [1.0, 1.0, 5.0, 6.0, 2.0],
        [2.0, 1.0, 1.0, 2.0, 3.0],
    ],
    "constraints": [
        {"A": np.eye(5).tolist(), "b": 10.0, "kind": "eq"},
        {"A": S5, "b": 12.0, "kind": "eq"},
        {"A": P5, "b": -2.0, "kind": "ge"},
    ],
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(argv, capsys):
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_projection_schema_and_exit_code(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    code, out, err = run_cli(["--norm", "fro", path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "status", "gamma", "X", "decomposition",
        "k_used", "certificate", "residuals",
    ]
    assert doc["status"] == "projected"
    assert abs(doc["gamma"]) <= 1e-6
    npt.assert_allclose(np.array(doc["X"]), np.array(CP2), atol=1e-5)
    F = np.array(doc["decomposition"]["factors"])
    npt.assert_allclose(F.T @ F, np.array(CP2), atol=1e-5)
    assert F.min() >= 0.0
    assert doc["certificate"] is None
    assert doc["residuals"]["reconstruction"] <= 1e-5


def test_ge_constraint_is_enforced(tmp_path, capsys):
    doc = {
        "n": 2,
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "constraints": [{"A": [[1.0, 0.0], [0.0, 1.0]], "b": 3.0, "kind": "ge"}],
    }
    path = write_problem(tmp_path, doc)
    code, out, _ = run_cli(["--norm", "fro", path], capsys)
    assert code == 0
    res = json.loads(out)
    X = np.array(res["X"])
    assert np.trace(X) >= 3.0 - 1e-6
    # nearest trace-3 matrix to the identity is 1.5 I
    npt.assert_allclose(X, 1.5 * np.eye(2), atol=1e-4)
    assert res["gamma"] == pytest.approx(np.sqrt(0.5), abs=1e-4)


def test_infeasible_gives_exit_10_and_certificate(tmp_path, capsys):
    doc = {
        "n": 2,
        "C": CP2,
        "constraints": [{"A": [[-1.0, 0.0], [0.0, -1.0]], "b": 1.0, "kind": "ge"}],
    }
    path = write_problem(tmp_path, doc)
    code, out, err = run_cli(["--norm", "fro", "--log", "summary", path], capsys)
    assert code == 10
    res = json.loads(out)
    assert res["status"] == "infeasible"
    assert res["k_used"] == 1
    assert err == "cpproj: infeasible: certified at the DNN relaxation\n"
    assert res["gamma"] is None
    assert res["decomposition"] is None
    # order 1 has no moment equalities, and the one constraint is an
    # inequality, so the whole Farkas pair sits on the cone rows
    assert res["certificate"]["dual_equality"] == []
    assert res["certificate"]["dual_cone"]


def test_exhausted_hierarchy_gives_exit_20(tmp_path, capsys, monkeypatch):
    # the cycle matrix is its own DNN projection, but the Horn matrix H has
    # <H, CYCLE5> = -1 and <H, Y> >= 0 for every CP Y, so CYCLE5 lies at least
    # 1 / ||H||_F = 0.2 from the CP cone.  Order 2 certifies its projection,
    # and no input is known that order 2 leaves open, so every order here is
    # CYCLE5's DNN solve: its X keeps the Horn floor of 0.2, far above the
    # factorization budget.  Capping at 2 leaves the question open, and the
    # emitted gamma is that order-2 lower bound
    cycle = ProblemSpec(np.array(CYCLE5), "fro")
    prog, csol = solve_relaxation(cycle, 1, DriverSettings().solver)
    assert csol.status == "optimal"
    monkeypatch.setattr(cpproj.driver, "solve_relaxation", lambda spec, k, settings: (prog, csol))
    path = write_problem(tmp_path, {"n": 5, "C": CYCLE5})
    code, out, _ = run_cli(["--norm", "fro", "--kmax", "2", path], capsys)
    assert code == 20
    res = json.loads(out)
    assert res["status"] == "inconclusive"
    assert res["decomposition"] is None
    assert res["k_used"] == 2
    assert res["gamma"] == json.loads(render_json(map_solution(prog, csol).gamma))
    npt.assert_allclose(res["X"], CYCLE5, atol=1e-6)


def test_factorization_certificate_reports_no_truncation(tmp_path, capsys):
    # C4 is CP: the direct factorization of its DNN projection certifies it
    # before any moment relaxation; the factorization is the only route, so
    # neither the document nor the summary names a truncation order
    path = write_problem(tmp_path, {"n": 4, "C": C4})
    code, out, err = run_cli(["--norm", "one", "--log", "summary", path], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["status"] == "projected"
    assert res["k_used"] == 1
    assert "t_used" not in res
    assert "at the DNN relaxation, " in err
    assert "truncation" not in err


def test_check_mode_accepts_cp_matrix(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    code, out, _ = run_cli(["--check", path], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["is_cp"] is True
    F = np.array(res["decomposition"]["factors"])
    npt.assert_allclose(F.T @ F, np.array(CP2), atol=1e-4)


def test_check_mode_rejects_negative_entry(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": [[1.0, -0.5], [-0.5, 1.0]]})
    code, out, _ = run_cli(["--check", path], capsys)
    assert code == 0
    res = json.loads(out)
    assert res["is_cp"] is False
    assert res["distance"] >= 0.5
    assert res["decomposition"] is None


def test_norm_flag_is_required_without_check(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    code, out, err = run_cli([path], capsys)
    assert code == 1
    assert out == ""
    assert "--norm" in err


def test_check_mode_rejects_norm_flag(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    code, _, err = run_cli(["--check", "--norm", "one", path], capsys)
    assert code == 1
    assert "Frobenius" in err


def test_check_mode_rejects_constraints(tmp_path, capsys):
    doc = {
        "n": 2,
        "C": CP2,
        "constraints": [{"A": [[1.0, 0.0], [0.0, 1.0]], "b": 1.0, "kind": "eq"}],
    }
    path = write_problem(tmp_path, doc)
    code, _, err = run_cli(["--check", path], capsys)
    assert code == 1
    assert "constraints" in err


def test_kmax_below_the_driver_floor_is_a_usage_error(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    code, out, err = run_cli(["--norm", "fro", "--kmax", str(K_MIN - 1), path], capsys)
    assert code == 1
    assert out == ""
    # the CLI reports the settings' own rule
    with pytest.raises(ValueError, match=f"k_max must be at least {K_MIN}"):
        DriverSettings(k_max=K_MIN - 1)
    assert err == f"cpproj: error: k_max must be at least {K_MIN}\n"


def test_missing_file_is_a_usage_error(capsys):
    code, _, err = run_cli(["--norm", "fro", "/no/such/file.json"], capsys)
    assert code == 1
    assert "cannot read" in err


def test_malformed_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,\n  "C": [[1.0, 0.0],\n')
    code, _, err = run_cli(["--norm", "fro", str(path)], capsys)
    assert code == 1
    assert "line 3" in err


def test_asymmetric_matrix_is_rejected(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": [[1.0, 0.3], [0.2, 1.0]]})
    code, _, err = run_cli(["--norm", "fro", path], capsys)
    assert code == 1
    assert "not symmetric" in err


@pytest.mark.parametrize(
    "field, value, message",
    [("C[0][1]", float("nan"), "must be finite"),
     ("constraints[0].A[1][1]", float("inf"), "must be finite"),
     ("constraints[0].b", -float("inf"), "expected a finite number")],
    ids=["C", "A", "b"],
)
def test_non_finite_input_names_the_field(field, value, message, tmp_path, capsys):
    # json reads NaN, Infinity and -Infinity as floats, so the CLI must
    # reject them itself
    C = [[2.0, 1.0], [1.0, 2.0]]
    con = {"A": [[1.0, 0.0], [0.0, 1.0]], "b": 4.0, "kind": "ge"}
    if field == "C[0][1]":
        C[0][1] = C[1][0] = value
    elif field == "constraints[0].b":
        con["b"] = value
    else:
        con["A"][1][1] = value
    path = write_problem(tmp_path, {"n": 2, "C": C, "constraints": [con]})
    text = Path(path).read_text()
    assert "NaN" in text or "Infinity" in text
    code, out, err = run_cli(["--norm", "fro", path], capsys)
    assert code == 1
    assert out == ""
    assert f"{field}: {message}" in err


def test_rounding_asymmetry_is_judged_relative_to_the_entries():
    # an asymmetry of 1e-11 on entries near 1e3 is 1e-14 relative: the CLI
    # accepts it, as ProblemSpec does
    C = [[1000.0, 999.0], [999.0 + 1e-11, 1001.0]]
    assert C[1][0] != C[0][1]
    A = [[1.0, 0.0], [0.0, 1.0]]
    doc = {"n": 2, "C": C, "constraints": [{"A": A, "b": 2000.0, "kind": "ge"}]}
    C_in, constraints = load_problem(json.dumps(doc))
    npt.assert_array_equal(C_in, C)
    ProblemSpec(C_in, "fro", constraints)
    doc["constraints"][0]["A"] = [[1.0, 1e-11], [0.0, 1.0]]
    with pytest.raises(InputError, match=r"constraints\[0\]\.A: .*not symmetric"):
        load_problem(json.dumps(doc))


def test_bad_constraint_kind_names_the_field(tmp_path, capsys):
    doc = {
        "n": 2,
        "C": CP2,
        "constraints": [{"A": CP2, "b": 1.0, "kind": "le"}],
    }
    path = write_problem(tmp_path, doc)
    code, _, err = run_cli(["--norm", "fro", path], capsys)
    assert code == 1
    assert "constraints[0].kind" in err


def test_wrong_row_count_names_the_field(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 3, "C": CP2})
    code, _, err = run_cli(["--norm", "fro", path], capsys)
    assert code == 1
    assert "C" in err and "3 rows" in err


def test_unknown_top_level_field_is_rejected(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2, "norm": "fro"})
    code, _, err = run_cli(["--norm", "fro", path], capsys)
    assert code == 1
    assert "unknown field" in err


def test_reruns_are_byte_identical(tmp_path, capsys):
    doc = {
        "n": 2,
        "C": [[1.0, 0.0], [0.0, 1.0]],
        "constraints": [{"A": [[1.0, 0.0], [0.0, 1.0]], "b": 3.0, "kind": "ge"}],
    }
    path = write_problem(tmp_path, doc)
    _, first, _ = run_cli(["--norm", "fro", path], capsys)
    _, second, _ = run_cli(["--norm", "fro", path], capsys)
    assert first == second


def test_tol_defaults_to_the_driver_solver_tolerance(tmp_path, capsys):
    path = write_problem(tmp_path, TWO_C4)
    tol = DriverSettings().solver.tol
    code, default_out, _ = run_cli(["--norm", "two", path], capsys)
    assert code == 0
    _, explicit_out, _ = run_cli(["--norm", "two", path, "--tol", repr(tol)], capsys)
    assert default_out == explicit_out
    code, _, err = run_cli(["--norm", "two", path, "--tol", "0"], capsys)
    assert code == 1
    assert err == "cpproj: error: the tolerance must lie in (0, 1), got 0.0\n"


@pytest.mark.parametrize("tol", ["inf", "nan", "1", "1e3"])
def test_a_tolerance_outside_0_1_is_a_usage_error(tmp_path, capsys, tol):
    # at --tol inf the order-2 solve ended "optimal" at its starting point and
    # projected this non-CP input at gamma 0
    path = write_problem(tmp_path, {"n": 5, "C": CYCLE5})
    code, out, err = run_cli(["--norm", "fro", "--kmax", "2", path, "--tol", tol], capsys)
    assert code == 1
    assert out == ""
    assert "the tolerance must lie in (0, 1)" in err


def test_emitted_matrix_reparses_as_input(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    code, out, _ = run_cli(["--norm", "fro", path], capsys)
    assert code == 0
    emitted = json.loads(out)
    again = write_problem(tmp_path, {"n": 2, "C": emitted["X"]}, name="again.json")
    code, out, _ = run_cli(["--norm", "fro", again], capsys)
    assert code == 0
    assert json.loads(out)["gamma"] <= 1e-5


def test_output_flag_writes_file_and_keeps_stdout_clean(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    target = tmp_path / "result.json"
    code, out, _ = run_cli(["--norm", "fro", path, "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "projected"


def test_log_summary_goes_to_stderr_only(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    quiet_code, quiet_out, quiet_err = run_cli(["--norm", "fro", path], capsys)
    loud_code, loud_out, loud_err = run_cli(
        ["--norm", "fro", path, "--log", "summary"], capsys
    )
    assert quiet_code == loud_code == 0
    assert quiet_err == ""
    assert loud_out == quiet_out
    assert "projected" in loud_err


def test_log_trace_prints_events(tmp_path, capsys):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    code, _, err = run_cli(["--norm", "fro", path, "--log", "trace"], capsys)
    assert code == 0
    assert "cpproj: DNN relaxation: solver finished optimal" in err


def run_python(args):
    """Run a fresh Python process that imports cpproj from the source tree.

    The subprocess finds the package through the source tree next to this
    file, whether or not it is installed or on the caller's path.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_list = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_list))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point(tmp_path):
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    proc = run_python(["-m", "cpproj", "--norm", "fro", path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "projected"


def loads_optimize(code):
    """Whether scipy.optimize is loaded after `code` runs in a fresh process."""
    proc = run_python(["-c", code + "\nimport sys; print('scipy.optimize' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


def test_importing_the_cli_does_not_load_scipy_optimize():
    assert not loads_optimize("import cpproj, cpproj.cli")


def test_a_projection_that_needs_no_polish_does_not_load_scipy_optimize(tmp_path):
    # CP2 certifies from its rotated Eckart-Young factor, without a polish
    path = write_problem(tmp_path, {"n": 2, "C": CP2})
    out = tmp_path / "out.json"
    argv = [path, "--norm", "fro", "--output", str(out)]
    assert not loads_optimize(f"import cpproj.cli; assert cpproj.cli.run({argv!r}) == 0")
    assert json.loads(out.read_text())["status"] == "projected"


def test_polishing_whole_starts_does_not_load_scipy_optimize():
    # K_{2,3} certifies from its clique rows after a full polish, and rng21
    # draw 7 after a bound-stage polish and a full one: both stages run
    code = (
        "import numpy as np\n"
        "from cpproj.driver import DriverSettings, approximate\n"
        "from cpproj.relaxation import ProblemSpec\n"
        f"out = approximate(ProblemSpec(np.array({K23.tolist()!r}), 'one'))\n"
        "assert (out.status, out.decomposition.rank) == ('projected', 6)\n"
        "assert any('clique start (interior and bound polish' in e for e in out.events)\n"
        "rng = np.random.default_rng(21)\n"
        "for i in range(8):\n"
        "    G = rng.standard_normal((3 + i % 2, 3 + i % 2))\n"
        "out = approximate(ProblemSpec((G + G.T) / 2, 'one'), DriverSettings(k_max=3))\n"
        "assert out.status == 'projected'\n"
        "assert any('interior and bound polish' in e for e in out.events)"
    )
    assert not loads_optimize(code)


def test_load_problem_accepts_missing_constraints_key():
    C, cons = load_problem(json.dumps({"n": 2, "C": CP2}))
    npt.assert_array_equal(C, np.array(CP2))
    assert cons == ()


def test_load_problem_maps_ge_to_internal_inequality():
    doc = {
        "n": 2,
        "C": CP2,
        "constraints": [{"A": CP2, "b": 1.0, "kind": "ge"}],
    }
    _, cons = load_problem(json.dumps(doc))
    assert cons[0].kind == "ineq"


def test_load_problem_rejects_boolean_entries():
    with pytest.raises(InputError, match=r"C\[0\]\[1\]"):
        load_problem(json.dumps({"n": 2, "C": [[1.0, True], [True, 1.0]]}))


def test_render_json_uses_twelve_significant_digits():
    text = render_json({"value": 1.0 / 3.0})
    assert '"value": 0.333333333333' in text
    assert render_json(2) == "2"
    assert render_json(None) == "null"
    assert render_json([1.0, 0.5]) == "[1, 0.5]"
