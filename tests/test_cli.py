import argparse
import importlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import zcurv

from conftest import DATA, GOLDEN
from zcurv import cli, exprparse
from zcurv.cartan import standard_cartan
from zcurv.cli import main
from zcurv.exprparse import eval_float, eval_jet, parse_expression
from zcurv.jets import Jet
from zcurv.numerics import (MAX_GRID_VALUES, GoursatData, solve_goursat,
                            write_csv)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def golden(name):
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize("name,argv", [
    ("derive_sl2_lsbis.txt",
     ["derive", "--cartan", str(DATA / "sl2.cm"), "--form", "lsbis"]),
    ("derive_sl2_ls.txt",
     ["derive", "--cartan", str(DATA / "sl2.cm"), "--form", "ls"]),
    ("derive_sl3_lsbis.txt", ["derive", "--cartan", str(DATA / "sl3.cm")]),
    ("derive_super.txt", ["derive-super"]),
    ("obstruction.txt", ["obstruction"]),
    ("bracket_sl2.txt", ["bracket-table", "--algebra", "sl2"]),
    ("bracket_osp12.txt", ["bracket-table", "--algebra", "osp12"]),
])
def test_golden_outputs(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == golden(name)


def test_output_is_deterministic(capsys):
    first = run(capsys, "derive-super")
    second = run(capsys, "derive-super")
    assert first == second


def test_admissible_exit_codes(capsys):
    code, out, _ = run(capsys, "admissible", "--cartan",
                       str(DATA / "osp12.cm"), "--scheme", "lse1")
    assert code == 0
    assert out == golden("admissible_osp12_lse1.txt")
    code, out, _ = run(capsys, "admissible", "--cartan", str(DATA / "sl2.cm"),
                       "--scheme", "lse1")
    assert code == 1
    assert out == golden("admissible_sl2_lse1.txt")
    code, out, _ = run(capsys, "admissible", "--cartan", str(DATA / "sl2.cm"),
                       "--scheme", "lse2")
    assert code == 0


def test_verify_liouville_success(capsys):
    code, out, _ = run(capsys, "verify-liouville", "--f", "x+1", "--g", "y+1",
                       "--order", "8")
    assert code == 0
    assert "max residual coefficient magnitude: 0.0" in out


def test_verify_liouville_respects_base(capsys):
    code, out, _ = run(capsys, "verify-liouville", "--f", "x", "--g", "y",
                       "--base", "1,1", "--order", "6")
    assert code == 0
    assert "magnitude: 0.0" in out


def test_verify_liouville_precondition_exit_3(capsys):
    code, _, err = run(capsys, "verify-liouville", "--f", "x", "--g", "y")
    assert code == 3
    assert "vanishes" in err


def test_verify_liouville_rejects_y_in_f(capsys):
    code, _, err = run(capsys, "verify-liouville", "--f", "y+1", "--g", "y+1")
    assert code == 3
    assert "may only use" in err


def test_verify_lse(tmp_path, capsys):
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)"]}))
    code, out, _ = run(capsys, "verify-lse", "--cartan", str(DATA / "sl2.cm"),
                       "--solution", str(doc), "--form", "lsbis",
                       "--base", "1,1")
    assert code == 0
    assert "component 1: max residual coefficient 0.0" in out
    # the F-form solution fails the G-form check
    doc.write_text(json.dumps({"components": ["-ln(x+y)"]}))
    code, _, err = run(capsys, "verify-lse", "--cartan", str(DATA / "sl2.cm"),
                       "--solution", str(doc), "--form", "lsbis",
                       "--base", "1,1")
    assert code == 1
    assert "verification failed" in err


SHARED = "1+exp(x)+y"


def test_verify_lse_folds_a_shared_subtree_once(tmp_path, monkeypatch,
                                                capsys):
    # G_i = ln(w_i) + ln(f'g') - 2 ln(f+g) on sl4, f = 1+exp(x), g = y: all
    # three components hold ln(1+exp(x)+y)
    (tmp_path / "sl4.cm").write_text(json.dumps({"matrix": [
        [int(v) for v in row] for row in standard_cartan("sl4").entries]}))
    (tmp_path / "sol.json").write_text(json.dumps({"components": [
        f"ln({w})+x-2*ln({SHARED})" for w in (3, 4, 3)]}))
    argv = ["verify-lse", "--cartan", str(tmp_path / "sl4.cm"), "--solution",
            str(tmp_path / "sol.json"), "--form", "lsbis", "--order", "6"]
    shared = eval_jet(parse_expression(SHARED),
                      *(Jet.variable(v, (0, 0), 6) for v in "xy"))
    seen, ln = [], Jet.ln
    monkeypatch.setattr(Jet, "ln", lambda jet: seen.append(jet) or ln(jet))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sum(jet == shared for jet in seen) == 1
    # each component folded on its own prints the same bytes
    monkeypatch.setattr(exprparse, "eval_jet", lambda node, x, y, memo:
                        eval_jet(node, x, y))
    assert run(capsys, *argv) == (0, out, "")


def test_verify_lse_names_the_failing_component_after_a_shared_one(tmp_path,
                                                                   capsys):
    bad = "-2*ln(x+y)+ln(x+y-2)"  # ln of a zero body at the base (1, 1)
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)+ln(x+y-1)", bad]}))
    code, _, err = run(capsys, "verify-lse", "--cartan", str(DATA / "sl3.cm"),
                       "--solution", str(doc), "--form", "lsbis",
                       "--base", "1,1")
    assert code == 3
    assert err.startswith(f"error: cannot evaluate {bad!r} as a jet: ")
    assert err.count("\n") == 1


def _sum_to_x(terms: int) -> str:
    """x+x+...+x less (terms - 1)*x, which is x."""
    return "+".join(["x"] * terms) + f"-{terms - 1}*x"


def _run_verbs(capsys, f, trace):
    """verify-liouville on ``f`` and g = y+1, and solve with the y_edge
    ``trace``; their exit codes and stderr."""
    results = [run(capsys, "verify-liouville", "--f", f, "--g", "y+1",
                   "--order", "3")]
    Path("b.json").write_text(json.dumps({**BOUNDARY, "y_edge": [trace]}))
    results.append(run(capsys, "solve", "--cartan", SL2, "--boundary",
                       "b.json", "--h", "1/4", "--out", "grid.csv"))
    return [(code, err) for code, _, err in results]


def test_a_long_sum_and_deep_nesting_exit_0(tmp_path, monkeypatch, capsys):
    # far past the recursion limit: parse and fold nest no frames; each f
    # is x, so the trace is BOUNDARY's y_edge and the grid its golden
    monkeypatch.chdir(tmp_path)
    deep = "(" * 10_000 + "x" + ")+1" * 10_000 + "-10000"
    for f in (_sum_to_x(100_000), deep):
        assert _run_verbs(capsys, f, f"{f}-x-2*ln(x+2)") == [(0, "")] * 2
        assert (tmp_path / "grid.csv").read_text() == golden("solve_grid.csv")


def test_the_longest_sum_that_parses_folds(tmp_path, monkeypatch, capsys):
    # both verbs fold an expression of MAX_EXPRESSION_CHARS characters; one
    # character more exits 3 with one line that names the limit
    monkeypatch.chdir(tmp_path)
    limit = cli.MAX_EXPRESSION_CHARS
    f = _sum_to_x(limit // 2 - 20)
    f, trace = f.ljust(limit), f"{f}-x-2*ln(x+2)".ljust(limit)
    assert _run_verbs(capsys, f, trace) == [(0, "")] * 2
    assert (tmp_path / "grid.csv").read_text() == golden("solve_grid.csv")
    assert _run_verbs(capsys, f + " ", trace + " ") == [
        (3, f"error: expression of {limit + 1} characters is past the limit "
         f"of {limit}\n")] * 2


def test_verify_lse_component_count(tmp_path, capsys):
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["x"]}))
    code, _, err = run(capsys, "verify-lse", "--cartan", str(DATA / "sl3.cm"),
                       "--solution", str(doc), "--form", "ls")
    assert code == 3
    assert "must list 2" in err


def test_solve_writes_csv(tmp_path, capsys):
    boundary = tmp_path / "boundary.json"
    boundary.write_text(json.dumps({
        "x0": "0", "x1": "1", "y0": "0", "y1": "1",
        "x_edge": ["-2*ln(y+2)"], "y_edge": ["-2*ln(x+2)"],
    }))
    out_csv = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "solve", "--cartan", str(DATA / "sl2.cm"),
                       "--boundary", str(boundary), "--h", "1/8",
                       "--out", str(out_csv))
    assert code == 0
    assert "wrote" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "x,y,G_1"
    assert len(lines) == 1 + 9 * 9


def test_solve_golden(tmp_path, capsys):
    boundary = tmp_path / "boundary.json"
    boundary.write_text(json.dumps({
        "x0": "0", "x1": "1", "y0": "0", "y1": "1",
        "x_edge": ["-2*ln(y+2)"], "y_edge": ["-2*ln(x+2)"],
    }))
    out_csv = tmp_path / "grid.csv"
    code, out, _ = run(capsys, "solve", "--cartan", str(DATA / "sl2.cm"),
                       "--boundary", str(boundary), "--h", "1/4",
                       "--out", str(out_csv))
    assert code == 0
    assert out.replace(str(out_csv), "GRID_CSV") == golden("solve_stdout.txt")
    assert out_csv.read_text() == golden("solve_grid.csv")


def test_verify_verbs_golden(tmp_path, capsys):
    code, out, _ = run(capsys, "verify-liouville", "--f", "x+1",
                       "--g", "y+1", "--order", "8")
    assert code == 0
    assert out == golden("verify_liouville.txt")
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)"]}))
    code, out, _ = run(capsys, "verify-lse", "--cartan", str(DATA / "sl2.cm"),
                       "--solution", str(doc), "--form", "lsbis",
                       "--base", "1,1")
    assert code == 0
    assert out == golden("verify_lse.txt")


def test_solve_corner_mismatch_exit_3(tmp_path, capsys):
    boundary = tmp_path / "boundary.json"
    boundary.write_text(json.dumps({
        "x0": "0", "x1": "1", "y0": "0", "y1": "1",
        "x_edge": ["y"], "y_edge": ["x+1"],
    }))
    code, _, err = run(capsys, "solve", "--cartan", str(DATA / "sl2.cm"),
                       "--boundary", str(boundary), "--h", "1/8",
                       "--out", str(tmp_path / "grid.csv"))
    assert code == 3
    assert "corner" in err


def test_derive_singular_ls_exit_3(capsys):
    code, _, err = run(capsys, "derive", "--cartan", str(DATA / "null1.cm"),
                       "--form", "ls")
    assert code == 3
    assert "singular" in err


@pytest.mark.parametrize("matrix", [
    [[2, -2], [-2, 2]],
    [[2, -1, "1/2"], [-2, 2, -1], [0, 1, "-1/2"]],
])
def test_derive_ls_on_singular_gcm_prints_one_error_line(capsys, tmp_path,
                                                          matrix):
    cartan = tmp_path / "gcm.cm"
    cartan.write_text(json.dumps({"matrix": matrix}))
    code, out, err = run(capsys, "derive", "--cartan", str(cartan),
                         "--form", "ls")
    assert (code, out, err) == (3, "", "error: matrix is singular\n")
    code, out, _ = run(capsys, "derive", "--cartan", str(cartan))
    assert code == 0 and out


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "derive", "--cartan", "no_such_file.cm")
    assert code == 3
    assert "cannot read" in err


def test_parse_error_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.cm"
    bad.write_text('{"matrix":[[2,-1],[0]]}')
    code, _, err = run(capsys, "derive", "--cartan", str(bad))
    assert code == 3
    assert "line 1" in err


def test_unknown_verb_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["derive-super", "--wat"])
    assert err.value.code == 2


def test_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ZCURV_ORDER", "5")
    code, out, _ = run(capsys, "verify-liouville", "--f", "x+1", "--g", "y+1")
    assert code == 0
    assert "residual order: 2" in out


def test_bad_order_env_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("ZCURV_ORDER", "1")
    code, _, err = run(capsys, "verify-liouville", "--f", "x+1", "--g", "y+1")
    assert code == 3
    assert "ZCURV_ORDER" in err


def test_order_env_2_is_the_least_order(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)"]}))
    argv = ["verify-lse", "--cartan", str(DATA / "sl2.cm"), "--solution",
            str(doc), "--form", "lsbis", "--base", "1,1"]
    monkeypatch.setenv("ZCURV_ORDER", "2")
    assert run(capsys, *argv) == (
        0, "component 1: max residual coefficient 0.0 (order 0)\n", "")
    monkeypatch.setenv("ZCURV_ORDER", "1")
    assert run(capsys, *argv) == (
        3, "", "error: ZCURV_ORDER must be an integer >= 2, got '1'\n")


@pytest.mark.parametrize("flags,env", [(["--order", "99999999999"], "8"),
                                       ([], "99999999999")],
                         ids=["--order", "ZCURV_ORDER"])
def test_order_without_a_coefficient_table_exit_3(capsys, monkeypatch, flags,
                                                  env):
    # far past MAX_ORDER: rejected before any jet is built
    monkeypatch.setenv("ZCURV_ORDER", env)
    code, out, err = run(capsys, "verify-liouville", "--f", "x+1", "--g",
                         "y+1", *flags)
    assert (code, out) == (3, "")
    assert err == ("error: jet order 99999999999 is past the limit of "
                   "128\n")


@pytest.mark.parametrize("argv,env_order,limit", [
    (["--f", "x+1", "--g", "y+1", "--order", "100000"], "8", "of 128"),
    (["--f", "x+1", "--g", "y+1"], "100000", "of 128"),
    (["--f", "(x+1)^3000", "--g", "y+1", "--base", "1,1", "--order", "4"],
     "8", "of 1024"),
    (["--f", "(x+1)^10000", "--g", "y+1", "--base", "1,1", "--order", "4"],
     "8", "of 1024"),
    (["--f", "x^1000000+1", "--g", "y+1", "--base", "1/2,1/3", "--order",
      "4"], "8", "of 524288"),
    (["--f", "x+(1+exp(1))^1600", "--g", "y", "--order", "4"], "8",
     "of 256"),
    (["--f", "x+" + "+".join(f"exp({k})" for k in range(1, 801)), "--g", "y",
      "--order", "4"], "8", "of 256"),
    (["--f", "x+" + "+".join(f"exp({k})" for k in range(1, 8001)), "--g",
      "y", "--order", "4"], "8", "of 256"),
], ids=["order", "ZCURV_ORDER", "cofactor-3000", "cofactor-10000",
        "power-1000000", "units-power-1600", "units-sum-800",
        "units-sum-8000"])
def test_input_past_a_limit_exits_3_at_once(argv, env_order, limit):
    # a jet order past MAX_ORDER, a cofactor of about 3,000 or 10,000 bits
    # left by ln((f+g)^2), a power of the body 1/2 past MAX_POWER_BITS, and
    # constants past scalars.MAX_UNITS units (a power of the two-unit
    # 1 + exp(1), sums of 800 and 8,000 distinct exp units): each took from
    # 1.5 s to minutes before
    env = {**os.environ, "PYTHONPATH": str(Path(zcurv.__file__).parents[1]),
           "ZCURV_ORDER": env_order}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "zcurv.cli", "verify-liouville", *argv],
        env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert f"past the limit {limit}" in proc.stderr
    assert len(proc.stderr) < 300


def test_verify_lse_exact_verdict_rejects_underflowing_residual(tmp_path,
                                                                capsys):
    # the residual's only coefficient is about 2e-400: 0.0 as a float
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)+1/10^400"]}))
    argv = ["verify-lse", "--cartan", str(DATA / "sl2.cm"), "--solution",
            str(doc), "--form", "lsbis", "--base", "1,1"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "max residual coefficient 0.0" in out
    assert "not exactly zero" in err
    # a positive tolerance compares the float magnitudes
    code, _, _ = run(capsys, *argv, "--tol", "1e-300")
    assert code == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "abc"])
@pytest.mark.parametrize("verb", [
    ["verify-liouville", "--f", "x", "--g", "y"],
    ["verify-lse", "--cartan", "sl2.cm", "--solution", "sol.json",
     "--form", "lsbis"]])
def test_verify_rejects_bad_tolerance(capsys, verb, tol):
    with pytest.raises(SystemExit) as err:
        main(verb + [f"--tol={tol}"])  # "=" keeps "-1e-9" from reading as a flag
    assert err.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["0", "1"])
def test_verify_lse_order_below_two_exit_3(tmp_path, capsys, order):
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)"]}))
    code, _, err = run(capsys, "verify-lse", "--cartan", str(DATA / "sl2.cm"),
                       "--solution", str(doc), "--form", "lsbis",
                       "--base", "1,1", "--order", order)
    assert code == 3
    assert "--order must be >= 2" in err


def test_verify_liouville_order_two_exit_3(capsys, monkeypatch):
    # at order 2 the solution would have order 1, one too few for the mixed
    # derivative: refused before a jet is built, with the least order named
    monkeypatch.setattr(Jet, "variable", None)
    assert run(capsys, "verify-liouville", "--f", "x+1", "--g", "y+1",
               "--order", "2") == (3, "", "error: --order must be >= 3\n")
    monkeypatch.setenv("ZCURV_ORDER", "2")
    assert run(capsys, "verify-liouville", "--f", "x+1", "--g", "y+1") == (
        3, "", "error: ZCURV_ORDER must be an integer >= 3, got '2'\n")
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify-liouville", "--f", "x+1", "--g", "y+1",
                       "--order", "3")
    assert code == 0 and out.startswith("residual order: 0\n")


def test_verify_lse_overflowing_residual_reports_inf(tmp_path, capsys):
    doc = tmp_path / "sol.json"
    doc.write_text(json.dumps({"components": ["-2*ln(x+y)+10^400"]}))
    code, out, err = run(capsys, "verify-lse", "--cartan",
                         str(DATA / "sl2.cm"), "--solution", str(doc),
                         "--form", "lsbis", "--base", "1,1")
    assert code == 1
    assert "max residual coefficient inf" in out
    assert err.startswith("verification failed")


SL2 = str(DATA / "sl2.cm")
BOUNDARY = {"x0": "0", "x1": "1", "y0": "0", "y1": "1",
            "x_edge": ["-2*ln(y+2)"], "y_edge": ["-2*ln(x+2)"]}
NOT_UTF8 = b'{"matrix":[[2]],"name":"\xff"}'


HUGE_EXPONENT = "1e-9999999"  # Fraction alone spends about 9 s on it


@pytest.mark.parametrize("argv,boundary,message", [
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base",
      f"1/3,{HUGE_EXPONENT}", "--order", "8"], None,
     f"--base '{HUGE_EXPONENT}' has a decimal exponent past the limit of "
     "1024"),
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base",
      "1/3,1e-100000", "--order", "8"], None, "decimal exponent past the "
     "limit of 1024"),
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base",
      f"1/{10**400},0", "--order", "8"], None, "numerator or denominator "
     "past the limit of 1024 bits"),
    (["solve", "--cartan", str(DATA / "sl2.cm"), "--boundary", "b.json",
      "--h", HUGE_EXPONENT, "--out", "grid.csv"], BOUNDARY,
     f"--h '{HUGE_EXPONENT}' has a decimal exponent past the limit of 1024"),
    (["solve", "--cartan", str(DATA / "sl2.cm"), "--boundary", "b.json",
      "--h", "1/4", "--out", "grid.csv"], {**BOUNDARY, "x0": HUGE_EXPONENT},
     f"b.json: x0 '{HUGE_EXPONENT}' has a decimal exponent past the limit"),
    (["solve", "--cartan", str(DATA / "sl2.cm"), "--boundary", "b.json",
      "--h", "1/4", "--out", "grid.csv"], {**BOUNDARY, "y1": 10**4000},
     "b.json: y1 100000000000000000000000...000000000000 (4001 characters) "
     "has a numerator"),
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base",
      f"1/{'7' * 4000},0", "--order", "8"], None,
     "--base '1/777777777777777777777...77777777777' (4002 characters) "
     "has a numerator"),
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base",
      f"1{'0' * 5000},0", "--order", "8"], None,
     "--base '10000000000000000000000...00000000000' (5001 characters) "
     "has a run of more than 4300 digits, past the limit of 1024 bits"),
], ids=["base-exponent", "base-exponent-100000", "base-denominator",
        "h-exponent", "boundary-exponent", "boundary-integer", "base-long",
        "base-past-int-digits"])
def test_rational_past_the_limit_exits_3_at_once(tmp_path, argv, boundary,
                                                 message):
    if boundary is not None:
        (tmp_path / "b.json").write_text(json.dumps(boundary))
    env = {**os.environ, "PYTHONPATH": str(Path(zcurv.__file__).parents[1])}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "zcurv.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 160
    assert "past the limit of 1024" in proc.stderr
    assert not (tmp_path / "grid.csv").exists()


def test_rational_limit_is_on_bits():
    top = 2**cli.MAX_RATIONAL_BITS
    for text in (str(top - 1), f"-1/{top - 1}", "1e308", "1e-300",
                 "1.5e-000300", " 7/3 ", "1_0e1_0", "2e0", "2e-0_0",
                 "1." + "0" * 400):
        assert cli._rational(text, "x") == Fraction(text.strip())
    assert cli._rational(0.1, "x") == Fraction(0.1)
    for value in (str(top), f"1/{top}", "1e309", "1e1025", "0e1025",
                  f"1e-{'9' * 5000}", "1e-9_999_999", ".5E+00_1025", top,
                  5e-324, "1" + "0" * 5000, "1." + "0" * 5000,
                  "1e" + "0" * 5000 + "5"):
        with pytest.raises(cli.InputError, match="past the limit of 1024"):
            cli._rational(value, "x")
    # Fraction's own refusals, and values that are not a string or number;
    # a JSON literal is echoed in JSON spelling
    for value, echo in (("1e", "'1e'"), ("e5", "'e5'"), ("1/0", "'1/0'"),
                        ("", "''"), ("x", "'x'"), (float("inf"), "inf"),
                        (float("nan"), "nan"), (True, "true"),
                        (False, "false"), (None, "null"), ([1], "[1]")):
        with pytest.raises(cli.InputError) as err:
            cli._rational(value, "x")
        assert str(err.value) == f"x must be a rational, got {echo}"


@pytest.mark.parametrize("base,message", [
    ("1e1024,0", "--base '1e1024' has a numerator or denominator past the "
     "limit of 1024 bits"),
    ("1e1025,0", "--base '1e1025' has a decimal exponent past the limit of "
     "1024"),
])
def test_base_at_the_decimal_exponent_limit(capsys, base, message):
    # 10^1024 passes the exponent check and fails the bit check
    assert run(capsys, "verify-liouville", "--f", "x+1", "--g", "y+1",
               "--base", base) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["verify-liouville", "--f", "+".join(["x"] * 600) + "+ln(1-1)", "--g",
     "y+1"],
    ["verify-liouville", "--f", "+".join(["x"] * 600) + "+@", "--g", "y+1"],
    ["verify-liouville", "--f", "+".join(["y"] * 600), "--g", "y+1"],
], ids=["evaluate", "parse", "variables"])
def test_a_long_expression_is_echoed_clipped(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "..." in err and " characters)" in err and len(err) < 160


def test_a_scalar_in_an_error_prints_long_integers_short(capsys):
    # 10^5000 in the constant term: str() of it would pass Python's
    # 4,300-digit limit and replace this message with its own
    code, out, err = run(capsys, "verify-liouville", "--f", "exp(x)+10^5000",
                         "--g", "y^2+y+2", "--base", "1/2,1/3", "--order",
                         "4")
    assert (code, out) == (3, "")
    assert err == (
        "error: cannot invert multi-term scalar (810000000000000000000000..."
        "000000000000000000000484 (10002 digits)/81) + (18000000000000000000"
        "0000...000000000000000000000044 (5002 digits)/9)*exp(1/2) + exp(1)\n")


def test_a_long_scalar_in_a_refusal_is_cut(capsys):
    # c^2 = (f(x0) + g(y0))^2 has 201 terms: the refusal prints six of them
    code, out, err = run(capsys, "verify-liouville", "--f",
                         "x+(1+exp(1))^100", "--g", "y", "--order", "4")
    assert (code, out) == (3, "")
    assert err == (
        "error: cannot invert multi-term scalar 1 + 200*exp(1) + "
        "19900*exp(2) + 1313400*exp(3) + 64684950*exp(4) + "
        "2535650040*exp(5) + ... (201 terms)\n")


def _solve(boundary, h="1/4", out="grid.csv"):
    files = {"b.json": json.dumps({**BOUNDARY, **boundary})
             if isinstance(boundary, dict) else boundary}
    return files, ["solve", "--cartan", SL2, "--boundary", "b.json",
                   f"--h={h}", "--out", out]


def _verify_lse(solution):
    files = {"sol.json": solution if isinstance(solution, bytes)
             else json.dumps(solution)}
    return files, ["verify-lse", "--cartan", SL2, "--solution", "sol.json",
                   "--form", "lsbis", "--base", "1,1"]


@pytest.mark.parametrize("files,argv", [
    pytest.param(*_solve({}, h="0"), id="h-zero"),
    pytest.param(*_solve({}, h="-1/4"), id="h-negative"),
    pytest.param(*_solve({"x_edge": ["exp(1000*y+1000)"],
                          "y_edge": ["exp(1000*x+1000)"]}),
                 id="trace-overflows"),
    pytest.param(*_solve({}, out="no_such_dir/grid.csv"), id="unwritable-out"),
    pytest.param({"bad.cm": NOT_UTF8}, ["derive", "--cartan", "bad.cm"],
                 id="cartan-not-utf8"),
    pytest.param(*_verify_lse(b'{"components":["\xff"]}'),
                 id="solution-not-utf8"),
    pytest.param(*_solve(b'{"x0":"\xff"}'), id="boundary-not-utf8"),
    pytest.param(*_verify_lse([1, 2]), id="solution-not-an-object"),
    pytest.param(*_verify_lse(b"[" * 100000), id="solution-nested-too-deeply"),
    pytest.param(*_solve({"x_edge": 5}), id="edge-not-a-list"),
    pytest.param(*_solve({"x1": 1e400}), id="boundary-infinite-end"),
    pytest.param(*_verify_lse({"components": [5]}),
                 id="component-not-a-string"),
    pytest.param(*_verify_lse({"components": [
        "(" * 2**17 + "x" + ")" * 2**17]}), id="component-nested-too-deeply"),
    pytest.param(*_solve({"y_edge": ["+".join(["x"] * (2**17 + 1))]}),
                 id="trace-too-deep"),
])
def test_input_failures_exit_3(tmp_path, monkeypatch, capsys, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        data = content if isinstance(content, bytes) else content.encode()
        (tmp_path / name).write_bytes(data)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ")


@pytest.mark.parametrize("key,value,echo", [
    ("x0", True, "true"), ("y1", False, "false"), ("x1", None, "null"),
    ("x1", "abc", "'abc'"), ("y0", [1], "[1]"), ("x0", "1/0", "'1/0'")],
    ids=["x0-True", "y1-False", "x1-None", "x1-abc", "y0-list", "x0-1/0"])
def test_solve_rejects_boolean_domain_ends(tmp_path, monkeypatch, capsys, key,
                                           value, echo):
    # Fraction(True) would read it as 1; Fraction([1]) raises TypeError;
    # a JSON literal is echoed as the file spells it
    monkeypatch.chdir(tmp_path)
    files, argv = _solve({key: value})
    (tmp_path / "b.json").write_text(files["b.json"])
    assert run(capsys, *argv) == (
        3, "", f"error: b.json: {key} must be a rational, got {echo}\n")


@pytest.mark.parametrize("argv,message", [
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base", "1/0,1"],
     "--base must be a rational, got '1/0'"),
    (_solve({}, h="abc")[1], "--h must be a rational, got 'abc'"),
], ids=["base", "h"])
def test_a_flag_that_is_not_a_rational_exits_3(tmp_path, monkeypatch, capsys,
                                               argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps(BOUNDARY))
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


def test_solve_overflow_prints_one_error_line(tmp_path):
    # 10^308 * exp(5) overflows to inf in a float product; the solver must
    # report the cell without a numpy RuntimeWarning on stderr
    (tmp_path / "big.cm").write_text('{"matrix":[[1' + "0" * 308 + ']]}')
    (tmp_path / "b.json").write_text(json.dumps(
        {**BOUNDARY, "x_edge": ["5"], "y_edge": ["5"]}))
    env = {**os.environ, "PYTHONPATH": str(Path(zcurv.__file__).parents[1])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "zcurv.cli", "solve", "--cartan", "big.cm",
         "--boundary", "b.json", "--h", "1/8", "--out", "grid.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == ("error: exp overflow while updating grid cell "
                           "(1, 1)\n")


@pytest.mark.parametrize("h", ["1/100000", "1/1000000000"])
def test_oversize_grid_exits_3_before_sampling(tmp_path, h):
    # 74.5 GiB and 6.9 EiB of grid: refused before a trace is sampled
    (tmp_path / "b.json").write_text(json.dumps(BOUNDARY))
    env = {**os.environ, "PYTHONPATH": str(Path(zcurv.__file__).parents[1])}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "zcurv.cli", "solve", "--cartan", SL2,
         "--boundary", "b.json", "--h", h, "--out", "grid.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 3
    points = int(h[2:]) + 1
    assert proc.stderr == (
        f"error: a rank-1 grid of {points} x {points} points holds "
        f"{points ** 2} values, over the limit of {MAX_GRID_VALUES}\n")
    assert not (tmp_path / "grid.csv").exists()


def test_huge_integer_power_is_fast(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "verify-liouville", "--f", "x^1000000+1",
                       "--g", "y+1", "--order", "3")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert "vanishes" in err


# Constant subexpressions fold to exact scalars; each refusal keeps the line
# that folding them as constant jets printed.
@pytest.mark.parametrize("f,message", [
    ("x+1/0", "jet has zero body, cannot invert"),
    ("x+1/(ln(2)-ln(2))", "jet has zero body, cannot invert"),
    ("x+0^-1", "jet has zero body, cannot invert"),
    ("x+ln(0)", "ln of a jet with zero body"),
    ("x+ln(-1)", "ln requires a positive scalar, got -1"),
    ("x+exp(ln(2)*ln(3))", "exp not defined on scalar term ln(2)*ln(3)"),
    ("x+ln(1+ln(2))", "cannot invert multi-term scalar 1 + ln(2)"),
    ("x+(1+ln(2))^-2", "cannot invert multi-term scalar 1 + ln(2)"),
    ("x+ln(ln(2))", "cannot invert scalar with ln factors: ln(2)"),
])
def test_a_constant_subexpression_refuses_with_its_jet_line(capsys, f,
                                                             message):
    code, out, err = run(capsys, "verify-liouville", "--f", f, "--g", "y")
    assert (code, out) == (3, "")
    assert err == f"error: cannot evaluate {f!r} as a jet: {message}\n"


def test_a_huge_power_of_two_in_f_verifies_in_seconds(capsys):
    # f + g = 2^300000 + x + y at the origin: ln((f+g)^2) factors
    # 2^600000, which took 101 s one division at a time.  The bound guards
    # that; what is left is long-integer gcd and division on 900,000-bit
    # denominators, and it takes longer than the 2 s once aimed for
    start = time.perf_counter()
    got = run(capsys, "verify-liouville", "--f", "x+2^300000", "--g", "y",
              "--order", "4")
    assert time.perf_counter() - start < 10
    assert got == (0, "residual order: 1\nmax residual coefficient "
                   "magnitude: 0.0\n", "")


def test_a_negative_sum_verifies(capsys):
    # f(x0) + g(y0) = -2: ln|f+g| runs on f+g, whatever its sign
    assert run(capsys, "verify-liouville", "--f=-x-2", "--g=-y", "--order",
               "6") == (0, "residual order: 3\nmax residual coefficient "
                        "magnitude: 0.0\n", "")


@pytest.mark.parametrize("spaced,joined", [
    (["--f", "-x-2", "--g", "-y", "--order", "6"],
     ["--f=-x-2", "--g=-y", "--order", "6"]),
    (["--f", "x+1", "--g", "y+1", "--base", "-1/2,1/3"],
     ["--f", "x+1", "--g", "y+1", "--base=-1/2,1/3"]),
    (["--base", "-1/2,-1/3", "--f", "-x", "--g", "-y-1"],
     ["--base=-1/2,-1/3", "--f=-x", "--g=-y-1"]),
], ids=["f-g", "base", "all-three"])
def test_a_value_that_begins_with_a_dash_may_follow_a_space(capsys, spaced,
                                                            joined):
    got = run(capsys, "verify-liouville", *spaced)
    assert got == run(capsys, "verify-liouville", *joined)
    assert got[0] == 0 and "magnitude: 0.0\n" in got[1]


def test_a_negative_step_after_a_space_is_refused_as_a_step(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps(BOUNDARY))
    argv = ["solve", "--cartan", SL2, "--boundary", "b.json", "--h", "-1/4",
            "--out", "grid.csv"]
    assert run(capsys, *argv) == (
        3, "", "error: --h must be positive, got '-1/4'\n")
    assert not (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("verb,abbreviated,full,code", [
    ("verify-liouville", ["--f", "x+1", "--g", "y+1", "--ba", "-1/2,1/3"],
     ["--f", "x+1", "--g", "y+1", "--base", "-1/2,1/3"], 0),
    ("verify-lse", ["--c", SL2, "--s", "sol.json", "--fo", "lsbis", "--o",
                    "-3"],
     ["--cartan", SL2, "--solution", "sol.json", "--form", "lsbis",
      "--order", "-3"], 3),
    ("solve", ["--c", SL2, "--b", "b.json", "--h", "1/4", "--o", "-g.csv"],
     ["--cartan", SL2, "--boundary", "b.json", "--h", "1/4", "--out",
      "-g.csv"], 0),
], ids=["base", "lse-order", "solve-out"])
def test_an_abbreviated_option_takes_a_dash_value(
        tmp_path, monkeypatch, capsys, verb, abbreviated, full, code):
    # --o is --order in verify-* and --out in solve, as argparse reads it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sol.json").write_text('{"components": ["-2*ln(x+y)"]}')
    (tmp_path / "b.json").write_text(json.dumps(BOUNDARY))
    got = run(capsys, verb, *abbreviated)
    grid = (tmp_path / "-g.csv").read_text() if verb == "solve" else None
    assert got[0] == code
    assert got == run(capsys, verb, *full)
    if grid is not None:
        assert (tmp_path / "-g.csv").read_text() == grid


def test_an_unknown_or_ambiguous_prefix_is_left_to_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify-liouville", "--f", "x+1", "--g", "y+1", "--q", "-1"])
    assert err.value.code == 2
    assert "unrecognized arguments: --q -1" in capsys.readouterr().err


# A word that names none of the verb's options is a value, whatever it
# begins with; a value -h... reads as -h with text attached, so it is
# written --opt=-h...
@pytest.mark.parametrize("argv,code,line", [
    (["derive", "--cartan", "-sl2.cm"], 3,
     "error: cannot read -sl2.cm: "),
    (["verify-liouville", "--f", "x+1", "--g", "--q"], 3,
     "error: bad expression '--q': unknown name (at position 3)"),
    (["verify-liouville", "--g", "y", "--f", "-"], 3,
     "error: bad expression '-': expected a value (at position 2)"),
    (["verify-lse", "--cartan", SL2, "--form", "lsbis", "--solution",
      "-s.json"], 3, "error: cannot read -s.json: "),
    (["verify-liouville", "--g", "y", "--f", "-hx"], 2,
     "zcurv verify-liouville: error: argument --f: expected one argument"),
    (["verify-liouville", "--g", "y", "--f=-hx"], 3,
     "error: bad expression '-hx': unknown name (at position 2)"),
], ids=["cartan", "g-then-option-like", "lone-dash", "solution", "h-spaced",
        "h-joined"])
def test_a_dash_value_that_names_no_option_is_read_as_a_value(
        tmp_path, monkeypatch, capsys, argv, code, line):
    monkeypatch.chdir(tmp_path)
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    assert (got, out.out) == (code, "")
    assert out.err.splitlines()[-1].startswith(line)


@pytest.mark.parametrize("argv", [
    ["--f", "--g", "y"],            # an option string is not a value
    ["--g", "y", "--f", "-h"],      # nor is -h
    ["--g", "y", "--f", "--help"],
    ["--g", "y", "--f"],            # a trailing option has no value
    ["--g", "y", "--f", "--", "-x"],
    ["--g", "y", "--f", "--ord", "4"],  # nor an abbreviated option
], ids=["f-then-g", "f-then-h", "f-then-help", "trailing-f", "double-dash",
        "f-then-ord"])
def test_an_option_with_no_value_still_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(["verify-liouville", *argv])
    assert err.value.code == 2
    assert "argument --f: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("base,code", [
    ("1e20,0", 0), ("1e40,0", 3),
    ("300000000580000000017,0", 0)])
def test_base_with_large_prime_factors_ends_fast(capsys, base, code):
    # ln((f+g)^2) factors (10^20+2)^2, 10^20+2 = 2*3*155977777*106852828571,
    # which rho splits; 10^40+2 leaves a cofactor past the Miller-Rabin bound.
    # At 300000000580000000017 f+g = p*q with p = 10000000019 and
    # q = 30000000001: (p*q)^2 is past the bound, but its square root is not
    start = time.perf_counter()
    got, out, err = run(capsys, "verify-liouville", "--f", "x+1", "--g",
                        "y+1", "--base", base, "--order", "4")
    assert time.perf_counter() - start < 2
    assert got == code
    if code == 0:
        assert (out, err) == ("residual order: 1\nmax residual coefficient "
                              "magnitude: 0.0\n", "")
    else:
        assert err.startswith("error: cannot factor 1000000000000000000000")
        assert err.count("\n") == 1


def _seeded_function(rng, family, t):
    """Text of a poly, exp or Moebius function of the text ``t``, small on
    |t| <= 1."""
    a, b, c = (Fraction(rng.randint(-4, 4), rng.randint(1, 4))
               for _ in range(3))
    if family == "poly":
        return f"({a})*{t}^2+({b})*{t}+({c})"
    if family == "exp":
        return f"({a})*exp(({b})*{t})+({c})"
    return f"(({a})*{t}+({c}))/(({b})/8*{t}+1)"


SIDE = Fraction(1, 2)


@pytest.mark.parametrize("seed", range(9))
def test_solve_matches_pointwise_traces(tmp_path, capsys, seed):
    rng = random.Random(seed)
    rank = 1 + seed % 3
    x0, y0 = (rng.choice([Fraction(0), Fraction(-1, 4), Fraction(1, 3)])
              for _ in range(2))
    fs = [_seeded_function(rng, ("poly", "exp", "rat")[seed // 3], "X")
          for _ in range(rank)]
    gs = [_seeded_function(rng, rng.choice(["poly", "exp", "rat"]), "Y")
          for _ in range(rank)]
    # G_k = f_k(x) + g_k(y) - 3 on both characteristics
    comps = [f"({f})+({g})-3" for f, g in zip(fs, gs)]
    doc = {"x0": str(x0), "x1": str(x0 + SIDE), "y0": str(y0),
           "y1": str(y0 + SIDE),
           "x_edge": [u.replace("X", f"({x0})").replace("Y", "y")
                      for u in comps],
           "y_edge": [u.replace("X", "x").replace("Y", f"({y0})")
                      for u in comps]}
    (tmp_path / "b.json").write_text(json.dumps(doc))
    matrix = standard_cartan(f"sl{rank + 1}")
    (tmp_path / "a.cm").write_text(json.dumps(
        {"matrix": [[int(v) for v in row] for row in matrix.entries]}))
    code, out, err = run(capsys, "solve", "--cartan", str(tmp_path / "a.cm"),
                         "--boundary", str(tmp_path / "b.json"), "--h",
                         "1/32", "--out", str(tmp_path / "cli.csv"))
    assert (code, err) == (0, "")
    xn = [parse_expression(t) for t in doc["x_edge"]]
    yn = [parse_expression(t) for t in doc["y_edge"]]
    data = GoursatData(x0, x0 + SIDE, y0, y0 + SIDE,
                       x_edge=lambda y: [eval_float(nd, 0.0, y) for nd in xn],
                       y_edge=lambda x: [eval_float(nd, x, 0.0) for nd in yn])
    grid = solve_goursat(matrix, data, Fraction(1, 32))
    write_csv(grid, tmp_path / "oracle.csv")
    assert ((tmp_path / "cli.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())
    assert f"corrector sweep residual: {grid.sweep_residual:.17g}\n" in out


@pytest.mark.parametrize("x_edge,y_edge", [
    ("10^300*10^300*y", "10^300*10^300-10^300*10^300"),
    ("10^300*10^300-10^300*10^300", "10^300*10^300*x"),
])
def test_solve_overflowing_trace_prints_one_error_line(tmp_path, x_edge,
                                                       y_edge):
    # inf and nan on the traces: the array fold must not print a numpy
    # RuntimeWarning before the solver's one error line, which names the
    # non-finite trace, not the march
    (tmp_path / "b.json").write_text(json.dumps(
        {**BOUNDARY, "x_edge": [x_edge], "y_edge": [y_edge]}))
    env = {**os.environ, "PYTHONPATH": str(Path(zcurv.__file__).parents[1])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "zcurv.cli", "solve", "--cartan", SL2,
         "--boundary", "b.json", "--h", "1/8", "--out", "grid.csv"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == ("error: boundary trace y_edge is not finite at "
                           "x = 0.0\n")


STEP_MISMATCH = "x and y ranges must contain the same number of steps"


@pytest.mark.parametrize("boundary,message", [
    pytest.param({"y1": "1/2", "x_edge": ["y"], "y_edge": ["x"]},
                 STEP_MISMATCH, id="ranges-differ"),
    pytest.param({"y1": "1/2", "x_edge": ["ln(5/8-y)"], "y_edge": ["x"]},
                 STEP_MISMATCH, id="ranges-differ-trace-undefined-past-y1"),
    pytest.param({"x_edge": ["1/y"], "y_edge": ["1/x"]},
                 "cannot evaluate '1/y' on x_edge: float division by zero",
                 id="trace-divides-by-zero"),
    pytest.param({"x_edge": ["-2*ln(y+2)"], "y_edge": ["-2*ln(x+2)+ln(x)"]},
                 "cannot evaluate '-2*ln(x+2)+ln(x)' on y_edge: math domain "
                 "error", id="trace-outside-ln-domain"),
    pytest.param({"x_edge": ["-2*ln(y+2)+10^400"], "y_edge": ["-2*ln(x+2)"]},
                 "cannot evaluate '-2*ln(y+2)+10^400' on x_edge: float "
                 "overflow", id="trace-power-overflows"),
    pytest.param({"x_edge": ["-2*ln(y+2)+exp(1000)"],
                  "y_edge": ["-2*ln(x+2)"]},
                 "cannot evaluate '-2*ln(y+2)+exp(1000)' on x_edge: float "
                 "overflow", id="trace-exp-overflows"),
    pytest.param({"x_edge": ["10^300*10^300*y"], "y_edge": ["x"]},
                 "boundary trace x_edge is not finite at y = 0.0",
                 id="nan-corner"),
    pytest.param({"x_edge": ["10^300*10^300-10^300*10^300"], "y_edge": ["x"]},
                 "boundary trace x_edge is not finite at y = 0.0",
                 id="nan-trace"),
    pytest.param({"x_edge": ["0"], "y_edge": ["x*10^300*10^300"]},
                 "boundary trace y_edge is not finite at x = 0.125",
                 id="inf-past-corner"),
])
def test_solve_names_range_mismatch_and_non_finite_trace(
        tmp_path, monkeypatch, capsys, boundary, message):
    monkeypatch.chdir(tmp_path)
    files, argv = _solve(boundary, h="1/8")
    (tmp_path / "b.json").write_text(files["b.json"])
    code, _, err = run(capsys, *argv)
    assert (code, err) == (3, f"error: {message}\n")


LOADS_SCRIPT = """
import json, sys
before = set(sys.modules)
if sys.argv[1:] == ["zcurv"]:
    import zcurv
    code = 0
else:
    import zcurv.cli
    code = zcurv.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
new = set(sys.modules) - before
print(json.dumps([code, sorted(m for m in new if m.split(".")[0] == "zcurv"),
                  "numpy" in new, "dataclasses" in new]))
"""

# zcurv modules past zcurv and zcurv.cli that each verb loads in a fresh
# process, and whether it loads numpy and dataclasses
SYMBOLIC = ["cartan", "superalg", "symexpr", "zerocurv"]
VERB_LOADS = [
    (["zcurv"], None, False, False),
    ([], [], False, False),
    (["derive", "--cartan", str(DATA / "sl3.cm")], SYMBOLIC, False, False),
    (["derive-super"], SYMBOLIC, False, False),
    (["obstruction"], SYMBOLIC, False, False),
    (["bracket-table", "--algebra", "osp12"],
     ["cartan", "superalg", "symexpr"], False, False),
    (["admissible", "--cartan", str(DATA / "osp12.cm"), "--scheme", "lse1"],
     ["cartan"], False, False),
    (["verify-liouville", "--f", "x+1", "--g", "y+1"],
     ["exprparse", "jets", "scalars", "solutions"], False, False),
    (["verify-lse", "--cartan", str(DATA / "sl2.cm"), "--solution", "s.json",
      "--form", "lsbis"],
     ["cartan", "exprparse", "jets", "scalars", "solutions"], False, False),
    (["solve", "--cartan", str(DATA / "sl2.cm"), "--boundary", "b.json",
      "--h", "1/8", "--out", "grid.csv"],
     ["cartan", "exprparse", "numerics"], True, False),
]
# every name zcurv exported when its __init__ imported each module eagerly
EXPORTS = {
    "cartan": "AdmissibilityReport CartanFormatError CartanMatrix "
              "check_admissible parse_cartan render_cartan standard_cartan "
              "whitelist_superprincipal",
    "jets": "Jet", "scalars": "Scalar",
    "numerics": "GoursatData Grid convergence_order residual_grid "
                "solve_goursat write_csv",
    "solutions": "SolutionVector conformal_transform liouville_residual "
                 "liouville_solution lse_residual super_liouville_residual "
                 "transform_GF",
    "superalg": "BracketTable SuperMatrix bracket_table osp12_basis "
                "sl2_basis supercommutator supertrace",
    "superfield": "SuperField standard_gens",
    "zerocurv": "SUPER_LIOUVILLE_SIGN Connection CurvatureResult "
                "DerivedSystem LieValuedField Osp12Relations "
                "ChevalleyRelations OutOfSpanError curvature "
                "derive_super_liouville derive_toda nonreduced_obstruction",
}


def test_only_solve_loads_numpy(tmp_path):
    (tmp_path / "b.json").write_text(json.dumps(BOUNDARY))
    (tmp_path / "s.json").write_text('{"components": ["-2*ln(x+y+1)"]}')
    env = {**os.environ, "PYTHONPATH": str(Path(zcurv.__file__).parents[1])}
    got, want = {}, {}
    for argv, loads, numpy, dataclasses in VERB_LOADS:
        proc = subprocess.run([sys.executable, "-c", LOADS_SCRIPT, *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        key = argv[0] if argv else "zcurv.cli"
        got[key] = json.loads(proc.stdout.splitlines()[-1])
        modules = ["zcurv"] if loads is None else \
            ["zcurv", "zcurv.cli", *(f"zcurv.{m}" for m in loads)]
        want[key] = [0, sorted(modules), numpy, dataclasses]
    assert got == want
    assert (tmp_path / "grid.csv").is_file()


def test_every_exported_name_resolves_lazily():
    for module, names in EXPORTS.items():
        for name in names.split():
            assert getattr(zcurv, name) is getattr(
                importlib.import_module(f"zcurv.{module}"), name)
    with pytest.raises(AttributeError, match="no_such_name"):
        zcurv.no_such_name


# -- one parser per process --------------------------------------------------

SEQUENCE = [["derive-super"], ["bracket-table", "--algebra", "sl2"],
            ["verify-liouville", "--f", "x+1", "--g", "y+1", "--order", "4"],
            ["verify-liouville", "--f", "x+1"],  # usage error: exit 2
            ["obstruction"], ["-h"], ["verify-lse", "-h"],
            ["bracket-table", "--algebra", "osp12"]]


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error and -h
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    codes = [_in_process(capsys, argv)[0] for argv in SEQUENCE]
    assert codes == [0, 0, 0, 2, 0, 0, 0, 0]
    one_build = len(built)
    cli.build_parser.__wrapped__()  # the root parser and one per verb
    assert len(built) == 2 * one_build == 2 * 9


def test_in_process_calls_match_a_fresh_process(monkeypatch, capsys):
    # help text wraps at the terminal width: fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(zcurv.__file__).parents[1])}
    cli.build_parser.cache_clear()
    first = [_in_process(capsys, argv) for argv in SEQUENCE]
    again = [_in_process(capsys, argv) for argv in SEQUENCE]
    assert again == first
    for argv, got in zip(SEQUENCE, again):
        proc = subprocess.run([sys.executable, "-m", "zcurv.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv


@pytest.mark.parametrize("files,argv,env,code,line", [
    ({}, ["verify-liouville", "--f", "x+1", "--g", "y+1"], "abc", 3,
     "error: ZCURV_ORDER must be an integer >= 3, got 'abc'"),
    (_verify_lse({"components": ["-ln(x+y)"]})[0],
     _verify_lse({})[1] + ["--tol", "1e-9"], None, 1,
     "verification failed: residual 0.75 exceeds 1e-09"),
    ({}, ["verify-liouville", "--f", "x+1", "--g", "y+1", "--base", "1"], None,
     3, "error: --base expects 'x0,y0', got '1'"),
    ({"b.json": json.dumps({k: v for k, v in BOUNDARY.items() if k != "y1"})},
     _solve({})[1], None, 3,
     "error: b.json: bad boundary document ('y1')"),
], ids=["order-env-not-an-integer", "tol-exceeded", "base-without-comma",
        "boundary-without-y1"])
def test_each_failure_path_prints_its_line(tmp_path, monkeypatch, capsys,
                                           files, argv, env, code, line):
    monkeypatch.chdir(tmp_path)
    if env is not None:
        monkeypatch.setenv("ZCURV_ORDER", env)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    got, _, err = run(capsys, *argv)
    assert (got, err) == (code, line + "\n")


@pytest.mark.parametrize("argv,fragment", [
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base", "1" * 3000],
     "--base expects 'x0,y0', got '111"),
    (_solve({}, h="-1." + "0" * 3000)[1], "--h must be positive, got '-1.000"),
    (["verify-liouville", "--f", "a" * 5000, "--g", "y+1"],
     "unknown name (at position 1)"),
], ids=["base", "h", "unknown-name"])
def test_long_values_are_echoed_clipped(tmp_path, monkeypatch, capsys, argv,
                                        fragment):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps(BOUNDARY))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert fragment in err and "characters)" in err
    assert err.count("\n") == 1 and len(err) < 200


@pytest.mark.parametrize("argv,line", [
    (["verify-liouville", "--f", "x+1", "--g", "y+1", "--base", "1" * 46],
     f"error: --base expects 'x0,y0', got '{'1' * 46}'"),
    (_solve({}, h="-" + "1" * 45)[1],
     f"error: --h must be positive, got '-{'1' * 45}'"),
    (["verify-liouville", "--f", "x+z", "--g", "y+1"],
     "error: bad expression 'x+z': unknown name (at position 3)"),
], ids=["base", "h", "unknown-name"])
def test_short_values_are_echoed_whole(tmp_path, monkeypatch, capsys, argv,
                                       line):
    # a repr of 48 characters is the longest that _clip leaves whole
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.json").write_text(json.dumps(BOUNDARY))
    assert run(capsys, *argv) == (3, "", line + "\n")
