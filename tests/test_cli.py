import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import zcurv

from conftest import DATA, GOLDEN
from zcurv.cli import main


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
    pytest.param(*_solve({"x_edge": ["1/y"], "y_edge": ["1/x"]}),
                 id="trace-divides-by-zero"),
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
    pytest.param(*_verify_lse({"components": ["(" * 3000 + "x" + ")" * 3000]}),
                 id="component-nested-too-deeply"),
    pytest.param(*_solve({"y_edge": ["+".join(["x"] * 3000)]}),
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


def test_huge_integer_power_is_fast(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "verify-liouville", "--f", "x^1000000+1",
                       "--g", "y+1", "--order", "2")
    assert time.perf_counter() - start < 0.5
    assert code == 3
    assert "vanishes" in err
