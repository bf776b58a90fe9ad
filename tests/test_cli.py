"""End-to-end command-line tests: exit codes, report schema, artifacts."""

import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isocurv
from isocurv import cli
from isocurv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write_spec(tmp_path, name, payload):
    return write_spec_text(tmp_path, name, json.dumps(payload))


def write_spec_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


CASE_A = {"kind": "CaseA", "f0": 1.0, "m0": 1.0, "n0": 2.0, "d1": 0.0, "d2": 0.0}
CASE_31 = {
    "kind": "Case31Candidate",
    "c3": 1.0,
    "c4": 1.0,
    "d7": 0.0,
    "d8": 0.0,
    "d9": 0.0,
    "m0": 1.0,
}


# -- eval ---------------------------------------------------------------------------


def test_eval_report(capsys):
    code, report, err = run_cli(
        capsys, "eval", "--surface", "x^2*y+3*x*y", "--at", "2,5"
    )
    assert code == 0
    assert err == ""
    assert report["schema_version"] == 2
    assert report["command"] == "eval"
    assert report["surface"] == "x^2*y+3*x*y"
    assert report["params"] == {"at": [2.0, 5.0]}
    assert report["result"]["jet"] == {
        "v": 50.0,
        "dx": 35.0,
        "dy": 10.0,
        "dxx": 10.0,
        "dxy": 7.0,
        "dyy": 0.0,
    }
    assert report["result"]["K"] == -49.0
    assert report["result"]["H"] == 5.0
    assert report["result"]["euler_residual"] == 296.0
    assert report["pass"] is None


def test_eval_prints_structural_zeros_unsigned(capsys):
    # One jet operation at a time gives -0.0 here; the folded kernel +0.0.
    main(["eval", "--surface=-(x+y)", "--at=0.5,0.25"])
    jet = json.loads(capsys.readouterr().out)["result"]["jet"]
    assert [str(jet[k]) for k in ("dxx", "dxy", "dyy")] == ["0.0", "0.0", "0.0"]


def test_eval_normalizes_surface_text(capsys):
    code, report, _ = run_cli(capsys, "eval", "--surface", " x + (y) ", "--at", "0,0")
    assert code == 0
    assert report["surface"] == "x+y"


def test_eval_parse_error(capsys):
    code, report, err = run_cli(capsys, "eval", "--surface", "x + * y", "--at", "0,0")
    assert code == 2
    assert report is None
    assert err.startswith("error:")
    assert "(offset 4)" in err


@pytest.mark.parametrize("surface, offset", [("x^1e999", 1), ("y+x^-1e999", 3)])
def test_eval_refuses_an_infinite_exponent(capsys, surface, offset):
    code, report, err = run_cli(capsys, "eval", "--surface", surface, "--at", "1,1")
    assert code == 2
    assert report is None
    assert err == f"error: exponent does not fold to a real constant (offset {offset})\n"


def test_eval_prints_an_infinite_constant(capsys):
    code, report, err = run_cli(capsys, "eval", "--surface", "x+1e999^0", "--at", "1,1")
    assert (code, err) == (0, "")
    assert report["surface"] == "x+1e999^0"
    assert report["result"]["jet"]["v"] == 2.0


def test_eval_singularity_is_an_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--surface", "1/x", "--at", "0,0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        # The jet is finite, but K = -(1e200)^2 overflows.
        "eval --surface 1e200*x*y --at 1,1",
        # A NaN coefficient is refused when the relation is built.
        "scan --surface x^2+y^2 --residual lw --a nan --b 1 --c 0 --grid 5,5",
        # An infinite span / step ratio is above the step cap.
        "ode --ode saturated-linear --c5 1 --f0 1 --fp0 0 --t-end 1e300 --step 1e-300",
    ],
)
def test_non_finite_or_arithmetic_failure_is_refused(capsys, argv):
    code, report, err = run_cli(capsys, *argv.split())
    assert code == 2
    assert report is None
    assert err.startswith("error:")
    assert err.count("\n") == 1  # one line, no traceback


ODE_SR = "ode --ode shifted-reciprocal --c3 1 --m0 1 --f0 -1 --fp0 0.25 --t-end 1 --step 0.1 --out {out}"
ODE_SL = "ode --ode saturated-linear --c5 1 --f0 1 --fp0 0 --t-end 1 --step 0.1 --out {out}"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("eval --surface sin(x*x) --at 1e160,0", "sin of non-finite argument inf"),
        ("scan --surface x^2+y^2 --residual euler --grid 5,5 --exclusion nan",
         "exclusion_radius must be finite"),
        ("scan --surface x^2+y^2 --residual euler --grid 5,5 --domain=-inf,1,-1,1",
         "x_min must be finite"),
        ("scan --surface 1e200*x*y --residual lw --a 1 --b 0 --c 1 --grid 5,5",
         "non-finite residual nan at (x, y) = (-1.0, -1.0)"),
        ("scan --surface ln(x) --residual euler --grid 5,5",
         "ln of non-positive value -1.0 at (x, y) = (-1.0, -1.0) in the euler residual"),
        # (c4 x + d9)^4 overflows in the contradiction scan.
        ("verify-family --spec {spec}", "relation defect overflows at sample x = -1.0"),
        # K = -(c8 c9)^2 once raised a bare OverflowError from float **.
        ("verify-family --spec {casec} --grid 3,3", "predicted K = -inf of CaseC overflows"),
        ("mesh --surface 1/x --grid 3,3 --exclusion 0 --out {out}",
         "division by a quantity with zero value at (x, y) = (0.0, -1.0)"),
        # A non-finite constant is named before any file is written.
        pytest.param(ODE_SR.replace("--m0 1", "--m0 inf"), "m0 must be finite", id="ode-m0"),
        pytest.param(ODE_SR.replace("--c3 1", "--c3 nan"), "c3 must be finite", id="ode-c3"),
        pytest.param(ODE_SL.replace("--c5 1", "--c5 -inf"), "c5 must be finite", id="ode-c5"),
        pytest.param(ODE_SL + " --d10 inf", "d10 must be finite", id="ode-d10"),
        pytest.param(ODE_SR + " --oracle-c4 inf --oracle-d9 2", "oracle_c4 must be finite", id="ode-oracle-c4"),
        pytest.param(ODE_SR + " --oracle-c4 1 --oracle-d9 nan", "oracle_d9 must be finite", id="ode-oracle-d9"),
        pytest.param(ODE_SR + " --oracle-c4 1 --oracle-d9 2 --tol nan", "tol must be finite", id="ode-tol-nan"),
        pytest.param(ODE_SL + " --tol inf", "tol must be finite", id="ode-tol-inf"),
        # The initial values and the span are named by their flags, not IVP's fields.
        pytest.param(ODE_SL.replace("--f0 1", "--f0 nan"), "f0 must be finite", id="ode-f0"),
        pytest.param(ODE_SL.replace("--fp0 0", "--fp0 inf"), "fp0 must be finite", id="ode-fp0"),
        pytest.param(ODE_SL + " --t0=-inf", "t0 must be finite", id="ode-t0"),
        pytest.param(ODE_SL.replace("--t-end 1", "--t-end inf"), "t_end must be finite", id="ode-t-end"),
        pytest.param(ODE_SL.replace("--step 0.1", "--step nan"), "step must be finite", id="ode-step"),
        # A tolerance or relation constant is named before any scan runs.
        pytest.param("scan --surface x --residual euler --grid 3,3 --tol inf", "tol must be finite",
                     id="scan-tol-inf"),
        pytest.param("scan --surface x --residual jacobian --grid 3,3 --tol=-1", "tol must be at least 0.0",
                     id="scan-tol-negative"),
        pytest.param("verify-family --spec {casea} --tol nan", "tol must be finite", id="family-tol-nan"),
        pytest.param("verify-family --spec {c31} --n0 inf", "n0 must be finite", id="family-n0-inf"),
        pytest.param("verify-family --spec {c31} --n0 -nan", "n0 must be finite", id="family-n0-nan"),
        pytest.param(ODE_SL + " --tol=-1e-300", "tol must be at least 0.0", id="ode-tol-negative"),
        # Python's json reads Infinity, NaN and integers of any size.
        pytest.param("mesh --spec {d9_inf} --out {out}", "field 'd9' must be finite", id="spec-infinity"),
        pytest.param("mesh --spec {d9_nan} --out {out}", "field 'd9' must be finite", id="spec-nan"),
        pytest.param("mesh --spec {d9_huge} --out {out}", "field 'd9' must be finite", id="spec-huge-int"),
        pytest.param("verify-family --spec {c8_1e400}", "field 'c8' must be finite", id="spec-1e400"),
        # A non-finite point once reached json (inf) or the jet's guard (nan).
        pytest.param("eval --surface 1 --at=inf,0", "at must be finite", id="eval-at-inf"),
        pytest.param("eval --surface 1 --at=-inf,0", "at must be finite", id="eval-at-minus-inf"),
        pytest.param("eval --surface 1 --at=0,nan", "at must be finite", id="eval-at-nan"),
        # Finite ends whose span overflows once gave the node x = nan.
        pytest.param("scan --surface 1 --residual euler --grid 2,2 --domain=-1e308,1e308,-1,1",
                     "x_max - x_min must be finite", id="scan-span"),
        pytest.param("mesh --surface x --grid 2,2 --domain=-1e308,1e308,-1,1 --out {out}",
                     "x_max - x_min must be finite", id="mesh-span"),
        pytest.param("verify-family --spec {casea} --grid 3,3 --domain=-1,1,-1.7e308,1.7e308",
                     "y_max - y_min must be finite", id="family-span"),
        # A report that json refuses names its first non-finite value.
        pytest.param("eval --surface=1e200*x*y --at=1,1", "result.K = -inf is not finite", id="report-K"),
        pytest.param("scan --surface=x*y --residual lw --a 1 --b 1e-320 --c 1e10 --grid 3,3",
                     "params.lw.m0 = inf is not finite", id="report-m0"),
        pytest.param("scan --surface=-x*y --residual lw --a=1e308 --b 1e154 --c=1e308 "
                     "--domain 1.0,3.0,0.5,3.0 --grid 2,2", "result.mean_abs = inf is not finite",
                     id="report-mean-abs"),
        # The variance's squares once raised a bare OverflowError.
        pytest.param("scan --surface=1e200*x^3 --residual lw --a 1 --b 0 --c 0 --grid 3,3",
                     "result.std_dev = inf is not finite", id="report-std-dev"),
        # n0 / (f0 * m0) once divided by the product's underflow to zero.
        pytest.param("verify-family --spec {casea_tiny}", "CaseA requires f0 * m0 != 0",
                     id="family-casea-product"),
        pytest.param("mesh --spec {casea_tiny} --out {out}", "CaseA requires f0 * m0 != 0",
                     id="mesh-casea-product"),
        pytest.param("verify-family --spec {caseb_tiny}", "CaseB requires g0 * m0 != 0",
                     id="family-caseb-product"),
        pytest.param("mesh --spec {caseb_tiny} --out {out}", "CaseB requires g0 * m0 != 0",
                     id="mesh-caseb-product"),
    ],
)
def test_non_finite_input_is_named(capsys, tmp_path, argv, message):
    specs = {
        "spec": json.dumps(dict(CASE_31, c4=1e100, d8=1.0, d9=0.5)),
        "casec": '{"kind": "CaseC", "c8": 1e200, "d15": 1.0, "c9": 3.0, "d16": 4.0}',
        "casea": json.dumps(CASE_A),
        "c31": json.dumps(CASE_31),
        "c8_1e400": '{"kind": "CaseC", "c8": 1e400, "d15": 1.0, "c9": 3.0, "d16": 4.0}',
        "d9_inf": json.dumps(dict(CASE_31, d9=math.inf)),
        "d9_nan": json.dumps(dict(CASE_31, d9=math.nan)),
        "d9_huge": json.dumps(dict(CASE_31, d9=10**400)),
        "casea_tiny": json.dumps(dict(CASE_A, f0=1e-200, m0=1e-200, n0=1.0)),
        "caseb_tiny": '{"kind": "CaseB", "g0": 1e-200, "m0": 1e-200, "n0": 1, "d3": 0, "d4": 0}',
    }
    paths = {name: write_spec_text(tmp_path, f"{name}.json", text) for name, text in specs.items()}
    out = tmp_path / "out"
    code, report, err = run_cli(capsys, *argv.format(out=out, **paths).split())
    assert (code, report, err) == (2, None, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("eval --surface x --at 1", "argument --at: expected X,Y"),
        ("eval --surface x --at 1,x", "argument --at: bad number in '1,x'"),
        ("scan --surface x --residual euler --grid 2,x", "argument --grid: bad integer in '2,x'"),
        ("scan --surface x --residual euler --grid 2,2,2", "argument --grid: expected NX,NY"),
        ("scan --surface x --residual euler --domain 1,2,3",
         "argument --domain: expected XMIN,XMAX,YMIN,YMAX"),
    ],
)
def test_number_lists_are_checked(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, None, f"error: {message}\n")


EVAL = "eval --surface x*y --at 1,2"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("", "expected a subcommand (eval, scan, verify-family, ode, mesh), got nothing"),
        ("evaluate --surface x", "expected a subcommand (eval, scan, verify-family, ode, mesh), got 'evaluate'"),
        (EVAL + " --nope 1", "unrecognized argument '--nope' to eval"),
        (EVAL + " --tol=1", "unrecognized argument '--tol=1' to eval"),
        (EVAL + " stray", "unrecognized argument 'stray' to eval"),
        # A unique prefix is no abbreviation of its flag.
        ("eval --sur x*y --at 1,2", "unrecognized argument '--sur' to eval"),
        (EVAL + " --at", "argument --at: expected one argument"),
        ("eval --at 1,2", "the following arguments are required: --surface"),
        ("ode --ode saturated-linear --c5 1", "the following arguments are required: --f0, --fp0, --t-end, --step"),
        ("scan --surface x --residual cubic", "argument --residual: invalid choice: 'cubic' (choose from lw, euler, jacobian)"),
        ("scan --surface x --residual euler --exclusion r", "argument --exclusion: could not convert string to float: 'r'"),
        ("scan --surface x --residual euler --tol=-1", "tol must be at least 0.0"),
        # Every flag's place is checked before the first -h.
        ("eval --at 1 -h", "argument --at: expected X,Y"),
    ],
)
def test_usage_errors_take_the_one_exit_2_path(capsys, argv, message):
    assert run_cli(capsys, *argv.split()) == (2, None, f"error: {message}\n")


def test_the_last_of_a_repeated_flag_wins(capsys):
    code, report, err = run_cli(capsys, *EVAL.split(), "--at=3,4", "--surface", "x+y")
    assert (code, err, report["surface"], report["params"]["at"]) == (0, "", "x+y", [3.0, 4.0])


@pytest.mark.parametrize("command", [None, "eval", "scan", "verify-family", "ode", "mesh"])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag_of_the_table(capsys, command, flag):
    from isocurv.cli import _COMMANDS, _REQUIRED

    # Help is printed at the first -h, before any later argument is read.
    argv = [flag] if command is None else [command, flag, "--nope"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and lines[0] == f"usage: isocurv {command or 'SUBCOMMAND'} [--flag VALUE ...]"
    names = list(_COMMANDS) if command is None else list(_COMMANDS[command][2])
    assert [line.split()[0] for line in lines[1:]] == names
    if command is not None:
        for line, (_, default, _) in zip(lines[1:], _COMMANDS[command][2].values()):
            assert line.endswith(" (required)") == (default is _REQUIRED)
            if default is not None and default is not _REQUIRED:
                assert "(default " in line


@pytest.mark.parametrize(
    "argv, key, value",
    [
        ("ode --ode saturated-linear --c5 1 --f0 1 --fp0 -1e-05 --t-end 0.1 --step 0.01", "fp0", -1e-05),
        ("ode --ode saturated-linear --c5 -2e-3 --f0 1 --fp0 0 --t-end 0.1 --step 0.01", "c5", -2e-3),
        ("ode --ode saturated-linear --c5 1 --f0 -1E+2 --fp0 0 --t0 -1e-3 --t-end 0.1 --step 0.01",
         "t0", -1e-3),
        ("scan --surface x --residual lw --a -1e0 --b 0 --c -.5e1 --grid 2,2", "lw",
         {"a": -1.0, "b": 0.0, "c": -5.0}),
        ("scan --surface x --residual euler --domain -1,1,-2e-1,1 --grid 2,2", "domain",
         [-1.0, 1.0, -0.2, 1.0]),
        ("eval --surface x*y --at -1e-3,-2", "at", [-1e-3, -2.0]),
    ],
)
def test_negative_numbers_in_exponent_form_are_values(capsys, argv, key, value):
    # The argument after a flag is its value, whatever it starts with.
    code, report, err = run_cli(capsys, *argv.split())
    assert code in (0, 1) and err == ""
    assert report["params"][key] == value


def test_a_surface_that_starts_with_minus_is_a_value(capsys):
    for argv in (["--surface", "-x*y"], ["--surface=-x*y"]):
        code, report, err = run_cli(capsys, "eval", *argv, "--at", "1,2")
        assert (code, report["surface"], report["result"]["jet"]["v"], err) == (0, "-x*y", -2.0, "")


@pytest.mark.parametrize(
    "surface",
    ["(" * 250 + "x" + ")" * 250, "x" + "+x" * 999, "-" * 1000 + "x"],
    ids=["parentheses", "sum", "unary minus"],
)
@pytest.mark.parametrize("command", ["eval --at 0.5,0.5", "scan --residual euler --grid 3,3"])
def test_a_surface_that_nests_too_deeply_is_an_error(capsys, command, surface):
    code, report, err = run_cli(capsys, *command.split(), f"--surface={surface}")
    assert (code, report) == (2, None)
    assert re.fullmatch(r"error: expression nests too deeply \(offset \d+\)\n", err)


@pytest.mark.parametrize("command", ["verify-family", "mesh --out {out}"])
def test_a_spec_that_nests_too_deeply_is_invalid_json(capsys, tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    argv = command.format(out=tmp_path / "mesh.obj").split()
    code, report, err = run_cli(capsys, *argv, "--spec", str(path))
    assert (code, report) == (2, None)
    assert err.startswith("error: invalid JSON in family spec: ") and err.count("\n") == 1
    assert not (tmp_path / "mesh.obj").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ("scan --surface x --residual euler --grid 100000,100000",
         "grid exceeds the cap of 10000000 nodes"),
        ("ode --ode saturated-linear --c5 1 --f0 1 --fp0 0 --t-end 1e6 --step 1e-6",
         "span / step exceeds the cap of 10000000 steps"),
    ],
)
def test_work_is_capped(argv, message):
    # In a child with a short timeout: without the cap these would run for hours.
    proc = subprocess.run(
        [sys.executable, "-m", "isocurv", *argv.split()],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_eval_is_byte_stable(capsys):
    main(["eval", "--surface", "exp(x)*sin(y)", "--at", "0.3,0.7"])
    first = capsys.readouterr().out
    main(["eval", "--surface", "exp(x)*sin(y)", "--at", "0.3,0.7"])
    second = capsys.readouterr().out
    assert first == second


# -- report writer ------------------------------------------------------------------

# What a report can hold: strings with every escape json.dumps writes (quote,
# backslash, control characters, DEL, BMP and astral characters, lone
# surrogates), ints past 64 bits, bools, None and floats whose repr is
# unusual, nested in dicts, lists and tuples, empty ones included.
TEXTS = st.one_of(
    st.text(max_size=8),
    st.text(st.sampled_from('az "\\\x00\x08\x1f\x7f\x80\u00e9\u2028\uffff\U0001f600\U0010ffff\ud800'),
            max_size=8),
)
SCALARS = st.one_of(
    TEXTS,
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80) | st.sampled_from([2**64, -(2**64) - 1, 10**30]),
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1e22, 0.1]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXTS, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=500, deadline=None)
@given(VALUES)
def test_the_report_writer_writes_the_bytes_of_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, allow_nan=False)


def plant(data, value, bad: float, path: str) -> tuple:
    """value with bad in place of it or of one part of it, drawn, and the
    path of that place by keys and indices."""
    if isinstance(value, (dict, list, tuple)) and value and data.draw(st.booleans()):
        keys = list(value) if isinstance(value, dict) else range(len(value))
        key = data.draw(st.sampled_from(keys))
        part, where = plant(data, value[key], bad, f"{path}.{key}" if isinstance(value, dict)
                            else f"{path}[{key}]")
        if isinstance(value, dict):
            return {**value, key: part}, where
        return type(value)(part if i == key else v for i, v in enumerate(value)), where
    return bad, path


@settings(max_examples=300, deadline=None)
@given(VALUES, st.data())
def test_main_writes_a_report_or_names_its_first_non_finite_value(value, data):
    """main writes what json.dumps writes, or, for a report with a NaN or an
    infinity anywhere, one error line naming it and exit code 2."""
    bad = data.draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    result, where = plant(data, value, bad, "result") if bad is not None else (value, None)
    out, err = io.StringIO(), io.StringIO()
    run = {"eval": lambda args: ("x", {"p": 1.5}, result, None, {})}
    with mock.patch.dict(cli._DISPATCH, run), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(["eval", "--surface", "x", "--at", "1,2"])
    if bad is None:
        report = {"schema_version": 2, "command": "eval", "surface": "x", "params": {"p": 1.5},
                  "result": result, "pass": None, "tolerances": {}}
        assert (code, out.getvalue(), err.getvalue()) == (
            0, json.dumps(report, indent=2, allow_nan=False) + "\n", "")
    else:
        assert (code, out.getvalue(), err.getvalue()) == (
            2, "", f"error: {where} = {bad!r} is not finite\n")


# -- scan ---------------------------------------------------------------------------


def test_scan_lw_pass(capsys):
    code, report, _ = run_cli(
        capsys,
        "scan",
        "--surface",
        "0.5*(x^2+y^2)",
        "--residual",
        "lw",
        "--a",
        "1",
        "--b",
        "1",
        "--c",
        "2",
    )
    assert code == 0
    assert report["pass"] is True
    assert report["result"]["max_abs"] == 0.0
    assert report["result"]["n_samples"] == 101 * 101
    assert report["params"]["lw"] == {"a": 1.0, "b": 1.0, "c": 2.0, "m0": 0.5, "n0": 2.0}
    assert report["tolerances"] == {"lw": 1e-9}


def test_scan_euler_fail(capsys):
    code, report, _ = run_cli(
        capsys, "scan", "--surface", "x*y", "--residual", "euler", "--grid", "5,5"
    )
    assert code == 1
    assert report["pass"] is False
    assert report["result"]["max_abs"] == 4.0
    assert report["result"]["std_dev"] == 0.0


def test_scan_constant_residual_has_exactly_zero_deviation(capsys):
    # The Euler residual of x^2+0.62*y^2 is 0.5776 at every node.
    code, report, _ = run_cli(
        capsys,
        "scan",
        "--surface",
        "x^2+0.62*y^2",
        "--residual",
        "euler",
        "--grid",
        "101,101",
    )
    assert code == 1
    assert report["result"]["max_abs"] == pytest.approx(0.5776, rel=1e-12)
    assert report["result"]["std_dev"] == 0.0


def test_scan_tol_override_flips_the_verdict(capsys):
    code, report, _ = run_cli(
        capsys,
        "scan",
        "--surface",
        "x*y",
        "--residual",
        "euler",
        "--grid",
        "5,5",
        "--tol",
        "10",
    )
    assert code == 0
    assert report["pass"] is True
    assert report["tolerances"] == {"euler": 10.0}


def test_scan_jacobian(capsys):
    code, report, _ = run_cli(
        capsys,
        "scan",
        "--surface",
        "0.5*(x^2+y^2)",
        "--residual",
        "jacobian",
        "--grid",
        "7,7",
    )
    assert code == 0
    assert report["pass"] is True
    assert report["tolerances"] == {"jacobian": 1e-6}


@pytest.mark.parametrize(
    "surface, code, max_abs",
    [
        # A rotational W-surface: the exact Jacobian leaves only rounding.
        ("exp(x^2+y^2)", 0, 1e-9),
        # 108 (y - x), largest at (1, -1).
        ("x^3+y^3", 1, 216.0),
    ],
)
def test_scan_jacobian_is_exact(capsys, surface, code, max_abs):
    argv = ("scan", "--surface", surface, "--residual", "jacobian", "--grid", "51,51")
    got, report, _ = run_cli(capsys, *argv)
    assert got == code
    assert report["tolerances"] == {"jacobian": 1e-6}
    if code:
        assert report["result"]["max_abs"] == max_abs
    else:
        assert report["result"]["max_abs"] <= max_abs


def test_scan_lw_requires_coefficients(capsys):
    code, report, err = run_cli(
        capsys, "scan", "--surface", "x*y", "--residual", "lw", "--a", "1"
    )
    assert code == 2
    assert report is None
    assert "--a, --b, and --c" in err


def test_scan_lw_without_k_term_skips_normalization(capsys):
    code, report, _ = run_cli(
        capsys,
        "scan",
        "--surface",
        "x^2-y^2",
        "--residual",
        "lw",
        "--a",
        "1",
        "--b",
        "0",
        "--c",
        "0",
        "--grid",
        "5,5",
    )
    assert code == 0
    assert report["pass"] is True
    assert report["params"]["lw"] == {"a": 1.0, "b": 0.0, "c": 0.0}


def test_scan_domain_flags(capsys):
    code, report, _ = run_cli(
        capsys,
        "scan",
        "--surface",
        "x*y",
        "--residual",
        "euler",
        "--domain",
        "0,2,0,4",
        "--grid",
        "3,5",
        "--tol",
        "5",
    )
    assert code == 0
    assert report["params"]["domain"] == [0.0, 2.0, 0.0, 4.0]
    assert report["params"]["grid"] == [3, 5]
    assert report["result"]["n_samples"] == 15


# -- verify-family ------------------------------------------------------------------


def test_verify_family_constant(capsys, tmp_path):
    spec_path = write_spec(tmp_path, "a.json", CASE_A)
    code, report, _ = run_cli(capsys, "verify-family", "--spec", spec_path)
    assert code == 0
    assert report["pass"] is True
    assert report["surface"] == "1*(2*y^2)"
    assert report["result"]["check"] == "constant_invariants"
    assert report["result"]["predicted"] == {"K": 0.0, "H": 2.0}
    assert report["result"]["max_abs"] == 0.0
    assert report["params"]["spec"] == CASE_A
    assert report["tolerances"] == {"family": 1e-9}


def test_verify_family_contradiction(capsys, tmp_path):
    spec_path = write_spec(tmp_path, "c31.json", CASE_31)
    code, report, _ = run_cli(capsys, "verify-family", "--spec", spec_path)
    assert code == 0
    assert report["pass"] is True
    assert report["result"]["check"] == "contradiction_scan"
    # the pole column x = 0 is excluded by the default radius
    assert report["result"]["n_samples"] == 100
    assert report["result"]["std_dev"] > 0.0
    assert report["params"]["n0"] == 0.0
    assert report["tolerances"] == {"min_samples": 3}


def test_a_contradiction_sample_is_refused_only_where_it_cannot_be_evaluated(capsys, tmp_path):
    # With c4 = 1e-11 every sample off the pole x = 0 has |c4 x + d9| below
    # 1e-12, and its defect is still a finite float.
    spec_path = write_spec(tmp_path, "c31.json", {**CASE_31, "c4": 1e-11})
    code, report, err = run_cli(capsys, "verify-family", "--spec", spec_path)
    assert (code, err) == (0, "")
    assert report["result"]["n_samples"] == 100
    # With c4 = 1e-100, (c4 x + d9)^4 underflows to 0.0 at every sample.
    spec_path = write_spec(tmp_path, "c31.json", {**CASE_31, "c4": 1e-100})
    code, report, err = run_cli(capsys, "verify-family", "--spec", spec_path)
    assert (code, report, err) == (2, None, "error: relation defect overflows at sample x = -1.0\n")


def test_verify_family_contradiction_custom_n0(capsys, tmp_path):
    spec_path = write_spec(tmp_path, "c31.json", CASE_31)
    code, report, _ = run_cli(
        capsys, "verify-family", "--spec", spec_path, "--n0", "-1.0"
    )
    assert code == 0
    assert report["pass"] is True  # shifting n0 cannot make the defect constant
    assert report["params"]["n0"] == -1.0


@pytest.mark.parametrize("n0", ["0", "-1.8"])
def test_verify_family_contradiction_within_rounding_fails(capsys, tmp_path, n0):
    # Three samples an ulp or two apart: a std_dev of about 1e-16 is noise.
    spec_path = write_spec(tmp_path, "c31.json", {**CASE_31, "d9": 2.0})
    code, report, _ = run_cli(capsys, "verify-family", "--spec", spec_path, "--n0", n0,
                              "--domain=0.5,0.5000000000000003,-1,1", "--grid=3,3")
    assert code == 1
    assert report["pass"] is False
    assert report["result"]["n_samples"] == 3
    assert 0.0 < report["result"]["std_dev"] < 1e-15


def test_verify_family_contradiction_with_every_column_excluded(capsys, tmp_path):
    spec_path = write_spec(tmp_path, "c31.json", CASE_31)
    code, report, err = run_cli(capsys, "verify-family", "--spec", spec_path, "--exclusion", "5")
    assert (code, report, err) == (2, None, "error: every grid node was excluded\n")


def test_verify_family_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, report, err = run_cli(capsys, "verify-family", "--spec", str(path))
    assert code == 2
    assert report is None
    assert "invalid JSON" in err


def test_verify_family_unknown_kind(capsys, tmp_path):
    spec_path = write_spec(tmp_path, "z.json", {"kind": "CaseZ"})
    code, _, err = run_cli(capsys, "verify-family", "--spec", spec_path)
    assert code == 2
    assert "unknown family kind" in err


@pytest.mark.parametrize("kind", [["CaseA"], {"name": "CaseA"}, None, 1.0, True])
@pytest.mark.parametrize("command", ["verify-family", "mesh"])
def test_a_kind_that_is_not_a_string_is_refused_by_name(capsys, tmp_path, command, kind):
    # A list or an object once reached the kinds table and raised an
    # unhashable-type TypeError; null once read as a missing field.
    spec_path = write_spec(tmp_path, "k.json", {**CASE_A, "kind": kind})
    extra = ["--out", str(tmp_path / "m.obj")] if command == "mesh" else []
    code, report, err = run_cli(capsys, command, "--spec", spec_path, *extra)
    assert (code, report, err) == (2, None, "error: field 'kind' must be a string\n")


def test_verify_family_missing_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "verify-family", "--spec", str(tmp_path / "nope.json")
    )
    assert code == 2
    assert "error:" in err


def test_verify_family_refuses_an_overflowing_prediction(capsys, tmp_path):
    # K = 4 c3^2 overflows; the scan once passed with max_abs 0.0 (inf - inf
    # is NaN, and max(0.0, nan) is 0.0), then json refused the report.
    spec = {"kind": "ParabolicSphere", "c3": 1e200, "d8": 0.0, "d9": 0.0, "d10": 0.0}
    spec_path = write_spec(tmp_path, "sphere.json", spec)
    code, report, err = run_cli(capsys, "verify-family", "--spec", spec_path, "--grid", "3,3")
    assert (code, report, err) == (2, None, "error: predicted K = inf of ParabolicSphere overflows\n")


# -- ode ----------------------------------------------------------------------------


def test_ode_saturated_linear_with_implicit_oracle(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, report, _ = run_cli(
        capsys,
        "ode",
        "--ode",
        "saturated-linear",
        "--c5",
        "1",
        "--f0",
        "1",
        "--fp0",
        "0",
        "--t-end",
        "1",
        "--step",
        "0.001",
        "--out",
        str(out),
    )
    assert code == 0
    assert report["pass"] is True
    assert report["result"]["n_steps"] == 1000
    assert report["result"]["oracle_max_dev"] < 1e-6
    assert report["result"]["csv"] == str(out)
    assert report["surface"] is None
    assert report["tolerances"] == {"oracle": 1e-6}

    with open(out, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "f", "fp"]
    assert len(rows) == 1002
    assert [float(v) for v in rows[1]] == [0.0, 1.0, 0.0]
    assert float(rows[-1][0]) == pytest.approx(1.0, abs=1e-12)


def test_ode_shifted_reciprocal_with_oracle_flags(capsys):
    code, report, _ = run_cli(
        capsys,
        "ode",
        "--ode",
        "shifted-reciprocal",
        "--c3",
        "1",
        "--m0",
        "1",
        "--f0",
        "-1",
        "--fp0",
        "0.25",
        "--t-end",
        "2",
        "--step",
        "0.001",
        "--oracle-c4",
        "1",
        "--oracle-d9",
        "2",
    )
    assert code == 0
    assert report["pass"] is True
    assert report["result"]["oracle_max_dev"] < 1e-6
    assert report["result"]["endpoint"]["f"] == pytest.approx(-0.75, abs=1e-9)
    assert report["params"]["c3"] == 1.0


def test_ode_saturated_with_d10_has_no_oracle(capsys):
    code, report, _ = run_cli(
        capsys,
        "ode",
        "--ode",
        "saturated-linear",
        "--c5",
        "1",
        "--d10",
        "0.5",
        "--f0",
        "0.1",
        "--fp0",
        "0",
        "--t-end",
        "1",
        "--step",
        "0.01",
    )
    assert code == 0
    assert report["pass"] is None
    assert report["result"]["oracle_max_dev"] is None
    assert report["tolerances"] == {}
    assert report["result"]["csv"] is None


def test_ode_missing_rhs_parameters(capsys):
    code, _, err = run_cli(
        capsys,
        "ode",
        "--ode",
        "shifted-reciprocal",
        "--f0",
        "1",
        "--fp0",
        "0",
        "--t-end",
        "1",
        "--step",
        "0.1",
    )
    assert code == 2
    assert "--c3 and --m0" in err


def test_ode_saturated_linear_needs_c5(capsys):
    code, report, err = run_cli(
        capsys, *"ode --ode saturated-linear --f0 1 --fp0 0 --t-end 1 --step 0.1".split()
    )
    assert (code, report, err) == (2, None, "error: saturated-linear needs --c5\n")


def test_ode_oracle_flags_must_pair(capsys):
    code, _, err = run_cli(
        capsys,
        "ode",
        "--ode",
        "shifted-reciprocal",
        "--c3",
        "1",
        "--m0",
        "1",
        "--f0",
        "-1",
        "--fp0",
        "0.25",
        "--t-end",
        "1",
        "--step",
        "0.1",
        "--oracle-c4",
        "1",
    )
    assert code == 2
    assert "go together" in err


def test_ode_oversized_step_is_an_error(capsys):
    code, _, err = run_cli(
        capsys,
        "ode",
        "--ode",
        "saturated-linear",
        "--c5",
        "9",
        "--f0",
        "1",
        "--fp0",
        "0",
        "--t-end",
        "2",
        "--step",
        "1",
    )
    assert code == 2
    assert "local error" in err


def test_ode_degenerate_start_is_an_error(capsys):
    code, _, err = run_cli(
        capsys,
        "ode",
        "--ode",
        "shifted-reciprocal",
        "--c3",
        "1",
        "--m0",
        "1",
        "--f0",
        "-0.5",
        "--fp0",
        "1",
        "--t-end",
        "1",
        "--step",
        "0.1",
    )
    assert code == 2
    assert "denominator" in err


def test_ode_non_finite_state_is_refused_before_the_csv(capsys, tmp_path):
    # c5 f overflows at f0 = 1e308; the NaN state once passed the step check
    # and filled the CSV with nan rows.
    out = tmp_path / "traj.csv"
    argv = "ode --ode saturated-linear --c5 2 --d10 0.5 --f0 1e308 --fp0 0 --t-end 1 --step 0.1"
    code, report, err = run_cli(capsys, *argv.split(), "--out", str(out))
    assert (code, report, err) == (2, None, "error: non-finite state in the step from t = 0.0\n")
    assert not out.exists()


@pytest.mark.parametrize("span, t", [("--t-end 712", "710.5"), ("--t0 5 --t-end 717", "715.5")])
def test_ode_overflowing_closed_form_is_named_before_the_csv(capsys, tmp_path, span, t):
    # The solution e^-(t - t0) is tiny at t - t0 = 710.5, but cosh and sinh
    # of it are not floats; math once raised a bare OverflowError, "math
    # range error". The error names the trajectory's t.
    out = tmp_path / "traj.csv"
    argv = f"ode --ode saturated-linear --c5 1 --f0 1 --fp0=-1 {span} --step 0.05"
    code, report, err = run_cli(capsys, *argv.split(), "--out", str(out))
    assert (code, report, err) == (2, None, f"error: closed form overflows at t = {t}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # 1/(c4 t + d9) overflows, and the closed form is -inf.
        "--c3 1 --m0 1 --f0 1 --fp0 0 --t0 0.1 --t-end 1 --step 0.1 --oracle-c4 1e-310 --oracle-d9 0",
        # f - oracle overflows.
        "--c3 0.5 --m0 1e308 --f0 1e308 --fp0 0 --t-end 1 --step 0.5 --oracle-c4 1 --oracle-d9 1",
    ],
)
def test_ode_non_finite_oracle_deviation_is_refused_before_the_csv(capsys, tmp_path, argv):
    out = tmp_path / "traj.csv"
    code, report, err = run_cli(capsys, "ode", "--ode", "shifted-reciprocal", *argv.split(),
                                "--out", str(out))
    assert (code, report, err) == (2, None, "error: result.oracle_max_dev = inf is not finite\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        "--ode saturated-linear --c5=-3.5 --d10 0.25 --f0 0.7 --fp0=-1e-05 --t0=-0.5 --t-end 1.5 --step 0.01",
        "--ode shifted-reciprocal --c3 1 --m0 1 --f0 -1 --fp0 0.25 --t-end 2 --step 0.001",
    ],
)
def test_ode_csv_bytes_are_those_of_csv_writer(capsys, tmp_path, monkeypatch, argv):
    import isocurv.cli

    integrate = isocurv.cli.integrate
    trajectories = []

    def recording(ivp):
        trajectories.append(integrate(ivp))
        return trajectories[-1]

    monkeypatch.setattr(isocurv.cli, "integrate", recording)
    out = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, "ode", *argv.split(), "--out", str(out))
    assert code == 0
    with open(tmp_path / "want.csv", "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "f", "fp"])
        writer.writerows(trajectories[0])
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()


# -- mesh ---------------------------------------------------------------------------


def test_mesh_from_surface(capsys, tmp_path):
    out = tmp_path / "patch.obj"
    code, report, _ = run_cli(
        capsys,
        "mesh",
        "--surface",
        "x*y",
        "--out",
        str(out),
        "--grid",
        "3,3",
    )
    assert code == 0
    assert report["result"] == {"n_vertices": 9, "n_triangles": 8, "obj": str(out)}
    lines = out.read_text(encoding="ascii").splitlines()
    assert len([ln for ln in lines if ln.startswith("f ")]) == 8
    assert len([ln for ln in lines if ln.startswith("v ")]) == 9


def test_mesh_from_spec_excludes_the_pole(capsys, tmp_path):
    spec_path = write_spec(tmp_path, "c31.json", CASE_31)
    out = tmp_path / "candidate.obj"
    code, report, _ = run_cli(
        capsys,
        "mesh",
        "--spec",
        spec_path,
        "--out",
        str(out),
        "--grid",
        "5,3",
        "--exclusion",
        "0.1",
    )
    assert code == 0
    assert report["result"]["n_vertices"] == 12
    assert report["result"]["n_triangles"] == 8
    assert report["params"]["spec"] == CASE_31
    assert report["surface"] == "-(1/(1*x)+0.5)*(1*y^2)"


def test_mesh_failing_node_leaves_no_file(capsys, tmp_path):
    # The mesh is built before the file is opened, so an error writes nothing.
    out = tmp_path / "never.obj"
    code, report, err = run_cli(capsys, "mesh", "--surface", "ln(x)", "--grid", "3,3", "--out", str(out))
    assert code == 2 and report is None
    assert "at (x, y) = (-1.0, -1.0)" in err
    assert not out.exists()


def test_mesh_surface_and_spec_are_exclusive(capsys, tmp_path):
    out = tmp_path / "o.obj"
    code, report, err = run_cli(capsys, "mesh", "--surface", "x*y", "--spec", "whatever.json", "--out", str(out))
    assert (code, report, err) == (2, None, "error: mesh needs exactly one of --surface and --spec\n")
    assert not out.exists()


def test_mesh_needs_a_surface_or_a_spec(capsys, tmp_path):
    code, report, err = run_cli(capsys, "mesh", "--out", str(tmp_path / "o.obj"))
    assert (code, report, err) == (2, None, "error: mesh needs exactly one of --surface and --spec\n")


def test_mesh_requires_out(capsys):
    code, report, err = run_cli(capsys, "mesh", "--surface", "x*y")
    assert (code, report, err) == (2, None, "error: the following arguments are required: --out\n")


# -- process-level smoke -------------------------------------------------------------


def test_console_script_runs():
    exe = shutil.which("isocurv")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "eval", "--surface", "x*y", "--at", "1,2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["K"] == -1.0


def test_main_leaves_the_garbage_collector_unfrozen(capsys):
    # main run in-process returns, and leaves the caller's collections alone.
    assert run_cli(capsys, "eval", "--surface", "x*y", "--at", "1,2")[0] == 0
    assert gc.get_freeze_count() == 0


def child_env(unbuffered: bool) -> dict:
    """The environment of a python -m isocurv child: src on the path, and
    PYTHONUNBUFFERED set or removed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(isocurv.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


@pytest.mark.parametrize(
    "argv, code",
    [
        ("eval --surface x*y --at 1,2", 0),
        ("scan --surface x*y --residual euler --grid 3,3", 1),
        ("eval --surface 1/x --at 0,1", 2),
    ],
    ids=["pass", "failed gate", "refused"],
)
def test_the_entry_point_exits_with_mains_code_once_the_report_is_written(
    capsys, tmp_path, argv, code
):
    # The entry point ends the process without the interpreter's teardown,
    # so a report that is still buffered when main returns is flushed first.
    assert main(argv.split()) == code
    expected = capsys.readouterr()
    out = tmp_path / "report.json"
    with open(out, "wb") as fh:
        proc = subprocess.run([sys.executable, "-m", "isocurv", *argv.split()], stdout=fh,
                              stderr=subprocess.PIPE, env=child_env(False), timeout=60)
    assert (proc.returncode, out.read_text(), proc.stderr.decode()) == (
        code, expected.out, expected.err)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_report_to_a_pipe_without_a_reader_exits_2(unbuffered):
    # Unbuffered, main's write fails; buffered, the entry point's flush does.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "isocurv", "eval", "--surface", "x*y",
                               "--at", "1,2"], stdout=write, stderr=subprocess.PIPE,
                              env=child_env(unbuffered), timeout=60)
    finally:
        os.close(write)
    broken = f"error: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"
    assert (proc.returncode, proc.stderr.decode()) == (2, broken)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_report_to_a_closed_stdout_exits_2(unbuffered):
    argv = [sys.executable, "-m", "isocurv", "eval", "--surface", "x*y", "--at", "1,2"]
    proc = subprocess.run(["sh", "-c", '"$0" "$@" >&-', *argv], stderr=subprocess.PIPE,
                          env=child_env(unbuffered), timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (2, "error: standard output is closed\n")


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "pipe without a reader"])
def test_an_error_line_that_cannot_be_written_still_exits_2(closed):
    argv = [sys.executable, "-m", "isocurv", "eval", "--surface", "1/x", "--at", "0,1"]
    if closed:
        proc = subprocess.run(["sh", "-c", '"$0" "$@" 2>&-', *argv], stdout=subprocess.PIPE,
                              env=child_env(False), timeout=60)
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=write,
                                  env=child_env(False), timeout=60)
        finally:
            os.close(write)
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "isocurv", "eval", "--surface", "x*y", "--at", "1,2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["H"] == 0.0
