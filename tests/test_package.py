"""The package root: every public name importable, each submodule loaded on
first use.

The in-process test run has imported every submodule already, so what a
fresh interpreter loads is checked in child processes, from sys.modules.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isocurv

# Every name the package root exports, by submodule.
ROOT_NAMES = {
    "curvature": "CurvaturePair curvatures euler_residual",
    "domain": "GridDomain",
    "errors": "DegenerateODEError DegenerateWeingartenError DivisionByZeroError "
    "EmptyDomainError EvaluationDomainError InvalidSpecError IsocurvError "
    "MixedVariableError NoConstantPredictionError NumericOverflowError ParseError "
    "SingularPointError StepTooLargeError UnknownIdentifierError",
    "expr": "Add Const Cos Div Exp Expr Ln Mul Neg Pow Sin Sqrt Sub Var eval_jet "
    "lift_1d num parse to_string variables",
    "families": "Case31Candidate CaseA CaseB CaseC FamilyPrediction FamilySpec "
    "NonIsotropicPlane ParabolicSphere build case31_contradiction_scan "
    "case31_residual case31_rounding_bound predict singular_loci spec_from_dict "
    "spec_to_dict verify_family",
    "jet": "Jet1 Jet2",
    "mesh": "MeshStats build_mesh write_obj",
    "ode": "IVP SaturatedLinearODE ShiftedReciprocalODE integrate "
    "linear_force_solution shifted_reciprocal_residual shifted_reciprocal_solution",
    "oracle": "JetComparison compare eval_value fd_jet",
    "weingarten": "LWParams NormalizedLW ResidualReport euler_residual_fn "
    "jacobian_residual_fn lw_residual lw_residual_fn normalize scan_grid summarize "
    "weingarten_jacobian",
}
ALL_NAMES = [n for names in ROOT_NAMES.values() for n in names.split()]
HEAVY = {"isocurv.families", "isocurv.ode", "isocurv.mesh", "isocurv.oracle"}


def loaded_modules(code: str, *flags: str, env: dict | None = None,
                   packages: tuple[str, ...] = ("isocurv",)) -> set[str]:
    """The modules of packages that a fresh interpreter, started with flags
    and env, holds after running code."""
    report = f"\nprint(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r}))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", "import sys\n" + code + report],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def run_main(argv: list[str]) -> str:
    """Code that runs isocurv.cli.main on argv, as python -m isocurv does,
    and checks it returns 0. Not through the entry point, which would end
    the process before sys.modules is printed."""
    return (
        "import contextlib, io, isocurv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = isocurv.cli.main({argv!r})\n"
        "assert code == 0, code"
    )


def test_every_root_name_is_its_submodules_object():
    assert len(ALL_NAMES) == len(set(ALL_NAMES)) == 82
    for module, names in ROOT_NAMES.items():
        owner = importlib.import_module(f"isocurv.{module}")
        for name in names.split():
            assert getattr(isocurv, name) is getattr(owner, name), name


def test_star_import_binds_exactly_all():
    assert len(isocurv.__all__) == len(set(isocurv.__all__)) == 45
    namespace: dict = {}
    exec("from isocurv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(isocurv.__all__)


def test_dir_lists_every_root_name():
    assert set(ALL_NAMES) <= set(dir(isocurv))
    assert "__version__" in dir(isocurv)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        isocurv.no_such_name
    assert not hasattr(isocurv, "no_such_name")
    with pytest.raises(ImportError):
        exec("from isocurv import no_such_name", {})


def test_submodules_import_by_name():
    assert loaded_modules("from isocurv import expr, oracle") == {
        "isocurv",
        "isocurv.errors",
        "isocurv.expr",
        "isocurv.jet",
        "isocurv.oracle",
    }


def test_import_loads_no_submodule():
    assert loaded_modules("import isocurv") == {"isocurv"}


def test_cli_import_loads_no_subcommand_module():
    assert not loaded_modules("import isocurv.cli") & HEAVY


@pytest.mark.parametrize(
    "argv",
    [
        "eval --surface x*y --at 1,2",
        "scan --surface x^2+y^2 --residual euler --grid 2,2",
    ],
)
def test_eval_and_scan_load_no_subcommand_module(argv):
    assert not loaded_modules(run_main(argv.split())) & HEAVY


@pytest.mark.parametrize("residual", ["lw --a 1 --b 1 --c 2", "euler", "jacobian"])
def test_a_scan_loads_no_curvature_module(residual):
    """The lw and euler residuals are emitted into the kernel, so no node
    builds a CurvaturePair."""
    argv = f"scan --surface 0.5*(x^2+y^2) --grid 2,2 --residual {residual}".split()
    loaded = loaded_modules(run_main(argv))
    assert "isocurv.weingarten" in loaded
    assert "isocurv.curvature" not in loaded


def test_each_subcommand_loads_exactly_the_modules_it_runs(tmp_path):
    """eval reads its Euler defect from curvature, and the grid module loads
    only under a grid: neither eval nor ode loads domain or weingarten. The
    child runs with -S, so that no module that site imports hides one."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "CaseC", "c8": 1, "d15": 0, "c9": 1, "d16": 0}')
    kernel = {"errors", "expr", "jet"}
    runs = {
        "eval --surface x*y --at 1,2": kernel | {"curvature"},
        "scan --surface x^2+y^2 --residual euler --grid 2,2": kernel | {"domain", "weingarten"},
        f"verify-family --spec {spec} --grid 3,3":
            kernel | {"curvature", "domain", "families", "weingarten"},
        "ode --ode saturated-linear --c5 1 --f0 1 --fp0 0 --t-end 1 --step 0.1": {"errors", "ode"},
        f"mesh --surface x*y --grid 2,2 --out {tmp_path / 'm.obj'}": kernel | {"domain", "mesh"},
        f"mesh --spec {spec} --grid 2,2 --out {tmp_path / 'm.obj'}": kernel | {"domain", "families", "mesh"},
    }
    env = {**os.environ, "PYTHONPATH": str(Path(isocurv.__file__).parents[1])}
    for argv, modules in runs.items():
        loaded = loaded_modules(run_main(argv.split()), "-S", env=env)
        assert loaded == {"isocurv", "isocurv.cli", *(f"isocurv.{m}" for m in modules)}, argv


def test_mesh_from_a_surface_loads_no_families(tmp_path):
    argv = ["mesh", "--surface", "x*y", "--grid", "2,2", "--out", str(tmp_path / "m.obj")]
    loaded = loaded_modules(run_main(argv))
    assert "isocurv.mesh" in loaded
    assert "isocurv.families" not in loaded


def test_no_module_or_subcommand_loads_dataclasses(tmp_path):
    """The records are built without dataclasses, the command line is read
    without argparse, and unions are written without typing, whose imports
    cost every process start-up: no submodule and no subcommand run loads
    them. The child runs with -S, so that no module that site imports (a
    .pth file may load typing) hides one that the package loads."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "CaseC", "c8": 1, "d15": 0, "c9": 1, "d16": 0}')
    runs = [
        "eval --surface x*y --at 1,2",
        "scan --surface x^2+y^2 --residual euler --grid 2,2",
        f"verify-family --spec {spec} --grid 3,3",
        "ode --ode saturated-linear --c5 1 --f0 1 --fp0 0 --t-end 1 --step 0.1",
        f"mesh --surface x*y --grid 2,2 --out {tmp_path / 'm.obj'}",
    ]
    check = "\nassert not {{'dataclasses', 'argparse', 'typing'}} & set(sys.modules), {!r}\n"
    code = check.format("start-up")
    code += "".join(f"import isocurv.{m}\n" for m in ROOT_NAMES) + "import isocurv.cli\n"
    code += check.format("import")
    for argv in runs:
        code += run_main(argv.split()) + check.format(argv)
    src = str(Path(isocurv.__file__).parents[1])
    assert "isocurv.mesh" in loaded_modules(code, "-S", env={**os.environ, "PYTHONPATH": src})


def test_only_a_spec_file_loads_json_and_nothing_loads_re(tmp_path):
    """A report is written without json and an expression is read without
    re, whose imports cost every start-up: only the subcommands that read a
    family spec file import json, and re comes with it (json's decoder
    imports re). The children run with -S, so that no module that site
    imports hides one that the package loads."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"kind": "CaseC", "c8": 1, "d15": 0, "c9": 1, "d16": 0}')
    obj = tmp_path / "m.obj"
    runs = {
        "eval --surface x*y --at 1.5,2e0": set(),
        "scan --surface x^2+y^2 --residual euler --grid 2,2": set(),
        "ode --ode saturated-linear --c5 1 --f0 1 --fp0 0 --t-end 1 --step 0.1": set(),
        f"mesh --surface x*y --grid 2,2 --out {obj}": set(),
        f"verify-family --spec {spec} --grid 3,3": {"json", "re"},
        f"mesh --spec {spec} --grid 2,2 --out {obj}": {"json", "re"},
    }
    env = {**os.environ, "PYTHONPATH": str(Path(isocurv.__file__).parents[1])}
    every = "".join(f"import isocurv.{m}\n" for m in ROOT_NAMES) + "import isocurv.cli\n"
    assert not loaded_modules(every, "-S", env=env, packages=("json", "re"))
    for argv, modules in runs.items():
        loaded = loaded_modules(run_main(argv.split()), "-S", env=env, packages=("json", "re"))
        assert {m.split(".")[0] for m in loaded} == modules, argv
