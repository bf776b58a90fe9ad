"""The calls that bench/tracing.py wraps, pinned in-process.

The benchmark's tracer measures each layer by replacing a name where its
callers look it up (ROADMAP, "The calls the tracer pins"), so a refactor
that calls around one of those names leaves its metric null. Each test
here runs cli.main on one small command, or oracle.fd_jet once, with a
recording wrapper at every pinned name, all installed at once as the
tracer installs them, and checks the calls that the pin promises.
GridDomain.included, called once per grid column, is pinned in
tests/test_domain.py.
"""

from __future__ import annotations

import json
from collections import defaultdict

import pytest

import isocurv.cli as cli
from isocurv import families, mesh, oracle, weingarten
from isocurv.expr import parse

RESIDUALS = ("lw", "euler", "jacobian")
# The names that the subcommands look up on isocurv.cli when they run,
# besides the residual factories.
CLI_NAMES = ("parse", "eval_jet", "curvatures", "scan_grid", "build",
             "case31_contradiction_scan", "write_obj", "integrate")
CASE_A = {"kind": "CaseA", "f0": 1.0, "m0": 1.0, "n0": 2.0, "d1": 0.0, "d2": 0.0}
CASE_31 = {"kind": "Case31Candidate", "c3": 1.0, "c4": 1.0, "d7": 0.0, "d8": 0.0, "d9": 0.0,
           "m0": 1.0}


@pytest.fixture
def calls(monkeypatch):
    """Recording wrappers at every pinned name. calls[label] lists each call
    as (args, result, the label of the innermost recorded call around it);
    a label is the wrapped name without the package prefix."""
    log = defaultdict(list)
    stack: list[str] = []

    def recording(label, fn):
        def wrapper(*args, **kwargs):
            stack.append(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
            log[label].append((args, result, stack[-1] if stack else None))
            return result

        return wrapper

    def wrap(owner, name):
        label = f"{owner.__name__.removeprefix('isocurv.')}.{name}"
        monkeypatch.setattr(owner, name, recording(label, getattr(owner, name)))

    for name in CLI_NAMES:
        wrap(cli, name)
    # The residual that a factory returns is recorded per node, as the
    # tracer times it.
    for kind in RESIDUALS:
        factory = getattr(cli, f"{kind}_residual_fn")
        monkeypatch.setattr(cli, f"{kind}_residual_fn", recording(
            f"cli.{kind}_residual_fn",
            lambda *a, factory=factory, kind=kind: recording(f"residual.{kind}", factory(*a))))
    ode = recording("cli._DISPATCH['ode']", cli._DISPATCH["ode"])
    monkeypatch.setitem(cli._DISPATCH, "ode", ode)

    scan = families.scan_grid

    def family_scan(surface, domain, residual):
        assert callable(residual)
        return scan(surface, domain, recording("families.deviation", residual))

    monkeypatch.setattr(families, "scan_grid", recording("families.scan_grid", family_scan))
    for owner, name in ((families, "eval_jet"), (families, "curvatures"), (families, "summarize"),
                        (weingarten, "eval_jet"), (weingarten, "weingarten_jacobian"),
                        (weingarten, "summarize"), (mesh, "build_mesh"), (oracle, "eval_value"),
                        (oracle, "fd_jet")):
        wrap(owner, name)
    return log


def run(capsys, command: str) -> dict:
    assert cli.main(command.split()) == 0
    return json.loads(capsys.readouterr().out)


def parents(calls, label: str) -> set:
    return {parent for _, _, parent in calls[label]}


def test_eval_looks_up_its_names_on_cli(calls, capsys):
    run(capsys, "eval --surface x*y+y^2 --at 0.5,0.25")
    assert [len(calls[f"cli.{name}"]) for name in ("parse", "eval_jet", "curvatures")] == [1, 1, 1]


@pytest.mark.parametrize(
    "kind, flags", [("lw", "--a 1 --b 1 --c 6"), ("euler", ""), ("jacobian", "")]
)
def test_a_scan_calls_its_residual_once_per_node(calls, capsys, kind, flags):
    report = run(capsys, f"scan --surface x^2+y^2 --residual {kind} {flags} --grid 4,3")
    n = report["result"]["n_samples"]
    assert n == 12
    assert len(calls["cli.parse"]) == 1
    (_, residual, _), = calls[f"cli.{kind}_residual_fn"]
    (args, _, _), = calls["cli.scan_grid"]
    assert args[2] is residual
    assert len(calls[f"residual.{kind}"]) == n
    assert parents(calls, f"residual.{kind}") == {"cli.scan_grid"}
    (args, _, parent), = calls["weingarten.summarize"]
    assert parent == "cli.scan_grid" and len(args) == 2 and len(args[0]) == n


def test_a_jacobian_node_is_one_weingarten_jacobian_of_one_jet(calls, capsys):
    report = run(capsys, "scan --surface x^3+x*y^2 --residual jacobian --grid 4,3 --tol 100")
    n = report["result"]["n_samples"]
    assert len(calls["weingarten.weingarten_jacobian"]) == n
    assert parents(calls, "weingarten.weingarten_jacobian") == {"residual.jacobian"}
    assert len(calls["weingarten.eval_jet"]) == n
    assert parents(calls, "weingarten.eval_jet") == {"weingarten.weingarten_jacobian"}


def test_a_family_scan_passes_a_residual_whose_nodes_call_families_names(calls, capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CASE_A), encoding="utf-8")
    report = run(capsys, f"verify-family --spec {spec} --grid 4,3")
    n = report["result"]["n_samples"]
    assert n == 12 and len(calls["cli.build"]) == 1
    assert len(calls["families.scan_grid"]) == 1 and len(calls["families.deviation"]) == n
    for label in ("families.eval_jet", "families.curvatures"):
        assert len(calls[label]) == n and parents(calls, label) == {"families.deviation"}
    (args, _, parent), = calls["weingarten.summarize"]
    assert parent == "families.scan_grid" and len(args) == 2 and len(args[0]) == n


def test_the_case31_scan_takes_a_list_of_abscissas(calls, capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CASE_31), encoding="utf-8")
    report = run(capsys, f"verify-family --spec {spec} --grid 5,3")
    n = report["result"]["n_samples"]
    assert n == 4 and len(calls["cli.build"]) == 1  # x = 0 lies on the singular locus
    (args, _, _), = calls["cli.case31_contradiction_scan"]
    assert type(args[2]) is list and len(args[2]) == n
    (args, _, parent), = calls["families.summarize"]
    assert parent == "cli.case31_contradiction_scan" and len(args) == 2 and len(args[0]) == n


def test_write_obj_counts_its_vertices_through_build_mesh(calls, capsys, tmp_path):
    report = run(capsys, f"mesh --surface x*y --grid 4,3 --out {tmp_path / 'm.obj'}")
    assert len(calls["cli.write_obj"]) == 1
    (_, result, parent), = calls["mesh.build_mesh"]
    assert parent == "cli.write_obj"
    assert len(result[0]) == report["result"]["n_vertices"] == 12


def test_ode_dispatches_through_the_table_and_integrates_on_cli(calls, capsys):
    report = run(capsys, "ode --ode saturated-linear --c5 1 --f0 1 --fp0 0 --t-end 1 --step 0.1")
    (_, trajectory, parent), = calls["cli.integrate"]
    assert parent == "cli._DISPATCH['ode']" and len(calls["cli._DISPATCH['ode']"]) == 1
    assert len(trajectory) - 1 == report["result"]["n_steps"] == 10


def test_fd_jet_evaluates_21_values_per_point(calls):
    oracle.fd_jet(parse("x*y"), (0.5, 0.25))
    assert len(calls["oracle.eval_value"]) == 21
    assert parents(calls, "oracle.eval_value") == {"oracle.fd_jet"}
