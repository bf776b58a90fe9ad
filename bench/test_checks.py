"""Tests of the benchmark's own checks and span arithmetic.

    python -m pytest bench/test_checks.py

They need neither isocurv nor a child process: the program outputs are
written here from the closed forms, then corrupted in one place.
"""

import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import corpus  # noqa: E402
from tracing import Tracer  # noqa: E402


def eval_report(surface, x, y):
    vals, _ = surface.partials(x, y)
    K, H = corpus.invariants(vals)
    jet = dict(zip(checks.JET_NAMES, vals[:6]))
    return {"schema_version": 1, "command": "eval", "surface": surface.text, "params": {"at": [x, y]},
            "result": {"jet": jet, "K": K, "H": H, "euler_residual": corpus.euler_defect(vals)},
            "pass": None, "tolerances": {}}


def test_eval_report_from_closed_forms_passes():
    s = corpus.mixed(random.Random(7))
    rep = checks.report(json.dumps(eval_report(s, 0.3, -0.6)).encode(), 0, "eval")
    checks.check_eval(rep, s, 0.3, -0.6)


@pytest.mark.parametrize("component", checks.JET_NAMES)
def test_one_perturbed_jet_component_is_flagged(component):
    s = corpus.mixed(random.Random(7))
    rep = eval_report(s, 0.3, -0.6)
    rep["result"]["jet"][component] *= 1.0 + 1e-6
    with pytest.raises(checks.Mismatch, match=f"jet.{component}"):
        checks.check_eval(rep, s, 0.3, -0.6)


def test_report_with_infinity_is_flagged():
    s = corpus.Surface([corpus.Term(1, 1e200, corpus.Mono(1), corpus.Mono(1))])
    rep = eval_report(s, 1.0, 1.0)
    text = json.dumps(rep)  # Python writes the overflowed K as -Infinity
    assert "-Infinity" in text
    with pytest.raises(checks.Mismatch, match="Infinity"):
        checks.report(text.encode(), 0, "eval")
    with pytest.raises(checks.Mismatch, match="NaN"):
        checks.report(text.replace("-Infinity", "NaN").encode(), 0, "eval")


def constant_scan_report(std_dev):
    r = corpus.euler_defect(corpus.constant_euler().partials(0.0, 0.0)[0])
    return {"schema_version": 1, "command": "scan", "pass": False, "tolerances": {"euler": 1e-9},
            "result": {"n_samples": 25, "max_abs": r, "mean_abs": r, "std_dev": std_dev,
                       "worst_point": [-1.0, -1.0]}}


def test_scan_of_a_constant_residual_needs_std_dev_0():
    s = corpus.constant_euler()
    checks.check_scan(constant_scan_report(0.0), s, "euler", (5, 5), 1e-9)
    # The residue sqrt(E[r^2] - mean^2) leaves on a 101x101 grid of this surface.
    with pytest.raises(checks.Mismatch, match="std_dev"):
        checks.check_scan(constant_scan_report(1.96e-7), s, "euler", (5, 5), 1e-9)


def write_obj(path, surface, grid, bad_vertex=None):
    xs, ys = corpus.axis(-1.0, 1.0, grid[0]), corpus.axis(-1.0, 1.0, grid[1])
    n_faces = 0
    with open(path, "w", encoding="ascii") as fh:
        for k, (x, y) in enumerate((x, y) for y in ys for x in xs):
            z = surface.partials(x, y)[0][0]
            if k == bad_vertex:
                z += 1e-6 * (1.0 + abs(z))
            fh.write(f"v {x!r} {y!r} {z!r}\n")
        for j in range(grid[1] - 1):
            for i in range(grid[0] - 1):
                a = j * grid[0] + i + 1
                fh.write(f"f {a} {a + 1} {a + grid[0]}\nf {a + 1} {a + grid[0] + 1} {a + grid[0]}\n")
                n_faces += 2
    return {"schema_version": 1, "command": "mesh", "result": {
        "n_vertices": grid[0] * grid[1], "n_triangles": n_faces, "obj": path}, "pass": None}


def test_obj_from_closed_forms_passes(tmp_path):
    s = corpus.trig(random.Random(3))
    path = str(tmp_path / "ok.obj")
    checks.check_mesh(write_obj(path, s, (6, 5)), path, s, (6, 5), None, 0.01)


def test_obj_with_one_wrong_vertex_is_flagged(tmp_path):
    s = corpus.trig(random.Random(3))
    path = str(tmp_path / "bad.obj")
    rep = write_obj(path, s, (6, 5), bad_vertex=17)
    with pytest.raises(checks.Mismatch, match="vertex 18 z"):
        checks.check_mesh(rep, path, s, (6, 5), None, 0.01)


def test_span_self_time_is_exact_on_a_hand_built_tree():
    # main [0, 100] calls a [10, 40], which calls b [15, 25]; then main
    # calls c [50, 90]. Each wrapper reads the clock on entry and on exit.
    ticks = iter([0, 10, 15, 25, 40, 50, 90, 100])
    t = Tracer(clock=lambda: next(ticks))
    b = t.wrap("b", lambda: None)
    a = t.wrap("a", lambda: b())
    c = t.wrap("c", lambda: None)
    t.wrap("main", lambda: (a(), c()))()
    assert t.spans == {
        ("b", "a"): [1, 10, 10],
        ("a", "main"): [1, 30, 20],
        ("c", "main"): [1, 40, 40],
        ("main", None): [1, 100, 30],
    }
    assert t.calls("a", "main") == 1 and t.total("main") == 100 and t.self_ns("main") == 30
