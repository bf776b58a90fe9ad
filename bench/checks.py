"""Checks of the program's outputs against the benchmark's own computations.

Each check takes what one operation produced (exit code, standard output,
files) and the corpus object it was generated from, and raises Mismatch
at the first disagreement. Expected values come from corpus.py, never
from isocurv. Tally keeps the verdicts of a whole run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys

import corpus

JET_NAMES = ("v", "dx", "dy", "dxx", "dxy", "dyy")
# Relative accuracy asked of exact jets and of values computed from them.
JET_RTOL = 1e-9
# Relative accuracy asked of the program's central-difference Jacobian
# (step 1e-3, so its truncation error is of order 1e-6 times higher partials).
JACOBIAN_RTOL = 1e-5
# Relative accuracy asked of finite-difference jets (five-point stencils).
FD_RTOL = 1e-6
# A gate verdict is only checked when the exact value is clear of the gate
# by this factor on either side.
GATE_MARGIN = 10.0


class Mismatch(Exception):
    """The program's output disagrees with the benchmark's computation."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


def close(got, want: float, tol: float, what: str) -> None:
    expect(
        isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, want {want!r} within {tol:.3g}",
    )


def _reject_constant(name: str):
    raise Mismatch(f"report is not strict JSON: contains {name}")


def strict_json(text: str):
    """Parse RFC 8259 JSON: NaN and Infinity are refused."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as err:
        raise Mismatch(f"report is not JSON: {err}") from None


def report(stdout: bytes, rc: int, command: str) -> dict:
    """Parse and sanity-check one CLI report; the exit code must match its
    verdict (1 exactly when a gate failed)."""
    expect(rc in (0, 1), f"exit code {rc}, stdout {stdout[:200]!r}")
    rep = strict_json(stdout.decode("utf-8"))
    expect(isinstance(rep, dict) and rep.get("command") == command, f"not a {command} report")
    expect(isinstance(rep.get("schema_version"), int), "schema_version missing")
    expect(isinstance(rep.get("result"), dict), "result missing")
    expect(rep.get("pass") in (True, False, None), "pass is not a verdict")
    expect(rc == (1 if rep["pass"] is False else 0), f"exit code {rc} with pass {rep['pass']}")
    return rep


def gate(passed, exact_max: float, limit: float, what: str) -> None:
    """The verdict must follow the exact value unless it is near the gate."""
    if exact_max * GATE_MARGIN <= limit:
        expect(passed is True, f"{what}: exact max {exact_max:.3g} is within {limit:g}, verdict {passed}")
    elif exact_max >= limit * GATE_MARGIN:
        expect(passed is False, f"{what}: exact max {exact_max:.3g} exceeds {limit:g}, verdict {passed}")


# -- grid statistics --------------------------------------------------------------


def stats(result: dict, nodes: dict, xs: list, ys: list, what: str) -> float:
    """Compare n_samples, max_abs, worst_point, mean_abs and std_dev with the
    benchmark's per-node residuals. nodes maps (i, j) to (r, tol) for every
    included node; returns the exact max |r|.

    The program's residual at a node may differ from r by up to that node's
    tol. Its mean |r| then lies within the mean tol of the exact one, and its
    standard deviation within the root mean square tol (the centred residual
    vector moves by at most the length of the error vector). Its max_abs is
    the residual at its worst_point, so that node's tol bounds it."""
    n = len(nodes)
    expect(result.get("n_samples") == n, f"{what}: n_samples {result.get('n_samples')} != {n}")
    rs = [r for r, _ in nodes.values()]
    ts = [t for _, t in nodes.values()]
    max_abs = max(abs(r) for r in rs)
    mean_abs = math.fsum(abs(r) for r in rs) / n
    mean = math.fsum(rs) / n
    std = math.sqrt(math.fsum((r - mean) ** 2 for r in rs) / n)
    close(result.get("mean_abs"), mean_abs, math.fsum(ts) / n, f"{what}: mean_abs")
    close(result.get("std_dev"), std, math.sqrt(math.fsum(t * t for t in ts) / n), f"{what}: std_dev")
    wp = result.get("worst_point")
    expect(isinstance(wp, list) and len(wp) == 2, f"{what}: worst_point {wp!r}")
    ij = _node_index(wp[0], xs), _node_index(wp[1], ys)
    expect(ij in nodes, f"{what}: worst_point {wp!r} is not an included grid node")
    r, tol = nodes[ij]
    close(result.get("max_abs"), abs(r), tol, f"{what}: max_abs at worst_point {wp!r}")
    reach = max(abs(r) - t for r, t in nodes.values())
    expect(abs(r) + tol >= reach, f"{what}: |r| at worst_point {wp!r} is {abs(r):.6g}, max {max_abs:.6g}")
    return max_abs


def _node_index(v, axis: list) -> int | None:
    if not isinstance(v, (int, float)) or len(axis) < 2:
        return None
    step = axis[1] - axis[0]
    i = round((v - axis[0]) / step)
    if 0 <= i < len(axis) and abs(v - axis[i]) <= 1e-9 * step:
        return i
    return None


def included(x: float, pole: float | None, radius: float) -> bool:
    return pole is None or abs(x - pole) > radius


# -- per-command checks ------------------------------------------------------------


def check_eval(rep: dict, surface: corpus.Surface, x: float, y: float) -> None:
    vals, mags = surface.partials(x, y)
    res = rep["result"]
    for k, name in enumerate(JET_NAMES):
        close(res["jet"].get(name), vals[k], JET_RTOL * (1 + mags[k]), f"jet.{name}")
    m2 = max(mags[3:6])
    K, H = corpus.invariants(vals)
    close(res.get("K"), K, JET_RTOL * (1 + 3 * m2 * m2), "K")
    close(res.get("H"), H, JET_RTOL * (1 + m2), "H")
    close(res.get("euler_residual"), corpus.euler_defect(vals), JET_RTOL * (1 + 8 * m2 * m2), "euler_residual")
    expect(rep["pass"] is None, "eval has no gate")


def check_refused(stdout: bytes, stderr: bytes, rc: int) -> None:
    """An input whose invariants overflow has no finite report: the program
    must refuse it with exit code 2 and an error line, not print one."""
    expect(rc == 2 and not stdout.strip(), f"exit code {rc} with output {stdout[:120]!r}")
    expect(stderr.startswith(b"error:"), f"stderr {stderr[:120]!r}")


def residual_at(kind: str, surface: corpus.Surface, x: float, y: float, lw=None):
    """(r, tol) of one residual kind at one node, from closed-form partials."""
    vals, mags = surface.partials(x, y)
    m2 = max(mags[3:6])
    if kind == "euler":
        return corpus.euler_defect(vals), JET_RTOL * (1 + 8 * m2 * m2)
    if kind == "lw":
        a, b, c = lw
        K, H = corpus.invariants(vals)
        return a * H + b * K - c, JET_RTOL * (1 + abs(a) * m2 + abs(b) * 3 * m2 * m2 + abs(c))
    m3 = max(mags[6:10])
    return corpus.jacobian(vals), JACOBIAN_RTOL * (1 + 16 * m2 * m3 * (m3 + m2))


def check_scan(rep: dict, surface, kind: str, grid: tuple, gate_tol: float, lw=None) -> None:
    xs = corpus.axis(-1.0, 1.0, grid[0])
    ys = corpus.axis(-1.0, 1.0, grid[1])
    nodes = {(i, j): residual_at(kind, surface, x, y, lw) for j, y in enumerate(ys) for i, x in enumerate(xs)}
    exact = stats(rep["result"], nodes, xs, ys, f"scan {kind}")
    expect(rep["tolerances"].get(kind) == gate_tol, f"tolerance {rep['tolerances']!r}")
    gate(rep["pass"], exact, gate_tol, f"scan {kind}")


def check_family(rep: dict, fam: corpus.Family, grid: tuple, radius: float, n0: float, gate_tol: float) -> None:
    xs = corpus.axis(-1.0, 1.0, grid[0])
    ys = corpus.axis(-1.0, 1.0, grid[1])
    res = rep["result"]
    if fam.K is None:
        expect(res.get("check") == "contradiction_scan", f"check {res.get('check')!r}")
        nodes = {}
        m0 = fam.spec["m0"]
        for i, x in enumerate(xs):
            if included(x, fam.pole, radius):
                vals, mags = fam.surface.partials(x, 0.0)
                K, H = corpus.invariants(vals)
                m2 = max(mags[3:6])
                nodes[(i, 0)] = (2 * m0 * H + K - n0, JET_RTOL * (1 + 2 * abs(m0) * m2 + 3 * m2 * m2 + abs(n0)))
        stats(res, nodes, xs, [0.0, 1.0], "contradiction scan")
        rs = [r for r, _ in nodes.values()]
        non_constant = len(rs) >= 3 and max(rs) - min(rs) > GATE_MARGIN * max(t for _, t in nodes.values())
        expect(rep["pass"] is non_constant, f"contradiction verdict {rep['pass']}")
        return
    expect(res.get("check") == "constant_invariants", f"check {res.get('check')!r}")
    pred = res.get("predicted", {})
    close(pred.get("K"), fam.K, 1e-12 * (1 + abs(fam.K)), "predicted K")
    close(pred.get("H"), fam.H, 1e-12 * (1 + abs(fam.H)), "predicted H")
    nodes = {}
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            vals, mags = fam.surface.partials(x, y)
            K, H = corpus.invariants(vals)
            m2 = max(mags[3:6])
            nodes[(i, j)] = (max(abs(K - fam.K), abs(H - fam.H)), JET_RTOL * (1 + 3 * m2 * m2))
    exact = stats(res, nodes, xs, ys, f"verify-family {fam.spec['kind']}")
    gate(rep["pass"], exact, gate_tol, "verify-family")


def check_mesh(rep: dict, path: str, surface, grid: tuple, pole: float | None, radius: float) -> None:
    xs = corpus.axis(-1.0, 1.0, grid[0])
    ys = corpus.axis(-1.0, 1.0, grid[1])
    keep = [included(x, pole, radius) for x in xs]
    want = [(x, y) for y in ys for x, k in zip(xs, keep) if k]
    cells = sum(1 for i in range(len(xs) - 1) if keep[i] and keep[i + 1]) * (len(ys) - 1)
    res = rep["result"]
    expect(res.get("n_vertices") == len(want), f"n_vertices {res.get('n_vertices')} != {len(want)}")
    expect(res.get("n_triangles") == 2 * cells, f"n_triangles {res.get('n_triangles')} != {2 * cells}")
    n_v = n_f = 0
    with open(path, encoding="ascii") as fh:
        for line in fh:
            tag, *fields = line.split()
            if tag == "v":
                expect(n_v < len(want), "more vertices than grid nodes")
                x, y, z = (float(f) for f in fields)
                wx, wy = want[n_v]
                expect(abs(x - wx) <= 1e-12 and abs(y - wy) <= 1e-12, f"vertex {n_v + 1} at ({x}, {y}), want ({wx}, {wy})")
                vals, mags = surface.partials(wx, wy)
                close(z, vals[0], JET_RTOL * (1 + mags[0]), f"vertex {n_v + 1} z")
                n_v += 1
            elif tag == "f":
                idx = [int(f) for f in fields]
                expect(len(idx) == 3 and all(1 <= k <= len(want) for k in idx), f"face {line.strip()!r}")
                n_f += 1
            else:
                raise Mismatch(f"unexpected OBJ line {line.strip()!r}")
    expect(n_v == len(want) and n_f == 2 * cells, f"OBJ holds {n_v} vertices, {n_f} faces")


def check_ode(rep: dict, path: str, ode: dict) -> None:
    """ode: the generated parameters plus 'exact' (closed form f(t) or None)
    or, for d10 != 0, conservation of the saturated equation's energy."""
    res = rep["result"]
    t0, t_end, step = ode["t0"], ode["t_end"], ode["step"]
    n = max(1, round((t_end - t0) / step))
    h = (t_end - t0) / n
    expect(res.get("n_steps") == n, f"n_steps {res.get('n_steps')} != {n}")
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["t", "f", "fp"], f"CSV header {rows[0]!r}")
    data = [tuple(float(v) for v in row) for row in rows[1:]]
    expect(len(data) == n + 1, f"CSV holds {len(data)} rows, want {n + 1}")
    expect(data[0] == (t0, ode["f0"], ode["fp0"]), f"first row {data[0]!r}")
    end = res.get("endpoint", {})
    expect((end.get("t"), end.get("f"), end.get("fp")) == data[-1], "endpoint differs from the last CSV row")
    for k, (t, f, fp) in enumerate(data):
        close(t, t0 + k * h, 1e-12 * (1 + abs(t)), f"t at row {k}")
    exact = ode.get("exact")
    if exact is not None:
        dev = 0.0
        for t, f, _ in data:
            want = exact(t)
            close(f, want, 1e-8 * (1 + abs(want)), f"f({t})")
            dev = max(dev, abs(f - want))
        close(res.get("oracle_max_dev"), dev, 1e-10 * (1 + max(abs(f) for _, f, _ in data)), "oracle_max_dev")
        gate(rep["pass"], dev, rep["tolerances"]["oracle"], "ode oracle")
    else:
        c5, d10 = ode["c5"], ode["d10"]
        e0 = corpus.saturated_energy(c5, d10, data[0][1], data[0][2])
        for t, f, fp in data:
            close(corpus.saturated_energy(c5, d10, f, fp), e0, 1e-9 * (1 + abs(e0) + abs(f / d10)), f"energy at t={t}")
        expect(rep["pass"] is None, "no oracle, so no verdict")


def check_oracle(out: dict, cases: list, tol_rel: float) -> None:
    """Output of oracle_child.py: eval_jet and fd_jet against closed-form
    partials, and compare's deviations and flags recomputed exactly."""
    got_cases = out.get("cases")
    expect(isinstance(got_cases, list) and len(got_cases) == len(cases), "oracle case count")
    for (surface, points), got in zip(cases, got_cases):
        expect(len(got["jets"]) == len(points), "oracle point count")
        for (x, y), jet, fd, dev, flagged in zip(points, got["jets"], got["fd"], got["deviations"], got["flagged"]):
            vals, mags = surface.partials(x, y)
            want_flags = []
            for k, name in enumerate(JET_NAMES):
                close(jet[k], vals[k], JET_RTOL * (1 + mags[k]), f"eval_jet.{name} at ({x}, {y})")
                close(fd[k], vals[k], FD_RTOL * (1 + mags[0] + mags[k]), f"fd_jet.{name} at ({x}, {y})")
                expect(dev[k] == abs(jet[k] - fd[k]), f"compare deviation {name} at ({x}, {y})")
                if dev[k] > tol_rel * (1.0 + abs(jet[k])):
                    want_flags.append(name)
            expect(flagged == want_flags, f"compare flagged {flagged} at ({x}, {y}), want {want_flags}")


# -- verdicts over a run ---------------------------------------------------------------


class Tally:
    """Attempted and failed operations; a failure no known fault explains
    makes the run incorrect. An operation's outputs are checked in full the
    first time; a repeat must reproduce them byte for byte (report, exit
    code, error text and output files) and then shares their verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.faults: dict[str, str] = {}
        self.verdicts: dict[int, tuple] = {}

    def record(self, index: int, op, out) -> None:
        """Count one run of operation number index (a workloads.Op) with
        its workloads.Outcome."""
        self.attempted += 1
        key = (out.rc, out.stdout, out.stderr, _digest(op.outputs))
        if index in self.verdicts:
            first_key, verdict = self.verdicts[index]
            if key != first_key:
                verdict = "output differs from the first run of the same operation"
        else:
            verdict = None
            try:
                op.check(out)
            except Exception as err:  # any error in a check means a wrong output
                verdict = f"{type(err).__name__}: {err}"
            self.verdicts[index] = (key, verdict)
        if verdict is None:
            return
        self.failed += 1
        if op.fault is None:
            self.unexpected.append(f"{op.argv}: {verdict}")
        else:
            self.faults[op.fault] = verdict

    @property
    def correct(self) -> bool:
        return not self.unexpected

    def summary(self, metrics: dict) -> dict:
        for fault, msg in self.faults.items():
            print(f"known fault: {fault} ({msg[:200]})", file=sys.stderr)
        for msg in self.unexpected[:20]:
            print(f"FAILED: {msg[:600]}", file=sys.stderr)
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def _digest(paths) -> tuple:
    out = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                out.append(hashlib.blake2b(fh.read()).digest())
        except OSError:
            out.append(None)
    return tuple(out)
