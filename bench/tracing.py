"""Traced run: per-layer metrics from timing wrappers installed around isocurv.

The workload's operations run in-process, cli.main(argv) with its output
captured and oracle_child.run called directly, with the benchmark's
wrappers installed at the names callers actually bind (for example
isocurv.weingarten.eval_jet as well as isocurv.cli.eval_jet). Each
wrapper records a span; spans are aggregated in memory per (name, parent)
as count, total and self time, where self time is the span's duration
minus the time its direct child spans cover. Every round is run once
untraced and once traced in-process; the difference is the tracing
overhead. A last round, preceded by the workload's once-per-run
large-grid operation, runs with tracemalloc wrappers only, for the peak
memory of the layers that hold per-node data.

A metric whose wrapped name no longer exists in the program is reported
as absent rather than failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc
from collections import Counter

import checks
import workloads

IMPORT_PROBES = 5
JET_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "chain")
JET_FUNCS = ("exp", "ln", "sin", "cos", "sqrt", "pow_int", "pow_real")
RESIDUALS = ("lw", "euler", "jacobian")


class Tracer:
    """Span aggregation. spans maps (name, parent name) to [count, total_ns,
    self_ns]; counts holds plain counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.stack: list[list] = []
        self.spans: dict[tuple, list] = {}
        self.counts: Counter = Counter()

    def wrap(self, name: str, fn, on_exit=None):
        stack, spans, clock = self.stack, self.spans, self.clock

        def wrapper(*args, **kwargs):
            frame = [name, 0]  # name, time covered by direct children
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dt
                rec = spans.get((name, parent and parent[0]))
                if rec is None:
                    rec = spans[(name, parent and parent[0])] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        """A counter without a span, for calls too frequent to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- aggregates --

    def calls(self, name: str, parent: str | None = ...) -> int:
        return sum(r[0] for (n, p), r in self.spans.items() if n == name and (parent is ... or p == parent))

    def total(self, name: str) -> int:
        return sum(r[1] for (n, _), r in self.spans.items() if n == name)

    def self_ns(self, name: str) -> int:
        return sum(r[2] for (n, _), r in self.spans.items() if n == name)


class Patches:
    """Attribute replacements, undone on exit; names that do not exist are
    collected in absent instead."""

    def __init__(self):
        self.saved: list[tuple] = []
        self.absent: set[str] = set()

    def set(self, owner, attr: str, make) -> None:
        if not hasattr(owner, attr):
            self.absent.add(f"{owner.__name__}.{attr}")
            return
        original = getattr(owner, attr)
        self.saved.append((setattr, owner, attr, original))
        setattr(owner, attr, make(original))

    def set_item(self, owner, label: str, key, make) -> None:
        if not isinstance(owner, dict) or key not in owner:
            self.absent.add(f"{label}[{key!r}]")
            return
        original = owner[key]
        self.saved.append((dict.__setitem__, owner, key, original))
        owner[key] = make(original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for put, owner, key, original in reversed(self.saved):
            put(owner, key, original)
        self.saved.clear()


def _modules() -> dict:
    names = ("cli", "expr", "jet", "curvature", "weingarten", "families", "domain", "oracle", "mesh", "ode")
    return {n: importlib.import_module(f"isocurv.{n}") for n in names}


def install_spans(t: Tracer, m: dict, patches: Patches) -> None:
    cli, expr, jet, weingarten, families = m["cli"], m["expr"], m["jet"], m["weingarten"], m["families"]
    span = lambda name, on_exit=None: (lambda fn: t.wrap(name, fn, on_exit))  # noqa: E731

    def counter(key, measure):
        def on_exit(args, result):
            t.counts[key] += measure(args, result)
        return on_exit

    patches.set(cli, "main", span("cli.main"))
    # main dispatches through a table filled at import, not the module name.
    patches.set_item(getattr(cli, "_DISPATCH", None), "isocurv.cli._DISPATCH", "ode", span("cli.cmd_ode"))
    for owner in (cli, expr):
        patches.set(owner, "parse", span("expr.parse"))
    for owner in (cli, weingarten, families, expr):
        patches.set(owner, "eval_jet", span("expr.eval_jet"))
    for owner in (m["mesh"], m["oracle"]):
        patches.set(owner, "eval_value", span("expr.eval_value"))
    for owner in (cli, weingarten, families):
        patches.set(owner, "curvatures", span("curvature.curvatures"))
    for kind in RESIDUALS:
        def factory(fn, kind=kind):
            return lambda *a, **k: t.wrap(f"weingarten.residual.{kind}", fn(*a, **k))
        patches.set(cli, f"{kind}_residual_fn", factory)
    patches.set(cli, "scan_grid", span("weingarten.scan_grid"))

    def family_scan(fn):
        inner = t.wrap("weingarten.scan_grid", fn)
        return lambda surface, domain, residual: inner(surface, domain, t.wrap("families.deviation", residual))
    patches.set(families, "scan_grid", family_scan)
    for owner in (weingarten, families):
        patches.set(owner, "summarize", span("weingarten.summarize",
                                             counter("summarize.samples", lambda a, r: len(a[0]))))
    patches.set(weingarten, "weingarten_jacobian", span("weingarten.weingarten_jacobian"))
    for owner in (cli, families):
        patches.set(owner, "build", span("families.build"))
    patches.set(cli, "_verify_family", span("families.verify_family"))
    patches.set(cli, "case31_contradiction_scan", span("families.case31_contradiction_scan",
                                                       counter("case31.samples", lambda a, r: len(a[2]))))
    patches.set(m["domain"].GridDomain, "included", span("domain.included",
                                                         counter("domain.excluded", lambda a, r: not r)))
    patches.set(m["oracle"], "fd_jet", span("oracle.fd_jet"))
    patches.set(m["oracle"], "compare", span("oracle.compare"))
    patches.set(m["mesh"], "build_mesh", span("mesh.build_mesh",
                                              counter("mesh.vertices", lambda a, r: len(r[0]))))
    patches.set(cli, "write_obj", span("mesh.write_obj",
                                       counter("mesh.obj_bytes", lambda a, r: os.path.getsize(a[2]))))
    patches.set(cli, "integrate", span("ode.integrate", counter("ode.steps", lambda a, r: len(r) - 1)))
    for cls in (m["ode"].ShiftedReciprocalODE, m["ode"].SaturatedLinearODE):
        patches.set(cls, "numerator", lambda fn: t.count("ode.rhs", fn))
    for name in JET_FUNCS:
        patches.set(jet, name, span(f"jet.{name}"))
    for name in JET_OPS:
        patches.set(jet.Jet2, name, span(f"jet.{name}"))


def install_peaks(peaks: dict, m: dict, patches: Patches) -> None:
    """tracemalloc around the calls that hold per-node or per-step lists:
    the peak of memory allocated during the call and alive at once."""
    def peak(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            return wrapper
        return make

    patches.set(m["cli"], "scan_grid", peak("weingarten.scan_grid"))
    patches.set(m["families"], "scan_grid", peak("weingarten.scan_grid"))
    patches.set(m["mesh"], "build_mesh", peak("mesh.build_mesh"))
    patches.set(m["cli"], "integrate", peak("ode.integrate"))


class InProcess:
    """Runs operations inside this process: cli.main for CLI operations and
    oracle_child.run() for oracle operations."""

    def __init__(self, modules: dict, oracle_run):
        self.cli = modules["cli"]
        self.oracle_run = oracle_run

    def run(self, op: workloads.Op) -> workloads.Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if op.kind == "oracle":
                    with open(op.argv[0], encoding="utf-8") as fh:
                        json.dump(self.oracle_run(json.load(fh)), out, allow_nan=False)
                    rc = 0
                else:
                    rc = self.cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # the program crashed: a traceback, as a child would print
                traceback.print_exc()
                rc = 1
        return workloads.Outcome(rc, out.getvalue().encode(), err.getvalue().encode())


def import_ms(children) -> float:
    """Median time to import isocurv.cli in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import isocurv.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_PROBES):
        out = children.run([sys.executable, "-c", code])
        if out.rc != 0:
            raise RuntimeError(f"importing isocurv.cli failed: {out.stderr[-300:]!r}")
        times.append(float(out.stdout))
    return statistics.median(times) * 1e3


def _ratio(num, den, scale=1.0):
    return None if not den else num / den * scale


def layer_metrics(t: Tracer, peaks: dict, passes: int) -> dict:
    """name -> (value or None, unit). None means absent: the wrapped name is
    gone or the workload never reached it."""
    jet_names = [f"jet.{n}" for n in JET_FUNCS + JET_OPS]
    n_jet = t.calls("expr.eval_jet")
    residual_nodes = sum(t.calls(f"weingarten.residual.{k}", "weingarten.scan_grid") for k in RESIDUALS)
    scan_nodes = residual_nodes + t.calls("families.deviation", "weingarten.scan_grid")
    n_main = t.calls("cli.main")
    out = {
        "cli.main_self_ms": (_ratio(t.self_ns("cli.main"), n_main, 1e-6), "ms"),
        "cli.ode_self_ms": (_ratio(t.self_ns("cli.cmd_ode"), t.calls("cli.cmd_ode"), 1e-6), "ms"),
        "cli.report_bytes": (_ratio(t.counts["cli.report_bytes"], n_main), "bytes"),
        "expr.parse_us": (_ratio(t.total("expr.parse"), t.calls("expr.parse"), 1e-3), "us"),
        "expr.eval_jet_us_per_node": (_ratio(t.total("expr.eval_jet"), n_jet, 1e-3), "us"),
        "expr.eval_jet_self_us_per_node": (_ratio(t.self_ns("expr.eval_jet"), n_jet, 1e-3), "us"),
        "expr.eval_value_us_per_call": (_ratio(t.total("expr.eval_value"), t.calls("expr.eval_value"), 1e-3), "us"),
        "jet.ops_per_node": (_ratio(sum(t.calls(n, "expr.eval_jet") for n in jet_names), n_jet), "count"),
        "jet.self_us_per_node": (_ratio(sum(t.self_ns(n) for n in jet_names), n_jet, 1e-3), "us"),
        "curvature.curvatures_us_per_call": (
            _ratio(t.total("curvature.curvatures"), t.calls("curvature.curvatures"), 1e-3), "us"),
    }
    for k in RESIDUALS:
        name = f"weingarten.residual.{k}"
        out[f"weingarten.residual_self_us_per_node.{k}"] = (_ratio(t.self_ns(name), t.calls(name), 1e-3), "us")
    out.update({
        "weingarten.jacobian_jets_per_node": (
            _ratio(t.calls("expr.eval_jet", "weingarten.weingarten_jacobian"),
                   t.calls("weingarten.weingarten_jacobian")), "count"),
        "weingarten.scan_grid_self_us_per_node": (
            _ratio(t.self_ns("weingarten.scan_grid"), scan_nodes, 1e-3), "us"),
        "weingarten.summarize_ns_per_sample": (
            _ratio(t.total("weingarten.summarize"), t.counts["summarize.samples"]), "ns"),
        "weingarten.scan_grid_peak_mb": (_ratio(peaks.get("weingarten.scan_grid"), 1 << 20), "MB"),
        "domain.included_calls": (_ratio(t.calls("domain.included"), passes), "count"),
        "domain.excluded_nodes": (_ratio(t.counts["domain.excluded"], passes), "count"),
        "domain.included_ns_per_call": (_ratio(t.total("domain.included"), t.calls("domain.included")), "ns"),
        "families.build_us": (_ratio(t.total("families.build"), t.calls("families.build"), 1e-3), "us"),
        "families.verify_family_self_us_per_node": (
            _ratio(t.self_ns("families.verify_family") + t.self_ns("families.deviation"),
                   t.calls("families.deviation"), 1e-3), "us"),
        "families.case31_scan_us_per_sample": (
            _ratio(t.total("families.case31_contradiction_scan"), t.counts["case31.samples"], 1e-3), "us"),
        "oracle.fd_jet_us_per_point": (_ratio(t.total("oracle.fd_jet"), t.calls("oracle.fd_jet"), 1e-3), "us"),
        "oracle.values_per_point": (
            _ratio(t.calls("expr.eval_value", "oracle.fd_jet"), t.calls("oracle.fd_jet")), "count"),
        "oracle.compare_us_per_call": (_ratio(t.total("oracle.compare"), t.calls("oracle.compare"), 1e-3), "us"),
        "mesh.build_mesh_self_us_per_vertex": (
            _ratio(t.self_ns("mesh.build_mesh"), t.counts["mesh.vertices"], 1e-3), "us"),
        "mesh.write_obj_self_ms": (_ratio(t.self_ns("mesh.write_obj"), t.calls("mesh.write_obj"), 1e-6), "ms"),
        "mesh.obj_bytes": (_ratio(t.counts["mesh.obj_bytes"], t.calls("mesh.write_obj")), "bytes"),
        "mesh.build_mesh_peak_mb": (_ratio(peaks.get("mesh.build_mesh"), 1 << 20), "MB"),
        "ode.integrate_us_per_step": (_ratio(t.total("ode.integrate"), t.counts["ode.steps"], 1e-3), "us"),
        "ode.rhs_calls_per_step": (_ratio(t.counts["ode.rhs"], t.counts["ode.steps"]), "count"),
        "ode.trajectory_peak_mb": (_ratio(peaks.get("ode.integrate"), 1 << 20), "MB"),
    })
    return out


def run_traced(b: workloads.Builder, seconds: float, children) -> dict:
    src = children.src
    if src not in sys.path:
        sys.path.insert(0, src)
    m = _modules()
    import oracle_child  # imports isocurv, so only once src is on sys.path

    tally = checks.Tally()
    metrics: dict = {"cli.import_ms": {"value": import_ms(children), "unit": "ms"}}
    runner = InProcess(m, oracle_child.run)
    tracer = Tracer()

    def one_pass(traced: bool) -> float:
        """Run every operation once; the time spent in the program."""
        busy = 0.0
        for i, op in enumerate(b.ops):
            t0 = time.perf_counter()
            out = runner.run(op)
            busy += time.perf_counter() - t0
            if traced and op.kind != "oracle":
                tracer.counts["cli.report_bytes"] += len(out.stdout)
            tally.record(i, op, out)
        return busy

    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        plain_s += one_pass(False)
        with Patches() as patches:
            install_spans(tracer, m, patches)
            traced_s += one_pass(True)
        passes += 1
    peaks: dict = {}
    aside = checks.Tally()
    with Patches() as peak_patches:
        install_peaks(peaks, m, peak_patches)
        for k, op in enumerate(b.once):
            aside.record(-1 - k, op, runner.run(op))
        one_pass(False)
    tally.unexpected += [f"once-per-run {msg}" for msg in aside.unexpected]
    absent = patches.absent | peak_patches.absent
    for name, (value, unit) in layer_metrics(tracer, peaks, passes).items():
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name]["absent"] = True
    metrics["trace.overhead_pct"] = {"value": (traced_s - plain_s) / plain_s * 100.0, "unit": "%"}
    print(f"traced passes: {passes}; in-process {plain_s:.2f} s untraced, {traced_s:.2f} s traced")
    if absent:
        print(f"absent wrapped names: {sorted(absent)}")
    for name, mt in metrics.items():
        print(f"{name}: {mt['value'] if mt['value'] is None else format(mt['value'], '.6g')} {mt['unit']}")
    return tally.summary(metrics)
