"""isocurv benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a checkout (nothing needs installing):

    python3 bench/run.py --workload jet-scan --seed 1 --seconds 30 --trace 0

Every operation runs the program as its users do, one child process at a
time (closed loop): `python -m isocurv <subcommand>` with the checkout's
src on PYTHONPATH, or bench/oracle_child.py for the finite-difference
oracle, which has no subcommand. Each output is checked against the
benchmark's own closed-form computations (checks.py, corpus.py). Times
are scaled to a reference host's speed, measured by a fixed loop timed
after every child (README.md, Noise). The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the operations run in-process under timing wrappers
(tracing.py) and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# Every operation runs at least twice, so each report is compared with a repeat.
MIN_ROUNDS = 2
# Thrown-away children before any timing, so byte-compiled modules exist.
WARMUP_RUNS = 2
# Surfaces whose set-up is probed in every round.
SETUP_PROBES = 2
# The reference loop timed after every child: REFERENCE_N iterations, best
# of REFERENCE_REPEATS. Its best time on the quiet reference host is
# REFERENCE_S; a child's wall time is scaled by REFERENCE_S over the mean
# of the loop's times just before and after it (README.md, Noise).
REFERENCE_N = 30000
REFERENCE_REPEATS = 3
REFERENCE_S = 0.004
# (metric, unit, kind of the operations whose work and time it divides)
RATES = (
    ("scan_nodes_per_s", "nodes/s", "scan"),
    ("jacobian_nodes_per_s", "nodes/s", "jacobian"),
    ("family_nodes_per_s", "nodes/s", "family"),
    ("mesh_vertices_per_s", "vertices/s", "mesh"),
    ("oracle_points_per_s", "points/s", "oracle"),
    ("ode_steps_per_s", "steps/s", "ode"),
)


class Children:
    """Runs isocurv and oracle_child.py as child processes, through the
    small launcher process in launch.py. Use as a context manager: leaving
    it stops the launcher and waits for it."""

    def __init__(self, src: str, tmp: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.src = src
        self.tmp = tmp
        self.out_path = os.path.join(tmp, "child.out")
        self.err_path = os.path.join(tmp, "child.err")
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()

    def command(self, op: workloads.Op) -> list:
        if op.kind == "oracle":
            return [sys.executable, os.path.join(BENCH_DIR, "oracle_child.py"), *op.argv]
        return [sys.executable, "-m", "isocurv", *op.argv]

    def run(self, cmd: list) -> workloads.Outcome:
        req = {"argv": cmd, "stdout": self.out_path, "stderr": self.err_path}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended")
        reply = json.loads(line)
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        with open(self.err_path, "rb") as fh:
            err = fh.read()
        return workloads.Outcome(reply["rc"], out, err, reply["wall_s"], reply["maxrss_kb"])


def setup_probes(surfaces: list, tmp: str) -> list:
    """Fresh 2x2 scans of the workload's first SETUP_PROBES surfaces:
    interpreter start, import, argument parsing and per-surface set-up."""
    probe = workloads.Builder(None, tmp)
    for s in surfaces[:SETUP_PROBES]:
        probe.scan(s, "euler", (2, 2))
    return probe.ops


def percentile_line(walls: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(walls)
    line = f"cli latency: n={n} median={statistics.median(walls) * 1e3:.2f} ms"
    if n >= 40:
        for p in (99.9, 99.0, 95.0, 90.0):
            if n * (100.0 - p) / 100.0 >= 10:
                q = statistics.quantiles(walls, n=1000, method="inclusive")[round(p * 10) - 1]
                line += f" p{p:g}={q * 1e3:.2f} ms"
                break
    return line


def reference_s() -> float:
    """Best of REFERENCE_REPEATS timings of a fixed pure-Python loop: the
    host's speed at this moment (README.md, Noise)."""
    best = math.inf
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REFERENCE_N):
            x = i * 1e-3
            acc += math.sqrt(x * x + 1.0) - x / (1.0 + x)
        best = min(best, time.perf_counter() - t0)
    return best


def run_untraced(b: workloads.Builder, seconds: float, children: Children) -> dict:
    tally = checks.Tally()
    # Set-up probes and the once-per-run operations are checked, but not
    # counted in attempted, so the failed share is that of the rounds alone.
    aside = checks.Tally()
    probes = setup_probes(b.surfaces, children.tmp)
    for op in probes[:WARMUP_RUNS]:
        children.run(children.command(op))
    peak_kb = 0
    for k, op in enumerate(b.once):
        out = children.run(children.command(op))
        peak_kb = max(peak_kb, out.maxrss_kb)
        aside.record(-1 - k, op, out)
    # Each round runs the set-up probes, then the workload's operations.
    timed = probes + b.ops
    commands = [children.command(op) for op in timed]
    walls: list[list[float]] = [[] for _ in timed]
    scaled: list[list[float]] = [[] for _ in timed]
    start = time.perf_counter()
    rounds = 0
    refs = [reference_s()]
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for k, op in enumerate(timed):
            out = children.run(commands[k])
            refs.append(reference_s())
            walls[k].append(out.wall_s)
            scaled[k].append(out.wall_s * REFERENCE_S * 2.0 / (refs[-2] + refs[-1]))
            peak_kb = max(peak_kb, out.maxrss_kb)
            if k < len(probes):
                aside.record(k, op, out)
            else:
                tally.record(k - len(probes), op, out)
        rounds += 1
    tally.unexpected += [f"set-up or once-per-run {msg}" for msg in aside.unexpected]
    elapsed = time.perf_counter() - start

    def metrics_of(times: list) -> dict:
        """The end-to-end metrics from one time per timed operation."""
        setup, op_s = times[:len(probes)], times[len(probes):]
        out = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
        for name, unit, kind in RATES:
            idx = [i for i, op in enumerate(b.ops) if op.kind == kind]
            out[name] = {"value": sum(b.ops[i].work for i in idx) / sum(op_s[i] for i in idx), "unit": unit}
        cli = [i for i, op in enumerate(b.ops) if op.kind != "oracle"]
        out["cli_runs_per_s"] = {"value": len(cli) / sum(op_s[i] for i in cli), "unit": "runs/s"}
        out["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB"}
        return out

    # Each operation's time is the median over the rounds of its wall time
    # scaled to the reference host's speed (README.md, Noise).
    metrics = metrics_of([statistics.median(s) for s in scaled])
    unscaled = metrics_of([statistics.median(w) for w in walls])
    busy = sum(sum(w) for w in walls)
    cli = [len(probes) + i for i, op in enumerate(b.ops) if op.kind != "oracle"]
    print(f"rounds: {rounds} of {len(b.ops)} operations in {elapsed:.1f} s, {busy:.1f} s in children")
    print(percentile_line([w for k in cli for w in walls[k]]))
    print(f"reference loop: median {statistics.median(refs) * 1e3:.3f} ms over {len(refs)} timings"
          f" ({REFERENCE_S * 1e3:.3f} ms on the reference host)")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']} (unscaled {unscaled[name]['value']:.6g})")
    return tally.summary(metrics)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "isocurv", "__init__.py")):
        print(f"error: no isocurv package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        b = workloads.build(args.workload, args.seed, tmp)
        with Children(src, tmp) as children:
            if args.trace:
                result = tracing.run_traced(b, args.seconds, children)
            else:
                result = run_untraced(b, args.seconds, children)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
