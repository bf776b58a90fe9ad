"""The three workloads: seeded operations on the isocurv CLI and oracle API.

A workload is a fixed list of operations (one round). Every run repeats
whole rounds, so each operation, and each known fault, is attempted the
same number of times per round whatever the seed or run length. The seed
only picks coefficients, points and ODE parameters; the shapes of the
surfaces, grid sizes and step counts are fixed, so the amount of work in a
round is the same for every seed.

Rounds hold every kind of operation and are kept to a few seconds, so a
run times each operation many times (see run.py on why that matters).
The rest of a workload's inputs run once per run, before the rounds
(Builder.once): they are checked but not timed. Among them is each
workload's large-grid operation, there for peak RSS, which does not vary
from run to run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks
import corpus
from corpus import coef

JET_GATE = 1e-9  # the program's gate on the lw and euler residuals
JACOBIAN_GATE = 1e-6  # its gate on the Jacobian residual
FAMILY_GATE = 1e-9  # its gate on verify-family deviations
ORACLE_TOL_REL = 1e-5  # compare() tolerance used by oracle_child.py
ALL_FAMILIES = ("CaseA", "CaseB", "CaseC", "ParabolicSphere", "NonIsotropicPlane", "Case31Candidate")


@dataclass
class Outcome:
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float = 0.0
    maxrss_kb: int = 0


@dataclass
class Op:
    """One operation. kind groups it for the throughput metrics; argv are
    the isocurv arguments, or [cases.json] for oracle_child.py; work
    counts its nodes, vertices, points or steps."""

    kind: str
    argv: list
    work: int
    check: Callable[[Outcome], None]
    fault: Optional[str] = None
    outputs: tuple = ()  # files the operation writes


class Builder:
    def __init__(self, rng: random.Random, tmp: str):
        self.rng = rng
        self.tmp = tmp
        self.ops: list[Op] = []
        self.once: list[Op] = []  # checked, not timed, not counted in attempted
        self.surfaces: list[corpus.Surface] = []
        self._n_files = 0

    def _path(self, suffix: str) -> str:
        self._n_files += 1
        return os.path.join(self.tmp, f"{self._n_files:03d}{suffix}")

    def run_once(self) -> None:
        """Move the operation just added out of the rounds: it runs once per
        run, checked but not timed."""
        self.once.append(self.ops.pop())

    def _surface(self, s: corpus.Surface) -> None:
        if all(s.text != t.text for t in self.surfaces):
            self.surfaces.append(s)

    def scan(self, s: corpus.Surface, kind: str, grid: tuple, lw=None, fault=None) -> None:
        argv = ["scan", f"--surface={s.text}", f"--residual={kind}", f"--grid={grid[0]},{grid[1]}"]
        if lw is not None:
            argv += [f"--a={lw[0]!r}", f"--b={lw[1]!r}", f"--c={lw[2]!r}"]
        gate = JACOBIAN_GATE if kind == "jacobian" else JET_GATE

        def check(o: Outcome) -> None:
            checks.check_scan(checks.report(o.stdout, o.rc, "scan"), s, kind, grid, gate, lw)

        group = "jacobian" if kind == "jacobian" else "scan"
        self.ops.append(Op(group, argv, grid[0] * grid[1], check, fault))
        self._surface(s)

    def families(self, grid: tuple, exclusion_steps: float, timed: tuple) -> None:
        """verify-family on all six kinds; the Case31Candidate run excludes
        exclusion_steps grid steps around its pole. Kinds not named in timed
        run once per run."""
        step = 2.0 / (grid[0] - 1)
        for fam in corpus.family_specs(self.rng, step):
            path = self._path(".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fam.spec, fh)
            radius = exclusion_steps * step if fam.pole is not None else 0.01
            argv = ["verify-family", f"--spec={path}", f"--grid={grid[0]},{grid[1]}", f"--exclusion={radius!r}"]
            if fam.pole is None:
                work = grid[0] * grid[1]
            else:
                work = sum(1 for x in corpus.axis(-1.0, 1.0, grid[0]) if checks.included(x, fam.pole, radius))

            def check(o: Outcome, fam=fam, radius=radius) -> None:
                rep = checks.report(o.stdout, o.rc, "verify-family")
                checks.check_family(rep, fam, grid, radius, 0.0, FAMILY_GATE)

            self.ops.append(Op("family", argv, work, check))
            if fam.spec["kind"] not in timed:
                self.run_once()

    def mesh(self, s: corpus.Surface, grid: tuple, spec: Optional[dict] = None,
             pole: Optional[float] = None, radius: float = 0.01) -> None:
        out = self._path(".obj")
        argv = ["mesh", f"--grid={grid[0]},{grid[1]}", f"--out={out}", f"--exclusion={radius!r}"]
        if spec is None:
            argv.append(f"--surface={s.text}")
            self._surface(s)
        else:
            path = self._path(".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            argv.append(f"--spec={path}")
        xs = corpus.axis(-1.0, 1.0, grid[0])
        work = sum(1 for x in xs if checks.included(x, pole, radius)) * grid[1]

        def check(o: Outcome) -> None:
            checks.check_mesh(checks.report(o.stdout, o.rc, "mesh"), out, s, grid, pole, radius)

        self.ops.append(Op("mesh", argv, work, check, outputs=(out,)))

    def case31_mesh(self, grid: tuple, exclusion_steps: float) -> None:
        step = 2.0 / (grid[0] - 1)
        fam = corpus.case31(self.rng, step)
        self.mesh(fam.surface, grid, spec=fam.spec, pole=fam.pole, radius=exclusion_steps * step)

    def ode(self, kind: str, steps: int) -> None:
        """kind: cosh or cos (saturated-linear with d10 = 0, checked against
        the closed form), saturated (d10 != 0, checked by its energy) or
        reciprocal (shifted-reciprocal, checked against the closed form)."""
        rng = self.rng
        t_end = 1.0
        ode: dict = {"t0": 0.0, "t_end": t_end, "step": t_end / steps}
        if kind == "reciprocal":
            c3, m0, c4, d9 = coef(rng, 0.5, 2.0), coef(rng, 0.5, 2.0), coef(rng, 0.5, 1.5), coef(rng, 1.0, 2.0)
            f0, fp0 = corpus.shifted_recip(c3, c4, d9, m0, 0.0)
            ode.update(f0=f0, fp0=fp0, exact=lambda t: corpus.shifted_recip(c3, c4, d9, m0, t)[0])
            flags = ["--ode=shifted-reciprocal", f"--c3={c3!r}", f"--m0={m0!r}",
                     f"--oracle-c4={c4!r}", f"--oracle-d9={d9!r}"]
        else:
            c5 = coef(rng, 0.5, 2.0) * (-1.0 if kind == "cos" else 1.0)
            d10 = coef(rng, 0.2, 0.8) if kind == "saturated" else 0.0
            f0, fp0 = coef(rng, 0.5, 1.5), coef(rng, 0.1, 0.5)
            ode.update(f0=f0, fp0=fp0, c5=c5, d10=d10)
            if d10 == 0.0:
                ode["exact"] = lambda t: corpus.linear_force(c5, f0, fp0, t)
            flags = ["--ode=saturated-linear", f"--c5={c5!r}", f"--d10={d10!r}"]
        out = self._path(".csv")
        argv = ["ode", *flags, f"--f0={ode['f0']!r}", f"--fp0={ode['fp0']!r}", "--t0=0.0",
                f"--t-end={t_end!r}", f"--step={ode['step']!r}", f"--out={out}"]

        def check(o: Outcome) -> None:
            checks.check_ode(checks.report(o.stdout, o.rc, "ode"), out, ode)

        self.ops.append(Op("ode", argv, steps, check, outputs=(out,)))

    def oracle(self, surfaces: list, points_each: int) -> None:
        cases = []
        for s in surfaces:
            pts = [(round(self.rng.uniform(-0.9, 0.9), 3), round(self.rng.uniform(-0.9, 0.9), 3))
                   for _ in range(points_each)]
            cases.append((s, pts))
        path = self._path(".json")
        doc = {"tol_rel": ORACLE_TOL_REL,
               "cases": [{"surface": s.text, "points": pts} for s, pts in cases]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

        def check(o: Outcome) -> None:
            checks.expect(o.rc == 0, f"oracle_child.py exit code {o.rc}: {o.stderr[-300:]!r}")
            checks.check_oracle(checks.strict_json(o.stdout.decode("utf-8")), cases, ORACLE_TOL_REL)

        self.ops.append(Op("oracle", [path], len(surfaces) * points_each, check))

    def eval(self, s: corpus.Surface) -> None:
        x, y = round(self.rng.uniform(-1.0, 1.0), 3), round(self.rng.uniform(-1.0, 1.0), 3)

        def check(o: Outcome) -> None:
            checks.check_eval(checks.report(o.stdout, o.rc, "eval"), s, x, y)

        self.ops.append(Op("eval", ["eval", f"--surface={s.text}", f"--at={x!r},{y!r}"], 1, check))
        self._surface(s)

    def overflow_eval(self) -> None:
        """eval of 1e200*x*y at (1, 1): K = -1e400 overflows, so there is no
        finite report to give."""
        def check(o: Outcome) -> None:
            checks.check_refused(o.stdout, o.stderr, o.rc)

        self.ops.append(Op("eval", ["eval", "--surface=1e200*x*y", "--at=1,1"], 1, check,
                           fault="eval prints K = -Infinity (not JSON) and exits 0"))


def lw_zero(s: corpus.Surface, a: float) -> tuple:
    """(a, 1, K) for a surface with H = 0 and constant K: its lw residual
    a*H + K - c vanishes at every node."""
    K, _ = corpus.invariants(s.partials(0.0, 0.0)[0])
    return (a, 1.0, K)


def jet_scan(b: Builder) -> None:
    r = b.rng
    big, mix, bil, cub, eb = (corpus.cubic(r), corpus.mixed(r), corpus.bilinear(r),
                              corpus.cubic(r), corpus.exp_bilinear(r))
    b.scan(big, "euler", (251, 251))  # the grid whose per-node lists show in peak RSS
    b.run_once()
    b.scan(eb, "euler", (51, 51))
    b.run_once()
    b.scan(cub, "lw", (61, 61), lw=(1.0, 1.0, 0.0))
    b.run_once()
    b.scan(mix, "euler", (51, 51))
    b.scan(cub, "jacobian", (31, 31))
    b.families((41, 41), 1.5, timed=("CaseA", "Case31Candidate"))
    b.scan(bil, "lw", (51, 51), lw=lw_zero(bil, coef(r, 0.5, 2.0)))
    b.mesh(corpus.trig(r), (21, 21))
    b.scan(mix, "jacobian", (31, 31))
    b.ode("cosh", 500)
    b.oracle([mix], 40)
    b.scan(bil, "jacobian", (31, 31))
    b.oracle([eb, cub], 30)
    b.mesh(corpus.log_exp(r), (21, 21))
    b.ode("reciprocal", 500)
    b.scan(corpus.rotational_exp(), "jacobian", (31, 31),
           fault="central-difference Jacobian of the W-surface exp(x^2+y^2) exceeds the 1e-6 gate")
    b.scan(corpus.constant_euler(), "euler", (101, 101),
           fault="std_dev of the constant residual of x^2+0.62*y^2 is not 0")


def value_export(b: Builder) -> None:
    r = b.rng
    mix, quart, eb, trig, root = (corpus.mixed(r), corpus.quartic(r), corpus.exp_bilinear(r),
                                  corpus.trig(r), corpus.root_product(r))
    b.mesh(mix, (251, 251))  # the grid whose vertex lists show in peak RSS
    b.run_once()
    b.mesh(eb, (81, 81))
    b.run_once()
    b.ode("saturated", 10000)
    b.run_once()
    b.ode("cos", 10000)
    b.run_once()
    bil = corpus.bilinear(r)
    b.mesh(mix, (101, 101))
    b.ode("cosh", 10000)
    b.oracle([mix, root, trig], 40)
    b.mesh(quart, (81, 81))
    b.families((11, 11), 1.5, timed=("CaseA", "Case31Candidate"))
    b.case31_mesh((81, 81), 3.0)
    b.ode("reciprocal", 10000)
    b.scan(trig, "euler", (21, 21))
    b.scan(root, "jacobian", (21, 21))
    b.scan(bil, "lw", (21, 21), lw=lw_zero(bil, coef(r, 0.5, 2.0)))
    b.scan(trig, "jacobian", (21, 21))


def cli_short(b: Builder) -> None:
    r = b.rng
    for make in corpus.TEMPLATES[:6]:
        b.eval(make(r))
    b.overflow_eval()
    b.scan(corpus.mixed(r), "euler", (5, 5))
    b.scan(corpus.quartic(r), "euler", (5, 5))
    bil = corpus.bilinear(r)
    b.scan(bil, "lw", (5, 5), lw=lw_zero(bil, coef(r, 0.5, 2.0)))
    b.scan(corpus.cubic(r), "lw", (5, 5), lw=(1.0, 1.0, 0.0))
    b.scan(corpus.cubic(r), "jacobian", (5, 5))
    b.scan(corpus.bilinear(r), "jacobian", (5, 5))
    b.scan(corpus.mixed(r), "jacobian", (5, 5))
    b.families((3, 3), 0.25, timed=ALL_FAMILIES)
    b.ode("cosh", 100)
    b.ode("reciprocal", 100)
    b.ode("cos", 100)
    b.mesh(corpus.trig(r), (5, 5))
    b.mesh(corpus.log_exp(r), (5, 5))
    b.mesh(corpus.quartic(r), (5, 5))
    b.oracle([corpus.root_product(r)], 4)
    b.oracle([corpus.trig(r)], 4)
    for make in corpus.TEMPLATES[6:]:
        b.eval(make(r))


WORKLOADS = {"jet-scan": jet_scan, "value-export": value_export, "cli-short": cli_short}


def build(name: str, seed: int, tmp: str) -> Builder:
    b = Builder(random.Random(f"{name}/{seed}"), tmp)
    WORKLOADS[name](b)
    return b
