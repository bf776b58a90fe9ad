"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Each check prints `criterion NN PASS/FAIL - <name>: <detail>` (also replayed
in the terminal summary) and fails its test when the verdict is FAIL.
"""

import functools
import math
import random
import time

import conftest

from isocurv import (
    Case31Candidate,
    CaseA,
    CaseB,
    CaseC,
    GridDomain,
    IVP,
    NonIsotropicPlane,
    ParabolicSphere,
    SaturatedLinearODE,
    ShiftedReciprocalODE,
    build,
    case31_contradiction_scan,
    case31_residual,
    compare,
    curvatures,
    euler_residual,
    euler_residual_fn,
    eval_jet,
    fd_jet,
    integrate,
    lift_1d,
    normalize,
    parse,
    predict,
    scan_grid,
    shifted_reciprocal_residual,
    shifted_reciprocal_solution,
    verify_family,
    weingarten_jacobian,
)
from isocurv.expr import Add, Const, Div, Mul, Neg, Var, num


def criterion(index: int, name: str):
    """Wrap a check returning (passed, detail) into a reported test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                passed, detail = fn(*args, **kwargs)
            except Exception as exc:
                _emit(index, name, False, f"raised {exc!r}")
                raise
            _emit(index, name, passed, detail)
            assert passed, f"criterion {index:02d} {name}: {detail}"

        return wrapper

    return deco


def _emit(index: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {index:02d} {verdict} - {name}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


GRID = GridDomain()  # 101x101 over [-1,1]^2


def _grid_points():
    xs = GRID.xs()
    for y in GRID.ys():
        for x in xs:
            yield x, y


@criterion(1, "jet arithmetic agrees with finite differences")
def test_criterion_01(expr_corpus_100):
    n_flags = 0
    n_checked = 0
    for tree, points in expr_corpus_100:
        for p in points:
            result = compare(eval_jet(tree, p), fd_jet(tree, p), tol_rel=1e-5)
            n_flags += len(result.flagged)
            n_checked += 1
    return n_flags == 0, (
        f"{n_flags} flagged components over {n_checked} expressions "
        f"(tol_rel 1e-5, six components each)"
    )


@criterion(2, "linear-factor product surface has H = 0, K = -36")
def test_criterion_02():
    surface = parse("(2*x+1)*(3*y+4)")
    max_h = 0.0
    max_k = 0.0
    for p in _grid_points():
        pair = curvatures(eval_jet(surface, p))
        max_h = max(max_h, abs(pair.H))
        max_k = max(max_k, abs(pair.K + 36.0))
    passed = max_h <= 1e-12 and max_k <= 1e-9
    return passed, (
        f"max |H| = {max_h:.3e} (tol 1e-12), max |K+36| = {max_k:.3e} "
        f"(tol 1e-9) over {GRID.nx * GRID.ny} nodes"
    )


@criterion(3, "flat constant-H family meets its normalized relation")
def test_criterion_03():
    spec = CaseA(f0=1.0, m0=1.0, n0=2.0, d1=0.0, d2=0.0)
    report = verify_family(spec, GRID)
    prediction = predict(spec)
    norm = normalize(prediction.lw)
    surface = build(spec)

    def relation_defect(s, x, y):
        pair = curvatures(eval_jet(s, (x, y)))
        return 2.0 * norm.m0 * pair.H + pair.K - norm.n0

    relation = scan_grid(surface, GRID, relation_defect)
    passed = report.max_abs <= 1e-9 and relation.max_abs <= 1e-9
    return passed, (
        f"max invariant deviation {report.max_abs:.3e}, max relation residual "
        f"{relation.max_abs:.3e} with (m0', n0') = ({norm.m0}, {norm.n0}) "
        f"(both tol 1e-9)"
    )


@criterion(4, "constant-invariant families verify and have zero Jacobian")
def test_criterion_04():
    specs = [
        CaseA(f0=1.0, m0=1.0, n0=2.0, d1=0.0, d2=0.0),
        CaseB(g0=2.0, m0=1.0, n0=-3.0, d3=0.5, d4=1.0),
        CaseC(c8=2.0, d15=1.0, c9=3.0, d16=4.0),
    ]
    rng = random.Random(4)
    worst_dev = 0.0
    worst_jac = 0.0
    for spec in specs:
        report = verify_family(spec, GRID)
        worst_dev = max(worst_dev, report.max_abs)
        surface = build(spec)
        for _ in range(25):
            p = (rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            worst_jac = max(worst_jac, abs(weingarten_jacobian(surface, p)))
    passed = worst_dev <= 1e-9 and worst_jac <= 1e-6
    return passed, (
        f"3 kinds: max invariant deviation {worst_dev:.3e} (tol 1e-9), "
        f"max |Jacobian| {worst_jac:.3e} at 25 random points each (tol 1e-6)"
    )


@criterion(5, "defect separates spheres and planes from a generic surface")
def test_criterion_05():
    sphere = build(ParabolicSphere(c3=0.5, d8=3.0, d9=-1.0, d10=7.0))
    plane = build(NonIsotropicPlane(p=2.0, q=-1.0, r=1.0))
    control = parse("exp(x)*sin(y)")
    fn = euler_residual_fn()
    sphere_max = scan_grid(sphere, GRID, fn).max_abs
    plane_max = scan_grid(plane, GRID, fn).max_abs
    control_max = scan_grid(control, GRID, fn).max_abs
    passed = sphere_max <= 1e-12 and plane_max <= 1e-12 and control_max > 0.1
    return passed, (
        f"sphere {sphere_max:.3e}, plane {plane_max:.3e} (tol 1e-12); "
        f"generic control {control_max:.3e} (must exceed 0.1)"
    )


@criterion(6, "defect identity (z_xx-z_yy)^2 + 4 z_xy^2 = 4(H^2-K)")
def test_criterion_06(sample_corpus_1000):
    worst_rel = 0.0
    n = 0
    for tree, points in sample_corpus_1000:
        for p in points:
            j = eval_jet(tree, p)
            pair = curvatures(j)
            lhs = euler_residual(j)
            rhs = 4.0 * (pair.H * pair.H - pair.K)
            worst_rel = max(worst_rel, abs(lhs - rhs) / (1.0 + abs(lhs)))
            n += 1
    return worst_rel <= 1e-9, (
        f"worst relative deviation {worst_rel:.3e} over {n} samples (tol 1e-9)"
    )


@criterion(7, "reciprocal-factor candidate admits no constant relation")
def test_criterion_07():
    spec = Case31Candidate(c3=1.0, c4=1.0, d7=0.0, d8=0.0, d9=0.0, m0=1.0)
    xs = [0.5, 1.0, 2.0]
    targets = [-5.0, -3.0, -2.0]
    values = [case31_residual(spec, 0.0, x) for x in xs]
    worst = max(abs(v - t) for v, t in zip(values, targets))
    report = case31_contradiction_scan(spec, 0.0, xs)
    passed = worst <= 1e-9 and report.std_dev > 0.0
    return passed, (
        f"defect at x={xs} is {values} (targets {targets}, tol 1e-9), "
        f"std_dev {report.std_dev:.4f} > 0"
    )


@criterion(8, "integrator hits both closed-form oracles and their residual")
def test_criterion_08():
    # growth benchmark with timing
    growth = IVP(
        SaturatedLinearODE(c5=1.0, d10=0.0),
        t0=0.0,
        f0=1.0,
        fp0=0.0,
        t_end=1.0,
        step=1e-3,
    )
    integrate(growth)  # warm-up
    runtime = min(
        _timed(lambda: integrate(growth)) for _ in range(3)
    )
    growth_err = abs(integrate(growth)[-1][1] - math.cosh(1.0))

    # reciprocal benchmark against its closed form at two abscissas
    c3, c4, d9, m0 = 1.0, 1.0, 2.0, 1.0
    recip = IVP(
        ShiftedReciprocalODE(c3=c3, m0=m0),
        t0=0.0,
        f0=shifted_reciprocal_solution(c3, c4, d9, m0, 0.0),
        fp0=c4 / d9**2,
        t_end=1.0,
        step=1e-3,
    )
    traj = integrate(recip)
    recip_err = max(
        abs(traj[k][1] - shifted_reciprocal_solution(c3, c4, d9, m0, traj[k][0]))
        for k in (500, 1000)
    )

    # the equation's residual on exact jets of its solution family
    rng = random.Random(8)
    worst_res = 0.0
    checked = 0
    while checked < 100:
        rc3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        rc4 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        rd9 = rng.uniform(-1.0, 1.0)
        rm0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        x0 = rng.uniform(-3.0, 3.0)
        if abs(rc4 * x0 + rd9) < 0.3:
            continue
        shift = rm0 / (2.0 * rc3)
        tree = Neg(
            Add(
                Div(Const(1.0), Add(Mul(num(rc4), Var("x")), num(rd9))),
                Const(shift),
            )
        )
        j = lift_1d(tree, x0)
        worst_res = max(
            worst_res, abs(shifted_reciprocal_residual(rc3, rm0, j.v, j.d, j.dd))
        )
        checked += 1

    passed = (
        growth_err <= 1e-6
        and runtime < 0.050
        and recip_err <= 1e-6
        and worst_res <= 1e-9
    )
    return passed, (
        f"growth endpoint error {growth_err:.3e} (tol 1e-6) in {runtime * 1e3:.1f} ms "
        f"(limit 50 ms); reciprocal error {recip_err:.3e} at x = 0.5, 1 (tol 1e-6); "
        f"max solution-jet residual {worst_res:.3e} at {checked} random points (tol 1e-9)"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion(9, "halving the integrator step cuts the error at least 8-fold")
def test_criterion_09():
    # The order check runs where truncation still dominates: at the
    # benchmark's contract step 1e-3 both errors sit on the double-precision
    # roundoff floor (~1e-14), orders of magnitude below the 1e-6 tolerance,
    # so the ratio there measures rounding noise rather than the scheme.
    def max_err(step: float) -> float:
        ivp = IVP(
            SaturatedLinearODE(c5=1.0, d10=0.0),
            t0=0.0,
            f0=1.0,
            fp0=0.0,
            t_end=1.0,
            step=step,
        )
        return max(abs(f - math.cosh(t)) for t, f, _ in integrate(ivp))

    coarse = max_err(0.05)
    fine = max_err(0.025)
    ratio = coarse / fine
    floor_a = max_err(1e-3)
    floor_b = max_err(5e-4)
    passed = ratio >= 8.0 and floor_a <= 1e-6 and floor_b <= 1e-6
    return passed, (
        f"error {coarse:.3e} at step 0.05 vs {fine:.3e} at 0.025: ratio "
        f"{ratio:.1f} (needs >= 8); at steps 1e-3/5e-4 the error is already "
        f"{floor_a:.1e}/{floor_b:.1e}, at the roundoff floor"
    )


@criterion(10, "exponential product surface has defect 4 at the origin")
def test_criterion_10():
    value = euler_residual(eval_jet(parse("exp(x)*exp(y)"), (0.0, 0.0)))
    return abs(value - 4.0) <= 1e-12, f"defect at origin = {value!r} (target 4, tol 1e-12)"
