"""Integrator and closed-form oracle tests for the factor equations."""

import math
import random

import pytest

from isocurv import (
    IVP,
    DegenerateODEError,
    InvalidSpecError,
    NumericOverflowError,
    SaturatedLinearODE,
    ShiftedReciprocalODE,
    SingularPointError,
    StepTooLargeError,
    integrate,
    lift_1d,
    linear_force_solution,
    shifted_reciprocal_residual,
    shifted_reciprocal_solution,
)
from isocurv import ode
from isocurv.expr import Add, Const, Div, Mul, Neg, Var, num


# -- construction and validation -------------------------------------------------


def test_rhs_validation():
    with pytest.raises(InvalidSpecError):
        ShiftedReciprocalODE(c3=0.0, m0=1.0)
    with pytest.raises(InvalidSpecError):
        SaturatedLinearODE(c5=0.0, d10=1.0)


def test_ivp_validation():
    rhs = SaturatedLinearODE(c5=1.0, d10=0.0)
    with pytest.raises(ValueError):
        IVP(rhs, t0=0.0, f0=1.0, fp0=0.0, t_end=1.0, step=0.0)
    with pytest.raises(ValueError):
        IVP(rhs, t0=0.0, f0=1.0, fp0=0.0, t_end=1.0, step=-0.1)
    with pytest.raises(ValueError):
        IVP(rhs, t0=1.0, f0=1.0, fp0=0.0, t_end=1.0, step=0.1)
    with pytest.raises(ValueError):
        IVP(rhs, t0=0.0, f0=1.0, fp0=0.0, t_end=1.0, step=2.0)


def test_trajectory_shape():
    rhs = SaturatedLinearODE(c5=1.0, d10=0.0)
    traj = integrate(IVP(rhs, t0=0.0, f0=1.0, fp0=0.0, t_end=1.0, step=0.3))
    # 1/0.3 rounds to 3 equal steps
    assert len(traj) == 4
    assert traj[0] == (0.0, 1.0, 0.0)
    assert traj[-1][0] == pytest.approx(1.0, abs=1e-15)


# -- benchmarks against closed forms ----------------------------------------------


def _final_error(step: float) -> float:
    rhs = SaturatedLinearODE(c5=1.0, d10=0.0)
    traj = integrate(IVP(rhs, t0=0.0, f0=1.0, fp0=0.0, t_end=1.0, step=step))
    return abs(traj[-1][1] - math.cosh(1.0))


def test_growth_benchmark():
    assert _final_error(1e-3) < 1e-10


def test_oscillation_benchmark():
    # f'' = -4 f with f(0) = 0, f'(0) = 2 is sin(2t).
    rhs = SaturatedLinearODE(c5=-4.0, d10=0.0)
    traj = integrate(IVP(rhs, t0=0.0, f0=0.0, fp0=2.0, t_end=1.5, step=1e-3))
    for t, f, fp in traj[:: len(traj) // 7]:
        assert f == pytest.approx(math.sin(2.0 * t), abs=1e-9)
        assert fp == pytest.approx(2.0 * math.cos(2.0 * t), abs=1e-9)


def test_energy_invariant():
    # For f'' = c5 f the quantity f'^2 - c5 f^2 is conserved.
    c5 = 1.0
    rhs = SaturatedLinearODE(c5=c5, d10=0.0)
    traj = integrate(IVP(rhs, t0=0.0, f0=1.0, fp0=0.0, t_end=1.0, step=1e-3))
    e0 = traj[0][2] ** 2 - c5 * traj[0][1] ** 2
    drift = max(abs(fp * fp - c5 * f * f - e0) for _, f, fp in traj)
    assert drift <= 1e-6
    assert drift <= 1e-9  # measured headroom is far below the contract bound


def test_halving_the_step_divides_the_error_by_sixteen():
    # Fourth-order convergence on the growth benchmark, checked where
    # truncation still dominates roundoff.
    coarse = _final_error(0.05)
    fine = _final_error(0.025)
    assert coarse / fine >= 8.0


def test_saturated_rhs_with_saturation_term():
    # d10 != 0 bends the force law; at small f it stays close to linear.
    rhs = SaturatedLinearODE(c5=1.0, d10=0.5)
    traj = integrate(IVP(rhs, t0=0.0, f0=0.01, fp0=0.0, t_end=1.0, step=1e-3))
    linear = linear_force_solution(1.0, 0.01, 0.0, 1.0)
    assert traj[-1][1] == pytest.approx(linear, rel=1e-2)
    assert traj[-1][1] != linear  # but not identical: the term does act


def test_reciprocal_trajectory_matches_closed_form():
    # f(x) = -(1/(x + 2) + 1/2) solves the shifted-reciprocal equation
    # with c3 = 1, m0 = 1; start from its exact data at x = 0.
    c3, c4, d9, m0 = 1.0, 1.0, 2.0, 1.0
    rhs = ShiftedReciprocalODE(c3=c3, m0=m0)
    f0 = shifted_reciprocal_solution(c3, c4, d9, m0, 0.0)
    fp0 = c4 / (c4 * 0.0 + d9) ** 2
    traj = integrate(IVP(rhs, t0=0.0, f0=f0, fp0=fp0, t_end=2.0, step=1e-3))
    assert f0 == -1.0
    for t, f, fp in traj[:: len(traj) // 9]:
        assert f == pytest.approx(
            shifted_reciprocal_solution(c3, c4, d9, m0, t), abs=1e-9
        )
        assert fp == pytest.approx(c4 / (c4 * t + d9) ** 2, abs=1e-9)
    assert traj[-1][1] == pytest.approx(-0.75, abs=1e-9)


# -- guards ------------------------------------------------------------------------


def test_degenerate_start_raises():
    # Starting exactly on the vanishing denominator: f0 = -m0/(2 c3).
    rhs = ShiftedReciprocalODE(c3=1.0, m0=1.0)
    with pytest.raises(DegenerateODEError) as exc_info:
        integrate(IVP(rhs, t0=0.0, f0=-0.5, fp0=1.0, t_end=1.0, step=0.1))
    assert exc_info.value.t == 0.0


def test_denominator_floor_is_a_band():
    rhs = SaturatedLinearODE(c5=1.0, d10=-1.0)
    # c5 d10 f + 1 = 1 - f, so f0 = 1 - 1e-9 is inside the floor band
    with pytest.raises(DegenerateODEError):
        integrate(IVP(rhs, t0=0.0, f0=1.0 - 1e-9, fp0=0.0, t_end=1.0, step=0.1))


def test_oversized_step_is_rejected_by_the_probe():
    rhs = SaturatedLinearODE(c5=9.0, d10=0.0)
    with pytest.raises(StepTooLargeError) as exc_info:
        integrate(IVP(rhs, t0=0.0, f0=1.0, fp0=0.0, t_end=2.0, step=1.0))
    assert exc_info.value.t == 0.0


def test_a_non_finite_state_is_refused():
    # c5 f overflows at f0 = 1e308, and inf - inf is NaN, which compares
    # false with the error limit as with everything.
    rhs = SaturatedLinearODE(c5=2.0, d10=0.5)
    with pytest.raises(NumericOverflowError, match=r"^non-finite state in the step from t = 0\.0$"):
        integrate(IVP(rhs, t0=0.0, f0=1e308, fp0=0.0, t_end=1.0, step=0.1))


# -- bit identity with the stepper as first written --------------------------------
# The reference below is the integrator as first written: one call per stage
# into numerator and denominator, 12 per step. The emitted stepper writes f''
# into each stage and shares the full step's first stage with the first half
# step, whose inputs are the same, so it evaluates f'' 11 times per step. It
# keeps every float operation in its order and grouping, so both must give
# the same bits and raise at the same t. The reference notes where (step
# part, stage) a vanishing denominator was hit.


def _ref_accel(rhs, t, f, fp, where):
    if isinstance(rhs, SaturatedLinearODE):
        den, numerator = rhs.c5 * rhs.d10 * f + 1.0, rhs.c5 * f
    else:
        den, numerator = rhs.m0 / (2.0 * rhs.c3) + f, 2.0 * fp * fp
    if abs(den) < ode.DENOMINATOR_FLOOR:
        err = DegenerateODEError("right-hand side denominator vanished", t)
        err.where = where
        raise err
    return numerator / den


def _ref_rk4_step(rhs, t, f, fp, h, part):
    k1f = fp
    k1p = _ref_accel(rhs, t, f, fp, (part, 1))
    k2f = fp + 0.5 * h * k1p
    k2p = _ref_accel(rhs, t + 0.5 * h, f + 0.5 * h * k1f, k2f, (part, 2))
    k3f = fp + 0.5 * h * k2p
    k3p = _ref_accel(rhs, t + 0.5 * h, f + 0.5 * h * k2f, k3f, (part, 3))
    k4f = fp + h * k3p
    k4p = _ref_accel(rhs, t + h, f + h * k3f, k4f, (part, 4))
    return (
        f + h / 6.0 * (k1f + 2.0 * k2f + 2.0 * k3f + k4f),
        fp + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def _ref_integrate(ivp):
    span = ivp.t_end - ivp.t0
    n = max(1, round(span / ivp.step))
    h = span / n
    f = ivp.f0
    fp = ivp.fp0
    out = [(ivp.t0, f, fp)]
    for k in range(n):
        t = ivp.t0 + k * h
        f_full, fp_full = _ref_rk4_step(ivp.rhs, t, f, fp, h, "full")
        f_half, fp_half = _ref_rk4_step(ivp.rhs, t, f, fp, 0.5 * h, "half")
        f_half, fp_half = _ref_rk4_step(ivp.rhs, t + 0.5 * h, f_half, fp_half, 0.5 * h, "half")
        if max(abs(f_full - f_half), abs(fp_full - fp_half)) > ode.LOCAL_ERROR_LIMIT:
            raise StepTooLargeError("local error estimate exceeded the limit", t)
        f, fp = f_full, fp_full
        out.append((ivp.t0 + (k + 1) * h, f, fp))
    return out


def _outcome(integrator, ivp):
    """The trajectory under float.hex, or the error's class, message and t."""
    try:
        return [tuple(v.hex() for v in row) for row in integrator(ivp)]
    except (DegenerateODEError, StepTooLargeError) as err:
        return type(err), str(err), err.t.hex()


def _seeded_ivp(rng, max_steps):
    def signed(lo, hi):
        return rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)

    if rng.random() < 0.5:
        d10 = rng.choice([0.0, rng.uniform(-1.5, 1.5)])
        rhs = SaturatedLinearODE(c5=signed(0.2, 6.0), d10=d10)
    else:
        rhs = ShiftedReciprocalODE(c3=signed(0.3, 2.0), m0=signed(0.3, 2.0))
    t0 = rng.uniform(-1.0, 1.0)
    t_end = t0 + rng.uniform(0.2, 2.0)
    f0, fp0 = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    return IVP(rhs, t0, f0, fp0, t_end, (t_end - t0) / rng.randint(1, max_steps))


def test_trajectories_are_those_of_the_reference_stepper_bit_for_bit():
    rng = random.Random(20261018)
    kinds, errors = set(), []
    for _ in range(300):
        ivp = _seeded_ivp(rng, 300)
        got = _outcome(integrate, ivp)
        assert got == _outcome(_ref_integrate, ivp), ivp
        if isinstance(got, list):
            rhs = ivp.rhs
            kinds.add((type(rhs).__name__, getattr(rhs, "d10", 0.0) != 0.0, getattr(rhs, "c5", 1.0) < 0.0))
        else:
            errors.append(got[0])
    # Both kinds completed, the saturated one with d10 != 0 and with c5 < 0.
    assert {("ShiftedReciprocalODE", False, False), ("SaturatedLinearODE", True, False),
            ("SaturatedLinearODE", False, True), ("SaturatedLinearODE", True, True)} <= kinds
    assert errors.count(StepTooLargeError) >= 10


def test_a_vanishing_denominator_is_raised_at_the_reference_stage(monkeypatch):
    # A wide floor band makes hits at every stage of the full and the half
    # steps common; t must be the stage's own: t, t + h/2 or t + h.
    monkeypatch.setattr(ode, "DENOMINATOR_FLOOR", 0.05)
    rng = random.Random(20261019)
    hits = set()
    for _ in range(3000):
        ivp = _seeded_ivp(rng, 3)
        assert _outcome(integrate, ivp) == _outcome(_ref_integrate, ivp), ivp
        try:
            _ref_integrate(ivp)
        except DegenerateODEError as err:
            hits.add((err.where[0], {1: "first", 2: "mid", 3: "mid", 4: "last"}[err.where[1]]))
        except StepTooLargeError:
            pass
    assert {(part, stage) for part in ("full", "half") for stage in ("first", "mid", "last")} <= hits


def test_the_stepper_is_compiled_once_per_equation_kind(monkeypatch):
    """The compiled loop is shared by each equation kind; its constants,
    floor and error limit are bound at every call."""
    ode._stepper.cache_clear()
    span = dict(t0=0.0, f0=1.0, fp0=0.5, t_end=1.0, step=0.25)
    runs = [integrate(IVP(SaturatedLinearODE(c5, 0.5), **span)) for c5 in (1.0, 2.0, -1.0)]
    runs.append(integrate(IVP(ShiftedReciprocalODE(1.0, 4.0), **span)))
    assert (ode._stepper.cache_info().misses, ode._stepper.cache_info().hits) == (2, 2)
    assert len({run[-1] for run in runs}) == 4
    monkeypatch.setattr(ode, "LOCAL_ERROR_LIMIT", 0.0)
    with pytest.raises(StepTooLargeError):
        integrate(IVP(SaturatedLinearODE(1.0, 0.5), **span))
    monkeypatch.setattr(ode, "LOCAL_ERROR_LIMIT", 1e-3)
    monkeypatch.setattr(ode, "DENOMINATOR_FLOOR", 10.0)
    with pytest.raises(DegenerateODEError):
        integrate(IVP(SaturatedLinearODE(1.0, 0.5), **span))
    assert ode._stepper.cache_info().misses == 2


# -- closed forms ------------------------------------------------------------------


def test_shifted_reciprocal_solution_values():
    assert shifted_reciprocal_solution(1.0, 1.0, 2.0, 1.0, 0.0) == -1.0
    assert shifted_reciprocal_solution(1.0, 1.0, 0.0, 1.0, 2.0) == -1.0
    assert shifted_reciprocal_solution(1.0, 3.0, 1.0, 1.0, 0.5) == -0.9


def test_shifted_reciprocal_solution_guards():
    with pytest.raises(SingularPointError):
        shifted_reciprocal_solution(1.0, 2.0, -1.0, 1.0, 0.5)
    with pytest.raises(InvalidSpecError):
        shifted_reciprocal_solution(0.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(InvalidSpecError):
        shifted_reciprocal_solution(1.0, 0.0, 1.0, 1.0, 0.0)


def test_shifted_reciprocal_residual_hand_value():
    # On the solution with t = 2: f = -1, f' = 1/4, f'' = -1/4.
    assert shifted_reciprocal_residual(1.0, 1.0, -1.0, 0.25, -0.25) == 0.0
    # Perturbing f'' breaks it by the shifted factor.
    assert shifted_reciprocal_residual(1.0, 1.0, -1.0, 0.25, 0.75) == -0.5
    with pytest.raises(InvalidSpecError):
        shifted_reciprocal_residual(0.0, 1.0, 1.0, 1.0, 1.0)


def test_linear_force_solution_values():
    assert linear_force_solution(4.0, 1.0, 2.0, 0.5) == pytest.approx(math.e)
    assert linear_force_solution(-1.0, 0.0, 1.0, math.pi / 2) == pytest.approx(1.0)
    assert linear_force_solution(-1.0, 1.0, 0.0, math.pi) == pytest.approx(-1.0)
    with pytest.raises(InvalidSpecError):
        linear_force_solution(0.0, 1.0, 0.0, 1.0)


def test_linear_force_solution_names_an_overflow():
    # cosh(w t) passes the float range at w t ~ 710.48 even where f0 cosh +
    # fp0/w sinh = e^-t is tiny.
    assert math.isfinite(linear_force_solution(1.0, 1.0, -1.0, 710.0))
    with pytest.raises(NumericOverflowError, match=r"^closed form overflows at t = 710\.5$"):
        linear_force_solution(1.0, 1.0, -1.0, 710.5)


def test_residual_vanishes_on_jets_of_the_solution_family():
    # Build the closed form as an expression, take exact univariate jets at
    # random abscissas, and feed them to the residual.
    rng = random.Random(20260816)
    checked = 0
    while checked < 100:
        c3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        c4 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        d9 = rng.uniform(-1.0, 1.0)
        m0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        x0 = rng.uniform(-3.0, 3.0)
        if abs(c4 * x0 + d9) < 0.3:
            continue
        shift = m0 / (2.0 * c3)
        tree = Neg(
            Add(
                Div(Const(1.0), Add(Mul(num(c4), Var("x")), num(d9))),
                Const(shift),
            )
        )
        j = lift_1d(tree, x0)
        r = shifted_reciprocal_residual(c3, m0, j.v, j.d, j.dd)
        scale = 1.0 + abs((shift + j.v) * j.dd) + 2.0 * j.d * j.d
        assert abs(r) <= 1e-11 * scale
        checked += 1
