"""Second-order factor equations with a fixed-step RK4 integrator.

Two right-hand sides arise in the nonlinear-factor analysis:

* ShiftedReciprocalODE integrates (m0/(2 c3) + f) f'' = 2 (f')^2 in the
  explicit form f'' = 2 (f')^2 / (m0/(2 c3) + f); the implicit form is
  equivalent away from the vanishing denominator. Its solutions are
  negated shifted reciprocals of linear functions, available in
  shifted_reciprocal_solution as a closed-form oracle.
* SaturatedLinearODE integrates f'' = c5 f / (c5 d10 f + 1). With d10 = 0
  it degenerates to f'' = c5 f, whose cosh/sinh (c5 > 0) or sin/cos
  (c5 < 0) closed form linear_force_solution serves as the oracle.

The integrator is classic fixed-step fourth-order Runge-Kutta on the
first-order system (f, f'), with a per-step halved-step comparison as a
local error probe. Trajectories here are short and smooth and everything
is checked against closed forms, so an adaptive integrator would buy
nothing.
"""

from __future__ import annotations

import functools
import math

from .errors import (
    DegenerateODEError,
    InvalidSpecError,
    NumericOverflowError,
    SingularPointError,
    StepTooLargeError,
    record,
    require_finite,
)

# Abort when a right-hand-side denominator magnitude drops below this.
DENOMINATOR_FLOOR = 1e-8
# Abort when the full-step vs two-half-steps discrepancy exceeds this.
LOCAL_ERROR_LIMIT = 1e-3
# Bounds the work and memory of one trajectory (one row per step).
_MAX_STEPS = 10_000_000


@record
class ShiftedReciprocalODE:
    c3: float
    m0: float

    def __post_init__(self):
        require_finite(self, "c3", "m0")
        if self.c3 == 0.0:
            raise InvalidSpecError("shifted-reciprocal equation requires c3 != 0")

    def _rhs(self):
        """f'' as a denominator and a numerator source, in which {F} and {P}
        name f and f', and the constants those sources name."""
        return "shift + {F}", "2.0 * {P} * {P}", {"shift": self.m0 / (2.0 * self.c3)}


@record
class SaturatedLinearODE:
    c5: float
    d10: float

    def __post_init__(self):
        require_finite(self, "c5", "d10")
        if self.c5 == 0.0:
            raise InvalidSpecError("saturated-linear equation requires c5 != 0")

    def _rhs(self):
        """f'', as ShiftedReciprocalODE._rhs."""
        return "c5_d10 * {F} + 1.0", "c5 * {F}", {"c5": self.c5, "c5_d10": self.c5 * self.d10}


@record
class IVP:
    """Initial value problem for f'' = numerator/denominator, advanced from
    (t0, f0 = f(t0), fp0 = f'(t0)) to t_end with the given nominal step."""

    rhs: ShiftedReciprocalODE | SaturatedLinearODE
    t0: float
    f0: float
    fp0: float
    t_end: float
    step: float

    def __post_init__(self):
        require_finite(self, "t0", "f0", "fp0", "t_end", "step")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.step > self.t_end - self.t0:
            raise ValueError("step exceeds the integration span")
        # Also refuses a ratio that overflowed to infinity.
        if (self.t_end - self.t0) / self.step > _MAX_STEPS:
            raise ValueError(f"span / step exceeds the cap of {_MAX_STEPS} steps")


# The step-doubling loop. STAGES stands for the step's 11 evaluations of f'': the full
# step's four, the first half step's last three (its first is the full step's), the second's four.
_LOOP = """\
def run(t0, f, fp, n, h):
    hh = 0.5 * h
    qh = 0.5 * hh
    h6 = h / 6.0
    hh6 = hh / 6.0
    t = t0
    out = [(t, f, fp)]
    append = out.append
    for k in range(1, n + 1):
        STAGES
        err_f, err_fp = abs(f_full - f_2), abs(fp_full - fp_2)
        # Each component is tested, and so written that a NaN fails.
        if not (err_f <= limit and err_fp <= limit):
            if max(err_f, err_fp) > limit:
                raise StepTooLargeError("local error estimate exceeded the limit", t)
            raise NumericOverflowError("non-finite state in the step from t = " + repr(t))
        f, fp = f_full, fp_full
        t = t0 + k * h
        append((t, f, fp))
    return out
"""


def _stage(rhs: tuple, t: str, f: str, p: str, a: str) -> list[str]:
    """Lines that set a to f''(f, p), refusing at t a vanishing denominator."""
    den, num = (src.format(F=f, P=p) for src in rhs[:2])
    return [f"d = {den}", f"if abs(d) < floor: raise DegenerateODEError('right-hand side denominator vanished', {t})",
            f"{a} = ({num}) / d"]


def _rk4(rhs: tuple, t: str, f: str, p: str, h: str, hh: str, h6: str, a1: str, s: str) -> list[str]:
    """Lines of one RK4 step h from (f, p) at t, whose first stage a1 is set
    already; they set f{s} and fp{s}."""
    lines, q, a = [], p, a1
    for k, c in ((2, hh), (3, hh), (4, h)):
        lines += [f"q{k}{s} = {p} + {c} * {a}", f"y{k}{s} = {f} + {c} * {q}",
                  *_stage(rhs, f"{t} + {c}", f"y{k}{s}", f"q{k}{s}", f"a{k}{s}")]
        q, a = f"q{k}{s}", f"a{k}{s}"
    return lines + [f"f{s} = {f} + {h6} * ({p} + 2.0 * q2{s} + 2.0 * q3{s} + q4{s})",
                    f"fp{s} = {p} + {h6} * ({a1} + 2.0 * a2{s} + 2.0 * a3{s} + a4{s})"]


@functools.cache
def _stepper(rhs: tuple):
    """The code of the loop with f'' = rhs[1] / rhs[0], sources over {F} and {P}."""
    stages = [*_stage(rhs, "t", "f", "fp", "a1"),
              *_rk4(rhs, "t", "f", "fp", "h", "hh", "h6", "a1", "_full"),
              *_rk4(rhs, "t", "f", "fp", "hh", "qh", "hh6", "a1", "_half"),
              *_stage(rhs, "(t + hh)", "f_half", "fp_half", "a1_2"),
              *_rk4(rhs, "(t + hh)", "f_half", "fp_half", "hh", "qh", "hh6", "a1_2", "_2")]
    return compile(_LOOP.replace("STAGES", "\n        ".join(stages)), "<rk4 stepper>", "exec")


def integrate(ivp: IVP) -> list[tuple[float, float, float]]:
    """Trajectory [(t, f, f'), ...] from t0 to t_end inclusive.

    The span is divided into round(span/step) equal steps. Every step is
    also taken as two half steps; a discrepancy above LOCAL_ERROR_LIMIT
    raises StepTooLarge with the offending location, and a non-finite state
    raises NumericOverflowError naming the step's t. The loop is compiled
    once per equation kind with f'' written into each stage, every float
    operation in the textbook RK4 order and grouping; each call binds the
    constants, DENOMINATOR_FLOOR and LOCAL_ERROR_LIMIT afresh.
    """
    rhs = ivp.rhs._rhs()
    namespace = {"floor": DENOMINATOR_FLOOR, "limit": LOCAL_ERROR_LIMIT, "DegenerateODEError": DegenerateODEError,
                 "StepTooLargeError": StepTooLargeError, "NumericOverflowError": NumericOverflowError, **rhs[2]}
    exec(_stepper(rhs[:2]), namespace)
    span = ivp.t_end - ivp.t0
    n = max(1, round(span / ivp.step))
    return namespace["run"](ivp.t0, ivp.f0, ivp.fp0, n, span / n)


def shifted_reciprocal_solution(
    c3: float, c4: float, d9: float, m0: float, x: float
) -> float:
    """-(1/(c4 x + d9) + m0/(2 c3)): the closed-form solution family of the
    shifted-reciprocal equation. Defined away from x = -d9/c4."""
    if c3 == 0.0 or c4 == 0.0:
        raise InvalidSpecError("closed form requires c3 != 0 and c4 != 0")
    t = c4 * x + d9
    if t == 0.0:
        raise SingularPointError(f"x = {x!r} is the pole of the closed form")
    return -(1.0 / t + m0 / (2.0 * c3))


def shifted_reciprocal_residual(
    c3: float, m0: float, f: float, fp: float, fpp: float
) -> float:
    """(m0/(2 c3) + f) f'' - 2 (f')^2; identically zero on solutions."""
    if c3 == 0.0:
        raise InvalidSpecError("residual requires c3 != 0")
    return (m0 / (2.0 * c3) + f) * fpp - 2.0 * fp * fp


def linear_force_solution(c5: float, f0: float, fp0: float, t: float, t0: float = 0.0) -> float:
    """Closed form of f'' = c5 f with f(t0) = f0, f'(t0) = fp0 (the saturated
    equation at d10 = 0)."""
    dt = t - t0
    if c5 > 0.0:
        w = math.sqrt(c5)
        try:
            return f0 * math.cosh(w * dt) + fp0 / w * math.sinh(w * dt)
        except OverflowError:  # cosh and sinh pass the float range once w (t - t0) > ~710
            raise NumericOverflowError(f"closed form overflows at t = {t!r}") from None
    if c5 < 0.0:
        w = math.sqrt(-c5)
        return f0 * math.cos(w * dt) + fp0 / w * math.sin(w * dt)
    raise InvalidSpecError("closed form requires c5 != 0")
