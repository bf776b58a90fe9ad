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

    def _accel(self):
        """f''(t, f, f') with this equation's constants bound; t names
        where a vanishing denominator is met."""
        shift = self.m0 / (2.0 * self.c3)

        def accel(t: float, f: float, fp: float) -> float:
            den = shift + f
            if abs(den) < DENOMINATOR_FLOOR:
                raise DegenerateODEError("right-hand side denominator vanished", t)
            return 2.0 * fp * fp / den

        return accel


@record
class SaturatedLinearODE:
    c5: float
    d10: float

    def __post_init__(self):
        require_finite(self, "c5", "d10")
        if self.c5 == 0.0:
            raise InvalidSpecError("saturated-linear equation requires c5 != 0")

    def _accel(self):
        """f''(t, f, f'), as ShiftedReciprocalODE._accel."""
        c5, c5_d10 = self.c5, self.c5 * self.d10

        def accel(t: float, f: float, fp: float) -> float:
            den = c5_d10 * f + 1.0
            if abs(den) < DENOMINATOR_FLOOR:
                raise DegenerateODEError("right-hand side denominator vanished", t)
            return c5 * f / den

        return accel


OdeKind = ShiftedReciprocalODE | SaturatedLinearODE


@record
class IVP:
    """Initial value problem for f'' = numerator/denominator, advanced from
    (t0, f(t0), f'(t0)) to t_end with the given nominal step."""

    rhs: OdeKind
    t0: float
    y0: float
    yp0: float
    t_end: float
    step: float

    def __post_init__(self):
        require_finite(self, "t0", "y0", "yp0", "t_end", "step")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.t_end <= self.t0:
            raise ValueError("t_end must exceed t0")
        if self.step > self.t_end - self.t0:
            raise ValueError("step exceeds the integration span")
        # Also refuses a ratio that overflowed to infinity.
        if (self.t_end - self.t0) / self.step > _MAX_STEPS:
            raise ValueError(f"span / step exceeds the cap of {_MAX_STEPS} steps")


def integrate(ivp: IVP) -> list[tuple[float, float, float]]:
    """Trajectory [(t, f, f'), ...] from t0 to t_end inclusive.

    The span is divided into round(span/step) equal steps. Every step is
    also taken as two half steps; a discrepancy above LOCAL_ERROR_LIMIT
    raises StepTooLarge with the offending location, and a non-finite state
    raises NumericOverflowError naming the step's t.
    """
    accel = ivp.rhs._accel()

    def rk4(t: float, f: float, fp: float, h: float) -> tuple[float, float]:
        hh = 0.5 * h
        k1p = accel(t, f, fp)
        k2f = fp + hh * k1p
        k2p = accel(t + hh, f + hh * fp, k2f)
        k3f = fp + hh * k2p
        k3p = accel(t + hh, f + hh * k2f, k3f)
        k4f = fp + h * k3p
        k4p = accel(t + h, f + h * k3f, k4f)
        h6 = h / 6.0
        return (
            f + h6 * (fp + 2.0 * k2f + 2.0 * k3f + k4f),
            fp + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
        )

    t0 = ivp.t0
    span = ivp.t_end - t0
    n = max(1, round(span / ivp.step))
    h = span / n
    hh = 0.5 * h
    t, f, fp = t0, ivp.y0, ivp.yp0
    out = [(t, f, fp)]
    for k in range(1, n + 1):
        f_full, fp_full = rk4(t, f, fp, h)
        f_half, fp_half = rk4(t, f, fp, hh)
        f_half, fp_half = rk4(t + hh, f_half, fp_half, hh)
        err_f, err_fp = abs(f_full - f_half), abs(fp_full - fp_half)
        # Each component is tested, and so written that a NaN fails.
        if not (err_f <= LOCAL_ERROR_LIMIT and err_fp <= LOCAL_ERROR_LIMIT):
            if max(err_f, err_fp) > LOCAL_ERROR_LIMIT:
                raise StepTooLargeError("local error estimate exceeded the limit", t)
            raise NumericOverflowError(f"non-finite state in the step from t = {t!r}")
        f, fp = f_full, fp_full
        t = t0 + k * h
        out.append((t, f, fp))
    return out


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


def linear_force_solution(c5: float, y0: float, yp0: float, t: float) -> float:
    """Closed form of f'' = c5 f with f(0) = y0, f'(0) = yp0 (the saturated
    equation at d10 = 0)."""
    if c5 > 0.0:
        w = math.sqrt(c5)
        return y0 * math.cosh(w * t) + yp0 / w * math.sinh(w * t)
    if c5 < 0.0:
        w = math.sqrt(-c5)
        return y0 * math.cos(w * t) + yp0 / w * math.sin(w * t)
    raise InvalidSpecError("closed form requires c5 != 0")
