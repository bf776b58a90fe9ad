"""Second-order truncated Taylor arithmetic.

Jet2 carries the value, both first partials, and the three independent
second partials of a bivariate function. Arithmetic follows the product,
quotient, and chain rules truncated at order two, so derivatives of
polynomial expressions come out exact up to rounding. Jets are immutable.

The same rules serve a univariate function: seeded in x alone, the x
components of a Jet2 are its value and two derivatives. Jet1 is a plain
record of those three numbers, with no arithmetic of its own.

The product rule terms are grouped symmetrically in each component, so
a * b and b * a produce bit-for-bit identical jets (IEEE addition and
multiplication are commutative; only re-association changes rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivisionByZeroError, EvaluationDomainError, NumericOverflowError


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and partials up to order two of z(x, y) at a point."""

    v: float
    dx: float = 0.0
    dy: float = 0.0
    dxx: float = 0.0
    dxy: float = 0.0
    dyy: float = 0.0

    def __add__(self, other: Jet2) -> Jet2:
        return Jet2(
            self.v + other.v,
            self.dx + other.dx,
            self.dy + other.dy,
            self.dxx + other.dxx,
            self.dxy + other.dxy,
            self.dyy + other.dyy,
        )

    def __sub__(self, other: Jet2) -> Jet2:
        return Jet2(
            self.v - other.v,
            self.dx - other.dx,
            self.dy - other.dy,
            self.dxx - other.dxx,
            self.dxy - other.dxy,
            self.dyy - other.dyy,
        )

    def __neg__(self) -> Jet2:
        return Jet2(-self.v, -self.dx, -self.dy, -self.dxx, -self.dxy, -self.dyy)

    def __mul__(self, other: Jet2) -> Jet2:
        # Each component is a sum of products that maps onto itself under
        # operand swap, which is what makes the product commute exactly.
        return Jet2(
            self.v * other.v,
            self.dx * other.v + self.v * other.dx,
            self.dy * other.v + self.v * other.dy,
            (self.dxx * other.v + self.v * other.dxx) + 2.0 * (self.dx * other.dx),
            (self.dxy * other.v + self.v * other.dxy)
            + (self.dx * other.dy + self.dy * other.dx),
            (self.dyy * other.v + self.v * other.dyy) + 2.0 * (self.dy * other.dy),
        )

    def __truediv__(self, other: Jet2) -> Jet2:
        if other.v == 0.0:
            raise DivisionByZeroError("division by a quantity with zero value")
        q = self.v / other.v
        qx = (self.dx - q * other.dx) / other.v
        qy = (self.dy - q * other.dy) / other.v
        qxx = (self.dxx - 2.0 * qx * other.dx - q * other.dxx) / other.v
        qxy = (self.dxy - qx * other.dy - qy * other.dx - q * other.dxy) / other.v
        qyy = (self.dyy - 2.0 * qy * other.dy - q * other.dyy) / other.v
        return Jet2(q, qx, qy, qxx, qxy, qyy)

    def chain(self, f0: float, f1: float, f2: float) -> Jet2:
        """Compose with a scalar map given its value and two derivatives
        taken at self.v."""
        return Jet2(
            f0,
            f1 * self.dx,
            f1 * self.dy,
            f1 * self.dxx + f2 * (self.dx * self.dx),
            f1 * self.dxy + f2 * (self.dx * self.dy),
            f1 * self.dyy + f2 * (self.dy * self.dy),
        )

    def is_finite(self) -> bool:
        return (
            math.isfinite(self.v)
            and math.isfinite(self.dx)
            and math.isfinite(self.dy)
            and math.isfinite(self.dxx)
            and math.isfinite(self.dxy)
            and math.isfinite(self.dyy)
        )


@dataclass(frozen=True, slots=True)
class Jet1:
    """Value and two derivatives of a univariate function at a point, as
    lift_1d returns them."""

    v: float
    d: float = 0.0
    dd: float = 0.0


def seed_x(x0: float) -> Jet2:
    return Jet2(x0, dx=1.0)


def seed_y(y0: float) -> Jet2:
    return Jet2(y0, dy=1.0)


def exp(j: Jet2) -> Jet2:
    try:
        e = math.exp(j.v)
    except OverflowError:
        raise NumericOverflowError(f"exp overflow at argument {j.v!r}") from None
    return j.chain(e, e, e)


def ln(j: Jet2) -> Jet2:
    if j.v <= 0.0:
        raise EvaluationDomainError(f"ln of non-positive value {j.v!r}")
    inv = 1.0 / j.v
    return j.chain(math.log(j.v), inv, -(inv * inv))


def sin(j: Jet2) -> Jet2:
    s = math.sin(j.v)
    return j.chain(s, math.cos(j.v), -s)


def cos(j: Jet2) -> Jet2:
    c = math.cos(j.v)
    return j.chain(c, -math.sin(j.v), -c)


def sqrt(j: Jet2) -> Jet2:
    if j.v <= 0.0:
        raise EvaluationDomainError(f"sqrt of non-positive value {j.v!r}")
    r = math.sqrt(j.v)
    return j.chain(r, 0.5 / r, -0.25 / (r * j.v))


def pow_int(j: Jet2, n: int) -> Jet2:
    """Integer power by square-and-multiply. Stays within jet products, so
    polynomial jets remain exact; no positivity requirement on the base."""
    if n == 0:
        return Jet2(1.0)
    if n < 0:
        if j.v == 0.0:
            raise DivisionByZeroError("zero base raised to a negative power")
        return Jet2(1.0) / pow_int(j, -n)
    acc = None
    base = j
    k = n
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if k:
            base = base * base
    return acc


def pow_real(j: Jet2, r: float) -> Jet2:
    """Real power; requires a strictly positive base value."""
    if j.v <= 0.0:
        raise EvaluationDomainError(
            f"non-integer power of non-positive base {j.v!r}"
        )
    try:
        f0 = j.v**r
        f1 = r * j.v ** (r - 1.0)
        f2 = r * (r - 1.0) * j.v ** (r - 2.0)
    except OverflowError:
        raise NumericOverflowError(f"power overflow at base {j.v!r}") from None
    return j.chain(f0, f1, f2)
