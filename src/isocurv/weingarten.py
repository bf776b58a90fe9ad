"""Linear Weingarten relations and residual scans over grids.

A linear Weingarten surface satisfies a H + b K = c with constant
coefficients, not all zero. When b is nonzero the relation normalizes to
2 m0 H + K = n0 with m0 = a / (2 b) and n0 = c / b.

Besides the Weingarten residual itself, two diagnostics share the same
scan machinery:

* the Euler defect (z_xx - z_yy)^2 + 4 z_xy^2, which equals 4 (H^2 - K)
  and vanishes exactly on parabolic spheres and non-isotropic planes;
* the Jacobian of the map (x, y) -> (K, H), whose vanishing marks a
  W-surface (some functional relation between the invariants holds),
  computed exactly from one third-order jet per point.

The lw and euler scans emit their residual into the order-2 kernel, so a
node builds no Jet2 and no CurvaturePair, with the float operations, and
so the bits, of lw_residual(curvatures(j), params) and euler_residual(j).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .domain import GridDomain
from .errors import (DegenerateWeingartenError, EmptyDomainError, IsocurvError,
                     NumericOverflowError, asdict, record, require_finite)
from .expr import Expr, compile_jet, eval_jet


@record
class LWParams:
    """Coefficients of a H + b K = c."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        require_finite(self, "a", "b", "c")
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0:
            raise ValueError("coefficients must not all be zero")


@record
class NormalizedLW:
    """Relation in the reduced form 2 m0 H + K = n0."""

    m0: float
    n0: float


def normalize(params: LWParams) -> NormalizedLW:
    if params.b == 0.0:
        raise DegenerateWeingartenError(
            "relation has no K term; cannot normalize"
        )
    return NormalizedLW(m0=params.a / (2.0 * params.b), n0=params.c / params.b)


# CurvaturePair is named here, not imported: a scan does not load curvature.
def lw_residual(pair: CurvaturePair, params: LWParams) -> float:
    return params.a * pair.H + params.b * pair.K - params.c


def weingarten_jacobian(surface: Expr, p: tuple[float, float]) -> float:
    """det d(K, H)/d(x, y) at p, exactly from the third-order jet: with
    K = z_xx z_yy - z_xy^2 and H = (z_xx + z_yy)/2, each partial of K and H
    is a polynomial in the second and third partials of z."""
    j = eval_jet(surface, p, 3)
    kx = j.dxxx * j.dyy + j.dxx * j.dxyy - 2.0 * j.dxy * j.dxxy
    ky = j.dxxy * j.dyy + j.dxx * j.dyyy - 2.0 * j.dxy * j.dxyy
    hx = 0.5 * (j.dxxx + j.dxyy)
    hy = 0.5 * (j.dxxy + j.dyyy)
    return kx * hy - ky * hx


# A residual function maps (surface, x, y) to one signed value; scan_grid
# names it by its __name__ when a node fails.
ResidualFn = Callable[[Expr, float, float], float]


def _tailed(name: str, tail: str, **constants: float) -> ResidualFn:
    """The residual that the order-2 kernel of each tree returns with tail,
    over its {dxx}, {dxy} and {dyy} and the constants, emitted into it; the
    kernel is compiled once per tree."""
    last: tuple = (None, None)

    def residual(surface: Expr, x: float, y: float) -> float:
        nonlocal last
        tree, kernel = last  # one read, so a swap by another thread cannot mix trees
        if tree is not surface:
            kernel = compile_jet(surface, 2, tail, **constants)
            last = (surface, kernel)
        return kernel(x, y)

    residual.__name__ = name
    return residual


def lw_residual_fn(params: LWParams) -> ResidualFn:
    # lw_residual over curvatures' K = dxx dyy - dxy^2 and H = (dxx + dyy) / 2.
    tail = "a * (0.5 * ({dxx} + {dyy})) + b * ({dxx} * {dyy} - {dxy} * {dxy}) - c"
    return _tailed("lw", tail, a=params.a, b=params.b, c=params.c)


def euler_residual_fn() -> ResidualFn:
    # euler_residual with d = dxx - dyy written out twice.
    return _tailed("euler", "({dxx} - {dyy}) * ({dxx} - {dyy}) + 4.0 * ({dxy} * {dxy})")


def jacobian_residual_fn() -> ResidualFn:
    def jacobian(surface: Expr, x: float, y: float) -> float:
        return weingarten_jacobian(surface, (x, y))

    return jacobian


@record
class ResidualReport:
    n_samples: int
    max_abs: float
    mean_abs: float
    std_dev: float
    worst_point: tuple[float, float]

    def to_dict(self) -> dict:
        return {**asdict(self), "worst_point": list(self.worst_point)}


def summarize(values: Sequence[float], points) -> ResidualReport:
    """Statistics of raw residual values; std_dev is the population deviation
    of the signed values (inf where it overflows), worst_point the first
    location of max |r|.
    A NaN or infinite value raises NumericOverflowError naming its point;
    points is read by index only, there and at the worst value."""
    if not values:
        raise EmptyDomainError("no samples survived exclusion")
    n = len(values)
    sum_abs = 0.0
    max_abs = -1.0
    worst = 0
    for i, r in enumerate(values):
        sum_abs += abs(r)
        if abs(r) > max_abs:
            max_abs, worst = abs(r), i
    # A NaN or infinity makes the sum non-finite, so one test covers them all.
    if not math.isfinite(sum_abs):
        for i, r in enumerate(values):
            if not math.isfinite(r):
                raise NumericOverflowError(f"non-finite residual {r!r} at (x, y) = {points[i]!r}")
    # Two correctly rounded passes over the values shifted by the first
    # one: a constant input gives exactly zero, not a rounding residue.
    shift = values[0]
    try:
        mean = math.fsum(r - shift for r in values) / n
        variance = math.fsum((r - shift - mean) ** 2 for r in values) / n
    except OverflowError:  # fsum and float ** raise where + and * give inf
        variance = math.inf
    return ResidualReport(
        n_samples=n,
        max_abs=max_abs,
        mean_abs=sum_abs / n,
        std_dev=math.sqrt(variance),
        worst_point=points[worst],
    )


class _Nodes:
    """The (x, y) of scan node k, row by row in y over the kept columns xs."""

    def __init__(self, xs: list[float], ys: list[float]) -> None:
        self.xs, self.ys = xs, ys

    def __getitem__(self, k: int) -> tuple[float, float]:
        return self.xs[k % len(self.xs)], self.ys[k // len(self.xs)]


def scan_grid(surface: Expr, domain: GridDomain, residual: ResidualFn) -> ResidualReport:
    """Evaluate a residual on every included grid node, row by row in y, into
    one float each. An error at a node is re-raised naming it and the residual."""
    from array import array  # an extension module: eval need not load it
    xs = [x for _, x in domain.columns()]
    ys = domain.ys()
    values = array("d")
    try:
        for y in ys:
            for x in xs:
                values.append(residual(surface, x, y))
    except (IsocurvError, ArithmeticError) as err:
        kind = getattr(residual, "__name__", type(residual).__name__)
        where = f"at (x, y) = ({x!r}, {y!r}) in the {kind} residual"
        err.args = (f"{err} {where}",)
        raise
    return summarize(values, _Nodes(xs, ys))
