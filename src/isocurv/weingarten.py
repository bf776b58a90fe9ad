"""Linear Weingarten relations and residual scans over grids.

A linear Weingarten surface satisfies a H + b K = c with constant
coefficients, not all zero. When b is nonzero the relation normalizes to
2 m0 H + K = n0 with m0 = a / (2 b) and n0 = c / b.

Besides the Weingarten residual itself, two diagnostics share the same
scan machinery:

* the Euler defect (z_xx - z_yy)^2 + 4 z_xy^2, which equals 4 (H^2 - K)
  and vanishes exactly on parabolic spheres and non-isotropic planes;
* the Jacobian of the map (x, y) -> (K, H), whose vanishing marks a
  W-surface (some functional relation between the invariants holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .curvature import CurvaturePair, curvatures
from .domain import GridDomain
from .errors import DegenerateWeingartenError, EmptyDomainError
from .expr import Expr, eval_jet
from .jet import Jet2


@dataclass(frozen=True, slots=True)
class LWParams:
    """Coefficients of a H + b K = c."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0:
            raise ValueError("coefficients must not all be zero")


@dataclass(frozen=True, slots=True)
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


def lw_residual(pair: CurvaturePair, params: LWParams) -> float:
    return params.a * pair.H + params.b * pair.K - params.c


def euler_residual(j: Jet2) -> float:
    d = j.dxx - j.dyy
    return d * d + 4.0 * (j.dxy * j.dxy)


def weingarten_jacobian(
    surface: Expr, p: tuple[float, float], h: float = 1e-3
) -> float:
    """det d(K, H)/d(x, y) at p, by central differences of the invariants."""
    x, y = p
    east = curvatures(eval_jet(surface, (x + h, y)))
    west = curvatures(eval_jet(surface, (x - h, y)))
    north = curvatures(eval_jet(surface, (x, y + h)))
    south = curvatures(eval_jet(surface, (x, y - h)))
    kx = (east.K - west.K) / (2.0 * h)
    ky = (north.K - south.K) / (2.0 * h)
    hx = (east.H - west.H) / (2.0 * h)
    hy = (north.H - south.H) / (2.0 * h)
    return kx * hy - ky * hx


# A residual function maps (surface, x, y) to one signed value.
ResidualFn = Callable[[Expr, float, float], float]


def lw_residual_fn(params: LWParams) -> ResidualFn:
    def fn(surface: Expr, x: float, y: float) -> float:
        return lw_residual(curvatures(eval_jet(surface, (x, y))), params)

    return fn


def euler_residual_fn() -> ResidualFn:
    def fn(surface: Expr, x: float, y: float) -> float:
        return euler_residual(eval_jet(surface, (x, y)))

    return fn


def jacobian_residual_fn(h: float = 1e-3) -> ResidualFn:
    def fn(surface: Expr, x: float, y: float) -> float:
        return weingarten_jacobian(surface, (x, y), h)

    return fn


@dataclass(frozen=True, slots=True)
class ResidualReport:
    n_samples: int
    max_abs: float
    mean_abs: float
    std_dev: float
    worst_point: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "std_dev": self.std_dev,
            "worst_point": list(self.worst_point),
        }


def summarize(values: list[float], points: list[tuple[float, float]]) -> ResidualReport:
    """Statistics of raw residual values; std_dev is the population deviation
    of the signed values, worst_point the first location of max |r|."""
    if not values:
        raise EmptyDomainError("no samples survived exclusion")
    n = len(values)
    sum_abs = 0.0
    max_abs = -1.0
    worst = points[0]
    for r, pt in zip(values, points):
        sum_abs += abs(r)
        if abs(r) > max_abs:
            max_abs = abs(r)
            worst = pt
    # Two correctly rounded passes over the values shifted by the first
    # one: a constant input gives exactly zero, not a rounding residue.
    shift = values[0]
    mean = math.fsum(r - shift for r in values) / n
    variance = math.fsum((r - shift - mean) ** 2 for r in values) / n
    return ResidualReport(
        n_samples=n,
        max_abs=max_abs,
        mean_abs=sum_abs / n,
        std_dev=math.sqrt(variance),
        worst_point=worst,
    )


def scan_grid(surface: Expr, domain: GridDomain, residual: ResidualFn) -> ResidualReport:
    """Evaluate a residual on every included grid node, row by row in y."""
    values: list[float] = []
    points: list[tuple[float, float]] = []
    xs = domain.xs()
    for y in domain.ys():
        for x in xs:
            if not domain.included(x, y):
                continue
            values.append(residual(surface, x, y))
            points.append((x, y))
    return summarize(values, points)
