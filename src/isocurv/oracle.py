"""Finite-difference jets, independent of the jet arithmetic layer.

Derivatives come from five-point central stencils applied to plain float
evaluation only. Nothing here touches jet propagation, so this path stands
as a genuinely separate oracle for it: agreement between fd_jet and
eval_jet cross-validates both.
"""

from __future__ import annotations

from .errors import record, require_finite
from .expr import Expr, eval_value
from .jet import Jet2


@record
class FDConfig:
    """Stencil steps. First- and second-order stencils carry separate
    defaults because roundoff cancellation grows with derivative order."""

    h_first: float = 1e-4
    h_second: float = 1e-3

    def __post_init__(self):
        require_finite(self, "h_first", "h_second")
        for h in (self.h_first, self.h_second):
            if not 1e-6 <= h <= 1e-2:
                raise ValueError("stencil step must lie in [1e-6, 1e-2]")


def fd_jet(s: Expr, p: tuple[float, float], cfg: FDConfig = FDConfig()) -> Jet2:
    """Numerical jet of s at p.

    First partials use the five-point central first-derivative stencil
    (fourth order); pure second partials use the five-point second-derivative
    stencil; the mixed partial uses the four-point cross stencil. s must be
    defined on the surrounding (2h)-ball.
    """
    x, y = p
    h1 = cfg.h_first
    h2 = cfg.h_second

    def f(px: float, py: float) -> float:
        return eval_value(s, (px, py))

    v = f(x, y)
    dx = (-f(x + 2 * h1, y) + 8 * f(x + h1, y) - 8 * f(x - h1, y) + f(x - 2 * h1, y)) / (
        12 * h1
    )
    dy = (-f(x, y + 2 * h1) + 8 * f(x, y + h1) - 8 * f(x, y - h1) + f(x, y - 2 * h1)) / (
        12 * h1
    )
    dxx = (
        -f(x + 2 * h2, y)
        + 16 * f(x + h2, y)
        - 30 * v
        + 16 * f(x - h2, y)
        - f(x - 2 * h2, y)
    ) / (12 * h2 * h2)
    dyy = (
        -f(x, y + 2 * h2)
        + 16 * f(x, y + h2)
        - 30 * v
        + 16 * f(x, y - h2)
        - f(x, y - 2 * h2)
    ) / (12 * h2 * h2)
    dxy = (
        f(x + h2, y + h2) - f(x + h2, y - h2) - f(x - h2, y + h2) + f(x - h2, y - h2)
    ) / (4 * h2 * h2)
    return Jet2(v, dx, dy, dxx, dxy, dyy)


_COMPONENTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")


@record
class JetComparison:
    """Per-component |a - b| deviations; a component is flagged when its
    deviation exceeds tol_rel * (1 + |a|)."""

    deviations: dict
    flagged: tuple[str, ...] = ()
    tol_rel: float = 0.0
    _uncompared = ("deviations",)

    def ok(self) -> bool:
        return not self.flagged


def compare(a: Jet2, b: Jet2, tol_rel: float) -> JetComparison:
    deviations: dict[str, float] = {}
    flagged: list[str] = []
    for name in _COMPONENTS:
        av = getattr(a, name)
        bv = getattr(b, name)
        dev = abs(av - bv)
        deviations[name] = dev
        if dev > tol_rel * (1.0 + abs(av)):
            flagged.append(name)
    return JetComparison(deviations=deviations, flagged=tuple(flagged), tol_rel=tol_rel)
