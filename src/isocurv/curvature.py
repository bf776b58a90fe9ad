"""Curvature invariants of graph surfaces z(x, y) in the isotropic 3-space.

The induced metric of a graph surface is the flat dx^2 + dy^2, so both
invariants are polynomial in the second partials: the relative curvature
is the Hessian determinant and the isotropic mean curvature is half the
Laplacian.
"""

from __future__ import annotations

from .errors import record
from .jet import Jet2


@record
class CurvaturePair:
    K: float
    H: float


def curvatures(j: Jet2) -> CurvaturePair:
    """Relative curvature K and isotropic mean curvature H from a jet."""
    return CurvaturePair(
        K=j.dxx * j.dyy - j.dxy * j.dxy,
        H=0.5 * (j.dxx + j.dyy),
    )


def euler_residual(j: Jet2) -> float:
    """The Euler defect (z_xx - z_yy)^2 + 4 z_xy^2, which is 4 (H^2 - K)."""
    d = j.dxx - j.dyy
    return d * d + 4.0 * (j.dxy * j.dxy)
