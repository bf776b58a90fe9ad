"""Curvature invariants of graph surfaces z(x, y) in the isotropic 3-space.

The induced metric of a graph surface is the flat dx^2 + dy^2, so both
invariants are polynomial in the second partials: the relative curvature
is the Hessian determinant and the isotropic mean curvature is half the
Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jet import Jet1, Jet2


@dataclass(frozen=True, slots=True)
class CurvaturePair:
    K: float
    H: float


def curvatures(j: Jet2) -> CurvaturePair:
    """Relative curvature K and isotropic mean curvature H from a jet."""
    return CurvaturePair(
        K=j.dxx * j.dyy - j.dxy * j.dxy,
        H=0.5 * (j.dxx + j.dyy),
    )


def factorable_curvatures(fj: Jet1, gj: Jet1) -> CurvaturePair:
    """Invariants of a product surface z = f(x) g(y) from the factor jets.

    For such surfaces z_xx = f'' g, z_yy = f g'', z_xy = f' g', so the
    invariants factor through univariate data only.
    """
    K = (fj.dd * fj.v) * (gj.dd * gj.v) - (fj.d * fj.d) * (gj.d * gj.d)
    H = 0.5 * (fj.dd * gj.v + fj.v * gj.dd)
    return CurvaturePair(K=K, H=H)
