"""Rectangular sampling grids with singular-locus exclusion."""

from __future__ import annotations

import math

from .errors import EmptyDomainError, record, require_finite

# Bounds the work and memory of one grid: scans and meshes visit every node.
_MAX_NODES = 10_000_000


@record
class GridDomain:
    """Uniform nx-by-ny grid over [x_min, x_max] x [y_min, y_max].

    Each singular locus is the abscissa c of a line x = c. Nodes within
    exclusion_radius of one are skipped by consumers; a radius of zero
    still drops exact hits.
    """

    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    nx: int = 101
    ny: int = 101
    exclusion_radius: float = 0.0
    singular_loci: tuple[float, ...] = ()

    def __post_init__(self):
        require_finite(self, "x_min", "x_max", "y_min", "y_max", "exclusion_radius")
        for axis in "xy":
            low, high = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
            if not low < high:
                raise ValueError(f"{axis}_min must be below {axis}_max")
            if not math.isfinite(high - low):  # finite ends can span more than the largest float
                raise ValueError(f"{axis}_max - {axis}_min must be finite")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if self.nx * self.ny > _MAX_NODES:
            raise ValueError(f"grid exceeds the cap of {_MAX_NODES} nodes")
        if self.exclusion_radius < 0.0:
            raise ValueError("exclusion_radius must be non-negative")

    def xs(self) -> list[float]:
        step = (self.x_max - self.x_min) / (self.nx - 1)
        return [self.x_min + i * step for i in range(self.nx)]

    def ys(self) -> list[float]:
        step = (self.y_max - self.y_min) / (self.ny - 1)
        return [self.y_min + j * step for j in range(self.ny)]

    def columns(self) -> list[tuple[int, float]]:
        """(i, x) of each kept grid column, in order. Every locus is a
        line x = c, so a column is kept or dropped whole."""
        kept = [(i, x) for i, x in enumerate(self.xs()) if self.included(x)]
        if not kept:
            raise EmptyDomainError("every grid node was excluded")
        return kept

    def included(self, x: float) -> bool:
        for c in self.singular_loci:
            if abs(x - c) <= self.exclusion_radius:
                return False
        return True
