"""Rectangular sampling grids with singular-locus exclusion."""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_EXCLUSION_RADIUS = 1e-2


@dataclass(frozen=True, slots=True)
class VerticalLine:
    """Locus x = value, independent of y."""

    x: float


@dataclass(frozen=True, slots=True)
class GridDomain:
    """Uniform nx-by-ny grid over [x_min, x_max] x [y_min, y_max].

    Nodes within exclusion_radius of any singular locus are skipped by
    consumers; a radius of zero still drops exact hits.
    """

    x_min: float = -1.0
    x_max: float = 1.0
    y_min: float = -1.0
    y_max: float = 1.0
    nx: int = 101
    ny: int = 101
    exclusion_radius: float = 0.0
    singular_loci: tuple[VerticalLine, ...] = field(default=())

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if not self.y_min < self.y_max:
            raise ValueError("y_min must be below y_max")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if self.exclusion_radius < 0.0:
            raise ValueError("exclusion_radius must be non-negative")

    def xs(self) -> list[float]:
        step = (self.x_max - self.x_min) / (self.nx - 1)
        return [self.x_min + i * step for i in range(self.nx)]

    def ys(self) -> list[float]:
        step = (self.y_max - self.y_min) / (self.ny - 1)
        return [self.y_min + j * step for j in range(self.ny)]

    def included(self, x: float, y: float) -> bool:
        for locus in self.singular_loci:
            if abs(x - locus.x) <= self.exclusion_radius:
                return False
        return True
