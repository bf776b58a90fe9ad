"""Wavefront OBJ export of sampled graph surfaces."""

from __future__ import annotations

from .domain import GridDomain
from .errors import EmptyDomainError, IsocurvError, record
from .expr import Expr, compile_jet


@record
class MeshStats:
    n_vertices: int
    n_triangles: int


def build_mesh(
    surface: Expr, domain: GridDomain
) -> tuple[list[tuple[float, float, float]], list[tuple[int, int, int]]]:
    """Vertices (x, y, z) for surviving grid nodes in row-major order and
    1-based triangle index triples. Grid cells touching an excluded node
    produce no faces, so exclusion gaps stay open. z is the value of the
    surface's order-0 kernel; an error at a node is re-raised with the node
    named."""
    value = compile_jet(surface, 0)
    # Every locus is a vertical line, so a column is kept or dropped whole.
    grid_xs = domain.xs()
    columns = [i for i, x in enumerate(grid_xs) if domain.included(x, domain.y_min)]
    if not columns:
        raise EmptyDomainError("every grid node was excluded")
    xs = [grid_xs[i] for i in columns]
    vertices: list[tuple[float, float, float]] = []
    try:
        for y in domain.ys():
            for x in xs:
                vertices.append((x, y, value(x, y)))
    except (IsocurvError, ArithmeticError) as err:
        err.args = (f"{err} at (x, y) = ({x!r}, {y!r})",)
        raise
    # Vertex k of a row starting at vertex r is number r + k + 1; the
    # numbers come from one list, so the triangles share their ints.
    m = len(columns)
    ids = list(range(1, len(vertices) + 1))
    cells = [k for k in range(m - 1) if columns[k + 1] == columns[k] + 1]
    triangles: list[tuple[int, int, int]] = []
    for row in range(0, len(vertices) - m, m):
        for k in cells:
            a, b, c, d = ids[row + k], ids[row + k + 1], ids[row + m + k], ids[row + m + k + 1]
            triangles.append((a, b, c))
            triangles.append((b, d, c))
    return vertices, triangles


def write_obj(surface: Expr, domain: GridDomain, path: str) -> MeshStats:
    """Write the sampled surface as a Wavefront OBJ (no normals, no UVs)."""
    vertices, triangles = build_mesh(surface, domain)
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"v {x!r} {y!r} {z!r}\n" for x, y, z in vertices)
        fh.writelines(f"f {a} {b} {c}\n" for a, b, c in triangles)
    return MeshStats(n_vertices=len(vertices), n_triangles=len(triangles))
