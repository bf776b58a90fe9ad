"""Wavefront OBJ export of sampled graph surfaces."""

from __future__ import annotations

from .domain import GridDomain
from .errors import IsocurvError, record
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
    columns = domain.columns()
    xs = [x for _, x in columns]
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
    cells = [k for k in range(m - 1) if columns[k + 1][0] == columns[k][0] + 1]
    triangles: list[tuple[int, int, int]] = []
    for row in range(0, len(vertices) - m, m):
        for k in cells:
            a, b, c, d = ids[row + k], ids[row + k + 1], ids[row + m + k], ids[row + m + k + 1]
            triangles.append((a, b, c))
            triangles.append((b, d, c))
    return vertices, triangles


def write_obj(surface: Expr, domain: GridDomain, path: str) -> MeshStats:
    """Write the sampled surface as a Wavefront OBJ (no normals, no UVs):
    one `v x y z` line per vertex, then one `f a b c` line per triangle,
    every float its repr. The file is written one grid row at a time."""
    vertices, triangles = build_mesh(surface, domain)
    # Rows hold m vertices each and share the kept columns' x; every row
    # pair has the faces of the first pair, whose cells start at k = a - 1.
    n, m = len(vertices), len(vertices) // domain.ny
    heads = [f"v {x!r} " for x, _, _ in vertices[:m]]
    cells = [a - 1 for a, _, _ in triangles[: len(triangles) // (domain.ny - 1) : 2]]
    with open(path, "w", encoding="ascii") as fh:
        for r in range(0, n, m):
            y = f"{vertices[r][1]!r} "
            fh.write("".join([f"{h}{y}{v[2]!r}\n" for h, v in zip(heads, vertices[r : r + m])]))
        # Each vertex number is formatted once, for the rows above and below it.
        low = list(map(str, range(1, m + 1)))
        for r in range(m, n, m):
            up = list(map(str, range(r + 1, r + m + 1)))
            fh.write("".join([
                f"f {low[k]} {low[k + 1]} {up[k]}\nf {low[k + 1]} {up[k + 1]} {up[k]}\n"
                for k in cells
            ]))
            low = up
    return MeshStats(n_vertices=n, n_triangles=len(triangles))
