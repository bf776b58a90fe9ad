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
) -> tuple[list[tuple[float, float, float]], list[int]]:
    """Vertices (x, y, z) for surviving grid nodes in row-major order, and
    the kept cells: each position k whose kept columns k and k + 1 are grid
    neighbours. The cells are the same for every row pair: with m kept
    columns, cell k of the row pair whose lower row starts at vertex r has
    the 1-based faces (r+k+1, r+k+2, r+m+k+1) and (r+k+2, r+m+k+2, r+m+k+1).
    Cells touching an excluded node are not kept, so exclusion gaps stay
    open. z is the value of the surface's order-0 kernel; an error at a
    node is re-raised with the node named."""
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
    cells = [k for k in range(len(columns) - 1) if columns[k + 1][0] == columns[k][0] + 1]
    return vertices, cells


def write_obj(surface: Expr, domain: GridDomain, path: str) -> MeshStats:
    """Write the sampled surface as a Wavefront OBJ (no normals, no UVs):
    one `v x y z` line per vertex, then one `f a b c` line per triangle,
    every float its repr. The file is written one grid row at a time."""
    vertices, cells = build_mesh(surface, domain)
    # Rows hold m vertices each and share the kept columns' x.
    n, m = len(vertices), len(vertices) // domain.ny
    heads = [f"v {x!r} " for x, _, _ in vertices[:m]]
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
    return MeshStats(n_vertices=n, n_triangles=2 * len(cells) * (domain.ny - 1))
