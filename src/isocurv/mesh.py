"""Wavefront OBJ export of sampled graph surfaces."""

from __future__ import annotations

from array import array

from .domain import GridDomain
from .errors import IsocurvError, record
from .expr import Expr, compile_jet


@record
class MeshStats:
    n_vertices: int
    n_triangles: int


def build_mesh(surface: Expr, domain: GridDomain) -> tuple[array, list[float], list[int]]:
    """The heights, the kept columns' x and the kept cells of the sampled
    surface. heights holds the z of each surviving grid node, row by row,
    one 8-byte float each: with m = len(xs), the node in row j and kept
    column k is vertex j * m + k, at (xs[k], domain.ys()[j]). The kept
    cells are each position k whose kept columns k and k + 1 are grid
    neighbours, the same for every row pair: cell k of the row pair whose
    lower row starts at vertex r has the 1-based faces (r+k+1, r+k+2,
    r+m+k+1) and (r+k+2, r+m+k+2, r+m+k+1). Cells touching an excluded node
    are not kept, so exclusion gaps stay open. z is the value of the
    surface's order-0 kernel; an error at a node is re-raised with the node
    named."""
    value = compile_jet(surface, 0)
    columns = domain.columns()
    xs = [x for _, x in columns]
    heights = array("d")
    try:
        for y in domain.ys():
            for x in xs:
                heights.append(value(x, y))
    except (IsocurvError, ArithmeticError) as err:
        err.args = (f"{err} at (x, y) = ({x!r}, {y!r})",)
        raise
    cells = [k for k in range(len(columns) - 1) if columns[k + 1][0] == columns[k][0] + 1]
    return heights, xs, cells


def write_obj(surface: Expr, domain: GridDomain, path: str) -> MeshStats:
    """Write the sampled surface as a Wavefront OBJ (no normals, no UVs):
    one `v x y z` line per vertex, then one `f a b c` line per triangle,
    every float its repr. The file is written one grid row at a time."""
    heights, xs, cells = build_mesh(surface, domain)
    # Rows hold m vertices each and share the kept columns' x.
    n, m = len(heights), len(xs)
    heads = [f"v {x!r} " for x in xs]
    with open(path, "w", encoding="ascii") as fh:
        for r, y in zip(range(0, n, m), domain.ys()):
            y = f"{y!r} "
            fh.write("".join([f"{h}{y}{z!r}\n" for h, z in zip(heads, heights[r : r + m])]))
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
