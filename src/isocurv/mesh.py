"""Wavefront OBJ export of sampled graph surfaces."""

from __future__ import annotations

from array import array

from .domain import GridDomain
from .errors import IsocurvError, record
from .expr import Expr, compile_jet, tape
from .jet import compile_kernel


@record
class MeshStats:
    n_vertices: int
    n_triangles: int


def _row_kernel(surface: Expr):
    """kernel(xs, ys, out), which appends compile_jet(surface, 0)'s value at
    each (x, y), x fastest, from the same statements in the same order: those
    that read neither seed run once, x alone once per column (keeping what a
    node reads), y alone once per row and the rest at each node (loop-
    invariant code motion, Aho et al., Compilers, 2nd ed., §9.5). A guard so
    may fail first past the first failing node in scan order: each raises a
    bare ArithmeticError."""
    t, result = tape(surface, 0)
    t.refuse(result)
    blocks = ["", "", "", ""]
    for reads, line in zip(t.reads, t.lines):
        head = line.partition(" raise ")[0]
        indent = "\n" + "    " * (1, 2, 2, 3)[reads]
        blocks[reads] += indent + (head + " raise ArithmeticError" if head != line else line).replace("\n", indent)
    # The seed X and the locals X<n> and X<n>_<i> that a node reads.
    names = ("X" + p[: len(p) - len(p.lstrip("0123456789_"))] for p in (blocks[3] + result[0]).split("X")[1:])
    kept = f"({', '.join(dict.fromkeys(names))})"
    return compile_kernel(f"""def kernel(xs, ys, out):{blocks[0]}
    columns = []
    for X in xs:{blocks[1]}
        columns.append({kept})
    for Y in ys:{blocks[2]}
        for {kept} in columns:{blocks[3]}
            out.append({result[0]})""")


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
    surface's order-0 kernel, by its row kernel; if that fails, node by node
    the first error in scan order is re-raised with the node named."""
    columns = domain.columns()
    xs = [x for _, x in columns]
    cells = [k for k in range(len(columns) - 1) if columns[k + 1][0] == columns[k][0] + 1]
    heights = array("d")
    try:
        _row_kernel(surface)(xs, domain.ys(), heights)
        return heights, xs, cells
    except ArithmeticError:
        value, heights = compile_jet(surface, 0), array("d")
    try:
        for y in domain.ys():
            for x in xs:
                heights.append(value(x, y))
    except (IsocurvError, ArithmeticError) as err:
        err.args = (f"{err} at (x, y) = ({x!r}, {y!r})",)
        raise
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
