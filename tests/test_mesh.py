import math
import tracemalloc
from array import array

import pytest

import jet_golden
from isocurv import (
    EmptyDomainError,
    GridDomain,
    IsocurvError,
    MeshStats,
    build,
    build_mesh,
    eval_value,
    parse,
    spec_from_dict,
    to_string,
    write_obj,
)
from isocurv.expr import compile_jet


def _vertices(domain, heights):
    """The (x, y, z) of each vertex, row-major: the kept columns' x, each
    row's y and the heights that build_mesh returns."""
    xs = [x for _, x in domain.columns()]
    nodes = [(x, y) for y in domain.ys() for x in xs]
    assert len(nodes) == len(heights)
    return [(x, y, z) for (x, y), z in zip(nodes, heights)]


def _obj_faces(surface, domain, path):
    """The (a, b, c) of each `f` line that write_obj writes."""
    write_obj(surface, domain, str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    return [tuple(map(int, ln.split()[1:])) for ln in lines if ln.startswith("f ")]


def test_full_grid_mesh_counts(tmp_path):
    surface = parse("x*y")
    domain = GridDomain(nx=3, ny=3)
    heights, xs, cells = build_mesh(surface, domain)
    assert (len(heights), xs) == (9, [-1.0, 0.0, 1.0])
    assert cells == [0, 1]
    assert len(_obj_faces(surface, domain, tmp_path / "3x3.obj")) == 8
    domain = GridDomain(nx=2, ny=2)
    heights, xs, cells = build_mesh(surface, domain)
    assert (len(heights), xs) == (4, [-1.0, 1.0])
    assert cells == [0]
    assert len(_obj_faces(surface, domain, tmp_path / "2x2.obj")) == 2


def test_vertices_are_row_major_with_exact_heights(tmp_path):
    surface = parse("x+2*y")
    domain = GridDomain(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=2)
    heights, xs, cells = build_mesh(surface, domain)
    # One 8-byte float per vertex, and no per-vertex tuple.
    assert type(heights) is array and heights.typecode == "d"
    assert heights.tolist() == [0.0, 1.0, 2.0, 3.0] and xs == [0.0, 1.0]
    assert _vertices(domain, heights) == [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 1.0),
        (0.0, 1.0, 2.0),
        (1.0, 1.0, 3.0),
    ]
    assert cells == [0]
    # 1-based, counter-consistent winding: (a,b,c) then (b,d,c)
    assert _obj_faces(surface, domain, tmp_path / "patch.obj") == [(1, 2, 3), (2, 4, 3)]


def test_exclusion_opens_a_gap(tmp_path):
    # 5x3 grid with the x = 0 column excluded: 12 vertices survive and no
    # face touches the gap, leaving the two sides disconnected.
    surface = parse("x*y")
    domain = GridDomain(
        nx=5,
        ny=3,
        exclusion_radius=0.1,
        singular_loci=(0.0,),
    )
    heights, xs, cells = build_mesh(surface, domain)
    assert len(heights) == 12 and xs == [-1.0, -0.5, 0.5, 1.0]
    vertices = _vertices(domain, heights)
    # Kept columns x = -1, -0.5, 0.5, 1: only positions 0 and 2 are cells.
    assert cells == [0, 2]
    triangles = _obj_faces(surface, domain, tmp_path / "gap.obj")
    assert len(triangles) == 8
    for tri in triangles:
        txs = [vertices[vid - 1][0] for vid in tri]
        # no face touches the excluded column ...
        assert all(abs(tx) > 0.1 for tx in txs)
        # ... and none spans it: every face stays within one 0.5-wide cell
        assert max(txs) - min(txs) <= 0.5
        assert (min(txs) > 0.0) == (max(txs) > 0.0)


def test_empty_mesh_raises():
    domain = GridDomain(
        nx=3, ny=3, exclusion_radius=10.0, singular_loci=(0.0,)
    )
    with pytest.raises(EmptyDomainError):
        build_mesh(parse("x*y"), domain)


def test_write_obj_format(tmp_path):
    surface = parse("x*y")
    path = tmp_path / "patch.obj"
    stats = write_obj(surface, GridDomain(nx=2, ny=2), str(path))
    assert stats == MeshStats(n_vertices=4, n_triangles=2)
    lines = path.read_text(encoding="ascii").splitlines()
    assert len(lines) == 6
    assert lines[0] == "v -1.0 -1.0 1.0"
    assert lines[-1] == "f 2 4 3"
    v_lines = [ln for ln in lines if ln.startswith("v ")]
    f_lines = [ln for ln in lines if ln.startswith("f ")]
    assert len(v_lines) == 4 and len(f_lines) == 2
    # vertex lines reproduce the float values exactly
    for ln, (x, y) in zip(v_lines, [(-1, -1), (1, -1), (-1, 1), (1, 1)]):
        sx, sy, sz = ln[2:].split()
        assert float(sx) == x and float(sy) == y
        assert float(sz) == eval_value(surface, (float(sx), float(sy)))


def test_obj_indices_stay_in_range(tmp_path):
    surface = parse("0.5*(x^2+y^2)")
    domain = GridDomain(
        nx=7,
        ny=7,
        exclusion_radius=0.3,
        singular_loci=(1.0 / 3.0,),
    )
    n = len(build_mesh(surface, domain)[0])
    triangles = _obj_faces(surface, domain, tmp_path / "ring.obj")
    assert triangles
    for tri in triangles:
        assert all(1 <= vid <= n for vid in tri)
        assert len(set(tri)) == 3


def test_value_kernel_meshes_where_the_derivatives_overflow(tmp_path):
    # At x = 5e-324 sqrt's value is finite but its second derivative is not.
    domain = GridDomain(x_min=5e-324, x_max=1.0, y_min=0.0, y_max=1.0, nx=3, ny=2)
    heights, _, cells = build_mesh(parse("sqrt(x)"), domain)
    assert len(heights) == 6 and cells == [0, 1]
    assert _vertices(domain, heights)[0] == (5e-324, 0.0, math.sqrt(5e-324))
    stats = write_obj(parse("sqrt(x)"), domain, str(tmp_path / "sqrt.obj"))
    assert stats == MeshStats(n_vertices=6, n_triangles=4)


# No integer power: z is then bit for bit what eval_value gives.
_MIXED = parse("exp(0.3*x)*sin(y)+ln(2+x*x)/sqrt(3+y*y)")
_GAP = GridDomain(nx=9, ny=4, exclusion_radius=0.2, singular_loci=(0.1,))


def test_obj_lines_match_build_mesh(tmp_path):
    heights, xs, cells = build_mesh(_MIXED, _GAP)
    vertices = _vertices(_GAP, heights)
    # Each row pair, its lower row starting at vertex r, has every kept
    # cell's two faces.
    m = len(xs)
    triangles = [
        face
        for r in range(0, len(vertices) - m, m)
        for k in cells
        for face in ((r + k + 1, r + k + 2, r + m + k + 1), (r + k + 2, r + m + k + 2, r + m + k + 1))
    ]
    path = tmp_path / "gap.obj"
    stats = write_obj(_MIXED, _GAP, str(path))
    assert stats == MeshStats(n_vertices=len(vertices), n_triangles=len(triangles))
    assert (len(vertices), len(triangles)) == (28, 30)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines == [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices] + [
        f"f {a} {b} {c}" for a, b, c in triangles
    ]


def test_heights_without_integer_powers_equal_eval_value():
    for x, y, z in _vertices(_GAP, build_mesh(_MIXED, _GAP)[0]):
        assert z.hex() == eval_value(_MIXED, (x, y)).hex()


def _old_write_obj(surface, domain, path):
    """The per-vertex writer that write_obj replaced, kept with the
    (x, y, z) list and the triangle enumeration that build_mesh once
    returned: the bytes it wrote are the OBJ contract."""
    vertices = _vertices(domain, build_mesh(surface, domain)[0])
    columns = domain.columns()
    m = len(columns)
    ids = list(range(1, len(vertices) + 1))
    cells = [k for k in range(m - 1) if columns[k + 1][0] == columns[k][0] + 1]
    triangles = []
    for row in range(0, len(vertices) - m, m):
        for k in cells:
            a, b, c, d = ids[row + k], ids[row + k + 1], ids[row + m + k], ids[row + m + k + 1]
            triangles.append((a, b, c))
            triangles.append((b, d, c))
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(f"v {x!r} {y!r} {z!r}\n" for x, y, z in vertices)
        fh.writelines(f"f {a} {b} {c}\n" for a, b, c in triangles)
    return MeshStats(n_vertices=len(vertices), n_triangles=len(triangles))


# Tiny coordinates and a huge y give exponent reprs, and 1e-20 * 0.0 * y
# a negative zero where y < 0.
_TINY = GridDomain(x_min=-3e-05, x_max=3e-05, y_min=-1e16, y_max=1e16, nx=3, ny=4)
# The middle of three columns excluded: no two kept columns are adjacent.
_SPLIT = GridDomain(nx=3, ny=3, exclusion_radius=0.1, singular_loci=(0.0,))


@pytest.mark.parametrize(
    "surface, domain, counts",
    [
        (_MIXED, GridDomain(nx=41, ny=41), (1681, 3200)),
        (_MIXED, _GAP, (28, 30)),
        (parse("x*y"), GridDomain(nx=2, ny=2), (4, 2)),
        (parse("1e-20*x*y"), _TINY, (12, 12)),
        (parse("x*y"), _SPLIT, (6, 0)),
    ],
    ids=["mixed-41", "gap", "2x2", "tiny", "split"],
)
def test_obj_bytes_match_the_per_vertex_writer(tmp_path, surface, domain, counts):
    want, got = tmp_path / "want.obj", tmp_path / "got.obj"
    stats = write_obj(surface, domain, str(got))
    assert stats == _old_write_obj(surface, domain, str(want))
    assert (stats.n_vertices, stats.n_triangles) == counts
    assert got.read_bytes() == want.read_bytes()


def test_tiny_case_writes_negative_zeros_and_exponents(tmp_path):
    path = tmp_path / "tiny.obj"
    write_obj(parse("1e-20*x*y"), _TINY, str(path))
    text = path.read_text(encoding="ascii")
    assert " -0.0\n" in text and "e-05 " in text and "e+16 " in text and "e-09\n" in text


def test_mesh_memory_holds_one_float_per_vertex():
    # The faces follow from the kept cells and each vertex's x and y from
    # the grid, so a mesh holds one 8-byte height per vertex and little
    # else: 201^2 of them peak near 0.35 MB. A list of (x, y, z) tuples
    # would take the peak to 3.8 MB, and a list of the 80,000 triangles past
    # 10 MB.
    tracemalloc.start()
    try:
        build_mesh(_MIXED, GridDomain(nx=201, ny=201))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_writer_memory_is_bounded_by_a_row(tmp_path):
    # The writer holds one row of text at a time: its peak above the mesh's
    # own stays far below the ~5 MB a whole 201^2 file's lines take.
    domain = GridDomain(nx=201, ny=201)
    tracemalloc.start()
    try:
        build_mesh(_MIXED, domain)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        write_obj(_MIXED, domain, str(tmp_path / "big.obj"))
        _, written = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written - built < 1 << 20


# -- the row kernel against the per-node kernel ---------------------------------

# The benchmark's surface templates at fixed coefficients, the acceptance
# criteria's surfaces and the family surfaces of tests/test_pins.py.
_TEMPLATES = (
    "exp(0.42*x)*sin(1.38*y)+ln(1.64+x^2)/sqrt(2.73+y^2)", "0.56*x^2+0.62*y^2", "1.1*x^3+0.71*y^3",
    "(1.04*x+0.28)*(1.14*y+0.85)", "1.42*exp(0.96*x*y)+0.6*cos(1.47*x)",
    "1.18*sin(1.12*x)*cos(0.96*y)+0.44*x^2*y", "sqrt(1.77+x^2)*sqrt(2.53+y^2)+0.97*x*y",
    "0.24*x^4+0.74*x^2*y^2+0.41*y^4", "ln(1.31+x^2)*exp(0.39*y)-0.36*x*y^3",
    "(2*x+1)*(3*y+4)", "exp(x)*sin(y)", "exp(x)*exp(y)",
)
_FAMILIES = (
    {"kind": "CaseA", "f0": 1.0, "m0": 1.0, "n0": 2.0, "d1": 0.0, "d2": 0.0},
    {"kind": "Case31Candidate", "c3": 0.56, "c4": 1.99, "d7": 0.36, "d8": 1.04, "d9": -0.2191, "m0": 1.65},
)
# With and without an excluded column, over a span that holds no zero, and
# over one whose coordinates overflow many trees.
_DOMAINS = (
    GridDomain(nx=7, ny=5),
    GridDomain(nx=7, ny=5, exclusion_radius=0.1, singular_loci=(0.0,)),
    GridDomain(x_min=0.25, x_max=3.0, y_min=-2.0, y_max=40.0, nx=4, ny=6),
    GridDomain(x_min=-1e160, x_max=1e160, y_min=-3.0, y_max=1e300, nx=5, ny=4),
)


def _node_by_node(surface, domain):
    """The heights of the order-0 kernel called at each node in scan order,
    or the class and message of its first error with the node named, as
    build_mesh once computed them."""
    value = compile_jet(surface, 0)
    heights = array("d")
    xs = [x for _, x in domain.columns()]
    for y in domain.ys():
        for x in xs:
            try:
                heights.append(value(x, y))
            except (IsocurvError, ArithmeticError) as err:
                return type(err), f"{err} at (x, y) = ({x!r}, {y!r})"
    return heights.tobytes()


def _built(surface, domain):
    try:
        return build_mesh(surface, domain)[0].tobytes()
    except (IsocurvError, ArithmeticError) as err:
        return type(err), str(err)


def _trees():
    yield from map(parse, _TEMPLATES)
    yield from (build(spec_from_dict(spec)) for spec in _FAMILIES)
    yield from map(parse, jet_golden.SURFACES)
    # Every 40th seeded tree of the golden fixture (each has five cases).
    seeded = 5 * jet_golden.N_TREES
    yield from (e for i, (_, e, _) in enumerate(jet_golden.cases()) if i % 200 == 0 and i < seeded)


def test_row_kernel_heights_and_errors_equal_the_per_node_kernels():
    outcomes = {True: 0, False: 0}
    for tree in _trees():
        for domain in _DOMAINS:
            want = _node_by_node(tree, domain)
            assert _built(tree, domain) == want, to_string(tree)
            outcomes[type(want) is bytes] += 1
    # Both heights and errors are compared, many times each.
    assert min(outcomes.values()) > 50, outcomes


@pytest.mark.parametrize("surface, error", [
    # A guard on x alone fails first in its column, met before any row.
    ("ln(x)+y", "EvaluationDomainError: ln of non-positive value -1.0 at (x, y) = (-1.0, -1.0)"),
    ("ln(0.5-x)*y", "EvaluationDomainError: ln of non-positive value 0.0 at (x, y) = (0.5, -1.0)"),
    # On y alone, in the row loop before a node.
    ("sqrt(y)+x", "EvaluationDomainError: sqrt of non-positive value -1.0 at (x, y) = (-1.0, -1.0)"),
    ("x/(y-0.5)", "DivisionByZeroError: division by a quantity with zero value at (x, y) = (-1.0, 0.5)"),
    # On a constant, once before every loop.
    ("ln(-1)+x*y", "EvaluationDomainError: ln of non-positive value -1.0 at (x, y) = (-1.0, -1.0)"),
    # x's and y's guards both fail at the first node: the tape's order names y's,
    # though the row kernel meets x's column first.
    ("sqrt(y+1)+ln(x+1)", "EvaluationDomainError: sqrt of non-positive value 0.0 at (x, y) = (-1.0, -1.0)"),
    # At a mixed node: a guard, an overflow trap and the finiteness check.
    ("1/(x*y)", "DivisionByZeroError: division by a quantity with zero value at (x, y) = (0.0, -1.0)"),
    ("x^-1+y^-1", "DivisionByZeroError: zero base raised to a negative power at (x, y) = (0.0, -1.0)"),
    ("exp(1000*x*y)", "NumericOverflowError: exp overflow at argument 1000.0 at (x, y) = (-1.0, -1.0)"),
    ("1e200*x*y*1e200", "NumericOverflowError: jet evaluation produced a non-finite value "
                        "at (x, y) = (-1.0, -1.0)"),
])
def test_row_kernel_errors_name_the_per_node_kernels_first_node(surface, error):
    tree, domain = parse(surface), GridDomain(nx=5, ny=5)
    cls, message = _node_by_node(tree, domain)
    assert f"{cls.__name__}: {message}" == error
    with pytest.raises(cls) as info:
        build_mesh(tree, domain)
    assert str(info.value) == message
