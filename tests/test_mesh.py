import math
import tracemalloc

import pytest

from isocurv import (
    EmptyDomainError,
    GridDomain,
    MeshStats,
    build_mesh,
    eval_value,
    parse,
    write_obj,
)


def _obj_faces(surface, domain, path):
    """The (a, b, c) of each `f` line that write_obj writes."""
    write_obj(surface, domain, str(path))
    lines = path.read_text(encoding="ascii").splitlines()
    return [tuple(map(int, ln.split()[1:])) for ln in lines if ln.startswith("f ")]


def test_full_grid_mesh_counts(tmp_path):
    surface = parse("x*y")
    domain = GridDomain(nx=3, ny=3)
    vertices, cells = build_mesh(surface, domain)
    assert len(vertices) == 9
    assert cells == [0, 1]
    assert len(_obj_faces(surface, domain, tmp_path / "3x3.obj")) == 8
    domain = GridDomain(nx=2, ny=2)
    vertices, cells = build_mesh(surface, domain)
    assert len(vertices) == 4
    assert cells == [0]
    assert len(_obj_faces(surface, domain, tmp_path / "2x2.obj")) == 2


def test_vertices_are_row_major_with_exact_heights(tmp_path):
    surface = parse("x+2*y")
    domain = GridDomain(x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0, nx=2, ny=2)
    vertices, cells = build_mesh(surface, domain)
    assert vertices == [
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
    vertices, cells = build_mesh(surface, domain)
    assert len(vertices) == 12
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
    vertices, cells = build_mesh(parse("sqrt(x)"), domain)
    assert len(vertices) == 6 and cells == [0, 1]
    assert vertices[0] == (5e-324, 0.0, math.sqrt(5e-324))
    stats = write_obj(parse("sqrt(x)"), domain, str(tmp_path / "sqrt.obj"))
    assert stats == MeshStats(n_vertices=6, n_triangles=4)


# No integer power: z is then bit for bit what eval_value gives.
_MIXED = parse("exp(0.3*x)*sin(y)+ln(2+x*x)/sqrt(3+y*y)")
_GAP = GridDomain(nx=9, ny=4, exclusion_radius=0.2, singular_loci=(0.1,))


def test_obj_lines_match_build_mesh(tmp_path):
    vertices, cells = build_mesh(_MIXED, _GAP)
    # Each row pair, its lower row starting at vertex r, has every kept
    # cell's two faces.
    m = len(vertices) // _GAP.ny
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
    vertices, _ = build_mesh(_MIXED, _GAP)
    for x, y, z in vertices:
        assert z.hex() == eval_value(_MIXED, (x, y)).hex()


def _old_write_obj(surface, domain, path):
    """The per-vertex writer that write_obj replaced, kept verbatim with
    the triangle enumeration that build_mesh once returned: the bytes it
    wrote are the OBJ contract."""
    vertices, _ = build_mesh(surface, domain)
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


def test_mesh_memory_holds_no_faces():
    # The faces follow from the kept cells, so a mesh holds its vertices
    # and little else: 201^2 of them peak near 3.8 MB, and a list of their
    # 80,000 triangles would take the peak past 10 MB.
    tracemalloc.start()
    try:
        build_mesh(_MIXED, GridDomain(nx=201, ny=201))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_writer_memory_is_bounded_by_a_row(tmp_path):
    # The writer holds one row of text at a time: its peak above the mesh
    # lists' own stays far below the ~5 MB a whole 201^2 file's lines take.
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
