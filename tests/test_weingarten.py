import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocurv import (
    Case31Candidate,
    CurvaturePair,
    DegenerateWeingartenError,
    EmptyDomainError,
    EvaluationDomainError,
    GridDomain,
    IsocurvError,
    LWParams,
    NormalizedLW,
    NumericOverflowError,
    ParabolicSphere,
    build,
    curvatures,
    euler_residual,
    euler_residual_fn,
    eval_jet,
    jacobian_residual_fn,
    lw_residual,
    lw_residual_fn,
    normalize,
    parse,
    scan_grid,
    singular_loci,
    summarize,
    verify_family,
    weingarten_jacobian,
)
from isocurv import cli
from isocurv.errors import asdict


# -- parameters and normalization ----------------------------------------------


def test_lwparams_rejects_all_zero():
    with pytest.raises(ValueError):
        LWParams(0.0, 0.0, 0.0)
    # any single nonzero coefficient is a valid relation
    LWParams(1.0, 0.0, 0.0)
    LWParams(0.0, 0.0, 2.0)


def test_normalize_examples():
    assert normalize(LWParams(4.0, 2.0, 6.0)) == NormalizedLW(m0=1.0, n0=3.0)
    assert normalize(LWParams(0.0, 1.0, 5.0)) == NormalizedLW(m0=0.0, n0=5.0)
    assert normalize(LWParams(-3.0, 1.5, 0.0)) == NormalizedLW(m0=-1.0, n0=0.0)


def test_normalize_needs_a_k_term():
    with pytest.raises(DegenerateWeingartenError):
        normalize(LWParams(1.0, 0.0, 2.0))


def test_lw_residual_hand_value():
    pair = CurvaturePair(K=-49.0, H=5.0)
    assert lw_residual(pair, LWParams(2.0, 1.0, 3.0)) == -42.0
    assert lw_residual(pair, LWParams(0.0, 1.0, -49.0)) == 0.0


_coeff = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_b_coeff = _coeff.filter(lambda b: abs(b) >= 1e-6)


@settings(max_examples=200)
@given(a=_coeff, b=_b_coeff, c=_coeff, K=_coeff, H=_coeff)
def test_normalized_residual_is_residual_over_b(a, b, c, K, H):
    params = LWParams(a, b, c)
    norm = normalize(params)
    pair = CurvaturePair(K=K, H=H)
    lhs = lw_residual(pair, params)
    rhs = b * (2.0 * norm.m0 * H + K - norm.n0)
    scale = abs(a * H) + abs(b * K) + abs(c) + 1.0
    assert abs(lhs - rhs) <= 1e-12 * scale


# -- pointwise diagnostics -------------------------------------------------------


def test_euler_defect_of_saddle_product():
    # z = x y: z_xx = z_yy = 0, z_xy = 1, so the defect is 4 everywhere.
    j = eval_jet(parse("x*y"), (0.3, -1.7))
    assert euler_residual(j) == 4.0


def test_euler_defect_vanishes_on_rotational_paraboloid():
    j = eval_jet(parse("0.5*(x^2+y^2)"), (0.8, -0.2))
    assert euler_residual(j) == 0.0


def test_euler_defect_equals_four_times_h2_minus_k(expr_corpus_100):
    # (z_xx - z_yy)^2 + 4 z_xy^2 == 4 (H^2 - K) identically.
    for tree, points in expr_corpus_100:
        for p in points:
            j = eval_jet(tree, p)
            pair = curvatures(j)
            lhs = euler_residual(j)
            rhs = 4.0 * (pair.H * pair.H - pair.K)
            scale = (abs(j.dxx) + abs(j.dyy)) ** 2 + 4.0 * j.dxy * j.dxy + 1.0
            assert abs(lhs - rhs) <= 1e-13 * scale


def test_jacobian_hand_value():
    # z = x^3 y: K = -9 x^4, H = 3 x y, so det d(K,H)/d(x,y) = -108 x^4.
    assert weingarten_jacobian(parse("x^3*y"), (1.0, 1.0)) == -108.0


def test_jacobian_vanishes_for_constant_invariants():
    # K and H are constant, so every third partial is exactly zero.
    assert weingarten_jacobian(parse("0.5*(x^2+y^2)"), (0.4, -0.6)) == 0.0


def test_residual_fn_factories():
    surface = parse("x*y")
    lw = lw_residual_fn(LWParams(0.0, 1.0, -1.0))
    # K = -1 for z = x y, so the residual of K = -1 vanishes.
    assert lw(surface, 0.5, 2.0) == 0.0
    assert euler_residual_fn()(surface, 0.5, 2.0) == 4.0
    assert jacobian_residual_fn()(surface, 1.0, 1.0) == 0.0


# -- summaries and grid scans ----------------------------------------------------


def test_summarize_hand_statistics():
    report = summarize([1.0, -2.0, 3.0], [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
    assert report.n_samples == 3
    assert report.max_abs == 3.0
    assert report.worst_point == (2.0, 0.0)
    assert report.mean_abs == 2.0
    assert report.std_dev == pytest.approx(math.sqrt(38.0) / 3.0, rel=1e-14)


def test_summarize_worst_point_is_first_strict_maximum():
    report = summarize([2.0, -2.0], [(0.0, 0.0), (1.0, 1.0)])
    assert report.worst_point == (0.0, 0.0)


def test_summarize_single_sample_has_zero_deviation():
    report = summarize([5.0], [(0.0, 0.0)])
    assert report.std_dev == 0.0
    assert report.max_abs == 5.0


def test_summarize_constant_input_has_exactly_zero_deviation():
    # A one-pass sqrt(E[r^2] - mean^2) would leave a residue of 6.8e-9.
    values = [0.1] * 101
    report = summarize(values, [(float(i), 0.0) for i in range(101)])
    assert report.std_dev == 0.0
    assert report.max_abs == 0.1


@pytest.mark.parametrize(
    "values", [[math.nan, math.nan], [1.0, math.inf], [-2.0, -math.inf, math.nan]]
)
def test_summarize_refuses_a_non_finite_value(values):
    points = [(float(i), 0.5) for i in range(len(values))]
    first = next(i for i, r in enumerate(values) if not math.isfinite(r))
    with pytest.raises(NumericOverflowError) as exc_info:
        summarize(values, points)
    assert str(exc_info.value).endswith(f"at (x, y) = {points[first]!r}")


@pytest.mark.parametrize("values", [[0.0, 3e200, -3e200], [0.0, 1e308, 1e308]])
def test_summarize_overflows_std_dev_to_inf(values):
    # The squares overflow, and in the second case the fsum of the shifted
    # values as well; both once raised a bare OverflowError.
    report = summarize(values, [(float(i), 0.0) for i in range(len(values))])
    assert report.std_dev == math.inf
    assert report.max_abs == max(map(abs, values))


def test_summarize_empty_raises():
    with pytest.raises(EmptyDomainError):
        summarize([], [])


def test_summarize_report_is_written_with_its_fields():
    report = summarize([1.0], [(0.25, -0.5)])
    d = asdict(report)
    assert d == {
        "n_samples": 1,
        "max_abs": 1.0,
        "mean_abs": 1.0,
        "std_dev": 0.0,
        "worst_point": (0.25, -0.5),
    }
    # The report writer spells the tuple as json.dumps spells a list.
    assert '"worst_point": [\n    0.25,\n    -0.5\n  ]' in cli._dumps(d)


def test_scan_grid_constant_residual():
    domain = GridDomain(nx=3, ny=3)
    report = scan_grid(parse("x*y"), domain, euler_residual_fn())
    assert report.n_samples == 9
    assert report.max_abs == 4.0
    assert report.mean_abs == 4.0
    assert report.std_dev == 0.0
    # rows scan in y with x fastest, so the first node is the corner
    assert report.worst_point == (-1.0, -1.0)


def test_scan_grid_respects_exclusion():
    domain = GridDomain(nx=3, ny=3, singular_loci=(0.0,))
    report = scan_grid(parse("x*y"), domain, euler_residual_fn())
    assert report.n_samples == 6  # the x = 0 column is gone


def test_scan_grid_all_excluded():
    domain = GridDomain(
        nx=3, ny=3, exclusion_radius=10.0, singular_loci=(0.0,)
    )
    with pytest.raises(EmptyDomainError):
        scan_grid(parse("x*y"), domain, euler_residual_fn())


def test_scan_grid_error_names_the_node_and_residual():
    domain = GridDomain(nx=3, ny=3)
    with pytest.raises(EvaluationDomainError) as exc_info:
        scan_grid(parse("ln(x)"), domain, euler_residual_fn())
    assert str(exc_info.value) == (
        "ln of non-positive value -1.0 at (x, y) = (-1.0, -1.0) in the euler residual"
    )


def test_scan_grid_lw_pass_example():
    # The rotational paraboloid satisfies H + K = 2 exactly.
    domain = GridDomain(nx=11, ny=11)
    report = scan_grid(
        parse("0.5*(x^2+y^2)"), domain, lw_residual_fn(LWParams(1.0, 1.0, 2.0))
    )
    assert report.n_samples == 121
    assert report.max_abs == 0.0


def test_scan_grid_euler_varies_for_nonflat_product():
    # z = e^x sin(y) is factorable but not a parabolic sphere or plane,
    # so the defect is strictly positive somewhere.
    domain = GridDomain(nx=9, ny=9)
    report = scan_grid(parse("exp(x)*sin(y)"), domain, euler_residual_fn())
    assert report.max_abs > 1e-3
    assert report.std_dev > 0.0


# -- residuals emitted into the kernel ---------------------------------------------


@pytest.mark.parametrize(
    "surface, kind, message",
    [
        ("ln(0.5+x*y)", "lw", "ln of non-positive value -2.5 at (x, y) = (1.0, -3.0) in the lw residual"),
        ("exp(800*x)", "euler", "exp overflow at argument 800.0 at (x, y) = (1.0, -1.0) in the euler residual"),
        # exp(700) is finite, and its partials in x overflow.
        ("exp(700*x)", "euler",
         "jet evaluation produced a non-finite value at (x, y) = (1.0, -1.0) in the euler residual"),
        ("exp(700*x)", "lw", "jet evaluation produced a non-finite value at (x, y) = (1.0, -1.0) in the lw residual"),
        # Only z_x overflows, and the residuals read no first partial.
        ("x*1e300*1e300", "euler",
         "jet evaluation produced a non-finite value at (x, y) = (-1.0, -1.0) in the euler residual"),
        ("x*1e300*1e300", "lw", "jet evaluation produced a non-finite value at (x, y) = (-1.0, -1.0) in the lw residual"),
        # A finite jet whose residual overflows is named by summarize.
        ("1e160*x^2", "lw", "non-finite residual inf at (x, y) = (-1.0, -1.0)"),
        ("1e160*x*y", "euler", "non-finite residual inf at (x, y) = (-1.0, -1.0)"),
        ("1e200*x*y+1e200*x^2", "lw", "non-finite residual nan at (x, y) = (-1.0, -1.0)"),
    ],
)
def test_a_scan_raises_at_the_node_and_with_the_message_of_the_jet(surface, kind, message):
    """Each message is the one that the residual of eval_jet's jet gave:
    the kernel refuses a non-finite jet before its tail runs."""
    domain = GridDomain(-3.0, 3.0, -3.0, 3.0, nx=7, ny=7) if surface.startswith("ln") else GridDomain(nx=5, ny=5)
    fn = euler_residual_fn() if kind == "euler" else lw_residual_fn(LWParams(1e200, 1e200, 1.0))
    with pytest.raises((IsocurvError, ArithmeticError)) as exc_info:
        scan_grid(parse(surface), domain, fn)
    assert str(exc_info.value) == message


def test_one_residual_function_alternates_between_trees():
    """Each call on another tree than the last compiles that tree's kernel."""
    params = LWParams(1.0, 1.0, 2.0)
    lw, euler = lw_residual_fn(params), euler_residual_fn()
    trees = (parse("0.5*(x^2+y^2)"), parse("exp(x)*sin(y)"), parse("x*y"))
    for x, y in ((0.5, 2.0), (-0.25, 0.75), (0.5, 2.0)):
        for surface in trees:
            j = eval_jet(surface, (x, y))
            assert lw(surface, x, y).hex() == lw_residual(curvatures(j), params).hex()
            assert euler(surface, x, y).hex() == euler_residual(j).hex()
    assert (lw(trees[0], 0.5, 2.0), lw(trees[2], 0.5, 2.0)) == (0.0, -3.0)


# -- flat storage ----------------------------------------------------------------


def _scan_from_lists(surface, domain, residual):
    """scan_grid as it was written with a list of values and one of points,
    testing every node for exclusion."""
    values, points = [], []
    for y in domain.ys():
        for x in domain.xs():
            if domain.included(x):
                values.append(residual(surface, x, y))
                points.append((x, y))
    return summarize(values, points)


GAPPED = GridDomain(nx=41, ny=23, exclusion_radius=0.06, singular_loci=(0.3, -0.5))


@pytest.mark.parametrize(
    "surface, residual",
    [
        ("exp(x)*sin(y)", euler_residual_fn()),
        ("x^3+y^3", jacobian_residual_fn()),
        ("0.5*(x^2+y^2)+x*y^3", lw_residual_fn(LWParams(1.0, 1.0, 2.0))),
    ],
)
def test_scan_grid_matches_a_scan_kept_in_lists(surface, residual):
    e = parse(surface)
    report = scan_grid(e, GAPPED, residual)
    assert report.n_samples == (41 - 6) * 23  # three columns around each locus
    assert report == _scan_from_lists(e, GAPPED, residual)


def test_verify_family_matches_a_scan_kept_in_lists():
    spec = Case31Candidate(c3=1.0, c4=2.0, d7=0.5, d8=0.25, d9=0.5, m0=1.0)
    # A family with constant invariants, scanned over the candidate's gap.
    sphere = ParabolicSphere(c3=0.75, d8=1.0, d9=-0.5, d10=2.0)
    domain = GridDomain(nx=31, ny=17, exclusion_radius=0.05, singular_loci=singular_loci(spec))
    surface = build(sphere)

    def deviation(s, x, y):
        pair = curvatures(eval_jet(s, (x, y)))
        return max(abs(pair.K - 2.25), abs(pair.H - 1.5))

    report = verify_family(sphere, domain)
    assert report.n_samples == 30 * 17
    assert report == _scan_from_lists(surface, domain, deviation)


def test_scan_grid_names_the_failing_node_past_a_gap():
    def blow_up(s, x, y):
        return math.inf if (x, y) == (0.5, 0.0) else x * y

    domain = GridDomain(nx=5, ny=5, exclusion_radius=0.1, singular_loci=(0.0,))
    with pytest.raises(NumericOverflowError, match=r"^non-finite residual inf at \(x, y\) = \(0\.5, 0\.0\)$"):
        scan_grid(parse("x"), domain, blow_up)
    with pytest.raises(EvaluationDomainError, match=r"at \(x, y\) = \(1\.0, -1\.0\) in the euler residual$"):
        scan_grid(parse("ln(0.75-x)"), domain, euler_residual_fn())


def test_scan_grid_keeps_no_per_node_objects():
    """About 8 bytes a node: a 201 x 201 scan peaked at 3.7 MB when every
    node kept a float object and an (x, y) tuple."""
    surface, domain = parse("x^2+0.62*y^2"), GridDomain(nx=201, ny=201)
    scan_grid(surface, GridDomain(nx=2, ny=2), euler_residual_fn())  # compile the kernel first
    tracemalloc.start()
    try:
        scan_grid(surface, domain, euler_residual_fn())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
