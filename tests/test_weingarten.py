import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isocurv import (
    CurvaturePair,
    DegenerateWeingartenError,
    EmptyDomainError,
    GridDomain,
    LWParams,
    NormalizedLW,
    VerticalLine,
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
    summarize,
    weingarten_jacobian,
)


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
    j = weingarten_jacobian(parse("x^3*y"), (1.0, 1.0))
    assert j == pytest.approx(-108.0, abs=1e-3)


def test_jacobian_vanishes_for_constant_invariants():
    # K and H are exactly constant, so the differences cancel exactly.
    assert weingarten_jacobian(parse("0.5*(x^2+y^2)"), (0.4, -0.6)) == 0.0


def test_residual_fn_factories():
    surface = parse("x*y")
    lw = lw_residual_fn(LWParams(0.0, 1.0, -1.0))
    # K = -1 for z = x y, so the residual of K = -1 vanishes.
    assert lw(surface, 0.5, 2.0) == 0.0
    assert euler_residual_fn()(surface, 0.5, 2.0) == 4.0
    assert jacobian_residual_fn()(surface, 1.0, 1.0) == pytest.approx(0.0, abs=1e-6)


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


def test_summarize_empty_raises():
    with pytest.raises(EmptyDomainError):
        summarize([], [])


def test_summarize_to_dict_round_trips_fields():
    report = summarize([1.0], [(0.25, -0.5)])
    d = report.to_dict()
    assert d == {
        "n_samples": 1,
        "max_abs": 1.0,
        "mean_abs": 1.0,
        "std_dev": 0.0,
        "worst_point": [0.25, -0.5],
    }


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
    domain = GridDomain(nx=3, ny=3, singular_loci=(VerticalLine(0.0),))
    report = scan_grid(parse("x*y"), domain, euler_residual_fn())
    assert report.n_samples == 6  # the x = 0 column is gone


def test_scan_grid_all_excluded():
    domain = GridDomain(
        nx=3, ny=3, exclusion_radius=10.0, singular_loci=(VerticalLine(0.0),)
    )
    with pytest.raises(EmptyDomainError):
        scan_grid(parse("x*y"), domain, euler_residual_fn())


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
