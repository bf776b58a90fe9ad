import pytest

from isocurv import (
    CurvaturePair,
    curvatures,
    eval_jet,
    parse,
)


def test_curvatures_of_polynomial_jet():
    # z = x^2 y + 3 x y at (2, 5): z_xx = 10, z_yy = 0, z_xy = 7.
    pair = curvatures(eval_jet(parse("x^2*y+3*x*y"), (2.0, 5.0)))
    assert pair == CurvaturePair(K=-49.0, H=5.0)


def test_saddle_has_zero_mean_curvature():
    pair = curvatures(eval_jet(parse("x^2-y^2"), (0.37, -2.1)))
    assert pair.K == -4.0
    assert pair.H == 0.0


def test_rotational_paraboloid_is_a_sphere_analogue():
    # z = (x^2 + y^2) / 2 has K = H = 1 at every point.
    expr = parse("0.5*(x^2+y^2)")
    for p in ((0.0, 0.0), (1.0, -3.0), (0.2, 0.7)):
        pair = curvatures(eval_jet(expr, p))
        assert pair.K == pytest.approx(1.0, abs=1e-15)
        assert pair.H == pytest.approx(1.0, abs=1e-15)


def test_exponential_product_curvatures():
    # z = e^x e^y: all second partials equal z, so K = 0 and H = z.
    pair = curvatures(eval_jet(parse("exp(x)*exp(y)"), (0.0, 0.0)))
    assert pair.K == pytest.approx(0.0, abs=1e-15)
    assert pair.H == pytest.approx(1.0, rel=1e-15)

