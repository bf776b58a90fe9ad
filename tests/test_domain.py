import pytest

from isocurv import (
    DEFAULT_EXCLUSION_RADIUS,
    GridDomain,
    VerticalLine,
)


def test_defaults():
    d = GridDomain()
    assert (d.x_min, d.x_max, d.y_min, d.y_max) == (-1.0, 1.0, -1.0, 1.0)
    assert (d.nx, d.ny) == (101, 101)
    assert d.exclusion_radius == 0.0
    assert d.singular_loci == ()
    assert DEFAULT_EXCLUSION_RADIUS == 1e-2


def test_validation():
    with pytest.raises(ValueError):
        GridDomain(x_min=1.0, x_max=1.0)
    with pytest.raises(ValueError):
        GridDomain(y_min=2.0, y_max=-2.0)
    with pytest.raises(ValueError):
        GridDomain(nx=1)
    with pytest.raises(ValueError):
        GridDomain(ny=0)
    with pytest.raises(ValueError):
        GridDomain(exclusion_radius=-0.5)


def test_axes_are_inclusive_and_uniform():
    d = GridDomain(x_min=0.0, x_max=1.0, y_min=-2.0, y_max=2.0, nx=5, ny=3)
    assert d.xs() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert d.ys() == [-2.0, 0.0, 2.0]


def test_endpoints_exact():
    d = GridDomain(x_min=-1.0, x_max=1.0, nx=7)
    xs = d.xs()
    assert xs[0] == -1.0
    assert xs[-1] == pytest.approx(1.0, abs=1e-15)
    assert len(xs) == 7


def test_no_loci_means_everything_included():
    d = GridDomain()
    assert d.included(0.0, 0.0)
    assert d.included(-1.0, 1.0)


def test_vertical_line_exclusion():
    d = GridDomain(
        exclusion_radius=0.1, singular_loci=(VerticalLine(0.5),)
    )
    assert not d.included(0.5, 0.0)
    assert not d.included(0.45, -1.0)  # any y, |x - 0.5| <= 0.1
    assert not d.included(0.6, 3.0)  # boundary counts as excluded
    assert d.included(0.61, 0.0)
    assert d.included(0.0, 0.0)


def test_zero_radius_still_drops_exact_hits():
    d = GridDomain(singular_loci=(VerticalLine(0.0), VerticalLine(0.5)))
    assert d.exclusion_radius == 0.0
    assert not d.included(0.0, 0.7)
    assert not d.included(0.5, 0.5)
    assert d.included(1e-300, 0.7)
    assert d.included(0.5 + 1e-12, 0.5)


def test_multiple_loci_combine():
    d = GridDomain(
        exclusion_radius=0.25,
        singular_loci=(VerticalLine(-0.5), VerticalLine(0.5)),
    )
    assert not d.included(-0.4, 0.9)
    assert not d.included(0.5, 0.2)
    assert d.included(0.0, 0.0)
