import pytest

from isocurv import (
    IVP,
    Case31Candidate,
    EmptyDomainError,
    GridDomain,
    LWParams,
    SaturatedLinearODE,
    ShiftedReciprocalODE,
    singular_loci,
)
from isocurv.cli import main


def test_defaults():
    d = GridDomain()
    assert (d.x_min, d.x_max, d.y_min, d.y_max) == (-1.0, 1.0, -1.0, 1.0)
    assert (d.nx, d.ny) == (101, 101)
    assert d.exclusion_radius == 0.0
    assert d.singular_loci == ()


@pytest.mark.parametrize("command", ["verify-family", "mesh"])
def test_the_spec_commands_exclude_a_hundredth_by_default(capsys, command):
    assert main([command, "-h"]) == 0
    assert "singular loci (default 0.01)\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "ends, message",
    [
        ({"x_min": -1e308, "x_max": 1e308}, "x_max - x_min must be finite"),
        ({"y_min": -1.7976931348623157e308, "y_max": 1e300}, "y_max - y_min must be finite"),
    ],
)
def test_a_span_that_overflows_is_refused(ends, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridDomain(nx=2, ny=2, **ends)


def test_the_widest_finite_span_keeps_finite_nodes():
    d = GridDomain(-8.9e307, 8.9e307, -1.0, 1.0, nx=3, ny=2)
    assert d.xs() == [-8.9e307, 0.0, 8.9e307]


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_fields_are_named(bad):
    ivp = dict(rhs=SaturatedLinearODE(c5=1.0, d10=0.0), t0=0.0, f0=1.0, fp0=0.0, t_end=1.0, step=0.1)
    cases = [(GridDomain, {}, name) for name in ("x_min", "x_max", "y_min", "y_max", "exclusion_radius")]
    cases += [(LWParams, dict(a=1.0, b=1.0, c=1.0), name) for name in ("a", "b", "c")]
    cases += [(IVP, ivp, name) for name in ("t0", "f0", "fp0", "t_end", "step")]
    cases += [(ShiftedReciprocalODE, dict(c3=1.0, m0=1.0), name) for name in ("c3", "m0")]
    cases += [(SaturatedLinearODE, dict(c5=1.0, d10=0.0), name) for name in ("c5", "d10")]
    for cls, fields, name in cases:
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            cls(**{**fields, name: bad})


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
    assert d.included(0.0)
    assert d.included(-1.0)


def test_vertical_line_exclusion():
    d = GridDomain(
        exclusion_radius=0.1, singular_loci=(0.5,)
    )
    assert not d.included(0.5)
    assert not d.included(0.45)  # |x - 0.5| <= 0.1
    assert not d.included(0.6)  # boundary counts as excluded
    assert d.included(0.61)
    assert d.included(0.0)


def test_zero_radius_still_drops_exact_hits():
    d = GridDomain(singular_loci=(0.0, 0.5))
    assert d.exclusion_radius == 0.0
    assert not d.included(0.0)
    assert not d.included(0.5)
    assert d.included(1e-300)
    assert d.included(0.5 + 1e-12)


def test_multiple_loci_combine():
    d = GridDomain(
        exclusion_radius=0.25,
        singular_loci=(-0.5, 0.5),
    )
    assert not d.included(-0.4)
    assert not d.included(0.5)
    assert d.included(0.0)


def test_columns_keep_pairs_around_a_gap():
    d = GridDomain(nx=5, ny=2, exclusion_radius=0.3, singular_loci=(0.0,))
    assert d.columns() == [(0, -1.0), (1, -0.5), (3, 0.5), (4, 1.0)]
    assert GridDomain(nx=3, ny=2).columns() == [(0, -1.0), (1, 0.0), (2, 1.0)]


def test_columns_drop_a_locus_on_a_node_at_radius_zero():
    d = GridDomain(nx=3, ny=2, singular_loci=(0.0,))
    assert d.exclusion_radius == 0.0
    assert d.columns() == [(0, -1.0), (2, 1.0)]
    off_node = GridDomain(nx=3, ny=2, singular_loci=(1e-300,))
    assert off_node.columns() == [(0, -1.0), (1, 0.0), (2, 1.0)]


def test_columns_refuse_a_grid_with_every_column_excluded():
    d = GridDomain(nx=4, ny=2, exclusion_radius=2.0, singular_loci=(0.0,))
    with pytest.raises(EmptyDomainError, match="^every grid node was excluded$"):
        d.columns()


def test_columns_ask_included_once_per_column(monkeypatch):
    calls = []
    included = GridDomain.included

    def counting(self, x):
        calls.append(x)
        return included(self, x)

    monkeypatch.setattr(GridDomain, "included", counting)
    d = GridDomain(nx=6, ny=4, y_min=-2.0, exclusion_radius=0.1, singular_loci=(0.2,))
    assert len(d.columns()) == 5
    assert calls == d.xs()


# The loci of the domain, mesh and family tests above and elsewhere, with
# the columns each drops, pinned from the scans and meshes they gave.
@pytest.mark.parametrize(
    "nx, radius, loci, dropped",
    [
        (5, 0.3, (0.0,), [2]),
        (3, 0.0, (0.0,), [1]),
        (3, 0.0, (1e-300,), []),
        (6, 0.1, (0.2,), [3]),
        (5, 0.1, (0.0,), [2]),
        (7, 0.3, (1.0 / 3.0,), [4]),
        (9, 0.2, (0.1,), [4, 5]),
        (41, 0.06, (0.3, -0.5), [9, 10, 11, 25, 26, 27]),
        (31, 0.05, singular_loci(Case31Candidate(1.0, 2.0, 0.5, 0.25, 0.5, 1.0)), [11]),
    ],
)
def test_float_loci_drop_the_pinned_columns(nx, radius, loci, dropped):
    d = GridDomain(nx=nx, ny=2, exclusion_radius=radius, singular_loci=loci)
    kept = [i for i, _ in d.columns()]
    assert [i for i in range(nx) if i not in kept] == dropped
