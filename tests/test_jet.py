"""Jet rules through the compiled kernels: exactness on polynomials, chain
rules, commutativity, guards, and bit identity with the recorded outcomes
of the tree-walking evaluator."""

from __future__ import annotations

import json
import math

import jet_golden
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isocurv.errors import (
    DivisionByZeroError,
    EvaluationDomainError,
    NumericOverflowError,
)
from isocurv.expr import Add, Div, Mul, eval_jet, eval_value, lift_1d, num, parse
from isocurv.jet import Jet2

COMPONENTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")
ORIGIN = (0.0, 0.0)

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


_MONOMIALS = tuple(parse(m) for m in ("x", "y", "x^2", "x*y", "y^2"))


def taylor(v, dx, dy, dxx, dxy, dyy):
    """A quadratic whose jet at the origin has the given components."""
    e = num(v)
    for c, m in zip((dx, dy, dxx / 2.0, dxy, dyy / 2.0), _MONOMIALS):
        e = Add(e, Mul(num(c), m))
    return e


def jets2(nonzero_value: bool = False):
    # The nonzero filter keeps divisor values away from 0 so quotients stay
    # well conditioned.
    value = finite.filter(lambda v: abs(v) >= 0.1) if nonzero_value else finite
    return st.builds(taylor, value, finite, finite, finite, finite, finite)


def jet_at_origin(e) -> Jet2:
    return eval_jet(e, ORIGIN)


def bits(j: Jet2) -> tuple[str, ...]:
    return tuple(getattr(j, name).hex() for name in COMPONENTS)


def test_seeds():
    assert eval_jet(parse("x"), (2.0, -1.5)) == Jet2(2.0, dx=1.0)
    assert eval_jet(parse("y"), (2.0, -1.5)) == Jet2(-1.5, dy=1.0)


def test_polynomial_jet_is_exact():
    # z = x^2 y + 3 x y at (2, 5)
    z = eval_jet(parse("x*x*y+3*x*y"), (2.0, 5.0))
    assert z.v == 50.0
    assert z.dx == 35.0  # 2xy + 3y
    assert z.dy == 10.0  # x^2 + 3x
    assert z.dxx == 10.0  # 2y
    assert z.dxy == 7.0  # 2x + 3
    assert z.dyy == 0.0


def test_taylor_helper_reproduces_components():
    j = jet_at_origin(taylor(3.0, 1.0, -2.0, 0.5, -1.0, 4.0))
    assert j == Jet2(3.0, 1.0, -2.0, 0.5, -1.0, 4.0)


def test_division_matches_product_rule():
    a = taylor(3.0, 1.0, 2.0, 0.5, -1.0, 4.0)
    b = taylor(2.0, -1.0, 0.5, 1.0, 0.25, -0.5)
    back = jet_at_origin(Mul(Div(a, b), b))
    want = jet_at_origin(a)
    for name in COMPONENTS:
        assert getattr(back, name) == pytest.approx(getattr(want, name), abs=1e-12)


def test_division_by_zero_value():
    with pytest.raises(DivisionByZeroError, match="division by a quantity with zero value"):
        eval_jet(parse("1/x"), ORIGIN)


def test_exp_jet():
    j = eval_jet(parse("exp(x)"), (0.5, 0.0))
    e = math.exp(0.5)
    assert j.v == e and j.dx == e and j.dxx == e and j.dy == 0.0


def test_ln_sqrt_domain():
    with pytest.raises(EvaluationDomainError, match="ln of non-positive value 0.0"):
        eval_jet(parse("ln(x)"), ORIGIN)
    with pytest.raises(EvaluationDomainError, match=r"sqrt of non-positive value -1.0"):
        eval_jet(parse("sqrt(x)"), (-1.0, 0.0))
    j = eval_jet(parse("ln(x)"), (2.0, 0.0))
    assert j.v == math.log(2.0)
    assert j.dx == 0.5
    assert j.dxx == -0.25


def test_trig_chain():
    t = 0.7
    s = eval_jet(parse("sin(x)"), (t, 0.0))
    c = eval_jet(parse("cos(x)"), (t, 0.0))
    assert s.v == math.sin(t) and s.dx == math.cos(t) and s.dxx == -math.sin(t)
    assert c.v == math.cos(t) and c.dx == -math.sin(t) and c.dxx == -math.cos(t)
    # sin^2 + cos^2 = 1 with zero derivatives
    unit = eval_jet(parse("sin(x)*sin(x)+cos(x)*cos(x)"), (t, 0.0))
    assert unit.v == pytest.approx(1.0, abs=1e-15)
    assert unit.dx == pytest.approx(0.0, abs=1e-15)
    assert unit.dxx == pytest.approx(0.0, abs=1e-15)


def test_sqrt_jet_against_closed_form():
    j = eval_jet(parse("sqrt(x)"), (4.0, 0.0))
    assert j.v == 2.0
    assert j.dx == 0.25
    assert j.dxx == pytest.approx(-1.0 / 32.0, rel=1e-15)


def test_pow_int_matches_repeated_multiplication():
    p = (1.5, -0.25)
    assert bits(eval_jet(parse("x^3"), p)) == bits(eval_jet(parse("x*x*x"), p))
    assert bits(eval_jet(parse("x^1"), p)) == bits(eval_jet(parse("x"), p))
    assert bits(eval_jet(parse("x^0"), p)) == bits(Jet2(1.0))
    # Square-and-multiply: x^5 = x * (x^2)^2, a product of the same jets.
    base = "(sin(x)+x*y)"
    q = f"({base}*{base})"
    assert bits(eval_jet(parse(f"{base}^5"), p)) == bits(eval_jet(parse(f"{base}*({q}*{q})"), p))


def test_pow_int_negative():
    inv = eval_jet(parse("x^-2"), (2.0, 0.0))
    assert inv.v == 0.25
    assert inv.dx == pytest.approx(-2.0 / 8.0)  # -2 x^-3
    assert inv.dxx == pytest.approx(6.0 / 16.0)  # 6 x^-4
    with pytest.raises(DivisionByZeroError, match="zero base raised to a negative power"):
        eval_jet(parse("x^-1"), ORIGIN)
    # A non-zero base whose square underflows fails at the division.
    with pytest.raises(DivisionByZeroError, match="division by a quantity with zero value"):
        eval_jet(parse("x^-2"), (1e-200, 0.0))


def test_pow_real():
    j = eval_jet(parse("x^1.5"), (4.0, 0.0))
    assert j.v == 8.0
    assert j.dx == pytest.approx(1.5 * 2.0)
    assert j.dxx == pytest.approx(0.75 / 2.0)
    with pytest.raises(EvaluationDomainError, match="non-integer power of non-positive base -1.0"):
        eval_jet(parse("x^0.5"), (-1.0, 0.0))
    with pytest.raises(NumericOverflowError, match="power overflow at base"):
        eval_jet(parse("x^1.5"), (1e300, 0.0))


def test_exp_overflow():
    with pytest.raises(NumericOverflowError, match="exp overflow at argument 10000.0"):
        eval_jet(parse("exp(x)"), (1e4, 0.0))


@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_trig_of_an_infinite_argument_names_it(fn):
    # x*x overflows to inf, which math.sin and math.cos refuse.
    e = parse(f"{fn}(x*x)")
    message = f"{fn} of non-finite argument inf"
    with pytest.raises(NumericOverflowError, match=message):
        eval_jet(e, (1e160, 0.0))
    with pytest.raises(NumericOverflowError, match=message):
        lift_1d(e, 1e160)
    with pytest.raises(NumericOverflowError, match=message):
        eval_value(e, (1e160, 0.0))


def test_sqrt_of_a_tiny_argument_overflows_cleanly():
    # sqrt(v) * v underflows to 0, so -1/(4 v^1.5) would divide by zero.
    with pytest.raises(NumericOverflowError, match="sqrt second derivative overflows at argument 5e-324"):
        lift_1d(parse("sqrt(x)"), 5e-324)
    with pytest.raises(NumericOverflowError, match="sqrt second derivative overflows at argument 1e-220"):
        eval_jet(parse("sqrt(x)"), (1e-220, 0.0))
    # Just above the underflow, the result is finite or refused as before.
    j = eval_jet(parse("sqrt(x)"), (1e-200, 0.0))
    assert j.v == math.sqrt(1e-200)


@given(jets2(), jets2())
def test_multiplication_commutes_bit_for_bit(a, b):
    assert bits(jet_at_origin(Mul(a, b))) == bits(jet_at_origin(Mul(b, a)))


@given(jets2(), jets2())
def test_addition_commutes_bit_for_bit(a, b):
    assert bits(jet_at_origin(Add(a, b))) == bits(jet_at_origin(Add(b, a)))


@given(jets2(), jets2(), jets2())
def test_multiplication_distributes_approximately(a, b, c):
    left = jet_at_origin(Mul(a, Add(b, c)))
    right = jet_at_origin(Add(Mul(a, b), Mul(a, c)))
    for name in COMPONENTS:
        lv = getattr(left, name)
        rv = getattr(right, name)
        assert lv == pytest.approx(rv, rel=1e-9, abs=1e-6 * (1.0 + abs(lv)))


@given(jets2(), jets2(nonzero_value=True))
def test_division_inverts_multiplication(a, b):
    q = jet_at_origin(Div(Mul(a, b), b))
    want = jet_at_origin(a)
    for name in COMPONENTS:
        qv = getattr(q, name)
        av = getattr(want, name)
        assert qv == pytest.approx(av, rel=1e-6, abs=1e-6 * (1.0 + abs(av)))


def test_outcomes_match_the_tree_walk_bit_for_bit():
    with open(jet_golden.FIXTURE, encoding="utf-8") as fh:
        golden = json.load(fh)
    # The digests hold libm's roundings; on another libm they cannot match.
    assert jet_golden.libm_digest() == golden["libm"], "libm differs from the fixture host"
    blocks, n, errors = jet_golden.digests()
    assert (n, errors, len(blocks)) == (golden["cases"], golden["errors"], len(golden["digests"]))
    changed = [i for i, (got, want) in enumerate(zip(blocks, golden["digests"])) if got != want]
    assert not changed, f"blocks of {golden['block']} cases that changed: {changed}"

