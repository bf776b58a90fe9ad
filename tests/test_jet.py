"""Jet arithmetic: exactness on polynomials, chain rules, commutativity."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isocurv import jet
from isocurv.errors import (
    DivisionByZeroError,
    EvaluationDomainError,
    NumericOverflowError,
)
from isocurv.jet import Jet2, seed_x, seed_y

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def jets2(nonzero_value: bool = False):
    # The nonzero filter keeps divisor values away from 0 so quotients stay
    # well conditioned.
    value = finite.filter(lambda v: abs(v) >= 0.1) if nonzero_value else finite
    return st.builds(Jet2, value, finite, finite, finite, finite, finite)


def test_seeds():
    assert seed_x(2.0) == Jet2(2.0, dx=1.0)
    assert seed_y(-1.5) == Jet2(-1.5, dy=1.0)


def test_polynomial_jet_is_exact():
    # z = x^2 y + 3 x y at (2, 5)
    x = seed_x(2.0)
    y = seed_y(5.0)
    z = x * x * y + Jet2(3.0) * x * y
    assert z.v == 50.0
    assert z.dx == 35.0  # 2xy + 3y
    assert z.dy == 10.0  # x^2 + 3x
    assert z.dxx == 10.0  # 2y
    assert z.dxy == 7.0  # 2x + 3
    assert z.dyy == 0.0


def test_division_matches_product_rule():
    a = Jet2(3.0, 1.0, 2.0, 0.5, -1.0, 4.0)
    b = Jet2(2.0, -1.0, 0.5, 1.0, 0.25, -0.5)
    q = a / b
    back = q * b
    for name in ("v", "dx", "dy", "dxx", "dxy", "dyy"):
        assert getattr(back, name) == pytest.approx(getattr(a, name), abs=1e-12)


def test_division_by_zero_value():
    with pytest.raises(DivisionByZeroError):
        Jet2(1.0) / Jet2(0.0, 1.0)


def test_exp_jet():
    j = jet.exp(seed_x(0.5))
    e = math.exp(0.5)
    assert j.v == e and j.dx == e and j.dxx == e and j.dy == 0.0


def test_ln_sqrt_domain():
    with pytest.raises(EvaluationDomainError):
        jet.ln(Jet2(0.0))
    with pytest.raises(EvaluationDomainError):
        jet.sqrt(Jet2(-1.0))
    j = jet.ln(seed_x(2.0))
    assert j.v == math.log(2.0)
    assert j.dx == 0.5
    assert j.dxx == -0.25


def test_trig_chain():
    t = 0.7
    s = jet.sin(seed_x(t))
    c = jet.cos(seed_x(t))
    assert s.v == math.sin(t) and s.dx == math.cos(t) and s.dxx == -math.sin(t)
    assert c.v == math.cos(t) and c.dx == -math.sin(t) and c.dxx == -math.cos(t)
    # sin^2 + cos^2 = 1 with zero derivatives
    unit = s * s + c * c
    assert unit.v == pytest.approx(1.0, abs=1e-15)
    assert unit.dx == pytest.approx(0.0, abs=1e-15)
    assert unit.dxx == pytest.approx(0.0, abs=1e-15)


def test_sqrt_jet_against_closed_form():
    j = jet.sqrt(seed_x(4.0))
    assert j.v == 2.0
    assert j.dx == 0.25
    assert j.dxx == pytest.approx(-1.0 / 32.0, rel=1e-15)


def test_pow_int_matches_repeated_multiplication():
    x = seed_x(1.5)
    assert jet.pow_int(x, 3) == x * x * x
    assert jet.pow_int(x, 1) == x
    assert jet.pow_int(x, 0) == Jet2(1.0)


def test_pow_int_negative():
    x = seed_x(2.0)
    inv = jet.pow_int(x, -2)
    assert inv.v == 0.25
    assert inv.dx == pytest.approx(-2.0 / 8.0)  # -2 x^-3
    assert inv.dxx == pytest.approx(6.0 / 16.0)  # 6 x^-4
    with pytest.raises(DivisionByZeroError):
        jet.pow_int(Jet2(0.0, 1.0), -1)


def test_pow_real():
    x = seed_x(4.0)
    j = jet.pow_real(x, 1.5)
    assert j.v == 8.0
    assert j.dx == pytest.approx(1.5 * 2.0)
    assert j.dxx == pytest.approx(0.75 / 2.0)
    with pytest.raises(EvaluationDomainError):
        jet.pow_real(Jet2(-1.0), 0.5)


def test_exp_overflow():
    with pytest.raises(NumericOverflowError):
        jet.exp(Jet2(1e4))


@given(jets2(), jets2())
def test_multiplication_commutes_bit_for_bit(a, b):
    assert a * b == b * a


@given(jets2(), jets2())
def test_addition_commutes_bit_for_bit(a, b):
    assert a + b == b + a


@given(jets2(), jets2(), jets2())
def test_multiplication_distributes_approximately(a, b, c):
    left = a * (b + c)
    right = a * b + a * c
    for name in ("v", "dx", "dy", "dxx", "dxy", "dyy"):
        lv = getattr(left, name)
        rv = getattr(right, name)
        assert lv == pytest.approx(rv, rel=1e-9, abs=1e-6 * (1.0 + abs(lv)))


@given(jets2(), jets2(nonzero_value=True))
def test_division_inverts_multiplication(a, b):
    q = (a * b) / b
    for name in ("v", "dx", "dy", "dxx", "dxy", "dyy"):
        qv = getattr(q, name)
        av = getattr(a, name)
        assert qv == pytest.approx(av, rel=1e-6, abs=1e-6 * (1.0 + abs(av)))
