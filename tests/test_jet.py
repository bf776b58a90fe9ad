"""Jet rules through the compiled kernels: exactness on polynomials, chain
rules, commutativity, guards, bit identity with the recorded outcomes of
the tree-walking evaluator, the third partials of order-3 kernels and the
values of order-0 kernels."""

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
    IsocurvError,
    NumericOverflowError,
)
from isocurv.curvature import curvatures, euler_residual
from isocurv.expr import BinOp, Expr, Pow, _emit, compile_jet, eval_jet, lift_1d, num, parse
from isocurv.jet import Jet2, Tape
from isocurv.oracle import eval_value
from isocurv.weingarten import LWParams, euler_residual_fn, lw_residual, lw_residual_fn

COMPONENTS = ("v", "dx", "dy", "dxx", "dxy", "dyy")
THIRD = ("dxxx", "dxxy", "dxyy", "dyyy")
ORIGIN = (0.0, 0.0)

finite = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


_MONOMIALS = tuple(parse(m) for m in ("x", "y", "x^2", "x*y", "y^2"))


def taylor(v, dx, dy, dxx, dxy, dyy):
    """A quadratic whose jet at the origin has the given components."""
    e = num(v)
    for c, m in zip((dx, dy, dxx / 2.0, dxy, dyy / 2.0), _MONOMIALS):
        e = BinOp("+", e, BinOp("*", num(c), m))
    return e


def jets2(nonzero_value: bool = False):
    # The nonzero filter keeps divisor values away from 0 so quotients stay
    # well conditioned.
    value = finite.filter(lambda v: abs(v) >= 0.1) if nonzero_value else finite
    return st.builds(taylor, value, finite, finite, finite, finite, finite)


def jet_at_origin(e) -> Jet2:
    return eval_jet(e, ORIGIN)


def bits(j: Jet2, names=COMPONENTS) -> tuple[str, ...]:
    return tuple(getattr(j, name).hex() for name in names)


_CUBICS = tuple(parse(m) for m in ("x^3", "x^2*y", "x*y^2", "y^3"))


def jets3():
    """Cubics, so that every component of an order-3 jet at the origin can
    be nonzero."""
    def cubic(quadratic, coefficients):
        for c, m in zip(coefficients, _CUBICS):
            quadratic = BinOp("+", quadratic, BinOp("*", num(c), m))
        return quadratic

    return st.builds(cubic, jets2(), st.tuples(finite, finite, finite, finite))


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
    back = jet_at_origin(BinOp("*", BinOp("/", a, b), b))
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
    assert bits(jet_at_origin(BinOp("*", a, b))) == bits(jet_at_origin(BinOp("*", b, a)))


@given(jets2(), jets2())
def test_addition_commutes_bit_for_bit(a, b):
    assert bits(jet_at_origin(BinOp("+", a, b))) == bits(jet_at_origin(BinOp("+", b, a)))


@given(jets2(), jets2(), jets2())
def test_multiplication_distributes_approximately(a, b, c):
    left = jet_at_origin(BinOp("*", a, BinOp("+", b, c)))
    right = jet_at_origin(BinOp("+", BinOp("*", a, b), BinOp("*", a, c)))
    for name in COMPONENTS:
        lv = getattr(left, name)
        rv = getattr(right, name)
        assert lv == pytest.approx(rv, rel=1e-9, abs=1e-6 * (1.0 + abs(lv)))


@given(jets2(), jets2(nonzero_value=True))
def test_division_inverts_multiplication(a, b):
    q = jet_at_origin(BinOp("/", BinOp("*", a, b), b))
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


# -- folding -------------------------------------------------------------------

MIXED = "exp(0.3*x)*sin(y)+ln(2+x^2)/sqrt(3+y^2)"


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize(
    "surface, zeros",
    [
        ("exp(x)+sin(y)", ("dxy", "dxxy", "dxyy")),
        ("-(x+y)", ("dxx", "dxy", "dyy") + THIRD),
        ("x^2+0.62*y^2-3*x*y+x-1", THIRD),
    ],
)
def test_structural_zeros_are_positive(surface, zeros, order):
    """A partial that is zero by structure is folded to a +0.0 literal,
    where one jet operation at a time gave -0.0 for some of these."""
    j = eval_jet(parse(surface), (0.5, 0.25), order)
    for name in zeros:
        if order == 3 or name not in THIRD:
            value = getattr(j, name)
            assert (value, math.copysign(1.0, value)) == (0.0, 1.0), name


def test_a_tape_knows_which_seeds_each_statement_reads():
    """reads holds 0 for neither seed, 1 for x alone, 2 for y alone and 3 for
    both, guards and traps included, and each local is named t, X, Y or Z
    by the same rule; a constant reads neither."""
    t = Tape(0)
    result = _emit(t, parse("ln(x)*2+exp(y)+x*y+3"), t.seed("X"), t.seed("Y"))
    assert result == ("Z9",)
    assert t.reads == [1, 1, 0, 1, 2, 3, 3, 3, 0, 3]
    heads = [line.split("\n")[0] for line in t.lines]
    assert [h.split(" = ")[0] for h in heads if " = " in h] == ["X1", "t2", "X3", "Z5", "Z6", "Z7", "t8", "Z9"]
    assert heads[4:6] == ["try:", "Z5 = X3 + Y4_0"] and "Y4_0 = exp(Y)" in t.lines[4]


@pytest.mark.parametrize("order", [0, 2, 3])
def test_emitted_kernel_has_no_zero_or_one_operands(order):
    e = parse(MIXED)
    t = Tape(order)
    result = _emit(t, e, t.seed("x", dx="1.0"), t.seed("y", dy="1.0"))
    source = "\n".join(t.lines) + "\n" + " ".join(result)
    for operand in ("0.0 *", "* 0.0", "1.0 *", "* 1.0", "+ 0.0"):
        assert operand not in source, operand


@pytest.mark.parametrize("order", [0, 2, 3])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_zero_times_a_non_finite_value_is_refused(x, order):
    """The constant 0 is bound to a local, not folded: 0 * x stays NaN at an
    infinite or NaN x, as in eval_value, and the kernel refuses it."""
    with pytest.raises(NumericOverflowError, match="^jet evaluation produced a non-finite value$"):
        compile_jet(parse("0*x"), order)(x, 1.0)
    with pytest.raises(NumericOverflowError):
        eval_value(parse("0*x"), (x, 1.0))


# -- order 3 -------------------------------------------------------------------

_P = (0.7, 1.3)


def _third_partials(x, y):
    """Closed forms of (z_xxx, z_xxy, z_xyy, z_yyy) at (x, y), by surface."""
    e = math.exp(x * x + y * y)
    s, c = math.sin(x * y), math.cos(x * y)
    return {
        "x^3*y": (6 * y, 6 * x, 0.0, 0.0),
        "x^2*y^2": (0.0, 4 * y, 4 * x, 0.0),
        "x/y": (0.0, 0.0, 2 / y**3, -6 * x / y**4),
        "exp(x^2+y^2)": ((12 * x + 8 * x**3) * e, (2 + 4 * x * x) * 2 * y * e,
                         (2 + 4 * y * y) * 2 * x * e, (12 * y + 8 * y**3) * e),
        "sin(x*y)": (-y**3 * c, -2 * y * s - x * y * y * c, -2 * x * s - x * x * y * c, -x**3 * c),
        "cos(x*y)": (y**3 * s, -2 * y * c + x * y * y * s, -2 * x * c + x * x * y * s, x**3 * s),
        "ln(x)": (2 / x**3, 0.0, 0.0, 0.0),
        "sqrt(x)": (0.375 * x**-2.5, 0.0, 0.0, 0.0),
        "x^2.5": (2.5 * 1.5 * 0.5 * x**-0.5, 0.0, 0.0, 0.0),
        "x^-3": (-60 * x**-6, 0.0, 0.0, 0.0),
    }


@pytest.mark.parametrize("surface", sorted(_third_partials(*_P)))
def test_third_partials_match_closed_forms(surface):
    j = eval_jet(parse(surface), _P, 3)
    want = _third_partials(*_P)[surface]
    for name, w in zip(THIRD, want):
        assert getattr(j, name) == pytest.approx(w, rel=1e-13, abs=1e-13), name
    assert bits(j) == bits(eval_jet(parse(surface), _P))


@given(jets3(), jets3())
def test_order_3_multiplication_commutes_bit_for_bit(a, b):
    names = COMPONENTS + THIRD
    assert bits(eval_jet(BinOp("*", a, b), ORIGIN, 3), names) == bits(
        eval_jet(BinOp("*", b, a), ORIGIN, 3), names)


@given(jets3(), jets3())
def test_order_3_addition_commutes_bit_for_bit(a, b):
    names = COMPONENTS + THIRD
    assert bits(eval_jet(BinOp("+", a, b), ORIGIN, 3), names) == bits(
        eval_jet(BinOp("+", b, a), ORIGIN, 3), names)


@pytest.mark.parametrize(
    "surface, message",
    [
        # sqrt(v) v^2 underflows to 0 although sqrt(v) v does not.
        ("sqrt(x)", "sqrt third derivative overflows at argument 1e-200"),
        # v ** -2.5 overflows although v ** -1.5 does not.
        ("x^0.5", "power overflow at base 1e-200"),
    ],
)
def test_errors_raised_only_at_order_3_name_their_cause(surface, message):
    p = (1e-200, 0.0)
    assert eval_jet(parse(surface), p).v == math.sqrt(1e-200)
    with pytest.raises(NumericOverflowError, match=message):
        eval_jet(parse(surface), p, 3)


def _sampled_cases():
    """(tree, point) for every tenth seeded tree of the golden fixture and
    every hand-picked surface, at each of their eval_jet points."""
    for i, (kind, e, p) in enumerate(jet_golden.cases()):
        tree_index = i // 5  # each seeded tree has three eval_jet cases and two lift_1d
        if kind == "eval_jet" and (tree_index >= jet_golden.N_TREES or tree_index % 10 == 0):
            yield e, p


def _outcome(fn, *args):
    """fn(*args), or None where it raises an evaluation error."""
    try:
        return fn(*args)
    except (IsocurvError, ArithmeticError, ValueError):
        return None


def test_order_3_kernels_extend_the_order_2_kernels_bit_for_bit():
    """Wherever the order-3 kernel returns, the order-2 kernel returns its
    first six components."""
    tree = kernels = None
    checked = 0
    for e, p in _sampled_cases():
        if e is not tree:
            tree, kernels = e, (compile_jet(e), compile_jet(e, 3))
        j3 = _outcome(kernels[1], *p)
        if j3 is None:
            continue
        assert bits(kernels[0](*p)) == bits(j3), (e, p)
        checked += 1
    assert checked > 5000


def _rendered(fn, *args) -> str:
    """fn(*args) as float.hex, or the evaluation error's class and message."""
    try:
        return fn(*args).hex()
    except (IsocurvError, ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_residual_tails_give_the_residuals_of_the_jet_bit_for_bit():
    """The euler and lw residual functions, whose kernels return the
    residual in place of the jet, give the bits of euler_residual and
    lw_residual(curvatures(...)) on eval_jet's jet, or raise its error with
    the same message; the lw coefficients include zero and ones that
    overflow the residual."""
    lw_params = (LWParams(0.0, -0.75, 1e-3), LWParams(1e300, -1e300, 3.0))
    residuals = [(euler_residual_fn(), euler_residual)]
    for params in lw_params:
        residuals.append((lw_residual_fn(params),
                          lambda j, params=params: lw_residual(curvatures(j), params)))
    checked = 0
    for e, p in _sampled_cases():
        for fn, of_jet in residuals:
            expected = _rendered(lambda: of_jet(eval_jet(e, p)))
            assert _rendered(fn, e, *p) == expected, (e, p)
            checked += expected.startswith(("0x", "-0x", "inf", "-inf", "nan"))
    assert checked > 15000


# -- order 0 -------------------------------------------------------------------


def _exponents(e) -> set[float]:
    found = {e.exponent} if isinstance(e, Pow) else set()
    for field in e.__match_args__:
        child = getattr(e, field)
        if isinstance(child, Expr):
            found |= _exponents(child)
    return found


def test_value_kernels_return_the_jet_value_bit_for_bit():
    """Wherever the order-2 kernel returns, the order-0 kernel returns its
    value. Wherever eval_value returns, so does the order-0 kernel, with
    the same bits when every integer exponent is -1, 0 or 1: squaring and
    multiplying may round otherwise than float **."""
    tree = None
    checked = plain_checked = 0
    for e, p in _sampled_cases():
        if e is not tree:
            tree, value, jet = e, compile_jet(e, 0), compile_jet(e)
            plain = all(r in (-1.0, 0.0, 1.0) or not r.is_integer() for r in _exponents(e))
        v = _outcome(value, *p)
        j = _outcome(jet, *p)
        if j is not None:
            assert v is not None and v.hex() == j.v.hex(), (e, p)
            checked += 1
        w = _outcome(eval_value, e, p)
        if w is not None:
            assert v is not None, (e, p)
            if plain:
                assert v.hex() == w.hex(), (e, p)
                plain_checked += 1
    assert checked > 5000 and plain_checked > 1000


@pytest.mark.parametrize("order", [1, 4])
def test_other_orders_are_refused(order):
    with pytest.raises(ValueError, match=f"jet order must be 0, 2 or 3, not {order}"):
        Tape(order)
