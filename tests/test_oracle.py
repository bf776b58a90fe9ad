"""Finite-difference stencils against hand values and the jet evaluator, and
the plain evaluator under them against a recursive tree walk."""

import math
import random

import pytest
from conftest import SEED, random_expr

from isocurv import (
    DivisionByZeroError,
    EvaluationDomainError,
    Jet2,
    NumericOverflowError,
    compare,
    eval_jet,
    eval_value,
    fd_jet,
    parse,
)
from isocurv.expr import Add, Const, Cos, Div, Exp, Ln, Mul, Neg, Pow, Sin, Sqrt, Sub, Var


def _walk(e, x, y):
    """The recursive walk that eval_value replaced, kept as its reference."""
    match e:
        case Const(value=v):
            return v
        case Var(name=name):
            return x if name == "x" else y
        case Neg(arg=a):
            return -_walk(a, x, y)
        case Add(left=l, right=r):
            return _walk(l, x, y) + _walk(r, x, y)
        case Sub(left=l, right=r):
            return _walk(l, x, y) - _walk(r, x, y)
        case Mul(left=l, right=r):
            return _walk(l, x, y) * _walk(r, x, y)
        case Div(left=l, right=r):
            den = _walk(r, x, y)
            if den == 0.0:
                raise DivisionByZeroError("division by zero")
            return _walk(l, x, y) / den
        case Pow(base=b, exponent=ex):
            base = _walk(b, x, y)
            try:
                if ex == int(ex):
                    return base ** int(ex)
                if base <= 0.0:
                    raise EvaluationDomainError(
                        f"non-integer power of non-positive base {base!r}"
                    )
                return base**ex
            except ZeroDivisionError:
                raise DivisionByZeroError(
                    "zero base raised to a negative power"
                ) from None
            except OverflowError:
                raise NumericOverflowError("power overflow") from None
        case Exp(arg=a):
            try:
                return math.exp(_walk(a, x, y))
            except OverflowError:
                raise NumericOverflowError("exp overflow") from None
        case Ln(arg=a):
            v = _walk(a, x, y)
            if v <= 0.0:
                raise EvaluationDomainError(f"ln of non-positive value {v!r}")
            return math.log(v)
        case Sin(arg=a) | Cos(arg=a):
            v = _walk(a, x, y)
            fn = math.sin if isinstance(e, Sin) else math.cos
            try:
                return fn(v)
            except ValueError:
                raise NumericOverflowError(f"{fn.__name__} of non-finite argument {v!r}") from None
        case Sqrt(arg=a):
            v = _walk(a, x, y)
            if v <= 0.0:
                raise EvaluationDomainError(f"sqrt of non-positive value {v!r}")
            return math.sqrt(v)
        case _:
            raise TypeError(f"not an expression node: {e!r}")


def _walk_value(e, p):
    v = _walk(e, p[0], p[1])
    if not math.isfinite(v):
        raise NumericOverflowError("evaluation produced a non-finite value")
    return v


def _outcome(fn, e, p):
    """The value's bits, or the error's class and message."""
    try:
        return fn(e, p).hex()
    except Exception as err:  # noqa: BLE001 - every refusal is compared
        return type(err), str(err)


def test_eval_value_is_the_walk_bit_for_bit():
    rng = random.Random(SEED)
    scales = (1.0, 3.0, 700.0, 1e160)
    compared = refused = 0
    for _ in range(1500):
        e = random_expr(rng, rng.randint(1, 5))
        for _ in range(8):
            p = (rng.uniform(-1.0, 1.0) * rng.choice(scales), rng.uniform(-1.0, 1.0) * rng.choice(scales))
            want = _outcome(_walk_value, e, p)
            assert _outcome(eval_value, e, p) == want, (e, p)
            compared += 1
            refused += isinstance(want, tuple)
    assert refused > 100 and compared - refused > 5000


@pytest.mark.parametrize(
    "e, p, error, message",
    [
        (parse("ln(x)"), (0.0, 0.0), EvaluationDomainError, "ln of non-positive value 0.0"),
        (parse("ln(x)"), (-2.0, 0.0), EvaluationDomainError, "ln of non-positive value -2.0"),
        (parse("sqrt(x)"), (-1.0, 0.0), EvaluationDomainError, "sqrt of non-positive value -1.0"),
        (parse("sqrt(x)"), (0.0, 0.0), EvaluationDomainError, "sqrt of non-positive value 0.0"),
        (parse("1/(x-1)"), (1.0, 0.0), DivisionByZeroError, "division by zero"),
        # The denominator is evaluated first, so its error wins.
        (parse("ln(x)/(y-1)"), (0.0, 1.0), DivisionByZeroError, "division by zero"),
        (parse("x^-1"), (0.0, 0.0), DivisionByZeroError, "zero base raised to a negative power"),
        (parse("x^0.5"), (-4.0, 0.0), EvaluationDomainError,
         "non-integer power of non-positive base -4.0"),
        (parse("x^2.5"), (0.0, 0.0), EvaluationDomainError, "non-integer power of non-positive base 0.0"),
        (parse("exp(x)"), (1000.0, 0.0), NumericOverflowError, "exp overflow"),
        (parse("x^100"), (1e100, 0.0), NumericOverflowError, "power overflow"),
        (parse("x^2.5"), (1e200, 0.0), NumericOverflowError, "power overflow"),
        (parse("sin(x)"), (math.inf, 0.0), NumericOverflowError, "sin of non-finite argument inf"),
        (parse("cos(x*x)"), (1e160, 0.0), NumericOverflowError, "cos of non-finite argument inf"),
        # Explicit ids, so that these rows keep their names when rows
        # above them come or go.
        pytest.param(parse("x*y"), (1e200, 1e200), NumericOverflowError,
                     "evaluation produced a non-finite value",
                     id="e18-p18-NumericOverflowError-evaluation produced a non-finite value"),
        pytest.param(Add(parse("x"), "y"), (1.0, 2.0), TypeError, "not an expression node: 'y'",
                     id="e19-p19-TypeError-not an expression node: 'y'"),
        pytest.param(Div(Add(parse("x"), "y"), parse("y")), (1.0, 0.0), DivisionByZeroError,
                     "division by zero", id="e20-p20-DivisionByZeroError-division by zero"),
    ],
)
def test_refusals_are_the_walks(e, p, error, message):
    assert _outcome(_walk_value, e, p) == (error, message)
    with pytest.raises(error) as exc_info:
        eval_value(e, p)
    assert str(exc_info.value) == message


@pytest.mark.parametrize("text", ["x", "0*x+1", "sin(y)+x", "exp(x)*y", "x^2", "ln(x)", "x^0.5"])
def test_a_nan_input_ends_in_the_final_refusal(text):
    # NaN passes every domain test (NaN <= 0.0 is false) and reaches the end.
    e = parse(text)
    with pytest.raises(NumericOverflowError, match="^evaluation produced a non-finite value$"):
        eval_value(e, (math.nan, 0.5))
    assert _outcome(_walk_value, e, (math.nan, 0.5)) == _outcome(eval_value, e, (math.nan, 0.5))


def test_a_nan_to_the_power_zero_is_one():
    assert eval_value(parse("x^0"), (math.nan, 0.5)) == _walk_value(parse("x^0"), (math.nan, 0.5)) == 1.0


def test_fd_jet_on_bilinear_surface():
    # z = x y: dxy = 1, everything else at (2, 3) is known exactly.
    j = fd_jet(parse("x*y"), (2.0, 3.0))
    assert j.v == 6.0
    assert j.dx == pytest.approx(3.0, abs=1e-8)
    assert j.dy == pytest.approx(2.0, abs=1e-8)
    assert j.dxx == pytest.approx(0.0, abs=1e-8)
    assert j.dyy == pytest.approx(0.0, abs=1e-8)
    assert j.dxy == pytest.approx(1.0, abs=1e-8)


def test_fd_jet_on_quadratic():
    j = fd_jet(parse("x^2+3*y^2"), (0.5, -0.5))
    assert j.dxx == pytest.approx(2.0, abs=1e-8)
    assert j.dyy == pytest.approx(6.0, abs=1e-8)
    assert j.dxy == pytest.approx(0.0, abs=1e-8)


def test_fd_first_partials_are_tight_on_low_degree_polynomials():
    # The five-point first-derivative stencil is exact through degree four,
    # so only roundoff remains.
    j = fd_jet(parse("x^3*y-2*x*y+y^2"), (1.2, -0.7))
    assert j.dx == pytest.approx(3.0 * 1.2**2 * -0.7 - 2.0 * -0.7, abs=1e-10)
    assert j.dy == pytest.approx(1.2**3 - 2.0 * 1.2 + 2.0 * -0.7, abs=1e-10)


def test_fd_jet_matches_jet_evaluator_on_transcendental_surface():
    surface = parse("exp(x)*sin(y)+cos(x*y)")
    for p in ((0.2, 0.4), (-0.8, 1.1), (1.5, -0.3)):
        numeric = fd_jet(surface, p)
        exact = eval_jet(surface, p)
        result = compare(exact, numeric, tol_rel=1e-6)
        assert result.ok(), result.deviations


def test_fd_jet_is_built_on_plain_evaluation_only():
    # The oracle's independence is structural: its module never touches the
    # jet propagation entry point, so agreement between the two paths is
    # evidence, not circularity.
    import inspect

    from isocurv import oracle as oracle_module

    assert not hasattr(oracle_module, "eval_jet")
    assert "eval_jet(" not in inspect.getsource(oracle_module)
    j = fd_jet(parse("sqrt(x^2+1)"), (0.3, 0.0))
    assert j.v == eval_value(parse("sqrt(x^2+1)"), (0.3, 0.0))
    assert j.dx == pytest.approx(0.3 / math.sqrt(1.09), abs=1e-8)


@pytest.mark.parametrize(
    "text", ["exp(0.3*x)*sin(y)+ln(2+x^2)/sqrt(3+y^2)", "x^3+y^3", "(x-2)^-2*cos(x*y)-x^2.5"]
)
def test_fd_jet_runs_without_the_jet_layer(monkeypatch, text):
    import isocurv.expr as expr_module
    import isocurv.jet as jet_module

    p = (0.3, 0.4)
    want = fd_jet(parse(text), p)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the jet layer")

    monkeypatch.setattr(jet_module, "Tape", refuse)
    monkeypatch.setattr(expr_module, "compile_jet", refuse)
    with pytest.raises(AssertionError, match="jet layer"):
        eval_jet(parse(text), p)
    got = fd_jet(parse(text), p)  # a new tree: its closures are built here
    components = ("v", "dx", "dy", "dxx", "dxy", "dyy")
    assert [getattr(got, c).hex() for c in components] == [getattr(want, c).hex() for c in components]


def test_eval_value_keeps_a_slot_of_its_own():
    # The oracle's callers alternate eval_jet and fd_jet on one tree: a
    # shared cache slot would rebuild at every switch.
    import isocurv.expr as expr_module
    from isocurv import oracle as oracle_module

    e = parse("x*y+1")
    eval_jet(e, (1.0, 2.0))
    kernel_slot = expr_module._last
    fd_jet(e, (1.0, 2.0))
    value_slot = oracle_module._last
    eval_jet(e, (0.5, 0.5))
    fd_jet(e, (0.5, 0.5))
    assert expr_module._last is kernel_slot and oracle_module._last is value_slot
    assert value_slot[0] is e


def test_fd_order_improves_under_refinement(monkeypatch):
    from isocurv import oracle as oracle_module

    # First partials: fourth-order stencil, so shrinking h by 2 divides the
    # truncation error by about 16 while it still dominates roundoff.
    surface = parse("exp(2*x)*cos(3*y)")
    p = (0.3, 0.7)
    exact = eval_jet(surface, p)

    def dx_err(h: float) -> float:
        monkeypatch.setattr(oracle_module, "H_FIRST", h)
        return abs(fd_jet(surface, p).dx - exact.dx)

    coarse = dx_err(8e-3)
    fine = dx_err(4e-3)
    assert coarse / fine >= 8.0

    # Mixed partial: second-order cross stencil, factor about 4.
    def dxy_err(h: float) -> float:
        monkeypatch.setattr(oracle_module, "H_SECOND", h)
        return abs(fd_jet(surface, p).dxy - exact.dxy)

    assert dxy_err(4e-3) / dxy_err(2e-3) >= 3.0


def test_fd_jet_against_corpus(sample_corpus_1000):
    worst: dict[str, float] = {}
    for tree, points in sample_corpus_1000:
        for p in points:
            exact = eval_jet(tree, p)
            numeric = fd_jet(tree, p)
            result = compare(exact, numeric, tol_rel=1e-5)
            assert result.ok(), (tree, p, result.deviations)
            for name, dev in result.deviations.items():
                worst[name] = max(worst.get(name, 0.0), dev)
    # the corpus stays comfortably inside the gate, not at its edge
    assert max(worst.values()) < 1e-5


# -- comparison contract -----------------------------------------------------------


def test_compare_flags_mixed_absolute_relative():
    a = Jet2(1.0, 100.0, 0.0, 0.0, 0.0, 0.0)
    close = Jet2(1.0 + 5e-7, 100.0 + 5e-5, 0.0, 0.0, 0.0, 0.0)
    result = compare(a, close, tol_rel=1e-6)
    # both deviations sit below tol_rel * (1 + |a|)
    assert result.ok()
    assert result.flagged == ()

    off = Jet2(1.0, 100.0, 2e-6, 0.0, 0.0, 0.0)
    result = compare(a, off, tol_rel=1e-6)
    assert not result.ok()
    assert result.flagged == ("dy",)
    assert result.deviations["dy"] == 2e-6


def test_compare_boundary_is_exclusive():
    # a deviation exactly at tol_rel * (1 + |a|) is not flagged
    a = Jet2(0.0)
    b = Jet2(1e-6)
    result = compare(a, b, tol_rel=1e-6)
    assert result.ok()
    c = Jet2(1.0000001e-6)
    assert not compare(a, c, tol_rel=1e-6).ok()


def test_compare_reports_all_components():
    result = compare(Jet2(1.0), Jet2(1.0), tol_rel=1e-9)
    assert set(result.deviations) == {"v", "dx", "dy", "dxx", "dxy", "dyy"}
    assert result.tol_rel == 1e-9
