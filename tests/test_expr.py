"""Parser, printer, and evaluator tests for the expression language."""

import math
import random
import re

import pytest
from conftest import SEED, random_expr
from hypothesis import given, settings
from hypothesis import strategies as st

import isocurv.expr as expr_module
from isocurv import (
    BinOp,
    Call,
    Const,
    DivisionByZeroError,
    EvaluationDomainError,
    Expr,
    IsocurvError,
    MixedVariableError,
    Neg,
    NumericOverflowError,
    ParseError,
    Pow,
    UnknownIdentifierError,
    Var,
    eval_jet,
    eval_value,
    lift_1d,
    num,
    parse,
    to_string,
    variables,
)


# -- parsing: structure --------------------------------------------------------


def test_parse_precedence_and_associativity():
    assert parse("x+y*y") == BinOp("+", Var("x"), BinOp("*", Var("y"), Var("y")))
    assert parse("x-y-1") == BinOp("-", BinOp("-", Var("x"), Var("y")), Const(1.0))
    assert parse("x/y/2") == BinOp("/", BinOp("/", Var("x"), Var("y")), Const(2.0))
    assert parse("(x+y)*2") == BinOp("*", BinOp("+", Var("x"), Var("y")), Const(2.0))


def test_parse_unary_minus():
    assert parse("-x") == Neg(Var("x"))
    assert parse("--x") == Neg(Neg(Var("x")))
    # Unary minus binds looser than ^: -x^2 is -(x^2).
    assert parse("-x^2") == Neg(Pow(Var("x"), 2.0))
    assert parse("x*-y") == BinOp("*", Var("x"), Neg(Var("y")))


def test_parse_functions():
    assert parse("sin(x)") == Call("sin", Var("x"))
    assert parse("cos(y)") == Call("cos", Var("y"))
    assert parse("exp(x+y)") == Call("exp", BinOp("+", Var("x"), Var("y")))
    assert parse("ln(sqrt(x))") == Call("ln", Call("sqrt", Var("x")))


def test_parse_number_forms():
    assert parse("2") == Const(2.0)
    assert parse(".5") == Const(0.5)
    assert parse("2.") == Const(2.0)
    assert parse("1e3") == Const(1000.0)
    assert parse("2.5E-2") == Const(0.025)


def test_exponents_fold_to_constants():
    # Right-associative fold at parse time: x^2^3 is x^(2^3).
    assert parse("x^2^3") == Pow(Var("x"), 8.0)
    assert parse("x^-2") == Pow(Var("x"), -2.0)
    assert parse("x^(2^2)^2") == Pow(Var("x"), 16.0)
    assert parse("x^0.5") == Pow(Var("x"), 0.5)
    assert parse("x^-(2)") == Pow(Var("x"), -2.0)


def test_whitespace_is_insignificant():
    assert parse(" x +\ty * 2 ") == parse("x+y*2")


# -- parsing: errors with byte offsets -----------------------------------------


def expect_parse_error(text: str, offset: int) -> ParseError:
    with pytest.raises(ParseError) as exc_info:
        parse(text)
    assert exc_info.value.offset == offset
    return exc_info.value


def test_empty_expression():
    err = expect_parse_error("", 0)
    assert "empty" in str(err)
    expect_parse_error("   ", 0)


def test_dangling_operator():
    expect_parse_error("x + * y", 4)
    expect_parse_error("x*", 2)
    expect_parse_error("(", 1)


def test_trailing_tokens():
    expect_parse_error("x y", 2)
    expect_parse_error("2x", 1)
    expect_parse_error("(x+y))", 5)


def test_unbalanced_parentheses():
    expect_parse_error("(x+y", 4)
    expect_parse_error("sin(x", 5)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc_info:
        parse("x + foo(y)")
    assert exc_info.value.offset == 4
    assert "foo" in str(exc_info.value)
    # Bare unknown variable names are rejected the same way.
    with pytest.raises(UnknownIdentifierError):
        parse("z")
    # UnknownIdentifierError is a ParseError, so one handler catches both.
    assert issubclass(UnknownIdentifierError, ParseError)


def test_function_requires_parentheses():
    expect_parse_error("sin x", 4)


def test_non_ascii_rejected():
    err = expect_parse_error("x²", 1)
    assert "ASCII" in str(err)


def test_unexpected_character():
    expect_parse_error("x $ y", 2)


def test_symbolic_exponent_rejected():
    expect_parse_error("2^x", 2)
    expect_parse_error("x^(y)", 3)


def test_exponent_fold_failures_point_at_caret():
    # pow(-1, 0.5) has no real value; the error lands on the caret.
    expect_parse_error("x^(-1)^0.5", 1)
    expect_parse_error("x^9e300^2", 1)


# The tokenizer's two classes as regular expressions, as it once matched
# them: the hand scanner must find the same tokens at the same offsets.
NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def reference_tokens(text: str) -> list:
    """The tokens of text by the regular expressions, or the ParseError
    that the tokenizer raises."""
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if ord(ch) > 127)
        raise ParseError("expression must be ASCII", bad)
    tokens, i = [], 0
    while i < len(text):
        if text[i] in " \t\r\n":
            i += 1
        elif m := NUMBER_RE.match(text, i) or IDENT_RE.match(text, i):
            tokens.append(expr_module._Token("num" if m.re is NUMBER_RE else "ident", m.group(), i))
            i = m.end()
        elif text[i] in "+-*/^()":
            tokens.append(expr_module._Token(text[i], text[i], i))
            i += 1
        else:
            raise ParseError(f"unexpected character {text[i]!r}", i)
    return tokens + [expr_module._Token("end", "", len(text))]


def tokens_or_error(tokenize, text: str):
    try:
        return tokenize(text)
    except ParseError as err:
        return str(err), err.offset


@pytest.mark.parametrize("text", ["1.", ".5", "1e", "1e+", "1.e5", "..5", "1e5e5", "1E-07x_9",
                                  "x1.2.3", "_a9 .e5", "2.5e+10*y", "1e-", "9.e", "x\u00b2"])
def test_the_tokenizer_matches_the_regular_expressions_on_edge_cases(text):
    assert tokens_or_error(expr_module._tokenize, text) == tokens_or_error(reference_tokens, text)


@settings(max_examples=1000)
@given(st.text(alphabet="0123456789.eE+-xyzsinAZ_*/^() \t\n$,", max_size=24))
def test_the_tokenizer_matches_the_regular_expressions(text):
    assert tokens_or_error(expr_module._tokenize, text) == tokens_or_error(reference_tokens, text)


# Each form nests n levels: a level is a parenthesis, a function, a unary
# minus, a binary operator or an exponent.
NESTS = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "functions": lambda n: "sin(" * n + "x" + ")" * n,
    "unary minus": lambda n: "-" * n + "x",
    "sum": lambda n: "x" + "+x" * n,
    "product": lambda n: "y" + "*y" * n,
    "exponents": lambda n: "x" + "^1" * n,
    "exponent parentheses": lambda n: "x^" + "(" * (n - 1) + "2" + ")" * (n - 1),
    # The left operand of a chain ends up under every operator of it.
    "left operand": lambda n: "(" * (n // 2) + "x" + ")" * (n // 2) + "-y" * (n - n // 2),
}


@pytest.mark.parametrize("form", NESTS.values(), ids=NESTS)
def test_nesting_is_bounded(form):
    tree = parse(form(expr_module.MAX_DEPTH))
    with pytest.raises(ParseError, match=r"^expression nests too deeply \(offset \d+\)$"):
        parse(form(expr_module.MAX_DEPTH + 1))
    # The deepest tree parse accepts goes through every recursive walk.
    copy = parse(to_string(tree))
    assert copy == tree and hash(copy) == hash(tree) and repr(copy) == repr(tree)
    for order in (0, 2, 3):
        expr_module.compile_jet(tree, order)(0.5, 0.25)
    assert math.isfinite(eval_value(tree, (0.5, 0.25)))


def test_nesting_error_points_at_the_first_level_too_many():
    n = expr_module.MAX_DEPTH
    expect_parse_error("(" * (n + 1) + "x" + ")" * (n + 1), n)
    expect_parse_error("x" + "+x" * (n + 1), 2 * n + 1)
    expect_parse_error("-" * 1000 + "x", n)


# -- nodes ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Var("z"), "name must be 'x' or 'y'"),
        (lambda: Pow(Var("x"), math.inf), "exponent must be finite"),
        (lambda: Pow(Var("x"), -math.inf), "exponent must be finite"),
        (lambda: Pow(Var("x"), math.nan), "exponent must be finite"),
        (lambda: Const(math.nan), "value must not be NaN"),
        (lambda: BinOp("%", Var("x"), Var("y")), "op must be one of '+', '-', '*', '/'"),
        (lambda: Call("log", Var("x")), "name must be one of 'exp', 'ln', 'sin', 'cos', 'sqrt'"),
        (lambda: Call("Sin", Var("x")), "name must be one of 'exp', 'ln', 'sin', 'cos', 'sqrt'"),
    ],
    ids=["var-z", "pow-inf", "pow-minus-inf", "pow-nan", "const-nan", "binop-percent", "call-log",
         "call-capitalized"],
)
def test_nodes_hold_only_what_an_expression_can_spell(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


# -- printing ------------------------------------------------------------------


@pytest.mark.parametrize("walk", [to_string, variables, expr_module.compile_jet])
def test_walks_refuse_what_is_not_a_node(walk):
    with pytest.raises(TypeError, match="not an expression node: 'y'"):
        walk(BinOp("+", Var("x"), "y"))


def test_minimal_parentheses():
    assert to_string(parse("x+y*y")) == "x+y*y"
    assert to_string(parse("(x+y)*2")) == "(x+y)*2"
    assert to_string(parse("x-(y-1)")) == "x-(y-1)"
    assert to_string(parse("x/(y*y)")) == "x/(y*y)"
    assert to_string(parse("-(x+y)")) == "-(x+y)"
    assert to_string(parse("-x^2")) == "-x^2"
    assert to_string(parse("(-x)^2")) == "(-x)^2"
    assert to_string(parse("(x+1)^2")) == "(x+1)^2"


def test_float_formatting():
    assert to_string(Const(3.0)) == "3"
    assert to_string(Const(2.5)) == "2.5"
    assert to_string(num(-1.5)) == "-1.5"
    assert to_string(Pow(Var("x"), 8.0)) == "x^8"
    assert to_string(Pow(Var("x"), -2.0)) == "x^-2"


def test_num_normal_form():
    assert num(3.0) == Const(3.0)
    assert num(-3.0) == Neg(Const(3.0))
    assert num(0.0) == Const(0.0)


def test_round_trip_examples():
    for text in (
        "x*y",
        "exp(x)*sin(y)",
        "0.5*(x^2+y^2)",
        "(2*x+1)*(3*y+4)",
        "-(1/(1*x)+0.5)*(1*y^2)",
        "sqrt(x+2)/ln(y+3)",
        "x^0.5*cos(y)-1e+20",
    ):
        tree = parse(text)
        assert parse(to_string(tree)) == tree


@pytest.mark.parametrize(
    "text", ["1e999*x", "(1e999-1e999)*x", "x+1e999^0", "-1e999*x"]
)
def test_an_infinite_constant_prints_as_1e999(text):
    tree = parse(text)
    assert to_string(tree) == text
    assert parse(to_string(tree)) == tree


def test_a_negative_infinite_constant_prints_as_minus_1e999():
    assert to_string(BinOp("*", Const(-math.inf), Var("x"))) == "-1e999*x"


# Every float that a node accepts: a constant may be infinite (1e999), an
# exponent may not.
_const_values = st.floats(allow_nan=False)
_exponent_values = st.floats(allow_nan=False, allow_infinity=False)


def _normal_form_trees():
    leaves = st.one_of(
        st.builds(num, _const_values),
        st.sampled_from([Var("x"), Var("y")]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(BinOp, st.sampled_from("+-*/"), children, children),
            st.builds(Pow, children, _exponent_values),
            st.builds(Call, st.sampled_from(["exp", "ln", "sin", "cos", "sqrt"]), children),
        )

    return st.recursive(leaves, extend, max_leaves=25)


@settings(max_examples=200)
@given(_normal_form_trees())
def test_round_trip_is_structural_identity(tree):
    assert parse(to_string(tree)) == tree


def test_corpus_round_trips_and_evaluates_identically(expr_corpus_100):
    for tree, points in expr_corpus_100:
        reparsed = parse(to_string(tree))
        assert reparsed == tree
        for p in points:
            assert eval_value(reparsed, p) == eval_value(tree, p)


# -- evaluation ----------------------------------------------------------------


def test_eval_value_examples():
    assert eval_value(parse("x^2*y+3*x*y"), (2.0, 5.0)) == 50.0
    assert eval_value(parse("exp(0*x)+y"), (9.0, 1.5)) == 2.5
    assert eval_value(parse("sqrt(x)"), (16.0, 0.0)) == 4.0
    assert eval_value(parse("ln(exp(x))"), (3.0, 0.0)) == pytest.approx(3.0)
    v = eval_value(parse("sin(x)^2+cos(x)^2"), (0.7, 0.0))
    assert v == pytest.approx(1.0, abs=1e-15)


def test_eval_value_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        eval_value(parse("1/(x-1)"), (1.0, 0.0))


def test_eval_value_domain_errors():
    with pytest.raises(EvaluationDomainError):
        eval_value(parse("ln(x)"), (0.0, 0.0))
    with pytest.raises(EvaluationDomainError):
        eval_value(parse("sqrt(x)"), (-1.0, 0.0))
    with pytest.raises(EvaluationDomainError):
        eval_value(parse("x^0.5"), (-4.0, 0.0))


def test_eval_value_overflow():
    with pytest.raises(NumericOverflowError):
        eval_value(parse("exp(x)"), (1000.0, 0.0))
    with pytest.raises(NumericOverflowError):
        eval_value(parse("x^100"), (1e100, 0.0))


def test_pow_semantics():
    # Integer exponents accept negative bases; fractional ones do not.
    assert eval_value(parse("(0-2)^3"), (0.0, 0.0)) == -8.0
    assert eval_value(parse("x^0"), (0.0, 0.0)) == 1.0
    with pytest.raises(DivisionByZeroError):
        eval_value(parse("x^-1"), (0.0, 0.0))
    j = eval_jet(parse("(0-2)^3"), (0.0, 0.0))
    assert j.v == -8.0
    with pytest.raises(EvaluationDomainError):
        eval_jet(parse("x^0.5"), (-4.0, 0.0))


def test_eval_jet_matches_hand_derivatives():
    j = eval_jet(parse("x^2*y+3*x*y"), (2.0, 5.0))
    assert j.v == 50.0
    assert j.dx == 35.0
    assert j.dy == 10.0
    assert j.dxx == 10.0
    assert j.dxy == 7.0
    assert j.dyy == 0.0


def test_eval_jet_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        eval_jet(parse("y/(x-1)"), (1.0, 2.0))


def test_eval_jet_non_finite_rejected():
    with pytest.raises(NumericOverflowError):
        eval_jet(parse("exp(x)"), (1000.0, 0.0))


def test_kernel_cache_is_bounded_and_keyed_by_identity():
    e = parse("x*y")
    assert expr_module._kernel(e) is expr_module._kernel(e)
    # An equal tree is another object: it gets its own kernel, with no
    # hashing of the tree.
    other = parse("x*y")
    assert expr_module._kernel(other) is not expr_module._kernel(e)
    # One slot: the tree evaluated last, held so that its id stays its own.
    for i in range(40):
        eval_jet(parse(f"x*{i}+y"), (1.0, 2.0))
    last = parse("x+y")
    kernel = expr_module._kernel(last)
    assert expr_module._last == (last, 2, kernel)
    # The slot is keyed on the order too: a change of order recompiles.
    third = expr_module._kernel(last, 3)
    assert third is not kernel and expr_module._last == (last, 3, third)
    assert expr_module._kernel(last, 2) is not kernel
    with pytest.raises(ValueError, match="jet order must be 0, 2 or 3"):
        expr_module.compile_jet(last, 4)


def test_variables_collector():
    assert variables(parse("x*y+1")) == frozenset({"x", "y"})
    assert variables(parse("sin(x)^2")) == frozenset({"x"})
    assert variables(parse("3.5")) == frozenset()


# -- univariate lift -----------------------------------------------------------


def test_lift_1d_in_x():
    j = lift_1d(parse("x^2+1"), 2.0)
    assert (j.v, j.d, j.dd) == (5.0, 4.0, 2.0)


def test_lift_1d_in_y():
    j = lift_1d(parse("2*y^2"), 3.0)
    assert (j.v, j.d, j.dd) == (18.0, 12.0, 4.0)


def test_lift_1d_constant():
    j = lift_1d(parse("7"), 0.3)
    assert (j.v, j.d, j.dd) == (7.0, 0.0, 0.0)


def test_lift_1d_rejects_mixed_variables():
    with pytest.raises(MixedVariableError):
        lift_1d(parse("x*y"), 1.0)


def _single_variable(e, name):
    """Copy of e with every variable renamed to name."""
    if isinstance(e, Var):
        return Var(name)
    return type(e)(
        *(
            _single_variable(getattr(e, f), name)
            if isinstance(getattr(e, f), Expr)
            else getattr(e, f)
            for f in e.__match_args__
        )
    )


def _lifted(e, t):
    j = lift_1d(e, t)
    return j.v, j.d, j.dd


def _x_slice(e, t):
    j = eval_jet(e, (t, 0.0))
    return j.v, j.dx, j.dxx


def _y_slice(e, t):
    j = eval_jet(e, (0.0, t))
    return j.v, j.dy, j.dyy


def _bits_or_error(fn, e, t):
    try:
        return tuple(c.hex() for c in fn(e, t))
    except IsocurvError as exc:
        return type(exc)


def test_lift_1d_matches_2d_jet_bitwise():
    # lift_1d of a single-variable tree must reproduce the matching slice
    # of eval_jet bit for bit, or fail with the same error class. Large
    # arguments are drawn too, so the overflow paths are compared as well.
    rng = random.Random(SEED + 2)
    errors = 0
    for _ in range(1500):
        tree = random_expr(rng, rng.randint(1, 4))
        t = rng.uniform(-1.0, 1.0) * rng.choice((1.0, 1.0, 30.0, 900.0, 1e160))
        for name, expected in (("x", _x_slice), ("y", _y_slice)):
            e = _single_variable(tree, name)
            want = _bits_or_error(expected, e, t)
            assert _bits_or_error(_lifted, e, t) == want, to_string(e)
        errors += isinstance(want, type)
    assert 0 < errors < 1500


def test_lift_1d_infinite_rejected():
    with pytest.raises(NumericOverflowError):
        lift_1d(parse("exp(x)"), 1000.0)
