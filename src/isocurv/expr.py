"""Closed-form surface expressions: AST, parser, printer, evaluators.

The grammar is a small ASCII calculator language over the two variables
x and y. There is no implicit multiplication.

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)?
    atom     := NUMBER | 'x' | 'y' | FUNC '(' expr ')' | '(' expr ')'
    exponent := '-'* (NUMBER | '(' exponent ')') ('^' exponent)?

FUNC is one of exp, ln, sin, cos, sqrt. Exponents must reduce to a numeric
constant at parse time (they are folded right-associatively), so a Pow node
always stores a plain float; x^2^3 means x^8 and x^y is rejected.

to_string emits minimal parentheses while preserving structure exactly:
parse(to_string(e)) reproduces e node for node whenever e is in parse
normal form, i.e. every negative constant is spelled Neg(Const(+c)). The
num() helper builds constants in that form.

Two independent evaluators are provided. eval_jet propagates second-order
jets; eval_value is a plain float recursion kept free of any jet code so
finite-difference checks built on it are a genuinely separate path.
lift_1d reuses the jet walk for single-variable factors, seeding x and y
alike and keeping the x components.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

from . import jet as jetmath
from .errors import (
    DivisionByZeroError,
    EvaluationDomainError,
    MixedVariableError,
    NumericOverflowError,
    ParseError,
    UnknownIdentifierError,
)
from .jet import Jet1, Jet2


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True, slots=True)
class Exp:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Ln:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Sin:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Cos:
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Sqrt:
    arg: "Expr"


Expr = Union[Const, Var, Neg, Add, Sub, Mul, Div, Pow, Exp, Ln, Sin, Cos, Sqrt]

_FUNCS = {"exp": Exp, "ln": Ln, "sin": Sin, "cos": Cos, "sqrt": Sqrt}


def num(value: float) -> Expr:
    """Constant in parse normal form: negatives become Neg(Const(+v))."""
    v = float(value)
    if v < 0.0:
        return Neg(Const(-v))
    return Const(v)


# -- tokenizer ---------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num", "ident", one of "+-*/^()", or "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if ord(ch) > 127)
        raise ParseError("expression must be ASCII", bad)
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.offset)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op.kind == "*" else Div(node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek().kind == "^":
            caret = self.advance()
            exponent = self.parse_exponent(caret.offset)
            return Pow(base, exponent)
        return base

    def parse_exponent(self, caret_offset: int) -> float:
        # Exponents fold to a constant at parse time; anything symbolic in
        # exponent position is a parse error, reported at the caret.
        negate = False
        while self.peek().kind == "-":
            self.advance()
            negate = not negate
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            value = self.parse_exponent(caret_offset)
            self.expect(")", "')' closing the exponent")
        elif tok.kind == "num":
            self.advance()
            value = float(tok.text)
        else:
            raise ParseError("exponent must be a numeric constant", tok.offset)
        if self.peek().kind == "^":
            self.advance()
            rhs = self.parse_exponent(caret_offset)
            try:
                value = math.pow(value, rhs)
            except (ValueError, OverflowError):
                raise ParseError("exponent does not fold to a real constant",
                                 caret_offset) from None
        return -value if negate else value

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if tok.text in ("x", "y"):
                return Var(tok.text)
            ctor = _FUNCS.get(tok.text)
            if ctor is None:
                raise UnknownIdentifierError(
                    f"unknown identifier {tok.text!r}", tok.offset
                )
            self.expect("(", f"'(' after {tok.text}")
            arg = self.parse_expr()
            self.expect(")", "')'")
            return ctor(arg)
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")", "')'")
            return node
        raise ParseError("expected a number, variable, or '('", tok.offset)


def parse(text: str) -> Expr:
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.offset)
    return node


# -- printer -----------------------------------------------------------------

# Precedence levels; a subtree is parenthesized when its level is below the
# minimum its context demands.
_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _prec(e: Expr) -> int:
    match e:
        case Add() | Sub():
            return _PREC_ADD
        case Mul() | Div():
            return _PREC_MUL
        case Neg():
            return _PREC_NEG
        case Pow():
            return _PREC_POW
        case _:
            return _PREC_ATOM


def _print(e: Expr, min_prec: int) -> str:
    match e:
        case Const(value=v):
            body = _fmt_float(v)
        case Var(name=name):
            body = name
        case Neg(arg=a):
            body = "-" + _print(a, _PREC_NEG)
        case Add(left=l, right=r):
            body = _print(l, _PREC_ADD) + "+" + _print(r, _PREC_ADD + 1)
        case Sub(left=l, right=r):
            body = _print(l, _PREC_ADD) + "-" + _print(r, _PREC_ADD + 1)
        case Mul(left=l, right=r):
            body = _print(l, _PREC_MUL) + "*" + _print(r, _PREC_MUL + 1)
        case Div(left=l, right=r):
            body = _print(l, _PREC_MUL) + "/" + _print(r, _PREC_MUL + 1)
        case Pow(base=b, exponent=ex):
            body = _print(b, _PREC_ATOM) + "^" + _fmt_float(ex)
        case Exp(arg=a):
            body = f"exp({_print(a, 0)})"
        case Ln(arg=a):
            body = f"ln({_print(a, 0)})"
        case Sin(arg=a):
            body = f"sin({_print(a, 0)})"
        case Cos(arg=a):
            body = f"cos({_print(a, 0)})"
        case Sqrt(arg=a):
            body = f"sqrt({_print(a, 0)})"
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if _prec(e) < min_prec:
        return f"({body})"
    return body


def to_string(e: Expr) -> str:
    return _print(e, 0)


# -- evaluation --------------------------------------------------------------


def _eval_plain(e: Expr, x: float, y: float) -> float:
    match e:
        case Const(value=v):
            return v
        case Var(name=name):
            return x if name == "x" else y
        case Neg(arg=a):
            return -_eval_plain(a, x, y)
        case Add(left=l, right=r):
            return _eval_plain(l, x, y) + _eval_plain(r, x, y)
        case Sub(left=l, right=r):
            return _eval_plain(l, x, y) - _eval_plain(r, x, y)
        case Mul(left=l, right=r):
            return _eval_plain(l, x, y) * _eval_plain(r, x, y)
        case Div(left=l, right=r):
            den = _eval_plain(r, x, y)
            if den == 0.0:
                raise DivisionByZeroError("division by zero")
            return _eval_plain(l, x, y) / den
        case Pow(base=b, exponent=ex):
            base = _eval_plain(b, x, y)
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
                return math.exp(_eval_plain(a, x, y))
            except OverflowError:
                raise NumericOverflowError("exp overflow") from None
        case Ln(arg=a):
            v = _eval_plain(a, x, y)
            if v <= 0.0:
                raise EvaluationDomainError(f"ln of non-positive value {v!r}")
            return math.log(v)
        case Sin(arg=a):
            return math.sin(_eval_plain(a, x, y))
        case Cos(arg=a):
            return math.cos(_eval_plain(a, x, y))
        case Sqrt(arg=a):
            v = _eval_plain(a, x, y)
            if v <= 0.0:
                raise EvaluationDomainError(f"sqrt of non-positive value {v!r}")
            return math.sqrt(v)
        case _:
            raise TypeError(f"not an expression node: {e!r}")


def eval_value(e: Expr, p: tuple[float, float]) -> float:
    """Plain float evaluation. Shares no code with the jet layer."""
    v = _eval_plain(e, p[0], p[1])
    if not math.isfinite(v):
        raise NumericOverflowError("evaluation produced a non-finite value")
    return v


def _eval_jet2(e: Expr, jx: Jet2, jy: Jet2) -> Jet2:
    match e:
        case Const(value=v):
            return Jet2(v)
        case Var(name=name):
            return jx if name == "x" else jy
        case Neg(arg=a):
            return -_eval_jet2(a, jx, jy)
        case Add(left=l, right=r):
            return _eval_jet2(l, jx, jy) + _eval_jet2(r, jx, jy)
        case Sub(left=l, right=r):
            return _eval_jet2(l, jx, jy) - _eval_jet2(r, jx, jy)
        case Mul(left=l, right=r):
            return _eval_jet2(l, jx, jy) * _eval_jet2(r, jx, jy)
        case Div(left=l, right=r):
            return _eval_jet2(l, jx, jy) / _eval_jet2(r, jx, jy)
        case Pow(base=b, exponent=ex):
            bj = _eval_jet2(b, jx, jy)
            if ex == int(ex):
                return jetmath.pow_int(bj, int(ex))
            return jetmath.pow_real(bj, ex)
        case Exp(arg=a):
            return jetmath.exp(_eval_jet2(a, jx, jy))
        case Ln(arg=a):
            return jetmath.ln(_eval_jet2(a, jx, jy))
        case Sin(arg=a):
            return jetmath.sin(_eval_jet2(a, jx, jy))
        case Cos(arg=a):
            return jetmath.cos(_eval_jet2(a, jx, jy))
        case Sqrt(arg=a):
            return jetmath.sqrt(_eval_jet2(a, jx, jy))
        case _:
            raise TypeError(f"not an expression node: {e!r}")


def eval_jet(e: Expr, p: tuple[float, float]) -> Jet2:
    """Value and all partials up to order two at p, by jet propagation."""
    j = _eval_jet2(e, jetmath.seed_x(p[0]), jetmath.seed_y(p[1]))
    if not j.is_finite():
        raise NumericOverflowError("jet evaluation produced a non-finite value")
    return j


def variables(e: Expr) -> frozenset[str]:
    """Names of the variables that actually occur in e."""
    match e:
        case Const():
            return frozenset()
        case Var(name=name):
            return frozenset((name,))
        case Neg(arg=a) | Exp(arg=a) | Ln(arg=a) | Sin(arg=a) | Cos(arg=a) | Sqrt(arg=a):
            return variables(a)
        case Add(left=l, right=r) | Sub(left=l, right=r) | Mul(left=l, right=r) | Div(left=l, right=r):
            return variables(l) | variables(r)
        case Pow(base=b):
            return variables(b)
        case _:
            raise TypeError(f"not an expression node: {e!r}")


def lift_1d(e: Expr, t0: float) -> Jet1:
    """Univariate jet of an expression in a single variable (x or y).

    Raises MixedVariableError if both variables occur.
    """
    used = variables(e)
    if len(used) > 1:
        raise MixedVariableError(
            "expression uses both x and y; a univariate lift needs one variable"
        )
    # At most one variable occurs, so both may share the x seed; the x
    # components of the result are then the univariate jet.
    seed = jetmath.seed_x(t0)
    j = _eval_jet2(e, seed, seed)
    if not j.is_finite():
        raise NumericOverflowError("jet evaluation produced a non-finite value")
    return Jet1(j.v, j.dx, j.dxx)
