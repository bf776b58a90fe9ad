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

Var holds x or y, Pow a finite exponent and Const any float but NaN (1e999
parses to inf); each refuses anything else with a ValueError naming the
field. to_string emits minimal parentheses while preserving structure
exactly: parse(to_string(e)) reproduces e node for node for every tree in
parse normal form, i.e. every negative constant is spelled Neg(Const(+c)).
The num() helper builds constants in that form.

eval_jet runs the kernel that compile_jet builds once per tree from the
jet rules. lift_1d runs the same kernel on single-variable factors and
keeps the partials in the variable used. compile_jet at order 0 gives the
value alone, which meshes use. The one other evaluator, the plain-float
eval_value of the finite-difference oracle, lives in oracle.py and shares
no code with these.
"""

from __future__ import annotations

import math

from . import jet as jetmath
from .errors import MixedVariableError, ParseError, UnknownIdentifierError, record, require_finite
from .jet import Jet1, Jet2


@record
class Const:
    value: float

    def __post_init__(self):
        if self.value != self.value:  # +-inf stays: parse reads 1e999 as inf
            raise ValueError("value must not be NaN")


@record
class Var:
    name: str

    def __post_init__(self):
        if self.name not in ("x", "y"):
            raise ValueError("name must be 'x' or 'y'")


@record
class Neg:
    arg: "Expr"


@record
class Add:
    left: "Expr"
    right: "Expr"


@record
class Sub:
    left: "Expr"
    right: "Expr"


@record
class Mul:
    left: "Expr"
    right: "Expr"


@record
class Div:
    left: "Expr"
    right: "Expr"


@record
class Pow:
    base: "Expr"
    exponent: float

    def __post_init__(self):
        require_finite(self, "exponent")


@record
class Exp:
    arg: "Expr"


@record
class Ln:
    arg: "Expr"


@record
class Sin:
    arg: "Expr"


@record
class Cos:
    arg: "Expr"


@record
class Sqrt:
    arg: "Expr"


Expr = Const | Var | Neg | Add | Sub | Mul | Div | Pow | Exp | Ln | Sin | Cos | Sqrt

_FUNCS = {"exp": Exp, "ln": Ln, "sin": Sin, "cos": Cos, "sqrt": Sqrt}

# The binary operators by symbol, and the precedence level of each operator
# class: the parser chains operators level by level, and the printer
# parenthesizes a subtree whose level is below the one its place demands.
# Atoms and function calls, absent here, are above every level.
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_LEVEL = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
_SYMBOL = {cls: symbol for symbol, cls in _BINARY.items()}
_ATOM = 5

# The most nesting levels parse accepts (see _Parser), so that every tree it
# gives can be printed, compared, hashed and compiled.
MAX_DEPTH = 100


def num(value: float) -> Expr:
    """Constant in parse normal form: negatives become Neg(Const(+v))."""
    v = float(value)
    if v < 0.0:
        return Neg(Const(-v))
    return Const(v)


# -- tokenizer ---------------------------------------------------------------


@record
class _Token:
    kind: str  # "num", "ident", one of "+-*/^()", or "end"
    text: str
    offset: int


def _skip(text: str, i: int, chars: str) -> int:
    """The index past the run of chars that starts at i."""
    while i < len(text) and text[i] in chars:
        i += 1
    return i


_DIGITS = "0123456789"
_LETTERS = "_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_WORD = _LETTERS + _DIGITS


def _number_end(text: str, i: int) -> int:
    """The end of the number at i, or i if none starts there: the longest
    match of (digits '.' digits? | '.' digits | digits) (e|E sign? digits)?."""
    j = _skip(text, i, _DIGITS)
    if text[j:j + 1] == "." and (j > i or _skip(text, j + 1, _DIGITS) > j + 1):
        j = _skip(text, j + 1, _DIGITS)
    if j > i and text[j:j + 1] in ("e", "E"):
        k = j + 1 + (text[j + 1:j + 2] in ("+", "-"))
        if (end := _skip(text, k, _DIGITS)) > k:
            j = end
    return j


def _tokenize(text: str) -> list[_Token]:
    """The tokens of text, then "end". Text must be ASCII, so _DIGITS and
    _LETTERS are all the digits and letters it can hold."""
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if ord(ch) > 127)
        raise ParseError("expression must be ASCII", bad)
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if (j := _number_end(text, i)) > i:
            kind = "num"
        elif ch in _LETTERS:
            kind, j = "ident", _skip(text, i + 1, _WORD)
        elif ch in "+-*/^()":
            kind, j = ch, i + 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        tokens.append(_Token(kind, text[i:j], i))
        i = j
    tokens.append(_Token("end", "", len(text)))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    """Recursive descent over the grammar above. Every parse_* method returns
    its subtree with the subtree's height in nesting levels: each binary
    operator, unary minus, exponent level, parenthesis and function adds one
    over the highest of its operands. depth counts the levels that the
    parser has entered above, so that it refuses a nest before it recurses
    through it."""

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

    @staticmethod
    def nest(levels: int, tok: _Token) -> int:
        """One level more than levels, refused past MAX_DEPTH at tok."""
        if levels >= MAX_DEPTH:
            raise ParseError("expression nests too deeply", tok.offset)
        return levels + 1

    def parse_binary(self, depth: int, level: int = _LEVEL[Add]) -> tuple[Expr, int]:
        """A left-associative chain of the binary operators of one level,
        whose operands are chains of the next level, or unaries past the last."""
        if level > _LEVEL[Mul]:
            return self.parse_unary(depth)
        node, height = self.parse_binary(depth, level + 1)
        while _LEVEL.get(_BINARY.get(self.peek().kind)) == level:
            op = self.advance()
            rhs, rhs_height = self.parse_binary(depth, level + 1)
            node, height = _BINARY[op.kind](node, rhs), self.nest(max(height, rhs_height), op)
        return node, height

    def parse_unary(self, depth: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            arg, height = self.parse_unary(self.nest(depth, tok))
            return Neg(arg), self.nest(height, tok)
        return self.parse_power(depth)

    def parse_power(self, depth: int) -> tuple[Expr, int]:
        base, height = self.parse_atom(depth)
        if self.peek().kind == "^":
            caret = self.advance()
            exponent, levels = self.parse_exponent(caret.offset, self.nest(depth, caret))
            if not math.isfinite(exponent):
                raise ParseError("exponent does not fold to a real constant", caret.offset)
            return Pow(base, exponent), self.nest(max(height, levels), caret)
        return base, height

    def parse_exponent(self, caret_offset: int, depth: int) -> tuple[float, int]:
        # Exponents fold to a constant at parse time; anything symbolic in
        # exponent position is a parse error, reported at the caret.
        negate = False
        while self.peek().kind == "-":
            self.advance()
            negate = not negate
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            value, height = self.parse_exponent(caret_offset, self.nest(depth, tok))
            height = self.nest(height, tok)
            self.expect(")", "')' closing the exponent")
        elif tok.kind == "num":
            self.advance()
            value, height = float(tok.text), 0
        else:
            raise ParseError("exponent must be a numeric constant", tok.offset)
        if self.peek().kind == "^":
            caret = self.advance()
            rhs, rhs_height = self.parse_exponent(caret_offset, self.nest(depth, caret))
            height = self.nest(max(height, rhs_height), caret)
            try:
                value = math.pow(value, rhs)
            except (ValueError, OverflowError):
                raise ParseError("exponent does not fold to a real constant",
                                 caret_offset) from None
        return (-value if negate else value), height

    def parse_atom(self, depth: int) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text)), 0
        if tok.kind == "ident":
            self.advance()
            if tok.text in ("x", "y"):
                return Var(tok.text), 0
            ctor = _FUNCS.get(tok.text)
            if ctor is None:
                raise UnknownIdentifierError(
                    f"unknown identifier {tok.text!r}", tok.offset
                )
            self.expect("(", f"'(' after {tok.text}")
            arg, height = self.parse_binary(self.nest(depth, tok))
            self.expect(")", "')'")
            return ctor(arg), self.nest(height, tok)
        if tok.kind == "(":
            self.advance()
            node, height = self.parse_binary(self.nest(depth, tok))
            self.expect(")", "')'")
            return node, self.nest(height, tok)
        raise ParseError("expected a number, variable, or '('", tok.offset)


def parse(text: str) -> Expr:
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens)
    node, _ = parser.parse_binary(0)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected {trailing.text!r}", trailing.offset)
    return node


# -- printer -----------------------------------------------------------------

def _fmt_float(v: float) -> str:
    if math.isinf(v):
        return "-1e999" if v < 0.0 else "1e999"  # parse reads 1e999 as inf
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(e: Expr, min_level: int) -> str:
    match e:
        case Const(value=v):
            body = _fmt_float(v)
        case Var(name=name):
            body = name
        case Neg(arg=a):
            body = "-" + _print(a, _LEVEL[Neg])
        case Add(left=l, right=r) | Sub(left=l, right=r) | Mul(left=l, right=r) | Div(left=l, right=r):
            level = _LEVEL[type(e)]
            body = _print(l, level) + _SYMBOL[type(e)] + _print(r, level + 1)
        case Pow(base=b, exponent=ex):
            body = _print(b, _ATOM) + "^" + _fmt_float(ex)
        case Exp(arg=a) | Ln(arg=a) | Sin(arg=a) | Cos(arg=a) | Sqrt(arg=a):
            # Each function's class is its name capitalized (see _FUNCS).
            body = f"{type(e).__name__.lower()}({_print(a, 0)})"
        case _:
            raise TypeError(f"not an expression node: {e!r}")
    if _LEVEL.get(type(e), _ATOM) < min_level:
        return f"({body})"
    return body


def to_string(e: Expr) -> str:
    return _print(e, 0)


# -- evaluation --------------------------------------------------------------


def _emit(t: jetmath.Tape, e: Expr, x: jetmath.Src, y: jetmath.Src) -> jetmath.Src:
    match e:
        case Const(value=v):
            # repr round-trips a finite float exactly; float() takes inf.
            # A local, not a literal, so that only the seeds' zeros and ones fold.
            return t.seed(t.let(repr(v) if math.isfinite(v) else f"float('{v}')"))
        case Var(name=name):
            return x if name == "x" else y
        case Add(left=l, right=r) | Sub(left=l, right=r) | Mul(left=l, right=r) | Div(left=l, right=r):
            return _JET_RULES[type(e)](t, _emit(t, l, x, y), _emit(t, r, x, y))
        case Pow(base=b, exponent=ex):
            bj = _emit(t, b, x, y)
            if ex == int(ex):
                return jetmath.pow_int(t, bj, int(ex))
            return jetmath.pow_real(t, bj, ex)
        case Neg(arg=a) | Exp(arg=a) | Ln(arg=a) | Sin(arg=a) | Cos(arg=a) | Sqrt(arg=a):
            return _JET_RULES[type(e)](t, _emit(t, a, x, y))
        case _:
            raise TypeError(f"not an expression node: {e!r}")


_JET_RULES = {
    Add: jetmath.add, Sub: jetmath.sub, Mul: jetmath.mul, Div: jetmath.div, Neg: jetmath.neg,
    Exp: jetmath.exp, Ln: jetmath.ln, Sin: jetmath.sin, Cos: jetmath.cos, Sqrt: jetmath.sqrt,
}


def compile_jet(e: Expr, order: int = 2, tail: str = "", **constants: float):
    """Compile e once into kernel(x, y) -> Jet2, or Jet3 at order 3, or the
    value as a float at order 0: straight-line statements that compute its
    jet of that order at (x, y), bit for bit but for the sign of a zero as
    one jet operation at a time would, raising the same errors. A tail
    (see jet.Tape.function) makes the kernel return its float instead."""
    t = jetmath.Tape(order)
    return t.function(_emit(t, e, t.seed("x", dx="1.0"), t.seed("y", dy="1.0")), tail, **constants)


# The tree and order evaluated last and their kernel: every caller evaluates
# one tree at many points in a row.
_last: tuple = (None, None, None)


def _kernel(e: Expr, order: int = 2):
    global _last
    tree, last_order, kernel = _last  # one read, so a swap by another thread cannot mix trees
    if tree is not e or last_order != order:
        kernel = compile_jet(e, order)
        _last = (e, order, kernel)
    return kernel


def eval_jet(e: Expr, p: tuple[float, float], order: int = 2) -> Jet2:
    """Value and all partials up to order two at p, or three at order 3
    (a Jet3), by the compiled kernel of e."""
    return _kernel(e, order)(p[0], p[1])


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
    # The rules treat x and y alike: the partials in the variable used are its jet.
    j = _kernel(e)(t0, t0)
    return Jet1(j.v, j.dx, j.dxx) if "x" in used else Jet1(j.v, j.dy, j.dyy)
