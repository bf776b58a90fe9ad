"""Finite-difference jets, independent of the jet arithmetic layer.

Derivatives come from five-point central stencils applied to plain float
evaluation only: eval_value runs each tree through closures built once
per tree, one per node, each doing its node's float operation on what the
node constructors accept (x or y, an op of + - * /, a function name of
exp ln sin cos sqrt, a finite exponent). Nothing here touches
jet propagation, so this path stands as a genuinely separate oracle for
it: agreement between fd_jet and eval_jet cross-validates both.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import (
    DivisionByZeroError,
    EvaluationDomainError,
    NumericOverflowError,
    record,
)
from .expr import BinOp, Call, Const, Expr, Neg, Pow, Var
from .jet import Jet2

ValueFn = Callable[[float, float], float]


def _plain(e: Expr) -> ValueFn:
    """One closure (x, y) -> float for the tree e. Each node does its float
    operation on its operands' values in the order of a recursive walk
    (a quotient's denominator first) and raises that walk's errors."""
    match e:
        case Const(value=v):
            return lambda x, y: v
        case Var(name=name):
            return (lambda x, y: x) if name == "x" else (lambda x, y: y)
        case Neg(arg=a):
            f = _plain(a)
            return lambda x, y: -f(x, y)
        case BinOp(op=op, left=l, right=r):
            f, g = _plain(l), _plain(r)
            if op == "+":
                return lambda x, y: f(x, y) + g(x, y)
            if op == "-":
                return lambda x, y: f(x, y) - g(x, y)
            if op == "*":
                return lambda x, y: f(x, y) * g(x, y)

            def div(x, y):
                den = g(x, y)
                if den == 0.0:
                    raise DivisionByZeroError("division by zero")
                return f(x, y) / den

            return div
        case Pow(base=b, exponent=ex):
            return _power(_plain(b), ex)
        case Call(name=name, arg=a):
            f, fn = _plain(a), getattr(math, "log" if name == "ln" else name)
            positive = name in ("ln", "sqrt")

            def call(x, y):
                v = f(x, y)
                if positive and v <= 0.0:
                    raise EvaluationDomainError(f"{name} of non-positive value {v!r}")
                try:
                    return fn(v)
                except OverflowError:  # exp's only
                    raise NumericOverflowError("exp overflow") from None
                except ValueError:  # sin's and cos's, of an infinite argument
                    raise NumericOverflowError(f"{name} of non-finite argument {v!r}") from None

            return call
        case _:
            # Refused when reached, as the walk did, so an error met
            # earlier in the tree still comes first.
            def not_a_node(x, y):
                raise TypeError(f"not an expression node: {e!r}")

            return not_a_node


def _power(f: ValueFn, ex: float) -> ValueFn:
    if ex == int(ex):  # Pow holds a finite exponent
        n = int(ex)

        def power(x, y):
            base = f(x, y)
            try:
                return base**n
            except ZeroDivisionError:
                raise DivisionByZeroError("zero base raised to a negative power") from None
            except OverflowError:
                raise NumericOverflowError("power overflow") from None

        return power

    def real_power(x, y):
        base = f(x, y)
        if base <= 0.0:
            raise EvaluationDomainError(f"non-integer power of non-positive base {base!r}")
        try:
            return base**ex  # a positive or NaN base: no ZeroDivisionError
        except OverflowError:
            raise NumericOverflowError("power overflow") from None

    return real_power


# The tree evaluated last and its closure: fd_jet evaluates one tree 21
# times a point. A slot of its own, not expr._last, since the oracle's
# callers alternate eval_jet and fd_jet on one tree.
_last: tuple = (None, None)


def eval_value(e: Expr, p: tuple[float, float]) -> float:
    """Plain float value of e at p. Shares no code with the jet layer."""
    global _last
    tree, fn = _last  # one read, so a swap by another thread cannot mix trees
    if tree is not e:
        fn = _plain(e)
        _last = (e, fn)
    v = fn(p[0], p[1])
    if not math.isfinite(v):
        raise NumericOverflowError("evaluation produced a non-finite value")
    return v


# Stencil steps of the first and second partials, read by each fd_jet call;
# the second is larger because roundoff cancellation grows with the order.
H_FIRST = 1e-4
H_SECOND = 1e-3


def _first(g: Callable[[float], float], h: float) -> float:
    """g'(0) by the five-point central stencil of step h; g is f along an axis."""
    return (-g(2 * h) + 8 * g(h) - 8 * g(-h) + g(-2 * h)) / (12 * h)


def _second(g: Callable[[float], float], v: float, h: float) -> float:
    """g''(0) by the five-point central stencil of step h, where g(0) = v."""
    return (-g(2 * h) + 16 * g(h) - 30 * v + 16 * g(-h) - g(-2 * h)) / (12 * h * h)


def fd_jet(s: Expr, p: tuple[float, float]) -> Jet2:
    """Numerical jet of s at p.

    First partials use the five-point central first-derivative stencil
    (fourth order); pure second partials use the five-point second-derivative
    stencil; the mixed partial uses the four-point cross stencil. s must be
    defined on the surrounding (2h)-ball, h the larger step.
    """
    x, y = p
    h1, h2 = H_FIRST, H_SECOND

    def f(px: float, py: float) -> float:
        return eval_value(s, (px, py))

    def along_x(d: float) -> float:
        return f(x + d, y)

    def along_y(d: float) -> float:
        return f(x, y + d)

    v = f(x, y)
    dx, dy = _first(along_x, h1), _first(along_y, h1)
    dxx, dyy = _second(along_x, v, h2), _second(along_y, v, h2)
    dxy = (
        f(x + h2, y + h2) - f(x + h2, y - h2) - f(x - h2, y + h2) + f(x - h2, y - h2)
    ) / (4 * h2 * h2)
    return Jet2(v, dx, dy, dxx, dxy, dyy)


@record
class JetComparison:
    """Per-component |a - b| deviations; a component is flagged when its
    deviation exceeds tol_rel * (1 + |a|)."""

    deviations: dict
    flagged: tuple[str, ...] = ()
    tol_rel: float = 0.0
    _uncompared = ("deviations",)

    def ok(self) -> bool:
        return not self.flagged


def compare(a: Jet2, b: Jet2, tol_rel: float) -> JetComparison:
    deviations: dict[str, float] = {}
    flagged: list[str] = []
    for name in Jet2.__match_args__:
        av = getattr(a, name)
        bv = getattr(b, name)
        dev = abs(av - bv)
        deviations[name] = dev
        if dev > tol_rel * (1.0 + abs(av)):
            flagged.append(name)
    return JetComparison(deviations=deviations, flagged=tuple(flagged), tol_rel=tol_rel)
