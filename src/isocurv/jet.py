"""Truncated Taylor rules of order zero, two or three, emitted as
straight-line source.

Jet2 holds the value and the partials up to order two of z(x, y) at a
point, Jet3 up to order three, and Jet1 the value and two derivatives
lift_1d returns; none has arithmetic. Order 0 keeps the value alone, a
bare float. Each rule appends to a Tape the statements that compute its
result and returns the result's source, one atom per multi-index of
_INDICES up to the Tape's order, so the formulas, their guards and their
error messages live here alone; expr.compile_jet walks a tree once
through the rules. mul (Leibniz), div (the quotient recurrence) and chain
(Faa di Bruno) state their formula once for every order (Griewank &
Walther, Evaluating Derivatives, 2nd ed., ch. 13), and a scalar map lists
its derivatives up to the third for chain to emit only what the order
needs. Each rule keeps the operation order of its formula, so a kernel
computes bit for bit what one jet operation at a time would, and where a
kernel returns, the kernels of lower orders return the same components.
Each product term is grouped with its mirror, so a * b and b * a produce
identical jets (IEEE addition and multiplication are commutative; only
re-association changes rounding).
"""

from __future__ import annotations

import functools
import math
from . import errors
from .errors import record


@record
class Jet2:
    """Value and partials up to order two of z(x, y) at a point."""

    v: float
    dx: float = 0.0
    dy: float = 0.0
    dxx: float = 0.0
    dxy: float = 0.0
    dyy: float = 0.0


@record
class Jet3(Jet2):
    """Value and partials up to order three of z(x, y) at a point."""

    dxxx: float = 0.0
    dxxy: float = 0.0
    dxyy: float = 0.0
    dyyy: float = 0.0


@record
class Jet1:
    """Value and two derivatives of a univariate function at a point, as
    lift_1d returns them."""

    v: float
    d: float = 0.0
    dd: float = 0.0


# The multi-indices (i, j) of the partials d^(i+j) / dx^i dy^j in Jet3's
# field order; an order-2 jet has the first six.
_INDICES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))

# The source of a jet: one atom (a local name or a literal) per component,
# spliced into formulas as it is.
Src = tuple[str, ...]

# Emitted statements call math's functions and raise the package's errors.
_NAMESPACE = {k: v for k, v in vars(math).items() if not k.startswith("_")}
_NAMESPACE.update(Jet2=Jet2, Jet3=Jet3, errors=errors)


def _faa_di_bruno(i: int, j: int) -> dict:
    """The partial d^(i+j) / dx^i dy^j of f(u) as {(m, (K, ...)): c}, one
    entry per term c f^(m)(u) u_K ..., by differentiating the terms of the
    partial one order below."""
    if i == j == 0:
        return {(0, ()): 1}
    e = (1, 0) if i else (0, 1)
    terms: dict = {}
    for (m, ks), c in _faa_di_bruno(i - e[0], j - e[1]).items():
        bumped = [(m, ks[:s] + ((k + e[0], l + e[1]),) + ks[s + 1:]) for s, (k, l) in enumerate(ks)]
        for n, factors in [(m + 1, ks + (e,))] + bumped:
            key = (n, tuple(sorted(factors, reverse=True)))
            terms[key] = terms.get(key, 0) + c
    return terms


@functools.cache
def _rules(order: int) -> dict[str, list[str]]:
    """The component templates of mul, div and chain at an order, for
    str.format: with n components, fields 0 to n - 1 are the first
    operand's atoms, n to 2n - 1 the second's (for chain, the scalar map's
    value and derivatives), and 2n on the quotient's components so far."""
    idx = _INDICES[: (order + 1) * (order + 2) // 2]
    n = len(idx)
    a, b, q = ({K: "{%d}" % (s + k) for k, K in enumerate(idx)} for s in (0, n, 2 * n))
    rules: dict[str, list[str]] = {"mul": [], "div": [], "chain": []}
    for i, j in idx:
        # (C(i, k) C(j, l), K, M) over K + M = (i, j), K = (k, l) descending.
        splits = [(math.comb(i, k) * math.comb(j, l), (k, l), (i - k, j - l))
                  for k in range(i, -1, -1) for l in range(j, -1, -1)]
        pairs = [(c, K, M) for c, K, M in splits if K >= M]
        terms = []
        for c, K, M in pairs:
            s = f"{a[K]} * {b[M]}" if K == M else f"{a[K]} * {b[M]} + {a[M]} * {b[K]}"
            terms.append(f"{c}.0 * ({s})" if c > 1 else f"({s})" if len(pairs) > 1 else s)
        rules["mul"].append(" + ".join(terms))
        rest = "".join(f" - {'' if c == 1 else f'{c}.0 * '}{q[K]} * {b[M]}" for c, K, M in splits[1:])
        rules["div"].append(f"({a[i, j]}{rest}) / {b[0, 0]}")
        sums: dict[int, list[str]] = {}
        for (m, ks), c in sorted(_faa_di_bruno(i, j).items()):
            p = " * ".join(a[K] for K in ks)
            sums.setdefault(m, []).append(p if c == 1 else f"{c}.0 * ({p})")
        f = ["{%d}" % (n + m) for m in range(order + 1)]
        terms = []
        for m, s in sums.items():
            g = " + ".join(s)
            terms.append(f[m] if m == 0 else f"{f[m]} * {g}" if " " not in g else f"{f[m]} * ({g})")
        rules["chain"].append(" + ".join(terms))
    return rules


class Tape:
    """The statements of one kernel, in evaluation order, at a truncation
    order of 0 (the value alone), 2 or 3."""

    def __init__(self, order: int = 2) -> None:
        if order not in (0, 2, 3):
            raise ValueError(f"jet order must be 0, 2 or 3, not {order!r}")
        self.order, self.size = order, (order + 1) * (order + 2) // 2
        self.rules = _rules(order)
        self.lines: list[str] = []

    def let(self, source: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {source}")
        return name

    def jet(self, *components: str) -> Src:
        """Bind each component that is not a name, 0.0 or 1.0 to a new local."""
        return tuple(c if c.isidentifier() or c in ("0.0", "1.0") else self.let(c) for c in components)

    def seed(self, value: str, dx: str = "0.0", dy: str = "0.0") -> Src:
        """The jet with the given value and first partials, and zero above."""
        return ((*self.jet(value), dx, dy) + ("0.0",) * (self.size - 3))[: self.size]

    def guard(self, head: str, cls: str, text: str, value: str = "") -> None:
        """Append head, an if or a try/except header, with a raise of
        cls(text) under it; the repr of the atom value ends text if given."""
        message = f'f"{text} {{{value}!r}}"' if value else f'"{text}"'
        self.lines.append(f"{head}:\n    raise errors.{cls}({message}) from None")

    def trap(self, text: str, value: str, *sources: str) -> list[str]:
        """Let each source in turn, raising NumericOverflowError(text value)
        in place of an OverflowError."""
        names = [f"t{len(self.lines)}_{i}" for i in range(len(sources))]
        lets = "".join(f"\n    {n} = {s}" for n, s in zip(names, sources))
        self.guard(f"try:{lets}\nexcept OverflowError", "NumericOverflowError", text, value)
        return names

    def function(self, result: Src):
        """Compile into kernel(x, y) -> Jet2 or Jet3, or the bare float at
        order 0, refusing a non-finite result."""
        finite = " or ".join(f"not isfinite({c})" for c in result)
        self.guard(f"if {finite}", "NumericOverflowError", "jet evaluation produced a non-finite value")
        self.lines.append(f"return Jet{self.order}({', '.join(result)})" if self.order else f"return {result[0]}")
        body = "".join(f"\n    {line}" for entry in self.lines for line in entry.split("\n"))
        namespace = dict(_NAMESPACE)
        exec(compile(f"def kernel(x, y):{body}", "<jet kernel>", "exec"), namespace)
        return namespace["kernel"]


def add(t: Tape, a: Src, b: Src) -> Src:
    return t.jet(*(f"{p} + {q}" for p, q in zip(a, b)))


def sub(t: Tape, a: Src, b: Src) -> Src:
    return t.jet(*(f"{p} - {q}" for p, q in zip(a, b)))


def neg(t: Tape, a: Src) -> Src:
    return t.jet(*(f"-{p}" for p in a))


def mul(t: Tape, a: Src, b: Src) -> Src:
    # Each component is a sum of products that maps onto itself under
    # operand swap, which is what makes the product commute exactly.
    return t.jet(*(s.format(*a, *b) for s in t.rules["mul"]))


def div(t: Tape, a: Src, b: Src) -> Src:
    t.guard(f"if {b[0]} == 0.0", "DivisionByZeroError", "division by a quantity with zero value")
    q: list[str] = []
    for s in t.rules["div"]:
        q.append(t.let(s.format(*a, *b, *q)))
    return tuple(q)


def chain(t: Tape, j: Src, *derivatives: str) -> Src:
    """Compose with a scalar map given its value and its derivatives up to
    the third, as sources at the value of j in which {k} stands for the
    k-th of them; only those up to the tape's order are emitted."""
    f: list[str] = []
    for d in derivatives[: t.order + 1]:
        f += t.jet(d.format(*f))
    return t.jet(*(s.format(*j, *f) for s in t.rules["chain"]))


def exp(t: Tape, j: Src) -> Src:
    v = j[0]
    (e,) = t.trap("exp overflow at argument", v, f"exp({v})")
    return chain(t, j, e, e, e, e)


def ln(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if {v} <= 0.0", "EvaluationDomainError", "ln of non-positive value", v)
    return chain(t, j, f"log({v})", f"1.0 / {v}", "-({1} * {1})", "2.0 * {1} * {1} * {1}")


# math.sin and math.cos refuse exactly the infinite arguments; a NaN goes on
# to the finiteness check of the result.
def sin(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if isinf({v})", "NumericOverflowError", "sin of non-finite argument", v)
    return chain(t, j, f"sin({v})", f"cos({v})", "-{0}", "-{1}")


def cos(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if isinf({v})", "NumericOverflowError", "cos of non-finite argument", v)
    return chain(t, j, f"cos({v})", f"-sin({v})", "-{0}", "-{1}")


def sqrt(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if {v} <= 0.0", "EvaluationDomainError", "sqrt of non-positive value", v)
    p = [t.let(f"sqrt({v})")]
    # r v^k is zero only by underflow, where derivative k + 1 would be infinite.
    for nth in ("second", "third")[: max(t.order - 1, 0)]:
        p.append(t.let(f"{p[-1]} * {v}"))
        t.guard(f"if {p[-1]} == 0.0", "NumericOverflowError", f"sqrt {nth} derivative overflows at argument", v)
    return chain(t, j, p[0], *(f"{c} / {q}" for c, q in zip(("0.5", "-0.25", "0.375"), p)))


def pow_int(t: Tape, j: Src, n: int) -> Src:
    """Integer power by square-and-multiply. Stays within jet products, so
    polynomial jets remain exact; no positivity requirement on the base."""
    if n == 0:
        return t.seed("1.0")
    if n < 0:
        t.guard(f"if {j[0]} == 0.0", "DivisionByZeroError", "zero base raised to a negative power")
        return div(t, t.seed("1.0"), pow_int(t, j, -n))
    acc = None
    while n:
        if n & 1:
            acc = j if acc is None else mul(t, acc, j)
        n >>= 1
        if n:
            j = mul(t, j, j)
    return acc


def pow_real(t: Tape, j: Src, r: float) -> Src:
    """Real power; requires a strictly positive base value."""
    v, c = j[0], t.let(repr(r))
    t.guard(f"if {v} <= 0.0", "EvaluationDomainError", "non-integer power of non-positive base", v)
    derivatives = (
        f"{v} ** {c}", f"{c} * {v} ** ({c} - 1.0)", f"{c} * ({c} - 1.0) * {v} ** ({c} - 2.0)",
        f"{c} * ({c} - 1.0) * ({c} - 2.0) * {v} ** ({c} - 3.0)",
    )
    return chain(t, j, *t.trap("power overflow at base", v, *derivatives[: t.order + 1]))
