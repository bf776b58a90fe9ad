"""Second-order truncated Taylor rules, emitted as straight-line source.

Jet2 holds the value and the partials up to order two of z(x, y) at a
point, and Jet1 the value and two derivatives lift_1d returns; neither has
arithmetic. Each rule appends to a Tape the statements that compute its
result and returns the result's source, so the formulas, their guards and
their error messages live here alone; expr.compile_jet walks a tree once
through the rules. Each rule keeps the operation order of its formula, so a
kernel computes bit for bit what one jet operation at a time would. The
product rule terms are grouped symmetrically in each component, so a * b
and b * a produce identical jets (IEEE addition and multiplication are
commutative; only re-association changes rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import errors


@dataclass(frozen=True, slots=True)
class Jet2:
    """Value and partials up to order two of z(x, y) at a point."""

    v: float
    dx: float = 0.0
    dy: float = 0.0
    dxx: float = 0.0
    dxy: float = 0.0
    dyy: float = 0.0


@dataclass(frozen=True, slots=True)
class Jet1:
    """Value and two derivatives of a univariate function at a point, as
    lift_1d returns them."""

    v: float
    d: float = 0.0
    dd: float = 0.0


# The source of a jet: six atoms (local names or literals) in Jet2's field
# order, spliced into formulas as they are.
Src = tuple[str, str, str, str, str, str]
ONE: Src = ("1.0", "0.0", "0.0", "0.0", "0.0", "0.0")

# Emitted statements call math's functions and raise the package's errors.
_NAMESPACE = {k: v for k, v in vars(math).items() if not k.startswith("_")}
_NAMESPACE.update(Jet2=Jet2, errors=errors)


class Tape:
    """The statements of one kernel, in evaluation order."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def let(self, source: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{name} = {source}")
        return name

    def jet(self, *components: str) -> Src:
        """Bind each component that is not a name, 0.0 or 1.0 to a new local."""
        return tuple(c if c.isidentifier() or c in ONE else self.let(c) for c in components)

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
        """Compile into kernel(x, y) -> Jet2, refusing a non-finite result."""
        finite = " or ".join(f"not isfinite({c})" for c in result)
        self.guard(f"if {finite}", "NumericOverflowError", "jet evaluation produced a non-finite value")
        self.lines.append(f"return Jet2({', '.join(result)})")
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
    (av, ax, ay, axx, axy, ayy), (bv, bx, by, bxx, bxy, byy) = a, b
    return t.jet(
        f"{av} * {bv}",
        f"{ax} * {bv} + {av} * {bx}",
        f"{ay} * {bv} + {av} * {by}",
        f"({axx} * {bv} + {av} * {bxx}) + 2.0 * ({ax} * {bx})",
        f"({axy} * {bv} + {av} * {bxy}) + ({ax} * {by} + {ay} * {bx})",
        f"({ayy} * {bv} + {av} * {byy}) + 2.0 * ({ay} * {by})",
    )


def div(t: Tape, a: Src, b: Src) -> Src:
    (av, ax, ay, axx, axy, ayy), (bv, bx, by, bxx, bxy, byy) = a, b
    t.guard(f"if {bv} == 0.0", "DivisionByZeroError", "division by a quantity with zero value")
    q = t.let(f"{av} / {bv}")
    qx = t.let(f"({ax} - {q} * {bx}) / {bv}")
    qy = t.let(f"({ay} - {q} * {by}) / {bv}")
    return (q, qx, qy) + t.jet(
        f"({axx} - 2.0 * {qx} * {bx} - {q} * {bxx}) / {bv}",
        f"({axy} - {qx} * {by} - {qy} * {bx} - {q} * {bxy}) / {bv}",
        f"({ayy} - 2.0 * {qy} * {by} - {q} * {byy}) / {bv}",
    )


def chain(t: Tape, j: Src, f0: str, f1: str, f2: str) -> Src:
    """Compose with a scalar map given its value and two derivatives, as
    atoms, taken at the value of j."""
    _, dx, dy, dxx, dxy, dyy = j
    return t.jet(
        f0,
        f"{f1} * {dx}",
        f"{f1} * {dy}",
        f"{f1} * {dxx} + {f2} * ({dx} * {dx})",
        f"{f1} * {dxy} + {f2} * ({dx} * {dy})",
        f"{f1} * {dyy} + {f2} * ({dy} * {dy})",
    )


def exp(t: Tape, j: Src) -> Src:
    v = j[0]
    (e,) = t.trap("exp overflow at argument", v, f"exp({v})")
    return chain(t, j, e, e, e)


def ln(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if {v} <= 0.0", "EvaluationDomainError", "ln of non-positive value", v)
    inv = t.let(f"1.0 / {v}")
    return chain(t, j, t.let(f"log({v})"), inv, t.let(f"-({inv} * {inv})"))


# math.sin and math.cos refuse exactly the infinite arguments; a NaN goes on
# to the finiteness check of the result.
def sin(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if isinf({v})", "NumericOverflowError", "sin of non-finite argument", v)
    s = t.let(f"sin({v})")
    return chain(t, j, s, t.let(f"cos({v})"), t.let(f"-{s}"))


def cos(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if isinf({v})", "NumericOverflowError", "cos of non-finite argument", v)
    c = t.let(f"cos({v})")
    return chain(t, j, c, t.let(f"-sin({v})"), t.let(f"-{c}"))


def sqrt(t: Tape, j: Src) -> Src:
    v = j[0]
    t.guard(f"if {v} <= 0.0", "EvaluationDomainError", "sqrt of non-positive value", v)
    r = t.let(f"sqrt({v})")
    # Zero only by underflow, where the second derivative would be infinite.
    rv = t.let(f"{r} * {v}")
    t.guard(f"if {rv} == 0.0", "NumericOverflowError", "sqrt second derivative overflows at argument", v)
    return chain(t, j, r, t.let(f"0.5 / {r}"), t.let(f"-0.25 / {rv}"))


def pow_int(t: Tape, j: Src, n: int) -> Src:
    """Integer power by square-and-multiply. Stays within jet products, so
    polynomial jets remain exact; no positivity requirement on the base."""
    if n == 0:
        return ONE
    if n < 0:
        t.guard(f"if {j[0]} == 0.0", "DivisionByZeroError", "zero base raised to a negative power")
        return div(t, ONE, pow_int(t, j, -n))
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
    return chain(t, j, *t.trap(
        "power overflow at base", v, f"{v} ** {c}", f"{c} * {v} ** ({c} - 1.0)", f"{c} * ({c} - 1.0) * {v} ** ({c} - 2.0)",
    ))
