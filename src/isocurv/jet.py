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
needs. The rules fold the seeds' literal zeros and ones (ibid., ch. 6)
and keep the operation order of the rest, so a kernel computes bit for
bit, but for the sign of a zero, what one jet operation at a time would,
and where a kernel returns, the kernels of lower orders return the same
components. Each product term is grouped with its mirror, so a * b and
b * a produce identical jets (IEEE addition and multiplication are
commutative; only re-association changes rounding).
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
def _rules(order: int) -> dict[str, list]:
    """The components of add, mul, div and chain at an order as terms for
    _fold over positions: with n components, 0 to n - 1 for the first
    operand, n to 2n - 1 for the second (for chain, the scalar map's value
    and derivatives), 2n on for the quotient so far. A div component (k,
    terms) is a_k less each term, over b_0; coefficients are literals."""
    idx = _INDICES[: (order + 1) * (order + 2) // 2]
    n, at = len(idx), idx.index
    rules = {"add": [[k, n + k] for k in range(n)], "mul": [], "div": [], "chain": []}
    for i, j in idx:
        # (C(i, k) C(j, l), K, M) over K + M = (i, j), K = (k, l) descending.
        splits = [(math.comb(i, k) * math.comb(j, l), (k, l), (i - k, j - l))
                  for k in range(i, -1, -1) for l in range(j, -1, -1)]
        rules["mul"].append([(f"{c}.0", [(at(K), n + at(M)), (at(M), n + at(K))][: 1 + (K > M)])
                             for c, K, M in splits if K >= M])
        rules["div"].append((at((i, j)), [(f"{c}.0", 2 * n + at(K), n + at(M)) for c, K, M in splits[1:]]))
        sums: dict = {}
        for (m, ks), c in sorted(_faa_di_bruno(i, j).items()):
            sums.setdefault(n + m, []).append((f"{c}.0", tuple(map(at, ks))))
        rules["chain"].append(list(sums.items()))
    return rules


def _fold(term, atoms) -> str:
    """The source of a rule's term, a product (tuple) or sum (list) of terms,
    literals and positions k in atoms (None for {k}), left to right. A 0.0
    factor voids a product, 1.0 factors and 0.0 terms drop, and parentheses
    stay, so no value but a zero's sign can change."""
    product = type(term) is tuple
    unit, parts = ("1.0" if product else "0.0"), []
    for p in term:
        p = p if type(p) is str else atoms[p] or f"{{{p}}}" if type(p) is int else _fold(p, atoms)
        if product and p == "0.0":
            return "0.0"
        if p != unit:
            parts.append(p)
    if len(parts) == 1:
        return parts[0]
    return (" * " if product else " + ").join(f"({p})" if " " in p else p for p in parts) or unit


@functools.cache
def _templates(order: int, op: str, mask: tuple) -> list[str]:
    """add, mul or chain at an order as str.format templates, folded for
    the structural 0.0 and 1.0 atoms that mask holds."""
    return [_fold(term, mask) for term in _rules(order)[op]]


def _reads(source: str) -> int:
    """Which of the seeds X and Y source reads, as bits 1 and 2: a local's
    name starts with "tXYZ"[its reads], and no other source spells X, Y or Z."""
    both = "Z" in source
    return (both or "X" in source) | (both or "Y" in source) << 1


def compile_kernel(source: str, **constants: float):
    """The function kernel that source defines, seeing what the emitted
    statements call (math's functions, Jet2, Jet3, errors) and constants."""
    namespace = dict(_NAMESPACE, **constants)
    exec(compile(source, "<jet kernel>", "exec"), namespace)
    return namespace["kernel"]


# The most statements a kernel may hold, so that building and compiling one
# is bounded for any tree: at order 3, x^1.7e308 unrolls into 4,199 and a
# MAX_DEPTH nest of sqrt into 1,197, while a sum of such powers has no bound.
_MAX_STATEMENTS = 5_000


class Tape:
    """The statements of one kernel, in evaluation order, at a truncation
    order of 0 (the value alone), 2 or 3, and which of the seeds X and Y
    each reads (see _reads), the letter that starts each local's name."""

    def __init__(self, order: int = 2) -> None:
        if order not in (0, 2, 3):
            raise ValueError(f"jet order must be 0, 2 or 3, not {order!r}")
        self.order, self.size = order, (order + 1) * (order + 2) // 2
        self.lines: list[str] = []
        self.reads: list[int] = []

    def _append(self, line: str, reads: int) -> None:
        """Append one statement and the seeds it reads, refused past the cap."""
        if len(self.lines) >= _MAX_STATEMENTS:
            raise ValueError(f"kernel exceeds the cap of {_MAX_STATEMENTS} statements")
        self.lines.append(line)
        self.reads.append(reads)

    def let(self, source: str) -> str:
        reads = _reads(source)
        name = f"{'tXYZ'[reads]}{len(self.lines)}"
        self._append(f"{name} = {source}", reads)
        return name

    def jet(self, *components: str) -> Src:
        """Bind each component that is not a name, 0.0 or 1.0 to a new local."""
        return tuple(c if c.isidentifier() or c in ("0.0", "1.0") else self.let(c) for c in components)

    def fold(self, op: str, atoms: Src) -> Src:
        """op over its operands' atoms, by templates cached per mask."""
        literal = "0.0" in atoms or "1.0" in atoms
        mask = tuple(map({"0.0": "0.0", "1.0": "1.0"}.get, atoms)) if literal else (None,) * len(atoms)
        return self.jet(*(s.format(*atoms) for s in _templates(self.order, op, mask)))

    def seed(self, value: str, dx: str = "0.0", dy: str = "0.0") -> Src:
        """The jet with the given value and first partials, and zero above."""
        return ((*self.jet(value), dx, dy) + ("0.0",) * (self.size - 3))[: self.size]

    def guard(self, head: str, cls: str, text: str, value: str = "") -> None:
        """Append head, an if or a try/except header, with a raise of
        cls(text) under it; the repr of the atom value ends text if given."""
        message = f'f"{text} {{{value}!r}}"' if value else f'"{text}"'
        self._append(f"{head}:\n    raise errors.{cls}({message}) from None", _reads(head + value))

    def trap(self, text: str, value: str, *sources: str) -> list[str]:
        """Let each source in turn, raising NumericOverflowError(text value)
        in place of an OverflowError."""
        names = [f"{'tXYZ'[_reads(''.join(sources))]}{len(self.lines)}_{i}" for i in range(len(sources))]
        lets = "".join(f"\n    {n} = {s}" for n, s in zip(names, sources))
        self.guard(f"try:{lets}\nexcept OverflowError", "NumericOverflowError", text, value)
        return names

    def refuse(self, result: Src) -> None:
        """Guard against a non-finite component of result."""
        finite = " or ".join(f"not isfinite({c})" for c in result if c.isidentifier())
        if finite:
            self.guard(f"if {finite}", "NumericOverflowError", "jet evaluation produced a non-finite value")

    def function(self, result: Src, tail: str = "", **constants: float):
        """Compile into kernel(X, Y) -> Jet2 or Jet3, or the bare float at
        order 0, refusing a non-finite result. A tail, one formula over the
        result's atoms by field name ({dxx}) and the constants by name,
        makes the kernel return its float instead, after the same refusal."""
        self.refuse(result)
        returned = f"Jet{self.order}({', '.join(result)})" if self.order else result[0]
        fields = dict(zip(Jet3.__match_args__, result))
        self.lines.append(f"return {tail.format_map(fields) if tail else returned}")
        body = "\n".join(self.lines).replace("\n", "\n    ")
        return compile_kernel(f"def kernel(X, Y):\n    {body}", **constants)


def add(t: Tape, a: Src, b: Src) -> Src:
    return t.fold("add", a + b)


def sub(t: Tape, a: Src, b: Src) -> Src:
    return t.jet(*(p if q == "0.0" else f"{p} - {q}" for p, q in zip(a, b)))


def neg(t: Tape, a: Src) -> Src:
    return t.jet(*(p if p == "0.0" else f"-{p}" for p in a))


def mul(t: Tape, a: Src, b: Src) -> Src:
    # Each component is a sum of products that maps onto itself under
    # operand swap, which is what makes the product commute exactly.
    return t.fold("mul", a + b)


def div(t: Tape, a: Src, b: Src) -> Src:
    t.guard(f"if {b[0]} == 0.0", "DivisionByZeroError", "division by a quantity with zero value")
    q = ()
    for k, terms in _rules(t.order)["div"]:
        top = a[k]
        for s in terms:
            s = _fold(s, a + b + q)
            if s != "0.0":
                top += f" - {s}"
        q += t.jet("0.0" if top == "0.0" else f"({top}) / {b[0]}")
    return q


# The rule of each binary operator, by the symbol that expr.BinOp holds.
BINARY = {"+": add, "-": sub, "*": mul, "/": div}


def chain(t: Tape, j: Src, *derivatives: str) -> Src:
    """Compose with a scalar map given its value and its derivatives up to
    the third, as sources at the value of j in which {k} stands for the
    k-th of them; only those up to the tape's order are emitted."""
    f = ()
    for d in derivatives[: t.order + 1]:
        f += t.jet(d.format(*f))
    return t.fold("chain", j + f)


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
