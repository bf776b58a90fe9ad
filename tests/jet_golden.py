"""Golden outcomes of eval_jet and lift_1d, kept as SHA-256 digests.

cases() yields a fixed, seeded list of (evaluator, tree, point) cases: 20,000
random_expr trees of depth 1 to 3, each at three points up to 1e300 in
magnitude for eval_jet and as a one-variable copy at two for lift_1d, plus
hand-picked surfaces at poles, underflows, overflows and non-finite points.
outcome() renders each result as the float.hex of every component, or as the
error class and message, so a one-ulp change or a changed error shows.
Outcomes are hashed in blocks of BLOCK cases.

Two error kinds are rendered as a fixed label, not by class and message,
because the fixture predates their messages: sin/cos of an infinite argument
(once a bare ValueError from math.sin, now a NumericOverflowError naming the
argument) and sqrt of a positive argument so small that the second
derivative's denominator underflows (once a bare ZeroDivisionError, now a
NumericOverflowError).

Run `PYTHONPATH=src python tests/jet_golden.py` to rewrite
tests/data/jet_golden.json from the current evaluators. The checked-in file
was written on x86-64 Linux (glibc 2.36 libm) by kernels that fold
structural zeros. They agree with the tree-walking evaluator that they
replaced, except that a partial that is zero by structure is +0.0 where the
tree walk could give -0.0; 12,549 of the outcomes differ from it in that
way, and in no other. Rewrite the file only for a deliberate change of
results, after a case-by-case comparison of the old and new outcomes: the
sign of a zero is not part of the contract, any other change is. The
digests hold the roundings of that libm's exp, log, sin,
cos and pow, so the fixture also keeps libm_digest(), a digest of those
functions on fixed arguments: a host whose libm rounds differently fails
on that first, not as a list of changed blocks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

from conftest import SEED, random_expr

from isocurv.errors import IsocurvError
from isocurv.expr import Expr, Pow, Var, eval_jet, lift_1d, parse

BLOCK = 1000
N_TREES = 20_000
FIXTURE = os.path.join(os.path.dirname(__file__), "data", "jet_golden.json")

# Texts to parse, and two trees the parser refuses: infinite exponents.
SURFACES = (
    "x", "7", "x*y", "x/y", "(x-1)/(y-1)", "1/x", "x^-2", "x^-3", "y^-1", "x^0",
    "x^0.5", "x^1.5", "x^-0.5", "x^2.5", Pow(Var("x"), math.inf),
    Pow(Var("x"), -math.inf), "x^(2^60)",
    "sqrt(x)", "sqrt(y)", "sqrt(x*x+y*y)", "sqrt(x-x)", "ln(x)", "ln(x*y)",
    "ln(0*x+1)", "exp(x)", "exp(-x)", "exp(x*x)", "sin(x)", "cos(y)",
    "sin(x*x)", "cos(x*x)", "sin(1e300*x)", "1e200*x*y", "1e999*x",
    "(1e999-1e999)*x", "x^3*y^-2", "x-x", "exp(0.3*x)*sin(y)+ln(2+x^2)/sqrt(3+y^2)",
)
SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-220, 1e-160, 0.5, 1.0, -1.0, 2.0,
    1e8, 1e160, -1e160, 1e300, -1e300, 1.7e308, float("inf"), float("-inf"),
    float("nan"),
)
SCALES = (1.0, 1.0, 30.0, 900.0, 1e8, 1e40, 1e160, 1e300)


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


def _coordinate(rng: random.Random) -> float:
    if rng.random() < 0.25:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
    return rng.uniform(-1.0, 1.0) * rng.choice(SCALES)


def cases():
    """(evaluator name, tree, point or scalar) in a fixed order."""
    rng = random.Random(SEED + 3)
    for i in range(N_TREES):
        tree = random_expr(rng, rng.randint(1, 3))
        for _ in range(3):
            yield "eval_jet", tree, (_coordinate(rng), _coordinate(rng))
        single = _single_variable(tree, "xy"[i % 2])
        for _ in range(2):
            yield "lift_1d", single, _coordinate(rng)
    for surface in SURFACES:
        e = parse(surface) if isinstance(surface, str) else surface
        for a in SPECIAL:
            for b in (0.0, 1.0, -2.5, a):
                yield "eval_jet", e, (a, b)
            yield "lift_1d", e, a


def libm_digest() -> str:
    """SHA-256 of math.exp, log, sin, cos and float ** on 5,000 seeded
    arguments of the magnitudes the cases reach."""
    rng = random.Random(SEED + 4)
    h = hashlib.sha256()
    for _ in range(5000):
        a = _coordinate(rng)
        b = abs(a) or 1.0
        calls = (
            (math.exp, a), (math.exp, rng.uniform(-750.0, 750.0)), (math.log, b),
            (math.sin, a), (math.cos, a), (pow, b, rng.choice((0.5, 1.5, 2.5, -0.5, -1.5, -2.5))),
        )
        for fn, *args in calls:
            try:
                text = fn(*args).hex()
            except (OverflowError, ValueError) as exc:
                text = type(exc).__name__
            h.update(text.encode() + b"\n")
    return h.hexdigest()


def outcome(kind: str, e, p) -> str:
    try:
        if kind == "eval_jet":
            j = eval_jet(e, p)
            parts = (j.v, j.dx, j.dy, j.dxx, j.dxy, j.dyy)
        else:
            j = lift_1d(e, p)
            parts = (j.v, j.d, j.dd)
    except (IsocurvError, ArithmeticError, ValueError) as exc:
        text = f"{type(exc).__name__}: {exc}"
        if text == "ValueError: math domain error" or text.startswith(
            ("NumericOverflowError: sin of non-finite", "NumericOverflowError: cos of non-finite")
        ):
            return "trig of an infinite argument"
        if text == "ZeroDivisionError: float division by zero" or text.startswith(
            "NumericOverflowError: sqrt second derivative"
        ):
            return "sqrt second derivative underflow"
        return text
    return " ".join(c.hex() for c in parts)


def digests() -> tuple[list[str], int, int]:
    """Block digests, the number of cases and the number that raised."""
    out: list[str] = []
    h = hashlib.sha256()
    n = errors = 0
    for kind, e, p in cases():
        text = outcome(kind, e, p)
        errors += not text.startswith(("0x", "-0x"))
        h.update(text.encode() + b"\n")
        n += 1
        if n % BLOCK == 0:
            out.append(h.hexdigest())
            h = hashlib.sha256()
    if n % BLOCK:
        out.append(h.hexdigest())
    return out, n, errors


if __name__ == "__main__":
    blocks, n, errors = digests()
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        doc = {"block": BLOCK, "cases": n, "errors": errors, "libm": libm_digest(), "digests": blocks}
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    print(f"{n} cases, {errors} errors, {len(blocks)} blocks -> {FIXTURE}")
