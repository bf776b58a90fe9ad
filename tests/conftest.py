"""Shared test helpers: a shaped random expression generator.

The generator only emits expressions that are total on the plane (denominators
and ln/sqrt/real-power arguments are c + w^2 with c >= 2) and keeps
transcendental arguments damped so high-order derivatives stay small at the
finite-difference stencil scale. Candidates whose jet components exceed a
magnitude cap at the chosen sample points are rejected and redrawn, which
keeps relative comparisons well conditioned.
"""

from __future__ import annotations

import random

import pytest

from isocurv.errors import IsocurvError
from isocurv.expr import BinOp, Call, Expr, Neg, Pow, Var, eval_jet, num

SEED = 20260816
COMPONENT_CAP = 50.0


def _leaf(rng: random.Random) -> Expr:
    r = rng.random()
    if r < 0.4:
        return Var("x")
    if r < 0.8:
        return Var("y")
    return num(round(rng.uniform(0.1, 1.4), 3))


def _damped(rng: random.Random, depth: int) -> Expr:
    return BinOp("*", num(round(rng.uniform(0.3, 0.8), 3)), random_expr(rng, depth))


def _shaped_positive(rng: random.Random, depth: int) -> Expr:
    c = round(rng.uniform(2.0, 3.5), 3)
    w = random_expr(rng, min(depth, 1))
    return BinOp("+", num(c), BinOp("*", w, w))


def random_expr(rng: random.Random, depth: int) -> Expr:
    if depth <= 0:
        return _leaf(rng)
    r = rng.random()

    def child() -> Expr:
        return random_expr(rng, depth - 1)

    if r < 0.14:
        return BinOp("+", child(), child())
    if r < 0.26:
        return BinOp("-", child(), child())
    if r < 0.44:
        return BinOp("*", child(), child())
    if r < 0.52:
        return BinOp("/", child(), _shaped_positive(rng, depth - 1))
    if r < 0.58:
        return Neg(child())
    if r < 0.68:
        return Call("sin", _damped(rng, depth - 1))
    if r < 0.76:
        return Call("cos", _damped(rng, depth - 1))
    if r < 0.83:
        return Call("exp", _damped(rng, depth - 1))
    if r < 0.89:
        return Call("ln", _shaped_positive(rng, depth - 1))
    if r < 0.94:
        return Call("sqrt", _shaped_positive(rng, depth - 1))
    if r < 0.98:
        return Pow(child(), float(rng.choice([2, 3])))
    return Pow(_shaped_positive(rng, depth - 1), 0.5)


def sample_corpus(
    n_exprs: int, pts_per_expr: int, seed: int
) -> list[tuple[Expr, list[tuple[float, float]]]]:
    """(expression, sample points) pairs with all jet components under the
    magnitude cap at every sample point."""
    rng = random.Random(seed)
    out: list[tuple[Expr, list[tuple[float, float]]]] = []
    while len(out) < n_exprs:
        e = random_expr(rng, rng.randint(1, 3))
        pts = [
            (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            for _ in range(pts_per_expr)
        ]
        ok = True
        for p in pts:
            try:
                j = eval_jet(e, p)
            except IsocurvError:
                ok = False
                break
            size = max(
                abs(j.v), abs(j.dx), abs(j.dy), abs(j.dxx), abs(j.dxy), abs(j.dyy)
            )
            if size > COMPONENT_CAP:
                ok = False
                break
        if ok:
            out.append((e, pts))
    return out


@pytest.fixture(scope="session")
def expr_corpus_100():
    """100 expressions, one sample point each."""
    return sample_corpus(100, 1, SEED)


@pytest.fixture(scope="session")
def sample_corpus_1000():
    """1000 (expression, point) samples as 250 expressions x 4 points."""
    return sample_corpus(250, 4, SEED + 1)


# Collected pass/fail lines from the acceptance suite, replayed after the
# run so they stay visible despite output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
