"""Seeded benchmark inputs that carry their own closed-form partials.

Nothing here imports isocurv. Every expected value the checks compare the
program's output with comes from the derivative formulas in this file, so
a wrong jet, invariant or vertex in the program cannot also be wrong in
the reference.

A surface is a sum of terms. Most terms are separable, sign * coef *
F(x) * G(y), so any partial is sign * coef * F^(m)(x) * G^(n)(y) and only
univariate derivatives up to order three have to be written out; one
non-separable term, coef * exp(b*x*y), has its partials spelled out in
full. Template structures are fixed and only their coefficients are
drawn from the seed, with fixed signs, so every seed parses to trees of
the same shape and the program does the same number of operations on
them.
"""

from __future__ import annotations

import math
import random

# Partial-derivative orders (m, n) = d^(m+n) / dx^m dy^n, up to order three.
ORDERS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3))


def coef(rng: random.Random, lo: float, hi: float) -> float:
    """A positive coefficient with two decimals, so it prints short."""
    return round(rng.uniform(lo, hi), 2)


# -- univariate factors: text in a variable and derivatives 0..3 -------------


class Mono:
    def __init__(self, k: int):
        self.k = k

    def text(self, v: str) -> str:
        return v if self.k == 1 else f"{v}^{self.k}"

    def derivs(self, t: float) -> tuple[float, float, float, float]:
        k = self.k
        out = []
        for d in range(4):
            c = 1.0
            for j in range(d):
                c *= k - j
            out.append(c * t ** (k - d) if k - d >= 0 else 0.0)
        return tuple(out)


class Lin:
    def __init__(self, p: float, q: float):
        self.p, self.q = p, q

    def text(self, v: str) -> str:
        return f"({self.p!r}*{v}+{self.q!r})"

    def derivs(self, t):
        return (self.p * t + self.q, self.p, 0.0, 0.0)


class ExpLin:
    def __init__(self, a: float):
        self.a = a

    def text(self, v):
        return f"exp({self.a!r}*{v})"

    def derivs(self, t):
        a = self.a
        e = math.exp(a * t)
        return (e, a * e, a * a * e, a * a * a * e)


class Sin:
    def __init__(self, b: float):
        self.b = b

    def text(self, v):
        return f"sin({self.b!r}*{v})"

    def derivs(self, t):
        b = self.b
        s, c = math.sin(b * t), math.cos(b * t)
        return (s, b * c, -b * b * s, -b * b * b * c)


class Cos:
    def __init__(self, b: float):
        self.b = b

    def text(self, v):
        return f"cos({self.b!r}*{v})"

    def derivs(self, t):
        b = self.b
        s, c = math.sin(b * t), math.cos(b * t)
        return (c, -b * s, -b * b * c, b * b * b * s)


class LnQ:
    """ln(c + t^2), c > 0."""

    def __init__(self, c: float):
        self.c = c

    def text(self, v):
        return f"ln({self.c!r}+{v}^2)"

    def derivs(self, t):
        c = self.c
        u = c + t * t
        return (
            math.log(u),
            2.0 * t / u,
            2.0 * (c - t * t) / (u * u),
            4.0 * t * (t * t - 3.0 * c) / (u * u * u),
        )


class SqrtQ:
    """sqrt(d + t^2), d > 0."""

    def __init__(self, d: float):
        self.d = d

    def text(self, v):
        return f"sqrt({self.d!r}+{v}^2)"

    def derivs(self, t):
        d = self.d
        u = d + t * t
        r = math.sqrt(u)
        return (r, t / r, d / (u * r), -3.0 * d * t / (u * u * r))


class InvSqrtQ:
    """1 / sqrt(d + t^2), written as a divisor: '/sqrt(d+t^2)'."""

    divisor = True

    def __init__(self, d: float):
        self.d = d

    def text(self, v):
        return f"sqrt({self.d!r}+{v}^2)"

    def derivs(self, t):
        d = self.d
        u = d + t * t
        r = math.sqrt(u)
        return (
            1.0 / r,
            -t / (u * r),
            (2.0 * t * t - d) / (u * u * r),
            3.0 * t * (3.0 * d - 2.0 * t * t) / (u * u * u * r),
        )


class ExpSq:
    """exp(t^2)."""

    def text(self, v):
        return f"exp({v}^2)"

    def derivs(self, t):
        e = math.exp(t * t)
        return (e, 2.0 * t * e, (2.0 + 4.0 * t * t) * e, (12.0 * t + 8.0 * t**3) * e)


class Quad:
    """c2 t^2 + c1 t + c0, any signs (the g(y) factor of the families)."""

    def __init__(self, c2: float, c1: float, c0: float):
        self.c2, self.c1, self.c0 = c2, c1, c0

    def derivs(self, t):
        return (
            (self.c2 * t + self.c1) * t + self.c0,
            2.0 * self.c2 * t + self.c1,
            2.0 * self.c2,
            0.0,
        )


class ShiftedRecip:
    """-(1/(c4 t + d9) + s): the x factor of Case31Candidate."""

    def __init__(self, c4: float, d9: float, s: float):
        self.c4, self.d9, self.s = c4, d9, s

    def derivs(self, t):
        c4 = self.c4
        r = 1.0 / (c4 * t + self.d9)
        return (-(r + self.s), c4 * r * r, -2.0 * c4 * c4 * r**3, 6.0 * c4**3 * r**4)


# -- terms and surfaces --------------------------------------------------------


class Term:
    """sign * coef * fx(x) * fy(y); coef None means an implicit 1."""

    def __init__(self, sign: int, coef_: float | None, fx=None, fy=None):
        self.sign, self.coef, self.fx, self.fy = sign, coef_, fx, fy

    def text(self) -> str:
        num: list[str] = [] if self.coef is None else [repr(self.coef)]
        den: list[str] = []
        for f, v in ((self.fx, "x"), (self.fy, "y")):
            if f is not None:
                (den if getattr(f, "divisor", False) else num).append(f.text(v))
        out = "*".join(num) if num else "1"
        for d in den:
            out += "/" + d
        return out

    def add_partials(self, x: float, y: float, vals: list, mags: list) -> None:
        c = self.sign * (1.0 if self.coef is None else self.coef)
        dx = self.fx.derivs(x) if self.fx is not None else (1.0, 0.0, 0.0, 0.0)
        dy = self.fy.derivs(y) if self.fy is not None else (1.0, 0.0, 0.0, 0.0)
        for k, (m, n) in enumerate(ORDERS):
            t = c * dx[m] * dy[n]
            vals[k] += t
            mags[k] += abs(t)


class ExpBilinear:
    """coef * exp(b*x*y), the one non-separable term."""

    def __init__(self, coef_: float, b: float):
        self.coef, self.b = coef_, b

    def text(self) -> str:
        return f"{self.coef!r}*exp({self.b!r}*x*y)"

    def add_partials(self, x, y, vals, mags):
        b = self.b
        e = self.coef * math.exp(b * x * y)
        b2, b3 = b * b, b * b * b
        terms = (
            e,
            b * y * e,
            b * x * e,
            b2 * y * y * e,
            (b + b2 * x * y) * e,
            b2 * x * x * e,
            b3 * y**3 * e,
            (2.0 * b2 * y + b3 * x * y * y) * e,
            (2.0 * b2 * x + b3 * x * x * y) * e,
            b3 * x**3 * e,
        )
        for k, t in enumerate(terms):
            vals[k] += t
            mags[k] += abs(t)


class Surface:
    def __init__(self, terms: list, text: str | None = None):
        self.terms = terms
        self._text = text

    @property
    def text(self) -> str:
        """The expression the program parses (family surfaces have none:
        the program builds those from the spec)."""
        if self._text is None:
            out = ""
            for t in self.terms:
                body = t.text()
                if getattr(t, "sign", 1) < 0:
                    out += "-" + body
                else:
                    out += ("+" if out else "") + body
            self._text = out
        return self._text

    def partials(self, x: float, y: float) -> tuple[list[float], list[float]]:
        """Values of the ten partials up to order three at (x, y), and the
        sums of absolute term contributions, which scale the tolerances."""
        vals = [0.0] * 10
        mags = [0.0] * 10
        for t in self.terms:
            t.add_partials(x, y, vals, mags)
        return vals, mags


# -- surface templates: fixed shapes, seeded coefficients ----------------------


def mixed(rng) -> Surface:
    """exp(a*x)*sin(b*y)+ln(c+x^2)/sqrt(d+y^2): 19 nodes, four transcendentals."""
    return Surface([
        Term(1, None, ExpLin(coef(rng, 0.2, 0.6)), Sin(coef(rng, 0.8, 1.5))),
        Term(1, None, LnQ(coef(rng, 1.5, 3.0)), InvSqrtQ(coef(rng, 2.0, 4.0))),
    ])


def quadratic(rng) -> Surface:
    return Surface([
        Term(1, coef(rng, 0.5, 2.0), Mono(2)),
        Term(1, coef(rng, 0.5, 2.0), None, Mono(2)),
    ])


def cubic(rng) -> Surface:
    return Surface([
        Term(1, coef(rng, 0.5, 2.0), Mono(3)),
        Term(1, coef(rng, 0.5, 2.0), None, Mono(3)),
    ])


def bilinear(rng) -> Surface:
    """(p*x+q)*(r*y+s): H = 0 and K = -(p*r)^2 everywhere, a W-surface."""
    return Surface([
        Term(1, None, Lin(coef(rng, 0.5, 2.0), coef(rng, 0.1, 1.0)),
             Lin(coef(rng, 0.5, 2.0), coef(rng, 0.1, 1.0))),
    ])


def exp_bilinear(rng) -> Surface:
    return Surface([
        ExpBilinear(coef(rng, 0.5, 1.5), coef(rng, 0.3, 1.2)),
        Term(1, coef(rng, 0.2, 1.0), Cos(coef(rng, 0.5, 1.5))),
    ])


def trig(rng) -> Surface:
    return Surface([
        Term(1, coef(rng, 0.5, 1.5), Sin(coef(rng, 0.5, 1.5)), Cos(coef(rng, 0.5, 1.5))),
        Term(1, coef(rng, 0.2, 1.0), Mono(2), Mono(1)),
    ])


def root_product(rng) -> Surface:
    return Surface([
        Term(1, None, SqrtQ(coef(rng, 1.0, 3.0)), SqrtQ(coef(rng, 1.0, 3.0))),
        Term(1, coef(rng, 0.2, 1.0), Mono(1), Mono(1)),
    ])


def quartic(rng) -> Surface:
    return Surface([
        Term(1, coef(rng, 0.2, 1.0), Mono(4)),
        Term(1, coef(rng, 0.2, 1.0), Mono(2), Mono(2)),
        Term(1, coef(rng, 0.2, 1.0), None, Mono(4)),
    ])


def log_exp(rng) -> Surface:
    return Surface([
        Term(1, None, LnQ(coef(rng, 1.0, 3.0)), ExpLin(coef(rng, 0.2, 0.8))),
        Term(-1, coef(rng, 0.2, 1.0), Mono(1), Mono(3)),
    ])


TEMPLATES = (mixed, quadratic, cubic, bilinear, exp_bilinear, trig, root_product, quartic, log_exp)


def rotational_exp() -> Surface:
    """exp(x^2+y^2): K and H are both functions of x^2+y^2, so the Jacobian
    d(K, H)/d(x, y) vanishes identically. Not seeded: the same surface in
    every run."""
    return Surface([Term(1, None, ExpSq(), ExpSq())], text="exp(x^2+y^2)")


def constant_euler() -> Surface:
    """x^2+0.62*y^2: its Euler defect is the constant (2 - 1.24)^2 = 0.5776
    at every node, so the exact standard deviation of a scan is 0, and the
    constant is not a short binary fraction, so sums of it round. Not
    seeded."""
    return Surface([Term(1, None, Mono(2)), Term(1, 0.62, None, Mono(2))], text="x^2+0.62*y^2")


# -- invariants and residuals from partials ------------------------------------


def second(vals):
    return vals[3], vals[4], vals[5]


def invariants(vals) -> tuple[float, float]:
    zxx, zxy, zyy = second(vals)
    return zxx * zyy - zxy * zxy, 0.5 * (zxx + zyy)


def euler_defect(vals) -> float:
    zxx, zxy, zyy = second(vals)
    d = zxx - zyy
    return d * d + 4.0 * zxy * zxy


def jacobian(vals) -> float:
    """Exact det d(K, H)/d(x, y) from the third partials."""
    zxx, zxy, zyy = second(vals)
    zxxx, zxxy, zxyy, zyyy = vals[6], vals[7], vals[8], vals[9]
    kx = zxxx * zyy + zxx * zxyy - 2.0 * zxy * zxxy
    ky = zxxy * zyy + zxx * zyyy - 2.0 * zxy * zxyy
    hx = 0.5 * (zxxx + zxyy)
    hy = 0.5 * (zxxy + zyyy)
    return kx * hy - ky * hx


# -- family specs with their own formulas --------------------------------------


class Family:
    """A family spec (the JSON the program reads), its surface written from
    the classification formulas, and the constant invariants those formulas
    give (None for the Case31Candidate negative control)."""

    def __init__(self, spec: dict, surface: Surface, K: float | None, H: float | None, pole: float | None = None):
        self.spec, self.surface, self.K, self.H, self.pole = spec, surface, K, H, pole


def family_specs(rng, step: float) -> list[Family]:
    """All six kinds, for a grid of the given step."""
    out = []
    f0, m0, n0 = coef(rng, 0.5, 2.0), coef(rng, 0.5, 2.0), coef(rng, 0.5, 2.0)
    d1, d2 = coef(rng, 0.1, 1.0), coef(rng, 0.1, 1.0)
    out.append(Family(
        {"kind": "CaseA", "f0": f0, "m0": m0, "n0": n0, "d1": d1, "d2": d2},
        Surface([Term(1, f0, None, Quad(n0 / (f0 * m0), d1, d2))]),
        0.0, n0 / m0))
    g0, m0, n0 = coef(rng, 0.5, 2.0), coef(rng, 0.5, 2.0), coef(rng, 0.5, 2.0)
    d3, d4 = coef(rng, 0.1, 1.0), coef(rng, 0.1, 1.0)
    out.append(Family(
        {"kind": "CaseB", "g0": g0, "m0": m0, "n0": n0, "d3": d3, "d4": d4},
        Surface([Term(1, g0, Quad(n0 / (g0 * m0), d3, d4))]),
        0.0, n0 / m0))
    c8, d15, c9, d16 = (coef(rng, 0.5, 2.0), coef(rng, 0.1, 1.0),
                        coef(rng, 0.5, 2.0), coef(rng, 0.1, 1.0))
    out.append(Family(
        {"kind": "CaseC", "c8": c8, "d15": d15, "c9": c9, "d16": d16},
        Surface([Term(1, None, Lin(c8, d15), Lin(c9, d16))]),
        -((c8 * c9) ** 2), 0.0))
    c3, d8, d9, d10 = (coef(rng, 0.5, 2.0), coef(rng, 0.1, 1.0),
                       coef(rng, 0.1, 1.0), coef(rng, 0.1, 1.0))
    out.append(Family(
        {"kind": "ParabolicSphere", "c3": c3, "d8": d8, "d9": d9, "d10": d10},
        Surface([Term(1, c3, Mono(2)), Term(1, c3, None, Mono(2)),
                 Term(1, d8, Mono(1)), Term(1, d9, None, Mono(1)), Term(1, d10)]),
        4.0 * c3 * c3, 2.0 * c3))
    p, q, r = coef(rng, 0.1, 2.0), coef(rng, 0.1, 2.0), coef(rng, 0.1, 2.0)
    out.append(Family(
        {"kind": "NonIsotropicPlane", "p": p, "q": q, "r": r},
        Surface([Term(1, p, Mono(1)), Term(1, q, None, Mono(1)), Term(1, r)]),
        0.0, 0.0))
    out.append(case31(rng, step))
    return out


def case31(rng, step: float) -> Family:
    """Case31Candidate, whose pole sits a seeded 0.3 to 0.45 of a grid step
    past a node near x = 0, so no node lies on the boundary of an exclusion
    zone whose radius is a whole or half number of steps."""
    c3, c4, d7, d8, m0 = (coef(rng, 0.5, 2.0), coef(rng, 1.0, 3.0), coef(rng, 0.1, 1.0),
                          coef(rng, 0.5, 2.0), coef(rng, 0.5, 2.0))
    pole = (rng.randint(-5, 5) + rng.uniform(0.3, 0.45)) * step
    d9 = -c4 * pole
    return Family(
        {"kind": "Case31Candidate", "c3": c3, "c4": c4, "d7": d7, "d8": d8, "d9": d9, "m0": m0},
        Surface([Term(1, None, ShiftedRecip(c4, d9, m0 / (2.0 * c3)), Quad(c3, d7, d8))]),
        None, None, pole=-d9 / c4)


# -- grids ----------------------------------------------------------------------


def axis(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


# -- ODE closed forms ---------------------------------------------------------------


def linear_force(c5: float, f0: float, fp0: float, t: float) -> float:
    """f'' = c5 f with f(0) = f0, f'(0) = fp0."""
    if c5 > 0.0:
        w = math.sqrt(c5)
        return f0 * math.cosh(w * t) + fp0 / w * math.sinh(w * t)
    w = math.sqrt(-c5)
    return f0 * math.cos(w * t) + fp0 / w * math.sin(w * t)


def shifted_recip(c3: float, c4: float, d9: float, m0: float, t: float) -> tuple[float, float]:
    """f = -(1/(c4 t + d9) + m0/(2 c3)) and f' = c4/(c4 t + d9)^2."""
    u = c4 * t + d9
    return -(1.0 / u + m0 / (2.0 * c3)), c4 / (u * u)


def saturated_energy(c5: float, d10: float, f: float, fp: float) -> float:
    """First integral of f'' = c5 f / (c5 d10 f + 1)."""
    return 0.5 * fp * fp - (f / d10 - math.log(abs(c5 * d10 * f + 1.0)) / (c5 * d10 * d10))
