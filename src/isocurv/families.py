"""Classified surface families: builders, predictions, verification.

Each family is a small parameter record that builds a closed-form factorable
surface as an expression tree, so the same parsing, printing, and jet
machinery applies to generated and hand-written surfaces alike.

Constant-curvature families (CaseA, CaseB, CaseC, ParabolicSphere,
NonIsotropicPlane) carry predictions that verify_family checks on a grid.
Case31Candidate is a negative control: a reciprocal-shift factor times a
quadratic factor that admits no constant linear relation between the
curvatures; its check is the contradiction scan, which shows the relation
residual varies along x.

The wire format is a JSON object with a "kind" discriminator matching the
class name and the numeric fields of that class, nothing else.
"""

from __future__ import annotations

import math

from .curvature import curvatures
from .domain import GridDomain
from .errors import (
    EmptyDomainError,
    InvalidSpecError,
    NoConstantPredictionError,
    NumericOverflowError,
    SingularPointError,
    asdict,
    record,
)
from .expr import Add, Const, Div, Expr, Mul, Neg, Pow, Sub, Var, eval_jet, num
from .weingarten import LWParams, ResidualReport, scan_grid, summarize


def _check(spec, *nonzero: str) -> None:
    """Refuse the first of spec's fields that is not finite, then the first
    of the nonzero ones that is zero, as "<kind> requires <name> != 0"."""
    for name in spec.__match_args__:
        if not math.isfinite(getattr(spec, name)):
            raise InvalidSpecError(f"field {name!r} must be finite")
    for name in nonzero:
        if getattr(spec, name) == 0.0:
            raise InvalidSpecError(f"{type(spec).__name__} requires {name} != 0")


@record
class CaseA:
    """Constant factor times quadratic factor: z = f0 * g(y) with
    g(y) = n0/(f0*m0) * y^2 + d1*y + d2. Flat, constant mean curvature."""

    f0: float
    m0: float
    n0: float
    d1: float
    d2: float

    def __post_init__(self):
        _check(self, "f0", "m0")
        if self.f0 * self.m0 == 0.0:  # n0 / (f0 * m0) builds the surface
            raise InvalidSpecError("CaseA requires f0 * m0 != 0")


@record
class CaseB:
    """Mirror of CaseA: z = f(x) * g0 with
    f(x) = n0/(g0*m0) * x^2 + d3*x + d4."""

    g0: float
    m0: float
    n0: float
    d3: float
    d4: float

    def __post_init__(self):
        _check(self, "g0", "m0")
        if self.g0 * self.m0 == 0.0:  # n0 / (g0 * m0) builds the surface
            raise InvalidSpecError("CaseB requires g0 * m0 != 0")


@record
class CaseC:
    """Product of linear factors: z = (c8*x + d15)(c9*y + d16). Minimal
    (H = 0) with constant negative K."""

    c8: float
    d15: float
    c9: float
    d16: float

    def __post_init__(self):
        _check(self, "c8", "c9")


@record
class ParabolicSphere:
    """z = c3*(x^2 + y^2) + d8*x + d9*y + d10; constant K = 4 c3^2 and
    H = 2 c3, so K = H^2."""

    c3: float
    d8: float
    d9: float
    d10: float

    def __post_init__(self):
        _check(self, "c3")


@record
class NonIsotropicPlane:
    """z = p*x + q*y + r; both curvatures vanish."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        _check(self)


@record
class Case31Candidate:
    """Negative control: z = f(x) g(y) with f(x) = -(1/(c4*x + d9) + m0/(2*c3))
    and g(y) = c3*y^2 + d7*y + d8. Singular along the vertical line
    x = -d9/c4; admits no constant linear relation between K and H."""

    c3: float
    c4: float
    d7: float
    d8: float
    d9: float
    m0: float

    def __post_init__(self):
        _check(self, "c3", "c4", "m0")


FamilySpec = CaseA | CaseB | CaseC | ParabolicSphere | NonIsotropicPlane | Case31Candidate


@record
class FamilyPrediction:
    """Constant invariants a family should exhibit, plus (when one exists)
    a linear Weingarten triple the surface satisfies identically."""

    K_expected: float
    H_expected: float
    lw: LWParams | None


# -- builders ----------------------------------------------------------------


def _term(coeff: float, factor: Expr | None) -> Expr:
    # The coefficient stays explicit even when it is 1 so printed surfaces
    # match the classification formulas shape for shape.
    if factor is None:
        return num(abs(coeff))
    return Mul(num(abs(coeff)), factor)


def _signed_sum(parts: list[tuple[float, Expr | None]]) -> Expr:
    """Sum of coeff*factor terms; zero coefficients drop, negatives attach
    through Sub/Neg so constants stay in parse normal form."""
    acc: Expr | None = None
    for coeff, factor in parts:
        if coeff == 0.0:
            continue
        term = _term(coeff, factor)
        if acc is None:
            acc = Neg(term) if coeff < 0.0 else term
        else:
            acc = Sub(acc, term) if coeff < 0.0 else Add(acc, term)
    return acc if acc is not None else Const(0.0)


def build(spec: FamilySpec) -> Expr:
    """Closed-form surface of a family spec, as an expression tree."""
    match spec:
        case CaseA(f0=f0, m0=m0, n0=n0, d1=d1, d2=d2):
            g = _signed_sum([(n0 / (f0 * m0), Pow(Var("y"), 2.0)), (d1, Var("y")), (d2, None)])
            return Mul(num(f0), g)
        case CaseB(g0=g0, m0=m0, n0=n0, d3=d3, d4=d4):
            f = _signed_sum([(n0 / (g0 * m0), Pow(Var("x"), 2.0)), (d3, Var("x")), (d4, None)])
            return Mul(f, num(g0))
        case CaseC(c8=c8, d15=d15, c9=c9, d16=d16):
            return Mul(
                _signed_sum([(c8, Var("x")), (d15, None)]),
                _signed_sum([(c9, Var("y")), (d16, None)]),
            )
        case ParabolicSphere(c3=c3, d8=d8, d9=d9, d10=d10):
            return _signed_sum(
                [
                    (c3, Add(Pow(Var("x"), 2.0), Pow(Var("y"), 2.0))),
                    (d8, Var("x")),
                    (d9, Var("y")),
                    (d10, None),
                ]
            )
        case NonIsotropicPlane(p=p, q=q, r=r):
            return _signed_sum([(p, Var("x")), (q, Var("y")), (r, None)])
        case Case31Candidate(c3=c3, c4=c4, d7=d7, d8=d8, d9=d9, m0=m0):
            denom = _signed_sum([(c4, Var("x")), (d9, None)])
            shift = m0 / (2.0 * c3)
            recip = Div(Const(1.0), denom)
            inner = (
                Add(recip, Const(shift))
                if shift > 0.0
                else Sub(recip, Const(-shift))
            )
            f = Neg(inner)
            g = _signed_sum([(c3, Pow(Var("y"), 2.0)), (d7, Var("y")), (d8, None)])
            return Mul(f, g)
        case _:
            raise InvalidSpecError(f"not a family spec: {spec!r}")


def singular_loci(spec: FamilySpec) -> tuple[float, ...]:
    """Abscissas c of the lines x = c that a grid must avoid for this family."""
    if isinstance(spec, Case31Candidate):
        return (-spec.d9 / spec.c4,)
    return ()


def predict(spec: FamilySpec) -> FamilyPrediction:
    """Constant invariants of the family. Case31Candidate has none and
    raises NoConstantPredictionError; use the contradiction scan for it.

    CaseA/CaseB surfaces are flat with H = n0/m0 and satisfy the relation
    m0*H + K = n0 identically; that triple is returned so callers can check
    the relation in normalized form. CaseC is minimal with constant K, and
    any mean-curvature coefficient paired with n0 = K fits, so no single
    triple is singled out. A constant that overflows raises
    NumericOverflowError.
    """
    match spec:
        case CaseA(m0=m0, n0=n0) | CaseB(m0=m0, n0=n0):
            prediction = FamilyPrediction(
                K_expected=0.0,
                H_expected=n0 / m0,
                lw=LWParams(a=m0, b=1.0, c=n0),
            )
        case CaseC(c8=c8, c9=c9):
            try:
                K = -((c8 * c9) ** 2)
            except OverflowError:  # float ** raises where * gives inf
                K = -math.inf
            prediction = FamilyPrediction(K_expected=K, H_expected=0.0, lw=None)
        case ParabolicSphere(c3=c3):
            prediction = FamilyPrediction(
                K_expected=4.0 * c3 * c3, H_expected=2.0 * c3, lw=None
            )
        case NonIsotropicPlane():
            prediction = FamilyPrediction(K_expected=0.0, H_expected=0.0, lw=None)
        case Case31Candidate():
            raise NoConstantPredictionError(
                "family has no constant prediction; run the contradiction scan"
            )
        case _:
            raise InvalidSpecError(f"not a family spec: {spec!r}")
    for name, value in (("K", prediction.K_expected), ("H", prediction.H_expected)):
        if not math.isfinite(value):
            raise NumericOverflowError(f"predicted {name} = {value!r} of {type(spec).__name__} overflows")
    return prediction


def verify_family(spec: FamilySpec, domain: GridDomain | None = None) -> ResidualReport:
    """Max deviation of sampled (K, H) from the family's predicted constants.

    Raises NoConstantPredictionError for Case31Candidate, as predict does.
    """
    prediction = predict(spec)
    surface = build(spec)
    if domain is None:
        domain = GridDomain()
    k_exp = prediction.K_expected
    h_exp = prediction.H_expected

    def deviation(s: Expr, x: float, y: float) -> float:
        pair = curvatures(eval_jet(s, (x, y)))
        dk = abs(pair.K - k_exp)
        dh = abs(pair.H - h_exp)
        # max(dk, dh) would drop a NaN dh; summarize refuses a NaN by its node.
        return dh if dh > dk or dh != dh else dk

    return scan_grid(surface, domain, deviation)


def case31_residual(spec: Case31Candidate, n0: float, x: float) -> float:
    """Relation defect of the candidate surface as a closed form in x alone:

        c4^2 (4 c3 d8 - d7^2) / (c4 x + d9)^4 - 2 m0 c3 / (c4 x + d9)
            - m0^2 - n0

    This equals the pointwise residual of 2 m0 H + K = n0 on the built
    surface (y drops out). A relation would need it to vanish identically;
    with d7 = d8 = 0 it is strictly monotone in x, so it cannot.
    """
    t = spec.c4 * x + spec.d9
    if t == 0.0:
        raise SingularPointError(f"sample x = {x!r} hits the pole")
    lead = spec.c4 * spec.c4 * (4.0 * spec.c3 * spec.d8 - spec.d7 * spec.d7)
    try:
        return lead / t**4 - 2.0 * spec.m0 * spec.c3 / t - spec.m0 * spec.m0 - n0
    except (OverflowError, ZeroDivisionError):  # t**4 overflows, or underflows to 0.0
        raise NumericOverflowError(f"relation defect overflows at sample x = {x!r}") from None


def case31_contradiction_scan(
    spec: Case31Candidate, n0: float, xs: list[float]
) -> ResidualReport:
    """Statistics of the relation defect over sample abscissas.

    A strictly positive std_dev over at least 3 samples shows the defect is
    non-constant, i.e. no constant n0 can close the relation.
    """
    if not isinstance(spec, Case31Candidate):
        raise InvalidSpecError("contradiction scan applies to Case31Candidate only")
    if not xs:
        raise EmptyDomainError("no sample abscissas given")
    values = [case31_residual(spec, n0, x) for x in xs]
    points = [(x, 0.0) for x in xs]
    return summarize(values, points)


def case31_rounding_bound(spec: Case31Candidate, n0: float, xs: list[float]) -> float:
    """The largest std_dev that rounding alone can give the defects that
    case31_residual computes at xs. A scan of them shows the defect to be
    non-constant, which is the contradiction, only when its std_dev
    exceeds this bound over at least 3 samples.

    Were the exact defect one constant c at the abscissas t the scan
    computed (rounding in t moves a sample along x, where a constant stays
    constant), every computed defect would lie within E of c, so their
    population std_dev would be at most E. To first order in u = 2^-53,
    E <= 10 u S, where S is the largest sum of the terms' magnitudes

        A + B + C + |n0|,  A = c4^2 (4 |c3 d8| + d7^2) / t^4,
                           B = |2 m0 c3 / t|,  C = m0^2,

    at a sample: lead / t**4 is off by at most 7 u A (4 u from the
    products and the difference 4 c3 d8 - d7^2, which may cancel; 2 u
    from pow, under 1 ulp; u from the quotient), the middle term by 2 u B,
    m0 * m0 by u C, and each of the three subtractions by u of its
    result, at most u S. The bound is 16 u S, which also covers the few
    ulps summarize adds to std_dev. It is relative to S, not to the
    largest |defect|: where the terms cancel to a defect near 0, the
    noise stays of size u S and can reach the largest |defect|.
    """
    lead = spec.c4 * spec.c4 * (4.0 * abs(spec.c3 * spec.d8) + spec.d7 * spec.d7)
    middle = abs(2.0 * spec.m0 * spec.c3)
    rest = spec.m0 * spec.m0 + abs(n0)
    scale = max(lead / t**4 + middle / abs(t) + rest for t in (spec.c4 * x + spec.d9 for x in xs))
    return 2.0**-49 * scale


# -- JSON wire format --------------------------------------------------------

_KINDS: dict[str, type] = {cls.__name__: cls for cls in FamilySpec.__args__}


def spec_to_dict(spec: FamilySpec) -> dict:
    return {"kind": type(spec).__name__, **asdict(spec)}


def spec_from_dict(data: object) -> FamilySpec:
    """Strict decoder of the wire form: unknown kinds, unknown fields,
    missing fields and non-numeric values are errors. The record refuses
    its own non-finite or zero fields."""
    if not isinstance(data, dict):
        raise InvalidSpecError("family spec must be a JSON object")
    kind = data.get("kind")
    if kind is None:
        raise InvalidSpecError("family spec needs a 'kind' field")
    cls = _KINDS.get(kind)
    if cls is None:
        raise InvalidSpecError(f"unknown family kind {kind!r}")
    expected = set(cls.__match_args__)
    given = set(data) - {"kind"}
    if given != expected:
        missing = sorted(expected - given)
        extra = sorted(given - expected)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unknown {extra}")
        raise InvalidSpecError(f"bad fields for {kind}: " + ", ".join(detail))
    kwargs = {}
    for name in cls.__match_args__:
        value = data[name]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InvalidSpecError(f"field {name!r} must be a number")
        # json reads integers of any size, which the record refuses as inf.
        try:
            kwargs[name] = float(value)
        except OverflowError:
            kwargs[name] = math.inf
    return cls(**kwargs)
