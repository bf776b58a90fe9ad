"""Family builders, predictions, verification, and the JSON wire format."""

import math

import pytest

from isocurv import families
from isocurv.curvature import CurvaturePair

from isocurv import (
    Case31Candidate,
    CaseA,
    CaseB,
    CaseC,
    EmptyDomainError,
    GridDomain,
    InvalidSpecError,
    LWParams,
    NoConstantPredictionError,
    NonIsotropicPlane,
    NumericOverflowError,
    ParabolicSphere,
    SingularPointError,
    build,
    case31_contradiction_scan,
    case31_residual,
    case31_rounding_bound,
    curvatures,
    eval_jet,
    eval_value,
    lw_residual,
    normalize,
    parse,
    predict,
    singular_loci,
    spec_from_dict,
    spec_to_dict,
    to_string,
    verify_family,
)

SPEC_A = CaseA(f0=1.0, m0=1.0, n0=2.0, d1=0.0, d2=0.0)
SPEC_C = CaseC(c8=2.0, d15=1.0, c9=3.0, d16=4.0)
SPEC_31 = Case31Candidate(c3=1.0, c4=1.0, d7=0.0, d8=0.0, d9=0.0, m0=1.0)


# -- validation ------------------------------------------------------------------


def test_family_parameter_validation():
    with pytest.raises(InvalidSpecError):
        CaseA(f0=0.0, m0=1.0, n0=1.0, d1=0.0, d2=0.0)
    with pytest.raises(InvalidSpecError):
        CaseA(f0=1.0, m0=0.0, n0=1.0, d1=0.0, d2=0.0)
    with pytest.raises(InvalidSpecError):
        CaseB(g0=0.0, m0=1.0, n0=1.0, d3=0.0, d4=0.0)
    with pytest.raises(InvalidSpecError):
        CaseB(g0=1.0, m0=0.0, n0=1.0, d3=0.0, d4=0.0)
    with pytest.raises(InvalidSpecError):
        CaseC(c8=0.0, d15=0.0, c9=1.0, d16=0.0)
    with pytest.raises(InvalidSpecError):
        CaseC(c8=1.0, d15=0.0, c9=0.0, d16=0.0)
    with pytest.raises(InvalidSpecError):
        ParabolicSphere(c3=0.0, d8=0.0, d9=0.0, d10=0.0)
    for field in ("c3", "c4", "m0"):
        kwargs = dict(c3=1.0, c4=1.0, d7=0.0, d8=0.0, d9=0.0, m0=1.0)
        kwargs[field] = 0.0
        with pytest.raises(InvalidSpecError):
            Case31Candidate(**kwargs)
    # the plane is unconstrained, even fully degenerate
    NonIsotropicPlane(p=0.0, q=0.0, r=0.0)


# -- builders ----------------------------------------------------------------------


def test_build_strings_match_classification_shapes():
    assert to_string(build(SPEC_A)) == "1*(2*y^2)"
    assert to_string(build(SPEC_C)) == "(2*x+1)*(3*y+4)"
    assert (
        to_string(build(ParabolicSphere(c3=0.5, d8=0.0, d9=0.0, d10=0.0)))
        == "0.5*(x^2+y^2)"
    )
    assert to_string(build(SPEC_31)) == "-(1/(1*x)+0.5)*(1*y^2)"
    assert to_string(build(NonIsotropicPlane(p=0.0, q=0.0, r=0.0))) == "0"


def test_built_expressions_reparse_exactly():
    specs = [
        SPEC_A,
        CaseA(f0=2.0, m0=1.0, n0=-4.0, d1=-1.0, d2=3.0),
        CaseB(g0=3.0, m0=2.0, n0=6.0, d3=0.5, d4=-1.0),
        SPEC_C,
        ParabolicSphere(c3=-1.5, d8=1.0, d9=-2.0, d10=0.25),
        NonIsotropicPlane(p=-2.0, q=0.0, r=3.0),
        SPEC_31,
        Case31Candidate(c3=1.5, c4=2.0, d7=1.0, d8=2.0, d9=0.5, m0=-3.0),
    ]
    for spec in specs:
        tree = build(spec)
        assert parse(to_string(tree)) == tree


def test_build_evaluates_to_the_closed_form():
    # z = 2 * (-2 y^2 - y + 3) for f0=2, n0/(f0 m0) = -2, d1=-1, d2=3
    surface = build(CaseA(f0=2.0, m0=1.0, n0=-4.0, d1=-1.0, d2=3.0))
    for y in (-1.0, 0.0, 0.7):
        assert eval_value(surface, (9.9, y)) == 2.0 * (-2.0 * y * y - y + 3.0)
    plane = build(NonIsotropicPlane(p=-2.0, q=0.0, r=3.0))
    assert eval_value(plane, (1.5, 44.0)) == 0.0
    candidate = build(SPEC_31)
    # f(x) = -(1/x + 1/2), g(y) = y^2
    assert eval_value(candidate, (2.0, 3.0)) == -(0.5 + 0.5) * 9.0


# -- predictions -------------------------------------------------------------------


def test_predictions():
    pa = predict(SPEC_A)
    assert (pa.K_expected, pa.H_expected) == (0.0, 2.0)
    assert pa.lw == LWParams(a=1.0, b=1.0, c=2.0)

    pb = predict(CaseB(g0=3.0, m0=2.0, n0=6.0, d3=0.5, d4=-1.0))
    assert (pb.K_expected, pb.H_expected) == (0.0, 3.0)
    assert pb.lw == LWParams(a=2.0, b=1.0, c=6.0)

    pc = predict(SPEC_C)
    assert (pc.K_expected, pc.H_expected) == (-36.0, 0.0)
    assert pc.lw is None

    ps = predict(ParabolicSphere(c3=-1.5, d8=1.0, d9=-2.0, d10=0.25))
    assert (ps.K_expected, ps.H_expected) == (9.0, -3.0)

    pp = predict(NonIsotropicPlane(p=1.0, q=2.0, r=3.0))
    assert (pp.K_expected, pp.H_expected) == (0.0, 0.0)

    with pytest.raises(NoConstantPredictionError, match="run the contradiction scan"):
        predict(SPEC_31)


def test_prediction_relation_holds_identically():
    # The attached triple closes on the sampled invariants, and stays
    # closed after normalization to the 2 m0 H + K = n0 form.
    spec = CaseA(f0=2.0, m0=1.0, n0=-4.0, d1=-1.0, d2=3.0)
    prediction = predict(spec)
    surface = build(spec)
    norm = normalize(prediction.lw)
    for p in ((0.0, 0.0), (0.3, -0.9), (-1.0, 1.0)):
        pair = curvatures(eval_jet(surface, p))
        assert lw_residual(pair, prediction.lw) == 0.0
        assert 2.0 * norm.m0 * pair.H + pair.K - norm.n0 == 0.0


# -- verification ------------------------------------------------------------------


SMALL = GridDomain(nx=11, ny=11)


def test_verify_family_constant_families_are_exact():
    assert verify_family(SPEC_A).max_abs == 0.0  # default domain
    for spec in (
        CaseA(f0=2.0, m0=1.0, n0=-4.0, d1=-1.0, d2=3.0),
        CaseB(g0=3.0, m0=2.0, n0=6.0, d3=0.5, d4=-1.0),
        SPEC_C,
        ParabolicSphere(c3=0.5, d8=1.0, d9=-2.0, d10=3.0),
        NonIsotropicPlane(p=2.0, q=-3.0, r=1.0),
    ):
        report = verify_family(spec, SMALL)
        assert report.max_abs == 0.0
        assert report.n_samples == 121


def test_an_overflowing_prediction_is_refused():
    # K = 4 c3^2 is inf, and so is the sampled K: inf - inf would be NaN.
    spec = ParabolicSphere(1e200, 0.0, 0.0, 0.0)
    with pytest.raises(NumericOverflowError, match=r"predicted K = inf of ParabolicSphere overflows"):
        predict(spec)
    with pytest.raises(NumericOverflowError, match="predicted K = inf"):
        verify_family(spec, GridDomain(nx=3, ny=3))
    with pytest.raises(NumericOverflowError, match="predicted H = inf"):
        predict(CaseA(f0=1.0, m0=1e-300, n0=1e300, d1=0.0, d2=0.0))
    # CaseC's float ** raises OverflowError where * would give inf.
    with pytest.raises(NumericOverflowError, match=r"predicted K = -inf of CaseC overflows"):
        predict(CaseC(c8=1e200, d15=1.0, c9=3.0, d16=4.0))


@pytest.mark.parametrize("field", ["K", "H"])
def test_a_nan_deviation_is_refused_at_its_node(monkeypatch, field):
    # max(0.0, nan) is 0.0: a NaN in either invariant once passed as exact.
    def nan_at_the_centre(j):
        pair = curvatures(j)
        if j.v != 1.0:  # z = 0.5 (x^2 + y^2) + 1 is 1 only at (0, 0)
            return pair
        return CurvaturePair(**{"K": pair.K, "H": pair.H, field: math.nan})

    monkeypatch.setattr(families, "curvatures", nan_at_the_centre)
    with pytest.raises(NumericOverflowError, match=r"non-finite residual nan at \(x, y\) = \(0.0, 0.0\)"):
        verify_family(ParabolicSphere(0.5, 0.0, 0.0, 1.0), GridDomain(nx=3, ny=3))


def test_verify_family_rejects_candidate_kind():
    with pytest.raises(NoConstantPredictionError):
        verify_family(SPEC_31, SMALL)


def test_verify_family_empty_domain():
    blocked = GridDomain(
        nx=3, ny=3, exclusion_radius=10.0, singular_loci=(0.0,)
    )
    with pytest.raises(EmptyDomainError):
        verify_family(SPEC_A, blocked)


@pytest.mark.parametrize("fn", [build, predict])
def test_what_is_not_a_spec_is_refused(fn):
    with pytest.raises(InvalidSpecError, match="not a family spec: GridDomain"):
        fn(GridDomain())


def test_singular_loci():
    assert singular_loci(SPEC_A) == ()
    assert singular_loci(SPEC_C) == ()
    spec = Case31Candidate(c3=1.0, c4=2.0, d7=0.0, d8=0.0, d9=4.0, m0=1.0)
    assert singular_loci(spec) == (-2.0,)


# -- the contradiction scan --------------------------------------------------------


def test_case31_residual_closed_form_values():
    # With c3 = c4 = m0 = 1 and the offsets zero: -2/x - 1 - n0.
    assert case31_residual(SPEC_31, 0.0, 0.5) == -5.0
    assert case31_residual(SPEC_31, 0.0, 1.0) == -3.0
    assert case31_residual(SPEC_31, 0.0, 2.0) == -2.0
    # a nonzero n0 just shifts the defect, which stays non-constant
    assert case31_residual(SPEC_31, -1.0, 1.0) == -2.0


def test_case31_residual_pole():
    with pytest.raises(SingularPointError):
        case31_residual(SPEC_31, 0.0, 0.0)
    with pytest.raises(SingularPointError):
        case31_residual(SPEC_31, 0.0, 1e-13)


def test_case31_residual_matches_surface_pipeline():
    # The closed form must agree with the generic residual machinery on
    # the built surface, and be independent of y.
    specs = [
        SPEC_31,
        Case31Candidate(c3=1.5, c4=2.0, d7=1.0, d8=2.0, d9=0.5, m0=-3.0),
    ]
    n0 = 0.25
    for spec in specs:
        surface = build(spec)
        params = LWParams(a=2.0 * spec.m0, b=1.0, c=n0)
        for x in (0.3, 1.0, -1.0):
            closed = case31_residual(spec, n0, x)
            for y in (0.0, 0.7, -1.3):
                pair = curvatures(eval_jet(surface, (x, y)))
                sampled = lw_residual(pair, params)
                assert sampled == pytest.approx(closed, rel=1e-10, abs=1e-10)


def test_case31_pipeline_pin():
    surface = build(SPEC_31)
    pair = curvatures(eval_jet(surface, (1.0, 2.0)))
    assert 2.0 * pair.H + pair.K == pytest.approx(-3.0, rel=1e-14)


def test_contradiction_scan_statistics():
    report = case31_contradiction_scan(SPEC_31, 0.0, [0.5, 1.0, 2.0])
    assert report.n_samples == 3
    assert report.max_abs == 5.0
    assert report.worst_point == (0.5, 0.0)
    assert report.mean_abs == pytest.approx(10.0 / 3.0, rel=1e-15)
    assert report.std_dev == pytest.approx(math.sqrt(14.0) / 3.0, rel=1e-14)
    assert report.std_dev > 0.0  # the defect is not constant: no relation


def test_contradiction_needs_a_spread_above_rounding():
    # S = 2/0.5 + 1 at x = 0.5, the largest sum of term magnitudes.
    assert case31_rounding_bound(SPEC_31, 0.0, [0.5, 1.0, 2.0]) == 5.0 * 2.0**-49
    # Three abscissas an ulp or two apart: the spread is rounding noise,
    # about 1e-16 against a defect of 1.8, and shows nothing.
    spec = Case31Candidate(c3=1.0, c4=1.0, d7=0.0, d8=0.0, d9=2.0, m0=1.0)
    xs = GridDomain(0.5, 0.5000000000000003, -1.0, 1.0, nx=3, ny=3).xs()
    for n0 in (0.0, -1.8):  # -1.8 cancels the defect to about 1e-16 itself
        report = case31_contradiction_scan(spec, n0, xs)
        assert 0.0 < report.std_dev <= case31_rounding_bound(spec, n0, xs)
    # Noise only, yet std_dev is over 0.4 of max |defect|: no bound relative
    # to max |defect| alone could refuse it.
    assert report.std_dev > 0.4 * report.max_abs
    # A spread of order one is far above it.
    report = case31_contradiction_scan(spec, 0.0, [-1.0, 0.0, 1.0])
    assert report.std_dev > 1e12 * case31_rounding_bound(spec, 0.0, [-1.0, 0.0, 1.0])


def test_contradiction_scan_single_sample_is_inconclusive():
    report = case31_contradiction_scan(SPEC_31, 0.0, [1.0])
    assert report.std_dev == 0.0


def test_contradiction_scan_rejects_bad_input():
    with pytest.raises(EmptyDomainError):
        case31_contradiction_scan(SPEC_31, 0.0, [])
    with pytest.raises(InvalidSpecError):
        case31_contradiction_scan(SPEC_A, 0.0, [1.0])
    with pytest.raises(SingularPointError):
        case31_contradiction_scan(SPEC_31, 0.0, [1.0, 0.0])


# -- JSON wire format --------------------------------------------------------------


def test_spec_to_dict():
    assert spec_to_dict(SPEC_A) == {
        "kind": "CaseA",
        "f0": 1.0,
        "m0": 1.0,
        "n0": 2.0,
        "d1": 0.0,
        "d2": 0.0,
    }


def test_spec_round_trip_all_kinds():
    specs = [
        SPEC_A,
        CaseB(g0=3.0, m0=2.0, n0=6.0, d3=0.5, d4=-1.0),
        SPEC_C,
        ParabolicSphere(c3=-1.5, d8=1.0, d9=-2.0, d10=0.25),
        NonIsotropicPlane(p=-2.0, q=0.0, r=3.0),
        Case31Candidate(c3=1.5, c4=2.0, d7=1.0, d8=2.0, d9=0.5, m0=-3.0),
    ]
    for spec in specs:
        assert spec_from_dict(spec_to_dict(spec)) == spec


def test_spec_from_dict_accepts_integer_literals():
    spec = spec_from_dict({"kind": "NonIsotropicPlane", "p": 1, "q": 2, "r": 3})
    assert spec == NonIsotropicPlane(p=1.0, q=2.0, r=3.0)
    assert isinstance(spec.p, float)


def test_spec_from_dict_is_strict():
    with pytest.raises(InvalidSpecError):
        spec_from_dict(["CaseA"])
    with pytest.raises(InvalidSpecError):
        spec_from_dict({"f0": 1.0})  # no kind
    with pytest.raises(InvalidSpecError):
        spec_from_dict({"kind": "CaseZ"})
    base = spec_to_dict(SPEC_A)
    missing = dict(base)
    del missing["d2"]
    with pytest.raises(InvalidSpecError) as exc_info:
        spec_from_dict(missing)
    assert "missing" in str(exc_info.value)
    extra = dict(base, zz=1.0)
    with pytest.raises(InvalidSpecError) as exc_info:
        spec_from_dict(extra)
    assert "unknown" in str(exc_info.value)
    with pytest.raises(InvalidSpecError):
        spec_from_dict(dict(base, d2="0.0"))
    with pytest.raises(InvalidSpecError):
        spec_from_dict(dict(base, d2=True))


@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, 10**400, -(10**400)], ids=["inf", "-inf", "nan", "1e400", "-1e400"]
)
def test_spec_from_dict_refuses_a_non_finite_field_by_name(bad):
    with pytest.raises(InvalidSpecError, match="^field 'd9' must be finite$"):
        spec_from_dict(dict(spec_to_dict(SPEC_31), d9=bad))
    # Fields are checked in their declared order: c3 comes before m0.
    with pytest.raises(InvalidSpecError, match="^field 'c3' must be finite$"):
        spec_from_dict(dict(spec_to_dict(SPEC_31), m0=bad, c3=bad))


def test_spec_from_dict_runs_family_validation():
    bad = dict(spec_to_dict(SPEC_A), f0=0.0)
    with pytest.raises(InvalidSpecError):
        spec_from_dict(bad)
