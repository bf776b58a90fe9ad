"""Every record class behaves as the dataclass(frozen=True, slots=True) it
replaced. Each is checked against a dataclass twin made from FIELDS, the
fields and defaults the records had as dataclasses."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from isocurv import curvature, domain, errors, expr, families, jet, mesh, ode, oracle, weingarten
from isocurv.errors import InvalidSpecError

MODULES = (curvature, domain, expr, families, jet, mesh, ode, oracle, weingarten)
X, Y = expr.Var("x"), expr.Var("y")

# Each record class with the arguments of one valid instance.
SAMPLES = {
    curvature.CurvaturePair: (1.0, 2.0),
    domain.GridDomain: (-1.0, 1.0, -2.0, 2.0, 3, 4, 0.1, (0.5,)),
    expr.Const: (1.5,),
    expr.Var: ("x",),
    expr.Neg: (X,),
    expr.Add: (X, Y),
    expr.Sub: (X, Y),
    expr.Mul: (X, Y),
    expr.Div: (X, Y),
    expr.Pow: (X, 2.0),
    expr.Exp: (X,),
    expr.Ln: (X,),
    expr.Sin: (X,),
    expr.Cos: (X,),
    expr.Sqrt: (X,),
    expr._Token: ("num", "1", 0),
    families.CaseA: (1.0, 2.0, 3.0, 0.0, 0.5),
    families.CaseB: (1.0, 2.0, 3.0, 0.0, 0.5),
    families.CaseC: (1.0, 0.0, 2.0, 0.5),
    families.ParabolicSphere: (1.0, 0.0, 0.5, 2.0),
    families.NonIsotropicPlane: (1.0, 2.0, 3.0),
    families.Case31Candidate: (1.0, 2.0, 0.0, 0.5, 0.0, 1.0),
    families.FamilyPrediction: (0.0, 1.0, weingarten.LWParams(0.0, 1.0, 2.0)),
    jet.Jet2: (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
    jet.Jet3: (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
    jet.Jet1: (1.0, 2.0, 3.0),
    mesh.MeshStats: (4, 2),
    ode.ShiftedReciprocalODE: (1.0, 2.0),
    ode.SaturatedLinearODE: (1.0, 0.0),
    ode.IVP: (ode.SaturatedLinearODE(1.0, 0.0), 0.0, 1.0, 0.0, 1.0, 0.1),
    oracle.JetComparison: ({"v": 0.0}, ("dx",), 1e-6),
    weingarten.LWParams: (0.0, 1.0, 2.0),
    weingarten.NormalizedLW: (1.0, 2.0),
    weingarten.ResidualReport: (4, 1.0, 0.5, 0.25, (0.0, 1.0)),
}

# The dataclass fields of each record, in order; a default follows "=".
FIELDS = {
    "CurvaturePair": "K H",
    "GridDomain": "x_min=-1.0 x_max=1.0 y_min=-1.0 y_max=1.0 nx=101 ny=101 "
    "exclusion_radius=0.0 singular_loci=()",
    "Const": "value",
    "Var": "name",
    **dict.fromkeys(("Neg", "Exp", "Ln", "Sin", "Cos", "Sqrt"), "arg"),
    **dict.fromkeys(("Add", "Sub", "Mul", "Div"), "left right"),
    "Pow": "base exponent",
    "_Token": "kind text offset",
    "CaseA": "f0 m0 n0 d1 d2",
    "CaseB": "g0 m0 n0 d3 d4",
    "CaseC": "c8 d15 c9 d16",
    "ParabolicSphere": "c3 d8 d9 d10",
    "NonIsotropicPlane": "p q r",
    "Case31Candidate": "c3 c4 d7 d8 d9 m0",
    "FamilyPrediction": "K_expected H_expected lw",
    "Jet2": "v dx=0.0 dy=0.0 dxx=0.0 dxy=0.0 dyy=0.0",
    "Jet3": "v dx=0.0 dy=0.0 dxx=0.0 dxy=0.0 dyy=0.0 dxxx=0.0 dxxy=0.0 dxyy=0.0 dyyy=0.0",
    "Jet1": "v d=0.0 dd=0.0",
    "MeshStats": "n_vertices n_triangles",
    "ShiftedReciprocalODE": "c3 m0",
    "SaturatedLinearODE": "c5 d10",
    "IVP": "rhs t0 f0 fp0 t_end step",
    "JetComparison": "deviations flagged=() tol_rel=0.0",
    "LWParams": "a b c",
    "NormalizedLW": "m0 n0",
    "ResidualReport": "n_samples max_abs mean_abs std_dev worst_point",
}
UNCOMPARED = {"JetComparison": {"deviations"}}
RECORDS = list(SAMPLES)


def fields(cls) -> list[tuple[str, object]]:
    """(name, default) of each dataclass field of cls; MISSING if none."""
    return [
        (name, eval(default[0]) if default else dataclasses.MISSING)
        for name, *default in (f.split("=") for f in FIELDS[cls.__name__].split())
    ]


def twin(cls) -> type:
    """The dataclass the record class cls was, without its methods."""
    return dataclasses.make_dataclass(
        cls.__name__,
        [
            (name, object, dataclasses.field(
                default=default, compare=name not in UNCOMPARED.get(cls.__name__, ())))
            for name, default in fields(cls)
        ],
        frozen=True,
        slots=True,
    )


def test_every_record_class_is_checked():
    found = {
        obj
        for module in MODULES
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and "__match_args__" in vars(obj)
    }
    assert found == set(SAMPLES)
    assert len(found) == len(FIELDS) == 34


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_signature_and_match_args_are_the_dataclass_ones(cls):
    def params(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(twin(cls))
    assert cls.__match_args__ == twin(cls).__match_args__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_are_frozen_and_slotted(cls):
    r = cls(*SAMPLES[cls])
    for name in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(r, name, 0.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(r, name)
    with pytest.raises(AttributeError):
        r.not_a_field = 0.0
    assert not hasattr(r, "__dict__")
    assert [getattr(r, n) for n in cls.__match_args__] == list(SAMPLES[cls])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_eq_hash_repr_and_asdict_are_the_dataclass_ones(cls):
    r, same, t = cls(*SAMPLES[cls]), cls(*SAMPLES[cls]), twin(cls)(*SAMPLES[cls])
    assert r == same and not r != same
    assert hash(r) == hash(same) == hash(t)
    assert repr(r) == repr(t)
    assert errors.asdict(r) == dataclasses.asdict(t)
    # A record of another class is never equal, whatever its fields.
    assert r.__eq__(t) is NotImplemented
    assert r != t


def test_records_of_different_classes_differ():
    assert expr.Add(X, Y) != expr.Sub(X, Y)
    assert jet.Jet3(1.0) != jet.Jet2(1.0)
    assert jet.Jet2(1.0) == jet.Jet2(1.0, 0.0, dyy=0.0)
    assert expr.Add(X, Y) != expr.Add(Y, X)


def test_jet_repr_text():
    assert repr(jet.Jet2(1.0)) == "Jet2(v=1.0, dx=0.0, dy=0.0, dxx=0.0, dxy=0.0, dyy=0.0)"


def test_jet_comparison_ignores_deviations():
    a = oracle.JetComparison({"v": 1.0}, ("v",), 1e-6)
    b = oracle.JetComparison({"v": 2.0, "dx": 0.0}, ("v",), 1e-6)
    assert a == b and hash(a) == hash(b)
    assert a != oracle.JetComparison({"v": 1.0}, (), 1e-6)


def test_positional_match_patterns():
    match expr.Pow(expr.Add(X, expr.Const(2.0)), 3.0):
        case expr.Pow(expr.Add(left, expr.Const(c)), e):
            assert (left, c, e) == (X, 2.0, 3.0)
        case _:
            pytest.fail("Pow pattern did not match")
    match jet.Jet3(*range(10)):
        case jet.Jet2(v, dx, dy, dxx, dxy, dyy):
            assert (v, dx, dy, dxx, dxy, dyy) == (0, 1, 2, 3, 4, 5)
        case _:
            pytest.fail("Jet2 pattern did not match a Jet3")
    match jet.Jet3(*range(10)):
        case jet.Jet3(_, _, _, _, _, _, dxxx, dxxy, dxyy, dyyy):
            assert (dxxx, dxxy, dxyy, dyyy) == (6, 7, 8, 9)
        case _:
            pytest.fail("Jet3 pattern did not match")
    assert issubclass(jet.Jet3, jet.Jet2)


def test_defaults_and_post_init_validation():
    assert domain.GridDomain().singular_loci == ()
    assert jet.Jet3(1.0).dyyy == 0.0
    with pytest.raises(ValueError, match="coefficients must not all be zero"):
        weingarten.LWParams(0, 0, 0)
    with pytest.raises(ValueError, match="grid needs at least 2 nodes per axis"):
        domain.GridDomain(nx=1)
    with pytest.raises(InvalidSpecError, match=r"CaseA requires f0 != 0"):
        families.CaseA(f0=0, m0=1, n0=1, d1=0, d2=0)
    with pytest.raises(InvalidSpecError, match=r"CaseA requires f0 \* m0 != 0"):
        families.CaseA(f0=1e-200, m0=1e-200, n0=1, d1=0, d2=0)
    with pytest.raises(InvalidSpecError, match=r"CaseB requires g0 \* m0 != 0"):
        families.CaseB(g0=1e-300, m0=-1e-100, n0=1, d3=0, d4=0)
    with pytest.raises(TypeError):
        jet.Jet2()
    with pytest.raises(TypeError):
        jet.Jet2(1.0, dz=0.0)


@pytest.mark.parametrize("cls", families._KINDS.values(), ids=lambda c: c.__name__)
def test_spec_wire_fields_are_unchanged(cls):
    spec = cls(*SAMPLES[cls])
    wire = families.spec_to_dict(spec)
    assert list(wire) == ["kind", *(name for name, _ in fields(cls))]
    assert families.spec_from_dict(wire) == spec
    del wire[cls.__match_args__[0]]
    with pytest.raises(InvalidSpecError, match=f"missing \\['{cls.__match_args__[0]}'\\]"):
        families.spec_from_dict(wire)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    r = cls(*SAMPLES[cls])
    for other in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(other) is cls and repr(other) == repr(r) and other == r
