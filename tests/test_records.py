"""Every record class behaves as the dataclass(frozen=True, slots=True) it
replaced. Each is checked against a dataclass twin made from FIELDS, the
fields and defaults the records had as dataclasses (records_check.py holds
the tables, and checks the records where pytest is not installed)."""

import copy
import dataclasses
import inspect
import pickle

import pytest
from records_check import FIELDS, MODULES, SAMPLES, UNCOMPARED, X, Y

from isocurv import domain, errors, expr, families, jet, oracle, weingarten
from isocurv.errors import InvalidSpecError

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


def test_one_init_is_compiled_per_field_count():
    """No record compiles its own __init__: each is the code compiled once
    for its field count (and whether it has __post_init__), renamed."""
    shapes = {(len(c.__match_args__), hasattr(c, "__post_init__")) for c in RECORDS}
    for cls in RECORDS:
        code = cls.__init__.__code__
        assert code.co_varnames[:code.co_argcount] == ("self", *cls.__match_args__)
        shape = (len(cls.__match_args__), hasattr(cls, "__post_init__"))
        assert code.co_code == errors._init_code(*shape).co_code
    info = errors._init_code.cache_info()
    assert info.misses == info.currsize == len(shapes)


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    """As dataclass refuses it: the shared __init__ code takes its defaults
    for the last fields, whichever they are."""
    with pytest.raises(TypeError, match="Late: a field without a default follows one with"):
        @errors.record
        class Late(jet.Jet2):
            extra: float


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
