"""Exception types and the record decorator shared across the package.

Everything raised on purpose derives from IsocurvError so callers can catch
one base class at the boundary (the CLI does exactly that). Every value type
is a @record: a frozen, slotted class built without the dataclasses module,
whose import and per-class code generation each process would pay at start.
A record compiles nothing of its own either: its __init__ reuses the code
compiled once per process for its field count.
"""

import functools
import math
from operator import attrgetter
from types import CodeType, FunctionType


def record(cls):
    """Make cls a frozen, slotted record of its annotated fields, after those
    of the record it extends, as dataclass(frozen=True, slots=True) would:
    __init__ takes the fields in order with their defaults, then runs
    __post_init__ if cls has one; == and hash compare the fields of records
    of one class, less any that a class attribute _uncompared names.

    Nothing is compiled per record: each __init__ is a copy of the one code
    object that _init_code compiles per field count, with the record's field
    names put in as its argument names."""
    own = tuple(cls.__annotations__)
    names = getattr(cls, "__match_args__", ()) + own
    inherited = getattr(cls.__init__, "__defaults__", None) or ()
    defaults = dict(zip(names[len(names) - len(own) - len(inherited):], inherited))
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    defaults.update((n, body.pop(n)) for n in own if n in body)
    compared = [n for n in names if n not in getattr(cls, "_uncompared", ())]
    # The key is the tuple a dataclass compares and hashes. attrgetter gives
    # one for two or more names; a single value is wrapped, and none is ().
    key = attrgetter(*compared) if compared else lambda rec: ()
    if len(compared) == 1:
        key = lambda rec, one=key: (one(rec),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    # Only __init__ is generated, so it keeps the record's signature. The
    # fields are set through their slots' own setters, which bypass the
    # frozen __setattr__ and cost less than object.__setattr__; the shared
    # code reads the i-th setter as the global _set{i}, from a globals dict
    # that belongs to this record alone.
    if tuple(defaults) != names[len(names) - len(defaults):]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    setters: dict = {}
    code = _init_code(len(names), hasattr(cls, "__post_init__"))
    init = FunctionType(code.replace(co_varnames=("self", *names)), setters, "__init__",
                        tuple(defaults.values()) or None)
    body.update(__init__=init, __eq__=__eq__, __hash__=__hash__,
                __slots__=own, __match_args__=names, __qualname__=cls.__qualname__,
                __repr__=_repr, __setattr__=_frozen, __delattr__=_frozen, __reduce__=_reduce)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    setters.update((f"_set{i}", getattr(cls, n).__set__) for i, n in enumerate(names))
    return cls


@functools.cache
def _init_code(count: int, post_init: bool) -> CodeType:
    """The code of an __init__ that sets count fields, the i-th (argument
    _{i}) through the global _set{i}, then calls __post_init__ if post_init."""
    source = (f"def __init__(self, {', '.join(f'_{i}' for i in range(count))}):\n"
              + "".join(f"    _set{i}(self, _{i})\n" for i in range(count))
              + ("    self.__post_init__()\n" if post_init else "    pass\n"))
    namespace: dict = {}
    exec(source, namespace)
    return namespace["__init__"].__code__


def _repr(self):
    fields = ", ".join(f"{n}={v!r}" for n, v in asdict(self).items())
    return f"{self.__class__.__qualname__}({fields})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


# copy and pickle rebuild a record through __init__: _frozen refuses slot restores.
def _reduce(self):
    return self.__class__, tuple(asdict(self).values())


def asdict(rec) -> dict:
    """A record's fields by name, in order; values are not copied."""
    return {n: getattr(rec, n) for n in rec.__match_args__}


def require_finite(record, *names: str) -> None:
    """Raise ValueError naming the first of record's fields that is not a
    finite number."""
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite")


class IsocurvError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(IsocurvError):
    """Malformed expression text. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier other than x, y, or a known function name."""


class EvaluationDomainError(IsocurvError):
    """Evaluation left the expression's domain (pole, ln or sqrt of a
    non-positive value)."""


class DivisionByZeroError(EvaluationDomainError):
    pass


class NumericOverflowError(IsocurvError):
    """Evaluation produced a non-finite value. Raised instead of letting
    infinities propagate so residual scans can tell a singularity from a
    large residual."""


class MixedVariableError(IsocurvError):
    """A univariate lift was asked of an expression using both x and y."""


class DegenerateWeingartenError(IsocurvError):
    """Normalization of a relation whose curvature coefficient is zero."""


class InvalidSpecError(IsocurvError):
    """A family spec violates one of its parameter constraints."""


class NoConstantPredictionError(InvalidSpecError):
    """The family has no constant curvature prediction to verify against."""


class SingularPointError(IsocurvError):
    """A closed form was evaluated at its pole."""


class EmptyDomainError(IsocurvError):
    """Every grid node fell inside an exclusion zone."""


class DegenerateODEError(IsocurvError):
    """The ODE right-hand side denominator vanished along the trajectory."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t


class StepTooLargeError(IsocurvError):
    """A single integration step exceeded the local error limit."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t!r})")
        self.t = t
