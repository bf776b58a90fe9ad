"""The exit-code contract under fuzzed arguments.

cli.main runs in-process on seeded argument lists for every subcommand,
with values that include NaN, infinities, texts that overflow to them,
-0.0, 1e308 and the subnormals 1e-310 and 1e-320, lw coefficients whose
products with K and H overflow, domain axes whose span overflows, grids
and step counts either small or above the caps, surfaces and family specs
that are invalid or nest too deeply, and flags that are unknown, lack
their value or ask for help. Every run must exit 0, 1 or 2 and let
nothing escape; on 0 it writes strict JSON or, for -h, the help; on 1
strict JSON; on 2 nothing to stdout, no --out file and one error line,
which names its cause rather than repeat a bare Python error. Each run
ends within a generous time bound.
"""

import contextlib
import io
import json
import math
import time

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from isocurv import Case31Candidate, CaseA, CaseB, CaseC, NonIsotropicPlane, ParabolicSphere
from isocurv.cli import main

# Every run here is a few nodes or steps, or a refusal: seconds would mean
# that a cap or a bound no longer holds.
TIME_BOUND_S = 10.0

# Each strategy pair is the plain values, which mostly run to a verdict,
# and the odd ones, which arithmetic, the checks and the caps trip on.
# The texts 1e309 and -1e999 read as infinities; quotients by the
# subnormals 1e-310 and 1e-320 overflow (as ode's --oracle-c4, 1e-310 takes
# the closed form to its pole), and products by 1e-320 underflow to zero.
NUMBERS = (
    st.sampled_from([-1.0, 0.25, 0.5, 1.0, 2.0, 3.0]),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, -1e308, 1e-310, 1e-320,
                     "1e309", "-1e999"]),
)
# Relation coefficients: with the plain ones, finite ones whose products
# with K and H overflow in the lw residual.
COEFFICIENTS = (
    st.sampled_from([-1.0, 0.25, 0.5, 1.0, 2.0, 3.0, 1e154, -1e200, 1e308, -1e308]),
    NUMBERS[1],
)
# Finite ends of a domain axis whose span overflows.
SPANS = st.sampled_from([(-1e308, 1e308), (-1.7976931348623157e308, 1e300)])
# A few nodes per axis; or too few, or more nodes than the grid cap allows.
GRIDS = (
    st.tuples(st.integers(2, 5), st.integers(2, 5)),
    st.one_of(st.tuples(st.integers(-1, 1), st.integers(-1, 5)),
              st.sampled_from([(4000, 4000), (100_000, 100_000)])),
)
# With plain numbers as the ends of the span: at most 16 steps, or above the step cap.
STEPS = (
    st.sampled_from([0.25, 0.5, 1.0]),
    st.sampled_from([1e-9, 1e308, math.nan, math.inf, -0.5, -0.0, 0.0]),
)
# Nests of one form at a size: past the recursion limit, which Hypothesis
# raises by some thousands of frames, past the parser's bound, and under
# it. Hypothesis draws a list's first elements most often, so the deepest
# come first.
NESTS = st.builds(
    lambda form, n: form(n),
    st.sampled_from([
        lambda n: "(" * n + "x" + ")" * n,
        lambda n: "sin(" * n + "x" + ")" * n,
        lambda n: "-" * n + "x",
        lambda n: "x" + "+x" * n,
        lambda n: "y" + "*y" * n,
        lambda n: "x" + "^1" * n,
    ]),
    st.sampled_from([20_000, 1000, 150, 50]),
)
SURFACES = (
    st.sampled_from(
        ["x*y", "x^2+y^2", "-x*y", "exp(0.3*x)*sin(y)+ln(2+x^2)/sqrt(3+y^2)", "1/x", "ln(x)",
         "sqrt(x*x+y*y)", "x^0.5", "1e200*x*y", "x^-2", "2*x+3*y", "7",
         # Guards that a mesh's row kernel runs once per column, once per
         # row, once, for x and y at one node, and at a mixed node.
         "sqrt(x)+y", "x+ln(y)", "ln(-1)+x*y", "x^-1+y^-1", "exp(1000*x*y)", "1/(x*y)"]
    ),
    # With number texts at the edges of the tokenizer's number form, and a
    # 999-character sum whose kernel passes the statement cap at any order.
    st.one_of(st.sampled_from(["", "x +", "2x", "x^y", "foo(x)", "(x", "x\u00b2", "1.", ".5", "1e",
                               "1e+", "1.e5", "..5", "1e5e5", "+".join(["x^1.7e308"] * 100)]), NESTS),
)
KINDS = (CaseA, CaseB, CaseC, ParabolicSphere, NonIsotropicPlane, Case31Candidate)
# The messages of bare Python errors, which a refusal must not repeat.
BARE = ("Out of range float values", "Numerical result out of range", "float division by zero")


def _text(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _argv(draw, tmp_path) -> list[str]:
    """A subcommand's argument list; with odd values in it or not."""
    odd = draw(st.booleans())

    def pick(pair, optional=False):
        value = draw(st.one_of(pair) if odd else pair[0])
        return None if optional and draw(st.booleans()) else value

    def spec() -> str:
        cls = draw(st.sampled_from(KINDS))
        fields = {"kind": cls.__name__, **{n: pick(NUMBERS) for n in cls.__match_args__}}
        if not odd:
            return json.dumps(fields)
        return draw(st.sampled_from([
            json.dumps(fields),  # NaN and Infinity are written as JS literals
            json.dumps({**fields, "kind": "CaseZ"}),
            json.dumps({**fields, "kind": [cls.__name__]}),
            json.dumps({**fields, "extra": 1.0}),
            json.dumps([fields]),
            "{not json",
            "[" * 100_000,
        ]))

    command = draw(st.sampled_from(["eval", "scan", "verify-family", "ode", "mesh"]))
    flags: dict = {}
    if command == "eval":
        flags.update(surface=pick(SURFACES), at=(pick(NUMBERS), pick(NUMBERS)))
    elif command == "ode":
        names = ("c3", "m0", "c5", "d10", "t0", "tol", "oracle_c4", "oracle_d9")
        flags.update(ode=draw(st.sampled_from(["shifted-reciprocal", "saturated-linear"])),
                     f0=pick(NUMBERS), fp0=pick(NUMBERS), t_end=pick(NUMBERS), step=pick(STEPS),
                     **{name: pick(NUMBERS, optional=True) for name in names})
        if draw(st.booleans()):
            flags["out"] = tmp_path / "trajectory.csv"
    else:
        x0, x1, y0, y1 = (pick(NUMBERS) for _ in range(4))
        exclusion = pick(NUMBERS, optional=True)
        if not odd:  # a rectangle, and a radius that is not negative
            x0, x1, y0, y1 = min(x0, x1), max(x0, x1) + 1.0, min(y0, y1), max(y0, y1) + 1.0
            exclusion = None if exclusion is None else abs(exclusion)
        # One draw in eight, plain or odd, takes one axis from SPANS.
        if draw(st.sampled_from([True] + [False] * 7)):
            x0, x1, y0, y1 = draw(SPANS) + (y0, y1) if draw(st.booleans()) else (x0, x1) + draw(SPANS)
        flags.update(domain=(x0, x1, y0, y1) if draw(st.booleans()) else None,
                     grid=pick(GRIDS, optional=True), exclusion=exclusion)
        if command == "scan":
            residual = draw(st.sampled_from(["lw", "euler", "jacobian"]))
            flags.update(surface=pick(SURFACES), residual=residual, tol=pick(NUMBERS, optional=True),
                         **{name: pick(COEFFICIENTS, optional=residual != "lw" or odd) for name in "abc"})
        else:
            if command == "mesh":
                flags.update(out=tmp_path / "surface.obj", surface=pick(SURFACES, optional=True))
            else:
                flags.update(tol=pick(NUMBERS, optional=True), n0=pick(NUMBERS, optional=True))
            if flags.get("surface") is None or (odd and draw(st.booleans())):
                path = tmp_path / "spec.json"
                path.write_text(spec(), encoding="utf-8")
                flags["spec"] = path
    groups = []
    for name, value in flags.items():
        if value is not None:
            option = "--" + name.replace("_", "-")
            # A value may follow its flag, whatever it starts with, or be joined by '='.
            groups.append([f"{option}={_text(value)}"] if draw(st.booleans()) else [option, _text(value)])
    # One odd draw in eight holds a flag the table does not hold, a stray
    # token, or help, between two flags, and one in eight ends with a flag
    # that has no value; the rest carry their odd values to the subcommand.
    usage = draw(st.integers(0, 7)) if odd else None
    if usage == 0:
        extra = draw(st.sampled_from([["--nope", "1"], ["--sur=x"], ["stray"], ["-h"], ["--help"]]))
        groups.insert(draw(st.integers(0, len(groups))), extra)
    elif usage == 1:
        groups.append(["--domain" if command != "ode" else "--t0"])
    return [command, *(arg for group in groups for arg in group)]


def _refuse_constant(name: str):
    raise AssertionError(f"{name} in a report")


@seed(20261019)
@settings(
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_run_keeps_the_exit_code_contract(tmp_path, data):
    argv = data.draw(_argv(tmp_path), label="argv")
    # The examples share tmp_path: a file left by an earlier run is no evidence.
    files = [tmp_path / "trajectory.csv", tmp_path / "surface.obj"]
    for path in files:
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < TIME_BOUND_S
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not any(text in err.getvalue() for text in BARE), err.getvalue()
        assert not any(path.exists() for path in files), argv
    elif {"-h", "--help"} & set(argv):
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue().startswith(f"usage: isocurv {argv[0]} ")
    else:
        assert code in (0, 1)
        report = json.loads(out.getvalue(), parse_constant=_refuse_constant)
        assert report["command"] == argv[0] and (report["pass"] is False) == (code == 1)
