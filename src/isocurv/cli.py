"""Command-line front end.

Subcommands: eval, scan, verify-family, ode, mesh. Every run writes exactly
one JSON report to standard output; CSV trajectories and OBJ meshes go to
files. Exit codes: 0 when no check failed, 1 when a tolerance-gated check
failed, 2 on any error (bad input, parse error, singularity, arithmetic
overflow, I/O, or a report holding a non-finite number).

One table, _COMMANDS, states every subcommand's flags. Each flag takes
exactly one value, as --flag VALUE or --flag=VALUE, so a value may start
with '-'; the last of a repeated flag wins, and -h or --help prints the
table's help. A usage error takes the path of every other error: one
"error:" line on stderr and exit code 2.

Each subcommand imports what it calls when it runs, so a process pays
start-up only for the modules it uses: eval and scan never load the
families, ODE, mesh or oracle modules, eval and ode load neither the grid
nor the scan module, and ode loads neither the parser nor the jets. The
report is written by _dumps, with json.dumps's bytes, so only verify-family
and mesh --spec import json, to read their spec file, and nothing here
imports re (json does). The process ends as soon as its report is flushed
(entrypoint).
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Callable
from types import SimpleNamespace

from . import __getattr__ as _package_name
from .errors import InvalidSpecError, IsocurvError, asdict


def __getattr__(name: str):
    """Bind a public name of the package here on first use (PEP 562).

    The subcommands import what they call from this module, so a name's
    submodule loads only when a subcommand needs it, and the name stays an
    attribute of isocurv.cli that a caller can wrap (bench/tracing.py does).
    """
    value = globals()[name] = _package_name(name)
    return value


SCHEMA_VERSION = 2

DEFAULT_SCAN_TOL = {"lw": 1e-9, "euler": 1e-9, "jacobian": 1e-6}
# The default --exclusion of verify-family and mesh, which avoid a spec's
# singular loci; scan declares no loci, and its default is 0.
DEFAULT_EXCLUSION = 1e-2


class _UsageError(IsocurvError):
    """An argument that _COMMANDS does not allow, or a bad flag combination:
    main reports it like every other error, as one error: line and exit 2."""


def _numbers(kind: Callable[[str], float], metavar: str) -> Callable[[str], tuple]:
    """Converter for the comma-separated numbers that metavar names."""

    def convert(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != len(metavar.split(",")):
            raise ValueError(f"expected {metavar}")
        try:
            return tuple(kind(v) for v in parts)
        except ValueError:
            what = "integer" if kind is int else "number"
            raise ValueError(f"bad {what} in {text!r}") from None

    return convert


def _finite(text: str) -> float:
    """Converter for a number that a report holds: one that is not finite
    raises ArithmeticError, which the parse loop reports by the flag's name."""
    value = float(text)
    if not math.isfinite(value):
        raise ArithmeticError("must be finite")
    return value


def _tolerance(text: str) -> float:
    """Converter for a gate's threshold: a finite number, at least 0."""
    if (value := _finite(text)) < 0.0:
        raise ArithmeticError("must be at least 0.0")
    return value


def _domain_flags(exclusion: float) -> dict:
    """The sampling-grid flags; exclusion is the default radius."""
    return {
        "--domain": (
            _numbers(float, "XMIN,XMAX,YMIN,YMAX"), (-1.0, 1.0, -1.0, 1.0), "sampling rectangle"
        ),
        "--grid": (_numbers(int, "NX,NY"), (101, 101), "grid resolution"),
        "--exclusion": (float, exclusion, "exclusion radius around declared singular loci"),
    }


def _domain(args, params: dict, loci: tuple[float, ...] = ()) -> GridDomain:
    """The grid that the domain flags give, avoiding loci; the flags also
    go into params."""
    from .domain import GridDomain

    domain = GridDomain(*args.domain, *args.grid, args.exclusion, loci)
    params.update(domain=list(args.domain), grid=list(args.grid), exclusion_radius=args.exclusion)
    return domain


def cmd_eval(args) -> tuple:
    from .cli import curvatures, euler_residual, eval_jet, parse, to_string

    surface = parse(args.surface)
    x, y = args.at
    j = eval_jet(surface, (x, y))
    pair = curvatures(j)
    result = {
        "jet": asdict(j),
        "K": pair.K,
        "H": pair.H,
        "euler_residual": euler_residual(j),
    }
    return to_string(surface), {"at": [x, y]}, result, None, {}


def cmd_scan(args) -> tuple:
    from .cli import (LWParams, euler_residual_fn, jacobian_residual_fn, lw_residual_fn,
                      normalize, parse, scan_grid, to_string)

    surface = parse(args.surface)
    params: dict = {"residual": args.residual}
    domain = _domain(args, params)
    tol = args.tol if args.tol is not None else DEFAULT_SCAN_TOL[args.residual]
    if args.residual == "lw":
        if args.a is None or args.b is None or args.c is None:
            raise _UsageError("lw residual needs --a, --b, and --c")
        lw = LWParams(args.a, args.b, args.c)
        params["lw"] = asdict(lw)
        if lw.b != 0.0:
            params["lw"].update(asdict(normalize(lw)))
        fn = lw_residual_fn(lw)
    elif args.residual == "euler":
        fn = euler_residual_fn()
    else:
        fn = jacobian_residual_fn()
    report = scan_grid(surface, domain, fn)
    passed = report.max_abs <= tol
    return to_string(surface), params, asdict(report), passed, {args.residual: tol}


def _load_spec(path: str, params: dict):
    """The family spec in the JSON file at path, its surface and its
    singular loci; the spec also goes into params."""
    import json  # only a spec file is read as JSON; a report is written by _dumps

    from .cli import build, singular_loci, spec_from_dict, spec_to_dict

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InvalidSpecError(f"invalid JSON in family spec: {err}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise InvalidSpecError("invalid JSON in family spec: arrays or objects nest too"
                               " deeply: line 1 column 1 (char 0)") from None
    spec = spec_from_dict(data)
    params["spec"] = spec_to_dict(spec)
    return spec, build(spec), singular_loci(spec)


def cmd_verify_family(args) -> tuple:
    from .cli import (
        Case31Candidate,
        case31_contradiction_scan,
        case31_rounding_bound,
        predict,
        to_string,
        verify_family,
    )

    params: dict = {}
    spec, surface, loci = _load_spec(args.spec, params)
    domain = _domain(args, params, loci)
    if isinstance(spec, Case31Candidate):
        xs = [x for _, x in domain.columns()]
        report = case31_contradiction_scan(spec, args.n0, xs)
        # A spread within rounding of a constant shows nothing.
        noise = case31_rounding_bound(spec, args.n0, xs)
        passed = report.n_samples >= 3 and report.std_dev > noise
        params["n0"] = args.n0
        result = asdict(report)
        result["check"] = "contradiction_scan"
        tolerances = {"min_samples": 3}
    else:
        prediction = predict(spec)
        report = verify_family(spec, domain)
        passed = report.max_abs <= args.tol
        result = asdict(report)
        result["check"] = "constant_invariants"
        result["predicted"] = {"K": prediction.K_expected, "H": prediction.H_expected}
        tolerances = {"family": args.tol}
    return to_string(surface), params, result, passed, tolerances


def cmd_ode(args) -> tuple:
    from .cli import (
        IVP,
        SaturatedLinearODE,
        ShiftedReciprocalODE,
        integrate,
        linear_force_solution,
        shifted_reciprocal_solution,
    )

    oracle: Callable[[float], float] | None = None
    if args.ode == "shifted-reciprocal":
        if args.c3 is None or args.m0 is None:
            raise _UsageError("shifted-reciprocal needs --c3 and --m0")
        rhs = ShiftedReciprocalODE(c3=args.c3, m0=args.m0)
        if (args.oracle_c4 is None) != (args.oracle_d9 is None):
            raise _UsageError("--oracle-c4 and --oracle-d9 go together")
        if args.oracle_c4 is not None:
            c3, c4, d9, m0 = args.c3, args.oracle_c4, args.oracle_d9, args.m0

            def oracle(t: float) -> float:
                return shifted_reciprocal_solution(c3, c4, d9, m0, t)

    else:
        if args.c5 is None:
            raise _UsageError("saturated-linear needs --c5")
        rhs = SaturatedLinearODE(c5=args.c5, d10=args.d10)
        if args.d10 == 0.0:
            c5, f0, fp0, t0 = args.c5, args.f0, args.fp0, args.t0

            def oracle(t: float) -> float:
                return linear_force_solution(c5, f0, fp0, t, t0)

    ivp = IVP(rhs, args.t0, args.f0, args.fp0, args.t_end, args.step)
    trajectory = integrate(ivp)
    max_dev: float | None = None
    passed: bool | None = None
    if oracle is not None:
        max_dev = max(abs(f - oracle(t)) for t, f, _ in trajectory)
        if not math.isfinite(max_dev):  # refused before the CSV is opened
            raise ValueError(f"result.oracle_max_dev = {max_dev!r} is not finite")
        passed = max_dev <= args.tol
    if args.out:
        # The bytes csv.writer writes: CRLF rows of repr floats, unquoted.
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            fh.write("t,f,fp\r\n")
            fh.writelines(f"{t!r},{f!r},{fp!r}\r\n" for t, f, fp in trajectory)
    t_last, f_last, fp_last = trajectory[-1]
    params = {"ode": args.ode, **asdict(ivp), **asdict(rhs)}
    del params["rhs"]
    result = {
        "n_steps": len(trajectory) - 1,
        "endpoint": {"t": t_last, "f": f_last, "fp": fp_last},
        "oracle_max_dev": max_dev,
        "csv": args.out,
    }
    tolerances = {"oracle": args.tol} if oracle is not None else {}
    return None, params, result, passed, tolerances


def cmd_mesh(args) -> tuple:
    from .cli import parse, to_string, write_obj

    if (args.surface is None) == (args.spec is None):
        raise _UsageError("mesh needs exactly one of --surface and --spec")
    params: dict = {}
    if args.spec is not None:
        _, surface, loci = _load_spec(args.spec, params)
    else:
        surface, loci = parse(args.surface), ()
    domain = _domain(args, params, loci)
    stats = write_obj(surface, domain, args.out)
    result = {**asdict(stats), "obj": args.out}
    return to_string(surface), params, result, None, {}


# Each subcommand's function, summary and flags. The function returns its
# report's surface, params, result, pass and tolerances. A flag maps to its
# converter (a function that raises ValueError for text it cannot read) or
# its tuple of choices, its default or _REQUIRED, and its help.
_REQUIRED = object()
_COMMANDS = {
    "eval": (cmd_eval, "jet, K, H at a point", {
        "--surface": (str, _REQUIRED, "expression in x and y"),
        "--at": (_numbers(_finite, "X,Y"), _REQUIRED, "the point X,Y"),
    }),
    "scan": (cmd_scan, "residual statistics over a grid", {
        "--surface": (str, _REQUIRED, "expression in x and y"),
        "--residual": (("lw", "euler", "jacobian"), _REQUIRED, "the residual"),
        "--a": (float, None, "H coefficient (lw residual)"),
        "--b": (float, None, "K coefficient (lw residual)"),
        "--c": (float, None, "constant side (lw residual)"),
        "--tol": (
            _tolerance, None, f"pass threshold on max |residual| (default {DEFAULT_SCAN_TOL})"
        ),
        **_domain_flags(0.0),
    }),
    "verify-family": (cmd_verify_family, "check a family spec JSON", {
        "--spec": (str, _REQUIRED, "path to a family spec JSON file"),
        "--tol": (_tolerance, 1e-9, "pass threshold on max |residual|"),
        "--n0": (_finite, 0.0, "relation constant for the contradiction scan"),
        **_domain_flags(DEFAULT_EXCLUSION),
    }),
    "ode": (cmd_ode, "integrate a factor equation", {
        "--ode": (("shifted-reciprocal", "saturated-linear"), _REQUIRED, "the equation"),
        "--c3": (float, None, "shifted-reciprocal parameter"),
        "--m0": (float, None, "shifted-reciprocal parameter"),
        "--c5": (float, None, "saturated-linear parameter"),
        "--d10": (float, 0.0, "saturation constant"),
        "--t0": (float, 0.0, "start of the span"),
        "--f0": (float, _REQUIRED, "f(t0)"),
        "--fp0": (float, _REQUIRED, "f'(t0)"),
        "--t-end": (float, _REQUIRED, "end of the span"),
        "--step": (float, _REQUIRED, "RK4 step"),
        "--tol": (_tolerance, 1e-6, "pass threshold on the max deviation from the oracle"),
        "--oracle-c4": (
            _finite, None, "with --oracle-d9: check shifted-reciprocal against its closed form"
        ),
        "--oracle-d9": (_finite, None, "with --oracle-c4: the closed form's shift"),
        "--out": (str, None, "write the trajectory CSV here"),
    }),
    "mesh": (cmd_mesh, "export a Wavefront OBJ", {
        "--surface": (str, None, "expression in x and y; this or --spec"),
        "--spec": (str, None, "family spec JSON instead of an expression"),
        "--out": (str, _REQUIRED, "write the OBJ here"),
        **_domain_flags(DEFAULT_EXCLUSION),
    }),
}


_DISPATCH = {name: function for name, (function, _, _) in _COMMANDS.items()}


def _help(command: str | None) -> str:
    """The -h text: the subcommands, or each flag of command with its help
    and its default or (required)."""
    if command is None:
        return "usage: isocurv SUBCOMMAND [--flag VALUE ...]\n" + "".join(
            f"  {name:<15}{summary}\n" for name, (_, summary, _) in _COMMANDS.items())
    lines = [f"usage: isocurv {command} [--flag VALUE ...]\n"]
    for flag, (convert, default, text) in _COMMANDS[command][2].items():
        choices = f": {', '.join(convert)}" if isinstance(convert, tuple) else ""
        shown = ",".join(map(str, default)) if isinstance(default, tuple) else default
        note = {None: "", _REQUIRED: " (required)"}.get(default, f" (default {shown})")
        lines.append(f"  {flag:<13}{text}{choices}{note}\n")
    return "".join(lines)


def _parse(argv: list[str]) -> SimpleNamespace | str:
    """argv read by _COMMANDS: the subcommand and each of its flags' value or
    default, as attributes (--t-end as t_end), or the help text it asks for."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        return _help(None)
    if command not in _COMMANDS:
        got = "nothing" if command is None else repr(command)
        raise _UsageError(f"expected a subcommand ({', '.join(_COMMANDS)}), got {got}")
    flags = _COMMANDS[command][2]
    given = {flag: default for flag, (_, default, _) in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(command)
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise _UsageError(f"unrecognized argument {token!r} to {command}")
        if not eq and (text := next(tokens, None)) is None:
            raise _UsageError(f"argument {flag}: expected one argument")
        convert = flags[flag][0]
        try:
            if isinstance(convert, tuple) and text not in convert:
                raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(convert)})")
            given[flag] = text if isinstance(convert, tuple) else convert(text)
        except ValueError as err:  # text that is not of the flag's kind
            raise _UsageError(f"argument {flag}: {err}") from None
        except ArithmeticError as err:  # a number outside the flag's range
            raise _UsageError(f"{flag[2:].replace('-', '_')} {err}") from None
    missing = [flag for flag, value in given.items() if value is _REQUIRED]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    values = {flag[2:].replace("-", "_"): value for flag, value in given.items()}
    return SimpleNamespace(command=command, **values)


# json.dumps's escapes of the ASCII characters that it does not write as
# themselves, by code point.
_ESCAPES = {**{n: f"\\u{n:04x}" for n in (*range(32), 127)},
            **{ord(c): "\\" + e for c, e in zip('"\\\n\r\t\b\f', '"\\nrtbf')}}


def _dumps(value, indent: str = "\n", path: str = "") -> str:
    """The text of json.dumps(value, indent=2, allow_nan=False) for what a
    report holds: dicts with str keys, lists, tuples, str, int, float, bool
    and None. The first float written that is not finite raises ValueError
    "path = value is not finite", path naming it by keys and indices."""
    if isinstance(value, str):
        text = value.translate(_ESCAPES)
        if not text.isascii():  # each UTF-16 code unit of the rest as \uXXXX
            units = memoryview(text.encode("utf-16", "surrogatepass"))[2:].cast("H")
            text = "".join(chr(u) if u < 0x80 else f"\\u{u:04x}" for u in units)
        return f'"{text}"'
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{path} = {value!r} is not finite")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_dumps(k)}: {_dumps(v, inner, f'{path}.{k}' if path else k)}"
                 for k, v in value.items()]
    else:
        items = [_dumps(v, inner, f"{path}[{i}]") for i, v in enumerate(value)]
    start, end = "{}" if isinstance(value, dict) else "[]"
    return start + (inner + ("," + inner).join(items) + indent if items else "") + end


def _error(message: str) -> int:
    """Write the "error:" line on stderr and return exit code 2. A stderr
    that cannot take the line (closed, or a pipe whose reader has gone)
    changes neither the code nor standard output."""
    if sys.stderr is not None:  # print would fall back on standard output
        try:
            print(f"error: {message}", file=sys.stderr)
        except OSError:
            pass
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h or --help
            text, code = args, 0
        else:
            surface, params, result, passed, tolerances = _DISPATCH[args.command](args)
            report = {
                "schema_version": SCHEMA_VERSION,
                "command": args.command,
                "surface": surface,
                "params": params,
                "result": result,
                "pass": passed,
                "tolerances": tolerances,
            }
            text = _dumps(report) + "\n"
            code = 1 if passed is False else 0
        if sys.stdout is None:  # the process started with standard output closed
            raise OSError("standard output is closed")
        sys.stdout.write(text)
    except (IsocurvError, ValueError, ArithmeticError, OSError) as err:
        return _error(str(err))
    return code


def entrypoint() -> None:
    """Run main on the process's arguments, then end the process with its
    code as soon as the report is out.

    os._exit skips the interpreter's teardown, which would walk every object
    still alive, and with it every atexit callback, a profiler's or
    coverage's included: to measure main, call it in-process. A report that
    the flush cannot deliver (a pipe whose reader has gone, a full disk)
    exits 2, like every other error.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as err:
        code = _error(str(err))
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:  # as in _error, a lost line leaves the code as it is
        pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
