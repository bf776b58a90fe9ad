"""Command-line front end.

Subcommands: eval, scan, verify-family, ode, mesh. Every run writes exactly
one JSON report to standard output; CSV trajectories and OBJ meshes go to
files. Exit codes: 0 when no check failed, 1 when a tolerance-gated check
failed, 2 on any error (bad input, parse error, singularity, arithmetic
overflow, I/O, or a report holding a non-finite number).

Each subcommand imports what it calls when it runs, so a process pays
start-up only for the modules it uses: eval and scan never load the
families, ODE, mesh or oracle modules, and ode loads neither the parser
nor the jets.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional

from . import __getattr__ as _package_name
from .domain import DEFAULT_EXCLUSION_RADIUS, GridDomain, VerticalLine
from .errors import IsocurvError, asdict


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
DEFAULT_FAMILY_TOL = 1e-9
DEFAULT_ODE_TOL = 1e-6


class _UsageError(IsocurvError):
    """Bad flag combination; reported like other errors, exit 2."""


def _numbers(kind: type, metavar: str) -> Callable[[str], tuple]:
    """Argparse type for the comma-separated numbers that metavar names."""

    def convert(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != len(metavar.split(",")):
            raise argparse.ArgumentTypeError(f"expected {metavar}")
        try:
            return tuple(kind(v) for v in parts)
        except ValueError:
            what = "integer" if kind is int else "number"
            raise argparse.ArgumentTypeError(f"bad {what} in {text!r}") from None

    return convert


def _add_domain_flags(sp: argparse.ArgumentParser, default_exclusion: float) -> None:
    sp.add_argument(
        "--domain",
        type=_numbers(float, "XMIN,XMAX,YMIN,YMAX"),
        default=(-1.0, 1.0, -1.0, 1.0),
        metavar="XMIN,XMAX,YMIN,YMAX",
        help="sampling rectangle (default [-1,1]^2)",
    )
    sp.add_argument(
        "--grid",
        type=_numbers(int, "NX,NY"),
        default=(101, 101),
        metavar="NX,NY",
        help="grid resolution (default 101,101)",
    )
    sp.add_argument(
        "--exclusion",
        type=float,
        default=default_exclusion,
        metavar="R",
        help="exclusion radius around declared singular loci",
    )


def build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isocurv",
        description="curvature invariants and linear Weingarten checks for "
        "graph surfaces z(x, y)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="jet, K, H at a point")
    sp.add_argument("--surface", required=True, help="expression in x and y")
    sp.add_argument("--at", type=_numbers(float, "X,Y"), required=True, metavar="X,Y")

    sp = sub.add_parser("scan", help="residual statistics over a grid")
    sp.add_argument("--surface", required=True)
    sp.add_argument("--residual", choices=("lw", "euler", "jacobian"), required=True)
    sp.add_argument("--a", type=float, help="H coefficient (lw residual)")
    sp.add_argument("--b", type=float, help="K coefficient (lw residual)")
    sp.add_argument("--c", type=float, help="constant side (lw residual)")
    sp.add_argument("--tol", type=float, help="pass threshold on max |residual|")
    _add_domain_flags(sp, 0.0)

    sp = sub.add_parser("verify-family", help="check a family spec JSON")
    sp.add_argument("--spec", required=True, help="path to a family spec JSON file")
    sp.add_argument("--tol", type=float, default=DEFAULT_FAMILY_TOL)
    sp.add_argument(
        "--n0",
        type=float,
        default=0.0,
        help="relation constant for the contradiction scan",
    )
    _add_domain_flags(sp, DEFAULT_EXCLUSION_RADIUS)

    sp = sub.add_parser("ode", help="integrate a factor equation")
    sp.add_argument(
        "--ode",
        choices=("shifted-reciprocal", "saturated-linear"),
        required=True,
    )
    sp.add_argument("--c3", type=float, help="shifted-reciprocal parameter")
    sp.add_argument("--m0", type=float, help="shifted-reciprocal parameter")
    sp.add_argument("--c5", type=float, help="saturated-linear parameter")
    sp.add_argument("--d10", type=float, default=0.0, help="saturation constant")
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--f0", type=float, required=True, help="f(t0)")
    sp.add_argument("--fp0", type=float, required=True, help="f'(t0)")
    sp.add_argument("--t-end", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--tol", type=float, default=DEFAULT_ODE_TOL)
    sp.add_argument(
        "--oracle-c4",
        type=float,
        help="with --oracle-d9: check shifted-reciprocal against its closed form",
    )
    sp.add_argument("--oracle-d9", type=float)
    sp.add_argument("--out", help="write the trajectory CSV here")

    sp = sub.add_parser("mesh", help="export a Wavefront OBJ")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--surface")
    group.add_argument("--spec", help="family spec JSON instead of an expression")
    sp.add_argument("--out", required=True)
    _add_domain_flags(sp, DEFAULT_EXCLUSION_RADIUS)

    return p


def _report(
    command: str,
    surface: Optional[str],
    params: dict,
    result: dict,
    passed: Optional[bool],
    tolerances: dict,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "surface": surface,
        "params": params,
        "result": result,
        "pass": passed,
        "tolerances": tolerances,
    }


def _domain(args, params: dict, loci: tuple[VerticalLine, ...] = ()) -> GridDomain:
    """The grid that the domain flags give, avoiding loci; the flags also
    go into params."""
    domain = GridDomain(*args.domain, *args.grid, args.exclusion, loci)
    params.update(domain=list(args.domain), grid=list(args.grid), exclusion_radius=args.exclusion)
    return domain


def cmd_eval(args) -> dict:
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
    return _report("eval", to_string(surface), {"at": [x, y]}, result, None, {})


def cmd_scan(args) -> dict:
    from .cli import (
        LWParams,
        euler_residual_fn,
        jacobian_residual_fn,
        lw_residual_fn,
        normalize,
        parse,
        scan_grid,
        to_string,
    )

    surface = parse(args.surface)
    params: dict = {"residual": args.residual}
    domain = _domain(args, params)
    tol = args.tol if args.tol is not None else DEFAULT_SCAN_TOL[args.residual]
    if args.residual == "lw":
        if args.a is None or args.b is None or args.c is None:
            raise _UsageError("lw residual needs --a, --b, and --c")
        lw = LWParams(args.a, args.b, args.c)
        params["lw"] = {"a": lw.a, "b": lw.b, "c": lw.c}
        if lw.b != 0.0:
            norm = normalize(lw)
            params["lw"]["m0"] = norm.m0
            params["lw"]["n0"] = norm.n0
        fn = lw_residual_fn(lw)
    elif args.residual == "euler":
        fn = euler_residual_fn()
    else:
        fn = jacobian_residual_fn()
    report = scan_grid(surface, domain, fn)
    passed = report.max_abs <= tol
    return _report(
        "scan",
        to_string(surface),
        params,
        report.to_dict(),
        passed,
        {args.residual: tol},
    )


def _load_spec(path: str, params: dict):
    """The family spec in the JSON file at path, its surface and its
    singular loci; the spec also goes into params."""
    from .cli import build, singular_loci, spec_from_dict, spec_to_dict

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise json.JSONDecodeError("arrays or objects nest too deeply", text, 0) from None
    spec = spec_from_dict(data)
    params["spec"] = spec_to_dict(spec)
    return spec, build(spec), singular_loci(spec)


def cmd_verify_family(args) -> dict:
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
        xs = [x for x in domain.xs() if domain.included(x, domain.y_min)]
        report = case31_contradiction_scan(spec, args.n0, xs)
        # A spread within rounding of a constant shows nothing.
        noise = case31_rounding_bound(spec, args.n0, xs)
        passed = report.n_samples >= 3 and report.std_dev > noise
        params["n0"] = args.n0
        result = report.to_dict()
        result["check"] = "contradiction_scan"
        return _report(
            "verify-family",
            to_string(surface),
            params,
            result,
            passed,
            {"min_samples": 3},
        )
    prediction = predict(spec)
    report = verify_family(spec, domain)
    passed = report.max_abs <= args.tol
    result = report.to_dict()
    result["check"] = "constant_invariants"
    result["predicted"] = {"K": prediction.K_expected, "H": prediction.H_expected}
    return _report(
        "verify-family",
        to_string(surface),
        params,
        result,
        passed,
        {"family": args.tol},
    )


def cmd_ode(args) -> dict:
    from .cli import (
        IVP,
        SaturatedLinearODE,
        ShiftedReciprocalODE,
        integrate,
        linear_force_solution,
        shifted_reciprocal_solution,
    )

    oracle: Optional[Callable[[float], float]] = None
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
                return linear_force_solution(c5, f0, fp0, t - t0)

    ivp = IVP(
        rhs=rhs, t0=args.t0, y0=args.f0, yp0=args.fp0, t_end=args.t_end, step=args.step
    )
    trajectory = integrate(ivp)
    max_dev: Optional[float] = None
    passed: Optional[bool] = None
    if oracle is not None:
        max_dev = max(abs(f - oracle(t)) for t, f, _ in trajectory)
        passed = max_dev <= args.tol
    if args.out:
        # The bytes csv.writer writes: CRLF rows of repr floats, unquoted.
        with open(args.out, "w", newline="", encoding="ascii") as fh:
            fh.write("t,f,fp\r\n")
            fh.writelines(f"{t!r},{f!r},{fp!r}\r\n" for t, f, fp in trajectory)
    t_last, f_last, fp_last = trajectory[-1]
    params = {
        "ode": args.ode,
        "t0": args.t0,
        "f0": args.f0,
        "fp0": args.fp0,
        "t_end": args.t_end,
        "step": args.step,
        **asdict(rhs),
    }
    result = {
        "n_steps": len(trajectory) - 1,
        "endpoint": {"t": t_last, "f": f_last, "fp": fp_last},
        "oracle_max_dev": max_dev,
        "csv": args.out,
    }
    tolerances = {"oracle": args.tol} if oracle is not None else {}
    return _report("ode", None, params, result, passed, tolerances)


def cmd_mesh(args) -> dict:
    from .cli import parse, to_string, write_obj

    params: dict = {}
    if args.spec is not None:
        _, surface, loci = _load_spec(args.spec, params)
    else:
        surface, loci = parse(args.surface), ()
    domain = _domain(args, params, loci)
    stats = write_obj(surface, domain, args.out)
    result = {**asdict(stats), "obj": args.out}
    return _report("mesh", to_string(surface), params, result, None, {})


_DISPATCH = {
    "eval": cmd_eval,
    "scan": cmd_scan,
    "verify-family": cmd_verify_family,
    "ode": cmd_ode,
    "mesh": cmd_mesh,
}


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each negative number or number list that follows an
    option, as in --fp0 -1e-05 or --domain -1,1,-1,1, joined to it as
    --fp0=-1e-05: argparse reads a token that starts with '-' as an option
    unless it has the shape -1 or -0.5, but takes anything after '='."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        option = prev.startswith("--") and "=" not in prev and not "--help".startswith(prev)
        if option and arg.startswith("-"):
            try:
                for part in arg.split(","):
                    float(part)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={arg}"
                continue
        out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_argparser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        report = _DISPATCH[args.command](args)
        # RFC 8259 has no NaN or Infinity: such a report is an error.
        text = json.dumps(report, indent=2, allow_nan=False)
    except json.JSONDecodeError as err:
        print(f"error: invalid JSON in family spec: {err}", file=sys.stderr)
        return 2
    except (IsocurvError, ValueError, ArithmeticError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    return 1 if report["pass"] is False else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
