"""Build every record class of the package, with no test framework.

errors.record gives each record an __init__ whose code is shared by every
record of its field count, renamed by CodeType.replace; the layout of a
code object changed in Python 3.11. So run this under each supported
Python, pytest or not:

    PYTHONPATH=src python tests/records_check.py

It builds every record positionally, by keyword and from its required
fields alone, and checks that inspect.signature names the fields with
their defaults. test_records.py takes its tables from here.
"""

import inspect
import sys

from isocurv import curvature, domain, errors, expr, families, jet, mesh, ode, oracle, weingarten

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


def check(cls) -> None:
    """Raise AssertionError unless cls builds, and inspect.signature reads
    it, as SAMPLES and FIELDS say."""
    expected = [(name, eval(default[0]) if default else inspect.Parameter.empty)
                for name, *default in (f.split("=") for f in FIELDS[cls.__name__].split())]
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == expected, cls
    assert {p.kind for p in params} <= {inspect.Parameter.POSITIONAL_OR_KEYWORD}, cls
    names, args = cls.__match_args__, SAMPLES[cls]
    by_keyword = cls(**dict(zip(names, args)))
    assert cls(*args) == by_keyword and [getattr(by_keyword, n) for n in names] == list(args), cls
    required = [default is inspect.Parameter.empty for _, default in expected].count(True)
    short = cls(*args[:required])
    assert [getattr(short, n) for n in names] == [*args[:required], *(d for _, d in expected[required:])]


if __name__ == "__main__":
    for cls in SAMPLES:
        check(cls)
    print(f"Python {sys.version.split()[0]}: {len(SAMPLES)} records built; one __init__ code"
          f" object for each of {errors._init_code.cache_info().currsize} field-count shapes")
