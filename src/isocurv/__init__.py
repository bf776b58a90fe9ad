"""Curvature invariants and linear Weingarten checks for graph surfaces
z(x, y) in the isotropic 3-space.

The package parses closed-form surface expressions, differentiates them to
second order with exact jet arithmetic (cross-checked by an independent
finite-difference oracle), computes the isotropic curvature invariants K
and H, scans linear Weingarten relation residuals over grids, generates
and verifies the classified constant-curvature families, integrates the
factor ODEs behind them, and exports sampled surfaces as Wavefront OBJ
meshes.

The public names that _EXPORTS lists by submodule are importable from the
package root, but a submodule is imported only when one of its names is
first used (a PEP 562 module __getattr__), so ``import isocurv`` loads no
submodule and a program pays only for the parts it uses.
"""

__version__ = "0.1.0"

# Submodule -> the public names it holds.
_EXPORTS = {
    "curvature": ("CurvaturePair", "curvatures", "euler_residual"),
    "domain": ("GridDomain",),
    "errors": (
        "DegenerateODEError", "DegenerateWeingartenError", "DivisionByZeroError",
        "EmptyDomainError", "EvaluationDomainError", "InvalidSpecError",
        "IsocurvError", "MixedVariableError", "NoConstantPredictionError",
        "NumericOverflowError", "ParseError", "SingularPointError",
        "StepTooLargeError", "UnknownIdentifierError",
    ),
    "expr": (
        "BinOp", "Call", "Const", "Expr", "Neg", "Pow", "Var", "eval_jet",
        "lift_1d", "num", "parse", "to_string", "variables",
    ),
    "families": (
        "Case31Candidate", "CaseA", "CaseB", "CaseC", "FamilyPrediction",
        "FamilySpec", "NonIsotropicPlane", "ParabolicSphere", "build",
        "case31_contradiction_scan", "case31_residual", "case31_rounding_bound",
        "predict", "singular_loci", "spec_from_dict", "spec_to_dict", "verify_family",
    ),
    "jet": ("Jet1", "Jet2"),
    "mesh": ("MeshStats", "build_mesh", "write_obj"),
    "ode": (
        "IVP", "SaturatedLinearODE", "ShiftedReciprocalODE", "integrate",
        "linear_force_solution", "shifted_reciprocal_residual",
        "shifted_reciprocal_solution",
    ),
    "oracle": ("JetComparison", "compare", "eval_value", "fd_jet"),
    "weingarten": (
        "LWParams", "NormalizedLW", "ResidualReport", "euler_residual_fn",
        "jacobian_residual_fn", "lw_residual", "lw_residual_fn", "normalize",
        "scan_grid", "summarize", "weingarten_jacobian",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# The names the README documents, and the base class of the package's errors.
__all__ = [
    "CurvaturePair", "curvatures", "euler_residual",
    "GridDomain",
    "DegenerateODEError", "IsocurvError", "NoConstantPredictionError", "ParseError",
    "StepTooLargeError",
    "eval_jet", "lift_1d", "parse", "to_string", "variables",
    "Case31Candidate", "CaseA", "CaseB", "CaseC", "NonIsotropicPlane",
    "ParabolicSphere", "build", "case31_contradiction_scan", "case31_rounding_bound",
    "predict", "spec_from_dict", "spec_to_dict", "verify_family",
    "Jet1", "Jet2",
    "build_mesh", "write_obj",
    "IVP", "SaturatedLinearODE", "ShiftedReciprocalODE", "integrate",
    "linear_force_solution", "shifted_reciprocal_residual",
    "shifted_reciprocal_solution",
    "compare", "eval_value", "fd_jet",
    "LWParams", "lw_residual", "normalize", "weingarten_jacobian",
]


def __getattr__(name: str):
    """Import the submodule holding name, and keep name in this module."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's machinery, which python -X importtime reports and
    # importlib.import_module bypasses; it also spares loading importlib.
    submodule = __import__(f"{__name__}.{module}", fromlist=[name])
    value = globals()[name] = getattr(submodule, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
