"""Curvature invariants and linear Weingarten checks for graph surfaces
z(x, y) in the isotropic 3-space.

The package parses closed-form surface expressions, differentiates them to
second order with exact jet arithmetic (cross-checked by an independent
finite-difference oracle), computes the isotropic curvature invariants K
and H, scans linear Weingarten relation residuals over grids, generates
and verifies the classified constant-curvature families, integrates the
factor ODEs behind them, and exports sampled surfaces as Wavefront OBJ
meshes.
"""

from .curvature import CurvaturePair, curvatures, factorable_curvatures
from .domain import DEFAULT_EXCLUSION_RADIUS, GridDomain, VerticalLine
from .errors import (
    DegenerateODEError,
    DegenerateWeingartenError,
    DivisionByZeroError,
    EmptyDomainError,
    EvaluationDomainError,
    InvalidSpecError,
    IsocurvError,
    MixedVariableError,
    NoConstantPredictionError,
    NumericOverflowError,
    ParseError,
    SingularPointError,
    StepTooLargeError,
    UnknownIdentifierError,
)
from .expr import (
    Add,
    Const,
    Cos,
    Div,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    Pow,
    Sin,
    Sqrt,
    Sub,
    Var,
    eval_jet,
    eval_value,
    lift_1d,
    num,
    parse,
    to_string,
    variables,
)
from .families import (
    Case31Candidate,
    CaseA,
    CaseB,
    CaseC,
    FamilyPrediction,
    FamilySpec,
    NonIsotropicPlane,
    ParabolicSphere,
    build,
    case31_contradiction_scan,
    case31_residual,
    predict,
    singular_loci,
    spec_from_dict,
    spec_to_dict,
    verify_family,
)
from .jet import Jet1, Jet2
from .mesh import MeshStats, build_mesh, write_obj
from .ode import (
    IVP,
    SaturatedLinearODE,
    ShiftedReciprocalODE,
    integrate,
    linear_force_solution,
    shifted_reciprocal_residual,
    shifted_reciprocal_solution,
)
from .oracle import FDConfig, JetComparison, compare, fd_jet
from .weingarten import (
    LWParams,
    NormalizedLW,
    ResidualReport,
    euler_residual,
    euler_residual_fn,
    jacobian_residual_fn,
    lw_residual,
    lw_residual_fn,
    normalize,
    scan_grid,
    summarize,
    weingarten_jacobian,
)

__version__ = "0.1.0"

# The names the README documents, and the base class of the package's errors.
__all__ = [
    "CurvaturePair",
    "curvatures",
    "factorable_curvatures",
    "GridDomain",
    "DegenerateODEError",
    "IsocurvError",
    "NoConstantPredictionError",
    "ParseError",
    "StepTooLargeError",
    "eval_jet",
    "eval_value",
    "lift_1d",
    "parse",
    "to_string",
    "variables",
    "Case31Candidate",
    "CaseA",
    "CaseB",
    "CaseC",
    "NonIsotropicPlane",
    "ParabolicSphere",
    "build",
    "case31_contradiction_scan",
    "predict",
    "spec_from_dict",
    "spec_to_dict",
    "verify_family",
    "Jet1",
    "Jet2",
    "build_mesh",
    "write_obj",
    "IVP",
    "SaturatedLinearODE",
    "ShiftedReciprocalODE",
    "integrate",
    "linear_force_solution",
    "shifted_reciprocal_residual",
    "shifted_reciprocal_solution",
    "compare",
    "fd_jet",
    "LWParams",
    "euler_residual",
    "lw_residual",
    "normalize",
    "weingarten_jacobian",
]
