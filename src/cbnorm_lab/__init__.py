"""Numerical laboratory for completely bounded norms of holomorphic functions
on matrix unit balls: amplification, sandwich bounds, matrix convex hulls,
separation certificates, and the evaluation-functional predual model."""

__version__ = "0.1.0"

from .cbnorm import (
    CbEstimate,
    Witness,
    algebra_check,
    cb_lower_bound,
    cb_upper_bound,
    level_sup,
    lift_witness,
    sandwich,
    schwarz_check,
    witness_value,
)
from .errors import (
    CbnormLabError,
    ConfigurationError,
    DomainError,
    InvalidInputError,
    InvalidRepresentationError,
    SandwichViolationError,
)
from .gcb import (
    FunctionDictionary,
    GcbElement,
    GcbTerm,
    GridEntry,
    ScalarEntry,
    delta_element,
    delta_isometry_check,
    gcb_lower_bound,
    gcb_pairing,
    gcb_upper_bound,
)
from .holofun import (
    Blaschke,
    Composite,
    GeometricPhi,
    HoloFunction,
    MoebiusQuotient,
    PowerSeries,
    Product,
    Scale,
    Sum,
    TaylorCoeffs,
    amplify,
    taylor_coefficients,
)
from .matcore import (
    operator_norm,
    schur_product,
)
from .mconvex import (
    HullRepresentation,
    HullTerm,
    MatrixSet,
    SeparationCertificate,
    check_certificate,
    find_certificate,
    hull_element,
    hull_norm_check,
    pairing,
)
from .opspace import (
    ConcreteOperatorSpace,
    OpSpaceMatrix,
    matrix_norm,
    realize,
    sample_matrix_ball,
    space_column,
    space_min_linf,
    space_mk,
    space_row,
    space_scalar,
)
