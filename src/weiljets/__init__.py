"""Exact kernel for truncated local algebras, jets and algebra-valued points.

Everything is computed over arbitrary-precision rationals, so equality of
ideals, ranks, contact data and all reported invariants is exact.
"""

from .errors import (
    DimensionMismatchError,
    EmptyQuotientError,
    HintTooSmallError,
    InternalCheckError,
    NotAnIdealError,
    NotEpimorphismError,
    OutOfMemoryError,
    SessionError,
    SessionParseError,
    UnknownNameError,
    WeilJetsError,
    WindowTooLargeError,
)
from .poly import (
    TruncatedPolynomial,
    as_fraction,
    format_polynomial,
    parse_polynomial,
    substitution,
    truncated_product,
    truncated_substitute,
    variable_names,
)
from .subspace import Subspace
from .weil import (
    AlgebraElement,
    DerivationSpace,
    IdealStabilityReport,
    WeilAlgebra,
    derivation_space,
    free_truncated_algebra,
    ideal_stability,
    quotient_algebra,
    tensor_product,
)
from .jets import (
    ContactData,
    CotangentModule,
    Jet,
    NormalForm,
    TangentMap,
    TangentModule,
    TaylorData,
    cartan_generation_oracle,
    classical_jet,
    contact_and_cartan,
    cotangent_module,
    derived_jet,
    hat_ideal,
    jet_fields,
    jet_from_ideal,
    normal_form,
    pushforward,
    tangent_map,
    tangent_module,
    taylor_map,
)
from .apoints import (
    APoint,
    GroupLaw,
    WeilCheckReport,
    apoint,
    cartesian_product,
    component_names,
    evaluate,
    factor_epimorphism,
    group_inverse,
    group_law,
    group_product,
    prolong_polynomial,
    regularity_and_kernel,
    weil_iso_check,
)
from .session import Report, Session, execute, parse_session, render

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
