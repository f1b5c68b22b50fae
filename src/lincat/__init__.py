"""Exact computations in finite linear categories with differential forms.

The package builds finite-dimensional categories over the rationals,
extends them by graded form spaces (a universal construction, a trivial
one, or explicit tables), and computes with modules, connections,
curvature, trace classes, and character classes in the quotient complex
of diagonal forms modulo commutators.  All arithmetic is exact.
"""

from .category import (
    Category,
    ObjectId,
    Violation,
    build_category,
    validate_category,
)
from .chern import (
    CocycleCertificate,
    InvarianceCertificate,
    K0Entry,
    certify_cocycle,
    chern_class,
    chern_form,
    invariance_certificate,
    k0_character,
)
from .connection import (
    Connection,
    canonical_connection,
    compress,
    conjugate,
    direct_sum_connection,
    tilde_curvature,
)
from .derham import (
    DeRhamComplex,
    TildeComplex,
    get_complex,
)
from .dg import (
    DGCategory,
    Form,
    render_form,
    trivial_dg,
    universal_dg,
    validate_dg,
)
from .errors import (
    CategoryAxiomError,
    CertificationError,
    CompositionError,
    DimensionError,
    IdempotentError,
    LincatError,
    ModuleError,
    ScalarTypeError,
    TruncationError,
    WorkspaceError,
)
from .exact_linalg import format_scalar
from .form_matrix import FormMatrix, block_diag
from .module_algebra import (
    DirectSumData,
    ProjectiveModule,
    direct_sum,
    hs_trace,
)
from .workspace import (
    Workspace,
    fixture_names,
    load_fixture,
    load_workspace,
    parse_workspace,
    serialize_workspace,
    workspace_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "Category",
    "CategoryAxiomError",
    "CocycleCertificate",
    "CompositionError",
    "CertificationError",
    "Connection",
    "DGCategory",
    "DeRhamComplex",
    "DimensionError",
    "DirectSumData",
    "Form",
    "FormMatrix",
    "IdempotentError",
    "InvarianceCertificate",
    "K0Entry",
    "LincatError",
    "ModuleError",
    "ObjectId",
    "ProjectiveModule",
    "ScalarTypeError",
    "TildeComplex",
    "TruncationError",
    "Violation",
    "Workspace",
    "WorkspaceError",
    "block_diag",
    "build_category",
    "canonical_connection",
    "certify_cocycle",
    "chern_class",
    "chern_form",
    "compress",
    "conjugate",
    "direct_sum",
    "direct_sum_connection",
    "fixture_names",
    "format_scalar",
    "get_complex",
    "hs_trace",
    "invariance_certificate",
    "k0_character",
    "load_fixture",
    "load_workspace",
    "parse_workspace",
    "render_form",
    "serialize_workspace",
    "tilde_curvature",
    "trivial_dg",
    "universal_dg",
    "validate_category",
    "validate_dg",
    "workspace_from_dict",
]
