"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems (including
malformed input) exit 1, a truncation that is too small for the request
exits 2, and a failed certification -- which indicates a genuine bug,
never a user error -- exits 3.
"""

from __future__ import annotations

from typing import Optional


class LincatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LincatError):
    """A vector or matrix has the wrong shape for the requested operation."""


class ScalarTypeError(LincatError):
    """A scalar handed to exact linear algebra is not an exact rational number."""


class CompositionError(LincatError):
    """Endpoint or degree mismatch when composing morphisms or forms."""


class IdempotentError(LincatError):
    """A matrix that was required to be idempotent is not; carries a witness."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class ModuleError(LincatError):
    """An element or map does not respect the module structure it was given."""


class TruncationError(LincatError):
    """The form truncation degree is too small for the requested computation."""


class CertificationError(LincatError):
    """A theorem-backed certificate failed to materialize.

    Raised when a quantity that is provably a commutator sum or a
    coboundary cannot be expressed as one.  This is a correctness bug in
    the engine or its input tables, not a user mistake.
    """


class WorkspaceError(LincatError):
    """A workspace document is malformed or internally inconsistent."""


class CategoryAxiomError(WorkspaceError):
    """A category fails its unit or associativity laws, or a graded category its graded laws.

    Raised by `universal_dg` before it builds anything, because the
    universal envelope needs a category, and by `get_complex` when the
    laws fail on the generating set of `validate_dg`, because the
    quotient complex needs a DG category.  `violations` are the failures
    that `validate_category` (and `validate_dg`) reports; `workspace` names
    the document when a universal-model workspace is parsed or the CLI
    re-checks a parsed workspace, and is None otherwise.
    """

    def __init__(self, message: str, violations: list, workspace: Optional[str] = None):
        super().__init__(message)
        self.violations = violations
        self.workspace = workspace
