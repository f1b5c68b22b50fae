"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation problems (including
malformed input) exit 1, a truncation that is too small for the request
exits 2, and a failed certification -- which indicates a genuine bug,
never a user error -- exits 3.
"""

from __future__ import annotations


class LincatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LincatError):
    """A vector or matrix has the wrong shape for the requested operation."""


class ScalarTypeError(LincatError):
    """An entry handed to exact linear algebra is not a `fractions.Fraction`."""


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
    """The category of a workspace fails its unit or associativity laws.

    Raised before a universal envelope is built on it, because that
    construction needs a category; `violations` are the failures that
    `validate_category` reports, and `workspace` names the document.
    """

    def __init__(self, message: str, workspace: str, violations: list):
        super().__init__(message)
        self.workspace = workspace
        self.violations = violations
