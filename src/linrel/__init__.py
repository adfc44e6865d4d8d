"""Linear relations on finite-dimensional complex Hilbert spaces.

A linear relation is a subspace of the product H x K, generalizing the
graph of an operator to multivalued and partially defined maps.  This
package makes the calculus of such relations computable: adjoints,
operator parts, nonnegative selfadjoint relations with their square
roots and form ordering, block decompositions along a subspace, and the
Schur complement and compression with their factorizations.

Everything reduces to dense numpy linear algebra under one explicit
tolerance policy.  Random instances, a verification harness, and a CLI
round the package out.
"""

from .block import BlockRepresentation, analyze, assemble, factorize, operator_block
from .errors import (
    ComponentMismatchError,
    ConditionViolatedError,
    DimensionMismatchError,
    FormatError,
    InternalInconsistencyError,
    InvarianceViolatedError,
    LinRelError,
    NotHermitianError,
    NotNonnegativeError,
    NotPsdError,
    NotSelfAdjointError,
    NotSymmetricError,
    OrderViolatedError,
    SpecInvalidError,
    UnsolvableError,
)
from .generator import InstanceSpec, generate, random_psd, random_relation, random_subspace, rng_for
from .kernel import DEFAULT_TOL, Tolerances
from .nonneg import (
    NonnegSelfAdjointRelation,
    friedrichs,
    gram,
    gram_with_diagnostics,
    leq,
    leq_report,
    validate,
)
from .relation import LinearRelation, identity_relation, mul_only, zero_operator_on
from .schur import (
    AdditiveDecomposition,
    MaximalityReport,
    PekarevResult,
    SchurResult,
    additive_decomposition,
    anderson_trapp,
    certify,
    compress,
    is_member,
    maximality_probe,
    pekarev,
    schur_analysis,
    schur_complement,
)
from .subspace import Subspace, invariance_report, require_invariant
from .verify import CHECK_NAMES, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "AdditiveDecomposition",
    "BlockRepresentation",
    "CHECK_NAMES",
    "ComponentMismatchError",
    "ConditionViolatedError",
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "FormatError",
    "InstanceSpec",
    "InternalInconsistencyError",
    "InvarianceViolatedError",
    "LinRelError",
    "LinearRelation",
    "MaximalityReport",
    "NonnegSelfAdjointRelation",
    "NotHermitianError",
    "NotNonnegativeError",
    "NotPsdError",
    "NotSelfAdjointError",
    "NotSymmetricError",
    "OrderViolatedError",
    "PekarevResult",
    "SchurResult",
    "SpecInvalidError",
    "Subspace",
    "Tolerances",
    "UnsolvableError",
    "VerificationReport",
    "additive_decomposition",
    "analyze",
    "anderson_trapp",
    "assemble",
    "certify",
    "compress",
    "factorize",
    "friedrichs",
    "generate",
    "gram",
    "gram_with_diagnostics",
    "identity_relation",
    "invariance_report",
    "is_member",
    "leq",
    "leq_report",
    "maximality_probe",
    "mul_only",
    "operator_block",
    "pekarev",
    "random_psd",
    "random_relation",
    "random_subspace",
    "require_invariant",
    "rng_for",
    "run_verification",
    "schur_analysis",
    "schur_complement",
    "validate",
    "zero_operator_on",
    "__version__",
]
