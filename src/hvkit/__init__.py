"""Exact finite-probability toolkit for hidden-variable models.

Everything is computed over arbitrary-precision rationals: measures,
marginals, conditionals, fiber products, the six hidden-variable
property checkers, the determinization constructions, and the local
polytope membership solver with its certificates.
"""

from .determinize import (
    RefinedCellSpace,
    determinize_empirical,
    determinize_local,
    interval_partition,
    refined_cells,
    trivial_hv,
)
from .errors import (
    DomainError,
    HVKitError,
    InternalCheckError,
    LayoutError,
    ModelFormatError,
    PreconditionError,
    ResourceLimitError,
)
from .fiber import fiber_product, is_fiber_product
from .measure import (
    CondProb,
    FiniteMeasure,
    FiniteSpace,
    ProductLayout,
    conditional,
    marginal,
    measures_equal,
    product,
)
from .models import (
    EmpiricalModel,
    HVModel,
    empirical_model,
    equivalent,
    hv_model,
    realizes,
)
from .properties import (
    HVProperty,
    PropertyReport,
    Witness,
    check_all,
    check_lambda_independence,
    check_locality,
    check_outcome_independence,
    check_parameter_independence,
    check_property,
    check_strong_determinism,
    check_weak_determinism,
)
from .quantumgen import singlet_joint_probabilities, singlet_model
from .rationals import approximate_from_float, rational_from_string, rational_to_string
from .realizability import (
    DeterministicStrategy,
    LocalityCertificate,
    chsh_value,
    enumerate_strategies,
    local_hvm_exists,
)

__all__ = [name for name in dir() if not name.startswith("_")]
