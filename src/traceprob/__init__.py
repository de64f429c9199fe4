"""Trace-rule probability calculus for deterministic cycles and their
Hermitian generalization: diagonal projectors and densities from classical
schedules, f(S) = tr(P(S) rho), superselection dephasing, positive-operator
measures, and seeded Monte Carlo sampling.
"""

from types import ModuleType as _ModuleType

from .classical import (
    ClassicalCycle,
    FractionVector,
    PerceptionSet,
    char_and,
    classical_density,
    classical_prob,
    diag_projector,
    dwell_fractions,
    time_average_indicator,
)
from .errors import (
    DimensionMismatchError,
    NonCommutingError,
    NonFiniteError,
    NotAPartitionError,
    NotHermitianError,
    NotRealError,
    NotSubsetError,
    NotUnitaryError,
    NumericalIntegrityError,
    SpecParseError,
    TraceProbError,
    UnknownLabelError,
    ValidationError,
    ZeroConditionMeasureError,
    ZeroTotalMeasureError,
)
from .matcore import (
    DEFAULT_TOL,
    hermitian_eig,
    is_density,
    is_hermitian,
    is_projector,
    matrix_from_rows,
    max_abs,
    trace,
)
from .measure import (
    PerceptionAlgebra,
    PovOperator,
    conditional_prob,
    measure_of,
    normalized_prob,
    total_measure,
    union_operator,
)
from .quantum import (
    DensityMatrix,
    Projector,
    RealityMode,
    check_invariance,
    commutes,
    projector_meet,
    trace_prob,
    unitary_conjugate,
)
from .sampler import SampleReport, deviation_check, sample_classical, sample_measurement
from .specfile import SystemSpec, algebra_from_obj, load_system_spec
from .superselect import (
    Hamiltonian,
    default_cluster_tol,
    dephase,
    energy_blocks,
    evolve,
    is_superselection_compliant,
)

__version__ = "0.1.0"

# The imports above are the public surface; __all__ lists their names in import order.
__all__ = [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]
__all__.append("__version__")
