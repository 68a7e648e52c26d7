"""reachkit: actuator selection for single state transfers in linear systems.

Decide which nodes of ``x' = A x + B u`` must receive input so that a given
state transfer becomes achievable, solve for minimum-cardinality node sets
exactly and greedily, check (and refute) supermodularity of the underlying
distance-to-subspace objective, generate reduction instances that encode
sparse variable selection as reachability, and synthesize minimum-energy
inputs that realize feasible transfers.

The synthesis names (``SynthesisResult``, ``min_energy_transfer``,
``reach_gramian``) load :mod:`reachkit.synth`, and with it
``scipy.integrate``, on first use.
"""

from .errors import (
    CapacityError,
    InfeasibleError,
    InstanceFormatError,
    ReachkitError,
    ReductionIntegrityError,
)
from .hardness import (
    BlockSelection,
    ExtractionResult,
    HardInstance,
    ReductionDims,
    extract_solution,
    find_disjoint_block,
    forward_map,
    generate,
    stacked_corner,
)
from .instance_io import InstanceDoc, load_instance, write_instance
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    dist_sq_to_range,
    mat_exp,
    numerical_rank,
    range_basis,
)
from .setfun import (
    ColumnSelectionFunction,
    SetFunctionReport,
    Violation,
    check_monotone,
    check_supermodular,
    evaluate,
)
from .solvers import (
    SolveResult,
    VarSelInstance,
    VarSelResult,
    exact_min_reach,
    greedy_min_reach,
    varsel_exact,
)
from .system import (
    FeasibilityResult,
    LinearSystem,
    actuation_mask,
    is_feasible,
    reachability_matrix,
    star_system,
    transfer_offset,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSelection",
    "CapacityError",
    "ColumnSelectionFunction",
    "DEFAULT_TOL",
    "ExtractionResult",
    "FeasibilityResult",
    "HardInstance",
    "InfeasibleError",
    "InstanceDoc",
    "InstanceFormatError",
    "LinearSystem",
    "ReachkitError",
    "ReductionDims",
    "ReductionIntegrityError",
    "SetFunctionReport",
    "SolveResult",
    "SynthesisResult",
    "Tolerance",
    "VarSelInstance",
    "VarSelResult",
    "Violation",
    "actuation_mask",
    "check_monotone",
    "check_supermodular",
    "dist_sq_to_range",
    "evaluate",
    "exact_min_reach",
    "extract_solution",
    "find_disjoint_block",
    "forward_map",
    "generate",
    "greedy_min_reach",
    "is_feasible",
    "load_instance",
    "mat_exp",
    "min_energy_transfer",
    "numerical_rank",
    "range_basis",
    "reach_gramian",
    "reachability_matrix",
    "stacked_corner",
    "star_system",
    "transfer_offset",
    "varsel_exact",
    "write_instance",
]

# Served by __getattr__ (PEP 562), so that importing the package does not
# import scipy.integrate.
_SYNTH_NAMES = frozenset({"SynthesisResult", "min_energy_transfer", "reach_gramian"})


def __getattr__(name: str):
    if name in _SYNTH_NAMES:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
