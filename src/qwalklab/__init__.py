"""Numerical laboratory for quantum random walks on finite counital bialgebras.

Build a bialgebra from structure tensors or a finite group, form the
repeated-interaction walk for an implementing triple, and compare its
embedded matrix elements against the quantum stochastic cocycle limit.
"""

from .bialgebra import (
    AxiomViolation,
    BialgebraReport,
    CounitalBialgebra,
    build_function_algebra,
    build_group_algebra,
    load_bialgebra,
    save_bialgebra,
    verify_bialgebra,
)
from .cbnorm import amplified_norm
from .cocycle import CocycleEvaluator, assoc_generator
from .convolution import (
    ConvolutionSemigroup,
    DimensionCapExceeded,
    check_compatibility,
    composition_iterates,
    convolution_iterates,
    convolve,
    convolve_functionals,
    lift,
)
from .experiment import ConfigError, ExperimentConfig, run_sweep, run_verify, write_demo
from .fock import (
    GridSpec,
    PartitionMismatch,
    StepFunction,
    step_function_from_payload,
    step_function_to_payload,
    walk_matrix_element,
)
from .groups import FiniteGroup, GroupTableError, cyclic_group, symmetric_group
from .serialize import FormatError
from .structure_maps import (
    HatSpace,
    ImplementingTriple,
    NotStructureMapError,
    OperatorMap,
    extract_implementing_pair,
    structure_map_from_pair,
    verify_cp_decomposition,
    verify_structure_relation,
)
from .walk import (
    StepSizeError,
    WalkStep,
    build_unitary,
    build_walk,
    error_terms,
    verify_error_identity,
    vector_state_check,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation",
    "BialgebraReport",
    "CounitalBialgebra",
    "build_function_algebra",
    "build_group_algebra",
    "load_bialgebra",
    "save_bialgebra",
    "verify_bialgebra",
    "amplified_norm",
    "CocycleEvaluator",
    "assoc_generator",
    "ConvolutionSemigroup",
    "DimensionCapExceeded",
    "check_compatibility",
    "composition_iterates",
    "convolution_iterates",
    "convolve",
    "convolve_functionals",
    "lift",
    "ConfigError",
    "ExperimentConfig",
    "run_sweep",
    "run_verify",
    "write_demo",
    "GridSpec",
    "PartitionMismatch",
    "StepFunction",
    "step_function_from_payload",
    "step_function_to_payload",
    "walk_matrix_element",
    "FiniteGroup",
    "GroupTableError",
    "cyclic_group",
    "symmetric_group",
    "FormatError",
    "HatSpace",
    "ImplementingTriple",
    "NotStructureMapError",
    "OperatorMap",
    "extract_implementing_pair",
    "structure_map_from_pair",
    "verify_cp_decomposition",
    "verify_structure_relation",
    "StepSizeError",
    "WalkStep",
    "build_unitary",
    "build_walk",
    "error_terms",
    "verify_error_identity",
    "vector_state_check",
    "__version__",
]
