"""Numerical laboratory for quantum random walks on finite counital bialgebras.

Build a bialgebra from structure tensors or a finite group, form the
repeated-interaction walk for an implementing triple, and compare its
embedded matrix elements against the quantum stochastic cocycle limit.
"""

import os
import sys

# numpy's OpenBLAS starts a worker thread per core at import, and an idle worker
# spins (sched_yield) for up to 2^28 cycles before it sleeps, so a short process
# burns a second core.  On a 2-core Xeon VM `import numpy` took 225 ms wall /
# 224 ms CPU with the pool and 156 / 149 ms with one thread (median of 10), and
# the four demos took 23-25 % less CPU.  qwalklab's matrices are 4-8 wide in the
# demos; only the largest accepted input (S4, pi regular) reaches 625, where an
# SVD of four complex 625 x 625 matrices took 1.5 s on one thread against 1.1 s
# and 1.4x the CPU on two.  So the qwalklab program loads numpy with one BLAS
# thread: `python -m qwalklab` (runpy imports this package while sys.argv[0] is
# still "-m") and the `qwalklab` console script.  A program that imports
# qwalklab as a library keeps numpy's default, as it keeps its collector
# settings (see __main__).  On the same VM, with one thread in every process, a
# process that ran run_sweep between fresh library imports lost more of its wall
# time to the host (steal) than with the pool in 33 of 40 alternating 50-s runs,
# so its median time varied more from run to run.  Nothing changes when numpy
# is already loaded or the user set a thread count, and the environment is
# restored so that child processes see the user's own.  The names bound here
# are deleted again: the package namespace keeps only its API.
argv0 = sys.argv[0] if sys.argv else ""
if (
    (argv0 == "-m" or os.path.basename(argv0) == "qwalklab")
    and "numpy" not in sys.modules
    and not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ)
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del argv0, os, sys

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
