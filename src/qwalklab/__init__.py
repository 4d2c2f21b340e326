"""Numerical laboratory for quantum random walks on finite counital bialgebras.

Build a bialgebra from structure tensors or a finite group, form the
repeated-interaction walk for an implementing triple, and compare its
embedded matrix elements against the quantum stochastic cocycle limit.

Importing the package loads nothing else: each public name, and each
submodule but ``__main__``, is imported on first use (PEP 562).  So numpy is
not loaded yet when ``python -m qwalklab`` runs ``qwalklab.__main__``, which
sets the program's own process settings (BLAS threads, logging, the
collector) before it loads numpy; a program that imports qwalklab as a
library keeps its own.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "bialgebra": (
        "CounitalBialgebra", "build_function_algebra", "build_group_algebra", "load_bialgebra",
        "verify_bialgebra",
    ),
    "cbnorm": ("amplified_norm",),
    "cocycle": ("CocycleEvaluator", "assoc_generator"),
    "convolution": ("ConvolutionSemigroup", "check_compatibility", "convolve_functionals"),
    "experiment": ("ExperimentConfig", "run_sweep", "run_verify", "write_demo"),
    "fock": ("StepFunction", "step_function_from_payload", "walk_matrix_element"),
    "groups": ("FiniteGroup", "cyclic_group", "symmetric_group"),
    "serialize": ("FormatError",),
    "structure_maps": (
        "ImplementingTriple", "OperatorMap", "extract_implementing_pair",
        "structure_map_from_pair", "verify_cp_decomposition", "verify_structure_relation",
    ),
    "walk": (
        "build_unitary", "build_walk", "error_terms", "verify_error_identity", "vector_state_check",
    ),
}
_OWNERS = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli", "linalg"}

__all__ = [*_OWNERS, "__version__"]


def __getattr__(name: str):
    if name in _OWNERS:
        value = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
