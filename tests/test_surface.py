"""The public surface: the package's __all__ is a contract, shrunk only on purpose."""
import importlib

import pytest

import qwalklab

PUBLIC_NAMES = [
    "AxiomViolation",
    "BialgebraReport",
    "CocycleEvaluator",
    "ConfigError",
    "ConvolutionSemigroup",
    "CounitalBialgebra",
    "DimensionCapExceeded",
    "ExperimentConfig",
    "FiniteGroup",
    "FormatError",
    "GridSpec",
    "GroupTableError",
    "HatSpace",
    "ImplementingTriple",
    "NotStructureMapError",
    "OperatorMap",
    "PartitionMismatch",
    "StepFunction",
    "StepSizeError",
    "WalkStep",
    "__version__",
    "amplified_norm",
    "assoc_generator",
    "build_function_algebra",
    "build_group_algebra",
    "build_unitary",
    "build_walk",
    "check_compatibility",
    "composition_iterates",
    "convolution_iterates",
    "convolve",
    "convolve_functionals",
    "cyclic_group",
    "error_terms",
    "extract_implementing_pair",
    "lift",
    "load_bialgebra",
    "run_sweep",
    "run_verify",
    "save_bialgebra",
    "step_function_from_payload",
    "step_function_to_payload",
    "structure_map_from_pair",
    "symmetric_group",
    "vector_state_check",
    "verify_bialgebra",
    "verify_cp_decomposition",
    "verify_error_identity",
    "verify_structure_relation",
    "walk_matrix_element",
    "write_demo",
]

SUBMODULES = (
    "bialgebra",
    "cbnorm",
    "cli",
    "cocycle",
    "convolution",
    "experiment",
    "fock",
    "groups",
    "linalg",
    "serialize",
    "structure_maps",
    "walk",
)


def test_package_all_is_pinned():
    assert sorted(qwalklab.__all__) == PUBLIC_NAMES
    assert [name for name in qwalklab.__all__ if not hasattr(qwalklab, name)] == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"qwalklab.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
