"""The public surface: the package's __all__ is a contract, shrunk only on purpose."""
import ast
import importlib
from pathlib import Path

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


def test_console_script_is_the_program_entry():
    # `qwalklab ...` must call the function that `python -m qwalklab ...` calls: the one that freezes the heap
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qwalklab"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr)
    main_module = importlib.import_module("qwalklab.__main__")
    guard = next(
        node
        for node in ast.parse(Path(main_module.__file__).read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    called = [
        node.func.id
        for node in ast.walk(guard)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id != "SystemExit"
    ]
    assert len(called) == 1
    assert getattr(main_module, called[0]) is entry
    assert "freeze" in entry.__code__.co_names
