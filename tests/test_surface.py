"""The public surface: the package's __all__ is a contract, shrunk only on purpose."""
import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import qwalklab

from .conftest import with_src

PUBLIC_NAMES = [
    "CocycleEvaluator",
    "ConvolutionSemigroup",
    "CounitalBialgebra",
    "ExperimentConfig",
    "FiniteGroup",
    "FormatError",
    "ImplementingTriple",
    "OperatorMap",
    "StepFunction",
    "__version__",
    "amplified_norm",
    "assoc_generator",
    "build_function_algebra",
    "build_group_algebra",
    "build_unitary",
    "build_walk",
    "check_compatibility",
    "convolve_functionals",
    "cyclic_group",
    "error_terms",
    "extract_implementing_pair",
    "load_bialgebra",
    "run_sweep",
    "run_verify",
    "step_function_from_payload",
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

#: taken out of __all__ on purpose: the compatibility check's iterates are private to it, and the
#: unitary, the cell count and the hat lifting are plain values; the axiom and CP reports are the
#: dicts report.json holds, a failed axiom in a bialgebra file is a FormatError like every other bad
#: file, a broken precondition is a ValueError and an undecodable group payload a FormatError (no
#: caller told the four error types apart), a refused config is a FormatError too, extraction
#: reports its round-trip residual instead of raising, and the rest had no caller outside the tests
RETIRED_NAMES = (
    "AxiomViolation",
    "BialgebraReport",
    "CPDecompositionReport",
    "ConfigError",
    "DimensionCapExceeded",
    "GridSpec",
    "GroupTableError",
    "HatSpace",
    "NotStructureMapError",
    "PartitionMismatch",
    "StepSizeError",
    "WalkStep",
    "composition_iterates",
    "convolution_iterates",
    "convolve",
    "lift",
    "opnorm",
    "save_bialgebra",
    "step_function_to_payload",
)

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
    assert len(PUBLIC_NAMES) == 34
    assert sorted(qwalklab.__all__) == PUBLIC_NAMES
    assert [name for name in qwalklab.__all__ if not hasattr(qwalklab, name)] == []


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_retired_name_is_gone(name):
    assert name not in qwalklab.__all__
    assert not hasattr(qwalklab, name)
    for module in SUBMODULES:
        assert name not in importlib.import_module(f"qwalklab.{module}").__all__


@pytest.mark.parametrize("name", ["block_rep", "is_commutative", "is_cocommutative", "basis_coeffs"])
def test_bialgebra_holds_only_its_structure(name):
    # the block split is linalg.irreducible_blocks, (co)commutativity a verify_bialgebra flag
    assert not hasattr(qwalklab.CounitalBialgebra, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    module = importlib.import_module(f"qwalklab.{name}")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def _public_callables():
    """Every function in a submodule's __all__, and every method (dataclass __init__ included) of an exported class."""
    for module_name in SUBMODULES:
        module = importlib.import_module(f"qwalklab.{module_name}")
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value):
                for attr, member in vars(value).items():
                    member = getattr(member, "__func__", member)  # classmethods and staticmethods
                    if inspect.isfunction(member):
                        yield f"{module_name}.{name}.{attr}", member
            elif inspect.isfunction(value):
                yield f"{module_name}.{name}", value


def test_no_public_callable_takes_a_tolerance():
    # every pass bar is read from TOLERANCES or a named gate when the check runs
    taking = [name for name, fn in _public_callables() if "tol" in inspect.signature(fn).parameters]
    assert taking == []


def test_tolerances_are_one_table():
    import qwalklab.bialgebra
    import qwalklab.experiment

    assert qwalklab.experiment.TOLERANCES is qwalklab.bialgebra.TOLERANCES
    assert "TOLERANCES" in qwalklab.experiment.__all__


def test_bare_import_loads_no_numpy_and_resolves_every_name():
    # a fresh interpreter: each submodule, then each public name, is imported on first use
    code = (
        "import sys, qwalklab\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by a bare import'\n"
        f"missing = [n for n in {list(SUBMODULES)!r} + qwalklab.__all__ if not hasattr(qwalklab, n)]\n"
        "assert not missing, missing\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=with_src())
    assert proc.returncode == 0, proc.stderr


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
