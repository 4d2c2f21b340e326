import os
from pathlib import Path

import numpy as np
import pytest

from qwalklab import (
    CounitalBialgebra,
    ExperimentConfig,
    ImplementingTriple,
    build_function_algebra,
    build_group_algebra,
    cyclic_group,
    symmetric_group,
)
from qwalklab.bialgebra import bialgebra_to_payload
from qwalklab.experiment import _demo_payload
from qwalklab.groups import cyclic_character_table, symmetric_sign_character

#: the checkout's src: pytest puts it on sys.path (pyproject's pythonpath), but a child interpreter does not inherit that
SRC = Path(__file__).resolve().parents[1] / "src"


def with_src(env=None) -> dict:
    """env (default os.environ) with the checkout's src first on PYTHONPATH, for a child interpreter."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def overflowing_file_payload(b: CounitalBialgebra) -> dict:
    """The bialgebra-v1 payload of b in the basis b' = 1e160 b, with faithful_rep[1] set to 1.5e160 sigma_x.

    That rep is not a representation, and its residual, like the associativity and characters
    residuals, overflows to NaN (inf - inf) when verify_bialgebra forms it.  b is C[Z2].
    """
    s = 1e160
    rep = s * b.rep
    rep[1] = 1.5e160 * np.array([[0.0, 1.0], [1.0, 0.0]])
    scaled = CounitalBialgebra(
        name=b.name,
        labels=b.labels,
        mult=s * b.mult,
        invol=b.invol,
        unit=b.unit / s,
        coproduct=b.coproduct / s,
        counit=s * b.counit,
        characters=s * b.characters,
        rep=rep,
    )
    return bialgebra_to_payload(scaled)


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def c_z2(z2):
    return build_function_algebra(z2)


@pytest.fixture(scope="session")
def c_s3(s3):
    return build_function_algebra(s3)


@pytest.fixture(scope="session")
def group_z2(z2):
    return build_group_algebra(z2, extra_characters=list(cyclic_character_table(2)[1:]))


@pytest.fixture(scope="session")
def group_s3(s3):
    return build_group_algebra(s3, extra_characters=[symmetric_sign_character(3)])


@pytest.fixture(scope="session")
def all_bialgebras(c_z2, c_s3, group_z2, group_s3):
    return (c_z2, c_s3, group_z2, group_s3)


@pytest.fixture
def z2_sign_triple(group_z2):
    """Sign character as a one-dimensional representation of C[Z2]."""
    pi = group_z2.characters[1].reshape(-1, 1, 1)
    return ImplementingTriple(source=group_z2, pi=pi, xi=np.array([1.5 + 0.0j]))


@pytest.fixture
def c_z2_eval_triple(c_z2):
    """Point evaluation at the nonidentity element of Z2."""
    pi = c_z2.characters[1].reshape(-1, 1, 1)
    return ImplementingTriple(source=c_z2, pi=pi, xi=np.array([1.2 + 0.0j]))


@pytest.fixture
def s3_regular_triple(group_s3):
    """Left regular representation of C[S3] with a generic vector."""
    xi = np.array([0.5, -0.2 + 0.1j, 0.3, 0.1j, -0.4, 0.2], dtype=complex)
    return ImplementingTriple(source=group_s3, pi=group_s3.rep, xi=xi)


@pytest.fixture
def s3_cp_triple(group_s3):
    """Regular representation compressed along the sign eigenvector."""
    sign = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0]) / np.sqrt(6.0)
    w2 = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0]) / 2.0
    xi = 1.6 * (0.95 * sign + np.sqrt(1.0 - 0.95**2) * w2)
    return ImplementingTriple(
        source=group_s3,
        pi=group_s3.rep,
        xi=xi.astype(complex),
        D=sign.reshape(6, 1).astype(complex),
    )


@pytest.fixture(scope="session")
def s3_demo_config(tmp_path_factory):
    """The group-s3 demo: two step-function pairs, each with one inner breakpoint."""
    return ExperimentConfig.from_payload(_demo_payload("group-s3"), tmp_path_factory.mktemp("group-s3"))
