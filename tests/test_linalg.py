import numpy as np
import pytest

from qwalklab import ConvolutionSemigroup, OperatorMap, StepFunction, structure_map_from_pair
from qwalklab.cocycle import assoc_generator
from qwalklab.linalg import expm, readonly, standard_normal

from .oracles import operator_transfer_matrix

EXPM_RTOL = 1e-12
TRIPLES = ("z2_sign_triple", "c_z2_eval_triple", "s3_regular_triple", "s3_cp_triple")


@pytest.fixture(scope="module")
def reference_expm():
    """scipy's expm is a test-only oracle; the package itself never imports scipy."""
    return pytest.importorskip("scipy.linalg").expm


def relative_error(a, reference_expm):
    ref = reference_expm(a)
    return np.linalg.norm(expm(a) - ref, 1) / np.linalg.norm(ref, 1)


@pytest.mark.parametrize("upper_triangular", [False, True], ids=["dense", "upper-triangular"])
@pytest.mark.parametrize("n", [1, 2, 6, 7, 24, 36])
def test_expm_matches_reference(reference_expm, n, upper_triangular):
    rng = np.random.default_rng(n)
    for norm in np.geomspace(1e-8, 200.0, 12):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if upper_triangular:
            a = np.triu(a)
        a *= norm / np.linalg.norm(a, 1)
        assert relative_error(a, reference_expm) <= EXPM_RTOL, norm


@pytest.mark.parametrize("name", TRIPLES)
def test_expm_matches_reference_on_transfer_matrices(reference_expm, request, name):
    triple = request.getfixturevalue(name)
    b = triple.source
    phi = structure_map_from_pair(triple, b.counit)
    c = np.full(triple.noise_dim, 0.7 - 0.2j)
    d = np.full(triple.noise_dim, 0.4 + 0.5j)
    # the operator-valued generator and the functional the cocycle limit exponentiates
    transfers = {
        "operator": operator_transfer_matrix(b.coproduct, phi.mats),
        "functional": ConvolutionSemigroup(b, assoc_generator(phi, c, d)).transfer,
    }
    for kind, transfer in transfers.items():
        for t in (0.3, 1.0, 10.0):
            assert relative_error(t * transfer, reference_expm) <= EXPM_RTOL, (kind, t)


def test_expm_of_zero_and_diagonal():
    assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), rtol=0, atol=1e-15)
    diag = np.array([-40.0, 0.5, 3.0 + 2.0j])
    assert np.allclose(expm(np.diag(diag)), np.diag(np.exp(diag)), rtol=1e-13, atol=0)


def test_standard_normal_is_seeded_and_standard():
    assert np.array_equal(standard_normal(7, (3, 5)), standard_normal(7, (3, 5)))
    assert not np.array_equal(standard_normal(7, (3, 5)), standard_normal(8, (3, 5)))
    z = standard_normal(0, (10**5,))
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02


def test_readonly_copies_writable_input_and_keeps_frozen_input():
    x = np.arange(4, dtype=complex)
    frozen = readonly(x)
    assert frozen is not x and x.flags.writeable and not frozen.flags.writeable
    assert readonly(frozen) is frozen


def test_frozen_objects_do_not_share_the_callers_arrays(group_z2):
    base = np.zeros((3, 2, 2), dtype=complex)
    m = base[:2]  # complex and C-contiguous, but a view
    v = np.array([[1.0 + 0.5j], [2.0]])
    op = OperatorMap(group_z2, m)
    f = StepFunction(np.array([0.5, 0.5]), v)
    assert m.flags.writeable and v.flags.writeable
    base[0, 0, 0] = 7.0
    m[1, 1, 1] = 7.0
    v[0, 0] = 7.0
    assert not op.mats.any()
    assert f.values[0, 0] == 1.0 + 0.5j
