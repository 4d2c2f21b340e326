"""Structure maps on hat spaces and their implementing pairs/triples.

The hat space of a d-dimensional noise space is C (+) C^d with
distinguished vector e_0 and hat lifting c -> (1, c).  A chi-structure
map is a linear map phi from the bialgebra into operators on a hat space
satisfying

    phi(a* b) = phi(a)* chi(b) + conj(chi(a)) phi(b) + phi(a)* P phi(b)

where P = diag(0, I) kills the e_0 component.  Such maps are exactly the
block forms

    phi(a) = [[gamma(a), <xi| nu(a)], [nu(a) |xi>, nu(a)]]

for a unital *-representation pi, nu = pi - chi(.)I and
gamma = <xi, nu(.) xi>.  That block form is V* nu(.) V with V = [|xi>, I];
replacing I by an isometry D gives the completely positive generators
V* nu(.) V, V = [|xi>, D], of the compressed walks.  A triple without D is
the case D = I, and one builder serves both.  It is one linalg.compress
of nu by V, the compression by which walk also builds the walk step and
the generator gap.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import TOLERANCES, CounitalBialgebra
from .linalg import as_complex_array, compress, dag, opnorms, readonly

__all__ = [
    "hat",
    "OperatorMap",
    "ImplementingTriple",
    "ExtractionReport",
    "structure_map_from_pair",
    "verify_structure_relation",
    "extract_implementing_pair",
    "default_decomposition_vector",
    "verify_cp_decomposition",
    "cp_block_matrix",
]

#: the bar on a triple's product, star and isometry residuals, checked when the triple is built
TRIPLE_TOL = 1e-10


def hat(c) -> np.ndarray:
    """The hat lifting (1, c) of a noise vector c."""
    return np.concatenate([[1.0 + 0.0j], np.atleast_1d(as_complex_array(c))])


@dataclass(frozen=True, eq=False)
class OperatorMap:
    """A linear map from the bialgebra into K x K matrices, one per basis element."""

    source: CounitalBialgebra
    mats: np.ndarray

    def __post_init__(self):
        mats = readonly(self.mats)
        if mats.ndim != 3 or mats.shape[0] != self.source.dim or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrix stack has shape {mats.shape}, expected ({self.source.dim}, K, K)")
        object.__setattr__(self, "mats", mats)

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def __call__(self, coeffs) -> np.ndarray:
        coeffs = as_complex_array(coeffs)
        if coeffs.shape != (self.source.dim,):
            raise ValueError(f"coefficients have shape {coeffs.shape}, expected ({self.source.dim},)")
        return np.einsum("i,iab->ab", coeffs, self.mats)

    def at_unit(self) -> np.ndarray:
        return self(self.source.unit)

    def distance(self, other: "OperatorMap") -> float:
        if self.mats.shape != other.mats.shape:
            raise ValueError("operator maps act on different spaces")
        return float(np.max(opnorms(self.mats - other.mats)))

    def __add__(self, other: "OperatorMap") -> "OperatorMap":
        return OperatorMap(self.source, self.mats + other.mats)

    def __sub__(self, other: "OperatorMap") -> "OperatorMap":
        return OperatorMap(self.source, self.mats - other.mats)

    def __mul__(self, scalar) -> "OperatorMap":
        return OperatorMap(self.source, self.mats * complex(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class ImplementingTriple:
    """(pi, xi, D): representation, reference vector, optional isometry.

    pi acts on C^p, xi lives there, and D, when present, is a p x d
    isometry selecting the retained noise directions.  An absent D means
    D = I: every noise direction is kept.  Building a triple refuses a pi
    that is not a *-homomorphism or a D that is not an isometry, to
    TRIPLE_TOL; unitality is not required (a non-unital pi makes phi(1) != 0).
    """

    source: CounitalBialgebra
    pi: np.ndarray
    xi: np.ndarray
    D: np.ndarray | None = None

    def __post_init__(self):
        pi = readonly(self.pi)
        n = self.source.dim
        if pi.ndim != 3 or pi.shape[0] != n or pi.shape[1] != pi.shape[2]:
            raise ValueError(f"pi has shape {pi.shape}, expected ({n}, p, p)")
        p = pi.shape[1]
        xi = readonly(np.atleast_1d(self.xi))
        if xi.shape != (p,):
            raise ValueError(f"xi has shape {xi.shape}, expected ({p},)")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "xi", xi)
        if self.D is not None:
            d_mat = readonly(np.atleast_2d(self.D))
            if d_mat.ndim != 2 or d_mat.shape[0] != p or d_mat.shape[1] == 0:
                raise ValueError(f"D has shape {d_mat.shape}, expected ({p}, d) with d >= 1")
            object.__setattr__(self, "D", d_mat)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing residual is inf or NaN and fails its bar
            product, star = self.source.homomorphism_defects(pi)
            res = {
                "pi_product": float(np.max(np.abs(product))),
                "pi_star": float(np.max(np.abs(star))),
                "isometry": float(np.max(np.abs(dag(self.isometry) @ self.isometry - np.eye(self.noise_dim)))),
            }
        for key, residual in res.items():
            if not residual <= TRIPLE_TOL:  # also rejects NaN
                raise ValueError(f"triple is invalid: {key} residual {residual:.3e} > {TRIPLE_TOL:g}")

    @property
    def rep_dim(self) -> int:
        return self.pi.shape[1]

    @property
    def isometry(self) -> np.ndarray:
        """D, or the p x p identity when D is absent."""
        return np.eye(self.rep_dim, dtype=complex) if self.D is None else self.D

    @property
    def noise_dim(self) -> int:
        return self.isometry.shape[1]

    def nu_mats(self, chi) -> np.ndarray:
        """nu(b_i) = pi(b_i) - chi(b_i) I."""
        chi = as_complex_array(chi)
        eye = np.eye(self.rep_dim, dtype=complex)
        return self.pi - chi[:, None, None] * eye[None, :, :]


def structure_map_from_pair(triple: ImplementingTriple, chi) -> OperatorMap:
    """The generator V* nu(.) V with V = [|xi>, D] on the (d+1)-hat space.

    With D absent (D = I) this is the block-form structure map
    [[gamma, <xi| nu], [nu |xi>, nu]]; a proper isometry D compresses it
    to the completely positive generator of the corresponding walk.
    """
    v = np.concatenate([triple.xi[:, None], triple.isometry], axis=1)
    return OperatorMap(triple.source, compress(triple.nu_mats(chi), v))


def verify_structure_relation(phi: OperatorMap, chi) -> float:
    """Max residual of the structure relation over all basis pairs (a, b)."""
    b = phi.source
    chi = as_complex_array(chi)
    mats = phi.mats
    adj = dag(mats)
    qs = np.eye(phi.dim, dtype=complex)  # diag(0, I): kills the e_0 component
    qs[0, 0] = 0.0
    lhs = np.einsum("ijl,lab->ijab", _star_product_tensor(b), mats)
    rhs = (
        np.einsum("iab,j->ijab", adj, chi)
        + np.einsum("i,jab->ijab", np.conjugate(chi), mats)
        + np.einsum("iab,bc,jcd->ijad", adj, qs, mats, optimize=True)
    )
    return float(np.max(opnorms((lhs - rhs).reshape(-1, phi.dim, phi.dim))))


def _star_product_tensor(b: CounitalBialgebra) -> np.ndarray:
    """T[i, j, l]: (b_i)* b_j = sum_l T[i, j, l] b_l."""
    return np.einsum("ik,kjl->ijl", b.invol, b.mult)


@dataclass(frozen=True)
class ExtractionReport:
    triple: ImplementingTriple
    roundtrip_residual: float
    kernel_dim: int


def extract_implementing_pair(phi: OperatorMap, chi) -> ExtractionReport:
    """Recover (pi, xi) from a structure map in block form, with the residual of the round trip.

    pi is read off the lower-right block; xi solves the stacked linear
    system nu(b_i) xi = lower-left column, taking the minimum-norm
    solution when the system has a kernel (phi is invariant under kernel
    shifts, so the round trip is exact either way).  roundtrip_residual is
    the distance from phi to the structure map of (pi, xi); run_verify reads
    it against TOLERANCES["roundtrip"].  A lower-right block that is not a
    *-representation (to TRIPLE_TOL) raises the triple's ValueError.
    """
    b = phi.source
    chi = as_complex_array(chi)
    n = b.dim
    p = phi.dim - 1
    nu = phi.mats[:, 1:, 1:]
    pi = nu + chi[:, None, None] * np.eye(p)[None, :, :]
    stacked = nu.reshape(n * p, p)
    target = phi.mats[:, 1:, 0].reshape(n * p)
    xi, _, rank, _ = np.linalg.lstsq(stacked, target, rcond=None)
    triple = ImplementingTriple(source=b, pi=pi, xi=xi)
    residual = structure_map_from_pair(triple, chi).distance(phi)
    return ExtractionReport(triple=triple, roundtrip_residual=residual, kernel_dim=int(p - rank))


def default_decomposition_vector(triple: ImplementingTriple) -> np.ndarray:
    """Candidate zeta = (||xi||^2 / 2, D* xi) solving the rank-one completion.

    With this zeta the positive part of the decomposition collapses to
    the compression V* pi(.) V with V = [|xi>, D], which is manifestly
    completely positive.
    """
    xi = triple.xi
    return np.concatenate([[0.5 * np.vdot(xi, xi)], dag(triple.isometry) @ xi])


def cp_block_matrix(phi: OperatorMap) -> np.ndarray:
    """The n(d+1) x n(d+1) block matrix [phi((b_i)* b_j)]_{ij}.

    Positivity of this matrix is the complete-positivity criterion for a
    map defined on a basis of a finite-dimensional C*-algebra.
    """
    b = phi.source
    blocks = np.einsum("ijl,lab->ijab", _star_product_tensor(b), phi.mats)
    n, k = b.dim, phi.dim
    return blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k)


def verify_cp_decomposition(phi: OperatorMap, chi, zeta) -> dict:
    """Check phi = phi1 - phi2 with phi2 = chi(.)(P + |zeta><e0| + |e0><zeta|).

    The report entry: the Choi-type positivity defect cp_residual of phi1,
    and whether the lifted map phi + chi(.)P is negative at the unit, both
    to TOLERANCES["choi"].
    """
    b = phi.source
    chi = as_complex_array(chi)
    zeta = as_complex_array(zeta)
    if zeta.shape != (phi.dim,):
        raise ValueError(f"zeta has shape {zeta.shape}, expected ({phi.dim},)")
    e0 = np.eye(phi.dim, dtype=complex)[0]
    qs = np.diag(1.0 - e0)  # P = diag(0, I)
    bump = qs + np.outer(zeta, np.conjugate(e0)) + np.outer(e0, np.conjugate(zeta))
    phi2 = OperatorMap(b, chi[:, None, None] * bump[None, :, :])
    phi1 = phi + phi2
    min_eig = float(np.linalg.eigvalsh(_hermitized(cp_block_matrix(phi1)))[0])
    phi2_unit_min = float(np.linalg.eigvalsh(_hermitized(phi2.at_unit()))[0])
    # finite dimensions: the strict extension of phi is phi itself
    phitilde_max = float(np.linalg.eigvalsh(_hermitized(phi.at_unit()))[-1])
    return {
        "cp_residual": max(0.0, -min_eig),
        "phi1_is_cp": min_eig >= -TOLERANCES["choi"],
        "phi2_at_unit_min_eig": phi2_unit_min,
        "phi_at_unit_max_eig": phitilde_max,
        "phitilde_one_negative": phitilde_max <= TOLERANCES["choi"],
    }


def _hermitized(m: np.ndarray) -> np.ndarray:
    herm = (m + dag(m)) / 2.0
    defect, norm = opnorms(np.stack([m - dag(m), m]))
    if defect > 1e-8 * max(1.0, norm):
        raise ValueError(f"expected a Hermitian matrix (defect {defect:.3e})")
    return herm

