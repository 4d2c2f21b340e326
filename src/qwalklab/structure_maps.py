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
the case D = I, and one builder serves both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bialgebra import CounitalBialgebra
from .linalg import as_complex_array, dag, opnorm, opnorms, readonly

__all__ = [
    "HatSpace",
    "OperatorMap",
    "ImplementingTriple",
    "NotStructureMapError",
    "ExtractionReport",
    "CPDecompositionReport",
    "structure_map_from_pair",
    "verify_structure_relation",
    "extract_implementing_pair",
    "default_decomposition_vector",
    "verify_cp_decomposition",
    "cp_block_matrix",
    "scaling_matrix",
    "scaling_conjugation",
]


class NotStructureMapError(ValueError):
    """The given map does not satisfy the structure relation."""


@dataclass(frozen=True)
class HatSpace:
    """C (+) C^d with e_0 = (1, 0, ..., 0) and hat(c) = (1, c)."""

    noise_dim: int

    @property
    def dim(self) -> int:
        return self.noise_dim + 1

    @property
    def e0(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    @property
    def qs_projection(self) -> np.ndarray:
        """diag(0, I_d): annihilates e_0, identity on the noise block."""
        p = np.eye(self.dim, dtype=complex)
        p[0, 0] = 0.0
        return p

    def hat(self, c) -> np.ndarray:
        c = np.atleast_1d(as_complex_array(c))
        if c.shape != (self.noise_dim,):
            raise ValueError(f"vector has shape {c.shape}, expected ({self.noise_dim},)")
        return np.concatenate([[1.0 + 0.0j], c])


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

    @property
    def hat(self) -> HatSpace:
        return HatSpace(self.dim - 1)

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

    @classmethod
    def from_functional(cls, source: CounitalBialgebra, values) -> "OperatorMap":
        values = as_complex_array(values)
        return cls(source, values.reshape(-1, 1, 1))

    @classmethod
    def scalar_identity(cls, source: CounitalBialgebra, chi, dim: int) -> "OperatorMap":
        """b -> chi(b) I, the trivially lifted character."""
        chi = as_complex_array(chi)
        eye = np.eye(dim, dtype=complex)
        return cls(source, chi[:, None, None] * eye[None, :, :])


@dataclass(frozen=True, eq=False)
class ImplementingTriple:
    """(pi, xi, D): representation, reference vector, optional isometry.

    pi acts on C^p, xi lives there, and D, when present, is a p x d
    isometry selecting the retained noise directions.  An absent D means
    D = I: every noise direction is kept.
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
            if d_mat.shape[0] != p:
                raise ValueError(f"D has shape {d_mat.shape}, expected ({p}, d)")
            object.__setattr__(self, "D", d_mat)

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

    def pi_apply(self, coeffs) -> np.ndarray:
        return np.einsum("i,iab->ab", as_complex_array(coeffs), self.pi)

    def nu_mats(self, chi) -> np.ndarray:
        """nu(b_i) = pi(b_i) - chi(b_i) I."""
        chi = as_complex_array(chi)
        eye = np.eye(self.rep_dim, dtype=complex)
        return self.pi - chi[:, None, None] * eye[None, :, :]

    def validate(self, tol: float = 1e-12) -> dict[str, float]:
        """Residuals for pi being a unital *-homomorphism and D an isometry.

        Raises on product/star/isometry failures; unitality is reported
        but not enforced (non-unital pi is legal and makes phi(1) != 0).
        """
        product, star = self.source.homomorphism_defects(self.pi)
        res = {
            "pi_product": float(np.max(np.abs(product))),
            "pi_star": float(np.max(np.abs(star))),
            "pi_unital": float(np.max(np.abs(self.pi_apply(self.source.unit) - np.eye(self.rep_dim)))),
            "isometry": float(np.max(np.abs(dag(self.isometry) @ self.isometry - np.eye(self.noise_dim)))),
        }
        for key in ("pi_product", "pi_star", "isometry"):
            if not res[key] <= tol:  # also rejects NaN
                raise ValueError(f"triple is invalid: {key} residual {res[key]:.3e} > {tol:g}")
        return res


def structure_map_from_pair(triple: ImplementingTriple, chi) -> OperatorMap:
    """The generator V* nu(.) V with V = [|xi>, D] on the (d+1)-hat space.

    With D absent (D = I) this is the block-form structure map
    [[gamma, <xi| nu], [nu |xi>, nu]]; a proper isometry D compresses it
    to the completely positive generator of the corresponding walk.
    """
    v = np.concatenate([triple.xi[:, None], triple.isometry], axis=1)
    return OperatorMap(triple.source, np.einsum("ac,icd,db->iab", dag(v), triple.nu_mats(chi), v))


def verify_structure_relation(phi: OperatorMap, chi) -> float:
    """Max residual of the structure relation over all basis pairs (a, b)."""
    b = phi.source
    chi = as_complex_array(chi)
    qs = phi.hat.qs_projection
    mats = phi.mats
    adj = dag(mats)
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
    underdetermined: bool


def extract_implementing_pair(phi: OperatorMap, chi, tol: float = 1e-10) -> ExtractionReport:
    """Recover (pi, xi) from a structure map in block form.

    pi is read off the lower-right block; xi solves the stacked linear
    system nu(b_i) xi = lower-left column, taking the minimum-norm
    solution when the system has a kernel (phi is invariant under kernel
    shifts, so the round trip is exact either way).  Raises
    NotStructureMapError if phi fails the structure relation or the
    round trip.
    """
    b = phi.source
    chi = as_complex_array(chi)
    relation_residual = verify_structure_relation(phi, chi)
    if relation_residual > max(tol, 1e-8):
        raise NotStructureMapError(
            f"structure relation residual {relation_residual:.3e} exceeds {max(tol, 1e-8):g}"
        )
    n = b.dim
    p = phi.dim - 1
    nu = phi.mats[:, 1:, 1:]
    pi = nu + chi[:, None, None] * np.eye(p)[None, :, :]
    stacked = nu.reshape(n * p, p)
    target = phi.mats[:, 1:, 0].reshape(n * p)
    xi, _, rank, _ = np.linalg.lstsq(stacked, target, rcond=None)
    triple = ImplementingTriple(source=b, pi=pi, xi=xi)
    try:
        triple.validate(tol=max(tol, 1e-10))
    except ValueError as exc:
        raise NotStructureMapError(f"lower-right block is not a *-representation: {exc}") from exc
    rebuilt = structure_map_from_pair(triple, chi)
    residual = rebuilt.distance(phi)
    if residual > tol:
        raise NotStructureMapError(
            f"round-trip residual {residual:.3e} exceeds {tol:g}; "
            "phi is not implemented by any (pi, xi)"
        )
    kernel_dim = p - rank
    return ExtractionReport(
        triple=triple,
        roundtrip_residual=residual,
        kernel_dim=int(kernel_dim),
        underdetermined=kernel_dim > 0,
    )


def default_decomposition_vector(triple: ImplementingTriple) -> np.ndarray:
    """Candidate zeta = (||xi||^2 / 2, D* xi) solving the rank-one completion.

    With this zeta the positive part of the decomposition collapses to
    the compression V* pi(.) V with V = [|xi>, D], which is manifestly
    completely positive.
    """
    xi = triple.xi
    return np.concatenate([[0.5 * np.vdot(xi, xi)], dag(triple.isometry) @ xi])


@dataclass(frozen=True)
class CPDecompositionReport:
    cp_residual: float
    phi1_is_cp: bool
    phi2_at_unit_min_eig: float
    phi_at_unit_max_eig: float
    phitilde_one_negative: bool

    def as_dict(self) -> dict:
        return {
            "cp_residual": self.cp_residual,
            "phi1_is_cp": self.phi1_is_cp,
            "phi2_at_unit_min_eig": self.phi2_at_unit_min_eig,
            "phi_at_unit_max_eig": self.phi_at_unit_max_eig,
            "phitilde_one_negative": self.phitilde_one_negative,
        }


def cp_block_matrix(phi: OperatorMap) -> np.ndarray:
    """The n(d+1) x n(d+1) block matrix [phi((b_i)* b_j)]_{ij}.

    Positivity of this matrix is the complete-positivity criterion for a
    map defined on a basis of a finite-dimensional C*-algebra.
    """
    b = phi.source
    blocks = np.einsum("ijl,lab->ijab", _star_product_tensor(b), phi.mats)
    n, k = b.dim, phi.dim
    return blocks.transpose(0, 2, 1, 3).reshape(n * k, n * k)


def verify_cp_decomposition(
    phi: OperatorMap, chi, zeta, tol: float = 1e-10
) -> CPDecompositionReport:
    """Check phi = phi1 - phi2 with phi2 = chi(.)(P + |zeta><e0| + |e0><zeta|).

    Reports the Choi-type positivity defect of phi1 and whether the
    lifted map phi + chi(.)P is negative at the unit.
    """
    b = phi.source
    chi = as_complex_array(chi)
    hat = phi.hat
    zeta = as_complex_array(zeta)
    if zeta.shape != (hat.dim,):
        raise ValueError(f"zeta has shape {zeta.shape}, expected ({hat.dim},)")
    e0 = hat.e0
    bump = hat.qs_projection + np.outer(zeta, np.conjugate(e0)) + np.outer(e0, np.conjugate(zeta))
    phi2 = OperatorMap(b, chi[:, None, None] * bump[None, :, :])
    phi1 = phi + phi2
    min_eig = float(np.linalg.eigvalsh(_hermitized(cp_block_matrix(phi1)))[0])
    phi2_unit_min = float(np.linalg.eigvalsh(_hermitized(phi2.at_unit()))[0])
    # finite dimensions: the strict extension of phi is phi itself
    phitilde_max = float(np.linalg.eigvalsh(_hermitized(phi.at_unit()))[-1])
    return CPDecompositionReport(
        cp_residual=max(0.0, -min_eig),
        phi1_is_cp=min_eig >= -tol,
        phi2_at_unit_min_eig=phi2_unit_min,
        phi_at_unit_max_eig=phitilde_max,
        phitilde_one_negative=phitilde_max <= tol,
    )


def _hermitized(m: np.ndarray) -> np.ndarray:
    herm = (m + dag(m)) / 2.0
    defect = opnorm(m - dag(m))
    if defect > 1e-8 * max(1.0, opnorm(m)):
        raise ValueError(f"expected a Hermitian matrix (defect {defect:.3e})")
    return herm


def scaling_matrix(h: float, dim: int) -> np.ndarray:
    """D_h = diag(h^{-1/2}, 1, ..., 1) on a hat space of the given dimension."""
    if h <= 0:
        raise ValueError("step length h must be positive")
    d = np.eye(dim, dtype=complex)
    d[0, 0] = h ** -0.5
    return d


def scaling_conjugation(x: OperatorMap, h: float) -> OperatorMap:
    """X -> D_h X D_h, elementwise over an OperatorMap.

    Multiplicative in h: conjugating by h1 then h2 equals conjugating by
    h1 h2.
    """
    d = scaling_matrix(h, x.dim)
    return OperatorMap(x.source, np.einsum("ab,ibc,cd->iad", d, x.mats, d))


def gap_map(phi: OperatorMap, psi: OperatorMap, chi, h: float) -> OperatorMap:
    """theta_h = phi - D_h (psi - chi(.)I) D_h for a walk step psi of length h.

    The finite-h generator mismatch whose O(h) decay is the quantitative
    content of the walk approximation.
    """
    chi_map = OperatorMap.scalar_identity(psi.source, chi, psi.dim)
    return phi - scaling_conjugation(psi - chi_map, h)

