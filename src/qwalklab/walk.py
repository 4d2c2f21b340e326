"""One-step coordinate walks and their exact finite-h error expansion.

A step length h and a reference vector xi with h ||xi||^2 <= 1 determine
the rotation-like unitary

    U = [[c_h, -s_h*], [s_h, c_h Q + (I - Q)]]

on the hat space of the representation space, where c_h = sqrt(1 -
h||xi||^2), s_h = h^{1/2} |xi>, and Q projects onto the line through xi.
Compressing chi (+) pi by V = U diag(1, D) gives the completely positive,
preunital walk step V* (chi (+) pi) V; the homomorphic walk step
U* (chi (+) pi) U is the case D = I, which is what a triple without D
means.  The deviation of the inverse-scaled step from the structure-map
generator is given exactly by

    phi - D_h (psi^(h) - chi(.)I) D_h
        = h/(1+c_h) phi_1 - h^2/(1+c_h)^2 phi_2,

with explicit first- and second-order terms phi_1, phi_2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex_array, readonly
from .structure_maps import ImplementingTriple, OperatorMap, gap_map, structure_map_from_pair

__all__ = [
    "StepSizeError",
    "WalkStep",
    "build_unitary",
    "build_walk",
    "error_terms",
    "verify_error_identity",
    "vector_state_check",
]


class StepSizeError(ValueError):
    """h ||xi||^2 > 1: the walk unitary does not exist at this step length."""


@dataclass(frozen=True, eq=False)
class WalkStep:
    """The scalar/vector ingredients and the assembled unitary of one step."""

    h: float
    xi: np.ndarray
    c_h: float
    s_h: np.ndarray
    d_h: float
    q: np.ndarray
    unitary: np.ndarray

    def __post_init__(self):
        for name in ("xi", "s_h", "q", "unitary"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


def build_unitary(xi, h: float) -> WalkStep:
    """Assemble the one-step unitary; requires h ||xi||^2 <= 1 (strict, no clamping)."""
    xi = np.atleast_1d(as_complex_array(xi))
    if h <= 0:
        raise StepSizeError(f"step length h = {h} must be positive")
    norm_sq = float(np.real(np.vdot(xi, xi)))
    if h * norm_sq > 1.0:
        raise StepSizeError(
            f"h * ||xi||^2 = {h * norm_sq:.6g} > 1: step length too large for the "
            "walk unitary (the rotation angle would leave [0, pi/2])"
        )
    p = xi.shape[0]
    c_h = float(np.sqrt(1.0 - h * norm_sq))
    s_h = np.sqrt(h) * xi
    q = np.outer(xi, np.conjugate(xi)) / norm_sq if norm_sq > 0 else np.zeros((p, p), dtype=complex)
    u = np.zeros((p + 1, p + 1), dtype=complex)
    u[0, 0] = c_h
    u[0, 1:] = -np.conjugate(s_h)
    u[1:, 0] = s_h
    u[1:, 1:] = c_h * q + (np.eye(p) - q)
    return WalkStep(h=float(h), xi=xi, c_h=c_h, s_h=s_h, d_h=c_h - 1.0, q=q, unitary=u)


def _char_oplus_pi(triple: ImplementingTriple, chi) -> np.ndarray:
    chi = as_complex_array(chi)
    n, p = triple.pi.shape[0], triple.rep_dim
    block = np.zeros((n, p + 1, p + 1), dtype=complex)
    block[:, 0, 0] = chi
    block[:, 1:, 1:] = triple.pi
    return block


def _embedding(triple: ImplementingTriple) -> np.ndarray:
    """diag(1, D): the hat space of the noise into that of the representation."""
    d_mat = triple.isometry
    p, d = d_mat.shape
    embed = np.zeros((p + 1, d + 1), dtype=complex)
    embed[0, 0] = 1.0
    embed[1:, 1:] = d_mat
    return embed


def build_walk(triple: ImplementingTriple, chi, h: float) -> OperatorMap:
    """Walk step b -> V* (chi(b) (+) pi(b)) V with V = U diag(1, D).

    With D absent (D = I) this is the unital *-homomorphism
    U* (chi (+) pi) U; a proper isometry makes it completely positive
    and preunital on the (d+1)-hat space.
    """
    v = build_unitary(triple.xi, h).unitary @ _embedding(triple)
    return OperatorMap(
        triple.source, np.einsum("ca,icd,db->iab", np.conjugate(v), _char_oplus_pi(triple, chi), v)
    )


def error_terms(triple: ImplementingTriple, chi) -> tuple[OperatorMap, OperatorMap]:
    """The exact first- and second-order terms (phi_1, phi_2) of the expansion.

    Unitary case (D absent), with X = |xi><xi| and gamma = <xi, nu(.) xi>:

        phi_1 = [[0, gamma <xi|], [gamma |xi>, X nu + nu X]],
        phi_2 = gamma(.) diag(0, X).

    With an isometry D both terms are compressed by C = diag(1, D), giving
    eta = D* xi, Y = |xi><eta|, phi_1 = [[0, gamma <eta|], [gamma |eta>,
    Y* nu D + D* nu Y]] and phi_2 = gamma(.) diag(0, eta eta*).
    """
    nu = triple.nu_mats(chi)
    xi = triple.xi
    n, p = nu.shape[0], triple.rep_dim
    gamma = np.einsum("a,iab,b->i", np.conjugate(xi), nu, xi)
    x = np.outer(xi, np.conjugate(xi))
    phi1 = np.zeros((n, p + 1, p + 1), dtype=complex)
    phi1[:, 1:, 0] = gamma[:, None] * xi[None, :]
    phi1[:, 0, 1:] = gamma[:, None] * np.conjugate(xi)[None, :]
    phi1[:, 1:, 1:] = np.einsum("ab,ibc->iac", x, nu) + np.einsum("iab,bc->iac", nu, x)
    phi2 = np.zeros((n, p + 1, p + 1), dtype=complex)
    phi2[:, 1:, 1:] = gamma[:, None, None] * x[None, :, :]
    embed = _embedding(triple)
    compress = lambda m: np.einsum("ca,icd,db->iab", np.conjugate(embed), m, embed)
    return (
        OperatorMap(triple.source, compress(phi1)),
        OperatorMap(triple.source, compress(phi2)),
    )


def verify_error_identity(triple: ImplementingTriple, chi, h: float) -> float:
    """Residual of the exact expansion at step length h (max operator norm)."""
    lhs = gap_map(structure_map_from_pair(triple, chi), build_walk(triple, chi, h), chi, h)
    phi1, phi2 = error_terms(triple, chi)
    c_h = build_unitary(triple.xi, h).c_h
    rhs = (h / (1.0 + c_h)) * phi1 - (h / (1.0 + c_h)) ** 2 * phi2
    return lhs.distance(rhs)


def vector_state_check(triple: ImplementingTriple, chi, h: float) -> tuple[float, float]:
    """Check the vector-state realisation of the walk step (D absent).

    Returns (r1, r2): r1 compares <e_0, rho^(h)(b) e_0> with the state of
    chi (+) pi at Omega = U e_0; r2 compares it with the affine form
    chi(b) + h gamma(b).
    """
    if triple.D is not None:
        raise ValueError("vector_state_check applies to the D-absent walk")
    step = build_unitary(triple.xi, h)
    rho = build_walk(triple, chi, h)
    omega = step.unitary[:, 0]
    big = _char_oplus_pi(triple, chi)
    top_left = rho.mats[:, 0, 0]
    via_omega = np.einsum("a,iab,b->i", np.conjugate(omega), big, omega)
    nu = triple.nu_mats(chi)
    gamma = np.einsum("a,iab,b->i", np.conjugate(triple.xi), nu, triple.xi)
    affine = as_complex_array(chi) + h * gamma
    r1 = float(np.max(np.abs(top_left - via_omega)))
    r2 = float(np.max(np.abs(top_left - affine)))
    return r1, r2
