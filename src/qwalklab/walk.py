"""One-step coordinate walks and their exact finite-h error expansion.

A step length h and a reference vector xi with h ||xi||^2 <= 1 determine
the rotation-like unitary

    U = [[c_h, -s_h*], [s_h, U_22]],    U_22 = c_h Q + (I - Q),

on the hat space of the representation space, where c_h = sqrt(1 -
h||xi||^2), s_h = h^{1/2} |xi>, and Q projects onto the line through xi.
Compressing chi (+) pi by the isometry V = U diag(1, D) gives the
completely positive, preunital walk step psi_h = V* (chi (+) pi) V; the
homomorphic walk step U* (chi (+) pi) U is the case D = I, which is what
a triple without D means.  Because V*V = I,

    psi_h - chi(.)I = V* diag(0, nu(.)) V,

so the inverse-scaled step D_h (psi_h - chi(.)I) D_h, with D_h =
diag(h^{-1/2}, 1, ..., 1), is the compression W* nu(.) W by W = [xi,
U_22 D], the lower rows of V with the first column scaled by h^{-1/2}.
No identity is added and subtracted again.  The deviation of that step
from the structure-map generator is given exactly by

    phi - W* nu(.) W = h/(1+c_h) phi_1 - h^2/(1+c_h)^2 phi_2,

with first- and second-order terms that are compressions of nu too:
phi_1 = V_0* nu(.) Y + Y* nu(.) V_0 and phi_2 = Y* nu(.) Y, where V_0 =
[xi, D] is the generator's own isometry and Y = xi [0, (D* xi)*].
build_unitary returns U itself, read-only; c_h is its [0, 0] entry.
"""
from __future__ import annotations

import numpy as np

from .linalg import as_complex_array, compress, dag, opnorms
from .structure_maps import ImplementingTriple, OperatorMap, structure_map_from_pair

__all__ = [
    "build_unitary",
    "build_walk",
    "error_terms",
    "gap_map",
    "verify_error_identity",
    "vector_state_check",
]


def build_unitary(xi, h: float) -> np.ndarray:
    """The read-only one-step unitary U; requires h ||xi||^2 <= 1 (strict, no clamping).

    Its [0, 0] entry is the cosine c_h.
    """
    xi = np.atleast_1d(as_complex_array(xi))
    if h <= 0:
        raise ValueError(f"step length h = {h} must be positive")
    norm_sq = float(np.real(np.vdot(xi, xi)))
    if h * norm_sq > 1.0:
        raise ValueError(
            f"h * ||xi||^2 = {h * norm_sq!r} > 1: step length too large for the "
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
    u.setflags(write=False)
    return u


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


def _isometry(triple: ImplementingTriple, h: float) -> np.ndarray:
    """V = U diag(1, D), the isometry a walk step of length h compresses by."""
    return build_unitary(triple.xi, h) @ _embedding(triple)


def build_walk(triple: ImplementingTriple, chi, h: float) -> OperatorMap:
    """Walk step b -> V* (chi(b) (+) pi(b)) V with V = U diag(1, D).

    With D absent (D = I) this is the unital *-homomorphism
    U* (chi (+) pi) U; a proper isometry makes it completely positive
    and preunital on the (d+1)-hat space.
    """
    return OperatorMap(triple.source, compress(_char_oplus_pi(triple, chi), _isometry(triple, h)))


def gap_map(phi: OperatorMap, triple: ImplementingTriple, chi, h: float) -> OperatorMap:
    """theta_h = phi - W* nu(.) W with W = [xi, U_22 D], for the walk step of length h.

    phi is the generator structure_map_from_pair(triple, chi), which a
    caller sweeping many h builds once.  The finite-h generator mismatch
    whose O(h) decay is the quantitative content of the walk
    approximation.
    """
    v = _isometry(triple, h)
    w = np.concatenate([triple.xi[:, None], v[1:, 1:]], axis=1)  # [h^{-1/2} s_h, U_22 D]
    return phi - OperatorMap(triple.source, compress(triple.nu_mats(chi), w))


def error_terms(triple: ImplementingTriple, chi) -> tuple[OperatorMap, OperatorMap]:
    """The exact first- and second-order terms (phi_1, phi_2) of the expansion.

    With V_0 = [xi, D], eta = D* xi and Y = xi [0, eta*] (p x (d+1), its
    first column zero), both are compressions of nu:

        phi_1 = V_0* nu(.) Y + Y* nu(.) V_0,    phi_2 = Y* nu(.) Y.

    Both cross terms are formed: (V_0* nu(b) Y)* = Y* nu(b)* V_0 equals
    Y* nu(b) V_0 only when nu(b) is Hermitian, which fails for a basis
    element that is not self-adjoint.

    Without D (D = I) this is phi_1 = [[0, gamma <xi|], [gamma |xi>,
    X nu + nu X]] and phi_2 = gamma(.) diag(0, X), where X = |xi><xi|
    and gamma = <xi, nu(.) xi>.
    """
    nu = triple.nu_mats(chi)
    xi, d_mat = triple.xi, triple.isometry
    v0 = np.concatenate([xi[:, None], d_mat], axis=1)
    y = np.outer(xi, np.concatenate([[0.0], np.conjugate(dag(d_mat) @ xi)]))
    phi1 = dag(v0) @ nu @ y + dag(y) @ nu @ v0
    return OperatorMap(triple.source, phi1), OperatorMap(triple.source, compress(nu, y))


def verify_error_identity(triple: ImplementingTriple, chi, h: float) -> float:
    """Residual of the exact expansion at step length h (max operator norm).

    The larger of two residuals: gap_map against the expansion
    h/(1+c_h) phi_1 - h^2/(1+c_h)^2 phi_2 of error_terms, and the walk step build_walk returns against
    chi(.)I + V* diag(0, nu(.)) V.  The second is unscaled and ties the
    gap, which is built from V alone, to the walk a sweep runs.
    """
    r = h / (1.0 + build_unitary(triple.xi, h)[0, 0].real)
    phi1, phi2 = error_terms(triple, chi)
    expansion = gap_map(structure_map_from_pair(triple, chi), triple, chi, h).distance(r * phi1 - r**2 * phi2)
    chi_part = build_walk(triple, chi, h).mats - compress(triple.nu_mats(chi), _isometry(triple, h)[1:])
    link = np.max(opnorms(chi_part - as_complex_array(chi)[:, None, None] * np.eye(chi_part.shape[1])))
    return max(expansion, float(link))


def vector_state_check(triple: ImplementingTriple, chi, h: float) -> tuple[float, float]:
    """Check the vector-state realisation of the walk step (D absent).

    Returns (r1, r2): r1 compares <e_0, rho^(h)(b) e_0> with the state of
    chi (+) pi at Omega = U e_0; r2 compares it with the affine form
    chi(b) + h gamma(b).
    """
    if triple.D is not None:
        raise ValueError("vector_state_check applies to the D-absent walk")
    rho = build_walk(triple, chi, h)
    omega = build_unitary(triple.xi, h)[:, 0]
    big = _char_oplus_pi(triple, chi)
    top_left = rho.mats[:, 0, 0]
    via_omega = np.einsum("a,iab,b->i", np.conjugate(omega), big, omega)
    nu = triple.nu_mats(chi)
    gamma = np.einsum("a,iab,b->i", np.conjugate(triple.xi), nu, triple.xi)
    affine = as_complex_array(chi) + h * gamma
    r1 = float(np.max(np.abs(top_left - via_omega)))
    r2 = float(np.max(np.abs(top_left - affine)))
    return r1, r2
