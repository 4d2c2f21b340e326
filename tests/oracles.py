"""Naive reference implementations used to cross-check the vectorized code.

Everything here is written with explicit Python loops and no shared code
with the package (the Fock oracles only read step-function values), so
agreement is meaningful.  Slow on purpose; only run on small inputs.
"""
import numpy as np


def coassoc_residual(coproduct):
    """max |(Delta x id)Delta - (id x Delta)Delta| entrywise."""
    n = coproduct.shape[0]
    worst = 0.0
    for i in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    left = sum(coproduct[i, k, c] * coproduct[k, a, b] for k in range(n))
                    right = sum(coproduct[i, a, k] * coproduct[k, b, c] for k in range(n))
                    worst = max(worst, abs(left - right))
    return worst


def counit_residual(coproduct, counit):
    """max |(eps x id)Delta b_i - b_i| and the mirror image."""
    n = coproduct.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(n):
            left = sum(counit[a] * coproduct[i, a, j] for a in range(n))
            right = sum(coproduct[i, j, a] * counit[a] for a in range(n))
            target = 1.0 if i == j else 0.0
            worst = max(worst, abs(left - target), abs(right - target))
    return worst


def structure_map_blocks(pi, xi, chi):
    """Entrywise block construction of the structure map for a pair.

    Returns an (n, p+1, p+1) array: top-left <xi, nu(b) xi>, top row
    <xi| nu(b), left column nu(b) |xi>, lower-right nu(b) = pi(b) - chi(b) I.
    """
    n, p, _ = pi.shape
    out = np.zeros((n, p + 1, p + 1), dtype=complex)
    for i in range(n):
        nu = pi[i] - chi[i] * np.eye(p)
        acc = 0.0 + 0.0j
        for a in range(p):
            for b in range(p):
                acc += np.conjugate(xi[a]) * nu[a, b] * xi[b]
        out[i, 0, 0] = acc
        for a in range(p):
            out[i, 0, 1 + a] = sum(np.conjugate(xi[b]) * nu[b, a] for b in range(p))
            out[i, 1 + a, 0] = sum(nu[a, b] * xi[b] for b in range(p))
        out[i, 1:, 1:] = nu
    return out


def cp_generator_blocks(pi, xi, d_mat, chi):
    """[<xi| ; D*] nu(b) [|xi>, D] computed entry by entry."""
    n, p, _ = pi.shape
    d = d_mat.shape[1]
    out = np.zeros((n, d + 1, d + 1), dtype=complex)
    for i in range(n):
        nu = pi[i] - chi[i] * np.eye(p)
        v = np.zeros((p, d + 1), dtype=complex)
        for a in range(p):
            v[a, 0] = xi[a]
            for c in range(d):
                v[a, 1 + c] = d_mat[a, c]
        for r in range(d + 1):
            for c in range(d + 1):
                acc = 0.0 + 0.0j
                for a in range(p):
                    for b in range(p):
                        acc += np.conjugate(v[a, r]) * nu[a, b] * v[b, c]
                out[i, r, c] = acc
    return out


def convolve_maps(coproduct, f_vals, g_vals):
    """(f * g)(b_i) = sum_jk Delta_i^{jk} f(b_j) kron g(b_k), by loops."""
    n = coproduct.shape[0]
    kf = f_vals.shape[1]
    kg = g_vals.shape[1]
    out = np.zeros((n, kf * kg, kf * kg), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = coproduct[i, j, k]
                if c != 0:
                    out[i] += c * np.kron(f_vals[j], g_vals[k])
    return out


def convolution_power(coproduct, counit, psi_vals, m):
    """m-fold convolution power, iterated from the counit."""
    cur = counit.reshape(-1, 1, 1).astype(complex)
    for _ in range(m):
        cur = convolve_maps(coproduct, cur, psi_vals)
    return cur


def walk_unitary(xi, h):
    """Block rotation matrix assembled entry by entry."""
    p = len(xi)
    norm_sq = sum(abs(x) ** 2 for x in xi).real
    c = np.sqrt(1.0 - h * norm_sq)
    u = np.zeros((p + 1, p + 1), dtype=complex)
    u[0, 0] = c
    for a in range(p):
        u[0, 1 + a] = -np.sqrt(h) * np.conjugate(xi[a])
        u[1 + a, 0] = np.sqrt(h) * xi[a]
    for a in range(p):
        for b in range(p):
            q_ab = xi[a] * np.conjugate(xi[b]) / norm_sq if norm_sq > 0 else 0.0
            u[1 + a, 1 + b] = c * q_ab + (1.0 if a == b else 0.0) - q_ab
    return u


def step_hat_vectors(f, grid):
    """Rows (1, h^{1/2} f_j) for cells j = 1..n, f_j the value of f at the cell's midpoint."""
    out = np.empty((grid.n, f.noise_dim + 1), dtype=complex)
    for j in range(grid.n):
        out[j, 0] = 1.0
        out[j, 1:] = np.sqrt(grid.h) * f.value_at(j * grid.h + 0.5 * grid.h)
    return out


def toy_matrix_element(a_matrix, f, g, grid):
    """<eps(f), (D A D* (x) I) eps(g)> with an explicit Kronecker product per cell.

    D embeds the n hat-space factors onto the first n cells of the grid;
    beyond the horizon the exponential vectors contribute the scalar tail
    exp(integral_{nh} <f, g>).
    """
    lhs = np.array([1.0 + 0.0j])
    rhs = np.array([1.0 + 0.0j])
    for u, v in zip(step_hat_vectors(f, grid), step_hat_vectors(g, grid)):
        lhs = np.kron(lhs, u)
        rhs = np.kron(rhs, v)
    return complex(np.vdot(lhs, a_matrix @ rhs) * np.exp(f.overlap(g, a=grid.horizon)))


def functional_transfer_matrix(coproduct, psi_vec):
    """(id x psi) o Delta as a matrix acting on coefficient ROWS."""
    n = coproduct.shape[0]
    t = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            t[i, j] = sum(coproduct[i, j, k] * psi_vec[k] for k in range(n))
    return t


def operator_transfer_matrix(coproduct, psi_vals):
    """(id x psi) o Delta on B x M_K coefficients: b_i x Y -> sum_j b_j x block_ij Y.

    block_ij = sum_k Delta_i^{jk} psi(b_k); rows and columns run over
    (basis index, matrix row, matrix column).
    """
    n = coproduct.shape[0]
    k = psi_vals.shape[1]
    size = k * k
    t = np.zeros((n * size, n * size), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = sum(coproduct[i, j, l] * psi_vals[l] for l in range(n))
            t[j * size:(j + 1) * size, i * size:(i + 1) * size] = np.kron(block, np.eye(k))
    return t


def dual_basis(rep):
    """g_i in span(rep) with <g_i, rep_j>_HS = delta_ij."""
    gram = np.einsum("iab,jab->ij", np.conjugate(rep), rep)
    return np.einsum("ik,kab->iab", np.conjugate(np.linalg.inv(gram)), rep)


def _coefficients(dual, x):
    """HS pairings c_i[m, n] = <g_i, X_mn> of the m x m blocks of X; X may be a stack."""
    _, m, _ = dual.shape
    amp = x.shape[-1] // m
    return np.einsum("iab,...ambn->...imn", np.conjugate(dual), x.reshape(x.shape[:-2] + (m, amp, m, amp)))


def hs_expectation(rep, x):
    """The Hilbert-Schmidt conditional expectation of X onto rep(B) x M_amp; X may be a stack."""
    return np.einsum("iab,...imn->...ambn", rep, _coefficients(dual_basis(rep), x)).reshape(x.shape)


def apply_amplified(theta_mats, dual, x):
    """(theta x id_{M_amp}) of the Hilbert-Schmidt expectation of X onto rep(B) x M_amp; X may be a stack."""
    c = _coefficients(dual, x)
    n = theta_mats.shape[1] * c.shape[-1]
    return np.einsum("iab,...imn->...ambn", theta_mats, c).reshape(x.shape[:-2] + (n, n))


def serial_amplified_norm(theta_mats, rep, extra_starts=6, max_iter=400, rtol=1e-13, seed=0):
    """||theta (x) id_{M_K}|| by alternating ascent on the representation rep as given.

    One start at a time: the identity, each rep_i / ||rep_i|| (x) I, then
    seeded random unitaries; each climbs until val <= prev (1 + rtol).
    Inputs are pressed through the Hilbert-Schmidt expectation onto
    rep(B) (x) M_K before theta is applied.
    """
    _, m, _ = rep.shape
    k = theta_mats.shape[1]
    dual = dual_basis(rep)

    def functional(u, v):
        tmp = np.einsum("km,ikl,ln->imn", u.reshape(k, k), np.conjugate(theta_mats), np.conjugate(v.reshape(k, k)))
        return np.einsum("iab,imn->ambn", dual, tmp).reshape(m * k, m * k)

    def polar(g):
        w, _, vh = np.linalg.svd(g)
        return w @ vh

    starts = [np.eye(m * k, dtype=complex)]
    for r in rep:
        starts.append(np.kron(r / np.linalg.norm(r, 2), np.eye(k)))
    rng = np.random.default_rng(seed)
    for _ in range(extra_starts):
        z = rng.standard_normal((m * k, m * k)) + 1j * rng.standard_normal((m * k, m * k))
        starts.append(polar(z))
    best = 0.0
    for x in starts:
        prev = -np.inf
        for _ in range(max_iter):
            w, s, vh = np.linalg.svd(apply_amplified(theta_mats, dual, x))
            val = s[0]
            if val <= prev * (1.0 + rtol) + 1e-300:
                val = max(val, prev)
                break
            prev = val
            x = polar(functional(w[:, 0], np.conjugate(vh[0, :])))
        best = max(best, val)
    return best


def sampled_lower_bound(theta_mats, rep, n_samples, seed=12345):
    """max ||(theta x id_{M_K})(E(X))|| over seeded random X of operator norm 1.

    E is the Hilbert-Schmidt expectation onto rep(B) x M_K, which is
    contractive, so this never exceeds the amplified norm.
    """
    _, m, _ = rep.shape
    k = theta_mats.shape[1]
    dual = dual_basis(rep)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, m * k, m * k)) + 1j * rng.standard_normal((n_samples, m * k, m * k))
    z /= np.linalg.norm(z, 2, axis=(-2, -1))[:, None, None]
    return float(np.max(np.linalg.norm(apply_amplified(theta_mats, dual, z), 2, axis=(-2, -1))))
