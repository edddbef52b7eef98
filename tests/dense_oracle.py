"""Independent dense-matrix reference implementations for oracle tests.

Everything here is deliberately written from scratch against different
primitives than the package: the Hamiltonian is assembled from dense ladder
operators, eigenproblems are solved by a hand-rolled cyclic Jacobi sweep
(no LAPACK), and fidelities go through explicit dense matrix square roots.
Only usable for small dimensions.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(matrix, tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Returns ascending eigenvalues and the matching orthonormal eigenvector
    columns.  Converges quadratically; ``tol`` bounds the off-diagonal
    Frobenius mass relative to the matrix norm.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    v = np.eye(n)
    scale = max(np.linalg.norm(a), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.triu(a, 1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[p, p] - a[q, q]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.array([[c, -s], [s, c]])
                # rows and columns p and q as strided views, not copies
                pair = slice(p, q + 1, q - p)
                a[pair] = rot.T @ a[pair]
                a[:, pair] = a[:, pair] @ rot
                v[:, pair] = v[:, pair] @ rot
    else:
        raise RuntimeError("Jacobi sweep did not converge")
    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


def dense_hamiltonian(
    n_particles: int,
    tunneling: float = 1.0,
    lambda_control: float = 0.0,
    imbalance: float = 0.0,
) -> np.ndarray:
    """H = -Omega Jx + zeta Jz^2 + delta Jz from dense ladder operators."""
    j = n_particles / 2.0
    m = np.arange(n_particles + 1) - j
    dim = n_particles + 1
    jz = np.diag(m)
    jplus = np.zeros((dim, dim))
    for k in range(dim - 1):
        jplus[k + 1, k] = np.sqrt(j * (j + 1.0) - m[k] * (m[k] + 1.0))
    jx = 0.5 * (jplus + jplus.T)
    zeta = lambda_control * tunneling / n_particles
    return -tunneling * jx + zeta * (jz @ jz) + imbalance * jz


def dense_thermal_rho(h: np.ndarray, temperature: float) -> np.ndarray:
    """Gibbs density matrix from the Jacobi eigendecomposition."""
    vals, vecs = jacobi_eigh(h)
    if temperature == 0.0:
        g = vecs[:, 0]
        return np.outer(g, g)
    w = np.exp(-(vals - vals[0]) / temperature)
    w /= w.sum()
    return (vecs * w) @ vecs.T


def _psd_sqrt_eigenvalues(vals: np.ndarray) -> np.ndarray:
    # Eigenvalues of a PSD matrix that are zero in exact arithmetic come
    # back as O(eps * norm) noise; square-rooting that noise would swamp
    # small fidelity deficits, so clip relative to the largest eigenvalue.
    top = float(np.max(vals, initial=0.0))
    cleaned = np.where(vals > 1e-12 * top, vals, 0.0)
    return np.sqrt(cleaned)


def dense_sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    vals, vecs = jacobi_eigh(rho)
    return (vecs * _psd_sqrt_eigenvalues(vals)) @ vecs.T


def dense_uhlmann(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)) via dense square roots."""
    s1 = dense_sqrtm_psd(rho1)
    inner = s1 @ rho2 @ s1
    inner = 0.5 * (inner + inner.T)
    vals, _ = jacobi_eigh(inner)
    return float(_psd_sqrt_eigenvalues(vals).sum())


def dense_bhattacharyya(rho1: np.ndarray, rho2: np.ndarray) -> float:
    p = np.clip(np.diag(rho1), 0.0, None)
    q = np.clip(np.diag(rho2), 0.0, None)
    return float(np.sqrt(p * q).sum())


def dense_chi_point(
    n_particles: int,
    lambda_control: float,
    imbalance: float,
    temperature: float,
    epsilon0: float = 1e-2,
) -> dict[str, float]:
    """chi_mom, chi_cl, chi_Q at one working point, all-dense.

    Mirrors the package's displacement protocol: fidelities at
    lambda + {+-eps, +-2eps} fitted against eps^2/8, and the moment route
    from the least-squares slope of <J_z> over the five sampled points.
    """
    eps_unit = epsilon0 * max(1.0, abs(lambda_control))
    eps = eps_unit * np.array([-2.0, -1.0, 1.0, 2.0])

    def rho_at(lam):
        h = dense_hamiltonian(n_particles, 1.0, lam, imbalance)
        return dense_thermal_rho(h, temperature)

    j = n_particles / 2.0
    m = np.arange(n_particles + 1) - j
    rho_c = rho_at(lambda_control)
    p_c = np.diag(rho_c)
    mean_c = float(m @ p_c)
    var_c = float((m - mean_c) ** 2 @ p_c)
    means = {0.0: mean_c}
    y_cl, y_q = [], []
    for e in eps:
        rho_e = rho_at(lambda_control + e)
        means[e] = float(m @ np.diag(rho_e))
        y_cl.append(1.0 - dense_bhattacharyya(rho_c, rho_e))
        y_q.append(1.0 - dense_uhlmann(rho_c, rho_e))
    x = eps * eps / 8.0
    chi_cl = float(x @ y_cl / (x @ x))
    chi_q = float(x @ y_q / (x @ x))
    offsets = np.array(sorted(means))
    vals = np.array([means[o] for o in offsets])
    slope = float(offsets @ vals / (offsets @ offsets))
    return {
        "moment": slope * slope / var_c,
        "classical": chi_cl,
        "quantum": chi_q,
    }


def dense_exact_chi(
    n_particles: int,
    lambda_control: float,
    imbalance: float,
    temperature: float,
) -> dict[str, float]:
    """chi_mom, chi_cl, chi_Q as exact lambda-derivatives, all-dense.

    Sum over all Jacobi eigenstates of the untruncated Gibbs state: in the
    eigenbasis, d rho has entries V_ab (p_a - p_b) / (E_a - E_b) off the
    diagonal (V = dH/dlambda = Jz^2 / N, -V_ab p_a / T for equal energies)
    and dp_a on it.  chi_Q = 2 sum |d rho_ab|^2 / (p_a + p_b), chi_cl is the
    Fisher information of the J_z distribution's derivative, and chi_mom =
    (d<J_z>)^2 / Var(J_z).  T = 0 takes the ground state alone.
    """
    h = dense_hamiltonian(n_particles, 1.0, lambda_control, imbalance)
    vals, vecs = jacobi_eigh(h)
    j = n_particles / 2.0
    m = np.arange(n_particles + 1) - j
    v_eig = vecs.T @ np.diag(m * m / n_particles) @ vecs
    dim = vals.size
    if temperature == 0.0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        w = np.exp(-(vals - vals[0]) / temperature)
        p = w / w.sum()
    mean_v = float(p @ np.diag(v_eig))
    drho = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(dim):
            if a == b:
                if temperature > 0.0:
                    drho[a, a] = -p[a] * (v_eig[a, a] - mean_v) / temperature
            elif vals[a] != vals[b]:
                drho[a, b] = v_eig[a, b] * (p[a] - p[b]) / (vals[a] - vals[b])
            elif temperature > 0.0:
                drho[a, b] = -v_eig[a, b] * p[a] / temperature
    chi_q = 0.0
    for a in range(dim):
        for b in range(dim):
            if p[a] + p[b] > 0.0:
                chi_q += 2.0 * drho[a, b] ** 2 / (p[a] + p[b])
    rho_m = vecs @ np.diag(p) @ vecs.T
    drho_m = vecs @ drho @ vecs.T
    prob = np.diag(rho_m)
    dprob = np.diag(drho_m)
    keep = prob > 0.0
    chi_cl = float(np.sum(dprob[keep] ** 2 / prob[keep]))
    mean = float(m @ prob)
    var = float((m - mean) ** 2 @ prob)
    return {
        "moment": float(m @ dprob) ** 2 / var,
        "classical": chi_cl,
        "quantum": float(chi_q),
    }
