"""Reference routes that the tests check the package against.

No command uses them. The two closed forms are thin calls of the package's
covariance kernel; the three dense checks (a Kronecker solve, the drift in
the eigenbasis, and a resolvent bound) share no code with it.
"""

import math

import numpy as np

from warnlab import NumericalError, SpectralModel
from warnlab.lyapunov import block_pair_covariance


def stationary_covariance_entry(lambda_k: complex, lambda_j: complex, b_kj: complex,
                                sigma: float) -> complex:
    """Closed-form covariance pairing -sigma^2 b_kj / (lambda_k + conj(lambda_j))."""
    return complex(block_pair_covariance(lambda_k, 1, lambda_j, 1,
                                         [[(sigma * sigma) * complex(b_kj)]], math.inf)[0, 0])


def jordan_stationary_covariance(lam: complex, m: int, noise_block, sigma: float) -> np.ndarray:
    """Stationary coordinate covariance of a single Jordan block: the solution
    of J V + V J^H = -sigma^2 C for J = lam I + N (superdiagonal ones)."""
    v = block_pair_covariance(lam, m, lam, m, (sigma * sigma) * np.asarray(noise_block),
                              math.inf)
    return 0.5 * (v + v.conj().T)


def finite_lyapunov_solve(a, c, sigma: float) -> np.ndarray:
    """Dense Kronecker solve of A V + V A^H = -sigma^2 C.

    Brute-force oracle: vectorizes the identity row-major and solves the
    n^2 x n^2 system directly. No structure of A is exploited.
    """
    a = np.asarray(a, dtype=complex)
    c = np.asarray(c, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or c.shape != a.shape:
        raise ValueError("finite_lyapunov_solve: A and C must be square with equal shapes")
    eigs = np.linalg.eigvals(a)
    if float(np.max(eigs.real)) >= 0.0:
        raise NumericalError(
            f"finite_lyapunov_solve: spectrum not strictly stable (max Re = {np.max(eigs.real)})"
        )
    n = a.shape[0]
    eye = np.eye(n)
    kron = np.kron(a, eye) + np.kron(eye, a.conj())
    try:
        vec = np.linalg.solve(kron, -(float(sigma) ** 2) * c.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError("finite_lyapunov_solve: Kronecker system is singular") from exc
    if not np.all(np.isfinite(vec)):
        raise NumericalError("finite_lyapunov_solve: non-finite solution")
    v = vec.reshape(n, n)
    return 0.5 * (v + v.conj().T)


def assemble_drift_matrix(model: SpectralModel, p: float) -> np.ndarray:
    """Block-diagonal matrix of the drift at p in the (generalized) eigenbasis:
    one Jordan block lam_k I + N per mode."""
    dim = model.total_dim
    a = np.zeros((dim, dim), dtype=complex)
    for _, lam, _, rows in model.modes(p):
        i = np.arange(rows.start, rows.stop)
        a[i, i] = lam
        a[i[:-1], i[1:]] = 1.0
    return a


def resolvent_bound_check(matrix, z: complex) -> bool:
    """Check ||(A - z)^-1||_2 >= 1/dist(z, spec(A)) - 1e-9.

    Raises:
        NumericalError: if z is an eigenvalue of A or A - z Id is numerically
            singular.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix: must be square")
    eigs = np.linalg.eigvals(a)
    dist = float(np.min(np.abs(eigs - z)))
    if dist == 0.0:
        raise NumericalError(f"z={z!r} is an eigenvalue of the matrix")
    shifted = a - z * np.eye(a.shape[0])
    svals = np.linalg.svd(shifted, compute_uv=False)
    smin = float(svals[-1])
    if smin <= 1e-14 * max(1.0, float(svals[0])):
        raise NumericalError(f"matrix - z*Id numerically singular at z={z!r}")
    norm_inv = 1.0 / smin
    return norm_inv >= 1.0 / dist - 1e-9
