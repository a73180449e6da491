"""Von Neumann entropy and quantum relative entropy, in nats.

Relative entropy returns math.inf when supp(rho) is not contained in
supp(sigma); report writers serialize that sentinel as the string "inf".
"""

from __future__ import annotations

import math

import numpy as np

from .operators import (LOG_SUPPORT_RTOL, PSD_ATOL, check_hermitian, eig,
                        op_log_on_support)

SUPPORT_LEAK_TOL = 1e-10


def von_neumann(rho: np.ndarray) -> float:
    """-sum w ln w over the spectrum, with 0 ln 0 = 0.

    Eigenvalues at or below LOG_SUPPORT_RTOL relative to the largest one are
    kernel, as in op_log_on_support.  Rejects non-Hermitian input.
    """
    check_hermitian(rho)
    w = np.linalg.eigvalsh(rho)
    w = w[w > LOG_SUPPORT_RTOL * max(float(w[-1]), 0.0)]
    return float(-np.sum(w * np.log(w)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr(rho ln rho - rho ln sigma); math.inf on support violation.

    sigma is eigensolved once: with rho's weight p_j = <v_j|rho|v_j> on each
    eigenvector, the kernel leak is sum p_j over the kernel and
    tr(rho ln sigma) = sum p_j ln w_j over the support.
    """
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    w, v = eig(sigma)
    support = w > LOG_SUPPORT_RTOL * max(float(w[-1]), 0.0)
    p = np.sum(v.conj() * (rho @ v), axis=0).real
    if np.sum(p[~support]) > SUPPORT_LEAK_TOL:
        return math.inf
    rho_log_rho = np.einsum("ij,ji->", rho, op_log_on_support(rho)).real
    if w[0] < -PSD_ATOL:
        raise ValueError(f"log of a non-PSD operator (eigenvalue {w[0]:.3e})")
    return float(rho_log_rho - np.sum(p[support] * np.log(w[support])))
