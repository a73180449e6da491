"""Von Neumann entropy and quantum relative entropy, in nats.

Relative entropy returns math.inf when supp(rho) is not contained in
supp(sigma); report writers serialize that sentinel as the string "inf".
"""

from __future__ import annotations

import math

import numpy as np

from .operators import LOG_SUPPORT_RTOL, eig, op_log_on_support

SUPPORT_LEAK_TOL = 1e-10


def von_neumann(rho: np.ndarray) -> float:
    """-sum w ln w over the spectrum, with 0 ln 0 = 0.

    Eigenvalues at or below LOG_SUPPORT_RTOL relative to the largest one are
    kernel, as in op_log_on_support.
    """
    w = np.linalg.eigvalsh(rho)
    w = w[w > LOG_SUPPORT_RTOL * max(float(w[-1]), 0.0)]
    return float(-np.sum(w * np.log(w)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr(rho ln rho - rho ln sigma); math.inf on support violation."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    w, v = eig(sigma)
    cut = LOG_SUPPORT_RTOL * max(float(w[-1]), 0.0)
    kernel = v[:, w <= cut]
    if kernel.shape[1] and np.trace(kernel.conj().T @ rho @ kernel).real > SUPPORT_LEAK_TOL:
        return math.inf
    val = np.trace(rho @ (op_log_on_support(rho) - op_log_on_support(sigma))).real
    return float(val)
