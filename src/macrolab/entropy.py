"""Quantum relative entropy, in nats.

relative_entropy takes one pair of d x d operators or two stacks
(..., d, d) of them, and returns a float for one pair and an array over the
stack otherwise; element i of a stack is the value of pair i alone.  It
returns math.inf when supp(rho) is not contained in supp(sigma); report
writers serialize that sentinel as the string "inf".  pair_spectra returns
the same value with the spectra it is read from, for the Neyman-Pearson search.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import PSD_ATOL, check_hermitian, eig, in_support

SUPPORT_LEAK_TOL = 1e-10


def pair_spectra(rho: np.ndarray, sigma: np.ndarray) -> tuple:
    """(r, w, v, rel) for a pair of Hermitian operators or two stacks of
    them: rho's ascending spectrum r, sigma's eigenpairs (w, v) and
    rel = S(rho||sigma).

    sigma is eigensolved once: with rho's weight p_j = <v_j|rho|v_j> on each
    eigenvector, the kernel leak is sum p_j over the kernel and
    tr(rho ln sigma) = sum p_j ln w_j over the support; tr(rho ln rho) is
    sum r ln r over rho's spectrum on its support.  rel is inf where the
    leak exceeds SUPPORT_LEAK_TOL.  Validates shapes and Hermiticity only.
    """
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    check_hermitian(rho)
    check_hermitian(sigma)
    r = np.linalg.eigvalsh(rho)
    w, v = eig(sigma)
    support = in_support(w)
    p = np.sum(v.conj() * (rho @ v), axis=-2).real
    leak = np.sum(np.where(support, 0.0, p), axis=-1) > SUPPORT_LEAK_TOL
    rho_log_rho = np.sum(np.where(in_support(r), r * np.log(np.where(
        in_support(r), r, 1.0)), 0.0), axis=-1)
    rho_log_sigma = np.sum(np.where(support, p * np.log(np.where(
        support, w, 1.0)), 0.0), axis=-1)
    return r, w, v, np.where(leak, math.inf, rho_log_rho - rho_log_sigma)


def relative_entropy(rho: np.ndarray, sigma: np.ndarray):
    """tr(rho ln rho - rho ln sigma); math.inf on support violation.

    The value of pair_spectra.  Where it is finite, an eigenvalue of rho,
    then of sigma, below -PSD_ATOL is an error, reported for the first such
    pair of a stack.  Rejects non-Hermitian input.
    """
    r, w, _, rel = pair_spectra(rho, sigma)
    bad = np.isfinite(rel) & ((r[..., 0] < -PSD_ATOL)
                              | (w[..., 0] < -PSD_ATOL))
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), bad.shape)
        low = r[i][0] if r[i][0] < -PSD_ATOL else w[i][0]
        raise ValueError(f"log of a non-PSD operator (eigenvalue {low:.3e})")
    return float(rel) if rel.ndim == 0 else rel
