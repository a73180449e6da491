"""Dense Hermitian linear algebra: eigensolves, operator functions, tensor
products, partial traces, spectral splits, channels, and seeded random draws.

All operators are plain complex numpy arrays.  Every function is pure; nothing
is mutated in place.  Random draws are deterministic functions of
(seed, tag, index) through numpy's PCG64 generator.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

HERM_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
LOG_SUPPORT_RTOL = 1e-12
DIM_CAP = 4096

# RNG stream tags, one per draw type (seeded as default_rng([seed, tag, index]))
_TAG_DENSITY = 1
_TAG_UNITARY = 2
_TAG_HERMITIAN = 3
_TAG_OBSERVABLES = 4
_TAG_TEST_OP = 5
_TAG_KRAUS = 6


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + dagger(a)) / 2


def max_asymmetry(a: np.ndarray) -> float:
    return float(np.max(np.abs(a - dagger(a)))) if a.size else 0.0


def check_hermitian(a: np.ndarray) -> None:
    """Reject anything but a Hermitian matrix, or a stack (..., d, d) of
    them; for a stack the worst element is reported."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    asym = max_asymmetry(a)
    if asym > HERM_ATOL:
        raise ValueError(f"operator is not Hermitian: max asymmetry {asym:.3e}")


def in_support(w: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues above LOG_SUPPORT_RTOL relative to the largest
    one, along the last axis of ascending spectra; the rest is kernel."""
    return w > LOG_SUPPORT_RTOL * np.maximum(w[..., -1:], 0.0)


def eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator, or of a stack of them.

    Returns (w, v) with eigenvalues w ascending along the last axis and
    eigenvector columns v so that h = v @ diag(w) @ v^dagger.  Only the
    Hermitian part of h is read: operators are validated where they enter
    the library (check_hermitian), not on every solve.
    """
    return np.linalg.eigh(hermitian_part(h))


def frechet_exp(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Directional derivative of expm at Hermitian a in direction e.

    Computed in a's eigenbasis with divided differences
    (exp(a_i) - exp(a_j)) / (a_i - a_j), diagonal limit exp(a_i).
    """
    if a.shape != e.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {e.shape}")
    w, v = eig(a)
    et = v.conj().T @ e @ v
    out = v @ (exp_divided_differences(w) * et) @ v.conj().T
    return hermitian_part(out) if max_asymmetry(e) <= HERM_ATOL else out


def exp_divided_differences(w: np.ndarray) -> np.ndarray:
    """Table (exp(w_i) - exp(w_j)) / (w_i - w_j) over a spectrum w, or over
    a stack (..., d) of spectra.

    Near-degenerate pairs (|w_i - w_j| < 1e-12) take the limit, the mean of
    exp(w_i) and exp(w_j).
    """
    ew = np.exp(w)
    den = w[..., :, None] - w[..., None, :]
    small = np.abs(den) < 1e-12
    return np.where(small, (ew[..., :, None] + ew[..., None, :]) / 2,
                    (ew[..., :, None] - ew[..., None, :])
                    / np.where(small, 1.0, den))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, broadcast over the leading axes of
    (..., r, c) stacks: the products of np.kron, by one broadcast multiply."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], ra * rb, ca * cb)


def tensor_power(rho: np.ndarray, n: int) -> np.ndarray:
    """N-fold tensor (Kronecker) power, of dimension at most DIM_CAP."""
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    d = rho.shape[0]
    if d ** n > DIM_CAP:
        raise ValueError(
            f"tensor power dimension {d ** n} exceeds cap {DIM_CAP}")
    out = rho
    for _ in range(n - 1):
        out = kron(out, rho)
    return out


def embed_at_slot(ops_per_slot: list[np.ndarray]) -> np.ndarray:
    """Kronecker product of one operator per tensor slot, left to right."""
    out = ops_per_slot[0]
    for op in ops_per_slot[1:]:
        out = np.kron(out, op)
    return out


def partial_trace(rho_ab: np.ndarray, dims: tuple[int, int],
                  keep: str) -> np.ndarray:
    """Partial trace of a bipartite operator, or of a stack (..., d, d) of
    them; keep is 'A' or 'B'."""
    da, db = dims
    if rho_ab.shape[-1] != da * db:
        raise ValueError(f"dimension mismatch: operator dim {rho_ab.shape[-1]} "
                         f"!= {da}*{db}")
    r = rho_ab.reshape(*rho_ab.shape[:-2], da, db, da, db)
    if keep == "A":
        return np.einsum("...abcb->...ac", r)
    if keep == "B":
        return np.einsum("...abac->...bc", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


# ---------------------------------------------------------------------------
# Seeded random suite
# ---------------------------------------------------------------------------

def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag, int(index)])


def _complex_gaussian(rng: np.random.Generator, dim: int,
                      cols: int | None = None) -> np.ndarray:
    cols = dim if cols is None else cols
    return rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q of g's QR, for a matrix or a stack, with the phases of R's diagonal
    moved into Q's columns: Haar-distributed for a complex Gaussian g."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def random_density(seed: int, dim: int, index: int = 0) -> np.ndarray:
    """Full-rank Hilbert-Schmidt-style density matrix: G G^dagger normalized."""
    g = _complex_gaussian(_rng(seed, _TAG_DENSITY, index), dim)
    rho = g @ g.conj().T
    return hermitian_part(rho / np.trace(rho).real)


def random_unitary(seed: int, dim: int, index: int = 0) -> np.ndarray:
    """Haar-style unitary: QR of a complex Gaussian with phase fixing."""
    return _haar_q(_complex_gaussian(_rng(seed, _TAG_UNITARY, index), dim))


def random_hermitian(seed: int, dim: int, index: int = 0) -> np.ndarray:
    g = _complex_gaussian(_rng(seed, _TAG_HERMITIAN, index), dim)
    return hermitian_part(g)


def random_observables(seed: int, dim: int, m: int,
                       index: int = 0) -> list[np.ndarray]:
    """m Hermitian Gaussian draws, trace-orthonormalized against the identity
    and against each other: tr(G_a) = 0, tr(G_a G_b) = delta_ab, so
    0 <= m <= dim^2 - 1.
    """
    if not 0 <= m < dim * dim:
        raise ValueError(f"{m} observables do not fit in dimension {dim}")
    rng = _rng(seed, _TAG_OBSERVABLES, index)
    basis = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    out = []
    while len(out) < m:
        g = hermitian_part(_complex_gaussian(rng, dim))
        for b in basis:
            g = g - np.trace(b.conj().T @ g).real * b
        norm = np.sqrt(np.trace(g @ g).real)
        if norm < 1e-8:
            continue
        g = hermitian_part(g / norm)
        basis.append(g)
        out.append(g)
    return out


def random_test_operator(seed: int, dim: int, index: int = 0) -> np.ndarray:
    """Random test operator: Haar-style eigenbasis, uniform [0,1] spectrum."""
    return random_test_operators(seed, dim, (index,))[0]


def random_test_operators(seed: int, dim: int,
                          indices: Sequence[int]) -> np.ndarray:
    """Stack (k, dim, dim) of random test operators, element j drawn from
    the stream of indices[j]; one batched QR serves the whole stack."""
    g = np.empty((len(indices), dim, dim), dtype=complex)
    w = np.empty((len(indices), 1, dim))
    for j, index in enumerate(indices):
        rng = _rng(seed, _TAG_TEST_OP, index)
        g[j] = _complex_gaussian(rng, dim)
        w[j] = rng.uniform(0.0, 1.0, dim)
    q = _haar_q(g)
    return hermitian_part((q * w) @ dagger(q))


def random_kraus(seed: int, dim: int, n_ops: int,
                 index: int = 0) -> list[np.ndarray]:
    """Random Kraus set via a Haar-style isometry from dim to n_ops*dim."""
    q = _haar_q(_complex_gaussian(_rng(seed, _TAG_KRAUS, index), n_ops * dim,
                                  dim))
    return [q[i * dim:(i + 1) * dim, :] for i in range(n_ops)]


def kraus_completeness_error(kraus: list[np.ndarray]) -> float:
    dim = kraus[0].shape[1]
    s = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(s - np.eye(dim))))


def apply_channel(rho: np.ndarray, kraus: list[np.ndarray]) -> np.ndarray:
    """Apply a CPTP channel given by its Kraus operators."""
    err = kraus_completeness_error(kraus)
    if err > TRACE_ATOL:
        raise ValueError(f"incomplete Kraus set: completeness error {err:.3e}")
    out = sum(k @ rho @ k.conj().T for k in kraus)
    return hermitian_part(out)
