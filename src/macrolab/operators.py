"""Dense Hermitian linear algebra: eigensolves, operator functions, tensor
products, partial traces, spectral splits, channels, and seeded random draws.

All operators are plain complex numpy arrays.  Every function is pure; nothing
is mutated in place.  Random draws are deterministic functions of
(seed, tag, index) through numpy's PCG64 generator.  The streams of a stack
of indices are built together: numpy's SeedSequence hash of the words
[seed, tag, index] runs once over the stack in uint32 array arithmetic, and
each PCG64 starts in the state np.random.default_rng([seed, tag, index])
would give it.  Each stream then fills its Gaussians, real block before
imaginary, with one standard_normal call.  In a stack of 1000 a stream costs
about 1.4 us to build, against 11 us for a default_rng, and a whole 4 x 4
density draw about 3.6 us per stream; one index costs about 43 us to build
and 60 us to draw (2-core Xeon VM, numpy 2.4).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

HERM_ATOL = 1e-12
TRACE_ATOL = 1e-10
PSD_ATOL = 1e-10
LOG_SUPPORT_RTOL = 1e-12
DIM_CAP = 4096

# RNG stream tags, one per draw type: stream (seed, tag, index) is the PCG64
# state that default_rng([seed, tag, index]) would build, made by _streams
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

# The streams of a stack are built from numpy's SeedSequence hash
# (numpy/random/bit_generator.pyx), run on uint32 words for all indices at
# once.  Its call k of hashmix xors its value with INIT_A * MULT_A^k and
# multiplies it by INIT_A * MULT_A^(k + 1); calls 0-3 hash the first four
# entropy words into the pool, calls 4-15 mix the pool with itself, and
# every further word takes four more.  State word i hashes pool word i % 4
# the same way with INIT_B and MULT_B.  No constant depends on the data.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_XSHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MULT_A = 0x931E8875


def _powers(init: int, mult: int, n: int) -> np.ndarray:
    out = [init]
    for _ in range(n - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _self_mix_rounds(hash_a: np.ndarray) -> list:
    """Round src hashes pool word src into each other word, in increasing
    order; its own slot takes a placeholder constant and is restored."""
    rounds = []
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        xor, mult = np.zeros((2, _POOL), dtype=np.uint32)
        xor[dst] = hash_a[4 + 3 * src:7 + 3 * src]
        mult[dst] = hash_a[5 + 3 * src:8 + 3 * src]
        rounds.append((src, xor, mult))
    return rounds


_HASH_A = _powers(0x43B0D7E5, _MULT_A, 21)
_SELF_MIX = _self_mix_rounds(_HASH_A)
_STEP_A = np.uint32(pow(_MULT_A, _POOL, 1 << 32))
_HASH_B = _powers(0x8B51F9DD, 0x58F38DED, 9)
# the eight state words, as two cycles through the pool
_STATE_XOR = _HASH_B[:8].reshape(2, _POOL)
_STATE_MULT = _HASH_B[1:].reshape(2, _POOL)


def _hashmix(value: np.ndarray, xor: np.ndarray,
             mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = _MIX_L * x - _MIX_R * y
    return out ^ out >> _XSHIFT


def _int_words(n) -> list[int]:
    """n as SeedSequence reads an int: little-endian uint32 words, the one
    word 0 for 0.  Like SeedSequence, refuses floats, even integral ones."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError("seed must be integer")
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _entropy_words(seed: int, tag: int,
                   indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(words (k, w), counts (k,)): the words of [seed, tag, indices[j]],
    zero-padded to w >= 4, and how many there are."""
    head = _int_words(seed) + _int_words(tag)
    idx = np.asarray(indices)
    if idx.dtype.kind in "iu":      # fixed width: one or two words each
        if idx.min(initial=0) < 0:
            raise ValueError("expected non-negative integer")
        idx = idx.astype(np.uint64)
        words = np.zeros((len(idx), max(_POOL, len(head) + 2)),
                         dtype=np.uint32)
        words[:, :len(head)] = head
        words[:, len(head)] = idx & _MASK32
        words[:, len(head) + 1] = hi = idx >> np.uint64(32)
        return words, len(head) + 1 + (hi > 0)
    rows = [head + _int_words(index) for index in indices]
    width = max([_POOL, *map(len, rows)])
    words = np.array([r + [0] * (width - len(r)) for r in rows],
                     dtype=np.uint32).reshape(len(rows), width)
    return words, np.array([len(r) for r in rows], dtype=int)


def _stream_states(seed: int, tag: int,
                   indices: Sequence[int]) -> np.ndarray:
    """(k, 4) uint64: row j is
    SeedSequence([seed, tag, indices[j]]).generate_state(4, np.uint64)."""
    words, counts = _entropy_words(seed, tag, indices)
    pool = _hashmix(words[:, :_POOL], _HASH_A[:4], _HASH_A[1:5])
    for src, xor, mult in _SELF_MIX:
        mixed = _mix(pool, _hashmix(pool[:, src, None], xor, mult))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # a word beyond the pool mixes into every pool word, in rows that have it
    consts = _HASH_A[16:21]
    for i in range(_POOL, words.shape[1]):
        mixed = _mix(pool, _hashmix(words[:, i, None], consts[:4],
                                    consts[1:]))
        pool = np.where((counts > i)[:, None], mixed, pool)
        consts = consts * _STEP_A
    state = _hashmix(pool[:, None], _STATE_XOR, _STATE_MULT)
    # as generate_state: little-endian word pairs, then native uint64
    return (state.reshape(-1, 8).astype("<u4", order="C").view("<u8")
            .astype(np.uint64))


class _StateWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the four state words _stream_states computed for it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words


def _streams(seed: int, tag: int,
             indices: Sequence[int]) -> list[np.random.Generator]:
    """The generators default_rng([seed, tag, index]) for index in indices,
    state for state, from one vectorized SeedSequence hash."""
    return [np.random.Generator(np.random.PCG64(_StateWords(words)))
            for words in _stream_states(seed, tag, indices)]


def _gaussians(rngs: Sequence[np.random.Generator],
               shape: tuple[int, ...]) -> np.ndarray:
    """Stack (k, *shape) of complex Gaussians, element j the next draw of
    rngs[j]: its real block, then its imaginary one, as one normal fill."""
    buf = np.empty((len(rngs), 2, *shape))
    for rng, block in zip(rngs, buf):
        rng.standard_normal(out=block)
    return buf[:, 0] + 1j * buf[:, 1]


def _trace(a: np.ndarray) -> np.ndarray:
    """Trace over the last two axes, kept as a (..., 1, 1) factor."""
    return np.trace(a, axis1=-2, axis2=-1)[..., None, None]


def _haar_q(g: np.ndarray) -> np.ndarray:
    """Q of g's QR, for a matrix or a stack, with the phases of R's diagonal
    moved into Q's columns: Haar-distributed for a complex Gaussian g."""
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


# Each stacked draw below takes its element j from the stream of indices[j]
# alone, so an element is bit-identical whatever else is in its stack; the
# solo draws are their one-index case.

def random_densities(seed: int, dim: int,
                     indices: Sequence[int]) -> np.ndarray:
    """Stack (k, dim, dim) of full-rank Hilbert-Schmidt-style density
    matrices: G G^dagger normalized."""
    g = _gaussians(_streams(seed, _TAG_DENSITY, indices), (dim, dim))
    rho = g @ dagger(g)
    return hermitian_part(rho / _trace(rho).real)


def random_density(seed: int, dim: int, index: int = 0) -> np.ndarray:
    """The one-index case of random_densities."""
    return random_densities(seed, dim, (index,))[0]


def random_unitaries(seed: int, dim: int,
                     indices: Sequence[int]) -> np.ndarray:
    """Stack (k, dim, dim) of Haar-style unitaries: QR of a complex Gaussian
    with phase fixing."""
    return _haar_q(_gaussians(_streams(seed, _TAG_UNITARY, indices),
                              (dim, dim)))


def random_unitary(seed: int, dim: int, index: int = 0) -> np.ndarray:
    """The one-index case of random_unitaries."""
    return random_unitaries(seed, dim, (index,))[0]


def random_hermitian(seed: int, dim: int, index: int = 0) -> np.ndarray:
    rngs = _streams(seed, _TAG_HERMITIAN, (index,))
    return hermitian_part(_gaussians(rngs, (dim, dim))[0])


def random_observable_sets(seed: int, dim: int, m: int,
                           indices: Sequence[int]) -> np.ndarray:
    """Stack (k, m, dim, dim) of m Hermitian Gaussian draws each,
    trace-orthonormalized against the identity and against each other:
    tr(G_a) = 0, tr(G_a G_b) = delta_ab, so 0 <= m <= dim^2 - 1.  Such a set
    needs no ObservableSet check.

    Member a of every element is drawn, projected and normalized at once; an
    element whose draw is degenerate (norm < 1e-8 after the projection)
    draws again from its own stream, as often as it takes.
    """
    if not 0 <= m < dim * dim:
        raise ValueError(f"{m} observables do not fit in dimension {dim}")
    rngs = _streams(seed, _TAG_OBSERVABLES, indices)
    basis = np.empty((len(rngs), m + 1, dim, dim), dtype=complex)
    basis[:, 0] = np.eye(dim, dtype=complex) / np.sqrt(dim)
    for a in range(1, m + 1):
        todo = np.arange(len(rngs))
        while todo.size:
            g = hermitian_part(_gaussians([rngs[j] for j in todo],
                                          (dim, dim)))
            for b in basis[todo, :a].swapaxes(0, 1):
                g = g - _trace(dagger(b) @ g).real * b
            norm = np.sqrt(_trace(g @ g).real)
            degenerate = (norm < 1e-8)[:, 0, 0]
            keep = ~degenerate
            basis[todo[keep], a] = hermitian_part(g[keep] / norm[keep])
            todo = todo[degenerate]
    return basis[:, 1:]


def random_observables(seed: int, dim: int, m: int,
                       index: int = 0) -> list[np.ndarray]:
    """The one-index case of random_observable_sets, as a list."""
    return list(random_observable_sets(seed, dim, m, (index,))[0])


def random_test_operator(seed: int, dim: int, index: int = 0) -> np.ndarray:
    """Random test operator: Haar-style eigenbasis, uniform [0,1] spectrum."""
    return random_test_operators(seed, dim, (index,))[0]


def random_test_operators(seed: int, dim: int,
                          indices: Sequence[int]) -> np.ndarray:
    """Stack (k, dim, dim) of random test operators, element j drawn from
    the stream of indices[j]; one batched QR serves the whole stack."""
    rngs = _streams(seed, _TAG_TEST_OP, indices)
    q = _haar_q(_gaussians(rngs, (dim, dim)))
    w = np.empty((len(rngs), 1, dim))
    for rng, row in zip(rngs, w):
        rng.random(out=row)     # as uniform(0.0, 1.0, dim): 0.0 + 1.0 * x
    return hermitian_part((q * w) @ dagger(q))


def random_kraus_sets(seed: int, dim: int, n_ops: int,
                      indices: Sequence[int]) -> np.ndarray:
    """Stack (k, n_ops, dim, dim) of random Kraus sets, each the n_ops
    dim x dim blocks of a Haar-style isometry from dim to n_ops*dim."""
    q = _haar_q(_gaussians(_streams(seed, _TAG_KRAUS, indices),
                           (n_ops * dim, dim)))
    return q.reshape(len(indices), n_ops, dim, dim)


def random_kraus(seed: int, dim: int, n_ops: int,
                 index: int = 0) -> np.ndarray:
    """The one-index case of random_kraus_sets: (n_ops, dim, dim)."""
    return random_kraus_sets(seed, dim, n_ops, (index,))[0]


def kraus_completeness_error(kraus) -> float:
    """Largest entry of |sum_i K_i^dagger K_i - 1| over a Kraus set
    (n, d, d), or over a stack (..., n, d, d) of them."""
    kraus = np.asarray(kraus)
    s = (dagger(kraus) @ kraus).sum(axis=-3)
    return float(np.max(np.abs(s - np.eye(kraus.shape[-1])), initial=0.0))


def apply_channels(rho: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """Apply channel i, given by its Kraus operators kraus[i], to rho[i]:
    stacks (B, d, d) and (B, n, d, d).  One completeness check covers the
    stack and reports its worst set."""
    err = kraus_completeness_error(kraus)
    if err > TRACE_ATOL:
        raise ValueError(f"incomplete Kraus set: completeness error {err:.3e}")
    out = (kraus @ rho[:, None] @ dagger(kraus)).sum(axis=1)
    return hermitian_part(out)
