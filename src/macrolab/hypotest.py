"""Exact optimal binary hypothesis tests and finite-copy error-rate series.

The optimal test minimizing tr(sigma Gamma) subject to tr(rho Gamma) >= eps,
0 <= Gamma <= 1, is built from the spectral projectors of rho - t*sigma at the
Neyman-Pearson threshold t, with a fractional weight on the near-kernel band
so the constraint is met with equality.

Every search runs in sigma's eigenbasis v, where each entry point validates
its pair and rotates it once: rho to r = v^dag rho v, sigma to its spectrum
s, 0 off its support.  One threshold search serves every caller.  It runs on
weighted blocks (m_b, rho_b, s_b), where s_b is the diagonal of sigma_b and
its zeros are sigma's kernel, which stand for rho = (+)_b rho_b (x) 1_{m_b}
and sigma likewise, and minimizes sum_b m_b tr(sigma_b Gamma_b) subject to
sum_b m_b tr(rho_b Gamma_b) >= eps.  A single pair is the block (1, r, s).
The search reads both traces from the overlaps of each eigenvector v_b of
rho_b - t sigma_b with rho_b and s_b, and returns each test Gamma_b as its
eigen-weights (v_b, c_b); only np_optimal_test forms a test operator.

N copies of a pair in any dimension d are searched on their Schur-Weyl
blocks (Keyl-Werner 2001 for qubits; Bacon-Chuang-Harrow 2006 in general):
rho^(x)N = (+)_lam pi_lam(rho) (x) 1_{f^lam} over the partitions lam of N
with at most d rows, where pi_lam is the irrep of U(d) and f^lam, the hook
length count, is the dimension of the irrep of S_N.  The problem is
permutation-invariant, so an optimal test is block-diagonal as well.
pi_lam(rho) = det(rho)^lam_d pi_(lam - lam_d)(rho), so only irreps with at
most d-1 rows are built, one box at a time: pi_nu(rho) = C^T (pi_mu(rho)
(x) rho) C, where the real isometry C, an eigenspace of a Jucys-Murphy
operator, does not depend on rho and is cached per dimension.  Blocks have
size of order N^(d(d-1)/2) (at most N+1 for qubits), so N is not bounded by
DIM_CAP.  Sigma's blocks are products of s, so its support is decided on
one copy.

The search is scale-invariant.  It squares t to bracket the crossing,
bisects log t down to a factor 2, then bisects t until
hi - lo <= BISECT_WIDTH * hi, or hi <= BISECT_WIDTH.  An eigenvector v of
rho_b - t sigma_b is in the near-kernel band when its eigenvalue lies within
KERNEL_BAND * <v|rho_b + t sigma_b|v> of 0, so that its likelihood ratio is
within about 2 * KERNEL_BAND of t, or within RESIDUAL_MARGIN times its
eigenpair residual, where the eigensolve cannot tell the sign.  Both bounds
scale with the data; there is no absolute band.  After MAX_SEARCH_STEPS
bisection steps, or when the threshold exceeds the float range, the search
raises RuntimeError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .entropy import relative_entropy
from .operators import (PSD_ATOL, TRACE_ATOL, check_hermitian, eig,
                        hermitian_part, in_support, kron)

KERNEL_BAND = 1e-10    # relative to <v|rho_b + t sigma_b|v>
RESIDUAL_MARGIN = 10   # times the eigenpair residual
BISECT_WIDTH = 1e-12
# a search takes about 50 steps, or up to 90 when the threshold is below 1;
# squaring t reaches the float range in 11
MAX_SEARCH_STEPS = 200

Block = tuple[float, np.ndarray, np.ndarray]   # (m_b, rho_b, s_b)


@dataclass(frozen=True)
class NPTestResult:
    threshold_t: float
    prob: float          # minimized tr(sigma Gamma)
    power: float         # achieved tr(rho Gamma)
    gamma_op: np.ndarray


def _sigma_basis(rho: np.ndarray, sigma: np.ndarray) -> tuple[np.ndarray, ...]:
    """(r, s, v): rho in sigma's eigenbasis v, r = v^dag rho v, and sigma's
    ascending spectrum s, with 0 outside its support.  Rejects a pair that
    is not two states of one dimension."""
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    check_hermitian(rho)
    check_hermitian(sigma)
    w, v = eig(sigma)
    for name, spec in (("rho", np.linalg.eigvalsh(rho)), ("sigma", w)):
        if spec[0] < -PSD_ATOL or abs(spec.sum() - 1) > TRACE_ATOL:
            raise ValueError(f"{name} is not a state: lowest eigenvalue "
                             f"{spec[0]:.3e}, trace {spec.sum():.12g}")
    return (hermitian_part(v.conj().T @ rho @ v),
            np.where(in_support(w), w, 0.0), v)


def _np_search(blocks: list[Block], eps: float
               ) -> tuple[float, float, float, list[tuple]]:
    """Neyman-Pearson minimizer over weighted blocks (m_b, rho_b, s_b), with
    rho_b exactly Hermitian and s_b sigma_b's diagonal, whose zeros are
    sigma's kernel.  Returns (prob, threshold t, power, per-block tests
    Gamma_b = v_b diag(c_b) v_b^dag as (v_b, c_b))."""
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    # If enough of rho lives in sigma's kernel the error probability is 0.
    kers = [s == 0 for _, _, s in blocks]
    p_ker = sum(m * float(np.diag(r).real[k].sum())
                for (m, r, _), k in zip(blocks, kers))
    if p_ker > 0 and p_ker >= eps - 1e-12:
        tests = [(np.eye(len(k)), np.where(k, min(eps / p_ker, 1.0), 0.0))
                 for k in kers]
        power = sum(m * float(c @ np.diag(r).real)
                    for (m, r, _), (_, c) in zip(blocks, tests))
        return 0.0, math.inf, power, tests

    def split_at(t: float) -> list[tuple]:
        """Per block: m_b, the eigenvectors v and eigenvalues w of
        h = (rho_b - t sigma_b) / max(1, t), the overlaps rho_v = <v|rho_b|v>,
        and the band of each eigenvalue.  Dividing by max(1, t) keeps h in
        the float range whatever t is."""
        scale = max(1.0, t)
        split = []
        for m, r, s in blocks:
            h = r / scale      # sigma_b is diagonal: t moves h's diagonal only
            h.flat[::len(s) + 1] -= t / scale * s
            w, v = eig(h)
            rho_v = np.einsum("ij,ij->j", v.conj(), r @ v).real
            # an eigenvalue of h lies within the residual |h v - w v| of w
            res = h @ v - v * w
            residual = np.sqrt(np.einsum("ij,ij->j", res.conj(), res).real)
            # <v|rho_b + t sigma_b|v> / scale = 2 rho_v / scale - w
            band = (KERNEL_BAND * (2 * rho_v / scale - w)
                    + RESIDUAL_MARGIN * residual)
            split.append((m, v, w, rho_v, band))
        return split

    def reaches(split: list[tuple]) -> bool:
        """Whether g(t) = sum_b m_b tr(rho_b P_+(rho_b - t sigma_b)) >= eps.

        Compared through the complement 1 - g(t), a sum of small nonnegative
        overlaps, so levels near 1 are resolved without cancellation.
        """
        deficit = sum(m * float(rho_v[w <= band].sum())
                      for m, _, w, rho_v, band in split)
        return deficit <= 1.0 - eps

    def candidate(t: float, split: list[tuple]):
        # rho mass in the band and below it; like reaches, the mass that
        # P_+ misses of eps is taken through the complement
        parts = []
        p_zero = p_minus = 0.0
        for m, v, w, rho_v, band in split:
            plus, zero = w > band, np.abs(w) <= band
            p_zero += m * float(rho_v[zero].sum())
            p_minus += m * float(rho_v[~(plus | zero)].sum())
            parts.append((v, plus, zero))
        missing = p_zero + p_minus - (1.0 - eps)
        c = min(missing / p_zero, 1.0) if missing > 0 and p_zero > 0 else 0.0
        tests = [(v, np.where(plus, 1.0, np.where(zero, c, 0.0)))
                 for v, plus, zero in parts]
        # tr(rho_b Gamma_b) = c_b . rho_v, tr(sigma_b Gamma_b) = c_b . s_b|v|^2
        power = sum(m * float(cb @ rho_v)
                    for (m, _, _, rho_v, _), (_, cb) in zip(split, tests))
        prob = sum(m * float(cb @ (s @ (v * v.conj()).real))
                   for (m, _, s), (v, cb) in zip(blocks, tests))
        return None if power < eps - 1e-10 else (prob, t, power, tests)

    # the splits at lo (None while lo = 0) and hi; no threshold is solved twice
    lo, hi = 0.0, 1.0
    at_lo, at_hi = None, split_at(hi)
    steps = 0

    def fail(reason: str) -> RuntimeError:
        return RuntimeError(
            f"NP threshold search failed after {steps} steps ({reason}): "
            f"t in [{lo!r}, {hi!r}], width {hi - lo!r}, eps {eps!r}")

    def bisect(mid: float) -> None:
        nonlocal lo, hi, at_lo, at_hi, steps
        split = split_at(mid)
        if reaches(split):
            lo, at_lo = mid, split
        else:
            hi, at_hi = mid, split
        steps += 1
        if steps > MAX_SEARCH_STEPS:
            raise fail(f"cap {MAX_SEARCH_STEPS}")

    # bracket the crossing of g(t) with eps by squaring t, which doubles
    # log t, so thresholds of N copies, which grow like exp(N D), cost O(log N)
    while reaches(at_hi):
        if hi == sys.float_info.max:
            raise fail("threshold beyond the float range")
        lo, at_lo = hi, at_hi
        hi = min(max(2.0, hi * hi), sys.float_info.max)
        at_hi = split_at(hi)
        steps += 1
    while lo > 0 and hi > 2 * lo:
        bisect(math.sqrt(lo) * math.sqrt(hi))
    # below t = BISECT_WIDTH a crossing direction holds less rho mass than
    # the power tolerance, and rho's numerical kernel would join the band
    while hi > BISECT_WIDTH and hi - lo > BISECT_WIDTH * hi:
        bisect(lo + (hi - lo) / 2)

    # t = 0 guards the degenerate case where g is numerically flat at eps;
    # while lo = 0 it stands for lo as well
    ends = [(hi, at_hi), (lo, at_lo), (0.0, split_at(0.0))]
    candidates = [c for c in (candidate(t, split) for t, split in ends
                              if split is not None) if c is not None]
    return min(candidates, key=lambda c: c[0])


def np_optimal_test(rho: np.ndarray, sigma: np.ndarray,
                    eps: float) -> NPTestResult:
    """Exact quantum Neyman-Pearson minimizer, in sigma's eigenbasis; the
    one place a test operator is formed."""
    r, s, v = _sigma_basis(rho, sigma)
    prob, t, power, ((v_b, c),) = _np_search([(1.0, r, s)], eps)
    v = v @ v_b
    return NPTestResult(threshold_t=t, prob=prob, power=power,
                        gamma_op=hermitian_part((v * c) @ v.conj().T))


@dataclass(frozen=True)
class _Irrep:
    """pi_nu as a subspace of pi_mu (x) C^d, where mu = parent is nu less one
    box; iso is the real isometry C whose columns span it."""
    parent: tuple[int, ...]
    iso: np.ndarray
    weights: np.ndarray    # integer weight of each basis vector, (dim, d)


class _IrrepTower:
    """The irreps pi_nu of U(d) with at most d-1 rows, level |nu| by level.

    Level n is built from level n-1: pi_mu (x) C^d splits into the pi_nu,
    nu = mu + one box, which are the eigenspaces of the Jucys-Murphy operator
    X = sum_ab J^mu_ab (x) e_ba, where J^mu_ab represents the matrix unit
    e_ab on pi_mu.  Its eigenvalue on pi_nu is the content (column - row) of
    the added box.  X conserves the weight, so it is diagonalized per weight
    sector and every basis vector is a weight vector.  Nothing here depends
    on a state, so one tower serves every pair of its dimension; only the top
    level's J are kept, to grow the next level.
    """

    def __init__(self, d: int):
        self.d = d
        self.levels = [{(): _Irrep((), np.ones((1, 1)),
                                   np.zeros((1, d), dtype=int))}]
        self._gens = {(): np.zeros((d, d, 1, 1))}

    def grow(self, n: int) -> None:
        while len(self.levels) <= n:
            self._grow()

    def _grow(self) -> None:
        d = self.d
        level, gens = {}, {}
        for mu, j_mu in self._gens.items():
            parts = mu + (0,)
            children = {}          # content of the added box -> nu
            for i in range(min(len(parts), d - 1)):
                if i == 0 or parts[i - 1] > parts[i]:
                    nu = parts[:i] + (parts[i] + 1,) + parts[i + 1:]
                    nu = tuple(p for p in nu if p)
                    if nu not in level:
                        children[parts[i] - i] = nu
            if not children:
                continue
            dim = j_mu.shape[-1]
            # X[(i, b), (j, a)] = J^mu_ab[i, j] in the basis |i> (x) |a>
            x = j_mu.transpose(2, 1, 3, 0).reshape(dim * d, dim * d)
            w = (self.levels[-1][mu].weights[:, None, :]
                 + np.eye(d, dtype=int)).reshape(dim * d, d)
            order = np.lexsort(w.T[::-1])
            _, starts, sizes = np.unique(w[order], axis=0, return_index=True,
                                         return_counts=True)
            picked = {c: [] for c in children}   # (sector start, columns)
            # one batched eigensolve per sector size
            for k in np.unique(sizes):
                first = starts[sizes == k]
                idx = order[first[:, None] + np.arange(k)]
                vals, vecs = np.linalg.eigh(x[idx[:, :, None],
                                              idx[:, None, :]])
                content = np.rint(vals).astype(int)
                for c in children:
                    sec, col = np.nonzero(content == c)
                    block = np.zeros((len(sec), dim * d))
                    block[np.arange(len(sec))[:, None], idx[sec]] = \
                        vecs[sec, :, col]
                    picked[c].append((first[sec], block))
            # J^mu_ab (x) 1 + 1 (x) e_ab restricted to pi_nu, with C read as
            # c3[i, a, :], the rows of |i> (x) |a>
            for c, nu in children.items():
                first = np.concatenate([f for f, _ in picked[c]])
                keep = np.argsort(first, kind="stable")
                iso = np.concatenate([b for _, b in picked[c]])[keep].T
                c3 = iso.reshape(dim, d, -1)
                ca = c3.transpose(1, 0, 2)          # ca[a] = c3[:, a, :]
                level[nu] = _Irrep(mu, iso, w[order[first[keep]]])
                gens[nu] = (iso.T @ (j_mu @ c3.reshape(dim, -1)).reshape(
                    d, d, dim * d, -1)
                    + ca.transpose(0, 2, 1)[:, None] @ ca[None])
        self.levels.append(level)
        self._gens = gens


# one tower per dimension, grown on demand; its bases depend only on (d, n)
_TOWERS: dict[int, _IrrepTower] = {}


def _hook_count(lam: tuple[int, ...]) -> int:
    """f^lam, the dimension of the irrep lam of S_N, by the hook lengths."""
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0] if lam else 0)]
    hooks = math.prod(p - j + cols[j] - i - 1
                      for i, p in enumerate(lam) for j in range(p))
    return math.factorial(sum(lam)) // hooks


def _schur_weyl_blocks(r: np.ndarray, s: np.ndarray, n: int) -> list[Block]:
    """Blocks (f^lam, pi_lam(rho), diagonal of pi_lam(sigma)) over lam |- n
    with at most d rows, from a pair in sigma's eigenbasis (_sigma_basis): r
    is rho there and s sigma's spectrum, 0 on its kernel.

    pi_lam(r) = det(r)^k pi_nu(r), k = lam_d, nu = lam - k, and pi_nu(r) =
    C^T (pi_mu(r) (x) r) C from the tower, taken exactly Hermitian.  Sigma's
    blocks are diagonal, prod_a s_a^(w_a) over the weights w, and are kept
    as that vector, so its kernel is decided on one copy, while small
    products of its eigenvalues stay.  At d = 2 a diagonal phase, which
    leaves sigma alone, makes r real, so every block is real.
    """
    d = r.shape[0]
    tower = _TOWERS.setdefault(d, _IrrepTower(d))
    tower.grow(n)
    if d == 2:
        off = abs(r[0, 1])
        r = np.array([[r[0, 0].real, off], [off, r[1, 1].real]])
    det_r = np.linalg.det(r).real
    images = {(): np.ones((1, 1), dtype=r.dtype)}      # pi_nu(r), |nu| = size
    kept = {}
    for size in range(n + 1):
        if size:
            images = {nu: irrep.iso.T @ kron(images[irrep.parent], r)
                      @ irrep.iso
                      for nu, irrep in tower.levels[size].items()}
        if (n - size) % d == 0:
            kept[size] = images
    blocks = []
    for k in range(n // d + 1):
        size = n - d * k
        for nu, image in kept[size].items():
            lam = tuple(p + k for p in nu + (0,) * (d - 1 - len(nu))) + (k,)
            weights = tower.levels[size][nu].weights + k
            blocks.append((float(_hook_count(tuple(p for p in lam if p))),
                           hermitian_part(det_r ** k * image),
                           np.prod(s ** weights, axis=1)))
    return blocks


def prob_eps_tensor(rho: np.ndarray, sigma: np.ndarray, eps: float,
                    n: int) -> float:
    """Optimal error probability on n tensor copies, searched on their
    Schur-Weyl blocks."""
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    r, s, _ = _sigma_basis(rho, sigma)
    return _np_search(_schur_weyl_blocks(r, s, n), eps)[0]


@dataclass(frozen=True)
class SteinRateSeries:
    rel_entropy: float
    rows: list[tuple[int, float, float]]  # (N, prob, rate); rate inf if prob 0


def stein_rate_series(rho: np.ndarray, sigma: np.ndarray, eps: float,
                      n_max: int) -> SteinRateSeries:
    """Rates -(1/N) ln prob for N = 1..n_max, alongside S(rho||sigma); the
    pair is rotated into sigma's eigenbasis once for all N."""
    r, s, _ = _sigma_basis(rho, sigma)
    rows = []
    for n in range(1, n_max + 1):
        prob = _np_search(_schur_weyl_blocks(r, s, n), eps)[0]
        rate = math.inf if prob <= 0 else -math.log(prob) / n
        rows.append((n, prob, rate))
    return SteinRateSeries(rel_entropy=relative_entropy(rho, sigma),
                           rows=rows)
