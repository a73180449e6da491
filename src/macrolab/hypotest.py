"""Exact optimal binary hypothesis tests and finite-copy error-rate series.

The optimal test minimizing tr(sigma Gamma) subject to tr(rho Gamma) >= eps,
0 <= Gamma <= 1, is built from the spectral projectors of rho - t*sigma at the
Neyman-Pearson threshold t, with a fractional weight on the near-kernel band
so the constraint is met with equality.

One threshold search serves every caller.  It runs on weighted blocks
(m_b, rho_b, sigma_b), which stand for the pair rho = (+)_b rho_b (x) 1_{m_b}
and sigma likewise, and minimizes sum_b m_b tr(sigma_b Gamma_b) subject to
sum_b m_b tr(rho_b Gamma_b) >= eps.  A single pair is one block with m = 1.

N copies of a qubit pair are searched on their Schur-Weyl blocks
(Keyl-Werner 2001): rho^(x)N = (+)_k det(rho)^k Sym^(N-2k)(rho) (x) 1_{m_k},
m_k = C(N,k) - C(N,k-1), and sigma the same in the same basis.  The problem
is permutation-invariant, so an optimal test is block-diagonal as well.
Blocks have size at most N+1, so N is not bounded by DIM_CAP.  In dimension
d > 2 the dense tensor power, capped at DIM_CAP, is the single block.

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
from .operators import (LOG_SUPPORT_RTOL, check_hermitian, eig,
                        hermitian_part, tensor_power)

KERNEL_BAND = 1e-10    # relative to <v|rho_b + t sigma_b|v>
RESIDUAL_MARGIN = 10   # times the eigenpair residual
BISECT_WIDTH = 1e-12
# a search takes about 50 steps, or up to 90 when the threshold is below 1;
# squaring t reaches the float range in 11
MAX_SEARCH_STEPS = 200

Block = tuple[float, np.ndarray, np.ndarray]   # (m_b, rho_b, sigma_b)


@dataclass(frozen=True)
class NPTestResult:
    epsilon: float
    threshold_t: float
    prob: float          # minimized tr(sigma Gamma)
    power: float         # achieved tr(rho Gamma)
    gamma_op: np.ndarray


def _check_pair(rho: np.ndarray, sigma: np.ndarray, eps: float) -> None:
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    check_hermitian(rho)
    check_hermitian(sigma)


def _expect(blocks: list[Block], gammas: list[np.ndarray],
            which: int) -> float:
    """sum_b m_b tr(op_b Gamma_b), op = rho (which=1) or sigma (which=2)."""
    return sum(b[0] * float(np.vdot(g, b[which]).real)
               for b, g in zip(blocks, gammas))


def _np_search(blocks: list[Block], eps: float, kernel_rtol: float
               ) -> tuple[float, float, float, list[np.ndarray]]:
    """Neyman-Pearson minimizer over weighted blocks.

    Eigenvalues of the sigma_b at or below kernel_rtol times the largest one
    of all blocks make up sigma's kernel.  Returns (prob, threshold t, power,
    per-block tests Gamma_b).
    """
    # exactly Hermitian blocks give exactly Hermitian rho_b - t sigma_b
    blocks = [(m, hermitian_part(r), hermitian_part(s)) for m, r, s in blocks]
    # If enough of rho lives in sigma's kernel the error probability is 0.
    spectra = [eig(s) for _, _, s in blocks]
    cut = kernel_rtol * max(max(float(w[-1]) for w, _ in spectra), 0.0)
    kers = [v[:, w <= cut] for w, v in spectra]
    p_ker = sum(m * float(np.trace(k.conj().T @ r @ k).real)
                for (m, r, _), k in zip(blocks, kers))
    if p_ker > 0 and p_ker >= eps - 1e-12:
        gammas = [hermitian_part(min(eps / p_ker, 1.0) * (k @ k.conj().T))
                  for k in kers]
        return 0.0, math.inf, _expect(blocks, gammas, 1), gammas

    def spectra_at(t: float):
        """Per block: eigenvectors v and eigenvalues w of
        h = (rho_b - t sigma_b) / max(1, t), the overlaps rho_v = <v|rho_b|v>,
        and the band of each eigenvalue.  Dividing by max(1, t) keeps h in
        the float range whatever t is."""
        scale = max(1.0, t)
        for m, r, s in blocks:
            h = r - t * s if t <= 1 else r / t - s
            w, v = eig(h)
            rho_v = np.einsum("ij,ij->j", v.conj(), r @ v).real
            # an eigenvalue of h lies within the residual |h v - w v| of w
            res = h @ v - v * w
            residual = np.sqrt(np.einsum("ij,ij->j", res.conj(), res).real)
            # <v|rho_b + t sigma_b|v> / scale = 2 rho_v / scale - w
            band = (KERNEL_BAND * (2 * rho_v / scale - w)
                    + RESIDUAL_MARGIN * residual)
            yield m, v, w, rho_v, band

    def g_at_least(t: float) -> bool:
        """Whether g(t) = sum_b m_b tr(rho_b P_+(rho_b - t sigma_b)) >= eps.

        Compared through the complement 1 - g(t), a sum of small nonnegative
        overlaps, so levels near 1 are resolved without cancellation.
        """
        deficit = sum(m * float(rho_v[w <= band].sum())
                      for m, _, w, rho_v, band in spectra_at(t))
        return deficit <= 1.0 - eps

    def candidate(t: float):
        # rho mass in the band and below it; like g_at_least, the mass that
        # P_+ misses of eps is taken through the complement
        splits = []
        p_zero = p_minus = 0.0
        for m, v, w, rho_v, band in spectra_at(t):
            plus, zero = w > band, np.abs(w) <= band
            p_zero += m * float(rho_v[zero].sum())
            p_minus += m * float(rho_v[~(plus | zero)].sum())
            splits.append((v, plus, zero))
        missing = p_zero + p_minus - (1.0 - eps)
        c = min(missing / p_zero, 1.0) if missing > 0 and p_zero > 0 else 0.0
        gammas = [hermitian_part(
            (v * np.where(plus, 1.0, np.where(zero, c, 0.0))) @ v.conj().T)
            for v, plus, zero in splits]
        power = _expect(blocks, gammas, 1)
        if power < eps - 1e-10:
            return None
        return _expect(blocks, gammas, 2), t, power, gammas

    lo, hi = 0.0, 1.0
    steps = 0

    def fail(reason: str) -> RuntimeError:
        return RuntimeError(
            f"NP threshold search failed after {steps} steps ({reason}): "
            f"t in [{lo!r}, {hi!r}], width {hi - lo!r}, eps {eps!r}")

    def bisect(mid: float) -> None:
        nonlocal lo, hi, steps
        if g_at_least(mid):
            lo = mid
        else:
            hi = mid
        steps += 1
        if steps > MAX_SEARCH_STEPS:
            raise fail(f"cap {MAX_SEARCH_STEPS}")

    # bracket the crossing of g(t) with eps by squaring t, which doubles
    # log t, so thresholds of N copies, which grow like exp(N D), cost O(log N)
    while g_at_least(hi):
        if hi == sys.float_info.max:
            raise fail("threshold beyond the float range")
        lo, hi = hi, min(max(2.0, hi * hi), sys.float_info.max)
        steps += 1
    while lo > 0 and hi > 2 * lo:
        bisect(math.sqrt(lo) * math.sqrt(hi))
    # below t = BISECT_WIDTH a crossing direction holds less rho mass than
    # the power tolerance, and rho's numerical kernel would join the band
    while hi > BISECT_WIDTH and hi - lo > BISECT_WIDTH * hi:
        bisect(lo + (hi - lo) / 2)

    # t = 0 guards the degenerate case where g is numerically flat at eps
    candidates = [c for c in (candidate(hi), candidate(lo), candidate(0.0))
                  if c is not None]
    return min(candidates, key=lambda c: c[0])


def np_optimal_test(rho: np.ndarray, sigma: np.ndarray,
                    eps: float) -> NPTestResult:
    """Exact quantum Neyman-Pearson minimizer."""
    _check_pair(rho, sigma, eps)
    prob, t, power, gammas = _np_search([(1.0, rho, sigma)], eps,
                                        LOG_SUPPORT_RTOL)
    return NPTestResult(epsilon=eps, threshold_t=t, prob=prob, power=power,
                        gamma_op=gammas[0])


def _sym_powers(a: np.ndarray, n_max: int) -> list[np.ndarray]:
    """Sym^n(a) for n = 0..n_max and a 2x2 matrix a.

    The basis of Sym^n is |n, j>, the normalized symmetric n-qubit state with
    j copies of the first basis vector, j = 0..n.  Each power is built from
    the one before: Sym^n(a) = E^dag (Sym^(n-1)(a) (x) a) E, where the
    isometry E maps |n, j> to sqrt(j/n) |n-1, j-1> |0> +
    sqrt((n-j)/n) |n-1, j> |1>.  Each step compresses a tensor product by an
    isometry, so rounding stays relative to |a|^n; there is no cancelling
    multinomial sum.  A diagonal a gives exactly diagonal powers.
    """
    out = [np.ones((1, 1), dtype=a.dtype)]
    for n in range(1, n_max + 1):
        j = np.arange(n + 1)
        up, dn = np.sqrt(j / n), np.sqrt((n - j) / n)
        q = np.zeros((n + 2, n + 2), dtype=a.dtype)   # Sym^(n-1), zero-padded
        q[1:-1, 1:-1] = out[-1]
        out.append(a[0, 0] * np.outer(up, up) * q[:-1, :-1]
                   + a[0, 1] * np.outer(up, dn) * q[:-1, 1:]
                   + a[1, 0] * np.outer(dn, up) * q[1:, :-1]
                   + a[1, 1] * np.outer(dn, dn) * q[1:, 1:])
    return out


def _schur_weyl_blocks(rho: np.ndarray, sigma: np.ndarray,
                       n: int) -> list[Block]:
    """Blocks (m_k, det(rho)^k Sym^(n-2k)(rho), det(sigma)^k Sym^(n-2k)(sigma))
    for k = 0..n//2, in sigma's eigenbasis, where sigma's blocks are diagonal.

    A diagonal phase, which leaves sigma's blocks alone, makes rho real, so
    every block is a real symmetric matrix.  Sigma's support is decided on one
    copy, with the relative cutoff of relative_entropy; its kernel becomes
    exact zeros in the blocks, while small products of its eigenvalues stay.
    """
    w_s, v_s = eig(sigma)
    w_s = np.where(w_s > LOG_SUPPORT_RTOL * w_s[-1], w_s, 0.0)
    r = v_s.conj().T @ rho @ v_s
    off = abs(r[0, 1] + r[1, 0].conjugate()) / 2
    r = np.array([[r[0, 0].real, off], [off, r[1, 1].real]])
    det_r = r[0, 0] * r[1, 1] - off * off
    det_s = w_s[0] * w_s[1]
    sym_r, sym_s = _sym_powers(r, n), _sym_powers(np.diag(w_s), n)
    return [(float(math.comb(n, k) - (math.comb(n, k - 1) if k else 0)),
             det_r ** k * sym_r[n - 2 * k], det_s ** k * sym_s[n - 2 * k])
            for k in range(n // 2 + 1)]


def prob_eps_tensor(rho: np.ndarray, sigma: np.ndarray, eps: float,
                    n: int) -> float:
    """Optimal error probability on n tensor copies.

    Qubit pairs are searched on their Schur-Weyl blocks; larger dimensions on
    the dense tensor power, which tensor_power caps at DIM_CAP.
    """
    _check_pair(rho, sigma, eps)
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    if rho.shape != (2, 2):
        return np_optimal_test(tensor_power(rho, n), tensor_power(sigma, n),
                               eps).prob
    return _np_search(_schur_weyl_blocks(rho, sigma, n), eps, 0.0)[0]


@dataclass(frozen=True)
class SteinRateSeries:
    epsilon: float
    rel_entropy: float
    rows: list[tuple[int, float, float]]  # (N, prob, rate); rate inf if prob 0


def stein_rate_series(rho: np.ndarray, sigma: np.ndarray, eps: float,
                      n_max: int) -> SteinRateSeries:
    """Rates -(1/N) ln prob for N = 1..n_max, alongside S(rho||sigma)."""
    rows = []
    for n in range(1, n_max + 1):
        prob = prob_eps_tensor(rho, sigma, eps, n)
        rate = math.inf if prob <= 0 else -math.log(prob) / n
        rows.append((n, prob, rate))
    return SteinRateSeries(epsilon=eps,
                           rel_entropy=relative_entropy(rho, sigma),
                           rows=rows)
