"""Exact optimal binary hypothesis tests and finite-copy error-rate series.

The optimal test minimizing tr(sigma Gamma) subject to tr(rho Gamma) >= eps,
0 <= Gamma <= 1, is built from the spectral projectors of rho - t*sigma at the
Neyman-Pearson threshold t, with a fractional weight on the near-kernel band
so the constraint is met with equality.

Every search runs in sigma's eigenbasis v, where each entry point validates
its pair and rotates it once: rho to r = v^dag rho v over its trace, so that
rho^(x)N has mass 1 up to rounding, sigma to its spectrum s, 0 off its
support.  One threshold search serves every caller.  It runs on weighted
blocks (m_b, rho_b, s_b), where s_b is the diagonal of sigma_b and its
zeros are sigma's kernel, which stand for rho = (+)_b rho_b (x) 1_{m_b} and
sigma likewise, and minimizes sum_b m_b tr(sigma_b Gamma_b) subject to
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

A commuting pair needs neither blocks nor eigensolves.  When every
off-diagonal entry of r is exactly 0, as for two diagonal inputs, the n
copies are solved on their C(n+d-1, d-1) type classes: one sort by log
likelihood ratio and one cumulative sum of rho's masses.  A commuting pair
given in another basis keeps rounding off r's diagonal and takes the
blocks.  Prob is summed in logs; below the smallest normal float
(ln prob < -708.4) the type classes raise RuntimeError rather than return a
subnormal with few correct digits.

The search is scale-invariant.  It starts at t0, which an N-copy point sets
to the Stein threshold exp(N D), D = S(rho||sigma), and 1 where that is not
finite; a threshold grows like exp(N D) (Hiai-Petz 1991; Ogawa-Nagaoka
2000).  It brackets the crossing by multiplying or dividing t by a ratio
that squares each time (4, 16, 256, ...), down to t = 1, below which the
bracket is [0, 1]; it bisects log t down to a factor 2, then steps until
hi - lo <= BISECT_WIDTH * hi, or hi <= BISECT_WIDTH.  Each step is read from
the splits at lo and hi.  Where eigenvalues leave the positive set across
the bracket, g jumps where one of them crosses its band edge; the eigenvalue
of v falls at the rate <v|sigma_b|v> (Hellmann-Feynman), so the step goes to
the median of their Newton roots, exact for commuting blocks.  Where none
leaves, g is smooth there and the step is a Newton one on g - eps from the
end with the smaller |g - eps|, on the exact slope (_slope); a Newton root
outside the bracket shows a jump that no eigenvalue was seen to cross, and
the step goes to the chord's root instead.  Steps stay inside the
bracket, and one that neither halves it nor cuts |g - eps| by 4x is
followed by a bisection.  So this phase takes at most twice the steps of a
plain bisection (40 from a factor 2, up to 80 from lo = 0) plus one step
per factor 4 by which min |g - eps| over the ends falls, which the float
spacing of g - eps bounds to about 27 at eps = 1/2 and more as eps nears 1;
in practice a search splits about 10 thresholds.  t = 0, the test onto
rho's support, is split only while lo = 0.  One move splits each threshold,
summing g - eps as it goes, moves lo or hi and counts the step.  The search
returns the better feasible test at lo and hi, and raises RuntimeError,
naming the bracket, when neither is feasible.  At eps = 1 it takes one
block and returns that support test, by in_support; N copies take its prob
to the N-th power (_n_copy_prob).  An eigenvector v of rho_b - t sigma_b
is in the near-kernel band when its eigenvalue lies within KERNEL_BAND *
<v|rho_b + t sigma_b|v> of 0, so that its likelihood ratio is within about
2 * KERNEL_BAND of t, or within RESIDUAL_MARGIN times its eigenpair
residual, where the eigensolve cannot tell the sign.  Both bounds scale
with the data; there is no absolute band.  After MAX_SEARCH_STEPS steps, or
when the threshold exceeds the float range, the search raises RuntimeError
as well.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .entropy import pair_spectra
from .operators import (PSD_ATOL, TRACE_ATOL, eig, hermitian_part,
                        in_support, kron)

KERNEL_BAND = 1e-10    # relative to <v|rho_b + t sigma_b|v>
RESIDUAL_MARGIN = 10   # times the eigenpair residual
BISECT_WIDTH = 1e-12
# a search takes about 10 steps after its split at t0, which is none; at most
# 11 move t by a squaring ratio to the float range, 10 bisect log t and 80
# close the bracket, or 1 splits t = 0 and 160 close it when the threshold is
# below 1, plus the steps that cut |g - eps| by 4x
MAX_SEARCH_STEPS = 200
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

Block = tuple[float, np.ndarray, np.ndarray]   # (m_b, rho_b, s_b)


@dataclass(frozen=True)
class NPTestResult:
    threshold_t: float
    prob: float          # minimized tr(sigma Gamma)
    power: float         # achieved tr(rho Gamma)
    gamma_op: np.ndarray


def _sigma_basis(rho: np.ndarray, sigma: np.ndarray) -> tuple:
    """(r, s, v, rel): rho in sigma's eigenbasis v, r = v^dag rho v over its
    trace, sigma's ascending spectrum s, with 0 outside its support, and
    S(rho||sigma) of rho as given, as relative_entropy reads it
    (entropy.pair_spectra).  Rejects a pair that is not two states of one
    dimension."""
    p, w, v, rel = pair_spectra(rho, sigma)
    for name, spec in (("rho", p), ("sigma", w)):
        if spec[0] < -PSD_ATOL or abs(spec.sum() - 1) > TRACE_ATOL:
            raise ValueError(f"{name} is not a state: lowest eigenvalue "
                             f"{spec[0]:.3e}, trace {spec.sum():.12g}")
    # the trace that the state check allows off 1 exceeds the search's power
    # tolerance, so it is divided out here, once for every search
    r = hermitian_part(v.conj().T @ rho @ v)
    r /= np.trace(r).real
    return r, np.where(in_support(w), w, 0.0), v, float(rel)


def _split_at(blocks: list[Block], t: float,
              eps: float) -> tuple[list[tuple], float]:
    """(split, g(t) - eps).  Per block, the split holds m_b, the eigenvectors
    v and eigenvalues w of h = (rho_b - t sigma_b) / max(1, t), in the float
    range whatever t is, the overlaps rho_v = <v|rho_b|v> and sig_v =
    <v|sigma_b|v>, and each eigenvalue's band.  g(t) = sum_b m_b tr(rho_b
    P_+), P_+ onto the eigenvalues above their band; g - eps is (1 - eps) -
    (1 - g), 1 - g a sum of small overlaps, so levels near 1 stay resolved."""
    scale = max(1.0, t)
    split = []
    missing = 0.0
    for m, r, s in blocks:
        h = r / scale      # sigma_b is diagonal: t moves h's diagonal only
        h.flat[::len(s) + 1] -= t / scale * s
        w, v = eig(h)
        rho_v = np.einsum("ij,ij->j", v.conj(), r @ v).real
        sig_v = s @ (v * v.conj()).real
        # an eigenvalue of h lies within the residual |h v - w v| of w
        res = h @ v - v * w
        residual = np.sqrt(np.einsum("ij,ij->j", res.conj(), res).real)
        # <v|rho_b + t sigma_b|v> / scale = 2 rho_v / scale - w
        band = (KERNEL_BAND * (2 * rho_v / scale - w)
                + RESIDUAL_MARGIN * residual)
        missing += m * float(rho_v[w <= band].sum())
        split.append((m, v, w, rho_v, sig_v, band))
    return split, (1.0 - eps) - missing


def _slope(blocks: list[Block], split: list[tuple], t: float) -> float:
    """g'(t) = -2t sum_b m_b sum_(i in P, j not in P) |<v_i|sigma_b|v_j>|^2
    / (lam_i - lam_j), first-order perturbation of P_+ with rho_b's
    off-diagonal overlaps <v_j|rho_b|v_i> = t <v_j|sigma_b|v_i>; lam are the
    eigenvalues of rho_b - t sigma_b and P the positive set of _split_at."""
    scale = max(1.0, t)
    total = 0.0
    for (m, _, s), (_, v, w, _, _, band) in zip(blocks, split):
        pos = w > band
        if pos.any() and not pos.all():
            sig = (v.conj().T * s) @ v
            gap = scale * (w[pos][:, None] - w[~pos])
            total += m * float((np.abs(sig[np.ix_(pos, ~pos)]) ** 2
                                / gap).sum())
    return -2 * t * total


def _np_search(blocks: list[Block], eps: float, t0: float = 1.0
               ) -> tuple[float, float, float, list[tuple]]:
    """Neyman-Pearson minimizer over weighted blocks (m_b, rho_b, s_b), with
    rho_b exactly Hermitian, sum_b m_b tr(rho_b) = 1, and s_b sigma_b's
    diagonal, whose zeros are sigma's kernel; the search starts at the
    threshold t0.  Returns (prob, threshold t, power, per-block tests
    Gamma_b = v_b diag(c_b) v_b^dag as (v_b, c_b)) of the better feasible end
    of the closed bracket."""
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {eps}")
    if eps == 1 and len(blocks) > 1:
        raise ValueError(f"epsilon 1 takes one block, got {len(blocks)}")
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
    if eps == 1:
        # the optimum projects rho onto its support
        ((m, r, s),) = blocks
        w, v = eig(r)
        c = in_support(w).astype(float)
        return (m * float(c @ (s @ (v * v.conj()).real)), 0.0,
                m * float(c @ w), [(v, c)])

    def candidate(t: float, split: list[tuple]):
        # rho mass above, in and below the band.  The mass that P_+ misses
        # of eps is eps - p_plus; above eps = 1/2 it is taken through the
        # complement, like g - eps in _split_at, so levels near 1 stay resolved
        parts = []
        p_plus = p_zero = p_minus = 0.0
        for m, v, w, rho_v, _, band in split:
            plus, zero = w > band, np.abs(w) <= band
            p_plus += m * float(rho_v[plus].sum())
            p_zero += m * float(rho_v[zero].sum())
            p_minus += m * float(rho_v[~(plus | zero)].sum())
            parts.append((v, plus, zero))
        missing = (eps - p_plus if eps <= 0.5
                   else p_zero + p_minus - (1.0 - eps))
        c = min(missing / p_zero, 1.0) if missing > 0 and p_zero > 0 else 0.0
        tests = [(v, np.where(plus, 1.0, np.where(zero, c, 0.0)))
                 for v, plus, zero in parts]
        # tr(rho_b Gamma_b) = c_b . rho_v, tr(sigma_b Gamma_b) = c_b . sig_v
        power = sum(m * float(cb @ rho_v)
                    for (m, _, _, rho_v, _, _), (_, cb) in zip(split, tests))
        prob = sum(m * float(cb @ sig_v)
                   for (m, _, _, _, sig_v, _), (_, cb) in zip(split, tests))
        return None if power < eps - 1e-10 else (prob, t, power, tests)

    # the splits at lo and hi, None until one is made, and g - eps there; no
    # threshold is solved twice
    lo, hi = 0.0, math.inf
    at_lo = at_hi = f_lo = f_hi = None
    steps = -1          # the split at t0 is not a step

    def fail(reason: str) -> RuntimeError:
        return RuntimeError(
            f"NP threshold search failed after {steps} steps ({reason}): "
            f"t in [{lo!r}, {hi!r}], width {hi - lo!r}, eps {eps!r}")

    def move(t: float) -> float:
        # t = 0, the bracket's floor, is lo whatever g(0) reads
        nonlocal lo, hi, at_lo, at_hi, f_lo, f_hi, steps
        split, f = _split_at(blocks, t, eps)
        if t == 0 or f >= 0:
            if t == sys.float_info.max:
                raise fail("threshold beyond the float range")
            lo, at_lo, f_lo = t, split, f
        else:
            hi, at_hi, f_hi = t, split, f
        steps += 1
        if steps > MAX_SEARCH_STEPS:
            raise fail(f"cap {MAX_SEARCH_STEPS}")
        return f

    # bracket the crossing of g(t) with eps from t0, multiplying or dividing
    # t by a ratio that squares each time (4, 16, 256, ...), which doubles
    # log t, so a threshold of N copies, which grows like exp(N D), costs
    # O(log N) splits from any start; a crossing below t = 1 is bracketed
    # by [0, 1]
    t, ratio = t0, 4.0
    move(t)
    while at_lo is None or hi == math.inf:
        t = (min(t * ratio, sys.float_info.max) if hi == math.inf
             else max(t / ratio, 1.0) if t > 1 else 0.0)
        ratio *= ratio
        move(t)
    while lo > 0 and hi > 2 * lo:
        move(math.sqrt(lo) * math.sqrt(hi))

    def step() -> float | None:
        """The next threshold to split, read from the splits at lo and hi,
        or None to bisect.  An eigenvector's margin scale * (w - band), whose
        sign decides its term of g, falls at the rate (1 + KERNEL_BAND) sig_v
        (Hellmann-Feynman), so its Newton root is its band edge.  Where none
        leaves, the step is a Newton one on g - eps, landing a quarter of
        the stop width past the root, so that a converged root closes the
        bracket."""
        (m_lo, k_lo), (m_hi, k_hi) = (
            (np.concatenate([max(1.0, t) * (w - band)
                             for *_, w, _, _, band in split]),
             np.concatenate([(1 + KERNEL_BAND) * sig_v
                             for *_, sig_v, _ in split]))
            for t, split in ((lo, at_lo), (hi, at_hi)))
        roots = []
        if ((m_lo > 0) & (m_hi <= 0)).any():     # some eigenvalue leaves
            on_lo, on_hi = (m_lo > 0) & (k_lo > 0), (m_hi <= 0) & (k_hi > 0)
            roots = np.sort(np.concatenate([lo + m_lo[on_lo] / k_lo[on_lo],
                                            hi + m_hi[on_hi] / k_hi[on_hi]]))
            roots = roots[(lo <= roots) & (roots <= hi)]
        if len(roots):
            # a root within rounding of an end would move that end alone;
            # half the stop width past it closes the bracket
            tol = BISECT_WIDTH / 2 * hi
            return min(max(float(roots[len(roots) // 2]), lo + tol), hi - tol)
        past = BISECT_WIDTH / 4 * hi
        t, f, split = ((lo, f_lo, at_lo) if f_lo <= -f_hi
                       else (hi, f_hi, at_hi))
        slope = _slope(blocks, split, t)
        if slope < 0:
            t = t - f / slope + (past if t == lo else -past)
            if lo < t < hi:
                return t
        # a root outside the bracket: g jumps inside it
        t = lo + f_lo * (hi - lo) / (f_lo - f_hi)
        return t if lo < t < hi else None

    bisect_next = False
    # below t = BISECT_WIDTH a crossing direction holds less rho mass than
    # the power tolerance, and rho's numerical kernel would join the band
    while hi > BISECT_WIDTH and hi - lo > BISECT_WIDTH * hi:
        t = None if bisect_next else step()
        width = hi - lo
        near = min(abs(f_lo), abs(f_hi))
        f = move(lo + (hi - lo) / 2 if t is None else t)
        # a step that neither halves the bracket nor cuts |g - eps| by 4x is
        # followed by a bisection
        bisect_next = (t is not None and hi - lo > width / 2
                       and not abs(f) < near / 4)

    # rho being of unit trace, lo's test is feasible up to the rounding of
    # the blocks' masses, and t = 0's split is lo's whenever lo = 0
    found = [c for c in (candidate(hi, at_hi), candidate(lo, at_lo)) if c]
    if not found:
        raise fail("no feasible test at either end")
    return min(found, key=lambda c: c[0])


def np_optimal_test(rho: np.ndarray, sigma: np.ndarray,
                    eps: float) -> NPTestResult:
    """Exact quantum Neyman-Pearson minimizer, in sigma's eigenbasis; the
    one place a test operator is formed."""
    r, s, v, _ = _sigma_basis(rho, sigma)
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


def _schur_weyl_blocks(r: np.ndarray, s: np.ndarray, n: int,
                       images: list[dict] | None = None) -> list[Block]:
    """Blocks (f^lam, pi_lam(rho), diagonal of pi_lam(sigma)) over lam |- n
    with at most d rows, from a pair in sigma's eigenbasis (_sigma_basis): r
    is rho there and s sigma's spectrum, 0 on its kernel.  images[size]
    holds the pi_nu(r) of level |nu| = size; a caller that passes the same
    list for every n of one r, as a series does, builds each level once.

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
    images = [] if images is None else images
    if not images:
        images.append({(): np.ones((1, 1), dtype=r.dtype)})
    for size in range(len(images), n + 1):
        images.append({nu: irrep.iso.T @ kron(images[size - 1][irrep.parent],
                                              r) @ irrep.iso
                       for nu, irrep in tower.levels[size].items()})
    blocks = []
    for k in range(n // d + 1):
        size = n - d * k
        for nu, image in images[size].items():
            lam = tuple(p + k for p in nu + (0,) * (d - 1 - len(nu))) + (k,)
            weights = tower.levels[size][nu].weights + k
            blocks.append((float(_hook_count(tuple(p for p in lam if p))),
                           hermitian_part(det_r ** k * image),
                           np.prod(s ** weights, axis=1)))
    return blocks


def _compositions(n: int, d: int) -> np.ndarray:
    """The C(n+d-1, d-1) type classes of n copies of d outcomes, as counts
    (rows summing to n) in lexicographic order, part by part."""
    k, left = np.zeros((1, 0), dtype=int), np.array([n])
    for _ in range(d - 1):
        # each row branches on its next count 0..left, in order
        rows = np.repeat(np.arange(len(k)), left + 1)
        first = np.arange(len(rows)) - np.repeat(np.cumsum(left + 1) - left - 1,
                                                 left + 1)
        k, left = np.column_stack([k[rows], first]), left[rows] - first
    return np.column_stack([k, left])


def _type_class_prob(p: np.ndarray, q: np.ndarray, n: int,
                     eps: float) -> float:
    """Optimal error probability on n copies of diag(p) against diag(q).

    A type class k, with k_a copies of outcome a, has rho mass
    n!/prod_a k_a! prod_a p_a^k_a and sigma mass likewise; these are taken
    in logs, with 0 log 0 = 0.  The classes are sorted by likelihood ratio,
    sigma's kernel first, and taken until rho's cumulative mass meets eps,
    the crossing class with a fractional weight.  That class carries eps
    less the mass above it, or above eps = 1/2 the mass from it down less
    1 - eps, so levels near 1 stay resolved, and nothing when this is within
    the rounding of the masses.  Prob is summed in logs and refused below
    the float range.  eps = 1 is not taken here (_n_copy_prob).
    """
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    keep = p > 0      # a class with a copy of another outcome has no rho mass
    p, q = p[keep], q[keep]
    d = len(p)
    k = _compositions(n, d)
    log_fact = np.array([math.lgamma(i + 1) for i in range(n + 1)])
    log_m = log_fact[n] - log_fact[k].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = log_m + k @ np.log(p)
        log_q = log_m + np.where(k > 0, k * np.log(q), 0.0).sum(axis=1)
    order = np.argsort(log_q - log_p, kind="stable")
    log_q, mass = log_q[order], np.exp(log_p[order])
    if eps <= 0.5:
        above = np.cumsum(mass)
        j = min(int(np.searchsorted(above, eps)), len(mass) - 1)
        missing = eps - (above[j - 1] if j else 0.0)
    else:
        below = np.append(np.cumsum(mass[::-1])[::-1][1:], 0.0)
        j = int(np.argmax(below <= 1 - eps))
        missing = below[j] + mass[j] - (1 - eps)
    # each log mass sums terms up to ln n! + n max |ln p_a| and carries a few
    # ulp of that, and the cumulative sum one rounding per class.  A missing
    # mass within that rounding is a likelihood-ratio step that meets eps;
    # a sliver of the next class would add the rounding times its q/p.
    rounding = np.finfo(float).eps * (
        4 * (log_fact[n] + n * np.abs(np.log(p)).max()) + len(mass))
    frac = (1.0 if missing >= mass[j]
            else 0.0 if missing <= rounding * min(eps, 1 - eps)
            else missing / mass[j])
    with np.errstate(divide="ignore"):
        terms = np.append(log_q[:j], log_q[j] + np.log(frac))
    top = terms.max()
    if top == -math.inf:
        return 0.0
    log_prob = top + math.log(np.exp(terms - top).sum())
    if log_prob < math.log(sys.float_info.min):
        raise RuntimeError(
            f"prob below the float range: ln prob {log_prob:.6g} < "
            f"ln {sys.float_info.min!r} at n {n}, eps {eps!r}")
    return math.exp(log_prob)


def _n_copy_prob(r: np.ndarray, s: np.ndarray, rel: float, n: int,
                 eps: float, images: list[dict]) -> float:
    """Optimal error probability on n copies of a pair in sigma's eigenbasis
    (_sigma_basis, with rel = S(rho||sigma)): on its type classes when r is
    exactly diagonal, so that the pair commutes, else on its Schur-Weyl
    blocks, built from images (_schur_weyl_blocks), with the search started
    at the Stein threshold exp(n rel), or at 1 where that is not finite.

    At eps = 1 prob is the one-copy answer to the n-th power, commuting or
    not: the optimum projects onto supp(rho)^(x)n, decided on one copy as
    sigma's kernel is, since a rule relative to rho^(x)n's top eigenvalue
    would drop true ones of a spectrum graded over more than 12 decades."""
    if eps == 1:
        return _np_search([(1.0, r, s)], eps)[0] ** n
    if not np.any(r[~np.eye(len(r), dtype=bool)]):
        return _type_class_prob(np.diag(r).real, s, n, eps)
    t0 = math.exp(n * rel) if n * rel < _LOG_FLOAT_MAX else 1.0
    return _np_search(_schur_weyl_blocks(r, s, n, images), eps,
                      max(t0, 1.0))[0]


def prob_eps_tensor(rho: np.ndarray, sigma: np.ndarray, eps: float,
                    n: int) -> float:
    """Optimal error probability on n tensor copies, searched on their type
    classes or Schur-Weyl blocks."""
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    r, s, _, rel = _sigma_basis(rho, sigma)
    return _n_copy_prob(r, s, rel, n, eps, [])


@dataclass(frozen=True)
class SteinRateSeries:
    rel_entropy: float
    rows: list[tuple[int, float, float]]  # (N, prob, rate); rate inf if prob 0


def stein_rate_series(rho: np.ndarray, sigma: np.ndarray, eps: float,
                      n_max: int) -> SteinRateSeries:
    """Rates -(1/N) ln prob for N = 1..n_max, alongside S(rho||sigma), equal
    to relative_entropy(rho, sigma) bit for bit; the pair is rotated into
    sigma's eigenbasis, and each level of its block images built, once for
    all N."""
    r, s, _, rel = _sigma_basis(rho, sigma)
    rows, images = [], []
    for n in range(1, n_max + 1):
        prob = _n_copy_prob(r, s, rel, n, eps, images)
        rate = math.inf if prob <= 0 else -math.log(prob) / n
        rows.append((n, prob, rate))
    return SteinRateSeries(rel_entropy=rel, rows=rows)
