"""Independent oracles and helpers used only by the test suite."""

import itertools
import math
from fractions import Fraction

import numpy as np

from macrolab.hypotest import np_optimal_test
from macrolab.operators import (_TAG_DENSITY, _TAG_KRAUS, _TAG_OBSERVABLES,
                                _TAG_TEST_OP, _TAG_UNITARY, LOG_SUPPORT_RTOL,
                                PSD_ATOL, TRACE_ATOL, check_hermitian, eig,
                                embed_at_slot, frechet_exp, hermitian_part,
                                in_support, random_test_operator,
                                tensor_power)


def _spectral_apply(h: np.ndarray, fn) -> np.ndarray:
    w, v = eig(h)
    return hermitian_part((v * fn(w)) @ v.conj().T)


def op_exp(h: np.ndarray) -> np.ndarray:
    """Matrix exponential of a Hermitian operator, via its spectrum."""
    return _spectral_apply(h, np.exp)


def op_log_on_support(h: np.ndarray) -> np.ndarray:
    """Matrix log of a PSD operator, restricted to its support.

    Eigenvalues below LOG_SUPPORT_RTOL relative to the largest one are treated
    as kernel and mapped to 0 in the eigenbasis.  An eigenvalue below -1e-10
    is a domain error.
    """
    w, v = eig(h)
    if w[0] < -PSD_ATOL:
        raise ValueError(f"log of a non-PSD operator (eigenvalue {w[0]:.3e})")
    cut = LOG_SUPPORT_RTOL * max(float(w[-1]), 0.0)
    lw = np.where(w > cut, np.log(np.maximum(w, 1e-300)), 0.0)
    return hermitian_part((v * lw) @ v.conj().T)


def von_neumann(rho: np.ndarray) -> float:
    """-sum w ln w over the spectrum, with 0 ln 0 = 0.

    Eigenvalues at or below LOG_SUPPORT_RTOL relative to the largest one are
    kernel.  Rejects non-Hermitian input.
    """
    check_hermitian(rho)
    w = np.linalg.eigvalsh(rho)
    w = w[in_support(w)]
    return float(-np.sum(w * np.log(w)))


def pos_neg_parts(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral split h = P - M with P, M >= 0 and P M = 0."""
    w, v = eig(h)
    pos = hermitian_part((v * np.maximum(w, 0.0)) @ v.conj().T)
    neg = hermitian_part((v * np.maximum(-w, 0.0)) @ v.conj().T)
    return pos, neg


def trace_norm(h: np.ndarray) -> float:
    pos, neg = pos_neg_parts(h)
    return float(np.trace(pos).real + np.trace(neg).real)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * trace_norm(rho - sigma)


def depolarizing_kraus(dim: int) -> list[np.ndarray]:
    """Measure-and-replace channel mapping every state to identity/dim."""
    out = []
    for i in range(dim):
        for j in range(dim):
            k = np.zeros((dim, dim), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(dim)
            out.append(k)
    return out


def frechet_dmu_dlam(cs) -> list[np.ndarray]:
    """dmu/dlambda^b = D exp(A)[G_b] / Z - mu f_b, one Frechet derivative of
    exp at the exponent per observable."""
    a = sum(l * g for l, g in zip(cs.lam, cs.observables.members))
    z = np.exp(cs.logZ)
    return [frechet_exp(a, g) / z - cs.mu * fb
            for g, fb in zip(cs.observables.members, cs.f)]


def frechet_covariance(cs) -> np.ndarray:
    """Kubo covariance C_ab = tr(G_a dmu/dlambda^b), symmetrized."""
    dmu = frechet_dmu_dlam(cs)
    c = np.array([[np.trace(ga @ db).real for db in dmu]
                  for ga in cs.observables.members])
    return (c + c.T) / 2


def frechet_state_derivatives(cs) -> list[np.ndarray]:
    """Tangents dmu/df_a = sum_b (C^-1)_ab dmu/dlambda^b."""
    cinv = np.linalg.inv(frechet_covariance(cs))
    dmu = frechet_dmu_dlam(cs)
    return [hermitian_part(sum(cinv[a, b] * dmu[b] for b in range(len(dmu))))
            for a in range(len(dmu))]


def lifted_observable(kg, a: int, n: int) -> np.ndarray:
    """Copy-averaged observable (1/N) sum_k 1 x..x G_a x..x 1, one
    Kronecker product per slot."""
    g = kg.observables.members[a]
    eye = np.eye(kg.dim, dtype=complex)
    return sum(embed_at_slot([g if j == k else eye for j in range(n)])
               for k in range(n)) / n


def lifted_deriv(kg, a: int, n: int) -> np.ndarray:
    """One-slot insertion sum_k mu x..x D_a x..x mu, one Kronecker product
    per slot."""
    return sum(embed_at_slot([kg.derivs[a] if j == k else kg.mu
                              for j in range(n)])
               for k in range(n))


# The seeded draws one at a time, each from its own stream
# default_rng([seed, tag, index]): the stacked draws must equal them bit for
# bit.

def gaussian(rng: np.random.Generator, rows: int,
             cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols)))


def _phase_fixed_q(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def solo_test_operator(seed: int, dim: int, index: int) -> np.ndarray:
    """One test operator drawn and factored on its own: a complex Gaussian,
    its phase-fixed QR, then a uniform [0, 1] spectrum."""
    rng = np.random.default_rng([seed, _TAG_TEST_OP, index])
    q = _phase_fixed_q(gaussian(rng, dim, dim))
    w = rng.uniform(0.0, 1.0, dim)
    return hermitian_part((q * w) @ q.conj().T)


def solo_density(seed: int, dim: int, index: int) -> np.ndarray:
    """G G^dagger over its trace, for one complex Gaussian G."""
    g = gaussian(np.random.default_rng([seed, _TAG_DENSITY, index]), dim, dim)
    rho = g @ g.conj().T
    return hermitian_part(rho / np.trace(rho).real)


def solo_unitary(seed: int, dim: int, index: int) -> np.ndarray:
    rng = np.random.default_rng([seed, _TAG_UNITARY, index])
    return _phase_fixed_q(gaussian(rng, dim, dim))


def solo_observables(seed: int, dim: int, m: int, index: int,
                     draw=gaussian) -> list[np.ndarray]:
    """Gram-Schmidt of Hermitian draws against 1 and each other, one member
    at a time; a draw with norm < 1e-8 left is drawn again.  draw(rng, d, d)
    makes each complex Gaussian."""
    rng = np.random.default_rng([seed, _TAG_OBSERVABLES, index])
    basis = [np.eye(dim, dtype=complex) / np.sqrt(dim)]
    out = []
    while len(out) < m:
        g = hermitian_part(draw(rng, dim, dim))
        for b in basis:
            g = g - np.trace(b.conj().T @ g).real * b
        norm = np.sqrt(np.trace(g @ g).real)
        if norm < 1e-8:
            continue
        g = hermitian_part(g / norm)
        basis.append(g)
        out.append(g)
    return out


def solo_kraus(seed: int, dim: int, n_ops: int,
               index: int) -> list[np.ndarray]:
    """The n_ops dim x dim blocks of one Haar-style isometry."""
    rng = np.random.default_rng([seed, _TAG_KRAUS, index])
    q = _phase_fixed_q(gaussian(rng, n_ops * dim, dim))
    return [q[i * dim:(i + 1) * dim, :] for i in range(n_ops)]


def solo_apply_channel(rho: np.ndarray, kraus) -> np.ndarray:
    """sum_i K_i rho K_i^dagger, after checking sum_i K_i^dagger K_i = 1."""
    s = sum(k.conj().T @ k for k in kraus)
    err = float(np.max(np.abs(s - np.eye(rho.shape[0]))))
    if err > TRACE_ATOL:
        raise ValueError(f"incomplete Kraus set: completeness error {err:.3e}")
    return hermitian_part(sum(k @ rho @ k.conj().T for k in kraus))


def kg_gamma_n(kg, rho: np.ndarray) -> float:
    """gamma_N of a projector lifted to N copies, with gbar_a(rho^N) read off
    its copy averages: max(tr Delta_+, tr Delta_-) of Delta = rho^N - P_adj."""
    rho_n = tensor_power(rho, kg.n)
    gbar_rho = np.einsum("aij,ji->a", kg.gbar, rho_n).real
    adj = kg.mu_n + np.tensordot(gbar_rho - kg.f, kg.dbar, 1)
    w = np.linalg.eigvalsh(rho_n - hermitian_part(adj))
    return max(float(np.sum(w[w > 0])), float(-np.sum(w[w < 0])))


def kg_project(kg, gamma: np.ndarray, n: int) -> np.ndarray:
    """P Gamma = tr(mu^N Gamma) 1 + sum_a tr(D_a^(N) Gamma)(gbar_a - f_a 1),
    from the per-slot lifts."""
    eye = np.eye(kg.dim ** n, dtype=complex)
    out = np.trace(tensor_power(kg.mu, n) @ gamma) * eye
    for a in range(kg.observables.size):
        out = out + (np.trace(lifted_deriv(kg, a, n) @ gamma)
                     * (lifted_observable(kg, a, n) - kg.f[a] * eye))
    return hermitian_part(out)


def classical_np_oracle(p, q, eps):
    """Fractional likelihood-ratio test on commuting (classical) instances."""
    order = sorted(range(len(p)),
                   key=lambda i: -(math.inf if q[i] == 0 else p[i] / q[i]))
    power = cost = 0      # stays exact on Fraction inputs
    for i in order:
        if power + p[i] <= eps:
            power += p[i]
            cost += q[i]
        else:
            frac = (eps - power) / p[i] if p[i] > 0 else 0.0
            cost += frac * q[i]
            power = eps
            break
    return cost


def type_class_oracle(p, q, n, eps):
    """Exact NP on n copies of diag(p) against diag(q), in rational
    arithmetic.

    p and q are the d outcome probabilities, scaled to sum to exactly 1; a
    scalar stands for the qubit diag(p, 1-p).  The C(n+d-1, d-1) type
    classes (k_a copies of outcome a) share one likelihood ratio each, so the
    classical test runs on their masses.  Near eps = 1 the answer moves by
    q/p of the crossing class times any error in rho's mass: 4.3e7 times for
    diag(0.9, 0.1) against diag(0.1, 0.9) at N = 20.  Float sums do not
    resolve that, nor do the floats 0.9 and 0.1, which sum to 1 + 2.8e-17.
    """
    exact = []
    for v in (p, q):
        v = [Fraction(x) for x in ((v, 1 - v) if np.isscalar(v) else v)]
        exact.append(tuple(x / sum(v) for x in v))
    p, q = exact

    def mass(probs, counts):
        out = math.factorial(n)
        for k in counts:
            out //= math.factorial(k)
        for x, k in zip(probs, counts):
            out *= x ** k
        return out

    types = [k for k in itertools.product(range(n + 1), repeat=len(p))
             if sum(k) == n]
    return float(classical_np_oracle([mass(p, k) for k in types],
                                     [mass(q, k) for k in types],
                                     Fraction(eps)))


def sampled_gamma_bound(rho: np.ndarray, sigma: np.ndarray, eps: float,
                        n: int, trials: int, seed: int = 0) -> float:
    """Best objective over sampled feasible tests; an upper bound on prob.

    Samples random test operators (plus perturbations of the exact minimizer),
    restores feasibility by blending with the identity, and returns the
    smallest tr(sigma Gamma) seen.  Independent optimality cross-check.
    """
    rho_n = tensor_power(rho, n)
    sigma_n = tensor_power(sigma, n)
    dim = rho_n.shape[0]
    result = np_optimal_test(rho_n, sigma_n, eps)
    best = math.inf
    for i in range(trials):
        gamma = random_test_operator(seed, dim, index=i)
        if i % 2 == 1:
            # small feasible perturbation of the exact minimizer
            pert = 0.05 * (gamma - 0.5 * np.eye(dim))
            w, v = eig(hermitian_part(result.gamma_op + pert))
            gamma = hermitian_part((v * np.clip(w, 0.0, 1.0)) @ v.conj().T)
        power = float(np.trace(rho_n @ gamma).real)
        if power < eps:
            alpha = (1.0 - eps) / (1.0 - power) if power < 1.0 else 0.0
            gamma = hermitian_part(alpha * gamma + (1 - alpha) * np.eye(dim))
        best = min(best, float(np.trace(sigma_n @ gamma).real))
    return best
