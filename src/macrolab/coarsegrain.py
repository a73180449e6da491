"""Coarse-graining maps and the Kawasaki-Gunton super-projector.

State-space coarse grainings (canonical replacement and correlation removal)
are nonlinear; the KG projector is the linear object on observables whose
pairing with rho^(tensor N) reproduces pairing with mu_f^(tensor N).  The
construction used here is first order around the canonical state:

    P_adj(tau) = mu^N + sum_a D_a^(N) (gbar_a(tau) - f_a)

with gbar_a the copy-averaged expectation values and D_a^(N) = d/ds
(mu + s D_a)^(tensor N) at s = 0, D_a = dmu/df_a; KGProjector.lift builds both
once per call by one copy-sum recurrence.  The observable side works on stacks
(..., D, D): positivity_diagnostic draws, projects and eigensolves its test
operators in chunks of at most _CHUNK_ENTRIES matrix entries, so its peak
memory is that of one chunk whatever the number of trials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxent import CanonicalState, ObservableSet, fit_maxent, state_derivatives
from .operators import (check_hermitian, hermitian_part, partial_trace,
                        random_test_operators, tensor_power)

# test operators held at once by positivity_diagnostic, in matrix entries
_CHUNK_ENTRIES = 2 ** 14


def canonical_coarse_grain(rho: np.ndarray,
                           obs: ObservableSet) -> CanonicalState:
    """Replace rho by the MaxEnt state sharing its relevant expectations."""
    if rho.shape[0] != obs.dim:
        raise ValueError(f"state dim {rho.shape[0]} != observables dim {obs.dim}")
    return fit_maxent(obs, obs.expectations(rho))


def product_coarse_grain(rho_ab: np.ndarray,
                         dims: tuple[int, int]) -> np.ndarray:
    """Remove correlations: rho_AB -> rho_A (tensor) rho_B, for one operator
    or a stack (..., d, d) of them."""
    ra = partial_trace(rho_ab, dims, "A")
    rb = partial_trace(rho_ab, dims, "B")
    return (ra[..., :, None, :, None]
            * rb[..., None, :, None, :]).reshape(rho_ab.shape)


@dataclass(frozen=True)
class KGProjector:
    """Kawasaki-Gunton projector data at f; derivs stacks the tangents D_a."""
    observables: ObservableSet
    f: np.ndarray
    mu: np.ndarray
    derivs: np.ndarray

    @property
    def dim(self) -> int:
        return self.observables.dim

    def lift(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The n-copy operators (mu^N, gbar, dbar): gbar[a] is the
        copy-averaged G_a and dbar[a] the one-slot insertion of D_a."""
        mu_n = tensor_power(self.mu, n)     # checks DIM_CAP before d^n work
        gbar = _copy_sum(self.observables.stacked, np.eye(self.dim), n) / n
        return mu_n, gbar, _copy_sum(self.derivs, self.mu, n)


def _copy_sum(ops: np.ndarray, rest: np.ndarray, n: int) -> np.ndarray:
    """sum_k rest x..x ops x..x rest (ops in slot k) for a (m, d, d) stack,
    by out <- out x rest + rest^k x ops."""
    out, power = ops, rest
    for _ in range(n - 1):
        out = np.kron(out, rest)
        out += np.kron(power, ops)
        power = np.kron(power, rest)
    return out


def kg_build(obs: ObservableSet, f) -> KGProjector:
    """Fit the canonical state at f and assemble its tangent operators."""
    cs = fit_maxent(obs, np.atleast_1d(np.asarray(f, dtype=float)))
    return KGProjector(observables=obs, f=cs.f, mu=cs.mu,
                       derivs=state_derivatives(cs))


def _check_operand(kg: KGProjector, op: np.ndarray, n: int, what: str) -> None:
    if op.shape[-1] != kg.dim ** n:
        raise ValueError(f"{what} dim {op.shape[-1]} != {kg.dim}^{n}")
    check_hermitian(op)


def _adjoint(kg: KGProjector, mu_n, dbar, gbar_tau) -> np.ndarray:
    """P_adj(tau) from the copy-averaged expectations gbar_tau of tau."""
    return hermitian_part(mu_n + np.tensordot(gbar_tau - kg.f, dbar, 1))


def _project(kg: KGProjector, mu_n, gbar, dbar, gamma) -> np.ndarray:
    """P Gamma for one observable or a stack (..., D, D) of them; the
    pairings tr(D_a^(N) Gamma) of every element are one matrix product."""
    dim_n, m = gamma.shape[-1], len(kg.f)
    gamma_t = np.swapaxes(gamma, -1, -2).reshape(*gamma.shape[:-2], dim_n ** 2)
    coef = gamma_t @ dbar.reshape(m, dim_n ** 2).T
    scalar = gamma_t @ mu_n.reshape(dim_n ** 2) - coef @ kg.f
    out = (coef @ gbar.reshape(m, dim_n ** 2)).reshape(gamma.shape)
    return hermitian_part(out + scalar[..., None, None] * np.eye(dim_n))


def kg_apply_state(kg: KGProjector, tau: np.ndarray, n: int) -> np.ndarray:
    """Adjoint action on a trace-1 Hermitian tau living on n copies."""
    _check_operand(kg, tau, n, "tau")
    mu_n, gbar, dbar = kg.lift(n)
    return _adjoint(kg, mu_n, dbar, np.einsum("aij,ji->a", gbar, tau).real)


def kg_apply_observable(kg: KGProjector, gamma: np.ndarray,
                        n: int) -> np.ndarray:
    """The projector itself: P Gamma on the n-copy observable space, for one
    observable or a stack (..., D, D) of them."""
    _check_operand(kg, gamma, n, "observable")
    return _project(kg, *kg.lift(n), gamma)


@dataclass(frozen=True)
class PositivityReport:
    n_copies: int
    trials: int
    min_eig: float
    max_eig: float
    violation_fraction: float


def positivity_diagnostic(kg: KGProjector, n: int, trials: int,
                          seed: int) -> PositivityReport:
    """Measure how far P Gamma leaves [0, 1] on random test operators.

    Pure measurement; asserts nothing (positivity preservation has no known
    certificate for this construction).  The trials are drawn, projected and
    eigensolved in chunks of at most _CHUNK_ENTRIES matrix entries (one
    operator per chunk from D = 128 on), so memory does not grow with trials.
    """
    lifted = kg.lift(n)
    dim_n = kg.dim ** n
    chunk = max(1, _CHUNK_ENTRIES // dim_n ** 2)
    lo, hi, violations = np.inf, -np.inf, 0
    for start in range(0, trials, chunk):
        gammas = random_test_operators(seed, dim_n,
                                       range(start, min(start + chunk, trials)))
        w = np.linalg.eigvalsh(_project(kg, *lifted, gammas))
        lo = min(lo, float(w[:, 0].min()))
        hi = max(hi, float(w[:, -1].max()))
        violations += int(np.count_nonzero((w[:, 0] < -1e-9)
                                           | (w[:, -1] > 1 + 1e-9)))
    return PositivityReport(n_copies=n, trials=trials, min_eig=lo, max_eig=hi,
                            violation_fraction=violations / trials)


def gamma_n(kg: KGProjector, rho: np.ndarray, n: int) -> float:
    """sup over tests of |(rho^N | Q Gamma)|, evaluated in closed form.

    With Delta = rho^N - P_adj(rho^N) the supremum equals
    max(tr Delta_+, tr Delta_-), attained by the sign projector of Delta.
    Only mu^N and dbar are lifted: gbar_a(rho^N) = tr(G_a rho) tr(rho)^(N-1).
    """
    _check_operand(kg, rho, 1, "rho")
    mu_n = tensor_power(kg.mu, n)       # checks DIM_CAP before d^n work
    gbar_rho = (kg.observables.expectations(rho)
                * np.trace(rho).real ** (n - 1))
    adj = _adjoint(kg, mu_n, _copy_sum(kg.derivs, kg.mu, n), gbar_rho)
    w = np.linalg.eigvalsh(tensor_power(rho, n) - adj)
    return max(float(np.sum(w[w > 0])), float(-np.sum(w[w < 0])))


def epsilon_choices(gamma: float) -> tuple[float, float]:
    """Thresholds (eps, eps') = ((1-gamma)/2, (1+gamma)/2)."""
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma} "
                         "(extremal-expectation regime)")
    return (1 - gamma) / 2, (1 + gamma) / 2
