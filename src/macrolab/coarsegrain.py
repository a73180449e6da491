"""Coarse-graining maps and the Kawasaki-Gunton super-projector.

State-space coarse grainings (canonical replacement and correlation removal)
are nonlinear; the KG projector is the linear object on observables whose
pairing with rho^(tensor N) reproduces pairing with mu_f^(tensor N).  The
construction used here is first order around the canonical state:

    P_adj(tau) = mu^N + sum_a D_a^(N) (gbar_a(tau) - f_a)

with D_a^(N) the one-slot insertions of dmu/df_a and gbar_a the copy-averaged
expectation values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxent import CanonicalState, ObservableSet, fit_maxent, state_derivatives
from .operators import (embed_at_slot, hermitian_part, partial_trace,
                        pos_neg_parts, random_test_operator, tensor_power)


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
    """Kawasaki-Gunton projector data at fixed expectation values f."""
    observables: ObservableSet
    f: np.ndarray
    mu: np.ndarray
    derivs: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.observables.dim

    def lifted_observable(self, a: int, n: int) -> np.ndarray:
        """Copy-averaged observable (1/N) sum_k 1 x..x G_a x..x 1."""
        g = self.observables.members[a]
        eye = np.eye(self.dim, dtype=complex)
        out = sum(embed_at_slot([g if j == k else eye for j in range(n)])
                  for k in range(n))
        return out / n

    def lifted_deriv(self, a: int, n: int) -> np.ndarray:
        """One-slot insertion sum_k mu x..x D_a x..x mu."""
        d = self.derivs[a]
        return sum(embed_at_slot([d if j == k else self.mu for j in range(n)])
                   for k in range(n))


def kg_build(obs: ObservableSet, f) -> KGProjector:
    """Fit the canonical state at f and assemble its tangent operators."""
    cs = fit_maxent(obs, np.atleast_1d(np.asarray(f, dtype=float)))
    return KGProjector(observables=obs, f=cs.f, mu=cs.mu,
                       derivs=tuple(state_derivatives(cs)))


def kg_apply_state(kg: KGProjector, tau: np.ndarray, n: int) -> np.ndarray:
    """Adjoint action on a trace-1 Hermitian tau living on n copies."""
    if tau.shape[0] != kg.dim ** n:
        raise ValueError(f"tau dim {tau.shape[0]} != {kg.dim}^{n}")
    out = tensor_power(kg.mu, n).astype(complex)
    for a in range(kg.observables.size):
        gbar = float(np.trace(kg.lifted_observable(a, n) @ tau).real)
        out = out + kg.lifted_deriv(a, n) * (gbar - kg.f[a])
    return hermitian_part(out)


def kg_apply_observable(kg: KGProjector, gamma: np.ndarray,
                        n: int) -> np.ndarray:
    """The projector itself: P Gamma on the n-copy observable space."""
    if gamma.shape[0] != kg.dim ** n:
        raise ValueError(f"observable dim {gamma.shape[0]} != {kg.dim}^{n}")
    dim_n = kg.dim ** n
    eye = np.eye(dim_n, dtype=complex)
    mu_n = tensor_power(kg.mu, n)
    out = np.trace(mu_n @ gamma) * eye
    for a in range(kg.observables.size):
        coef = np.trace(kg.lifted_deriv(a, n) @ gamma)
        out = out + coef * (kg.lifted_observable(a, n) - kg.f[a] * eye)
    return hermitian_part(out)


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
    certificate for this construction).
    """
    dim_n = kg.dim ** n
    lo, hi, violations = np.inf, -np.inf, 0
    for i in range(trials):
        gamma = random_test_operator(seed, dim_n, index=i)
        w = np.linalg.eigvalsh(kg_apply_observable(kg, gamma, n))
        lo = min(lo, float(w[0]))
        hi = max(hi, float(w[-1]))
        if w[0] < -1e-9 or w[-1] > 1 + 1e-9:
            violations += 1
    return PositivityReport(n_copies=n, trials=trials, min_eig=lo, max_eig=hi,
                            violation_fraction=violations / trials)


def gamma_n(kg: KGProjector, rho: np.ndarray, n: int) -> float:
    """sup over tests of |(rho^N | Q Gamma)|, evaluated in closed form.

    With Delta = rho^N - P_adj(rho^N) the supremum equals
    max(tr Delta_+, tr Delta_-), attained by the sign projector of Delta.
    """
    rho_n = tensor_power(rho, n)
    delta = rho_n - kg_apply_state(kg, rho_n, n)
    pos, neg = pos_neg_parts(delta)
    return max(float(np.trace(pos).real), float(np.trace(neg).real))


def epsilon_choices(gamma: float) -> tuple[float, float]:
    """Thresholds (eps, eps') = ((1-gamma)/2, (1+gamma)/2)."""
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma} "
                         "(extremal-expectation regime)")
    return (1 - gamma) / 2, (1 + gamma) / 2
