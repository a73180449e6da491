"""Coarse-graining maps and the Kawasaki-Gunton super-projector.

State-space coarse grainings (canonical replacement and correlation removal)
are nonlinear; the KG projector is the linear object on observables whose
pairing with rho^(tensor N) reproduces pairing with mu_f^(tensor N).  The
construction used here is first order around the canonical state:

    P_adj(tau) = mu^N + sum_a D_a^(N) (gbar_a(tau) - f_a)

with gbar_a the copy-averaged expectation values and D_a^(N) = d/ds
(mu + s D_a)^(tensor N) at s = 0, D_a = dmu/df_a; KGProjector.lift builds both
once per call by one copy-sum recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maxent import CanonicalState, ObservableSet, fit_maxent, state_derivatives
from .operators import (check_hermitian, hermitian_part, partial_trace,
                        random_test_operator, tensor_power)


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
    if op.shape[0] != kg.dim ** n:
        raise ValueError(f"{what} dim {op.shape[0]} != {kg.dim}^{n}")
    check_hermitian(op)


def _adjoint(kg: KGProjector, mu_n, gbar, dbar, tau) -> np.ndarray:
    gbar_tau = np.einsum("aij,ji->a", gbar, tau).real
    return hermitian_part(mu_n + np.tensordot(gbar_tau - kg.f, dbar, 1))


def _project(kg: KGProjector, mu_n, gbar, dbar, gamma) -> np.ndarray:
    coef = np.einsum("aij,ji->a", dbar, gamma)
    scalar = np.einsum("ij,ji", mu_n, gamma) - coef @ kg.f
    return hermitian_part(np.tensordot(coef, gbar, 1)
                          + scalar * np.eye(len(gamma)))


def kg_apply_state(kg: KGProjector, tau: np.ndarray, n: int) -> np.ndarray:
    """Adjoint action on a trace-1 Hermitian tau living on n copies."""
    _check_operand(kg, tau, n, "tau")
    return _adjoint(kg, *kg.lift(n), tau)


def kg_apply_observable(kg: KGProjector, gamma: np.ndarray,
                        n: int) -> np.ndarray:
    """The projector itself: P Gamma on the n-copy observable space."""
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
    certificate for this construction).  One test operator is held at a time.
    """
    lifted = kg.lift(n)
    lo, hi, violations = np.inf, -np.inf, 0
    for i in range(trials):
        gamma = random_test_operator(seed, kg.dim ** n, index=i)
        w = np.linalg.eigvalsh(_project(kg, *lifted, gamma))
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
    _check_operand(kg, rho, 1, "rho")
    rho_n = tensor_power(rho, n)
    w = np.linalg.eigvalsh(rho_n - _adjoint(kg, *kg.lift(n), rho_n))
    return max(float(np.sum(w[w > 0])), float(-np.sum(w[w < 0])))


def epsilon_choices(gamma: float) -> tuple[float, float]:
    """Thresholds (eps, eps') = ((1-gamma)/2, (1+gamma)/2)."""
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma} "
                         "(extremal-expectation regime)")
    return (1 - gamma) / 2, (1 + gamma) / 2
