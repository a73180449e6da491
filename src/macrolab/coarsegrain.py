"""Coarse-graining maps and the Kawasaki-Gunton super-projector.

State-space coarse grainings (canonical replacement and correlation removal)
are nonlinear; the KG projector is the linear object on observables whose
pairing with rho^(tensor N) reproduces pairing with mu_f^(tensor N).  The
construction used here is first order around the canonical state:

    P_adj(tau) = mu^N + sum_a D_a^(N) (gbar_a(tau) - f_a)

with gbar_a the copy-averaged expectation values and D_a^(N) = d/ds
(mu + s D_a)^(tensor N) at s = 0, D_a = dmu/df_a.  A KGProjector acts on N
copies: KGProjector.lift(n) returns the projector on n copies, with mu^N and
the D_a^(N) built once by one copy-sum recurrence of broadcast Kronecker
products and gbar built on first use, and every entry point reads N from the
projector it is given.  The observable side works on stacks (..., D, D).
P Gamma = s 1 + sum_a c_a gbar_a with c_a = tr(D_a^(N) Gamma), and gbar_a is
a copy average, so the spectrum of P Gamma is s plus the N-copy means of the
spectrum of the d x d operator X = sum_a c_a G_a; positivity_diagnostic reads
its extremes there, one chunk of test operators at a time, and never
eigensolves on d^N.  kg_build_stack fits many targets on one observable set by
one fit_stack call, and kg_build is its one-target case; both return
projectors on one copy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .maxent import (CanonicalState, ObservableSet, fit_maxent, fit_stack,
                     state_derivatives)
from .operators import (check_hermitian, hermitian_part, kron, partial_trace,
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
    return kron(partial_trace(rho_ab, dims, "A"),
                partial_trace(rho_ab, dims, "B"))


@dataclass(frozen=True)
class KGProjector:
    """Kawasaki-Gunton projector at f on n copies: derivs stacks the one-copy
    tangents D_a, mu_n is mu^N and dbar[a] the one-slot insertion D_a^(N)."""
    observables: ObservableSet
    f: np.ndarray
    mu: np.ndarray
    derivs: np.ndarray
    n: int
    mu_n: np.ndarray
    dbar: np.ndarray

    @property
    def dim(self) -> int:
        return self.observables.dim

    @cached_property
    def gbar(self) -> np.ndarray:
        """gbar[a], the copy-averaged G_a on n copies."""
        return _copy_sum(self.observables.stacked, np.eye(self.dim),
                         self.n) / self.n

    def lift(self, n: int) -> KGProjector:
        """The projector on n copies, from the one-copy data."""
        mu_n = tensor_power(self.mu, n)     # checks DIM_CAP before d^n work
        return replace(self, n=n, mu_n=mu_n,
                       dbar=_copy_sum(self.derivs, self.mu, n))


def _copy_sum(ops: np.ndarray, rest: np.ndarray, n: int) -> np.ndarray:
    """sum_k rest x..x ops x..x rest (ops in slot k) for a (m, d, d) stack,
    by out <- out x rest + rest^k x ops."""
    out, power = ops, rest
    for _ in range(n - 1):
        out = kron(out, rest)
        out += kron(power, ops)
        power = kron(power, rest)
    return out


def kg_build_stack(obs: ObservableSet, targets) -> list[KGProjector]:
    """kg_build at every row of targets (B, m), fitted by one fit_stack call;
    element i equals kg_build(obs, targets[i]) bit for bit.  Elements are
    assembled in order and the first failure raises, so a stack raises what
    the solo builds would in turn."""
    targets = np.asarray(targets, dtype=float)
    members = np.broadcast_to(obs.stacked, (len(targets),) + obs.stacked.shape)
    fits = fit_stack(members, targets)
    kgs = []
    for i in range(len(targets)):
        cs = fits.state(i, obs)
        derivs = state_derivatives(cs)
        kgs.append(KGProjector(observables=obs, f=cs.f, mu=cs.mu,
                               derivs=derivs, n=1, mu_n=cs.mu, dbar=derivs))
    return kgs


def kg_build(obs: ObservableSet, f) -> KGProjector:
    """Fit the canonical state at f and assemble its tangent operators, as
    the projector on one copy; the one-target case of kg_build_stack."""
    return kg_build_stack(obs, [np.atleast_1d(f)])[0]


def _check_operand(kg: KGProjector, op: np.ndarray, what: str) -> None:
    if op.shape[-1] != len(kg.mu_n):
        raise ValueError(f"{what} dim {op.shape[-1]} != {kg.dim}^{kg.n}")
    check_hermitian(op)


def _adjoint(kg: KGProjector, gbar_tau) -> np.ndarray:
    """P_adj(tau) from the copy-averaged expectations gbar_tau of tau."""
    return hermitian_part(kg.mu_n + np.tensordot(gbar_tau - kg.f, kg.dbar, 1))


def _pairings(kg: KGProjector, gamma):
    """(c, s), complex as computed, with P Gamma = s 1 + sum_a c_a gbar_a:
    c_a = tr(D_a^(N) Gamma), s = tr(mu^N Gamma) - c . f, for one observable
    or a stack (..., D, D) of them, each pairing one matrix product."""
    dim_n, m = gamma.shape[-1], len(kg.f)
    gamma_t = np.swapaxes(gamma, -1, -2).reshape(*gamma.shape[:-2], dim_n ** 2)
    coef = gamma_t @ kg.dbar.reshape(m, dim_n ** 2).T
    return coef, gamma_t @ kg.mu_n.reshape(dim_n ** 2) - coef @ kg.f


def kg_apply_state(kg: KGProjector, tau: np.ndarray) -> np.ndarray:
    """Adjoint action on a trace-1 Hermitian tau living on kg's n copies."""
    _check_operand(kg, tau, "tau")
    return _adjoint(kg, np.einsum("aij,ji->a", kg.gbar, tau).real)


def kg_apply_observable(kg: KGProjector, gamma: np.ndarray) -> np.ndarray:
    """The projector itself: P Gamma on kg's n-copy observable space, for one
    observable or a stack (..., D, D) of them."""
    _check_operand(kg, gamma, "observable")
    dim_n, m = gamma.shape[-1], len(kg.f)
    coef, scalar = _pairings(kg, gamma)
    out = (coef @ kg.gbar.reshape(m, dim_n ** 2)).reshape(gamma.shape)
    return hermitian_part(out + scalar[..., None, None] * np.eye(dim_n))


@dataclass(frozen=True)
class PositivityReport:
    n_copies: int
    trials: int
    min_eig: float
    max_eig: float
    violation_fraction: float


def positivity_diagnostic(kgs: Sequence[KGProjector], trials: int,
                          seed: int) -> list[PositivityReport]:
    """Measure how far each P Gamma leaves [0, 1] on random test operators;
    one report per projector of kgs, all acting on the same d^n.

    Pure measurement; asserts nothing (positivity preservation has no known
    certificate for this construction), and a sample can miss the worst
    case.  Each trial's extreme eigenvalues are s plus those of the d x d
    X = sum_a c_a G_a (module docstring): one batched d x d eigensolve per
    chunk and projector, none on d^n.  The draws depend only on (seed, d^n,
    trials), so each chunk of test operators is drawn once and paired with
    every projector in turn; report i equals that of a call on [kgs[i]]
    alone.  A chunk holds at most _CHUNK_ENTRIES matrix entries (one
    operator from D = 128 on), so beyond the projectors memory grows neither
    with trials nor with len(kgs); gbar is never built.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not kgs:
        raise ValueError("positivity_diagnostic needs at least one projector")
    if len({len(kg.mu_n) for kg in kgs}) > 1:
        raise ValueError("projectors act on different dims "
                         f"{[len(kg.mu_n) for kg in kgs]}")
    dim_n, k = len(kgs[0].mu_n), len(kgs)
    chunk = max(1, _CHUNK_ENTRIES // dim_n ** 2)
    lo, hi, violations = np.full(k, np.inf), np.full(k, -np.inf), np.zeros(k)
    for start in range(0, trials, chunk):
        gammas = random_test_operators(seed, dim_n,
                                       range(start, min(start + chunk, trials)))
        for i, kg in enumerate(kgs):
            coef, scalar = _pairings(kg, gammas)
            w = np.linalg.eigvalsh(
                np.tensordot(coef.real, kg.observables.stacked, 1))
            bottom, top = scalar.real + w[:, 0], scalar.real + w[:, -1]
            lo[i] = min(lo[i], bottom.min())
            hi[i] = max(hi[i], top.max())
            violations[i] += np.count_nonzero((bottom < -1e-9)
                                              | (top > 1 + 1e-9))
    return [PositivityReport(n_copies=kgs[0].n, trials=trials,
                             min_eig=float(lo[i]), max_eig=float(hi[i]),
                             violation_fraction=int(violations[i]) / trials)
            for i in range(k)]


def gamma_n(kg: KGProjector, rho: np.ndarray) -> float:
    """sup over tests of |(rho^N | Q Gamma)|, evaluated in closed form, for a
    one-copy rho and N = kg.n.

    With Delta = rho^N - P_adj(rho^N) the supremum equals
    max(tr Delta_+, tr Delta_-), attained by the sign projector of Delta.
    gbar is never built: gbar_a(rho^N) = tr(G_a rho) tr(rho)^(N-1).
    """
    if rho.shape[-1] != kg.dim:
        raise ValueError(f"rho dim {rho.shape[-1]} != {kg.dim}^1")
    check_hermitian(rho)
    gbar_rho = (kg.observables.expectations(rho)
                * np.trace(rho).real ** (kg.n - 1))
    adj = _adjoint(kg, gbar_rho)
    w = np.linalg.eigvalsh(tensor_power(rho, kg.n) - adj)
    return max(float(np.sum(w[w > 0])), float(-np.sum(w[w < 0])))


def epsilon_choices(gamma: float) -> tuple[float, float]:
    """Thresholds (eps, eps') = ((1-gamma)/2, (1+gamma)/2)."""
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must lie in [0, 1), got {gamma} "
                         "(extremal-expectation regime)")
    return (1 - gamma) / 2, (1 + gamma) / 2
