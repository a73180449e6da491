"""Generalized canonical states mu ~ exp(sum_a lambda^a G_a).

Forward map lambda -> (mu, f, logZ), Kubo covariance C = df/dlambda, inverse
fit f_target -> lambda by damped Newton on the strictly convex dual
logZ(lambda) - lambda . f_target, and the tangent operators dmu/df_a used by
the coarse-graining projector.

The forward map, the covariance and the Newton fit work on stacks: members
(B, m, d, d), lambda and targets (B, m).  Each element goes through the
arithmetic it would go through alone, so its result does not depend on what
else is in the stack or where.  fit_stack runs one Newton loop over the
stack and reports each element's outcome: a fitted state, or the
InfeasibleTargetError that fit_maxent raises for that target alone.
canonical_from_lambda, covariance and fit_maxent are the one-state case
of the same code.

The forward map is the only place the exponent A = sum_a lambda^a G_a is
eigensolved.  The state carries the eigenpairs (w, v) of A, and everything
downstream reads them: the covariance and the tangents share one table of
Kubo weights K_ij = (e^w_i - e^w_j) / ((w_i - w_j) Z) with the observables
rotated once into A's eigenbasis, so neither solves A again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operators import (check_hermitian, dagger, eig, exp_divided_differences,
                        hermitian_part)

GRAM_COND_MAX = 1e8
FIT_TOL = 1e-10
FIT_MAX_ITER = 200
LAMBDA_DIVERGENCE = 1e3
COV_REGULARIZATION = 1e-12
COV_COND_MAX = 1e10


class InfeasibleTargetError(ValueError):
    """Target expectation values lie outside (or on the boundary of) the
    achievable set; the Newton iteration diverged or stalled."""


@dataclass(frozen=True)
class ObservableSet:
    """A level of description: the relevant observables {G_a} on one space.

    Members are kept exactly as given; construction only verifies that they
    are Hermitian, share the dimension, and are linearly independent of the
    identity and of each other (Gram condition number below 1e8).
    """
    dim: int
    members: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for g in self.members:
            check_hermitian(g)
            if g.shape[0] != self.dim:
                raise ValueError(f"observable dim {g.shape[0]} != {self.dim}")
        ops = [np.eye(self.dim, dtype=complex)] + list(self.members)
        # tr(a^dag b) = sum_ij conj(a_ij) b_ij, in O(d^2)
        gram = np.array([[np.vdot(a, b).real for b in ops] for a in ops])
        cond = np.linalg.cond(gram)
        if cond > GRAM_COND_MAX:
            raise ValueError(
                f"observables nearly dependent: Gram condition {cond:.3e}")

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def stacked(self) -> np.ndarray:
        """The members as one (m, d, d) array."""
        return np.array(self.members, dtype=complex).reshape(
            self.size, self.dim, self.dim)

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        return expectations(self.stacked, rho)


@dataclass(frozen=True)
class CanonicalState:
    """A fitted MaxEnt state: mu = exp(sum lambda^a G_a - logZ).

    spectrum holds the eigenpairs (w, v) of the exponent A, w ascending.
    """
    observables: ObservableSet
    lam: np.ndarray
    f: np.ndarray
    mu: np.ndarray
    logZ: float
    spectrum: tuple[np.ndarray, np.ndarray]
    fit_residual: float = 0.0
    near_extremal: bool = False


def _exponent(g: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """A = sum_a lambda^a G_a over stacks g (..., m, d, d), lam (..., m)."""
    a = np.zeros(g.shape[:-3] + g.shape[-2:], dtype=complex)
    for k in range(g.shape[-3]):
        a = a + lam[..., k, None, None] * g[..., k, :, :]
    return a


def expectations(g: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(G_a rho) = sum_ij (G_a)_ij rho_ji, in O(d^2), over stacks of
    members g (..., m, d, d) and states rho (..., d, d)."""
    rho_t = np.swapaxes(rho, -1, -2)[..., None, :, :]
    return (g * rho_t).sum(axis=(-2, -1)).real


def _forward(g: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """(w, v, mu, f, logZ) at lambda over stacks, from one eigensolve of A
    shifted by its top eigenvalue."""
    w, v = eig(_exponent(g, lam))
    shift = w[..., -1]
    ew = np.exp(w - shift[..., None])
    z = ew.sum(axis=-1)
    mu = hermitian_part((v * (ew / z[..., None])[..., None, :]) @ dagger(v))
    return w, v, mu, expectations(g, mu), shift + np.log(z)


def canonical_from_lambda(obs: ObservableSet, lam) -> CanonicalState:
    """Forward map: Lagrange parameters to the canonical state."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (obs.size,):
        raise ValueError(f"lambda length {lam.shape} != {obs.size}")
    w, v, mu, f, logz = _forward(obs.stacked[None], lam[None])
    return CanonicalState(observables=obs, lam=lam, f=f[0], mu=mu[0],
                          logZ=float(logz[0]), spectrum=(w[0], v[0]))


def _kubo_table(g: np.ndarray, w: np.ndarray, v: np.ndarray,
                logz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kubo weights K and the rotated observables G~_a = v^dagger G_a v over
    stacks, so that dmu/dlambda^a = v (K o G~_a) v^dagger - mu f_a.  K is
    formed at w - w_max, so no exponential overflows."""
    top = w[..., -1]
    k = (exp_divided_differences(w - top[..., None])
         / np.exp(logz - top)[..., None, None])
    v = v[..., None, :, :]
    return k, dagger(v) @ g @ v


def _covariance(k: np.ndarray, gt: np.ndarray, f: np.ndarray) -> np.ndarray:
    """C_ab = tr(G_a dmu/dlambda^b) from the Kubo table, over stacks."""
    c = (np.einsum("...ij,...aji,...bij->...ab", k, gt, gt).real
         - f[..., :, None] * f[..., None, :])
    return (c + np.swapaxes(c, -1, -2)) / 2


def covariance(cs: CanonicalState) -> np.ndarray:
    """Kubo covariance C_ab = df_a/dlambda^b, symmetric positive definite."""
    k, gt = _kubo_table(cs.observables.stacked, *cs.spectrum, cs.logZ)
    return _covariance(k, gt, cs.f)


@dataclass(frozen=True)
class FitStack:
    """Outcome of fit_stack; element i is the fit of targets[i] alone.

    The arrays run over the stack (w, v: eigenpairs of the exponent).  For
    an element that failed they hold its last iterate, and errors[i] is the
    InfeasibleTargetError fit_maxent raises for it; None where it converged.
    """
    lam: np.ndarray
    f: np.ndarray
    mu: np.ndarray
    logZ: np.ndarray
    w: np.ndarray
    v: np.ndarray
    residual: np.ndarray
    errors: tuple[InfeasibleTargetError | None, ...]

    @property
    def ok(self) -> np.ndarray:
        """True where the fit converged."""
        return np.array([e is None for e in self.errors], dtype=bool)

    def state(self, i: int, obs: ObservableSet) -> CanonicalState:
        """Element i as a CanonicalState on obs; raises its error if the
        fit failed.  Boundary targets converge with huge parameters and a
        nearly singular state; they are flagged near-extremal."""
        if self.errors[i] is not None:
            raise self.errors[i]
        lam, w = self.lam[i], self.w[i]
        extremal = bool(np.max(np.abs(lam), initial=0.0) > 20
                        or np.exp(w[0] - self.logZ[i]) < 1e-9)
        return CanonicalState(observables=obs, lam=lam, f=self.f[i],
                              mu=self.mu[i], logZ=float(self.logZ[i]),
                              spectrum=(w, self.v[i]),
                              fit_residual=float(self.residual[i]),
                              near_extremal=extremal)


def _newton_step(g: np.ndarray, state: list[np.ndarray],
                 ft: np.ndarray) -> np.ndarray:
    """Newton steps C^-1 (target - f) at the states (w, v, mu, f, logZ)."""
    w, v, _, f, logz = state
    c = _covariance(*_kubo_table(g, w, v, logz), f)
    c += COV_REGULARIZATION * np.eye(ft.shape[1])
    return np.linalg.solve(c, (ft - f)[..., None])[..., 0]


def _line_search(g, ft, lam, dual, state, live, step) -> np.ndarray:
    """Backtracking for the elements live: halve each element's step until
    its dual decreases, at most 60 times.  Accepted elements are updated in
    lam, dual and state in place; returns the positions in live that never
    decreased."""
    t = np.ones(live.size)
    todo = np.arange(live.size)
    for _ in range(60):
        idx = live[todo]
        lam_new = lam[idx] + t[todo, None] * step[todo]
        new = _forward(g[idx], lam_new)
        dual_new = new[4] - np.sum(lam_new * ft[idx], axis=-1)
        # non-strict within rounding: near the optimum the true decrease is
        # quadratic in the residual and falls below float resolution
        ok = np.flatnonzero(
            dual_new <= dual[idx] + 1e-14 * (1 + np.abs(dual[idx])))
        done = idx[ok]
        lam[done], dual[done] = lam_new[ok], dual_new[ok]
        for arr, val in zip(state, new):
            arr[done] = val[ok]
        todo = np.delete(todo, ok)
        if not todo.size:
            break
        t[todo] /= 2
    return todo


def fit_stack(members, targets) -> FitStack:
    """Invert f(lambda) = targets[i] on members[i] for every i, by one damped
    Newton loop over the stack (members (B, m, d, d), targets (B, m)).

    Per element: stop when the residual max|f - target| <= FIT_TOL; halve the
    step until the dual decreases, and count 60 halvings without a decrease
    as a stall; |lambda| > LAMBDA_DIVERGENCE after a step is divergence;
    after FIT_MAX_ITER steps the residual decides between converged and
    stalled.  An element leaves the loop as soon as its outcome is known.
    """
    g = np.asarray(members, dtype=complex)
    ft = np.asarray(targets, dtype=float)
    if g.ndim != 4 or ft.shape != g.shape[:2]:
        raise ValueError(f"members {g.shape} and targets {ft.shape} do not "
                         "form stacks (B, m, d, d) and (B, m)")
    if not np.all(np.isfinite(ft)):
        raise ValueError("target expectation values must be finite")
    lam = np.zeros(ft.shape)
    state = _forward(g, lam)                      # w, v, mu, f, logZ
    dual = state[4] - np.sum(lam * ft, axis=-1)
    resid = np.zeros(len(ft))
    errors: list[InfeasibleTargetError | None] = [None] * len(ft)

    def residual(idx):
        return np.max(np.abs(state[3][idx] - ft[idx]), axis=-1, initial=0.0)

    def fail(i, stalled):
        target = ft[i].tolist()
        errors[i] = InfeasibleTargetError(
            (f"Newton fit stalled at residual {resid[i]:.3e} after "
             f"{FIT_MAX_ITER} iterations; target {target} appears infeasible "
             "or near-extremal" if stalled else
             f"Lagrange parameters diverged (|lambda| > "
             f"{LAMBDA_DIVERGENCE:g}); target {target} appears infeasible")
            + _extremal_note(g[i], ft[i]))

    live = np.arange(len(ft))
    for _ in range(FIT_MAX_ITER):
        resid[live] = residual(live)
        live = live[resid[live] > FIT_TOL]
        if not live.size:
            break
        step = _newton_step(g[live], [a[live] for a in state], ft[live])
        todo = _line_search(g, ft, lam, dual, state, live, step)
        for i in live[todo]:
            fail(i, stalled=True)
        live = np.delete(live, todo)
        diverged = np.max(np.abs(lam[live]), axis=-1) > LAMBDA_DIVERGENCE
        for i in live[diverged]:
            fail(i, stalled=False)
        live = live[~diverged]
    resid[live] = residual(live)
    for i in live[resid[live] > FIT_TOL]:
        fail(i, stalled=True)
    w, v, mu, f, logz = state
    return FitStack(lam=lam, f=f, mu=mu, logZ=logz, w=w, v=v, residual=resid,
                    errors=tuple(errors))


def fit_maxent(obs: ObservableSet, f_target) -> CanonicalState:
    """Invert f(lambda) = f_target by damped Newton on the convex dual; the
    B = 1 case of fit_stack.

    The dual is logZ(lambda) - lambda . f_target; its gradient is
    f(lambda) - f_target, so the gradient norm doubles as the fit residual.
    """
    f_target = np.atleast_1d(np.asarray(f_target, dtype=float))
    if f_target.shape != (obs.size,):
        raise ValueError(f"target length {f_target.shape} != {obs.size}")
    return fit_stack(obs.stacked[None], f_target[None]).state(0, obs)


def _extremal_note(g: np.ndarray, f_target: np.ndarray) -> str:
    notes = []
    for a, w in enumerate(np.linalg.eigvalsh(g)):
        lo, hi = float(w[0]), float(w[-1])
        if f_target[a] < lo + 1e-9 or f_target[a] > hi - 1e-9:
            notes.append(f"target[{a}]={f_target[a]:g} is outside or on the "
                         f"boundary of spectrum [{lo:g}, {hi:g}]")
    return (" (" + "; ".join(notes) + ")") if notes else ""


def state_derivatives(cs: CanonicalState) -> np.ndarray:
    """Tangent operators D_a = dmu/df_a as one (m, d, d) stack, via the chain
    rule through lambda.

    Each D_a is Hermitian, traceless, and dual to the observables:
    tr(G_c D_a) = delta_ca.
    """
    obs = cs.observables
    if obs.size == 0:
        return np.zeros((0, obs.dim, obs.dim), dtype=complex)
    k, gt = _kubo_table(obs.stacked, *cs.spectrum, cs.logZ)
    c = _covariance(k, gt, cs.f)
    cond = np.linalg.cond(c)
    if cond > COV_COND_MAX:
        raise ValueError(f"covariance ill-conditioned (cond {cond:.3e}); "
                         "state too close to extremal")
    cinv = np.linalg.inv(c)
    _, v = cs.spectrum
    mixed = np.einsum("ab,bij->aij", cinv, gt)
    return hermitian_part(v @ (k * mixed) @ v.conj().T
                          - cs.mu * (cinv @ cs.f)[:, None, None])
