"""Generalized canonical states mu ~ exp(sum_a lambda^a G_a).

Forward map lambda -> (mu, f, logZ), Kubo covariance C = df/dlambda, inverse
fit f_target -> lambda by damped Newton on the strictly convex dual
logZ(lambda) - lambda . f_target, and the tangent operators dmu/df_a used by
the coarse-graining projector.

The forward map is the only place the exponent A = sum_a lambda^a G_a is
eigensolved.  The state carries the eigenpairs (w, v) of A, and everything
downstream reads them: the covariance and the tangents share one table of
Kubo weights K_ij = (e^w_i - e^w_j) / ((w_i - w_j) Z) with the observables
rotated once into A's eigenbasis, so neither solves A again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operators import (check_hermitian, eig, exp_divided_differences,
                        hermitian_part, operator_to_json, operator_from_json)

GRAM_COND_MAX = 1e8
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

    def expectations(self, rho: np.ndarray) -> np.ndarray:
        # tr(g rho) = sum_ij g_ij rho_ji, in O(d^2)
        return np.array([(g * rho.T).sum().real for g in self.members])

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "members": [operator_to_json(g) for g in self.members]}

    @classmethod
    def from_json(cls, doc: dict) -> "ObservableSet":
        return cls(dim=int(doc["dim"]),
                   members=tuple(operator_from_json(g) for g in doc["members"]))


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

    @property
    def exponent(self) -> np.ndarray:
        """A = sum_a lambda^a G_a."""
        return _exponent(self.observables, self.lam)

    def to_json(self) -> dict:
        return {"observables": self.observables.to_json(),
                "lambda": self.lam.tolist(),
                "f": self.f.tolist(),
                "mu": operator_to_json(self.mu),
                "logZ": float(self.logZ)}

    @classmethod
    def from_json(cls, doc: dict) -> "CanonicalState":
        return canonical_from_lambda(
            ObservableSet.from_json(doc["observables"]), doc["lambda"])


def _exponent(obs: ObservableSet, lam: np.ndarray) -> np.ndarray:
    a = np.zeros((obs.dim, obs.dim), dtype=complex)
    for lam_a, g in zip(lam, obs.members):
        a = a + lam_a * g
    return a


def canonical_from_lambda(obs: ObservableSet, lam) -> CanonicalState:
    """Forward map: Lagrange parameters to the canonical state, from one
    eigensolve of A shifted by its top eigenvalue."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (obs.size,):
        raise ValueError(f"lambda length {lam.shape} != {obs.size}")
    w, v = eig(_exponent(obs, lam))
    shift = float(w[-1])
    ew = np.exp(w - shift)
    z = float(np.sum(ew))
    mu = hermitian_part((v * (ew / z)) @ v.conj().T)
    return CanonicalState(observables=obs, lam=lam, f=obs.expectations(mu),
                          mu=mu, logZ=shift + float(np.log(z)),
                          spectrum=(w, v))


def _kubo_table(cs: CanonicalState) -> tuple[np.ndarray, np.ndarray]:
    """Kubo weights K and the rotated observables G~_a = v^dagger G_a v, so
    that dmu/dlambda^a = v (K o G~_a) v^dagger - mu f_a.  K is formed at
    w - w_max, so no exponential overflows."""
    w, v = cs.spectrum
    k = exp_divided_differences(w - w[-1]) / np.exp(cs.logZ - w[-1])
    g = np.reshape(cs.observables.members, (-1, *v.shape))
    return k, v.conj().T @ g @ v


def covariance(cs: CanonicalState) -> np.ndarray:
    """Kubo covariance C_ab = df_a/dlambda^b, symmetric positive definite."""
    k, gt = _kubo_table(cs)
    c = np.einsum("ij,aji,bij->ab", k, gt, gt).real - np.outer(cs.f, cs.f)
    return (c + c.T) / 2


def fit_maxent(obs: ObservableSet, f_target, tol: float = 1e-10,
               max_iter: int = 200) -> CanonicalState:
    """Invert f(lambda) = f_target by damped Newton on the convex dual.

    The dual is logZ(lambda) - lambda . f_target; its gradient is
    f(lambda) - f_target, so the gradient norm doubles as the fit residual.
    """
    f_target = np.atleast_1d(np.asarray(f_target, dtype=float))
    if f_target.shape != (obs.size,):
        raise ValueError(f"target length {f_target.shape} != {obs.size}")
    if not np.all(np.isfinite(f_target)):
        raise ValueError("target expectation values must be finite")

    def finish(cs, resid):
        # boundary targets converge with huge parameters and a nearly
        # singular state; flag them as near-extremal
        extremal = bool(np.max(np.abs(cs.lam), initial=0.0) > 20
                        or np.exp(cs.spectrum[0][0] - cs.logZ) < 1e-9)
        return replace(cs, fit_residual=resid, near_extremal=extremal)

    lam = np.zeros(obs.size)
    cs = canonical_from_lambda(obs, lam)
    dual = cs.logZ - lam @ f_target
    for _ in range(max_iter):
        resid = float(np.max(np.abs(cs.f - f_target))) if obs.size else 0.0
        if resid <= tol:
            return finish(cs, resid)
        c = covariance(cs) + COV_REGULARIZATION * np.eye(obs.size)
        step = np.linalg.solve(c, f_target - cs.f)
        # backtracking: halve until the dual decreases
        t = 1.0
        for _ in range(60):
            lam_new = lam + t * step
            cs_new = canonical_from_lambda(obs, lam_new)
            dual_new = cs_new.logZ - lam_new @ f_target
            # non-strict within rounding: near the optimum the true decrease
            # is quadratic in the residual and falls below float resolution
            if dual_new <= dual + 1e-14 * (1 + abs(dual)):
                break
            t /= 2
        else:
            break
        lam, cs, dual = lam_new, cs_new, dual_new
        if np.max(np.abs(lam)) > LAMBDA_DIVERGENCE:
            raise InfeasibleTargetError(
                f"Lagrange parameters diverged (|lambda| > {LAMBDA_DIVERGENCE:g}); "
                f"target {f_target.tolist()} appears infeasible"
                + _extremal_note(obs, f_target))
    resid = float(np.max(np.abs(cs.f - f_target))) if obs.size else 0.0
    if resid <= tol:
        return finish(cs, resid)
    raise InfeasibleTargetError(
        f"Newton fit stalled at residual {resid:.3e} after {max_iter} "
        f"iterations; target {f_target.tolist()} appears infeasible or "
        "near-extremal" + _extremal_note(obs, f_target))


def _extremal_note(obs: ObservableSet, f_target: np.ndarray) -> str:
    notes = []
    for a, g in enumerate(obs.members):
        w = np.linalg.eigvalsh(g)
        lo, hi = float(w[0]), float(w[-1])
        if f_target[a] < lo + 1e-9 or f_target[a] > hi - 1e-9:
            notes.append(f"target[{a}]={f_target[a]:g} is outside or on the "
                         f"boundary of spectrum [{lo:g}, {hi:g}]")
    return (" (" + "; ".join(notes) + ")") if notes else ""


def state_derivatives(cs: CanonicalState) -> list[np.ndarray]:
    """Tangent operators D_a = dmu/df_a, via the chain rule through lambda.

    Each D_a is Hermitian, traceless, and dual to the observables:
    tr(G_c D_a) = delta_ca.
    """
    obs = cs.observables
    if obs.size == 0:
        return []
    c = covariance(cs)
    cond = np.linalg.cond(c)
    if cond > COV_COND_MAX:
        raise ValueError(f"covariance ill-conditioned (cond {cond:.3e}); "
                         "state too close to extremal")
    cinv = np.linalg.inv(c)
    k, gt = _kubo_table(cs)
    _, v = cs.spectrum
    mixed = np.einsum("ab,bij->aij", cinv, gt)
    derivs = (v @ (k * mixed) @ v.conj().T
              - cs.mu * (cinv @ cs.f)[:, None, None])
    return [hermitian_part(d) for d in derivs]
