"""Spans around macrolab's public functions, recorded from outside the package.

A `Tracer` wraps each target function and rebinds the wrapper under every
name that refers to the original in any loaded macrolab module, so calls made
inside the package (fit -> covariance -> frechet_exp -> eig) nest as
parent/child spans.  Spans are kept in memory as flat arrays; `SpanTable`
turns them into per-layer metrics after the run.  `Tracer.installed()`
restores every original binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Wrapped functions, by module; the span name is "<module>.<function>".
TARGETS = {
    "operators": ("eig", "frechet_exp", "check_hermitian", "tensor_power",
                  "embed_at_slot", "random_density", "random_unitary",
                  "random_hermitian", "random_observables",
                  "random_test_operator", "random_kraus"),
    "maxent": ("fit_maxent", "covariance", "canonical_from_lambda",
               "state_derivatives"),
    "entropy": ("relative_entropy",),
    "hypotest": ("np_optimal_test",),
    "coarsegrain": ("canonical_coarse_grain", "product_coarse_grain",
                    "kg_build", "kg_apply_observable", "kg_apply_state",
                    "gamma_n", "positivity_diagnostic"),
    "harness": ("run_experiment",),
}

# Computed cost of one complex Hermitian eigendecomposition with vectors:
# 9 d^3 flops for the real symmetric case, times 4 for complex arithmetic.
EIG_FLOP_PER_D3 = 36
EIG_BUCKETS = (("le4", 0, 4), ("le64", 5, 64), ("le256", 65, 256),
               ("gt256", 257, None))


def _eig_dim(args, kwargs):
    h = args[0] if args else kwargs["h"]
    return int(h.shape[0])


SIZE_OF = {"operators.eig": _eig_dim}


class Tracer:
    """Records one span per call of a wrapped function.

    Span i has a name id, a parent span index (-1 at top level), start and
    end times from `clock`, a size (the matrix dimension for eig, else -1)
    and whether the call raised.  Parents are recorded before their children.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size=None):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.span_name)
            self.span_name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.size.append(size(args, kwargs) if size else -1)
            self.end.append(0.0)
            self.raised.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self.end[i] = clock()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self, package: str = "macrolab", targets=TARGETS):
        """Rebind every target in every loaded module of `package`."""
        modules = package_modules(package)
        saved = []
        try:
            for mod, fnames in targets.items():
                for fname in fnames:
                    name = f"{mod}.{fname}"
                    original = getattr(sys.modules[f"{package}.{mod}"], fname)
                    wrapper = self.wrap(name, original, SIZE_OF.get(name))
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                saved.append((m, attr, original))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, original in reversed(saved):
                setattr(m, attr, original)

    def mark(self) -> int:
        """Index of the next span, to cut the record into passes."""
        return len(self.span_name)

    def table(self, lo: int = 0, hi: int | None = None) -> "SpanTable":
        hi = len(self.span_name) if hi is None else hi

        def ints(a):
            return np.asarray(a[lo:hi], dtype=np.int64)

        parent = ints(self.parent)
        return SpanTable(names=list(self.names), name=ints(self.span_name),
                         parent=np.where(parent >= lo, parent - lo, -1),
                         size=ints(self.size),
                         start=np.asarray(self.start[lo:hi]),
                         end=np.asarray(self.end[lo:hi]),
                         raised=np.asarray(self.raised[lo:hi], dtype=bool))


# Every wrapper runs this one code object.
_WRAPPER_CODE = Tracer().wrap("probe", len).__code__


def in_wrapper(frame) -> bool:
    """Whether `frame` is a wrapper's own bookkeeping.  An exception raised
    there from a signal handler would leave the span arrays out of step."""
    return frame is not None and frame.f_code is _WRAPPER_CODE


def package_modules(package: str) -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package
                                  or key.startswith(package + "."))]


@dataclass
class SpanTable:
    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    size: np.ndarray
    start: np.ndarray
    end: np.ndarray
    raised: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    @property
    def self_time(self) -> np.ndarray:
        """Duration minus the durations of direct children."""
        dur = self.duration
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, ancestor: str) -> np.ndarray:
        """Spans that have a span called `ancestor` somewhere above them."""
        flag = np.zeros(len(self.name), dtype=bool)
        if ancestor not in self.names:
            return flag
        aid = self.names.index(ancestor)
        a = self.parent.copy()
        while True:
            live = a >= 0
            if not live.any():
                return flag
            flag[live] |= self.name[a[live]] == aid
            a[live] = self.parent[a[live]]

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=self.name,
                            parent=self.parent, size=self.size,
                            start=self.start, end=self.end, raised=self.raised)


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    m: dict[str, float] = {}
    eig = t.mask("operators.eig")
    self_time = t.self_time
    m["operators.eig.calls"] = int(eig.sum())
    m["operators.eig.self_s"] = float(self_time[eig].sum())
    for label, lo, hi in EIG_BUCKETS:
        inside = eig & (t.size >= lo) & (t.size <= (hi or np.inf))
        m[f"operators.eig.calls.{label}"] = int(inside.sum())
    gflop = EIG_FLOP_PER_D3 * t.size.astype(float) ** 3 / 1e9
    m["operators.eig.gflop"] = float(gflop[eig].sum())
    big = eig & (t.size > 256)
    big_s = float(self_time[big].sum())
    m["operators.eig.gflops"] = (float(gflop[big].sum()) / big_s
                                 if big_s else 0.0)
    for fn in ("frechet_exp", "check_hermitian", "embed_at_slot"):
        m[f"operators.{fn}.calls"] = t.calls(f"operators.{fn}")
        m[f"operators.{fn}.self_s"] = t.self_s(f"operators.{fn}")
    m["operators.tensor_power.self_s"] = t.self_s("operators.tensor_power")
    m["operators.random.self_s"] = sum(
        t.self_s(f"operators.{fn}") for fn in TARGETS["operators"]
        if fn.startswith("random_"))

    fits = t.calls("maxent.fit_maxent")
    in_fit = t.under("maxent.fit_maxent")
    iters = int((t.mask("maxent.covariance") & in_fit).sum())
    forward = int((t.mask("maxent.canonical_from_lambda") & in_fit).sum())
    returned = int((t.mask("maxent.fit_maxent") & ~t.raised).sum())
    m["maxent.fit_maxent.calls"] = fits
    m["maxent.fit_maxent.self_s"] = t.self_s("maxent.fit_maxent")
    m["maxent.newton_iters"] = iters
    m["maxent.backtracks"] = forward - fits - iters
    m["maxent.fit_ok_ratio"] = returned / fits if fits else 0.0
    for fn in ("covariance", "canonical_from_lambda", "state_derivatives"):
        m[f"maxent.{fn}.self_s"] = t.self_s(f"maxent.{fn}")

    m["entropy.relative_entropy.calls"] = t.calls("entropy.relative_entropy")
    m["entropy.relative_entropy.self_s"] = t.self_s("entropy.relative_entropy")

    tests = t.calls("hypotest.np_optimal_test")
    m["hypotest.np_optimal_test.calls"] = tests
    m["hypotest.np_optimal_test.self_s"] = t.self_s("hypotest.np_optimal_test")
    eig_in_test = int((eig & t.under("hypotest.np_optimal_test")).sum())
    m["hypotest.eig_per_test"] = eig_in_test / tests if tests else 0.0

    for fn in ("canonical_coarse_grain", "product_coarse_grain", "kg_build",
               "kg_apply_state", "gamma_n", "positivity_diagnostic"):
        m[f"coarsegrain.{fn}.self_s"] = t.self_s(f"coarsegrain.{fn}")
    m["coarsegrain.kg_apply_observable.calls"] = t.calls(
        "coarsegrain.kg_apply_observable")
    m["coarsegrain.kg_apply_observable.self_s"] = t.self_s(
        "coarsegrain.kg_apply_observable")
    m["harness.run_experiment.self_s"] = t.self_s("harness.run_experiment")
    return m
