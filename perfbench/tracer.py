"""Outside-in layer tracer: spans around the package's public functions.

The tracer rebinds each traced function in every module of the package that
holds it, so calls made through `from .x import f` bindings are seen too,
and restores every binding on `uninstall`.  Spans nest; a span's self time
is its duration minus the time its child spans cover, so self times of all
spans plus the untraced remainder add up to the wall time.  Spans are
aggregated by name as they close; nothing is kept per call.

Span names follow the package modules:

    operators.assemble   assemble_1d, assemble_2d_lshape (with the enclosure)
    operators.solve      solve_shifted
    operators.factor     complex scipy.sparse.linalg.splu inside solve_shifted
    symbols.eval         SymbolExpr.__call__ (the outermost call)
    rational.fit         fit_rational, fit_rational_shared
    rational.svd         numpy.linalg.svd inside rational
    rational.lstsq       numpy.linalg.lstsq inside rational
    rational.apply       apply_rational, apply_rational_shared, semigroup_apply
    control.homogenize   homogenize
    control.phi          phi
    control.root         solve_mu
    control.control      optimal_control
    control.trajectory   trajectory
    control.cost         cost_j
    control.kkt          kkt_residual
    control.solve        solve_problem
    sensitivity.perturb  perturb
    sensitivity.sweep    sensitivity_sweep

A nested call of the same span name (apply_rational calling
apply_rational_shared) belongs to the outer span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
import types
import weakref

import numpy as np
import scipy.sparse.linalg as spla

from parabolic_control import control, operators, rational, sensitivity, symbols

PACKAGE = "parabolic_control"

_FUNCTIONS = (
    ("operators.assemble", operators, ("assemble_1d", "assemble_2d_lshape")),
    ("operators.solve", operators, ("solve_shifted",)),
    ("rational.fit", rational, ("fit_rational", "fit_rational_shared")),
    ("rational.apply", rational,
     ("apply_rational", "apply_rational_shared", "semigroup_apply")),
    ("control.homogenize", control, ("homogenize",)),
    ("control.phi", control, ("phi",)),
    ("control.root", control, ("solve_mu",)),
    ("control.control", control, ("optimal_control",)),
    ("control.trajectory", control, ("trajectory",)),
    ("control.cost", control, ("cost_j",)),
    ("control.kkt", control, ("kkt_residual",)),
    ("control.solve", control, ("solve_problem",)),
    ("sensitivity.perturb", sensitivity, ("perturb",)),
    ("sensitivity.sweep", sensitivity, ("sensitivity_sweep",)),
)


def package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == PACKAGE or name.startswith(PACKAGE + ".")) and m is not None]


def snapshot():
    """Identity of every attribute of every package module, and of the
    traced class attribute; compare two snapshots with `==`."""
    snap = {m.__name__: {k: id(v) for k, v in vars(m).items()}
            for m in package_modules()}
    snap["SymbolExpr.__call__"] = id(symbols.SymbolExpr.__dict__["__call__"])
    return snap


class _Frame:
    __slots__ = ("name", "start", "child", "inner")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.inner = set()


class Tracer:
    """Counts, self seconds and total seconds for each span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.phi_evals = 0          # control.phi spans that contain a fit
        self.fits = []              # (degree, error ratio, success) per fit
        self.factor_nnz = 0         # sum of SuperLU.nnz of shifted factors
        self.timed_self_s = 0.0     # self seconds of spans in the timed phase
        self.timed = False
        self._stack = []
        self._open = set()          # span names on the stack
        self._ops = {}              # id(op) -> [weakref, cached factor count]
        self._retired_factors = 0
        self._saved = []

    # -- spans ----------------------------------------------------------
    def _enter(self, name):
        self._open.add(name)
        frame = _Frame(name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        name = frame.name
        self._open.discard(name)
        own = dur - frame.child
        self.calls[name] += 1
        self.self_s[name] += own
        self.total_s[name] += dur
        if self.timed:
            self.timed_self_s += own
        if name == "control.phi" and "rational.fit" in frame.inner:
            self.phi_evals += 1
        if self._stack:
            parent = self._stack[-1]
            parent.child += dur
            parent.inner.add(name)
            parent.inner |= frame.inner

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            out = None
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(frame)
                if after is not None:
                    after(args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- per-span bookkeeping -------------------------------------------
    def _after_fit(self, args, out):
        if out is None:
            return                      # the fit raised
        report = out[1]
        denom = report.tol * report.norm_estimate
        ratio = report.max_error / denom if denom > 0 else 0.0
        self.fits.append((report.degree, ratio, bool(report.success)))

    def _after_solve(self, args, out):
        op = args[0]
        entry = self._ops.get(id(op))
        if entry is not None and entry[0]() is not op:
            self._retired_factors += entry[1]
            entry = None
        if entry is None:
            entry = self._ops[id(op)] = [weakref.ref(op), 0]
        entry[1] = len(op._solvers)

    def cached_factors(self):
        """Shifted factors cached on every operator seen, dead ones included."""
        return self._retired_factors + sum(e[1] for e in self._ops.values())

    def _splu(self, fn):
        traced = self.wrap("operators.factor", fn)

        def splu(A, *args, **kwargs):
            if not np.iscomplexobj(A):
                return fn(A, *args, **kwargs)   # the enclosure's real factor
            lu = traced(A, *args, **kwargs)
            self.factor_nnz += lu.nnz           # .L / .U would build copies
            return lu
        return splu

    # -- installation ---------------------------------------------------
    def _rebind(self, original, replacement):
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _set(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        afters = {"rational.fit": self._after_fit,
                  "operators.solve": self._after_solve}
        for name, module, attrs in _FUNCTIONS:
            for attr in attrs:
                fn = getattr(module, attr)
                self._rebind(fn, self.wrap(name, fn, afters.get(name)))
        self._set(symbols.SymbolExpr, "__call__",
                  self.wrap("symbols.eval", symbols.SymbolExpr.__call__))
        # module copies whose dict lookups cost what the originals do
        la = _module_copy(spla)
        la.splu = self._splu(spla.splu)
        self._set(operators, "spla", la)
        npx = _module_copy(np)
        npx.linalg = _module_copy(np.linalg)
        npx.linalg.svd = self.wrap("rational.svd", np.linalg.svd)
        npx.linalg.lstsq = self.wrap("rational.lstsq", np.linalg.lstsq)
        self._set(rational, "np", npx)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _module_copy(module):
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(vars(module))
    return copy
