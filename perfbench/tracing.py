"""Per-layer tracing of tamezeta from outside the program.

:class:`Tracer` wraps the public functions of each layer (module) in every
namespace of the loaded ``tamezeta`` package that binds them, so calls made
through ``from .tame import coeffs`` or through function-local imports are
seen as well.  For each function it records the number of calls, the self
time (wall time minus the time of wrapped calls made inside it) and the
mpmath power operations (``mpf``/``mpc`` ``**``) performed in that self
time.  For the four evaluators it also sums ``EvalResult.truncation``.
"""
from __future__ import annotations

import functools
import sys
import time

from mpmath import ctx_mp_python

# layer (module) -> the functions traced in it
LAYERS = {
    "tame": (
        "laurent_at_one",
        "plan_exponents",
        "build_shifted_multipower",
        "coeffs",
        "singularities",
    ),
    "numeval": (
        "continue_dirichlet",
        "hasse_eval",
        "direct_sum",
        "oracle_eval",
        "incgamma_eval",
        "lower_gamma_star",
        "recip_gamma",
    ),
    "continuation": ("analyze",),
    "bernoulli": ("todd_series", "diff_apply_poly"),
    "reconstruct": ("dirichlet_from_data",),
}

# evaluator -> name of the work count read from EvalResult.truncation
TRUNCATION = {
    "numeval.hasse_eval": "order",
    "numeval.direct_sum": "head_terms",
    "numeval.oracle_eval": "head_terms",
    "numeval.incgamma_eval": "head_terms",
}

FUNCTIONS = tuple("%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns)

_POW_SLOTS = (
    (ctx_mp_python._mpf, "__pow__"),
    (ctx_mp_python._mpf, "__rpow__"),
    (ctx_mp_python._mpc, "__pow__"),
    (ctx_mp_python._mpc, "__rpow__"),
)


class _Frame:
    __slots__ = ("name", "start", "child", "pows")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.pows = 0


class Tracer:
    """Install with :meth:`install`, remove with :meth:`uninstall`."""

    def __init__(self):
        self.reset()
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def reset(self):
        """Forget what was recorded so far (between calls only)."""
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.pows = dict.fromkeys(FUNCTIONS, 0)
        self.truncation = dict.fromkeys(TRUNCATION, 0)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        counts_truncation = name in TRUNCATION

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name, time.perf_counter())
            tracer._stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                elapsed = time.perf_counter() - frame.start
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame.child
                tracer.pows[name] += frame.pows
                if tracer._stack:
                    tracer._stack[-1].child += elapsed
            if counts_truncation:
                tracer.truncation[name] += out.truncation
            return out

        return traced

    def _count_pow(self, original):
        tracer = self

        def counted(a, b):
            if tracer._stack:
                tracer._stack[-1].pows += 1
            return original(a, b)

        return counted

    # -- installation -----------------------------------------------------

    def install(self, package="tamezeta"):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer, fns in LAYERS.items():
            home = sys.modules["%s.%s" % (package, layer)]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap("%s.%s" % (layer, fn_name), original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for cls, slot in _POW_SLOTS:
            original = cls.__dict__[slot]
            self._patches.append((cls, slot, original))
            setattr(cls, slot, self._count_pow(original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- report -----------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics, each per operation (``ops`` operations traced);
        truncation work counts are means per call."""
        out = {}
        for name in FUNCTIONS:
            out[name + ".calls"] = (self.calls[name] / ops, "count/op")
            out[name + ".self_s"] = (self.self_s[name] / ops, "s/op")
            out[name + ".pows"] = (self.pows[name] / ops, "count/op")
        for name, label in TRUNCATION.items():
            calls = self.calls[name]
            out["%s.%s" % (name, label)] = (self.truncation[name] / calls if calls else 0.0, "count")
        return out
