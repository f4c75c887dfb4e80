"""Per-layer tracing from outside the program.

The tracer wraps public functions of the `su3forms` layers and rebinds every
name that refers to them in the `su3forms.*` module namespaces, so calls made
between modules (`from su3forms.forms import wedge`) and inside a module
(global lookups) both go through the wrapper.  Nothing under `src/` changes;
`uninstall` puts the original objects back.

Each wrapper keeps running totals instead of a list of spans: calls, self
time (span minus the spans of traced children) and inclusive time.  Self
time therefore includes the wrapper cost of traced children, which the run
reports as `trace.overhead_ratio`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from math import comb

#: functions timed one by one, per layer module
LAYER_FUNCTIONS = {
    "forms": ("wedge", "contract", "hodge_star", "inner", "evaluate"),
    "structure": (
        "endo_act", "type_project", "lefschetz_contract", "alpha_map",
        "decompose_two_form", "decompose_three_form", "decompose_anti_endo",
        "form_to_sym_minus", "sym_plus_from_two_form", "vector_cross_endo",
    ),
    "deformation": ("params_to_jet", "jet_to_params", "check_jet_consistency"),
    "sphere": (
        "pullback_form", "adapted_frame", "ext_d", "covariant_d",
        "codifferential", "star_field", "divergence_endo", "laplacian",
        "form_from_frame_coeffs", "frame_coeffs_from_form", "wedge_ambient",
        "contract_ambient", "endo_act_ambient",
    ),
}

#: suite entry points, timed for their own (self) share
SUITE_FUNCTIONS = {
    "suites": (
        "verify_gray", "verify_spectral", "verify_linearized",
        "verify_linearized_basis", "verify_cl_identities",
    ),
    "identities": ("run_algebra_suite",),
}

#: a module timed as one layer: every plain function it defines
WHOLE_LAYERS = ("sampling",)


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


def _adapted_frame_key(args, kwargs):
    selection = args[1] if len(args) > 1 else kwargs.get("selection")
    return args[0].tobytes(), selection


def _pullback_key(args, kwargs):
    coeffs, k, v = args[:3]
    return coeffs.tobytes(), k, v.tobytes()


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.distinct: dict[str, set] = {}
        #: k x k minors the pullbacks evaluate, computed from argument shapes
        self.minors = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def distinct_ratio(self, key: str) -> float:
        calls = self.stat(key).calls
        return len(self.distinct.get(key, ())) / calls if calls else 0.0

    def wrap(self, key: str, fn, on_call=None):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                stat.total_s += dt
                if stack:
                    stack[-1] += dt

        return traced

    def _distinct_hook(self, key: str, keyfn):
        seen = self.distinct.setdefault(key, set())

        def hook(args, kwargs):
            try:
                seen.add(hash(keyfn(args, kwargs)))
            except (AttributeError, IndexError, TypeError, ValueError):
                pass  # a changed signature leaves the ratio unmeasured, not the run

        return hook

    def _pullback_hook(self):
        distinct = self._distinct_hook("sphere.pullback_form", _pullback_key)

        def hook(args, kwargs):
            distinct(args, kwargs)
            try:
                k, v = args[1], args[2]
                n, m = v.shape[-2:]
                batch = v.size // (n * m)
            except (AttributeError, IndexError, TypeError, ValueError, ZeroDivisionError):
                return
            if k:
                self.minors += batch * comb(n, k) * comb(m, k)

        return hook

    def _rebind(self, orig, wrapper) -> None:
        for name, mod in list(sys.modules.items()):
            if name != "su3forms" and not name.startswith("su3forms."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def install(self) -> None:
        hooks = {
            "sphere.adapted_frame": self._distinct_hook(
                "sphere.adapted_frame", _adapted_frame_key
            ),
            "sphere.pullback_form": self._pullback_hook(),
        }
        for module, names in {**LAYER_FUNCTIONS, **SUITE_FUNCTIONS}.items():
            mod = importlib.import_module(f"su3forms.{module}")
            for name in names:
                orig = getattr(mod, name, None)
                if orig is None:
                    continue  # removed by a later kernel: reported as 0 calls
                key = f"{module}.{name}"
                self._rebind(orig, self.wrap(key, orig, hooks.get(key)))
        for module in WHOLE_LAYERS:
            mod = importlib.import_module(f"su3forms.{module}")
            for name, orig in list(vars(mod).items()):
                if inspect.isfunction(orig) and orig.__module__ == mod.__name__:
                    self._rebind(orig, self.wrap(module, orig))
        identities = importlib.import_module("su3forms.identities")
        checks = identities.CHECKS
        identities.CHECKS = tuple(
            (name, self.wrap(f"identities.{name}", fn)) for name, fn in checks
        )
        self._undo.append((identities, "CHECKS", checks))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)
