"""Outside-in tracing of starlab's layers.

A span is recorded around every call into a module's public functions by
replacing the function object wherever a starlab module looks the name up:
``cli`` and ``acceptance`` import names directly (``from .lagrangian import
evolve_self_similar``), so patching only the defining module would miss
their calls.  Profile evaluation is traced by patching the public methods of
the two profile classes.  Nothing under ``src/`` is changed.

A call into a layer from inside the same layer opens no new span (profile
methods call each other, ``artifacts`` writers call ``write_csv``), so each
count is of outermost calls.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# layer -> (defining module, public functions timed as that layer)
FUNCTION_LAYERS = {
    "profiles.solve": ("profiles", ("solve_isentropic_profile", "solve_thermo_profile")),
    "lagrangian.evolve": ("lagrangian", ("evolve_self_similar", "evolve_linear_isentropic",
                                         "evolve_linear_thermo")),
    "lagrangian.reconstruct": ("lagrangian", ("reconstruct_eulerian",)),
    "functionals.amplitude": ("functionals", ("amplitude",)),
    "functionals.energy_ss": ("functionals", ("perturbation_energy_ss",)),
    "functionals.integrands": ("functionals", ("dissipation_integrands_isentropic",
                                               "dissipation_integrands_thermo")),
    "functionals.ledger": ("functionals", ("total_energy_ledger", "initial_energy_isentropic",
                                           "initial_energy_thermo")),
    "functionals.physical_energy": ("functionals", ("physical_energy",)),
    "functionals.lemma": ("functionals", ("hardy_check", "frak_A_inequality")),
    "svgplot": ("svgplot", ("line_chart",)),
}
# layer -> module whose every public function is timed as that layer
MODULE_LAYERS = {"expansion": "expansion", "homogeneous": "homogeneous"}
PROFILE_CLASSES = ("IsentropicProfile", "ThermoProfile")


def _evolve_counts(args, kwargs, result):
    initial = args[2] if len(args) > 2 else kwargs["initial"]
    return {"steps": len(result.times) - 1, "nodes": int(np.size(initial[0]))}


def _eval_counts(args, kwargs, result):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["y"]))}


def _write_counts(args, kwargs, result):
    paths = [result] if isinstance(result, str) else list(result)
    return {"files": len(paths), "bytes": sum(os.path.getsize(p) for p in paths)}


COUNTERS = {"lagrangian.evolve": _evolve_counts, "profiles.eval": _eval_counts,
            "artifacts.write": _write_counts}


def _targets():
    """(layer, function) for every traced public function."""
    mods = {m: sys.modules[f"starlab.{m}"]
            for m in ("profiles", "lagrangian", "functionals", "svgplot",
                      "expansion", "homogeneous", "artifacts")}
    for layer, (mod, names) in FUNCTION_LAYERS.items():
        for n in names:
            yield layer, getattr(mods[mod], n)
    for layer, mod in MODULE_LAYERS.items():
        for n, fn in inspect.getmembers(mods[mod], inspect.isfunction):
            if not n.startswith("_") and fn.__module__ == mods[mod].__name__:
                yield layer, fn
    for n, fn in inspect.getmembers(mods["artifacts"], inspect.isfunction):
        if n.startswith("write_"):
            yield "artifacts.write", fn


class Tracer:
    """Records spans [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                    self._op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every starlab namespace that holds a traced function."""
        from starlab import acceptance, cli, profiles  # noqa: F401 - cli is patched too
        wrappers = {id(fn): self._wrap(layer, fn) for layer, fn in _targets()}
        for modname, mod in list(sys.modules.items()):
            if modname != "starlab" and not modname.startswith("starlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers and inspect.isfunction(val):
                    self._patch(mod, attr, wrappers[id(val)])
        for cls_name in PROFILE_CLASSES:
            cls = getattr(profiles, cls_name)
            for attr, val in list(vars(cls).items()):
                if inspect.isfunction(val) and not attr.startswith("_"):
                    self._patch(cls, attr, self._wrap("profiles.eval", val))
        self._patch(acceptance, "CRITERIA", [
            (cid, name, self._wrap(f"acceptance.c{cid:02d}", fn))
            for cid, name, fn in acceptance.CRITERIA])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id):
        """Trace one op under a root span "op"; every span is tagged `op_id`."""
        self._op = op_id
        self.install()
        root = ["op", time.perf_counter(), None, None, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(root)
        try:
            yield
        finally:
            root[2] = time.perf_counter()
            self._stack.pop()
            self.uninstall()
            self._op = None

    def records(self):
        """Spans as dicts, in start order."""
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4],
                 **(s[5] or {})} for s in self.spans]


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest and never overlap their siblings, so this is
    the time no child span covers.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child_time)]


def layer_totals(spans) -> dict:
    """{op id: {layer: self and inclusive seconds, calls, summed counts}}."""
    totals: dict = {}
    for s, self_s in zip(spans, self_times(spans)):
        t = totals.setdefault(s[4], {}).setdefault(
            s[0], {"self_s": 0.0, "incl_s": 0.0, "calls": 0})
        t["calls"] += 1
        t["incl_s"] += s[2] - s[1]
        t["self_s"] += self_s
        for k, v in (s[5] or {}).items():
            t[k] = t.get(k, 0) + v
    return totals
