"""Per-layer call counts and self times, recorded from outside admlab.

:class:`Tracer` replaces every public function of the layer modules by a
timing wrapper, at every place an admlab module looks the name up (the
defining module and each module that imported it by name, e.g.
``admlab.certify.trajectory`` and ``admlab.cli.linfty_bounds``).  Calls made
through those names are counted; a call's self time is its duration minus the
time spent in the traced calls it made.  Private helpers are not wrapped, so
their time lands in the self time of the public caller.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

LAYERS = ("spectral", "signals", "orlicz", "admissibility", "certify", "cli", "_quad")

# (layer, public function, reported fields): "calls" counts calls made through
# the wrapped names, "s" is self time in seconds.
REPORTED = (
    ("signals", "mode_integrals", ("calls", "s")),
    ("admissibility", "trajectory", ("calls", "s")),
    ("admissibility", "input_map", ("calls", "s")),
    ("signals", "worst_case_phases", ("calls", "s")),
    ("admissibility", "linfty_bounds", ("s",)),
    ("admissibility", "infinite_time_sup", ("s",)),
    ("certify", "weiss_check", ("s",)),
    ("orlicz", "luxemburg_norm", ("calls", "s")),
    ("orlicz", "modular", ("calls", "s")),
    ("admissibility", "orlicz_adm_bound", ("s",)),
    ("certify", "iiss_certificate", ("s",)),
    ("certify", "iss_certificate", ("s",)),
    ("certify", "counterexample_run", ("s",)),
    ("certify", "sqfct_constants", ("s",)),
    ("cli", "load_scenario", ("s",)),
    ("cli", "emit_plotdata", ("s",)),
    ("_quad", "adaptive_interval", ("calls", "s")),
    ("spectral", "space_norm", ("calls", "s")),
    ("signals", "random_signal", ("calls",)),
)


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so ``_quad`` reports as ``quad``."""
    return layer.lstrip("_")


class Tracer:
    """Install with :meth:`install`, read :attr:`stats`, undo with :meth:`uninstall`."""

    def __init__(self):
        self.modules = {}
        for layer in LAYERS:
            self.modules[layer] = importlib.import_module(f"admlab.{layer}")
        self.public = {}  # id(original function) -> (layer, name, function)
        for layer, mod in self.modules.items():
            for name, fn in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    self.public[id(fn)] = (layer, name, fn)
        self.stats = {}  # (layer, name) -> [calls, total s, self s]
        self.pairs = {}  # (parent key, child key) -> calls
        self._stack = []  # open frames: [key, child seconds]
        self._patched = []  # (module, attribute, original)

    def has(self, layer: str, name: str) -> bool:
        return any(k[:2] == (layer, name) for k in self.public.values())

    def missing(self) -> list:
        """Reported functions that the layer modules no longer define."""
        wanted = [(layer, name) for layer, name, _ in REPORTED] + [("cli", "run")]
        return [f"{layer}.{name}" for layer, name in wanted if not self.has(layer, name)]

    def reset(self) -> None:
        self.stats = {}
        self.pairs = {}

    def _wrap(self, key, fn):
        tracer, stack = self, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                row = tracer.stats.setdefault(key, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dt
                row[2] += dt - frame[1]
                if parent is not None:
                    pk = (parent, key)
                    tracer.pairs[pk] = tracer.pairs.get(pk, 0) + 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {
            fid: self._wrap((layer, name), fn)
            for fid, (layer, name, fn) in self.public.items()
        }
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched = []


def metrics(rounds) -> dict:
    """Per-round medians of the reported metrics, from one (stats, pairs,
    bytes written) triple per traced round."""

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def field(key, i):
        pick = statistics.median_low if i == 0 else statistics.median  # counts stay whole
        return pick(r[0].get(key, [0, 0.0, 0.0])[i] for r in rounds)

    out = {}
    for layer, name, fields in REPORTED:
        prefix = f"{metric_prefix(layer)}.{name}"
        if "calls" in fields:
            out[f"{prefix}.calls"] = field((layer, name), 0)
        if "s" in fields:
            out[f"{prefix}.s"] = field((layer, name), 2)
    lux, mod = ("orlicz", "luxemburg_norm"), ("orlicz", "modular")
    out["orlicz.modular_per_norm"] = med(
        lambda r: r[1].get((lux, mod), 0) / max(r[0].get(lux, [0])[0], 1))
    out["cli.handler_self.s"] = field(("cli", "run"), 2)
    out["cli.bytes_written"] = statistics.median_low(r[2] for r in rounds)
    return out
