"""Outside-in layer spans for the traced run.

``Tracer.install`` replaces every public function of the six treecount
modules with a wrapper that times the call, wherever the package holds a
reference to it (module globals, re-exports, dispatch dicts such as the
verifier registry).  A function that returns a generator gets its
generator wrapped too, so each ``next()`` is a span of that function and
each yield is counted.  Nothing in the package is edited; ``uninstall``
puts the original objects back.

Spans are timed in CPU time of the thread, like the ops (see run.py).
They are aggregated as they close: per layer the self time (span time
minus the time of spans opened inside it), per function the inclusive
time of its outermost active span.  Counts are taken at the same
boundaries.
"""

from __future__ import annotations

import inspect
import sys
import types
from collections import defaultdict
from time import thread_time as clock

LAYERS = ("cli", "core", "enumeration", "counting", "sampling", "verifier")

# span keys whose inclusive time is reported as "<key>.s"
TIMED = (
    "core.read_trees",
    "core.read_prufer_lines",
    "core.tree_to_text",
    "core.prufer_to_text",
    "enumeration.enumerate_all_trees",
    "enumeration.enumerate_trees_with_degrees",
    "enumeration.prufer_encode",
    "enumeration.prufer_decode",
    "enumeration.deg_v1_histogram",
    "enumeration.enumerate_edge_subsets_pairs",
    "counting.recursion_T",
    "counting.lemma1_lhs",
    "counting.assemble_double_count",
    "counting.expand_L3",
    "counting.count_supervertex_trees",
    "counting.closed_form",
    "sampling.sample_uniform_tree",
    "sampling.sample_tree_with_degrees",
)

# extra span keys that group several functions
GROUPS = {
    "counting.closed_form": (
        "count_total_trees",
        "count_trees_with_degrees",
        "count_trees_deg_v1",
        "count_trees_deg_v1_rational",
        "deg_v1_counts",
    ),
}

# yields of these generators feed a counter
YIELD_COUNTERS = {
    "core.read_trees": "core.trees_parsed",
    "enumeration.enumerate_all_trees": "enumeration.trees_yielded",
    "enumeration.enumerate_trees_with_degrees": "enumeration.trees_yielded",
    "enumeration.enumerate_all_trees_by_edges": "enumeration.trees_yielded",
    "sampling.sample_uniform_tree": "sampling.trees",
    "sampling.sample_tree_with_degrees": "sampling.trees",
}
CALL_COUNTERS = {"enumeration.prufer_encode": "enumeration.encodes"}


def _public_functions(module: types.ModuleType):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    def __init__(self, package: str = "treecount"):
        self.package = package
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.max_int_bits = 0
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._origins: dict[int, tuple[BaseException, str]] = {}
        self._last_error_layer: str | None = None
        self._undo: list[tuple[object, object, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package}.{layer}"]
            aliases = {}
            for value in vars(module).values():
                if isinstance(value, dict):
                    for k, fn in value.items():
                        if isinstance(k, str) and inspect.isfunction(fn):
                            aliases[id(fn)] = k
            for name, fn in _public_functions(module):
                key = f"{layer}.{aliases.get(id(fn), name)}"
                keys = [key] + [g for g, names in GROUPS.items()
                                if g.startswith(layer + ".") and name in names]
                wrappers[id(fn)] = self._wrap(fn, layer, key, tuple(keys),
                                              identity=id(fn) in aliases)
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(self.package + "."):
                continue
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._undo.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, fn in list(value.items()):
                        if id(fn) in wrappers:
                            self._undo.append((value, k, fn))
                            value[k] = wrappers[id(fn)]

    def uninstall(self) -> None:
        for target, name, original in reversed(self._undo):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._undo.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, keys: tuple[str, ...]) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        for k in keys:
            self._depth[k] += 1
        return frame

    def _exit(self, frame: list[float], t0: float, layer: str, keys: tuple[str, ...]) -> None:
        dt = clock() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.self_s[layer] += dt - frame[0]
        for k in keys:
            self._depth[k] -= 1
            if not self._depth[k]:
                self.inclusive[k] += dt

    def _raised(self, exc: BaseException, layer: str) -> None:
        # the innermost span an exception leaves is the layer that raised it
        seen = self._origins.setdefault(id(exc), (exc, layer))
        self._last_error_layer = seen[1]

    def _wrap(self, fn, layer: str, key: str, keys: tuple[str, ...], identity: bool):
        calls = CALL_COUNTERS.get(key)
        yields = YIELD_COUNTERS.get(key)
        counts = self.counts

        def span(*args, **kwargs):
            frame = self._enter(keys)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._raised(exc, layer)
                raise
            finally:
                self._exit(frame, t0, layer, keys)
            if calls:
                counts[calls] += 1
            if isinstance(result, types.GeneratorType):
                return self._iterate(result, layer, keys, yields)
            if layer == "counting" and type(result) is int:
                self.max_int_bits = max(self.max_int_bits, result.bit_length())
            elif identity:
                counts["verifier.checked"] += getattr(result, "checked", 0)
            return result

        return span

    def _iterate(self, it, layer: str, keys: tuple[str, ...], counter: str | None):
        counts = self.counts
        while True:
            frame = self._enter(keys)
            t0 = clock()
            try:
                item = next(it)
            except StopIteration:
                return
            except BaseException as exc:
                self._raised(exc, layer)
                raise
            finally:
                self._exit(frame, t0, layer, keys)
            if counter:
                counts[counter] += 1
            yield item

    # -- per-op accounting --------------------------------------------------

    def begin_op(self) -> None:
        self._origins.clear()
        self._last_error_layer = None

    def end_op(self, ended_in_exception: bool) -> None:
        if ended_in_exception:
            self.errors[self._last_error_layer or "cli"] += 1
        self._origins.clear()

    def metrics(self, identity_ids) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        for key in TIMED:
            out[f"{key}.s"] = (self.inclusive[key], "s")
        for ident in identity_ids:
            out[f"verifier.{ident}.s"] = (self.inclusive[f"verifier.{ident}"], "s")
        for name in ("core.trees_parsed", "enumeration.trees_yielded",
                     "enumeration.encodes", "sampling.trees", "verifier.checked"):
            out[name] = (self.counts[name], "count")
        out["counting.max_int_bits"] = (self.max_int_bits, "bits")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out
