"""Outside-in tracing of hvkit's public functions.

hvkit binds functions by name (``from .measure import conditional``), so
wrapping ``hvkit.measure.conditional`` alone would miss the calls made
from every other module.  :class:`Tracer` therefore wraps each public
function of each layer module once and rebinds the wrapper wherever an
hvkit module holds the original: module globals and module-level dicts
(such as a dispatch table).  ``FiniteMeasure.__post_init__`` is wrapped
on the class.  After installing, every hvkit module is scanned again and
any reference left to an original is an error, so a missed binding
stops the run instead of silently moving time into a caller.

Spans are kept in memory as tuples and aggregated after the traced pass,
outside the timed region.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous and
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import types
from dataclasses import dataclass
from time import perf_counter

# Modules traced as layers, in call-graph order from the request inwards.
LAYERS = ("cli", "determinize", "realizability", "properties", "fiber", "models", "simplex", "measure")


def _counts_construct(args, kwargs, result):
    return {"atoms": len(args[0].weights)}


def _counts_fiber_product(args, kwargs, result):
    return {"atoms_out": len(result.weights)}


def _counts_refined_cells(args, kwargs, result):
    return {f"cells_{result.party}": len(result.cells)}


def _counts_determinize_local(args, kwargs, result):
    return {"lam_out": len(result.space("lam")), "atoms_out": len(result.measure.weights)}


def _counts_solve_feasibility(args, kwargs, result):
    columns, rhs = args[0], args[1]
    rows, cols = len(rhs), len(columns)
    # structural columns, one artificial per row, and the right-hand side
    return {"rows": rows, "cols": cols, "tableau_cells": rows * (cols + rows + 1)}


def _counts_enumerate_strategies(args, kwargs, result):
    return {"strategies": len(result)}


def _counts_local_hvm_exists(args, kwargs, result):
    model = args[0]
    size = f"{len(model.space('ya'))}x{len(model.space('yb'))}"
    return {"size:" + size: 1, "feasible" if result[0] else "infeasible": 1}  # summed per name


def _counts_parse(args, kwargs, result):
    return {"bytes_in": len(args[0].encode())}


def _counts_serialize(args, kwargs, result):
    return {"bytes_out": len(result.encode())}


# Size counters recorded at span end, from the call's arguments and result.
COUNTERS = {
    "measure.construct": _counts_construct,
    "fiber.fiber_product": _counts_fiber_product,
    "determinize.refined_cells": _counts_refined_cells,
    "determinize.determinize_local": _counts_determinize_local,
    "simplex.solve_feasibility": _counts_solve_feasibility,
    "realizability.enumerate_strategies": _counts_enumerate_strategies,
    "realizability.local_hvm_exists": _counts_local_hvm_exists,
    "cli.parse_model_text": _counts_parse,
    "cli.serialize_model": _counts_serialize,
}


class BindingMissed(RuntimeError):
    """An hvkit module still refers to an unwrapped function after install."""


class Tracer:
    """Records one span per call of a wrapped hvkit function.

    ``spans`` holds ``(request, span_id, parent_id, name, start, end,
    counts)`` tuples in the order the spans ended.  ``request`` is the
    id :meth:`request` assigns, shared by every span of one request.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._request = None
        self._originals: dict[object, str] = {}  # original function -> span name
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counts = counter(args, kwargs, result) if counter is not None and returned else None
                spans.append((self._request, span_id, parent, name, start, end, counts))

        return wrapper

    def request(self, fn, *args):
        """Run one request as a root span named ``request``, under a fresh id."""
        self._request = 0 if self._request is None else self._request + 1
        return self._wrap(fn, "request")(*args)

    # -- install / uninstall ---------------------------------------------

    def install(self, package):
        """Wrap every public function of each layer and rebind it everywhere."""
        prefix = package.__name__
        modules = [m for name, m in sorted(sys.modules.items()) if name == prefix or name.startswith(prefix + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{prefix}.{layer}"]
            for attr, value in vars(module).items():
                if _is_function(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    self._originals[value] = f"{layer}.{attr}"
                    wrappers[value] = self._wrap(value, f"{layer}.{attr}")

        for module in modules:
            for table in (vars(module), *_module_dicts(module)):
                for key, value in list(table.items()):
                    if _is_function(value) and value in wrappers:
                        self._undo.append((table.__setitem__, key, value))
                        table[key] = wrappers[value]

        measure_cls = sys.modules[f"{prefix}.measure"].FiniteMeasure
        original = measure_cls.__dict__["__post_init__"]
        self._originals[original] = "measure.construct"
        self._undo.append((functools.partial(setattr, measure_cls), "__post_init__", original))
        measure_cls.__post_init__ = self._wrap(original, "measure.construct")

        for module in modules:
            for where, value in _references(module):
                if _is_function(value) and value in self._originals:
                    self.uninstall()
                    raise BindingMissed(
                        f"{module.__name__}.{where} still refers to unwrapped {self._originals[value]}"
                    )

    def uninstall(self):
        for assign, key, value in reversed(self._undo):
            assign(key, value)
        self._undo.clear()


def _is_function(value) -> bool:
    return isinstance(value, types.FunctionType)


def _module_dicts(module):
    return [v for k, v in vars(module).items() if isinstance(v, dict) and not k.startswith("__")]


def _references(module):
    """Every (where, value) an hvkit module can call through: globals,
    items of module-level containers, and attributes of its classes."""
    for attr, value in vars(module).items():
        if attr.startswith("__"):
            continue
        yield attr, value
        if isinstance(value, dict):
            items = value.values()
        elif isinstance(value, (list, tuple)):
            items = value
        elif isinstance(value, type) and value.__module__ == module.__name__:
            items = vars(value).values()
        else:
            continue
        for item in items:
            yield f"{attr}[...]", item


# -- aggregation -------------------------------------------------------------


# Children of determinize_local that are a stage by name; checker calls
# are a stage by position (see determinize_stages).
DETERMINIZE_STAGES = {
    "determinize.interval_partition": "interval_partition",
    "fiber.fiber_product": "fiber",
    "measure.fuse_factors": "fuse",
}
CHECKER_PREFIX = "properties.check_"
RECHECK_SPANS = ("realizability.strategy_hv_model", "models.realizes")


@dataclass
class Aggregate:
    """Totals of one traced pass.

    ``stats[name]`` has ``calls``, ``ms`` (inclusive), ``self_ms`` and
    the summed counters of that span name.  ``stages`` maps derived names
    (determinize stages, realizability size classes, recheck time) to
    totals.  ``covered_ms`` is the summed self time of every span but
    the root request spans.
    """

    stats: dict
    stages: dict

    @property
    def covered_ms(self) -> float:
        return sum(e["self_ms"] for name, e in self.stats.items() if name != "request")

    def counts(self) -> dict:
        """Every count of the pass: calls and size counters, not times."""
        counts = {
            f"{name}.{key}": value
            for name, entry in self.stats.items()
            for key, value in entry.items()
            if key not in ("ms", "self_ms")
        }
        counts.update({k: v for k, v in self.stages.items() if ".calls." in k})
        return counts


def aggregate(spans) -> Aggregate:
    """Per-name totals plus the stage breakdowns, from one traced pass."""
    children = {}
    for span in spans:
        children.setdefault(span[2], []).append(span)

    stats = {}
    stages = {}
    for span in spans:
        _, span_id, parent, name, start, end, counts = span
        duration = (end - start) * 1000.0
        child_ms = sum((c[5] - c[4]) * 1000.0 for c in children.get(span_id, ()))
        entry = stats.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["ms"] += duration
        entry["self_ms"] += duration - child_ms
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value

        if name == "determinize.determinize_local":
            for stage, ms in determinize_stages(children.get(span_id, ())).items():
                _add(stages, f"determinize.{stage}.ms", ms)
        elif name == "realizability.local_hvm_exists":
            size = next((k[5:] for k in counts or () if k.startswith("size:")), "?")
            _add(stages, f"realizability.local_hvm_exists.ms.{size}", duration)
            _add(stages, f"realizability.local_hvm_exists.calls.{size}", 1)
            recheck = sum(
                (c[5] - c[4]) * 1000.0
                for c in children.get(span_id, ())
                if c[3] in RECHECK_SPANS or c[3].startswith(CHECKER_PREFIX)
            )
            _add(stages, "realizability.recheck.ms", recheck)
    return Aggregate(stats, stages)


def determinize_stages(children) -> dict:
    """Stage times of one determinize_local call from its direct children.

    ``precheck`` is the checker calls before the first interval_partition;
    ``selfcheck`` is ``equivalent`` plus the checker calls after
    fuse_factors.
    """
    stages = {"precheck": 0.0, "interval_partition": 0.0, "fiber": 0.0, "fuse": 0.0, "selfcheck": 0.0}
    partitioned = fused = False
    for child in sorted(children, key=lambda c: c[4]):
        name = child[3]
        ms = (child[5] - child[4]) * 1000.0
        if name == "determinize.interval_partition":
            partitioned = True
        if name == "measure.fuse_factors":
            fused = True
        if name in DETERMINIZE_STAGES:
            stages[DETERMINIZE_STAGES[name]] += ms
        elif name.startswith(CHECKER_PREFIX) and not partitioned:
            stages["precheck"] += ms
        elif fused and (name.startswith(CHECKER_PREFIX) or name == "models.equivalent"):
            stages["selfcheck"] += ms
    return stages


def _add(table, key, value):
    table[key] = table.get(key, 0) + value
