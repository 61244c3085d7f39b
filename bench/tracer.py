"""Span tracing installed from outside the package.

``install`` replaces the public functions of each starchip module, and the
strategy and generator methods listed in ``METHODS``, with wrappers that
record one span per call: name, start, end, parent span, and an optional
integer (a result size or log length). The wrapper is written into every
module namespace that holds the original, so ``starchip.enumeration.apply_move``
is traced as well as ``starchip.core.apply_move``.

Spans are kept in flat arrays in memory and written out by ``Tracer.dump``
when the run ends. Self time is a span's duration minus the durations of
its direct children. Only a traced worker process imports this module, so
untraced runs use the package as it is.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "reports", "tableaux", "enumeration", "engine", "verify", "core", "rng")

# Helpers that take well under a microsecond and are called once per vertex
# or per chip; a span around them would cost more than they do. Their time
# counts toward the calling span.
UNTRACED = {
    "core": {"degree", "check_vertex", "branch_vertex", "is_stable"},
    "engine": {"expected_fire_count"},
    "verify": {"is_endgame"},
}

METHODS = {
    "engine": {"Deterministic": ("pick",), "RandomUniform": ("pick",), "VolatilityMinimizing": ("pick",)},
    "rng": {"SplitMix64": ("randrange", "choice", "subset")},
}

# Span names whose integer field records something: the number of moves
# returned, or the number of fires in the log verified.
SIZE_OF_RESULT = {"core.legal_moves", "enumeration.volmin_allowed_moves"}
SIZE_OF_FIRST_ARG = {"verify.verify_poset", "verify.verify_mixing"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, size, stack = (
            self.name_of, self.parent, self.start, self.end, self.size, self._stack
        )
        size_of_result = name in SIZE_OF_RESULT
        size_of_first_arg = name in SIZE_OF_FIRST_ARG

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            size.append(len(args[0]) if size_of_first_arg else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if size_of_result:
                size[idx] = len(result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.name_of)

    def dump(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\tsize\n")
            names = self.names
            for i in range(len(self.name_of)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{names[self.name_of[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.size[i]}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every traced function of every layer, in every starchip module
    namespace that refers to it."""
    modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "starchip"}
    for layer in LAYERS:
        mod = modules[f"starchip.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or attr in UNTRACED.get(layer, ())
            ):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, traced)
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: int = 0


def summarize(tracer: Tracer, lo: int = 0, hi: int | None = None) -> dict:
    """Per-name and per-layer totals for spans lo..hi (one operation's spans
    are contiguous), plus the counts that need a span's ancestry."""
    hi = len(tracer) if hi is None else hi
    names, name_of, parent, start, end, size = (
        tracer.names, tracer.name_of, tracer.parent, tracer.start, tracer.end, tracer.size
    )
    child_s = defaultdict(float)
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child_s[p] += end[i] - start[i]
    by_name: dict[str, NameStats] = defaultdict(NameStats)
    search = {"enumeration.enumerate_all", "enumeration.reachable_set", "enumeration.enumerate_volmin"}
    successor = {"core.legal_moves", "enumeration.volmin_allowed_moves"}
    states = edges = volmin_moves_built = 0
    strategy_of_pick = {
        "engine.RandomUniform.pick": "random",
        "engine.Deterministic.pick": "det",
        "engine.VolatilityMinimizing.pick": "volmin",
    }
    stabilize_s = defaultdict(float)
    charged: set[int] = set()
    for i in range(lo, hi):
        name = names[name_of[i]]
        dur = end[i] - start[i]
        stats = by_name[name]
        stats.calls += 1
        stats.total_s += dur
        stats.self_s += dur - child_s[i]
        if size[i] > 0:
            stats.size += size[i]
        p = parent[i]
        pname = names[name_of[p]] if p >= lo else ""
        if pname in search:
            if name in successor:
                states += 1
            elif name == "core.apply_move":
                edges += 1
        if name == "core.legal_moves" and pname == "enumeration.volmin_allowed_moves":
            gp = parent[p]
            if gp >= lo and names[name_of[gp]] == "engine.VolatilityMinimizing.pick":
                volmin_moves_built += size[i]
        if name in strategy_of_pick and pname == "engine.stabilize_labeled" and p not in charged:
            # A game is charged to the strategy of its first pick.
            charged.add(p)
            stabilize_s[strategy_of_pick[name]] += end[p] - start[p]
    layers = {layer: 0.0 for layer in LAYERS}
    for name, stats in by_name.items():
        layers[name.split(".")[0]] += stats.self_s
    return {
        "by_name": {name: vars(stats) for name, stats in by_name.items()},
        "layer_self_s": layers,
        "states": states,
        "edges": edges,
        "volmin_moves_built": volmin_moves_built,
        "stabilize_s": dict(stabilize_s),
        "spans": hi - lo,
    }
