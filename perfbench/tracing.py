"""In-process calls into the package, plain or traced at layer boundaries.

``Library`` makes the calls a CLI command makes, one method per layer
boundary. ``TracedLibrary`` makes the same calls with spans around them,
recorded from outside the package:

- the line store is swapped, through ``dataclasses.replace``, for a
  delegating store that times ``loses_after`` and ``contains_mask``;
- the strategy is wrapped in a delegating proxy that times ``clone``,
  ``reset``, ``key``, ``observe`` and ``choose`` and wraps each clone;
- ``key_params`` and ``maximal_point`` are patched in the ``strategies``
  and ``pairset`` namespaces while a verify runs, and open a span only when
  called straight from a strategy method.

Spans live in flat arrays until ``Tracer.write`` stores them. A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans add up to the time of the root spans.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

KERNEL_NAMES = ("key_params", "maximal_point")
STRATEGY_METHODS = ("clone", "reset", "key", "observe", "choose")


class Library:
    """Plain in-process calls, one method per layer boundary."""

    def __init__(self, modules):
        self.core = modules.core
        self.constructions = modules.constructions
        self.pairset = modules.pairset
        self.solver = modules.solver
        self.strategies = modules.strategies

    def parse(self, spec):
        return self.constructions.parse_game_spec(spec)

    def to_json(self, game):
        return self.constructions.game_to_json(game)

    def solve(self, game):
        return self.solver.solve(game)

    def transitive(self, game):
        """(transitive, lines preserved, orbit of 0), as ``check-transitive``."""
        core = self.core
        try:
            transitive, preserved = core.is_transitive(game), True
        except core.GameError:
            transitive, preserved = False, False
        orbit = sorted(core.orbit(game.generators, 0)) if preserved else []
        return transitive, preserved, orbit

    def strategy_for(self, game, name):
        return self.strategies.strategy_for(game, name)

    def verify(self, game, strat, goal, mode, samples, seed):
        solver = self.solver
        goal = solver.Goal.WIN if goal == "win" else solver.Goal.NEVER_LOSE
        kwargs = {"mode": mode}
        if samples is not None:
            kwargs.update(samples=samples, seed=seed)
        return solver.verify_strategy(game, strat, strat.role, goal, **kwargs)

    def run_suite(self, name, m):
        return self.pairset.run_suite(name, m)

    def caches(self):
        """Every functools cache in the package's modules."""
        return [obj for mod in (self.core, self.constructions, self.pairset,
                                self.solver, self.strategies)
                for obj in vars(mod).values() if hasattr(obj, "cache_clear")]


class Tracer:
    """Spans (name, parent, start, end) in flat arrays, plus result counts."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.true_results: dict = defaultdict(int)
        self.call = self._caller()

    def id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _caller(self):
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self.stack)
        clock = time.perf_counter

        def call(nid: int, fn, *args, **kwargs):
            """``fn(*args, **kwargs)`` inside a span named by ``nid``."""
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return call

    def wrap(self, name: str, fn, count_true: bool = False):
        """``fn`` inside a span; with ``count_true``, also count truthy results."""
        nid = self.id(name)
        call = self.call
        trues = self.true_results
        if not count_true:
            return lambda *args, **kwargs: call(nid, fn, *args, **kwargs)

        def traced(*args):
            result = call(nid, fn, *args)
            if result:
                trues[nid] += 1
            return result

        return traced

    def wrap_from(self, layer: str, name: str, fn):
        """Like ``wrap``, but only for calls made straight from a ``layer`` span."""
        traced = self.wrap(name, fn)
        span_names, names, stack = self.names, self.name, self.stack
        prefix = layer + "."

        def gated(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and span_names[names[top]].startswith(prefix):
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)

        return gated

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, truthy results."""
        k = len(self.names)
        calls, total, own = [0] * k, [0.0] * k, [0.0] * k
        child = array("d", bytes(8 * len(self.start)))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        # Children come after their parent, so walking backwards sees every
        # child of a span before the span itself.
        for i in range(len(starts) - 1, -1, -1):
            dur = ends[i] - starts[i]
            if parents[i] >= 0:
                child[parents[i]] += dur
            nid = names[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
        return {name: {"calls": calls[i], "total_s": total[i], "self_s": own[i],
                       "true": self.true_results.get(i, 0)}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """A JSON header line, then the int32 name and parent arrays and the
        float64 start and end arrays, each ``count`` entries long."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def _line_store_proxy(tracer: Tracer):
    class TracedLines:
        __slots__ = ("_inner", "loses_after", "contains_mask")

        def __init__(self, inner):
            self._inner = inner
            self.loses_after = tracer.wrap("core.loses_after", inner.loses_after,
                                           count_true=True)
            self.contains_mask = tracer.wrap("core.contains_mask", inner.contains_mask,
                                             count_true=True)

        def __getattr__(self, name):
            return getattr(self._inner, name)

    return TracedLines


def _strategy_proxy(tracer: Tracer):
    call = tracer.call
    clone, reset, key, observe, choose = (tracer.id("strategies." + m)
                                          for m in STRATEGY_METHODS)

    class TracedStrategy:
        __slots__ = ("_inner",)

        def __init__(self, inner):
            self._inner = inner

        def __getattr__(self, name):
            return getattr(self._inner, name)

        def clone(self):
            return TracedStrategy(call(clone, self._inner.clone))

        def reset(self):
            return call(reset, self._inner.reset)

        def key(self):
            return call(key, self._inner.key)

        def observe(self, a, b, point):
            return call(observe, self._inner.observe, a, b, point)

        def choose(self, a, b):
            return call(choose, self._inner.choose, a, b)

    return TracedStrategy


class TracedLibrary(Library):
    """``Library`` with a span around every layer boundary it crosses."""

    def __init__(self, modules, tracer: Tracer):
        super().__init__(modules)
        t = self.tracer = tracer
        self._lines = _line_store_proxy(t)
        self._strategy = _strategy_proxy(t)
        self._parse = t.wrap("constructions.parse", super().parse)
        self._to_json = t.wrap("constructions.to_json", super().to_json)
        self._solve = t.wrap("solver.solve", super().solve)
        self._verify = t.wrap("solver.verify", super().verify)
        self._transitive = t.wrap("core.transitive", super().transitive)
        self._strategy_for = t.wrap("strategies.strategy_for", super().strategy_for)
        self._kernels = {name: (getattr(self.pairset, name),
                                t.wrap_from("strategies", "pairset." + name,
                                            getattr(self.pairset, name)))
                         for name in KERNEL_NAMES if hasattr(self.pairset, name)}

    def command(self, fn, *args):
        """Run one command's twin inside a root span."""
        return self.tracer.call(self.tracer.id("harness.command"), fn, *args)

    def parse(self, spec):
        game = self._parse(spec)
        return dataclasses.replace(game, lines=self._lines(game.lines))

    def to_json(self, game):
        return self._to_json(dataclasses.replace(game, lines=game.lines._inner))

    def solve(self, game):
        return self._solve(game)

    def transitive(self, game):
        return self._transitive(game)

    def strategy_for(self, game, name):
        return self._strategy(self._strategy_for(game, name))

    def verify(self, game, strat, goal, mode, samples, seed):
        with self._kernels_patched():
            return self._verify(game, strat, goal, mode, samples, seed)

    def run_suite(self, name, m):
        return self.tracer.call(self.tracer.id("pairset.suite." + name),
                                super().run_suite, name, m)

    @contextmanager
    def _kernels_patched(self):
        """Swap in the traced kernels wherever a namespace holds the original."""
        saved = []
        try:
            for mod in (self.strategies, self.pairset):
                for name, (original, traced) in self._kernels.items():
                    if getattr(mod, name, None) is original:
                        saved.append((mod, name))
                        setattr(mod, name, traced)
            yield
        finally:
            for mod, name in saved:
                setattr(mod, name, self._kernels[name][0])
