"""Layer spans for the traced run, recorded from the benchmark's side.

:func:`traced_layers` patches each layer's public entry point where its
caller looks it up, so the program itself runs unchanged.  Every call
records one span ``(name, start, end, parent, op)`` in memory; the
spans are written out when the run ends.  A layer's self time is its
span time minus the time its child spans cover.

Functions called more than about 10^5 times per run (``prob_no_forward``
makes millions of calls per pooled solve) stay unwrapped, so their time
stays in their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

#: (module, attribute path, span name).  Methods are patched on their
#: class; functions on the module their caller reads them from.
_PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro.game.repeated_game", "RepeatedGame.run", "game.run"),
    ("repro.market.evaluator", "UtilityEvaluator.params", "market.params"),
    ("repro.market.evaluator", "UtilityEvaluator.params_target", "market.params_target"),
    ("repro.core.framework", "social_optimum", "market.social_optimum"),
    ("repro.perf.pooled", "PooledModel.evaluate", "perf.evaluate"),
    ("repro.perf.approximate", "ApproximateModel.evaluate", "perf.evaluate"),
    ("repro.perf.approximate", "ApproximateModel.evaluate_target", "perf.evaluate"),
    ("repro.perf.approximate", "transient_outcomes", "perf.interaction"),
    ("repro.perf.approximate", "reduction_matrix", "perf.interaction"),
    ("repro.perf.approximate", "conditional_initials", "perf.interaction"),
    # The pooled model imports steady_state from the solvers module at
    # call time; the approximate model bound it at import.
    ("repro.markov.solvers", "steady_state", "markov.steady_state"),
    ("repro.perf.approximate", "steady_state", "markov.steady_state"),
    ("repro.sim.federation", "FederationSimulator.run", "sim.run"),
    ("repro.scenarios.schema", "ScenarioSpec.federation", "scenarios.inputs"),
    ("perfbench.workloads", "_solve_specs", "scenarios.inputs"),
    ("perfbench.workloads", "_query_spec", "scenarios.inputs"),
    ("perfbench.workloads", "_drift_spec", "scenarios.inputs"),
    ("perfbench.workloads", "_sim_spec", "scenarios.inputs"),
)


class Tracer:
    """In-memory span store with per-span child-time accounting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.child: list[float] = []
        self._stack: list[int] = []
        #: Op id stamped on new spans; -1 while setting up.
        self.op = -1

    def wrap(self, fn: Any, name: str) -> Any:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.child.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = time.perf_counter()
            self.starts.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.ends[index] = end
                self._stack.pop()
                parent = self.parents[index]
                if parent >= 0:
                    self.child[parent] += end - start

        return traced

    def layer_totals(self, first_op: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: ``calls`` and ``total_s`` of the outermost spans
        of that name, and ``self_s`` of all of them, over ops ``>= first_op``."""
        totals: dict[str, dict[str, float]] = {}
        names = self.names
        for i, name in enumerate(names):
            if self.ops[i] < first_op:
                continue
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = self.ends[i] - self.starts[i]
            entry["self_s"] += duration - self.child[i]
            parent = self.parents[i]
            while parent >= 0 and names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                entry["calls"] += 1
                entry["total_s"] += duration
        return totals

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write every span as ``[name, start, end, parent, op]`` rows."""
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            [n, round(s - origin, 9), round(e - origin, 9), p, o]
            for n, s, e, p, o in zip(self.names, self.starts, self.ends, self.parents, self.ops)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            columns = ["name", "start", "end", "parent", "op"]
            json.dump({**header, "columns": columns, "spans": rows}, handle)
            handle.write("\n")


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def traced_layers(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer entry point to record into ``tracer``; restore on exit."""
    saved = []
    try:
        for module, path, name in _PATCHES:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
