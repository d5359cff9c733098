"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload approx-query --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: each op starts when the
previous one returns, in this process, on the serial backend, with no
executor pools.  A run times a fixed, seed-determined op list rather
than a time window.

``--trace 0`` runs the op list several times, each after a fresh set-up,
and prints the end-to-end metrics from each op's fastest pass;
``--seconds`` sets the number of passes through each workload's nominal
pass time (see ``workloads.py``).
``--trace 1`` runs it once to warm up, then untraced and with layer spans
and ``repro.obs`` counters in turn, and prints the per-layer metrics.
The last line of standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--record-digests`` rewrites the committed digests of the
default seed from this run's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".bench_trace"

#: No op is issued after this many seconds, so a run ends within 180 s
#: even if the program became several times slower.
DEADLINE_S = 150.0


@dataclass
class Pass:
    """The outcome of running one prepared op list."""

    latencies: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    steal_s: float = 0.0
    probe_ms: tuple[float, float] = (0.0, 0.0)
    failed: int = 0
    skipped: int = 0
    digest_checked: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def steal_ticks() -> int:
    """Host steal time so far, in clock ticks (``/proc/stat``)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now,
    so a slow run can be told apart from a slower program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def child_import_s(modules: tuple[str, ...]) -> float:
    """Wall time of a fresh interpreter that imports ``modules`` and exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import importlib, sys\nfor m in sys.argv[1:]: importlib.import_module(m)"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, *modules],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=60,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def run_pass(
    prepared: Any, expected: list[str] | None, digests: list[str], tracer: Any = None
) -> Pass:
    """Issue every op in order, then check every output.

    Outputs are checked after the loop so the check costs no op time.
    A failed op is printed and counted; it never stops the run.
    """
    from repro.scenarios.runner import observables_digest

    result = Pass()
    outputs: list[Any] = []
    ticks = steal_ticks()
    cpu = time.process_time()
    begin = time.perf_counter()
    for index, op in enumerate(prepared.ops):
        if time.perf_counter() - START > DEADLINE_S:
            result.skipped = len(prepared.ops) - index
            break
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            outputs.append(prepared.run_op(op))
        except Exception:  # a failed op is reported, and the run goes on
            outputs.append(None)
            print(f"op {index} raised:\n{traceback.format_exc()}", end="")
        result.latencies.append(time.perf_counter() - start)
    result.wall_s = time.perf_counter() - begin
    result.cpu_s = time.process_time() - cpu
    result.steal_s = (steal_ticks() - ticks) / os.sysconf("SC_CLK_TCK")
    for index, (op, output) in enumerate(zip(prepared.ops, outputs)):
        if output is None:
            result.failed += 1
            digests.append("")
            continue
        problems = prepared.check(op, output)
        digest = observables_digest(output)
        digests.append(digest)
        if expected is not None:
            result.digest_checked += 1
            if index >= len(expected):
                problems.append(f"digest {digest} has no committed counterpart")
            elif expected[index] != digest:
                problems.append(f"digest {digest} != committed {expected[index]}")
        if problems:
            result.failed += 1
            print(f"op {index} failed its check: {'; '.join(problems)}")
    return result


def describe(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} {value:.6g} {unit}{f' ({note})' if note else ''}")


def merged(passes: list[Pass], probe_ms: tuple[float, float]) -> Pass:
    """All passes' ops, failures and host-noise readings in one record,
    with the probe-loop times from before the first and after the last."""
    return Pass(
        latencies=[lat for p in passes for lat in p.latencies],
        wall_s=sum(p.wall_s for p in passes),
        cpu_s=sum(p.cpu_s for p in passes),
        steal_s=sum(p.steal_s for p in passes),
        probe_ms=probe_ms,
        failed=sum(p.failed for p in passes),
        skipped=sum(p.skipped for p in passes),
        digest_checked=sum(p.digest_checked for p in passes),
    )


def fastest(passes: list[Pass]) -> list[float] | None:
    """Each op's latency at its fastest pass; ``None`` when the deadline
    left some op without a single timing."""
    n_ops = max(p.attempted + p.skipped for p in passes)
    samples = [[p.latencies[i] for p in passes if i < p.attempted] for i in range(n_ops)]
    return [min(times) for times in samples] if all(samples) else None


def plain_run(
    workload: Any, seed: int, n_passes: int, expected: list[str] | None
) -> tuple[dict | None, Pass, list[str]]:
    """The end-to-end run: ``n_passes`` fresh set-ups, each followed by
    the whole op list.  An op's latency is its fastest pass: a slow spell
    of the host only ever adds time, and one shorter than the run misses
    some pass of every op.  ``setup_s`` is the median over the same
    set-ups.  The metrics are ``None`` when the deadline left some op
    without a single timing."""
    for module in workload.modules:
        __import__(module)
    imports: list[float] = []
    prepares: list[float] = []
    passes: list[Pass] = []
    digests: list[str] = []
    probe_before = host_probe_ms()
    # Set-up samples are spread over the run so that their median does not
    # rest on a single spell of the host's load: an in-process set-up
    # before every pass, a fresh-interpreter import before the first,
    # middle and last.
    import_passes = {0, n_passes // 2, n_passes - 1}
    for index in range(n_passes):
        if index in import_passes:
            imports.append(child_import_s(workload.modules))
        begin = time.perf_counter()
        prepared = workload.prepare(seed)
        prepares.append(time.perf_counter() - begin)
        # Every pass checks its outputs; the first pass's digests are kept.
        passes.append(run_pass(prepared, expected, [] if passes else digests))
    result = merged(passes, (probe_before, host_probe_ms()))
    best = fastest(passes)
    if best is None:
        return None, result, digests
    setup_s = statistics.median(imports) + statistics.median(prepares)
    describe(
        "setup_s", setup_s, "s",
        f"median fresh-interpreter import {statistics.median(imports):.4g} s + median "
        f"set-up {statistics.median(prepares):.4g} s, over {len(imports)} and {n_passes}",
    )
    ops_per_s = len(best) / sum(best)
    describe(
        "ops_per_s", ops_per_s, "1/s",
        f"{len(best)} ops in {sum(best):.4g} s, each at its fastest of {n_passes} passes",
    )
    p50 = statistics.median(best)
    describe("latency_p50_s", p50, "s", f"n={len(best)}, each op at its fastest pass")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    describe("peak_rss_mb", rss, "MB")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "latency_p50_s": {"value": p50, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    return metrics, result, digests


def traced_run(
    workload: Any, seed: int, expected: list[str] | None, name: str
) -> tuple[dict | None, Pass, list[str], bool]:
    """A warm pass, then untraced and traced passes of the same op list
    in turn.  Layer metrics come from the first traced pass.  The metrics
    are ``None`` when the deadline left some op without a timing."""
    from repro import obs

    from perfbench.tracing import Tracer, traced_layers
    from perfbench.workloads import MIN_PASSES

    digests: list[str] = []
    probe_before = host_probe_ms()
    # The warm pass absorbs first-call costs the warm-up op missed.
    warm = run_pass(workload.prepare(seed), expected, digests)
    plain: list[Pass] = []
    traced: list[Pass] = []
    recorded: tuple[Any, ...] = ()
    # Untraced and traced passes alternate, so the overhead ratio compares
    # fastest-pass timings taken over the same spells of the host's load.
    for _ in range(MIN_PASSES):
        plain.append(run_pass(workload.prepare(seed), expected, digests))
        tracer = Tracer()
        with traced_layers(tracer):
            prepared = workload.prepare(seed)
            levels_before = prepared.level_stats()
            with obs.capture(tracing=False, metrics=True) as cap:
                traced.append(run_pass(prepared, expected, digests, tracer))
            levels_after = prepared.level_stats()
        recorded = recorded or (tracer, cap, levels_before, levels_after)
    result = merged([warm, *plain, *traced], (probe_before, host_probe_ms()))
    tracer, cap, (hits0, misses0), (hits1, misses1) = recorded
    tracer.write(TRACE_DIR / f"{name}-seed{seed}.json", {"workload": name, "seed": seed})
    counters = dict(cap.snapshot().counters)
    tasks = counters.get("runtime.executor.tasks", 0)
    best_plain, best_traced = fastest(plain), fastest(traced)
    if best_plain is None or best_traced is None:
        return None, result, digests, tasks == 0
    layers = tracer.layer_totals()
    inputs = tracer.layer_totals(first_op=-1).get("scenarios.inputs", {})

    def layer(span: str, key: str) -> float:
        return layers.get(span, {}).get(key, 0.0)

    def ratio(hit: float, total: float) -> float:
        return hit / total if total else 0.0

    params_hit = counters.get("market.params.hit", 0)
    target_hit = counters.get("market.target.hit", 0) + counters.get("market.target.full_hit", 0)
    hits, built = hits1 - hits0, misses1 - misses0
    sim_s = layer("sim.run", "total_s")
    events = counters.get("sim.engine.events", 0)
    values = {
        "game.rounds": (counters.get("game.rounds", 0), "count"),
        "game.respond_calls": (
            sum(v for k, v in counters.items() if k.startswith("game.best_response.")),
            "count",
        ),
        "game.self_s": (layer("game.run", "self_s"), "s"),
        "market.params_hit_ratio": (
            ratio(params_hit, params_hit + counters.get("market.params.solve", 0)),
            "ratio",
        ),
        "market.target_hit_ratio": (
            ratio(target_hit, target_hit + counters.get("market.target.solve", 0)),
            "ratio",
        ),
        "market.social_optimum_s": (layer("market.social_optimum", "total_s"), "s"),
        "market.self_s": (
            sum(
                layer(s, "self_s")
                for s in ("market.params", "market.params_target", "market.social_optimum")
            ),
            "s",
        ),
        "perf.evaluate_calls": (layer("perf.evaluate", "calls"), "count"),
        "perf.evaluate_s": (layer("perf.evaluate", "total_s"), "s"),
        "perf.self_s": (layer("perf.evaluate", "self_s"), "s"),
        "perf.level_hit_ratio": (ratio(hits, hits + built), "ratio"),
        "perf.levels_built": (built, "count"),
        "perf.interaction_calls": (layer("perf.interaction", "calls"), "count"),
        "perf.interaction_s": (layer("perf.interaction", "total_s"), "s"),
        "markov.steady_state_calls": (layer("markov.steady_state", "calls"), "count"),
        "markov.steady_state_s": (layer("markov.steady_state", "total_s"), "s"),
        "sim.run_s": (sim_s, "s"),
        "sim.events": (events, "count"),
        "sim.events_per_s": (ratio(events, sim_s), "1/s"),
        "scenarios.inputs_s": (inputs.get("total_s", 0.0), "s"),
        "trace.overhead_ratio": (sum(best_plain) / sum(best_traced), "ratio"),
    }
    print(
        f"{len(best_traced)} ops at their fastest of {MIN_PASSES} passes: "
        f"traced {sum(best_traced):.4g} s, untraced {sum(best_plain):.4g} s"
    )
    for metric, (value, unit) in values.items():
        describe(metric, value, unit)
    print(f"load-shape guard: runtime.executor.tasks = {tasks} (must be 0)")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return metrics, result, digests, tasks == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.record_digests and (seed != DEFAULT_SEED or args.trace):
        parser.error("--record-digests needs the default seed and --trace 0")
    n_passes = workload.passes(args.seconds)
    committed = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    check_digests = seed == DEFAULT_SEED and not args.record_digests
    expected = committed.get(args.workload) if check_digests else None

    print(
        f"workload {args.workload} seed {seed} "
        + (f"{n_passes} passes; " if not args.trace else "a warm pass, then untraced and traced in turn; ")
        + "load: closed loop, 1 client, "
        f"serial backend, workers=1, no executor pools; nproc={os.cpu_count()}"
    )
    print(
        "output check: "
        + ("committed digests and invariants" if expected is not None else "invariants only")
    )
    guard_ok = True
    if args.trace:
        metrics, result, digests, guard_ok = traced_run(
            workload, seed, expected, args.workload
        )
    else:
        metrics, result, digests = plain_run(workload, seed, n_passes, expected)
    if expected is not None:
        print(f"digest check covered {result.digest_checked} of {result.attempted} op outputs")
    late = f"; {result.skipped} not issued by the {DEADLINE_S:.0f} s deadline"
    print(
        f"failed_frac {result.failed / max(result.attempted, 1):.6g} ratio "
        f"({result.failed} of {result.attempted} ops{late if result.skipped else ''})"
    )
    print(
        f"host noise (not gated): steal {result.steal_s:.3f} s, "
        f"process cpu / wall {result.cpu_s / max(result.wall_s, 1e-9):.4f}, "
        f"probe loop {result.probe_ms[0]:.2f} ms before / {result.probe_ms[1]:.2f} ms after"
    )
    if metrics is None:
        print(f"perfbench: {result.skipped} ops were never timed before the deadline; no result")
        return 1
    if args.record_digests:
        committed[args.workload] = digests
        DIGESTS.write_text(json.dumps(committed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    correct = result.failed == 0 and guard_ok
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
