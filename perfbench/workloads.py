"""The four benchmark workloads: seed-driven inputs, one op, its output check.

Every workload turns a seed into a :class:`Prepared` run: the generated
inputs, the long-lived models, and one untimed warm-up op already
executed.  The op list is fixed by the seed alone, whatever the length
of the run, so the committed digests of the default seed cover every op.

Work per run must not depend on the seed, because the benchmark's
spread is taken across seeds.  So the seed draws rates, prices and
orders, while the shapes that set the cost of an op (federation size,
VM counts, strategy grids, drift positions, horizons) follow fixed
cycles, and every op list holds whole cycles.

Each op renders its output with ``float.hex`` so that digests compare
bit for bit; :func:`Prepared.check` tests the invariants that hold for
any seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

#: The seed whose per-op digests are committed in ``digests.json``.
DEFAULT_SEED = 1

#: Slack for the models' ``>= -1e-9`` clamping of non-negative means.
_EPS = 1e-9


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _serial_run(**fields: Any) -> Any:
    """A run config pinned to the serial backend: one process, no pools."""
    from repro.scenarios.schema import RunConfig

    return RunConfig(backend="serial", workers=1, **fields)


def _params_render(params: Any) -> list[str]:
    return [
        float(params.lent_mean).hex(),
        float(params.borrowed_mean).hex(),
        float(params.forward_rate).hex(),
        float(params.utilization).hex(),
    ]


def _params_problems(values: list[float], shared: int, pool: int) -> list[str]:
    """Invariants of one SC's ``(Ibar, Obar, Pbar, rho)``."""
    lent, borrowed, forward, utilization = values
    problems = []
    if not all(math.isfinite(v) for v in values):
        problems.append(f"non-finite params {values}")
    if not -_EPS <= lent <= shared + _EPS:
        problems.append(f"lent {lent} outside [0, {shared}]")
    if not -_EPS <= borrowed <= pool + _EPS:
        problems.append(f"borrowed {borrowed} outside [0, {pool}]")
    if forward < -_EPS:
        problems.append(f"negative forward rate {forward}")
    if not -_EPS <= utilization <= 1.0 + _EPS:
        problems.append(f"utilization {utilization} outside [0, 1]")
    return problems


@dataclass
class Prepared:
    """One set-up run of a workload, ready for its timed ops.

    Attributes:
        ops: the timed op inputs, in issue order.
        run_op: executes one op and returns its ``float.hex`` rendering.
        check: invariant problems of one op's rendering (empty if none).
        level_stats: ``(hits, misses)`` of the level-prefix caches of the
            workload's approximate models; ``(0, 0)`` without one.
    """

    ops: list[Any]
    run_op: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]
    level_stats: Callable[[], tuple[int, int]]


def _no_level_cache() -> tuple[int, int]:
    return 0, 0


def _level_stats_of(model: Any) -> Callable[[], tuple[int, int]]:
    def stats() -> tuple[int, int]:
        info = model.level_cache_stats()
        return int(info["hits"]), int(info["misses"])

    return stats


# --------------------------------------------------------------------- #
# market-solve
# --------------------------------------------------------------------- #

#: (K, VMs per SC, strategy step) cycle.  Each solve takes 0.35-0.6 s on
#: a 2-core x86 host.  K=3 is left out: even on its coarsest grid (4 VMs,
#: step 4) a K=3 solve takes about 2 s, and one op would then weigh as
#: much as four, leaving fewer passes per run.  An odd cycle of rising cost puts
#: the median op inside the middle shape, not on the edge between two.
_SOLVE_SHAPES = ((2, 4, 4), (2, 5, 5), (2, 6, 6))


#: Loads are stratified: in each block of ``_SOLVE_STRATA`` ops of one
#: shape, every SC draws once from each of ``_SOLVE_STRATA`` equal slices
#: of the utilization range, so every seed solves the same spread of
#: loads (the pooled fixed point's iteration count moves with the load).
_SOLVE_STRATA = 2
_SOLVE_LOAD = (0.7, 0.76)


def _solve_specs(rng: np.random.Generator, n_ops: int) -> list[Any]:
    """``n_ops`` market specs, generated in whole stratified blocks."""
    from repro.core.small_cloud import SmallCloud
    from repro.scenarios.schema import ScenarioSpec

    low, high = _SOLVE_LOAD
    specs: list[Any] = []
    while len(specs) < n_ops:
        # loads[shape][sc][j]: one draw per stratum, strata shuffled per SC.
        loads = [
            [
                [
                    low + (high - low) * (stratum + rng.uniform()) / _SOLVE_STRATA
                    for stratum in rng.permutation(_SOLVE_STRATA)
                ]
                for _ in range(k)
            ]
            for k, _, _ in _SOLVE_SHAPES
        ]
        for j in range(_SOLVE_STRATA):
            for (k, vms, step), shape_loads in zip(_SOLVE_SHAPES, loads):
                clouds = tuple(
                    SmallCloud(
                        name=f"sc{i + 1}",
                        vms=vms,
                        arrival_rate=round(vms * shape_loads[i][j], 3),
                        sla_bound=0.5,
                        public_price=10.0,
                        federation_price=round(rng.uniform(4.8, 5.2), 2),
                    )
                    for i in range(k)
                )
                specs.append(
                    ScenarioSpec(
                        name=f"bench-solve-{len(specs):04d}",
                        family="bench",
                        clouds=clouds,
                        run=_serial_run(model="pooled", strategy_step=step),
                    )
                )
    return specs[:n_ops]


def _solve_problems(spec: Any, observables: dict[str, Any]) -> list[str]:
    problems = []
    keys = ("welfare", "optimum_welfare", "efficiency")
    floats = [float.fromhex(observables[key]) for key in keys]
    floats += [float.fromhex(v) for v in observables["utilities"] + observables["costs"]]
    if not all(math.isfinite(v) for v in floats):
        problems.append("non-finite welfare, efficiency, utility or cost")
    for share, cloud in zip(observables["equilibrium"], spec.clouds):
        if not 0 <= share <= cloud.vms:
            problems.append(f"{cloud.name} shares {share} of {cloud.vms} VMs")
    return problems


def prepare_market_solve(seed: int) -> Prepared:
    """Full market solves (Algorithm 1, social optimum, efficiency): one
    stratified block of every shape."""
    from repro.scenarios.runner import outcome_observables, solve_spec

    specs = _solve_specs(_rng(seed, 1), len(_SOLVE_SHAPES) * _SOLVE_STRATA)
    warmup = _solve_specs(_rng(seed, 5), 1)[0]

    def run_op(spec: Any) -> dict[str, Any]:
        return outcome_observables(solve_spec(spec))

    run_op(warmup)
    return Prepared(specs, run_op, _solve_problems, _no_level_cache)


# --------------------------------------------------------------------- #
# approx-query
# --------------------------------------------------------------------- #

#: The query grid: sharing vectors of 3 SCs with shares <= 3 and total
#: <= 4, 57 distinct (vector, SC) queries with a non-zero own share.
#: Every pass runs the whole grid, so every seed queries the same set of
#: vectors and only their order follows the seed.
_QUERY_K = 3
_QUERY_MAX_SHARE = 3
_QUERY_MAX_TOTAL = 4


def _query_grid() -> list[tuple[int, ...]]:
    return sorted(
        vec
        for vec in itertools.product(range(_QUERY_MAX_SHARE + 1), repeat=_QUERY_K)
        if sum(vec) <= _QUERY_MAX_TOTAL
    )


def _query_scan(rng: np.random.Generator) -> list[tuple[tuple[int, ...], int]]:
    """Every distinct ``(sharing vector, SC)`` query of the grid, in the
    order of a Tabu neighbourhood scan: score each SC's alternatives
    around the current centre, then move to an unvisited neighbour (or
    jump when none is left)."""
    grid = _query_grid()
    allowed = set(grid)
    unvisited = set(grid)
    centre = grid[int(rng.integers(0, len(grid)))]
    seen: set[tuple[tuple[int, ...], int]] = set()
    scan: list[tuple[tuple[int, ...], int]] = []
    while True:
        unvisited.discard(centre)
        for i in rng.permutation(_QUERY_K):
            i = int(i)
            for v in rng.permutation(_QUERY_MAX_SHARE + 1):
                trial = centre[:i] + (int(v),) + centre[i + 1 :]
                if trial in allowed and trial[i] > 0 and (trial, i) not in seen:
                    seen.add((trial, i))
                    scan.append((trial, i))
        if not unvisited:
            return scan
        near = sorted(
            vec for vec in unvisited
            if sum(a != b for a, b in zip(vec, centre)) == 1
        )
        pool = near or sorted(unvisited)
        centre = pool[int(rng.integers(0, len(pool)))]


def _query_spec(rng: np.random.Generator) -> Any:
    """Three SCs of 5 VMs with drawn loads and federation prices."""
    from repro.core.small_cloud import SmallCloud
    from repro.scenarios.schema import ScenarioSpec

    clouds = tuple(
        SmallCloud(
            name=f"sc{i + 1}",
            vms=5,
            arrival_rate=round(5 * rng.uniform(0.55, 0.85), 3),
            sla_bound=0.5,
            public_price=10.0,
            federation_price=round(rng.uniform(3.0, 7.0), 2),
        )
        for i in range(_QUERY_K)
    )
    return ScenarioSpec(
        name="bench-query", family="bench", clouds=clouds, run=_serial_run(model="approximate")
    )


def prepare_approx_query(seed: int) -> Prepared:
    """Distinct what-if utility queries against one long-lived evaluator."""
    from repro import obs
    from repro.market.evaluator import UtilityEvaluator
    from repro.perf.approximate import ApproximateModel

    rng = _rng(seed, 2)
    spec = _query_spec(rng)
    scan = _query_scan(rng)
    model = ApproximateModel()
    evaluator = UtilityEvaluator(spec.federation(), model, gamma=spec.run.gamma)

    def run_op(query: tuple[tuple[int, ...], int]) -> list[str]:
        sharing, index = query
        utility = evaluator.utility(list(sharing), index)
        # Read back the params the query just solved; the lookup is the
        # benchmark's, so it stays out of the cache-hit counters.
        with obs.suspended():
            params = evaluator.params_target(list(sharing), index)
        return [float(utility).hex()] + _params_render(params)

    def check(query: tuple[tuple[int, ...], int], rendered: list[str]) -> list[str]:
        sharing, index = query
        values = [float.fromhex(v) for v in rendered]
        problems = [] if math.isfinite(values[0]) else [f"non-finite utility {values[0]}"]
        pool = sum(sharing) - sharing[index]
        return problems + _params_problems(values[1:], sharing[index], pool)

    run_op(scan[0])
    # The scan's first query is the warm-up; the rest are timed.
    return Prepared(scan[1:], run_op, check, _level_stats_of(model))


# --------------------------------------------------------------------- #
# approx-drift
# --------------------------------------------------------------------- #

#: A kscale-shaped federation: K SCs of 3 VMs, the first 4 lend one VM.
_DRIFT_K = 20
_DRIFT_SHARERS = 4
#: The SCs that drift: the last 8 of the chain.  A drift at position j
#: rebuilds the K - j levels from j on, so an online service puts its
#: volatile SCs last; a drift at the head takes up to 0.45 s on a 2-core
#: x86 host, too long to time steadily there.  Each pass drifts every
#: tail SC twice, in seed-shuffled blocks.
_DRIFT_TAIL = 8
_DRIFT_BLOCKS = 2


def _drift_spec(rng: np.random.Generator) -> Any:
    from repro.core.small_cloud import SmallCloud
    from repro.scenarios.schema import ScenarioSpec

    return ScenarioSpec(
        name="bench-drift",
        family="bench",
        clouds=tuple(
            SmallCloud(
                name=f"sc{i + 1:03d}",
                vms=3,
                arrival_rate=round(3 * rng.uniform(0.45, 0.6), 3),
                sla_bound=3.0,
                public_price=10.0,
                federation_price=5.0,
                shared_vms=1 if i < _DRIFT_SHARERS else 0,
            )
            for i in range(_DRIFT_K)
        ),
        run=_serial_run(model="approximate"),
    )


def prepare_approx_drift(seed: int) -> Prepared:
    """Online re-equilibration: drift one SC's rate, re-solve the last SC.

    The drift positions come in seed-shuffled blocks that visit every
    tail SC once, so every seed rebuilds the same number of chain levels.
    """
    from repro.core.small_cloud import FederationScenario
    from repro.perf.approximate import ApproximateModel

    rng = _rng(seed, 3)
    spec = _drift_spec(rng)
    base = [cloud.arrival_rate for cloud in spec.clouds]
    ops = [
        (int(j), round(base[j] * rng.uniform(0.9, 1.1), 3))
        for _ in range(_DRIFT_BLOCKS)
        for j in _DRIFT_K - _DRIFT_TAIL + rng.permutation(_DRIFT_TAIL)
    ]
    model = ApproximateModel()
    clouds = list(spec.federation().clouds)
    last = _DRIFT_K - 1
    pool = _DRIFT_SHARERS

    def run_op(op: tuple[int, float]) -> list[str]:
        j, rate = op
        clouds[j] = replace(clouds[j], arrival_rate=rate)
        params = model.evaluate_target(FederationScenario(tuple(clouds)), target=last)
        return _params_render(params)

    def check(op: tuple[int, float], rendered: list[str]) -> list[str]:
        return _params_problems([float.fromhex(v) for v in rendered], 0, pool)

    model.evaluate_target(spec.federation(), target=last)
    return Prepared(ops, run_op, check, _level_stats_of(model))


# --------------------------------------------------------------------- #
# simulate
# --------------------------------------------------------------------- #

#: Simulated time per op; at the library's 2 000 units one op takes
#: 0.3-3.3 s, at 50 units about 15 ms, so a run times many passes.
_SIM_HORIZON = 50.0
_SIM_K = 3
_SIM_VMS = 10
#: Demand cycle: Poisson, bursty MMPP, heavy-tailed service, failures.
_SIM_KINDS = ("poisson", "mmpp", "heavytail", "failure")
_FAILURE_KINDS = ("outage", "limplock", "flash_crowd")
#: Three whole cycles of every demand kind and every failure kind.
_SIM_OPS = 3 * len(_SIM_KINDS) * len(_FAILURE_KINDS)


def _bursty(rng: np.random.Generator, mean_rate: float) -> Any:
    """Two-phase base/burst MMPP whose long-run rate is ``mean_rate``."""
    from repro.workload.profiles import ArrivalSpec

    multiplier = rng.uniform(3.0, 6.0)
    burst_fraction = rng.uniform(0.03, 0.08)
    low = mean_rate / (1.0 + burst_fraction * (multiplier - 1.0))
    exit_burst = rng.uniform(0.5, 2.0)
    enter_burst = exit_burst * burst_fraction / (1.0 - burst_fraction)
    return ArrivalSpec(
        kind="mmpp",
        rates=(low, low * multiplier),
        transitions=((-enter_burst, enter_burst), (exit_burst, -exit_burst)),
    )


def _heavytail(rng: np.random.Generator, service_rate: float) -> Any:
    """Balanced-means H2 service at a drawn squared coefficient of variation."""
    from repro.workload.profiles import ServiceSpec

    scv = rng.uniform(2.0, 6.0)
    ratio = math.sqrt((scv - 1.0) / (scv + 1.0))
    p1 = 0.5 * (1.0 + ratio)
    p2 = 1.0 - p1
    return ServiceSpec(
        kind="hyperexponential",
        probabilities=(p1, p2),
        rates=(2.0 * p1 * service_rate, 2.0 * p2 * service_rate),
    )


def _sim_spec(rng: np.random.Generator, seed: int, index: int) -> Any:
    from repro.core.small_cloud import SmallCloud
    from repro.runtime.seeding import derive_seed
    from repro.scenarios.schema import ScenarioSpec
    from repro.sim.failures import FailureWindow
    from repro.workload.profiles import DemandProfile

    kind = _SIM_KINDS[index % len(_SIM_KINDS)]
    clouds = tuple(
        SmallCloud(
            name=f"sc{i + 1}",
            vms=_SIM_VMS,
            arrival_rate=round(_SIM_VMS * rng.uniform(0.6, 0.8), 3),
            sla_bound=0.5,
            public_price=10.0,
            federation_price=5.0,
            shared_vms=int(rng.integers(1, 4)),
        )
        for i in range(_SIM_K)
    )
    demand: tuple[Any, ...] = ()
    failures: tuple[Any, ...] = ()
    if kind == "mmpp":
        demand = tuple(DemandProfile(arrival=_bursty(rng, c.arrival_rate)) for c in clouds)
    elif kind == "heavytail":
        demand = tuple(DemandProfile(service=_heavytail(rng, c.service_rate)) for c in clouds)
    elif kind == "failure":
        failure = _FAILURE_KINDS[(index // len(_SIM_KINDS)) % len(_FAILURE_KINDS)]
        start = round(rng.uniform(0.15, 0.5) * _SIM_HORIZON, 3)
        factor = 1.0 if failure == "outage" else round(rng.uniform(1.5, 4.0), 3)
        failures = (
            FailureWindow(
                kind=failure,
                sc=int(rng.integers(0, _SIM_K)),
                start=start,
                end=round(start + rng.uniform(0.1, 0.25) * _SIM_HORIZON, 3),
                factor=factor,
            ),
        )
    name = f"bench-sim-{index:04d}"
    return ScenarioSpec(
        name=name,
        family="bench",
        clouds=clouds,
        demand=demand,
        failures=failures,
        run=_serial_run(seed=derive_seed(seed, name), horizon=_SIM_HORIZON),
    )


_SIM_FIELDS = (
    "lent_mean",
    "borrowed_mean",
    "forward_rate",
    "forward_probability",
    "utilization",
    "mean_wait",
)


def _sim_problems(spec: Any, rendered: list[list[str]]) -> list[str]:
    problems = []
    total_shared = sum(c.shared_vms for c in spec.clouds)
    for cloud, row in zip(spec.clouds, rendered):
        values = dict(zip(_SIM_FIELDS, (float.fromhex(v) for v in row)))
        pool = total_shared - cloud.shared_vms
        problems += _params_problems(
            [values[f] for f in ("lent_mean", "borrowed_mean", "forward_rate", "utilization")],
            cloud.shared_vms,
            pool,
        )
        if not 0.0 <= values["forward_probability"] <= 1.0:
            problems.append(f"{cloud.name} forward probability {values['forward_probability']}")
        if not (math.isfinite(values["mean_wait"]) and values["mean_wait"] >= 0.0):
            problems.append(f"{cloud.name} mean wait {values['mean_wait']}")
    return problems


def prepare_simulate(seed: int) -> Prepared:
    """Discrete-event simulations in the CLI's default step mode."""
    from repro.scenarios.runner import simulate_spec

    rng = _rng(seed, 4)
    warmup = _sim_spec(rng, seed, 0)
    specs = [_sim_spec(rng, seed, i) for i in range(_SIM_OPS)]

    def run_op(spec: Any) -> list[list[str]]:
        rows = simulate_spec(spec, step_mode="event")
        return [[float(row[f]).hex() for f in _SIM_FIELDS] for row in rows]

    run_op(warmup)
    return Prepared(specs, run_op, _sim_problems, _no_level_cache)


#: Fewest passes of an end-to-end run, whatever ``--seconds`` asks for.
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    """A workload's entry points and sizing.

    Attributes:
        prepare: builds inputs and models from a seed and runs the
            warm-up op.
        modules: what its set-up imports, timed in fresh interpreters.
        pass_s: nominal seconds of one pass with its set-up on a 2-core
            x86 host; ``--seconds`` over it gives the number of passes.
        span: how many times ``--seconds`` the passes take.  Above 1 for
            workloads whose ops are too long to find a fast moment of the
            host inside a slow spell, which lasts about 30 s there: more
            passes over a longer run reach past the spell.
    """

    prepare: Callable[[int], Prepared]
    modules: tuple[str, ...]
    pass_s: float
    span: float = 1.0

    def passes(self, seconds: float) -> int:
        return max(MIN_PASSES, round(seconds * self.span / self.pass_s))


WORKLOADS: dict[str, Workload] = {
    "market-solve": Workload(
        prepare_market_solve,
        ("numpy", "scipy.sparse", "repro.scenarios.runner", "repro.core.framework"),
        pass_s=3.6,
        span=2.0,
    ),
    "approx-query": Workload(
        prepare_approx_query,
        (
            "numpy",
            "scipy.sparse",
            "repro.scenarios.schema",
            "repro.market.evaluator",
            "repro.perf.approximate",
        ),
        pass_s=2.8,
    ),
    "approx-drift": Workload(
        prepare_approx_drift,
        ("numpy", "scipy.sparse", "repro.scenarios.schema", "repro.perf.approximate"),
        pass_s=2.1,
    ),
    "simulate": Workload(
        prepare_simulate,
        ("numpy", "scipy.sparse", "repro.scenarios.runner", "repro.sim.federation"),
        pass_s=0.65,
    ),
}
