"""Workloads, batch timing and checks of the batch benchmark.

A *stream* is one seeded run of Algorithm 1 per approach of the
workload: ``settings.rounds`` batches drawn from the workload's fixed
population. The batches of a stream depend on the seed alone, so a run
repeats the same stream and every repeat must reproduce its revenue and
completed tasks exactly.

A batch is timed from outside the program: it starts when the simulator
asks the population for the round's workers and ends when it asks for
the next round's (or when the approach's sweep cell returns). It covers
sampling, validity, the solve and the simulator's own feasibility and
dispatch bookkeeping. The benchmark's checks of a finished batch run in
the gap between two batches, outside both. The latency statistics take
each distinct batch once, at its fastest repeat (:func:`best_of_repeats`).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from time import perf_counter

from repro.core.bounds import upper_bound
from repro.core.kernels import ensure_pairwise_cliff
from repro.experiments import runner
from repro.experiments.config import (
    DEFAULT_APPROACH_ORDER,
    ExperimentSettings,
    make_solver,
)
from repro.experiments.runner import build_population, run_single_approach, upper_reference
from repro.utils.errors import ReproError

from layers import layer_metrics, layer_shares, solve_counters, swapped, traced_layers
from spans import Tracer

__all__ = [
    "WORKLOADS",
    "BatchClock",
    "Workload",
    "best_of_repeats",
    "measure",
    "nearest_rank",
    "run_stream",
    "set_up",
    "time_builds",
    "tail_percentile",
    "tiny",
    "tracing_overhead",
]

#: Tolerance of the incremental total against the from-scratch one.
SCORE_TOLERANCE = 1e-9
#: Population builds before the streams and again after them: each time
#: at least ``SETUP_REPEATS``, and more while they have taken less than
#: ``SETUP_SECONDS`` together, up to ``SETUP_MAX_REPEATS``. ``setup_s``
#: reports the median of all of them, so that it is not set by the host's
#: speed in the run's first second alone.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 20
#: Distinct batches beyond the tail percentile.
TAIL_BEYOND = 10
#: Seed of the population, the benchmark's fixed dataset (the paper,
#: too, draws every batch from one crawl). ``--seed`` draws the streams.
POPULATION_SEED = 0
#: Streams per run at least. A run replays its stream while another
#: one is expected to end within ``--seconds``, but always this many
#: times, so that every batch has a repeat. Every workload runs at least
#: 40 distinct batches, so that 10 lie beyond a tail at p75 or higher.
#: Both workloads replay in 4-12 s, so a 50 s run gets four or more
#: replays unless the host is very slow.
MIN_STREAMS = 2


@dataclass(frozen=True)
class Workload:
    settings: ExperimentSettings
    approaches: tuple[str, ...]
    #: Evaluate UPPER (Equation 9) on the reference approach's batches.
    upper: bool


WORKLOADS = {
    "unif-sweep": Workload(
        ExperimentSettings(rounds=6, dataset="unif"),
        DEFAULT_APPROACH_ORDER,
        upper=True,
    ),
    "skew-sharded": Workload(
        ExperimentSettings(
            rounds=40,
            dataset="skew",
            quality_backend="sparse",
            workers_per_round=800,
            tasks_per_round=100,
            capacity=8,
            radius_range=(0.035, 0.07),
            shards=4,
        ),
        ("GT+ALL",),
        upper=False,
    ),
}


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of ``workload`` for smoke tests."""
    return replace(workload, settings=replace(workload.settings.scaled(0.2), rounds=2))


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile with at least ``beyond`` of ``count``
    samples above its nearest-rank position; 100 (the maximum) when
    ``count`` is too small for any."""
    for percentile in range(99, 0, -1):
        if count - math.ceil(percentile * count / 100) >= beyond:
            return percentile
    return 100


def nearest_rank(values: list[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percentile * len(ordered) / 100)) - 1]


class BatchClock:
    """Times batches and checks each one after it ends.

    ``start`` is called when a batch begins (the population's
    ``sample_workers``); it ends the previous batch first. ``finish``
    ends the open batch. A finished batch is checked — feasibility, the
    incremental total against the from-scratch one, and ``score <=
    UPPER`` where UPPER was evaluated — and the check's time is kept out
    of the batch and of the timed window.
    """

    def __init__(self, tracer: Tracer | None = None, stores: list | None = None):
        self.tracer = tracer
        self.stores = stores if stores is not None else []
        self.latencies: list[float] = []
        self.ok: list[bool] = []
        self.scores: list[float] = []
        self.check_seconds = 0.0
        self.cache_hits = 0
        self.cache_lookups = 0
        self._started: float | None = None
        self._span: int | None = None
        self._assignment = None
        self._upper: float | None = None

    def start(self) -> None:
        self.finish()
        if self.tracer is not None:
            self.tracer.batch += 1
            self._span = self.tracer.open("batch")
            self._started = self.tracer.spans[self._span].start
        else:
            self._started = perf_counter()

    def solved(self, assignment) -> None:
        self._assignment = assignment

    def bounded(self, upper: float) -> None:
        self._upper = upper

    def finish(self) -> None:
        if self._started is None:
            return
        ended = perf_counter()
        self.latencies.append(ended - self._started)
        self._started = None
        if self._span is not None:
            self.tracer.close(self._span, ended)
            self._span = None
        self._check()
        self._read_caches()
        self.check_seconds += perf_counter() - ended

    def abandon(self) -> None:
        """Drop the open batch of a stream that raised (it counts as failed)."""
        if self._span is not None:
            self.tracer.close(self._span)
            self._span = None
        self._started = self._assignment = self._upper = None
        self.stores.clear()

    def _check(self) -> None:
        assignment, self._assignment = self._assignment, None
        upper, self._upper = self._upper, None
        if assignment is None:
            self.ok.append(False)
            self.scores.append(float("nan"))
            return
        score = assignment.total_score()
        try:
            assignment.check_feasible()
        except ReproError as error:
            print(f"batch {len(self.ok)}: infeasible: {error}", file=sys.stderr)
            ok = False
        else:
            scratch = assignment.recompute_total()
            ok = abs(score - scratch) <= SCORE_TOLERANCE * max(1.0, abs(scratch))
            if upper is not None:
                ok = ok and score <= upper * (1.0 + SCORE_TOLERANCE)
        self.ok.append(ok)
        self.scores.append(score)

    def _read_caches(self) -> None:
        for store in self.stores:
            for read in ("row_cache_info", "col_cache_info"):
                info = getattr(store, read, None)
                if info is not None:
                    counts = info()
                    self.cache_hits += counts.hits
                    self.cache_lookups += counts.hits + counts.misses
        self.stores.clear()


class _TracedStore:
    """The population's store, with ``restricted_to`` in a span."""

    def __init__(self, store, tracer: Tracer, stores: list) -> None:
        self._stores = stores
        self.restricted_to = tracer.wrap(
            store.restricted_to, "quality_store.restrict", self._keep
        )

    def _keep(self, restricted) -> dict:
        self._stores.append(restricted)
        return {}


class _TimedPopulation:
    """The attributes of a population that ``BatchSimulator`` reads, with
    ``sample_workers`` starting a batch on the clock."""

    def __init__(self, population, clock: BatchClock) -> None:
        self._population = population
        self._clock = clock
        self.worker_locations = population.worker_locations
        self.task_locations = population.task_locations
        self.sample_task_sites = population.sample_task_sites
        self.quality = population.quality
        if clock.tracer is not None:
            self.quality = _TracedStore(population.quality, clock.tracer, clock.stores)

    def sample_workers(self, count, rng, exclude=None):
        self._clock.start()
        return self._population.sample_workers(count, rng, exclude=exclude)


@dataclass
class StreamResult:
    revenue: float
    completed: int
    upper: float
    window_seconds: float
    batches: int


def run_stream(workload: Workload, population, seed: int, clock: BatchClock) -> StreamResult:
    """One stream: each approach is the sweep cell ``run_single_approach``,
    whose solver and UPPER evaluation report to ``clock``.

    The runner's ``make_solver`` and ``upper_bound`` are swapped for
    recording wrappers while the stream runs. The last batch of an
    approach ends when ``run_single_approach`` returns."""
    tracer = clock.tracer
    reference = upper_reference(workload.approaches) if workload.upper else None
    bound = upper_bound if tracer is None else tracer.wrap(upper_bound, "bounds.upper")

    def recording_solver(*args, **kwargs):
        solver = make_solver(*args, **kwargs)

        def solve(instance, valid_pairs):
            assignment = solver(instance, valid_pairs)
            clock.solved(assignment)
            return assignment

        if tracer is not None:
            solve = tracer.wrap(solve, "solve", lambda _: solve_counters(solver))
        solve.stats_log = getattr(solver, "stats_log", None)
        return solve

    def recording_bound(instance, valid_pairs):
        upper = bound(instance, valid_pairs)
        clock.bounded(upper.value)
        return upper

    timed = _TimedPopulation(population, clock)
    result = StreamResult(0.0, 0, 0.0, 0.0, 0)
    with swapped([
        (runner, "make_solver", recording_solver),
        (runner, "upper_bound", recording_bound),
    ]):
        for name in workload.approaches:
            first = len(clock.scores)
            checks_before = clock.check_seconds
            gc.collect()
            started = perf_counter()
            outcome, upper = run_single_approach(
                timed, workload.settings, name, seed=seed, compute_upper=name == reference
            )
            clock.finish()
            window = perf_counter() - started
            result.window_seconds += window - (clock.check_seconds - checks_before)
            reported = [r.score for r in outcome.report.rounds]
            checked = clock.scores[first:]
            if len(checked) != len(reported):
                raise RuntimeError(
                    f"{name}: timed {len(checked)} batches, simulator ran {len(reported)}"
                )
            for offset, (mine, theirs) in enumerate(zip(checked, reported)):
                if repr(mine) != repr(theirs):
                    clock.ok[first + offset] = False
            result.revenue += outcome.total_score
            result.completed += outcome.completed_tasks
            result.upper += upper or 0.0
            result.batches += len(reported)
    return result


def time_builds(workload: Workload, build=build_population):
    """Build the population repeatedly (see ``SETUP_REPEATS``). Returns
    the last population and every build's time."""
    builds = []
    population = None
    while len(builds) < SETUP_REPEATS or (
        sum(builds) < SETUP_SECONDS and len(builds) < SETUP_MAX_REPEATS
    ):
        population = None
        gc.collect()
        started = perf_counter()
        population = build(workload.settings, seed=POPULATION_SEED)
        builds.append(perf_counter() - started)
    return population, builds


def set_up(workload: Workload, tracer: Tracer | None):
    """Time the population builds and the one-time lazy initialisation.
    Returns the last population, the lazy initialisation's time and every
    build's time."""
    build = build_population
    if tracer is not None:
        build = tracer.wrap(build_population, "population.build")
    population, builds = time_builds(workload, build)
    started = perf_counter()
    ensure_pairwise_cliff()
    return population, perf_counter() - started, builds


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the streams and summarise them.

    The stream is replayed while the next replay is expected (from the
    longest so far) to end within ``seconds``, and at least
    ``MIN_STREAMS`` times. Untraced, every stream feeds the end-to-end
    metrics. Traced, streams alternate untraced and traced (the
    difference is the tracing overhead) and the traced ones feed the
    per-layer metrics. After the streams, the population is released and
    built again, untraced, for more ``setup_s`` samples.
    """
    tracer = Tracer() if trace else None
    population, lazy_seconds, builds = set_up(workload, tracer)
    per_stream = workload.settings.rounds * len(workload.approaches)
    plain = BatchClock()
    traced = BatchClock(tracer, []) if trace else None
    outcomes: list[tuple[BatchClock, int, StreamResult]] = []
    windows = {False: 0.0, True: 0.0}
    error = None
    started = perf_counter()
    longest = 0.0
    streams = 0
    while streams < MIN_STREAMS or perf_counter() - started + longest <= seconds:
        stream_started = perf_counter()
        index, streams = streams, streams + 1
        use_trace = trace and index % 2 == 1
        clock = traced if use_trace else plain
        first = len(clock.ok)
        try:
            if use_trace:
                with traced_layers(tracer, clock.stores):
                    result = run_stream(workload, population, seed, clock)
            else:
                result = run_stream(workload, population, seed, clock)
        except Exception:  # noqa: BLE001 - reported; remaining batches fail
            error = traceback.format_exc()
            print(error, file=sys.stderr)
            clock.abandon()
            break
        windows[use_trace] += result.window_seconds
        outcomes.append((clock, first, result))
        longest = max(longest, perf_counter() - stream_started)
    # Every repeat must reproduce the first stream's outcome exactly.
    expected = None
    for clock, first, result in outcomes:
        signature = (repr(result.revenue), repr(result.completed))
        expected = expected or signature
        if signature != expected:
            clock.ok[first:first + result.batches] = [False] * result.batches
    # Peak memory of set-up and the streams, before the extra builds.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    population = None
    builds += time_builds(workload)[1]
    setup_seconds = statistics.median(builds) + lazy_seconds
    attempted = max(streams, MIN_STREAMS) * per_stream
    passed = sum(plain.ok) + (sum(traced.ok) if traced else 0)
    head = outcomes[0][2] if outcomes else StreamResult(0.0, 0, 0.0, 0.0, 0)
    record = {
        "correct": error is None and passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "details": {
            "streams": streams,
            "rounds": workload.settings.rounds,
            "approaches": list(workload.approaches),
            "stream_revenue": [r.revenue for _, _, r in outcomes],
            "stream_completed": [r.completed for _, _, r in outcomes],
            "upper": head.upper,
            "setup_builds_s": builds,
            "check_s": plain.check_seconds + (traced.check_seconds if traced else 0.0),
            "error": error,
        },
    }
    if not trace:
        record["metrics"], timing = _end_to_end(
            plain, per_stream, windows[False], setup_seconds, head, passed / attempted
        )
        record["metrics"]["peak_rss_mb"] = peak_rss_mb
        record["details"].update(timing)
    else:
        traced_streams = sum(1 for clock, _, _ in outcomes if clock is traced)
        metrics = {"population.build_s": statistics.median(builds)}
        if traced_streams:
            metrics.update(
                layer_metrics(
                    tracer, traced_streams, traced.cache_hits, traced.cache_lookups
                )
            )
            record["details"]["layer_shares"] = layer_shares(tracer)
        metrics["trace.batches_per_s"] = _rate(traced, windows[True])
        metrics["trace.untraced_batches_per_s"] = _rate(plain, windows[False])
        metrics["trace.overhead"] = tracing_overhead(plain.latencies, traced.latencies)
        record["metrics"] = metrics
        record["tracer"] = tracer
    return record


def _rate(clock: BatchClock | None, window_seconds: float) -> float:
    if clock is None or not window_seconds:
        return 0.0
    return len(clock.latencies) / window_seconds


def tracing_overhead(untraced: list[float], traced: list[float]) -> float:
    """The median, over batches replayed both ways, of the traced replay's
    time over the untraced one's, minus 1.

    A per-batch ratio pairs the same batch's two replays, and the median
    drops the batches a co-tenant slowed on one side only."""
    ratios = [t / u for u, t in zip(untraced, traced) if u > 0]
    return statistics.median(ratios) - 1.0 if ratios else 0.0


def best_of_repeats(latencies: list[float], per_stream: int) -> list[float]:
    """Each distinct batch once, at its fastest timing across the streams
    that replayed it (a partial last stream is dropped).

    Co-tenants on a shared host slow whole stretches of a run; the
    fastest repeat is the batch's cost with that filtered out (the
    argument ``timeit`` makes for its minimum)."""
    streams = [
        latencies[i:i + per_stream]
        for i in range(0, len(latencies) - per_stream + 1, per_stream)
    ]
    return [min(repeats) for repeats in zip(*streams)]


def _end_to_end(clock, per_stream, window_seconds, setup_seconds, head, ok_share):
    best = best_of_repeats(clock.latencies, per_stream)
    percentile = tail_percentile(len(best))
    metrics = {
        "setup_s": setup_seconds,
        "batch_p50_ms": statistics.median(best) * 1e3 if best else 0.0,
        "batch_tail_ms": nearest_rank(best, percentile) * 1e3 if best else 0.0,
        "batches_per_s": len(best) / sum(best) if best else 0.0,
        "revenue": head.revenue,
        "completed_tasks": head.completed,
        "ok_share": ok_share,
    }
    timing = {
        "batches": len(clock.latencies),
        "distinct_batches": len(best),
        "tail_percentile": percentile,
        "tail_beyond": len(best) - math.ceil(percentile * len(best) / 100),
        "window_s": window_seconds,
        "raw_batches_per_s": _rate(clock, window_seconds),
        "latencies_ms": [latency * 1e3 for latency in clock.latencies],
    }
    return metrics, timing
