"""Tests of the batch benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import layers  # noqa: E402
from spans import Span, Tracer, self_seconds  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_the_allowed_pattern():
    spec = _benchmark_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("count, expected", [(50, 80), (60, 83), (100, 90), (140, 92)])
def test_tail_percentile_examples(count, expected):
    assert bench.tail_percentile(count) == expected


@pytest.mark.parametrize("count", range(11, 400, 7))
def test_tail_percentile_is_the_highest_with_ten_beyond(count):
    percentile = bench.tail_percentile(count)

    def beyond(p):
        return count - -(-p * count // 100)

    assert beyond(percentile) >= 10
    assert percentile == 99 or beyond(percentile + 1) < 10


def test_tail_percentile_falls_back_to_the_maximum_when_too_few():
    assert bench.tail_percentile(10) == 100
    assert bench.nearest_rank([3.0, 1.0, 2.0], 100) == 3.0
    assert bench.nearest_rank([3.0, 1.0, 2.0, 4.0], 50) == 2.0


def test_best_of_repeats_takes_each_batch_once_at_its_fastest_replay():
    # Two whole streams of three batches; the partial third is dropped.
    assert bench.best_of_repeats([3, 5, 1, 4, 2, 6, 9], 3) == [3, 2, 1]


def test_every_workload_has_ten_distinct_batches_beyond_a_p75_tail():
    for workload in bench.WORKLOADS.values():
        distinct = workload.settings.rounds * len(workload.approaches)
        assert bench.tail_percentile(distinct) >= 75


def test_tracing_overhead_is_the_median_per_batch_ratio():
    # The third batch's untraced replay was slowed; the median ignores it.
    untraced = [1.0, 2.0, 9.0, 4.0, 5.0]
    traced = [1.1, 2.2, 3.3, 4.4, 5.5]
    assert bench.tracing_overhead(untraced, traced) == pytest.approx(0.1)


def test_self_time_subtracts_children_and_leaves():
    spans = [
        Span("batch", 0.0, None, 0, end=10.0),
        Span("solve", 1.0, 0, 0, end=4.0, leaves={"revenue.peel": [3, 1.0]}),
        Span("game", 2.0, 1, 0, end=3.0),
        Span("validity", 5.0, 0, 0, end=7.5),
    ]
    own = self_seconds(spans)
    assert own == pytest.approx([4.5, 1.0, 1.0, 2.5])
    # Self times plus leaf time partition the root.
    assert sum(own) + 1.0 == pytest.approx(spans[0].seconds)


def test_tracer_nests_spans_and_books_leaves():
    tracer = Tracer()
    tracer.batch = 4
    peel = tracer.wrap_leaf(lambda: None, "revenue.peel")
    inner = tracer.wrap(lambda: peel() or 7, "game", lambda result: {"value": result})
    outer = tracer.wrap(inner, "solve")
    assert outer() == 7
    solve, game = tracer.spans
    assert (solve.parent, game.parent) == (None, 0)
    assert game.counters == {"value": 7}
    assert game.leaves["revenue.peel"][0] == 1
    assert {s.batch for s in tracer.spans} == {4}


class _SlowCheck:
    """An assignment whose from-scratch total takes ``delay`` seconds."""

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def total_score(self) -> float:
        return 1.0

    def check_feasible(self) -> None:
        pass

    def recompute_total(self) -> float:
        time.sleep(self.delay)
        return 1.0


def test_check_time_is_excluded_from_batch_latency():
    clock = bench.BatchClock()
    for _ in range(3):
        clock.start()
        time.sleep(0.01)
        clock.solved(_SlowCheck(0.2))
    clock.finish()
    assert clock.ok == [True, True, True]
    assert len(clock.latencies) == 3
    assert max(clock.latencies) < 0.15
    assert clock.check_seconds >= 0.6


def test_stream_window_excludes_checks(monkeypatch):
    from repro.core import bounds
    from repro.core.assignment import Assignment
    from repro.experiments import config, runner

    original = Assignment.recompute_total

    def slow(self):
        time.sleep(0.25)
        return original(self)

    monkeypatch.setattr(Assignment, "recompute_total", slow)
    workload = bench.tiny(bench.WORKLOADS["skew-sharded"])
    population, _, _ = bench.set_up(workload, None)
    clock = bench.BatchClock()
    result = bench.run_stream(workload, population, 5, clock)
    assert runner.make_solver is config.make_solver
    assert runner.upper_bound is bounds.upper_bound
    assert all(clock.ok)
    assert clock.check_seconds >= 0.25 * len(clock.latencies)
    assert max(clock.latencies) < 0.25
    assert result.window_seconds < sum(clock.latencies) + 0.2


def test_a_run_replays_its_stream_while_the_next_replay_fits(monkeypatch):
    workload = bench.WORKLOADS["skew-sharded"]
    per_stream = workload.settings.rounds

    def fake_stream(workload, population, seed, clock):
        for _ in range(per_stream):
            clock.start()
            clock.solved(_SlowCheck(0.0))
        time.sleep(0.05)
        clock.finish()
        return bench.StreamResult(1.0, 1, 0.0, 0.05, per_stream)

    monkeypatch.setattr(bench, "set_up", lambda workload, tracer: (None, 0.1, [0.1]))
    monkeypatch.setattr(bench, "time_builds", lambda workload: (None, [0.1]))
    monkeypatch.setattr(bench, "run_stream", fake_stream)
    record = bench.measure(workload, 1, 0.0, False)
    assert record["details"]["streams"] == bench.MIN_STREAMS
    assert record["attempted"] == bench.MIN_STREAMS * per_stream
    started = time.perf_counter()
    record = bench.measure(workload, 1, 0.5, False)
    assert time.perf_counter() - started < 0.5 + 0.1
    assert 5 <= record["details"]["streams"] <= 10
    assert record["correct"]


def test_traced_layers_restores_the_originals():
    from repro.core import revenue
    from repro.experiments import config

    before = (config.solve_game_theoretic, revenue.best_counted_subset)
    with layers.traced_layers(Tracer(), []):
        assert config.solve_game_theoretic is not before[0]
    assert (config.solve_game_theoretic, revenue.best_counted_subset) == before


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_smoke_run(workload, trace, tmp_path):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", trace, "--tiny", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_spec()
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    if trace == "0":
        assert result["metrics"]["ok_share"]["value"] == 1.0
    else:
        assert list(tmp_path.glob("*.spans.jsonl"))


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(
        tmp_path, "--workload", "unif-sweep", "--seed", "1", "--seconds", "2",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
