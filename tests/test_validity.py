"""Tests for the Definition 3 valid-pair computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validity import ValidPairs, compute_valid_pairs
from repro.datasets.synthetic import generate_instance

from tests.conftest import make_dense_instance


class TestValidPairsStructure:
    def test_from_worker_lists_transposes(self):
        pairs = ValidPairs.from_worker_lists([[0, 1], [1], []], task_count=2)
        assert pairs.tasks_for_worker == ((0, 1), (1,), ())
        assert pairs.workers_for_task == ((0,), (0, 1))
        assert pairs.pair_count == 3

    def test_duplicates_deduplicated(self):
        pairs = ValidPairs.from_worker_lists([[1, 1, 0]], task_count=2)
        assert pairs.tasks_for_worker == ((0, 1),)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ValidPairs.from_worker_lists([[5]], task_count=2)

    def test_is_valid_and_iter(self):
        pairs = ValidPairs.from_worker_lists([[0], [1]], task_count=2)
        assert pairs.is_valid(0, 0)
        assert not pairs.is_valid(0, 1)
        assert sorted(pairs.iter_pairs()) == [(0, 0), (1, 1)]


class TestComputeValidPairs:
    def test_unknown_strategy(self):
        instance = make_dense_instance(10, 3)
        with pytest.raises(ValueError):
            compute_valid_pairs(instance, strategy="quadtree")

    def test_matches_definition(self):
        instance = make_dense_instance(25, 5, seed=3)
        pairs = compute_valid_pairs(instance)
        for worker in range(instance.worker_count):
            for task in range(instance.task_count):
                assert pairs.is_valid(worker, task) == instance.is_pair_valid(
                    worker, task
                )

    @pytest.mark.parametrize("strategy", ["rtree", "grid", "kdtree", "matrix"])
    def test_strategies_agree(self, strategy):
        instance = generate_instance(60, 15, seed=5)
        reference = compute_valid_pairs(instance, strategy="matrix")
        result = compute_valid_pairs(instance, strategy=strategy)
        assert result == reference

    def test_empty_instances(self):
        instance = make_dense_instance(4, 2)
        empty_workers = generate_instance(0, 3, seed=0)
        assert compute_valid_pairs(empty_workers).pair_count == 0
        empty_tasks = generate_instance(5, 0, seed=0)
        assert compute_valid_pairs(empty_tasks).pair_count == 0
        assert compute_valid_pairs(instance).pair_count >= 0

    def test_deadline_excludes_pairs(self):
        # Tiny remaining time: only on-the-spot workers qualify.
        tight = generate_instance(
            50, 10, remaining_time=1e-6, radius_range=(0.5, 0.9), seed=2
        )
        loose = generate_instance(
            50, 10, remaining_time=10.0, radius_range=(0.5, 0.9), seed=2
        )
        tight_pairs = compute_valid_pairs(tight).pair_count
        loose_pairs = compute_valid_pairs(loose).pair_count
        assert tight_pairs < loose_pairs

    def test_radius_monotone(self):
        small = generate_instance(50, 10, radius_range=(0.02, 0.05), seed=4)
        large = generate_instance(50, 10, radius_range=(0.4, 0.8), seed=4)
        assert (
            compute_valid_pairs(small).pair_count
            <= compute_valid_pairs(large).pair_count
        )


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 40),
    st.integers(0, 10),
    st.integers(0, 10**6),
)
def test_property_strategies_always_agree(worker_count, task_count, seed):
    instance = generate_instance(
        worker_count,
        task_count,
        speed_range=(0.05, 0.4),
        radius_range=(0.05, 0.6),
        seed=seed,
    )
    matrix = compute_valid_pairs(instance, strategy="matrix")
    grid = compute_valid_pairs(instance, strategy="grid")
    rtree = compute_valid_pairs(instance, strategy="rtree")
    kdtree = compute_valid_pairs(instance, strategy="kdtree")
    assert matrix == grid == rtree == kdtree


class TestReachLimitRegression:
    def test_reach_limit_is_speed_bounded(self):
        # Regression: ``_reach_limit`` returned ``r_i`` alone, ignoring
        # that a worker can never pass ``v_i * max_remaining`` before
        # every deadline expires. The fixed bound is
        # ``min(r_i, v_i * max_remaining)`` (plus float slack).
        from repro.core.validity import _max_remaining, _reach_limit

        instance = generate_instance(
            5, 3, speed_range=(0.01, 0.02), radius_range=(0.8, 0.9), seed=0
        )
        max_remaining = _max_remaining(instance)
        for worker_index, worker in enumerate(instance.workers):
            limit = _reach_limit(instance, worker_index, max_remaining)
            assert limit <= worker.radius
            assert limit <= worker.speed * max_remaining * (1.0 + 1e-9)

    def test_zero_speed_worker_reaches_only_distance_zero(self):
        from repro.core.validity import _max_remaining, _reach_limit
        from repro.core.model import Instance, Task, Worker
        from repro.core.quality import CooperationMatrix
        from repro.spatial.geometry import Point
        import numpy as np

        workers = [
            Worker(worker_id=0, location=Point(0.5, 0.5), speed=0.0, radius=1.0),
            Worker(worker_id=1, location=Point(0.0, 0.0), speed=1.0, radius=1.0),
        ]
        tasks = [
            Task(task_id=0, location=Point(0.5, 0.5), capacity=2, deadline=2.0,
                 created_time=0.0),
            Task(task_id=1, location=Point(0.6, 0.5), capacity=2, deadline=2.0,
                 created_time=0.0),
        ]
        quality = CooperationMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]))
        instance = Instance(
            workers=workers, tasks=tasks, quality=quality,
            min_group_size=2, now=0.0,
        )
        assert _reach_limit(instance, 0, _max_remaining(instance)) == 0.0
        # The radius-0 range query still returns the co-located task:
        # <w0, t0> is valid (distance 0), <w0, t1> is not.
        for strategy in ("rtree", "grid", "kdtree", "matrix"):
            pairs = compute_valid_pairs(instance, strategy=strategy)
            assert pairs.is_valid(0, 0), strategy
            assert not pairs.is_valid(0, 1), strategy
            assert pairs.is_valid(1, 0) and pairs.is_valid(1, 1), strategy

    def test_expired_deadlines_and_empty_task_lists(self):
        from repro.core.validity import _max_remaining

        expired = generate_instance(8, 3, remaining_time=1.0, seed=5)
        expired = type(expired)(
            workers=expired.workers,
            tasks=expired.tasks,
            quality=expired.quality,
            min_group_size=expired.min_group_size,
            now=max(t.deadline for t in expired.tasks) + 1.0,
        )
        assert _max_remaining(expired) == 0.0
        for strategy in ("rtree", "grid", "kdtree", "matrix"):
            assert compute_valid_pairs(expired, strategy=strategy).pair_count == 0

    def test_speed_bound_preserves_four_way_parity(self):
        # Slow workers with big radii are exactly where the new bound
        # prunes; the four strategies must keep agreeing there.
        for seed in range(6):
            instance = generate_instance(
                40, 8,
                speed_range=(0.005, 0.05),
                radius_range=(0.3, 0.9),
                remaining_time=2.0,
                seed=seed,
            )
            reference = compute_valid_pairs(instance, strategy="matrix")
            for strategy in ("rtree", "grid", "kdtree"):
                assert compute_valid_pairs(instance, strategy=strategy) == reference


class TestIncrementalValidityIndex:
    """The delta-maintained task index must match the full rebuild
    round-by-round, and its reach bound must tighten when the task that
    carries the longest deadline leaves the pool."""

    @staticmethod
    def _instance(workers, tasks, now):
        import numpy as np

        from repro.core.model import Instance
        from repro.core.quality import CooperationMatrix

        count = len(workers)
        q = np.full((count, count), 0.5)
        return Instance(
            workers=workers,
            tasks=tasks,
            quality=CooperationMatrix(q),
            min_group_size=2,
            now=now,
        )

    def test_matches_full_rebuild_across_evolving_pool(self):
        import numpy as np

        from repro.core.model import Task, Worker
        from repro.core.validity import IncrementalValidityIndex
        from repro.spatial.geometry import Point

        rng = np.random.default_rng(11)
        index = IncrementalValidityIndex(mean_radius=0.2)
        pool: list[Task] = []
        next_id = 0
        for round_index in range(6):
            now = float(round_index)
            # Expiries leave, a few arrivals join, one random departure
            # (a served task) leaves.
            pool = [task for task in pool if task.deadline >= now]
            if pool and round_index % 2:
                pool.pop(int(rng.integers(len(pool))))
            for _ in range(4):
                x, y = rng.random(2)
                pool.append(
                    Task(
                        task_id=next_id,
                        location=Point(float(x), float(y)),
                        capacity=3,
                        deadline=now + float(rng.uniform(0.5, 3.0)),
                        created_time=now,
                    )
                )
                next_id += 1
            workers = [
                Worker(
                    worker_id=i,
                    location=Point(float(rng.random()), float(rng.random())),
                    speed=float(rng.uniform(0.05, 0.3)),
                    radius=float(rng.uniform(0.1, 0.4)),
                )
                for i in range(12)
            ]
            instance = self._instance(workers, list(pool), now)
            index.sync(instance.tasks)
            assert len(index) == len(pool)
            incremental = index.compute(instance)
            rebuilt = compute_valid_pairs(instance, strategy="grid")
            assert incremental == rebuilt, f"round {round_index}"

    def test_expired_candidate_tightens_reach_bound(self):
        from repro.core.model import Task, Worker
        from repro.core.validity import (
            IncrementalValidityIndex,
            _max_remaining,
        )
        from repro.spatial.geometry import Point

        # Round 0: the worker's only candidate is a long-deadline task
        # 0.2 away. Round 1: it has expired; the surviving task's
        # deadline is much shorter. A bound cached from round 0 would
        # still cover distance speed * ~2.0 — wide enough to (wrongly)
        # keep scanning the far cell — so the pin is that the index's
        # max_remaining re-derives from the live pool.
        worker = Worker(
            worker_id=0, location=Point(0.0, 0.0), speed=0.1, radius=1.0
        )
        only_candidate = Task(
            task_id=0, location=Point(0.2, 0.0), capacity=3, deadline=2.0
        )
        far_short = Task(
            task_id=1, location=Point(0.9, 0.0), capacity=3,
            deadline=2.5, created_time=0.0,
        )
        index = IncrementalValidityIndex(mean_radius=0.2)

        index.sync([only_candidate, far_short])
        first = self._instance([worker], [only_candidate, far_short], now=0.0)
        assert index.max_remaining(0.0) == _max_remaining(first)
        pairs = index.compute(first)
        assert pairs.tasks_for_worker[0] == (0,)

        # Between rounds both tasks' deadlines pass; a new nearby task
        # with a short fuse arrives.
        fresh = Task(
            task_id=2, location=Point(0.01, 0.0), capacity=3,
            deadline=3.2, created_time=3.0,
        )
        index.sync([fresh])
        second = self._instance([worker], [fresh], now=3.0)
        # The bound tightened: 0.2 (remaining) not 2.0 (stale round-0).
        assert index.max_remaining(3.0) == _max_remaining(second)
        assert index.max_remaining(3.0) == pytest.approx(0.2)
        incremental = index.compute(second)
        assert incremental == compute_valid_pairs(second, strategy="grid")
        # Positional index 0 — the fresh task is reachable (0.1 travel).
        assert incremental.tasks_for_worker[0] == (0,)

    def test_cell_size_follows_the_vectorized_build(self):
        # Both run _grid_valid_lists, so the index sizes its cells by the
        # same multiple of the mean radius as a fresh vectorized build.
        from repro.core.validity import (
            _GRID_VECTOR_CELL_MULTIPLIER,
            IncrementalValidityIndex,
        )

        index = IncrementalValidityIndex(mean_radius=0.05)
        assert index._index.cell_size == pytest.approx(
            0.05 * _GRID_VECTOR_CELL_MULTIPLIER
        )

    def test_sync_rejects_duplicate_ids_and_unsynced_compute(self):
        from repro.core.model import Task, Worker
        from repro.core.validity import IncrementalValidityIndex
        from repro.spatial.geometry import Point

        task = Task(task_id=0, location=Point(0.5, 0.5), capacity=3, deadline=2.0)
        index = IncrementalValidityIndex(mean_radius=0.25)
        with pytest.raises(ValueError):
            index.sync([task, task])
        worker = Worker(worker_id=0, location=Point(0.5, 0.5), speed=0.1, radius=1.0)
        instance = self._instance([worker], [task], now=0.0)
        with pytest.raises(ValueError):
            index.compute(instance)
