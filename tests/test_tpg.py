"""Tests for the Task-Priority Greedy solver (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quality import CooperationMatrix
from repro.core.tpg import greedy_best_group, solve_tpg, solve_tpg_with_stats
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance

from tests.conftest import make_dense_instance, make_example1_instance


class TestGreedyBestGroup:
    def test_not_enough_candidates(self):
        q = CooperationMatrix.random_uniform(5, seed=0)
        assert greedy_best_group(q, [0, 1], 3) == ([], 0.0)
        assert greedy_best_group(q, [], 2) == ([], 0.0)

    def test_pair_is_exact(self):
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 0.2
        q[2, 3] = q[3, 2] = 0.9
        matrix = CooperationMatrix(q)
        group, score = greedy_best_group(matrix, [0, 1, 2, 3], 2)
        assert sorted(group) == [2, 3]
        assert score == pytest.approx(1.8)

    def test_group_score_matches_revenue_formula(self):
        q = CooperationMatrix.random_uniform(10, seed=1)
        group, score = greedy_best_group(q, list(range(10)), 4)
        assert len(group) == 4
        assert score == pytest.approx(q.ordered_pair_sum(group) / 3)

    def test_subset_of_candidates(self):
        q = CooperationMatrix.random_uniform(10, seed=2)
        candidates = [1, 4, 7, 9]
        group, _ = greedy_best_group(q, candidates, 3)
        assert set(group) <= set(candidates)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.integers(3, 8))
    def test_greedy_close_to_exhaustive(self, seed, count):
        import itertools

        q = CooperationMatrix.random_uniform(count, seed=seed)
        candidates = list(range(count))
        group, score = greedy_best_group(q, candidates, 3)
        best = max(
            q.ordered_pair_sum(list(combo)) / 2
            for combo in itertools.combinations(candidates, 3)
        )
        assert score >= 0.5 * best - 1e-9
        assert score <= best + 1e-9


class TestSolveTPG:
    def test_feasible_on_dense_instance(self):
        instance = make_dense_instance(30, 6, seed=2)
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        assignment.check_feasible()
        assert assignment.total_score() > 0

    def test_respects_validity_on_sparse_instance(self):
        instance = generate_instance(80, 15, seed=9)
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        assignment.check_feasible()
        for worker, task in assignment.to_pairs():
            assert pairs.is_valid(worker, task)

    def test_computes_valid_pairs_when_omitted(self):
        instance = make_dense_instance(20, 4, seed=3)
        assert solve_tpg(instance).total_score() == pytest.approx(
            solve_tpg(instance, compute_valid_pairs(instance)).total_score()
        )

    def test_beats_random_on_community_instance(self):
        from repro.core.baselines.random_assign import solve_random

        instance = make_dense_instance(40, 6, seed=4)
        pairs = compute_valid_pairs(instance)
        tpg_score = solve_tpg(instance, pairs).total_score()
        random_scores = [
            solve_random(instance, pairs, seed=s).total_score() for s in range(5)
        ]
        assert tpg_score >= max(random_scores)

    def test_solves_example1_optimally(self):
        instance, w, t = make_example1_instance()
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        # Optimal: {w1,w4} -> t1 and {w2,w3} -> t2, total 1.8.
        assert assignment.total_score() == pytest.approx(1.8)
        assert sorted(assignment.members(t["t1"])) == [w["w1"], w["w4"]]
        assert sorted(assignment.members(t["t2"])) == [w["w2"], w["w3"]]

    def test_no_workers(self):
        instance = generate_instance(0, 5, seed=0)
        assignment = solve_tpg(instance)
        assert assignment.total_score() == 0.0

    def test_no_tasks(self):
        instance = generate_instance(10, 0, seed=0)
        assignment = solve_tpg(instance)
        assert assignment.total_score() == 0.0

    def test_seeded_tasks_counted(self):
        instance = make_dense_instance(30, 5, seed=6)
        pairs = compute_valid_pairs(instance)
        result = solve_tpg_with_stats(instance, pairs)
        assert 0 <= result.seeded_tasks <= instance.task_count
        # Every seeded task has at least B members in the assignment.
        completed = result.assignment.completed_task_count()
        assert completed >= result.seeded_tasks or completed == result.seeded_tasks

    def test_stage_two_fills_to_capacity_when_profitable(self):
        # All-equal quality: every addition has positive gain, so seeded
        # tasks should fill completely while workers remain.
        q = CooperationMatrix(np.full((12, 12), 0.5))
        instance = make_dense_instance(12, 2, capacity=5, seed=7)
        instance = type(instance)(
            workers=instance.workers,
            tasks=instance.tasks,
            quality=q,
            min_group_size=instance.min_group_size,
        )
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        filled = sum(
            assignment.assigned_count(task) for task in range(instance.task_count)
        )
        available = sum(
            1
            for worker in range(instance.worker_count)
            if pairs.tasks_for_worker[worker]
        )
        expected = min(available, 5 * instance.task_count)
        assert filled == expected

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_property_always_feasible(self, seed):
        instance = generate_instance(
            40,
            8,
            speed_range=(0.05, 0.3),
            radius_range=(0.1, 0.5),
            seed=seed,
        )
        pairs = compute_valid_pairs(instance)
        assignment = solve_tpg(instance, pairs)
        assignment.check_feasible()
        assert assignment.total_score() >= -1e-9


class TestExactBestGroup:
    def test_exact_is_optimal(self):
        import itertools

        from repro.core.tpg import exact_best_group

        q = CooperationMatrix.random_uniform(8, seed=5)
        group, score = exact_best_group(q, list(range(8)), 3)
        best = max(
            q.ordered_pair_sum(list(combo)) / 2
            for combo in itertools.combinations(range(8), 3)
        )
        assert score == pytest.approx(best)
        assert len(group) == 3

    def test_exact_not_enough_candidates(self):
        from repro.core.tpg import exact_best_group

        q = CooperationMatrix.random_uniform(4, seed=0)
        assert exact_best_group(q, [0, 1], 3) == ([], 0.0)

    def test_greedy_uses_exact_below_threshold(self):
        """With <= EXACT_SEED_THRESHOLD candidates the greedy result must
        equal the exhaustive optimum."""
        from repro.core.tpg import EXACT_SEED_THRESHOLD, exact_best_group

        q = CooperationMatrix.random_uniform(EXACT_SEED_THRESHOLD, seed=6)
        candidates = list(range(EXACT_SEED_THRESHOLD))
        greedy_group, greedy_score = greedy_best_group(q, candidates, 3)
        exact_group, exact_score = exact_best_group(q, candidates, 3)
        assert greedy_score == pytest.approx(exact_score)


def _crafted(q, reach, minimum=2):
    """An instance whose validity is ``reach`` (task -> reachable workers).

    Every task's capacity is ``minimum``, so stage 2 adds nothing and the
    assignment shows stage 1's commits as they were made.
    """
    from repro.core.model import Instance, Task, Worker
    from repro.core.validity import ValidPairs
    from repro.spatial.geometry import Point

    size = len(q)
    workers = [
        Worker(worker_id=i, location=Point(0.0, 0.0), speed=1.0, radius=1.0)
        for i in range(size)
    ]
    tasks = [
        Task(task_id=j, location=Point(0.0, 0.0), capacity=minimum, deadline=9.0)
        for j in range(len(reach))
    ]
    instance = Instance(
        workers=workers,
        tasks=tasks,
        quality=CooperationMatrix(np.asarray(q, dtype=float)),
        min_group_size=minimum,
    )
    per_worker = [
        [task for task, reachable in enumerate(reach) if worker in reachable]
        for worker in range(size)
    ]
    return instance, ValidPairs.from_worker_lists(per_worker, len(reach))


def _pair_quality(size, edges):
    q = np.zeros((size, size))
    for (i, k), value in edges.items():
        q[i, k] = q[k, i] = value
    return q


class TestStageOneTieBreak:
    """Paper lines 6-9: tasks tied on the same group, and the other ties."""

    def test_two_tasks_tied_on_one_group_go_to_wider_choice(self):
        # Both tasks' best group is [0, 1] at the same score; task 1 keeps
        # three candidates to task 0's two, so task 1 takes the group.
        q = _pair_quality(3, {(0, 1): 0.9, (0, 2): 0.1, (1, 2): 0.1})
        instance, pairs = _crafted(q, [{0, 1}, {0, 1, 2}])
        result = solve_tpg_with_stats(instance, pairs)
        assert set(result.assignment.members(1)) == {0, 1}
        assert set(result.assignment.members(0)) == set()
        assert result.seeded_tasks == 1

    @pytest.mark.parametrize(
        "reach, winner",
        [
            # Candidate counts 2, 4, 3: the widest task wins.
            ([{0, 1}, {0, 1, 2, 3}, {0, 1, 2}], 1),
            # Counts 2, 3, 3: a later task must be strictly wider than
            # the running best to take over.
            ([{0, 1}, {0, 1, 2}, {0, 1, 3}], 1),
            # Counts 3, 2, 4.
            ([{0, 1, 2}, {0, 1}, {0, 1, 2, 3}], 2),
        ],
    )
    def test_three_tasks_tied_on_one_group(self, reach, winner):
        q = _pair_quality(4, {(0, 1): 0.9, (2, 3): 0.1})
        instance, pairs = _crafted(q, reach)
        result = solve_tpg_with_stats(instance, pairs)
        assert set(result.assignment.members(winner)) == {0, 1}
        for task in range(3):
            if task != winner:
                assert not {0, 1} & set(result.assignment.members(task))

    def test_equal_scores_on_different_groups_go_to_lowest_id(self):
        # Task 0's best is [0, 1] and task 1's is [1, 2], both at 1.8.
        # Task 1 has more candidates, but the groups differ, so the lower
        # id commits first and task 1 falls back to [2, 3].
        q = _pair_quality(4, {(0, 1): 0.9, (1, 2): 0.9, (2, 3): 0.1})
        instance, pairs = _crafted(q, [{0, 1}, {1, 2, 3}])
        assignment = solve_tpg(instance, pairs)
        assert set(assignment.members(0)) == {0, 1}
        assert set(assignment.members(1)) == {2, 3}


class TestBorderSeedingRules:
    @staticmethod
    def _seed(instance, pairs):
        from repro.core.assignment import Assignment
        from repro.core.sharding.reconcile import seed_border_groups

        assignment = Assignment(instance, pairs, allow_overflow=True)
        seeded = seed_border_groups(
            instance,
            pairs,
            assignment,
            range(instance.worker_count),
            range(instance.task_count),
        )
        return seeded, assignment

    def test_ties_go_to_lowest_task_id(self):
        # The stage-1 instance where the wider task 1 wins under TPG: the
        # border rule ignores candidate counts.
        q = _pair_quality(3, {(0, 1): 0.9, (0, 2): 0.1, (1, 2): 0.1})
        instance, pairs = _crafted(q, [{0, 1}, {0, 1, 2}])
        seeded, assignment = self._seed(instance, pairs)
        assert seeded == 2
        assert set(assignment.members(0)) == {0, 1}
        assert set(assignment.members(1)) == set()

    def test_only_strictly_positive_groups_commit(self):
        # Task 0's only group scores 0.0: TPG seeds it, border seeding
        # does not.
        q = _pair_quality(4, {(0, 1): 0.5})
        instance, pairs = _crafted(q, [{2, 3}, {0, 1}])
        seeded, assignment = self._seed(instance, pairs)
        assert seeded == 2
        assert set(assignment.members(0)) == set()
        assert set(assignment.members(1)) == {0, 1}
        assert set(solve_tpg(instance, pairs).members(0)) == {2, 3}
