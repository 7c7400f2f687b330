"""Scan-loop oracle for the stage-1 seeding engine.

:func:`seed_groups_reference` is the historical TPG stage-1 loop: every
commit rescans all open tasks for the best cached group and drops every
cached group that shares a worker with the committed one. It costs
O(open tasks) per commit; :func:`repro.core.tpg.seed_groups` replaces it
in production with a version-stamped heap and a worker -> tasks index.
The two must agree repr-for-repr — same commits in the same order, same
``greedy_best_group`` calls — which the parity suite checks over the
audit corpus and drawn instances.

Group evaluation goes through ``repro.core.tpg.greedy_best_group`` by
module attribute, so a test that wraps that function counts the calls of
both implementations alike.
"""

from __future__ import annotations

import numpy as np

from repro.core import tpg
from repro.core.assignment import Assignment
from repro.core.kernels import DEFAULT_KERNEL
from repro.core.model import Instance
from repro.core.stats import SolverStats
from repro.core.validity import ValidPairs

__all__ = ["seed_groups_reference"]


def seed_groups_reference(
    instance: Instance,
    valid_pairs: ValidPairs,
    assignment: Assignment,
    available: np.ndarray,
    tasks,
    kernel: str = DEFAULT_KERNEL,
    stats: SolverStats | None = None,
    floor: float = -np.inf,
    share_ties: bool = True,
) -> list[int]:
    """The scan-and-stale seeding loop; same contract as ``seed_groups``."""
    minimum = instance.min_group_size
    quality = instance.quality
    buffers = quality.as_kernel_buffers() if kernel == "native" else None
    open_tasks = {int(task) for task in tasks}
    seeded: list[int] = []
    # Cached best group per task; invalidated when a member gets taken.
    cache: dict[int, tuple[list[int], float]] = {}

    while open_tasks:
        best_task, best_group, best_score = -1, [], floor
        dead_tasks: list[int] = []
        for task in sorted(open_tasks):
            if task not in cache:
                candidates = [
                    worker
                    for worker in valid_pairs.workers_for_task[task]
                    if available[worker]
                ]
                cache[task] = tpg.greedy_best_group(
                    quality, candidates, minimum, buffers=buffers, stats=stats
                )
            group, score = cache[task]
            if not group:
                dead_tasks.append(task)
                continue
            if score > best_score:
                best_task, best_group, best_score = task, group, score
            elif share_ties and score == best_score and best_group == group:
                # Competition for the same set: prefer the task with the
                # most remaining candidates (paper lines 6-9).
                if _candidate_count(valid_pairs, available, task) > _candidate_count(
                    valid_pairs, available, best_task
                ):
                    best_task = task
        for task in dead_tasks:
            open_tasks.discard(task)
            cache.pop(task, None)
        if best_task < 0:
            break

        for worker in best_group:
            assignment.assign(worker, best_task)
            available[worker] = False
        open_tasks.discard(best_task)
        cache.pop(best_task, None)
        seeded.append(best_task)
        taken = set(best_group)
        stale = [
            t for t, (group, _) in cache.items() if not taken.isdisjoint(group)
        ]
        for task in stale:
            del cache[task]
    return seeded


def _candidate_count(
    valid_pairs: ValidPairs, available: np.ndarray, task: int
) -> int:
    return sum(1 for worker in valid_pairs.workers_for_task[task] if available[worker])
