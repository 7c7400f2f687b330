"""Valid worker-and-task pairs — Definition 3 and Algorithm 1 lines 4-5.

A pair ``<w_i, t_j>`` is valid when the task lies inside the worker's
working area (radius ``r_i``) and the worker can reach the task location
before its deadline at speed ``v_i``. The batch framework computes, for
every worker, the valid task set ``T_i`` by a circular range query over a
spatial index of task locations — exactly the paper's R-tree recipe — and
then applies the deadline filter.

Four interchangeable strategies are provided:

* ``"rtree"`` — STR bulk-loaded R-tree (the paper's choice);
* ``"grid"``  — uniform hash grid, usually fastest here;
* ``"kdtree"`` — balanced median-split k-d tree;
* ``"matrix"`` — fully vectorized numpy distance matrix, best for small
  batches where index construction dominates.

All four produce identical results (asserted by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.model import Instance, Task
from repro.spatial.geometry import pairwise_distances
from repro.spatial.grid import GridIndex
from repro.spatial.kdtree import KDTree
from repro.spatial.rtree import RTree

__all__ = [
    "ValidPairs",
    "compute_valid_pairs",
    "compute_valid_pairs_reference",
    "IncrementalValidityIndex",
    "STRATEGIES",
]

#: The interchangeable validity strategies (all produce identical
#: results; the audit harness cross-checks them on every instance).
STRATEGIES = ("rtree", "grid", "kdtree", "matrix")
_STRATEGIES = STRATEGIES


@dataclass(frozen=True)
class ValidPairs:
    """The bipartite validity structure of one batch.

    ``tasks_for_worker[i]`` lists task indices worker ``i`` may serve
    (the paper's ``T_i``); ``workers_for_task[j]`` is the transpose view.
    Both sides are sorted ascending for determinism.
    """

    tasks_for_worker: tuple[tuple[int, ...], ...]
    workers_for_task: tuple[tuple[int, ...], ...]

    @property
    def pair_count(self) -> int:
        """Total number of valid worker-task pairs (cached).

        Read every simulation round by the batch reporter and inside
        stats loops; the tuple-of-tuples re-sum is O(m) per call, so the
        first computation is memoized on the frozen instance the same
        way as the ``is_valid`` side-index.
        """
        cached = self.__dict__.get("_pair_count_cache")
        if cached is None:
            cached = sum(len(tasks) for tasks in self.tasks_for_worker)
            object.__setattr__(self, "_pair_count_cache", cached)
        return cached

    def is_valid(self, worker: int, task: int) -> bool:
        """O(1) membership via a lazily-built frozenset side-index.

        Called inside ``Assignment.assign`` and the local-search inner
        loops, where the previous O(k) tuple scan was a measurable cost
        for high-degree workers.
        """
        return task in self._task_sets[worker]

    @property
    def _task_sets(self) -> tuple[frozenset, ...]:
        cached = self.__dict__.get("_task_sets_cache")
        if cached is None:
            cached = tuple(frozenset(tasks) for tasks in self.tasks_for_worker)
            object.__setattr__(self, "_task_sets_cache", cached)
        return cached

    def iter_pairs(self):
        """Yield all valid ``(worker, task)`` pairs."""
        for worker, tasks in enumerate(self.tasks_for_worker):
            for task in tasks:
                yield worker, task

    @classmethod
    def from_worker_lists(
        cls, tasks_for_worker, task_count: int
    ) -> "ValidPairs":
        """Build (and transpose) from per-worker task lists."""
        per_worker = tuple(tuple(sorted(set(tasks))) for tasks in tasks_for_worker)
        per_task: list[list[int]] = [[] for _ in range(task_count)]
        for worker, tasks in enumerate(per_worker):
            for task in tasks:
                if not 0 <= task < task_count:
                    raise ValueError(f"task index {task} out of range")
                per_task[task].append(worker)
        return cls(
            tasks_for_worker=per_worker,
            workers_for_task=tuple(tuple(workers) for workers in per_task),
        )

    @classmethod
    def from_sorted_rows(cls, rows, task_count: int) -> "ValidPairs":
        """Build from per-worker arrays already sorted and duplicate-free.

        The vectorized grid path emits rows with both properties by
        construction (each task lives in exactly one grid cell, and
        candidates are pre-sorted per rectangle group), so the
        per-element set/sort of :meth:`from_worker_lists` is skipped and
        the transpose comes from one stable argsort over the flattened
        pairs instead of per-pair list appends. Output is structurally
        identical to ``from_worker_lists`` on the same membership.
        """
        worker_count = len(rows)
        counts = np.fromiter(
            (len(row) for row in rows), dtype=np.int64, count=worker_count
        )
        total = int(counts.sum())
        if total == 0:
            return cls(
                tuple(() for _ in range(worker_count)),
                tuple(() for _ in range(task_count)),
            )
        tasks_flat = np.concatenate(
            [np.asarray(row, dtype=np.int64) for row in rows if len(row)]
        )
        if int(tasks_flat.min()) < 0 or int(tasks_flat.max()) >= task_count:
            raise ValueError("task index out of range")
        # One bulk tolist per side, then islice consumption — far
        # cheaper than a small ndarray.tolist per worker/task at scale.
        worker_iter = iter(tasks_flat.tolist())
        per_worker = tuple(
            tuple(islice(worker_iter, width)) for width in counts.tolist()
        )
        workers_flat = np.repeat(
            np.arange(worker_count, dtype=np.int32), counts
        )
        # int32 keys roughly halve the stable (radix) argsort cost and
        # are always wide enough: indices were range-checked above.
        order = np.argsort(tasks_flat.astype(np.int32), kind="stable")
        task_widths = np.bincount(
            tasks_flat, minlength=task_count
        ).tolist()
        task_iter = iter(workers_flat[order].tolist())
        per_task = tuple(
            tuple(islice(task_iter, width)) for width in task_widths
        )
        return cls(per_worker, per_task)


def compute_valid_pairs(
    instance: Instance, strategy: str = "grid", travel_model=None
) -> ValidPairs:
    """Compute Definition 3's valid pairs for a batch.

    Parameters
    ----------
    instance:
        The batch to analyse.
    strategy:
        ``"rtree"``, ``"grid"``, ``"kdtree"`` or ``"matrix"`` (see module
        docstring).
    travel_model:
        Optional alternative travel metric (e.g.
        :class:`~repro.spatial.roadnet.RoadNetworkTravel`). The working
        area stays Euclidean (it is the worker's stated *preference*
        radius), but the can-the-worker-arrive-in-time check uses the
        model's distances. ``None`` keeps the paper's straight-line
        travel.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {_STRATEGIES}")
    if instance.task_count == 0 or instance.worker_count == 0:
        return ValidPairs.from_worker_lists(
            [[] for _ in range(instance.worker_count)], instance.task_count
        )
    if travel_model is not None:
        return _compute_with_travel_model(instance, travel_model)
    if strategy == "matrix":
        return _compute_matrix(instance)
    return _compute_indexed(instance, strategy)


#: Relative slack on the speed x deadline reach bound. A valid pair
#: satisfies ``distance / v_i <= remaining_j`` under *rounded* float
#: division, which does not strictly imply ``distance <= v_i *
#: remaining_j`` under rounded multiplication; a few ulps of headroom
#: keep the range query a superset of the post-filtered valid set.
_REACH_SLACK = 1.0 + 1e-12


def _max_remaining(instance: Instance) -> float:
    """Longest remaining deadline over the batch's tasks, clamped >= 0."""
    if not instance.tasks:
        return 0.0
    return max(
        0.0, max(task.remaining_time(instance.now) for task in instance.tasks)
    )


def _reach_limit(
    instance: Instance, worker_index: int, max_remaining: float
) -> float:
    """The worker's effective reach: within radius *and* within speed x
    longest remaining deadline is necessary; the per-task deadline check
    happens after the range query.

    ``min(r_i, v_i * max_remaining)`` prunes candidates for slow workers
    with large preference radii (a zero-speed worker only ever reaches
    distance 0). The slack factor keeps the bound a strict superset of
    :func:`_deadline_ok`, so all four strategies stay identical.
    """
    worker = instance.workers[worker_index]
    return min(worker.radius, worker.speed * max_remaining * _REACH_SLACK)


def _compute_indexed(
    instance: Instance, strategy: str, vectorized: bool = True
) -> ValidPairs:
    task_items = [
        (index, task.location) for index, task in enumerate(instance.tasks)
    ]
    if strategy == "rtree":
        index = RTree.bulk_load(task_items)
    elif strategy == "kdtree":
        index = KDTree.build(task_items)
    else:
        mean_radius = float(
            np.mean([worker.radius for worker in instance.workers])
        )
        # Membership is invariant to the cell size (the range query and
        # deadline filters are exact), so the two grid paths pick the
        # granularity that suits them: the scalar loop wants small cells
        # (fewer non-candidates scanned per bucket), the batched path
        # wants coarse cells (fewer rectangle groups, so the per-group
        # numpy dispatch overhead amortizes over bigger blocks).
        if vectorized:
            cell = _vector_cell_size(mean_radius)
        else:
            cell = max(mean_radius, 1e-6)
        index = GridIndex.build(task_items, cell_size=cell)

    max_remaining = _max_remaining(instance)
    if strategy == "grid" and vectorized:
        return ValidPairs.from_sorted_rows(
            _grid_valid_lists(instance, index, max_remaining),
            instance.task_count,
        )
    tasks_for_worker: list[list[int]] = []
    for worker_index, worker in enumerate(instance.workers):
        candidates = index.query_circle(
            worker.location, _reach_limit(instance, worker_index, max_remaining)
        )
        valid = [
            task_index
            for task_index in candidates
            if _deadline_ok(instance, worker_index, task_index)
        ]
        tasks_for_worker.append(valid)
    return ValidPairs.from_worker_lists(tasks_for_worker, instance.task_count)


def compute_valid_pairs_reference(instance: Instance) -> ValidPairs:
    """Scalar per-worker grid construction — the vectorized path's oracle.

    Runs the historical ``query_circle`` + per-candidate ``_deadline_ok``
    loop over the same grid the vectorized path batches over; the audit
    harness and the bench guard compare the two for membership parity.
    """
    if instance.task_count == 0 or instance.worker_count == 0:
        return ValidPairs.from_worker_lists(
            [[] for _ in range(instance.worker_count)], instance.task_count
        )
    return _compute_indexed(instance, "grid", vectorized=False)


#: Cell-size factor of the vectorized grid build relative to the mean
#: worker radius (the scalar path's cell size). Coarser cells trade a
#: wider candidate superset (cheap float32 prefilter cells) for far
#: fewer worker rectangle groups; ~3x is the sweet spot at n = 20k.
_GRID_VECTOR_CELL_MULTIPLIER = 3.0


def _vector_cell_size(mean_radius: float) -> float:
    """Grid cell size of the vectorized build for a mean worker radius."""
    return max(float(mean_radius) * _GRID_VECTOR_CELL_MULTIPLIER, 1e-6)


#: Row-chunk budget for the batched distance matrices: a worker-group's
#: (rows x candidates) block is processed in slices of at most this many
#: float64 cells, bounding peak memory regardless of how many workers
#: share one cell rectangle.
_GRID_BLOCK_CELLS = 2_000_000

#: Reach-margin factor of the squared-distance prefilter. The prefilter
#: runs in float32 (it only has to be a *superset* of the exact test,
#: and halving the bandwidth of the big block matrices is the point);
#: the comparison radius is inflated additively by ``scale * 1e-5``,
#: where ``scale`` bounds the coordinate magnitudes, which dwarfs the
#: worst-case float32 cast/subtract/square error (~4 ulps, i.e. ~2.4e-7
#: relative to ``scale``) while still rejecting essentially everything
#: outside the circle. Exact float64 hypot decides membership for the
#: survivors.
_PREFILTER_MARGIN = 1e-5


def _cell_table(index: GridIndex, position_of=None):
    """Per-cell candidate arrays: ``(cx, cy) -> (positions, xs, ys)``.

    ``position_of`` maps bucket items (stable task ids in the
    incremental index) to task positions; ``None`` means items already
    *are* positions (the fresh-build path).
    """
    table: dict = {}
    for key, bucket in index.cells():
        count = len(bucket)
        if position_of is None:
            positions = np.fromiter(
                (item for item, _ in bucket), dtype=np.int64, count=count
            )
        else:
            positions = np.fromiter(
                (position_of[item] for item, _ in bucket),
                dtype=np.int64,
                count=count,
            )
        xs = np.fromiter(
            (point.x for _, point in bucket), dtype=np.float64, count=count
        )
        ys = np.fromiter(
            (point.y for _, point in bucket), dtype=np.float64, count=count
        )
        table[key] = (positions, xs, ys)
    return table


def _grid_valid_lists(
    instance: Instance,
    index: GridIndex,
    max_remaining: float,
    position_of=None,
) -> "list[np.ndarray]":
    """Batched grid validity: per-worker candidate lists, membership
    identical to the scalar ``query_circle`` + ``_deadline_ok`` loop.

    Workers sharing the same candidate cell rectangle are scored as one
    broadcast block — distances via :func:`np.hypot` (the elementwise
    twin of ``Point.distance_to``'s ``math.hypot``), then the same two
    masks the scalar path applies: within the reach limit, and
    deadline-feasible (``remaining < 0`` rejects; zero-speed workers
    only reach distance 0; otherwise ``distance / speed <= remaining``).
    Each emitted row is sorted ascending and duplicate-free (candidates
    are argsorted once per rectangle group; a task lives in exactly one
    cell), satisfying :meth:`ValidPairs.from_sorted_rows`'s contract.
    """
    workers = instance.workers
    cell_size = index.cell_size
    table = _cell_table(index, position_of)
    remaining = np.fromiter(
        (task.remaining_time(instance.now) for task in instance.tasks),
        dtype=np.float64,
        count=instance.task_count,
    )
    count = len(workers)
    wx = np.fromiter(
        (w.location.x for w in workers), dtype=np.float64, count=count
    )
    wy = np.fromiter(
        (w.location.y for w in workers), dtype=np.float64, count=count
    )
    radii = np.fromiter(
        (w.radius for w in workers), dtype=np.float64, count=count
    )
    speeds = np.fromiter(
        (w.speed for w in workers), dtype=np.float64, count=count
    )
    # Same float expression as _reach_limit, elementwise.
    limits = np.minimum(radii, speeds * max_remaining * _REACH_SLACK)
    # Coordinate/limit magnitude bound for the prefilter's additive
    # reach margin.
    scale = 1.0
    if count:
        scale = max(
            scale,
            float(np.abs(wx).max()),
            float(np.abs(wy).max()),
            float(limits.max()),
        )
    for _, xs, ys in table.values():
        scale = max(
            scale, float(np.abs(xs).max()), float(np.abs(ys).max())
        )
    margin = scale * _PREFILTER_MARGIN

    # query_circle's inclusive cell rectangle, elementwise: identical
    # IEEE subtract/divide then floor, so the scanned cells match the
    # scalar path cell-for-cell.
    min_cx = np.floor((wx - limits) / cell_size).astype(np.int64)
    max_cx = np.floor((wx + limits) / cell_size).astype(np.int64)
    min_cy = np.floor((wy - limits) / cell_size).astype(np.int64)
    max_cy = np.floor((wy + limits) / cell_size).astype(np.int64)

    groups: dict[tuple[int, int, int, int], list[int]] = {}
    for row in range(count):
        key = (
            int(min_cx[row]),
            int(max_cx[row]),
            int(min_cy[row]),
            int(max_cy[row]),
        )
        groups.setdefault(key, []).append(row)

    empty_row = np.empty(0, dtype=np.int64)
    result: list[np.ndarray] = [empty_row] * count
    # Distinct rectangles frequently clip to the same subset of present
    # cells (coarse cells, map edges), so the sorted candidate bundles
    # are memoized by that subset.
    bundles: dict = {}
    for (cx_lo, cx_hi, cy_lo, cy_hi), rows in groups.items():
        keys = tuple(
            (cx, cy)
            for cx in range(cx_lo, cx_hi + 1)
            for cy in range(cy_lo, cy_hi + 1)
            if (cx, cy) in table
        )
        if not keys:
            continue
        bundle = bundles.get(keys)
        if bundle is None:
            parts = [table[key] for key in keys]
            if len(parts) == 1:
                cand_pos, cand_x, cand_y = parts[0]
            else:
                cand_pos = np.concatenate([p[0] for p in parts])
                cand_x = np.concatenate([p[1] for p in parts])
                cand_y = np.concatenate([p[2] for p in parts])
            order = np.argsort(cand_pos)
            cand_pos = cand_pos[order]
            cand_x = cand_x[order]
            cand_y = cand_y[order]
            bundle = (
                cand_pos,
                cand_x,
                cand_y,
                cand_x.astype(np.float32),
                cand_y.astype(np.float32),
                remaining[cand_pos],
            )
            bundles[keys] = bundle
        cand_pos, cand_x, cand_y, cand_x32, cand_y32, cand_remaining = bundle
        rows_array = np.asarray(rows, dtype=np.int64)
        chunk = max(1, _GRID_BLOCK_CELLS // max(1, cand_pos.size))
        for start in range(0, rows_array.size, chunk):
            block = rows_array[start : start + chunk]
            block_wx = wx[block]
            block_wy = wy[block]
            block_limits = limits[block]
            dx32 = cand_x32[None, :] - block_wx.astype(np.float32)[:, None]
            dy32 = cand_y32[None, :] - block_wy.astype(np.float32)[:, None]
            # float32 squared-distance prefilter — a strict superset of
            # hypot(dx, dy) <= limit thanks to the additive margin (see
            # _PREFILTER_MARGIN); exact float64 hypot then runs only on
            # the surviving cells, so membership is decided by the same
            # comparison as the scalar path.
            threshold = (
                ((block_limits + margin) * (block_limits + margin))
                .astype(np.float32)[:, None]
            )
            near = dx32 * dx32 + dy32 * dy32 <= threshold
            row_hits, col_hits = np.nonzero(near)
            dist = np.hypot(
                cand_x[col_hits] - block_wx[row_hits],
                cand_y[col_hits] - block_wy[row_hits],
            )
            speed = speeds[block][row_hits]
            rem = cand_remaining[col_hits]
            with np.errstate(divide="ignore", invalid="ignore"):
                travel = np.where(
                    speed > 0, dist / np.maximum(speed, 1e-300), np.inf
                )
            keep = (
                (dist <= block_limits[row_hits])
                & (rem >= 0)
                & np.where(speed > 0, travel <= rem, dist == 0.0)
            )
            row_hits = row_hits[keep]
            kept_pos = cand_pos[col_hits[keep]]
            # np.nonzero is row-major, so kept_pos is grouped by row
            # with ascending candidate order inside each group; slice
            # views per row keep this allocation-free.
            row_counts = np.bincount(row_hits, minlength=block.size)
            bounds = np.concatenate(([0], np.cumsum(row_counts))).tolist()
            for offset, row in enumerate(block.tolist()):
                result[row] = kept_pos[bounds[offset] : bounds[offset + 1]]
    return result


def _deadline_ok(instance: Instance, worker_index: int, task_index: int) -> bool:
    worker = instance.workers[worker_index]
    task = instance.tasks[task_index]
    remaining = task.remaining_time(instance.now)
    if remaining < 0:
        return False
    distance = worker.location.distance_to(task.location)
    if worker.speed <= 0:
        return distance == 0.0
    return distance / worker.speed <= remaining


class IncrementalValidityIndex:
    """Task-side validity state maintained *across* batch rounds.

    The batch simulator's task pool evolves by small deltas — arrivals,
    served/cancelled departures, deadline expiries — while the historical
    path rebuilt the whole spatial index from scratch every round. This
    class keeps one :class:`~repro.spatial.grid.GridIndex` alive and
    applies the pool's deltas via ``insert``/``delete`` (keyed by the
    stable ``task_id``), so per-round cost is proportional to the churn,
    not the pool size.

    Results are *identical* to ``compute_valid_pairs(strategy="grid")``:
    candidate order cannot matter (``ValidPairs.from_worker_lists``
    sorts), the range query filters by exact distance, and every
    candidate passes the exact per-task ``_deadline_ok`` check — so the
    outcome is invariant to the index's cell size. The index owns its
    cell rule: ``mean_radius`` (fixed at construction instead of
    re-derived from each round's workers) is scaled by the same
    :data:`_GRID_VECTOR_CELL_MULTIPLIER` the fresh vectorized build
    applies, since both batch their queries through
    :func:`_grid_valid_lists`. The equivalence is asserted
    round-by-round by the test suite.

    Stale-deadline contract: the reach bound's ``max_remaining`` is
    re-derived from the *live* task set on every delta — an expired or
    departed task can never widen a worker's candidate radius. (The
    cached maximum is invalidated whenever the task holding it leaves;
    keeping it would only cost query time, not correctness, but the
    bound-tightness invariant is pinned by a regression test.)
    """

    def __init__(self, mean_radius: float) -> None:
        self._index = GridIndex(cell_size=_vector_cell_size(mean_radius))
        self._tasks: dict[int, Task] = {}
        self._max_deadline = -np.inf
        self._max_stale = False

    def __len__(self) -> int:
        return len(self._tasks)

    def sync(self, tasks: "list[Task] | tuple[Task, ...]") -> tuple[int, int]:
        """Apply the pool's deltas: insert arrivals, drop departures.

        ``tasks`` is the current live pool (any order, unique
        ``task_id``s). Returns ``(added, removed)`` for observability.
        """
        current = {task.task_id: task for task in tasks}
        if len(current) != len(tasks):
            raise ValueError("duplicate task_id in the live pool")
        removed = [key for key in self._tasks if key not in current]
        for key in removed:
            task = self._tasks.pop(key)
            self._index.delete(key, task.location)
            if task.deadline == self._max_deadline:
                self._max_stale = True
        added = 0
        for key, task in current.items():
            if key in self._tasks:
                continue
            self._tasks[key] = task
            self._index.insert(key, task.location)
            added += 1
            if task.deadline > self._max_deadline and not self._max_stale:
                self._max_deadline = task.deadline
        return added, len(removed)

    def max_remaining(self, now: float) -> float:
        """Longest remaining deadline over the *live* tasks (>= 0).

        Bit-identical to :func:`_max_remaining` on an instance holding
        the same tasks: the maximizing task is the same either way, and
        ``max(deadline) - now`` is the same subtraction of the same two
        floats as ``max(deadline - now)``.
        """
        if not self._tasks:
            return 0.0
        if self._max_stale:
            self._max_deadline = max(
                task.deadline for task in self._tasks.values()
            )
            self._max_stale = False
        return max(0.0, self._max_deadline - now)

    def compute(self, instance: Instance) -> ValidPairs:
        """This round's :class:`ValidPairs` from the maintained index.

        ``instance.tasks`` must be exactly the pool last passed to
        :meth:`sync` (positions may differ from insertion order; the
        query is mapped back through ``task_id``).
        """
        if instance.task_count == 0 or instance.worker_count == 0:
            return ValidPairs.from_worker_lists(
                [[] for _ in range(instance.worker_count)], instance.task_count
            )
        position_of = {
            task.task_id: position
            for position, task in enumerate(instance.tasks)
        }
        if position_of.keys() != self._tasks.keys():
            raise ValueError(
                "instance task pool is out of sync with the index; "
                "call sync() with the live pool first"
            )
        max_remaining = self.max_remaining(instance.now)
        return ValidPairs.from_sorted_rows(
            _grid_valid_lists(
                instance, self._index, max_remaining, position_of=position_of
            ),
            instance.task_count,
        )


def _compute_with_travel_model(instance: Instance, travel_model) -> ValidPairs:
    """Validity with a pluggable travel metric (one batched distance
    query per worker over the worker's Euclidean range candidates)."""
    task_items = [(index, task.location) for index, task in enumerate(instance.tasks)]
    mean_radius = float(np.mean([worker.radius for worker in instance.workers]))
    index = GridIndex.build(task_items, cell_size=max(mean_radius, 1e-6))

    tasks_for_worker: list[list[int]] = []
    for worker in instance.workers:
        candidates = index.query_circle(worker.location, worker.radius)
        if not candidates:
            tasks_for_worker.append([])
            continue
        travel = travel_model.distances_from(
            worker.location,
            [instance.tasks[task].location for task in candidates],
        )
        valid: list[int] = []
        for position, task_index in enumerate(candidates):
            remaining = instance.tasks[task_index].remaining_time(instance.now)
            if remaining < 0:
                continue
            distance = float(travel[position])
            if worker.speed <= 0:
                if distance == 0.0:
                    valid.append(task_index)
            elif distance / worker.speed <= remaining:
                valid.append(task_index)
        tasks_for_worker.append(valid)
    return ValidPairs.from_worker_lists(tasks_for_worker, instance.task_count)


def _compute_matrix(instance: Instance) -> ValidPairs:
    """Vectorized validity: one (m, n) distance matrix, two masks."""
    distances = pairwise_distances(
        instance.worker_locations(), instance.task_locations()
    )
    radii = np.array([worker.radius for worker in instance.workers])
    speeds = np.array([worker.speed for worker in instance.workers])
    remaining = np.array(
        [task.remaining_time(instance.now) for task in instance.tasks]
    )

    within_radius = distances <= radii[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        travel = np.where(
            speeds[:, None] > 0, distances / np.maximum(speeds[:, None], 1e-300), np.inf
        )
    travel = np.where((speeds[:, None] <= 0) & (distances == 0.0), 0.0, travel)
    in_time = (travel <= remaining[None, :]) & (remaining[None, :] >= 0)

    valid = within_radius & in_time
    tasks_for_worker = [np.flatnonzero(valid[i]).tolist() for i in range(valid.shape[0])]
    return ValidPairs.from_worker_lists(tasks_for_worker, instance.task_count)
