"""Stage-1 seeding engine vs the scan-loop oracle.

:func:`repro.core.tpg.seed_groups` (heap + worker -> tasks index) must
reproduce :func:`repro.audit.reference.seed_groups_reference` (the
historical rescan-every-commit loop) exactly: the same TPG assignment
repr, the same ``seeded_tasks``, and the same number of
``greedy_best_group`` calls — over the audit corpus and drawn instances,
on the dense and sparse stores, under both kernels. The border-seeding
configuration (``0.0`` floor, lowest-id ties) is held to the same bar.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.corpus import iter_corpus
from repro.audit.fuzzer import FuzzConfig, fuzz_instance
from repro.audit.reference import seed_groups_reference
from repro.core import tpg
from repro.core.assignment import Assignment
from repro.core.kernels import KERNELS
from repro.core.model import Instance
from repro.core.quality import CooperationMatrix
from repro.core.quality_store import SparseQualityStore
from repro.core.validity import compute_valid_pairs
from repro.datasets.synthetic import generate_instance

CORPUS_DIR = "tests/data/audit_corpus"
CORPUS = [instance for _, instance, _ in iter_corpus(CORPUS_DIR)]


def _on_store(instance: Instance, store: str) -> Instance:
    dense = instance.quality.to_dense()
    quality = (
        SparseQualityStore.from_dense(dense, prior=0.0)
        if store == "sparse"
        else dense
    )
    return Instance(
        workers=instance.workers,
        tasks=instance.tasks,
        quality=quality,
        min_group_size=instance.min_group_size,
        now=instance.now,
    )


class _CountingGroups:
    """Wraps ``tpg.greedy_best_group`` and counts its calls."""

    def __init__(self) -> None:
        self.calls = 0
        self._inner = tpg.greedy_best_group

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._inner(*args, **kwargs)


def _solve(instance, valid_pairs, kernel, engine):
    counter = _CountingGroups()
    with mock.patch.object(tpg, "seed_groups", engine), mock.patch.object(
        tpg, "greedy_best_group", counter
    ):
        result = tpg.solve_tpg_with_stats(instance, valid_pairs, kernel=kernel)
    assignment = result.assignment
    return (
        tuple(assignment.to_pairs()),
        repr(assignment.total_score()),
        repr(assignment),
        result.seeded_tasks,
        counter.calls,
    )


def _border_seed(instance, valid_pairs, kernel, engine, available):
    counter = _CountingGroups()
    assignment = Assignment(instance, valid_pairs, allow_overflow=True)
    with mock.patch.object(tpg, "greedy_best_group", counter):
        seeded = engine(
            instance,
            valid_pairs,
            assignment,
            available.copy(),
            range(instance.task_count),
            kernel=kernel,
            floor=0.0,
            share_ties=False,
        )
    return seeded, tuple(assignment.to_pairs()), counter.calls


def _assert_parity(instance: Instance, kernel: str) -> None:
    valid_pairs = compute_valid_pairs(instance)
    heap = _solve(instance, valid_pairs, kernel, tpg.seed_groups)
    scan = _solve(instance, valid_pairs, kernel, seed_groups_reference)
    assert heap == scan

    # Border configuration over a deterministic half of the workers.
    available = np.arange(instance.worker_count) % 2 == 0
    assert _border_seed(
        instance, valid_pairs, kernel, tpg.seed_groups, available
    ) == _border_seed(
        instance, valid_pairs, kernel, seed_groups_reference, available
    )


def _dyadic(instance: Instance, seed: int) -> Instance:
    """The instance with qualities on a 1/4 grid: score ties everywhere."""
    rng = np.random.default_rng(seed)
    size = instance.worker_count
    q = rng.integers(0, 5, size=(size, size)) / 4.0
    np.fill_diagonal(q, 0.0)
    return Instance(
        workers=instance.workers,
        tasks=instance.tasks,
        quality=CooperationMatrix(q),
        min_group_size=instance.min_group_size,
        now=instance.now,
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("store", ["dense", "sparse"])
def test_corpus_parity(store, kernel):
    assert CORPUS, "audit corpus is missing"
    for instance in CORPUS:
        _assert_parity(_on_store(instance, store), kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("store", ["dense", "sparse"])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    workers=st.integers(4, 70),
    tasks=st.integers(1, 16),
    minimum=st.integers(2, 4),
    ties=st.booleans(),
)
def test_drawn_parity(store, kernel, seed, workers, tasks, minimum, ties):
    instance = generate_instance(
        workers,
        tasks,
        capacity=minimum + 2,
        min_group_size=minimum,
        speed_range=(0.1, 0.5),
        radius_range=(0.2, 0.9),
        remaining_time=3.0,
        seed=seed,
    )
    if ties:
        instance = _dyadic(instance, seed)
    _assert_parity(_on_store(instance, store), kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_fuzzed_parity(kernel, seed):
    config = FuzzConfig(max_workers=30, max_tasks=8)
    _assert_parity(fuzz_instance(seed, config), kernel)
