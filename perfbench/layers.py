"""The repository's layers, as the traced run sees them.

:func:`traced_layers` wraps the public call into each layer with a span
(or, for the overflow peel, a leaf) while the traced streams run, and
restores the originals afterwards. Sub-phases without a public entry
point (GT init/rounds, TPG stage 1/2, the shard solves) are read from
the :class:`~repro.core.stats.SolverStats` the calls return.
:func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import contextlib

from repro.core import game as game_module
from repro.core import revenue as revenue_module
from repro.core.sharding import solver as sharding_module
from repro.core.validity import IncrementalValidityIndex
from repro.experiments import config as config_module

from spans import Tracer, self_seconds

__all__ = [
    "LAYER_OF",
    "layer_metrics",
    "layer_shares",
    "solve_counters",
    "swapped",
    "traced_layers",
]

#: Span (or leaf) name -> layer whose self time it is. ``None`` is time
#: no layer of the map claims: the solver call's own frame, which holds
#: the RAND baseline's whole solve.
LAYER_OF = {
    "batch": "simulation",
    "quality_store.restrict": "quality_store",
    "validity": "validity",
    "bounds.upper": "bounds",
    "flow": "flow",
    "game": "game",
    "tpg": "tpg",
    "revenue.peel": "revenue",
    "sharding.partition": "sharding",
    "sharding.carve": "sharding",
    "sharding.merge": "sharding",
    "sharding.reconcile": "sharding",
    "solve": None,
}

def _game_counters(result) -> dict:
    stats = result.stats
    return {
        "init_s": stats.phase_seconds.get("init", 0.0),
        "rounds_s": stats.phase_seconds.get("rounds", 0.0),
        "br_rounds": len(stats.rounds),
        "moves": sum(r.moves for r in stats.rounds),
        "gain_evaluations": stats.gain_evaluations,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "full_evaluations": stats.revenue_evaluations,
        "incremental_updates": stats.incremental_updates,
    }


def _tpg_counters(result) -> dict:
    stats = result.stats
    return {
        "stage1_s": stats.phase_seconds.get("stage1", 0.0),
        "stage2_s": stats.phase_seconds.get("stage2", 0.0),
        "full_evaluations": stats.revenue_evaluations,
        "incremental_updates": stats.incremental_updates,
    }


def _partition_counters(plan) -> dict:
    sizes = [plan.workers_of(s).size for s in range(plan.shard_count)]
    sizes = [size for size in sizes if size]
    skew = max(sizes) * len(sizes) / sum(sizes) if sizes else 0.0
    return {"shards": plan.shard_count, "skew": skew}


def solve_counters(solver) -> dict:
    """Counters of a sharded solve, read from the solver's last stats."""
    log = getattr(solver, "stats_log", None)
    if not log or log[-1].shard_count <= 1:
        return {}
    stats = log[-1]
    return {
        "shard_solve_s": stats.phase_seconds.get("shard_solve", 0.0),
        "border_workers": stats.border_workers,
        "halo_moves": stats.halo_moves,
    }


@contextlib.contextmanager
def swapped(replacements):
    """Set each ``(owner, attribute, value)`` and restore the originals on exit."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def traced_layers(tracer: Tracer, stores: list):
    """Swap span-recording wrappers into each layer's public calls.

    ``stores`` collects the per-shard quality stores the carve creates,
    so their row caches can be read when the batch ends.
    """

    def carved(piece) -> dict:
        stores.append(piece.instance.quality)
        return {}

    spans = [
        (IncrementalValidityIndex, "sync", "validity", None),
        (IncrementalValidityIndex, "compute", "validity",
         lambda pairs: {"pairs": pairs.pair_count}),
        (config_module, "solve_mflow", "flow", None),
        (config_module, "solve_game_theoretic", "game", _game_counters),
        (config_module, "solve_tpg_with_stats", "tpg", _tpg_counters),
        (game_module, "solve_tpg_with_stats", "tpg", _tpg_counters),
        (sharding_module, "partition_instance", "sharding.partition",
         _partition_counters),
        (sharding_module, "carve_shard", "sharding.carve", carved),
        (sharding_module, "merge_shard_pairs", "sharding.merge", None),
        (sharding_module, "reconcile_borders", "sharding.reconcile", None),
    ]
    replacements = [
        (owner, attr, tracer.wrap(vars(owner)[attr], name, counters))
        for owner, attr, name, counters in spans
    ]
    peel = vars(revenue_module)["best_counted_subset"]
    replacements.append(
        (revenue_module, "best_counted_subset", tracer.wrap_leaf(peel, "revenue.peel"))
    )
    return swapped(replacements)


def _total(spans, name: str, key: str) -> float:
    return sum(s.counters.get(key, 0) for s in spans if s.name == name)


def _seconds(spans, name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def layer_metrics(
    tracer: Tracer, streams: int, cache_hits: int, cache_lookups: int
) -> dict[str, float]:
    """Per-layer metrics of the traced streams.

    Times are milliseconds per batch; counts are per stream (every
    stream replays the same batches, so they are exact); ratios pool
    all traced batches.
    """
    spans = [s for s in tracer.spans if s.batch >= 0]
    batches = sum(1 for s in spans if s.name == "batch")
    batch_ms = _seconds(spans, "batch") * 1e3
    per_batch = 1e3 / batches
    shares = layer_shares(tracer)
    peel_calls = sum(s.leaves.get("revenue.peel", [0, 0.0])[0] for s in spans)
    peel_seconds = sum(s.leaves.get("revenue.peel", [0, 0.0])[1] for s in spans)
    hits = _total(spans, "game", "cache_hits")
    scans = hits + _total(spans, "game", "cache_misses")
    partitions = [s for s in spans if s.name == "sharding.partition"]
    solver_frames = ("game", "tpg")
    return {
        "simulation.self_ms": shares.get("simulation", 0.0) * batch_ms / batches,
        "validity.ms": _seconds(spans, "validity") * per_batch,
        "validity.pairs": _total(spans, "validity", "pairs") / streams,
        "tpg.stage1_ms": _total(spans, "tpg", "stage1_s") * per_batch,
        "tpg.stage2_ms": _total(spans, "tpg", "stage2_s") * per_batch,
        "tpg.calls": sum(1 for s in spans if s.name == "tpg") / streams,
        "game.init_ms": _total(spans, "game", "init_s") * per_batch,
        "game.rounds_ms": _total(spans, "game", "rounds_s") * per_batch,
        "game.br_rounds": _total(spans, "game", "br_rounds") / streams,
        "game.moves": _total(spans, "game", "moves") / streams,
        "game.gain_evaluations": _total(spans, "game", "gain_evaluations") / streams,
        "game.lub_hit_ratio": hits / scans if scans else 0.0,
        "revenue.peel_calls": peel_calls / streams,
        "revenue.peel_ms": peel_seconds * per_batch,
        "revenue.full_evaluations": sum(
            _total(spans, name, "full_evaluations") for name in solver_frames
        ) / streams,
        "revenue.incremental_updates": sum(
            _total(spans, name, "incremental_updates") for name in solver_frames
        ) / streams,
        "quality_store.restrict_ms": _seconds(spans, "quality_store.restrict") * per_batch,
        "quality_store.row_cache_hit_ratio": (
            cache_hits / cache_lookups if cache_lookups else 0.0
        ),
        "sharding.partition_ms": _seconds(spans, "sharding.partition") * per_batch,
        "sharding.carve_ms": _seconds(spans, "sharding.carve") * per_batch,
        "sharding.shard_solve_ms": _total(spans, "solve", "shard_solve_s") * per_batch,
        "sharding.reconcile_ms": _seconds(spans, "sharding.reconcile") * per_batch,
        "sharding.shard_skew": (
            sum(s.counters["skew"] for s in partitions) / len(partitions)
            if partitions else 0.0
        ),
        "sharding.border_workers": _total(spans, "solve", "border_workers") / streams,
        "sharding.halo_moves": _total(spans, "solve", "halo_moves") / streams,
        "flow.ms": _seconds(spans, "flow") * per_batch,
        "bounds.upper_ms": _seconds(spans, "bounds.upper") * per_batch,
        "trace.unaccounted_share": shares.get("unaccounted", 0.0),
    }


def layer_shares(tracer: Tracer) -> dict[str, float]:
    """Each layer's self time as a share of all traced batch time; the
    shares add up to 1. ``unaccounted`` is time no layer claims."""
    own = self_seconds(tracer.spans)
    shares: dict[str, float] = {}
    total = 0.0
    for span, seconds in zip(tracer.spans, own):
        if span.batch < 0:
            continue
        if span.name == "batch":
            total += span.seconds
        layer = LAYER_OF.get(span.name) or "unaccounted"
        shares[layer] = shares.get(layer, 0.0) + seconds
        for name, (_, leaf_seconds) in span.leaves.items():
            leaf_layer = LAYER_OF.get(name) or "unaccounted"
            shares[leaf_layer] = shares.get(leaf_layer, 0.0) + leaf_seconds
    return {layer: seconds / total for layer, seconds in sorted(shares.items())}
