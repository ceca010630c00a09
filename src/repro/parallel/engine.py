"""Parallel orchestration: pool lifecycle, canonical merge.

:func:`run_parallel` is the multi-process counterpart of the
sequential loop in :mod:`repro.experiments.runner`:

1. dispatch one :class:`~repro.parallel.plan.ShardTask` per interface
   group to a :class:`~concurrent.futures.ProcessPoolExecutor`; each
   worker builds its group's platform from the seed, so the parent
   builds no session of its own;
2. merge shard results in **canonical group order** -- never worker
   completion order -- so audit records, per-interface query counts
   and rendered experiment reports are bit-identical to a sequential
   run regardless of scheduling;
3. save any checkpoint (including the completed estimates of a shard
   that failed mid-run), and only then re-raise the first shard error
   in canonical order.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.api.chaos import FAULT_PROFILES, FaultProfile
from repro.core.checkpoint import EstimateCheckpoint
from repro.experiments.config import ExperimentConfig
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.parallel.plan import (
    EXPERIMENT_MODULES,
    GROUP_OF_INTERFACE,
    INTERFACES_OF_GROUP,
    ShardTask,
    build_plan,
)
from repro.parallel.worker import ShardResult, run_shard

__all__ = [
    "ParallelRun",
    "ParallelRunError",
    "default_start_method",
    "resolve_jobs",
    "run_parallel",
]


class ParallelRunError(RuntimeError):
    """A shard's cell raised; carries the worker-side traceback."""

    def __init__(self, group: str, cell: tuple[str, str], worker_traceback: str):
        self.group = group
        self.cell = cell
        self.worker_traceback = worker_traceback
        super().__init__(
            f"experiment {cell[0]!r} part {cell[1]!r} failed in "
            f"shard {group!r}:\n{worker_traceback}"
        )


def resolve_jobs(jobs: int) -> int:
    """``--jobs`` semantics: ``0`` means one per CPU, minimum 1."""
    if jobs < 0:
        raise ValueError("jobs must be >= 0")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits imports), else spawn."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass
class ParallelRun:
    """Merged outcome of a parallel experiment run.

    ``durations`` holds, per experiment, the longest time any single
    shard spent on it -- shards run concurrently, so that is the
    experiment's wall-clock contribution.  The runner wraps this into
    its :class:`~repro.experiments.runner.RunReport`.
    """

    results: dict[str, Any] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)
    total_api_requests: int = 0
    shards: dict[str, ShardResult] = field(default_factory=dict)


def run_parallel(
    config: ExperimentConfig,
    names: list[str],
    jobs: int,
    chaos: FaultProfile | str | None = None,
    chaos_seed: int = 1031,
    checkpoint: EstimateCheckpoint | str | Path | None = None,
    rate_limit: float | None = None,
    start_method: str | None = None,
    verbose: bool = False,
    tracer=None,
    metrics=None,
) -> ParallelRun:
    """Run the named experiments sharded across worker processes.

    Accepts the same knobs as the sequential runner.  ``chaos``
    applies per-worker: each shard wraps its own transport in a
    :class:`~repro.api.chaos.ChaosTransport` seeded from
    ``chaos_seed`` and the shard key, so fault sequences are
    reproducible for any worker count.  ``start_method`` overrides the
    multiprocessing start method (tests exercise ``spawn``).

    When ``tracer`` / ``metrics`` are enabled, each worker builds its
    own sinks and ships the exports back; the engine grafts worker
    traces under a ``parallel.run`` span in **canonical shard order**
    (plan order, never completion order) and folds worker metrics in
    the same order, so the merged trace and registry are as
    reproducible as a sequential run's.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    profile = FAULT_PROFILES[chaos] if isinstance(chaos, str) else chaos

    store: EstimateCheckpoint | None = None
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, EstimateCheckpoint)
            else EstimateCheckpoint(checkpoint)
        )

    plan = build_plan(names)
    tasks = [
        ShardTask(
            group=group,
            cells=cells,
            config=config,
            rate_limit=rate_limit,
            chaos=profile,
            chaos_seed=chaos_seed,
            trace=tracer.enabled,
            collect_metrics=metrics.enabled,
            checkpoint=(
                {key: dict(store.shard(key)) for key in INTERFACES_OF_GROUP[group]}
                if store is not None
                else None
            ),
        )
        for group, cells in plan.items()
    ]
    shards: dict[str, ShardResult] = {}
    failures: dict[str, Exception] = {}
    method = start_method or default_start_method()
    max_workers = min(resolve_jobs(jobs), len(tasks))
    with ProcessPoolExecutor(
        max_workers=max_workers, mp_context=mp.get_context(method)
    ) as pool:
        futures = {task.group: pool.submit(run_shard, task) for task in tasks}
        for group in plan:
            if verbose:
                print(
                    f"waiting on shard {group} ({len(plan[group])} cells) ...",
                    file=sys.stderr,
                    flush=True,
                )
            try:
                shards[group] = futures[group].result()
            # A future only raises here when the worker process itself
            # died (e.g. BrokenProcessPool); in-worker failures travel
            # inside the ShardResult instead.  Collect so surviving
            # shards still merge and persist.
            except Exception as exc:  # repro-lint: disable=errors/broad-except
                failures[group] = exc

    run = ParallelRun(shards=shards)
    error: ParallelRunError | None = None
    # ``shards`` was filled by iterating the plan, so this merge loop
    # runs in canonical group order regardless of worker scheduling --
    # the property that makes the absorbed trace order-stable.
    with tracer.span("parallel.run", jobs=jobs, shards=len(shards)):
        for group, shard in shards.items():
            run.total_api_requests += shard.requests
            if store is not None:
                for key, entries in shard.estimates.items():
                    store.shard(key).update(entries)
            if shard.trace is not None and tracer.enabled:
                tracer.absorb(shard.trace, f"shard:{group}")
            if shard.metrics is not None and metrics.enabled:
                metrics.absorb(shard.metrics)
            if error is None and shard.error is not None:
                error = ParallelRunError(group, shard.error_cell, shard.error)

    # Persist whatever completed before surfacing any failure -- the
    # sequential runner's ``finally: store.save()`` contract.
    if store is not None and store.path is not None:
        saved = store.save()
        if tracer.enabled:
            tracer.event(
                "checkpoint.save", entries=len(store), bytes=saved.stat().st_size
            )
    if error is not None:
        raise error
    for group, exc in failures.items():
        raise exc

    for name in names:
        module = EXPERIMENT_MODULES[name]
        parts = {
            part: shards[GROUP_OF_INTERFACE[part]].results[name][part]
            for part in module.PARTS
        }
        run.results[name] = module.merge_parts(parts)
        run.durations[name] = max(
            shard.durations.get(name, 0.0) for shard in shards.values()
        )
    return run
