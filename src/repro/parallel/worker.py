"""Worker-side execution of one shard.

:func:`run_shard` is the function the engine submits to its process
pool.  It is a plain top-level function taking one picklable
:class:`~repro.parallel.plan.ShardTask` and returning one picklable
:class:`ShardResult`, so it works identically under the ``fork`` and
``spawn`` start methods.

A shard group is one platform, and each platform's population is
seeded on its own (``seed``, ``seed + 1``, ``seed + 2``), so a worker
builds its *own* audit session over just that platform, from the
seed, exactly as the sequential run builds it.  It then runs every
cell of its group in experiment registry order, which makes
per-interface cache evolution (estimate caches, interface memos, the
pooled estimates the methodology study analyses) identical to a
sequential run.  The result carries only what a run reports: the
per-part experiment outputs and timings, request and query counts,
the estimates its checkpoint store collected, and trace / metrics
exports.

Errors follow the sequential contract: the first failing cell stops
the shard, but everything completed before it still ships back, so
the parent can persist checkpoints before re-raising.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro import build_audit_session
from repro.api.chaos import ChaosTransport
from repro.core.checkpoint import EstimateCheckpoint
from repro.experiments.context import ExperimentContext
from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from repro.parallel.plan import EXPERIMENT_MODULES, ShardTask, derive_chaos_seed
from repro.platforms.targeting import TargetingSpec

__all__ = ["ShardResult", "run_shard"]


@dataclass
class ShardResult:
    """Everything one worker ships back to the engine."""

    group: str
    #: experiment name -> part key -> that part's result object.
    results: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: experiment name -> seconds this shard spent on it.
    durations: dict[str, float] = field(default_factory=dict)
    #: Requests the shard's transport edge saw (retries included).
    requests: int = 0
    #: Interface key -> the audit target's query count.
    query_counts: dict[str, int] = field(default_factory=dict)
    #: Interface key -> estimates the shard's checkpoint store holds
    #: (``None`` when the run has no checkpoint).
    estimates: dict[str, dict[TargetingSpec, int]] | None = None
    #: The injected-fault log when chaos was active.
    chaos: dict[str, Any] | None = None
    #: Formatted traceback of the first failing cell, if any.
    error: str | None = None
    #: ``(experiment, part)`` of the failing cell, if any.
    error_cell: tuple[str, str] | None = None
    #: Exported span records of the worker tracer (``task.trace``).
    trace: list[dict[str, Any]] | None = None
    #: Exported worker metrics (``task.collect_metrics``).
    metrics: dict[str, Any] | None = None


def run_shard(task: ShardTask) -> ShardResult:
    """Build the group's platform, run its cells, report the outcome."""
    # A worker process is a composition root: it owns its tracer and
    # registry outright and ships only their exports back.
    tracer = NULL_TRACER
    if task.trace:
        tracer = Tracer(  # repro-lint: disable=obs/ambient-instrumentation
            f"shard:{task.group}", group=task.group
        )
    metrics = NULL_METRICS
    if task.collect_metrics:
        metrics = MetricsRegistry()  # repro-lint: disable=obs/ambient-instrumentation
    session = build_audit_session(
        n_records=task.config.n_records,
        seed=task.config.seed,
        rate_limit=task.rate_limit,
        chaos=task.chaos,
        chaos_seed=derive_chaos_seed(task.chaos_seed, task.group),
        platforms=(task.group,),
        tracer=tracer,
        metrics=metrics,
    )
    ctx = ExperimentContext(task.config, session=session)

    store: EstimateCheckpoint | None = None
    if task.checkpoint is not None:
        # In-memory resume pre-warm: the parent ships the loaded
        # checkpoint entries for this group's interfaces; attaching the
        # store pre-warms the target caches exactly as a sequential
        # resume would, and records every new estimate.
        store = EstimateCheckpoint()
        for key, entries in task.checkpoint.items():
            store.shard(key).update(entries)
        for target in session.targets.values():
            target.attach_checkpoint(store)

    result = ShardResult(group=task.group)
    for cell in task.cells:
        module = EXPERIMENT_MODULES[cell.experiment]
        started = time.perf_counter()
        try:
            with tracer.span(
                f"experiment.{cell.experiment}", part=cell.part
            ), metrics.scope(experiment=cell.experiment):
                part_result = module.run_part(ctx, cell.part)
        # Process boundary: any failure must serialize back to the
        # parent, which re-raises after persisting checkpoints.
        except Exception:  # repro-lint: disable=errors/broad-except
            result.error = traceback.format_exc()
            result.error_cell = (cell.experiment, cell.part)
            break
        finally:
            elapsed = time.perf_counter() - started
            result.durations[cell.experiment] = (
                result.durations.get(cell.experiment, 0.0) + elapsed
            )
        result.results.setdefault(cell.experiment, {})[cell.part] = part_result

    result.requests = session.total_api_requests()
    result.query_counts = {
        key: target.query_count for key, target in session.targets.items()
    }
    if store is not None:
        result.estimates = {key: store.shard(key) for key in task.checkpoint}
    if isinstance(session.transport, ChaosTransport):
        result.chaos = {"fault_log": list(session.transport.fault_log)}
    if task.trace:
        result.trace = tracer.export()
    if task.collect_metrics:
        result.metrics = metrics.export()
    return result
