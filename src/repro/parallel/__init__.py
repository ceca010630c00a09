"""Multi-process parallel audit engine.

Shards experiment execution by interface group -- one platform per
group, which each worker builds from the seed -- and merges results in
canonical order so parallel runs are bit-identical to sequential ones.
See ``DESIGN.md`` section 10.
"""

from __future__ import annotations

from repro.parallel.engine import (
    ParallelRun,
    ParallelRunError,
    default_start_method,
    resolve_jobs,
    run_parallel,
)
from repro.parallel.plan import (
    GROUP_OF_INTERFACE,
    GROUPS,
    INTERFACES_OF_GROUP,
    Cell,
    ShardTask,
    build_plan,
    derive_chaos_seed,
)
from repro.parallel.worker import ShardResult, run_shard

__all__ = [
    "Cell",
    "GROUPS",
    "GROUP_OF_INTERFACE",
    "INTERFACES_OF_GROUP",
    "ParallelRun",
    "ParallelRunError",
    "ShardResult",
    "ShardTask",
    "build_plan",
    "default_start_method",
    "derive_chaos_seed",
    "resolve_jobs",
    "run_parallel",
    "run_shard",
]
