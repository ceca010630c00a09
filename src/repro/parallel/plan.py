"""Deterministic shard planning for the parallel audit engine.

Work shards by *interface group*, the unit that keeps every cache and
counter bit-identical to a sequential run:

* Facebook's two interfaces (``facebook_restricted`` audits are
  validated on the restricted interface but measured through the
  normal one, and the lookalike extension touches both) share one
  reach client and therefore always travel together;
* Google and LinkedIn each form their own group.

A group is therefore exactly one platform, named like it, and a worker
builds only that platform's session (``platforms=(group,)``).

Each experiment module declares ``PARTS`` (its per-interface shard
keys), ``run_part`` and ``merge_parts``; the plan assigns every
``(experiment, part)`` cell to its group, preserving experiment
registry order *within* each group.  A worker runs all of its group's
cells in that order, so per-interface cache evolution -- estimate
caches, interface memos, pooled methodology estimates -- matches the
sequential run exactly, and the engine's canonical-order merge
reassembles bit-identical results.

Chaos seeds derive from the shard key alone (never from the worker
count or scheduling), so ``--chaos --jobs N`` replays the same fault
sequence for any ``N``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from repro.api.chaos import FaultProfile
from repro.experiments import (
    ext_lookalike,
    ext_mitigation,
    fig1_restricted,
    fig2_platforms,
    fig3_removal,
    fig4_ages,
    fig5_recall,
    fig6_removal_ages,
    methodology,
    table1_overlap,
    tables23_examples,
)
from repro.experiments.config import ExperimentConfig
from repro.platforms import PLATFORMS
from repro.platforms.targeting import TargetingSpec

__all__ = [
    "GROUPS",
    "GROUP_OF_INTERFACE",
    "INTERFACES_OF_GROUP",
    "EXPERIMENT_MODULES",
    "Cell",
    "ShardTask",
    "build_plan",
    "derive_chaos_seed",
]

#: Interface key -> shard group (both Facebook interfaces share the
#: Facebook reach client, so they must shard together).  Module-level
#: containers in this package are read-only by contract (repro-lint's
#: ``parallel/module-state`` rule): workers import these modules, and
#: mutable module state would silently diverge across processes.
GROUP_OF_INTERFACE: Mapping[str, str] = MappingProxyType(
    {
        "facebook_restricted": "facebook",
        "facebook": "facebook",
        "google": "google",
        "linkedin": "linkedin",
    }
)

#: Canonical shard-group order: the platforms, in suite order.  Merging
#: follows this order, never worker completion order, which is what
#: makes parallel output independent of scheduling.
GROUPS: tuple[str, ...] = PLATFORMS

#: Group -> the audit-target / client keys whose state it owns.
INTERFACES_OF_GROUP: Mapping[str, tuple[str, ...]] = MappingProxyType(
    {
        "facebook": ("facebook_restricted", "facebook"),
        "google": ("google",),
        "linkedin": ("linkedin",),
    }
)

#: Experiment registry mirroring ``repro.experiments.runner``'s names,
#: but holding the modules (for ``PARTS``/``run_part``/``merge_parts``)
#: rather than the ``run`` callables.  Kept here, not imported from the
#: runner, to avoid an engine <-> runner import cycle.
EXPERIMENT_MODULES: Mapping[str, object] = MappingProxyType(
    {
        "fig1": fig1_restricted,
        "fig2": fig2_platforms,
        "fig3": fig3_removal,
        "fig4": fig4_ages,
        "fig5": fig5_recall,
        "fig6": fig6_removal_ages,
        "table1": table1_overlap,
        "tables23": tables23_examples,
        "methodology": methodology,
        "ext_lookalike": ext_lookalike,
        "ext_mitigation": ext_mitigation,
    }
)


@dataclass(frozen=True)
class Cell:
    """One unit of shard work: one experiment's part on one interface."""

    experiment: str
    part: str


def build_plan(names: list[str]) -> dict[str, tuple[Cell, ...]]:
    """Assign every experiment part to its shard group.

    ``names`` come in experiment registry order; within each group,
    cells keep that order (the determinism contract).  Groups with no
    work (e.g. ``--only fig1`` never touches Google) are omitted.
    """
    cells: dict[str, list[Cell]] = {group: [] for group in GROUPS}
    for name in names:
        module = EXPERIMENT_MODULES[name]
        for part in module.PARTS:
            cells[GROUP_OF_INTERFACE[part]].append(Cell(name, part))
    return {
        group: tuple(cells[group]) for group in GROUPS if cells[group]
    }


def derive_chaos_seed(chaos_seed: int, group: str) -> int:
    """Per-shard fault-sequence seed.

    Depends only on the base seed and the shard key, so the fault
    sequence each group sees is reproducible across runs and across
    worker counts.
    """
    return (int(chaos_seed) ^ zlib.crc32(group.encode("ascii"))) & 0x7FFFFFFF


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to run one group's cells.

    Picklable under both ``fork`` and ``spawn`` start methods.  No
    population travels: the group name is the platform name, and the
    worker builds that platform from ``config.seed``.  Checkpoint
    pre-warm entries travel as plain spec/estimate mappings.
    """

    group: str
    cells: tuple[Cell, ...]
    config: ExperimentConfig
    rate_limit: float | None = None
    chaos: FaultProfile | None = None
    chaos_seed: int = 1031
    #: Interface key -> already-completed estimates (resume pre-warm);
    #: ``None`` when the parent run has no checkpoint attached.
    checkpoint: Mapping[str, dict[TargetingSpec, int]] | None = None
    #: Build a per-worker tracer and ship its exported span records
    #: back for the engine's canonical-order merge.
    trace: bool = False
    #: Build a per-worker metrics registry and ship its export back.
    collect_metrics: bool = False
