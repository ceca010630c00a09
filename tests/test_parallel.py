"""Parallel audit engine: bit-identity, worker death, chaos, resume.

A ``--jobs 4`` run must produce bit-identical audit records,
per-interface query counts, and rendered reports versus ``--jobs 1``
for every experiment in the registry (asserted here at small scale);
a dead worker process must surface without losing the surviving
shards' checkpointed estimates; per-shard chaos seeds must be
deterministic and independent of the worker count; a killed parallel
run must resume from its checkpoint; and output must not depend on
the hash seed or the multiprocessing start method, since every worker
rebuilds its platform from the seed in its own interpreter.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api.chaos import FAULT_PROFILES
from repro.core.checkpoint import EstimateCheckpoint
from repro.experiments.config import ExperimentConfig
from repro.experiments.context import ExperimentContext
from repro.experiments.runner import EXPERIMENTS, RunReport, run_all
from repro.parallel import (
    GROUPS,
    INTERFACES_OF_GROUP,
    ParallelRunError,
    build_plan,
    derive_chaos_seed,
    resolve_jobs,
    run_parallel,
    run_shard,
)

SRC = Path(__file__).resolve().parent.parent / "src"

#: Small-scale config keeping the all-registry fixture pair fast while
#: still driving every experiment through real composition discovery.
CONFIG = replace(
    ExperimentConfig.tiny(),
    n_records=4_000,
    n_compositions=24,
    overlap_top_k=6,
    overlap_max_pairs=10,
    union_top_k=3,
    consistency_repeats=3,
    consistency_targetings=3,
)

#: Smaller still, for the chaos / resume / spawn scenarios that run
#: multiple engine invocations each.
TINY = replace(
    ExperimentConfig.tiny(),
    n_records=2_000,
    n_compositions=16,
    consistency_repeats=2,
    consistency_targetings=2,
)

ALL_NAMES = list(EXPERIMENTS)

HAS_FORK = "fork" in mp.get_all_start_methods()


def normalize_report(text: str) -> str:
    """Strip the wall-clock parts of a rendered RunReport."""
    text = re.sub(r"\(\d+\.\d+s\)", "(Xs)", text)
    return re.sub(r"Total wall time: .*", "Total wall time: X", text)


@pytest.fixture(scope="module")
def sequential_run():
    """All-registry sequential run, keeping the session for counters."""
    ctx = ExperimentContext(CONFIG)
    results = {name: EXPERIMENTS[name][1](ctx) for name in ALL_NAMES}
    return ctx, results


@pytest.fixture(scope="module")
def parallel_run():
    """All-registry jobs=4 run (engine caps workers at the 3 groups)."""
    return run_parallel(CONFIG, ALL_NAMES, jobs=4)


class TestBitIdentity:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_rendered_experiment_identical(
        self, name, sequential_run, parallel_run
    ):
        _, results = sequential_run
        assert parallel_run.results[name].render() == results[name].render()

    def test_per_interface_query_counts_identical(
        self, sequential_run, parallel_run
    ):
        ctx, _ = sequential_run
        sequential = {
            key: target.query_count
            for key, target in ctx.session.targets.items()
        }
        parallel = {
            key: count
            for shard in parallel_run.shards.values()
            for key, count in shard.query_counts.items()
        }
        assert parallel == sequential

    def test_total_api_requests_identical(self, sequential_run, parallel_run):
        ctx, _ = sequential_run
        assert (
            parallel_run.total_api_requests
            == ctx.session.total_api_requests()
        )


class TestRunnerIntegration:
    def test_full_report_identical_modulo_wall_times(self):
        sequential = run_all(config=TINY, only=["fig1"])
        parallel = run_all(config=TINY, only=["fig1"], jobs=4)
        assert parallel.jobs > 1
        assert normalize_report(parallel.render()) == normalize_report(
            sequential.render()
        )
        assert sequential.total_wall > 0
        assert parallel.total_wall > 0
        assert parallel.durations["fig1"] > 0
        assert "(jobs=4)" in parallel.render()
        assert "Total wall time:" in sequential.render()

    def test_explicit_context_rejected_for_parallel(self):
        ctx = ExperimentContext(replace(TINY, n_records=1_000))
        with pytest.raises(ValueError, match="context"):
            run_all(config=TINY, only=["fig1"], context=ctx, jobs=2)

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestPlan:
    def test_groups_partition_all_cells_in_registry_order(self):
        plan = build_plan(ALL_NAMES)
        assert set(plan) <= set(GROUPS)
        for group, cells in plan.items():
            order = [
                ALL_NAMES.index(cell.experiment) for cell in cells
            ]
            assert order == sorted(order), group

    def test_unused_groups_are_omitted(self):
        plan = build_plan(["fig1"])
        assert list(plan) == ["facebook"]

    def test_chaos_seed_is_stable_and_per_group(self):
        seeds = {group: derive_chaos_seed(1031, group) for group in GROUPS}
        assert seeds == {
            group: derive_chaos_seed(1031, group) for group in GROUPS
        }
        assert len(set(seeds.values())) == len(GROUPS)
        assert all(0 <= seed <= 0x7FFFFFFF for seed in seeds.values())
        assert derive_chaos_seed(1, "facebook") != derive_chaos_seed(
            2, "facebook"
        )


#: fig2 alone drives traffic through all three shard groups.
CHAOS_NAMES = ["fig2"]


@pytest.fixture(scope="module")
def storm_run():
    return run_parallel(TINY, CHAOS_NAMES, jobs=3, chaos="storm")


class TestChaosParallel:
    def test_fault_sequences_deterministic_across_runs(self, storm_run):
        again = run_parallel(TINY, CHAOS_NAMES, jobs=3, chaos="storm")
        for group in storm_run.shards:
            assert (
                storm_run.shards[group].chaos["fault_log"]
                == again.shards[group].chaos["fault_log"]
            ), group
        assert storm_run.shards and any(
            shard.chaos["fault_log"] for shard in storm_run.shards.values()
        )

    def test_chaos_results_identical_to_fault_free(self, storm_run):
        clean = run_all(config=TINY, only=CHAOS_NAMES)
        for name in CHAOS_NAMES:
            assert (
                storm_run.results[name].render()
                == clean.results[name].render()
            ), name
        # Retries make the edge see strictly more requests.
        assert storm_run.total_api_requests > clean.total_api_requests


class TestCheckpointResume:
    def test_killed_parallel_run_resumes_bit_identical(self, tmp_path):
        names = ["fig2"]
        baseline = run_all(config=TINY, only=names)

        path = tmp_path / "parallel.ckpt.json"
        outage = FAULT_PROFILES["calm"].with_overrides(outage_after=6)
        with pytest.raises(ParallelRunError) as info:
            run_parallel(TINY, names, jobs=3, chaos=outage, checkpoint=path)
        # The worker's traceback travelled across the process boundary.
        assert "Traceback" in str(info.value)

        assert path.exists()
        killed = EstimateCheckpoint(path)
        assert len(killed) > 0

        resumed = run_all(config=TINY, only=names, checkpoint=path, jobs=3)
        assert (
            resumed.results["fig2"].render()
            == baseline.results["fig2"].render()
        )


def _die_in_linkedin_shard(task):
    """Shard entry point whose LinkedIn worker process dies outright.

    Module level so the pool can pickle it by reference; fork workers
    inherit this module.
    """
    if task.group == "linkedin":
        os._exit(13)
    return run_shard(task)


class TestWorkerDeath:
    @pytest.mark.skipif(not HAS_FORK, reason="fork start method required")
    def test_dead_worker_surfaces_and_survivors_are_saved(
        self, monkeypatch, tmp_path
    ):
        import repro.parallel.engine as engine_module

        names = ["fig2"]
        reference = EstimateCheckpoint(tmp_path / "sequential.ckpt.json")
        run_all(config=TINY, only=names, checkpoint=reference)

        monkeypatch.setattr(engine_module, "run_shard", _die_in_linkedin_shard)
        path = tmp_path / "parallel.ckpt.json"
        # One worker runs the shards in plan order, so Facebook and
        # Google complete before the LinkedIn shard kills the process.
        with pytest.raises(BrokenProcessPool, match="terminated abruptly"):
            run_parallel(
                TINY, names, jobs=1, start_method="fork", checkpoint=path
            )

        saved = EstimateCheckpoint(path)
        for group in ("facebook", "google"):
            keys = INTERFACES_OF_GROUP[group]
            assert any(saved.shard(key) for key in keys), group
            for key in keys:
                assert saved.shard(key) == reference.shard(key), key
        assert reference.shard("linkedin")
        assert not saved.shard("linkedin")


def _render_cli(hash_seed: str) -> str:
    """Every experiment at ``--scale tiny --records 2000`` in a fresh
    interpreter under ``PYTHONHASHSEED=hash_seed``."""
    pythonpath = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": pythonpath}
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner",
         "--scale", "tiny", "--records", "2000"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


class TestCrossProcessDeterminism:
    def test_hash_seeds_and_spawn_workers_render_identically(self):
        """String hashing is salted per process, and spawned workers
        build their platforms from the seed in fresh interpreters; no
        output may depend on either."""
        config = ExperimentConfig.tiny().with_records(2_000)
        run = run_parallel(config, ALL_NAMES, jobs=2, start_method="spawn")
        spawned = RunReport(
            config=config,
            results=run.results,
            durations=run.durations,
            total_api_requests=run.total_api_requests,
            jobs=2,
        ).render()
        first = normalize_report(_render_cli("0"))
        assert "Total simulated API requests" in first
        assert all(f"== {name}: " in first for name in ALL_NAMES)
        assert normalize_report(_render_cli("1")) == first
        assert normalize_report(spawned + "\n") == first
