"""Run-everything experiment runner and CLI (``repro-audit``).

Runs each experiment against one shared :class:`ExperimentContext`
(so size queries are reused across figures, as in the paper), collects
the rendered reports, and optionally writes them to a file.

Runs survive hostile platforms: ``--chaos PROFILE`` injects a named
fault profile (throttle storms, 5xx bursts, resets, timeouts,
truncated batches) which the clients' resilience layer absorbs, and
``--checkpoint PATH`` persists every completed size estimate so a
killed run resumes without re-querying -- output stays bit-identical
either way.

``--jobs N`` shards the experiments across worker processes by
platform interface group (``repro.parallel``); results, query counts,
and rendered reports are bit-identical to a sequential run.

CLI usage::

    repro-audit --scale small
    repro-audit --scale full --out results.txt
    repro-audit --only fig1 table1 --records 60000
    repro-audit --chaos storm --checkpoint run.ckpt.json
    repro-audit --jobs 4            # 0 = one worker per CPU
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import build_audit_session
from repro.api.chaos import FAULT_PROFILES, FaultProfile
from repro.core.checkpoint import EstimateCheckpoint
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
from repro.experiments.context import ExperimentContext
from repro.obs import NULL_METRICS, NULL_TRACER, MetricsRegistry, Tracer
from repro.parallel.engine import resolve_jobs, run_parallel
from repro.parallel.plan import build_plan

__all__ = ["EXPERIMENTS", "RunReport", "run_all", "main"]

#: Experiment registry: name -> (paper artifact, runner callable).
EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "fig1": ("Figure 1 (FB-restricted distributions)", fig1_restricted.run),
    "fig2": ("Figure 2 (cross-platform distributions)", fig2_platforms.run),
    "fig3": ("Figure 3 (removal sweep, gender)", fig3_removal.run),
    "fig4": ("Figure 4 (age-range distributions)", fig4_ages.run),
    "fig5": ("Figure 5 (recall distributions)", fig5_recall.run),
    "fig6": ("Figure 6 (removal sweeps, ages)", fig6_removal_ages.run),
    "table1": ("Table 1 (overlap / union recall)", table1_overlap.run),
    "tables23": ("Tables 2-3 (illustrative compositions)", tables23_examples.run),
    "methodology": ("Section 3 (size-estimate studies)", methodology.run),
    "ext_lookalike": (
        "Extension (lookalike vs special ad audience)",
        ext_lookalike.run,
    ),
    "ext_mitigation": (
        "Extension (outcome-based vs removal mitigation)",
        ext_mitigation.run,
    ),
}


@dataclass
class RunReport:
    """Results and timings of one full experiment run."""

    config: ExperimentConfig
    results: dict[str, object] = field(default_factory=dict)
    durations: dict[str, float] = field(default_factory=dict)
    total_api_requests: int = 0
    #: End-to-end wall time of the run, including session build.
    total_wall: float = 0.0
    #: Worker processes the run used (1 = sequential).
    jobs: int = 1

    def render(self) -> str:
        parts = [
            "Reproduction run — 'On the Potential for Discrimination via "
            "Composition' (IMC 2020)",
            f"records/platform={self.config.n_records:,} "
            f"compositions/set={self.config.n_compositions} "
            f"seed={self.config.seed}",
            "",
        ]
        for name, result in self.results.items():
            title, _ = EXPERIMENTS[name]
            header = f"== {name}: {title} ({self.durations[name]:.1f}s) =="
            parts += [header, result.render(), ""]
        parts.append(
            f"Total simulated API requests: {self.total_api_requests:,} "
            "(paper: 80,000+ per platform)"
        )
        parts.append(
            f"Total wall time: {self.total_wall:.1f}s (jobs={self.jobs})"
        )
        return "\n".join(parts)


def run_all(
    config: ExperimentConfig | None = None,
    only: list[str] | None = None,
    context: ExperimentContext | None = None,
    verbose: bool = False,
    chaos: FaultProfile | str | None = None,
    chaos_seed: int = 1031,
    checkpoint: EstimateCheckpoint | str | Path | None = None,
    jobs: int = 1,
    tracer=None,
    metrics=None,
) -> RunReport:
    """Run the selected experiments over one shared context.

    ``tracer`` / ``metrics`` (see :mod:`repro.obs`) are threaded into
    the session build and wrap each experiment in a span / metrics
    scope.  When an explicit ``context`` is supplied they default to
    its session's sinks, so a caller who built a traced session gets
    experiment spans without passing the tracer twice.  Observability
    never changes what a run computes.

    ``chaos`` builds the session over a fault-injecting transport (by
    profile or name from :data:`FAULT_PROFILES`); ignored when an
    explicit ``context`` is supplied.  Without an explicit ``context``
    the session holds only the platforms the selected experiments
    query (``--only fig1`` builds Facebook alone).  ``checkpoint``
    attaches an estimate checkpoint (a store, or a path that is loaded
    if present) to every audit target: completed size estimates
    persist even when an experiment raises mid-run -- e.g. an
    exhausted circuit breaker during an outage -- and a re-run with
    the same checkpoint resumes without re-issuing them, producing
    bit-identical output.

    ``jobs`` > 1 dispatches to :func:`repro.parallel.run_parallel`
    (``0`` means one worker per CPU); the report is bit-identical to a
    sequential run apart from wall times.  Parallel runs build their
    own per-worker sessions, so an explicit ``context`` is rejected.
    """
    config = config or ExperimentConfig.full()
    names = list(only or EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    if context is not None:
        if tracer is None:
            tracer = context.session.tracer
        if metrics is None:
            metrics = context.session.metrics
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS

    started_wall = time.perf_counter()
    effective_jobs = resolve_jobs(jobs)
    if effective_jobs > 1:
        if context is not None:
            raise ValueError(
                "jobs > 1 builds its own per-worker sessions; pass a "
                "config instead of an explicit context"
            )
        run = run_parallel(
            config,
            names,
            effective_jobs,
            chaos=chaos,
            chaos_seed=chaos_seed,
            checkpoint=checkpoint,
            verbose=verbose,
            tracer=tracer,
            metrics=metrics,
        )
        return RunReport(
            config=config,
            results=run.results,
            durations=run.durations,
            total_api_requests=run.total_api_requests,
            total_wall=time.perf_counter() - started_wall,
            jobs=effective_jobs,
        )

    if context is None:
        # Build only the platforms the selected experiments query.
        session = build_audit_session(
            n_records=config.n_records,
            seed=config.seed,
            chaos=chaos,
            chaos_seed=chaos_seed,
            platforms=tuple(build_plan(names)),
            tracer=tracer,
            metrics=metrics,
        )
        context = ExperimentContext(config, session=session)

    store: EstimateCheckpoint | None = None
    if checkpoint is not None:
        store = (
            checkpoint
            if isinstance(checkpoint, EstimateCheckpoint)
            else EstimateCheckpoint(checkpoint)
        )
        for target in context.session.targets.values():
            target.attach_checkpoint(store)
        if verbose and len(store):
            print(
                f"resuming from checkpoint: {len(store):,} estimates",
                file=sys.stderr,
                flush=True,
            )

    report = RunReport(config=context.config)
    # The audit heap is acyclic, so full collections over the caches
    # earlier experiments built reclaim nothing: freeze it at every
    # experiment boundary (DESIGN.md section 6).  A caller that froze
    # objects itself keeps its frozen set untouched.
    freeze = gc.get_freeze_count() == 0
    try:
        for name in names:
            title, runner = EXPERIMENTS[name]
            if verbose:
                print(f"running {name}: {title} ...", file=sys.stderr, flush=True)
            if freeze:
                gc.freeze()
            started = time.perf_counter()
            with tracer.span(f"experiment.{name}"), metrics.scope(
                experiment=name
            ):
                report.results[name] = runner(context)
            report.durations[name] = time.perf_counter() - started
    finally:
        # Persist whatever completed, even when an experiment raised --
        # that is the whole point of the checkpoint.
        try:
            if store is not None and store.path is not None:
                saved = store.save()
                if tracer.enabled:
                    tracer.event(
                        "checkpoint.save",
                        entries=len(store),
                        bytes=saved.stat().st_size,
                    )
        finally:
            if freeze:
                gc.unfreeze()
    report.total_api_requests = context.session.total_api_requests()
    report.total_wall = time.perf_counter() - started_wall
    return report


def main(argv: list[str] | None = None) -> int:
    """``repro-audit`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description=(
            "Regenerate the figures and tables of 'On the Potential for "
            "Discrimination via Composition' against the simulated platforms."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("full", "small", "tiny"),
        default="small",
        help="experiment scale preset (default: small)",
    )
    parser.add_argument(
        "--records", type=int, default=None, help="override records/platform"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the root seed"
    )
    parser.add_argument(
        "--compositions",
        type=int,
        default=None,
        help="override compositions per Random/Top/Bottom set",
    )
    parser.add_argument(
        "--only",
        nargs="+",
        choices=sorted(EXPERIMENTS),
        default=None,
        help="run only these experiments",
    )
    parser.add_argument(
        "--out", type=str, default=None, help="also write the report here"
    )
    parser.add_argument(
        "--chaos",
        choices=sorted(FAULT_PROFILES),
        default=None,
        help="inject a named fault profile (results are unaffected)",
    )
    parser.add_argument(
        "--chaos-seed",
        type=int,
        default=1031,
        help="seed of the injected fault sequence (default: 1031)",
    )
    parser.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help=(
            "persist completed size estimates here and resume from the "
            "file if it already exists"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes to shard the experiments across "
            "(default: 1 = sequential; 0 = one per CPU); output is "
            "bit-identical to a sequential run"
        ),
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "record a structured trace of the run and write it as JSONL "
            "here (summarize with repro-trace); results are unaffected"
        ),
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="aggregate counters/histograms and print them after the report",
    )
    args = parser.parse_args(argv)

    config = getattr(ExperimentConfig, args.scale)()
    if args.records is not None:
        config = config.with_records(args.records)
    if args.seed is not None or args.compositions is not None:
        from dataclasses import replace

        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.compositions is not None:
            overrides["n_compositions"] = args.compositions
        config = replace(config, **overrides)

    # The CLI is a composition root: the one place in the library
    # allowed to construct observability sinks.
    tracer = None
    if args.trace:
        tracer = Tracer(  # repro-lint: disable=obs/ambient-instrumentation
            "repro-audit", scale=args.scale, jobs=args.jobs
        )
    metrics = None
    if args.metrics:
        metrics = MetricsRegistry()  # repro-lint: disable=obs/ambient-instrumentation

    report = run_all(
        config=config,
        only=args.only,
        verbose=True,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        checkpoint=args.checkpoint,
        jobs=args.jobs,
        tracer=tracer,
        metrics=metrics,
    )
    text = report.render()
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if tracer is not None:
        path = tracer.write_jsonl(args.trace)
        print(f"trace written to {path}", file=sys.stderr, flush=True)
    if metrics is not None:
        print("", flush=True)
        print(metrics.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
