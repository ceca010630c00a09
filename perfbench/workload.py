"""One execution of a benchmark workload, in a fresh process.

Usage::

    python3 perfbench/workload.py WORKLOAD SEED RESULT_JSON [--spans SPANS_JSON]

Runs the workload once against the program in ``src/`` and writes its
timings, output digests and counters to ``RESULT_JSON``.  With
``--spans`` the public functions of the layers the workload runs
through are wrapped (see ``spans.py``), and the aggregated spans are
written to ``SPANS_JSON`` when the run ends.  Without it, only the
top-level blocks (set-up, audit, render) are timed, and size estimates
attempted and failed are counted by a wrapper on the API clients'
estimate methods.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

from common import (  # noqa: E402
    EXPERIMENTS,
    OUT_DIR,
    ROOT,
    SINGLE_ESTIMATE_ROUTES,
    SRC,
    WORKLOADS,
)
from spans import SpanRecorder, patch_function, patch_method  # noqa: E402

sys.path.insert(0, str(SRC))


def _words(vector) -> int:
    return -(-len(vector) // 64)


def _estimate_classes() -> list[type]:
    """Client classes that define their own ``estimate``."""
    from repro.api.client import ReachClient

    found, pending = [], list(ReachClient.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "estimate" in cls.__dict__:
            found.append(cls)
    return found


class EstimateCounter:
    """Size estimates attempted and failed, counted at the API clients."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def install(self) -> None:
        from repro.api.client import ReachClient
        from repro.platforms.errors import PlatformError

        counter = self

        def single(fn):
            @functools.wraps(fn)
            def estimate(client, spec):
                counter.attempted += 1
                try:
                    return fn(client, spec)
                except PlatformError:
                    counter.failed += 1
                    raise

            return estimate

        many_fn = ReachClient.estimate_many

        @functools.wraps(many_fn)
        def estimate_many(client, specs, on_result=None):
            out = many_fn(client, specs, on_result)
            counter.attempted += len(out)
            counter.failed += sum(isinstance(v, PlatformError) for v in out)
            return out

        ReachClient.estimate_many = estimate_many
        for cls in _estimate_classes():
            cls.estimate = single(cls.__dict__["estimate"])


def instrument_audit(recorder: SpanRecorder) -> None:
    """Wrap the public functions of every layer the audit runs through."""
    from repro.api.chaos import ChaosTransport
    from repro.api.client import ReachClient
    from repro.api.transport import FakeTransport
    from repro.core.audit import AuditTarget
    from repro.core.checkpoint import EstimateCheckpoint
    from repro.platforms.base import AdPlatformInterface
    from repro.platforms.facebook import FacebookMarketingPlatform
    from repro.platforms.google import GooglePlatform
    from repro.platforms.linkedin import LinkedInPlatform
    from repro.population import bitsets
    from repro.population.bitsets import BitVector
    from repro.population.generator import Population

    patch_method(recorder, Population, "realise_attribute", "population.realise")
    patch_method(recorder, FacebookMarketingPlatform, "__init__", "setup.facebook")
    patch_method(recorder, GooglePlatform, "__init__", "setup.google")
    patch_method(recorder, LinkedInPlatform, "__init__", "setup.linkedin")

    def counts_work(vectors, mask=None):
        if not vectors:
            return 0
        return (len(vectors) + (mask is not None)) * _words(vectors[0])

    def pair_work(a, b):
        return 2 * _words(a)

    patch_function(
        recorder, bitsets, "intersect_counts", "bitsets.intersect_counts", counts_work
    )
    patch_method(
        recorder, BitVector, "intersect_count", "bitsets.intersect_count", pair_work
    )
    patch_method(recorder, BitVector, "__and__", "bitsets.and", pair_work)
    patch_method(recorder, BitVector, "__or__", "bitsets.or", pair_work)

    # Batch routes pass a generator; materialise it so it can be counted.
    timed_prime = recorder.wrap(
        "platforms.prime_counts",
        AdPlatformInterface.prime_counts,
        lambda _interface, specs: len(specs),
    )
    AdPlatformInterface.prime_counts = lambda interface, specs: timed_prime(
        interface, list(specs)
    )

    patch_method(recorder, FakeTransport, "request", "api.server")
    patch_method(recorder, ChaosTransport, "request", "api.chaos")
    patch_method(recorder, ReachClient, "estimate_many", "api.client")
    for cls in _estimate_classes():
        patch_method(recorder, cls, "estimate", "api.client")

    patch_method(recorder, AuditTarget, "audit_many", "core.plan")
    patch_method(recorder, AuditTarget, "audit", "core.audit")
    patch_method(recorder, EstimateCheckpoint, "save", "core.checkpoint_save")


def _free_counters(session) -> dict:
    """Counters the program keeps anyway, read once after the run."""
    routes = session.transport.stats()
    interfaces = list(session.suite.interfaces.values())
    interfaces.append(session.suite.google.search_campaign)
    memo = [i.resolution_stats() for i in interfaces]
    targets = list(session.targets.values())
    faults = getattr(session.transport, "faults", None)
    return {
        "api_requests": session.total_api_requests(),
        "virtual_s": session.transport.clock.now(),
        "estimate_requests": sum(
            c["requests"] for r, c in routes.items() if r.startswith("POST ")
        ),
        "single_item_requests": sum(
            routes.get(r, {"requests": 0})["requests"] for r in SINGLE_ESTIMATE_ROUTES
        ),
        "injected_faults": sum(faults.values()) if faults is not None else 0,
        "rule_memo_entries": sum(m["entries"] for m in memo),
        "rule_memo_hits": sum(m["hits"] for m in memo),
        "rule_memo_misses": sum(m["misses"] for m in memo),
        "cache_hits": sum(t.cache_hits for t in targets),
        "cache_misses": sum(t.cache_misses for t in targets),
        "cached_estimates": sum(t.cache_size for t in targets),
    }


def _layer_metrics(recorder: SpanRecorder) -> dict:
    """Per-layer numbers that only a traced run can give."""
    realise_s = recorder.self_time("population.realise")
    attributes = recorder.calls("population.realise")
    kernels = (
        "bitsets.intersect_counts",
        "bitsets.intersect_count",
        "bitsets.and",
        "bitsets.or",
    )
    kernel_s = recorder.self_time(*kernels)
    words = recorder.work(*kernels)
    prime_s = recorder.self_time("platforms.prime_counts")
    specs = recorder.work("platforms.prime_counts")
    server_s = recorder.self_time("api.server")
    server_calls = recorder.calls("api.server")
    return {
        "population.realise_s": realise_s,
        "population.attributes": attributes,
        "population.ms_per_attr": 1e3 * realise_s / attributes if attributes else 0.0,
        "setup.facebook_s": recorder.total("setup.facebook"),
        "setup.google_s": recorder.total("setup.google"),
        "setup.linkedin_s": recorder.total("setup.linkedin"),
        "bitsets.kernel_s": kernel_s,
        "bitsets.words": words,
        "bitsets.ns_per_word": 1e9 * kernel_s / words if words else 0.0,
        "platforms.prime_s": prime_s,
        "platforms.specs_primed": specs,
        "platforms.us_per_spec": 1e6 * prime_s / specs if specs else 0.0,
        "api.server_s": server_s,
        "api.us_per_request": 1e6 * server_s / server_calls if server_calls else 0.0,
        "api.client_s": recorder.self_time("api.client", "api.chaos"),
        "core.plan_s": recorder.self_time("core.plan"),
        "core.audit_self_s": recorder.self_time("core.audit"),
        "core.checkpoint_save_s": recorder.self_time("core.checkpoint_save"),
    }


def run_audit(name: str, seed: int, recorder: SpanRecorder, traced: bool) -> dict:
    from repro import build_audit_session
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.context import ExperimentContext
    from repro.experiments.runner import run_all
    from repro.obs import MetricsRegistry

    workload = WORKLOADS[name]
    estimates = EstimateCounter()
    estimates.install()
    recorder.top.append(("import", 0.0, time.perf_counter() - STARTED))
    # The client counts re-sent requests only when given a registry.
    metrics = MetricsRegistry() if traced else None
    if traced:
        with recorder.span("trace.install"):
            instrument_audit(recorder)

    config = getattr(ExperimentConfig, workload["scale"])()
    config = replace(config, seed=seed)

    checkpoint = None
    if workload.get("checkpoint"):
        checkpoint = str(OUT_DIR / f"{name}-{seed}-{os.getpid()}.ckpt.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(checkpoint)

    with recorder.span("setup"):
        session = build_audit_session(
            n_records=config.n_records,
            seed=config.seed,
            chaos=workload.get("chaos"),
            metrics=metrics,
        )
    with recorder.span("audit"):
        report = run_all(
            context=ExperimentContext(config, session=session), checkpoint=checkpoint
        )
    with recorder.span("render"):
        digests = {
            experiment: hashlib.sha256(result.render().encode()).hexdigest()
            for experiment, result in report.results.items()
        }

    counters = _free_counters(session)
    counters["retry_requests"] = (
        int(metrics.counter_total("client.retries")) if traced else 0
    )
    counters["checkpoint_bytes"] = 0
    if checkpoint is not None:
        counters["checkpoint_bytes"] = os.path.getsize(checkpoint)
        os.remove(checkpoint)
    result = {
        "setup_s": recorder.total("setup"),
        "audit_s": recorder.total("audit"),
        "render_s": recorder.total("render"),
        "attempted": estimates.attempted,
        "failed": estimates.failed,
        "digests": digests,
        "durations": {e: report.durations[e] for e in EXPERIMENTS},
        "counters": counters,
    }
    if traced:
        result["layers"] = _layer_metrics(recorder)
    return result


def instrument_lint(recorder: SpanRecorder) -> None:
    """Wrap the analysis package's public entry points."""
    from repro.analysis import core, dataflow, graph, incremental
    from repro.analysis.graph import Project

    # extract_record's self time is the per-file rule passes.
    patch_function(recorder, incremental, "extract_record", "analysis.module_rules")
    patch_function(recorder, core, "build_context", "analysis.parse")
    patch_function(recorder, graph, "extract_summary", "analysis.summary")
    patch_method(recorder, Project, "__init__", "analysis.graph")
    patch_method(recorder, Project, "callees_at", "analysis.callgraph")
    patch_function(recorder, dataflow, "fixpoint", "analysis.fixpoint")
    patch_function(recorder, core, "run_project_rules", "analysis.project_rules")


def run_lint(recorder: SpanRecorder, traced: bool) -> dict:
    recorder.top.append(("import", 0.0, time.perf_counter() - STARTED))
    with recorder.span("setup"):
        from repro.analysis.cli import main
    if traced:
        with recorder.span("trace.install"):
            instrument_lint(recorder)

    buffer = io.StringIO()
    with recorder.span("lint"), contextlib.redirect_stdout(buffer):
        exit_code = main(["src", "--no-cache", "--format", "json"])
    payload = json.loads(buffer.getvalue())
    result = {
        "setup_s": recorder.total("setup"),
        "audit_s": recorder.total("lint"),
        "attempted": payload["files"],
        "failed": len(payload["parse_errors"]),
        "lint": {
            "exit_code": exit_code,
            "findings": len(payload["findings"]),
            "files": payload["files"],
            "interprocedural_s": payload["interprocedural_seconds"],
        },
    }
    if traced:
        result["layers"] = {
            f"{name}_s": recorder.self_time(name)
            for name in (
                "analysis.parse",
                "analysis.module_rules",
                "analysis.summary",
                "analysis.graph",
                "analysis.callgraph",
                "analysis.fixpoint",
                "analysis.project_rules",
            )
        }
    return result


def peak_rss_mb() -> float:
    """This process's peak resident set, from ``VmHWM``.

    Not ``ru_maxrss``: on Linux that also counts the peak of the parent
    the process was spawned from, which can exceed the child's own.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("result")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    os.chdir(ROOT)
    # Untraced executions record only the top-level blocks.
    recorder = SpanRecorder(STARTED)
    if WORKLOADS[args.workload]["kind"] == "lint":
        result = run_lint(recorder, bool(args.spans))
    else:
        result = run_audit(args.workload, args.seed, recorder, bool(args.spans))

    result["peak_rss_mb"] = peak_rss_mb()
    result["top_level_s"] = recorder.top_level_seconds()
    if args.spans:
        recorder.dump(args.spans)
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
