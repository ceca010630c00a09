"""Benchmark driver: runs one workload for a fixed time and checks it.

Usage (from the repository root)::

    python3 perfbench/run.py --workload storm_checkpoint --seed 42 --seconds 60 --trace 0

Each execution of the workload is a fresh single process
(``perfbench/workload.py``); executions repeat until ``--seconds`` is
used up, at least three times, and every end-to-end metric is the
median over them.  Host-speed probes run between executions, and
end-to-end times are scaled by them (``scaled``).  ``--trace 1``
alternates untraced and traced executions and reports the per-layer
metrics instead.  Every
execution's outputs are checked against ``references.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print each metric by name and unit, the output check, and the run's
host metadata.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    EXPERIMENTS,
    OUT_DIR,
    ROOT,
    SRC,
    WORKLOADS,
    load_references,
    median,
    reference_seed,
)

#: Executions per run, whatever ``--seconds`` says.
MIN_EXECUTIONS = 3

#: The Python probe's input: a fixed module of small classes, built
#: from the benchmark alone so that no change to the program moves it.
PROBE_SOURCE = "\n".join(
    f"class C{i}:\n"
    f"    def m(self, x, y={i % 97}):\n"
    f"        z = [x * k + {i % 89} for k in range(y) if k % 3]\n"
    f"        d = {{'a': z, 'b': (x, y), 'c': self.m}}\n"
    f"        for k, v in d.items():\n"
    f"            if isinstance(v, list) and len(v) > {i % 83}:\n"
    f"                return sorted(v)[::-1]\n"
    f"        return d.get('a', None) or [x, y]\n"
    for i in range(300)
)

#: Time each probe kind is scaled to (see ``README.md``).
PROBE_REF_S = 0.1

def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; a run reports exactly these."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class ExecutionFailed(RuntimeError):
    pass


def execute(workload: str, seed: int, index: int, traced: bool) -> dict:
    """Run one execution in a fresh process; time it from outside."""
    stem = OUT_DIR / f"{workload}-{seed}-{index}"
    result_path = f"{stem}.result.json"
    command = [
        sys.executable,
        str(BENCH_DIR / "workload.py"),
        workload,
        str(seed),
        result_path,
    ]
    if traced:
        command += ["--spans", f"{stem}.spans.json"]
    with open(f"{stem}.log", "w") as log:
        started = time.perf_counter()
        child = subprocess.Popen(
            command, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT
        )
        try:
            child.wait()
        except BaseException:
            child.kill()
            child.wait()
            raise
        wall = time.perf_counter() - started
    if child.returncode != 0:
        with open(f"{stem}.log") as log:
            tail = log.read()[-3000:]
        raise ExecutionFailed(
            f"{workload} execution {index} exited {child.returncode}:\n{tail}"
        )
    with open(result_path) as handle:
        result = json.load(handle)
    os.remove(result_path)
    result["wall_s"] = wall
    result["traced"] = traced
    return result


class _NameCounter(ast.NodeVisitor):
    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def visit_Name(self, node: ast.Name) -> None:
        self.counts[node.id] = self.counts.get(node.id, 0) + 1

    def visit_Call(self, node: ast.Call) -> None:
        self.counts["()"] = self.counts.get("()", 0) + 1
        self.generic_visit(node)


def python_probe_s() -> float:
    """Parse ``PROBE_SOURCE``, visit the tree in Python and compile it:
    the kind of work the lint and the audit's query path do."""
    started = time.perf_counter()
    tree = ast.parse(PROBE_SOURCE)
    _NameCounter().visit(tree)
    compile(tree, "<probe>", "exec")
    return time.perf_counter() - started


def numpy_probe_s() -> float:
    """Vectorised work on 40k-element arrays, as in population set-up:
    logits, a sigmoid, a Bernoulli draw, packing and popcounts."""
    import numpy as np

    rng = np.random.default_rng(0)
    base = rng.standard_normal((4, 40_000))
    started = time.perf_counter()
    for i in range(300):
        logits = base[i % 4] * 0.7 - base[(i + 1) % 4] * 0.3 + 0.01 * i
        members = rng.random(40_000) < 1.0 / (1.0 + np.exp(-logits))
        words = np.packbits(members).view(np.uint64)
        int(np.bitwise_count(words & words[::-1]).sum())
    return time.perf_counter() - started


PROBES = {"python": python_probe_s, "numpy": numpy_probe_s}


def host_probe_s(workload: str) -> float:
    """The host's current speed at the workload's kinds of work: for
    each of its probes, the median of three timings, summed."""
    return sum(
        median(PROBES[kind]() for _ in range(3))
        for kind in WORKLOADS[workload]["probes"]
    )


def run_executions(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Executions until the time is used (traced runs alternate modes).

    The host probes run before the first execution and after each one;
    an execution's ``probe_s`` is the mean of the probes around it.
    """
    results: list[dict] = []
    started = time.perf_counter()
    probe = host_probe_s(workload)
    while True:
        elapsed = time.perf_counter() - started
        if len(results) >= MIN_EXECUTIONS:
            expected = median(r["cycle_s"] for r in results)
            if elapsed + expected > seconds:
                break
        traced = trace and len(results) % 2 == 1
        cycle = time.perf_counter()
        result = execute(workload, seed, len(results), traced)
        after = host_probe_s(workload)
        result["probe_s"] = (probe + after) / 2
        result["cycle_s"] = time.perf_counter() - cycle
        probe = after
        results.append(result)
    return results


def check_outputs(workload: str, seed: int, results: list, references: dict):
    """Compare every execution with the committed references for ``seed``.

    Returns ``(mismatches, problems)``: experiments whose rendered
    output differed from the reference in any execution, and any other
    failed check.  Experiments the references list as nondeterministic
    are still counted as mismatches but are not problems.
    """
    spec = WORKLOADS[workload]
    problems: list[str] = []
    if spec["kind"] == "lint":
        for r in results:
            lint = r["lint"]
            if lint["exit_code"] != 0 or lint["findings"]:
                problems.append(
                    f"repro-lint exited {lint['exit_code']} with "
                    f"{lint['findings']} finding(s)"
                )
        return [], problems

    source = spec.get("digests_from", workload)
    digests = references["workloads"][source][str(seed)]["digests"]
    mismatches = sorted(
        {
            name
            for r in results
            for name in EXPERIMENTS
            if r["digests"].get(name) != digests[name]
        },
        key=EXPERIMENTS.index,
    )
    known = references["known_nondeterministic"]
    problems += [
        f"{name} differs from the reference" for name in mismatches if name not in known
    ]
    requests = {r["counters"]["api_requests"] for r in results}
    if len(requests) != 1:
        problems.append(f"executions sent different request counts: {sorted(requests)}")
    untraced = [r for r in results if not r["traced"]]
    for r in results:
        if r["traced"]:
            moved = [
                n
                for n in EXPERIMENTS
                if n not in known and r["digests"][n] != untraced[0]["digests"][n]
            ]
            if moved:
                problems.append(f"tracing changed the output of {moved}")
    return mismatches, problems


def scaled(workload: str, result: dict, name: str, unit: str) -> float:
    """A metric of one execution, with its times scaled to the host
    speed at which each of the workload's probes takes ``PROBE_REF_S``."""
    if unit != "s":
        return result[name]
    reference = PROBE_REF_S * len(WORKLOADS[workload]["probes"])
    return result[name] * reference / result["probe_s"]


def end_to_end(workload: str, results: list) -> dict:
    """Each end-to-end metric: its median over the run's executions."""
    units = metric_units("end_to_end")
    return {
        name: median(scaled(workload, r, name, unit) for r in results)
        for name, unit in units.items()
    }


def per_layer(workload: str, results: list) -> dict:
    """Per-layer metrics: spans from traced executions, free counters
    from untraced ones, medians over executions."""
    traced = [r for r in results if r["traced"]]
    untraced = [r for r in results if not r["traced"]]
    metrics = {name: 0.0 for name in metric_units("per_layer")}
    # Each traced execution against its untraced neighbours, so that
    # the host's slow drift in speed cancels out of the ratio.
    ratios = []
    for i, r in enumerate(results):
        if r["traced"]:
            near = [
                n["wall_s"] for n in results[max(i - 1, 0) : i + 2] if not n["traced"]
            ]
            ratios.append(r["wall_s"] * len(near) / sum(near))
    metrics["trace.overhead"] = median(ratios) - 1.0
    metrics["trace.unattributed_s"] = median(
        r["wall_s"] - r["top_level_s"] for r in traced
    )
    for name in traced[0]["layers"]:
        metrics[name] = median(r["layers"][name] for r in traced)
    if WORKLOADS[workload]["kind"] == "lint":
        metrics["analysis.files"] = untraced[0]["lint"]["files"]
        metrics["analysis.interprocedural_s"] = median(
            r["lint"]["interprocedural_s"] for r in untraced
        )
        return metrics
    for name in EXPERIMENTS:
        metrics[f"experiment.{name}_s"] = median(
            r["durations"][name] for r in untraced
        )
    metrics["reporting.render_s"] = median(r["render_s"] for r in untraced)
    counters = untraced[0]["counters"]
    memo = counters["rule_memo_hits"] + counters["rule_memo_misses"]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    metrics.update(
        {
            "platforms.rule_memo_entries": counters["rule_memo_entries"],
            "platforms.rule_memo_hit_rate": counters["rule_memo_hits"] / memo,
            "api.requests": counters["api_requests"],
            "api.virtual_s": counters["virtual_s"],
            "api.items_per_request": untraced[0]["attempted"]
            / counters["estimate_requests"],
            "api.single_item_requests": counters["single_item_requests"],
            "api.injected_faults": counters["injected_faults"],
            "api.retry_requests": traced[0]["counters"]["retry_requests"],
            "core.cache_hit_rate": counters["cache_hits"] / lookups,
            "core.cached_estimates": counters["cached_estimates"],
            "core.checkpoint_bytes": counters["checkpoint_bytes"],
        }
    )
    return metrics


def source_digest() -> str:
    """SHA-256 over ``src/``: identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str | None:
    """The git commit of the checkout, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Turn SIGTERM into SystemExit so a running execution is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    references = load_references()
    OUT_DIR.mkdir(exist_ok=True)
    seed = reference_seed(references, args.workload, args.seed)
    load_before = os.getloadavg()
    try:
        results = run_executions(
            args.workload, seed, args.seconds, bool(args.trace)
        )
    except ExecutionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    mismatches, problems = check_outputs(
        args.workload, seed, results, references
    )
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")

    if args.trace:
        metrics = per_layer(args.workload, results)
        units = metric_units("per_layer")
    else:
        metrics = end_to_end(args.workload, results)
        units = metric_units("end_to_end")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "reference_seed": seed,
        "executions": len(results),
        "traced_executions": sum(r["traced"] for r in results),
        "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "probes": list(WORKLOADS[args.workload]["probes"]),
        "probe_ref_s": PROBE_REF_S * len(WORKLOADS[args.workload]["probes"]),
        "probe_s_median": median(r["probe_s"] for r in results),
        "probe_s_range": [
            min(r["probe_s"] for r in results),
            max(r["probe_s"] for r in results),
        ],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit(),
        "source_sha256": source_digest(),
    }
    print(f"meta {json.dumps(meta)}")
    for name, value in metrics.items():
        measured = ""
        if not args.trace and units[name] == "s":
            raw = median(r[name] for r in results)
            measured = f" (measured {raw:.6g} s)"
        print(f"{name} = {value:.6g} {units[name]}{measured}")
    if "counters" in results[0]:
        requests = results[0]["counters"]["api_requests"]
        ref = references["workloads"][args.workload][str(seed)]
        print(
            f"api_requests = {requests} count "
            f"(reference {ref['api_requests']}, virtual_s "
            f"{results[0]['counters']['virtual_s']:.1f} s)"
        )
    known = references["known_nondeterministic"]
    print(
        f"output_mismatches = {len(mismatches)} "
        + (
            "(" + ", ".join(
                f"{m}: {'known, ' + known[m] if m in known else 'UNEXPECTED'}"
                for m in mismatches
            ) + ")"
            if mismatches
            else ""
        )
    )
    print(f"failed_share = {failed / attempted:.6g} ({failed} of {attempted})")
    print("output check: " + ("ok" if not problems else "; ".join(problems)))

    record = {
        "meta": meta,
        "metrics": metrics,
        "output_mismatches": mismatches,
        "problems": problems,
        "executions": [
            {
                "traced": r["traced"],
                "probe_s": r["probe_s"],
                **{n: r[n] for n in metric_units("end_to_end")},
            }
            for r in results
        ],
    }
    with open(OUT_DIR / "history.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
