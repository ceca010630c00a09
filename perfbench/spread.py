"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workloads paper_small lint_cold --seeds 1-10

For every workload, runs ``run.py`` once per seed and prints, for each
metric, the median over seeds and the distance between the first and
third quartiles as a share of the median -- the figure compared with a
metric's ``bound`` in ``BENCHMARK.json``.  Every run's result line is
appended to ``.perfbench/spread.jsonl`` so two commits can be compared
from the same files.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT, WORKLOADS
from make_references import parse_seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    listed = [w["name"] for w in benchmark["workloads"]]
    parser.add_argument(
        "--workloads", nargs="+", choices=sorted(WORKLOADS), default=listed
    )
    parser.add_argument("--seeds", nargs="+", default=["1-10"])
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    OUT_DIR.mkdir(exist_ok=True)

    seeds = parse_seeds(args.seeds)
    status = 0
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            command = [
                sys.executable,
                str(BENCH_DIR / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(args.trace),
            ]
            out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            with open(OUT_DIR / "spread.jsonl", "a") as handle:
                record = {"workload": workload, "seed": seed, "trace": args.trace}
                handle.write(json.dumps({**record, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(seeds)} seeds)")
        for name, series in values.items():
            mid = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = f"{(q3 - q1) / abs(mid):7.2%}" if mid else "    n/a"
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}"
            print(f"  {name:32s} median {mid:12.6g}  spread {spread}{flag}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
