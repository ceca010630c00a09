"""Regenerate ``references.json``, the outputs every run is checked against.

Usage (from the repository root)::

    python3 perfbench/make_references.py --seeds 0-23 42

Runs each audit workload once per seed, untraced, and records the
SHA-256 of every experiment's rendered output and the request count.
A workload with ``digests_from`` must reproduce that workload's
outputs, so only its request count is recorded, after checking that
its digests agree.  Regenerate only when the program's outputs are
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json

from common import EXPERIMENTS, OUT_DIR, REFERENCES, WORKLOADS
from run import execute

KNOWN_NONDETERMINISTIC = {
    "ext_lookalike": (
        "platforms/audiences.py seeds the pixel-visitor draw with hash(), "
        "so the output differs in every process (ROADMAP item 1)"
    ),
}


def parse_seeds(items: list[str]) -> list[int]:
    seeds: set[int] = set()
    for item in items:
        low, _, high = item.partition("-")
        seeds.update(range(int(low), int(high or low) + 1))
    return sorted(seeds)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", default=["0-23", "42"])
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)

    audits = [w for w, spec in WORKLOADS.items() if spec["kind"] == "audit"]
    # Workloads others copy their digests from are generated first.
    audits.sort(key=lambda w: "digests_from" in WORKLOADS[w])
    table: dict[str, dict[str, dict]] = {w: {} for w in audits}
    for seed in parse_seeds(args.seeds):
        for workload in audits:
            result = execute(workload, seed, 0, traced=False)
            entry = {"api_requests": result["counters"]["api_requests"]}
            source = WORKLOADS[workload].get("digests_from")
            if source is None:
                entry["digests"] = result["digests"]
            else:
                expected = table[source][str(seed)]["digests"]
                differ = [
                    n
                    for n in EXPERIMENTS
                    if n not in KNOWN_NONDETERMINISTIC
                    and result["digests"][n] != expected[n]
                ]
                if differ:
                    raise SystemExit(
                        f"{workload} seed {seed} differs from {source}: {differ}"
                    )
            table[workload][str(seed)] = entry
            requests = entry["api_requests"]
            print(f"{workload} seed {seed}: {requests} requests", flush=True)

    document = {
        "about": (
            "SHA-256 of each experiment's render() output and the request "
            "count, per workload and seed; written by make_references.py"
        ),
        "known_nondeterministic": KNOWN_NONDETERMINISTIC,
        "workloads": table,
    }
    with open(REFERENCES, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
