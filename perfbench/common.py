"""Workload table and helpers shared by the driver and the child process.

Imports nothing from the program under test, so the driver can start,
validate its arguments and fail cleanly in a tree without ``src/``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for child results, span files and checkpoints.
OUT_DIR = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"

#: name -> how one execution of the workload is built.  ``scale`` names
#: an ``ExperimentConfig`` preset; ``digests_from`` names the workload
#: whose rendered outputs this one must reproduce bit for bit.
#: ``probes`` names the host-speed probes (``run.PROBES``) whose
#: summed time scales the workload's end-to-end times.
#: ``paper_small`` is the calm run: it is the reference
#: ``storm_checkpoint`` must reproduce and can be run by hand, but
#: ``BENCHMARK.json`` does not list it (see ``README.md``).
WORKLOADS: dict[str, dict] = {
    "paper_small": {"kind": "audit", "scale": "small", "probes": ("python", "numpy")},
    "storm_checkpoint": {
        "kind": "audit",
        "scale": "small",
        "probes": ("python", "numpy"),
        "chaos": "storm",
        "checkpoint": True,
        "digests_from": "paper_small",
    },
    "lint_cold": {"kind": "lint", "probes": ("python",)},
}

#: Experiments in the order ``repro-audit`` runs them.
EXPERIMENTS = (
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "tables23",
    "methodology",
    "ext_lookalike",
    "ext_mitigation",
)

#: Single-estimate routes; every other POST route is a batch endpoint.
SINGLE_ESTIMATE_ROUTES = (
    "POST /facebook/delivery_estimate",
    "POST /facebook/special/delivery_estimate",
    "POST /google/reach_estimate",
    "POST /linkedin/audience_count",
)


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def reference_seed(references: dict, workload: str, seed: int) -> int:
    """The committed reference seed a benchmark seed runs as.

    A seed with its own reference runs as itself; any other seed maps
    onto the committed pool, so every run is checked against a
    reference and the same seed always gives the same inputs.
    """
    if WORKLOADS[workload]["kind"] == "lint":
        return seed
    pool = sorted(int(s) for s in references["workloads"][workload])
    return seed if seed in pool else pool[seed % len(pool)]


def median(values) -> float:
    return float(statistics.median(values))
