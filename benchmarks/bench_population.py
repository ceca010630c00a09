"""Micro-benchmark of attribute realisation, the population build's kernel.

Every simulated platform realises its whole attribute universe before
the first audit query; Google's 3,297 attributes dominate that cost.
The bench times realisation alone (a fresh population per round, so no
attribute is cached) and reports milliseconds per attribute.
"""

from __future__ import annotations

import pytest

from repro.platforms.catalog import build_google_universe
from repro.population.calibration import get_calibration
from repro.population.generator import PopulationGenerator
from repro.population.model import default_model

N_RECORDS = 40_000


@pytest.fixture(scope="module")
def google_universe():
    model = default_model()
    calibration = get_calibration("google")
    specs = build_google_universe(calibration, model).specs
    generator = PopulationGenerator(
        calibration.marginals,
        model,
        n_records=N_RECORDS,
        scale=calibration.scale_for(N_RECORDS),
        seed=43,
    )
    return generator, specs


def realise_all(population, specs):
    for spec in specs:
        population.realise_attribute(spec)
    return population


def test_realise_google_universe(benchmark, google_universe):
    """Realise all Google attributes over 40k records."""
    generator, specs = google_universe
    population = benchmark.pedantic(
        realise_all,
        setup=lambda: ((generator.generate(), specs), {}),
        rounds=3,
        iterations=1,
    )
    assert len(population.index) == len(specs)
    benchmark.extra_info["records"] = N_RECORDS
    benchmark.extra_info["attributes"] = len(specs)
    benchmark.extra_info["ms_per_attr"] = round(
        benchmark.stats.stats.median * 1e3 / len(specs), 4
    )
