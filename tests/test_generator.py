"""Tests for population generation."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.platforms.catalog import (
    build_facebook_universe,
    build_google_universe,
    build_linkedin_universe,
)
from repro.population.bitsets import BitVector
from repro.population.calibration import get_calibration
from repro.population.demographics import AGE_RANGES, Gender, US_MARGINALS
from repro.population.generator import PopulationGenerator
from repro.population.model import (
    GENDER_CONTRAST,
    AttributeSpec,
    default_model,
    sigmoid,
)


def make_generator(n=4000, seed=0):
    return PopulationGenerator(
        marginals=US_MARGINALS,
        model=default_model(n_factors=4),
        n_records=n,
        scale=100.0,
        seed=seed,
    )


def make_spec(attr_id="t:f:a", beta_gender=0.8, base=-2.0):
    return AttributeSpec(
        attr_id=attr_id,
        feature="f",
        category="C",
        name="A",
        base_logit=base,
        beta_gender=beta_gender,
        beta_age=(0.0, 0.0, 0.0, 0.0),
    )


class TestGeneration:
    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationGenerator(US_MARGINALS, default_model(), n_records=0)
        with pytest.raises(ValueError):
            PopulationGenerator(US_MARGINALS, default_model(), 10, scale=0)

    def test_population_shape(self):
        pop = make_generator().generate()
        assert pop.n_records == 4000
        assert pop.latents.shape == (4000, 4)
        assert pop.total_users == pytest.approx(400_000)

    def test_marginals_approximated(self):
        pop = make_generator(n=20_000).generate()
        shares = pop.empirical_gender_shares()
        expected = US_MARGINALS.gender_shares()
        assert shares[Gender.MALE] == pytest.approx(expected[0], abs=0.02)
        age_shares = pop.empirical_age_shares()
        for age, expected_share in zip(AGE_RANGES, US_MARGINALS.age_shares()):
            assert age_shares[age] == pytest.approx(expected_share, abs=0.02)

    def test_deterministic_in_seed(self):
        a = make_generator(seed=7).generate([make_spec()])
        b = make_generator(seed=7).generate([make_spec()])
        assert np.array_equal(a.gender_codes, b.gender_codes)
        assert a.index.attribute("t:f:a") == b.index.attribute("t:f:a")

    def test_different_seeds_differ(self):
        a = make_generator(seed=7).generate()
        b = make_generator(seed=8).generate()
        assert not np.array_equal(a.gender_codes, b.gender_codes)


class TestAttributeRealisation:
    def test_order_independent(self):
        s1, s2 = make_spec("t:f:a"), make_spec("t:f:b")
        pop_ab = make_generator(seed=7).generate([s1, s2])
        pop_ba = make_generator(seed=7).generate([s2, s1])
        assert pop_ab.index.attribute("t:f:a") == pop_ba.index.attribute("t:f:a")
        assert pop_ab.index.attribute("t:f:b") == pop_ba.index.attribute("t:f:b")

    def test_lazy_realisation_idempotent(self):
        pop = make_generator(seed=7).generate()
        first = pop.realise_attribute(make_spec())
        second = pop.realise_attribute(make_spec())
        assert first is second

    def test_gender_skew_realised(self):
        pop = make_generator(n=20_000, seed=7).generate([make_spec(beta_gender=1.5)])
        vec = pop.index.attribute("t:f:a")
        males = pop.index.gender(Gender.MALE)
        females = pop.index.gender(Gender.FEMALE)
        male_rate = vec.intersect_count(males) / males.count()
        female_rate = vec.intersect_count(females) / females.count()
        assert male_rate > female_rate * 1.5

    def test_demographic_size_scaled(self):
        pop = make_generator().generate()
        total = sum(pop.demographic_size(g) for g in (Gender.MALE, Gender.FEMALE))
        assert total == pytest.approx(pop.total_users)


class TestCalibrationScale:
    def test_scale_for(self):
        cal = get_calibration("facebook")
        assert cal.scale_for(1000) == pytest.approx(cal.total_us_users / 1000)
        with pytest.raises(ValueError):
            cal.scale_for(0)

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            get_calibration("myspace")


# -- oracle: the straightforward per-attribute kernel --------------------
#
# The realisation kernel gathers a per-cell demographic table, adds a
# single loading as one scaled latent column and takes a branch-free
# sigmoid.  Each step is exact in IEEE arithmetic, so memberships must
# match this direct transcription of the model bit for bit.


def oracle_logits(model, spec, gender_codes, age_codes, latents):
    g = np.where(
        np.asarray(gender_codes) == int(Gender.MALE),
        GENDER_CONTRAST[Gender.MALE],
        GENDER_CONTRAST[Gender.FEMALE],
    )
    logits = np.full(g.shape, spec.base_logit, dtype=np.float64)
    logits += spec.beta_gender * g
    beta_age = np.asarray(spec.beta_age)
    logits += beta_age[np.asarray(age_codes, dtype=np.intp)]
    if spec.loadings:
        logits += latents @ spec.loading_vector(model.n_factors)
    return logits


def oracle_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def oracle_draw(population, spec, logits):
    rng = np.random.default_rng(
        np.random.SeedSequence([population.seed, zlib.crc32(spec.attr_id.encode())])
    )
    members = rng.random(population.n_records) < oracle_sigmoid(logits)
    return BitVector.from_bool(members).words


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


UNIVERSES = {
    "facebook": build_facebook_universe,
    "google": build_google_universe,
    "linkedin": build_linkedin_universe,
}


@pytest.fixture(scope="module")
def universe_specs():
    model = default_model()
    specs = {}
    for platform, build in UNIVERSES.items():
        universe = build(get_calibration(platform), model)
        specs[platform] = list(universe.specs) + list(
            universe.searchable_specs.values()
        )
    return model, specs


class TestKernelBitIdentity:
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("platform", sorted(UNIVERSES))
    def test_memberships_match_oracle(self, universe_specs, platform, seed):
        model, specs = universe_specs
        cal = get_calibration(platform)
        population = PopulationGenerator(
            cal.marginals, model, n_records=4_000, scale=1.0, seed=seed
        ).generate(specs[platform])
        loadings = {len(spec.loadings) for spec in specs[platform]}
        assert {0, 1} <= loadings and max(loadings) > 1
        demographics = (population.gender_codes, population.age_codes)
        # The kernel's inputs exactly as realise_attribute passes them.
        kernel = (population._cells, population.latents, population._latents_t)
        for spec in specs[platform]:
            expected = oracle_logits(model, spec, *demographics, population.latents)
            logits = model.spec_logits(spec, *kernel)
            assert np.array_equal(bits(logits), bits(expected)), spec.attr_id
            words = population.index.attribute(spec.attr_id).words
            assert np.array_equal(words, oracle_draw(population, spec, expected))

    def test_model_probabilities_match_oracle(self, universe_specs):
        model, specs = universe_specs
        population = PopulationGenerator(
            US_MARGINALS, model, n_records=4_000, seed=3
        ).generate()
        args = (population.gender_codes, population.age_codes, population.latents)
        for spec in specs["google"]:
            expected = oracle_logits(model, spec, *args)
            logits = model.membership_logits(spec, *args)
            assert np.array_equal(bits(logits), bits(expected)), spec.attr_id
            probs = model.membership_probabilities(spec, *args)
            assert np.array_equal(bits(probs), bits(oracle_sigmoid(expected)))

    def test_sigmoid_edge_cases_match_oracle(self):
        magnitudes = [0.0, 1e-300, 36.0, 709.0, 745.0, 1000.0]
        x = np.array(magnitudes + [-m for m in magnitudes])
        with np.errstate(over="ignore"):
            expected = oracle_sigmoid(x)
        assert np.array_equal(bits(sigmoid(x)), bits(expected))
        assert np.all((sigmoid(x) >= 0.0) & (sigmoid(x) <= 1.0))
