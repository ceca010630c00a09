"""Simulated LinkedIn marketing platform.

LinkedIn focuses exclusively on employment-related user needs, which is
why the paper flags its skews as especially concerning.  Interface
quirks the audit must handle (paper footnote 4):

* there are **no separate gender or age targeting fields**; genders and
  age ranges appear as *detailed targeting attributes* in the catalog,
  AND-able into a rule like any other attribute;
* detailed attributes compose as a logical-and of logical-or terms,
  which enables both the composition experiments and the overlap
  analysis;
* audience size estimates count members, rounded to two significant
  digits starting at 300 (0 below).
"""

from __future__ import annotations

from repro.platforms.base import AdPlatformInterface, InterfaceCapabilities
from repro.platforms.catalog import UniverseBuild, build_linkedin_universe
from repro.platforms.rounding import LinkedInRounding, RoundingPolicy
from repro.population.calibration import get_calibration
from repro.population.demographics import AgeRange, Gender
from repro.population.generator import Population, PopulationGenerator
from repro.population.model import LatentFactorModel, default_model

__all__ = ["LinkedInInterface", "LinkedInPlatform"]


class LinkedInInterface(AdPlatformInterface):
    """LinkedIn's campaign-manager targeting interface."""

    name = "LinkedIn"
    key = "linkedin"

    def __init__(
        self,
        population: Population,
        build: UniverseBuild,
        rounding: RoundingPolicy | None = None,
    ):
        super().__init__(
            population=population,
            catalog=build.catalog,
            rounding=rounding or LinkedInRounding(),
            capabilities=InterfaceCapabilities(
                gender_targeting=False,
                age_targeting=False,
                exclusions=True,
                and_of_ors=True,
                cross_feature_and_only=False,
                estimate_unit="users",
            ),
            objectives=("Brand awareness", "Website visits", "Engagement"),
            default_objective="Brand awareness",
        )
        # Keyed by (enum type, value) because Gender and AgeRange are
        # IntEnums whose raw values overlap (MALE == 0 == AGE_18_24).
        self._demographic_options: dict[tuple[type, int], str] = {
            (type(entry.demographic_value), int(entry.demographic_value)): (
                entry.option_id
            )
            for entry in build.catalog
            if entry.demographic_value is not None
        }

    def demographic_option_id(self, value: Gender | AgeRange) -> str:
        """Detailed-attribute option id for a gender or age value.

        The audit ANDs this option into a targeting to measure
        ``|TA AND RA_s|`` on LinkedIn, since the interface lacks
        dedicated demographic targeting fields.
        """
        if not isinstance(value, (Gender, AgeRange)):
            raise KeyError(f"no demographic detailed attribute for {value!r}")
        try:
            return self._demographic_options[(type(value), int(value))]
        except KeyError:
            raise KeyError(f"no demographic detailed attribute for {value!r}") from None


class LinkedInPlatform:
    """One LinkedIn population exposing the campaign-manager interface."""

    def __init__(
        self,
        n_records: int = 50_000,
        seed: int = 2022,
        model: LatentFactorModel | None = None,
        rounding: RoundingPolicy | None = None,
    ):
        calibration = get_calibration("linkedin")
        self.model = model or default_model()
        self.build = build_linkedin_universe(calibration, self.model)
        generator = PopulationGenerator(
            marginals=calibration.marginals,
            model=self.model,
            n_records=n_records,
            scale=calibration.scale_for(n_records),
            seed=seed,
        )
        self.population = generator.generate(self.build.specs)
        self.interface = LinkedInInterface(self.population, self.build, rounding)
        from repro.platforms.audiences import AudienceService

        # Contact targeting / website retargeting / lookalike audiences.
        self.audiences = AudienceService(
            platform_key="li",
            population=self.population,
            interfaces=[self.interface],
            pii_seed=seed,
        )

    @property
    def interfaces(self) -> dict[str, AdPlatformInterface]:
        """The single interface, keyed by its registry key."""
        return {self.interface.key: self.interface}
