"""Simulated advertising platforms (the paper's measurement targets).

This package substitutes for live advertiser access to Facebook,
Google, and LinkedIn.  Each platform is a synthetic population plus one
or more *interfaces* enforcing that platform's real targeting grammar,
composition rules, and size-estimate rounding.  See ``DESIGN.md`` for
the substitution rationale.

The convenience factory :func:`build_platform_suite` constructs the four
interfaces the paper studies (Facebook restricted, Facebook normal,
Google Display, LinkedIn) over consistently sized populations, or the
interfaces of any subset of the three platforms.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.platforms.audiences import (
    AudienceService,
    CustomAudience,
    TrackingPixel,
)
from repro.platforms.base import (
    AdPlatformInterface,
    InterfaceCapabilities,
    ReachEstimate,
)
from repro.platforms.catalog import Catalog, CatalogEntry
from repro.platforms.errors import (
    ApiError,
    BadRequestError,
    CampaignConfigError,
    DisallowedTargetingError,
    ExclusionNotAllowedError,
    NoSizeEstimateError,
    PlatformError,
    RateLimitExceededError,
    TargetingError,
    UnknownOptionError,
    UnsupportedCompositionError,
)
from repro.platforms.facebook import (
    FacebookMarketingPlatform,
    FacebookNormalInterface,
    FacebookRestrictedInterface,
)
from repro.platforms.google import (
    MOST_RESTRICTIVE_CAP,
    FrequencyCap,
    GoogleDisplayInterface,
    GooglePlatform,
    GoogleSearchCampaign,
)
from repro.platforms.linkedin import LinkedInInterface, LinkedInPlatform
from repro.platforms.rounding import (
    ExactRounding,
    FacebookRounding,
    GoogleRounding,
    LinkedInRounding,
    RoundingPolicy,
)
from repro.platforms.targeting import Clause, TargetingSpec, spec_intersection
from repro.population.model import LatentFactorModel, default_model

__all__ = [
    "AdPlatformInterface",
    "AudienceService",
    "CustomAudience",
    "TrackingPixel",
    "ApiError",
    "BadRequestError",
    "CampaignConfigError",
    "Catalog",
    "CatalogEntry",
    "Clause",
    "DisallowedTargetingError",
    "ExactRounding",
    "ExclusionNotAllowedError",
    "FacebookMarketingPlatform",
    "FacebookNormalInterface",
    "FacebookRestrictedInterface",
    "FacebookRounding",
    "FrequencyCap",
    "GoogleDisplayInterface",
    "GooglePlatform",
    "GoogleRounding",
    "GoogleSearchCampaign",
    "InterfaceCapabilities",
    "LinkedInInterface",
    "LinkedInPlatform",
    "LinkedInRounding",
    "MOST_RESTRICTIVE_CAP",
    "PLATFORMS",
    "NoSizeEstimateError",
    "PlatformError",
    "PlatformSuite",
    "RateLimitExceededError",
    "ReachEstimate",
    "RoundingPolicy",
    "TargetingError",
    "TargetingSpec",
    "UnknownOptionError",
    "UnsupportedCompositionError",
    "build_platform_suite",
    "spec_intersection",
]


#: Platform names in canonical order, with each one's seed offset from
#: the suite's root seed.  The offsets keep the populations independent,
#: so any subset of platforms builds bit-identically to the full suite.
PLATFORMS: tuple[str, ...] = ("facebook", "google", "linkedin")
_FACTORIES = {
    "facebook": (FacebookMarketingPlatform, 0),
    "google": (GooglePlatform, 1),
    "linkedin": (LinkedInPlatform, 2),
}


class PlatformSuite:
    """The studied interfaces plus their owning platforms.

    A suite holds the platforms it was built with (all three by
    default); asking for one it was not built with raises
    :class:`KeyError` rather than returning ``None``.
    """

    def __init__(self, platforms: Mapping[str, object]):
        #: Platform name -> platform, in :data:`PLATFORMS` order.
        self.platforms = dict(platforms)

    def _platform(self, name: str):
        try:
            return self.platforms[name]
        except KeyError:
            raise KeyError(
                f"platform {name!r} was not built in this suite "
                f"(built: {', '.join(self.platforms) or 'none'})"
            ) from None

    @property
    def facebook(self) -> FacebookMarketingPlatform:
        return self._platform("facebook")

    @property
    def google(self) -> GooglePlatform:
        return self._platform("google")

    @property
    def linkedin(self) -> LinkedInPlatform:
        return self._platform("linkedin")

    @property
    def interfaces(self) -> dict[str, AdPlatformInterface]:
        """The built measurement interfaces keyed by registry key, in
        the order the paper presents them (FB-restricted first)."""
        interfaces = {}
        if "facebook" in self.platforms:
            interfaces[self.facebook.restricted.key] = self.facebook.restricted
            interfaces[self.facebook.normal.key] = self.facebook.normal
        if "google" in self.platforms:
            interfaces[self.google.display.key] = self.google.display
        if "linkedin" in self.platforms:
            interfaces[self.linkedin.interface.key] = self.linkedin.interface
        return interfaces

    def total_query_count(self) -> int:
        """Size queries issued across every built interface."""
        total = sum(i.query_count for i in self.interfaces.values())
        if "google" in self.platforms:
            total += self.google.search_campaign.query_count
        return total


def build_platform_suite(
    n_records: int = 50_000,
    seed: int = 42,
    model: LatentFactorModel | None = None,
    rounding: RoundingPolicy | None = None,
    platforms: Iterable[str] = PLATFORMS,
) -> PlatformSuite:
    """Build simulated platforms over ``n_records``-sized populations.

    Each platform draws an independent population (seeded off ``seed``)
    with its own calibration; all share one latent-factor ``model`` so
    cross-platform comparisons use the same interest space.  Pass
    ``rounding`` (e.g. :class:`ExactRounding`) to override every
    interface's rounding policy for ablations.

    ``platforms`` names the platforms to build (default: all of
    :data:`PLATFORMS`).  A platform's population depends only on
    ``seed`` and the model, so a suite of one platform -- what a
    parallel worker builds -- matches that platform in the full suite.
    """
    names = set(platforms)
    unknown = names - set(PLATFORMS)
    if unknown:
        raise ValueError(f"unknown platforms: {sorted(unknown)}")
    model = model or default_model()
    built = {}
    for name in PLATFORMS:
        if name in names:
            factory, offset = _FACTORIES[name]
            built[name] = factory(
                n_records=n_records,
                seed=seed + offset,
                model=model,
                rounding=rounding,
            )
    return PlatformSuite(built)
