"""Custom, lookalike, and activity-based audiences.

Beyond attribute targeting, the paper's Section 2 catalogues three more
targeting kinds that all three platforms offer and that survive even on
Facebook's restricted interface:

* **PII-based targeting**: the advertiser uploads customer records; the
  platform matches them and builds a *custom audience*;
* **activity-based targeting**: a tracking pixel on the advertiser's
  website collects visitors into a retargeting audience;
* **lookalike targeting**: the platform expands a seed audience to the
  users most similar to it.  On the restricted interface lookalikes are
  replaced by **special ad audiences** "adjusted to comply with the
  audience selection restrictions" -- implemented here as a lookalike
  whose similarity ignores the demographic features (gender, age) but
  still sees the latent interest space, which is precisely why such
  audiences can remain demographically skewed.

Audiences become targetable options (``audience:...`` ids) that compose
with attribute targeting via the normal boolean grammar.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.platforms.base import AdPlatformInterface
from repro.platforms.errors import TargetingError
from repro.population.bitsets import BitVector
from repro.population.demographics import AGE_RANGES, GENDERS
from repro.population.generator import Population
from repro.population.model import sigmoid
from repro.population.pii import PiiDirectory, PiiRecord

__all__ = [
    "CustomAudience",
    "TrackingPixel",
    "AudienceService",
    "MIN_MATCHED_USERS",
]

#: Platforms refuse to build audiences from too few matched users (the
#: real interfaces enforce similar floors for privacy reasons).
MIN_MATCHED_USERS = 100


@dataclass(frozen=True)
class CustomAudience:
    """A matched or derived audience, targetable as an option id."""

    audience_id: str
    name: str
    kind: str  # "pii" | "pixel" | "lookalike" | "special_ad"
    members: BitVector
    matched_count: int

    def __post_init__(self) -> None:
        if self.kind not in ("pii", "pixel", "lookalike", "special_ad"):
            raise ValueError(f"unknown audience kind {self.kind!r}")


@dataclass
class TrackingPixel:
    """An advertiser website instrumented with the platform's pixel.

    Visit propensity follows a logistic model over the latent interest
    space (``direction``) plus optional attribute boosts, so retargeting
    audiences inherit whatever demographic skew the site's audience has
    -- the channel through which activity-based targeting can become
    discriminatory.
    """

    pixel_id: str
    base_logit: float = -3.0
    direction: dict[int, float] = field(default_factory=dict)
    attribute_boosts: dict[str, float] = field(default_factory=dict)

    def visit_probabilities(self, population: Population) -> np.ndarray:
        logits = np.full(population.n_records, self.base_logit)
        for factor, weight in self.direction.items():
            logits += weight * population.latents[:, factor]
        for attr_id, boost in self.attribute_boosts.items():
            members = population.index.attribute(attr_id).to_bool()
            logits += boost * members
        return sigmoid(logits)


class AudienceService:
    """Creates and registers audiences for one platform's interfaces.

    Parameters
    ----------
    platform_key:
        Namespace for audience ids (``"fb"``, ``"g"``, ``"li"``).
    population:
        The platform's user base.
    interfaces:
        Interfaces that may target full-featured audiences (custom,
        pixel, lookalike).
    restricted_interfaces:
        Interfaces under special-ad-category rules: they receive custom
        and pixel audiences, but lookalikes are replaced by special ad
        audiences (Section 2.2).
    """

    def __init__(
        self,
        platform_key: str,
        population: Population,
        interfaces: Sequence[AdPlatformInterface],
        restricted_interfaces: Sequence[AdPlatformInterface] = (),
        pii_seed: int = 0,
    ):
        self.platform_key = platform_key
        self.population = population
        self.interfaces = list(interfaces)
        self.restricted_interfaces = list(restricted_interfaces)
        self.pii = PiiDirectory(population.n_records, seed=pii_seed)
        self._counter = itertools.count(1)
        self._audiences: dict[str, CustomAudience] = {}

    # -- registry ----------------------------------------------------------

    def get(self, audience_id: str) -> CustomAudience:
        """Look up a created audience."""
        return self._audiences[audience_id]

    def __len__(self) -> int:
        return len(self._audiences)

    def _register(
        self, audience: CustomAudience, include_restricted: bool
    ) -> CustomAudience:
        self._audiences[audience.audience_id] = audience
        for interface in self.interfaces:
            interface.register_audience(audience.audience_id, audience.members)
        if include_restricted:
            for interface in self.restricted_interfaces:
                interface.register_audience(
                    audience.audience_id, audience.members
                )
        return audience

    def _next_id(self, kind: str) -> str:
        return f"audience:{self.platform_key}:{kind}:{next(self._counter)}"

    # -- PII custom audiences --------------------------------------------

    def create_custom_audience(
        self, name: str, uploads: Sequence[PiiRecord]
    ) -> CustomAudience:
        """Match uploaded PII and build a custom audience.

        Raises :class:`TargetingError` when fewer than
        :data:`MIN_MATCHED_USERS` records match -- the platforms refuse
        tiny custom audiences.
        """
        matched = self.pii.match(uploads)
        if len(matched) < MIN_MATCHED_USERS:
            raise TargetingError(
                f"custom audience {name!r} matched only {len(matched)} users "
                f"(minimum {MIN_MATCHED_USERS})"
            )
        members = BitVector.from_indices(matched, self.population.n_records)
        audience = CustomAudience(
            audience_id=self._next_id("pii"),
            name=name,
            kind="pii",
            members=members,
            matched_count=len(matched),
        )
        return self._register(audience, include_restricted=True)

    # -- pixel / activity audiences -----------------------------------------

    def create_pixel_audience(
        self, name: str, pixel: TrackingPixel, seed: int = 0
    ) -> CustomAudience:
        """Simulate site visitors and build a retargeting audience."""
        probs = pixel.visit_probabilities(self.population)
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, zlib.crc32(pixel.pixel_id.encode())])
        )
        visitors = rng.random(self.population.n_records) < probs
        audience = CustomAudience(
            audience_id=self._next_id("pixel"),
            name=name,
            kind="pixel",
            members=BitVector.from_bool(visitors),
            matched_count=int(visitors.sum()),
        )
        return self._register(audience, include_restricted=True)

    # -- lookalike / special ad audiences ----------------------------------

    def _feature_matrix(self, demographics: bool) -> np.ndarray:
        """User feature matrix for similarity scoring."""
        parts = [self.population.latents]
        if demographics:
            for gender in GENDERS:
                parts.append(
                    self.population.index.gender(gender).to_bool()[:, None] * 1.0
                )
            for age in AGE_RANGES:
                parts.append(
                    self.population.index.age(age).to_bool()[:, None] * 1.0
                )
        return np.hstack(parts)

    def _expand(
        self,
        seed_audience: CustomAudience,
        target_fraction: float,
        demographics: bool,
    ) -> BitVector:
        if not 0.0 < target_fraction <= 0.2:
            raise ValueError("target_fraction must be in (0, 0.2]")
        features = self._feature_matrix(demographics)
        seed_mask = seed_audience.members.to_bool()
        if not seed_mask.any():
            raise TargetingError("seed audience is empty")
        centroid = features[seed_mask].mean(axis=0)
        scores = features @ centroid
        scores[seed_mask] = -np.inf  # lookalikes exclude the seed
        n_target = max(1, int(self.population.n_records * target_fraction))
        top = np.argpartition(-scores, n_target - 1)[:n_target]
        return BitVector.from_indices(top.tolist(), self.population.n_records)

    def create_lookalike(
        self, name: str, seed_audience: CustomAudience,
        target_fraction: float = 0.01,
    ) -> CustomAudience:
        """Expand a seed to its most similar users (full feature space).

        Registered only on unrestricted interfaces: special ad category
        campaigns must use :meth:`create_special_ad_audience`.
        """
        members = self._expand(seed_audience, target_fraction, demographics=True)
        audience = CustomAudience(
            audience_id=self._next_id("lookalike"),
            name=name,
            kind="lookalike",
            members=members,
            matched_count=members.count(),
        )
        return self._register(audience, include_restricted=False)

    def create_special_ad_audience(
        self, name: str, seed_audience: CustomAudience,
        target_fraction: float = 0.01,
    ) -> CustomAudience:
        """Demographics-blind lookalike for special ad categories.

        Similarity ignores gender and age features, per Facebook's
        description of audiences "adjusted to comply with the audience
        selection restrictions".  Because the latent interest space
        still correlates with demographics, the result can remain
        skewed -- the measurable gap between this and
        :meth:`create_lookalike` is the extension experiment
        ``ext_lookalike``.
        """
        members = self._expand(
            seed_audience, target_fraction, demographics=False
        )
        audience = CustomAudience(
            audience_id=self._next_id("special_ad"),
            name=name,
            kind="special_ad",
            members=members,
            matched_count=members.count(),
        )
        return self._register(audience, include_restricted=True)
