"""Shared experiment state: one session, cached composition sets.

Most figures reuse the same building blocks -- the individual audits of
every default option, and the Random/Top/Bottom composition sets per
(interface, sensitive value).  :class:`ExperimentContext` builds each
exactly once, which both speeds up the full run and mirrors the paper's
stated care to limit the number of API queries.
"""

from __future__ import annotations

from repro import AuditSession, build_audit_session
from repro.core import (
    CompositionSet,
    audit_individuals,
    random_compositions,
    skewed_compositions,
)
from repro.core.audit import AuditTarget
from repro.core.results import SensitiveValue
from repro.experiments.config import ExperimentConfig
from repro.population.demographics import (
    SENSITIVE_ATTRIBUTES,
    Gender,
    SensitiveAttribute,
)

__all__ = ["ExperimentContext", "TARGET_LABELS"]

#: Display names used in figure panels, in the paper's order.
TARGET_LABELS: dict[str, str] = {
    "facebook_restricted": "FB-restricted",
    "facebook": "Facebook",
    "google": "Google",
    "linkedin": "LinkedIn",
}


def _attribute_of(value: SensitiveValue) -> SensitiveAttribute:
    key = "gender" if isinstance(value, Gender) else "age"
    return SENSITIVE_ATTRIBUTES[key]


class ExperimentContext:
    """Caches the expensive intermediate products of the experiments."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        session: AuditSession | None = None,
    ):
        self.config = config or ExperimentConfig.full()
        self.session = session or build_audit_session(
            n_records=self.config.n_records, seed=self.config.seed
        )
        self._individuals: dict[tuple[str, str], CompositionSet] = {}
        self._sets: dict[tuple, CompositionSet] = {}

    # -- access -------------------------------------------------------------

    @property
    def target_keys(self) -> list[str]:
        """Interface keys in presentation order."""
        return self.session.target_order

    def target(self, key: str) -> AuditTarget:
        """Audit target by interface key."""
        return self.session.targets[key]

    def label(self, key: str) -> str:
        """Panel label for an interface key."""
        return TARGET_LABELS.get(key, key)

    # -- cached building blocks -----------------------------------------------

    def individuals(self, key: str, attribute_name: str) -> CompositionSet:
        """Individual audits of the default list (reach-unfiltered)."""
        cache_key = (key, attribute_name)
        if cache_key not in self._individuals:
            self._individuals[cache_key] = audit_individuals(
                self.target(key), SENSITIVE_ATTRIBUTES[attribute_name]
            )
        return self._individuals[cache_key]

    def individuals_for(self, key: str, value: SensitiveValue) -> CompositionSet:
        """Individual audits against the attribute of ``value``."""
        return self.individuals(key, _attribute_of(value).name)

    def random_set(
        self, key: str, attribute_name: str, arity: int = 2
    ) -> CompositionSet:
        """The Random N-way set for one interface/attribute."""
        cache_key = (key, attribute_name, "random", arity)
        if cache_key not in self._sets:
            self._sets[cache_key] = random_compositions(
                self.target(key),
                SENSITIVE_ATTRIBUTES[attribute_name],
                arity=arity,
                n=self.config.n_compositions,
                seed=self.config.seed,
            )
        return self._sets[cache_key]

    def skewed_set(
        self,
        key: str,
        value: SensitiveValue,
        direction: str,
        arity: int = 2,
    ) -> CompositionSet:
        """The Top/Bottom N-way set toward one sensitive value."""
        # Gender and AgeRange are IntEnums with overlapping raw values
        # (MALE == 0 == AGE_18_24), so the cache key must carry the type.
        cache_key = (key, type(value).__name__, int(value), direction, arity)
        if cache_key not in self._sets:
            attribute = _attribute_of(value)
            self._sets[cache_key] = skewed_compositions(
                self.target(key),
                attribute,
                self.individuals(key, attribute.name),
                value,
                direction=direction,
                arity=arity,
                n=self.config.n_compositions,
                min_reach=self.config.min_reach,
                seed=self.config.seed,
            )
        return self._sets[cache_key]

    def figure_sets(
        self,
        key: str,
        value: SensitiveValue,
        include_3way: bool = False,
    ) -> list[CompositionSet]:
        """The labelled sets one figure panel plots, reach-filtered.

        Order matches the paper's x-axes: Individual, Random 2-way,
        Top 2-way, Bottom 2-way (and optionally Top/Bottom 3-way).
        """
        attribute = _attribute_of(value)
        sets = [
            self.individuals(key, attribute.name),
            self.random_set(key, attribute.name),
            self.skewed_set(key, value, "top"),
            self.skewed_set(key, value, "bottom"),
        ]
        if include_3way:
            sets.append(self.skewed_set(key, value, "top", arity=3))
            sets.append(self.skewed_set(key, value, "bottom", arity=3))
        return [s.filtered(self.config.min_reach) for s in sets]
