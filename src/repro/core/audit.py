"""The audit measurement engine.

:class:`AuditTarget` gives the analysis layers a uniform surface over
one studied interface while encoding the per-platform measurement
tricks from Section 3 of the paper:

* **Facebook restricted**: the interface forbids age/gender targeting,
  so targetings are *validated* against the restricted interface but
  the demographic slicing is *measured* through the normal interface
  (both share the same user base);
* **Google**: demographic slicing uses Google's gender/age targeting
  fields; compositions are possible only across features
  (audiences x topics), and boolean and-of-or rules have no size
  statistics, so the overlap analysis is unsupported;
* **LinkedIn**: there are no demographic targeting fields; the audit
  ANDs the corresponding detailed-targeting facet into the rule.

All size queries go through the API clients (never the simulator's
internals) and are cached per targeting spec, mirroring the paper's
care to limit query load.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.api.client import (
    CatalogOption,
    GoogleReachClient,
    LinkedInReachClient,
    ReachClient,
)
from repro.core.results import SensitiveValue, TargetingAudit
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.platforms.errors import UnsupportedCompositionError
from repro.platforms.targeting import TargetingSpec, spec_intersection
from repro.population.demographics import (
    AgeRange,
    Gender,
    SensitiveAttribute,
)

__all__ = ["AuditTarget", "build_audit_targets"]

#: Interface key -> target name, in the paper's presentation order.
_TARGET_NAMES = {
    "facebook_restricted": "Facebook (restricted)",
    "facebook": "Facebook",
    "google": "Google",
    "linkedin": "LinkedIn",
}


class AuditTarget:
    """One studied interface, ready to be audited.

    Parameters
    ----------
    key / name:
        Registry key and display name (``"facebook_restricted"`` /
        ``"Facebook (restricted)"``).
    client:
        The interface's own API client; used for catalog access and for
        validating that a targeting is accepted by *this* interface.
    measure_client:
        Client used for demographically sliced size queries.  Defaults
        to ``client``; Facebook's restricted target passes the normal
        interface's client here, as the paper does.
    """

    def __init__(
        self,
        key: str,
        name: str,
        client: ReachClient,
        measure_client: ReachClient | None = None,
    ):
        self.key = key
        self.name = name
        self.client = client
        self.measure_client = measure_client or client
        # Observability rides in on the clients (and ultimately the
        # transport); targets never construct their own sinks.
        self.tracer = getattr(client, "tracer", NULL_TRACER)
        self.metrics = getattr(client, "metrics", NULL_METRICS)
        # Estimate cache, sharded per interface key: specs are hashed
        # on every lookup of the audit's hot loop, so the shard layout
        # avoids allocating and hashing a (key, spec) tuple per lookup.
        self._cache: dict[str, dict[TargetingSpec, int]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        # Spec-construction memos: demographic slicing builds the same
        # refined specs for every audit of a composition, and the base
        # sizes |RA_v| are shared by every audit record.
        self._audit_slices: dict[
            tuple[TargetingSpec, str], list[tuple[SensitiveValue, TargetingSpec]]
        ] = {}
        self._base_sizes: dict[str, dict[SensitiveValue, int]] = {}
        self._composition_specs: dict[tuple[str, ...], TargetingSpec] = {}
        self._features: dict[str, str] | None = None
        # Keyed by (enum type, value): Gender and AgeRange are IntEnums
        # with overlapping raw values, so they cannot share a plain dict.
        self._li_demo_ids: dict[tuple[type, int], str] | None = None
        # Optional durable store mirroring the estimate cache; see
        # :meth:`attach_checkpoint`.
        self._checkpoint = None

    # -- checkpointing ------------------------------------------------------

    def attach_checkpoint(self, checkpoint) -> None:
        """Mirror the estimate cache into an
        :class:`~repro.core.checkpoint.EstimateCheckpoint`.

        Estimates already in the store pre-warm the cache (so the query
        planner never re-issues them), and every future successful
        estimate is recorded.  Audit records are a pure function of the
        cached estimates, so a killed run resumed through its
        checkpoint yields bit-identical output.
        """
        self._checkpoint = checkpoint
        preloaded = 0
        for client in (self.client, self.measure_client):
            shard = self._cache.setdefault(client.interface_key, {})
            before = len(shard)
            shard.update(checkpoint.shard(client.interface_key))
            preloaded += len(shard) - before
        if self.tracer.enabled:
            self.tracer.event(
                "checkpoint.load", target=self.key, entries=preloaded
            )

    def _record_estimate(
        self, interface_key: str, spec: TargetingSpec, estimate: int
    ) -> None:
        if self._checkpoint is not None:
            self._checkpoint.record(interface_key, spec, estimate)

    # -- catalog ------------------------------------------------------------

    def study_options(self) -> list[CatalogOption]:
        """The default option list the paper studies on this interface."""
        return [
            o
            for o in self.client.catalog()
            if o.demographic is None and not o.free_form
        ]

    def study_option_ids(self) -> list[str]:
        """Ids of the study options."""
        return [o.option_id for o in self.study_options()]

    def option_names(self) -> dict[str, str]:
        """Display names keyed by option id."""
        return self.client.option_names()

    def feature_of(self, option_id: str) -> str:
        """Feature of a catalog option (catalog loaded once, lazily)."""
        if self._features is None:
            self._features = {o.option_id: o.feature for o in self.client.catalog()}
        return self._features[option_id]

    def features(self) -> list[str]:
        """Distinct composable features among the study options."""
        return sorted({self.feature_of(o) for o in self.study_option_ids()})

    # -- composition rules ---------------------------------------------------

    @property
    def cross_feature_only(self) -> bool:
        """Whether AND-composition requires distinct features (Google)."""
        return isinstance(self.client, GoogleReachClient)

    def can_compose(self, options: Sequence[str]) -> bool:
        """Whether this interface can AND-compose the given options."""
        if len(set(options)) != len(options):
            return False
        if self.cross_feature_only:
            features = [self.feature_of(o) for o in options]
            return len(set(features)) == len(features)
        return True

    def composition_spec(self, options: Sequence[str]) -> TargetingSpec:
        """AND-composition targeting spec over the given options (memoised)."""
        key = tuple(options)
        cached = self._composition_specs.get(key)
        if cached is None:
            if not self.can_compose(key):
                raise UnsupportedCompositionError(
                    f"{self.name} cannot AND-compose {list(key)}"
                )
            cached = self._composition_specs[key] = TargetingSpec.of(*key)
        return cached

    # -- demographic slicing ---------------------------------------------

    @property
    def _demographics_via_facets(self) -> bool:
        return isinstance(self.measure_client, LinkedInReachClient)

    def _linkedin_demo_id(self, value: SensitiveValue) -> str:
        if self._li_demo_ids is None:
            self._li_demo_ids = {}
        key = (type(value), int(value))
        if key not in self._li_demo_ids:
            assert isinstance(self.measure_client, LinkedInReachClient)
            self._li_demo_ids[key] = self.measure_client.demographic_option_id(
                value.label
            )
        return self._li_demo_ids[key]

    @staticmethod
    def _complement_values(value: SensitiveValue) -> list[SensitiveValue]:
        if isinstance(value, Gender):
            return [value.other]
        if isinstance(value, AgeRange):
            return [a for a in AgeRange if a is not value]
        raise TypeError(f"not a sensitive value: {value!r}")

    def demographic_spec(
        self,
        spec: TargetingSpec,
        value: SensitiveValue | None,
        exclude: bool = False,
    ) -> TargetingSpec:
        """Restrict a spec to one sensitive value (or its complement),
        however this platform expresses that.

        ``exclude=True`` selects ``RA_{not value}`` -- used for the
        recall of exclusion-style skews such as "age not 18-24".
        """
        if value is None:
            return spec
        return self._build_demographic_spec(spec, value, exclude)

    def _build_demographic_spec(
        self,
        spec: TargetingSpec,
        value: SensitiveValue,
        exclude: bool,
    ) -> TargetingSpec:
        values = self._complement_values(value) if exclude else [value]
        if self._demographics_via_facets:
            return spec.and_clause(
                [self._linkedin_demo_id(v) for v in values]
            )
        if isinstance(value, Gender):
            return spec.with_gender(values[0]) if len(values) == 1 else spec
        if isinstance(value, AgeRange):
            if len(values) == 1:
                return spec.with_age(values[0])
            return spec.with_ages(values)
        raise TypeError(f"not a sensitive value: {value!r}")

    # -- measurement -----------------------------------------------------------

    def _measure(self, client: ReachClient, spec: TargetingSpec) -> int:
        shard = self._cache.get(client.interface_key)
        if shard is None:
            shard = self._cache[client.interface_key] = {}
        cached = shard.get(spec)
        if cached is not None:
            # No per-lookup event here: the audit hot loop hits the
            # cache hundreds of thousands of times per experiment, so
            # audit_many emits one coalesced event per batch instead.
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        result = shard[spec] = client.estimate(spec)
        self._record_estimate(client.interface_key, spec, result)
        return result

    def _slices(
        self, spec: TargetingSpec, attribute: SensitiveAttribute
    ) -> list[tuple[SensitiveValue, TargetingSpec]]:
        """Memoised ``(value, demographically sliced spec)`` pairs.

        Both the query planner and the audit loop walk a composition's
        demographic slices; memoising the whole list costs one dict hit
        instead of one per value.
        """
        key = (spec, attribute.name)
        cached = self._audit_slices.get(key)
        if cached is None:
            cached = self._audit_slices[key] = [
                (v, self._build_demographic_spec(spec, v, False))
                for v in attribute.values
            ]
        return cached

    def measure(
        self,
        spec: TargetingSpec,
        value: SensitiveValue | None = None,
        exclude: bool = False,
    ) -> int:
        """Cached size estimate of ``spec`` restricted to ``value``."""
        return self._measure(
            self.measure_client, self.demographic_spec(spec, value, exclude)
        )

    def base_sizes(
        self, attribute: SensitiveAttribute
    ) -> dict[SensitiveValue, int]:
        """``|RA_v|`` for every value of the sensitive attribute.

        Measured once per attribute and memoised -- every audit record
        carries these, so they are hoisted out of the per-audit loop.
        Callers get a fresh copy.
        """
        cached = self._base_sizes.get(attribute.name)
        if cached is None:
            everyone = TargetingSpec.everyone()
            cached = self._base_sizes[attribute.name] = {
                v: self.measure(everyone, v) for v in attribute.values
            }
        return dict(cached)

    def audit(
        self, options: Sequence[str], attribute: SensitiveAttribute
    ) -> TargetingAudit:
        """Audit one targeting (individual or composition).

        Validates the targeting on this interface (one un-sliced size
        query through ``client``), then measures the per-value sizes
        through ``measure_client``.
        """
        spec = self.composition_spec(options)
        if self.measure_client is not self.client:
            # Facebook-restricted path: confirm the restricted interface
            # accepts this exact targeting before measuring elsewhere.
            self._measure(self.client, spec)
        measure_client = self.measure_client
        sizes = {
            v: self._measure(measure_client, sliced)
            for v, sliced in self._slices(spec, attribute)
        }
        return TargetingAudit(
            options=tuple(options),
            attribute=attribute,
            sizes=sizes,
            bases=self.base_sizes(attribute),
        )

    #: Whether :meth:`audit_many` plans batched size queries by default.
    batch_queries: bool = True

    def _plan_queries(
        self,
        compositions: Sequence[tuple[str, ...]],
        attribute: SensitiveAttribute,
    ) -> list[tuple[ReachClient, TargetingSpec]]:
        """Every uncached size query an audit batch needs, in first-use
        order, deduped against the spec cache and within the plan.

        Base sizes are hoisted to the front -- every audit record needs
        them, so they dedupe to one query per sensitive value.  When an
        inexpressible composition would make the sequential path raise,
        only the prefix before it is planned; the scatter pass then
        raises at the same composition.
        """
        measure_client = self.measure_client
        validate_client = self.client if measure_client is not self.client else None

        measured: list[TargetingSpec] = []
        validated: list[TargetingSpec] = []
        slices = self._slices
        everyone = TargetingSpec.everyone()
        measured.extend(s for _v, s in slices(everyone, attribute))
        for options in compositions:
            try:
                spec = self.composition_spec(options)
            except UnsupportedCompositionError:
                break
            if validate_client is not None:
                validated.append(spec)
            measured.extend(s for _v, s in slices(spec, attribute))

        # Dedup in first-use order at C level, then drop cached specs.
        plan: list[tuple[ReachClient, TargetingSpec]] = []
        if validate_client is not None:
            validate_shard = self._cache.setdefault(
                validate_client.interface_key, {}
            )
            plan.extend(
                (validate_client, s)
                for s in dict.fromkeys(validated)
                if s not in validate_shard
            )
        measure_shard = self._cache.setdefault(measure_client.interface_key, {})
        plan.extend(
            (measure_client, s)
            for s in dict.fromkeys(measured)
            if s not in measure_shard
        )
        return plan

    def _dispatch_plan(
        self, plan: Sequence[tuple[ReachClient, TargetingSpec]]
    ) -> None:
        """Fetch a plan's estimates in batched calls, one pass per client.

        Successful estimates land in the spec cache (and checkpoint) as
        each item completes -- streamed through ``on_result`` so a run
        killed mid-plan keeps everything already fetched.  Per-item
        errors are left uncached, so the scatter pass re-issues that
        single call and raises exactly where the sequential path would.
        """
        by_client: dict[str, tuple[ReachClient, list[TargetingSpec]]] = {}
        for client, spec in plan:
            by_client.setdefault(client.interface_key, (client, []))[1].append(spec)
        for client, specs in by_client.values():
            shard = self._cache.setdefault(client.interface_key, {})
            interface_key = client.interface_key

            def commit(
                index: int,
                result,
                shard=shard,
                specs=specs,
                interface_key=interface_key,
            ) -> None:
                if isinstance(result, int):
                    shard[specs[index]] = result
                    self._record_estimate(interface_key, specs[index], result)

            client.estimate_many(specs, on_result=commit)

    def audit_many(
        self,
        compositions: Iterable[Sequence[str]],
        attribute: SensitiveAttribute,
        skip_uncomposable: bool = True,
        batched: bool | None = None,
    ) -> list[TargetingAudit]:
        """Audit a batch, optionally skipping inexpressible compositions.

        With ``batched`` (the default, from :attr:`batch_queries`), the
        whole batch is planned up front: compositions expand into their
        demographic-sliced size queries, duplicates collapse against
        the spec cache, and each client fetches its remaining specs
        through the platform's batch endpoint in one pass.  The audits
        are then assembled from the warmed cache, so the records are
        identical to the sequential path's.
        """
        compositions = [tuple(options) for options in compositions]
        if skip_uncomposable:
            compositions = [o for o in compositions if self.can_compose(o)]
        if batched is None:
            batched = self.batch_queries
        with self.tracer.span(
            "audit.audit_many",
            target=self.key,
            compositions=len(compositions),
            batched=batched,
        ):
            hits, misses = self.cache_hits, self.cache_misses
            if batched:
                self._dispatch_plan(self._plan_queries(compositions, attribute))
            records = [self.audit(options, attribute) for options in compositions]
            self._note_cache_activity(hits, misses)
            return records

    def _note_cache_activity(self, hits_before: int, misses_before: int) -> None:
        """Emit coalesced cache events/metrics for one audit batch.

        A coalesced event carries a ``count`` attribute (N lookups in
        this batch); summarizers weight events by it, so the reported
        totals still equal the per-lookup truth.
        """
        hits = self.cache_hits - hits_before
        misses = self.cache_misses - misses_before
        if self.tracer.enabled:
            if hits:
                self.tracer.event("cache.hit", target=self.key, count=hits)
            if misses:
                self.tracer.event("cache.miss", target=self.key, count=misses)
        if self.metrics.enabled:
            if hits:
                self.metrics.inc(
                    "audit.cache", value=float(hits), kind="hit", target=self.key
                )
            if misses:
                self.metrics.inc(
                    "audit.cache",
                    value=float(misses),
                    kind="miss",
                    target=self.key,
                )

    # -- boolean combinations (overlap / union analyses) ----------------------

    @property
    def supports_boolean_rules(self) -> bool:
        """Whether and-of-or rules have size statistics here.

        True for Facebook (both interfaces) and LinkedIn; False for
        Google, which is why the paper's Table 1 omits Google.
        """
        return not isinstance(self.measure_client, GoogleReachClient)

    def intersection_size(
        self,
        compositions: Sequence[Sequence[str]],
        value: SensitiveValue | None = None,
        exclude: bool = False,
    ) -> int:
        """Size of the intersection of several AND-compositions.

        Expressed as a single and-of-ors rule (each composition
        contributes its clauses) -- the trick from footnote 11.
        """
        if not self.supports_boolean_rules:
            raise UnsupportedCompositionError(
                f"{self.name} shows no size statistics for boolean "
                "combinations of user attributes"
            )
        specs = [self.composition_spec(options) for options in compositions]
        return self.measure(spec_intersection(*specs), value, exclude)

    # -- accounting --------------------------------------------------------------

    @property
    def query_count(self) -> int:
        """API requests issued on behalf of this target."""
        count = self.client.request_count
        if self.measure_client is not self.client:
            count += self.measure_client.request_count
        return count

    @property
    def cache_size(self) -> int:
        """Distinct size queries cached so far."""
        return sum(len(shard) for shard in self._cache.values())

    def cached_estimates(self) -> list[int]:
        """Every distinct estimate observed so far (granularity study)."""
        return [
            estimate
            for shard in self._cache.values()
            for estimate in shard.values()
        ]

    def __repr__(self) -> str:
        return f"<AuditTarget {self.key} cached={self.cache_size}>"


def build_audit_targets(
    clients: Mapping[str, ReachClient],
) -> dict[str, AuditTarget]:
    """Audit targets for the studied interfaces present in ``clients``.

    ``clients`` is the mapping produced by
    :func:`repro.api.client.build_clients`, possibly narrowed to the
    platforms a session built.  The Facebook restricted target
    measures demographics through the normal-interface client.
    """
    return {
        key: AuditTarget(
            key=key,
            name=name,
            client=clients[key],
            measure_client=(
                clients["facebook"] if key == "facebook_restricted" else None
            ),
        )
        for key, name in _TARGET_NAMES.items()
        if key in clients
    }
