"""repro -- reproduction of "On the Potential for Discrimination via
Composition" (Venkatadri & Mislove, IMC 2020).

The package has three layers:

* :mod:`repro.population` + :mod:`repro.platforms` + :mod:`repro.api` --
  the simulated substrate standing in for live advertiser access to
  Facebook, Google, and LinkedIn (synthetic populations, full targeting
  interfaces with per-platform composition rules and estimate rounding,
  and a fake-HTTP API layer);
* :mod:`repro.core` -- the paper's methodology as a reusable audit
  library (representation ratios, greedy skewed-composition discovery,
  overlap/union-recall analysis, mitigation sweeps, estimate studies);
* :mod:`repro.experiments` + :mod:`repro.reporting` -- drivers that
  regenerate every figure and table in the paper's evaluation.

Quickstart::

    from repro import build_audit_session
    session = build_audit_session(n_records=30_000, seed=7)
    target = session.targets["facebook_restricted"]
    from repro.core import audit_individuals
    from repro.population.demographics import SENSITIVE_ATTRIBUTES, Gender
    individual = audit_individuals(target, SENSITIVE_ATTRIBUTES["gender"])
    print(sorted(individual.ratios(Gender.MALE))[-5:])
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.api import (
    FAULT_PROFILES,
    ChaosTransport,
    FakeTransport,
    FaultProfile,
    VirtualClock,
    build_clients,
    mount_suite_routes,
)
from repro.api.client import ReachClient
from repro.core import AuditTarget, build_audit_targets
from repro.platforms import (
    PLATFORMS,
    PlatformSuite,
    RoundingPolicy,
    TargetingSpec,
    build_platform_suite,
)
from repro.population.demographics import (
    AGE_RANGES,
    GENDERS,
    SENSITIVE_ATTRIBUTES,
    AgeRange,
    Gender,
    SensitiveAttribute,
)
from repro.population.model import LatentFactorModel, default_model

__version__ = "1.0.0"

__all__ = [
    "AGE_RANGES",
    "AuditSession",
    "AuditTarget",
    "AgeRange",
    "ChaosTransport",
    "FAULT_PROFILES",
    "FaultProfile",
    "GENDERS",
    "Gender",
    "LatentFactorModel",
    "PLATFORMS",
    "PlatformSuite",
    "SENSITIVE_ATTRIBUTES",
    "SensitiveAttribute",
    "TargetingSpec",
    "__version__",
    "build_audit_session",
    "build_platform_suite",
    "default_model",
]


@dataclass
class AuditSession:
    """Everything needed to run the paper's experiments.

    Bundles the simulated platform suite, the fake transport with its
    mounted routes, the per-interface API clients, and the audit
    targets built on top of them.
    """

    suite: PlatformSuite
    #: The transport the clients talk to; a :class:`ChaosTransport`
    #: when the session was built with fault injection.
    transport: FakeTransport | ChaosTransport
    clients: dict[str, ReachClient]
    targets: dict[str, AuditTarget]

    @property
    def target_order(self) -> list[str]:
        """Built interface keys in the paper's presentation order."""
        return list(self.targets)

    @property
    def tracer(self):
        """The tracer threaded through the stack (no-op by default)."""
        return self.transport.tracer

    @property
    def metrics(self):
        """The metrics registry threaded through the stack."""
        return self.transport.metrics

    def total_api_requests(self) -> int:
        """Requests observed by the transport across the session."""
        return self.transport.total_requests


def build_audit_session(
    n_records: int = 50_000,
    seed: int = 42,
    model: LatentFactorModel | None = None,
    rounding: RoundingPolicy | None = None,
    rate_limit: float | None = None,
    chaos: FaultProfile | str | None = None,
    chaos_seed: int = 1031,
    platforms: Iterable[str] = PLATFORMS,
    tracer=None,
    metrics=None,
) -> AuditSession:
    """Construct the full simulation + audit stack.

    Parameters
    ----------
    n_records:
        Simulated records per platform population (each represents
        many real users; see ``DESIGN.md``).
    seed:
        Root seed; everything downstream is deterministic in it.
    model:
        Optional latent-factor model override (ablations).
    rounding:
        Optional rounding-policy override applied to every interface
        (pass :class:`repro.platforms.ExactRounding` to disable
        estimate rounding).
    rate_limit:
        Requests/second allowed per account; ``None`` disables rate
        limiting, which is the right default for batch experiments on
        the virtual clock.
    chaos:
        Optional fault injection: a :class:`FaultProfile` or the name
        of one of :data:`FAULT_PROFILES` (e.g. ``"storm"``).  The
        transport is wrapped in a :class:`ChaosTransport`; the clients'
        resilience layer absorbs the faults, so audit records stay
        bit-identical to a fault-free session.
    chaos_seed:
        Seed of the fault sequence; the same seed replays the same
        faults.
    platforms:
        The platforms to build (default: all of :data:`PLATFORMS`,
        eagerly).  Only their routes, clients and audit targets exist
        in the session; a parallel worker builds just its shard
        group's platform, and ``run_all`` just the platforms its
        experiments use.
    tracer / metrics:
        Observability sinks (see :mod:`repro.obs`), injected into the
        transport -- the single point from which clients, breakers, and
        audit targets pick them up.  Defaults are the no-op singletons;
        enabling them never changes what a session computes.
    """
    suite = build_platform_suite(
        n_records=n_records,
        seed=seed,
        model=model,
        rounding=rounding,
        platforms=platforms,
    )
    transport: FakeTransport | ChaosTransport = FakeTransport(
        clock=VirtualClock(), rate=rate_limit, tracer=tracer, metrics=metrics
    )
    mount_suite_routes(transport, suite)
    if chaos is not None:
        profile = FAULT_PROFILES[chaos] if isinstance(chaos, str) else chaos
        transport = ChaosTransport(transport, profile, seed=chaos_seed)
    built = suite.interfaces
    clients = {
        key: client
        for key, client in build_clients(transport).items()
        if key in built
    }
    targets = build_audit_targets(clients)
    return AuditSession(
        suite=suite, transport=transport, clients=clients, targets=targets
    )
