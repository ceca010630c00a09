"""Server-side API route handlers for the simulated platforms.

:func:`mount_suite_routes` wires a :class:`~repro.api.transport.FakeTransport`
to a :class:`~repro.platforms.PlatformSuite`, exposing per-platform
endpoints shaped like the real ones the paper automated:

========================================  =======================================
Endpoint                                  Behaviour
========================================  =======================================
``POST /facebook/delivery_estimate``      Facebook normal-interface estimate
``POST /facebook/delivery_estimates``     Batched normal-interface estimates
``POST /facebook/special/delivery_estimate``  Restricted-interface estimate
``POST /facebook/special/delivery_estimates``  Batched restricted estimates
``GET  /facebook/targeting_options``      Normal-interface default catalog
``GET  /facebook/special/targeting_options``  Restricted catalog
``GET  /facebook/targeting_search``       Free-form attribute search (body: q)
``POST /google/reach_estimate``           Display impressions estimate
                                          (obfuscated JSON in and out)
``POST /google/reach_estimates``          Batched impressions estimates
                                          (obfuscated batch envelope)
``GET  /google/criteria``                 Audience/topic criteria catalog
``POST /linkedin/audience_count``         Member-count estimate
``POST /linkedin/audience_counts``        Batched member-count estimates
``GET  /linkedin/facets``                 Detailed-targeting facet catalog
========================================  =======================================

Batch endpoints accept up to :data:`repro.api.wire.MAX_BATCH_SIZE`
targeting specs per request and answer per item: each entry is either
the single-call response body or a typed error payload, so one
inexpressible spec never fails its batch-mates.  The rate limiter
charges batches by size (one token plus :data:`BATCH_ITEM_TOKEN_COST`
per additional item), so batching is much cheaper than per-item calls
but very large audits are still metered.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.api.obfuscation import GoogleWireCodec
from repro.api.transport import FakeTransport, HttpRequest
from repro.api.wire import BatchEnvelope, FacebookWireCodec, LinkedInWireCodec
from repro.platforms import PlatformSuite
from repro.platforms.base import AdPlatformInterface
from repro.platforms.catalog import CatalogEntry
from repro.platforms.errors import (
    ApiError,
    BadRequestError,
    NoSizeEstimateError,
    PlatformError,
    TargetingError,
)

__all__ = ["BATCH_ITEM_TOKEN_COST", "mount_suite_routes"]

#: Rate-limit token cost of each spec in a batch beyond the first.
BATCH_ITEM_TOKEN_COST = 0.1


def _error_parts(exc: PlatformError) -> tuple[int, str, str | None]:
    """(status, message, kind) for a per-item error payload.

    Mirrors the transport's exception-to-status mapping so clients can
    reuse one payload-to-exception translation for whole-request and
    per-item failures alike.
    """
    if isinstance(exc, NoSizeEstimateError):
        return 422, str(exc), None
    if isinstance(exc, ApiError):
        return exc.status, str(exc), None
    if isinstance(exc, TargetingError):
        return 400, str(exc), type(exc).__name__
    return 400, str(exc), type(exc).__name__


def _batch_cost(envelope_key: str) -> Callable[[HttpRequest], float]:
    """Per-request token cost charging batches by item count."""

    def cost(request: HttpRequest) -> float:
        items = request.body.get(envelope_key) if request.body else None
        n = len(items) if isinstance(items, list) else 1
        return 1.0 + BATCH_ITEM_TOKEN_COST * max(0, n - 1)

    return cost


def _entry_json(entry: CatalogEntry) -> dict[str, Any]:
    demographic = None
    if entry.demographic_value is not None:
        demographic = {
            "attribute": type(entry.demographic_value).__name__.lower(),
            "value": entry.demographic_value.label,
        }
    return {
        "id": entry.option_id,
        "feature": entry.feature,
        "category": entry.category,
        "name": entry.name,
        "demographic": demographic,
        "free_form": entry.free_form,
    }


def _catalog_handler(interface: AdPlatformInterface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        return {"options": [_entry_json(e) for e in interface.catalog]}

    return handler


def _facebook_estimate_handler(interface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        spec, objective = FacebookWireCodec.decode_request(request.body)
        estimate = interface.estimate_reach(spec, objective)
        return FacebookWireCodec.encode_response(estimate.estimate)

    return handler


def _facebook_batch_handler(interface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        decoded: list[tuple[Any, ...] | PlatformError] = []
        for item in BatchEnvelope.decode_request(request.body):
            try:
                decoded.append(FacebookWireCodec.decode_request(item))
            except PlatformError as exc:
                decoded.append(exc)
        interface.prime_counts(
            d[0] for d in decoded if not isinstance(d, PlatformError)
        )
        results: list[dict[str, Any]] = []
        for d in decoded:
            try:
                if isinstance(d, PlatformError):
                    raise d
                spec, objective = d
                results.append(
                    BatchEnvelope.item_ok(
                        FacebookWireCodec.encode_response(
                            interface.estimate_value(spec, objective)
                        )
                    )
                )
            except PlatformError as exc:
                results.append(BatchEnvelope.item_error(*_error_parts(exc)))
        return BatchEnvelope.encode_response(results)

    return handler


def _facebook_search_handler(interface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if not request.body or "q" not in request.body:
            raise BadRequestError("missing search query 'q'")
        matches = interface.search(str(request.body["q"]))
        return {"options": [_entry_json(e) for e in matches]}

    return handler


def _google_estimate_handler(interface, codec: GoogleWireCodec):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        spec, cap, objective = codec.decode_request(request.body)
        estimate = interface.estimate_reach(
            spec, objective=objective, frequency_cap=cap
        )
        return codec.encode_response(estimate.estimate)

    return handler


def _google_batch_handler(interface, codec: GoogleWireCodec):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        decoded: list[tuple[Any, ...] | PlatformError] = []
        for item in codec.decode_batch_request(request.body):
            try:
                decoded.append(codec.decode_request(item))
            except PlatformError as exc:
                decoded.append(exc)
        interface.prime_counts(
            d[0] for d in decoded if not isinstance(d, PlatformError)
        )
        results: list[dict[str, Any]] = []
        for d in decoded:
            try:
                if isinstance(d, PlatformError):
                    raise d
                spec, cap, objective = d
                value = interface.estimate_value(
                    spec, objective=objective, frequency_cap=cap
                )
                results.append(
                    codec.batch_item_ok(codec.encode_response(value))
                )
            except PlatformError as exc:
                results.append(codec.batch_item_error(*_error_parts(exc)))
        return codec.encode_batch_response(results)

    return handler


def _linkedin_count_handler(interface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        spec = LinkedInWireCodec.decode_request(request.body)
        estimate = interface.estimate_reach(spec)
        return LinkedInWireCodec.encode_response(estimate.estimate)

    return handler


def _linkedin_batch_handler(interface):
    def handler(request: HttpRequest) -> Mapping[str, Any]:
        if request.body is None:
            raise BadRequestError("missing request body")
        decoded: list[Any] = []
        for item in BatchEnvelope.decode_request(request.body):
            try:
                decoded.append(LinkedInWireCodec.decode_request(item))
            except PlatformError as exc:
                decoded.append(exc)
        interface.prime_counts(
            d for d in decoded if not isinstance(d, PlatformError)
        )
        results: list[dict[str, Any]] = []
        for spec in decoded:
            try:
                if isinstance(spec, PlatformError):
                    raise spec
                results.append(
                    BatchEnvelope.item_ok(
                        LinkedInWireCodec.encode_response(
                            interface.estimate_value(spec)
                        )
                    )
                )
            except PlatformError as exc:
                results.append(BatchEnvelope.item_error(*_error_parts(exc)))
        return BatchEnvelope.encode_response(results)

    return handler


def _mount_facebook(transport: FakeTransport, fb) -> None:
    plain_cost = _batch_cost("batch")
    transport.register(
        "POST", "/facebook/delivery_estimate",
        _facebook_estimate_handler(fb.normal),
    )
    transport.register(
        "POST", "/facebook/delivery_estimates",
        _facebook_batch_handler(fb.normal), cost=plain_cost,
    )
    transport.register(
        "POST", "/facebook/special/delivery_estimate",
        _facebook_estimate_handler(fb.restricted),
    )
    transport.register(
        "POST", "/facebook/special/delivery_estimates",
        _facebook_batch_handler(fb.restricted), cost=plain_cost,
    )
    transport.register(
        "GET", "/facebook/targeting_options", _catalog_handler(fb.normal)
    )
    transport.register(
        "GET", "/facebook/special/targeting_options",
        _catalog_handler(fb.restricted),
    )
    transport.register(
        "GET", "/facebook/targeting_search", _facebook_search_handler(fb.normal)
    )


def _mount_google(transport: FakeTransport, google) -> None:
    codec = GoogleWireCodec(google.display.catalog.ids())
    transport.register(
        "POST", "/google/reach_estimate",
        _google_estimate_handler(google.display, codec),
    )
    transport.register(
        "POST", "/google/reach_estimates",
        _google_batch_handler(google.display, codec),
        cost=_batch_cost(GoogleWireCodec.BATCH_FIELD),
    )
    transport.register("GET", "/google/criteria", _catalog_handler(google.display))


def _mount_linkedin(transport: FakeTransport, linkedin) -> None:
    transport.register(
        "POST", "/linkedin/audience_count",
        _linkedin_count_handler(linkedin.interface),
    )
    transport.register(
        "POST", "/linkedin/audience_counts",
        _linkedin_batch_handler(linkedin.interface),
        cost=_batch_cost("batch"),
    )
    transport.register(
        "GET", "/linkedin/facets", _catalog_handler(linkedin.interface)
    )


_MOUNTS = {
    "facebook": _mount_facebook,
    "google": _mount_google,
    "linkedin": _mount_linkedin,
}


def mount_suite_routes(transport: FakeTransport, suite: PlatformSuite) -> None:
    """Register the endpoints of every platform the suite built."""
    for name, platform in suite.platforms.items():
        _MOUNTS[name](transport, platform)
