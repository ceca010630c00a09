"""Virtual-clock fake HTTP transport.

All "network" traffic in the simulation flows through
:class:`FakeTransport`: clients build JSON requests, the transport
advances a :class:`VirtualClock` by a configurable latency, applies
per-account token-bucket rate limiting, and dispatches to registered
route handlers.  Platform errors become HTTP-ish status codes so the
clients exercise real error-handling paths, and nothing ever sleeps on
the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.api.ratelimit import TokenBucket
from repro.obs import NULL_METRICS, NULL_TRACER
from repro.platforms.errors import (
    ApiError,
    NoSizeEstimateError,
    PlatformError,
    TargetingError,
)

__all__ = ["VirtualClock", "HttpRequest", "HttpResponse", "FakeTransport"]


class VirtualClock:
    """A monotonically advancing simulated clock.

    Latency, rate-limit windows, and client back-off all run on this
    clock; tests and experiments never block on real time.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward (negative values are rejected)."""
        if seconds < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds

    def sleep(self, seconds: float) -> None:
        """Alias for :meth:`advance`, matching client back-off code."""
        self.advance(seconds)


@dataclass(frozen=True)
class HttpRequest:
    """A JSON API request."""

    method: str
    path: str
    body: Mapping[str, Any] | None = None
    account: str = "default"


@dataclass(frozen=True)
class HttpResponse:
    """A JSON API response."""

    status: int
    body: Mapping[str, Any]

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300


Handler = Callable[[HttpRequest], Mapping[str, Any]]

#: Token cost of one request: a constant, or a callable inspecting the
#: request (batch endpoints charge by batch size).
CostSpec = float | Callable[[HttpRequest], float]


@dataclass
class _RouteStats:
    requests: int = 0
    errors: int = 0
    rate_limited: int = 0


class FakeTransport:
    """Routes requests to handlers with latency and rate limiting.

    Parameters
    ----------
    clock:
        The virtual clock shared with clients.
    latency:
        Simulated round-trip time added per request.
    rate / burst:
        Token-bucket parameters applied per advertiser account.  The
        defaults allow sustained polite querying (the paper limited
        both the count and rate of its queries); pass ``rate=None`` to
        disable limiting.
    tracer / metrics:
        Observability sinks (no-op singletons by default).  The
        transport is the stack's injection point: clients, breakers,
        and audit targets all read ``transport.tracer`` /
        ``transport.metrics`` rather than taking their own parameters.
        One ``transport.request`` span event is emitted per dispatched
        request, so a trace accounts for :attr:`total_requests` exactly.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        latency: float = 0.05,
        rate: float | None = 10.0,
        burst: int = 20,
        tracer: Any = None,
        metrics: Any = None,
    ):
        self.clock = clock or VirtualClock()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.latency = float(latency)
        self._rate = rate
        self._burst = burst
        self._routes: dict[tuple[str, str], Handler] = {}
        self._costs: dict[tuple[str, str], CostSpec] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._stats: dict[tuple[str, str], _RouteStats] = {}
        self.total_requests = 0

    # -- wiring -----------------------------------------------------------

    def register(
        self,
        method: str,
        path: str,
        handler: Handler,
        cost: CostSpec | None = None,
    ) -> None:
        """Mount a handler; re-registering a route raises.

        ``cost`` sets the route's rate-limit token cost: a constant or
        a per-request callable (batch endpoints charge per item).
        Routes default to one token per request.
        """
        key = (method.upper(), path)
        if key in self._routes:
            raise ValueError(f"route {key} already registered")
        self._routes[key] = handler
        if cost is not None:
            self._costs[key] = cost
        self._stats[key] = _RouteStats()

    def routes(self) -> list[tuple[str, str]]:
        """Registered (method, path) pairs."""
        return sorted(self._routes)

    def _cost(self, key: tuple[str, str], request: HttpRequest) -> float:
        spec = self._costs.get(key)
        if spec is None:
            return 1.0
        if callable(spec):
            try:
                return max(1.0, float(spec(request)))
            except PlatformError:
                # Malformed bodies are the handler's problem (it returns
                # a 400); charge the base cost.
                return 1.0
        return max(1.0, float(spec))

    def _bucket(self, account: str) -> TokenBucket | None:
        if self._rate is None:
            return None
        if account not in self._buckets:
            self._buckets[account] = TokenBucket(
                rate=self._rate, burst=self._burst, clock=self.clock
            )
        return self._buckets[account]

    # -- dispatch -----------------------------------------------------------

    def request(self, request: HttpRequest) -> HttpResponse:
        """Dispatch one request, returning an error response on failure.

        Never raises for platform-side failures: targeting errors map
        to 400, missing size statistics to 422, rate limiting to 429
        with a ``retry_after`` hint, unknown routes to 404.
        """
        response = self._dispatch(request)
        if self.tracer.enabled or self.metrics.enabled:
            platform, _, endpoint = request.path.strip("/").partition("/")
            if self.tracer.enabled:
                self.tracer.event(
                    "transport.request",
                    platform=platform,
                    endpoint=endpoint,
                    status=response.status,
                )
            if self.metrics.enabled:
                self.metrics.inc(
                    "transport.requests",
                    platform=platform,
                    endpoint=endpoint,
                    status=response.status,
                )
        return response

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        self.clock.advance(self.latency)
        self.total_requests += 1
        key = (request.method.upper(), request.path)
        stats = self._stats.get(key)
        if stats is None:
            return HttpResponse(404, {"error": f"no such endpoint {request.path}"})
        stats.requests += 1

        bucket = self._bucket(request.account)
        if bucket is not None:
            retry_after = bucket.try_acquire(self._cost(key, request), clamp=True)
            if retry_after > 0:
                stats.rate_limited += 1
                return HttpResponse(
                    429,
                    {"error": "rate limit exceeded", "retry_after": retry_after},
                )

        handler = self._routes[key]
        try:
            body = handler(request)
        except NoSizeEstimateError as exc:
            stats.errors += 1
            return HttpResponse(422, {"error": str(exc)})
        except TargetingError as exc:
            stats.errors += 1
            return HttpResponse(400, {"error": str(exc), "kind": type(exc).__name__})
        except ApiError as exc:
            stats.errors += 1
            return HttpResponse(exc.status, {"error": str(exc)})
        except PlatformError as exc:
            stats.errors += 1
            return HttpResponse(400, {"error": str(exc), "kind": type(exc).__name__})
        return HttpResponse(200, dict(body))

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-route request/error/rate-limit counters."""
        return {
            f"{method} {path}": {
                "requests": s.requests,
                "errors": s.errors,
                "rate_limited": s.rate_limited,
            }
            for (method, path), s in sorted(self._stats.items())
        }

