"""Self-time spans around the public functions of each layer.

The benchmark wraps the program's functions from the outside, in the
child process, so the program under test carries no benchmark code.
Every wrapped call pushes a frame on one stack; when it returns, its
duration is added to its name's total, and its *self* time is the
duration minus the time spent in wrapped calls made inside it.  Calls
with no wrapped caller are top-level spans; the part of the process's
wall time that no top-level span covers is the unattributed remainder.

Per-name totals are aggregated in memory and written out once, when
the run ends (:meth:`SpanRecorder.dump`).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

#: Stats of a span name that never ran: calls, total_s, self_s, work.
_EMPTY = (0, 0.0, 0.0, 0)


class SpanRecorder:
    """Aggregates calls, total and self time per span name."""

    def __init__(self, origin: float):
        #: ``time.perf_counter()`` at process start; span times are
        #: written relative to it.
        self.origin = origin
        #: name -> [calls, total_s, self_s, work]; ``work`` is a count
        #: the wrapper computes from the call's arguments.
        self.stats: dict[str, list] = {}
        self.top: list[tuple[str, float, float]] = []
        self._stack: list[list[float]] = []

    def _entry(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _close(self, name: str, entry: list, frame: list, start: float) -> None:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.top.append((name, start - self.origin, start + elapsed - self.origin))

    @contextmanager
    def span(self, name: str):
        """Time a block as one call of ``name``."""
        entry = self._entry(name)
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, entry, frame, start)

    def wrap(
        self,
        name: str,
        fn: Callable,
        work: Callable[..., int] | None = None,
    ) -> Callable:
        """``fn`` timed as ``name``; ``work(*args)`` adds to its count."""
        entry = self._entry(name)
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if work is not None:
                entry[3] += work(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, entry, frame, start)

        return wrapper

    def total(self, name: str) -> float:
        return self.stats.get(name, _EMPTY)[1]

    def self_time(self, *names: str) -> float:
        return sum(self.stats.get(n, _EMPTY)[2] for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, _EMPTY)[0] for n in names)

    def work(self, *names: str) -> int:
        return sum(self.stats.get(n, _EMPTY)[3] for n in names)

    def top_level_seconds(self) -> float:
        return sum(end - start for _name, start, end in self.top)

    def dump(self, path: str) -> None:
        """Write the aggregated spans and the top-level timeline."""
        document = {
            "spans": {
                name: {"calls": c, "total_s": t, "self_s": s, "work": w}
                for name, (c, t, s, w) in sorted(self.stats.items())
            },
            "top_level": [
                {"name": n, "start_s": a, "end_s": b} for n, a, b in self.top
            ],
        }
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)


def patch_method(
    recorder: SpanRecorder,
    cls: type,
    attr: str,
    name: str,
    work: Callable[..., int] | None = None,
) -> None:
    """Replace ``cls.attr`` with a timed wrapper."""
    setattr(cls, attr, recorder.wrap(name, cls.__dict__[attr], work))


def patch_function(
    recorder: SpanRecorder,
    module: Any,
    attr: str,
    name: str,
    work: Callable[..., int] | None = None,
) -> None:
    """Replace a module-level function everywhere it was imported.

    ``from module import fn`` binds the function in the importing
    module too, so every loaded ``repro`` module holding the original
    object gets the wrapper.
    """
    original = getattr(module, attr)
    wrapped = recorder.wrap(name, original, work)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, attr, None) is original
        ):
            setattr(loaded, attr, wrapped)
