"""Outside-in layer tracing: wrap mpdec's public functions where callers
import them, and aggregate self time and counts per span name.

Nothing under `src/` knows about the tracer.  `Tracer.install` rebinds a
module attribute (for example `mpdec.decoders.solve`) to a wrapper for the
duration of a `with` block, so only calls that go through that name are
seen.  A span's self time is its duration minus the time of the spans
nested in it, so the self times of all spans under a root span add up to
the root's duration.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from time import perf_counter


@contextmanager
def patched(module, attr: str, value):
    """Rebind `module.attr` to value inside the block."""
    original = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, original)


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    raised: int = 0
    sums: dict = field(default_factory=lambda: defaultdict(float))


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self._child_time: list[float] = []
        self._lp_rows: dict[int, tuple] = {}

    def wrap(self, name: str, fn, after=None):
        """Return fn timed as span `name`; `after(stats, args, result)`
        records counts once the call has returned."""
        stats = self.spans[name]
        child_time = self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                duration = perf_counter() - start
                nested = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - nested
                if not returned:
                    stats.raised += 1
            if after is not None:
                after(stats, args, result)
            return result

        return traced

    @contextmanager
    def install(self, targets):
        """Rebind each (module, attribute, span name, after) target to a
        traced wrapper; the originals come back when the block exits."""
        with ExitStack() as stack:
            for module, attr, name, after in targets:
                stack.enter_context(patched(
                    module, attr, self.wrap(name, getattr(module, attr), after)))
            yield self

    # LP solutions do not expose their row count, so the tracer follows it
    # from the scratch solve through every warm re-solve derived from it.
    def remember_rows(self, solution, rows: int) -> None:
        key = id(solution)
        self._lp_rows[key] = (weakref.ref(solution,
                                          lambda _, k=key: self._lp_rows.pop(k, None)),
                              rows)

    def rows_of(self, solution) -> int:
        ref, rows = self._lp_rows.get(id(solution), (None, 0))
        return rows if ref is not None and ref() is solution else 0
