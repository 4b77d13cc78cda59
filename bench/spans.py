"""In-memory spans around the benchmark's calls into fracac.

A span is one call of a public fracac function, named
``<module>.<function>[.<variant>]``.  Spans are kept in a list and handed
back with the child's result when the pipeline ends; nothing is written
while the pipeline runs.  With tracing off, ``call`` is a plain call.
"""

import resource
import time


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans = []
        self._open = []          # indices of the spans currently running
        self.counters = {}

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        record = {"name": name, "run": self.run_id,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        rss0 = maxrss_mb()
        record["start"] = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.monotonic()
            record["rss_raise_mb"] = maxrss_mb() - rss0
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        """Add to a named counter (recorded only when tracing)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0.0) + value


def summarize(spans, counters) -> dict:
    """Per-span-name calls, busy seconds and high-water raise, plus counters."""
    out = {}
    for sp in spans:
        agg = out.setdefault(sp["name"], {"calls": 0, "busy_s": 0.0, "rss_raise_mb": 0.0})
        agg["calls"] += 1
        agg["busy_s"] += sp["end"] - sp["start"]
        agg["rss_raise_mb"] += sp["rss_raise_mb"]
    flat = {f"{name}.{key}": value
            for name, agg in out.items() for key, value in agg.items()}
    flat.update(counters)
    return flat


def top_level_busy(spans) -> float:
    """Seconds covered by spans without a parent (they never overlap)."""
    return sum(sp["end"] - sp["start"] for sp in spans if sp["parent"] is None)
