"""In-memory tracing of phisigma's public functions, from outside the package.

A Tracer replaces a function by a timing wrapper in every phisigma module
whose namespace binds it (``from .sieve import segment_scan`` makes a
binding in the importing module, so each one is rebound).  Nothing under
``src/`` changes.

Every boundary is aggregated: call count, total time, and self time, the
total minus the time spent in wrapped calls it made.  Coarse boundaries
(one CLI step, one ``segment_scan`` window) are also stored as spans;
per-integer boundaries such as ``factorize`` are only aggregated, and may
keep a latency histogram for quantiles.  All of it stays in memory until
``report()``.  Calls are assumed to come from one thread.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

def _bucket(ns: int) -> int:
    """Histogram key: the power of two of ns and 8 sub-buckets within it."""
    b = ns.bit_length()
    if b <= 4:
        return ns
    return (b << 3) | ((ns >> (b - 4)) & 7)


def _bucket_mid(key: int) -> float:
    if key < 16:
        return float(key)
    b, sub = key >> 3, key & 7
    lo = (8 + sub) << (b - 4)
    return lo + (1 << (b - 4)) / 2.0


class Agg:
    """Aggregate of one boundary: calls, total and self nanoseconds."""

    __slots__ = ("calls", "total_ns", "self_ns", "hist")

    def __init__(self, hist: bool):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.hist = {} if hist else None

    def quantile_ns(self, q: float) -> float:
        if not self.hist:
            return 0.0
        rank = q * self.calls
        seen = 0
        for key in sorted(self.hist):
            seen += self.hist[key]
            if seen >= rank:
                return _bucket_mid(key)
        return _bucket_mid(max(self.hist))


class Tracer:
    def __init__(self):
        self.aggs: dict[str, Agg] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self.context: dict = {}
        self._stack: list[list] = []  # [child_ns, span_id or None] per active call
        self._origin = perf_counter_ns()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def _agg(self, name: str, hist: bool) -> Agg:
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = Agg(hist)
        return agg

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def timed(self, fn, name, *, span=False, hist=False, pre=None, post=None):
        """Wrap fn.  name is a string or a function of (args, kwargs).

        pre(args, kwargs) runs before the clock starts; post(result,
        args, kwargs) runs after it stops.  Both count as the caller's
        child time, so tracing bookkeeping is nobody's self time.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter_ns()
            if pre is not None:
                pre(args, kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            span_id = None
            if span:
                span_id = len(self.spans)
                self.spans.append({"id": span_id, "parent": self._parent_span(),
                                   "name": label})
            frame = [0, span_id]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                agg = self._agg(label, hist)
                agg.calls += 1
                agg.total_ns += t1 - t0
                agg.self_ns += t1 - t0 - frame[0]
                if agg.hist is not None:
                    key = _bucket(t1 - t0)
                    agg.hist[key] = agg.hist.get(key, 0) + 1
                if span:
                    self.spans[span_id]["start_ns"] = t0 - self._origin
                    self.spans[span_id]["end_ns"] = t1 - self._origin
            if post is not None:
                post(result, args, kwargs)
            if stack:
                stack[-1][0] += perf_counter_ns() - t_in
            return result

        return wrapper

    def install(self, module, attr: str, **kw) -> None:
        """Rebind module.attr, and every phisigma binding of the same
        object, to one timing wrapper."""
        original = getattr(module, attr)
        wrapper = self.timed(original, kw.pop("name", f"{module.__name__.split('.')[-1]}.{attr}"), **kw)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "phisigma":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def report(self) -> dict:
        aggregates = {}
        for k, a in sorted(self.aggs.items()):
            aggregates[k] = {"calls": a.calls, "total_s": a.total_ns / 1e9, "self_s": a.self_ns / 1e9}
            if a.hist is not None:
                aggregates[k]["p50_us"] = a.quantile_ns(0.50) / 1e3
                aggregates[k]["p99_us"] = a.quantile_ns(0.99) / 1e3
        return {
            "aggregates": aggregates,
            "counters": dict(sorted(self.counters.items())),
            "spans": self.spans,
        }
