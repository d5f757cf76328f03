"""In-memory call tracer for the traced benchmark run.

`Tracer.wrap` returns a timed stand-in for a callable.  Every call is
aggregated per boundary name (calls, inclusive time, self time, where self
time is the inclusive time minus the time of traced calls nested inside
it).  Boundaries wrapped with ``span=True`` additionally record one span
(id, name, start, end, parent span id) per call; those are the coarse
boundaries, so the span list stays small while per-call boundaries that
fire about a million times per run cost only a counter update.

Nothing is written while the program runs; `Tracer.dump` returns
everything as plain data for the caller to keep and write out at the end,
and `Tracer.reset` starts the next invocation from zero.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}   # name -> [calls, incl_s, self_s]
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []       # (id, name, start, end, parent)
        self._frames: list[list] = []      # per active call: [child_s]
        self._open_spans: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def wrap(self, name: str, fn, span: bool = False, after=None):
        """Timed stand-in for `fn`.

        `after(args, kwargs, result)`, if given, runs once the call has
        returned (outside its timed interval) and may return a
        replacement result.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames, open_spans, spans, clock = (self._frames, self._open_spans,
                                            self.spans, self.clock)

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                sid = len(spans)
                parent = open_spans[-1] if open_spans else None
                spans.append(None)
                open_spans.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                frames.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if span:
                    open_spans.pop()
                    spans[sid] = (sid, name, t0, t1, parent)
            if after is not None:
                replaced = after(args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Zero everything recorded so far (wrappers stay installed)."""
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.spans.clear()

    def dump(self) -> dict:
        return {
            "stats": {name: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                      for name, s in self.stats.items()},
            "counters": dict(self.counters),
            "spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                      for s in self.spans],
        }
