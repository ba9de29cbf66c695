"""In-memory spans and work counts recorded around calls into matseg.

A span has a name (``layer.function``), the phase it ran in, a parent span
and start/end times from ``perf_counter``. Spans of one benchmark operation
share the operation span as parent. A layer's self time is its span's
duration minus the time its direct children cover.

Per-layer figures are reported per set-up plus per round: set-up spans are
divided by the number of set-ups and round spans by the number of rounds,
so they compare with ``setup_s`` and ``wall_s``. Work done by correctness
checks is not traced.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracer used for the untraced run: records nothing."""

    phase = "setup"

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    def __init__(self):
        self.phase = "setup"
        # [name, phase, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self.phase, self._stack[-1] if self._stack else -1, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.phase, name)] += n

    def self_times(self) -> dict[tuple[str, str], float]:
        """Total self time per (phase, span name)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, phase, _, start, end) in enumerate(self.spans):
            out[(phase, name)] += (end - start) - child[i]
        return out

    def per_unit(self, setups: int, rounds: int) -> dict[str, float]:
        """Self times (``<name>_s``) and counts per set-up plus per round."""
        div = {"setup": max(setups, 1), "round": max(rounds, 1)}
        out: dict[str, float] = defaultdict(float)
        for (phase, name), secs in self.self_times().items():
            if phase in div:
                out[name + "_s"] += secs / div[phase]
        for (phase, name), n in self.counts.items():
            if phase in div:
                out[name] += n / div[phase]
        return out
