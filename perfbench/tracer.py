"""Spans and counters recorded from outside the library.

Each traced function is replaced, for the length of one experiment, by a
wrapper installed at the name its caller looks it up by: a module attribute
or an entry of a dispatch table.  The library itself is not modified.  A
span is ``[name, start, end, parent, round]`` with ``parent`` the index of
the enclosing span (-1 for none) and ``round`` 0 before the first round;
spans stay in memory until the experiment ends.  The process is
single-threaded (``workers = 1``), so child spans of one parent never
overlap, and a span's self time is its duration minus the summed durations
of its direct children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Callable, Iterable

# (module or dict, attribute or key, span name, on_call hook or None)
Target = tuple[object, str, str, Callable | None]

ROUND_SPAN = "protocol.run_round"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.round = 0
        # (client_id, n_local_classes) of every local_update in the round
        self.round_clients: list[tuple[int, int]] = []
        self._stack: list[int] = []

    def begin_round(self, round_no: int) -> None:
        self.round = round_no
        self.round_clients = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_call(tracer, args, result)`` adds counts."""

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.round]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if on_call is not None:
                on_call(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]):
        """Install a wrapper for every target that exists; restore on exit."""
        saved = []
        try:
            for owner, key, name, on_call in targets:
                if isinstance(owner, dict):
                    if key in owner:
                        saved.append((owner, key, owner[key]))
                        owner[key] = self.wrap(name, owner[key], on_call)
                elif isinstance(owner, ModuleType) and hasattr(owner, key):
                    saved.append((owner, key, getattr(owner, key)))
                    setattr(owner, key, self.wrap(name, getattr(owner, key), on_call))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def _child_time(self) -> dict[int, float]:
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: summed busy time ``s`` and self time ``self_s``."""
        child_time = self._child_time()
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name]["s"] += end - start
            out[name]["self_s"] += end - start - child_time[idx]
        return out

    def overfull_rounds(self) -> list[int]:
        """Rounds whose direct child spans add up to more than the round span."""
        child_time = self._child_time()
        return [
            round_no
            for idx, (name, start, end, _, round_no) in enumerate(self.spans)
            if name == ROUND_SPAN and child_time[idx] > end - start
        ]

    def dump(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            fh.write('["name", "start", "end", "parent", "round"]\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
