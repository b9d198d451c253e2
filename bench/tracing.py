"""Spans and counts recorded at layer boundaries, from outside the program.

The benchmark replaces module attributes of ``selfassembly`` with timing
wrappers while a traced op runs and puts the originals back afterwards,
so untraced ops run the unmodified code.  A span records its name, start,
end, parent span and op id; a layer's self time is its duration minus the
time of the spans (and aggregated calls) nested inside it.  Spans stay in
memory until :meth:`Tracer.write` at the end of the run.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        # Each span: [op id, name, start ns, end ns, parent index, nested ns].
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.aggregate_ns: Counter[str] = Counter()
        self.missing: list[str] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ recording

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [self.op_id, name, perf_counter_ns(), 0, parent, 0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = perf_counter_ns()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][5] += record[3] - record[2]
            self.counts[name + ".calls"] += 1

    def _timed_call(self, name: str, fn, args, kwargs):
        """A call counted and timed in aggregate, without a span of its
        own; for functions called too often to keep one span each."""
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - start
            self.aggregate_ns[name] += elapsed
            self.counts[name + ".calls"] += 1
            if self._stack:
                self.spans[self._stack[-1]][5] += elapsed

    # ------------------------------------------------------------- wrapping

    def wrap(self, owner, attr: str, name: str, *, aggregate: bool = False, observe=None) -> None:
        """Arrange for ``owner.attr`` to be traced under ``name`` while
        installed.  ``observe(result, exc)`` may add counts from each
        call's outcome.  A missing attribute is recorded, not an error."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if aggregate:
                return self._timed_call(name, original, args, kwargs)
            with self.span(name):
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if observe is not None:
                        observe(None, exc)
                    raise
            if observe is not None:
                observe(result, None)
            return result

        self._patches.append((owner, attr, original, traced))

    def install(self) -> None:
        for owner, attr, _original, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------- summaries

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (total ns, self ns) over every recorded span."""
        out: dict[str, tuple[int, int]] = {}
        for _op, name, start, end, _parent, nested in self.spans:
            total, self_ns = out.get(name, (0, 0))
            out[name] = (total + end - start, self_ns + end - start - nested)
        for name, total in self.aggregate_ns.items():
            out[name] = (total, total)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (op, name, start, end, parent, nested) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "op": op, "name": name, "start_ns": start, "end_ns": end,
                    "parent": None if parent < 0 else parent, "self_ns": end - start - nested,
                }) + "\n")
