"""Deterministic discrete-event simulation of the peer network.

The simulator keeps a logically centralized registry of live peers, each
seeing every other, one logical clock, and a configurable link latency model.
Link quality is measured as the difference of the timestamps a message
would carry: the sender stamps the moment it leaves, the receiver the
moment it arrives.

All mutation happens through method calls on a single thread; snapshots
handed to callers (records, trace lines) are immutable values.
"""
from __future__ import annotations

import json
import random
from collections import deque
from collections.abc import Iterable, Iterator, KeysView, Mapping
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import DuplicateId, LatencyUndefined, PeerUnknown
from .model import ServiceDescriptor


@dataclass(frozen=True)
class UniformLatency:
    """Every link takes exactly ``base_ms``."""

    base_ms: float

    def __post_init__(self) -> None:
        if not self.base_ms >= 0:  # also rejects NaN
            raise ValueError("base_ms must be >= 0")

    def sample(self, from_id: str, to_id: str) -> float:
        return self.base_ms


class MatrixLatency:
    """Per-pair latencies from an explicit table."""

    def __init__(self, entries: Mapping[tuple[str, str], float]):
        table: dict[tuple[str, str], float] = {}
        for (a, b), value in entries.items():
            value = float(value)
            if not value >= 0:  # also rejects NaN
                raise ValueError(f"latency for ({a!r}, {b!r}) must be >= 0")
            table[(a, b)] = value
        self.entries = table

    @classmethod
    def _unchecked(cls, table: dict[tuple[str, str], float]) -> MatrixLatency:
        """A model over ``table``, whose values the caller has already
        checked to be floats ``>= 0``; the table is kept, not copied."""
        model = cls.__new__(cls)
        model.entries = table
        return model

    def sample(self, from_id: str, to_id: str) -> float:
        try:
            return self.entries[(from_id, to_id)]
        except KeyError:
            raise LatencyUndefined(from_id, to_id) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixLatency):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"MatrixLatency({len(self.entries)} entries)"


@dataclass
class SeededLatency:
    """``base_ms`` plus reproducible jitter drawn from a seeded generator.

    Identical seeds reproduce identical sample sequences; samples are
    clamped at zero so latencies stay non-negative.
    """

    base_ms: float
    jitter_ms: float
    seed: int
    _rng: random.Random = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.base_ms >= 0:  # also rejects NaN, which max(0.0, ...) would hide
            raise ValueError("base_ms must be >= 0")
        if not self.jitter_ms >= 0:
            raise ValueError("jitter_ms must be >= 0")
        self.base_ms = float(self.base_ms)
        self.jitter_ms = float(self.jitter_ms)
        self.seed = int(self.seed)
        self._rng = random.Random(self.seed)

    def sample(self, from_id: str, to_id: str) -> float:
        value = self.base_ms + self._rng.uniform(-self.jitter_ms, self.jitter_ms)
        return max(0.0, value)


LatencyModel = UniformLatency | MatrixLatency | SeededLatency

_ID = attrgetter("id")


class Simulator:
    """Single-threaded peer-network simulator with one logical clock.

    * ``announce``/``withdraw`` maintain the registry of live peers; a peer
      is visible from its announce until its withdrawal.
    * ``advance`` moves the clock forward.
    * ``visible_peers`` lists every other live peer: every peer sees every
      other.
    * ``measure_link`` stamps a message across a link and returns the
      receive/send timestamp difference, which equals the modeled latency
      by construction.  ``measure_links`` does the same for every target
      one sender can see, in one call, and returns each as the pick the
      flood indexes: the ``(from_id, to_id)`` edge and its time, checked to
      be a float ``>= 0``.

    Every action writes the event trace, stamped with the clock: one record
    per call, except that an ``announce`` batch and a measuring call are
    each one entry that reads as one record per service or link, with the
    model's values; with ``trace=False`` it keeps nothing.  Identical
    scenarios with identical seeds serialize to byte-identical logs.
    """

    def __init__(self, latency: LatencyModel | None = None, *, trace: bool = True):
        self.clock = 0.0
        self.latency = latency if latency is not None else UniformLatency(0.0)
        self._live: dict[str, None] = {}  # the ids of the live peers
        self._overrides: dict[tuple[str, str], float] = {}
        # Records, or tuples for _render; untraced, a sink that keeps nothing.
        self._trace: list[dict | tuple] | deque = [] if trace else deque(maxlen=0)

    # ------------------------------------------------------------------ registry

    def announce(self, *services: ServiceDescriptor) -> None:
        """Register one or many peers, visible from now on.  The batch is
        traced as one entry holding the descriptors, which reads as one
        ``announce`` record per service in argument order; an empty call
        traces nothing.  Atomic: if an id repeats, in the call or the
        registry, :class:`DuplicateId` names the first repeat in argument
        order, as single calls would, and nothing changes."""
        live = self._live
        fresh = dict.fromkeys(map(_ID, services))
        # Against a keys view, isdisjoint walks the smaller side, not the batch.
        if len(fresh) != len(services) or not live.keys().isdisjoint(fresh.keys()):
            seen = set()
            for sid in map(_ID, services):
                if sid in live or sid in seen:
                    raise DuplicateId(f"service {sid!r} is already announced")
                seen.add(sid)
        live.update(fresh)
        if services:
            self._trace.append((self.clock, services))

    def withdraw(self, service_id: str) -> None:
        """Remove a peer; it disappears from every later view."""
        if service_id not in self._live:
            raise PeerUnknown(f"service {service_id!r} is not live")
        del self._live[service_id]
        self.log_event("withdraw", service_id, None)

    def live_ids(self) -> KeysView[str]:
        """The ids of every live peer: a read-only view of the registry."""
        return self._live.keys()

    def visible_peers(self, observer_id: str) -> set[str]:
        """Ids of every live peer, excluding the observer's own."""
        if observer_id not in self._live:
            raise PeerUnknown(f"observer {observer_id!r} is not live")
        return self._live.keys() - {observer_id}

    # ------------------------------------------------------------------ links

    def degrade_link(self, from_id: str, to_id: str, new_ms: float) -> None:
        """Override one directed link's latency from now on."""
        new_ms = float(new_ms)
        if not new_ms >= 0:  # also rejects NaN
            raise ValueError("link latency must be >= 0")
        self._overrides[(from_id, to_id)] = new_ms
        self.log_event("link_degrade", from_id, to_id, new_ms=new_ms)

    def link_latency(self, from_id: str, to_id: str) -> float:
        override = self._overrides.get((from_id, to_id))
        return override if override is not None else self.latency.sample(from_id, to_id)

    def measure_link(self, from_id: str, to_id: str) -> float:
        """Measured transfer time of one directed link.

        Simulates a stamped message: it leaves ``from_id`` now and reaches
        ``to_id`` after the modeled latency; the returned value is the
        timestamp difference, as the model gave it.
        """
        for sid in (from_id, to_id):
            if sid not in self._live:
                raise PeerUnknown(f"service {sid!r} is not live")
        link_ms = self.link_latency(from_id, to_id)
        self._trace.append((self.clock, from_id, [((from_id, to_id), link_ms)]))
        return link_ms

    def measure_links(self, from_id: str, to_ids: Iterable[str]) -> list[tuple[tuple[str, str], float]]:
        """``((from_id, to_id), link_ms)`` for each live target other than
        the sender, in the order given, each measured as :meth:`measure_link`
        does; the flood keeps the edge tuple as its edge.  Each time is a
        float ``>= 0``: a :class:`MatrixLatency`'s checked table is read in
        place, and a sampled time is checked, so one below zero or NaN
        raises ``ValueError`` once the call is traced with the model's values.

        A target that is not live is skipped unmeasured.  A target whose
        link the latency model cannot price (:class:`LatencyUndefined`) is
        skipped too, after one ``unmeasurable`` trace record.  The call is
        one ``(t, from_id, picks)`` trace entry, split around those records,
        that holds the returned list itself unless a time was converted:
        nothing may modify it.  Raises :class:`PeerUnknown` if the sender is
        not live.
        """
        live = self._live
        if from_id not in live:
            raise PeerUnknown(f"observer {from_id!r} is not live")
        latency, overrides, record, start, picks = self.latency, self._overrides, self._trace.append, 0, None
        if type(latency) is MatrixLatency and type(to_ids) is list:  # a list can be read again below
            table = latency.entries
            try:
                picks = [(edge, overrides[edge] if overrides and edge in overrides else table[edge])
                         for to_id in to_ids if to_id in live and to_id != from_id for edge in [(from_id, to_id)]]
            except KeyError:  # a hole: priced link by link below
                pass
        if sampled := picks is None:
            picks, sample = [], latency.sample
            for edge in [(from_id, to_id) for to_id in to_ids if to_id in live and to_id != from_id]:
                try:
                    picks.append((edge, overrides[edge] if edge in overrides else sample(*edge)))
                except LatencyUndefined:
                    if len(picks) > start:
                        record((self.clock, from_id, picks[start:]))
                    start = len(picks)
                    self.log_event("unmeasurable", *edge)
        if len(picks) > start:
            record((self.clock, from_id, picks[start:] if start else picks))
        if sampled and not all(type(ms) is float and ms >= 0 for _, ms in picks):
            converted = []  # the trace keeps the model's values
            for edge, ms in picks:
                if not (ms := float(ms)) >= 0:  # also rejects NaN
                    raise ValueError(f"link time must be >= 0, got {ms}")
                converted.append((edge, ms))
            return converted
        return picks

    # ------------------------------------------------------------------ clock

    def advance(self, until: float) -> None:
        """Move the clock to ``until``; it never moves backwards."""
        until = float(until)
        if not until >= self.clock:  # also rejects NaN, which would stamp later records
            raise ValueError(f"cannot advance clock from {self.clock} to {until}")
        self.clock = until

    # ------------------------------------------------------------------ trace

    def log_event(
        self,
        kind: str,
        from_id: str | None = None,
        to_id: str | None = None,
        **detail,
    ) -> None:
        self._trace.append(
            {
                "t": self.clock,
                "kind": kind,
                "from": from_id,
                "to": to_id,
                "detail": detail,
            }
        )

    def trace_records(self) -> list[dict]:
        records: list[dict] = []
        for entry in self._trace:
            if type(entry) is dict:
                records.append(entry)
            else:
                records.extend(_render(entry))
        return records

    def trace_jsonl(self) -> str:
        """The event trace as line-delimited JSON (one record per line)."""
        lines = [json.dumps(rec, sort_keys=True) for rec in self.trace_records()]
        return "\n".join(lines) + ("\n" if lines else "")


def _render(entry: tuple) -> Iterator[dict]:
    """The trace records of a compact entry.  ``announce`` and the link
    measurements, the calls a large registry makes most, append
    ``(t, services)`` per batch and ``(t_sent, from_id, picks)`` per
    measuring call, and the records are built when read: one per service
    of a batch, in argument order, and one per pick."""
    if len(entry) == 2:
        when, services = entry
        for sid, kind, qos, threshold in services:
            detail = {"type": kind, "qos_ms": qos, "threshold": threshold}
            yield {"t": when, "kind": "announce", "from": sid, "to": None, "detail": detail}
        return
    t_sent, from_id, picks = entry
    for (_, to_id), link_ms in picks:
        detail = {"t_sent": t_sent, "t_received": t_sent + link_ms, "link_ms": link_ms}
        yield {"t": t_sent, "kind": "measure", "from": from_id, "to": to_id, "detail": detail}
