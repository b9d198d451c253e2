"""The self-maintenance loop: contract checking and re-assembly on churn.

A committed assembly stays in place until an event invalidates it or could
improve it; the reaction is a re-run of the assembly pipeline on the live
services of template types (an atomic swap, never an in-place patch).  The
re-run floods and selects in full, but keeps each start's candidate pool
that the event did not reach.  An infeasible re-run leaves the system
without a committed assembly, waiting for a restorative event.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Container, Iterable

from .assembler import DEFAULT_COMBINATION_BUDGET, AssemblyResult, _Reuse, assemble
from .errors import NoAssembly, _shown
from .model import ApplicationTemplate, ServiceDescriptor, service_map
from .netsim import Simulator


class ContractStatus(Enum):
    IN_CONTRACT = "InContract"
    OUT_CONTRACT = "OutContract"


class ContractCause(Enum):
    RESPONSE_TIME_EXCEEDED = "ResponseTimeExceeded"
    THRESHOLD_EXCEEDED = "ThresholdExceeded"
    INJECTED = "Injected"


@dataclass(frozen=True)
class ContractNotification:
    """Emitted by a service's own monitor: behavior conforms to the
    contract or does not, with the cause when it does not."""

    service_id: str
    at: float
    status: ContractStatus
    cause: ContractCause | None = None

    def __post_init__(self) -> None:
        if self.status is ContractStatus.OUT_CONTRACT and self.cause is None:
            raise ValueError("an OutContract notification requires a cause")
        if self.status is ContractStatus.IN_CONTRACT and self.cause is not None:
            raise ValueError("an InContract notification carries no cause")


def check_contract(
    service: ServiceDescriptor,
    observed_response_ms: float,
    inflight: int,
    *,
    tolerance: float = 0.0,
    at: float = 0.0,
) -> ContractNotification:
    """Compare observed behavior against the service's own contract.

    Load is checked first: more simultaneous bindings than the threshold
    breaks the contract regardless of timing.  Otherwise the observed
    response time must stay within the nominal value (scaled by
    ``1 + tolerance``; the default is strict).  Boundary values comply.
    """
    if not observed_response_ms >= 0:  # also rejects NaN, which would always comply
        raise ValueError("observed_response_ms must be >= 0")
    if not tolerance >= 0:
        raise ValueError("tolerance must be >= 0")
    if inflight < 0:
        raise ValueError("inflight must be >= 0")
    if inflight > service.threshold:
        return ContractNotification(
            service.id, at, ContractStatus.OUT_CONTRACT, ContractCause.THRESHOLD_EXCEEDED
        )
    if observed_response_ms > service.qos_nominal * (1.0 + tolerance):
        return ContractNotification(
            service.id, at, ContractStatus.OUT_CONTRACT, ContractCause.RESPONSE_TIME_EXCEEDED
        )
    return ContractNotification(service.id, at, ContractStatus.IN_CONTRACT)


class EventKind(Enum):
    SERVICE_APPEARS = "service_appears"
    SERVICE_DISAPPEARS = "service_disappears"
    LINK_DEGRADES = "link_degrades"
    INJECT_OUT_CONTRACT = "inject_out_contract"


@dataclass(frozen=True)
class ScenarioEvent:
    """One timed change to the world; build via the factory methods.  The one
    check of its fields (``ValueError``): an appearance holds a descriptor, any
    other id is a non-empty ``str``, ``new_ms`` a non-bool number ``>= 0``, and
    an int ``at`` or ``new_ms`` fits a float."""

    at: float
    kind: EventKind
    service: ServiceDescriptor | None = None
    service_id: str | None = None
    link_from: str | None = None
    link_to: str | None = None
    new_ms: float | None = None

    def __post_init__(self) -> None:
        try:
            for value in (self.at, self.new_ms):
                if isinstance(value, int):
                    float(value)
        except OverflowError:
            raise ValueError(f"{self.kind.value} needs numbers a float can hold") from None
        if self.kind is EventKind.SERVICE_APPEARS:
            if not isinstance(self.service, ServiceDescriptor):
                raise ValueError(f"service_appears needs a ServiceDescriptor, got {_shown(self.service)}")
            return
        linked = self.kind is EventKind.LINK_DEGRADES
        for sid in (self.link_from, self.link_to) if linked else (self.service_id,):
            if not isinstance(sid, str) or not sid:
                raise ValueError(f"{self.kind.value} needs non-empty string ids, got {_shown(sid)}")
        ms = self.new_ms
        if linked and (not isinstance(ms, (int, float)) or isinstance(ms, bool) or not ms >= 0):
            raise ValueError(f"link_degrades needs a number new_ms >= 0, got {_shown(ms)}")

    @classmethod
    def appears(cls, at: float, service: ServiceDescriptor) -> "ScenarioEvent":
        return cls(at, EventKind.SERVICE_APPEARS, service=service)

    @classmethod
    def disappears(cls, at: float, service_id: str) -> "ScenarioEvent":
        return cls(at, EventKind.SERVICE_DISAPPEARS, service_id=service_id)

    @classmethod
    def link_degrades(cls, at: float, link_from: str, link_to: str, new_ms: float) -> "ScenarioEvent":
        return cls(at, EventKind.LINK_DEGRADES, link_from=link_from, link_to=link_to, new_ms=new_ms)

    @classmethod
    def inject_out_contract(cls, at: float, service_id: str) -> "ScenarioEvent":
        return cls(at, EventKind.INJECT_OUT_CONTRACT, service_id=service_id)


@dataclass(frozen=True)
class TimelineEntry:
    """One (re-)assembly attempt: when, why, and what came of it."""

    at: float
    trigger: str
    result: AssemblyResult | None
    reason: str | None = None
    combinations_tested: int = 0

    @property
    def feasible(self) -> bool:
        return self.result is not None

    def to_json_obj(self) -> dict:
        result = self.result
        return {
            "t": self.at,
            "trigger": self.trigger,
            "feasible": result is not None,
            "n_nodes": len(result.assembly.nodes) if result else 0,
            "n_edges": len(result.assembly.edges) if result else 0,
            "combinations_tested": self.combinations_tested,
        }


def timeline_jsonl(timeline: Iterable[TimelineEntry]) -> str:
    lines = [json.dumps(entry.to_json_obj(), sort_keys=True) for entry in timeline]
    return "\n".join(lines) + ("\n" if lines else "")


def _check_events(events: list[ScenarioEvent], clock: float, live: Container[str]) -> None:
    """Raise ``ValueError`` unless each event is at or after the one before
    it and ``clock``, then unless each names ids live at its time (an
    appearance one that is not); the live set starts as ``live``."""
    times = [clock] + [event.at for event in events]
    for earlier, later in zip(times, times[1:]):
        if not later >= earlier:  # also rejects NaN
            raise ValueError(
                f"event at t={later} does not follow t={earlier}: events must be sorted"
                " by time and come no earlier than the simulator clock"
            )
    changed: dict[str, bool] = {}  # liveness of the ids an earlier event changed
    for idx, event in enumerate(events):
        if event.kind is EventKind.SERVICE_APPEARS:
            sid = event.service.id
            if changed.get(sid, sid in live):
                raise ValueError(f"events[{idx}]: service {sid!r} is already live")
            changed[sid] = True
            continue
        linked = event.kind is EventKind.LINK_DEGRADES
        for sid in (event.link_from, event.link_to) if linked else (event.service_id,):
            if not changed.get(sid, sid in live):
                raise ValueError(f"events[{idx}]: service {sid!r} is not live")
        if event.kind is EventKind.SERVICE_DISAPPEARS:
            changed[event.service_id] = False


def run_scenario(
    initial_services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
    events: Iterable[ScenarioEvent],
    net: Simulator,
    *,
    budget: int = DEFAULT_COMBINATION_BUDGET,
) -> list[TimelineEntry]:
    """Assemble now, then replay events and re-assemble when one
    touches the committed assembly.

    Appearances always trigger a re-run (a new service may be better);
    disappearances, link degradations, and contract violations only when
    the affected service or link is part of the committed assembly.  A
    service reported out of contract is left out of the re-run it
    triggers, but stays available afterwards.  A ``NoAssembly`` re-run is
    recorded and the loop continues.  Every attempt shares one reuse record
    with the one before (see :func:`~selfassembly.assembler.assemble`);
    nothing is kept across calls.  Initial services not yet live on
    ``net`` are announced first, in id order, in one call.  Every timeline
    entry and trace record is stamped with ``net.clock``, so events must be
    sorted by time and none may come before the clock.  Events that break
    this, or name an id not live on ``net``, among the initial services or
    after the events before them, raise ``ValueError`` before anything is
    announced or recorded.  Each event's own fields were checked when it was
    built (:class:`ScenarioEvent`), so the replay does not check them again.
    """
    events = list(events)
    initial = list(initial_services)
    ids = set(map(attrgetter("id"), initial))
    if len(ids) != len(initial):
        service_map(initial)  # raises, naming the first repeated id
    held = net.live_ids()
    missing = ids - held
    _check_events(events, net.clock, held | missing if missing else held)
    reuse = _Reuse(template)  # checks the template before anything is announced

    if missing:
        net.announce(*sorted([d for d in initial if d.id in missing]))  # by id: ids are unique
    types = template.types()
    typed = dict(sorted([(d.id, d) for d in initial if d.type in types]))  # those that can bind

    timeline: list[TimelineEntry] = []
    committed: AssemblyResult | None = None

    def attempt(trigger: str, exclude: str | None = None) -> None:
        nonlocal committed
        at = net.clock
        pool = [d for sid, d in typed.items() if sid != exclude]
        try:
            committed = assemble(pool, template, net, budget=budget, reuse=reuse)
            entry = TimelineEntry(at, trigger, committed, None, committed.combinations_tested)
        except NoAssembly as exc:
            committed = None  # only Infeasible counts the combinations it tested
            entry = TimelineEntry(at, trigger, None, str(exc), getattr(exc, "combinations_tested", 0))
        timeline.append(entry)
        net.log_event("reassembly", None, None, trigger=trigger, feasible=entry.feasible)

    attempt("initial")

    for event in events:
        if event.at > net.clock:
            net.advance(event.at)
        if event.kind is EventKind.SERVICE_APPEARS:
            descriptor = event.service
            net.announce(descriptor)
            if descriptor.type in types:
                typed[descriptor.id] = descriptor
            attempt(f"service_appears:{descriptor.id}")
        elif event.kind is EventKind.SERVICE_DISAPPEARS:
            sid = event.service_id
            used = committed is not None and sid in committed.assembly.nodes
            net.withdraw(sid)
            typed.pop(sid, None)
            if used:
                attempt(f"service_disappears:{sid}")
        elif event.kind is EventKind.LINK_DEGRADES:
            link = (event.link_from, event.link_to)
            net.degrade_link(*link, event.new_ms)
            if committed is not None and link in committed.assembly.edges:
                attempt(f"link_degrades:{link[0]}->{link[1]}")
        elif event.kind is EventKind.INJECT_OUT_CONTRACT:
            sid = event.service_id
            net.log_event(
                "out_contract",
                sid,
                None,
                status=ContractStatus.OUT_CONTRACT.value,
                cause=ContractCause.INJECTED.value,
            )
            used = committed is not None and sid in committed.assembly.nodes
            if used:
                attempt(f"out_contract:{sid}", exclude=sid)
    return timeline
