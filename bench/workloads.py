"""Seeded scenario generators for the three benchmark workloads.

Each generator turns a seed into a pool of scenario JSON documents plus,
for each document, what its outcome must be.  The expectations follow
from how the inputs are built, not from running the program, so every op
of every seed is checked, not only the default seed's reference digest.

The documents use the schema of ``selfassembly.scenario`` and the
canonical formatting of ``serialize_scenario`` (sorted keys, two-space
indent).  Random draws come from ``random.Random`` seeded with a string,
which is independent of ``PYTHONHASHSEED``, so one seed always yields
byte-identical documents.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Gap between successive preference ranks of a sensor's gateway links, in
# ms.  Any other part of a medical candidate's cost spans less than 30 ms
# (link 0.1-5, gateway qos 1-10, downstream link 0.1-5 plus qos 1-10), so
# a sensor's candidate list is grouped by gateway in rank order and the
# odometer's path through the combinations is fixed by the ranks alone.
RANK_GAP_MS = 30.0
CANDIDATES_PER_GATEWAY = 5 * 2  # one hospital and one rescue team per gateway
SENSORS = [f"A{i}" for i in range(1, 11)]
GATEWAYS = [f"B{i}" for i in range(1, 10)]
HOSPITALS = [f"C{i}" for i in range(1, 6)]
RESCUES = [f"D{i}" for i in range(1, 3)]
# select_assembly's odometer visits starts in id order, rightmost fastest.
ODOMETER = sorted(SENSORS)
MEDICAL_TEMPLATE = {"body": [["tA", "tB"], ["tB", "tC"], ["tB", "tD"]], "constraints": [1, 1, 1]}

# wide_enum: target counts, interleaved around the middle so that any
# prefix of the pool has about the pool's mix of op sizes.
WIDE_SIZES = (200, 150, 250, 175, 225, 160, 240, 190, 210, 170, 230)
WIDE_START_QOS_MS = 5.0

# The CLI's default --budget; every workload but contended_select uses it.
DEFAULT_BUDGET = 10_000_000

# contended_select: one op per instance; a pool cycles the three outcomes.
SELECT_BUDGET = 50_000
SELECT_CLASSES = ("immediate", "delayed", "budget") * 4
# A delayed instance's sensor at odometer position 8 skips its first three
# gateways (10 candidates each) while position 9 spins through all of its
# candidates for each, so the first feasible combination is number
# 3 * 10 * 90 + 1.
DELAYED_SKIPPED_GATEWAYS = 3
DELAYED_COMBINATIONS = (
    DELAYED_SKIPPED_GATEWAYS * CANDIDATES_PER_GATEWAY * len(GATEWAYS) * CANDIDATES_PER_GATEWAY + 1
)
# A budget instance needs position 7 to move, which takes at least
# 10 * 90 * 90 combinations; the budget stops the search first.
assert SELECT_BUDGET < CANDIDATES_PER_GATEWAY * (len(GATEWAYS) * CANDIDATES_PER_GATEWAY) ** 2

# crowded_churn: registry size and trace shape.
CHURN_POOL = 4
CHURN_BYSTANDERS = 4000
BYSTANDER_TYPES = ("tX", "tY", "tZ")


@dataclass(frozen=True)
class Instance:
    """One scenario document and what the op on it must produce.

    ``outcome`` is ``"commit"`` or ``"CombinationBudgetExceeded"`` for an
    assemble op.  For a simulate op, ``timeline`` lists the expected
    (trigger, ids of the template services the re-run may use) per
    timeline entry; every entry commits at the first combination.
    """

    op: str  # "assemble" or "simulate"
    text: str
    budget: int = DEFAULT_BUDGET
    outcome: str = "commit"
    combinations: int = 1
    edges: tuple[tuple[str, str], ...] | None = None
    cost: float | None = None
    timeline: tuple[tuple[str, frozenset[str]], ...] = field(default=())


def _dump(services: list[dict], template: dict, entries: list, events=()) -> str:
    doc = {
        "services": sorted(services, key=lambda s: s["id"]),
        "template": template,
        "links": {"kind": "matrix", "entries": sorted(entries)},
        "events": list(events),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _service(sid: str, type_: str, qos: float, threshold: int) -> dict:
    return {"id": sid, "type": type_, "qos_ms": qos, "threshold": threshold}


# ------------------------------------------------------------------ wide_enum


def wide_enum(seed: int) -> list[Instance]:
    """One-layer k=2 layouts with 150-250 targets and a single sender.

    The committed pair is the two targets with the smallest link plus
    processing time, which the generator knows without enumerating.  The
    sender's processing time is fixed, so the committed worst path varies
    only with the targets.
    """
    pool = []
    for index, n in enumerate(WIDE_SIZES):
        rng = random.Random(f"wide_enum:{seed}:{index}")
        services = [_service("A1", "tA", WIDE_START_QOS_MS, 1)]
        entries = []
        tail = {}
        for i in range(1, n + 1):
            sid = f"B{i}"
            qos = rng.uniform(1.0, 10.0)
            link = rng.uniform(0.1, 5.0)
            services.append(_service(sid, "tB", qos, rng.randint(1, 3)))
            entries.append(["A1", sid, link])
            tail[sid] = link + qos
        best = sorted(tail, key=lambda sid: (tail[sid], sid))[:2]
        pool.append(
            Instance(
                op="assemble",
                text=_dump(services, {"body": [["tA", "tB"]], "constraints": [2]}, entries),
                edges=tuple(sorted(("A1", sid) for sid in best)),
                cost=WIDE_START_QOS_MS + tail[best[1]],
            )
        )
    return pool


# ----------------------------------------------------------- medical layouts


def _medical(rng: random.Random, thresholds: dict[str, int], ranks: dict[str, list[str]]):
    """Medical services and link entries; ``ranks`` orders each sensor's
    gateways from most to least preferred."""
    services = [_service(s, "tA", rng.uniform(1.0, 10.0), 1) for s in SENSORS]
    services += [_service(g, "tB", rng.uniform(1.0, 10.0), thresholds[g]) for g in GATEWAYS]
    services += [_service(c, "tC", rng.uniform(1.0, 10.0), 9) for c in HOSPITALS]
    services += [_service(d, "tD", rng.uniform(1.0, 10.0), 9) for d in RESCUES]
    entries = []
    for sensor in SENSORS:
        for rank, gateway in enumerate(ranks[sensor]):
            entries.append([sensor, gateway, rank * RANK_GAP_MS + rng.uniform(0.1, 5.0)])
    for gateway in GATEWAYS:
        for target in HOSPITALS + RESCUES:
            entries.append([gateway, target, rng.uniform(0.1, 5.0)])
    return services, entries


def _ranks(rng: random.Random, first: dict[str, list[str]]) -> dict[str, list[str]]:
    """Full preference order per sensor: the given leading gateways, then
    the rest in random order."""
    out = {}
    for sensor in SENSORS:
        lead = first[sensor]
        rest = [g for g in GATEWAYS if g not in lead]
        rng.shuffle(rest)
        out[sensor] = lead + rest
    return out


# ---------------------------------------------------------- contended_select


def _contended(rng: random.Random, kind: str) -> tuple[dict[str, int], dict[str, list[str]]]:
    """Gateway thresholds (2-3) and sensors' leading gateway choices that
    make the odometer commit at once, commit after exactly
    ``DELAYED_COMBINATIONS``, or hit the budget."""
    thresholds = {g: rng.choice((2, 3)) for g in GATEWAYS}
    gateways = list(GATEWAYS)
    rng.shuffle(gateways)
    if kind == "immediate":
        slots = [g for g in gateways for _ in range(thresholds[g])]
        rng.shuffle(slots)
        return thresholds, {s: [g] for s, g in zip(SENSORS, slots)}

    if kind == "delayed":
        # Positions 0-7 fill three gateways exactly; position 8 prefers
        # those three, then a free one; position 9 prefers another free one.
        full, free = gateways[:DELAYED_SKIPPED_GATEWAYS], gateways[DELAYED_SKIPPED_GATEWAYS:]
        thresholds[full[0]] = thresholds[full[1]] = 2  # 6-7 slots, so 8 sensors fill them
        fillers = [g for g in full for _ in range(thresholds[g])]
        early = ODOMETER[:8]
        rng.shuffle(early)
        leads = {s: [g] for s, g in zip(early, fillers)}
        rest = early[len(fillers):]
        for sensor, gateway in zip(rest, free):
            leads[sensor] = [gateway]
        spare = free[len(rest):]
        leads[ODOMETER[8]] = rng.sample(full, len(full)) + [spare[0]]
        leads[ODOMETER[9]] = [spare[1]]
        return thresholds, leads

    # budget: positions 0-6 fill one gateway, which position 7 also prefers.
    crowded, free = gateways[0], gateways[1:]
    early = ODOMETER[:7]
    rng.shuffle(early)
    fillers = early[: thresholds[crowded]]
    leads = {s: [crowded] for s in fillers + [ODOMETER[7]]}
    others = [s for s in ODOMETER if s not in leads]
    for sensor, gateway in zip(others, free):
        leads[sensor] = [gateway]
    return thresholds, leads


def contended_select(seed: int) -> list[Instance]:
    """The medical layout with gateway thresholds of 2-3, a fixed budget,
    and outcomes cycling through commit-at-once, commit-after-thousands
    and budget-exceeded."""
    pool = []
    for index, kind in enumerate(SELECT_CLASSES):
        rng = random.Random(f"contended_select:{seed}:{index}")
        thresholds, leads = _contended(rng, kind)
        services, entries = _medical(rng, thresholds, _ranks(rng, leads))
        text = _dump(services, MEDICAL_TEMPLATE, entries)
        if kind == "budget":
            pool.append(Instance("assemble", text, budget=SELECT_BUDGET,
                                 outcome="CombinationBudgetExceeded", combinations=SELECT_BUDGET))
        else:
            combos = 1 if kind == "immediate" else DELAYED_COMBINATIONS
            pool.append(Instance("assemble", text, budget=SELECT_BUDGET, combinations=combos))
    return pool


# -------------------------------------------------------------- crowded_churn


class _ChurnTrace:
    """Builds a churn trace whose every event provably does or does not
    trigger a re-assembly, tracking what the committed assembly holds.

    With gateway thresholds of 10 every attempt commits at the first
    combination, every live sensor not excluded by the last attempt is in
    the committed assembly, and a sensor whose first-choice link is intact
    uses it.
    """

    def __init__(self, rng: random.Random, services: list[dict], bystanders: list[str]):
        self.rng = rng
        self.events: list[dict] = []
        self.by_id = {s["id"]: s for s in services}
        self.live_template = {s["id"] for s in services if s["type"] in ("tA", "tB", "tC", "tD")}
        self.bystanders = list(bystanders)
        self.degraded: set[str] = set()
        self.excluded: str | None = None
        self.timeline = [("initial", frozenset(self.live_template))]
        self.next_bystander = len(bystanders) + 1

    def _emit(self, event: dict, trigger: str | None, exclude: str | None = None) -> None:
        event["at_ms"] = 10.0 * (len(self.events) + 1)
        self.events.append(event)
        if trigger is not None:
            self.timeline.append((trigger, frozenset(self.live_template - {exclude})))
            self.excluded = exclude

    def _committed_sensor(self, avoid=()) -> str:
        pool = sorted(
            s for s in self.live_template
            if self.by_id[s]["type"] == "tA" and s != self.excluded and s not in avoid
        )
        return self.rng.choice(pool)

    def _bystander(self) -> str:
        return self.rng.choice(self.bystanders)

    def bystander_appears(self) -> None:
        sid = f"X{self.next_bystander:05d}"
        self.next_bystander += 1
        service = _service(sid, self.rng.choice(BYSTANDER_TYPES), self.rng.uniform(1.0, 10.0),
                           self.rng.randint(1, 5))
        self.bystanders.append(sid)
        self._emit({"kind": "service_appears", "service": service}, f"service_appears:{sid}")

    def bystander_disappears(self) -> None:
        sid = self._bystander()
        self.bystanders.remove(sid)
        self._emit({"kind": "service_disappears", "id": sid}, None)

    def bystander_link_degrades(self) -> None:
        a, b = self.rng.sample(self.bystanders, 2)
        self._emit({"kind": "link_degrades", "from": a, "to": b,
                    "new_ms": self.rng.uniform(50.0, 100.0)}, None)

    def bystander_out_of_contract(self) -> None:
        self._emit({"kind": "inject_out_contract", "id": self._bystander()}, None)

    def sensor_disappears(self) -> None:
        sid = self._committed_sensor()
        self.live_template.discard(sid)
        self._emit({"kind": "service_disappears", "id": sid}, f"service_disappears:{sid}")

    def gateway_appears(self, sid: str, qos: float) -> None:
        service = _service(sid, "tB", qos, 10)
        self.by_id[sid] = service
        self.live_template.add(sid)
        self._emit({"kind": "service_appears", "service": service}, f"service_appears:{sid}")

    def first_link_degrades(self, ranks: dict[str, list[str]]) -> None:
        sid = self._committed_sensor(avoid=self.degraded)
        self.degraded.add(sid)
        gateway = ranks[sid][0]
        new_ms = (len(GATEWAYS) + 1) * RANK_GAP_MS + self.rng.uniform(0.1, 5.0)
        self._emit({"kind": "link_degrades", "from": sid, "to": gateway, "new_ms": new_ms},
                   f"link_degrades:{sid}->{gateway}")

    def sensor_out_of_contract(self) -> None:
        sid = self._committed_sensor()
        self._emit({"kind": "inject_out_contract", "id": sid}, f"out_contract:{sid}", exclude=sid)


def _churn_instance(seed: int, index: int) -> Instance:
    rng = random.Random(f"crowded_churn:{seed}:{index}")
    thresholds = {g: 10 for g in GATEWAYS}
    gateways = list(GATEWAYS)
    rng.shuffle(gateways)
    leads = {s: [gateways[i % len(gateways)]] for i, s in enumerate(SENSORS)}
    ranks = _ranks(rng, leads)
    services, entries = _medical(rng, thresholds, ranks)
    bystanders = [f"X{i:05d}" for i in range(1, CHURN_BYSTANDERS + 1)]
    for sid in bystanders:
        services.append(_service(sid, rng.choice(BYSTANDER_TYPES), rng.uniform(1.0, 10.0),
                                 rng.randint(1, 5)))

    # The late gateway ranks last for every sensor, so it joins the
    # registry and the flood without changing any choice.
    late = f"B{len(GATEWAYS) + 1}"
    for sensor in SENSORS:
        entries.append([sensor, late, len(GATEWAYS) * RANK_GAP_MS + rng.uniform(0.1, 5.0)])
    for target in HOSPITALS + RESCUES:
        entries.append([late, target, rng.uniform(0.1, 5.0)])

    trace = _ChurnTrace(rng, services, bystanders)
    trace.bystander_disappears()
    trace.sensor_disappears()
    trace.bystander_appears()
    trace.first_link_degrades(ranks)
    trace.bystander_link_degrades()
    trace.sensor_out_of_contract()
    trace.bystander_out_of_contract()
    trace.gateway_appears(late, rng.uniform(1.0, 10.0))
    trace.bystander_disappears()
    return Instance(
        "simulate",
        _dump(services, MEDICAL_TEMPLATE, entries, trace.events),
        timeline=tuple(trace.timeline),
    )


def crowded_churn(seed: int) -> list[Instance]:
    """The medical layout in a registry of bystander peers whose types are
    outside the template, replayed through a 9-event churn trace with 5
    re-assemblies.

    Every service that appears later has its matrix link entries.  A
    service appearing with a partial link matrix is left out: it raises
    ``LatencyUndefined`` from ``run_scenario`` today and its correct
    outcome is not decided yet.
    """
    return [_churn_instance(seed, index) for index in range(CHURN_POOL)]


GENERATORS = {
    "wide_enum": wide_enum,
    "crowded_churn": crowded_churn,
    "contended_select": contended_select,
}
