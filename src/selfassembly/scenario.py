"""Scenario documents: strict JSON schema, canonical serialization, layout
generators, and seeded random instances for oracle cross-checking.

A scenario bundles the live service set, the application template, the
link latency model, and an optional list of timed events.  Parsing is
strict: unknown keys are rejected at every level so typos surface early.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Any

import orjson

from .errors import ScenarioFormatError, _shown
from .model import (
    ALL,
    AllServices,
    ApplicationTemplate,
    Constraint,
    QoSMatrix,
    ServiceDescriptor,
)
from .netsim import (
    LatencyModel,
    MatrixLatency,
    SeededLatency,
    Simulator,
    UniformLatency,
)
from .runtime import EventKind, ScenarioEvent, _check_events


@dataclass
class Scenario:
    services: list[ServiceDescriptor]
    template: ApplicationTemplate
    links: LatencyModel
    events: list[ScenarioEvent] = field(default_factory=list)


# --------------------------------------------------------------------- parsing


def _check_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ScenarioFormatError(f"{where}: missing key(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown key(s) {sorted(unknown)}")


def _number(value: Any, where: str, key: str = "") -> float:
    """``value`` as a float other than ±inf (NaN passes); ``key`` names the
    field of ±inf or of an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {_shown(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioFormatError(f"{where}{key}: integer too large for a float") from None
    if math.isinf(number):
        raise ScenarioFormatError(f"{where}{key}: must be finite, got {number}")
    return number


def _nonnegative(value: Any, where: str, key: str = "") -> float:
    """``value`` as a float ``>= 0``, named ``where`` plus ``key`` if it is not."""
    number = _number(value, where, key)
    if not number >= 0:  # also rejects NaN
        raise ScenarioFormatError(f"{where}{key}: must be >= 0, got {number}")
    return number


def _parse_service(obj: Any, where: str) -> ServiceDescriptor:
    """One service entry, checked key by key and named ``where`` in errors."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    _check_keys(obj, {"id", "type", "qos_ms", "threshold"}, set(), where)
    if not isinstance(obj["id"], str) or not isinstance(obj["type"], str):
        raise ScenarioFormatError(f"{where}: id and type must be strings")
    # ServiceDescriptor checks this too; here it names the field before qos_ms is checked.
    if isinstance(obj["threshold"], bool) or not isinstance(obj["threshold"], int):
        raise ScenarioFormatError(f"{where}: threshold must be an integer")
    try:
        return ServiceDescriptor(
            obj["id"], obj["type"], _number(obj["qos_ms"], where, ".qos_ms"), obj["threshold"]
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from None


def _parse_constraint(value: Any, where: str) -> Constraint:
    if value == "ALL":
        return ALL
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ScenarioFormatError(
            f"{where}: constraint must be a positive integer or \"ALL\", got {_shown(value)}"
        )
    return value


def _parse_template(obj: Any) -> ApplicationTemplate:
    where = "template"
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    _check_keys(obj, {"body", "constraints"}, set(), where)
    body = obj["body"]
    if not isinstance(body, list):
        raise ScenarioFormatError(f"{where}.body: expected a list")
    pairs = []
    for idx, pair in enumerate(body):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(t, str) for t in pair)
        ):
            raise ScenarioFormatError(f"{where}.body[{idx}]: expected [from_type, to_type]")
        pairs.append((pair[0], pair[1]))
    constraints = obj["constraints"]
    if not isinstance(constraints, list):
        raise ScenarioFormatError(f"{where}.constraints: expected a list")
    parsed = [
        _parse_constraint(value, f"{where}.constraints[{idx}]")
        for idx, value in enumerate(constraints)
    ]
    return ApplicationTemplate(tuple(pairs), tuple(parsed))


def _parse_links(obj: Any) -> LatencyModel:
    where = "links"
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "uniform":
        _check_keys(obj, {"kind", "base_ms"}, set(), where)
        return UniformLatency(_nonnegative(obj["base_ms"], where, ".base_ms"))
    if kind == "matrix":
        _check_keys(obj, {"kind", "entries"}, set(), where)
        entries = obj["entries"]
        if not isinstance(entries, list):
            raise ScenarioFormatError(f"{where}.entries: expected a list")
        table: dict[tuple[str, str], float] = {}
        for idx, row in enumerate(entries):
            # A row of two strings and a finite float >= 0, of the types JSON
            # decodes them to, is checked here once; any other row is checked
            # field by field for a named error.
            if type(row) is list and len(row) == 3:
                a, b, ms = row
                pair = (a, b)
                if (
                    type(a) is str
                    and type(b) is str
                    and type(ms) is float
                    and 0 <= ms < math.inf
                    and pair not in table
                ):
                    table[pair] = ms
                    continue
            pair, ms = _matrix_row(row, table, f"{where}.entries[{idx}]")
            table[pair] = ms
        return MatrixLatency._unchecked(table)
    if kind == "seeded":
        _check_keys(obj, {"kind", "base_ms", "jitter_ms", "seed"}, set(), where)
        if isinstance(obj["seed"], bool) or not isinstance(obj["seed"], int):
            raise ScenarioFormatError(f"{where}.seed: expected an integer")
        base_ms, jitter_ms = (
            _nonnegative(obj[k], where, f".{k}") for k in ("base_ms", "jitter_ms")
        )
        return SeededLatency(base_ms, jitter_ms, obj["seed"])
    raise ScenarioFormatError(
        f"{where}.kind: expected \"uniform\", \"matrix\" or \"seeded\", got {_shown(kind)}"
    )


def _matrix_row(row: Any, table: dict, where: str) -> tuple[tuple[str, str], float]:
    """One matrix row as its pair and latency, or the named error it earns."""
    if (
        not isinstance(row, list)
        or len(row) != 3
        or not isinstance(row[0], str)
        or not isinstance(row[1], str)
    ):
        raise ScenarioFormatError(f"{where}: expected [from_id, to_id, ms]")
    pair = (row[0], row[1])
    if pair in table:
        raise ScenarioFormatError(f"{where}: duplicate pair {pair}")
    return pair, _nonnegative(row[2], where)


_EVENT_KEYS = {
    "service_appears": {"at_ms", "kind", "service"},
    "service_disappears": {"at_ms", "kind", "id"},
    "link_degrades": {"at_ms", "kind", "from", "to", "new_ms"},
    "inject_out_contract": {"at_ms", "kind", "id"},
}


def _parse_event(obj: Any, where: str) -> ScenarioEvent:
    """One event entry, named ``where`` in errors.  Only what names a JSON
    field is checked here; :class:`ScenarioEvent` checks the rest."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _EVENT_KEYS:
        raise ScenarioFormatError(f"{where}.kind: unknown event kind {_shown(kind)}")
    _check_keys(obj, _EVENT_KEYS[kind], set(), where)
    at = _number(obj["at_ms"], f"{where}.at_ms")
    if math.isnan(at):  # named by its index here; the order check names only its time
        raise ScenarioFormatError(f"{where}.at_ms: expected a number, got nan")
    if at < 0:  # the simulator clock starts at 0 and never runs backwards
        raise ScenarioFormatError(f"{where}.at_ms: must be >= 0, got {at}")
    try:
        if kind == "service_appears":
            return ScenarioEvent.appears(at, _parse_service(obj["service"], f"{where}.service"))
        if kind == "link_degrades":
            return ScenarioEvent.link_degrades(
                at, obj["from"], obj["to"], _nonnegative(obj["new_ms"], f"{where}.new_ms")
            )
        return ScenarioEvent(at, EventKind(kind), service_id=obj["id"])
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from None


def parse_scenario(document: str | dict) -> Scenario:
    """Parse a scenario document (JSON text or an already-decoded object);
    unknown keys are rejected.

    Text is decoded with ``orjson``.  If ``orjson`` refuses it, or its
    result fails a check, the text is decoded again with ``json`` and
    parsed from that, so that every accepted value and every error is what
    ``json`` gives: ``orjson`` refuses ``NaN``, ``Infinity``, numbers beyond
    a double, lone-surrogate escapes and a BOM, words its own errors, and
    reads an integer beyond 64 bits as a float.

    A text document's service entries are released as they are read, so
    that a decoded entry and its descriptor are never both held for the
    whole list; a decoded document is read and never modified."""
    if not isinstance(document, str):
        return _parse_decoded(document, owned=False)
    try:
        return _parse_decoded(orjson.loads(document), owned=True)
    except (orjson.JSONDecodeError, ScenarioFormatError):
        pass
    try:
        obj = json.loads(document)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge ints, deep nesting
        raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    return _parse_decoded(obj, owned=True)


def _parse_decoded(obj: Any, *, owned: bool) -> Scenario:
    """A decoded document, checked and parsed.  Its service entries are
    released as they are read if it is ``owned``; a document the caller
    holds is read from a copy of its service list."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError("top level: expected an object")
    _check_keys(obj, {"services", "template", "links"}, {"events"}, "top level")
    raw_services = obj["services"]
    if not isinstance(raw_services, list):
        raise ScenarioFormatError("services: expected a list")
    if not owned:  # a decoded document is the caller's: release from a copy
        raw_services = list(raw_services)
    services: list[ServiceDescriptor] = []
    fields_of = itemgetter("id", "type", "qos_ms", "threshold")
    unchecked = ServiceDescriptor._unchecked
    kinds: dict[str, str] = {}  # one str per type, shared by its descriptors
    for index, entry in enumerate(raw_services):
        raw_services[index] = None  # only entry holds it now, until the next is read
        # A plain entry of the four keys, of the types JSON decodes them to, is
        # checked here once, as the descriptor checks it: non-empty strings, a
        # threshold >= 1 and a finite qos >= 0.  Any other is checked key by key.
        if type(entry) is dict and len(entry) == 4:
            try:
                sid, kind, qos, threshold = fields_of(entry)
                qos = float(qos) if type(qos) is int else qos
            except (KeyError, OverflowError):
                pass
            else:
                if (type(sid) is str and sid and type(kind) is str and kind
                        and type(threshold) is int and threshold >= 1
                        and type(qos) is float and 0 <= qos < math.inf):
                    services.append(unchecked((sid, kinds.setdefault(kind, kind), qos, threshold)))
                    continue
        services.append(_parse_service(entry, f"services[{index}]"))
    live = set(map(itemgetter(0), services))
    if len(live) != len(services):
        raise ScenarioFormatError("services: duplicate ids")
    template = _parse_template(obj["template"])
    links = _parse_links(obj["links"])
    events = []
    if "events" in obj:
        if not isinstance(obj["events"], list):
            raise ScenarioFormatError("events: expected a list")
        events = [
            _parse_event(entry, f"events[{idx}]") for idx, entry in enumerate(obj["events"])
        ]
        try:
            _check_events(events, 0.0, live)
        except ValueError as exc:
            raise ScenarioFormatError(str(exc)) from None
    return Scenario(services, template, links, events)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    return parse_scenario(text)


# ----------------------------------------------------------------- serializing


def _service_obj(svc: ServiceDescriptor) -> dict:
    return {"id": svc.id, "type": svc.type, "qos_ms": svc.qos_nominal, "threshold": svc.threshold}


def _links_obj(links: LatencyModel) -> dict:
    if isinstance(links, UniformLatency):
        return {"kind": "uniform", "base_ms": links.base_ms}
    if isinstance(links, MatrixLatency):
        entries = [[a, b, ms] for (a, b), ms in sorted(links.entries.items())]
        return {"kind": "matrix", "entries": entries}
    if isinstance(links, SeededLatency):
        return {
            "kind": "seeded",
            "base_ms": links.base_ms,
            "jitter_ms": links.jitter_ms,
            "seed": links.seed,
        }
    raise TypeError(f"unknown latency model {links!r}")


def _event_obj(event: ScenarioEvent) -> dict:
    obj = {"at_ms": event.at, "kind": event.kind.value}
    if event.kind is EventKind.SERVICE_APPEARS:
        obj["service"] = _service_obj(event.service)
    elif event.kind is EventKind.LINK_DEGRADES:
        obj.update({"from": event.link_from, "to": event.link_to, "new_ms": event.new_ms})
    else:  # both id kinds
        obj["id"] = event.service_id
    return obj


def scenario_to_obj(scenario: Scenario) -> dict:
    return {
        "services": [_service_obj(s) for s in sorted(scenario.services, key=lambda s: s.id)],
        "template": {
            "body": [[a, b] for a, b in scenario.template.body],
            "constraints": [
                "ALL" if isinstance(c, AllServices) else c
                for c in scenario.template.constraints
            ],
        },
        "links": _links_obj(scenario.links),
        "events": [_event_obj(e) for e in scenario.events],
    }


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(scenario_to_obj(scenario), indent=2, sort_keys=True) + "\n"


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_scenario(scenario))


def build_simulator(scenario: Scenario, *, trace: bool = True) -> Simulator:
    """A fresh simulator with every scenario service announced at time zero."""
    net = Simulator(scenario.links, trace=trace)
    net.announce(*sorted(scenario.services, key=attrgetter("id")))
    return net


# ------------------------------------------------------------------ generators
#
# "Random" parameters are drawn from one seeded generator in a fixed order,
# so the same flags and seed always produce byte-identical files: processing
# times uniform in [1, 10] ms, thresholds uniform integers in
# [1, max(2, n_services // 2)], link times uniform in [0.1, 5] ms.


def _draw_qos(rng: random.Random) -> float:
    return rng.uniform(1.0, 10.0)


def _draw_threshold(rng: random.Random, n_services: int) -> int:
    return rng.randint(1, max(2, n_services // 2))


def _draw_link(rng: random.Random) -> float:
    return rng.uniform(0.1, 5.0)


def resolve_layer_constraint(k: int | AllServices | str, available: int) -> Constraint:
    """Map a generator constraint spec (int, ALL, or ``"half"``) onto a
    concrete constraint for a layer with ``available`` targets."""
    if isinstance(k, AllServices):
        return ALL
    if isinstance(k, str):
        word = k.lower()
        if word == "all":
            return ALL
        if word == "half":
            return max(1, available // 2)
        raise ValueError(f"unknown constraint spec {k!r}")
    if k < 1:
        raise ValueError("integer constraint must be >= 1")
    return min(k, available)


def _layout(
    layers: dict[str, tuple[list[str], int | None]],
    body: list[tuple[str, str]],
    constraints: list[Constraint],
    seed: int,
) -> Scenario:
    """A generated layout.  ``layers`` maps each type to its service ids
    and a pinned threshold (``None`` draws one); ``body`` pairs types.
    Draws, per layer, each service's qos and then its threshold, then the
    link of every (from, to) service pair of each body pair in order."""
    rng = random.Random(seed)
    n_services = sum(len(ids) for ids, _ in layers.values())
    services = [
        ServiceDescriptor(
            sid, kind, _draw_qos(rng), _draw_threshold(rng, n_services) if pinned is None else pinned
        )
        for kind, (ids, pinned) in layers.items()
        for sid in ids
    ]
    table = {
        (a, b): _draw_link(rng)
        for from_type, to_type in body
        for a in layers[from_type][0]
        for b in layers[to_type][0]
    }
    template = ApplicationTemplate(tuple(body), tuple(constraints))
    return Scenario(services, template, MatrixLatency(table), [])


def generate_one_layer(n: int, k: int | AllServices | str, seed: int) -> Scenario:
    """One starting service fanning out to ``n`` targets of a second type."""
    if n < 1:
        raise ValueError("n must be >= 1")
    targets = [f"B{i}" for i in range(1, n + 1)]
    layers = {"tA": (["A1"], None), "tB": (targets, None)}
    return _layout(layers, [("tA", "tB")], [resolve_layer_constraint(k, n)], seed)


def generate_pyramidal(top_width: int, k: int | AllServices | str, seed: int) -> Scenario:
    """Layers of decreasing width (``top_width`` down to 1), one type per
    layer, each layer binding into the next."""
    if top_width < 2:
        raise ValueError("top_width must be >= 2")
    widths = list(range(top_width, 0, -1))
    layers = {
        f"t{layer}": ([f"L{layer}N{i}" for i in range(1, width + 1)], None)
        for layer, width in enumerate(widths, start=1)
    }
    body = [(f"t{layer}", f"t{layer + 1}") for layer in range(1, len(widths))]
    constraints = [resolve_layer_constraint(k, width) for width in widths[1:]]
    return _layout(layers, body, constraints, seed)


def generate_medical(seed: int) -> Scenario:
    """The monitoring layout: 10 wearable sensors, 9 gateways, 5 hospitals
    and 2 rescue teams; each sensor binds one gateway, each used gateway
    notifies one hospital and one rescue team.

    Gateways accept 10 simultaneous sensors; hospital and rescue-team
    thresholds are pinned at 9 (one slot per gateway) so the layout is
    feasible for every seed.
    """
    layers = {
        "tA": ([f"A{i}" for i in range(1, 11)], 1),
        "tB": ([f"B{i}" for i in range(1, 10)], 10),
        "tC": ([f"C{i}" for i in range(1, 6)], 9),
        "tD": ([f"D{i}" for i in range(1, 3)], 9),
    }
    return _layout(layers, [("tA", "tB"), ("tB", "tC"), ("tB", "tD")], [1, 1, 1], seed)


# -------------------------------------------------------- random test instances
#
# Small seeded instances for oracle cross-checks.  Values are quarter-integer
# (dyadic) so path sums are exact in floating point regardless of the order
# of addition; shapes and constraint mixes are chosen to keep the exhaustive
# search small while still hitting feasible and infeasible cases.


def _dyadic(rng: random.Random, low_quarters: int, high_quarters: int) -> float:
    return rng.randint(low_quarters, high_quarters) / 4.0


def generate_random_instance(
    seed: int,
) -> tuple[list[ServiceDescriptor], ApplicationTemplate, QoSMatrix]:
    """One small random instance: services, template, and a full link
    matrix over the template's type pairs."""
    rng = random.Random(seed)
    while True:
        layers = rng.choice([2, 2, 3, 3, 3])
        branch = layers == 3 and rng.random() < 0.25
        widths = [rng.randint(1, 3)]
        remaining = 12 - widths[0]  # at most 12 services in all
        body_shape: list[tuple[int, int]] = []  # (from layer index, to layer index)
        n_layers = layers + (1 if branch else 0)
        for _ in range(n_layers - 1):
            upper = max(1, min(4, remaining - (n_layers - 1 - len(widths))))
            widths.append(rng.randint(1, upper))
            remaining -= widths[-1]
        for i in range(layers - 1):
            body_shape.append((i, i + 1))
        if branch:
            body_shape.append((1, layers))

        constraints: list[Constraint] = []
        for _, to_layer in body_shape:
            if rng.random() < 0.3:
                constraints.append(ALL)
            else:
                constraints.append(rng.randint(1, widths[to_layer]))

        # Keep the exhaustive search small: candidate counts multiply over
        # binder nodes per edge, then over starts.  Non-start layers use
        # their full width as the binder count, an upper bound.
        per_start = 1
        for (from_layer, to_layer), constraint in zip(body_shape, constraints):
            n_choices = (
                1
                if isinstance(constraint, AllServices)
                else _binom(widths[to_layer], constraint)
            )
            binders = 1 if from_layer == 0 else widths[from_layer]
            per_start *= n_choices ** binders
        total = per_start ** widths[0]
        if total > 4000 or per_start > 200:
            continue

        types = [f"t{i + 1}" for i in range(n_layers)]
        services: list[ServiceDescriptor] = []
        for layer, width in enumerate(widths):
            for i in range(1, width + 1):
                services.append(
                    ServiceDescriptor(
                        f"S{layer + 1}x{i}",
                        types[layer],
                        _dyadic(rng, 4, 40),
                        rng.randint(1, 3),
                    )
                )
        body = tuple((types[a], types[b]) for a, b in body_shape)
        template = ApplicationTemplate(body, tuple(constraints))

        links = QoSMatrix()
        by_layer = [
            [s.id for s in services if s.type == types[layer]] for layer in range(n_layers)
        ]
        for a_layer, b_layer in body_shape:
            for a in by_layer[a_layer]:
                for b in by_layer[b_layer]:
                    links.set(a, b, _dyadic(rng, 1, 20))
        return services, template, links


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if k <= n else 10 ** 9  # 10**9 forces a resample
