import copy
import gc
import hashlib
import json
import tracemalloc
from collections import OrderedDict

import pytest

from selfassembly import (
    ALL,
    MatrixLatency,
    ScenarioFormatError,
    SeededLatency,
    ServiceDescriptor,
    UniformLatency,
    assemble,
    count_combinations,
)
from selfassembly.runtime import ScenarioEvent
from selfassembly.scenario import (
    Scenario,
    build_simulator,
    generate_medical,
    generate_one_layer,
    generate_pyramidal,
    parse_scenario,
    resolve_layer_constraint,
    serialize_scenario,
)

from conftest import seven_services, seven_template


def _example_scenario() -> Scenario:
    return Scenario(
        services=seven_services(),
        template=seven_template(),
        links=UniformLatency(1.5),
        events=[
            ScenarioEvent.disappears(100.0, "B3"),
            ScenarioEvent.appears(200.0, ServiceDescriptor("B4", "tB", 1.0, 3)),
            ScenarioEvent.link_degrades(300.0, "A1", "B1", 9.0),
            ScenarioEvent.inject_out_contract(400.0, "B2"),
        ],
    )


# ------------------------------------------------------------------ round trip


def test_round_trip_uniform_links():
    scenario = _example_scenario()
    text = serialize_scenario(scenario)
    again = parse_scenario(text)
    assert again.services == scenario.services
    assert again.template == scenario.template
    assert again.links == scenario.links
    assert again.events == scenario.events
    assert serialize_scenario(again) == text


def test_round_trip_matrix_and_seeded_links():
    scenario = _example_scenario()
    scenario.links = MatrixLatency({("A1", "B1"): 0.5, ("B1", "C1"): 2.0})
    text = serialize_scenario(scenario)
    assert parse_scenario(text).links == scenario.links

    scenario.links = SeededLatency(5.0, 2.0, 42)
    text = serialize_scenario(scenario)
    assert parse_scenario(text).links == scenario.links


def test_round_trip_all_constraint():
    scenario = _example_scenario()
    scenario.template = seven_template().__class__((("tA", "tB"),), (ALL,))
    again = parse_scenario(serialize_scenario(scenario))
    assert again.template.constraints == (ALL,)


# --------------------------------------------------------------- strict schema


def test_unknown_top_level_key_rejected():
    obj = {"services": [], "template": {"body": [], "constraints": []}, "links": {"kind": "uniform", "base_ms": 1}, "extra": 1}
    with pytest.raises(ScenarioFormatError):
        parse_scenario(obj)


def test_unknown_service_key_rejected():
    obj = {
        "services": [{"id": "A1", "type": "tA", "qos_ms": 1, "threshold": 1, "color": "red"}],
        "template": {"body": [["tA", "tB"]], "constraints": [1]},
        "links": {"kind": "uniform", "base_ms": 1},
    }
    with pytest.raises(ScenarioFormatError):
        parse_scenario(obj)


def test_bad_constraint_rejected():
    obj = {
        "services": [],
        "template": {"body": [["tA", "tB"]], "constraints": ["SOME"]},
        "links": {"kind": "uniform", "base_ms": 1},
    }
    with pytest.raises(ScenarioFormatError):
        parse_scenario(obj)


def test_duplicate_service_ids_rejected():
    obj = {
        "services": [
            {"id": "A1", "type": "tA", "qos_ms": 1, "threshold": 1},
            {"id": "A1", "type": "tA", "qos_ms": 2, "threshold": 1},
        ],
        "template": {"body": [["tA", "tB"]], "constraints": [1]},
        "links": {"kind": "uniform", "base_ms": 1},
    }
    with pytest.raises(ScenarioFormatError):
        parse_scenario(obj)


def test_unsorted_events_rejected():
    obj = {
        "services": [{"id": "A1", "type": "tA", "qos_ms": 1, "threshold": 1}],
        "template": {"body": [["tA", "tB"]], "constraints": [1]},
        "links": {"kind": "uniform", "base_ms": 1},
        "events": [
            {"at_ms": 10, "kind": "service_disappears", "id": "A1"},
            {"at_ms": 5, "kind": "service_disappears", "id": "A1"},
        ],
    }
    with pytest.raises(ScenarioFormatError):
        parse_scenario(obj)


def _with_events(*events):
    """Two live services, A1 and B1, and the given events."""
    return {
        "services": [
            {"id": "A1", "type": "tA", "qos_ms": 1, "threshold": 1},
            {"id": "B1", "type": "tB", "qos_ms": 1, "threshold": 1},
        ],
        "template": {"body": [["tA", "tB"]], "constraints": [1]},
        "links": {"kind": "uniform", "base_ms": 1},
        "events": list(events),
    }


def _appears(at, sid):
    return {"at_ms": at, "kind": "service_appears",
            "service": {"id": sid, "type": "tB", "qos_ms": 1, "threshold": 1}}


@pytest.mark.parametrize(
    "events, message",
    [
        ([{"at_ms": 1, "kind": "service_disappears", "id": "ZZ"}],
         "events[0]: service 'ZZ' is not live"),
        ([{"at_ms": 1, "kind": "service_disappears", "id": "B1"},
          {"at_ms": 2, "kind": "service_disappears", "id": "B1"}],
         "events[1]: service 'B1' is not live"),
        ([{"at_ms": 1, "kind": "inject_out_contract", "id": "ZZ"}],
         "events[0]: service 'ZZ' is not live"),
        ([{"at_ms": 1, "kind": "service_disappears", "id": "B1"},
          {"at_ms": 2, "kind": "inject_out_contract", "id": "B1"}],
         "events[1]: service 'B1' is not live"),
        ([{"at_ms": 1, "kind": "link_degrades", "from": "ZZ", "to": "B1", "new_ms": 2}],
         "events[0]: service 'ZZ' is not live"),
        ([{"at_ms": 1, "kind": "link_degrades", "from": "A1", "to": "ZZ", "new_ms": 2}],
         "events[0]: service 'ZZ' is not live"),
        ([_appears(1, "B1")], "events[0]: service 'B1' is already live"),
        ([_appears(1, "B2"), _appears(2, "B2")], "events[1]: service 'B2' is already live"),
        # The order check comes first, so its message is unchanged.
        ([{"at_ms": 2, "kind": "service_disappears", "id": "ZZ"},
          {"at_ms": 1, "kind": "service_disappears", "id": "ZZ"}],
         "event at t=1.0 does not follow t=2.0: events must be sorted by time"
         " and come no earlier than the simulator clock"),
    ],
)
def test_events_on_ids_not_live_at_their_time_rejected(events, message):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(_with_events(*events))
    assert str(info.value) == message


def test_events_follow_the_live_set():
    scenario = parse_scenario(
        _with_events(
            {"at_ms": 1, "kind": "service_disappears", "id": "B1"},
            _appears(2, "B1"),
            _appears(3, "B2"),
            {"at_ms": 4, "kind": "link_degrades", "from": "A1", "to": "B2", "new_ms": 2},
            {"at_ms": 5, "kind": "inject_out_contract", "id": "B2"},
            {"at_ms": 6, "kind": "service_disappears", "id": "B2"},
        )
    )
    assert len(scenario.events) == 6


TOO_BIG = 10 ** 400  # an int that json decodes but float() cannot hold


def _appears_with_qos(qos):
    return {"at_ms": 1, "kind": "service_appears",
            "service": {"id": "B2", "type": "tB", "qos_ms": qos, "threshold": 1}}


TOO_LARGE = "integer too large for a float"
NAN = float("nan")  # json.dumps writes it as NaN, which json.loads reads back
INF = float("inf")  # written as Infinity, and -Infinity when negated


def _matrix(ms):
    return {"kind": "matrix", "entries": [["A1", "B1", 1], ["B1", "A1", ms]]}


def _seeded(base_ms, jitter_ms):
    return {"kind": "seeded", "base_ms": base_ms, "jitter_ms": jitter_ms, "seed": 1}


def _degrades(ms):
    return {"at_ms": 1, "kind": "link_degrades", "from": "A1", "to": "B1", "new_ms": ms}


# (change to the document, field named in the error, what is wrong with it)
BAD_NUMBERS = [
    (lambda d: d["services"][1].update(qos_ms=TOO_BIG), "services[1].qos_ms", TOO_LARGE),
    (lambda d: d["events"].append(_appears_with_qos(TOO_BIG)), "events[0].service.qos_ms",
     TOO_LARGE),
    (lambda d: d.update(links={"kind": "uniform", "base_ms": TOO_BIG}), "links.base_ms",
     TOO_LARGE),
    (lambda d: d.update(links=_seeded(TOO_BIG, 1)), "links.base_ms", TOO_LARGE),
    (lambda d: d.update(links=_seeded(1, TOO_BIG)), "links.jitter_ms", TOO_LARGE),
    (lambda d: d.update(links=_matrix(TOO_BIG)), "links.entries[1]", TOO_LARGE),
    (lambda d: d["events"].append(
        {"at_ms": TOO_BIG, "kind": "service_disappears", "id": "B1"}), "events[0].at_ms",
     TOO_LARGE),
    (lambda d: d["events"].append(_degrades(TOO_BIG)), "events[0].new_ms", TOO_LARGE),
    # Negative and NaN link values, each named where it enters.
    (lambda d: d.update(links=_matrix(-1.0)), "links.entries[1]", "must be >= 0, got -1.0"),
    (lambda d: d.update(links=_matrix(NAN)), "links.entries[1]", "must be >= 0, got nan"),
    (lambda d: d.update(links={"kind": "uniform", "base_ms": -1.0}), "links.base_ms",
     "must be >= 0, got -1.0"),
    (lambda d: d.update(links={"kind": "uniform", "base_ms": NAN}), "links.base_ms",
     "must be >= 0, got nan"),
    (lambda d: d.update(links=_seeded(NAN, 1)), "links.base_ms", "must be >= 0, got nan"),
    (lambda d: d.update(links=_seeded(1, -1)), "links.jitter_ms", "must be >= 0, got -1.0"),
    (lambda d: d.update(links=_seeded(1, NAN)), "links.jitter_ms", "must be >= 0, got nan"),
    (lambda d: d["events"].append(_degrades(-1.0)), "events[0].new_ms",
     "must be >= 0, got -1.0"),
    (lambda d: d["events"].append(_degrades(NAN)), "events[0].new_ms", "must be >= 0, got nan"),
    (lambda d: d["events"].append({"at_ms": NAN, "kind": "service_disappears", "id": "B1"}),
     "events[0].at_ms", "expected a number, got nan"),
    # A negative time would come before the simulator clock, which starts at 0.
    (lambda d: d["events"].append({"at_ms": -1.0, "kind": "service_disappears", "id": "B1"}),
     "events[0].at_ms", "must be >= 0, got -1.0"),
    (lambda d: d["events"].extend([_degrades(2.0), _appears_with_qos(1) | {"at_ms": -5}]),
     "events[1].at_ms", "must be >= 0, got -5.0"),
    # ±inf in every numeric field, each named where it enters.
    (lambda d: d["services"][1].update(qos_ms=INF), "services[1].qos_ms",
     "must be finite, got inf"),
    (lambda d: d["services"][1].update(qos_ms=-INF), "services[1].qos_ms",
     "must be finite, got -inf"),
    (lambda d: d["events"].append(_appears_with_qos(INF)), "events[0].service.qos_ms",
     "must be finite, got inf"),
    (lambda d: d.update(links={"kind": "uniform", "base_ms": INF}), "links.base_ms",
     "must be finite, got inf"),
    (lambda d: d.update(links=_seeded(INF, 1)), "links.base_ms", "must be finite, got inf"),
    (lambda d: d.update(links=_seeded(1, INF)), "links.jitter_ms", "must be finite, got inf"),
    (lambda d: d.update(links=_matrix(INF)), "links.entries[1]", "must be finite, got inf"),
    (lambda d: d.update(links=_matrix(-INF)), "links.entries[1]", "must be finite, got -inf"),
    (lambda d: d["events"].append(_degrades(INF)), "events[0].new_ms", "must be finite, got inf"),
    (lambda d: d["events"].append({"at_ms": INF, "kind": "service_disappears", "id": "B1"}),
     "events[0].at_ms", "must be finite, got inf"),
    (lambda d: d["events"].append({"at_ms": -INF, "kind": "service_disappears", "id": "B1"}),
     "events[0].at_ms", "must be finite, got -inf"),
]


def _case_id(field, error):
    return field if error == TOO_LARGE else f"{field}={error.rsplit(' ', 1)[-1]}"


@pytest.mark.parametrize(
    "change, field, error", BAD_NUMBERS, ids=[_case_id(f, e) for _, f, e in BAD_NUMBERS]
)
def test_integer_too_large_for_a_float_names_its_field(change, field, error):
    document = _with_events()
    change(document)
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(json.dumps(document))
    assert str(info.value) == f"{field}: {error}"


# A plain service entry is checked once, where it is parsed, by the rules the
# descriptor applies: each boundary value either way, as JSON text.
@pytest.mark.parametrize(
    "field, value, outcome",
    [
        ("id", "", "service id must be non-empty"),
        ("type", "", "service type must be non-empty"),
        ("threshold", 0, "threshold must be >= 1, got 0"),
        ("threshold", 1, 1),
        ("threshold", 2 ** 63, 2 ** 63),
        ("qos_ms", -5e-324, "qos_nominal must be >= 0, got -5e-324"),
        ("qos_ms", -1, "qos_nominal must be >= 0, got -1.0"),
        ("qos_ms", NAN, "qos_nominal must be >= 0, got nan"),
        ("qos_ms", -0.0, -0.0),
        ("qos_ms", 0, 0.0),
        ("qos_ms", 5e-324, 5e-324),
        ("qos_ms", 1.7976931348623157e308, 1.7976931348623157e308),
        ("qos_ms", 2 ** 1023, float(2 ** 1023)),
    ],
    ids=["empty-id", "empty-type", "threshold-0", "threshold-1", "threshold-2**63",
         "qos--5e-324", "qos--1", "qos-nan", "qos--0.0", "qos-int-0", "qos-5e-324",
         "qos-largest-float", "qos-2**1023"],
)
def test_a_plain_service_entry_is_checked_as_the_descriptor_checks_it(field, value, outcome):
    document = _with_events()
    document["services"][1][field] = value
    if isinstance(outcome, str):
        with pytest.raises(ScenarioFormatError) as info:
            parse_scenario(json.dumps(document))
        assert str(info.value) == f"services[1]: {outcome}"
        return
    parsed = parse_scenario(json.dumps(document)).services[1]
    assert repr(getattr(parsed, "qos_nominal" if field == "qos_ms" else field)) == repr(outcome)
    assert parsed == ServiceDescriptor(*parsed)


def test_integer_with_too_many_digits_rejected():
    # json.loads itself refuses to convert an integer of over 4300 digits.
    text = json.dumps(_with_events()).replace('"qos_ms": 1', '"qos_ms": ' + "9" * 5000, 1)
    with pytest.raises(ScenarioFormatError, match="^not valid JSON: Exceeds the limit"):
        parse_scenario(text)


def test_nesting_too_deep_for_the_decoder_rejected():
    with pytest.raises(ScenarioFormatError, match="^not valid JSON: maximum recursion depth"):
        parse_scenario("[" * 100000)


def test_not_json_rejected():
    with pytest.raises(ScenarioFormatError):
        parse_scenario("{nope")


def _one_service_text(sid='"A1"', qos="1.5", threshold="1", tail=""):
    """A document of one service, its fields given as JSON text."""
    return (
        f'{{"services": [{{"id": {sid}, "type": "tA", "qos_ms": {qos}, "threshold": {threshold}}}],'
        f' "template": {{"body": [["tA", "tB"]], "constraints": [1]}},'
        f' "links": {{"kind": "uniform", "base_ms": 1.0}}{tail}}}'
    )


# Texts that orjson refuses, or whose decode fails a check; each fails as
# json's reading of it does.
@pytest.mark.parametrize(
    "text, error",
    [
        (_one_service_text(qos="NaN"), "services[0]: qos_nominal must be >= 0, got nan"),
        (_one_service_text(qos="Infinity"), "services[0].qos_ms: must be finite, got inf"),
        (_one_service_text(qos="1e400"), "services[0].qos_ms: must be finite, got inf"),
        (_one_service_text(qos="1" + "0" * 400),
         "services[0].qos_ms: integer too large for a float"),
        (_one_service_text(tail=","), "not valid JSON: Expecting property name enclosed in"
         " double quotes: line 1 column 178 (char 177)"),
        # Decoded, this nest is too deep for the error naming it to print it.
        (_one_service_text(qos="[" * 3000 + "]" * 3000), "not valid JSON: maximum recursion"
         " depth exceeded while decoding a JSON array from a unicode string"),
    ],
    ids=["nan", "infinity", "1e400", "int-400-digits", "trailing-comma", "nested-3000"],
)
def test_a_text_orjson_refuses_fails_as_json_reads_it(text, error):
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(text)
    assert str(info.value) == error


_DEEP_SITES = {  # where a decoded document gets the nested value
    "number": lambda document, deep: document["services"][0].update(qos_ms=deep),
    "constraint": lambda document, deep: document["template"]["constraints"].__setitem__(0, deep),
    "links-kind": lambda document, deep: document["links"].update(kind=deep),
    "event-kind": lambda document, deep: document.update(events=[{"at_ms": 1.0, "kind": deep}]),
    "event-id": lambda document, deep: document.update(
        events=[{"at_ms": 1.0, "kind": "service_disappears", "id": deep}]
    ),
}


@pytest.mark.parametrize("site", [*_DEEP_SITES, "event-new-ms"])
def test_a_value_nested_deeper_than_repr_recurses_is_named_by_its_type(site):
    deep = []
    for _ in range(100_000):  # deeper than any interpreter's repr recursion limit
        deep = [deep]
    if site == "event-new-ms":  # a document's new_ms fails as a number first
        with pytest.raises(ValueError, match="got a list nested too deep to show$"):
            ScenarioEvent.link_degrades(1.0, "A1", "B1", deep)
        return
    document = json.loads(serialize_scenario(generate_medical(0)))
    _DEEP_SITES[site](document, deep)
    with pytest.raises(ScenarioFormatError, match="a list nested too deep to show$"):
        parse_scenario(document)


def test_an_int_beyond_64_bits_parses_to_that_int():
    # orjson reads it as the float 1e20, which fails the integer check.
    (service,) = parse_scenario(_one_service_text(threshold="100000000000000000000")).services
    assert type(service.threshold) is int and service.threshold == 10 ** 20


def test_an_id_with_a_lone_surrogate_escape_is_accepted():
    (service,) = parse_scenario(_one_service_text(sid='"A\\ud800"')).services
    assert service.id == "A\ud800"


# ------------------------------------------------------------------- footprint


def _crowded_document() -> dict:
    """2,000 bystanders of one type beside a one-pair template."""
    services = [
        {"id": f"X{i}", "type": "tX", "qos_ms": 1.0 + i / 7, "threshold": 3} for i in range(2000)
    ]
    services += [
        {"id": "A1", "type": "tA", "qos_ms": 1.0, "threshold": 1},
        {"id": "B1", "type": "tB", "qos_ms": 2.0, "threshold": 1},
    ]
    return {
        "services": services,
        "template": {"body": [["tA", "tB"]], "constraints": [1]},
        "links": {"kind": "uniform", "base_ms": 1.0},
    }


def _peak_bytes(call) -> int:
    """The ``tracemalloc`` peak of ``call()``, with the collector off."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_parsing_a_text_document_peaks_at_its_decode():
    # Each decoded entry is released once its descriptor exists, so entries
    # and descriptors never pile up together (about 1.5 times the decode if
    # they did).
    text = json.dumps(_crowded_document())
    assert _peak_bytes(lambda: parse_scenario(text)) <= 1.1 * _peak_bytes(lambda: json.loads(text))


def test_a_decoded_document_is_not_modified():
    document = _crowded_document()
    document["services"].append(OrderedDict(id="C1", type="tC", qos_ms=1.0, threshold=1))
    before = copy.deepcopy(document)
    parsed = parse_scenario(document)
    assert document == before
    assert len(parsed.services) == 2003 and parsed.services[-1] == ("C1", "tC", 1.0, 1)


def test_plain_entries_of_one_type_share_its_name():
    services = parse_scenario(json.dumps(_crowded_document())).services
    bystanders = [s for s in services if s.type == "tX"]
    assert len(bystanders) == 2000
    assert all(s.type is bystanders[0].type for s in bystanders)


# ------------------------------------------------------------------ generators


def _set(document, path, value):
    *keys, last = path
    for key in keys:
        document = document[key]
    document[last] = value


SEEDED = {"kind": "seeded", "base_ms": 1, "jitter_ms": 0, "seed": 7}
MATRIX = {"kind": "matrix", "entries": [["A1", "B1", 1.0], ["A1", "B1", 2.0]]}


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["template"], [["tA", "tB"]], "template: expected an object"),
        (["template", "body"], {"tA": "tB"}, "template.body: expected a list"),
        (["template", "body"], [["tA", "tB", "tC"]], "template.body[0]: expected [from_type, to_type]"),
        (["template", "body"], [["tA", 2]], "template.body[0]: expected [from_type, to_type]"),
        (["template", "constraints"], 1, "template.constraints: expected a list"),
        (["links"], {**SEEDED, "seed": "7"}, "links.seed: expected an integer"),
        (["links"], {**SEEDED, "seed": True}, "links.seed: expected an integer"),
        (["links"], MATRIX, "links.entries[1]: duplicate pair ('A1', 'B1')"),
    ],
    ids=["template-list", "body-object", "pair-of-three", "pair-with-int", "constraints-int",
         "seed-str", "seed-bool", "duplicate-pair"],
)
def test_a_malformed_template_or_link_model_is_named(path, value, message):
    document = _with_events()
    _set(document, path, value)
    with pytest.raises(ScenarioFormatError) as info:
        parse_scenario(json.dumps(document))
    assert str(info.value) == message


def test_a_layer_constraint_spec_resolves_or_is_named():
    assert resolve_layer_constraint(ALL, 4) is ALL
    assert resolve_layer_constraint("All", 4) is ALL
    assert resolve_layer_constraint(3, 2) == 2
    with pytest.raises(ValueError, match=r"^unknown constraint spec 'bogus'$"):
        resolve_layer_constraint("bogus", 4)
    with pytest.raises(ValueError, match=r"^integer constraint must be >= 1$"):
        resolve_layer_constraint(0, 4)


def test_one_layer_small_candidate_count():
    scenario = generate_one_layer(3, 2, seed=1)
    assert len(scenario.services) == 4
    net = build_simulator(scenario)
    result = assemble(scenario.services, scenario.template, net)
    assert len(result.chosen["A1"].edges) == 2
    # choose 2 of 3 -> exactly 3 candidate subgraphs for the single start
    from selfassembly import build_binding_graph, enumerate_candidates, service_map

    net = build_simulator(scenario)
    graph, links = build_binding_graph(scenario.services, scenario.template, net)
    candidates = enumerate_candidates(
        graph, links, scenario.template, "A1", service_map(scenario.services)
    )
    assert len(candidates) == count_combinations(3, 2)


def test_one_layer_half_resolves_to_floor():
    scenario = generate_one_layer(20, "half", seed=1)
    assert scenario.template.constraints == (10,)
    assert count_combinations(20, 10) == 184756


def test_one_layer_all():
    scenario = generate_one_layer(5, "all", seed=1)
    assert scenario.template.constraints == (ALL,)


def test_one_layer_deterministic_bytes():
    first = serialize_scenario(generate_one_layer(50, 2, seed=9))
    second = serialize_scenario(generate_one_layer(50, 2, seed=9))
    third = serialize_scenario(generate_one_layer(50, 2, seed=10))
    assert first == second
    assert first != third


def test_generators_draw_in_a_fixed_order():
    """The generated documents, byte for byte: any change to what the
    generators draw from their seeded generator, or in which order, changes
    this digest."""
    digest = hashlib.sha256()
    for seed in range(4):
        for k in (1, 2, "half", "all"):
            for n in (1, 2, 7):
                digest.update(serialize_scenario(generate_one_layer(n, k, seed)).encode())
            for top in (2, 3, 5):
                digest.update(serialize_scenario(generate_pyramidal(top, k, seed)).encode())
        digest.update(serialize_scenario(generate_medical(seed)).encode())
    assert digest.hexdigest() == (
        "6021b7748a76783c19acff58eba149a575afb57f582a77b52830499bead20893"
    )


def test_pyramidal_service_counts():
    assert len(generate_pyramidal(13, "all", seed=0).services) == 91
    assert len(generate_pyramidal(7, "all", seed=0).services) == 28
    scenario = generate_pyramidal(10, "all", seed=0)
    assert len(scenario.services) == 55
    assert len({s.type for s in scenario.services}) == 10
    assert len(scenario.template.body) == 9


def test_pyramidal_template_chains_layers():
    scenario = generate_pyramidal(4, 1, seed=3)
    assert scenario.template.body == (("t1", "t2"), ("t2", "t3"), ("t3", "t4"))
    assert scenario.template.constraints == (1, 1, 1)
    net = build_simulator(scenario)
    result = assemble(scenario.services, scenario.template, net)
    assert result is not None


def test_medical_layout_shape():
    scenario = generate_medical(seed=5)
    assert len(scenario.services) == 26
    by_type = {}
    for svc in scenario.services:
        by_type.setdefault(svc.type, []).append(svc)
    assert len(by_type["tA"]) == 10
    assert len(by_type["tB"]) == 9
    assert len(by_type["tC"]) == 5
    assert len(by_type["tD"]) == 2
    assert all(svc.threshold == 10 for svc in by_type["tB"])
    assert scenario.template.body == (("tA", "tB"), ("tB", "tC"), ("tB", "tD"))
    assert scenario.template.constraints == (1, 1, 1)


def test_medical_assembles_with_required_structure():
    scenario = generate_medical(seed=5)
    net = build_simulator(scenario)
    result = assemble(scenario.services, scenario.template, net)
    succ = result.assembly.successors()
    svc = {s.id: s for s in scenario.services}
    sensors = [n for n in result.assembly.nodes if svc[n].type == "tA"]
    assert len(sensors) == 10
    for sensor in sensors:
        assert len(succ.get(sensor, [])) == 1
    used_gateways = {succ[s][0] for s in sensors}
    for gateway in used_gateways:
        targets = succ.get(gateway, [])
        assert len([t for t in targets if svc[t].type == "tC"]) == 1
        assert len([t for t in targets if svc[t].type == "tD"]) == 1
