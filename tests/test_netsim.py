import json
import random

import pytest

from selfassembly import (
    DuplicateId,
    LatencyUndefined,
    MatrixLatency,
    PeerUnknown,
    SeededLatency,
    ServiceDescriptor,
    Simulator,
    UniformLatency,
)

from conftest import make_net, seven_services


def test_announce_then_query_lists_the_record():
    net = Simulator()
    net.announce(ServiceDescriptor("A1", "tA", 1.0, 1))
    net.announce(ServiceDescriptor("B1", "tB", 1.0, 1))
    assert net.visible_peers("B1") == {"A1"}


def test_withdraw_removes_from_every_view():
    net = make_net(seven_services())
    net.withdraw("B3")
    everyone = {s.id for s in seven_services()} - {"B3"}
    for observer in ("A1", "B1", "C1"):
        assert net.visible_peers(observer) == everyone - {observer}
    assert "B3" not in net.live_ids()


def test_duplicate_announce_rejected():
    net = Simulator()
    net.announce(ServiceDescriptor("A1", "tA", 1.0, 1))
    with pytest.raises(DuplicateId):
        net.announce(ServiceDescriptor("A1", "tA", 2.0, 1))


def test_one_announce_of_a_batch_equals_single_announces():
    services = seven_services()
    batched, single = Simulator(), Simulator()
    batched.announce(*services[:4])
    batched.advance(2.5)
    batched.announce(*services[4:])
    for service in services[:4]:
        single.announce(service)
    single.advance(2.5)
    for service in services[4:]:
        single.announce(service)
    assert set(batched.live_ids()) == set(single.live_ids()) == {s.id for s in services}
    assert batched.trace_jsonl() == single.trace_jsonl()
    assert [r["from"] for r in batched.trace_records()] == [s.id for s in services]


def _first_single_failure(net_factory, batch):
    net = net_factory()
    for service in batch:
        try:
            net.announce(service)
        except DuplicateId as exc:
            return str(exc)
    return None


@pytest.mark.parametrize(
    "ids, first",
    [
        (["N1", "N2", "N1"], "N1"),  # repeated within the batch
        (["N1", "A1", "N2"], "A1"),  # already in the registry
        (["N1", "N2", "N2", "A1"], "N2"),  # a batch repeat before a registry one
        (["N1", "A1", "N1"], "A1"),  # a registry repeat before a batch one
    ],
)
def test_a_batch_with_a_repeated_id_changes_nothing(ids, first):
    batch = [ServiceDescriptor(sid, "tB", 1.0, 1) for sid in ids]

    def registry():
        return make_net(seven_services())

    net = registry()
    before = (set(net.live_ids()), net.trace_jsonl())
    with pytest.raises(DuplicateId) as info:
        net.announce(*batch)
    assert str(info.value) == f"service {first!r} is already announced"
    assert str(info.value) == _first_single_failure(registry, batch)
    assert (set(net.live_ids()), net.trace_jsonl()) == before


def test_announce_with_no_services_does_nothing():
    net = make_net(seven_services())
    before = (set(net.live_ids()), net.trace_jsonl())
    net.announce()
    assert (set(net.live_ids()), net.trace_jsonl()) == before


def test_withdraw_unknown_peer():
    with pytest.raises(PeerUnknown):
        Simulator().withdraw("ghost")


# ---------------------------------------------------------------- measurement


def test_measure_uniform_is_exact():
    net = make_net(seven_services(), UniformLatency(5.0))
    assert net.measure_link("A1", "B1") == 5.0


def test_measure_matrix_is_a_table_lookup():
    net = make_net(seven_services(), MatrixLatency({("B1", "A1"): 3.0}))
    assert net.measure_link("B1", "A1") == 3.0
    with pytest.raises(LatencyUndefined):
        net.measure_link("A1", "B1")
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            MatrixLatency({("B1", "A1"): bad})


def test_measure_links_skips_a_link_the_model_cannot_price():
    net = make_net(seven_services(), MatrixLatency({("A1", "B1"): 3.0, ("A1", "B3"): 1.0}))
    net.degrade_link("A1", "B2", 2.0)  # an override prices a hole
    before = len(net.trace_records())
    assert net.measure_links("A1", ["B1", "C1", "B2", "B3"]) == [
        (("A1", "B1"), 3.0), (("A1", "B2"), 2.0), (("A1", "B3"), 1.0)
    ]
    assert [(r["kind"], r["from"], r["to"]) for r in net.trace_records()[before:]] == [
        ("measure", "A1", "B1"), ("unmeasurable", "A1", "C1"),
        ("measure", "A1", "B2"), ("measure", "A1", "B3"),
    ]
    with pytest.raises(LatencyUndefined):
        net.measure_link("A1", "C1")


class _NegativeLatency:
    """A duck-typed latency model whose every time is the int -1."""

    def sample(self, from_id, to_id):
        return -1


def test_measure_link_converts_and_checks_a_time_as_measure_links_does():
    """Both calls trace the model's value, then return it as a float or
    raise at a time below zero."""
    for measure in (
        lambda net: net.measure_link("A1", "B1"),
        lambda net: net.measure_links("A1", ["B1"])[0][1],
    ):
        net = make_net(seven_services(), _NegativeLatency())
        with pytest.raises(ValueError, match=r"^link time must be >= 0, got -1\.0$"):
            measure(net)
        (record,) = [r for r in net.trace_records() if r["kind"] == "measure"]
        assert (record["to"], record["detail"]["link_ms"], record["detail"]["t_received"]) == (
            "B1", -1, -1.0
        )

        net = make_net(seven_services(), UniformLatency(1))
        ms = measure(net)
        assert type(ms) is float and ms == 1.0
        (record,) = [r for r in net.trace_records() if r["kind"] == "measure"]
        assert type(record["detail"]["link_ms"]) is int and record["detail"]["link_ms"] == 1


def test_measure_seeded_reproducible_across_fresh_simulators():
    def run():
        net = make_net(seven_services(), SeededLatency(5.0, 2.0, seed=42))
        return [net.measure_link("A1", "B1") for _ in range(5)]

    first, second = run(), run()
    assert first == second
    assert all(abs(value - 5.0) <= 2.0 for value in first)


def test_measure_requires_live_peers():
    net = make_net(seven_services())
    net.withdraw("B1")
    with pytest.raises(PeerUnknown):
        net.measure_link("A1", "B1")


def test_link_degrade_overrides_the_model():
    net = make_net(seven_services(), UniformLatency(1.0))
    net.degrade_link("A1", "B1", 9.0)
    assert net.measure_link("A1", "B1") == 9.0
    assert net.measure_link("A1", "B2") == 1.0


def test_latency_parameters_reject_negative_and_nan():
    net = make_net(seven_services())
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="^base_ms must be >= 0$"):
            UniformLatency(bad)
        with pytest.raises(ValueError, match="^base_ms must be >= 0$"):
            SeededLatency(bad, 1.0, seed=0)
        with pytest.raises(ValueError, match="^jitter_ms must be >= 0$"):
            SeededLatency(1.0, bad, seed=0)
        with pytest.raises(ValueError, match="^link latency must be >= 0$"):
            net.degrade_link("A1", "B1", bad)
    assert net.trace_records()[-1]["kind"] == "announce"  # nothing was overridden


def test_seeded_latency_is_a_value_of_its_parameters():
    model = SeededLatency(2, 1, seed=7)
    assert repr(model) == "SeededLatency(base_ms=2.0, jitter_ms=1.0, seed=7)"
    rng = random.Random(7)
    expected = [max(0.0, 2.0 + rng.uniform(-1.0, 1.0)) for _ in range(5)]
    assert [model.sample("A1", "B1") for _ in range(5)] == expected
    # Equality ignores how far the generator has run; the model is mutable state.
    assert model == SeededLatency(2.0, 1.0, seed=7)
    assert model != SeededLatency(2.0, 1.0, seed=8)
    with pytest.raises(TypeError):
        hash(model)


# -------------------------------------------------------------------- advance


def test_advance_with_no_pending_messages():
    net = make_net(seven_services())
    net.advance(10.0)
    assert net.clock == 10.0


def test_advance_clock_is_monotonic():
    net = make_net(seven_services())
    net.advance(5.0)
    with pytest.raises(ValueError):
        net.advance(4.0)
    # A NaN clock would stamp every later trace record NaN.
    with pytest.raises(ValueError, match="^cannot advance clock from 5.0 to nan$"):
        net.advance(float("nan"))
    assert net.clock == 5.0
    assert net.visible_peers("A1") == {"A2", "A3", "B1", "B2", "B3", "C1"}


# ------------------------------------------------------------------ discovery


def test_surrounding_excludes_observer():
    net = make_net(seven_services())
    assert net.visible_peers("A1") == {"A2", "A3", "B1", "B2", "B3", "C1"}


def test_surrounding_after_withdraw():
    net = make_net(seven_services())
    net.withdraw("B3")
    assert net.visible_peers("A1") == {"A2", "A3", "B1", "B2", "C1"}


def test_surrounding_unknown_observer():
    with pytest.raises(PeerUnknown):
        Simulator().visible_peers("ghost")


def test_a_peer_is_visible_from_its_announce():
    net = Simulator()
    net.announce(ServiceDescriptor("A1", "tA", 1.0, 1))
    net.advance(10.0)
    assert net.visible_peers("A1") == set()
    assert net.measure_links("A1", ["B1"]) == []
    net.announce(ServiceDescriptor("B1", "tB", 1.0, 1))
    assert net.visible_peers("A1") == {"B1"}
    assert net.visible_peers("B1") == {"A1"}
    assert net.measure_links("A1", ["B1"]) == [(("A1", "B1"), 0.0)]
    assert [(rec["t"], rec["kind"]) for rec in net.trace_records()] == [
        (0.0, "announce"), (10.0, "announce"), (10.0, "measure")
    ]


def test_can_see_withdrawn_and_unknown_targets():
    net = make_net(seven_services())
    net.withdraw("B3")
    assert "B3" not in net.visible_peers("A1")
    assert net.measure_links("A1", ["B3", "ghost", "B1"]) == [(("A1", "B1"), 0.0)]


def test_every_trace_record_is_stamped_with_the_clock():
    net = Simulator(UniformLatency(1.0))
    net.announce(ServiceDescriptor("A1", "tA", 1.0, 1))
    net.advance(2.5)
    net.announce(ServiceDescriptor("B1", "tB", 1.0, 1))
    net.measure_link("A1", "B1")
    net.advance(4.0)
    net.degrade_link("A1", "B1", 3.0)
    net.measure_links("A1", ["B1"])
    net.log_event("note", t=-1.0)  # a detail named t is only a detail
    net.advance(7.0)
    net.withdraw("B1")
    records = net.trace_records()
    assert [(rec["t"], rec["kind"]) for rec in records] == [
        (0.0, "announce"),
        (2.5, "announce"),
        (2.5, "measure"),
        (4.0, "link_degrade"),
        (4.0, "measure"),
        (4.0, "note"),
        (7.0, "withdraw"),
    ]
    assert records[5]["detail"] == {"t": -1.0}


def test_an_announce_batch_reads_as_one_record_per_service_at_its_clock():
    net = Simulator(UniformLatency(1.0))
    net.announce(ServiceDescriptor("A1", "tA", 1.0, 1), ServiceDescriptor("B1", "tB", 2.0, 1))
    net.advance(1.0)
    net.measure_link("A1", "B1")
    net.advance(2.0)
    batch = [ServiceDescriptor("B2", "tB", 3.0, 2), ServiceDescriptor("C1", "tC", 4.0, 1),
             ServiceDescriptor("C0", "tC", 5.0, 3)]
    net.announce(*batch)
    before = net.trace_records()
    net.advance(2.5)
    net.announce()
    assert net.trace_records() == before
    net.advance(3.0)
    net.withdraw("B2")
    records = net.trace_records()
    assert [(rec["t"], rec["kind"], rec["from"]) for rec in records] == [
        (0.0, "announce", "A1"),
        (0.0, "announce", "B1"),
        (1.0, "measure", "A1"),
        (2.0, "announce", "B2"),
        (2.0, "announce", "C1"),
        (2.0, "announce", "C0"),
        (3.0, "withdraw", "B2"),
    ]
    assert [rec["detail"] for rec in records[3:6]] == [
        {"type": s.type, "qos_ms": s.qos_nominal, "threshold": s.threshold} for s in batch
    ]


# ---------------------------------------------------------------------- trace


def test_trace_is_deterministic():
    def run() -> str:
        net = Simulator(SeededLatency(2.0, 1.0, seed=7))
        for service in seven_services():
            net.announce(service)
        net.measure_link("A1", "B1")
        net.advance(20.0)
        net.announce(ServiceDescriptor("B4", "tB", 0.1, 2))
        net.measure_link("A2", "B4")
        net.advance(25.0)
        net.measure_link("A2", "B2")
        net.withdraw("B3")
        return net.trace_jsonl()

    first = run()
    assert first == run()
    assert [json.loads(line)["kind"] for line in first.splitlines()] == (
        ["announce"] * 7 + ["measure", "announce", "measure", "measure", "withdraw"]
    )


def test_trace_records_shape():
    net = make_net(seven_services())
    net.measure_link("A1", "B1")
    for record in net.trace_records():
        assert set(record) == {"t", "kind", "from", "to", "detail"}


def test_an_untraced_simulator_measures_alike_and_keeps_no_trace():
    def run(trace):
        net = Simulator(SeededLatency(2.0, 1.0, seed=7), trace=trace)
        net.announce(*seven_services())
        net.advance(1.5)
        measured = [net.measure_link("A1", "B1"), net.measure_links("A2", ["B1", "B2", "C1"])]
        net.degrade_link("A1", "B1", 9.0)
        measured += [net.measure_link("A1", "B1"), net.measure_links("A1", ["B1", "B3"])]
        net.withdraw("B3")
        net.log_event("note", "A1", None, why="test")
        return measured, net

    traced, untraced = run(True), run(False)
    assert untraced[0] == traced[0]
    kinds = [rec["kind"] for rec in traced[1].trace_records()]
    assert kinds == (
        ["announce"] * 7 + ["measure"] * 4 + ["link_degrade"] + ["measure"] * 3 + ["withdraw", "note"]
    )
    assert untraced[1].trace_records() == []
    assert untraced[1].trace_jsonl() == ""
