import json
import math

import pytest

from selfassembly import (
    ApplicationTemplate,
    ContractCause,
    ContractNotification,
    ContractStatus,
    MatrixLatency,
    ScenarioEvent,
    SelfAssemblyError,
    ServiceDescriptor,
    Simulator,
    UniformLatency,
    assemble,
    check_contract,
    generate_medical,
    run_scenario,
    timeline_jsonl,
)
from selfassembly import assembler, runtime

from conftest import WorkLimitReached, make_net


B1 = ServiceDescriptor("B1", "tB", 2.0, 2)


# ----------------------------------------------------------------- contracts


def test_contract_boundary_is_compliant():
    note = check_contract(B1, observed_response_ms=2.0, inflight=2)
    assert note.status is ContractStatus.IN_CONTRACT
    assert note.cause is None


def test_contract_threshold_exceeded_wins_over_timing():
    note = check_contract(B1, observed_response_ms=2.0, inflight=3)
    assert note.status is ContractStatus.OUT_CONTRACT
    assert note.cause is ContractCause.THRESHOLD_EXCEEDED


def test_contract_response_time_exceeded():
    note = check_contract(B1, observed_response_ms=5.0, inflight=1)
    assert note.status is ContractStatus.OUT_CONTRACT
    assert note.cause is ContractCause.RESPONSE_TIME_EXCEEDED


def test_contract_tolerance_scales_the_bound():
    assert check_contract(B1, 2.2, 1, tolerance=0.1).status is ContractStatus.IN_CONTRACT
    assert check_contract(B1, 2.21, 1, tolerance=0.1).status is ContractStatus.OUT_CONTRACT


def test_contract_rejects_negative_inputs():
    with pytest.raises(ValueError):
        check_contract(B1, -1.0, 0)
    with pytest.raises(ValueError):
        check_contract(B1, 1.0, -1)
    # NaN compares false with every bound, so it would always comply.
    with pytest.raises(ValueError, match="^observed_response_ms must be >= 0$"):
        check_contract(B1, float("nan"), 0)
    with pytest.raises(ValueError, match="^tolerance must be >= 0$"):
        check_contract(B1, 7.0, 0, tolerance=float("nan"))
    with pytest.raises(ValueError, match="^tolerance must be >= 0$"):
        check_contract(B1, 1.0, 0, tolerance=-0.5)


def test_notification_invariants():
    with pytest.raises(ValueError):
        ContractNotification("B1", 0.0, ContractStatus.OUT_CONTRACT, None)
    with pytest.raises(ValueError):
        ContractNotification("B1", 0.0, ContractStatus.IN_CONTRACT, ContractCause.INJECTED)


# ------------------------------------------------------------------- loads


def _in_degrees(graph):
    """Distinct inbound edge count per node, zero included."""
    return {node: sum(1 for _, b in graph.edges if b == node) for node in graph.nodes}


def test_inflight_load_matches_commit(example7_net):
    # The load a commit reports is the in-degree of its assembly graph.
    services, template, net = example7_net
    result = assemble(services, template, net)
    assert _in_degrees(result.assembly) == result.per_service_load


def test_inflight_load_single_chain():
    services = [
        ServiceDescriptor("A", "tA", 1.0, 1),
        ServiceDescriptor("B", "tB", 1.0, 1),
        ServiceDescriptor("C", "tC", 1.0, 1),
    ]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    result = assemble(services, template, make_net(services))
    assert _in_degrees(result.assembly) == {"A": 0, "B": 1, "C": 1}
    assert result.per_service_load == {"A": 0, "B": 1, "C": 1}


# ------------------------------------------------------------------ scenarios


def test_stable_without_events(example7):
    services, template = example7
    timeline = run_scenario(services, template, [], Simulator(UniformLatency(0.0)))
    assert len(timeline) == 1
    assert timeline[0].trigger == "initial"
    assert timeline[0].feasible


def test_self_healing_cycle(example7):
    # Removing the used B3 leaves five binding slots for six required
    # picks (2+3 < 3*2): infeasible until a fourth B appears.
    services, template = example7
    b4 = ServiceDescriptor("B4", "tB", 1.0, 3)
    events = [
        ScenarioEvent.disappears(100.0, "B3"),
        ScenarioEvent.appears(200.0, b4),
    ]
    timeline = run_scenario(services, template, events, Simulator(UniformLatency(0.0)))
    assert [entry.trigger for entry in timeline] == [
        "initial",
        "service_disappears:B3",
        "service_appears:B4",
    ]
    assert timeline[0].feasible
    assert not timeline[1].feasible
    assert timeline[2].feasible
    assert "B3" not in timeline[2].result.assembly.nodes
    assert [entry.at for entry in timeline] == [0.0, 100.0, 200.0]


def test_a_rerun_that_raises_any_no_assembly_is_recorded_and_the_loop_goes_on(example7, monkeypatch):
    services, template = example7
    calls = []

    def attempt(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise WorkLimitReached("work limit of 5 steps reached")
        return assemble(*args, **kwargs)

    monkeypatch.setattr(runtime, "assemble", attempt)
    events = [
        ScenarioEvent.appears(10.0, ServiceDescriptor("B4", "tB", 0.5, 3)),
        ScenarioEvent.appears(20.0, ServiceDescriptor("B5", "tB", 0.5, 3)),
    ]
    net = Simulator(UniformLatency(0.0))
    timeline = run_scenario(services, template, events, net)
    assert [entry.feasible for entry in timeline] == [True, False, True]
    assert (timeline[1].reason, timeline[1].combinations_tested) == ("work limit of 5 steps reached", 0)
    reruns = [rec["detail"]["feasible"] for rec in net.trace_records() if rec["kind"] == "reassembly"]
    assert reruns == [True, False, True]

    def fault(*args, **kwargs):
        raise SelfAssemblyError("not a verdict")

    monkeypatch.setattr(runtime, "assemble", fault)
    with pytest.raises(SelfAssemblyError, match="^not a verdict$"):
        run_scenario(services, template, [], Simulator(UniformLatency(0.0)))


def test_unused_service_disappearance_triggers_nothing(example7):
    # With relaxed thresholds the first combination wins and B3 is unused.
    services, template = example7
    relaxed = [ServiceDescriptor(s.id, s.type, s.qos_nominal, 10) for s in services]
    events = [ScenarioEvent.disappears(50.0, "B3")]
    timeline = run_scenario(relaxed, template, events, Simulator(UniformLatency(0.0)))
    assert len(timeline) == 1
    assert "B3" not in timeline[0].result.assembly.nodes


def test_appearance_always_triggers(example7):
    services, template = example7
    b4 = ServiceDescriptor("B4", "tB", 0.5, 3)
    events = [ScenarioEvent.appears(10.0, b4)]
    timeline = run_scenario(services, template, events, Simulator(UniformLatency(0.0)))
    assert len(timeline) == 2
    assert timeline[1].trigger == "service_appears:B4"


def test_out_contract_on_unused_service_is_ignored(example7):
    services, template = example7
    relaxed = [ServiceDescriptor(s.id, s.type, s.qos_nominal, 10) for s in services]
    events = [ScenarioEvent.inject_out_contract(30.0, "B3")]
    net = Simulator(UniformLatency(0.0))
    timeline = run_scenario(relaxed, template, events, net)
    assert len(timeline) == 1
    flagged = [rec for rec in net.trace_records() if rec["kind"] == "out_contract"]
    assert len(flagged) == 1
    assert flagged[0]["detail"]["cause"] == "Injected"


def test_out_contract_on_used_service_excludes_it_once(example7):
    services, template = example7
    relaxed = [ServiceDescriptor(s.id, s.type, s.qos_nominal, 10) for s in services]
    net = Simulator(UniformLatency(0.0))
    first = assemble(relaxed, template, make_net(relaxed))
    used_b = sorted(n for n in first.assembly.nodes if n.startswith("B"))[0]
    events = [ScenarioEvent.inject_out_contract(30.0, used_b)]
    timeline = run_scenario(relaxed, template, events, net)
    assert len(timeline) == 2
    assert timeline[1].trigger == f"out_contract:{used_b}"
    assert used_b not in timeline[1].result.assembly.nodes


def test_link_degrade_triggers_only_when_used(example7):
    services, template = example7
    relaxed = [ServiceDescriptor(s.id, s.type, s.qos_nominal, 10) for s in services]
    first = assemble(relaxed, template, make_net(relaxed))
    used_edge = sorted(first.assembly.edges)[0]
    unused_edge = ("A1", "B3") if ("A1", "B3") not in first.assembly.edges else ("A1", "B2")
    events = [
        ScenarioEvent.link_degrades(10.0, *unused_edge, 50.0),
        ScenarioEvent.link_degrades(20.0, *used_edge, 99.0),
    ]
    timeline = run_scenario(relaxed, template, events, Simulator(UniformLatency(0.0)))
    assert len(timeline) == 2
    assert timeline[1].trigger == f"link_degrades:{used_edge[0]}->{used_edge[1]}"


def test_events_must_be_sorted(example7):
    services, template = example7
    events = [
        ScenarioEvent.disappears(100.0, "B3"),
        ScenarioEvent.disappears(50.0, "B2"),
    ]
    with pytest.raises(ValueError):
        run_scenario(services, template, events, Simulator(UniformLatency(0.0)))


@pytest.mark.parametrize(
    "clock, at",
    [(0.0, -1.0), (0.0, float("nan")), (20.0, 10.0)],
    ids=["negative", "nan", "before-an-advanced-clock"],
)
def test_an_event_before_the_clock_is_rejected_before_any_record(example7, clock, at):
    services, template = example7
    net = Simulator(UniformLatency(0.0))
    net.advance(clock)
    events = [ScenarioEvent.disappears(at, "B3")]
    with pytest.raises(ValueError, match=f"^event at t={at} does not follow t={clock}: "):
        run_scenario(services, template, events, net)
    assert net.trace_records() == []
    assert net.clock == clock


def test_duplicate_initial_ids_are_rejected_before_any_record(example7):
    services, template = example7
    net = Simulator(UniformLatency(0.0))
    twice = services + [ServiceDescriptor("B2", "tB", 9.0, 1)]
    with pytest.raises(ValueError, match="^duplicate service id 'B2'$"):
        run_scenario(twice, template, [], net)
    assert net.trace_records() == []


@pytest.mark.parametrize(
    "second, message",
    [
        (ScenarioEvent.disappears(2.0, "ZZ"), "events[1]: service 'ZZ' is not live"),
        (ScenarioEvent.disappears(2.0, "B3"), "events[1]: service 'B3' is not live"),
        (ScenarioEvent.inject_out_contract(2.0, "ZZ"), "events[1]: service 'ZZ' is not live"),
        (ScenarioEvent.appears(2.0, ServiceDescriptor("B2", "tB", 1.0, 1)),
         "events[1]: service 'B2' is already live"),
        (ScenarioEvent.link_degrades(2.0, "A1", "B3", 9.0), "events[1]: service 'B3' is not live"),
        (ScenarioEvent.link_degrades(2.0, "ZZ", "B1", 9.0), "events[1]: service 'ZZ' is not live"),
    ],
    ids=["unknown", "withdrawn", "inject-unknown", "re-announced", "link-to-withdrawn",
         "link-from-unknown"],
)
def test_an_event_on_an_id_not_live_is_rejected_before_any_record(example7, second, message):
    services, template = example7
    events = [ScenarioEvent.disappears(1.0, "B3"), second]
    for net in (Simulator(UniformLatency(0.0)), make_net(services)):
        announced = net.trace_records()
        with pytest.raises(ValueError) as info:
            run_scenario(services, template, events, net)
        assert str(info.value) == message
        assert net.trace_records() == announced
        assert net.clock == 0.0
        assert ("B3" in net.live_ids()) == bool(announced)  # announced before the call, not withdrawn


def test_events_are_checked_against_the_ids_net_already_holds(example7):
    services, template = example7
    extra = ServiceDescriptor("X1", "tB", 1.0, 1)
    net = make_net(services + [extra])  # X1 is live on net, not an initial service
    announced = net.trace_records()
    events = [ScenarioEvent.disappears(1.0, "B3"), ScenarioEvent.appears(2.0, extra)]
    with pytest.raises(ValueError) as info:
        run_scenario(services, template, events, net)
    assert str(info.value) == "events[1]: service 'X1' is already live"
    assert (net.clock, "B3" in net.live_ids(), net.trace_records()) == (0.0, True, announced)

    timeline = run_scenario(services, template, [ScenarioEvent.disappears(1.0, "X1")], net)
    assert [entry.trigger for entry in timeline] == ["initial"]
    assert "X1" not in net.live_ids()


# ------------------------------------------------------------ reuse on churn


def _plateaus_listed(monkeypatch):
    """A list that gets, per ``runtime.assemble`` call, the number of
    plateaus listed from its start until the next call."""
    listings = []
    real_candidates, real_assemble = assembler._candidates, runtime.assemble

    def candidates(attempt, start_id, cutoff=None):
        listings[-1] += cutoff is not None
        return real_candidates(attempt, start_id, cutoff)

    def attempt(*args, **options):
        listings.append(0)
        return real_assemble(*args, **options)

    monkeypatch.setattr(assembler, "_candidates", candidates)
    monkeypatch.setattr(runtime, "assemble", attempt)
    return listings


def test_a_rerun_lists_only_the_plateaus_the_event_reached(monkeypatch):
    """A re-run lists the least-cost plateau of each start whose reachable
    subgraph changed since the attempt before, and of no other."""
    scenario = generate_medical(0)
    services, template = scenario.services, scenario.template
    first = assemble(services, template, make_net(services, UniformLatency(1.0)))
    gateway = next(b for a, b in first.chosen["A1"].edges if a == "A1")
    events = [
        ScenarioEvent.appears(10.0, ServiceDescriptor("X1", "tX", 1.0, 1)),
        ScenarioEvent.disappears(20.0, "A2"),
        ScenarioEvent.link_degrades(30.0, "A1", gateway, 50.0),
        ScenarioEvent.appears(40.0, ServiceDescriptor("B10", "tB", 1.0, 10)),
    ]
    listings = _plateaus_listed(monkeypatch)
    timeline = run_scenario(services, template, events, Simulator(UniformLatency(1.0)))
    assert [entry.trigger for entry in timeline] == [
        "initial", "service_appears:X1", "service_disappears:A2",
        f"link_degrades:A1->{gateway}", "service_appears:B10",
    ]
    assert all(entry.feasible for entry in timeline)
    assert listings == [10, 0, 0, 1, 9]


def test_a_link_degraded_to_negative_zero_is_priced_again():
    """``-0.0 == 0.0``, yet after the degradation the start's cost is
    ``-0.0 + (-0.0 + -0.0)``, as a fresh ``assemble`` prices it."""
    services = [ServiceDescriptor("A1", "tA", -0.0, 1), ServiceDescriptor("B1", "tB", -0.0, 1)]
    template = ApplicationTemplate((("tA", "tB"),), (1,))
    net = Simulator(UniformLatency(0.0))
    events = [ScenarioEvent.link_degrades(1.0, "A1", "B1", -0.0)]
    timeline = run_scenario(services, template, events, net)

    def costs(result):
        return {sid: candidate.cost.hex() for sid, candidate in result.chosen.items()}

    assert [entry.trigger for entry in timeline] == ["initial", "link_degrades:A1->B1"]
    assert costs(timeline[0].result) == {"A1": (0.0).hex()}
    fresh = assemble(services, template, net)
    assert costs(timeline[1].result) == costs(fresh) == {"A1": (-0.0).hex()}


def test_a_zero_link_reprices_only_the_starts_that_reach_it(monkeypatch):
    """A1 reaches C1 over the zero link B1->C1, A2 only over B2 and a link
    of 1.0.  After A1's own link degrades, A1 is priced again and A2 keeps
    its pool; each result is what a fresh ``assemble`` gives, bit for bit."""
    services = [
        ServiceDescriptor(sid, f"t{sid[0]}", 1.0, 2) for sid in ("A1", "A2", "B1", "B2", "C1")
    ]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    table = {("A1", "B1"): 1.0, ("A2", "B2"): 1.0, ("B1", "C1"): 0.0, ("B2", "C1"): 1.0}
    events = [ScenarioEvent.link_degrades(1.0, "A1", "B1", 2.0)]
    net = Simulator(MatrixLatency(table))
    listings = _plateaus_listed(monkeypatch)
    timeline = run_scenario(services, template, events, net)
    assert [entry.trigger for entry in timeline] == ["initial", "link_degrades:A1->B1"]
    assert listings == [2, 1]
    monkeypatch.undo()

    def chosen(result):
        return {sid: (c.edges, c.rank, c.cost.hex()) for sid, c in result.chosen.items()}

    before = assemble(services, template, make_net(services, MatrixLatency(table)))
    assert [chosen(entry.result) for entry in timeline] == [
        chosen(before), chosen(assemble(services, template, net))
    ]


def test_timeline_log_shape(example7):
    services, template = example7
    events = [ScenarioEvent.disappears(100.0, "B3")]
    timeline = run_scenario(services, template, events, Simulator(UniformLatency(0.0)))
    lines = timeline_jsonl(timeline).strip().split("\n")
    assert len(lines) == len(timeline)
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "t",
            "trigger",
            "feasible",
            "n_nodes",
            "n_edges",
            "combinations_tested",
        }


def test_event_factory_validation():
    builders = [
        lambda sid: ScenarioEvent.disappears(0.0, sid),
        lambda sid: ScenarioEvent.inject_out_contract(0.0, sid),
        lambda sid: ScenarioEvent.link_degrades(0.0, sid, "B1", 1.0),
        lambda sid: ScenarioEvent.link_degrades(0.0, "A1", sid, 1.0),
    ]
    for build in builders:
        for sid in (5, None, ""):
            with pytest.raises(ValueError, match="needs non-empty string ids"):
                build(sid)
    for service in (tuple(B1), None):  # a plain 4-tuple is not a descriptor
        with pytest.raises(ValueError, match="needs a ServiceDescriptor"):
            ScenarioEvent.appears(0.0, service)
    for new_ms in (math.nan, -1.0, True, None, "1.0"):
        with pytest.raises(ValueError, match="new_ms >= 0"):
            ScenarioEvent.link_degrades(0.0, "A1", "B1", new_ms)
    huge = 10**400  # an int that float() cannot hold
    for build in (
        lambda: ScenarioEvent.appears(huge, B1),
        lambda: ScenarioEvent.disappears(huge, "B1"),
        lambda: ScenarioEvent.inject_out_contract(huge, "B1"),
        lambda: ScenarioEvent.link_degrades(huge, "A1", "B1", 1.0),
        lambda: ScenarioEvent.link_degrades(0.0, "A1", "B1", huge),
    ):
        with pytest.raises(ValueError, match="numbers a float can hold"):
            build()


def test_a_nan_degradation_fails_before_the_replay_writes_anything(example7):
    # Built unchecked, this event let the replay write four trace records and
    # move the clock to 5.0 before degrade_link rejected the NaN.
    services, template = example7
    net = Simulator(UniformLatency(0.0))
    with pytest.raises(ValueError, match="new_ms >= 0"):
        run_scenario(services, template, [ScenarioEvent.link_degrades(5.0, "A1", "B1", math.nan)], net)
    assert (net.trace_records(), net.clock) == ([], 0.0)


def test_int_times_and_latencies_replay_as_their_floats(example7):
    services, template = example7
    relaxed = [ServiceDescriptor(s.id, s.type, s.qos_nominal, 10) for s in services]
    used = sorted(assemble(relaxed, template, make_net(relaxed)).assembly.edges)[0]

    def replay(number):
        events = [
            ScenarioEvent.link_degrades(number(10), *used, number(99)),
            ScenarioEvent.appears(number(20), ServiceDescriptor("B4", "tB", 0.5, 3)),
            ScenarioEvent.inject_out_contract(number(30), used[1]),
            ScenarioEvent.disappears(number(40), "B4"),
        ]
        net = Simulator(UniformLatency(0.0))
        timeline = run_scenario(relaxed, template, events, net)
        return [entry.trigger for entry in timeline], timeline_jsonl(timeline), net.trace_jsonl()

    triggers, timeline, trace = replay(int)
    assert triggers[:3] == [
        "initial", f"link_degrades:{used[0]}->{used[1]}", "service_appears:B4"
    ]
    assert (triggers, timeline, trace) == replay(float)
