from dataclasses import replace

import pytest

from selfassembly import (
    ApplicationTemplate,
    AssemblyGraph,
    InstanceTooLarge,
    Infeasible,
    InsufficientServices,
    NoStartingService,
    QoSMatrix,
    ServiceDescriptor,
    assemble,
    binomial_table,
    build_simulator,
    check_assembly,
    count_combinations,
    exhaustive_assemblies,
    generate_medical,
    generate_random_instance,
)
from selfassembly.netsim import MatrixLatency
from selfassembly.oracle import exhaustive_worst_path

from conftest import make_net, seven_services, seven_template


def _zero_links(services, template):
    links = QoSMatrix()
    by_type = {}
    for svc in services:
        by_type.setdefault(svc.type, []).append(svc.id)
    for a_type, b_type in template.body:
        for a in by_type.get(a_type, []):
            for b in by_type.get(b_type, []):
                links.set(a, b, 0.0)
    return links


def test_worked_example_has_feasible_assemblies():
    services, template = seven_services(), seven_template()
    report = exhaustive_assemblies(services, template, _zero_links(services, template))
    assert report.feasible
    assert report.count_candidates_per_start == {"A1": 3, "A2": 3, "A3": 3}
    assert report.min_max_time is not None


def test_squeezed_sink_threshold_is_infeasible():
    services = [
        ServiceDescriptor(s.id, s.type, s.qos_nominal, 2 if s.id == "C1" else s.threshold)
        for s in seven_services()
    ]
    template = seven_template()
    report = exhaustive_assemblies(services, template, _zero_links(services, template))
    assert not report.feasible
    assert report.min_max_time is None


def test_single_chain_has_exactly_one_assembly():
    services = [
        ServiceDescriptor("A1", "tA", 1.0, 1),
        ServiceDescriptor("B1", "tB", 2.0, 1),
        ServiceDescriptor("C1", "tC", 3.0, 1),
    ]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    report = exhaustive_assemblies(services, template, _zero_links(services, template))
    assert len(report.feasible_assemblies) == 1
    assembly = report.feasible_assemblies[0]
    assert assembly.edges == {("A1", "B1"), ("B1", "C1")}
    assert report.min_max_time == 6.0


def test_instance_bound():
    services = [ServiceDescriptor(f"S{i}", "tA", 1.0, 1) for i in range(20)]
    template = ApplicationTemplate((("tA", "tB"),), (1,))
    with pytest.raises(InstanceTooLarge):
        exhaustive_assemblies(services, template, QoSMatrix())


def test_min_max_time_matches_hand_count():
    # Two starts, one shared target: both chains are forced, so the
    # minimum worst time is the slower chain.
    services = [
        ServiceDescriptor("A1", "tA", 1.0, 2),
        ServiceDescriptor("A2", "tA", 4.0, 2),
        ServiceDescriptor("B1", "tB", 2.0, 2),
    ]
    template = ApplicationTemplate((("tA", "tB"),), (1,))
    links = QoSMatrix({("A1", "B1"): 1.0, ("A2", "B1"): 1.0})
    report = exhaustive_assemblies(services, template, links)
    assert report.min_max_time == 7.0  # max(1+1+2, 4+1+2)


# ------------------------------------------------------------------- triangle


def test_triangle_row_three():
    assert binomial_table(3)[3] == [1, 3, 3, 1]


def test_triangle_matches_combination_count():
    triangle = binomial_table(24)
    for n in (5, 12, 20, 24):
        for k in range(n + 1):
            assert triangle[n][k] == count_combinations(n, k)


def test_triangle_edges_are_one():
    triangle = binomial_table(30)
    for n, row in enumerate(triangle):
        assert row[0] == 1 and row[n] == 1


def test_triangle_bound():
    with pytest.raises(ValueError):
        binomial_table(61)


# ------------------------------------------------------------------ agreement


def test_agreement_on_seeded_instances():
    feasible = infeasible = 0
    for index in range(50):
        services, template, links = generate_random_instance(9000 + index)
        net = make_net(services, MatrixLatency(dict(links.items())))
        result = None
        try:
            result = assemble(services, template, net)
            ok = True
        except (Infeasible, InsufficientServices, NoStartingService):
            ok = False
        report = exhaustive_assemblies(services, template, links)
        assert ok == report.feasible, f"instance {index} disagrees"
        if ok:
            feasible += 1
            assert result.assembly in report.feasible_assemblies
        else:
            infeasible += 1
    assert feasible and infeasible  # the mix must exercise both outcomes


def test_path_times_agree_on_candidates():
    from selfassembly import build_binding_graph, enumerate_candidates, service_map
    from selfassembly import worst_path_time

    for index in range(20):
        services, template, links = generate_random_instance(7700 + index)
        net = make_net(services, MatrixLatency(dict(links.items())))
        graph, measured = build_binding_graph(services, template, net)
        svc = service_map(services)
        start_type = template.starting_type()
        for start in sorted(s.id for s in services if s.type == start_type):
            try:
                candidates = enumerate_candidates(graph, measured, template, start, svc)
            except InsufficientServices:
                continue
            for candidate in candidates:
                assert candidate.cost == worst_path_time(candidate.graph, start, svc, measured)
                assert candidate.cost == exhaustive_worst_path(
                    candidate.graph, start, svc, measured
                )


# ------------------------------------------------------- the compliance check


def _medical_commit():
    scenario = generate_medical(0)
    result = assemble(scenario.services, scenario.template, build_simulator(scenario))
    return result, scenario.services, scenario.template


def _without(graph, edge):
    return AssemblyGraph(graph.nodes, graph.edges - {edge})


def _broken(result, services, how):
    """``result`` broken one way, the services to check it against, and the
    one violation ``check_assembly`` must report.  Eight starts, A1 among
    them, bind B6; A3 and A8 bind B3 (threshold 10); B3 and B6 each bind C2
    and D2."""
    a1 = result.chosen["A1"]
    load = result.per_service_load
    if how == "start not chosen":
        chosen = {sid: c for sid, c in result.chosen.items() if sid != "A1"}
        broken = replace(
            result, chosen=chosen, assembly=_without(result.assembly, ("A1", "B6")),
            per_service_load={**load, "B6": 7},
        )
        return broken, services, f"served starts {sorted(chosen)} != expected {sorted(result.chosen)}"
    if how == "start not a node":
        # Only a graph built unchecked can hold an edge from a node outside it.
        nodes = result.assembly.nodes - {"A1"}
        broken = replace(result, assembly=AssemblyGraph._unchecked(nodes, result.assembly.edges))
        return broken, services, "starting service 'A1' missing from the assembly"
    if how == "extra pick":
        extra = a1._replace(edges=tuple(sorted(a1.edges + (("B6", "C1"),))))
        assembly = AssemblyGraph.from_edges(result.assembly.edges | {("B6", "C1")})
        broken = replace(
            result, chosen={**result.chosen, "A1": extra}, assembly=assembly,
            per_service_load={**load, "C1": 1},
        )
        return broken, services, "candidate of 'A1': node 'B6' has 2 picks of type 'tC', expected 1"
    if how == "edges not the union":
        broken = replace(
            result, assembly=_without(result.assembly, ("A1", "B6")), per_service_load={**load, "B6": 7}
        )
        return broken, services, "assembly edges are not the union of the chosen candidates"
    if how == "over a threshold":
        squeezed = [s._replace(threshold=1) if s.id == "B3" else s for s in services]
        return result, squeezed, "service 'B3' carries 2 bindings, threshold 1"
    assert how == "wrong recorded load"
    broken = replace(result, per_service_load={**load, "B6": 9})
    return broken, services, "recorded load 9 for 'B6' differs from actual 8"


@pytest.mark.parametrize(
    "how",
    [
        "start not chosen",
        "start not a node",
        "extra pick",
        "edges not the union",
        "over a threshold",
        "wrong recorded load",
    ],
)
def test_check_assembly_reports_each_violation(how):
    result, services, template = _medical_commit()
    assert check_assembly(result, services, template) == []
    broken, checked, violation = _broken(result, services, how)
    assert check_assembly(broken, checked, template) == [violation]
