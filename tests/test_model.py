import copy
import pickle
from dataclasses import dataclass

import pytest

from selfassembly import (
    ALL,
    ApplicationTemplate,
    AssemblyGraph,
    DisconnectedNode,
    MissingLinkQoS,
    QoSMatrix,
    Role,
    ServiceDescriptor,
    UnknownServiceType,
    assemble,
    build_binding_graph,
    classify_roles,
    enumerate_candidates,
    service_map,
    validate_template,
    worst_path_time,
)
from selfassembly.oracle import exhaustive_worst_path

from conftest import make_net, seven_services, seven_template, signed_zero_ties


# ----------------------------------------------------------------- descriptors


def test_descriptor_validation():
    with pytest.raises(ValueError):
        ServiceDescriptor("", "tA", 1.0, 1)
    with pytest.raises(ValueError):
        ServiceDescriptor("A1", "", 1.0, 1)
    for qos in (-0.5, float("nan")):
        with pytest.raises(ValueError):
            ServiceDescriptor("A1", "tA", qos, 1)
    with pytest.raises(ValueError):
        ServiceDescriptor("A1", "tA", 1.0, 0)


@dataclass(frozen=True, slots=True)
class _DataclassDescriptor:
    """The descriptor as a frozen dataclass, as it was before it became a
    named tuple: the reference for ``repr`` and ``hash``."""

    id: str
    type: str
    qos_nominal: float
    threshold: int


DESCRIPTOR_FIELDS = [("A1", "tA", 1.0, 1), ("gw-7", "tB", 0.1, 10), ("x", "y", 0, 3)]


@pytest.mark.parametrize("fields", DESCRIPTOR_FIELDS)
def test_descriptor_repr_and_hash_match_the_dataclass(fields):
    svc = ServiceDescriptor(*fields)
    old = _DataclassDescriptor(*fields)
    assert repr(svc) == repr(old).replace("_DataclassDescriptor", "ServiceDescriptor")
    assert hash(svc) == hash(old) == hash(fields)
    assert (svc.id, svc.type, svc.qos_nominal, svc.threshold) == fields
    assert ServiceDescriptor(
        id=fields[0], type=fields[1], qos_nominal=fields[2], threshold=fields[3]
    ) == svc


@pytest.mark.parametrize("fields", DESCRIPTOR_FIELDS)
def test_descriptor_survives_pickle_and_copy(fields):
    svc = ServiceDescriptor(*fields)
    for twin in (pickle.loads(pickle.dumps(svc)), copy.copy(svc), copy.deepcopy(svc)):
        assert type(twin) is ServiceDescriptor
        assert twin == svc and repr(twin) == repr(svc)


def test_service_map_names_the_first_repeated_id_of_a_generator():
    twice = [ServiceDescriptor("B2", "tB", 9.0, 1), ServiceDescriptor("A1", "tA", 1.0, 1)]
    assert list(service_map(s for s in seven_services())) == [s.id for s in seven_services()]
    with pytest.raises(ValueError, match=r"^duplicate service id 'B2'$"):
        service_map(s for s in seven_services() + twice)


def test_descriptor_is_immutable():
    svc = ServiceDescriptor("A1", "tA", 1.0, 1)
    with pytest.raises(AttributeError):
        svc.qos_nominal = 2.0
    with pytest.raises(AttributeError):  # the slotted dataclass raised TypeError here
        svc.extra = 1


def test_descriptor_replace_validates():
    svc = ServiceDescriptor("A1", "tA", 1.0, 1)
    slower = svc._replace(qos_nominal=2.5)
    assert type(slower) is ServiceDescriptor and slower == ("A1", "tA", 2.5, 1)
    with pytest.raises(ValueError, match="qos_nominal must be >= 0, got -1.0"):
        svc._replace(qos_nominal=-1.0)
    with pytest.raises(ValueError, match="threshold must be >= 1, got 0"):
        ServiceDescriptor._make(("A1", "tA", 1.0, 0))


def test_descriptor_validation_messages():
    cases = [
        (("", "tA", 1.0, 1), "service id must be non-empty"),
        (("A1", "", 1.0, 1), "service type must be non-empty"),
        (("A1", "tA", -0.5, 1), "qos_nominal must be >= 0, got -0.5"),
        (("A1", "tA", float("nan"), 1), "qos_nominal must be >= 0, got nan"),
        (("A1", "tA", 1.0, 0), "threshold must be >= 1, got 0"),
        # select_assembly counts a service full only at load threshold + 1.
        (("A1", "tA", 1.0, 1.5), "threshold must be an integer, got 1.5"),
        (("A1", "tA", 1.0, 2.0), "threshold must be an integer, got 2.0"),
        (("A1", "tA", 1.0, True), "threshold must be an integer, got True"),
        (("A1", "tA", 1.0, "2"), "threshold must be an integer, got '2'"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError) as info:
            ServiceDescriptor(*fields)
        assert str(info.value) == message


def test_descriptor_equals_its_plain_tuple():
    # The one behaviour the dataclass did not have: a descriptor is a
    # tuple, so it equals (and hashes like) the plain 4-tuple of its fields.
    svc = ServiceDescriptor("A1", "tA", 1.0, 1)
    assert svc == ("A1", "tA", 1.0, 1)
    assert _DataclassDescriptor("A1", "tA", 1.0, 1) != ("A1", "tA", 1.0, 1)
    assert {("A1", "tA", 1.0, 1): "plain"}[svc] == "plain"


def test_qos_matrix_basics():
    links = QoSMatrix()
    links.set("A1", "B1", 3.0)
    assert links.get("A1", "B1") == 3.0
    assert ("A1", "B1") in links
    assert ("B1", "A1") not in links  # entries are directional
    with pytest.raises(MissingLinkQoS):
        links.get("B1", "A1")
    for ms in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            links.set("A1", "B2", ms)


# ----------------------------------------------------------------------- roles


def test_classify_roles_worked_example():
    roles = classify_roles(seven_services(), seven_template())
    assert roles == {
        "A1": Role.STARTING,
        "A2": Role.STARTING,
        "A3": Role.STARTING,
        "B1": Role.INTERMEDIATE,
        "B2": Role.INTERMEDIATE,
        "B3": Role.INTERMEDIATE,
        "C1": Role.ENDING,
    }


def test_classify_roles_two_node_chain():
    services = [ServiceDescriptor("A1", "tA", 1.0, 1), ServiceDescriptor("B1", "tB", 1.0, 1)]
    template = ApplicationTemplate((("tA", "tB"),), (1,))
    roles = classify_roles(services, template)
    assert roles == {"A1": Role.STARTING, "B1": Role.ENDING}


def test_classify_roles_empty_body_is_an_error():
    template = ApplicationTemplate((), ())
    with pytest.raises(UnknownServiceType):
        classify_roles([ServiceDescriptor("X1", "tX", 1.0, 1)], template)


def test_classify_roles_type_missing_from_body():
    with pytest.raises(UnknownServiceType):
        classify_roles([ServiceDescriptor("X1", "tX", 1.0, 1)], seven_template())


def test_role_partition_covers_all_services():
    roles = classify_roles(seven_services(), seven_template())
    assert len(roles) == 7
    starting = {sid for sid, role in roles.items() if role is Role.STARTING}
    assert starting == {"A1", "A2", "A3"}


# ------------------------------------------------------------------ validation


def test_validate_worked_example_template():
    assert validate_template(seven_template()).ok


def test_validate_two_starting_types():
    template = ApplicationTemplate((("tA", "tB"), ("tC", "tB")), (1, 1))
    report = validate_template(template)
    assert not report.ok
    assert any("starting types" in v for v in report.violations)


def test_validate_cycle():
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tA")), (1, 1))
    report = validate_template(template)
    assert not report.ok
    assert any("cycle" in v for v in report.violations)


def test_validate_empty_body_rejected():
    report = validate_template(ApplicationTemplate((), ()))
    assert not report.ok


def test_validate_length_mismatch():
    template = ApplicationTemplate((("tA", "tB"),), (1, 2))
    report = validate_template(template)
    assert any("constraints" in v for v in report.violations)


def test_validate_duplicate_pair():
    template = ApplicationTemplate((("tA", "tB"), ("tA", "tB")), (1, 1))
    assert any("duplicate" in v for v in validate_template(template).violations)


def test_validate_bad_constraint_value():
    template = ApplicationTemplate((("tA", "tB"),), (0,))
    assert not validate_template(template).ok


def test_template_helpers():
    template = seven_template()
    assert template.starting_type() == "tA"
    assert template.topological_types() == ["tA", "tB", "tC"]
    cyclic = ApplicationTemplate((("tA", "tB"), ("tB", "tA")), (1, 1))
    two = ApplicationTemplate((("tA", "tB"), ("tC", "tB")), (1, 1))
    for template, found in [(cyclic, "none"), (two, r"\['tA', 'tC'\]")]:
        with pytest.raises(ValueError, match=f"^template must have exactly one starting type, found {found}$"):
            template.starting_type()


# ----------------------------------------------------------------- graph type


def test_assembly_graph_rejects_dangling_edge():
    with pytest.raises(ValueError):
        AssemblyGraph(frozenset({"A1"}), frozenset({("A1", "B1")}))


def test_assembly_graph_from_edges_and_degrees():
    graph = AssemblyGraph.from_edges([("A1", "B1"), ("A1", "B2")], extra_nodes=("X",))
    assert graph.nodes == {"A1", "B1", "B2", "X"}
    assert graph.edges == {("A1", "B1"), ("A1", "B2")}


# -------------------------------------------------------------- worst path time


def _qos_only_services():
    return {s.id: s for s in seven_services()}


def test_worst_path_zero_links_forces_node_sums():
    svc = _qos_only_services()
    graph = AssemblyGraph.from_edges(
        [("A1", "B1"), ("A1", "B3"), ("B1", "C1"), ("B3", "C1")]
    )
    links = QoSMatrix()
    for edge in graph.edges:
        links.set(*edge, 0.0)
    # max(1+2+5, 1+4+5) with all link times zero
    assert worst_path_time(graph, "A1", svc, links) == 10.0
    assert exhaustive_worst_path(graph, "A1", svc, links) == 10.0


def test_worst_path_single_node():
    svc = _qos_only_services()
    graph = AssemblyGraph(frozenset({"A1"}), frozenset())
    assert worst_path_time(graph, "A1", svc, QoSMatrix()) == 1.0
    assert exhaustive_worst_path(graph, "A1", svc, QoSMatrix()) == 1.0


def test_worst_path_chain_with_link_times():
    # Expected value computed with the path-enumeration reference:
    # 1 + 3 + 2 + 7 + 5 on the single path.
    svc = _qos_only_services()
    graph = AssemblyGraph.from_edges([("A1", "B1"), ("B1", "C1")])
    links = QoSMatrix({("A1", "B1"): 3.0, ("B1", "C1"): 7.0})
    assert exhaustive_worst_path(graph, "A1", svc, links) == 18.0
    assert worst_path_time(graph, "A1", svc, links) == 18.0


def test_worst_path_chain_equals_total_sum():
    svc = {
        "A": ServiceDescriptor("A", "tA", 1.5, 1),
        "B": ServiceDescriptor("B", "tB", 2.25, 1),
        "C": ServiceDescriptor("C", "tC", 0.75, 1),
    }
    graph = AssemblyGraph.from_edges([("A", "B"), ("B", "C")])
    links = QoSMatrix({("A", "B"): 0.5, ("B", "C"): 1.25})
    total = 1.5 + 0.5 + 2.25 + 1.25 + 0.75
    assert worst_path_time(graph, "A", svc, links) == total


def test_worst_path_missing_link_measurement():
    svc = _qos_only_services()
    graph = AssemblyGraph.from_edges([("A1", "B1")])
    with pytest.raises(MissingLinkQoS):
        worst_path_time(graph, "A1", svc, QoSMatrix())


def test_worst_path_disconnected_node():
    svc = _qos_only_services()
    graph = AssemblyGraph(frozenset({"A1", "B1"}), frozenset())
    with pytest.raises(DisconnectedNode):
        worst_path_time(graph, "A1", svc, QoSMatrix())
    with pytest.raises(DisconnectedNode, match=r"^start node 'A2' is not in the subgraph$"):
        worst_path_time(graph, "A2", svc, QoSMatrix())


def test_worst_path_time_keeps_the_signed_zero_of_the_smaller_target_id():
    # A1's path terms tie at -0.0 (via B1) and 0.0 (via B2).  Taken in
    # target-id order, max keeps B1's -0.0 under every hash seed, as
    # enumerate_candidates and assemble do.
    services, template, latency = signed_zero_ties("binder")
    graph, links = build_binding_graph(services, template, make_net(services, latency))
    svc = service_map(services)
    [candidate] = enumerate_candidates(graph, links, template, "A1", svc)
    chosen = assemble(services, template, make_net(services, latency)).chosen["A1"]
    reference = worst_path_time(candidate.graph, "A1", svc, links)
    assert [candidate.cost.hex(), chosen.cost.hex(), reference.hex()] == ["-0x0.0p+0"] * 3

def test_worst_path_monotone_in_node_qos():
    base = _qos_only_services()
    graph = AssemblyGraph.from_edges([("A1", "B1"), ("A1", "B3"), ("B1", "C1"), ("B3", "C1")])
    links = QoSMatrix()
    for edge in graph.edges:
        links.set(*edge, 1.0)
    before = worst_path_time(graph, "A1", base, links)
    bumped = dict(base)
    bumped["B3"] = ServiceDescriptor("B3", "tB", base["B3"].qos_nominal + 2.0, 1)
    assert worst_path_time(graph, "A1", bumped, links) >= before


def test_worst_path_monotone_in_link_time():
    svc = _qos_only_services()
    graph = AssemblyGraph.from_edges([("A1", "B1"), ("A1", "B3"), ("B1", "C1"), ("B3", "C1")])
    links = QoSMatrix()
    for edge in graph.edges:
        links.set(*edge, 1.0)
    before = worst_path_time(graph, "A1", svc, links)
    worse = QoSMatrix({edge: 1.0 for edge in graph.edges})
    worse.set("B3", "C1", 4.0)  # on the max-cost path
    assert worst_path_time(graph, "A1", svc, worse) >= before


def test_all_sentinel_is_singleton():
    from selfassembly import AllServices

    assert AllServices() is ALL
    assert repr(ALL) == "ALL"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(ALL, protocol)) is ALL, protocol
