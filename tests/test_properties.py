"""Property tests over randomly generated instances."""
import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import random
import re
import tempfile
from collections import Counter, deque
from functools import lru_cache, partial
from itertools import combinations, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selfassembly import (
    ALL,
    DEFAULT_COMBINATION_BUDGET,
    ApplicationTemplate,
    AssemblyGraph,
    AssemblyResult,
    CandidateSubgraph,
    CombinationBudgetExceeded,
    DuplicateId,
    Infeasible,
    InsufficientServices,
    LatencyUndefined,
    MatrixLatency,
    MissingLinkQoS,
    NoStartingService,
    PeerUnknown,
    QoSMatrix,
    Role,
    ScenarioFormatError,
    SeededLatency,
    ServiceDescriptor,
    Simulator,
    UniformLatency,
    assemble,
    build_binding_graph,
    build_simulator,
    classify_roles,
    count_combinations,
    enumerate_candidates,
    generate_medical,
    generate_one_layer,
    generate_pyramidal,
    generate_random_instance,
    parse_scenario,
    run_scenario,
    select_assembly,
    serialize_scenario,
    service_map,
    timeline_jsonl,
    validate_template,
    worst_path_time,
)
from selfassembly import assembler, runtime
from selfassembly.cli import main
from selfassembly import scenario as scenario_module
from selfassembly.assembler import (
    _Attempt,
    _branches,
    _candidates,
    _count,
    _headroom,
    _index,
    _least_costs,
    _Pool,
)
from selfassembly.model import AllServices
from selfassembly.errors import SelfAssemblyError
from selfassembly.oracle import (
    SMALL_INSTANCE_BOUND,
    _subgraphs_from,
    check_assembly,
    exhaustive_assemblies,
    exhaustive_worst_path,
)
from selfassembly.runtime import EventKind, ScenarioEvent, TimelineEntry
from selfassembly.scenario import Scenario

from conftest import make_net, seven_services, seven_template, signed_zero_ties
from recursive_search import (
    reference_candidates,
    reference_count,
    reference_headroom,
    reference_index,
    reference_least_costs,
)


dyadic = st.integers(min_value=0, max_value=40).map(lambda q: q / 4.0)


@st.composite
def chain_instances(draw):
    """A chain-shaped instance with dyadic values, small enough to
    enumerate paths by hand."""
    n_layers = draw(st.integers(min_value=2, max_value=4))
    widths = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n_layers)]
    services = []
    for layer, width in enumerate(widths):
        for i in range(width):
            services.append(
                ServiceDescriptor(
                    f"S{layer}x{i}", f"t{layer}", draw(dyadic), draw(st.integers(1, 3))
                )
            )
    body = tuple((f"t{i}", f"t{i + 1}") for i in range(n_layers - 1))
    constraints = tuple(
        draw(st.integers(min_value=1, max_value=widths[i + 1])) for i in range(n_layers - 1)
    )
    template = ApplicationTemplate(body, constraints)
    table = {}
    for i in range(n_layers - 1):
        for a in (s.id for s in services if s.type == f"t{i}"):
            for b in (s.id for s in services if s.type == f"t{i + 1}"):
                table[(a, b)] = draw(dyadic)
    return services, template, table


@settings(max_examples=60, deadline=None)
@given(chain_instances())
def test_candidate_lists_are_sorted_and_counted(instance):
    services, template, table = instance
    net = make_net(services, MatrixLatency(table))
    graph, links = build_binding_graph(services, template, net)
    svc = service_map(services)
    start_type = template.starting_type()
    by_type: dict[str, int] = {}
    for descriptor in services:
        by_type[descriptor.type] = by_type.get(descriptor.type, 0) + 1
    for start in sorted(s.id for s in services if s.type == start_type):
        candidates = enumerate_candidates(graph, links, template, start, svc)
        costs = [c.cost for c in candidates]
        assert costs == sorted(costs)
        assert [c.rank for c in candidates] == list(range(len(candidates)))
        # Independent count via the oracle's own recursion.
        oracle_subgraphs = _subgraphs_from(start, template, svc)
        assert len(candidates) == len(oracle_subgraphs)
        assert {c.edges for c in candidates} == {
            tuple(sorted(edges)) for edges in oracle_subgraphs
        }
        # For a single fan-out the closed form is the plain binomial.
        if len(template.body) == 1:
            (_, b_type), (constraint,) = template.body[0], template.constraints
            pick = by_type[b_type] if isinstance(constraint, AllServices) else constraint
            assert len(candidates) == count_combinations(by_type[b_type], pick)
        # Dual-route check on every cost.
        for candidate in candidates:
            assert candidate.cost == exhaustive_worst_path(candidate.graph, start, svc, links)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_instances_roles_partition(seed):
    services, template, _links = generate_random_instance(seed)
    roles = classify_roles(services, template)
    assert set(roles) == {s.id for s in services}
    start_type = template.starting_type()
    for descriptor in services:
        expected = (
            Role.STARTING
            if descriptor.type == start_type
            else Role.ENDING
            if descriptor.type not in template.from_types()
            else Role.INTERMEDIATE
        )
        assert roles[descriptor.id] is expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_instance_templates_validate(seed):
    services, template, _links = generate_random_instance(seed)
    assert validate_template(template).ok
    assert template.types() <= {s.type for s in services}


@settings(max_examples=30, deadline=None)
@given(chain_instances())
def test_zero_links_reduce_to_node_sums(instance):
    services, template, table = instance
    zero_table = {pair: 0.0 for pair in table}
    net = make_net(services, MatrixLatency(zero_table))
    graph, links = build_binding_graph(services, template, net)
    svc = service_map(services)
    start_type = template.starting_type()
    for start in sorted(s.id for s in services if s.type == start_type):
        try:
            candidates = enumerate_candidates(graph, links, template, start, svc)
        except InsufficientServices:
            continue
        for candidate in candidates:
            # With zero link times the worst path is the max node-QoS sum.
            succ = candidate.graph.successors()

            def max_node_sum(node):
                nexts = succ.get(node, [])
                own = svc[node].qos_nominal
                if not nexts:
                    return own
                return own + max(max_node_sum(nxt) for nxt in nexts)

            assert candidate.cost == max_node_sum(start)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 40), st.integers(1, 4)),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    ),
    st.integers(0, 2 ** 32 - 1),
)
def test_scenario_round_trip_semantics(service_specs, seed):
    services = [
        ServiceDescriptor(f"N{index}", "tA" if i % 2 else "tB", q / 4.0, thr)
        for index, (i, thr) in enumerate(service_specs)
        for q in (i,)
    ]
    # Guarantee at least one of each type so the template touches both.
    services.append(ServiceDescriptor("NA", "tA", 1.0, 1))
    services.append(ServiceDescriptor("NB", "tB", 1.0, 1))
    template = ApplicationTemplate((("tA", "tB"),), (1,))
    scenario = Scenario(services, template, SeededLatency(3.0, 1.0, seed), [])
    again = parse_scenario(serialize_scenario(scenario))
    assert sorted(again.services, key=lambda s: s.id) == sorted(
        scenario.services, key=lambda s: s.id
    )
    assert again.template == scenario.template
    assert again.links == scenario.links
    assert serialize_scenario(again) == serialize_scenario(scenario)


# ------------------------------------------------- exact bottom-up candidate costs

# Non-dyadic values (0.1, 0.7, arbitrary doubles) make float rounding depend
# on the order of additions, which dyadic values would hide.
link_or_qos = st.one_of(
    st.just(0.0),
    dyadic,
    st.integers(min_value=0, max_value=500).map(lambda q: q / 10.0),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False).map(abs),
)


@st.composite
def dag_instances(draw, values=link_or_qos, holes=False):
    """A random DAG template (branches, diamonds, ALL pairs) over small
    layers of services, with a full link table between paired types, or
    with ``holes`` one with drawn entries left out, so that two starts can
    fall short of targets by different counts.  Constraints may exceed the
    available targets."""
    n_types = draw(st.integers(min_value=2, max_value=5))
    types = [f"t{i}" for i in range(n_types)]
    widths = [draw(st.integers(min_value=1, max_value=2))]
    widths += [draw(st.integers(min_value=1, max_value=3)) for _ in types[1:]]
    body = []
    for j in range(1, n_types):
        binders = draw(st.sets(st.integers(0, j - 1), min_size=1, max_size=2))
        body.extend((types[i], types[j]) for i in sorted(binders))
    constraints = [
        draw(st.one_of(st.just(ALL), st.integers(min_value=1, max_value=widths[types.index(b)] + 1)))
        for _, b in body
    ]
    # Keep enumeration small: the choices per start multiply over binders.
    def choices_per_start():
        total = 1
        for (a, b), c in zip(body, constraints):
            n = widths[types.index(b)]
            pick = 1 if c is ALL or c > n else math.comb(n, c)
            total *= pick ** (1 if a == types[0] else widths[types.index(a)])
        return total

    for index in range(len(constraints)):
        if choices_per_start() <= 300:
            break
        constraints[index] = ALL
    services = [
        ServiceDescriptor(f"{t}s{i}", t, draw(values), draw(st.integers(1, 3)))
        for t, width in zip(types, widths)
        for i in range(width)
    ]
    ids = {t: [s.id for s in services if s.type == t] for t in types}
    table = {
        (x, y): draw(values) for a, b in body for x in ids[a] for y in ids[b] if not holes or draw(st.booleans())
    }
    return services, ApplicationTemplate(tuple(body), tuple(constraints)), table


@settings(max_examples=150, deadline=None)
@given(dag_instances())
def test_candidate_costs_equal_worst_path_time_bit_for_bit(instance):
    services, template, table = instance
    net = make_net(services, MatrixLatency(table))
    graph, links = build_binding_graph(services, template, net)
    svc = service_map(services)
    start_type = template.starting_type()
    for start in sorted(s.id for s in services if s.type == start_type):
        oracle_subgraphs = _subgraphs_from(start, template, svc)
        try:
            candidates = enumerate_candidates(graph, links, template, start, svc)
        except InsufficientServices:
            assert not oracle_subgraphs
            continue
        assert len(candidates) == len(oracle_subgraphs)
        assert {c.edges for c in candidates} == {
            tuple(sorted(edges)) for edges in oracle_subgraphs
        }
        keys = [(c.cost, c.edges) for c in candidates]
        assert all(earlier < later for earlier, later in zip(keys, keys[1:]))
        assert [c.rank for c in candidates] == list(range(len(candidates)))
        for candidate in candidates:
            reference = worst_path_time(candidate.graph, start, svc, links)
            assert candidate.cost.hex() == reference.hex()


# ------------------------------------------------- point-query visibility flood


def reference_flood(services, template, net):
    """The flood as a scan of each sender's whole view: every live
    service sorted by id, one ``visible_peers`` set per sender.  A link the
    latency model cannot price is traced as ``unmeasurable`` and skipped."""
    svc = sorted(service_map(services).values(), key=lambda s: s.id)
    to_types = {}
    for from_type, to_type in template.body:
        to_types.setdefault(from_type, []).append(to_type)
    by_type = {}
    for descriptor in svc:
        by_type.setdefault(descriptor.type, []).append(descriptor)
    starts = by_type.get(template.starting_type(), [])
    if not starts:
        raise NoStartingService("no starting service")
    reached = {s.id for s in starts}
    queue = deque(starts)
    edges = []
    links = QoSMatrix()
    while queue:
        sender = queue.popleft()
        if sender.type not in to_types:
            continue
        visible = net.visible_peers(sender.id)
        for to_type in to_types[sender.type]:
            for target in by_type.get(to_type, []):
                if target.id not in visible:
                    continue
                try:
                    ms = net.measure_link(sender.id, target.id)
                except LatencyUndefined:
                    net.log_event("unmeasurable", sender.id, target.id)
                    continue
                edges.append((sender.id, target.id))
                links.set(sender.id, target.id, ms)
                if target.id not in reached:
                    reached.add(target.id)
                    queue.append(target)
    return AssemblyGraph(frozenset(reached), frozenset(edges)), links


@st.composite
def flood_worlds(draw):
    """Services of a three-type template, announced in rounds with the
    clock advanced between them, or never (bystanders of other types too),
    and one optional withdrawal.
    Links are seeded, or a matrix with holes on some flooded pairs; some
    flooded pairs are degraded, holes among them."""
    types = ["tA", "tB", "tC", "tX"]
    services = [
        ServiceDescriptor(f"{t}{i}", t, 1.0, 1)
        for t in types
        for i in range(draw(st.integers(min_value=0 if t != "tA" else 1, max_value=3)))
    ]
    ids = [s.id for s in services]
    # One service in five is never announced: a start among them fails the
    # flood at once, and most worlds should get as far as measuring.
    rounds = {sid: draw(st.sampled_from([0, 1, 2, 0, None])) for sid in ids}
    steps = draw(st.lists(st.sampled_from([0.0, 2.0, 3.5]), min_size=2, max_size=2))
    withdrawn = draw(st.one_of(st.none(), st.sampled_from(ids)))
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC"), ("tA", "tC")), (1, 1, ALL))
    flooded = [
        (a, b) for x, y in template.body for a in ids for b in ids if a[:2] == x and b[:2] == y
    ]
    link_ms = st.sampled_from([0.0, 1 / 3, 2.5])
    fates = ["model", "model", "model", "hole", "degraded", "degraded hole"]
    table, degraded = {}, []
    for pair in flooded:
        fate = draw(st.sampled_from(fates))
        if "hole" not in fate:
            table[pair] = draw(link_ms)
        if "degraded" in fate:
            degraded.append((pair, draw(link_ms)))
    # A fresh model per run: a seeded one keeps its generator's state.
    if draw(st.booleans()):
        latency = partial(MatrixLatency, table)
    else:
        latency = partial(SeededLatency, 2.0, 1.0, draw(st.integers(min_value=0, max_value=2 ** 16)))
    return services, template, rounds, steps, withdrawn, latency, degraded


def _flood_net(world):
    services, _template, rounds, steps, withdrawn, latency, degraded = world
    net = Simulator(latency())
    for (from_id, to_id), ms in degraded:
        net.degrade_link(from_id, to_id, ms)
    for round_, step in enumerate([0.0, *steps]):
        net.advance(net.clock + step)
        for descriptor in services:
            if rounds[descriptor.id] == round_:
                net.announce(descriptor)
    if withdrawn is not None and withdrawn in net.live_ids():
        net.withdraw(withdrawn)
    return net


def _outcome(flood, world):
    services, template = world[0], world[1]
    net = _flood_net(world)
    try:
        graph, links = flood(services, template, net)
    except (PeerUnknown, NoStartingService) as exc:
        return (type(exc), str(exc)), net.trace_jsonl()
    return (graph, links), net.trace_jsonl()


@settings(max_examples=150, deadline=None)
@given(flood_worlds())
def test_point_query_flood_matches_the_view_scan(world):
    assert _outcome(build_binding_graph, world) == _outcome(reference_flood, world)


def _reached_out_of_id_order():
    """A world whose flood reaches tC1 before tC0: tA0 cannot price its link
    to tC0, which only tA1 reaches."""
    services = [ServiceDescriptor(sid, sid[:2], 1.0, 1) for sid in ("tA0", "tA1", "tC0", "tC1")]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC"), ("tA", "tC")), (1, 1, ALL))
    table = {("tA0", "tC1"): 0.0, ("tA1", "tC0"): 0.0, ("tA1", "tC1"): 0.0}
    rounds = dict.fromkeys((s.id for s in services), 0)
    return services, template, rounds, [0.0, 0.0], None, partial(MatrixLatency, table), []


@settings(max_examples=200, deadline=None)
@given(flood_worlds())
@example(_reached_out_of_id_order())
def test_assemble_indexes_the_flood_table_as_the_reference_regroups_the_graph(world):
    """The groups the flood hands ``assemble``, which its stages use, hold
    per sender and target type the reference index's targets in order,
    each with its ``links.get`` time and the graph's own edge.  Its starts
    are the graph's, in id order; its ids by type and the least costs over
    them are those of the view scan's graph, the costs bit for bit."""
    services, template = world[0], world[1]
    floods, used = [], []

    def flood(*args, **kwargs):
        floods.append((build_binding_graph(*args, **kwargs), kwargs["attempt"]))
        return floods[-1][0]

    def least_costs(attempt, *args, **kwargs):
        used.append(attempt.index)
        return _least_costs(attempt, *args, **kwargs)

    with mock.patch.object(assembler, "build_binding_graph", flood), \
            mock.patch.object(assembler, "_least_costs", least_costs):
        try:
            assemble(services, template, _flood_net(world))
        except (PeerUnknown, NoStartingService, InsufficientServices, Infeasible):
            pass
    if not floods:
        return  # the flood raised before anything was indexed
    ((graph, links), attempt), = floods
    index, svc = attempt.index, service_map(services)
    assert used == [index] and used[0] is index
    old_succ, shared_edge = reference_index(graph, svc)
    assert index == {
        a: {t: [(shared_edge[(a, b)], links.get(a, b)) for b in targets] for t, targets in groups.items()}
        for a, groups in old_succ.items()
    }
    assert all(
        edge is shared_edge[edge]
        for groups in index.values() for picks in groups.values() for edge, _ in picks
    )
    start_type = attempt.levels[0]
    assert attempt.ids[start_type] == sorted(sid for sid in graph.nodes if svc[sid].type == start_type)
    # Against the view scan's flood, which no change to the flood's own queue can reach.
    ref_graph, ref_links = reference_flood(services, template, _flood_net(world))
    assert attempt.ids == {t: sorted(n for n in ref_graph.nodes if svc[n].type == t) for t in template._specs}
    ref_succ, _ = reference_index(ref_graph, svc)
    reference = reference_least_costs(ref_succ, ref_links, template._specs, svc, ref_graph.nodes)
    assert {n: v if v is None else v.hex() for n, v in attempt.lower.items()} == {
        n: v if v is None else v.hex() for n, v in reference.items()
    }


def test_flood_from_a_sender_that_is_not_live_raises():
    services = [ServiceDescriptor("A1", "tA", 1.0, 1), ServiceDescriptor("B1", "tB", 1.0, 1)]
    template = ApplicationTemplate((("tA", "tB"),), (1,))
    net = Simulator()
    net.announce(services[1])  # A1 is passed in but was never announced
    with pytest.raises(PeerUnknown):
        build_binding_graph(services, template, net)
    with pytest.raises(PeerUnknown):
        reference_flood(services, template, net)


# ------------------------------------------------- pruned incremental selection


def reference_select(per_start, services, budget=DEFAULT_COMBINATION_BUDGET):
    """The plain odometer: every combination in turn, rebuilding the
    deduplicated union and recounting its loads."""
    start_ids = sorted(per_start)
    pools = [tuple(per_start[sid]) for sid in start_ids]
    svc = service_map(services)
    tested = 0
    for combo in product(*pools):
        tested += 1
        if tested > budget:
            raise CombinationBudgetExceeded(budget)
        union_edges = set()
        for candidate in combo:
            union_edges.update(candidate.edges)
        loads = Counter(target for _, target in union_edges)
        if all(count <= svc[node].threshold for node, count in loads.items()):
            nodes = set(start_ids)
            for a, b in union_edges:
                nodes.add(a)
                nodes.add(b)
            assembly = AssemblyGraph(frozenset(nodes), frozenset(union_edges))
            per_load = {node: loads.get(node, 0) for node in nodes}
            return AssemblyResult(assembly, dict(zip(start_ids, combo)), tested, per_load)
    raise Infeasible(tested)


def _selection(select, per_start, services, budget):
    try:
        result = select(per_start, services, budget=budget)
    except Infeasible as exc:
        return "Infeasible", exc.combinations_tested
    except CombinationBudgetExceeded as exc:
        return "CombinationBudgetExceeded", exc.budget
    return "commit", result


def budgets(total):
    """Budgets around the number of combinations, and the default."""
    edges = [0, 1, total - 1, total, total + 1, DEFAULT_COMBINATION_BUDGET]
    return st.one_of(st.sampled_from(edges), st.integers(min_value=0, max_value=total + 2))


@st.composite
def selection_instances(draw):
    """Per-start candidate lists drawn from one small pool of edges, so
    that starts share edges and the union's deduplication matters, over
    services with thresholds 1-4, and a budget around the total."""
    n_starts = draw(st.integers(min_value=1, max_value=4))
    starts = [f"S{i}" for i in range(n_starts)]
    targets = [f"N{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    services = [ServiceDescriptor(sid, "tS", 1.0, 1) for sid in starts]
    services += [
        ServiceDescriptor(nid, "tN", 1.0, draw(st.sampled_from([1, 1, 2, 3, 4])))
        for nid in targets
    ]
    edge_pool = draw(
        st.lists(
            st.tuples(st.sampled_from(starts + targets), st.sampled_from(targets)).filter(
                lambda edge: edge[0] != edge[1]
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    per_start = {}
    for sid in starts:
        edge_set = st.sets(st.sampled_from(edge_pool), min_size=1, max_size=5)
        edge_sets = draw(st.lists(edge_set, min_size=1, max_size=5))
        per_start[sid] = [
            CandidateSubgraph(sid, tuple(sorted(edges)), float(rank), rank)
            for rank, edges in enumerate(edge_sets)
        ]
    total = math.prod(len(pool) for pool in per_start.values())
    return per_start, services, draw(budgets(total))


@settings(max_examples=300, deadline=None)
@given(selection_instances())
def test_pruned_selection_matches_the_plain_odometer(instance):
    per_start, services, budget = instance
    assert _selection(select_assembly, per_start, services, budget) == _selection(
        reference_select, per_start, services, budget
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.data())
def test_assemble_with_squeezed_thresholds_matches_the_plain_odometer(seed, data):
    services, template, links = generate_random_instance(seed)
    squeezed = [
        ServiceDescriptor(s.id, s.type, s.qos_nominal, data.draw(st.integers(1, 2)))
        for s in services
    ]
    latency = MatrixLatency(dict(links.items()))
    graph, measured = build_binding_graph(squeezed, template, make_net(squeezed, latency))
    svc = service_map(squeezed)
    start_ids = sorted(sid for sid in graph.nodes if svc[sid].type == template.starting_type())
    try:
        per_start = {
            sid: enumerate_candidates(graph, measured, template, sid, svc) for sid in start_ids
        }
    except InsufficientServices:
        return
    total = math.prod(len(pool) for pool in per_start.values())
    budget = data.draw(budgets(total))

    def end_to_end(_per_start, services, budget):
        return assemble(services, template, make_net(services, latency), budget=budget)

    assert _selection(end_to_end, per_start, squeezed, budget) == _selection(
        reference_select, per_start, squeezed, budget
    )


# ------------------------------------------------- least-cost plateau first

# Few distinct values, two of them non-dyadic, so that equal costs and
# plateaus of several candidates are common.
tie_prone = st.sampled_from([0.0, 0.1, 0.7, 1.0])


# Ties of both zeros: a cost keeps the sign of -0.0 only where every term has it.
signed_zeros = st.sampled_from([-0.0, 0.0, 0.5])


WIDE_LIST_CAP = 1500


@st.composite
def wide_instances(draw, values=tie_prone):
    """One- and two-layer chains whose binders pick k of 10-40 targets, k
    from 1 to 3, with a full link table, so that the plateau filter bisects
    over many worths.  Widths, then constraints, are lowered until a start's
    full list has at most ``WIDE_LIST_CAP`` candidates; a second start is
    added only while both lists' combinations stay within it."""
    layers = draw(st.integers(min_value=1, max_value=2))
    types = ["t0", "t1", "t2"][: layers + 1]
    widths = [1] + [draw(st.integers(min_value=10, max_value=40)) for _ in range(layers)]
    ks = [draw(st.integers(min_value=1, max_value=3)) for _ in range(layers)]

    def per_start():
        total, binders = 1, 1
        for n, k in zip(widths[1:], ks):  # each of the k picks binds at the next layer
            total *= math.comb(n, k) ** binders
            binders = k
        return total

    for layer in reversed(range(layers)):
        while per_start() > WIDE_LIST_CAP and widths[layer + 1] > 10:
            widths[layer + 1] -= 1
    for layer in range(layers):
        while per_start() > WIDE_LIST_CAP and ks[layer] > 1:
            ks[layer] -= 1
    if per_start() ** 2 <= WIDE_LIST_CAP:
        widths[0] = draw(st.integers(min_value=1, max_value=2))
    services = [
        ServiceDescriptor(f"{t}s{i}", t, draw(values), draw(st.integers(1, 3)))
        for t, width in zip(types, widths)
        for i in range(width)
    ]
    ids = {t: [s.id for s in services if s.type == t] for t in types}
    body = tuple(zip(types, types[1:]))
    table = {(x, y): draw(values) for a, b in body for x in ids[a] for y in ids[b]}
    return services, ApplicationTemplate(body, tuple(ks)), table


@st.composite
def contended_instances(draw, values=link_or_qos, second_k=(ALL, 1)):
    """Two or three starts over a shared layer of gateways, most of them of
    threshold 1, so that selection reads far past each plateau.  The
    starting type has a second pair, of a constraint in ``second_k``, to a
    sink type or to the gateways' own targets, drawn before or after its
    gateway pair.  Ids are prefixed per type in a drawn order, so that a
    start's edges may sort after those below it and ties across branches
    are broken deep in the edge tuples.  A template checks only with
    positive constraints."""
    widths = {"tA": draw(st.integers(2, 3)), "tB": draw(st.integers(2, 3))}
    widths.update(tC=draw(st.integers(1, 2)), tD=draw(st.integers(1, 2)))
    second = draw(st.sampled_from(["tC", "tD"]))
    pairs = [(("tA", "tB"), draw(st.integers(1, 2))), (("tA", second), draw(st.sampled_from(second_k)))]
    if draw(st.booleans()):
        pairs.reverse()
    pairs.append((("tB", "tC"), draw(st.sampled_from([ALL, 1, widths["tC"]]))))
    thresholds = {"tA": [1], "tB": [1, 1, 1, 2], "tC": [1, 2, 3, 4], "tD": [1, 2, 3, 4]}
    prefix = dict(zip(widths, draw(st.permutations("abcd"))))
    services = [
        ServiceDescriptor(f"{prefix[t]}{i}", t, draw(values), draw(st.sampled_from(thresholds[t])))
        for t, width in widths.items()
        for i in range(width)
    ]
    ids = {t: [s.id for s in services if s.type == t] for t in widths}
    table = {(x, y): draw(values) for (a, b), _ in pairs for x in ids[a] for y in ids[b]}
    body, constraints = zip(*pairs)
    return services, ApplicationTemplate(body, constraints), table


def _flood(services, template, net):
    """The flood's graph and links, and an attempt over its index.  The flood
    reads no constraint, so it runs on the template with each one set to 1,
    which passes the flood's check also where ``template`` has a k=0 pair."""
    attempt = _Attempt(template, service_map(services), {})
    checked = ApplicationTemplate(template.body, (1,) * len(template.body))
    graph, links = build_binding_graph(services, checked, net, attempt=attempt)
    return graph, links, attempt


def _least_costs_over(attempt, nodes):
    """``_least_costs`` over ``nodes``, grouped by type in id order as the
    flood groups the ``ids`` it reaches, for an attempt over an index the
    flood did not fill."""
    attempt.ids = {t: sorted(n for n in nodes if attempt.svc[n].type == t) for t in attempt.specs}
    return _least_costs(attempt)


def _full_lists(services, template, graph, links):
    """Each start's full candidate list, or the exception enumerating it raised."""
    svc = service_map(services)
    out = {}
    for sid in sorted(s.id for s in services if s.type == template.starting_type()):
        try:
            out[sid] = enumerate_candidates(graph, links, template, sid, svc)
        except InsufficientServices as exc:
            out[sid] = exc
    return out


def _signed_zero_binder():
    """The "binder" signed-zero instance: ``lower["A1"]`` is ``0.0``, the only
    candidate costs ``-0.0``."""
    services, template, latency = signed_zero_ties("binder")
    return services, template, latency.entries


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        dag_instances(),
        dag_instances(tie_prone),
        dag_instances(holes=True),
        wide_instances(),
        wide_instances(link_or_qos),
    ),
    st.data(),
)
@example(_signed_zero_binder(), None)
def test_least_cost_plateaus_are_exact_prefixes_of_the_full_lists(instance, data):
    services, template, table = instance
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    svc = service_map(services)
    attempt = _Attempt(template, svc, _index(links._entries.items(), svc))
    _least_costs_over(attempt, graph.nodes)
    lower = attempt.lower
    for sid, full in _full_lists(services, template, graph, links).items():
        if isinstance(full, InsufficientServices):
            assert lower[sid] is None
            continue
        assert lower[sid] is not None
        assert lower[sid] == full[0].cost  # by value: a -0.0 and a 0.0 may tie
        drawn = full[-1] if data is None else data.draw(st.sampled_from(full))  # None: the explicit example
        for cutoff in (lower[sid], drawn.cost):
            assert _listing(lambda: _candidates(attempt, sid, cutoff)) == _listing(
                lambda: [c for c in full if c.cost <= cutoff]
            )


def _assembly(run):
    """What one assembly gives: its result, or its exception's type, message and count."""
    try:
        return run()
    except (Infeasible, CombinationBudgetExceeded, InsufficientServices) as exc:
        count = getattr(exc, "combinations_tested", getattr(exc, "budget", None))
        return type(exc).__name__, str(exc), count


def _exactly(outcome):
    """An outcome of :func:`_assembly` with each chosen cost as its bits."""
    if not isinstance(outcome, AssemblyResult):
        return outcome
    chosen = {sid: (c.edges, c.rank, c.cost.hex()) for sid, c in outcome.chosen.items()}
    return outcome.assembly, chosen, outcome.combinations_tested, outcome.per_service_load


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        dag_instances(),
        dag_instances(tie_prone),
        dag_instances(holes=True),
        wide_instances(),
        wide_instances(link_or_qos),
        contended_instances(),
        contended_instances(tie_prone),
        contended_instances(signed_zeros),
    ),
    st.data(),
)
def test_lazy_assemble_matches_selection_over_full_lists(instance, data):
    services, template, table = instance
    latency = MatrixLatency(table)
    graph, links = build_binding_graph(services, template, make_net(services, latency))
    lists = _full_lists(services, template, graph, links)
    failed = [exc for exc in lists.values() if isinstance(exc, InsufficientServices)]
    total = 0 if failed else math.prod(len(pool) for pool in lists.values())
    budget = data.draw(budgets(total))

    def eager():
        if failed:
            raise failed[0]
        return select_assembly(lists, services, budget=budget)

    def lazy():
        return assemble(services, template, make_net(services, latency), budget=budget)

    plateaus, reads = [], []
    with mock.patch.object(assembler, "_candidates", _branch_spy([], plateaus)), _reads_recorded(reads):
        outcome = _assembly(lazy)
    assert _exactly(outcome) == _exactly(_assembly(eager))
    assert sorted(plateaus) == sorted(set(reads))  # no start listed that selection never read


# ------------------------------------------------- counted list lengths


def _branch_spy(calls, plateaus=None):
    """``_candidates`` that records each branch listed past a plateau: its start,
    the start's picks that make it (their edges per type), and how many
    candidates it built; and the start of every other unbounded search, with
    ``None`` for both, before it runs.  A bounded call lists a plateau: the
    spy keeps the start's groups it read, and appends the start to
    ``plateaus`` if given.  An unbounded call lists a branch only if the
    start's groups are another object holding one assignment of the
    plateau's pools: k picks of a pool, or all of an ALL pool.  Any other
    unbounded call, also over a copy of the start's groups, is a full
    listing."""
    real = assembler._candidates
    plateau_groups = {}

    def one_assignment(groups, plateau, specs):
        return all(
            tuple(groups.get(t, ())) == tuple(plateau.get(t, ())) if isinstance(k, AllServices)
            else len(groups.get(t, ())) == k and set(groups.get(t, ())) <= set(plateau.get(t, ()))
            for t, k in specs
        )

    def spy(attempt, start_id, cutoff=None):
        groups = attempt.index.get(start_id)
        if cutoff is not None:
            plateau_groups[start_id] = groups
            if plateaus is not None:
                plateaus.append(start_id)
            return real(attempt, start_id, cutoff)
        plateau = plateau_groups.get(start_id, groups)
        specs = attempt.specs[attempt.levels[0]]
        branch = groups is not plateau and one_assignment(groups or {}, plateau or {}, specs)
        if not branch:
            calls.append((start_id, None, None))
        listed = real(attempt, start_id, cutoff)
        if branch:
            picks = tuple((t, tuple(edge for edge, _ in chosen)) for t, chosen in groups.items())
            calls.append((start_id, picks, len(listed)))
        return listed

    return spy


@contextlib.contextmanager
def _reads_recorded(reads):
    """Appends to ``reads`` the start of a pool of an attempt at each read of it."""
    real = _Pool.item

    def item(pool, index):
        if pool._attempt:
            reads.append(pool._start)
        return real(pool, index)

    with mock.patch.object(_Pool, "item", item):
        yield


def _listed_in_full(calls):
    """The starts an unbounded search listed."""
    return {start for start, first, _ in calls if first is None}


def _branches_listed(calls, sid, size):
    """How many branches of ``sid`` were listed, after checking that none
    was listed twice and that they built at most ``size`` candidates, the
    length of its full list."""
    branches = [(first, built) for start, first, built in calls if start == sid and first is not None]
    assert len({first for first, _ in branches}) == len(branches)
    assert sum(built for _, built in branches) <= size
    return len(branches)


def _lazy_lists(services, template, latency):
    """The lists ``assemble`` hands to selection."""
    captured = {}
    with mock.patch.object(
        assembler, "select_assembly", lambda per_start, svc, budget: captured.update(per_start)
    ):
        assemble(services, template, make_net(services, latency))
    return captured


@st.composite
def layered_random_instances(draw):
    """A ``generate_random_instance`` of three or more types, as a link table."""
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    services, template, links = generate_random_instance(seed)
    assume(len(template.topological_types()) >= 3)
    return services, template, dict(links.items())


@settings(max_examples=300, deadline=None)
@given(st.one_of(dag_instances(), dag_instances(tie_prone), dag_instances(holes=True), layered_random_instances()))
def test_counted_length_equals_the_full_list_length(instance):
    services, template, table = instance
    latency = MatrixLatency(table)
    graph, links = build_binding_graph(services, template, make_net(services, latency))
    full = _full_lists(services, template, graph, links)
    svc = service_map(services)
    attempt = _Attempt(template, svc, _index(links._entries.items(), svc))
    short = {sid: pool for sid, pool in full.items() if isinstance(pool, InsufficientServices)}
    for sid, exc in short.items():
        with pytest.raises(InsufficientServices, match=f"^{re.escape(str(exc))}$"):
            _count(attempt, sid)
    if short:
        return  # assemble raises before selection
    calls = []
    with mock.patch.object(assembler, "_candidates", _branch_spy(calls)):
        lazy = _lazy_lists(services, template, latency)
        assert sorted(lazy) == sorted(full)
        for sid, pool in lazy.items():
            assert pool.length() == len(full[sid])
            assert _branches_listed(calls, sid, len(full[sid])) == 0  # counted, not listed
            assert sid not in _listed_in_full(calls)
            assert pool.item(pool.length()) is None  # past the end: reads every branch
            _branches_listed(calls, sid, len(full[sid]))
            assert sid not in _listed_in_full(calls)  # branch by branch, never in full
            assert pool.length() == len(full[sid])
            assert [pool.item(i) for i in range(pool.length())] == full[sid]
        assert not _listed_in_full(calls)


def test_pruning_counts_later_starts_without_listing_them():
    # Every start's plateau is its one least-cost candidate.  A1 and A2 both
    # prefer B1, whose threshold is 1, so A2's plateau overloads it and the
    # odometer skips the combinations of A3 and A4 below, twice, before A2
    # moves to B2.  A3 and A4 prefer B2 and fit on their plateaus.
    starts = ["A1", "A2", "A3", "A4"]
    services = [ServiceDescriptor(sid, "tA", 1.0, 1) for sid in starts]
    services += [ServiceDescriptor("B1", "tB", 1.0, 1), ServiceDescriptor("B2", "tB", 1.0, 3)]
    services += [ServiceDescriptor(sid, "tC", 1.0, 4) for sid in ("C1", "C2")]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    table = {(b, "C1"): 1.0 for b in ("B1", "B2")}
    table.update({(b, "C2"): 2.0 for b in ("B1", "B2")})
    for sid in starts:
        near, far = ("B1", "B2") if sid in ("A1", "A2") else ("B2", "B1")
        table[(sid, near)], table[(sid, far)] = 1.0, 5.0
    latency = MatrixLatency(table)
    graph, links = build_binding_graph(services, template, make_net(services, latency))
    full = _full_lists(services, template, graph, links)
    assert [len(pool) for pool in full.values()] == [4, 4, 4, 4]
    for budget in (DEFAULT_COMBINATION_BUDGET, 33, 32):
        calls = []
        with mock.patch.object(assembler, "_candidates", _branch_spy(calls)):
            lazy = _assembly(
                lambda: assemble(services, template, make_net(services, latency), budget=budget)
            )
        assert not _listed_in_full(calls)  # no start is listed in full
        assert {start for start, _, _ in calls} == {"A2"}  # only A2 reads past its plateau
        _branches_listed(calls, "A2", len(full["A2"]))
        assert lazy == _assembly(lambda: reference_select(full, services, budget))
        assert lazy == _assembly(lambda: select_assembly(full, services, budget=budget))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_plateau_is_listed_only_when_the_odometer_reads_its_start(k):
    # Five starts, each with four candidates (a gateway, then a C) and a
    # plateau of one.  A1 and A{k} prefer B1, whose threshold is 1, so A{k}'s
    # plateau overloads it and the odometer skips the combinations of the
    # starts after A{k}, twice, before A{k} moves to B2; the others prefer
    # B2.  One budget less than those skips runs out before any start after
    # A{k} is read; with them, every start is read, and the commit is the
    # combination after them.
    starts = [f"A{i}" for i in range(1, 6)]
    services = [ServiceDescriptor(sid, "tA", 1.0, 1) for sid in starts]
    services += [ServiceDescriptor("B1", "tB", 1.0, 1), ServiceDescriptor("B2", "tB", 1.0, 5)]
    services += [ServiceDescriptor(sid, "tC", 1.0, 4) for sid in ("C1", "C2")]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    table = {(b, "C1"): 1.0 for b in ("B1", "B2")}
    table.update({(b, "C2"): 2.0 for b in ("B1", "B2")})
    for sid in starts:
        near, far = ("B1", "B2") if sid in ("A1", f"A{k}") else ("B2", "B1")
        table[(sid, near)], table[(sid, far)] = 1.0, 5.0
    latency = MatrixLatency(table)
    graph, links = build_binding_graph(services, template, make_net(services, latency))
    full = _full_lists(services, template, graph, links)
    assert [len(pool) for pool in full.values()] == [4] * 5
    skipped = 2 * 4 ** (5 - k)
    for budget, read in (
        (skipped - 1, starts[:k]),  # runs out at A{k}'s second skip
        (skipped, starts),  # runs out at the commit
        (skipped + 1, starts),  # just enough
        (DEFAULT_COMBINATION_BUDGET, starts),
    ):
        calls, plateaus, reads = [], [], []
        with mock.patch.object(assembler, "_candidates", _branch_spy(calls, plateaus)), _reads_recorded(reads):
            lazy = _assembly(
                lambda: assemble(services, template, make_net(services, latency), budget=budget)
            )
        assert sorted(plateaus) == sorted(set(reads)) == read  # each listed once, when first read
        assert not _listed_in_full(calls)
        assert {start for start, _, _ in calls} == {f"A{k}"}  # only A{k} reads past its plateau
        _branches_listed(calls, f"A{k}", len(full[f"A{k}"]))
        assert lazy == _assembly(lambda: reference_select(full, services, budget))
        assert lazy == _assembly(lambda: select_assembly(full, services, budget=budget))


def _drawn_budget(instance, data):
    """A budget drawn around the number of combinations of the instance's
    full lists, or around 0 when a start falls short of targets."""
    services, template, table = instance
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    lists = _full_lists(services, template, graph, links)
    failed = any(isinstance(exc, InsufficientServices) for exc in lists.values())
    return data.draw(budgets(0 if failed else math.prod(len(pool) for pool in lists.values())))


# Two starts short of targets by different counts, over a link table with
# holes: A1 sees one of the two B it needs, A2 none.  A1's error is the one
# raised, in whatever order the services come.  ``dag_instances(holes=True)``
# draws such pairs too; this one is a fixed draw.
SHORT_STARTS = (
    [ServiceDescriptor(sid, "tA", 1.0, 1) for sid in ("A1", "A2")]
    + [ServiceDescriptor(sid, "tB", 1.0, 2) for sid in ("B1", "B2")],
    ApplicationTemplate((("tA", "tB"),), (2,)),
    {("A1", "B1"): 1.0},
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        dag_instances(),
        dag_instances(tie_prone),
        dag_instances(holes=True),
        contended_instances(),
        contended_instances(tie_prone),
        layered_random_instances(),
        st.just(SHORT_STARTS),
    ),
    st.data(),
)
def test_a_permutation_of_services_changes_no_outcome(instance, data):
    """ROADMAP item 14's first relation: the order in which services are
    given, and so announced and flooded, changes neither the result nor the
    exception, its message and count, at any budget."""
    services, template, table = instance
    latency = MatrixLatency(table)
    budget = _drawn_budget(instance, data)
    permuted = data.draw(st.permutations(services))

    def outcome(given):
        return _exactly(_assembly(lambda: assemble(given, template, make_net(given, latency), budget=budget)))

    assert outcome(permuted) == outcome(services)


def _renamed(outcome, name):
    """An outcome of :func:`_assembly` with every id ``i`` as ``name[i]``."""
    if not isinstance(outcome, AssemblyResult):
        return outcome  # no exception of an assembly names a service

    def edges(pairs):
        return tuple((name[a], name[b]) for a, b in pairs)

    assembly = outcome.assembly
    graph = AssemblyGraph(frozenset(map(name.get, assembly.nodes)), frozenset(edges(assembly.edges)))
    chosen = {name[sid]: c._replace(start_id=name[sid], edges=edges(c.edges)) for sid, c in outcome.chosen.items()}
    load = {name[node]: count for node, count in outcome.per_service_load.items()}
    return AssemblyResult(graph, chosen, outcome.combinations_tested, load)


@settings(max_examples=300, deadline=None)
@given(st.one_of(dag_instances(tie_prone), contended_instances()), st.data())
def test_an_order_preserving_renaming_of_ids_renames_the_outcome(instance, data):
    """ROADMAP item 14's second relation: ids that sort as before give the
    same edges under the new names, the same ranks, cost bits and
    ``combinations_tested``, or the same exception, at any budget."""
    services, template, table = instance
    budget = _drawn_budget(instance, data)
    ids = sorted(s.id for s in services)
    fresh = st.lists(st.text("0aZ~", min_size=1, max_size=4), min_size=len(ids), max_size=len(ids), unique=True)
    name = dict(zip(ids, sorted(data.draw(fresh))))

    def outcome(given, links):
        return _assembly(lambda: assemble(given, template, make_net(given, MatrixLatency(links)), budget=budget))

    renamed_table = {(name[a], name[b]): ms for (a, b), ms in table.items()}
    renamed = outcome([s._replace(id=name[s.id]) for s in services], renamed_table)
    assert _exactly(renamed) == _exactly(_renamed(outcome(services, table), name))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        dag_instances(),
        dag_instances(tie_prone),
        contended_instances(second_k=(ALL, 0, 1)),
        contended_instances(tie_prone, (ALL, 0, 1)),
        contended_instances(signed_zeros, (ALL, 0, 1)),
        dag_instances(signed_zeros),
        layered_random_instances(),
    )
)
def test_items_past_the_plateau_continue_the_full_list(instance):
    """A start's plateau, then the items handed out past it, are its full
    list bit for bit, also with a k=0 pair, which only an unchecked
    template has, and with ``-0.0`` values on the plateau; reading them
    leaves the index as it was."""
    services, template, table = instance
    graph, links, attempt = _flood(services, template, make_net(services, MatrixLatency(table)))
    _least_costs(attempt)
    succ, lower = attempt.index, attempt.lower
    for sid, full in _full_lists(services, template, graph, links).items():
        if isinstance(full, InsufficientServices):
            continue
        plateau = _candidates(attempt, sid, lower[sid])
        pool, rest, groups = _Pool(list(plateau), attempt, sid), [], succ.get(sid)
        while (item := pool.item(len(plateau) + len(rest))) is not None:
            rest.append(item)
        assert _listing(lambda: plateau + rest) == _listing(lambda: full)
        assert succ.get(sid) is groups  # each branch's picks are put back in the index


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        wide_instances(),
        wide_instances(signed_zeros),
        dag_instances(tie_prone),
        contended_instances(tie_prone, (ALL, 0, 1)),
        layered_random_instances(),
    )
)
def test_branches_of_the_start_picks_partition_the_full_list(instance):
    """Listing a start once per assignment of picks to its pairs, passed as
    the start's groups in a copy of the index, gives each candidate of its
    full list exactly once, with its cost bit for bit; also where the
    start's type is the deepest level, as in a one-layer template, and with
    a k=0 pair."""
    services, template, table = instance
    graph, links, attempt = _flood(services, template, make_net(services, MatrixLatency(table)))
    svc, succ, start_pairs = attempt.svc, attempt.index, attempt.specs[attempt.levels[0]]
    for sid, full in _full_lists(services, template, graph, links).items():
        if isinstance(full, InsufficientServices):
            continue
        pools = [(succ.get(sid, {}).get(t, ()), k) for t, k in start_pairs]
        types = [t for t, _ in start_pairs]
        listed = []
        for first in product(*(
            (tuple(pool),) if isinstance(k, AllServices) else combinations(pool, k) for pool, k in pools
        )):
            listed += _candidates(_Attempt(template, svc, {**succ, sid: dict(zip(types, first))}), sid)
        listed.sort(key=lambda c: (c.cost, c.edges))
        assert [(c.cost.hex(), c.edges) for c in listed] == [(c.cost.hex(), c.edges) for c in full]


# ------------------------------------------------- the iterative candidate walker


def _listing(run, errors=InsufficientServices):
    """A candidate list as (cost bits, rank, edges) per item, or the type
    and message of the exception of ``errors`` that listing it raised."""
    try:
        return [(c.cost.hex(), c.rank, c.edges) for c in run()]
    except errors as exc:
        return type(exc).__name__, str(exc)


def _counting(run):
    try:
        return run()
    except InsufficientServices as exc:
        return type(exc).__name__, str(exc)


def _bits(value):
    return None if value is None else value.hex()


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        dag_instances(),
        dag_instances(tie_prone),
        wide_instances(),
        wide_instances(link_or_qos),
        layered_random_instances(),
    ),
    st.data(),
)
def test_walker_matches_the_recursive_search(instance, data):
    services, template, table = instance
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    svc = service_map(services)
    attempt = _Attempt(template, svc, _index(links._entries.items(), svc))
    _least_costs_over(attempt, graph.nodes)
    lower = attempt.lower
    old_succ, shared_edge = reference_index(graph, svc)
    old_lower = reference_least_costs(old_succ, links, attempt.specs, svc, graph.nodes)
    assert {node: _bits(value) for node, value in lower.items()} == {
        node: _bits(value) for node, value in old_lower.items()
    }

    def reference(sid, *bound):
        return reference_candidates(old_succ, shared_edge, links, attempt.specs, sid, svc, *bound)

    for sid in sorted(s.id for s in services if s.type == attempt.levels[0]):
        full = _listing(lambda: _candidates(attempt, sid))
        assert full == _listing(lambda: reference(sid))
        assert _counting(lambda: _count(attempt, sid)) == _counting(
            lambda: reference_count(old_succ, attempt.specs, sid, svc)
        )
        if lower[sid] is None:
            assert isinstance(full, tuple)  # InsufficientServices
            continue
        drawn = float.fromhex(data.draw(st.sampled_from(full))[0])
        for cutoff in (
            lower[sid], drawn, math.nextafter(drawn, math.inf), math.nextafter(drawn, -math.inf)
        ):
            bounded = _listing(lambda: _candidates(attempt, sid, cutoff))
            assert bounded == [item for item in full if float.fromhex(item[0]) <= cutoff]
            if cutoff >= lower[sid]:  # the recursive search assumed this
                assert bounded == _listing(lambda: reference(sid, lower, cutoff))


def _without(links, dropped):
    """A copy of ``links`` without the link time of edge ``dropped``."""
    kept = QoSMatrix()
    for (a, b), ms in links.items():
        if (a, b) != dropped:
            kept.set(a, b, ms)
    return kept


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(dag_instances(), wide_instances(link_or_qos), layered_random_instances()),
    st.data(),
)
def test_a_missing_link_raises_only_where_the_recursive_search_priced_it(instance, data):
    services, template, table = instance
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    assume(graph.edges)
    dropped = data.draw(st.sampled_from(sorted(graph.edges)))
    links = _without(links, dropped)
    svc = service_map(services)
    old_succ, shared_edge = reference_index(graph, svc)
    errors = (InsufficientServices, MissingLinkQoS)
    for sid in sorted(s.id for s in services if s.type == template.starting_type()):
        assert _listing(
            lambda: enumerate_candidates(graph, links, template, sid, svc), errors
        ) == _listing(
            lambda: reference_candidates(old_succ, shared_edge, links, template._specs, sid, svc), errors
        )


def test_a_missing_link_that_no_candidate_picks_is_not_read():
    # A1's tC pair picks none of its targets; B2 is A2's.  A k=0 pair is
    # not a valid template, so the graph is built by hand.
    services = [ServiceDescriptor(sid, "tA", 0.5, 2) for sid in ("A1", "A2")]
    services += [ServiceDescriptor(sid, "tB", 0.1, 2) for sid in ("B1", "B2")]
    services += [ServiceDescriptor("C1", "tC", 0.7, 2)]
    template = ApplicationTemplate((("tA", "tB"), ("tA", "tC")), (1, 0))
    table = {("A1", "B1"): 0.2, ("A1", "C1"): 0.3, ("A2", "B2"): 0.4, ("A2", "C1"): 0.1}
    graph = AssemblyGraph(frozenset(s.id for s in services), frozenset(table))
    links = QoSMatrix()
    for (a, b), ms in table.items():
        links.set(a, b, ms)
    expected = enumerate_candidates(graph, links, template, "A1", services)
    assert [c.edges for c in expected] == [(("A1", "B1"),)]
    for dropped in (("A1", "C1"), ("A2", "B2")):
        assert enumerate_candidates(graph, _without(links, dropped), template, "A1", services) == expected
    with pytest.raises(MissingLinkQoS, match="'A1', 'B1'"):
        enumerate_candidates(graph, _without(links, ("A1", "B1")), template, "A1", services)


def test_walker_prices_a_sink_that_a_binder_above_the_deepest_level_picks():
    # A diamond: t0 picks a t2 sink directly and a t1 binder that picks one
    # too.  The deepest level with pairs is t1's, so t0's sink is priced
    # from its qos in the binders above it.
    services = [
        ServiceDescriptor("A", "t0", 0.1, 1),
        ServiceDescriptor("B1", "t1", 0.7, 2),
        ServiceDescriptor("B2", "t1", 0.3, 2),
        ServiceDescriptor("C1", "t2", 0.2, 3),
        ServiceDescriptor("C2", "t2", 1.1, 3),
    ]
    template = ApplicationTemplate((("t0", "t1"), ("t0", "t2"), ("t1", "t2")), (1, 1, 1))
    values = iter([0.3, 0.1, 0.7, 2.9, 0.2, 1.3, 0.6, 0.4])
    table = {(a, b): next(values) for a, b in (
        ("A", "B1"), ("A", "B2"), ("A", "C1"), ("A", "C2"),
        ("B1", "C1"), ("B1", "C2"), ("B2", "C1"), ("B2", "C2"),
    )}
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    svc = service_map(services)
    attempt = _Attempt(template, svc, _index(links._entries.items(), svc))
    full = _candidates(attempt, "A")
    assert len(full) == 8 == _count(attempt, "A")
    old_succ, shared_edge = reference_index(graph, svc)
    assert _listing(lambda: full) == _listing(
        lambda: reference_candidates(old_succ, shared_edge, links, attempt.specs, "A", svc)
    )
    for candidate in full:
        reference = worst_path_time(candidate.graph, "A", svc, links)
        assert candidate.cost.hex() == reference.hex()
    _least_costs_over(attempt, graph.nodes)
    for candidate in full:
        assert _candidates(attempt, "A", candidate.cost) == [
            c for c in full if c.cost <= candidate.cost
        ]


def test_binders_whose_all_pairs_find_no_targets_are_worth_their_qos():
    # No service of tX or tY exists, so B and C pick nothing: B above the
    # deepest level with pairs, C at it.
    services = [
        ServiceDescriptor("A1", "tA", 0.1, 2),
        ServiceDescriptor("B1", "tB", 0.7, 2),
        ServiceDescriptor("B2", "tB", 0.3, 2),
        ServiceDescriptor("C1", "tC", 1.1, 2),
        ServiceDescriptor("C2", "tC", 0.2, 2),
    ]
    template = ApplicationTemplate(
        (("tA", "tB"), ("tA", "tC"), ("tB", "tX"), ("tC", "tY")), (1, 1, ALL, ALL)
    )
    table = {("A1", "B1"): 0.3, ("A1", "B2"): 0.9, ("A1", "C1"): 0.1, ("A1", "C2"): 0.7}
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    svc = service_map(services)
    candidates = enumerate_candidates(graph, links, template, "A1", svc)
    assert len(candidates) == 4
    for candidate in candidates:
        reference = worst_path_time(candidate.graph, "A1", svc, links)
        assert candidate.cost.hex() == reference.hex()


def test_a_level_no_binder_reaches_has_one_empty_assignment():
    # No tB service exists, so A1's ALL pair picks nothing and the tB level,
    # between tA and tD, has no binder: the walk passes it with one empty
    # assignment and goes on to tD.
    services = [ServiceDescriptor("A1", "tA", 0.1, 2), ServiceDescriptor("C1", "tC", 0.5, 2)]
    services += [ServiceDescriptor(f"D{i}", "tD", 0.2 * i, 2) for i in (1, 2)]
    services += [ServiceDescriptor(f"E{i}", "tE", 0.3 * i, 2) for i in (1, 2)]
    template = ApplicationTemplate(
        (("tA", "tB"), ("tB", "tC"), ("tA", "tD"), ("tD", "tE")), (ALL, 1, 1, 1)
    )
    table = {("A1", "D1"): 0.7, ("A1", "D2"): 0.1}
    table.update({(d, e): 0.4 if e == "E1" else 0.3 for d in ("D1", "D2") for e in ("E1", "E2")})
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    svc = service_map(services)
    attempt = _Attempt(template, svc, _index(links._entries.items(), svc))
    assert attempt.levels == ["tA", "tB", "tD"]
    full = enumerate_candidates(graph, links, template, "A1", svc)
    old_succ, shared_edge = reference_index(graph, svc)
    assert full == reference_candidates(old_succ, shared_edge, links, attempt.specs, "A1", svc)
    assert len(full) == 4
    for candidate in full:
        assert candidate.cost.hex() == worst_path_time(candidate.graph, "A1", svc, links).hex()
    _least_costs_over(attempt, graph.nodes)
    assert _candidates(attempt, "A1", attempt.lower["A1"]) == full[:1]
    result = assemble(services, template, make_net(services, MatrixLatency(table)))
    assert result.chosen == {"A1": full[0]}


def test_a_start_with_two_pairs_lists_its_edges_sorted():
    # The start is the only binder; its tB picks come first in pick order
    # but sort after its tC picks.
    services = [ServiceDescriptor("A", "tA", 0.5, 1)]
    services += [ServiceDescriptor(sid, "tB", 0.1, 1) for sid in ("Z1", "Z2")]
    services += [ServiceDescriptor(sid, "tC", 0.7, 1) for sid in ("C1", "C2")]
    template = ApplicationTemplate((("tA", "tB"), ("tA", "tC")), (1, 1))
    table = {("A", "Z1"): 0.2, ("A", "Z2"): 0.4, ("A", "C1"): 0.3, ("A", "C2"): 0.1}
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    candidates = enumerate_candidates(graph, links, template, "A", service_map(services))
    assert len(candidates) == 4
    assert all(c.edges == tuple(sorted(c.edges)) for c in candidates)


@pytest.mark.parametrize("tight", ["B1", "B2"])
def test_a_node_picked_by_two_binders_keeps_the_smaller_headroom(tight):
    # A picks both Bs; the tight one costs A its least cost, the other has
    # slack.  When both pick C1, C1 may not take the dearer D2, whichever
    # of the two binders is expanded first.
    services = [ServiceDescriptor(sid, f"t{sid[0]}", 0.0, 2) for sid in (
        "A", "B1", "B2", "C1", "C2", "D1", "D2"
    )]
    template = ApplicationTemplate(
        (("tA", "tB"), ("tB", "tC"), ("tC", "tD")), (ALL, 1, 1)
    )
    table = {("A", b): 10.0 if b == tight else 0.0 for b in ("B1", "B2")}
    table.update({(b, c): 5.0 if c == "C2" else 0.0 for b in ("B1", "B2") for c in ("C1", "C2")})
    table.update({(c, d): 3.0 if d == "D2" else 0.0 for c in ("C1", "C2") for d in ("D1", "D2")})
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    svc = service_map(services)
    attempt = _Attempt(template, svc, _index(links._entries.items(), svc))
    _least_costs_over(attempt, graph.nodes)
    lower = attempt.lower
    full = _candidates(attempt, "A")
    plateau = _candidates(attempt, "A", lower["A"])
    assert lower["A"] == 10.0
    assert plateau == [c for c in full if c.cost <= 10.0]
    assert (tight, "C1") in {edge for c in plateau for edge in c.edges}
    # The listing drops what the walk reaches past the cutoff, so only the
    # walk shows the headroom kept: with the larger one, C1 reaches D2 too.
    assert _walked(attempt, "A", lower["A"]) == len(plateau)


def _walked(attempt, start_id, cutoff):
    """How many candidates the walk bounded by ``cutoff`` reaches."""
    return sum(
        math.prod(count_combinations(len(pool), k) for _, _, k, pool in pairs)
        for _, pairs in _branches(attempt, start_id, cutoff)
    )


def test_a_candidate_an_ulp_past_the_cutoff_is_walked_but_not_listed():
    # A's plateau costs 2.0 through C1, and C2 costs one ulp more.  B's
    # headroom is a bound a few ulps above 1.0, so the walk reaches C2 and
    # only the listing's cost test keeps it off the plateau.
    services = [ServiceDescriptor(sid, f"t{sid[0]}", 0.0, 1) for sid in ("A", "B", "C1", "C2")]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    table = {("A", "B"): 1.0, ("B", "C1"): 1.0, ("B", "C2"): 1.0 + 2.0 ** -51}
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    svc = service_map(services)
    attempt = _Attempt(template, svc, _index(links._entries.items(), svc))
    _least_costs_over(attempt, graph.nodes)
    full = _candidates(attempt, "A")
    assert [c.cost for c in full] == [2.0, math.nextafter(2.0, 3.0)]
    assert _walked(attempt, "A", 2.0) == 2
    assert _candidates(attempt, "A", 2.0) == full[:1]


# Values whose sums round: tiny next to large, non-dyadic, zero and huge.
headroom_values = st.one_of(
    link_or_qos,
    st.sampled_from([0.0, 5e-324, 1e-300, 0.1, 0.7, 1e16, 1e300]),
    st.floats(min_value=0.0, max_value=1e-12),
)


@settings(max_examples=500, deadline=None)
@given(headroom_values, headroom_values, headroom_values, headroom_values)
def test_headroom_bounds_the_largest_worth_that_fits(qos, ms, floor, extra):
    limit = qos + (ms + floor) + extra  # so that floor fits
    assume(limit < math.inf)
    exact = reference_headroom(qos, ms, limit, floor)
    assert qos + (ms + exact) <= limit < qos + (ms + math.nextafter(exact, math.inf))
    room = _headroom(qos, ms, limit)
    assert room >= exact >= floor
    assert room <= exact + limit * 2.0 ** -48  # a few ulps of limit at most
    for big in (qos, math.inf):  # a service's qos and a link's time may be inf
        assert _headroom(big, ms, math.inf) == _headroom(qos, math.inf, math.inf) == math.inf


# ------------------------------------------------- single-pass service parsing


def _reference_check_keys(obj, required, optional, where):
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ScenarioFormatError(f"{where}: missing key(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown key(s) {sorted(unknown)}")


def _reference_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, int) and abs(value) >= 2 ** 1024 - 2 ** 970:  # float() overflows
        raise ScenarioFormatError(f"{where}.qos_ms: integer too large for a float")
    if value in (math.inf, -math.inf):
        raise ScenarioFormatError(f"{where}.qos_ms: must be finite, got {float(value)}")
    return float(value)


def reference_parse_service(obj, where):
    """The service-entry parser as it was: every check in turn."""
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    _reference_check_keys(obj, {"id", "type", "qos_ms", "threshold"}, set(), where)
    if not isinstance(obj["id"], str) or not isinstance(obj["type"], str):
        raise ScenarioFormatError(f"{where}: id and type must be strings")
    if isinstance(obj["threshold"], bool) or not isinstance(obj["threshold"], int):
        raise ScenarioFormatError(f"{where}: threshold must be an integer")
    try:
        return ServiceDescriptor(
            obj["id"], obj["type"], _reference_number(obj["qos_ms"], where), obj["threshold"]
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from None


class _Dict(dict):
    pass


class _Int(int):
    pass


class _Float(float):
    pass


ODD_VALUES = {
    "id": ["", "x", "1", None, 1, True, []],
    "type": ["", "tZ", None, 2.5, ["tA"]],
    "qos_ms": [True, False, "2", None, math.nan, -0.5, -1e-300, -0.0, 0, 10 ** 20, math.inf,
               -math.inf, _Int(2), _Float(1.5), 10 ** 400, -(10 ** 400),
               5e-324, 1.7976931348623157e308, 2 ** 1023],
    "threshold": [True, False, 1.0, 2.5, "1", None, 0, -1, 10 ** 20, _Int(2), _Float(2.0),
                  2 ** 63],
}


@st.composite
def service_entries(draw, prefix):
    """A well-formed service entry, or one with a mutation: odd values for
    one or two keys, a key dropped, extra keys, a dict subclass, or no dict
    at all.  Ids start with ``prefix`` unless replaced."""
    entry = {
        "id": f"{prefix}{draw(st.integers(1, 3))}",
        "type": draw(st.sampled_from(["tA", "tB"])),
        "qos_ms": draw(st.sampled_from([0, 3, 0.5, 2.25])),
        "threshold": draw(st.sampled_from([1, 2, 7])),
    }
    mutation = draw(st.sampled_from(["none", "odd", "odd", "odd", "drop", "extra", "shape"]))
    if mutation == "odd":
        for key in draw(st.sets(st.sampled_from(sorted(entry)), min_size=1, max_size=2)):
            entry[key] = draw(st.sampled_from(ODD_VALUES[key]))
    elif mutation == "drop":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif mutation == "extra":
        for extra in draw(st.sets(st.sampled_from(["extra", "ID", "qos"]), min_size=1, max_size=2)):
            entry[extra] = 1
    elif mutation == "shape":
        return draw(st.sampled_from([_Dict(entry), list(entry.items()), "S1", None, 3]))
    return entry


def _parsed(parse):
    try:
        return parse()
    except ScenarioFormatError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(service_entries("S"), max_size=3),
    st.one_of(st.none(), service_entries("E")),
)
def test_single_pass_service_parsing_matches_the_checked_parser(entries, appearing):
    events = [] if appearing is None else [
        {"at_ms": 1, "kind": "service_appears", "service": appearing}
    ]
    document = {
        "services": entries,
        "template": {"body": [["tA", "tB"]], "constraints": [1]},
        "links": {"kind": "uniform", "base_ms": 1},
        "events": events,
    }

    def reference():
        services = [reference_parse_service(e, f"services[{i}]") for i, e in enumerate(entries)]
        if len({s.id for s in services}) != len(services):
            raise ScenarioFormatError("services: duplicate ids")
        parsed = [ScenarioEvent.appears(1.0, reference_parse_service(appearing, "events[0].service"))
                  for _ in events]
        if parsed and parsed[0].service.id in {s.id for s in services}:  # an odd id of both
            raise ScenarioFormatError(f"events[0]: service {parsed[0].service.id!r} is already live")
        return repr((services, parsed))  # tells 3 from 3.0 and -0.0 from 0.0

    def single_pass():
        scenario = parse_scenario(document)
        return repr((scenario.services, scenario.events))

    assert _parsed(single_pass) == _parsed(reference)


# ------------------------------------------------- decoding scenario text


def reference_parse_text(text):
    """``parse_scenario`` of text as it was: ``json.loads``, then the checks."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ScenarioFormatError(f"not valid JSON: {exc}") from None
    return scenario_module._parse_decoded(obj, owned=True)


@st.composite
def generated_scenarios(draw):
    """A small scenario from one of the generators, its links sometimes
    uniform or seeded, with up to three events on its ids."""
    seed = draw(st.integers(0, 2 ** 16))
    maker = draw(st.sampled_from(["one_layer", "pyramidal", "medical", "random"]))
    if maker == "one_layer":
        scenario = scenario_module.generate_one_layer(
            draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, "half", "all"])), seed)
    elif maker == "pyramidal":
        scenario = scenario_module.generate_pyramidal(
            draw(st.integers(2, 5)), draw(st.sampled_from([1, 2, "all"])), seed)
    elif maker == "medical":
        scenario = generate_medical(seed)
    else:
        services, template, links = generate_random_instance(seed)
        scenario = Scenario(services, template, MatrixLatency(dict(links.items())))
    links = draw(st.sampled_from(["matrix", "uniform", "seeded"]))
    if links == "uniform":
        scenario.links = UniformLatency(draw(link_or_qos))
    elif links == "seeded":
        scenario.links = SeededLatency(draw(link_or_qos), draw(link_or_qos),
                                       draw(st.integers(0, 2 ** 64)))
    ids = sorted(s.id for s in scenario.services)
    at = 0.0
    for index in range(draw(st.integers(0, 3))):
        at += draw(link_or_qos)
        kind = draw(st.sampled_from(EVENT_KINDS))
        if kind == "service_appears":
            event = ScenarioEvent.appears(at, ServiceDescriptor(f"N{index}", "tB", 1.5, 2))
        elif kind == "link_degrades":
            event = ScenarioEvent.link_degrades(
                at, draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(link_or_qos))
        else:
            event = ScenarioEvent(at, EventKind(kind), service_id=draw(st.sampled_from(ids)))
        scenario.events.append(event)
    return scenario


# A JSON number that is not part of a string.
NUMBER = re.compile(r"(?<=[\s:\[,])-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?=[\s,\]}])")
# Literals json reads and orjson refuses or reads otherwise, and the edges
# around them: 64-bit ints, the largest ints a float holds, signed zeros.
EDGE_LITERALS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400,
                 str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(10 ** 20), str(-(2 ** 63) - 1),
                 str(2 ** 1024 - 2 ** 970 - 1), str(2 ** 1024 - 2 ** 970),
                 str(2 ** 1024 - 2 ** 970 + 1), "-0", "-0.0", "0", "1"]
# Any JSON number: up to 25 digits either side of the point, and an exponent.
float_literals = st.from_regex(r"\A-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?\Z")
number_literals = st.one_of(st.sampled_from(EDGE_LITERALS), float_literals,
                            st.floats(allow_nan=False, allow_infinity=False).map(repr))


def _mutate_text(text, draw):
    """One text-level mutation: a number becomes another literal or a nest
    past 1024 levels, an id gains a lone-surrogate escape, a key appears
    twice, or a BOM, a trailing comma or trailing text is added."""
    what = draw(st.sampled_from(["number", "number", "nest", "surrogate", "duplicate", "bom",
                                 "comma", "trailing"]))
    if what in ("number", "nest"):
        spots = list(NUMBER.finditer(text))
        if not spots:
            return text
        spot = draw(st.sampled_from(spots))
        depth = draw(st.sampled_from([1025, 3000]))
        value = draw(number_literals) if what == "number" else "[" * depth + "]" * depth
        return text[:spot.start()] + value + text[spot.end():]
    if what == "surrogate":
        sid = draw(st.sampled_from(sorted(set(re.findall(r'"[A-Z]\w*"', text)))))
        escaped = sid[:-1] + '\\ud800"'
        if draw(st.booleans()):  # every occurrence, so that links and events still match
            return text.replace(sid, escaped)
        return text.replace(sid, escaped, 1)
    if what == "duplicate":
        key = draw(st.sampled_from(list(re.finditer(r'"\w+": ', text))))
        return text[:key.start()] + key.group() + draw(number_literals) + ", " + text[key.start():]
    if what == "bom":
        return "\ufeff" + text
    if what == "comma":
        value_end = draw(st.sampled_from(list(re.finditer(r'[^\[{\s](?=\s*[\]}])', text))))
        return text[:value_end.end()] + "," + text[value_end.end():]
    return text + draw(st.sampled_from(["x", "{}", "1", " ", "\n\n"]))


def _float_bits(value):
    """The bits of every float reachable from a parsed scenario, in order."""
    if isinstance(value, float):
        yield value.hex()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _float_bits(item)
    elif isinstance(value, dict):
        for pair in value.items():
            yield from _float_bits(pair)
    elif isinstance(value, MatrixLatency):
        yield from _float_bits(value.entries)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _float_bits(getattr(value, field.name))


def _decoded(parse, text):
    """What parsing ``text`` gives: the scenario's repr, a matrix's entries
    and every float's bits, or the error's class and message."""
    try:
        scenario = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(scenario), repr(getattr(scenario.links, "entries", None)), list(_float_bits(scenario))


@settings(max_examples=300, deadline=None)
@given(generated_scenarios(), st.integers(0, 3), st.data())
def test_parse_scenario_decodes_text_as_json_does(scenario, n_mutations, data):
    text = serialize_scenario(scenario)
    for _ in range(n_mutations):
        text = _mutate_text(text, data.draw)
    assert _decoded(parse_scenario, text) == _decoded(reference_parse_text, text)


# ------------------------------------------------- template-typed live index


def reference_run_scenario(initial, template, events, net, *, budget=DEFAULT_COMBINATION_BUDGET):
    """``run_scenario`` as it was: every attempt hands the whole live
    registry, bystanders included, to ``assemble``."""
    live = {}
    for descriptor in sorted(initial, key=lambda s: s.id):
        if descriptor.id not in net.live_ids():
            net.announce(descriptor)
        live[descriptor.id] = descriptor
    timeline = []
    committed = None

    def attempt(at, trigger, exclude=None):
        nonlocal committed
        pool = [d for d in live.values() if d.id != exclude]
        try:
            committed = assemble(pool, template, net, budget=budget)
            entry = TimelineEntry(at, trigger, committed, None, committed.combinations_tested)
        except Infeasible as exc:
            committed = None
            entry = TimelineEntry(at, trigger, None, str(exc), exc.combinations_tested)
        except (InsufficientServices, NoStartingService, CombinationBudgetExceeded) as exc:
            committed = None
            entry = TimelineEntry(at, trigger, None, str(exc), 0)
        timeline.append(entry)
        net.log_event("reassembly", None, None, trigger=trigger, feasible=entry.feasible)

    def uses(sid):
        return committed is not None and sid in committed.assembly.nodes

    attempt(0.0, "initial")
    for event in events:
        if event.at > net.clock:
            net.advance(event.at)
        if event.kind is EventKind.SERVICE_APPEARS:
            net.announce(event.service)
            live[event.service.id] = event.service
            attempt(event.at, f"service_appears:{event.service.id}")
        elif event.kind is EventKind.SERVICE_DISAPPEARS:
            sid = event.service_id
            used = uses(sid)
            net.withdraw(sid)
            del live[sid]
            if used:
                attempt(event.at, f"service_disappears:{sid}")
        elif event.kind is EventKind.LINK_DEGRADES:
            link = (event.link_from, event.link_to)
            net.degrade_link(*link, event.new_ms)
            if committed is not None and link in committed.assembly.edges:
                attempt(event.at, f"link_degrades:{link[0]}->{link[1]}")
        else:
            sid = event.service_id
            net.log_event("out_contract", sid, None, status="OutContract", cause="Injected")
            if uses(sid):
                attempt(event.at, f"out_contract:{sid}", exclude=sid)
    return timeline


CHURN_TYPES = ["tA", "tB", "tC", "tX", "tY"]


@st.composite
def churn_worlds(draw, qos_values=None):
    """A two-pair template over a few services of its types plus
    bystanders of two other types, sometimes a small budget, and a churn
    trace whose events name only ids live at their time: appearances of
    either kind, withdrawals, link degradations and out-of-contract
    reports, of template services (often committed ones) and bystanders
    alike.  Some events come in runs: bystander events that reach no
    template service, and degradations of one link, often outside the
    assembly, now and then to its current value.  A withdrawn id may be
    announced again with another qos or threshold over the same links.
    Links are jittered, or a matrix over the template's pairs with some
    left out, which a degradation may fill; ``latency`` makes a fresh
    model per run.  Unless ``qos_values`` is given, a third of the worlds
    draw qos and matrix values mostly of ``0.0`` and ``-0.0``; a
    degradation may set either, so a cost's sign shows whether it was
    priced again."""
    zeros = qos_values is None and draw(st.integers(0, 2)) == 0
    if qos_values is None:
        qos_values = (-0.0, 0.0) if zeros else (0.5, 1.0, 2.5)

    def service(sid, service_type):
        qos = -0.0 if zeros else draw(st.sampled_from(qos_values))
        return ServiceDescriptor(sid, service_type, qos, draw(st.integers(1, 3)))

    widths = {"tA": (1, 3), "tB": (1, 3), "tC": (1, 2), "tX": (0, 4), "tY": (0, 3)}
    services = [
        service(f"{t}{i}", t) for t, (low, high) in widths.items()
        for i in range(draw(st.integers(low, high)))
    ]
    by_id = {s.id: s for s in services}  # the latest descriptor of each id
    live, degraded = [s.id for s in services], {}
    events = []
    at = 0.0

    def appear(descriptor):
        events.append(ScenarioEvent.appears(at, descriptor))
        live.append(descriptor.id)
        by_id[descriptor.id] = descriptor

    def withdraw(sid):
        events.append(ScenarioEvent.disappears(at, sid))
        live.remove(sid)

    for fresh in range(draw(st.integers(0, 8))):
        at += draw(st.sampled_from([0.0, 5.0, 10.0]))
        kind = draw(st.sampled_from(  # "returns" twice: a new qos shows only if it changes a choice
            ["appears", "returns", "disappears", "degrades", "out_contract", "bystanders", "returns"]
            + ["degrades"] * (3 if zeros else 0)  # a zero link's sign shows only after it flips
        ))
        downstream = [sid for sid in live if by_id[sid].type in ("tB", "tC")]
        if kind == "appears" or len(live) < 2 or kind == "returns" and not downstream:
            appear(service(f"n{fresh}", draw(st.sampled_from(CHURN_TYPES))))
        elif kind == "returns":  # a withdrawal the committed assembly may not notice
            old = by_id[draw(st.sampled_from(downstream))]
            withdraw(old.id)
            at += draw(st.sampled_from([0.0, 5.0]))
            qos = draw(st.sampled_from([q for q in qos_values if q.hex() != old.qos_nominal.hex()]))
            appear(old._replace(qos_nominal=qos, threshold=draw(st.integers(1, 3))))
        elif kind == "disappears":
            withdraw(draw(st.sampled_from(live)))
        elif kind == "degrades":  # a sensor-gateway link is often a committed one
            pairs = [
                (a, b) for a in live for b in live
                if (by_id[a].type, by_id[b].type) in (("tA", "tB"), ("tB", "tC"))
            ]
            link = draw(st.sampled_from(pairs)) if pairs and (zeros or draw(st.booleans())) else (
                draw(st.sampled_from(live)), draw(st.sampled_from(live)))
            for _ in range(draw(st.integers(1, 3))):
                ms = draw(st.sampled_from([0.0, -0.0, 9.0, degraded.get(link, 9.0)]))
                degraded[link] = ms
                events.append(ScenarioEvent.link_degrades(at, *link, ms))
        elif kind == "bystanders":
            for step in range(draw(st.integers(1, 3))):
                idle = [sid for sid in live if by_id[sid].type in ("tX", "tY")]
                what = draw(st.sampled_from(["appears", "disappears", "out_contract"]))
                if what == "appears" or not idle:
                    appear(service(f"n{fresh}x{step}", draw(st.sampled_from(["tX", "tY"]))))
                elif what == "disappears":
                    withdraw(draw(st.sampled_from(idle)))
                else:
                    sid = draw(st.sampled_from(idle))
                    events.append(ScenarioEvent.inject_out_contract(at, sid))
        else:
            events.append(ScenarioEvent.inject_out_contract(at, draw(st.sampled_from(live))))
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (draw(st.integers(1, 2)), 1))
    seed = draw(st.integers(0, 2 ** 16))
    budget = draw(st.sampled_from([DEFAULT_COMBINATION_BUDGET] * 3 + [1]))
    latency = partial(SeededLatency, 2.0, 1.5, seed)
    if zeros or draw(st.booleans()):
        rng = random.Random(seed)
        types = {sid: descriptor.type for sid, descriptor in by_id.items()}  # an id keeps its type
        table = {
            (a, b): -0.0 if zeros else rng.choice(qos_values)
            for x, y in template.body for a in types for b in types
            if (types[a], types[b]) == (x, y) and (zeros or rng.random() < 0.75)
        }
        latency = partial(MatrixLatency, table)
    return services, template, events, seed, budget, latency


def _churn(run, world):
    services, template, events, _seed, budget, latency = world
    net = Simulator(latency())
    timeline = run(services, template, events, net, budget=budget)
    entries = [(entry.trigger, entry.reason, _exactly(entry.result)) for entry in timeline]
    return timeline_jsonl(timeline), net.trace_jsonl(), entries


@settings(max_examples=300, deadline=None)
@given(churn_worlds())
def test_template_typed_index_matches_handing_over_the_whole_registry(world):
    assert _churn(run_scenario, world) == _churn(reference_run_scenario, world)


@settings(max_examples=100, deadline=None)
@given(churn_worlds())
def test_every_record_is_stamped_forward_in_time(world):
    """Trace and timeline times are finite, never decrease, and each
    timeline entry shares its time with its ``reassembly`` record."""
    services, template, events, _seed, budget, latency = world
    net = Simulator(latency())
    timeline = run_scenario(services, template, events, net, budget=budget)
    records = net.trace_records()
    timeline_times = [entry.to_json_obj()["t"] for entry in timeline]
    for times in ([rec["t"] for rec in records], timeline_times):
        assert all(math.isfinite(t) for t in times)
        assert all(earlier <= later for earlier, later in zip(times, times[1:]))
    assert [rec["t"] for rec in records if rec["kind"] == "reassembly"] == timeline_times


@settings(max_examples=200, deadline=None)
@given(churn_worlds())
def test_a_rerun_raises_only_the_classes_its_timeline_records(world):
    """Every error an ``assemble`` of ``run_scenario`` raises is one of the
    four classes ``attempt`` turns into a timeline entry.  No other can
    occur: ``_Reuse`` checks the template before anything is announced (no
    ``TemplateInvalid``); the flood's index holds a link for every pick (no
    ``MissingLinkQoS``); every sender is a live typed service (no
    ``PeerUnknown``); and ``measure_links`` turns ``LatencyUndefined`` into
    an ``unmeasurable`` record."""
    services, template, events, _seed, budget, latency = world
    real, raised = runtime.assemble, []

    def recorded(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except Exception as exc:
            raised.append(type(exc))
            raise

    with mock.patch.object(runtime, "assemble", recorded):
        run_scenario(services, template, events, Simulator(latency()), budget=budget)
    assert set(raised) <= {Infeasible, InsufficientServices, NoStartingService, CombinationBudgetExceeded}


ORACLE_COMBINATION_CAP = 500  # per attempt: the product of the starts' subgraph counts


def _links_cover_the_template(world):
    """Whether every pair of the world's ids that the template pairs has a
    link: jittered links always do, a matrix only when it has no hole."""
    services, template, events, _seed, _budget, latency = world
    if latency.func is SeededLatency:
        return True
    table = latency.args[0]
    types = {s.id: s.type for s in services}
    types.update((e.service.id, e.service.type) for e in events if e.service is not None)
    pairs = set(template.body)
    return all((a, b) in table for a in types for b in types if (types[a], types[b]) in pairs)


@settings(max_examples=120, deadline=None)
@given(churn_worlds().filter(_links_cover_the_template))
def test_each_reassembly_agrees_with_the_exhaustive_oracle(world):
    """Each timeline entry agrees with :func:`exhaustive_assemblies` over
    the services its ``assemble`` was handed and the links its flood
    measured.  A committed entry is one of the oracle's feasible
    assemblies and passes ``check_assembly``, each chosen cost its worst
    path; an ``Infeasible`` entry has no feasible assembly; and any other
    entry the oracle could serve is ``InsufficientServices`` or
    budget-exceeded.  Entries with more than ``SMALL_INSTANCE_BOUND``
    services or ``ORACLE_COMBINATION_CAP`` combinations are skipped.  A
    matrix with holes is left out: the oracle would pick targets over
    pairs the flood never measured."""
    services, template, events, _seed, budget, latency = world
    real_assemble, real_flood = runtime.assemble, assembler.build_binding_graph
    attempts = []  # per attempt: [pool, measured links, result or error class]

    def flood(*args, **kwargs):
        graph, links = real_flood(*args, **kwargs)
        attempts[-1][1] = links
        return graph, links

    def recorded(pool, *args, **kwargs):
        attempts.append([list(pool), QoSMatrix(), None])  # no flood without a start
        try:
            attempts[-1][2] = real_assemble(attempts[-1][0], *args, **kwargs)
        except SelfAssemblyError as exc:
            attempts[-1][2] = type(exc)
            raise
        return attempts[-1][2]

    with mock.patch.object(runtime, "assemble", recorded), \
            mock.patch.object(assembler, "build_binding_graph", flood):
        timeline = run_scenario(services, template, events, Simulator(latency()), budget=budget)
    assert len(attempts) == len(timeline)
    for entry, (pool, links, outcome) in zip(timeline, attempts):
        svc = service_map(pool)
        starts = [sid for sid, d in svc.items() if d.type == template.starting_type()]
        if len(pool) > SMALL_INSTANCE_BOUND or math.prod(
            len(_subgraphs_from(sid, template, svc)) for sid in starts
        ) > ORACLE_COMBINATION_CAP:
            continue
        report = exhaustive_assemblies(pool, template, links)
        if entry.feasible:
            assert entry.result is outcome
            assert outcome.assembly in report.feasible_assemblies
            assert check_assembly(outcome, pool, template) == []
            for sid, candidate in outcome.chosen.items():
                graph = AssemblyGraph.from_edges(candidate.edges, extra_nodes=(sid,))
                assert math.isclose(candidate.cost, exhaustive_worst_path(graph, sid, svc, links))
        elif outcome is Infeasible:
            assert not report.feasible
        elif report.feasible:
            # The assembler fails a whole start when a node it could include
            # is short of targets; the oracle picks around that node.
            assert outcome in (InsufficientServices, CombinationBudgetExceeded)


@st.composite
def unchecked_events(draw):
    """Events on ids that are live, unknown, withdrawn or re-announced, at
    times >= 0 that now and then run backwards."""
    ids = st.sampled_from(["A1", "B2", "B3", "C1", "N1", "ZZ"])
    events, at = [], 0.0
    for _ in range(draw(st.integers(0, 5))):
        at = max(0.0, at + draw(st.sampled_from([0.0, 1.0, 2.5, -1.0])))
        kind = draw(st.sampled_from(list(EventKind)))
        if kind is EventKind.SERVICE_APPEARS:
            events.append(ScenarioEvent.appears(at, ServiceDescriptor(draw(ids), "tB", 1.0, 2)))
        elif kind is EventKind.SERVICE_DISAPPEARS:
            events.append(ScenarioEvent.disappears(at, draw(ids)))
        elif kind is EventKind.LINK_DEGRADES:
            events.append(ScenarioEvent.link_degrades(at, draw(ids), draw(ids), 3.0))
        else:
            events.append(ScenarioEvent.inject_out_contract(at, draw(ids)))
    return events


@settings(max_examples=200, deadline=None)
@given(unchecked_events())
def test_parse_and_replay_reject_the_same_events_alike(events):
    """A document's events fail to parse exactly when their replay on a
    fresh simulator fails, with the same message and before any record."""
    services, template = seven_services(), seven_template()
    document = serialize_scenario(Scenario(services, template, UniformLatency(1.0), events))
    try:
        parse_scenario(document)
        parsed = None
    except ScenarioFormatError as exc:
        parsed = str(exc)
    net = Simulator(UniformLatency(1.0))
    try:
        run_scenario(services, template, events, net)
        replayed = None
    except ValueError as exc:
        replayed = str(exc)
        assert (net.trace_records(), net.clock) == ([], 0.0)
    assert parsed == replayed


def test_run_scenario_hands_assemble_only_template_typed_services(monkeypatch):
    scenario = generate_medical(0)
    types = scenario.template.types()
    bystanders = [ServiceDescriptor(f"X{i}", "tX", 1.0, 1) for i in range(5)]
    events = [
        ScenarioEvent.appears(10.0, ServiceDescriptor("X9", "tX", 1.0, 1)),
        ScenarioEvent.appears(20.0, ServiceDescriptor("B10", "tB", 1.0, 10)),
        ScenarioEvent.disappears(30.0, "X0"),
        ScenarioEvent.inject_out_contract(40.0, "A1"),
    ]
    handed = []

    def spy(services, template, net, **options):
        services = list(services)
        handed.append(sorted(s.id for s in services if s.type not in types))
        return assemble(services, template, net, **options)

    monkeypatch.setattr(runtime, "assemble", spy)
    timeline = run_scenario(
        scenario.services + bystanders, scenario.template, events, Simulator(UniformLatency(1.0))
    )
    assert [entry.trigger for entry in timeline] == [
        "initial", "service_appears:X9", "service_appears:B10", "out_contract:A1"
    ]
    assert all(entry.feasible for entry in timeline)
    assert handed == [[], [], [], []]


# ------------------------------------------------------------ deferred trace


class EagerTraceSimulator(Simulator):
    """The simulator as it traced before: ``announce``, ``measure_link`` and
    ``measure_links`` (the flood's only measurement call) build each trace
    record as a dict when the event happens, instead of a tuple rendered
    when the trace is read, and return each time as the model gave it."""

    def announce(self, *services):
        seen = set()
        for service in services:  # nothing is registered if an id repeats
            if service.id in self._live or service.id in seen:
                raise DuplicateId(f"service {service.id!r} is already announced")
            seen.add(service.id)
        for service in services:
            self._live[service.id] = None
            detail = {
                "type": service.type, "qos_ms": service.qos_nominal, "threshold": service.threshold
            }
            self._trace.append(
                {"t": self.clock, "kind": "announce", "from": service.id, "to": None, "detail": detail}
            )

    def measure_link(self, from_id, to_id):
        for sid in (from_id, to_id):
            if sid not in self.live_ids():
                raise PeerUnknown(f"service {sid!r} is not live")
        link_ms = self.link_latency(from_id, to_id)
        self._log_measure(from_id, to_id, link_ms)
        return link_ms

    def measure_links(self, from_id, to_ids):
        if from_id not in self.live_ids():
            raise PeerUnknown(f"observer {from_id!r} is not live")
        measured = []
        for to_id in to_ids:
            if to_id not in self.live_ids() or to_id == from_id:
                continue
            try:
                link_ms = self.link_latency(from_id, to_id)
            except LatencyUndefined:
                self.log_event("unmeasurable", from_id, to_id)
                continue
            self._log_measure(from_id, to_id, link_ms)
            measured.append(((from_id, to_id), link_ms))
        return measured

    def _log_measure(self, from_id, to_id, link_ms):
        t_sent = self.clock
        self.log_event(
            "measure", from_id, to_id, t_sent=t_sent, t_received=t_sent + link_ms, link_ms=link_ms
        )


@settings(max_examples=150, deadline=None)
@given(churn_worlds(qos_values=(0.1, 1 / 3, 2.7)), st.booleans(), st.data())
def test_deferred_trace_matches_the_eager_trace(world, matrix, data):
    """``build_simulator`` announces some of the initial services and
    ``run_scenario`` the rest, over seeded or matrix links of non-dyadic
    values; both simulators must write the same trace and timeline."""
    services, template, events, seed, budget, _latency = world
    prebuilt = data.draw(st.lists(st.sampled_from(services), unique=True))
    ids = [s.id for s in services] + [e.service.id for e in events if e.service is not None]
    rng = random.Random(seed)
    table = {(a, b): rng.uniform(0.1, 5.0) for a in ids for b in ids if a != b}

    def run(simulator):
        links = MatrixLatency(table) if matrix else SeededLatency(2.0, 1.5, seed)
        with mock.patch.object(scenario_module, "Simulator", simulator):
            net = build_simulator(Scenario(prebuilt, template, links, events))
        assert type(net) is simulator
        timeline = run_scenario(services, template, events, net, budget=budget)
        return timeline_jsonl(timeline), net.trace_jsonl(), net.trace_records()

    assert run(Simulator) == run(EagerTraceSimulator)


class IntLatency:
    """A duck-typed latency model whose every time is an int."""

    def sample(self, from_id, to_id):
        return sum(map(ord, from_id + to_id)) % 4


NET_IDS = ("A1", "A2", "B1", "B2", "C1")
_net_id = st.sampled_from(NET_IDS)
_measure_links = st.tuples(
    st.just("measure_links"), _net_id, st.lists(st.sampled_from(NET_IDS + ("ghost",)), max_size=7)
)
NET_CALLS = st.one_of(  # measure_links drawn three times as often as each other call
    _measure_links,
    _measure_links,
    _measure_links,
    st.tuples(st.just("measure_link"), _net_id, _net_id),
    st.tuples(st.just("degrade_link"), _net_id, _net_id, st.sampled_from([0.0, 0.5, 3.0])),
    st.tuples(st.just("withdraw"), _net_id),
    st.tuples(st.just("announce"), _net_id),
    st.tuples(st.just("advance"), st.sampled_from([0.25, 1.0])),
)


def _run_calls(simulator, latency, calls):
    """Every call's return value, or the class of the error it raised, and
    the trace bytes, of one simulator over one call sequence."""
    net = simulator(latency)
    net.announce(*(ServiceDescriptor(sid, f"t{sid[0]}", 1.0, 1) for sid in NET_IDS))
    outcomes = []
    for name, *args in calls:
        if name == "advance":
            args = [net.clock + args[0]]
        elif name == "announce":
            args = [ServiceDescriptor(args[0], f"t{args[0][0]}", 2.0, 1)]
        try:
            outcomes.append(getattr(net, name)(*args))
        except (DuplicateId, PeerUnknown, LatencyUndefined) as exc:
            outcomes.append(type(exc))
    return outcomes, net.trace_jsonl()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["holed_matrix", "holed_matrix", "uniform", "int"]),
    st.sets(st.tuples(_net_id, _net_id), min_size=2, max_size=10),
    st.lists(NET_CALLS, max_size=25),
)
@example("holed_matrix", {("A1", "B2"), ("A1", "C1")}, [("measure_links", "A1", ["B1", "B2", "A2", "C1", "B1"])])
def test_simulator_calls_match_the_eager_trace_simulator(model, holes, calls):
    """Random sequences of measuring, degrading, withdrawing, announcing and
    advancing give the same trace bytes as the eager simulator, and the same
    times as floats: a matrix with holes (``unmeasurable`` records between
    a call's measures), ``UniformLatency(1)`` and an int model, whose ints
    the trace keeps and ``measure_links`` converts."""
    def latency():
        if model == "uniform":
            return UniformLatency(1)
        if model == "int":
            return IntLatency()
        pairs = [(a, b) for a in NET_IDS for b in NET_IDS if (a, b) not in holes]
        return MatrixLatency({pair: 1 / (i + 3) for i, pair in enumerate(pairs)})

    outcomes, trace = _run_calls(Simulator, latency(), calls)
    expected, eager_trace = _run_calls(EagerTraceSimulator, latency(), calls)
    assert trace == eager_trace
    assert outcomes == expected
    for (name, *_), outcome in zip(calls, outcomes):
        if name == "measure_links" and type(outcome) is list:
            assert all(type(ms) is float for _, ms in outcome)


# ------------------------------------------------------------ CLI input boundary


BOUNDARY_VALUES = ["", None, True, False, -0.0, 10 ** 400, math.nan, math.inf, -math.inf,
                   [], {}, "x", "ZZ"]
EVENT_KINDS = [kind.value for kind in EventKind]


@lru_cache(maxsize=None)
def _medical_text(seed):
    return serialize_scenario(generate_medical(seed))


@lru_cache(maxsize=None)
def _generated_text(layout, size, k, seed):
    """The text of a ``generate`` document: ``one-layer`` over ``size``
    targets, ``pyramidal`` of top width ``size``, or ``medical``."""
    if layout == "one-layer":
        return serialize_scenario(generate_one_layer(size, k, seed))
    if layout == "pyramidal":
        return serialize_scenario(generate_pyramidal(size, k, seed))
    return _medical_text(seed)


@st.composite
def generated_documents(draw):
    """A decoded ``generate medical`` document, or a small ``one-layer``
    (n <= 30) or ``pyramidal`` (top width <= 4) one."""
    layout = draw(st.sampled_from(["medical", "one-layer", "pyramidal"]))
    size = k = None
    if layout != "medical":
        size = draw(st.integers(1, 30) if layout == "one-layer" else st.integers(2, 4))
        k = draw(st.sampled_from([1, 2, "half", "all"]))
    return json.loads(_generated_text(layout, size, k, draw(st.integers(0, 3))))


@st.composite
def short_event_lists(draw, binders, targets, target_type):
    """Up to three events on a document's ids, in time order, not all of
    them live: links from ``binders`` to ``targets``, services appearing
    of ``target_type`` or of a type outside the template."""
    events, at = [], 0.0
    for index in range(draw(st.integers(0, 3))):
        at += draw(st.sampled_from([0.0, 5.0]))
        kind = draw(st.sampled_from(EVENT_KINDS))
        event = {"at_ms": at, "kind": kind}
        if kind == "service_appears":
            event["service"] = {"id": f"N{index}", "type": draw(st.sampled_from([target_type, "tX"])),
                                "qos_ms": 1.5, "threshold": 2}
        elif kind == "link_degrades":
            event.update({"from": draw(st.sampled_from(binders)),
                          "to": draw(st.sampled_from(targets)), "new_ms": 4.0})
        else:
            event["id"] = draw(st.sampled_from(binders + targets))
        events.append(event)
    return events


def _locations(value, path=()):
    """Every path into ``value``'s lists and dicts, ``()`` first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _locations(item, path + (key,))


def _mutate(document, draw, ids):
    """One mutation: a value under services, links or events becomes a
    boundary value, matrix entries are dropped, or an event points at one
    of ``ids`` or a drawn kind.  A mutation that finds nothing to change is
    a no-op."""
    what = draw(st.sampled_from(["value", "drop", "point"]))
    if what == "value":
        section = draw(st.sampled_from(["services", "links", "events"]))
        path = (section,) + draw(st.sampled_from(list(_locations(document[section]))))
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(BOUNDARY_VALUES)))
    elif what == "drop":
        links = document["links"]
        if isinstance(links, dict) and isinstance(links.get("entries"), list) and links["entries"]:
            entries = links["entries"]
            doomed = draw(st.sets(st.integers(0, len(entries) - 1), min_size=1, max_size=40))
            links["entries"] = [row for index, row in enumerate(entries) if index not in doomed]
    else:
        events = document["events"]
        event = draw(st.sampled_from(events)) if isinstance(events, list) and events else None
        if isinstance(event, dict):
            key = draw(st.sampled_from(["kind", "id", "from", "to"]))
            values = EVENT_KINDS if key == "kind" else ids
            event[key] = draw(st.sampled_from(values))


def _run_cli_in_process(command, path):
    """``main``'s exit code and its stderr, with stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--scenario", path])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(generated_documents(), st.integers(1, 3), st.data())
def test_a_mutated_document_never_crashes_the_cli(document, n_mutations, data):
    """``assemble`` and ``simulate`` meet a generated document with a short
    event list over its own ids and one to three mutations with an exit
    code of 0 to 4, at most one ``error:`` line and no exception.  The
    template is left as generated: with constraints ``["ALL", 1, 1]`` every
    medical sensor binds every gateway, and ``assemble`` lists least-cost
    plateaus of millions of candidates per start until it runs out of
    memory."""
    ids: dict[str, list[str]] = {}
    for service in document["services"]:
        ids.setdefault(service["type"], []).append(service["id"])
    (binder_type, target_type), *_ = document["template"]["body"]
    document["events"] = data.draw(short_event_lists(ids[binder_type], ids[target_type], target_type))
    for _ in range(n_mutations):
        _mutate(document, data.draw, [sid for group in ids.values() for sid in group] + ["ZZ"])
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        for command in ("assemble", "simulate"):
            code, err = _run_cli_in_process(command, path)
            assert code in range(5)
            assert len([line for line in err.splitlines() if line.startswith("error:")]) <= 1, err


@pytest.mark.parametrize("event", [
    {"at_ms": 1.0, "kind": "service_disappears", "id": ""},
    {"at_ms": 1.0, "kind": "inject_out_contract", "id": ""},
    {"at_ms": 1.0, "kind": "link_degrades", "from": "", "to": "B1", "new_ms": 1.0},
    {"at_ms": 1.0, "kind": [], "id": "A1"},
    {"at_ms": 1.0, "kind": {}, "id": "A1"},
], ids=["disappears_empty_id", "out_contract_empty_id", "empty_from", "kind_list", "kind_dict"])
@pytest.mark.parametrize("command", ["assemble", "simulate"])
def test_a_malformed_event_is_one_error_line(command, event, tmp_path):
    """Each of these once escaped the CLI as a traceback."""
    document = json.loads(_medical_text(0))
    document["events"] = [event]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, err = _run_cli_in_process(command, str(path))
    assert code == 1
    assert err.startswith("error: events[0]") and err.count("\n") == 1, err
