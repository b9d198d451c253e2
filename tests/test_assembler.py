import contextlib
import math
import random
import signal
import time
from dataclasses import dataclass
from unittest import mock

import pytest

from selfassembly import (
    ALL,
    DEFAULT_COMBINATION_BUDGET,
    ApplicationTemplate,
    CandidateSubgraph,
    CombinationBudgetExceeded,
    DomainError,
    Infeasible,
    InsufficientServices,
    MatrixLatency,
    NoStartingService,
    QoSMatrix,
    ScenarioEvent,
    ServiceDescriptor,
    TemplateInvalid,
    UniformLatency,
    assemble,
    build_binding_graph,
    build_simulator,
    count_combinations,
    enumerate_candidates,
    generate_one_layer,
    run_scenario,
    select_assembly,
    service_map,
)
from selfassembly import assembler, model
from selfassembly.oracle import binomial_table, check_assembly, exhaustive_worst_path

from conftest import make_net, seven_services, seven_template, signed_zero_ties


# ---------------------------------------------------------------- combinations


def test_count_combinations_small():
    assert count_combinations(3, 2) == 3


def test_count_combinations_all_is_one_choice():
    assert count_combinations(17, ALL) == 1
    assert count_combinations(0, ALL) == 1


def test_count_combinations_cross_checked_against_triangle():
    # Frozen from the addition-only triangle.
    triangle = binomial_table(20)
    assert triangle[20][10] == 184756
    assert count_combinations(20, 10) == 184756


def test_count_combinations_domain():
    with pytest.raises(DomainError):
        count_combinations(3, 4)
    with pytest.raises(DomainError):
        count_combinations(3, -1)
    with pytest.raises(DomainError):
        count_combinations(-1, 0)


# --------------------------------------------------------------- binding graph


def test_binding_graph_worked_example_shape(example7_net):
    services, template, net = example7_net
    graph, links = build_binding_graph(services, template, net)
    assert len(graph.nodes) == 7
    assert len(graph.edges) == 12  # 3x3 fan-out plus 3 into the sink
    assert len(links) == 12
    a_to_b = [e for e in graph.edges if e[0].startswith("A")]
    b_to_c = [e for e in graph.edges if e[0].startswith("B")]
    assert len(a_to_b) == 9 and len(b_to_c) == 3
    for edge in graph.edges:
        assert edge in links


def test_binding_graph_single_pair():
    services = [ServiceDescriptor("A1", "tA", 1.0, 1), ServiceDescriptor("B1", "tB", 1.0, 1)]
    template = ApplicationTemplate((("tA", "tB"),), (1,))
    graph, links = build_binding_graph(services, template, make_net(services))
    assert graph.edges == {("A1", "B1")}
    assert links.get("A1", "B1") == 0.0


def test_binding_graph_without_recipients():
    services = [s for s in seven_services() if s.type != "tB"]
    graph, links = build_binding_graph(services, seven_template(), make_net(services))
    assert graph.nodes == {"A1", "A2", "A3"}  # the sink type is never reached
    assert graph.edges == frozenset()
    assert len(links) == 0


def test_binding_graph_requires_starting_services():
    services = [s for s in seven_services() if s.type != "tA"]
    with pytest.raises(NoStartingService):
        build_binding_graph(services, seven_template(), make_net(services))


def test_binding_graph_rejects_invalid_template():
    services = seven_services()
    bad = ApplicationTemplate((("tA", "tB"), ("tB", "tA")), (1, 1))
    with pytest.raises(TemplateInvalid):
        build_binding_graph(services, bad, make_net(services))


class _IntLinks:
    """A duck-typed latency model: every link takes the int 2."""

    def sample(self, from_id, to_id):
        return 2


@pytest.mark.parametrize("latency, ms", [(UniformLatency(1), 1.0), (_IntLinks(), 2.0)], ids=["uniform", "duck"])
def test_an_int_link_time_is_a_float_in_the_index_the_matrix_and_each_cost(latency, ms):
    """The flood converts an int link time: the index, the matrix and every
    cost hold a float, also over int qos values; the trace keeps the value
    the model gave."""
    services = [s._replace(qos_nominal=int(s.qos_nominal)) for s in seven_services()]
    template, svc = seven_template(), service_map(services)
    attempt = assembler._Attempt(template, svc, {})
    net = make_net(services, latency)
    graph, links = build_binding_graph(services, template, net, attempt=attempt)
    picked = [v for groups in attempt.index.values() for picks in groups.values() for _, v in picks]
    assert len(picked) == len(links._entries) == len(graph.edges) == 12
    assert [(type(v), v) for v in picked + list(links._entries.values())] == [(float, ms)] * 24
    traced = [r["detail"]["link_ms"] for r in net.trace_records() if r["kind"] == "measure"]
    assert [(type(v), v) for v in traced] == [(type(latency.sample("A1", "B1")), ms)] * 12
    # The cheapest candidate of each start picks B1 and B2: 1 + max(ms + 2 + ms + 5, ms + 3 + ms + 5).
    least = 2 * ms + 9
    costs = [c.cost for sid in ("A1", "A2", "A3") for c in enumerate_candidates(graph, links, template, sid, svc)]
    chosen = assemble(services, template, make_net(services, latency)).chosen
    costs += [c.cost for c in chosen.values()]
    assert {type(c) for c in costs} == {float}
    assert min(costs) == least and sorted(c.cost for c in chosen.values())[0] == least


@pytest.mark.parametrize("bad_ms", [-1.0, math.nan])
def test_the_flood_rejects_a_link_time_below_zero_or_nan(bad_ms):
    """The first sender's call measures B1, B2 and B3, and only B2's time
    is bad.  The error names it, and the trace ends with every link of that
    call, each with the model's value: the int stays an int."""
    class Broken:  # a duck-typed latency model: no MatrixLatency check runs
        def sample(self, from_id, to_id):
            return bad_ms if to_id == "B2" else 1

    services = seven_services()
    net = make_net(services, Broken())
    with pytest.raises(ValueError, match=f"link time must be >= 0, got {bad_ms}$"):
        assemble(services, seven_template(), net)
    measured = [r for r in net.trace_records() if r["kind"] != "announce"]
    assert [(r["kind"], r["from"], r["to"]) for r in measured] == [
        ("measure", "A1", "B1"), ("measure", "A1", "B2"), ("measure", "A1", "B3")
    ]
    assert [repr(r["detail"]["link_ms"]) for r in measured] == ["1", repr(bad_ms), "1"]


def test_a_flood_traces_one_entry_per_measuring_call():
    """A measuring call is one trace entry that holds its picks, not one
    tuple per link: a start fanning out to 200 targets leaves the announce
    batch and one measure entry, which read as one record per link."""
    scenario = generate_one_layer(200, 2, 0)
    net = build_simulator(scenario)
    assemble(scenario.services, scenario.template, net)
    assert len(net._trace) == 2
    kinds = [r["kind"] for r in net.trace_records()]
    assert (kinds.count("announce"), kinds.count("measure"), len(kinds)) == (201, 200, 401)


# ------------------------------------------------------------------ candidates


def _enumerate_for(start_id, example7_net):
    services, template, net = example7_net
    graph, links = build_binding_graph(services, template, net)
    return enumerate_candidates(graph, links, template, start_id, service_map(services))


def test_candidates_worked_example_counts(example7_net):
    for start in ("A1", "A2", "A3"):
        assert len(_enumerate_for(start, example7_net)) == 3  # choose 2 of 3


def test_candidates_zero_latency_costs_sorted(example7_net):
    # Frozen from the path-enumeration reference with all link times zero:
    # {B1,B2} -> 9, {B1,B3} -> 10, {B2,B3} -> 10 (ties by edge list).
    candidates = _enumerate_for("A1", example7_net)
    assert [c.cost for c in candidates] == [9.0, 10.0, 10.0]
    assert candidates[0].edges == (
        ("A1", "B1"),
        ("A1", "B2"),
        ("B1", "C1"),
        ("B2", "C1"),
    )
    assert candidates[1].edges == (
        ("A1", "B1"),
        ("A1", "B3"),
        ("B1", "C1"),
        ("B3", "C1"),
    )
    assert candidates[2].edges == (
        ("A1", "B2"),
        ("A1", "B3"),
        ("B2", "C1"),
        ("B3", "C1"),
    )
    assert [c.rank for c in candidates] == [0, 1, 2]


def test_candidate_costs_match_path_enumeration(example7_net):
    services, template, net = example7_net
    graph, links = build_binding_graph(services, template, net)
    svc = service_map(services)
    for start in ("A1", "A2", "A3"):
        for candidate in enumerate_candidates(graph, links, template, start, svc):
            assert candidate.cost == exhaustive_worst_path(candidate.graph, start, svc, links)


def test_candidates_all_constraint_leaves_no_choice(example7):
    services, _ = example7
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (ALL, 1))
    net = make_net(services)
    graph, links = build_binding_graph(services, template, net)
    candidates = enumerate_candidates(graph, links, template, "A1", service_map(services))
    assert len(candidates) == 1
    assert {e for e in candidates[0].edges if e[0] == "A1"} == {
        ("A1", "B1"),
        ("A1", "B2"),
        ("A1", "B3"),
    }


def test_candidates_insufficient_targets(example7):
    services, _ = example7
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (2, 1))
    shrunk = [s for s in services if s.id not in ("B2", "B3")]
    net = make_net(shrunk)
    graph, links = build_binding_graph(shrunk, template, net)
    with pytest.raises(InsufficientServices) as info:
        enumerate_candidates(graph, links, template, "A1", service_map(shrunk))
    assert info.value.needed == 2
    assert info.value.available == 1


def test_candidates_need_a_start_of_the_starting_type_in_the_graph(example7_net):
    services, template, net = example7_net
    graph, links = build_binding_graph(services, template, net)
    svc = service_map(services)
    with pytest.raises(ValueError, match="not a node of the binding graph"):
        enumerate_candidates(graph, links, template, "Z9", svc)
    with pytest.raises(ValueError, match="not of the starting type"):
        enumerate_candidates(graph, links, template, "B1", svc)


def test_candidates_sorted_and_deterministic(example7):
    services, template = example7
    table = {}
    value = 0.25
    for a in ("A1", "A2", "A3"):
        for b in ("B1", "B2", "B3"):
            table[(a, b)] = value
            value += 0.25
    for b in ("B1", "B2", "B3"):
        table[(b, "C1")] = value
        value += 0.25
    from selfassembly import MatrixLatency

    def run():
        net = make_net(services, MatrixLatency(table))
        graph, links = build_binding_graph(services, template, net)
        return enumerate_candidates(graph, links, template, "A1", service_map(services))

    first, second = run(), run()
    assert first == second
    costs = [c.cost for c in first]
    assert costs == sorted(costs)


@dataclass(frozen=True, slots=True)
class _DataclassCandidate:
    """The candidate as a frozen dataclass, as it was before it became a
    named tuple: the reference for ``repr`` and ``hash``."""

    start_id: str
    edges: tuple
    cost: float
    rank: int


def test_a_candidate_is_a_named_tuple_with_the_dataclass_repr_and_hash():
    fields = ("A1", (("A1", "B1"), ("B1", "C1")), -0.0, 3)
    made = [CandidateSubgraph(*fields), CandidateSubgraph._unchecked(fields)]
    old = _DataclassCandidate(*fields)
    for candidate in made:
        assert type(candidate) is CandidateSubgraph
        assert repr(candidate) == repr(old).replace("_DataclassCandidate", "CandidateSubgraph")
        assert hash(candidate) == hash(old) == hash(fields)
        assert candidate == fields and not candidate < fields  # equals and orders as its tuple
        assert candidate.nodes == {"A1", "B1", "C1"}
        assert candidate.graph.edges == {("A1", "B1"), ("B1", "C1")}


@pytest.mark.parametrize("case", ["binder", "pair_merge"])
def test_signed_zero_ties_keep_the_first_term_in_pick_order(case):
    services, template, latency = signed_zero_ties(case)
    svc = service_map(services)
    attempt = assembler._Attempt(template, svc, {})
    graph, links = build_binding_graph(services, template, make_net(services, latency), attempt=attempt)
    assembler._least_costs(attempt)
    full = enumerate_candidates(graph, links, template, "A1", svc)
    plateau = assembler._candidates(attempt, "A1", attempt.lower["A1"])
    chosen = assemble(services, template, make_net(services, latency)).chosen["A1"]
    assert len(full) == 1
    assert [c.cost.hex() for c in full + plateau + [chosen]] == ["-0x0.0p+0"] * 3


# -------------------------------------------------------------------- selection


def test_select_worked_example_loads(example7_net):
    services, template, net = example7_net
    result = assemble(services, template, net)
    # Oracle-confirmed witness bounds: B1<=2, B2<=3, B3<=1, C1<=3.
    assert result.per_service_load["B1"] <= 2
    assert result.per_service_load["B2"] <= 3
    assert result.per_service_load["B3"] <= 1
    assert result.per_service_load["C1"] <= 3
    assert check_assembly(result, services, template) == []


def test_select_first_combination_when_no_contention(example7):
    services, template = example7
    relaxed = [
        ServiceDescriptor(s.id, s.type, s.qos_nominal, 10) for s in services
    ]
    net = make_net(relaxed)
    result = assemble(relaxed, template, net)
    assert result.combinations_tested == 1
    for start, candidate in result.chosen.items():
        assert candidate.rank == 0


def test_select_infeasible_when_sink_threshold_too_low(example7):
    services, template = example7
    squeezed = [
        ServiceDescriptor(s.id, s.type, s.qos_nominal, 2 if s.id == "C1" else s.threshold)
        for s in services
    ]
    net = make_net(squeezed)
    with pytest.raises(Infeasible) as info:
        assemble(squeezed, template, net)
    assert info.value.combinations_tested == 27  # exhausted 3^3 combinations


def test_select_budget_cap(example7_net):
    services, template, net = example7_net
    with pytest.raises(CombinationBudgetExceeded):
        assemble(services, template, net, budget=1)
    # The first feasible combination is number 3 (see the odometer test).
    with pytest.raises(CombinationBudgetExceeded) as info:
        assemble(services, template, net, budget=2)
    assert info.value.budget == 2
    assert assemble(services, template, net, budget=3).combinations_tested == 3


def test_select_odometer_order(example7_net):
    # With zero links the per-start lists are identical; the third
    # combination (rightmost start advanced twice) is the first feasible.
    services, template, net = example7_net
    result = assemble(services, template, net)
    assert result.combinations_tested == 3
    assert result.chosen["A1"].rank == 0
    assert result.chosen["A2"].rank == 0
    assert result.chosen["A3"].rank == 2


def _first_start_always_overloads(width):
    """Three starts with ``width`` candidates each; every candidate of the
    first start binds the threshold-1 service H twice on its own."""
    services = [ServiceDescriptor(f"S{i}", "tS", 1.0, 1) for i in range(3)]
    services += [ServiceDescriptor("H", "tH", 1.0, 1), ServiceDescriptor("T", "tH", 1.0, 2)]

    def pool(start, edges):
        return [CandidateSubgraph(start, edges, float(rank), rank) for rank in range(width)]

    per_start = {
        "S0": pool("S0", (("S0", "H"), ("Y", "H"))),
        "S1": pool("S1", (("S1", "T"),)),
        "S2": pool("S2", (("S2", "T"),)),
    }
    return per_start, services


def test_select_skips_every_combination_below_an_overloaded_prefix():
    # 10^9 combinations: only skipping whole subtrees finishes in time,
    # over lists and over tuples alike.
    lists, services = _first_start_always_overloads(1000)
    tuples = {sid: tuple(pool) for sid, pool in lists.items()}
    for per_start in (lists, tuples):
        began = time.perf_counter()
        with pytest.raises(Infeasible) as info:
            select_assembly(per_start, services, budget=10**9)
        assert info.value.combinations_tested == 10**9
        with pytest.raises(CombinationBudgetExceeded) as capped:
            select_assembly(per_start, services)
        assert capped.value.budget == DEFAULT_COMBINATION_BUDGET == 10_000_000
        assert time.perf_counter() - began < 1.0


def test_select_requires_candidates():
    with pytest.raises(ValueError):
        select_assembly({}, seven_services())
    for empty in ([], ()):
        with pytest.raises(ValueError):
            select_assembly({"A1": empty}, seven_services())
    # A pool of an attempt is read only when the odometer reaches it, and
    # one without an item 0 raises there: A1 has no picks in this index.
    services = seven_services()
    attempt = assembler._Attempt(seven_template(), service_map(services), {})
    attempt.lower = {"A1": 0.0}
    with pytest.raises(ValueError, match="^start 'A1' has an empty candidate list$"):
        select_assembly({"A1": assembler._Pool([], attempt, "A1")}, services)


# -------------------------------------------------------------------- assemble


def test_assemble_empty_service_set():
    with pytest.raises(NoStartingService):
        assemble([], seven_template(), make_net([]))


def test_assemble_reports_an_invalid_template_before_a_duplicate_id():
    services = seven_services()
    duplicated = services + [services[0]]
    bad = ApplicationTemplate((("tA", "tB"), ("tB", "tA")), (1, 1))
    with pytest.raises(TemplateInvalid):
        assemble(duplicated, bad, make_net(services))
    with pytest.raises(ValueError, match="duplicate service id"):
        assemble(duplicated, seven_template(), make_net(services))


def test_assemble_ignores_bystanders_of_other_types(example7):
    services, template = example7
    bystanders = [ServiceDescriptor(f"X{i}", "tX", 1.0, 1) for i in range(50)]
    crowded = assemble(services + bystanders, template, make_net(services + bystanders))
    alone = assemble(services, template, make_net(services))
    assert crowded == alone


def test_assemble_commits_the_cheapest_pair_of_thousands_without_listing_all_pairs():
    # C(3000, 2) = 4498500 candidates: listing and sorting them all takes
    # minutes, so only the least-cost plateau may be built.
    scenario = generate_one_layer(3000, 2, seed=5)
    net = make_net(scenario.services, scenario.links)
    svc = service_map(scenario.services)
    began = time.perf_counter()
    result = assemble(scenario.services, scenario.template, net)
    elapsed = time.perf_counter() - began
    terms = sorted(
        (net.measure_link("A1", sid) + svc[sid].qos_nominal, sid) for sid in svc if sid != "A1"
    )
    (_, first), (second_term, second) = terms[:2]
    chosen = result.chosen["A1"]
    assert chosen.edges == tuple(sorted((("A1", first), ("A1", second))))
    assert chosen.cost == svc["A1"].qos_nominal + second_term
    assert chosen.rank == 0 and result.combinations_tested == 1
    assert elapsed < 1.0


@pytest.mark.parametrize("qos, table", [
    (math.inf, {("A", "B"): 0.0, ("B", "C"): 0.0}),
    (1.0, {("A", "B"): math.inf, ("B", "C"): 0.0}),
    (1.0, {("A", "B"): 0.0, ("B", "C"): math.inf}),
], ids=["start-qos", "start-link", "deeper-link"])
def test_a_start_of_infinite_least_cost_commits_its_only_candidate(qos, table):
    # Descriptors, matrices and the flood accept inf, so a start may be
    # worth inf; the headroom it passes down must then be inf, not NaN.
    services = [ServiceDescriptor("A", "tA", qos, 1)]
    services += [ServiceDescriptor(sid, f"t{sid}", 1.0, 1) for sid in ("B", "C")]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    net = make_net(services, MatrixLatency(table))
    graph, links = build_binding_graph(services, template, net)
    only = CandidateSubgraph("A", (("A", "B"), ("B", "C")), math.inf, 0)
    assert enumerate_candidates(graph, links, template, "A", service_map(services)) == [only]
    assert assemble(services, template, net).chosen == {"A": only}


def test_assemble_works_the_template_out_once(example7_net, monkeypatch):
    # One dependency sort, which validates the template and gives the stages
    # their type order, not one per stage and per start.  The template keeps
    # it, so a whole run with re-assemblies sorts once in total too.
    services, template, net = example7_net
    real = model._topological
    sorts = []
    monkeypatch.setattr(model, "_topological", lambda *args: sorts.append(1) or real(*args))
    assemble(services, template, net)
    assert len(sorts) == 1
    sorts.clear()
    events = [
        ScenarioEvent.appears(1.0, ServiceDescriptor("B4", "tB", 2.0, 2)),
        ScenarioEvent.appears(2.0, ServiceDescriptor("C2", "tC", 5.0, 3)),
    ]
    timeline = run_scenario(seven_services(), seven_template(), events, make_net(seven_services()))
    assert [entry.trigger for entry in timeline] == ["initial", "service_appears:B4", "service_appears:C2"]
    assert len(sorts) == 1


def test_enumerate_candidates_on_its_own_still_rejects_a_cyclic_template(example7_net):
    services, template, net = example7_net
    graph, links = build_binding_graph(services, template, net)
    cyclic = ApplicationTemplate((("tA", "tB"), ("tB", "tC"), ("tC", "tB")), (2, 1, 1))
    with pytest.raises(ValueError, match="cycle"):
        enumerate_candidates(graph, links, cyclic, "A1", service_map(services))


def test_assemble_union_deduplicates_edges(example7_net):
    services, template, net = example7_net
    result = assemble(services, template, net)
    union = set()
    for candidate in result.chosen.values():
        union.update(candidate.edges)
    assert result.assembly.edges == frozenset(union)


def test_candidate_count_matches_binomial_products(example7_net):
    services, template, net = example7_net
    graph, links = build_binding_graph(services, template, net)
    svc = service_map(services)
    per_start = enumerate_candidates(graph, links, template, "A1", svc)
    # One choice point: pick 2 of 3 targets; every picked target then has
    # a forced single pick.
    assert len(per_start) == count_combinations(3, 2) * count_combinations(1, 1) ** 2


# --------------------------------------------------------- deep and wide templates


def _chain(n_types, *, double_at=None, seed=0):
    """A chain template of ``n_types`` types with k=1 per pair and two
    services per type after the start, each linked to both services of the
    next type, with non-dyadic values.  With ``double_at``, the pair into
    that type is k=2 and the type after it has one service, which both
    then bind to."""
    rng = random.Random(seed)
    types = [f"t{i}" for i in range(n_types)]
    widths = [1] + [2] * (n_types - 1)
    constraints = [1] * (n_types - 1)
    if double_at is not None:
        constraints[double_at - 1] = 2
        widths[double_at + 1] = 1
    ids = [[f"{t}s{i}" for i in range(width)] for t, width in zip(types, widths)]
    services = [
        ServiceDescriptor(sid, t, rng.uniform(0.1, 3.0), 2) for t, row in zip(types, ids) for sid in row
    ]
    table = {(a, b): rng.uniform(0.1, 3.0) for row, after in zip(ids, ids[1:]) for a in row for b in after}
    template = ApplicationTemplate(tuple(zip(types, types[1:])), tuple(constraints))
    return services, template, MatrixLatency(table)


@contextlib.contextmanager
def _watchdog(seconds):
    """Fail the body once ``seconds`` have passed, so that a search which
    no longer ends fails the test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError:
        # Without its traceback: one through the frame the signal interrupted
        # can lack a line number, which pytest cannot print.
        raise pytest.fail.Exception(f"still running after {seconds} s", pytrace=False) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n_types, double_at", [(5000, None), (3000, 1500)], ids=["k1", "one-k2"])
@_watchdog(5.0)
def test_a_deep_chain_assembles_in_linear_time(n_types, double_at):
    # The search used to recurse once per type and re-price every type above
    # each binder it filtered, so these raised RecursionError; 980 types took 0.8 s.
    services, template, latency = _chain(n_types, double_at=double_at)
    net = make_net(services, latency)
    began = time.perf_counter()
    result = assemble(services, template, net)
    elapsed = time.perf_counter() - began
    assert elapsed < 1.0
    # Both services of the doubled type add an edge: into it and out of it.
    assert len(result.chosen["t0s0"].edges) == n_types - 1 + 2 * (double_at is not None)
    # The check must not scan the template body per node: that took 1.6 s on 5000 types.
    began = time.perf_counter()
    assert check_assembly(result, services, template) == []
    assert time.perf_counter() - began < 1.0


def test_assemble_reads_each_link_once():
    services = [ServiceDescriptor("A1", "tA", 5.0, 1)]
    services += [ServiceDescriptor(f"B{i}", "tB", 1.0 + i / 7, 1) for i in range(200)]
    table = {("A1", f"B{i}"): 0.1 * (i % 13) for i in range(200)}
    net = make_net(services, MatrixLatency(table))
    real = QoSMatrix.get
    calls = []

    def counted(self, from_id, to_id):
        calls.append((from_id, to_id))
        return real(self, from_id, to_id)

    with mock.patch.object(QoSMatrix, "get", counted):
        result = assemble(services, ApplicationTemplate((("tA", "tB"),), (2,)), net)
    assert result.combinations_tested == 1
    assert len(calls) <= 200


def test_a_wide_pool_read_in_rank_order_is_the_full_list():
    # One start picking 2 of 200 sinks: past its plateau, 19,900 branches
    # of one candidate each are handed out one at a time.
    scenario = generate_one_layer(200, 2, 0)
    captured = {}
    with mock.patch.object(
        assembler, "select_assembly", lambda per_start, svc, budget: captured.update(per_start)
    ):
        assemble(scenario.services, scenario.template, build_simulator(scenario))
    pool, items = captured["A1"], []
    began = time.perf_counter()
    while (item := pool.item(len(items))) is not None:
        items.append(item)
    assert time.perf_counter() - began < 1.0
    graph, links = build_binding_graph(scenario.services, scenario.template, build_simulator(scenario))
    full = enumerate_candidates(graph, links, scenario.template, "A1", service_map(scenario.services))
    assert len(full) == pool.length() == 19_900
    assert [(c.cost.hex(), c.rank, c.edges) for c in items] == [(c.cost.hex(), c.rank, c.edges) for c in full]


def test_a_branch_of_equal_least_cost_is_listed_before_an_item_of_that_cost():
    # A1's plateau is B2-C1 at 0.0.  Past it, the B2 branch's item B2-C2 and
    # the unlisted B1 branch both cost 1.0; the B1 branch must be listed
    # first, as its items B1-C1 and B1-C2 sort before B2-C2 by edges.
    services = [ServiceDescriptor("A1", "tA", 0.0, 1)]
    services += [ServiceDescriptor(sid, "tB", 0.0, 1) for sid in ("B1", "B2")]
    services += [ServiceDescriptor(sid, "tC", 0.0, 1) for sid in ("C1", "C2")]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (1, 1))
    table = {("A1", "B2"): 0.0, ("A1", "B1"): 1.0, ("B2", "C1"): 0.0, ("B2", "C2"): 1.0}
    table.update({("B1", "C1"): 0.0, ("B1", "C2"): 0.0})
    captured = {}
    with mock.patch.object(
        assembler, "select_assembly", lambda per_start, svc, budget: captured.update(per_start)
    ):
        assemble(services, template, make_net(services, MatrixLatency(table)))
    pool, items = captured["A1"], []
    while (item := pool.item(len(items))) is not None:
        items.append(item)
    graph, links = build_binding_graph(services, template, make_net(services, MatrixLatency(table)))
    full = enumerate_candidates(graph, links, template, "A1", service_map(services))
    assert [c.edges[0][1] for c in full] == ["B2", "B1", "B1", "B2"]
    assert [(c.cost.hex(), c.rank, c.edges) for c in items] == [(c.cost.hex(), c.rank, c.edges) for c in full]
