"""The assembly engine.

Assembly proceeds in three stages:

1. :func:`build_binding_graph` floods requests from the starting services
   along the template's type pairs, recording every allowed binding and
   measuring each traversed link, as if every constraint asked for all
   available targets.
2. :func:`enumerate_candidates` applies the structural constraints: for one
   starting service it enumerates every subgraph in which each included
   node picks exactly the required number of its targets (all of them for
   an ALL constraint), and sorts the candidates by worst-path time.  Each
   cost is computed bottom-up from the picks as the subgraph is built and
   equals :func:`~selfassembly.model.worst_path_time` of it exactly.
   :func:`assemble` builds each start's list lazily: one bottom-up pass
   gives every node the least cost of a candidate rooted at it, a search
   cut off at the start's least cost lists the least-cost plateau first.
   Lengths are counted; the full list is built only when the odometer
   reaches an item past the plateau.
3. :func:`select_assembly` walks combinations of one candidate per start
   (an odometer over the sorted lists, rightmost start varying fastest) and
   commits the first whose deduplicated union keeps every service's
   distinct inbound bindings within its threshold.  Loads are updated per
   placed candidate, and a prefix of starts that already overloads a
   service is skipped with every combination below it, which still counts
   as tested.

The search is exhaustive but capped: it settles for the first feasible
combination rather than a globally optimal one, which the ascending sort
keeps near-optimal in practice.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from operator import attrgetter

from .errors import (
    CombinationBudgetExceeded,
    DomainError,
    Infeasible,
    InsufficientServices,
    NoStartingService,
    TemplateInvalid,
)
from .model import (
    AllServices,
    ApplicationTemplate,
    AssemblyGraph,
    Constraint,
    QoSMatrix,
    ServiceDescriptor,
    service_map,
    validate_template,
    worst_path_time,  # the cost definition candidate costs reproduce
)
from .netsim import Simulator

DEFAULT_COMBINATION_BUDGET = 10_000_000


def count_combinations(n: int, k: Constraint) -> int:
    """Number of ways to pick ``k`` of ``n`` available targets.

    ``ALL`` admits exactly one choice.  Raises :class:`DomainError` outside
    ``0 <= k <= n``.
    """
    if isinstance(k, AllServices):
        return 1
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if k < 0 or k > n:
        raise DomainError(f"k must satisfy 0 <= k <= n, got k={k}, n={n}")
    return math.comb(n, k)


@dataclass(frozen=True, slots=True)
class CandidateSubgraph:
    """One structurally compliant subgraph for a start, with its cost.

    ``edges`` is kept as a sorted tuple (the tie-break key for equal
    costs); ``rank`` is the position after sorting all candidates of the
    same start by ascending cost.
    """

    start_id: str
    edges: tuple[tuple[str, str], ...]
    cost: float
    rank: int

    @property
    def nodes(self) -> frozenset[str]:
        out = {self.start_id}
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return frozenset(out)

    @property
    def graph(self) -> AssemblyGraph:
        return AssemblyGraph(self.nodes, frozenset(self.edges))


@dataclass(frozen=True)
class AssemblyResult:
    """Committed assembly: the deduplicated union of one chosen candidate
    per starting service."""

    assembly: AssemblyGraph
    chosen: dict[str, CandidateSubgraph]
    combinations_tested: int
    per_service_load: dict[str, int]


@dataclass(frozen=True, slots=True)
class _TemplateFacts:
    """What the stages read of a template, worked out once per assembly: the
    starting type, the types in dependency order and each type's out pairs."""

    start_type: str
    order: list[str]
    specs: dict[str, list[tuple[str, Constraint]]]


def _facts(template: ApplicationTemplate, *, check: bool = False) -> _TemplateFacts:
    """The template's facts.  With ``check``, an invalid template raises
    :class:`TemplateInvalid`; without, the template's own ``ValueError``."""
    if check:
        report = validate_template(template)
        if not report.ok:
            raise TemplateInvalid(report)
    order = template.topological_types()
    specs = {t: template.out_edges(t) for t in order}
    return _TemplateFacts(template.starting_type(), order, specs)


def build_binding_graph(
    services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
    net: Simulator,
    *,
    facts: _TemplateFacts | None = None,
) -> tuple[AssemblyGraph, QoSMatrix]:
    """Flood the template from the starting services and measure links.

    Starting services contact every visible target of the paired type;
    each contacted service measures the link from its sender and floods
    onward for its own type pairs.  The result contains one directed edge
    per allowed binding and one link measurement per edge.  Only services
    of template types are considered, and each sender measures its links
    to the paired type's services with one :meth:`Simulator.measure_links`
    call, which skips the targets it cannot see, so the cost follows the
    template's services rather than the registry size.  Each measured
    value is checked once, as :meth:`QoSMatrix.set` checks it.
    :func:`assemble` passes the template's ``facts``, checked once.
    """
    if facts is None:
        facts = _facts(template, check=True)
    specs_of = facts.specs
    ids_by_type: dict[str, list[str]] = {}
    for descriptor in sorted(service_map(services).values(), key=attrgetter("id")):
        if descriptor.type in specs_of:
            ids_by_type.setdefault(descriptor.type, []).append(descriptor.id)

    start_type = facts.start_type
    starts = ids_by_type.get(start_type, [])
    if not starts:
        raise NoStartingService(f"no live service of starting type {start_type!r}")

    reached = set(starts)
    queue = deque((sid, start_type) for sid in starts)
    measured: dict[tuple[str, str], float] = {}  # one entry per edge
    while queue:
        sender, sender_type = queue.popleft()
        for to_type, _constraint in specs_of[sender_type]:
            for target, ms in net.measure_links(sender, ids_by_type.get(to_type, ())):
                ms = float(ms)
                if not ms >= 0:  # also rejects NaN
                    raise ValueError(f"link time must be >= 0, got {ms}")
                measured[(sender, target)] = ms
                if target not in reached:
                    reached.add(target)
                    queue.append((target, to_type))
    return AssemblyGraph(frozenset(reached), frozenset(measured)), QoSMatrix._unchecked(measured)


def enumerate_candidates(
    graph: AssemblyGraph,
    links: QoSMatrix,
    template: ApplicationTemplate,
    start_id: str,
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
) -> list[CandidateSubgraph]:
    """Every constraint-compliant subgraph reachable from one start,
    sorted by ascending worst-path time.

    Each included node picks exactly the constrained number of its targets
    per type pair (all of them for ALL); a node reached through several
    binders appears once and its own picks are made once.  Ties in cost
    are ordered by the sorted edge list, so the result is stable across
    runs.  Raises :class:`InsufficientServices` when an included node has
    fewer reachable targets than its constraint requires.

    Costs are computed per candidate bottom-up over its included nodes,
    sinks first, in the same order of additions as :func:`worst_path_time`,
    so each equals ``worst_path_time(candidate.graph, ...)`` bit for bit
    without building the graph.
    """
    svc = service_map(services)
    if start_id not in graph.nodes:
        raise ValueError(f"start {start_id!r} is not a node of the binding graph")
    if svc[start_id].type != template.starting_type():
        raise ValueError(f"service {start_id!r} is not of the starting type")
    return _candidates(*_index(graph, svc), links, _facts(template), start_id, svc)


_Edge = tuple[str, str]
_Successors = Mapping[str, Mapping[str, Sequence[str]]]


def _index(
    graph: AssemblyGraph, svc: Mapping[str, ServiceDescriptor]
) -> tuple[_Successors, Mapping[_Edge, _Edge]]:
    """The successors of each node grouped by target type and sorted for
    determinism, and the graph's own edge tuples, which candidates share."""
    succ_by_type: dict[str, dict[str, list[str]]] = {}
    for a, b in graph.edges:
        succ_by_type.setdefault(a, {}).setdefault(svc[b].type, []).append(b)
    for groups in succ_by_type.values():
        for targets in groups.values():
            targets.sort()
    return succ_by_type, {edge: edge for edge in graph.edges}


def _least_costs(
    succ_by_type: _Successors,
    links: QoSMatrix,
    facts: _TemplateFacts,
    svc: Mapping[str, ServiceDescriptor],
    nodes: Iterable[str],
) -> dict[str, float | None]:
    """The least cost of a candidate rooted at each node, or ``None`` when
    none exists because some node it must include lacks targets.

    Bottom-up in reverse type order, a node's value is ``qos + max`` over
    its type pairs of the k-th smallest ``link + lower[target]`` (the
    largest for ALL, nothing for k=0), in the association of the candidate
    costs.  Float ``+`` and ``max`` are monotone, so picking the k cheapest
    targets everywhere is optimal and a start's value equals its cheapest
    candidate's cost bit for bit.  A node that could pick a target without
    a value has none either: enumerating it raises
    :class:`InsufficientServices`.
    """
    lookup = links.get
    lower: dict[str, float | None] = {}

    def least(node: str, specs: list[tuple[str, Constraint]]) -> float | None:
        groups = succ_by_type.get(node, {})
        worst: float | None = None  # the largest term over the pairs
        for to_type, constraint in specs:
            available = groups.get(to_type, ())
            k = len(available) if isinstance(constraint, AllServices) else constraint
            if k > len(available):
                return None
            if not k:
                continue
            terms = []
            for target in available:
                below = lower[target]
                if below is None:
                    return None
                terms.append(lookup(node, target) + below)
            terms.sort()
            if worst is None or terms[k - 1] > worst:
                worst = terms[k - 1]
        qos = svc[node].qos_nominal
        return qos if worst is None else qos + worst

    by_type: dict[str, list[str]] = {}
    for node in nodes:
        by_type.setdefault(svc[node].type, []).append(node)
    for node_type in reversed(facts.order):
        specs = facts.specs[node_type]
        for node in by_type.get(node_type, ()):
            lower[node] = least(node, specs) if specs else svc[node].qos_nominal
    return lower


def _candidates(
    succ_by_type: _Successors,
    shared_edge: Mapping[_Edge, _Edge],
    links: QoSMatrix,
    facts: _TemplateFacts,
    start_id: str,
    svc: Mapping[str, ServiceDescriptor],
    lower: Mapping[str, float | None] | None = None,
    cutoff: float = math.inf,
) -> list[CandidateSubgraph]:
    """The search behind :func:`enumerate_candidates`.

    Given the least costs ``lower`` of :func:`_least_costs` and a
    ``cutoff`` of at least ``lower[start_id]``, it returns only the
    candidates whose cost is at most the cutoff: an exact prefix of the
    full list, with the same ranks.  A binder drops every target whose
    pick alone would lift the start's least possible cost on the branch
    above the cutoff, counting the nodes not yet expanded at their least
    cost.  Nothing else is checked: a cost is the largest of its
    root-to-sink path sums, because float ``+`` is monotone, and each
    path's last pick passed that test (an ALL pair's targets always pass,
    as the binder's least cost already includes every one of them), so
    every candidate the search completes is within the cutoff.
    """
    type_order = facts.order
    reverse_order = type_order[::-1]
    lookup = links.get

    included: dict[str, list[str]] = {t: [] for t in type_order}
    included[svc[start_id].type].append(start_id)
    included_set = {start_id}
    edge_acc: list[tuple[str, str]] = []
    # Targets each included binder picked on the current branch, over all
    # of its type pairs; rewritten whenever the binder's type is expanded.
    picks: dict[str, tuple[str, ...]] = {}
    best: dict[str, float] = {}
    raw: list[tuple[float, tuple[tuple[str, str], ...]]] = []

    def materialize() -> None:
        # Worst-path time bottom-up over the included nodes, sinks first,
        # in the same association as worst_path_time: equal floats.
        for node_type in reverse_order:
            for node in included[node_type]:
                qos = svc[node].qos_nominal
                nexts = picks.get(node)
                if nexts:
                    best[node] = qos + max(lookup(node, nxt) + best[nxt] for nxt in nexts)
                else:
                    best[node] = qos
        raw.append((best[start_id], tuple(sorted(edge_acc))))

    def start_bound(position: int, node: str, value: float) -> float:
        # The start's least cost on this branch if ``node`` is worth
        # ``value``: nodes of the types before ``position`` are worth
        # their picks, every other node its least cost.
        worth = {node: value}
        for node_type in reverse_order[len(type_order) - position:]:
            for binder in included[node_type]:
                qos = svc[binder].qos_nominal
                nexts = picks.get(binder)
                if nexts:
                    worth[binder] = qos + max(
                        lookup(binder, nxt) + worth.get(nxt, lower[nxt]) for nxt in nexts
                    )
                else:
                    worth[binder] = qos
        return worth[start_id]

    def affordable(position: int, node: str, available: Sequence[str]) -> list[str]:
        # The targets ``node`` may pick without lifting the start's bound
        # above the cutoff.  The bound is monotone in the node's worth, as
        # float ``+`` and ``max`` are, so the affordable worths are a prefix
        # of the sorted distinct worths: bisect for its last one.
        qos = svc[node].qos_nominal
        worths = [qos + (lookup(node, target) + lower[target]) for target in available]
        levels = sorted(set(worths))
        low, high = 0, len(levels)  # levels[:low] are affordable, levels[high:] are not
        while low < high:
            middle = (low + high) // 2
            if start_bound(position, node, levels[middle]) <= cutoff:
                low = middle + 1
            else:
                high = middle
        if not low:
            return []
        top = levels[low - 1]
        return [target for target, worth in zip(available, worths) if worth <= top]

    def expand(position: int) -> None:
        if position == len(type_order):
            materialize()
            return
        binder_type = type_order[position]
        binders = included[binder_type]
        specs = facts.specs[binder_type]
        if not binders or not specs:
            expand(position + 1)
            return

        choice_meta: list[tuple[str, str, bool]] = []  # (binder, target type, first pair)
        choice_pools = []
        for index, (to_type, constraint) in enumerate(specs):
            for node in binders:
                available = succ_by_type.get(node, {}).get(to_type, [])
                if isinstance(constraint, AllServices):
                    pool: Sequence[tuple[str, ...]] = (tuple(available),)
                else:
                    if len(available) < constraint:
                        raise InsufficientServices(to_type, constraint, len(available))
                    if lower is not None and constraint:  # k=0 picks no target to price
                        available = affordable(position, node, available)
                    pool = tuple(combinations(available, constraint))
                choice_meta.append((node, to_type, index == 0))
                choice_pools.append(pool)

        for assignment in product(*choice_pools):
            marks: dict[str, int] = {}
            edge_mark = len(edge_acc)
            for (node, to_type, first), chosen in zip(choice_meta, assignment):
                picks[node] = chosen if first else picks[node] + chosen
                bucket = included[to_type]
                if to_type not in marks:
                    marks[to_type] = len(bucket)
                for target in chosen:
                    edge_acc.append(shared_edge[(node, target)])
                    if target not in included_set:
                        included_set.add(target)
                        bucket.append(target)
            expand(position + 1)
            del edge_acc[edge_mark:]
            for to_type, length in marks.items():
                bucket = included[to_type]
                for target in bucket[length:]:
                    included_set.discard(target)
                del bucket[length:]

    try:
        expand(0)
    finally:
        # expand refers to itself; clearing that cycle frees the search
        # state on return instead of at the next garbage collection.
        del expand
    raw.sort(key=lambda item: (item[0], item[1]))
    return [
        CandidateSubgraph(start_id, edges, cost, rank)
        for rank, (cost, edges) in enumerate(raw)
    ]


def _count(
    succ_by_type: _Successors,
    facts: _TemplateFacts,
    start_id: str,
    svc: Mapping[str, ServiceDescriptor],
) -> int:
    """The length of the unbounded :func:`_candidates` list, without listing it.

    The walk includes nodes as the search does, a node reached through
    several binders once, over the same pick pools.  At the deepest type
    with pairs, each assignment of picks is one candidate, so the count
    there is the product of the pool sizes.
    """
    type_order = facts.order
    last = max((i for i, t in enumerate(type_order) if facts.specs[t]), default=-1)
    included: dict[str, list[str]] = {t: [] for t in type_order}
    included[svc[start_id].type].append(start_id)
    included_set = {start_id}

    def count(position: int) -> int:
        if position > last:
            return 1
        binders = included[type_order[position]]
        if not binders:
            return count(position + 1)
        pairs = []  # (target type, constraint, available targets) per binder
        for to_type, constraint in facts.specs[type_order[position]]:
            for node in binders:
                available = succ_by_type.get(node, {}).get(to_type, [])
                if not isinstance(constraint, AllServices) and len(available) < constraint:
                    raise InsufficientServices(to_type, constraint, len(available))
                pairs.append((to_type, constraint, available))
        if position == last:
            return math.prod(count_combinations(len(available), k) for _, k, available in pairs)
        pools = [
            (tuple(available),) if isinstance(k, AllServices) else combinations(available, k)
            for _, k, available in pairs
        ]
        total = 0
        for assignment in product(*pools):
            marks: dict[str, int] = {}
            for (to_type, _, _), chosen in zip(pairs, assignment):
                bucket = included[to_type]
                if to_type not in marks:
                    marks[to_type] = len(bucket)
                for target in chosen:
                    if target not in included_set:
                        included_set.add(target)
                        bucket.append(target)
            total += count(position + 1)
            for to_type, length in marks.items():
                bucket = included[to_type]
                for target in bucket[length:]:
                    included_set.discard(target)
                del bucket[length:]
        return total

    try:
        return count(0)
    finally:
        del count  # see _candidates


def _item(pool: Sequence[CandidateSubgraph], index: int) -> CandidateSubgraph | None:
    """``pool[index]``, or ``None`` past the end of the pool."""
    try:
        return pool[index]
    except IndexError:
        return None


def select_assembly(
    per_start: Mapping[str, Sequence[CandidateSubgraph]],
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
    *,
    budget: int = DEFAULT_COMBINATION_BUDGET,
) -> AssemblyResult:
    """First feasible combination of one candidate per starting service.

    Combinations are visited as a lexicographic odometer over the
    ascending-sorted candidate lists (starts in id order, rightmost
    varying fastest), so the all-minimum combination is tested first.  A
    combination is feasible when, in the union graph with duplicate edges
    collapsed, every service's distinct inbound edge count stays within
    its threshold.

    The odometer is walked depth first with loads kept incrementally:
    placing or removing one candidate touches only its own edges.  Loads
    never fall as candidates are added, so once a prefix of starts
    overloads a service, every combination below that prefix is
    infeasible; the whole subtree is skipped and counted as tested
    without being built.  ``combinations_tested``, the :class:`Infeasible`
    count and the point where the budget runs out are therefore exactly
    those of testing every combination one by one.  A list is asked for
    its length only when a subtree below it is skipped, and for an item
    only when the odometer reaches it.  For the lazy lists of
    :func:`assemble`, lengths are counted; the full list is built only
    when the odometer reaches an item past the plateau.

    Raises :class:`Infeasible` after exhausting every combination and
    :class:`CombinationBudgetExceeded` if ``budget`` combinations were
    tested without an answer.
    """
    if not per_start:
        raise ValueError("no starting services to combine")
    start_ids = sorted(per_start)
    pools = [per_start[sid] for sid in start_ids]
    for sid, candidates in zip(start_ids, pools):
        if not candidates:
            raise ValueError(f"start {sid!r} has an empty candidate list")

    svc = service_map(services)
    last = len(pools) - 1

    holders: dict[tuple[str, str], int] = {}  # chosen candidates holding each edge
    loads: dict[str, int] = {}  # distinct inbound edges per node
    thresholds: dict[str, int] = {}  # read when a node first gets load
    overloaded = 0  # nodes whose load exceeds their threshold

    def place(candidate: CandidateSubgraph) -> None:
        nonlocal overloaded
        for edge in candidate.edges:
            held = holders.get(edge, 0)
            holders[edge] = held + 1
            if not held:
                target = edge[1]
                load = loads.get(target, 0) + 1
                loads[target] = load
                if target not in thresholds:
                    thresholds[target] = svc[target].threshold
                if load == thresholds[target] + 1:
                    overloaded += 1

    def remove(candidate: CandidateSubgraph) -> None:
        nonlocal overloaded
        for edge in candidate.edges:
            held = holders[edge] - 1
            holders[edge] = held
            if not held:
                target = edge[1]
                load = loads[target]
                if load == thresholds[target] + 1:
                    overloaded -= 1
                loads[target] = load - 1

    chosen = [0] * len(pools)
    position = 0
    tested = 0
    candidate = pools[0][0]
    while True:
        place(candidate)
        if not overloaded and position < last:
            position += 1
            chosen[position] = 0
            candidate = pools[position][0]
            continue
        # A full feasible combination, or a prefix none of whose
        # combinations can be feasible: count them all as tested.
        size = math.prod(len(pool) for pool in pools[position + 1:])
        if tested + size > budget:
            raise CombinationBudgetExceeded(budget)
        tested += size
        if not overloaded:
            break
        remove(candidate)
        candidate = _item(pools[position], chosen[position] + 1)
        while candidate is None:
            position -= 1
            if position < 0:
                raise Infeasible(tested)
            remove(pools[position][chosen[position]])
            candidate = _item(pools[position], chosen[position] + 1)
        chosen[position] += 1

    union_edges = frozenset(edge for edge, held in holders.items() if held)
    nodes = set(start_ids)
    for a, b in union_edges:
        nodes.add(a)
        nodes.add(b)
    combo = {sid: pool[index] for sid, pool, index in zip(start_ids, pools, chosen)}
    per_load = {node: loads.get(node, 0) for node in sorted(nodes)}
    return AssemblyResult(AssemblyGraph(frozenset(nodes), union_edges), combo, tested, per_load)


def assemble(
    services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
    net: Simulator,
    *,
    budget: int = DEFAULT_COMBINATION_BUDGET,
) -> AssemblyResult:
    """Run the full pipeline: flood and measure, enumerate per start,
    commit the first feasible combination.

    The template is checked once, and it, the registry and the binding
    graph are indexed once and shared by every stage.  Each start's list
    is lazy (see the module docstring); for a start without candidates
    the unbounded search raises its :class:`InsufficientServices`.
    """
    facts = _facts(template, check=True)  # reported before a duplicate id, as by the flood
    svc = service_map(services)
    graph, links = build_binding_graph(svc, template, net, facts=facts)
    start_ids = sorted(sid for sid in graph.nodes if svc[sid].type == facts.start_type)
    succ_by_type, shared_edge = _index(graph, svc)
    lower = _least_costs(succ_by_type, links, facts, svc, graph.nodes)
    per_start: dict[str, Sequence[CandidateSubgraph]] = {}
    for sid in start_ids:
        cutoff = lower[sid]
        if cutoff is None:
            per_start[sid] = _candidates(succ_by_type, shared_edge, links, facts, sid, svc)
            continue
        plateau = _candidates(succ_by_type, shared_edge, links, facts, sid, svc, lower, cutoff)
        complete = partial(_candidates, succ_by_type, shared_edge, links, facts, sid, svc)
        count = partial(_count, succ_by_type, facts, sid, svc)
        per_start[sid] = _LazyCandidates(plateau, complete, count)
    return select_assembly(per_start, svc, budget=budget)


class _LazyCandidates(Sequence):
    """One start's candidate list that holds its least-cost plateau.
    Lengths are counted; the full list is built only when the odometer
    reaches an item past the plateau."""

    __slots__ = ("_items", "_complete", "_count", "_length")

    def __init__(
        self,
        prefix: list[CandidateSubgraph],
        complete: Callable[[], list],
        count: Callable[[], int],
    ) -> None:
        self._items = prefix
        self._complete: Callable[[], list] | None = complete
        self._count = count
        self._length: int | None = None

    def _full(self) -> list[CandidateSubgraph]:
        if self._complete is not None:
            self._items = self._complete()
            self._complete = None
        return self._items

    def __getitem__(self, index):
        if isinstance(index, int) and 0 <= index < len(self._items):
            return self._items[index]
        return self._full()[index]

    def __len__(self) -> int:
        if self._complete is None:
            return len(self._items)
        if self._length is None:
            self._length = self._count()
        return self._length

    def __bool__(self) -> bool:
        return bool(self._items) or bool(self._full())
