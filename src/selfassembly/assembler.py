"""The assembly engine.

Assembly proceeds in three stages:

1. :func:`build_binding_graph` floods requests from the starting services
   along the template's type pairs, recording every allowed binding and
   measuring each traversed link, as if every constraint asked for all
   available targets.
2. :func:`enumerate_candidates` applies the structural constraints: for one
   starting service it lists every subgraph in which each included node
   picks exactly the required number of its targets (all of them for an
   ALL constraint), sorted by worst-path time, each cost equal to
   :func:`~selfassembly.model.worst_path_time` of it, bit for bit unless a
   ``-0.0`` and a ``0.0`` tie.  The search is one iterative walk over types.
   A start's pool lists its least-cost plateau at its first read and counts
   its length with the same walk.  Past the plateau the pool hands items
   out in rank order from one heap, listing one branch of the start's
   own picks at a time, only when the next item could come from it: the
   same walk, over the index with the start's groups set to those picks.
   Each walk reads one attempt object: the template's pairs by type, the
   descriptors, the flood's index and the least costs.  Given the record of
   the attempt before, :func:`assemble` keeps the pool of each start the
   change did not reach.
3. :func:`select_assembly` walks combinations of one candidate per start
   (an odometer over the sorted lists, rightmost start varying fastest) and
   commits the first whose deduplicated union keeps every service's
   distinct inbound bindings within its threshold.  Loads are updated per
   placed candidate, and a prefix of starts that already overloads a
   service is skipped with every combination below it, which still counts
   as tested.  Selection reads a pool by ``item(i)`` only once the odometer
   reaches it, and by ``length()``; it wraps plain lists and tuples uncopied.

The search is exhaustive but capped: it settles for the first feasible
combination rather than a globally optimal one, which the ascending sort
keeps near-optimal in practice.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import (
    CombinationBudgetExceeded,
    DomainError,
    Infeasible,
    InsufficientServices,
    MissingLinkQoS,
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


class CandidateSubgraph(NamedTuple):
    """One structurally compliant subgraph for a start, with its cost.

    ``edges`` is kept as a sorted tuple (the tie-break key for equal
    costs); ``rank`` is the position after sorting all candidates of the
    same start by ascending cost.  A named tuple, so it equals and orders
    like the plain 4-tuple of its fields, as a service descriptor does.
    """

    start_id: str
    edges: tuple[tuple[str, str], ...]
    cost: float
    rank: int

    _unchecked = classmethod(tuple.__new__)  # from a 4-tuple of fields, unchecked: no Python call

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset((self.start_id,)).union(*self.edges)

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


def build_binding_graph(
    services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
    net: Simulator,
    *,
    attempt: _Attempt | None = None,
) -> tuple[AssemblyGraph, QoSMatrix]:
    """Flood the template from the starting services and measure links.

    Starting services contact every visible target of the paired type;
    each contacted service measures the link from its sender and floods
    onward for its own type pairs.  The result contains one directed edge
    per allowed binding and one link measurement per edge.  Only services
    of template types are considered, grouped by type in id order once;
    each sender measures its links to a paired type's services with one
    :meth:`Simulator.measure_links` call, which skips the targets it cannot
    see, so the cost follows the template's services, not the registry
    size; a sink is not queued.  The call checks each time, so the flood
    does not.  An invalid template raises :class:`TemplateInvalid`.
    :func:`assemble` passes its ``attempt`` to fill:
    ``attempt.index[sender][to_type]``, the call's ``(edge, link)`` picks
    by target id, if any, as the very list the trace holds (so nothing may
    modify it), and ``attempt.ids[type]``, the reached ids in id order.
    """
    if not template._report.ok:
        raise TemplateInvalid(template._report)
    specs = template._specs
    svc = service_map(services)
    ids_by_type: dict[str, list[str]] = {t: [] for t in specs}
    for sid in sorted(svc):
        group = ids_by_type.get(svc[sid].type)
        if group is not None:
            group.append(sid)

    start_type = next(iter(specs))  # dependency order puts the one starting type first
    starts = ids_by_type[start_type]
    if not starts:
        raise NoStartingService(f"no live service of starting type {start_type!r}")

    reached = set(starts)
    queue = deque([(starts, start_type)])  # senders in groups of one type, in the order reached
    measured: dict[_Edge, float] = {}  # one entry per edge
    while queue:
        senders, sender_type = queue.popleft()
        for sender in senders:
            for to_type, _constraint in specs[sender_type]:
                picks = net.measure_links(sender, ids_by_type[to_type])  # the trace's list: never modified
                fresh = [target for (_, target), _ in picks if target not in reached]
                reached.update(fresh)
                if fresh and specs[to_type]:  # a sink has nothing to flood
                    queue.append((fresh, to_type))
                measured.update(picks)
                if picks and attempt is not None:
                    attempt.index.setdefault(sender, {})[to_type] = picks
    if attempt is not None:
        attempt.ids = {t: [sid for sid in ids if sid in reached] for t, ids in ids_by_type.items()}
    return AssemblyGraph._unchecked(frozenset(reached), frozenset(measured)), QoSMatrix._unchecked(measured)


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
    so each equals ``worst_path_time(candidate.graph, ...)`` without
    building the graph.  A binder's ``max`` keeps the first of equal terms
    in pick order (pairs in body order, targets in id order), so the two
    agree bit for bit where each binder has one pair; across two pairs, a
    ``-0.0`` and a ``0.0`` term tied out of id order may flip the zero.
    """
    svc = service_map(services)
    if start_id not in graph.nodes:
        raise ValueError(f"start {start_id!r} is not a node of the binding graph")
    if svc[start_id].type != template.starting_type():
        raise ValueError(f"service {start_id!r} is not of the starting type")
    picks = [(e, links.get(*e) if e in links else _MissingLink(e)) for e in sorted(graph.edges)]
    return _candidates(_Attempt(template, svc, _index(picks, svc)), start_id)


_Edge = tuple[str, str]
_Services = Mapping[str, ServiceDescriptor]
_Pick = tuple[_Edge, float]  # an edge of the binding graph and its link time
_Successors = Mapping[str, Mapping[str, Sequence[_Pick]]]
_Pair = tuple[str, str, Constraint, Sequence[_Pick]]  # binder, target type, constraint, pool
_NO_GROUPS: Mapping[str, Sequence[_Pick]] = {}  # a node without picks; never written
_edge_of = itemgetter(0)  # a pick's edge


class _MissingLink:
    """The link time of an edge that has none.  Adding to it raises
    :class:`MissingLinkQoS`, so a search raises only when it prices a pick
    of that edge, as a lookup there would."""

    __slots__ = ("edge",)

    def __init__(self, edge: _Edge) -> None:
        self.edge = edge

    def __add__(self, other: float) -> float:
        raise MissingLinkQoS(*self.edge)


def _index(picks: Iterable[_Pick], svc: _Services) -> _Successors:
    """Each node's picks grouped by target type, in the order given: sorted
    edges, each with its link time or a :class:`_MissingLink`, so that each
    group is sorted by target as the flood's ``index`` groups are."""
    succ_by_type: dict[str, dict[str, list[_Pick]]] = {}
    for pick in picks:
        a, b = pick[0]
        succ_by_type.setdefault(a, {}).setdefault(svc[b].type, []).append(pick)
    return succ_by_type


class _Attempt:
    """One assembly attempt, as the walkers read it: the template's pairs
    by type (``specs``) and its levels, the types with pairs in dependency
    order, the starting type first; the descriptors by id (``svc``); the
    flood's ``index`` of each node's picks by target type and its reached
    ``ids`` of each type in id order; and :func:`_least_costs`' ``lower``."""

    __slots__ = ("specs", "levels", "svc", "index", "ids", "lower")

    def __init__(self, template: ApplicationTemplate, svc: _Services, index: _Successors) -> None:
        self.specs, self.svc, self.index, self.ids = template._specs, svc, index, {}
        self.levels = [t for t, pairs in self.specs.items() if pairs]
        self.lower: dict[str, float | None] = {}


def _least_costs(attempt: _Attempt, previous: _Attempt | None = None) -> set[str]:
    """Sets the attempt's ``lower``: the least cost of a candidate rooted at
    each node of its ``ids``, or ``None`` when some node it must include
    lacks targets (listing it raises :class:`InsufficientServices`);
    returns the nodes that are clean.

    Bottom-up in reverse type order, a node's value is ``qos + max`` over
    its type pairs of the k-th smallest ``link + lower[target]`` (the
    largest for ALL, nothing for k=0), in the association of the candidate
    costs; a sink's is its qos, set for its whole type at once.  Float
    ``+`` and ``max`` are monotone, so a start's value equals its cheapest
    candidate's cost as a float; its sign of zero may not (a stable sort's
    k-th term), and no output reads it.

    A node is clean when the ``previous`` attempt valued it, with the same
    descriptor object and equal groups, and every link in them is non-zero
    to a clean target: it keeps its previous value, as its candidates are
    the previous ones.  Float ``==`` is bit equality but at ``-0.0 == 0.0``,
    whose sum may keep either sign, so a zero link prices its node again.
    """
    succ_by_type, svc = attempt.index, attempt.svc
    lower = attempt.lower = {}
    clean: set[str] = set()

    def least(node: str, specs: list[tuple[str, Constraint]]) -> float | None:
        groups = succ_by_type.get(node, _NO_GROUPS)
        worst: float | None = None  # the largest term over the pairs
        for to_type, constraint in specs:
            available = groups.get(to_type, ())
            k = len(available) if isinstance(constraint, AllServices) else constraint
            if k > len(available):
                return None
            if not k:
                continue
            try:
                terms = sorted([ms + lower[target] for (_, target), ms in available])
            except TypeError:  # a target's None: it lacks targets of its own
                return None
            if worst is None or terms[k - 1] > worst:
                worst = terms[k - 1]
        qos = svc[node].qos_nominal
        return qos if worst is None else qos + worst

    def kept(node: str) -> bool:
        groups, old = succ_by_type.get(node), previous
        if old.svc.get(node) is not svc[node] or node not in old.lower or old.index.get(node) != groups:
            return False
        return all(ms and t in clean for g in (groups or _NO_GROUPS).values() for (_, t), ms in g)

    for node_type, specs in reversed(attempt.specs.items()):
        nodes = attempt.ids[node_type]
        if not specs:  # sinks: valued at their qos, and kept by the descriptor alone
            lower.update(zip(nodes, map(attrgetter("qos_nominal"), map(svc.__getitem__, nodes))))
            if previous:
                clean.update(n for n in nodes if n in previous.lower and previous.svc.get(n) is svc[n])
            continue
        for node in nodes:
            if previous and kept(node):
                clean.add(node)
                lower[node] = previous.lower[node]
            else:
                lower[node] = least(node, specs)
    return clean


def _headroom(qos: float, ms: float, limit: float) -> float:
    """A bound on each float ``x`` with ``qos + (ms + x) <= limit`` (``qos,
    ms >= 0``): the most a target may be worth under a binder worth ``limit``.
    With u = 2**-53 the largest such ``x`` is at most ``limit - qos - ms +
    2.0001*u*limit``, and this sum errs by at most ``3*u*limit``; its
    ``8*u*limit`` term covers both (Higham 2002, section 2.2).  An infinite
    ``limit`` is kept as is: with an infinite ``qos`` or ``ms`` the sum is NaN."""
    return limit if limit == math.inf else (limit - qos) - ms + limit * 2.0 ** -50


class _Frame:
    """A level of the walk: its pools, the assignments of picks left there,
    the one the branch holds, and the headrooms it set (a node's first one
    includes it), to undo them."""

    __slots__ = ("level", "pairs", "assignments", "assignment", "narrowed")

    def __init__(self, level: int, pairs: list[_Pair]) -> None:
        self.level, self.pairs, self.narrowed = level, pairs, []
        self.assignments = product(*(
            (tuple(pool),) if isinstance(k, AllServices) else combinations(pool, k)
            for _, _, k, pool in pairs
        ))


def _branches(
    attempt: _Attempt, start_id: str, cutoff: float | None = None
) -> Iterator[tuple[list[_Frame], list[_Pair]]]:
    """The candidate search: one walk with an explicit stack over the types
    with pairs ("levels"), binders before targets.  A level's binders pick
    in every way of ``product`` over their pools (pair major, binder
    minor), including each binder-type target once.  At the deepest level
    every target is a sink, so the walk yields the branch there: the frames
    above at their current assignments, and the deepest pools (a level no
    binder reached has none: one empty assignment).  The first binder short
    of targets in that order raises :class:`InsufficientServices`.

    Given a ``cutoff``, every candidate of cost at most it is reached, by
    the attempt's least costs; for a ``cutoff`` of at least the start's,
    the others reached are at most a few ulps dearer.  Each included binder
    has a headroom, a bound on what it may be worth with the start within
    the cutoff: the cutoff for the start, the least :func:`_headroom` over
    its binders for a target (float ``+`` and ``max`` are monotone).  A
    binder keeps a target only if that pick, at the target's least cost,
    fits its headroom; an ALL pair keeps all of its own, which then fit, as
    the binder's least cost includes them.
    """
    succ_by_type, svc, specs, levels = attempt.index, attempt.svc, attempt.specs, attempt.levels
    lower = None if cutoff is None else attempt.lower
    last = len(levels) - 1
    included: dict[str, list[str]] = {node_type: [] for node_type in levels}
    included[levels[0]].append(start_id)
    # What each included binder may be worth; None or absent: not included.
    headroom: dict[str, float | None] = {start_id: math.inf if lower is None else cutoff}
    frames: list[_Frame] = []
    level = 0
    while True:
        pairs: list[_Pair] = []
        for to_type, constraint in specs[levels[level]]:
            for node in included[levels[level]]:
                pool = succ_by_type.get(node, _NO_GROUPS).get(to_type, ())
                if not isinstance(constraint, AllServices):
                    if len(pool) < constraint:
                        raise InsufficientServices(to_type, constraint, len(pool))
                    if lower is not None and constraint:  # k=0 picks no target to price
                        qos, limit = svc[node].qos_nominal, headroom[node]
                        pool = [p for p in pool if qos + (p[1] + lower[p[0][1]]) <= limit]
                pairs.append((node, to_type, constraint, pool))
        if level == last:
            yield frames, pairs
        else:
            frames.append(_Frame(level, pairs))
        while frames:  # the next assignment, backtracking past spent frames
            frame = frames[-1]
            for node, previous in reversed(frame.narrowed):
                headroom[node] = previous
                if previous is None:
                    included[svc[node].type].pop()
            frame.narrowed = []
            frame.assignment = next(frame.assignments, None)
            if frame.assignment is None:
                frames.pop()
                continue
            for (node, to_type, _, _), chosen in zip(frame.pairs, frame.assignment):
                bucket = included.get(to_type)
                if bucket is None:
                    continue  # sinks are never expanded
                for (_, target), ms in chosen:
                    previous = headroom.get(target)
                    if previous is None:
                        bucket.append(target)
                    room = math.inf if lower is None else _headroom(svc[node].qos_nominal, ms, headroom[node])
                    if previous is None or room < previous:
                        frame.narrowed.append((target, previous))
                        headroom[target] = room
            level = frame.level + 1
            break
        else:
            return


def _candidates(attempt: _Attempt, start_id: str, cutoff: float | None = None) -> list[CandidateSubgraph]:
    """The candidate list behind :func:`enumerate_candidates`; given a
    ``cutoff``, which the walk bounds by the attempt's least costs, only its
    exact prefix of cost at most ``cutoff``, each walked cost tested against
    it once.  A pick at the deepest level is priced once per branch of
    :func:`_branches`, as its link plus its sink's qos.  A candidate then
    re-prices only the binders above, bottom-up in the association of
    :func:`worst_path_time`, the sinks they pick at their qos.
    """
    raw: list[tuple[float, tuple[_Edge, ...]]] = []
    svc, specs, nothing = attempt.svc, attempt.specs, -math.inf  # the top of no terms
    limit = math.inf if cutoff is None else cutoff
    for frames, pairs in _branches(attempt, start_id, cutoff):
        worth: dict[str, float] = {}
        plan: list[tuple[str, float, list[_Pick]]] = []  # bottom-up
        above: list[_Edge] = []
        for frame in reversed(frames):
            picks: dict[str, list[_Pick]] = {}  # each binder's, in pair order
            for (node, to_type, _, _), chosen in zip(frame.pairs, frame.assignment):
                picks.setdefault(node, []).extend(chosen)
                above += map(_edge_of, chosen)
                if not specs[to_type]:
                    for (_, target), _ in chosen:
                        worth[target] = svc[target].qos_nominal
            for node, own in picks.items():
                plan.append((node, svc[node].qos_nominal, own))
        # Each deepest binder's ways to pick, over its pairs in order: edges, largest term.
        options: dict[str, list[tuple[tuple[_Edge, ...], float]]] = {}
        for node, _, k, pool in pairs:
            k = len(pool) if isinstance(k, AllServices) else k
            these = [((), nothing)]  # k=0 picks no target to price
            if k:
                terms = []
                for (_, target), ms in pool:
                    terms.append(ms + svc[target].qos_nominal)
                ends = map(_edge_of, pool)  # combinations keep the pool's order
                these = list(zip(combinations(ends, k), map(max, combinations(terms, k))))
            earlier = options.get(node)
            options[node] = these if earlier is None else [  # as max: the first of equal terms
                (edges + more, last if last > top else top) for edges, top in earlier for more, last in these
            ]
        choices = []
        for node, ways in options.items():
            qos = svc[node].qos_nominal
            choices.append([(e, qos if top == nothing else qos + top) for e, top in ways])
        for assignment in product(*choices):
            edges = above.copy()
            for node, (picked, value) in zip(options, assignment):
                worth[node] = value
                edges += picked
            for node, qos, own in plan:
                top = nothing
                for (_, target), ms in own:  # as max: the first of equal terms, in pick order
                    term = ms + worth[target]
                    top = term if term > top else top
                worth[node] = qos if top == nothing else qos + top
            if worth[start_id] <= limit:  # the bounded walk may reach dearer ones
                edges.sort()
                raw.append((worth[start_id], tuple(edges)))
    raw.sort()  # by cost, then edges: no two candidates share their edges
    make = CandidateSubgraph._unchecked
    return [make((start_id, e, cost, rank)) for rank, (cost, e) in enumerate(raw)]


def _count(attempt: _Attempt, start_id: str) -> int:
    """The length of the unbounded :func:`_candidates` list, without
    listing it: each branch of :func:`_branches` counts the product of its
    deepest pools' ways to pick, as each assignment there is one candidate."""
    return sum(
        math.prod(1 if isinstance(k, AllServices) else math.comb(len(pool), k) for _, _, k, pool in pairs)
        for _, pairs in _branches(attempt, start_id)
    )


class _Pool:
    """One start's candidates, as selection reads them: a plain sequence,
    uncopied, or a start of an attempt, whose least-cost plateau is listed
    at the first read unless given; it counts its length once and hands out
    the items past the plateau in rank order, listing only as far as asked:
    Lawler's (1972) partition, one level deep.

    A branch is one assignment of the start's picks; its least cost, in the
    association of :func:`_least_costs`, is exact.  At the first read past
    the plateau, one heap takes the branches by least cost; a branch of
    sinks only goes in as its one candidate, of that cost bit for bit.  A
    branch popped is listed by the walk with the start's groups in the index
    set to its picks, then put back (no pair enters the start's type, so no
    other node reads them).  Its items go in by ``(cost, edges)``, after a
    branch of equal cost, so an item leaves, ranked by the items before it,
    only when no unlisted branch could hold one before it."""

    __slots__ = ("_items", "_attempt", "_start", "_heap", "_length")

    def __init__(
        self, items: Sequence[CandidateSubgraph] | None, attempt: _Attempt | None = None, start_id: str = ""
    ) -> None:
        self._items, self._attempt, self._start, self._heap = items, attempt, start_id, None
        self._length = None if attempt else len(items)

    def item(self, index: int) -> CandidateSubgraph | None:
        """The candidate of rank ``index``, or ``None`` past the end."""
        items, heap, attempt = self._items, self._heap, self._attempt
        if items is None:
            items = self._items = _candidates(attempt, self._start, attempt.lower[self._start])
        if index >= len(items) and attempt:
            start_id, succ_by_type, specs, lower = self._start, attempt.index, attempt.specs, attempt.lower
            if heap is None:
                heap = self._heap = []
                qos, groups = attempt.svc[start_id].qos_nominal, succ_by_type.get(start_id, _NO_GROUPS)
                types = [t for t, _ in specs[attempt.levels[0]]]
                pairs = [(start_id, t, k, groups.get(t, ())) for t, k in specs[attempt.levels[0]]]
                for order, assignment in enumerate(_Frame(0, pairs).assignments):
                    terms = [ms + lower[target] for chosen in assignment for (_, target), ms in chosen]
                    cost = qos + max(terms) if terms else qos
                    if any(chosen for t, chosen in zip(types, assignment) if specs[t]):
                        heap.append((cost, 0, order, dict(zip(types, assignment))))  # the start's picks
                    else:  # a branch of sinks only is its one candidate
                        edges = sorted(edge for chosen in assignment for edge, _ in chosen)
                        heap.append((cost, 1, tuple(edges)))
                heapify(heap)
            while heap and index >= len(items):
                entry = heappop(heap)
                if not entry[1]:
                    groups, succ_by_type[start_id] = succ_by_type[start_id], entry[3]  # O(1), unlike a copy
                    for item in _candidates(attempt, start_id):
                        heappush(heap, (item.cost, 1, item.edges))
                    succ_by_type[start_id] = groups  # the walk cannot raise: lower[start_id] is not None
                elif entry[0] > lower[start_id]:  # the plateau's items are handed out already
                    items.append(CandidateSubgraph._unchecked((start_id, entry[2], entry[0], len(items))))
        return items[index] if index < len(items) else None

    def length(self) -> int:
        if self._length is None:
            self._length = _count(self._attempt, self._start)
        return self._length


class _Reuse:
    """What one :func:`assemble` leaves to the next over the same template,
    which is checked when the record is made: the last attempt whose starts
    all had candidates and, beside it, that attempt's pools, replaced only
    as a whole.  A kept pool holds its own attempt; held in it, the pools
    would keep every attempt before alive."""

    __slots__ = ("template", "attempt", "pools")

    def __init__(self, template: ApplicationTemplate) -> None:
        if not template._report.ok:
            raise TemplateInvalid(template._report)
        self.template, self.attempt, self.pools = template, None, {}


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
    those of testing every combination one by one.  Each list is read as
    a :class:`_Pool`: asked for its ``length()`` only when a subtree below
    it is skipped (their product once per position), and for an ``item(i)``
    only when the odometer reaches it, so an empty pool of an attempt raises
    ``ValueError`` there, an empty plain sequence up front.

    Raises :class:`Infeasible` after exhausting every combination and
    :class:`CombinationBudgetExceeded` if ``budget`` combinations were
    tested without an answer.
    """
    if not per_start:
        raise ValueError("no starting services to combine")
    start_ids = sorted(per_start)
    pools = [p if isinstance(p, _Pool) else _Pool(p) for p in map(per_start.get, start_ids)]
    for sid, pool in zip(start_ids, pools):
        if not pool._attempt and pool.item(0) is None:
            raise ValueError(f"start {sid!r} has an empty candidate list")

    svc = service_map(services)
    last = len(pools) - 1

    holders: dict[tuple[str, str], int] = {}  # chosen candidates holding each edge
    loads: dict[str, int] = {}  # distinct inbound edges per node
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
                if load == svc[target].threshold + 1:
                    overloaded += 1

    def remove(candidate: CandidateSubgraph) -> None:
        nonlocal overloaded
        for edge in candidate.edges:
            held = holders[edge] - 1
            holders[edge] = held
            if not held:
                target = edge[1]
                load = loads[target]
                if load == svc[target].threshold + 1:
                    overloaded -= 1
                loads[target] = load - 1

    chosen = [0] * len(pools)
    below: list[int | None] = [None] * len(pools)  # combinations under each position
    position = tested = 0
    candidate = pools[0].item(0)
    while True:
        if candidate is None:  # a first read of an attempt's pool: plain lists were checked
            raise ValueError(f"start {start_ids[position]!r} has an empty candidate list")
        place(candidate)
        if not overloaded and position < last:
            position += 1
            chosen[position] = 0
            candidate = pools[position].item(0)
            continue
        # A full feasible combination, or a prefix none of whose
        # combinations can be feasible: count them all as tested.
        size = below[position]
        if size is None:
            size = below[position] = math.prod(pool.length() for pool in pools[position + 1:])
        if tested + size > budget:
            raise CombinationBudgetExceeded(budget)
        tested += size
        if not overloaded:
            break
        remove(candidate)
        candidate = pools[position].item(chosen[position] + 1)
        while candidate is None:
            position -= 1
            if position < 0:
                raise Infeasible(tested)
            remove(pools[position].item(chosen[position]))
            candidate = pools[position].item(chosen[position] + 1)
        chosen[position] += 1

    union_edges = frozenset(edge for edge, held in holders.items() if held)
    nodes = frozenset(start_ids).union(*union_edges)  # every endpoint: no edge to check
    combo = {sid: pool.item(index) for sid, pool, index in zip(start_ids, pools, chosen)}
    per_load = {node: loads.get(node, 0) for node in sorted(nodes)}
    return AssemblyResult(AssemblyGraph._unchecked(nodes, union_edges), combo, tested, per_load)


def assemble(
    services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
    net: Simulator,
    *,
    budget: int = DEFAULT_COMBINATION_BUDGET,
    reuse: _Reuse | None = None,
) -> AssemblyResult:
    """Run the full pipeline: flood and measure, enumerate per start,
    commit the first feasible combination.

    One attempt object carries the template's pairs, the descriptors, the
    flood's index and reached ids, and the least costs to every stage.
    Each start's pool is unlisted until selection reads it (see the module
    docstring); for a start without candidates the unbounded search raises
    its :class:`InsufficientServices` here, the first in id order.

    ``reuse`` is the record of an earlier call over the same template,
    which this one replaces; without one, or for another template, a fresh
    one checks the template.  A start :func:`_least_costs` finds clean
    keeps its pool from that call; the flood and selection always run.  The
    flood fills the attempt, and its returned graph and matrix are dropped.
    """
    if reuse is None or reuse.template is not template:
        reuse = _Reuse(template)  # reported before a duplicate id, as by the flood
    svc = service_map(services)
    attempt = _Attempt(template, svc, {})
    build_binding_graph(svc, template, net, attempt=attempt)
    clean = _least_costs(attempt, reuse.attempt)
    lower, pools = attempt.lower, {}
    for sid in attempt.ids[attempt.levels[0]]:
        if sid in clean:
            pools[sid] = reuse.pools[sid]
        elif lower[sid] is None:
            pools[sid] = _candidates(attempt, sid)  # raises InsufficientServices
        else:
            pools[sid] = _Pool(None, attempt, sid)  # listed at its first read
    reuse.attempt, reuse.pools = attempt, pools
    return select_assembly(pools, svc, budget=budget)
