"""A straightforward recursive candidate search: one recursion per
template type, a full re-pricing of every included node per candidate and
a bisected plateau filter.  It is the reference that the iterative walker
in ``selfassembly.assembler`` is tested against, with the exact headroom
that the walker's bound is tested against.

These functions take their own index of the binding graph: targets grouped
by type without link times, an edge-sharing map and the ``QoSMatrix``
itself.  Their recursion depth grows with the template, so keep the
templates they are given shallow.
"""
from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Mapping, Sequence
from itertools import combinations, product

from selfassembly import CandidateSubgraph, InsufficientServices, QoSMatrix, count_combinations
from selfassembly.model import AllServices, AssemblyGraph, Constraint, ServiceDescriptor


_Edge = tuple[str, str]
_Successors = Mapping[str, Mapping[str, Sequence[str]]]
_Specs = Mapping[str, Sequence[tuple[str, Constraint]]]  # a template's pairs by type, in dependency order
_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")
_INF_BITS = _I64.unpack(_F64.pack(math.inf))[0]


def reference_headroom(qos: float, ms: float, limit: float, floor: float) -> float:
    """The largest float ``x`` with ``qos + (ms + x) <= limit``, given that
    ``floor`` fits: the most a target may be worth under a binder that may
    be worth ``limit``.  Non-negative floats order as their bit patterns
    do, so this gallops over those from the rounded estimate, which is
    usually the answer or next to it."""
    if limit == math.inf:
        return limit
    low, high = _I64.unpack(_F64.pack(floor + 0.0))[0], _INF_BITS  # + 0.0 maps -0.0 to 0.0
    probe, step = _I64.unpack(_F64.pack(max((limit - qos) - ms, floor) + 0.0))[0], 1
    while high - low > 1:  # low fits and high does not
        if qos + (ms + _F64.unpack(_I64.pack(probe))[0]) <= limit:
            low, probe = probe, probe + step
        else:
            high, probe = probe, probe - step
        step *= 2
        if not low < probe < high:
            probe = (low + high) // 2
    return _F64.unpack(_I64.pack(low))[0]


def reference_index(
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


def reference_least_costs(
    succ_by_type: _Successors,
    links: QoSMatrix,
    specs_by_type: _Specs,
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
    candidate's cost as a float (where a ``-0.0`` and a ``0.0`` term tie,
    not always in its sign of zero).  A node that could pick a target without
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
    for node_type in reversed(list(specs_by_type)):
        specs = specs_by_type[node_type]
        for node in by_type.get(node_type, ()):
            lower[node] = least(node, specs) if specs else svc[node].qos_nominal
    return lower


def reference_candidates(
    succ_by_type: _Successors,
    shared_edge: Mapping[_Edge, _Edge],
    links: QoSMatrix,
    specs_by_type: _Specs,
    start_id: str,
    svc: Mapping[str, ServiceDescriptor],
    lower: Mapping[str, float | None] | None = None,
    cutoff: float = math.inf,
) -> list[CandidateSubgraph]:
    """The recursive search, with the contract of ``assembler._candidates``.

    Given the least costs ``lower`` of :func:`reference_least_costs` and a
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
    type_order = list(specs_by_type)
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
        specs = specs_by_type[binder_type]
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


def reference_count(
    succ_by_type: _Successors,
    specs_by_type: _Specs,
    start_id: str,
    svc: Mapping[str, ServiceDescriptor],
) -> int:
    """The length of the unbounded :func:`reference_candidates` list, without listing it.

    The walk includes nodes as the search does, a node reached through
    several binders once, over the same pick pools.  At the deepest type
    with pairs, each assignment of picks is one candidate, so the count
    there is the product of the pool sizes.
    """
    type_order = list(specs_by_type)
    last = max((i for i, t in enumerate(type_order) if specs_by_type[t]), default=-1)
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
        for to_type, constraint in specs_by_type[type_order[position]]:
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
        del count  # see reference_candidates
