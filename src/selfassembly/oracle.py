"""Independent brute-force reference for small instances.

Everything here deliberately avoids the assembler's code paths: subgraphs
are enumerated by a node-queue recursion instead of type layers, path
times by explicit path enumeration instead of dynamic programming, and
binomials by Pascal's triangle instead of factorials.  Used as ground
truth in tests and by ``selfassembly verify``.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Mapping

from .assembler import AssemblyResult
from .errors import InstanceTooLarge
from .model import (
    AllServices,
    ApplicationTemplate,
    AssemblyGraph,
    Constraint,
    QoSMatrix,
    ServiceDescriptor,
    classify_roles,
    Role,
    service_map,
)

SMALL_INSTANCE_BOUND = 14


@dataclass
class OracleReport:
    """Everything the exhaustive search found."""

    feasible_assemblies: list[AssemblyGraph]
    min_max_time: float | None
    count_candidates_per_start: dict[str, int]

    @property
    def feasible(self) -> bool:
        return bool(self.feasible_assemblies)


def exhaustive_worst_path(
    graph: AssemblyGraph,
    start: str,
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
    links: QoSMatrix,
) -> float:
    """Worst-path time by enumerating every start-to-sink path explicitly."""
    svc = service_map(services)
    succ: dict[str, list[str]] = {}
    for a, b in graph.edges:
        succ.setdefault(a, []).append(b)
    for targets in succ.values():
        targets.sort()

    best: float | None = None
    stack: list[tuple[str, float, frozenset[str]]] = [
        (start, svc[start].qos_nominal, frozenset((start,)))
    ]
    while stack:
        node, total, on_path = stack.pop()
        nexts = succ.get(node)
        if not nexts:
            best = total if best is None else max(best, total)
            continue
        for nxt in nexts:
            if nxt in on_path:
                raise ValueError("cycle on path")
            stack.append(
                (nxt, total + links.get(node, nxt) + svc[nxt].qos_nominal, on_path | {nxt})
            )
    assert best is not None
    return best


def _out_pairs(template: ApplicationTemplate) -> dict[str, list[tuple[str, Constraint]]]:
    """``(to_type, constraint)`` pairs per from-type, in body order."""
    out: dict[str, list[tuple[str, Constraint]]] = {}
    for (from_type, to_type), constraint in zip(template.body, template.constraints):
        out.setdefault(from_type, []).append((to_type, constraint))
    return out


def _subgraphs_from(
    start: str,
    template: ApplicationTemplate,
    svc: Mapping[str, ServiceDescriptor],
) -> list[frozenset[tuple[str, str]]]:
    """All constraint-compliant edge sets rooted at one start, by direct
    recursion over a queue of nodes awaiting their picks."""
    by_type: dict[str, list[str]] = {}
    for descriptor in svc.values():
        by_type.setdefault(descriptor.type, []).append(descriptor.id)
    for ids in by_type.values():
        ids.sort()
    out_pairs = _out_pairs(template)

    results: list[frozenset[tuple[str, str]]] = []

    def pick(pending: tuple[str, ...], edges: frozenset[tuple[str, str]], done: frozenset[str]):
        if not pending:
            results.append(edges)
            return
        node, rest = pending[0], pending[1:]
        if node in done:
            pick(rest, edges, done)
            return
        pools = []
        for to_type, constraint in out_pairs.get(svc[node].type, ()):
            available = by_type.get(to_type, [])
            if isinstance(constraint, AllServices):
                pools.append([tuple(available)])
            elif len(available) < constraint:
                return  # this node cannot satisfy its constraint
            else:
                pools.append(list(combinations(available, constraint)))
        for assignment in product(*pools):
            new_edges = set(edges)
            new_pending = list(rest)
            for chosen in assignment:
                for target in chosen:
                    new_edges.add((node, target))
                    if target not in done and target not in new_pending:
                        new_pending.append(target)
            pick(tuple(new_pending), frozenset(new_edges), done | {node})

    pick((start,), frozenset(), frozenset())
    return results


def exhaustive_assemblies(
    services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
    links: QoSMatrix,
) -> OracleReport:
    """Enumerate every combination of per-start subgraphs, with no sorting
    and no early exit, and keep the ones whose union respects every
    threshold.

    Also reports, over the surviving combinations, the minimum of the
    maximum per-start path time.  Raises :class:`InstanceTooLarge` beyond
    ``SMALL_INSTANCE_BOUND`` services.
    """
    svc = dict(service_map(services))
    if len(svc) > SMALL_INSTANCE_BOUND:
        raise InstanceTooLarge(f"{len(svc)} services > bound {SMALL_INSTANCE_BOUND}")

    roles = classify_roles(svc.values(), template)
    start_ids = sorted(sid for sid, role in roles.items() if role is Role.STARTING)
    per_start = {sid: _subgraphs_from(sid, template, svc) for sid in start_ids}
    counts = {sid: len(subs) for sid, subs in per_start.items()}

    feasible: list[AssemblyGraph] = []
    seen: set[frozenset[tuple[str, str]]] = set()
    best_max: float | None = None
    if start_ids and all(counts.values()):
        for combo in product(*(per_start[sid] for sid in start_ids)):
            union: set[tuple[str, str]] = set()
            for edges in combo:
                union.update(edges)
            loads: dict[str, int] = {}
            for _, target in union:
                loads[target] = loads.get(target, 0) + 1
            if any(count > svc[node].threshold for node, count in loads.items()):
                continue
            frozen = frozenset(union)
            if frozen not in seen:
                seen.add(frozen)
                feasible.append(AssemblyGraph.from_edges(union, start_ids))
            worst = max(
                exhaustive_worst_path(
                    AssemblyGraph.from_edges(edges, extra_nodes=(sid,)), sid, svc, links
                )
                for sid, edges in zip(start_ids, combo)
            )
            if best_max is None or worst < best_max:
                best_max = worst
    return OracleReport(feasible, best_max, counts)


def binomial_table(n_max: int) -> list[list[int]]:
    """Pascal's triangle up to row ``n_max``, built by addition only."""
    if n_max > 60:
        raise ValueError("triangle bound is 60 rows")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1]
        for k in range(1, n):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        rows.append(row)
    return rows


def check_assembly(
    result: AssemblyResult,
    services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
) -> list[str]:
    """Independent compliance check of a committed assembly.

    Verifies that every starting service is served, that each chosen
    candidate gives each of its nodes exactly the constrained number of
    picks (all available for ALL), that the assembly is the deduplicated
    union of the chosen candidates, and that every service's distinct
    inbound edges stay within its threshold.  Returns a list of
    violations; empty means compliant.
    """
    svc = dict(service_map(services))
    problems: list[str] = []

    roles = classify_roles(svc.values(), template)
    expected_starts = {sid for sid, role in roles.items() if role is Role.STARTING}
    if set(result.chosen) != expected_starts:
        problems.append(
            f"served starts {sorted(result.chosen)} != expected {sorted(expected_starts)}"
        )
    for sid in expected_starts:
        if sid not in result.assembly.nodes:
            problems.append(f"starting service {sid!r} missing from the assembly")

    available = {t: 0 for t in template.types()}
    for descriptor in svc.values():
        if descriptor.type in available:
            available[descriptor.type] += 1

    out_pairs = _out_pairs(template)
    for start_id, candidate in result.chosen.items():
        out_by_node: dict[str, dict[str, int]] = {}
        for a, b in candidate.edges:
            out_by_node.setdefault(a, {}).setdefault(svc[b].type, 0)
            out_by_node[a][svc[b].type] += 1
        for node in candidate.nodes:
            for to_type, constraint in out_pairs.get(svc[node].type, ()):
                have = out_by_node.get(node, {}).get(to_type, 0)
                want = available[to_type] if isinstance(constraint, AllServices) else constraint
                if have != want:
                    problems.append(
                        f"candidate of {start_id!r}: node {node!r} has {have} picks of "
                        f"type {to_type!r}, expected {want}"
                    )

    union: set[tuple[str, str]] = set()
    for candidate in result.chosen.values():
        union.update(candidate.edges)
    if result.assembly.edges != frozenset(union):
        problems.append("assembly edges are not the union of the chosen candidates")

    loads: dict[str, int] = {}
    for _, target in result.assembly.edges:
        loads[target] = loads.get(target, 0) + 1
    for node, count in loads.items():
        if count > svc[node].threshold:
            problems.append(
                f"service {node!r} carries {count} bindings, threshold {svc[node].threshold}"
            )
    for node in result.assembly.nodes:
        recorded = result.per_service_load.get(node)
        actual = loads.get(node, 0)
        if recorded != actual:
            problems.append(
                f"recorded load {recorded} for {node!r} differs from actual {actual}"
            )
    return problems
