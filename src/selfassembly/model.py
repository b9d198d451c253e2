"""Core value model: service descriptors, application templates, assembly
graphs, measured link times, and the worst-path processing time.

A service is an immutable (type, nominal processing time, binding threshold)
descriptor.  An application template prescribes which service types bind to
which, and how many targets each binder must pick.  Assemblies are plain
directed graphs over service ids.  The worst-path time of a subgraph (node
processing plus link transfer along the most expensive start-to-sink path)
is the quantity the assembler minimizes when ranking candidates.

Everything in this module is a pure value or a pure function; values are
safe to share across threads.  A template caches what it derives for the
assembler, its validation report and its pairs by type, on first use.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from heapq import heappop, heappush
from operator import attrgetter
from typing import NamedTuple

from .errors import DisconnectedNode, MissingLinkQoS, UnknownServiceType


class AllServices:
    """Structural constraint sentinel: bind to every available target.

    A singleton; use the module-level ``ALL`` instance.
    """

    _instance: "AllServices | None" = None

    def __new__(cls) -> "AllServices":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ALL"

    def __reduce__(self):
        return (AllServices, ())


ALL = AllServices()

Constraint = int | AllServices


class _ServiceFields(NamedTuple):
    id: str
    type: str
    qos_nominal: float
    threshold: int


class ServiceDescriptor(_ServiceFields):
    """One service's self-description.

    ``qos_nominal`` is the processing time (ms) the service offers under
    normal load; ``threshold`` is the number of simultaneous bindings it
    accepts while still honoring that time.  A validated named tuple, so
    it equals the plain 4-tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, id: str, type: str, qos_nominal: float, threshold: int):
        if not id:
            raise ValueError("service id must be non-empty")
        if not type:
            raise ValueError("service type must be non-empty")
        if not qos_nominal >= 0:  # also rejects NaN, which costs could not order
            raise ValueError(f"qos_nominal must be >= 0, got {qos_nominal}")
        if isinstance(threshold, bool) or not isinstance(threshold, int):
            raise ValueError(f"threshold must be an integer, got {threshold!r}")
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        return tuple.__new__(cls, (id, type, qos_nominal, threshold))

    # ``_unchecked(fields)``: a descriptor of the 4-tuple ``fields``, which
    # the caller has already checked as ``__new__`` does; no Python call.
    _unchecked = classmethod(tuple.__new__)

    @classmethod
    def _make(cls, iterable) -> "ServiceDescriptor":  # so that _replace validates too
        return cls(*iterable)


class Role(Enum):
    """Position of a service's type within the template's type graph."""

    STARTING = "starting"
    INTERMEDIATE = "intermediate"
    ENDING = "ending"


@dataclass(frozen=True)
class ApplicationTemplate:
    """Desired composition shape: ordered type pairs plus one structural
    constraint per pair.

    Construction is permissive (so malformed templates can be inspected);
    use :func:`validate_template` to obtain a violation report.
    """

    body: tuple[tuple[str, str], ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple((a, b) for a, b in self.body))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def types(self) -> set[str]:
        out: set[str] = set()
        for a, b in self.body:
            out.add(a)
            out.add(b)
        return out

    def from_types(self) -> set[str]:
        return {a for a, _ in self.body}

    def to_types(self) -> set[str]:
        return {b for _, b in self.body}

    def starting_types(self) -> list[str]:
        return sorted(self.from_types() - self.to_types())

    def starting_type(self) -> str:
        starts = self.starting_types()
        if len(starts) != 1:
            raise ValueError(
                f"template must have exactly one starting type, found {starts or 'none'}"
            )
        return starts[0]

    def topological_types(self) -> list[str]:
        """Types in dependency order (binders before their targets).

        Deterministic: ties are broken by name.  Raises ``ValueError`` if
        the type graph contains a cycle.
        """
        succ: dict[str, list[str]] = {}
        for a, b in self.body:
            succ.setdefault(a, []).append(b)
        return _topological(self.types(), succ)

    @cached_property
    def _report(self) -> TemplateReport:
        """:func:`validate_template` of this template, worked out once."""
        return validate_template(self)

    @cached_property
    def _specs(self) -> dict[str, list[tuple[str, Constraint]]]:
        """Each type's ``(to_type, constraint)`` pairs in body order, the types in
        dependency order; worked out once, by :func:`validate_template` too (a
        cycle raises ``ValueError``)."""
        specs: dict[str, list[tuple[str, Constraint]]] = {t: [] for t in self.topological_types()}
        for (from_type, to_type), constraint in zip(self.body, self.constraints):
            specs[from_type].append((to_type, constraint))
        return specs


@dataclass(frozen=True)
class TemplateReport:
    """Outcome of template validation; empty ``violations`` means valid."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_template(template: ApplicationTemplate) -> TemplateReport:
    """Check a template's structural rules and report every violation."""
    violations: list[str] = []
    body = template.body
    constraints = template.constraints

    if not body:
        violations.append("template body is empty")
    if len(body) != len(constraints):
        violations.append(
            f"body has {len(body)} pairs but {len(constraints)} constraints"
        )
    for idx, c in enumerate(constraints):
        if isinstance(c, AllServices):
            continue
        if isinstance(c, bool) or not isinstance(c, int) or c < 1:
            violations.append(
                f"constraint #{idx} must be a positive integer or ALL, got {c!r}"
            )

    seen: set[tuple[str, str]] = set()
    for pair in body:
        if pair in seen:
            violations.append(f"duplicate body pair {pair!r}")
        seen.add(pair)

    if body:
        starts = template.starting_types()
        if not starts:
            violations.append("no starting type: every type has an inbound pair")
        elif len(starts) > 1:
            violations.append("multiple starting types: " + ", ".join(starts))
        try:
            template._specs  # the one dependency sort, kept for the stages
        except ValueError:
            violations.append("type graph contains a cycle")

    return TemplateReport(tuple(violations))


def classify_roles(
    services: Iterable[ServiceDescriptor],
    template: ApplicationTemplate,
) -> dict[str, Role]:
    """Assign each service its template role.

    A service is STARTING iff its type has no inbound body pair and ENDING
    iff it has no outbound one.  Raises :class:`UnknownServiceType` for a
    service whose type appears nowhere in the body.
    """
    froms = template.from_types()
    tos = template.to_types()
    known = froms | tos
    roles: dict[str, Role] = {}
    for svc in sorted(services, key=lambda s: s.id):
        if svc.type not in known:
            raise UnknownServiceType(
                f"service {svc.id!r} has type {svc.type!r} absent from the template body"
            )
        if svc.type not in tos:
            roles[svc.id] = Role.STARTING
        elif svc.type not in froms:
            roles[svc.id] = Role.ENDING
        else:
            roles[svc.id] = Role.INTERMEDIATE
    return roles


@dataclass(frozen=True)
class AssemblyGraph:
    """Directed graph of service bindings; nodes are service ids."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(map(tuple, self.edges)))  # the given tuples
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) references a node outside the graph")

    @classmethod
    def _unchecked(cls, nodes: frozenset[str], edges: frozenset[tuple[str, str]]) -> AssemblyGraph:
        """A graph over ``nodes`` and ``edges``, frozensets whose edges the
        caller built as tuples between two of ``nodes``; kept, not checked."""
        graph = cls.__new__(cls)
        object.__setattr__(graph, "nodes", nodes)
        object.__setattr__(graph, "edges", edges)
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        extra_nodes: Iterable[str] = (),
    ) -> "AssemblyGraph":
        edge_set = {(a, b) for a, b in edges}
        nodes = set(extra_nodes)
        for a, b in edge_set:
            nodes.add(a)
            nodes.add(b)
        return cls(frozenset(nodes), frozenset(edge_set))

    def successors(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for a, b in self.edges:
            out.setdefault(a, []).append(b)
        for targets in out.values():
            targets.sort()
        return out


class QoSMatrix:
    """Measured link transfer times keyed by ordered (from, to) id pairs.

    The map is partial: an entry exists only for pairs that were actually
    measured.  Values are non-negative milliseconds.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[tuple[str, str], float] | None = None):
        self._entries: dict[tuple[str, str], float] = {}
        if entries:
            for (a, b), value in entries.items():
                self.set(a, b, value)

    @classmethod
    def _unchecked(cls, entries: dict[tuple[str, str], float]) -> QoSMatrix:
        """A matrix over ``entries``, whose values the caller has already
        converted and checked as :meth:`set` does; the dict is kept, not copied."""
        matrix = cls.__new__(cls)
        matrix._entries = entries
        return matrix

    def set(self, from_id: str, to_id: str, ms: float) -> None:
        ms = float(ms)
        if not ms >= 0:  # also rejects NaN
            raise ValueError(f"link time must be >= 0, got {ms}")
        self._entries[(from_id, to_id)] = ms

    def get(self, from_id: str, to_id: str) -> float:
        try:
            return self._entries[(from_id, to_id)]
        except KeyError:
            raise MissingLinkQoS(from_id, to_id) from None

    def __contains__(self, pair: tuple[str, str]) -> bool:
        return pair in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QoSMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"QoSMatrix({len(self._entries)} entries)"

    def items(self) -> list[tuple[tuple[str, str], float]]:
        return sorted(self._entries.items())


def service_map(
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
) -> Mapping[str, ServiceDescriptor]:
    """Index descriptors by id, rejecting duplicate ids.  A mapping is
    returned as is, and a list or tuple is read without a copy."""
    if isinstance(services, Mapping):
        return services
    if not isinstance(services, (list, tuple)):
        services = list(services)
    out = dict(zip(map(attrgetter("id"), services), services))
    if len(out) != len(services):  # name the first repeated id
        seen: set[str] = set()
        for svc in services:
            if svc.id in seen:
                raise ValueError(f"duplicate service id {svc.id!r}")
            seen.add(svc.id)
    return out


def worst_path_time(
    graph: AssemblyGraph,
    start: str,
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
    links: QoSMatrix,
) -> float:
    """Worst-case end-to-end processing time of a subgraph.

    The time of one path is the sum of every traversed node's nominal
    processing time (start and sink included) plus the measured transfer
    time of every traversed link; the result is the maximum over all
    directed paths from ``start`` to a sink of the graph.  Each node takes
    the ``max`` over its successors in target-id order, which keeps the
    first of equal terms: where a ``-0.0`` and a ``0.0`` path term tie, the
    smaller target id's sign of zero is kept, whatever the hash seed.

    Raises :class:`DisconnectedNode` if some node of the graph cannot be
    reached from ``start`` and :class:`MissingLinkQoS` if an edge was never
    measured.
    """
    if start not in graph.nodes:
        raise DisconnectedNode(f"start node {start!r} is not in the subgraph")
    svc = service_map(services)
    succ: dict[str, list[str]] = {}
    for a, b in sorted(graph.edges):
        succ.setdefault(a, []).append(b)

    seen = {start}
    queue = deque((start,))
    while queue:
        node = queue.popleft()
        for nxt in succ.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    if len(seen) != len(graph.nodes):
        unreachable = sorted(graph.nodes - seen)
        raise DisconnectedNode(
            f"nodes unreachable from {start!r}: {', '.join(unreachable)}"
        )

    order = _topological(seen, succ)
    lookup = links.get
    best: dict[str, float] = {}
    for node in reversed(order):
        nexts = succ.get(node)
        qos = svc[node].qos_nominal
        if not nexts:
            best[node] = qos
        else:
            best[node] = qos + max(lookup(node, nxt) + best[nxt] for nxt in nexts)
    return best[start]


def _topological(nodes: Iterable[str], succ: Mapping[str, list[str]]) -> list[str]:
    """Kahn's algorithm with a name-ordered ready heap; raises on cycles."""
    indegree = {n: 0 for n in nodes}
    for a in indegree:
        for b in succ.get(a, ()):
            if b in indegree:
                indegree[b] += 1
    heap = [n for n, d in indegree.items() if d == 0]
    heap.sort()
    order: list[str] = []
    while heap:
        node = heappop(heap)
        order.append(node)
        for b in succ.get(node, ()):
            if b in indegree:
                indegree[b] -= 1
                if indegree[b] == 0:
                    heappush(heap, b)
    if len(order) != len(indegree):
        raise ValueError("graph contains a cycle")
    return order
