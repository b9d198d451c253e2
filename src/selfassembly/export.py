"""DOT and JSON renderings of committed assemblies."""
from __future__ import annotations

import json
from typing import Iterable, Mapping

from .assembler import AssemblyResult
from .model import QoSMatrix, ServiceDescriptor, service_map


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _quote(identifier: str) -> str:
    return f'"{_escape(identifier)}"'


def assembly_to_dot(
    result: AssemblyResult,
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
    links: QoSMatrix,
) -> str:
    """Graphviz digraph: nodes labeled with id, type, processing time and
    threshold; edges labeled with the measured link time."""
    svc = service_map(services)
    lines = ["digraph assembly {"]
    for node in sorted(result.assembly.nodes):
        descriptor = svc[node]
        label = (
            f"{_escape(descriptor.id)}\\n{_escape(descriptor.type)} "
            f"qos={descriptor.qos_nominal:g} thr={descriptor.threshold}"
        )
        lines.append(f"  {_quote(node)} [label=\"{label}\"];")
    for a, b in sorted(result.assembly.edges):
        lines.append(f"  {_quote(a)} -> {_quote(b)} [label=\"{links.get(a, b):g}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def assembly_to_json_obj(
    result: AssemblyResult,
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
    links: QoSMatrix,
) -> dict:
    svc = service_map(services)
    nodes = [
        {
            "id": node,
            "type": svc[node].type,
            "qos_ms": svc[node].qos_nominal,
            "threshold": svc[node].threshold,
        }
        for node in sorted(result.assembly.nodes)
    ]
    edges = [
        {"from": a, "to": b, "link_ms": links.get(a, b)}
        for a, b in sorted(result.assembly.edges)
    ]
    chosen = {
        start: {
            "rank": candidate.rank,
            "cost": candidate.cost,
            "edges": [list(edge) for edge in candidate.edges],
        }
        for start, candidate in sorted(result.chosen.items())
    }
    return {
        "nodes": nodes,
        "edges": edges,
        "chosen": chosen,
        "loads": dict(sorted(result.per_service_load.items())),
        "combinations_tested": result.combinations_tested,
        "total_cost_per_start": {
            start: candidate.cost for start, candidate in sorted(result.chosen.items())
        },
    }


def assembly_to_json(
    result: AssemblyResult,
    services: Mapping[str, ServiceDescriptor] | Iterable[ServiceDescriptor],
    links: QoSMatrix,
) -> str:
    return json.dumps(assembly_to_json_obj(result, services, links), indent=2, sort_keys=True) + "\n"
