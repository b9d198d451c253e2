import pytest

from selfassembly import (
    ApplicationTemplate,
    MatrixLatency,
    NoAssembly,
    ServiceDescriptor,
    Simulator,
    UniformLatency,
)


class WorkLimitReached(NoAssembly):
    """A way for an attempt to fail that neither the runtime nor the CLI names."""


def seven_services() -> list[ServiceDescriptor]:
    return [
        ServiceDescriptor("A1", "tA", 1.0, 1),
        ServiceDescriptor("A2", "tA", 1.0, 1),
        ServiceDescriptor("A3", "tA", 1.0, 1),
        ServiceDescriptor("B1", "tB", 2.0, 2),
        ServiceDescriptor("B2", "tB", 3.0, 3),
        ServiceDescriptor("B3", "tB", 4.0, 1),
        ServiceDescriptor("C1", "tC", 5.0, 3),
    ]


def seven_template() -> ApplicationTemplate:
    return ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (2, 1))


def signed_zero_ties(case):
    """A start A1 whose only candidate costs -0.0 when each ``max`` keeps
    the first of equal terms in pick order, and 0.0 when it keeps the last.
    Every qos and link is ``-0.0`` but those that make a ``0.0`` term tie.
    ``"binder"``: A1 picks B1 and B2 (k=2) above the deepest level, at -0.0
    via B1 and 0.0 via B2.  ``"pair_merge"``: the deepest-level binder B1
    has a tC pair (k=2: -0.0 via C1, 0.0 via C2) and a tD pair (0.0 via D1),
    whose tops tie."""
    z = -0.0
    if case == "binder":
        services = [ServiceDescriptor("A1", "tA", z, 1)]
        services += [ServiceDescriptor(sid, "tB", z, 1) for sid in ("B1", "B2")]
        services += [ServiceDescriptor("C1", "tC", z, 2)]
        template = ApplicationTemplate((("tA", "tB"), ("tB", "tC")), (2, 1))
        table = {("A1", "B1"): z, ("A1", "B2"): 0.0, ("B1", "C1"): z, ("B2", "C1"): z}
    else:
        services = [ServiceDescriptor("A1", "tA", z, 1), ServiceDescriptor("B1", "tB", z, 1)]
        services += [ServiceDescriptor(sid, "tC", z, 1) for sid in ("C1", "C2")]
        services += [ServiceDescriptor("D1", "tD", 0.0, 1)]
        template = ApplicationTemplate((("tA", "tB"), ("tB", "tC"), ("tB", "tD")), (1, 2, 1))
        table = {("A1", "B1"): z, ("B1", "C1"): z, ("B1", "C2"): 0.0, ("B1", "D1"): z}
    return services, template, MatrixLatency(table)


def make_net(services, latency=None) -> Simulator:
    net = Simulator(latency if latency is not None else UniformLatency(0.0))
    for svc in sorted(services, key=lambda s: s.id):
        net.announce(svc)
    return net


@pytest.fixture
def example7():
    """The seven-service worked example: services and template."""
    return seven_services(), seven_template()


@pytest.fixture
def example7_net(example7):
    """Worked example on zero-latency links."""
    services, template = example7
    return services, template, make_net(services)


def full_matrix(services, template, value=0.0, table=None) -> MatrixLatency:
    """A latency matrix covering every type-allowed pair."""
    by_type = {}
    for svc in services:
        by_type.setdefault(svc.type, []).append(svc.id)
    entries = {}
    for a_type, b_type in template.body:
        for a in by_type.get(a_type, []):
            for b in by_type.get(b_type, []):
                entries[(a, b)] = table[(a, b)] if table else value
    return MatrixLatency(entries)
