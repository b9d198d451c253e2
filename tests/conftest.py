import pytest

from selfassembly import (
    ApplicationTemplate,
    MatrixLatency,
    ServiceDescriptor,
    Simulator,
    UniformLatency,
)


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
