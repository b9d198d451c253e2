"""QoS-aware self-assembly of service compositions over a simulated peer
network.

Services describe themselves (type, nominal processing time, binding
threshold), discover each other through a simulated registry, measure
their link times, and assemble per an application template; a runtime
loop re-assembles on churn or contract violation.
"""
from .assembler import (
    DEFAULT_COMBINATION_BUDGET,
    AssemblyResult,
    CandidateSubgraph,
    assemble,
    build_binding_graph,
    count_combinations,
    enumerate_candidates,
    select_assembly,
)
from .errors import (
    CombinationBudgetExceeded,
    DisconnectedNode,
    DomainError,
    DuplicateId,
    Infeasible,
    InstanceTooLarge,
    InsufficientServices,
    LatencyUndefined,
    MissingLinkQoS,
    NoAssembly,
    NoStartingService,
    PeerUnknown,
    ScenarioFormatError,
    SelfAssemblyError,
    TemplateInvalid,
    UnknownServiceType,
)
from .export import assembly_to_dot, assembly_to_json, assembly_to_json_obj
from .model import (
    ALL,
    AllServices,
    ApplicationTemplate,
    AssemblyGraph,
    QoSMatrix,
    Role,
    ServiceDescriptor,
    TemplateReport,
    classify_roles,
    service_map,
    validate_template,
    worst_path_time,
)
from .netsim import (
    MatrixLatency,
    SeededLatency,
    Simulator,
    UniformLatency,
)
from .oracle import (
    OracleReport,
    binomial_table,
    check_assembly,
    exhaustive_assemblies,
    exhaustive_worst_path,
)
from .runtime import (
    ContractCause,
    ContractNotification,
    ContractStatus,
    EventKind,
    ScenarioEvent,
    TimelineEntry,
    check_contract,
    run_scenario,
    timeline_jsonl,
)
from .scenario import (
    Scenario,
    build_simulator,
    generate_medical,
    generate_one_layer,
    generate_pyramidal,
    generate_random_instance,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    write_scenario,
)

__version__ = "0.1.0"
