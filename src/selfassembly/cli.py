"""Command-line driver: assemble, simulate, verify, generate.

``assemble`` runs :func:`~selfassembly.assembler.assemble` and ``simulate``
:func:`~selfassembly.runtime.run_scenario`; the CLI has no pipeline of its own.

Exit codes, from the :data:`EXIT_CODES` table that only :func:`main` applies:
0 success, 1 parse/usage/I/O error, 2 any ``NoAssembly`` or an invalid template,
3 combination budget exceeded, 4 oracle mismatch.
"""
from __future__ import annotations

import argparse
import sys
import time

from .assembler import (
    DEFAULT_COMBINATION_BUDGET,
    AssemblyResult,
    assemble,
    build_binding_graph,
    enumerate_candidates,
    select_assembly,
)
from .errors import CombinationBudgetExceeded, NoAssembly, ScenarioFormatError, SelfAssemblyError, TemplateInvalid
from .export import assembly_to_dot, assembly_to_json
from .model import QoSMatrix, service_map
from .netsim import MatrixLatency
from .oracle import check_assembly, exhaustive_assemblies
from .runtime import run_scenario, timeline_jsonl
from .scenario import (
    Scenario,
    build_simulator,
    generate_medical,
    generate_one_layer,
    generate_pyramidal,
    generate_random_instance,
    load_scenario,
    write_scenario,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4

EXIT_CODES: dict[type[BaseException], int] = {
    CombinationBudgetExceeded: EXIT_BUDGET,
    NoAssembly: EXIT_INFEASIBLE,
    TemplateInvalid: EXIT_INFEASIBLE,
    SelfAssemblyError: EXIT_PARSE,  # LatencyUndefined too
    OSError: EXIT_PARSE,
}


def exit_code(error_class: type[BaseException]) -> int:
    """The :data:`EXIT_CODES` entry of the nearest class in ``error_class``'s MRO."""
    return next(EXIT_CODES[cls] for cls in error_class.__mro__ if cls in EXIT_CODES)


def _parse_k(text: str):
    word = text.lower()
    if word in ("all", "half"):
        return word
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"-k must be an integer, 'all' or 'half', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("-k must be >= 1")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfassembly",
        description="QoS-aware self-assembly of service compositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assemble = sub.add_parser("assemble", help="assemble one scenario and export the result")
    p_assemble.add_argument("--scenario", required=True, help="scenario JSON file")
    p_assemble.add_argument("--dot", help="write the assembly as a DOT digraph")
    p_assemble.add_argument("--json", dest="json_out", help="write the assembly as JSON")
    p_assemble.add_argument("--budget", type=_count, default=DEFAULT_COMBINATION_BUDGET)

    p_sim = sub.add_parser("simulate", help="replay scenario events and log every re-assembly")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--timeline", help="write the timeline as line-delimited JSON")
    p_sim.add_argument("--budget", type=_count, default=DEFAULT_COMBINATION_BUDGET)

    p_verify = sub.add_parser("verify", help="cross-check the assembler against the exhaustive oracle")
    p_verify.add_argument("--random", type=_count, default=200, metavar="N", help="number of random instances")
    p_verify.add_argument("--seed", type=int, default=0)

    p_gen = sub.add_parser("generate", help="write a scenario file for a standard layout")
    p_gen.add_argument("layout", choices=["one-layer", "pyramidal", "medical"])
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--top-width", type=int)
    p_gen.add_argument("--k", type=_parse_k, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path")
    return parser


def cmd_assemble(args) -> int:
    scenario = load_scenario(args.scenario)
    started = time.perf_counter()
    net = build_simulator(scenario)
    result = assemble(scenario.services, scenario.template, net, budget=args.budget)
    wall_ms = (time.perf_counter() - started) * 1000.0
    # The labels are the flood's own measurements, one trace record per edge:
    # sampling a seeded latency model again would draw new values.
    links = QoSMatrix({
        (rec["from"], rec["to"]): rec["detail"]["link_ms"]
        for rec in net.trace_records()
        if rec["kind"] == "measure"
    })
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(assembly_to_dot(result, scenario.services, links))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(assembly_to_json(result, scenario.services, links))
    print(
        f"n_services={len(scenario.services)} "
        f"combinations_tested={result.combinations_tested} "
        f"wall_ms={wall_ms:.2f}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    net = build_simulator(scenario)
    timeline = run_scenario(
        scenario.services, scenario.template, scenario.events, net, budget=args.budget
    )
    text = timeline_jsonl(timeline)
    if args.timeline:
        with open(args.timeline, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    final = timeline[-1]
    print(f"entries={len(timeline)} final_feasible={final.feasible}", file=sys.stderr)
    return EXIT_OK if final.feasible else EXIT_INFEASIBLE


def _assemble_eagerly(services, template, net) -> AssemblyResult:
    """The reference for ``assemble``: :func:`select_assembly` over the full
    :func:`enumerate_candidates` list of each start, in id order."""
    graph, links = build_binding_graph(services, template, net)
    svc = service_map(services)
    starts = sorted(sid for sid in graph.nodes if svc[sid].type == template.starting_type())
    lists = {sid: enumerate_candidates(graph, links, template, sid, svc) for sid in starts}
    return select_assembly(lists, svc)


def _outcome(run, services, template, net) -> tuple[AssemblyResult | None, tuple]:
    """``run``'s result, ``None`` for an infeasible instance, and what it
    gave with floats as their bits: the union's edges, each chosen
    candidate's edges, rank and cost, and the count; or the error's type
    and count."""
    try:
        result = run(services, template, net)
    except NoAssembly as exc:
        return None, (type(exc).__name__, getattr(exc, "combinations_tested", None))
    chosen = [(sid, c.edges, c.rank, c.cost.hex()) for sid, c in sorted(result.chosen.items())]
    return result, (sorted(result.assembly.edges), chosen, result.combinations_tested)


def cmd_verify(args) -> int:
    mismatches = 0
    feasible_count = 0
    infeasible_count = 0
    for index in range(args.random):
        seed = args.seed * 1_000_003 + index
        services, template, links = generate_random_instance(seed)
        latency = MatrixLatency(dict(links.items()))
        net = build_simulator(Scenario(services, template, latency), trace=False)
        result, exact = _outcome(assemble, services, template, net)
        problems: list[str] = []
        if exact != _outcome(_assemble_eagerly, services, template, net)[1]:
            problems.append("assemble differs from selection over full candidate lists")
        report = exhaustive_assemblies(services, template, links)
        if (result is not None) != report.feasible:
            problems.append(
                f"feasibility mismatch (assembler={result is not None}, oracle={report.feasible})"
            )
        if result is not None:
            if result.assembly not in report.feasible_assemblies:
                problems.append("returned assembly not in the oracle's feasible set")
            problems.extend(check_assembly(result, services, template))
        if problems:
            mismatches += 1
            print(f"instance seed={seed}: " + "; ".join(problems), file=sys.stderr)
        elif result is not None:
            feasible_count += 1
        else:
            infeasible_count += 1
    print(
        f"instances={args.random} feasible={feasible_count} "
        f"infeasible={infeasible_count} mismatches={mismatches}"
    )
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_generate(args) -> int:
    try:
        if args.layout == "one-layer":
            if args.n is None:
                raise ScenarioFormatError("generate one-layer requires --n")
            scenario = generate_one_layer(args.n, args.k, args.seed)
        elif args.layout == "pyramidal":
            if args.top_width is None:
                raise ScenarioFormatError("generate pyramidal requires --top-width")
            scenario = generate_pyramidal(args.top_width, args.k, args.seed)
        else:
            scenario = generate_medical(args.seed)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc)) from exc
    write_scenario(scenario, args.out)
    print(f"wrote {args.out} ({len(scenario.services)} services)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "assemble": cmd_assemble,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "generate": cmd_generate,
    }
    try:
        return handlers[args.command](args)
    except (SelfAssemblyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(type(exc))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
