"""Command-line driver: assemble, simulate, bench, verify, generate.

Exit codes: 0 success, 1 parse/usage error, 2 infeasible, 3 combination
budget exceeded, 4 oracle mismatch.
"""
from __future__ import annotations

import argparse
import csv
import io
import sys
import time

from .assembler import (
    DEFAULT_COMBINATION_BUDGET,
    assemble,
    build_binding_graph,
    enumerate_candidates,
    select_assembly,
)
from .errors import (
    CombinationBudgetExceeded,
    Infeasible,
    InsufficientServices,
    NoStartingService,
    ScenarioFormatError,
    SelfAssemblyError,
    TemplateInvalid,
)
from .export import assembly_to_dot, assembly_to_json
from .model import service_map
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

# Rough per-candidate footprint: container object plus one small tuple per edge.
CANDIDATE_BASE_BYTES = 88
CANDIDATE_EDGE_BYTES = 56


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
    p_assemble.add_argument("--budget", type=int, default=DEFAULT_COMBINATION_BUDGET)

    p_sim = sub.add_parser("simulate", help="replay scenario events and log every re-assembly")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--timeline", help="write the timeline as line-delimited JSON")
    p_sim.add_argument("--budget", type=int, default=DEFAULT_COMBINATION_BUDGET)

    p_bench = sub.add_parser("bench", help="time a generated layout and emit one CSV row")
    p_bench.add_argument("layout", choices=["one-layer", "pyramidal"])
    p_bench.add_argument("--n", type=int, help="target count for one-layer")
    p_bench.add_argument("--top-width", type=int, help="top layer width for pyramidal")
    p_bench.add_argument("--k", type=_parse_k, default=1)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--budget", type=int, default=DEFAULT_COMBINATION_BUDGET)
    p_bench.add_argument("--csv", help="append the row to this file instead of stdout")

    p_verify = sub.add_parser("verify", help="cross-check the assembler against the exhaustive oracle")
    p_verify.add_argument("--random", type=int, default=200, metavar="N", help="number of random instances")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--max-services", type=int, default=12)

    p_gen = sub.add_parser("generate", help="write a scenario file for a standard layout")
    p_gen.add_argument("layout", choices=["one-layer", "pyramidal", "medical"])
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--top-width", type=int)
    p_gen.add_argument("--k", type=_parse_k, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path")
    return parser


def _enumerate_stage(scenario: Scenario):
    """Build the binding graph and the per-start candidate lists, so
    callers can reach the measured links and candidate counts even when
    the selection stage fails."""
    net = build_simulator(scenario)
    graph, links = build_binding_graph(scenario.services, scenario.template, net)
    svc = service_map(scenario.services)
    start_type = scenario.template.starting_type()
    start_ids = sorted(sid for sid in graph.nodes if svc[sid].type == start_type)
    per_start = {
        sid: enumerate_candidates(graph, links, scenario.template, sid, svc)
        for sid in start_ids
    }
    return net, links, per_start


def cmd_assemble(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    started = time.perf_counter()
    try:
        net, links, per_start = _enumerate_stage(scenario)
        result = select_assembly(per_start, scenario.services, budget=args.budget)
    except CombinationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (Infeasible, InsufficientServices, NoStartingService, TemplateInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    wall_ms = (time.perf_counter() - started) * 1000.0
    n_candidates = sum(len(lst) for lst in per_start.values())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(assembly_to_dot(result, scenario.services, links))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(assembly_to_json(result, scenario.services, links))
    print(
        f"n_services={len(scenario.services)} "
        f"combinations_tested={result.combinations_tested} "
        f"wall_ms={wall_ms:.2f} "
        f"peak_candidate_count={n_candidates}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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


def _bench_scenario(args) -> tuple[Scenario, int, str]:
    if args.layout == "one-layer":
        if args.n is None:
            raise ScenarioFormatError("bench one-layer requires --n")
        scenario = generate_one_layer(args.n, args.k, args.seed)
        return scenario, args.n, str(args.k)
    if args.top_width is None:
        raise ScenarioFormatError("bench pyramidal requires --top-width")
    scenario = generate_pyramidal(args.top_width, args.k, args.seed)
    return scenario, len(scenario.services), str(args.k)


def cmd_bench(args) -> int:
    try:
        scenario, n, k_text = _bench_scenario(args)
    except (ScenarioFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    started = time.perf_counter()
    feasible = True
    per_start = {}
    try:
        net, links, per_start = _enumerate_stage(scenario)
        select_assembly(per_start, scenario.services, budget=args.budget)
    except CombinationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (Infeasible, InsufficientServices, NoStartingService):
        feasible = False
    wall_ms = (time.perf_counter() - started) * 1000.0
    n_candidates = sum(len(lst) for lst in per_start.values())
    edges_total = sum(len(c.edges) for lst in per_start.values() for c in lst)
    mem_estimate = n_candidates * CANDIDATE_BASE_BYTES + edges_total * CANDIDATE_EDGE_BYTES
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["layout", "n", "k", "candidates", "wall_ms", "mem_estimate"])
    writer.writerow([args.layout, n, k_text, n_candidates, f"{wall_ms:.2f}", mem_estimate])
    if args.csv:
        with open(args.csv, "a", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    if not feasible:
        print("note: layout was infeasible", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    mismatches = 0
    feasible_count = 0
    infeasible_count = 0
    for index in range(args.random):
        seed = args.seed * 1_000_003 + index
        services, template, links = generate_random_instance(seed, args.max_services)
        latency = MatrixLatency(dict(links.items()))
        net = build_simulator(Scenario(services, template, latency), trace=False)
        assembler_feasible = True
        result = None
        try:
            result = assemble(services, template, net)
        except (Infeasible, InsufficientServices, NoStartingService):
            assembler_feasible = False
        report = exhaustive_assemblies(services, template, links)
        problems: list[str] = []
        if assembler_feasible != report.feasible:
            problems.append(
                f"feasibility mismatch (assembler={assembler_feasible}, oracle={report.feasible})"
            )
        if result is not None:
            if result.assembly not in report.feasible_assemblies:
                problems.append("returned assembly not in the oracle's feasible set")
            problems.extend(check_assembly(result, services, template))
        if problems:
            mismatches += 1
            print(f"instance seed={seed}: " + "; ".join(problems), file=sys.stderr)
        elif assembler_feasible:
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
    except (ScenarioFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
        "bench": cmd_bench,
        "verify": cmd_verify,
        "generate": cmd_generate,
    }
    try:
        return handlers[args.command](args)
    except SelfAssemblyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
