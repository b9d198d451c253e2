"""Benchmark of the selfassembly engine: seeded workloads timed end to end,
and a separate traced run that times each layer.

Run from the repository root:

    python3 bench/run.py --workload wide_enum --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 5    # every workload in turn

One client in a closed loop: a single thread issues the next op only
after the previous one returned, over the workload's pool of scenario
documents in order.  Only the op is timed; its output is then checked
outside the timed region.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import statistics
import sys
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import workloads
from probe import REFERENCE_MS, speed_probe
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 7  # setup_s is the median of this many pool generations
TAIL_BEYOND = 10  # op_ms.tail has at least this many samples above it
PROBLEMS_SHOWN = 5
MODULES = ("__init__", "__main__", "assembler", "cli", "errors", "export", "model",
           "netsim", "oracle", "runtime", "scenario")
# The layer that each workload is built to stress, and the share of
# traced op time that confirms it.
PREDICTIONS = {
    "wide_enum": ("share.enumerate", "enumeration"),
    "crowded_churn": ("share.netsim_flood", "netsim plus flood"),
    "contended_select": ("share.select", "selection"),
}
DOMINANT_SHARE = 0.5

END_TO_END_UNITS = {
    "op_ms.p50": "ms", "op_ms.tail": "ms", "ops_per_s": "1/s", "ok_ratio": "ratio",
    "feasible_ratio": "ratio", "worst_path_ms.mean": "sim_ms", "peak_mem_mb": "MB",
    "setup_s": "s",
}
# Per-layer metric -> the wrapped name it is measured at; a metric whose
# name is missing from the program is reported missing, not as zero.
LAYER_SOURCES = {
    "netsim.announce.calls": "netsim.announce", "netsim.announce.ms": "netsim.announce",
    "netsim.withdraw.calls": "netsim.withdraw", "netsim.degrade_link.calls": "netsim.degrade_link",
    "netsim.visible_peers.calls": "netsim.visible_peers",
    "netsim.visible_peers.ms": "netsim.visible_peers",
    "netsim.measure_link.calls": "netsim.measure_link",
    "netsim.measure_link.ms": "netsim.measure_link",
    "assembler.flood.self_ms": "assembler.build_binding_graph",
    "assembler.flood.edges": "assembler.build_binding_graph",
    "assembler.enumerate.calls": "assembler.enumerate_candidates",
    "assembler.enumerate.ms": "assembler.enumerate_candidates",
    "assembler.candidates": "assembler.enumerate_candidates",
    "model.worst_path_time.calls": "model.worst_path_time",
    "model.worst_path_time.ms": "model.worst_path_time",
    "assembler.select.ms": "assembler.select_assembly",
    "assembler.select.combinations_tested": "assembler.select_assembly",
    "assembler.select.useful_ratio": "assembler.select_assembly",
    "runtime.reassemblies": "runtime.assemble", "runtime.reassembly_ratio": "runtime.assemble",
    "share.enumerate": "assembler.enumerate_candidates",
    "share.select": "assembler.select_assembly",
}


def _load_program():
    """Import ``selfassembly`` from this checkout's ``src``, never from
    anywhere else on the path; ``None`` when the checkout has no source."""
    if not (SRC / "selfassembly" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    return importlib.import_module("selfassembly")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- the op


def run_op(sa, inst: workloads.Instance, span):
    """One op, the in-process equivalent of ``selfassembly assemble`` or
    ``selfassembly simulate`` on one scenario document.  The whole call is
    timed; the exporters are left out because ``assemble`` does not return
    the measured links they need."""
    with span("scenario.parse_scenario"):
        scenario = sa.parse_scenario(inst.text)
    with span("scenario.build_simulator"):
        net = sa.build_simulator(scenario)
    if inst.op == "simulate":
        with span("runtime.run_scenario"):
            timeline = sa.run_scenario(
                scenario.services, scenario.template, scenario.events, net, budget=inst.budget
            )
        with span("runtime.timeline_jsonl"):
            text = sa.timeline_jsonl(timeline)
        return scenario, net, timeline, text
    with span("assembler.assemble"):
        try:
            result = sa.assemble(scenario.services, scenario.template, net, budget=inst.budget)
        except (sa.Infeasible, sa.CombinationBudgetExceeded) as exc:
            result = exc
    return scenario, net, result, None


@dataclass
class Checked:
    """What checking one op's output found."""

    digest: str
    problems: list[str]
    committed: int
    attempted: int
    worst: list[float]
    trace_events: int


def check_op(sa, inst: workloads.Instance, output) -> Checked:
    """Compare one op's output with what its instance was built to give,
    and run the oracle's compliance check on every committed assembly
    over the template-typed services only."""
    scenario, net, result, timeline_text = output
    template = scenario.template
    problems: list[str] = []
    worst: list[float] = []
    trace_events = len(net.trace_records())

    if inst.op == "simulate":
        known = {s.id: s for s in scenario.services}
        known.update({e.service.id: e.service for e in scenario.events if e.service is not None})
        triggers = [entry.trigger for entry in result]
        expected = [trigger for trigger, _pool in inst.timeline]
        if triggers != expected:
            problems.append(f"timeline triggers {triggers} != expected {expected}")
        for entry, (_trigger, pool) in zip(result, inst.timeline):
            if entry.result is None:
                problems.append(f"{entry.trigger}: no assembly ({entry.reason})")
                continue
            if entry.combinations_tested != 1:
                problems.append(f"{entry.trigger}: {entry.combinations_tested} combinations, expected 1")
            services = [known[sid] for sid in sorted(pool)]
            problems += [f"{entry.trigger}: {p}" for p in sa.check_assembly(entry.result, services, template)]
            worst.append(max(c.cost for c in entry.result.chosen.values()))
        digest = _sha(timeline_text + net.trace_jsonl())
        return Checked(digest, problems, len(worst), len(result), worst, trace_events)

    if isinstance(result, Exception):
        kind = type(result).__name__
        combinations = getattr(result, "combinations_tested", getattr(result, "budget", None))
        edges: list = []
    else:
        kind = "commit"
        combinations = result.combinations_tested
        edges = sorted(result.assembly.edges)
        typed = template.types()
        services = [s for s in scenario.services if s.type in typed]
        problems += sa.check_assembly(result, services, template)
        cost = max(c.cost for c in result.chosen.values())
        worst.append(cost)
        if inst.edges is not None and tuple(edges) != inst.edges:
            problems.append(f"edges {edges} != expected {list(inst.edges)}")
        if inst.cost is not None and cost != inst.cost:
            problems.append(f"worst path {cost!r} != expected {inst.cost!r}")
    if kind != inst.outcome:
        problems.append(f"outcome {kind} != expected {inst.outcome}")
    if combinations != inst.combinations:
        problems.append(f"{combinations} combinations tested, expected {inst.combinations}")
    digest = _sha(json.dumps([kind, combinations, edges]))
    return Checked(digest, problems, len(worst), 1, worst, trace_events)


# ------------------------------------------------------------------ tracing


def make_tracer(sa) -> Tracer:
    """Wrap the layer-boundary names for the traced run."""
    tracer = Tracer()
    assembler = importlib.import_module("selfassembly.assembler")
    runtime = importlib.import_module("selfassembly.runtime")
    counts = tracer.counts

    def flood(result, exc):
        if result is not None:
            counts["assembler.flood.edges"] += len(result[0].edges)

    def enumerate_(result, exc):
        if result is not None:
            counts["assembler.candidates"] += len(result)

    def select(result, exc):
        if result is not None:
            counts["assembler.select.commits"] += 1
            counts["assembler.select.combinations_tested"] += result.combinations_tested
        elif isinstance(exc, sa.Infeasible):
            counts["assembler.select.combinations_tested"] += exc.combinations_tested
        elif isinstance(exc, sa.CombinationBudgetExceeded):
            counts["assembler.select.combinations_tested"] += exc.budget

    tracer.wrap(assembler, "build_binding_graph", "assembler.build_binding_graph", observe=flood)
    tracer.wrap(assembler, "enumerate_candidates", "assembler.enumerate_candidates",
                observe=enumerate_)
    tracer.wrap(assembler, "select_assembly", "assembler.select_assembly", observe=select)
    tracer.wrap(assembler, "worst_path_time", "model.worst_path_time", aggregate=True)
    tracer.wrap(runtime, "assemble", "runtime.assemble")
    for method in ("announce", "withdraw", "visible_peers", "measure_link", "degrade_link"):
        tracer.wrap(sa.Simulator, method, f"netsim.{method}")
    return tracer


def _src_lines() -> dict[str, float]:
    out = {}
    total = 0
    for module in MODULES:
        path = SRC / "selfassembly" / f"{module}.py"
        if path.is_file():
            lines = len(path.read_text(encoding="utf-8").splitlines())
            out[f"selfassembly.{module}.src_lines"] = lines
            total += lines
    for path in sorted((SRC / "selfassembly").glob("*.py")):
        if path.stem not in MODULES:
            total += len(path.read_text(encoding="utf-8").splitlines())
    out["selfassembly.src_lines"] = total
    return out


# --------------------------------------------------------------- the workload


def _tail(samples_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it,
    and its value; the maximum when there are too few samples."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run_workload(sa, name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    generate = workloads.GENERATORS[name]
    setup_times = []
    setup_probes = []
    pools = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        gc.disable()
        before = speed_probe()
        started = perf_counter()
        pools.append(generate(seed))
        setup_times.append(perf_counter() - started)
        setup_probes.append((before + speed_probe()) / 2)
        gc.enable()
    pool = pools[0]
    problems: list[str] = []
    if any(p != pool for p in pools[1:]):
        problems.append("generator is not byte-stable: one seed gave different pools")
    ref_digests = reference.get("workloads", {}).get(name) if reference.get("seed") == seed else None
    if ref_digests is not None and len(ref_digests) != len(pool):
        problems.append(f"reference holds {len(ref_digests)} digests for {len(pool)} documents")
        ref_digests = [None] * len(pool)

    # Untimed pass under tracemalloc; it also warms the interpreter up.
    gc.collect()
    gc.disable()
    tracemalloc.start()
    run_op(sa, pool[0], nullcontext)
    peak_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    gc.enable()

    tracer = make_tracer(sa) if trace else None
    digests: dict[int, str] = {}
    per_instance: dict[int, Checked] = {}
    op_ns: list[int] = []
    probes: list[float] = []
    traced_ns = untraced_ns = 0
    traced_ops = 0
    check_ns = 0
    attempted = failed = 0
    started = perf_counter()
    k = 0
    # In the traced run each instance runs twice in a row, once traced and
    # once not, with the order alternating, so the overhead is measured on
    # identical work.
    repeats = 2 if trace else 1
    while k < repeats * len(pool) or k % repeats or perf_counter() - started < seconds:
        index = (k // repeats) % len(pool)
        inst = pool[index]
        traced = trace and (k + k // 2) % 2 == 0
        span = nullcontext
        if traced:
            tracer.op_id = k
            tracer.install()
            span = tracer.span
        attempted += 1
        output = None
        # As timeit does, collect garbage between ops and not during one,
        # so that no op pays at random for what earlier ones left.
        gc.collect()
        gc.disable()
        before = speed_probe()
        t0 = perf_counter_ns()
        try:
            with span("op"):
                output = run_op(sa, inst, span)
        except Exception as exc:  # an unexpected exception is a failed op
            problems.append(f"op {k} on instance {index}: {type(exc).__name__}: {exc}")
        finally:
            elapsed = perf_counter_ns() - t0
            probe_ms = (before + speed_probe()) / 2
            gc.enable()
            if traced:
                tracer.uninstall()
        k += 1
        if output is None:
            failed += 1
            continue
        if traced:
            traced_ns += elapsed
            traced_ops += 1
            tracer.counts["runtime.events"] += len(output[0].events)
            tracer.counts["scenario.parse.bytes"] += len(inst.text.encode("utf-8"))
        else:
            untraced_ns += elapsed
            op_ns.append(elapsed)
            probes.append(probe_ms)

        c0 = perf_counter_ns()
        checked = check_op(sa, inst, output)
        check_ns += perf_counter_ns() - c0
        op_problems = checked.problems
        if digests.setdefault(index, checked.digest) != checked.digest:
            op_problems.append("output differs from an earlier op on the same document")
        if ref_digests is not None and ref_digests[index] != checked.digest:
            op_problems.append("output digest differs from the stored reference")
        per_instance.setdefault(index, checked)
        if op_problems:
            failed += 1
            problems += [f"op {k - 1} on instance {index}: {p}" for p in op_problems]
    wall = perf_counter() - started

    committed = sum(c.committed for c in per_instance.values())
    assemblies = sum(c.attempted for c in per_instance.values())
    worst = [w for c in per_instance.values() for w in c.worst]
    raw_ms = [ns / 1e6 for ns in op_ns] or [0.0]
    samples_ms = [ms * REFERENCE_MS / probe for ms, probe in zip(raw_ms, probes)] or [0.0]
    probe_ms = statistics.median(probes) if probes else REFERENCE_MS
    scale = REFERENCE_MS / probe_ms
    percentile, tail_ms = _tail(samples_ms)
    summary = {
        "name": name, "seed": seed, "attempted": attempted, "failed": failed,
        "problems": problems, "wall_s": wall, "pool": len(pool),
        "reference": "none stored for this seed" if ref_digests is None else (
            "match" if not any("reference" in p for p in problems) else "MISMATCH"),
        "check_ms": check_ns / 1e6 / max(1, attempted - failed) * scale,
        "tail_percentile": percentile, "samples": len(op_ns),
        "probe_ms": probe_ms, "setup_probe_ms": statistics.median(setup_probes),
        "raw_p50_ms": statistics.median(raw_ms),
        "raw_setup_s": statistics.median(setup_times),
    }
    summary["end_to_end"] = {
        "op_ms.p50": statistics.median(samples_ms),
        "op_ms.tail": tail_ms,
        "ops_per_s": len(op_ns) / (sum(samples_ms) / 1e3) if untraced_ns else 0.0,
        "ok_ratio": (attempted - failed) / attempted,
        "feasible_ratio": committed / assemblies if assemblies else 0.0,
        "worst_path_ms.mean": statistics.fmean(worst) if worst else 0.0,
        "peak_mem_mb": peak_bytes / 1e6,
        "setup_s": statistics.median(
            t * REFERENCE_MS / probe for t, probe in zip(setup_times, setup_probes)),
    }
    if trace:
        summary["per_layer"], summary["missing"] = _layer_metrics(
            tracer, traced_ops, traced_ns, untraced_ns, summary["check_ms"], scale,
            statistics.fmean(c.trace_events for c in per_instance.values()),
        )
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}.jsonl")
    summary["digests"] = [per_instance[i].digest for i in sorted(per_instance)]
    return summary


def _layer_metrics(tracer: Tracer, ops: int, traced_ns: int, untraced_ns: int,
                   check_ms: float, scale: float, trace_events: float) -> tuple[dict, list[str]]:
    totals = tracer.totals()
    counts = tracer.counts

    def per_op(value: float) -> float:
        return value / ops

    def ms(name: str, self_time: bool = False) -> float:
        total, self_ns = totals.get(name, (0, 0))
        return per_op(self_ns if self_time else total) / 1e6 * scale

    def share(*names: str, self_names: tuple[str, ...] = ()) -> float:
        ns = sum(totals.get(n, (0, 0))[0] for n in names)
        ns += sum(totals.get(n, (0, 0))[1] for n in self_names)
        return ns / traced_ns

    reassemblies = counts["runtime.assemble.calls"] - counts["runtime.run_scenario.calls"]
    combos = counts["assembler.select.combinations_tested"]
    netsim = tuple(f"netsim.{m}" for m in
                   ("announce", "withdraw", "degrade_link", "visible_peers", "measure_link"))
    values = {
        "netsim.announce.calls": per_op(counts["netsim.announce.calls"]),
        "netsim.announce.ms": ms("netsim.announce"),
        "netsim.withdraw.calls": per_op(counts["netsim.withdraw.calls"]),
        "netsim.degrade_link.calls": per_op(counts["netsim.degrade_link.calls"]),
        "netsim.visible_peers.calls": per_op(counts["netsim.visible_peers.calls"]),
        "netsim.visible_peers.ms": ms("netsim.visible_peers"),
        "netsim.measure_link.calls": per_op(counts["netsim.measure_link.calls"]),
        "netsim.measure_link.ms": ms("netsim.measure_link"),
        "netsim.trace_events": trace_events,
        "assembler.flood.self_ms": ms("assembler.build_binding_graph", self_time=True),
        "assembler.flood.edges": per_op(counts["assembler.flood.edges"]),
        "assembler.enumerate.calls": per_op(counts["assembler.enumerate_candidates.calls"]),
        "assembler.enumerate.ms": ms("assembler.enumerate_candidates"),
        "assembler.candidates": per_op(counts["assembler.candidates"]),
        "model.worst_path_time.calls": per_op(counts["model.worst_path_time.calls"]),
        "model.worst_path_time.ms": ms("model.worst_path_time"),
        "assembler.select.ms": ms("assembler.select_assembly"),
        "assembler.select.combinations_tested": per_op(combos),
        "assembler.select.useful_ratio": counts["assembler.select.commits"] / combos if combos else 0.0,
        "runtime.events": per_op(counts["runtime.events"]),
        "runtime.reassemblies": per_op(reassemblies),
        "runtime.reassembly_ratio": reassemblies / counts["runtime.events"] if counts["runtime.events"] else 0.0,
        "runtime.self_ms": ms("runtime.run_scenario", self_time=True),
        "scenario.parse.ms": ms("scenario.parse_scenario"),
        "scenario.parse.bytes": per_op(counts["scenario.parse.bytes"]),
        "oracle.check.ms": check_ms,
        "share.enumerate": share("assembler.enumerate_candidates"),
        "share.netsim_flood": share(*netsim, self_names=("assembler.build_binding_graph",)),
        "share.select": share("assembler.select_assembly"),
        "trace_overhead_ratio": traced_ns / untraced_ns,
    }
    values.update(_src_lines())
    missing = sorted(m for m, source in LAYER_SOURCES.items() if source in tracer.missing)
    missing += [f"selfassembly.{m}.src_lines" for m in MODULES
                if f"selfassembly.{m}.src_lines" not in values]
    for metric in missing:
        values.pop(metric, None)
    return values, missing


# ------------------------------------------------------------------- output

def _layer_unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[-1]
    if metric.startswith("share.") or suffix.endswith("ratio"):
        return "ratio"
    if suffix.endswith("ms"):
        return "ms"
    if suffix == "bytes":
        return "bytes"
    return "count"


def report(summary: dict, trace: bool) -> dict:
    """Print one workload's metrics, one per line, and return them in the
    result's ``metrics`` form."""
    name = summary["name"]
    print(f"workload {name} seed {summary['seed']}: {summary['attempted']} ops "
          f"({summary['failed']} failed) over {summary['pool']} documents in "
          f"{summary['wall_s']:.1f} s; one client, closed loop")
    for problem in summary["problems"][:PROBLEMS_SHOWN]:
        print(f"  problem: {problem}")
    if len(summary["problems"]) > PROBLEMS_SHOWN:
        print(f"  ... {len(summary['problems']) - PROBLEMS_SHOWN} more problems")
    print(f"  reference digest: {summary['reference']}")
    print(f"  fail_ratio = {summary['failed'] / summary['attempted']:.4f}")
    print(f"  speed probe: median {summary['probe_ms']:.3f} ms over the ops, "
          f"{summary['setup_probe_ms']:.3f} ms over set-up; each time below is multiplied by "
          f"{REFERENCE_MS} ms / the mean probe around it (unscaled: op p50 "
          f"{summary['raw_p50_ms']:.4g} ms, set-up {summary['raw_setup_s']:.4g} s)")
    metrics = {}
    if not trace:
        for metric, value in summary["end_to_end"].items():
            unit = END_TO_END_UNITS[metric]
            note = ""
            if metric == "op_ms.tail" and summary["samples"] > TAIL_BEYOND:
                note = (f"  (p{summary['tail_percentile']:.1f} of n={summary['samples']}, "
                        f"{TAIL_BEYOND} samples beyond it)")
            elif metric == "op_ms.tail":
                note = f"  (maximum of n={summary['samples']}, too few samples for a percentile)"
            elif metric == "op_ms.p50":
                note = f"  (n={summary['samples']})"
            print(f"  {metric} = {value:.6g} {unit}{note}")
            metrics[metric] = {"value": value, "unit": unit}
        return metrics
    for metric, value in summary["per_layer"].items():
        unit = _layer_unit(metric)
        print(f"  {metric} = {value:.6g} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    for metric in summary["missing"]:
        print(f"  {metric} = missing (its wrapped name is gone from the program)")
    key, layer = PREDICTIONS[name]
    if key in summary["per_layer"]:
        share = summary["per_layer"][key]
        verdict = "confirmed" if share >= DOMINANT_SHARE else "NOT confirmed"
        print(f"  prediction: {layer} dominates {name}: {share:.1%} of traced op time, {verdict}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's output digests as the reference (with --workload all)")
    args = parser.parse_args(argv)
    if args.write_reference and args.workload != "all":
        parser.error("--write-reference needs --workload all")

    sa = _load_program()
    if sa is None:
        print(f"error: no selfassembly source under {SRC}", file=sys.stderr)
        return 2
    reference = {} if args.write_reference or not REFERENCE.is_file() else json.loads(
        REFERENCE.read_text(encoding="utf-8"))
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(sa, n, args.seed, args.seconds, bool(args.trace), reference)
                 for n in names]

    metrics = {}
    for summary in summaries:
        shown = report(summary, bool(args.trace))
        prefix = "" if len(summaries) == 1 else f"{summary['name']}."
        metrics.update({prefix + m: v for m, v in shown.items()})
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    correct = all(not s["problems"] for s in summaries)
    if args.write_reference:
        if not correct:
            print("error: not writing a reference from a run with problems", file=sys.stderr)
            return 1
        REFERENCE.write_text(json.dumps(
            {"seed": args.seed, "workloads": {s["name"]: s["digests"] for s in summaries}},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
