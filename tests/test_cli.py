import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from selfassembly.cli import EXIT_MISMATCH, exit_code, main
from selfassembly.scenario import (
    Scenario,
    build_simulator,
    generate_medical,
    generate_one_layer,
    generate_pyramidal,
    load_scenario,
    parse_scenario,
    serialize_scenario,
    write_scenario,
)
from selfassembly import assembler, cli, errors, runtime
from selfassembly import (
    DEFAULT_COMBINATION_BUDGET,
    ApplicationTemplate,
    CombinationBudgetExceeded,
    Infeasible,
    InsufficientServices,
    MatrixLatency,
    NoStartingService,
    SeededLatency,
    SelfAssemblyError,
    ServiceDescriptor,
    TemplateInvalid,
    UniformLatency,
    assembly_to_dot,
    assembly_to_json,
    build_binding_graph,
    enumerate_candidates,
    select_assembly,
)
from selfassembly.runtime import ScenarioEvent

from conftest import WorkLimitReached, seven_services, seven_template

SRC = Path(__file__).resolve().parents[1] / "src"


def _example7(c1_threshold=3, events=()):
    services = [
        ServiceDescriptor(s.id, s.type, s.qos_nominal, c1_threshold if s.id == "C1" else s.threshold)
        for s in seven_services()
    ]
    return Scenario(services, seven_template(), UniformLatency(0.0), list(events))


def _write_example7(path, events=(), c1_threshold=3):
    write_scenario(_example7(c1_threshold, events), path)
    return path


def _check_dot(text: str) -> None:
    """Minimal DOT well-formedness: a digraph block of node and edge
    statements with quoted identifiers."""
    lines = [line.strip() for line in text.strip().splitlines()]
    assert lines[0] == "digraph assembly {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^"[^"]+" \[label="[^"]*"\];$')
    edge_re = re.compile(r'^"[^"]+" -> "[^"]+" \[label="[^"]*"\];$')
    for line in lines[1:-1]:
        assert node_re.match(line) or edge_re.match(line), line


def test_assemble_writes_dot_and_json(tmp_path, capsys):
    scenario_path = _write_example7(tmp_path / "example7.json")
    dot_path = tmp_path / "out.dot"
    json_path = tmp_path / "out.json"
    code = main(
        [
            "assemble",
            "--scenario",
            str(scenario_path),
            "--dot",
            str(dot_path),
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "n_services=7" in out
    assert [field.split("=")[0] for field in out.split()] == [
        "n_services",
        "combinations_tested",
        "wall_ms",
    ]

    dot_text = dot_path.read_text()
    _check_dot(dot_text)
    assert dot_text.count("->") == 9  # committed assembly, not the full fan-out
    for s in seven_services():  # plain ids and types are written as they are
        label = f"{s.id}\\n{s.type} qos={s.qos_nominal:g} thr={s.threshold}"
        assert f'  "{s.id}" [label="{label}"];\n' in dot_text

    doc = json.loads(json_path.read_text())
    assert set(doc) == {
        "nodes",
        "edges",
        "chosen",
        "loads",
        "combinations_tested",
        "total_cost_per_start",
    }
    assert len(doc["nodes"]) == 7
    assert set(doc["chosen"]) == {"A1", "A2", "A3"}


_DOT_STRING = r'"(?:[^"\\]|\\.)*"'


def _dot_unescape(quoted: str) -> str:
    """A DOT label's text: ``\\n`` is a line break, any other escape its character."""
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], quoted[1:-1])


def test_dot_escapes_quotes_and_backslashes_in_ids_and_types(tmp_path):
    # A document may name a service or a type with any non-empty string.
    services = [
        ServiceDescriptor('A"1', 't"A', 1.0, 1),
        ServiceDescriptor("B\\1", "t\\B", 2.0, 1),
        ServiceDescriptor('C\\"', 'tC"\\', 0.5, 1),
        ServiceDescriptor("D\\n", "tD", 0.25, 1),
    ]
    template = ApplicationTemplate(
        (('t"A', "t\\B"), ("t\\B", 'tC"\\'), ("t\\B", "tD")), (1, 1, 1)
    )
    scenario_path, dot_path = tmp_path / "quoted.json", tmp_path / "quoted.dot"
    write_scenario(Scenario(services, template, UniformLatency(1.0), []), scenario_path)
    assert main(["assemble", "--scenario", str(scenario_path), "--dot", str(dot_path)]) == 0

    lines = dot_path.read_text().splitlines()
    assert (lines[0], lines[-1]) == ("digraph assembly {", "}")
    node_re = re.compile(rf"  ({_DOT_STRING}) \[label=({_DOT_STRING})\];")
    edge_re = re.compile(rf"  ({_DOT_STRING}) -> ({_DOT_STRING}) \[label={_DOT_STRING}\];")
    labels, edges = {}, set()
    for line in lines[1:-1]:
        node, edge = node_re.fullmatch(line), edge_re.fullmatch(line)
        assert node or edge, line
        if node:
            labels[_dot_unescape(node[1])] = _dot_unescape(node[2])
        else:
            edges.add((_dot_unescape(edge[1]), _dot_unescape(edge[2])))
    assert labels == {
        s.id: f"{s.id}\n{s.type} qos={s.qos_nominal:g} thr={s.threshold}" for s in services
    }
    assert edges == {('A"1', "B\\1"), ("B\\1", 'C\\"'), ("B\\1", "D\\n")}


def test_assemble_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["assemble", "--scenario", str(bad)]) == 1


def test_assemble_missing_file_exit_code(tmp_path):
    assert main(["assemble", "--scenario", str(tmp_path / "absent.json")]) == 1


def test_assemble_infeasible_exit_code(tmp_path):
    scenario_path = _write_example7(tmp_path / "squeezed.json", c1_threshold=2)
    assert main(["assemble", "--scenario", str(scenario_path)]) == 2


def test_assemble_budget_exit_code(tmp_path):
    scenario_path = _write_example7(tmp_path / "example7.json")
    assert main(["assemble", "--scenario", str(scenario_path), "--budget", "1"]) == 3


def test_simulate_timeline(tmp_path):
    events = [
        ScenarioEvent.disappears(100.0, "B3"),
        ScenarioEvent.appears(200.0, ServiceDescriptor("B4", "tB", 1.0, 3)),
    ]
    scenario_path = _write_example7(tmp_path / "healing.json", events=events)
    timeline_path = tmp_path / "timeline.ndjson"
    code = main(
        ["simulate", "--scenario", str(scenario_path), "--timeline", str(timeline_path)]
    )
    assert code == 0
    lines = timeline_path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["feasible"] for r in records] == [True, False, True]
    assert records[1]["trigger"] == "service_disappears:B3"


def test_simulate_final_infeasible_exit_code(tmp_path):
    events = [ScenarioEvent.disappears(100.0, "B3")]
    scenario_path = _write_example7(tmp_path / "broken.json", events=events)
    assert main(["simulate", "--scenario", str(scenario_path)]) == 2


def test_simulate_rejects_an_event_on_an_unknown_id(tmp_path, capsys):
    events = [ScenarioEvent.disappears(100.0, "ZZ")]
    scenario_path = _write_example7(tmp_path / "unknown.json", events=events)
    assert main(["simulate", "--scenario", str(scenario_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: events[0]: service 'ZZ' is not live")
    assert "Traceback" not in err


def test_simulate_rejects_a_qos_too_large_for_a_float(tmp_path):
    document = json.loads(serialize_scenario(generate_medical(0)))
    document["services"][0]["qos_ms"] = 10 ** 400
    scenario_path = tmp_path / "huge.json"
    scenario_path.write_text(json.dumps(document))
    run = subprocess.run(
        [sys.executable, "-m", "selfassembly", "simulate", "--scenario", str(scenario_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert run.returncode == 1
    assert run.stderr == "error: services[0].qos_ms: integer too large for a float\n"


def test_assemble_rejects_a_nan_link_without_a_traceback(tmp_path):
    document = json.loads(serialize_scenario(generate_medical(0)))
    document["links"]["entries"][0][2] = float("nan")  # written as NaN, which JSON readers accept
    scenario_path = tmp_path / "nan.json"
    scenario_path.write_text(json.dumps(document))
    run = subprocess.run(
        [sys.executable, "-m", "selfassembly", "assemble", "--scenario", str(scenario_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert run.returncode == 1
    assert run.stderr == "error: links.entries[0]: must be >= 0, got nan\n"


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "selfassembly", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )


def test_simulate_rejects_a_nan_event_time(tmp_path):
    # Unchecked, the timeline ran 5.0 -> NaN -> 1.0 and wrote NaN, which is not JSON.
    document = json.loads(_write_example7(tmp_path / "ok.json").read_text())
    document["events"] = [
        {"at_ms": at, "kind": "inject_out_contract", "id": "B1"} for at in (5.0, float("nan"), 1.0)
    ]
    scenario_path = tmp_path / "nan.json"
    scenario_path.write_text(json.dumps(document))
    run = _run_cli("simulate", "--scenario", str(scenario_path))
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "error: events[1].at_ms: expected a number, got nan\n"


def test_simulate_rejects_a_negative_event_time(tmp_path):
    # Unchecked, the timeline ran 0.0 -> -2.0, before the clock's start.
    document = json.loads(_write_example7(tmp_path / "ok.json").read_text())
    document["events"] = [{"at_ms": -2, "kind": "inject_out_contract", "id": "B1"}]
    scenario_path = tmp_path / "negative.json"
    scenario_path.write_text(json.dumps(document))
    timeline_path = tmp_path / "timeline.jsonl"
    run = _run_cli("simulate", "--scenario", str(scenario_path), "--timeline", str(timeline_path))
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "error: events[0].at_ms: must be >= 0, got -2.0\n"
    assert not timeline_path.exists()


def test_simulate_a_peer_arriving_with_no_matrix_link(tmp_path):
    # The flood skips A1 -> B99, which the matrix cannot price, instead of aborting.
    document = {
        "services": [{"id": "A1", "type": "tA", "qos_ms": 1.0, "threshold": 1},
                     {"id": "B1", "type": "tB", "qos_ms": 1.0, "threshold": 1}],
        "template": {"body": [["tA", "tB"]], "constraints": [1]},
        "links": {"kind": "matrix", "entries": [["A1", "B1", 1.0]]},
        "events": [{"at_ms": 5, "kind": "service_appears",
                    "service": {"id": "B99", "type": "tB", "qos_ms": 1.0, "threshold": 1}}],
    }
    scenario_path = tmp_path / "hole.json"
    scenario_path.write_text(json.dumps(document))
    timeline_path = tmp_path / "timeline.ndjson"
    code = main(["simulate", "--scenario", str(scenario_path), "--timeline", str(timeline_path)])
    assert code == 0
    records = [json.loads(line) for line in timeline_path.read_text().splitlines()]
    assert [(r["trigger"], r["feasible"]) for r in records] == [
        ("initial", True), ("service_appears:B99", True)
    ]


@pytest.mark.parametrize("command", ["assemble", "simulate"])
def test_an_infinite_value_is_a_parse_error(command, tmp_path, capsys):
    # Accepted, it reached the exports as bare Infinity, which strict JSON readers reject.
    document = json.loads(_write_example7(tmp_path / "ok.json").read_text())
    document["services"][0]["qos_ms"] = float("inf")
    scenario_path = tmp_path / "inf.json"
    scenario_path.write_text(json.dumps(document))
    assert main([command, "--scenario", str(scenario_path)]) == 1
    assert capsys.readouterr().err == "error: services[0].qos_ms: must be finite, got inf\n"


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def _readme_block(heading, language):
    """The first ``language`` code block under ``heading`` in the README."""
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_the_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    block = _readme_block("## CLI", "sh")
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("selfassembly ")]
    assert [args[0] for args in commands] == ["generate", "generate", "assemble", "simulate", "verify"]
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert main(args) == 0, (args, capsys.readouterr().err)
        if "--json" in args:
            _strict_json((tmp_path / args[args.index("--json") + 1]).read_text())
        if "--timeline" in args:
            for line in (tmp_path / args[args.index("--timeline") + 1]).read_text().splitlines():
                _strict_json(line)


def test_the_readme_library_example_and_schema_example_work(capsys):
    exec(_readme_block("## Library example", "python"), {})
    assert capsys.readouterr().out.startswith("[('A1', 'B1'), ('A1', 'B2')")
    scenario = parse_scenario(_readme_block("### Scenario file schema", "json"))
    assert [event.kind.value for event in scenario.events] == [
        "service_disappears", "service_appears", "link_degrades", "inject_out_contract"
    ]


def test_assemble_a_chain_of_1500_types(tmp_path):
    # One type pair per level: the candidate search used to recurse once per type.
    types = [f"t{i}" for i in range(1500)]
    services = [ServiceDescriptor(f"S{i}", t, 0.1 * (i % 7), 1) for i, t in enumerate(types)]
    template = ApplicationTemplate(tuple(zip(types, types[1:])), (1,) * (len(types) - 1))
    table = {(a.id, b.id): 0.3 for a, b in zip(services, services[1:])}
    scenario_path = tmp_path / "chain.json"
    write_scenario(Scenario(services, template, MatrixLatency(table), []), scenario_path)
    run = _run_cli("assemble", "--scenario", str(scenario_path))
    assert run.returncode == 0, run.stderr
    assert "combinations_tested=1 " in run.stdout


def test_simulate_rejects_nesting_too_deep_for_the_decoder(tmp_path):
    scenario_path = tmp_path / "deep.json"
    scenario_path.write_text("[" * 100000)
    run = subprocess.run(
        [sys.executable, "-m", "selfassembly", "simulate", "--scenario", str(scenario_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert run.returncode == 1
    assert run.stderr.startswith("error: not valid JSON: maximum recursion depth")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_verify_small_run(capsys):
    code = main(["verify", "--random", "25", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mismatches=0" in out


def test_verify_reports_items_handed_out_past_a_plateau_out_of_rank_order(monkeypatch, capsys):
    # The oracle checks feasibility and membership only; the full lists
    # also pin each chosen candidate's rank, cost and the count.
    # A start's pool hands out its first two items past the plateau swapped.
    real = assembler._Pool.item
    plateau_ends = {}

    def swapped(pool, index):
        if pool not in plateau_ends:  # selection reads item 0 first, which lists the plateau
            real(pool, 0)
            plateau_ends[pool] = len(pool._items)
        end = plateau_ends[pool]
        if pool._attempt and index in (end, end + 1) and real(pool, end + 1) is not None:
            index = 2 * end + 1 - index
        return real(pool, index)

    monkeypatch.setattr(assembler._Pool, "item", swapped)
    assert main(["verify", "--random", "50", "--seed", "7"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert "assemble differs from selection over full candidate lists" in captured.err
    assert "mismatches=0" not in captured.out


def test_generate_writes_canonical_file(tmp_path):
    out = tmp_path / "layout.json"
    code = main(
        ["generate", "one-layer", "--n", "10", "--k", "half", "--seed", "4", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == serialize_scenario(generate_one_layer(10, "half", 4))


def test_generate_pyramidal_writes_canonical_file(tmp_path):
    out = tmp_path / "pyramidal.json"
    assert main(["generate", "pyramidal", "--top-width", "4", "--k", "1", "--out", str(out)]) == 0
    assert out.read_text() == serialize_scenario(generate_pyramidal(4, 1, 0))


@pytest.mark.parametrize(
    "layout, size, message",
    [
        ("one-layer", [], "generate one-layer requires --n"),
        ("one-layer", ["--n", "0"], "n must be >= 1"),
        ("pyramidal", [], "generate pyramidal requires --top-width"),
        ("pyramidal", ["--top-width", "1"], "top_width must be >= 2"),
    ],
)
def test_generate_without_a_usable_size_is_one_error_line(layout, size, message, tmp_path, capsys):
    out = tmp_path / "layout.json"
    assert main(["generate", layout, *size, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_generate_medical_file(tmp_path):
    out = tmp_path / "medical.json"
    assert main(["generate", "medical", "--seed", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["services"]) == 26


def test_unknown_command_exit_code():
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize(
    "command, option",
    [("verify", "--random"), ("assemble", "--budget"), ("simulate", "--budget")],
)
def test_a_negative_count_is_a_usage_error(command, option, tmp_path, capsys):
    args = [command]
    if command != "verify":
        args += ["--scenario", str(_write_example7(tmp_path / "example7.json"))]
    assert main([*args, option, "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be >= 0, got -3" in captured.err


# ------------------------------------------------ assemble against the eager path


def _eager_assemble(path, budget):
    """What ``assemble`` printed and wrote when the CLI ran its own eager
    copy of the pipeline: one flood, every start's candidates listed in
    full, selection, and exports labelled with the flood's links.  Returns
    the exit code, stdout without ``wall_ms``, stderr and the export texts."""
    scenario = load_scenario(path)
    try:
        net = build_simulator(scenario)
        graph, links = build_binding_graph(scenario.services, scenario.template, net)
        start_type = scenario.template.starting_type()
        svc = {s.id: s for s in scenario.services}
        per_start = {
            sid: enumerate_candidates(graph, links, scenario.template, sid, svc)
            for sid in sorted(graph.nodes)
            if svc[sid].type == start_type
        }
        result = select_assembly(per_start, svc, budget=budget)
    except CombinationBudgetExceeded as exc:
        return 3, "", f"error: {exc}\n", None, None
    except (Infeasible, InsufficientServices, NoStartingService, TemplateInvalid) as exc:
        return 2, "", f"error: {exc}\n", None, None
    except SelfAssemblyError as exc:
        return 1, "", f"error: {exc}\n", None, None
    out = f"n_services={len(scenario.services)} combinations_tested={result.combinations_tested}\n"
    dot = assembly_to_dot(result, scenario.services, links)
    return 0, out, "", dot, assembly_to_json(result, scenario.services, links)


def _short_start():
    # The start must pick 3 targets of a type that has 2.
    services = [ServiceDescriptor("A1", "tA", 1.0, 1)]
    services += [ServiceDescriptor(f"B{i}", "tB", 2.0, 1) for i in range(2)]
    return Scenario(services, ApplicationTemplate((("tA", "tB"),), (3,)), UniformLatency(1.0), [])


def _medical_seeded(seed):
    medical = generate_medical(seed)
    return Scenario(medical.services, medical.template, SeededLatency(2.0, 1.5, seed), [])


DIFFERENTIAL_CASES = {
    "example7": (_example7, DEFAULT_COMBINATION_BUDGET, 0),
    **{
        f"medical-{seed}": (lambda seed=seed: generate_medical(seed), DEFAULT_COMBINATION_BUDGET, 0)
        for seed in range(4)
    },
    "medical-seeded-links": (lambda: _medical_seeded(3), DEFAULT_COMBINATION_BUDGET, 0),
    "one-layer-matrix": (lambda: generate_one_layer(40, 2, 5), DEFAULT_COMBINATION_BUDGET, 0),
    "pyramidal-half": (lambda: generate_pyramidal(5, "half", 2), DEFAULT_COMBINATION_BUDGET, 0),
    "pyramidal-all": (lambda: generate_pyramidal(4, "all", 1), DEFAULT_COMBINATION_BUDGET, 2),
    "squeezed": (lambda: _example7(c1_threshold=2), DEFAULT_COMBINATION_BUDGET, 2),
    "budget-2": (_example7, 2, 3),
    "short-start": (_short_start, DEFAULT_COMBINATION_BUDGET, 2),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
def test_assemble_matches_the_eager_pipeline(name, tmp_path, capsys):
    build, budget, expected_code = DIFFERENTIAL_CASES[name]
    scenario_path = tmp_path / "scenario.json"
    write_scenario(build(), scenario_path)
    dot_path, json_path = tmp_path / "out.dot", tmp_path / "out.json"
    code = main([
        "assemble", "--scenario", str(scenario_path), "--budget", str(budget),
        "--dot", str(dot_path), "--json", str(json_path),
    ])
    captured = capsys.readouterr()
    stdout = re.sub(r" wall_ms=\S+", "", captured.out)
    dot = dot_path.read_text() if dot_path.exists() else None
    json_text = json_path.read_text() if json_path.exists() else None
    assert code == expected_code
    assert (code, stdout, captured.err, dot, json_text) == _eager_assemble(scenario_path, budget)


def test_assemble_one_layer_1200_k2_lists_no_eager_candidates(tmp_path, capsys):
    # 719,400 candidates if listed eagerly, which took 5.2 s in process.
    scenario_path = tmp_path / "one-layer.json"
    write_scenario(generate_one_layer(1200, 2, 0), scenario_path)
    began = time.perf_counter()
    code = main(["assemble", "--scenario", str(scenario_path)])
    elapsed = time.perf_counter() - began
    assert code == 0
    assert "combinations_tested=1 " in capsys.readouterr().out
    assert elapsed < 2.0


# ------------------------------------------------------------ the exit-code table


EXPECTED_EXIT_CODES = {
    errors.NoAssembly: 2,
    errors.CombinationBudgetExceeded: 3,
    errors.Infeasible: 2,
    errors.InsufficientServices: 2,
    errors.NoStartingService: 2,
    errors.TemplateInvalid: 2,
    errors.UnknownServiceType: 1,
    errors.MissingLinkQoS: 1,
    errors.DisconnectedNode: 1,
    errors.DuplicateId: 1,
    errors.PeerUnknown: 1,
    errors.LatencyUndefined: 1,
    errors.DomainError: 1,
    errors.InstanceTooLarge: 1,
    errors.ScenarioFormatError: 1,
}


def _package_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("selfassembly"):
            yield sub
        yield from _package_subclasses(sub)


def test_every_error_class_has_a_placed_exit_code():
    # A new error class fails here until its exit code is chosen on purpose.
    found = {cls: exit_code(cls) for cls in _package_subclasses(SelfAssemblyError)}
    assert found == EXPECTED_EXIT_CODES
    assert exit_code(SelfAssemblyError) == 1
    assert exit_code(OSError) == 1
    assert exit_code(FileNotFoundError) == 1


def _one_error_line(err, *parts):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(part in err for part in parts), err


def _reach_the_work_limit(*args, **kwargs):
    raise WorkLimitReached("work limit of 5 steps reached")


def test_any_no_assembly_exits_2_from_assemble_and_simulate(tmp_path, monkeypatch, capsys):
    scenario = str(_write_example7(tmp_path / "example7.json"))
    monkeypatch.setattr(cli, "assemble", _reach_the_work_limit)
    assert main(["assemble", "--scenario", scenario]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: work limit of 5 steps reached\n"
    monkeypatch.setattr(runtime, "assemble", _reach_the_work_limit)
    assert main(["simulate", "--scenario", scenario]) == 2
    assert capsys.readouterr().err == "entries=1 final_feasible=False\n"


@pytest.mark.parametrize(
    "command, option",
    [("generate", "--out"), ("assemble", "--dot"), ("assemble", "--json"), ("simulate", "--timeline")],
)
def test_an_unwritable_output_path_is_one_error_line(command, option, tmp_path, capsys):
    target = str(tmp_path / "absent" / "out")
    if command == "generate":
        args = ["generate", "medical"]
    else:
        args = [command, "--scenario", str(_write_example7(tmp_path / "example7.json"))]
    assert main([*args, option, target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "No such file or directory", target)


def test_an_unwritable_output_path_prints_no_traceback(tmp_path):
    target = str(tmp_path / "absent" / "medical.json")
    run = _run_cli("generate", "medical", "--out", target)
    assert run.returncode == 1
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    _one_error_line(run.stderr, target)


def test_a_cyclic_template_exits_alike_in_assemble_and_simulate(tmp_path, capsys):
    services = [ServiceDescriptor("A1", "tA", 1.0, 1), ServiceDescriptor("B1", "tB", 1.0, 1)]
    template = ApplicationTemplate((("tA", "tB"), ("tB", "tA")), (1, 1))
    scenario_path = tmp_path / "cycle.json"
    write_scenario(Scenario(services, template, UniformLatency(1.0), []), scenario_path)
    outcomes = []
    for command in ("assemble", "simulate"):
        code = main([command, "--scenario", str(scenario_path)])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 2
    _one_error_line(err, "cycle")


@pytest.mark.parametrize("command", ["assemble", "simulate"])
def test_a_scenario_that_is_not_utf8_is_a_parse_error(command, tmp_path, capsys):
    scenario_path = tmp_path / "utf16.json"
    scenario_path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    with pytest.raises(errors.ScenarioFormatError, match="not valid UTF-8"):
        load_scenario(scenario_path)
    assert main([command, "--scenario", str(scenario_path)]) == 1
    _one_error_line(capsys.readouterr().err, "not valid UTF-8", str(scenario_path))
