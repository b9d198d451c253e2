"""The traced benchmark wraps program names by attribute; a name that is
gone makes its metrics read ``missing`` instead of failing loudly, so a
rename or deletion is caught here first."""
import importlib.util
import sys
from pathlib import Path

import selfassembly

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its siblings by name
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", module)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_traced_benchmark_wraps_exists(monkeypatch):
    run = _load_bench_run(monkeypatch)
    tracer = run.make_tracer(selfassembly)  # records the wrappers; installs none
    assert tracer.missing == []
    package = run.SRC / "selfassembly"  # where the benchmark counts source lines
    assert [m for m in run.MODULES if not (package / f"{m}.py").is_file()] == []
