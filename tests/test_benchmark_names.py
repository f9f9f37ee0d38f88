"""The benchmark's tracer finds every tagkit name it wraps, and its workloads still run."""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py, compiled from its source so nothing is written beside it, and
    importable by its own name, as perfbench's modules import each other, until the test ends."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(name)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up there
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves(monkeypatch):
    # A renamed or removed target would silently drop its per-layer metrics.
    tracing = load_perfbench("tracing", monkeypatch)
    missing = []
    for span, (targets, _) in tracing.SPANS.items():
        for module_name, attr_path in targets:
            found = tracing._resolve(module_name, attr_path)
            if found is None or not callable(getattr(found[0], found[1])):
                missing.append(f"{span}: {module_name}.{attr_path}")
    assert missing == []


@pytest.mark.parametrize("name", [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_every_workload_passes_its_gates_at_the_smoke_profile(name, tmp_path, monkeypatch):
    # A library change that breaks what a workload reads fails here, not in a benchmark run.
    gates = load_perfbench("gates", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name](7, "smoke", tmp_path / "work")
    workload.setup()
    workload.setup_digest()
    failures = workload.after_setup_checks()
    rep = workload.rep(tmp_path / "rep")
    failures |= workload.checks(rep)
    failures["final_map_finite"] = gates.finite_maps([rep.final_map], "final")
    assert {gate: fired for gate, fired in failures.items() if fired} == {}
