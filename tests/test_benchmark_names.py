"""The benchmark's tracer finds every tagkit name it wraps."""

import types
from pathlib import Path


def load_tracing():
    """perfbench/tracing.py, compiled from its source so nothing is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    # A renamed or removed target would silently drop its per-layer metrics.
    tracing = load_tracing()
    missing = []
    for span, (targets, _) in tracing.SPANS.items():
        for module_name, attr_path in targets:
            found = tracing._resolve(module_name, attr_path)
            if found is None or not callable(getattr(found[0], found[1])):
                missing.append(f"{span}: {module_name}.{attr_path}")
    assert missing == []
