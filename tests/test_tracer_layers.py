"""The benchmark tracer wraps functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    missing = []
    for name, module, attr in tracer.LAYERS:
        target = importlib.import_module(module)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(name)
    assert missing == []
