"""The benchmark's traced run patches einlab functions by name; a rename here
would break ``perfbench/run.py --trace 1`` without failing any other test."""

import importlib
import importlib.util
import sys
from pathlib import Path

METRICS = Path(__file__).resolve().parents[1] / "perfbench" / "metrics.py"


def test_every_tracer_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_metrics", METRICS)
    metrics = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, metrics)
    spec.loader.exec_module(metrics)
    assert metrics.TARGETS
    missing = [
        (module, attr)
        for module, attr, _name, _counter in metrics.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
