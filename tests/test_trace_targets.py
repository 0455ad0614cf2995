"""The benchmark's span tracer must find every function it is told to trace.

`perfbench/spans.py` names its targets as attribute paths in the tcodes layer
modules; a renamed or deleted function would otherwise only surface when
`perfbench/run.py --trace 1` is run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    spans = load_spans()
    assert spans.TARGETS
    for layer, path, _ in spans.TARGETS:
        assert layer in spans.LAYERS
        obj = importlib.import_module(f"tcodes.{layer}")
        for attr in path.split("."):
            assert hasattr(obj, attr), f"tcodes.{layer}.{path}"
            obj = getattr(obj, attr)
        assert callable(obj), f"tcodes.{layer}.{path}"


def test_every_per_layer_metric_reads_a_target():
    spans = load_spans()
    traced = {f"{layer}.{path}" for layer, path, _ in spans.TARGETS}
    for name, (_, _, targets) in spans.PER_LAYER.items():
        assert set(targets) <= traced, name
