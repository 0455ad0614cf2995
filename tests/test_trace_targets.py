"""The benchmark's span tracer must find every function it is told to trace.

`perfbench/spans.py` names its targets as attribute paths in the tcodes layer
modules; a renamed or deleted function would otherwise only surface when
`perfbench/run.py --trace 1` is run.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from tcodes.instances import HEXAGON_VERTICES, toric_comparison_setup

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


def test_work_counts_read_the_traced_arguments():
    """Each work-counted target, run once on a small input under the tracer,
    reports its closed-form count, so a signature change that moves the
    counted argument fails here and not only under `--trace 1`."""
    spans = load_spans()
    lib = SimpleNamespace(**{layer: importlib.import_module(f"tcodes.{layer}") for layer in spans.LAYERS})
    p = 7
    setup = toric_comparison_setup(p)  # box [0, 2] on the line, six torus points
    generator = lib.codes.toric_generator(p, [(0,), (1,), (2,)])
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        lib.convex.ConcavePL.from_graph_points([(v, 0) for v in HEXAGON_VERTICES])
        lib.codes.build_code(setup)
        lib.codes._sub_boxes(setup.dp, p)
        lib.codes.weight_enumerator(generator)
    finally:
        tracer.uninstall()
    got = {name: value for name, (value, _) in tracer.metrics().items()}
    assert (got["convex.envelope_2d_calls"], got["convex.envelope_2d_points"]) == (1, 6)
    # Weights 0, 1, 2 floor to divisors of degree 0, 1, 3 on the line.
    assert got["tvariety.lattice_weights"] == 3
    assert (got["curve.rr_basis_calls"], got["curve.rr_basis_dim"]) == (3, 1 + 2 + 4)
    assert got["codes.columns_evaluated"] == 6 * (p - 1)
    # Every sub-interval of [0, 2]: its sides are at most 2 <= p - 2.
    assert got["codes.d_upper_sub_boxes"] == 6
    assert got["codes.classes_enumerated"] == (p**3 - 1) // (p - 1)
    # Every row reduction goes through the two traced MatrixFp methods.
    assert got["algebra.row_reduce_calls"] == 4
    assert got["convex.errors"] == got["curve.errors"] == got["codes.errors"] == 0
