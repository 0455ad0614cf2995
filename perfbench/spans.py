"""Span tracing installed from outside the library.

`Tracer.install` replaces each traced function with a wrapper that records a
span (name, start, end, parent span, op id) and, for some, a work count taken
from the arguments or the result. A module-level function is replaced in
every tcodes module namespace that binds it (codes, for one, imports
riemann_roch_basis and twisted_evaluate by name); a method is replaced on its
class. Spans stay in compact in-memory arrays until the run ends.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

LAYERS = ("problemfile", "cli", "convex", "curve", "algebra", "tvariety", "codes")


def _classes(args, result) -> int:
    total = sum(result.values())  # p^k words, the zero word included
    return (total - 1) // (args[0].p - 1)


# (layer, attribute path in the layer module, work count from (args, result)).
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("problemfile", "parse", None),
    ("problemfile", "ProblemSpec.to_polytope", None),
    ("problemfile", "ProblemSpec.to_setup", None),
    ("cli", "main", None),
    ("cli", "_load_spec", None),
    ("cli", "_run_validate", None),
    ("cli", "_run_info", None),
    ("cli", "_run_genmat", None),
    ("cli", "_run_distance", None),
    ("cli", "_run_compare", None),
    ("convex", "ConcavePL._envelope_2d", lambda args, result: len(args[1])),
    ("convex", "ConcavePL._envelope_1d", None),
    ("convex", "ConcavePL.evaluate", None),
    ("convex", "ConcavePL.integral", None),
    ("convex", "sup_convolution", None),
    ("convex", "floor_sum_over_lattice", None),
    ("convex", "signed_ceiling_interior_sum", None),
    ("curve", "riemann_roch_basis", lambda args, result: len(result)),
    ("curve", "twisted_evaluate", None),
    ("curve", "Curve.rational_points", None),
    ("curve", "is_principal", None),
    ("algebra", "MatrixFp.rank_and_rref", None),
    ("algebra", "MatrixFp.independent_row_indices", None),
    ("tvariety", "validate", None),
    ("tvariety", "weil_divisor", None),
    ("tvariety", "graded_sections", lambda args, result: len(result.pieces)),
    ("tvariety", "volume", None),
    ("tvariety", "mixed_volume", None),
    ("tvariety", "intersection_number", None),
    ("tvariety", "DivisorialPolytope.add", None),
    ("tvariety", "project", None),
    ("tvariety", "genus_of_section", None),
    ("tvariety", "euler_characteristic", None),
    ("tvariety", "nu", None),
    ("tvariety", "is_ample", None),
    ("tvariety", "is_semiample", None),
    ("tvariety", "point_divisor_dual", None),
    ("codes", "EvaluationSetup.build", None),
    ("codes", "admissible_points", None),
    ("codes", "build_code", lambda args, result: args[0].n),
    ("codes", "k_bounds", None),
    ("codes", "d_lower", None),
    ("codes", "d_upper", None),
    ("codes", "_sub_boxes", lambda args, result: len(result)),
    ("codes", "_witness_weight", None),
    ("codes", "d_exact", None),
    ("codes", "weight_enumerator", _classes),
    ("codes", "compare_with_product", None),
]

# Per-layer metrics: name -> (unit, how it is derived, targets). "time" sums
# the outermost spans of the targets, "calls" counts spans, "work" sums their
# work counts.
PER_LAYER = {
    "convex.envelope_2d_calls": ("count", "calls", ["convex.ConcavePL._envelope_2d"]),
    "convex.envelope_2d_points": ("count", "work", ["convex.ConcavePL._envelope_2d"]),
    "convex.envelope_2d_s": ("s", "time", ["convex.ConcavePL._envelope_2d"]),
    "convex.sup_convolution_s": ("s", "time", ["convex.sup_convolution"]),
    "convex.evaluate_calls": ("count", "calls", ["convex.ConcavePL.evaluate"]),
    "convex.evaluate_s": ("s", "time", ["convex.ConcavePL.evaluate"]),
    "curve.rr_basis_calls": ("count", "calls", ["curve.riemann_roch_basis"]),
    "curve.rr_basis_dim": ("count", "work", ["curve.riemann_roch_basis"]),
    "curve.rr_basis_s": ("s", "time", ["curve.riemann_roch_basis"]),
    "curve.twisted_evaluate_calls": ("count", "calls", ["curve.twisted_evaluate"]),
    "curve.twisted_evaluate_s": ("s", "time", ["curve.twisted_evaluate"]),
    "curve.rational_points_s": ("s", "time", ["curve.Curve.rational_points"]),
    "algebra.row_reduce_calls": ("count", "calls", ["algebra.MatrixFp.rank_and_rref", "algebra.MatrixFp.independent_row_indices"]),
    "algebra.row_reduce_s": ("s", "time", ["algebra.MatrixFp.rank_and_rref", "algebra.MatrixFp.independent_row_indices"]),
    "tvariety.lattice_weights": ("count", "work", ["tvariety.graded_sections"]),
    "tvariety.graded_sections_s": ("s", "time", ["tvariety.graded_sections"]),
    "tvariety.add_s": ("s", "time", ["tvariety.DivisorialPolytope.add"]),
    "tvariety.mixed_volume_s": ("s", "time", ["tvariety.mixed_volume"]),
    "tvariety.weil_divisor_s": ("s", "time", ["tvariety.weil_divisor"]),
    "tvariety.validate_s": ("s", "time", ["tvariety.validate"]),
    "tvariety.project_s": ("s", "time", ["tvariety.project"]),
    "codes.columns_evaluated": ("count", "work", ["codes.build_code"]),
    "codes.build_code_s": ("s", "time", ["codes.build_code"]),
    "codes.setup_build_s": ("s", "time", ["codes.EvaluationSetup.build"]),
    "codes.d_upper_sub_boxes": ("count", "work", ["codes._sub_boxes"]),
    "codes.d_upper_witnesses": ("count", "calls", ["codes._witness_weight"]),
    "codes.d_upper_s": ("s", "time", ["codes.d_upper"]),
    "codes.d_lower_s": ("s", "time", ["codes.d_lower"]),
    "codes.classes_enumerated": ("count", "work", ["codes.weight_enumerator"]),
    "codes.weight_enum_s": ("s", "time", ["codes.weight_enumerator"]),
    "problemfile.parse_s": ("s", "time", ["problemfile.parse"]),
}


class Tracer:
    """Records spans while installed; `op` tags each span with the current op."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.outermost = array("b")
        self.raised = array("b")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op = -1
        self._stack = [-1]
        self._active: list[int] = []
        self._restore: list[Callable[[], None]] = []

    def _wrap(self, fn: Callable, name: str, count: Callable | None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        self._active.append(0)
        stack, active = self._stack, self._active
        name_id, parent, op_id, outer, raised, work, start, end = (
            self.name_id, self.parent, self.op_id, self.outermost, self.raised, self.work, self.start, self.end
        )

        def span(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(self.op)
            outer.append(active[nid] == 0)
            raised.append(0)
            work.append(0)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                active[nid] -= 1
                stack.pop()
            if count is not None:
                work[idx] = count(args, result)
            return result

        return span

    def install(self, lib: SimpleNamespace) -> None:
        modules = [m for name, m in sys.modules.items() if name == "tcodes" or name.startswith("tcodes.")]
        for layer, path, count in TARGETS:
            owner = getattr(lib, layer)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            name = f"{layer}.{path}"
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, count))
                else:
                    new = self._wrap(raw, name, count)
                setattr(owner, attr, new)
                self._restore.append(lambda owner=owner, attr=attr, raw=raw: setattr(owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            new = self._wrap(fn, name, count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, new)
                        self._restore.append(lambda mod=mod, key=key, fn=fn: setattr(mod, key, fn))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Spans as gzip'd TSV: name, start, end, parent index, op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\t{self.op_id[i]}\n")

    def metrics(self) -> dict[str, tuple[float | int, str]]:
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        by_name: dict[str, list[float | int]] = {}  # name -> [outer time, calls, work]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_errors = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            acc = by_name.setdefault(name, [0.0, 0, 0])
            if self.outermost[i]:
                acc[0] += dur
            acc[1] += 1
            acc[2] += self.work[i]
            layer = name.split(".", 1)[0]
            layer_self[layer] += dur - child[i]
            layer_errors[layer] += self.raised[i]
        out: dict[str, tuple[float | int, str]] = {}
        for metric, (unit, kind, names) in PER_LAYER.items():
            col = {"time": 0, "calls": 1, "work": 2}[kind]
            out[metric] = (sum(by_name.get(nm, [0.0, 0, 0])[col] for nm in names), unit)
        enum_s = out["codes.weight_enum_s"][0]
        out["codes.classes_per_s"] = (out["codes.classes_enumerated"][0] / enum_s if enum_s else 0.0, "1/s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.errors"] = (layer_errors[layer], "count")
        out["trace.spans"] = (n, "count")
        return out
