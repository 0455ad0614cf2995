"""The three workloads: seeded rounds of ops, each op with its own check.

An op is one user query. `run` is the timed part; `check` compares its
result with values the benchmark derives itself (gen.py) or with values the
test suite pins, and returns a message on mismatch. A round is a fixed mix
of ops in seeded order; every run measures whole rounds, so the mix a run
measures does not depend on when it stops. Each workload generates a few
distinct rounds with the same sizes and cycles through them.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import gen


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    rounds: list[list[Op]]
    # The tail percentile reported; runs last until at least
    # min_ops = 10 / (1 - tail) ops are done, so ten ops lie beyond it.
    tail_percentile: int

    @property
    def min_ops(self) -> int:
        return -(-1000 // (100 - self.tail_percentile))


def _mismatch(got: dict, want: dict) -> str | None:
    bad = {key: (got.get(key), val) for key, val in want.items() if got.get(key) != val}
    return None if not bad else "got/expected " + ", ".join(f"{k}={g}/{w}" for k, (g, w) in bad.items())


# -- code-sweep --------------------------------------------------------------


def _cli(lib: SimpleNamespace, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue() + err.getvalue()

    return run


def _fields(result: tuple[int, str]) -> dict[str, str]:
    code, text = result
    out = {"exit": str(code)}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key] = val
    return out


def _check_info(inst: gen.IntervalInstance, pinned: dict[str, str] | None = None) -> Callable:
    def check(result) -> str | None:
        f = _fields(result)
        g_const, g_coeff, g_val = inst.genus_of_section()
        e_const, e_coeff, e_val = inst.euler()
        vol = inst.volume()
        want = {
            "exit": "0",
            "n": str(inst.n),
            "k": str(inst.k),
            "d_lower": str(inst.d_lower()),
            "vol": str(vol),
            "degree": str(2 * vol),
            "degree_alt": str(vol),
            "weil": inst.weil(),
            "genus": str(g_val),
            "genus_form": f"{g_const} + {g_coeff}*g",
            "euler": str(e_val),
            "euler_form": f"{e_const} - {-e_coeff}*g",
            **(pinned or {}),
        }
        bad = _mismatch(f, want)
        if bad:
            return bad
        try:
            k, n = int(f["k"]), int(f["n"])
            ks = [int(f[x]) for x in ("k_lower", "k_gamma", "k_upper")]
            dl, du = int(f["d_lower"]), int(f["d_upper"])
        except (KeyError, ValueError) as e:
            return f"unreadable info output: {e}"
        if not (ks[0] <= k and ks[1] <= k <= ks[2]):
            return f"k = {k} outside its bounds {ks}"
        if not 0 < dl <= du <= n:
            return f"distance bounds out of order: {dl} <= {du} <= {n}"
        return None

    return check


def _check_genmat(inst: gen.IntervalInstance) -> Callable:
    def check(result) -> str | None:
        code, text = result
        lines = text.splitlines()
        if code != 0 or not lines:
            return f"exit {code}"
        header = f"{inst.n} {inst.k} {inst.p}"
        if lines[0] != header:
            return f"header {lines[0]!r}, expected {header!r}"
        rows = lines[1:]
        if len(rows) != inst.k:
            return f"{len(rows)} rows, expected {inst.k}"
        # A row holds a section at weight u times the character t^u, so along
        # each point's block of q - 1 torus columns (powers of the smallest
        # primitive root g) its entries grow by the factor g^u.
        g = gen.primitive_root(inst.p)
        weights = [u for u in inst.weights() for _ in range(inst.rr_dim(u))]
        for u, row in zip(weights, rows):
            vals = [int(v) for v in row.split()]
            if len(vals) != inst.n or not all(0 <= v < inst.p for v in vals):
                return "malformed generator row"
            step = pow(g, u, inst.p)
            for i, v in enumerate(vals):
                if (i + 1) % (inst.p - 1) and vals[i + 1] != v * step % inst.p:
                    return f"row at weight {u} is not a character times a section"
        return None

    return check


def _check_validate(inst: gen.IntervalInstance) -> Callable:
    # Vertex degrees are positive on the elliptic curve and nonnegative on
    # the line, where every degree-0 divisor is principal, so validity comes
    # down to integral graph vertices.
    valid = all(z.denominator == 1 for s in inst.slices.values() for _, z in s.graph)

    def check(result) -> str | None:
        return _mismatch(
            _fields(result),
            {
                "exit": "0" if valid else "2",
                "degree-nonnegative-at-vertices": "pass",
                "principal-multiple-at-degree-zero-vertices": "pass",
                "valid": str(valid).lower(),
                "semiample": "true",
                "ample": str(inst.ample()).lower(),
            },
        )

    return check


def _check_compare(inst: gen.IntervalInstance) -> Callable:
    def check(result) -> str | None:
        want = {key: str(val) for key, val in gen.compare_expectation(inst).items()}
        want.update(exit="0", k_matches="true")
        return _mismatch(_fields(result), want)

    return check


SURFACE_DEMO = gen.IntervalInstance(
    7,
    gen.ELLIPTIC,
    4,
    {"Q1": (1, 2), "Q2": (1, 5)},
    {
        "Q1": gen.Slice1D([(0, Fraction(0)), (4, Fraction(2))]),
        "Q2": gen.Slice1D([(0, Fraction(0)), (2, Fraction(2)), (3, Fraction(1)), (4, Fraction(-1))]),
    },
)
FAMILY_DEMO = gen.IntervalInstance(
    7, gen.ELLIPTIC, 2, {"Q1": (1, 2)}, {"Q1": gen.Slice1D([(0, Fraction(3)), (2, Fraction(5))])}
)


def code_sweep(lib: SimpleNamespace, seed: int, root: Path, workdir: Path) -> Workload:
    """Every prime from 7 to 101, mostly `tcode info`."""
    rng = random.Random(f"code-sweep/{seed}")
    kinds = (gen.P1, gen.ELLIPTIC)

    def instance(p: int, kind: str, a: int) -> gen.IntervalInstance:
        # The curve, the box width and k (near its most common value) are
        # fixed per slot, so all rounds and seeds hold the same sizes and
        # differ in slices and points.
        k = (4 if kind == gen.P1 else 3) * (a + 1) - 1
        return gen.interval_instance(rng, p, kind, a, max_deg=4, k_target=k)

    rounds = []
    for r in range(4):
        ops: list[Op] = []

        def add(kind: str, inst: gen.IntervalInstance, check: Callable) -> None:
            path = workdir / f"{r}-{len(ops)}.tcode"
            path.write_text(inst.render())
            ops.append(Op(kind, _cli(lib, [kind, str(path)]), check))

        for i, p in enumerate(gen.PRIMES):
            for kind in kinds:
                inst = instance(p, kind, 2 + i % 3)
                add("info", inst, _check_info(inst))
        for j, p in enumerate(gen.PRIMES[4::6]):
            inst = instance(p, kinds[j % 2], 3)
            add("genmat", inst, _check_genmat(inst))
            inst = instance(p, kinds[(j + 1) % 2], 3)
            add("validate", inst, _check_validate(inst))
            inst = gen.family_instance(rng, p, kinds[j % 2])
            add("compare", inst, _check_compare(inst))
        demos = root / "demos"
        pinned = {"n": "66", "k": "8", "d_lower": "22", "d_upper": "33"}
        ops.append(Op("info", _cli(lib, ["info", str(demos / "surface.tcode")]), _check_info(SURFACE_DEMO, pinned)))
        ops.append(Op("compare", _cli(lib, ["compare", str(demos / "family.tcode")]), _check_compare(FAMILY_DEMO)))
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, tail_percentile=90)


# -- exact-distance ----------------------------------------------------------

# (p, k, evaluation points, curve) for the seeded codes; message classes
# (p^k - 1)/(p - 1) run from 1.5e3 to 4e5 and n = l(p - 1) stays at most 100,
# the length of the largest fixed member. The two [36, 7]_7 codes match the
# fixed [36, 7]_7 member in size, so the median op falls in a group of three.
EXACT_STRATA = [
    (11, 4, 6, gen.P1),
    (13, 4, 6, gen.ELLIPTIC),
    (7, 5, 8, gen.ELLIPTIC),
    (11, 5, 8, gen.P1),
    (7, 6, 8, gen.ELLIPTIC),
    (13, 5, 7, gen.ELLIPTIC),
    (7, 7, 6, gen.P1),
    (7, 7, 6, gen.ELLIPTIC),
    (7, 7, 9, gen.ELLIPTIC),
    (11, 6, 9, gen.P1),
    (11, 6, 9, gen.ELLIPTIC),
    (13, 6, 8, gen.P1),
]


def _distance(lib: SimpleNamespace, make_setup: Callable) -> Callable[[], tuple[int, ...]]:
    def run() -> tuple[int, ...]:
        codes = lib.codes
        setup = make_setup()
        code = codes.build_code(setup)
        low = codes.d_lower(setup).value
        exact = codes.d_exact(code.generator())
        up = codes.d_upper(setup).value
        return setup.n, code.k, low, exact, up

    return run


def _build_interval_setup(lib: SimpleNamespace, inst: gen.IntervalInstance) -> Callable:
    def make():
        curve_mod, convex = lib.curve, lib.convex
        p = inst.p
        curve = curve_mod.Curve.p1(p) if inst.kind == gen.P1 else curve_mod.Curve.elliptic(p, 0, 3)

        def point(P):
            return curve_mod.INFINITY if P is None else curve_mod.CurvePoint.affine(P[0], P[1], p)

        slices = {
            point(inst.carriers[name]): convex.ConcavePL.from_graph_points([((u,), z) for u, z in s.graph])
            for name, s in inst.slices.items()
        }
        dp = lib.tvariety.DivisorialPolytope(curve, convex.LatticePolytope.interval(0, inst.a), slices)
        return lib.codes.EvaluationSetup.build(dp, [point(P) for P in inst.eval_points])

    return make


def _check_distance(want: tuple[int, ...], inst: gen.IntervalInstance | None = None) -> Callable:
    def check(result) -> str | None:
        n, k, low, exact, up = result
        if (n, k) != tuple(want[:2]):
            return f"(n, k) = {(n, k)}, expected {tuple(want[:2])}"
        if len(want) > 2 and (low, exact, up) != tuple(want[2:]):
            return f"d = {(low, exact, up)}, expected {tuple(want[2:])}"
        if inst is not None and low != inst.d_lower():
            return f"d_lower = {low}, expected {inst.d_lower()}"
        if not 0 < low <= exact <= up <= n:
            return f"d_lower <= d_exact <= d_upper fails: {low}, {exact}, {up}"
        return None

    return check


def exact_distance(lib: SimpleNamespace, seed: int, root: Path, workdir: Path) -> Workload:
    """`tcode distance` work on codes of 1.5e3 to 2e6 message classes."""
    rng = random.Random(f"exact-distance/{seed}")
    inst_mod = lib.instances
    rounds = []
    for _ in range(6):
        ops = [
            # Values pinned by the test suite: [66, 8]_7 with d = 22/33/33 and
            # the toric comparison code [36, 7]_7 with d = 18. The [100, 7]_11
            # member is sandwiched by its bounds, d_lower = d_upper = 70.
            Op("distance", _distance(lib, inst_mod.surface_code_setup), _check_distance((66, 8, 22, 33, 33))),
            Op("distance", _distance(lib, lambda: inst_mod.toric_comparison_setup(7)), _check_distance((36, 7, 18, 18, 18))),
            Op("distance", _distance(lib, lambda: inst_mod.toric_comparison_setup(11)), _check_distance((100, 7, 70, 70, 70))),
        ]
        for p, k, l, kind in EXACT_STRATA:
            while True:
                inst = gen.interval_instance(rng, p, kind, rng.randint(1, 3), max_deg=l - 1)
                if inst.k == k and len(inst.admissible()) >= l:
                    break
            inst.eval_points = sorted(rng.sample(inst.admissible(), l), key=gen.point_sort_key)
            ops.append(Op("distance", _distance(lib, _build_interval_setup(lib, inst)), _check_distance((inst.n, k), inst)))
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, tail_percentile=75)


# -- threefold-geometry ------------------------------------------------------


def _polytope(lib: SimpleNamespace, inst: gen.PolygonInstance):
    curve_mod, convex = lib.curve, lib.convex
    p = inst.p
    slices = {
        (curve_mod.INFINITY if P is None else curve_mod.CurvePoint.affine(P[0], P[1], p)): convex.ConcavePL.from_graph_points(graph)
        for P, graph in inst.slices.items()
    }
    return lib.tvariety.DivisorialPolytope(curve_mod.Curve.p1(p), convex.LatticePolytope(inst.vertices), slices)


def _report_op(lib: SimpleNamespace, inst: gen.PolygonInstance) -> Op:
    def run():
        tv = lib.tvariety
        dp = _polytope(lib, inst)
        return tv.validate(dp).ok, tv.weil_divisor(dp)

    def check(result) -> str | None:
        ok, weil = result
        if not ok:
            return "valid instance reported invalid"
        rays = {t.ray: t.coefficient for t in weil.ray_terms}
        want = {n: -min(v[0] * n[0] + v[1] * n[1] for v in inst.vertices) for n in gen.outer_normals(inst.vertices)}
        if rays != want:
            return f"Weil ray coefficients {rays}, expected {want}"
        carriers = {t.point for t in weil.vertex_terms}
        if len(carriers) != len(inst.slices):
            return "a slice contributes no vertex term"
        return None

    return Op("report", run, check)


def _add_op(lib: SimpleNamespace, a: gen.PolygonInstance, b: gen.PolygonInstance) -> Op:
    def run():
        A, B = _polytope(lib, a), _polytope(lib, b)
        return A, B, A.add(B)

    def check(result) -> str | None:
        A, B, S = result
        if sorted(S.box.vertices) != sorted(gen.minkowski(a.vertices, b.vertices)):
            return f"sum box {S.box.vertices} is not the Minkowski sum"
        for P in set(A.slices) | set(B.slices):
            f, g, h = A.slice_at(P), B.slice_at(P), S.slice_at(P)
            best: dict = {}
            for u, zu in f.vertices:
                for v, zv in g.vertices:
                    w = (u[0] + v[0], u[1] + v[1])
                    if h.evaluate(w) < zu + zv:
                        return f"sup-convolution below a vertex sum at {w}"
                    best[w] = max(best.get(w, zu + zv), zu + zv)
            for w, z in h.vertices:
                if best.get(w) != z:
                    return f"sum vertex {w} with value {z} is not a best vertex sum"
        return None

    return Op("add", run, check)


def _self_mixed_volume_op(lib: SimpleNamespace, a: gen.PolygonInstance) -> Op:
    """V(A, A) by polarization of the cubic volume form: (vol(2A) - 2 vol(A))/2
    = 3 vol(A), which holds only if A + A is exactly the scaled polytope."""

    def run():
        A = _polytope(lib, a)
        return lib.tvariety.mixed_volume([A, A]), lib.tvariety.volume(A)

    def check(result) -> str | None:
        mv, vol = result
        return None if mv == 3 * vol else f"V(A, A) = {mv}, volume {vol}"

    return Op("mixed_volume", run, check)


def _fiber_triple_op(lib: SimpleNamespace, a: gen.PolygonInstance, b: gen.PolygonInstance, P: gen.Point) -> Op:
    def run():
        curve_mod = lib.curve
        A, B = _polytope(lib, a), _polytope(lib, b)
        fiber = lib.tvariety.point_divisor_dual(A.curve, curve_mod.CurvePoint.affine(P[0], P[1], a.p), m=2)
        return lib.tvariety.intersection_number([A, B, fiber])

    want = gen.mixed_area(a.vertices, b.vertices)

    def check(result) -> str | None:
        return None if result == want else f"D_A . D_B . F = {result}, expected mixed area {want}"

    return Op("intersection_number", run, check)


def _threefold_code_op(lib: SimpleNamespace, p: int, want: tuple[int, ...]) -> Op:
    def run():
        codes = lib.codes
        setup = lib.instances.threefold_code_setup(p)
        code = codes.build_code(setup)
        return setup.n, code.k, codes.d_lower(setup).value, codes.d_upper(setup).value, lib.tvariety.volume(setup.dp)

    def check(result) -> str | None:
        n, k, low, up, vol = result
        if result != want:
            return f"(n, k, d_lower, d_upper, vol) = {result}, expected {want}"
        return None if 0 < low <= up <= n else "distance bounds out of order"

    return Op("threefold_code", run, check)


def threefold_geometry(lib: SimpleNamespace, seed: int, root: Path, workdir: Path) -> Workload:
    """Two-weight divisorial polytopes: validation, sums, mixed volumes, codes.

    Shapes per slot are fixed and the slices random. In sorted op time a round
    is 5 cheap ops (reports, V(tri, tri)), 6 middle ones (square + square,
    V(sq, sq)), the two codes, and 3 fiber triples on top, so the median
    falls mid-way through the middle ops and p90 mid-way through the triples,
    away from the gaps between the groups. Hexagons enter through the
    reports and the built-in threefold, whose set-up builds a 2D envelope
    on the hexagon for every unmarked point.
    """
    rng = random.Random(f"threefold-geometry/{seed}")
    p = 7
    fibers = [P for P in gen.rational_points(p, gen.P1) if P not in gen.POLYGON_CARRIERS]
    rounds = []
    for _ in range(12):
        tri, sq, hexa = ([gen.polygon_instance(rng, p, shape) for _ in range(5)] for shape in gen.POLYGONS)
        ops = [_report_op(lib, inst) for inst in (tri[0], sq[0], hexa[0], hexa[1])]
        ops += [_add_op(lib, sq[i], sq[(i + 1) % 5]) for i in range(5)]
        ops += [_self_mixed_volume_op(lib, tri[2]), _self_mixed_volume_op(lib, sq[2])]
        ops += [_fiber_triple_op(lib, tri[i], sq[i], rng.choice(fibers)) for i in (1, 3, 4)]
        # The built-in threefold: test-pinned at p = 7; at p = 13 the bounds
        # and dimension computed at the commit that added this benchmark.
        ops.append(_threefold_code_op(lib, 7, (180, 15, 60, 108, 4)))
        ops.append(_threefold_code_op(lib, 13, (1584, 15, 990, 1296, 4)))
        rng.shuffle(ops)
        rounds.append(ops)
    return Workload(rounds, tail_percentile=90)


WORKLOADS = {
    "code-sweep": code_sweep,
    "exact-distance": exact_distance,
    "threefold-geometry": threefold_geometry,
}
