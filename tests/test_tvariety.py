"""Tests for divisorial polytopes: validation, divisors, sections, volumes."""

import random
from fractions import Fraction
from math import factorial, floor, lcm

import pytest

from tcodes import (
    INFINITY,
    ConcavePL,
    Curve,
    CurvePoint,
    DivisorialPolytope,
    LatticePolytope,
    box_lambda,
    euler_characteristic,
    genus_of_section,
    graded_sections,
    inn,
    intersection_number,
    is_ample,
    is_semiample,
    mixed_volume,
    nu,
    point_divisor_dual,
    project,
    self_intersection,
    sharp,
    sup_convolution,
    validate,
    volume,
    weil_divisor,
)
from tcodes import tvariety
from tcodes.convex import make_point
from tcodes.curve import Divisor, riemann_roch_basis
from tcodes.tvariety import RayTerm, TWeilDivisor, VertexTerm
from tcodes.instances import (
    HEXAGON_VERTICES,
    marked_point_pair,
    record_example,
    standard_elliptic,
    surface_example,
    threefold_example,
    toric_comparison_example,
)

from test_convex import convex_hull_2d, hull_contains
from test_properties import slice_values

E7 = standard_elliptic()
Q1, Q2 = marked_point_pair(E7)
SURFACE = surface_example(E7)
THREEFOLD = threefold_example()


def floored_value(dp, u) -> Divisor:
    """sum floor(h_P(u)) P, each slice by its own `ConcavePL.evaluate`."""
    return Divisor({P: floor(v) for P, v in slice_values(dp, u).items()})


def one_slice_dp(graph, curve=None, point=None) -> DivisorialPolytope:
    curve = curve or E7
    point = point or Q1
    s = ConcavePL.from_graph_points(graph)
    dv = s.domain_vertices()
    lo, hi = int(dv[0][0]), int(dv[-1][0])
    return DivisorialPolytope(curve, LatticePolytope.interval(lo, hi), {point: s})


def test_validate_passes_on_examples():
    for dp in (SURFACE, THREEFOLD):
        report = validate(dp)
        assert report.ok, report.failures()
        assert [c.name for c in report.conditions] == [
            "degree-nonnegative-at-vertices",
            "principal-multiple-at-degree-zero-vertices",
            "lattice-graph-vertices",
        ]


def test_validate_rejects_negative_vertex_degree():
    report = validate(one_slice_dp([(0, -1), (2, 0)]))
    assert not report.ok
    assert not report.conditions[0].ok
    assert report.conditions[2].ok
    assert "degree-nonnegative-at-vertices" in report.failures()[0]


def test_validate_rejects_fractional_graph_vertices():
    report = validate(one_slice_dp([(0, 0), (1, Fraction(1, 2)), (2, 0)]))
    assert not report.ok
    assert report.conditions[0].ok
    assert not report.conditions[2].ok


def test_validate_finds_principal_multiple():
    # Vertex value Q1 - inf has degree zero and order 13 in the class group,
    # so the principal-multiple search has to walk out to the 13th multiple.
    dp = DivisorialPolytope(
        E7,
        LatticePolytope.interval(0, 2),
        {
            Q1: ConcavePL.from_graph_points([(0, 1), (2, 2)]),
            INFINITY: ConcavePL.from_graph_points([(0, -1), (2, -1)]),
        },
    )
    report = validate(dp)
    assert report.ok
    assert is_semiample(dp)
    assert not is_ample(dp)


def test_ampleness():
    assert is_semiample(SURFACE)
    assert not is_ample(SURFACE)
    assert is_semiample(THREEFOLD)
    assert is_ample(THREEFOLD)
    collinear = one_slice_dp([(0, 1), (2, 2), (4, 3)])
    assert is_semiample(collinear)
    assert not is_ample(collinear)
    strict = one_slice_dp([(0, 1), (2, 3), (4, 4)])
    assert is_ample(strict)


def test_weil_divisor_surface():
    w = weil_divisor(SURFACE)
    assert w.ray_coefficient((1,)) == 0
    assert w.ray_coefficient((-1,)) == 4
    assert w.vertex_coefficient(Q1, (Fraction(1, 2),)) == 0
    assert w.vertex_coefficient(Q2, (Fraction(-1),)) == 4
    assert w.vertex_coefficient(Q2, (Fraction(-2),)) == 7
    assert all(t.meets_degree for t in w.ray_terms)
    assert "4*ray(-1)" in w.render()
    with pytest.raises(KeyError):
        w.ray_coefficient((2,))
    with pytest.raises(KeyError):
        w.vertex_coefficient(Q1, (Fraction(3),))


def test_weil_divisor_threefold():
    w = weil_divisor(THREEFOLD)
    rays = sorted(t.ray for t in w.ray_terms)
    assert rays == [(-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0), (1, 1)]
    assert all(t.coefficient == 1 for t in w.ray_terms)
    nonzero = {(t.point, t.v): t.coefficient for t in w.vertex_terms if t.coefficient != 0}
    assert nonzero == {
        (INFINITY, (Fraction(0), Fraction(0))): 2,
        (INFINITY, (Fraction(-1), Fraction(-1))): 2,
    }


def reference_clip_segment(hull, q0, q1):
    """Parameter range [tmin, tmax] of {q0 + t(q1-q0) : 0 <= t <= 1} inside
    a counterclockwise polygon, in `Fraction`s."""
    tmin, tmax = Fraction(0), Fraction(1)
    d = (q1[0] - q0[0], q1[1] - q0[1])
    for a, b in zip(hull, hull[1:] + hull[:1]):
        base = (b[0] - a[0]) * (q0[1] - a[1]) - (b[1] - a[1]) * (q0[0] - a[0])
        slope = (b[0] - a[0]) * d[1] - (b[1] - a[1]) * d[0]
        if slope == 0:
            if base < 0:
                return None
        elif slope > 0:
            tmin = max(tmin, -base / slope)
        else:
            tmax = min(tmax, -base / slope)
    if tmin > tmax:
        return None
    return tmin, tmax


def min_face(dp, n):
    """The box vertices minimizing the pairing with n."""
    vals = [sum(c * w for c, w in zip(v, n)) for v in dp.box.vertices]
    return [v for v, val in zip(dp.box.vertices, vals) if val == min(vals)]


def reference_tail_gradients(dp, s, n):
    """The former tail piece: gradients of the cells holding the minimizing
    vertex, or meeting the minimizing edge in a segment of positive length."""
    face = min_face(dp, n)
    grads = []
    if len(face) == 1:
        target = make_point(face[0])
        for g, _, cell in s.facets():
            if hull_contains(list(cell), target):
                grads.append(g)
    else:
        q0, q1 = make_point(face[0]), make_point(face[1])
        for g, _, cell in s.facets():
            span = reference_clip_segment(list(cell), q0, q1)
            if span is not None and span[0] < span[1]:
                grads.append(g)
    return grads


def reference_ray_meets_degree(dp, n):
    """The former degree test: the hull of the summed tail pieces against
    the span of the ray."""
    if dp.m == 1:
        return True
    total = [make_point((0, 0))]
    for s in dp.slices.values():
        grads = reference_tail_gradients(dp, s, n)
        if not grads:
            continue
        total = convex_hull_2d([tuple(a + b for a, b in zip(t, g)) for t in total for g in grads])
    sides = [n[0] * k[1] - n[1] * k[0] for k in total]
    return not (all(sd > 0 for sd in sides) or all(sd < 0 for sd in sides))


def reference_weil_divisor(dp):
    ray_terms = []
    for n in dp.box.rays():
        h0 = min(sum(c * w for c, w in zip(v, n)) for v in dp.box.vertices)
        ray_terms.append(RayTerm(n, Fraction(-h0), reference_ray_meets_degree(dp, n)))
    vertex_terms = []
    for P in dp.stored_points():
        for g, c in dp.slices[P].cells():
            vertex_terms.append(VertexTerm(P, g, lcm(*(x.denominator for x in g)) * c))
    vertex_terms.sort(key=lambda t: (t.point.sort_key(), t.v))
    return TWeilDivisor(ray_terms, vertex_terms)


def test_weil_divisor_matches_the_former_ray_test():
    rng = random.Random(1400)
    shapes = [[(0, 0), (2, 0), (0, 2)], [(0, 0), (1, 0), (1, 1), (0, 1)], HEXAGON_VERTICES]
    fiber = point_divisor_dual(THREEFOLD.curve, CurvePoint.affine(3, 0, 7), m=2)
    dps = [THREEFOLD, THREEFOLD.scale(2), THREEFOLD.add(THREEFOLD), THREEFOLD.add(fiber)]
    polygons = [folded_polygon_dp(rng, shapes[i % 3]) for i in range(60)]
    dps += polygons + [rng.choice(polygons).add(rng.choice(polygons)) for _ in range(20)]
    # Fractional values, so the slices store their corners over den > 1.
    fractional = [folded_polygon_dp(rng, shapes[i % 3], den=rng.randint(2, 3)) for i in range(30)]
    dps += fractional + [rng.choice(fractional).add(rng.choice(polygons)) for _ in range(10)]
    seen = set()
    for dp in dps:
        w = weil_divisor(dp)
        assert w == reference_weil_divisor(dp), dp
        assert w.render() == reference_weil_divisor(dp).render()
        seen.update((t.meets_degree, len(min_face(dp, t.ray))) for t in w.ray_terms)
    assert seen == {(True, 1), (True, 2), (False, 1), (False, 2)}


def test_graded_sections_dimensions():
    gs = graded_sections(SURFACE)
    assert [p.dim for p in gs.pieces] == [1, 1, 3, 2, 1]
    assert gs.total_dim == 8
    assert next(p.dim for p in gs.pieces if p.u == (2,)) == 3

    gs3 = graded_sections(THREEFOLD)
    dims = {p.u: p.dim for p in gs3.pieces}
    assert dims[(0, 0)] == 3
    assert all(d == 2 for u, d in dims.items() if u != (0, 0))
    assert gs3.total_dim == 15

    toric = graded_sections(toric_comparison_example(7))
    assert [p.dim for p in toric.pieces] == [1, 2, 4]


def test_volume_and_self_intersection():
    assert volume(SURFACE) == Fraction(15, 2)
    assert self_intersection(SURFACE) == 15
    assert volume(THREEFOLD) == 4
    assert self_intersection(THREEFOLD) == 24


def test_mixed_volume_polarization():
    assert mixed_volume([SURFACE, SURFACE]) == volume(SURFACE)
    assert intersection_number([SURFACE, SURFACE]) == 15
    assert intersection_number([THREEFOLD, THREEFOLD, THREEFOLD]) == 24
    with pytest.raises(ValueError):
        intersection_number([SURFACE])
    with pytest.raises(ValueError):
        mixed_volume([])


def reference_mixed_volume(dps):
    """The former polarization loop: each subset summed afresh."""
    k = len(dps)
    total = Fraction(0)
    for mask in range(1, 1 << k):
        member = [dp for i, dp in enumerate(dps) if mask >> i & 1]
        acc = member[0]
        for dp in member[1:]:
            acc = acc.add(dp)
        total += (-1) ** (k - len(member)) * volume(acc)
    return total / factorial(k)


def folded_polygon_dp(rng, verts, den=1) -> DivisorialPolytope:
    """A polygon box over P^1 with slices at 0, 1 and infinity, each the
    minimum of two affine pieces sampled at the box vertices, divided by
    den."""
    curve = Curve.p1(7)
    slices = {}
    for P in (CurvePoint.affine(0, 0, 7), CurvePoint.affine(1, 0, 7), INFINITY):
        pieces = [((rng.randint(-1, 1), rng.randint(-1, 1)), rng.randint(0, 2)) for _ in range(2)]
        slices[P] = ConcavePL.from_graph_points(
            [(v, Fraction(min(g[0] * v[0] + g[1] * v[1] + c for g, c in pieces), den)) for v in verts]
        )
    return DivisorialPolytope(curve, LatticePolytope(verts), slices)


def test_mixed_volume_matches_the_former_polarization(monkeypatch):
    rng = random.Random(160)
    shapes = [[(0, 0), (2, 0), (0, 2)], [(0, 0), (1, 0), (1, 1), (0, 1)], HEXAGON_VERTICES]
    families = [[SURFACE], [SURFACE, SURFACE], [SURFACE, point_divisor_dual(E7, Q1)], [THREEFOLD] * 3]
    for _ in range(4):
        a, b = (folded_polygon_dp(rng, rng.choice(shapes)) for _ in range(2))
        fiber = point_divisor_dual(a.curve, CurvePoint.affine(rng.randint(2, 6), 0, 7), m=2)
        families += [[a, b], [a, b, fiber], [a, a, b]]
    calls = []
    add = DivisorialPolytope.add
    monkeypatch.setattr(DivisorialPolytope, "add", lambda self, other: calls.append(1) or add(self, other))
    for dps in families:
        del calls[:]
        got = mixed_volume(dps)
        adds = len(calls)
        assert got == reference_mixed_volume(dps), dps
        # One add per subset of two or more: a triple costs four, not five.
        assert adds == 2 ** len(dps) - 1 - len(dps)
        assert len(calls) - adds == {1: 0, 2: 1, 3: 5}[len(dps)]


def test_point_divisor_dual_pairing():
    # Pairing the surface class with a fiber class gives the box length,
    # independently of the chosen base point.
    for P in (Q1, Q2, INFINITY, CurvePoint.affine(3, 3, 7)):
        pt = point_divisor_dual(E7, P)
        assert volume(pt) == 0
        assert intersection_number([SURFACE, pt]) == 4


def test_counting_invariants_surface():
    assert inn(SURFACE) == 8
    assert sharp(SURFACE) == 7
    assert genus_of_section(SURFACE) == (5, 4, 9)
    assert euler_characteristic(SURFACE) == (12, -5, 7)


def test_cross_checks_catch_a_wrong_weight_record(monkeypatch):
    # sharp's runtime cross-check compares the per-weight records with
    # per-slice sums that evaluate the slices themselves, so one wrong floor
    # degree fails it, and chi, which reads sharp, with it.
    dp = surface_example(E7)
    u = dp.lattice_points()[2]
    at = dp.at(u)
    monkeypatch.setitem(dp._at, u, at._replace(floor_degree=at.floor_degree + 1))
    with pytest.raises(AssertionError, match="floor-degree bookkeeping mismatch"):
        sharp(dp)
    with pytest.raises(AssertionError, match="floor-degree bookkeeping mismatch"):
        euler_characteristic(dp)



def test_weight_records_refuse_points_off_the_box():
    # The records read the integer kernel, and a weight it cannot read is
    # refused with the same error as each slice's own `evaluate`.
    for dp, bad in [(SURFACE, (5,)), (SURFACE, (-1,)), (SURFACE, (1, 0)), (THREEFOLD, (9, 9)), (THREEFOLD, (0,))]:
        s = next(iter(dp.slices.values()))
        with pytest.raises(ValueError) as want:
            s.evaluate(bad)
        with pytest.raises(ValueError) as got:
            dp.at(bad)
        assert str(got.value) == str(want.value), bad
        assert bad not in dp._at


def test_counting_invariants_trivial():
    flat = one_slice_dp([(0, 0), (1, 0)], curve=Curve.p1(7), point=CurvePoint.affine(0, 0, 7))
    assert genus_of_section(flat) == (0, 1, 0)
    assert euler_characteristic(flat) == (2, -2, 2)
    wide = one_slice_dp([(0, 0), (3, 0)], curve=Curve.p1(7), point=CurvePoint.affine(0, 0, 7))
    assert euler_characteristic(wide)[2] == 4


def test_box_lambda_and_nu():
    assert box_lambda(SURFACE, 0) == [(0,), (1,), (2,), (3,), (4,)]
    assert box_lambda(SURFACE, 2) == [(2,), (3,)]
    assert [nu(SURFACE, lam) for lam in range(4)] == [4, 3, 1, 0]
    with pytest.raises(ValueError):
        nu(SURFACE, 4)


def test_projection_of_threefold():
    pr = project(THREEFOLD)
    assert pr.m == 1
    assert pr.box.bounds() == (-1, 1)
    pts = pr.stored_points()
    assert len(pts) == 3
    slices = {P: pr.slice_at(P) for P in pts}
    finite = [P for P in pts if not P.is_infinity]
    assert slices[finite[0]].affine_data() == ((Fraction(0),), Fraction(0))
    assert slices[INFINITY].affine_data() == ((Fraction(0),), Fraction(2))
    mid = slices[finite[1]]
    assert mid.evaluate(-1) == -1 and mid.evaluate(0) == 0 and mid.evaluate(1) == 0
    assert [nu(pr, lam) for lam in (0, 1, 2)] == [2, 2, 1]
    assert validate(pr).ok
    with pytest.raises(ValueError):
        project(pr)


def test_scale_and_add():
    double = SURFACE.scale(2)
    assert volume(double) == 4 * volume(SURFACE)
    assert double.box.bounds() == (0, 8)
    summed = SURFACE.add(SURFACE)
    assert summed.box == double.box
    assert volume(summed) == volume(double)
    with pytest.raises(ValueError):
        SURFACE.add(threefold_example())


def test_zero_slice_is_built_once_and_left_alone():
    dp = SURFACE
    unmarked = [P for P in E7.rational_points() if P not in dp.slices]
    zero = dp.slice_at(unmarked[0])
    assert all(dp.slice_at(P) is zero for P in unmarked)
    fresh = ConcavePL.constant_on(dp.box, 0)
    assert (zero.vertices, zero.had_collinear) == (fresh.vertices, fresh.had_collinear)
    # A sum whose other summand has a slice where this one has none reads
    # the shared zero slice; the sum matches fresh zero slices, and the
    # shared one is unchanged afterwards.
    other = DivisorialPolytope(E7, dp.box, {unmarked[0]: ConcavePL.from_graph_points([(0, 1), (4, 3)])})
    for a, b in ((dp, dp), (dp, other), (other, dp)):
        support = set(a.slices) | set(b.slices)
        want = {
            P: sup_convolution(a.slices.get(P, fresh), b.slices.get(P, fresh)) for P in support
        }
        assert a.add(b) == DivisorialPolytope(E7, a.box.minkowski(b.box), want)
    assert (zero.vertices, zero.had_collinear) == (fresh.vertices, fresh.had_collinear)
    assert dp.slice_at(unmarked[-1]) is zero
    assert other.slice_at(Q1) is other.slice_at(Q2) is not zero


def test_dp_constructor_validation():
    s = ConcavePL.from_graph_points([(0, 0), (4, 2)])
    with pytest.raises(ValueError):
        DivisorialPolytope(E7, LatticePolytope.interval(0, 3), {Q1: s})
    with pytest.raises(ValueError):
        DivisorialPolytope(E7, LatticePolytope.interval(0, 4), {CurvePoint.affine(0, 1, 7): s})


@pytest.mark.parametrize("name", ["surface", "threefold", "record"])
def test_graded_sections_one_basis_per_divisor(name, monkeypatch):
    # Weights whose floored slice divisors agree share one Riemann-Roch basis,
    # and it equals the basis a fresh call gives at each weight.
    dp = {
        "surface": lambda: surface_example(standard_elliptic()),
        "threefold": threefold_example,
        "record": lambda: record_example().dp,
    }[name]()
    divisors = {repr(floored_value(dp, u)) for u in dp.lattice_points()}
    assert name == "surface" or len(divisors) < len(dp.lattice_points())
    calls = []

    def counting(curve, D):
        calls.append(D)
        return riemann_roch_basis(curve, D)

    monkeypatch.setattr(tvariety, "riemann_roch_basis", counting)
    pieces = graded_sections(dp).pieces
    assert len(calls) == len(divisors) == len(set(map(repr, calls)))
    assert [piece.u for piece in pieces] == dp.lattice_points()
    for piece in pieces:
        assert piece.divisor == floored_value(dp, piece.u)
        assert piece.basis == riemann_roch_basis(dp.curve, piece.divisor)
