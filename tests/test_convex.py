"""Tests for lattice polytopes, concave PL functions, and min-plus duality."""

import random
from fractions import Fraction
from math import ceil, floor
from pathlib import Path

import pytest

from tcodes import (
    ConcavePL,
    DivisorialPolytope,
    LatticePolytope,
    SupportFunctionSlice,
    point_divisor_dual,
    sup_convolution,
    toric_polytope,
)
from tcodes import convex
from tcodes.cli import EXIT_OK, main
from tcodes.convex import (
    Facet,
    Point,
    _contains,
    _cross,
    _hull,
    _lift,
    floor_sum_over_lattice,
    make_point,
    polygon_area2,
    primitive_vector,
    signed_ceiling_interior_sum,
)
from tcodes.instances import HEXAGON_VERTICES, marked_point_pair, standard_elliptic, surface_example, threefold_example

S1_GRAPH = [(0, 0), (4, 2)]
S2_GRAPH = [(0, 0), (2, 2), (3, 1), (4, -1)]


def hexagon() -> LatticePolytope:
    return LatticePolytope(HEXAGON_VERTICES)


def polytope_contains(poly: LatticePolytope, u) -> bool:
    """Whether the exact point u lies in the polytope, by the integer hull test."""
    den, [q] = _lift([make_point(u)])
    return _contains([tuple(den * c for c in v) for v in poly.vertices], q)


def convex_hull_2d(points):
    """The library's integer hull of exact points, given back as the input points."""
    pts = list(points)
    back = dict(zip(_lift(pts)[1], pts))
    return [back[q] for q in _hull(back)]


def hull_contains(hull, p):
    """The library's integer containment test on exact points: whether p
    lies in a hull as `convex_hull_2d` returns it."""
    _, pts = _lift([*hull, p])
    return _contains(pts[:-1], pts[-1])


def test_convex_hull_and_area():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (2, 1)]
    hull = convex_hull_2d([(Fraction(x), Fraction(y)) for x, y in pts])
    assert len(hull) == 4
    assert polygon_area2(hull) == 8
    assert hull_contains(hull, (Fraction(1), Fraction(1)))
    assert not hull_contains(hull, (Fraction(3), Fraction(1)))
    segment = convex_hull_2d([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))])
    assert len(segment) == 2


def test_primitive_vector():
    assert primitive_vector((4, -6)) == (2, -3)
    assert primitive_vector((0, 5)) == (0, 1)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_interval_polytope():
    box = LatticePolytope.interval(0, 4)
    assert box.bounds() == (0, 4)
    assert box.lattice_points() == [(0,), (1,), (2,), (3,), (4,)]
    assert box.volume() == 4
    assert box.width_along(0) == 4
    assert polytope_contains(box, [Fraction(1, 2)])
    assert not polytope_contains(box, [5])


def test_lattice_points_are_scanned_once_per_polytope(monkeypatch, capsys):
    # A LatticePolytope is immutable, so it keeps its scan; each call returns
    # a new list, equal to the uncached scan, that the caller may change.
    rng = random.Random(2702)
    boxes = [LatticePolytope.interval(lo, lo + rng.randint(0, 6)) for lo in range(-4, 5)]
    while len(boxes) < 60:
        vertices = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        boxes.append(LatticePolytope(vertices))
    for box in boxes:
        want = convex._lattice_points(box.vertices)
        got = box.lattice_points()
        assert got == want
        got.append((99,) * box.m)
        got.reverse()
        assert box.lattice_points() == want
    # Points, segments, triangles and larger polygons.
    assert {min(len(box.vertices), 4) for box in boxes if box.m == 2} == {1, 2, 3, 4}
    # One `tcode info` on the demo surface scans its box once, where it
    # scanned it again for k, the bounds and every sub-box search. The other
    # scans are the two slice domains that `sharp` sums over, which
    # `LatticePolytope` does not own: it passes its vertices alone.
    calls = []
    scan = convex._lattice_points
    monkeypatch.setattr(convex, "_lattice_points", lambda *args: calls.append(args) or scan(*args))
    assert main(["info", str(Path(__file__).resolve().parent.parent / "demos" / "surface.tcode")]) == EXIT_OK
    assert "d_upper = 33" in capsys.readouterr().out.splitlines()
    assert [args for args in calls if len(args) == 1] == [(((0,), (4,)),)]
    assert len(calls) == 3


def test_hexagon_polytope():
    hexa = hexagon()
    assert hexa.volume() == 3
    assert len(hexa.lattice_points()) == 7
    assert (0, 0) in hexa.lattice_points()
    assert hexa.width_along(0) == 2 and hexa.width_along(1) == 2
    assert hexa.is_full_dimensional()
    assert polytope_contains(hexa, (0, 0)) and not polytope_contains(hexa, (1, 1))
    assert hexa.scale(2).volume() == 12
    assert hexa.minkowski(hexa) == hexa.scale(2)


def test_envelope_1d():
    f = ConcavePL.from_graph_points([(0, 0), (1, 1), (2, 2), (4, 2)])
    assert f.vertices == (((Fraction(0),), Fraction(0)), ((Fraction(2),), Fraction(2)), ((Fraction(4),), Fraction(2)))
    assert f.had_collinear
    g = ConcavePL.from_graph_points(S2_GRAPH)
    assert not g.had_collinear
    assert g.evaluate(1) == 1
    assert g.evaluate(Fraction(7, 2)) == 0
    assert g.try_evaluate(5) is None
    assert g.try_evaluate(4) is not None and g.try_evaluate(-1) is None
    # Dominated grid points disappear under the envelope.
    h = ConcavePL.from_graph_points([(0, 0), (1, -5), (2, 0)])
    assert h.vertices == (((Fraction(0),), Fraction(0)), ((Fraction(2),), Fraction(0)))


def test_envelope_1d_flag_ignores_points_a_later_point_lifts():
    # The scan drops (1, 0) and (3, -4/3) as collinear with (-1, 4/3), but
    # (5, 7/3) then lifts the envelope 5/3 and 10/3 above them.
    graph = [(-1, Fraction(4, 3)), (1, 0), (3, Fraction(-4, 3)), (5, Fraction(7, 3))]
    f = ConcavePL.from_graph_points(graph)
    assert [p for p, _ in f.vertices] == [(-1,), (5,)]
    assert f.evaluate(1) == Fraction(5, 3) and f.evaluate(3) == 2
    assert not f.had_collinear
    # The same graph along the line y = 2x + 1: a segment domain in the plane
    # is enveloped by the same scan, and its flag follows the same rule.
    f = ConcavePL.from_graph_points([((x, 2 * x + 1), z) for x, z in graph])
    assert [p for p, _ in f.vertices] == [(-1, -1), (5, 11)] and f.facets() == ()
    assert f.evaluate((1, 3)) == Fraction(5, 3) and f.evaluate((3, 7)) == 2
    assert not f.had_collinear


def flag_by_definition(points, f):
    """Whether some input point that is not a vertex of f lies on f."""
    corners = {p for p, _ in f.vertices}
    return any(p not in corners and f.evaluate(p) == z for p, z in graph_reps(points).items())


def popped_collinear(points):
    """The former flag: the upper-hull scan popped a collinear point."""
    chain, popped = [], False
    for (x,), z in sorted(graph_reps(points).items()):
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], (x, z)) >= 0:
            popped |= _cross(chain[-2], chain[-1], (x, z)) == 0
            chain.pop()
        chain.append((x, z))
    return popped


def test_envelope_1d_flag_matches_its_definition():
    rng = random.Random(1212)

    def graph():
        # Runs of points on one line, then points above or below it.
        a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        xs = sorted(rng.sample(range(-6, 7), rng.randint(1, 7)))
        return [((x,), a * x + b if rng.random() < 0.6 else a * x + b + Fraction(rng.randint(-3, 3), 3)) for x in xs]

    fixed = 0
    for _ in range(1500):
        pts = graph()
        f = ConcavePL.from_graph_points(pts)
        assert f.had_collinear == flag_by_definition(pts, f), pts
        fixed += popped_collinear(pts) and not f.had_collinear
    pool = [ConcavePL.from_graph_points(graph()) for _ in range(40)]
    for _ in range(1500):
        f, g = rng.choice(pool), rng.choice(pool)
        sums = [((p[0] + q[0],), zf + zg) for p, zf in f.vertices for q, zg in g.vertices]
        h = sup_convolution(f, g)
        assert h.had_collinear == flag_by_definition(sums, h), (f, g)
        fixed += popped_collinear(sums) and not h.had_collinear
    # Inputs where the former flag was set though no point stays on the envelope.
    assert fixed >= 20


def test_envelope_2d():
    f = ConcavePL.from_graph_points([(v, min(0, v[1])) for v in HEXAGON_VERTICES] + [((0, 0), 0)])
    assert f.evaluate((0, 0)) == 0
    assert f.evaluate((Fraction(1, 2), Fraction(-1, 2))) == Fraction(-1, 2)
    assert f.evaluate((Fraction(1, 2), Fraction(1, 2))) == 0
    assert set(f.domain_vertices()) == {make_point(v) for v in hexagon().vertices}
    assert f.try_evaluate((2, 2)) is None
    assert sorted(f.domain_lattice_points()) == sorted(hexagon().lattice_points())
    grid = [(x, y) for x in range(3) for y in range(3)]
    plane = ConcavePL.from_graph_points([((x, y), x + 2 * y + 1) for x, y in grid])
    assert [p for p, _ in plane.vertices] == [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert plane.had_collinear
    # A roof folded along x = 1 over the box [0, 2]^2.
    fold = [((x, y), min(x, 2 - x)) for x in (0, 1, 2) for y in (0, 2)]
    roof = ConcavePL.from_graph_points(fold)
    assert len(roof.vertices) == 6 and len(roof.facets()) == 2
    assert not roof.had_collinear
    ridge = ConcavePL.from_graph_points(fold + [((1, 1), 1)])
    assert ridge.vertices == roof.vertices and ridge.facets() == roof.facets()
    assert ridge.had_collinear


def _interp_on_segment(q, r, zq, zr, p):
    """The value at p interpolated between (q, zq) and (r, zr), None when p
    is off the segment from q to r (the former library helper)."""
    d = tuple(rc - qc for rc, qc in zip(r, q))
    axis = next((i for i, c in enumerate(d) if c != 0), None)
    if axis is None:
        return None
    lam = (p[axis] - q[axis]) / d[axis]
    if not 0 <= lam <= 1:
        return None
    if any(q[i] + lam * d[i] != p[i] for i in range(len(p))):
        return None
    return (1 - lam) * zq + lam * zr


def reference_envelope_2d(points):
    """The former envelope: facets by plane search, then each tight point
    classified against every pair and triple of the other tight points.
    Returns (sorted vertices, had_collinear, facets)."""
    reps = {}
    for pos, val in points:
        p, z = make_point(pos), Fraction(val)
        if p not in reps or reps[p] < z:
            reps[p] = z
    items = list(reps.items())
    n = len(items)
    planes = set()
    for i in range(n):
        pi, zi = items[i]
        for j in range(i + 1, n):
            pj, zj = items[j]
            for k in range(j + 1, n):
                pk, zk = items[k]
                d = _cross(pi, pj, pk)
                if d == 0:
                    continue
                g1 = ((zj - zi) * (pk[1] - pi[1]) - (zk - zi) * (pj[1] - pi[1])) / d
                g2 = ((zk - zi) * (pj[0] - pi[0]) - (zj - zi) * (pk[0] - pi[0])) / d
                c = zi - g1 * pi[0] - g2 * pi[1]
                if all(g1 * p[0] + g2 * p[1] + c >= z for p, z in items):
                    planes.add((g1, g2, c))
    facets = []
    for g1, g2, c in sorted(planes):
        cell = convex_hull_2d([p for p, z in items if g1 * p[0] + g2 * p[1] + c == z])
        if len(cell) >= 3:
            facets.append(((g1, g2), c, tuple(cell)))
    on_env = [(p, z) for p, z in items if min(g[0] * p[0] + g[1] * p[1] + c for g, c, _ in facets) == z]
    vertices = []
    collinear = False
    for p, z in on_env:
        others = [(q, w) for q, w in on_env if q != p]
        best = None
        for a in range(len(others)):
            qa, za = others[a]
            for b in range(a + 1, len(others)):
                qb, zb = others[b]
                val = _interp_on_segment(qa, qb, za, zb, p)
                if val is not None and (best is None or val > best):
                    best = val
                for cdx in range(b + 1, len(others)):
                    qc, zc = others[cdx]
                    denom = _cross(qa, qb, qc)
                    if denom == 0:
                        continue
                    la = _cross(p, qb, qc) / denom
                    lb = _cross(qa, p, qc) / denom
                    lc = _cross(qa, qb, p) / denom
                    if la >= 0 and lb >= 0 and lc >= 0:
                        val = la * za + lb * zb + lc * zc
                        if best is None or val > best:
                            best = val
        if best is None or best < z:
            vertices.append((p, z))
        else:
            collinear = True
    return tuple(sorted(vertices)), collinear, tuple(facets)


def random_graph_sets(rng):
    """Seeded 2D graph-point sets of at most 12 points, three kinds each round."""
    while True:
        # Scattered positions with rational values.
        yield [
            ((rng.randint(-3, 3), rng.randint(-3, 3)), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(3, 12))
        ]
        # Mins of 1-3 affine pieces sampled on a lattice grid.
        w = rng.randint(2, 4)
        h = rng.randint(2, 12 // w)
        pieces = [(rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        yield [((x, y), min(a * x + b * y + c for a, b, c in pieces)) for x in range(w) for y in range(h)]
        # Repeated positions, and many points on one plane (duplicate planes).
        a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-3, 3)
        pts = [((x, y), a * x + b * y + c) for x, y in rng.sample([(x, y) for x in range(4) for y in range(4)], rng.randint(4, 8))]
        pts += [(p, z - rng.randint(0, 2)) for p, z in rng.sample(pts, rng.randint(1, 4))]
        yield pts


def test_envelope_2d_matches_reference_classifier():
    rng = random.Random(404)
    checked = collinear = 0
    for pts in random_graph_sets(rng):
        if len(convex_hull_2d([make_point(p) for p, _ in pts])) < 3:
            continue
        f = ConcavePL.from_graph_points(pts)
        vertices, flag, facets = reference_envelope_2d(pts)
        assert (f.vertices, f.had_collinear, f.facets()) == (vertices, flag, facets), pts
        checked += 1
        collinear += flag
        if checked == 120:
            break
    assert 20 <= collinear <= 100


def reference_plane_search_envelope(reps: dict[Point, Fraction]):
    """The former 2D envelope: every triple of points spans a candidate
    plane, kept when no point lies above it (O(n^4)). Returns (sorted
    vertices, had_collinear, facets)."""
    positions = list(reps)
    hull = convex_hull_2d(positions)
    if len(hull) == 1:
        return ((hull[0], reps[hull[0]]),), False, ()
    if len(hull) == 2:
        q0, q1 = hull
        d = (q1[0] - q0[0], q1[1] - q0[1])
        dd = d[0] * d[0] + d[1] * d[1]
        params = {}
        for p, z in reps.items():
            s = ((p[0] - q0[0]) * d[0] + (p[1] - q0[1]) * d[1]) / dd
            sp = (Fraction(s),)
            if sp not in params or params[sp] < z:
                params[sp] = z
        inner = ConcavePL.from_graph_points(params.items())
        verts = [((q0[0] + s[0] * d[0], q0[1] + s[0] * d[1]), z) for s, z in inner.vertices]
        return tuple(sorted(verts)), inner.had_collinear, ()
    items = list(reps.items())
    n = len(items)
    planes: set[tuple[Fraction, Fraction, Fraction]] = set()
    for i in range(n):
        pi, zi = items[i]
        for j in range(i + 1, n):
            pj, zj = items[j]
            for k in range(j + 1, n):
                pk, zk = items[k]
                d = _cross(pi, pj, pk)
                if d == 0:
                    continue
                g1 = ((zj - zi) * (pk[1] - pi[1]) - (zk - zi) * (pj[1] - pi[1])) / d
                g2 = ((zk - zi) * (pj[0] - pi[0]) - (zj - zi) * (pk[0] - pi[0])) / d
                c = zi - g1 * pi[0] - g2 * pi[1]
                if all(g1 * p[0] + g2 * p[1] + c >= z for p, z in items):
                    planes.add((g1, g2, c))
    # The envelope vertices are the corners of the facet cells (the hull
    # drops points inside a cell edge); any other point tight on a facet
    # lies on the envelope without being a vertex.
    facets: list[Facet] = []
    on_env: set[Point] = set()
    corners: set[Point] = set()
    for g1, g2, c in sorted(planes):
        tight = [p for p, z in items if g1 * p[0] + g2 * p[1] + c == z]
        cell = convex_hull_2d(tight)
        if len(cell) >= 3:
            facets.append(((g1, g2), c, tuple(cell)))
            on_env.update(tight)
            corners.update(cell)
    assert facets, "full-dimensional hull must have at least one upper facet"
    return tuple(sorted((p, reps[p]) for p in corners)), on_env != corners, tuple(facets)


def graph_reps(points):
    reps = {}
    for pos, val in points:
        p, z = make_point(pos), Fraction(val)
        if p not in reps or reps[p] < z:
            reps[p] = z
    return reps


def wrap_oracle_sets(rng):
    """The 120 sets of the classifier test, then larger and harder ones."""
    old = random_graph_sets(random.Random(404))
    full = (pts for pts in old if len(convex_hull_2d([make_point(p) for p, _ in pts])) >= 3)
    for _ in range(120):
        yield next(full)
    for _ in range(60):
        # Scattered positions with rational values, more than the old sets.
        yield [
            ((rng.randint(-4, 4), rng.randint(-4, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 3)))
            for _ in range(rng.randint(13, 24))
        ]
    for _ in range(30):
        # Mins of 1-4 affine pieces on grids up to 6x6.
        w, h = rng.randint(2, 6), rng.randint(2, 6)
        pieces = [(rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
        yield [((x, y), min(a * x + b * y + c for a, b, c in pieces)) for x in range(w) for y in range(h)]
    for _ in range(20):
        # Roofs on [0, w] x [0, h]: the first hull edge, along y = 0, carries
        # collinear points raised above its chord, and some inner points dip.
        w, h = rng.randint(2, 5), rng.randint(1, 3)
        s1, s2, t = rng.randint(1, 3), rng.randint(1, 3), rng.randint(-2, 2)
        yield [
            ((x, y), min(s1 * x, s2 * (w - x)) + t * y - (rng.randint(0, 1) if 0 < y < h else 0))
            for x in range(w + 1)
            for y in range(h + 1)
        ]
    for _ in range(20):
        # Segment domains: positions on one line, in any order.
        d = (rng.randint(-2, 2), rng.randint(1, 2))
        ks = rng.sample(range(-3, 5), rng.randint(2, 6))
        yield [((1 + k * d[0], k * d[1]), Fraction(rng.randint(-6, 6), rng.randint(1, 2))) for k in ks]


def test_envelope_2d_matches_plane_search():
    rng = random.Random(909)
    segments = raised = 0
    for pts in wrap_oracle_sets(rng):
        reps = graph_reps(pts)
        f = ConcavePL.from_graph_points(pts)
        assert (f.vertices, f.had_collinear, f.facets()) == reference_plane_search_envelope(reps), pts
        hull = convex_hull_2d(reps)
        if len(hull) == 2:
            segments += 1
        else:
            # An envelope vertex inside the first hull edge: the wrap cannot
            # start from that edge's chord.
            raised += sum(_cross(hull[0], hull[1], p) == 0 for p, _ in f.vertices) > 2
    assert segments == 20
    assert raised >= 20


def test_affine_data():
    half = ConcavePL.from_graph_points([(0, 0), (2, 1)])
    assert half.affine_data() == ((Fraction(1, 2),), Fraction(0))
    assert ConcavePL.from_graph_points(S2_GRAPH).affine_data() is None
    plane = ConcavePL.from_graph_points([((0, 0), 1), ((1, 0), 2), ((0, 1), 1), ((1, 1), 2)])
    assert plane.affine_data() == ((Fraction(1), Fraction(0)), Fraction(1))
    point = ConcavePL.from_graph_points([((3, 4), 5)])
    assert point.affine_data() == ((Fraction(0), Fraction(0)), Fraction(5))


def test_integrals():
    assert ConcavePL.from_graph_points(S1_GRAPH).integral() == 4
    assert ConcavePL.from_graph_points(S2_GRAPH).integral() == Fraction(7, 2)
    hexa = HEXAGON_VERTICES
    lower = ConcavePL.from_graph_points([(v, min(0, v[1])) for v in hexa] + [((0, 0), 0)])
    assert lower.integral() == Fraction(-2, 3)
    upper = ConcavePL.from_graph_points([(v, min(2, 2 - v[0] - v[1])) for v in hexa] + [((0, 0), 2)])
    assert upper.integral() == Fraction(16, 3)


def test_floor_and_ceiling_sums():
    s1 = ConcavePL.from_graph_points(S1_GRAPH)
    s2 = ConcavePL.from_graph_points(S2_GRAPH)
    assert floor_sum_over_lattice(s1) == 4
    assert signed_ceiling_interior_sum(s1) == 4
    assert floor_sum_over_lattice(s2) == 3
    assert signed_ceiling_interior_sum(s2) == 4


def test_duality_round_trip_frozen():
    s = SupportFunctionSlice([(0, 0), (2, 2), (3, 1), (4, -1)])
    assert s.value(0) == -2
    assert s.value(1) == 0
    assert s.value(-1) == -4
    f = s.dual()
    assert SupportFunctionSlice(f.vertices) == s
    assert SupportFunctionSlice(f.vertices).dual() == f


def test_subdivision_vertices():
    # Each cell z = <g, u> + c of the dual gives the subdivision vertex v = g,
    # where the slice takes the value -c.
    s = SupportFunctionSlice(S2_GRAPH)
    got = sorted((g, -c) for g, c in s.dual().cells())
    assert got == [((Fraction(-2),), Fraction(-7)), ((Fraction(-1),), Fraction(-4)), ((Fraction(1),), Fraction(0))]
    for v, z in got:
        assert s.value(v) == z


def test_sup_convolution():
    f = ConcavePL.from_graph_points([(0, 0), (2, 2)])
    g = ConcavePL.from_graph_points([(0, 0), (1, 0)])
    h = sup_convolution(f, g)
    assert h.domain_vertices() == [(Fraction(0),), (Fraction(3),)]
    assert h.evaluate(3) == 2
    assert h.evaluate(1) == 1
    two = sup_convolution(f, f)
    assert two == f.scale(2)


def test_toric_polytope():
    s1 = ConcavePL.from_graph_points(S1_GRAPH)
    s2 = ConcavePL.from_graph_points(S2_GRAPH)
    hull = toric_polytope(s1, s2)
    assert hull == LatticePolytope([(0, 0), (2, -2), (3, -1), (4, 1), (4, 2)])
    half = ConcavePL.from_graph_points([(0, 0), (2, 1)])
    whole = ConcavePL.from_graph_points([(0, 0), (2, 2)])
    assert toric_polytope(half, whole) == LatticePolytope([(0, 0), (2, 1), (2, -2)])
    bad = ConcavePL.from_graph_points([(0, 0), (1, Fraction(1, 2))])
    with pytest.raises(ValueError):
        toric_polytope(bad, whole)


def test_integral_slice_identity():
    # For slices taking integer values at every lattice point the exact
    # integral, the floor sum, and the signed interior ceiling sum satisfy
    # 2 * integral = floor_sum + signed_ceiling_sum (a trapezoid identity).
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        lo = rng.randint(-3, 2)
        hi = lo + rng.randint(1, 6)
        pts = [(u, rng.randint(-4, 4)) for u in range(lo, hi + 1)]
        f = ConcavePL.from_graph_points(pts)
        if any(f.evaluate(u).denominator != 1 for (u,) in f.domain_lattice_points()):
            continue
        checked += 1
        lhs = 2 * f.integral()
        rhs = floor_sum_over_lattice(f) + signed_ceiling_interior_sum(f)
        assert lhs == rhs, (pts, lhs, rhs)
    assert checked >= 100


def test_points_of_the_wrong_dimension_are_refused():
    line = ConcavePL.from_graph_points([(0, 0), (2, 1)])
    plane = ConcavePL.from_graph_points([((0, 0), 0), ((1, 0), 0), ((0, 1), 0)])
    for f, u in [(line, (1, 5)), (line, (1, 2, 3)), (plane, (0, 0, 7)), (plane, 0), (plane, (0,))]:
        for query in (f.try_evaluate, f.evaluate):
            with pytest.raises(ValueError):
                query(u)


# Oracles: the former per-query code, which read only the vertices, rebuilt
# the domain hull on every call, kept separate m = 1 arms and rebuilt the 2D
# cells of a shifted or scaled function from a fresh envelope.


def reference_domain(f):
    positions = [p for p, _ in f.vertices]
    if f.m == 1:
        return [min(positions), max(positions)] if len(positions) > 1 else positions
    return convex_hull_2d(positions)


def reference_domain_dim(f, dv):
    if len(dv) == 1:
        return 0
    if f.m == 1 or len(dv) == 2:
        return 1
    return 2


def reference_facets(f):
    """The former lazy `facets()`: segments for m = 1, and for a 2D function
    a fresh envelope of its vertices (which is what a shifted or scaled
    function used to rebuild)."""
    if f.m == 1:
        out = []
        for (qa, za), (qb, zb) in zip(f.vertices, f.vertices[1:]):
            g = (zb - za) / (qb[0] - qa[0])
            out.append(((g,), za - g * qa[0], (qa, qb)))
        return tuple(out)
    if len(reference_domain(f)) < 3:
        return ()
    return ConcavePL.from_graph_points(f.vertices).facets()


def reference_contains(f, dv, p):
    if f.m == 1:
        return dv[0][0] <= p[0] <= dv[-1][0]
    return hull_contains(dv, p)


def reference_try_evaluate(f, dv, facets, u):
    p = make_point(u)
    if not reference_contains(f, dv, p):
        return None
    verts = f.vertices
    if f.m == 1:
        if len(verts) == 1:
            return verts[0][1]
        for (qa, za), (qb, zb) in zip(verts, verts[1:]):
            if qa[0] <= p[0] <= qb[0]:
                return za + (zb - za) * (p[0] - qa[0]) / (qb[0] - qa[0])
        raise AssertionError("unreachable: point inside domain but no segment")
    if len(dv) == 1:
        return verts[0][1]
    if len(dv) == 2:
        for (qa, za), (qb, zb) in zip(verts, verts[1:]):
            val = _interp_on_segment(qa, qb, za, zb, p)
            if val is not None:
                return val
        raise AssertionError("unreachable: point inside segment domain")
    return min(g[0] * p[0] + g[1] * p[1] + c for g, c, _ in facets)


def reference_affine_data(f, dv, facets):
    dim = reference_domain_dim(f, dv)
    if dim == 0:
        return (Fraction(0),) * f.m, f.vertices[0][1]
    if f.m == 1:
        if len(f.vertices) != 2:
            return None
        (g,), c, _ = facets[0]
        return (g,), c
    if dim == 1:
        if len(f.vertices) != 2:
            return None
        (q0, z0), (q1, z1) = f.vertices
        d = (q1[0] - q0[0], q1[1] - q0[1])
        dd = d[0] * d[0] + d[1] * d[1]
        s = (z1 - z0) / dd
        g = (s * d[0], s * d[1])
        return g, z0 - g[0] * q0[0] - g[1] * q0[1]
    if len(facets) != 1:
        return None
    g, c, _ = facets[0]
    return g, c


def reference_integral(f, dv, facets):
    if f.m == 1:
        total = Fraction(0)
        for (qa, za), (qb, zb) in zip(f.vertices, f.vertices[1:]):
            total += (qb[0] - qa[0]) * (za + zb) / 2
        return total
    if len(dv) < 3:
        return Fraction(0)
    total = Fraction(0)
    for g, c, cell in facets:
        base = cell[0]
        for a, b in zip(cell[1:], cell[2:]):
            area2 = _cross(base, a, b)
            mean = (g[0] * (base[0] + a[0] + b[0]) + g[1] * (base[1] + a[1] + b[1])) / 3 + c
            total += area2 * mean / 2
    return total


def random_pl_graphs(rng):
    """Seeded graph-point sets in both dimensions, degenerate ones included."""
    def value():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    full_2d = random_graph_sets(rng)
    while True:
        # Intervals, with values on one line now and then (collinear input).
        xs = rng.sample(range(-4, 5), rng.randint(2, 6))
        a, b = value(), value()
        yield [(x, a * x + b if rng.random() < 0.3 else value()) for x in xs]
        # A point domain in either dimension, given more than once.
        x = rng.randint(-3, 3)
        yield [(x, value()) for _ in range(rng.randint(1, 3))]
        pos = (rng.randint(-3, 3), rng.randint(-3, 3))
        yield [(pos, value()) for _ in range(rng.randint(1, 3))]
        # A segment in the plane: lattice points along a primitive direction.
        d = rng.choice([(1, 0), (0, 1), (1, 1), (1, -2), (2, 1)])
        ts = rng.sample(range(-2, 3), rng.randint(2, 5))
        yield [((pos[0] + t * d[0], pos[1] + t * d[1]), a * t + b if rng.random() < 0.3 else value()) for t in ts]
        yield next(full_2d)


def reference_lattice_points(f, dv):
    if f.m == 1:
        return [(u,) for u in range(ceil(dv[0][0]), floor(dv[-1][0]) + 1)]
    xs = [p[0] for p in dv]
    ys = [p[1] for p in dv]
    return [
        (x, y)
        for x in range(ceil(min(xs)), floor(max(xs)) + 1)
        for y in range(ceil(min(ys)), floor(max(ys)) + 1)
        if hull_contains(dv, make_point((x, y)))
    ]


def rational_probes(rng, f, dv):
    """Rational points in the domain's bounding box widened by one, and on
    lines through two vertices (which reach into a segment domain)."""
    lo = [min(p[i] for p in dv) for i in range(f.m)]
    hi = [max(p[i] for p in dv) for i in range(f.m)]
    pts = []
    for _ in range(6):
        den = rng.randint(1, 4)
        pts.append(tuple(Fraction(rng.randint(floor(den * (a - 1)), ceil(den * (b + 1))), den) for a, b in zip(lo, hi)))
        (q, _), (r, _) = rng.choice(f.vertices), rng.choice(f.vertices)
        t = Fraction(rng.randint(-4, 12), 8)
        pts.append(tuple(qc + t * (rc - qc) for qc, rc in zip(q, r)))
    return pts


def test_concave_pl_matches_reference_queries():
    rng = random.Random(707)
    graphs = random_pl_graphs(rng)
    kinds = {}
    inside = outside = 0
    for _ in range(500):
        graph = next(graphs)
        base = ConcavePL.from_graph_points(graph)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        shifted = ConcavePL.from_graph_points([(p, z + c) for p, z in graph])
        scaled_shifted = ConcavePL.from_graph_points([(p, z + c) for p, z in base.scale(2).vertices])
        for f in (base, shifted, base.scale(2), scaled_shifted):
            # For f = base.scale(2) this asserts f.facets() ==
            # ConcavePL.from_graph_points(f.vertices).facets().
            dv, facets = reference_domain(f), reference_facets(f)
            assert f.facets() == facets, f
            assert f.domain_vertices() == dv
            assert f.affine_data() == reference_affine_data(f, dv, facets), f
            assert f.integral() == reference_integral(f, dv, facets), f
            lattice = reference_lattice_points(f, dv)
            assert f.domain_lattice_points() == lattice
            for p in lattice + rational_probes(rng, f, dv):
                want = reference_try_evaluate(f, dv, facets, p)
                assert f.try_evaluate(p) == want, (f, p)
                inside += want is not None
                outside += want is None
        key = (base.m, reference_domain_dim(base, base.domain_vertices()), base.had_collinear)
        kinds[key] = kinds.get(key, 0) + 1
    # Every shape of domain, with and without collinear input where it can occur.
    assert set(kinds) >= {(1, 0, False), (1, 1, False), (1, 1, True), (2, 0, False), (2, 1, False), (2, 1, True), (2, 2, False), (2, 2, True)}
    assert inside > 10_000 and outside > 5_000


# Oracle: the pairwise-sum envelope in `Fraction`s, built through
# `from_graph_points`. The library sums the same pairs in integers over a
# common denominator and must give the same vertices, flag and cells.


def reference_sup_convolution(f: ConcavePL, g: ConcavePL) -> ConcavePL:
    """Sup-convolution: u -> sup {f(u') + g(u'') : u' + u'' = u}.

    The hypograph of the result is the Minkowski sum of the hypographs, so the
    envelope of pairwise vertex sums computes it exactly.
    """
    if f.m != g.m:
        raise ValueError("mixed dimensions in sup-convolution")
    sums = [
        (tuple(a + b for a, b in zip(p, q)), zf + zg)
        for p, zf in f.vertices
        for q, zg in g.vertices
    ]
    return ConcavePL.from_graph_points(sums)


def assert_sup_matches_reference(f, g):
    got, want = sup_convolution(f, g), reference_sup_convolution(f, g)
    assert (got.vertices, got.had_collinear, got.facets()) == (want.vertices, want.had_collinear, want.facets()), (f, g)
    return got


def crossed(f, g, h):
    """Whether h has a cell whose gradient is a cell gradient of neither summand."""
    known = {grad for grad, _ in f.cells() + g.cells()}
    return any(grad not in known for grad, _ in h.cells())


def test_sup_convolution_matches_reference_on_random_2d_pairs():
    rng = random.Random(1010)
    sets = random_graph_sets(rng)
    pool = []
    while len(pool) < 45:
        # Scattered rational values, mins of affine pieces, and sets with
        # collinear and repeated points, in turn.
        pts = next(sets)
        if len(convex_hull_2d([make_point(p) for p, _ in pts])) >= 3:
            pool.append(ConcavePL.from_graph_points(pts))
    assert sum(f.had_collinear for f in pool) >= 5
    flags = crossings = 0
    for _ in range(150):
        f, g = rng.choice(pool), rng.choice(pool)
        h = assert_sup_matches_reference(f, g)
        flags += h.had_collinear
        crossings += crossed(f, g, h)
    assert 10 <= flags <= 140
    assert crossings >= 50


def test_sup_convolution_with_point_and_segment_domains():
    rng = random.Random(1011)
    graphs = random_pl_graphs(rng)
    by_shape = {}
    while min(len(by_shape.get(k, [])) for k in ((2, 0), (2, 1), (2, 2))) < 12:
        f = ConcavePL.from_graph_points(next(graphs))
        if f.m == 2:
            by_shape.setdefault((2, reference_domain_dim(f, f.domain_vertices())), []).append(f)
    points, segments, polygons = by_shape[(2, 0)], by_shape[(2, 1)], by_shape[(2, 2)]
    for _ in range(40):
        # One-vertex summands on either side, and two point domains.
        pt, f = rng.choice(points), rng.choice(polygons)
        h = assert_sup_matches_reference(f, pt)
        assert h.facets() == assert_sup_matches_reference(pt, f).facets()
        # A translate keeps the gradients of f.
        assert [grad for grad, _ in h.cells()] == [grad for grad, _ in f.cells()]
        assert_sup_matches_reference(pt, rng.choice(points))
        # Segments in the plane against every kind of summand.
        seg = rng.choice(segments)
        for other in (rng.choice(points), rng.choice(segments), rng.choice(polygons)):
            assert_sup_matches_reference(seg, other)
            assert_sup_matches_reference(other, seg)


def test_sup_convolution_of_a_function_with_itself_is_its_double():
    rng = random.Random(1012)
    sets = random_graph_sets(rng)
    doubled = 0
    while doubled < 40:
        pts = next(sets)
        if len(convex_hull_2d([make_point(p) for p, _ in pts])) < 3:
            continue
        f = ConcavePL.from_graph_points(pts)
        two, scaled = assert_sup_matches_reference(f, f), f.scale(2)
        assert (two.vertices, two.facets()) == (scaled.vertices, scaled.facets())
        # A cell edge of f doubled holds the sum of its two ends at its midpoint.
        assert two.had_collinear
        doubled += 1


def test_sup_convolution_matches_reference_on_random_1d_pairs():
    rng = random.Random(1013)
    graphs = random_pl_graphs(rng)
    pool = []
    while len(pool) < 60:
        f = ConcavePL.from_graph_points(next(graphs))
        if f.m == 1:
            pool.append(f)
    assert {len(f.domain_vertices()) for f in pool} == {1, 2}
    for _ in range(400):
        assert_sup_matches_reference(rng.choice(pool), rng.choice(pool))
    with pytest.raises(ValueError):
        sup_convolution(pool[0], ConcavePL.from_graph_points([((0, 0), 0)]))


POLYGON_BOXES = {
    "triangle": [(0, 0), (2, 0), (0, 2)],
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "hexagon": HEXAGON_VERTICES,
}


def folded_polygon_slices(rng, shape, count):
    """Slices in the benchmark's style: the minimum of two affine pieces with
    small gradients, sampled at the box vertices."""
    verts = POLYGON_BOXES[shape]
    out = []
    while len(out) < count:
        pieces = [((rng.randint(-1, 1), rng.randint(-1, 1)), rng.randint(0, 2)) for _ in range(2)]
        f = ConcavePL.from_graph_points([(v, min(g[0] * v[0] + g[1] * v[1] + c for g, c in pieces)) for v in verts])
        if shape == "triangle" or len(f.facets()) == 2:
            out.append(f)
    return out


def test_sup_convolution_matches_reference_on_polygon_slices():
    rng = random.Random(1014)
    summands = [f for shape in POLYGON_BOXES for f in folded_polygon_slices(rng, shape, 5)]
    # The fiber of a point and the zero slice on a point box.
    summands += [ConcavePL.from_graph_points([((0, 0), 1)]), ConcavePL.from_graph_points([((0, 0), 0)])]
    sums = [assert_sup_matches_reference(f, g) for f in summands for g in summands]
    # Sums of sums, as polarization builds them.
    for _ in range(60):
        assert_sup_matches_reference(rng.choice(sums), rng.choice(summands))


def test_divisorial_sums_match_reference_on_the_built_ins():
    E7 = standard_elliptic()
    surface, three = surface_example(E7), threefold_example()
    Q1, _ = marked_point_pair(E7)
    fiber_1d = point_divisor_dual(E7, Q1)
    fiber_2d = point_divisor_dual(three.curve, next(iter(three.slices)), m=2)
    three_twice = three.add(three)
    pairs = [(surface, surface), (surface, fiber_1d), (fiber_1d, surface), (three, three), (three, fiber_2d), (fiber_2d, three), (three_twice, three), (three_twice, fiber_2d)]
    for a, b in pairs:
        got = a.add(b)
        support = set(a.slices) | set(b.slices)
        want = {P: reference_sup_convolution(a.slice_at(P), b.slice_at(P)) for P in support}
        assert got == DivisorialPolytope(a.curve, a.box.minkowski(b.box), want)
        for P, w in want.items():
            h = got.slices[P]
            assert (h.had_collinear, h.facets()) == (w.had_collinear, w.facets())
