"""The integer-coordinate convex core on inputs that stress it.

Mixed denominators (1/3 with 1/7 and 1/21), numerators near 10^12 and
negative coordinates, on point, segment, collinear and polygon inputs in
both dimensions. The oracles compute in `Fraction`: the former hull and
containment below, and the plane search, reference queries and
pairwise-sum sup-convolution of `tests/test_convex.py`.
"""

import random
from fractions import Fraction

from tcodes import ConcavePL
from tcodes.convex import make_point

from test_convex import (
    assert_sup_matches_reference,
    convex_hull_2d,
    crossed,
    flag_by_definition,
    graph_reps,
    hull_contains,
    reference_domain,
    reference_facets,
    reference_integral,
    reference_plane_search_envelope,
    reference_try_evaluate,
)


def orientation(o, a, b):
    """The oracles' own cross product, so that a fault in the library's
    `_cross` cannot reach them."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def fraction_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    return hull


def fraction_hull_contains(hull, p):
    if len(hull) == 1:
        return hull[0] == p
    if len(hull) == 2:
        a, b = hull
        if orientation(a, b, p) != 0:
            return False
        return all(min(a[i], b[i]) <= p[i] <= max(a[i], b[i]) for i in range(2))
    return all(orientation(hull[i], hull[(i + 1) % len(hull)], p) >= 0 for i in range(len(hull)))


def assert_envelope_1d(f, points):
    """f is the upper concave envelope of points: its vertices are input
    points, no input point lies above it, its slopes fall strictly, and its
    flag follows the class contract."""
    reps = graph_reps(points)
    assert all(reps[p] == z for p, z in f.vertices), points
    assert all(f.evaluate(p) >= z for p, z in reps.items()), points
    slopes = [g for (g,), _ in f.cells()]
    assert all(a > b for a, b in zip(slopes, slopes[1:])), points
    assert f.had_collinear == flag_by_definition(points, f), points


def assert_queries(f, rng):
    """Domain, cells, integral and values of f against the reference queries;
    returns the domain."""
    dv, facets = reference_domain(f), reference_facets(f)
    assert f.domain_vertices() == dv and f.facets() == facets, f
    assert f.integral() == reference_integral(f, dv, facets), f
    for p in probes(rng, f, dv):
        assert f.try_evaluate(p) == reference_try_evaluate(f, dv, facets, p), (f, p)
    return dv


BIG = 10**12


def coordinate(rng, spread=4):
    """Small, huge and negative rationals over denominators 1, 3 and 7."""
    den = rng.choice([1, 3, 7])
    offset = rng.choice([0, 0, BIG, -BIG])
    return Fraction(offset + rng.randint(-spread * den, spread * den), den)


def graph_sets(rng):
    """Seeded graph-point sets of every shape in both dimensions."""
    while True:
        ox, oy, oz = (rng.choice([0, BIG, -BIG]) for _ in range(3))
        den = rng.choice([1, 3, 7, 21])
        # Scattered plane points on a lattice of step 1/den near (ox, oy).
        yield [
            ((Fraction(ox * den + rng.randint(-3, 3), den), Fraction(oy * den + rng.randint(-3, 3), den)), coordinate(rng) + oz)
            for _ in range(rng.randint(1, 10))
        ]
        # Mins of affine pieces on a grid, shifted and scaled.
        pieces = [(rng.randint(-2, 2), Fraction(rng.randint(-2, 2), 3), coordinate(rng)) for _ in range(rng.randint(1, 3))]
        grid = [(Fraction(ox * 7 + x, 7), Fraction(oy * 3 + y, 3)) for x in range(rng.randint(1, 3)) for y in range(rng.randint(1, 3))]
        yield [(p, min(a * p[0] + b * p[1] + c for a, b, c in pieces)) for p in grid]
        # Points on one line in the plane, some of them collinear in the graph.
        d = (Fraction(rng.randint(-2, 2), rng.choice([1, 3])), Fraction(rng.randint(1, 2), rng.choice([1, 7])))
        a, b = coordinate(rng), Fraction(rng.randint(-3, 3), 7)
        ts = rng.sample(range(-3, 4), rng.randint(1, 5))
        yield [((ox + t * d[0], oy + t * d[1]), a + b * t if rng.random() < 0.6 else coordinate(rng)) for t in ts]
        # Intervals and points in one variable, with collinear runs.
        xs = rng.sample(range(-6, 7), rng.randint(1, 7))
        yield [((Fraction(ox * den + x, den),), a + b * x if rng.random() < 0.5 else coordinate(rng)) for x in xs]


def probes(rng, f, dv):
    """Domain vertices, and rational points in and around the domain."""
    out = list(dv)
    for _ in range(8):
        (q, _), (r, _) = rng.choice(f.vertices), rng.choice(f.vertices)
        t = Fraction(rng.randint(-3, 11), rng.choice([8, 21]))
        out.append(tuple(qc + t * (rc - qc) for qc, rc in zip(q, r)))
        out.append(tuple(c + Fraction(rng.randint(-2, 2), rng.choice([1, 3, 7])) for c in rng.choice(dv)))
    return out


def test_integer_core_matches_the_fraction_code():
    rng = random.Random(1201)
    sets = graph_sets(rng)
    pool = {1: [], 2: []}
    shapes = set()
    for _ in range(400):
        pts = next(sets)
        f = ConcavePL.from_graph_points(pts)
        if f.m == 2:
            assert (f.vertices, f.had_collinear, f.facets()) == reference_plane_search_envelope(graph_reps(pts)), pts
        else:
            assert_envelope_1d(f, pts)
        dv = assert_queries(f, rng)
        if f.m == 2:
            positions = [make_point(p) for p, _ in pts]
            hull = convex_hull_2d(positions)
            assert hull == fraction_hull(positions)
            for p in positions + [make_point(q) for q in probes(rng, f, dv)]:
                assert hull_contains(hull, p) == fraction_hull_contains(hull, p)
        pool[f.m].append(f)
        shapes.add((f.m, min(len(dv), 3), f.had_collinear))
    assert shapes >= {(1, 1, False), (1, 2, False), (1, 2, True), (2, 1, False), (2, 2, False), (2, 2, True), (2, 3, False), (2, 3, True)}
    crossings = 0
    for m, count in ((1, 200), (2, 300)):
        for _ in range(count):
            f, g = rng.choice(pool[m]), rng.choice(pool[m])
            h = assert_sup_matches_reference(f, g)
            assert_queries(h, rng)
            crossings += crossed(f, g, h)
            if m == 2 and len(h.domain_vertices()) >= 3:
                # A sum of sums, as mixed volumes build them.
                k = rng.choice(pool[2])
                assert_queries(assert_sup_matches_reference(h, k), rng)
    assert crossings >= 20
