"""Randomized property tests for the convex, section, and distance layers.

Each suite draws at least 100 instances from a seeded generator and makes
exact assertions. Where a textbook-style identity only holds on a restricted
domain, the suite tests that domain and pins a minimal counterexample just
outside it, so the boundary is part of the contract.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor
from operator import mul

import numpy as np
import pytest

from tcodes import (
    ConcavePL,
    Curve,
    CurvePoint,
    Divisor,
    DivisorialPolytope,
    EvaluationSetup,
    INFINITY,
    MatrixFp,
    LatticePolytope,
    SupportFunctionSlice,
    admissible_points,
    build_code,
    code_dimension,
    d_exact,
    d_lower,
    d_upper,
    divisor_of,
    euler_characteristic,
    floor_sum_over_lattice,
    graded_sections,
    intersection_number,
    is_principal,
    k_bounds,
    mixed_volume,
    point_divisor_dual,
    riemann_roch_basis,
    section_zero_ray_coefficients,
    signed_ceiling_interior_sum,
    validate,
    volume,
    weight_enumerator,
    weil_divisor,
)
from tcodes import codes
from tcodes.convex import _contains, _lift, make_point, sup_convolution
from tcodes.instances import standard_elliptic, threefold_code_setup, threefold_example

from test_convex import POLYGON_BOXES, folded_polygon_slices, random_pl_graphs, rational_probes
from test_curve import effective

E7 = standard_elliptic()
P1_7 = Curve.p1(7)


def slice_values(dp, u) -> dict:
    """Each stored slice at u by its own `ConcavePL.evaluate`: the per-call
    path that the record `DivisorialPolytope.at` is checked against."""
    return {P: s.evaluate(u) for P, s in dp.slices.items()}


def floor_degree(dp, u) -> int:
    return sum(floor(v) for v in slice_values(dp, u).values())


def random_lattice_slice(rng, lo, hi, vmin=-4, vmax=4) -> ConcavePL:
    """Concave envelope of random integer graph points over [lo, hi]."""
    us = sorted(rng.sample(range(lo, hi + 1), rng.randint(2, min(4, hi - lo + 1))))
    us[0], us[-1] = lo, hi
    return ConcavePL.from_graph_points([((u,), rng.randint(vmin, vmax)) for u in us])


def random_integer_valued_slice(rng, lo, hi) -> ConcavePL:
    """Concave, integer at every lattice point: prefix sums of sorted slopes."""
    slopes = sorted((rng.randint(-3, 3) for _ in range(hi - lo)), reverse=True)
    vals = [rng.randint(-4, 4)]
    for s in slopes:
        vals.append(vals[-1] + s)
    return ConcavePL.from_graph_points([((lo + i,), v) for i, v in enumerate(vals)])


def random_nonnegative_slice(rng, lo, hi) -> ConcavePL:
    """Random lattice-vertex slice shifted so its minimum value is zero."""
    s = random_lattice_slice(rng, lo, hi)
    low = min(z for _, z in s.vertices)
    return ConcavePL.from_graph_points([(p, z - low) for p, z in s.vertices])


def random_divpoly(rng, curve, max_len=5) -> DivisorialPolytope:
    """Valid instance: random slices plus one that repairs vertex degrees."""
    lo, hi = 0, rng.randint(2, max_len)
    pts = curve.rational_points()
    carriers = rng.sample(pts, rng.randint(2, 4))
    slices = {P: random_lattice_slice(rng, lo, hi) for P in carriers[:-1]}
    need_lo = -sum(s.evaluate(lo) for s in slices.values())
    need_hi = -sum(s.evaluate(hi) for s in slices.values())
    pad_lo = max(need_lo, 0) + rng.randint(0, 2)
    pad_hi = max(need_hi, 0) + rng.randint(0, 2)
    slices[carriers[-1]] = ConcavePL.from_graph_points([((lo,), pad_lo), ((hi,), pad_hi)])
    dp = DivisorialPolytope(curve, LatticePolytope.interval(lo, hi), slices)
    assert validate(dp).ok
    return dp


def test_pick_identity_on_nonnegative_slices():
    rng = random.Random(101)
    for _ in range(150):
        s = random_nonnegative_slice(rng, 0, rng.randint(2, 7))
        assert all(s.evaluate(u) >= 0 for u, in s.domain_lattice_points())
        lhs = 2 * s.integral()
        rhs = signed_ceiling_interior_sum(s) + floor_sum_over_lattice(s)
        assert lhs == rhs, (s, lhs, rhs)


def test_pick_identity_on_integer_valued_slices():
    rng = random.Random(102)
    for _ in range(150):
        lo = rng.randint(-3, 0)
        s = random_integer_valued_slice(rng, lo, lo + rng.randint(2, 6))
        assert s.is_integral()
        lhs = 2 * s.integral()
        rhs = signed_ceiling_interior_sum(s) + floor_sum_over_lattice(s)
        assert lhs == rhs, (s, lhs, rhs)


def test_pick_identity_fails_on_mixed_fractional_slices():
    # Smallest failure: one interior lattice point at value -1/2. The signed
    # ceiling count is not additive under integer shifts once values cross
    # zero fractionally, so the identity is genuinely limited to slices that
    # stay nonnegative or take integer values at every lattice point.
    s = ConcavePL.from_graph_points([((0,), 0), ((2,), -1)])
    assert 2 * s.integral() == -2
    assert signed_ceiling_interior_sum(s) == -1
    assert floor_sum_over_lattice(s) == -2
    assert 2 * s.integral() != signed_ceiling_interior_sum(s) + floor_sum_over_lattice(s)


def test_dimension_bounds_on_random_instances():
    rng = random.Random(103)
    checked = eq_cases = cap_cases = 0
    for _ in range(120):
        curve = rng.choice([E7, P1_7])
        dp = random_divpoly(rng, curve)
        g = curve.genus
        k = graded_sections(dp).total_dim
        kb = k_bounds(dp)
        assert kb.lower <= kb.gamma <= k
        floors = [dp.at(u).floor_degree for u in dp.lattice_points()]
        if min(floors) >= -1:
            cap_cases += 1
            assert k <= kb.upper, (dp, k, kb)
        if min(floors) > 2 * g - 2:
            eq_cases += 1
            assert k == kb.lower, (dp, k, kb)
        checked += 1
    assert checked >= 120 and eq_cases >= 25 and cap_cases >= 25


def test_equality_flag_is_necessary_but_not_sufficient():
    # Rational degrees 1, 5/4, 3/2, 7/4, 2 all exceed 2g - 2 = 0, yet the
    # floor at u = 1 drops to the zero divisor, whose section space is the
    # constants. The flag therefore cannot promise k == lower on its own;
    # the floor-degree condition in test_dimension_bounds_on_random_instances
    # is the sharp one.
    q1 = CurvePoint.affine(1, 2, 7)
    dp = DivisorialPolytope(
        E7,
        LatticePolytope.interval(0, 4),
        {
            q1: ConcavePL.from_graph_points([((0,), 0), ((4,), 2)]),
            CurvePoint.infinity(): ConcavePL.from_graph_points([((0,), 1), ((4,), 0)]),
        },
    )
    assert validate(dp).ok
    kb = k_bounds(dp)
    assert kb.equality_case
    assert kb.lower == 5
    assert graded_sections(dp).total_dim == 6


def test_upper_cap_fails_on_deep_floor_drops():
    # Three slices sit at -1/4 per step while a fourth compensates, keeping
    # every vertex degree at zero, so the instance is valid. Floors then
    # reach degree -3 at interior weights and the naive cap sharp + N goes
    # negative while the section space still contains the constants.
    pts = [CurvePoint.affine(*c, 7) for c in [(1, 2), (2, 2), (3, 3), (4, 2)]]
    down = [((0,), 0), ((4,), -1)]
    up = [((0,), 0), ((4,), 3)]
    dp = DivisorialPolytope(
        E7,
        LatticePolytope.interval(0, 4),
        {pts[0]: ConcavePL.from_graph_points(down),
         pts[1]: ConcavePL.from_graph_points(down),
         pts[2]: ConcavePL.from_graph_points(down),
         pts[3]: ConcavePL.from_graph_points(up)},
    )
    assert validate(dp).ok
    kb = k_bounds(dp)
    k = graded_sections(dp).total_dim
    assert kb.upper == -1
    assert min(dp.at(u).floor_degree for u in dp.lattice_points()) == -3
    assert k >= 1 > kb.upper
    assert kb.lower <= kb.gamma <= k


def random_divisor(rng, curve, lo=-3, hi=6) -> Divisor:
    pts = curve.rational_points()
    support = rng.sample(pts, rng.randint(1, 3))
    return Divisor({P: rng.randint(lo, hi) for P in support})


def test_riemann_roch_dimension_contract_genus_zero():
    rng = random.Random(104)
    for _ in range(120):
        D = random_divisor(rng, P1_7)
        basis = riemann_roch_basis(P1_7, D)
        assert len(basis) == max(0, int(D.degree()) + 1)
        for f in rng.sample(basis, min(2, len(basis))):
            assert effective(divisor_of(P1_7, f, P1_7.rational_points()) + D)


def test_riemann_roch_dimension_contract_genus_one():
    rng = random.Random(105)
    for _ in range(120):
        D = random_divisor(rng, E7, lo=-3, hi=5)
        deg = int(D.degree())
        basis = riemann_roch_basis(E7, D)
        if deg < 0:
            assert basis == []
        elif deg == 0:
            assert len(basis) == (1 if is_principal(E7, D) else 0)
        else:
            assert len(basis) == deg
        for f in rng.sample(basis, min(2, len(basis))):
            assert effective(divisor_of(E7, f, E7.rational_points()) + D)


def test_duality_round_trip_dimension_one():
    rng = random.Random(106)
    for _ in range(150):
        lo = rng.randint(-3, 0)
        f = random_lattice_slice(rng, lo, lo + rng.randint(2, 6))
        assert SupportFunctionSlice(f.vertices).dual() == f
        s = SupportFunctionSlice(f.vertices)
        once = SupportFunctionSlice(s.dual().vertices)
        assert once == s
        for _ in range(5):
            v = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
            assert s.value((v,)) == once.value((v,))


def test_duality_round_trip_dimension_two():
    rng = random.Random(107)
    checked = 0
    for _ in range(130):
        pts = {(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(3, 6))}
        if len(pts) < 3:
            continue
        f = ConcavePL.from_graph_points([(p, rng.randint(-3, 3)) for p in pts])
        if len(f.domain_vertices()) < 3:
            continue
        assert SupportFunctionSlice(f.vertices).dual() == f
        checked += 1
    assert checked >= 100


def test_duality_normalizes_redundant_support_terms():
    rng = random.Random(108)
    for _ in range(120):
        terms = [((rng.randint(-3, 3),), Fraction(rng.randint(-4, 4))) for _ in range(rng.randint(2, 5))]
        s = SupportFunctionSlice(terms)
        once = SupportFunctionSlice(s.dual().vertices)
        twice = SupportFunctionSlice(once.dual().vertices)
        assert once == twice
        for _ in range(5):
            v = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),)
            assert s.value(v) == once.value(v)


def test_polarization_recovers_volume():
    rng = random.Random(109)
    for _ in range(110):
        dp = random_divpoly(rng, rng.choice([E7, P1_7]))
        assert mixed_volume([dp, dp]) == volume(dp)
    three = threefold_example()
    assert mixed_volume([three, three, three]) == volume(three)
    assert intersection_number([three] * 3) == 6 * volume(three)


def test_point_divisor_pairing_is_box_length():
    rng = random.Random(110)
    for _ in range(110):
        curve = rng.choice([E7, P1_7])
        dp = random_divpoly(rng, curve)
        length = dp.box.volume()
        values = set()
        for P in rng.sample(curve.rational_points(), 3):
            values.add(intersection_number([dp, point_divisor_dual(curve, P)]))
        assert values == {length}, (dp, values, length)


def test_section_ray_coefficients_match_weil_rays():
    rng = random.Random(111)
    for _ in range(110):
        dp = random_divpoly(rng, rng.choice([E7, P1_7]))
        rays = {t.ray: t.coefficient for t in weil_divisor(dp).ray_terms}
        for u in dp.lattice_points():
            coeffs = section_zero_ray_coefficients(dp, u)
            for n, c in coeffs.items():
                assert c >= 0
                assert c == sum(a * b for a, b in zip(u, n)) + rays[n]


def small_code_instance(rng) -> EvaluationSetup | None:
    """A buildable setup with 1 <= k <= 7 over a small field, or None.

    Instances with d_lower = 0 are rejected: a positive lower bound certifies
    that no section evaluates to the zero word, which every distance bound
    presupposes (the upper bound's certificate codeword must be nonzero).
    """
    q = rng.choice([3, 5])
    if q == 3:
        curve = Curve.p1(3)
    else:
        curve = Curve.p1(5) if rng.random() < 0.5 else Curve.elliptic(5, 0, 3)
    dp = random_divpoly(rng, curve, max_len=3)
    setup = EvaluationSetup.build(dp)
    if setup.l == 0:
        return None
    k = graded_sections(dp).total_dim
    if not 1 <= k <= 7:
        return None
    if d_lower(setup).value < 1:
        return None
    return setup


def small_plane_code_instance(rng) -> EvaluationSetup | None:
    """A rectangle-box setup with 1 <= k <= 12 over F_5 or F_7, or None.

    Every slice is affine with integer data and a gradient in {-1, 0, 1}^2,
    so every carrier is an evaluation point and most draws have points with
    one or two sloped axes beside the flat unmarked ones.
    """
    p = rng.choice([5, 7])
    curve = rng.choice([Curve.p1(p), Curve.elliptic(5, 0, 3) if p == 5 else E7])
    a, b = rng.randint(1, 2), rng.randint(1, 2)
    corners = [(0, 0), (a, 0), (0, b), (a, b)]
    slices = {}
    for P in rng.sample(curve.rational_points(), rng.randint(1, 3)):
        grad, c = (rng.randint(-1, 1), rng.randint(-1, 1)), rng.randint(-2, 4)
        slices[P] = ConcavePL.from_graph_points([(v, grad[0] * v[0] + grad[1] * v[1] + c) for v in corners])
    dp = DivisorialPolytope(curve, LatticePolytope(corners), slices)
    if not validate(dp).ok or not 1 <= graded_sections(dp).total_dim <= 12:
        return None
    return EvaluationSetup.build(dp)


def test_distance_bounds_sandwich_exact_distance():
    rng = random.Random(112)
    checked = 0
    while checked < 30:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        code = build_code(setup)
        if code.k == 0:
            continue
        gen = code.generator()
        exact = d_exact(gen)
        lower = d_lower(setup)
        upper = d_upper(setup)
        assert lower.value <= exact <= upper.value, (setup.dp, lower, exact, upper)
        assert upper.witness is not None and upper.witness.weight == upper.value
        enum = weight_enumerator(gen)
        assert min(w for w in enum if w > 0) == exact
        assert sum(enum.values()) == setup.q ** code.k
        checked += 1


def zero_certificate_setup() -> EvaluationSetup:
    """A setup over E(F_5) whose section map has a kernel: some `d_upper`
    certificates evaluate to the zero word."""
    curve = Curve.elliptic(5, 0, 3)
    slices = {
        CurvePoint.affine(1, 2, 5): ConcavePL.from_graph_points([((0,), -3), ((2,), 4)]),
        INFINITY: ConcavePL.from_graph_points([((0,), -3), ((2,), -2)]),
        CurvePoint.affine(1, 3, 5): ConcavePL.from_graph_points([((0,), 6), ((2,), 2)]),
    }
    dp = DivisorialPolytope(curve, LatticePolytope([(0,), (2,)]), slices)
    assert validate(dp).ok
    return EvaluationSetup.build(dp)


def test_upper_formula_undershoots_when_a_section_evaluates_to_zero():
    setup = zero_certificate_setup()
    dp = setup.dp
    code = build_code(setup)
    assert (code.n, code.k) == (16, 4)
    assert code.k < graded_sections(dp).total_dim
    assert d_lower(setup).value == 0
    # The minimal sub-box formula claims 4, but its certificate evaluates to
    # the zero word (the section map has a kernel here), and the true minimum
    # distance is 8. The returned value is the lightest surviving certificate.
    upper = d_upper(setup)
    assert upper.formula_min == 4
    assert d_exact(code.generator()) == 8
    assert upper.witness is not None and upper.witness.weight == upper.value == 12


def test_weight_enumerator_is_monomially_invariant():
    rng = random.Random(113)
    checked = 0
    while checked < 8:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        code = build_code(setup)
        if code.k == 0:
            continue
        gen = code.generator()
        base = weight_enumerator(gen)
        g = np.array(gen.rows, dtype=np.int64)
        perm = np.array(rng.sample(range(g.shape[1]), g.shape[1]))
        scales = np.array([rng.randint(1, setup.q - 1) for _ in range(g.shape[1])])
        twisted = (g[:, perm] * scales) % setup.q
        other = MatrixFp(twisted.tolist(), setup.q)
        assert weight_enumerator(other) == base
        checked += 1


def test_point_counts_obey_hasse_bound():
    for p in range(3, 102):
        if any(p % d == 0 for d in range(2, p)):
            continue
        if (-16 * (4 * 0 ** 3 + 27 * 3 ** 2)) % p == 0:
            continue
        n = Curve.elliptic(p, 0, 3).point_count()
        assert (n - (p + 1)) ** 2 <= 4 * p


def assert_weight_records_match(dp, monkeypatch):
    """`dp.at(u)` against each slice's own `evaluate` at every lattice weight,
    read by the integer kernel with no `evaluate` call, once per (stored
    slice, weight) and not again on a second read; and chi against the
    per-weight sum of floor-degree + 1 - g."""
    dp = DivisorialPolytope(dp.curve, dp.box, dp.slices)  # no record read yet
    weights = dp.lattice_points()
    want = {u: slice_values(dp, u) for u in weights}
    value, calls = ConcavePL._value, Counter()

    def counting(s, q, b=1):
        calls[id(s), q] += 1
        return value(s, q, b)

    def refuse(s, u):
        raise AssertionError("DivisorialPolytope.at called ConcavePL.evaluate")

    monkeypatch.setattr(ConcavePL, "_value", counting)
    monkeypatch.setattr(ConcavePL, "evaluate", refuse)
    records = [dp.at(u) for u in weights]
    assert all(dp.at(u) is at for u, at in zip(weights, records))
    assert calls == Counter({(id(s), u): 1 for s in dp.slices.values() for u in weights})
    monkeypatch.undo()
    for u, at in zip(weights, records):
        values = want[u]
        assert at.value == Divisor(values), (dp, u)
        assert at.floor == Divisor({P: floor(v) for P, v in values.items()}), (dp, u)
        assert at.degree == sum(values.values()), (dp, u)
        assert at.floor_degree == floor_degree(dp, u), (dp, u)
        assert at.effective == all(v >= 0 for v in values.values()), (dp, u)
    g = dp.curve.genus
    assert euler_characteristic(dp)[2] == sum(floor_degree(dp, u) + 1 - g for u in weights), dp


def test_weight_records_match_the_per_call_path(monkeypatch):
    rng = random.Random(114)
    pts = E7.rational_points()
    intervals = [random_divpoly(rng, E7) for _ in range(30)]
    for _ in range(20):
        hi = rng.randint(1, 6)
        ends = [((u,), Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for u in (0, hi)]
        slices = {P: ConcavePL.from_graph_points(ends) for P in rng.sample(pts, 2)}
        intervals.append(DivisorialPolytope(E7, LatticePolytope.interval(0, hi), slices))
    polygons = [
        DivisorialPolytope(E7, LatticePolytope(verts), dict(zip(rng.sample(pts, 3), folded_polygon_slices(rng, shape, 3))))
        for shape, verts in POLYGON_BOXES.items()
        for _ in range(4)
    ]
    sums = [rng.choice(family).add(rng.choice(family)) for family in (intervals, polygons) for _ in range(8)]
    scaled = [rng.choice(intervals + polygons).scale(rng.randint(2, 3)) for _ in range(10)]
    edge = [
        intervals[0].scale(0),
        point_divisor_dual(E7, pts[0]),
        point_divisor_dual(E7, pts[0], m=2),
        DivisorialPolytope(E7, LatticePolytope(POLYGON_BOXES["hexagon"]), {}),
        DivisorialPolytope(E7, LatticePolytope.interval(-2, 3), {}),
    ]
    p1 = [random_divpoly(rng, P1_7) for _ in range(10)]
    for dp in intervals + polygons + sums + scaled + edge + p1:
        assert_weight_records_match(dp, monkeypatch)



# Oracle: the former `try_evaluate`, which made a `Fraction` per coordinate
# and lifted it again before the cell minimum. The library reads values at
# lattice points from the stored integers (`ConcavePL._value`) and must give
# the same value, or None off the domain.


def fraction_route_value(f: ConcavePL, u) -> Fraction | None:
    p = make_point(u)
    b, (q,) = _lift([p])
    dom = f._domain if b == 1 else [tuple(b * x for x in c) for c in f._domain]
    if not _contains(dom, tuple(f._den * x for x in q)):
        return None
    if f._cells:
        top = min(f._den * sum(map(mul, G, q)) + b * C for G, C, _ in f._cells)
        return Fraction(top, f._gden * f._den * b)
    verts = f.vertices
    if len(verts) == 1:
        return verts[0][1]
    (qa, za), (qb, zb) = next(pair for pair in zip(verts, verts[1:]) if p <= pair[1][0])
    axis = 0 if qa[0] != qb[0] else 1
    return za + (zb - za) * (p[axis] - qa[axis]) / (qb[axis] - qa[axis])


def widened_lattice_box(f: ConcavePL) -> list[tuple[int, ...]]:
    """The integer points of the domain's bounding box widened by one."""
    dv = f.domain_vertices()
    axes = [[v[i] for v in dv] for i in range(f.m)]
    return list(product(*(range(floor(min(a)) - 1, ceil(max(a)) + 2) for a in axes)))


def test_lattice_kernel_matches_the_fraction_route():
    rng = random.Random(129)
    graphs = random_pl_graphs(rng)
    slices = []
    for _ in range(200):
        graph = [(make_point(p), z) for p, z in next(graphs)]
        # The same graph at half its positions: rational domain vertices.
        halved = [(tuple(c / 2 for c in p), z) for p, z in graph]
        slices += [ConcavePL.from_graph_points(graph), ConcavePL.from_graph_points(halved)]
    polygons = [f for shape in POLYGON_BOXES for f in folded_polygon_slices(rng, shape, 8)]
    intervals = [f for f in slices if f.m == 1]
    slices += polygons
    slices += [sup_convolution(rng.choice(polygons), rng.choice(polygons)) for _ in range(20)]
    slices += [sup_convolution(rng.choice(intervals), rng.choice(intervals)) for _ in range(40)]
    slices += [rng.choice(slices).scale(rng.randint(2, 3)) for _ in range(60)]
    kinds, inside, outside = set(), 0, 0
    for f in slices:
        lattice = set(f.domain_lattice_points())
        for u in widened_lattice_box(f):
            want = fraction_route_value(f, u)
            assert f._value(u) == want, (f, u)
            assert (want is not None) == (u in lattice), (f, u)
            inside += want is not None
            outside += want is None
        for p in rational_probes(rng, f, f.domain_vertices()):
            assert f.try_evaluate(p) == fraction_route_value(f, p), (f, p)
        # The lattice sums that read the kernel, against the same sums over the oracle.
        assert floor_sum_over_lattice(f) == sum(floor(fraction_route_value(f, u)) for u in lattice), f
        if f.m == 1:
            (a,), (b,) = f.domain_vertices()[0], f.domain_vertices()[-1]
            values = [fraction_route_value(f, (u,)) for u in range(floor(a) + 1, ceil(b))]
            want = sum(ceil(x) if x > 0 else -ceil(-x) for x in values)
            assert signed_ceiling_interior_sum(f) == want, f
        shape = "cells" if f._cells else ("point", "segment")[len(f._domain) - 1]
        kinds.add((f.m, shape, f._den > 1))
    # Point domains and cells in both dimensions, segments in the plane, each
    # over den 1 and over den > 1.
    assert kinds >= {(m, shape, big) for m in (1, 2) for shape in ("point", "cells") for big in (False, True)}
    assert kinds >= {(2, "segment", False), (2, "segment", True)}
    assert inside > 2_000 and outside > 2_000


def random_interval_setup(rng, curve, width) -> EvaluationSetup:
    """An interval polytope with fractional, affine-integral and lattice
    slices (values up to 24, so floor degrees often pass l), evaluated at a
    random subset of its admissible points."""
    slices = {}
    for P in rng.sample(curve.rational_points(), rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            ends = [((u,), Fraction(rng.randint(-6, 24), rng.randint(1, 4))) for u in (0, width)]
        elif kind == 1:
            b, alpha = rng.randint(-2, 8), rng.randint(-2, 2)
            ends = [((0,), b), ((width,), b + alpha * width)]
        else:
            ends = [((u,), rng.randint(-2, 8)) for u in sorted({0, width, rng.randint(0, width)})]
        slices[P] = ConcavePL.from_graph_points(ends)
    dp = DivisorialPolytope(curve, LatticePolytope.interval(0, width), slices)
    candidates = admissible_points(dp)
    return EvaluationSetup.build(dp, rng.sample(candidates, rng.randint(0, len(candidates))))


def elliptic_degree_zero_setup(rng, curve, principal: bool) -> EvaluationSetup:
    """floor(D_0) = l * O evaluated at l affine points E, so floor(D_0) - E
    has degree 0, and it is principal exactly when the points sum to O."""
    affine = curve.rational_points()[:-1]
    while True:
        chosen = rng.sample(affine, rng.randint(1, 4))
        total = INFINITY
        for P in chosen:
            total = curve.group_add(total, P)
        if principal and not total.is_infinity and curve.group_neg(total) not in chosen:
            chosen.append(curve.group_neg(total))
            break
        if not principal and not total.is_infinity:
            break
    l, width = len(chosen), rng.randint(1, 3)
    top = l + Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    dp = DivisorialPolytope(
        curve, LatticePolytope.interval(0, width), {INFINITY: ConcavePL.from_graph_points([((0,), l), ((width,), top)])}
    )
    setup = EvaluationSetup.build(dp, chosen)
    at = dp.at((0,))
    assert at.floor_degree == l
    assert is_principal(curve, at.floor - Divisor({P: 1 for P in chosen})) == principal
    return setup


def test_code_dimension_matches_the_built_code(monkeypatch):
    # k from Riemann-Roch dimensions against the rank of the built code, on
    # kernels (deg floor(D_u) >= l), elliptic degree-0 kernels, polygon
    # boxes and the threefold, and on boxes whose weights share a character
    # mod q - 1, where code_dimension builds the code itself.
    rng = random.Random(115)
    curves = [Curve.p1(5), P1_7, Curve.p1(11), Curve.elliptic(5, 0, 3), E7, standard_elliptic(13)]
    setups = [random_interval_setup(rng, c, rng.randint(1, c.p - 2)) for c in curves for _ in range(25)]
    for curve in (E7, standard_elliptic(13)):
        setups += [elliptic_degree_zero_setup(rng, curve, principal) for principal in (True, False) for _ in range(10)]
    for shape, verts in POLYGON_BOXES.items():
        for curve in (Curve.p1(5), E7):
            for scale in (1, 2, 3):
                slices = dict(zip(rng.sample(curve.rational_points(), 3), folded_polygon_slices(rng, shape, 3)))
                dp = DivisorialPolytope(curve, LatticePolytope(verts), slices).scale(scale)
                candidates = admissible_points(dp)
                setups.append(EvaluationSetup.build(dp, rng.sample(candidates, rng.randint(1, len(candidates)))))
    setups += [threefold_code_setup(7), threefold_code_setup(13)]
    setups += [random_interval_setup(rng, c, rng.randint(c.p - 1, c.p + 2)) for c in curves for _ in range(5)]

    built = []
    monkeypatch.setattr(codes, "build_code", lambda setup: built.append(setup) or build_code(setup))
    kernels = fallbacks = 0
    for setup in setups:
        built.clear()
        k = code_dimension(setup)
        code = build_code(setup)
        assert k == code.k, (setup.dp, setup.points)
        weights = setup.dp.lattice_points()
        shared = len({tuple(c % (setup.q - 1) for c in u) for u in weights}) < len(weights)
        assert bool(built) == shared, (setup.dp, setup.points)
        kernels += code.k < len(code.row_labels)
        fallbacks += shared
    assert kernels >= 150 and fallbacks >= 30, (kernels, fallbacks)


def test_section_count_matches_the_graded_bases():
    # The Riemann-Roch count of graded basis elements against the bases
    # built, on random intervals and polygons over P^1 and E, and on
    # elliptic floors of degree 0 at u = 0 (floor(D_0) - E of the kernel
    # setups), principal and not.
    rng = random.Random(116)
    dps = [random_divpoly(rng, curve) for curve in (P1_7, E7) for _ in range(20)]
    dps += [random_interval_setup(rng, c, rng.randint(1, 5)).dp for c in (Curve.p1(11), standard_elliptic(13)) for _ in range(10)]
    for shape, verts in POLYGON_BOXES.items():
        slices = dict(zip(rng.sample(E7.rational_points(), 3), folded_polygon_slices(rng, shape, 3)))
        dps.append(DivisorialPolytope(E7, LatticePolytope(verts), slices))
    for curve in (E7, standard_elliptic(13)):
        for principal in (True, False):
            for _ in range(5):
                setup = elliptic_degree_zero_setup(rng, curve, principal)
                box = setup.dp.box
                slices = {P: ConcavePL.constant_on(box, -1) for P in setup.points}
                dp = DivisorialPolytope(curve, box, slices | {INFINITY: setup.dp.slices[INFINITY]})
                assert dp.at((0,)).floor_degree == 0 and is_principal(curve, dp.at((0,)).floor) == principal
                dps.append(dp)
    for dp in dps:
        assert codes._section_count(dp) == graded_sections(dp).total_dim, dp


def test_code_dimension_refuses_a_point_off_the_curve():
    # (1,1) is not on P^1 (y = 0 there). The setup refuses it when it is
    # made, with sections (top 3) and without (top -3), so neither the built
    # code nor code_dimension ever sees it.
    off = CurvePoint.affine(1, 1, 7)
    for top in (3, -3):
        slices = {INFINITY: ConcavePL.from_graph_points([((0,), top), ((2,), top)])}
        dp = DivisorialPolytope(P1_7, LatticePolytope.interval(0, 2), slices)
        assert graded_sections(dp).total_dim == (3 * 4 if top > 0 else 0)
        with pytest.raises(ValueError, match=r"^\(1,1\) is not on the curve$"):
            EvaluationSetup.build(dp, [CurvePoint.affine(0, 0, 7), off])
