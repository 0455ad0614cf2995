"""Tests for evaluation codes: construction, parameters, and bounds."""

import ast
import itertools
import math
import random

import numpy as np
import pytest

from tcodes import (
    INFINITY,
    BudgetExceeded,
    ConcavePL,
    Curve,
    CurvePoint,
    DivisorialPolytope,
    EvaluationSetup,
    LatticePolytope,
    MatrixFp,
    Poly,
    admissible_points,
    build_code,
    codes,
    compare_with_product,
    d_exact,
    d_lower,
    d_lower_surface,
    d_upper,
    hasse_weil_diagnostic,
    k_bounds,
    kronecker_generator,
    one_point_ag_generator,
    reed_solomon_generator,
    ruled_closed_forms,
    ruled_divpoly,
    toric_generator,
    weight_enumerator,
)
from tcodes.algebra import primitive_root
from tcodes.cli import EXIT_OK, main
from tcodes.curve import Divisor, FunctionFieldElement, riemann_roch_basis, twisted_evaluate, valuation
from tcodes.instances import (
    marked_point_pair,
    p1_torus_points,
    record_example,
    standard_elliptic,
    surface_code_setup,
    surface_example,
    threefold_code_setup,
    threefold_example,
    toric_comparison_example,
    toric_comparison_setup,
)
from tcodes.problemfile import parse
from tcodes.tvariety import graded_sections, project

from test_curve import random_functions
from test_properties import (
    floor_degree,
    slice_values,
    small_code_instance,
    small_plane_code_instance,
    zero_certificate_setup,
)

E7 = standard_elliptic()
Q1, Q2 = marked_point_pair(E7)
SURFACE = surface_example(E7)


def test_admissible_points():
    pts = admissible_points(SURFACE)
    assert len(pts) == 11
    assert Q1 not in pts and Q2 not in pts
    assert INFINITY in pts
    pts3 = admissible_points(threefold_example())
    assert len(pts3) == 5
    assert all(not P.is_infinity for P in pts3)


def test_setup_build_validation():
    setup = surface_code_setup()
    assert (setup.q, setup.l, setup.m, setup.n) == (7, 11, 1, 66)
    with pytest.raises(ValueError):
        EvaluationSetup.build(SURFACE, [Q1])
    dup = admissible_points(SURFACE)[:2]
    with pytest.raises(ValueError):
        EvaluationSetup.build(SURFACE, dup + dup[:1])


def test_torus_power_lex_order():
    setup = surface_code_setup()
    torus = setup.torus()
    assert torus[:6] == [(1,), (3,), (2,), (6,), (4,), (5,)]
    assert len(torus) == 6
    torus2 = threefold_code_setup().torus()
    assert len(torus2) == 36
    assert torus2[:3] == [(1, 1), (1, 3), (1, 2)]
    assert torus2[6] == (3, 1)


def test_twist_exponents():
    setup = surface_code_setup()
    # Unstored slices are identically zero, so twists vanish.
    for i in range(setup.l):
        assert setup.twist_exponent(i, (3,)) == 0
    rec = record_example()
    slice_pt = rec.dp.stored_points()[0]
    assert slice_pt not in rec.points
    idx = 0
    assert rec.twist_exponent(idx, (0,)) == 0


def test_setup_takes_one_twist_per_distinct_slice(monkeypatch):
    # The surface example marks two of E7's 13 rational points. Each stored
    # slice gives one twist; the other 11 points take the zero slice's twist
    # ((0,), 0) without any slice being looked up or built.
    twist = codes._affine_twist
    seen = []

    def counting(slice_):
        seen.append(slice_)
        return twist(slice_)

    def looked_up(dp, P):
        raise AssertionError(f"slice_at({P.render()}) called")

    with monkeypatch.context() as mp:
        mp.setattr(codes, "_affine_twist", counting)
        mp.setattr(DivisorialPolytope, "slice_at", looked_up)
        setup = EvaluationSetup.build(SURFACE)
    assert len(seen) == len({id(s) for s in seen}) == 2
    assert (len(E7.rational_points()), setup.l) == (13, 11)
    assert setup.twists == [twist(SURFACE.slice_at(P)) for P in setup.points]
    assert setup.points == [P for P in E7.rational_points() if twist(SURFACE.slice_at(P)) is not None]


def test_record_setup_twists():
    # The single stored slice passes through (0,3),(2,5),(4,3) and is not
    # affine, so its point cannot be evaluated.
    rec = record_example()
    assert rec.l == 11
    with pytest.raises(ValueError):
        EvaluationSetup.build(rec.dp, rec.dp.stored_points())


def test_code_parameters_surface():
    code = build_code(surface_code_setup())
    assert code.n == 66
    assert code.k == 8
    assert code.injective
    assert len(code.generator().rows) == 8
    assert code.matrix().ncols == 66
    assert len(code.row_labels) == len(code.matrix().rows)


def test_code_parameters_threefold():
    code = build_code(threefold_code_setup())
    assert code.n == 180
    assert code.k == 15
    assert code.injective


def test_code_parameters_record():
    code = build_code(record_example())
    assert code.n == 66
    assert code.k == 19


def test_k_bounds():
    kb = k_bounds(SURFACE)
    assert (kb.lower, kb.gamma, kb.upper, kb.equality_case) == (7, 8, 12, False)
    kb3 = k_bounds(threefold_example())
    assert (kb3.lower, kb3.gamma, kb3.upper, kb3.equality_case) == (15, 15, 15, True)
    kbr = k_bounds(record_example().dp)
    assert (kbr.lower, kbr.gamma, kbr.upper, kbr.equality_case) == (19, 19, 24, True)
    kbt = k_bounds(toric_comparison_example(7))
    assert (kbt.lower, kbt.gamma, kbt.upper, kbt.equality_case) == (7, 7, 7, True)


def test_d_lower_surface_instances():
    assert d_lower(surface_code_setup()).value == 22
    assert d_lower(record_example()).value == 16
    assert d_lower_surface(SURFACE, 11, 7).value == 22


def test_d_lower_threefold():
    got = d_lower(threefold_code_setup())
    assert got.value == 60
    assert "projected bound 15" in got.detail


def test_d_upper_surface():
    got = d_upper(surface_code_setup())
    assert got.value == 33
    assert got.formula_min == 33
    assert got.witness is not None
    assert got.witness.weight == 33
    assert got.witness.sub_box == ((0, 3),)


def test_d_upper_record_and_threefold():
    assert d_upper(record_example()).value == 18
    assert d_upper(threefold_code_setup()).value == 108


def test_d_exact_surface():
    code = build_code(surface_code_setup())
    got = d_exact(code.generator())
    assert got == 33
    assert 22 <= got <= 33


def test_weight_enumerator_properties():
    code = build_code(toric_comparison_setup(7))
    enum = weight_enumerator(code.generator())
    assert enum[0] == 1
    assert sum(enum.values()) == 7**7
    assert min(w for w in enum if w > 0) == 18
    head = dict(list(enum.items())[:4])
    assert head == {0: 1, 18: 120, 24: 864, 25: 7776}


def test_toric_comparison_eleven():
    code = build_code(toric_comparison_setup(11))
    assert (code.n, code.k) == (100, 7)
    gen = code.generator()
    assert d_exact(gen) == 70
    assert sum(weight_enumerator(gen).values()) == 11**7


def test_zero_code():
    for gen in [MatrixFp([[0, 0, 0], [0, 0, 0]], 7), MatrixFp([], 7)]:
        assert weight_enumerator(gen) == {0: 1}
        with pytest.raises(ValueError):
            d_exact(gen)


def test_budget_exceeded():
    code = build_code(record_example())
    with pytest.raises(BudgetExceeded) as err:
        d_exact(code.generator())
    assert err.value.required == (7**19 - 1) // 6
    assert err.value.budget == 2_000_000


def test_zero_slice_toric_code():
    curve = Curve.p1(5)
    dp = DivisorialPolytope(
        curve,
        LatticePolytope.interval(0, 2),
        {INFINITY: ConcavePL.from_graph_points([(0, 0), (2, 0)])},
    )
    setup = EvaluationSetup.build(dp, p1_torus_points(curve))
    assert setup.l == 4 and setup.n == 16
    code = build_code(setup)
    assert code.k == 3
    assert d_lower(setup).value == 8
    assert d_exact(code.generator()) == 8


def test_reed_solomon():
    gen = reed_solomon_generator(7, 3)
    assert (len(gen.rows), gen.ncols) == (3, 6)
    assert d_exact(gen) == 4
    with pytest.raises(ValueError):
        reed_solomon_generator(7, 7)


def test_one_point_ag():
    points = [P for P in E7.rational_points() if not P.is_infinity]
    gen = one_point_ag_generator(E7, 3, points)
    assert (len(gen.rows), gen.ncols) == (3, 12)
    assert d_exact(gen) >= 9


def test_kronecker_generator():
    A = reed_solomon_generator(7, 2)
    B = reed_solomon_generator(7, 3)
    K = kronecker_generator(A, B)
    assert (len(K.rows), K.ncols) == (6, 36)
    assert K.rank() == 6
    # Product-code distance is multiplicative for Reed-Solomon factors.
    assert d_exact(K) == d_exact(A) * d_exact(B)


def test_toric_generator_matches_setup():
    pts = toric_comparison_example(7)
    lattice = []
    for u in range(3):
        top = sum(slice_values(pts, (u,)).values())
        lattice.extend((u, v) for v in range(int(top) + 1))
    gen = toric_generator(7, lattice)
    assert len(gen.rows) == 7
    assert gen.rank() == 7


def test_hasse_weil_diagnostic():
    rep = hasse_weil_diagnostic(SURFACE)
    assert (rep.genus, rep.threshold_q, rep.point_bound) == (9, 89, 55)
    flat = ruled_divpoly(Curve.p1(7), 1, 0, 0)
    rep0 = hasse_weil_diagnostic(flat)
    assert rep0.genus == 0 and rep0.threshold_q == 2
    one = ruled_divpoly(E7, 1, 0, 1)
    assert hasse_weil_diagnostic(one).genus == 1
    assert hasse_weil_diagnostic(one).threshold_q == 4


def test_ruled_closed_forms_match_generic():
    rng = random.Random(19)
    for _ in range(60):
        a = rng.randint(0, 4)
        alpha = rng.choice([0, 1, 2])
        b = rng.randint(0, 4)
        q = rng.choice([5, 7])
        curve = Curve.p1(q)
        dp = ruled_divpoly(curve, a, alpha, b)
        l = rng.randint(1, q + 1)
        closed = ruled_closed_forms(a, alpha, b, l, q, 0)
        generic = d_lower_surface(dp, l, q)
        assert closed["d_lower"] == generic.value, (a, alpha, b, l, q)
        assert closed["lambda0"] == max(floor_degree(dp, u) for u in dp.lattice_points())


def test_compare_with_product_frozen():
    points = E7.rational_points()
    got = compare_with_product(E7, 3, 3, points)
    assert (got.a, got.alpha, got.b) == (2, 1, 2)
    assert (got.k_product, got.d_product) == (9, 40)
    assert (got.k_tcode, got.d_tcode) == (9, 44)
    assert got.k_matches and got.d_strictly_better


def test_compare_with_product_builds_no_basis(monkeypatch):
    # k_tcode is a sum of Riemann-Roch dimensions, so no basis is built.
    def refuse(curve, D):
        raise AssertionError("compare_with_product built a Riemann-Roch basis")

    for module in ("curve", "codes", "tvariety"):
        monkeypatch.setattr(f"tcodes.{module}.riemann_roch_basis", refuse)
    got = compare_with_product(E7, 3, 3, E7.rational_points())
    assert (got.k_tcode, got.d_tcode) == (9, 44)


def test_compare_with_product_validation():
    points = E7.rational_points()
    with pytest.raises(ValueError):
        compare_with_product(E7, 3, 0, points)  # alpha * a exceeds 2 tau
    with pytest.raises(ValueError):
        compare_with_product(E7, 5, 2, points)  # b falls to 2g - 2


def test_product_comparison_counterexample_pin():
    # With tau close to l the one-slice code can be strictly worse than the
    # product even though k matches: the distance estimate needs the larger
    # gap l > tau + alpha (q - 1) / 2, not just l >= q + g - 1.
    points = E7.rational_points()[:7]
    got = compare_with_product(E7, 3, 6, points)
    assert got.k_matches
    assert got.d_tcode == 0
    assert got.d_product == 4
    assert not got.d_strictly_better
    closed = ruled_closed_forms(2, 1, 5, 7, 7, 1)
    assert closed["d_lower"] == 0


def test_product_comparison_sound_regime():
    # In the regime k1 >= 2, l > tau + alpha (q - 1) / 2 the one-slice code
    # beats the product strictly, at matching dimension.
    all_points = E7.rational_points()
    checked = 0
    for k1 in (2, 3):
        alpha = 2 if (k1 - 1) % 2 else 1
        for tau in (2, 3):
            lo = tau + alpha * 3 + 1
            for l in range(lo, 14):
                got = compare_with_product(E7, k1, tau, all_points[:l])
                assert got.k_matches, (k1, tau, l)
                assert got.d_strictly_better, (k1, tau, l)
                checked += 1
    assert checked >= 6


# Oracles: entry-by-entry pow loops and the full-matrix elimination, which the
# character-table columns and the rank by character class must reproduce.


def reference_torus(q, m):
    g = primitive_root(q)
    powers = [pow(g, i, q) for i in range(q - 1)]
    out = [()]
    for _ in range(m):
        out = [t + (w,) for t in out for w in powers]
    return out


def reference_t_power(t, u, p):
    out = 1
    for base, e in zip(t, u):
        out = out * pow(base, e % (p - 1), p) % p
    return out


def reference_build_code(setup):
    """Rows, labels and the full-matrix `independent_row_indices` selection."""
    curve, p = setup.curve, setup.q
    torus = reference_torus(p, setup.m)
    rows, labels = [], []
    for piece in graded_sections(setup.dp).pieces:
        u = piece.u
        t_pows = [reference_t_power(t, u, p) for t in torus]
        for j, f in enumerate(piece.basis):
            row = []
            for i, P in enumerate(setup.points):
                val = twisted_evaluate(curve, f, P, setup.twist_exponent(i, u))
                row.extend(val * tp % p for tp in t_pows)
            rows.append(row)
            labels.append((u, j))
    return rows, labels, MatrixFp(rows, p).independent_row_indices()


def reference_witness_weight(setup, B, f):
    curve, p = setup.curve, setup.q
    g = primitive_root(p)
    base = tuple(s for s, _ in B)
    sides = [t - s for s, t in B]
    axis_polys = []
    for r in sides:
        poly = Poly([1], p)
        for j in range(r):
            poly = poly * Poly([-pow(g, j, p), 1], p)
        axis_polys.append(poly.coeffs)
    shifts = [((), 1)]
    for coeffs in axis_polys:
        shifts = [(e + (d,), c * coeffs[d] % p) for e, c in shifts for d in range(len(coeffs))]
    weight = 0
    any_nonzero = False
    for i, P in enumerate(setup.points):
        vals = {}
        for e, c in shifts:
            if c == 0:
                continue
            u = tuple(b + d for b, d in zip(base, e))
            vals[u] = (vals.get(u, 0) + c * twisted_evaluate(curve, f, P, setup.twist_exponent(i, u))) % p
        for t in reference_torus(p, setup.m):
            entry = sum(c * reference_t_power(t, u, p) for u, c in vals.items()) % p
            if entry:
                weight += 1
                any_nonzero = True
    return weight if any_nonzero else None


def flat_nonzero(setup, f):
    """The flat points where f times its twist is nonzero, evaluated by
    `_section_values`; sloped points get the twist -ord_P f, which is legal
    for any f, and are not counted."""
    gradients, offsets = setup._twist_arrays
    flat = ~gradients.any(axis=1)
    ks = [int(k) if fl else -valuation(setup.curve, f, P) for P, k, fl in zip(setup.points, offsets, flat)]
    values = codes._section_values(setup, [f], np.array(ks))[0]
    return int(np.count_nonzero(values[flat]))


def reference_toric_generator(p, lattice_points):
    g = primitive_root(p)
    powers = [pow(g, i, p) for i in range(p - 1)]
    cols = [(s1, s2) for s1 in powers for s2 in powers]
    rows = []
    for z1, z2 in lattice_points:
        rows.append([pow(s1, z1 % (p - 1), p) * pow(s2, z2 % (p - 1), p) % p for s1, s2 in cols])
    return MatrixFp(rows, p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def assert_code_matches_reference(setup):
    """Rows, labels and selection, and the weight of d_upper's witness word
    against the full table."""
    code = build_code(setup)
    rows, labels, selected = reference_build_code(setup)
    assert setup.torus() == reference_torus(setup.q, setup.m)
    assert (code.rows, code.row_labels, code.selected) == (rows, labels, selected)
    upper = _outcome(d_upper, setup)
    if upper is not ValueError:
        w = upper.witness
        assert reference_witness_weight(setup, w.sub_box, w.section) == w.weight
    return code, upper


def reference_d_lower_surface(dp, l, q):
    """The former loop: nu(lam), the width of the weights whose floored
    degree is at least lam, re-evaluating every slice at every weight, once
    for each lam."""
    lam0 = max(floor_degree(dp, u) for u in dp.lattice_points())
    if lam0 < 0:
        raise ValueError("no sections: every floored degree is negative")
    best = None
    arg = 0
    for lam in range(lam0 + 1):
        alive = [u for (u,) in dp.lattice_points() if floor_degree(dp, (u,)) >= lam]
        val = max(0, l - lam) * max(0, q - 1 - (max(alive) - min(alive)))
        if best is None or val < best:
            best, arg = val, lam
    return codes.DistanceBound(best, f"lambda={arg} of lambda0={lam0}")


def assert_d_lower_matches_reference(setup):
    dp = setup.dp if setup.m == 1 else project(setup.dp)
    for l in sorted({1, setup.l, setup.l + 5}):
        got = _outcome(d_lower_surface, dp, l, setup.q)
        assert got == _outcome(reference_d_lower_surface, dp, l, setup.q), (dp, l)


def test_d_lower_surface_ties_go_to_the_least_lambda():
    # lambda = 0, 1, 2 give 24, 25 and 24 here.
    dp = ruled_divpoly(Curve.p1(7), 2, 1, 0)
    want = codes.DistanceBound(24, "lambda=0 of lambda0=2")
    assert d_lower_surface(dp, 6, 7) == want
    assert reference_d_lower_surface(dp, 6, 7) == want


def builtin_setups():
    return {
        "surface": surface_code_setup(),
        "surface-p1": EvaluationSetup.build(surface_example(Curve.p1(7))),
        "surface-p1-11": EvaluationSetup.build(surface_example(Curve.p1(11))),
        "threefold": threefold_code_setup(),
        "record": record_example(),
        "toric-7": toric_comparison_setup(7),
        "toric-11": toric_comparison_setup(11),
    }


@pytest.mark.parametrize("name", sorted(builtin_setups()))
def test_builtin_codes_match_reference(name):
    assert_code_matches_reference(builtin_setups()[name])


def test_small_codes_match_reference():
    rng = random.Random(601)
    seen = 0
    while seen < 30:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        assert_code_matches_reference(setup)
        seen += 1


# Oracle for the per-point code kernel: the former build_code row loop, one
# twisted_evaluate per (section, point), against `_section_values` on P^1 and
# elliptic curves, 2-torsion points (e = 2) and infinity, sections with zeros
# and poles at the evaluation points, and sloped points.


def reference_section_values(setup, sections, ks):
    return [[twisted_evaluate(setup.curve, f, P, int(k)) for P, k in zip(setup.points, row)] for f, row in zip(sections, ks)]


def _value_or_error(fn, *args):
    try:
        return np.asarray(fn(*args)).tolist()
    except ValueError as e:
        return str(e)


# (curve, stored point, sloped slice b + alpha u on [0, a]); every other
# rational point is flat and evaluated too, infinity included.
KERNEL_SETUPS = [
    (Curve.p1(7), INFINITY, (2, 1, 3)),
    (Curve.p1(11), CurvePoint.affine(4, 0, 11), (3, -1, 5)),
    (E7, INFINITY, (3, 1, 2)),
    (Curve.elliptic(7, 1, 0), CurvePoint.affine(0, 0, 7), (2, 1, 3)),
    (Curve.elliptic(5, 0, 3), CurvePoint.affine(3, 0, 5), (2, -1, 5)),
    (Curve.elliptic(13, 1, 0), CurvePoint.affine(5, 0, 13), (3, 1, 2)),
]


def kernel_setup(curve, point, sizes):
    return EvaluationSetup.build(ruled_divpoly(curve, *sizes, point))


def test_generator_and_matrix_take_the_rows_as_residues():
    # `generator()` and `matrix()` hand the rows of one int64 table to
    # MatrixFp without reducing them again; they equal the matrices that
    # the public constructor makes of the same rows, and only the
    # generator's rows are marked independent, which they are.
    for setup in [*builtin_setups().values(), *(kernel_setup(*args) for args in KERNEL_SETUPS)]:
        code = build_code(setup)
        rows, q = code.rows, setup.q
        generator, matrix = code.generator(), code.matrix()
        assert generator == MatrixFp([rows[i] for i in code.selected], q)
        assert matrix == MatrixFp(rows, q)
        assert (generator._independent, matrix._independent) == (True, False)
        assert MatrixFp(generator.rows, q).independent_row_indices() == list(range(code.k))
        # Each call builds new rows.
        generator.rows[0][0] += 1
        assert code.generator() != generator and code.rows == rows == code.matrix().rows


@pytest.mark.parametrize("curve,point,sizes", KERNEL_SETUPS, ids=lambda x: getattr(x, "kind", None))
def test_section_values_match_the_point_loop(curve, point, sizes):
    setup = kernel_setup(curve, point, sizes)
    assert any(P.is_infinity for P in setup.points)
    rng = random.Random(7000 + curve.p)
    sections = random_functions(rng, curve, 24)
    orders = [[0 if f.is_zero() else valuation(curve, f, P) for P in setup.points] for f in sections]
    # Twists at, next to and away from -ord_P f: leading coefficients, zeros, and refusals.
    exact = np.array([[-v + rng.choice([0, 0, 0, 1, 2]) for v in row] for row in orders])
    near = exact - np.array([[rng.random() < 0.05 for _ in row] for row in orders])
    for ks in (exact, near, np.zeros_like(exact), exact[3:4]):
        fs = sections if len(ks) > 1 else [sections[3]]
        want = _value_or_error(reference_section_values, setup, fs, np.broadcast_to(ks, (len(fs), setup.l)))
        assert _value_or_error(codes._section_values, setup, fs, ks) == want
        if len(ks) == 1:
            assert _value_or_error(codes._section_values, setup, fs, ks[0]) == want


@pytest.mark.parametrize("curve,point,sizes", KERNEL_SETUPS, ids=lambda x: getattr(x, "kind", None))
def test_kernel_setups_match_reference(curve, point, sizes):
    setup = kernel_setup(curve, point, sizes)
    flat = [not any(v) for v, _ in setup.twists]
    assert any(flat) and not all(flat)
    _, upper = assert_code_matches_reference(setup)
    assert upper.witness.weight is not None


def d_upper_setups(seed, intervals, rectangles):
    """The built-in and kernel setups, one with zero-word certificates, then
    seeded interval draws and rectangle draws with affine slices, most of
    them sloped at some point."""
    setups = list(builtin_setups().values()) + [kernel_setup(*args) for args in KERNEL_SETUPS]
    setups.append(zero_certificate_setup())
    rng = random.Random(seed)
    for draw, count in ((small_code_instance, intervals), (small_plane_code_instance, rectangles)):
        drawn = 0
        while drawn < count:
            setup = draw(rng)
            if setup is not None:
                setups.append(setup)
                drawn += 1
    return setups


def group_sum(curve, D):
    """The point sum(D(P) P) in the group law of an elliptic curve."""
    R = INFINITY
    for P, a in D.items():
        R = curve.group_add(R, curve.group_multiple(int(a), P))
    return R


def test_witness_weight_matches_reference_on_flat_and_sloped_points():
    # On every viable box, L(D) has dimension at most 1, and the count that
    # `_witness_weight` makes from the certificate's (c, r0) and the twist
    # gradients equals the weight of the certificate word, built from the
    # basis element of L(D) and weighed against the full table. The draws
    # cover nonzero principal degree-0 divisors on elliptic curves, and
    # degree-1 divisors whose group sum R is an evaluation point after the
    # first r0, a zero that only R accounts for.
    weighed = degree_one = sloped = mixed = zero = principal = r_evaluated = 0
    for setup in d_upper_setups(803, 120, 80):
        flat = [tuple(a == 0 for a in v) for v, _ in setup.twists]
        for B, (c, r0), D in viable_boxes(setup):
            basis = riemann_roch_basis(setup.curve, D)
            assert len(basis) <= 1, D
            if not basis:
                continue
            got = codes._witness_weight(setup.q, B, codes._nonzero_points(setup, flat, c, r0))
            assert got == reference_witness_weight(setup, B, basis[0]), (setup.dp, B)
            gradients = [v for v, _ in setup.twists[r0:]]
            weighed += 1
            zero += got is None
            degree_one += D.degree() == 1
            sloped += any(map(any, gradients)) and any(t > s for s, t in B)
            mixed += any(any(v) and not all(v) for v in gradients)
            principal += setup.curve.genus == 1 and D.degree() == 0 and not D.is_zero()
            r_evaluated += D.degree() == 1 and group_sum(setup.curve, D) in setup.points[r0:]
    assert weighed >= 1500 and degree_one >= 750 and sloped >= 500 and mixed >= 500 and zero >= 1
    assert principal >= 25 and r_evaluated >= 600


def test_d_upper_weighs_each_section_at_flat_points_once(monkeypatch):
    # `d_upper` makes no `_section_values` pass on flat or sloped setups.
    # Each certificate with a section has its points counted once, by
    # `_nonzero_points`, and every box it certifies is weighed from that
    # count by `_witness_weight`, matching the full-table reference.
    setups = [kernel_setup(*args) for args in KERNEL_SETUPS] + list(builtin_setups().values())
    counter, kernel = codes._nonzero_points, codes._witness_weight
    sloped_setups = flat_setups = 0
    for setup in setups:
        counted, weighed, evaluated = [], [], []

        def counting(setup_, flat, c, r0):
            counted.append((c, r0))
            return counter(setup_, flat, c, r0)

        def weighing(q, B, nonzero):
            weighed.append((B, kernel(q, B, nonzero)))
            return weighed[-1][1]

        with monkeypatch.context() as mp:
            mp.setattr(codes, "_nonzero_points", counting)
            mp.setattr(codes, "_witness_weight", weighing)
            mp.setattr(codes, "_section_values", lambda *args: evaluated.append(args))
            if _outcome(d_upper, setup) is ValueError:
                continue
        boxes = {B: (key, D) for B, key, D in viable_boxes(setup)}
        sections = {key: riemann_roch_basis(setup.curve, D) for key, D in boxes.values()}
        certified = {key: D for key, D in boxes.values() if sections[key]}
        assert evaluated == []
        assert len(counted) == len(certified)
        assert all(key in counted for key in certified)
        assert sorted(B for B, _ in weighed) == sorted(B for B, (key, _) in boxes.items() if key in certified)
        for B, weight in weighed:
            assert weight == reference_witness_weight(setup, B, sections[boxes[B][0]][0]), B
        sloped = bool(setup._twist_arrays[0].any())
        sloped_setups += sloped
        flat_setups += not sloped
    assert sloped_setups >= 6 and flat_setups >= 4


def test_d_upper_keys_certificates_by_floors_and_forced_zeros(monkeypatch):
    # On P^1(11) with the slice 5 - u at (4,0), the fifth point, the boxes
    # [0,0] and [0,1] have (c, r0) = ((5,), 5) and ((4,), 4): one divisor D.
    # (4,0) is a forced zero of the first only, where its least twist 5
    # passes the pole 4 of the section. So the words weigh 70 and 73, and a
    # certificate keyed by D alone would give the second the first's zeros.
    setup = kernel_setup(*KERNEL_SETUPS[1])
    boxes = {B: (key, D) for B, key, D in viable_boxes(setup)}
    (key0, D0), (key1, D1) = boxes[((0, 0),)], boxes[((0, 1),)]
    assert (key0, key1) == (((5,), 5), ((4,), 4)) and D0 == D1
    f = riemann_roch_basis(setup.curve, D0)[0]
    kernel, weights = codes._witness_weight, {}

    def recording(setup_, B, nonzero):
        weights[B] = kernel(setup_, B, nonzero)
        return weights[B]

    monkeypatch.setattr(codes, "_witness_weight", recording)
    assert d_upper(setup) == reference_d_upper(setup)
    for B, want in ((((0, 0),), 70), (((0, 1),), 73)):
        assert weights[B] == reference_witness_weight(setup, B, f) == want


def test_kernel_keeps_the_point_loop_refusals():
    # The per-point loop refused these with exactly these messages. A point
    # off the curve is refused when the setup is made, however it is made.
    p1 = Curve.p1(7)
    dp = ruled_divpoly(p1, 1, 1, 2)
    points = [CurvePoint.affine(1, 0, 7), CurvePoint.affine(2, 3, 7), INFINITY]
    with pytest.raises(ValueError, match=r"^\(2,3\) is not on the curve$"):
        EvaluationSetup.build(dp, points)
    with pytest.raises(ValueError, match=r"^\(2,3\) is not on the curve$"):
        EvaluationSetup(dp, points, [((0,), 0), ((0,), 0), ((1,), 2)])
    setup = EvaluationSetup.build(dp, [CurvePoint.affine(1, 0, 7), CurvePoint.affine(3, 0, 7)])
    one = FunctionFieldElement.one(p1)
    with pytest.raises(ValueError, match=r"^pole of order 0 exceeds twist -1 at \(3,0\)$"):
        codes._section_values(setup, [one], np.array([0, -1]))
    pole = FunctionFieldElement(p1, Poly([1], 7), Poly([], 7), Poly([-3, 1], 7))
    with pytest.raises(ValueError, match=r"^pole of order 1 exceeds twist 0 at \(3,0\)$"):
        codes._section_values(setup, [one, pole], np.array([0, 0]))


def test_codes_evaluates_sections_in_one_place():
    # Every section value in `codes` comes from `_section_values`, which only
    # `build_code` calls; the one-point AG generator, which has no setup, is
    # the only other evaluator. A basis is built only by that generator and
    # by the witness's lazy section, so `d_upper` cannot evaluate sections,
    # and only `build_code` builds the graded bases: section counts come
    # from Riemann-Roch dimensions.
    tree = ast.parse(open(codes.__file__).read())
    functions = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            functions |= {f"{node.name}.{fn.name}": fn for fn in node.body if isinstance(fn, ast.FunctionDef)}
    callers = {"twisted_evaluate": set(), "_section_values": set(), "riemann_roch_basis": set(), "graded_sections": set()}
    for name, fn in functions.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", None))
                if called in callers:
                    callers[called].add(name)
    assert callers == {
        "twisted_evaluate": {"_section_values", "one_point_ag_generator"},
        "_section_values": {"build_code"},
        "riemann_roch_basis": {"UpperWitness.section", "one_point_ag_generator"},
        "graded_sections": {"build_code"},
    }


@pytest.mark.parametrize("name", sorted(builtin_setups()))
def test_builtin_d_lower_matches_reference(name):
    assert_d_lower_matches_reference(builtin_setups()[name])


def test_small_d_lower_matches_reference():
    rng = random.Random(602)
    seen = 0
    while seen < 30:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        assert_d_lower_matches_reference(setup)
        seen += 1


@pytest.mark.parametrize("p", [5, 7])
def test_wide_p1_box_shares_characters(p):
    # Weights u and u + q - 1 share a character on a box of width >= q - 1;
    # a sloped slice at 0 makes their l-vectors depend on each other.
    curve = Curve.p1(p)
    zero = CurvePoint.affine(0, 0, p)
    width = p
    for slices in (
        {INFINITY: ConcavePL.from_graph_points([((0,), 2), ((width,), 2)])},
        {
            INFINITY: ConcavePL.from_graph_points([((0,), 1), ((width,), 1)]),
            zero: ConcavePL.from_graph_points([((0,), 0), ((width,), width)]),
        },
    ):
        dp = DivisorialPolytope(curve, LatticePolytope.interval(0, width), slices)
        setup = EvaluationSetup.build(dp)
        code, _ = assert_code_matches_reference(setup)
        classes = {}
        for u, _ in code.row_labels:
            classes.setdefault(u[0] % (p - 1), set()).add(u)
        assert any(len(us) > 1 for us in classes.values())
        assert code.k < len(code.rows)


# Every evaluation point is flat: Q1's slice is not affine, so Q1 is left out,
# and infinity's slice is constant.
FLAT_101_TEXT = """\
field p=101
curve elliptic A=0 B=3
point O = infinity
point Q1 = (1,2)
box [0,3]
hstar O : (0,4) (3,4)
hstar Q1 : (0,0) (1,2) (3,1)
eval all-admissible
"""


def test_info_builds_no_code_rows(tmp_path, monkeypatch, capsys):
    # k comes from the l-vectors, and d_upper weighs its certificates by a
    # count, so `tcode info` never makes a character table; the rows are built
    # when first read, and equal the reference code's.
    path = tmp_path / "flat101.tcode"
    path.write_text(FLAT_101_TEXT)
    calls = []
    table = codes._characters

    def counting(p, m, exponents):
        calls.append(p)
        return table(p, m, exponents)

    monkeypatch.setattr(codes, "_characters", counting)
    assert main(["info", str(path)]) == EXIT_OK
    assert "k = 20" in capsys.readouterr().out.splitlines()
    setup = parse(FLAT_101_TEXT).to_setup()
    code = build_code(setup)
    assert (setup.n, code.k, calls) == (10100, 20, [])
    rows, labels, selected = reference_build_code(setup)
    assert (code.rows, code.row_labels, code.selected) == (rows, labels, selected)
    assert code.generator() == MatrixFp([rows[i] for i in selected], setup.q)
    assert calls == [101]
    # Equality compares l-vectors and labels, whether or not rows were read.
    assert code == build_code(setup)


@pytest.mark.parametrize("p,m", [(7, 1), (11, 1), (5, 2), (7, 2), (3, 3)])
def test_character_columns_follow_torus_order(p, m):
    rng = random.Random(p * 10 + m)
    exponents = [tuple(rng.randint(-2 * p, 2 * p) for _ in range(m)) for _ in range(6)]
    table = codes._characters(p, m, exponents)
    assert table.shape == (6, (p - 1) ** m)
    for row, u in zip(table.tolist(), exponents):
        assert row == [reference_t_power(t, u, p) for t in reference_torus(p, m)]


def test_toric_generator_matches_2d_reference():
    rng = random.Random(602)
    inputs = [
        (7, [(u, v) for u in range(3) for v in range(3 - u)]),
        (7, [(0, 0), (1, 0), (0, 1), (6, 0), (1, 1), (0, 7), (2, 1)]),
        (5, [(0, 0), (1, 0), (0, 1), (4, 0), (1, 1), (0, 4)]),
    ]
    for _ in range(20):
        p = rng.choice([2, 3, 5, 7, 11])
        inputs.append((p, [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(1, 6))]))
    for p, pts in inputs:
        assert toric_generator(p, pts) == reference_toric_generator(p, pts)


def test_toric_generator_3d_matches_pow_formula():
    p = 5
    g = primitive_root(p)
    pts = [(0, 0, 0), (1, 0, 2), (3, -1, 1), (4, 4, 4), (-2, 7, 1)]
    gen = toric_generator(p, pts)
    assert (len(gen.rows), gen.ncols) == (5, 64)
    for row, (a, b, c) in zip(gen.rows, pts):
        want = [
            pow(g, (i * a + j * b + k * c) % (p - 1), p)
            for i in range(p - 1)
            for j in range(p - 1)
            for k in range(p - 1)
        ]
        assert row == want


def test_reed_solomon_is_the_one_dimensional_toric_code():
    for p in (2, 3, 5, 7, 11, 13):
        g = primitive_root(p)
        points = [pow(g, i, p) for i in range(p - 1)]
        for k in range(1, p):
            want = MatrixFp([[pow(x, i, p) for x in points] for i in range(k)], p)
            assert reed_solomon_generator(p, k) == want
        for bad in (0, p):
            with pytest.raises(ValueError):
                reed_solomon_generator(p, bad)


# Oracles for the sub-box search and k_bounds: the former code, which built
# m = 1 and m = 2 boxes on two paths, found each box's cells by filtering the
# weights, evaluated every slice at those cells per box, and computed one
# Riemann-Roch basis per box; and k_bounds evaluating each slice four times
# per weight.


def reference_sub_boxes(dp, q):
    out = []
    if dp.m == 1:
        lo, hi = dp.box.bounds()
        for s in range(lo, hi + 1):
            for t in range(s, min(hi, s + q - 2) + 1):
                out.append(((s, t),))
        return out
    xlo, xhi = dp.box.bounds(0)
    ylo, yhi = dp.box.bounds(1)
    pts = set(dp.lattice_points())
    for s1 in range(xlo, xhi + 1):
        for t1 in range(s1, min(xhi, s1 + q - 2) + 1):
            for s2 in range(ylo, yhi + 1):
                for t2 in range(s2, min(yhi, s2 + q - 2) + 1):
                    cells = [(x, y) for x in range(s1, t1 + 1) for y in range(s2, t2 + 1)]
                    if all(c in pts for c in cells):
                        out.append(((s1, t1), (s2, t2)))
    return out


def reference_d_upper(setup):
    dp, curve = setup.dp, setup.curve
    l, q, g = setup.l, setup.q, curve.genus
    stored = dp.stored_points()
    if not stored:
        raise ValueError("upper bound needs at least one stored slice")
    candidates = []
    for B in reference_sub_boxes(dp, q):
        sides = [t - s for s, t in B]
        cells = [
            u
            for u in dp.lattice_points()
            if all(s <= c <= t for c, (s, t) in zip(u, B))
        ]
        coeffs = {
            Q: math.floor(min(dp.slice_at(Q).evaluate(u) for u in cells)) for Q in stored
        }
        r0 = max(0, min(sum(coeffs.values()) - g, l))
        D = Divisor({Q: c for Q, c in coeffs.items()})
        for P in setup.points[:r0]:
            D = D + Divisor({P: -1})
        bound = l - r0
        for r in sides:
            bound *= q - 1 - r
        if bound <= 0:
            continue
        basis = riemann_roch_basis(curve, D)
        if not basis:
            continue
        candidates.append((bound, B, r0, D, basis[0]))
    if not candidates:
        raise ValueError("no valid sub-box certificate exists")
    formula_min = min(c[0] for c in candidates)
    best = None
    for bound, B, r0, D, f in sorted(candidates, key=lambda c: c[0]):
        weight = reference_witness_weight(setup, B, f)
        if weight is not None and (best is None or weight < best[0]):
            best = (weight, B, r0, D, f)
    if best is not None:
        weight, B, r0, D, f = best
    else:
        weight, (_, B, r0, D, f) = None, min(candidates, key=lambda c: c[0])
    witness = codes.UpperWitness(B, r0, weight, curve, D)
    vars(witness)["section"] = f  # the section built here, not the lazy one
    return codes.UpperBound(weight or setup.n, formula_min, witness)


def reference_k_bounds(dp):
    g = dp.curve.genus
    pts = dp.lattice_points()
    sharp_total = sum(floor_degree(dp, u) for u in pts)
    gamma = 0
    for u in pts:
        x = floor_degree(dp, u) + 1 - g
        if x > 0:
            gamma += x
        elif all(v >= 0 for v in slice_values(dp, u).values()):
            gamma += 1
    equality = all(sum(slice_values(dp, u).values()) > 2 * g - 2 for u in pts)
    return codes.KBounds(sharp_total + len(pts) * (1 - g), gamma, sharp_total + len(pts), equality)


def assert_d_upper_matches_reference(setup):
    assert codes._sub_boxes(setup.dp, setup.q) == reference_sub_boxes(setup.dp, setup.q)
    got, want = _outcome(d_upper, setup), _outcome(reference_d_upper, setup)
    assert got == want, setup.dp
    if want is not ValueError:
        assert got.witness.section == want.witness.section, setup.dp


@pytest.mark.parametrize("name", sorted(builtin_setups()))
def test_builtin_d_upper_matches_reference(name):
    assert_d_upper_matches_reference(builtin_setups()[name])


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2), (7, 2), (5, 3)])
def test_scaled_threefold_d_upper_matches_reference(p, k):
    # Scaled hexagons are not rectangles, and at p = 5, k = 3 the box is
    # wider than q - 2.
    assert_d_upper_matches_reference(EvaluationSetup.build(threefold_example(p).scale(k)))


def test_small_d_upper_matches_reference():
    rng = random.Random(801)
    seen = 0
    while seen < 60:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        assert_d_upper_matches_reference(setup)
        seen += 1


def test_small_plane_codes_match_reference():
    # Rectangle boxes whose affine slices slope along one or both axes: rows
    # and selection, and d_upper against the reference that weighs every
    # certificate against the full table.
    rng = random.Random(805)
    seen = mixed = 0
    while seen < 60:
        setup = small_plane_code_instance(rng)
        if setup is None:
            continue
        assert_code_matches_reference(setup)
        assert_d_upper_matches_reference(setup)
        seen += 1
        mixed += any(any(v) and not all(v) for v, _ in setup.twists)
    assert mixed >= 30


def viable_boxes(setup):
    """Each sub-box B with a positive formula bound, with its (c, r0) and
    certificate divisor D, from the slices evaluated at every cell of B."""
    dp, l, q, g = setup.dp, setup.l, setup.q, setup.curve.genus
    stored = dp.stored_points()
    out = []
    for B in reference_sub_boxes(dp, q):
        cells = list(itertools.product(*(range(s, t + 1) for s, t in B)))
        c = tuple(math.floor(min(dp.slice_at(Q).evaluate(u) for u in cells)) for Q in stored)
        r0 = max(0, min(sum(c) - g, l))
        if (l - r0) * math.prod(q - 1 - (t - s) for s, t in B) > 0:
            D = Divisor(dict(zip(stored, c))) - Divisor(dict.fromkeys(setup.points[:r0], 1))
            out.append((B, (c, r0), D))
    return out


def test_d_upper_one_basis_per_divisor(monkeypatch):
    # On the surface code, sub-boxes with equal floored slice minima and r0
    # share their divisor, so there are fewer distinct divisors than boxes,
    # and each distinct one has its dimension taken once. No basis is built
    # until the witness's section is read, and then exactly one.
    setup = surface_code_setup()
    boxes = viable_boxes(setup)
    divisors = {key: D for _, key, D in boxes}
    assert len(divisors) < len(boxes)
    calls, dims = [], []
    dimension = codes.rr_dimension

    def counting(curve, D):
        calls.append(D)
        return riemann_roch_basis(curve, D)

    def counting_dims(curve, degree, divisor):
        dims.append(degree)
        return dimension(curve, degree, divisor)

    monkeypatch.setattr(codes, "riemann_roch_basis", counting)
    monkeypatch.setattr(codes, "rr_dimension", counting_dims)
    got = d_upper(setup)
    assert (calls, len(dims)) == ([], len(divisors))
    want = reference_d_upper(setup)
    assert got == want
    for _ in range(2):
        assert got.witness.section == want.witness.section
        assert calls == [got.witness.divisor]


def test_flat_count_matches_the_evaluated_section():
    # On every viable (c, r0), L(D) has dimension at most 1, and the flat
    # points off the certificate's zeros, as `_nonzero_points` counts them
    # from D (the first r0 points and, when deg D = 1, the group sum of D),
    # are the ones where `_section_values` reads a nonzero value.
    setups = list(builtin_setups().values()) + [kernel_setup(*args) for args in KERNEL_SETUPS]
    rng = random.Random(803)
    drawn = 0
    while drawn < 60:
        setup = small_code_instance(rng)
        if setup is not None:
            setups.append(setup)
            drawn += 1
    counted = degree_one = 0
    for setup in setups:
        flat = [tuple(a == 0 for a in v) for v, _ in setup.twists]
        for (c, r0), D in {key: D for _, key, D in viable_boxes(setup)}.items():
            basis = riemann_roch_basis(setup.curve, D)
            assert len(basis) <= 1, D
            if basis:
                nonzero = codes._nonzero_points(setup, flat, c, r0)
                flat_count = sum(count for axes, count in nonzero if all(axes))
                assert flat_count == flat_nonzero(setup, basis[0]), D
                counted += 1
                degree_one += D.degree() == 1
    assert counted >= 200 and degree_one >= 100


def test_d_upper_builds_no_section_until_the_witness_is_read(monkeypatch):
    # `d_upper` builds no Riemann-Roch basis and evaluates no section on any
    # setup, sloped ones included, and takes one dimension per distinct
    # (c, r0), which boxes share. Reading the witness's section builds the
    # one basis behind it, once.
    built, evaluated, dims = [], [], []
    basis, dimension = codes.riemann_roch_basis, codes.rr_dimension
    monkeypatch.setattr(codes, "riemann_roch_basis", lambda curve, D: built.append(D) or basis(curve, D))
    monkeypatch.setattr(codes, "rr_dimension", lambda *args: dims.append(args) or dimension(*args))
    monkeypatch.setattr(codes, "_section_values", lambda *args: evaluated.append(args))
    sloped = shared = 0
    for setup in d_upper_setups(804, 40, 20):
        dims.clear()
        got = _outcome(d_upper, setup)
        boxes = viable_boxes(setup)
        keys = {key for _, key, _ in boxes}
        assert (built, evaluated, len(dims)) == ([], [], len(keys))
        shared += len(keys) < len(boxes)
        if got is ValueError:
            continue
        for _ in range(2):
            assert got.witness.section == riemann_roch_basis(setup.curve, got.witness.divisor)[0]
            assert built == [got.witness.divisor]
        built.clear()
        sloped += bool(setup._twist_arrays[0].any())
    assert sloped >= 20 and shared >= 20


def test_d_upper_ties_go_to_the_first_box_in_bound_order():
    # Of the lightest certificates, `d_upper` keeps the first in order of
    # formula bound, then sub-box. On some draws that is not the first of
    # them in sub-box order.
    rng = random.Random(817)
    drawn = reordered = 0
    while drawn < 60:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        drawn += 1
        boxes = []
        for B, (_, r0), D in viable_boxes(setup):
            basis = riemann_roch_basis(setup.curve, D)
            if basis:
                bound = (setup.l - r0) * math.prod(setup.q - 1 - (t - s) for s, t in B)
                boxes.append((reference_witness_weight(setup, B, basis[0]), bound, B))
        least = min(weight for weight, _, _ in boxes if weight is not None)
        lightest = [(bound, B) for weight, bound, B in boxes if weight == least]
        assert d_upper(setup).witness.sub_box == min(lightest)[1]
        reordered += min(lightest) != lightest[0]
    assert reordered >= 2


@pytest.mark.parametrize("name", sorted(builtin_setups()))
def test_builtin_k_bounds_match_reference(name):
    dp = builtin_setups()[name].dp
    assert k_bounds(dp) == reference_k_bounds(dp)


def test_small_k_bounds_match_reference():
    rng = random.Random(802)
    seen = 0
    while seen < 30:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        assert k_bounds(setup.dp) == reference_k_bounds(setup.dp)
        seen += 1
