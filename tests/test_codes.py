"""Tests for evaluation codes: construction, parameters, and bounds."""

import random

import pytest

from tcodes import (
    INFINITY,
    BudgetExceeded,
    Curve,
    CurvePoint,
    EvaluationSetup,
    MatrixFp,
    admissible_points,
    build_code,
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
    assert code.generator().nrows == 8
    assert code.matrix().ncols == 66
    assert len(code.row_labels) == code.matrix().nrows


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
    from tcodes import ConcavePL, DivisorialPolytope, LatticePolytope

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
    assert (gen.nrows, gen.ncols) == (3, 6)
    assert d_exact(gen) == 4
    with pytest.raises(ValueError):
        reed_solomon_generator(7, 7)


def test_one_point_ag():
    points = [P for P in E7.rational_points() if not P.is_infinity]
    gen = one_point_ag_generator(E7, 3, points)
    assert (gen.nrows, gen.ncols) == (3, 12)
    assert d_exact(gen) >= 9


def test_kronecker_generator():
    A = reed_solomon_generator(7, 2)
    B = reed_solomon_generator(7, 3)
    K = kronecker_generator(A, B)
    assert (K.nrows, K.ncols) == (6, 36)
    assert K.rank() == 6
    # Product-code distance is multiplicative for Reed-Solomon factors.
    assert d_exact(K) == d_exact(A) * d_exact(B)


def test_toric_generator_matches_setup():
    pts = toric_comparison_example(7)
    lattice = []
    for u in range(3):
        top = pts.deg_at((u,))
        lattice.extend((u, v) for v in range(int(top) + 1))
    gen = toric_generator(7, lattice)
    assert gen.nrows == 7
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
        assert closed["lambda0"] == max(dp.floor_deg_at(u) for u in dp.lattice_points())


def test_compare_with_product_frozen():
    points = E7.rational_points()
    got = compare_with_product(E7, 3, 3, points)
    assert (got.a, got.alpha, got.b) == (2, 1, 2)
    assert (got.k_product, got.d_product) == (9, 40)
    assert (got.k_tcode, got.d_tcode) == (9, 44)
    assert got.k_matches and got.d_strictly_better


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
