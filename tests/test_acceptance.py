"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Every criterion pins its agreed target values and asserts them as stated.
Three targets contradict the exact computation (criteria 2, 6, and 7); those
tests print FAIL with the computed truth and then fail honestly. The
corrected statements, with the domains on which they hold, are covered by
the regular suites, in particular tests/test_properties.py.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines
for passing criteria too.
"""

import random
import time
from fractions import Fraction

from tcodes import (
    INFINITY,
    ConcavePL,
    Curve,
    CurvePoint,
    DivisorialPolytope,
    LatticePolytope,
    SupportFunctionSlice,
    build_code,
    compare_with_product,
    d_exact,
    d_lower,
    d_lower_surface,
    d_upper,
    euler_characteristic,
    floor_sum_over_lattice,
    genus_of_section,
    graded_sections,
    hasse_weil_diagnostic,
    intersection_number,
    is_principal,
    k_bounds,
    mixed_volume,
    nu,
    parse,
    point_divisor_dual,
    riemann_roch_basis,
    ruled_closed_forms,
    ruled_divpoly,
    self_intersection,
    signed_ceiling_interior_sum,
    toric_generator,
    toric_polytope,
    validate,
    volume,
    weight_enumerator,
    weil_divisor,
)
from tcodes.instances import (
    marked_point_pair,
    record_example,
    standard_elliptic,
    surface_code_setup,
    surface_example,
    threefold_example,
    toric_comparison_example,
    toric_comparison_setup,
)

from test_properties import (
    floor_degree,
    random_divisor,
    random_divpoly,
    random_lattice_slice,
    slice_values,
    small_code_instance,
)

E7 = standard_elliptic()
Q1, Q2 = marked_point_pair(E7)
SURFACE = surface_example(E7)


def announce(n: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def finish(n: int, t0: float, limit: float, problems: list[str]) -> None:
    elapsed = time.monotonic() - t0
    if elapsed >= limit:
        problems.append(f"runtime {elapsed:.2f}s exceeds {limit:.0f}s")
    detail = "; ".join(problems) if problems else f"{elapsed:.2f}s"
    announce(n, not problems, detail)
    assert not problems, problems


def test_criterion_01_surface_invariants():
    t0 = time.monotonic()
    problems = []
    s1 = SupportFunctionSlice([((0,), 0), ((4,), 2)]).dual()
    if any(s1.evaluate(u) != Fraction(u, 2) for u in range(5)) or s1.evaluate(
        Fraction(1, 2)
    ) != Fraction(1, 4):
        problems.append("first slice is not u/2")
    s2 = SupportFunctionSlice([((0,), 0), ((2,), 2), ((3,), 1), ((4,), -1)]).dual()
    if s2 != SURFACE.slice_at(Q2) or [s2.evaluate(u) for u in range(5)] != [0, 1, 2, 1, -1]:
        problems.append("second slice table mismatch")
    if self_intersection(SURFACE) != 15:
        problems.append(f"self-intersection {self_intersection(SURFACE)} != 15")
    w = weil_divisor(SURFACE)
    ray_nonzero = sorted(t.coefficient for t in w.ray_terms if t.coefficient)
    vert_nonzero = sorted(t.coefficient for t in w.vertex_terms if t.coefficient)
    if ray_nonzero != [4] or vert_nonzero != [4, 7]:
        problems.append(f"coefficient multiset {ray_nonzero} / {vert_nonzero}")
    if w.vertex_coefficient(Q1, (Fraction(1, 2),)) != 0:
        problems.append("expected zero coefficient at (Q1, 1/2)")
    if genus_of_section(SURFACE)[:2] != (5, 4):
        problems.append(f"genus form {genus_of_section(SURFACE)}")
    if euler_characteristic(SURFACE)[:2] != (12, -5):
        problems.append(f"euler form {euler_characteristic(SURFACE)}")
    finish(1, t0, 1.0, problems)


def test_criterion_02_threefold_volume_and_weil():
    t0 = time.monotonic()
    problems = []
    dp = threefold_example()
    w = weil_divisor(dp)
    for v in ((0, 0), (-1, -1)):
        if w.vertex_coefficient(INFINITY, v) != 2:
            problems.append(f"vertex coefficient at (infinity, {v}) is not 2")
    vol = volume(dp)
    if vol != 21:
        problems.append(f"slice-integral total is {vol}, pinned value is 21")
    finish(2, t0, 1.0, problems)


def test_criterion_03_elliptic_code_parameters():
    t0 = time.monotonic()
    problems = []
    if len(E7.rational_points()) != 13:
        problems.append("point count != 13")
    setup = surface_code_setup()
    code = build_code(setup)
    if (setup.n, code.k) != (66, 8):
        problems.append(f"(n, k) = {(setup.n, code.k)} != (66, 8)")
    if [nu(SURFACE, lam) for lam in range(4)] != [4, 3, 1, 0]:
        problems.append("nu profile mismatch")
    if max(floor_degree(SURFACE, u) for u in SURFACE.lattice_points()) != 3:
        problems.append("lambda0 != 3")
    lo, hi = d_lower(setup).value, d_upper(setup).value
    if (lo, hi) != (22, 33):
        problems.append(f"distance bounds {(lo, hi)} != (22, 33)")
    exact = d_exact(code.generator())
    if not lo <= exact <= hi:
        problems.append(f"exact distance {exact} outside [{lo}, {hi}]")
    finish(3, t0, 300.0, problems)


def test_criterion_04_hasse_weil_diagnostic():
    t0 = time.monotonic()
    problems = []
    rep = hasse_weil_diagnostic(SURFACE)
    if (rep.genus, rep.threshold_q) != (9, 89):
        problems.append(f"(genus, threshold) = {(rep.genus, rep.threshold_q)} != (9, 89)")
    finish(4, t0, 1.0, problems)


def test_criterion_05_toric_cross_check():
    t0 = time.monotonic()
    problems = []
    hull = toric_polytope(SURFACE.slice_at(Q1), SURFACE.slice_at(Q2))
    if hull != LatticePolytope([(0, 0), (2, -2), (3, -1), (4, 1), (4, 2)]):
        problems.append(f"toric hull {hull} mismatch")
    for q in (5, 7):
        setup = toric_comparison_setup(q)
        enum_t = weight_enumerator(build_code(setup).generator())
        dp = toric_comparison_example(q)
        lattice = []
        for u in range(3):
            lattice.extend((u, v) for v in range(int(sum(slice_values(dp, (u,)).values())) + 1))
        enum_toric = weight_enumerator(toric_generator(q, lattice))
        if enum_t != enum_toric:
            problems.append(f"enumerators differ at q={q}")
    finish(5, t0, 120.0, problems)


def test_criterion_06_property_suites():
    t0 = time.monotonic()
    problems = []

    rng = random.Random(601)
    for _ in range(120):
        s = random_lattice_slice(rng, 0, rng.randint(2, 6))
        lhs = 2 * s.integral()
        rhs = signed_ceiling_interior_sum(s) + floor_sum_over_lattice(s)
        if lhs != rhs:
            problems.append(
                f"per-slice lattice identity fails at {s}: 2*vol={lhs}, counts={rhs}"
            )
            break

    pinned_eq = DivisorialPolytope(
        E7,
        LatticePolytope.interval(0, 4),
        {
            Q1: ConcavePL.from_graph_points([((0,), 0), ((4,), 2)]),
            INFINITY: ConcavePL.from_graph_points([((0,), 1), ((4,), 0)]),
        },
    )
    down = [((0,), 0), ((4,), -1)]
    pinned_cap = DivisorialPolytope(
        E7,
        LatticePolytope.interval(0, 4),
        {
            CurvePoint.affine(1, 2, 7): ConcavePL.from_graph_points(down),
            CurvePoint.affine(2, 2, 7): ConcavePL.from_graph_points(down),
            CurvePoint.affine(3, 3, 7): ConcavePL.from_graph_points(down),
            CurvePoint.affine(4, 2, 7): ConcavePL.from_graph_points([((0,), 0), ((4,), 3)]),
        },
    )
    instances = [pinned_eq, pinned_cap]
    instances += [random_divpoly(rng, rng.choice([E7, Curve.p1(7)])) for _ in range(120)]
    for dp in instances:
        assert validate(dp).ok
        kb = k_bounds(dp)
        k = graded_sections(dp).total_dim
        if not kb.lower <= kb.gamma <= k <= kb.upper:
            problems.append(
                f"dimension sandwich fails: lower={kb.lower}, gamma={kb.gamma}, "
                f"k={k}, upper={kb.upper} on {dp}"
            )
            break
        if kb.equality_case and k != kb.lower:
            problems.append(f"equality case fails: k={k} != lower={kb.lower} on {dp}")
            break

    for curve in (Curve.p1(7), E7):
        g = curve.genus
        for _ in range(110):
            D = random_divisor(rng, curve)
            dim = len(riemann_roch_basis(curve, D))
            deg = int(D.degree())
            want = None
            if deg < 0:
                want = 0
            elif g == 0:
                want = deg + 1
            elif deg > 0:
                want = deg
            else:
                want = 1 if is_principal(curve, D) else 0
            if dim != want:
                problems.append(f"section dimension {dim} != {want} for {D}")
                break

    for _ in range(110):
        lo = rng.randint(-3, 0)
        f = random_lattice_slice(rng, lo, lo + rng.randint(2, 6))
        if SupportFunctionSlice(f.vertices).dual() != f:
            problems.append(f"duality round trip fails on {f}")
            break

    for _ in range(105):
        dp = random_divpoly(rng, rng.choice([E7, Curve.p1(7)]))
        if mixed_volume([dp, dp]) != volume(dp):
            problems.append(f"polarization fails on {dp}")
            break
        vals = {
            intersection_number([dp, point_divisor_dual(dp.curve, P)])
            for P in rng.sample(dp.curve.rational_points(), 3)
        }
        if vals != {dp.box.volume()}:
            problems.append(f"point-divisor pairing {vals} != box volume on {dp}")
            break

    checked = 0
    while checked < 30:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        code = build_code(setup)
        if code.k == 0:
            continue
        exact = d_exact(code.generator())
        if not d_lower(setup).value <= exact <= d_upper(setup).value:
            problems.append(f"distance sandwich fails on {setup.dp}")
            break
        checked += 1

    finish(6, t0, 180.0, problems)


def test_criterion_07_ruled_family_forms_and_claims():
    t0 = time.monotonic()
    problems = []
    rng = random.Random(701)

    mismatches = 0
    for _ in range(200):
        curve = rng.choice([Curve.p1(5), Curve.p1(7), E7])
        g = curve.genus
        a = rng.randint(0, 3)
        alpha = rng.randint(0, 2)
        b = rng.randint(max(0, 2 * g - 1), 4)
        dp = ruled_divpoly(curve, a, alpha, b)
        l = rng.randint(1, len(curve.rational_points()))
        q = curve.p
        closed = ruled_closed_forms(a, alpha, b, l, q, g)
        lam0 = max(floor_degree(dp, u) for u in dp.lattice_points())
        if closed["lambda0"] != lam0:
            mismatches += 1
        if closed["d_lower"] != d_lower_surface(dp, l, q).value:
            mismatches += 1
        if closed["k"] != graded_sections(dp).total_dim:
            mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} closed-form mismatches")

    pinned = [(E7, 3, 6, 7)]
    sweep = list(pinned)
    while len(sweep) < 200:
        curve = rng.choice([Curve.p1(5), Curve.p1(7), E7])
        q, g = curve.p, curve.genus
        k1 = rng.randint(1, min(4, q - 1))
        a = k1 - 1
        alpha = 1 if a % 2 == 0 else 2
        tau = rng.randint(max(1, (alpha * a + 1) // 2), 8)
        if tau - alpha * a // 2 <= 2 * g - 2:
            continue
        l = rng.randint(q + g - 1, len(curve.rational_points()))
        sweep.append((curve, k1, tau, l))
    k_bad = []
    d_bad = []
    for curve, k1, tau, l in sweep:
        got = compare_with_product(curve, k1, tau, curve.rational_points()[:l])
        if not got.k_matches:
            k_bad.append((curve.p, curve.genus, k1, tau, l))
        if not got.d_tcode >= got.d_product:
            d_bad.append((curve.p, curve.genus, k1, tau, l, got.d_tcode, got.d_product))
    if k_bad:
        problems.append(f"dimension claim fails on {k_bad[:3]}")
    if d_bad:
        problems.append(
            f"distance claim fails on {len(d_bad)} of {len(sweep)} tuples with "
            f"l >= q+g-1, e.g. (p, g, k1, tau, l, d, d_product) = {d_bad[0]}"
        )
    finish(7, t0, 60.0, problems)


RECORD_TEXT = """\
field p=7
curve elliptic A=0 B=3
point Q1 = (1,2)
box [0,4]
hstar Q1 : (0,3) (2,5) (4,3)
eval all-admissible
"""

RECORD_TEXT_FRACTIONAL = """\
field p=7
curve elliptic A=0 B=3
point Q1 = (1,2)
box [0,4]
hstar Q1 : (0,3) (4,5)
eval all-admissible
"""


def test_criterion_08_record_dimension():
    t0 = time.monotonic()
    problems = []
    setup = record_example()
    code = build_code(setup)
    if (setup.n, code.k) != (66, 19):
        problems.append(f"(n, k) = {(setup.n, code.k)} != (66, 19)")
    kb = k_bounds(setup.dp)
    if not (kb.equality_case and kb.lower == 19):
        problems.append(f"equality-case bound {kb} does not give 19")
    for text in (RECORD_TEXT, RECORD_TEXT_FRACTIONAL):
        spec = parse(text)
        dp = spec.to_polytope()
        kb2 = k_bounds(dp)
        if not (kb2.equality_case and kb2.lower == 19):
            problems.append("user-supplied instance does not reach 19")
        if build_code(spec.to_setup()).k != 19:
            problems.append("user-supplied instance rank != 19")
    finish(8, t0, 120.0, problems)
