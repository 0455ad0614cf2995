"""Tests for curves, divisors, valuations, and Riemann-Roch spaces."""

import random
from fractions import Fraction
from math import floor

import pytest

from tcodes import (
    INFINITY,
    Curve,
    CurvePoint,
    Divisor,
    FunctionFieldElement,
    Poly,
    divisor_of,
    evaluate,
    is_principal,
    leading_coefficient,
    riemann_roch_basis,
    twisted_evaluate,
    valuation,
)
from tcodes.algebra import MatrixFp, inv_mod
from tcodes.curve import (
    _anchor_rows,
    _echelonize_vectors,
    _points_above,
    _poly_on_series,
    _rr_kernel,
    _series_mul,
    local_expansions,
)

E7 = Curve.elliptic(7, 0, 3)
L7 = Curve.p1(7)


def effective(D: Divisor) -> bool:
    return all(c >= 0 for c in D.coeffs.values())


def x_coord(curve: Curve) -> FunctionFieldElement:
    return FunctionFieldElement(curve, Poly([0, 1], curve.p), Poly([], curve.p), Poly([1], curve.p))


def y_coord(curve: Curve) -> FunctionFieldElement:
    return FunctionFieldElement(curve, Poly([], curve.p), Poly([1], curve.p), Poly([1], curve.p))


def rational_function(curve: Curve, num: list[int], den: list[int]) -> FunctionFieldElement:
    return FunctionFieldElement(curve, Poly(num, curve.p), Poly([], curve.p), Poly(den, curve.p))


def test_curve_constructors_and_validation():
    assert L7.is_p1 and L7.genus == 0
    assert not E7.is_p1 and E7.genus == 1
    with pytest.raises(ValueError):
        Curve.elliptic(7, 0, 0)
    with pytest.raises(ValueError):
        Curve.elliptic(3, 1, 1)
    with pytest.raises(ValueError):
        Curve("cubic", 7)


def test_rational_points_frozen():
    pts = E7.rational_points()
    assert len(pts) == 13 and E7.point_count() == 13
    affine = [(P.x, P.y) for P in pts if not P.is_infinity]
    assert affine == [
        (1, 2), (1, 5), (2, 2), (2, 5), (3, 3), (3, 4),
        (4, 2), (4, 5), (5, 3), (5, 4), (6, 3), (6, 4),
    ]
    assert pts[-1].is_infinity
    assert all(E7.contains(P) for P in pts)
    assert not E7.contains(CurvePoint.affine(0, 1, 7))

    line_pts = L7.rational_points()
    assert len(line_pts) == 8
    assert all(P.y == 0 or P.is_infinity for P in line_pts)



def test_rational_points_and_contains_match_a_brute_force_scan():
    # Oracle: every (x, y) tested through the `Poly` route, the points sorted
    # afterwards; the library lists them in order and tests y^2 = x^3 + Ax + B
    # inline.
    primes = [p for p in range(5, 102) if all(p % d for d in range(2, p))]
    for p in primes:
        for curve in (Curve.p1(p), Curve.elliptic(p, 0, 3)):
            cubic = curve.rhs()

            def on_curve(x, y):
                return y == 0 if curve.is_p1 else (y * y - cubic.evaluate(x)) % p == 0

            brute = sorted(
                (CurvePoint.affine(x, y, p) for x in range(p) for y in range(p) if on_curve(x, y)),
                key=CurvePoint.sort_key,
            )
            assert curve.rational_points() == brute + [INFINITY], (curve.kind, p)
            for x in range(p):
                for y in range(p):
                    assert curve.contains(CurvePoint.affine(x, y, p)) == on_curve(x, y), (curve.kind, p, x, y)


def test_group_law_samples():
    P = CurvePoint.affine(1, 2, 7)
    assert E7.group_add(P, P) == CurvePoint.affine(6, 3, 7)
    assert E7.group_neg(P) == CurvePoint.affine(1, 5, 7)
    assert E7.group_add(P, E7.group_neg(P)) == INFINITY
    assert E7.group_add(INFINITY, P) == P
    assert E7.group_multiple(13, P) == INFINITY
    for k in range(1, 13):
        assert E7.group_multiple(k, P) != INFINITY


def test_group_law_properties():
    rng = random.Random(11)
    pts = E7.rational_points()
    for _ in range(40):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert E7.group_add(P, Q) == E7.group_add(Q, P)
        assert E7.group_add(E7.group_add(P, Q), R) == E7.group_add(P, E7.group_add(Q, R))
        assert E7.contains(E7.group_add(P, Q))


def test_is_principal():
    P = CurvePoint.affine(1, 2, 7)
    negP = CurvePoint.affine(1, 5, 7)
    assert is_principal(E7, Divisor({}))
    assert not is_principal(E7, Divisor({P: 1, INFINITY: -1}))
    assert is_principal(E7, Divisor({P: 13, INFINITY: -13}))
    assert is_principal(E7, Divisor({P: 1, negP: 1, INFINITY: -2}))
    assert not is_principal(E7, Divisor({P: 1}))
    with pytest.raises(ValueError):
        is_principal(E7, Divisor({P: Fraction(1, 2)}))


def test_valuations_on_elliptic():
    P, negP = CurvePoint.affine(1, 2, 7), CurvePoint.affine(1, 5, 7)
    x = x_coord(E7)
    y = y_coord(E7)
    x_minus_1 = x - FunctionFieldElement.one(E7)
    assert valuation(E7, x_minus_1, P) == 1
    assert valuation(E7, x_minus_1, negP) == 1
    assert valuation(E7, x_minus_1, INFINITY) == -2
    assert valuation(E7, y, INFINITY) == -3
    y_minus_2 = y - FunctionFieldElement.constant(E7, 2)
    for Q in [(1, 2), (2, 2), (4, 2)]:
        assert valuation(E7, y_minus_2, CurvePoint.affine(*Q, 7)) == 1
    assert valuation(E7, y_minus_2, INFINITY) == -3
    D = divisor_of(E7, y_minus_2, E7.rational_points())
    assert D.degree() == 0
    assert D == Divisor({
        CurvePoint.affine(1, 2, 7): 1,
        CurvePoint.affine(2, 2, 7): 1,
        CurvePoint.affine(4, 2, 7): 1,
        INFINITY: -3,
    })


def test_valuations_on_line():
    f = rational_function(L7, [6, 0, 1], [4, 1])  # (x^2 - 1) / (x + 4)
    assert valuation(L7, f, CurvePoint.affine(1, 0, 7)) == 1
    assert valuation(L7, f, CurvePoint.affine(6, 0, 7)) == 1
    assert valuation(L7, f, CurvePoint.affine(3, 0, 7)) == -1
    assert valuation(L7, f, INFINITY) == -1
    D = divisor_of(L7, f, L7.rational_points())
    assert D.degree() == 0
    with pytest.raises(ValueError):
        valuation(L7, FunctionFieldElement.zero(L7), INFINITY)
    with pytest.raises(ValueError):
        valuation(E7, x_coord(E7), CurvePoint.affine(0, 1, 7))


def test_leading_coefficients_and_twisted_evaluate():
    P = CurvePoint.affine(1, 2, 7)
    x = x_coord(E7)
    y = y_coord(E7)
    assert evaluate(E7, x - FunctionFieldElement.one(E7), CurvePoint.affine(2, 2, 7)) == 1
    # x/y is regular at (1,2) with value 1/2 = 4 mod 7.
    ratio = FunctionFieldElement(E7, Poly([0, 1], 7), Poly([], 7), Poly([1], 7))
    ratio = ratio * _invert_y()
    assert evaluate(E7, ratio, P) == 4
    # Twisting by the pole order recovers the leading coefficient.
    for f in [x, y, x - FunctionFieldElement.one(E7)]:
        for Q in [P, CurvePoint.affine(3, 4, 7), INFINITY]:
            v = valuation(E7, f, Q)
            lead = leading_coefficient(E7, f, Q)
            assert lead != 0
            assert twisted_evaluate(E7, f, Q, -v) == lead
            assert twisted_evaluate(E7, f, Q, -v + 1) == 0
            if v < 0:
                with pytest.raises(ValueError):
                    twisted_evaluate(E7, f, Q, 0)
    assert leading_coefficient(E7, x, INFINITY) == 1
    assert twisted_evaluate(E7, FunctionFieldElement.zero(E7), P, -5) == 0


def _invert_y() -> FunctionFieldElement:
    # 1/y = y / (x^3 + 3) on y^2 = x^3 + 3.
    return FunctionFieldElement(E7, Poly([], 7), Poly([1], 7), Poly([3, 0, 0, 1], 7))


def test_riemann_roch_dimensions_elliptic():
    O = INFINITY
    P = CurvePoint.affine(1, 2, 7)
    assert len(riemann_roch_basis(E7, Divisor({}))) == 1
    assert len(riemann_roch_basis(E7, Divisor({O: 1}))) == 1
    assert len(riemann_roch_basis(E7, Divisor({O: 2}))) == 2
    basis = riemann_roch_basis(E7, Divisor({O: 3}))
    assert len(basis) == 3
    assert sorted(valuation(E7, f, O) for f in basis) == [-3, -2, 0]
    assert len(riemann_roch_basis(E7, Divisor({P: 2, O: 2}))) == 4
    assert riemann_roch_basis(E7, Divisor({P: 1, O: -2})) == []
    # Degree zero: principal class has a section, non-principal has none.
    assert riemann_roch_basis(E7, Divisor({P: 1, O: -1})) == []
    negP = CurvePoint.affine(1, 5, 7)
    pair = riemann_roch_basis(E7, Divisor({P: 1, negP: 1, O: -2}))
    assert len(pair) == 1


def test_riemann_roch_dimensions_line():
    for k in range(5):
        assert len(riemann_roch_basis(L7, Divisor({INFINITY: k}))) == k + 1
    origin = CurvePoint.affine(0, 0, 7)
    basis = riemann_roch_basis(L7, Divisor({origin: 2}))
    assert len(basis) == 3
    assert sorted(valuation(L7, f, origin) for f in basis) == [-2, -1, 0]
    with pytest.raises(ValueError):
        riemann_roch_basis(L7, Divisor({INFINITY: Fraction(1, 2)}))


def test_riemann_roch_membership():
    rng = random.Random(23)
    pts = E7.rational_points()
    for _ in range(25):
        support = rng.sample(pts, rng.randint(1, 3))
        D = Divisor({P: rng.randint(-1, 3) for P in support})
        if not D.is_integral():
            continue
        for f in riemann_roch_basis(E7, D):
            div_f = divisor_of(E7, f, pts)
            assert effective(div_f + D)


def test_divisor_arithmetic():
    P = CurvePoint.affine(1, 2, 7)
    D = Divisor({P: 2, INFINITY: -1})
    assert D.degree() == 1
    assert (D + D).degree() == 2
    assert (D - D).is_zero()
    assert D.scale(3)[P] == 6
    half = D.scale(Fraction(1, 2))
    assert not half.is_integral()
    assert half.floor() == Divisor({P: 1, INFINITY: -1})
    assert not effective(D)
    assert effective(Divisor({P: 2}))


class ReferenceDivisor:
    """The former `Divisor`: every coefficient a `Fraction`."""

    def __init__(self, coeffs):
        self.coeffs = {P: Fraction(c) for P, c in coeffs.items() if Fraction(c) != 0}

    def __getitem__(self, P):
        return self.coeffs.get(P, Fraction(0))

    def degree(self):
        return sum(self.coeffs.values(), Fraction(0))

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs.values())

    def __add__(self, other):
        out = dict(self.coeffs)
        for P, c in other.coeffs.items():
            out[P] = out.get(P, Fraction(0)) + c
        return ReferenceDivisor(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, k):
        return ReferenceDivisor({P: c * k for P, c in self.coeffs.items()})

    def floor(self):
        return ReferenceDivisor({P: floor(c) for P, c in self.coeffs.items()})

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        items = sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())
        return " + ".join(f"{c}*{P.render()}" for P, c in items)


def test_divisor_matches_the_fraction_reference():
    # Integral coefficients are stored as ints, others as Fractions; every
    # operation gives what the all-Fraction former class gives: the same
    # numbers, hashes and text, and D[P] = 0 for a point off the support.
    rng = random.Random(2701)
    pts = E7.rational_points()
    missing = CurvePoint.affine(1, 1, 7)  # off E7, so in no support

    def coefficient():
        den = rng.choice([1, 1, 2, 3, 4])
        c = Fraction(rng.randint(-9, 9), den)
        return int(c) if den == 1 and rng.random() < 0.5 else c

    def divisors():
        coeffs = {P: coefficient() for P in rng.sample(pts, rng.randint(0, 4))}
        return Divisor(coeffs), ReferenceDivisor(coeffs)

    def check(got, want):
        assert got.coeffs == want.coeffs and repr(got) == repr(want)
        assert hash(frozenset(got.coeffs.items())) == hash(frozenset(want.coeffs.items()))
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in got.coeffs.values())
        assert got.is_integral() == want.is_integral()
        assert got.degree() == want.degree() and hash(got.degree()) == hash(want.degree())
        assert str(got.degree()) == str(want.degree())
        for P in [*pts, missing]:
            assert got[P] == want[P] and hash(got[P]) == hash(want[P])
        assert got[missing] == 0

    fractional = integral = equal = 0
    for _ in range(300):
        (A, RA), (B, RB) = divisors(), divisors()
        if rng.random() < 0.2:
            # The same numbers held as the other type.
            B = Divisor({P: Fraction(c) if type(c) is int else c for P, c in A.coeffs.items()})
            RB = ReferenceDivisor(RA.coeffs)
        k = coefficient()
        for got, want in ((A, RA), (A + B, RA + RB), (A - B, RA - RB), (A.scale(k), RA.scale(k)), (A.floor(), RA.floor())):
            check(got, want)
        assert (A == B) == (RA == RB) and A == Divisor(RA.coeffs)
        equal += A == B
        fractional += not A.is_integral()
        integral += A.is_integral() and not A.is_zero()
    assert equal >= 40 and fractional >= 100 and integral >= 40


def test_leading_coefficient_rejects_points_off_the_curve():
    with pytest.raises(ValueError, match="not on the curve"):
        leading_coefficient(E7, x_coord(E7), CurvePoint.affine(1, 1, 7))
    with pytest.raises(ValueError, match="not on the curve"):
        leading_coefficient(L7, x_coord(L7), CurvePoint.affine(2, 3, 7))


# -- reference implementations ----------------------------------------------
# The two-branch Riemann-Roch construction and the separate order and
# leading-coefficient routines that the shared local-expansion kernel
# replaced, kept as test oracles. They read the curve kind and P.y directly.


def reference_numerator_valuation_affine(curve, a, b, P):
    p = curve.p
    if curve.kind == "p1":
        return a.multiplicity(P.x)
    if b.is_zero():
        e = 1 if P.y != 0 else 2
        return e * a.multiplicity(P.x)
    if a.is_zero():
        if P.y != 0:
            return b.multiplicity(P.x)
        return 2 * b.multiplicity(P.x) + 1
    if P.y == 0:
        return min(2 * a.multiplicity(P.x), 2 * b.multiplicity(P.x) + 1)
    w = min(a.multiplicity(P.x), b.multiplicity(P.x))
    root = Poly.x_minus(P.x, p)
    a1, b1 = a, b
    for _ in range(w):
        a1, b1 = a1 // root, b1 // root
    if (a1.evaluate(P.x) + b1.evaluate(P.x) * P.y) % p != 0:
        return w
    norm = a1 * a1 - b1 * b1 * curve.rhs()
    assert (a1.evaluate(P.x) - b1.evaluate(P.x) * P.y) % p != 0
    return w + norm.multiplicity(P.x)


def reference_infinity_valuation_parts(curve, f):
    if curve.kind == "p1":
        return -f.a.degree, -f.c.degree
    cands = []
    if not f.a.is_zero():
        cands.append(-2 * f.a.degree)
    if not f.b.is_zero():
        cands.append(-3 - 2 * f.b.degree)
    return min(cands), -2 * f.c.degree


def reference_numerator_series(curve, a, b, P, prec):
    xs, ys = local_expansions(curve, P, prec)
    out = _poly_on_series(a, xs, prec, curve.p)
    if not b.is_zero():
        bs = _poly_on_series(b, xs, prec, curve.p)
        by = _series_mul(bs, ys, prec, curve.p)
        out = [(u + v) % curve.p for u, v in zip(out, by)]
    return out


def reference_valuation(curve, f, P):
    if f.is_zero():
        raise ValueError("the zero function has no valuation")
    if not curve.contains(P):
        raise ValueError(f"{P.render()} is not on the curve")
    if P.is_infinity:
        num, den = reference_infinity_valuation_parts(curve, f)
        return num - den
    num = reference_numerator_valuation_affine(curve, f.a, f.b, P)
    if curve.kind == "p1":
        den = f.c.multiplicity(P.x)
    else:
        e = 1 if P.y != 0 else 2
        den = e * f.c.multiplicity(P.x)
    return num - den


def reference_leading_coefficient(curve, f, P):
    if f.is_zero():
        raise ValueError("the zero function has no leading coefficient")
    p = curve.p
    if P.is_infinity:
        if curve.kind == "p1":
            num_lead = f.a.leading()
        else:
            ord_a = -2 * f.a.degree if not f.a.is_zero() else None
            ord_b = -3 - 2 * f.b.degree if not f.b.is_zero() else None
            if ord_b is None or (ord_a is not None and ord_a < ord_b):
                num_lead = f.a.leading()
            else:
                num_lead = f.b.leading()
        return num_lead * inv_mod(f.c.leading(), p) % p
    num_ord = reference_numerator_valuation_affine(curve, f.a, f.b, P)
    if curve.kind == "p1":
        den_ord = f.c.multiplicity(P.x)
    else:
        den_ord = (1 if P.y != 0 else 2) * f.c.multiplicity(P.x)
    prec = max(num_ord, den_ord) + 1
    num_series = reference_numerator_series(curve, f.a, f.b, P, prec)
    den_series = reference_numerator_series(curve, f.c, Poly([], p), P, prec)
    assert all(c == 0 for c in num_series[:num_ord]) and num_series[num_ord] != 0
    assert all(c == 0 for c in den_series[:den_ord]) and den_series[den_ord] != 0
    return num_series[num_ord] * inv_mod(den_series[den_ord], p) % p


def reference_twisted_evaluate(curve, f, P, k):
    if f.is_zero():
        return 0
    v = reference_valuation(curve, f, P)
    if v + k < 0:
        raise ValueError(f"pole of order {-v} exceeds twist {k} at {P.render()}")
    if v + k > 0:
        return 0
    return reference_leading_coefficient(curve, f, P)


def reference_rr_raw_basis(curve, D):
    p = curve.p
    if curve.kind == "p1":
        n_inf = int(D[INFINITY])
        den = Poly([1], p)
        for P, c in D.items():
            if not P.is_infinity and c > 0:
                den = den * Poly.x_minus(P.x, p) ** int(c)
        cap = den.degree + n_inf
        if cap < 0:
            return []
        constraints = []
        for P, c in D.items():
            if P.is_infinity:
                continue
            r = den.multiplicity(P.x) - int(c)
            if r > 0:
                constraints.append((P.x, r))
        rows = []
        for x0, r in constraints:
            # Coefficients of (x0 + t)^j up to t^(r-1) must vanish.
            for d in range(r):
                row = []
                for j in range(cap + 1):
                    shifted = Poly.x_minus(-x0, p) ** j
                    row.append(shifted.coeffs[d] if d < len(shifted.coeffs) else 0)
                rows.append(row)
        if rows:
            kern = MatrixFp(rows, p).kernel_basis()
        else:
            kern = [[1 if i == j else 0 for i in range(cap + 1)] for j in range(cap + 1)]
        return [FunctionFieldElement(curve, Poly(vec, p), Poly([], p), den) for vec in kern]

    n_O = int(D[INFINITY])
    mult_by_x = {}
    for P, c in D.items():
        if P.is_infinity or c <= 0:
            continue
        need = int(c) if P.y != 0 else -(-int(c) // 2)
        mult_by_x[P.x] = max(mult_by_x.get(P.x, 0), need)
    den = Poly([1], p)
    for x0, m in sorted(mult_by_x.items()):
        den = den * Poly.x_minus(x0, p) ** m
    dc = den.degree
    cap_a = dc + floor(Fraction(n_O, 2))
    cap_b = dc + floor(Fraction(n_O - 3, 2))
    monomials = [(i, False) for i in range(cap_a + 1)]
    monomials += [(j, True) for j in range(cap_b + 1)]
    if not monomials:
        return []
    constrained = {}
    for x0, m in mult_by_x.items():
        for P in _points_above(curve, x0):
            e = 1 if P.y != 0 else 2
            r = e * m - int(D[P])
            if r > 0:
                constrained[P] = r
    for P, c in D.items():
        if not P.is_infinity and c < 0 and P not in constrained:
            constrained[P] = -int(c)
    rows = []
    for P in sorted(constrained, key=CurvePoint.sort_key):
        r = constrained[P]
        xs, ys = local_expansions(curve, P, r)
        x_pows = [[1] + [0] * (r - 1)]
        for _ in range(max(cap_a, cap_b)):
            x_pows.append(_series_mul(x_pows[-1], xs, r, p))
        cols = []
        for j, with_y in monomials:
            cols.append(_series_mul(x_pows[j], ys, r, p) if with_y else x_pows[j])
        for d in range(r):
            rows.append([col[d] for col in cols])
    if rows:
        kern = MatrixFp(rows, p).kernel_basis()
    else:
        kern = [[1 if i == j else 0 for i in range(len(monomials))] for j in range(len(monomials))]
    out = []
    for vec in kern:
        a = [0] * (cap_a + 1)
        b = [0] * (cap_b + 1)
        for coef, (j, with_y) in zip(vec, monomials):
            if with_y:
                b[j] = coef
            else:
                a[j] = coef
        out.append(FunctionFieldElement(curve, Poly(a, p), Poly(b, p), den))
    return out


def reference_echelonize_by_valuation(curve, basis, anchor):
    p = curve.p
    work = list(basis)
    while True:
        vals = [reference_valuation(curve, f, anchor) for f in work]
        by_val = {}
        for i, v in enumerate(vals):
            by_val.setdefault(v, []).append(i)
        clash = next((idxs for idxs in by_val.values() if len(idxs) > 1), None)
        if clash is None:
            break
        keep, other = clash[0], clash[1]
        lc_keep = reference_leading_coefficient(curve, work[keep], anchor)
        lc_other = reference_leading_coefficient(curve, work[other], anchor)
        factor = lc_other * inv_mod(lc_keep, p) % p
        work[other] = work[other] - work[keep].scale(factor)
    work.sort(key=lambda f: -reference_valuation(curve, f, anchor))
    return work


# P^1 at several primes; elliptic curves with no, one and three rational
# 2-torsion points (y^2 = x^3 + x has (0,0); over F_13 also (+-5, 0)).
ORACLE_CURVES = [
    Curve.p1(5),
    L7,
    Curve.p1(11),
    E7,
    Curve.elliptic(5, 1, 0),
    Curve.elliptic(7, 1, 0),
    Curve.elliptic(7, -1, 0),
    Curve.elliptic(11, 2, 5),
    Curve.elliptic(13, 1, 0),
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


def _random_poly(rng, p, max_deg):
    return Poly([rng.randrange(p) for _ in range(rng.randint(0, max_deg) + 1)], p)


def random_functions(rng, curve, count):
    """Random (a + b y) / c, plus products of x - x0 and y - y0 factors that
    vanish to high order at chosen rational points (and hit the norm path)."""
    p = curve.p
    pts = [P for P in curve.rational_points() if not P.is_infinity]
    zero = Poly([], p)
    out = [FunctionFieldElement.zero(curve)]
    while len(out) < count:
        c = _random_poly(rng, p, 3)
        if c.is_zero():
            continue
        if rng.random() < 0.5:
            b = zero if curve.is_p1 else _random_poly(rng, p, 3)
            a = _random_poly(rng, p, 4)
            if a.is_zero() and b.is_zero():
                continue
            out.append(FunctionFieldElement(curve, a, b, c))
            continue
        f = FunctionFieldElement(curve, Poly([rng.randrange(1, p)], p), zero, c)
        for _ in range(rng.randint(1, 4)):
            P = rng.choice(pts)
            if curve.is_p1 or rng.random() < 0.5:
                factor = FunctionFieldElement(curve, Poly.x_minus(P.x, p), zero, Poly([1], p))
            else:
                factor = FunctionFieldElement(curve, Poly([-P.y], p), Poly([1], p), Poly([1], p))
            f = f * factor
        out.append(f)
    return out


def oracle_points(rng, curve):
    """All rational points, plus affine points off the curve."""
    p = curve.p
    pts = curve.rational_points()
    off = [CurvePoint.affine(x, y, p) for x in range(p) for y in range(p)]
    off = [P for P in off if not curve.contains(P)]
    return pts + rng.sample(off, 4)


def random_divisors(rng, curve, count):
    """Random divisors (infinity, 2-torsion points, negative coefficients) and
    degree-zero principal and non-principal ones."""
    pts = curve.rational_points()
    affine = [P for P in pts if not P.is_infinity]
    torsion = [P for P in affine if P.y == 0 and not curve.is_p1]
    out = []
    for _ in range(count):
        support = rng.sample(pts, rng.randint(1, min(4, len(pts))))
        if torsion and rng.random() < 0.5:
            support.append(rng.choice(torsion))
        if rng.random() < 0.5:
            support.append(INFINITY)
        out.append(Divisor({P: rng.randint(-2, 4) for P in support}))
    for _ in range(count // 2):
        P, Q = rng.choice(affine), rng.choice(affine)
        if curve.is_p1:
            out.append(Divisor({P: 2, Q: 1, INFINITY: -3}))
            continue
        R = curve.group_add(P, Q)
        # P + Q - (P + Q) - O is principal; P - O and P + Q - 2O mostly are not.
        out.append(Divisor({P: 1}) + Divisor({Q: 1}) - Divisor({R: 1}) - Divisor({INFINITY: 1}))
        out.append(Divisor({P: 1, INFINITY: -1}))
        out.append(Divisor({P: 1}) + Divisor({Q: 1}) + Divisor({INFINITY: -2}))
        out.append(Divisor({P: 1, curve.group_neg(P): 1, INFINITY: -2}))
    return out


@pytest.mark.parametrize("curve", ORACLE_CURVES, ids=lambda C: f"{C.kind}-{C.p}-{C.A}-{C.B}")
def test_orders_and_leading_coefficients_match_reference(curve):
    rng = random.Random(1000 * curve.p + 10 * curve.A + curve.B)
    points = oracle_points(rng, curve)
    for f in random_functions(rng, curve, 40):
        for P in points:
            v = _outcome(valuation, curve, f, P)
            assert v == _outcome(reference_valuation, curve, f, P), (f, P)
            # The reference accepted points off the curve; the shared order
            # routine refuses them wherever the valuation does.
            ref_lead = ValueError if v is ValueError else _outcome(reference_leading_coefficient, curve, f, P)
            assert _outcome(leading_coefficient, curve, f, P) == ref_lead, (f, P)
            base = 0 if v is ValueError else -v
            for k in (base - 1, base, base + 1, rng.randint(-3, 3)):
                got = _outcome(twisted_evaluate, curve, f, P, k)
                assert got == _outcome(reference_twisted_evaluate, curve, f, P, k), (f, P, k)


@pytest.mark.parametrize("curve", [L7, E7, Curve.elliptic(13, 1, 0)], ids=lambda C: f"{C.kind}-{C.p}")
def test_twisted_evaluate_errors_match_reference(curve):
    # At points where neither a + b y nor c vanishes, `codes._section_values`
    # hands k < 0 to this one order path; its refusals must read exactly as
    # the reference's do.
    rng = random.Random(3000 + curve.p)
    for f in random_functions(rng, curve, 20)[1:]:
        for P in oracle_points(rng, curve):
            for k in (-2, -1):
                try:
                    reference_twisted_evaluate(curve, f, P, k)
                    want = None
                except ValueError as e:
                    want = str(e)
                if want is None or not curve.contains(P):
                    continue
                with pytest.raises(ValueError) as err:
                    twisted_evaluate(curve, f, P, k)
                assert str(err.value) == want


def reference_anchor(D):
    """The point riemann_roch_basis echelonizes at: the largest coefficient,
    ties to the smallest point; infinity for D = 0."""
    if not D.coeffs:
        return INFINITY
    return max(D.items(), key=lambda kv: (kv[1], [-k for k in kv[0].sort_key()]))[0]


def high_pole_divisors(rng, curve, count):
    """Poles of order up to 12 at one to three rational points (infinity
    among them), past the largest, 8, that code-sweep's divisors reach."""
    pts = curve.rational_points()
    out = []
    for _ in range(count):
        support = rng.sample(pts, rng.randint(1, 3))
        out.append(Divisor({P: rng.randint(-2, 12) for P in support}))
    return out


RR_CURVES = ORACLE_CURVES + [Curve.p1(101), Curve.elliptic(101, 0, 3)]


@pytest.mark.parametrize("curve", RR_CURVES, ids=lambda C: f"{C.kind}-{C.p}-{C.A}-{C.B}")
def test_riemann_roch_raw_basis_matches_reference(curve):
    # The coefficient-vector echelon against the function-field one, element
    # for element, on the raw basis of the former two-branch construction.
    rng = random.Random(2000 * curve.p + 10 * curve.A + curve.B)
    divisors = random_divisors(rng, curve, 24) + high_pole_divisors(rng, curve, 12 if curve.p == 101 else 4)
    for D in divisors:
        raw = reference_rr_raw_basis(curve, D)
        want = reference_echelonize_by_valuation(curve, raw, reference_anchor(D)) if len(raw) > 1 else raw
        basis = riemann_roch_basis(curve, D)
        assert basis == want, D
        for f in basis:
            assert effective(divisor_of(curve, f, curve.rational_points()) + D)


@pytest.mark.parametrize("curve", RR_CURVES, ids=lambda C: f"{C.kind}-{C.p}-{C.A}-{C.B}")
def test_riemann_roch_lowest_terms_match_public_constructor(curve):
    # riemann_roch_basis divides the common factor of a, b and den out at
    # den's known roots; the public constructor reduces the same (a + b y) /
    # den by Euclid's gcd. Both must give the same parts, element for element.
    rng = random.Random(4000 * curve.p + 10 * curve.A + curve.B)
    divisors = random_divisors(rng, curve, 24) + high_pole_divisors(rng, curve, 12 if curve.p == 101 else 4)
    p, affine = curve.p, curve.rational_points()[:-1]
    torsion = {P.x for P in affine if P.y == 0 and not curve.is_p1}
    removed = {False: 0, True: 0}  # factors x - x0 divided out, by whether x0 is 2-torsion
    for D in divisors:
        den, mult_by_x, monomials, vectors = _rr_kernel(curve, D)
        if len(vectors) > 1:
            vectors = _echelonize_vectors(curve, monomials, vectors, reference_anchor(D))
        n_a = sum(1 for _, with_y in monomials if not with_y)
        want = [FunctionFieldElement(curve, Poly(v[:n_a], p), Poly(v[n_a:], p), den) for v in vectors]
        basis = riemann_roch_basis(curve, D)
        assert [(f.a, f.b, f.c) for f in basis] == [(f.a, f.b, f.c) for f in want], D
        for f in basis:
            assert f.c.leading() == 1
            for x0, m in mult_by_x.items():
                removed[x0 in torsion] += m - f.c.multiplicity(x0)
    assert {P.x in torsion for P in affine} == {kind for kind, n in removed.items() if n}


def test_valuation_echelon_asserts_still_fire(monkeypatch):
    monomials = [(0, False), (1, False), (2, False)]
    with pytest.raises(AssertionError, match="^basis was linearly dependent$"):
        _echelonize_vectors(L7, monomials, [[1, 2, 0], [1, 2, 0]], INFINITY)
    # At infinity the first anchor row reads only x^2, so the series of 1 and x
    # are zero to that precision.
    monkeypatch.setattr("tcodes.curve._anchor_rows", lambda *args: _anchor_rows(*args)[:1])
    with pytest.raises(AssertionError, match="^series precision below the leading term$"):
        _echelonize_vectors(L7, monomials, [[1, 0, 0], [0, 1, 0]], INFINITY)


@pytest.mark.parametrize("curve", ORACLE_CURVES, ids=lambda C: f"{C.kind}-{C.p}-{C.A}-{C.B}")
def test_local_expansions_solve_the_curve_equation(curve):
    p = curve.p
    prec = 6
    for P in curve.rational_points()[:-1]:
        xs, ys = local_expansions(curve, P, prec)
        assert xs[0] == P.x and len(xs) == prec
        if curve.is_p1:
            assert ys is None and xs == [P.x, 1] + [0] * (prec - 2)
            continue
        assert ys[0] == P.y and len(ys) == prec
        assert _series_mul(ys, ys, prec, p) == _poly_on_series(curve.rhs(), xs, prec, p)
        # The uniformizer is x - x0 away from 2-torsion and y at 2-torsion points.
        t = ys if P.y == 0 else [0] + xs[1:]
        assert t == [0, 1] + [0] * (prec - 2)
