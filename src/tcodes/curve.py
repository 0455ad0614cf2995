"""Smooth projective curves over prime fields: points, divisors, Riemann-Roch spaces.

Supported curves are the projective line and elliptic curves in short Weierstrass
form y^2 = x^3 + A x + B with p >= 5. Functions are (a(x) + b(x) y) / c(x), and
both kinds run on one local-expansion kernel; they differ in two local numbers
only: the order e of x - x0 at an affine point (2 at elliptic 2-torsion points,
else 1) and the pole order of x at infinity (1 on the line, 2 on the elliptic
curve, where y has pole order 3). Valuations are exact (no series truncation
guesswork): parity and norm arguments give the order, and Hensel-lifted local
expansions give leading coefficients, each asserting against the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import Callable, Iterable, NamedTuple

from .algebra import MatrixFp, Poly, check_prime_field, echelon, inv_mod


class CurvePoint(NamedTuple):
    is_infinity: bool
    x: int
    y: int

    @classmethod
    def affine(cls, x: int, y: int, p: int) -> "CurvePoint":
        return cls(False, x % p, y % p)

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(True, 0, 0)

    def sort_key(self) -> tuple[int, int, int]:
        return (1 if self.is_infinity else 0, self.x, self.y)

    def render(self) -> str:
        return "inf" if self.is_infinity else f"({self.x},{self.y})"


INFINITY = CurvePoint.infinity()


class Curve:
    """The projective line ("p1") or a short Weierstrass elliptic curve ("elliptic")."""

    def __init__(self, kind: str, p: int, A: int = 0, B: int = 0):
        check_prime_field(p)
        if kind not in ("p1", "elliptic"):
            raise ValueError(f"unknown curve kind: {kind}")
        self.kind = kind
        self.p = p
        self.A = A % p
        self.B = B % p
        if kind == "elliptic":
            if p < 5:
                raise ValueError("elliptic curves require characteristic >= 5")
            disc = (4 * self.A**3 + 27 * self.B**2) % p
            if disc == 0:
                raise ValueError("singular Weierstrass equation (4A^3 + 27B^2 = 0)")
        self._rhs = Poly([self.B, self.A, 0, 1], p)

    @classmethod
    def p1(cls, p: int) -> "Curve":
        return cls("p1", p)

    @classmethod
    def elliptic(cls, p: int, A: int, B: int) -> "Curve":
        return cls("elliptic", p, A, B)

    @property
    def is_p1(self) -> bool:
        return self.kind == "p1"

    @property
    def genus(self) -> int:
        return 0 if self.kind == "p1" else 1

    def rhs(self) -> Poly:
        """The cubic x^3 + A x + B (elliptic only)."""
        return self._rhs

    def contains(self, P: CurvePoint) -> bool:
        if P.is_infinity:
            return True
        if not (0 <= P.x < self.p and 0 <= P.y < self.p):
            return False
        if self.kind == "p1":
            return P.y == 0
        x, y = P.x, P.y
        return (y * y - x * x * x - self.A * x - self.B) % self.p == 0

    def rational_points(self) -> list[CurvePoint]:
        """All rational points, affine ones sorted by (x, y), infinity last."""
        p, A, B = self.p, self.A, self.B
        if self.kind == "p1":
            pts = [CurvePoint(False, x, 0) for x in range(p)]
        else:
            # Each list of square roots is filled in ascending y, so the scan
            # over x yields the points already in (x, y) order.
            roots: dict[int, list[int]] = {}
            for y in range(p):
                roots.setdefault(y * y % p, []).append(y)
            pts = [CurvePoint(False, x, y) for x in range(p) for y in roots.get((x * x * x + A * x + B) % p, ())]
        pts.append(INFINITY)
        return pts

    def group_neg(self, P: CurvePoint) -> CurvePoint:
        self._require_elliptic()
        if P.is_infinity:
            return P
        return CurvePoint.affine(P.x, -P.y, self.p)

    def group_add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """Chord-tangent addition with identity at infinity."""
        self._require_elliptic()
        p = self.p
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        if P.x == Q.x and (P.y + Q.y) % p == 0:
            return INFINITY
        if P == Q:
            lam = (3 * P.x * P.x + self.A) * inv_mod(2 * P.y, p) % p
        else:
            lam = (Q.y - P.y) * inv_mod(Q.x - P.x, p) % p
        x3 = (lam * lam - P.x - Q.x) % p
        y3 = (lam * (P.x - x3) - P.y) % p
        return CurvePoint.affine(x3, y3, p)

    def group_multiple(self, n: int, P: CurvePoint) -> CurvePoint:
        self._require_elliptic()
        if n < 0:
            return self.group_multiple(-n, self.group_neg(P))
        acc = INFINITY
        base = P
        while n:
            if n & 1:
                acc = self.group_add(acc, base)
            base = self.group_add(base, base)
            n >>= 1
        return acc

    def _require_elliptic(self) -> None:
        if self.kind != "elliptic":
            raise ValueError("group law requires an elliptic curve")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Curve)
            and (self.kind, self.p, self.A, self.B) == (other.kind, other.p, other.A, other.B)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.p, self.A, self.B))


class Divisor:
    """Formal Q-linear combination of curve points. An integral coefficient
    is stored as an `int`, any other as a `Fraction`; equal numbers compare,
    hash and print alike whichever type holds them."""

    def __init__(self, coeffs: dict[CurvePoint, Fraction | int] | None = None):
        self.coeffs: dict[CurvePoint, Fraction | int] = {}
        if coeffs:
            for P, c in coeffs.items():
                if not isinstance(c, (int, Fraction)):
                    c = Fraction(c)
                if c:
                    self.coeffs[P] = c.numerator if c.denominator == 1 else c

    def __getitem__(self, P: CurvePoint) -> Fraction | int:
        return self.coeffs.get(P, 0)

    def items(self) -> list[tuple[CurvePoint, Fraction | int]]:
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())

    def support(self) -> list[CurvePoint]:
        return [P for P, _ in self.items()]

    def degree(self) -> Fraction | int:
        return sum(self.coeffs.values())

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Divisor") -> "Divisor":
        out = dict(self.coeffs)
        for P, c in other.coeffs.items():
            out[P] = out.get(P, 0) + c
        return Divisor(out)

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + other.scale(-1)

    def scale(self, k: Fraction | int) -> "Divisor":
        return Divisor({P: c * k for P, c in self.coeffs.items()})

    def floor(self) -> "Divisor":
        return Divisor({P: floor(c) for P, c in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{P.render()}" for P, c in self.items())


def is_principal(curve: Curve, D: Divisor) -> bool:
    """Whether the integral degree-zero divisor D is a function's divisor."""
    if not D.is_integral():
        raise ValueError("principality is defined for integral divisors")
    if D.degree() != 0:
        return False
    if curve.kind == "p1":
        return True
    acc = INFINITY
    for P, c in D.items():
        if not P.is_infinity:
            acc = curve.group_add(acc, curve.group_multiple(int(c), P))
    return acc == INFINITY


class FunctionFieldElement:
    """A function (a(x) + b(x) y) / c(x) on the curve, in lowest terms with c monic.

    On the projective line b is identically zero.
    """

    __slots__ = ("curve", "a", "b", "c")

    def __init__(self, curve: Curve, a: Poly, b: Poly, c: Poly):
        if c.is_zero():
            raise ZeroDivisionError("zero denominator")
        if curve.kind == "p1" and not b.is_zero():
            raise ValueError("no y coordinate on the projective line")
        if a.is_zero() and b.is_zero():
            a, b, c = Poly([], curve.p), Poly([], curve.p), Poly([1], curve.p)
        else:
            g = a.gcd(b).gcd(c) if not b.is_zero() else a.gcd(c)
            if not g.is_zero() and g.degree > 0:
                a, b, c = a // g, b // g, c // g
            lead_inv = inv_mod(c.leading(), curve.p)
            a, b, c = a.scale(lead_inv), b.scale(lead_inv), c.monic()
        self.curve = curve
        self.a = a
        self.b = b
        self.c = c

    @classmethod
    def _in_lowest_terms(cls, curve: Curve, a: Poly, b: Poly, c: Poly) -> "FunctionFieldElement":
        """(a + b y) / c from parts already in lowest terms with c monic: no gcd."""
        f = object.__new__(cls)
        f.curve, f.a, f.b, f.c = curve, a, b, c
        return f

    @classmethod
    def zero(cls, curve: Curve) -> "FunctionFieldElement":
        return cls(curve, Poly([], curve.p), Poly([], curve.p), Poly([1], curve.p))

    @classmethod
    def one(cls, curve: Curve) -> "FunctionFieldElement":
        return cls(curve, Poly([1], curve.p), Poly([], curve.p), Poly([1], curve.p))

    @classmethod
    def constant(cls, curve: Curve, value: int) -> "FunctionFieldElement":
        return cls(curve, Poly([value], curve.p), Poly([], curve.p), Poly([1], curve.p))

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __add__(self, other: "FunctionFieldElement") -> "FunctionFieldElement":
        a1, b1, c1 = self.a, self.b, self.c
        a2, b2, c2 = other.a, other.b, other.c
        return FunctionFieldElement(self.curve, a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2)

    def __sub__(self, other: "FunctionFieldElement") -> "FunctionFieldElement":
        return self + other.scale(-1)

    def __mul__(self, other: "FunctionFieldElement") -> "FunctionFieldElement":
        a1, b1, c1 = self.a, self.b, self.c
        a2, b2, c2 = other.a, other.b, other.c
        E = self.curve.rhs()
        return FunctionFieldElement(self.curve, a1 * a2 + b1 * b2 * E, a1 * b2 + a2 * b1, c1 * c2)

    def scale(self, k: int) -> "FunctionFieldElement":
        return FunctionFieldElement(self.curve, self.a.scale(k), self.b.scale(k), self.c)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FunctionFieldElement)
            and self.curve == other.curve
            and (self.a, self.b, self.c) == (other.a, other.b, other.c)
        )

    def __repr__(self) -> str:
        num = repr(self.a)
        if not self.b.is_zero():
            num = f"{num} + ({self.b})*y" if not self.a.is_zero() else f"({self.b})*y"
        if self.c.degree <= 0:
            return num
        return f"({num})/({self.c})"


def _series_mul(xs: list[int], ys: list[int], prec: int, p: int) -> list[int]:
    out = [0] * prec
    for i, a in enumerate(xs[:prec]):
        if a:
            for j, b in enumerate(ys[: prec - i]):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_on_series(f: Poly, xs: list[int], prec: int, p: int) -> list[int]:
    acc = [0] * prec
    for c in reversed(f.coeffs):
        acc = _series_mul(acc, xs, prec, p)
        acc[0] = (acc[0] + c) % p
    return acc


def _ramification(curve: Curve, P: CurvePoint) -> int:
    """Order e of x - x0 at the affine point P: 2 at elliptic 2-torsion points, else 1."""
    return 2 if curve.kind == "elliptic" and P.y == 0 else 1


def _x_pole_order(curve: Curve) -> int:
    """Pole order of x at infinity: 1 on the line, 2 on the elliptic curve (y has 3)."""
    return 1 if curve.kind == "p1" else 2


def local_expansions(curve: Curve, P: CurvePoint, prec: int) -> tuple[list[int], list[int] | None]:
    """Series of x(t) and y(t) mod t^prec at an affine point, t the fixed uniformizer.

    Where e = 1, t = x - x0; on the projective line the y series is None, and on
    an elliptic curve y is the Hensel square root of the cubic. At a 2-torsion
    point (e = 2) t = y and x solves the curve equation with x(0) = x0.
    """
    if P.is_infinity:
        raise ValueError("local expansions at infinity are handled by degree bookkeeping")
    p = curve.p
    if _ramification(curve, P) == 1:
        xs = ([P.x, 1] + [0] * (prec - 2))[:prec]
        if curve.kind == "p1":
            return xs, None
        es = _poly_on_series(curve.rhs(), xs, prec, p)
        ys = [P.y] + [0] * (prec - 1)
        inv2y = inv_mod(2 * P.y, p)
        for k in range(1, prec):
            conv = sum(ys[i] * ys[k - i] for i in range(1, k)) % p
            ys[k] = (es[k] - conv) * inv2y % p
        return xs, ys
    # 2-torsion: t = y, x = x0 + delta(t) with E(x) = t^2 and E'(x0) invertible.
    dE = (3 * P.x * P.x + curve.A) % p
    inv_dE = inv_mod(dE, p)
    delta = [0] * prec
    for k in range(1, prec):
        d2 = sum(delta[i] * delta[k - i] for i in range(1, k)) % p
        d3 = 0
        for i in range(1, k):
            for j in range(1, k - i):
                rem = k - i - j
                if rem >= 1:
                    d3 += delta[i] * delta[j] * delta[rem]
        d3 %= p
        target = 1 if k == 2 else 0
        delta[k] = (target - 3 * P.x * d2 - d3) * inv_dE % p
    xs = [(P.x + delta[0]) % p] + delta[1:]
    ys = ([0, 1] + [0] * (prec - 2))[:prec]
    return xs, ys


def _poly_order(curve: Curve, g: Poly, P: CurvePoint) -> int:
    """Order of the nonzero polynomial g(x) at P."""
    if P.is_infinity:
        return -_x_pole_order(curve) * g.degree
    return _ramification(curve, P) * g.multiplicity(P.x)


def _numerator_order(curve: Curve, a: Poly, b: Poly, P: CurvePoint) -> int:
    """Exact order of a(x) + b(x) y at P, for a and b not both zero."""
    if b.is_zero():
        return _poly_order(curve, a, P)
    # y has a pole of order 3 at infinity and vanishes to order e - 1 at an affine point.
    ord_by = _poly_order(curve, b, P) + (-3 if P.is_infinity else _ramification(curve, P) - 1)
    if a.is_zero():
        return ord_by
    ord_a = _poly_order(curve, a, P)
    if ord_a != ord_by:
        return min(ord_a, ord_by)
    # Orders of a and b y have distinct parities at infinity and at 2-torsion
    # points, so a tie means e = 1, t = x - x0 and w = mult(a) = mult(b).
    p = curve.p
    w = ord_a
    root = Poly.x_minus(P.x, p)
    a1, b1 = a, b
    for _ in range(w):
        a1, b1 = a1 // root, b1 // root
    if (a1.evaluate(P.x) + b1.evaluate(P.x) * P.y) % p != 0:
        return w
    # Cancellation: use the norm (a1 + b1 y)(a1 - b1 y) = a1^2 - b1^2 E, whose
    # second factor is a unit at P, so ord(a1 + b1 y) = mult of the norm.
    norm = a1 * a1 - b1 * b1 * curve.rhs()
    assert (a1.evaluate(P.x) - b1.evaluate(P.x) * P.y) % p != 0
    return w + norm.multiplicity(P.x)


def _orders(curve: Curve, f: FunctionFieldElement, P: CurvePoint) -> tuple[int, int]:
    """(order of a + b y, order of c) at P for a nonzero f = (a + b y) / c."""
    if not curve.contains(P):
        raise ValueError(f"{P.render()} is not on the curve")
    return _numerator_order(curve, f.a, f.b, P), _poly_order(curve, f.c, P)


def _leading_coefficient(
    curve: Curve, f: FunctionFieldElement, P: CurvePoint, num_ord: int, den_ord: int
) -> int:
    """Coefficient of t^(num_ord - den_ord) in f at P, given the orders from _orders."""
    p = curve.p
    if P.is_infinity:
        # x = t^-m (1 + O(t)) with m = _x_pole_order and y = t^-3 (1 + O(t)),
        # and a, b y never tie there, so leading coefficients of numerator and
        # denominator are top polynomial coefficients.
        a_leads = f.b.is_zero() or (not f.a.is_zero() and _poly_order(curve, f.a, P) == num_ord)
        num_lead = f.a.leading() if a_leads else f.b.leading()
        return num_lead * inv_mod(f.c.leading(), p) % p
    prec = max(num_ord, den_ord) + 1
    xs, ys = local_expansions(curve, P, prec)
    num_series = _poly_on_series(f.a, xs, prec, p)
    if not f.b.is_zero():
        by = _series_mul(_poly_on_series(f.b, xs, prec, p), ys, prec, p)
        num_series = [(u + v) % p for u, v in zip(num_series, by)]
    den_series = _poly_on_series(f.c, xs, prec, p)
    assert all(c == 0 for c in num_series[:num_ord]) and num_series[num_ord] != 0
    assert all(c == 0 for c in den_series[:den_ord]) and den_series[den_ord] != 0
    return num_series[num_ord] * inv_mod(den_series[den_ord], p) % p


def valuation(curve: Curve, f: FunctionFieldElement, P: CurvePoint) -> int:
    """Exact order of vanishing of f at P (poles negative)."""
    if f.is_zero():
        raise ValueError("the zero function has no valuation")
    num_ord, den_ord = _orders(curve, f, P)
    return num_ord - den_ord


def leading_coefficient(curve: Curve, f: FunctionFieldElement, P: CurvePoint) -> int:
    """Coefficient of t^(ord_P f) in the local expansion of f at P."""
    if f.is_zero():
        raise ValueError("the zero function has no leading coefficient")
    return _leading_coefficient(curve, f, P, *_orders(curve, f, P))


def evaluate(curve: Curve, f: FunctionFieldElement, P: CurvePoint) -> int:
    """Value of f at P; requires f regular at P."""
    return twisted_evaluate(curve, f, P, 0)


def twisted_evaluate(curve: Curve, f: FunctionFieldElement, P: CurvePoint, k: int) -> int:
    """Value of f * t^k at P, where t is the fixed uniformizer at P.

    Returns 0 when ord_P(f) > -k and raises when the pole is too deep. One
    path at every point: the orders, then the leading coefficient when
    ord_P(f) = -k. `codes._section_values` batches the regular affine entries.
    """
    if f.is_zero():
        return 0
    num_ord, den_ord = _orders(curve, f, P)
    v = num_ord - den_ord
    if v + k < 0:
        raise ValueError(f"pole of order {-v} exceeds twist {k} at {P.render()}")
    if v + k > 0:
        return 0
    return _leading_coefficient(curve, f, P, num_ord, den_ord)


def _points_above(curve: Curve, x0: int) -> list[CurvePoint]:
    if curve.kind == "p1":
        return [CurvePoint.affine(x0, 0, curve.p)]
    r = curve.rhs().evaluate(x0)
    if r == 0:
        return [CurvePoint.affine(x0, 0, curve.p)]
    ys = [y for y in range(curve.p) if y * y % curve.p == r]
    return [CurvePoint.affine(x0, y, curve.p) for y in sorted(ys)]


def riemann_roch_basis(curve: Curve, D: Divisor) -> list[FunctionFieldElement]:
    """Basis of L(D) = {f : div(f) + D >= 0}, deterministically echelonized.

    The basis is ordered by decreasing valuation at the largest-coefficient
    point of D (ties in the coefficient broken by point order), and successive
    elements have strictly decreasing valuations there. Every element is
    (a + b y) / den over one den, so the basis is found and echelonized as
    coefficient vectors over the monomials of a + b y, and each element is
    built once, at the end. den = prod (x - x0)^m is monic with known roots,
    so an element is brought to lowest terms by dividing out, at each x0,
    (x - x0) to the least of m and the multiplicities of a and b there.
    """
    if not D.is_integral():
        raise ValueError("Riemann-Roch spaces are computed for integral divisors")
    if not all(curve.contains(P) for P in D.support()):
        raise ValueError("divisor support must lie on the curve")
    den, mult_by_x, monomials, vectors = _rr_kernel(curve, D)
    _assert_rr_dimension(curve, D, len(vectors))
    if len(vectors) > 1:
        anchor = max(D.items(), key=lambda kv: (kv[1], [-k for k in kv[0].sort_key()]))[0] if D.coeffs else INFINITY
        vectors = _echelonize_vectors(curve, monomials, vectors, anchor)
    p, n_a = curve.p, sum(1 for _, with_y in monomials if not with_y)
    basis = []
    for v in vectors:
        a, b, c = Poly(v[:n_a], p), Poly(v[n_a:], p), den
        for x0, m in mult_by_x.items():
            e = min(m, *(f.multiplicity(x0) for f in (a, b) if not f.is_zero()))
            if e:
                root = Poly.x_minus(x0, p) ** e
                a, b, c = a // root, b // root, c // root
        basis.append(FunctionFieldElement._in_lowest_terms(curve, a, b, c))
    return basis


def rr_dimension(curve: Curve, degree: int, divisor: Callable[[], Divisor]) -> int:
    """dim L(D) for an integral divisor D of the given degree: 0 below degree
    0, else deg + 1 on the line and deg on an elliptic curve, except that at
    degree 0 there it is 1 exactly when D is principal. Only that case needs
    D itself, built by calling `divisor`."""
    if degree < 0:
        return 0
    if curve.genus == 0:
        return degree + 1
    return degree or int(is_principal(curve, divisor()))


def _assert_rr_dimension(curve: Curve, D: Divisor, dim: int) -> None:
    expected = rr_dimension(curve, int(D.degree()), lambda: D)
    assert dim == expected, f"Riemann-Roch dimension {dim} != {expected} for {D!r}"


Monomial = tuple[int, bool]  # (j, with_y): x^j, or x^j y on elliptic curves


def _monomial_rows(curve: Curve, P: CurvePoint, monomials: list[Monomial], prec: int) -> list[list[int]]:
    """Row k < prec holds the coefficient of t^k of each monomial at the affine point P."""
    p = curve.p
    xs, ys = local_expansions(curve, P, prec)
    x_pows = [[1] + [0] * (prec - 1)]
    for _ in range(max(j for j, _ in monomials)):
        x_pows.append(_series_mul(x_pows[-1], xs, prec, p))
    cols = [_series_mul(x_pows[j], ys, prec, p) if with_y else x_pows[j] for j, with_y in monomials]
    return [list(row) for row in zip(*cols)]


def _rr_kernel(curve: Curve, D: Divisor) -> tuple[Poly, dict[int, int], list[Monomial], list[list[int]]]:
    """L(D) as (den, mult_by_x, monomials, vectors): the (a + b y) / den whose
    low-order local coefficients vanish, one coefficient vector over the
    monomials each.

    den = prod (x - x0)^mult_by_x[x0] clears the positive affine part of D;
    the monomials x^i and x^j y (the latter on elliptic curves only) are
    capped by the pole allowed at infinity, and each affine point where D
    allows less than den gives constraint rows.
    """
    p = curve.p
    n_inf = int(D[INFINITY])
    mult_by_x: dict[int, int] = {}
    for P, c in D.items():
        if P.is_infinity or c <= 0:
            continue
        need = -(-int(c) // _ramification(curve, P))
        mult_by_x[P.x] = max(mult_by_x.get(P.x, 0), need)
    den = Poly([1], p)
    for x0, m in sorted(mult_by_x.items()):
        den = den * Poly.x_minus(x0, p) ** m
    dc = den.degree
    # x^i / den has a pole of order m (i - dc) at infinity and x^j y / den one of 2 (j - dc) + 3.
    cap_a = dc + floor(Fraction(n_inf, _x_pole_order(curve)))
    cap_b = dc + floor(Fraction(n_inf - 3, 2)) if curve.kind == "elliptic" else -1
    monomials: list[Monomial] = [(i, False) for i in range(cap_a + 1)]
    monomials += [(j, True) for j in range(cap_b + 1)]
    if not monomials:
        return den, mult_by_x, monomials, []
    constrained: dict[CurvePoint, int] = {}
    for x0, m in mult_by_x.items():
        for P in _points_above(curve, x0):
            r = _ramification(curve, P) * m - int(D[P])
            if r > 0:
                constrained[P] = r
    for P, c in D.items():
        if not P.is_infinity and c < 0 and P not in constrained:
            constrained[P] = -int(c)
    rows: list[list[int]] = []
    for P in sorted(constrained, key=CurvePoint.sort_key):
        rows += _monomial_rows(curve, P, monomials, constrained[P])
    if rows:
        return den, mult_by_x, monomials, MatrixFp(rows, p).kernel_basis()
    return den, mult_by_x, monomials, [[int(i == j) for i in range(len(monomials))] for j in range(len(monomials))]


def _anchor_rows(curve: Curve, monomials: list[Monomial], anchor: CurvePoint) -> list[list[int]]:
    """The map from monomial coefficients to the series of a + b y at the
    anchor, as rows, far enough to reach the leading term of any nonzero one.

    At infinity the monomials have distinct pole orders (x^i: m i, x^j y:
    2j + 3), and each is t^-pole (1 + O(t)), so the leading term of a + b y
    is that of its monomial of largest pole: row k picks the monomial of the
    k-th largest pole. At an affine point the rows are the local series up
    to the largest pole order, which a nonzero a + b y reaches: it has no
    more zeros than poles, and its poles are at infinity.
    """
    poles = [2 * j + 3 if with_y else _x_pole_order(curve) * j for j, with_y in monomials]
    if not anchor.is_infinity:
        return _monomial_rows(curve, anchor, monomials, max(poles) + 1)
    order = sorted(range(len(monomials)), key=lambda i: -poles[i])
    return [[int(i == j) for i in range(len(monomials))] for j in order]


def _echelonize_vectors(
    curve: Curve, monomials: list[Monomial], vectors: list[list[int]], anchor: CurvePoint
) -> list[list[int]]:
    """Coefficient vectors of (a + b y) / den with distinct valuations at the anchor.

    den is common, so valuations and leading-coefficient ratios are those of
    a + b y: the index and value of the first nonzero entry of its series.
    Each vector, in order, loses the multiples of earlier ones that cancel
    its leading term while it shares their valuation (`echelon` on the
    series); the vectors are then sorted by decreasing valuation.
    """
    p = curve.p
    rows = _anchor_rows(curve, monomials, anchor)
    prec = len(rows)
    # Each vector rides behind its series, so one row operation updates both.
    work = [[sum(r * c for r, c in zip(row, v)) % p for row in rows] + v for v in vectors]
    _, orders, reduced = echelon(work, p)
    assert all(k < prec for k in orders), "series precision below the leading term"
    assert len(reduced) == len(work), "basis was linearly dependent"
    # The orders are distinct, so the sort never compares vectors.
    return [w[prec:] for _, w in sorted(zip(orders, reduced), reverse=True)]


def divisor_of(curve: Curve, f: FunctionFieldElement, candidates: Iterable[CurvePoint]) -> Divisor:
    """Orders of f at the given points, as a divisor (zero orders dropped)."""
    return Divisor({P: valuation(curve, f, P) for P in candidates})
