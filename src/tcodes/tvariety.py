"""Divisorial polytopes over a curve and their geometry.

A divisorial polytope is a lattice polytope (the weight box) together with
finitely many concave piecewise-linear slices, one per marked curve point,
all defined on the box; absent points implicitly carry the zero slice. This
module validates the defining conditions, expands the associated Weil
divisor, tests positivity, computes graded section spaces, exact volumes,
intersection numbers, the section-curve genus and Euler characteristic, and
the projection used by the inductive distance bound.

Here and in `codes`, the slices at a lattice weight u are read from one
per-weight record, `DivisorialPolytope.at(u)`, filled on first read; only
`sharp`'s runtime cross-check (per-slice floor sums) and `inn` (the signed
ceiling count over interior weights) read the slices themselves, so
`sharp` still compares two independent routes. Every one of these reads,
like the concavity check in `project`, takes the integer kernel of
`ConcavePL` at a lattice point, not a `Fraction` point through `evaluate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

from .convex import (
    ConcavePL,
    LatticePolytope,
    Point,
    dot,
    floor_sum_over_lattice,
    make_point,
    signed_ceiling_interior_sum,
    sup_convolution,
)
from .curve import Curve, CurvePoint, Divisor, FunctionFieldElement, riemann_roch_basis


class WeightSlices(NamedTuple):
    """The slices of a divisorial polytope at one lattice weight u."""

    value: Divisor  # sum over the stored points P of h_P(u) * P
    floor: Divisor
    degree: Fraction | int
    floor_degree: int

    @property
    def effective(self) -> bool:
        return all(c >= 0 for c in self.value.coeffs.values())


class DivisorialPolytope:
    """Weight box plus concave slices indexed by curve points."""

    def __init__(self, curve: Curve, box: LatticePolytope, slices: dict[CurvePoint, ConcavePL]):
        for P, s in slices.items():
            if not curve.contains(P):
                raise ValueError(f"slice point {P.render()} is not on the curve")
            if s.m != box.m:
                raise ValueError("slice dimension does not match the box")
            if not s.has_domain(box.vertices):
                raise ValueError(f"slice at {P.render()} is not defined exactly on the box")
        self.curve = curve
        self.box = box
        self.slices = {P: s for P, s in slices.items()}
        self._zero_slice: ConcavePL | None = None
        self._at: dict[tuple[int, ...], WeightSlices] = {}

    @property
    def m(self) -> int:
        return self.box.m

    def stored_points(self) -> list[CurvePoint]:
        return sorted(self.slices, key=CurvePoint.sort_key)

    def slice_at(self, P: CurvePoint) -> ConcavePL:
        if P in self.slices:
            return self.slices[P]
        if self._zero_slice is None:
            # Built once: nothing mutates a ConcavePL, so every unmarked point shares it.
            self._zero_slice = ConcavePL.constant_on(self.box, 0)
        return self._zero_slice

    def at(self, u: tuple[int, ...]) -> WeightSlices:
        """The slices at the lattice weight u, evaluated on first read and kept."""
        if u not in self._at:
            values = {P: s._value(u) for P, s in self.slices.items()}
            if None in values.values():  # off the box: refused as `evaluate` refuses it
                values = {P: s.evaluate(u) for P, s in self.slices.items()}
            value = Divisor(values)
            floored = value.floor()
            self._at[u] = WeightSlices(value, floored, value.degree(), floored.degree())
        return self._at[u]

    def lattice_points(self) -> list[tuple[int, ...]]:
        return self.box.lattice_points()

    def add(self, other: "DivisorialPolytope") -> "DivisorialPolytope":
        """Minkowski sum of boxes with sup-convolved slices."""
        if self.curve != other.curve:
            raise ValueError("summands must live over the same curve")
        box = self.box.minkowski(other.box)
        support = set(self.slices) | set(other.slices)
        slices = {
            P: sup_convolution(self.slice_at(P), other.slice_at(P)) for P in support
        }
        return DivisorialPolytope(self.curve, box, slices)

    def scale(self, k: int) -> "DivisorialPolytope":
        if k < 0:
            raise ValueError("scaling factor must be nonnegative")
        if k == 0:
            return DivisorialPolytope(self.curve, LatticePolytope([(0,) * self.m]), {})
        return DivisorialPolytope(
            self.curve, self.box.scale(k), {P: s.scale(k) for P, s in self.slices.items()}
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DivisorialPolytope)
            and self.curve == other.curve
            and self.box == other.box
            and self.slices == other.slices
        )

    def __repr__(self) -> str:
        names = ", ".join(P.render() for P in self.stored_points())
        return f"DivisorialPolytope(box={self.box!r}, slices at [{names}])"


def point_divisor_dual(curve: Curve, P: CurvePoint, m: int = 1) -> DivisorialPolytope:
    """Dual data of the fiber support function over P: a point box with value 1."""
    origin = (0,) * m
    box = LatticePolytope([origin])
    return DivisorialPolytope(curve, box, {P: ConcavePL.from_graph_points([(origin, 1)])})


@dataclass
class ConditionReport:
    name: str
    ok: bool
    detail: str


@dataclass
class ValidationReport:
    conditions: list[ConditionReport]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.conditions)

    @property
    def semiample(self) -> bool:
        """Nonnegative vertex degrees, which suffice: see `validate`."""
        return self.conditions[0].ok

    def failures(self) -> list[str]:
        return [f"{c.name}: {c.detail}" for c in self.conditions if not c.ok]


def validate(dp: DivisorialPolytope) -> ValidationReport:
    """Check the three defining conditions of a divisorial polytope.

    The second, a principal multiple of each degree-0 vertex value D, always
    holds and passes unsearched. The field is prime and the slices sit at
    rational points (`DivisorialPolytope` checks `curve.contains`), so with
    den the lcm of D's denominators, den*D is an integral degree-0 divisor
    whose class lies in the finite group Pic^0(Y)(F_p): trivial on P^1 and
    E(F_p) on an elliptic curve. Hence (den * #Y(F_p)) * D is principal.
    """
    checks = [
        ("degree-nonnegative-at-vertices", "negative degree", [v for v in dp.box.vertices if dp.at(v).degree < 0]),
        ("principal-multiple-at-degree-zero-vertices", "", []),
        (
            "lattice-graph-vertices",
            "non-lattice slice graphs",
            [P.render() for P, s in dp.slices.items() if not s.is_integral()],
        ),
    ]
    return ValidationReport(
        [ConditionReport(name, not bad, f"{what} at {bad}" if bad else "ok") for name, what, bad in checks]
    )


def _mu(v: Point) -> int:
    return lcm(*[c.denominator for c in v]) if v else 1


@dataclass
class RayTerm:
    ray: tuple[int, ...]
    coefficient: Fraction
    meets_degree: bool


@dataclass
class VertexTerm:
    point: CurvePoint
    v: Point
    coefficient: Fraction


@dataclass
class TWeilDivisor:
    ray_terms: list[RayTerm]
    vertex_terms: list[VertexTerm]

    def ray_coefficient(self, n: tuple[int, ...]) -> Fraction:
        for t in self.ray_terms:
            if t.ray == n:
                return t.coefficient
        raise KeyError(f"no ray {n}")

    def vertex_coefficient(self, P: CurvePoint, v) -> Fraction:
        vv = make_point(v)
        for t in self.vertex_terms:
            if t.point == P and t.v == vv:
                return t.coefficient
        raise KeyError(f"no vertex term ({P.render()}, {v})")

    def render(self) -> str:
        parts = [f"{t.coefficient}*ray({','.join(map(str, t.ray))})" for t in self.ray_terms]
        for t in self.vertex_terms:
            vtxt = ",".join(str(c) for c in t.v)
            parts.append(f"{t.coefficient}*({t.point.render()},({vtxt}))")
        return " + ".join(parts)


def _ray_meets_degree(dp: DivisorialPolytope, n: tuple[int, ...]) -> bool:
    """Whether the span of the ray meets the summed tail pieces of the slices.

    This is the exact degree test; in one variable the span is the whole line,
    so it always meets, and the flag is purely diagnostic there. In the plane
    the tail piece of a slice holds the gradients of its cells over the box
    face that minimizes n. The cells lie in the box and their corners are
    hull vertices, so a cell lies over the face when exactly as many of its
    corners as of the box's vertices attain the minimum. The side
    n0 g1 - n1 g0 of a gradient g is linear, so the sum of the pieces lies
    strictly on one side when the slices' least sides sum above zero or
    their greatest below. Each slice is read in its stored integers
    (`ConcavePL`): corners X over `den` and gradients G over `gden`, so a
    corner attains the minimum when <n, X> = h0 den, and only the two sides
    per slice become `Fraction`s.
    """
    if dp.m == 1:
        return True
    h0 = min(n[0] * v[0] + n[1] * v[1] for v in dp.box.vertices)
    k = sum(n[0] * v[0] + n[1] * v[1] == h0 for v in dp.box.vertices)
    lo = hi = 0
    for s in dp.slices.values():
        face = h0 * s._den
        sides = [
            n[0] * G[1] - n[1] * G[0]
            for G, _, cell in s._cells
            if sum(n[0] * X[0] + n[1] * X[1] == face for X in cell) == k
        ]
        lo, hi = lo + Fraction(min(sides), s._gden), hi + Fraction(max(sides), s._gden)
    return lo <= 0 <= hi


def weil_divisor(dp: DivisorialPolytope) -> TWeilDivisor:
    """Ray and vertex coefficients of the associated invariant Weil divisor.

    Ray coefficients are -min over box vertices of the pairing; each slice
    cell with affine data z = <v, u> + c contributes the vertical term over
    the subdivision vertex v with coefficient mu(v) * c.
    """
    if not dp.box.is_full_dimensional():
        raise ValueError("Weil divisor expansion needs a full-dimensional box")
    ray_terms = []
    for n in dp.box.rays():
        h0 = min(sum(c * w for c, w in zip(v, n)) for v in dp.box.vertices)
        ray_terms.append(RayTerm(n, Fraction(-h0), _ray_meets_degree(dp, n)))
    vertex_terms = []
    for P in dp.stored_points():
        for g, c in dp.slices[P].cells():
            vertex_terms.append(VertexTerm(P, g, _mu(g) * c))
    vertex_terms.sort(key=lambda t: (t.point.sort_key(), t.v))
    return TWeilDivisor(ray_terms, vertex_terms)


def is_semiample(dp: DivisorialPolytope) -> bool:
    """Nonnegative vertex degrees, which suffice: a degree-0 vertex value
    always has a principal multiple (see `validate`)."""
    return validate(dp).semiample


def is_ample(dp: DivisorialPolytope) -> bool:
    """Strictly concave slices and strictly positive vertex degrees."""
    if any(s.had_collinear for s in dp.slices.values()):
        return False
    return all(dp.at(v).degree > 0 for v in dp.box.vertices)


@dataclass
class GradedPiece:
    u: tuple[int, ...]
    divisor: Divisor
    basis: list[FunctionFieldElement]

    @property
    def dim(self) -> int:
        return len(self.basis)


@dataclass
class GradedSections:
    pieces: list[GradedPiece]

    @property
    def total_dim(self) -> int:
        return sum(p.dim for p in self.pieces)


def graded_sections(dp: DivisorialPolytope) -> GradedSections:
    """Riemann-Roch bases of the floored slice divisors, one piece per
    weight; weights with equal divisors share one basis."""
    pieces = []
    bases: dict[frozenset, list[FunctionFieldElement]] = {}
    for u in dp.lattice_points():
        D = dp.at(u).floor
        key = frozenset(D.coeffs.items())
        if key not in bases:
            bases[key] = riemann_roch_basis(dp.curve, D)
        pieces.append(GradedPiece(u, D, bases[key]))
    return GradedSections(pieces)


def volume(dp: DivisorialPolytope) -> Fraction:
    """Sum over slices of the exact integral over the box."""
    return sum((s.integral() for s in dp.slices.values()), Fraction(0))


def self_intersection(dp: DivisorialPolytope) -> Fraction:
    """(m+1)! times the volume."""
    return factorial(dp.m + 1) * volume(dp)


def mixed_volume(dps: list[DivisorialPolytope]) -> Fraction:
    """Polarization of the volume: V = (1/k!) sum over nonempty subsets S of
    (-1)^(k-|S|) vol(sum of the members of S).

    Each subset's sum is the stored sum of its lower members plus its top
    member, so sums associate from the left: ((m0 + m1) + m2).
    """
    k = len(dps)
    if k == 0:
        raise ValueError("mixed volume of an empty family")
    if any(dp.m != dps[0].m for dp in dps):
        raise ValueError("mixed volume arguments must share a dimension")
    total = Fraction(0)
    sums: list[DivisorialPolytope | None] = [None]
    for mask in range(1, 1 << k):
        top = mask.bit_length() - 1
        lower = sums[mask ^ (1 << top)]
        sums.append(dps[top] if lower is None else lower.add(dps[top]))
        total += (-1) ** (k - mask.bit_count()) * volume(sums[mask])
    return total / factorial(k)


def intersection_number(dps: list[DivisorialPolytope]) -> Fraction:
    """(m+1)! times the mixed volume of m+1 divisorial polytopes."""
    if len(dps) != dps[0].m + 1:
        raise ValueError("intersection numbers take m+1 arguments")
    return factorial(len(dps)) * mixed_volume(dps)


def inn(dp: DivisorialPolytope) -> int:
    """Per-slice signed ceiling count over interior lattice points (m = 1)."""
    if dp.m != 1:
        raise ValueError("the interior count is defined for interval boxes")
    return sum(signed_ceiling_interior_sum(s) for s in dp.slices.values())


def sharp(dp: DivisorialPolytope) -> int:
    """Sum over box lattice points of the floored total degree.

    Computed both pointwise and per slice; the two routes must agree.
    """
    by_points = sum(dp.at(u).floor_degree for u in dp.lattice_points())
    by_slices = sum(floor_sum_over_lattice(s) for s in dp.slices.values())
    assert by_points == by_slices, "floor-degree bookkeeping mismatch"
    return by_points


def genus_of_section(dp: DivisorialPolytope) -> tuple[int, int, int]:
    """(constant, coefficient, value): genus = constant + coefficient * g(Y)."""
    if dp.m != 1:
        raise ValueError("the section-curve genus formula applies to m = 1")
    volbox = dp.box.volume()
    assert volbox.denominator == 1
    const = inn(dp) + 1 - int(volbox)
    coeff = int(volbox)
    return const, coeff, const + coeff * dp.curve.genus


def euler_characteristic(dp: DivisorialPolytope) -> tuple[int, int, int]:
    """(constant, coefficient, value): chi = constant + coefficient * g(Y).

    chi is the sum over the N box lattice weights of floor-degree + 1 - g,
    that is (sharp + N) - N * g; `sharp` cross-checks its sum per slice.
    """
    n_pts = len(dp.lattice_points())
    const = sharp(dp) + n_pts
    return const, -n_pts, const - n_pts * dp.curve.genus


def box_lambda(dp: DivisorialPolytope, lam: int) -> list[tuple[int, ...]]:
    """Lattice weights whose floored total degree is at least lam."""
    return [u for u in dp.lattice_points() if dp.at(u).floor_degree >= lam]


def nu(dp: DivisorialPolytope, lam: int) -> int:
    """Width of box_lambda (m = 1): max minus min of the surviving weights."""
    if dp.m != 1:
        raise ValueError("nu is an interval width")
    pts = box_lambda(dp, lam)
    if not pts:
        raise ValueError(f"box_lambda({lam}) is empty")
    vals = [u[0] for u in pts]
    return max(vals) - min(vals)


def project(dp: DivisorialPolytope) -> DivisorialPolytope:
    """Drop the last coordinate, taking fiberwise maxima over lattice points.

    The result is checked to be genuine divisorial-polytope data (concave
    slices on the projected interval with nonnegative vertex degrees).
    """
    if dp.m != 2:
        raise ValueError("projection reduces two-variable data to one")
    pts = dp.lattice_points()
    fibers: dict[int, list[tuple[int, ...]]] = {}
    for u in pts:
        fibers.setdefault(u[0], []).append(u)
    lo, hi = min(fibers), max(fibers)
    if set(fibers) != set(range(lo, hi + 1)):
        raise ValueError("projected weights are not contiguous")
    box = LatticePolytope.interval(lo, hi)
    slices = {}
    for P, s in dp.slices.items():
        graph = []
        for u1 in range(lo, hi + 1):
            val = max(dp.at(u).value[P] for u in fibers[u1])
            graph.append(((u1,), val))
        env = ConcavePL.from_graph_points(graph)
        for (u1,), val in graph:
            if env._value((u1,)) != val:
                raise ValueError(
                    f"projection of slice at {P.render()} is not concave at {u1}"
                )
        slices[P] = env
    out = DivisorialPolytope(dp.curve, box, slices)
    report = validate(out)
    if not report.ok:
        raise ValueError("projected data fails validation: " + "; ".join(report.failures()))
    return out


def section_zero_ray_coefficients(dp: DivisorialPolytope, u) -> dict[tuple[int, ...], Fraction]:
    """Ray coefficients of the zero divisor of a weight-u invariant section.

    The section divisor shifts the ray part by the pairing <u, n>, giving
    <u, n> - min over box vertices of the pairing; nonnegative on the box.
    """
    out = {}
    uu = make_point(u)
    for n in dp.box.rays():
        h0 = min(sum(c * w for c, w in zip(v, n)) for v in dp.box.vertices)
        out[n] = dot(uu, make_point(n)) - h0
    return out
