"""Seeded inputs and closed-form expectations, written without the library.

Everything here is plain Python over ints and Fractions, so the benchmark's
inputs and the values it checks results against do not come from the code
under test.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

PRIMES = [p for p in range(7, 102) if all(p % d for d in range(2, int(p**0.5) + 1))]

# Curve kinds: the projective line, and y^2 = x^3 + 3 (smooth for every p >= 5).
P1, ELLIPTIC = "p1", "elliptic"
GENUS = {P1: 0, ELLIPTIC: 1}

Point = tuple[int, int] | None  # None is the point at infinity


@functools.cache
def rational_points(p: int, kind: str) -> tuple[Point, ...]:
    """All rational points: affine ones sorted by (x, y), infinity last."""
    if kind == P1:
        affine = [(x, 0) for x in range(p)]
    else:
        affine = [(x, y) for x in range(p) for y in range(p) if (y * y - x**3 - 3) % p == 0]
    return tuple(affine + [None])


def primitive_root(p: int) -> int:
    """Smallest generator of the unit group mod a prime p."""
    factors = {d for d in range(2, p) if (p - 1) % d == 0 and all(d % e for e in range(2, d))}
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // f, p) != 1 for f in factors))


def point_sort_key(P: Point) -> tuple[int, int, int]:
    return (1, 0, 0) if P is None else (0, P[0], P[1])


def render_point(P: Point) -> str:
    return "inf" if P is None else f"({P[0]},{P[1]})"


# -- interval (m = 1) instances ----------------------------------------------


@dataclass
class Slice1D:
    """Concave graph on [0, a] by its vertices (u, value), strictly concave."""

    graph: list[tuple[int, Fraction]]

    def value(self, u: int) -> Fraction:
        for (u0, z0), (u1, z1) in zip(self.graph, self.graph[1:]):
            if u0 <= u <= u1:
                return z0 + (z1 - z0) * (u - u0) / (u1 - u0)
        raise ValueError(f"{u} is outside the slice domain")

    def pieces(self) -> list[tuple[Fraction, Fraction]]:
        """(slope, intercept) of each linear piece, left to right."""
        out = []
        for (u0, z0), (u1, z1) in zip(self.graph, self.graph[1:]):
            g = (z1 - z0) / (u1 - u0)
            out.append((g, z0 - g * u0))
        return out

    def affine_integral(self) -> bool:
        pieces = self.pieces()
        return len(pieces) == 1 and all(x.denominator == 1 for x in pieces[0])


@dataclass
class IntervalInstance:
    """Box [0, a] over a curve, slices at named points, optional eval subset."""

    p: int
    kind: str
    a: int
    carriers: dict[str, Point]
    slices: dict[str, Slice1D]
    eval_points: list[Point] | None = None

    @property
    def genus(self) -> int:
        return GENUS[self.kind]

    def weights(self) -> range:
        return range(self.a + 1)

    def floor_deg(self, u: int) -> int:
        return sum(math.floor(s.value(u)) for s in self.slices.values())

    def admissible(self) -> list[Point]:
        bad = {self.carriers[n] for n, s in self.slices.items() if not s.affine_integral()}
        return [P for P in rational_points(self.p, self.kind) if P not in bad]

    @property
    def l(self) -> int:
        return len(self.eval_points) if self.eval_points is not None else len(self.admissible())

    @property
    def n(self) -> int:
        return self.l * (self.p - 1)

    def rr_dim(self, u: int) -> int:
        """dim L(floor D_u) by Riemann-Roch. On the elliptic curve a degree-0
        divisor is principal iff it sums to zero in the group; the generators
        only produce the zero divisor there, so no group law is needed."""
        d = self.floor_deg(u)
        if self.genus == 0:
            return max(0, d + 1)
        if d == 0:
            if any(math.floor(s.value(u)) for s in self.slices.values()):
                raise ValueError("nonzero degree-zero divisor on a genus-one curve")
            return 1
        return max(0, d)

    @property
    def k(self) -> int:
        """Riemann-Roch count of graded sections; the code dimension whenever
        every floored degree is below l and a <= q - 2 (evaluation injective)."""
        return sum(self.rr_dim(u) for u in self.weights())

    def d_lower(self) -> int:
        """min over lambda of (l - lambda)(q - 1 - nu(lambda))."""
        degs = {u: self.floor_deg(u) for u in self.weights()}
        best = None
        for lam in range(max(degs.values()) + 1):
            kept = [u for u, d in degs.items() if d >= lam]
            nu = max(kept) - min(kept)
            val = max(0, self.l - lam) * max(0, self.p - 1 - nu)
            best = val if best is None else min(best, val)
        return best

    def volume(self) -> Fraction:
        total = Fraction(0)
        for s in self.slices.values():
            for (u0, z0), (u1, z1) in zip(s.graph, s.graph[1:]):
                total += (u1 - u0) * (z0 + z1) / 2
        return total

    def euler(self) -> tuple[int, int, int]:
        sharp = sum(self.floor_deg(u) for u in self.weights())
        count = self.a + 1
        return sharp + count, -count, sharp + count - count * self.genus

    def genus_of_section(self) -> tuple[int, int, int]:
        inn = 0
        for s in self.slices.values():
            for u in range(1, self.a):
                x = s.value(u)
                inn += math.ceil(x) if x > 0 else -math.ceil(-x)
        const = inn + 1 - self.a
        return const, self.a, const + self.a * self.genus

    def ample(self) -> bool:
        return all(sum(s.value(u) for s in self.slices.values()) > 0 for u in (0, self.a))

    def weil(self) -> str:
        parts = [f"{self.a}*ray(-1)", "0*ray(1)"]
        terms = []
        for name, s in self.slices.items():
            P = self.carriers[name]
            for g, c in s.pieces():
                terms.append((point_sort_key(P), g, f"{g.denominator * c}*({render_point(P)},({g}))"))
        terms.sort(key=lambda t: (t[0], t[1]))
        return " + ".join(parts + [t[2] for t in terms])

    def render(self) -> str:
        """Problem-file text (evaluation at all admissible points)."""
        lines = [f"field p={self.p}"]
        lines.append("curve p1" if self.kind == P1 else "curve elliptic A=0 B=3")
        for name, P in self.carriers.items():
            lines.append(f"point {name} = " + ("infinity" if P is None else f"({P[0]},{P[1]})"))
        lines.append(f"box [0,{self.a}]")
        for name, s in self.slices.items():
            lines.append(f"hstar {name} : " + " ".join(f"({u},{z})" for u, z in s.graph))
        lines.append("eval all-admissible")
        return "\n".join(lines) + "\n"


def _random_slice(rng: random.Random, a: int) -> Slice1D:
    """A concave slice on [0, a]: affine (slope 0, 1/2 or 1) or one break."""
    start = Fraction(rng.randint(0, 2))
    if a == 1 or rng.random() < 0.4:
        slope = Fraction(rng.choice([0, 1, 2]), 2)
        return Slice1D([(0, start), (a, start + slope * a)])
    t = rng.randint(1, a - 1)
    up, down = rng.choice([(1, 0), (1, -1), (2, 0), (1, Fraction(-1, 2))])
    mid = start + up * t
    return Slice1D([(0, start), (t, mid), (a, mid + down * (a - t))])


def interval_instance(
    rng: random.Random, p: int, kind: str, a: int, max_deg: int, k_target: int | None = None
) -> IntervalInstance:
    """Random box-[0, a] instance with two slices at distinct random points.

    Floored degrees stay at most max_deg and at least 0 on the line, 1 on the
    elliptic curve, so every op on the instance is defined.
    """
    points = rational_points(p, kind)
    low = 1 if kind == ELLIPTIC else 0
    while True:
        q1, q2 = rng.sample(points, 2)
        inst = IntervalInstance(
            p, kind, a, {"Q1": q1, "Q2": q2}, {"Q1": _random_slice(rng, a), "Q2": _random_slice(rng, a)}
        )
        degs = [inst.floor_deg(u) for u in inst.weights()]
        if min(degs) < low or max(degs) > max_deg:
            continue
        if k_target is not None and inst.k != k_target:
            continue
        return inst


def family_instance(rng: random.Random, p: int, kind: str) -> IntervalInstance:
    """Single affine integral slice b + alpha*u on [0, a], the compare shape."""
    points = rational_points(p, kind)
    a = rng.randint(1, 4)
    alpha = 1 if a % 2 == 0 else 2
    b = rng.randint(1, 3)
    P = rng.choice(points)
    return IntervalInstance(p, kind, a, {"Q1": P}, {"Q1": Slice1D([(0, Fraction(b)), (a, Fraction(b + alpha * a))])})


def compare_expectation(inst: IntervalInstance) -> dict[str, int]:
    """The product-code comparison values for a family instance."""
    (s,) = inst.slices.values()
    (alpha, b), = s.pieces()
    a, g, q, l = inst.a, inst.genus, inst.p, inst.l
    k1 = a + 1
    tau = int(b) + int(alpha) * a // 2
    ruled = IntervalInstance(q, inst.kind, a, {"R": None}, {"R": s}, eval_points=inst.admissible())
    return {
        "k1": k1,
        "tau": tau,
        "k_product": k1 * (tau + 1 - g),
        "d_product": (q - k1) * (l - tau),
        "k_tcode": ruled.k,
        "d_tcode": ruled.d_lower(),
    }


# -- two-weight (m = 2) instances over the projective line -------------------

POLYGONS = {
    "triangle": [(0, 0), (2, 0), (0, 2)],
    "square": [(0, 0), (1, 0), (1, 1), (0, 1)],
    "hexagon": [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)],
}
# Slices sit at 0, 1 and infinity of the line, as in the built-in threefold.
POLYGON_CARRIERS: list[Point] = [(0, 0), (1, 0), None]


@dataclass
class PolygonInstance:
    """Polygon box with three slices, each min of two affine pieces sampled at
    the box vertices (so the slice has lattice graph vertices)."""

    p: int
    shape: str
    slices: dict[Point, list[tuple[tuple[int, int], int]]]

    @property
    def vertices(self) -> list[tuple[int, int]]:
        return POLYGONS[self.shape]


def polygon_instance(rng: random.Random, p: int, shape: str) -> PolygonInstance:
    """Both affine pieces of every slice show at the box vertices, so each
    square or hexagon slice folds (a triangle's three values are affine)."""
    verts = POLYGONS[shape]
    while True:
        slices = {}
        for P in POLYGON_CARRIERS:
            while True:
                pieces = [((rng.randint(-1, 1), rng.randint(-1, 1)), rng.randint(0, 2)) for _ in range(2)]
                graph = [(v, min(g[0] * v[0] + g[1] * v[1] + c for g, c in pieces)) for v in verts]
                if len(verts) == 3 or not _affine(graph):
                    break
            slices[P] = graph
        if all(sum(graph[i][1] for graph in slices.values()) >= 0 for i in range(len(verts))):
            return PolygonInstance(p, shape, slices)


def _affine(graph: list[tuple[tuple[int, int], int]]) -> bool:
    """Whether one affine function takes all the values (the first three
    vertices of each polygon are affinely independent)."""
    (a, za), (b, zb), (c, zc) = graph[:3]
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    gx = Fraction((zb - za) * (c[1] - a[1]) - (zc - za) * (b[1] - a[1]), det)
    gy = Fraction((zc - za) * (b[0] - a[0]) - (zb - za) * (c[0] - a[0]), det)
    return all(z == za + gx * (v[0] - a[0]) + gy * (v[1] - a[1]) for v, z in graph)


def convex_hull(points) -> list[tuple]:
    """Counterclockwise hull vertices (monotone chain, collinear points dropped)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    upper: list = []
    for chain, seq in ((lower, pts), (upper, reversed(pts))):
        for q in seq:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], q) <= 0:
                chain.pop()
            chain.append(q)
    return lower[:-1] + upper[:-1]


def polygon_area(points) -> Fraction:
    hull = convex_hull(points)
    twice = sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(hull, hull[1:] + hull[:1]))
    return Fraction(abs(twice), 2)


def minkowski(a, b) -> list[tuple[int, int]]:
    return convex_hull([(x[0] + y[0], x[1] + y[1]) for x in a for y in b])


def mixed_area(a, b) -> Fraction:
    """area(A + B) - area(A) - area(B): the pairing of two boxes with a fiber."""
    return polygon_area(minkowski(a, b)) - polygon_area(a) - polygon_area(b)


def outer_normals(verts) -> list[tuple[int, int]]:
    hull = convex_hull(verts)
    out = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        g = math.gcd(dx, dy)
        out.append((dy // g, -dx // g))
    return sorted(out)
