"""Exact piecewise-linear convexity in one and two variables.

Everything is computed over rationals: lattice polytopes, upper concave
envelopes of finite graph-point sets, min-plus support-function slices, the
Legendre-type duality between the two, sup-convolution, and exact integrals
of concave piecewise-linear functions over their domains.

The arithmetic runs in integers: numerators over common denominators, with
`Fraction` built only for the public views and results. Graph points are
lifted to integers once and enveloped; a sup-convolution envelopes the
pairwise sums of its summands' stored vertices, in any dimension. Values at
lattice points come from one integer kernel, `ConcavePL._value`, with one
`Fraction` per value; `Fraction` points are made only by `try_evaluate`,
which lifts a rational point and calls the same kernel.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import ceil, floor, gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

Point = tuple[Fraction, ...]
IntPoint = tuple[int, ...]


def make_point(coords: Sequence[Fraction | int] | Fraction | int) -> Point:
    if isinstance(coords, (int, Fraction)):
        return (Fraction(coords),)
    return tuple(Fraction(c) for c in coords)


def dot(u: Point, v: Point) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def primitive_vector(v: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for c in v:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(c // g for c in v)


def _lift(points: Sequence[Sequence[Fraction | int]]) -> tuple[int, list[IntPoint]]:
    """The least common denominator of exact points, and their numerators over it."""
    den = lcm(*(c.denominator for p in points for c in p))
    return den, [tuple(c.numerator * (den // c.denominator) for c in p) for p in points]


def _cross(o: IntPoint, a: IntPoint, b: IntPoint) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(pts: Iterable[IntPoint]) -> list[IntPoint]:
    """Monotone-chain scan of sorted points: the chain that turns strictly
    counterclockwise at each kept point, so the lower hull from left to right
    (or the upper hull from right to left, for points in reverse order)."""
    chain: list[IntPoint] = []
    for p in pts:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def _hull(points: Iterable[IntPoint]) -> list[IntPoint]:
    """Convex hull of integer points, counterclockwise from the lexicographic
    minimum. Degenerate inputs give one point or the two segment endpoints."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    hull = _chain(pts)[:-1] + _chain(reversed(pts))[:-1]
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    return hull


def polygon_area2(hull: Sequence[Point]) -> Fraction:
    """Twice the signed area (positive for counterclockwise order)."""
    total = Fraction(0)
    for i in range(len(hull)):
        x1, y1 = hull[i]
        x2, y2 = hull[(i + 1) % len(hull)]
        total += x1 * y2 - x2 * y1
    return total


def _contains(hull: Sequence[IntPoint], p: IntPoint) -> bool:
    """Whether p lies in a `_hull` result, or in an interval given by its ends."""
    if len(hull) >= 3:
        return all(_cross(a, b, p) >= 0 for a, b in zip(hull, [*hull[1:], *hull[:1]]))
    # A point or a segment, its ends in lexicographic order.
    return hull[0] <= p <= hull[-1] and (len(p) == 1 or _cross(hull[0], hull[-1], p) == 0)


def _lattice_points(hull: Sequence[IntPoint], den: int = 1) -> list[tuple[int, ...]]:
    """The integer points u with den * u in the hull, in lexicographic order."""
    axes = [[c[i] for c in hull] for i in range(len(hull[0]))]
    box = product(*(range(-(-min(a) // den), max(a) // den + 1) for a in axes))
    return [u for u in box if _contains(hull, tuple(den * x for x in u))]


def _upper_chain(pts: list[IntPoint]) -> tuple[list[IntPoint], bool]:
    """Upper hull of (position, value) pairs sorted by distinct positions,
    and whether some pair that is not a hull vertex lies on the hull."""
    chain = _chain(reversed(pts))[::-1]
    # bisect finds the chain edge over a position; a pair inside it is on the hull when collinear.
    ends = [x for x, _ in chain]
    return chain, any(
        (i := bisect(ends, x)) < len(ends) and ends[i - 1] < x and _cross(chain[i - 1], chain[i], (x, z)) == 0
        for x, z in pts
    )


def _line_chain(reps: dict[IntPoint, int], q0: IntPoint, q1: IntPoint) -> tuple[list[IntPoint], bool]:
    """The envelope vertices of the points on the line through q0 and q1,
    ordered from q0 towards q1 (lexicographically when q0 < q1), and its flag."""
    d = (q1[0] - q0[0], q1[1] - q0[1])
    line = {d[0] * (p[0] - q0[0]) + d[1] * (p[1] - q0[1]): p for p in reps if _cross(q0, q1, p) == 0}
    chain, collinear = _upper_chain(sorted((s, reps[p]) for s, p in line.items()))
    return [line[s] for s, _ in chain], collinear


class LatticePolytope:
    """Convex lattice polytope in Z^m, m in {1, 2}, with canonical vertex order."""

    def __init__(self, vertices: Sequence[Sequence[int]]):
        vtx = [tuple(int(c) for c in v) for v in vertices]
        if not vtx:
            raise ValueError("empty polytope")
        m = len(vtx[0])
        if m not in (1, 2) or any(len(v) != m for v in vtx):
            raise ValueError("polytopes are supported in dimensions 1 and 2")
        self.m = m
        hull = _hull(vtx) if m == 2 else sorted({min(vtx), max(vtx)})
        self.vertices: tuple[tuple[int, ...], ...] = tuple(hull)

    @classmethod
    def interval(cls, lo: int, hi: int) -> "LatticePolytope":
        if lo > hi:
            raise ValueError(f"empty interval [{lo},{hi}]")
        return cls([(lo,), (hi,)])

    def bounds(self, axis: int = 0) -> tuple[int, int]:
        vals = [v[axis] for v in self.vertices]
        return min(vals), max(vals)

    @cached_property
    def _points(self) -> tuple[tuple[int, ...], ...]:
        return tuple(_lattice_points(self.vertices))

    def lattice_points(self) -> list[tuple[int, ...]]:
        """All integer points, in lexicographic order, as a new list; the
        scan runs once per polytope, since nothing mutates one."""
        return list(self._points)

    def volume(self) -> Fraction:
        """Length for m = 1, Euclidean area for m = 2."""
        if self.m == 1:
            lo, hi = self.bounds()
            return Fraction(hi - lo)
        return polygon_area2(self.vertices) / 2

    def width_along(self, axis: int) -> int:
        lo, hi = self.bounds(axis)
        return hi - lo

    def is_full_dimensional(self) -> bool:
        if self.m == 1:
            return len(self.vertices) == 2
        return len(self.vertices) >= 3

    def minkowski(self, other: "LatticePolytope") -> "LatticePolytope":
        sums = [
            tuple(a + b for a, b in zip(v, w))
            for v in self.vertices
            for w in other.vertices
        ]
        return LatticePolytope(sums)

    def scale(self, k: int) -> "LatticePolytope":
        if k < 0:
            raise ValueError("scaling factor must be nonnegative")
        if k == 0:
            return LatticePolytope([(0,) * self.m])
        return LatticePolytope([tuple(k * c for c in v) for v in self.vertices])

    def rays(self) -> list[tuple[int, ...]]:
        """Primitive ray generators of the normal fan (one per facet)."""
        if not self.is_full_dimensional():
            raise ValueError("normal-fan rays need a full-dimensional polytope")
        if self.m == 1:
            return [(-1,), (1,)]
        out = []
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            d = (b[0] - a[0], b[1] - a[1])
            out.append(primitive_vector((d[1], -d[0])))
        return sorted(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LatticePolytope)
            and self.m == other.m
            and set(self.vertices) == set(other.vertices)
        )

    def __repr__(self) -> str:
        return f"LatticePolytope({list(self.vertices)})"


Facet = tuple[Point, Fraction, tuple[Point, ...]]  # (gradient, constant, cell vertices)
Cell = tuple[IntPoint, int, tuple[IntPoint, ...]]  # the same over the stored denominators


class ConcavePL:
    """A concave piecewise-linear function, stored by its graph vertices.

    Built as the upper concave envelope of finite graph data. `had_collinear`
    records whether some input point lay on the envelope without being one of
    its vertices, which is exactly a failure of strict concavity.

    Immutable: the domain (its vertices) and the full-dimensional linearity
    cells are fixed at construction and every query reads them. In either
    dimension a full-dimensional domain carries its cells, and the function
    is the minimum of their affine pieces; a point domain or a segment in the
    plane has no cells.

    Stored in integers over two denominators `den` and `gden`: a vertex
    (X, Z) has position X / den and value Z / den, and a cell (G, C, corners)
    is the piece gden * Z = <G, X> + C on corners X, so its gradient is
    G / gden and its constant C / (gden * den). `vertices`, `facets()`,
    `cells()` and `domain_vertices()` give the same data in `Fraction`s.
    """

    def __init__(self, m: int, vertices: Sequence[tuple[IntPoint, int]], had_collinear: bool,
                 cells: Sequence[Cell], domain: Sequence[IntPoint], den: int, gden: int = 1):
        """The stored vertices, `Cell`s and domain vertices, over `den` and `gden`."""
        self.m = m
        self.had_collinear = had_collinear
        self._den, self._gden = den, gden
        self._pts: tuple[tuple[IntPoint, int], ...] = tuple(sorted(vertices))
        self._cells: tuple[Cell, ...] = tuple(cells)
        self._domain = tuple(domain)

    def _exact(self, q: IntPoint) -> Point:
        return tuple(Fraction(x, self._den) for x in q)

    @cached_property
    def vertices(self) -> tuple[tuple[Point, Fraction], ...]:
        """The graph vertices as sorted (point, value) pairs."""
        return tuple((self._exact(p), Fraction(z, self._den)) for p, z in self._pts)

    @classmethod
    def from_graph_points(
        cls, points: Iterable[tuple[Sequence[Fraction | int] | int, Fraction | int]]
    ) -> "ConcavePL":
        graph = [(*make_point(pos), Fraction(val)) for pos, val in points]
        if not graph:
            raise ValueError("a concave function needs at least one graph point")
        m = len(graph[0]) - 1
        if m not in (1, 2):
            raise ValueError("supported in dimensions 1 and 2 only")
        if any(len(c) != m + 1 for c in graph):
            raise ValueError("mixed-dimension graph points")
        return cls._from_lifted(m, *_lift(graph))

    @classmethod
    def _from_lifted(cls, m: int, den: int, graph: Iterable[IntPoint]) -> "ConcavePL":
        """The envelope of integer graph points (X, Z) over den, X of
        dimension m, keeping the largest Z at each position X."""
        reps: dict[IntPoint, int] = {}
        for c in graph:
            p, z = c[:m], c[m]
            if reps.get(p, z) <= z:
                reps[p] = z
        return cls._envelope_1d(reps, den) if m == 1 else cls._envelope_2d(reps, den)

    @classmethod
    def constant_on(cls, domain: LatticePolytope, value: Fraction | int = 0) -> "ConcavePL":
        return cls.from_graph_points([(v, value) for v in domain.vertices])

    @classmethod
    def _envelope_1d(cls, reps: dict[IntPoint, int], den: int) -> "ConcavePL":
        # Monotone upper-hull scan; the extreme positions always survive, so
        # this yields exactly the envelope vertices of a function graph.
        chain, collinear = _upper_chain(sorted((x, z) for (x,), z in reps.items()))
        edges = list(zip(chain, chain[1:]))
        gden = lcm(*(xb - xa for (xa, _), (xb, _) in edges))
        cells = []
        for (xa, za), (xb, zb) in edges:
            g = (zb - za) * (gden // (xb - xa))
            cells.append(((g,), za * gden - g * xa, ((xa,), (xb,))))
        domain = sorted({(chain[0][0],), (chain[-1][0],)})
        return cls(1, [((x,), z) for x, z in chain], collinear, cells, domain, den, gden)

    @classmethod
    def _envelope_2d(cls, reps: dict[IntPoint, int], den: int) -> "ConcavePL":
        """Gift wrapping over the upper facets of the graph points (X, Z) over den.

        The wrap starts at the first envelope edge along the first hull edge.
        The cell left of an envelope edge a -> b has the lowest plane through
        lifted a and b above every point strictly left of the edge; its edges,
        reversed, lead on, and a reversed boundary edge has nothing on its
        left. The vertices are the cell corners; any other tight point lies
        on the envelope without being a vertex. A plane is kept as integers
        (n1, n2, n0, d) in lowest terms, d > 0: d * Z = n1 * X + n2 * Y + n0.
        """
        hull = _hull(reps)
        if len(hull) < 3:
            line, collinear = _line_chain(reps, hull[0], hull[-1])
            return cls(2, [(p, reps[p]) for p in line], collinear, (), hull, den)
        edges = [tuple(_line_chain(reps, hull[0], hull[1])[0][:2])]
        planes: dict[tuple[int, int, int, int], tuple[IntPoint, ...]] = {}
        on_env: set[IntPoint] = set()
        while edges:
            a, b = edges.pop()
            za, dz = reps[a], reps[b] - reps[a]
            ex, ey = b[0] - a[0], b[1] - a[1]
            n1 = n2 = d = 0  # d = 0: no point left of a -> b yet
            for q, zq in reps.items():
                qx, qy = q[0] - a[0], q[1] - a[1]
                dq = ex * qy - ey * qx
                if dq > 0 and (d == 0 or d * (zq - za) > n1 * qx + n2 * qy):
                    n1, n2, d = dz * qy - (zq - za) * ey, (zq - za) * ex - dz * qx, dq
            if d == 0:
                continue
            n0 = za * d - n1 * a[0] - n2 * a[1]
            k = gcd(n1, n2, n0, d)
            plane = (n1 // k, n2 // k, n0 // k, d // k)
            if plane in planes:
                continue
            n1, n2, n0, d = plane
            tight = [p for p, z in reps.items() if n1 * p[0] + n2 * p[1] + n0 == d * z]
            planes[plane] = cell = tuple(_hull(tight))
            on_env.update(tight)
            edges.extend(zip(cell[1:] + cell[:1], cell))
        gden = lcm(*(d for *_, d in planes))
        cells = sorted(
            ((n1 * gden // d, n2 * gden // d), n0 * gden // d, cell) for (n1, n2, n0, d), cell in planes.items()
        )
        corners = {p for cell in planes.values() for p in cell}
        return cls(2, [(p, reps[p]) for p in corners], on_env != corners, cells, hull, den, gden)

    # -- domain ----------------------------------------------------------

    def domain_vertices(self) -> list[Point]:
        return [self._exact(q) for q in self._domain]

    def has_domain(self, vertices: Iterable[Sequence[int]]) -> bool:
        """Whether the domain's vertices are exactly these lattice points."""
        return set(self._domain) == {tuple(self._den * x for x in v) for v in vertices}

    def domain_lattice_points(self) -> list[tuple[int, ...]]:
        """The integer points of the domain, in lexicographic order."""
        return _lattice_points(self._domain, self._den)

    # -- evaluation ------------------------------------------------------

    def _value(self, q: IntPoint, b: int = 1) -> Fraction | None:
        """The value at q / b, for integer numerators q and b >= 1: None when
        that point is off the domain or of another dimension. At a lattice
        point (b = 1) it reads the stored integers and builds one `Fraction`."""
        w = self._den
        p = tuple(w * x for x in q)  # the point over den, times b like the domain below
        dom = self._domain if b == 1 else [tuple(b * x for x in c) for c in self._domain]
        if len(q) != self.m or not _contains(dom, p):
            return None
        if self._cells:
            # At q / b each piece is (den * <G, q> + b * C) / (gden * den * b).
            top = min(w * sum(map(mul, G, q)) + b * C for G, C, _ in self._cells)
            return Fraction(top, self._gden * w * b)
        if len(self._pts) == 1:
            return Fraction(self._pts[0][1], w)
        # A segment in the plane: its vertices lie in order along it.
        (Xa, za), (Xb, zb) = next(
            pair for pair in zip(self._pts, self._pts[1:]) if p <= tuple(b * x for x in pair[1][0])
        )
        axis = 0 if Xa[0] != Xb[0] else 1
        d = Xb[axis] - Xa[axis]
        return Fraction(b * d * za + (zb - za) * (p[axis] - b * Xa[axis]), b * d * w)

    def try_evaluate(self, u: Sequence[Fraction | int] | int) -> Fraction | None:
        p = make_point(u)
        if len(p) != self.m:
            raise ValueError(f"{u} is not a point of dimension {self.m}")
        b, (q,) = _lift([p])
        return self._value(q, b)

    def evaluate(self, u: Sequence[Fraction | int] | int) -> Fraction:
        val = self.try_evaluate(u)
        if val is None:
            raise ValueError(f"{u} is outside the domain")
        return val

    # -- structure -------------------------------------------------------

    def facets(self) -> tuple[Facet, ...]:
        """Full-dimensional linearity cells with their affine data."""
        return tuple((g, c, tuple(map(self._exact, cell))) for (g, c), (*_, cell) in zip(self.cells(), self._cells))

    def cells(self) -> list[tuple[Point, Fraction]]:
        """(gradient, constant) per linearity cell."""
        e, w = self._gden, self._den
        return [(tuple(Fraction(g, e) for g in G), Fraction(C, e * w)) for G, C, _ in self._cells]

    def is_integral(self) -> bool:
        return all(x % self._den == 0 for p, z in self._pts for x in (*p, z))

    def affine_data(self) -> tuple[Point, Fraction] | None:
        """(gradient, constant) when the function is affine on its whole domain."""
        if len(self._cells) == 1:
            return self.cells()[0]
        if len(self._pts) == 1:
            return (Fraction(0),) * self.m, self.vertices[0][1]
        if len(self._pts) != 2:
            return None
        # Two vertices and no cell: a segment in the plane.
        (q0, z0), (q1, z1) = self.vertices
        d = (q1[0] - q0[0], q1[1] - q0[1])
        s = (z1 - z0) / (d[0] * d[0] + d[1] * d[1])
        g = (s * d[0], s * d[1])
        return g, z0 - g[0] * q0[0] - g[1] * q0[1]

    def integral(self) -> Fraction:
        """Exact integral over the domain (zero for degenerate domains).

        Each cell is fanned into simplices from its first corner; an affine
        function integrates over a simplex to its volume, det / m! (which is
        det / m for m <= 2), times its mean vertex value. In the stored
        integers a simplex adds det * (<G, sum of corners> + (m + 1) C) over
        m (m + 1) gden den^(m + 1).
        """
        m = self.m
        total = 0
        for G, C, cell in self._cells:
            for i in range(1, len(cell) - m + 1):
                simplex = (cell[0],) + cell[i : i + m]
                det = _cross(*simplex) if m == 2 else simplex[1][0] - simplex[0][0]
                total += det * (sum(g * sum(q[j] for q in simplex) for j, g in enumerate(G)) + (m + 1) * C)
        return Fraction(total, m * (m + 1) * self._gden * self._den ** (m + 1))

    def _times(self, k: int) -> tuple[list[tuple[IntPoint, int]], list[IntPoint]]:
        """The stored vertices and domain with every numerator multiplied by k."""
        pts = [(tuple(k * x for x in p), k * z) for p, z in self._pts]
        return pts, [tuple(k * x for x in q) for q in self._domain]

    def scale(self, k: int) -> "ConcavePL":
        """u -> k f(u / k): the same gradients on cells scaled by k."""
        if k <= 0:
            raise ValueError("scaling factor must be positive")
        pts, domain = self._times(k)
        cells = [(G, k * C, tuple(tuple(k * x for x in q) for q in cell)) for G, C, cell in self._cells]
        return ConcavePL(self.m, pts, self.had_collinear, cells, domain, self._den, self._gden)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConcavePL)
            and self.m == other.m
            and self.vertices == other.vertices
        )

    def __repr__(self) -> str:
        pieces = ", ".join(f"{tuple(map(str, p))}: {z}" for p, z in self.vertices)
        return f"ConcavePL[{pieces}]"


class SupportFunctionSlice:
    """A min-plus combination  v -> min_j (<u_j, v> - a_j)  of affine terms.

    Terms are kept canonical: exactly the vertices of the upper concave
    envelope of the graph points (u_j, a_j), which never changes the minimum.
    """

    def __init__(self, terms: Iterable[tuple[Sequence[Fraction | int] | int, Fraction | int]]):
        dual = ConcavePL.from_graph_points(list(terms))
        self.m = dual.m
        self.terms: tuple[tuple[Point, Fraction], ...] = dual.vertices
        self._dual = dual

    def value(self, v: Sequence[Fraction | int] | int) -> Fraction:
        p = make_point(v)
        return min(dot(u, p) - a for u, a in self.terms)

    def is_integral(self) -> bool:
        return self._dual.is_integral()

    def dual(self) -> ConcavePL:
        return self._dual

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SupportFunctionSlice) and self.terms == other.terms

    def __repr__(self) -> str:
        pieces = ", ".join(f"({tuple(map(str, u))}, {a})" for u, a in self.terms)
        return f"SupportFunctionSlice[{pieces}]"


def sup_convolution(f: ConcavePL, g: ConcavePL) -> ConcavePL:
    """Sup-convolution: u -> sup {f(u') + g(u'') : u' + u'' = u}.

    The hypograph of the result is the Minkowski sum of the hypographs, so
    the envelope of all pairwise vertex sums, the largest value kept at each
    position, is the result in either dimension and for any domain shape.
    The sums are taken in integers over the least common multiple of the two
    stored denominators. The domain is the Minkowski sum of the two domains.

    `had_collinear` is the flag of that envelope: in the plane, some vertex
    sum lies on the result without being a vertex of it. Parallel edges of
    f and g in one cell give such a sum (f □ f has them wherever f has an
    edge), so the sum of strictly concave functions may carry the flag.
    """
    if f.m != g.m:
        raise ValueError("mixed dimensions in sup-convolution")
    den = lcm(f._den, g._den)
    (pts_f, _), (pts_g, _) = f._times(den // f._den), g._times(den // g._den)
    sums = ((*map(add, p, q), zf + zg) for p, zf in pts_f for q, zg in pts_g)
    return ConcavePL._from_lifted(f.m, den, sums)


def floor_sum_over_lattice(f: ConcavePL) -> int:
    """Sum of floor(f(u)) over the lattice points of the domain."""
    return sum(floor(f._value(u)) for u in f.domain_lattice_points())


def signed_ceiling_interior_sum(f: ConcavePL) -> int:
    """Sum over interior lattice points of sign(f(u)) * ceil(|f(u)|) (m = 1)."""
    if f.m != 1:
        raise ValueError("interior counting is defined on intervals")
    (lo,), (hi,), den = f._domain[0], f._domain[-1], f._den
    total = 0
    for u in range(lo // den + 1, -(-hi // den)):
        x = f._value((u,))
        if x > 0:
            total += ceil(x)
        elif x < 0:
            total -= ceil(-x)
    return total


def toric_polytope(first: ConcavePL, second: ConcavePL) -> LatticePolytope:
    """Lattice polytope spanned by the graph of the first slice and the
    negated graph of the second (both m = 1 with lattice graph vertices)."""
    if first.m != 1 or second.m != 1:
        raise ValueError("the toric model is built from two interval slices")
    pts = []
    for sign, pl in ((1, first), (-1, second)):
        for p, z in pl.vertices:
            if p[0].denominator != 1 or z.denominator != 1:
                raise ValueError("graph vertices must be lattice points")
            pts.append((int(p[0]), sign * int(z)))
    return LatticePolytope(pts)
