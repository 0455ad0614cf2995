"""Exact piecewise-linear convexity in one and two variables.

Everything is computed over rationals: lattice polytopes, upper concave
envelopes of finite graph-point sets, min-plus support-function slices, the
Legendre-type duality between the two, sup-convolution, and exact integrals
of concave piecewise-linear functions over their domains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .algebra import rational_ceil, rational_floor

Point = tuple[Fraction, ...]


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


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Iterable[Point]) -> list[Point]:
    """Convex hull, counterclockwise from the lexicographic minimum.

    Degenerate inputs give one point or the two segment endpoints.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
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


def hull_contains(hull: Sequence[Point], p: Point) -> bool:
    if len(hull) == 1:
        return hull[0] == p
    if len(hull) == 2:
        a, b = hull
        if _cross(a, b, p) != 0:
            return False
        return all(min(a[i], b[i]) <= p[i] <= max(a[i], b[i]) for i in range(2))
    return all(
        _cross(hull[i], hull[(i + 1) % len(hull)], p) >= 0 for i in range(len(hull))
    )


def clip_segment(hull: Sequence[Point], q0: Point, q1: Point) -> tuple[Fraction, Fraction] | None:
    """Parameter range [tmin, tmax] of {q0 + t(q1-q0) : 0 <= t <= 1} inside the hull."""
    tmin, tmax = Fraction(0), Fraction(1)
    d = (q1[0] - q0[0], q1[1] - q0[1])
    if len(hull) < 3:
        raise ValueError("segment clipping needs a full-dimensional polygon")
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        # Inside condition cross(a, b, q0 + t d) >= 0 is affine in t.
        base = _cross(a, b, q0)
        slope = (b[0] - a[0]) * d[1] - (b[1] - a[1]) * d[0]
        if slope == 0:
            if base < 0:
                return None
        elif slope > 0:
            tmin = max(tmin, -base / slope)
        else:
            tmax = min(tmax, -base / slope)
    if tmin > tmax:
        return None
    return tmin, tmax


def _interp_on_segment(q: Point, r: Point, zq: Fraction, zr: Fraction, p: Point) -> Fraction | None:
    d = tuple(rc - qc for rc, qc in zip(r, q))
    axis = next((i for i, c in enumerate(d) if c != 0), None)
    if axis is None:
        return None
    lam = (p[axis] - q[axis]) / d[axis]
    if not 0 <= lam <= 1:
        return None
    if any(q[i] + lam * d[i] != p[i] for i in range(len(p))):
        return None
    return (1 - lam) * zq + lam * zr


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
        if m == 1:
            lo = min(v[0] for v in vtx)
            hi = max(v[0] for v in vtx)
            self.vertices: tuple[tuple[int, ...], ...] = ((lo,),) if lo == hi else ((lo,), (hi,))
        else:
            hull = convex_hull_2d([make_point(v) for v in vtx])
            out = []
            for p in hull:
                if any(c.denominator != 1 for c in p):
                    raise ValueError("lattice polytope vertices must be integral")
                out.append(tuple(int(c) for c in p))
            self.vertices = tuple(out)

    @classmethod
    def interval(cls, lo: int, hi: int) -> "LatticePolytope":
        if lo > hi:
            raise ValueError(f"empty interval [{lo},{hi}]")
        return cls([(lo,), (hi,)])

    def vertex_points(self) -> list[Point]:
        return [make_point(v) for v in self.vertices]

    def contains(self, u: Sequence[int] | Sequence[Fraction]) -> bool:
        p = make_point(u)
        if self.m == 1:
            lo, hi = self.bounds()
            return lo <= p[0] <= hi
        return hull_contains(self.vertex_points(), p)

    def bounds(self, axis: int = 0) -> tuple[int, int]:
        vals = [v[axis] for v in self.vertices]
        return min(vals), max(vals)

    def lattice_points(self) -> list[tuple[int, ...]]:
        """All integer points, in lexicographic order."""
        if self.m == 1:
            lo, hi = self.bounds()
            return [(u,) for u in range(lo, hi + 1)]
        xlo, xhi = self.bounds(0)
        ylo, yhi = self.bounds(1)
        return [
            (x, y)
            for x in range(xlo, xhi + 1)
            for y in range(ylo, yhi + 1)
            if self.contains((x, y))
        ]

    def volume(self) -> Fraction:
        """Length for m = 1, Euclidean area for m = 2."""
        if self.m == 1:
            lo, hi = self.bounds()
            return Fraction(hi - lo)
        if len(self.vertices) < 3:
            return Fraction(0)
        return polygon_area2(self.vertex_points()) / 2

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

    def min_face_vertices(self, n: Sequence[int]) -> list[tuple[int, ...]]:
        """Vertices minimizing the pairing with n."""
        vals = [sum(c * w for c, w in zip(v, n)) for v in self.vertices]
        lo = min(vals)
        return [v for v, val in zip(self.vertices, vals) if val == lo]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LatticePolytope)
            and self.m == other.m
            and set(self.vertices) == set(other.vertices)
        )

    def __repr__(self) -> str:
        return f"LatticePolytope({list(self.vertices)})"


Facet = tuple[Point, Fraction, tuple[Point, ...]]  # (gradient, constant, cell vertices)


class ConcavePL:
    """A concave piecewise-linear function, stored by its graph vertices.

    Built as the upper concave envelope of finite graph data. `had_collinear`
    records whether some input point lay on the envelope without being one of
    its vertices, which is exactly a failure of strict concavity.

    Immutable: the domain (its vertices) and the full-dimensional linearity
    cells (`Facet` triples) are fixed at construction and every query reads
    them. In either dimension a full-dimensional domain carries its cells, and
    the function is the minimum of their affine pieces; a point domain or a
    segment in the plane has no cells.
    """

    def __init__(self, m: int, vertices: Sequence[tuple[Point, Fraction]], had_collinear: bool, facets: tuple[Facet, ...] = ()):
        self.m = m
        self.vertices = tuple(sorted(((tuple(p), Fraction(z)) for p, z in vertices)))
        self.had_collinear = had_collinear
        self._facets = facets
        positions = [p for p, _ in self.vertices]
        self._domain = tuple(convex_hull_2d(positions) if m == 2 else sorted({positions[0], positions[-1]}))

    @classmethod
    def from_graph_points(
        cls, points: Iterable[tuple[Sequence[Fraction | int] | int, Fraction | int]]
    ) -> "ConcavePL":
        reps: dict[Point, Fraction] = {}
        for pos, val in points:
            p = make_point(pos)
            z = Fraction(val)
            if p not in reps or reps[p] < z:
                reps[p] = z
        if not reps:
            raise ValueError("a concave function needs at least one graph point")
        m = len(next(iter(reps)))
        if m not in (1, 2):
            raise ValueError("supported in dimensions 1 and 2 only")
        if any(len(p) != m for p in reps):
            raise ValueError("mixed-dimension graph points")
        if m == 1:
            return cls._envelope_1d(reps)
        return cls._envelope_2d(reps)

    @classmethod
    def constant_on(cls, domain: LatticePolytope, value: Fraction | int = 0) -> "ConcavePL":
        return cls.from_graph_points([(v, value) for v in domain.vertices])

    @classmethod
    def _envelope_1d(cls, reps: dict[Point, Fraction]) -> "ConcavePL":
        # Monotone upper-hull scan; the extreme positions always survive, so
        # this yields exactly the envelope vertices of a function graph.
        pts = sorted(reps.items())
        chain: list[tuple[Point, Fraction]] = []
        collinear = False
        for p, z in pts:
            while len(chain) >= 2:
                (p0, z0), (p1, z1) = chain[-2], chain[-1]
                turn = _cross((p0[0], z0), (p1[0], z1), (p[0], z))
                if turn > 0:
                    chain.pop()
                elif turn == 0:
                    chain.pop()
                    collinear = True
                else:
                    break
            chain.append((p, z))
        cells = []
        for (qa, za), (qb, zb) in zip(chain, chain[1:]):
            g = (zb - za) / (qb[0] - qa[0])
            cells.append(((g,), za - g * qa[0], (qa, qb)))
        return cls(1, chain, collinear, tuple(cells))

    @classmethod
    def _envelope_on_line(cls, reps: dict[Point, Fraction], q0: Point, q1: Point) -> "ConcavePL":
        """The envelope of the points on the line through q0 and q1 (no cells)."""
        d = (q1[0] - q0[0], q1[1] - q0[1])
        dd = d[0] * d[0] + d[1] * d[1]
        params = {(dot(d, (p[0] - q0[0], p[1] - q0[1])) / dd,): z for p, z in reps.items() if _cross(q0, q1, p) == 0}
        inner = cls._envelope_1d(params)
        verts = [((q0[0] + s * d[0], q0[1] + s * d[1]), z) for (s,), z in inner.vertices]
        return cls(2, verts, inner.had_collinear)

    @classmethod
    def _envelope_2d(cls, reps: dict[Point, Fraction]) -> "ConcavePL":
        """Gift wrapping over the upper facets of the lifted points.

        The wrap starts at the first envelope edge along the first hull edge.
        The cell left of an envelope edge a -> b has the lowest plane through
        lifted a and b above every point strictly left of the edge; its edges,
        reversed, lead on, and a reversed boundary edge has nothing on its
        left. The vertices are the cell corners; any other tight point lies
        on the envelope without being a vertex.
        """
        hull = convex_hull_2d(reps)
        if len(hull) == 1:
            return cls(2, [(hull[0], reps[hull[0]])], False)
        if len(hull) == 2:
            return cls._envelope_on_line(reps, *hull)
        (a, _), (b, _) = cls._envelope_on_line(reps, hull[0], hull[1]).vertices[:2]
        edges = [(a, b)]
        facets: dict[tuple[Fraction, Fraction, Fraction], Facet] = {}
        on_env: set[Point] = set()
        while edges:
            a, b = edges.pop()
            za, zb = reps[a], reps[b]
            plane = None
            for q, zq in reps.items():
                d = _cross(a, b, q)
                if d > 0 and (plane is None or plane[0] * q[0] + plane[1] * q[1] + plane[2] < zq):
                    g1 = ((zb - za) * (q[1] - a[1]) - (zq - za) * (b[1] - a[1])) / d
                    g2 = ((zq - za) * (b[0] - a[0]) - (zb - za) * (q[0] - a[0])) / d
                    plane = (g1, g2, za - g1 * a[0] - g2 * a[1])
            if plane is None or plane in facets:
                continue
            g1, g2, c = plane
            tight = [p for p, z in reps.items() if g1 * p[0] + g2 * p[1] + c == z]
            cell = convex_hull_2d(tight)
            facets[plane] = ((g1, g2), c, tuple(cell))
            on_env.update(tight)
            edges.extend(zip(cell[1:] + cell[:1], cell))
        corners = {p for _, _, cell in facets.values() for p in cell}
        return cls(2, [(p, reps[p]) for p in corners], on_env != corners, tuple(sorted(facets.values())))

    # -- domain ----------------------------------------------------------

    def domain_vertices(self) -> list[Point]:
        return list(self._domain)

    def domain_dim(self) -> int:
        return min(len(self._domain) - 1, self.m)

    def domain_contains(self, u: Sequence[Fraction | int] | int) -> bool:
        p = make_point(u)
        if len(p) != self.m:
            raise ValueError(f"{u} is not a point of dimension {self.m}")
        if self.m == 1:
            return self._domain[0] <= p <= self._domain[-1]
        return hull_contains(self._domain, p)

    def domain_polytope(self) -> LatticePolytope:
        dv = self._domain
        if any(c.denominator != 1 for p in dv for c in p):
            raise ValueError("domain is not a lattice polytope")
        return LatticePolytope([tuple(int(c) for c in p) for p in dv])

    def domain_lattice_points(self) -> list[tuple[int, ...]]:
        """The integer points of the domain, in lexicographic order."""
        lows = [rational_ceil(min(p[i] for p in self._domain)) for i in range(self.m)]
        highs = [rational_floor(max(p[i] for p in self._domain)) for i in range(self.m)]
        box = product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
        return [u for u in box if self.domain_contains(u)]

    # -- evaluation ------------------------------------------------------

    def try_evaluate(self, u: Sequence[Fraction | int] | int) -> Fraction | None:
        p = make_point(u)
        if not self.domain_contains(p):
            return None
        if self._facets:
            return min(sum(map(mul, g, p), c) for g, c, _ in self._facets)
        verts = self.vertices
        if len(verts) == 1:
            return verts[0][1]
        for (qa, za), (qb, zb) in zip(verts, verts[1:]):
            val = _interp_on_segment(qa, qb, za, zb, p)
            if val is not None:
                return val
        raise AssertionError("unreachable: point inside segment domain")

    def evaluate(self, u: Sequence[Fraction | int] | int) -> Fraction:
        val = self.try_evaluate(u)
        if val is None:
            raise ValueError(f"{u} is outside the domain")
        return val

    # -- structure -------------------------------------------------------

    def facets(self) -> tuple[Facet, ...]:
        """Full-dimensional linearity cells with their affine data."""
        return self._facets

    def cells(self) -> list[tuple[Point, Fraction]]:
        """(gradient, constant) per linearity cell."""
        return [(g, c) for g, c, _ in self._facets]

    def is_integral(self) -> bool:
        return all(
            all(c.denominator == 1 for c in p) and z.denominator == 1
            for p, z in self.vertices
        )

    def affine_data(self) -> tuple[Point, Fraction] | None:
        """(gradient, constant) when the function is affine on its whole domain."""
        if len(self._facets) == 1:
            g, c, _ = self._facets[0]
            return g, c
        if len(self.vertices) == 1:
            return (Fraction(0),) * self.m, self.vertices[0][1]
        if len(self.vertices) != 2:
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
        det / m for m <= 2), times its mean vertex value.
        """
        m = self.m
        total = Fraction(0)
        for g, c, cell in self._facets:
            for i in range(1, len(cell) - m + 1):
                simplex = (cell[0],) + cell[i : i + m]
                det = _cross(*simplex) if m == 2 else simplex[1][0] - simplex[0][0]
                mean = sum(dot(g, q) for q in simplex) / (m + 1) + c
                total += det * mean / m
        return total

    def shift(self, c: Fraction | int) -> "ConcavePL":
        verts = [(p, z + c) for p, z in self.vertices]
        facets = tuple((g, c0 + c, cell) for g, c0, cell in self._facets)
        return ConcavePL(self.m, verts, self.had_collinear, facets)

    def scale(self, k: int) -> "ConcavePL":
        """u -> k f(u / k): the same gradients on cells scaled by k."""
        if k <= 0:
            raise ValueError("scaling factor must be positive")
        verts = [(tuple(k * c for c in p), k * z) for p, z in self.vertices]
        facets = tuple(
            (g, k * c, tuple(tuple(k * x for x in q) for q in cell)) for g, c, cell in self._facets
        )
        return ConcavePL(self.m, verts, self.had_collinear, facets)

    def min_vertex_value(self) -> Fraction:
        return min(z for _, z in self.vertices)

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

    def subdivision_vertices(self) -> list[tuple[Point, Fraction]]:
        """Vertices v of the induced subdivision with their values min(v).

        Each full-dimensional linearity cell of the dual, with affine data
        z = <g, u> + c, contributes the subdivision vertex v = g at which
        the slice takes the value -c.
        """
        out = {}
        for g, c in self._dual.cells():
            out[g] = -c
        return sorted(out.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SupportFunctionSlice) and self.terms == other.terms

    def __repr__(self) -> str:
        pieces = ", ".join(f"({tuple(map(str, u))}, {a})" for u, a in self.terms)
        return f"SupportFunctionSlice[{pieces}]"


def _top_face(f: ConcavePL, grad: Point) -> tuple[Fraction, list[tuple[Point, Fraction]]]:
    """The maximum of z - <grad, p> over the vertices of f (m = 2), and the vertices attaining it."""
    g0, g1 = grad
    vals = [(z - g0 * p[0] - g1 * p[1], p, z) for p, z in f.vertices]
    top = max(v for v, _, _ in vals)
    return top, [(p, z) for v, p, z in vals if v == top]


def _dual_edges(f: ConcavePL) -> list[tuple[Point, Point, bool]]:
    """The dual edge of each edge of f's cells: the gradients γ whose top
    face (see `_top_face`) holds the edge, as base + t * direction. An inner
    edge gives the segment between its two cells' gradients, t in [0, 1]; a
    boundary edge the ray from its cell's gradient against the outer normal,
    t >= 0."""
    sides: dict[frozenset[Point], list[tuple[Point, Point, Point]]] = {}
    for grad, _, cell in f.facets():
        for a, b in zip(cell, cell[1:] + cell[:1]):
            sides.setdefault(frozenset((a, b)), []).append((grad, a, b))
    out = []
    for (grad, a, b), *other in sides.values():
        if other:
            out.append((grad, (other[0][0][0] - grad[0], other[0][0][1] - grad[1]), True))
        else:
            # The cell is counterclockwise, so its outer normal at a -> b is
            # (b1 - a1, a0 - b0), and the ray runs against it.
            out.append((grad, (a[1] - b[1], b[0] - a[0]), False))
    return out


def _dual_crossings(f: ConcavePL, g: ConcavePL) -> set[Point]:
    """Gradients where a dual edge of f crosses a dual edge of g."""
    out = set()
    edges_g = _dual_edges(g)
    for (bf0, bf1), (df0, df1), seg_f in _dual_edges(f):
        for (bg0, bg1), (dg0, dg1), seg_g in edges_g:
            det = df0 * dg1 - df1 * dg0
            if det == 0:
                continue
            # The lines meet at parameters s / det along f's edge and
            # t / det along g's; det > 0 after the sign flip.
            w0, w1 = bg0 - bf0, bg1 - bf1
            s = w0 * dg1 - w1 * dg0
            t = w0 * df1 - w1 * df0
            if det < 0:
                det, s, t = -det, -s, -t
            if 0 <= s and 0 <= t and (s <= det or not seg_f) and (t <= det or not seg_g):
                s /= det
                out.add((bf0 + s * df0, bf1 + s * df1))
    return out


def sup_convolution(f: ConcavePL, g: ConcavePL) -> ConcavePL:
    """Sup-convolution: u -> sup {f(u') + g(u'') : u' + u'' = u}.

    The hypograph of the result is the Minkowski sum of the hypographs. In
    the plane its cell with gradient γ is the sum of the faces of f and g on
    which z - <γ, p> is largest, so the cells are the mixed cells of the two
    subdivisions (Huber–Sturmfels), read off the cells of f and g: γ is a
    cell gradient of f or of g, or a point where a dual edge of f crosses
    one of g. The envelope of the pairwise vertex sums builds the result
    when a summand's domain is a segment in the plane, when both are points,
    and in one variable, where that envelope's flag also counts a collinear
    vertex sum that a later sum lifts off the result.

    `had_collinear` is the flag of that envelope: in the plane, some vertex
    sum lies on the result without being a vertex of it. Parallel edges of
    f and g in one cell give such a sum (f □ f has them wherever f has an
    edge), so the sum of strictly concave functions may carry the flag.
    """
    if f.m != g.m:
        raise ValueError("mixed dimensions in sup-convolution")
    sizes = {len(f.domain_vertices()), len(g.domain_vertices())}
    if f.m == 1 or 2 in sizes or sizes == {1}:
        return ConcavePL.from_graph_points(
            (tuple(a + b for a, b in zip(p, q)), zf + zg) for p, zf in f.vertices for q, zg in g.vertices
        )
    cells = []
    tight: dict[Point, Fraction] = {}
    for grad in {grad for grad, _ in f.cells() + g.cells()} | _dual_crossings(f, g):
        top_f, face_f = _top_face(f, grad)
        top_g, face_g = _top_face(g, grad)
        sums = {(p[0] + q[0], p[1] + q[1]): zf + zg for p, zf in face_f for q, zg in face_g}
        cell = convex_hull_2d(sums)
        if len(cell) >= 3:
            cells.append((grad, top_f + top_g, tuple(cell)))
            tight.update(sums)
    corners = {p for _, _, cell in cells for p in cell}
    return ConcavePL(2, [(p, tight[p]) for p in corners], set(tight) != corners, tuple(sorted(cells)))


def floor_sum_over_lattice(f: ConcavePL) -> int:
    """Sum of floor(f(u)) over the lattice points of the domain."""
    return sum(rational_floor(f.evaluate(u)) for u in f.domain_lattice_points())


def signed_ceiling_interior_sum(f: ConcavePL) -> int:
    """Sum over interior lattice points of sign(f(u)) * ceil(|f(u)|) (m = 1)."""
    if f.m != 1:
        raise ValueError("interior counting is defined on intervals")
    dv = f.domain_vertices()
    lo = rational_floor(dv[0][0]) + 1
    hi = rational_ceil(dv[-1][0]) - 1
    total = 0
    for u in range(lo, hi + 1):
        x = f.evaluate(u)
        if x > 0:
            total += rational_ceil(x)
        elif x < 0:
            total -= rational_ceil(-x)
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
