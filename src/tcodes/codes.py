"""Evaluation codes attached to divisorial polytopes, with parameter bounds.

A code is built from a divisorial polytope, its curve, and evaluation points
whose slices are affine with integer data. Rows are graded section basis
elements, columns are (point, torus element) pairs, and entries twist the
section value by the fixed local trivialization exponent at each point.

The columns at one point form a block over the torus (F_q^*)^m, and a row of
weight u is (twisted values at the l points) tensor the character t -> t^u.
The twisted values come from one batched kernel (`_section_values`). A code
keeps only those l-vectors: its rank splits by u mod q - 1 and is taken on
them, and the full rows are built from them when first read, as one int64
table of residues that the rows, the matrix and the generator share and
that no step reduces again. When no two weights agree mod q - 1, k needs no
code at all: each weight adds l(floor(D_u)) - l(floor(D_u) - E), E the sum
of the points, a formula in the degrees (`code_dimension`). Code columns and
toric generators come from one character table (`_characters`). `d_upper`
builds and evaluates no section: each certificate is the integer pair
(c, r0), and its weight is a count over the points off its zeros, read from
those integers and the twist gradients.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import isqrt, prod

import numpy as np

from .algebra import MatrixFp, Poly, is_prime_power, primitive_root
from .convex import ConcavePL, LatticePolytope
from .curve import (
    INFINITY,
    Curve,
    CurvePoint,
    Divisor,
    FunctionFieldElement,
    riemann_roch_basis,
    rr_dimension,
    twisted_evaluate,
)
from .tvariety import (
    DivisorialPolytope,
    genus_of_section,
    graded_sections,
    nu,
    project,
)


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} classes, budget is {budget}")
        self.required = required
        self.budget = budget


def _affine_twist(slice_) -> tuple[tuple[int, ...], int] | None:
    data = slice_.affine_data()
    if data is None:
        return None
    g, c = data
    if any(x.denominator != 1 for x in g) or c.denominator != 1:
        return None
    return tuple(int(x) for x in g), int(c)


def admissible_points(dp: DivisorialPolytope) -> list[CurvePoint]:
    """Rational points whose slice is affine with integer data: the points
    `EvaluationSetup.build(dp)` keeps."""
    return EvaluationSetup.build(dp).points


@dataclass
class EvaluationSetup:
    """A divisorial polytope with chosen evaluation points and their twists.
    However it is made, the points are distinct and on the curve: a point
    off it is refused with `twisted_evaluate`'s own message."""

    dp: DivisorialPolytope
    points: list[CurvePoint]
    twists: list[tuple[tuple[int, ...], int]]

    def __post_init__(self) -> None:
        if len(set(self.points)) != len(self.points):
            raise ValueError("evaluation points must be distinct")
        for P in self.points:
            if not self.curve.contains(P):
                raise ValueError(f"{P.render()} is not on the curve")

    @classmethod
    def build(cls, dp: DivisorialPolytope, points: list[CurvePoint] | None = None) -> "EvaluationSetup":
        """The given points, or by default every rational point whose slice
        is affine with integer data. One twist per stored slice; an unmarked
        point has the zero slice, whose twist is ((0,) * m, 0)."""
        candidates = dp.curve.rational_points() if points is None else points
        twist_of = {P: _affine_twist(s) for P, s in dp.slices.items()}
        twists = [(P, twist_of.get(P, ((0,) * dp.m, 0))) for P in candidates]
        if points is None:
            twists = [(P, tw) for P, tw in twists if tw is not None]
        for P, tw in twists:
            if tw is None:
                raise ValueError(f"slice at {P.render()} is not affine-integral")
        return cls(dp, [P for P, _ in twists], [tw for _, tw in twists])

    @property
    def curve(self) -> Curve:
        return self.dp.curve

    @property
    def q(self) -> int:
        return self.curve.p

    @property
    def l(self) -> int:
        return len(self.points)

    @property
    def m(self) -> int:
        return self.dp.m

    @property
    def n(self) -> int:
        return self.l * (self.q - 1) ** self.m

    def torus(self) -> list[tuple[int, ...]]:
        """All m-tuples over the unit group, in power order of the smallest
        primitive root (outer coordinates vary slowest)."""
        return list(zip(*_characters(self.q, self.m, np.eye(self.m, dtype=np.int64)).tolist()))

    def twist_exponent(self, i: int, u: tuple[int, ...]) -> int:
        v, c = self.twists[i]
        return sum(a * b for a, b in zip(u, v)) + c

    @cached_property
    def _twist_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Twist gradients (l x m) and offsets: the twists at weights U (one
        per row) are U @ gradients.T + offsets."""
        return (
            np.array([v for v, _ in self.twists], dtype=np.int64).reshape(self.l, self.m),
            np.array([c for _, c in self.twists], dtype=np.int64),
        )

    @cached_property
    def _affine_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x, y, and which points the int64 pass of `_section_values` reads:
        the affine ones (it never reads the coordinates of infinity)."""
        return (
            np.array([P.x for P in self.points], dtype=np.int64),
            np.array([P.y for P in self.points], dtype=np.int64),
            np.array([not P.is_infinity for P in self.points], dtype=bool),
        )


def _horner(polys: list[Poly], xs: np.ndarray, p: int) -> np.ndarray:
    """Every polynomial at every x, mod p: one row per polynomial, one int64
    Horner pass over all of them. Exact because `check_prime_field` refuses
    p >= 2^31 before any curve exists: a residue times a residue plus a
    residue stays below 2^63."""
    coeffs = np.zeros((len(polys), max((len(f.coeffs) for f in polys), default=0)), dtype=np.int64)
    for row, f in zip(coeffs, polys):
        row[: len(f.coeffs)] = f.coeffs
    acc = np.zeros((len(polys), len(xs)), dtype=np.int64)
    for column in coeffs.T[::-1]:
        acc = (acc * xs + column[:, None]) % p
    return acc


def _inverse(a: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of int64 residues by Fermat, a^(p-2) by squaring (0
    stays 0). With p < 2^31 no product leaves int64."""
    out, base, e = np.ones_like(a), a, p - 2
    while e:
        if e & 1:
            out = out * base % p
        base, e = base * base % p, e >> 1
    return out


def _section_values(setup: EvaluationSetup, sections: list[FunctionFieldElement], ks: np.ndarray) -> np.ndarray:
    """f * t^k at the evaluation points, as an int64 array with one row per
    section f and one column per point. `ks` holds the twists, one row per
    section or one row for all. Every section value in this module comes
    from here.

    At an affine point where c(P) != 0, f = (a + b y) / c is regular, so
    f * t^k is f(P) for k = 0 and 0 for k > 0 (also when f(P) = 0). a, b and
    c are evaluated at all such points by one int64 Horner pass each, mod p.
    That relies on `check_prime_field`, which refuses p >= 2^31 before any
    curve exists, so no product of two residues leaves int64 (see `_horner`).
    Where c(P) = 0, at infinity and for k < 0, `twisted_evaluate` gives the
    value or raises its own error, in row then point order as a per-point
    loop would. Every point is on the curve (`EvaluationSetup`).
    """
    p = setup.q
    xs, ys, batched = setup._affine_arrays
    ks = np.broadcast_to(ks, (len(sections), setup.l))
    values = np.zeros(ks.shape, dtype=np.int64)
    regular = np.zeros(ks.shape, dtype=bool)
    if batched.any():
        num = (_horner([f.a for f in sections], xs, p) + _horner([f.b for f in sections], xs, p) * ys) % p
        den = _horner([f.c for f in sections], xs, p)
        regular = batched & (den != 0) & (ks >= 0)
        values = np.where(regular & (ks == 0), num * _inverse(den, p) % p, 0)
    for s, j in zip(*np.nonzero(~regular)):
        values[s, j] = twisted_evaluate(setup.curve, sections[s], setup.points[j], int(ks[s, j]))
    return values


def _characters(p: int, m: int, exponents) -> np.ndarray:
    """Character table over (F_p^*)^m: row j holds t^(u_j) at every torus
    element t = g^i (g the smallest primitive root, i in lex order), which is
    g^(u_j . i mod p - 1). Code columns are (twisted values) x table mod p,
    summed one product term at a time so every int64 value stays below
    p^2 + p: exact for p < 3e9, far past any field whose table fits in memory.
    """
    g = primitive_root(p)
    powers = np.array([pow(g, i, p) for i in range(p - 1)], dtype=np.int64)
    i = np.indices((p - 1,) * m).reshape(m, -1)
    U = np.array(exponents, dtype=np.int64).reshape(-1, m) % (p - 1)
    return powers[U @ i % (p - 1)]


@dataclass
class EvaluationCode:
    """Evaluation code from its row l-vectors and row labels, with rank data.

    Row i, labelled (u, j), is its l-vector `values[i]` (the entries at
    t = 1) tensor the character t -> t^u. Distinct characters are independent
    on the torus, so a row is selected exactly when its l-vector is
    independent of the earlier ones whose weights agree with its weight mod
    q - 1; k and the selection never need the k x n rows, which are built
    when first read (`rows`, `matrix`, `generator`).
    """

    setup: EvaluationSetup
    values: list[list[int]]
    row_labels: list[tuple[tuple[int, ...], int]]

    def __post_init__(self) -> None:
        q = self.setup.q
        classes: dict[tuple[int, ...], list[int]] = {}
        for idx, (u, _) in enumerate(self.row_labels):
            classes.setdefault(tuple(c % (q - 1) for c in u), []).append(idx)
        self.selected = sorted(
            idxs[j]
            for idxs in classes.values()
            for j in MatrixFp([self.values[i] for i in idxs], q).independent_row_indices()
        )

    @cached_property
    def _table(self) -> np.ndarray:
        """The evaluation matrix as one int64 array of residues: each l-vector
        tensor its character, one column per (point, torus element), points
        outermost. `rows`, `matrix` and `generator` all read it."""
        setup, count = self.setup, len(self.row_labels)
        chi = _characters(setup.q, setup.m, [u for u, _ in self.row_labels])
        table = np.array(self.values, dtype=np.int64).reshape(count, setup.l, 1) * chi[:, None, :]
        table %= setup.q
        return table.reshape(count, setup.n)

    @cached_property
    def rows(self) -> list[list[int]]:
        """The evaluation matrix, one list per row label."""
        return self._table.tolist()

    @property
    def n(self) -> int:
        return self.setup.n

    @property
    def k(self) -> int:
        return len(self.selected)

    @property
    def injective(self) -> bool:
        return self.k == len(self.row_labels)

    def matrix(self) -> MatrixFp:
        return MatrixFp._of_residues(self._table.tolist(), self.setup.q)

    def generator(self) -> MatrixFp:
        """The first k linearly independent rows, in construction order."""
        rows = [self._table[i].tolist() for i in self.selected]
        return MatrixFp._of_residues(rows, self.setup.q, independent=True)


def build_code(setup: EvaluationSetup) -> EvaluationCode:
    """Evaluate every graded basis element at every (point, torus) column.

    A piece of weight u twists by one k_i per point; its l-vectors are the
    section values of `_section_values`, all sections in one pass. The code
    tensors them with t^u only when its rows are read.
    """
    pieces = graded_sections(setup.dp).pieces
    gradients, offsets = setup._twist_arrays
    weights = np.array([piece.u for piece in pieces], dtype=np.int64).reshape(-1, setup.m)
    owner = [i for i, piece in enumerate(pieces) for _ in piece.basis]
    sections = [f for piece in pieces for f in piece.basis]
    values = _section_values(setup, sections, (weights @ gradients.T + offsets)[owner])
    labels = [(piece.u, j) for piece in pieces for j in range(len(piece.basis))]
    return EvaluationCode(setup, values.tolist(), labels)


def _section_count(dp: DivisorialPolytope) -> int:
    """The number of graded basis elements: l(floor(D_u)) summed over the
    lattice weights u, from the degrees in the records `dp.at(u)`."""
    return sum(rr_dimension(dp.curve, at.floor_degree, lambda: at.floor) for at in map(dp.at, dp.lattice_points()))


def code_dimension(setup: EvaluationSetup) -> int:
    """k, from Riemann-Roch dimensions when no two lattice weights agree mod
    q - 1, else `build_code(setup).k`.

    The twist at each evaluation point is the coefficient of floor(D_u)
    there, so a section of L(floor(D_u)) gives the zero l-vector exactly when
    it vanishes at every point: the kernel is L(floor(D_u) - E), E the sum
    of the points, of degree deg floor(D_u) - l. A weight alone in its class
    mod q - 1 (`EvaluationCode`) then adds l(floor(D_u)) - l(floor(D_u) - E),
    the AG-code dimension (Stichtenoth, Thm 2.2.2), and the degrees come from
    the records `dp.at(u)`.
    """
    dp, curve, l = setup.dp, setup.curve, setup.l
    weights = dp.lattice_points()
    if len({tuple(c % (setup.q - 1) for c in u) for u in weights}) < len(weights):
        return build_code(setup).k
    kernel = sum(
        rr_dimension(curve, at.floor_degree - l, lambda: at.floor - Divisor(dict.fromkeys(setup.points, 1)))
        for at in map(dp.at, weights)
    )
    return _section_count(dp) - kernel


@dataclass
class KBounds:
    lower: int
    gamma: int
    upper: int
    equality_case: bool


def k_bounds(dp: DivisorialPolytope) -> KBounds:
    """Dimension bound data from floor degrees, genus, and effectivity.

    gamma(u) is floor-degree + 1 - g when positive, else 1 for weights whose
    slice values are all nonnegative, else 0. The lower value sharp + N(1-g)
    and the gamma sum never exceed the section count k. The upper value
    sharp + N caps k whenever every floor degree is at least -1, and k equals
    the lower value whenever every floor degree exceeds 2g - 2. The
    equality_case flag records the weaker rational-degree form of that last
    condition, which leaves room for floor drops at interior weights.
    """
    g = dp.curve.genus
    ats = [dp.at(u) for u in dp.lattice_points()]
    sharp_total = sum(at.floor_degree for at in ats)
    gamma = sum(max(at.floor_degree + 1 - g, 0) or at.effective for at in ats)
    equality = all(at.degree > 2 * g - 2 for at in ats)
    return KBounds(sharp_total + len(ats) * (1 - g), gamma, sharp_total + len(ats), equality)


@dataclass
class DistanceBound:
    value: int
    detail: str


def d_lower_surface(dp: DivisorialPolytope, l: int, q: int) -> DistanceBound:
    """Minimize (l - lambda) * (q - 1 - nu(lambda)) over feasible lambda (m = 1)."""
    if dp.m != 1:
        raise ValueError("the direct bound applies to interval boxes")
    lam0 = max(dp.at(u).floor_degree for u in dp.lattice_points())
    if lam0 < 0:
        raise ValueError("no sections: every floored degree is negative")
    # Ties go to the least lambda.
    best, arg = min((max(0, l - lam) * max(0, q - 1 - nu(dp, lam)), lam) for lam in range(lam0 + 1))
    return DistanceBound(best, f"lambda={arg} of lambda0={lam0}")


def d_lower(setup: EvaluationSetup) -> DistanceBound:
    """Minimum-distance lower bound; inductive over the last axis for m = 2."""
    dp = setup.dp
    l, q = setup.l, setup.q
    if dp.m == 1:
        return d_lower_surface(dp, l, q)
    pr = project(dp)
    base = d_lower_surface(pr, l, q)
    curves = l * (q - 1)
    lam_max = min(max(curves - base.value, 0), curves)
    w = min(dp.box.width_along(dp.m - 1), q - 1)
    z_max = lam_max * (q - 1) + (curves - lam_max) * w
    value = max(setup.n - z_max, 0)
    return DistanceBound(value, f"projected bound {base.value}, lambda_max={lam_max}, width={w}")


def _sub_boxes(dp: DivisorialPolytope, q: int) -> list[tuple[tuple[int, int], ...]]:
    """Axis-aligned lattice sub-boxes of the weight box with sides <= q - 2,
    in lexicographic order. The weight box is convex, so a sub-box lies in it
    exactly when its corners do."""
    weights = set(dp.lattice_points())
    axes = []
    for axis in range(dp.m):
        lo, hi = dp.box.bounds(axis)
        axes.append([(s, t) for s in range(lo, hi + 1) for t in range(s, min(hi, s + q - 2) + 1)])
    return [B for B in product(*axes) if all(u in weights for u in product(*B))]


@dataclass
class UpperWitness:
    """A `d_upper` certificate: sub-box, r0 forced zeros, codeword weight
    (None for the zero word), and the divisor D whose one-dimensional L(D)
    holds the section, which is built when first read."""

    sub_box: tuple[tuple[int, int], ...]
    r0: int
    weight: int | None
    curve: Curve
    divisor: Divisor

    @cached_property
    def section(self) -> FunctionFieldElement:
        return riemann_roch_basis(self.curve, self.divisor)[0]


@dataclass
class UpperBound:
    value: int
    formula_min: int
    witness: UpperWitness | None


def d_upper(setup: EvaluationSetup) -> UpperBound:
    """Upper distance bound certified by an explicit low-weight codeword.

    For a sub-box B with sides r_a, let c_j be the floored minimum of slice j
    over B; a nonzero f in L(D), D = sum(c_j Q_j) - (first r0 points) with
    r0 = clamp(sum c_j - g, 0, l), times t^base prod_a prod_j (t_a - eta_j),
    is a codeword whose weight (`_witness_weight`) certifies the bound. The
    value is the lightest over all viable sub-boxes, ties to the first in
    order of formula bound, then sub-box; formula_min records
    min (l - r0) prod(q - 1 - r_a), which the value can exceed when an
    evaluation point has a sloped slice and which is not trustworthy on its
    own when a certificate is the zero word. If every certificate is (only
    possible when the section map has a kernel), the value is n.

    On a viable box r0 < l, so deg D = sum c_j - r0 = min(sum c_j, g) and
    L(D) has dimension at most 1 (g <= 1): whether it is empty is a
    Riemann-Roch dimension, and no section is built or evaluated. Each box
    reads c from the integer floors at its corners (with no stored slice c is
    empty and f is constant). Certificates are keyed, weighed and deduped by
    the integers (c, r0), not by D: two keys can give one D with different
    zeros (`_nonzero_points`). D itself is built only where a divisor is
    read: the elliptic degree-0 dimension, and the winning witness.
    """
    dp, curve = setup.dp, setup.curve
    l, q, g = setup.l, setup.q, curve.genus
    stored = dp.stored_points()
    floors = {u: [dp.at(u).floor[Q] for Q in stored] for u in dp.lattice_points()}
    flat = [tuple(a == 0 for a in v) for v, _ in setup.twists]
    certificates: dict[tuple[tuple[int, ...], int], list | None] = {}
    candidates: list[tuple[int | None, int, int, tuple, tuple[int, ...], int]] = []
    for i, B in enumerate(_sub_boxes(dp, q)):
        # Every slice is concave, so its minimum over B is at a corner.
        c = tuple(min(column) for column in zip(*(floors[u] for u in product(*B))))
        r0 = max(0, min(sum(c) - g, l))
        bound = (l - r0) * prod(q - 1 - (t - s) for s, t in B)
        if bound <= 0:
            continue
        if (c, r0) not in certificates:
            dim = rr_dimension(curve, sum(c) - r0, lambda: _certificate(setup, c, r0))
            assert dim <= 1, f"L({_certificate(setup, c, r0)!r}) has dimension {dim} on a viable sub-box"
            certificates[c, r0] = _nonzero_points(setup, flat, c, r0) if dim else None
        if (nonzero := certificates[c, r0]) is not None:
            candidates.append((_witness_weight(q, B, nonzero), bound, i, B, c, r0))
    if not candidates:
        raise ValueError("no valid sub-box certificate exists")
    # The lightest nonzero word, ties to the first in bound then sub-box
    # order; with none, the first box in that order, and length n.
    first = min(candidates, key=lambda c: c[1])
    weight, _, _, B, c, r0 = min((c for c in candidates if c[0]), default=first)
    return UpperBound(weight or setup.n, first[1], UpperWitness(B, r0, weight, curve, _certificate(setup, c, r0)))


def _certificate(setup: EvaluationSetup, c: tuple[int, ...], r0: int) -> Divisor:
    """D = sum(c_j Q_j) - (first r0 points), Q_j the stored points."""
    return Divisor(dict(zip(setup.dp.stored_points(), c))) - Divisor(dict.fromkeys(setup.points[:r0], 1))


def _nonzero_points(
    setup: EvaluationSetup, flat: list[tuple[bool, ...]], c: tuple[int, ...], r0: int
) -> list[tuple[tuple[bool, ...], int]]:
    """Evaluation points off the zeros of the `d_upper` certificate (c, r0),
    counted by their `flat` axes (those where the twist gradient is 0), one
    per point.

    f spans the one-dimensional L(D), D = sum(c_j Q_j) - (first r0 points),
    so div f + D is 0 or, when deg D = sum c_j - r0 = 1 on an elliptic curve,
    the point R = group sum of D. Elsewhere ord_P f is -D(P), and D(P) is
    the least twist over the box at every evaluation point P except the
    first r0, where it is one less. So the zeros of the certificate are R
    and the first r0 points, and at every other point its least-twist terms
    are nonzero.
    """
    curve, forced = setup.curve, setup.points[:r0]
    zeros = set(forced)
    if sum(c) - r0 == 1:
        R = INFINITY
        for Q, a in [*zip(setup.dp.stored_points(), c), *zip(forced, [-1] * r0)]:
            R = curve.group_add(R, curve.group_multiple(a, Q))
        zeros.add(R)
    return list(Counter(axes for P, axes in zip(setup.points, flat) if P not in zeros).items())


def _witness_weight(q: int, B: tuple[tuple[int, int], ...], nonzero: list[tuple[tuple[bool, ...], int]]) -> int | None:
    """Exact weight of the certificate codeword on sub-box B, None if it is
    the zero word; `nonzero` counts the points off its zeros by flat axes
    (`_nonzero_points`).

    The word is f t^base prod_a prod_j (t_a - eta_j), eta_j the first r_a
    powers of g. Off the zeros, the twist <u, v> + c at a point is least,
    and equal to -ord_P f, only on the face of B where <u, v> is least, and
    every other term vanishes there. On an axis with v_a != 0 that face keeps
    one extreme monomial, nonzero on the whole torus; on an axis with
    v_a = 0 it keeps the factor prod_j (t_a - eta_j), nonzero at q - 1 - r_a
    values. So such a point weighs prod_a (q - 1 - r_a [v_a = 0]).
    """
    weight = 0
    for flat, count in nonzero:
        for (s, t), f in zip(B, flat):
            count *= q - 1 - (t - s) * f
        weight += count
    return weight or None


def d_exact(generator: MatrixFp, budget: int = 2_000_000) -> int:
    """Exact minimum weight, from the split-table `weight_enumerator`."""
    nonzero = [w for w in weight_enumerator(generator, budget) if w > 0]
    if not nonzero:
        raise ValueError("the zero code has no minimum distance")
    return min(nonzero)


TABLE_CAP = 1 << 19  # elements in the split table, in a batch of targets and in a batch of compares


def _reduce(a: np.ndarray, p: int) -> np.ndarray:
    """Unsigned a < 2p reduced mod p in place: a - p wraps above a where a < p."""
    return np.minimum(a, a - p, out=a)


def _span(rows: np.ndarray, p: int) -> np.ndarray:
    """Words of all p^s messages over the s rows, one column per word.

    Column m is message m read in base p, last row lowest. p-ary doubling:
    each row, from the last up, adds its p multiples to the block built so
    far with one broadcast add and one conditional subtract of p, in the
    smallest unsigned dtype holding 2p - 2; the block comes back in the one
    holding p - 1. The multiples of all rows double the same way, c + m
    adding m * row, so no pass divides.
    """
    s, n = rows.shape
    wide = np.min_scalar_type(2 * p - 2)
    multiples, add, m = np.zeros((s, n, p), dtype=wide), rows.astype(wide)[:, :, None], 1
    while s and m < p:
        c = min(m, p - m)
        _reduce(np.add(multiples[:, :, :c], add, out=multiples[:, :, m : m + c]), p)
        add, m = _reduce(add + add, p), 2 * m
    block = np.zeros((n, 1), dtype=wide)
    for row_multiples in multiples[::-1]:
        block = _reduce((row_multiples[:, :, None] + block[:, None, :]).reshape(n, -1), p)
    return block.astype(np.min_scalar_type(p - 1), copy=False)


def _diagonal_group(G: np.ndarray, p: int) -> np.ndarray:
    """Diagonal automorphisms of the code of G modulo scalars, one row d per
    element with d_0 = 1, the identity first.

    d belongs when diag(d) G has the same multiset of projective columns as
    G, so x -> x * d keeps every weight. It maps a full-support column c to
    a multiple of another, c_j, so the candidates are c_j / c over the
    distinct normalized c_j, and no full-support column means no group.
    Columns are compared as int64 codes, digit i the normalized entry on
    row i. A candidate must move up to 8 of those c_j onto columns of G,
    and then the sorted codes of all its moved columns must equal G's.
    TABLE_CAP // (8 n) candidates (at least one) go at a time.
    """
    k, n = G.shape
    lead = np.where(G != 0, np.arange(k)[:, None], k - 1).min(axis=0)
    N = G * _inverse(G[lead, np.arange(n)], p) % p
    codes = (p ** np.arange(k - 1, -1, -1, dtype=np.int64) @ N).tolist()
    want, members = sorted(codes), set(codes)
    full = {c: j for j, (c, s) in enumerate(zip(codes, (G != 0).all(axis=0).tolist())) if s}
    if not full:
        return np.ones((1, k), dtype=np.int64)
    full = [full[c] for c in sorted(full)]

    def moved(d: np.ndarray, cols: list[int] | slice) -> np.ndarray:
        """Codes of the normalized columns cols of diag(d) G, one row per d."""
        scale = _inverse(d, p)[:, lead[cols]]
        out, digit = np.zeros_like(scale), np.empty_like(scale)
        for row in range(k):
            np.multiply(N[row, cols], d[:, row, None], out=digit)
            digit %= p
            digit *= scale
            digit %= p
            out *= p
            out += digit
        return out

    step = max(1, TABLE_CAP // (8 * n))
    group = []
    for i in range(0, len(full), step):
        d = N[:, full[i : i + step]].T * _inverse(N[:, full[0]], p) % p
        d = d[[members.issuperset(c) for c in map(np.ndarray.tolist, moved(d, full[:: -(-len(full) // 8)]))]]
        group.append(d[[sorted(c) == want for c in map(np.ndarray.tolist, moved(d, slice(None)))]])
    return np.concatenate(group)


def weight_enumerator(generator: MatrixFp, budget: int = 2_000_000) -> dict[int, int]:
    """Weight distribution of the full code (including the zero word).

    Exhausts the (p^k - 1)/(p - 1) projective classes of the k independent
    rows (all of a code's `generator()`, else the first maximal independent
    set) at O(n) byte compares each; past `budget` classes, BudgetExceeded.
    A split table holds the words spanned by the last r rows (r largest with
    p^r * n <= TABLE_CAP), one column per word, built by `_span`. A prefix
    word w plus table word t vanishes at column j iff t_j = -w_j, so one
    compare-and-count against the table weighs all p^r extensions of w.

    Chunk f holds the prefixes led by a 1 on row k - r - 1 - f, digit j of a
    number a in [0, p^f) on row k - r - 1 - j. They are weighed once per
    orbit of the code's diagonal automorphism group (`_diagonal_group`),
    which keeps every weight and permutes the table. The torus scales a row
    of weight u by t^u, which only permutes the columns of each point, so
    every T-code has one. It is searched when there is more than one prefix
    class, n * k <= classes and p^k < 2^62; rows whose column of the group
    is new come first, so the prefix rows see most of the group. On chunk f
    it acts by the g distinct multipliers h of the rows below the lead over
    the lead's (the identity alone if g * p > TABLE_CAP): the image of a is
    sum_j (h_j * digit_j(a) mod p) * p^j, from per-place tables in the
    smallest dtype holding p^f - 1. A prefix is kept when it is the least of
    its images and counted g / #{h : image == a} times, in exact integers.
    Only kept prefixes get targets, their negated words in int64 reduced
    mod p after each row, then cast to the table's dtype; they meet the
    table TABLE_CAP // (p^r * n) at a time in one reused bool buffer.

    Besides G, no array holds more than max(TABLE_CAP, n) elements: numbers
    run TABLE_CAP // max(g, n) at a time.
    """
    rows = generator.rows if generator._independent else [generator.rows[i] for i in generator.independent_row_indices()]
    p, n, k = generator.p, generator.ncols, len(rows)
    classes = (p**k - 1) // (p - 1)
    if classes > budget:
        raise BudgetExceeded(classes, budget)
    G = np.array(rows, dtype=np.int64).reshape(k, n)
    r = 0
    while r < k and p ** (r + 1) * n <= TABLE_CAP:
        r += 1
    group = np.ones((1, k), dtype=np.int64)
    if k - r > 1 and n * k <= classes and p**k < 2**62:
        group = _diagonal_group(G, p)
    characters = [tuple(c) for c in group.T.tolist()]
    order = sorted(range(k), key=lambda i: characters.index(characters[i]) < i)
    G, group = G[order], group[:, order]
    table = _span(G[k - r :], p)
    counts = np.bincount(np.count_nonzero(table, axis=0), minlength=n + 1) // (p - 1)
    neg = -G[: k - r] % p
    batch = max(1, TABLE_CAP // max(1, p**r * n))
    equal = np.empty((batch, n, p**r), dtype=bool)
    inverse = _inverse(group, p)
    for f in range(k - r):
        lead = k - r - 1 - f
        # Column j of h multiplies row k - r - 1 - j.
        h = group[:, k - r - 1 : lead : -1] * inverse[:, lead, None] % p
        h = np.array(sorted(set(map(tuple, h.tolist()))), dtype=np.int64)
        g = len(h) if len(h) * p <= TABLE_CAP else 1
        code = np.min_scalar_type(p**f - 1)
        tables = [(h[:, j, None] * np.arange(p) % p * p**j).astype(code) for j in range(f)] if g > 1 else []
        step = max(1, TABLE_CAP // max(g, n))
        for start in range(0, p**f, step):
            a = np.arange(start, min(start + step, p**f), dtype=np.int64)
            images, digits = a[None], a
            if tables:
                images = np.zeros((g, len(a)), dtype=code)
                for table_j in tables:
                    images += table_j[:, digits % p]
                    digits = digits // p
            own = images.min(axis=0) == a
            keep = a[own]
            orbit = g // np.count_nonzero(images[:, own] == keep, axis=0)
            for size in set(orbit.tolist()):
                digits = keep[orbit == size]
                words = np.repeat(neg[lead : lead + 1], len(digits), axis=0)
                for row in neg[k - r - 1 : lead : -1]:
                    words += (digits % p)[:, None] * row
                    words %= p
                    digits = digits // p
                words = words.astype(table.dtype)
                for i in range(0, len(words), batch):
                    hits = equal[: min(batch, len(words) - i)]
                    np.equal(table, words[i : i + len(hits), :, None], out=hits)
                    zeros = np.add.reduce(hits.view(np.uint8), axis=1, dtype=np.min_scalar_type(n))
                    counts += size * np.bincount(zeros.ravel(), minlength=n + 1)[::-1]
    return {0: 1} | {w: int(c) * (p - 1) for w, c in enumerate(counts) if c and w > 0}


@dataclass
class HasseWeilReport:
    genus: int
    threshold_q: int
    point_bound: int


def hasse_weil_diagnostic(dp: DivisorialPolytope) -> HasseWeilReport:
    """Smallest prime power q0 with (q0-2)^2 >= g^2 q0, plus a point bound.

    Past the threshold the Weil interval guarantees enough rational points
    for the generic-section count; the bound q + 1 + floor(2 g sqrt(q)) caps
    the count at the current field size. Diagnostic only, not a certificate.
    """
    g = genus_of_section(dp)[2]
    n = 2
    while not (is_prime_power(n) and (n - 2) ** 2 >= g * g * n):
        n += 1
    q = dp.curve.p
    return HasseWeilReport(g, n, q + 1 + isqrt(4 * g * g * q))


def reed_solomon_generator(p: int, k: int) -> MatrixFp:
    """[q-1, k] Reed-Solomon code evaluated on the unit group in power order."""
    if not 1 <= k <= p - 1:
        raise ValueError("dimension must be between 1 and q-1")
    return toric_generator(p, [(i,) for i in range(k)])


def one_point_ag_generator(curve: Curve, tau: int, points: list[CurvePoint]) -> MatrixFp:
    """Evaluation of L(tau * infinity) at the given points."""
    basis = riemann_roch_basis(curve, Divisor({INFINITY: tau}))
    rows = [[twisted_evaluate(curve, f, P, 0) for P in points] for f in basis]
    return MatrixFp(rows, curve.p)


def kronecker_generator(A: MatrixFp, B: MatrixFp) -> MatrixFp:
    """Generator of the product code (Kronecker product of generators)."""
    if A.p != B.p:
        raise ValueError("mixed characteristics")
    rows = []
    for ra in A.rows:
        for rb in B.rows:
            rows.append([a * b % A.p for a in ra for b in rb])
    return MatrixFp(rows, A.p)


def ruled_divpoly(curve: Curve, a: int, alpha: int, b: int, point: CurvePoint | None = None) -> DivisorialPolytope:
    """Single-slice family: box [0, a], slice value b + alpha*u at one point."""
    if point is None:
        point = INFINITY
    box = LatticePolytope.interval(0, a)
    graph = [((0,), b)] if a == 0 else [((0,), b), ((a,), b + alpha * a)]
    return DivisorialPolytope(curve, box, {point: ConcavePL.from_graph_points(graph)})


def ruled_closed_forms(a: int, alpha: int, b: int, l: int, q: int, g: int) -> dict[str, int]:
    """Closed forms for the single-slice family used in comparisons."""
    lam0 = b + a * alpha
    at_b = max(0, l - b) * max(0, q - 1 - a)
    at_top = max(0, l - lam0) * (q - 1)
    k_eq = (a + 1) * (2 * (b + 1 - g) + alpha * a) // 2
    return {"lambda0": lam0, "d_lower": min(at_b, at_top), "k": k_eq}


@dataclass
class ProductComparison:
    k1: int
    tau: int
    a: int
    alpha: int
    b: int
    k_product: int
    d_product: int
    k_tcode: int
    d_tcode: int

    @property
    def k_matches(self) -> bool:
        return self.k_tcode == self.k_product

    @property
    def d_strictly_better(self) -> bool:
        return self.d_tcode > self.d_product


def compare_with_product(curve: Curve, k1: int, tau: int, points: list[CurvePoint]) -> ProductComparison:
    """Match a Reed-Solomon x one-point-AG product against the one-slice code.

    The slice parameters are a = k1 - 1, the smallest alpha making alpha*a
    even, and b = tau - alpha*a/2, so the section space dimension equals the
    product dimension k1 * (tau + 1 - g). At k1 = 1 the box is a point and
    the report reads alpha = 0, as `compare_ruled_setup` does.
    """
    a = k1 - 1
    alpha = 1 if a % 2 == 0 else 2
    return compare_ruled_setup(EvaluationSetup.build(ruled_divpoly(curve, a, alpha, tau - alpha * a // 2), points))


def compare_ruled_setup(setup: EvaluationSetup) -> ProductComparison:
    """`compare_with_product` for the setup's own code, which must be one
    affine integral slice b + alpha*u on [0, a] with alpha*a even: the
    product has k1 = a + 1 and tau = b + alpha*a/2. Every floor degree must
    exceed 2g - 2 for exact dimensions, so the least one, min(b, b + alpha*a),
    is the one checked."""
    dp = setup.dp
    if dp.m != 1 or len(dp.stored_points()) != 1:
        raise ValueError("compare needs a single-slice interval instance")
    data = dp.slice_at(dp.stored_points()[0]).affine_data()
    lo, a = dp.box.bounds()
    if data is None or lo != 0:
        raise ValueError("compare needs an affine slice on a box starting at 0")
    (alpha,), b = data
    if alpha.denominator != 1 or b.denominator != 1:
        raise ValueError("compare needs integer slice data")
    if alpha * a % 2 != 0:
        raise ValueError("compare needs alpha*a even to recover tau")
    alpha, b = int(alpha), int(b)
    k1, tau, g = a + 1, b + alpha * a // 2, setup.curve.genus
    least = min(b, b + alpha * a)
    if least < 0:
        raise ValueError("tau too small for the slice construction")
    if least <= 2 * g - 2:
        raise ValueError("slice offset must exceed 2g-2 for exact dimensions")
    k_prod = k1 * (tau + 1 - g)
    d_prod = (setup.q - k1) * (setup.l - tau)
    return ProductComparison(k1, tau, a, alpha, b, k_prod, d_prod, _section_count(dp), d_lower(setup).value)


def toric_generator(p: int, lattice_points: list[tuple[int, ...]]) -> MatrixFp:
    """Toric code generator: the characters of the lattice points over (F_p^*)^m."""
    m = len(lattice_points[0]) if lattice_points else 1
    return MatrixFp(_characters(p, m, lattice_points).tolist(), p)
