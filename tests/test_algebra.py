"""Finite-field polynomial and matrix arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcodes import algebra
from tcodes.algebra import (
    MatrixFp,
    Poly,
    element_order,
    inv_mod,
    is_prime,
    is_prime_power,
    primitive_root,
)
from tcodes.curve import _rr_kernel

from test_curve import RR_CURVES, high_pole_divisors, random_divisors

PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in known)


def test_is_prime_power():
    assert all(is_prime_power(n) for n in (2, 3, 4, 8, 9, 25, 27, 49, 64, 81, 89))
    assert not any(is_prime_power(n) for n in (0, 1, 6, 10, 12, 15, 85, 88, 100))


def test_inv_mod():
    for p in (5, 7, 13):
        for a in range(1, p):
            assert a * inv_mod(a, p) % p == 1


def test_element_order_divides_group_order():
    for p in (7, 11, 13):
        for a in range(1, p):
            d = element_order(a, p)
            assert pow(a, d, p) == 1
            assert (p - 1) % d == 0
            assert all(pow(a, e, p) != 1 for e in range(1, d))


def test_primitive_root_is_smallest():
    for p in PRIMES + [101, 997]:
        g = primitive_root(p)
        assert element_order(g, p) == p - 1
        assert all(element_order(h, p) < p - 1 for h in range(2, g))


def test_primitive_root_is_found_once_per_field(monkeypatch):
    # primitive_root keeps its answer per p: a second call makes no
    # element_order sweep.
    sweep = []
    order = algebra.element_order
    monkeypatch.setattr(algebra, "element_order", lambda a, p: sweep.append((a, p)) or order(a, p))
    primitive_root.cache_clear()
    for _ in range(2):
        g = primitive_root(7)
    assert sweep == [(a, 7) for a in range(2, g + 1)]


def test_primitive_root_refuses_a_non_prime_every_time():
    # primitive_root keeps its answer per p; a refusal is not kept.
    for p in (1, 8, 91, 2**31):
        for _ in range(2):
            with pytest.raises(ValueError):
                primitive_root(p)


def test_poly_evaluate_and_arith():
    p = 7
    f = Poly([1, 0, 3], p)  # 3x^2 + 1
    g = Poly([2, 5], p)  # 5x + 2
    assert f.evaluate(2) == (3 * 4 + 1) % p
    assert (f + g).evaluate(3) == (f.evaluate(3) + g.evaluate(3)) % p
    assert (f * g).evaluate(4) == f.evaluate(4) * g.evaluate(4) % p
    assert (f - f).is_zero()
    assert f.degree == 2 and g.degree == 1
    assert Poly([0], p).degree == -1


def test_poly_divmod_and_gcd():
    p = 5
    f = Poly.x_minus(1, p) * Poly.x_minus(2, p) * Poly.x_minus(2, p)
    g = Poly.x_minus(2, p) * Poly.x_minus(3, p)
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree
    d = f.gcd(g)
    assert d == Poly.x_minus(2, p)
    assert d.leading() == 1


def test_poly_multiplicity():
    p = 7
    f = Poly.x_minus(3, p) ** 4 * Poly([1, 1], p)
    assert f.multiplicity(3) == 4


def reference_multiplicity(f, x0):
    """The former loop: one full division by x - x0 per order."""
    if f.is_zero():
        raise ValueError("zero polynomial vanishes to infinite order")
    m = 0
    root = Poly.x_minus(x0, f.p)
    while f.evaluate(x0) == 0:
        f = f // root
        m += 1
    return m


def test_poly_multiplicity_matches_the_division_loop():
    rng = random.Random(92)
    for p in (2, 5, 7, 101, 2**31 - 1):
        for _ in range(150):
            x0 = rng.randrange(p)
            # Random cofactors times (x - x0)^e, roots given as any integer.
            f = Poly([rng.randrange(p) for _ in range(rng.randint(1, 6))], p)
            f = f * Poly.x_minus(x0, p) ** rng.randint(0, 6)
            if f.is_zero():
                continue
            for x in (x0, x0 + p, x0 - 3 * p, rng.randrange(p)):
                assert f.multiplicity(x) == reference_multiplicity(f, x), (f, x)
    for p in (2, 7):
        for x0 in (0, 3):
            with pytest.raises(ValueError, match="^zero polynomial vanishes to infinite order$"):
                Poly([], p).multiplicity(x0)
            with pytest.raises(ValueError, match="^zero polynomial vanishes to infinite order$"):
                reference_multiplicity(Poly([0, 0], p), x0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
    st.lists(st.integers(0, 4), min_size=1, max_size=6),
)
def test_poly_ring_axioms(a, b, c):
    p = 5
    fa, fb, fc = Poly(a, p), Poly(b, p), Poly(c, p)
    assert fa * (fb + fc) == fa * fb + fa * fc
    assert fa * fb == fb * fa
    assert (fa * fb) * fc == fa * (fb * fc)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=8),
    st.lists(st.integers(0, 6), min_size=2, max_size=5),
)
def test_poly_division_invariant(a, b):
    p = 7
    fa, fb = Poly(a, p), Poly(b, p)
    if fb.is_zero():
        return
    q, r = fa.divmod(fb)
    assert q * fb + r == fa
    assert r.degree < fb.degree


def test_matrix_rank_and_kernel():
    p = 7
    m = MatrixFp([[1, 2, 3], [2, 4, 6], [0, 1, 1]], p)
    assert m.rank() == 2
    for v in m.kernel_basis():
        assert [sum(c * x for c, x in zip(row, v)) % p for row in m.rows] == [0, 0, 0]
    assert len(m.kernel_basis()) == 3 - 2


def test_matrix_independent_rows():
    p = 5
    rows = [[1, 0, 1], [2, 0, 2], [0, 1, 0], [1, 1, 1]]
    m = MatrixFp(rows, p)
    picked = m.independent_row_indices()
    assert picked == [0, 2]
    assert MatrixFp([rows[i] for i in picked], p).rank() == m.rank()


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for p in (2, 5, 7):
        for _ in range(10):
            rows = [[rng.randrange(p) for _ in range(rng.randrange(1, 12))]]
            w = len(rows[0])
            for _ in range(rng.randrange(1, 12)):
                rows.append([rng.randrange(p) for _ in range(w)])
            m = MatrixFp(rows, p)
            assert m.rank() == MatrixFp([list(col) for col in zip(*rows)], p).rank()


def reference_rank_and_rref(m):
    """The former Gauss-Jordan loop of `MatrixFp.rank_and_rref`."""
    p = m.p
    a = [row[:] for row in m.rows]
    pivots = []
    r = 0
    for col in range(m.ncols):
        pivot_row = next((i for i in range(r, len(a)) if a[i][col] % p != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = inv_mod(a[r][col], p)
        a[r] = [c * inv % p for c in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] % p != 0:
                f = a[i][col]
                a[i] = [(c - f * d) % p for c, d in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == len(a):
            break
    return r, a, pivots


def reference_independent_row_indices(m):
    """The former scaled-echelon loop of `MatrixFp.independent_row_indices`."""
    p = m.p
    echelon = []
    lead_cols = []
    picked = []
    for idx, row in enumerate(m.rows):
        v = row[:]
        for lc, er in zip(lead_cols, echelon):
            if v[lc]:
                f = v[lc]
                v = [(c - f * d) % p for c, d in zip(v, er)]
        lead = next((j for j, c in enumerate(v) if c % p != 0), None)
        if lead is None:
            continue
        inv = inv_mod(v[lead], p)
        v = [c * inv % p for c in v]
        echelon.append(v)
        lead_cols.append(lead)
        picked.append(idx)
    return picked


def assert_matches_reference(m):
    assert m.rank_and_rref() == reference_rank_and_rref(m), m.rows
    assert m.independent_row_indices() == reference_independent_row_indices(m), m.rows


def random_matrix_rows(rng, p):
    """0-9 rows of 1-11 columns: random rows, zero rows, and combinations
    of earlier rows."""
    width = rng.randint(1, 11)
    rows = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * width)
        elif kind < 0.5 and rows:
            row = [0] * width
            for earlier in rng.sample(rows, rng.randint(1, len(rows))):
                f = rng.randrange(p)
                row = [c + f * d for c, d in zip(row, earlier)]
            rows.append(row)
        else:
            # Sparse rows too, so leads clash at later columns.
            rows.append([rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(width)])
    return rows


@pytest.mark.parametrize("p", [2, 3, 7, 101, 2**31 - 1])
def test_elimination_matches_the_former_loops(p):
    rng = random.Random(5000 + p % 1000)
    for _ in range(400):
        assert_matches_reference(MatrixFp(random_matrix_rows(rng, p), p))
    for rows in ([], [[0]], [[3]], [[0], [1], [2]], [[0, 0, 0]] * 3, [[1, 2, 3], [2, 4, 6], [0, 1, 1]]):
        assert_matches_reference(MatrixFp(rows, p))


def test_elimination_matches_the_former_loops_on_riemann_roch_constraints(monkeypatch):
    constraints = []

    class Recording(MatrixFp):
        def __init__(self, rows, p):
            super().__init__(rows, p)
            constraints.append(self)

    monkeypatch.setattr("tcodes.curve.MatrixFp", Recording)
    for curve in RR_CURVES:
        rng = random.Random(6000 * curve.p + 10 * curve.A + curve.B)
        for D in random_divisors(rng, curve, 12) + high_pole_divisors(rng, curve, 6):
            _rr_kernel(curve, D)
    assert len(constraints) > 100
    for m in constraints:
        assert_matches_reference(m)
