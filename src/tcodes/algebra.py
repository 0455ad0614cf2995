"""Exact arithmetic over prime fields: residues, polynomials and matrices.

Every row reduction over F_p is one forward elimination, `echelon`: the rank,
reduced row echelon form and kernel of a `MatrixFp`, its independent rows, and
the valuation echelon of Riemann-Roch bases all read it.
"""

from __future__ import annotations

from functools import cache


def is_prime(n: int) -> bool:
    return n >= 2 and _factorize(n) == [n]


def is_prime_power(n: int) -> bool:
    """True when n = p^e for a prime p and e >= 1."""
    return n >= 2 and len(_factorize(n)) == 1


def check_prime_field(p: int) -> None:
    if not isinstance(p, int) or not 2 <= p < 2**31:
        raise ValueError(f"field characteristic out of range: {p}")
    if not is_prime(p):
        raise ValueError(f"field characteristic must be prime: {p}")


def inv_mod(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of zero residue")
    return pow(a, p - 2, p)


def _factorize(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def element_order(a: int, p: int) -> int:
    """Multiplicative order of a nonzero residue mod p."""
    a %= p
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    order = p - 1
    for q in _factorize(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


@cache
def primitive_root(p: int) -> int:
    """Smallest positive primitive root mod p (returns 1 for p = 2), found
    once per p; a p that is not a field characteristic is refused each time."""
    check_prime_field(p)
    if p == 2:
        return 1
    for g in range(2, p):
        if element_order(g, p) == p - 1:
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


class Poly:
    """Dense univariate polynomial over F_p, coefficients low to high."""

    __slots__ = ("p", "coeffs")

    def __init__(self, coeffs: list[int] | tuple[int, ...], p: int):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def x_minus(cls, x0: int, p: int) -> "Poly":
        return cls([-x0, 1], p)

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out, self.p)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs], self.p)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([], self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out, self.p)

    def scale(self, c: int) -> "Poly":
        return Poly([c * a for a in self.coeffs], self.p)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1], self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        d = other.degree
        inv_lead = inv_mod(other.leading(), p)
        quo = [0] * max(0, len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i] % p
            if c == 0:
                continue
            q = c * inv_lead % p
            quo[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] = (rem[i - d + j] - q * b) % p
        return Poly(quo, p), Poly(rem, p)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(inv_mod(self.leading(), self.p))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def multiplicity(self, x0: int) -> int:
        """Vanishing order at x = x0 (raises on the zero polynomial)."""
        if self.is_zero():
            raise ValueError("zero polynomial vanishes to infinite order")
        p = self.p
        cs = list(self.coeffs)
        m = 0
        while True:
            # Synthetic division by x - x0 in place: cs[0] becomes the
            # remainder f(x0), cs[1:] the quotient.
            for i in range(len(cs) - 2, -1, -1):
                cs[i] = (cs[i] + x0 * cs[i + 1]) % p
            if cs[0]:
                return m
            del cs[0]
            m += 1

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(parts)


def echelon(rows: list[list[int]], p: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Forward elimination over F_p of rows of residues, taken in order.

    While a row leads (has its first nonzero entry) at the lead column of an
    earlier kept row, it loses the multiple of that row that cancels its
    lead; a row that reaches zero is dropped. Returns the kept row indices,
    their lead columns, which are distinct, and the kept rows as reduced,
    not scaled.
    """
    kept: list[int] = []
    leads: list[int] = []
    reduced: list[list[int]] = []
    by_lead: dict[int, tuple[list[int], int]] = {}
    for i, v in enumerate(rows):
        lead = next((j for j, c in enumerate(v) if c), None)
        while lead in by_lead:
            e, inv = by_lead[lead]
            f = v[lead] * inv % p
            v = [(c - f * d) % p for c, d in zip(v, e)]
            lead = next((j for j in range(lead + 1, len(v)) if v[j]), None)
        if lead is not None:
            by_lead[lead] = v, inv_mod(v[lead], p)
            kept.append(i)
            leads.append(lead)
            reduced.append(v)
    return kept, leads, reduced


class MatrixFp:
    """Dense matrix over F_p; its rank, RREF, kernel and independent rows
    all come from one `echelon` of its rows."""

    _independent = False  # set only by `_of_residues`

    def __init__(self, rows: list[list[int]], p: int):
        check_prime_field(p)
        self.p = p
        self.rows = [[c % p for c in row] for row in rows]
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")

    @classmethod
    def _of_residues(cls, rows: list[list[int]], p: int, independent: bool = False) -> "MatrixFp":
        """A matrix that takes rows of residues mod p, of one width, as they
        are: no copy and no reduction. `independent` records that the rows
        are linearly independent."""
        matrix = object.__new__(cls)
        matrix.p, matrix.rows, matrix._independent = p, rows, independent
        return matrix

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def rank_and_rref(self) -> tuple[int, list[list[int]], list[int]]:
        """Row-reduce; returns (rank, rref rows padded with zero rows to the
        matrix's height, pivot column indices)."""
        p = self.p
        _, leads, reduced = echelon(self.rows, p)
        rref: list[list[int]] = []
        # The leads are distinct, so the sort never compares rows.
        for col, v in sorted(zip(leads, reduced)):
            inv = inv_mod(v[col], p)
            v = [c * inv % p for c in v]
            for i, u in enumerate(rref):
                if f := u[col]:
                    rref[i] = [(c - f * d) % p for c, d in zip(u, v)]
            rref.append(v)
        rank = len(rref)
        return rank, rref + [[0] * self.ncols for _ in range(len(self.rows) - rank)], sorted(leads)

    def rank(self) -> int:
        return self.rank_and_rref()[0]

    def kernel_basis(self) -> list[list[int]]:
        """Basis of the right null space, one vector per free column."""
        p = self.p
        rank, rref, pivots = self.rank_and_rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.ncols) if j not in pivot_set]
        basis = []
        for j in free:
            v = [0] * self.ncols
            v[j] = 1
            for i, pc in enumerate(pivots):
                v[pc] = (-rref[i][j]) % p
            basis.append(v)
        return basis

    def independent_row_indices(self) -> list[int]:
        """Indices of the first maximal linearly independent subset of rows."""
        return echelon(self.rows, self.p)[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MatrixFp) and self.p == other.p and self.rows == other.rows
