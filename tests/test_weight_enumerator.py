"""The split-table weight kernel against two oracles: the chunked-matmul
enumerator it replaced, and its own former int64 form, which weighs every
prefix. The diagonal automorphism group behind the orbit path is checked
against a brute-force search over all diagonal matrices."""

import random
import time
import tracemalloc
from collections import Counter
from itertools import product
from math import gcd

import numpy as np
import pytest

from tcodes import (
    MatrixFp,
    build_code,
    codes,
    d_exact,
    kronecker_generator,
    reed_solomon_generator,
    toric_generator,
    weight_enumerator,
)
from tcodes.instances import surface_code_setup, toric_comparison_setup

from test_properties import small_code_instance


def reference_weight_enumerator(generator: MatrixFp) -> dict[int, int]:
    """Slow oracle: every projective message times G as an int64 matmul."""
    p = generator.p
    rows = [generator.rows[i] for i in generator.independent_row_indices()]
    k = len(rows)
    n = generator.ncols
    G = np.array(rows, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = 1 << 17
    for lead in range(k):
        free = k - 1 - lead
        total = p**free
        start = 0
        while start < total:
            cnt = min(chunk, total - start)
            idx = np.arange(start, start + cnt, dtype=np.int64)
            msgs = np.zeros((cnt, k), dtype=np.int64)
            msgs[:, lead] = 1
            for pos in range(free):
                msgs[:, k - 1 - pos] = idx % p
                idx = idx // p
            words = (msgs @ G) % p
            wts = np.count_nonzero(words, axis=1)
            counts += np.bincount(wts, minlength=n + 1)
            start += cnt
    out = {0: 1}
    for w, c in enumerate(counts):
        if c and w > 0:
            out[w] = int(c) * (p - 1)
    return dict(sorted(out.items()))


def _span_words(rows: np.ndarray, start: int, count: int, p: int) -> np.ndarray:
    """Words of messages start .. start+count-1 over rows, read in base p (last row lowest)."""
    idx = np.arange(start, start + count, dtype=np.int64)
    words = np.zeros((count, rows.shape[1]), dtype=np.int64)
    for row in rows[::-1]:
        words = (words + (idx % p)[:, None] * row) % p
        idx //= p
    return words


def reference_split_table_enumerator(generator: MatrixFp) -> dict[int, int]:
    """The former split-table kernel: table and every prefix batch rebuilt
    by an int64 (words + digit * row) % p pass per row."""
    rows = [generator.rows[i] for i in generator.independent_row_indices()]
    p, n, k = generator.p, generator.ncols, len(rows)
    G = np.array(rows, dtype=np.int64).reshape(k, n)
    r = 0
    while r < k and p ** (r + 1) * n <= codes.TABLE_CAP:
        r += 1
    dtype = np.min_scalar_type(p - 1)
    table = _span_words(G[k - r :], 0, p**r, p).T.astype(dtype, order="C")
    counts = np.bincount(np.count_nonzero(table, axis=0), minlength=n + 1) // (p - 1)
    batch = max(1, codes.TABLE_CAP // max(1, p**r * n))
    neg = -G[: k - r] % p
    # Prefixes led by a 1 on row k - r - 1 - f are the message numbers p^f .. 2p^f - 1.
    for f in range(k - r):
        for start in range(p**f, 2 * p**f, batch):
            target = _span_words(neg, start, min(batch, 2 * p**f - start), p).astype(dtype)
            zeros = (table == target[:, :, None]).sum(axis=1, dtype=np.min_scalar_type(n))
            counts += np.bincount(zeros.ravel(), minlength=n + 1)[::-1]
    return {0: 1} | {w: int(c) * (p - 1) for w, c in enumerate(counts) if c and w > 0}


def random_generator(rng: random.Random, p: int, k: int, n: int) -> MatrixFp:
    """k random rows, then a zero row, a repeated row and a combination of two
    rows spliced in at random places (the rank stays at most k)."""
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
    extras = [[0] * n]
    if k:
        extras.append(list(rng.choice(rows)))
        a, b = rng.choice(rows), rng.choice(rows)
        c = rng.randrange(1, p)
        extras.append([(x + c * y) % p for x, y in zip(a, b)])
    for row in extras:
        rows.insert(rng.randint(0, len(rows)), row)
    return MatrixFp(rows, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101, 257])
def test_random_generators_match_reference(p):
    rng = random.Random(p)
    for k in range(8):
        if (p**k - 1) // (p - 1) > 70_000:
            break
        for _ in range(3):
            gen = random_generator(rng, p, k, rng.randint(1, 60))
            assert weight_enumerator(gen) == reference_weight_enumerator(gen)


def chunk_layout(gen: MatrixFp, cap: int) -> list[tuple[int, int]]:
    """(g, prefix batch size) of each chunk f, as the kernel's docstring lays
    them out: g distinct multipliers of the rows below the lead over the
    lead's (the identity alone when g * p > cap), cap // max(g, n) numbers
    at a time."""
    p, n, G = gen.p, gen.ncols, independent_rows(gen)
    k = len(G)
    r = 0
    while r < k and p ** (r + 1) * n <= cap:
        r += 1
    group = np.ones((1, k), dtype=np.int64)
    if k - r > 1 and n * k <= (p**k - 1) // (p - 1) and p**k < 2**62:
        group = codes._diagonal_group(G, p)
    characters = [tuple(c) for c in group.T.tolist()]
    group = group[:, sorted(range(k), key=lambda i: characters.index(characters[i]) < i)]
    layout = []
    for lead in range(k - r - 1, -1, -1):
        g = len({tuple(d[lead + 1 : k - r] * pow(int(d[lead]), -1, p) % p) for d in group})
        g = g if g * p <= cap else 1
        layout.append((g, max(1, cap // max(g, n))))
    return layout


def takes_orbit_path(gen: MatrixFp, cap: int) -> bool:
    return any(g > 1 for g, _ in chunk_layout(gen, cap))


SEVERAL_BATCHES = "a chunk in several prefix batches"
PARTIAL_LAST_BATCH = "chunk not a multiple of the batch"


def chunk_shapes(gen: MatrixFp, cap: int) -> set[str]:
    shapes = set()
    for f, (_, step) in enumerate(chunk_layout(gen, cap)):
        if gen.p**f > step:
            shapes.add(SEVERAL_BATCHES)
            if gen.p**f % step:
                shapes.add(PARTIAL_LAST_BATCH)
    return shapes


# The chunk shapes that each cap gives on the generators below.
SHAPES_AT_CAP = {
    1: {SEVERAL_BATCHES},
    40: {SEVERAL_BATCHES, PARTIAL_LAST_BATCH},
    100: {SEVERAL_BATCHES, PARTIAL_LAST_BATCH},
    300: {SEVERAL_BATCHES, PARTIAL_LAST_BATCH},
    1_000: {SEVERAL_BATCHES, PARTIAL_LAST_BATCH},
    5_000: set(),
}


@pytest.mark.parametrize("cap", SHAPES_AT_CAP)
def test_every_table_split_matches_reference(monkeypatch, cap):
    # Shrinking the cap moves the split point r from k down to 0.
    monkeypatch.setattr(codes, "TABLE_CAP", cap)
    rng = random.Random(cap)
    seen = set()
    for p, k, n in [(2, 7, 9), (3, 5, 13), (7, 4, 6), (13, 3, 20), (257, 2, 5)]:
        gen = random_generator(rng, p, k, n)
        enum = weight_enumerator(gen)
        assert enum == reference_weight_enumerator(gen)
        assert enum == reference_split_table_enumerator(gen)
        seen |= chunk_shapes(gen, cap)
    assert seen == SHAPES_AT_CAP[cap]
    # The torus of a toric code acts on its prefixes at every split whose
    # multiplier tables fit the cap, which all but cap 1 do.
    gen = toric_generator(5, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)])
    assert takes_orbit_path(gen, cap) == (cap > 1)
    assert weight_enumerator(gen) == reference_weight_enumerator(gen) == reference_split_table_enumerator(gen)


def test_wide_code_with_empty_split_matches_reference():
    gen = random_generator(random.Random(5), 257, 2, 2_100)
    assert 257 * 2_100 > codes.TABLE_CAP
    assert weight_enumerator(gen) == reference_weight_enumerator(gen)


def library_generators() -> list[MatrixFp]:
    gens = [reed_solomon_generator(p, k) for p, k in [(7, 3), (11, 4), (13, 5), (101, 2)]]
    gens.append(kronecker_generator(reed_solomon_generator(7, 2), reed_solomon_generator(7, 3)))
    gens.append(kronecker_generator(reed_solomon_generator(5, 2), reed_solomon_generator(5, 2)))
    # Lattice points that agree mod q - 1 give repeated rows.
    gens.append(toric_generator(7, [(u, v) for u in range(3) for v in range(3 - u)]))
    gens.append(toric_generator(7, [(0, 0), (1, 0), (0, 1), (6, 0), (1, 1), (0, 7), (2, 1)]))
    gens.append(toric_generator(5, [(0, 0), (1, 0), (0, 1), (4, 0), (1, 1), (0, 4)]))
    gens.append(build_code(surface_code_setup()).generator())
    return gens


def member_generators() -> list[MatrixFp]:
    """The fixed members of the exact-distance benchmark round."""
    members = [surface_code_setup(), toric_comparison_setup(7), toric_comparison_setup(11)]
    return [build_code(setup).generator() for setup in members]


def small_instance_generators(count: int = 30) -> list[MatrixFp]:
    rng = random.Random(114)
    gens = []
    while len(gens) < count:
        setup = small_code_instance(rng)
        if setup is not None:
            gens.append(build_code(setup).generator())
    return gens


def test_library_generators_match_reference():
    for gen in library_generators():
        assert weight_enumerator(gen) == reference_weight_enumerator(gen)


def test_only_a_code_generator_skips_the_row_selection(monkeypatch):
    # The rows of `EvaluationCode.generator()` are its selected rows, which
    # are independent, so `weight_enumerator` takes them as they are. Any
    # other matrix is still reduced: a toric generator with two weights equal
    # mod p - 1 repeats a row, and enumerates equal to the former kernel.
    calls = []
    select = MatrixFp.independent_row_indices
    monkeypatch.setattr(MatrixFp, "independent_row_indices", lambda self: calls.append(self) or select(self))
    gen = toric_generator(7, [(0, 0), (1, 0), (0, 1), (6, 0), (1, 1)])
    enum = weight_enumerator(gen)
    assert calls == [gen] and len(select(gen)) == 4 < len(gen.rows)
    assert enum == reference_split_table_enumerator(gen)
    code = build_code(toric_comparison_setup(7))
    gen = code.generator()
    calls.clear()
    enum = weight_enumerator(gen)
    assert calls == [] and select(gen) == list(range(code.k))
    assert enum == reference_split_table_enumerator(gen) == weight_enumerator(code.matrix())


def test_exact_distance_members_match_former_kernel():
    for gen, (n, k) in zip(member_generators(), [(66, 8), (36, 7), (100, 7)]):
        assert (gen.ncols, len(gen.independent_row_indices())) == (n, k)
        assert weight_enumerator(gen) == reference_split_table_enumerator(gen)


def test_small_code_instances_match_reference():
    for gen in small_instance_generators():
        assert weight_enumerator(gen) == reference_weight_enumerator(gen)


def independent_rows(gen: MatrixFp) -> np.ndarray:
    return np.array([gen.rows[i] for i in gen.independent_row_indices()], dtype=np.int64)


def group_of(gen: MatrixFp) -> set[tuple[int, ...]]:
    return set(map(tuple, codes._diagonal_group(independent_rows(gen), gen.p).tolist()))


def projective_columns(rows: list[list[int]], p: int) -> Counter:
    """The multiset of columns, each divided by its first nonzero entry."""
    out = Counter()
    for col in zip(*rows):
        inv = pow(next((x for x in col if x), 1), -1, p)
        out[tuple(x * inv % p for x in col)] += 1
    return out


def brute_force_group(gen: MatrixFp) -> set[tuple[int, ...]]:
    """Every diagonal d with d_0 = 1 whose diag(d) G has the projective
    columns of G, tried one by one."""
    p, rows = gen.p, independent_rows(gen).tolist()
    want = projective_columns(rows, p)
    return {
        d
        for d in ((1, *rest) for rest in product(range(1, p), repeat=len(rows) - 1))
        if projective_columns([[x * di % p for x in row] for row, di in zip(rows, d)], p) == want
    }


def assert_group(group: set[tuple[int, ...]], p: int) -> None:
    assert tuple(1 for _ in next(iter(group))) in group
    for a, b in product(group, repeat=2):
        assert tuple(x * y % p for x, y in zip(a, b)) in group


def test_diagonal_group_matches_brute_force():
    gens = [reed_solomon_generator(p, k) for p in (5, 7) for k in (2, 3, 4)]
    gens += [
        toric_generator(5, [(0, 0), (1, 0), (0, 1), (1, 1)]),
        toric_generator(7, [(0, 0), (1, 0), (0, 1)]),
        toric_generator(7, [(0, 0), (2, 0), (0, 3), (1, 1)]),
        toric_generator(7, [(0,), (2,), (3,)]),
        kronecker_generator(reed_solomon_generator(5, 2), reed_solomon_generator(5, 2)),
    ]
    gens += [g for g in small_instance_generators(60) if g.p == 5 and len(g.independent_row_indices()) <= 4]
    orders = set()
    for gen in gens:
        group = group_of(gen)
        assert group == brute_force_group(gen), gen.rows
        assert_group(group, gen.p)
        orders.add(len(group))
    # Trivial and nontrivial groups both occur.
    assert 1 in orders and max(orders) >= 16


def test_diagonal_group_of_torus_codes():
    group = group_of(build_code(toric_comparison_setup(11)).generator())
    assert len(group) == 100
    assert_group(group, 11)
    # Interval T-codes (m = 1): a row of weight u scales by t^u, so a weight
    # difference prime to q - 1 embeds the torus F_q^* in the group.
    for setup in [surface_code_setup(), toric_comparison_setup(7)]:
        code = build_code(setup)
        q, weights = setup.q, [code.row_labels[i][0][0] for i in code.selected]
        assert setup.m == 1 and any(gcd(u - weights[0], q - 1) == 1 for u in weights)
        assert len(group_of(code.generator())) % (q - 1) == 0


# (generators, of which at least this many take the orbit path) at each cap.
# A smaller cap leaves more prefix rows for the group to act on; there only
# the codes of at most 20,000 message classes run, 38 of the 43.
DEFAULT_CAP = codes.TABLE_CAP
ORBIT_RUNS_AT_CAP = {DEFAULT_CAP: (43, 6), 512: (38, 25)}


@pytest.mark.parametrize("cap", ORBIT_RUNS_AT_CAP)
def test_orbit_path_matches_both_references(monkeypatch, cap):
    monkeypatch.setattr(codes, "TABLE_CAP", cap)
    gens = library_generators() + member_generators() + small_instance_generators()
    if cap < DEFAULT_CAP:
        gens = [g for g in gens if g.p ** len(g.independent_row_indices()) <= 20_000 * (g.p - 1)]
    count, least = ORBIT_RUNS_AT_CAP[cap]
    assert len(gens) == count
    orbit = 0
    for gen in gens:
        enum = weight_enumerator(gen)
        assert enum == reference_split_table_enumerator(gen)
        if gen.ncols < 100:
            assert enum == reference_weight_enumerator(gen)
        orbit += takes_orbit_path(gen, cap)
    assert orbit >= least


def test_orbit_path_is_invariant_under_monomial_maps():
    rng = random.Random(16)
    for gen in library_generators() + member_generators() + small_instance_generators(10):
        p, n = gen.p, gen.ncols
        perm = rng.sample(range(n), n)
        scales = [rng.randrange(1, p) for _ in range(n)]
        other = MatrixFp([[row[j] * c % p for j, c in zip(perm, scales)] for row in gen.rows], p)
        assert weight_enumerator(other) == weight_enumerator(gen)
        assert len(group_of(other)) == len(group_of(gen))


def test_trivial_group_weighs_every_target(monkeypatch):
    rng = random.Random(3)
    for p, k, n in [(5, 5, 30), (7, 4, 40), (11, 4, 20)]:
        gen = random_generator(rng, p, k, n)
        assert group_of(gen) == {(1,) * len(gen.independent_row_indices())}
        assert not takes_orbit_path(gen, codes.TABLE_CAP)
        assert weight_enumerator(gen) == reference_split_table_enumerator(gen)
    # Codes with symmetry weigh every prefix alone once the group is withheld.
    monkeypatch.setattr(codes, "_diagonal_group", lambda G, p: np.ones((1, len(G)), dtype=np.int64))
    for gen in library_generators():
        assert not takes_orbit_path(gen, codes.TABLE_CAP)
        assert weight_enumerator(gen) == reference_split_table_enumerator(gen)


def _bounded_run(gen: MatrixFp) -> dict[int, int]:
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        enum = weight_enumerator(gen)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    # Table, batch compares and int64 word batches are each within the cap.
    assert peak <= 32 * codes.TABLE_CAP
    return enum


@pytest.mark.parametrize("n", [6, 12, 16])
def test_large_prime_two_dimensional_code(n):
    # n = 6 keeps a one-row split (65,537 table words); n = 12 needs none.
    # n = 16 pairs the all-ones row with the 16th roots of unity (3 is a
    # primitive root): the group has 16 elements, too many multiplier tables
    # of p entries for the cap, so the identity acts alone.
    p = 65537
    rng = random.Random(n)
    second = [pow(3, p // 16 * j, p) for j in range(n)] if n == 16 else [rng.randrange(p) for _ in range(n)]
    gen = MatrixFp([[1] * n, second], p)
    enum = _bounded_run(gen)
    assert sum(enum.values()) == p**2
    assert enum == reference_weight_enumerator(gen)
    if n == 16:
        assert len(group_of(gen)) == 16 and 16 * p > codes.TABLE_CAP
        assert enum == {0: 1, 15: 1048576, 16: 4294049792}


def test_largest_exact_distance_member_within_bounds():
    gen = member_generators()[2]
    assert _bounded_run(gen) == reference_split_table_enumerator(gen)


def test_largest_prime_one_dimensional_code():
    p = 2**31 - 1
    gen = MatrixFp([[0, 1, p - 1, 5, 0, 2**30]], p)
    enum = _bounded_run(gen)
    assert enum == {0: 1, 4: p - 1}
    assert enum == reference_weight_enumerator(gen)


def assert_distance_bounds(gen: MatrixFp) -> None:
    """d_exact within the Singleton and Griesmer bounds of an [n, k]_p code."""
    p, n, k = gen.p, gen.ncols, len(gen.independent_row_indices())
    d = d_exact(gen)
    assert 1 <= d <= n - k + 1, (p, n, k, d)
    assert n >= sum(-(-d // p**i) for i in range(k)), (p, n, k, d)


def test_exact_distance_within_singleton_and_griesmer():
    rng = random.Random(15)
    for p in [2, 3, 5, 7, 11, 13, 101, 257]:
        for k in range(1, 8):
            if (p**k - 1) // (p - 1) > 70_000:
                break
            for _ in range(3):
                gen = random_generator(rng, p, k, rng.randint(1, 60))
                if gen.independent_row_indices():
                    assert_distance_bounds(gen)
    checked = 0
    while checked < 30:
        setup = small_code_instance(rng)
        if setup is not None:
            assert_distance_bounds(build_code(setup).generator())
            checked += 1
