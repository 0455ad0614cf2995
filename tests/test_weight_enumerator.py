"""The split-table weight kernel against two oracles: the chunked-matmul
enumerator it replaced, and its own former int64 form."""

import random
import time
import tracemalloc

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


SEVERAL_HIGH_BATCHES = "s = 0, several high batches"
LOW_BLOCK_BELOW_CHUNK = "0 < s < f"
PARTIAL_LAST_BATCH = "chunk not a multiple of the batch"


def chunk_shapes(p: int, k: int, n: int, r: int, s: int, cap: int) -> set[str]:
    """The chunk shapes of a run with split r and s low rows, as the
    kernel's docstring lays them out."""
    batch = max(1, cap // max(1, p**r * n))
    shapes = set()
    for f in range(k - r):
        t = min(f, s)
        if t == 0 and p**f > max(1, cap // n):
            shapes.add(SEVERAL_HIGH_BATCHES)
        if 0 < t < f:
            shapes.add(LOW_BLOCK_BELOW_CHUNK)
        if p**f > batch and p**f % batch:
            shapes.add(PARTIAL_LAST_BATCH)
    return shapes


# The chunk shapes that each cap gives on the generators below.
SHAPES_AT_CAP = {
    1: {SEVERAL_HIGH_BATCHES},
    40: {SEVERAL_HIGH_BATCHES, LOW_BLOCK_BELOW_CHUNK, PARTIAL_LAST_BATCH},
    100: {SEVERAL_HIGH_BATCHES, LOW_BLOCK_BELOW_CHUNK, PARTIAL_LAST_BATCH},
    300: {SEVERAL_HIGH_BATCHES, PARTIAL_LAST_BATCH},
    1_000: {SEVERAL_HIGH_BATCHES, PARTIAL_LAST_BATCH},
    5_000: set(),
}


@pytest.mark.parametrize("cap", SHAPES_AT_CAP)
def test_every_table_split_matches_reference(monkeypatch, cap):
    # Shrinking the cap moves the split point r from k down to 0.
    monkeypatch.setattr(codes, "TABLE_CAP", cap)
    # The first span is the table over r rows, the second the low block over s rows.
    spans = []
    span = codes._span
    monkeypatch.setattr(codes, "_span", lambda rows, p: spans.append(len(rows)) or span(rows, p))
    rng = random.Random(cap)
    seen = set()
    for p, k, n in [(2, 7, 9), (3, 5, 13), (7, 4, 6), (13, 3, 20), (257, 2, 5)]:
        gen = random_generator(rng, p, k, n)
        spans.clear()
        enum = weight_enumerator(gen)
        assert enum == reference_weight_enumerator(gen)
        assert enum == reference_split_table_enumerator(gen)
        r, s = spans
        seen |= chunk_shapes(p, len(gen.independent_row_indices()), n, r, s, cap)
    assert seen == SHAPES_AT_CAP[cap]


def test_wide_code_with_empty_split_matches_reference():
    gen = random_generator(random.Random(5), 257, 2, 2_100)
    assert 257 * 2_100 > codes.TABLE_CAP
    assert weight_enumerator(gen) == reference_weight_enumerator(gen)


def test_library_generators_match_reference():
    gens = [reed_solomon_generator(p, k) for p, k in [(7, 3), (11, 4), (13, 5), (101, 2)]]
    gens.append(kronecker_generator(reed_solomon_generator(7, 2), reed_solomon_generator(7, 3)))
    gens.append(kronecker_generator(reed_solomon_generator(5, 2), reed_solomon_generator(5, 2)))
    # Lattice points that agree mod q - 1 give repeated rows.
    gens.append(toric_generator(7, [(u, v) for u in range(3) for v in range(3 - u)]))
    gens.append(toric_generator(7, [(0, 0), (1, 0), (0, 1), (6, 0), (1, 1), (0, 7), (2, 1)]))
    gens.append(toric_generator(5, [(0, 0), (1, 0), (0, 1), (4, 0), (1, 1), (0, 4)]))
    gens.append(build_code(surface_code_setup()).generator())
    for gen in gens:
        assert weight_enumerator(gen) == reference_weight_enumerator(gen)


def test_exact_distance_members_match_former_kernel():
    # The fixed members of the exact-distance benchmark round.
    members = [surface_code_setup(), toric_comparison_setup(7), toric_comparison_setup(11)]
    for setup, (n, k) in zip(members, [(66, 8), (36, 7), (100, 7)]):
        gen = build_code(setup).generator()
        assert (gen.ncols, len(gen.independent_row_indices())) == (n, k)
        assert weight_enumerator(gen) == reference_split_table_enumerator(gen)


def test_small_code_instances_match_reference():
    rng = random.Random(114)
    checked = 0
    while checked < 30:
        setup = small_code_instance(rng)
        if setup is None:
            continue
        gen = build_code(setup).generator()
        assert weight_enumerator(gen) == reference_weight_enumerator(gen)
        checked += 1


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


@pytest.mark.parametrize("n", [6, 12])
def test_large_prime_two_dimensional_code(n):
    # n = 6 keeps a one-row split (65,537 table words); n = 12 needs none.
    p = 65537
    rng = random.Random(n)
    gen = MatrixFp([[1] * n, [rng.randrange(p) for _ in range(n)]], p)
    enum = _bounded_run(gen)
    assert sum(enum.values()) == p**2
    assert enum == reference_weight_enumerator(gen)


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
