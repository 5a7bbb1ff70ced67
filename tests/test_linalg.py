"""Property and example tests for the GF(2) streaming linear algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hitq import linalg

WIDTH = 24

vectors = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)
vector_lists = st.lists(vectors, max_size=20)


def test_support_round_trip():
    assert linalg.from_support([0, 3, 5]) == 0b101001
    assert linalg.support(0b101001) == [5, 3, 0]
    assert linalg.support(0) == []
    # wide and sparse, as cache rows and reduced vectors are
    coords = [50_123, 50_000, 49_999, 49_998, 7, 0]
    assert linalg.support(linalg.from_support(coords)) == coords
    rng = random.Random(5)
    for _ in range(50):
        coords = sorted(rng.sample(range(50_200), rng.randint(1, 6)), reverse=True)
        assert linalg.support(linalg.from_support(coords)) == coords
    # kernel_basis reads its wide tags back through their binary digits; the
    # kernel holds width - rank vectors, so the width stays moderate here
    width = 4_000
    for _ in range(10):
        # rows touch few coordinates, half of them near the top
        live = sorted(set(rng.sample(range(width), 20))
                      | set(rng.sample(range(width - 50, width), 20)))
        rows = [linalg.from_support(rng.sample(live, rng.randint(1, 4)))
                for _ in range(rng.randint(1, 30))]
        cols = [linalg.from_support(c) for c in linalg.transpose(rows, width)]
        ker = linalg.kernel_basis(cols)
        assert len(ker) == width - oracles.rank2(rows)
        live_mask = linalg.from_support(live)
        touching = [k for k in ker if k & live_mask]
        assert not any(k & ~live_mask for k in touching)
        assert oracles.rank2(touching) == len(touching)
        for k in touching:
            assert all(bin(r & k).count("1") % 2 == 0 for r in rows)
        units = [k for k in ker if not k & live_mask]
        assert all(k.bit_count() == 1 for k in units)
        assert len(set(units)) == len(units) == width - len(live)


def _xor(vectors) -> int:
    acc = 0
    for v in vectors:
        acc ^= v
    return acc


@given(vector_lists)
def test_rank_matches_oracle(rows):
    assert linalg.rank(rows, WIDTH) == oracles.rank2(list(rows))


@given(vector_lists, vectors)
def test_reduce_is_canonical_coset_form(rows, v):
    eb = linalg.EchelonBasis(WIDTH)
    for r in rows:
        eb.insert(r)
    red = eb.reduce(v)
    # the representative differs from v by a row-space element
    assert eb.reduce(red ^ v) == 0
    # no pivot coordinate survives in it
    assert all(not (red >> p) & 1 for p in eb.rows_by_pivot())
    # canonical: equal cosets reduce identically
    for r in rows:
        assert eb.reduce(v ^ r) == red


@given(vector_lists)
def test_insert_reports_rank_growth(rows):
    eb = linalg.EchelonBasis(WIDTH)
    seen = 0
    for r in rows:
        grew, rem = eb.insert(r)
        seen += grew
        assert grew == bool(rem) or (not grew and rem == 0)
        assert eb.rank == seen


@given(vector_lists)
def test_table_is_the_packed_rref(rows):
    # each entry, unpacked onto the free coordinates, is the oracle's reduced
    # row: in the span, with its own pivot and no other
    eb = linalg.EchelonBasis(WIDTH)
    for r in rows:
        eb.insert(r)
    stored = eb.rows_by_pivot()
    table, pivots = linalg.normal_forms(
        (linalg.support(stored[p]) for p in sorted(stored)), WIDTH)
    reduced = oracles.rref(rows)
    assert list(table) == sorted(reduced) == pivots
    free = [c for c in range(WIDTH) if c not in table]
    for p, packed in table.items():
        row = (1 << p) | linalg.from_support(free[k] for k in linalg.support(packed))
        assert row == reduced[p]
        assert eb.reduce(row) == 0
        assert not any((row >> other) & 1 for other in table if other != p)


@given(st.integers(min_value=0, max_value=WIDTH).flatmap(lambda height: st.tuples(
    st.just(height), st.lists(st.integers(0, (1 << height) - 1), max_size=20))))
def test_transpose_swaps_rows_and_columns(case):
    # row r lists, ascending, exactly the c whose vector c has bit r
    height, cols = case
    rows = linalg.transpose(cols, height)
    assert len(rows) == height
    for r, row in enumerate(rows):
        assert row == sorted(set(row))
        assert row == [c for c, v in enumerate(cols) if (v >> r) & 1]
    packed = [linalg.from_support(row) for row in rows]
    back = [linalg.from_support(row) for row in linalg.transpose(packed, len(cols))]
    assert back == cols


# few bits, so that columns are often dependent and kernels are not trivial
columns = st.lists(st.one_of(st.just(0), st.integers(0, 63)), max_size=20)


@given(columns)
def test_kernel_is_the_full_annihilator(cols):
    # every kernel vector sums its columns to 0, and they span the kernel
    ker = linalg.kernel_basis(cols)
    for k in ker:
        assert _xor(cols[c] for c in linalg.support(k)) == 0
    assert len(ker) == len(cols) - oracles.rank2(list(cols))
    assert oracles.rank2(list(ker)) == len(ker)


def _rref_kernel(cols):
    """The oracle's rref kernel of the matrix with these columns: per free
    coordinate f of its rows, ascending, f plus every pivot whose reduced
    row has f's bit."""
    height = max((v.bit_length() for v in cols), default=0)
    rows = [linalg.from_support(c for c, v in enumerate(cols) if v >> r & 1)
            for r in range(height)]
    reduced = oracles.rref(rows)
    return [1 << f | linalg.from_support(p for p, row in reduced.items() if row >> f & 1)
            for f in range(len(cols)) if f not in reduced]


@given(columns)
def test_kernel_is_the_oracle_rref_kernel(cols):
    assert linalg.kernel_basis(cols) == _rref_kernel(cols)


def test_kernel_of_zero_and_empty_maps():
    assert linalg.kernel_basis([]) == _rref_kernel([]) == []
    assert linalg.kernel_basis([0, 0, 0]) == _rref_kernel([0, 0, 0]) == [1, 2, 4]
    # column 1 is the sum of the columns above it, column 0 is zero
    assert linalg.kernel_basis([0, 0b11, 0b01, 0b10]) == [0b0001, 0b1110]


@given(vector_lists, st.integers(min_value=0))
def test_solve_combination_reconstructs_rhs(rows, seed):
    if rows:
        rhs = 0
        for k, r in enumerate(rows):
            if (seed >> k) & 1:
                rhs ^= r
        mask = linalg.solve_combination(rows, rhs)
        assert mask is not None
        acc = 0
        for k in linalg.support(mask):
            acc ^= rows[k]
        assert acc == rhs


@given(vector_lists, st.integers(min_value=0))
def test_solve_combination_skips_dependent_targets(rows, seed):
    # sums of earlier targets mixed in: the mask has no bit at a target that
    # lies in the span of the earlier ones
    rng = random.Random(seed)
    targets: list = []
    for r in rows:
        targets.append(r)
        if rng.random() < 0.5:
            targets.append(_xor(rng.sample(targets, rng.randint(0, len(targets)))))
    rhs = _xor(t for t in targets if rng.random() < 0.5)
    mask = linalg.solve_combination(targets, rhs)
    assert mask is not None
    assert _xor(targets[k] for k in linalg.support(mask)) == rhs
    for k in linalg.support(mask):
        assert oracles.rank2(targets[:k + 1]) == oracles.rank2(targets[:k]) + 1


@given(vector_lists, vectors)
def test_solve_combination_rejects_outside_span(rows, v):
    mask = linalg.solve_combination(rows, v)
    eb = linalg.EchelonBasis(WIDTH)
    for r in rows:
        eb.insert(r)
    assert (mask is not None) == (eb.reduce(v) == 0)


@settings(max_examples=50)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=8),
       st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_intersection_with_coordinate_subspace(gens, allowed):
    width = 10
    got = oracles.intersect_coordinate_subspace(gens, width, allowed)
    # every intersection row is in the span and in the coordinate subspace
    span = linalg.EchelonBasis(width)
    for g in gens:
        span.insert(g)
    for row in got:
        assert span.reduce(row) == 0
        assert row & ~allowed == 0
    # brute force: enumerate the whole span (rank <= 8 here)
    basis = list(span.rows_by_pivot().values())
    expected = set()
    for mask in range(1 << len(basis)):
        v = 0
        for k in linalg.support(mask):
            v ^= basis[k]
        if v and v & ~allowed == 0:
            expected.add(v)
    assert len(got) == oracles.rank2(got) == oracles.rank2(sorted(expected))


def test_normal_forms_takes_pivot_first_rows():
    # coordinate 1 is the one free coordinate: [e_3] = e_1 is its bit 0
    assert linalg.normal_forms([[0], [2, 0], [3, 1, 0]], 4) == (
        {0: 0, 2: 0, 3: 1}, [0, 2, 3])
    assert linalg.normal_forms(
        (linalg.support(r) for r in (0b1, 0b101, 0b1011)), 4) == (
        {0: 0, 2: 0, 3: 1}, [0, 2, 3])
    for rows in ([[1, 3]],  # the pivot last
                 [[3, 1, 1]],  # a repeated coordinate
                 [[3, -1]],  # a negative coordinate
                 [[3], [2, 0]],  # descending pivots
                 [[4, 1]],  # a pivot at width
                 [[]]):  # no pivot at all
        with pytest.raises(ValueError, match="^row "):
            linalg.normal_forms(rows, 4)


def test_insert_rejects_overwide_vectors():
    eb = linalg.EchelonBasis(4)
    try:
        eb.insert(1 << 4)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")

