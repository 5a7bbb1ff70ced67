"""Tests for the hit-space engines, quotient bases, weights, and the cache."""

from __future__ import annotations

import random

import pytest

import fixtures
import oracles
from hitq import hit, linalg, poly


def test_dimensions_match_brute_force_oracle():
    for q, dims in fixtures.ORACLE_DIMS.items():
        for n, want in enumerate(dims):
            assert hit.quotient_basis(q, n).dim == want, (q, n)


def test_frozen_oracle_table_is_live():
    # the frozen table really is what the independent oracle computes
    for q, dims in fixtures.ORACLE_DIMS.items():
        upper = 16 if q <= 2 else 10
        assert dims == tuple(oracles.hit_dimension(q, n) for n in range(upper + 1))


def test_engines_agree_on_pivots():
    # equal pivots mean the seeded singletons (monomials below the minimal
    # spike's weight) all lie in the hit span of the full engine
    cases = ((2, 6), (2, 7), (2, 8), (2, 14), (2, 15),
             (3, 7), (3, 8), (4, 9), (4, 25))
    for q, n in cases:
        full = hit.hit_subspace(q, n, engine="full")
        seeded = hit.hit_subspace(q, n, engine="seeded")
        assert full.echelon.pivots() == seeded.echelon.pivots(), (q, n)


def test_wood_engine_where_every_monomial_is_hit():
    for q, n in ((2, 5), (2, 12), (3, 12)):
        full = hit.hit_subspace(q, n, engine="full")
        wood = hit.hit_subspace(q, n, engine="wood")
        assert full.echelon.pivots() == wood.echelon.pivots() == list(
            range(len(poly.monomials(q, n))))


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        hit.hit_subspace(3, 7, engine="banana")


def test_hit_subspace_rejects_bad_input():
    with pytest.raises(ValueError):
        hit.hit_subspace(3, -1)
    with pytest.raises(ValueError):
        hit.hit_subspace(2, 5, engine="seeded")  # mu(5) = 3 > 2: no spike
    with pytest.raises(ValueError):
        hit.hit_subspace(4, 9, engine="wood")  # mu(9) = 3 <= 4


def test_vectorize_round_trip():
    rng = random.Random(7)
    uni = poly.monomials(3, 8)
    for _ in range(20):
        f = frozenset(m for m in uni if rng.random() < 0.3)
        assert hit.unvectorize(hit.vectorize(f, 3, 8), 3, 8) == f


def test_hit_images_reduce_to_zero():
    qb = hit.quotient_basis(3, 9)
    for t in range(1, 10):
        for m in poly.monomials(3, 9 - t):
            assert qb.reduce_vec(poly.sq(t, poly.poly([m]))) == 0


def test_admissible_monomials_reduce_to_unit_vectors():
    qb = hit.quotient_basis(3, 8)
    for k, m in enumerate(qb.admissible):
        assert qb.reduce_vec(frozenset({m})) == 1 << k
    # and poly_of_vec inverts that
    for k in range(qb.dim):
        assert qb.poly_of_vec(1 << k) == frozenset({qb.admissible[k]})


def test_singer_filter_only_flags_hit_monomials():
    # the seeded engine's rule: below the minimal spike's weight, all is hit
    for n in (6, 7, 8, 14, 15):
        spike_w = poly.weight_of(poly.minimal_spike(2, n))
        for m in poly.monomials(2, n):
            if poly.weight_of(m) < spike_w:
                assert oracles.hit_membership({m}, 2, n), (n, m)


def test_enumerate_weights_is_exact():
    for q, n in ((3, 7), (4, 9)):
        ws = hit.enumerate_weights(q, n)
        assert ws == sorted({poly.weight_of(m) for m in poly.monomials(q, n)})
        assert all(poly.weight_degree(w) == n for w in ws)


def test_weight_quotient_routes_agree():
    for q, n in ((3, 6), (3, 7), (3, 8), (3, 9), (4, 9)):
        for om in hit.enumerate_weights(q, n):
            fast = hit.weight_quotient(q, n, om).dim
            direct = oracles.weight_block_dimension(q, n, om)
            assert fast == direct, (q, n, om)


def test_weight_dimensions_read_off_pivots():
    for q, n in ((3, 8), (4, 9), (4, 12)):
        qb = hit.quotient_basis(q, n)
        table = hit.weight_dimensions(qb)
        assert sum(table.values()) == qb.dim
        for om, d in table.items():
            assert hit.weight_quotient(q, n, om).dim == d


def test_weight_block_reduces_inside_its_filtration():
    omega = (3, 1, 1)
    block = hit.weight_quotient(4, 9, omega)
    assert block.omega == omega
    assert block.dim == hit.weight_dimensions(hit.quotient_basis(4, 9))[omega]
    for k, m in enumerate(block.admissible):
        assert poly.weight_of(m) == omega
        assert block.reduce_vec(frozenset({m})) == 1 << k
    assert block.reduce_vec(frozenset({(1, 2, 2, 4)})) == 0  # weight (1,2,1)
    with pytest.raises(ValueError):
        block.reduce_vec(frozenset({(3, 3, 3, 0)}))  # weight (3,3)


def test_weight_quotient_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        hit.weight_quotient(4, 9, (1, 1))


def test_cache_round_trip():
    qb = hit.quotient_basis(3, 7)
    files = list(hit.cache_dir().glob("hit-q3-n7*"))
    assert files, "expected cache files on disk"
    hit._QCACHE.pop((hit.cache_dir(), 3, 7))
    loaded = hit.quotient_basis(3, 7)
    assert loaded is not qb
    assert loaded.admissible == qb.admissible
    assert loaded.echelon.pivots() == qb.echelon.pivots()
    f = poly.poly([(1, 2, 4), (0, 3, 4)])
    assert loaded.reduce_vec(f) == qb.reduce_vec(f)


def test_kameko_kernel_is_the_exact_kernel():
    for q, n in ((3, 9), (4, 10), (4, 22)):
        src = hit.quotient_basis(q, n)
        tgt = hit.quotient_basis(q, (n - q) // 2)
        ker = hit.kameko_kernel(q, n)
        cols = []
        for m in src.admissible:
            d = poly.kameko_down(m)
            cols.append(tgt.reduce_vec(frozenset({d})) if d is not None else 0)
        for v in ker:
            img = 0
            for k in linalg.support(v):
                img ^= cols[k]
            assert img == 0
        rows = [sum(((cols[i] >> c) & 1) << i for i in range(src.dim))
                for c in range(tgt.dim)]
        assert len(ker) == src.dim - oracles.rank2(rows)
        assert oracles.rank2(list(ker)) == len(ker)


def test_kameko_kernel_rejects_bad_degree():
    with pytest.raises(ValueError):
        hit.kameko_kernel(4, 9)
