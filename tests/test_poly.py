"""Tests for monomial arithmetic, Steenrod squares, and weight bookkeeping."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hitq import poly

exponents = st.tuples(*(st.integers(min_value=0, max_value=12),) * 3)


@given(st.integers(min_value=0, max_value=400),
       st.integers(min_value=0, max_value=400))
def test_binom2_matches_math_comb(a, b):
    want = math.comb(a, b) % 2 if 0 <= b <= a else 0
    assert poly.binom2(a, b) == want


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_alpha_counts_binary_ones(n):
    assert poly.alpha(n) == bin(n).count("1")


def test_mu_matches_partition_dp():
    # mu(n): least size of a multiset {2^{d_i} - 1} summing to n
    best = [0] + [99] * 60
    for n in range(1, 61):
        k = 1
        while (1 << k) - 1 <= n:
            best[n] = min(best[n], 1 + best[n - ((1 << k) - 1)])
            k += 1
    assert [poly.mu(n) for n in range(61)] == best
    assert (poly.mu(9), poly.mu(10), poly.mu(15)) == (3, 2, 1)


@given(exponents, st.integers(min_value=0, max_value=8))
def test_sq_matches_naive_cartan(m, t):
    got = poly.sq(t, poly.poly([m]))
    want = oracles.naive_sq(t, {m})
    assert set(got) == want


@given(st.lists(exponents, min_size=1, max_size=4),
       st.integers(min_value=0, max_value=6))
def test_sq_is_additive(ms, t):
    f = poly.poly(ms)
    termwise = poly.add(*(poly.sq(t, poly.poly([m])) for m in f))
    assert poly.sq(t, f) == (termwise if f else frozenset())


@given(exponents)
def test_sq_zero_is_identity(m):
    assert poly.sq(0, poly.poly([m])) == poly.poly([m])


@given(exponents)
def test_top_square_is_squaring(m):
    n = sum(m)
    assert poly.sq(n, poly.poly([m])) == poly.poly([tuple(2 * e for e in m)])


@given(exponents)
def test_weight_degree_inverts_weight(m):
    assert poly.weight_degree(poly.weight_of(m)) == sum(m)


def test_weight_of_examples():
    assert poly.weight_of((1, 1, 1, 6)) == (3, 1, 1)
    assert poly.weight_of((3, 3, 3, 0)) == (3, 3)
    assert poly.weight_of((0, 0, 0, 0)) == ()


def _check_monomial_order(q, n):
    ms = poly.monomials(q, n)
    assert list(ms) == sorted(ms, key=lambda m: (poly.weight_of(m), m)), (q, n)
    # the packed key that sorted them separates exactly the distinct weights
    key = poly.weight_key(q, n)
    assert all((key(a) == key(b)) == (poly.weight_of(a) == poly.weight_of(b))
               for a, b in zip(ms, ms[1:])), (q, n)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=9))
def test_monomials_enumeration(q, n):
    ms = poly.monomials(q, n)
    assert len(ms) == math.comb(n + q - 1, q - 1)
    assert len(set(ms)) == len(ms)
    assert all(len(m) == q and sum(m) == n for m in ms)
    _check_monomial_order(q, n)


def test_monomial_order_at_large_degrees():
    for q, n in ((3, 70), (4, 45), (4, 65), (5, 24), (5, 30)):
        _check_monomial_order(q, n)


def test_minimal_spike_properties():
    for q in range(1, 6):
        for n in range(64):
            sp, want = poly.minimal_spike(q, n), oracles.minimal_spike_weight(q, n)
            assert (sp is None) == (want is None), (q, n)
            if sp is not None:
                assert len(sp) == q and sum(sp) == n, (q, n)
                assert all((e + 1) & e == 0 for e in sp), (q, n)
                assert list(sp) == sorted(sp, reverse=True), (q, n)
                assert poly.weight_of(sp) == want, (q, n)
    assert poly.minimal_spike(4, 9) == (7, 1, 1, 0)


@given(st.tuples(*(st.integers(min_value=0, max_value=10),) * 4))
def test_kameko_round_trip(m):
    up = tuple(2 * a + 1 for a in m)
    assert sum(up) == 2 * sum(m) + 4
    assert all(e % 2 == 1 for e in up)
    assert poly.kameko_down(up) == m


def test_kameko_down_rejects_even_exponents():
    assert poly.kameko_down((2, 1, 1, 1)) is None


@given(st.lists(exponents, max_size=4))
def test_identity_substitution(ms):
    f = poly.poly(ms)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert poly.linear_substitute(eye, f) == f


def _invertible(rows):
    bits = [sum(int(b) << j for j, b in enumerate(row)) for row in rows]
    return oracles.rank2(bits) == len(rows)


matrices = st.lists(st.tuples(*(st.booleans(),) * 3), min_size=3,
                    max_size=3).filter(_invertible).map(
                        lambda rows: [[int(b) for b in row] for row in rows])


@settings(max_examples=60)
@given(st.lists(exponents, max_size=3), matrices, matrices)
def test_substitution_is_functorial(ms, g, h):
    # substituting h then g composes to the product h * g (a right action)
    hg = [[sum(h[i][k] * g[k][j] for k in range(3)) % 2 for j in range(3)]
          for i in range(3)]
    f = poly.poly(ms)
    assert poly.linear_substitute(hg, f) == poly.linear_substitute(
        g, poly.linear_substitute(h, f))


@given(exponents, st.integers(min_value=0, max_value=6), matrices)
def test_substitution_commutes_with_sq(m, t, g):
    f = poly.poly([m])
    assert poly.sq(t, poly.linear_substitute(g, f)) == poly.linear_substitute(
        g, poly.sq(t, f))


def test_substitution_matches_repeated_multiplication():
    # random invertible g, entries read mod 2, and up to three monomials, so
    # that terms of different monomials can cancel; exponents stay <= 7, as
    # the oracle's product sets grow fast with q and the exponents
    rng = random.Random(27)
    for _ in range(200):
        q = rng.randint(1, 4)
        g = [[rng.randint(0, 3) for _ in range(q)] for _ in range(q)]
        if not _invertible([[x % 2 for x in row] for row in g]):
            continue
        f = poly.poly(tuple(rng.randint(0, 7) for _ in range(q))
                      for _ in range(rng.randint(1, 3)))
        assert poly.linear_substitute(g, f) == oracles.substitute(g, f), (g, f)


def test_substitution_rejects_singular_matrix():
    try:
        poly.linear_substitute([[1, 1], [1, 1]], poly.poly([(1, 0)]))
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_cartan_splits_are_the_odd_binomials():
    for j in range(-3, 301):
        want = tuple((t, j - t) for t in range(j + 1) if oracles.comb2(j - t, t))
        assert poly.cartan_splits(j) == want, j


def test_bad_arguments_raise_value_error():
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    bad_calls = [
        lambda: poly.linear_substitute(eye, poly.poly([(1, 2)])),  # arity 2
        lambda: poly.alpha(-1),
        lambda: poly.mu(-1),
        lambda: poly.monomials(3, -1),
        lambda: poly.monomials(0, 2),
        lambda: poly.sq(-1, poly.poly([(1, 2, 3)])),
        lambda: poly.weight_of((-1, 2)),
        lambda: poly.linear_substitute([[1, 1], [0, 1]], {(-2, 1)}),
        # negative exponents: sq gave frozenset() for t > 0 and the bad term
        # back for t = 0; poly and kameko_down accepted them
        *(lambda t=t: poly.sq(t, {(-1, 2)}) for t in range(4)),
        lambda: poly.sq(2, {(-3, 4)}),
        lambda: poly.poly([(-2, 1)]),
        lambda: poly.kameko_down((-1, 3)),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()
