"""Tests for the lambda-algebra engine: rewriting, differential, homology."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hitq import lam, linalg

words = st.lists(st.integers(min_value=0, max_value=12), min_size=0,
                 max_size=4).map(tuple)
elements = st.lists(words, max_size=4).map(lam.element)


def test_element_cancels_duplicates():
    assert lam.element([(1, 2), (1, 2)]) == lam.ZERO
    assert lam.element([(1, 2), (1, 2), (1, 2)]) == frozenset({(1, 2)})
    assert lam.add(frozenset({(1,)}), frozenset({(1,)})) == lam.ZERO


def test_negative_letters_raise():
    # unchecked, normalize([(-1, 0)]) gave {(0, -1)}, theta([(-1,)]) gave
    # {(-1,)} and identify_class failed inside admissible_basis
    for call in (lam.element, lam.normalize, lam.differential, lam.theta,
                 lam.identify_class, lambda e: lam.multiply(e, []),
                 lambda e: lam.multiply([(2,)], e)):
        for e in ([(-1, 0)], [(-1,)]):
            with pytest.raises(ValueError, match="negative letter"):
                call(e)


def test_multiply_reads_a_one_pass_factor_once():
    want = lam.multiply([(1,), (2,)], [(3,), (1,)])
    assert want == {(1, 1), (2, 1), (2, 3)}
    assert lam.multiply(iter([(1,), (2,)]), iter([(3,), (1,)])) == want


def test_pair_rewrite_and_d_letter_match_the_formulas():
    for i in range(60):
        for j in range(2 * i + 1, 2 * i + 150):
            assert lam._pair_rewrite(i, j) == oracles.pair_rewrite(i, j), (i, j)
    for m in range(301):
        assert lam._d_letter(m) == oracles.d_letter(m), m


def test_admissible_basis_matches_brute_enumeration():
    for s in range(1, 5):
        for n in range(0, 14):
            brute = sorted(
                w for w in itertools.product(range(n + 1), repeat=s)
                if sum(w) == n and all(2 * a >= b for a, b in zip(w, w[1:])))
            assert list(lam.admissible_basis(s, n)) == brute


def test_admissible_basis_rejects_negative_arguments():
    with pytest.raises(ValueError):
        lam.admissible_basis(-1, 3)
    with pytest.raises(ValueError):
        lam.admissible_basis(2, -1)


@given(words)
def test_normalize_outputs_admissible_words(w):
    for out in lam.normalize([w]):
        assert all(2 * a >= b for a, b in zip(out, out[1:]))
        assert sum(out) == sum(w) and len(out) == len(w)


@given(words)
def test_normalize_is_idempotent(w):
    e = lam.normalize([w])
    assert lam.normalize(e) == e


def test_admissible_words_are_normal_forms():
    for w in lam.admissible_basis(3, 10):
        assert lam.normalize([w]) == frozenset({w})


def test_adjacent_relation_vanishes():
    for i in range(11):
        assert lam.normalize([(i, 2 * i + 1)]) == lam.ZERO


@given(words)
def test_differential_squares_to_zero(w):
    assert lam.differential(lam.differential([w])) == lam.ZERO


@given(words)
def test_differential_commutes_with_normalization(w):
    assert lam.differential([w]) == lam.differential(lam.normalize([w]))


@settings(max_examples=40)
@given(elements, elements, elements)
def test_multiply_is_associative_and_bilinear(a, b, c):
    assert lam.multiply(lam.multiply(a, b), c) == lam.multiply(
        a, lam.multiply(b, c))
    assert lam.multiply(lam.add(a, b), c) == lam.add(
        lam.multiply(a, c), lam.multiply(b, c))


@settings(max_examples=40)
@given(elements, elements)
def test_differential_is_a_derivation(a, b):
    # d(ab) = d(a) b + a d(b); signs are trivial mod 2
    lhs = lam.differential(lam.multiply(a, b))
    rhs = lam.add(lam.multiply(lam.differential(a), b),
                  lam.multiply(a, lam.differential(b)))
    assert lhs == rhs


def test_h_letters_are_cycles():
    for i in range(6):
        assert not lam.differential([((1 << i) - 1,)])


@given(words)
def test_theta_is_a_chain_map(w):
    assert lam.theta(lam.differential([w])) == lam.differential(lam.theta([w]))


@settings(max_examples=40)
@given(elements, elements)
def test_theta_is_multiplicative(a, b):
    assert lam.theta(lam.multiply(a, b)) == lam.multiply(
        lam.theta(a), lam.theta(b))


def test_classes_equal_certifies_with_a_boundary_witness():
    u = frozenset({(3, 2, 5)})
    z = lam.differential(u)  # a boundary, hence a cycle
    ok, w = lam.classes_equal(z, lam.ZERO)
    assert ok
    assert lam.differential(w) == lam.normalize(z)
    # equal on the nose -> zero witness
    ok, w = lam.classes_equal(z, z)
    assert ok and w == lam.ZERO


def test_classes_equal_rejects_non_cycles():
    with pytest.raises(ValueError):
        lam.classes_equal([(2,)], lam.ZERO)  # d(lambda_2) != 0


def test_classes_equal_distinguishes_h_classes():
    h3 = frozenset({(7,)})
    h2 = frozenset({(3,)})
    assert lam.classes_equal(h3, h3) == (True, lam.ZERO)
    # different degrees can't even be subtracted into one bidegree
    with pytest.raises(ValueError):
        lam.classes_equal(h3, h2)


def test_catalog_entries_are_independent_cycles():
    for s, n in ((1, 1), (1, 3), (2, 6), (3, 8), (4, 9), (4, 17)):
        for name, el in lam.catalog(s, n):
            assert not lam.differential(el), (s, n, name)
            assert lam.identify_class(el) == (name,)


def test_h_multisets_are_the_descending_letter_tuples():
    # their order decides which catalog candidates survive and their names
    for slots in range(5):
        for total in range(41):
            letters = [2 ** e - 1 for e in range(total.bit_length() + 1)]
            want = sorted({tuple(sorted(c, reverse=True))
                           for c in itertools.product(letters, repeat=slots)
                           if sum(c) == total}, reverse=True)
            assert lam._h_multisets(slots, total) == want, (slots, total)


def test_catalog_names_at_reported_spots():
    assert [nm for nm, _ in lam.catalog(4, 9)] == ["h_1c_0"]
    assert "e_0" in dict(lam.catalog(4, 17))
    assert dict(lam.catalog(1, 7)) == {"h_3": frozenset({(7,)})}


def test_identify_class_on_boundaries_and_sums():
    z = lam.differential([(5, 6, 7)])  # a nonzero boundary in (4, 17)
    assert z and lam.identify_class(z) == ()
    # a cycle plus a boundary identifies the same way
    c = dict(lam.catalog(4, 17))["e_0"]
    assert lam.identify_class(lam.add(c, z)) == ("e_0",)


def test_identify_class_rejects_non_cycles():
    # it answered "unidentified", a claim about a cycle, for d(lambda_2) != 0
    with pytest.raises(ValueError, match="cycle"):
        lam.identify_class([(2,)])


def test_catalog_rejects_negative_arguments():
    # catalog(-1, 3) failed inside itertools with "r must be non-negative"
    with pytest.raises(ValueError, match="length -1 and degree 3"):
        lam.catalog(-1, 3)


def _solve_route(s, n):
    """The catalog, identify_class and classes_equal at (s, n) as separate
    eliminations through linalg.solve_combination."""
    index = {w: k for k, w in enumerate(lam.admissible_basis(s, n))}

    def vec(e):
        return linalg.from_support(index[w] for w in e)

    bnd = [(vec(lam.differential([w])), w)
           for w in lam.admissible_basis(s - 1, n + 1)]
    bnd = [(v, w) for v, w in bnd if v]
    span = linalg.EchelonBasis(len(index))
    for v, _ in bnd:
        span.insert(v)
    entries = []
    for name, elem in lam._candidates(s, n):
        z = lam.normalize(elem)
        if z and span.insert(vec(z))[0]:
            entries.append((name, z))

    def identify(z):
        sol = linalg.solve_combination(
            [vec(el) for _, el in entries] + [v for v, _ in bnd], vec(z))
        if sol is None:
            return "unidentified"
        return tuple(nm for k, (nm, _) in enumerate(entries) if sol >> k & 1)

    def equal(z1, z2):
        u = lam.normalize(lam.add(z1, z2))
        sol = linalg.solve_combination([v for v, _ in bnd], vec(u)) if u else 0
        if sol is None:
            return False, None
        return True, lam.element(w for k, (_, w) in enumerate(bnd) if sol >> k & 1)

    return tuple(entries), identify, equal


def _cycles(s, n):
    """A basis of the cycles of (s, n): the kernel of d out of it."""
    basis = lam.admissible_basis(s, n)
    target = {w: k for k, w in enumerate(lam.admissible_basis(s + 1, n - 1))}
    cols = [linalg.from_support(target[w] for w in lam.differential([u]))
            for u in basis]
    return [lam.element(basis[k] for k in linalg.support(v))
            for v in linalg.kernel_basis(cols)]


@pytest.mark.parametrize("s, n", [(2, 6), (3, 9), (3, 14), (4, 9), (4, 17),
                                  (4, 22), (4, 33)])
def test_one_elimination_matches_the_solve_route(s, n):
    entries, identify, equal = _solve_route(s, n)
    assert lam.catalog(s, n) == entries
    rng = random.Random(s * 100 + n)
    sources, cycles = lam.admissible_basis(s - 1, n + 1), _cycles(s, n)
    for _ in range(25):
        bound = lam.differential(rng.sample(sources, min(3, len(sources))))
        picked = [el for _, el in entries if rng.random() < 0.5]
        # at (4, 33) some cycles lie outside the catalog span
        z = lam.add(bound, *picked, *(c for c in cycles if rng.random() < 0.1))
        assert lam.identify_class(z) == identify(z), (s, n)
        for other in (lam.ZERO, *(el for _, el in entries[:2])):
            assert lam.classes_equal(z, other) == equal(z, other), (s, n)


def test_display_round_trip_and_formatting():
    e = lam.from_display([(1, 3, 3, 2)])
    assert e == frozenset({(2, 3, 3, 1)})
    assert lam.to_display(e) == [[1, 3, 3, 2]]
    assert oracles.format_element(e) == "l_1l_3^2l_2"
    assert oracles.format_element(lam.ZERO) == "0"
