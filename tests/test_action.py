"""Tests for the group action on quotients and invariant-subspace extraction."""

from __future__ import annotations

import itertools

import pytest

import oracles
from hitq import action, hit, linalg, poly


def _is_fixed(qb, v, gens):
    f = qb.poly_of_vec(v)
    return all(
        qb.reduce_vec(poly.add(f, poly.linear_substitute(g, f))) == 0
        for g in gens)


def test_generator_shapes():
    sig = action.sigma_generators(4)
    assert len(sig) == 3
    for g in sig:
        assert sorted(map(tuple, g)) == sorted(
            tuple(int(i == j) for j in range(4)) for i in range(4))
    gl = action.gl_generators(4)
    assert len(gl) == 4 and gl[:3] == sig
    assert gl[3][0] == [1, 1, 0, 0] or gl[3][0] == (1, 1, 0, 0)


def test_gl1_is_trivial():
    # GL_1(F_2) = 1: no generators, so every class of Q^1_n is invariant
    assert action.gl_generators(1) == []
    for n, want in ((1, 1), (2, 0), (3, 1), (7, 1)):
        qb = hit.quotient_basis(1, n)
        assert len(action.invariant_subspace(qb, action.gl_generators(1))) == want


def test_group_generators_rejects_unknown_kind():
    with pytest.raises(ValueError):
        action.group_generators(4, "borel")


def test_invariants_are_fixed_and_independent():
    for q, n, kind in ((3, 6, "sigma"), (3, 7, "gl"), (4, 9, "gl")):
        qb = hit.quotient_basis(q, n)
        gens = action.group_generators(q, kind)
        inv = action.invariant_subspace(qb, gens)
        assert oracles.rank2(list(inv)) == len(inv)
        for v in inv:
            assert _is_fixed(qb, v, gens)


def test_invariants_exhaust_the_fixed_space():
    # small enough to enumerate every class in the quotient
    for q, n, kind in ((3, 5, "sigma"), (3, 6, "gl"), (2, 6, "gl")):
        qb = hit.quotient_basis(q, n)
        gens = action.group_generators(q, kind)
        inv = action.invariant_subspace(qb, gens)
        fixed = sum(1 for bits in range(1 << qb.dim)
                    if _is_fixed(qb, bits, gens))
        assert fixed == 1 << len(inv), (q, n, kind)


def test_gl_invariants_sit_inside_sigma_invariants():
    for q, n in ((3, 8), (4, 9)):
        qb = hit.quotient_basis(q, n)
        sig = action.invariant_subspace(qb, action.sigma_generators(q))
        gl = action.invariant_subspace(qb, action.gl_generators(q))
        span = linalg.EchelonBasis(qb.dim)
        for v in sig:
            span.insert(v)
        for v in gl:
            assert span.reduce(v) == 0


def _mat_apply(cols, v):
    out = 0
    for k in linalg.support(v):
        out ^= cols[k]
    return out


def test_action_matrices_compose_as_a_right_action():
    qb = hit.quotient_basis(3, 7)
    gens = action.gl_generators(3)
    for g, h in itertools.product(gens, repeat=2):
        hg = [[sum(h[i][k] * g[k][j] for k in range(3)) % 2
               for j in range(3)] for i in range(3)]
        a_g = action.action_matrix(g, qb)
        a_h = action.action_matrix(h, qb)
        a_hg = action.action_matrix(hg, qb)
        for j in range(qb.dim):
            assert _mat_apply(a_g, a_h[j]) == a_hg[j]


def test_kernel_invariants_is_the_exact_intersection():
    dims = {}
    for q, n in ((3, 9), (4, 10), (4, 14), (5, 15)):
        qb = hit.quotient_basis(q, n)
        gens = action.gl_generators(q)
        inv = action.invariant_subspace(qb, gens)
        kker = hit.kameko_kernel(q, n)
        got = action.kernel_invariants(qb, inv)
        inv_span = linalg.EchelonBasis(qb.dim)
        for v in inv:
            inv_span.insert(v)
        kk_span = linalg.EchelonBasis(qb.dim)
        for v in kker:
            kk_span.insert(v)
        for v in got:
            assert inv_span.reduce(v) == 0 and kk_span.reduce(v) == 0
            assert _is_fixed(qb, v, gens)
        both = oracles.rank2(list(inv) + list(kker))
        want_dim = len(inv) + len(kker) - both
        assert oracles.rank2(list(got)) == len(got) == want_dim
        dims[q, n] = want_dim
    assert dims == {(3, 9): 0, (4, 10): 0, (4, 14): 1, (5, 15): 2}


def test_kameko_kernel_is_gl_stable():
    # each generator maps the Kameko kernel into itself
    for q, n in ((4, 10), (4, 22), (5, 15)):
        qb = hit.quotient_basis(q, n)
        kernel = hit.kameko_kernel(q, n)
        assert kernel, (q, n)
        span = linalg.EchelonBasis(qb.dim)
        for v in kernel:
            span.insert(v)
        for g in action.gl_generators(q):
            for v in kernel:
                image = qb.reduce_vec(poly.linear_substitute(g, qb.poly_of_vec(v)))
                assert span.reduce(image) == 0, (q, n)
