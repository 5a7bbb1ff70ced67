"""Tests for divided-power duals: right Steenrod action, primitives, pairing."""

from __future__ import annotations

import random

import pytest

import fixtures
import oracles
from hitq import action, dual, hit, lam, linalg, poly, transfer


def test_dual_sq_zero_is_identity():
    e = dual.dual_element([(1, 2, 3), (0, 3, 3)])
    assert dual.dual_sq(0, e) == e


def test_dual_sq_is_the_adjoint_of_sq():
    # edge sets {(e, f) : f in e.Sq^t} and {(e, f) : e in Sq^t f} coincide
    for n in range(2, 11):
        above = poly.monomials(3, n)
        for t in range(1, n + 1):
            below = poly.monomials(3, n - t)
            lhs = {(e, f) for e in above
                   for f in dual.dual_sq(t, dual.dual_element([e]))}
            rhs = {(e, f) for f in below
                   for e in poly.sq(t, poly.poly([f]))}
            assert lhs == rhs, (n, t)


def test_dual_sq_matches_the_oracle_on_random_monomials():
    # the split-table walk against the oracle's brute-force splits, far past
    # the adjoint test's q <= 3 and n <= 10
    rng = random.Random(29)
    for _ in range(1000):
        m = tuple(rng.randint(0, 40) for _ in range(rng.randint(0, 6)))
        t = rng.randint(0, 60)
        assert dual.dual_sq(t, [m]) == oracles.dual_sq(t, m), (t, m)


def test_negative_orders_are_rejected():
    for bad in ([(-1, 3)], [(2, 1), (0, -2)]):
        for t in (0, 1, 2):
            with pytest.raises(ValueError):
                dual.dual_sq(t, bad)
        with pytest.raises(ValueError):
            dual.is_primitive(bad)


def test_pairing_is_bilinear():
    rng = random.Random(11)
    uni = poly.monomials(3, 7)
    for _ in range(30):
        e = frozenset(m for m in uni if rng.random() < 0.4)
        f1 = frozenset(m for m in uni if rng.random() < 0.4)
        f2 = frozenset(m for m in uni if rng.random() < 0.4)
        both = dual.pairing(e, poly.add(f1, f2))
        assert both == dual.pairing(e, f1) ^ dual.pairing(e, f2)


def test_dual_degree_and_homogeneity():
    assert dual.dual_degree(dual.dual_element([(1, 2, 3)])) == 6
    with pytest.raises(ValueError):
        dual.dual_degree(dual.dual_element([(1, 0, 0), (1, 1, 0)]))


def test_spikes_are_primitive():
    for s in (1, 2, 3):
        assert dual.is_primitive(fixtures.spike_primitive(s))
    assert not dual.is_primitive([(2, 0, 0, 0)])
    assert dual.is_primitive([(1, 0, 0, 0)])


def test_primitive_basis_elements_are_primitive_and_independent():
    for q, n in ((2, 8), (3, 8), (3, 9), (4, 9)):
        prims = dual.primitive_basis(q, n)
        idx = {m: k for k, m in enumerate(poly.monomials(q, n))}
        masks = []
        for p in prims:
            assert dual.is_primitive(p)
            masks.append(sum(1 << idx[m] for m in p))
        assert oracles.rank2(masks) == len(prims)


def test_primitive_basis_matches_dual_sq_oracle():
    # the annihilator of the hit relations against the kernel of the dual
    # Sq^{2^i} functionals; the coordinate orders differ, so compare spans
    for q, top in ((2, 20), (3, 20), (4, 24)):
        for n in range(1, top + 1):
            idx = {m: k for k, m in enumerate(poly.monomials(q, n))}
            got = [sum(1 << idx[m] for m in p) for p in dual.primitive_basis(q, n)]
            want = [sum(1 << idx[m] for m in p) for p in oracles.primitive_basis(q, n)]
            assert len(got) == len(want) == oracles.rank2(want), (q, n)
            assert oracles.rank2(got + want) == len(got), (q, n)


def test_annihilator_is_the_kernel_of_the_forward_rows():
    # the transposed table against the oracle's Gauss-Jordan of the forward
    # rows, read back from each degree's cache file: per free coordinate f,
    # ascending, f plus every pivot whose reduced row has f's bit
    degrees = ([(3, n) for n in range(31)] + [(4, n) for n in range(47)]
               + [(5, n) for n in range(21)])
    for q, n in degrees:
        space = hit.quotient_basis(q, n)
        _, rows = oracles.read_cache_v4(hit._cache_path(q, n).read_bytes())
        reduced = oracles.rref(sum(1 << c for c in row) for row in rows)
        kernel = {f: [f] for f in range(len(space.coords)) if f not in reduced}
        for p, row in reduced.items():
            row ^= 1 << p
            while row:
                f = row.bit_length() - 1
                kernel[f].append(p)
                row ^= 1 << f
        src = hit.kept_monomials(q, n, space.low)
        want = tuple(frozenset(src[c] for c in cs) for cs in kernel.values())
        assert dual._annihilator(space) == want, (q, n)


def test_primitive_basis_reads_a_cached_quotient(tmp_path, monkeypatch):
    # an existing cache file is read, not re-eliminated, and left as it was
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    fresh = dual._annihilator(hit.hit_subspace(4, 24))
    hit.quotient_basis(4, 24)
    (path,) = tmp_path.iterdir()
    before = path.read_bytes(), path.stat().st_mtime_ns

    def no_elimination(*args, **kwargs):
        raise AssertionError("re-eliminated a cached basis")

    monkeypatch.setattr(hit, "hit_subspace", no_elimination)
    assert dual.primitive_basis(4, 24) == fresh and len(fresh) == 70
    assert list(tmp_path.iterdir()) == [path]
    assert (path.read_bytes(), path.stat().st_mtime_ns) == before


def test_primitive_dimension_equals_quotient_dimension():
    for q, dims in fixtures.ORACLE_DIMS.items():
        for n, want in enumerate(dims):
            if n == 0:
                continue
            assert len(dual.primitive_basis(q, n)) == want, (q, n)


def test_primitivity_is_equivalent_to_basis_span_membership():
    q, n = 3, 8
    uni = poly.monomials(q, n)
    idx = {m: k for k, m in enumerate(uni)}
    prims = dual.primitive_basis(q, n)
    span = [sum(1 << idx[m] for m in p) for p in prims]
    rank = oracles.rank2(span)
    rng = random.Random(23)
    samples = []
    # random span members (combinations of the basis) ...
    for _ in range(30):
        e = frozenset()
        for p in prims:
            if rng.random() < 0.5:
                e = e.symmetric_difference(p)
        samples.append(e)
    # ... and random elements that mostly fall outside the span
    for _ in range(30):
        samples.append(frozenset(m for m in uni if rng.random() < 0.3))
    in_span = out_span = 0
    for e in samples:
        if not e:
            continue
        v = sum(1 << idx[m] for m in e)
        member = oracles.rank2(span + [v]) == rank
        assert dual.is_primitive(e) == member
        in_span += member
        out_span += not member
    assert in_span > 0 and out_span > 0


def test_coinvariant_generators_certificates():
    got = dual.coinvariant_generators(4, 9, action.gl_generators(4))
    assert len(got) == 1
    e, cert = got[0]
    assert cert == (1,)
    assert dual.is_primitive(e)
    assert dual.dual_degree(e) == 9
    # none at a degree with no invariants
    assert dual.coinvariant_generators(4, 21, action.gl_generators(4)) == []


def test_coinvariant_generators_for_several_invariants():
    # four sigma invariants at n = 9: one lookup per invariant, each certified
    got = dual.coinvariant_generators(4, 9, action.sigma_generators(4))
    assert [cert for _, cert in got] == [
        tuple(int(a == b) for b in range(4)) for a in range(4)]
    for e, _ in got:
        assert dual.is_primitive(e) and dual.dual_degree(e) == 9


def test_an_invariant_without_a_candidate_fails_the_certificate(monkeypatch):
    # the lookup needs the rref invariant basis: with u_0 + u_1 in place of
    # u_0, no primitive pairs with u_1 alone, and the certificate check raises
    real = action.invariant_subspace

    def mixed(space, gens):
        v0, v1, *rest = real(space, gens)
        return [v0 ^ v1, v1, *rest]

    monkeypatch.setattr(action, "invariant_subspace", mixed)
    with pytest.raises(RuntimeError, match=r"primitive 1 .* pairs as \(0, 0, 0, 0\)"):
        dual.coinvariant_generators(4, 9, action.sigma_generators(4))


def _candidates(q, n, kind):
    """Per invariant a, the annihilator primitives whose pairing row against
    the invariants is e_a, ascending, computed with pairing() alone."""
    space = hit.quotient_basis(q, n)
    vecs = action.invariant_subspace(space, action.group_generators(q, kind))
    invs = [space.poly_of_vec(v) for v in vecs]
    rows = [(p, [dual.pairing(p, u) for u in invs]) for p in dual._annihilator(space)]
    return [[p for p, row in rows if row == [int(b == a) for b in range(len(invs))]]
            for a in range(len(invs))]


def test_coinvariant_generators_are_the_sparsest_candidates():
    # the lookup's contract: every invariant has a candidate (the invariants
    # are the rref kernel basis, so each owns a free coordinate), and the
    # generator is the first of the fewest terms
    for q, n, kind in ((4, 9, "gl"), (4, 9, "sigma"), (4, 18, "gl"),
                       (4, 22, "gl"), (4, 38, "gl"), (5, 15, "gl")):
        cands = _candidates(q, n, kind)
        got = dual.coinvariant_generators(q, n, action.group_generators(q, kind))
        assert len(got) == len(cands) > 0, (q, n, kind)
        for a, ((e, _), cs) in enumerate(zip(got, cands)):
            assert cs, (q, n, kind, a)
            fewest = min(map(len, cs))
            assert e == next(c for c in cs if len(c) == fewest), (q, n, kind, a)


def test_every_candidate_is_the_same_transfer_class():
    # the transfer is well defined on coinvariants: at (4,22) and (4,38),
    # every candidate, the densest included, gives the generator's class
    gens = action.gl_generators(4)
    for n, densest in ((22, [286]), (38, [1746, 2198])):
        cands = _candidates(4, n, "gl")
        assert [max(map(len, cs)) for cs in cands] == densest, n
        for (e, _), cs in zip(dual.coinvariant_generators(4, n, gens), cands):
            z = lam.normalize(transfer.psi(4, e))
            for c in cs:
                assert lam.classes_equal(lam.normalize(transfer.psi(4, c)), z)[0], n


def test_pairing_columns_are_the_invariant_vectors_transposed():
    # coinvariant_generators' pairing columns: primitive k holds one
    # admissible monomial, the k-th, so it pairs with an invariant as bit k
    # of the invariant's vector
    for q, n in ((4, 9), (4, 17), (4, 22), (4, 45), (5, 15)):
        space = hit.quotient_basis(q, n)
        prims = dual._annihilator(space)
        for kind in ("gl", "sigma"):
            vecs = action.invariant_subspace(space, action.group_generators(q, kind))
            invs = [space.poly_of_vec(v) for v in vecs]
            pairing = [[b for b, u in enumerate(invs) if dual.pairing(e, u)]
                       for e in prims]
            assert pairing == linalg.transpose(vecs, space.dim), (q, n, kind)


def test_dual_sq_rejects_negative_squares():
    with pytest.raises(ValueError):
        dual.dual_sq(-1, [(1, 2, 3)])


def test_distinguished_degree_9_primitive_pairs_with_the_invariant():
    qb = hit.quotient_basis(4, 9)
    inv = action.invariant_subspace(qb, action.gl_generators(4))
    assert len(inv) == 1
    u = qb.poly_of_vec(inv[0])
    assert dual.is_primitive(fixtures.ZETA1)
    assert dual.pairing(fixtures.ZETA1, u) == 1


def test_kameko_up_dual_is_orderwise():
    e = dual.dual_element([(0, 3, 3, 3), (1, 2, 2, 4)])
    up = dual.kameko_up_dual(e)
    assert up == dual.dual_element([(1, 7, 7, 7), (3, 5, 5, 9)])
    assert dual.dual_degree(up) == 2 * 9 + 4
    # spikes stay primitive under doubling
    assert dual.is_primitive(dual.kameko_up_dual(fixtures.spike_primitive(1)))
