"""Acceptance gate: every reported number and identity, at its stated budget.

Each criterion is one test; the pytest -v status line is its pass/fail line.
All computations start from the pristine session cache set up in conftest, so
the timing assertions measure genuine cold runs.
"""

from __future__ import annotations

import time

import fixtures
import oracles
from hitq import action, dual, hit, lam, poly, transfer


def test_criterion_01_dimension_table_low_degrees():
    t0 = time.monotonic()
    got = {n: hit.quotient_basis(4, n).dim for n in (9, 21, 45)}
    elapsed = time.monotonic() - t0
    assert got == {9: 46, 21: 94, 45: 105}
    assert elapsed < 120, f"took {elapsed:.1f}s"
    print(f"criterion 1 PASS: dims {got} in {elapsed:.1f}s")


def test_criterion_02_degree_65_with_weight_filtration():
    t0 = time.monotonic()
    qb = hit.quotient_basis(4, 65)
    table = hit.weight_dimensions(qb)
    elapsed = time.monotonic() - t0
    assert qb.dim == 150
    assert {w: d for w, d in table.items() if d} == {
        (3, 1, 1, 1, 1, 1): 45, (3, 3, 2, 2, 2): 105}
    assert sum(table.values()) == 150
    assert elapsed < 900, f"took {elapsed:.1f}s"
    print(f"criterion 2 PASS: dim Q^4_65 = 150 "
          f"(45 + 105 across weights) in {elapsed:.1f}s")


def test_criterion_03_linear_group_invariants():
    t0 = time.monotonic()
    gl = action.gl_generators(4)
    dims = {}
    for n in (9, 17, 21, 37, 45):
        dims[n] = len(action.invariant_subspace(hit.quotient_basis(4, n), gl))
    assert dims == {9: 1, 17: 1, 21: 0, 37: 0, 45: 1}
    # the one-dimensional degree-17 invariant pairs to 1 against the
    # distinguished 44-term primitive
    qb17 = hit.quotient_basis(4, 17)
    inv = action.invariant_subspace(qb17, gl)
    u = qb17.poly_of_vec(inv[0])
    assert dual.is_primitive(fixtures.ZETA17)
    assert dual.pairing(fixtures.ZETA17, u) == 1
    # the written eight-term invariant represents that same class
    assert qb17.reduce_vec(fixtures.ZETA_TILDE_17) == inv[0]
    assert dual.pairing(fixtures.ZETA17, fixtures.ZETA_TILDE_17) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"took {elapsed:.1f}s"
    print(f"criterion 3 PASS: invariant dims {dims}, "
          f"degree-17 pairing = 1, in {elapsed:.1f}s")


def test_criterion_04_kameko_kernel_invariants():
    t0 = time.monotonic()
    gl = action.gl_generators(4)
    inv_dims = {}
    for n in (10, 22, 46):
        qb = hit.quotient_basis(4, n)
        inv = action.invariant_subspace(qb, gl)
        assert action.kernel_invariants(qb, inv) == []
        inv_dims[n] = len(inv)
    elapsed = time.monotonic() - t0
    assert inv_dims == {10: 0, 22: 1, 46: 0}
    assert elapsed < 600, f"took {elapsed:.1f}s"
    print(f"criterion 4 PASS: kernel invariants 0 at 10/22/46, "
          f"full invariants {inv_dims}, in {elapsed:.1f}s")


def test_criterion_05_symmetric_group_classes():
    sig = action.sigma_generators(4)

    def fixed_and_nonzero(f, n):
        qb = hit.quotient_basis(4, n)
        v = qb.reduce_vec(f)
        return v != 0 and all(
            qb.reduce_vec(poly.add(f, poly.linear_substitute(g, f))) == 0
            for g in sig), v

    # the four degree-9 sums span the symmetric invariants exactly
    qb9 = hit.quotient_basis(4, 9)
    nine = fixtures.symmetric_sums_low(1)
    assert len(nine) == 4
    vecs = []
    for f in nine:
        ok, v = fixed_and_nonzero(f, 9)
        assert ok
        vecs.append(v)
    assert oracles.rank2(vecs) == 4
    inv9 = action.invariant_subspace(qb9, sig)
    assert len(inv9) == 4
    assert oracles.rank2(vecs + list(inv9)) == 4
    # every listed class in both families is symmetric-fixed for s = 1, 2
    degree_low = {1: 9, 2: 21}
    degree_high = {1: 17, 2: 37}
    for s in (1, 2):
        for f in fixtures.symmetric_sums_low(s):
            ok, _ = fixed_and_nonzero(f, degree_low[s])
            assert ok, (s, "low")
        for f in fixtures.symmetric_sums_high(s):
            ok, _ = fixed_and_nonzero(f, degree_high[s])
            assert ok, (s, "high")
    print("criterion 5 PASS: dim (Q^4_9)^sigma = 4 with the four listed "
          "generators; all listed classes fixed for s = 1, 2")


def test_criterion_06_dual_primitives_and_pairing():
    for n in range(1, 25):
        qb = hit.quotient_basis(4, n)
        prims = dual.primitive_basis(4, n)
        assert len(prims) == qb.dim, n
        rows = []
        for p in prims:
            row = 0
            for k, m in enumerate(qb.admissible):
                if dual.pairing(p, frozenset({m})):
                    row |= 1 << k
            rows.append(row)
        assert oracles.rank2(rows) == qb.dim, n
    # adjunction between the two-sided actions, exhaustively in low degrees
    for n in range(1, 15):
        above = poly.monomials(4, n)
        for t in range(1, n + 1):
            lhs = {(e, f) for e in above
                   for f in dual.dual_sq(t, dual.dual_element([e]))}
            rhs = {(e, f) for f in poly.monomials(4, n - t)
                   for e in poly.sq(t, poly.poly([f]))}
            assert lhs == rhs, (n, t)
    print("criterion 6 PASS: primitive dims equal quotient dims with "
          "nondegenerate pairing for n <= 24; adjunction exact for n <= 14")


def test_criterion_07_weight_dimensions_partition_the_quotient():
    for n in range(25):
        qb = hit.quotient_basis(4, n)
        table = hit.weight_dimensions(qb)
        assert sorted(table) == poly.weight_vectors(4, n)
        assert sum(table.values()) == qb.dim, n
    print("criterion 7 PASS: weight-block dimensions sum to dim Q^4_n "
          "for all n <= 24")


def test_criterion_08_lambda_algebra_properties():
    t0 = time.monotonic()
    for i in range(11):
        assert lam.normalize([(i, 2 * i + 1)]) == lam.ZERO
    checked = 0
    for s in range(1, 5):
        for n in range(25):
            for w in lam.admissible_basis(s, n):
                assert lam.differential(lam.differential([w])) == lam.ZERO
                checked += 1
    assert checked > 5000
    for n in range(21):
        for a in range(n + 1):
            for b in range(n - a + 1):
                w = (a, b, n - a - b)
                assert lam.differential([w]) == lam.differential(
                    lam.normalize([w]))
    for s in range(1, 4):
        for n in range(21):
            for w in lam.admissible_basis(s, n):
                assert lam.theta(lam.differential([w])) == lam.differential(
                    lam.theta([w]))
    e0 = lam.from_display(fixtures.E0_DISPLAY)
    assert lam.differential(e0) == lam.ZERO
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"criterion 8 PASS: {checked} admissible words with d.d = 0, "
          f"coherence and chain-map sweeps clean, d(e_0 rep) = 0, "
          f"in {elapsed:.1f}s")


def test_criterion_09_transfer_identifications():
    t0 = time.monotonic()
    # degree 9: the four-term generator and its componentwise expansions
    z1, names1 = transfer.transfer_class(dual.dual_element(fixtures.ZETA1), 4)
    assert names1 == ("h_1c_0",)
    for term, display_words in fixtures.PSI_COMPONENTS.items():
        got = lam.normalize(transfer.psi(4, dual.dual_element([term])))
        assert got == lam.normalize(lam.from_display(display_words)), term
    # degree 17: e_0, certified by the explicit witness chain
    z17, names17 = transfer.transfer_class(dual.dual_element(fixtures.ZETA17), 4)
    assert names17 == ("e_0",)
    e0 = lam.from_display(fixtures.E0_DISPLAY)
    witness = lam.from_display(fixtures.WITNESS_DISPLAY)
    assert lam.differential(witness) == lam.normalize(lam.add(z17, e0))
    ok, w = lam.classes_equal(z17, e0)
    assert ok and lam.differential(w) == lam.normalize(lam.add(z17, e0))
    # one-variable spikes across the family
    for s in (1, 2, 3):
        b = 2 ** (s + 1) - 1
        raw = transfer.psi(4, dual.dual_element(fixtures.spike_primitive(s)))
        assert raw == frozenset({(b, b, b, 0)})
    # image reports at the three reported degrees
    images = {n: transfer.transfer_image_report(4, n).image
              for n in (9, 17, 21)}
    assert images == {9: ("h_1c_0",), 17: ("e_0",), 21: ()}
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(f"criterion 9 PASS: transfer images h_1c_0 / e_0 / 0 at 9/17/21 "
          f"with certifying witnesses, in {elapsed:.1f}s")


def test_criterion_10_cross_engine_oracle():
    t0 = time.monotonic()
    for q in (1, 2):
        for n in range(17):
            engine = hit.quotient_basis(q, n).dim
            assert engine == oracles.hit_dimension(q, n) == \
                fixtures.ORACLE_DIMS[q][n], (q, n)
    for n in range(21):
        assert hit.quotient_basis(1, n).dim == oracles.one_variable_dimension(n)
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"criterion 10 PASS: engine matches the brute-force oracle for "
          f"q <= 2, n <= 16 and the closed form for q = 1, in {elapsed:.1f}s")
