"""Tests for the chain-level transfer and its homology identifications."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import fixtures
import oracles
from hitq import action, dual, hit, lam, transfer


def test_psi_component_expansions():
    # per-term expansions agree with the written forms up to rewriting
    for term, display_words in fixtures.PSI_COMPONENTS.items():
        got = lam.normalize(transfer.psi(4, dual.dual_element([term])))
        assert got == lam.normalize(lam.from_display(display_words)), term
    # and the full four-term sum collapses on the nose, before any rewriting
    raw = transfer.psi(4, dual.dual_element(fixtures.ZETA1))
    assert raw == frozenset({(2, 3, 3, 1)})


def test_psi_is_additive_over_terms():
    z = transfer.psi(4, dual.dual_element(fixtures.ZETA1))
    acc = lam.ZERO
    for term in fixtures.ZETA1:
        acc = lam.add(acc, transfer.psi(4, dual.dual_element([term])))
    assert z == acc


def test_psi_on_one_variable_spikes():
    # gamma_{2^k - 1}(x_q) alone maps to the single word of one letter each
    for s in (1, 2, 3):
        b = 2 ** (s + 1) - 1
        z = transfer.psi(4, dual.dual_element([(0, b, b, b)]))
        assert z == frozenset({(b, b, b, 0)})


def test_psi_rejects_wrong_arity():
    with pytest.raises(ValueError):
        transfer.psi(3, dual.dual_element([(1, 2, 3, 4)]))


def test_psi_rejects_negative_orders():
    with pytest.raises(ValueError):
        transfer.psi(2, [(-1, 3)])


def test_psi_matches_the_oracle_on_coinvariant_generators():
    # raw word sets, before any normalisation: the level-wise psi against
    # the recursion on one divided monomial at a time
    gens = action.gl_generators(4)
    for n in (9, 17, 22, 45):
        elements = [e for e, _ in dual.coinvariant_generators(4, n, gens)]
        assert elements, n
        for e in elements:
            assert transfer.psi(4, e) == oracles.psi(e), n


def test_psi_matches_the_oracle_on_random_elements():
    # empty, inhomogeneous and repeated-term elements, q = 0 to 5
    rng = random.Random(31)
    for q in range(6):
        assert transfer.psi(q, []) == oracles.psi([]) == lam.ZERO
        for _ in range(40):
            terms = [tuple(rng.randint(0, 7) for _ in range(q))
                     for _ in range(rng.randint(1, 8))]
            assert transfer.psi(q, terms) == oracles.psi(terms), (q, terms)


def test_transfer_class_requires_a_primitive():
    with pytest.raises(ValueError):
        transfer.transfer_class(dual.dual_element([(2, 0, 0, 0)]), 4)


def test_transfer_class_of_the_degree_9_generator():
    z, names = transfer.transfer_class(dual.dual_element(fixtures.ZETA1), 4)
    assert not lam.differential(z)
    assert names == ("h_1c_0",)


def test_transfer_class_of_the_degree_17_generator():
    z, names = transfer.transfer_class(dual.dual_element(fixtures.ZETA17), 4)
    assert names == ("e_0",)
    # the recorded witness chain certifies z = e_0 on the nose
    e0 = lam.from_display(fixtures.E0_DISPLAY)
    ok, w = lam.classes_equal(z, e0)
    assert ok
    assert lam.differential(lam.from_display(fixtures.WITNESS_DISPLAY)) == \
        lam.normalize(lam.add(z, e0))
    assert lam.differential(w) == lam.normalize(lam.add(z, e0))


def test_transfer_class_of_spike_families():
    for s in (1, 2, 3):
        b = 2 ** (s + 1) - 1
        z, names = transfer.transfer_class(
            dual.dual_element(fixtures.spike_primitive(s)), 4)
        assert z == lam.normalize([(b, b, b, 0)])
        want = "h_0h_{i}^3".format(i=s + 1)
        if names != (want,):
            # the catalog may keep a homologous admissible spelling instead
            ok, _ = lam.classes_equal(z, lam.normalize([(b, b, b, 0)]))
            assert ok and names != "unidentified"


def test_transfer_report_shapes():
    rep = transfer.transfer_image_report(4, 9)
    assert (rep.q, rep.n) == (4, 9)
    assert rep.image == ("h_1c_0",)
    assert rep.unidentified == 0
    assert len(rep.generators) == 1
    e, z, names = rep.generators[0]
    assert dual.is_primitive(e) and not lam.differential(z) and names == ("h_1c_0",)
    # a degree with no invariant classes reports an empty image
    rep21 = transfer.transfer_image_report(4, 21)
    assert rep21.generators == () and rep21.image == ()


def test_transfer_image_at_degree_45():
    # n = 45 = 2^{s+t+1} + 2^{s+1} - 3 at (s, t) = (3, 1)
    assert transfer.transfer_image_report(4, 45).image == ("h_0h_3^2h_5",)


def test_square_compatibility_of_transfer_and_doubling():
    assert transfer.sq0_compat_check(transfer.transfer_image_report(4, 9))


def test_low_rank_transfers_name_the_hopf_classes():
    # Tr_1 is an isomorphism onto the h_i; Tr_2 hits h_i^2 and h_1h_3
    for q, n, want in ((1, 1, "h_1"), (1, 3, "h_2"), (1, 7, "h_3"),
                       (1, 15, "h_4"), (2, 2, "h_1^2"), (2, 6, "h_2^2"),
                       (2, 8, "h_1h_3")):
        report = transfer.transfer_image_report(q, n)
        assert report.image == (want,) and not report.unidentified, (q, n)


# the paper's generic degrees: 2^{s+t+1} + 2^{s+1} - 3 with t != 3, and
# 2^{s+t} + 2^s - 2 with t not in {2, 3, 4}, s >= 1 in both
FIRST_FAMILY = (5, 9, 13, 17, 21, 29, 37, 45)
SECOND_FAMILY = (2, 4, 6, 10, 14, 22, 30, 46)
# dim (Q^4_n)^GL for n <= 46, 0 where not listed
GL_DIMS = {7: 1, 9: 1, 14: 1, 15: 1, 17: 1, 18: 2, 22: 1, 23: 1, 30: 1,
           31: 1, 32: 1, 33: 1, 34: 1, 38: 2, 39: 1, 40: 2, 41: 1, 45: 1}


def test_singer_transfer_is_injective_in_rank_4():
    # the paper's theorem at every n <= 46, its generic degrees among them:
    # no nonempty sum of the GL-coinvariant generators' cycles is a boundary
    pairs = [(s, t) for s in range(1, 6) for t in range(6)]  # every n <= 46
    first = {2 ** (s + t + 1) + 2 ** (s + 1) - 3 for s, t in pairs if t != 3}
    second = {2 ** (s + t) + 2 ** s - 2 for s, t in pairs if t not in (2, 3, 4)}
    assert sorted(n for n in first if n <= 46) == list(FIRST_FAMILY)
    assert sorted(n for n in second if n <= 46) == list(SECOND_FAMILY)
    gens = action.gl_generators(4)
    for n in range(1, 47):
        cycles = [lam.normalize(transfer.psi(4, e))
                  for e, _ in dual.coinvariant_generators(4, n, gens)]
        assert len(cycles) == GL_DIMS.get(n, 0), n
        for mask in range(1, 1 << len(cycles)):
            total = lam.add(*(z for k, z in enumerate(cycles) if mask >> k & 1))
            assert not lam.classes_equal(total, lam.ZERO)[0], (n, mask)


_HELD = """
import gc, tracemalloc
from hitq import transfer
tracemalloc.start()
gc.collect()  # a full collection empties the free lists, which count as held
start = tracemalloc.get_traced_memory()[0]
for n in (33, 38, 45, 46, 9):
    transfer.transfer_image_report(4, n)
gc.collect()
print(tracemalloc.get_traced_memory()[0] - start)
"""


def test_reports_hold_no_earlier_degree():
    # a fresh interpreter, so no other test's memo counts; the bases are
    # cached first, so it loads them rather than eliminating under tracing
    for n in (33, 38, 45, 46, 9):
        hit.quotient_basis(4, n)
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", _HELD], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         check=True)
    assert int(out.stdout) < 0.5 * 2**20
