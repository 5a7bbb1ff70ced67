"""Chain-level transfer into the lambda algebra and per-degree image reports.

psi is computed level by level over the first orders of a dual element's
terms, acting on the tails by the right Steenrod action; it keeps no memo,
and it returns the raw word set, which transfer_class normalizes.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

from . import action, dual, lam, linalg


def _psi_levels(e: dual.DualElement) -> lam.Element:
    """Raw words of psi(e), e's terms all of one length: with S_k the sum over
    j_1 of (the tails of first order j_1) Sq^{k - j_1}, which cancels before
    the next level, psi(e) = sum_k psi(S_k) lambda_k; one order is one word."""
    if not e or len(next(iter(e))) < 2:
        return e
    tails, reach = defaultdict(list), defaultdict(int)
    for j1, *rest in e:
        tails[j1].append(rest)
        # an order j drops by at most j // 2, so Sq^t kills a tail past that sum
        reach[j1] = max(reach[j1], sum(j // 2 for j in rest))
    words = []
    for k in range(min(tails), max(j1 + r for j1, r in reach.items()) + 1):
        s_k = linalg.xor_terms(chain.from_iterable(
            dual.dual_sq(k - j1, ts) for j1, ts in tails.items()
            if 0 <= k - j1 <= reach[j1]))
        words.extend(w + (k,) for w in _psi_levels(s_k))
    return frozenset(words)


def psi(q: int, e) -> lam.Element:
    """The chain-level transfer of a dual element: its raw word set, NOT
    normalized, built level by level with no memo.  ValueError on a term
    without q orders or with a negative order."""
    terms = [tuple(m) for m in e]
    for m in terms:
        if len(m) != q:
            raise ValueError(f"term {m} does not have {q} orders")
    return _psi_levels(dual.dual_element(terms))


def transfer_class(e, q: int):
    """Normalized cycle of psi(e) with its catalog identification.

    e must be primitive; a nonzero differential would contradict the fact
    that psi carries primitives to cycles, so it raises immediately.
    """
    e = dual.dual_element(e)
    if not dual.is_primitive(e):
        raise ValueError("transfer_class requires a primitive dual element")
    z = lam.normalize(psi(q, e))
    if lam.differential(z):
        raise RuntimeError(
            "psi of a primitive is not a cycle -- internal inconsistency"
        )
    return z, lam.identify_class(z)


class TransferReport:
    """Transfer image summary at one degree."""

    def __init__(self, q: int, n: int, generators: tuple, image: tuple,
                 unidentified: int):
        self.q, self.n = q, n
        self.generators = generators  # (dual element, cycle, identification)
        self.image = image  # names of identified classes, deterministic order
        self.unidentified = unidentified  # generators outside the catalog span


def transfer_image_report(q: int, n: int) -> TransferReport:
    """Map every coinvariant generator through the transfer and aggregate."""
    gens = action.gl_generators(q)
    triples = []
    image = []
    unidentified = 0
    for e, _cert in dual.coinvariant_generators(q, n, gens):
        z, ident = transfer_class(e, q)
        triples.append((e, z, ident))
        if ident == "unidentified":
            unidentified += 1
        else:
            image.extend(nm for nm in ident if nm not in image)
    return TransferReport(q, n, tuple(triples), tuple(image), unidentified)


def sq0_compat_check(report: TransferReport) -> bool:
    """theta(z) and psi(Kameko-up e) agree in homology for each (e, z) of the report."""
    return all(lam.classes_equal(lam.theta(z), lam.normalize(
        psi(report.q, dual.kameko_up_dual(e))))[0] for e, z, _ in report.generators)


__all__ = [
    "psi",
    "transfer_class",
    "TransferReport",
    "transfer_image_report",
    "sq0_compat_check",
]
