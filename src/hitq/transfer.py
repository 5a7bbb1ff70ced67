"""Chain-level transfer into the lambda algebra and per-degree image reports."""

from __future__ import annotations

from functools import lru_cache

from . import action, dual, lam, linalg


@lru_cache(maxsize=None)
def _psi_orders(orders: tuple) -> frozenset:
    """Raw word set of psi on one divided monomial (no normalization).

    Recursion over the first order: each summand applies Sq^{k-j_1} to the
    tail and appends lambda_k; the sum over k stops at j_1 + deg(tail) since
    the dual action kills larger shifts.
    """
    if not orders:
        return frozenset({()})
    if len(orders) == 1:
        return frozenset({(orders[0],)})
    j1, rest = orders[0], orders[1:]
    return linalg.xor_terms(
        w + (k,)
        for k in range(j1, j1 + sum(rest) + 1)
        for r in dual.dual_sq(k - j1, [rest])
        for w in _psi_orders(r)
    )


def psi(q: int, e) -> lam.Element:
    """The chain-level transfer of a dual element; output is NOT normalized."""
    terms = [tuple(m) for m in e]
    for m in terms:
        if len(m) != q:
            raise ValueError(f"term {m} does not have {q} orders")
    return lam.add(*map(_psi_orders, terms))


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
