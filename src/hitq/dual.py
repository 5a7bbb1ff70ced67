"""Divided power algebra dual to P_q: right Steenrod action and primitives.

A divided monomial a_1^{(j_1)}...a_q^{(j_q)} is stored as the tuple of its
orders (j_1,...,j_q) -- the same tuple universe as exponent vectors on the
polynomial side, which makes the order/exponent pairing a set intersection.
The right action reads :func:`poly.cartan_splits`, as the hit stream does.
Since <e Sq^t, u> = <e, Sq^t u>, the primitives are the annihilator of the
hit subspace, read off by transposing the normal-form table of the quotient
that `hit` builds.  Each holds one admissible monomial, so a coinvariant
generator is looked up, not solved for: the sparsest primitive whose pairing
column is its invariant alone.
"""

from __future__ import annotations

from collections.abc import Iterable

from . import action, hit, linalg, poly
from .poly import Polynomial

DividedMonomial = tuple  # tuple[int, ...]
DualElement = frozenset  # frozenset[DividedMonomial]


def dual_element(terms: Iterable[DividedMonomial]) -> DualElement:
    """Dual element from terms, duplicates cancelling; ValueError on negative orders."""
    e = linalg.xor_terms(map(tuple, terms))
    for m in e:
        if min(m, default=0) < 0:
            raise ValueError(f"divided monomial {m} has a negative order")
    return e


def dual_sq(t: int, e: Iterable[DividedMonomial]) -> DualElement:
    """Right action of Sq^t on a dual element: each order j drops by t_j along
    a split (t_j, j - t_j) of ``poly.cartan_splits(j)``, sum t_j = t, so
    t_j <= j // 2; a walk keeps the partial sums the places left can fill."""
    if t < 0:
        raise ValueError(f"Sq^{t}: t must be non-negative")
    e = dual_element(e)
    if t == 0:
        return e
    out: list = []
    for m in e:
        partial = [(0, ())]  # (sum of the t_j so far, the orders so far)
        room = sum(j // 2 for j in m)  # the most that the places left can drop
        for j in m:
            room -= j // 2
            splits = poly.cartan_splits(j)  # once per place, not per partial sum
            partial = [(s + ts, acc + (r,)) for s, acc in partial
                       for ts, r in splits if t - room <= s + ts <= t]
        out.extend(acc for s, acc in partial if s == t)  # q = 0 walks no place
    return linalg.xor_terms(out)


def dual_degree(e: DualElement) -> int:
    degs = {sum(m) for m in e}
    if len(degs) > 1:
        raise ValueError("dual element is not homogeneous")
    return degs.pop() if degs else 0


def is_primitive(e: Iterable[DividedMonomial]) -> bool:
    """True when every positive Steenrod square kills e (Sq^{2^i} suffice)."""
    e = dual_element(e)
    return not any(dual_sq(1 << i, e) for i in range(dual_degree(e).bit_length()))


def _annihilator(space: hit.QuotientBasis) -> tuple:
    """Dual elements pairing to zero with the hit part of Q^q_n.

    They vanish below low, and over the kept coordinates they are the table
    transposed, the canonical (rref) kernel basis: per admissible monomial f,
    in order, f plus every pivot whose table entry has f's bit.  So each
    holds exactly one admissible monomial, its own f.
    """
    rels = [space.monomials[p] for p in space.pivots]  # column i: pivot i's monomial
    cols = linalg.transpose(map(space.table.__getitem__, space.pivots), space.dim)
    return tuple(frozenset([f, *map(rels.__getitem__, col)])
                 for f, col in zip(space.admissible, cols))


def primitive_basis(q: int, n: int) -> tuple:
    """Basis of the degree-n primitives: the (canonical) rref kernel of the hit rows.

    The rows are those of Q^q_n's cache file when it is there, else of a
    fresh elimination; no cache file is written.
    """
    space = hit.cached_quotient(q, n)
    return _annihilator(space if space is not None else hit.hit_subspace(q, n))


def pairing(e: Iterable[DividedMonomial], f: Polynomial) -> int:
    """GF(2) pairing: parity of order tuples of e matching exponent tuples of f."""
    e = {tuple(m) for m in e}
    return len(e & set(f)) & 1


def coinvariant_generators(q: int, n: int, gens) -> list:
    """Primitive duals pairing delta-wise against the invariant classes.

    For each invariant basis class [u_a] of the quotient under `gens`, the
    sparsest basis primitive e_a with pairing(e_a, u_b) = delta_ab, the lowest
    on a tie; the certificate is that pairing row, recomputed from the returned
    element.  Primitive k holds one admissible monomial, the k-th, and u_b is
    a sum of admissible ones, so the pairing columns are the invariant vectors
    transposed.  Those are the rref kernel basis: u_a alone has its own free
    coordinate, whose column is [a], so every invariant has a candidate, and
    any of them is the same coinvariant.
    """
    space = hit.quotient_basis(q, n)
    vecs = action.invariant_subspace(space, gens)
    if not vecs:
        return []
    invs = [space.poly_of_vec(v) for v in vecs]
    prims = _annihilator(space)
    columns = linalg.transpose(vecs, space.dim)
    out = []
    for a in range(len(invs)):
        e = min((p for p, col in zip(prims, columns) if col == [a]),
                key=len, default=frozenset())
        cert = tuple(pairing(e, u) for u in invs)
        if cert != tuple(int(b == a) for b in range(len(invs))):
            raise RuntimeError(f"primitive {a} at (q={q}, n={n}) pairs as {cert}")
        out.append((e, cert))
    return out


def kameko_up_dual(e: Iterable[DividedMonomial]) -> DualElement:
    """Orderwise j -> 2j+1, the dual of the Kameko down map."""
    return dual_element(tuple(2 * j + 1 for j in m) for m in e)


__all__ = [
    "DividedMonomial",
    "DualElement",
    "dual_element",
    "dual_sq",
    "dual_degree",
    "is_primitive",
    "primitive_basis",
    "pairing",
    "coinvariant_generators",
    "kameko_up_dual",
]
