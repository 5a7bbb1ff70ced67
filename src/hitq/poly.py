"""Monomials and polynomials over GF(2) with the Steenrod square action.

A monomial in q variables is a tuple of q non-negative exponents; a
polynomial is a frozenset of monomials (coefficients are implicitly 1, and
adding a duplicate term cancels it).  Degrees stay small enough that plain
ints suffice everywhere.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import lru_cache
from itertools import chain, combinations, product

from .linalg import rank, xor_terms

Monomial = tuple  # tuple[int, ...]
Polynomial = frozenset  # frozenset[Monomial]
WeightVector = tuple  # tuple[int, ...]


def alpha(n: int) -> int:
    """Number of ones in the binary expansion of n."""
    if n < 0:
        raise ValueError(f"alpha({n}): n must be non-negative")
    return n.bit_count()


def mu(n: int) -> int:
    """Smallest m with alpha(n + m) <= m."""
    if n < 0:
        raise ValueError(f"mu({n}): n must be non-negative")
    m = 0
    while alpha(n + m) > m:
        m += 1
    return m


def binom2(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) mod 2 (Lucas); 0 outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return 0 if (a - b) & b else 1


@lru_cache(maxsize=None)
def cartan_splits(j: int) -> tuple:
    """The pairs (t, j - t) with binom2(j - t, t) odd, ascending in t; () when j < 0.

    Sq^t x^(j-t) has the term x^j, and dually the order j drops by t under
    Sq^t.  This is the one statement of the Cartan rule: the hit stream, the
    right action in :mod:`dual` and both rules of :mod:`lam` read it.
    """
    return tuple((t, j - t) for t in range(j // 2 + 1) if binom2(j - t, t))


def _checked(m: Monomial) -> Monomial:
    """m as a tuple; ValueError on a negative exponent."""
    m = tuple(m)
    if min(m, default=0) < 0:
        raise ValueError(f"monomial {m} has a negative exponent")
    return m


def poly(terms: Iterable[Monomial]) -> Polynomial:
    """Polynomial from terms with GF(2) cancellation of duplicates."""
    return xor_terms(map(_checked, terms))


def add(*fs: Polynomial) -> Polynomial:
    return xor_terms(chain.from_iterable(fs))


def sq_monomial(t: int, m: Monomial) -> list:
    """Terms of Sq^t applied to a monomial (distinct; no GF(2) cancellation).

    Distributes t over the variables; the per-variable coefficient is
    C(a_i, t_i) mod 2, nonzero iff the bits of t_i lie inside those of a_i.
    """
    partial = [(0, ())]  # (sum of the t_i so far, the exponents so far)
    room = sum(m)  # t_i <= a_i: the most that the places left can add
    for a in m:
        room -= a
        ups = [ti for ti in range(min(a, t) + 1) if ti & a == ti]
        partial = [(s + ti, acc + (a + ti,)) for s, acc in partial
                   for ti in ups if t - room <= s + ti <= t]
    return [acc for s, acc in partial if s == t]


def sq(t: int, f: Polynomial) -> Polynomial:
    """Steenrod square Sq^t on a polynomial (Cartan formula, mod 2)."""
    if t < 0:
        raise ValueError(f"Sq^{t}: t must be non-negative")
    if t == 0:
        return poly(f)
    return xor_terms(r for m in map(_checked, f) for r in sq_monomial(t, m))


def weight_of(m: Monomial) -> WeightVector:
    """Weight vector: entry j counts exponents with bit j set (1-indexed)."""
    m = _checked(m)
    w = [0] * max(m, default=0).bit_length()  # the top entry is nonzero
    for a in m:
        j = 0
        while a:
            if a & 1:
                w[j] += 1
            a >>= 1
            j += 1
    return tuple(w)


def weight_degree(w: WeightVector) -> int:
    """deg(omega) = sum 2^(i-1) * omega_i."""
    return sum(x << i for i, x in enumerate(w))


def weight_key(q: int, n: int):
    """Int sort key on monomials of degree <= n in q variables, ordered as their weights.

    In the hit engine's Sq^{2^i} stream it names a source and orders the
    sources that share a top coordinate.  Bit b of an exponent adds
    (q+1)^(L-1-b), L = n.bit_length(): summed over the q exponents each digit
    is a weight entry (at most q), so the key packs the weight vector with
    omega_1 most significant, and equal keys mean equal weights.
    """
    top = n.bit_length()
    packed = [sum((q + 1) ** (top - 1 - b) for b in range(top) if a >> b & 1)
              for a in range(n + 1)]
    return lambda m: sum(map(packed.__getitem__, m))


def weight_vectors(q: int, n: int) -> list:
    """The weight vectors of the degree-n monomials in q variables, ascending.

    Those are the omega with deg(omega) = n, every entry at most q and the
    last one nonzero; entry j is fixed mod 2 by what the lower entries leave.
    """
    if q < 1 or n < 0:
        raise ValueError(f"weight_vectors({q}, {n}): need q >= 1 and n >= 0")
    out: list = []

    def walk(rest: int, acc: list):
        if rest == 0:
            out.append(tuple(acc))
            return
        for w in range(rest & 1, min(q, rest) + 1, 2):
            acc.append(w)
            walk((rest - w) >> 1, acc)
            acc.pop()

    # ascending choices give ascending vectors: no weight vector of degree n
    # is a prefix of another
    walk(n, [])
    return out


def block_size(q: int, omega: WeightVector) -> int:
    """Number of monomials of weight omega in q variables: prod_j C(q, omega_j)."""
    return math.prod(math.comb(q, w) for w in omega)


def block_monomials(q: int, omega: WeightVector) -> list:
    """The monomials of weight omega in q variables, ascending left-lex.

    Bit j of the exponents is set on some omega_j of the q variables.  A
    monomial is built as one int whose base-(n+1) digit i is exponent i,
    digit 0 most significant, so the int order is the left-lex order.
    """
    base = weight_degree(omega) + 1
    places = [base ** (q - 1 - i) for i in range(q)]
    codes = [0]
    for j, w in enumerate(omega):
        shares = [sum(c) << j for c in combinations(places, w)]
        codes = [c + s for c in codes for s in shares]
    codes.sort()
    return list(zip(*[[c // p % base for c in codes] for p in places]))


@lru_cache(maxsize=None)
def monomials(q: int, n: int) -> tuple:
    """All degree-n monomials in q variables, ascending in the monomial order."""
    return tuple(chain.from_iterable(
        block_monomials(q, omega) for omega in weight_vectors(q, n)))


def minimal_spike(q: int, n: int):
    """The minimal spike of degree n in q variables, or None when mu(n) > q.

    With m = mu(n), take the binary powers of n + m and halve the smallest
    until there are m of them; the exponents are 2^d - 1 for those powers 2^d,
    so d_1 > ... > d_{m-1} >= d_m.  Descending, padded with zeros.
    """
    m = mu(n)
    if m > q:
        return None
    total = n + m
    powers = [1 << b for b in reversed(range(total.bit_length())) if total >> b & 1]
    while len(powers) < m:
        half = powers.pop() >> 1
        powers += [half, half]
    return tuple(p - 1 for p in powers) + (0,) * (q - m)


@lru_cache(maxsize=256)
def _substitution_targets(g: tuple) -> tuple:
    """Per row i of g, the j with g[i][j] odd; ValueError unless g is
    square and invertible over GF(2).  Cached, so a matrix is checked once."""
    if any(len(row) != len(g) for row in g):
        raise ValueError(f"substitution matrix of {len(g)} rows of lengths "
                         f"{[len(row) for row in g]} is not square")
    rows = [sum((int(x) & 1) << j for j, x in enumerate(row)) for row in g]
    if rank(rows, len(g)) != len(g):
        raise ValueError("substitution matrix is singular")
    return tuple(tuple(j for j in range(len(g)) if r >> j & 1) for r in rows)


def linear_substitute(g, f: Polynomial) -> Polynomial:
    """Apply the algebra map x_i -> sum_j g[i][j] x_j to f (g invertible).

    x_i^a goes whole to x_j when row i has the one odd entry j.  Otherwise
    each binary bit 2^b of a goes to one of the row's targets, by Frobenius
    (sum_j x_j)^a = prod_b (sum_j x_j^{2^b}).  Choices for different rows
    can meet on one term, so the terms are summed mod 2 at the end.
    """
    targets_of = _substitution_targets(tuple(map(tuple, g)))
    q = len(targets_of)
    out: list = []
    for mon in f:
        if len(mon) != q or min(mon, default=0) < 0:
            raise ValueError(f"monomial {mon} is not {q} non-negative exponents")
        whole, bits = [0] * q, []  # bits: per bit, its (target, 2^b) choices
        for a, targets in zip(mon, targets_of):
            if len(targets) == 1:
                whole[targets[0]] += a
            else:
                bits += [[(j, 1 << b) for j in targets]
                         for b in range(a.bit_length()) if a >> b & 1]
        for choice in product(*bits):
            t = whole.copy()
            for j, piece in choice:
                t[j] += piece
            out.append(tuple(t))
    return xor_terms(out)


def kameko_down(m: Monomial):
    """Exponentwise 2a + 1 -> a on all-odd monomials, None otherwise."""
    if any(a % 2 == 0 for a in _checked(m)):
        return None
    return tuple((a - 1) // 2 for a in m)


__all__ = [
    "Monomial",
    "Polynomial",
    "WeightVector",
    "alpha",
    "mu",
    "binom2",
    "cartan_splits",
    "poly",
    "add",
    "sq",
    "sq_monomial",
    "weight_of",
    "weight_degree",
    "weight_key",
    "weight_vectors",
    "block_size",
    "block_monomials",
    "monomials",
    "minimal_spike",
    "linear_substitute",
    "kameko_down",
]
