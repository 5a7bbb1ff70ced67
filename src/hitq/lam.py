"""Mod-2 lambda algebra: admissible words, normalization, differential, Sq^0.

A word (i_1,...,i_s) stands for the length-s monomial lambda_{i_1}...lambda_{i_s};
it is admissible when 2*i_k >= i_{k+1} for every k.  An element is a frozenset
of words (GF(2) coefficients).  Inadmissible pairs rewrite by

    lambda_i lambda_{2i+1+n} = sum_j binom2(n-1-j, j) lambda_{i+n-j} lambda_{2i+1+j}

and the differential is d(lambda_m) = sum_{j>=1} binom2(m-j, j)
lambda_{m-j} lambda_{j-1}, extended as a derivation over concatenation.
Both read their terms from the rows n - 1 and m of :func:`poly.cartan_splits`.

Literature sources that print words with the mirrored admissibility
convention (i_k <= 2*i_{k+1}) are transcribed here by reversing each word;
`from_display`/`to_display` perform that reversal at the JSON boundary.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain, combinations_with_replacement

from .linalg import EchelonBasis, solve_combination, xor_terms
from .poly import cartan_splits

Word = tuple  # tuple[int, ...]
Element = frozenset  # frozenset[Word]

ZERO: Element = frozenset()


def _words(e: Iterable[Word]) -> list:
    """The words of e as tuples; ValueError on a negative letter."""
    words = [tuple(w) for w in e]
    for w in words:
        if min(w, default=0) < 0:
            raise ValueError(f"lambda word {w} has a negative letter")
    return words


def element(words: Iterable[Word]) -> Element:
    """Element from words with GF(2) cancellation of duplicates."""
    return xor_terms(_words(words))


def add(*es: Element) -> Element:
    return xor_terms(chain.from_iterable(es))


@lru_cache(maxsize=None)
def _pair_rewrite(i: int, j: int) -> tuple:
    """Admissible expansion of lambda_i lambda_j, j >= 2i + 1; () at j = 2i + 1."""
    return tuple((i + 1 + a, 2 * i + 1 + t) for t, a in cartan_splits(j - 2 * i - 2))


def normalize(e: Iterable[Word]) -> Element:
    """Admissible normal form, rewriting the leftmost inadmissible pair."""
    return _normal_form(_words(e))


def _normal_form(pending: list) -> Element:
    """normalize on checked words or their rewrites; consumes the list."""
    out: list = []
    while pending:
        w = pending.pop()
        for k in range(len(w) - 1):
            if 2 * w[k] < w[k + 1]:
                head, tail = w[:k], w[k + 2 :]
                for a, b in _pair_rewrite(w[k], w[k + 1]):
                    pending.append(head + (a, b) + tail)
                break
        else:
            out.append(w)
    return xor_terms(out)


def multiply(e1: Iterable[Word], e2: Iterable[Word]) -> Element:
    """Concatenation product followed by normalization."""
    e2 = _words(e2)  # once, not once per word of e1
    return _normal_form([w1 + w2 for w1 in _words(e1) for w2 in e2])


@lru_cache(maxsize=None)
def _d_letter(m: int) -> tuple:
    """Two-letter terms of d(lambda_m)."""
    return tuple((a, t - 1) for t, a in cartan_splits(m) if t)


def _d_word(w: Word) -> list:
    """Leibniz expansion of d on a single (possibly inadmissible) word."""
    out = []
    for k, m in enumerate(w):
        head, tail = w[:k], w[k + 1 :]
        for a, b in _d_letter(m):
            out.append(head + (a, b) + tail)
    return out


def differential(e: Iterable[Word]) -> Element:
    """d extended as a derivation; output normalized."""
    raw: list = []
    for w in _words(e):
        raw.extend(_d_word(w))
    return _normal_form(raw)


def theta(e: Iterable[Word]) -> Element:
    """The endomorphism lambda_n -> lambda_{2n+1}, applied letterwise."""
    return _normal_form([tuple(2 * i + 1 for i in w) for w in _words(e)])


@lru_cache(maxsize=None)
def admissible_basis(s: int, n: int) -> tuple:
    """All admissible words of length s and degree n, lexicographically sorted."""
    if s < 0 or n < 0:
        raise ValueError(f"length {s} and degree {n} must be non-negative")
    if s == 0:
        return ((),) if n == 0 else ()
    out = []

    def extend(prefix: list, rest: int):
        slots = s - len(prefix)
        if slots == 0:
            if rest == 0:
                out.append(tuple(prefix))
            return
        cap = rest if not prefix else min(rest, 2 * prefix[-1])
        for i in range(cap + 1):
            # the tail after letter i can carry at most i*(2^slots - 2) more
            if rest - i > i * ((1 << slots) - 2):
                continue
            prefix.append(i)
            extend(prefix, rest - i)
            prefix.pop()

    extend([], n)  # ascending letters at each place: lexicographic order
    return tuple(out)


@lru_cache(maxsize=None)
def _index_map(s: int, n: int) -> dict:
    return {w: k for k, w in enumerate(admissible_basis(s, n))}


def _vectorize(e: Element, s: int, n: int) -> int:
    idx = _index_map(s, n)
    v = 0
    for w in e:
        v ^= 1 << idx[w]
    return v


def _bidegree(e: Element) -> tuple:
    """(length, degree) of a homogeneous element; error when mixed."""
    pairs = {(len(w), sum(w)) for w in e}
    if len(pairs) != 1:
        raise ValueError("element is not homogeneous in (length, degree)")
    return pairs.pop()


@lru_cache(maxsize=None)
def _boundaries(s: int, n: int) -> tuple:
    """(vector, source word) pairs spanning d(Lambda^{s-1, n+1}) inside (s, n)."""
    if s == 0:
        return ()
    out = []
    for w in admissible_basis(s - 1, n + 1):
        v = _vectorize(differential([w]), s, n)
        if v:
            out.append((v, w))
    return tuple(out)


def classes_equal(z1: Iterable[Word], z2: Iterable[Word]):
    """Homology-class equality for two cycles; witness chain when equal.

    Returns (True, w) with differential(w) = normalize(z1 + z2) (w = 0 when the
    cycles agree on the nose), or (False, None).
    """
    z1, z2 = element(z1), element(z2)
    for z in (z1, z2):
        if z and differential(z):
            raise ValueError("classes_equal requires cycle inputs")
    u = normalize(add(z1, z2))
    if not u:
        return True, ZERO
    s, n = _bidegree(u)
    bnd = _boundaries(s, n)
    sol = solve_combination([v for v, _ in bnd], _vectorize(u, s, n))
    if sol is None:
        return False, None
    return True, element(w for k, (_, w) in enumerate(bnd) if (sol >> k) & 1)


# --- catalog of Ext representatives ---------------------------------------

_C0: Word = (2, 3, 3)
_E0: Element = frozenset(
    {(8, 3, 3, 3), (4, 5, 5, 3), (4, 7, 3, 3), (2, 3, 5, 7), (6, 5, 3, 3)}
)


def _theta_pow(e: Element, t: int) -> Element:
    for _ in range(t):
        e = theta(e)
    return e


def _h_multisets(slots: int, total: int):
    """Weakly descending tuples of 2^e - 1 letters with the given sum."""
    letters = [(1 << e) - 1 for e in reversed(range(total.bit_length() + 1))]
    return [c for c in combinations_with_replacement(letters, slots) if sum(c) == total]


def _h_name(letters: Word) -> str:
    idx = sorted((v + 1).bit_length() - 1 for v in letters)
    parts = []
    for i in sorted(set(idx)):
        k = idx.count(i)
        parts.append(f"h_{i}" if k == 1 else f"h_{i}^{k}")
    return "".join(parts)


@lru_cache(maxsize=None)
def catalog(s: int, n: int) -> tuple:
    """Named cycle representatives at (length, degree), independent mod boundaries.

    Products of h_i = [lambda_{2^i-1}] with the c- and e-families; candidates
    that are boundaries or dependent on earlier entries are dropped, so the
    coefficients returned by identify_class are unambiguous.
    """
    candidates: list = []
    for letters in _h_multisets(s, n):
        candidates.append((_h_name(letters), frozenset({letters})))
    specials = [(f"c_{t}", _theta_pow(frozenset({_C0}), t))
                for t in range(n.bit_length()) if 11 * (1 << t) - 3 <= n]
    specials += [(f"e_{t}", _theta_pow(_E0, t))
                 for t in range(n.bit_length()) if 21 * (1 << t) - 4 <= n]
    for name, elem in specials:
        length, d = _bidegree(elem)
        if s - length < 0 or d > n:
            continue
        for letters in _h_multisets(s - length, n - d):
            if letters:
                candidates.append((_h_name(letters) + name, multiply(elem, [letters])))
            else:
                candidates.append((name, elem))
    span = EchelonBasis(len(admissible_basis(s, n)))
    for v, _ in _boundaries(s, n):
        span.insert(v)
    out = []
    for name, elem in candidates:
        z = normalize(elem)
        if z and span.insert(_vectorize(z, s, n))[0]:
            out.append((name, z))
    return tuple(out)


def identify_class(z: Iterable[Word]):
    """Express a cycle as a combination of catalog entries modulo boundaries.

    Returns the tuple of contributing names (empty for a boundary), or the
    string "unidentified" when the cycle lies outside the catalog span.
    """
    z = normalize(element(z))
    if not z:
        return ()
    s, n = _bidegree(z)
    entries = catalog(s, n)
    bnd = [v for v, _ in _boundaries(s, n)]
    targets = [_vectorize(el, s, n) for _, el in entries] + bnd
    sol = solve_combination(targets, _vectorize(z, s, n))
    if sol is None:
        return "unidentified"
    return tuple(nm for k, (nm, _) in enumerate(entries) if (sol >> k) & 1)


# --- display-order transcription -------------------------------------------

def from_display(terms: Iterable[Sequence]) -> Element:
    """Element from words written in the mirrored (display) letter order."""
    return element(tuple(reversed(tuple(w))) for w in terms)


def to_display(e: Element) -> list:
    """JSON-ready word list in the mirrored (display) letter order."""
    return sorted([list(reversed(w)) for w in e])


__all__ = [
    "Word",
    "Element",
    "ZERO",
    "element",
    "add",
    "normalize",
    "multiply",
    "differential",
    "theta",
    "admissible_basis",
    "classes_equal",
    "catalog",
    "identify_class",
    "from_display",
    "to_display",
]
