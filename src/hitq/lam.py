"""Mod-2 lambda algebra: admissible words, normalization, differential, Sq^0.

A word (i_1,...,i_s) stands for the length-s monomial lambda_{i_1}...lambda_{i_s};
it is admissible when 2*i_k >= i_{k+1} for every k.  An element is a frozenset
of words (GF(2) coefficients).  Inadmissible pairs rewrite by

    lambda_i lambda_{2i+1+n} = sum_j binom2(n-1-j, j) lambda_{i+n-j} lambda_{2i+1+j}

and the differential is d(lambda_m) = sum_{j>=1} binom2(m-j, j)
lambda_{m-j} lambda_{j-1}, extended as a derivation over concatenation.
Both read their terms from the rows n - 1 and m of :func:`poly.cartan_splits`.

Homology is read from one elimination per bidegree, held for the last
bidegree asked for: Lambda^{s,n} modulo the boundaries d(Lambda^{s-1,n+1})
and the catalog of named cycles.  `catalog`, `identify_class` and
`classes_equal` all read it.

Literature sources that print words with the mirrored admissibility
convention (i_k <= 2*i_{k+1}) are transcribed here by reversing each word;
`from_display`/`to_display` perform that reversal at the JSON boundary.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain, combinations_with_replacement

from .linalg import EchelonBasis, from_support, xor_terms
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


def admissible_basis(s: int, n: int) -> tuple:
    """All admissible words of length s and degree n, lexicographically sorted."""
    if s < 0 or n < 0:
        raise ValueError(f"length {s} and degree {n} must be non-negative")
    words = [((), n)]  # (prefix, degree left), extended one place at a time
    for slots in range(s, 0, -1):
        # after letter i the other slots - 1 letters carry at most i*(2^slots - 2)
        words = [(w + (i,), rest - i) for w, rest in words
                 for i in range((min(rest, 2 * w[-1]) if w else rest) + 1)
                 if rest - i <= i * ((1 << slots) - 2)]
    return tuple(w for w, rest in words if not rest)


def _bidegree(e: Element) -> tuple:
    """(length, degree) of a homogeneous element; error when mixed."""
    pairs = {(len(w), sum(w)) for w in e}
    if len(pairs) != 1:
        raise ValueError("element is not homogeneous in (length, degree)")
    return pairs.pop()


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


def _candidates(s: int, n: int) -> list:
    """(name, element) catalog candidates at (s, n), in catalog order."""
    out = [(_h_name(letters), frozenset({letters})) for letters in _h_multisets(s, n)]
    specials = [(f"{family}_{t}", _theta_pow(elem, t))
                for family, elem in (("c", frozenset({_C0})), ("e", _E0))
                for t in range(n.bit_length())]
    for name, elem in specials:
        length, d = _bidegree(elem)
        if s - length < 0 or d > n:
            continue
        for letters in _h_multisets(s - length, n - d):
            if letters:
                out.append((_h_name(letters) + name, multiply(elem, [letters])))
            else:
                out.append((name, elem))
    return out


@lru_cache(maxsize=1)
def _homology(s: int, n: int) -> tuple:
    """The one elimination of Lambda^{s,n} modulo its boundaries.

    Returns (index, echelon, sources, entries).  index maps the admissible
    words of (s, n) to bits.  Target k enters the echelon as ``v << size |
    1 << k``, as in :func:`linalg.solve_combination`: first d(w) for the k-th
    admissible source word w of (s - 1, n + 1), then the normalized catalog
    candidates.  A candidate whose remainder keeps a bit at size or above is
    independent of the boundaries and the earlier candidates; entries maps its
    tag k to (name, cycle).  The independent targets are a basis, so a vector
    ``u << size`` reduces to its unique mask over them.  One entry is held:
    the callers ask for one bidegree back to back.
    """
    index = {w: k for k, w in enumerate(admissible_basis(s, n))}
    sources = admissible_basis(s - 1, n + 1) if s else ()
    candidates = _candidates(s, n)
    size = len(sources) + len(candidates)
    echelon = EchelonBasis(len(index) + size)
    for k, w in enumerate(sources):
        echelon.insert(from_support(map(index.get, differential([w]))) << size | 1 << k)
    entries = {}
    for k, (name, elem) in enumerate(candidates, len(sources)):
        z = normalize(elem)
        if echelon.insert(from_support(map(index.get, z)) << size | 1 << k)[1] >> size:
            entries[k] = (name, z)
    return index, echelon, sources, entries


def _class_mask(z: Element) -> tuple:
    """(mask of z over the independent targets or None outside their span,
    sources, entries) for a nonzero normalized homogeneous z."""
    index, echelon, sources, entries = _homology(*_bidegree(z))
    size = echelon.width - len(index)
    c = echelon.reduce(from_support(map(index.get, z)) << size)
    return (None if c >> size else c), sources, entries


def catalog(s: int, n: int) -> tuple:
    """Named cycle representatives at (length, degree), independent mod boundaries.

    Products of h_i = [lambda_{2^i-1}] with the c- and e-families; candidates
    that are boundaries or dependent on earlier entries are dropped, so the
    coefficients returned by identify_class are unambiguous.
    """
    return tuple(_homology(s, n)[3].values())


def identify_class(z: Iterable[Word]):
    """Express a cycle as a combination of catalog entries modulo boundaries.

    Returns the tuple of contributing names (empty for a boundary), or the
    string "unidentified" when the cycle lies outside the catalog span.
    ValueError when z is not a cycle.
    """
    z = normalize(element(z))
    if not z:
        return ()
    if differential(z):
        raise ValueError("identify_class requires a cycle")
    c, _, entries = _class_mask(z)
    if c is None:
        return "unidentified"
    return tuple(nm for k, (nm, _) in entries.items() if c >> k & 1)


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
    c, sources, _ = _class_mask(u)
    if c is None or c >> len(sources):  # outside the span, or a catalog tag
        return False, None
    return True, element(w for k, w in enumerate(sources) if c >> k & 1)


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
