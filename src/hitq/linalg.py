"""Bit-packed linear algebra over GF(2), and GF(2) sums of term sets.

Vectors are plain Python ints used as bitsets: bit ``c`` is coordinate ``c``
of a universe of size ``width``.  Addition is XOR.  ``EchelonBasis.insert``
is the one elimination, its pivot the highest occupied bit, so the caller
sets pivot priority by laying out coordinates.  :func:`normal_forms` builds
every normal-form table from forward rows, pivot-first coordinate lists as
:func:`support` gives them, and is their one check; :func:`transpose`, the
one transposition, returns index lists.  Polynomials,
dual elements and lambda-algebra elements are frozensets of terms;
:func:`xor_terms` is their one GF(2) sum.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Hashable, Iterable


def xor_terms(terms: Iterable[Hashable]) -> frozenset:
    """GF(2) sum of terms: those occurring an odd number of times."""
    out: set = set()
    for t in terms:
        if t in out:
            out.discard(t)
        else:
            out.add(t)
    return frozenset(out)


def from_support(coords: Iterable[int]) -> int:
    """Bit vector with ones exactly at the given coordinates."""
    v = 0
    for c in coords:
        v |= 1 << c
    return v


def support(v: int) -> list[int]:
    """Set coordinates of v, highest first."""
    out = []
    while v:  # clearing the top bit shrinks v; ``v & -v`` is full width
        b = v.bit_length() - 1
        out.append(b)
        v ^= 1 << b
    return out


def transpose(vectors: Iterable[int], height: int) -> list:
    """The height rows of the matrix whose columns are vectors, none with a
    bit at height or above: row r lists, ascending, every c where vectors[c]
    has bit r."""
    rows = [[] for _ in range(height)]
    for c, v in enumerate(vectors):
        while v:  # support(v) inlined: any bit order keeps each row ascending
            r = v.bit_length() - 1
            rows[r].append(c)
            v ^= 1 << r
    return rows


def normal_forms(rows: Iterable[list], width: int) -> tuple:
    """(table, pivots) of forward rows, coordinate lists by ascending pivot:
    a row's pivot p is its first coordinate, and table[p] = [e_p] XORs, over
    the row's other coordinates c, c's entry or, for a free c, its bit among
    the free coordinates.  ValueError unless each row is non-empty and
    strictly descends from its pivot to 0 or above, and the pivots strictly
    ascend below width."""
    table, pivots, top = {}, [], -1
    for row in rows:
        p = row[0] if row else -1
        if not top < p < width:
            raise ValueError(f"row {row} has no pivot in ({top}, {width})")
        v, prev = 0, p
        for c in row[1:]:
            if not prev > c >= 0:
                raise ValueError(f"row {row} does not strictly descend to 0")
            prev = c
            r = table.get(c)
            v ^= r if r is not None else 1 << (c - bisect_left(pivots, c))
        table[p], top = v, p
        pivots.append(p)
    return table, pivots


class EchelonBasis:
    """Streaming row-echelon basis of a GF(2) subspace.

    Rows are kept in forward echelon form only (each row's pivot is its
    highest set bit and pivots are distinct); the reduced form is the
    normal-form table built on demand by :meth:`table`.
    """

    def __init__(self, width: int):
        self.width = width
        self._rows: dict[int, int] = {}  # pivot -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        """Pivot coordinates, ascending."""
        return sorted(self._rows)

    def insert(self, v: int) -> tuple[bool, int]:
        """Insert a vector; returns (inserted, remainder).

        ``inserted`` is True when v was independent of the current space (the
        rank grew); ``remainder`` is the reduced row actually stored, or 0
        when v was dependent.
        """
        if v >> self.width:
            raise ValueError("vector exceeds universe width")
        rows = self._rows
        while v:
            p = v.bit_length() - 1
            row = rows.get(p)
            if row is None:
                rows[p] = v
                return True, v
            v ^= row
        return False, 0

    def reduce(self, v: int) -> int:
        """Canonical representative of v modulo the row space.

        Clears every pivot coordinate from v (scanning high positions first);
        the result is supported on non-pivot coordinates only, and is the
        unique such representative of the coset v + rowspace.
        """
        if v >> self.width:
            raise ValueError("vector exceeds universe width")
        rows = self._rows
        done = 0
        while v:
            p = v.bit_length() - 1
            row = rows.get(p)
            if row is None:
                bit = 1 << p
                done |= bit
                v ^= bit
            else:
                v ^= row
        return done

    def rows_by_pivot(self) -> dict[int, int]:
        """Stored forward-echelon rows keyed by pivot."""
        return dict(self._rows)

    def table(self) -> dict[int, int]:
        """Pivot p -> the free part of p's reduced row, bit k for the k-th free
        coordinate: :func:`normal_forms` of the stored rows."""
        return normal_forms((support(self._rows[p]) for p in self.pivots()),
                            self.width)[0]


def rank(rows: Iterable[int], width: int) -> int:
    """Rank of a collection of bit-vector rows."""
    eb = EchelonBasis(width)
    for r in rows:
        eb.insert(r)
    return eb.rank


def kernel_basis(rows: Iterable[int], width: int) -> list[int]:
    """Basis of {x : every row r has parity(r & x) = 0}.

    Rows are linear functionals on the width-coordinate space; the kernel has
    dimension width - rank(rows).  Per free coordinate f, ascending: f plus
    every pivot whose reduced row has f's bit, the table transposed.
    """
    eb = EchelonBasis(width)
    for r in rows:
        eb.insert(r)
    table = eb.table()
    pivots, free = list(table), [c for c in range(width) if c not in table]
    return [(1 << f) | from_support(map(pivots.__getitem__, col))
            for f, col in zip(free, transpose(table.values(), len(free)))]


def solve_combination(targets: Iterable[int], rhs: int) -> int | None:
    """Mask c with XOR of targets[k] over set bits k of c equal to rhs, or None.

    Target k goes into one :class:`EchelonBasis` as ``v << size | 1 << k``: a
    row's low bits record what it sums, and a dependent target k leaves a row
    with pivot k.  So ``rhs << size`` reduces to the unique mask over the
    independent targets, with no bit at size or above iff rhs is in the span.
    """
    targets = list(targets)
    size = len(targets)
    width = max((v.bit_length() for v in targets), default=0)
    if rhs >> width:
        return None
    eb = EchelonBasis(width + size)
    for k, v in enumerate(targets):
        eb.insert(v << size | 1 << k)
    c = eb.reduce(rhs << size)
    return None if c >> size else c


__all__ = [
    "EchelonBasis",
    "xor_terms",
    "from_support",
    "support",
    "transpose",
    "normal_forms",
    "rank",
    "kernel_basis",
    "solve_combination",
]
