"""Bit-packed linear algebra over GF(2), and GF(2) sums of term sets.

Vectors are plain Python ints used as bitsets: bit ``c`` is coordinate ``c``
of a universe of size ``width``.  Addition is XOR.  An :class:`EchelonBasis`
holds a streaming row-echelon basis of a subspace; pivots are chosen at the
highest occupied bit position, so the caller controls pivot priority by
laying out coordinates.  Polynomials, dual elements and lambda-algebra
elements are frozensets of terms; :func:`xor_terms` is their one GF(2) sum.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator


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


def support(v: int) -> Iterator[int]:
    """Set coordinates of v, lowest first."""
    out = []
    while v:  # clearing the top bit shrinks v; ``v & -v`` is full width
        b = v.bit_length() - 1
        out.append(b)
        v ^= 1 << b
    return reversed(out)


class EchelonBasis:
    """Streaming row-echelon basis of a GF(2) subspace.

    Rows are kept in forward echelon form only (each row's pivot is its
    highest set bit and pivots are distinct); reduced row-echelon form is
    produced on demand by :meth:`rref`.
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

    def member(self, v: int) -> bool:
        """True iff v lies in the row space."""
        return self.reduce(v) == 0

    def rows_by_pivot(self) -> dict[int, int]:
        """Stored forward-echelon rows keyed by pivot."""
        return dict(self._rows)

    def rref(self) -> dict[int, int]:
        """Reduced stored rows keyed by pivot.

        Each returned row is zero at every other pivot.  Processing pivots in
        ascending position keeps already-cleaned rows clean, so one pass
        suffices (a forward-echelon row never contains bits above its own
        pivot).
        """
        rows = self._rows
        clean: dict[int, int] = {}
        for p in sorted(rows):  # ascending: lower pivots are already clean
            body = rows[p] ^ (1 << p)
            fixed = 0
            while body:
                b = body.bit_length() - 1
                row = clean.get(b)
                if row is None:
                    fixed |= 1 << b
                    body ^= 1 << b
                else:
                    body ^= row  # clears b, adds only free bits below b
            clean[p] = (1 << p) | fixed
        return clean


def rank(rows: Iterable[int], width: int) -> int:
    """Rank of a collection of bit-vector rows."""
    eb = EchelonBasis(width)
    for r in rows:
        eb.insert(r)
    return eb.rank


def kernel_basis(rows: Iterable[int], width: int) -> list[int]:
    """Basis of {x : every row r has parity(r & x) = 0}.

    Rows are linear functionals on the width-coordinate space; the kernel has
    dimension width - rank(rows).
    """
    eb = EchelonBasis(width)
    for r in rows:
        eb.insert(r)
    reduced = eb.rref()
    # transpose: free coordinate f -> pivots whose reduced row contains f
    cols: dict[int, list[int]] = {}
    for p, row in reduced.items():
        for f in support(row ^ (1 << p)):
            cols.setdefault(f, []).append(p)
    return [(1 << f) | from_support(cols.get(f, ()))
            for f in range(width) if f not in reduced]


def solve_combination(targets: Iterable[int], rhs: int) -> int | None:
    """Mask c with XOR of targets[k] over set bits k of c equal to rhs, or None.

    Elimination tracks which inputs built each row, so the returned mask
    selects an actual sub-collection; dependent targets never appear in it.
    """
    rows: dict[int, tuple[int, int]] = {}
    for k, v in enumerate(targets):
        c = 1 << k
        while v:
            p = v.bit_length() - 1
            if p in rows:
                rv, rc = rows[p]
                v ^= rv
                c ^= rc
            else:
                rows[p] = (v, c)
                break
    v, c = rhs, 0
    while v:
        p = v.bit_length() - 1
        if p not in rows:
            return None
        rv, rc = rows[p]
        v ^= rv
        c ^= rc
    return c


__all__ = [
    "EchelonBasis",
    "xor_terms",
    "from_support",
    "support",
    "rank",
    "kernel_basis",
    "solve_combination",
]
