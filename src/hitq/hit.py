"""Hit subspaces Abar(P_q)_n, admissible bases of Q^q_n and its weight blocks, Kameko kernel.

Degree-n monomials, sorted ascending in the weight-then-exponent order, are
the coordinates of one big GF(2) elimination; the greatest monomial of a hit
element is its pivot, and the non-pivot monomials represent the quotient
basis.  The elimination is seeded by one rule: every monomial whose weight
is below the minimal spike's weight is hit (Singer's criterion), and where
no spike exists (mu(n) > q) every monomial is hit (Wood), the same rule with
nothing left above the floor.  The coordinates are weight blocks in
ascending weight, each block's monomials left-lex, so those monomials are a
prefix [0, low) of the coordinates, and they are never stored: the
elimination is a plain echelon over the kept coordinates [low, width),
coordinate c at bit c - low, onto which the Sq^{2^i} generator stream is
projected, and a :class:`QuotientBasis` carries low.

Only the block table (omega, start, end) is computed for every weight, its
sizes prod_j C(q, omega_j) by binomials; monomials are listed only for the
blocks from low up (:func:`kept_monomials`), once per quotient, which holds
them and builds its own monomial index: the unit block is never enumerated,
and nothing is memoized across quotients.  A term below low is hit, and
:meth:`QuotientBasis.reduce_vec` drops it.

The stream is built from the kept coordinates, not from the sources.  A
Cartan term of Sq^t(m) adds a submask t_j of each exponent m_j, so a kept
monomial u lies in Sq^{2^i}(m) exactly when m_j = u_j - t_j with
binom2(u_j - t_j, t_j) odd and sum t_j = 2^i: the rows u_j of
:func:`poly.cartan_splits`, which :mod:`dual` and :mod:`lam` read too.
Each source (i, m) found this way collects the coordinates of its kept
terms under one int key: i, then the packed weight of m (``poly.weight_key``
with n's bit length, which orders every degree <= n as that degree's own
key does), then m's exponents left-lexicographically, the coordinate order
of degree n - 2^i for each i in turn.  A left-lex run of u shares the
splits of all but its last two places, and the last place is a lookup of
2^i - t.  The kept coordinates are walked from the top down, so the first
u to reach a source is its top: the vectors are the plain Sq^{2^i}(m) images projected, shifted, zeros dropped and stably sorted by
pivot, so one whose top is no pivot yet is stored unreduced.  Each is built
as it is yielded, and no source-degree universe is built.

One type, :class:`QuotientBasis`, serves Q^q_n and its weight blocks
(Q^q_n)^omega.  It holds no echelon, only its pivots and a normal-form
table: pivot p -> [e_p] over the admissible basis, the free part of its
reduced row, at most dim bits, built from forward rows by
:func:`linalg.normal_forms`: a fresh basis on first use, the loader as it
reads.  Reducing a polynomial is a XOR of lookups.

Each Q^q_n is cached on disk as one atomically written file,
``hit-q{q}-n{n}-v4.rows``: a JSON header line (q, n, version, width, low,
rank, dim and the CRC-32 of the payload, every field checked on load), then
the zlib-compressed payload, one line per stored echelon row by ascending
pivot, its coordinates shifted down by low: the pivot's step up from the
previous pivot (-1 before the first), then the steps down through the row
(after pivot 7, the row [9, 5, 2] is ``2 4 3``).  The unit block is not
written; the loader derives low from (q, n) and streams the rows into
:func:`linalg.normal_forms` as pivot-first lists, never as width-sized ints.
A file that fails any check on load is a cache miss, and so is a file of an
older layout: the basis is rebuilt and the file rewritten (a v3 file beside
it is deleted; an unwritable cache costs the file, not the result).  The
CRC guards against truncation and bit flips, not tampering.  No quotient is
kept in memory, so a sweep holds neither a degree's basis nor its
coordinates past its job: a function that works on one takes it rather than
fetch it again.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import zlib
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from operator import itemgetter, sub
from pathlib import Path

from . import linalg, poly
from .poly import Polynomial, WeightVector

CACHE_VERSION = 4


# --- cache ------------------------------------------------------------------

def cache_dir() -> Path:
    return Path(os.environ.get("HITQ_CACHE") or Path.home() / ".cache" / "hitq")


def _cache_path(q: int, n: int) -> Path:
    return cache_dir() / f"hit-q{q}-n{n}-v{CACHE_VERSION}.rows"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# --- hit subspace ------------------------------------------------------------

@lru_cache(maxsize=None)
def _blocks(q: int, n: int) -> tuple:
    """The degree-n coordinates as weight blocks (omega, start, end), ascending."""
    out = []
    start = 0
    for omega in poly.weight_vectors(q, n):
        end = start + poly.block_size(q, omega)
        out.append((omega, start, end))
        start = end
    return tuple(out)


def _width(q: int, n: int) -> int:
    return _blocks(q, n)[-1][2]


def _block(q: int, n: int, omega: WeightVector) -> tuple:
    """(start, end) of the weight-omega coordinates; empty if none has it."""
    blocks = _blocks(q, n)
    k = bisect_left(blocks, omega, key=itemgetter(0))
    if k < len(blocks) and blocks[k][0] == omega:
        return blocks[k][1:]
    return 0, 0


def _low(q: int, n: int) -> int:
    """The unit block: the number of degree-n monomials below the minimal
    spike's weight, or all of them when there is no spike (mu(n) > q)."""
    spike = poly.minimal_spike(q, n)
    if spike is None:
        return _width(q, n)
    return _block(q, n, poly.weight_of(spike))[0]


def _kept_range(start: int, end: int, low: int) -> range:
    """The coordinates of [start, end) from low up, shifted down by low."""
    return range(max(start, low) - low, max(end, low) - low)


def kept_monomials(q: int, n: int, low: int) -> tuple:
    """The monomials at the coordinates [low, width); low starts a block.
    Listed anew on each call: a quotient holds its own (``monomials``)."""
    return tuple(chain.from_iterable(
        poly.block_monomials(q, omega)
        for omega, start, _ in _blocks(q, n) if start >= low))


def _generator_stream(q: int, n: int, kept: tuple):
    """Nonzero vectors Sq^{2^i}(m), 2^i <= n, m of degree n - 2^i, projected
    onto the kept coordinates kept = kept_monomials(q, n, low) and shifted
    down by low.  By ascending top coordinate, then i, then m's coordinate in
    degree n - 2^i; built from the kept coordinates and the Cartan splits of
    :func:`poly.cartan_splits` (see the module docstring).
    """
    top = n.bit_length()
    lex = (n + 1) ** q
    wkey = poly.weight_key(q, n)  # on one exponent: its packed weight digits
    # per place j and exponent a: (t_j, key share of m_j = a - t_j) for every
    # Cartan split of a, after a neutral place so that q = 1 has a
    # second-to-last one
    *head, mid, last = [((0, 0),)], *(
        [[(t, wkey((m,)) * lex + m * (n + 1) ** (q - 1 - j)) for t, m in pairs]
         for pairs in map(poly.cartan_splits, range(n + 1))] for j in range(q))
    last = [dict(shares) for shares in last]  # a -> {t_last: share}
    tmax = 1 << top >> 1  # the largest 2^i <= n
    per_i = (q + 1) ** top * lex  # weight keys stay below (q+1)^top
    # per partial sum t: (2^i - t, key share of i) for every 2^i >= t
    powers = [[((1 << i) - t, i * per_i) for i in range(top) if 1 << i >= t]
              for t in range(tmax + 1)]
    sources, run = {}, None  # source key -> its coordinates, descending
    for c in reversed(range(len(kept))):
        *prefix, a, b = 0, *kept[c]
        if prefix != run:  # a left-lex run: the same places before the last two
            run, splits = prefix, [(0, 0)]  # (t so far, key so far)
            for table, e in zip(head, prefix):
                splits = [(t + s, key + share) for t, key in splits
                          for s, share in table[e] if t + s <= tmax]
        tail, fresh = last[b], []
        for t, key in [(t + s, key + share) for t, key in splits
                       for s, share in mid[a] if t + s <= tmax]:
            for rest, i_share in powers[t]:
                share = tail.get(rest)
                if share is not None:
                    source = key + share + i_share
                    support = sources.get(source)
                    if support is None:
                        fresh.append(source)
                    else:
                        support.append(c)
        fresh.sort(reverse=True)  # so that popitem drains them ascending
        for key in fresh:  # [c] would take 8 slots at its second append, not 4
            sources.setdefault(key, []).append(c)
    while sources:
        yield linalg.from_support(sources.popitem()[1])


def hit_subspace(q: int, n: int) -> QuotientBasis:
    """Q^q_n from a fresh elimination of the Sq^{2^i} images in degree n, whose
    span is Abar(P_q)_n; reads and writes no cache."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    low = _low(q, n)
    kept = kept_monomials(q, n, low)
    basis = linalg.EchelonBasis(len(kept))
    for v in _generator_stream(q, n, kept):
        basis.insert(v)
    by_pivot = basis.rows_by_pivot()
    del basis  # each int row is freed as its coordinate list is made
    rows = [linalg.support(by_pivot.pop(p)) for p in sorted(by_pivot)]
    return QuotientBasis(q, n, low, kept, range(len(kept)), [r[0] for r in rows], rows)


# --- quotient -----------------------------------------------------------------

class QuotientBasis:
    """Q^q_n, or its weight block (Q^q_n)^omega, over admissible monomials.

    The coordinates [0, low) are hit; ``monomials`` are Q^q_n's kept ones and
    ``coords`` the space's, shifted down by low.  ``pivots`` lead its
    relations, ascending; the other coords c are admissible, at position
    c - coords.start - (pivots below c).  A fresh basis holds ``rows``, the
    forward rows by ascending pivot, pivot-first coordinate lists, until it
    builds :attr:`table` from them.  ``omega`` is None for the whole quotient.
    """

    def __init__(self, q: int, n: int, low: int, monomials: tuple, coords: range,
                 pivots: list, rows=None, omega=None, table=None):
        self.q, self.n, self.low, self.omega = q, n, low, omega
        self.monomials, self.coords, self.pivots = monomials, coords, pivots
        # the gaps between consecutive pivots, which lie inside coords
        self.admissible = tuple(chain.from_iterable(
            monomials[a + 1:b] for a, b in zip(chain((coords.start - 1,), pivots),
                                               chain(pivots, (coords.stop,)))))
        self._rows, self._table = rows, table

    @property
    def dim(self) -> int:
        return len(self.admissible)

    @property
    def table(self) -> dict:
        """Pivot p -> [e_p] over the admissible basis, the free part of p's
        reduced row: at most dim bits."""
        if self._table is None:
            self._table = linalg.normal_forms(self._rows, len(self.coords))[0]
            self._rows = None
        return self._table

    @cached_property
    def _index(self) -> dict:
        """Monomial -> kept coordinate, over this space's coordinates."""
        return {self.monomials[c]: c for c in self.coords}

    def reduce_vec(self, f: Polynomial) -> int:
        """Coordinates of [f] over the admissible basis; zero iff f is a relation.

        A term below low is hit and dies; a term that is not a degree-n
        monomial in q variables raises.  In a weight block, lower-weight terms
        die and higher ones raise.
        """
        q, n, omega, idx = self.q, self.n, self.omega, self._index
        table, pivots, start = self.table, self.pivots, self.coords.start
        v = 0
        for m in f:
            k = idx.get(m)
            if k is None and (len(m) != q or sum(m) != n or min(m, default=0) < 0):
                raise ValueError(
                    f"term {m} is not a degree-{n} monomial in {q} variables")
            if omega is not None:
                w = poly.weight_of(m)
                if w > omega:
                    raise ValueError(f"term {m} has weight above {omega}")
                if w < omega:
                    continue
            if k is not None:
                r = table.get(k)
                v ^= r if r is not None else 1 << (k - start - bisect_left(pivots, k))
        return v

    def poly_of_vec(self, w: int) -> Polynomial:
        return frozenset(self.admissible[k] for k in linalg.support(w))


def quotient_basis(q: int, n: int) -> QuotientBasis:
    """Q^q_n from its cache file, or from a fresh elimination that writes the
    file; nothing is kept in memory, so each call reads or builds anew."""
    qb = cached_quotient(q, n)
    if qb is None:
        qb = hit_subspace(q, n)
        try:
            _save_cached(qb)
        except OSError as exc:
            print(f"hitq: cache file {_cache_path(q, n)} not written: {exc}",
                  file=sys.stderr)
    return qb


def _save_cached(qb: QuotientBasis) -> None:
    """Write a fresh Q^q_n, whose rows are still held (its table is unbuilt),
    and delete the degree's v3 file, which no loader reads."""
    lines = []
    for row, top in zip(qb._rows, [-1, *qb.pivots]):  # top: the previous pivot
        lines.append(" ".join(map(str, (row[0] - top, *map(sub, row, row[1:])))))
    payload = zlib.compress("\n".join(lines).encode())
    meta = {"q": qb.q, "n": qb.n, "version": CACHE_VERSION,
            "width": qb.low + len(qb.coords), "low": qb.low,
            "rank": qb.low + len(qb.pivots), "dim": qb.dim,
            "crc32": zlib.crc32(payload)}
    header = json.dumps(meta, sort_keys=True).encode()
    path = _cache_path(qb.q, qb.n)
    _atomic_write(path, header + b"\n" + payload)
    path.with_name(f"hit-q{qb.q}-n{qb.n}-v3.rows").unlink(missing_ok=True)


def _decode_rows(text: bytes):
    """The coordinate lists, pivot first, of a payload's decompressed lines."""
    top = -1
    for line in text.splitlines():
        step, *down = map(int, line.split())
        top += step
        yield list(accumulate(down, sub, initial=top))


def cached_quotient(q: int, n: int) -> QuotientBasis | None:
    """Q^q_n from its cache file, or None when the file is missing or fails a
    check; writes nothing."""
    width = _width(q, n)
    try:
        head, _, payload = _cache_path(q, n).read_bytes().partition(b"\n")
        meta = json.loads(head)
        checked = [meta[k] for k in ("version", "q", "n", "width", "crc32")]
        if checked != [CACHE_VERSION, q, n, width, zlib.crc32(payload)]:
            return None
        low = _low(q, n)
        table, pivots = linalg.normal_forms(
            _decode_rows(zlib.decompress(payload)), width - low)
        rank = low + len(pivots)
        if [meta["low"], meta["rank"], meta["dim"]] != [low, rank, width - rank]:
            return None
        return QuotientBasis(q, n, low, kept_monomials(q, n, low),
                             range(width - low), pivots, table=table)
    except (OSError, ValueError, KeyError, TypeError, zlib.error):
        return None


# --- weight filtration ----------------------------------------------------------

def weight_quotient(qb: QuotientBasis, omega: WeightVector) -> QuotientBasis:
    """The weight block (Q^q_n)^omega of the quotient qb = Q^q_n.

    Its relations are the rows with a weight-omega pivot, projected to the
    block: lower weights lie below it and project away.  A reduced row's bits
    lie below its pivot, so the block's table is the whole table on the
    block's pivots, with the admissible positions below the block shifted out.
    """
    omega = tuple(omega)
    while omega and omega[-1] == 0:  # a weight vector has no trailing zeros
        omega = omega[:-1]
    if min(omega, default=0) < 0:
        raise ValueError(f"weight vector {omega} has a negative entry")
    if poly.weight_degree(omega) != qb.n:
        raise ValueError(f"deg{omega} != {qb.n}")
    start, end = _block(qb.q, qb.n, omega)
    # a block below the spike's weight is all hit: it keeps nothing, dim 0
    coords = _kept_range(start, end, qb.low)
    lo = bisect_left(qb.pivots, coords.start)
    pivots = qb.pivots[lo:bisect_left(qb.pivots, coords.stop)]
    table, below = qb.table, coords.start - lo  # admissible positions below
    return QuotientBasis(qb.q, qb.n, qb.low, qb.monomials, coords, pivots,
                         omega=omega, table={p: table[p] >> below for p in pivots})


def weight_dimensions(qb: QuotientBasis) -> dict:
    """dim (Q^q_n)^omega for every realized omega, from the pivot weights.

    A block's dim is its kept size less the pivots inside it; blocks below
    low have dim 0.
    """
    pivots, out = qb.pivots, {}
    for omega, start, end in _blocks(qb.q, qb.n):
        kept = _kept_range(start, end, qb.low)
        out[omega] = len(kept) - (bisect_left(pivots, kept.stop)
                                  - bisect_left(pivots, kept.start))
    return out


# --- Kameko kernel ----------------------------------------------------------------

def _kameko_degree(q: int, n: int) -> int:
    """(n - q)/2, the degree of the Kameko down map's target from Q^q_n."""
    if (n - q) % 2 or n < q:
        raise ValueError(f"Kameko down map undefined at (q={q}, n={n})")
    return (n - q) // 2


def _kameko_images(src: QuotientBasis) -> list:
    """The columns of the Kameko down map src = Q^q_n -> Q^q_{(n-q)/2},
    x_i^{2a_i+1} -> x_i^{a_i}, one per admissible monomial of Q^q_n."""
    tgt = quotient_basis(src.q, _kameko_degree(src.q, src.n))
    images = (poly.kameko_down(m) for m in src.admissible)
    return [0 if d is None else tgt.reduce_vec(frozenset({d})) for d in images]


def kameko_kernel(q: int, n: int) -> list:
    """Basis of Ker(Q^q_n -> Q^q_{(n-q)/2}), as admissible coordinate vectors."""
    _kameko_degree(q, n)  # so that a bad degree fetches no quotient
    src = quotient_basis(q, n)
    return linalg.kernel_basis(_kameko_images(src))


__all__ = [
    "QuotientBasis",
    "cache_dir",
    "kept_monomials",
    "hit_subspace",
    "cached_quotient",
    "quotient_basis",
    "weight_quotient",
    "weight_dimensions",
    "kameko_kernel",
]
