"""Hit subspaces Abar(P_q)_n, admissible bases of Q^q_n and its weight blocks, Kameko kernel.

Degree-n monomials, sorted ascending in the weight-then-exponent order, are
the coordinates of one big GF(2) elimination; the greatest monomial of a hit
element is its pivot, and the non-pivot monomials represent the quotient
basis.  Wherever a minimal spike exists the elimination is seeded: every
monomial whose weight is below the minimal spike's weight is certainly hit
(Singer's criterion), so those coordinates enter as singleton pivot rows and
the Sq^{2^i} generator stream is projected onto the surviving coordinates.
Where none exists (mu(n) > q) every monomial is hit (Wood).

One type, :class:`QuotientBasis`, serves Q^q_n and its weight blocks
(Q^q_n)^omega; a block's relations are the shared elimination's rows
projected to the exact-omega coordinates.

Each Q^q_n is cached on disk as one atomically written file,
``hit-q{q}-n{n}-v2.rows``: a JSON header line (q, n, version, width, rank,
dim and the CRC-32 of the payload, every field checked on load), then one
line per echelon row, its set coordinates ascending, rows in ascending pivot
order.  A file that fails any check on load is a cache miss: the basis is
rebuilt and the file rewritten.  The CRC guards against truncation and bit
flips, not tampering.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable

from . import linalg, poly
from .poly import Polynomial, WeightVector

CACHE_VERSION = 2


# --- cache ------------------------------------------------------------------

def cache_dir() -> Path:
    env = os.environ.get("HITQ_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hitq"


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

@dataclass
class HitSubspace:
    """Echelonized span of Abar(P_q)_n over the degree-n monomial coordinates."""

    q: int
    n: int
    echelon: linalg.EchelonBasis
    engine: str = "full"


def _universe(q: int, n: int) -> tuple:
    return poly.monomials(q, n)


@lru_cache(maxsize=None)
def _index(q: int, n: int) -> dict:
    return {m: k for k, m in enumerate(_universe(q, n))}


@lru_cache(maxsize=None)
def _weights(q: int, n: int) -> tuple:
    """Weight vector of each degree-n monomial; equal vectors share a tuple."""
    shared: dict = {}
    return tuple(shared.setdefault(w, w)
                 for w in map(poly.weight_of, _universe(q, n)))


def vectorize(f: Polynomial, q: int, n: int) -> int:
    idx = _index(q, n)
    v = 0
    for m in f:
        if m not in idx:
            raise ValueError(f"term {m} is not a degree-{n} monomial in {q} variables")
        v ^= 1 << idx[m]
    return v


def unvectorize(v: int, q: int, n: int) -> Polynomial:
    uni = _universe(q, n)
    return frozenset(uni[c] for c in linalg.support(v))


def _generator_stream(q: int, n: int):
    """Vectors Sq^{2^i}(m) over all i with 2^i <= n and all m of degree n-2^i."""
    idx = _index(q, n)
    i = 0
    while (1 << i) <= n:
        t = 1 << i
        for m in _universe(q, n - t):
            v = 0
            for r in poly.sq_monomial(t, m):
                v ^= 1 << idx[r]
            if v:
                yield v
        i += 1


def hit_subspace(q: int, n: int, engine: str = "auto") -> HitSubspace:
    """Span of the Sq^{2^i} images in degree n (equals Abar(P_q)_n)."""
    if n < 0:
        raise ValueError(f"degree {n} is negative")
    width = len(_universe(q, n))
    if engine == "auto":
        engine = "wood" if poly.mu(n) > q else "seeded"
    basis = linalg.EchelonBasis(width)
    if engine == "wood":
        # mu(n) > q: every monomial is hit, no elimination needed
        if poly.mu(n) <= q:
            raise ValueError(f"wood engine needs mu({n}) > {q}")
        for c in range(width):
            basis.insert(1 << c)
        return HitSubspace(q, n, basis, engine)
    mask = (1 << width) - 1
    if engine == "seeded":
        spike = poly.minimal_spike(q, n)
        if spike is None:
            raise ValueError(f"seeded engine needs a minimal spike: mu({n}) > {q}")
        spike_w = poly.weight_of(spike)
        for c, w in enumerate(_weights(q, n)):
            if w < spike_w:
                basis.insert(1 << c)
                mask ^= 1 << c
    elif engine != "full":
        raise ValueError(f"unknown engine {engine!r}")
    for v in _generator_stream(q, n):
        v &= mask
        if v:
            basis.insert(v)
    return HitSubspace(q, n, basis, engine)


# --- quotient -----------------------------------------------------------------

@dataclass
class QuotientBasis:
    """Q^q_n, or its weight block (Q^q_n)^omega, over admissible monomials.

    ``echelon`` holds the relations over degree-n monomial coordinates; the
    admissible monomials are the non-pivot coordinates of the space, in
    coordinate order.  ``omega`` is None for the whole quotient.
    """

    q: int
    n: int
    admissible: tuple
    echelon: linalg.EchelonBasis
    omega: WeightVector | None
    _coord_to_pos: dict

    @property
    def dim(self) -> int:
        return len(self.admissible)

    def reduce_vec(self, f: Polynomial) -> int:
        """Coordinates of [f] over the admissible basis; zero iff f is a relation.

        In a weight block, lower-weight terms die and higher ones raise.
        """
        if self.omega is not None:
            high = next((m for m in f if poly.weight_of(m) > self.omega), None)
            if high is not None:
                raise ValueError(f"term {high} has weight above {self.omega}")
            f = [m for m in f if poly.weight_of(m) == self.omega]
        v = self.echelon.reduce(vectorize(f, self.q, self.n))
        out = 0
        for c in linalg.support(v):
            out |= 1 << self._coord_to_pos[c]
        return out

    def poly_of_vec(self, w: int) -> Polynomial:
        return frozenset(self.admissible[k] for k in linalg.support(w))


def _make_quotient(q: int, n: int, echelon: linalg.EchelonBasis,
                   coords: Iterable[int], omega=None) -> QuotientBasis:
    """The quotient of span{e_c : c in coords} by the echelon's row space."""
    uni = _universe(q, n)
    pivots = set(echelon.pivots())
    free = [c for c in coords if c not in pivots]
    pos = {c: k for k, c in enumerate(free)}
    return QuotientBasis(q, n, tuple(uni[c] for c in free), echelon, omega, pos)


_QCACHE: dict = {}


def quotient_basis(q: int, n: int) -> QuotientBasis:
    """Q^q_n with its admissible monomial basis (cached on disk per (q,n))."""
    key = (cache_dir(), q, n)
    if key in _QCACHE:
        return _QCACHE[key]
    qb = _load_cached(q, n)
    if qb is None:
        hs = hit_subspace(q, n)
        qb = _make_quotient(q, n, hs.echelon, range(hs.echelon.width))
        _save_cached(qb)
    _QCACHE[key] = qb
    return qb


def _save_cached(qb: QuotientBasis) -> None:
    by_pivot = qb.echelon.rows_by_pivot()
    payload = "".join(
        " ".join(map(str, linalg.support(by_pivot[p]))) + "\n"
        for p in sorted(by_pivot)
    ).encode()
    meta = {
        "q": qb.q,
        "n": qb.n,
        "version": CACHE_VERSION,
        "width": qb.echelon.width,
        "rank": len(by_pivot),
        "dim": qb.dim,
        "crc32": zlib.crc32(payload),
    }
    header = json.dumps(meta, sort_keys=True).encode()
    _atomic_write(_cache_path(qb.q, qb.n), header + b"\n" + payload)


def _load_cached(q: int, n: int):
    """The cached Q^q_n, or None when the file is missing or fails a check."""
    width = len(_universe(q, n))
    try:
        head, _, payload = _cache_path(q, n).read_bytes().partition(b"\n")
        meta = json.loads(head)
        checked = [meta[k] for k in ("version", "q", "n", "width", "crc32")]
        if checked != [CACHE_VERSION, q, n, width, zlib.crc32(payload)]:
            return None
        lines = payload.splitlines()
        if len(lines) != meta["rank"]:
            return None
        basis = linalg.EchelonBasis(width)
        for line in lines:
            coords = [int(t) for t in line.split()]
            v = linalg.from_support(coords)  # ValueError on a negative one
            # insert raises on a coordinate >= width, refuses an empty row and
            # reduces a row whose pivot repeats an earlier one
            if v.bit_count() != len(coords) or basis.insert(v) != (True, v):
                return None
        qb = _make_quotient(q, n, basis, range(width))
        return qb if qb.dim == meta["dim"] else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


# --- weight filtration ----------------------------------------------------------

def enumerate_weights(q: int, n: int) -> list:
    """All weight vectors realized by degree-n monomials, ascending."""
    return sorted(set(_weights(q, n)))


def weight_quotient(q: int, n: int, omega: WeightVector) -> QuotientBasis:
    """The weight block (Q^q_n)^omega, read off the shared elimination.

    A forward-echelon row's support weights never exceed its pivot's weight,
    so rows whose pivot has weight exactly omega, projected to the exact-omega
    coordinates, reduce the block; everything lower-weight projects away.
    """
    omega = tuple(omega)
    if poly.weight_degree(omega) != n:
        raise ValueError(f"deg{omega} != {n}")
    qb = quotient_basis(q, n)
    block = [c for c, w in enumerate(_weights(q, n)) if w == omega]
    bmask = linalg.from_support(block)
    by_pivot = qb.echelon.rows_by_pivot()
    projected = linalg.EchelonBasis(qb.echelon.width)
    for c in block:
        row = by_pivot.get(c)
        if row is not None:
            projected.insert(row & bmask)
    return _make_quotient(q, n, projected, block, omega)


def weight_dimensions(qb: QuotientBasis) -> dict:
    """dim (Q^q_n)^omega for every realized omega, from the pivot weights."""
    weights = _weights(qb.q, qb.n)
    total = Counter(weights)
    total.subtract(weights[c] for c in qb.echelon.pivots())
    return dict(sorted(total.items()))


# --- Kameko kernel ----------------------------------------------------------------

def kameko_kernel(q: int, n: int) -> list:
    """Basis of Ker(Q^q_n -> Q^q_{(n-q)/2}), as admissible coordinate vectors."""
    if (n - q) % 2 or n < q:
        raise ValueError(f"Kameko down map undefined at (q={q}, n={n})")
    nd = (n - q) // 2
    src = quotient_basis(q, n)
    tgt = quotient_basis(q, nd)
    columns = []
    for m in src.admissible:
        d = poly.kameko_down(m)
        columns.append(tgt.reduce_vec(frozenset({d})) if d is not None else 0)
    rows = [0] * tgt.dim
    for i, col in enumerate(columns):
        for c in linalg.support(col):
            rows[c] |= 1 << i
    return linalg.kernel_basis([r for r in rows if r], src.dim)


__all__ = [
    "HitSubspace",
    "QuotientBasis",
    "cache_dir",
    "vectorize",
    "unvectorize",
    "hit_subspace",
    "quotient_basis",
    "enumerate_weights",
    "weight_quotient",
    "weight_dimensions",
    "kameko_kernel",
]
