"""Independent brute-force reference implementations used to cross-check hitq.

Everything here is written from first principles with stdlib tools only:
naive Cartan-formula Steenrod squares via math.comb, dict-based Gaussian
elimination over lexicographically ordered monomials, Gauss-Jordan on int
rows, a batch all-generators hit-space construction, the literal
subspace-intersection route to the weight blocks, the primitives as the
common kernel of the dual Sq^{2^i} functionals, the chain-level transfer psi
by recursion on one divided monomial at a time, the least weight of a spike
by trying every tuple, the lambda algebra's pair rewrite and differential
straight from their binomial formulas, a text rendering of lambda elements,
a linear substitution multiplied out one linear factor at a time, and a
reader and writers of the cache file layouts.
Nothing imports hitq.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import zlib

Mono = tuple


def comb2(a: int, b: int) -> int:
    """Binomial coefficient mod 2 via the literal factorial formula."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b) % 2


def pair_rewrite(i: int, j: int) -> tuple:
    """Lambda_i lambda_j for j = 2i + 1 + n, n >= 0, as the sum over t of
    C(n - 1 - t, t) lambda_{i+n-t} lambda_{2i+1+t}: the (first, second)
    letters of its terms, ascending in t."""
    n = j - 2 * i - 1
    return tuple((i + n - t, 2 * i + 1 + t) for t in range(n) if comb2(n - 1 - t, t))


def d_letter(m: int) -> tuple:
    """d(lambda_m) as the sum over j >= 1 of C(m - j, j) lambda_{m-j}
    lambda_{j-1}: the (first, second) letters of its terms, ascending in j."""
    return tuple((m - j, j - 1) for j in range(1, m + 1) if comb2(m - j, j))


def naive_sq(t: int, f: set) -> set:
    """Sq^t on a set-of-monomials polynomial by the variablewise Cartan rule."""
    out: set = set()
    for m in f:
        q = len(m)
        for split in itertools.product(*(range(t + 1) for _ in range(q))):
            if sum(split) != t:
                continue
            if all(comb2(a, s) for a, s in zip(m, split)):
                term = tuple(a + s for a, s in zip(m, split))
                out ^= {term}
    return out


def all_monomials(q: int, n: int) -> list:
    """Every exponent tuple of length q summing to n, lexicographically."""
    if q == 1:
        return [(n,)]
    out = []
    for e in range(n + 1):
        out.extend((e,) + rest for rest in all_monomials(q - 1, n - e))
    return sorted(out)


def vectorize(f, index: dict) -> int:
    """Bit vector of a set of monomials: bit index[m] for each term m."""
    v = 0
    for m in f:
        if m not in index:
            raise ValueError(f"term {m} is not in the coordinate index")
        v ^= 1 << index[m]
    return v


def unvectorize(v: int, universe) -> frozenset:
    """The monomials universe[k] at the set bits k of v."""
    return frozenset(universe[k] for k in range(v.bit_length()) if v >> k & 1)


def _eliminate(vectors: list) -> dict:
    """Row-reduce set-of-monomials vectors; returns pivot-monomial -> row."""
    pivots: dict = {}
    for v in vectors:
        v = set(v)
        while v:
            lead = max(v)
            if lead not in pivots:
                pivots[lead] = v
                break
            v ^= pivots[lead]
    return pivots


@functools.lru_cache(maxsize=None)
def hit_generators(q: int, n: int) -> tuple:
    """Every nonzero Sq^t(g) with t >= 1 and g a degree-(n - t) monomial."""
    spans = []
    for t in range(1, n + 1):
        for g in all_monomials(q, n - t):
            image = naive_sq(t, {g})
            if image:
                spans.append(frozenset(image))
    return tuple(spans)


def hit_dimension(q: int, n: int) -> int:
    """dim Q^q_n by eliminating Sq^t(g) for every t >= 1 and monomial g."""
    universe = all_monomials(q, n)
    return len(universe) - len(_eliminate(hit_generators(q, n)))


def hit_membership(f: set, q: int, n: int) -> bool:
    """Whether a degree-n polynomial is a sum of Sq^t images, by elimination."""
    pivots = _eliminate(hit_generators(q, n))
    v = set(f)
    while v:
        lead = max(v)
        if lead not in pivots:
            return False
        v ^= pivots[lead]
    return True


def one_variable_dimension(n: int) -> int:
    """dim Q^1_n in closed form: 1 exactly when n + 1 is a power of two."""
    return 1 if (n + 1) & n == 0 else 0


def rank2(rows: list) -> int:
    """GF(2) rank of int-bitmask rows by plain elimination."""
    basis: list = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def rref(rows) -> dict:
    """Reduced row-echelon form of int-bitmask rows by Gauss-Jordan, pivots
    at the HIGHEST set bits: pivot -> reduced row, zero at every other pivot.

    Forward elimination first; then each row, by ascending pivot, walks its
    bits below the pivot from the top down and XORs in the already reduced
    row at each lower pivot it meets, which touches no bit above that pivot.
    """
    pivots: dict = {}
    for r in rows:
        while r:
            p = r.bit_length() - 1
            if p not in pivots:
                pivots[p] = r
                break
            r ^= pivots[p]
    clean: dict = {}
    for p in sorted(pivots):
        rest, out = pivots[p] ^ (1 << p), 1 << p
        while rest:
            c = rest.bit_length() - 1
            if c in clean:
                rest ^= clean[c]
            else:
                out |= 1 << c
                rest ^= 1 << c
        clean[p] = out
    return clean


def intersect_coordinate_subspace(gens, width: int, allowed: int) -> list:
    """Spanning rows of span(gens) ∩ span{e_c : bit c set in allowed}.

    Elimination takes as a row's leading coordinate its highest DISALLOWED
    coordinate when it has one, so any row led by an allowed coordinate
    carries no disallowed coordinate at all; those rows span exactly the
    intersection.
    """
    blocked = ((1 << width) - 1) & ~allowed
    pivots: dict = {}
    for v in gens:
        while v:
            lead = (v & blocked or v).bit_length() - 1
            if lead not in pivots:
                pivots[lead] = v
                break
            v ^= pivots[lead]
    return [row for row in pivots.values() if not row & blocked]


def _splits(t: int, m: tuple):
    """Tuples (t_1, ..., t_q) summing to t with C(j_s - t_s, t_s) odd at
    every order j_s of m; the coefficient vanishes once 2 t_s > j_s."""
    if t > sum(j // 2 for j in m):
        return
    if not m:
        yield ()
        return
    for s in range(min(t, m[0] // 2) + 1):
        if comb2(m[0] - s, s):
            for rest in _splits(t - s, m[1:]):
                yield (s,) + rest


def dual_sq(t: int, m: Mono) -> set:
    """(m)Sq^t for a divided monomial m of orders (j_1, ..., j_q).

    Dual to the Cartan rule Sq^s(x^a) = C(a, s) x^(a+s): order j drops by
    t_s with coefficient C(j - t_s, t_s) mod 2, over splits t = sum t_s.
    """
    out: set = set()
    for split in _splits(t, m):
        out ^= {tuple(j - s for j, s in zip(m, split))}
    return out


@functools.lru_cache(maxsize=None)
def _psi_term(m: Mono) -> frozenset:
    """Raw lambda words of psi on one divided monomial, by recursion on the
    first order: (j_1, rest) gives psi((rest)Sq^(k - j_1)) lambda_k for
    every k >= j_1, the tail's dual square vanishing past j_1 + deg(rest)."""
    if len(m) < 2:
        return frozenset({m})
    j1, rest = m[0], m[1:]
    out: set = set()
    for k in range(j1, j1 + sum(rest) + 1):
        for r in dual_sq(k - j1, rest):
            out ^= {w + (k,) for w in _psi_term(r)}
    return frozenset(out)


def psi(e) -> set:
    """Singer's chain-level transfer on a set of divided monomials: the raw
    (un-normalised) set of lambda words, one word per summand mod 2."""
    out: set = set()
    for m in e:
        out ^= _psi_term(tuple(m))
    return out


def kernel(rows: list, width: int) -> list:
    """Basis of {x : parity(r & x) = 0 for every row r} by Gauss-Jordan.

    Pivots are the LOWEST set bits; the reduced rows then give, for each
    free coordinate f, the kernel vector e_f + sum of the pivots whose row
    contains f.
    """
    pivots: dict = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            if p not in pivots:
                pivots[p] = r
                break
            r ^= pivots[p]
    clean: dict = {}
    for p in sorted(pivots, reverse=True):  # higher pivots are clean first
        body, fixed = pivots[p] ^ (1 << p), 0
        while body:
            c = (body & -body).bit_length() - 1
            if c in clean:
                body ^= clean[c]
            else:
                fixed |= 1 << c
                body ^= 1 << c
        clean[p] = (1 << p) | fixed
    out = []
    for f in range(width):
        if f not in clean:
            out.append((1 << f) | sum(1 << p for p, row in clean.items()
                                      if (row >> f) & 1))
    return out


def primitive_basis(q: int, n: int) -> list:
    """Primitives of degree n as sets of divided monomials.

    Each Sq^{2^i} maps degree n to degree n - 2^i; every target monomial u
    gives the functional e -> coefficient of u in (e)Sq^{2^i}, and the
    primitives are the common kernel of those functionals.
    """
    universe = all_monomials(q, n)
    rows: list = []
    t = 1
    while t <= n:
        functional = {u: 0 for u in all_monomials(q, n - t)}
        for k, m in enumerate(universe):
            for u in dual_sq(t, m):
                functional[u] ^= 1 << k
        rows.extend(r for r in functional.values() if r)
        t *= 2
    return [{universe[k] for k in range(len(universe)) if (v >> k) & 1}
            for v in kernel(rows, len(universe))]


def substitute(g, f) -> set:
    """The algebra map x_i -> sum_j g[i][j] x_j (entries mod 2) on a
    set-of-monomials polynomial: each x_i^a is a product of a copies of its
    linear form, multiplied out one factor at a time, with no Frobenius step."""
    q = len(g)
    out: set = set()
    for m in f:
        terms = {(0,) * q}
        for row, a in zip(g, m):
            targets = [j for j in range(q) if row[j] % 2]
            for _ in range(a):
                product: set = set()
                for t in terms:
                    for j in targets:
                        product ^= {t[:j] + (t[j] + 1,) + t[j + 1:]}
                terms = product
        out ^= terms
    return out


def weight_vector(m: Mono) -> tuple:
    """Entry j counts the exponents of m with binary digit j set."""
    top = max(m, default=0).bit_length()
    return tuple(sum((a >> j) & 1 for a in m) for j in range(top))


def minimal_spike_weight(q: int, n: int):
    """The least weight vector of a degree-n spike in q variables (every
    exponent 2^k - 1), or None when there is none; by trying every tuple."""
    values = [2 ** k - 1 for k in range(n.bit_length() + 1)]
    return min((weight_vector(m) for m in itertools.product(values, repeat=q)
                if sum(m) == n), default=None)


def weight_block_dimension(q: int, n: int, omega: tuple) -> int:
    """dim (Q^q_n)^omega by the literal subspace-intersection route.

    Span(hit generators + all lower-weight monomials) is intersected with the
    coordinate subspace of weight <= omega and projected to the exact-omega
    coordinates; the block is the exact-omega span modulo that projection.
    Weight vectors of one degree compare left-lexicographically as tuples.
    """
    universe = all_monomials(q, n)
    index = {m: k for k, m in enumerate(universe)}
    weights = [weight_vector(m) for m in universe]
    allowed = sum(1 << k for k, w in enumerate(weights) if w <= omega)
    exact = sum(1 << k for k, w in enumerate(weights) if w == omega)
    gens = [1 << k for k, w in enumerate(weights) if w < omega]
    gens += [sum(1 << index[m] for m in g) for g in hit_generators(q, n)]
    inter = intersect_coordinate_subspace(gens, len(universe), allowed)
    return bin(exact).count("1") - rank2([row & exact for row in inter])


def format_element(e) -> str:
    """A lambda element (words stored mirrored) as text in display letter
    order, words sorted, each run of a letter as one power: l_1l_3^2l_2."""
    chunks = []
    for w in sorted(list(reversed(w)) for w in e):
        runs = [(i, len(list(g))) for i, g in itertools.groupby(w)]
        chunks.append("".join(f"l_{i}" if k == 1 else f"l_{i}^{k}" for i, k in runs))
    return " + ".join(chunks) or "0"


def _cache_file(meta: dict, payload: bytes) -> bytes:
    meta = dict(meta, crc32=zlib.crc32(payload))
    return json.dumps(meta, sort_keys=True).encode() + b"\n" + payload


def cache_v3(meta: dict, rows: list) -> bytes:
    """A v3 cache file: the JSON header with the payload's CRC-32, then one
    text line per row, its entries in decimal as listed."""
    return _cache_file(meta, "".join(
        " ".join(str(c) for c in row) + "\n" for row in rows).encode())


def cache_v4(meta: dict, rows: list) -> bytes:
    """A v4 cache file of any int lists, however ordered: per row, one line of
    signed steps, from the previous row's last entry (-1 at first) up to this
    row's last entry, then from each entry down to the one before it.  An
    empty row is an empty line.  The lines, joined by newlines, are
    zlib-compressed at the default level; the CRC-32 covers the compressed
    bytes."""
    lines, top = [], -1
    for row in rows:
        steps = []
        if row:
            steps.append(row[-1] - top)
            top = row[-1]
        for k in range(len(row) - 1, 0, -1):
            steps.append(row[k] - row[k - 1])
        lines.append(" ".join(str(s) for s in steps))
    return _cache_file(meta, zlib.compress("\n".join(lines).encode()))


def read_cache_v4(data: bytes) -> tuple:
    """(header, rows) of a v4 cache file, each row's entries as stored."""
    head, _, payload = data.partition(b"\n")
    rows, top = [], -1
    for line in zlib.decompress(payload).decode().splitlines():
        steps = [int(t) for t in line.split()]
        row = []
        if steps:
            top += steps[0]
            row.append(top)
        for step in steps[1:]:
            row.append(row[-1] - step)
        rows.append(row[::-1])
    return json.loads(head), rows


__all__ = [
    "all_monomials",
    "cache_v3",
    "cache_v4",
    "comb2",
    "dual_sq",
    "format_element",
    "hit_dimension",
    "hit_generators",
    "hit_membership",
    "intersect_coordinate_subspace",
    "kernel",
    "minimal_spike_weight",
    "naive_sq",
    "one_variable_dimension",
    "primitive_basis",
    "rank2",
    "read_cache_v4",
    "rref",
    "substitute",
    "unvectorize",
    "vectorize",
    "weight_block_dimension",
    "weight_vector",
]
