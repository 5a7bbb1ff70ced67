"""Tests for the hit-space engines, quotient bases, weights, and the cache."""

from __future__ import annotations

import collections
import gc
import json
import random
import tracemalloc

import pytest

import fixtures
import oracles
from hitq import action, dual, hit, linalg, poly, transfer


def test_dimensions_match_brute_force_oracle():
    for q, dims in fixtures.ORACLE_DIMS.items():
        for n, want in enumerate(dims):
            assert hit.quotient_basis(q, n).dim == want, (q, n)


def test_frozen_oracle_table_is_live():
    # the frozen table really is what the independent oracle computes
    for q, dims in fixtures.ORACLE_DIMS.items():
        upper = 16 if q <= 2 else 10
        assert dims == tuple(oracles.hit_dimension(q, n) for n in range(upper + 1))


def _pivots(space):
    """Pivots of a QuotientBasis in full coordinates: the hit coordinates
    below low, then the quotient's pivots shifted up by low."""
    return [*range(space.low), *(p + space.low for p in space.pivots)]


def _full_pivots(q, n):
    """Pivots of the unseeded reference: the whole stream, low = 0."""
    full = linalg.EchelonBasis(len(poly.monomials(q, n)))
    for v in hit._generator_stream(q, n, hit.kept_monomials(q, n, 0)):
        full.insert(v)
    return full.pivots()


def test_engines_agree_on_pivots():
    # equal pivots mean the monomials of the seeded unit block (those below
    # the minimal spike's weight) all lie in the hit span of the full stream
    cases = [(2, 6), (2, 7), (2, 8), (2, 14), (2, 15), (3, 41), (4, 41)]
    cases += [(q, n) for q in (3, 4) for n in range(41)
              if poly.minimal_spike(q, n) is not None]
    for q, n in cases:
        assert _pivots(hit.hit_subspace(q, n)) == _full_pivots(q, n), (q, n)


def _reference_stream(q, n, floor):
    """Sq^{2^i}(m) by poly.sq_monomial, masked to weights >= floor, zeros
    dropped, shifted down by the number of coordinates below floor."""
    uni = poly.monomials(q, n)
    idx = {m: c for c, m in enumerate(uni)}
    keep = linalg.from_support(
        c for c, m in enumerate(uni) if poly.weight_of(m) >= floor)
    low = len(uni) - keep.bit_count()
    assert keep >> low == (1 << (len(uni) - low)) - 1  # the kept are a suffix
    out = []
    i = 0
    while (1 << i) <= n:
        for m in poly.monomials(q, n - (1 << i)):
            v = oracles.vectorize(poly.sq_monomial(1 << i, m), idx) & keep
            if v:
                out.append(v >> low)
        i += 1
    return out


def _pivot_order(vectors):
    """The vectors stably sorted by top coordinate: the naive route's order
    within one top coordinate."""
    return sorted(vectors, key=int.bit_length)


def test_generator_stream_is_exact():
    # the stream transposed onto the kept coordinates, by top coordinate and
    # then source key: the naive route's vectors, stably sorted by top
    cases = [(q, n) for q, top in ((2, 60), (3, 40), (4, 30), (5, 18))
             for n in range(top + 1)]
    for q, n in cases + [(4, 45), (5, 24)]:  # plus two cold-basis degrees
        spike = poly.minimal_spike(q, n)
        if spike is not None:
            floor = poly.weight_of(spike)
            kept = hit.kept_monomials(q, n, hit._low(q, n))
            got = list(hit._generator_stream(q, n, kept))
            assert got == _pivot_order(_reference_stream(q, n, floor)), (q, n)
    for q, n in ((1, 7), (2, 5), (3, 9), (4, 12)):  # the unseeded stream, low = 0
        assert list(hit._generator_stream(
            q, n, hit.kept_monomials(q, n, 0))) == _pivot_order(
            _reference_stream(q, n, ()))


def test_cache_files_written_in_the_naive_order_still_load(tmp_path, monkeypatch):
    # a cache file whose rows come from the naive route's order (sparser rows
    # are stored now) loads to the same quotient as a fresh build
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    for q, n in ((4, 33), (5, 20)):
        low, width = hit._low(q, n), hit._width(q, n)
        eb = linalg.EchelonBasis(width - low)
        for v in _reference_stream(q, n, poly.weight_of(poly.minimal_spike(q, n))):
            eb.insert(v)
        rows = [list(linalg.support(r)) for _, r in sorted(eb.rows_by_pivot().items())]
        hit._save_cached(hit.QuotientBasis(
            q, n, low, hit.kept_monomials(q, n, low), range(width - low),
            [r[0] for r in rows], rows))
        old = hit._cache_path(q, n).read_bytes()
        fresh = hit.hit_subspace(q, n)
        hit._save_cached(fresh)
        assert hit._cache_path(q, n).read_bytes() != old, (q, n)
        hit._cache_path(q, n).write_bytes(old)
        loaded = hit.cached_quotient(q, n)
        assert loaded.pivots == fresh.pivots, (q, n)
        assert loaded.admissible == fresh.admissible, (q, n)
        assert loaded.table == fresh.table, (q, n)


def test_cold_elimination_memory_peak():
    # no full split list is held, and each source's coordinates are freed as
    # its vector is yielded: with the kept monomials listed inside, the peaks
    # are 1.40 and 1.19 MiB, where a stream that holds every support list to
    # its end peaks at 2.1 and 1.6 MiB without them.  An untraced first run
    # fills the interpreter's tuple free lists, as earlier tests do in a full
    # run; a traced first run in a fresh process counts them (+0.15 MiB)
    for q, n, bound in ((4, 33, 1.75), (5, 24, 1.3)):
        hit.hit_subspace(q, n)
        tracemalloc.start()
        try:
            hit.hit_subspace(q, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, (q, n, peak)


def test_hit_subspace_builds_no_source_universe(tmp_path, monkeypatch):
    # neither a source degree's universe nor degree 45's own: only the
    # monomials from the spike's weight up are listed
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    q, n = 4, 45
    poly.monomials.cache_clear()
    hit.hit_subspace(q, n)
    hit.quotient_basis(q, n)  # a cold build, then a warm load
    qb = hit.quotient_basis(q, n)
    table = hit.weight_dimensions(qb)
    hit.weight_quotient(qb, max(table, key=table.get))
    g = action.gl_generators(q)[-1]
    for m in qb.admissible[:20]:
        qb.reduce_vec(poly.linear_substitute(g, frozenset({m})))
    dual.primitive_basis(q, n)
    assert poly.monomials.cache_info().currsize == 0


def test_elimination_goes_through_insert_and_cache_load_does_not(
        tmp_path, monkeypatch):
    # the benchmark traces EchelonBasis.insert per layer, so a cold build
    # inserts through it; a cache load builds no row and inserts nothing
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    verdicts = []
    insert = linalg.EchelonBasis.insert

    def counting(self, v):
        out = insert(self, v)
        verdicts.append(out[0])
        return out

    monkeypatch.setattr(linalg.EchelonBasis, "insert", counting)
    hs = hit.hit_subspace(4, 21)
    assert len(verdicts) > sum(verdicts) == len(hs.pivots) > 0
    hit.quotient_basis(4, 21)
    verdicts.clear()
    qb = hit.cached_quotient(4, 21)
    assert (qb.pivots, qb.table) == (hs.pivots, hs.table)
    assert verdicts == []


def test_every_table_is_built_by_normal_forms(tmp_path, monkeypatch):
    # the one builder, and so the one check of forward rows: a fresh table,
    # built on first use, a cache load and EchelonBasis.table() call it
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    widths = []
    build = linalg.normal_forms

    def counting(rows, width):
        widths.append(width)
        return build(rows, width)

    monkeypatch.setattr(linalg, "normal_forms", counting)
    fresh = hit.quotient_basis(4, 21)  # a cold build writes the file
    assert widths == [] and fresh._rows is not None
    table = fresh.table
    assert widths == [len(fresh.coords)] and fresh._rows is None
    assert hit.cached_quotient(4, 21).table == table
    assert widths == [len(fresh.coords)] * 2
    eb = linalg.EchelonBasis(8)
    for v in (0b1011, 0b110, 0b10010001):
        eb.insert(v)
    assert eb.table() == {2: 0b10, 3: 0b11, 7: 0b101}
    assert widths == [len(fresh.coords)] * 2 + [8]


# the degrees of the normal-form table oracles
ORACLE_DEGREES = ([(3, n) for n in range(31)] + [(4, n) for n in range(47)]
                  + [(5, n) for n in range(21)])


def test_table_is_the_free_part_of_rref():
    # the one-pass table against the oracle's Gauss-Jordan of the stream,
    # eliminated apart from hit_subspace and linalg
    for q, n in ORACLE_DEGREES:
        qb = hit.quotient_basis(q, n)
        low = hit._low(q, n)
        reduced = oracles.rref(
            hit._generator_stream(q, n, hit.kept_monomials(q, n, low)))
        assert sorted(reduced) == qb.pivots, (q, n)
        free = [c for c in range(hit._width(q, n) - low) if c not in reduced]
        kept = hit.kept_monomials(q, n, low)
        assert qb.admissible == tuple(kept[c] for c in free), (q, n)
        want = {p: linalg.from_support(k for k, c in enumerate(free) if row >> c & 1)
                for p, row in reduced.items()}
        assert qb.table == want, (q, n)


def _refuse(*args):
    raise AssertionError("a cache load built a row as an int")


def test_loaded_basis_equals_a_fresh_one(tmp_path, monkeypatch):
    # pivots, admissible monomials and table; the load and its table build
    # call neither from_support nor insert, and every entry has <= dim bits
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    for q, n in ORACLE_DEGREES:
        fresh = hit.hit_subspace(q, n)
        hit._save_cached(fresh)
        with monkeypatch.context() as m:
            m.setattr(linalg, "from_support", _refuse)
            m.setattr(linalg.EchelonBasis, "insert", _refuse)
            loaded = hit.cached_quotient(q, n)
            table = loaded.table
        assert loaded.pivots == fresh.pivots, (q, n)
        assert loaded.admissible == fresh.admissible, (q, n)
        assert table == fresh.table, (q, n)
        assert all(v >> loaded.dim == 0 for v in table.values()), (q, n)


def test_wood_engine_where_every_monomial_is_hit():
    for q, n in ((2, 5), (2, 12), (3, 12)):
        assert _pivots(hit.hit_subspace(q, n)) == _full_pivots(q, n) == list(
            range(len(poly.monomials(q, n))))


def test_hit_subspace_rejects_bad_input():
    with pytest.raises(ValueError):
        hit.hit_subspace(3, -1)


def test_vectorize_round_trip():
    rng = random.Random(7)
    uni = poly.monomials(3, 8)
    idx = {m: c for c, m in enumerate(uni)}
    for _ in range(20):
        f = frozenset(m for m in uni if rng.random() < 0.3)
        assert oracles.unvectorize(oracles.vectorize(f, idx), uni) == f


def test_hit_images_reduce_to_zero():
    qb = hit.quotient_basis(3, 9)
    for t in range(1, 10):
        for m in poly.monomials(3, 9 - t):
            assert qb.reduce_vec(poly.sq(t, poly.poly([m]))) == 0


def test_admissible_monomials_reduce_to_unit_vectors():
    qb = hit.quotient_basis(3, 8)
    for k, m in enumerate(qb.admissible):
        assert qb.reduce_vec(frozenset({m})) == 1 << k
    # and poly_of_vec inverts that
    for k in range(qb.dim):
        assert qb.poly_of_vec(1 << k) == frozenset({qb.admissible[k]})


def test_singer_filter_only_flags_hit_monomials():
    # the seeded engine's rule: below the minimal spike's weight, all is hit
    for n in (6, 7, 8, 14, 15):
        spike_w = poly.weight_of(poly.minimal_spike(2, n))
        for m in poly.monomials(2, n):
            if poly.weight_of(m) < spike_w:
                assert oracles.hit_membership({m}, 2, n), (n, m)


def _weight_runs(q, n):
    """(omega, start, end) per run of equal weights over poly.monomials."""
    out = []
    for c, m in enumerate(poly.monomials(q, n)):
        w = poly.weight_of(m)
        if out and out[-1][0] == w:
            out[-1][2] = c + 1
        else:
            out.append([w, c, c + 1])
    return [tuple(run) for run in out]


def test_enumerate_weights_is_exact():
    for q, n in ((3, 7), (4, 9), (4, 45), (5, 24)):
        ws = poly.weight_vectors(q, n)
        assert ws == sorted({poly.weight_of(m) for m in poly.monomials(q, n)})
        assert all(poly.weight_degree(w) == n for w in ws)
        assert list(hit._blocks(q, n)) == _weight_runs(q, n)


def test_block_table_and_kept_monomials_are_exact():
    # the counted blocks and the listed suffixes are those of the universe
    cases = [(q, n) for q in range(1, 6) for n in range(31)]
    cases += [(4, n) for n in range(31, 51)]
    for q, n in cases:
        uni = poly.monomials(q, n)
        assert list(hit._blocks(q, n)) == _weight_runs(q, n), (q, n)
        for low in {0, hit._low(q, n), len(uni)}:
            assert hit.kept_monomials(q, n, low) == uni[low:], (q, n, low)


def test_reduce_vec_drops_hit_terms_and_rejects_non_monomials():
    qb = hit.quotient_basis(4, 45)
    assert qb.low > 0
    below = poly.monomials(4, 45)[qb.low - 1]  # the greatest hit coordinate
    assert qb.reduce_vec(frozenset({below})) == 0
    m = qb.admissible[0]
    assert qb.reduce_vec(frozenset({below, m})) == 1
    for bad in ((1, 2, 42), (1, 2, 3, 39, 0), (1, 2, 3, 40), (-1, 2, 3, 41)):
        with pytest.raises(ValueError):
            qb.reduce_vec(frozenset({bad}))
    # a weight block checks its terms before filtering them by weight
    block = hit.weight_quotient(hit.quotient_basis(4, 9), (3, 1, 1))
    for bad in ((1, 2), (1, 0, 0, 0), (-1, 2, 3, 5), (1, 2, 3, 4, -1)):
        with pytest.raises(ValueError):
            block.reduce_vec(frozenset({bad}))


def test_weight_quotient_routes_agree():
    for q, n in ((3, 6), (3, 7), (3, 8), (3, 9), (4, 9)):
        qb = hit.quotient_basis(q, n)
        for om in poly.weight_vectors(q, n):
            fast = hit.weight_quotient(qb, om).dim
            direct = oracles.weight_block_dimension(q, n, om)
            assert fast == direct, (q, n, om)


def test_weight_dimensions_read_off_pivots():
    for q, n in ((3, 8), (4, 9), (4, 12)):
        qb = hit.quotient_basis(q, n)
        table = hit.weight_dimensions(qb)
        assert sum(table.values()) == qb.dim
        for om, d in table.items():
            assert hit.weight_quotient(qb, om).dim == d


def test_weight_block_reduces_inside_its_filtration():
    omega = (3, 1, 1)
    qb = hit.quotient_basis(4, 9)
    block = hit.weight_quotient(qb, omega)
    assert block.omega == omega
    assert block.dim == hit.weight_dimensions(qb)[omega]
    for k, m in enumerate(block.admissible):
        assert poly.weight_of(m) == omega
        assert block.reduce_vec(frozenset({m})) == 1 << k
    assert block.reduce_vec(frozenset({(1, 2, 2, 4)})) == 0  # weight (1,2,1)
    with pytest.raises(ValueError):
        block.reduce_vec(frozenset({(3, 3, 3, 0)}))  # weight (3,3)


def test_weight_blocks_below_the_floor_vanish():
    # they lie inside the seeded unit block: every coordinate is a pivot
    for q, n in ((4, 9), (4, 12), (3, 10)):
        qb = hit.quotient_basis(q, n)
        low = qb.low
        floor = poly.weight_of(poly.minimal_spike(q, n))
        below = [om for om in poly.weight_vectors(q, n) if om < floor]
        assert below and low > 0, (q, n)
        table = hit.weight_dimensions(qb)
        for om in below:
            block = hit.weight_quotient(qb, om)
            assert block.dim == table[om] == 0, (q, n, om)
            assert oracles.weight_block_dimension(q, n, om) == 0, (q, n, om)


def test_seeded_monomials_are_an_implicit_unit_block(tmp_path, monkeypatch):
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    q, n = 4, 45
    uni = poly.monomials(q, n)
    floor = poly.weight_of(poly.minimal_spike(q, n))
    low = sum(poly.weight_of(m) < floor for m in uni)
    fresh = hit.quotient_basis(q, n)
    loaded = hit.cached_quotient(q, n)
    for space in (fresh, loaded):
        assert (space.low, space.low + len(space.coords)) == (low, len(uni))
        # the pivots are kept coordinates, and no table entry exceeds dim bits
        assert space.pivots[-1] < len(space.coords)
        assert all(v >> space.dim == 0 for v in space.table.values())
        assert _pivots(space)[:low] == list(range(low))
    assert (loaded.pivots, loaded.table) == (fresh.pivots, fresh.table)
    meta, rows = _split(hit._cache_path(q, n).read_bytes())
    assert (meta["width"], meta["low"], meta["rank"]) == (
        len(uni), low, low + len(fresh.pivots))
    assert len(rows) == len(fresh.pivots)


def test_weight_quotient_rejects_degree_mismatch():
    qb = hit.quotient_basis(4, 9)
    with pytest.raises(ValueError):
        hit.weight_quotient(qb, (1, 1))
    with pytest.raises(ValueError):
        hit.weight_quotient(qb, (-1, 1, 2))  # degree 9, a negative entry


def test_cache_round_trip():
    # a seeded degree, a no-spike degree (low is the width: the file holds
    # no row) and degree 0, so the loader's low covers both sides of the rule
    assert hit._low(2, 5) == len(poly.monomials(2, 5))
    for q, n in ((3, 7), (2, 5), (4, 0)):
        qb = hit.quotient_basis(q, n)
        files = list(hit.cache_dir().glob(f"hit-q{q}-n{n}-*"))
        assert len(files) == 1 and "v4" in files[0].name, files
        data = files[0].read_bytes()
        meta, rows = _split(data)
        assert [r[-1] for r in rows] == qb.pivots
        assert _join(meta, rows) == data  # the independent writer agrees
        loaded = hit.quotient_basis(q, n)
        assert loaded is not qb
        assert loaded.admissible == qb.admissible
        assert _pivots(loaded) == _pivots(qb)
        for m in poly.monomials(q, n):
            f = frozenset({m})
            assert loaded.reduce_vec(f) == qb.reduce_vec(f), (q, n, m)


_split = oracles.read_cache_v4  # a v4 cache file -> (header, coordinate lists)
_join = oracles.cache_v4  # (header, rows) -> a v4 cache file, CRC recomputed


def _flip(data: bytes, k: int, bit: int = 0) -> bytes:
    return data[:k] + bytes([data[k] ^ 1 << bit]) + data[k + 1:]


def _edit_rows(edit):
    def damage(path, data):
        meta, rows = _split(data)
        path.write_bytes(_join(meta, edit(meta, rows)))
    return damage


def _edit_header(edit):
    def damage(path, data):
        meta, rows = _split(data)
        edit(meta)
        path.write_bytes(_join(meta, rows))
    return damage


def _truncate(where):
    def damage(path, data):
        path.write_bytes(data[:where(data)])
    return damage


def _flip_width_digit(path, data):
    # a one-bit flip in a header value, still valid JSON: width 220 -> 221
    k = data.index(b'"width": ') + len(b'"width": ')
    while data[k + 1:k + 2].isdigit():
        k += 1
    path.write_bytes(_flip(data, k))


def _repeated_pivot(meta, rows):
    # swap row 0 for row 0 + row 1: the span, rank, dim and pivot set are
    # unchanged, so only the check that each row is stored as read can see it
    pivots = [r[-1] for r in rows]
    rows[0] = sorted(set(rows[0]) ^ set(rows[1]))
    eb = linalg.EchelonBasis(meta["width"])
    for r in rows:
        eb.insert(linalg.from_support(r))
    assert rows[0][-1] == rows[1][-1] and eb.pivots() == pivots
    return sorted(rows, key=lambda r: r[-1])


def _stale_v1_pair(path, data):
    # the v1 layout (a dense .bin beside a .json), valid by its own rules
    meta, rows = _split(data)
    nbytes = (meta["width"] + 7) // 8
    base = path.with_name(f"hit-q{meta['q']}-n{meta['n']}-v1")
    base.with_suffix(".bin").write_bytes(b"".join(
        linalg.from_support(r).to_bytes(nbytes, "little") for r in rows))
    del meta["crc32"]
    base.with_suffix(".json").write_text(
        json.dumps(dict(meta, version=1), sort_keys=True))
    path.unlink()


def _stale_v2(meta, rows):
    """The v2 layout: v3's text lines with the unit block written out, rows
    unshifted."""
    low = meta.pop("low")
    rows = [[c] for c in range(low)] + [[c + low for c in r] for r in rows]
    return oracles.cache_v3(dict(meta, version=2), rows)


def _stale_v2_file(path, data):
    # a v2 file, valid by its own rules, where the v2 layout kept it
    path.with_name(path.name.replace("-v4.", "-v2.")).write_bytes(
        _stale_v2(*_split(data)))
    path.unlink()


def _stale_v2_in_place(path, data):
    path.write_bytes(_stale_v2(*_split(data)))


def _stale_v3(meta, rows):
    """The v3 layout: each row's coordinates in decimal text, uncompressed."""
    return oracles.cache_v3(dict(meta, version=3), rows)


def _stale_v3_file(path, data):
    # a v3 file, valid by its own rules, where the v3 layout kept it
    path.with_name(path.name.replace("-v4.", "-v3.")).write_bytes(
        _stale_v3(*_split(data)))
    path.unlink()


def _stale_v3_in_place(path, data):
    path.write_bytes(_stale_v3(*_split(data)))


def _header_end(data):
    return data.index(b"\n")


DAMAGE = {
    "truncate-empty": _truncate(lambda d: 0),
    "truncate-in-header": _truncate(lambda d: _header_end(d) // 2),
    "truncate-before-newline": _truncate(_header_end),
    "truncate-after-newline": _truncate(lambda d: _header_end(d) + 1),
    "truncate-mid-payload": _truncate(lambda d: (_header_end(d) + len(d)) // 2),
    "truncate-last-byte": _truncate(lambda d: len(d) - 1),
    "flip-payload-byte": lambda p, d: p.write_bytes(
        _flip(d, (_header_end(d) + len(d)) // 2)),
    "flip-header-byte": _flip_width_digit,
    "wrong-version": _edit_header(lambda m: m.update(version=1)),
    "wrong-low": _edit_header(lambda m: m.update(low=m["low"] - 1)),
    "no-rank-key": _edit_header(lambda m: m.pop("rank")),
    "wrong-dim": _edit_header(lambda m: m.update(dim=m["dim"] + 1)),
    "header-not-an-object": lambda p, d: p.write_bytes(
        b"[]\n" + d.partition(b"\n")[2]),
    "coordinate-negative": _edit_rows(  # a row that starts at -1
        lambda m, rows: rows[:-1] + [[-1] + rows[-1]]),
    "pivot-negative": _edit_rows(lambda m, rows: [[-1]] + rows[1:]),
    "coordinate-past-width": _edit_rows(  # past the shifted width
        lambda m, rows: rows[:-1] + [rows[-1][:-1] + [m["width"] - m["low"]]]),
    "row-missing": _edit_rows(lambda m, rows: rows[:-1]),
    "row-empty": _edit_rows(lambda m, rows: [[]] + rows[1:]),
    "coordinate-repeated": _edit_rows(
        lambda m, rows: rows[:-1] + [[rows[-1][0]] + rows[-1]]),
    "repeated-pivot": _edit_rows(_repeated_pivot),
    "stale-v1-pair": _stale_v1_pair,
    "stale-v2-file": _stale_v2_file,
    "stale-v2-in-place": _stale_v2_in_place,
    "stale-v3-file": _stale_v3_file,
    "stale-v3-in-place": _stale_v3_in_place,
    "not-zlib": lambda p, d: p.write_bytes(  # v3 text under a v4 header
        oracles.cache_v3(*_split(d))),
    "negative-gap": _edit_rows(  # the last line ends in a step of -1
        lambda m, rows: rows[:-1] + [[rows[-1][0] + 1] + rows[-1]]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_cache_file_is_a_miss(damage, tmp_path, monkeypatch):
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    q, n = 4, 9
    fresh = _pivots(hit.hit_subspace(q, n))
    hit.quotient_basis(q, n)
    (path,) = tmp_path.iterdir()
    assert _pivots(hit.cached_quotient(q, n)) == fresh
    DAMAGE[damage](path, path.read_bytes())
    assert hit.cached_quotient(q, n) is None
    assert _pivots(hit.quotient_basis(q, n)) == fresh
    # the rebuild rewrote a good file, only the v4 file is read, and no v3
    # file is left beside it
    assert _pivots(hit.cached_quotient(q, n)) == fresh
    assert not list(tmp_path.glob("*-v3.rows"))


def test_cache_files_are_compact(tmp_path, monkeypatch):
    # a v4 file takes at most a quarter of the v3 text of the same rows
    # (about a seventh at these degrees)
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    for q, n in ((4, 33), (5, 24)):
        hit.quotient_basis(q, n)
        data = hit._cache_path(q, n).read_bytes()
        v3 = _stale_v3(*_split(data))
        assert 4 * len(data) <= len(v3), (q, n, len(data), len(v3))


def test_rows_out_of_order_are_a_miss(tmp_path, monkeypatch):
    # the writer lists coordinates and rows ascending, and the loader's
    # one-pass table relies on it: any other order is a miss, and so is a
    # huge coordinate, before any bit is set at it
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    q, n = 4, 9
    hit.quotient_basis(q, n)
    path = hit._cache_path(q, n)
    meta, rows = _split(path.read_bytes())
    k = next(i for i, r in enumerate(rows) if len(r) > 1)
    for bad in (rows[:k] + [rows[k][::-1]] + rows[k + 1:],  # a row descends
                rows[:k] + [[10 ** 12] + rows[k]] + rows[k + 1:],
                rows[1:] + rows[:1]):  # the smallest pivot comes last
        path.write_bytes(_join(meta, bad))
        assert hit.cached_quotient(q, n) is None
    path.write_bytes(_join(meta, rows))
    assert hit.cached_quotient(q, n) is not None


def test_any_one_bit_flip_is_a_miss_or_harmless(tmp_path, monkeypatch):
    # the loader checks every header field and the payload's CRC, so each
    # of the 8 one-bit flips of every byte is a miss
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    hit.quotient_basis(3, 7)
    path = hit._cache_path(3, 7)
    data = path.read_bytes()
    assert hit.cached_quotient(3, 7) is not None
    for k in range(len(data)):
        for bit in range(8):
            path.write_bytes(_flip(data, k, bit))
            assert hit.cached_quotient(3, 7) is None, (k, bit)


def test_kameko_kernel_is_the_exact_kernel():
    for q, n in ((3, 9), (4, 10), (4, 22)):
        src = hit.quotient_basis(q, n)
        tgt = hit.quotient_basis(q, (n - q) // 2)
        ker = hit.kameko_kernel(q, n)
        cols = []
        for m in src.admissible:
            d = poly.kameko_down(m)
            cols.append(tgt.reduce_vec(frozenset({d})) if d is not None else 0)
        for v in ker:
            img = 0
            for k in linalg.support(v):
                img ^= cols[k]
            assert img == 0
        rows = [sum(((cols[i] >> c) & 1) << i for i in range(src.dim))
                for c in range(tgt.dim)]
        assert len(ker) == src.dim - oracles.rank2(rows)
        assert oracles.rank2(list(ker)) == len(ker)


def test_kameko_kernel_rejects_bad_degree(tmp_path, monkeypatch):
    # it raises before Q^4_9 is built, so no cache file is written
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    with pytest.raises(ValueError):
        hit.kameko_kernel(4, 9)
    assert list(tmp_path.iterdir()) == []


def test_a_quotient_lists_its_kept_monomials_once(tmp_path, monkeypatch):
    # a cold build lists each kept weight block once for the stream and the
    # basis together, a load once; reducing, its weight blocks and its
    # primitives list none again
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    q, n, calls, listed = 4, 33, collections.Counter(), poly.block_monomials

    def counting(q, omega):
        calls[omega] += 1
        return listed(q, omega)

    monkeypatch.setattr(poly, "block_monomials", counting)
    low = hit._low(q, n)
    once = {omega: 1 for omega, start, _ in hit._blocks(q, n) if start >= low}
    for fetch in (hit.quotient_basis, hit.cached_quotient):
        calls.clear()
        qb = fetch(q, n)
        action.invariant_subspace(qb, action.sigma_generators(q))
        for omega in once:
            hit.weight_quotient(qb, omega).reduce_vec(frozenset())
        dual._annihilator(qb)
        assert calls == once, fetch.__name__


def test_no_degree_outlives_its_job(tmp_path, monkeypatch):
    # a cold build, a load and a reduction keep nothing once the quotients
    # are dropped: no basis, no kept monomials, no monomial index
    monkeypatch.setenv("HITQ_CACHE", str(tmp_path))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for q, n in ((4, 33), (5, 24)):
            hit.quotient_basis(q, n)  # builds and writes
            action.invariant_subspace(hit.quotient_basis(q, n),  # loads
                                      action.sigma_generators(q))
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert left < 0.25 * 2**20, left


def test_psi_keeps_nothing():
    # psi is computed level by level with no memo: after the densest
    # primitive that represents the (4,22) coinvariant, 286 terms, nothing of
    # its words or its divided monomials stays
    space = hit.quotient_basis(4, 22)
    (vec,) = action.invariant_subspace(space, action.gl_generators(4))
    e = max((p for p, col in zip(dual._annihilator(space),
                                 linalg.transpose([vec], space.dim)) if col == [0]),
            key=len)
    assert len(e) == 286
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        transfer.psi(4, e)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert left < 0.25 * 2**20, left
