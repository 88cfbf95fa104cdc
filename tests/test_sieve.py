import bisect
import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeraces import pairs, sieve
from primeraces.errors import CapacityError, DomainError, ParseError

import published_tables as pub
from conftest import counts_by_x


def counts_map(limit, q, xs):
    return counts_by_x(sieve.count_in_progressions(limit, q, xs))


def pair_rows(limit, gaps, xs):
    """[(x, count)] per gap, from count_pairs_by_gap's one array."""
    counts = sieve.count_pairs_by_gap(limit, gaps, xs)
    return [list(zip(xs, col)) for col in counts.T.tolist()]


def test_enumerate_smallest_prime():
    assert sieve.count_primes(2) == 1
    assert sieve.primes_up_to(2).tolist() == [2]


def test_enumerate_matches_trial_division(oracle_primes_1e5):
    got = sieve.primes_up_to(10**5)
    assert np.array_equal(got, oracle_primes_1e5)
    assert sieve.count_primes(10**5) == len(oracle_primes_1e5)


def test_pi_10k_trial_division_oracle():
    # frozen from the trial-division oracle
    assert sieve.count_primes(10**4) == 1229


def test_prime_divisors_and_is_prime_against_the_sieve():
    primes = sieve.primes_up_to(2000).tolist()
    for n in range(1, 2001):
        want = [p for p in primes if n % p == 0]
        assert sieve.prime_divisors(n) == want
        assert sieve.is_prime(n) == (want == [n])
    assert not sieve.is_prime(0) and not sieve.is_prime(-7)


def test_visitor_ascending_once_each():
    seen = sieve.primes_up_to(10**4).tolist()
    total = sieve.count_primes(10**4)
    assert total == len(seen) == 1229
    assert seen == sorted(set(seen))


def test_lucy_matches_the_sieve():
    # x = 2, 3, 4, the neighbours of each prime square (where a prime's
    # first term enters the recursion) and random x, all <= 2e6
    top = 2 * 10**6
    ps = sieve.primes_up_to(top)
    rng = random.Random(20261019)
    xs = [2, 3, 4] + [p * p + d for p in ps[:300].tolist() for d in (-1, 0, 1)]
    xs = [x for x in xs if x <= top] + [rng.randrange(5, top + 1)
                                        for _ in range(300)]
    want = np.searchsorted(ps, xs, side="right").tolist()
    assert [sieve._lucy(x) for x in xs] == want


@pytest.mark.parametrize("x, pi_x", [r[:2] for r in pub.PI_OVERCOUNT_ROWS])
def test_count_primes_published(x, pi_x):
    assert sieve.count_primes(x) == pi_x


def test_lucy_below_two_is_zero():
    assert [sieve._lucy(x) for x in (-5, 0, 1)] == [0, 0, 0]


def test_limit_validation():
    with pytest.raises(DomainError):
        sieve.count_primes(1)
    with pytest.raises(CapacityError):
        sieve.count_primes(10**10 + 1)
    assert sieve.count_primes(2 * 10**9) == 98222287  # no opt-in below it


def test_held_primes_are_refused_past_1e9_before_any_sieving():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="above HELD_CAP 1000000000"):
            sieve.primes_up_to(10**9 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


def test_mod4_table_rows():
    xs = [r[0] for r in pub.MOD4_ROWS]
    got = counts_map(10**5, 4, xs)
    for x, t3, t1 in pub.MOD4_ROWS:
        assert got[x] == {3: t3, 1: t1}


def test_mod10_table_rows():
    xs = [r[0] for r in pub.MOD10_ROWS]
    got = counts_map(10**6, 10, xs)
    for x, d1, d3, d7, d9 in pub.MOD10_ROWS:
        assert got[x] == {1: d1, 3: d3, 7: d7, 9: d9}


def test_mod8_table_rows():
    xs = [r[0] for r in pub.MOD8_ROWS]
    got = counts_map(10**6, 8, xs)
    for x, a1, a3, a5, a7 in pub.MOD8_ROWS:
        assert got[x] == {1: a1, 3: a3, 5: a5, 7: a7}


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 10, 163])
def test_partition_identity(q, primes_1e6):
    xs = [97, 10**4, 10**6]
    got = counts_map(10**6, q, xs)
    for x in xs:
        pi_x = int(np.searchsorted(primes_1e6, x, side="right"))
        dividing = sum(1 for p in (2, 3, 5, 7, 163)
                       if q % p == 0 and p <= x)
        assert sum(got[x].values()) + dividing == pi_x


def test_monotone_unit_increments(oracle_primes_1e5):
    xs = list(range(2, 300))
    got = counts_map(300, 4, xs)
    totals = [sum(got[x].values()) + (1 if x >= 2 else 0) for x in xs]
    prime_set = set(int(p) for p in oracle_primes_1e5)
    for prev, cur in zip(xs, xs[1:]):
        for a in (1, 3):
            step = got[cur][a] - got[prev][a]
            assert step in (0, 1)
            if step == 1:
                assert cur in prime_set
    assert all(b >= a for a, b in zip(totals, totals[1:]))


def test_asymptotic_split_mod4_at_1e7():
    got = counts_map(10**7, 4, [10**7])[10**7]
    assert 0.99 < got[3] / got[1] < 1.01


def test_checkpoint_between_segments(segment_entries):
    # even checkpoints and checkpoints straddling segment boundaries
    ref = counts_map(1000, 4, [2, 33, 34, 1000])
    segment_entries(16)
    assert counts_map(1000, 4, [2, 33, 34, 1000]) == ref


def test_progressions_count_the_prime_two():
    assert counts_map(2, 1, [1, 2]) == {1: {0: 0}, 2: {0: 1}}
    assert counts_map(10, 3, [1, 2, 3]) == {
        1: {1: 0, 2: 0}, 2: {1: 0, 2: 1}, 3: {1: 0, 2: 1}}


def test_pair_counts_small():
    assert pair_rows(10, [2], [10]) == [[(10, 2)]]  # (3,5), (5,7)
    assert pair_rows(1000, [2, 6], [1000]) == [[(1000, 35)], [(1000, 74)]]
    for gaps in ([2, 2], [], [2, 3], [3]):
        with pytest.raises(DomainError):
            sieve.count_pairs_by_gap(100, gaps, [100])


def test_gap_and_table_caps(monkeypatch):
    gaps = list(range(2, 2 * sieve.GAP_CAP + 1, 2))
    assert sieve.count_pairs_by_gap(300, gaps, [100]).shape == (1, 100)
    with pytest.raises(CapacityError, match="gaps above the cap 100"):
        sieve.count_pairs_by_gap(300, gaps + [2 * sieve.GAP_CAP + 2], [100])
    # 4 classes mod 5: a table of 5 checkpoints fits a cap of 20 cells, one
    # of 6 is refused before anything is sieved
    monkeypatch.setattr(sieve, "TABLE_CELL_CAP", 20)
    assert counts_map(100, 5, range(96, 101))[100] == {1: 5, 2: 7, 3: 7, 4: 5}
    monkeypatch.setattr(sieve, "_segments", None)
    with pytest.raises(CapacityError, match="above the cap of 20 cells"):
        sieve.count_in_progressions(100, 5, range(95, 101))


def test_pair_visitor_values(oracle_primes_1e5):
    # the pair starts are the x at which the count at every x steps up
    ps = set(int(p) for p in oracle_primes_1e5)
    xs = list(range(1, 501))
    steps = np.diff(sieve.count_pairs_by_gap(500, [4], xs)[:, 0], prepend=0)
    expected = [p for p in sorted(ps) if p <= 500 and p + 4 in ps]
    assert [x for x, d in zip(xs, steps) if d] == expected
    assert set(steps.tolist()) == {0, 1}


@pytest.mark.parametrize("segment_size", [2**10, 2**16, 2**20])
def test_pair_counts_segment_invariance(segment_size, segment_entries):
    gaps = (2, 6, 30)
    xs = range(1, 10**5 + 1)
    default = sieve.count_pairs_by_gap(10**5, gaps, xs)
    segment_entries(8 * segment_size)
    assert np.array_equal(sieve.count_pairs_by_gap(10**5, gaps, xs), default)


def test_count_invariance_under_segment_size(segment_entries):
    # primes_up_to sieves; count_primes (Lucy) reads no segments
    for size in (2**10, 2**16, 2**20):
        segment_entries(8 * size)
        assert len(sieve.primes_up_to(10**5)) == 9592
    # read on each pass, not bound at import: 499 odd numbers, 32 segments
    segment_entries(16)
    assert len(list(sieve._segments(1000))) == 32
    assert len(sieve.primes_up_to(1000)) == 168


@pytest.mark.parametrize("gap", [2, 6, 30, 64])
def test_pair_counts_at_straddle_segments(gap, oracle_primes_1e5,
                                          segment_entries):
    # 16-entry segments cover 3..33, 35..65, ...; gap 64 looks two
    # segments ahead of the window it counts in
    segment_entries(16)
    xs = [2, 3, 33, 34, 35, 36, 65, 66, 67, 97, 98, 999, 1000]
    ps = set(int(p) for p in oracle_primes_1e5)
    want = [(x, sum(1 for p in ps if p <= x and p + gap in ps)) for x in xs]
    assert pair_rows(1000, [gap], xs)[0] == want
    assert pair_rows(999, [gap], xs[:-1])[0] == want[:-1]


@pytest.mark.parametrize("entries, gaps, limit", [
    (8, [2, 40], 5000), (16, [4, 6, 70, 128], 4999), (64, [2, 30, 300], 5000)])
def test_pair_kernel_against_trial_division(entries, gaps, limit,
                                            oracle_primes_1e5,
                                            segment_entries):
    # a segment spans 2 * entries integers, so the largest gap looks past
    # the next segment; both passes share one buffer across gaps
    segment_entries(entries)
    ps = set(oracle_primes_1e5.tolist())
    starts = [[p for p in sorted(ps) if p <= limit and p + g in ps]
              for g in gaps]
    xs = list(range(1, limit + 1))
    assert sieve.count_pairs_by_gap(limit, gaps, xs).tolist() == \
        [[bisect.bisect_right(st, x) for st in starts] for x in xs]
    # the race samples the union of starts, each gap's scaled count there
    union = sorted(set().union(*starts))
    ledger = pairs.pair_race(gaps, limit)
    assert ledger.xs.tolist() == union
    assert ledger.counts.tolist() == [
        [bisect.bisect_right(st, x) * s for x in union]
        for st, s in zip(starts, pairs._scaled_teams(gaps))]


def test_pair_tally_memory_does_not_grow_with_the_gaps():
    # every gap's pair mask is written to one buffer, so a gap must not
    # add a segment-sized mask (about 1 MiB here) to the peak
    def peak(gaps):
        tracemalloc.start()
        try:
            sieve.count_pairs_by_gap(2 * 10**6, gaps, [10**6, 2 * 10**6])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, twenty = peak([2]), peak(list(range(2, 42, 2)))
    assert twenty - one < sieve.SEGMENT_ENTRIES, (one, twenty)


def test_mark_segment_matches_small_primes():
    # lo below, at and just past a prime square, and segments ending on one
    rng = random.Random(20261018)
    odd = sieve.small_primes(400)[1:].tolist()
    for _ in range(400):
        p = rng.choice(odd)
        n = rng.randint(1, 300)
        lo = max(3, rng.choice([p * p - 2 * rng.randint(1, 300), p * p,
                                p * p + 2, p * p - 2 * (n - 1)]))
        hi = lo + 2 * (n - 1)
        ref = set(sieve.small_primes(hi).tolist())
        # a base longer than isqrt(hi) must not change the mask
        base = sieve.small_primes(math.isqrt(hi) + rng.choice([0, 50]))[1:]
        got = sieve._mark_segment(lo, n, base)
        assert got.tolist() == [lo + 2 * i in ref for i in range(n)], (lo, n)


def test_mark_segment_keeps_the_wheel_primes():
    # segments starting on, between and just past 3, 5, 7, 11 and 13
    base = sieve.small_primes(20)[1:]
    ref = set(sieve.small_primes(120).tolist())
    for lo in range(3, 32, 2):
        for n in range(1, 41):
            got = sieve._mark_segment(lo, n, base)
            assert got.tolist() == [lo + 2 * i in ref for i in range(n)], \
                (lo, n)


@pytest.mark.parametrize("lo", [sieve.HARD_CAP - 4001, 2**31 - 301])
def test_mark_segment_far_out(lo):
    n = 150
    base = sieve.small_primes(math.isqrt(lo + 2 * (n - 1)))[1:]
    got = sieve._mark_segment(lo, n, base)
    assert got.tolist() == [sieve.is_prime(lo + 2 * i) for i in range(n)]


def test_default_segments_cross_wheel_periods():
    # three segments of the default size, the later two starting in the
    # middle of a 15,015-entry wheel period, the last one short
    extra = 210
    limit = 4 * sieve.SEGMENT_ENTRIES + 3 * 30030 + 1
    ref = np.zeros(limit + extra + 1, dtype=bool)
    ref[sieve.small_primes(limit + extra)] = True
    los = []
    for lo, n, seg in sieve._segments(limit, extra):
        assert np.array_equal(seg, ref[lo:lo + 2 * len(seg):2]), lo
        los.append(lo)
    assert [(lo - 1) // 2 % 15015 for lo in los] == [1, 12542, 10068]


def test_segments_match_small_primes(segment_entries):
    # every segment, the short last one and the run past the limit included
    rng = random.Random(20261019)
    for _ in range(200):
        entries = segment_entries(8 * 2 ** rng.randint(1, 8))
        limit = rng.randint(2, 6000)
        extra = rng.choice([0, 2, 64, 210])
        ref = set(sieve.small_primes(limit + extra).tolist())
        covered = []
        for lo, n, seg in sieve._segments(limit, extra):
            assert n <= entries and len(seg) == n + extra // 2
            assert seg.tolist() == [lo + 2 * i in ref
                                    for i in range(len(seg))], (lo, n)
            covered += range(lo, lo + 2 * n, 2)
        assert covered == list(range(3, limit + 1, 2))


def test_pairs_by_gap_match_one_gap_calls(oracle_primes_1e5, segment_entries):
    ps = oracle_primes_1e5.tolist()
    prime = set(ps)
    rng = random.Random(20261020)
    for _ in range(40):
        span = 2 * segment_entries(8 * 2 ** rng.randint(1, 15))
        gaps = rng.sample([2, 6, 30, 64, 210], rng.randint(1, 5))
        limit = rng.randint(2, 20000)
        # checkpoints straddling segment boundaries, and a few at random
        xs = {lo + d for lo in range(3, limit + 1, span)
              for d in (-2, -1, 0, 1, 2)}
        xs |= set(rng.sample(range(1, limit + 1), min(limit, 20)))
        xs = sorted(x for x in xs if 1 <= x <= limit)
        counts = pair_rows(limit, gaps, xs)
        every = sieve.count_pairs_by_gap(limit, gaps, range(1, limit + 1))
        for gap, got, col in zip(gaps, counts, every.T):
            want = [p for p in ps if p <= limit and p + gap in prime]
            assert np.array_equal(col, np.searchsorted(
                want, np.arange(1, limit + 1), side="right")), (gap, limit)
            assert got == [(x, bisect.bisect_right(want, x)) for x in xs]
            assert np.array_equal(col, sieve.count_pairs_by_gap(
                limit, [gap], range(1, limit + 1))[:, 0])
            assert got == pair_rows(limit, [gap], xs)[0]


def _tally_one_count_per_checkpoint(segments, q, checkpoints, two):
    """Frozen reference: the checkpoint tally as one count_nonzero over the
    segment prefix per checkpoint and residue class."""
    residues = sieve.coprime_residues(q)
    running = dict.fromkeys(residues, 0)
    out = []

    def snapshot(x, lo, mask, stop):
        counts = {}
        for a in residues:
            i0, stride = sieve._residue_offset(lo, q, a)
            counts[a] = running[a] + int(np.count_nonzero(
                mask[i0:stop:stride]))
        if two and x >= 2 and q % 2 == 1:
            counts[2 % q] += 1
        out.append((x, counts))

    for lo, n, mask in segments:
        hi = lo + 2 * (n - 1)
        while len(out) < len(checkpoints) and checkpoints[len(out)] <= hi:
            x = checkpoints[len(out)]
            snapshot(x, lo, mask, max(0, (x - lo) // 2 + 1))
        for a in residues:
            i0, stride = sieve._residue_offset(lo, q, a)
            running[a] += int(np.count_nonzero(mask[i0::stride]))
    for x in checkpoints[len(out):]:
        snapshot(x, 3, np.empty(0, dtype=bool), 0)
    return out


def _masks(limit, gap):
    """(lo, n, mask) per segment: the primes, or with a gap the pair masks
    that count_pairs_by_gap hands its tally, copied out of its buffer."""
    if not gap:
        return list(sieve._segments(limit))
    seen = []

    class Keep(sieve._Tally):
        def add(self, lo, n, mask):
            seen.append((lo, n, mask.copy()))
            super().add(lo, n, mask)

    with mock.patch.object(sieve, "_Tally", Keep):
        sieve.count_pairs_by_gap(limit, [gap], [limit])
    return seen


def test_tally_matches_one_count_per_checkpoint(segment_entries):
    rng = random.Random(20260418)
    for _ in range(150):
        size = 2 ** rng.randint(1, 15)
        q = rng.randint(1, 30)
        gap = rng.choice([0, 2, 6, 30])
        limit = rng.randint(2, 20000)
        xs = sorted(rng.sample(range(1, limit + 1),
                               min(limit, rng.randint(0, 300))))
        segment_entries(8 * size)
        segments = _masks(limit, gap)
        if gap:
            tally = sieve._Tally(q, xs)
            for seg in segments:
                tally.add(*seg)
            got = tally.finish()
        else:  # count_in_progressions adds the prime 2 after the pass
            got = sieve.count_in_progressions(limit, q, xs).counts
        residues = sieve.coprime_residues(q)
        assert [(x, dict(zip(residues, row)))
                for x, row in zip(xs, got.tolist())] == \
            _tally_one_count_per_checkpoint(segments, q, xs, not gap), \
            (size, q, gap, limit)


# ---------------------------------------------------------------------------
# checkpoint files

def test_checkpoint_roundtrip(tmp_path):
    rows = sieve.count_in_progressions(10**4, 4, [100, 1000, 10000])
    path = tmp_path / "mod4.chk"
    path.write_text(sieve.format_checkpoints(rows))
    back = sieve.checkpoint_load(path)
    assert (rows.modulus, counts_by_x(rows)) == \
        (back.modulus, counts_by_x(back))


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                min_size=0, max_size=8))
@settings(max_examples=30, deadline=None)
def test_checkpoint_roundtrip_random(tmp_path_factory, rows):
    xs = sorted({2 + i for i, _ in enumerate(rows)})
    recs = sieve.ResidueCounts(4, np.array(xs, dtype=np.int64), [1, 3],
                               np.array(rows, dtype=np.int64).reshape(-1, 2))
    path = tmp_path_factory.mktemp("chk") / "r.chk"
    path.write_text(sieve.format_checkpoints(recs))
    back = sieve.checkpoint_load(path)
    assert counts_by_x(recs) == counts_by_x(back)


def test_checkpoint_load_empty(tmp_path):
    path = tmp_path / "empty.chk"
    path.write_text("")
    table = sieve.checkpoint_load(path)
    assert table.modulus is None and table.residues == []
    assert table.xs.shape == (0,) and table.counts.shape == (0, 0)
    assert sieve.format_checkpoints(table) == ""


def test_checkpoint_load_comments_only(tmp_path):
    path = tmp_path / "c.chk"
    path.write_text("# modulus=4\n# nothing else\n")
    table = sieve.checkpoint_load(path)
    assert table.modulus == 4 and counts_by_x(table) == {}


def test_checkpoint_load_non_monotone(tmp_path):
    path = tmp_path / "bad.chk"
    path.write_text("# modulus=4\n100,1:11,3:13\n50,1:5,3:6\n")
    with pytest.raises(ParseError) as err:
        sieve.checkpoint_load(path)
    assert err.value.line == 3


def test_checkpoint_load_bad_field(tmp_path):
    path = tmp_path / "bad2.chk"
    # a count must fit the table's int64
    for count in ("eleven", "-1", str(2**63)):
        path.write_text("# modulus=4\n100,1:%s\n" % count)
        with pytest.raises(ParseError) as err:
            sieve.checkpoint_load(path)
        assert err.value.line == 2


def test_checkpoint_header_required(tmp_path):
    path = tmp_path / "nohdr.chk"
    path.write_text("100,1:11,3:13\n")
    with pytest.raises(ParseError):
        sieve.checkpoint_load(path)


def test_checkpoint_load_residues_differ(tmp_path):
    path = tmp_path / "bad3.chk"
    path.write_text("# modulus=4\n100,1:11,3:13\n1000,1:80\n")
    with pytest.raises(ParseError) as err:
        sieve.checkpoint_load(path)
    assert err.value.line == 3


def test_column_of_a_class_not_in_the_table():
    table = sieve.count_in_progressions(1000, 4, [100, 1000])
    assert table.column(3).tolist() == [13, 87]
    for a in (0, 2, 5, -1):
        with pytest.raises(DomainError):
            table.column(a)
