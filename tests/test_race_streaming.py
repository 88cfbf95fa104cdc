"""The streaming dense races against a frozen copy of the matrix code they
replaced, their memory bounds, and a far-out mod-4 lead era checked by an
opt-in slow test (``PRIMERACES_SLOW=1``).

The frozen functions below build the whole teams x primes matrix from one
default-size sieve pass, as the package once did; the package streams the
same counts one sieve segment at a time.  Small segments put many segment
boundaries inside each race, which is where a streaming core goes wrong.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest
from scipy.special import digamma

from primeraces import pairs, races, sieve
from primeraces.errors import CapacityError, DomainError

from conftest import pair_starts, slow

TEAMS4 = [races.TeamSpec("3", {3}), races.TeamSpec("1", {1})]


# --- frozen matrix code ------------------------------------------------------

def old_dense_race(limit, q, teams):
    primes = sieve.primes_up_to(limit)
    res = primes % q
    mat = np.zeros((len(teams), len(primes)), dtype=np.int64)
    for i, t in enumerate(teams):
        hit = np.isin(res, list(t.residues))
        np.cumsum(hit, out=mat[i], dtype=np.int64)
    return primes, mat


def old_pair_race(gaps, limit):
    starts = pair_starts(limit, gaps)
    recs = [pairs.singular_factor(g // 2) for g in gaps]
    lcm = 1
    for num, _ in recs:
        lcm = lcm * num // math.gcd(lcm, num)
    scales = [den * (lcm // num) for num, den in recs]
    xs = np.unique(np.concatenate(starts))
    mat = np.zeros((len(gaps), len(xs)), dtype=np.int64)
    for i, st in enumerate(starts):
        mat[i] = np.searchsorted(st, xs, side="right") * scales[i]
    return xs, mat


def old_states(mat, place="first"):
    k = mat.shape[0]
    if k == 1:
        return np.zeros(mat.shape[1] + 1, dtype=np.int64)
    if place == "first":
        edge = mat.max(axis=0)
        holder = mat.argmax(axis=0)
    else:
        edge = mat.min(axis=0)
        holder = mat.argmin(axis=0)
    tied = (mat == edge).sum(axis=0) > 1
    state = np.where(tied, -1, holder).astype(np.int64)
    return np.concatenate(([-1], state))


def old_events(xs, mat, labels, place):
    state = old_states(mat, place)
    name = lambda i: "tie" if i < 0 else labels[i]
    return [(int(xs[i]), name(state[i]), name(state[i + 1]))
            for i in np.flatnonzero(state[1:] != state[:-1])]


def old_windows(xs, mat, limit, idx):
    on = old_states(mat)[1:] == idx
    if not on.any():
        return []
    d = np.diff(on.astype(np.int8))
    starts = np.flatnonzero(d == 1) + 1
    ends = np.flatnonzero(d == -1) + 1
    if on[0]:
        starts = np.concatenate(([0], starts))
    return [(int(xs[s]), int(xs[e]) - 1 if e < len(xs) else int(limit))
            for s, e in zip(starts, list(ends) + [len(xs)])]


def old_intervals(xs, X):
    n = int(np.searchsorted(xs, X, side="right"))
    starts = np.concatenate(([2], xs[:n]))
    ends = np.concatenate((xs[:n] - 1, [X]))
    idx = np.arange(-1, n)
    ok = starts <= ends
    return starts[ok], ends[ok], idx[ok]


def old_density(xs, mat, condition, X, kind):
    flags = np.asarray(condition(mat), dtype=bool)
    starts, ends, idx = old_intervals(xs, X)
    zero_state = np.zeros((mat.shape[0], 1), dtype=np.int64)
    flag0 = bool(np.asarray(condition(zero_state), dtype=bool)[0])
    on = np.where(idx >= 0, flags[np.maximum(idx, 0)], flag0)
    if kind == "logarithmic":
        mass = np.sum((digamma(ends[on] + 1.0) - digamma(starts[on] * 1.0)))
        return float(mass / math.log(X))
    return float(np.sum(ends[on] - starts[on] + 1) / X)


# --- differential tests ------------------------------------------------------

CONDITIONS = [
    lambda k: races.strictly_ahead(0),
    lambda k: (lambda m: m[0] >= m[min(1, k - 1)]),
    lambda k: (lambda m: np.ones(m.shape[1], dtype=bool)),
]


def _near_boundary(rng, span):
    """An x on, just before or just after the first number of a segment,
    at most 100 segments and 150,000 integers in."""
    j = rng.randint(1, max(1, min(100, 150000 // span)))
    return max(2, 3 + j * span + rng.choice((-2, -1, 0, 1, 2)))


def _random_teams(rng):
    q = rng.choice([q for q in range(1, 31) if sieve.coprime_residues(q)])
    residues = [r for r in range(q) if math.gcd(r, q) == 1]
    rng.shuffle(residues)
    k = rng.randint(1, min(4, len(residues)))
    cuts = sorted(rng.sample(range(1, len(residues) + 1), k))
    teams, lo = [], 0
    for i, hi in enumerate(cuts):
        teams.append(races.TeamSpec("t%d" % i, residues[lo:hi]))
        lo = hi
    return q, teams


def test_streaming_race_matches_the_matrix_code(segment_entries):
    rng = random.Random(9)
    default = sieve.SEGMENT_ENTRIES
    for case in range(150):
        entries = 8 * int(2 ** rng.uniform(1, 12))
        span = 2 * entries
        q, teams = _random_teams(rng)
        X = _near_boundary(rng, span)
        limit = X + rng.choice((0, 1, 2, rng.randint(0, 2 * span)))
        segment_entries(default)
        xs, mat = old_dense_race(limit, q, teams)
        segment_entries(entries)
        ledger = races.run_dense_race(limit, q, teams)
        labels = [t.label for t in teams]
        where = (case, q, labels, entries, X, limit)
        for place in ("first", "last"):
            got = [(e.x, e.previous_leader, e.new_leader)
                   for e in races.detect_lead_changes(ledger, place)]
            assert got == old_events(xs, mat, labels, place), where
        for idx, label in enumerate(labels):
            assert races.lead_windows(ledger, label) == \
                old_windows(xs, mat, limit, idx), where
        for make in CONDITIONS:
            cond = make(len(teams))
            nat = races.leader_density(ledger, cond, X, "natural")
            assert nat == old_density(xs, mat, cond, X, "natural"), where
            log = races.leader_density(ledger, cond, X, "logarithmic")
            want = old_density(xs, mat, cond, X, "logarithmic")
            assert log == pytest.approx(want, rel=1e-12, abs=1e-300), where
        assert np.array_equal(ledger.xs, xs) and \
            np.array_equal(ledger.counts, mat), where


def test_streaming_pair_race_matches_the_union_of_starts_ledger(
        segment_entries):
    rng = random.Random(10)
    default = sieve.SEGMENT_ENTRIES
    for case in range(150):
        entries = 8 * int(2 ** rng.uniform(1, 12))
        gaps = rng.sample([2, 4, 6, 8, 10, 12, 30, 64], rng.randint(1, 4))
        limit = _near_boundary(rng, 2 * entries)
        segment_entries(default)
        xs, mat = old_pair_race(gaps, limit)
        segment_entries(entries)
        labels = [str(g) for g in gaps]
        where = (case, gaps, entries, limit)
        ledger = pairs.pair_race(gaps, limit)
        for place in ("first", "last"):
            events = races.detect_lead_changes(ledger, place)
            got = [(e.x, e.previous_leader, e.new_leader) for e in events]
            assert got == old_events(xs, mat, labels, place), where
        assert np.array_equal(ledger.xs, xs) and \
            np.array_equal(ledger.counts, mat), where


@pytest.mark.parametrize("k", [255, 256])
def test_team_numbers_past_one_byte(k):
    # k one-class teams mod 257: the marker k of the classes in no team
    # fits a byte for 255 teams, not for 256
    teams = [races.TeamSpec(str(r), {r}) for r in range(1, k + 1)]
    ledger = races.run_dense_race(100000, 257, teams)
    xs, mat = old_dense_race(100000, 257, teams)
    assert np.array_equal(ledger.xs, xs) and np.array_equal(ledger.counts, mat)


def test_states_match_the_argmax_reduction():
    # small increments keep many columns tied at the edge, and between
    # rows that are not neighbours
    rng = np.random.default_rng(11)
    for k in range(1, 7):
        for _ in range(40):
            n = int(rng.integers(0, 200))
            mat = np.cumsum(rng.integers(0, 2, size=(k, n)), axis=1)
            for place in ("first", "last"):
                got = races._states(mat, place)
                assert got.dtype == np.int64
                assert np.array_equal(got, old_states(mat, place)[1:]), \
                    (k, n, place)
    with pytest.raises(DomainError):
        races._states(np.zeros((2, 3), dtype=np.int64), "middle")


# --- memory ------------------------------------------------------------------

def test_dense_race_memory_is_one_segment_not_the_matrix():
    # the teams x primes matrix at 10^7 alone is 10.6 MB of counts plus
    # 5.3 MB of primes; the matrix code peaked at 47 MiB, the stream at
    # 12.5, and at 10.5 with each block built in place
    tracemalloc.start()
    try:
        ledger = races.run_dense_race(10**7, 4, TEAMS4)
        events = races.detect_lead_changes(ledger)
        races.leader_density(ledger, races.strictly_ahead(0), 10**7,
                             "logarithmic")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 0
    assert peak < 12 * 2**20, peak / 2**20


def test_pair_race_memory_is_one_segment_of_masks():
    # one segment, one pair buffer, the union's starts and one block of
    # scaled counts: 19.7 MiB when each block was copied on its way out,
    # 15.3 with each built in place, 10.2 with one pair buffer in place of
    # five masks
    tracemalloc.start()
    try:
        events = races.detect_lead_changes(
            pairs.pair_race([2, 4, 6, 8, 10], 2 * 10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) > 0
    assert peak < 12 * 2**20, peak / 2**20


def test_ledger_past_1e9_refuses_to_hold_its_samples_before_sieving():
    ledger = races.run_dense_race(10**9 + 1, 4, TEAMS4)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="above HELD_CAP 1000000000"):
            ledger.xs
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16, peak


# --- a far-out mod-4 era, checked instead of quoted --------------------------

@slow  # sieves 9.5e8
def test_mod4_lead_era_near_952_million():
    # strict convention: the era ends where team 1 last leads strictly;
    # the prime 952,223,491 = 3 (mod 4) then ties the race until 952,223,507
    ledger = races.run_dense_race(952_300_000, 4, TEAMS4)
    era = [w for w in races.lead_windows(ledger, "1") if w[0] > 10**8]
    assert (era[0][0], era[-1][1], len(era)) == \
        (951_784_481, 952_223_490, 182)
    after = [e for e in races.detect_lead_changes(ledger)
             if e.x > era[-1][1]]
    assert (after[0].x, after[0].previous_leader, after[0].new_leader) == \
        (952_223_491, "1", "tie")
    assert (after[1].x - 1, after[1].new_leader) == (952_223_506, "3")


@slow  # sieves 6.4e9 twice
def test_mod4_lead_era_near_6_3_billion():
    # quoted from its first tie to its last tie, unlike the strict era above
    lo, hi = 6_309_280_697, 6_403_150_363
    ledger = races.run_dense_race(6_403_200_000, 4, TEAMS4)
    era = [w for w in races.lead_windows(ledger, "1") if lo <= w[0] < hi]
    assert (era[0][0], era[-1][1], len(era)) == \
        (6_309_280_709, 6_403_150_198, 3_117)
    events = [(e.x, e.previous_leader, e.new_leader)
              for e in races.detect_lead_changes(ledger)]
    assert (lo, "3", "tie") in events and (hi, "tie", "3") in events
    # strict windows read off the events agree with lead_windows, and show
    # team 3 briefly ahead again three times near the end of the span
    spans = {lab: [(a[0], b[0] - 1) for a, b in zip(events, events[1:])
                   if a[2] == lab and lo <= a[0] < hi] for lab in "13"}
    assert spans["1"] == era
    assert spans["3"][-3:] == [(6_403_149_659, 6_403_149_672),
                               (6_403_149_799, 6_403_150_152),
                               (6_403_150_219, 6_403_150_356)]
