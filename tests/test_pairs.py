import math
import random

import numpy as np
import pytest

from primeraces import cli, lfunctions, pairs, sieve
from primeraces.errors import CapacityError, DomainError

import published_tables as pub
from conftest import pair_starts


@pytest.fixture(scope="module")
def c2():
    return pairs.compute_c2(10**7)


def test_c2_value(c2):
    # first eight digits of the slowly convergent product
    assert c2.c2 == pytest.approx(0.6601618, abs=1e-6)
    assert c2.c2_error_bound < 1e-6


def test_c2_single_factor():
    got = pairs.compute_c2(3)
    assert got.c2 == pytest.approx(0.75, rel=1e-15)
    assert got.c2_error_bound > 0


def test_c2_monotone_refinement():
    prev = pairs.compute_c2(10**4)
    for limit in (2 * 10**4, 4 * 10**4, 8 * 10**4):
        cur = pairs.compute_c2(limit)
        # the product only decreases, and stays inside the prior interval
        assert prev.c2 - prev.c2_error_bound <= cur.c2 <= prev.c2
        prev = cur


def test_singular_factors():
    assert pairs.singular_factor(1) == (1, 1)
    assert pairs.singular_factor(3) == (2, 1)
    assert pairs.singular_factor(15) == (8, 3)
    num, den = pairs.singular_factor(15)
    assert num / den == pytest.approx(8 / 3)
    assert pairs.singular_factor(4) == (1, 1)  # powers of two drop out
    assert pairs.singular_factor(9) == (2, 1)  # repeated primes count once


def test_normalized_counts():
    counts = sieve.count_pairs_by_gap(10**3, [2, 6], [10**3])
    assert np.array_equal(pairs.normalized_count(2, counts[:, 0]),
                          counts[:, 0])
    assert pairs.normalized_count(6, counts[:, 1])[0] == pytest.approx(37.0)


def test_normalization_linearity():
    norm = pairs.normalized_count(30, np.array([8, 80]))
    assert norm[1] == pytest.approx(10 * norm[0])


def test_hl_prediction_rows():
    for x, want in pub.HL_PREDICTION.items():
        assert abs(pairs.hl_prediction(x) - want) <= 1


def test_hl_prediction_at_two():
    assert pairs.hl_prediction(2) == 0.0


def test_pair_table_pow2_rows():
    gaps = (2, 4, 8, 16)
    counts = sieve.count_pairs_by_gap(
        10**6, gaps, [r[0] for r in pub.PAIR_POW2_ROWS])
    for (x, *cols), got in zip(pub.PAIR_POW2_ROWS, counts.tolist()):
        assert got == cols, x


def test_pair_table_rows_to_1e7():
    gaps = (2, 4, 6, 8, 10)
    xs = [r[0] for r in pub.PAIR_ROWS]
    counts = sieve.count_pairs_by_gap(10**7, gaps, xs)
    for (x, *cols), got in zip(pub.PAIR_ROWS, counts.tolist()):
        assert got == cols, x


def test_twin_table_differences():
    gaps = (2, 4, 6, 8, 10)
    xs = sorted(pub.HL_DIFF_ROWS)
    rows = pairs.twin_table(gaps, xs)
    by_cell = {(r["x"], r["gap"]): r for r in rows}
    for x, diffs in pub.HL_DIFF_ROWS.items():
        for gap, want in zip(gaps, diffs):
            r = by_cell[(x, gap)]
            close = min(abs(r["difference_rounded"] - want),
                        abs(r["difference_vs_floored"] - want))
            assert close <= 1, (x, gap, r)


def test_prediction_tracks_counts_within_two_sqrt_x():
    worst = 0.0
    for gap in range(2, 101, 2):
        rows = pairs.twin_table([gap], [10**3, 10**4, 10**5, 10**6])
        for r in rows:
            ratio = abs(r["difference"]) / math.sqrt(r["x"])
            worst = max(worst, ratio)
            assert ratio < 2.0, (gap, r["x"])
    print("max |pi'_2k - prediction| / sqrt(x) over gaps<=100: %.4f" % worst)


def test_gap6_to_gap2_ratio_at_1e7():
    p2, p6 = sieve.count_pairs_by_gap(10**7, [2, 6], [10**7])[0]
    assert 1.9 < p6 / p2 < 2.1


def test_pair_race_checkpoint_counts():
    ledger, _ = pairs.pair_race([2, 4, 8, 16], 10**6)
    # scale factors are all 1 for powers of two
    assert list(ledger.counts[:, -1]) == [8169, 8144, 8242, 8210]


def test_pair_race_dense_leader_is_gap8_at_1e6():
    ledger, events = pairs.pair_race([2, 4, 6, 8, 10], 10**6)
    assert len(events) > 0
    idx = {lab: i for i, lab in enumerate(ledger.labels)}
    final = ledger.counts[:, -1]
    assert ledger.labels[int(np.argmax(final))] == "8"


def test_dense_pair_race_samples_the_union_of_starts(segment_entries):
    rng = random.Random(20261018)
    for _ in range(30):
        segment_entries(8 * 2 ** rng.randint(1, 12))
        gaps = rng.sample([2, 4, 6, 8, 10, 30, 64], rng.randint(1, 5))
        limit = rng.randint(2, 20000)
        ledger, _ = pairs.pair_race(gaps, limit)
        starts = pair_starts(limit, gaps)
        assert np.array_equal(ledger.xs, np.unique(np.concatenate(starts)))
        assert ledger.xs.dtype == np.int64


def test_pair_race_single_gap_no_events():
    _, events = pairs.pair_race([2], 10**5)
    assert events == []


def test_pair_race_distinct_gaps():
    with pytest.raises(DomainError):
        pairs.pair_race([2, 2], 10**4)
    with pytest.raises(DomainError):
        pairs.twin_table([2, 2], [10])
    with pytest.raises(DomainError):
        pairs.twin_table([], [10])
    with pytest.raises(DomainError, match="no checkpoints"):
        pairs.twin_table([2], [])
    with pytest.raises(DomainError, match="ascending"):
        pairs.twin_table([2], [1000, 100])


def test_pair_race_scales_that_overflow_int64_are_refused(tmp_path,
                                                          capsys):
    # the exact scaled counts here are about 3.4e20, past int64
    with pytest.raises(CapacityError, match="int64"):
        pairs.pair_race([2, 99998, 99986, 99982, 99914], 10**6)
    out = tmp_path / "race.csv"
    gaps = ("99754,99782,99838,99842,99854,99874,99878,99886,99914,99982,"
            "99986,99998")
    code = cli.main(["twins", "--limit", "1000", "--race", "--gaps", gaps,
                     "--out", str(out)])
    _, err = capsys.readouterr()
    assert code == 3 and "int64" in err and "Traceback" not in err
    assert not out.exists()
    # the default gaps' scales stay within int64 up to the hard cap
    scales = pairs._scaled_teams([2, 4, 6, 8, 10])
    assert scales == [4, 4, 2, 4, 3]
    assert max(scales) * (sieve.HARD_CAP // 2 + 1) < 2**63


def test_pair_race_bounds_by_pi_where_the_odd_count_overflows():
    # scale 3.3e12 times 1.5e7 odd numbers is past int64, times
    # pi(3e7) = 1,857,859 is not; the largest scaled count is 5.1e17
    ledger, _ = pairs.pair_race([99706, 99814, 99860, 99964], 3 * 10**7)
    assert int(ledger.counts.max()) == 511_908_441_833_748_960


def test_pair_race_cap_names_limit_plus_gap():
    with pytest.raises(CapacityError, match=r"^limit 9999999950 \+ largest "
                       r"gap 100 exceeds hard cap 10000000000$"):
        pairs.pair_race([2, 100], 10**10 - 50)


def test_c2_cached(c2):
    assert pairs.compute_c2() is c2
    assert pairs.hl_prediction(10**6) == 2.0 * c2.c2 * lfunctions.li2(10**6)


def test_gap_validation():
    for bad in (0, -2, 3):
        for call in (lambda: sieve.count_pairs_by_gap(1000, [bad], [1000]),
                     lambda: pairs.pair_race([2, bad], 1000),
                     lambda: pairs.twin_table([2, bad], [1000])):
            with pytest.raises(DomainError, match="gap"):
                call()
    with pytest.raises(DomainError):
        pairs.compute_c2(2)
