import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from primeraces import cli, races, sieve
from primeraces.errors import DomainError

import published_tables as pub
from conftest import counts_by_x

TEAMS4 = [races.TeamSpec("3", {3}), races.TeamSpec("1", {1})]


@pytest.fixture(scope="module")
def dense4_30k():
    return races.run_dense_race(30000, 4, TEAMS4)


@pytest.fixture(scope="module")
def dense4_1e7():
    return races.run_dense_race(10**7, 4, TEAMS4)


def race_table(capsys, *argv):
    """Rows of the CLI race table, as JSON."""
    assert cli.main(["race", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def test_mod3_race_table(capsys):
    xs = ",".join(str(r[0]) for r in pub.MOD3_ROWS)
    rows = race_table(capsys, "--modulus", "3", "--teams", "2:1",
                      "--limit", "1e7", "--checkpoints", xs)
    assert rows == [{"x": x, "counts": {"2": t2, "1": t1}}
                    for x, t2, t1 in pub.MOD3_ROWS]


def test_run_race_rejects_overlap_and_noncoprime(capsys):
    for teams in ([races.TeamSpec("a", {3}), races.TeamSpec("b", {3})],
                  [races.TeamSpec("a", {2})]):
        with pytest.raises(DomainError):
            races.run_dense_race(100, 4, teams)
    for text in ("3:3", "2", "1:5"):
        assert cli.main(["race", "--modulus", "4", "--teams", text,
                         "--limit", "100"]) == 2


def test_single_all_residue_team_matches_partition(capsys, primes_1e6):
    rows = race_table(capsys, "--modulus", "10", "--teams", "1,3,7,9",
                      "--limit", "1e6")
    pi_x = len(primes_1e6)
    # primes 2 and 5 divide 10
    assert rows == [{"x": 10**6, "counts": {"1,3,7,9": pi_x - 2}}]


def test_first_lead_at_26861(dense4_30k):
    events = races.detect_lead_changes(dense4_30k)
    lead1 = [e for e in events if e.new_leader == "1"]
    assert lead1[0].x == pub.FIRST_LEAD_X
    after = [e for e in events if e.x > pub.FIRST_LEAD_X]
    assert after[0].x == pub.TIE_RESTORED_X and after[0].new_leader == "tie"


def test_lead_windows_ground_truth(dense4_30k):
    assert races.lead_windows(dense4_30k, "1") == [(26861, 26862)]
    with pytest.raises(DomainError, match="'x'"):
        races.lead_windows(dense4_30k, "x")


def test_first_lead_margin_is_one_prime():
    rc = counts_by_x(sieve.count_in_progressions(30000, 4, [26861]))[26861]
    assert rc[1] - rc[3] == 1


def test_lead_change_count_consistency(dense4_30k):
    # replay the event stream: states alternate and x values ascend
    events = races.detect_lead_changes(dense4_30k)
    xs = [e.x for e in events]
    assert xs == sorted(xs)
    for prev, cur in zip(events, events[1:]):
        assert prev.new_leader == cur.previous_leader


def test_single_team_race_has_no_events():
    ledger = races.run_dense_race(10**4, 4, [races.TeamSpec("3", {3})])
    assert races.detect_lead_changes(ledger) == []


def test_dense_race_takes_any_iterable_and_refuses_no_teams():
    ledger = races.run_dense_race(30000, 4, iter(TEAMS4))
    assert races.detect_lead_changes(ledger) == races.detect_lead_changes(
        races.run_dense_race(30000, 4, TEAMS4))
    assert ledger.labels == ["3", "1"]
    with pytest.raises(DomainError, match="team"):
        races.run_dense_race(30000, 4, [])


def _count_passes(ledger):
    """Wrap the ledger's chunk source: returns [calls, blocks yielded]."""
    seen, source = [0, 0], ledger.chunks

    def chunks():
        seen[0] += 1
        for block in source():
            seen[1] += 1
            yield block
    ledger.chunks = chunks
    return seen


def test_each_fold_is_one_pass_that_stops_at_X(segment_entries):
    segment_entries(512)
    ledger = races.run_dense_race(30000, 4, TEAMS4)
    blocks = [xs for xs, _ in ledger.chunks()]
    for fold in (lambda: races.detect_lead_changes(ledger),
                 lambda: races.lead_windows(ledger, "1"),
                 lambda: races.leader_density(
                     ledger, races.strictly_ahead(0), 30000, "natural")):
        seen = _count_passes(ledger)
        fold()
        assert seen == [1, len(blocks)]
    # X inside a block, or its last sample, draws no block after it
    for j, X in ((0, 2), (3, int(blocks[3][5])), (3, int(blocks[3][-1]))):
        seen = _count_passes(ledger)
        races.leader_density(ledger, races.strictly_ahead(0), X, "natural")
        assert seen == [1, j + 1], X


def test_dense_xs_and_counts_share_one_pass():
    ledger = races.run_dense_race(10**5, 4, TEAMS4)
    seen = _count_passes(ledger)
    xs, counts = ledger.xs, ledger.counts
    assert seen[0] == 1 and ledger.xs is xs and ledger.counts is counts
    assert counts.shape == (2, len(xs)) and xs[-1] == 99991


def test_error_term_values():
    assert races.error_term(100, 4, 3, 25, 13) == \
        pytest.approx(0.2302585092994046, abs=1e-12)
    assert races.error_term(100, 4, 1, 25, 11) == \
        pytest.approx(-0.6907755278982138, abs=1e-12)
    assert races.error_term(100, 4, 1, 24, 12) == 0.0
    for x in (2, math.nan):
        with pytest.raises(DomainError, match="x >= 3"):
            races.error_term(x, 4, 1, 1, 1)
    with pytest.raises(DomainError):
        races.error_term(100, 4, 2, 25, 13)


def test_littlewood_bound_domain():
    # sqrt(x) ln ln ln x / (2 ln x) at x = 10^6, by mpmath
    assert races.littlewood_bound(10**6) == pytest.approx(
        float(mpmath.sqrt(10**6) * mpmath.log(mpmath.log(mpmath.log(10**6)))
              / (2 * mpmath.log(10**6))), rel=1e-14)
    assert races.littlewood_bound(16.0) > 0
    for x in (math.e ** math.e, 1.0, math.nan):
        with pytest.raises(DomainError, match="x > e\\^e"):
            races.littlewood_bound(x)


def test_euler_phi_counts_the_coprime_residues():
    for q in range(1, 300):
        assert races.euler_phi(q) == sum(
            math.gcd(a, q) == 1 for a in range(1, q + 1))
    with pytest.raises(DomainError):
        races.euler_phi(0)


def test_shanks_ratio_values():
    assert races.shanks_ratio(100, 13, 11) == \
        pytest.approx(0.9210340371976184, abs=1e-12)
    assert races.shanks_ratio(10**6, 7, 7) == 0.0


def test_shanks_ratio_lands_in_bulk(primes_1e6):
    res = primes_1e6 % 4
    c3 = int(np.sum(res == 3))
    c1 = int(np.sum(res == 1))
    assert 0.0 < races.shanks_ratio(10**6, c3, c1) < 3.0


def test_error_term_bias_direction_mod8():
    # nonsquare classes hover near 0; the square class 1 is pulled down
    xs = sorted({int(round(v)) for v in
                 np.exp(np.linspace(math.log(100), math.log(10**6), 60))})
    rcs = counts_by_x(sieve.count_in_progressions(10**6, 8, xs))
    pis = counts_by_x(sieve.count_in_progressions(10**6, 1, xs))
    means = {}
    for a in (1, 3, 5, 7):
        vals = [races.error_term(x, 8, a, pis[x][0], rcs[x][a]) for x in xs]
        means[a] = abs(np.mean(vals))
    assert all(means[a] < means[1] for a in (3, 5, 7))


# ---------------------------------------------------------------------------
# histograms

def test_histogram_example_mode_near_one():
    xs = [1000 * k for k in range(1, 1001)]
    rcs = counts_by_x(sieve.count_in_progressions(10**6, 4, xs))
    samples = [races.shanks_ratio(x, rcs[x][3], rcs[x][1]) for x in xs]
    h = races.build_histogram(samples, 40, -1.0, 3.0)
    assert h.total == 1000
    mode = int(np.argmax(h.counts))
    center = 0.5 * (h.bin_edges[mode] + h.bin_edges[mode + 1])
    assert 0.5 < center < 1.5


def test_histogram_boundaries():
    h = races.build_histogram([0.0], 4, 0.0, 1.0)
    assert h.counts[0] == 1 and h.total == 1
    h = races.build_histogram([1.0], 4, 0.0, 1.0)
    assert h.counts[-1] == 1  # last bin closed
    h = races.build_histogram([0.5] * 7, 4, 0.0, 1.0)
    assert np.count_nonzero(h.counts) == 1


def test_histogram_empty_and_errors():
    h = races.build_histogram([], 3, 0.0, 1.0)
    assert h.total == 0 and list(h.counts) == [0, 0, 0]
    with pytest.raises(DomainError):
        races.build_histogram([1.0], 0, 0.0, 1.0)
    with pytest.raises(DomainError):
        races.build_histogram([1.0], 3, 1.0, 1.0)
    # a NaN lies in no bin and no tally, so the partition would break
    with pytest.raises(DomainError, match="NaN"):
        races.build_histogram([0.5, math.nan, 1.0], 4, 0.0, 1.0)


@given(st.lists(st.floats(-100, 100) | st.sampled_from([-math.inf, math.inf]),
                max_size=200),
       st.integers(1, 30))
@settings(max_examples=50, deadline=None)
def test_histogram_conserves_total(samples, bins):
    h = races.build_histogram(samples, bins, -1.0, 3.0)
    assert int(np.sum(h.counts)) + h.underflow + h.overflow == h.total
    assert h.total == len(samples)


# ---------------------------------------------------------------------------
# densities

def test_natural_density_zero_below_first_lead(dense4_30k):
    assert races.leader_density(dense4_30k, races.strictly_ahead(1),
                                26860, "natural") == 0.0


def test_digamma_at_integers_against_mpmath():
    ns = np.array([1, 2, 3, 4, 9, 10, 11, 12, 100, 12345, 10**6, 10**10],
                  dtype=float)
    got = races._digamma(ns)
    want = np.array([float(mpmath.digamma(int(n))) for n in ns])
    assert np.max(np.abs(got / want - 1)) <= 1e-15


def test_density_identity_and_bounds(dense4_1e7):
    X = 10**6
    cond = races.strictly_ahead(0)
    not_cond = lambda m: ~cond(m)
    log_a = races.leader_density(dense4_1e7, cond, X, "logarithmic")
    log_b = races.leader_density(dense4_1e7, not_cond, X, "logarithmic")
    full = (digamma(X + 1) - digamma(2.0)) / math.log(X)
    assert log_a + log_b == pytest.approx(full, abs=1e-10)
    for kind in ("logarithmic", "natural"):
        for c in (cond, not_cond):
            v = races.leader_density(dense4_1e7, c, X, kind)
            assert type(v) is float and 0.0 <= v <= 1.0


def test_always_true_condition_tends_to_one(dense4_1e7):
    always = lambda m: np.ones(m.shape[1], dtype=bool)
    v = races.leader_density(dense4_1e7, always, 10**7, "logarithmic")
    assert abs(v - 1.0) < 3.0 / math.log(10**7)


def test_log_density_team3_strictly_ahead(dense4_1e7):
    # frozen from this sieve run; ties at small x cost real mass, so the
    # strict reading sits near 0.91 while the not-behind reading is ~0.97
    strict = races.leader_density(dense4_1e7, races.strictly_ahead(0),
                                  10**7, "logarithmic")
    assert strict == pytest.approx(0.9090370863, abs=1e-6)
    not_behind = races.leader_density(
        dense4_1e7, lambda m: m[0] >= m[1], 10**7, "logarithmic")
    assert not_behind > 0.95


def test_density_domain_errors(dense4_30k):
    with pytest.raises(DomainError):
        races.leader_density(dense4_30k, races.strictly_ahead(0), 1,
                             "logarithmic")
    with pytest.raises(DomainError):
        races.leader_density(dense4_30k, races.strictly_ahead(0), 100,
                             "harmonic")
    with pytest.raises(DomainError, match="one flag per sample"):
        races.leader_density(dense4_30k, lambda m: m, 100, "natural")
    for team in (-1, 2, 5):  # -1 once compared the last team with itself
        with pytest.raises(DomainError, match="team index"):
            races.leader_density(dense4_30k, races.strictly_ahead(team),
                                 30000, "natural")
    for X in (1000.5, math.nan):
        for kind in ("logarithmic", "natural"):
            with pytest.raises(DomainError, match="integer X"):
                races.leader_density(dense4_30k, races.strictly_ahead(0), X,
                                     kind)


# ---------------------------------------------------------------------------
# squares and the walk model

def test_squares_mod():
    assert races.squares_mod(7) == ({1, 2, 4}, {3, 5, 6})
    assert races.squares_mod(5) == ({1, 4}, {2, 3})
    assert races.squares_mod(3) == ({1}, {2})
    for bad in (9, 8, 1):
        with pytest.raises(DomainError):
            races.squares_mod(bad)


def test_walk_zero_steps():
    first = races.simulate_tie_walk(3, 0, 5, 11)
    assert first.dtype == np.int64 and first.tolist() == [0] * 5


@pytest.mark.parametrize("teams, steps, trials, match", [
    (1, 10, 5, "at least two teams"),
    (-2, 10, 5, "at least two teams"),
    (3, -1, 5, "steps must be >= 0 and trials >= 1"),
    (3, 10, 0, "steps must be >= 0 and trials >= 1"),
])
def test_walk_domain_errors(teams, steps, trials, match):
    with pytest.raises(DomainError, match=match):
        races.simulate_tie_walk(teams, steps, trials, 0)


def test_walk_many_teams_matches_direct_count():
    # team indices above 127 once wrapped negative in a signed byte
    k, steps = 200, 400
    firsts = races.simulate_tie_walk(k, steps, 5, 3)
    for trial, got in enumerate(firsts.tolist()):
        counts, first = [0] * k, 0
        picks = races.splitmix64(races.splitmix64(3, 0, 5)[trial], 0, steps)
        for step, c in enumerate(picks, start=1):
            counts[int(c) % k] += 1
            if not first and min(counts) == max(counts):
                first = step
        assert got == first
    one_step = races.simulate_tie_walk(k, 1, 50, 0)
    assert not one_step.any()


def test_walk_reproducible_bitwise():
    assert np.array_equal(races.simulate_tie_walk(4, 20000, 30, 99),
                          races.simulate_tie_walk(4, 20000, 30, 99))


def test_walk_one_dimensional_recurrence():
    first = races.simulate_tie_walk(2, 10**5, 200, 7)
    assert np.count_nonzero(first) / len(first) > 0.95


def test_walk_transience_ordering():
    f3 = np.count_nonzero(races.simulate_tie_walk(3, 10**5, 200, 7))
    f4 = np.count_nonzero(races.simulate_tie_walk(4, 10**5, 200, 7))
    assert f4 < f3


def test_walk_first_return_parity():
    # each full lap over the k step vectors sums to zero, and any return
    # needs a multiple of k steps
    k = 3
    first = races.simulate_tie_walk(k, 3000, 50, 5)
    assert first.any() and np.all(first % k == 0)


def test_last_place_mirrors_first_for_two_teams(dense4_30k):
    firsts = races.detect_lead_changes(dense4_30k, place="first")
    lasts = races.detect_lead_changes(dense4_30k, place="last")
    swap = {"3": "1", "1": "3", "tie": "tie"}
    assert [(e.x, e.previous_leader, e.new_leader) for e in lasts] == \
        [(e.x, swap[e.previous_leader], swap[e.new_leader]) for e in firsts]


def test_mod8_last_place_is_class_one():
    teams = [races.TeamSpec(str(a), {a}) for a in (1, 3, 5, 7)]
    ledger = races.run_dense_race(10**6, 8, teams)
    lasts = races.detect_lead_changes(ledger, place="last")
    # class 1 holds last place from 23 through 10^6
    assert lasts[-1].new_leader == "1"
    assert lasts[-1].x <= 23


def test_splitmix64_stream_chunking():
    a = races.splitmix64(42, 0, 100)
    b = np.concatenate([races.splitmix64(42, 0, 37),
                        races.splitmix64(42, 37, 63)])
    assert np.array_equal(a, b)
