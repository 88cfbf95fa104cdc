"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from primeraces import lfunctions as lf
from primeraces import pairs, races, sieve, waves

import published_tables as pub
from conftest import counts_by_x, trial_division_primes


@contextmanager
def criterion(number, description, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print("[criterion %02d] FAIL (%.1fs) %s"
              % (number, time.perf_counter() - t0, description))
        raise
    elapsed = time.perf_counter() - t0
    print("[criterion %02d] PASS (%.1fs) %s" % (number, elapsed, description))
    if budget is not None:
        assert elapsed < budget, "runtime %.1fs over budget %.1fs" \
            % (elapsed, budget)


def residue_rows(limit, q, rows):
    xs = [r[0] for r in rows]
    return counts_by_x(sieve.count_in_progressions(limit, q, xs))


def test_criterion_01_mod4_table_exact():
    with criterion(1, "mod-4 counts exact at all 22 listed x", budget=2.0):
        got = residue_rows(10**5, 4, pub.MOD4_ROWS)
        assert len(pub.MOD4_ROWS) == 22
        for x, t3, t1 in pub.MOD4_ROWS:
            assert got[x] == {3: t3, 1: t1}, x


def test_criterion_02_mod3_table_exact():
    with criterion(2, "mod-3 counts exact at all listed x up to 10^7",
                   budget=10.0):
        got = residue_rows(10**7, 3, pub.MOD3_ROWS)
        for x, t2, t1 in pub.MOD3_ROWS:
            assert got[x] == {2: t2, 1: t1}, x
        assert got[10**7] == {2: 332384, 1: 332194}


def test_criterion_03_mod10_and_mod8_exact():
    with criterion(3, "mod-10 and mod-8 counts exact at every listed "
                   "x <= 10^6", budget=5.0):
        got10 = residue_rows(10**6, 10, pub.MOD10_ROWS)
        for x, d1, d3, d7, d9 in pub.MOD10_ROWS:
            assert got10[x] == {1: d1, 3: d3, 7: d7, 9: d9}, x
        assert got10[100] == {1: 5, 3: 7, 7: 6, 9: 5}
        assert got10[200] == {1: 10, 3: 12, 7: 12, 9: 10}
        assert got10[10**6] == {1: 19617, 3: 19665, 7: 19621, 9: 19593}
        got8 = residue_rows(10**6, 8, pub.MOD8_ROWS)
        for x, a1, a3, a5, a7 in pub.MOD8_ROWS:
            assert got8[x] == {1: a1, 3: a3, 5: a5, 7: a7}, x


def test_criterion_04_lead_change_ground_truth():
    with criterion(4, "mod-4 lead windows: 26861 tie 26863, "
                   "[616841..633798], [12306137..12382326]", budget=20.0):
        teams = [races.TeamSpec("3", {3}), races.TeamSpec("1", {1})]
        ledger = races.run_dense_race(13 * 10**6, 4, teams)
        windows = races.lead_windows(ledger, "1")
        assert windows[0] == (pub.FIRST_LEAD_X, pub.TIE_RESTORED_X - 1)
        events = races.detect_lead_changes(ledger)
        tie_after = next(e for e in events if e.x > pub.FIRST_LEAD_X)
        assert tie_after.x == pub.TIE_RESTORED_X
        assert tie_after.new_leader == "tie"
        era2 = [w for w in windows if 30000 < w[0] < 10**6]
        assert era2[0][0] == pub.SECOND_LEAD_SPAN[0]
        assert era2[-1][1] == pub.SECOND_LEAD_SPAN[1]
        era3 = [w for w in windows if w[0] > 10**6]
        assert era3[0][0] == pub.THIRD_LEAD_SPAN[0]
        assert era3[-1][1] == pub.THIRD_LEAD_SPAN[1]


def test_criterion_05_pi_and_gauss_overcount_to_1e9():
    with criterion(5, "pi(10^8), pi(10^9) exact; li overcounts within 1",
                   budget=90.0):
        assert sieve.count_primes(10**8) == 5761455
        assert sieve.count_primes(10**9) == 50847534
        for x, pi_x, overcount, _ in pub.PI_OVERCOUNT_ROWS[:2]:
            got = lf.gauss_overcount(x, pi_x)
            print("    x=1e%d li overcount %d (published %d)"
                  % (round(math.log10(x)), got, overcount))
            assert abs(got - overcount) <= 1


def test_criterion_06_riemann_overcount():
    with criterion(6, "refined-prediction overcounts within 1 at "
                   "10^8 and 10^9"):
        for x, pi_x, _, overcount in pub.PI_OVERCOUNT_ROWS[:2]:
            got = lf.riemann_overcount(x, pi_x)
            alt = math.floor(lf.riemann_prediction(x) - pi_x)
            print("    x=1e%d refined overcount %d (published %d; "
                  "2-based integral gives %d)"
                  % (round(math.log10(x)), got, overcount, alt))
            assert abs(got - overcount) <= 1


def test_criterion_07_psi_table_and_inequality():
    with criterion(7, "psi nearest-integer table exact; half-line "
                   "inequality holds at all five x"):
        primes = sieve.primes_up_to(10**6)
        for x, nearest, diff in pub.PSI_ROWS:
            v = lf.chebyshev_psi(x, primes)
            assert round(v) == nearest
            assert round(v) - x == diff
            assert lf.psi_rh_inequality_check(x, v)


def test_criterion_08_zeta_zeros():
    with criterion(8, "zeta ordinates below 31 within 1e-2 "
                   "(first within 1e-3)", budget=30.0):
        tab = lf.find_zeros(lf.ZETA, 31)
        assert len(tab) == 4
        assert abs(tab.ordinates[0] - pub.ZETA_ZEROS[0]) < 1e-3
        for got, want in zip(tab.ordinates, pub.ZETA_ZEROS):
            assert abs(got - want) < 1e-2


def test_criterion_09_wave_sum_improves_with_more_zeros():
    with criterion(9, "rms error of the 100-zero wave sum beats the "
                   "10-zero sum for both targets"):
        grid = waves.log_grid(10**4, 10**6, 500)
        primes = sieve.primes_up_to(10**6)
        pi_at = np.searchsorted(primes, np.floor(grid), side="right")

        ztab = lf.find_zeros(lf.ZETA, 237)
        assert len(ztab) >= 100
        li_vals = np.array([lf.li(float(x)) for x in grid])
        truth = (li_vals - pi_at) * np.log(grid) / np.sqrt(grid)
        rms10, rms100 = (waves.compare_series(truth, approx)["rms"]
                         for approx in waves.wave_sums(ztab, grid, [10, 100]))
        print("    li-pi target: rms10=%.4f rms100=%.4f" % (rms10, rms100))
        assert rms100 < rms10

        btab = lf.find_zeros(lf.BETA4, 172)
        assert len(btab) >= 100
        res = primes % 4
        c3 = np.cumsum(res == 3)
        c1 = np.cumsum(res == 1)
        truth4 = ((c3[pi_at - 1] - c1[pi_at - 1])
                  * np.log(grid) / np.sqrt(grid))
        rms10, rms100 = (waves.compare_series(truth4, approx)["rms"]
                         for approx in waves.wave_sums(btab, grid, [10, 100]))
        print("    mod-4 target: rms10=%.4f rms100=%.4f" % (rms10, rms100))
        assert rms100 < rms10


def test_criterion_10_pair_tables():
    with criterion(10, "pair counts exact to 10^6; predictions and "
                   "differences within 1 per cell", budget=10.0):
        gaps = (2, 4, 6, 8, 10)
        xs = sorted(pub.HL_DIFF_ROWS)
        counts = sieve.count_pairs_by_gap(10**6, gaps, xs)
        for gi, gap in enumerate(gaps):
            for row, got in zip(pub.PAIR_ROWS, counts[:, gi]):
                assert got == row[1 + gi], (gap, row[0])
        for x, want in pub.HL_PREDICTION.items():
            assert abs(pairs.hl_prediction(x) - want) <= 1
        rows = pairs.twin_table(gaps, xs)
        by_cell = {(r["x"], r["gap"]): r for r in rows}
        for x, diffs in pub.HL_DIFF_ROWS.items():
            for gap, want in zip(gaps, diffs):
                r = by_cell[(x, gap)]
                close = min(abs(r["difference_rounded"] - want),
                            abs(r["difference_vs_floored"] - want))
                assert close <= 1, (x, gap, r)


def test_criterion_11_density_measures():
    with criterion(11, "log measure of the mod-4 leader above 0.95; "
                   "natural share of early challenger leads exactly 0"):
        teams = [races.TeamSpec("3", {3}), races.TeamSpec("1", {1})]
        ledger = races.run_dense_race(10**7, 4, teams)
        # the stated bound derives from the challenger's tiny 1/x window
        # mass, i.e. it measures "team 3 never strictly behind"; the
        # strict-lead reading is printed alongside
        not_behind = races.leader_density(
            ledger, lambda m: m[0] >= m[1], 10**7, "logarithmic")
        strict = races.leader_density(
            ledger, races.strictly_ahead(0), 10**7, "logarithmic")
        print("    log measure: not-behind=%.4f strictly-ahead=%.4f"
              % (not_behind, strict))
        assert not_behind > 0.95
        natural = races.leader_density(
            ledger, races.strictly_ahead(1), 26860, "natural")
        assert natural == 0.0


def test_criterion_12_hypothetical_zero_ordering():
    with criterion(12, "forbidden mod-5 ordering never occurs; "
                   "profile antisymmetry exact"):
        z = waves.HypotheticalZero(0.75, 1.0)
        grid = waves.log_grid(2, 10**10, 10**4)
        assert waves.forbidden_ordering_count(z, grid) == 0
        rows = waves.ford_konyagin_grid(z, grid)
        assert np.all(rows[0] + rows[3] == 0.0)
        assert np.all(rows[1] + rows[2] == 0.0)


def test_criterion_13_walk_recurrence_ordering():
    with criterion(13, "three-team walk returns more often than "
                   "four-team walk (200 trials x 10^5 steps)"):
        f3, f4 = (np.count_nonzero(races.simulate_tie_walk(k, 10**5, 200, 7))
                  / 200 for k in (3, 4))
        print("    return fractions: 2-d %.3f, 3-d %.3f" % (f3, f4))
        assert f4 < f3


def test_criterion_14_property_suite(tmp_path):
    with criterion(14, "sieve oracle equivalence, partition identity, "
                   "round-trips, conjugate symmetry, classical values"):
        oracle = trial_division_primes(10**5)
        assert list(sieve.primes_up_to(10**5)) == oracle

        pi_x = len(oracle)
        for q in (3, 4, 5, 7, 8, 10, 163):
            rows = sieve.count_in_progressions(10**5, q, [10**5])
            dividing = sum(1 for p in (2, 3, 5, 7, 163) if q % p == 0)
            assert sum(counts_by_x(rows)[10**5].values()) + dividing \
                == pi_x, q

        rows = sieve.count_in_progressions(10**4, 4, [100, 10**4])
        path = tmp_path / "c.chk"
        path.write_text(sieve.format_checkpoints(rows))
        assert counts_by_x(sieve.checkpoint_load(path)) == counts_by_x(rows)

        tab = lf.find_zeros(lf.ZETA, 31)
        zpath = tmp_path / "z.zeros"
        zpath.write_text(lf.format_zero_table(tab))
        back = lf.parse_zero_table(zpath, lf.ZETA)
        assert np.allclose(back.ordinates, tab.ordinates, atol=1e-9)

        for lid in (lf.ZETA, lf.BETA4, lf.quadratic(7)):
            for s in (0.5 + 14.1j, 1.5 + 3j, 0.75 + 0.5j):
                a = lf.evaluate_l(lid, s)
                b = lf.evaluate_l(lid, s.conjugate())
                assert abs(b - a.conjugate()) < 1e-10 * max(1.0, abs(a))

        assert abs(lf.evaluate_l(lf.ZETA, 2.0) - math.pi**2 / 6) < 1e-6
        assert abs(lf.evaluate_l(lf.BETA4, 1.0) - math.pi / 4) < 1e-6
