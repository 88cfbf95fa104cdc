import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from primeraces import lfunctions as lf
from primeraces import races, waves
from primeraces.errors import DomainError


@pytest.fixture(scope="module")
def zeta_table():
    return lf.find_zeros(lf.ZETA, 60)


# ---------------------------------------------------------------------------
# sawtooth

def test_sawtooth_midpoint_always_zero():
    for n in (0, 1, 7, 1000):
        assert waves.sawtooth_partial_sum(0.5, n) == pytest.approx(0.0,
                                                                   abs=1e-12)


def test_sawtooth_empty_sum():
    assert waves.sawtooth_partial_sum(0.3, 0) == 0.0


def test_sawtooth_quarter_converges():
    # frozen against direct summation at N = 10^6: -0.2499998408
    assert waves.sawtooth_partial_sum(0.25, 1000) == \
        pytest.approx(-0.25, abs=1e-2)


def test_sawtooth_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            waves.sawtooth_partial_sum(bad, 10)


def test_sawtooth_error_decays_with_doubling():
    x = 0.3
    target = x - 0.5
    errs = []
    n = 10
    while n <= 10**4:
        errs.append(abs(waves.sawtooth_partial_sum(x, n) - target))
        n *= 2
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-3  # monotone up to a small wiggle allowance


# ---------------------------------------------------------------------------
# wave sums

def _one(table, grid, m=None):
    """The values of a single truncation."""
    return waves.wave_sums(table, grid, [m])[0].values


def test_wave_sum_empty_table_is_one():
    tab = lf.ZeroTable(lf.ZETA, np.empty(0))
    assert _one(tab, [100.0])[0] == 1.0


def test_wave_sum_single_zero_quarter_period():
    g = 2.0
    x = math.exp((math.pi / 2) / g)  # gamma ln x = pi/2
    tab = lf.ZeroTable(lf.ZETA, np.array([g]))
    assert _one(tab, [x])[0] == pytest.approx(1 + 2 / g, rel=1e-12)


def test_wave_sum_subdivision_invariance(zeta_table):
    g = zeta_table.ordinates
    xs = (10.0, 123.0, 10**5)
    whole = _one(zeta_table, xs)
    k = len(g) // 2
    prefix = lf.ZeroTable(lf.ZETA, g[:k])
    suffix = lf.ZeroTable(lf.ZETA, g[k:])
    split = (_one(prefix, xs) - 1.0) + (_one(suffix, xs) - 1.0) + 1.0
    assert split == pytest.approx(whole, rel=1e-10, abs=1e-10)


def test_wave_series_matches_pointwise(zeta_table):
    grid = waves.log_grid(100, 10**4, 50)
    series = _one(zeta_table, grid, 10)
    g = [float(t) for t in zeta_table.ordinates[:10]]
    for x, v in zip(grid[::13], series[::13]):
        direct = 1.0 + 2.0 * sum(math.sin(t * math.log(x)) / t for t in g)
        assert v == pytest.approx(direct, rel=1e-12)
        assert v == pytest.approx(_one(zeta_table, [x], 10)[0], rel=1e-12)


@pytest.mark.parametrize("points", [1, 7, 500, 20000])
def test_wave_sums_match_one_product_per_truncation(points):
    # every grid here fits one block, so each truncation is bit for bit the
    # product over its own ordinates alone
    tab = lf.ZeroTable(lf.BETA4, 6.0 + 1.6 * np.arange(107.0))
    grid = waves.log_grid(10, 10**7, points) if points > 1 else [1e4]
    g = tab.ordinates
    truncations = [0, 10, 100, 1000, None]
    sums = waves.wave_sums(tab, grid, truncations)
    assert [s.zeros_used for s in sums] == [0, 10, 100, 107, 107]
    for s, m in zip(sums, truncations):
        gm = g[:m]
        want = 1.0 + 2.0 * np.sin(np.outer(np.log(grid), gm)) @ (1.0 / gm)
        assert np.array_equal(s.values, want)
        assert np.array_equal(s.x_grid, np.asarray(grid, dtype=float))
    assert np.all(sums[0].values == 1.0)


def test_wave_sums_of_no_truncation_is_empty(zeta_table):
    assert waves.wave_sums(zeta_table, [100.0], []) == []


def test_negative_truncation_rejected(zeta_table):
    with pytest.raises(DomainError, match="zeros_used must be >= 0, got -1"):
        waves.wave_sums(zeta_table, [100.0], [10, -1])
    # and x below 2, refused before ln x or a sine is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for grid in ([1.5, 100.0], [0.0], [-1.0, 100.0]):
            with pytest.raises(DomainError):
                waves.wave_sums(zeta_table, grid, [10])


@pytest.mark.parametrize("truncations", [[10, 10], [None, 5, None]])
def test_repeated_truncation_rejected(zeta_table, truncations):
    with pytest.raises(DomainError, match="truncations must be distinct"):
        waves.wave_sums(zeta_table, [100.0], truncations)


def test_wave_series_memory_is_bounded():
    # 10^4 points x 2,000 zeros: one matrix of the whole grid takes 160 MB;
    # one block of 2^22 cells takes 33.6 MB, and the truncations sum
    # prefixes of its columns without a scaled or sliced copy
    tab = lf.ZeroTable(lf.ZETA, 14.0 + np.arange(2000.0))
    grid = waves.log_grid(10, 10**5, 10**4)
    tracemalloc.start()
    try:
        some, every = waves.wave_sums(tab, grid, [1000, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 10**6
    # blocks hold 2,097 rows here: rows on both sides of a block boundary
    # match the sum over the whole matrix
    rows = [0, 2096, 2097, 9999]
    for series, g in ((some, tab.ordinates[:1000]), (every, tab.ordinates)):
        direct = 1.0 + 2.0 * np.sin(np.outer(np.log(grid[rows]), g)) @ (1 / g)
        assert np.allclose(series.values[rows], direct, rtol=1e-12,
                           atol=1e-12)


def test_wave_series_tracks_truth(zeta_table, primes_1e6):
    grid = waves.log_grid(10**4, 10**6, 200)
    pi_at = np.searchsorted(primes_1e6, np.floor(grid), side="right")
    li_vals = np.array([lf.li(float(x)) for x in grid])
    truth = waves.WaveSeries(0, grid,
                             (li_vals - pi_at) * np.log(grid) / np.sqrt(grid))
    approx, = waves.wave_sums(zeta_table, grid, [None])
    stats = waves.compare_series(truth, approx)
    assert stats.correlation > 0.5


def test_lhs_pi_li():
    # x = 10^8 with the published pi value: about 1.39
    v = waves.lhs_pi_li(10**8, 5761455)
    assert v == pytest.approx(753.33 * math.log(10**8) / 10**4, abs=1e-3)
    assert 1.3 < v < 1.5


def test_lhs_pi_li_exact_agreement_is_zero():
    x = 10**6
    li_x = lf.li(x)
    assert waves.lhs_pi_li(x, li_x) == pytest.approx(0.0, abs=1e-12)


def test_lhs_mod4_matches_ratio():
    # the mod-4 target of the explicit formula is the Shanks ratio
    assert races.shanks_ratio(100, 13, 11) == \
        pytest.approx(0.9210340371976184, abs=1e-12)
    assert races.shanks_ratio(100, 7, 7) == 0.0


def test_targets_on_arrays_match_one_point_values():
    xs = np.array([2.0, 3.0, 4.5, 100.0, 26862.0, 1e6])
    pis = np.array([1, 2, 2, 25, 2945, 78498])
    c3 = np.array([0, 1, 1, 13, 1472, 39322])
    c1 = np.array([0, 0, 0, 11, 1473, 39175])
    for fn, args in [(waves.lhs_pi_li, (xs, pis)),
                     (races.shanks_ratio, (xs, c3, c1))]:
        whole = fn(*args)
        assert whole.shape == xs.shape
        assert np.array_equal(whole, [fn(*point) for point in zip(*args)])


def test_target_domains():
    assert races.shanks_ratio(2, 1, 0) == math.log(2) / math.sqrt(2)
    assert waves.lhs_pi_li(2, 1) == -math.log(2) / math.sqrt(2)
    for call in (lambda: races.shanks_ratio([5.0, 1.5], 0, 0),
                 lambda: waves.lhs_pi_li(1.5, 0)):
        with pytest.raises(DomainError):
            call()


def test_mod4_truth_dips_visible(primes_1e6):
    # the first lead region shows as a negative dip of the truth curve
    res = primes_1e6 % 4
    c3 = np.cumsum(res == 3)
    c1 = np.cumsum(res == 1)
    idx = np.searchsorted(primes_1e6, 26862, side="right") - 1
    assert c3[idx] < c1[idx]
    v = races.shanks_ratio(26862, int(c3[idx]), int(c1[idx]))
    assert v < 0


# ---------------------------------------------------------------------------
# hypothetical off-line zeros

def test_profile_at_full_period():
    z = waves.HypotheticalZero(0.75, 1.0)
    x = math.exp(2 * math.pi)  # gamma ln x = 2 pi
    p1, p2, p3, p4 = waves.ford_konyagin_grid(z, [x])[:, 0]
    assert p1 == pytest.approx(-z.sigma, abs=1e-12)
    assert p2 == pytest.approx(-z.gamma, abs=1e-12)
    assert p3 == pytest.approx(z.gamma, abs=1e-12)
    assert p4 == pytest.approx(z.sigma, abs=1e-12)


def test_profile_is_one_grid_column():
    z = waves.HypotheticalZero(0.6, 2.25)
    grid = waves.log_grid(2, 10**9, 101)
    rows = waves.ford_konyagin_grid(z, grid)
    for j, x in enumerate(grid):
        assert np.array_equal(waves.ford_konyagin_grid(z, [x])[:, 0],
                              rows[:, j])
    with pytest.raises(DomainError):
        waves.ford_konyagin_grid(z, [1.5])


def test_profile_antisymmetry_exact():
    z = waves.HypotheticalZero(0.6, 2.25)
    grid = waves.log_grid(2, 10**9, 4001)
    rows = waves.ford_konyagin_grid(z, grid)
    assert np.all(rows[0] + rows[3] == 0.0)
    assert np.all(rows[1] + rows[2] == 0.0)


def test_forbidden_ordering_never_occurs():
    z = waves.HypotheticalZero(0.75, 1.0)
    grid = waves.log_grid(2, 10**10, 10**4)
    assert waves.forbidden_ordering_count(z, grid) == 0


def test_contradiction_identity():
    # if both rotated components are small, sigma itself must be small
    z = waves.HypotheticalZero(0.75, 1.0)
    grid = waves.log_grid(2, 10**8, 5000)
    eps = 0.05
    rows = waves.ford_konyagin_grid(z, grid)
    both_small = (np.abs(rows[1]) < eps) & (np.abs(rows[3]) < eps)
    if np.any(both_small):
        assert z.sigma < 2 * eps * max(1.0, z.gamma)
    # and with synthetic small sigma the premise does fire
    th = 1.0 * np.log(grid)
    assert np.any((np.abs(0.01 * np.sin(th) - 1.0 * np.cos(th)) < 1.0)
                  & (np.abs(0.01 * np.cos(th) + 1.0 * np.sin(th)) < 1.0))


def test_hypothetical_zero_validation():
    with pytest.raises(DomainError):
        waves.HypotheticalZero(0.5, 1.0)
    with pytest.raises(DomainError):
        waves.HypotheticalZero(1.0, 1.0)
    # a NaN gamma would give a forbidden-ordering count of 0, not an error
    for gamma in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            waves.HypotheticalZero(0.75, gamma)


# ---------------------------------------------------------------------------
# comparison statistics

def test_compare_identical_series():
    grid = waves.log_grid(10, 1000, 20)
    vals = np.sin(grid)
    a = waves.WaveSeries(0, grid, vals)
    b = waves.WaveSeries(0, grid, vals.copy())
    stats = waves.compare_series(a, b)
    assert stats.rms == 0.0
    assert stats.correlation == pytest.approx(1.0)
    assert stats.sign_agreement == 1.0


def test_compare_constant_zero_sign_agreement():
    grid = waves.log_grid(10, 1000, 101)
    truth = np.linspace(-1, 1, 101)
    a = waves.WaveSeries(0, grid, truth)
    b = waves.WaveSeries(0, grid, np.zeros(101))
    stats = waves.compare_series(a, b)
    frac_zero_sign = np.mean(np.sign(truth) == 0.0)
    assert stats.sign_agreement == pytest.approx(frac_zero_sign)


def test_compare_grid_mismatch():
    a = waves.WaveSeries(0, waves.log_grid(10, 100, 5), np.ones(5))
    b = waves.WaveSeries(0, waves.log_grid(10, 101, 5), np.ones(5))
    with pytest.raises(DomainError):
        waves.compare_series(a, b)


def test_rms_improves_with_more_zeros_mod4(primes_1e6):
    table = lf.find_zeros(lf.BETA4, 80)
    grid = waves.log_grid(10**4, 10**6, 300)
    res = primes_1e6 % 4
    c3 = np.cumsum(res == 3)
    c1 = np.cumsum(res == 1)
    pi_at = np.searchsorted(primes_1e6, np.floor(grid), side="right")
    truth = waves.WaveSeries(0, grid, (c3[pi_at - 1] - c1[pi_at - 1])
                             * np.log(grid) / np.sqrt(grid))
    few, many = (waves.compare_series(truth, approx) for approx in
                 waves.wave_sums(table, grid, [10, 40]))
    assert many.rms < few.rms


# ---------------------------------------------------------------------------
# emission helpers

def test_series_csv_and_svg():
    grid = waves.log_grid(10, 1000, 8)
    cols = [("truth", np.sin(grid)), ("approx_10", np.cos(grid))]
    lines = waves.format_series_csv(grid, cols).strip().splitlines()
    assert lines[0] == "x,truth,approx_10"
    assert len(lines) == 9
    svg = waves.render_series_svg(grid, cols, title="demo")
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert 'viewBox="0 0 800 400"' in svg
    assert waves.render_series_svg(grid, cols, title="demo") == svg


def old_write_series_csv(fh, x_grid, columns):
    fh.write("x," + ",".join(name for name, _ in columns) + "\n")
    for i, x in enumerate(x_grid):
        row = ",".join("%.10g" % vals[i] for _, vals in columns)
        fh.write("%.10g,%s\n" % (x, row))


def test_series_csv_matches_the_per_row_writer():
    # a partial last block, and the values whose text is easy to get wrong
    rng = np.random.default_rng(3)
    n = 2 * waves._CSV_ROWS + 37
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, -1e300, 1e300]
    cols = [("a", rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)),
            ("b", rng.choice(special, n)), ("c", rng.integers(-9, 9, n))]
    grid = np.sort(rng.uniform(2, 1e7, n))
    grid[::5] = rng.choice(special, len(grid[::5]))
    for m in (n, 0, 1, waves._CSV_ROWS):
        want = io.StringIO()
        old_write_series_csv(want, grid[:m], cols)
        assert waves.format_series_csv(grid[:m], cols) == want.getvalue()
