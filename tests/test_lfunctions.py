import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeraces import lfunctions as lf
from primeraces.errors import CapacityError, DomainError, ParseError

import published_tables as pub
from conftest import slow

mp.mp.dps = 30


def mp_zeta(s):
    return complex(mp.zeta(mp.mpc(s)))


def mp_beta4(s):
    s = mp.mpc(s)
    return complex(4**(-s) * (mp.zeta(s, mp.mpf(1) / 4)
                              - mp.zeta(s, mp.mpf(3) / 4)))


def mp_chi(q):
    """The Legendre character mod an odd prime q as a list chi(0..q-1),
    from the set of nonzero squares mod q."""
    squares = {r * r % q for r in range(1, q)}
    return [0] + [1 if r in squares else -1 for r in range(1, q)]


def mp_quadratic(q, s):
    return complex(mp.dirichlet(mp.mpc(s), mp_chi(q)))


def mp_rotated(q, t):
    """e^(i theta) L(1/2 + it) for the character mod q, theta from mpmath's
    log Gamma and the conductor: real on the critical line."""
    d = q if q % 4 == 1 else -q
    a = 0 if d > 0 else 1
    t = mp.mpf(t)
    theta = mp.im(mp.loggamma((mp.mpf(1) / 2 + a + 1j * t) / 2)) \
        + t / 2 * mp.log(abs(d) / mp.pi)
    value = mp.exp(1j * theta) * mp.dirichlet(mp.mpc(0.5, t), mp_chi(q))
    assert abs(mp.im(value)) < 1e-15
    return float(mp.re(value))


# ---------------------------------------------------------------------------
# logarithmic integrals

def test_li_at_two_is_zero():
    assert lf.li(2) == 0.0
    with pytest.raises(DomainError):
        lf.li(1.5)


def test_li_against_high_precision_oracle():
    for x in (10.0, 10**4, 10**8, 10**10):
        ref = float(mp.li(x, offset=True))
        assert lf.li(x) == pytest.approx(ref, abs=1e-5)


def test_li_overcounts():
    for x, pi_x, overcount, _ in pub.PI_OVERCOUNT_ROWS:
        assert abs(lf.gauss_overcount(x, pi_x) - overcount) <= 1
        # the 2-based integral lands within the same band
        assert abs(math.floor(lf.li(x) - pi_x) - overcount) <= 1


def test_overcounts_match_mpmath_floors():
    closest = 1.0
    for x, pi_x, _, _ in pub.PI_OVERCOUNT_ROWS:
        li_x, li_sqrt = mp.li(x), mp.li(mp.sqrt(x))
        cases = [
            (lf.gauss_overcount(x, pi_x), li_x - pi_x),
            (lf.riemann_overcount(x, pi_x), li_x - li_sqrt / 2 - pi_x),
        ]
        for got, want in cases:
            assert got == int(mp.floor(want)), (x, got, want)
            closest = min(closest, float(want - mp.floor(want)),
                          float(mp.ceil(want) - want))
    # every floor sits far outside the double-precision error of li
    print("closest overcount to an integer: %.5f" % closest)
    assert closest > 1e-3


def test_riemann_overcounts():
    for x, pi_x, _, overcount in pub.PI_OVERCOUNT_ROWS:
        assert abs(lf.riemann_overcount(x, pi_x) - overcount) <= 1
    with pytest.raises(DomainError):
        lf.riemann_prediction(3.9)


def test_li_origin_constant():
    import mpmath as mp2
    assert lf.LI_AT_2 == pytest.approx(float(mp2.li(2)), abs=1e-14)
    assert lf.li_from_origin(10**6) == \
        pytest.approx(float(mp2.li(10**6)), abs=1e-6)


def test_li2_values():
    assert lf.li2(2) == 0.0
    ref = float(mp.quad(lambda t: 1 / mp.log(t)**2, [2, 1000]))
    assert lf.li2(1000) == pytest.approx(ref, abs=1e-6)
    with pytest.raises(DomainError):
        lf.li2(1.0)


def mp_li(x):
    """Li(x) from 2, by mpmath at 30 digits."""
    x = mp.mpf(float(x))
    return float(mp.li(x) - mp.li(2))


def mp_li2(x):
    """Li2(x) by parts, Li(x) - x/ln x + 2/ln 2, at 30 digits."""
    x = mp.mpf(float(x))
    return float(mp.li(x) - mp.li(2) - x / mp.log(x) + 2 / mp.log(2))


def test_li_against_mpmath_on_log_grid():
    # from 2.1 (the docstring's bound) past Ei's switch to its asymptotic
    # series at x = e^40 and up to 1e30
    xs = np.concatenate([np.geomspace(2, 1e12, 300), [2.1],
                         np.geomspace(1e13, 1e30, 40)])
    got = lf.li(xs)
    want = np.array([mp_li(x) for x in xs])
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] / want[1:] - 1)) <= 1e-14
    # near 2 the two Ei values cancel: an absolute bound there
    near = np.array([2 + 1e-12, 2 + 1e-9, 2 + 1e-7, 2.001, 2.01, 2.1])
    assert np.max(np.abs(lf.li(near) - [mp_li(x) for x in near])) <= 1e-15


def test_li2_against_mpmath():
    for x in (2 + 1e-7, 2.001, 2.5, 10.0, 1e3, 1e9):
        got, want = lf.li2(x), mp_li2(x)
        if x < 2.01:  # Li(x) and x/ln x - 2/ln 2 cancel to a few ulps
            assert abs(got - want) <= 2e-15, x
        else:
            assert abs(got / want - 1) <= 1e-14, x


def test_ei_against_mpmath():
    xs = np.concatenate([np.linspace(math.log(2), math.log(1e12), 200),
                         [39.999, 40.0, 40.001, 45.0, 100.0, 700.0]])
    got = lf._ei(xs)
    want = np.array([float(mp.ei(mp.mpf(float(x)))) for x in xs])
    # a few ulps from the term recurrence: scipy's expi, the same routine
    # with 20 asymptotic terms, errs by up to 1.9e-15 below 40 and 2.8e-14
    # just above it
    assert np.max(np.abs(got / want - 1)) <= 2e-15


@pytest.mark.parametrize("a", [0.25, 0.75])
def test_im_log_gamma_against_mpmath(a):
    ts = np.concatenate([[0.0, 1e-3, 0.5], np.linspace(1, 1000, 120)])
    got = lf._im_log_gamma(a, ts)
    want = [float(mp.loggamma(mp.mpc(a, float(t))).imag) for t in ts]
    assert np.max(np.abs(got - want)) <= 1e-11


def test_li_exactly_zero_at_two_whatever_the_log_rounding(monkeypatch):
    # the constants come from math.log and the grid from np.log; a platform
    # where the two round ln 2 apart must still give exactly 0 at x = 2
    monkeypatch.setattr(lf, "_EI_LN2", np.nextafter(lf._EI_LN2, 0))
    monkeypatch.setattr(lf, "_TWO_OVER_LN2", np.nextafter(lf._TWO_OVER_LN2, 9))
    for f in (lf.li, lf.li2):
        assert f(2) == 0.0
        assert np.array_equal(f(np.array([2.0, 2.0])), [0.0, 0.0])


def test_li_arrays_match_scalar_calls():
    xs = np.concatenate([[2.0, 2 + 1e-9, 2.5], np.geomspace(3, 1e12, 201)])
    for f in (lf.li, lf.li2):
        one = [f(float(x)) for x in xs]
        assert all(type(v) is float for v in one)
        whole = f(xs)
        assert whole.shape == xs.shape
        assert np.array_equal(whole, one)
        assert np.array_equal(f(xs.reshape(2, -1)), whole.reshape(2, -1))
        assert type(f(np.float64(10))) is float


def test_li_arrays_refuse_any_point_below_two():
    for f in (lf.li, lf.li2):
        for bad in ([10.0, 1.999, 1e6], [2.0, np.nan], [[3.0], [-1.0]]):
            with pytest.raises(DomainError):
                f(np.array(bad))


# ---------------------------------------------------------------------------
# psi

def test_psi_rows():
    for x, nearest, diff in pub.PSI_ROWS:
        v = lf.chebyshev_psi(x)
        assert round(v) == nearest
        assert round(v) - x == diff


def test_psi_smallest():
    assert lf.chebyshev_psi(2) == pytest.approx(math.log(2), rel=1e-15)
    with pytest.raises(DomainError):
        lf.chebyshev_psi(1)


def test_psi_alternative_formula(primes_1e6):
    x = 10**5
    alt = 0.0
    for p in primes_1e6[primes_1e6 <= x]:
        p = int(p)
        m, v = 1, p
        while v * p <= x:
            v *= p
            m += 1
        alt += m * math.log(p)
    mine = lf.chebyshev_psi(x, primes_1e6)
    assert abs(mine - alt) <= 1e-9 * alt


def test_rh_inequality():
    for x, _, _ in pub.PSI_ROWS:
        assert lf.psi_rh_inequality_check(x)
    x = 10**4
    fake = x + 3 * math.sqrt(x) * math.log(x)**2
    assert not lf.psi_rh_inequality_check(x, fake)
    with pytest.raises(DomainError):
        lf.psi_rh_inequality_check(99)


# ---------------------------------------------------------------------------
# L evaluation

def test_classical_values():
    assert lf.evaluate_l(lf.ZETA, 2.0) == \
        pytest.approx(math.pi**2 / 6, abs=1e-6)
    assert lf.evaluate_l(lf.BETA4, 1.0) == \
        pytest.approx(math.pi / 4, abs=1e-6)


def test_zeta_half_against_extended_precision_oracle():
    ref = complex(mp.altzeta(mp.mpf("0.5")) / (1 - mp.sqrt(2)))
    assert abs(lf.evaluate_l(lf.ZETA, 0.5) - ref) < 1e-6


def test_domain_and_pole_errors():
    with pytest.raises(DomainError):
        lf.evaluate_l(lf.ZETA, -0.5 + 1j)
    with pytest.raises(DomainError):
        lf.evaluate_l(lf.ZETA, 1.0)
    # beta4 has no pole at 1
    assert abs(lf.evaluate_l(lf.BETA4, 1.0 + 0j) - math.pi / 4) < 1e-12


def test_dirichlet_series_agreement_absolute_regime():
    N = 200000
    n = np.arange(1, N + 1, dtype=float)
    for s in (2.0, 2.5 + 3j, 4.0 - 2j):
        # defining series, tail closed by its integral comparison terms
        direct = complex(np.sum(n ** (-s))) \
            + N ** (1 - s) / (s - 1) + 0.5 * N ** (-s)
        assert abs(lf.evaluate_l(lf.ZETA, s) - direct) < 1e-8


@given(st.floats(0.25, 3.0), st.floats(-40.0, 40.0))
@settings(max_examples=25, deadline=None)
def test_conjugate_symmetry(sigma, t):
    s = complex(sigma, t)
    if abs(s - 1) < 1e-6:
        return
    for lid in (lf.ZETA, lf.BETA4, lf.quadratic(7)):
        a = lf.evaluate_l(lid, s)
        b = lf.evaluate_l(lid, s.conjugate())
        assert b == pytest.approx(a.conjugate(), rel=1e-10, abs=1e-10)


def test_zeta_on_critical_line_against_oracle():
    for t in (14.0, 50.0, 240.0, 480.0):
        got = lf.evaluate_l(lf.ZETA, 0.5 + 1j * t)
        assert abs(got - mp_zeta(0.5 + 1j * t)) < 1e-9


def test_beta4_against_oracle():
    for s in (0.5, 0.5 + 6j, 0.75 + 100j, 2.0 - 3j):
        assert abs(lf.evaluate_l(lf.BETA4, s) - mp_beta4(s)) < 1e-9


# up to t = 500 at the default term count; far right the tail is dropped
# below double precision
@pytest.mark.parametrize("q", [3, 5, 7, 163])
def test_quadratic_against_oracle(q):
    for s in (0.75, 0.5 + 0.2029j, 1.5 + 3j, 0.5 + 10j, 0.5 + 100j,
              0.5 - 185j, 0.5 + 200j, 0.5 + 500j, 50.0, 1e9):
        got = lf.evaluate_l(lf.quadratic(q), s)
        assert abs(got - mp_quadratic(q, s)) < 1e-10, s


#: about 40 heights on the critical line up to t = 500, and points off it
SWEEP = [0.5 + 1j * t for t in np.linspace(0, 500, 41)] + [
    0.25 + 7j, 0.25 + 333.3j, 3 + 100j, 3.0, 50.0, 50 - 20j, 1e9]


def mp_l(lid, s):
    """mpmath's L(s) for the id.  Its multiprecision Hurwitz sums for
    q = 163 take seconds a point high on the critical line, so there that
    modulus comes from mpmath's float context, within 6e-13 of the
    multiprecision values on SWEEP (off the line it errs by up to 2.1e-12)."""
    if lid == lf.ZETA:
        return mp_zeta(s)
    if lid == lf.BETA4:
        return mp_beta4(s)
    if lid.q == 163 and s.real == 0.5 and abs(s.imag) > 20:
        return mp.fp.dirichlet(s, mp_chi(163))
    return mp_quadratic(lid.q, s)


@pytest.mark.parametrize("lid", [lf.ZETA, lf.BETA4] + [
    lf.quadratic(q) for q in (3, 5, 7, 163)], ids=str)
def test_series_against_mpmath_sweep(lid):
    errs = [abs(lf.evaluate_l(lid, s) - mp_l(lid, s)) for s in SWEEP]
    assert max(errs) <= 3e-12


# L(1, chi) by the class number formula: h = 1 for d = -3, -7 and -163,
# and the fundamental unit (1 + sqrt 5)/2 for d = 5; the tail is finite at
# and near s = 1
@pytest.mark.parametrize("q,value", [
    (3, math.pi / (3 * math.sqrt(3))), (7, math.pi / math.sqrt(7)),
    (163, math.pi / math.sqrt(163)),
    (5, 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5))])
def test_quadratic_at_one_is_the_class_number_formula(q, value):
    for s in (1.0, 1 + 1e-15j, 1 - 1e-13):
        assert abs(lf.evaluate_l(lf.quadratic(q), s) - value) < 1e-12


def test_quadratic_needs_odd_prime():
    for bad in (9, 4, 15):
        with pytest.raises(DomainError):
            lf.quadratic(bad)


def test_huge_modulus_refused_before_the_primality_test():
    start = time.perf_counter()
    for q in (lf.TERMS_CAP + 1, 2**61 - 1):
        with pytest.raises(CapacityError):
            lf.quadratic(q)
    assert time.perf_counter() - start < 0.1


def test_discriminants():
    assert [lid.d for lid in (lf.ZETA, lf.BETA4, lf.quadratic(3),
                              lf.quadratic(5), lf.quadratic(163))] == \
        [1, -4, -3, 5, -163]


@pytest.mark.parametrize("d", [1, -4, -3, 5, -163])
def test_theta_against_mpmath(d):
    ts = np.concatenate([[0.1, 0.5], np.linspace(1, 500, 60)])
    a = 0 if d > 0 else 1
    want = [float(mp.im(mp.loggamma((0.5 + a + 1j * mp.mpf(t)) / 2))
                  + t / 2 * mp.log(abs(d) / mp.pi)) for t in ts]
    assert np.max(np.abs(lf._theta(d, ts) - want)) <= 1e-11


def test_error_decreases_in_terms():
    s = 0.5 + 25j
    ref = mp_zeta(s)
    # term counts chosen so truncation still dominates double rounding:
    # errors near 2e-4, 5e-7 and 2e-9
    errs = [abs(lf._l_series(lf.ZETA, s.real, [s.imag], n)[0] - ref)
            for n in (5, 6, 7)]
    assert errs[2] < errs[1] < errs[0]


# ---------------------------------------------------------------------------
# zeros

def test_zeta_zeros_to_31():
    tab = lf.find_zeros(lf.ZETA, 31)
    assert len(tab) == 4
    assert tab.ordinates[0] == pytest.approx(pub.ZETA_ZEROS[0], abs=1e-3)
    for got, want in zip(tab.ordinates, pub.ZETA_ZEROS):
        assert got == pytest.approx(want, abs=1e-2)


def test_zeta_zero_residuals():
    tab = lf.find_zeros(lf.ZETA, 31)
    for g in tab.ordinates:
        assert abs(lf.evaluate_l(lf.ZETA, 0.5 + 1j * g)) < 1e-6


def test_beta4_zeros_against_completed_function_oracle():
    tab = lf.find_zeros(lf.BETA4, 10)
    assert len(tab) >= 1
    for g in tab.ordinates:
        # extended-precision residual of the series at the found ordinate
        assert abs(mp_beta4(0.5 + 1j * float(g))) < 1e-8


def test_zero_just_below_t_max_is_found():
    # the scan steps stop at 178.35, short of t_max; beta4's 107th zero
    # lies between them
    tab = lf.find_zeros(lf.BETA4, 178.373)
    assert len(tab) == 107
    assert tab.ordinates[-1] == pytest.approx(178.362374909, abs=1e-8)
    assert abs(mp_beta4(0.5 + 1j * float(tab.ordinates[-1]))) < 1e-8


def bracket_counts(monkeypatch):
    """The number of brackets each later `_bisect_zeros` call gets."""
    sizes = []
    bisect = lf._bisect_zeros

    def spy(lid, brackets):
        sizes.append(len(brackets))
        return bisect(lid, brackets)

    monkeypatch.setattr(lf, "_bisect_zeros", spy)
    return sizes


def test_zero_past_t_max_on_the_last_grid_step_is_dropped(monkeypatch):
    # the top grid ends at 14.13, short of zeta's first zero 14.1347, so
    # that zero is never bracketed
    sizes = bracket_counts(monkeypatch)
    assert len(lf.find_zeros(lf.ZETA, 14.13)) == 0
    assert len(lf.find_zeros(lf.ZETA, 14.14)) == 1
    assert sizes == [0, 1]


@pytest.mark.parametrize("t_max", [179.15, 180])
def test_top_grid_ends_exactly_at_t_max(monkeypatch, t_max):
    # np.arange steps to 179.15000000000003 and 180.00000000000003
    grids = []
    hardy = lf._hardy_z_grid

    def spy(lid, ts):
        grids.append(ts)
        return hardy(lid, ts)

    monkeypatch.setattr(lf, "_hardy_z_grid", spy)
    lf.find_zeros(lf.ZETA, t_max)
    assert grids[0][-1] == grids[0].max() == t_max


@pytest.mark.parametrize("lid", [lf.BETA4, lf.quadratic(5)])
def test_each_block_sums_the_terms_of_its_own_rows(monkeypatch, lid):
    blocks = []
    series = lf._l_series

    def spy(lid, sigma, ts, n):
        blocks.append((len(ts), n, lf._terms(lid, np.abs(ts).max())))
        return series(lid, sigma, ts, n)

    monkeypatch.setattr(lf, "_l_series", spy)
    lf.find_zeros(lid, 60)
    top = lf._terms(lid, 60)
    assert all(rows <= lf.BLOCK_ROWS and need <= n <= top
               for rows, n, need in blocks)
    assert min(n for _, n, _ in blocks) < top


@pytest.mark.parametrize("lid", [lf.ZETA, lf.BETA4, lf.quadratic(5)])
def test_blocked_grid_matches_one_order(lid):
    ts = np.linspace(0.05, 180, 1800)
    one = lf._l_series(lid, 0.5, ts, lf._terms(lid, 180))
    assert np.max(np.abs(lf._l_grid(lid, 0.5, ts) - one)) <= 1e-12


def test_dip_rescan_finds_a_close_pair(monkeypatch):
    # the pair 10.012, 10.031 lies between the grid points 10.00 and 10.05,
    # where the sign does not change; only the rescan of the dip finds it
    roots = (3.3, 10.012, 10.031, 20.2)
    monkeypatch.setattr(lf, "_hardy_z_grid", lambda lid, ts: (
        (ts - 10.012) * (ts - 10.031) * (ts - 3.3) * (ts - 20.2) / 100))
    tab = lf.find_zeros(lf.ZETA, 25)
    assert len(tab) == 4
    assert np.allclose(tab.ordinates, roots, rtol=0, atol=1e-9)


def test_each_zero_is_bracketed_once(monkeypatch):
    sizes = bracket_counts(monkeypatch)
    counts = [len(lf.find_zeros(lid, 180)) for lid in (lf.ZETA, lf.BETA4)]
    assert counts == sizes == [69, 107]


def test_zeta_zeros_to_500_are_all_269():
    tab = lf.find_zeros(lf.ZETA, 500)
    assert len(tab) == 269  # N(500)
    for k in (1, 100, 269):
        assert abs(tab.ordinates[k - 1] - float(mp.zetazero(k).imag)) < 1e-8


def test_zero_caps_and_unsupported(monkeypatch):
    with pytest.raises(CapacityError):
        lf.find_zeros(lf.ZETA, 501)
    # q = 409 reaches t = 72 pi with 80 periods; just above it needs 81,
    # 33,129 terms, and is refused before any grid is built
    assert lf._terms(lf.quadratic(409), 72 * math.pi) == 409 * 80
    grids = []
    monkeypatch.setattr(lf, "_hardy_z_grid", lambda lid, ts: grids.append(ts))
    with pytest.raises(CapacityError):
        lf.find_zeros(lf.quadratic(409), np.nextafter(72 * math.pi, 300))
    assert grids == []
    for t_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lf.find_zeros(lf.ZETA, t_max)


def check_quadratic_zeros(q, t_max, count, checked):
    """find_zeros for the character mod q: count zeros to t_max, within 1
    of the smooth count (T/2 pi) ln(qT/2 pi e), and mpmath's rotated value
    changes sign across the zeros at the indices checked."""
    tab = lf.find_zeros(lf.quadratic(q), t_max)
    assert tab.id == lf.quadratic(q) and len(tab) == count
    x = t_max / (2 * math.pi)
    assert abs(count - x * math.log(q * x / math.e)) <= 1
    with mp.workdps(20):
        for g in tab.ordinates[checked]:
            assert mp_rotated(q, g - 1e-6) * mp_rotated(q, g + 1e-6) < 0, g
    return tab


@pytest.mark.parametrize("q,count", [(3, 356), (7, 424)])
def test_quadratic_zeros_to_500(q, count):
    check_quadratic_zeros(q, 500, count, np.r_[0:5, 50:count:50, -1])


def test_quadratic_163_zeros():
    tab = check_quadratic_zeros(163, 40, 38, np.r_[0:3, -1])
    assert tab.ordinates[0] == pytest.approx(0.20290134, abs=1e-8)


@slow
def test_quadratic_163_zeros_to_185():
    check_quadratic_zeros(163, 185, 221, np.r_[0, 100, -1])


@slow
def test_quadratic_409_zeros_at_the_cap():
    # t = 72 pi is the largest height whose 80 periods stay under TERMS_CAP
    check_quadratic_zeros(409, 72 * math.pi, 310, np.r_[0, 155, -1])


# ---------------------------------------------------------------------------
# zero-table files

def test_zero_table_roundtrip(tmp_path):
    tab = lf.find_zeros(lf.ZETA, 31)
    path = tmp_path / "zeta.zeros"
    path.write_text(lf.format_zero_table(tab))
    back = lf.parse_zero_table(path, lf.ZETA)
    assert back.id == lf.ZETA
    assert np.allclose(back.ordinates, tab.ordinates, atol=1e-9)


def test_zero_table_two_lines(tmp_path):
    path = tmp_path / "z.zeros"
    path.write_text("14.134725\n21.022040\n")
    tab = lf.parse_zero_table(path, lf.ZETA)
    assert len(tab) == 2


def test_zero_table_comments_only(tmp_path):
    path = tmp_path / "z.zeros"
    path.write_text("# lfunction=beta4\n# empty\n")
    tab = lf.parse_zero_table(path)
    assert len(tab) == 0 and tab.id == lf.BETA4


def test_zero_table_negative_entry(tmp_path):
    path = tmp_path / "z.zeros"
    path.write_text("14.1\n-1.0\n")
    with pytest.raises(ParseError) as err:
        lf.parse_zero_table(path)
    assert err.value.line == 2


def test_zero_table_descending(tmp_path):
    path = tmp_path / "z.zeros"
    path.write_text("21.0\n14.1\n")
    with pytest.raises(ParseError) as err:
        lf.parse_zero_table(path)
    assert err.value.line == 2


@pytest.mark.parametrize("text", ["foo", "zeta:3", "quadratic:",
                                  "quadratic:x", "quadratic:9"])
def test_bad_lfunction_name_is_domain_error(text):
    with pytest.raises(DomainError):
        lf._parse_lid(text)


def test_zero_table_header_mismatch(tmp_path):
    path = tmp_path / "z.zeros"
    path.write_text("# lfunction=beta4\n6.02\n")
    with pytest.raises(ParseError):
        lf.parse_zero_table(path, lf.ZETA)
