import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeraces import lfunctions as lf
from primeraces.errors import CapacityError, DomainError, ParseError

import published_tables as pub

mp.mp.dps = 30


def mp_zeta(s):
    return complex(mp.zeta(mp.mpc(s)))


def mp_beta4(s):
    s = mp.mpc(s)
    return complex(4**(-s) * (mp.zeta(s, mp.mpf(1) / 4)
                              - mp.zeta(s, mp.mpf(3) / 4)))


def mp_quadratic(q, s):
    s = mp.mpc(s)
    return complex(mp.power(q, -s) * mp.fsum(
        lf.legendre_symbol(r, q) * mp.zeta(s, mp.mpf(r) / q)
        for r in range(1, q)))


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


@pytest.mark.parametrize("q", [3, 5, 7, 163])
def test_quadratic_against_oracle(q):
    for s in (0.75, 0.5 + 0.2029j, 1.5 + 3j, 0.5 + 10j):
        got = lf.evaluate_l(lf.quadratic(q), s, terms=64)
        assert abs(got - mp_quadratic(q, s)) < 1e-8


def test_quadratic_needs_odd_prime():
    for bad in (9, 4, 15):
        with pytest.raises(DomainError):
            lf.quadratic(bad)


def test_error_decreases_in_terms():
    s = 0.5 + 25j
    ref = mp_zeta(s)
    # term counts chosen so truncation still dominates double rounding
    errs = [abs(lf.evaluate_l(lf.ZETA, s, terms=n) - ref)
            for n in (24, 30, 36)]
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
        assert abs(lf.evaluate_l(lf.ZETA, 0.5 + 1j * g, terms=160)) < 1e-6


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


def test_zeta_zeros_to_500_are_all_269():
    tab = lf.find_zeros(lf.ZETA, 500)
    assert len(tab) == 269  # N(500)
    for k in (1, 100, 269):
        assert abs(tab.ordinates[k - 1] - float(mp.zetazero(k).imag)) < 1e-8


def test_cvz_weights_cached_read_only():
    assert lf._cvz_weights.cache_info().maxsize is not None
    for n in (24, 160, 331):
        w = lf._cvz_weights(n)
        assert w is lf._cvz_weights(n)
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert np.array_equal(w, lf._cvz_weights.__wrapped__(n))


def test_zero_caps_and_unsupported():
    with pytest.raises(CapacityError):
        lf.find_zeros(lf.ZETA, 501)
    with pytest.raises(DomainError):
        lf.find_zeros(lf.quadratic(7), 10)
    for t_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            lf.find_zeros(lf.ZETA, t_max)


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
