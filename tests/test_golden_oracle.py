"""The goldens against independent oracles: the benchmark's own checks
(``bench/checks.py``: a plain sieve, mpmath's zeros, zero counts, Li and Li2
and the published C2, sharing no code with the package), run on the copies
in ``tests/golden/``, and mpmath's rotated L-functions for the rounding of
every printed zero ordinate.
"""

import sys
from pathlib import Path

import pytest

mpmath = pytest.importorskip("mpmath")  # bench/checks.py imports it

from conftest import mp_rotated, slow  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))

import checks  # noqa: E402
from workloads import Command  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
#: the sizes of both golden commands (see test_golden.CASES)
PAIRS = {"limit": 10**6, "gaps": (2, 4, 6, 8, 10)}
#: the pi-li explicit golden's command (see test_golden.EXPLICIT)
EXPLICIT = {"lo": 10**4, "hi": 10**6, "points": 2000,
            "truncations": (10, 100, 1000), "target": "pi-li",
            "zeros": "zeros_zeta_180.zeros"}


@pytest.fixture(scope="module")
def oracle():
    return checks.Oracle(10**6 + 10)


@pytest.mark.parametrize("check, golden", [
    (checks.check_twins_table, "twins_table9.csv"),
    (checks.check_pair_race, "twins_race.csv"),
])
def test_pair_golden_passes_the_bench_oracle(check, golden, oracle):
    cmd = Command(golden, 0, (), (golden,), PAIRS)
    assert check(cmd, str(GOLDEN), oracle) == []


@pytest.mark.parametrize("check, golden, tmax", [
    (checks.check_zeros_zeta, "zeros_zeta.zeros", 60),
    (checks.check_zeros_zeta, "zeros_zeta_180.zeros", 180),
    (checks.check_zeros_beta4, "zeros_beta4.zeros", 60),
    pytest.param(checks.check_zeros_beta4, "zeros_beta4_180.zeros", 180,
                 marks=slow),
])
def test_zero_golden_passes_the_bench_oracle(check, golden, tmax, oracle):
    cmd = Command(golden, 0, (), (golden,), {"tmax": tmax})
    assert check(cmd, str(GOLDEN), oracle) == []


def test_explicit_golden_passes_the_bench_oracle(oracle):
    cmd = Command("explicit_pi_li", 0, (), ("explicit_pi_li.csv",
                                            "explicit_pi_li.stats.json"),
                  EXPLICIT)
    assert checks.check_explicit(cmd, str(GOLDEN), oracle) == []


#: mpmath's real rotated function on the critical line for each zero file
ROTATED = {
    "zeta": mpmath.siegelz,
    "beta4": checks._completed_beta4,
    "quadratic:163": lambda t: mp_rotated(163, t),
}


# each printed ordinate is its zero correctly rounded to 9 decimals: the
# rotated function changes sign within half a unit of the last decimal
@pytest.mark.parametrize("golden", [
    "zeros_zeta.zeros",
    "zeros_beta4.zeros",
    "zeros_zeta_180.zeros",
    pytest.param("zeros_beta4_180.zeros", marks=slow),
    pytest.param("zeros_quadratic_163.zeros", marks=slow),
])
def test_zero_golden_is_correctly_rounded(golden):
    header, *lines = (GOLDEN / golden).read_text().splitlines()
    rotated = ROTATED[header.split("=")[1]]
    half = mpmath.mpf("5e-10")
    with mpmath.workdps(30):
        bad = [g for g in lines
               if rotated(mpmath.mpf(g) - half)
               * rotated(mpmath.mpf(g) + half) >= 0]
    assert bad == []
