"""The pair goldens against independent oracles: the benchmark's own checks
(``bench/checks.py``: a plain sieve, mpmath's Li2 and the published C2,
sharing no code with the package), run on the copies in ``tests/golden/``.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")  # bench/checks.py imports it

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))

import checks  # noqa: E402
from workloads import Command  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
#: the sizes of both golden commands (see test_golden.CASES)
PAIRS = {"limit": 10**6, "gaps": (2, 4, 6, 8, 10)}


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
