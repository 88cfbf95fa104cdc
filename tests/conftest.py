import os

import numpy as np
import pytest

from primeraces import sieve

#: marks a test that sieves near or past 10^9, seconds to a minute of work:
#: it runs only with PRIMERACES_SLOW=1
slow = pytest.mark.skipif(os.environ.get("PRIMERACES_SLOW") != "1",
                          reason="slow; set PRIMERACES_SLOW=1")


def trial_division_primes(limit):
    """Independent oracle: primes by direct trial division."""
    out = []
    for n in range(2, limit + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


def pair_starts(limit, gaps):
    """Oracle without the pair sieve: per gap g, every prime p <= limit with
    p + g also prime, read off primes_up_to(limit + g)."""
    out = []
    for g in gaps:
        primes = sieve.primes_up_to(limit + g)
        out.append(primes[(primes <= limit) & np.isin(primes + g, primes)])
    return out


def counts_by_x(table):
    """A ResidueCounts table as {x: {residue: count}}."""
    return {x: dict(zip(table.residues, row))
            for x, row in zip(table.xs.tolist(), table.counts.tolist())}


@pytest.fixture
def segment_entries(monkeypatch):
    """Setter for sieve.SEGMENT_ENTRIES: every sieve pass started after a
    call runs on segments of that many entries, until the test ends.
    Returns the value set."""
    def set_entries(entries):
        monkeypatch.setattr(sieve, "SEGMENT_ENTRIES", entries)
        return entries
    return set_entries


@pytest.fixture(scope="session")
def primes_1e6():
    return sieve.primes_up_to(10**6)


@pytest.fixture(scope="session")
def oracle_primes_1e5():
    return np.array(trial_division_primes(10**5), dtype=np.int64)
