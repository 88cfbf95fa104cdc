"""Prime-pair races: pair counting, the twin-prime constant and singular
factors, the pair-count prediction 2*C2*Li2(x), and the renormalized race
across gaps.

Renormalized counts pi'_2k = pi_2k * prod_{p|k, p>2} (p-2)/(p-1) are exact
rationals; leadership comparisons scale every team to a common denominator
and compare integers, so ties are decided exactly, never through floats.
"""

import functools
import math

import numpy as np

from . import sieve
from .errors import CapacityError, DomainError
from .lfunctions import li2
from .races import RaceLedger, _running_counts


#: the twin-prime constant, prod over odd primes p of (1 - 1/(p-1)^2)
#: (Wrench, Math. Comp. 15, 1961; OEIS A005597; mpmath.twinprime)
C2 = 0.66016181584686957392781211


def singular_factor(k):
    """prod over odd primes p dividing k of (p-1)/(p-2), as (num, den)."""
    k = int(k)
    if k < 1:
        raise DomainError("k must be >= 1")
    num = den = 1
    for p in sieve.prime_divisors(k):
        if p > 2:
            num *= p - 1
            den *= p - 2
    g = math.gcd(num, den)
    return num // g, den // g


def normalized_count(gap, counts):
    """pi'_2k series: the raw counts of one gap times its reciprocal
    singular factor."""
    num, den = singular_factor(gap // 2)
    return counts * (den / num)


def hl_prediction(x):
    """The common pair-count prediction 2 * C2 * Li2(x)."""
    if x < 2:
        raise DomainError("prediction needs x >= 2")
    return 2.0 * C2 * li2(x)


def _scaled_teams(gaps):
    """Common-denominator integer scale factors for exact normalized
    comparisons: scale_g = den_lcm * num_rec / den_rec with the reciprocal
    singular factor num_rec/den_rec = (p-2)/(p-1) products."""
    recs = [singular_factor(g // 2) for g in gaps]  # counts times den/num
    lcm = math.lcm(*(num for num, _ in recs))
    return [den * (lcm // num) for num, den in recs]


def _pair_chunks(limit, gaps, scales):
    """Yield (xs, counts) per sieve segment: xs are the starts of any gap's
    pairs there, counts each gap's running pair count at those xs (carried
    across segments) times its scale."""
    carry = np.zeros(len(gaps), dtype=np.int64)
    scales = np.array(scales, dtype=np.int64)[:, None]
    halves = [g // 2 for g in gaps]
    buf = None
    for lo, n, seg in sieve._segments(limit, max(gaps)):
        # one buffer per pass, sized by the first (longest) segment
        buf = np.empty(n, dtype=bool) if buf is None else buf[:n]
        np.copyto(buf, seg[halves[0]:halves[0] + n])
        for h in halves[1:]:
            np.logical_or(buf, seg[h:h + n], out=buf)
        np.logical_and(buf, seg[:n], out=buf)
        idx = np.flatnonzero(buf)
        if len(idx):
            counts = _running_counts([seg[idx + h] for h in halves], carry)
            counts *= scales
            yield lo + 2 * idx.astype(np.int64, copy=False), counts


def pair_race(gaps, limit):
    """Race the renormalized pair counts across gaps: the RaceLedger of the
    gaps' counts, each scaled to a common denominator, as run_dense_race
    returns for progressions.

    The dense ledger samples at every x where any gap's count changes, so
    races.detect_lead_changes(ledger, place) on it gives exact place
    changes.  A scaled count is at most max(scales) * pi(limit); gap sets
    whose bound exceeds int64 are a CapacityError.
    """
    gaps = sieve._check_gaps(gaps)
    limit = sieve.check_limit(limit, extra=max(gaps))
    scales = _scaled_teams(gaps)
    # pi_2k(x) <= pi(x) <= x // 2 + 1: count pi(x) only past the cheap bound
    big = max(scales)
    if big * (limit // 2 + 1) >= 2**63 and big * sieve._lucy(limit) >= 2**63:
        raise CapacityError("pair-count scale %d times up to pi(%d) pairs "
                            "exceeds int64" % (big, limit))
    chunks = functools.partial(_pair_chunks, limit, gaps, scales)
    return RaceLedger(map(str, gaps), limit, chunks)


def round_half_away(v):
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


def twin_table(gaps, checkpoints, limit=None):
    """Rows of the renormalized race table: one dict per (x, gap) with the
    raw count, normalized count, prediction, and the difference under both
    rounding conventions (exact-then-round, and subtract-the-floored-
    prediction as the published tables do)."""
    # sieve._check_checkpoints, inside count_pairs_by_gap, refuses them
    # unless strictly ascending and <= limit, after the limit check as in pi
    checkpoints = [int(x) for x in checkpoints]
    if not checkpoints:
        raise DomainError("no checkpoints")
    gaps = sieve._check_gaps(gaps)
    counts = sieve.count_pairs_by_gap(
        checkpoints[-1] if limit is None else limit, gaps, checkpoints)
    rows = []
    preds = {x: hl_prediction(x) for x in checkpoints}
    for gap, col in zip(gaps, counts.T):
        for x, raw, nv in zip(checkpoints, col, normalized_count(gap, col)):
            rows.append({
                "x": x,
                "gap": gap,
                "raw": int(raw),
                "normalized": float(nv),
                "hl_prediction": preds[x],
                "difference": float(nv - preds[x]),
                "difference_rounded": round_half_away(nv - preds[x]),
                "difference_vs_floored": round_half_away(
                    nv - math.floor(preds[x])),
            })
    return rows
