"""Race bookkeeping over progression counts.

A race pits disjoint teams of residue classes mod q against each other.
A ledger holds per-team cumulative counts at every prime up to a limit
and streams them one sieve segment at a time.  A "leader" requires strict
inequality; ties are a distinct state and generate their own lead-change
events.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .errors import DomainError

TIE = "tie"


@dataclass(frozen=True)
class TeamSpec:
    label: str
    residues: frozenset

    def __init__(self, label, residues):
        object.__setattr__(self, "label", str(label))
        object.__setattr__(self, "residues", frozenset(int(r) for r in residues))
        if not self.residues:
            raise DomainError("team %r has no residues" % label)


@dataclass(frozen=True)
class LeadChangeEvent:
    x: int
    previous_leader: str
    new_leader: str


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    total: int
    underflow: int
    overflow: int


class RaceLedger:
    """Per-team cumulative counts sampled at ascending x values.

    The samples cover every x <= ``limit`` where some team's count changes,
    which is what lead-change detection and density measures require.
    ``chunks()`` yields (xs, counts) blocks in ascending x, counts of shape
    (len(labels), len(xs)).  The ledger keeps only that source and sieves
    afresh on each call, so it holds one segment at a time; its ``xs`` and
    ``counts`` are both concatenated from one pass over the blocks on first
    use of either, which holds every sample: limit <= sieve.HELD_CAP.
    """

    def __init__(self, labels, limit, chunks):
        self.labels, self.limit, self.chunks = list(labels), limit, chunks

    @functools.cached_property
    def xs(self):
        return self._join()[0]

    @functools.cached_property
    def counts(self):
        return self._join()[1]

    def _join(self):
        sieve.check_held(self.limit)
        empty = (np.empty(0, np.int64),
                 np.empty((len(self.labels), 0), np.int64))
        self.xs, self.counts = (np.concatenate(b, axis=-1)
                                for b in zip(empty, *self.chunks()))
        return self.xs, self.counts


def _validate_teams(q, teams):
    seen = set()
    for t in teams:
        for r in t.residues:
            if not (0 <= r < q):
                raise DomainError("residue %d outside 0..%d" % (r, q - 1))
            if math.gcd(r, q) != 1:
                raise DomainError("residue %d not coprime to %d" % (r, q))
            if r in seen:
                raise DomainError("residue %d claimed by two teams" % r)
            seen.add(r)


def _running_counts(hits, carry):
    """A fresh (teams, n) int64 block of running counts: row i sums the
    n-entry row hits[i] cumulatively from carry[i], one row at a time in
    place.  ``carry`` (int64, one entry per team) advances to the last
    column."""
    out = np.empty((len(carry), len(hits[0])), dtype=np.int64)
    for row, hit, c in zip(out, hits, carry.tolist()):
        np.cumsum(hit, out=row)
        row += c
    carry[:] = out[:, -1]
    return out


def _race_chunks(limit, q, teams):
    """Yield (primes, counts) per sieve segment: each team's running count
    at each prime, carried across segments."""
    k = len(teams)
    team_of = np.full(q, k, dtype=np.min_scalar_type(k))  # k = no team
    for i, t in enumerate(teams):
        team_of[list(t.residues)] = i
    rows = np.arange(k, dtype=team_of.dtype)[:, None]
    carry = np.zeros(k, dtype=np.int64)
    for primes in sieve.iter_prime_blocks(limit):
        if len(primes):
            # primes % q, by a floor division numpy does without a hardware
            # divide: about half the time of the int64 remainder
            r = primes // q
            r *= q
            np.subtract(primes, r, out=r)
            yield primes, _running_counts(team_of[r] == rows, carry)


def run_dense_race(limit, q, teams):
    """Ledger sampled at every prime <= limit."""
    teams = list(teams)
    if not teams:
        raise DomainError("a race needs at least one team")
    _validate_teams(q, teams)
    limit = sieve.check_limit(limit)
    chunks = functools.partial(_race_chunks, limit, q, teams)
    return RaceLedger([t.label for t in teams], limit, chunks)


def _states(mat, place="first"):
    """Index of the strict holder of a place per column of a count block
    (-1 = tie).  place "first" tracks the leader, "last" the trailing
    team.  One pass per row over contiguous memory: a row strictly past
    the edge takes the place, a row level with it makes a tie."""
    if place not in ("first", "last"):
        raise DomainError("place must be 'first' or 'last'")
    past, bound = ((np.greater, np.maximum) if place == "first"
                   else (np.less, np.minimum))
    edge = mat[0]
    state = np.zeros(mat.shape[1], dtype=np.int64)
    for i in range(1, mat.shape[0]):
        row = mat[i]
        np.putmask(state, row == edge, -1)
        np.putmask(state, past(row, edge), i)
        if i + 1 < mat.shape[0]:  # two rows need no edge of their own
            edge = bound(edge, row)
    return state


def _changes(ledger, value, X):
    """Scan a ledger for the samples x <= X where ``value`` (one entry per
    sample of a teams x samples block of counts) changes, starting from
    its value at the all-zero counts and stopping after the block that
    holds X.  Returns that start value, the int64 (x, old, new) rows of the
    changes (shape 3 x changes) and the value at X."""
    start = last = value(np.zeros((len(ledger.labels), 1), np.int64))[0]
    rows = [np.empty((3, 0), np.int64)]
    for xs, mat in ledger.chunks():
        n = int(np.searchsorted(xs, X, side="right"))
        full = np.concatenate(([last], value(mat[:, :n])))
        i = np.flatnonzero(full[1:] != full[:-1])
        rows.append(np.stack((xs[i], full[i], full[i + 1])))
        last = full[-1]
        if len(xs) and xs[-1] >= X:
            break
    return start, np.concatenate(rows, axis=1), last


def _runs(scan, target, X):
    """Int64 starts and ends of the maximal integer runs [a, b] within
    [2, X] on which the value of a ``_changes`` scan equals ``target``."""
    start, (x, old, new), last = scan
    first = np.array([2] if start == target else [], np.int64)
    final = np.array([X] if last == target else [], np.int64)
    return (np.concatenate((first, x[new == target])),
            np.concatenate((x[old == target] - 1, final)))


def detect_lead_changes(ledger, place="first"):
    """Every transition of strict leadership or into/out of ties, in order,
    from the all-zero start.

    With place="last" the events track the trailing position instead (the
    other statistic worth watching in a many-team race)."""
    _, rows, _ = _changes(ledger, lambda m: _states(m, place), ledger.limit)
    names = ledger.labels + [TIE]  # state -1 (a tie) reads the last name
    return [LeadChangeEvent(x, names[old], names[new])
            for x, old, new in rows.T.tolist()]


def lead_windows(ledger, label):
    """Maximal integer intervals [start, end] on which `label` leads strictly.

    Counts are step functions: a state reached at prime p holds on the
    integers p .. p'-1 where p' is the next sampled prime (or through
    ``ledger.limit`` for the final state).
    """
    if label not in ledger.labels:
        raise DomainError("no team labelled %r" % (label,))
    scan = _changes(ledger, _states, ledger.limit)
    starts, ends = _runs(scan, ledger.labels.index(label), ledger.limit)
    return list(zip(starts.tolist(), ends.tolist()))


def littlewood_bound(x):
    """Classical comparison curve sqrt(x) ln ln ln x / (2 ln x): the
    challenger's lead provably exceeds this envelope infinitely often."""
    if not x > math.e ** math.e:
        raise DomainError("the triple log needs x > e^e")
    return 0.5 * math.sqrt(x) * math.log(math.log(math.log(x))) / math.log(x)


def euler_phi(q):
    """Euler's totient, from the distinct prime divisors of q."""
    q = int(q)
    if q < 1:
        raise DomainError("totient needs q >= 1")
    phi = q
    for p in sieve.prime_divisors(q):
        phi -= phi // p
    return phi


def error_term(x, q, a, pi_x, pi_x_q_a):
    """Deviation of pi(x;q,a) from the equidistributed share pi(x)/phi(q),
    normalized by sqrt(x)/ln(x), as a float."""
    if not x >= 3:
        raise DomainError("error term needs x >= 3")
    if math.gcd(a, q) != 1:
        raise DomainError("residue %d not coprime to %d" % (a, q))
    return (pi_x_q_a - pi_x / euler_phi(q)) * math.log(x) / math.sqrt(x)


def shanks_ratio(x, count_a, count_b):
    """(count_a - count_b) * ln(x) / sqrt(x), the histogram statistic;
    elementwise over arrays of x and counts."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 2):
        raise DomainError("ratio needs x >= 2")
    return (count_a - count_b) * np.log(x) / np.sqrt(x)


def build_histogram(samples, bins, lo, hi):
    """Uniform histogram, bins closed on the left, last bin closed on both
    sides; samples outside [lo, hi] (+-inf too) land in underflow/overflow
    tallies, and a NaN sample is refused."""
    if bins < 1:
        raise DomainError("need at least one bin")
    if not lo < hi:
        raise DomainError("histogram range must satisfy lo < hi")
    s = np.asarray(list(samples), dtype=float)
    if np.isnan(s).any():
        raise DomainError("histogram samples must not be NaN")
    under = int(np.count_nonzero(s < lo))
    over = int(np.count_nonzero(s > hi))
    inside = s[(s >= lo) & (s <= hi)]
    counts, edges = np.histogram(inside, bins=bins, range=(lo, hi))
    return Histogram(edges, counts.astype(np.int64), int(s.size), under, over)


#: psi(n) = H_(n-1) - gamma for n = 1..10, the harmonic sums taken in order
_PSI_SMALL = np.cumsum(np.r_[0.0, 1 / np.arange(1.0, 10.0)]) - np.euler_gamma
#: B_2k / 2k for k = 7 down to 1: the asymptotic series of psi
_PSI_SERIES = (1 / 12, -691 / 32760, 1 / 132, -1 / 240, 1 / 252, -1 / 120,
               1 / 12)


def _digamma(n):
    """psi(n) at integer-valued n >= 1, elementwise: H_(n-1) - gamma up to
    10, above it ln n - 1/(2n) - sum B_2k / (2k n^2k) to seven terms
    (Abramowitz & Stegun 6.3.18), whose next term is below 1e-16 relative."""
    n = np.asarray(n, dtype=float)
    s = np.maximum(n, 10.0)
    z = 1 / (s * s)
    poly = 0.0
    for c in _PSI_SERIES:
        poly = poly * z + c
    small = _PSI_SMALL[np.clip(n, 1, 10).astype(np.intp) - 1]
    return np.where(n <= 10, small, np.log(s) - 0.5 / s - z * poly)


def leader_density(ledger, condition, X, kind):
    """Density of {2 <= x <= X : condition} under the chosen measure, as a
    float.

    ``condition`` maps a (teams x samples) block of counts to a boolean
    per-sample array; between samples the counts (hence the predicate) are
    constant, so the qualifying integers form runs.
    kind "logarithmic" is (1/ln X) * sum 1/x over qualifying integers (the
    exact sum, each run telescoped into one digamma difference); kind
    "natural" is the plain proportion of qualifying integers.
    """
    if X < 2:
        raise DomainError("density needs X >= 2")
    if X > ledger.limit:
        raise DomainError("X beyond the ledger limit")
    if not float(X).is_integer():
        raise DomainError("density needs an integer X, got %r" % X)
    if kind not in ("logarithmic", "natural"):
        raise DomainError("kind must be 'logarithmic' or 'natural'")
    def flags(mat):
        f = np.asarray(condition(mat), dtype=bool)
        if f.shape == mat.shape[1:]:
            return f
        raise DomainError("condition must yield one flag per sample")
    starts, ends = _runs(_changes(ledger, flags, X), True, X)
    if kind == "logarithmic":
        mass = np.sum(_digamma(ends + 1.0) - _digamma(starts * 1.0))
        return float(mass / math.log(X))
    return float(np.sum(ends - starts + 1) / X)


def strictly_ahead(team_index):
    """Condition factory: team `team_index` strictly above every other.
    DomainError if the counts hold no team of that index."""
    def cond(mat):
        if not 0 <= team_index < mat.shape[0]:
            raise DomainError("team index %d outside 0..%d"
                              % (team_index, mat.shape[0] - 1))
        out = np.ones(mat.shape[1], dtype=bool)
        for j in range(mat.shape[0]):
            if j != team_index:
                out &= mat[team_index] > mat[j]
        return out
    return cond


def squares_mod(q):
    """Nonzero quadratic residues and nonresidues of an odd prime modulus."""
    if q % 2 == 0 or not sieve.is_prime(q):
        raise DomainError("squares/nonsquares split needs an odd prime modulus")
    s = sorted({pow(b, 2, q) for b in range(1, q)})
    n = sorted(set(range(1, q)) - set(s))
    return set(s), set(n)


# ---------------------------------------------------------------------------
# tie model: random walk on the (k-1)-dimensional difference lattice

_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed, start, count):
    """Streamed SplitMix64 outputs seed+start .. seed+start+count-1.

    Counter-based, so any subsequence is reproducible independent of how
    the stream is chunked; this is the PRNG fixed for all walk trials.
    ``seed`` may also be a 1-d array of uint64 seeds: the result then has
    one stream per row, each equal to the scalar call with that seed.
    """
    if np.ndim(seed):
        seed = np.asarray(seed, dtype=np.uint64)[:, None]
    else:
        seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        n = np.arange(start, start + count, dtype=np.uint64)
        z = seed + (n + np.uint64(1)) * _SM_GAMMA
        z = (z ^ (z >> np.uint64(30))) * _SM_M1
        z = (z ^ (z >> np.uint64(27))) * _SM_M2
        return z ^ (z >> np.uint64(31))


#: trial x step cells drawn per block of the walk, and trial x team counts
#: carried per group of trials: bounds its memory whatever the team and
#: trial counts (larger blocks fall out of cache and run slower)
_WALK_CELLS = 1 << 16


def _first_returns(seeds, k, rounds, out):
    """Write into ``out`` the first return step of each seed's walk within
    ``rounds`` rounds of k steps (0 = none).

    Only the end of a round can be a return: after r rounds the walk is at
    the origin iff every team was chosen exactly r times.  Live trials are
    drawn in blocks of rounds that double in size, each block tallied by
    one bincount into a (trials, k, rounds) grid of per-round team counts;
    a trial leaves the live set at its first return.
    """
    live = np.arange(len(seeds))
    carry = np.zeros((len(seeds), k, 1), dtype=np.int64)
    done, m = 0, 1
    while len(live) and done < rounds:
        m = min(m, rounds - done, max(1, _WALK_CELLS // (len(live) * k)))
        picks = (splitmix64(seeds[live], done * k, m * k)
                 % np.uint64(k)).astype(np.intp)
        picks *= m
        picks += np.arange(m * k) // k
        picks += np.arange(0, len(live) * k * m, k * m)[:, None]
        tally = np.bincount(picks.ravel(), minlength=len(live) * k * m)
        tally = np.cumsum(tally.reshape(len(live), k, m), axis=2) + carry
        level = (tally == np.arange(done + 1, done + m + 1)).all(axis=1)
        hit = level.any(axis=1)
        out[live[hit]] = (done + 1 + level[hit].argmax(axis=1)) * k
        live, carry = live[~hit], tally[~hit, :, -1:]
        done, m = done + m, 2 * m


def simulate_tie_walk(teams, steps, trials, seed):
    """Run the tie-model walk: per step one of k = ``teams`` vectors, chosen
    uniformly, is added to the (k-1)-dimensional count-difference vector.
    Returns an int64 array of each trial's first return step to the
    origin, 0 where it does not return within ``steps``.

    Trial t draws its steps from the SplitMix64 stream seeded by output t
    of ``seed``'s stream.  Each trial stops at its first return, so the
    cost is O(trials x steps) whatever k; with k > steps no trial can
    return and nothing is drawn."""
    if teams < 2:
        raise DomainError("need at least two teams (walk dimension >= 1)")
    if steps < 0 or trials < 1:
        raise DomainError("steps must be >= 0 and trials >= 1")
    rounds = steps // teams
    first = np.zeros(trials, dtype=np.int64)
    if rounds:
        seeds = splitmix64(seed, 0, trials)
        group = max(1, _WALK_CELLS // teams)
        for lo in range(0, trials, group):
            _first_returns(seeds[lo:lo + group], teams, rounds,
                           first[lo:lo + group])
    return first
