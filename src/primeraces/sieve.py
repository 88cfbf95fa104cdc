"""Segmented prime sieve with residue-class counters and pair counting.

Everything here works on odd numbers only: a segment is a numpy boolean
array where entry ``i`` stands for the odd number ``lo + 2*i``.  The prime
2 is handled out of band.  Segments are sieved one after another in
ascending ``x`` order, and per-segment tallies merge by simple addition.
A count pi(x) at one point needs no sieve: ``_lucy`` computes it.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, ParseError

HARD_CAP = 10**10
HELD_CAP = 10**9

#: sieve entries per segment, i.e. a span of 2 * SEGMENT_ENTRIES integers.
#: The mask is a numpy bool array, one byte per entry, so a segment takes
#: 1 MiB.  It ran fastest on a 2-core Xeon, medians at 2^19, 2^20 and
#: 2^21 entries: ``race --limit 5e7 --events`` 0.153, 0.145 and 0.182 s,
#: a q = 4 table to 10**9 1.88, 1.56 and 1.91 s.  Half as large pays the
#: per-prime loop twice as often, twice as large outgrows the cache.
#: ``_segments`` reads it on each call, so tests may shrink it.
SEGMENT_ENTRIES = 1 << 20

#: the most pair gaps one pass takes.  The gaps share one segment-sized
#: pair mask, but a pair_race chunk holds an int64 running count per gap
#: for every pair start of a segment: 100 gaps hold at most 100 x 155,611
#: (the primes of the first segment) x 8 bytes = 125 MB
GAP_CAP = 100
#: the most cells (checkpoints x residues) of one count table: 76 MiB int64
TABLE_CELL_CAP = 10**7


@dataclass
class ResidueCounts:
    """Exact prime tallies pi(x; q, a) as one table: row i holds the counts
    at x = xs[i], column j those of the class residues[j]; ``residues`` are
    the classes coprime to q, ascending (the one class 0 for q = 1)."""

    modulus: int
    xs: np.ndarray
    residues: list
    counts: np.ndarray

    def column(self, a):
        """The counts of class a at every x."""
        if a not in self.residues:
            raise DomainError("residue %d is not a class of this table" % a)
        return self.counts[:, self.residues.index(a)]


def check_limit(limit, extra=0):
    """Validate a sieve limit: 2 <= limit and limit + extra <= HARD_CAP."""
    limit = int(limit)
    if limit < 2:
        raise DomainError("sieve limit must be >= 2, got %d" % limit)
    if limit + extra > HARD_CAP:
        raise CapacityError("limit %d%s exceeds hard cap %d" % (
            limit, " + largest gap %d" % extra if extra else "", HARD_CAP))
    return limit


def check_held(limit):
    """Refuse to hold every prime <= limit past HELD_CAP: 407 MB at 10**9."""
    if limit > HELD_CAP:
        raise CapacityError("limit %d above HELD_CAP %d" % (limit, HELD_CAP))
    return limit


def _check_gaps(gaps):
    gaps = [int(g) for g in gaps]
    if not gaps:
        raise DomainError("need at least one pair gap")
    if any(g < 2 or g % 2 != 0 for g in gaps):
        raise DomainError("pair gap must be a positive even integer")
    if len(set(gaps)) != len(gaps):
        raise DomainError("gaps must be distinct")
    if len(gaps) > GAP_CAP:
        raise CapacityError("%d pair gaps above the cap %d"
                            % (len(gaps), GAP_CAP))
    return gaps


def _check_checkpoints(checkpoints, limit):
    """The checkpoints as ints, and the top a table sieves to: the last
    checkpoint (at least 2), which must not exceed limit."""
    checkpoints = [int(x) for x in checkpoints]
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise DomainError("checkpoints must be strictly ascending")
    top = max(checkpoints[-1:] + [2])
    if top > limit:
        raise DomainError("checkpoint %d above limit %d" % (top, limit))
    return checkpoints, top


def prime_divisors(n):
    """The distinct prime divisors of n >= 1, ascending, by trial division:
    for the small moduli that name teams, characters and pair gaps."""
    ps, p = [], 2
    while p * p <= n:
        if n % p == 0:
            ps.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return ps + [n] if n > 1 else ps


def is_prime(n):
    return n >= 2 and prime_divisors(n) == [n]


def small_primes(n):
    """All primes <= n as an int64 array (plain Eratosthenes, n modest)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


#: the odd primes of the wheel, and the odd numbers coprime to them as a
#: mask over 1, 3, 5, ...: periodic in 15,015 entries, held for two
#: periods so that one period from any phase is one slice (Pritchard,
#: "Explaining the wheel sieve", Acta Informatica 17, 1982)
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = math.prod(_WHEEL_PRIMES)
_WHEEL = np.gcd(np.arange(1, 4 * _WHEEL_PERIOD, 2), _WHEEL_PERIOD) == 1


def _mark_segment(lo, n, odd_base):
    """Boolean mask over the n odd numbers lo, lo+2, ...; True = prime.

    ``odd_base`` holds the odd primes up to at least isqrt of the last
    number, ascending.  The mask starts as the wheel from its phase at lo
    on, repeated to n entries, with the wheel primes themselves set back;
    each base prime past the wheel then crosses out its odd multiples from
    max(p*p, the first multiple >= lo) on."""
    phase = (lo - 1) // 2 % _WHEEL_PERIOD
    seg = np.resize(_WHEEL[phase:phase + _WHEEL_PERIOD], n)
    hi = lo + 2 * (n - 1)
    for p in _WHEEL_PRIMES:
        if lo <= p <= hi:
            seg[(p - lo) // 2] = True
    ps = odd_base[np.searchsorted(odd_base, _WHEEL_PRIMES[-1], side="right"):
                  np.searchsorted(odd_base, math.isqrt(hi), side="right")]
    starts = np.maximum(ps * ps, -(-lo // ps) * ps)
    starts += ps * (starts % 2 == 0)
    for p, i in zip(ps.tolist(), ((starts - lo) // 2).tolist()):
        seg[i::p] = False
    return seg


def _segments(limit, extra=0):
    """Yield (lo, n, seg) ascending: seg marks the primes among the odd
    numbers lo, lo+2, ...; its first n entries are the ones <= limit, and
    it runs ``extra`` (even) further so that a pair partner up to ``extra``
    ahead never sits across an unsieved boundary."""
    span = 2 * SEGMENT_ENTRIES
    odd_base = small_primes(math.isqrt(limit + extra))[1:]
    for lo in range(3, limit + 1, span):
        n = (min(lo + span - 2, limit) - lo) // 2 + 1
        yield lo, n, _mark_segment(lo, n + extra // 2, odd_base)


def iter_prime_blocks(limit):
    """Yield ascending numpy arrays of primes covering 2..limit."""
    limit = check_limit(limit)
    yield np.array([2], dtype=np.int64)
    for lo, _, seg in _segments(limit):
        primes = np.flatnonzero(seg).astype(np.int64, copy=False)
        primes *= 2
        primes += lo
        yield primes


def primes_up_to(limit):
    """All primes <= limit as one array, held in memory: limit <= HELD_CAP."""
    return np.concatenate(list(iter_prime_blocks(check_held(limit))))


def _lucy(x):
    """pi(x) by Lucy's recursion (0 for x < 2), without a sieve.

    S(v) counts 2..v that no prime below p divides, kept for the values
    v = x // i and v <= isqrt(x).  Each prime p <= isqrt(x) in turn drops
    the numbers whose least prime factor is p: S(v) -= S(v // p) - S(p - 1)
    for every kept v >= p*p, which leaves S(x) = pi(x).  About x^(3/4)
    steps over int64 arrays of isqrt(x) entries."""
    x = int(x)
    if x < 2:
        return 0
    r = math.isqrt(x)
    quot = x // np.arange(1, r + 1, dtype=np.int64)
    big = quot - 1                              # big[i - 1] = S(x // i)
    small = np.arange(-1, r, dtype=np.int64)    # small[v] = S(v)
    v = np.arange(r + 1, dtype=np.int64)
    for p in small_primes(r).tolist():
        below = small[p - 1]
        n = min(r, x // (p * p))                # x // i >= p*p for i <= n
        k = min(n, r // p)                      # i*p <= r: x // (i*p) is big
        big[:k] -= big[p - 1:k * p:p] - below
        big[k:n] -= small[quot[k:n] // p] - below
        small[p * p:] -= small[v[p * p:] // p] - below
    return int(big[0])


def count_primes(limit):
    """pi(limit) by Lucy's recursion: no sieve, the same limit policy."""
    return _lucy(check_limit(limit))


def _residue_offset(lo, q, a):
    """First index i >= 0 with lo + 2i == a (mod q), and the index stride."""
    if q % 2 == 1:
        inv2 = (q + 1) // 2
        return ((a - lo) * inv2) % q, q
    # q even: a is odd (coprime to q), and the index period is q/2
    return (((a - lo) // 2) % (q // 2)), q // 2


def coprime_residues(q):
    return [a for a in range(q) if math.gcd(a, q) == 1] or [0]


class _Tally:
    """Running counts of the marked mask entries in every residue class a
    coprime to q.  ``add`` the masks (lo, n, mask) in ascending order, then
    ``finish`` returns the int64 counts (checkpoints x residues)."""

    def __init__(self, q, checkpoints):
        self.q, self.checkpoints = q, checkpoints
        self.residues = coprime_residues(q)
        if len(checkpoints) * len(self.residues) > TABLE_CELL_CAP:
            raise CapacityError(
                "%d checkpoints x %d classes above the cap of %d cells"
                % (len(checkpoints), len(self.residues), TABLE_CELL_CAP))
        self.running = [0] * len(self.residues)
        self.counts = np.zeros((len(checkpoints), len(self.residues)),
                               dtype=np.int64)
        self.done = 0

    def add(self, lo, n, mask):
        done = self.done
        end = bisect.bisect_right(self.checkpoints, lo + 2 * (n - 1), done)
        stops = (np.array(self.checkpoints[done:end], dtype=np.int64)
                 - lo) // 2 + 1
        for j, a in enumerate(self.residues):
            i0, stride = _residue_offset(lo, self.q, a)
            if end == done:
                self.running[j] += int(np.count_nonzero(mask[i0::stride]))
                continue
            marked = np.flatnonzero(mask[i0::stride])
            # mask[i0:stop:stride] holds ceil((stop - i0) / stride) entries
            self.counts[done:end, j] = self.running[j] + np.searchsorted(
                marked, -((i0 - stops) // stride))
            self.running[j] += len(marked)
        self.done = end

    def finish(self):
        # the checkpoints past the last odd number sieved
        self.counts[self.done:] = self.running
        return self.counts


def count_in_progressions(limit, q, checkpoints):
    """Exact pi(x; q, a) at every checkpoint, as one ResidueCounts table.

    Checkpoints must be ascending with max <= limit; counts cover every
    residue a coprime to q (for q = 1 the single class 0 holds pi(x)).
    One checkpoint with q = 1 is one Lucy count (see ``_lucy``); any other
    input is tallied in one sieve pass up to the last checkpoint.
    """
    limit = check_limit(limit)
    q = int(q)
    if q < 1:
        raise DomainError("modulus must be >= 1")
    checkpoints, top = _check_checkpoints(checkpoints, limit)
    xs = np.array(checkpoints, dtype=np.int64)
    if q == 1 and len(checkpoints) == 1:
        return ResidueCounts(1, xs, [0], np.array([[_lucy(checkpoints[0])]],
                                                  dtype=np.int64))
    tally = _Tally(q, checkpoints)
    for lo, n, seg in _segments(top):
        tally.add(lo, n, seg)
    counts = tally.finish()
    if q % 2:  # the prime 2, which the odd-only masks leave out
        counts[bisect.bisect_left(checkpoints, 2):,
               tally.residues.index(2 % q)] += 1
    return ResidueCounts(q, xs, tally.residues, counts)


def count_pairs_by_gap(limit, gaps, checkpoints):
    """pi_2k for every distinct gap in ``gaps`` at each ascending checkpoint
    <= limit, from one sieve pass up to the last checkpoint (plus the
    largest gap): an int64 array (checkpoints x gaps), its columns in the
    order of ``gaps``."""
    gaps = _check_gaps(gaps)
    limit = check_limit(limit, extra=max(gaps))
    checkpoints, top = _check_checkpoints(checkpoints, limit)
    tallies = [_Tally(1, checkpoints) for _ in gaps]
    buf = None
    for lo, n, seg in _segments(top, max(gaps)):
        # one pair mask at a time, in one buffer sized by the first segment:
        # buf[i] marks lo+2i and lo+2i+g both prime, lo+2i <= top
        buf = np.empty(n, dtype=bool) if buf is None else buf[:n]
        for tally, g in zip(tallies, gaps):
            tally.add(lo, n, np.logical_and(seg[:n], seg[g // 2:g // 2 + n],
                                            out=buf))
    return np.hstack([tally.finish() for tally in tallies])


# ---------------------------------------------------------------------------
# checkpoint files: `# modulus=<q>` header, rows `x,<residue>:<count>,...`

def format_checkpoints(table):
    """Checkpoint-file text for a ResidueCounts table; a table with no rows
    gives the empty text."""
    if not len(table.xs):
        return ""
    row = "%d," + ",".join("%d:%%d" % a for a in table.residues) + "\n"
    cells = tuple(np.column_stack([table.xs, table.counts]).ravel().tolist())
    return "# modulus=%d\n" % table.modulus + row * len(table.xs) % cells


def checkpoint_load(path):
    """Parse a checkpoint file back into a ResidueCounts table.  Every row
    must list the residues of the first; a file with no rows gives a table
    with no rows (and modulus None if it has no header either)."""
    modulus, residues, xs, rows = None, [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("modulus="):
                    try:
                        modulus = int(body.split("=", 1)[1])
                    except ValueError:
                        raise ParseError("bad modulus header", lineno)
                continue
            if modulus is None:
                raise ParseError("data before `# modulus=` header", lineno)
            fields = line.split(",")
            try:
                x = int(fields[0])
            except ValueError:
                raise ParseError("bad x value %r" % fields[0], lineno)
            if xs and x <= xs[-1]:
                raise ParseError("x values not strictly ascending", lineno)
            counts = {}
            prev_res = -1
            for f in fields[1:]:
                try:
                    a_s, c_s = f.split(":")
                    a, c = int(a_s), int(c_s)
                except ValueError:
                    raise ParseError("bad residue field %r" % f, lineno)
                if a <= prev_res:
                    raise ParseError("residues not ascending", lineno)
                if not 0 <= c <= np.iinfo(np.int64).max:
                    raise ParseError("count %d outside 0..2^63-1" % c, lineno)
                prev_res = a
                counts[a] = c
            if xs and list(counts) != residues:
                raise ParseError("residues differ from the first row's",
                                 lineno)
            residues = list(counts)
            xs.append(x)
            rows.append(list(counts.values()))
    return ResidueCounts(modulus, np.array(xs, dtype=np.int64), residues,
                         np.array(rows, dtype=np.int64).reshape(
                             len(xs), len(residues)))
