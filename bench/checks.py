"""Artifact checks against references that share no code with the package.

The oracles are a plain (unsegmented) sieve of Eratosthenes, Lucy's
prime-counting recursion for pi(x) and character sums over primes, mpmath
for zeta zeros, the mod-4 L-function and the logarithmic integrals, the
published SplitMix64 definition for the walk, and the values in ``refs``.
Every check returns a list of problems; an empty list means the artifact
is correct.
"""

import json
import math
import os
import random
from fractions import Fraction

import mpmath
import numpy as np

import refs


class Oracle:
    """Primes up to ``n`` from a whole-range odd-only sieve, built once."""

    def __init__(self, n):
        self.n = int(n)
        self._odd = None
        self._primes = None

    def _build(self):
        odd = np.ones((self.n + 1) // 2, dtype=bool)  # index i: 2i + 1
        odd[0] = False
        for i in range(1, (math.isqrt(self.n) - 1) // 2 + 1):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2::p] = False
        self._odd = odd
        self._primes = np.concatenate(
            ([2], 2 * np.flatnonzero(odd) + 1)).astype(np.int64)

    def primes(self, x):
        if self._odd is None:
            self._build()
        if x > self.n:
            raise ValueError("oracle sieve stops at %d, asked %d"
                             % (self.n, x))
        return self._primes[:np.searchsorted(self._primes, x, side="right")]

    def is_prime(self, values):
        """Primality of an array of odd integers in 3..n."""
        if self._odd is None:
            self._build()
        return self._odd[(np.asarray(values) - 1) // 2]


def prime_sums(n, chi=None):
    """Lucy's recursion: pi(n) and, for a real character given as its
    table ``chi`` over one period, the sum of chi(p) over primes p <= n."""
    r = math.isqrt(n)
    small_v = np.arange(r + 1, dtype=np.int64)
    large_v = np.array([0] + [n // i for i in range(1, r + 1)], dtype=np.int64)
    if chi is None:
        f_small, f_large = small_v - 1, large_v - 1
        chi_p = lambda p: 1
    else:
        q = len(chi)
        prefix = np.cumsum([0] + [chi[k % q] for k in range(1, q)])
        f_small = prefix[small_v % q] - 1
        f_large = prefix[large_v % q] - 1
        chi_p = lambda p: chi[p % q]
    pi_small, pi_large = small_v - 1, large_v - 1
    for p in range(2, r + 1):
        if pi_small[p] == pi_small[p - 1]:
            continue
        p2 = p * p
        m = min(r, n // p2)
        ip = np.arange(1, m + 1, dtype=np.int64) * p
        inner = ip <= r
        for arr_s, arr_l, c in ((pi_small, pi_large, 1),
                                (f_small, f_large, chi_p(p))):
            if c == 0:
                continue
            base = arr_s[p - 1]
            sub = np.where(inner, arr_l[np.minimum(ip, r)],
                           arr_s[np.minimum(n // ip, r)])
            arr_l[1:m + 1] -= c * (sub - base)
            if p2 <= r:
                v = np.arange(p2, r + 1)
                arr_s[p2:] -= c * (arr_s[v // p] - base)
    return int(pi_large[1]), int(f_large[1])


def _read(run_dir, name):
    with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
        return fh.read()


def _compare(what, got, want):
    return [] if got == want else ["%s: got %r, want %r" % (what, got, want)]


# --- count-tables -----------------------------------------------------------

def check_pi(cmd, run_dir, oracle):
    limit = cmd.params["limit"]
    want, _ = prime_sums(limit)
    problems = []
    if limit in refs.PI and refs.PI[limit] != want:
        problems.append("Lucy pi(%d) = %d disagrees with the published %d"
                        % (limit, want, refs.PI[limit]))
    text = _read(run_dir, cmd.artifacts[0])
    expect = "%d\n" % want if cmd.lib else "%d,%d\n" % (limit, want)
    return problems + _compare("pi(%d) artifact" % limit, text, expect)


def check_residues(cmd, run_dir, oracle):
    limit, q = cmd.params["limit"], cmd.params["modulus"]
    published = refs.MOD4_ROWS if q == 4 else refs.MOD3_ROWS
    a, b = (3, 1) if q == 4 else (2, 1)
    xs = [row[0] for row in published if row[0] <= limit]
    primes = oracle.primes(xs[-1])
    by_res = {r: primes[primes % q == r] for r in (a, b)}
    lines = _read(run_dir, cmd.artifacts[0]).splitlines()
    problems = _compare("header", lines[0], "# modulus=%d" % q)
    rows = [line.split(",") for line in lines[1:]]
    problems += _compare("checkpoints", [int(r[0]) for r in rows], xs)
    for (x, pa, pb), row in zip(published, rows):
        got = dict(tuple(int(v) for v in f.split(":")) for f in row[1:])
        want = {r: int(np.searchsorted(by_res[r], x, side="right"))
                for r in sorted(by_res)}
        problems += _compare("counts at %d" % x, got, want)
        problems += _compare("published row %d" % x, (got.get(a), got.get(b)),
                             (pa, pb))
    if rows:
        x = int(rows[-1][0])
        total = sum(int(f.split(":")[1]) for f in rows[-1][1:])
        problems += _compare("residue sum vs Lucy pi(%d) - 1" % x, total,
                             prime_sums(x)[0] - 1)
    return problems


def _histogram_text(p, oracle):
    xs = [p["start"] + p["step"] * i for i in range(p["count"])]
    primes = oracle.primes(xs[-1])
    c3 = np.searchsorted(primes[primes % 4 == 3], xs, side="right")
    c1 = np.searchsorted(primes[primes % 4 == 1], xs, side="right")
    s = np.array([(int(u) - int(v)) * math.log(x) / math.sqrt(x)
                  for x, u, v in zip(xs, c3, c1)])
    lo, hi = p["lo"], p["hi"]
    counts, edges = np.histogram(s[(s >= lo) & (s <= hi)], bins=p["bins"],
                                 range=(lo, hi))
    head = "# total=%d underflow=%d overflow=%d\n" % (
        len(s), np.count_nonzero(s < lo), np.count_nonzero(s > hi))
    return head + "".join("%.6f,%.6f,%d\n" % (edges[i], edges[i + 1], c)
                          for i, c in enumerate(counts))


def check_histogram(cmd, run_dir, oracle):
    return _compare("histogram", _read(run_dir, cmd.artifacts[0]),
                    _histogram_text(cmd.params, oracle))


def _pair_factor(gap):
    """prod over odd primes p | gap/2 of (p-2)/(p-1)."""
    f, n, p = Fraction(1), gap // 2, 3
    while n % 2 == 0:
        n //= 2
    while n > 1:
        if n % p == 0:
            f *= Fraction(p - 2, p - 1)
            while n % p == 0:
                n //= p
        p += 2
    return f


def _pair_starts(oracle, limit, gap):
    odd = oracle.primes(limit)[1:]
    return odd[oracle.is_prime(odd + gap)]


def _li2(x):
    return float(mpmath.quad(lambda t: 1 / mpmath.log(t) ** 2,
                             [2] + [10 ** k for k in range(1, 13)
                                    if 10 ** k < x] + [x]))


def check_twins_table(cmd, run_dir, oracle):
    limit, gaps = cmd.params["limit"], cmd.params["gaps"]
    xs = [10 ** k for k in range(3, 13) if 10 ** k <= limit]
    lines = _read(run_dir, cmd.artifacts[0]).splitlines()
    problems = _compare("header", lines[0],
                        "x,gap,raw,normalized,hl_prediction,difference")
    rows = [line.split(",") for line in lines[1:]]
    problems += _compare("cells", [(int(r[0]), int(r[1])) for r in rows],
                         [(x, g) for g in gaps for x in xs])
    if problems:
        return problems
    pred = {x: 2 * refs.TWIN_C2 * _li2(x) for x in xs}
    starts = {g: _pair_starts(oracle, limit, g) for g in gaps}
    for r in rows:
        x, g, raw = int(r[0]), int(r[1]), int(r[2])
        norm, hl, diff = float(r[3]), float(r[4]), float(r[5])
        gi = gaps.index(g)
        problems += _compare("pairs(%d, gap %d)" % (x, g), raw,
                             int(np.searchsorted(starts[g], x, side="right")))
        if abs(norm - raw * float(_pair_factor(g))) > 1e-6:
            problems.append("normalized(%d, %d) = %r" % (x, g, norm))
        if abs(hl - pred[x]) > 2e-7 * pred[x] + 2e-6:
            problems.append("prediction(%d) = %r, mpmath %r"
                            % (x, hl, pred[x]))
        if abs(diff - (norm - hl)) > 3e-6:
            problems.append("difference(%d, %d) = %r" % (x, g, diff))
        if x in refs.PAIR_ROWS:
            problems += _compare("published pairs(%d, gap %d)" % (x, g), raw,
                                 refs.PAIR_ROWS[x][gi])
        if x in refs.HL_DIFF_ROWS:
            if abs(hl - refs.HL_PREDICTION[x]) > 1:
                problems.append("published prediction(%d) off by > 1" % x)
            want = refs.HL_DIFF_ROWS[x][gi]
            if min(abs(round(norm - hl) - want),
                   abs(round(norm - math.floor(hl)) - want)) > 1:
                problems.append("published difference(%d, %d) off by > 1"
                                % (x, g))
    return problems


def check_psi(cmd, run_dir, oracle):
    limit = cmd.params["limit"]
    xs = [row[0] for row in refs.PSI_ROWS if row[0] <= limit] or [limit]
    primes = oracle.primes(xs[-1]).tolist()
    expect = ""
    for x in xs:
        terms = []
        for p in primes:
            if p > x:
                break
            power = p
            while power <= x:
                terms.append(math.log(p))
                power *= p
        v = round(math.fsum(terms))
        expect += "%d,%d,%d\n" % (x, v, v - x)
    problems = _compare("psi rows", _read(run_dir, cmd.artifacts[0]), expect)
    for x, v, d in refs.PSI_ROWS:
        if x <= limit and "%d,%d,%d\n" % (x, v, d) not in expect:
            problems.append("oracle psi(%d) disagrees with published" % x)
    return problems


# --- zero-waves -------------------------------------------------------------

def _zeros(run_dir, name, kind):
    lines = _read(run_dir, name).splitlines()
    if lines[0] != "# lfunction=%s" % kind:
        raise ValueError("header %r" % lines[0])
    ords = np.array([float(v) for v in lines[1:]])
    if len(ords) == 0 or np.any(np.diff(ords) <= 0) or ords[0] <= 0:
        raise ValueError("ordinates not positive and ascending")
    return ords


def _samples(n, seed, k=3):
    rng = random.Random(seed)
    return sorted({0, n - 1} | {rng.randrange(n) for _ in range(k)})


def check_zeros_zeta(cmd, run_dir, oracle):
    tmax = cmd.params["tmax"]
    ords = _zeros(run_dir, cmd.artifacts[0], "zeta")
    problems = _compare("N(%g)" % tmax, len(ords), int(mpmath.nzeros(tmax)))
    for got, want in zip(ords, refs.ZETA_ZEROS):
        if abs(got - want) > 1e-6:
            problems.append("published zero %r vs %r" % (want, got))
    for i in _samples(len(ords), tmax):
        want = float(mpmath.zetazero(i + 1).imag)
        if abs(ords[i] - want) > 1e-8:
            problems.append("zero %d: %r, mpmath %r" % (i + 1, ords[i], want))
    return problems


def _completed_beta4(t):
    """The completed mod-4 L-function, real on the critical line."""
    s = mpmath.mpc(0.5, t)
    a = (s + 1) / 2
    return mpmath.re((4 / mpmath.pi) ** a * mpmath.gamma(a)
                     * mpmath.dirichlet(s, [0, 1, 0, -1]))


def beta4_zero_count(T):
    """The number of zeros of L(s, chi_4) with 0 < Im s <= T, exactly.

    By the argument principle and the functional equation, N(T) is 1/pi
    times the change of arg Lambda(s) along 1/2 -> 2 -> 2+iT -> 1/2+iT.
    Lambda is positive on the real segment; the Gamma factor's part is
    theta(T) = (T/2) log(4/pi) + Im log Gamma((3/2+iT)/2); arg L starts at 0
    on Re s = 2, where |L - 1| < 1, and is followed along the horizontal
    segment with steps halved until no step turns it by more than 1/2.
    The result is an integer up to rounding unless T is a zero ordinate,
    which raises ValueError."""
    def arg_l(sigma):
        return float(mpmath.arg(mpmath.dirichlet(mpmath.mpc(sigma, T),
                                                 [0, 1, 0, -1])))

    def turn(a, b, fa, fb):
        d = (fb - fa + math.pi) % (2 * math.pi) - math.pi
        if abs(d) <= 0.5 or a - b < 1e-9:
            return d
        m = (a + b) / 2
        fm = arg_l(m)
        return turn(a, m, fa, fm) + turn(m, b, fm, fb)

    sigmas = np.linspace(2.0, 0.5, 33)
    args = [arg_l(s) for s in sigmas]
    total = sum(turn(a, b, fa, fb) for a, b, fa, fb in
                zip(sigmas, sigmas[1:], args, args[1:]))
    theta = T / 2 * math.log(4 / math.pi) + float(
        mpmath.loggamma(mpmath.mpc(0.75, T / 2)).imag)
    n = (theta + args[0] + total) / math.pi
    if abs(n - round(n)) > 1e-3:
        raise ValueError("zero count at T = %r is not an integer: %r"
                         % (T, n))
    return round(n)


def check_zeros_beta4(cmd, run_dir, oracle):
    """The count must equal N(T), and every ordinate must bracket a sign
    change of the completed L-function in an interval of its own: then the
    file lists every zero up to T, each once."""
    tmax = cmd.params["tmax"]
    ords = _zeros(run_dir, cmd.artifacts[0], "beta4")
    problems = _compare("N(%g)" % tmax, len(ords), beta4_zero_count(tmax))
    if ords[-1] > tmax or np.any(np.diff(ords) <= 2e-8):
        problems.append("ordinates beyond T or closer than 2e-8")
    with mpmath.workdps(30):
        for t in ords:
            lo, hi = (_completed_beta4(t + d) for d in (-1e-8, 1e-8))
            if lo * hi >= 0:
                problems.append("no sign change of Lambda(1/2+it) at t = %r"
                                % t)
    return problems


def check_explicit(cmd, run_dir, oracle):
    p = cmd.params
    text = _read(run_dir, cmd.artifacts[0])
    head, body = text.split("\n", 1)
    names = ["truth"] + ["approx_%d" % n for n in p["truncations"]]
    problems = _compare("header", head, ",".join(["x"] + names))
    data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if data.shape != (p["points"], len(names) + 1):
        return problems + ["table shape %s" % (data.shape,)]
    x = data[:, 0]
    grid = np.exp(np.linspace(math.log(p["lo"]), math.log(p["hi"]),
                              p["points"]))
    if np.max(np.abs(x / grid - 1)) > 1e-9:
        problems.append("x grid is not log-uniform over %g..%g"
                        % (p["lo"], p["hi"]))
    primes = oracle.primes(int(p["hi"]))
    ords = _zeros(run_dir, p["zeros"],
                  "zeta" if p["target"] == "pi-li" else "beta4")
    li2 = mpmath.li(2)
    lead3 = np.cumsum(primes % 4 == 3) - np.cumsum(primes % 4 == 1)
    for i in _samples(len(x), p["points"], k=60):
        xi = float(grid[i])
        count = int(np.searchsorted(primes, math.floor(xi), side="right"))
        scale = math.log(xi) / math.sqrt(xi)
        if p["target"] == "pi-li":
            want, tol = float(mpmath.li(xi) - li2 - count) * scale, 1e-6
        else:
            want, tol = int(lead3[count - 1]) * scale, 1e-8
        if abs(data[i, 1] - want) > tol:
            problems.append("truth at x=%r: %r, oracle %r"
                            % (xi, data[i, 1], want))
    stats = json.loads(_read(run_dir, cmd.artifacts[1]))
    lx = np.log(grid)
    truth = data[:, 1]
    for j, n in enumerate(p["truncations"]):
        g = ords[:n]
        want = 1 + 2 * np.sin(np.outer(lx, g)) @ (1 / g)
        col = data[:, j + 2]
        if np.max(np.abs(col - want)) > 1e-8 * (1 + np.max(np.abs(want))):
            problems.append("approx_%d differs from the wave sum" % n)
        st = stats["approx_%d" % n]
        resid = col - truth
        got = (st["rms"], st["correlation"], st["sign_agreement"])
        want = (math.sqrt(float(np.mean(resid * resid))),
                float(np.corrcoef(truth, col)[0, 1]),
                float(np.mean(np.sign(truth) == np.sign(col))))
        if any(abs(a - b) > 1e-6 * (1 + abs(b)) for a, b in zip(got, want)):
            problems.append("stats approx_%d %r, recomputed %r"
                            % (n, got, want))
    return problems


# --- dense-races ------------------------------------------------------------

def _race_states(oracle, p):
    """Primes <= limit and the strict-leader state after each (0 = tie,
    1 = first team, -1 = second team) of a two-team race."""
    primes = oracle.primes(p["limit"])
    res = primes % p["modulus"]
    (_, team_a), (_, team_b) = p["teams"]
    d = np.cumsum(np.isin(res, team_a), dtype=np.int64) - np.cumsum(
        np.isin(res, team_b), dtype=np.int64)
    return primes, np.sign(d)


def _event_text(xs, states, labels, start):
    """CSV of every change of state, from ``start`` before the first sample."""
    full = np.concatenate(([start], states))
    flips = np.flatnonzero(full[1:] != full[:-1])
    return "".join("%d,%s,%s\n" % (xs[i], labels[full[i]], labels[full[i + 1]])
                   for i in flips)


def check_events(cmd, run_dir, oracle):
    p = cmd.params
    (name_a, _), (name_b, _) = p["teams"]
    labels = {0: "tie", 1: name_a, -1: name_b}
    primes, states = _race_states(oracle, p)
    text = _read(run_dir, cmd.artifacts[0])
    problems = _compare("events", text, _event_text(primes, states, labels, 0))
    # the dense ledger's final state against a sparse count at the limit
    q = p["modulus"]
    chi = [0] + [1 if pow(k, (q - 1) // 2, q) == 1 else -1
                 for k in range(1, q)] if q % 2 else [0, 1, 0, -1]
    total = prime_sums(p["limit"], chi)[1]
    lead_a = -total if q == 4 else total  # team "3" leads when chi sum < 0
    events = [line.split(",") for line in text.splitlines()]
    final = events[-1][2] if events else "tie"
    problems += _compare("final leader vs Lucy count", final,
                         labels[int(np.sign(lead_a))])
    if q == 4:
        problems += _check_mod4_windows(events, p["limit"])
    return problems


def _check_mod4_windows(events, limit):
    wins = []
    for i, (x, _, nxt) in enumerate(events):
        if nxt == "1":
            end = int(events[i + 1][0]) - 1 if i + 1 < len(events) else limit
            wins.append((int(x), end))
    problems = []
    if refs.MOD4_TIE_RESTORED < limit:
        problems = _compare("first 4n+1 lead", wins[:1],
                            [(refs.MOD4_FIRST_LEAD,
                              refs.MOD4_TIE_RESTORED - 1)])
    for lo, hi in refs.MOD4_LEAD_WINDOWS:
        if hi >= limit:
            continue
        era = [w for w in wins if lo <= w[0] <= hi]
        span = (era[0][0], era[-1][1]) if era else None
        problems += _compare("4n+1 lead era %d" % lo, span, (lo, hi))
    return problems


def check_density(cmd, run_dir, oracle):
    p = cmd.params
    X = p["limit"]
    primes, states = _race_states(oracle, p)
    on = states > 0
    starts = np.flatnonzero(on & ~np.concatenate(([False], on[:-1])))
    ends = np.flatnonzero(on & ~np.concatenate((on[1:], [False])))
    with mpmath.workdps(30):
        after = [int(primes[e + 1]) if e + 1 < len(primes) else X + 1
                 for e in ends]
        mass = mpmath.fsum(mpmath.digamma(a) - mpmath.digamma(int(primes[s]))
                           for s, a in zip(starts, after))
        want = float(mass / mpmath.log(X))
    got = json.loads(_read(run_dir, cmd.artifacts[0]))
    problems = _compare("X, kind", (got["X"], got["kind"]), (X, "logarithmic"))
    if abs(got["value"] - want) > 1e-9 * abs(want):
        problems.append("log density %r, oracle %r" % (got["value"], want))
    return problems


def check_pair_race(cmd, run_dir, oracle):
    p = cmd.params
    starts = [_pair_starts(oracle, p["limit"], g) for g in p["gaps"]]
    factors = [_pair_factor(g) for g in p["gaps"]]
    den = math.lcm(*(f.denominator for f in factors))
    xs = np.unique(np.concatenate(starts))
    mat = np.stack([np.searchsorted(st, xs, side="right")
                    * int(f * den) for st, f in zip(starts, factors)])
    top = mat.max(axis=0)
    tied = (mat == top).sum(axis=0) > 1
    state = np.where(tied, -1, mat.argmax(axis=0))
    labels = {-1: "tie"}
    labels.update({i: str(g) for i, g in enumerate(p["gaps"])})
    return _compare("pair race events", _read(run_dir, cmd.artifacts[0]),
                    _event_text(xs, state, labels, -1))


_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix(seed, count):
    """Outputs 1..count of SplitMix64 (Steele, Lea and Flood) from ``seed``."""
    with np.errstate(over="ignore"):
        z = np.uint64(seed) + np.arange(1, count + 1, dtype=np.uint64) \
            * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def check_walk(cmd, run_dir, oracle):
    p = cmd.params
    k = p["teams"]
    firsts = []
    for t in _splitmix(p["seed"] % 2 ** 64, p["trials"]).tolist():
        steps = _splitmix(t, p["steps"]) % np.uint64(k)
        counts = [np.cumsum(steps == j) for j in range(k)]
        level = np.ones(p["steps"], dtype=bool)
        for j in range(1, k):
            level &= counts[j] == counts[0]
        hit = np.flatnonzero(level)
        if len(hit):
            firsts.append(int(hit[0]) + 1)
    want = {"teams": k, "steps": p["steps"], "trials": p["trials"],
            "seed": p["seed"], "returned": len(firsts),
            "return_fraction": len(firsts) / p["trials"],
            "mean_first_return": sum(firsts) / len(firsts) if firsts else None}
    return _compare("walk summary",
                    json.loads(_read(run_dir, cmd.artifacts[0])), want)


CHECKS = {
    "pi": check_pi, "pi_1t": check_pi, "pi_mod3": check_residues,
    "pi_mod4": check_residues, "histogram": check_histogram,
    "twins_table": check_twins_table, "psi": check_psi,
    "zeros_zeta": check_zeros_zeta, "zeros_beta4": check_zeros_beta4,
    "explicit_pi_li": check_explicit, "explicit_mod4": check_explicit,
    "race_mod4_events": check_events, "race_mod7_events": check_events,
    "race_mod4_density": check_density, "pair_race": check_pair_race,
    "walk": check_walk,
}


def oracle_for(commands):
    """An oracle sized for every limit the commands' checks need."""
    need = 2
    for cmd in commands:
        p = cmd.params
        need = max(need, p.get("limit", 0) if cmd.name not in ("pi", "pi_1t")
                   else 0, p.get("hi", 0),
                   p.get("start", 0) + p.get("step", 0) * p.get("count", 0))
    return Oracle(need + 16)


def check_command(cmd, run_dir, oracle):
    """Problems with one command's artifacts; unreadable ones count too."""
    try:
        return CHECKS[cmd.name](cmd, run_dir, oracle)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return ["unreadable artifact: %s: %s" % (type(exc).__name__, exc)]
