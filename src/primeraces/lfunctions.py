"""Analytic layer: logarithmic integrals, Chebyshev psi, zeta and Dirichlet
L evaluation on the half-plane sigma > 0, critical-line zero finding, and
zero-table file I/O.

Every L-function here is L(s, chi) = sum chi(k) k^-s for a real character
chi of period q: zeta is chi = (1), beta4 is chi = (1, 0, -1, 0), and
`quadratic:q` is the Legendre symbol mod q.  One evaluator serves them all
(Edwards, "Riemann's Zeta Function", 1974, ch. 6, applied class by class):
the first n = q (ceil(|t|/pi) + 8) terms summed directly, and for each class
r mod q an Euler-Maclaurin tail with 20 Bernoulli terms.  It runs on a grid
of t, and the zero search serves every id.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .errors import CapacityError, DomainError, ParseError

T_MAX_CAP = 500.0
#: integers summed per evaluation point before the Euler-Maclaurin tail
TERMS_CAP = 1 << 15
#: zero search: scan step along the critical line, how often a dip toward
#: zero without a sign change is rescanned at half the step, and the
#: bracket width each zero is bisected to
SCAN_STEP = 0.05
MAX_HALVINGS = 6
ZERO_PRECISION = 1e-9
#: grid points per block of `_l_grid`, each block summing the terms of its
#: own largest |t|; 64 rows of at most TERMS_CAP terms stay under 2^21 cells
BLOCK_ROWS = 64


@dataclass(frozen=True)
class LFunctionId:
    """Which L-function: riemann zeta, the mod-4 beta, or the Legendre
    symbol modulo an odd prime q <= TERMS_CAP (checked first); each is the
    L-series of one real character, `_character`."""

    kind: str
    q: int | None = None

    def __post_init__(self):
        if self.kind not in ("zeta", "beta4", "quadratic"):
            raise DomainError("unknown L-function kind %r" % self.kind)
        if self.kind == "quadratic":
            q = self.q
            if q is not None and q > TERMS_CAP:
                raise CapacityError("quadratic character mod %d: one period "
                                    "is above the cap %d" % (q, TERMS_CAP))
            if q is None or q % 2 == 0 or not sieve.is_prime(q):
                raise DomainError("quadratic character needs an odd prime q")
        elif self.q is not None:
            raise DomainError("%s takes no modulus" % self.kind)

    @property
    def d(self):
        """Fundamental discriminant of the character: 1 for zeta, -4 for
        beta4, and q or -q, whichever is 1 mod 4, for the Legendre symbol."""
        if self.q is None:
            return 1 if self.kind == "zeta" else -4
        return self.q if self.q % 4 == 1 else -self.q

    def __str__(self):
        return self.kind if self.q is None else "quadratic:%d" % self.q


ZETA = LFunctionId("zeta")
BETA4 = LFunctionId("beta4")


def quadratic(q):
    return LFunctionId("quadratic", q)


@dataclass(frozen=True)
class ZeroTable:
    id: LFunctionId
    ordinates: np.ndarray

    def __post_init__(self):
        ords = np.asarray(self.ordinates, dtype=float)
        object.__setattr__(self, "ordinates", ords)
        if len(ords) and not (np.all(np.isfinite(ords)) and ords[0] > 0
                              and np.all(np.diff(ords) > 0)):
            raise DomainError("ordinates must be finite, positive, strictly "
                              "ascending")

    def __len__(self):
        return len(self.ordinates)


# ---------------------------------------------------------------------------
# logarithmic integrals

def _ei(x):
    """Exponential integral Ei(x) for x > 0, elementwise: routine EIX of
    Zhang & Jin, "Computation of Special Functions" (1996).  Up to 40 the
    power series Ei(x) = gamma + ln x + sum x^k / (k k!), each entry
    stopping at the first term below 1e-15 of its sum; above 40 the
    asymptotic series e^x/x * sum k!/x^k, to 40 terms rather than EIX's 20,
    whose truncation errs by 3e-14 at x = 40."""
    x = np.asarray(x, dtype=float)
    live = x <= 40
    xs = np.where(live, x, 40.0)
    s, r = np.ones_like(xs), np.ones_like(xs)
    for k in range(1, 101):
        r *= k
        r *= xs
        r /= (k + 1.0) * (k + 1.0)
        np.add(s, r, out=s, where=live)
        live &= r / s > 1e-15
        if not live.any():
            break
    out = np.euler_gamma + np.log(xs) + xs * s
    if np.any(x > 40):
        xb = np.maximum(x, 40.0)
        s, r = np.ones_like(xb), np.ones_like(xb)
        for k in range(1, 41):
            r = r * k / xb
            s += r
        out = np.where(x > 40, np.exp(xb) / xb * s, out)
    return out


#: Ei(ln 2), the lower limit of the closed forms below; taken from the same
#: Ei as the upper limit so that nearby errors cancel
_EI_LN2 = float(_ei(math.log(2.0)))
_TWO_OVER_LN2 = 2.0 / math.log(2.0)


def _from_two(x, what, f):
    """f over x >= 2 elementwise (a float for a scalar), exactly 0 at
    x = 2; DomainError if any entry is below 2 or NaN."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 2):
        raise DomainError("%s is defined here for x >= 2" % what)
    v = np.where(x == 2, 0.0, f(x))
    return float(v) if v.ndim == 0 else v


def li(x):
    """Li(x) = integral 2..x of dt/ln t = Ei(ln x) - Ei(ln 2), elementwise
    over arrays.  The absolute error stays within a few ulps of Ei(ln 2)
    (under 1e-15) near x = 2 and the relative error under 1e-14 from
    x = 2.1 to 1e30; beyond, the rounding of ln x (ln x ulps) dominates."""
    return _from_two(x, "Li", lambda x: _ei(np.log(x)) - _EI_LN2)


def li2(x):
    """Li2(x) = integral 2..x of dt/(ln t)^2, the pair-count analogue; by
    parts, Li(x) - x/ln x + 2/ln 2.  Elementwise like li."""
    return _from_two(x, "Li2",
                     lambda x: li(x) - x / np.log(x) + _TWO_OVER_LN2)


#: integral of dt/ln t from 0 to 2 (principal value through t = 1); the
#: classical li tables measure from this origin rather than from 2.
LI_AT_2 = 1.0451637801174927848


def li_from_origin(x):
    """The classical li(x) measured from 0; equals li(x) + LI_AT_2 here."""
    return li(x) + LI_AT_2


def riemann_prediction(x):
    """Two-term refinement Li(x) - Li(sqrt(x))/2 of the prime count guess."""
    if x < 4:
        raise DomainError("refined prediction needs x >= 4")
    return li(x) - 0.5 * li(math.sqrt(x))


def gauss_overcount(x, pi_x):
    """Overcount column of the published prime-count tables: li - pi,
    rounded down, with the origin-based li the published columns track."""
    return math.floor(li_from_origin(x) - pi_x)


def riemann_overcount(x, pi_x):
    """li(x) - li(sqrt x)/2 - pi(x), rounded down like the other column."""
    base = li_from_origin(x) - 0.5 * li_from_origin(math.sqrt(x))
    return math.floor(base - pi_x)


# ---------------------------------------------------------------------------
# Chebyshev psi

def chebyshev_psi(x, primes=None):
    """Sum of ln p over all prime powers p^k <= x (the log of lcm[1..x])."""
    x = int(x)
    if x < 2:
        raise DomainError("psi needs x >= 2")
    if primes is None:
        primes = sieve.primes_up_to(x)
    else:
        primes = np.asarray(primes, dtype=np.int64)
        primes = primes[primes <= x]
    total = float(np.sum(np.log(primes)))
    for p in primes[primes <= math.isqrt(x)]:
        p = int(p)
        v = p * p
        lp = math.log(p)
        while v <= x:
            total += lp
            v *= p
    return total


def psi_rh_inequality_check(x, psi_value=None):
    """|psi(x) - x| <= 2 sqrt(x) ln^2 x, the inequality equivalent to the
    critical-line hypothesis, checked at a single x >= 100."""
    if x < 100:
        raise DomainError("the inequality is asserted for x >= 100")
    if psi_value is None:
        psi_value = chebyshev_psi(x)
    lg = math.log(x)
    return abs(psi_value - x) <= 2.0 * math.sqrt(x) * lg * lg


# ---------------------------------------------------------------------------
# L-series on a grid of t

@functools.lru_cache(maxsize=32)
def _character(lid):
    """chi(1), ..., chi(q) over one period q = |d| of the id's character:
    (1) for zeta, (1, 0, -1, 0) for beta4, the Legendre symbol mod q.
    Cached per id, so the array is read-only: every caller shares it."""
    if lid == ZETA:
        chi = np.ones(1)
    elif lid == BETA4:
        chi = np.array([1.0, 0.0, -1.0, 0.0])
    else:
        chi = np.full(lid.q, -1.0)
        chi[-1] = 0.0
        chi[np.arange(1, lid.q) ** 2 % lid.q - 1] = 1.0
    chi.flags.writeable = False
    return chi


def _terms(lid, t):
    """Integers summed per evaluation point for |Im s| up to t: |d| times
    ceil(|t|/pi) + 8 complete periods, so that the tail's Euler-Maclaurin
    terms shrink about fourfold each.  CapacityError above TERMS_CAP,
    before anything is built."""
    t = abs(float(t))
    n = abs(lid.d) * (math.ceil(t / math.pi) + 8)
    if n > TERMS_CAP:
        raise CapacityError("%s at |t| = %g needs %d terms, above the cap %d"
                            % (lid, t, n, TERMS_CAP))
    return n


def _bernoulli_weights(count):
    """B_2k / (2k)! for k = 1..count, from the recurrence for the Taylor
    coefficients b_j = B_j / j! of x / (e^x - 1): the product with
    (e^x - 1)/x is 1, so b_j = -sum_(i=1..j) b_(j-i) / (i + 1)!."""
    b = [1.0]
    for j in range(1, 2 * count + 1):
        b.append(-sum(b[j - i] / math.factorial(i + 1)
                      for i in range(1, j + 1)))
    return np.array(b[2::2])


#: the Euler-Maclaurin weights B_2k / (2k)!, k = 1..20, within 2e-14 of
#: the exact values, and the powers 0, 1, 3, ..., 39 of q/(n + r) they take
_EM = _bernoulli_weights(20)
_POWERS = np.r_[0, np.arange(1, 2 * len(_EM), 2)]
#: a_j = 2j - 1/2 for j = 1..19: (s + a_j)^2 - 1/4 = (s + 2j - 1)(s + 2j),
#: so (s)_(2k-1) is s times the product of the first k - 1 of them
_HALVES = np.arange(1.5, 2 * len(_EM) - 2, 2)


def _em_tail(chi, n, s):
    """Sum over k > n of chi(k) k^(-s) at the array s, for chi(1..q) of
    period q dividing n.  Each class r with chi(r) != 0 is summed by
    Euler-Maclaurin with len(_EM) Bernoulli terms on h(x) = (xq + r)^(-s)
    from x = n/q: h there is (n + r)^(-s) = n^(-s) e^(-s lr), lr =
    ln(1 + r/n), and -h^(2k-1) is (s)_(2k-1) (q/(n + r))^(2k-1) times h.
    The integral of h is n^(1-s) e^((1-s) lr) / (q (s - 1)); its sum over
    the classes is taken through expm1, since chi sums to zero over a period
    for every character but zeta's, which alone keeps the pole 1/(s - 1)."""
    q = len(chi)
    r = np.flatnonzero(chi) + 1
    c = chi[r - 1]
    lr = np.log1p(r / n)
    u = 1.0 - s
    # sum_r chi(r) expm1(u lr) / (s - 1) tends to -sum_r chi(r) lr at s = 1
    integral = np.divide(np.expm1(np.outer(u, lr)) @ c, -u,
                         out=np.full(len(u), -(c @ lr), dtype=complex),
                         where=u != 0)
    if q == 1:
        integral += 1.0 / (s - 1.0)
    h = np.exp(-np.outer(s, lr)) @ (c * (q / (n + r)) ** _POWERS[:, None]).T
    rising = np.cumprod((s[:, None] + _HALVES) ** 2 - 0.25, axis=1)
    em = s * (_EM[0] * h[:, 1] + (rising * h[:, 2:]) @ _EM[1:])
    total = n / q * integral + h[:, 0] / 2 + em
    return np.exp(-s * math.log(n)) * total


def _l_series(lid, sigma, ts, n):
    """L(s) at every s = sigma + i*t for t in the grid ts: the first n
    terms chi(k) k^(-s), n a multiple of the character's period, summed
    directly, then the tail of `_em_tail`, skipped where n^(-sigma) is
    below 1e-304.  One len(ts) x n phase matrix: `_l_grid` keeps it to
    BLOCK_ROWS rows."""
    ts = np.asarray(ts, dtype=float)
    chi = _character(lid)
    head = np.tile(chi, n // len(chi))
    m = np.flatnonzero(head)
    lb = np.log(m + 1.0)
    out = np.exp(np.outer(ts, -1j * lb)) @ (head[m] * np.exp(-sigma * lb))
    if sigma * math.log(n) < 700:
        out += _em_tail(chi, n, sigma + 1j * ts)
    return out


def _l_grid(lid, sigma, ts):
    """L(s) at every s = sigma + i*t for t in the grid ts, in blocks of
    BLOCK_ROWS consecutive points.  Each block sums the terms `_terms` sets
    for its own largest |t|, so low points do not pay for high ones
    (CapacityError above TERMS_CAP)."""
    ts = np.asarray(ts, dtype=float)
    out = np.empty(len(ts), dtype=complex)
    for i in range(0, len(ts), BLOCK_ROWS):
        block = ts[i:i + BLOCK_ROWS]
        out[i:i + BLOCK_ROWS] = _l_series(
            lid, sigma, block, _terms(lid, np.abs(block).max()))
    return out


def evaluate_l(lid, s):
    """Evaluate the identified L-function at s with Re(s) > 0: the terms
    `_terms` sets for Im s summed directly, plus the Euler-Maclaurin tail
    (CapacityError above TERMS_CAP; DomainError at zeta's pole)."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("s must be finite")
    if s.real <= 0:
        raise DomainError("evaluation requires Re(s) > 0")
    if lid == ZETA and s == 1:
        raise DomainError("zeta has its pole at s = 1")
    return complex(_l_grid(lid, s.real, [s.imag])[0])


# ---------------------------------------------------------------------------
# critical-line zero finding

#: B_2k / (2k (2k - 1)) for k = 8 down to 1: the Stirling series of log Gamma
_STIRLING = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680,
             1 / 1260, -1 / 360, 1 / 12)
#: the shift j = 0..7 down a column, so that one arctan2 covers every angle
_SHIFT = np.arange(8.0)[:, None]


def _im_log_gamma(a, t):
    """Im log Gamma(a + it) over a 1-d array t >= 0, for a > 0, continuous
    in t: Stirling's series (Abramowitz & Stegun 6.1.40-41) in Horner form
    at w = a + 8 + it, less arg(a + j + it) for j = 0..7, since Gamma(w) =
    Gamma(a + it) times the product of the a + j + it.  Within 4e-12
    absolute for t <= 1000."""
    w = (a + 8.0) + 1j * t
    u = 1 / (w * w)
    series = _STIRLING[0]
    for c in _STIRLING[1:]:
        series = series * u + c
    v = ((w - 0.5) * np.log(w) - w + series / w).imag
    return v - np.arctan2(t, a + _SHIFT).sum(0)


def _theta(d, ts):
    """Rotation angle of the real primitive character of fundamental
    discriminant d (1 for zeta): Im log Gamma((1/2 + a + it)/2) +
    (t/2) ln(|d|/pi), a = 0 for d > 0 and 1 for d < 0, from the completed
    function (|d|/pi)^((s+a)/2) Gamma((s+a)/2) L(s), whose root number is 1."""
    ts = np.asarray(ts, dtype=float)
    return (_im_log_gamma(0.25 if d > 0 else 0.75, 0.5 * ts)
            + 0.5 * ts * math.log(abs(d) / math.pi))


def _hardy_z_grid(lid, ts):
    """Real rotated L-function along the critical line at the grid ts."""
    return (np.exp(1j * _theta(lid.d, ts)) * _l_grid(lid, 0.5, ts)).real


def _bisect_zeros(lid, brackets):
    """Midpoints of the sign-change brackets (a, b, f(a)), each bisected to
    width <= ZERO_PRECISION.  All live brackets step together, one grid call
    over their midpoints per step; each follows the same midpoints as it
    would alone."""
    a, b, fa = np.array(brackets, dtype=float).reshape(-1, 3).T
    live = np.flatnonzero(b - a > ZERO_PRECISION)
    while len(live):
        m = 0.5 * (a[live] + b[live])
        fm = _hardy_z_grid(lid, m)
        left = fa[live] * fm <= 0
        right = ~left
        b[live[left]] = m[left]
        a[live[right]], fa[live[right]] = m[right], fm[right]
        live = live[b[live] - a[live] > ZERO_PRECISION]
    return 0.5 * (a + b)


def find_zeros(lid, t_max):
    """All ordinates gamma in (0, t_max] with L(1/2 + i*gamma) = 0, each
    certified by a sign change of the rotated real function and refined
    by bisection to ZERO_PRECISION.  Every block of points sums only the
    terms of its own height (`_l_grid`).  CapacityError above T_MAX_CAP, or
    where t_max needs more than TERMS_CAP terms (first for q = 409, above
    72 pi), before any point is evaluated."""
    if not math.isfinite(t_max):
        raise DomainError("t_max must be finite, got %r" % t_max)
    if t_max > T_MAX_CAP:
        raise CapacityError("t_max %g above the desk-scale cap %g"
                            % (t_max, T_MAX_CAP))
    if t_max <= 0:
        return ZeroTable(lid, np.empty(0))
    _terms(lid, t_max)  # CapacityError before any grid is built

    def scan(spans, step, depth):
        """Sign-change brackets (a, b, f(a)) on the grids of this step over
        the spans (a, b), all evaluated in one grid call.  The top-level
        grid ends exactly at t_max: its steps are cut below t_max, which is
        then appended, so no point asks for more terms than t_max does."""
        grids = [np.arange(a, b + step / 2, step) for a, b in spans]
        if depth == 0:
            grids[0] = np.append(grids[0][grids[0] < t_max], t_max)
        values = _hardy_z_grid(lid, np.concatenate(grids))
        found, dips = [], []
        for ts in grids:
            zs, values = values[:len(ts)], values[len(ts):]
            mag = np.abs(zs)
            sign_change = zs[:-1] * zs[1:] < 0
            found += [(ts[i], ts[i + 1], zs[i])
                      for i in np.flatnonzero(sign_change)]
            # a dip toward zero with no sign change on either side can hide
            # a close pair; a minimum beside a sign change is that zero's own
            dip = ((mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])
                   & (mag[1:-1] < 0.1)
                   & ~sign_change[:-1] & ~sign_change[1:])
            if depth < MAX_HALVINGS:
                dips += [(ts[i], ts[i + 2]) for i in np.flatnonzero(dip)]
        if dips:
            found += scan(dips, step / 2, depth + 1)
        return found

    lo = min(SCAN_STEP, t_max / 8)
    brackets = scan([(lo, float(t_max))], SCAN_STEP, 0)
    # each zero has one bracket, so a repeat fails ZeroTable's ascending check
    zeros = np.sort([round(z, 12) for z in _bisect_zeros(lid, brackets)])
    # rounding to 12 decimals can lift a zero within 5e-13 of t_max past it
    return ZeroTable(lid, zeros[zeros <= t_max])


# ---------------------------------------------------------------------------
# zero-table files: `# lfunction=<id>` header, one ascending ordinate per line

def format_zero_table(table):
    """Zero-table file text: the header, then 9-decimal ordinates."""
    return "# lfunction=%s\n" % table.id + "".join(
        "%.9f\n" % g for g in table.ordinates)


def _parse_lid(text):
    """The id named by `zeta`, `beta4` or `quadratic:<q>`; DomainError for
    any other text."""
    kind, colon, q = text.strip().partition(":")
    if kind in ("zeta", "beta4") and not colon:
        return LFunctionId(kind)
    if kind == "quadratic" and q.isdigit():
        return quadratic(int(q))
    raise DomainError("unknown L-function %r" % text)


def parse_zero_table(path, lid=None):
    """Read a zero-table file; a header `# lfunction=` must agree with the
    expected id when both are present."""
    ordinates = []
    file_id = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("lfunction="):
                    try:
                        file_id = _parse_lid(body.split("=", 1)[1])
                    except (DomainError, CapacityError):
                        raise ParseError("bad lfunction header", lineno)
                continue
            try:
                g = float(line)
            except ValueError:
                raise ParseError("bad ordinate %r" % line, lineno)
            if not 0 < g < math.inf:
                raise ParseError("ordinate must be finite and positive",
                                 lineno)
            if ordinates and g <= ordinates[-1]:
                raise ParseError("ordinates not strictly ascending", lineno)
            ordinates.append(g)
    if lid is not None and file_id is not None and file_id != lid:
        raise ParseError("file holds %s, expected %s" % (file_id, lid))
    return ZeroTable(file_id or lid or ZETA, np.array(ordinates))
