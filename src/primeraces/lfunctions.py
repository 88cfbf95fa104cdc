"""Analytic layer: logarithmic integrals, Chebyshev psi, zeta and Dirichlet
L evaluation on the half-plane sigma > 0, critical-line zero finding, and
zero-table file I/O.

Zeta is evaluated through the alternating (eta) series continuation
zeta(s) = (1 - 2^(1-s))^-1 * [1/1^s - 1/2^s + 1/3^s - ...], accelerated by
the Chebyshev-coefficient scheme of Cohen, Rodriguez Villegas and Zagier:
with n terms the truncation error decays like (3+sqrt(8))^-n times a factor
growing like e^(pi*|t|/2), so the term count is chosen from |Im s|.  The
mod-4 beta function uses the same weights on its own alternating series.
Real quadratic characters are summed in complete periods (blocks of q whose
character sum vanishes) with an Euler-Maclaurin tail on the smooth block
function.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .errors import CapacityError, DomainError, ParseError

T_MAX_CAP = 500.0
#: zero search: scan step along the critical line, how often a dip toward
#: zero without a sign change is rescanned at half the step, and the
#: bracket width each zero is bisected to
SCAN_STEP = 0.05
MAX_HALVINGS = 6
ZERO_PRECISION = 1e-9
_LOG_CVZ = math.log(3.0 + math.sqrt(8.0))


@dataclass(frozen=True)
class LFunctionId:
    """Which L-function: riemann zeta, the mod-4 beta, or a real quadratic
    character modulo an odd prime q."""

    kind: str
    q: int | None = None

    def __post_init__(self):
        if self.kind not in ("zeta", "beta4", "quadratic"):
            raise DomainError("unknown L-function kind %r" % self.kind)
        if self.kind == "quadratic":
            q = self.q
            if q is None or q % 2 == 0 or not sieve.is_prime(q):
                raise DomainError("quadratic character needs an odd prime q")
        elif self.q is not None:
            raise DomainError("%s takes no modulus" % self.kind)

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
    precision: float

    def __post_init__(self):
        ords = np.asarray(self.ordinates, dtype=float)
        object.__setattr__(self, "ordinates", ords)
        if len(ords) and (ords[0] <= 0 or np.any(np.diff(ords) <= 0)):
            raise DomainError("ordinates must be positive, strictly ascending")
        if not self.precision > 0:
            raise DomainError("precision must be positive")

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
# alternating-series acceleration (Chebyshev weights)

@functools.lru_cache(maxsize=8)
def _cvz_weights(n):
    """Weights w_k = (d_n - d_k)/d_n, k = 0..n-1, for the accelerated
    alternating sum  S ~= sum (-1)^k w_k a_k.  Built in extended precision
    because d_n grows like (3+sqrt 8)^n.  Cached per order, so the array is
    read-only: every caller shares it."""
    t = np.empty(n + 1, dtype=np.longdouble)
    t[0] = 1.0 / n
    for i in range(n):
        t[i + 1] = t[i] * 4.0 * (n + i) * (n - i) / ((2 * i + 1) * (2 * i + 2))
    d = np.cumsum(t) * n
    w = ((d[n] - d[:n]) / d[n]).astype(np.float64)
    w.flags.writeable = False
    return w


def default_terms(im_s):
    """Acceleration order needed for |Im s| at a tolerance of 1e-12."""
    t = abs(float(im_s))
    return max(24, int(math.ceil(
        (0.5 * math.pi * t + math.log(1e12) + 6.0) / _LOG_CVZ)) + 8)


def _l_grid(lid, sigma, ts, n_terms):
    """Zeta or beta4 at every s = sigma + i*t for t in the grid ts: the
    alternating sum_k (-1)^k w_k b_k^(-s) with CVZ weights over the bases
    b = 1, 2, 3, ... (divided by 1 - 2^(1-s) for zeta) or 1, 3, 5, ...
    (beta4)."""
    ts = np.asarray(ts, dtype=float)
    step = 1 if lid.kind == "zeta" else 2
    lb = np.log(np.arange(1, step * n_terms + 1, step, dtype=float))
    signs = np.where(np.arange(n_terms) % 2 == 0, 1.0, -1.0)
    coef = _cvz_weights(n_terms) * signs * np.exp(-sigma * lb)
    out = np.empty(len(ts), dtype=complex)
    chunk = max(1, (1 << 22) // n_terms)
    for i in range(0, len(ts), chunk):
        phase = np.exp(-1j * np.outer(ts[i:i + chunk], lb))
        out[i:i + chunk] = phase @ coef
    if lid.kind == "zeta":
        out /= 1.0 - np.exp((1.0 - sigma - 1j * ts) * math.log(2.0))
    return out


def _check_s(s):
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError("s must be finite")
    if s.real <= 0:
        raise DomainError("evaluation requires Re(s) > 0")
    return s


_BERNOULLI = [1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66,
              -691.0 / 2730, 7.0 / 6]


def legendre_symbol(n, q):
    """(n/q) for odd prime q: 1 on nonzero squares, -1 on nonsquares."""
    r = pow(n % q, (q - 1) // 2, q)
    return r - q if r > 1 else r


def _quadratic_l(q, s, blocks):
    """L(s, chi_q) for the real character mod an odd prime q: sum complete
    periods (each sums to zero, so the block function decays one power
    faster), then close with an Euler-Maclaurin tail."""
    chi = np.array([legendre_symbol(r, q) for r in range(q)], dtype=float)
    r = np.arange(q, dtype=float)
    J = max(int(blocks), int(math.ceil(4.0 * (abs(s.imag) + 8.0) / q)) + 2)
    j = np.arange(J, dtype=float)
    grid = np.add.outer(j * q, r)
    grid[0, 0] = 1.0  # n = 0 never contributes (chi[0] = 0)
    head = np.sum(chi * np.exp(-s * np.log(grid)))
    u = J * q + r
    lnu = np.log(u)
    # integral term: sum_r chi(r) (Jq+r)^(1-s) / ((s-1) q)
    tail = np.sum(chi * np.exp((1.0 - s) * lnu)) / ((s - 1.0) * q)
    f0 = chi * np.exp(-s * lnu)
    tail += 0.5 * np.sum(f0)
    rising = 1.0 + 0j
    qpow = 1.0
    fact = 1.0
    for m, b2m in enumerate(_BERNOULLI, start=1):
        # f^(2m-1)(J) = -(s)_(2m-1) q^(2m-1) (Jq+r)^(-s-2m+1)
        rising *= s + (2 * m - 2)
        if m > 1:
            rising *= s + (2 * m - 3)
        qpow *= q * q
        fact *= (2 * m) * (2 * m - 1)
        deriv = np.sum(chi * np.exp((-s - (2 * m - 1)) * lnu))
        tail += (b2m / fact) * rising * (qpow / q) * deriv
    return complex(head + tail)


def evaluate_l(lid, s, terms=None):
    """Evaluate the identified L-function at s with Re(s) > 0.

    ``terms`` is the acceleration order (zeta/beta4) or the number of
    complete character periods summed before the tail (quadratic); the
    error decreases geometrically in it.  Defaults come from Im(s).
    """
    s = _check_s(s)
    if lid.kind == "quadratic":
        return _quadratic_l(lid.q, s, terms or 48)
    if lid.kind == "zeta" and s == 1:
        raise DomainError("zeta has its pole at s = 1")
    n = terms or default_terms(s.imag)
    return complex(_l_grid(lid, s.real, [s.imag], n)[0])


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


def _theta_zeta(ts):
    """Rotation angle for zeta: Im log Gamma(1/4 + it/2) - (t/2) ln pi."""
    ts = np.asarray(ts, dtype=float)
    return _im_log_gamma(0.25, 0.5 * ts) - 0.5 * ts * math.log(math.pi)


def _theta_beta4(ts):
    """Rotation angle from the completed mod-4 function
    (4/pi)^((s+1)/2) Gamma((s+1)/2) L(s)."""
    ts = np.asarray(ts, dtype=float)
    return _im_log_gamma(0.75, 0.5 * ts) + 0.5 * ts * math.log(4.0 / math.pi)


def _hardy_z_grid(lid, ts, n_terms):
    """Real rotated function of zeta or beta4 along the critical line at
    the grid ts."""
    theta = _theta_zeta if lid.kind == "zeta" else _theta_beta4
    ts = np.asarray(ts, dtype=float)
    return (np.exp(1j * theta(ts)) * _l_grid(lid, 0.5, ts, n_terms)).real


def _bisect_zeros(lid, brackets, n_terms, precision):
    """Midpoints of the sign-change brackets (a, b, f(a)), each bisected to
    width <= precision.  All live brackets step together, one grid call over
    their midpoints per step; each follows the same midpoints as it would
    alone."""
    a, b, fa = np.array(brackets, dtype=float).reshape(-1, 3).T
    live = np.flatnonzero(b - a > precision)
    while len(live):
        m = 0.5 * (a[live] + b[live])
        fm = _hardy_z_grid(lid, m, n_terms)
        left = fa[live] * fm <= 0
        right = ~left
        b[live[left]] = m[left]
        a[live[right]], fa[live[right]] = m[right], fm[right]
        live = live[b[live] - a[live] > precision]
    return 0.5 * (a + b)


def find_zeros(lid, t_max):
    """All ordinates gamma in (0, t_max] with L(1/2 + i*gamma) = 0, each
    certified by a sign change of the rotated real function and refined
    by bisection to ZERO_PRECISION."""
    if lid.kind == "quadratic":
        raise DomainError("zero finding supports zeta and beta4 only; "
                          "ingest published ordinates via parse_zero_table")
    if not math.isfinite(t_max):
        raise DomainError("t_max must be finite, got %r" % t_max)
    if t_max > T_MAX_CAP:
        raise CapacityError("t_max %g above the desk-scale cap %g"
                            % (t_max, T_MAX_CAP))
    if t_max <= 0:
        return ZeroTable(lid, np.empty(0), ZERO_PRECISION)
    n_terms = default_terms(t_max)

    def scan(spans, step, depth):
        """Sign-change brackets (a, b, f(a)) on the grids of this step over
        the spans (a, b), all evaluated in one grid call.  The top-level
        grid gets t_max appended where its steps stop short of it."""
        grids = [np.arange(a, b + step / 2, step) for a, b in spans]
        if depth == 0 and grids[0][-1] < t_max:
            grids[0] = np.append(grids[0], t_max)
        values = _hardy_z_grid(lid, np.concatenate(grids), n_terms)
        found, dips = [], []
        for ts in grids:
            zs, values = values[:len(ts)], values[len(ts):]
            sign_change = zs[:-1] * zs[1:] < 0
            # a dip toward zero without a sign change can hide a close pair
            interior = np.zeros(len(ts), dtype=bool)
            interior[1:-1] = (np.abs(zs[1:-1]) < np.abs(zs[:-2])) & \
                             (np.abs(zs[1:-1]) < np.abs(zs[2:])) & \
                             (np.abs(zs[1:-1]) < 0.1)
            for i in range(len(ts) - 1):
                if sign_change[i]:
                    found.append((ts[i], ts[i + 1], zs[i]))
                elif interior[i] and depth < MAX_HALVINGS:
                    dips.append((ts[i - 1], ts[i + 1]))
        if dips:
            found.extend(scan(dips, step / 2, depth + 1))
        return found

    lo = min(SCAN_STEP, t_max / 8)
    brackets = scan([(lo, float(t_max))], SCAN_STEP, 0)
    zeros = sorted(set(round(z, 12) for z in
                       _bisect_zeros(lid, brackets, n_terms, ZERO_PRECISION)))
    zeros = [z for z in zeros if 0 < z <= t_max]
    # collapse duplicates rediscovered by overlapping refined scans
    dedup = []
    for z in zeros:
        if not dedup or z - dedup[-1] > 2 * ZERO_PRECISION:
            dedup.append(z)
    return ZeroTable(lid, np.array(dedup), ZERO_PRECISION)


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
                    except DomainError:
                        raise ParseError("bad lfunction header", lineno)
                continue
            try:
                g = float(line)
            except ValueError:
                raise ParseError("bad ordinate %r" % line, lineno)
            if g <= 0:
                raise ParseError("ordinate must be positive", lineno)
            if ordinates and g <= ordinates[-1]:
                raise ParseError("ordinates not strictly ascending", lineno)
            ordinates.append(g)
    if lid is not None and file_id is not None and file_id != lid:
        raise ParseError("file holds %s, expected %s" % (file_id, lid))
    return ZeroTable(file_id or lid or ZETA, np.array(ordinates),
                     ZERO_PRECISION)
