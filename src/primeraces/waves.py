"""Wave-sum engine: the sawtooth Fourier demo, truncated zero-sum
approximations to the normalized prime-count errors, comparison statistics
against sieve truth, and the hypothetical off-line-zero profiles mod 5.

Summation over zero ordinates is always taken in ascending order of gamma;
that is the rule that makes the conditionally convergent sum come out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lfunctions import li
from .races import shanks_ratio


@dataclass(frozen=True)
class WaveSeries:
    """Truncated wave-sum values on an ascending x grid."""

    zeros_used: int
    x_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xg = np.asarray(self.x_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "x_grid", xg)
        object.__setattr__(self, "values", vals)
        if len(xg) != len(vals):
            raise DomainError("grid and values must have matching length")
        if len(xg) and (xg[0] < 2 or np.any(np.diff(xg) <= 0)):
            raise DomainError("grid must be strictly ascending with x >= 2")


@dataclass(frozen=True)
class HypotheticalZero:
    """A single critical-strip zero off the half line, sigma strictly
    above 1/2 (the feasible-violation scenario)."""

    sigma: float
    gamma: float

    def __post_init__(self):
        if not (0.5 < self.sigma < 1.0):
            raise DomainError("sigma must lie strictly between 1/2 and 1")
        if self.gamma < 0:
            raise DomainError("gamma must be >= 0")


@dataclass(frozen=True)
class SeriesStats:
    rms: float
    correlation: float
    sign_agreement: float


def sawtooth_partial_sum(x, n_waves):
    """-2 * sum_{n<=N} sin(2 pi n x)/(2 pi n), the N-wave approximation
    to x - 1/2 on the open unit interval."""
    if not 0 < x < 1:
        raise DomainError("sawtooth demo lives on 0 < x < 1")
    if n_waves < 0:
        raise DomainError("wave count must be >= 0")
    if n_waves == 0:
        return 0.0
    n = np.arange(1, n_waves + 1, dtype=float)
    return float(np.sum(-2.0 * np.sin(2 * math.pi * n * x) / (2 * math.pi * n)))


def wave_sums(table, x_grid, truncations):
    """The wave sums 1 + 2 * sum over ordinates of sin(gamma ln x)/gamma on
    a whole grid of x >= 2, one WaveSeries per entry of ``truncations``:
    over the lowest m ordinates (all of them for None).  The grid is summed
    in blocks of rows of at most 2^22 (x, gamma) cells, sized for the
    largest truncation; each block's sines are taken once and every
    truncation sums a prefix of their columns."""
    if len(set(truncations)) != len(truncations):
        raise DomainError("truncations must be distinct")
    for m in truncations:
        if m is not None and m < 0:
            raise DomainError("zeros_used must be >= 0, got %d" % m)
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid < 2):
        raise DomainError("wave sums need x >= 2")
    used = [len(table.ordinates[:m]) for m in truncations]
    g = table.ordinates[:max(used, default=0)]
    inv = 1.0 / g
    logs = np.log(x_grid)
    vals = np.empty((len(used), len(logs)))
    chunk = max(1, (1 << 22) // max(1, len(g)))
    block = np.empty((min(chunk, len(logs)), len(g)))
    for i in range(0, len(logs), chunk):
        part = logs[i:i + chunk]
        s = np.outer(part, g, out=block[:len(part)])
        np.sin(s, out=s)
        # 2 (S v) == (2 S) v exactly, without a scaled copy of the block
        for row, m in zip(vals, used):
            row[i:i + chunk] = 1.0 + 2.0 * (s[:, :m] @ inv[:m])
    return [WaveSeries(m, x_grid, v) for m, v in zip(used, vals)]


def lhs_pi_li(x, pi_x):
    """(Li(x) - pi(x)) normalized by sqrt(x)/ln(x), elementwise over arrays
    of x and pi(x).  Li is evaluated once over the whole grid, in closed
    form."""
    x = np.asarray(x, dtype=float)
    return shanks_ratio(x, li(x), pi_x)


def ford_konyagin_grid(z, x_grid):
    """Right-hand sides of the four normalized mod-5 deviations under one
    off-line zero, as rows (4, n) over a grid: residues 1, 2, 3, 4."""
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid < 2):
        raise DomainError("profile grid needs x >= 2")
    th = z.gamma * np.log(x_grid)
    c, s = np.cos(th), np.sin(th)
    return np.stack([-z.sigma * c - z.gamma * s,
                     z.sigma * s - z.gamma * c,
                     -z.sigma * s + z.gamma * c,
                     z.sigma * c + z.gamma * s])


def forbidden_ordering_count(z, x_grid):
    """How many grid points realize the ordering 3 < 2 < 4 < 1, every
    inequality by more than sigma/2.  The construction says: none, once x
    is large."""
    slack = z.sigma / 2
    p1, p2, p3, p4 = ford_konyagin_grid(z, x_grid)
    hit = (p2 - p3 > slack) & (p4 - p2 > slack) & (p1 - p4 > slack)
    return int(np.count_nonzero(hit))


def compare_series(truth, approx):
    """Error statistics of an approximation against truth on one grid."""
    if len(truth.x_grid) != len(approx.x_grid) or \
            not np.array_equal(truth.x_grid, approx.x_grid):
        raise DomainError("series grids must be identical")
    t = truth.values
    a = approx.values
    if len(t) == 0:
        raise DomainError("empty series")
    resid = a - t
    rms = float(np.sqrt(np.mean(resid * resid)))
    st, sa = np.std(t), np.std(a)
    if st == 0 or sa == 0:
        corr = 1.0 if np.allclose(t, a) else 0.0
    else:
        corr = float(np.corrcoef(t, a)[0, 1])
    agree = float(np.mean(np.sign(t) == np.sign(a)))
    return SeriesStats(rms, corr, agree)


def log_grid(lo, hi, points):
    """Log-uniform grid, the natural spacing when ln x is the variable."""
    if not 2 <= lo < hi:
        raise DomainError("need 2 <= lo < hi")
    if points < 2:
        raise DomainError("need at least two grid points")
    return np.exp(np.linspace(math.log(lo), math.log(hi), points))


# ---------------------------------------------------------------------------
# artifact emission: series CSV and a dependency-free SVG line chart

#: rows formatted per string operation: as fast as the whole table at once,
#: which would hold every row's floats as Python objects together
_CSV_ROWS = 1024


def format_series_csv(x_grid, columns):
    """CSV text of columns, ordered (name, values) pairs aligned with
    x_grid, under an x column.  Every cell is written as "%.10g"."""
    names = [name for name, _ in columns]
    parts = ["x," + ",".join(names) + "\n"]
    series = [x_grid] + [vals for _, vals in columns]
    row = ",".join(["%.10g"] * len(series)) + "\n"
    for lo in range(0, len(x_grid), _CSV_ROWS):
        hi = min(lo + _CSV_ROWS, len(x_grid))
        block = np.column_stack([np.asarray(v[lo:hi], dtype=float)
                                 for v in series])
        parts.append(row * (hi - lo) % tuple(block.ravel().tolist()))
    return "".join(parts)


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b"]


def render_series_svg(x_grid, columns, title="", log_x=True):
    """Self-contained 800x400 SVG line chart; deterministic bytes for
    identical inputs."""
    w, h, pad = 800, 400, 45
    xs = np.log(np.asarray(x_grid, float)) if log_x else np.asarray(x_grid,
                                                                    float)
    ys = [np.asarray(v, float) for _, v in columns]
    ymin = min(float(np.min(v)) for v in ys)
    ymax = max(float(np.max(v)) for v in ys)
    if ymax == ymin:
        ymax = ymin + 1.0
    xmin, xmax = float(xs[0]), float(xs[-1])
    if xmax == xmin:
        xmax = xmin + 1.0

    def px(x):
        return pad + (x - xmin) / (xmax - xmin) * (w - 2 * pad)

    def py(y):
        return h - pad - (y - ymin) / (ymax - ymin) * (h - 2 * pad)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">'
             % (w, h),
             '<rect width="%d" height="%d" fill="white"/>' % (w, h)]
    if ymin < 0 < ymax:
        parts.append('<line x1="%d" y1="%.2f" x2="%d" y2="%.2f" '
                     'stroke="#999" stroke-width="1"/>'
                     % (pad, py(0.0), w - pad, py(0.0)))
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                 'stroke="#333"/>' % (pad, pad, w - 2 * pad, h - 2 * pad))
    for ci, (name, vals) in enumerate(columns):
        pts = " ".join("%.2f,%.2f" % (px(x), py(float(v)))
                       for x, v in zip(xs, vals))
        color = _SVG_COLORS[ci % len(_SVG_COLORS)]
        parts.append('<polyline fill="none" stroke="%s" stroke-width="1.2" '
                     'points="%s"/>' % (color, pts))
        parts.append('<text x="%d" y="%d" fill="%s" font-size="12">%s</text>'
                     % (w - pad - 110, pad + 16 + 14 * ci, color, name))
    if title:
        parts.append('<text x="%d" y="%d" fill="#000" font-size="14">%s'
                     '</text>' % (pad, 24, title))
    parts.append("</svg>\n")
    return "\n".join(parts)
