"""Summing waves over critical-line zeros to recover prime-count errors.

Finds zero ordinates for the zeta function and the mod-4 L-series, builds
truncated wave sums 1 + 2 sum sin(g ln x)/g, and measures how the fit to
sieve truth improves with more zeros.  Writes a CSV and an SVG next to
this script.
"""

import os

import numpy as np

from primeraces import lfunctions as lf
from primeraces import sieve, waves

HERE = os.path.dirname(os.path.abspath(__file__))

ztab = lf.find_zeros(lf.ZETA, 120)
print("first zeta ordinates:", np.round(ztab.ordinates[:5], 4))

btab = lf.find_zeros(lf.BETA4, 60)
print("first mod-4 ordinates:", np.round(btab.ordinates[:5], 4))

grid = waves.log_grid(10**4, 10**6, 400)
# exact counts at the integer part of every grid point
xs, at = np.unique(np.floor(grid), return_inverse=True)
pi_at = sieve.count_in_progressions(10**6, 1, xs).column(0)[at]

li_vals = lf.li(grid)
truth = (li_vals - pi_at) * np.log(grid) / np.sqrt(grid)
print("\nnormalized li - pi target, fit by zero count:")
zeta_ns = (5, 10, 25, 50)
for n, approx in zip(zeta_ns, waves.wave_sums(ztab, grid, zeta_ns)):
    stats = waves.compare_series(truth, approx)
    print("  %3d zeros: rms %.4f  correlation %.3f"
          % (n, stats["rms"], stats["correlation"]))

mod4 = sieve.count_in_progressions(10**6, 4, xs)
truth4 = ((mod4.column(3)[at] - mod4.column(1)[at])
          * np.log(grid) / np.sqrt(grid))
cols = [("truth", truth4)]
print("\nmod-4 target, fit by zero count:")
beta_ns = (5, 15, 40)
for n, approx in zip(beta_ns, waves.wave_sums(btab, grid, beta_ns)):
    cols.append(("approx_%d" % n, approx))
    stats = waves.compare_series(truth4, approx)
    print("  %3d zeros: rms %.4f  correlation %.3f"
          % (n, stats["rms"], stats["correlation"]))

csv_path = os.path.join(HERE, "mod4_waves.csv")
svg_path = os.path.join(HERE, "mod4_waves.svg")
with open(csv_path, "w", encoding="utf-8") as fh:
    fh.write(waves.format_series_csv(grid, cols))
with open(svg_path, "w", encoding="utf-8") as fh:
    fh.write(waves.render_series_svg(grid, cols, title="mod-4 wave sums"))
print("\nwrote", csv_path)
print("wrote", svg_path)
