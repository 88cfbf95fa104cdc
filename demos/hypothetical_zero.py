"""What a single off-line zero would do to the mod-5 race.

If the mod-5 L-function had one zero with real part sigma > 1/2, the four
normalized count deviations would follow the four rotating profiles below,
locked in antisymmetric pairs.  One consequence: the ordering
3 < 2 < 4 < 1 (with any fixed slack) would stop occurring entirely.
"""

import numpy as np

from primeraces import waves

z = waves.HypotheticalZero(sigma=0.75, gamma=1.0)
print("zero at sigma=%.2f, gamma=%.2f" % (z.sigma, z.gamma))

print("\nprofiles at a few x (residues 1, 2, 3, 4):")
xs = (10, 10**3, 10**6, 10**9)
for x, p in zip(xs, waves.ford_konyagin_grid(z, xs).T.tolist()):
    print("  x=%-8g  %+.3f  %+.3f  %+.3f  %+.3f" % (x, *p))

grid = waves.log_grid(2, 10**10, 10**4)
rows = waves.ford_konyagin_grid(z, grid)
print("\nantisymmetry max |p1+p4|, |p2+p3|: %g, %g"
      % (np.abs(rows[0] + rows[3]).max(), np.abs(rows[1] + rows[2]).max()))

count = waves.forbidden_ordering_count(z, grid)
print("occurrences of the ordering 3<2<4<1 with slack sigma/2 "
      "over %d points: %d" % (len(grid), count))

# every other ordering of the middle pair does occur
other = np.count_nonzero((rows[2] - rows[1] > z.sigma / 2)
                         & (rows[1] - rows[3] > -10))
print("points where residue 2 trails residue 3 by the same slack: %d"
      % other)
