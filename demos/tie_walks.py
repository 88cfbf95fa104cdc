"""Why three-way races keep tying and four-way races stop.

The vector of count differences between k teams moves on a (k-1)-dim
lattice, one unit step per prime.  Walks in one or two dimensions return
to the origin with probability one; in three or more they escape.  The
model predicts infinitely many all-way ties for two and three teams only.
"""

import numpy as np

from primeraces import races

for teams in (2, 3, 4, 5):
    # first return step per trial, 0 where the walk never came back
    first = races.simulate_tie_walk(teams, steps=10**5, trials=200, seed=7)
    returned = first[first > 0]
    mean_step = returned.mean() if len(returned) else float("nan")
    print("%d teams (walk dim %d): returned %5.1f%%  "
          "mean first return step %.0f"
          % (teams, teams - 1, 100 * len(returned) / len(first), mean_step))

print("\nsame seed, same walk, bit for bit:")
print(" ", np.array_equal(races.simulate_tie_walk(3, 1000, 3, 42),
                          races.simulate_tie_walk(3, 1000, 3, 42)))
