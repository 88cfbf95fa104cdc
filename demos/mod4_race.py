"""The two-team race between primes 4n+3 and 4n+1.

Counts the teams at round checkpoints, then looks between the checkpoints:
the challenger 4n+1 takes the lead for the first time at 26,861, loses it
two integers later, and only returns above six hundred thousand.  The
logarithmic measure quantifies how rarely that happens.
"""

import numpy as np

from primeraces import races, sieve
from primeraces.races import TeamSpec, littlewood_bound

LIMIT = 13 * 10**6

checkpoints = [100, 1000, 10000, 100000, 1000000, 10000000]
print("x           4n+3     4n+1   lead   comparison curve")
table = sieve.count_in_progressions(LIMIT, 4, checkpoints)
for x, c3, c1 in zip(table.xs.tolist(), table.column(3).tolist(),
                     table.column(1).tolist()):
    print("%-10d %8d %8d %6d   %8.1f"
          % (x, c3, c1, c3 - c1, littlewood_bound(x)))

teams = [TeamSpec("3", {3}), TeamSpec("1", {1})]
ledger = races.run_dense_race(LIMIT, 4, teams)

print("\nstretches where team 1 is strictly ahead (up to %d):" % LIMIT)
spans = []
for start, end in races.lead_windows(ledger, "1"):
    if spans and start - spans[-1][1] < 10**5:
        spans[-1][1] = end  # merge windows separated by brief tie-backs
    else:
        spans.append([start, end])
for start, end in spans:
    print("  %d .. %d" % (start, end))

events = races.detect_lead_changes(ledger)
print("\n%d lead-change events in total; the first few:" % len(events))
for e in events[:6]:
    print("  x=%d  %s -> %s" % (e.x, e.previous_leader, e.new_leader))

strict = races.leader_density(ledger, races.strictly_ahead(0),
                              10**7, "logarithmic")
not_behind = races.leader_density(ledger, lambda m: m[0] >= m[1],
                                  10**7, "logarithmic")
print("\nlogarithmic measure up to 10^7:")
print("  team 3 strictly ahead: %.4f" % strict)
print("  team 3 never behind:   %.4f" % not_behind)

print("\nnatural share of x with team 1 strictly ahead, per range:")
flags = races.strictly_ahead(1)(ledger.counts)
xs = ledger.xs
for hi in (26860, 500000, 10**7):
    n = int(np.searchsorted(xs, hi, side="right"))
    starts = np.concatenate(([2], xs[:n]))
    ends = np.minimum(np.concatenate((xs[:n] - 1, [hi])), hi)
    on = np.concatenate(([False], flags[:n]))
    lengths = np.where(on & (starts <= ends), ends - starts + 1, 0)
    running_share = np.cumsum(lengths) / np.maximum(ends, 1)
    print("  2..%-9d final %.4f%%   max of running share %.4f%%"
          % (hi, 100 * running_share[-1], 100 * running_share.max()))
