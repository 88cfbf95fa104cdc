"""The renormalized prime-pair race.

pi_2k(x) counts p <= x with p and p+2k both prime.  After dividing out the
gap-dependent singular factor, every gap should follow the same prediction
2 C2 Li2(x); the race is then about the small fluctuations around it.
"""

from primeraces import pairs, sieve

constants = pairs.compute_c2(10**7)
print("twin prime constant C2 = %.9f (+/- %.1e)"
      % (constants.c2, constants.c2_error_bound))
for k in (1, 3, 5, 15):
    num, den = pairs.singular_factor(k)
    print("  singular factor for gap %2d: %d/%d" % (2 * k, num, den))

gaps = (2, 4, 6, 8, 10)
print("\nraw counts (gaps %s):" % (gaps,))
xs = [10**3, 10**4, 10**5, 10**6]
counts = sieve.count_pairs_by_gap(10**6, gaps, xs)
for gap, col in zip(gaps, counts.T.tolist()):
    print("  gap %2d: %s" % (gap, col))

print("\nnormalized counts minus the prediction:")
rows = pairs.twin_table(gaps, xs)
print("x        " + "".join("gap%-7d" % g for g in gaps)
      + "prediction")
for x in xs:
    cells = [r for r in rows if r["x"] == x]
    line = "%-9d" % x
    for gap in gaps:
        r = next(c for c in cells if c["gap"] == gap)
        line += "%-10.1f" % r["difference"]
    print(line + "%10.1f" % cells[0]["hl_prediction"])

ledger, events = pairs.pair_race(gaps, 10**6)
print("\n%d first-place changes up to 10^6; the last few:" % len(events))
for e in events[-4:]:
    print("  x=%d  %s -> %s" % (e.x, e.previous_leader, e.new_leader))
final = {lab: int(c) for lab, c in zip(ledger.labels, ledger.counts[:, -1])}
print("final scaled standings:", final)
