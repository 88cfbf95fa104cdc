"""Team races decided by quadratic residues.

For an odd prime q, squares mod q collect the squares of primes as a
handicap, so the nonsquare team usually leads.  The four-way last-digit
race (mod 10) and the mod-8 race show the same pattern: classes containing
1 = the square residue trail the rest.
"""

from primeraces import races, sieve
from primeraces.races import TeamSpec


def standings(q):
    """(x, {class: count}) at 10^4 and 10^6."""
    table = sieve.count_in_progressions(10**6, q, [10**4, 10**6])
    return [(x, dict(zip(table.residues, row)))
            for x, row in zip(table.xs.tolist(), table.counts.tolist())]


for q in (3, 5, 7, 11):
    s, n = races.squares_mod(q)
    table = sieve.count_in_progressions(10**6, q, [10**6])
    cs = sum(int(table.column(a)[0]) for a in s)
    cn = sum(int(table.column(a)[0]) for a in n)
    print("mod %2d: squares %s -> %d primes, nonsquares %s -> %d primes"
          % (q, sorted(s), cs, sorted(n), cn))

print("\nmod 10 standings (last digit of the prime):")
for x, counts in standings(10):
    print("  x=%-8d %s" % (x, counts))

print("\nmod 8 standings (squares are all 8n+1):")
for x, counts in standings(8):
    lagging = min(counts, key=counts.get)
    print("  x=%-8d %s   trailing class: %d" % (x, counts, lagging))

print("\nerror terms mod 8 at x = 10^6 "
      "(square class pulled down, others float):")
pi_x = sieve.count_primes(10**6)
table = sieve.count_in_progressions(10**6, 8, [10**6])
for a in (1, 3, 5, 7):
    e = races.error_term(10**6, 8, a, pi_x, int(table.column(a)[0]))
    print("  class %d: %+.3f" % (a, e))

print("\na dense squares-vs-nonsquares race mod 7:")
s, n = races.squares_mod(7)
ledger = races.run_dense_race(10**6, 7,
                              [TeamSpec("S", s), TeamSpec("N", n)])
events = races.detect_lead_changes(ledger)
print("  %d lead events up to 10^6; team S windows: %s"
      % (len(events), races.lead_windows(ledger, "S")[:5]))
