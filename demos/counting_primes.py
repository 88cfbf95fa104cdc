"""How good are the classical prime-count predictions?

Compares pi(x) with the logarithmic-integral guess and with the two-term
refinement, then tests the prime-power log sum psi(x) = ln lcm[1..x]
against x, including the square-root inequality that is equivalent to the
critical-line hypothesis.
"""

from primeraces import lfunctions as lf
from primeraces import sieve

rows = [(10**6, None), (10**7, None), (10**8, None)]
print("x         pi(x)      li overcount   refined overcount")
for x, _ in rows:
    pi_x = sieve.count_primes(x)
    print("%-9d %-10d %8d %15d"
          % (x, pi_x, lf.gauss_overcount(x, pi_x),
             lf.riemann_overcount(x, pi_x)))

print("\nthe refined prediction subtracts half the square-root count:")
x = 10**8
pi_x = sieve.count_primes(x)
print("  li(1e8)            = %.3f" % lf.li_from_origin(x))
print("  li(1e8)-li(1e4)/2  = %.3f" % (lf.li_from_origin(x)
                                       - 0.5 * lf.li_from_origin(10**4)))
print("  pi(1e8)            = %d" % pi_x)

print("\npsi(x) = sum of ln p over prime powers p^k <= x:")
primes = sieve.primes_up_to(10**6)
print("x         nearest     psi - x    |psi-x| <= 2 sqrt(x) ln^2 x ?")
for x in (100, 1000, 10000, 100000, 1000000):
    v = lf.chebyshev_psi(x, primes)
    print("%-9d %8d %10d    %s"
          % (x, round(v), round(v) - x, lf.psi_rh_inequality_check(x, v)))
