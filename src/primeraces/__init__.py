"""Prime number races: exact progression counts from a segmented sieve,
lead-change bookkeeping, zeta and Dirichlet L zeros with explicit-formula
wave sums, logarithmic-density bias measures, and the renormalized
twin-prime pair race."""

from .errors import (CapacityError, ConvergenceError, DomainError,
                     ParseError, PrimeRacesError)
from .lfunctions import (BETA4, ZETA, LFunctionId, ZeroTable,
                         chebyshev_psi, evaluate_l, find_zeros,
                         gauss_overcount, li, li2, li_from_origin,
                         parse_zero_table, psi_rh_inequality_check,
                         quadratic, riemann_overcount, riemann_prediction)
from .pairs import (HLConstants, compute_c2, hl_prediction,
                    normalized_count, pair_race, singular_factor, twin_table)
from .races import (Histogram, LeadChangeEvent, RaceLedger, TeamSpec,
                    build_histogram, detect_lead_changes, error_term,
                    euler_phi, lead_windows, leader_density,
                    littlewood_bound, run_dense_race, shanks_ratio,
                    simulate_tie_walk, splitmix64, squares_mod,
                    strictly_ahead)
from .sieve import (ResidueCounts, checkpoint_load, count_in_progressions,
                    count_pairs_by_gap, count_primes, iter_prime_blocks,
                    primes_up_to)
from .waves import (HypotheticalZero, SeriesStats, WaveSeries,
                    compare_series, forbidden_ordering_count,
                    ford_konyagin_grid, lhs_pi_li, log_grid,
                    sawtooth_partial_sum, wave_sums)

__version__ = "0.1.0"
