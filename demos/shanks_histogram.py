"""Distribution of the normalized mod-4 gap.

Sampling (count_3 - count_1) * ln x / sqrt(x) at x = 1000k for k up to a
thousand gives a lopsided hill centered near 1: the gap is usually
positive and of square-root size, which is the race's bias in one picture.
"""

from primeraces import races, sieve

xs = [1000 * k for k in range(1, 1001)]
table = sieve.count_in_progressions(xs[-1], 4, xs)
samples = [races.shanks_ratio(x, c3, c1) for x, c3, c1 in zip(
    xs, table.column(3).tolist(), table.column(1).tolist())]

hist = races.build_histogram(samples, bins=24, lo=-1.0, hi=3.0)
peak = max(hist.counts)
print("samples: %d   below range: %d   above: %d"
      % (hist.total, hist.underflow, hist.overflow))
for i, c in enumerate(hist.counts):
    bar = "#" * round(40 * c / peak)
    print("%+6.2f .. %+6.2f  %4d  %s"
          % (hist.bin_edges[i], hist.bin_edges[i + 1], c, bar))

mean = sum(samples) / len(samples)
print("\nsample mean %.3f; min %.3f; max %.3f"
      % (mean, min(samples), max(samples)))
