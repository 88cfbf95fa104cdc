"""Outside-in tracing: wrap the package's public functions from the
benchmark's own files, keep spans in memory, derive per-layer metrics.

A span is ``[layer, name, start, end, parent, counts]``; ``parent`` is the
index of the enclosing span or -1.  A span's self time is its duration minus
the part of its interval that its child spans cover.  Counts come from call
arguments and results and are summed only at layer boundaries (spans whose
parent is in another layer), so a public function that calls another one of
its own layer is not counted twice.
"""

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("sieve", "races", "lfunctions", "waves", "pairs")


def _limit_counts(extra):
    """Counts of a sieve entry point from its limit (plus the pair gap)."""
    def count(a, result):
        n = int(a["limit"]) + (int(a["gap"]) if extra else 0)
        out = {"calls": 1, "ints": n, "mask_bytes": (n - 1) // 2}
        if "checkpoints" in a:
            out["checkpoints"] = len(a["checkpoints"])
        return out
    return count


def _ledger_counts(a, ledger):
    return {"ledger_cells": int(ledger.counts.size),
            "ledger_bytes": int(ledger.counts.nbytes + ledger.xs.nbytes)}


def _out_bytes(a, code):
    argv = list(a["argv"] or ())
    paths = [argv[i + 1] for i, v in enumerate(argv[:-1])
             if v in ("--out", "--stats-out")]
    return {"out_bytes": sum(os.path.getsize(p) for p in paths
                             if os.path.isfile(p))}


# "layer.function" -> counts(bound arguments, result).  mask_bytes,
# ledger_bytes and terms are computed from array sizes, not measured.
COUNTERS = {
    "sieve.count_primes": _limit_counts(False),
    "sieve.primes_up_to": lambda a, r: dict(_limit_counts(False)(a, r),
                                            primes_out=len(r)),
    "sieve.count_in_progressions": _limit_counts(False),
    "sieve.count_pairs_at": _limit_counts(True),
    "sieve.pair_starts": _limit_counts(True),
    "races.run_dense_race": _ledger_counts,
    "races.detect_lead_changes": lambda a, r: {"events": len(r)},
    "lfunctions.find_zeros": lambda a, r: {"zeros_found": len(r.ordinates)},
    "waves.wave_series": lambda a, r: {"terms":
                                       len(r.x_grid) * r.zeros_used},
    "cli.main": _out_bytes,
}


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._local = threading.local()

    def wrap(self, layer, name, fn):
        counter = COUNTERS.get("%s.%s" % (layer, name))
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [layer, name, self.clock(), 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                stack.pop()
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result
        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer):
    """Wrap every public function of the layer modules, plus ``cli.main``,
    on its module and on every module of the package that imported it.
    Returns the replaced ``(module, name, original)`` triples."""
    wrapped, replaced = {}, []
    for layer in LAYERS + ("cli",):
        mod = sys.modules["primeraces." + layer]
        for name, fn in list(vars(mod).items()):
            if layer == "cli" and name != "main":
                continue
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            wrapped[id(fn)] = tracer.wrap(layer, name, fn)
    for modname, mod in list(sys.modules.items()):
        if modname != "primeraces" and not modname.startswith("primeraces."):
            continue
        for name, value in list(vars(mod).items()):
            if id(value) in wrapped:
                replaced.append((mod, name, value))
                setattr(mod, name, wrapped[id(value)])
    return replaced


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children = defaultdict(list)
    for i, sp in enumerate(spans):
        if sp[4] >= 0:
            children[sp[4]].append(i)
    out = []
    for i, (_, _, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted((spans[c][2], spans[c][3]) for c in children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(max(0.0, end - start - covered))
    return out


#: per-layer metric -> the end-to-end metric it should move, and on which
#: workload.  Units and directions are in BENCHMARK.json.  Every metric is
#: reported on every workload; a layer a workload never enters reads 0.
PER_LAYER = {
    "sieve.count_in_progressions.self_s":
        "pi_s, pi_1t_s, histogram_s on count-tables; "
        "no change on zero-waves",
    "sieve.ns_per_int":
        "pi_s, pi_1t_s, histogram_s on count-tables (sieve.self_s / "
        "sieve.ints)",
    "sieve.mask_bytes": "pi_s, pi_1t_s, histogram_s on count-tables",
    "sieve.checkpoints": "histogram_s on count-tables",
    "sieve.count_primes.self_s": "pi_1t_s on count-tables",
    "sieve.primes_up_to.self_s": "race_dense_s on dense-races",
    "sieve.primes_out": "race_dense_s on dense-races",
    "sieve.count_pairs_at.self_s": "twins_table_s on count-tables",
    "sieve.pair_starts.self_s": "pair_race_s on dense-races",
    "sieve.self_s": "wall_s on count-tables",
    "sieve.calls": "wall_s on count-tables",
    "sieve.ints": "wall_s on count-tables",
    "races.run_dense_race.self_s": "race_dense_s on dense-races",
    "races.detect_lead_changes.self_s": "race_dense_s on dense-races",
    "races.leader_density.self_s": "race_dense_s on dense-races",
    "races.ledger_cells": "race_dense_s, peak_rss_mib on dense-races",
    "races.ledger_bytes": "peak_rss_mib on dense-races",
    "races.events": "race_dense_s on dense-races",
    "races.simulate_tie_walk.self_s": "walk_s on dense-races",
    "races.self_s": "wall_s on dense-races",
    "lfunctions.find_zeros.self_s":
        "zeros_zeta_s, zeros_beta4_s on zero-waves; "
        "no change on count-tables",
    "lfunctions.zeros_found": "zeros_zeta_s, zeros_beta4_s on zero-waves",
    "lfunctions.zeros_per_s": "zeros_zeta_s, zeros_beta4_s on zero-waves",
    "lfunctions.li.calls": "explicit_s on zero-waves",
    "lfunctions.li.self_s": "explicit_s on zero-waves",
    "lfunctions.li2.calls": "twins_table_s on count-tables",
    "lfunctions.li2.self_s": "twins_table_s on count-tables",
    "lfunctions.self_s": "wall_s on zero-waves",
    "waves.wave_series.self_s": "explicit_s on zero-waves",
    "waves.terms": "explicit_s on zero-waves",
    "waves.compare_series.self_s": "explicit_s on zero-waves",
    "waves.self_s": "explicit_s on zero-waves",
    "pairs.pair_race.self_s": "pair_race_s on dense-races",
    "pairs.twin_table.self_s": "twins_table_s on count-tables",
    "pairs.compute_c2.calls": "twins_table_s on count-tables",
    "pairs.compute_c2.self_s": "twins_table_s on count-tables",
    "pairs.self_s": "wall_s on count-tables and dense-races",
    "cli.self_s": "wall_s on every workload",
    "cli.out_bytes": "wall_s on every workload",
    "trace.self_s_frac":
        "none: summed self time over the traced wall_s, near 1 when spans "
        "cover it",
    "trace.overhead_frac": "none: traced wall_s over untraced wall_s, minus 1",
}


def layer_metrics(spans, wall_s):
    """Every PER_LAYER metric except trace.overhead_frac, from one traced
    pass whose commands took ``wall_s`` seconds in all."""
    selfs = self_times(spans)
    m = defaultdict(float)
    for i, (layer, name, _, _, parent, counts) in enumerate(spans):
        m["%s.self_s" % layer] += selfs[i]
        m["%s.%s.self_s" % (layer, name)] += selfs[i]
        m["%s.%s.calls" % (layer, name)] += 1
        if counts and (parent < 0 or spans[parent][0] != layer):
            for key, value in counts.items():
                m["%s.%s" % (layer, key)] += value
    m["sieve.ns_per_int"] = (1e9 * m["sieve.self_s"] / m["sieve.ints"]
                             if m["sieve.ints"] else 0.0)
    zs = m["lfunctions.find_zeros.self_s"]
    m["lfunctions.zeros_per_s"] = (m["lfunctions.zeros_found"] / zs
                                   if zs else 0.0)
    m["trace.self_s_frac"] = sum(selfs) / wall_s if wall_s else 0.0
    return {k: m[k] for k in PER_LAYER if k != "trace.overhead_frac"}
