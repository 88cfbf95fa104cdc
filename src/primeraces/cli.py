"""Command-line front end.

Each subcommand reproduces one family of published-table computations and
emits CSV (default), JSON, or SVG.  Artifacts are deterministic: identical
invocations with identical seeds produce identical bytes.

Exit codes: 0 success, 2 usage, 3 capacity, 4 I/O or parse, 5 numeric
non-convergence; each error class in primeraces.errors carries its code.
Point and sample counts (geometric:lo:hi:n checkpoints, histogram samples,
histogram --bins, --points, sawtooth --waves, walk --steps and --trials),
--modulus and the largest twins gap above 10^5 are a capacity error, raised
before anything is allocated; so are a --limit (plus the largest twins gap)
above 10^10, more than 100 twins gaps, and a count table of more than 10^7
cells (checkpoints x classes coprime to the modulus).
walk --teams is uncapped: a walk costs O(trials x steps) whatever the team
count, and with more teams than steps no trial can return, so nothing is
drawn.
"""

import argparse
import gc
import io
import json
import math
import os
import sys

import numpy as np

from . import lfunctions as lf
from . import pairs, presets, races, sieve, waves
from .errors import CapacityError, DomainError, PrimeRacesError

# The imports above leave ~21k objects (numpy's, mostly) whose first full
# collection is due within a few thousand allocations; run it at start-up,
# not inside the first command that builds many containers (a 5,000-point
# histogram took 25 ms longer when the collection landed there).
gc.collect()

#: the most grid points, samples, bins, waves, modulus or pair gap a command
#: takes
COUNT_CAP = 10**5


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(out, text):
    if not out:
        sys.stdout.write(text)
        return
    cache = os.environ.get("PRIME_RACES_CACHE")
    if cache and not os.path.isabs(out):
        os.makedirs(cache, exist_ok=True)
        out = os.path.join(cache, out)
    _write(out, text)


def _json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _events(events, fmt, obj):
    """Lead-change events as CSV x,prev,next, or `obj` plus them as JSON."""
    if fmt != "json":
        return "".join("%d,%s,%s\n" % (e.x, e.previous_leader, e.new_leader)
                       for e in events)
    obj["events"] = [{"x": e.x, "prev": e.previous_leader,
                      "next": e.new_leader} for e in events]
    return _json(obj)


def _check_count(n, what):
    if n > COUNT_CAP:
        raise CapacityError("%s %d above the cap %d" % (what, n, COUNT_CAP))
    return n


def _parse_limit(text):
    try:
        return int(float(text))
    except (ValueError, OverflowError):
        raise DomainError("bad limit %r" % text)


def _parse_ints(text, what):
    try:
        return [int(f) for f in text.split(",")]
    except ValueError:
        raise DomainError("bad %s %r" % (what, text))


def _parse_checkpoints(text, limit):
    if text is None:
        return [limit]
    if text.startswith("paper:") or text in presets.TABLE_COLUMNS:
        try:
            cols = presets.checkpoints(text, limit)
        except KeyError as exc:
            raise DomainError(str(exc))
    elif text.startswith("geometric:"):
        bad = DomainError("geometric spec is geometric:lo:hi:n with "
                          "finite lo, hi > 0 and n >= 1")
        try:
            lo, hi, n = text.split(":")[1:]
            lo, hi, n = float(lo), float(hi), int(n)
        except ValueError:
            raise bad
        if not (0 < lo < math.inf and 0 < hi < math.inf and n >= 1):
            raise bad
        _check_count(n, "geometric point count")
        cols = sorted({int(round(v)) for v in
                       np.exp(np.linspace(math.log(lo), math.log(hi), n))})
        cols = [x for x in cols if x <= limit]
    else:
        try:
            cols = [int(float(f)) for f in text.split(",")]
        except (ValueError, OverflowError):
            raise DomainError("bad checkpoint list %r" % text)
    if not cols:
        raise DomainError("checkpoints %s have no values <= %d"
                          % (text, limit))
    return cols


def _parse_teams(text, q):
    """Teams from their text, validated against q before anything runs."""
    if text == "squares:nonsquares":
        s, n = races.squares_mod(q)
        return [races.TeamSpec("S", s), races.TeamSpec("N", n)]
    teams = [races.TeamSpec(part, _parse_ints(part, "team"))
             for part in text.split(":")]
    races._validate_teams(q, teams)
    return teams


def _parse_range(text):
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise DomainError("range spec is lo:hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("range ends must be finite")
    return lo, hi


def _parse_samples(text):
    bad = DomainError("samples spec is arith:start:step:count with "
                      "count >= 1, got %r" % text)
    try:
        kind, start, step, count = text.split(":")
        start, step, count = int(start), int(step), int(count)
    except ValueError:
        raise bad
    if kind != "arith" or count < 1:
        raise bad
    _check_count(count, "sample count")
    return [start + step * i for i in range(count)]


# ---------------------------------------------------------------------------

def cmd_pi(args):
    limit = _parse_limit(args.limit)
    q = 1 if args.modulus is None else _check_count(args.modulus, "--modulus")
    cks = _parse_checkpoints(args.checkpoints, limit)
    table = sieve.count_in_progressions(limit, q, cks)
    side = ({args.checkpoint_file: sieve.format_checkpoints(table)}
            if args.checkpoint_file else {})
    xs = table.xs.tolist()
    if args.modulus is not None:
        if args.format == "json":
            return _json({"modulus": args.modulus, "rows": [
                {"x": x, "counts": dict(zip(map(str, table.residues), c))}
                for x, c in zip(xs, table.counts.tolist())]}), side
        return sieve.format_checkpoints(table), side
    rows = list(zip(xs, table.column(0).tolist()))
    if args.format == "json":
        return _json({"rows": [{"x": x, "pi": c} for x, c in rows]}), side
    return "".join("%d,%d\n" % r for r in rows), side


def cmd_race(args):
    limit = _parse_limit(args.limit)
    teams = _parse_teams(args.teams, _check_count(args.modulus, "--modulus"))
    obj = {"modulus": args.modulus, "teams": [t.label for t in teams]}
    if not (args.events or args.density):
        cks = _parse_checkpoints(args.checkpoints, limit)
        table = sieve.count_in_progressions(limit, args.modulus, cks)
        counts = np.transpose([sum(table.column(r) for r in t.residues)
                               for t in teams])
        obj["rows"] = [{"x": x, "counts": dict(zip(obj["teams"], c))}
                       for x, c in zip(table.xs.tolist(), counts.tolist())]
        if args.format == "json":
            return _json(obj)
        return "".join("%d,%s\n" % (r["x"], ",".join(
            "%s:%d" % c for c in r["counts"].items())) for r in obj["rows"])
    ledger = races.run_dense_race(limit, args.modulus, teams)
    events = races.detect_lead_changes(ledger) if args.events else None
    # CSV events carry no density, so it is computed only when emitted
    if args.density and (args.format == "json" or events is None):
        kind = "logarithmic" if args.density == "log" else "natural"
        d = races.leader_density(ledger, races.strictly_ahead(0), limit, kind)
        obj["density"] = {"X": limit, "kind": kind, "value": d}
    if events is not None:
        return _events(events, args.format, obj)
    return _json(obj if args.format == "json" else obj["density"])


def cmd_zeros(args):
    table = lf.find_zeros(lf._parse_lid(args.lfunction), args.tmax)
    if args.format == "json":
        return _json({"lfunction": str(table.id),
                      "precision": lf.ZERO_PRECISION,
                      "ordinates": [round(float(g), 9)
                                    for g in table.ordinates]})
    return lf.format_zero_table(table)


def cmd_explicit(args):
    pi_li = args.target == "pi-li"
    table = lf.parse_zero_table(args.zeros, lf.ZETA if pi_li else lf.BETA4)
    lo, hi = _parse_range(args.range)
    points = _check_count(args.points, "--points")
    truncations = _parse_ints(args.truncations, "truncation list")
    if len(truncations) * points > sieve.TABLE_CELL_CAP:
        raise CapacityError("%d truncations x %d points above the cap %d"
                            % (len(truncations), points,
                               sieve.TABLE_CELL_CAP))
    grid = waves.log_grid(lo, hi, points)
    # before the sieve, so a repeated or negative truncation is refused first
    approxes = waves.wave_sums(table, grid, truncations)

    # exact counts at the integer part of every grid point, one sieve pass
    xs, at = np.unique(np.floor(grid), return_inverse=True)
    counts = sieve.count_in_progressions(int(hi), 1 if pi_li else 4, xs)
    if pi_li:
        truth = races.shanks_ratio(grid, lf.li(grid), counts.column(0)[at])
    else:
        truth = races.shanks_ratio(grid, counts.column(3)[at],
                                   counts.column(1)[at])

    columns = [("truth", truth)]
    stats = {}
    for t, approx in zip(truncations, approxes):
        columns.append(("approx_%d" % t, approx))
        stats["approx_%d" % t] = waves.compare_series(truth, approx)
    if args.format == "svg":
        text = waves.render_series_svg(
            grid, columns, title="%s, zeros from %s"
            % (args.target, os.path.basename(args.zeros)))
    elif args.format == "json":
        text = _json({
            "target": args.target,
            "x": [round(float(x), 6) for x in grid],
            "series": {name: [round(float(v), 10) for v in vals]
                       for name, vals in columns},
            "stats": stats})
    else:
        text = waves.format_series_csv(grid, columns)
    if args.stats_out:
        return text, {args.stats_out: _json(stats)}
    if args.format != "json":
        sys.stderr.write(_json(stats))
    return text


def cmd_twins(args):
    limit = _parse_limit(args.limit)
    gaps = _parse_ints(args.gaps, "gap list")
    _check_count(max(gaps), "largest gap")
    if args.race:
        events = races.detect_lead_changes(pairs.pair_race(gaps, limit),
                                           args.place)
        return _events(events, args.format, {"gaps": gaps})
    cks = _parse_checkpoints(args.checkpoints, limit)
    rows = pairs.twin_table(gaps, cks, limit)
    if args.format == "json":
        return _json({"rows": rows})
    buf = io.StringIO()
    buf.write("x,gap,raw,normalized,hl_prediction,difference\n")
    for r in rows:
        buf.write("%d,%d,%d,%.6f,%.6f,%.6f\n"
                  % (r["x"], r["gap"], r["raw"], r["normalized"],
                     r["hl_prediction"], r["difference"]))
    return buf.getvalue()


def cmd_histogram(args):
    xs = _parse_samples(args.samples)
    _check_count(args.modulus, "--modulus")
    _check_count(args.bins, "--bins")
    a, b = args.residues
    if not {a, b} <= set(sieve.coprime_residues(args.modulus)):
        raise DomainError("residues %d, %d must be classes coprime to %d"
                          % (a, b, args.modulus))
    table = sieve.count_in_progressions(xs[-1], args.modulus, xs)
    # float counts: an int64 * float64 product (numpy's buffered cast) left
    # the next sieve's peak RSS 5 MiB higher in about half the runs
    samples = races.shanks_ratio(table.xs, table.column(a).astype(float),
                                 table.column(b).astype(float))
    lo, hi = _parse_range(args.range)
    hist = races.build_histogram(samples, args.bins, lo, hi)
    if args.format == "json":
        return _json({"edges": [round(e, 12) for e in hist.bin_edges],
                      "counts": hist.counts.tolist(),
                      "total": hist.total,
                      "underflow": hist.underflow,
                      "overflow": hist.overflow})
    buf = io.StringIO()
    buf.write("# total=%d underflow=%d overflow=%d\n"
              % (hist.total, hist.underflow, hist.overflow))
    for i in range(len(hist.counts)):
        buf.write("%.6f,%.6f,%d\n" % (hist.bin_edges[i],
                                      hist.bin_edges[i + 1], hist.counts[i]))
    return buf.getvalue()


def cmd_walk(args):
    first = races.simulate_tie_walk(
        args.teams, _check_count(args.steps, "--steps"),
        _check_count(args.trials, "--trials"), args.seed)
    returned = int(np.count_nonzero(first))
    return _json({
        "teams": args.teams, "steps": args.steps, "trials": args.trials,
        "seed": args.seed,
        "returned": returned,
        "return_fraction": returned / args.trials,
        "mean_first_return": (int(first.sum()) / returned
                              if returned else None),
    })


def cmd_psi(args):
    limit = _parse_limit(args.limit)
    xs = [x for x in presets.TABLE_COLUMNS["psi"] if x <= limit] or [limit]
    primes = sieve.primes_up_to(xs[-1])
    rows = []
    for x in xs:
        v = lf.chebyshev_psi(x, primes)
        rows.append((x, round(v), round(v) - x))
    if args.format == "json":
        return _json({"rows": [{"x": x, "psi": p, "difference": d}
                               for x, p, d in rows]})
    return "".join("%d,%d,%d\n" % r for r in rows)


def cmd_sawtooth(args):
    if _check_count(args.points, "--points") < 1:
        raise DomainError("--points must be >= 1")
    _check_count(args.waves, "--waves")
    xs = [(i + 1) / (args.points + 1) for i in range(args.points)]
    vals = [waves.sawtooth_partial_sum(x, args.waves) for x in xs]
    target = [x - 0.5 for x in xs]
    if args.format == "svg":
        return waves.render_series_svg(
            xs, [("partial_sum", vals), ("target", target)],
            title="sawtooth, %d waves" % args.waves, log_x=False)
    if args.format == "json":
        return _json({"waves": args.waves,
                      "x": [round(x, 8) for x in xs],
                      "partial_sum": [round(v, 10) for v in vals],
                      "target": [round(t, 10) for t in target]})
    buf = io.StringIO()
    buf.write("x,partial_sum,target\n")
    for x, v, t in zip(xs, vals, target):
        buf.write("%.8f,%.10f,%.10f\n" % (x, v, t))
    return buf.getvalue()


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="primeraces",
                                description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, func, fmt=("csv", "json")):
        sp.set_defaults(func=func)
        sp.add_argument("--format", choices=fmt, default="csv")
        sp.add_argument("--out", help="output path (default stdout); "
                        "relative paths resolve under $PRIME_RACES_CACHE")
        sp.add_argument("-v", "--verbose", action="store_true")

    sp = sub.add_parser("pi", help="prime counts, optionally per residue")
    sp.add_argument("--limit", required=True)
    sp.add_argument("--modulus", type=int)
    sp.add_argument("--checkpoints")
    sp.add_argument("--checkpoint-file",
                    help="also save rows as a checkpoint file")
    common(sp, cmd_pi)

    sp = sub.add_parser("race", help="team races, lead changes, densities")
    sp.add_argument("--modulus", type=int, required=True)
    sp.add_argument("--teams", required=True,
                    help="colon-separated residue teams, e.g. 3:1, "
                    "or squares:nonsquares")
    sp.add_argument("--limit", required=True)
    sp.add_argument("--checkpoints")
    sp.add_argument("--events", action="store_true")
    sp.add_argument("--density", choices=["log", "natural"])
    common(sp, cmd_race)

    sp = sub.add_parser("zeros", help="critical-line zero ordinates")
    sp.add_argument("--lfunction", required=True)
    sp.add_argument("--tmax", type=float, required=True)
    common(sp, cmd_zeros)

    sp = sub.add_parser("explicit", help="wave-sum approximations vs truth")
    sp.add_argument("--zeros", required=True, help="zero-table file")
    sp.add_argument("--target", required=True, choices=["pi-li", "mod4"])
    sp.add_argument("--range", required=True, help="lo:hi in x")
    sp.add_argument("--points", type=int, default=500)
    sp.add_argument("--truncations", default="10,100")
    sp.add_argument("--stats-out", help="write error stats JSON here")
    common(sp, cmd_explicit, fmt=("csv", "json", "svg"))

    sp = sub.add_parser("twins", help="prime-pair counts and the race")
    sp.add_argument("--limit", required=True)
    sp.add_argument("--gaps", default="2,4,6,8,10")
    sp.add_argument("--checkpoints")
    sp.add_argument("--race", action="store_true",
                    help="emit dense place-change events")
    sp.add_argument("--place", choices=["first", "last"], default="first")
    common(sp, cmd_twins)

    sp = sub.add_parser("histogram", help="normalized race-gap histogram")
    sp.add_argument("--modulus", type=int, default=4)
    sp.add_argument("--residues", type=int, nargs=2, default=(3, 1))
    sp.add_argument("--samples", default="arith:1000:1000:1000")
    sp.add_argument("--bins", type=int, default=40)
    sp.add_argument("--range", default="-1:3")
    common(sp, cmd_histogram)

    sp = sub.add_parser("walk", help="tie-model lattice walk")
    sp.add_argument("--teams", type=int, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, cmd_walk, fmt=("json",))

    sp = sub.add_parser("psi", help="prime-power log sums vs x")
    sp.add_argument("--limit", required=True)
    common(sp, cmd_psi)

    sp = sub.add_parser("sawtooth", help="Fourier wave demo for x - 1/2")
    sp.add_argument("--waves", type=int, required=True)
    sp.add_argument("--points", type=int, default=200)
    common(sp, cmd_sawtooth, fmt=("csv", "json", "svg"))
    return p


def main(argv=None):
    """Run one command; write its artifact or map its error to a code.

    A command returns its artifact text, or the text and a dict of side
    files (path -> text), which are written only once the artifact is."""
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        text, side = result if isinstance(result, tuple) else (result, {})
        _emit(args.out, text)
        for path, body in side.items():
            _write(path, body)
    except (PrimeRacesError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return getattr(exc, "exit_code", 4)  # OSError: I/O, 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
