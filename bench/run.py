"""Benchmark runner for the primeraces CLI.

One run:

    python3 bench/run.py --workload count-tables --seed 0 --seconds 30 \
        --trace 0

repeats the workload (each repetition in a fresh process that imports the
package from ``src/``) until ``--seconds`` have passed, at least five
times, checks every artifact, and prints a summary followed by one JSON line
with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or the
per-layer metrics (``--trace 1``).  Times are medians over the repetitions;
``setup_s`` is the median over the repetitions and over set-up-only
processes started between them.

Steadiness mode:

    python3 bench/run.py --steady 10 [--baseline-out F]

runs each workload at seeds 1..N and prints each end-to-end metric's median
and quartiles against its bound in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 5
SETUP_SAMPLES = 11
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
DEADLINE_S = 170.0
CHECK_RESERVE_S = 30.0


def _env(rep_dir):
    env = dict(os.environ)
    env.pop("PRIME_RACES_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["TMPDIR"] = str(rep_dir)
    return env


def run_rep(workload, rep_dir, commands, trace, timeout):
    """One fresh process: returns setup time, command rows and peak RSS.

    A process that hangs past ``timeout`` or dies is killed; its commands
    then read as failed (exit ``None``)."""
    rep_dir.mkdir(parents=True)
    spec = {"dir": str(rep_dir), "warmup": workload.warmup,
            "trace": bool(trace), "result": str(rep_dir / "result.json"),
            "commands": [{"name": c.name, "argv": c.argv, "lib": c.lib,
                          "params": c.params, "artifacts": c.artifacts}
                         for c in commands]}
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                             str(spec_path)], cwd=rep_dir, env=_env(rep_dir),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    failed = {"setup_s": None, "peak_rss_kib": None, "spans": None,
              "commands": [{"name": c.name, "seconds": 0.0, "exit": None}
                           for c in commands]}
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout) or proc.stdout.readline() != "ready\n":
                return failed
        setup = time.perf_counter() - start
        proc.stdin.write("go\n")
        proc.stdin.close()
        proc.wait(timeout=max(1.0, timeout - setup))
    except (subprocess.TimeoutExpired, BrokenPipeError):
        return failed
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        return failed
    result = json.loads((rep_dir / "result.json").read_text())
    result.setdefault("spans", None)
    result["setup_s"] = setup
    return result


def _digest(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


def _workers_note(commands):
    """The CLI's default --workers is os.cpu_count(); where that exceeds the
    CPUs this process may use, pass the usable count instead."""
    default, nproc = os.cpu_count() or 1, len(os.sched_getaffinity(0))
    note = "cli default workers %d (os.cpu_count), nproc %d" % (default, nproc)
    if default <= nproc:
        return commands, note
    fixed = tuple(c if c.lib else workloads.Command(
        c.name, c.stage, c.argv + ("--workers", str(nproc)), c.artifacts,
        c.params) for c in commands)
    return fixed, note + "; passing --workers %d" % nproc


def _more(done, elapsed, last, seconds, trace):
    """Whether to start another repetition: at least MIN_REPS (traced runs:
    whole untraced/traced pairs, at least one), while time is left."""
    if done and elapsed + last > DEADLINE_S - CHECK_RESERVE_S:
        return False
    if trace:
        return done % 2 == 1 or done == 0 or elapsed + 2 * last <= seconds
    return done < MIN_REPS or elapsed + last <= seconds


def run(name, seed, seconds, trace):
    wl = workloads.build(name, seed)
    commands, note = _workers_note(wl.commands)
    base = ROOT / ".bench_run" / ("%s-%d-%d" % (name, seed, os.getpid()))
    began = time.perf_counter()
    reps = []        # (traced, result, artifact digests)
    setups = []
    last = 0.0
    try:
        while _more(len(reps), time.perf_counter() - began, last, seconds,
                    trace):
            traced = bool(trace) and len(reps) % 2 == 1
            rep_dir = base / ("rep%d" % len(reps))
            t0 = time.perf_counter()
            result = run_rep(wl, rep_dir, commands, traced,
                             DEADLINE_S - CHECK_RESERVE_S - (t0 - began))
            last = time.perf_counter() - t0
            digests = [[_digest(rep_dir / a) for a in c.artifacts]
                       for c in commands]
            if result["spans"]:
                result["layers"] = layer_summary(result, base, name, seed)
            reps.append((traced, result, digests))
            if len(reps) > 1:
                shutil.rmtree(rep_dir)
            if not traced and result["setup_s"]:
                setups.append(result["setup_s"])
            if not trace and len(setups) < SETUP_SAMPLES:
                setups += take_setups(wl, base, len(reps), 1, began)
        if not trace:
            setups += take_setups(wl, base, 0, SETUP_SAMPLES - len(setups),
                                  began)
        problems = check_reps(commands, reps, base / "rep0")
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return report(wl, commands, reps, setups, problems, trace, note)


def take_setups(wl, base, tag, count, began):
    """Set-up times of up to ``count`` processes that set up and run no
    command, while the deadline allows."""
    out = []
    for k in range(count):
        if time.perf_counter() - began > DEADLINE_S - CHECK_RESERVE_S:
            break
        extra = run_rep(wl, base / ("setup%d-%d" % (tag, k)), (), False, 60.0)
        if extra["setup_s"]:
            out.append(extra["setup_s"])
    return out


def layer_summary(result, base, name, seed):
    """Per-layer metrics of one traced repetition; its spans are kept in
    .bench_run/ for inspection."""
    spans = [json.loads(line) for line in
             Path(result["spans"]).read_text().splitlines()]
    keep = base.parent / ("trace-%s-%d.jsonl" % (name, seed))
    shutil.copyfile(result["spans"], keep)
    wall = sum(c["seconds"] for c in result["commands"])
    return tracer.layer_metrics(spans, wall)


def check_reps(commands, reps, first_dir):
    """Problems per repetition and command.  The first repetition's
    artifacts are checked against the oracles; later ones must match them
    byte for byte."""
    oracle = checks.oracle_for(commands)
    first = []
    for cmd, row in zip(commands, reps[0][1]["commands"]):
        if row["exit"] != 0:
            first.append(["exit %r" % (row["exit"],)])
        else:
            first.append(checks.check_command(cmd, first_dir, oracle))
    out = [first]
    for _, result, digests in reps[1:]:
        out.append([
            ["exit %r" % (row["exit"],)] if row["exit"] != 0 else
            ["artifact differs from the first repetition"]
            if dig != reps[0][2][i] else first[i]
            for i, (row, dig) in enumerate(zip(result["commands"], digests))])
    return out


def report(wl, commands, reps, setups, problems, trace, note):
    attempted = sum(len(p) for p in problems)
    failed = sum(1 for per_rep in problems for p in per_rep if p)
    for k, per_rep in enumerate(problems):
        for cmd, probs in zip(commands, per_rep):
            for p in probs:
                print("FAIL rep%d %s: %s" % (k, cmd.name, p), file=sys.stderr)
    plain = [r for traced, r, _ in reps if not traced]
    walls = [sum(c["seconds"] for c in r["commands"]) for r in plain]
    stage = {}
    for i, metric in enumerate(workloads.STAGES, start=1):
        stage[metric] = _median([sum(c["seconds"] for cmd, c in
                                     zip(commands, r["commands"])
                                     if cmd.stage == i) for r in plain])
    print("workload %s seed %d: %d repetitions (%d traced), %d set-ups; %s"
          % (wl.name, wl.seed, len(reps), len(reps) - len(plain),
             len(setups), note))
    if trace:
        traced = [r for t, r, _ in reps if t]
        layer = {}
        for key in tracer.PER_LAYER:
            if key != "trace.overhead_frac":
                layer[key] = _median([r["layers"][key] for r in traced
                                      if r.get("layers")])
        traced_wall = _median([sum(c["seconds"] for c in r["commands"])
                               for r in traced])
        layer["trace.overhead_frac"] = (traced_wall / _median(walls) - 1
                                        if walls and traced_wall else 0.0)
        metrics = {k: (v, UNITS[k]) for k, v in layer.items()}
    else:
        values = {
            "setup_s": _median(setups),
            "wall_s": _median(walls),
            "peak_rss_mib": _median([r["peak_rss_kib"] / 1024 for r in plain
                                     if r["peak_rss_kib"]]),
        }
        values.update(stage)
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}
    for key, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (key, value, unit))
    if not trace:
        for alias, stages in wl.aliases.items():
            print("  %-36s %14.6g s  (= %s)" % (
                alias, sum(stage[workloads.STAGES[s - 1]] for s in stages),
                " + ".join(workloads.STAGES[s - 1] for s in stages)))
    print("  %-36s %14.6g     (%d of %d commands failed)" % (
        "error_rate", failed / attempted if attempted else 1.0, failed,
        attempted))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def steady(runs, seconds, baseline_out):
    """Run every workload at seeds 1..runs and compare the spread of each
    end-to-end metric with its bound."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seconds = seconds or SPEC["run_seconds"]
    summary = {}
    for name in workloads.NAMES:
        values = {}
        for seed in range(1, runs + 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=300)
            last = json.loads(out.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print("%s seed %d: %d of %d commands failed" % (
                    name, seed, last["failed"], last["attempted"]))
            for key, m in last["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        summary[name] = {}
        print("%s: %d runs, seeds 1..%d" % (name, runs, runs))
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(key)
            verdict = ("steady" if spread < bound / 3 else "within bound"
                       if spread <= bound else "TOO WIDE")
            print("  %-14s median %10.5g  q1 %10.5g  q3 %10.5g  spread "
                  "%6.3f  bound %5.2f  %s" % (key, med, q1, q3, spread,
                                             bound, verdict))
            summary[name][key] = {"runs": runs, "median": med, "q1": q1,
                                  "q3": q3, "spread": spread, "values": vals}
    if baseline_out:
        Path(baseline_out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    ap.add_argument("--baseline-out")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "primeraces" / "__init__.py").is_file():
        print("error: no primeraces package under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    if args.steady:
        return steady(args.steady, args.seconds, args.baseline_out)
    if not args.workload or args.seconds is None:
        ap.error("--workload and --seconds are required")
    return run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
