"""Tests of the benchmark's own code: tracer arithmetic, the oracles and
failure accounting.  Run with ``python3 -m pytest bench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from primeraces import cli, lfunctions, pairs, sieve  # noqa: E402


def span(layer, name, start, end, parent=-1, counts=None):
    return [layer, name, start, end, parent, counts]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("cli", "main", 0.0, 10.0),
        span("sieve", "a", 1.0, 4.0, 0),
        span("sieve", "b", 3.0, 6.0, 0),     # overlaps a: union is 1..6
        span("sieve", "c", 2.0, 3.0, 1),     # grandchild: only a loses it
        span("races", "d", 9.0, 12.0, 0),   # runs past its parent: clipped
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_self_times_sum_to_root_durations():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("sieve", "inner", lambda: None)
    outer = tr.wrap("races", "outer", lambda: [inner(), inner()])
    outer()
    outer()
    assert [s[4] for s in tr.spans] == [-1, 0, 0, -1, 3, 3]
    roots = sum(s[3] - s[2] for s in tr.spans if s[4] < 0)
    assert sum(tracer.self_times(tr.spans)) == pytest.approx(roots)


def test_counts_are_taken_at_layer_boundaries():
    spans = [
        span("cli", "main", 0.0, 4.0, -1, {"out_bytes": 7}),
        span("sieve", "primes_up_to", 1.0, 3.0, 0,
             {"calls": 1, "ints": 100, "primes_out": 25}),
        span("sieve", "count_primes", 1.5, 2.0, 1, {"calls": 1, "ints": 100}),
    ]
    m = tracer.layer_metrics(spans, wall_s=4.0)
    assert m["sieve.calls"] == 1 and m["sieve.ints"] == 100
    assert m["sieve.self_s"] == pytest.approx(2.0)
    assert m["sieve.ns_per_int"] == pytest.approx(2e7)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["trace.self_s_frac"] == pytest.approx(1.0)
    assert set(m) == set(tracer.PER_LAYER) - {"trace.overhead_frac"}


def test_install_catches_calls_through_imported_names(tmp_path, monkeypatch):
    tr = tracer.Tracer()
    replaced = tracer.install(tr)
    try:
        assert pairs.li2 is lfunctions.li2 and pairs.li2.__wrapped__
        assert sieve.primes_up_to.__wrapped__
        monkeypatch.chdir(tmp_path)
        argv = ["race", "--modulus", "4", "--teams", "3:1", "--limit",
                "30000", "--events", "--out", "e.csv"]
        assert cli.main(argv) == 0
    finally:
        for mod, name, original in replaced:
            setattr(mod, name, original)
    names = ["%s.%s" % (s[0], s[1]) for s in tr.spans]
    assert names[0] == "cli.main"
    nested = names.index("sieve.primes_up_to")
    assert names[tr.spans[nested][4]] == "races.run_dense_race"
    m = tracer.layer_metrics(tr.spans, tr.spans[0][3] - tr.spans[0][2])
    events = (tmp_path / "e.csv").read_text()
    assert m["races.events"] == events.count("\n") and m["sieve.ints"] == 30000
    assert m["cli.out_bytes"] == len(events)


def test_per_layer_map_matches_benchmark_json():
    assert list(tracer.PER_LAYER) == [m["name"]
                                      for m in run.SPEC["per_layer"]]
    names = set(run.UNITS)
    assert set(workloads.STAGES) <= names and {"setup_s", "wall_s"} <= names


def test_beta4_count_is_exact_and_a_dropped_zero_fails(tmp_path,
                                                       monkeypatch):
    cmd = workloads._cli("zeros_beta4", 2, ["zeros", "--lfunction", "beta4",
                                            "--tmax", 40], {"tmax": 40},
                         "beta4.zeros")
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(cmd.argv)) == 0
    assert checks.beta4_zero_count(40) == 14
    assert checks.check_command(cmd, tmp_path, None) == []
    lines = (tmp_path / "beta4.zeros").read_text().splitlines(True)
    for drop in (1, 9):
        (tmp_path / "beta4.zeros").write_text(
            "".join(lines[:drop] + lines[drop + 1:]))
        assert checks.check_command(cmd, tmp_path, None)
    (tmp_path / "beta4.zeros").write_text("".join(lines + lines[-1:]))
    assert checks.check_command(cmd, tmp_path, None)


def test_lucy_agrees_with_the_plain_sieve():
    oracle = checks.Oracle(20000)
    for n in (10, 97, 1000, 19999):
        primes = oracle.primes(n)
        assert checks.prime_sums(n)[0] == len(primes)
        chi4 = checks.prime_sums(n, [0, 1, 0, -1])[1]
        assert chi4 == np.sum(primes % 4 == 1) - np.sum(primes % 4 == 3)
        chi7 = checks.prime_sums(n, [0, 1, 1, -1, 1, -1, -1])[1]
        res = primes % 7
        assert chi7 == np.sum(np.isin(res, (1, 2, 4))) - np.sum(
            np.isin(res, (3, 5, 6)))


def _events_command(limit):
    params = {"limit": limit, "modulus": 4,
              "teams": (("3", (3,)), ("1", (1,)))}
    return workloads._cli("race_mod4_events", 1, [
        "race", "--modulus", 4, "--teams", "3:1", "--limit", limit,
        "--events"], params, "events.csv")


def test_corrupted_artifact_counts_as_failure(tmp_path, monkeypatch):
    cmd = _events_command(30000)
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(cmd.argv)) == 0
    oracle = checks.oracle_for([cmd])
    assert checks.check_command(cmd, tmp_path, oracle) == []
    ok = run._digest(tmp_path / "events.csv")
    row = {"name": cmd.name, "seconds": 1.0, "exit": 0}
    good = (False, {"commands": [row]}, [[ok]])
    assert run.check_reps([cmd], [good, good], tmp_path) == [[[]], [[]]]

    text = (tmp_path / "events.csv").read_text()
    (tmp_path / "events.csv").write_text(text.replace("26861", "26863", 1))
    assert checks.check_command(cmd, tmp_path, oracle)
    bad = run.check_reps([cmd], [good, good], tmp_path)
    assert all(per_rep[0] for per_rep in bad)

    (tmp_path / "events.csv").write_text("garbage")
    assert checks.check_command(cmd, tmp_path, oracle)


def test_later_repetition_must_match_the_first_byte_for_byte(
        tmp_path, monkeypatch):
    cmd = _events_command(30000)
    row = {"name": cmd.name, "seconds": 1.0, "exit": 0}
    first = (False, {"commands": [row]}, [["aa"]])
    other = (False, {"commands": [row]}, [["bb"]])
    failed = (False, {"commands": [dict(row, exit=None)]}, [[None]])
    monkeypatch.setattr(checks, "check_command", lambda *a: [])
    out = run.check_reps([cmd], [first, other, failed], tmp_path)
    assert out[0] == [[]] and out[1][0] and out[2][0]


def test_seed_zero_sizes_and_seeded_shifts():
    base = {c.name: c for c in workloads.build("count-tables", 0).commands}
    assert base["pi"].argv[:3] == ("pi", "--limit", "100000000")
    assert base["histogram"].argv[2] == "arith:1000:1000:5000"
    for name in workloads.NAMES:
        a = workloads.build(name, 7)
        assert a == workloads.build(name, 7)
        for c0, c in zip(workloads.build(name, 0).commands, a.commands):
            if "limit" in c.params:
                ratio = c.params["limit"] / c0.params["limit"]
                assert 1 - workloads.SHIFT <= ratio <= 1
