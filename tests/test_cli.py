import io
import json
import shlex
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeraces import cli, sieve

from conftest import counts_by_x

GOLDEN = Path(__file__).with_name("golden")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pi_plain(capsys):
    code, out, _ = run_cli(capsys, "pi", "--limit", "100")
    assert code == 0
    assert out == "100,25\n"


def test_pi_below_minimum(capsys):
    code, _, err = run_cli(capsys, "pi", "--limit", "1")
    assert code == 2
    assert "limit" in err


def test_pi_capacity(capsys):
    code, _, _ = run_cli(capsys, "pi", "--limit", "1e11")
    assert code == 3


def test_pi_table1_preset(capsys):
    code, out, _ = run_cli(capsys, "pi", "--limit", "100000",
                           "--modulus", "4", "--checkpoints", "paper:table1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# modulus=4"
    assert lines[1] == "100,1:11,3:13"
    assert lines[-1] == "100000,1:4783,3:4808"
    assert len(lines) == 1 + 22


def test_pi_json_format(capsys):
    code, out, _ = run_cli(capsys, "pi", "--limit", "100", "--modulus", "4",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][0]["counts"] == {"1": 11, "3": 13}


def test_pi_checkpoint_file_round_trip(tmp_path, capsys):
    path = tmp_path / "t.chk"
    code, _, _ = run_cli(capsys, "pi", "--limit", "1000", "--modulus", "4",
                         "--checkpoints", "100,1000",
                         "--checkpoint-file", str(path))
    assert code == 0
    from primeraces import sieve
    rows = counts_by_x(sieve.checkpoint_load(path))
    assert rows[100] == {1: 11, 3: 13}


def test_pi_checkpoint_file_without_modulus(tmp_path, capsys):
    # q = 1: the file holds the plain counts under the residue 0
    path = tmp_path / "t.chk"
    code, out, _ = run_cli(capsys, "pi", "--limit", "1000", "--checkpoints",
                           "100,1000", "--checkpoint-file", str(path))
    assert code == 0 and out == "100,25\n1000,168\n"
    assert path.read_text() == "# modulus=1\n100,0:25\n1000,0:168\n"
    from primeraces import sieve
    table = sieve.checkpoint_load(path)
    assert [(table.modulus, x, c) for x, c in counts_by_x(table).items()] == \
        [(1, 100, {0: 25}), (1, 1000, {0: 168})]


# one point with q = 1 is a Lucy count, under the sieve's limit checks
@pytest.mark.parametrize("argv, want", [
    (["--limit", "1"], 2),
    (["--limit", "10000000001"], 3),
    (["--limit", "2e10"], 3),
    (["--limit", "10000000001", "--checkpoints", "1e6"], 3),
    (["--limit", "1e8", "--checkpoints", "2e8"], 2),
])
def test_pi_at_one_point_exit_codes(argv, want, capsys):
    code, out, err = run_cli(capsys, "pi", *argv)
    assert code == want
    assert out == "" and err.startswith("error: ")


# limits up to the 10^10 cap run with no opt-in: a Lucy count, or a table
# that sieves only to its last checkpoint
@pytest.mark.parametrize("argv, want", [
    (["--limit", "2e9"], "2000000000,98222287\n"),
    (["--limit", "2e9", "--checkpoints", "1e6"], "1000000,78498\n"),
    (["--limit", "5e9", "--modulus", "4", "--checkpoints", "1000"],
     "# modulus=4\n1000,1:80,3:87\n"),
])
def test_pi_past_1e9_runs(argv, want, capsys):
    assert run_cli(capsys, "pi", *argv) == (0, want, "")


def test_pi_at_one_point_artifacts(tmp_path, capsys):
    path = tmp_path / "t.chk"
    code, out, _ = run_cli(capsys, "pi", "--limit", "1e6",
                           "--checkpoint-file", str(path))
    assert code == 0 and out == "1000000,78498\n"
    assert path.read_text() == "# modulus=1\n1000000,0:78498\n"
    code, out, _ = run_cli(capsys, "pi", "--limit", "1e6", "--format", "json")
    assert code == 0 and out == '{"rows":[{"pi":78498,"x":1000000}]}\n'


def test_pi_at_one_point_does_not_sieve(capsys, monkeypatch):
    from primeraces import sieve

    def no_sieve(*args, **kwargs):
        raise AssertionError("a count at one point ran the sieve")
    monkeypatch.setattr(sieve, "_segments", no_sieve)
    assert sieve.count_primes(10**8) == 5761455
    assert counts_by_x(sieve.count_in_progressions(10**8, 1, [10**8])) == \
        {10**8: {0: 5761455}}
    code, out, _ = run_cli(capsys, "pi", "--limit", "1e8")
    assert code == 0 and out == "100000000,5761455\n"


def test_race_events(capsys):
    code, out, _ = run_cli(capsys, "race", "--modulus", "4", "--teams",
                           "3:1", "--limit", "30000", "--events")
    assert code == 0
    lines = out.strip().splitlines()
    first_team1 = next(l for l in lines if l.endswith(",1"))
    assert first_team1.startswith("26861,")


def test_csv_events_skip_the_density(capsys, monkeypatch):
    # CSV events carry no density, so none is computed
    def refuse(*args, **kwargs):
        raise AssertionError("density computed but not emitted")
    monkeypatch.setattr(cli.races, "leader_density", refuse)
    code, out, _ = run_cli(capsys, "race", "--modulus", "4", "--teams",
                           "3:1", "--limit", "1e6", "--events",
                           "--density", "log")
    assert code == 0
    assert out == (GOLDEN / "race_mod4_events.csv").read_text()


def test_race_overlap_usage_error(capsys):
    code, _, _ = run_cli(capsys, "race", "--modulus", "4", "--teams",
                         "3:1,3", "--limit", "1000")
    assert code == 2


def test_race_teams_checked_before_sieving(capsys, monkeypatch):
    from primeraces import sieve

    def no_sieve(*args, **kwargs):
        raise AssertionError("bad teams reached the sieve")
    monkeypatch.setattr(sieve, "_segments", no_sieve)
    code, _, err = run_cli(capsys, "race", "--modulus", "4", "--teams",
                           "2:1", "--limit", "1e9")
    assert code == 2 and "coprime" in err


def test_race_squares_teams(capsys):
    code, out, _ = run_cli(capsys, "race", "--modulus", "7", "--teams",
                           "squares:nonsquares", "--limit", "1000000",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    row = obj["rows"][-1]
    assert row["counts"]["N"] > row["counts"]["S"]


def test_race_density_json(capsys):
    code, out, _ = run_cli(capsys, "race", "--modulus", "4", "--teams",
                           "3:1", "--limit", "100000", "--density", "log")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "logarithmic"
    assert 0.8 < obj["value"] <= 1.0


def test_zeros_artifact(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "zeros", "--lfunction", "zeta",
                           "--tmax", "31")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# lfunction=zeta"
    assert len(lines) == 5
    assert lines[1].startswith("14.134725")


def test_explicit_pipeline(tmp_path, capsys):
    zeros = tmp_path / "z.zeros"
    code, out, _ = run_cli(capsys, "zeros", "--lfunction", "beta4",
                           "--tmax", "30", "--out", str(zeros))
    assert code == 0
    stats = tmp_path / "stats.json"
    csv_out = tmp_path / "series.csv"
    code, out, err = run_cli(capsys, "explicit", "--zeros", str(zeros),
                             "--target", "mod4", "--range", "1e4:1e5",
                             "--points", "40", "--truncations", "2,5",
                             "--out", str(csv_out), "--stats-out", str(stats))
    assert code == 0
    header = csv_out.read_text().splitlines()[0]
    assert header == "x,truth,approx_2,approx_5"
    st = json.loads(stats.read_text())
    assert set(st) == {"approx_2", "approx_5"}
    assert all(0 <= v["sign_agreement"] <= 1 for v in st.values())


def test_explicit_missing_zeros(capsys):
    code, _, _ = run_cli(capsys, "explicit", "--zeros", "/no/such/file",
                         "--target", "mod4", "--range", "1e4:1e5")
    assert code == 4


def test_explicit_svg(tmp_path, capsys):
    zeros = tmp_path / "z.zeros"
    run_cli(capsys, "zeros", "--lfunction", "zeta", "--tmax", "31",
            "--out", str(zeros))
    code, out, _ = run_cli(capsys, "explicit", "--zeros", str(zeros),
                           "--target", "pi-li", "--range", "1e4:1e5",
                           "--points", "30", "--truncations", "4",
                           "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ") and "polyline" in out


def test_twins_csv(capsys):
    code, out, _ = run_cli(capsys, "twins", "--limit", "1000000",
                           "--gaps", "2,4,6,8,10",
                           "--checkpoints", "1000,1000000")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,gap,raw,normalized,hl_prediction,difference"
    cells = {tuple(l.split(",")[:3]) for l in lines[1:]}
    assert ("1000000", "6", "16386") in cells
    assert ("1000", "2", "35") in cells


def test_pi_geometric_checkpoints(capsys):
    code, out, _ = run_cli(capsys, "pi", "--limit", "10000",
                           "--checkpoints", "geometric:100:10000:3")
    assert code == 0
    assert out == "100,25\n1000,168\n10000,1229\n"


def test_twins_last_place_race(capsys):
    code, out, _ = run_cli(capsys, "twins", "--limit", "100000",
                           "--gaps", "2,4,8", "--race", "--place", "last")
    assert code == 0
    assert len(out.strip().splitlines()) > 0


def test_explicit_json_format(tmp_path, capsys):
    zeros = tmp_path / "z.zeros"
    run_cli(capsys, "zeros", "--lfunction", "zeta", "--tmax", "31",
            "--out", str(zeros))
    code, out, _ = run_cli(capsys, "explicit", "--zeros", str(zeros),
                           "--target", "pi-li", "--range", "1e4:1e5",
                           "--points", "20", "--truncations", "4",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj["series"]) == {"truth", "approx_4"}
    assert len(obj["x"]) == 20
    assert "rms" in obj["stats"]["approx_4"]


def test_zeros_json_format(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--lfunction", "beta4",
                           "--tmax", "11", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lfunction"] == "beta4"
    assert obj["ordinates"][0] == pytest.approx(6.0209489, abs=1e-4)


def test_histogram_json(capsys):
    code, out, _ = run_cli(capsys, "histogram", "--modulus", "4",
                           "--samples", "arith:1000:1000:200",
                           "--bins", "20", "--range=-1:3",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total"] == 200
    assert sum(obj["counts"]) + obj["underflow"] + obj["overflow"] == 200


def test_walk_deterministic_artifact(capsys):
    args = ("walk", "--teams", "3", "--steps", "20000", "--trials", "40",
            "--seed", "7", "--format", "json")
    code, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["returned"] <= 40 and obj["seed"] == 7


def test_walk_more_teams_than_steps_is_fast(capsys):
    # --teams is uncapped: a walk costs O(trials x steps) whatever k
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "walk", "--teams", "10000000", "--steps",
                           "10", "--trials", "1")
    assert code == 0 and time.perf_counter() - start < 1.0
    obj = json.loads(out)
    assert (obj["returned"], obj["mean_first_return"]) == (0, None)


def test_psi_row(capsys):
    code, out, _ = run_cli(capsys, "psi", "--limit", "100")
    assert code == 0
    assert out == "100,94,-6\n"


def test_sawtooth_csv(capsys):
    code, out, _ = run_cli(capsys, "sawtooth", "--waves", "50",
                           "--points", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,partial_sum,target"
    assert len(lines) == 11


def test_cache_env_resolves_relative_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PRIME_RACES_CACHE", str(tmp_path / "cache"))
    code, out, _ = run_cli(capsys, "pi", "--limit", "100",
                           "--out", "pi.csv")
    assert code == 0
    assert (tmp_path / "cache" / "pi.csv").read_text() == "100,25\n"


def test_readme_cli_examples_parse(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].replace("\\\n", " ").splitlines()
    examples = [shlex.split(line, comments=True)[1:] for line in lines
                if line.startswith("primeraces ")]
    assert examples
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail("README example does not parse: primeraces %s\n%s"
                        % (" ".join(argv), capsys.readouterr().err))


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "primeraces.cli",
                           "pi", "--limit", "100"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "100,25\n"


def test_usage_exit_code_for_bad_flags():
    proc = subprocess.run([sys.executable, "-m", "primeraces.cli",
                           "pi", "--nope"], capture_output=True, text=True)
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# bad input: a usage error (exit 2), never a traceback

ZEROS = str(GOLDEN / "zeros_zeta.zeros")
EXPLICIT = ["explicit", "--zeros", ZEROS, "--target", "pi-li",
            "--range", "1e3:1e4", "--points", "5"]


@pytest.mark.parametrize("argv", [
    ["pi", "--limit", "inf"],
    ["race", "--modulus", "4", "--teams", "3:x", "--limit", "1000"],
    ["twins", "--limit", "1000", "--gaps", "x"],
    EXPLICIT + ["--truncations", "abc"],
    EXPLICIT + ["--truncations", "-1"],
    EXPLICIT + ["--truncations", "10,10"],
    EXPLICIT + ["--truncations", "10,10", "--format", "json"],
    ["histogram", "--samples", "arith:1:1:0"],
    ["histogram", "--samples", "arith:x:1:5"],
    ["histogram", "--residues", "3", "2"],
    ["histogram", "--range=-inf:3"],
    ["zeros", "--lfunction", "zeta", "--tmax", "nan"],
    ["pi", "--limit", "100", "--checkpoints", "geometric:0:10:3"],
    ["pi", "--limit", "100", "--modulus", "0"],
    ["sawtooth", "--waves", "3", "--points", "0"],
    ["sawtooth", "--waves", "3", "--points", "0", "--format", "svg"],
    ["zeros", "--lfunction", "foo", "--tmax", "10"],
    ["zeros", "--lfunction", "quadratic:9", "--tmax", "10"],
    ["zeros", "--lfunction", "quadratic:9", "--tmax", "0"],
    ["twins", "--limit", "10", "--gaps", "2,2"],
    ["twins", "--limit", "1000", "--checkpoints", "1000,100"],
    ["twins", "--limit", "0", "--checkpoints", "10"],
])
def test_bad_input_is_usage_error(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


# one past the count cap: refused (exit 3) before the grid is built
@pytest.mark.parametrize("argv", [
    ["pi", "--limit", "1e6", "--checkpoints", "geometric:10:1e6:100001"],
    ["histogram", "--samples", "arith:1000:1000:100001"],
    EXPLICIT[:-1] + ["100001"],
    ["sawtooth", "--waves", "3", "--points", "100001"],
    ["sawtooth", "--waves", "100001", "--points", "5"],
    ["walk", "--teams", "3", "--steps", "100001", "--trials", "1"],
    ["walk", "--teams", "3", "--steps", "1", "--trials", "100001"],
    ["pi", "--limit", "1000", "--modulus", "100001"],
    ["race", "--modulus", "100001", "--teams", "1:3", "--limit", "1000"],
    ["histogram", "--modulus", "100001"],
    ["twins", "--limit", "1000", "--gaps", "2,100002"],
    ["histogram", "--bins", "100001"],
])
def test_oversized_count_is_capacity_error(argv, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == "" and "above the cap 100000" in err


GAPS_101 = ",".join(str(g) for g in range(2, 204, 2))


# a 100,000 x 99,990 count table (74.5 GiB), and 101 pair gaps: refused
# before any table or mask is allocated
@pytest.mark.parametrize("argv", [
    ["histogram", "--samples", "arith:2:1:100000", "--modulus", "99991",
     "--residues", "1", "2"],
    ["twins", "--limit", "1e6", "--gaps", GAPS_101, "--checkpoints", "1000"],
    ["twins", "--limit", "1e6", "--gaps", GAPS_101, "--race"],
])
def test_oversized_table_or_gap_set_is_capacity_error(argv, tmp_path,
                                                      capsys):
    out = tmp_path / "out.csv"
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and "above the cap" in err and "Traceback" not in err
    assert not out.exists()


def test_truncation_list_over_the_cell_cap_is_refused_first(monkeypatch,
                                                           capsys):
    # 101 truncations x 100,000 points: 1.01 x 10^7 wave-sum cells, refused
    # before the grid, a sine or the sieve
    def refuse(*args, **kwargs):
        raise AssertionError("ran past the cap")

    monkeypatch.setattr(cli.waves, "log_grid", refuse)
    monkeypatch.setattr(cli.waves, "wave_sums", refuse)
    monkeypatch.setattr(cli.sieve, "count_in_progressions", refuse)
    many = ",".join(str(t) for t in range(101))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *EXPLICIT[:-1], "100000",
                                 "--truncations", many)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert "101 truncations x 100000 points above the cap" in err
    assert peak < 10**6


def test_tables_sieve_only_to_their_last_checkpoint(monkeypatch, capsys):
    asked = []
    segments = sieve._segments

    def recording(limit, extra=0):
        asked.append(limit + extra)
        return segments(limit, extra)

    monkeypatch.setattr(sieve, "_segments", recording)
    # the default gaps reach 10 past the last checkpoint
    code, out, _ = run_cli(capsys, "twins", "--limit", "1e6",
                           "--checkpoints", "1000")
    assert code == 0 and out.splitlines()[1].startswith("1000,2,35,")
    assert asked and max(asked) <= 1010
    asked.clear()
    code, out, _ = run_cli(capsys, "pi", "--limit", "1e6", "--modulus", "4",
                           "--checkpoints", "1000")
    assert code == 0 and out.endswith("1000,1:80,3:87\n")
    assert asked and max(asked) <= 1000


def test_count_at_the_cap_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "pi", "--limit", "1e6", "--checkpoints",
                           "geometric:10:1e6:100000")
    assert code == 0 and out.endswith("1000000,78498\n")


@pytest.mark.parametrize("target", ["pi-li", "mod4"])
def test_explicit_from_x_two(target, capsys):
    zeros = ZEROS if target == "pi-li" else str(GOLDEN / "zeros_beta4.zeros")
    code, out, _ = run_cli(capsys, "explicit", "--zeros", zeros, "--target",
                           target, "--range", "2:100", "--points", "5")
    assert code == 0
    assert out.splitlines()[1].startswith("2,")


# each target sums the waves of its own L-function; a table without a
# header is taken as given
def test_explicit_checks_the_zero_table_against_the_target(tmp_path, capsys):
    bare = tmp_path / "bare.zeros"
    text = (GOLDEN / "zeros_zeta.zeros").read_text()
    bare.write_text(text.split("\n", 1)[1])
    for zeros, target, want in [
            (ZEROS, "mod4", 4),
            (str(GOLDEN / "zeros_beta4.zeros"), "pi-li", 4),
            (str(bare), "mod4", 0), (str(bare), "pi-li", 0)]:
        code, out, err = run_cli(capsys, "explicit", "--zeros", zeros,
                                 "--target", target, "--range", "1e3:1e4",
                                 "--points", "5")
        assert code == want, (zeros, target)
        if want:
            assert out == "" and "expected" in err


# a modulus whose one period is above the term cap is refused before any
# primality test, from the command line (exit 3) or a file header (exit 4)
def test_huge_quadratic_modulus_exits_at_once(tmp_path, capsys):
    huge = "quadratic:2305843009213693951"
    zeros = tmp_path / "huge.zeros"
    zeros.write_text("# lfunction=%s\n1.5\n" % huge)
    for argv, want in [
            (["zeros", "--lfunction", huge, "--tmax", "1"], 3),
            (["explicit", "--zeros", str(zeros), "--target", "mod4",
              "--range", "1e3:1e4", "--points", "5"], 4)]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == want and out == "" and err.startswith("error: ")


def test_zeros_of_a_quadratic_character(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--lfunction", "quadratic:163",
                           "--tmax", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["lfunction"] == "quadratic:163" and obj["precision"] == 1e-9
    assert obj["ordinates"] == [pytest.approx(0.20290134, abs=1e-8)]


def test_histogram_samples_from_x_two(capsys):
    code, out, _ = run_cli(capsys, "histogram", "--samples", "arith:2:1:50")
    assert code == 0 and out.startswith("# total=50 ")


@pytest.mark.parametrize("argv", [
    ["pi", "--limit", "1e3"],
    ["race", "--modulus", "4", "--teams", "3:1", "--limit", "1e3"],
    ["zeros", "--lfunction", "zeta", "--tmax", "10"],
    EXPLICIT,
    ["twins", "--limit", "1e3"],
    ["histogram"],
    ["walk", "--teams", "3", "--steps", "10", "--trials", "1"],
    ["psi", "--limit", "1e3"],
    ["sawtooth", "--waves", "3"],
])
def test_no_opt_in_flag_for_long_runs(argv, capsys):
    # argparse expands a unique prefix, so this is refused only while no
    # option of the subcommand starts with it, the retired opt-in included
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--allow"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow\n" in capsys.readouterr().err


def test_empty_checkpoint_list_is_usage_error(tmp_path, capsys):
    path = tmp_path / "rows.chk"
    code, out, _ = run_cli(capsys, "pi", "--modulus", "4", "--limit", "1e3",
                           "--checkpoints", "geometric:1e7:1e8:5",
                           "--checkpoint-file", str(path))
    assert code == 2
    assert out == "" and not path.exists()


_TEXT = st.text(alphabet="0123456789-.,:x", max_size=4) | st.sampled_from(
    ["", "inf", "-inf", "nan", "1e3", "1e11", "3.5", "0", "-1", "2"])


@given(shape=st.sampled_from([
    lambda v: ["pi", "--limit", v],
    lambda v: ["pi", "--limit", "1000", "--modulus", "4",
               "--checkpoints", v],
    lambda v: ["pi", "--limit", "1000", "--checkpoints",
               "geometric:%s:1e3:5" % v],
    lambda v: ["race", "--modulus", "4", "--teams", v, "--limit", "1000"],
    lambda v: ["twins", "--limit", "1000", "--gaps", v],
    lambda v: EXPLICIT + ["--truncations", v],
    lambda v: ["histogram", "--samples", "arith:%s:7:20" % v],
    lambda v: ["histogram", "--samples", "arith:100:%s:20" % v],
    lambda v: ["histogram", "--samples", "arith:100:7:%s" % v],
    lambda v: ["histogram", "--residues", v, "1"],
    lambda v: ["histogram", "--range", "-1:%s" % v],
    lambda v: ["zeros", "--lfunction", "zeta", "--tmax", v[:2]],
]), value=_TEXT)
@settings(max_examples=150, deadline=None)
def test_fuzz_exit_codes_without_traceback(shape, value):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(shape(value))
        except SystemExit as exc:  # argparse rejects the flag itself
            code = exc.code
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# one error path: each error's exit code, empty stdout, stderr "error: ..."

def test_malformed_zeros_file_is_parse_error(tmp_path, capsys):
    zeros = tmp_path / "bad.zeros"
    zeros.write_text("# lfunction=zeta\n14.134725142\n21.0x\n")
    code, out, err = run_cli(capsys, *(["explicit", "--zeros", str(zeros)]
                                       + EXPLICIT[3:]))
    assert code == 4
    assert out == "" and err.startswith("error: ") and "line 3:" in err


@pytest.mark.parametrize("ordinate", ["nan", "inf", "1e400"])
def test_non_finite_ordinate_is_parse_error(ordinate, tmp_path, capsys):
    # read as a zero, it would turn every approx column into NaN and the
    # stats file into invalid JSON
    zeros = tmp_path / "bad.zeros"
    zeros.write_text("# lfunction=zeta\n14.134725142\n%s\n" % ordinate)
    out, stats = tmp_path / "out.csv", tmp_path / "stats.json"
    code, stdout, err = run_cli(capsys, "explicit", "--zeros", str(zeros),
                                *EXPLICIT[3:], "--out", str(out),
                                "--stats-out", str(stats))
    assert code == 4
    assert stdout == "" and err.startswith("error: ") and "line 3:" in err
    assert not out.exists() and not stats.exists()


@pytest.mark.parametrize("argv, message", [
    (["--teams", "1", "--steps", "10", "--trials", "5"],
     "need at least two teams (walk dimension >= 1)"),
    (["--teams", "-2", "--steps", "10", "--trials", "5"],
     "need at least two teams (walk dimension >= 1)"),
    (["--teams", "3", "--steps", "-1", "--trials", "5"],
     "steps must be >= 0 and trials >= 1"),
    (["--teams", "3", "--steps", "10", "--trials", "0"],
     "steps must be >= 0 and trials >= 1"),
])
def test_walk_domain_errors(argv, message, capsys):
    code, out, err = run_cli(capsys, "walk", *argv)
    assert code == 2
    assert out == "" and err == "error: %s\n" % message


def test_out_into_missing_directory_is_io_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "pi", "--limit", "100", "--out",
                             str(tmp_path / "no" / "such" / "pi.csv"))
    assert code == 4
    assert out == "" and err.startswith("error: ")


def test_failed_out_leaves_no_checkpoint_file(tmp_path, capsys):
    chk = tmp_path / "a.chk"
    code, _, err = run_cli(capsys, "pi", "--limit", "1000", "--modulus", "4",
                           "--checkpoints", "100,1000",
                           "--checkpoint-file", str(chk),
                           "--out", str(tmp_path / "no" / "such" / "x.csv"))
    assert code == 4 and err.startswith("error: ")
    assert not chk.exists()


def test_failed_out_leaves_no_stats_file(tmp_path, capsys):
    stats = tmp_path / "stats.json"
    code, _, err = run_cli(capsys, "explicit", "--zeros",
                           str(GOLDEN / "zeros_zeta.zeros"),
                           "--target", "pi-li", "--range", "1e4:1e5",
                           "--points", "20", "--stats-out", str(stats),
                           "--out", str(tmp_path / "no" / "such" / "x.csv"))
    assert code == 4 and err.startswith("error: ")
    assert not stats.exists()


def test_import_loads_no_scipy():
    code = ("import sys, primeraces.cli; "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_convergence_error_exits_five(capsys, monkeypatch):
    from primeraces.errors import ConvergenceError

    def stuck(*args, **kwargs):
        raise ConvergenceError("bracket did not shrink")
    monkeypatch.setattr(cli.lf, "find_zeros", stuck)
    code, out, err = run_cli(capsys, "zeros", "--lfunction", "zeta",
                             "--tmax", "30")
    assert code == 5
    assert out == "" and err == "error: bracket did not shrink\n"
