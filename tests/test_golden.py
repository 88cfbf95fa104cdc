"""Golden CLI artifacts: every case runs one command through ``cli.main`` at
desk size, with and without ``-v``, and compares each file it writes, byte
for byte, with the copy in ``tests/golden/``.

After a deliberate change of output, regenerate the copies with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import os
import shlex
import sys
from pathlib import Path

import pytest

from primeraces import cli, sieve

GOLDEN = Path(__file__).with_name("golden")
EXPLICIT = ("explicit --range 1e4:1e6 --points 2000 --truncations 10,100,1000 "
            "--zeros " + shlex.quote(str(GOLDEN / "zeros_%s_180.zeros")))

# (artifact written with --out, command, other files the command writes)
CASES = [
    ("pi_plain.csv", "pi --limit 1e6", ()),
    ("pi_mod4_table1.csv", "pi --limit 1e5 --modulus 4 --checkpoints "
     "paper:table1 --checkpoint-file pi_mod4_table1.chk",
     ("pi_mod4_table1.chk",)),
    ("pi_mod3_table2.json", "pi --limit 1e6 --modulus 3 --checkpoints "
     "paper:table2 --format json", ()),
    ("pi_geometric.csv", "pi --limit 1e6 --checkpoints geometric:10:1e6:50",
     ()),
    ("race_rows.csv", "race --modulus 4 --teams 3:1 --limit 1e6 "
     "--checkpoints paper:table2", ()),
    ("race_mod4_events.csv", "race --modulus 4 --teams 3:1 --limit 1e6 "
     "--events", ()),
    ("race_mod7_events.csv", "race --modulus 7 --teams squares:nonsquares "
     "--limit 1e6 --events", ()),
    ("race_mod10_events.csv", "race --modulus 10 --teams 1:3:7:9 "
     "--limit 1e6 --events", ()),
    ("race_events_density.json", "race --modulus 4 --teams 3:1 --limit 1e6 "
     "--events --density natural --format json", ()),
    ("race_density_log.json", "race --modulus 4 --teams 3:1 --limit 1e6 "
     "--density log", ()),
    ("race_density_natural.json", "race --modulus 4 --teams 3:1 --limit 1e6 "
     "--density natural --format json", ()),
    ("twins_table9.csv", "twins --limit 1e6 --checkpoints paper:table9", ()),
    ("twins_race.csv", "twins --limit 1e6 --race", ()),
    ("twins_race_last.json", "twins --limit 1e5 --race --place last "
     "--format json", ()),
    ("histogram.csv", "histogram", ()),
    ("psi.csv", "psi --limit 1e6", ()),
    ("zeros_zeta.zeros", "zeros --lfunction zeta --tmax 60", ()),
    ("zeros_beta4.zeros", "zeros --lfunction beta4 --tmax 60", ()),
    ("zeros_zeta_180.zeros", "zeros --lfunction zeta --tmax 180", ()),
    ("zeros_beta4_180.zeros", "zeros --lfunction beta4 --tmax 180", ()),
    ("zeros_quadratic_163.zeros", "zeros --lfunction quadratic:163 --tmax 5",
     ()),
    ("walk.json", "walk --teams 3 --steps 10000 --trials 50 --seed 7", ()),
    ("explicit_pi_li.csv", EXPLICIT % "zeta" + " --target pi-li "
     "--stats-out explicit_pi_li.stats.json", ("explicit_pi_li.stats.json",)),
    ("explicit_mod4.json", EXPLICIT % "beta4" + " --target mod4 "
     "--format json", ()),
    ("sawtooth.svg", "sawtooth --waves 20 --format svg", ()),
]


def _run(out, command):
    """Run one case in the current directory, where it writes its files."""
    return cli.main(shlex.split(command) + ["--out", out])


def _check(out, command, extra, tmp_path, monkeypatch):
    monkeypatch.delenv("PRIME_RACES_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    assert _run(out, command) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted((out,) + extra)
    for name in names:
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("out,command,extra", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_artifact(out, command, extra, tmp_path, monkeypatch):
    _check(out, command, extra, tmp_path, monkeypatch)


# -v may report on stderr, never change an artifact
@pytest.mark.parametrize("out,command,extra", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_artifact_verbose(out, command, extra, tmp_path, monkeypatch):
    _check(out, command + " -v", extra, tmp_path, monkeypatch)


EXPLICIT_CASES = [c for c in CASES if c[1].startswith("explicit ")]


# explicit counts at its grid points without listing the primes
@pytest.mark.parametrize("out,command,extra", EXPLICIT_CASES,
                         ids=[c[0] for c in EXPLICIT_CASES])
def test_golden_explicit_lists_no_primes(out, command, extra, tmp_path,
                                         monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("explicit listed the primes")
    monkeypatch.setattr(sieve, "primes_up_to", refuse)
    monkeypatch.setattr(sieve, "iter_prime_blocks", refuse)
    _check(out, command, extra, tmp_path, monkeypatch)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)
    for out, command, _ in CASES:
        if _run(out, command) != 0:
            sys.exit("%s failed" % command)
