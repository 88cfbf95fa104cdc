"""The benchmark's workloads: fixed lists of CLI commands sized from a seed.

Each workload runs in one fresh process.  Its commands fall into four timed
stages (``stage1_s`` .. ``stage4_s``); commands in stage 0 count toward
``wall_s`` only.  A workload's ``aliases`` name the stage sums that the
summary prints under the names of the layer map (``pi_s``, ``explicit_s``).

Sizes are a tenth to a half of the paper-scale runs (pi(1e9), zeros to
t = 500) so that one run repeats a workload five times or more and reports
medians: on a shared 2-core machine one pass spreads by a quarter from run to
run, with slow phases lasting a few seconds.  Seed 0 gives the sizes below;
any other seed shrinks every limit by one share of at most ``SHIFT``, moves
the histogram samples by the same share of their range and reseeds the walk.
"""

import random
from dataclasses import dataclass, field

SHIFT = 0.02
STAGES = ("stage1_s", "stage2_s", "stage3_s", "stage4_s")


@dataclass(frozen=True)
class Command:
    """One timed step: a CLI argv, or a direct library call (``lib``).

    ``params`` holds the sizes the artifact checks need; ``artifacts`` are
    the files the step writes, relative to the run directory.
    """

    name: str
    stage: int
    argv: tuple
    artifacts: tuple
    params: dict = field(default_factory=dict)
    lib: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple
    warmup: tuple
    aliases: dict


def _factor(seed):
    return 1.0 if seed == 0 else 1.0 - SHIFT * random.Random(seed).random()


def _cli(name, stage, argv, params, out, stats=None):
    argv = [str(a) for a in argv] + ["--out", out]
    artifacts = [out]
    if stats:
        argv += ["--stats-out", stats]
        artifacts.append(stats)
    return Command(name, stage, tuple(argv), tuple(artifacts), params)


def count_tables(seed):
    f = _factor(seed)
    big, mod3, mod4 = round(1e8 * f), round(1e7 * f), round(1e5 * f)
    twins, psi = round(3e7 * f), round(1e6 * f)
    start = 1000 + round(5e6 * (1.0 - f))
    return (
        _cli("pi", 1, ["pi", "--limit", big], {"limit": big}, "pi.csv"),
        Command("pi_1t", 2, (), ("pi_1t.txt",), {"limit": big},
                lib="count_primes"),
        _cli("pi_mod3", 0, ["pi", "--limit", mod3, "--modulus", 3,
                            "--checkpoints", "paper:table2"],
             {"limit": mod3, "modulus": 3}, "pi_mod3.csv"),
        _cli("pi_mod4", 0, ["pi", "--limit", mod4, "--modulus", 4,
                            "--checkpoints", "paper:table1"],
             {"limit": mod4, "modulus": 4}, "pi_mod4.csv"),
        _cli("histogram", 3, ["histogram", "--samples",
                              "arith:%d:1000:5000" % start],
             {"start": start, "step": 1000, "count": 5000, "bins": 40,
              "lo": -1.0, "hi": 3.0}, "histogram.csv"),
        _cli("twins_table", 4, ["twins", "--limit", twins,
                                "--checkpoints", "paper:table9"],
             {"limit": twins, "gaps": (2, 4, 6, 8, 10)}, "twins_table.csv"),
        _cli("psi", 0, ["psi", "--limit", psi], {"limit": psi}, "psi.csv"),
    )


def zero_waves(seed):
    f = _factor(seed)
    tmax = round(180.0 * f, 3)
    hi = round(1e7 * f)
    # 1000 exceeds the zero count below t = 500, so it means "all zeros"
    common = ["--range", "10000:%d" % hi, "--points", 20000,
              "--truncations", "10,100,1000"]
    explicit = {"lo": 10000, "hi": hi, "points": 20000,
                "truncations": (10, 100, 1000)}
    return (
        _cli("zeros_zeta", 1, ["zeros", "--lfunction", "zeta", "--tmax", tmax],
             {"tmax": tmax}, "zeta.zeros"),
        _cli("zeros_beta4", 2, ["zeros", "--lfunction", "beta4",
                                "--tmax", tmax], {"tmax": tmax},
             "beta4.zeros"),
        _cli("explicit_pi_li", 3, ["explicit", "--zeros", "zeta.zeros",
                                   "--target", "pi-li"] + common,
             dict(explicit, target="pi-li", zeros="zeta.zeros"),
             "explicit_pi_li.csv", stats="explicit_pi_li.stats.json"),
        _cli("explicit_mod4", 4, ["explicit", "--zeros", "beta4.zeros",
                                  "--target", "mod4"] + common,
             dict(explicit, target="mod4", zeros="beta4.zeros"),
             "explicit_mod4.csv", stats="explicit_mod4.stats.json"),
    )


def dense_races(seed):
    f = _factor(seed)
    big, pairs = round(5e7 * f), round(2e7 * f)
    mod4 = {"limit": big, "modulus": 4, "teams": (("3", (3,)), ("1", (1,)))}
    mod7 = {"limit": big, "modulus": 7,
            "teams": (("S", (1, 2, 4)), ("N", (3, 5, 6)))}
    return (
        _cli("race_mod4_events", 1, ["race", "--modulus", 4, "--teams", "3:1",
                                     "--limit", big, "--events"], mod4,
             "race_mod4_events.csv"),
        _cli("race_mod4_density", 1, ["race", "--modulus", 4, "--teams",
                                      "3:1", "--limit", big,
                                      "--density", "log"], mod4,
             "race_mod4_density.json"),
        _cli("race_mod7_events", 2, ["race", "--modulus", 7, "--teams",
                                     "squares:nonsquares", "--limit", big,
                                     "--events"], mod7,
             "race_mod7_events.csv"),
        _cli("pair_race", 3, ["twins", "--limit", pairs, "--race"],
             {"limit": pairs, "gaps": (2, 4, 6, 8, 10)}, "pair_race.csv"),
        _cli("walk", 4, ["walk", "--teams", 3, "--steps", 100000,
                         "--trials", 200, "--seed", seed],
             {"teams": 3, "steps": 100000, "trials": 200, "seed": seed},
             "walk.json"),
    )


# name -> (command factory, warm-up argvs, printed aliases -> stages summed)
_WORKLOADS = {
    "count-tables": (count_tables,
                     (("pi", "--limit", "1000", "--out", "warmup.csv"),),
                     {"pi_s": (1,), "pi_1t_s": (2,), "histogram_s": (3,),
                      "twins_table_s": (4,)}),
    "zero-waves": (zero_waves,
                   (("zeros", "--lfunction", "zeta", "--tmax", "20",
                     "--out", "warmup.zeros"),),
                   {"zeros_zeta_s": (1,), "zeros_beta4_s": (2,),
                    "explicit_s": (3, 4)}),
    "dense-races": (dense_races,
                    (("race", "--modulus", "4", "--teams", "3:1", "--limit",
                      "1000", "--events", "--out", "warmup.csv"),),
                    {"race_dense_s": (1, 2), "pair_race_s": (3,),
                     "walk_s": (4,)}),
}

NAMES = tuple(_WORKLOADS)


def build(name, seed):
    """The workload ``name`` at ``seed``; KeyError for an unknown name."""
    make, warmup, aliases = _WORKLOADS[name]
    return Workload(name, seed, make(seed), warmup, aliases)
