"""The batched, early-stopping tie walk against a frozen copy of the
per-trial loop it replaced, and its cost bounds.

The frozen loop draws every trial's whole stream and scans it once per
lattice dimension; the package draws live trials in doubling blocks of
whole rounds and drops each at its first return.  The random configs below
put first returns on both sides of block boundaries and of the cell budget
that caps a block, which is where a blocked kernel goes wrong.
"""

import random
import time
import tracemalloc

import numpy as np

from primeraces import races


# --- frozen per-trial code ---------------------------------------------------

def old_trial_seed(seed, trial):
    return int(races.splitmix64(seed, trial, 1)[0])


def old_tie_walk(config):
    k = config.teams
    out = []
    for trial in range(config.trials):
        if config.steps == 0:
            out.append(races.WalkTrial(False, None))
            continue
        choices = races.splitmix64(old_trial_seed(config.seed, trial), 0,
                                   config.steps) % np.uint64(k)
        choices = choices.astype(np.min_scalar_type(k - 1))
        at_origin = np.ones(config.steps, dtype=bool)
        for d in range(k - 1):
            delta = (choices == d).astype(np.int32) - (choices == d + 1)
            at_origin &= np.cumsum(delta) == 0
        hits = np.flatnonzero(at_origin)
        if len(hits):
            out.append(races.WalkTrial(True, int(hits[0]) + 1))
        else:
            out.append(races.WalkTrial(False, None))
    return out


# --- differential tests ------------------------------------------------------

def _steps(rng, k, trials):
    """Steps of 0..20,000: small, random, at a block boundary (2^j - 1
    rounds drawn) or where the cell budget first caps a block."""
    doubling = k * (2 ** rng.randint(1, 12) - 1)
    capped = k * (races._WALK_CELLS // (trials * k))
    return min(20000, max(0, rng.choice([
        rng.randint(0, 3 * k), rng.randint(0, 20000),
        doubling + rng.randint(-k, k), capped + rng.randint(-k, 3 * k)])))


def _configs():
    rng = random.Random(20201)
    seeds = [lambda: -rng.randint(1, 2**70), lambda: 0,
             lambda: 2**64 + rng.randint(0, 2**64),
             lambda: rng.randint(1, 10**6)]
    out = [races.WalkConfig(200, 400, 5, 3), races.WalkConfig(200, 1, 7, 0)]
    for _ in range(160):
        k, trials = rng.randint(2, 8), rng.randint(1, 40)
        out.append(races.WalkConfig(k, _steps(rng, k, trials), trials,
                                    rng.choice(seeds)()))
    return out


def test_walk_matches_per_trial_loop():
    returned, late = 0, 0
    for cfg in _configs():
        got = races.simulate_tie_walk(cfg)
        assert got == old_tie_walk(cfg), cfg
        hits = [t.first_return_step for t in got if t.returned_to_origin]
        returned += len(hits)
        late += sum(h > 64 * cfg.teams for h in hits)
    # the configs exercise returns, including ones far past the first block
    assert returned > 500 and late > 30


def test_splitmix64_seed_array_rows_match_scalar_calls():
    seeds = races.splitmix64(-17, 3, 9)
    rows = races.splitmix64(seeds, 1000, 70)
    assert rows.shape == (9, 70)
    for seed, row in zip(seeds.tolist(), rows):
        assert np.array_equal(row, races.splitmix64(seed, 1000, 70))
    assert races.splitmix64(seeds, 5, 0).shape == (9, 0)


# --- cost bounds -------------------------------------------------------------

def test_walk_more_teams_than_steps_draws_nothing():
    start = time.perf_counter()
    trials = races.simulate_tie_walk(races.WalkConfig(10**6, 10, 1, 0))
    assert trials == [races.WalkTrial(False, None)]
    assert time.perf_counter() - start < 1.0


def test_walk_one_full_round_matches_direct_count():
    # with k == steps the only possible return is at step k, when every
    # team has been chosen once
    k, n = 4, 300
    got = races.simulate_tie_walk(races.WalkConfig(k, k, n, 8))
    want = [len(set((races.splitmix64(s, 0, k) % np.uint64(k)).tolist()))
            == k for s in races.splitmix64(8, 0, n).tolist()]
    assert 0 < sum(want) < n
    assert got == [races.WalkTrial(True, k) if w
                   else races.WalkTrial(False, None) for w in want]


def test_walk_memory_does_not_scale_with_trials_times_teams():
    # 100 trials x 20,000 teams would be 16 MB as one int64 count table
    cfg = races.WalkConfig(20000, 40000, 100, 5)
    tracemalloc.start()
    try:
        races.simulate_tie_walk(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
