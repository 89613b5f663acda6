import itertools
import json
import math
import os
import tracemalloc
from bisect import bisect_left
from functools import partial
from itertools import accumulate

import numpy as np
import pytest

from spatialmoran import (
    AbsorbingStart,
    Configuration,
    InitialDistribution,
    Outcome,
    OutOfRange,
    TrajectoryConfig,
    build_model,
    complete_graph_weights,
    estimate_fixation,
    flip_masses,
    fixation_for_initial,
    galanis_model,
    moran_rho,
    random_strongly_connected_weights,
    simulate_trajectory,
    two_vertex_weights,
    validate_weight_matrix,
)
from spatialmoran import montecarlo
from spatialmoran.modelio import load_model
from spatialmoran.montecarlo import (
    BLOCK_TRIALS,
    LOCKSTEP_MIN_TRIALS,
    TABLE_MAX_VERTICES,
    _block_uniforms,
    _philox_uniforms,
    _sampler,
    _Walker,
)

GALANIS_SINGLE = InitialDistribution.point_mass(0b001, 3)


def _stream(seed, trial, block=0):
    """Trial ``trial``'s uniforms from uniform ``4 block`` on, as a ``next_uniform`` callable:
    uniforms ``4 k .. 4 k + 3`` are the words of NumPy's own Philox4x64-10 at counter
    ``(trial, k, 0, 0)``, one ``Philox`` per block, each turned into ``(word >> 11) 2^-53``."""

    def uniforms():
        for k in itertools.count(block):
            words = np.random.Philox(key=seed, counter=[trial, k, 0, 0]).random_raw(4)
            yield from ((words >> np.uint64(11)) * 2.0**-53).tolist()

    return uniforms().__next__


class TestTrajectoryConfig:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            TrajectoryConfig(max_steps=0)
        with pytest.raises(OutOfRange):
            TrajectoryConfig(mode="jump")
        with pytest.raises(OutOfRange):
            TrajectoryConfig(seed=-1)


class TestIntegerArguments:
    """Python and NumPy integers pass and are stored as ints; anything else is out of range."""

    def test_fractional_seed_rejected(self):
        # 1.5 would key the lockstep Philox kernel, but lone trials would run on seed 1
        for seed in (1.5, "1"):
            with pytest.raises(OutOfRange):
                TrajectoryConfig(seed=seed)

    def test_fractional_max_steps_rejected(self):
        # lockstep blocks stop at step == max_steps, which 2.5 never meets
        for max_steps in (2.5, "3"):
            with pytest.raises(OutOfRange):
                TrajectoryConfig(max_steps=max_steps)

    def test_fractional_trials_rejected(self):
        with pytest.raises(OutOfRange):
            estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 10.5, TrajectoryConfig())

    def test_fractional_workers_rejected(self):
        with pytest.raises(OutOfRange):
            estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 10, TrajectoryConfig(),
                              workers=1.5)

    @pytest.mark.parametrize("integer", [np.int64, np.uint64])
    def test_numpy_integers_pass_as_ints(self, integer):
        model = galanis_model(1.0)
        expected = estimate_fixation(model, GALANIS_SINGLE, 300, TrajectoryConfig(seed=5,
                                                                                   max_steps=3))
        cfg = TrajectoryConfig(seed=integer(5), max_steps=integer(3))
        assert type(cfg.seed) is int and type(cfg.max_steps) is int
        result = estimate_fixation(model, GALANIS_SINGLE, integer(300), cfg, workers=integer(1))
        assert result == expected
        assert type(result.seed) is int and type(result.trials) is int
        assert json.loads(json.dumps(result.seed)) == 5


class TestSimulateTrajectory:
    def test_absorbing_start_rejected(self):
        model = galanis_model(1.0)
        with pytest.raises(AbsorbingStart):
            simulate_trajectory(model, Configuration(0b111, 3), TrajectoryConfig())

    def test_terminates_and_reports_steps(self):
        model = galanis_model(1.0)
        outcome, steps = simulate_trajectory(model, Configuration(0b001, 3),
                                             TrajectoryConfig(seed=5))
        assert outcome in (Outcome.FIXATION, Outcome.EXTINCTION)
        assert steps >= 1

    def test_censoring(self):
        model = galanis_model(1.0)
        outcomes = set()
        for seed in range(30):
            outcome, steps = simulate_trajectory(model, Configuration(0b011, 3),
                                                 TrajectoryConfig(seed=seed, max_steps=1,
                                                                  mode="faithful"))
            assert steps == 1 or outcome is not Outcome.CENSORED
            outcomes.add(outcome)
        assert Outcome.CENSORED in outcomes

    def test_strong_selection_fixates(self):
        # fitness 1e6 from a single mutant: failure odds per trial about 1e-6
        model = build_model(two_vertex_weights(1.0, 1.0), mu="stationary", r=1e6)
        fixed = 0
        trials = 10**4
        result = estimate_fixation(model, InitialDistribution.point_mass(0b01, 2),
                                   trials, TrajectoryConfig(seed=1234))
        fixed = result.fixations
        assert fixed / trials >= 0.9999

    def test_trajectories_of_one_model_share_its_tables(self, monkeypatch):
        batches = []

        def recorded(model, masks):
            batches.append(len(masks))
            return flip_masses(model, masks)

        monkeypatch.setattr(montecarlo, "flip_masses", recorded)
        model = _random_policy_model(TABLE_MAX_VERTICES, 1, 1.2)
        start, cfg = Configuration(0b11, model.n), TrajectoryConfig(seed=1)
        assert simulate_trajectory(model, start, cfg) == simulate_trajectory(model, start, cfg)
        assert batches == [(1 << model.n) - 2]


class TestEstimateFixation:
    def test_more_than_63_vertices_runs(self):
        model = build_model(complete_graph_weights(70), mu="uniform", r=1.5)
        cfg = TrajectoryConfig(seed=1)
        result = estimate_fixation(model, InitialDistribution.point_mass(31, 70), 200, cfg)
        exact = moran_rho(5, 70, 1.5)
        assert result.censored == 0
        assert abs(result.frequency - exact) <= 4 * math.sqrt(exact * (1 - exact) / 200)
        # a start with bits above 2^63 set
        outcome, _ = simulate_trajectory(model, Configuration((1 << 69) | (1 << 64), 70), cfg)
        assert outcome in (Outcome.FIXATION, Outcome.EXTINCTION)

    def test_single_trial_is_binary(self):
        result = estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 1,
                                   TrajectoryConfig(seed=2))
        assert result.frequency in (0.0, 1.0)
        assert result.trials == 1

    def test_needs_positive_trials(self):
        with pytest.raises(OutOfRange):
            estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 0, TrajectoryConfig())

    def test_counts_partition_trials(self):
        model = galanis_model(1.0)
        cfg = TrajectoryConfig(seed=3, max_steps=4)
        result = estimate_fixation(model, GALANIS_SINGLE, 5000, cfg)
        assert result.fixations + result.extinctions + result.censored == result.trials
        assert result.censored > 0
        absorbed = result.trials - result.censored
        assert result.frequency == pytest.approx(result.fixations / absorbed)

    def test_reproducible_and_worker_invariant(self):
        model = galanis_model(1.0)
        cfg = TrajectoryConfig(seed=99)
        base = estimate_fixation(model, GALANIS_SINGLE, 4000, cfg)
        rerun = estimate_fixation(model, GALANIS_SINGLE, 4000, cfg)
        assert base == rerun
        for workers in (2, 4, 8):
            assert estimate_fixation(model, GALANIS_SINGLE, 4000, cfg,
                                     workers=workers) == base

    def test_seed_changes_stream(self):
        model = galanis_model(1.0)
        a = estimate_fixation(model, GALANIS_SINGLE, 4000, TrajectoryConfig(seed=1))
        b = estimate_fixation(model, GALANIS_SINGLE, 4000, TrajectoryConfig(seed=2))
        assert a.fixations != b.fixations

    def test_galanis_frequency_within_three_sigma(self):
        result = estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 10**5,
                                   TrajectoryConfig(seed=20260811))
        sigma = math.sqrt((1 / 3) * (2 / 3) / 10**5)
        assert abs(result.frequency - 1 / 3) <= 3 * sigma
        assert result.censored == 0

    def test_two_vertex_half_mixture(self):
        # m = 0 keeps vertex 1 unselected; fixation happens iff the start
        # is the mutant-at-vertex-2 state, so the frequency estimates a = 1/2
        model = build_model(two_vertex_weights(1.0, 0.5), mu=[0.0, 1.0], r=1.0)
        alpha = InitialDistribution(n=2, atoms=((0b01, 0.5), (0b10, 0.5)))
        result = estimate_fixation(model, alpha, 10**4, TrajectoryConfig(seed=17))
        sigma = math.sqrt(0.25 / 10**4)
        assert abs(result.frequency - 0.5) <= 3 * sigma

    def test_event_and_faithful_agree(self):
        model = galanis_model(1.0)
        trials = 10**5
        f_event = estimate_fixation(model, GALANIS_SINGLE, trials,
                                    TrajectoryConfig(seed=7, mode="event")).frequency
        f_faithful = estimate_fixation(model, GALANIS_SINGLE, trials,
                                       TrajectoryConfig(seed=7, mode="faithful")).frequency
        pooled = (f_event + f_faithful) / 2.0
        z = abs(f_event - f_faithful) / math.sqrt(pooled * (1 - pooled) * 2 / trials)
        assert z < 4.0

    def test_estimator_calibration_over_seeds(self):
        rng = np.random.default_rng(123)
        W = random_strongly_connected_weights(4, rng)
        model = build_model(W, mu="stationary", r=2.0)
        alpha = InitialDistribution.point_mass(0b0011, 4)
        exact = fixation_for_initial(model, alpha)
        trials = 30000
        sigma = math.sqrt(exact * (1 - exact) / trials)
        for seed in range(20):
            result = estimate_fixation(model, alpha, trials, TrajectoryConfig(seed=seed))
            assert abs(result.frequency - exact) <= 4 * sigma

    @staticmethod
    def wilson(f, trials, z=3.0):
        """Wilson's score interval of frequency ``f`` over ``trials``: ``(low, high)``."""
        center = (f + z * z / (2 * trials)) / (1 + z * z / trials)
        half = z / (1 + z * z / trials) * math.sqrt(f * (1 - f) / trials
                                                    + z * z / (4 * trials * trials))
        return center - half, center + half

    def test_ci_halfwidth_formula(self):
        result = estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 5000,
                                   TrajectoryConfig(seed=4))
        f = result.frequency
        low, high = self.wilson(f, 5000)
        assert result.ci_halfwidth == pytest.approx(max(f - low, high - f), rel=1e-12)
        assert f - result.ci_halfwidth <= low and high <= f + result.ci_halfwidth

    def test_ci_halfwidth_is_positive_without_fixations(self):
        # 0 of 200 fix, where the exact value is 0.00294: the interval still covers it
        model = galanis_model(0.05, mu="uniform")
        result = estimate_fixation(model, GALANIS_SINGLE, 200, TrajectoryConfig(seed=2))
        assert (result.fixations, result.frequency) == (0, 0.0)
        assert result.ci_halfwidth == pytest.approx(self.wilson(0.0, 200)[1], rel=1e-12)
        assert result.ci_halfwidth > fixation_for_initial(model, GALANIS_SINGLE)


def _random_policy_model(n, seed, r):
    """A random graph under a positive policy that is not its stationary one."""
    rng = np.random.default_rng(seed)
    W = random_strongly_connected_weights(n, rng)
    mu = rng.uniform(0.2, 1.0, n)
    return build_model(W, mu=mu / mu.sum(), r=r)


def _stuck_cycle(n):
    """Directed n-cycle where only vertex 1 is ever selected.

    From one mutant at vertex 1 the only move makes vertex 2 a mutant too;
    after that every update copies a mutant onto a mutant, forever.
    """
    return build_model(validate_weight_matrix(np.roll(np.eye(n), 1, axis=1)),
                       mu=np.eye(n)[0], r=1.0)


def _mask_of(x):
    return sum(1 << int(v) for v in np.flatnonzero(x))


def _start(sampler, mask):
    """The state of one trial from ``mask``, as :meth:`begin` builds it."""
    return sampler.begin([mask], np.zeros(1, np.intp))[0]


def _walk(sampler, mask, next_uniform, max_steps):
    """``(outcome, steps)`` of one trial from ``mask``, walked alone."""
    fate, steps = sampler.resume(_start(sampler, mask), 0, next_uniform, max_steps)
    return montecarlo._OUTCOMES[fate] or Outcome.CENSORED, steps


def _residue_model():
    """n = 13 graph where only vertices 1-3 are selected, at r = 3.

    Vertex 1 places onto 2 and 4, vertices 2 and 3 onto each other and onto
    1; vertices 4, 5, ..., 13 form a chain back to 1.  From mutants at 1 and
    4, trajectories either die out or make 1-3 mutants and stop there; on the
    way, the masses of wildtype parents 2 and 3 are added and subtracted, and
    some positive masses return to zero.
    """
    n = 13
    W = np.zeros((n, n))
    W[0, 1], W[0, 3] = 0.5, 0.5
    W[1, 2], W[1, 0] = 0.1, 0.9
    W[2, 0], W[2, 1] = 0.2, 0.8
    for v in range(3, n):
        W[v, (v + 1) % n] = 1.0
    return build_model(validate_weight_matrix(W), mu=[0.3, 0.3, 0.4] + [0.0] * (n - 3), r=3.0)


class TestNeverChangingConfiguration:
    @pytest.mark.parametrize("n", [3, TABLE_MAX_VERTICES + 1])
    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_censored_in_both_modes(self, n, mode):
        model = _stuck_cycle(n)
        cfg = TrajectoryConfig(seed=4, mode=mode)
        result = estimate_fixation(model, InitialDistribution.point_mass(0b001, n), 100, cfg)
        assert (result.fixations, result.extinctions, result.censored) == (0, 0, 100)
        assert math.isnan(result.frequency)
        assert simulate_trajectory(model, Configuration(0b001, n), cfg) == (Outcome.CENSORED, 1)


class TestIncrementalWalker:
    def test_used_above_the_table_cut(self):
        model = _random_policy_model(TABLE_MAX_VERTICES + 1, 1, 1.5)
        assert isinstance(_sampler(model, "event"), _Walker)
        assert not isinstance(_sampler(galanis_model(1.0), "event"), _Walker)

    def test_masses_track_a_recompute(self):
        # the masses after every 1,000th of 10^5 events equal a from-scratch
        # sum; at extreme fitness an int64 overflow would show as a negative
        # mass or a weight off the unbounded sum
        n = 30
        start = (1 << (n // 2)) - 1
        for r in (1.7, 1e-12, 1e12):
            walker = _sampler(_random_policy_model(n, 30, r), "event")
            stream = _stream(5, 0)
            state = _start(walker, start)
            for event in range(1, 10**5 + 1):
                fate, steps = walker.resume(state, 0, stream, 1)
                assert steps == 1
                if event % 1000 == 0:
                    x, masses, weight, mutants = (a[0] for a in state[:4])
                    fresh = [a[0] for a in _start(walker, _mask_of(x))[:4]]
                    assert np.array_equal(masses, fresh[1])
                    assert weight == fresh[2] and mutants == fresh[3]
                    assert masses.min() >= 0
                    assert int(weight) == sum(masses.ravel().tolist())
                if fate:
                    state = _start(walker, start)

    def test_never_flips_a_vertex_of_zero_mass(self):
        walker = _sampler(_residue_model(), "event")
        stuck = 0
        for seed in range(100):
            stream = _stream(seed, 0)
            state = _start(walker, 0b1001)
            x = state[0][0]
            while True:
                fresh_x, fresh_masses = (a[0] for a in _start(walker, _mask_of(x))[:2])
                mass = np.where(fresh_x, fresh_masses[1], fresh_masses[0])
                before = x.copy()
                fate, steps = walker.resume(state, 0, stream, 1)
                if fate == 3:  # censored where nothing can change, the step uncounted
                    assert steps == 0
                    assert mass.sum() == 0.0
                    stuck += 1
                    break
                (u,) = np.flatnonzero(before != x)
                assert mass[u] > 0.0
                if fate:
                    break
        assert stuck > 0

    @pytest.mark.parametrize("n", [6, 9, 12])
    @pytest.mark.parametrize("r", [0.5, 1.5, 1e6])
    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_draws_the_law_of_the_tables(self, n, r, mode, monkeypatch):
        # below the table cut, the walker forced onto the tables' uniforms
        # draws the same counts
        model = _random_policy_model(n, n, r)
        alpha = _several_atoms(n, n)
        cfg = TrajectoryConfig(seed=n, mode=mode)
        tables = estimate_fixation(model, alpha, 3000, cfg)
        monkeypatch.setattr(montecarlo, "_sampler", _Walker)
        assert _counts(estimate_fixation(model, alpha, 3000, cfg)) == _counts(tables)

    def test_worker_invariant(self):
        model = _random_policy_model(16, 16, 1.3)
        alpha = InitialDistribution.level_uniform(16, 2)
        cfg = TrajectoryConfig(seed=8)
        result = estimate_fixation(model, alpha, 300, cfg)
        assert estimate_fixation(model, alpha, 300, cfg, workers=2) == result
        assert _counts(result) == _walker_counts(model, alpha, 300, cfg)[0]

    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_agrees_with_exact_solver(self, mode):
        model = _random_policy_model(14, 14, 1.5)
        assert not model.is_stationary()
        alpha = InitialDistribution.level_uniform(14, 3)
        exact = fixation_for_initial(model, alpha)
        trials = 2000
        result = estimate_fixation(model, alpha, trials, TrajectoryConfig(seed=21, mode=mode))
        assert result.censored == 0
        assert abs(result.frequency - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)

    def test_holds_no_per_configuration_state(self):
        model = build_model(complete_graph_weights(16), mu="uniform", r=1.0)
        sampler = _sampler(model, "event")

        def run(trials):
            for trial in range(trials):
                _walk(sampler, 0xFF, _stream(3, trial), 10**6)

        run(5)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(200)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024


def _reference_tables(model, mode):
    """``{mask: (cumulative masses, targets)}`` as lists, built one configuration at a time."""
    full = (1 << model.n) - 1
    tables = {}
    for mask, row in enumerate(flip_masses(model, np.arange(1, full)).tolist(), start=1):
        targets = [mask ^ (1 << u) for u, p in enumerate(row) if p > 0.0]
        if not targets:
            continue
        cum = list(accumulate(p for p in row if p > 0.0))
        if mode == "event":
            cum = [c / cum[-1] for c in cum]
            cum[-1] = 1.0
        else:
            targets.append(mask)
            cum.append(1.0)
        tables[mask] = (cum, targets)
    return tables


def _reference_walk(tables, full, mask, next_uniform, max_steps):
    """One trajectory by bisection of the list tables, one ``next_uniform()`` per step."""
    steps = 0
    while steps < max_steps and mask in tables:
        cum, targets = tables[mask]
        mask = targets[bisect_left(cum, next_uniform())]
        steps += 1
        if mask == 0:
            return Outcome.EXTINCTION, steps
        if mask == full:
            return Outcome.FIXATION, steps
    return Outcome.CENSORED, steps


def _per_trial_counts(walk, alpha, trials, cfg):
    """``(fixations, extinctions, censored)`` and the most steps of a trial, one trial
    after another on its own stream; ``walk(start, next_uniform, max_steps)`` walks one."""
    masks = [mask for mask, _ in alpha.atoms]
    cum = list(accumulate(w for _, w in alpha.atoms))
    cum[-1] = 1.0
    counts = dict.fromkeys(Outcome, 0)
    longest = 0
    for trial in range(trials):
        stream = _stream(cfg.seed, trial)
        start = masks[bisect_left(cum, stream())]
        outcome, steps = walk(start, stream, cfg.max_steps)
        counts[outcome] += 1
        longest = max(longest, steps)
    return (counts[Outcome.FIXATION], counts[Outcome.EXTINCTION],
            counts[Outcome.CENSORED]), longest


def _reference_counts(model, alpha, trials, cfg):
    """``(fixations, extinctions, censored)`` by bisection of the list tables."""
    tables = _reference_tables(model, cfg.mode)
    walk = partial(_reference_walk, tables, (1 << model.n) - 1)
    return _per_trial_counts(walk, alpha, trials, cfg)[0]


def _several_atoms(n, seed):
    """Up to five transient masks with uneven weights."""
    rng = np.random.default_rng(seed)
    masks = sorted({int(m) for m in rng.integers(1, (1 << n) - 1, 5)})
    weights = rng.uniform(0.1, 1.0, len(masks))
    return InitialDistribution(n=n, atoms=tuple(zip(masks, (weights / weights.sum()).tolist())))


def _counts(result):
    return result.fixations, result.extinctions, result.censored


def _driver_log(monkeypatch, sampler):
    """Record the block driver's draws and walks in order: ``("C", block)`` for a C Philox
    draw of Philox block ``block``, ``("kernel", walking)`` for a kernel draw, and
    ``("step",)`` and ``("resume",)`` for the members of ``sampler`` (a class)."""
    log = []

    def record(owner, name, entry):
        wrapped = getattr(owner, name)

        def recorded(*args):
            log.append(entry(*args))
            return wrapped(*args)

        monkeypatch.setattr(owner, name, recorded)

    record(montecarlo, "_block_uniforms", lambda seed, first, count, block: ("C", block))
    record(montecarlo, "_philox_uniforms",
           lambda seed, trials, block, blocks=1: ("kernel", len(trials)))
    record(sampler, "step", lambda *args: ("step",))
    record(sampler, "resume", lambda *args: ("resume",))
    return log


def _fed(log, draw, walk):
    """Whether a draw of kind ``draw`` (``"C"`` from the second Philox block on, or
    ``"kernel"``) is followed directly by ``walk``: ``"step"`` or ``"resume"``."""
    return any(first[0] == draw and (draw == "kernel" or first[1] > 0) and then == (walk,)
               for first, then in zip(log, log[1:]))


class TestPhiloxKernel:
    def test_matches_the_trial_streams(self):
        trials = [0, 7, 2**32 + 1, 2**40]
        for seed in (0, 1, 2**63 + 5, 2**64 - 1):
            expected = []
            for trial in trials:
                stream = _stream(seed, trial)
                expected.append([stream() for _ in range(40)])
            counters = np.array(trials, dtype=np.uint64)
            blocks = [_philox_uniforms(seed, counters, block) for block in range(10)]
            assert np.concatenate(blocks).T.tolist() == expected
            # several blocks in one evaluation
            assert np.array_equal(_philox_uniforms(seed, counters, 3, 6),
                                  np.concatenate(blocks[3:9]))

    def test_stream_positioned_at_a_block(self):
        # the kernel far into a stream, several blocks at once, as lone walks read it
        stream = _stream(5, 9)
        draws = [stream() for _ in range(100)]
        for block in (1, 7, 20):
            at_block = _stream(5, 9, block)
            assert [at_block() for _ in range(20)] == draws[4 * block:4 * block + 20]
            kernel = _philox_uniforms(5, np.array([9], dtype=np.uint64), block, 5)
            assert kernel.ravel().tolist() == draws[4 * block:4 * block + 20]

    def test_c_block_draw_matches_the_kernel(self):
        # NumPy's Philox steps counter word 0 before its first block, and key=seed
        # is the key (seed, 0); both make the C draw the kernel's counters, also over
        # a block of 400 trials, which takes the C draw while 94 or more walk
        for seed in (0, 1, 2**63 + 5, 2**64 - 1):
            for first in (0, 7, 2**40):
                for count in (37, 400):
                    trials = np.arange(first, first + count, dtype=np.uint64)
                    for block in (0, 7, 2**20):
                        assert np.array_equal(_block_uniforms(seed, first, count, block),
                                              _philox_uniforms(seed, trials, block).T)

    def test_words_become_uniforms_as_numpy_random_does(self):
        bits = np.random.Philox(key=3, counter=[5, 0, 0, 0])
        words = np.random.Philox(key=3, counter=[5, 0, 0, 0]).random_raw(64)
        assert ((words >> np.uint64(11)) * 2.0**-53).tolist() == \
            np.random.Generator(bits).random(64).tolist()


#: Per case: the counts of 100 trials, of 2^14 + 37 trials, and of 100 trials with
#: max_steps 3; then simulate_trajectory from each of two starts, with the default
#: max_steps and with 3.  Recorded on the streams that ``_stream`` draws.
_TABLE_PINS = {
    ('galanis', 'event', 0): ([(43, 57, 0), (7826, 8595, 0), (32, 55, 13)], [('EXTINCTION', 2), ('EXTINCTION', 2), ('FIXATION', 2), ('FIXATION', 2)]),
    ('galanis', 'event', 2**64 - 1): ([(39, 61, 0), (7930, 8491, 0), (31, 59, 10)], [('FIXATION', 3), ('FIXATION', 3), ('FIXATION', 4), ('CENSORED', 3)]),
    ('galanis', 'faithful', 0): ([(45, 55, 0), (7780, 8641, 0), (23, 47, 30)], [('EXTINCTION', 2), ('EXTINCTION', 2), ('FIXATION', 2), ('FIXATION', 2)]),
    ('galanis', 'faithful', 2**64 - 1): ([(45, 55, 0), (7819, 8602, 0), (28, 48, 24)], [('FIXATION', 6), ('CENSORED', 3), ('FIXATION', 7), ('CENSORED', 3)]),
    ('random10', 'event', 0): ([(47, 53, 0), (8582, 7839, 0), (0, 22, 78)], [('EXTINCTION', 2), ('EXTINCTION', 2), ('FIXATION', 7), ('CENSORED', 3)]),
    ('random10', 'event', 2**64 - 1): ([(54, 46, 0), (8664, 7757, 0), (0, 19, 81)], [('EXTINCTION', 26), ('CENSORED', 3), ('FIXATION', 9), ('CENSORED', 3)]),
    ('random10', 'faithful', 0): ([(53, 47, 0), (8682, 7739, 0), (0, 3, 97)], [('EXTINCTION', 14), ('CENSORED', 3), ('EXTINCTION', 84), ('CENSORED', 3)]),
    ('random10', 'faithful', 2**64 - 1): ([(53, 47, 0), (8659, 7762, 0), (0, 2, 98)], [('FIXATION', 40), ('CENSORED', 3), ('FIXATION', 51), ('CENSORED', 3)]),
}


class TestTableWalkerPins:
    """The table walker's counts and trajectories, pinned.

    Its tables come from flip_masses and cumsum, with no BLAS product, so the
    pins hold bitwise on every machine and NumPy version.
    """

    @pytest.mark.parametrize("key", _TABLE_PINS, ids=lambda key: "-".join(map(str, key)))
    def test_counts_and_trajectories(self, key):
        name, mode, seed = key
        if name == "galanis":
            model, alpha, starts = galanis_model(1.5), GALANIS_SINGLE, (0b011, 0b100)
        else:
            model = _random_policy_model(10, 10, 1.5)
            alpha, starts = InitialDistribution.level_uniform(10, 2), (0b11, 0b1010101010)
        counts, trajectories = _TABLE_PINS[key]
        assert [_counts(estimate_fixation(model, alpha, trials,
                                          TrajectoryConfig(seed=seed, mode=mode,
                                                           max_steps=max_steps)))
                for trials, max_steps in ((100, 10**7), (2**14 + 37, 10**7), (100, 3))] == counts
        walked = []
        for start in starts:
            for max_steps in (10**7, 3):
                cfg = TrajectoryConfig(seed=seed, mode=mode, max_steps=max_steps)
                outcome, steps = simulate_trajectory(model, Configuration(start, model.n), cfg)
                walked.append((outcome.name, steps))
        assert walked == trajectories


#: Per case: the counts of 300 trials from two mutants, with the default max_steps
#: and with 3; then simulate_trajectory from each of two starts, with the default
#: max_steps and with 3.  Recorded on the streams that ``_stream`` draws.
_WALKER_PINS = {
    ('random13', 'event', 0): ([(158, 142, 0), (0, 37, 263)], [('EXTINCTION', 2), ('EXTINCTION', 2), ('FIXATION', 21), ('CENSORED', 3)]),
    ('random13', 'event', 2**64 - 1): ([(156, 144, 0), (0, 47, 253)], [('FIXATION', 15), ('CENSORED', 3), ('FIXATION', 79), ('CENSORED', 3)]),
    ('random13', 'faithful', 0): ([(170, 130, 0), (0, 10, 290)], [('FIXATION', 130), ('CENSORED', 3), ('FIXATION', 187), ('CENSORED', 3)]),
    ('random13', 'faithful', 2**64 - 1): ([(162, 138, 0), (0, 10, 290)], [('FIXATION', 75), ('CENSORED', 3), ('FIXATION', 50), ('CENSORED', 3)]),
    ('random16', 'event', 0): ([(160, 140, 0), (0, 41, 259)], [('EXTINCTION', 2), ('EXTINCTION', 2), ('FIXATION', 18), ('CENSORED', 3)]),
    ('random16', 'event', 2**64 - 1): ([(172, 128, 0), (0, 49, 251)], [('FIXATION', 88), ('CENSORED', 3), ('FIXATION', 24), ('CENSORED', 3)]),
    ('random16', 'faithful', 0): ([(160, 140, 0), (0, 5, 295)], [('EXTINCTION', 88), ('CENSORED', 3), ('FIXATION', 88), ('CENSORED', 3)]),
    ('random16', 'faithful', 2**64 - 1): ([(154, 146, 0), (0, 5, 295)], [('FIXATION', 115), ('CENSORED', 3), ('FIXATION', 116), ('CENSORED', 3)]),
    ('random30', 'event', 0): ([(166, 134, 0), (0, 38, 262)], [('EXTINCTION', 2), ('EXTINCTION', 2), ('FIXATION', 83), ('CENSORED', 3)]),
    ('random30', 'event', 2**64 - 1): ([(155, 145, 0), (0, 52, 248)], [('FIXATION', 78), ('CENSORED', 3), ('FIXATION', 167), ('CENSORED', 3)]),
    ('random30', 'faithful', 0): ([(159, 141, 0), (0, 3, 297)], [('EXTINCTION', 28), ('CENSORED', 3), ('FIXATION', 230), ('CENSORED', 3)]),
    ('random30', 'faithful', 2**64 - 1): ([(170, 130, 0), (0, 1, 299)], [('EXTINCTION', 27), ('CENSORED', 3), ('FIXATION', 402), ('CENSORED', 3)]),
    ('complete40', 'event', 0): ([(18, 282, 0), (0, 58, 242)], [('EXTINCTION', 2), ('EXTINCTION', 2), ('FIXATION', 118), ('CENSORED', 3)]),
    ('complete40', 'event', 2**64 - 1): ([(14, 286, 0), (0, 76, 224)], [('FIXATION', 422), ('CENSORED', 3), ('FIXATION', 1322), ('CENSORED', 3)]),
    ('complete40', 'faithful', 0): ([(13, 287, 0), (0, 1, 299)], [('EXTINCTION', 47), ('CENSORED', 3), ('FIXATION', 1475), ('CENSORED', 3)]),
    ('complete40', 'faithful', 2**64 - 1): ([(9, 291, 0), (0, 2, 298)], [('EXTINCTION', 40), ('CENSORED', 3), ('EXTINCTION', 994), ('CENSORED', 3)]),
}


class TestWalkerPins:
    """The incremental walker's counts and trajectories, pinned.

    Its masses are integer sums of rows rounded once, with no BLAS product,
    so the pins do not depend on the BLAS build.
    """

    @pytest.mark.parametrize("key", _WALKER_PINS, ids=lambda key: "-".join(map(str, key)))
    def test_counts_and_trajectories(self, key):
        name, mode, seed = key
        if name == "complete40":
            model = load_model("@complete:40")
        else:
            n = int(name.removeprefix("random"))
            model = _random_policy_model(n, n, 1.5)
        n = model.n
        alpha, starts = InitialDistribution.level_uniform(n, 2), (0b11, int("10" * (n // 2), 2))
        counts, trajectories = _WALKER_PINS[key]
        assert [_counts(estimate_fixation(model, alpha, 300,
                                          TrajectoryConfig(seed=seed, mode=mode,
                                                           max_steps=max_steps)))
                for max_steps in (10**7, 3)] == counts
        walked = []
        for start in starts:
            for max_steps in (10**7, 3):
                cfg = TrajectoryConfig(seed=seed, mode=mode, max_steps=max_steps)
                outcome, steps = simulate_trajectory(model, Configuration(start, n), cfg)
                walked.append((outcome.name, steps))
        assert walked == trajectories


class TestLockstepWalk:
    """The table walker against a per-trial walk over the same Philox streams."""

    @pytest.mark.parametrize("n", range(2, TABLE_MAX_VERTICES + 1))
    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_counts_match_per_trial_walk(self, n, mode, monkeypatch):
        # blocks of 64 trials: 300 trials end on a part block, and the last 7
        # trials walking in a block go on one at a time
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(montecarlo, "LOCKSTEP_MIN_TRIALS", 8)
        log = _driver_log(monkeypatch, montecarlo._Tables)
        model = _random_policy_model(n, 100 + n, 1.4)
        alpha = _several_atoms(n, n)
        for max_steps in (3, 10**7):
            cfg = TrajectoryConfig(seed=n, mode=mode, max_steps=max_steps)
            result = estimate_fixation(model, alpha, 300, cfg)
            assert _counts(result) == _reference_counts(model, alpha, 300, cfg)
        assert result.censored == 0
        # from four walking trials of a 64-trial block up to the hand-off, a later draw is
        # the block's C draw, and they walk alone (at n = 2 every flip absorbs, so no trial
        # walks past the first Philox block)
        assert _fed(log, "C", "resume") == (n > 2)

    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_few_trials_match_per_trial_walk(self, mode):
        model = _random_policy_model(8, 8, 1.2)
        alpha = _several_atoms(8, 3)
        for trials in (1, LOCKSTEP_MIN_TRIALS - 1, LOCKSTEP_MIN_TRIALS):
            cfg = TrajectoryConfig(seed=trials, mode=mode)
            assert _counts(estimate_fixation(model, alpha, trials, cfg)) == \
                _reference_counts(model, alpha, trials, cfg)

    def test_block_and_a_part(self, monkeypatch):
        log = _driver_log(monkeypatch, montecarlo._Tables)
        model = galanis_model(1.0)
        alpha = InitialDistribution(n=3, atoms=((0b001, 0.5), (0b110, 0.3), (0b010, 0.2)))
        trials = BLOCK_TRIALS + 37
        for mode in ("event", "faithful"):
            cfg = TrajectoryConfig(seed=2**64 - 1, mode=mode)
            assert _counts(estimate_fixation(model, alpha, trials, cfg)) == \
                _reference_counts(model, alpha, trials, cfg)
        # at most 512 walking trials of the full block take a kernel draw, and from
        # LOCKSTEP_MIN_TRIALS of them on they step in lockstep
        assert _fed(log, "kernel", "step")

    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_long_walk_in_lockstep(self, mode, monkeypatch):
        # a hand-off of one trial keeps every trial in lockstep to absorption
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(montecarlo, "LOCKSTEP_MIN_TRIALS", 1)
        log = _driver_log(monkeypatch, montecarlo._Tables)
        model = build_model(complete_graph_weights(12), mu="uniform", r=1.0)
        alpha = InitialDistribution.point_mass(0b111111, 12)
        cfg = TrajectoryConfig(seed=5, mode=mode)
        walk = partial(_reference_walk, _reference_tables(model, mode), (1 << 12) - 1)
        counts, longest = _per_trial_counts(walk, alpha, 150, cfg)
        assert longest > 100
        assert _counts(estimate_fixation(model, alpha, 150, cfg)) == counts
        assert ("step",) in log and ("resume",) not in log

    def test_configurations_that_never_change(self):
        # from 0b001 the stuck cycle moves to 0b011 and stays; 0b100 never moves;
        # 0b010 dies out
        model = _stuck_cycle(3)
        alpha = InitialDistribution(n=3, atoms=((0b001, 0.4), (0b010, 0.3), (0b100, 0.3)))
        for mode in ("event", "faithful"):
            cfg = TrajectoryConfig(seed=6, mode=mode)
            result = estimate_fixation(model, alpha, 1000, cfg)
            assert _counts(result) == _reference_counts(model, alpha, 1000, cfg)
            assert result.extinctions > 0 and result.censored > 0

    def test_worker_invariant(self):
        model = _random_policy_model(9, 9, 0.8)
        alpha = _several_atoms(9, 9)
        cfg = TrajectoryConfig(seed=11, mode="faithful")
        result = estimate_fixation(model, alpha, 3001, cfg)
        assert estimate_fixation(model, alpha, 3001, cfg, workers=2) == result
        assert _counts(result) == _reference_counts(model, alpha, 3001, cfg)

    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_trajectory_matches_per_trial_walk(self, mode):
        for n in (2, 3, 7, 12):
            model = _random_policy_model(n, n, 1.6)
            tables = _reference_tables(model, mode)
            for seed in range(10):
                start = Configuration(1 + seed % ((1 << n) - 2), n)
                for max_steps in (1, 5, 10**7):
                    expected = _reference_walk(tables, (1 << n) - 1, start.bits, _stream(seed, 0),
                                               max_steps)
                    cfg = TrajectoryConfig(seed=seed, mode=mode, max_steps=max_steps)
                    assert simulate_trajectory(model, start, cfg) == expected


def _walker_counts(model, alpha, trials, cfg):
    """Counts and the most steps of a trial, by :meth:`_Walker.resume`, one trial at a time."""
    return _per_trial_counts(partial(_walk, _Walker(model, cfg.mode)), alpha, trials, cfg)


class TestLockstepWalker:
    """The incremental walker in lockstep against its per-trial walk over the same streams."""

    @staticmethod
    def small_blocks(monkeypatch, handoff=8):
        # blocks of 64 trials: 300 trials end on a part block, and the last
        # trials walking in a block go on one at a time
        monkeypatch.setattr(montecarlo, "BLOCK_TRIALS", 64)
        monkeypatch.setattr(montecarlo, "LOCKSTEP_MIN_TRIALS", handoff)

    @pytest.mark.parametrize("n", [13, 16, 30])
    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_counts_match_per_trial_walk(self, n, mode, monkeypatch):
        self.small_blocks(monkeypatch)
        model = _random_policy_model(n, 100 + n, 1.4)
        alpha = _several_atoms(n, n)
        for max_steps in (3, 10**7):
            cfg = TrajectoryConfig(seed=n, mode=mode, max_steps=max_steps)
            result = estimate_fixation(model, alpha, 300, cfg)
            assert _counts(result) == _walker_counts(model, alpha, 300, cfg)[0]
        assert result.censored == 0

    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_never_changing_configuration_censors(self, mode, monkeypatch):
        self.small_blocks(monkeypatch)
        model = _stuck_cycle(16)
        alpha = InitialDistribution(n=16, atoms=((0b1, 0.5), (0b10, 0.3), (0b100, 0.2)))
        cfg = TrajectoryConfig(seed=6, mode=mode)
        result = estimate_fixation(model, alpha, 300, cfg)
        assert _counts(result) == _walker_counts(model, alpha, 300, cfg)[0]
        assert result.censored > 0

    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_policy_entry_below_zero_places_nothing(self, mode, monkeypatch):
        # validation admits policy entries down to -1e-12; at the walker's unit
        # of 2^-61 such an entry of vertex 2 would round to a negative mass on
        # vertex 3, so that the configuration 0b11 of the stuck cycle, where
        # nothing can change, would walk on as idle steps instead of censoring
        self.small_blocks(monkeypatch)
        n = 16
        mu = np.eye(n)[0]
        mu[1] = -1e-13
        model = build_model(validate_weight_matrix(np.roll(np.eye(n), 1, axis=1)), mu=mu, r=1.0)
        walker = _sampler(model, mode)
        for mask in (0b1, 0b11, 0b110, (1 << n) - 2):
            assert _start(walker, mask)[1].min() >= 0
        alpha = InitialDistribution(n=n, atoms=((0b1, 0.5), (0b11, 0.3), (0b110, 0.2)))
        cfg = TrajectoryConfig(seed=6, mode=mode, max_steps=1000)
        result = estimate_fixation(model, alpha, 300, cfg)
        counts, longest = _walker_counts(model, alpha, 300, cfg)
        assert _counts(result) == counts
        assert result.censored == 300
        assert longest <= 1  # censored on reaching 0b11, the step to it counted
        assert simulate_trajectory(model, Configuration(0b11, n), cfg) == (Outcome.CENSORED, 0)

    def test_long_walk_in_lockstep(self, monkeypatch):
        # a hand-off below one trial keeps every trial in lockstep to the end
        self.small_blocks(monkeypatch, handoff=1)
        model = build_model(complete_graph_weights(40), mu="uniform", r=1.0)
        alpha = InitialDistribution.point_mass((1 << 20) - 1, 40)
        cfg = TrajectoryConfig(seed=5)
        counts, longest = _walker_counts(model, alpha, 150, cfg)
        assert longest > 1000  # event mode: every step is a flip
        assert _counts(estimate_fixation(model, alpha, 150, cfg)) == counts

    def test_masks_wider_than_int64(self):
        model = build_model(complete_graph_weights(70), mu="uniform", r=1.5)
        alpha = InitialDistribution(n=70, atoms=(((1 << 69) | (1 << 64), 0.5), (0b111, 0.5)))
        trials = 2 * LOCKSTEP_MIN_TRIALS
        cfg = TrajectoryConfig(seed=70)
        assert _counts(estimate_fixation(model, alpha, trials, cfg)) == \
            _walker_counts(model, alpha, trials, cfg)[0]

    def test_complete_graph_against_moran(self):
        n, r, trials = 200, 1.5, 300
        model = build_model(complete_graph_weights(n), mu="uniform", r=r)
        result = estimate_fixation(model, InitialDistribution.point_mass(1, n), trials,
                                   TrajectoryConfig(seed=200))
        exact = moran_rho(1, n, r)
        assert result.censored == 0
        assert abs(result.frequency - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


class TestShortRuns:
    """Runs of fewer trials than the hand-off: every trial walks alone from the start."""

    @pytest.mark.parametrize("n", [8, TABLE_MAX_VERTICES + 1])
    @pytest.mark.parametrize("mode", ["event", "faithful"])
    def test_end_inside_and_on_a_philox_block(self, n, mode):
        # step s takes uniform s, four to a Philox block, so max_steps 3 and 7 end
        # on a block's last uniform, 4 and 8 on its first, and 1, 2 and 5 inside
        model = _random_policy_model(n, 50 + n, 1.3)
        alpha = _several_atoms(n, n)
        tables = n <= TABLE_MAX_VERTICES
        trials = LOCKSTEP_MIN_TRIALS - 1
        for max_steps in (1, 2, 3, 4, 5, 7, 8):
            cfg = TrajectoryConfig(seed=max_steps, mode=mode, max_steps=max_steps)
            result = estimate_fixation(model, alpha, trials, cfg)
            expected = (_reference_counts(model, alpha, trials, cfg) if tables
                        else _walker_counts(model, alpha, trials, cfg)[0])
            assert _counts(result) == expected
        assert result.censored > 0


class TestWorkerCount:
    @pytest.mark.parametrize("affinity, cpu_count, started", [
        ({0, 1, 2}, 8, [3]),  # the CPUs this process may run on
        (None, 3, [3]),  # no sched_getaffinity
        (None, None, []),  # nothing known: one worker, in this process
    ])
    def test_capped_at_usable_cpus(self, affinity, cpu_count, started, monkeypatch):
        pools = []

        class Recorder:
            """Records the worker count and maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", Recorder)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        cfg = TrajectoryConfig(seed=5)
        result = estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 300, cfg, workers=300)
        assert pools == started
        assert result == estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 300, cfg)
