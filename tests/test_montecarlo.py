import math

import numpy as np
import pytest

from spatialmoran import (
    AbsorbingStart,
    Configuration,
    InitialDistribution,
    Outcome,
    OutOfRange,
    TooLarge,
    TrajectoryConfig,
    build_model,
    complete_graph_weights,
    estimate_fixation,
    fixation_for_initial,
    galanis_model,
    random_strongly_connected_weights,
    simulate_trajectory,
    two_vertex_weights,
)

GALANIS_SINGLE = InitialDistribution.point_mass(0b001, 3)


class TestTrajectoryConfig:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            TrajectoryConfig(max_steps=0)
        with pytest.raises(OutOfRange):
            TrajectoryConfig(mode="jump")
        with pytest.raises(OutOfRange):
            TrajectoryConfig(seed=-1)


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


class TestEstimateFixation:
    def test_more_than_63_vertices_is_too_large(self):
        model = build_model(complete_graph_weights(70), mu="uniform", r=1.0)
        cfg = TrajectoryConfig(seed=1)
        with pytest.raises(TooLarge, match="n <= 63"):
            estimate_fixation(model, InitialDistribution.point_mass(1, 70), 2, cfg)
        with pytest.raises(TooLarge, match="n <= 63"):
            simulate_trajectory(model, Configuration(1, 70), cfg)

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

    def test_ci_halfwidth_formula(self):
        result = estimate_fixation(galanis_model(1.0), GALANIS_SINGLE, 5000,
                                   TrajectoryConfig(seed=4))
        f = result.frequency
        assert result.ci_halfwidth == pytest.approx(3 * math.sqrt(f * (1 - f) / 5000))
