import numpy as np
import pytest

from spatialmoran import (
    Configuration,
    LevelOutOfRange,
    TooLarge,
    build_model,
    complete_graph_weights,
    fixation_probabilities,
    flip_masses,
    galanis_model,
    p_minus,
    p_plus,
    random_strongly_connected_weights,
    stationary_distribution,
    step_distribution,
    transition_kernel,
    two_vertex_weights,
)
from spatialmoran.analysis import classic_p_minus, classic_p_plus, single_mutant_ratio_witness
from spatialmoran.dynamics import _flip_masses, _flip_totals


def brute_force_step(mask, W, mu, r):
    """Independent oracle: enumerate every ordered (parent, target) pair."""
    n = len(mu)
    x = [(mask >> v) & 1 for v in range(n)]
    z = sum(mu[v] for v in range(n) if x[v])
    denom = 1.0 + (r - 1.0) * z
    masses = {}
    idle = 0.0
    for v in range(n):
        s = (r if x[v] else 1.0) * mu[v] / denom
        for u in range(n):
            target = (mask | (1 << u)) if x[v] else (mask & ~(1 << u))
            if target == mask:
                idle += s * W[v][u]
            else:
                masses[target] = masses.get(target, 0.0) + s * W[v][u]
    return masses, idle


def random_model(rng, n=None, positive_mu=True):
    n = n or int(rng.integers(2, 8))
    W = random_strongly_connected_weights(n, rng)
    mu = rng.uniform(0.05 if positive_mu else 0.0, 1.0, n)
    mu /= mu.sum()
    r = float(rng.uniform(0.25, 4.0))
    return build_model(W, mu=mu, r=r)


class TestLevelProbabilities:
    def test_complete_graph_single_mutant_neutral(self):
        model = build_model(complete_graph_weights(3), mu="uniform", r=1.0)
        for mask in (0b001, 0b010, 0b100):
            assert p_plus(Configuration(mask, 3), model) == pytest.approx(2 / 9, abs=1e-15)
            assert p_minus(Configuration(mask, 3), model) == pytest.approx(2 / 9, abs=1e-15)

    def test_absorbing_states_have_zero_rates(self):
        model = galanis_model(2.0)
        assert p_plus(Configuration(0b111, 3), model) == 0.0
        assert p_minus(Configuration(0b000, 3), model) == 0.0

    def test_galanis_single_mutant_stationary(self):
        model = galanis_model(1.0)
        x = Configuration(0b001, 3)
        assert p_plus(x, model) == pytest.approx(2 / 7, abs=1e-15)
        assert p_minus(x, model) == pytest.approx(2 / 7, abs=1e-15)

    def test_complete_graph_reduction_all_levels(self):
        rng = np.random.default_rng(31)
        for n in (2, 4, 7):
            for r in (0.5, 1.0, 2.0, float(rng.uniform(0.2, 5.0))):
                model = build_model(complete_graph_weights(n), mu="uniform", r=r)
                for mask in range(1, (1 << n) - 1):
                    j = mask.bit_count()
                    x = Configuration(mask, n)
                    assert abs(p_plus(x, model) - classic_p_plus(j, n, r)) <= 1e-12
                    assert abs(p_minus(x, model) - classic_p_minus(j, n, r)) <= 1e-12

    def test_matches_brute_force_level_masses(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            model = random_model(rng)
            n = model.n
            mask = int(rng.integers(1, (1 << n) - 1))
            masses, _ = brute_force_step(mask, model.W.entries.tolist(),
                                         model.mu.mu.tolist(), model.r)
            level = mask.bit_count()
            up = sum(p for t, p in masses.items() if t.bit_count() == level + 1)
            down = sum(p for t, p in masses.items() if t.bit_count() == level - 1)
            x = Configuration(mask, n)
            assert abs(p_plus(x, model) - up) <= 1e-12
            assert abs(p_minus(x, model) - down) <= 1e-12

    def test_stationary_ratio_is_inverse_fitness(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            W = random_strongly_connected_weights(n, rng)
            pi = stationary_distribution(W).pi
            for r in (0.25, 0.5, 1.0, 2.0, 4.0):
                model = build_model(W, mu=pi, r=r)
                for mask in range(1, (1 << n) - 1):
                    x = Configuration(mask, n)
                    assert abs(p_minus(x, model) / p_plus(x, model) - 1.0 / r) <= 1e-12

    def test_drift_identities_under_stationary_selection(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(2, 8))
            W = random_strongly_connected_weights(n, rng)
            pi = stationary_distribution(W).pi
            for r in (0.5, 1.0, 3.0):
                model = build_model(W, mu=pi, r=r)
                for mask in range(1, (1 << n) - 1):
                    x = Configuration(mask, n)
                    pp, pm = p_plus(x, model), p_minus(x, model)
                    xv = x.vector()
                    z = float(xv @ pi)
                    quad = float(xv @ (model.mu.mu[:, None] * model.W.entries) @ xv)
                    expected = (r - 1.0) / (1.0 + (r - 1.0) * z) * (z - quad)
                    assert abs((pp - pm) - expected) <= 1e-12
                    assert abs(r * pm + (1.0 - pp - pm) + pp / r - 1.0) <= 1e-12

    def test_nonstationary_policy_leaves_single_mutant_witness(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            model = random_model(rng)
            gap = model.stationarity_gap()
            if gap <= 1e-6:
                continue
            r = model.r
            devs = [abs(p_minus(Configuration(1 << v, model.n), model)
                        / p_plus(Configuration(1 << v, model.n), model) - 1.0 / r)
                    for v in range(model.n)]
            assert max(devs) > 0.0


class TestStepDistribution:
    def test_absorbing_is_pure_idle(self):
        model = galanis_model(1.5)
        for mask in (0b000, 0b111):
            dist = step_distribution(Configuration(mask, 3), model)
            assert dist.transitions == ()
            assert dist.idle_probability == pytest.approx(1.0, abs=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            model = random_model(rng, positive_mu=False)
            n = model.n
            mask = int(rng.integers(0, 1 << n))
            dist = step_distribution(Configuration(mask, n), model)
            masses, idle = brute_force_step(mask, model.W.entries.tolist(),
                                            model.mu.mu.tolist(), model.r)
            got = {t.bits: p for t, p in dist.transitions}
            for target, p in masses.items():
                assert abs(got.pop(target, 0.0) - p) <= 1e-12
            assert all(p <= 1e-12 for p in got.values())
            assert abs(dist.idle_probability - idle) <= 1e-12
            assert abs(dist.total() - 1.0) <= 1e-12

    def test_targets_are_single_bit_flips_sorted(self):
        model = galanis_model(2.0)
        dist = step_distribution(Configuration(0b011, 3), model)
        bits = [t.bits for t, _ in dist.transitions]
        assert bits == sorted(bits)
        assert all((t ^ 0b011).bit_count() == 1 for t in bits)

    def test_two_vertex_masses(self):
        # state 0b10 = mutant on vertex 2
        rng = np.random.default_rng(3)
        for _ in range(10):
            w1, w2 = rng.uniform(0.1, 1.0, 2)
            m = float(rng.uniform(0.0, 1.0))
            r = float(rng.uniform(0.25, 4.0))
            model = build_model(two_vertex_weights(w1, w2), mu=[m, 1.0 - m], r=r)
            dist = step_distribution(Configuration(0b10, 2), model)
            got = {t.bits: p for t, p in dist.transitions}
            denom = 1.0 + (r - 1.0) * (1.0 - m)
            assert got.get(0b11, 0.0) == pytest.approx(r * (1 - m) * w2 / denom, abs=1e-15)
            assert got.get(0b00, 0.0) == pytest.approx(m * w1 / denom, abs=1e-15)


def expected_three_vertex_kernel(W, r):
    """8x8 kernel for a general 3-vertex graph under uniform selection."""
    w = W
    full = {}
    lo = 1.0 / (r + 2.0)        # wildtype parent weight at one mutant
    lo_m = r / (r + 2.0)        # mutant parent weight at one mutant
    hi = 1.0 / (2.0 * r + 1.0)  # wildtype parent weight at two mutants
    hi_m = r / (2.0 * r + 1.0)  # mutant parent weight at two mutants
    full[(0b010, 0b000)] = (w[0][1] + w[2][1]) * lo
    full[(0b010, 0b011)] = w[1][0] * lo_m
    full[(0b010, 0b110)] = w[1][2] * lo_m
    full[(0b100, 0b000)] = (w[1][2] + w[0][2]) * lo
    full[(0b100, 0b110)] = w[2][1] * lo_m
    full[(0b100, 0b101)] = w[2][0] * lo_m
    full[(0b001, 0b000)] = (w[1][0] + w[2][0]) * lo
    full[(0b001, 0b011)] = w[0][1] * lo_m
    full[(0b001, 0b101)] = w[0][2] * lo_m
    full[(0b011, 0b010)] = w[2][0] * hi
    full[(0b011, 0b001)] = w[2][1] * hi
    full[(0b011, 0b111)] = (w[1][2] + w[0][2]) * hi_m
    full[(0b110, 0b010)] = w[0][2] * hi
    full[(0b110, 0b100)] = w[0][1] * hi
    full[(0b110, 0b111)] = (w[1][0] + w[2][0]) * hi_m
    full[(0b101, 0b001)] = w[1][2] * hi
    full[(0b101, 0b100)] = w[1][0] * hi
    full[(0b101, 0b111)] = (w[2][1] + w[0][1]) * hi_m
    P = np.zeros((8, 8))
    for (src, dst), p in full.items():
        P[src, dst] = p
    for mask in range(1, 7):
        P[mask, mask] = 1.0 - P[mask].sum()
    P[0, 0] = 1.0
    P[7, 7] = 1.0
    return P


class TestTransitionKernel:
    def test_three_vertex_table(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            W = random_strongly_connected_weights(3, rng)
            r = float(rng.uniform(0.25, 4.0))
            model = build_model(W, mu="uniform", r=r)
            expected = expected_three_vertex_kernel(W.entries.tolist(), r)
            assert np.max(np.abs(transition_kernel(model).P.toarray() - expected)) <= 1e-12

    def test_two_vertex_table(self):
        rng = np.random.default_rng(15)
        w1, w2 = rng.uniform(0.1, 1.0, 2)
        m = float(rng.uniform(0.0, 1.0))
        r = float(rng.uniform(0.25, 4.0))
        model = build_model(two_vertex_weights(w1, w2), mu=[m, 1 - m], r=r)
        d1 = 1.0 + (r - 1.0) * (1.0 - m)
        d2 = 1.0 + (r - 1.0) * m
        expected = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [(1 - m) * w2 / d2, 1 - ((1 - m) * w2 + r * m * w1) / d2, 0.0, r * m * w1 / d2],
            [m * w1 / d1, 0.0, 1 - (m * w1 + r * (1 - m) * w2) / d1, r * (1 - m) * w2 / d1],
            [0.0, 0.0, 0.0, 1.0],
        ])
        assert np.max(np.abs(transition_kernel(model).P.toarray() - expected)) <= 1e-12

    def test_rows_stochastic_and_absorbing_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            model = random_model(rng)
            kernel = transition_kernel(model)
            P = kernel.P.toarray()
            size = kernel.size
            assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
            assert P[0, 0] == 1.0 and np.count_nonzero(P[0]) == 1
            assert P[size - 1, size - 1] == 1.0 and np.count_nonzero(P[size - 1]) == 1

    def test_sparsity_pattern_single_bit_flips(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, n=5)
        kernel = transition_kernel(model)
        for src, dst, _ in kernel.entries():
            assert src == dst or (src ^ dst).bit_count() == 1

    def test_rows_equal_step_distribution(self):
        rng = np.random.default_rng(18)
        model = random_model(rng, n=4)
        kernel = transition_kernel(model)
        for mask in range(1, 15):
            dist = step_distribution(Configuration(mask, 4), model)
            row = kernel.row(mask)
            assert row[mask] == dist.idle_probability
            for target, p in dist.transitions:
                assert row[target.bits] == p

    def test_size_bound(self):
        model = build_model(complete_graph_weights(21), mu="uniform", r=1.0)
        with pytest.raises(TooLarge):
            transition_kernel(model)
        with pytest.raises(TooLarge):
            fixation_probabilities(model)


class TestFlipMasses:
    def test_rows_match_brute_force(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            model = random_model(rng)
            n = model.n
            masks = np.arange(1 << n)
            flips = flip_masses(model, masks)
            assert flips.shape == (1 << n, n)
            for mask in masks.tolist():
                masses, _ = brute_force_step(mask, model.W.entries.tolist(),
                                             model.mu.mu.tolist(), model.r)
                for u in range(n):
                    assert abs(flips[mask, u] - masses.get(mask ^ (1 << u), 0.0)) <= 1e-12

    def test_rows_do_not_depend_on_the_batch(self):
        rng = np.random.default_rng(23)
        for n, stride in ((9, 7), (16, 997)):  # 16 bits pass the table's 14
            models = [random_model(rng, n=n) for _ in range(3)]
            model = models[0]
            masks = np.arange(1 << n)
            batch = flip_masses(model, masks)
            for mask in [*range(0, 1 << n, stride), (1 << n) - 1]:
                assert np.array_equal(flip_masses(model, [mask])[0], batch[mask])
            assert np.array_equal(flip_masses(model, masks[::-1]), batch[::-1])
            subset = rng.choice(1 << n, 300, replace=False)
            assert np.array_equal(flip_masses(model, subset), batch[subset])
            stack = _flip_masses(np.stack([m.W.entries for m in models]),
                                 np.stack([m.mu.mu for m in models]),
                                 np.array([m.r for m in models]), masks)
            assert np.array_equal(stack[0], batch)
            for flips, other in zip(stack[1:], models[1:]):
                assert np.array_equal(flips, flip_masses(other, masks))

    def test_totals_sum_in_vertex_order(self):
        # bit for bit the last column of a cumulative sum, on a stack and on one model
        rng = np.random.default_rng(24)
        models = [random_model(rng, n=9) for _ in range(4)]
        stack = _flip_masses(np.stack([m.W.entries for m in models]),
                             np.stack([m.mu.mu for m in models]),
                             np.array([m.r for m in models]), np.arange(1 << 9))
        for flips in (stack, stack[0]):
            expected = np.cumsum(flips, axis=-1)[..., -1]
            assert _flip_totals(flips).tobytes() == expected.tobytes()


class TestWideMasks:
    """Masks of a 70-vertex model, beyond the 64 bits of a machine integer."""

    def test_level_rates_match_the_well_mixed_law(self):
        mask = (1 << 69) | (1 << 64) | (1 << 63) | 0b1011
        for r in (1.0, 1.5, 0.4):
            model = build_model(complete_graph_weights(70), mu="uniform", r=r)
            x = Configuration(mask, 70)
            assert abs(p_plus(x, model) - classic_p_plus(6, 70, r)) <= 1e-12
            assert abs(p_minus(x, model) - classic_p_minus(6, 70, r)) <= 1e-12

    def test_single_mutant_witness_at_the_top_vertex(self):
        # on the complete graph (mu W)_v = 1/n, so for x = e_v the deviation is
        # |1/n - mu_v| / (r mu_v (1 - 1/n)), largest at the smallest mu_v: vertex 70
        n, r = 70, 1.5
        mu = np.linspace(2.0, 1.0, n)
        mu /= mu.sum()
        model = build_model(complete_graph_weights(n), mu=mu, r=r)
        mask, deviation = single_mutant_ratio_witness(model)
        assert mask == 1 << 69
        expected = abs(1.0 / n - mu[-1]) / (r * mu[-1] * (1.0 - 1.0 / n))
        assert abs(deviation - expected) <= 1e-12

    def test_flip_masses_beyond_64_bits(self):
        model = build_model(complete_graph_weights(70), mu="uniform", r=1.5)
        mask = (1 << 69) | (1 << 63) | 0b101
        flips = flip_masses(model, [mask, 1 << 69])
        assert flips.shape == (2, 70)
        for row, m in zip(flips, (mask, 1 << 69)):
            masses, _ = brute_force_step(m, model.W.entries.tolist(), model.mu.mu.tolist(), 1.5)
            for u in range(70):
                assert abs(row[u] - masses.get(m ^ (1 << u), 0.0)) <= 1e-12

    def test_mask_wider_than_the_model_is_rejected(self):
        model = build_model(complete_graph_weights(70), mu="uniform", r=1.5)
        for bad in (1 << 70, -1):
            with pytest.raises(LevelOutOfRange):
                flip_masses(model, [bad])
