import numpy as np
import pytest

from spatialmoran import (
    Configuration,
    GALANIS_WEIGHTS,
    LevelOutOfRange,
    NotStochastic,
    NotStronglyConnected,
    SelectionPolicy,
    complete_graph_weights,
    enumerate_level,
    is_isothermal,
    random_doubly_stochastic,
    random_strongly_connected_weights,
    stationary_distribution,
    two_vertex_weights,
    validate_weight_matrix,
)
from spatialmoran.graph import _mask_bits_from_bytes, level_masks, mask_bits


class TestValidateWeightMatrix:
    def test_two_vertex_full_cross_weights(self):
        W = validate_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        assert W.n == 2
        assert np.array_equal(W.entries, [[0.0, 1.0], [1.0, 0.0]])

    def test_identity_not_strongly_connected(self):
        with pytest.raises(NotStronglyConnected):
            validate_weight_matrix([[1.0, 0.0], [0.0, 1.0]])

    def test_bad_row_sum(self):
        with pytest.raises(NotStochastic):
            validate_weight_matrix([[0.5, 0.6], [0.5, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(NotStochastic):
            validate_weight_matrix([[1.2, -0.2], [0.5, 0.5]])

    def test_rejects_non_square_and_tiny(self):
        with pytest.raises(NotStochastic):
            validate_weight_matrix([[0.5, 0.5]])
        with pytest.raises(NotStochastic):
            validate_weight_matrix([[1.0]])

    @pytest.mark.parametrize("raw", [[[0.5, 0.5], [1.0]], [[0.5, "a"], [1, 0]]],
                             ids=["ragged", "string"])
    def test_rows_that_make_no_array_of_numbers(self, raw):
        with pytest.raises(NotStochastic):
            validate_weight_matrix(raw)

    def test_two_cycles_joined_one_way_rejected(self):
        # cycles 1 -> 2 -> 1 and 3 -> 4 -> 3, with the only link 2 -> 3
        W = [[0.0, 1.0, 0.0, 0.0],
             [0.5, 0.0, 0.5, 0.0],
             [0.0, 0.0, 0.0, 1.0],
             [0.0, 0.0, 1.0, 0.0]]
        with pytest.raises(NotStronglyConnected):
            validate_weight_matrix(W)

    def test_self_loops_ignored_for_connectivity(self):
        # loops alone must not connect anything
        W = [[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.1, 0.0, 0.9]]
        assert validate_weight_matrix(W).n == 3

    def test_entries_frozen(self):
        W = validate_weight_matrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            W.entries[0, 0] = 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NotStochastic):
            validate_weight_matrix([[bad, 1.0], [1.0, 0.0]])
        with pytest.raises(NotStochastic):
            validate_weight_matrix([[0.0, 1.0], [bad, 0.0]])


class TestSelectionPolicy:
    @pytest.mark.parametrize("mu", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0],
                                    [np.inf, -np.inf], [np.nan, np.nan]])
    def test_non_finite_entry_rejected(self, mu):
        with pytest.raises(NotStochastic):
            SelectionPolicy(np.array(mu))


class TestStationaryDistribution:
    def test_galanis_values(self):
        pi = stationary_distribution(validate_weight_matrix(GALANIS_WEIGHTS)).pi
        assert np.max(np.abs(pi - [2 / 7, 2 / 7, 3 / 7])) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_complete_graph_uniform(self, n):
        pi = stationary_distribution(complete_graph_weights(n)).pi
        assert np.max(np.abs(pi - 1.0 / n)) <= 1e-12

    @pytest.mark.parametrize("w1,w2", [(1.0, 1.0), (0.3, 0.6), (0.9, 0.2)])
    def test_two_vertex_closed_form(self, w1, w2):
        c = w1 / w2
        pi = stationary_distribution(two_vertex_weights(w1, w2)).pi
        assert np.max(np.abs(pi - [1 / (c + 1), c / (c + 1)])) <= 1e-12

    def test_fixed_point_residual_random(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            W = random_strongly_connected_weights(n, rng)
            pi = stationary_distribution(W).pi
            assert np.max(np.abs(pi @ W.entries - pi)) <= 1e-12
            assert np.all(pi > 0)
            assert abs(pi.sum() - 1.0) <= 1e-12


class TestIsothermal:
    def test_complete_graph(self):
        assert is_isothermal(complete_graph_weights(4))

    def test_galanis_is_not(self):
        assert not is_isothermal(validate_weight_matrix(GALANIS_WEIGHTS))

    def test_symmetric_stochastic_is_isothermal(self):
        # symmetric + row-stochastic forces equal column sums
        n = 5
        shift = np.roll(np.eye(n), 1, axis=1)
        W = validate_weight_matrix(0.5 * np.eye(n) + 0.25 * (shift + shift.T))
        assert np.array_equal(W.entries, W.entries.T)
        assert is_isothermal(W)

    def test_isothermal_implies_uniform_stationary(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            W = random_doubly_stochastic(n, rng)
            assert is_isothermal(W)
            pi = stationary_distribution(W).pi
            assert np.max(np.abs(pi - 1.0 / n)) <= 1e-10


class TestConfigurations:
    def test_level_boundaries(self):
        assert Configuration(0, 4).level == 0
        assert Configuration(0b1111, 4).level == 4
        assert Configuration(0b101, 3).level == 2

    def test_level_matches_vector_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 16))
            mask = int(rng.integers(0, 1 << n))
            x = Configuration(mask, n)
            assert x.level == int(x.vector().sum())

    def test_vector_of_a_mask_wider_than_64_bits(self):
        mask = (1 << 69) | (1 << 64) | 0b101
        x = Configuration(mask, 70).vector()
        assert np.flatnonzero(x).tolist() == [0, 2, 64, 69]
        assert x.sum() == Configuration(mask, 70).level

    def test_mask_must_fit(self):
        with pytest.raises(LevelOutOfRange):
            Configuration(0b1000, 3)

    def test_complement(self):
        x = Configuration(0b011, 3)
        assert x.complement().bits == 0b100
        assert x.complement().level == 1

    def test_absorbing_flags(self):
        assert Configuration(0, 3).is_absorbing
        assert Configuration(7, 3).is_absorbing
        assert not Configuration(5, 3).is_absorbing


class TestEnumerateLevel:
    def test_small_cases(self):
        assert [c.bits for c in enumerate_level(3, 1)] == [0b001, 0b010, 0b100]
        assert [c.bits for c in enumerate_level(3, 0)] == [0b000]
        assert len(enumerate_level(4, 2)) == 6

    def test_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            enumerate_level(3, 4)
        with pytest.raises(LevelOutOfRange):
            enumerate_level(3, -1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_levels_partition_all_masks(self, n):
        seen = []
        for j in range(n + 1):
            level = enumerate_level(n, j)
            assert all(c.level == j for c in level)
            assert [c.bits for c in level] == sorted(c.bits for c in level)
            seen.extend(c.bits for c in level)
        assert sorted(seen) == list(range(1 << n))

    def test_level_masks_are_the_configurations_in_mask_order(self):
        for n in range(1, 9):
            for j in range(n + 1):
                masks = level_masks(n, j)
                assert masks == sorted(m for m in range(1 << n) if m.bit_count() == j)
                assert masks == [c.bits for c in enumerate_level(n, j)]
        assert level_masks(70, 1) == [1 << v for v in range(70)]
        with pytest.raises(LevelOutOfRange):
            level_masks(3, 4)


class TestMaskBits:
    def test_rows_are_the_bits_of_each_mask(self):
        for n in (1, 5, 8, 9, 16):
            masks = np.arange(1 << min(n, 10))
            bits = mask_bits(masks, n)
            assert bits.shape == (len(masks), n) and bits.dtype == bool
            expected = [[(m >> v) & 1 == 1 for v in range(n)] for m in masks.tolist()]
            assert bits.tolist() == expected

    def test_any_width(self):
        masks = [(1 << 69) | 1, (1 << 64) | (1 << 63), (1 << 70) - 1]
        bits = mask_bits(masks, 70)
        assert np.flatnonzero(bits[0]).tolist() == [0, 69]
        assert np.flatnonzero(bits[1]).tolist() == [63, 64]
        assert bits[2].all()

    @pytest.mark.parametrize("n", [1, 8, 16, 63, 70])
    def test_word_view_matches_the_byte_expansion(self, n):
        # masks of up to 63 bits are read as int64 words, wider ones through int.to_bytes
        rng = np.random.default_rng(n)
        top = min(n, 63)
        masks = [0, (1 << top) - 1] + [int(word) >> (64 - top) for word in
                                       rng.integers(0, 2**64, 300, dtype=np.uint64)]
        expected = _mask_bits_from_bytes(masks, n).tolist()
        assert mask_bits(masks, n).tolist() == expected
        assert mask_bits(np.array(masks, dtype=np.int64), n).tolist() == expected

    @pytest.mark.parametrize("mask, n", [(-1, 3), (8, 3), (1 << 70, 70), (1 << 72, 70)])
    def test_mask_outside_the_width_rejected(self, mask, n):
        with pytest.raises(LevelOutOfRange):
            mask_bits([0, mask], n)
