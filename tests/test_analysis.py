import numpy as np
import pytest

from spatialmoran import (
    Configuration,
    DegenerateCase,
    GalanisParams,
    N2Params,
    OutOfRange,
    build_model,
    classic_moran_check,
    classic_p_minus,
    classic_p_plus,
    complete_graph_weights,
    fixation_for_initial,
    galanis_case3_initial_weight,
    galanis_case3_residual,
    galanis_model,
    galanis_moran_condition,
    galanis_neutral_fixation,
    is_isothermal,
    macro_markov_check,
    martingale_report,
    moran_rho,
    n2_F,
    n2_fixation_closed_form,
    n2_moran_selection,
    p_plus,
    random_strongly_connected_weights,
    ratio_constancy,
    single_mutant_ratio_witness,
    stationary_distribution,
    sweep_n2,
    two_vertex_weights,
)
from spatialmoran import analysis
from spatialmoran.analysis import STRUCTURAL_TOL
from spatialmoran.dynamics import _level_rates
from spatialmoran.verification import describe_model


class TestMartingaleReport:
    def test_stationary_neutral_drift_vanishes(self):
        report = martingale_report(galanis_model(1.0))
        assert report.max_abs_drift <= 1e-12

    def test_stationary_exponential_drift_vanishes_for_any_fitness(self):
        for r in (0.25, 0.5, 1.0, 2.0, 4.0):
            report = martingale_report(galanis_model(r))
            assert report.max_abs_exp_drift <= 1e-12

    def test_nonstationary_policy_drifts(self):
        report = martingale_report(galanis_model(1.0, mu=[0.6, 0.2, 0.2]))
        assert report.max_abs_drift > 1e-6

    def test_covers_every_transient_configuration(self):
        report = martingale_report(galanis_model(2.0))
        assert len(report.drift) == 8 and report.drift[0] == report.drift[7] == 0.0
        assert len(report.exp_drift) == 8 and report.exp_drift[0] == report.exp_drift[7] == 0.0


class TestRatioConstancy:
    def test_stationary_policy_is_tight(self):
        rng = np.random.default_rng(200)
        for _ in range(6):
            n = int(rng.integers(2, 8))
            W = random_strongly_connected_weights(n, rng)
            for r in (0.5, 1.0, 3.0):
                assert ratio_constancy(build_model(W, mu="stationary", r=r)) <= 1e-12

    def test_uniform_policy_on_galanis_deviates(self):
        assert ratio_constancy(galanis_model(1.0, mu="uniform")) > 1e-6

    def test_two_vertex_stationary_selection(self):
        c = 1.0 / 0.4
        model = build_model(two_vertex_weights(1.0, 0.4), mu=[1 / (c + 1), c / (c + 1)], r=2.0)
        assert ratio_constancy(model) <= 1e-12

    def test_single_mutant_witness(self):
        rng = np.random.default_rng(201)
        for _ in range(6):
            n = int(rng.integers(3, 8))
            W = random_strongly_connected_weights(n, rng)
            mu = rng.uniform(0.1, 1.0, n)
            mu /= mu.sum()
            model = build_model(W, mu=mu, r=2.0)
            if np.max(np.abs(mu @ W.entries - mu)) <= 1e-6:
                continue
            mask, deviation = single_mutant_ratio_witness(model)
            assert mask.bit_count() == 1
            assert deviation > 0.0


class TestMacroMarkov:
    def test_complete_graph_projects(self):
        for n in (2, 3, 5):
            model = build_model(complete_graph_weights(n), mu="uniform", r=2.0)
            assert macro_markov_check(model).lumpable

    def test_galanis_is_not_lumpable_with_level_one_witness(self):
        model = galanis_model(1.0)
        result = macro_markov_check(model)
        assert not result.lumpable
        level, mask_a, mask_b = result.witness
        assert level == 1
        values = sorted(p_plus(Configuration(mask, 3), model) for mask in (mask_a, mask_b))
        assert values[0] == pytest.approx(2 / 7, abs=1e-15)
        assert values[1] == pytest.approx(3 / 7, abs=1e-15)

    def test_generic_two_vertex_is_not_lumpable(self):
        model = build_model(two_vertex_weights(0.9, 0.3), mu=[0.5, 0.5], r=1.0)
        result = macro_markov_check(model)
        assert not result.lumpable and result.witness[0] == 1

    def test_symmetric_two_vertex_is_lumpable(self):
        model = build_model(two_vertex_weights(0.7, 0.7), mu=[0.5, 0.5], r=3.0)
        assert macro_markov_check(model).lumpable


class TestN2ClosedForm:
    def test_stationary_policy_gives_reference_for_every_start(self):
        for c in (0.5, 2.0, 5.0):
            for r in (0.5, 1.0, 3.0):
                for a in np.linspace(0, 1, 7):
                    p = N2Params(a=float(a), m=1.0 / (c + 1.0), c=c, r=r)
                    assert n2_fixation_closed_form(p) == pytest.approx(r / (r + 1), abs=1e-12)
                    assert n2_F(p) == pytest.approx(1.0, abs=1e-12)

    def test_forced_fixation_corner(self):
        # a = 1, m = 0: the start is the mutant at vertex 2 and only vertex 2
        # ever reproduces, so fixation is certain
        p = N2Params(a=1.0, m=0.0, c=2.0, r=3.0)
        assert n2_fixation_closed_form(p) == pytest.approx(1.0, abs=1e-15)

    def test_agrees_with_exact_solver_on_grid(self):
        for c in (0.5, 2.0):
            for r in (0.5, 2.0):
                for a in np.linspace(0, 1, 5):
                    for m in np.linspace(0, 1, 5):
                        p = N2Params(a=float(a), m=float(m), c=c, r=r)
                        exact = fixation_for_initial(p.model(), p.initial_distribution())
                        assert abs(n2_fixation_closed_form(p) - exact) <= 1e-12

    def test_parameter_validation(self):
        with pytest.raises(OutOfRange):
            N2Params(a=1.2, m=0.5, c=1.0, r=1.0)
        with pytest.raises(OutOfRange):
            N2Params(a=0.5, m=0.5, c=-1.0, r=1.0)


class TestN2MoranSelection:
    def test_neutral_midpoint(self):
        assert n2_moran_selection(0.5, 2.0, 1.0) == 0.0
        assert n2_F(N2Params(a=0.5, m=0.0, c=2.0, r=1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_bracket_endpoint_gives_zero(self):
        for r in (0.5, 2.0, 4.0):
            assert n2_moran_selection(r / (r + 1.0), 3.0, r) == pytest.approx(0.0, abs=1e-12)

    def test_right_inverse_on_random_draws(self):
        rng = np.random.default_rng(300)
        found = 0
        while found < 100:
            r = float(rng.uniform(0.25, 4.0))
            if abs(r - 1.0) < 0.05:
                continue
            c = float(rng.uniform(0.25, 4.0))
            lo, hi = min(1.0, r) / (r + 1.0), max(1.0, r) / (r + 1.0)
            a = float(rng.uniform(lo, hi))
            m = n2_moran_selection(a, c, r)
            assert 0.0 <= m <= 1.0
            assert n2_F(N2Params(a=a, m=m, c=c, r=r)) == pytest.approx(1.0, abs=1e-12)
            found += 1

    def test_outside_bracket_rejected(self):
        with pytest.raises(OutOfRange):
            n2_moran_selection(0.95, 2.0, 2.0)

    def test_degenerate_case(self):
        with pytest.raises(DegenerateCase):
            n2_moran_selection(0.5, 1.0, 1.0)


class TestN2Symmetries:
    """Exact invariances of the normalised surface.

    Swapping the vertex labels flips both axes and inverts the weight ratio:
    F(m, a | c, r) == F(1-m, 1-a | 1/c, r).  Swapping the two types flips the
    initial weight, inverts the fitness, and exchanges fixation with
    extinction, which is affine in F:
    F(m, 1-a | c, 1/r) == (r + 1) - r F(m, a | c, r).
    """

    @staticmethod
    def _points(count, seed):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                   float(rng.uniform(0.25, 4)), float(rng.uniform(0.25, 4)))

    def test_vertex_relabelling(self):
        for m, a, c, r in self._points(60, 301):
            lhs = n2_F(N2Params(a=a, m=m, c=c, r=r))
            rhs = n2_F(N2Params(a=1 - a, m=1 - m, c=1 / c, r=r))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_type_swap_duality(self):
        for m, a, c, r in self._points(60, 302):
            lhs = n2_F(N2Params(a=1 - a, m=m, c=c, r=1 / r))
            rhs = (r + 1.0) - r * n2_F(N2Params(a=a, m=m, c=c, r=r))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_unit_level_set_maps(self):
        # the duality is the identity on the F == 1 set, so the a-flip with
        # r-inversion stays on the set even though it moves values elsewhere;
        # the m-flip needs both c and r inverted to do the same
        rng = np.random.default_rng(303)
        found = 0
        while found < 30:
            r = float(rng.uniform(0.25, 4.0))
            if abs(r - 1.0) < 0.05:
                continue
            c = float(rng.uniform(0.25, 4.0))
            lo, hi = min(1.0, r) / (r + 1.0), max(1.0, r) / (r + 1.0)
            a = float(rng.uniform(lo, hi))
            m = n2_moran_selection(a, c, r)
            assert n2_F(N2Params(a=1 - a, m=m, c=c, r=1 / r)) == pytest.approx(1.0, abs=1e-12)
            assert n2_F(N2Params(a=a, m=1 - m, c=1 / c, r=1 / r)) == pytest.approx(1.0, abs=1e-12)
            found += 1

    def test_stationary_line_survives_every_swap(self):
        # m = 1/(c+1) maps to 1/(1/c+1) under the m-flip with c-inversion, so
        # the a-independent branch of the unit set is preserved even at fixed r
        for c in (0.4, 1.0, 2.5):
            for r in (0.5, 2.0):
                for a in (0.0, 0.3, 1.0):
                    m = 1.0 / (c + 1.0)
                    assert n2_F(N2Params(a=a, m=1 - m, c=1 / c, r=r)) == pytest.approx(1.0, abs=1e-12)


class TestSweep:
    def test_shape_and_axis_order(self):
        values = sweep_n2(2.0, 3.0, 11)
        assert values.shape == (11, 11)
        # row index is a, column index is m
        p = N2Params(a=0.2, m=0.7, c=2.0, r=3.0)
        assert values[2, 7] == pytest.approx(n2_F(p), abs=1e-12)

    def test_stationary_column_is_unit(self):
        values = sweep_n2(1.0, 4.0, 201)
        stationary_col = 100  # m = 0.5 = 1/(c+1) for c = 1
        assert np.max(np.abs(values[:, stationary_col] - 1.0)) <= 1e-12

    def test_grid_too_small(self):
        with pytest.raises(OutOfRange):
            sweep_n2(1.0, 1.0, 1)

    def test_mirror_between_inverse_ratio_sweeps(self):
        # vertex relabelling: flip both axes when inverting c
        a_sweep = sweep_n2(2.5, 1.7, 41)
        b_sweep = sweep_n2(1 / 2.5, 1.7, 41)
        assert np.max(np.abs(a_sweep - b_sweep[::-1, ::-1])) <= 1e-12

    def test_neutral_unit_ratio_surface(self):
        # at c = r = 1 the surface is 2(a + m - 2am): unit on the two
        # centre lines, not on the whole square
        values = sweep_n2(1.0, 1.0, 21)
        assert np.max(np.abs(values[10, :] - 1.0)) <= 1e-12
        assert np.max(np.abs(values[:, 10] - 1.0)) <= 1e-12
        assert values[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert values[0, 20] == pytest.approx(2.0, abs=1e-15)


class TestGalanis:
    def test_model_basics(self):
        model = galanis_model(1.0)
        pi = stationary_distribution(model.W).pi
        assert np.max(np.abs(pi - [2 / 7, 2 / 7, 3 / 7])) <= 1e-12
        assert not is_isothermal(model.W)

    def test_first_two_vertices_interchangeable_under_stationary(self):
        model = galanis_model(1.0)
        assert p_plus(Configuration(0b001, 3), model) == pytest.approx(
            p_plus(Configuration(0b010, 3), model), abs=1e-15)

    def test_uniform_initial_weights_force_reference(self):
        rng = np.random.default_rng(400)
        for _ in range(10):
            m = rng.dirichlet(np.ones(3))
            g = GalanisParams(a1=1 / 3, a2=1 / 3, m1=float(m[0]), m2=float(m[1]))
            assert galanis_neutral_fixation(g) == pytest.approx(1 / 3, abs=1e-12)

    def test_frozen_example_value(self):
        g = GalanisParams(a1=1 / 9, a2=0.0, m1=2 / 7, m2=0.5)
        assert galanis_neutral_fixation(g) == pytest.approx((13 / 14) / (39 / 14), abs=1e-15)
        assert galanis_neutral_fixation(g) == pytest.approx(1 / 3, abs=1e-15)

    def test_formula_matches_exact_solver(self):
        rng = np.random.default_rng(401)
        for _ in range(30):
            a = rng.dirichlet(np.ones(3))
            m = rng.dirichlet(np.ones(3))
            g = GalanisParams(a1=float(a[0]), a2=float(a[1]),
                              m1=float(m[0]), m2=float(m[1]))
            exact = fixation_for_initial(galanis_model(1.0, mu=g.policy()),
                                         g.initial_distribution())
            assert abs(galanis_neutral_fixation(g) - exact) <= 1e-10

    def test_case_classification(self):
        assert galanis_moran_condition(GalanisParams(1 / 3, 1 / 3, 0.9, 0.05))[0] == "case1"
        assert galanis_moran_condition(GalanisParams(1 / 9, 0.0, 2 / 7, 0.5))[0] == "case2"
        a1 = galanis_case3_initial_weight(0.2, 0.5, 0.1)
        case, residual = galanis_moran_condition(GalanisParams(a1, 0.2, 0.5, 0.1))
        assert case == "case3"
        assert abs(residual) <= 1e-12
        assert galanis_moran_condition(GalanisParams(0.5, 0.1, 0.6, 0.2))[0] is None

    def test_any_classified_case_hits_reference(self):
        rng = np.random.default_rng(402)
        for _ in range(300):
            a = rng.dirichlet(np.ones(3))
            m = rng.dirichlet(np.ones(3))
            g = GalanisParams(a1=float(a[0]), a2=float(a[1]),
                              m1=float(m[0]), m2=float(m[1]))
            case, _ = galanis_moran_condition(g)
            if case is not None:
                assert galanis_neutral_fixation(g) == pytest.approx(1 / 3, abs=1e-10)
        # random draws rarely classify, so force the second family too
        for _ in range(10):
            a1 = float(rng.uniform(1 / 9, 7 / 15))
            g = GalanisParams(a1=a1, a2=(9 * a1 - 1) / 6, m1=2 / 7,
                              m2=float(rng.uniform(0, 5 / 7)))
            case, _ = galanis_moran_condition(g)
            assert case in ("case1", "case2")
            assert galanis_neutral_fixation(g) == pytest.approx(1 / 3, abs=1e-10)

    @pytest.mark.parametrize("params", [(-0.1, 0.2, 0.3, 0.3), (0.6, 0.5, 0.3, 0.3),
                                        (0.2, 0.2, 0.3, -0.1), (0.2, 0.2, 0.7, 0.4),
                                        (float("nan"), 0.2, 0.3, 0.3), (0.2, float("nan"), 0.3, 0.3),
                                        (0.2, 0.2, float("nan"), 0.3), (0.2, 0.2, 0.3, float("nan"))])
    def test_points_off_the_simplex_are_rejected(self, params):
        with pytest.raises(OutOfRange):
            GalanisParams(*params)

    def test_case3_residual_requires_separated_policy_weights(self):
        from spatialmoran import ZeroDenominator

        with pytest.raises(ZeroDenominator):
            galanis_case3_residual(GalanisParams(0.2, 0.2, 0.3, 0.3))


class TestClassicReduction:
    @pytest.mark.parametrize("n,r", [(3, 1.0), (5, 2.0), (2, 0.5), (8, 2.0)])
    def test_complete_graph_reduces(self, n, r):
        assert classic_moran_check(n, r) <= 1e-12

    def test_single_mutant_fixation_matches_reference(self):
        for n in (3, 5):
            for r in (0.5, 2.0):
                model = build_model(complete_graph_weights(n), mu="uniform", r=r)
                from spatialmoran import InitialDistribution

                value = fixation_for_initial(model, InitialDistribution.point_mass(1, n))
                assert value == pytest.approx(moran_rho(1, n, r), abs=1e-9)

    def test_size_guard(self):
        with pytest.raises(OutOfRange):
            classic_moran_check(13, 1.0)

    def test_a_stack_of_fitnesses_is_bitwise_each_alone(self):
        # the builtin suite reads each n's three fitnesses from one batch
        for n in range(2, 9):
            stacked = analysis._classic_deviations(n, np.array([0.5, 1.0, 2.0]))
            assert stacked.tolist() == [classic_moran_check(n, r) for r in (0.5, 1.0, 2.0)]


def brute_force_rates(model, mask):
    """``(p_plus, p_minus)`` of one configuration, summed over every ordered (parent, target) pair."""
    n, r = model.n, model.r
    W, mu = model.W.entries.tolist(), model.mu.mu.tolist()
    x = [(mask >> v) & 1 for v in range(n)]
    denom = 1.0 + (r - 1.0) * sum(mu[v] for v in range(n) if x[v])
    up = down = 0.0
    for v in range(n):
        s = (r if x[v] else 1.0) * mu[v] / denom
        for u in range(n):
            if x[v] and not x[u]:
                up += s * W[v][u]
            elif x[u] and not x[v]:
                down += s * W[v][u]
    return up, down


def brute_force_ratio(up, down, r):
    return abs(down / up - 1.0 / r) if up > 0.0 else float("inf")


def diagnostic_models():
    """Random models at n = 2..9: positive, stationary and zero-entry policies."""
    rng = np.random.default_rng(808)
    for n in range(2, 10):
        W = random_strongly_connected_weights(n, rng)
        mu = rng.uniform(0.05, 1.0, n)
        r = float(rng.uniform(0.25, 4.0))
        yield build_model(W, mu=mu / mu.sum(), r=r)
        yield build_model(W, mu="stationary", r=r)
        mu[rng.integers(n)] = 0.0
        yield build_model(W, mu=mu / mu.sum(), r=r)
    yield build_model(complete_graph_weights(6), mu="uniform", r=1.7)
    yield galanis_model(1.0)


class TestBatchedDiagnostics:
    """Each diagnostic against a per-configuration enumeration of (parent, target) pairs."""

    @pytest.fixture(scope="class")
    def cases(self):
        out = []
        for model in diagnostic_models():
            masks = range(1, (1 << model.n) - 1)
            out.append((model, {mask: brute_force_rates(model, mask) for mask in masks}))
        return out

    def test_martingale_report(self, cases):
        for model, rates in cases:
            r = model.r
            report = martingale_report(model)
            assert len(report.drift) == len(rates) + 2 == len(report.exp_drift)
            drift = {m: up - down for m, (up, down) in rates.items()}
            exp_drift = {m: r * down + (1.0 - up - down) + up / r - 1.0
                         for m, (up, down) in rates.items()}
            for mask in rates:
                assert abs(report.drift[mask] - drift[mask]) <= 1e-12
                assert abs(report.exp_drift[mask] - exp_drift[mask]) <= 1e-12
            assert abs(report.max_abs_drift - max(map(abs, drift.values()))) <= 1e-12
            assert abs(report.max_abs_exp_drift - max(map(abs, exp_drift.values()))) <= 1e-12

    def test_ratio_constancy(self, cases):
        zero_up = 0
        for model, rates in cases:
            worst = max(brute_force_ratio(up, down, model.r) for up, down in rates.values())
            value = ratio_constancy(model)
            if worst == float("inf"):
                zero_up += 1
                assert value == float("inf")
            else:
                assert abs(value - worst) <= 1e-12 * max(1.0, worst)
        assert zero_up >= 8  # every zero-entry policy has a configuration with p_plus = 0

    def test_single_mutant_ratio_witness(self, cases):
        for model, rates in cases:
            devs = [brute_force_ratio(*rates[1 << v], model.r) for v in range(model.n)]
            best = max(range(model.n), key=lambda v: (devs[v], -v))
            mask, deviation = single_mutant_ratio_witness(model)
            if devs[best] <= 1e-12:  # stationary policy: the mask is a pick among rounding noise
                assert deviation <= 1e-12 and mask.bit_count() == 1
                continue
            assert mask == 1 << best
            if devs[best] == float("inf"):
                assert deviation == float("inf")
            else:
                assert abs(deviation - devs[best]) <= 1e-12 * max(1.0, devs[best])

    def test_macro_markov_witness(self, cases):
        lumpable = 0
        for model, rates in cases:
            expected = None
            for level in range(1, model.n):
                masks = [m for m in rates if m.bit_count() == level]
                ref = rates[masks[0]]
                later = [m for m in masks[1:] if abs(rates[m][0] - ref[0]) > STRUCTURAL_TOL
                         or abs(rates[m][1] - ref[1]) > STRUCTURAL_TOL]
                if later:
                    expected = (level, masks[0], later[0])
                    break
            result = macro_markov_check(model)
            assert result.witness == expected
            assert result.lumpable == (expected is None)
            lumpable += result.lumpable
        assert lumpable >= 1

    def test_describe_model_reports_the_public_diagnostics(self, cases):
        # describe_model shares one batch between the three diagnostics
        for model, _ in cases:
            out = describe_model(model)
            report = martingale_report(model)
            macro = macro_markov_check(model)
            assert out["max_abs_drift"] == report.max_abs_drift
            assert out["max_abs_exp_drift"] == report.max_abs_exp_drift
            assert out["ratio_constancy"] == ratio_constancy(model)
            assert out["macro_markov"] == {"lumpable": macro.lumpable, "witness": macro.witness}

    def test_describe_model_computes_one_transient_batch(self, monkeypatch):
        calls = []

        def counted(W, mu, r, masks):
            calls.append(len(masks))
            return _level_rates(W, mu, r, masks)

        monkeypatch.setattr(analysis, "_level_rates", counted)
        describe_model(build_model(complete_graph_weights(5), mu="uniform", r=2.0))
        assert calls == [(1 << 5) - 2, 5]  # the transient batch, then the single mutants

    def test_alternating_models_get_their_own_values(self):
        models = (galanis_model(1.0), galanis_model(1.0, mu="uniform"),
                  build_model(complete_graph_weights(5), mu="uniform", r=2.0))

        def diagnostics(model):
            report = martingale_report(model)
            return (len(report.drift), report.max_abs_drift, report.max_abs_exp_drift,
                    ratio_constancy(model), macro_markov_check(model))

        expected = {}
        for model in models:
            analysis._transient_rates.cache_clear()
            expected[model] = diagnostics(model)
        assert len({value[:4] for value in expected.values()}) == len(models)
        for model in models + models[::-1] + models[::2]:
            assert diagnostics(model) == expected[model]

    def test_transient_batch_is_read_only(self):
        for rates in analysis._transient_rates(galanis_model(2.0)):
            assert not rates.flags.writeable
            with pytest.raises(ValueError):
                rates[0] = 0

    @pytest.mark.parametrize("n", range(2, 10))
    def test_classic_moran_check(self, n):
        for r in (0.5, 1.0, 2.5):
            model = build_model(complete_graph_weights(n), mu="uniform", r=r)
            worst = 0.0
            for mask in range(1, (1 << n) - 1):
                up, down = brute_force_rates(model, mask)
                j = mask.bit_count()
                worst = max(worst, abs(up - classic_p_plus(j, n, r)),
                            abs(down - classic_p_minus(j, n, r)))
            value = classic_moran_check(n, r)
            assert value <= 1e-12 and worst <= 1e-12
            assert abs(value - worst) <= 1e-12
