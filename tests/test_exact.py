import logging
import math
import time
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import bicgstab, gmres

from spatialmoran import (
    AtomOnAbsorbing,
    Configuration,
    DegenerateCase,
    InitialDistribution,
    NotStochastic,
    NumericalFailure,
    OutOfRange,
    TooLarge,
    build_model,
    complete_graph_weights,
    enumerate_level,
    fixation_for_initial,
    fixation_probabilities,
    galanis_model,
    moran_rho,
    n2_moran_selection,
    random_strongly_connected_weights,
    stationary_distribution,
    transition_kernel,
    two_vertex_weights,
    validate_weight_matrix,
)
from spatialmoran import exact
from spatialmoran.analysis import N2Params, n2_fixation_closed_form
from spatialmoran.dynamics import _flip_masses, _flip_totals
from spatialmoran.exact import _certified_solve, _fixation_stack, _jump_system


class TestMoranRho:
    def test_neutral_is_linear(self):
        for n in (2, 5, 9):
            for i in range(n + 1):
                assert moran_rho(i, n, 1.0) == pytest.approx(i / n, abs=1e-15)

    @pytest.mark.parametrize("r", [0.25, 0.5, 2.0, 10.0])
    def test_two_vertex_single_mutant(self, r):
        assert moran_rho(1, 2, r) == pytest.approx(r / (r + 1.0), abs=1e-14)

    def test_frozen_value(self):
        assert moran_rho(1, 3, 2.0) == pytest.approx(4 / 7, abs=1e-15)

    def test_boundaries_for_all_fitness(self):
        for r in (0.1, 1.0, 7.0):
            assert moran_rho(0, 6, r) == 0.0
            assert moran_rho(6, 6, r) == 1.0

    def test_near_neutral_stability(self):
        # tiny fitness offsets must stay continuous with the neutral branch
        for eps in (1e-11, 1e-9, 1e-7):
            for i, n in ((1, 4), (3, 7)):
                assert abs(moran_rho(i, n, 1.0 + eps) - i / n) <= n * eps
                assert abs(moran_rho(i, n, 1.0 - eps) - i / n) <= n * eps

    def test_monotone_in_start_count(self):
        values = [moran_rho(i, 8, 2.0) for i in range(9)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("i, n, r", [(1, 3, 1e-17), (2, 3, 1e-17), (1, 5, 2.0**-60),
                                         (1, 2000, 0.7), (1999, 2000, 0.7), (10, 1000, 0.5),
                                         (1, 200, 0.01)])
    def test_extreme_fitness_matches_the_rational_value(self, i, n, r):
        # r - 1 rounds to -1 below 2^-53, and r^-n overflows once -n log r > 709
        q = Fraction(r)
        expected = float((1 - q**-i) / (1 - q**-n))
        assert moran_rho(i, n, r) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("i, r", [(1, 0.0), (1, -1.0), (1, float("nan")), (1, math.inf),
                                      (0, float("nan")), (5, 0.0)])
    def test_fitness_a_model_rejects_is_rejected(self, i, r):
        with pytest.raises(NotStochastic, match="fitness must be positive and finite"):
            moran_rho(i, 5, r)

    def test_ordinary_fitness_keeps_the_log1p_form(self):
        rng = np.random.default_rng(12)
        for r, n in zip(rng.uniform(0.25, 4.0, 300), rng.integers(2, 21, 300)):
            i, log_r = int(rng.integers(1, n)), math.log1p(r - 1.0)
            assert moran_rho(i, int(n), r) == math.expm1(-i * log_r) / math.expm1(-n * log_r)


class TestInitialDistribution:
    def test_atom_on_absorbing_rejected(self):
        with pytest.raises(AtomOnAbsorbing):
            InitialDistribution(n=3, atoms=((0b111, 1.0),))
        with pytest.raises(AtomOnAbsorbing):
            InitialDistribution(n=3, atoms=((0, 0.5), (1, 0.5)))

    def test_weights_must_normalise(self):
        with pytest.raises(NotStochastic):
            InitialDistribution(n=3, atoms=((1, 0.4), (2, 0.4)))
        with pytest.raises(NotStochastic):
            InitialDistribution(n=3, atoms=((1, -0.2), (2, 1.2)))

    @pytest.mark.parametrize("n, atoms, error, message", [
        (3, ((1, 0.5), (9, -1.0), (7, 0.5)), NotStochastic, "mask 0b1001 does not fit into 3 bits"),
        (3, ((2, 0.5), (1, -1.0), (9, 0.5)), NotStochastic, "negative weight -1.0 on mask 0b1"),
        (3, ((2, 0.5), (7, 0.0), (0, 0.5), (-1, 0.5)), AtomOnAbsorbing,
         "initial atom on absorbing mask 0b0"),
        (3, ((1, 0.4), (7, 0.0), (2, 0.4)), NotStochastic, "initial weights sum to 0.8, expected 1"),
        (3, (), NotStochastic, "initial weights sum to 0.0, expected 1"),
        (70, ((1 << 69, 0.5), ((1 << 70) - 1, 0.5)), AtomOnAbsorbing,
         "initial atom on absorbing mask 0b" + "1" * 70),
        (70, ((1 << 69, 0.5), (1 << 70, 0.5)), NotStochastic,
         "mask 0b1" + "0" * 70 + " does not fit into 70 bits"),
        (3, ((1, float("nan")),), NotStochastic, "initial weights sum to nan, expected 1"),
        # masks are read as integers, never truncated
        (3, ((2, 0.5), (1.5, 0.5)), OutOfRange, "mask must be an integer, got 1.5"),
        (3, (("1", 0.5), (2, 0.5)), OutOfRange, "mask must be an integer, got '1'"),
    ])
    def test_first_bad_atom_is_reported(self, n, atoms, error, message):
        with pytest.raises(error) as info:
            InitialDistribution(n=n, atoms=atoms)
        assert str(info.value) == message

    def test_atoms_keep_their_order_as_ints_and_floats(self):
        atoms = ((Configuration(4, 3), np.float64(0.25)), (np.int64(1), 0.0), (2, 0.5),
                 (1, 0.25))
        alpha = InitialDistribution(n=3, atoms=atoms)
        assert alpha.atoms == ((4, 0.25), (2, 0.5), (1, 0.25))
        assert all(type(mask) is int and type(w) is float for mask, w in alpha.atoms)
        wide = InitialDistribution(n=70, atoms=[(1 << 69, 0.5), (1, 0.5)])
        assert wide.atoms == ((1 << 69, 0.5), (1, 0.5))
        listed = InitialDistribution(n=3, atoms=[[1, 0.5], [6, 0.5]])
        assert listed.atoms == ((1, 0.5), (6, 0.5))
        assert hash(listed) == hash(InitialDistribution(n=3, atoms=((1, 0.5), (6, 0.5))))

    def test_level_uniform(self):
        alpha = InitialDistribution.level_uniform(4, 2)
        assert len(alpha.atoms) == 6
        assert all(w == pytest.approx(1 / 6) for _, w in alpha.atoms)

    def test_level_uniform_atoms_are_integer_masks_in_level_order(self):
        for n, j in ((4, 2), (9, 4), (12, 1), (70, 2)):
            atoms = InitialDistribution.level_uniform(n, j).atoms
            configs = enumerate_level(n, j)
            assert atoms == tuple((c.bits, 1.0 / len(configs)) for c in configs)
            assert all(type(mask) is int for mask, _ in atoms)

    def test_level_uniform_bounds_its_atoms(self):
        # C(20, 10) = 184,756 fits; C(1000, 3) = 1.7e8 is refused before enumerating
        assert len(InitialDistribution.level_uniform(20, 10).atoms) == 184756
        with pytest.raises(TooLarge):
            InitialDistribution.level_uniform(1000, 3)


class TestFixationProbabilities:
    def test_galanis_neutral_levels(self):
        report = fixation_probabilities(galanis_model(1.0))
        for mask in (1, 2, 4):
            assert report.rho[mask] == pytest.approx(1 / 3, abs=1e-12)
        for mask in (3, 5, 6):
            assert report.rho[mask] == pytest.approx(2 / 3, abs=1e-12)
        assert report.rho[0] == 0.0 and report.rho[7] == 1.0

    def test_stationary_selection_matches_reference(self):
        rng = np.random.default_rng(50)
        for _ in range(6):
            n = int(rng.integers(3, 8))
            W = random_strongly_connected_weights(n, rng)
            pi = stationary_distribution(W).pi
            for r in (0.5, 1.0, 2.0):
                report = fixation_probabilities(build_model(W, mu=pi, r=r))
                assert report.per_level_deviation.max() <= 1e-9

    def test_two_vertex_closed_form_agreement(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            p = N2Params(a=float(rng.uniform(0, 1)), m=float(rng.uniform(0, 1)),
                         c=float(rng.uniform(0.3, 3)), r=float(rng.uniform(0.3, 3)))
            exact = fixation_for_initial(p.model(), p.initial_distribution())
            assert abs(exact - n2_fixation_closed_form(p)) <= 1e-12

    def test_harmonicity(self):
        rng = np.random.default_rng(52)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            W = random_strongly_connected_weights(n, rng)
            mu = rng.uniform(0.05, 1.0, n)
            mu /= mu.sum()
            model = build_model(W, mu=mu, r=float(rng.uniform(0.3, 3.0)))
            report = fixation_probabilities(model)
            P = transition_kernel(model).P
            rho = np.array([report.rho[mask] for mask in range(1 << n)])
            assert np.max(np.abs(P @ rho - rho)) <= 1e-10

    def test_monotone_in_fitness(self):
        rng = np.random.default_rng(53)
        W = random_strongly_connected_weights(5, rng)
        alpha = InitialDistribution.point_mass(0b00101, 5)
        values = []
        for r in (0.5, 1.0, 2.0, 4.0):
            model = build_model(W, mu="stationary", r=r)
            values.append(fixation_for_initial(model, alpha))
        assert all(a < b for a, b in zip(values, values[1:]))


    def test_neutral_complementarity(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            W = random_strongly_connected_weights(n, rng)
            model = build_model(W, mu="stationary", r=1.0)
            report = fixation_probabilities(model)
            full = (1 << n) - 1
            for mask in range(1 << n):
                assert report.rho[mask] + report.rho[mask ^ full] == pytest.approx(1.0, abs=1e-9)

    def test_configuration_that_never_changes_is_rejected(self):
        # only vertex 1 reproduces, onto vertex 2: mutants on 1 and 2 stay forever
        W = validate_weight_matrix([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateCase, match="0b11 can never change"):
            fixation_probabilities(build_model(W, mu=[1.0, 0.0, 0.0], r=1.0))

    def test_size_bounds(self):
        huge = build_model(complete_graph_weights(21), mu="uniform", r=1.0)
        with pytest.raises(TooLarge):
            fixation_probabilities(huge)

    def test_sparse_iterative_path_above_dense_limit(self, monkeypatch):
        # n = 13 is above the dense LU branch: CSR matrix + BiCGSTAB, which a stationary model
        # reaches when its closed-form certificate misses
        without_closed_form(monkeypatch)
        model = build_model(complete_graph_weights(13), mu="uniform", r=2.0)
        report = fixation_probabilities(model)
        assert report.solver.method == "iterative"
        assert report.rho[1] == pytest.approx(moran_rho(1, 13, 2.0), abs=1e-9)
        assert report.per_level_deviation.max() <= 1e-9


def without_closed_form(monkeypatch):
    """Send stationary models above the dense size to BiCGSTAB, as when their closed-form
    residuals miss the targets."""
    monkeypatch.setattr(exact, "_closed_form", lambda *args: None)


def ring_weights(n, self_loop):
    W = np.zeros((n, n))
    side = (1.0 - self_loop) / 2.0
    for v in range(n):
        W[v, v] = self_loop
        W[v, (v + 1) % n] += side
        W[v, (v - 1) % n] += side
    return validate_weight_matrix(W)


def star_block_chain(n, r):
    """Fixation probabilities of the star under uniform selection, by block counts.

    Vertex 1 is the centre and the ``n - 1`` leaves are interchangeable, so the
    state ``(c, k)`` (centre type, mutant leaves) is an exact Markov chain on
    ``2n`` states.  Returns ``h[c, k]``.
    """
    leaves = n - 1
    P = np.zeros((2 * n, 2 * n))
    for c in (0, 1):
        for k in range(n):
            i = c * n + k
            total = n + (r - 1.0) * (c + k)  # n times the fitness-weighted selection total
            if c:
                if k < leaves:
                    P[i, i + 1] = r / total * (leaves - k) / leaves  # centre onto a wildtype leaf
                P[i, k] = (leaves - k) / total  # a wildtype leaf onto the centre
            else:
                if k > 0:
                    P[i, i - 1] = 1.0 / total * k / leaves  # centre onto a mutant leaf
                P[i, n + k] = r * k / total  # a mutant leaf onto the centre
    P += np.diag(1.0 - P.sum(axis=1))  # every other update is idle
    transient = [i for i in range(2 * n) if i not in (0, 2 * n - 1)]
    A = np.eye(len(transient)) - P[np.ix_(transient, transient)]
    h = np.zeros(2 * n)
    h[2 * n - 1] = 1.0
    h[transient] = scipy.linalg.solve(A, P[transient, 2 * n - 1])
    return h.reshape(2, n)


class TestCertifiedSolve:
    """The reported residual is a certified bound on the true max-norm error."""

    @pytest.mark.parametrize("self_loop, r", [(0.5, 1.0), (0.9, 2.0)])
    def test_isothermal_ring(self, self_loop, r):
        n = 13
        report = fixation_probabilities(build_model(ring_weights(n, self_loop), mu="uniform", r=r))
        error = max(abs(report.rho[mask] - moran_rho(mask.bit_count(), n, r))
                    for mask in range(1 << n))
        assert error <= report.solver.residual <= 1e-10

    def test_star_against_block_count_chain(self):
        n, r = 14, 1.7
        W = np.zeros((n, n))
        W[0, 1:] = 1.0 / (n - 1)
        W[1:, 0] = 1.0
        report = fixation_probabilities(build_model(validate_weight_matrix(W), mu="uniform", r=r))
        h = star_block_chain(n, r)
        error = max(abs(report.rho[mask] - h[mask & 1, (mask >> 1).bit_count()])
                    for mask in range(1 << n))
        assert error <= report.solver.residual <= 1e-10

    def test_bicgstab_against_dense_solve(self):
        rng = np.random.default_rng(54)
        n = 11
        W = random_strongly_connected_weights(n, rng)
        mu = rng.uniform(0.05, 1.0, n)
        mu /= mu.sum()
        model = build_model(W, mu=mu, r=float(rng.uniform(0.3, 3.0)))
        report = fixation_probabilities(model)
        assert report.solver.method == "iterative"
        P = transition_kernel(model).P.toarray()
        h = scipy.linalg.solve(np.eye(P.shape[0] - 2) - P[1:-1, 1:-1], P[1:-1, -1])
        error = max(abs(report.rho[mask] - h[mask - 1]) for mask in range(1, (1 << n) - 1))
        assert error <= report.solver.residual <= 1e-10

    def test_dense_branch_is_certified(self):
        rng = np.random.default_rng(56)
        for n in (2, 5, 10):
            W = random_strongly_connected_weights(n, rng)
            model = build_model(W, mu="stationary", r=2.0)
            report = fixation_probabilities(model)
            assert report.solver.method == "dense"
            error = max(abs(report.rho[mask] - moran_rho(mask.bit_count(), n, 2.0))
                        for mask in range(1 << n))
            assert error <= report.solver.residual <= 1e-10

    @staticmethod
    def recorded_bicgstab(monkeypatch, result=None):
        """Record (a copy of) the ``x0`` and the options of every BiCGSTAB call; return
        ``result(b)`` instead when given."""
        calls, original = [], exact.bicgstab

        def bicgstab(A, b, x0=None, **options):
            calls.append((None if x0 is None else x0.copy(), options))
            return (result(b), 0) if result else original(A, b, x0=x0, **options)

        monkeypatch.setattr(exact, "bicgstab", bicgstab)
        return calls

    @pytest.mark.parametrize("model", ["stationary", "ring"])
    def test_stationary_solves_stop_near_n_steps(self, monkeypatch, model):
        # rho is constant on each level, so the Krylov space closes after about n products
        # with A; a 2-norm target below the solver's rounding floor would spin on to its limit
        without_closed_form(monkeypatch)
        if model == "ring":
            n, W = 15, ring_weights(15, 0.9)
        else:
            n, rng = 14, np.random.default_rng(14)
            W = rng.uniform(0.2, 1.0, (n, n))
            W = validate_weight_matrix(W / W.sum(axis=1, keepdims=True))
        report = fixation_probabilities(build_model(W, mu="stationary", r=3.0))
        assert report.solver.method == "iterative"
        assert report.solver.iterations <= 2 * n + 4
        assert report.solver.residual <= 1e-11

    @staticmethod
    def nonstationary_model():
        rng = np.random.default_rng(11)
        W = random_strongly_connected_weights(11, rng)
        mu = rng.uniform(0.2, 1.0, 11)
        mu /= mu.sum()
        return build_model(W, mu=mu, r=2.0)

    @staticmethod
    def moran_rows(n, r):
        """The Moran value of each transient mask's level, by row."""
        return np.array([moran_rho(mask.bit_count(), n, r) for mask in range(1, (1 << n) - 1)])

    @staticmethod
    def recorded_certificates(monkeypatch):
        """Record the ``(drift, tau, bound)`` of every certificate the solve draws up."""
        certificates, original = [], exact._certificate

        def certificate(*args):
            certificates.append(original(*args))
            return certificates[-1]

        monkeypatch.setattr(exact, "_certificate", certificate)
        return certificates

    def test_h_is_one_pass_from_the_moran_guess(self, monkeypatch):
        calls = self.recorded_bicgstab(monkeypatch)
        certificates = self.recorded_certificates(monkeypatch)
        model = self.nonstationary_model()
        W, mu = model.W, model.mu.mu
        report = fixation_probabilities(model)
        # T from zero, then h from the Moran guess, each aimed at its max-norm target as a
        # 2-norm residual, and no further pass
        (t_x0, t_options), (h_x0, h_options) = calls
        (_, tau, _), = certificates
        assert t_x0 is None and (t_options["atol"], t_options["rtol"]) == (0.01, 0.0)
        even = [mask - 1 for mask in range(1, 2047) if mask.bit_count() % 2 == 0]
        assert np.array_equal(h_x0, self.moran_rows(11, 2.0)[even])
        assert (h_options["atol"], h_options["rtol"]) == (tau[0], 0.0)
        (A,), rhs = jump_matrix(W.entries[None], mu[None], np.array([2.0]))
        h = np.linalg.solve(A.toarray(), rhs[0, :, 0])
        assert np.abs(report.rho[1:-1] - h).max() <= report.solver.residual <= 1e-11

    def test_the_reduced_system_takes_at_most_six_tenths_of_the_iterations(self, monkeypatch):
        # BiCGSTAB on S = I - E F against BiCGSTAB on the whole A with the same targets: T from
        # zero to 0.01, then h from the Moran guess to the tau of the reduced solve
        certificates = self.recorded_certificates(monkeypatch)
        n, r, rng = 13, 2.0, np.random.default_rng(3)
        W = random_strongly_connected_weights(n, rng)
        mu = rng.uniform(0.2, 1.0, n)
        mu /= mu.sum()
        report = fixation_probabilities(build_model(W, mu=mu, r=r))
        (_, tau, _), = certificates
        (A,), rhs = jump_matrix(W.entries[None], mu[None], np.array([r]))
        steps = []
        solve = partial(bicgstab, A, maxiter=5_000, rtol=0.0, callback=steps.append)
        assert solve(rhs[0, :, 1], atol=0.01)[1] == 0
        assert solve(rhs[0, :, 0], x0=self.moran_rows(n, r), atol=tau[0])[1] == 0
        assert report.solver.method == "iterative" and report.solver.residual <= 1e-11
        assert report.solver.iterations <= 0.6 * len(steps)

    def test_unbounded_absorption_time_raises_before_h(self, monkeypatch):
        calls = self.recorded_bicgstab(monkeypatch, result=np.zeros_like)  # T = 0: ||1 - A T|| = 1
        with pytest.raises(NumericalFailure, match="absorption-time residual"):
            fixation_probabilities(self.nonstationary_model())
        assert [x0 for x0, _ in calls] == [None]

    def test_a_pass_out_of_iterations_is_the_last(self, monkeypatch):
        # every pass on h stops after one iteration, short of its target:
        # the bound check raises after that pass, with no pass resumed from h
        passes, original = [], exact.bicgstab

        def bicgstab(A, b, x0=None, **options):
            if not passes:  # A T = 1 as usual
                passes.append("T")
                return original(A, b, x0=x0, **options)
            passes.append("h")
            h, info = original(A, b, x0=x0, **{**options, "maxiter": 1})
            assert info > 0
            return h, info

        monkeypatch.setattr(exact, "bicgstab", bicgstab)
        # not stationary, so the Moran guess misses tau and the first pass runs
        with pytest.raises(NumericalFailure, match="certified error bound"):
            fixation_probabilities(self.nonstationary_model())
        assert passes == ["T", "h"]

    def test_a_breakdown_fails_the_bound(self, monkeypatch):
        # a pass on h that breaks down (info < 0) starts no second pass: what it returns goes
        # to the bound check as it is, so NaN fails it, and so does the guess handed back
        model = self.nonstationary_model()
        certificates = self.recorded_certificates(monkeypatch)
        original, errors = exact.bicgstab, []
        for broken in (lambda x0: np.full_like(x0, np.nan), np.copy):
            passes = []

            def bicgstab(A, b, x0=None, **options):
                passes.append("h" if passes else "T")
                if len(passes) == 1:  # A T = 1 as usual
                    return original(A, b, x0=x0, **options)
                return broken(x0), -10

            monkeypatch.setattr(exact, "bicgstab", bicgstab)
            with pytest.raises(NumericalFailure) as error:
                fixation_probabilities(model)
            assert passes == ["T", "h"]
            errors.append(str(error.value))
        # the even half handed back is the Moran guess, and the odd half follows from it
        (A,), rhs = jump_matrix(model.W.entries[None], model.mu.mu[None], np.array([2.0]))
        h = self.moran_rows(11, 2.0)
        odd = [mask - 1 for mask in range(1, 2047) if mask.bit_count() % 2]
        h[odd] = rhs[0, odd, 0] + (h - A @ h)[odd]
        guess = np.abs(rhs[0, :, 0] - A @ h).max()
        bound = certificates[-1][2](np.array([guess]))[0]
        assert errors == [f"certified error bound nan above {exact.SOLVE_RESIDUAL_TOL:g}",
                          f"certified error bound {bound:.3e} above {exact.SOLVE_RESIDUAL_TOL:g}"]

    @pytest.mark.parametrize("r, policy, n", [
        *((r, policy, n) for r in (0.5, 1.0, 1.05, 3.0) for policy in ("uniform", "random")
          for n in (11, 13)),
        (1.05, "ring", 13)])
    def test_nonstationary_models_are_certified(self, n, policy, r):
        # at n = 13 the dense matrix would take 512 MiB: the reference is SciPy's GMRES
        # driven to a 2-norm residual of 1e-14, far below the bound.  The ring mixes slowly:
        # asymmetric neighbour weights, random self-loops and a random policy
        rng = np.random.default_rng([n, round(r * 100)])
        if policy == "ring":
            W = np.zeros((n, n))
            for v, (loop, left, right) in enumerate(rng.uniform(0.1, 1.0, (n, 3))):
                W[v, [v, (v - 1) % n, (v + 1) % n]] = loop, left, right
            W = validate_weight_matrix(W / W.sum(axis=1, keepdims=True))
        else:
            W = random_strongly_connected_weights(n, rng)
        mu = np.ones(n) if policy == "uniform" else rng.uniform(0.2, 1.0, n)
        model = build_model(W, mu=mu / mu.sum(), r=r)
        report = fixation_probabilities(model)
        assert report.solver.method == "iterative"
        (A,), rhs = jump_matrix(W.entries[None], model.mu.mu[None], np.array([r]))
        if n == 11:
            h = np.linalg.solve(A.toarray(), rhs[0, :, 0])
        else:
            h, info = gmres(A, rhs[0, :, 0], rtol=1e-14, atol=0.0, restart=200, maxiter=50)
            assert info == 0
        assert np.abs(report.rho[1:-1] - h).max() <= report.solver.residual <= 1e-11

    @pytest.mark.parametrize("n", [11, 13])
    @pytest.mark.parametrize("r", [1.0, 3.0])
    def test_stationary_solves_start_at_the_answer(self, monkeypatch, n, r):
        # under stationary selection rho is the Moran value of each level, and BiCGSTAB
        # starts h there: h is that guess bit for bit, and only A T = 1 takes steps
        without_closed_form(monkeypatch)
        steps, original = [], exact.bicgstab

        def bicgstab(A, b, x0=None, callback=None, **options):
            steps.append(0)

            def count(x):
                steps[-1] += 1
                callback(x)

            return original(A, b, x0=x0, callback=count, **options)

        monkeypatch.setattr(exact, "bicgstab", bicgstab)
        rng = np.random.default_rng(n)
        model = build_model(random_strongly_connected_weights(n, rng), mu="stationary", r=r)
        report = fixation_probabilities(model)
        assert report.solver.method == "iterative"
        assert np.array_equal(report.rho[1:-1], self.moran_rows(n, r))
        assert len(steps) == 1 and report.solver.iterations == steps[0]
        assert report.solver.residual <= 1e-10

    def test_a_target_below_rounding_fails_the_bound(self, monkeypatch):
        # tau less the slack is negative here; BiCGSTAB aims at the slack instead
        monkeypatch.setattr(exact, "_DENSE_MAX_ROWS", 2)
        monkeypatch.setattr(exact, "SOLVE_RESIDUAL_TOL", 1e-16)
        with pytest.raises(NumericalFailure, match="certified error bound"):
            fixation_probabilities(galanis_model(2.0))

    @staticmethod
    def birth_death_chain(N, r):
        """``_certified_solve`` on the mutant count of @complete:N, which rises with
        probability r / (1 + r) per jump, by the parity of the count: count ``c`` sits at
        ``(c >> 1) - [c even]`` of its half, as a mask does, with its jumps down and up.
        Returns ``X`` with row ``c - 1`` for count ``c``."""
        up = r / (1.0 + r)
        halves = []
        for parity in (0, 1):
            counts = np.arange(2 - parity, N, 2)
            targets = counts[:, None] + np.array([-1, 1])
            absorbed = (targets == 0) | (targets == N)
            jump = np.where(absorbed, 0.0, [1.0 - up, up])
            rhs = np.ones((1, len(counts), 2))
            rhs[0, :, 0] = np.where(targets[:, 1] == N, up, 0.0)
            cols = np.where(absorbed, 0, (targets >> 1) - parity).astype(np.int32)
            halves.append((jump[None], cols, rhs))
        X, solvers = _certified_solve(*halves, terms=4, guess=lambda i: np.zeros(N - 1),
                                      labels=[""])
        order = np.concatenate((np.arange(2, N, 2), np.arange(1, N, 2)))
        return X[:, np.argsort(order)], solvers

    @pytest.mark.parametrize("N, r", [(3, 2.0), (100, 1.5), (300, 1.0), (1000, 0.7)])
    def test_complete_graph_birth_death_chain(self, N, r):
        X, (solver,) = self.birth_death_chain(N, r)
        error = np.abs(X[0, :, 0] - [moran_rho(i, N, r) for i in range(1, N)]).max()
        assert error <= solver.residual <= 1e-10

    def test_a_diverging_chain_fails_loudly(self):
        # above the dense cut BiCGSTAB diverges on this chain; the overflow reaches the
        # certificate as NumericalFailure, not as a NumPy warning, and within a second
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match="absorption-time residual"):
            self.birth_death_chain(1500, 1.5)
        assert time.perf_counter() - start < 1.0


class TestClosedForm:
    """Stationary models above the dense size: the Moran value by level, certified from the
    stationarity gap with no flip masses, no matrix and no BiCGSTAB."""

    @staticmethod
    def recorded_solvers(monkeypatch):
        """Wrap ``_flip_masses``, ``_jump_system`` and ``bicgstab``; return the names called."""
        calls = []
        for name in ("_flip_masses", "_jump_system", "bicgstab"):
            def wrapper(*args, _name=name, _original=getattr(exact, name), **options):
                calls.append(_name)
                return _original(*args, **options)

            monkeypatch.setattr(exact, name, wrapper)
        return calls

    def assert_closed_form(self, monkeypatch, model):
        """The route is taken with no flip masses, no matrix and no BiCGSTAB, ``rho`` is the
        Moran vector bit for bit, and the bound is within a factor 2 of the one BiCGSTAB
        certifies."""
        n, r = model.n, model.r
        with monkeypatch.context() as patch:
            calls = self.recorded_solvers(patch)
            report = fixation_probabilities(model)
        assert calls == []
        assert report.solver.method == "closed-form" and report.solver.iterations == 0
        assert np.array_equal(report.rho[1:-1], TestCertifiedSolve.moran_rows(n, r))
        assert report.rho[0] == 0.0 and report.rho[-1] == 1.0
        with monkeypatch.context() as patch:
            without_closed_form(patch)
            solved = fixation_probabilities(model).solver
        assert solved.method == "iterative"
        assert report.solver.residual <= 1e-11
        assert solved.residual / 2 <= report.solver.residual <= 2 * solved.residual

    @pytest.mark.parametrize("n", [11, 13, 16])
    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    def test_stationary_models_take_the_route(self, monkeypatch, n, r):
        rng = np.random.default_rng(400 + n)
        W = random_strongly_connected_weights(n, rng)
        self.assert_closed_form(monkeypatch, build_model(W, mu="stationary", r=r))

    @pytest.mark.parametrize("self_loop, r", [(0.5, 1.0), (0.9, 2.0)])
    def test_isothermal_ring_takes_the_route(self, monkeypatch, self_loop, r):
        self.assert_closed_form(monkeypatch, build_model(ring_weights(13, self_loop), "uniform", r))

    def test_a_mixed_stack_is_bitwise_each_model_alone(self):
        rng = np.random.default_rng(410)
        stationary = build_model(random_strongly_connected_weights(11, rng), mu="stationary", r=2.0)
        models = [TestCertifiedSolve.nonstationary_model(), stationary]
        rho, solvers = _fixation_stack(np.stack([model.W.entries for model in models]),
                                       np.stack([model.mu.mu for model in models]),
                                       np.array([model.r for model in models]))
        assert [solver.method for solver in solvers] == ["iterative", "closed-form"]
        for i, model in enumerate(models):
            alone = fixation_probabilities(model)
            assert np.array_equal(rho[i], alone.rho) and solvers[i] == alone.solver

    def test_errors_of_the_fallback_name_the_model_in_the_whole_stack(self):
        # model 1 is not stationary and never leaves 0b11 (only vertex 1 reproduces, onto 2);
        # model 0 is certified in closed form, so the fallback solves model 1 alone
        n = 11
        cycle = np.roll(np.eye(n), 1, axis=1)
        mu = np.full((2, n), 1.0 / n)
        mu[1] = np.eye(n)[0]
        with pytest.raises(DegenerateCase, match="^model 1: configuration 0b11 can never change"):
            _fixation_stack(np.stack((cycle, cycle)), mu, np.array([2.0, 2.0]))

    def test_a_model_that_never_changes_is_still_rejected(self, monkeypatch):
        # W = I keeps every policy stationary, and no update changes anything
        n, offered = 11, []
        original = exact._closed_form

        def closed_form(*args):
            offered.append(original(*args))
            return offered[-1]

        monkeypatch.setattr(exact, "_closed_form", closed_form)
        with pytest.raises(DegenerateCase, match="^configuration 0b1 can never change"):
            _fixation_stack(np.eye(n)[None], np.full((1, n), 1.0 / n), np.array([2.0]))
        assert offered == [None]

    @pytest.mark.parametrize("shift", [1e-13, 8e-13])
    def test_a_policy_near_the_threshold_reports_a_bound_its_residuals_support(self, shift):
        # a gap of about 1e-13 is certified in closed form here, one of about 1e-12 falls
        # back to BiCGSTAB; either way the bound covers the residual and meets its target
        n, r = 11, 2.0
        W = random_strongly_connected_weights(n, np.random.default_rng(420))
        mu = stationary_distribution(W).pi + shift * (np.eye(n)[0] - np.eye(n)[1])
        model = build_model(W, mu=mu, r=r)
        assert shift < model.stationarity_gap() <= 1e-12
        report = fixation_probabilities(model)
        assert report.solver.method in ("closed-form", "iterative")
        (A,), rhs = jump_matrix(W.entries[None], mu[None], np.array([r]))
        A = A.toarray()
        h, T = np.linalg.solve(A, rhs[0]).T
        h_residual = np.abs(rhs[0, :, 0] - A @ report.rho[1:-1]).max()
        assert T.max() * h_residual <= report.solver.residual <= 1e-11
        assert np.abs(report.rho[1:-1] - h).max() <= report.solver.residual

    def test_a_declined_model_gets_the_bicgstab_report(self, monkeypatch):
        # a policy about 8.5e-13 off stationary is offered the route, and its gap bound
        # already exceeds every tau the drift allows
        n, r = 15, 2.0
        W = random_strongly_connected_weights(n, np.random.default_rng(440))
        mu = stationary_distribution(W).pi + 8e-13 * (np.eye(n)[0] - np.eye(n)[1])
        model = build_model(W, mu=mu, r=r)
        assert model.stationarity_gap() <= 1e-12
        assert exact._closed_form(W.entries, mu, r) is None
        report = fixation_probabilities(model)
        with monkeypatch.context() as patch:
            without_closed_form(patch)
            fallback = fixation_probabilities(model)
        assert report.solver.method == "iterative"
        assert np.array_equal(report.rho, fallback.rho) and report.solver == fallback.solver

    def test_memory_stays_below_a_quarter_of_the_matrix(self):
        n = 18
        model = build_model(random_strongly_connected_weights(n, np.random.default_rng(430)),
                            mu="stationary", r=3.0)
        tracemalloc.start()
        try:
            report = fixation_probabilities(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.solver.method == "closed-form"
        csr = ((1 << n) - 2) * (n + 1) * (8 + 4)  # float64 data and int32 indices, n + 1 a row
        assert peak < csr / 4


class TestStationarityGap:
    """The identity behind :func:`exact._closed_form` and the bound it takes from it."""

    @pytest.mark.parametrize("n", range(6, 11))
    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    def test_the_moran_residual_is_the_gap_identity(self, n, r):
        # per mask of level l: e_l + r / (1 + r) (phi_{l+1} - phi_{l-1}) x.g / (r A + B)
        rng = np.random.default_rng(500 + n)
        W = random_strongly_connected_weights(n, rng).entries
        mu = rng.uniform(0.2, 1.0, n)
        mu /= mu.sum()
        (system,), rhs = jump_matrix(W[None], mu[None], np.array([r]))
        phi = np.array([moran_rho(j, n, r) for j in range(n + 1)])
        x = ((np.arange(1, (1 << n) - 1)[:, None] >> np.arange(n)) & 1).astype(float)
        level = x.sum(axis=1).astype(int)
        w_mu = mu[:, None] * W
        A, B = ((x @ w_mu) * (1 - x)).sum(axis=1), (((1 - x) @ w_mu) * x).sum(axis=1)
        g = mu * W.sum(axis=1) - mu @ W
        up, down = r / (1 + r), 1 / (1 + r)
        moran_residual = up * phi[2:] + down * phi[:-2] - phi[1:-1]
        expected = moran_residual[level - 1] + up * (phi[level + 1] - phi[level - 1]) * (
            x @ g) / (r * A + B)
        residual = rhs[0, :, 0] - system @ phi[level]
        assert np.abs(x @ g).max() > 1e-3  # the policy is far from stationary
        assert np.abs(residual - expected).max() <= 1e-14

    def test_the_bound_covers_the_true_residual(self, monkeypatch):
        # ||1 - A T|| that _closed_form hands to _certificate, against the CSR's, on policies
        # far from stationary; both residuals take the same bound on kappa
        handed, certificate = [], exact._certificate
        monkeypatch.setattr(exact, "_certificate",
                            lambda *args: handed.append(args[1]) or certificate(*args))
        rng = np.random.default_rng(520)
        for case in range(60):
            n, r = int(rng.integers(6, 11)), float(rng.choice([0.5, 1.0, 3.0]))
            W = random_strongly_connected_weights(n, rng).entries
            mu = rng.uniform(0.2, 1.0, n)
            mu /= mu.sum()
            assert exact._closed_form(W, mu, r) is None
            j = np.arange(n + 1)
            phi = np.array([moran_rho(i, n, r) for i in j])
            t = j * (n - j) if r == 1.0 else (n * phi - j) * (r + 1) / (r - 1)
            (A,), _ = jump_matrix(W[None], mu[None], np.array([r]))
            level = [mask.bit_count() for mask in range(1, (1 << n) - 1)]
            true = np.abs(1.0 - A @ t[level]).max()
            assert true <= handed[-1] <= 100 * true, case

    def test_a_certificate_is_never_false(self):
        # stationary policies moved by 1e-14 .. 1e-8, weights whose rows are off by 9e-13; only
        # gaps below about 1e-13 certify, so most of the 200 cases decline
        rng = np.random.default_rng(510)
        certified = declined = 0
        for case in range(200):
            n, r = int(rng.integers(6, 11)), float(rng.choice([0.5, 1.0, 1.5, 3.0]))
            weights = random_strongly_connected_weights(n, rng)
            direction = rng.standard_normal(n)
            direction -= direction.mean()
            mu = stationary_distribution(weights).pi + 10.0 ** rng.uniform(-14, -8) * direction
            W = weights.entries * (1.0 + rng.choice([-9e-13, 0.0, 9e-13], n))[:, None]
            solved = exact._closed_form(W, mu, r)
            if solved is None:
                declined += 1
                continue
            certified += 1
            (h, solver), moran = solved, TestCertifiedSolve.moran_rows(n, r)
            (A,), rhs = jump_matrix(W[None], mu[None], np.array([r]))
            dense = np.linalg.solve(A.toarray(), rhs[0, :, 0])
            assert np.array_equal(h, moran)
            assert np.abs(dense - moran).max() <= solver.residual <= 1e-11, case
        assert certified >= 10 and declined >= 10

    @pytest.mark.parametrize("entry, certified", [(1e-13, True), (-1e-13, False)])
    def test_a_negative_entry_of_C_declines(self, entry, certified):
        # uniform on a ring, with C[0, 2] = entry from equal shifts of W[0, 2] and W[2, 0]
        # that keep every row and column sum, so the gap stays 0
        n = 11
        W = ring_weights(n, 0.5).entries.copy()
        shift = entry * n / 2
        W[0, 2] = W[2, 0] = shift
        W[0, 0] -= shift
        W[2, 2] -= shift
        solved = exact._closed_form(W, np.full(n, 1.0 / n), 2.0)
        assert (solved is not None) == certified

    def test_a_model_that_never_changes_declines(self):
        assert exact._closed_form(np.eye(7), np.full(7, 1.0 / 7), 2.0) is None


def coo_jump_system(W, mu, r):
    """``I - J_i`` of each model as SciPy builds it from the COO triplets of ``J_i``, and
    the right-hand sides, summed over a mask's flips to the full mask."""
    k, n = mu.shape
    full = (1 << n) - 1
    masks = np.arange(1, full)
    flips = _flip_masses(W, mu, r, masks)
    jump = flips / _flip_totals(flips)[:, :, None]
    targets = masks[:, None] ^ (1 << np.arange(n))
    rhs = np.ones((k, len(masks), 2))
    rhs[:, :, 0] = np.where(targets == full, jump, 0.0).sum(axis=2)
    rows, flipped = np.nonzero((targets != 0) & (targets != full))
    shape = (len(masks),) * 2
    return [identity(shape[0], format="csr")
            - csr_matrix((jump[i, rows, flipped], (rows, targets[rows, flipped] - 1)), shape=shape)
            for i in range(k)], rhs


def jump_matrix(W, mu, r):
    """``I - J_i`` of each model and its right-hand sides, in mask order, reassembled from the
    halves of ``_jump_system`` and the identity as :func:`coo_jump_system` assembles its own.
    Checks that each column index is the target's place among the masks of the other parity,
    and that each flip to mask 0 or to the full mask is a zero at index 0."""
    k, n = mu.shape
    full = (1 << n) - 1
    masks = np.arange(1, full)
    parity = np.array([mask.bit_count() % 2 for mask in range(1, full)])
    classes = [masks[parity == p] for p in (0, 1)]
    place = np.zeros(full + 1, int)
    for members in classes:
        place[members] = np.arange(len(members))
    (E, e_cols, b_e), (F, f_cols, b_o), order = _jump_system(W, mu, r, [""] * k)
    assert np.array_equal(order, np.concatenate(classes))
    assert E.shape == (k, len(classes[0]), n) and F.shape == (k, len(classes[1]), n)
    assert e_cols.dtype == f_cols.dtype == np.int32
    row = np.argsort(order)  # the row of each mask in its half, stacked
    jump, cols = np.concatenate((E, F), axis=1)[:, row], np.concatenate((e_cols, f_cols))[row]
    targets = masks[:, None] ^ (1 << np.arange(n))
    inside = (targets != 0) & (targets != full)
    assert np.array_equal(cols[inside], place[targets[inside]])
    assert not jump[:, ~inside].any() and not cols[~inside].any()
    rows, flipped = np.nonzero(inside)
    shape = (len(masks),) * 2
    return [identity(shape[0], format="csr")
            - csr_matrix((jump[i, rows, flipped], (rows, targets[rows, flipped] - 1)), shape=shape)
            for i in range(k)], np.concatenate((b_e, b_o), axis=1)[:, row]


class TestJumpSystem:
    """``_jump_system``, reassembled by :func:`jump_matrix`, against :func:`coo_jump_system`
    bit for bit.  The halves store a flip of zero mass as an explicit zero, which the COO form
    drops, so each system is compared after ``eliminate_zeros()``."""

    @staticmethod
    def assert_matches_coo(W, mu, r):
        systems, rhs = jump_matrix(W, mu, r)
        expected, coo_rhs = coo_jump_system(W, mu, r)
        assert rhs.tobytes() == coo_rhs.tobytes()
        for A, B in zip(systems, expected, strict=True):
            A.eliminate_zeros()
            B.eliminate_zeros()
            assert A.indptr.tobytes() == B.indptr.tobytes()
            assert A.indices.tobytes() == B.indices.tobytes()
            assert A.data.tobytes() == B.data.tobytes()

    @pytest.mark.parametrize("n", range(2, 14))
    def test_random_models(self, n):
        rng = np.random.default_rng(300 + n)
        W, mu, r = TestFixationStack.family(n, 1, rng)
        self.assert_matches_coo(W, mu, r)

    def test_ring_with_zero_weights(self):
        # beyond the 2n absorbed flips, a ring's zero weights leave zero-mass flips in place
        n = 9
        W, mu, r = ring_weights(n, 0.5).entries[None], np.full((1, n), 1.0 / n), np.array([1.5])
        self.assert_matches_coo(W, mu, r)
        (E, _, _), (F, _, _), _ = _jump_system(W, mu, r, [""])
        assert (E == 0.0).sum() + (F == 0.0).sum() > 2 * n

    def test_stack(self):
        W, mu, r = TestFixationStack.family(6, 4, np.random.default_rng(6))
        self.assert_matches_coo(W, mu, r)


class TestFixationStack:
    @staticmethod
    def family(n, k, rng):
        """k models at n vertices: random weights, positive policies, fitnesses in [0.25, 4]."""
        W = np.stack([random_strongly_connected_weights(n, rng).entries for _ in range(k)])
        mu = rng.uniform(0.2, 1.0, (k, n))
        mu /= mu.sum(axis=1, keepdims=True)
        return W, mu, rng.uniform(0.25, 4.0, k)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rows_are_bitwise_the_per_model_solves(self, n):
        rng = np.random.default_rng(100 + n)
        W, mu, r = self.family(n, 7, rng)
        rho, solvers = _fixation_stack(W, mu, r)
        for i in range(len(r)):
            report = fixation_probabilities(build_model(validate_weight_matrix(W[i]), mu[i], r[i]))
            assert np.array_equal(rho[i], report.rho)
            assert solvers[i] == report.solver

    def test_chunks_are_bitwise_one_stack(self, monkeypatch):
        W, mu, r = self.family(4, 9, np.random.default_rng(7))
        whole = _fixation_stack(W, mu, r)
        # 9^2 entries per chunk hold two Schur complements of 6 rows: the nine solve in five chunks
        monkeypatch.setattr(exact, "_DENSE_CHUNK_ENTRIES", 9**2)
        sizes, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: sizes.append(len(A)) or solve(A, b))
        chunked = _fixation_stack(W, mu, r)
        assert sizes == [2, 2, 2, 2, 1]
        assert np.array_equal(whole[0], chunked[0]) and whole[1] == chunked[1]

    def test_a_model_that_never_changes_is_named(self):
        # only vertex 1 reproduces, onto vertex 2: mutants on 1 and 2 stay forever
        cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        mu = np.full((4, 3), 1.0 / 3.0)
        mu[2] = (1.0, 0.0, 0.0)
        with pytest.raises(DegenerateCase, match="^model 2: configuration 0b11 can never change"):
            _fixation_stack(np.broadcast_to(cycle, (4, 3, 3)), mu, np.ones(4))

    def test_every_bound_is_checked(self, monkeypatch):
        W, mu, r = self.family(5, 6, np.random.default_rng(8))
        bounds = np.array([solver.residual for solver in _fixation_stack(W, mu, r)[1]])
        worst = int(bounds.argmax())
        monkeypatch.setattr(exact, "SOLVE_RESIDUAL_TOL", float(np.sort(bounds)[-2]))
        with pytest.raises(NumericalFailure, match=f"^model {worst}: certified error bound"):
            _fixation_stack(W, mu, r)

    def test_a_stack_logs_its_route_once(self, caplog):
        # stationary (certified in closed form), not stationary, and about 8.5e-13 off
        # stationary (offered the closed form, declined)
        n = 11
        W = random_strongly_connected_weights(n, np.random.default_rng(410))
        pi = stationary_distribution(W).pi
        other = TestCertifiedSolve.nonstationary_model()
        mu = np.stack((pi, other.mu.mu, pi + 8e-13 * (np.eye(n)[0] - np.eye(n)[1])))
        caplog.set_level(logging.DEBUG, logger="spatialmoran")
        W = np.stack((W.entries, other.W.entries, W.entries))
        _, solvers = _fixation_stack(W, mu, np.full(3, 2.0))
        assert [solver.method for solver in solvers] == ["closed-form", "iterative", "iterative"]
        (record,) = caplog.records
        assert (record.name, record.levelno) == ("spatialmoran", logging.DEBUG)
        bound = max(solver.residual for solver in solvers)
        assert record.getMessage() == (f"exact solve n=11: closed-form 1, iterative 2; largest "
                                       f"bound {bound:.3e}; closed form declined by 1 of 2")

    @pytest.mark.parametrize("shapes", [((3, 3, 3), (3, 4), (3,)), ((3, 4, 4), (2, 4), (3,)),
                                        ((3, 4, 4), (3, 4), (2,)), ((3, 3, 4), (3, 3), (3,))])
    def test_mismatched_sizes_are_rejected(self, shapes):
        W, mu, r = (np.full(shape, 1.0 / shape[-1]) for shape in shapes)
        with pytest.raises(NotStochastic, match="a stack of"):
            _fixation_stack(W, mu, r)

    def test_policies_and_fitnesses_are_checked(self):
        W, mu, r = self.family(3, 4, np.random.default_rng(9))
        bad_mu = mu.copy()
        bad_mu[1, 0] += 0.1
        with pytest.raises(NotStochastic, match="probability vector"):
            _fixation_stack(W, bad_mu, r)
        with pytest.raises(NotStochastic, match="fitness must be positive and finite"):
            _fixation_stack(W, mu, np.array([1.0, 2.0, np.inf, 1.0]))


class TestFixationForInitial:
    def test_point_mass_matches_reference_under_stationary(self):
        rng = np.random.default_rng(60)
        W = random_strongly_connected_weights(5, rng)
        model = build_model(W, mu="stationary", r=2.0)
        for mask in (0b00001, 0b01010, 0b11100):
            alpha = InitialDistribution.point_mass(mask, 5)
            expected = moran_rho(mask.bit_count(), 5, 2.0)
            assert fixation_for_initial(model, alpha) == pytest.approx(expected, abs=1e-9)

    def test_level_mixture_is_reference_mixture(self):
        model = galanis_model(2.0)
        for a in (0.0, 0.3, 1.0):
            atoms = []
            if a > 0:
                atoms.append((0b001, a))
            if a < 1:
                atoms.append((0b011, 1.0 - a))
            alpha = InitialDistribution(n=3, atoms=tuple(atoms))
            expected = a * moran_rho(1, 3, 2.0) + (1 - a) * moran_rho(2, 3, 2.0)
            assert fixation_for_initial(model, alpha) == pytest.approx(expected, abs=1e-9)

    def test_galanis_uniform_level_one_any_policy(self):
        rng = np.random.default_rng(61)
        alpha = InitialDistribution.level_uniform(3, 1)
        for _ in range(5):
            mu = rng.dirichlet(np.ones(3))
            model = galanis_model(1.0, mu=mu)
            assert fixation_for_initial(model, alpha) == pytest.approx(1 / 3, abs=1e-12)


class TestMoranDeviation:
    def test_stationary_policy_all_levels_tight(self):
        rng = np.random.default_rng(70)
        W = random_strongly_connected_weights(6, rng)
        deviation = fixation_probabilities(build_model(W, mu="stationary", r=0.5)).per_level_deviation
        assert len(deviation) == 7 and deviation[0] == deviation[6] == 0.0
        assert deviation.max() <= 1e-9

    def test_generic_policy_deviates(self):
        deviation = fixation_probabilities(galanis_model(1.0, mu=[0.6, 0.2, 0.2])).per_level_deviation
        assert deviation.max() > 1e-6

    def test_two_vertex_mixture_fixed_but_configurations_differ(self):
        a, c, r = 0.4, 2.0, 2.0
        m = n2_moran_selection(a, c, r)
        model = build_model(two_vertex_weights(1.0, 0.5), mu=[m, 1 - m], r=r)
        report = fixation_probabilities(model)
        mixture = a * report.rho[0b10] + (1 - a) * report.rho[0b01]
        assert mixture == pytest.approx(r / (r + 1.0), abs=1e-12)
        assert report.per_level_deviation[1] > 1e-3
