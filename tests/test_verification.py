import itertools
import tracemalloc

import numpy as np
import pytest

from spatialmoran import (
    OutOfRange,
    build_model,
    fixation_for_initial,
    fixation_probabilities,
    galanis_model,
    galanis_neutral_fixation,
    is_isothermal,
    martingale_report,
    random_doubly_stochastic,
    random_strongly_connected_weights,
    ratio_constancy,
    single_mutant_ratio_witness,
    stationary_distribution,
    verification,
)
from spatialmoran.analysis import GalanisParams, N2Params, _n2_weights, n2_fixation_closed_form
from spatialmoran.exact import _fixation_stack
from spatialmoran.verification import DEFAULT_SEED, builtin_suite


# The per-model loops that the stacked solves and batches replaced, kept as the reference:
# each draws from ``rng`` in the same order and solves or diagnoses one model at a time.

def stationary_and_isothermal_per_model(rng, graphs):
    residual = fixation_dev = iso_dev = 0.0
    for _ in range(graphs):
        n = int(rng.integers(3, 9))
        W = random_strongly_connected_weights(n, rng)
        pi = stationary_distribution(W)
        residual = max(residual, float(np.max(np.abs(pi.pi @ W.entries - pi.pi))))
        for r in (0.5, 1.0, 2.0):
            report = fixation_probabilities(build_model(W, mu=pi.pi, r=r))
            fixation_dev = max(fixation_dev, report.per_level_deviation.max())
        D = random_doubly_stochastic(n, rng)
        if not is_isothermal(D):
            iso_dev = float("inf")
        for r in (0.5, 1.0, 2.0):
            report = fixation_probabilities(build_model(D, mu="uniform", r=r))
            iso_dev = max(iso_dev, report.per_level_deviation.max())
    return residual, fixation_dev, iso_dev


def martingale_and_ratio_per_model(rng, graphs):
    drift_dev = exp_dev = ratio_dev = 0.0
    witness_floor, witness = float("inf"), None
    for _ in range(graphs):
        n = int(rng.integers(3, 9))
        W = random_strongly_connected_weights(n, rng)
        pi = stationary_distribution(W).pi
        drift_dev = max(drift_dev, martingale_report(build_model(W, mu=pi, r=1.0)).max_abs_drift)
        for r in (0.25, 0.5, 2.0, 4.0):
            model = build_model(W, mu=pi, r=r)
            exp_dev = max(exp_dev, martingale_report(model).max_abs_exp_drift)
            ratio_dev = max(ratio_dev, ratio_constancy(model))
        mu = pi * rng.uniform(0.5, 2.0, n)
        mu /= mu.sum()
        if np.max(np.abs(mu @ W.entries - mu)) > 1e-3:
            mask, dev = single_mutant_ratio_witness(build_model(W, mu=mu, r=2.0))
            if dev < witness_floor:
                witness_floor, witness = dev, {"mask": mask, "deviation": dev}
    return drift_dev, exp_dev, ratio_dev, witness_floor, witness


def n2_grid_per_model():
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 11)
    for c, r, a, m in itertools.product((0.5, 1.0, 2.0), (0.5, 1.0, 2.0), grid, grid):
        p = N2Params(a=float(a), m=float(m), c=c, r=r)
        exact = fixation_for_initial(p.model(), p.initial_distribution())
        worst = max(worst, abs(n2_fixation_closed_form(p) - exact))
    return worst


def galanis_policies_per_model(rng):
    pi = stationary_distribution(galanis_model(1.0).W).pi
    worst = float(np.max(np.abs(pi - np.array([2.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0]))))
    for _ in range(50):
        a1, a2 = rng.dirichlet(np.ones(3))[:2]
        m1, m2 = rng.dirichlet(np.ones(3))[:2]
        g = GalanisParams(a1=a1, a2=a2, m1=m1, m2=m2)
        exact = fixation_for_initial(galanis_model(1.0, mu=g.policy()), g.initial_distribution())
        worst = max(worst, abs(galanis_neutral_fixation(g) - exact))
    return worst


@pytest.mark.parametrize("seed", [1, DEFAULT_SEED])
def test_builtin_suite_matches_per_model_solves(monkeypatch, seed):
    stacked = builtin_suite(seed)
    monkeypatch.setattr(verification, "_stationary_and_isothermal",
                        stationary_and_isothermal_per_model)
    monkeypatch.setattr(verification, "_martingale_and_ratio", martingale_and_ratio_per_model)
    monkeypatch.setattr(verification, "_n2_grid_deviation", n2_grid_per_model)
    monkeypatch.setattr(verification, "_galanis_policy_deviation", galanis_policies_per_model)
    assert builtin_suite(seed) == stacked


@pytest.mark.parametrize("graphs", [10, 200])
def test_stacked_solves_stay_within_four_mib(graphs):
    # each vertex count's stack is one _fixation_stack call, which assembles and solves one
    # chunk of S (512 KiB) at a time, so the peak does not grow with the number of random graphs
    builtin_suite(1, graphs)  # imports and caches outside the measurement
    tracemalloc.start()
    try:
        builtin_suite(1, graphs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("graphs", [0, -1])
def test_no_random_graphs_is_out_of_range(graphs):
    # else every random-family check would pass on no model at all
    with pytest.raises(OutOfRange):
        builtin_suite(graphs=graphs)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5}, {"graphs": 1.5}])
def test_seed_and_graphs_must_be_integers(kwargs):
    # else NumPy's or range's bare ValueError or TypeError
    with pytest.raises(OutOfRange):
        builtin_suite(**kwargs)


def test_two_vertex_start_is_weighted_in_atom_order():
    # a on mask 0b10, then 1 - a on mask 0b01, as N2Params.initial_distribution lists them
    grid = np.linspace(0.0, 1.0, 11)
    a, m = (axis.ravel() for axis in np.meshgrid(grid, grid, indexing="ij"))
    W = np.broadcast_to(_n2_weights(2.0).entries, (len(a), 2, 2))
    rho, _ = _fixation_stack(W, np.column_stack((m, 1.0 - m)), np.full(len(a), 0.5))
    stacked = a * rho[:, 0b10] + (1.0 - a) * rho[:, 0b01]
    for i in range(len(a)):
        p = N2Params(a=float(a[i]), m=float(m[i]), c=2.0, r=0.5)
        assert stacked[i] == fixation_for_initial(p.model(), p.initial_distribution())


def test_galanis_start_is_weighted_in_atom_order():
    rng = np.random.default_rng(4)
    draws = np.column_stack((rng.dirichlet(np.ones(3), 20)[:, :2],
                             rng.dirichlet(np.ones(3), 20)[:, :2]))
    a1, a2, m1, m2 = draws.T
    W = np.broadcast_to(galanis_model(1.0).W.entries, (20, 3, 3))
    rho, _ = _fixation_stack(W, np.column_stack((m1, m2, 1.0 - m1 - m2)), np.ones(20))
    stacked = a1 * rho[:, 0b010] + a2 * rho[:, 0b100] + (1.0 - a1 - a2) * rho[:, 0b001]
    for i, row in enumerate(draws.tolist()):
        g = GalanisParams(*row)
        assert stacked[i] == fixation_for_initial(galanis_model(1.0, mu=g.policy()),
                                                  g.initial_distribution())
