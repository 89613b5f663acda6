"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion at its pinned tolerance
and prints a single ``ACCEPTANCE NN PASS/FAIL`` line (visible with ``-s``;
pytest shows the line for failing criteria either way).
"""

import math
import time

import numpy as np

from spatialmoran import (
    Configuration,
    GalanisParams,
    InitialDistribution,
    N2Params,
    OutOfRange,
    TrajectoryConfig,
    ZeroDenominator,
    build_model,
    classic_moran_check,
    complete_graph_weights,
    estimate_fixation,
    fixation_for_initial,
    fixation_probabilities,
    galanis_case3_initial_weight,
    galanis_model,
    galanis_moran_condition,
    galanis_neutral_fixation,
    macro_markov_check,
    martingale_report,
    moran_rho,
    n2_F,
    n2_fixation_closed_form,
    n2_moran_selection,
    p_minus,
    p_plus,
    random_doubly_stochastic,
    random_strongly_connected_weights,
    ratio_constancy,
    single_mutant_ratio_witness,
    stationary_distribution,
)
from spatialmoran.analysis import SOLVER_TOL

SEED = 20260811
R_SET = (0.5, 1.0, 2.0)


def report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {name}: {detail} [{elapsed:.2f}s]")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_stationary_selection_fixation():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        W = random_strongly_connected_weights(n, rng)
        pi = stationary_distribution(W).pi
        for r in R_SET:
            deviation = fixation_probabilities(build_model(W, mu=pi, r=r)).per_level_deviation
            worst = max(worst, deviation.max())
    report(1, "stationary-selection fixation", worst <= 1e-9,
           f"max |rho_x - rho_i| = {worst:.3e} <= 1e-9 over 50 graphs x 3 fitness values",
           started)


def test_criterion_02_isothermal_fixation():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        W = random_doubly_stochastic(n, rng)
        for r in R_SET:
            deviation = fixation_probabilities(build_model(W, mu="uniform", r=r)).per_level_deviation
            worst = max(worst, deviation.max())
    report(2, "isothermal fixation", worst <= 1e-9,
           f"max |rho_x - rho_i| = {worst:.3e} <= 1e-9 over 20 doubly stochastic graphs",
           started)


def test_criterion_03_two_vertex_closed_form():
    started = time.perf_counter()
    worst = 0.0
    grid = np.linspace(0.0, 1.0, 11)
    for c in R_SET:
        for r in R_SET:
            for a in grid:
                for m in grid:
                    p = N2Params(a=float(a), m=float(m), c=c, r=r)
                    exact = fixation_for_initial(p.model(), p.initial_distribution())
                    worst = max(worst, abs(n2_fixation_closed_form(p) - exact))
    report(3, "two-vertex closed form vs exact solver", worst <= 1e-12,
           f"max deviation {worst:.3e} <= 1e-12 on 11x11 grid x 9 (c, r) pairs",
           started)


def test_criterion_04_two_vertex_policy_branches():
    started = time.perf_counter()
    worst_stationary = 0.0
    for c in (0.5, 1.0, 2.0, 4.0):
        for r in (0.5, 1.0, 2.0, 4.0):
            for a in np.linspace(0.0, 1.0, 21):
                p = N2Params(a=float(a), m=1.0 / (c + 1.0), c=c, r=r)
                worst_stationary = max(worst_stationary,
                                       abs(n2_fixation_closed_form(p) - r / (r + 1.0)))
    rng = np.random.default_rng(SEED + 2)
    worst_solver = 0.0
    found = 0
    while found < 100:
        r = float(rng.uniform(0.25, 4.0))
        if abs(r - 1.0) < 0.05:
            continue
        c = float(rng.uniform(0.25, 4.0))
        lo, hi = min(1.0, r) / (r + 1.0), max(1.0, r) / (r + 1.0)
        a = float(rng.uniform(lo, hi))
        try:
            m = n2_moran_selection(a, c, r)
        except (OutOfRange, ZeroDenominator):
            continue
        worst_solver = max(worst_solver, abs(n2_F(N2Params(a=a, m=m, c=c, r=r)) - 1.0))
        found += 1
    ok = worst_stationary <= 1e-12 and worst_solver <= 1e-12
    report(4, "two-vertex policy branches", ok,
           f"stationary branch off by {worst_stationary:.3e}, "
           f"solved branch |F - 1| = {worst_solver:.3e}, both <= 1e-12",
           started)


def test_criterion_05_surface_symmetry_identities():
    # Swapping the types exchanges fixation and extinction at fitness 1/r with
    # the initial weight flipped: rho_{1/r}(m,1-a|c) = 1 - rho_r(m,a|c).  As
    # moran_rho(1, 2, r) = r/(r+1), this reads F(m,1-a|c,1/r) = (r+1) - r F(m,a|c,r).
    # Swapping the vertex labels gives F(m,a|c,r) = F(1-m,1-a|1/c,r).  Hence the
    # a-flip with r inverted, and the m-flip with c and r inverted, fix the Moran
    # set F = 1 but move every other value of the surface.
    started = time.perf_counter()

    def closed(a, m, c, r):
        return n2_F(N2Params(a=float(a), m=float(m), c=c, r=r))

    def solved(a, m, c, r):
        p = N2Params(a=float(a), m=float(m), c=c, r=r)
        return fixation_for_initial(p.model(), p.initial_distribution()) / moran_rho(1, 2, r)

    axis = np.linspace(0.0, 1.0, 51)
    worst_relabel = worst_duality = worst_unit = worst_solver = 0.0
    for c, r in ((2.0, 4.0), (0.5, 0.25)):
        for a in axis:
            for m in axis:
                base = closed(a, m, c, r)
                worst_relabel = max(worst_relabel, abs(closed(1 - a, 1 - m, 1 / c, r) - base))
                worst_duality = max(worst_duality,
                                    abs(closed(1 - a, m, c, 1 / r) - ((r + 1) - r * base)))

        lo, hi = min(1.0, r) / (r + 1.0), max(1.0, r) / (r + 1.0)
        unit_set = [(a, 1.0 / (c + 1.0)) for a in axis]
        unit_set += [(a, n2_moran_selection(float(a), c, r)) for a in np.linspace(lo, hi, 51)]
        for a, m in unit_set:
            for value in (closed(a, m, c, r), closed(1 - a, m, c, 1 / r),
                          closed(a, 1 - m, 1 / c, 1 / r)):
                worst_unit = max(worst_unit, abs(value - 1.0))

        for a, m in ((axis[0], axis[20]), (axis[13], axis[50]), (axis[37], axis[29])):
            base = solved(a, m, c, r)
            worst_solver = max(worst_solver,
                               abs(solved(1 - a, 1 - m, 1 / c, r) - base),
                               abs(solved(1 - a, m, c, 1 / r) - ((r + 1) - r * base)))

    # the literal pointwise form F(m,a|c,r) = F(m,1-a|c,1/r) = F(1-m,a|1/c,r) fails
    refuted = (closed(0, 0, 2.0, 4.0) == 0.0
               and abs(closed(1, 0, 2.0, 0.25) - 5.0) <= 1e-12
               and abs(closed(0, 1, 0.5, 4.0) - 1.25) <= 1e-12)

    ok = (max(worst_relabel, worst_duality, worst_unit) <= 1e-12
          and worst_solver <= SOLVER_TOL and refuted)
    report(5, "two-vertex surface symmetries (relabelling, duality, Moran-set maps)", ok,
           f"vertex relabelling {worst_relabel:.3e}, type-swap duality {worst_duality:.3e}, "
           f"unit-set maps {worst_unit:.3e}, each <= 1e-12 on the 51x51 grid x 2 (c, r) pairs; "
           f"solver identities {worst_solver:.3e} <= {SOLVER_TOL:.0e}; literal pointwise form "
           f"{'refuted' if refuted else 'NOT refuted'} at c=2, r=4, (m,a)=(0,0): "
           "F = 0 against 5 and 1.25",
           started)


def test_criterion_06_galanis_suite():
    started = time.perf_counter()
    pi = stationary_distribution(galanis_model(1.0).W).pi
    pi_dev = float(np.max(np.abs(pi - np.array([2 / 7, 2 / 7, 3 / 7]))))

    rng = np.random.default_rng(SEED + 3)
    worst_formula = 0.0
    for _ in range(100):
        a = rng.dirichlet(np.ones(3))
        m = rng.dirichlet(np.ones(3))
        g = GalanisParams(a1=float(a[0]), a2=float(a[1]), m1=float(m[0]), m2=float(m[1]))
        exact = fixation_for_initial(galanis_model(1.0, mu=g.policy()),
                                     g.initial_distribution())
        worst_formula = max(worst_formula, abs(galanis_neutral_fixation(g) - exact))

    worst_case = 0.0
    for _ in range(10):
        m = rng.dirichlet(np.ones(3))
        g = GalanisParams(a1=1 / 3, a2=1 / 3, m1=float(m[0]), m2=float(m[1]))
        assert galanis_moran_condition(g)[0] == "case1"
        worst_case = max(worst_case, abs(galanis_neutral_fixation(g) - 1 / 3))
    for _ in range(10):
        a1 = float(rng.uniform(1 / 9, 7 / 15))
        g = GalanisParams(a1=a1, a2=(9 * a1 - 1) / 6, m1=2 / 7,
                          m2=float(rng.uniform(0.0, 5 / 7)))
        assert galanis_moran_condition(g)[0] in ("case1", "case2")
        worst_case = max(worst_case, abs(galanis_neutral_fixation(g) - 1 / 3))
    roots = 0
    while roots < 10:
        m1, m2 = (float(v) for v in rng.dirichlet(np.ones(3))[:2])
        if abs(m1 - m2) < 1e-2:
            continue
        a2 = float(rng.uniform(0.0, 1.0))
        a1 = galanis_case3_initial_weight(a2, m1, m2)
        if not (0.0 <= a1 and a1 + a2 <= 1.0):
            continue
        g = GalanisParams(a1=a1, a2=a2, m1=m1, m2=m2)
        assert galanis_moran_condition(g)[0] in ("case1", "case3")
        worst_case = max(worst_case, abs(galanis_neutral_fixation(g) - 1 / 3))
        roots += 1

    ok = pi_dev <= 1e-12 and worst_formula <= 1e-10 and worst_case <= 1e-10
    report(6, "three-vertex counterexample suite", ok,
           f"stationary dev {pi_dev:.3e} <= 1e-12, formula vs solver {worst_formula:.3e}"
           f" <= 1e-10 over 100 draws, forced-value cases off by {worst_case:.3e} <= 1e-10",
           started)


def test_criterion_07_martingale_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)
    worst_drift = 0.0
    worst_exp = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 9))
        W = random_strongly_connected_weights(n, rng)
        pi = stationary_distribution(W).pi
        worst_drift = max(worst_drift,
                          martingale_report(build_model(W, mu=pi, r=1.0)).max_abs_drift)
        for r in (0.25, 0.5, 2.0, 4.0):
            worst_exp = max(worst_exp,
                            martingale_report(build_model(W, mu=pi, r=r)).max_abs_exp_drift)
    ok = worst_drift <= 1e-12 and worst_exp <= 1e-12
    report(7, "martingale drift identities", ok,
           f"max |drift| = {worst_drift:.3e} at r=1, max |exp drift| = {worst_exp:.3e}"
           " across r in {1/4, 1/2, 2, 4}, both <= 1e-12 over 20 graphs",
           started)


def test_criterion_08_ratio_law():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED + 5)
    worst_stationary = 0.0
    weakest_witness = float("inf")
    witnesses = 0
    while witnesses < 20:
        n = int(rng.integers(3, 9))
        W = random_strongly_connected_weights(n, rng)
        pi = stationary_distribution(W).pi
        for r in R_SET:
            worst_stationary = max(worst_stationary,
                                   ratio_constancy(build_model(W, mu=pi, r=r)))
        mu = pi * rng.uniform(0.4, 2.5, n)
        mu /= mu.sum()
        if float(np.max(np.abs(mu @ W.entries - mu))) <= 1e-3:
            continue
        mask, deviation = single_mutant_ratio_witness(build_model(W, mu=mu, r=2.0))
        assert mask.bit_count() == 1
        weakest_witness = min(weakest_witness, deviation)
        witnesses += 1
    ok = worst_stationary <= 1e-12 and weakest_witness > 1e-9
    report(8, "decrease/increase ratio law", ok,
           f"stationary deviation {worst_stationary:.3e} <= 1e-12; every non-stationary "
           f"policy left a single-mutant witness (weakest {weakest_witness:.3e} > 1e-9)",
           started)


def test_criterion_09_monte_carlo_consistency():
    started = time.perf_counter()
    model = galanis_model(1.0)
    alpha = InitialDistribution.point_mass(0b001, 3)
    cfg = TrajectoryConfig(seed=SEED)
    trials = 10**5
    base = estimate_fixation(model, alpha, trials, cfg, workers=1)
    rerun = estimate_fixation(model, alpha, trials, cfg, workers=1)
    four = estimate_fixation(model, alpha, trials, cfg, workers=4)
    eight = estimate_fixation(model, alpha, trials, cfg, workers=8)
    bound = 3.0 * math.sqrt((1 / 3) * (2 / 3) / trials)
    error = abs(base.frequency - 1 / 3)
    ok = error <= bound and base == rerun == four == eight
    report(9, "Monte Carlo consistency", ok,
           f"|frequency - 1/3| = {error:.5f} <= {bound:.5f}; bit-identical across "
           "rerun and 1/4/8 workers",
           started)


def test_criterion_10_classic_reduction():
    started = time.perf_counter()
    worst_rates = 0.0
    worst_fixation = 0.0
    for n in range(2, 9):
        for r in R_SET:
            worst_rates = max(worst_rates, classic_moran_check(n, r))
            model = build_model(complete_graph_weights(n), mu="uniform", r=r)
            value = fixation_for_initial(model, InitialDistribution.point_mass(1, n))
            worst_fixation = max(worst_fixation, abs(value - moran_rho(1, n, r)))
    ok = worst_rates <= 1e-12 and worst_fixation <= 1e-9
    report(10, "classic well-mixed reduction", ok,
           f"rate deviation {worst_rates:.3e} <= 1e-12, single-mutant fixation "
           f"deviation {worst_fixation:.3e} <= 1e-9 for n in 2..8",
           started)


def test_criterion_11_projection_not_markov():
    started = time.perf_counter()
    galanis = macro_markov_check(galanis_model(1.0))
    complete_ok = all(
        macro_markov_check(build_model(complete_graph_weights(n), mu="uniform", r=r)).lumpable
        for n in range(2, 7) for r in R_SET
    )
    witness_ok = (not galanis.lumpable) and galanis.witness[0] == 1
    if witness_ok:
        _, mask_a, mask_b = galanis.witness
        model = galanis_model(1.0)
        values = sorted((p_plus(Configuration(mask, 3), model),
                         p_minus(Configuration(mask, 3), model)) for mask in (mask_a, mask_b))
        witness_ok = abs(values[0][0] - values[1][0]) > 1e-6
    ok = witness_ok and complete_ok
    report(11, "mutant-count projection evidence", ok,
           "level-1 witness on the three-vertex counterexample; every complete-graph "
           "model projects to a birth-death chain",
           started)
