"""Bundled verification checks behind the ``verify`` command.

The builtin suite exercises every structural identity on seeded random model
families; each check reports a pass flag, its worst deviation, and a witness
where one exists.  For a user-supplied model the same quantities are
reported descriptively without pass/fail semantics.

Random graphs are solved in one stack per vertex count, each time it fills a dense chunk, and
their drifts and ratios read from one flip-mass batch per graph, with the diagnostics' formulas.
"""

from __future__ import annotations

import numpy as np

from .analysis import (
    GALANIS_WEIGHTS,
    GalanisParams,
    N2Params,
    _classic_deviations,
    _drifts,
    _n2_surface,
    _n2_weights,
    _ratio_deviation,
    galanis_case3_initial_weight,
    galanis_model,
    galanis_moran_condition,
    galanis_neutral_fixation,
    macro_markov_check,
    martingale_report,
    n2_F,
    n2_moran_selection,
    ratio_constancy,
    single_mutant_ratio_witness,
)
from .dynamics import MicSMPModel, _level_rates, build_model
from .errors import OutOfRange, SpatialMoranError, ZeroDenominator
from .exact import (_DENSE_CHUNK_ENTRIES, _fixation_stack, _mask_levels, _moran_by_level,
                    fixation_probabilities)
from .generators import random_doubly_stochastic, random_strongly_connected_weights
from .graph import (_integer, complete_graph_weights, is_isothermal, stationary_distribution,
                    validate_weight_matrix)

DEFAULT_SEED = 20260811
_R_SET = (0.5, 1.0, 2.0)


def _check(max_deviation: float, threshold: float, witness=None) -> dict:
    result = {"pass": bool(max_deviation <= threshold),
              "max_deviation": float(max_deviation), "threshold": threshold}
    if witness is not None:
        result["witness"] = witness
    return result


def _stationary_and_isothermal(rng, graphs: int):
    residual, isothermal, worst, stacks = 0.0, True, [], {}
    for _ in range(graphs):
        n = int(rng.integers(3, 9))
        W = random_strongly_connected_weights(n, rng)
        pi = stationary_distribution(W).pi
        residual = max(residual, float(np.max(np.abs(pi @ W.entries - pi))))
        D = random_doubly_stochastic(n, rng)
        isothermal &= is_isothermal(D)
        stacks.setdefault(n, []).extend(((W.entries, pi), (D.entries, np.full(n, 1.0 / n))))
        if len(stacks[n]) * len(_R_SET) * ((1 << n) - 2) ** 2 >= _DENSE_CHUNK_ENTRIES:
            worst.append(_moran_deviations(stacks.pop(n)))
    fixation_dev, iso_dev = np.max(worst + list(map(_moran_deviations, stacks.values())), axis=0)
    return residual, float(fixation_dev), float(iso_dev) if isothermal else float("inf")


def _moran_deviations(stack: list) -> np.ndarray:
    """Largest deviation over :data:`_R_SET` of the even and the odd ``(W, mu)`` of one ``n``."""
    W, mu = map(np.stack, zip(*stack))
    (k, n), rs = mu.shape, len(_R_SET)
    rho, _ = _fixation_stack(W.repeat(rs, axis=0), mu.repeat(rs, axis=0), np.tile(_R_SET, k))
    moran = np.stack([_moran_by_level(n, r) for r in _R_SET])[:, _mask_levels(n)]
    return np.abs(rho.reshape(-1, 2, rs, 1 << n) - moran).max(axis=(0, 2, 3))


def _martingale_and_ratio(rng, graphs: int):
    drift_dev = exp_dev = ratio_dev = 0.0
    witness_floor, witness = float("inf"), None
    r = np.array([[1.0], [0.25], [0.5], [2.0], [4.0], [2.0]])  # five for pi, the last for mu
    for _ in range(graphs):
        n = int(rng.integers(3, 9))
        W = random_strongly_connected_weights(n, rng)
        pi = stationary_distribution(W).pi
        # strictly positive non-stationary policy must leave a witness
        mu = pi * rng.uniform(0.5, 2.0, n)
        mu /= mu.sum()
        _, pp, pm = _level_rates(np.broadcast_to(W.entries, (6, n, n)), np.vstack([pi] * 5 + [mu]),
                                 r[:, 0], np.arange(1, (1 << n) - 1))  # mask i + 1 at index i
        (drift, exp_drift), ratio = _drifts(pp, pm, r), _ratio_deviation(pp, pm, r)
        drift_dev = max(drift_dev, float(np.abs(drift[0]).max()))
        exp_dev = max(exp_dev, float(np.abs(exp_drift[1:5]).max()))
        ratio_dev = max(ratio_dev, float(ratio[1:5].max()))
        single = ratio[5, (1 << np.arange(n)) - 1]  # as in single_mutant_ratio_witness
        if np.max(np.abs(mu @ W.entries - mu)) > 1e-3 and single.max() < witness_floor:
            witness_floor = float(single.max())
            witness = {"mask": 1 << int(single.argmax()), "deviation": witness_floor}
    return drift_dev, exp_dev, ratio_dev, witness_floor, witness


def _n2_grid_deviation() -> float:
    """The two-vertex surface against one stacked solve of its 3 x 3 x 11 x 11 grid over
    ``(c, r, a, m)``; the start puts weight ``a`` on mask 0b10 and ``1 - a`` on 0b01."""
    c_set = (0.5, 1.0, 2.0)
    grid = np.linspace(0.0, 1.0, 11)
    which, r, a, m = (axis.ravel() for axis in
                      np.meshgrid(range(len(c_set)), (0.5, 1.0, 2.0), grid, grid, indexing="ij"))
    weights = np.stack([_n2_weights(c).entries for c in c_set])
    rho, _ = _fixation_stack(weights[which], np.column_stack((m, 1.0 - m)), r)
    exact = a * rho[:, 0b10] + (1.0 - a) * rho[:, 0b01]
    return float(np.abs(_n2_surface(a, m, np.take(c_set, which), r)[0] - exact).max())


def _n2_suite(rng) -> float:
    worst = _n2_grid_deviation()
    found = 0
    while found < 50:
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
        worst = max(worst, abs(n2_F(N2Params(a=a, m=m, c=c, r=r)) - 1.0))
        found += 1
    return worst


def _galanis_policy_deviation(rng) -> float:
    """The stationary distribution, and the neutral closed form against one stacked solve
    of 50 draws of ``(a1, a2, m1, m2)``; the start puts ``a1``, ``a2`` and
    ``1 - a1 - a2`` on masks 0b010, 0b100 and 0b001, in that order."""
    W = validate_weight_matrix(GALANIS_WEIGHTS)
    pi = stationary_distribution(W).pi
    worst = float(np.max(np.abs(pi - np.array([2.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0]))))
    draws = np.empty((50, 4))
    for row in draws:
        row[:2] = rng.dirichlet(np.ones(3))[:2]
        row[2:] = rng.dirichlet(np.ones(3))[:2]
    a1, a2, m1, m2 = draws.T
    rho, _ = _fixation_stack(np.broadcast_to(W.entries, (len(draws), 3, 3)),
                             np.column_stack((m1, m2, 1.0 - m1 - m2)), np.ones(len(draws)))
    exact = a1 * rho[:, 0b010] + a2 * rho[:, 0b100] + (1.0 - a1 - a2) * rho[:, 0b001]
    closed = [galanis_neutral_fixation(GalanisParams(*row)) for row in draws.tolist()]
    return max(worst, float(np.abs(np.array(closed) - exact).max()))


def _galanis_suite(rng) -> float:
    worst = _galanis_policy_deviation(rng)
    for _ in range(10):
        # one sample from each forced-value family
        m = rng.dirichlet(np.ones(3))
        g1 = GalanisParams(a1=1.0 / 3.0, a2=1.0 / 3.0, m1=m[0], m2=m[1])
        a1 = float(rng.uniform(1.0 / 9.0, 7.0 / 15.0))
        g2 = GalanisParams(a1=a1, a2=(9.0 * a1 - 1.0) / 6.0, m1=2.0 / 7.0,
                           m2=float(rng.uniform(0.0, 5.0 / 7.0)))
        g3 = None
        while g3 is None:
            m1, m2 = rng.dirichlet(np.ones(3))[:2]
            if abs(m1 - m2) < 1e-2:
                continue
            a2 = float(rng.uniform(0.0, 1.0))
            a1 = galanis_case3_initial_weight(a2, m1, m2)
            if 0.0 <= a1 and a1 + a2 <= 1.0:
                g3 = GalanisParams(a1=a1, a2=a2, m1=m1, m2=m2)
        for g, case in ((g1, "case1"), (g2, "case2"), (g3, "case3")):
            worst = max(worst, abs(galanis_neutral_fixation(g) - 1.0 / 3.0))
            if galanis_moran_condition(g)[0] != case:
                worst = float("inf")
    return worst


def builtin_suite(seed: int = DEFAULT_SEED, graphs: int = 10) -> dict:
    """Run every bundled check on seeded random families.

    Returns ``{check_name: {"pass": bool, "max_deviation": float, ...}}``.
    """
    seed, graphs = _integer("seed", seed), _integer("graphs", graphs)
    if seed < 0:
        raise OutOfRange(f"seed must be non-negative, got {seed}")
    if graphs < 1:
        raise OutOfRange(f"need at least one random graph per family, got {graphs}")
    rng = np.random.default_rng(seed)
    checks: dict[str, dict] = {}

    residual, stationary_dev, iso_dev = _stationary_and_isothermal(rng, graphs)
    checks["stochasticity_stationarity"] = _check(residual, 1e-12)
    checks["stationary_selection_fixation"] = _check(stationary_dev, 1e-9)
    checks["isothermal_fixation"] = _check(iso_dev, 1e-9)

    drift_dev, exp_dev, ratio_dev, witness_floor, witness = _martingale_and_ratio(rng, graphs)
    checks["martingale_drift"] = _check(drift_dev, 1e-12)
    checks["martingale_exponential"] = _check(exp_dev, 1e-12)
    checks["ratio_constancy_stationary"] = _check(ratio_dev, 1e-12)
    checks["ratio_deviation_witness"] = {
        "pass": bool(witness_floor > 1e-9), "max_deviation": float(witness_floor),
        "threshold": 1e-9, "witness": witness,
    }

    classic_dev = max(float(_classic_deviations(n, np.array(_R_SET)).max()) for n in range(2, 9))
    checks["classic_reduction"] = _check(classic_dev, 1e-12)

    complete_ok = all(macro_markov_check(build_model(complete_graph_weights(n),
                                                     mu="uniform", r=2.0)).lumpable
                      for n in range(2, 7))
    galanis_result = macro_markov_check(galanis_model(1.0))
    checks["macro_markov"] = {
        "pass": bool(complete_ok and not galanis_result.lumpable
                     and galanis_result.witness[0] == 1),
        "max_deviation": 0.0 if complete_ok else float("inf"),
        "threshold": 0.0,
        "witness": galanis_result.witness,
    }

    checks["n2_closed_form"] = _check(_n2_suite(rng), 1e-10)
    checks["galanis_closed_form"] = _check(_galanis_suite(rng), 1e-10)
    return checks


def describe_model(model: MicSMPModel) -> dict:
    """Descriptive diagnostics for a user-supplied model (no pass/fail)."""
    report = martingale_report(model)  # the three diagnostics share one batch
    macro = macro_markov_check(model)
    mask, dev = single_mutant_ratio_witness(model)
    out = {
        "n": model.n,
        "r": model.r,
        "policy_stationarity_gap": model.stationarity_gap(),
        "policy_is_stationary": model.is_stationary(1e-9),
        "isothermal": is_isothermal(model.W),
        "ratio_constancy": ratio_constancy(model),
        "single_mutant_ratio_witness": {"mask": mask, "deviation": dev},
        "max_abs_drift": report.max_abs_drift,
        "max_abs_exp_drift": report.max_abs_exp_drift,
        "macro_markov": {"lumpable": macro.lumpable, "witness": macro.witness},
    }
    try:
        deviation = fixation_probabilities(model).per_level_deviation.tolist()
        moran = _moran_by_level(model.n, model.r).tolist()
        out["moran_deviation"] = {str(j): deviation[j] for j in range(1, model.n)}
        out["moran_reference"] = {str(j): moran[j] for j in range(1, model.n)}
    except SpatialMoranError as exc:
        out["moran_deviation_error"] = f"{type(exc).__name__}: {exc}"
    return out
