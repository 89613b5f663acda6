"""Doubly stochastic weights under uniform selection reproduce well-mixed fixation.

When every vertex's incoming weights sum to one (equivalently, the weight
matrix is doubly stochastic), the stationary distribution is uniform, so
uniform parent selection is stationary selection.  The demo draws random
doubly stochastic matrices by alternating row/column normalisation and
confirms the fixation match; the three-vertex counterexample matrix shows
that losing the property also loses the uniform stationary distribution.
"""

import numpy as np

from spatialmoran import (
    build_model,
    fixation_probabilities,
    galanis_model,
    is_isothermal,
    random_doubly_stochastic,
    stationary_distribution,
)

rng = np.random.default_rng(7)

for n in (3, 5, 7):
    W = random_doubly_stochastic(n, rng)
    pi = stationary_distribution(W).pi
    print(f"n = {n}: column sums within {np.max(np.abs(W.column_sums() - 1)):.1e} of 1,"
          f" stationary distribution within {np.max(np.abs(pi - 1 / n)):.1e} of uniform")
    worst = 0.0
    for r in (0.5, 1.0, 2.0):
        report = fixation_probabilities(build_model(W, mu="uniform", r=r))
        worst = max(worst, report.per_level_deviation.max())
    print(f"       uniform selection, r in (1/2, 1, 2): worst fixation deviation {worst:.2e}")

print()
counter = galanis_model(1.0).W
print("three-vertex counterexample weights:")
print(np.array(counter.entries))
print(f"isothermal: {is_isothermal(counter)}"
      f" (column sums {np.round(counter.column_sums(), 4)})")
print(f"stationary distribution: {np.round(stationary_distribution(counter).pi, 6)}"
      " (= 2/7, 2/7, 3/7, not uniform)")
