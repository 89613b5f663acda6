"""Stationary selection pins fixation to the well-mixed values.

Build a random strongly connected weighted digraph, select parents with the
stationary distribution of its weight matrix, and solve the absorbing chain
exactly: every configuration with i mutants fixes with the classic
probability rho_i, for every fitness.  Perturb the policy and the agreement
collapses, leaving a single-mutant witness in the decrease/increase ratio.
"""

import numpy as np

from spatialmoran import (
    build_model,
    fixation_probabilities,
    moran_rho,
    random_strongly_connected_weights,
    ratio_constancy,
    single_mutant_ratio_witness,
    stationary_distribution,
)

rng = np.random.default_rng(2)
n = 5
W = random_strongly_connected_weights(n, rng)
pi = stationary_distribution(W).pi

print(f"random graph on {n} vertices, stationary policy pi = {np.round(pi, 4)}")
print()
print("fitness r | level i | reference rho_i | worst |rho_x - rho_i|")
for r in (0.5, 1.0, 2.0):
    report = fixation_probabilities(build_model(W, mu=pi, r=r))
    for level in range(1, n):
        print(f"  {r:7.2f} | {level:7d} | {moran_rho(level, n, r):15.10f}"
              f" | {report.per_level_deviation[level]:.2e}")
print()

perturbed = pi * rng.uniform(0.5, 2.0, n)
perturbed /= perturbed.sum()
model = build_model(W, mu=perturbed, r=2.0)
report = fixation_probabilities(model)
print(f"perturbed policy mu = {np.round(perturbed, 4)}")
print(f"  stationarity gap ||mu W - mu||      = {model.stationarity_gap():.3e}")
print(f"  worst per-level fixation deviation  = {report.per_level_deviation.max():.3e}")
print(f"  ratio constancy deviation           = {ratio_constancy(model):.3e}")
mask, dev = single_mutant_ratio_witness(model)
print(f"  single-mutant witness: mask {mask:#0{n + 2}b} deviates by {dev:.3e}")
