"""Reproducible Monte Carlo estimates against the exact solver.

Trial t draws its randomness from a counter-based stream keyed by
(seed, t), so estimates are bit-identical across reruns and worker counts.
The default event-driven mode skips idle steps, which cannot change the
absorption split; faithful mode samples them anyway and agrees within
binomial noise.
"""

import math
import time

from spatialmoran import (
    InitialDistribution,
    TrajectoryConfig,
    estimate_fixation,
    fixation_for_initial,
    galanis_model,
)

model = galanis_model(1.0)
alpha = InitialDistribution.point_mass(0b001, 3)
exact = fixation_for_initial(model, alpha)
trials = 10**5
print(f"single mutant at vertex 1, neutral fitness: exact fixation {exact:.6f}")

cfg = TrajectoryConfig(seed=123)
started = time.perf_counter()
result = estimate_fixation(model, alpha, trials, cfg)
elapsed = time.perf_counter() - started
sigma = math.sqrt(exact * (1 - exact) / trials)
print(f"event-driven, {trials} trials in {elapsed:.2f}s:"
      f" frequency {result.frequency:.6f} (Wilson z = 3 half-width {result.ci_halfwidth:.6f},"
      f" {abs(result.frequency - exact) / sigma:.2f} sigma from exact)")

for workers in (4, 8):
    again = estimate_fixation(model, alpha, trials, cfg, workers=workers)
    print(f"  workers={workers}: identical result? {again == result}")

faithful = estimate_fixation(model, alpha, trials,
                             TrajectoryConfig(seed=123, mode="faithful"))
pooled = (result.frequency + faithful.frequency) / 2
z = abs(result.frequency - faithful.frequency) / math.sqrt(pooled * (1 - pooled) * 2 / trials)
print(f"faithful mode frequency {faithful.frequency:.6f}"
      f" (two-proportion z = {z:.2f} against event-driven)")
