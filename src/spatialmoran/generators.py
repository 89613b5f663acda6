"""Seeded random weight-matrix families for verification suites."""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure
from .graph import STOCHASTIC_TOL, WeightMatrix, validate_weight_matrix

#: Row/column normalisation sweeps of :func:`random_doubly_stochastic`.
_SINKHORN_SWEEPS = 500


def random_strongly_connected_weights(n: int, rng: np.random.Generator) -> WeightMatrix:
    """Random row-stochastic weights whose positive edges are strongly connected.

    Off-diagonal edges appear with probability 1/2; a directed cycle through
    all vertices is always present, which guarantees strong connectivity.
    Self-loops are kept with the same probability.
    """
    mass = rng.uniform(0.2, 1.0, (n, n))
    keep = rng.random((n, n)) < 0.5
    weights = np.where(keep, mass, 0.0)
    for v in range(n):
        weights[v, (v + 1) % n] = rng.uniform(0.2, 1.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return validate_weight_matrix(weights)


def random_doubly_stochastic(n: int, rng: np.random.Generator) -> WeightMatrix:
    """Random doubly stochastic weights by alternating row/column normalisation.

    Starts from a strictly positive random matrix, so the normalisation
    converges geometrically and the result is strongly connected.  Sweeps stop
    once a column pass leaves every row sum within ``n`` ulps of 1, or after
    :data:`_SINKHORN_SWEEPS`; a final pass normalises rows exactly, and a
    column-sum error above :data:`STOCHASTIC_TOL` raises :class:`NumericalFailure`.
    """
    mass = rng.uniform(0.1, 1.0, (n, n))
    for _ in range(_SINKHORN_SWEEPS):
        mass /= mass.sum(axis=1, keepdims=True)
        mass /= mass.sum(axis=0, keepdims=True)
        if np.abs(mass.sum(axis=1) - 1.0).max() <= n * np.finfo(float).eps:
            break
    mass /= mass.sum(axis=1, keepdims=True)
    column_error = float(np.max(np.abs(mass.sum(axis=0) - 1.0)))
    if column_error > STOCHASTIC_TOL:
        raise NumericalFailure(
            f"column sums off by {column_error:.3e} after {_SINKHORN_SWEEPS} iterations"
        )
    return validate_weight_matrix(mass)
