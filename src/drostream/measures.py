"""Weighted atomic measures for empirical and worst-case distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported probability measure: atoms (k, m), weights (k,).

    Weights must be nonnegative and sum to one within 1e-9; arrays are
    frozen so distributions can be shared across threads read-only.
    """

    atoms: Array
    weights: Array

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if atoms.shape[0] != weights.shape[0]:
            raise ValueError("atoms and weights must have matching length")
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
            raise ValueError("atoms and weights must be finite")
        if weights.min() < -1e-12:
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 within 1e-9")
        atoms = atoms.copy()
        weights = np.clip(weights, 0.0, None)
        atoms.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

