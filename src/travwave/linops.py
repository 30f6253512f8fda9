"""Adapters between fields and the real vector spaces linear algebra runs on.

A field's node values become a float64 vector in the layout of
`ndarray.view(np.float64)`: a complex field's (whose Jacobians are only
real-linear) as interleaved (re, im) pairs in R^{2m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spectral import Field, Grid


@dataclass(frozen=True)
class VectorSpace:
    """Bijection between fields (in an invariant subspace) and R^dim."""

    dim: int
    to_vector: Callable[[Field], np.ndarray]
    from_vector: Callable[[np.ndarray], Field]

    def wrap(self, action: Callable[[Field], Field]) -> Callable[[np.ndarray], np.ndarray]:
        """Lift a field action to a vector action."""

        def vec_action(v: np.ndarray) -> np.ndarray:
            return self.to_vector(action(self.from_vector(v)))

        return vec_action


def linearization_space(grid: Grid, dtype) -> VectorSpace:
    """The node values of `dtype` fields on the grid as float64 vectors in the
    layout of `ndarray.view(np.float64)`, copied both ways.  The casts also
    take a real field into a complex space and the int8 vector that scipy's
    LinearOperator probes `newton_solve`'s GMRES operator with."""
    shape = grid.shape
    return VectorSpace(dim=int(np.prod(shape)) * np.dtype(dtype).itemsize // 8,
                       to_vector=lambda f: f.values.astype(dtype).ravel().view(np.float64),
                       from_vector=lambda v: Field(grid, np.array(v, float).view(dtype).reshape(shape)))


def assemble_matrix(action: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Assemble the dense matrix of a vector action column by column."""
    cols = np.empty((dim, dim))
    e = np.zeros(dim)
    for j in range(dim):
        e[j] = 1.0
        cols[:, j] = action(e)
        e[j] = 0.0
    return cols


def real_inner(a: Field, b: Field) -> float:
    """Re <a, b>: the Euclidean pairing on realified vectors."""
    return float(np.real(np.vdot(a.values.ravel(), b.values.ravel())))
