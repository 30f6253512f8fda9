"""Adapters between fields and the real vector spaces linear algebra runs on.

Real problems use the node values directly.  Complex problems (whose
Jacobians are only real-linear) are realified to R^{2m} as [Re; Im].
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


def realified_space(grid: Grid) -> VectorSpace:
    shape = grid.shape
    n = int(np.prod(shape))

    def to_vec(f: Field) -> np.ndarray:
        flat = f.values.ravel()
        return np.concatenate([flat.real, flat.imag])

    def from_vec(v: np.ndarray) -> Field:
        values = np.empty(shape, dtype=np.complex128)
        values.real = v[:n].reshape(shape)
        values.imag = v[n:].reshape(shape)
        return Field(grid, values)

    return VectorSpace(dim=2 * n, to_vector=to_vec, from_vector=from_vec)


def node_space(grid: Grid) -> VectorSpace:
    """The node values of a real field, flattened (copies both ways)."""
    shape = grid.shape
    return VectorSpace(dim=int(np.prod(shape)), to_vector=lambda f: np.real(f.values).flatten(),
                       from_vector=lambda v: Field(grid, v.reshape(shape).copy()))


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
