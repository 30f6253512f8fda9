"""Adapters between fields and the real vector spaces linear algebra runs on.

Real problems use the node values directly.  Complex problems with a
real-linear Jacobian (the modulus-type nonlinearities) are realified to
R^{2m} as [Re; Im].  Complex problems whose Jacobian is complex-linear (the
Hadamard-power nonlinearities) keep invariant one-dimensional phase channels;
at a state lying on such a channel the linearization restricts to a real
m-dimensional operator, which is the space the convergence theory sees.
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
        return Field(grid, (v[:n] + 1j * v[n:]).reshape(shape))

    return VectorSpace(dim=2 * n, to_vector=to_vec, from_vector=from_vec)


def phase_channel_space(grid: Grid, phase: complex) -> VectorSpace:
    """Real coordinates g for fields of the form phase*g with g real."""
    shape = grid.shape
    n = int(np.prod(shape))
    conj_phase = np.conj(phase)

    def to_vec(f: Field) -> np.ndarray:
        w = conj_phase * f.values
        return np.ascontiguousarray(w.real).ravel().copy()

    def from_vec(v: np.ndarray) -> Field:
        return Field(grid, phase * v.reshape(shape))

    return VectorSpace(dim=n, to_vector=to_vec, from_vector=from_vec)


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
