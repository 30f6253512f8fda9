"""Periodic grids and Fourier-collocation operators.

Conventions: the forward transform is the plain (unnormalized) DFT and the
inverse carries the 1/m factor, i.e. numpy's convention.  All multipliers are
normalization-invariant.  The Nyquist mode is zeroed in odd-order derivatives
so real fields stay real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on (-l, l) with m nodes x_j = -l + j*h."""

    half_length: float
    point_count: int

    def __post_init__(self):
        if not 0 < self.half_length < np.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length}")
        m = self.point_count
        if m <= 0 or m % 2 != 0:
            raise ValueError(f"point_count must be a positive even integer, got {m}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.point_count

    @cached_property
    def nodes(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(self.point_count)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # (pi/l)*j for j = 0..m/2-1, -m/2..-1 in the transform's native order
        return 2.0 * np.pi * np.fft.fftfreq(self.point_count, d=self.spacing)

    @cached_property
    def wavenumbers_no_nyquist(self) -> np.ndarray:
        k = self.wavenumbers.copy()
        k[self.point_count // 2] = 0.0
        return k

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.point_count,)

    @property
    def axes(self) -> tuple[Grid1D, ...]:
        return (self,)


@dataclass(frozen=True)
class Grid2D:
    """Tensor product of two 1D grids; axis 0 is x, axis 1 is z."""

    grid_x: Grid1D
    grid_z: Grid1D

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.grid_x.point_count, self.grid_z.point_count)

    @property
    def axes(self) -> tuple[Grid1D, ...]:
        return (self.grid_x, self.grid_z)

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.grid_x.nodes, self.grid_z.nodes, indexing="ij")


Grid = Grid1D | Grid2D


@dataclass(frozen=True)
class Field:
    """Scalar values on a grid; real or complex per node.

    Thin wrapper: numerical kernels reach for ``.values`` directly.  The
    arithmetic operators cover the seed/perturbation algebra used by the
    engines and tests.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid shape {self.grid.shape}")
        if not np.iscomplexobj(v):
            v = v.astype(np.float64, copy=False)
        object.__setattr__(self, "values", v)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values)

    @property
    def norm(self) -> float:
        """Euclidean norm of the node values (complex moduli on complex fields)."""
        return float(np.linalg.norm(self.values.ravel()))

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "Field":
        return Field(self.grid, -self.values)


def derivative_multiplier(grid: Grid1D, order: int) -> np.ndarray:
    """The (i*k)^order multiplier of `derivative` along a 1D grid."""
    k = grid.wavenumbers_no_nyquist if order % 2 == 1 else grid.wavenumbers
    return (1j * k) ** order


def fourier_multiply(values: np.ndarray, mult: np.ndarray, axis: int = 0) -> np.ndarray:
    """Apply a 1D Fourier multiplier along `axis` of node values; real values stay real."""
    mult = mult.reshape([-1 if a == axis else 1 for a in range(values.ndim)])
    out = np.fft.ifft(mult * np.fft.fft(values, axis=axis), axis=axis)
    return out if np.iscomplexobj(values) else out.real


def derivative(field: Field, order: int, axis: int = 0) -> Field:
    """Spectral derivative via the (i*k)^order multiplier.

    Odd orders zero the Nyquist mode so real input yields real output.
    """
    if order < 1:
        raise ValueError(f"order must be a positive integer, got {order}")
    axes = field.grid.axes
    if not 0 <= axis < len(axes):
        raise ValueError(f"a {len(axes)}D field has no axis {axis}")
    return field.with_values(fourier_multiply(field.values, derivative_multiplier(axes[axis], order), axis))


def diff_matrix(grid: Grid1D, order: int) -> np.ndarray:
    """Dense pseudospectral differentiation matrix, consistent with `derivative`,
    in Fortran (column-major) order, so LAPACK can factor it in place.

    D is circulant: its first column is the FFT multiplier applied to e_0,
    ifft(multiplier), and D[i, j] = column[(i - j) mod m]: row i is the length-m
    window at offset m-1-i of the doubled, reversed column, and D one copy of them.
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    m = grid.point_count
    column = np.real(np.fft.ifft(derivative_multiplier(grid, order)))
    return np.lib.stride_tricks.sliding_window_view(np.tile(column[::-1], 2)[:-1], m)[::-1].copy(order="F")
