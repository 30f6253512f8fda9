"""The linearization space: a field's node values as a float64 vector, in the
layout of `ndarray.view(np.float64)`."""

import numpy as np
import pytest

from travwave.linops import linearization_space
from travwave.spectral import Field, Grid1D, Grid2D

rng = np.random.default_rng(7)
GRID_1D = Grid1D(3.0, 8)
GRID_2D = Grid2D(Grid1D(3.0, 8), Grid1D(np.pi, 6))

FIELDS = {
    "real_1d": Field(GRID_1D, rng.standard_normal(8)),
    "real_2d": Field(GRID_2D, rng.standard_normal((8, 6))),
    "complex_1d": Field(GRID_1D, rng.standard_normal(8) + 1j * rng.standard_normal(8)),
}


def space_of(field):
    return linearization_space(field.grid, field.values.dtype)


@pytest.mark.parametrize("name", FIELDS)
def test_round_trip_is_bit_for_bit(name):
    field = FIELDS[name]
    space = space_of(field)
    back = space.from_vector(space.to_vector(field))
    assert back.values.dtype == field.values.dtype and back.values.shape == field.values.shape
    assert back.values.tobytes() == field.values.tobytes()


@pytest.mark.parametrize("name, dim", [("real_1d", 8), ("real_2d", 48), ("complex_1d", 16)])
def test_dim_counts_real_components(name, dim):
    field = FIELDS[name]
    space = space_of(field)
    assert space.dim == dim == space.to_vector(field).size


def test_complex_values_interleave_re_and_im():
    space = linearization_space(Grid1D(1.0, 2), complex)
    assert space.to_vector(Field(Grid1D(1.0, 2), np.array([1 + 2j, 3 + 4j]))).tolist() == [1.0, 2.0, 3.0, 4.0]


def test_real_field_enters_a_complex_space_with_zero_imaginary_parts():
    real = FIELDS["real_1d"]
    space = linearization_space(GRID_1D, complex)
    vector = space.to_vector(real)
    assert vector.size == space.dim
    assert vector[0::2].tobytes() == real.values.tobytes() and not np.any(vector[1::2])


@pytest.mark.parametrize("name", FIELDS)
def test_int8_and_strided_vectors_are_accepted(name):
    field = FIELDS[name]
    space = space_of(field)
    zero = space.from_vector(np.zeros(space.dim, dtype=np.int8))  # scipy's LinearOperator probe
    assert zero.values.dtype == field.values.dtype and not np.any(zero.values)
    vector = space.to_vector(field)
    strided = np.repeat(vector, 2)[::2]
    assert not strided.flags.c_contiguous
    assert space.from_vector(strided).values.tobytes() == field.values.tobytes()


@pytest.mark.parametrize("name", FIELDS)
def test_both_directions_copy(name):
    field = FIELDS[name]
    space = space_of(field)
    kept = field.values.copy()
    vector = space.to_vector(field)
    back = space.from_vector(vector)
    vector[:] = 7.0
    assert back.values.tobytes() == kept.tobytes()
    assert field.values.tobytes() == kept.tobytes()
