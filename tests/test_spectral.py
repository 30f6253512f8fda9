import numpy as np
import pytest

from travwave.spectral import (
    Field,
    Grid1D,
    Grid2D,
    derivative,
    diff_matrix,
)


class TestGrid:
    def test_nodes_and_spacing(self):
        g = Grid1D(50.0, 512)
        assert g.spacing * g.point_count == pytest.approx(2 * g.half_length)
        assert g.nodes[0] == pytest.approx(-50.0)
        assert np.all(np.diff(g.nodes) > 0)

    @pytest.mark.parametrize("l,m", [(1.0, 3), (1.0, 0), (-2.0, 4), (0.0, 4)])
    def test_invalid_grid_rejected(self, l, m):
        with pytest.raises(ValueError):
            Grid1D(l, m)

    @pytest.mark.parametrize("l", [np.nan, np.inf, -np.inf])
    def test_non_finite_half_length_rejected(self, l):
        with pytest.raises(ValueError, match="half_length must be positive and finite"):
            Grid1D(l, 8)

    def test_axes_in_array_axis_order(self):
        gx, gz = Grid1D(3.0, 8), Grid1D(np.pi, 6)
        assert gx.axes == (gx,)
        assert Grid2D(gx, gz).axes == (gx, gz)

    def test_field_shape_checked(self):
        g = Grid1D(1.0, 4)
        with pytest.raises(ValueError):
            Field(g, np.zeros(6))


class TestWavenumbers:
    def test_pi_grid_native_order(self):
        k = Grid1D(np.pi, 4).wavenumbers
        assert k == pytest.approx([0.0, 1.0, -2.0, -1.0])

    def test_two_point_grid(self):
        k = Grid1D(1.0, 2).wavenumbers
        assert k == pytest.approx([0.0, -np.pi])

    def test_max_wavenumber(self):
        k = Grid1D(50.0, 512).wavenumbers
        assert np.max(np.abs(k)) == pytest.approx(np.pi * 256 / 50)


class TestDerivative:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_constant_has_zero_derivative(self, order):
        g = Grid1D(3.0, 32)
        d = derivative(Field(g, np.full(32, 2.5)), order)
        assert np.max(np.abs(d.values)) < 1e-13

    def test_sine_first_derivative_exact(self):
        g = Grid1D(np.pi, 64)
        d = derivative(Field(g, np.sin(g.nodes)), 1)
        assert np.max(np.abs(d.values - np.cos(g.nodes))) <= 1e-12

    def test_sech_second_derivative_matches_closed_form(self):
        # sech'' = sech - 2 sech^3
        g = Grid1D(50.0, 512)
        s = 1 / np.cosh(g.nodes)
        d2 = derivative(Field(g, s), 2)
        assert np.max(np.abs(d2.values - (s - 2 * s**3))) <= 1e-8

    def test_composition_matches_second_order(self):
        g = Grid1D(7.0, 128)
        rng = np.random.default_rng(7)
        vhat = np.zeros(128, dtype=complex)
        vhat[1:40] = rng.normal(size=39) + 1j * rng.normal(size=39)
        vhat[-39:] = np.conj(vhat[1:40][::-1])  # real field, zero Nyquist
        f = Field(g, np.fft.ifft(vhat).real)
        twice = derivative(derivative(f, 1), 1)
        once = derivative(f, 2)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-10 * max(1.0, np.max(np.abs(once.values)))

    def test_real_field_stays_real(self):
        g = Grid1D(2.0, 16)
        assert not derivative(Field(g, np.cos(g.nodes * np.pi / 2)), 1).is_complex

    def test_2d_axiswise(self):
        g = Grid2D(Grid1D(np.pi, 32), Grid1D(np.pi, 16))
        X, Z = g.mesh
        f = Field(g, np.sin(X) * np.cos(2 * Z))
        dx = derivative(f, 1, axis=0)
        dz = derivative(f, 1, axis=1)
        assert np.max(np.abs(dx.values - np.cos(X) * np.cos(2 * Z))) < 1e-12
        assert np.max(np.abs(dz.values + 2 * np.sin(X) * np.sin(2 * Z))) < 1e-12

    @pytest.mark.parametrize("grid, axis", [(Grid1D(np.pi, 8), 1), (Grid1D(np.pi, 8), -1),
                                            (Grid2D(Grid1D(np.pi, 8), Grid1D(np.pi, 4)), 2)])
    def test_missing_axis_rejected(self, grid, axis):
        with pytest.raises(ValueError, match=f"has no axis {axis}"):
            derivative(Field(grid, np.zeros(grid.shape)), 1, axis=axis)


class TestDiffMatrix:
    def test_constant_in_kernel(self):
        D = diff_matrix(Grid1D(3.0, 32), 1)
        assert np.max(np.abs(D @ np.ones(32))) < 1e-12

    def test_second_order_row_sums_vanish(self):
        D2 = diff_matrix(Grid1D(3.0, 32), 2)
        assert np.max(np.abs(D2.sum(axis=1))) < 1e-10

    def test_matrix_agrees_with_fft_path(self):
        g = Grid1D(np.pi, 32)
        D = diff_matrix(g, 1)
        s = np.sin(g.nodes)
        assert np.max(np.abs(D @ s - np.cos(g.nodes))) <= 1e-10
        rng = np.random.default_rng(11)
        v = rng.normal(size=32)
        for order in (1, 2):
            Dm = diff_matrix(g, order)
            fft_path = derivative(Field(g, v), order).values
            assert np.max(np.abs(Dm @ v - fft_path)) <= 1e-10 * max(1.0, np.max(np.abs(fft_path)))

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            diff_matrix(Grid1D(1.0, 8), 3)

    @pytest.mark.parametrize("m", [2, 8, 64, 512])
    @pytest.mark.parametrize("order", [1, 2])
    def test_window_copy_equals_the_gathered_circulant_bit_for_bit(self, m, order):
        g = Grid1D(3.0, m)
        column = derivative(Field(g, np.eye(m)[0]), order).values  # ifft(multiplier), exactly
        gathered = column[np.subtract.outer(np.arange(m), np.arange(m)) % m]
        assert diff_matrix(g, order).tobytes() == gathered.tobytes()


def test_transform_round_trip():
    g = Grid1D(4.0, 128)
    rng = np.random.default_rng(5)
    v = rng.normal(size=128) + 1j * rng.normal(size=128)
    back = np.fft.ifft(np.fft.fft(v))
    assert np.linalg.norm(back - v) <= 1e-12 * np.linalg.norm(v)
