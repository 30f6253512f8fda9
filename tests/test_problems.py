import numpy as np
import pytest

import travwave as tw
from travwave.linops import real_inner
from travwave.problems import SingularOperatorError
from travwave.spectral import Field, Grid1D, Grid2D

from conftest import make_synthetic_diagonal, map_step


def lump_problem(l=8 * np.pi, m=64, gamma_cap=0.5, cs=1.0):
    grid = Grid2D(Grid1D(l, m), Grid1D(l, m))
    return tw.benjamin_lump(gamma_cap, cs, grid)


def random_field(problem, seed=0):
    rng = np.random.default_rng(seed)
    shape = problem.grid.shape
    vals = rng.normal(size=shape)
    if problem.is_complex:
        vals = vals + 1j * rng.normal(size=shape)
    return Field(problem.grid, vals)


def all_problems(grid):
    return [
        tw.nls_ground_state(tw.sech2_potential(grid), 1.3, grid),
        tw.nls_soliton(tw.SolitonParameters(1.0, 1.0, 1.0), grid),
        lump_problem(),
    ]


class TestModelContracts:
    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_solve_L_inverts_apply_L(self, grid_1d, idx):
        problem = all_problems(grid_1d)[idx]
        b = problem.project_pinned(random_field(problem, seed=idx))
        back = problem.apply_L(problem.solve_L(b))
        assert (back - b).norm <= 1e-10 * b.norm

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_nonlinearity_homogeneity(self, grid_1d, idx):
        problem = all_problems(grid_1d)[idx]
        p = problem.degree
        u = random_field(problem, seed=10 + idx)
        for t in (0.17, 0.5, 2.0, 9.3):
            lhs = problem.apply_N(t * u)
            rhs = t**p * problem.apply_N(u)
            assert (lhs - rhs).norm <= 1e-12 * rhs.norm

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_jacobian_euler_identity(self, grid_1d, idx):
        # N'(u) u = p N(u) for homogeneous N
        problem = all_problems(grid_1d)[idx]
        u = random_field(problem, seed=20 + idx)
        lhs = problem.jacN_action(u, u)
        rhs = problem.degree * problem.apply_N(u)
        assert (lhs - rhs).norm <= 1e-10 * rhs.norm

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_jacobian_fd_consistency(self, grid_1d, idx):
        problem = all_problems(grid_1d)[idx]
        u = random_field(problem, seed=30 + idx)
        v = random_field(problem, seed=40 + idx)
        exact = problem.jacN_action(u, v)
        errs = []
        for eps in (1e-3, 1e-4):
            fd = (problem.apply_N(u + eps * v) - problem.apply_N(u + (-eps) * v)) * (0.5 / eps)
            errs.append((fd - exact).norm)
        if errs[1] <= 1e-11 * exact.norm:
            return  # quadratic N: the central difference is exact to roundoff
        order = np.log(errs[0] / errs[1]) / np.log(10.0)
        assert order >= 1.9

    def test_a_model_without_an_operator_is_rejected_when_built(self, grid_1d):
        identity = lambda u: u
        with pytest.raises(TypeError, match="operator"):
            tw.ProblemModel(name="bare", degree=2.0, grid=grid_1d, is_complex=False, apply_L=identity,
                            solve_L=identity, apply_N=identity, jacN_action=lambda u, v: v)

    def test_eigenrelation_at_converged_states(self, ground_state_converged, ground_state_problem,
                                               soliton_problem, soliton_exact):
        for problem, state in ((ground_state_problem, ground_state_converged.final),
                               (soliton_problem, soliton_exact)):
            Su = problem.solve_L(problem.jacN_action(state, state))
            assert (Su - problem.degree * state).norm <= 1e-6 * state.norm


# every family's L, by name: the ground state with both signs and both table1
# potentials, the soliton, the lump with and without Gamma (its (0,0) mode
# pinned), and the synthetic diagonal problem
SELF_ADJOINT_CASES = {
    "ground_state_sech2_minus": lambda g: tw.nls_ground_state(tw.sech2_potential(g), 1.3, g),
    "ground_state_sech2_plus": lambda g: tw.nls_ground_state(tw.sech2_potential(g), 1.3, g, sign=1),
    "ground_state_double_well_minus": lambda g: tw.nls_ground_state(
        tw.double_well_potential(g), 1.0, g),
    "ground_state_double_well_plus": lambda g: tw.nls_ground_state(
        tw.double_well_potential(g), 1.0, g, sign=1),
    "soliton": lambda g: tw.nls_soliton(tw.SolitonParameters(1.0, 1.0, 1.0), g),
    "lump_gamma_0": lambda g: lump_problem(gamma_cap=0.0),
    "lump_gamma_0.5": lambda g: lump_problem(gamma_cap=0.5),
    "synthetic_diagonal": lambda g: make_synthetic_diagonal()[0],
}


class TestSelfAdjointL:
    @pytest.mark.parametrize("name", sorted(SELF_ADJOINT_CASES))
    def test_apply_L_is_self_adjoint_in_the_real_pairing(self, grid_1d, name):
        problem = SELF_ADJOINT_CASES[name](grid_1d)
        for seed in range(3):
            v = random_field(problem, seed=50 + 2 * seed)
            w = random_field(problem, seed=51 + 2 * seed)
            Lv = problem.apply_L(v)
            gap = abs(real_inner(Lv, w) - real_inner(v, problem.apply_L(w)))
            assert gap <= 1e-12 * Lv.norm * w.norm

    @pytest.mark.parametrize("name", sorted(SELF_ADJOINT_CASES))
    def test_pair_agrees_with_the_four_callables(self, grid_1d, name):
        """The loop's pair, image and inner product, taken through the model's
        operator, give what apply_L, apply_N, solve_L and real_inner give."""
        problem = SELF_ADJOINT_CASES[name](grid_1d)
        u, s = random_field(problem, seed=60), 0.7
        pair, Nu = problem.pair(u), problem.apply_N(u)
        for got, want in ((pair.field(pair.Lc), problem.apply_L(u)), (pair.field(pair.Nc), Nu),
                          (pair.field(pair.image(s)), problem.solve_L(s * Nu))):
            assert (got - want).norm <= 1e-12 * want.norm
        for a, b in ((pair.uc, pair.Lc), (pair.uc, pair.Nc), (pair.Lc, pair.Nc), (pair.Nc, pair.Nc)):
            assert pair.inner(a, b) == pytest.approx(real_inner(pair.field(a), pair.field(b)), rel=1e-12)


class TestGroundState:
    def test_zero_potential_zero_field_trivial(self):
        g = Grid1D(20.0, 64)
        problem = tw.nls_ground_state(np.zeros(64), 1.0, g)
        zero = Field(g, np.zeros(64, dtype=complex))
        assert problem.pair(zero).residual == 0.0

    def test_singular_mu_rejected(self):
        g = Grid1D(20.0, 64)
        V = tw.sech2_potential(g)
        L0 = tw.diff_matrix(g, 2) + np.diag(V)
        mu_star = np.max(np.linalg.eigvalsh(0.5 * (L0 + L0.T)))
        with pytest.raises(SingularOperatorError):
            tw.nls_ground_state(V, mu_star, g)

    def test_solves_match_lu_solve_bit_for_bit(self, ground_state_problem, grid_1d):
        from scipy.linalg import lu_factor, lu_solve

        m, V = grid_1d.point_count, tw.sech2_potential(grid_1d)
        factorization = lu_factor(tw.diff_matrix(grid_1d, 2) + np.diag(V) - 1.3 * np.eye(m))  # the factored L
        rng = np.random.default_rng(11)
        for _ in range(200):
            b = Field(grid_1d, rng.normal(size=m))
            assert np.array_equal(ground_state_problem.solve_L(b).values, lu_solve(factorization, b.values))

    def test_apply_L_is_the_spectral_sum_bit_for_bit(self, grid_1d):
        """L v is D^2 v by `derivative` plus (V - mu) v, on real and complex
        values; the dense sum D^2 + diag(V) - mu*I rounds differently, by
        less than 1e-12 ||L||_1."""
        V, mu, m = tw.sech2_potential(grid_1d), 1.3, grid_1d.point_count
        problem = tw.nls_ground_state(V, mu, grid_1d)
        rng = np.random.default_rng(12)
        for v in (*np.eye(m), rng.normal(size=m), rng.normal(size=m) + 1j * rng.normal(size=m)):
            u = Field(grid_1d, v)
            assert np.array_equal(problem.apply_L(u).values, tw.derivative(u, 2).values + (V - mu) * v)
        L = tw.diff_matrix(grid_1d, 2) + np.diag(V) - mu * np.eye(m)
        columns = np.column_stack([problem.apply_L(Field(grid_1d, e)).values for e in np.eye(m)])
        assert np.max(np.abs(columns - L)) <= 1e-12 * np.linalg.norm(L, 1)

    def test_the_model_holds_one_dense_array(self, grid_1d):
        """L is factored in place: the LU factors are the one m x m array the
        model keeps, and the build never holds a second."""
        import tracemalloc

        V, mu, m = tw.sech2_potential(grid_1d), 1.3, grid_1d.point_count
        tw.nls_ground_state(V, mu, grid_1d)  # a first build, so lazy imports and caches are not counted
        tracemalloc.start()
        try:
            model = tw.nls_ground_state(V, mu, grid_1d)  # alive, so its arrays count as retained
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 1.1 * 8 * m * m and peak <= 1.1 * 8 * m * m, (retained / (8 * m * m), peak / (8 * m * m))

    def test_non_finite_potential_sample_rejected(self, grid_1d):
        """A NaN sample is a ValueError about the potential, not a model whose
        solves return NaN nor a report of a singular operator."""
        with pytest.raises(ValueError) as raised:
            tw.nls_ground_state(lambda x: np.where(x == x[5], np.nan, 1 / np.cosh(x) ** 2), 1.3, grid_1d)
        assert not isinstance(raised.value, SingularOperatorError)

    def test_callable_potential_accepted(self, grid_1d):
        problem = tw.nls_ground_state(lambda x: 1 / np.cosh(x) ** 2, 1.3, grid_1d)
        u = random_field(problem, seed=3)
        ref = tw.nls_ground_state(tw.sech2_potential(grid_1d), 1.3, grid_1d)
        assert (problem.apply_L(u) - ref.apply_L(u)).norm <= 1e-14 * u.norm

    def test_localized_branch_lives_on_imaginary_axis(self, ground_state_problem,
                                                      ground_state_converged):
        # the sign = -1 state v stands for u = i v, a solution of L u = u^3
        v = ground_state_converged.final
        assert not v.is_complex
        u = v.with_values(1j * v.values)
        assert np.max(np.abs(u.values.real)) == 0.0
        assert np.max(np.abs(u.values.imag)) > 0.1
        assert (ground_state_problem.apply_L(u) - u.with_values(u.values**3)).norm <= 1e-11

    def test_converged_spectrum_leading_values(self, ground_state_problem, ground_state_converged):
        spec = tw.iteration_matrix_spectrum(ground_state_problem, ground_state_converged.final, 3)
        assert spec.eigenvalues[0].real == pytest.approx(2.9999, abs=1e-3)
        assert spec.eigenvalues[1].real == pytest.approx(0.70640, abs=5e-3)
        assert spec.eigenvalues[2].real == pytest.approx(0.32731, abs=5e-3)

    def test_antisymmetric_state_spectrum(self, double_well_problem, antisymmetric_state):
        spec = tw.iteration_matrix_spectrum(double_well_problem, antisymmetric_state, 6)
        vals = spec.eigenvalues.real
        assert vals[0] == pytest.approx(8.0032, abs=0.05)
        assert vals[1] == pytest.approx(-5.6760, abs=0.05)
        assert vals[2] == pytest.approx(3.0, abs=1e-3)


class TestSoliton:
    def test_parameter_error_when_a_nonpositive(self):
        with pytest.raises(ValueError):
            tw.SolitonParameters(sigma=1.0, lambda1=1.0, lambda2=2.0)  # a = 0
        with pytest.raises(ValueError):
            tw.SolitonParameters(sigma=1.0, lambda1=0.5, lambda2=2.0)  # a < 0

    def test_symbol_has_no_real_roots(self, grid_1d, soliton_problem):
        k = np.linspace(-100, 100, 10001)
        symbol = -(k**2) - 1.0 + k
        assert np.max(symbol) < 0  # discriminant -4a < 0

    def test_peak_modulus_value(self, soliton_exact):
        # |U(0)| = sqrt(a*(sigma+1)) = sqrt(1.5) at sigma=1, lambda1=lambda2=1
        assert np.max(np.abs(soliton_exact.values)) == pytest.approx(np.sqrt(1.5), abs=1e-12)

    def test_modulus_even_about_center(self, grid_1d):
        # center -x0 = 3.125 sits exactly on a node (16 h), so node mirroring is exact
        prof = tw.exact_soliton_profile(tw.SolitonParameters(1.0, 1.0, 1.0), grid_1d, x0=-3.125)
        mod = np.abs(prof.values)
        j = int(np.argmax(mod))
        assert grid_1d.nodes[j] == pytest.approx(3.125, abs=1e-12)
        i = np.arange(1, 41)
        assert np.max(np.abs(mod[j + i] - mod[j - i])) <= 1e-10

    def test_sampled_profile_satisfies_discrete_system(self, soliton_problem, soliton_exact):
        assert soliton_problem.pair(soliton_exact).residual <= 1e-8

    def test_sampled_profile_sigma2_on_resolving_grid(self):
        g = Grid1D(50.0, 1024)
        problem = tw.nls_soliton(tw.SolitonParameters(2.0, 1.0, 1.0), g)
        assert problem.pair(problem.exact_solution()).residual <= 1e-8

    def test_group_parameters_compose(self, grid_1d):
        params = tw.SolitonParameters(1.0, 1.0, 1.0)
        u0 = tw.exact_soliton_profile(params, grid_1d).values
        u1 = tw.exact_soliton_profile(params, grid_1d, x0=1.5, theta0=0.7).values
        # e^{i theta0} u(x + x0) sampled directly
        xs = grid_1d.nodes + 1.5
        rho = np.sqrt(1.5) / np.cosh(np.sqrt(0.75) * xs)
        ref = rho * np.exp(1j * (0.5 * xs + 0.7))
        assert np.max(np.abs(u1 - ref)) < 1e-12
        assert np.max(np.abs(u0 - np.abs(u0) * np.exp(1j * 0.5 * grid_1d.nodes))) < 1e-12


class TestBenjaminLump:
    def test_symbol_value_via_mode(self):
        # at (kx, kz) = (1, 0), Gamma = 0.5, c_s = 1: 1*(1 + 2*0.5*1 + 1) = 3
        problem = lump_problem(l=4 * np.pi, m=16, gamma_cap=0.5, cs=1.0)
        X, _ = problem.grid.mesh
        mode = Field(problem.grid, np.cos(X))
        out = problem.apply_L(mode)
        ratio = out.values[4, 2] / mode.values[4, 2]
        assert ratio == pytest.approx(3.0, abs=1e-12)

    def test_apply_N_vanishes_on_zero_kx_modes(self):
        problem = lump_problem()
        u = random_field(problem, seed=9)
        Nu = problem.apply_N(u)
        nhat = np.fft.fft2(Nu.values)
        assert np.max(np.abs(nhat[0, :])) <= 1e-10 * np.max(np.abs(nhat))

    def test_step_output_has_zero_x_mean_lines(self):
        problem = lump_problem()
        u = random_field(problem, seed=2)
        stepped = map_step(problem, u, 1.0)
        assert np.max(np.abs(stepped.values.sum(axis=0))) <= 1e-10 * np.max(np.abs(stepped.values))

    def test_gamma_zero_is_admissible_start(self):
        problem = lump_problem(gamma_cap=0.0)
        assert problem.params["Gamma"] == 0.0

    def test_invalid_parameters_rejected(self):
        grid = Grid2D(Grid1D(8.0, 16), Grid1D(8.0, 16))
        with pytest.raises(ValueError):
            tw.benjamin_lump(0.5, 0.0, grid)
        with pytest.raises(ValueError):
            tw.benjamin_lump(-0.1, 1.0, grid)


class TestGaussianSeed:
    def test_center_value(self):
        g = Grid1D(1.0, 2)  # nodes at -1, 0
        seed = tw.gaussian_seed(g, 1.0, 1.0)
        assert seed.values[1] == pytest.approx(1.0)

    def test_antisymmetric_seed_is_odd(self):
        g = Grid1D(10.0, 64)
        seed = tw.gaussian_seed(g, 2.0, 1.5, antisymmetric=True)
        v = seed.values
        mirrored = np.r_[v[0], v[:0:-1]]
        assert np.max(np.abs(v + mirrored)) < 1e-14

    def test_2d_seed_pinned_mode_zero_after_projection(self):
        problem = lump_problem()
        seed = tw.gaussian_seed(problem.grid, 2.0, 2.0)
        projected = problem.project_pinned(seed)
        assert abs(np.fft.fft2(projected.values)[0, 0]) <= 1e-12

    def test_invalid_arguments(self):
        g = Grid1D(1.0, 4)
        with pytest.raises(ValueError):
            tw.gaussian_seed(g, 0.0, 1.0)
        with pytest.raises(ValueError):
            tw.gaussian_seed(g, 1.0, -1.0)

    @pytest.mark.parametrize("field, amplitude, width", [
        ("amplitude", float("nan"), 1.0), ("amplitude", float("inf"), 1.0),
        ("amplitude", float("-inf"), 1.0), ("width", 1.0, float("nan")),
        ("width", 1.0, float("inf")),
    ])
    def test_non_finite_arguments_rejected(self, field, amplitude, width):
        """An all-NaN seed is never a start."""
        with pytest.raises(ValueError, match=field):
            tw.gaussian_seed(Grid1D(1.0, 4), amplitude, width)
