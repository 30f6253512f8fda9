import dataclasses

import numpy as np
import pytest

import travwave as tw
from travwave import iterate
from travwave.cli import build_factor, build_iteration_config, build_problem, build_seed, load_recipe
from travwave.factors import FactorDomainError
from travwave.problems import NodeOperator, operator_model
from travwave.spectral import Field, Grid1D, Grid2D

from conftest import map_step

# J L^-1 actions in one Newton step: the Krylov iterations of the
# L^-1-preconditioned GMRES plus its true-residual check.  An unpreconditioned
# or over-tight GMRES takes hundreds to thousands.
NEWTON_ACTIONS_PER_STEP = 20


def counting_jacobian(problem):
    """The problem with jacN_action counted, and the list of per-step counts.

    Each Newton step linearizes at a new state object, so a change of the
    first argument starts a new count."""
    counts, last = [], [None]

    def action(u, w):
        if u is not last[0]:
            last[0] = u
            counts.append(0)
        counts[-1] += 1
        return problem.jacN_action(u, w)

    return dataclasses.replace(problem, jacN_action=action), counts


class TestClassicalStep:
    def test_fixed_point_at_solution(self, soliton_problem, soliton_exact):
        stepped = map_step(soliton_problem, soliton_exact, 1.0)
        assert (stepped - soliton_exact).norm <= 1e-10 * soliton_exact.norm

    def test_exact_scaling_law(self, soliton_problem, soliton_exact):
        p = soliton_problem.degree
        for t in (0.9, 1.01):
            out = map_step(soliton_problem, t * soliton_exact, 1.0)
            assert (out - t**p * soliton_exact).norm <= 1e-12 * (t**p * soliton_exact).norm

    def test_iterated_scaling_growth(self, soliton_problem, soliton_exact):
        # u_n = t^{p^n} u*: three classical steps from 1.01*u*
        t, p = 1.01, soliton_problem.degree
        u = t * soliton_exact
        for n in (1, 2, 3):
            u = map_step(soliton_problem, u, 1.0)
            expected = t ** (p ** n)
            assert u.norm / soliton_exact.norm == pytest.approx(expected, rel=1e-10)

    def test_divergence_from_scaled_exact(self, soliton_problem, soliton_exact):
        seed = 1.1 * soliton_exact
        result = tw.solve(soliton_problem, None, seed,
                          tw.IterationConfig(max_iterations=40))
        assert result.status == "diverged"
        assert result.trace.iteration_count <= 20


class TestStabilizedStep:
    def test_solution_maps_to_itself_with_unit_factor(self, soliton_problem, soliton_exact):
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        s_val = factor(soliton_exact)
        out = map_step(soliton_problem, soliton_exact, s_val)
        assert s_val == pytest.approx(1.0, abs=1e-10)
        assert (out - soliton_exact).norm <= 1e-9 * soliton_exact.norm

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_one_step_scaling_identity(self, soliton_problem, soliton_exact, t):
        # with q = -p the scaled solution returns in a single step
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        s_val = factor(t * soliton_exact)
        out = map_step(soliton_problem, t * soliton_exact, s_val)
        assert s_val == pytest.approx(t**factor.degree, rel=1e-10)
        assert (out - soliton_exact).norm <= 1e-10 * soliton_exact.norm

    def test_generic_q_scaling(self, soliton_problem, soliton_exact):
        factor = tw.petviashvili_factor(1.2, soliton_problem)  # q = -2.4, p + q = 0.6
        t = 1.3
        out = map_step(soliton_problem, t * soliton_exact, factor(t * soliton_exact))
        expected = t ** (soliton_problem.degree + factor.degree)
        assert out.norm / soliton_exact.norm == pytest.approx(expected, rel=1e-9)


class TestSolve:
    def test_ground_state_convergence_profile(self, ground_state_problem, grid_1d):
        seed = tw.gaussian_seed(grid_1d, 1.0, 2.0)
        factor = tw.petviashvili_factor("optimal", ground_state_problem)
        result = tw.solve(ground_state_problem, factor, seed,
                          tw.IterationConfig(max_iterations=60, residual_tolerance=1e-12))
        tr = result.trace
        assert tr.status == "converged"
        assert tr.iteration_count <= 40
        assert tr.final_residual <= 1.5e-12 * 3
        assert tr.final_factor_discrepancy <= 1e-12
        # monotone tail
        tail = tr.residuals[-10:]
        assert np.all(np.diff(tail) < 0)

    def test_soliton_gauge_seed_converges_tightly(self, soliton_converged):
        tr = soliton_converged.trace
        assert tr.status == "converged"
        assert tr.final_residual <= 1e-12
        assert tr.final_factor_discrepancy <= 1e-12

    def test_zero_seed_rejected(self, soliton_problem, grid_1d):
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        with pytest.raises(ValueError):
            tw.solve(soliton_problem, factor, Field(grid_1d, np.zeros(512, dtype=complex)),
                     tw.IterationConfig())

    @pytest.mark.parametrize("recipe", ["table2", "fig2", "table1_col12"])
    def test_seed_whose_norm_underflows_is_diverged_at_iteration_0(self, recipe):
        cfg = load_recipe(recipe)
        problem = build_problem(cfg)
        seed = tw.gaussian_seed(problem.grid, 1e-170, 2.0)  # its Euclidean norm is 0.0
        assert np.linalg.norm(seed.values) == 0.0
        if problem.is_complex:
            seed = seed.with_values(seed.values.astype(complex))
        result = tw.solve(problem, build_factor(cfg, problem), seed, build_iteration_config(cfg))
        assert result.status == "diverged"
        assert result.trace.iteration_count == 0

    def test_lump_solve_takes_no_blas_norm(self, monkeypatch):
        # np.linalg.norm is a threaded BLAS ddot on the 128 x 128 lump, which
        # stalls beside a busy sibling process such as the run writer
        cfg = load_recipe("fig2")
        problem = build_problem(cfg)
        factor, seed = build_factor(cfg, problem), build_seed(cfg, problem)

        def no_norm(*args, **kwargs):
            raise AssertionError("np.linalg.norm called")

        monkeypatch.setattr(np.linalg, "norm", no_norm)
        result = tw.solve(problem, factor, seed, build_iteration_config(cfg))
        assert result.status == "converged"

    def test_complex_seed_on_real_problem_rejected(self, ground_state_problem, grid_1d):
        seed = tw.gaussian_seed(grid_1d, 1.0, 2.0)
        factor = tw.petviashvili_factor("optimal", ground_state_problem)
        with pytest.raises(ValueError, match="seed is complex but problem 'nls_ground_state' is real"):
            tw.solve(ground_state_problem, factor, seed.with_values(1j * seed.values))

    def test_petviashvili_cannot_hold_antisymmetric_state(self, double_well_problem,
                                                          antisymmetric_state, grid_1d):
        # perturb the reference state by 1e-3 and run the stabilized iteration
        bump = Field(grid_1d, np.exp(-(grid_1d.nodes - 0.7) ** 2 / 2.0))
        seed = antisymmetric_state + (1e-3 * antisymmetric_state.norm / bump.norm) * bump
        factor = tw.petviashvili_factor("optimal", double_well_problem)
        result = tw.solve(double_well_problem, factor, seed,
                          tw.IterationConfig(max_iterations=300, residual_tolerance=1e-12))
        escaped = np.max(np.abs(result.final.values - antisymmetric_state.values))
        assert result.status != "converged" or escaped > 1e-2

    @pytest.mark.parametrize("engine, iterations", [("stabilized", 5), ("anderson", 6)])
    def test_run_to_the_trivial_state_is_collapsed(self, engine, iterations):
        # the classical map of L = 2I, N(u) = u^2 takes 0.5 to 0.5^2 / 2 and on to 0
        result = tw.solve(scaled_square_problem(scale=2.0), None, two_nodes(0.5, 0.5),
                          tw.IterationConfig(engine=engine))
        assert result.status == "collapsed"
        assert result.trace.iteration_count == iterations

    def test_max_iterations_status(self, soliton_problem, soliton_exact):
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        seed = soliton_exact + 0.3 * soliton_exact.with_values(1j * soliton_exact.values)
        result = tw.solve(soliton_problem, factor, seed,
                          tw.IterationConfig(max_iterations=2, residual_tolerance=1e-15))
        assert result.status == "max_iterations"
        assert result.trace.iteration_count == 2


class TestRateLaw:
    def test_ground_state_generic_seed_contracts_at_second_eigenvalue(
            self, ground_state_problem, ground_state_converged, grid_1d):
        # off-center seed excites the full spectrum: tail ratio ~ |second eig of F'|
        spec = tw.iteration_matrix_spectrum(ground_state_problem,
                                            ground_state_converged.final, 2)
        lam2 = float(np.abs(spec.eigenvalues[1]))
        seed = Field(grid_1d, np.exp(-(grid_1d.nodes - 0.4) ** 2 / 4.0))
        factor = tw.petviashvili_factor("optimal", ground_state_problem)
        result = tw.solve(ground_state_problem, factor, seed,
                          tw.IterationConfig(max_iterations=300, residual_tolerance=1e-12))
        r = result.trace.residuals
        ratios = r[-7:-1] / r[-8:-2]
        assert result.status == "converged"
        assert np.median(ratios) == pytest.approx(lam2, abs=0.02)

    def test_soliton_contracts_at_half(self, soliton_problem, soliton_exact, grid_1d):
        seed = (soliton_exact
                + 0.1 * soliton_exact.with_values(1j * soliton_exact.values)
                + Field(grid_1d, 0.05 * np.exp(-grid_1d.nodes**2 / 9.0) * (1 + 0.5j)))
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        result = tw.solve(soliton_problem, factor, seed,
                          tw.IterationConfig(max_iterations=100, residual_tolerance=1e-12))
        r = result.trace.residuals
        ratios = r[-7:-1] / r[-8:-2]
        assert np.median(ratios) == pytest.approx(0.5, abs=0.01)


class TestNewton:
    def test_from_converged_iterate_is_instant(self, soliton_problem, soliton_converged):
        result = tw.newton_solve(soliton_problem, soliton_converged.final,
                                 tw.IterationConfig(max_iterations=5, residual_tolerance=1e-12))
        assert result.status == "converged"
        assert result.trace.iteration_count <= 2

    def test_complex_seed_on_real_problem_rejected(self, ground_state_problem, grid_1d):
        seed = tw.gaussian_seed(grid_1d, 1.0, 2.0)
        with pytest.raises(ValueError, match="seed is complex but problem 'nls_ground_state' is real"):
            tw.newton_solve(ground_state_problem, seed.with_values(1j * seed.values))

    def test_antisymmetric_double_well_state(self, double_well_problem, antisymmetric_state):
        v = antisymmetric_state.values.real
        mirrored = np.r_[v[0], v[:0:-1]]
        assert np.max(np.abs(v + mirrored)) <= 1e-8 * np.max(np.abs(v))
        # two-bump structure: one dominant extremum per half line
        m = len(v)
        right = v[m // 2:]
        sign_changes = np.count_nonzero(np.diff(np.sign(right[np.abs(right) > 1e-6])))
        assert sign_changes == 0  # single-signed on each side of the origin
        assert np.max(np.abs(v)) == pytest.approx(1.9785, abs=0.05)

    def test_reaches_the_reference_antisymmetric_state(self, double_well_problem, antisymmetric_state, grid_1d):
        seed = tw.gaussian_seed(grid_1d, 2.0, 1.6, antisymmetric=True)
        result = tw.newton_solve(double_well_problem, seed,
                                 tw.IterationConfig(max_iterations=60, residual_tolerance=1e-12))
        assert result.status == "converged"
        distance = np.linalg.norm(result.final.values - antisymmetric_state.values)
        assert distance <= 1e-12 * np.linalg.norm(antisymmetric_state.values)

    def test_soliton_newton_recovers_orbit_element(self, soliton_problem, soliton_exact):
        seed = soliton_exact + 0.2 * soliton_exact.with_values(1j * soliton_exact.values)
        result = tw.newton_solve(soliton_problem, seed,
                                 tw.IterationConfig(max_iterations=25, residual_tolerance=1e-12))
        assert result.status == "converged"
        gauge_only = np.abs(result.final.values) - np.abs(soliton_exact.values)
        assert np.max(np.abs(gauge_only)) <= 1e-8

    def test_quadratic_tail(self, double_well_problem, grid_1d):
        seed = tw.gaussian_seed(grid_1d, 2.0, 1.6, antisymmetric=True)
        result = tw.newton_solve(double_well_problem, seed,
                                 tw.IterationConfig(max_iterations=60, residual_tolerance=1e-12))
        r = result.trace.residuals
        quad = [r[i + 1] <= 10.0 * r[i] ** 1.8 for i in range(len(r) - 1)
                if 1e-10 < r[i] < 1e-1]
        assert quad and all(quad)

    def test_lump_with_4096_unknowns(self):
        """A 64 x 64 lump has 4096 unknowns: Newton finishes a stabilized
        iterate stopped at 1e-4 and lands on the stabilized solution."""
        grid = Grid2D(Grid1D(10 * np.pi, 64), Grid1D(10 * np.pi, 64))
        problem = tw.benjamin_lump(0.0, 1.0, grid)
        factor = tw.petviashvili_factor("optimal", problem)
        seed = tw.gaussian_seed(grid, 2.0, 2.0)
        rough = tw.solve(problem, factor, seed, tw.IterationConfig(residual_tolerance=1e-4))
        fine = tw.solve(problem, factor, seed, tw.IterationConfig(max_iterations=2000, residual_tolerance=1e-10))
        assert rough.status == fine.status == "converged"
        counted, counts = counting_jacobian(problem)
        result = tw.newton_solve(counted, rough.final,
                                 tw.IterationConfig(max_iterations=20, residual_tolerance=1e-10))
        assert result.status == "converged"
        assert np.max(np.abs(result.final.values - fine.final.values)) <= 1e-10
        assert counts and max(counts) <= NEWTON_ACTIONS_PER_STEP

    @pytest.mark.parametrize("width_scale,status", [(1.0, "converged"), (0.9, "collapsed")],
                             ids=["double_well", "collapse"])
    def test_krylov_actions_per_step_stay_small(self, width_scale, status):
        cfg = load_recipe("table1_col34")
        cfg["seed"]["width"] *= width_scale
        problem = build_problem(cfg)
        counted, counts = counting_jacobian(problem)
        result = tw.newton_solve(counted, build_seed(cfg, problem), build_iteration_config(cfg))
        assert result.status == status
        assert len(counts) == result.trace.iteration_count
        assert max(counts) <= NEWTON_ACTIONS_PER_STEP

    @pytest.mark.parametrize("family", ["soliton", "lump", "double_well"])
    def test_engines_share_the_first_record(self, family, soliton_problem, soliton_exact,
                                            double_well_problem, grid_1d):
        """Both engines take RE_0 and ||u_0|| from the same loop, so one seed
        gives the same first record, to the last bit."""
        if family == "soliton":
            problem = soliton_problem
            seed = soliton_exact + 0.2 * soliton_exact.with_values(1j * soliton_exact.values)
        elif family == "lump":
            problem = tw.benjamin_lump(0.0, 1.0, Grid2D(Grid1D(16 * np.pi, 32), Grid1D(16 * np.pi, 32)))
            seed = tw.gaussian_seed(problem.grid, 2.0, 2.0)
        else:
            problem = double_well_problem
            seed = tw.gaussian_seed(grid_1d, 2.0, 1.6, antisymmetric=True)
        factor = tw.petviashvili_factor("optimal", problem)
        cfg = tw.IterationConfig(max_iterations=1)
        stabilized = tw.solve(problem, factor, seed, cfg).trace
        newton = tw.newton_solve(problem, seed, cfg).trace
        assert newton.residuals[0] == stabilized.residuals[0]
        assert newton.norms[0] == stabilized.norms[0]


class TestAnderson:
    """`solve` on the `anderson` engine: Anderson mixing of the stabilized map."""

    @staticmethod
    def recipe_runs(name):
        cfg = load_recipe(name)
        problem = build_problem(cfg)
        factor, seed, itconfig = build_factor(cfg, problem), build_seed(cfg, problem), build_iteration_config(cfg)
        return [tw.solve(problem, factor, seed, dataclasses.replace(itconfig, engine=engine))
                for engine in ("stabilized", "anderson")]

    def test_reaches_the_antisymmetric_state_where_the_plain_map_breaks_down(self, antisymmetric_state):
        plain, mixed = self.recipe_runs("table1_col34")
        assert plain.status == "diverged"
        assert mixed.status == "converged"
        distance = np.linalg.norm(mixed.final.values - antisymmetric_state.values)
        assert distance <= 1e-12 * np.linalg.norm(antisymmetric_state.values)

    def test_fewer_iterations_than_the_plain_map_on_table1_col12(self):
        plain, mixed = self.recipe_runs("table1_col12")  # 26 and 11 iterations
        assert plain.status == mixed.status == "converged"
        assert mixed.trace.iteration_count < plain.trace.iteration_count
        assert np.linalg.norm(mixed.final.values - plain.final.values) <= 1e-11 * np.linalg.norm(plain.final.values)

    def test_complex_soliton_converges_to_the_orbit(self, soliton_problem, grid_1d):
        seed = tw.gaussian_seed(grid_1d, 1.0, 2.0)
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        plain, mixed = (tw.solve(soliton_problem, factor, seed.with_values(seed.values.astype(complex)),
                                 tw.IterationConfig(max_iterations=100, residual_tolerance=1e-12, engine=engine))
                        for engine in ("stabilized", "anderson"))
        assert plain.status == mixed.status == "converged"
        assert mixed.trace.iteration_count < plain.trace.iteration_count
        assert tw.orbit_match(mixed.final, soliton_problem.exact_solution).sup_distance <= 1e-12

    def test_singular_gram_matrix_drops_the_history(self):
        # on two nodes the differences soon lie on a line, and at (1, 0) they vanish
        result = tw.solve(scaled_square_problem(), None, two_nodes(1.3, 0.0),
                          tw.IterationConfig(max_iterations=40, residual_tolerance=1e-300, engine="anderson"))
        assert result.status == "converged"
        assert np.array_equal(result.final.values, [1.0, 0.0])

    @pytest.mark.parametrize("engine", ["newton", "nwton", "Anderson", ""])
    def test_unknown_engine_is_rejected(self, engine):
        with pytest.raises(ValueError, match=f"engine must be one of .*, got {engine!r}"):
            tw.IterationConfig(engine=engine)

    def test_table1_col34_box_reaches_the_newton_state(self, antisymmetric_state):
        """Every seed of a 40-seed box around the recipe's reaches the
        reference state, which Newton also finds; undamped AA(5) breaks the
        factor down from 22 of them."""
        cfg = load_recipe("table1_col34")
        problem = build_problem(cfg)
        factor, itconfig = build_factor(cfg, problem), build_iteration_config(cfg)
        assert itconfig.engine == "anderson"
        missed = []
        for amplitude in np.linspace(0.8, 1.2, 5):
            for width in np.linspace(0.85, 1.5, 8):
                seed = {**cfg["seed"], "amplitude": amplitude * cfg["seed"]["amplitude"],
                        "width": width * cfg["seed"]["width"]}
                result = tw.solve(problem, factor, build_seed({**cfg, "seed": seed}, problem), itconfig)
                distance = np.linalg.norm(result.final.values - antisymmetric_state.values)
                if not (result.status == "converged"
                        and distance <= 1e-12 * np.linalg.norm(antisymmetric_state.values)):
                    missed.append((amplitude, width, result.status, distance))
        assert missed == []


class TestFallback:
    """The guard of a mixing step: a rejected mixed iterate gives way to the
    damped plain step u + 0.3 (G(u) - u), and the history is dropped.  On
    L = I, N(u) = u^2 with the second node at 0, G(x) = x^2."""

    @staticmethod
    def spied(monkeypatch):
        """The history length before and after each fallback."""
        counts = []
        original = iterate._Anderson.fallback

        def fallback(self, pair):
            before = self.count
            out = original(self, pair)
            counts.append((before, self.count))
            return out

        monkeypatch.setattr(iterate._Anderson, "fallback", fallback)
        return counts

    def test_residual_jump_takes_the_damped_step(self, monkeypatch):
        # RE goes from 1.6 * 0.6 = 0.96 at 1.6 to 2.56 * 1.56 = 3.99 at G(1.6) = 2.56
        counts = self.spied(monkeypatch)
        config = tw.IterationConfig(max_iterations=1, engine="anderson")
        mixed = tw.solve(scaled_square_problem(), None, two_nodes(1.6, 0.0), config)
        plain = tw.solve(scaled_square_problem(), None, two_nodes(1.6, 0.0),
                         dataclasses.replace(config, engine="stabilized"))
        assert plain.final.values[0] == pytest.approx(2.56, rel=1e-15)
        assert mixed.final.values[0] == pytest.approx(1.6 + 0.3 * (2.56 - 1.6), rel=1e-15)
        assert counts == [(0, 0)]

    def test_factor_breakdown_takes_the_damped_step_and_drops_the_history(self, monkeypatch):
        # 1.3 -> 1.69 is plain (no history yet); the secant step from 1.69 lands
        # on 1.104, where the factor breaks down, so 1.69 + 0.3 (1.69^2 - 1.69) follows
        def factor(u, pair):
            if 1.0 < u.values[0] < 1.2:
                raise FactorDomainError("outside the factor's domain")
            return 1.0

        counts = self.spied(monkeypatch)
        result = tw.solve(scaled_square_problem(), factor, two_nodes(1.3, 0.0),
                          tw.IterationConfig(max_iterations=2, engine="anderson"))
        assert result.trace.norms[:2] == pytest.approx([1.3, 1.69], rel=1e-15)
        assert result.trace.norms[2] == pytest.approx(1.69 + 0.3 * (1.69**2 - 1.69), rel=1e-15)
        assert result.trace.factor_discrepancies.tolist() == [0.0] * 3
        assert counts == [(1, 0)]

    def test_a_bad_fallback_ends_the_run_as_diverged(self):
        # the factor breaks down everywhere past the seed, the fallback included
        def factor(u, pair):
            if u.values[0] != 1.6:
                raise FactorDomainError("outside the factor's domain")
            return 1.0

        result = tw.solve(scaled_square_problem(), factor, two_nodes(1.6, 0.0),
                          tw.IterationConfig(max_iterations=5, engine="anderson"))
        assert result.status == "diverged"
        assert result.trace.iteration_count == 1
        assert result.trace.norms[1] == pytest.approx(1.888, rel=1e-15)


def scaled_square_problem(scale=1.0, jac_sign=1.0):
    """L = scale*I and N(u) = u*u on a 2-node grid; jacN_action is N'(u)v
    times jac_sign, so jac_sign = -1 stands for a wrong Jacobian."""
    node = NodeOperator(apply=lambda v: v * scale, solve=lambda b: b * (1.0 / scale),
                        g=lambda v: v * v, g_jac=lambda u, v: jac_sign * 2.0 * u * v)
    return operator_model(node, name="scaled_square", degree=2.0, grid=Grid1D(1.0, 2), is_complex=False)


def two_nodes(a, b):
    return Field(Grid1D(1.0, 2), np.array([a, b]))


class TestRunEnds:
    """Exits of the loop that report a failure instead of raising."""

    def test_non_finite_iterate_is_diverged(self):
        # L^-1 = 1e300 I overflows N(u) = 4e8 while RE_0 is still under the guard
        problem = scaled_square_problem(scale=1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            result = tw.solve(problem, None, two_nodes(2e4, 2e4),
                              tw.IterationConfig(max_iterations=5, divergence_guard=1e300))
        assert result.status == "diverged"
        assert result.trace.iteration_count == 1
        assert np.isfinite(result.trace.residuals[0])
        assert result.trace.residuals[-1] == np.inf
        assert not np.all(np.isfinite(result.final.values))

    def test_failed_gmres_ends_newton_as_diverged(self):
        # J = I - 2 diag(u) vanishes at u = (0.5, 0.5), where G(u) = (0.25, 0.25)
        result = tw.newton_solve(scaled_square_problem(), two_nodes(0.5, 0.5),
                                 tw.IterationConfig(max_iterations=5))
        assert result.status == "diverged"
        assert result.trace.iteration_count == 0
        assert result.trace.final_residual == pytest.approx(0.25 * np.sqrt(2.0), rel=1e-15)

    def test_stalled_line_search_ends_newton_at_max_iterations(self):
        # with the Jacobian's sign flipped, the Newton direction climbs ||G||
        result = tw.newton_solve(scaled_square_problem(jac_sign=-1.0), two_nodes(2.0, 2.0),
                                 tw.IterationConfig(max_iterations=5))
        assert result.status == "max_iterations"
        assert result.trace.iteration_count == 0
        assert result.trace.final_residual == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-15)


class TestResidual:
    def test_exact_profile_floor(self, soliton_problem, soliton_exact):
        assert soliton_problem.pair(soliton_exact).residual <= 1e-8

    def test_zero_field_zero_residual(self, soliton_problem, grid_1d):
        assert soliton_problem.pair(Field(grid_1d, np.zeros(512, dtype=complex))).residual == 0.0

    def test_iteration_config_validation(self):
        with pytest.raises(ValueError):
            tw.IterationConfig(max_iterations=0)
        with pytest.raises(ValueError):
            tw.IterationConfig(residual_tolerance=-1.0)
        with pytest.raises(ValueError):
            tw.IterationConfig(divergence_guard=0.5)

    @pytest.mark.parametrize("field, value", [
        ("residual_tolerance", value) for value in (float("nan"), float("inf"), 0.0)
    ] + [("divergence_guard", value) for value in (float("nan"), float("inf"), 1.0)])
    def test_non_finite_or_out_of_range_numbers_rejected(self, field, value):
        """A NaN tolerance never stops the loop, and a NaN guard never fires."""
        with pytest.raises(ValueError, match=field):
            tw.IterationConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, True, None])
    def test_max_iterations_must_be_an_integer(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            tw.IterationConfig(max_iterations=value)
