import dataclasses
import functools

import numpy as np
import pytest

import travwave as tw
from travwave.cli import build_grid, build_iteration_config, build_seed, load_recipe
from travwave.problems import NodeOperator, operator_model
from travwave.spectral import Field, Grid1D, Grid2D


def rotation_family(theta):
    """Planar family with solution u*(theta) = R_theta (1, 0).

    The stabilizing-factor denominator changes sign once the warm start lags
    the stage by more than pi/2, so large parameter jumps fail and bisection
    is exercised deterministically.
    """
    grid = Grid1D(1.0, 2)
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])

    def N0(v):
        return np.array([v[0] ** 2, 0.5 * v[0] * v[1]])

    def jN0(v, w):
        return np.array([2 * v[0] * w[0], 0.5 * (v[1] * w[0] + v[0] * w[1])])

    node = NodeOperator(apply=lambda v: v, solve=lambda b: b, g=lambda v: R @ N0(R.T @ v),
                        g_jac=lambda v, w: R @ jN0(R.T @ v, R.T @ w))
    return operator_model(node, name="rotation", degree=2.0, grid=grid, is_complex=False)


ROTATION_SEED = Field(Grid1D(1.0, 2), np.array([1.0, 0.0]))
ROTATION_FACTOR = "petviashvili:1.8"  # non-integer: negative ratios abort the stage


def factors_of(family, descriptor="petviashvili:optimal"):
    """The factor family of a model family: each stage's factor from one descriptor."""
    return lambda value: tw.from_descriptor(descriptor, family(value))


def coarse_lump_grid():
    l = 16 * np.pi
    return Grid2D(Grid1D(l, 64), Grid1D(l, 64))


@pytest.fixture(scope="module")
def fig2_path():
    """fig2's continuation as a library call, by engine."""
    cfg = load_recipe("fig2")
    grid = build_grid(cfg["problem"])
    family = lambda g: tw.benjamin_lump(g, cfg["problem"]["sound_speed"], grid)
    path = tw.HomotopyPath(values=cfg["continuation"]["values"])
    seed = build_seed(cfg, family(0.0))

    @functools.cache
    def run(engine):
        return tw.continue_solve(factors_of(family, cfg["factor"]["descriptor"]), path, seed,
                                 dataclasses.replace(build_iteration_config(cfg), engine=engine))

    return run


class TestHomotopyPath:
    def test_monotone_required(self):
        with pytest.raises(ValueError):
            tw.HomotopyPath(values=(0.0, 0.2, 0.1))
        with pytest.raises(ValueError):
            tw.HomotopyPath(values=())

    @pytest.mark.parametrize("value", [2.5, True, None, -1])
    def test_max_bisections_must_be_a_nonnegative_integer(self, value):
        with pytest.raises(ValueError):
            tw.HomotopyPath(values=(0.0, 0.1), max_bisections=value)

    @pytest.mark.parametrize("values", [(float("nan"),), (0.0, float("inf")),
                                        (float("-inf"), 0.0), (0.0, float("nan"), 0.2)])
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ValueError, match="values must be finite"):
            tw.HomotopyPath(values=values)

    def test_single_value_allowed(self):
        path = tw.HomotopyPath(values=(0.3,))
        assert path.values == (0.3,)

    def test_decreasing_allowed(self):
        assert tw.HomotopyPath(values=(0.5, 0.3, 0.0)).values == (0.5, 0.3, 0.0)


class TestContinueSolve:
    def test_single_stage_with_converged_seed_is_instant(self):
        grid = coarse_lump_grid()
        family = lambda g: tw.benjamin_lump(g, 1.0, grid)
        cfg = tw.IterationConfig(max_iterations=400, residual_tolerance=1e-10)
        base = tw.solve(family(0.0), tw.petviashvili_factor("optimal", family(0.0)),
                        tw.gaussian_seed(grid, 2.0, 2.0), cfg)
        assert base.status == "converged"
        res = tw.continue_solve(factors_of(family), tw.HomotopyPath(values=(0.0,)), base.final, cfg)
        assert res.completed
        assert res.stages[0].result.trace.iteration_count <= 2

    def test_lump_path_properties(self):
        grid = coarse_lump_grid()
        family = lambda g: tw.benjamin_lump(g, 1.0, grid)
        cfg = tw.IterationConfig(max_iterations=500, residual_tolerance=1e-10)
        path = tw.HomotopyPath(values=(0.0, 0.1, 0.2))
        res = tw.continue_solve(factors_of(family), path, tw.gaussian_seed(grid, 2.0, 2.0), cfg)
        assert res.completed and sum(s.requested for s in res.stages) == 3
        m = grid.grid_z.point_count
        for stage in res.stages:
            eta = stage.result.final.values
            assert stage.result.trace.final_residual <= 1e-10
            # the mode is pinned exactly each step; re-measuring from stored
            # samples carries only summation roundoff
            assert abs(np.fft.fft2(eta)[0, 0]) <= 1e-12
            mirrored = eta[:, np.r_[0, m - 1:0:-1]]
            assert np.linalg.norm(eta - mirrored) <= 1e-8 * np.linalg.norm(eta)

    def test_warm_start_beats_cold_start(self):
        grid = coarse_lump_grid()
        family = lambda g: tw.benjamin_lump(g, 1.0, grid)
        cfg = tw.IterationConfig(max_iterations=500, residual_tolerance=1e-10)
        seed = tw.gaussian_seed(grid, 2.0, 2.0)
        res = tw.continue_solve(factors_of(family), tw.HomotopyPath(values=(0.0, 0.15, 0.3)), seed, cfg)
        warm = {s.parameter_value: s.result.trace.iteration_count for s in res.stages}
        cold = tw.solve(family(0.3), tw.petviashvili_factor("optimal", family(0.3)),
                        seed, cfg)
        assert warm[0.3] <= cold.trace.iteration_count

    def test_bisection_inserts_midpoint_stage(self):
        cfg = tw.IterationConfig(max_iterations=300, residual_tolerance=1e-12)
        path = tw.HomotopyPath(values=(0.0, 1.8), max_bisections=2)
        res = tw.continue_solve(factors_of(rotation_family, ROTATION_FACTOR), path, ROTATION_SEED, cfg)
        assert res.completed
        inserted = [s for s in res.stages if not s.requested]
        assert inserted, "expected a bisection-inserted stage"
        assert inserted[0].parameter_value == pytest.approx(0.9)
        assert [s.parameter_value for s in res.stages if s.requested] == [0.0, 1.8]

    def test_abort_after_bisection_budget(self):
        cfg = tw.IterationConfig(max_iterations=300, residual_tolerance=1e-12)
        path = tw.HomotopyPath(values=(0.0, 1.8), max_bisections=0)
        res = tw.continue_solve(factors_of(rotation_family, ROTATION_FACTOR), path, ROTATION_SEED, cfg)
        assert not res.completed
        assert res.failed_at == pytest.approx(1.8)
        assert [s.parameter_value for s in res.stages] == [0.0]


class TestPredictor:
    def test_extrapolated_seeds_beat_plain_warm_starts(self):
        grid = coarse_lump_grid()
        family = lambda g: tw.benjamin_lump(g, 1.0, grid)
        cfg = tw.IterationConfig(max_iterations=500, residual_tolerance=1e-10)
        values = (0.0, 0.1, 0.2, 0.3)
        res = tw.continue_solve(factors_of(family), tw.HomotopyPath(values=values),
                                tw.gaussian_seed(grid, 2.0, 2.0), cfg)
        assert res.completed and [s.parameter_value for s in res.stages] == list(values)
        state, warm = tw.gaussian_seed(grid, 2.0, 2.0), []
        for value in values:
            problem = family(value)
            warm.append(tw.solve(problem, tw.petviashvili_factor("optimal", problem), state, cfg))
            state = warm[-1].final
        assert all(w.status == "converged" for w in warm)
        count = lambda results: sum(r.trace.iteration_count for r in results)
        assert count(s.result for s in res.stages) < count(warm)
        for stage, ref in zip(res.stages, warm):
            assert np.max(np.abs(stage.result.final.values - ref.final.values)) <= 1e-9
        assert [s.seeded_from for s in res.stages] == [(), (0.0,), (0.0, 0.1), (0.0, 0.1, 0.2)]

    def test_bisection_stage_starts_from_extrapolation_at_its_own_value(self, monkeypatch):
        calls = []

        def family(theta):
            calls.append([theta])
            return rotation_family(theta)

        def recording_solve(problem, factor, start, cfg, **options):
            calls[-1].append(start)
            return tw.solve(problem, factor, start, cfg, **options)

        monkeypatch.setattr(tw.continuation, "solve", recording_solve)
        cfg = tw.IterationConfig(max_iterations=300, residual_tolerance=1e-12)
        path = tw.HomotopyPath(values=(0.0, 0.5, 1.0, 5.0), max_bisections=1)
        res = tw.continue_solve(factors_of(family, ROTATION_FACTOR), path, ROTATION_SEED, cfg)
        assert res.completed
        assert [(s.parameter_value, s.requested) for s in res.stages] == [
            (0.0, True), (0.5, True), (1.0, True), (3.0, False), (5.0, True)]
        assert [theta for theta, _ in calls] == [0.0, 0.5, 1.0, 5.0, 3.0, 5.0]
        u0, u1, u2 = (s.result.final.values for s in res.stages[:3])
        inserted = res.stages[3]
        assert inserted.seeded_from == (0.0, 0.5, 1.0)
        # Lagrange weights of the nodes 0, 0.5, 1 at 3: 10, -24, 15
        np.testing.assert_allclose(calls[4][1].values, 10 * u0 - 24 * u1 + 15 * u2, rtol=1e-13)
        assert res.stages[4].seeded_from == (0.5, 1.0, 3.0)

    def test_fig2_path_converges_within_budget(self, fig2_path):
        res = fig2_path("stabilized")
        assert res.completed and len(res.stages) == len(load_recipe("fig2")["continuation"]["values"])
        assert all(s.result.trace.final_residual <= 1e-10 for s in res.stages)
        # 744 iterations with plain warm starts, 563 with the quadratic predictor
        assert sum(s.result.trace.iteration_count for s in res.stages) <= 600


class TestAndersonPath:
    def test_fig2_path_stays_on_the_plain_engine_states(self, fig2_path):
        plain, mixed = fig2_path("stabilized"), fig2_path("anderson")
        assert mixed.completed
        assert [s.parameter_value for s in mixed.stages] == [s.parameter_value for s in plain.stages]
        for stage, ref in zip(mixed.stages, plain.stages):
            assert stage.result.trace.final_residual <= 1e-10
            difference = np.linalg.norm(stage.result.final.values - ref.result.final.values)
            assert difference <= 1e-9 * np.linalg.norm(ref.result.final.values)
        # 563 iterations on the plain map, 153 mixed
        assert sum(s.result.trace.iteration_count for s in mixed.stages) <= 200

    def test_fig2_seed_box_keeps_every_stage_and_iteration_count(self):
        """fig2 from its seed with amplitude and width scaled by 0.9, 1.0 and
        1.1 takes the 12 requested stages and no inserted one, in the
        iteration totals of the unguarded AA(5) step: the guard never fires."""
        cfg = load_recipe("fig2")
        grid = build_grid(cfg["problem"])
        family = lambda g: tw.benjamin_lump(g, cfg["problem"]["sound_speed"], grid)
        path = tw.HomotopyPath(values=cfg["continuation"]["values"])
        totals = {}
        for amplitude in (0.9, 1.0, 1.1):
            for width in (0.9, 1.0, 1.1):
                seed = {**cfg["seed"], "amplitude": amplitude * cfg["seed"]["amplitude"],
                        "width": width * cfg["seed"]["width"]}
                res = tw.continue_solve(factors_of(family, cfg["factor"]["descriptor"]), path,
                                        build_seed({**cfg, "seed": seed}, family(0.0)), build_iteration_config(cfg))
                assert res.completed and [s.parameter_value for s in res.stages] == list(path.values)
                totals[amplitude, width] = sum(s.result.trace.iteration_count for s in res.stages)
        assert totals == {(0.9, 0.9): 152, (0.9, 1.0): 153, (0.9, 1.1): 154,
                          (1.0, 0.9): 152, (1.0, 1.0): 153, (1.0, 1.1): 154,
                          (1.1, 0.9): 153, (1.1, 1.0): 153, (1.1, 1.1): 153}

    def test_every_stage_solve_is_mixed(self, monkeypatch):
        engines = []

        def recording_solve(problem, factor, start, cfg):
            engines.append(cfg.engine)
            return tw.solve(problem, factor, start, cfg)

        monkeypatch.setattr(tw.continuation, "solve", recording_solve)
        grid = coarse_lump_grid()
        family = lambda g: tw.benjamin_lump(g, 1.0, grid)
        res = tw.continue_solve(factors_of(family), tw.HomotopyPath(values=(0.0, 0.1)),
                                tw.gaussian_seed(grid, 2.0, 2.0),
                                tw.IterationConfig(max_iterations=500, residual_tolerance=1e-10,
                                                   engine="anderson"))
        assert res.completed
        assert engines == ["anderson"] * 2
