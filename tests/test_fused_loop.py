"""The fused stabilized loop: one (L u, N(u)) pair per iteration.

Each case also runs on a copy of the problem whose operator is a
NodeOperator built from the family's own four callables (`node_operator_copy`).
That copy runs the loop on node values and evaluates L u, N(u) and the solve
through the physical-space operators, as the loop did before it ran on
Fourier coefficients.
"""

from dataclasses import replace

import numpy as np
import pytest

import travwave as tw
from travwave.problems import NodeOperator
from travwave.spectral import Field, Grid1D, Grid2D

from conftest import map_step

DESCRIPTORS = ("petviashvili:optimal", "inner:f=square:optimal", "norm:2:optimal")


def lump_case(gamma_cap):
    l = 16 * np.pi
    grid = Grid2D(Grid1D(l, 64), Grid1D(l, 64))
    return tw.benjamin_lump(gamma_cap, 1.0, grid), tw.gaussian_seed(grid, 2.0, 2.0), 1e-10


def soliton_case():
    grid = Grid1D(50.0, 512)
    problem = tw.nls_soliton(tw.SolitonParameters(1.0, 1.0, 1.0), grid)
    exact = problem.exact_solution()
    bump = Field(grid, 0.05 * np.exp(-grid.nodes**2 / 9.0) * (1 + 0.5j))
    # 1e-11, not 1e-12: the physical-space residual has a roundoff floor of
    # about 1.5e-13 here, so at 1e-12 it decides the last iteration
    return problem, exact + 0.2 * exact.with_values(1j * exact.values) + bump, 1e-11


def ground_state_case():
    grid = Grid1D(50.0, 256)
    problem = tw.nls_ground_state(tw.sech2_potential(grid), 1.3, grid)
    return problem, tw.gaussian_seed(grid, 1.0, 2.0), 1e-12


# Iteration counts per descriptor, measured with the physical-space loop
# before the fused step.  The ground state's inner:f=square count was measured
# when the family became real: <N(v), v^2> = sign * sum(v^5) does not vanish
# on a one-signed profile.
CASES = {
    "lump_gamma_0": (lambda: lump_case(0.0), (77, 78, 78)),
    "lump_gamma_0.9": (lambda: lump_case(0.9), (69, 70, 70)),
    "soliton": (soliton_case, (31, 32, 32)),
    "ground_state": (ground_state_case, (26, 26, 27)),
}


def node_operator_copy(problem):
    """The problem with a NodeOperator that calls its four callables on node values."""
    def at(values):
        return Field(problem.grid, values)

    node = NodeOperator(apply=lambda v: problem.apply_L(at(v)).values,
                        solve=lambda b: problem.solve_L(at(b)).values,
                        g=lambda v: problem.apply_N(at(v)).values,
                        g_jac=lambda v, w: problem.jacN_action(at(v), at(w)).values)
    return replace(problem, operator=node)


@pytest.mark.parametrize("name", CASES)
def test_fused_loop_matches_physical_space_loop(name):
    build, counts = CASES[name]
    problem, seed, tol = build()
    seed = problem.project_pinned(seed)
    physical = node_operator_copy(problem)
    config = tw.IterationConfig(max_iterations=300, residual_tolerance=tol)
    for descriptor, count in zip(DESCRIPTORS, counts):
        fused = tw.solve(problem, tw.from_descriptor(descriptor, problem), seed, config)
        reference = tw.solve(physical, tw.from_descriptor(descriptor, physical), seed, config)
        assert fused.trace.iteration_count == reference.trace.iteration_count == count, descriptor
        ref = reference.final.values
        assert np.linalg.norm(fused.final.values - ref) <= 1e-12 * np.linalg.norm(ref), descriptor
        u = fused.final
        recomputed = (problem.apply_L(u) - problem.apply_N(u)).norm
        assert abs(fused.trace.final_residual - recomputed) <= 0.05 * tol, descriptor


def test_one_lump_iteration_makes_two_ffts(monkeypatch):
    problem, seed, _ = lump_case(0.0)
    factor = tw.petviashvili_factor("optimal", problem)
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(_original.__name__)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    def fft_calls(iterations):
        calls.clear()
        config = tw.IterationConfig(max_iterations=iterations, residual_tolerance=1e-300)
        assert tw.solve(problem, factor, seed, config).trace.iteration_count == iterations
        return len(calls)

    assert fft_calls(4) - fft_calls(3) == 2


def test_dense_step_evaluates_each_operator_once():
    problem, seed, tol = ground_state_case()
    calls = {"apply": 0, "g": 0, "solve": 0}

    def counted(name):
        original = getattr(problem.operator, name)

        def wrapper(values):
            calls[name] += 1
            return original(values)

        return wrapper

    counting = replace(problem, operator=replace(problem.operator, **{name: counted(name) for name in calls}))
    result = tw.solve(counting, tw.petviashvili_factor("optimal", counting), seed,
                      tw.IterationConfig(residual_tolerance=tol))
    n = result.trace.iteration_count
    assert n > 0
    assert calls == {"apply": n + 1, "g": n + 1, "solve": n}


def test_step_wrappers_share_the_pair(soliton_problem, soliton_exact):
    u = 1.01 * soliton_exact
    pair = soliton_problem.pair(u)
    factor = tw.petviashvili_factor("optimal", soliton_problem)
    # a step from a fresh pair and from the stored one agree bit for bit
    s_val = factor(u)
    stepped = map_step(soliton_problem, u, s_val)
    assert s_val == factor(u) == factor(u, pair)
    assert np.array_equal(stepped.values, pair.field(pair.image(s_val)).values)
    assert soliton_problem.pair(u).residual == pair.residual
