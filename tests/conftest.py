"""Shared fixtures: converged states are expensive, so they are session-scoped."""

import numpy as np
import pytest
import scipy.optimize

import travwave as tw
from travwave.diagnostics import f_operator
from travwave.problems import NodeOperator, operator_model
from travwave.spectral import Field, Grid1D, Grid2D


def reference_jacobian_spectrum(problem, factor, u_star, k):
    """Top-k spectrum of F' from an Arnoldi run of its own: the independent
    reference for the F' report, which the library derives from S's."""
    action, space = f_operator(problem, factor, u_star)
    return tw.top_eigenvalues(action, space.dim, k)


def map_step(problem, u, s):
    """The stabilized map's image of u: the solution u' of L u' = s N(u)."""
    pair = problem.pair(u)
    return pair.field(pair.image(s))


def shift_law_deviation(spec_S, p, q, eigenvalues):
    """Largest distance between the top k eigenvalues of F' given and the
    shift law's prediction: S's reported eigenvalues with the one nearest p
    replaced by p + q, top k by modulus; both sides in np.sort_complex order."""
    lam = list(spec_S.eigenvalues)
    lam.pop(int(np.argmin(np.abs(spec_S.eigenvalues - p))))
    lam.append(complex(p + q))
    lam.sort(key=lambda z: -abs(z))
    predicted = np.sort_complex(np.array(lam[:len(eigenvalues)]))
    return float(np.max(np.abs(predicted - np.sort_complex(eigenvalues))))


@pytest.fixture(scope="session")
def grid_1d():
    return Grid1D(50.0, 512)


@pytest.fixture(scope="session")
def soliton_params():
    return tw.SolitonParameters(sigma=1.0, lambda1=1.0, lambda2=1.0)


@pytest.fixture(scope="session")
def soliton_problem(grid_1d, soliton_params):
    return tw.nls_soliton(soliton_params, grid_1d)


@pytest.fixture(scope="session")
def soliton_exact(soliton_problem):
    return soliton_problem.exact_solution()


@pytest.fixture(scope="session")
def soliton_converged(soliton_problem, soliton_exact):
    """Orbital run A: seed = exact + 0.2i*exact, optimal gamma."""
    seed = soliton_exact + 0.2 * soliton_exact.with_values(1j * soliton_exact.values)
    factor = tw.petviashvili_factor("optimal", soliton_problem)
    result = tw.solve(soliton_problem, factor, seed,
                      tw.IterationConfig(max_iterations=100, residual_tolerance=1e-12))
    assert result.status == "converged"
    return result


@pytest.fixture(scope="session")
def ground_state_problem(grid_1d):
    return tw.nls_ground_state(tw.sech2_potential(grid_1d), 1.3, grid_1d)


@pytest.fixture(scope="session")
def ground_state_converged(ground_state_problem, grid_1d):
    seed = tw.gaussian_seed(grid_1d, 1.0, 2.0)
    factor = tw.petviashvili_factor("optimal", ground_state_problem)
    result = tw.solve(ground_state_problem, factor, seed,
                      tw.IterationConfig(max_iterations=100, residual_tolerance=1e-12))
    assert result.status == "converged"
    return result


@pytest.fixture(scope="session")
def double_well_problem(grid_1d):
    return tw.nls_ground_state(tw.double_well_potential(grid_1d), 1.0, grid_1d, sign=1)


@pytest.fixture(scope="session")
def antisymmetric_state(double_well_problem, grid_1d):
    """Two-bump antisymmetric double-well state: the root of
    F(v) = v - L^{-1} N(v) that scipy's Newton-Krylov solver finds from an
    antisymmetric seed (scipy's `hybr` fails from it).

    It solves L v = v^3 (sign = 1, the indefinite-L branch).
    """
    problem = double_well_problem

    def fixed_point_residual(v):
        return v - problem.solve_L(problem.apply_N(Field(grid_1d, v))).values

    seed = tw.gaussian_seed(grid_1d, 2.0, 1.6, antisymmetric=True)
    root = scipy.optimize.root(fixed_point_residual, seed.values, method="krylov", tol=1e-13)
    assert root.success, root.message
    state = Field(grid_1d, root.x)
    assert problem.pair(state).residual <= 1e-12
    return state


@pytest.fixture(scope="session")
def lump_grid_fine():
    l = 10 * np.pi
    return Grid2D(Grid1D(l, 256), Grid1D(l, 256))


@pytest.fixture(scope="session")
def lump_converged_fine(lump_grid_fine):
    """KP-I lump (Gamma = 0) on a grid resolving the spectral tail, for
    generator eigenrelation checks."""
    problem = tw.benjamin_lump(0.0, 1.0, lump_grid_fine)
    seed = tw.gaussian_seed(lump_grid_fine, 2.0, 2.0)
    factor = tw.petviashvili_factor("optimal", problem)
    result = tw.solve(problem, factor, seed,
                      tw.IterationConfig(max_iterations=600, residual_tolerance=1e-10))
    assert result.status == "converged"
    return problem, result.final


def make_synthetic_diagonal(scale=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
                            couplings=(0.0, -2.0, 1.5, 1.2, 1.0, 0.6, 0.35, 0.16)):
    """Diagonal L with a bilinear degree-2 nonlinearity on an 8-point grid.

    N(u) = (u1^2, c2 u1 u2, ..., c8 u1 u8); the state u* = (l1, 0, ..., 0)
    solves L u = N(u) exactly and S = diag(2, c2 l1/l2, ..., c8 l1/l8), by
    default diag(2, -1, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02).  The eigenvalues are
    distinct, so no Krylov space of a random start vector is invariant before
    Arnoldi has found the top six.
    """
    lvec = np.asarray(scale, dtype=float)
    cvec = np.asarray(couplings, dtype=float)
    grid = Grid1D(1.0, lvec.size)

    def g(v):
        out = cvec * v[0] * v
        out[0] = v[0] ** 2
        return out

    def g_jac(v, x):
        out = cvec * (v * x[0] + v[0] * x)
        out[0] = 2.0 * v[0] * x[0]
        return out

    problem = operator_model(
        NodeOperator(apply=lambda v: lvec * v, solve=lambda b: b / lvec, g=g, g_jac=g_jac),
        name="synthetic_diagonal", degree=2.0, grid=grid, is_complex=False,
    )
    u_star = Field(grid, np.eye(lvec.size)[0] * lvec[0])
    s_eigs = np.concatenate([[2.0], cvec[1:] * lvec[0] / lvec[1:]])
    return problem, u_star, s_eigs


@pytest.fixture
def synthetic_diagonal():
    return make_synthetic_diagonal()
