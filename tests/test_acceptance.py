"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Desk-scale defaults: 1D l = 50, m = 512; 2D 128 x 128.
"""

import numpy as np
import pytest

import travwave as tw
from travwave.spectral import Field, Grid1D, Grid2D

from conftest import make_synthetic_diagonal, map_step, reference_jacobian_spectrum, shift_law_deviation


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


@pytest.fixture(scope="module")
def lump_grid_128():
    l = 32 * np.pi
    return Grid2D(Grid1D(l, 128), Grid1D(l, 128))


@pytest.fixture(scope="module")
def lump_continuation(lump_grid_128):
    family = lambda g: tw.benjamin_lump(g, 1.0, lump_grid_128)
    cfg = tw.IterationConfig(max_iterations=2000, residual_tolerance=1e-11)
    path = tw.HomotopyPath(values=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
    seed = tw.gaussian_seed(lump_grid_128, 2.0, 2.0)
    result = tw.continue_solve(lambda g: tw.from_descriptor("petviashvili:optimal", family(g)), path, seed, cfg)
    assert result.completed
    return family, result


def test_criterion_01_iteration_matrix_spectra_at_exact_profiles(grid_1d):
    targets = {
        1.0: [3.0, 1.0, 1.0, 0.5, 1.0 / 3.0, 0.3],
        2.0: [5.0, 1.0, 1.0, 3.0 / 7.0, 5.0 / 21.0, 0.2],
    }
    for sigma, expected in targets.items():
        problem = tw.nls_soliton(tw.SolitonParameters(sigma, 1.0, 1.0), grid_1d)
        spec = tw.iteration_matrix_spectrum(problem, problem.exact_solution(), 6)
        for mod, want in zip(spec.moduli, expected):
            assert mod == pytest.approx(want, abs=5e-3), f"sigma={sigma}"
    report(1, "top-6 moduli at the exact profiles match {3,1,1,1/2,1/3,3/10} and "
              "{5,1,1,3/7,5/21,1/5} within 5e-3")


def test_criterion_02_eigenrelation_suite(soliton_problem, soliton_converged,
                                          ground_state_problem, ground_state_converged):
    checks = []
    for problem, state in ((soliton_problem, soliton_converged.final),
                           (ground_state_problem, ground_state_converged.final)):
        Su = tw.iteration_matrix_action(problem, state, state)
        rel = (Su - problem.degree * state).norm / state.norm
        assert rel <= 1e-6
        checks.append(rel)
    for gen in tw.symmetry_generators(soliton_problem, soliton_converged.final):
        Sg = tw.iteration_matrix_action(soliton_problem, soliton_converged.final, gen)
        rel = (Sg - gen).norm / gen.norm
        assert rel <= 1e-6
        checks.append(rel)
    report(2, f"S u* = p u* and S v_k = v_k hold to 1e-6 (worst {max(checks):.2e})")


def test_criterion_03_spectrum_shift_law(ground_state_problem, ground_state_converged):
    factor = tw.petviashvili_factor("optimal", ground_state_problem)
    state = ground_state_converged.final
    # F' from an Arnoldi run of its own, not the report derived from S's
    spec_S = tw.iteration_matrix_spectrum(ground_state_problem, state, 7)
    spec_F = reference_jacobian_spectrum(ground_state_problem, factor, state, 6)
    assert shift_law_deviation(spec_S, ground_state_problem.degree, factor.degree,
                               spec_F.eigenvalues) <= 1e-4
    assert tw.spectrum_shift_check(ground_state_problem, factor, state, tol=1e-4)["ok"]
    derived = tw.jacobian_spectrum(ground_state_problem, factor, state, spec_S, 6)
    assert np.allclose(derived.eigenvalues, spec_F.eigenvalues, rtol=0.0, atol=1e-10)

    problem, u_star, _ = make_synthetic_diagonal()
    sfactor = tw.petviashvili_factor("optimal", problem)
    syn_S = tw.iteration_matrix_spectrum(problem, u_star, 6)
    syn_F = reference_jacobian_spectrum(problem, sfactor, u_star, 6)
    # dimension 8: S's top 6 predict the top 5 of F'
    assert shift_law_deviation(syn_S, 2.0, sfactor.degree, syn_F.eigenvalues[:5]) <= 1e-4

    # brute-force oracle: dense eigendecomposition of the finite-difference
    # Jacobian of the full stabilized map, compared on the top k
    n = u_star.values.size
    eps = 1e-6
    J = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        up = Field(problem.grid, u_star.values + e)
        dn = Field(problem.grid, u_star.values - e)
        Fp = sfactor(up) * problem.solve_L(problem.apply_N(up)).values
        Fm = sfactor(dn) * problem.solve_L(problem.apply_N(dn)).values
        J[:, j] = (Fp - Fm) / (2 * eps)
    fd = np.sort(np.abs(np.linalg.eigvals(J)))[::-1][:6]
    assert np.allclose(np.sort(syn_F.moduli)[::-1], fd, atol=1e-4)
    report(3, "spec(F') = (spec(S) \\ {p}) u {p+q} within 1e-4 on the ground state "
              "and the synthetic problem (finite-difference oracle agrees)")


def test_criterion_04_ground_state_convergence_and_spectrum(ground_state_problem,
                                                            ground_state_converged):
    tr = ground_state_converged.trace
    assert tr.status == "converged"
    assert tr.iteration_count <= 40
    assert tr.final_residual <= 5e-12
    assert tr.final_factor_discrepancy <= 1e-12
    spec = tw.iteration_matrix_spectrum(ground_state_problem,
                                        ground_state_converged.final, 6)
    assert spec.eigenvalues[0].real == pytest.approx(3.0, abs=1e-3)
    table1_col1 = [2.9999, 0.70640, 0.32731, 0.19060, 0.12518, 0.088644]
    for lam, want in zip(spec.eigenvalues.real, table1_col1):
        assert lam == pytest.approx(want, abs=5e-2)
    report(4, f"Gaussian seed converges in {tr.iteration_count} iterations to "
              f"{tr.final_residual:.2e}; spectrum leads with 3 and matches the "
              "reference column within 5e-2")


def test_criterion_05_antisymmetric_state_and_stabilized_failure(
        double_well_problem, antisymmetric_state, grid_1d):
    res = double_well_problem.pair(antisymmetric_state).residual
    assert res <= 1e-11
    spec = tw.iteration_matrix_spectrum(double_well_problem, antisymmetric_state, 6)
    moduli = spec.moduli
    beyond_p = [m for m, lam in zip(moduli, spec.eigenvalues)
                if m > 1.0 and abs(lam - 3.0) > 1e-2]
    assert len(beyond_p) >= 2
    assert moduli[0] == pytest.approx(8.0032, rel=0.10)
    assert moduli[1] == pytest.approx(5.6760, rel=0.10)

    bump = Field(grid_1d, np.exp(-(grid_1d.nodes - 0.7) ** 2 / 2.0))
    seed = antisymmetric_state + (1e-3 * antisymmetric_state.norm / bump.norm) * bump
    factor = tw.petviashvili_factor("optimal", double_well_problem)
    run = tw.solve(double_well_problem, factor, seed,
                   tw.IterationConfig(max_iterations=300, residual_tolerance=1e-12))
    escaped = np.max(np.abs(run.final.values - antisymmetric_state.values))
    assert run.status != "converged" or escaped > 1e-2
    report(5, f"Newton-Krylov reaches the antisymmetric state (residual {res:.1e}) with "
              f"unstable spectrum {moduli[0]:.4f}, {moduli[1]:.4f}; the stabilized "
              f"iteration leaves it (status {run.status}, departure {escaped:.2e})")


def test_criterion_06_orbital_experiment_A(soliton_converged, soliton_problem,
                                           soliton_exact):
    tr = soliton_converged.trace
    assert tr.status == "converged"
    assert tr.final_residual <= 1e-12
    fit = tw.orbit_match(soliton_converged.final, soliton_problem.exact_solution)
    assert fit.slope == pytest.approx(0.5, abs=2e-3)
    assert fit.intercept_mod_2pi == pytest.approx(0.2, abs=2e-2)
    mod_dist = np.max(np.abs(np.abs(soliton_converged.final.values)
                             - np.abs(soliton_exact.values)))
    assert mod_dist <= 1e-6
    report(6, f"eps=(0.2, 0): slope {fit.slope:.5f}, intercept mod 2pi "
              f"{fit.intercept_mod_2pi:.5f}, modulus distance {mod_dist:.1e}")


def test_criterion_07_orbital_experiment_B(soliton_problem, soliton_exact):
    seed = (soliton_exact
            + 0.2 * soliton_exact.with_values(1j * soliton_exact.values)
            + 0.2 * tw.derivative(soliton_exact, 1))
    factor = tw.petviashvili_factor("optimal", soliton_problem)
    result = tw.solve(soliton_problem, factor, seed,
                      tw.IterationConfig(max_iterations=50, residual_tolerance=1e-11))
    tr = result.trace
    assert tr.status == "converged"
    assert tr.iteration_count <= 50
    assert tr.final_residual <= 1e-11
    fit = tw.orbit_match(result.final, soliton_problem.exact_solution)
    combined = fit.theta0 + 0.5 * fit.x0
    assert combined == pytest.approx(0.3, abs=3e-2)
    report(7, f"eps=(0.2, 0.2): converged in {tr.iteration_count} iterations; "
              f"theta0 + x0/2 = {combined:.5f}")


def test_criterion_08_optimal_rate(soliton_problem, soliton_exact, grid_1d):
    seed = (soliton_exact
            + 0.1 * soliton_exact.with_values(1j * soliton_exact.values)
            + Field(grid_1d, 0.05 * np.exp(-grid_1d.nodes**2 / 9.0) * (1 + 0.5j)))
    counts = {}
    for gamma in (1.0, 1.5, 2.0):
        factor = tw.petviashvili_factor(gamma, soliton_problem, allow_marginal=True)
        result = tw.solve(soliton_problem, factor, seed,
                          tw.IterationConfig(max_iterations=400, residual_tolerance=1e-10))
        hits = np.flatnonzero(result.trace.residuals <= 1e-10)
        counts[gamma] = float(hits[0]) if hits.size else np.inf
    assert counts[1.5] <= counts[1.0]
    assert counts[1.5] <= counts[2.0]
    assert np.isfinite(counts[1.5])
    report(8, f"iterations to 1e-10: gamma 1.5 -> {counts[1.5]:.0f}, "
              f"gamma 1.0 -> {counts[1.0]}, gamma 2.0 -> {counts[2.0]}")


def test_criterion_09_one_step_scaling_identities(soliton_problem, soliton_exact):
    factor = tw.petviashvili_factor("optimal", soliton_problem)
    p = soliton_problem.degree
    for t in (0.5, 2.0):
        stepped = map_step(soliton_problem, t * soliton_exact, factor(t * soliton_exact))
        assert (stepped - soliton_exact).norm <= 1e-10 * soliton_exact.norm
        classical = map_step(soliton_problem, t * soliton_exact, 1.0)
        target = t**p * soliton_exact
        assert (classical - target).norm <= 1e-12 * target.norm
    report(9, "stabilized step with q = -p maps t u* to u* (1e-10); classical step "
              "maps t u* to t^p u* (1e-12) for t in {0.5, 2}")


def test_criterion_10_factor_law_suites(soliton_problem, soliton_converged,
                                        ground_state_problem, ground_state_converged):
    def families(prob, inner_name):
        # the ground state keeps the cube map: <N(u), u^3> = sign * sum(u^6)
        # cannot vanish
        return [
            tw.petviashvili_factor("optimal", prob),
            tw.inner_factor(inner_name, 1.2, prob),
            tw.norm_factor(1, "optimal", prob),
            tw.norm_factor(2, "optimal", prob),
            tw.norm_factor("inf", 1.2, prob),
        ]

    # (P1) at converged states, for every family
    for prob, state, inner_name in (
            (soliton_problem, soliton_converged.final, "square"),
            (ground_state_problem, ground_state_converged.final, "cube")):
        for factor in families(prob, inner_name):
            assert abs(factor(state) - 1.0) <= 1e-8

    # (P2), Euler identity, and gradient FD order on structured random fields
    rng = np.random.default_rng(42)
    x = soliton_problem.grid.nodes
    u = Field(soliton_problem.grid,
              np.exp(-(x**2) / 8.0) * (1.2 + 0.2 * rng.normal(size=x.size))
              * np.exp(0.1j * rng.normal(size=x.size)))
    v = Field(soliton_problem.grid,
              np.exp(-(x**2) / 6.0) * (rng.normal(size=x.size)
                                       + 1j * rng.normal(size=x.size)))
    jNu, jNv = soliton_problem.jacN_action(u, u), soliton_problem.jacN_action(u, v)
    for factor in families(soliton_problem, "square"):
        s_u = factor(u)
        for t in (0.1, 0.5, 2.0, 10.0):
            assert factor(t * u) == pytest.approx(t**factor.degree * s_u, rel=1e-10)
        grad = factor.gradient(u)
        assert grad(u, jNu) == pytest.approx(factor.degree * s_u, rel=1e-12)
        errs = []
        for eps in (1e-3, 1e-4):
            fd = (factor(u + eps * v) - factor(u + (-eps) * v)) / (2 * eps)
            errs.append(abs(fd - grad(v, jNv)))
        order = np.log(errs[0] / errs[1]) / np.log(10.0)
        assert order >= 1.9
    report(10, "(P1) within 1e-8 at converged states, (P2) within 1e-10, Euler "
               "identity within 1e-12, gradient FD order >= 1.9 for all families")


def test_criterion_11_lump_continuation_and_factor_comparison(lump_continuation,
                                                              lump_grid_128):
    family, cont = lump_continuation
    m = lump_grid_128.grid_z.point_count
    for stage in (s for s in cont.stages if s.requested):
        tr = stage.result.trace
        eta = stage.result.final.values
        assert tr.final_residual <= 1e-10
        # pinned exactly every step; stored samples carry summation roundoff only
        assert abs(np.fft.fft2(eta)[0, 0]) <= 1e-12
        mirrored = eta[:, np.r_[0, m - 1:0:-1]]
        assert np.linalg.norm(eta - mirrored) <= 1e-8 * np.linalg.norm(eta)

    warm = cont.stages[-2].result.final  # Gamma = 0.4 profile
    problem = family(0.5)
    iterations = {}
    for descriptor in ("petviashvili:optimal", "norm:1:optimal", "norm:2:optimal"):
        factor = tw.from_descriptor(descriptor, problem)
        run = tw.solve(problem, factor, warm,
                       tw.IterationConfig(max_iterations=2000, residual_tolerance=1e-10))
        assert run.status == "converged", descriptor
        iterations[descriptor] = run.trace.iteration_count
    report(11, f"Gamma 0 -> 0.5 continuation converged at every stage (residual "
               f"<= 1e-10, zero-mass pinned, Z-even); factor comparison at 0.5: "
               f"{iterations}")


def test_criterion_12_classical_iteration_diverges(soliton_problem, soliton_exact,
                                                   ground_state_problem, grid_1d,
                                                   lump_grid_128):
    cases = []
    # seed above the critical scale: small cubic seeds contract to the trivial
    # zero solution instead of blowing up
    cases.append((ground_state_problem, tw.gaussian_seed(grid_1d, 3.0, 2.0)))
    soliton_seed = soliton_exact + 0.2 * soliton_exact.with_values(1j * soliton_exact.values)
    cases.append((soliton_problem, soliton_seed))
    lump = tw.benjamin_lump(0.0, 1.0, lump_grid_128)
    cases.append((lump, tw.gaussian_seed(lump_grid_128, 4.0, 2.0)))

    steps = {}
    for problem, seed in cases:
        stabilized = tw.solve(problem, tw.petviashvili_factor("optimal", problem), seed,
                              tw.IterationConfig(max_iterations=2000,
                                                 residual_tolerance=1e-10))
        assert stabilized.status == "converged", problem.name
        classical = tw.solve(problem, None, seed,
                             tw.IterationConfig(max_iterations=200))
        assert classical.status == "diverged", problem.name
        steps[problem.name] = classical.trace.iteration_count
    report(12, f"classical iteration trips the divergence guard on every family "
               f"(steps to blow-up: {steps}) while the stabilized method converges")
