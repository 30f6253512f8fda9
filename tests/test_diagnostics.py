import json

import numpy as np
import pytest
import scipy.linalg

import travwave as tw
from travwave import diagnostics
from travwave.diagnostics import (RESIDUAL_TOL, UNIT_TOL, SpectrumReport, f_operator,
                                  hypothesis_verdicts, s_operator)
from travwave.factors import F_MAPS, DegenerateDenominatorError
from travwave.linops import assemble_matrix, real_inner
from travwave.spectral import Field, Grid1D

from conftest import make_synthetic_diagonal, reference_jacobian_spectrum, shift_law_deviation


class TestIterationMatrixAction:
    def test_state_is_eigenvector_with_eigenvalue_p(self, soliton_problem, soliton_exact):
        out = tw.iteration_matrix_action(soliton_problem, soliton_exact, soliton_exact)
        p = soliton_problem.degree
        assert (out - p * soliton_exact).norm <= 1e-6 * soliton_exact.norm

    def test_gauge_generator_has_eigenvalue_one(self, soliton_problem, soliton_exact):
        v = soliton_exact.with_values(1j * soliton_exact.values)
        out = tw.iteration_matrix_action(soliton_problem, soliton_exact, v)
        assert (out - v).norm <= 1e-6 * v.norm

    def test_translation_generator_has_eigenvalue_one(self, soliton_problem, soliton_exact):
        v = tw.derivative(soliton_exact, 1)
        out = tw.iteration_matrix_action(soliton_problem, soliton_exact, v)
        assert (out - v).norm <= 1e-6 * v.norm


class TestTopEigenvalues:
    def test_identity_oracle_gives_all_ones(self):
        report = tw.top_eigenvalues(lambda v: v, dimension=40, k=5)
        assert np.allclose(report.eigenvalues, 1.0)
        assert np.all(report.near_unit)
        assert np.max(report.residuals) <= 1e-12

    def test_repeated_calls_are_bit_identical(self):
        # the identity's Krylov space is invariant from the first step, so
        # every direction past the start vector is a fresh draw, and each
        # call draws from a generator of its own
        first, second = (tw.top_eigenvalues(lambda v: v, dimension=40, k=5) for _ in range(2))
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_repeated_top_eigenvalue_reported_twice(self):
        # the Krylov space of the start vector meets the eigenspace of 1 in
        # one direction; the breakdown after three steps brings in the other
        diag = np.full(40, 0.5)
        diag[:3] = [3.0, 1.0, 1.0]
        report = tw.top_eigenvalues(lambda v: diag * v, dimension=40, k=3)
        assert np.allclose(report.eigenvalues, [3.0, 1.0, 1.0], rtol=0.0, atol=1e-12)
        assert report.verified
        assert np.linalg.matrix_rank(report.eigenvectors[1:3, 1:3], tol=1e-6) == 2

    def test_breakdown_at_every_step_on_the_identity(self):
        # every action breaks down, so the basis is the start vector and
        # fresh draws; one basis of ARPACK's default size 20 converges it
        calls = [0]

        def identity(v):
            calls[0] += 1
            return v

        report = tw.top_eigenvalues(identity, dimension=1000, k=6, spare=1)
        assert report.converged
        assert np.array_equal(report.eigenvalues, np.ones(6))
        assert calls[0] == 20 + 6
        assert np.linalg.matrix_rank(report.eigenvectors, tol=1e-6) == 6

    def test_restart_cap_reports_the_converged_pairs(self, monkeypatch):
        # one basis of 20 actions resolves an isolated 100, not the cluster below 2
        monkeypatch.setattr(diagnostics, "ARNOLDI_RESTARTS", 1)
        diag = 1.0 + np.arange(5000) / 5000
        with pytest.raises(RuntimeError, match="none of the 4 eigenpairs requested converged in 1 "):
            tw.top_eigenvalues(lambda v: diag * v, dimension=5000, k=4)
        diag[0] = 100.0
        report = tw.top_eigenvalues(lambda v: diag * v, dimension=5000, k=4)
        assert not report.converged and not report.verified
        assert np.allclose(report.eigenvalues, [100.0], rtol=0.0, atol=1e-12)

    def test_arnoldi_path_on_large_diagonal_operator(self):
        n = 5000
        diag = 1.0 + np.arange(n) / n  # top eigenvalues just below 2
        report = tw.top_eigenvalues(lambda v: diag * v, dimension=n, k=4)
        expected = diag[-4:][::-1]
        assert np.allclose(np.sort(report.moduli)[::-1], expected, atol=1e-8)

    def test_synthetic_eigenpairs_exact(self, synthetic_diagonal):
        problem, u_star, s_eigs = synthetic_diagonal
        report = tw.iteration_matrix_spectrum(problem, u_star, 6)
        assert np.max(report.residuals) <= 1e-12
        top = s_eigs[np.argsort(-np.abs(s_eigs))[:6]]
        assert np.allclose(report.eigenvalues, top, rtol=0.0, atol=1e-12)
        again = tw.iteration_matrix_spectrum(problem, u_star, 6)
        assert np.array_equal(again.eigenvalues, report.eigenvalues)
        assert np.array_equal(again.eigenvectors, report.eigenvectors)

    @pytest.mark.parametrize("k", [0, 7, 8, 9])
    def test_k_outside_arnoldi_limit_rejected(self, synthetic_diagonal, k):
        problem, u_star, _ = synthetic_diagonal
        with pytest.raises(ValueError, match="dimension - 1 = 7"):
            tw.iteration_matrix_spectrum(problem, u_star, k)


def residual_action_count(monkeypatch, action, dimension, k):
    """The report of top_eigenvalues and the number of actions it took after
    Arnoldi returned, i.e. to measure the eigen-residuals."""
    calls = [0]
    arnoldi_calls = []

    def counting(v):
        calls[0] += 1
        return action(v)

    arnoldi = diagnostics._krylov_schur

    def marked_arnoldi(*args, **kwargs):
        out = arnoldi(*args, **kwargs)
        arnoldi_calls.append(calls[0])
        return out

    monkeypatch.setattr(diagnostics, "_krylov_schur", marked_arnoldi)
    report = tw.top_eigenvalues(counting, dimension, k)
    return report, calls[0] - arnoldi_calls[0]


def two_action_residuals(action, report):
    """||A v - lambda v|| / ||v||, always acting on both parts of v."""
    out = []
    for lam, v in zip(report.eigenvalues, report.eigenvectors.T):
        av = action(np.ascontiguousarray(v.real)) + 1j * action(np.ascontiguousarray(v.imag))
        out.append(np.linalg.norm(av - lam * v) / np.linalg.norm(v))
    return np.array(out)


class TestResidualActions:
    def test_one_action_per_real_eigenvector(self, synthetic_diagonal, monkeypatch):
        problem, u_star, _ = synthetic_diagonal
        action, space = s_operator(problem, u_star)
        report, count = residual_action_count(monkeypatch, action, space.dim, 6)
        assert not np.any(report.eigenvectors.imag)
        assert count == 6
        assert np.array_equal(report.residuals, two_action_residuals(action, report))

    def test_two_actions_per_complex_eigenvector(self, monkeypatch):
        # eigenvalues 2, 0.9 +- 0.6i, 0.5, 0.3, ... in a random orthonormal basis
        blocks = np.diag([2.0, 0.0, 0.0, 0.5, 0.3, 0.2, 0.1, 0.05, 0.02, 0.01])
        blocks[1:3, 1:3] = [[0.9, -0.6], [0.6, 0.9]]
        q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(10, 10)))
        matrix = q @ blocks @ q.T

        def action(v):
            return matrix @ v

        report, count = residual_action_count(monkeypatch, action, 10, 4)
        complex_vectors = np.count_nonzero(np.any(report.eigenvectors.imag, axis=0))
        assert complex_vectors == 2
        assert count == 4 + complex_vectors
        assert np.array_equal(report.residuals, two_action_residuals(action, report))
        assert np.max(report.residuals) <= 1e-12


# (problem fixture, state fixture) of the three bundled spectrum recipes
RECIPE_STATES = {
    "table2": ("soliton_problem", "soliton_exact"),
    "table1_col12": ("ground_state_problem", "ground_state_converged"),
    "table1_col34": ("double_well_problem", "antisymmetric_state"),
}


FUSED_DESCRIPTORS = ("petviashvili:optimal", "inner:f=square:optimal", "inner:f=cube:optimal",
                     "norm:1:optimal", "norm:2:optimal", "norm:inf:optimal")


def recipe_problem_state(request, recipe):
    problem_name, state_name = RECIPE_STATES[recipe]
    state = request.getfixturevalue(state_name)
    return request.getfixturevalue(problem_name), getattr(state, "final", state)


@pytest.fixture(params=sorted(RECIPE_STATES))
def recipe_state(request):
    return recipe_problem_state(request, request.param)


def dense_s_and_f(problem, factor, state):
    """Dense S, assembled column by column, and F' = S + u* g^T, where
    g_j = grad s(u*) . e_j is collected in the same column loop."""
    space = problem.linearization_space()
    grad = factor.gradient(state)
    g = []

    def s_column(x):
        e = space.from_vector(x)
        jNe = problem.jacN_action(state, e)
        g.append(grad(e, jNe))
        return space.to_vector(problem.solve_L(jNe))

    A_S = assemble_matrix(s_column, space.dim)
    return A_S, A_S + np.outer(space.to_vector(state), g)


class TestRecipeSpectra:
    def test_arnoldi_eigenpairs_verified_against_dense_matrix(self, recipe_state):
        problem, state = recipe_state
        factor = tw.petviashvili_factor("optimal", problem)
        k = 6
        spec_S = tw.iteration_matrix_spectrum(problem, state, k, spare=1)
        spec_F = tw.jacobian_spectrum(problem, factor, state, spec_S, k)
        # the dense reference: the assembled matrices, not the oracle
        for spec, A in zip((spec_S, spec_F), dense_s_and_f(problem, factor, state)):
            assert spec.verified
            assert np.max(spec.residuals) <= 1e-8
            V = spec.eigenvectors
            matrix_residuals = (np.linalg.norm(A @ V - V * spec.eigenvalues, axis=0)
                                / np.linalg.norm(V, axis=0))
            assert np.max(matrix_residuals) <= 1e-8
            dense = scipy.linalg.eigvals(A)
            top = dense[np.argsort(-np.abs(dense), kind="stable")[:k]]
            assert np.allclose(np.sort_complex(spec.eigenvalues), np.sort_complex(top),
                               rtol=0.0, atol=1e-10)


class TestDerivedJacobianSpectrum:
    """F' from S's top k + 1 by the rank-one identity, against an F' Arnoldi
    run of its own."""

    @pytest.mark.parametrize("descriptor", FUSED_DESCRIPTORS)
    @pytest.mark.parametrize("recipe", sorted(RECIPE_STATES))
    def test_matches_reference_arnoldi(self, request, recipe, descriptor):
        problem, state = recipe_problem_state(request, recipe)
        factor = tw.from_descriptor(descriptor, problem)
        if recipe == "table1_col34" and descriptor.startswith("inner:f=square"):
            # <N(u*), u*^2> cancels at the odd state: the factor is 0/0 there
            with pytest.raises(DegenerateDenominatorError, match="f = square"):
                factor(state)
            return
        spec_S = tw.iteration_matrix_spectrum(problem, state, 6, spare=1)
        derived = tw.jacobian_spectrum(problem, factor, state, spec_S, 6)
        reference = reference_jacobian_spectrum(problem, factor, state, 6)
        assert derived.verified and reference.verified
        assert np.max(derived.residuals) <= 1e-12
        assert np.allclose(np.sort_complex(derived.eigenvalues),
                           np.sort_complex(reference.eigenvalues), rtol=0.0, atol=1e-10)

    # S's top k + 1 holds p = 3 on table2 (first) and on table1_col34 at k = 2
    # (the spare pair, third); at k = 1 there p lies outside and nothing is dropped
    @pytest.mark.parametrize("recipe, k, p_in_top", [("table2", 1, True),
                                                     ("table1_col34", 1, False),
                                                     ("table1_col34", 2, True)])
    def test_small_k(self, request, recipe, k, p_in_top):
        problem, state = recipe_problem_state(request, recipe)
        factor = tw.petviashvili_factor("optimal", problem)
        spec_S = tw.iteration_matrix_spectrum(problem, state, k, spare=1)
        top_S = [*spec_S.eigenvalues, *(lam for lam, _ in spec_S.spare_pairs)]
        assert len(top_S) == k + 1
        assert (min(abs(lam - problem.degree) for lam in top_S) <= 1e-10) == p_in_top
        derived = tw.jacobian_spectrum(problem, factor, state, spec_S, k)
        reference = reference_jacobian_spectrum(problem, factor, state, k)
        assert derived.k == k and derived.verified
        assert np.allclose(derived.eigenvalues, reference.eigenvalues, rtol=0.0, atol=1e-10)

    def test_needs_a_spare_pair(self, soliton_problem, soliton_exact):
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        spec_S = tw.iteration_matrix_spectrum(soliton_problem, soliton_exact, 6)
        assert spec_S.spare_pairs == ()
        with pytest.raises(ValueError, match="needs the top 7 of S"):
            tw.jacobian_spectrum(soliton_problem, factor, soliton_exact, spec_S, 6)

    @pytest.mark.parametrize("descriptor", ["petviashvili:1.25", "inner:f=square:1.25",
                                            "norm:1:1.25", "norm:2:1.25", "norm:inf:1.25"])
    def test_resonance_keeps_the_s_eigenvector(self, soliton_problem, soliton_exact,
                                                descriptor):
        """gamma = 1.25 puts p + q = 0.5 on S's eigenvalue 0.5.  Only the
        Petviashvili gradient is L-orthogonal to that eigenvector; for the
        others F' has a Jordan block there, and its F' pair must fail the gate
        rather than come out of a division by about 0."""
        factor = tw.from_descriptor(descriptor, soliton_problem)
        assert soliton_problem.degree + factor.degree == 0.5
        spec_S = tw.iteration_matrix_spectrum(soliton_problem, soliton_exact, 6, spare=1)
        spec_F = tw.jacobian_spectrum(soliton_problem, factor, soliton_exact, spec_S, 6)
        i_S = int(np.argmin(np.abs(spec_S.eigenvalues - 0.5)))
        i_F = int(np.flatnonzero(spec_F.eigenvalues == spec_S.eigenvalues[i_S])[0])
        assert np.array_equal(spec_F.eigenvectors[:, i_F], spec_S.eigenvectors[:, i_S])
        assert np.count_nonzero(np.abs(spec_F.eigenvalues - 0.5) <= 1e-9) == 2
        assert np.all(np.isfinite(spec_F.eigenvectors))
        resonant_ok = spec_F.residuals[i_F] <= RESIDUAL_TOL
        assert resonant_ok == descriptor.startswith("petviashvili")
        others = np.delete(spec_F.residuals, i_F)
        assert np.max(others) <= 1e-12
        assert spec_F.verified == resonant_ok

    @pytest.mark.parametrize("descriptor", FUSED_DESCRIPTORS)
    def test_fixed_point_residual_on_table2(self, soliton_problem, soliton_exact, descriptor):
        factor = tw.from_descriptor(descriptor, soliton_problem)
        check = tw.spectrum_shift_check(soliton_problem, factor, soliton_exact)
        assert 0.0 < check["fixed_point_residual"] <= RESIDUAL_TOL
        assert check == {"ok": True, "fixed_point_residual": check["fixed_point_residual"],
                         "tolerance": 1e-4}

    def test_shift_check_fails_off_a_solution(self, synthetic_diagonal):
        """At c u*, F' u* = (p c^(p-1) + q c^q) u*, which is (p+q) u* only at
        c = 1: 2 * 1.1 - 2 / 1.1^2 = 0.547 against p + q = 0."""
        problem, u_star, _ = synthetic_diagonal
        factor = tw.petviashvili_factor("optimal", problem)
        on = tw.spectrum_shift_check(problem, factor, u_star)
        off = tw.spectrum_shift_check(problem, factor, 1.1 * u_star)
        assert on["ok"] is True and on["fixed_point_residual"] <= 1e-12
        assert off["ok"] is False
        assert off["fixed_point_residual"] == pytest.approx(2.2 - 2.0 / 1.21, rel=1e-12)


class TestJacobianAction:
    def test_state_maps_to_p_plus_q(self, soliton_problem, soliton_exact):
        factor = tw.petviashvili_factor(1.2, soliton_problem)  # p+q = 0.6
        action, space = f_operator(soliton_problem, factor, soliton_exact)
        out = space.from_vector(action(space.to_vector(soliton_exact)))
        target = (soliton_problem.degree + factor.degree) * soliton_exact
        assert (out - target).norm <= 1e-6 * soliton_exact.norm

    def test_ground_state_jacobian_spectrum(self, ground_state_problem, ground_state_converged):
        factor = tw.petviashvili_factor("optimal", ground_state_problem)
        state = ground_state_converged.final
        spec_S = tw.iteration_matrix_spectrum(ground_state_problem, state, 6, spare=1)
        spec = tw.jacobian_spectrum(ground_state_problem, factor, state, spec_S, 6)
        expected = [0.70640, 0.32731, 0.19060, 0.12518, 0.088644, 0.066133]
        assert np.allclose(spec.eigenvalues.real, expected, atol=5e-3)

    def test_antisymmetric_state_keeps_unstable_pair(self, double_well_problem,
                                                     antisymmetric_state):
        factor = tw.petviashvili_factor("optimal", double_well_problem)
        spec_S = tw.iteration_matrix_spectrum(double_well_problem, antisymmetric_state, 6,
                                              spare=1)
        spec = tw.jacobian_spectrum(double_well_problem, factor, antisymmetric_state, spec_S, 6)
        vals = spec.eigenvalues.real
        assert vals[0] == pytest.approx(8.0032, abs=0.05)
        assert vals[1] == pytest.approx(-5.6760, abs=0.05)


def literal_f_action(problem, factor, u, v):
    """S v + (grad s(u) . v) u, with grad s(u) . v from the quotient rule on
    A'v and B'v written out with apply_L(v) and jacN_action(u, v)."""
    family, *rest = factor.descriptor.split(":")
    Lu, Nu = problem.apply_L(u), problem.apply_N(u)
    Lv, jNv = problem.apply_L(v), problem.jacN_action(u, v)
    if family == "norm":
        r = np.inf if rest[0] == "inf" else float(rest[0])

        def norm_and_gradient(x):
            x = x.values.ravel()
            modulus = np.abs(x)
            norm = np.linalg.norm(x, ord=r)
            unit = np.divide(x, modulus, out=np.zeros_like(x), where=modulus > 0.0)
            if np.isinf(r):
                return norm, unit * (np.arange(x.size) == np.argmax(modulus))
            return norm, unit * (modulus / norm) ** (r - 1.0)

        (A, gA), (B, gB) = norm_and_gradient(Lu), norm_and_gradient(Nu)
        dA = np.vdot(gA, Lv.values.ravel()).real
        dB = np.vdot(gB, jNv.values.ravel()).real
    else:
        fmap = F_MAPS["identity" if family == "petviashvili" else rest[0][2:]]
        fu = u.with_values(fmap.apply(u.values))
        dfv = u.with_values(fmap.jac(u.values, v.values))
        A, B = real_inner(Lu, fu), real_inner(Nu, fu)
        dA = real_inner(Lv, fu) + real_inner(Lu, dfv)
        dB = real_inner(jNv, fu) + real_inner(Nu, dfv)
    gamma = factor.gamma
    gradient = gamma * (A / B) ** (gamma - 1.0) * (dA * B - A * dB) / B**2
    return problem.solve_L(jNv) + gradient * u


class TestFusedJacobianAction:
    """The F' oracle shares N'(u*) v and moves L onto the state's side of the
    pairing; it must still be the literal formula."""

    @pytest.mark.parametrize("descriptor", FUSED_DESCRIPTORS)
    @pytest.mark.parametrize("recipe", ["table2", "table1_col12"])
    def test_matches_literal_formula(self, request, recipe, descriptor):
        problem_name, state_name = RECIPE_STATES[recipe]
        problem = request.getfixturevalue(problem_name)
        state = request.getfixturevalue(state_name)
        u_star = getattr(state, "final", state)
        factor = tw.from_descriptor(descriptor, problem)
        action, space = f_operator(problem, factor, u_star)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = rng.normal(size=space.dim)
            literal = space.to_vector(literal_f_action(problem, factor, u_star,
                                                       space.from_vector(x)))
            assert np.linalg.norm(action(x) - literal) <= 1e-12 * np.linalg.norm(literal)


class TestSpectrumShift:
    def test_synthetic_exact_match(self, synthetic_diagonal):
        problem, u_star, _ = synthetic_diagonal
        factor = tw.petviashvili_factor("optimal", problem)
        # dimension 8: S's top 6 predict the top 5 of F'
        spec_S = tw.iteration_matrix_spectrum(problem, u_star, 6)
        spec_F = reference_jacobian_spectrum(problem, factor, u_star, 5)
        assert shift_law_deviation(spec_S, problem.degree, factor.degree,
                                   spec_F.eigenvalues) <= 1e-12

    def test_synthetic_brute_force_oracle(self, synthetic_diagonal):
        # finite differences of the full stabilized map, column by column
        problem, u_star, _ = synthetic_diagonal
        factor = tw.petviashvili_factor("optimal", problem)

        def full_map(vals):
            u = Field(problem.grid, vals)
            return (factor(u) * problem.solve_L(problem.apply_N(u)).values)

        n = u_star.values.size
        eps = 1e-6
        J = np.empty((n, n))
        base = u_star.values
        for j in range(n):
            e = np.zeros(n)
            e[j] = eps
            J[:, j] = (full_map(base + e) - full_map(base - e)) / (2 * eps)
        fd_eigs = np.linalg.eigvals(J).real
        top = fd_eigs[np.argsort(-np.abs(fd_eigs))[:6]]

        spec_F = reference_jacobian_spectrum(problem, factor, u_star, 6)
        assert np.allclose(np.sort(spec_F.eigenvalues.real), np.sort(top), atol=1e-6)
        # dimension 8 leaves room for the top 5 of F' from the top 6 of S
        spec_S = tw.iteration_matrix_spectrum(problem, u_star, 5, spare=1)
        derived = tw.jacobian_spectrum(problem, factor, u_star, spec_S, 5)
        assert derived.verified
        assert np.allclose(np.sort(derived.eigenvalues.real), np.sort(top[:5]), atol=1e-6)

    def test_ground_state_shift_pattern(self, ground_state_problem, ground_state_converged):
        factor = tw.petviashvili_factor("optimal", ground_state_problem)
        spec_S = tw.iteration_matrix_spectrum(ground_state_problem,
                                              ground_state_converged.final, 7)
        spec_F = reference_jacobian_spectrum(ground_state_problem, factor,
                                             ground_state_converged.final, 6)
        assert shift_law_deviation(spec_S, ground_state_problem.degree, factor.degree,
                                   spec_F.eigenvalues) <= 1e-4

    def test_antisymmetric_shift_preserves_unstable_pair(self, double_well_problem,
                                                         antisymmetric_state):
        factor = tw.petviashvili_factor("optimal", double_well_problem)
        spec_S = tw.iteration_matrix_spectrum(double_well_problem, antisymmetric_state, 7)
        spec_F = reference_jacobian_spectrum(double_well_problem, factor, antisymmetric_state, 6)
        assert shift_law_deviation(spec_S, 3.0, factor.degree, spec_F.eigenvalues) <= 1e-4


def hypothesis_report(problem, u_star, seed=None):
    """The hypothesis report at u* under the optimal Petviashvili factor, built
    from S, F' and the shift check as the `spectrum` command builds it."""
    factor = tw.petviashvili_factor("optimal", problem)
    spec_S = tw.iteration_matrix_spectrum(problem, u_star, 6, spare=1)
    spec_F = tw.jacobian_spectrum(problem, factor, u_star, spec_S, 6)
    seed_vector = None if seed is None else problem.linearization_space().to_vector(seed)
    return hypothesis_verdicts(spec_S, spec_F, tw.spectrum_shift_check(problem, factor, u_star),
                               problem.degree, seed_vector)


def synthetic_report(eigenvalues, verified=True):
    """A report on the given eigenvalues with orthonormal eigenvectors, its
    residuals on the passing or the failing side of the residual gate."""
    lam = np.asarray(eigenvalues, dtype=complex)
    residual = RESIDUAL_TOL / 10 if verified else RESIDUAL_TOL * 10
    return SpectrumReport(eigenvalues=lam, residuals=np.full(lam.size, residual),
                          near_unit=np.abs(np.abs(lam) - 1.0) <= UNIT_TOL, dimension=10,
                          k=lam.size, eigenvectors=np.eye(10, lam.size))


SATISFIED = "hypotheses (i)-(ii) satisfied"


class TestHypotheses:
    def test_soliton_report_satisfied_with_unit_pair(self, soliton_problem, soliton_exact):
        h = hypothesis_report(soliton_problem, soliton_exact)
        assert h["satisfied"]
        assert h["verdict"] == SATISFIED
        assert h["i_dominant_matches_p"]
        assert h["i_dominant_simple"]
        assert h["ii_rest_within_unit_modulus"]
        assert len(h["iii_unit_modulus_eigenvalues"]) == 2
        assert h["iii_semisimple_proxy"]["independent"]

    def test_antisymmetric_state_violates_ii(self, double_well_problem, antisymmetric_state):
        h = hypothesis_report(double_well_problem, antisymmetric_state)
        assert not h["ii_rest_within_unit_modulus"]
        assert not h["satisfied"]
        assert h["verdict"] == "hypothesis (ii) violated"

    def test_seed_component_quantified(self, soliton_problem, soliton_exact):
        gen = tw.derivative(soliton_exact, 1)
        seed = soliton_exact + 0.2 * gen
        h = hypothesis_report(soliton_problem, soliton_exact, seed=seed)
        comps = [e["seed_component"] for e in h["iii_unit_modulus_eigenvalues"]]
        # the 0.2*D u* component projects onto the unit invariant subspace
        assert max(comps) == pytest.approx(0.2 * gen.norm, rel=1e-3)
        clean = hypothesis_report(soliton_problem, soliton_exact, seed=soliton_exact)
        pure = [e["seed_component"] for e in clean["iii_unit_modulus_eigenvalues"]]
        assert max(pure) <= 1e-6 * soliton_exact.norm

    def test_identity_unit_cluster_flagged(self):
        report = tw.top_eigenvalues(lambda v: v, dimension=30, k=4)
        assert all(report.near_unit)
        h = hypothesis_verdicts(report, report, {"ok": True}, 1.0)
        assert not h["i_dominant_simple"]
        assert h["verdict"] == "hypothesis (i) violated"

    @pytest.mark.parametrize("S_eigs, S_ok, F_ok, shift_ok, verdict", [
        ([3, 1, 0.5], False, True, True, "eigenpairs of S unverified; hypotheses not judged"),
        ([3, 1, 0.5], True, False, True, "eigenpairs of F' unverified; hypotheses not judged"),
        ([3, 1, 0.5], False, False, True, "eigenpairs of S and F' unverified; hypotheses not judged"),
        ([3, -1.5, 0.5], True, False, False, "eigenpairs of F' unverified; hypotheses not judged"),
        ([3, 1, 0.5], True, True, False, "spectrum shift check failed; hypotheses not judged"),
        ([2.5, -1.5, 0.5], True, True, False, "spectrum shift check failed; hypotheses not judged"),
        ([2.5, 1, 0.5], True, True, True, "hypothesis (i) violated"),
        ([3, 3, 0.5], True, True, True, "hypothesis (ii) violated"),
        ([2.5, -1.5, 0.5], True, True, True, "hypothesis (ii) violated"),
        ([3, 1, 0.5], True, True, True, SATISFIED),
    ])
    def test_judgment_table(self, S_eigs, S_ok, F_ok, shift_ok, verdict):
        """The verdict names the first failing check, in the order: residual
        gates, shift check, (ii), (i); `satisfied` and `eigenpairs_verified`
        rest on the same checks."""
        spec_S = synthetic_report(S_eigs, S_ok)
        spec_F = synthetic_report([-0.5, 1, 0.5], F_ok)  # p + q = -0.5 replaces p = 3
        shift_check = {"ok": shift_ok, "fixed_point_residual": 0.0 if shift_ok else 1.0,
                       "tolerance": 1e-4}
        h = hypothesis_verdicts(spec_S, spec_F, shift_check, 3.0)
        assert h["verdict"] == verdict
        assert h["satisfied"] == (h["verdict"] == SATISFIED)
        assert h["eigenpairs_verified"] == (spec_S.verified and spec_F.verified) == (S_ok and F_ok)
        assert h["spectrum_shift_check"] == shift_check
        json.dumps(h)  # the payload is hypothesis_report.json as written


class TestSymmetryGenerators:
    def test_soliton_has_gauge_and_translation(self, soliton_problem, soliton_exact):
        gens = tw.symmetry_generators(soliton_problem, soliton_exact)
        assert len(gens) == 2
        assert np.allclose(gens[0].values, 1j * soliton_exact.values)

    def test_ground_state_has_no_symmetries(self, ground_state_problem, ground_state_converged):
        assert tw.symmetry_generators(ground_state_problem, ground_state_converged.final) == []

    def test_lump_translation_eigenrelations(self, lump_converged_fine):
        problem, lump = lump_converged_fine
        gens = tw.symmetry_generators(problem, lump)
        assert len(gens) == 2
        for g in gens:
            Sg = tw.iteration_matrix_action(problem, lump, g)
            assert (Sg - g).norm <= 1e-6 * g.norm

    def test_factor_gradient_annihilates_generators(self, soliton_problem, soliton_converged):
        u_star = soliton_converged.final
        factor = tw.petviashvili_factor("optimal", soliton_problem)
        grad = factor.gradient(u_star)
        gens = tw.symmetry_generators(soliton_problem, u_star)
        # crude operator-norm estimate of the gradient functional from probes
        rng = np.random.default_rng(0)
        scale = abs(factor.degree) / u_star.norm
        for _ in range(4):
            v = Field(u_star.grid, rng.normal(size=512) + 1j * rng.normal(size=512))
            scale = max(scale, abs(grad(v, soliton_problem.jacN_action(u_star, v))) / v.norm)
        for g in gens:
            assert abs(grad(g, soliton_problem.jacN_action(u_star, g))) <= 1e-6 * scale * g.norm


class TestHarmfulDirection:
    def test_unit_modulus_component_persists(self):
        # synthetic S = diag(2, -1, 0.5, 0.3, ...): unit non-symmetry direction e2
        problem, u_star, s_eigs = make_synthetic_diagonal()
        assert s_eigs[1] == pytest.approx(-1.0)
        factor = tw.petviashvili_factor("optimal", problem)
        delta = 1e-3
        seed = Field(problem.grid, u_star.values + np.array([0.0, delta, 0.3 * delta, 0.0,
                                                             0.0, 0.0, 0.0, 0.0]))
        result = tw.solve(problem, factor, seed,
                          tw.IterationConfig(max_iterations=200, residual_tolerance=1e-14))
        assert result.status != "converged"
        err = result.final.values - u_star.values
        assert delta / 10 <= abs(err[1]) <= 10 * delta  # O(|v0|) persistent component
        assert abs(err[2]) <= 1e-12  # the contracting direction died out

    def test_clean_seed_converges_on_same_problem(self):
        problem, u_star, _ = make_synthetic_diagonal()
        factor = tw.petviashvili_factor("optimal", problem)
        seed = Field(problem.grid, u_star.values + np.array([0.2, 0.0, 1e-3, 0.0,
                                                             0.0, 0.0, 0.0, 0.0]))
        result = tw.solve(problem, factor, seed,
                          tw.IterationConfig(max_iterations=200, residual_tolerance=1e-13))
        assert result.status == "converged"


class TestPhaseLine:
    def test_unperturbed_profile(self, soliton_exact):
        fit = tw.fit_phase_line(soliton_exact)
        assert fit.slope == pytest.approx(0.5, abs=1e-10)
        dist_to_zero = min(fit.intercept_mod_2pi, 2 * np.pi - fit.intercept_mod_2pi)
        assert dist_to_zero <= 1e-10

    def test_window_too_small_rejected(self, soliton_exact):
        # too few nodes; past the right end; a negative start, which would wrap
        for window in [(10, 14), (500, 600), (-20, 30)]:
            with pytest.raises(ValueError):
                tw.fit_phase_line(soliton_exact, window=window)

    def test_gauge_rotated_profile_intercept(self, soliton_problem):
        rotated = soliton_problem.exact_solution(theta0=0.75)
        fit = tw.fit_phase_line(rotated)
        assert fit.intercept_mod_2pi == pytest.approx(0.75, abs=1e-10)


class TestOrbitMatch:
    @pytest.mark.parametrize("x0,theta0", [(1.5, 0.7), (-3.3, -2.0), (0.123456789, 0.3)])
    @pytest.mark.parametrize("sigma,lambda2,points", [(1.0, 1.0, 512), (2.0, 0.4, 1024)],
                             ids=["sigma1", "sigma2"])
    def test_recovers_generating_parameters(self, sigma, lambda2, points, x0, theta0):
        problem = tw.nls_soliton(tw.SolitonParameters(sigma, 1.0, lambda2), Grid1D(50.0, points))
        fit = tw.orbit_match(problem.exact_solution(x0=x0, theta0=theta0), problem.exact_solution)
        assert fit.x0 == pytest.approx(x0, abs=1e-10)
        assert fit.theta0 == pytest.approx(theta0, abs=1e-10)
        assert fit.sup_distance <= 1e-10

    def test_gauge_perturbed_run(self, soliton_converged, soliton_problem):
        fit = tw.orbit_match(soliton_converged.final, soliton_problem.exact_solution)
        assert fit.x0 == pytest.approx(0.0, abs=1e-6)
        assert fit.theta0 == pytest.approx(np.arctan(0.2), abs=1e-6)
        assert fit.sup_distance <= 1e-6

    def test_zero_field_rejected(self, soliton_problem, grid_1d):
        with pytest.raises(ValueError):
            tw.orbit_match(Field(grid_1d, np.zeros(512, dtype=complex)), soliton_problem.exact_solution)


class TestSerialization:
    def test_spectrum_report_round_trips_json(self, synthetic_diagonal):
        problem, u_star, _ = synthetic_diagonal
        report = tw.iteration_matrix_spectrum(problem, u_star, 4)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["dimension"] == 8
        assert set(payload) == {"eigenvalues", "moduli", "eigen_residuals", "near_unit_modulus",
                                "dimension", "k", "converged", "verified"}
        assert len(payload["eigenvalues"]) == 4
        assert "hypothesis" not in payload  # the judgment is hypothesis_report.json alone
        verdicts = json.loads(json.dumps(hypothesis_verdicts(report, report, {"ok": True},
                                                             problem.degree)))
        assert verdicts["p"] == 2.0

    def test_orbit_fit_round_trips_json(self, soliton_converged, soliton_problem):
        fit = tw.orbit_match(soliton_converged.final, soliton_problem.exact_solution)
        payload = json.loads(json.dumps(fit.to_json_dict()))
        assert payload["x0"] == pytest.approx(0.0, abs=1e-6)
        assert payload["window"] is not None
