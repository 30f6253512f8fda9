import numpy as np
import pytest

import travwave as tw
from travwave.factors import (
    DegenerateDenominatorError,
    DescriptorError,
    FactorDomainError,
    FactorPropertyError,
    from_descriptor,
    inner_factor,
    norm_factor,
    optimal_gamma,
    petviashvili_factor,
)
from travwave.problems import NodeOperator, operator_model
from travwave.spectral import Field, Grid1D


def identity_square_problem():
    """L = I, N(u) = u*u on a 2-node grid; solutions have components in {0,1}."""
    grid = Grid1D(1.0, 2)
    node = NodeOperator(apply=lambda v: v, solve=lambda b: b, g=lambda v: v * v,
                        g_jac=lambda u, v: 2.0 * u * v)
    return operator_model(node, name="identity_square", degree=2.0, grid=grid, is_complex=False)


def vec(problem, *components):
    return Field(problem.grid, np.array(components, dtype=float))


class TestPetviashviliFactor:
    def test_hand_arithmetic(self):
        problem = identity_square_problem()
        factor = petviashvili_factor(2.0, problem)
        # <u,u> = 5, <u*u, u> = 9
        assert factor(vec(problem, 1.0, 2.0)) == pytest.approx(25.0 / 81.0, rel=1e-14)

    def test_equals_one_at_solutions(self):
        problem = identity_square_problem()
        factor = petviashvili_factor(2.0, problem)
        assert factor(vec(problem, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-14)
        assert factor(vec(problem, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-14)

    def test_scaling_law(self):
        problem = identity_square_problem()
        factor = petviashvili_factor(2.0, problem)
        u = vec(problem, 1.0, 2.0)
        q = factor.degree
        assert q == pytest.approx(2.0 * (1 - 2.0))
        assert factor(3.0 * u) == pytest.approx(3.0**q * factor(u), rel=1e-13)

    def test_property_violation_raises(self):
        problem = identity_square_problem()
        with pytest.raises(FactorPropertyError):
            petviashvili_factor(3.0, problem)  # q = -3, |p+q| = 1
        # marginal pairings are opt-in for rate experiments
        factor = petviashvili_factor(3.0, problem, allow_marginal=True)
        assert factor.degree == pytest.approx(-3.0)
        with pytest.raises(FactorPropertyError):
            petviashvili_factor(4.0, problem, allow_marginal=True)  # |p+q| = 2

    def test_degenerate_denominator(self):
        problem = identity_square_problem()
        factor = petviashvili_factor(2.0, problem)
        with pytest.raises(DegenerateDenominatorError):
            factor(vec(problem, 1.0, -1.0))  # <u*u, u> = 0
        with pytest.raises(DegenerateDenominatorError):
            factor(vec(problem, 1.0, -1.0 + 1e-10))  # 3e-10 against a scale of 2

    def test_negative_ratio_non_integer_gamma(self):
        problem = identity_square_problem()
        factor = petviashvili_factor(1.5, problem)
        with pytest.raises(FactorDomainError):
            factor(vec(problem, 1.0, -2.0))  # <u*u, u> = -7 < 0


class TestInnerFactor:
    def test_identity_map_reproduces_petviashvili(self):
        problem = identity_square_problem()
        u = vec(problem, 1.0, 2.0)
        assert inner_factor("identity", 2.0, problem)(u) == pytest.approx(
            petviashvili_factor(2.0, problem)(u), rel=1e-15)

    def test_square_map_hand_arithmetic(self):
        problem = identity_square_problem()
        # gamma = 1 at p = 2 sits exactly on |p+q| = 1: construct it explicitly
        factor = inner_factor("square", 1.0, problem, allow_marginal=True)
        # <u, u*u> = 9, <u*u, u*u> = 17
        assert factor(vec(problem, 1.0, 2.0)) == pytest.approx(9.0 / 17.0, rel=1e-14)

    def test_scaling_independent_of_f_degree(self):
        problem = identity_square_problem()
        u = vec(problem, 0.7, 1.3)
        for fname in ("identity", "square", "cube"):
            factor = inner_factor(fname, 1.0, problem, allow_marginal=True)
            assert factor(2.0 * u) == pytest.approx(2.0**factor.degree * factor(u), rel=1e-12)

    def test_only_named_maps_accepted(self):
        problem = identity_square_problem()
        for f in (lambda u: u * np.abs(u), "quartic", None):
            with pytest.raises(DescriptorError, match=r"known: \['cube', 'identity', 'square'\]"):
                inner_factor(f, 1.2, problem)


class TestNormFactor:
    def test_one_norm_hand_arithmetic(self):
        problem = identity_square_problem()
        factor = norm_factor(1, 1.0, problem, allow_marginal=True)
        assert factor(vec(problem, 1.0, 2.0)) == pytest.approx(3.0 / 5.0)

    def test_sup_norm_hand_arithmetic(self):
        problem = identity_square_problem()
        factor = norm_factor("inf", 1.0, problem, allow_marginal=True)
        assert factor(vec(problem, 1.0, 2.0)) == pytest.approx(0.5)

    @pytest.mark.parametrize("r", [1, 2, 3.5, "inf"])
    def test_equals_one_at_solutions(self, r):
        problem = identity_square_problem()
        factor = norm_factor(r, 1.0, problem, allow_marginal=True)
        assert factor(vec(problem, 1.0, 1.0)) == pytest.approx(1.0)

    def test_degenerate_denominator_when_N_vanishes(self):
        # need u != 0 with N(u) = 0: use the lump nonlinearity on a kx=0 line mass
        import travwave
        from travwave.spectral import Grid2D
        grid = Grid2D(Grid1D(4.0, 8), Grid1D(4.0, 8))
        problem = travwave.benjamin_lump(0.0, 1.0, grid)
        factor = norm_factor(2, 2.0, problem)
        _, Z = grid.mesh
        u = Field(grid, np.cos(np.pi / 4 * Z))  # constant in x: N kills it
        with pytest.raises(DegenerateDenominatorError):
            factor(u)

    def test_invalid_r(self):
        problem = identity_square_problem()
        with pytest.raises(ValueError):
            norm_factor(0.5, 1.0, problem)


class TestOptimalGamma:
    @pytest.mark.parametrize("p,expected", [(2.0, 2.0), (3.0, 1.5), (5.0, 1.25)])
    def test_values(self, p, expected):
        assert optimal_gamma(p) == pytest.approx(expected)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            optimal_gamma(1.0)

    def test_optimal_token_resolves(self):
        problem = identity_square_problem()
        assert petviashvili_factor("optimal", problem).gamma == pytest.approx(2.0)


def make_factor_family(problem, inner_name="square"):
    return [
        petviashvili_factor("optimal", problem),
        inner_factor(inner_name, 1.2, problem),
        norm_factor(1, "optimal", problem),
        norm_factor(2, "optimal", problem),
        norm_factor("inf", 1.2, problem),
    ]


def valid_domain_sample(problem, seed):
    """Structured random field inside every factor's domain."""
    rng = np.random.default_rng(seed)
    if hasattr(problem.grid, "mesh"):
        X, Z = problem.grid.mesh
        base = np.exp(-(X**2 + Z**2) / 8.0) * (1.2 + 0.2 * rng.normal(size=X.shape))
        return Field(problem.grid, base)
    x = problem.grid.nodes
    base = np.exp(-(x**2) / 8.0) * (1.2 + 0.2 * rng.normal(size=x.size))
    if problem.is_complex:
        base = base + 0.05j * base * rng.normal(size=x.size)
    return Field(problem.grid, base)


class TestFactorLaws:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_homogeneity_p2_all_families(self, soliton_problem, seed):
        u = valid_domain_sample(soliton_problem, seed)
        for factor in make_factor_family(soliton_problem):
            s_u = factor(u)
            for t in (0.1, 0.5, 2.0, 10.0):
                assert factor(t * u) == pytest.approx(t**factor.degree * s_u, rel=1e-10)

    def test_homogeneity_on_ground_state(self, ground_state_problem):
        u = valid_domain_sample(ground_state_problem, 7)
        for factor in make_factor_family(ground_state_problem, inner_name="cube"):
            s_u = factor(u)
            for t in (0.5, 2.0):
                assert factor(t * u) == pytest.approx(t**factor.degree * s_u, rel=1e-10)

    def test_family_agreement_at_converged_state(self, soliton_problem, soliton_converged):
        u_star = soliton_converged.final
        for factor in make_factor_family(soliton_problem):
            assert abs(factor(u_star) - 1.0) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_euler_identity(self, soliton_problem, seed):
        u = valid_domain_sample(soliton_problem, 20 + seed)
        for factor in make_factor_family(soliton_problem):
            pairing = factor.gradient(u)(u, soliton_problem.jacN_action(u, u))
            assert pairing == pytest.approx(factor.degree * factor(u), rel=1e-12)

    def test_gradient_at_solution_pairs_to_q(self, soliton_problem, soliton_converged):
        u_star = soliton_converged.final
        factor = petviashvili_factor("optimal", soliton_problem)
        jNu = soliton_problem.jacN_action(u_star, u_star)
        assert factor.gradient(u_star)(u_star, jNu) == pytest.approx(factor.degree, rel=1e-8)

    def test_gradient_fd_order(self, soliton_problem):
        u = valid_domain_sample(soliton_problem, 31)
        v = valid_domain_sample(soliton_problem, 32)
        for factor in (petviashvili_factor("optimal", soliton_problem),
                       inner_factor("square", 1.2, soliton_problem),
                       norm_factor(2, "optimal", soliton_problem)):
            analytic = factor.gradient(u)(v, soliton_problem.jacN_action(u, v))
            errs = []
            for eps in (1e-3, 1e-4):
                fd = (factor(u + eps * v) - factor(u + (-eps) * v)) / (2 * eps)
                errs.append(abs(fd - analytic))
            order = np.log(errs[0] / errs[1]) / np.log(10.0)
            assert order >= 1.9


class TestDescriptors:
    def test_round_trip(self, soliton_problem):
        for desc in ("petviashvili:1.5", "inner:f=square:1.2", "norm:2:1.5", "norm:inf:1.5"):
            factor = from_descriptor(desc, soliton_problem)
            assert factor.descriptor == desc

    def test_optimal_token(self, soliton_problem):
        factor = from_descriptor("petviashvili:optimal", soliton_problem)
        assert factor.gamma == pytest.approx(1.5)
        assert factor.descriptor == "petviashvili:1.5"

    @pytest.mark.parametrize("desc", [
        "petviashvili", "petviashvili:abc", "inner:square:1", "norm:2", "nope:1", "norm:2:1:7",
        "inner:f=unknown:1",
    ])
    def test_malformed_descriptors_rejected(self, soliton_problem, desc):
        with pytest.raises(DescriptorError):
            from_descriptor(desc, soliton_problem)
