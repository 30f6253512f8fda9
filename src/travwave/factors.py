"""Stabilizing factors s(u) for the stabilized fixed-point iteration.

Every factor is positively homogeneous of degree q = gamma*(1-p) and equals 1
at solutions of L u = N(u).  Valid pairings require |p + q| < 1; the optimal
contraction has q = -p, i.e. gamma = p/(p-1).

Inner products on complex fields are the real part of the Hermitian pairing
(the Euclidean pairing on realified vectors), so factors are always real and
the gamma-power is branch-free.  A negative inner-product ratio under a
non-integer gamma signals an iterate far outside any convergence basin and
raises instead of taking a complex branch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .linops import real_inner
from .problems import OperatorPair, ProblemModel
from .spectral import Field


class FactorPropertyError(ValueError):
    """The degree pairing violates |p + q| < 1."""


class DegenerateDenominatorError(ArithmeticError):
    """The factor denominator vanishes relative to its natural scale."""


class FactorDomainError(ArithmeticError):
    """Negative ratio raised to a non-integer exponent."""


class DescriptorError(ValueError):
    """Unparseable factor descriptor string."""


@dataclass(frozen=True)
class FMap:
    """Homogeneous map f of the inner-product family, with jac(u, v) = f'(u) v."""

    name: str
    apply: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray, np.ndarray], np.ndarray]


F_MAPS = {
    "identity": FMap("identity", lambda u: u, lambda u, v: v),
    "square": FMap("square", lambda u: u * u, lambda u, v: 2.0 * u * v),
    "cube": FMap("cube", lambda u: u * u * u, lambda u, v: 3.0 * u * u * v),
}


def optimal_gamma(p: float) -> float:
    """The exponent giving q = -p: gamma = p/(p-1)."""
    if p == 1:
        raise ValueError("optimal gamma is undefined for degree p = 1")
    return p / (p - 1.0)


def _check_degree(p: float, gamma: float, allow_marginal: bool) -> float:
    q = gamma * (1.0 - p)
    bound = 1.0 + 1e-12 if allow_marginal else 1.0 - 1e-12
    if abs(p + q) > bound:
        raise FactorPropertyError(
            f"|p + q| = {abs(p + q):.6g} >= 1 for gamma = {gamma}, p = {p}; "
            "the stabilized iteration cannot contract the scaling direction"
        )
    return q


def _power(ratio: float, gamma: float) -> float:
    if ratio <= 0.0:
        if float(gamma).is_integer():
            return ratio**gamma
        raise FactorDomainError(
            f"ratio {ratio:.6g} <= 0 under non-integer gamma = {gamma}"
        )
    return ratio**gamma


def _resolve_gamma(gamma, p: float) -> float:
    """gamma given as "optimal" or a number (or a number's string)."""
    if gamma == "optimal":
        return optimal_gamma(p)
    try:
        return float(gamma)
    except (TypeError, ValueError):
        raise DescriptorError(f"gamma must be a number or 'optimal', got {gamma!r}") from None


@dataclass(frozen=True)
class StabilizingFactor:
    """s(u) = (A(u)/B(u))^gamma, its homogeneity degree q, and its gradient.

    A family supplies `_parts(pair) -> (A(u), B(u))` and `_derivatives(pair)`,
    the functional (v, jNv) -> (A'(u) v, B'(u) v), where jNv is N'(u) v; the
    power and the quotient rule are applied here, once for every family.
    """

    descriptor: str
    gamma: float
    degree: float  # q
    problem: ProblemModel
    _parts: Callable[[OperatorPair], tuple[float, float]]
    _derivatives: Callable[[OperatorPair], Callable[[Field, Field], tuple[float, float]]]

    def __call__(self, u: Field, pair: OperatorPair | None = None) -> float:
        """s(u); `pair` is a precomputed `problem.pair(u)` to evaluate from."""
        num, den = self._parts(self.problem.pair(u) if pair is None else pair)
        return _power(num / den, self.gamma)

    def gradient(self, u: Field) -> Callable[[Field, Field], float]:
        """Directional-derivative functional (v, jNv) -> grad s(u) . v, where
        jNv = N'(u) v is computed by the caller (the F' action shares it)."""
        pair = self.problem.pair(u)
        num, den = self._parts(pair)
        derivatives = self._derivatives(pair)
        s_scale = self.gamma * _power(num / den, self.gamma - 1.0)

        def directional(v: Field, jNv: Field) -> float:
            dnum, dden = derivatives(v, jNv)
            return s_scale * (dnum * den - num * dden) / den**2

        return directional


def _format_gamma(gamma: float) -> str:
    return f"{gamma:g}"


def petviashvili_factor(gamma, problem: ProblemModel, allow_marginal: bool = False) -> StabilizingFactor:
    """s(u) = (<Lu, u> / <N(u), u>)^gamma, the f = identity inner factor."""
    factor = inner_factor("identity", gamma, problem, allow_marginal=allow_marginal)
    return replace(factor, descriptor=f"petviashvili:{_format_gamma(factor.gamma)}")


def inner_factor(f: str, gamma, problem: ProblemModel, allow_marginal: bool = False) -> StabilizingFactor:
    """s(u) = (<Lu, f(u)> / <N(u), f(u)>)^gamma for the map named `f`, a key of
    F_MAPS.  Its degree q = gamma*(1-p) does not depend on the degree of f."""
    fmap = F_MAPS.get(f) if isinstance(f, str) else None
    if fmap is None:
        raise DescriptorError(f"unknown inner map {f!r}; known: {sorted(F_MAPS)}")
    gamma = _resolve_gamma(gamma, problem.degree)
    q = _check_degree(problem.degree, gamma, allow_marginal)
    descriptor = f"inner:f={fmap.name}:{_format_gamma(gamma)}"

    def parts(pair: OperatorPair):
        # f = identity pairs with u's own coefficients; other maps cost one transform
        fc = pair.uc if fmap is F_MAPS["identity"] else pair.coefficients(fmap.apply(pair.u.values))
        num = pair.inner(pair.Lc, fc)
        den = pair.inner(pair.Nc, fc)
        # relative to its Cauchy-Schwarz scale: an even f at an odd state
        # cancels to a rounding-level 1e-13, which must not pass as a number
        if abs(den) <= 1e-8 * pair.norm(pair.Nc) * pair.norm(fc):
            raise DegenerateDenominatorError(
                f"|<N(u), f(u)>| = {abs(den):.3g} is degenerate for f = {fmap.name}"
            )
        return num, den

    def derivatives(pair: OperatorPair) -> Callable[[Field, Field], tuple[float, float]]:
        u = pair.u
        Lu, Nu = pair.field(pair.Lc), pair.field(pair.Nc)
        fu = u.with_values(fmap.apply(u.values))
        Lfu = problem.apply_L(fu)  # L is self-adjoint: Re<L v, f(u)> = Re<v, L f(u)>

        def directional(v: Field, jNv: Field) -> tuple[float, float]:
            dfv = u.with_values(fmap.jac(u.values, v.values))
            return (real_inner(v, Lfu) + real_inner(Lu, dfv),
                    real_inner(jNv, fu) + real_inner(Nu, dfv))

        return directional

    return StabilizingFactor(descriptor, gamma, q, problem, parts, derivatives)


def norm_factor(r, gamma, problem: ProblemModel, allow_marginal: bool = False) -> StabilizingFactor:
    """s(u) = (||Lu||_r / ||N(u)||_r)^gamma for 1 <= r <= inf."""
    r_val = np.inf if (isinstance(r, str) and r.lower() == "inf") else float(r)
    if not (r_val >= 1.0):
        raise ValueError(f"r must satisfy 1 <= r <= inf, got {r}")
    gamma = _resolve_gamma(gamma, problem.degree)
    q = _check_degree(problem.degree, gamma, allow_marginal)
    r_name = "inf" if np.isinf(r_val) else f"{r_val:g}"
    descriptor = f"norm:{r_name}:{_format_gamma(gamma)}"

    def vec_norm(x: np.ndarray) -> float:
        return float(np.linalg.norm(x, ord=r_val))

    def parts(pair: OperatorPair):
        Lu, Nu = (pair.field(c).values.ravel() for c in (pair.Lc, pair.Nc))
        den = vec_norm(Nu)
        if den <= 1e-300:
            raise DegenerateDenominatorError(f"||N(u)||_{r_name} = 0 for {descriptor}")
        return vec_norm(Lu), den

    def norm_gradient(field: Field) -> Field:
        """g with d||x||_r = Re <g, dx>: unit(x) (|x|/||x||_r)^(r-1), where
        unit(0) = 0 (so r = 1 gives sign(x)); for r = inf, unit(x) at the first
        maximum of |x|."""
        x = field.values.ravel()
        modulus = np.abs(x)
        unit = np.divide(x, modulus, out=np.zeros_like(x), where=modulus > 0.0)
        if np.isinf(r_val):
            g = unit * (np.arange(x.size) == np.argmax(modulus))
        else:
            g = unit * (modulus / vec_norm(x)) ** (r_val - 1.0)
        return field.with_values(g.reshape(field.values.shape))

    def derivatives(pair: OperatorPair) -> Callable[[Field, Field], tuple[float, float]]:
        gL, gN = (norm_gradient(pair.field(c)) for c in (pair.Lc, pair.Nc))
        LgL = problem.apply_L(gL)  # L is self-adjoint: Re<g, L v> = Re<L g, v>
        return lambda v, jNv: (real_inner(LgL, v), real_inner(gN, jNv))

    return StabilizingFactor(descriptor, gamma, q, problem, parts, derivatives)


def from_descriptor(descriptor: str, problem: ProblemModel, allow_marginal: bool = False) -> StabilizingFactor:
    """Build a factor from its serialized form.

    Grammar: "petviashvili:<gamma>", "inner:f=<name>:<gamma>", "norm:<r>:<gamma>"
    where <gamma> is a number or "optimal" and <r> is a number or "inf".
    """
    parts = descriptor.split(":")
    try:
        if parts[0] == "petviashvili" and len(parts) == 2:
            return petviashvili_factor(parts[1], problem, allow_marginal)
        if parts[0] == "inner" and len(parts) == 3 and parts[1].startswith("f="):
            return inner_factor(parts[1][2:], parts[2], problem, allow_marginal)
        if parts[0] == "norm" and len(parts) == 3:
            return norm_factor(parts[1], parts[2], problem, allow_marginal)
    except ValueError as exc:
        if isinstance(exc, (DescriptorError, FactorPropertyError)):
            raise
        raise DescriptorError(f"bad factor descriptor {descriptor!r}: {exc}") from exc
    raise DescriptorError(
        f"bad factor descriptor {descriptor!r}; expected 'petviashvili:<gamma>', "
        "'inner:f=<name>:<gamma>' or 'norm:<r>:<gamma>'"
    )

