"""Concrete discretizations: Schrodinger ground states with potentials,
Schrodinger soliton profiles with an exact-solution oracle, and 2D
Benjamin/KP-type lumps.

Every model is an instance of the homogeneous system L u = N(u) with N
positively homogeneous of degree p.  Each carries one operator with the
interface forward, inverse, inner, apply, solve, g and g_jac: a FourierSymbol
for the Fourier families, a NodeOperator for the dense ground state and
hand-built models.  The stabilized loop and the four callables of the model
(`operator_model`) run through that interface alone.  Models are immutable
after construction; dense factorizations happen once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import linops
from .spectral import Field, Grid, Grid1D, Grid2D, derivative_multiplier, diff_matrix, fourier_multiply


class SingularOperatorError(ValueError):
    """The linear operator factorization is numerically singular."""


@dataclass(frozen=True, eq=False)
class FourierSymbol:
    """L and N of a Fourier-collocation family in transform form,
    (L u)^ = symbol * u^ and N(u)^ = multiplier * g(u)^, with the pointwise
    nonlinearity g and its directional derivative g_jac(u, v) = g'(u) v.
    A multiplier of None means N = g, applied at the nodes.

    Coefficients are numpy.fft's: the half spectrum of `rfftn` for real
    fields, the full spectrum of `fftn` for complex ones.  `pinned` marks the
    modes held at zero, where the symbol vanishes.
    """

    shape: tuple[int, ...]
    real: bool
    symbol: np.ndarray
    multiplier: np.ndarray | None
    g: Callable[[np.ndarray], np.ndarray]
    g_jac: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pinned: np.ndarray | None = None

    @cached_property
    def inverse_symbol(self) -> np.ndarray:
        """1/symbol, and 0 on the pinned modes."""
        free = True if self.pinned is None else ~self.pinned
        return np.divide(1.0, self.symbol, out=np.zeros_like(self.symbol), where=free)

    def forward(self, values: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(values) if self.real else np.fft.fftn(values)

    def inverse(self, coeffs: np.ndarray) -> np.ndarray:
        if self.real:
            return np.fft.irfftn(coeffs, s=self.shape, axes=range(len(self.shape)))
        return np.fft.ifftn(coeffs)

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re <A, B> of the fields with coefficients a and b, by Parseval."""
        total = np.vdot(a, b).real
        if self.real:
            # interior half-spectrum columns also stand for their conjugate twins
            total = 2.0 * total - np.vdot(a[..., 0], b[..., 0]).real - np.vdot(a[..., -1], b[..., -1]).real
        return float(total) / math.prod(self.shape)

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """The coefficients of L u, for u's coefficients."""
        return self.symbol * coeffs

    def solve(self, coeffs: np.ndarray) -> np.ndarray:
        """The coefficients of L^{-1} b, for b's coefficients."""
        return coeffs * self.inverse_symbol


@dataclass(frozen=True, eq=False)
class NodeOperator:
    """L and N in node space, under FourierSymbol's method names: the
    coefficients are the node values, so `forward` and `inverse` are the
    identity and `inner` is the real `vdot`; `apply(v)` = L v, `solve(b)` =
    L^{-1} b, and N = g at the nodes (g may couple nodes).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    solve: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    g_jac: Callable[[np.ndarray, np.ndarray], np.ndarray]
    multiplier = pinned = None  # N is g itself, and no mode is held at zero

    def forward(self, values: np.ndarray) -> np.ndarray:
        return values

    inverse = forward

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.real(np.vdot(a, b)))


@dataclass(frozen=True)
class ProblemModel:
    """Homogeneous system L u = N(u) on a periodic grid.

    `apply_L` is self-adjoint in the real pairing Re<.,.> over node values,
    Re<L v, w> = Re<v, L w>; the factor gradients rely on it to apply L once
    per state instead of once per direction.  `jacN_action(u, v)` is the
    (real-linear) directional derivative N'(u)v.
    `exact_solution(x0=0.0, theta0=0.0)`, on a family with a closed-form
    solution, returns the element e^{i theta0} u*(x + x0) of its symmetry
    orbit; `exact_perturbed` seeds, `state: exact` spectra and
    `diagnostics.orbit_match` take the solution from it alone.
    `operator`, a FourierSymbol or a NodeOperator, is the one description of
    L and N: the stabilized loop runs on its coefficients, and
    `operator_model` derives the four callables from it.
    """

    name: str
    degree: float
    grid: Grid
    is_complex: bool
    apply_L: Callable[[Field], Field]
    solve_L: Callable[[Field], Field]
    apply_N: Callable[[Field], Field]
    jacN_action: Callable[[Field, Field], Field]
    operator: FourierSymbol | NodeOperator
    exact_solution: Callable[..., Field] | None = None
    symmetries: tuple[str, ...] = ()
    params: dict = dataclass_field(default_factory=dict)

    def project_pinned(self, u: Field) -> Field:
        """Zero the pinned Fourier modes (no-op when none are declared)."""
        op = self.operator
        if op.pinned is None:
            return u
        return u.with_values(op.inverse(~op.pinned * op.forward(u.values)))

    def pair(self, u: Field, uc: np.ndarray | None = None) -> OperatorPair:
        """Evaluate (L u, N(u)) once; `uc` passes u's coefficients when known."""
        op = self.operator
        uc = op.forward(u.values) if uc is None else uc
        Nc = op.forward(op.g(u.values))
        return OperatorPair(self, u, uc, op.apply(uc), Nc if op.multiplier is None else op.multiplier * Nc)

    def linearization_space(self) -> linops.VectorSpace:
        """Real vector space the linearization acts on: the node values of a
        real problem, interleaved (re, im) pairs of a complex one."""
        return linops.linearization_space(self.grid, complex if self.is_complex else float)


@dataclass(frozen=True, eq=False)
class OperatorPair:
    """One evaluation of (L u, N(u)) at the iterate u, as the coefficient
    arrays of the problem's operator.  The residual, ||u||, the factors'
    inner products and the next stabilized iterate all come from it.
    """

    problem: ProblemModel
    u: Field
    uc: np.ndarray
    Lc: np.ndarray
    Nc: np.ndarray

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """Re <A, B> of the fields A, B with coefficients a, b."""
        return self.problem.operator.inner(a, b)

    def norm(self, a: np.ndarray) -> float:
        return math.sqrt(self.inner(a, a))

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return self.problem.operator.forward(values)

    def field(self, coeffs: np.ndarray) -> Field:
        """The field with the given coefficients."""
        return self.u.with_values(self.problem.operator.inverse(coeffs))

    @cached_property
    def residual(self) -> float:
        """||L u - N(u)||, Euclidean over node values."""
        return self.norm(self.Lc - self.Nc)

    def image(self, s: float) -> np.ndarray:
        """The coefficients of the solution u' of L u' = s N(u)."""
        return self.problem.operator.solve(self.Nc * s)


@dataclass(frozen=True)
class SolitonParameters:
    """Parameters of the focusing-Schrodinger traveling profile."""

    sigma: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.a <= 0:
            raise ValueError(
                f"profile requires lambda1 - lambda2^2/4 > 0, got a = {self.a}"
            )

    @property
    def a(self) -> float:
        return self.lambda1 - self.lambda2**2 / 4.0


def sech(z: np.ndarray) -> np.ndarray:
    return 1.0 / np.cosh(z)


def sech2_potential(grid: Grid1D, amplitude: float = 1.0, center: float = 0.0) -> np.ndarray:
    return amplitude * sech(grid.nodes - center) ** 2


def double_well_potential(grid: Grid1D, depth: float = 6.0, separation: float = 1.0) -> np.ndarray:
    """Attractive double well: depth*(sech^2(x-sep) + sech^2(x+sep)).

    Positive orientation: with L = D^2 + diag(V) - mu*I this produces the
    indefinite operator whose odd branch carries the two-bump antisymmetric
    states (a nonnegative V with mu above its spectrum would make L negative
    definite and the mixed-sign linearization spectra unreachable).
    """
    x = grid.nodes
    return depth * (sech(x - separation) ** 2 + sech(x + separation) ** 2)


def _as_samples(potential, grid: Grid1D) -> np.ndarray:
    v = potential(grid.nodes) if callable(potential) else np.asarray(potential, dtype=float)
    if v.shape != grid.shape:
        raise ValueError(f"potential samples have shape {v.shape}, expected {grid.shape}")
    if not np.isfinite(v).all():  # a NaN sample would make every solve NaN
        raise ValueError("potential samples must be finite")
    return v


def nls_ground_state(potential, mu: float, grid: Grid1D, sign: int = -1) -> ProblemModel:
    """Cubic ground-state system: L = D^2 + diag(V) - mu*I, N(v) = sign*v^3, p = 3.

    The field is real.  It stands for the two invariant axes of the complex
    cubic L u = u^3: u = i v solves it exactly when L v = -v^3 (sign = -1),
    u = v when L v = v^3 (sign = 1), and S = L^{-1} N'(u*) has the same
    spectrum on either axis.  For potentials with mu above the spectrum of
    D^2 + diag(V) the operator L is negative definite and the localized
    branch has sign = -1; indefinite L also supports sign = 1 states.

    L v applies D^2 by the Fourier multiplier of `spectral.derivative` and adds
    (V - mu) v, on real or complex node values.  The dense L serves only its
    LU factorization: it is built once and factored in place, so the model
    holds the factors and no other m x m array.
    """
    if isinstance(sign, bool) or sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or 1, got {sign!r}")
    # scipy is imported where it is called: the Fourier families run on numpy alone
    from scipy.linalg.lapack import dgecon, dgetrf, dgetrs
    V = _as_samples(potential, grid)
    L = diff_matrix(grid, 2)  # Fortran order, so reshape(-1) would copy: "A" keeps the diagonal a view
    diagonal = L.reshape(-1, order="A")[:: grid.point_count + 1]
    with np.errstate(over="ignore"):  # reported below, by name
        diagonal += V  # two steps: rounded as the dense sum D^2 + diag(V) - mu*I is
        diagonal -= mu
    if not np.isfinite(diagonal).all():
        raise ValueError(f"L = D^2 + diag(V) - mu*I overflows the float range at mu = {mu}")
    # ||L||_1 in O(m): each column holds the circulant's off-diagonal entries, plus its own diagonal entry
    anorm = np.abs(L[1:, 0]).sum() + np.abs(diagonal).max()
    lu, piv, info = dgetrf(L, overwrite_a=1)  # in place: lu is L's memory
    rcond = dgecon(lu, anorm, norm="1")[0] if info == 0 else 0.0  # info > 0: an exact zero pivot
    if not rcond >= 1e-13:  # a NaN rcond is singular too
        raise SingularOperatorError(
            f"L = D^2 + diag(V) - mu*I is numerically singular at mu = {mu} "
            f"(reciprocal condition {rcond:.2e}; mu coincides with a discrete eigenvalue)"
        )

    d2, shift = derivative_multiplier(grid, 2), V - mu
    # apply: `spectral.derivative`'s D^2 v plus (V - mu) v; solve: LAPACK getrs on the stored
    # factors, lu_solve's bytes without its input checks
    node = NodeOperator(apply=lambda v: fourier_multiply(v, d2) + shift * v,
                        solve=lambda b: dgetrs(lu, piv, b)[0],
                        g=lambda v: sign * v * v * v, g_jac=lambda v, w: 3.0 * sign * v * v * w)
    return operator_model(node, name="nls_ground_state", degree=3.0, grid=grid, is_complex=False,
                          params={"mu": mu, "sign": sign})


def exact_soliton_profile(params: SolitonParameters, grid: Grid1D, x0: float = 0.0,
                          theta0: float = 0.0) -> Field:
    """Closed-form profile e^{i*theta0} * rho(x + x0) * e^{i*theta(x + x0)}, the
    element of the orbit under the group action u(x) -> e^{i theta0} u(x + x0).

    rho(x) = (a(sigma+1))^{1/(2 sigma)} sech(sigma sqrt(a) x)^{1/sigma},
    theta(x) = (lambda2/2) x.
    """
    a, sig = params.a, params.sigma
    xi = grid.nodes + x0
    rho = (a * (sig + 1.0)) ** (1.0 / (2.0 * sig)) * sech(sig * np.sqrt(a) * xi) ** (1.0 / sig)
    phase = 0.5 * params.lambda2 * xi + theta0
    return Field(grid, rho * np.exp(1j * phase))


def nls_soliton(params: SolitonParameters, grid: Grid1D) -> ProblemModel:
    """Soliton profile system: L has symbol -k^2 - lambda1 + lambda2*k,
    N(U) = -|U|^{2 sigma} U, p = 2 sigma + 1.

    The symbol has no real roots when a > 0 (negative discriminant), so the
    mode-wise solve is defined everywhere.  The Jacobian of N is only
    real-linear (it involves conj), so spectra live on R^{2m}.
    """
    sig = params.sigma
    k = grid.wavenumbers

    def g(v: np.ndarray) -> np.ndarray:
        return -np.abs(v) ** (2 * sig) * v

    def g_jac(uv: np.ndarray, wv: np.ndarray) -> np.ndarray:
        au = np.abs(uv)
        return -(sig + 1.0) * au ** (2 * sig) * wv - sig * au ** (2 * sig - 2) * uv * uv * np.conj(wv)

    fourier = FourierSymbol(grid.shape, False, -(k**2) - params.lambda1 + params.lambda2 * k, None, g, g_jac)
    return operator_model(
        fourier,
        name="nls_soliton",
        degree=2.0 * sig + 1.0,
        grid=grid,
        is_complex=True,
        exact_solution=partial(exact_soliton_profile, params, grid),
        symmetries=("gauge", "translation_x"),
        params={"sigma": sig, "lambda1": params.lambda1, "lambda2": params.lambda2},
    )


def benjamin_lump(gamma_cap: float, sound_speed: float, grid: Grid2D) -> ProblemModel:
    """2D lump system in transform form:

        [kx^2 (c_s + 2 Gamma |kx| + kx^2) + kz^2] eta_hat = kx^2 (eta^2)_hat

    so apply_L is the left multiplier, apply_N multiplies the transform of
    eta*eta by kx^2, and p = 2.  Gamma = 0 is the KP-I case.  The only zero of
    the symbol is the (0,0) mode, pinned by the zero-total-mass constraint.
    """
    if sound_speed <= 0:
        raise ValueError(f"sound_speed must be positive, got {sound_speed}")
    if gamma_cap < 0:
        raise ValueError(f"Gamma must be nonnegative, got {gamma_cap}")
    axis_x, axis_z = grid.axes
    kx = axis_x.wavenumbers[:, None]
    kz = np.abs(axis_z.wavenumbers[None, : axis_z.point_count // 2 + 1])  # rfftn's half spectrum
    symbol = kx**2 * (sound_speed + 2.0 * gamma_cap * np.abs(kx) + kx**2) + kz**2
    fourier = FourierSymbol(grid.shape, True, symbol, kx**2, lambda v: v * v,
                            lambda u, w: 2.0 * u * w, pinned=symbol == 0.0)
    return operator_model(
        fourier,
        name="benjamin_lump",
        degree=2.0,
        grid=grid,
        is_complex=False,
        symmetries=("translation_x", "translation_z"),
        params={"Gamma": gamma_cap, "sound_speed": sound_speed},
    )


def operator_model(op: FourierSymbol | NodeOperator, **fields) -> ProblemModel:
    """The model whose four callables are derived from its operator `op`."""

    def N(values: np.ndarray) -> np.ndarray:  # N = g with the multiplier applied
        return values if op.multiplier is None else op.inverse(op.multiplier * op.forward(values))

    return ProblemModel(
        apply_L=lambda u: u.with_values(op.inverse(op.apply(op.forward(u.values)))),
        solve_L=lambda b: b.with_values(op.inverse(op.solve(op.forward(b.values)))),
        apply_N=lambda u: u.with_values(N(op.g(u.values))),
        jacN_action=lambda u, w: w.with_values(N(op.g_jac(u.values, w.values))),
        operator=op, **fields)


def gaussian_seed(grid: Grid, amplitude: float, width: float, antisymmetric: bool = False) -> Field:
    """Gaussian initial iterate A*exp(-|x|^2/w^2) at the nodes x, times x when antisymmetric (1D)."""
    if not 0 < abs(amplitude) < np.inf:  # NaN fails every comparison
        raise ValueError(f"amplitude must be finite and nonzero, got {amplitude}")
    if not 0 < width < np.inf:
        raise ValueError(f"width must be positive and finite, got {width}")
    if antisymmetric and len(grid.axes) > 1:
        raise ValueError("antisymmetric seeds are 1D only")
    mesh = np.meshgrid(*(axis.nodes for axis in grid.axes), indexing="ij")
    v = amplitude * np.exp(-sum(x**2 for x in mesh) / width**2)
    return Field(grid, v * mesh[0] if antisymmetric else v)
