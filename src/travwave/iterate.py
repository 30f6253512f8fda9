"""Fixed-point engines, named by `IterationConfig.engine`: `stabilized`, the map
L u_{n+1} = s(u_n) N(u_n) (the classical L u_{n+1} = N(u_n) without a factor),
and `anderson`, that map with guarded Anderson mixing.  `newton_solve`, damped
Newton (matrix-free GMRES, right-preconditioned by L^{-1}), is no engine: it is
the library's independent reference solver, which no command runs.

`solve` and `newton_solve` run one loop and differ only in its step.  Each
iteration records, from one (L u, N(u)) pair at u_n, the residual monitor
RE_n = ||L u_n - N(u_n)|| (Euclidean over node values, realified on complex
fields), the factor discrepancy |s(u_n) - 1| (NaN for Newton and the
classical map) and ||u_n||.  Divergence, overflow included, is a reported
outcome, never an exception; so is a collapse, a run that converges to the
trivial solution u = 0 (final norm below COLLAPSE_RATIO times the first).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .factors import StabilizingFactor
from .problems import OperatorPair, ProblemModel
from .spectral import Field

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERATIONS = "max_iterations"
COLLAPSED = "collapsed"  # converged to the trivial state u = 0

COLLAPSE_RATIO = 1e-8

# Anderson mixing depth of the `anderson` engine: on fig2's continuation AA(3),
# AA(5) and AA(8) take 175, 153 and 141 iterations, so a deeper history buys little
ANDERSON_DEPTH = 5
# the mixing depth `solve` runs each engine with
MIXING_DEPTH = {"stabilized": 0, "anderson": ANDERSON_DEPTH}
# The guard of a mixing step, after the safeguard of Zhang, O'Donoghue & Boyd
# (SIAM J. Optim. 30, 2020), which falls back to the damped base map: a mixed
# iterate that is non-finite, breaks the factor down or has a residual above
# FALLBACK_GROWTH times the current one gives way to the damped plain step
# u + FALLBACK_DAMPING (G(u) - u).
# Undamped AA(5) reaches table1_col34's state from 18 of a 40-seed box around
# its recipe seed, the guarded step from all 40 (31 fallbacks in all), and fig2
# never falls back.  A damping of 0.5 reaches the state from 37, and 0.7 from 33.
FALLBACK_GROWTH = 4.0
FALLBACK_DAMPING = 0.3


@dataclass(frozen=True)
class IterationConfig:
    max_iterations: int = 500
    residual_tolerance: float = 1e-12
    divergence_guard: float = 1e8
    engine: str = "stabilized"

    def __post_init__(self):
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, Integral):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0 < self.residual_tolerance < np.inf:  # NaN fails every comparison
            raise ValueError(f"residual_tolerance must be positive and finite, got {self.residual_tolerance!r}")
        if not 1 < self.divergence_guard < np.inf:
            raise ValueError(f"divergence_guard must be finite and exceed 1, got {self.divergence_guard!r}")
        if self.engine not in MIXING_DEPTH:
            raise ValueError(f"engine must be one of {list(MIXING_DEPTH)}, got {self.engine!r}")


@dataclass
class IterationTrace:
    residuals: np.ndarray
    factor_discrepancies: np.ndarray
    norms: np.ndarray
    status: str

    @property
    def iteration_count(self) -> int:
        """Number of steps taken (records minus one)."""
        return len(self.residuals) - 1

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])

    @property
    def final_factor_discrepancy(self) -> float:
        return float(self.factor_discrepancies[-1])


@dataclass
class SolveResult:
    final: Field
    trace: IterationTrace

    @property
    def status(self) -> str:
        return self.trace.status


def solve(problem: ProblemModel, factor: StabilizingFactor | None, u0: Field,
          config: IterationConfig | None = None) -> SolveResult:
    """Iterate L u_{n+1} = s(u_n) N(u_n) until RE_n <= residual_tolerance, the
    divergence guard, or max_iterations.

    Each iteration evaluates one (L u, N(u)) pair in the problem's
    coefficients and takes the residual, ||u||, the factor and the next
    iterate from it.  With factor=None this runs the classical map (for
    divergence demonstrations); the factor-discrepancy channel records NaN.
    The next iterate is the Anderson mixing (`_Anderson`) of the map's images
    over the last MIXING_DEPTH[config.engine] steps, none for `stabilized`,
    with the guard that falls back to the damped plain step; the records are
    those of each iterate's own pair.
    """
    cfg = config or IterationConfig()
    return _iterate(problem, _seed(problem, u0), cfg, factor, _Anderson(MIXING_DEPTH[cfg.engine]))


class _Anderson:
    """The step of Anderson mixing of depth m on the map G(u) with
    L G(u) = s(u) N(u) (Walker & Ni's type II, undamped).

    With f = G(u) - u, and dF, dG the last m differences of f and of G(u)
    between consecutive iterates, the next iterate is G(u_n) - dG gamma, where
    gamma solves the normal equations (dF dF^T) gamma = dF f_n.  Vectors are
    the pair's coefficients viewed as reals.  The differences live in ring
    buffers and the Gram matrix dF dF^T gains one row per step; a singular
    or non-finite solve drops the history and takes the plain step.  When the
    loop rejects the mixed iterate, `fallback` gives the damped plain step
    from the f and g of the same u_n and drops the history.  Depth 0 keeps no
    history: its step is the plain map's image G(u_n).  The reductions are
    einsum's own loops, not BLAS calls, so the iterates do not depend on the
    BLAS thread count.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self.count = 0  # differences taken since the history was last dropped
        self.dF = self.dG = self.gram = self.f = self.g = self.layout = None

    def __call__(self, pair: OperatorPair, s: float) -> OperatorPair:
        image = pair.image(s)
        if not self.depth:
            return pair.problem.pair(pair.field(image), image)
        g = image.reshape(-1).view(np.float64)
        f = (image - pair.uc).reshape(-1).view(np.float64)
        if self.dF is None:
            self.dF, self.dG = np.empty((2, self.depth, f.size))
            self.gram = np.empty((self.depth, self.depth))
        else:
            slot, self.count = self.count % self.depth, self.count + 1
            k = min(self.count, self.depth)
            np.subtract(f, self.f, out=self.dF[slot])
            np.subtract(g, self.g, out=self.dG[slot])
            self.gram[slot, :k] = self.gram[:k, slot] = np.einsum("ij,j->i", self.dF[:k], self.dF[slot])
        self.f, self.g, self.layout = f, g, (image.dtype, image.shape)
        mixed = g
        if self.count:
            k = min(self.count, self.depth)
            try:
                gamma = np.linalg.solve(self.gram[:k, :k], np.einsum("ij,j->i", self.dF[:k], f))
            except np.linalg.LinAlgError:
                gamma = np.full(k, np.nan)
            if np.all(np.isfinite(gamma)):
                mixed = g - np.einsum("i,ij->j", gamma, self.dG[:k])
            else:
                self.count = 0
        return self._pair(pair, mixed)

    def fallback(self, pair: OperatorPair) -> OperatorPair:
        """The pair at u_n + FALLBACK_DAMPING (G(u_n) - u_n), for the pair at
        u_n that the last step started from; the history is dropped."""
        self.count = 0
        return self._pair(pair, self.g - (1.0 - FALLBACK_DAMPING) * self.f)

    def _pair(self, pair: OperatorPair, flat: np.ndarray) -> OperatorPair:
        dtype, shape = self.layout
        coeffs = flat.view(dtype).reshape(shape)
        return pair.problem.pair(pair.field(coeffs), coeffs)


def newton_solve(problem: ProblemModel, u0: Field, config: IterationConfig | None = None) -> SolveResult:
    """Damped Newton on G(u) = L u - N(u) with backtracking line search.

    Works on the problem's linearization space (node values, or interleaved
    (re, im) pairs of a complex field).  Each step solves J delta = -g
    matrix-free, by GMRES on J L^{-1} (right preconditioning by the problem's
    own solve_L); a step is taken only when GMRES meets its target, otherwise
    the run reports divergence.
    The loop, residual and stop tests are `solve`'s; the pair of the trial
    the line search accepts is the next record.
    """
    cfg = config or IterationConfig()
    space = problem.linearization_space()

    def step(pair: OperatorPair, _s: float) -> OperatorPair | str:
        g = space.to_vector(pair.field(pair.Lc - pair.Nc))
        direction = _newton_direction(problem, space, pair.u, g, cfg.residual_tolerance)
        if direction is None:
            return DIVERGED
        w, alpha = space.to_vector(pair.u), 1.0
        for _ls in range(40):
            trial = problem.pair(space.from_vector(w + alpha * direction))
            if trial.residual < (1.0 - 1e-4 * alpha) * pair.residual:  # False on NaN
                return trial
            alpha *= 0.5
        return MAX_ITERATIONS  # line search stalled: no descent direction left

    # start where every later iterate lies: on the linearization space
    return _iterate(problem, space.from_vector(space.to_vector(_seed(problem, u0))), cfg, None, step)


def _seed(problem: ProblemModel, u0: Field) -> Field:
    """u0 with the pinned modes zeroed; a complex seed of a real problem is an error."""
    if u0.is_complex and not problem.is_complex:
        raise ValueError(f"seed is complex but problem {problem.name!r} is real")
    return problem.project_pinned(u0)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a divergence the guard reports
def _iterate(problem: ProblemModel, u: Field, cfg: IterationConfig,
             factor: StabilizingFactor | None,
             step: Callable[[OperatorPair, float], OperatorPair | str]) -> SolveResult:
    """The loop every engine runs from the seed u.

    Each record takes RE_n, |s(u_n) - 1| and ||u_n|| from the pair at u_n;
    then the divergence guard, the stop rule and the iteration cap are
    checked, in that order.  Otherwise `step(pair, s)`, with s = s(u_n) (1 for
    the classical map), returns the pair at u_{n+1}, or the status that ends
    the run when no step can be taken.  A mixing step's iterate that is
    non-finite, breaks the factor down or has a residual above
    FALLBACK_GROWTH RE_n is not recorded: the step's `fallback` replaces it
    and is recorded whatever it holds.  The factor is evaluated once per pair.
    """
    # exact and BLAS-free: a nonzero seed whose norm underflows is still nonzero
    if not np.any(u.values) or not np.all(np.isfinite(u.values)):
        raise ValueError("seed must be nonzero and finite")

    def factor_at(pair: OperatorPair) -> float | None:
        """s at the pair's iterate (NaN for the classical map); None where the
        iterate is non-finite or has left the factor's domain."""
        if not np.all(np.isfinite(pair.u.values)):
            return None
        try:
            return factor(pair.u, pair) if factor is not None else np.nan
        except ArithmeticError:
            return None

    guarded = isinstance(step, _Anderson) and step.depth > 0
    pair = problem.pair(u)
    s = factor_at(pair)
    records: list[tuple[float, float, float]] = []
    status = MAX_ITERATIONS
    for n in range(cfg.max_iterations + 1):
        if not np.all(np.isfinite(pair.u.values)):
            records.append((np.inf, np.nan, np.inf))
            status = DIVERGED
            break
        re_n, norm_n = pair.residual, pair.norm(pair.uc)
        disc = np.nan if s is None else abs(s - 1.0)
        records.append((re_n, disc, norm_n))
        if (s is None or not np.isfinite(re_n) or re_n > cfg.divergence_guard
                or norm_n > cfg.divergence_guard):
            status = DIVERGED
            break
        if re_n <= cfg.residual_tolerance:
            # a run that converges to u = 0 has collapsed
            status = COLLAPSED if norm_n < COLLAPSE_RATIO * records[0][2] else CONVERGED
            break
        if n == cfg.max_iterations:
            break
        nxt = step(pair, 1.0 if factor is None else s)
        if isinstance(nxt, str):
            status = nxt
            break
        s = factor_at(nxt)
        if guarded and (s is None or not nxt.residual <= FALLBACK_GROWTH * re_n):  # True on NaN
            nxt = step.fallback(pair)
            s = factor_at(nxt)
        pair = nxt

    residuals, discrepancies, norms = (np.asarray(column) for column in zip(*records))
    return SolveResult(final=pair.u, trace=IterationTrace(residuals, discrepancies, norms, status))


def _newton_direction(problem: ProblemModel, space, at: Field, g: np.ndarray, tol: float) -> np.ndarray | None:
    """The step L^{-1} y, where GMRES solves J L^{-1} y = -g for J = L - N'(at).

    J L^{-1} = L (I - S) L^{-1} is similar to I - S, so the spectrum of S sets
    the Krylov count.  A relative target floored at 1e-10 and an absolute one
    of tol/10 keep the stop rule reachable far from the solution and at the
    roundoff floor of a symmetry-singular J.
    """
    from scipy.sparse.linalg import LinearOperator, gmres  # loaded only by Newton solves

    def action(y: np.ndarray) -> np.ndarray:  # J L^{-1} y = y - N'(at) L^{-1} y
        v = space.from_vector(y)
        return space.to_vector(problem.project_pinned(v - problem.jacN_action(at, problem.solve_L(v))))

    rtol = max(min(1e-6, tol / max(np.linalg.norm(g), 1e-300)), 1e-10)
    y, info = gmres(LinearOperator((space.dim,) * 2, matvec=action), -g, rtol=rtol, atol=0.1 * tol,
                    maxiter=20, restart=80)
    return space.wrap(problem.solve_L)(y) if info == 0 else None
