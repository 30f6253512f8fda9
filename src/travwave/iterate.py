"""Fixed-point engines: the classical map L u_{n+1} = N(u_n), the stabilized
map L u_{n+1} = s(u_n) N(u_n), and damped Newton (matrix-free GMRES, right-
preconditioned by L^{-1}) for states the stabilized family cannot reach.

The residual monitor RE_n = ||L u_n - N(u_n)|| (Euclidean over node values,
realified on complex fields) is recorded every iteration together with the
factor discrepancy |s(u_n) - 1| and ||u_n||.  Divergence is a reported
outcome, never an exception; so is a collapse, a run that converges to the
trivial solution u = 0 (final norm below COLLAPSE_RATIO times the first).
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .factors import StabilizingFactor
from .problems import ProblemModel
from .spectral import Field

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERATIONS = "max_iterations"
COLLAPSED = "collapsed"  # converged to the trivial state u = 0

COLLAPSE_RATIO = 1e-8


@dataclass(frozen=True)
class IterationConfig:
    max_iterations: int = 500
    residual_tolerance: float = 1e-12
    factor_tolerance: float = 1e-13
    divergence_guard: float = 1e8
    stop_rule: str = "residual"  # "residual" | "residual_and_factor"
    store_all: bool = False

    def __post_init__(self):
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, Integral):
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.residual_tolerance <= 0 or self.factor_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.divergence_guard <= 1:
            raise ValueError("divergence_guard must exceed 1")
        if self.stop_rule not in ("residual", "residual_and_factor"):
            raise ValueError(f"unknown stop_rule {self.stop_rule!r}")


@dataclass
class IterationTrace:
    residuals: np.ndarray
    factor_discrepancies: np.ndarray
    norms: np.ndarray
    status: str
    all_iterates: list[Field] | None = None

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

    def iterations_to(self, tolerance: float) -> float:
        """First iteration index with RE_n <= tolerance, inf if never reached."""
        hit = np.nonzero(self.residuals <= tolerance)[0]
        return float(hit[0]) if hit.size else np.inf


@dataclass
class SolveResult:
    final: Field
    trace: IterationTrace

    @property
    def status(self) -> str:
        return self.trace.status


def solve(problem: ProblemModel, factor: StabilizingFactor | None, u0: Field,
          config: IterationConfig | None = None) -> SolveResult:
    """Iterate until the stop rule, the divergence guard, or max_iterations.

    Each iteration evaluates one (L u, N(u)) pair in the problem's
    coefficients and takes the residual, ||u||, the factor and the next
    iterate from it.  With factor=None this runs the classical map (for
    divergence demonstrations); the factor-discrepancy channel records NaN.
    """
    cfg = config or IterationConfig()
    if u0.norm == 0.0 or not np.all(np.isfinite(u0.values)):
        raise ValueError("seed must be nonzero and finite")
    u = problem.project_pinned(u0)
    uc = None

    res_hist: list[float] = []
    fac_hist: list[float] = []
    norm_hist: list[float] = []
    stored: list[Field] | None = [u] if cfg.store_all else None
    status = MAX_ITERATIONS

    for n in range(cfg.max_iterations + 1):
        pair = problem.pair(u, uc)
        re_n = pair.residual
        factor_broke = False
        try:
            s_val = factor(u, pair) if factor is not None else np.nan
        except ArithmeticError:
            # factor breakdown: the iterate left the factor's domain
            s_val = np.nan
            factor_broke = True
        disc = abs(s_val - 1.0)
        res_hist.append(re_n)
        fac_hist.append(disc)
        norm_hist.append(pair.norm(pair.uc))

        if (not np.isfinite(re_n) or re_n > cfg.divergence_guard
                or norm_hist[-1] > cfg.divergence_guard or factor_broke):
            status = DIVERGED
            break
        done = re_n <= cfg.residual_tolerance
        if cfg.stop_rule == "residual_and_factor" and factor is not None:
            done = done and disc <= cfg.factor_tolerance
        if done:
            status = CONVERGED
            break
        if n == cfg.max_iterations:
            status = MAX_ITERATIONS
            break

        u, uc = pair.step(1.0 if factor is None else s_val)
        if stored is not None:
            stored.append(u)
        if not np.all(np.isfinite(u.values)):
            res_hist.append(np.inf)
            fac_hist.append(np.nan)
            norm_hist.append(np.inf)
            status = DIVERGED
            break

    trace = IterationTrace(
        residuals=np.asarray(res_hist),
        factor_discrepancies=np.asarray(fac_hist),
        norms=np.asarray(norm_hist),
        status=_unless_collapsed(status, norm_hist),
        all_iterates=stored,
    )
    return SolveResult(final=u, trace=trace)


def newton_solve(problem: ProblemModel, u0: Field, config: IterationConfig | None = None) -> SolveResult:
    """Damped Newton on G(u) = L u - N(u) with backtracking line search.

    Works on the state's linearization space (real, realified, or phase
    channel).  Each step solves J delta = -g matrix-free, by GMRES on J L^{-1}
    (right preconditioning by the problem's own solve_L); a step is taken
    only when GMRES meets its target, otherwise the run reports divergence.
    """
    cfg = config or IterationConfig()
    if problem.jacN_action is None:
        raise ValueError("newton_solve requires the problem to provide jacN_action")
    if u0.norm == 0.0 or not np.all(np.isfinite(u0.values)):
        raise ValueError("seed must be nonzero and finite")

    space = problem.linearization_space(at=u0)
    u = problem.project_pinned(u0)
    w = space.to_vector(u)

    G_of = space.wrap(lambda f: problem.apply_L(f) - problem.apply_N(f))

    res_hist: list[float] = []
    norm_hist: list[float] = []
    stored: list[Field] | None = [u] if cfg.store_all else None
    status = MAX_ITERATIONS

    g = G_of(w)
    for n in range(cfg.max_iterations + 1):
        r = float(np.linalg.norm(g))
        res_hist.append(r)
        norm_hist.append(float(np.linalg.norm(w)))
        if r <= cfg.residual_tolerance:
            status = CONVERGED
            break
        if not np.isfinite(r) or r > cfg.divergence_guard:
            status = DIVERGED
            break
        if n == cfg.max_iterations:
            status = MAX_ITERATIONS
            break

        step = _newton_direction(problem, space, space.from_vector(w), g, cfg.residual_tolerance)
        if step is None:
            status = DIVERGED
            break

        alpha, accepted = 1.0, None
        for _ls in range(40):
            trial = w + alpha * step
            g_trial = G_of(trial)
            r_trial = float(np.linalg.norm(g_trial))
            if np.isfinite(r_trial) and r_trial < (1.0 - 1e-4 * alpha) * r:
                accepted = (trial, g_trial)
                break
            alpha *= 0.5
        if accepted is None:
            # line search stalled: no descent direction left
            status = MAX_ITERATIONS
            break
        w, g = accepted
        if stored is not None:
            stored.append(space.from_vector(w))

    trace = IterationTrace(
        residuals=np.asarray(res_hist),
        factor_discrepancies=np.full(len(res_hist), np.nan),
        norms=np.asarray(norm_hist),
        status=_unless_collapsed(status, norm_hist),
        all_iterates=stored,
    )
    return SolveResult(final=space.from_vector(w), trace=trace)


def _unless_collapsed(status: str, norms: list[float]) -> str:
    if status == CONVERGED and norms[-1] < COLLAPSE_RATIO * norms[0]:
        return COLLAPSED
    return status


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
