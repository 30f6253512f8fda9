"""Homotopy continuation: step a parameter of a factor family along a monotone
path, seeding each stage by extrapolating the last converged profiles; bisect
the step on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from numbers import Integral
from typing import Callable

from .factors import StabilizingFactor
from .iterate import CONVERGED, IterationConfig, SolveResult, solve
from .spectral import Field


@dataclass(frozen=True)
class HomotopyPath:
    """Strictly monotone parameter values, visited in order."""

    values: tuple[float, ...]
    max_bisections: int = 4

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("values must hold at least one parameter value")
        if not all(abs(v) < math.inf for v in vals):  # NaN fails the comparison
            raise ValueError(f"values must be finite, got {vals}")
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValueError(f"values must be strictly monotone, got {vals}")
        if isinstance(self.max_bisections, bool) or not isinstance(self.max_bisections, Integral):
            raise ValueError(f"max_bisections must be an integer, got {self.max_bisections!r}")
        if self.max_bisections < 0:
            raise ValueError("max_bisections must be nonnegative")
        object.__setattr__(self, "values", vals)


@dataclass
class StageResult:
    parameter_value: float
    result: SolveResult
    requested: bool  # False for bisection-inserted stages
    factor: StabilizingFactor  # bound to the stage's problem, `factor.problem`
    seeded_from: tuple[float, ...]  # values of the stages its start extrapolates; () for the seed


@dataclass
class ContinuationResult:
    stages: list[StageResult] = dataclass_field(default_factory=list)
    completed: bool = True
    failed_at: float | None = None


def _extrapolate(stages: list[StageResult], value: float) -> Field:
    """The Lagrange polynomial through the stages' final states, at `value`."""
    nodes = [stage.parameter_value for stage in stages]
    terms = [math.prod((value - b) / (a - b) for b in nodes if b != a) * stage.result.final
             for a, stage in zip(nodes, stages)]
    return sum(terms[1:], terms[0])


def continue_solve(factor_family: Callable[[float], StabilizingFactor], path: HomotopyPath,
                   seed: Field, config: IterationConfig | None = None,
                   on_stage: Callable[[int, StageResult], None] | None = None) -> ContinuationResult:
    """Solve the family along the path.  The first stage starts from `seed`,
    each later one from the extrapolation of the last (at most three) converged
    stages to its own value: a warm start, then the secant, then the quadratic.

    `factor_family` maps a parameter value to that stage's factor, which
    carries the stage's problem (`factor.problem`).  On a stage failure, the
    step from the last converged value is bisected up to `path.max_bisections`
    levels; if the target still fails, the partial results are returned flagged.
    Every stage is solved by this module's `solve` on the config's engine,
    `stabilized` or `anderson`.  `on_stage(i, stage)` is called as each
    converged stage is appended; a stage's index i never changes afterwards.
    """
    cfg = config or IterationConfig()
    out = ContinuationResult()

    def attempt(value: float, requested: bool) -> bool:
        basis = out.stages[-3:]
        start = _extrapolate(basis, value) if basis else seed
        factor = factor_family(value)
        result = solve(factor.problem, factor, start, cfg)
        if result.status != CONVERGED:
            return False
        out.stages.append(StageResult(value, result, requested, factor,
                                      tuple(s.parameter_value for s in basis)))
        if on_stage is not None:
            on_stage(len(out.stages) - 1, out.stages[-1])
        return True

    def advance(prev_value: float | None, value: float, depth: int, requested: bool) -> bool:
        if attempt(value, requested):
            return True
        if prev_value is None or depth >= path.max_bisections:
            return False
        mid = 0.5 * (prev_value + value)
        return (advance(prev_value, mid, depth + 1, requested=False)
                and advance(mid, value, depth + 1, requested=requested))

    prev: float | None = None
    for value in path.values:
        if not advance(prev, value, depth=0, requested=True):
            out.completed = False
            out.failed_at = value
            return out
        prev = value
    return out
