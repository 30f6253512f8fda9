import sys

import numpy as np
import numpy.fft
import scipy.linalg
import scipy.sparse.linalg

import travwave as tw
import travwave.cli  # noqa: F401 - the tracer wraps every loaded travwave module
from travwave import factors, linops
from tracer import Tracer, layer_metrics, self_times


def _snapshot():
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "travwave" or name.startswith("travwave."))]
    owners += [numpy.fft, scipy.linalg, scipy.sparse.linalg]
    state = {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}
    for cls in (factors.StabilizingFactor, linops.VectorSpace):
        state.update({(id(cls), attr): value for attr, value in vars(cls).items()})
    return state


def test_tracer_restores_every_callable_it_wraps():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        during = _snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        assert changed, "nothing was wrapped"
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    tracer = Tracer()
    try:
        with tracer.installed():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    after = _snapshot()
    assert [key for key in before if after[key] is not before[key]] == []


def _small_solve():
    grid = tw.Grid1D(30.0, 128)
    problem = tw.nls_soliton(tw.SolitonParameters(1.0, 1.0, 1.0), grid)
    exact = problem.exact_solution()
    seed = exact + 0.2 * exact.with_values(1j * exact.values)
    factor = tw.from_descriptor("petviashvili:optimal", problem)
    return tw.solve(problem, factor, seed, tw.IterationConfig(max_iterations=100))


def test_traced_solve_matches_untraced_and_counts_each_layer():
    reference = _small_solve()
    tracer = Tracer()
    with tracer.installed():
        traced = _small_solve()
    assert np.array_equal(traced.final.values, reference.final.values)

    metrics = layer_metrics(tracer.spans)
    iterations = reference.trace.iteration_count
    assert metrics["iterate.iterations"] == iterations
    assert metrics["iterate.solve.calls"] == 1
    # one residual and one factor evaluation per record, one step per iteration
    assert metrics["factors.eval.calls"] == iterations + 1
    assert metrics["problems.solve_L.calls"] == iterations
    assert metrics["problems.apply_L.calls"] == 2 * (iterations + 1)
    # 1D soliton: each apply_L and solve_L is one fft and one ifft
    assert metrics["problems.fft_per_iter"] == 2 * (3 * iterations + 2) / iterations
    assert all(s.end is not None for s in tracer.spans)


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    own = self_times(tracer.spans)
    assert own[1] == inner.duration
    assert own[0] == outer.duration - inner.duration
    assert own[0] >= 0.0
