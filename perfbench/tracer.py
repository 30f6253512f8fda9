"""Outside-in tracing of travwave's layers.

`Tracer.installed()` replaces the public callables of each travwave module
(and the numpy/scipy entry points the diagnostics and operators call) with
wrappers that record spans, then restores every original on exit.  Nothing
under `src/` is edited: the wrappers are bound wherever the program looks the
callables up, which is every module namespace that holds the same object.

A span is (name, start, end, parent, pass id); counts such as FFT calls are
attributed to the innermost open span.  Self time is a span's duration minus
the durations of its child spans (children are strictly nested because the
program is single-threaded).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import statistics
import sys
import time

FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

PROBLEM_FAMILIES = ("nls_ground_state", "nls_soliton", "benjamin_lump")
PROBLEM_OPERATORS = ("apply_L", "apply_N", "solve_L", "jacN_action")
CLI_BUILDERS = ("build_grid", "build_problem", "build_factor", "build_seed",
                "build_iteration_config")
CLI_WRITERS = ("write_trace_csv", "write_profile_csv", "write_cross_sections", "_json_dump")
SPECTRUM_STEPS = ("top_eigenvalues", "iteration_matrix_spectrum", "jacobian_spectrum",
                  "hypothesis_verdicts", "spectrum_shift_check")

# Per-layer metrics, with units, in the order they are reported.
LAYER_METRICS = (
    *((f"problems.{op}.{kind}", unit) for op in PROBLEM_OPERATORS
      for kind, unit in (("calls", "count"), ("self_s", "s"))),
    ("problems.fft_per_iter", "1/iter"),
    ("problems.build_s", "s"),
    ("factors.eval.calls", "count"),
    ("factors.eval.self_s", "s"),
    ("factors.gradient.calls", "count"),
    ("factors.gradient.self_s", "s"),
    ("iterate.iterations", "count"),
    ("iterate.ms_per_iter", "ms"),
    ("iterate.solve.calls", "count"),
    ("iterate.solve.self_s", "s"),
    ("iterate.newton.iterations", "count"),
    ("iterate.newton.self_s", "s"),
    ("linops.assemble.calls", "count"),
    ("linops.assemble.columns", "count"),
    ("linops.assemble.self_s", "s"),
    ("diagnostics.dense_eig.calls", "count"),
    ("diagnostics.dense_eig.self_s", "s"),
    ("diagnostics.arnoldi.self_s", "s"),
    ("diagnostics.arnoldi.matvecs", "count"),
    ("diagnostics.cluster_basis.self_s", "s"),
    ("diagnostics.spectrum.self_s", "s"),
    ("diagnostics.orbit_match.self_s", "s"),
    ("continuation.stages_attempted", "count"),
    ("continuation.stages_converged", "count"),
    ("continuation.self_s", "s"),
    ("cli.build_s", "s"),
    ("cli.write.self_s", "s"),
    ("cli.write.bytes", "bytes"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "counts", "attrs")

    def __init__(self, name, start, parent, pass_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.pass_id = pass_id
        self.counts = {}
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; spans stay in memory until `write_csv`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, 0.0, self._stack[-1] if self._stack else None, self.pass_id)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, event: str) -> None:
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[event] = counts.get(event, 0) + 1

    def timed(self, name: str, fn, annotate=None):
        """Wrap `fn` in a span; `annotate(span, result, args)` may record attrs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(record, result, args)
            return result

        return wrapper

    def counted(self, event: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(event)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, modules, original, wrapper) -> None:
        """Bind `wrapper` in every module namespace that holds `original`."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries of the imported travwave package."""
        import numpy.fft
        import scipy.linalg
        import scipy.sparse.linalg
        from travwave import cli, continuation, diagnostics, factors, iterate, linops, problems

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "travwave" or name.startswith("travwave."))]
        try:
            for name in FFT_FUNCTIONS:
                self._set(numpy.fft, name, self.counted("fft", getattr(numpy.fft, name)))
            self._set(scipy.linalg, "eig", self.timed("diagnostics.dense_eig", scipy.linalg.eig))
            self._set(scipy.sparse.linalg, "eigs",
                      self.timed("diagnostics.arnoldi", scipy.sparse.linalg.eigs))

            for name in PROBLEM_FAMILIES:
                original = getattr(problems, name)
                self._rebind(modules, original,
                             self.timed("problems.build", self._instrument_problem(original)))

            self._set(factors.StabilizingFactor, "__call__",
                      self.timed("factors.eval", factors.StabilizingFactor.__call__))
            self._set(factors.StabilizingFactor, "gradient",
                      self._instrument_gradient(factors.StabilizingFactor.gradient))
            self._set(linops.VectorSpace, "wrap", self._instrument_wrap(linops.VectorSpace.wrap))

            self._rebind(modules, iterate.solve, self.timed("iterate.solve", iterate.solve,
                                                            _annotate_solve))
            self._rebind(modules, iterate.newton_solve,
                         self.timed("iterate.newton", iterate.newton_solve, _annotate_solve))
            self._rebind(modules, linops.assemble_matrix,
                         self.timed("linops.assemble", linops.assemble_matrix,
                                    lambda span, _, args: span.attrs.update(columns=args[1])))
            self._rebind(modules, continuation.continue_solve,
                         self.timed("continuation", continuation.continue_solve))

            for name in SPECTRUM_STEPS:
                original = getattr(diagnostics, name)
                self._rebind(modules, original, self.timed("diagnostics.spectrum", original))
            self._set(diagnostics, "_cluster_basis",
                      self.timed("diagnostics.cluster_basis", diagnostics._cluster_basis))
            self._rebind(modules, diagnostics.orbit_match,
                         self.timed("diagnostics.orbit_match", diagnostics.orbit_match))

            for name in CLI_BUILDERS:
                self._set(cli, name, self.timed("cli.build", getattr(cli, name)))
            for name in CLI_WRITERS:
                self._set(cli, name, self.timed("cli.write", getattr(cli, name)))
            self._set(cli, "main", self.timed("cli.main", cli.main))
            yield self
        finally:
            self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _instrument_problem(self, family):
        """Wrap a problem constructor so the model's operators record spans."""

        @functools.wraps(family)
        def build(*args, **kwargs):
            model = family(*args, **kwargs)
            wrapped = {op: self.timed(f"problems.{op}", getattr(model, op))
                       for op in PROBLEM_OPERATORS if getattr(model, op) is not None}
            return dataclasses.replace(model, **wrapped)

        return build

    def _instrument_gradient(self, gradient):
        """Span the gradient set-up and each directional evaluation."""

        @functools.wraps(gradient)
        def wrapper(factor, u):
            with self.span("factors.gradient"):
                directional = gradient(factor, u)
            return self.timed("factors.gradient", directional)

        return wrapper

    def _instrument_wrap(self, wrap):
        """Count each call of a lifted vector action as one matvec."""

        @functools.wraps(wrap)
        def wrapper(space, action):
            return self.counted("matvec", wrap(space, action))

        return wrapper

    # -- output --------------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,pass,name,parent,start_s,end_s,self_s,fft\n")
            for i, (span, own) in enumerate(zip(self.spans, self_times(self.spans))):
                parent = "" if span.parent is None else span.parent
                fh.write(f"{i},{span.pass_id},{span.name},{parent},{span.start!r},"
                         f"{span.end!r},{own!r},{span.counts.get('fft', 0)}\n")


def _annotate_solve(span: Span, result, _args) -> None:
    span.attrs["iterations"] = result.trace.iteration_count
    span.attrs["converged"] = result.status == "converged"


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Self time of each span; `spans` is a slice of a tracer's list that
    starts at index `offset` and holds whole span trees."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent - offset] -= span.duration
    return own


def layer_metrics(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Per-layer metrics of one pass: `spans` as for `self_times`."""
    own = self_times(spans, offset)
    parents = [None if s.parent is None else s.parent - offset for s in spans]
    subtree: list[dict] = [dict(s.counts) for s in spans]
    for i in range(len(spans) - 1, -1, -1):
        if parents[i] is not None:
            for event, n in subtree[i].items():
                subtree[parents[i]][event] = subtree[parents[i]].get(event, 0) + n

    def named(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def self_s(name):
        return sum(own[i] for i in named(name))

    def nearest(i, name):
        """Index of the closest ancestor of span i called `name`, or None."""
        parent = parents[i]
        while parent is not None and spans[parent].name != name:
            parent = parents[parent]
        return parent

    def outermost_s(name):
        return sum(spans[i].duration for i in named(name) if nearest(i, name) is None)

    solves = named("iterate.solve")
    iterations = sum(spans[i].attrs["iterations"] for i in solves)
    solve_s = sum(spans[i].duration for i in solves)
    solve_ffts = sum(subtree[i].get("fft", 0) for i in solves)
    stages = [i for i in solves if nearest(i, "continuation") is not None]
    out: dict[str, float] = {}
    for op in PROBLEM_OPERATORS:
        out[f"problems.{op}.calls"] = len(named(f"problems.{op}"))
        out[f"problems.{op}.self_s"] = self_s(f"problems.{op}")
    out.update({
        "problems.fft_per_iter": solve_ffts / iterations if iterations else 0.0,
        "problems.build_s": outermost_s("problems.build"),
        "factors.eval.calls": len(named("factors.eval")),
        "factors.eval.self_s": self_s("factors.eval"),
        "factors.gradient.calls": len(named("factors.gradient")),
        "factors.gradient.self_s": self_s("factors.gradient"),
        "iterate.iterations": iterations,
        "iterate.ms_per_iter": 1e3 * solve_s / iterations if iterations else 0.0,
        "iterate.solve.calls": len(solves),
        "iterate.solve.self_s": self_s("iterate.solve"),
        "iterate.newton.iterations": sum(spans[i].attrs["iterations"]
                                         for i in named("iterate.newton")),
        "iterate.newton.self_s": self_s("iterate.newton"),
        "linops.assemble.calls": len(named("linops.assemble")),
        "linops.assemble.columns": sum(spans[i].attrs["columns"]
                                       for i in named("linops.assemble")),
        "linops.assemble.self_s": self_s("linops.assemble"),
        "diagnostics.dense_eig.calls": len(named("diagnostics.dense_eig")),
        "diagnostics.dense_eig.self_s": self_s("diagnostics.dense_eig"),
        "diagnostics.arnoldi.self_s": self_s("diagnostics.arnoldi"),
        "diagnostics.arnoldi.matvecs": sum(subtree[i].get("matvec", 0)
                                           for i in named("diagnostics.arnoldi")),
        "diagnostics.cluster_basis.self_s": self_s("diagnostics.cluster_basis"),
        "diagnostics.spectrum.self_s": self_s("diagnostics.spectrum"),
        "diagnostics.orbit_match.self_s": self_s("diagnostics.orbit_match"),
        "continuation.stages_attempted": len(stages),
        "continuation.stages_converged": sum(spans[i].attrs["converged"] for i in stages),
        "continuation.self_s": self_s("continuation"),
        "cli.build_s": outermost_s("cli.build"),
        "cli.write.self_s": self_s("cli.write"),
    })
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
