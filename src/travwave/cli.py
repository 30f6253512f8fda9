"""Command-line front end.

Subcommands: solve | spectrum | continue | orbital.  Every run is driven by a
JSON config (from --config or a bundled --recipe) and writes CSV series plus
JSON reports into the output directory.  Identical configs produce
bit-identical outputs on the same numpy/BLAS build with the same BLAS thread
settings: Arnoldi's start vector has a fixed seed.

Every config block is read by `_read`, against keys declared next to its
builder, before anything is solved: an unknown key, a missing one, a value
of the wrong JSON type or a non-finite number is a config error that names its
key path.

Exit codes: 0 success (a reported divergence is a valid result), 2 config
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import functools
import importlib.resources
import json
import os
import pickle
import sys
import warnings
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import diagnostics, factors, problems
from .continuation import HomotopyPath, continue_solve
from .iterate import COLLAPSED, IterationConfig, SolveResult, solve
from .spectral import Field, Grid1D, Grid2D, derivative

FLOAT_FMT = "%.17g"
AXIS_NAMES = ("x", "z")  # profile CSV coordinate columns, one per grid axis


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# config loading and construction


def load_config(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"--config: cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None


def load_recipe(name: str) -> dict:
    ref = importlib.resources.files("travwave") / "recipes" / f"{name}.json"
    if not ref.is_file():
        available = sorted(
            p.name.removesuffix(".json")
            for p in (importlib.resources.files("travwave") / "recipes").iterdir()
        )
        raise ConfigError(f"unknown recipe {name!r}; available: {available}")
    return json.loads(ref.read_text())


BLOCKS = ("problem", "factor", "iteration", "seed", "diagnostics", "continuation", "orbital", "output")
EXPECTED = {float: "a number", int: "an integer", str: "a string", bool: "true or false", dict: "an object"}


def _typed(value, kind, path: str):
    """`value` checked against the JSON type `kind`: float (any finite number,
    returned as a float), int, str, bool or dict; list[...] or tuple[...] for a list.
    A boolean is never a number."""
    if get_origin(kind) in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return [_typed(item, get_args(kind)[0], f"{path}[{i}]") for i, item in enumerate(value)]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, accepted) and isinstance(value, bool) == (kind is bool):
        if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:  # NaN, +-inf, 1e400
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
        return float(value) if kind is float else value
    raise ConfigError(f"{path}: expected {EXPECTED[kind]}, got {value!r}")


def _read(block, path: str, required: dict, optional: dict = {}) -> dict:
    """The entries of the config object `block` at key path `path` ("" for the
    whole config).  Every key must be declared in `required` or `optional`,
    which map it to its JSON type (see `_typed`); absent optional keys are left
    out, so their defaults stay with the function that takes them."""
    where = path or "config"
    if not isinstance(block, dict):
        raise ConfigError(f"missing field {where}" if block is None
                          else f"{where}: expected an object, got {block!r}")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing field {where}.{key}")
    keys = {**required, **optional}
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(keys)}")
    return {key: _typed(value, keys[key], f"{path}.{key}" if path else key) for key, value in block.items()}


def _variant(block, path: str, key: str, variants: dict, default: str | None = None) -> tuple[str, dict]:
    """A block whose keys depend on the string at `key` (`default` when absent):
    that string and the block's other entries, read against `variants[string]`,
    a (required, optional) pair of key declarations."""
    name = block.get(key, default) if isinstance(block, dict) else default
    if name is not None and _typed(name, str, f"{path}.{key}") not in variants:
        raise ConfigError(f"{path}.{key}: unknown {key} {name!r}")
    required, optional = variants.get(name, ({}, {}))
    values = _read(block, path, required if default else {key: str, **required}, {key: str, **optional})
    return values.pop(key, default), values


def _dataclass(cls, block, path: str):
    """`cls` built from the block at `path`, whose keys are the fields of `cls`
    (required unless they have a default).  The messages of `cls`'s own
    checks start with the field they name, which the error extends to its key path."""
    hints, required, optional = get_type_hints(cls), {}, {}
    for f in fields(cls):
        (required if f.default is MISSING else optional)[f.name] = hints[f.name]
    values = _read(block, path, required, optional)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


GRID_1D = {"half_length": float, "points": int}
GRID_2D = {"half_length_x": float, "points_x": int, "half_length_z": float, "points_z": int}


def build_grid(problem_block: dict):
    block = problem_block.get("grid")
    g = _read(block, "problem.grid", GRID_2D if isinstance(block, dict) and "points_x" in block else GRID_1D)
    try:
        if "points_x" in g:
            return Grid2D(Grid1D(g["half_length_x"], g["points_x"]), Grid1D(g["half_length_z"], g["points_z"]))
        return Grid1D(g["half_length"], g["points"])
    except ValueError as exc:
        raise ConfigError(f"problem.grid: {exc}") from None


POTENTIALS = {"sech2": ({}, {"amplitude": float, "center": float}),
              "double_well": ({}, {"depth": float, "separation": float}),
              "zero": ({}, {})}


def build_potential(pot_block: dict, grid: Grid1D) -> tuple[np.ndarray, dict]:
    """The potential's node samples, and its block as read."""
    kind, values = _variant(pot_block, "problem.potential", "kind", POTENTIALS)
    if kind == "sech2":
        V = problems.sech2_potential(grid, **values)
    elif kind == "double_well":
        V = problems.double_well_potential(grid, **values)
    else:
        V = np.zeros(grid.point_count)
    return V, {"kind": kind, **values}


FAMILIES = {"nls_ground_state": ({"grid": dict, "potential": dict, "mu": float}, {"sign": int}),
            "nls_soliton": ({"grid": dict, "sigma": float, "lambda1": float, "lambda2": float}, {}),
            "benjamin_lump": ({"grid": dict, "Gamma": float, "sound_speed": float}, {})}


def build_problem(cfg: dict):
    family, values = _variant(cfg.get("problem"), "problem", "family", FAMILIES)
    grid = build_grid(values)
    if (len(grid.axes) == 2) != (family == "benjamin_lump"):
        raise ConfigError(f"problem.grid: {family} needs a {'2D' if family == 'benjamin_lump' else '1D'} grid")
    V, potential = build_potential(values["potential"], grid) if family == "nls_ground_state" else (None, None)
    try:
        if family == "nls_ground_state":
            sign = {"sign": values["sign"]} if "sign" in values else {}
            problem = problems.nls_ground_state(V, values["mu"], grid, **sign)
            # the model holds V's node samples; its summary records the block that built them
            return replace(problem, params={**problem.params, "potential": potential})
        if family == "nls_soliton":
            return problems.nls_soliton(problems.SolitonParameters(
                sigma=values["sigma"], lambda1=values["lambda1"], lambda2=values["lambda2"]), grid)
        return problems.benjamin_lump(values["Gamma"], values["sound_speed"], grid)
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None


def build_iteration_config(cfg: dict) -> IterationConfig:
    return _dataclass(IterationConfig, cfg.get("iteration", {}), "iteration")


def build_factor(cfg: dict, problem):
    descriptor = _read(cfg.get("factor"), "factor", {"descriptor": str})["descriptor"]
    try:
        return factors.from_descriptor(descriptor, problem)
    except (factors.DescriptorError, factors.FactorPropertyError) as exc:
        raise ConfigError(f"factor.descriptor: {exc}") from None


def _perturbed_exact(problem, eps1: float = 0.0, eps2: float = 0.0) -> Field:
    exact = problem.exact_solution()
    return exact + eps1 * exact.with_values(1j * exact.values) + eps2 * derivative(exact, 1)


AMPLITUDES = {"eps1": float, "eps2": float}
SEEDS = {"gaussian": ({"amplitude": float, "width": float}, {"antisymmetric": bool}),
         "exact_perturbed": ({}, AMPLITUDES),
         "file": ({"path": str}, {})}


def build_seed(cfg: dict, problem) -> Field:
    kind, values = _variant(cfg.get("seed"), "seed", "kind", SEEDS)
    if kind == "exact_perturbed":
        if problem.exact_solution is None:
            raise ConfigError("seed.kind: exact_perturbed requires a problem with an exact solution")
        return _perturbed_exact(problem, **values)
    if kind == "file":
        return read_profile_csv(values["path"], problem)
    try:
        seed = problems.gaussian_seed(problem.grid, **values)
    except ValueError as exc:
        raise ConfigError(f"seed: {exc}") from None
    return seed.with_values(seed.values.astype(complex)) if problem.is_complex else seed


def output_dir(cfg: dict, override: str | None) -> Path:
    values = _read(cfg.get("output", {}), "output", {} if override else {"directory": str}, {"directory": str})
    key, out = ("--out", Path(override)) if override else ("output.directory", Path(values["directory"]))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"{key}: cannot create directory {out}: {exc.strerror}") from None
    return out


# ---------------------------------------------------------------------------
# writers / readers


def _template(header: str, prefixes: list[str], fields: str) -> str:
    """A CSV format string: the header, then each prefix followed by `fields`.
    Lines end with \\r\\n, as csv.writer ends them."""
    return f"{header}\r\n" + "".join(f"{prefix}{fields}\r\n" for prefix in prefixes)


def _write_csv(path: Path, template: str, *columns) -> None:
    """The template filled with the columns, row by row, in one pass."""
    with open(path, "w", newline="") as fh:
        fh.write(template % tuple(np.column_stack(columns).ravel().tolist()))


def _prefixes(nodes: np.ndarray) -> list[str]:
    return [f"{FLOAT_FMT % x}," for x in nodes]


def write_trace_csv(path: Path, result: SolveResult) -> None:
    tr = result.trace
    _write_csv(path, _template("iter,residual,factor_discrepancy,norm",
                               [f"{n}," for n in range(len(tr.residuals))], ",".join([FLOAT_FMT] * 3)),
               tr.residuals, tr.factor_discrepancies, tr.norms)


@functools.lru_cache(maxsize=4)
def _profile_template(grid, is_complex: bool) -> str:
    """The profile CSV template of a grid: node coordinates, then re and im
    fields; a real field's im column is the literal 0 that FLOAT_FMT prints."""
    # node coordinates repeat along the other axis: format each one once
    prefixes = [""]
    for axis in grid.axes:
        coords = _prefixes(axis.nodes)
        prefixes = [p + x for p in prefixes for x in coords]
    header = ",".join([*AXIS_NAMES[:len(grid.axes)], "re", "im"])
    return _template(header, prefixes, f"{FLOAT_FMT},{FLOAT_FMT}" if is_complex else f"{FLOAT_FMT},0")


def write_profile_csv(path: Path, field: Field) -> None:
    # a complex field's float64 view interleaves (re, im): the template's column order
    _write_csv(path, _profile_template(field.grid, field.is_complex), field.values.ravel().view(np.float64))


def write_cross_sections(outdir: Path, field: Field) -> None:
    """X- and Z- cuts through the global modulus peak of a 2D profile."""
    vals = np.asarray(field.values)
    i, j = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
    gx, gz = field.grid.grid_x, field.grid.grid_z
    _write_csv(outdir / "profile_xcut.csv", _template("x,value", _prefixes(gx.nodes), FLOAT_FMT),
               np.real(vals[:, j]))
    _write_csv(outdir / "profile_zcut.csv", _template("z,value", _prefixes(gz.nodes), FLOAT_FMT),
               np.real(vals[i, :]))


def read_profile_csv(path: str | Path, problem, key: str = "seed.path") -> Field:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise ConfigError(f"{key}: profile file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"{key}: cannot read profile {path}: {exc}") from None
    grid = problem.grid
    names = AXIS_NAMES[:len(grid.axes)]
    try:
        header, data = rows[0], rows[1:]
        re_col, im_col, *coord_cols = (header.index(name) for name in ("re", "im", *names))
        values = np.array([float(r[re_col]) + 1j * float(r[im_col]) for r in data])
        coords = np.array([[float(r[c]) for c in coord_cols] for r in data]).reshape(-1, len(names))
    except (IndexError, ValueError):
        raise ConfigError(f"{key}: {path} is not a profile CSV with "
                          f"{', '.join(map(repr, names))}, 're' and 'im' columns") from None
    expected = int(np.prod(grid.shape))
    if values.size != expected:
        raise ConfigError(f"{key}: profile has {values.size} nodes, grid needs {expected}")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key}: {path} holds a non-finite 're' or 'im' value")
    # the writer's FLOAT_FMT round-trips the nodes exactly; allow for other writers' rounding
    mesh = np.meshgrid(*(axis.nodes for axis in grid.axes), indexing="ij")
    for name, column, nodes, axis in zip(names, coords.T, mesh, grid.axes):
        if not np.max(np.abs(column - nodes.ravel())) <= 1e-12 * axis.half_length:  # NaN too
            raise ConfigError(f"{key}: profile's {name} coordinates are not the nodes of the grid "
                              f"with half length {axis.half_length} and {axis.point_count} points")
    values = values.reshape(grid.shape)
    if not problem.is_complex:
        if np.max(np.abs(values.imag)) > 1e-12 * max(np.max(np.abs(values)), 1.0):
            raise ConfigError(f"{key}: complex profile supplied to a real-field problem, "
                              "whose state is the 're' column")
        values = values.real
    return Field(grid, values)


def _json_dump(path: Path, payload: dict) -> None:
    """The payload as strict JSON: a non-finite number, which it cannot hold, is written as null."""
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)  # NaN, Infinity, -Infinity
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def summary_payload(seed: dict | None, factor, result: SolveResult, itconfig: IterationConfig) -> dict:
    tr = result.trace
    problem = factor.problem
    axes = problem.grid.axes
    grid_meta = dict(zip(GRID_2D if len(axes) == 2 else GRID_1D,
                         [n for axis in axes for n in (axis.half_length, axis.point_count)]))
    return {
        "status": tr.status,
        "iterations": tr.iteration_count,
        "final_residual": tr.final_residual,
        "final_factor_discrepancy": tr.final_factor_discrepancy,
        "p": problem.degree,
        "gamma": factor.gamma,
        "q": factor.degree,
        "factor": factor.descriptor,
        "problem": {"family": problem.name, **problem.params},
        "grid": grid_meta,
        "iteration_config": asdict(itconfig),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# commands


# Runs holding at least this many node values in total, over two or more
# runs, are streamed to one forked writer process (`_WriterProcess`) as they
# are solved, so the writing overlaps the solves.  The `%.17g` formatting
# holds the GIL, so a writer thread gains nothing.  Below this size the fork
# costs more than it saves: medians of writing two lump stages on 2 cores,
# serially against with a child writing one of them, are 4.2 against 4.7 ms
# for 2 x 4,096 values, 9.4 against 7.5 ms for 2 x 8,100 and 15.6 against
# 10.7 ms for 2 x 16,384.
SPLIT_NODE_VALUES = 2**14
# runs the writer process holds at once: one being written and one waiting;
# the parent queues the rest
IN_FLIGHT = 2


def _write_run(outdir: Path, name: str, payload: dict, result: SolveResult) -> None:
    """The run directory `outdir / name`: trace, profile, a 2D profile's
    cross-sections and the summary `payload`."""
    sub = outdir / name
    sub.mkdir(parents=True, exist_ok=True)
    write_trace_csv(sub / "trace.csv", result)
    write_profile_csv(sub / "profile.csv", result.final)
    if len(result.final.grid.axes) == 2:
        write_cross_sections(sub, result.final)
    _json_dump(sub / "summary.json", payload)


class _WriterProcess:
    """A forked child that writes the runs sent to it through a pipe, in
    order, and acknowledges each with one byte on a second pipe.

    The parent sends a run as soon as it is solved while fewer than IN_FLIGHT
    are unacknowledged, and queues it otherwise; `finish` writes from the
    tail of the queue while the child keeps taking from its head."""

    def __init__(self, outdir: Path, run_bytes: int):
        """Raises OSError when the pipe cannot hold IN_FLIGHT runs of
        `run_bytes`, so that a send would wait on the child."""
        import fcntl  # POSIX only, like fork

        if not hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux only
            raise OSError("pipes cannot be resized on this platform")
        runs_in, self.runs = os.pipe()
        self.acks, acks_out = os.pipe()
        try:
            fcntl.fcntl(self.runs, fcntl.F_SETPIPE_SZ, IN_FLIGHT * run_bytes)
            sys.stderr.flush()  # so the child's flush on its way out repeats none of the parent's output
            with warnings.catch_warnings():
                # Python >= 3.12 warns that forking beside OpenBLAS's threads may deadlock
                # the child; this child makes no BLAS call, starts no thread and leaves by os._exit
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)",
                                        DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            for fd in (runs_in, self.runs, self.acks, acks_out):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self.runs)
            os.close(self.acks)
            self._serve(outdir, runs_in, acks_out)
        os.close(runs_in)
        os.close(acks_out)
        os.set_blocking(self.acks, False)
        self.outdir = outdir
        self.sent: list[str] = []
        self.written = 0
        self.queue: collections.deque = collections.deque()
        self.code: int | None = None

    @staticmethod
    def _serve(outdir: Path, runs_in: int, acks_out: int):
        """The child: write each run received until the pipe closes, then
        leave by os._exit, never returning into the caller: status 0 when
        every run is written, 1 when one fails (after printing its traceback
        to stderr) or the child is interrupted."""
        status = 1
        try:
            with open(runs_in, "rb") as runs:
                while True:
                    try:
                        run = pickle.load(runs)
                    except EOFError:
                        break
                    _write_run(outdir, *run)
                    os.write(acks_out, b"\0")
            status = 0
        except Exception:  # noqa: BLE001 - the parent reports the failure
            import traceback  # only a failing child needs it
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(status)

    def put(self, run: tuple) -> None:
        """Queue a run (name, summary payload, result) for the child."""
        self.queue.append(run)
        self._feed()

    def finish(self) -> None:
        """Write the queued runs, from the tail here and from the head in the child."""
        self._feed()
        while self.queue:
            _write_run(self.outdir, *self.queue.pop())
            self._feed()

    def _feed(self) -> None:
        """Count the child's acknowledgements, then send from the head of the
        queue while fewer than IN_FLIGHT runs are unacknowledged."""
        try:
            while acks := os.read(self.acks, IN_FLIGHT):
                self.written += len(acks)
            raise self.failure()  # end of file: the child left before its input ended
        except BlockingIOError:
            pass
        while self.queue and len(self.sent) - self.written < IN_FLIGHT:
            run = self.queue.popleft()
            data = memoryview(pickle.dumps(run, pickle.HIGHEST_PROTOCOL))
            self.sent.append(run[0])
            try:
                while data:
                    data = data[os.write(self.runs, data):]
            except BrokenPipeError:
                raise self.failure() from None

    def close(self) -> int:
        """End the child's input, wait for it and return its exit code."""
        if self.code is None:
            os.close(self.runs)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            while acks := os.read(self.acks, 4096):
                self.written += len(acks)
            os.close(self.acks)
        return self.code

    def failure(self) -> RuntimeError:
        """The error of a failed child, naming the run it was writing."""
        code, pending = self.close(), self.sent[self.written:]
        return RuntimeError(f"the writer process exited with code {code}"
                            + (f" writing {pending[0]}" if pending else ""))


def _streams(runs: int, sample: Field) -> bool:
    """Whether a forked writer process should take `runs` runs whose final
    states are shaped like `sample`: fork exists, this process may run on 2
    or more CPUs, and 2 or more runs hold SPLIT_NODE_VALUES node values or more."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and runs >= 2
            and runs * sample.values.size >= SPLIT_NODE_VALUES
            and len(os.sched_getaffinity(0)) >= 2)


@contextlib.contextmanager
def _write_runs(outdir: Path, itconfig: IterationConfig, runs: int = 1, sample: Field | None = None):
    """Yields `write(run)`, which writes a run (name, seed record, factor,
    result, index entry) into `outdir / name` (see `_write_run`) and returns
    its index entry with its directory and status added.  When `runs` runs
    shaped like `sample` are expected and `_streams` holds, a `_WriterProcess`
    writes them while the caller solves the next; either way every run
    directory is complete when the block ends without an error."""
    writer = None
    if _streams(runs, sample):
        try:
            writer = _WriterProcess(outdir, sample.values.nbytes + 2**16)  # 64 KiB: trace and summary
        except OSError:
            pass  # the runs are written here

    def write(run) -> dict:
        name, seed, factor, result, entry = run
        payload = summary_payload(seed, factor, result, itconfig)
        if writer is None:
            _write_run(outdir, name, payload, result)
        else:
            writer.put((name, payload, result))
        return {"directory": name, "status": result.status, **entry}

    if writer is None:
        yield write
        return
    try:
        yield write
        writer.finish()
    finally:
        code = writer.close()
    if code != 0:
        raise writer.failure()


def cmd_solve(cfg: dict, outdir: Path) -> int:
    problem = build_problem(cfg)
    factor = build_factor(cfg, problem)
    itconfig = build_iteration_config(cfg)
    result = solve(problem, factor, build_seed(cfg, problem), itconfig)
    with _write_runs(outdir, itconfig) as write:
        write(("", cfg.get("seed"), factor, result, {}))
    return 0


STATES = {state: (required, {"spectrum_k": int})
          for state, required in (("solve", {}), ("exact", {}), ("file", {"state_path": str}))}


def cmd_spectrum(cfg: dict, outdir: Path) -> int:
    problem = build_problem(cfg)
    factor = build_factor(cfg, problem)
    itconfig = build_iteration_config(cfg)
    seed = build_seed(cfg, problem) if "seed" in cfg else None
    state_kind, diag = _variant(cfg.get("diagnostics", {}), "diagnostics", "state", STATES, default="solve")
    k, limit = diag.get("spectrum_k", 6), problem.linearization_space().dim - 1
    if not 1 <= k < limit - 1:
        raise ConfigError(f"diagnostics.spectrum_k: Arnoldi on S runs spectrum_k + 1 pairs and needs "
                          f"spectrum_k + 1 < dimension - 1 = {limit}, so 1 <= spectrum_k < {limit - 1}; "
                          f"got {k!r}")

    if state_kind == "exact":
        if problem.exact_solution is None:
            raise ConfigError("diagnostics.state: problem has no exact solution oracle")
        state = problem.exact_solution()
    elif state_kind == "file":
        state = read_profile_csv(diag["state_path"], problem, "diagnostics.state_path")
    else:
        if seed is None:
            raise ConfigError("missing field seed")
        result = solve(problem, factor, seed, itconfig)
        with _write_runs(outdir, itconfig) as write:
            write(("", cfg.get("seed"), factor, result, {}))
        if result.status == COLLAPSED:
            raise RuntimeError(f"the {itconfig.engine} solve collapsed to the trivial state u = 0; "
                               "its spectra say nothing about a traveling wave")
        if not np.isfinite(result.trace.final_residual):  # N(u) overflowed, or u is not finite
            raise RuntimeError(f"the {itconfig.engine} solve diverged to a non-finite state (final "
                               f"residual {result.trace.final_residual}); it has no spectra")
        state = result.final

    # one Arnoldi run: F' comes from S's top k + 1 by the rank-one identity,
    # and one factor gradient at u* serves F' and the shift check
    spec_S = diagnostics.iteration_matrix_spectrum(problem, state, k, spare=1)
    grad = factor.gradient(state)
    spec_F = diagnostics.jacobian_spectrum(problem, factor, state, spec_S, k, grad=grad)
    shift_check = diagnostics.spectrum_shift_check(problem, factor, state, grad=grad)
    seed_vector = problem.linearization_space().to_vector(seed) if seed is not None else None
    _json_dump(outdir / "spectrum_S.json", spec_S.to_json_dict())
    _json_dump(outdir / "spectrum_F.json", spec_F.to_json_dict())
    _json_dump(outdir / "hypothesis_report.json", diagnostics.hypothesis_verdicts(
        spec_S, spec_F, shift_check, problem.degree, seed_vector))
    return 0


def cmd_continue(cfg: dict, outdir: Path) -> int:
    path = _dataclass(HomotopyPath, cfg.get("continuation"), "continuation")
    itconfig = build_iteration_config(cfg)
    base_problem = build_problem(cfg)
    if base_problem.name != "benjamin_lump":
        raise ConfigError("problem.family: only benjamin_lump supports Gamma continuation")

    def build_stage(gamma: float):
        stage_cfg = {**cfg, "problem": {**cfg["problem"], "Gamma": gamma}}
        return build_factor(stage_cfg, build_problem(stage_cfg))

    # a bad value or descriptor is a config error before any stage is solved;
    # only the stages bisection inserts are built later
    requested = {value: build_stage(value) for value in path.values}
    seed = build_seed(cfg, base_problem)
    index = []
    # each stage is written as soon as it is appended: its index is final then
    with _write_runs(outdir, itconfig, len(path.values), seed) as write:
        def stage_done(i: int, stage) -> None:
            basis, trace = stage.seeded_from, stage.result.trace
            record = ({"kind": "warm_start", "from_stage": basis[0]} if len(basis) == 1
                      else {"kind": "extrapolated", "from_stages": list(basis)} if basis else cfg.get("seed"))
            index.append(write((f"stage_{i:03d}_gamma_{stage.parameter_value:.6f}", record, stage.factor,
                                stage.result, {"Gamma": stage.parameter_value, "requested": stage.requested,
                                               "iterations": trace.iteration_count,
                                               "final_residual": trace.final_residual})))

        res = continue_solve(lambda gamma: requested[gamma] if gamma in requested else build_stage(gamma),
                             path, seed, itconfig, on_stage=stage_done)
    _json_dump(outdir / "continuation.json", {"completed": res.completed, "failed_at": res.failed_at,
                                              "stages": index})
    return 0


def cmd_orbital(cfg: dict, outdir: Path) -> int:
    problem = build_problem(cfg)
    if problem.name != "nls_soliton":
        raise ConfigError("problem.family: orbital experiments require nls_soliton")
    factor = build_factor(cfg, problem)
    itconfig = build_iteration_config(cfg)
    listed = _read(cfg.get("orbital"), "orbital", {"experiments": list[dict]})["experiments"]
    if not listed:
        raise ConfigError("orbital.experiments: expected at least one experiment")
    runs = {}
    for i, exp in enumerate(listed):
        run = {"eps1": 0.0, "eps2": 0.0, **_read(exp, f"orbital.experiments[{i}]", {}, AMPLITUDES)}
        name = f"run_eps1_{run['eps1']:g}_eps2_{run['eps2']:g}"
        if name in runs:
            raise ConfigError(f"orbital.experiments[{runs[name][0]}] and orbital.experiments[{i}] "
                              f"both write {name}: their eps values print alike under %g")
        runs[name] = i, run

    solved = [(name, {"kind": "exact_perturbed", **run}, factor,
               solve(problem, factor, _perturbed_exact(problem, **run), itconfig), run)
              for name, (_, run) in runs.items()]
    with _write_runs(outdir, itconfig, len(solved), solved[0][3].final) as write:
        index = [write(run) for run in solved]
    for name, _, _, result, run in solved:
        fit = diagnostics.orbit_match(result.final, problem.exact_solution)
        _json_dump(outdir / name / "orbitfit.json", {**fit.to_json_dict(), **run, "status": result.status})
    _json_dump(outdir / "orbital.json", {"experiments": index})
    return 0


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "solve": cmd_solve,
    "spectrum": cmd_spectrum,
    "continue": cmd_continue,
    "orbital": cmd_orbital,
}


@functools.lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="travwave",
        description="Stabilized fixed-point traveling-wave computations and spectral diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--config", help="path to a JSON run configuration")
        group.add_argument("--recipe", help="name of a bundled recipe configuration")
        p.add_argument("--out", help="output directory (overrides output.directory)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = _read(load_recipe(args.recipe) if args.recipe else load_config(args.config), "", {},
                    dict.fromkeys(BLOCKS, dict))
        outdir = output_dir(cfg, args.out)
        return COMMANDS[args.command](cfg, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
