"""Command-line front end.

Subcommands: solve | spectrum | continue | orbital.  Every run is driven by a
JSON config (from --config or a bundled --recipe) and writes CSV series plus
JSON reports into the output directory.  Identical configs produce
bit-identical outputs: there is no randomness anywhere in the pipeline.

Exit codes: 0 success (a reported divergence is a valid result), 2 config
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import diagnostics, factors, problems
from .continuation import HomotopyPath, continue_solve
from .iterate import COLLAPSED, IterationConfig, SolveResult, newton_solve, solve
from .spectral import Field, Grid1D, Grid2D, derivative

FLOAT_FMT = "%.17g"


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


def _require(block: dict, key: str, context: str):
    if key not in block:
        raise ConfigError(f"missing field {context}.{key}")
    return block[key]


def _object(value, path: str) -> dict:
    """A config block, which must be a JSON object; `path` names its key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {value!r}")
    return value


def build_grid(problem_block: dict):
    grid_block = _object(_require(problem_block, "grid", "problem"), "problem.grid")
    try:
        if "points_x" in grid_block:
            gx = Grid1D(float(_require(grid_block, "half_length_x", "problem.grid")),
                        int(_require(grid_block, "points_x", "problem.grid")))
            gz = Grid1D(float(_require(grid_block, "half_length_z", "problem.grid")),
                        int(_require(grid_block, "points_z", "problem.grid")))
            return Grid2D(gx, gz)
        return Grid1D(float(_require(grid_block, "half_length", "problem.grid")),
                      int(_require(grid_block, "points", "problem.grid")))
    except ValueError as exc:
        raise ConfigError(f"problem.grid: {exc}") from None


def build_potential(pot_block: dict, grid: Grid1D) -> np.ndarray:
    kind = _require(pot_block, "kind", "problem.potential")
    if kind == "sech2":
        return problems.sech2_potential(grid, amplitude=float(pot_block.get("amplitude", 1.0)),
                                        center=float(pot_block.get("center", 0.0)))
    if kind == "double_well":
        return problems.double_well_potential(grid, depth=float(pot_block.get("depth", 6.0)),
                                              separation=float(pot_block.get("separation", 1.0)))
    if kind == "zero":
        return np.zeros(grid.point_count)
    raise ConfigError(f"problem.potential.kind: unknown kind {kind!r}")


def build_problem(cfg: dict):
    block = _object(_require(cfg, "problem", "config"), "problem")
    family = _require(block, "family", "problem")
    grid = build_grid(block)
    try:
        if family == "nls_ground_state":
            if not isinstance(grid, Grid1D):
                raise ConfigError("problem.grid: nls_ground_state needs a 1D grid")
            V = build_potential(_object(_require(block, "potential", "problem"), "problem.potential"), grid)
            return problems.nls_ground_state(V, float(_require(block, "mu", "problem")), grid)
        if family == "nls_soliton":
            if not isinstance(grid, Grid1D):
                raise ConfigError("problem.grid: nls_soliton needs a 1D grid")
            params = problems.SolitonParameters(
                sigma=float(_require(block, "sigma", "problem")),
                lambda1=float(_require(block, "lambda1", "problem")),
                lambda2=float(_require(block, "lambda2", "problem")),
            )
            return problems.nls_soliton(params, grid)
        if family == "benjamin_lump":
            if not isinstance(grid, Grid2D):
                raise ConfigError("problem.grid: benjamin_lump needs a 2D grid")
            return problems.benjamin_lump(float(_require(block, "Gamma", "problem")),
                                          float(_require(block, "sound_speed", "problem")), grid)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"problem: {exc}") from None
    raise ConfigError(f"problem.family: unknown family {family!r}")


def _field_values(cls, block, path: str, extra: tuple[str, ...] = ()) -> dict:
    """The entries of the config block at `path`, each of which must name a
    field of the dataclass `cls` (returned) or one of `extra` (dropped)."""
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(_object(block, path)) - names - set(extra))
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}; allowed: {sorted(names.union(extra))}")
    return {key: value for key, value in block.items() if key in names}


def build_iteration_config(cfg: dict) -> IterationConfig:
    values = _field_values(IterationConfig, cfg.get("iteration", {}), "iteration", extra=("engine",))
    try:
        return IterationConfig(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"iteration: {exc}") from None


def build_factor(cfg: dict, problem):
    block = _object(_require(cfg, "factor", "config"), "factor")
    descriptor = _require(block, "descriptor", "factor")
    try:
        return factors.from_descriptor(descriptor, problem)
    except (factors.DescriptorError, factors.FactorPropertyError) as exc:
        raise ConfigError(f"factor.descriptor: {exc}") from None


def _seed_phase(seed_block: dict, problem) -> complex:
    phase = seed_block.get("phase")
    if phase is None:
        return problem.seed_phase if problem.is_complex else 1.0
    if phase == "real":
        return 1.0
    if phase == "imaginary":
        return 1.0j
    try:
        return complex(np.exp(1j * float(phase)))
    except (TypeError, ValueError):
        raise ConfigError(f"seed.phase: expected 'real', 'imaginary' or an angle, got {phase!r}") from None


def build_seed(cfg: dict, problem) -> Field:
    block = _object(_require(cfg, "seed", "config"), "seed")
    kind = _require(block, "kind", "seed")
    if kind == "gaussian":
        try:
            seed = problems.gaussian_seed(problem.grid,
                                          float(_require(block, "amplitude", "seed")),
                                          float(_require(block, "width", "seed")),
                                          antisymmetric=bool(block.get("antisymmetric", False)))
        except ValueError as exc:
            raise ConfigError(f"seed: {exc}") from None
        phase = _seed_phase(block, problem)
        if problem.is_complex:
            return seed.with_values(phase * seed.values.astype(complex))
        return seed
    if kind == "exact_perturbed":
        if problem.exact_solution is None:
            raise ConfigError("seed.kind: exact_perturbed requires a problem with an exact solution")
        eps1, eps2 = _perturbation(block, "seed")
        exact = problem.exact_solution()
        return exact + eps1 * exact.with_values(1j * exact.values) + eps2 * derivative(exact, 1)
    if kind == "file":
        path = _require(block, "path", "seed")
        return read_profile_csv(path, problem)
    raise ConfigError(f"seed.kind: unknown kind {kind!r}")


def _perturbation(block, path: str) -> tuple[float, float]:
    """(eps1, eps2) of an exact_perturbed seed: gauge and translation amplitudes."""
    eps = _object(block, path)
    try:
        return float(eps.get("eps1", 0.0)), float(eps.get("eps2", 0.0))
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: eps1 and eps2 must be numbers, got {block!r}") from None


def output_dir(cfg: dict, override: str | None) -> Path:
    if override:
        out = Path(override)
    else:
        out = Path(_require(_object(_require(cfg, "output", "config"), "output"), "directory", "output"))
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# writers / readers


def _write_csv(path: Path, header: str, prefixes: list[str], *columns) -> None:
    """A CSV whose lines are the given prefixes followed by one FLOAT_FMT field
    per column, formatted in one pass.  Lines end with \\r\\n, as csv.writer
    ends them."""
    fields = ",".join([FLOAT_FMT] * len(columns))
    template = "".join(f"{prefix}{fields}\r\n" for prefix in prefixes)
    with open(path, "w", newline="") as fh:
        fh.write(f"{header}\r\n" + template % tuple(np.column_stack(columns).ravel().tolist()))


def _prefixes(nodes: np.ndarray) -> list[str]:
    return [f"{FLOAT_FMT % x}," for x in nodes]


def write_trace_csv(path: Path, result: SolveResult) -> None:
    tr = result.trace
    _write_csv(path, "iter,residual,factor_discrepancy,norm", [f"{n}," for n in range(len(tr.residuals))],
               tr.residuals, tr.factor_discrepancies, tr.norms)


def write_profile_csv(path: Path, field: Field) -> None:
    grid = field.grid
    axes = (grid,) if field.values.ndim == 1 else (grid.grid_x, grid.grid_z)
    # node coordinates repeat along the other axis: format each one once
    prefixes = [""]
    for axis in axes:
        coords = _prefixes(axis.nodes)
        prefixes = [p + x for p in prefixes for x in coords]
    vals = np.asarray(field.values).ravel()
    _write_csv(path, "x,re,im" if len(axes) == 1 else "x,z,re,im", prefixes, vals.real, vals.imag)


def write_cross_sections(outdir: Path, field: Field) -> None:
    """X- and Z- cuts through the global modulus peak of a 2D profile."""
    vals = np.asarray(field.values)
    i, j = np.unravel_index(np.argmax(np.abs(vals)), vals.shape)
    gx, gz = field.grid.grid_x, field.grid.grid_z
    _write_csv(outdir / "profile_xcut.csv", "x,value", _prefixes(gx.nodes), np.real(vals[:, j]))
    _write_csv(outdir / "profile_zcut.csv", "z,value", _prefixes(gz.nodes), np.real(vals[i, :]))


def read_profile_csv(path: str | Path, problem) -> Field:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise ConfigError(f"seed.path: profile file not found: {path}") from None
    try:
        header, data = rows[0], rows[1:]
        re_col, im_col = header.index("re"), header.index("im")
        values = np.array([float(r[re_col]) + 1j * float(r[im_col]) for r in data])
    except (IndexError, ValueError):
        raise ConfigError(f"seed.path: {path} is not a profile CSV with 're' and 'im' columns") from None
    expected = int(np.prod(problem.grid.shape))
    if values.size != expected:
        raise ConfigError(f"seed.path: profile has {values.size} nodes, grid needs {expected}")
    values = values.reshape(problem.grid.shape)
    if not problem.is_complex:
        if np.max(np.abs(values.imag)) > 1e-12 * max(np.max(np.abs(values)), 1.0):
            raise ConfigError("seed.path: complex profile supplied to a real-field problem")
        values = values.real
    return Field(problem.grid, values)


def _json_dump(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_payload(cfg: dict, problem, factor, result: SolveResult, engine: str,
                    itconfig: IterationConfig) -> dict:
    tr = result.trace
    grid = problem.grid
    if isinstance(grid, Grid2D):
        grid_meta = {"half_length_x": grid.grid_x.half_length, "points_x": grid.grid_x.point_count,
                     "half_length_z": grid.grid_z.half_length, "points_z": grid.grid_z.point_count}
    else:
        grid_meta = {"half_length": grid.half_length, "points": grid.point_count}
    return {
        "status": tr.status,
        "iterations": tr.iteration_count,
        "final_residual": tr.final_residual,
        "final_factor_discrepancy": None if np.isnan(tr.final_factor_discrepancy)
        else tr.final_factor_discrepancy,
        "engine": engine,
        "p": problem.degree,
        "gamma": factor.gamma if factor is not None else None,
        "q": factor.degree if factor is not None else None,
        "factor": factor.descriptor if factor is not None else None,
        "problem": {"family": problem.name, **problem.params},
        "grid": grid_meta,
        # store_all only decides which iterates stay in memory
        "iteration_config": {k: v for k, v in asdict(itconfig).items() if k != "store_all"},
        "seed": cfg.get("seed"),
    }


# ---------------------------------------------------------------------------
# commands


def _engine(cfg: dict) -> str:
    engine = _object(cfg.get("iteration", {}), "iteration").get("engine", "stabilized")
    if engine not in ("stabilized", "newton"):
        raise ConfigError(f"iteration.engine: unknown engine {engine!r}")
    return engine


def _run_engine(cfg: dict, problem, factor, seed: Field, itconfig: IterationConfig):
    engine = _engine(cfg)
    if engine == "newton":
        return newton_solve(problem, seed, itconfig), engine
    return solve(problem, factor, seed, itconfig), engine


def _solve_outputs(outdir: Path, cfg: dict, problem, factor, result: SolveResult, engine: str,
                   itconfig: IterationConfig) -> None:
    write_trace_csv(outdir / "trace.csv", result)
    write_profile_csv(outdir / "profile.csv", result.final)
    if isinstance(problem.grid, Grid2D):
        write_cross_sections(outdir, result.final)
    _json_dump(outdir / "summary.json", summary_payload(cfg, problem, factor, result, engine, itconfig))


def cmd_solve(cfg: dict, outdir: Path) -> int:
    problem = build_problem(cfg)
    factor = build_factor(cfg, problem)
    itconfig = build_iteration_config(cfg)
    seed = build_seed(cfg, problem)
    result, engine = _run_engine(cfg, problem, factor, seed, itconfig)
    _solve_outputs(outdir, cfg, problem, factor, result, engine, itconfig)
    return 0


def _resolve_state(cfg: dict, problem, factor, itconfig,
                   seed: Field | None) -> tuple[Field, SolveResult | None, str]:
    diag = _object(cfg.get("diagnostics", {}), "diagnostics")
    state_kind = diag.get("state", "solve")
    if state_kind == "exact":
        if problem.exact_solution is None:
            raise ConfigError("diagnostics.state: problem has no exact solution oracle")
        return problem.exact_solution(), None, "exact"
    if state_kind == "file":
        path = diag.get("state_path")
        if not path:
            raise ConfigError("diagnostics.state_path: required when state is 'file'")
        if not Path(path).exists():
            raise FileNotFoundError(f"state file not found: {path}")
        return read_profile_csv(path, problem), None, "file"
    if state_kind == "solve":
        if seed is None:
            raise ConfigError("missing field config.seed")
        result, engine = _run_engine(cfg, problem, factor, seed, itconfig)
        return result.final, result, engine
    raise ConfigError(f"diagnostics.state: unknown state {state_kind!r}")


def cmd_spectrum(cfg: dict, outdir: Path) -> int:
    problem = build_problem(cfg)
    factor = build_factor(cfg, problem)
    itconfig = build_iteration_config(cfg)
    k = _object(cfg.get("diagnostics", {}), "diagnostics").get("spectrum_k", 6)
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ConfigError(f"diagnostics.spectrum_k: expected a positive integer, got {k!r}")

    seed = build_seed(cfg, problem) if "seed" in cfg else None
    state, result, engine = _resolve_state(cfg, problem, factor, itconfig, seed)
    if result is not None:
        _solve_outputs(outdir, cfg, problem, factor, result, engine, itconfig)
        if result.status == COLLAPSED:
            raise RuntimeError(f"the {engine} solve collapsed to the trivial state u = 0; "
                               "its spectra say nothing about a traveling wave")

    spec_S = diagnostics.iteration_matrix_spectrum(problem, state, k, seed=seed)
    spec_F = diagnostics.jacobian_spectrum(problem, factor, state, k)
    _json_dump(outdir / "spectrum_S.json", spec_S.to_json_dict())
    _json_dump(outdir / "spectrum_F.json", spec_F.to_json_dict())

    hypothesis = dict(spec_S.hypothesis or {})
    unverified = [name for name, spec in (("S", spec_S), ("F'", spec_F)) if not spec.verified]
    hypothesis["verdict"] = (
        f"eigenpairs of {' and '.join(unverified)} unverified; hypotheses not judged"
        if unverified
        else "hypotheses (i)-(ii) satisfied" if hypothesis.get("satisfied")
        else "hypothesis (ii) violated" if not hypothesis.get("ii_rest_within_unit_modulus", True)
        else "hypothesis (i) violated"
    )
    shift = diagnostics.spectrum_shift_check(spec_S, spec_F, problem.degree,
                                             factor.degree)
    hypothesis["spectrum_shift_check"] = shift.to_json_dict()
    _json_dump(outdir / "hypothesis_report.json", hypothesis)
    return 0


def cmd_continue(cfg: dict, outdir: Path) -> int:
    values = _field_values(HomotopyPath, _require(cfg, "continuation", "config"), "continuation")
    try:
        path = HomotopyPath(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"continuation: {exc}") from None
    engine = _engine(cfg)
    if engine != "stabilized":
        raise ConfigError(f"iteration.engine: continue runs the stabilized engine, got {engine!r}")
    problem_block = _object(_require(cfg, "problem", "config"), "problem")

    def family(gamma: float):
        return build_problem({**cfg, "problem": {**problem_block, "Gamma": gamma}})

    base_problem = family(path.values[0])
    if base_problem.name != "benjamin_lump":
        raise ConfigError("problem.family: only benjamin_lump supports Gamma continuation")
    for value in path.values[1:]:
        family(value)  # a value outside the family is a config error before any stage is solved
    itconfig = build_iteration_config(cfg)
    seed = build_seed(cfg, base_problem)

    res = continue_solve(family, path, seed, lambda problem: build_factor(cfg, problem), itconfig)
    stage_index = []
    for i, stage in enumerate(res.stages):
        sub = outdir / f"stage_{i:03d}_gamma_{stage.parameter_value:.6f}"
        sub.mkdir(parents=True, exist_ok=True)
        stage_cfg = dict(cfg)
        if i > 0:
            stage_cfg["seed"] = {"kind": "warm_start",
                                 "from_stage": res.stages[i - 1].parameter_value}
        _solve_outputs(sub, stage_cfg, stage.factor.problem, stage.factor, stage.result, engine,
                       itconfig)
        stage_index.append({
            "directory": sub.name,
            "Gamma": stage.parameter_value,
            "requested": stage.requested,
            "status": stage.result.status,
            "iterations": stage.result.trace.iteration_count,
            "final_residual": stage.result.trace.final_residual,
        })
    _json_dump(outdir / "continuation.json", {
        "completed": res.completed,
        "failed_at": res.failed_at,
        "stages": stage_index,
    })
    return 0


def cmd_orbital(cfg: dict, outdir: Path) -> int:
    problem = build_problem(cfg)
    if problem.name != "nls_soliton":
        raise ConfigError("problem.family: orbital experiments require nls_soliton")
    factor = build_factor(cfg, problem)
    itconfig = build_iteration_config(cfg)
    listed = _object(cfg.get("orbital", {}), "orbital").get("experiments") or []
    if not isinstance(listed, list):
        raise ConfigError(f"orbital.experiments: expected a list, got {listed!r}")

    params = problems.SolitonParameters(**problem.params)
    index = []
    for i, exp in enumerate(listed or [cfg.get("seed", {})]):
        eps1, eps2 = _perturbation(exp, f"orbital.experiments[{i}]" if listed else "seed")
        run_cfg = dict(cfg, seed={"kind": "exact_perturbed", "eps1": eps1, "eps2": eps2})
        seed = build_seed(run_cfg, problem)
        result, engine = _run_engine(run_cfg, problem, factor, seed, itconfig)
        sub = outdir / f"run_eps1_{eps1:g}_eps2_{eps2:g}"
        sub.mkdir(parents=True, exist_ok=True)
        _solve_outputs(sub, run_cfg, problem, factor, result, engine, itconfig)
        fit = diagnostics.orbit_match(result.final, params)
        payload = fit.to_json_dict()
        payload["eps1"], payload["eps2"] = eps1, eps2
        payload["status"] = result.status
        _json_dump(sub / "orbitfit.json", payload)
        index.append({"directory": sub.name, "eps1": eps1, "eps2": eps2,
                      "status": result.status})
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


def make_parser() -> argparse.ArgumentParser:
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
        cfg = _object(load_recipe(args.recipe) if args.recipe else load_config(args.config), "config")
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
