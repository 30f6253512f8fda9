"""Workload definitions: seeded inputs, the CLI calls of one pass, the
problem builds that set-up time covers, and the checks on every output.

Each workload is a list of (command, recipe) CLI calls.  The program sees
only the config files written by `write_inputs`; seed 0 writes the bundled
recipes unchanged.

This module imports nothing outside the standard library at import time, so
the set-up probe can load it before its clock starts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# Why each workload exists (also recorded in BENCHMARK.json):
# - lump_continuation: the Fourier operators, factor evaluations and the
#   stabilized loop dominate (744 iterations of a 128x128 lump), plus profile
#   CSV writing; never touches diagnostics or linops.
# - soliton_spectrum: dense eig plus the Schur cluster basis at dimension 1024;
#   zero stabilized iterations, so an iterate-only change must not move it.
# - ground_state_diagnostics: the same layers on a dense-LU operator: a Newton
#   Jacobian assembled every step and dimension-512 spectra without a Schur
#   cluster step, then two short soliton solves with orbit matching.
WORKLOADS: dict[str, tuple[tuple[str, str], ...]] = {
    "lump_continuation": (("continue", "fig2"),),
    "soliton_spectrum": (("spectrum", "table2"),),
    "ground_state_diagnostics": (("spectrum", "table1_col12"),
                                 ("spectrum", "table1_col34"),
                                 ("orbital", "fig67")),
}

SEED_SCALE = (0.9, 1.1)
# An antisymmetric seed narrower than about 0.95 of table1_col34's width sends
# its Newton solve to the trivial state u = 0 (reported as converged), on which
# the spectrum step exits with FactorDomainError.  Its width is only scaled up.
ANTISYMMETRIC_WIDTH_SCALE = (1.0, 1.1)
VERIFIED_RESIDUAL = 1e-8
TABLE2_S_EIGENVALUES = (3.0, 1.0, 1.0, 0.5, 1.0 / 3.0, 0.3)
EIGENVALUE_TOL = 1e-6
LUMP_RESIDUAL = 1e-10
GROUND_STATE_RESIDUAL = 1e-12
NONTRIVIAL_AMPLITUDE = 1e-3


@dataclass(frozen=True)
class Call:
    command: str
    recipe: str
    config: Path


def make_config(recipe: dict, seed: int, name: str) -> dict:
    """The recipe with its seed amplitude and width (or fig67's eps values)
    scaled by factors drawn from SEED_SCALE; seed 0 leaves it unchanged.

    The draws depend on the seed and the recipe name only, so adding a call
    to a workload never changes the inputs of the others.
    """
    cfg = json.loads(json.dumps(recipe))
    if seed == 0:
        return cfg
    rng = random.Random(f"{seed}/{name}")
    seed_block = cfg.get("seed", {})
    if seed_block.get("kind") == "gaussian":
        seed_block["amplitude"] *= rng.uniform(*SEED_SCALE)
        seed_block["width"] *= rng.uniform(*(
            ANTISYMMETRIC_WIDTH_SCALE if seed_block.get("antisymmetric") else SEED_SCALE))
    for experiment in cfg.get("orbital", {}).get("experiments", []):
        for key in ("eps1", "eps2"):
            experiment[key] *= rng.uniform(*SEED_SCALE)
    return cfg


def write_inputs(workload: str, recipes_dir: Path, seed: int, inputs_dir: Path) -> list[Call]:
    """Write one config file per CLI call of the workload and return the calls."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    calls = []
    for command, recipe in WORKLOADS[workload]:
        recipe_cfg = json.loads((recipes_dir / f"{recipe}.json").read_text())
        path = inputs_dir / f"{recipe}.json"
        path.write_text(json.dumps(make_config(recipe_cfg, seed, recipe),
                                   indent=2, sort_keys=True) + "\n")
        calls.append(Call(command, recipe, path))
    return calls


def build_all(cli, calls: list[Call]) -> None:
    """Build every problem, factor and seed the calls will use, through the
    CLI's own builders (the set-up a pass pays before iterating)."""
    from travwave import factors, problems

    for call in calls:
        cfg = cli.load_config(call.config)
        if call.command == "continue":
            grid = cli.build_grid(cfg["problem"])
            sound_speed = float(cfg["problem"]["sound_speed"])
            stages = [problems.benjamin_lump(float(value), sound_speed, grid)
                      for value in cfg["continuation"]["values"]]
            for problem in stages:
                factors.from_descriptor(cfg["factor"]["descriptor"], problem)
            cli.build_seed(cfg, stages[0])
            continue
        problem = cli.build_problem(cfg)
        cli.build_factor(cfg, problem)
        cli.build_iteration_config(cfg)
        if "seed" in cfg:
            cli.build_seed(cfg, problem)
        for experiment in cfg.get("orbital", {}).get("experiments", []):
            cli.build_seed({"seed": {"kind": "exact_perturbed", **experiment}}, problem)


# ---------------------------------------------------------------------------
# checks


@dataclass
class CallOutcome:
    """Checks of one CLI call: one operation per entry of `ops`."""

    ops: dict[str, bool]
    digest: str
    eigen_residuals: list[float]

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.ops.items() if not ok]


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file's relative path and bytes."""
    h = hashlib.sha256()
    if directory.is_dir():
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            h.update(path.relative_to(directory).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


def _load(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _converged(summary, tolerance: float) -> bool:
    return (summary is not None and summary.get("status") == "converged"
            and summary.get("final_residual") is not None
            and summary["final_residual"] <= tolerance)


def _nontrivial(profile: Path) -> bool:
    """True when the profile CSV (x, re, im) reaches NONTRIVIAL_AMPLITUDE."""
    try:
        with open(profile, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return max(math.hypot(float(re), float(im)) for _, re, im in rows) >= NONTRIVIAL_AMPLITUDE
    except (OSError, ValueError):
        return False


def _report_ok(report, extra=lambda eigs: True) -> bool:
    if report is None:
        return False
    eigs = [complex(re, im) for re, im in report.get("eigenvalues", [])]
    residuals = report.get("eigen_residuals", [])
    return (len(eigs) == report.get("k") == len(residuals)
            and all(math.isfinite(abs(z)) for z in eigs) and extra(eigs))


def _matches(eigs, expected, tol) -> bool:
    if len(eigs) != len(expected):
        return False
    return all(abs(z - e) <= tol for z, e in zip(sorted(eigs, key=lambda z: -z.real),
                                                   sorted(expected, reverse=True)))


def check_call(call: Call, out: Path, rc, reference_digest: str | None) -> CallOutcome:
    """Check one CLI call's outputs.

    The call itself is one operation: it fails on a non-zero exit, on outputs
    that differ from the first pass of the run, or on a failed check of the
    call as a whole.  Each continuation stage and each spectrum report is one
    more operation.
    """
    digest = tree_digest(out)
    call_ok = rc == 0 and (reference_digest is None or digest == reference_digest)
    cfg = json.loads(call.config.read_text())
    ops: dict[str, bool] = {}
    residuals: list[float] = []

    if call.command == "continue":
        index = _load(out / "continuation.json") or {}
        call_ok = call_ok and index.get("completed") is True
        requested = [s for s in index.get("stages", []) if s.get("requested")]
        for i, value in enumerate(cfg["continuation"]["values"]):
            stage = requested[i] if i < len(requested) else None
            ops[f"stage[{value}]"] = (stage is not None and stage.get("Gamma") == value
                                      and _converged(stage, LUMP_RESIDUAL))
    elif call.command == "spectrum":
        if cfg.get("diagnostics", {}).get("state", "solve") == "solve":
            call_ok = (call_ok and _converged(_load(out / "summary.json"), GROUND_STATE_RESIDUAL)
                       and _nontrivial(out / "profile.csv"))
        spec_S = _load(out / "spectrum_S.json")
        spec_F = _load(out / "spectrum_F.json")
        hypothesis = _load(out / "hypothesis_report.json") or {}
        exact_soliton = call.recipe == "table2"
        ops["spectrum_S"] = _report_ok(
            spec_S, lambda eigs: not exact_soliton
            or _matches(eigs, TABLE2_S_EIGENVALUES, EIGENVALUE_TOL))
        ops["spectrum_F"] = _report_ok(spec_F) and (
            not exact_soliton or hypothesis.get("spectrum_shift_check", {}).get("ok") is True)
        for report in (spec_S, spec_F):
            if report is not None:
                residuals.extend(report.get("eigen_residuals", []))
    elif call.command == "orbital":
        index = _load(out / "orbital.json") or {}
        runs = index.get("experiments", [])
        call_ok = call_ok and len(runs) == len(cfg["orbital"]["experiments"]) and all(
            r.get("status") == "converged" for r in runs)

    return CallOutcome({"cli": call_ok, **ops}, digest, residuals)


def verified_share(residuals: list[float]) -> float:
    """Share of reported eigenpairs with eigen-residual <= VERIFIED_RESIDUAL.

    A workload that reports no eigenpairs has none unverified: its share is 1.
    """
    if not residuals:
        return 1.0
    return sum(r <= VERIFIED_RESIDUAL for r in residuals) / len(residuals)
