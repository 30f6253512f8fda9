"""travwave benchmark: time to a solution through the CLI, end to end and
layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run writes the workload's config files (seed 0: the bundled recipes
unchanged), then runs closed-loop passes with one client: each pass calls
`travwave.cli.main` for every call of the workload, into a fresh output
directory, and starts when the previous pass ends, until S seconds have gone.
Every output is checked; each CLI call, continuation stage, spectrum report
and set-up build is one operation, failed when it exits non-zero, fails a
check, or writes bytes that differ from the run's first pass.

--trace 0 reports the end-to-end metrics: median pass time, set-up time
(median of fresh-interpreter probes), peak RSS of this process through its
first pass and the verified-eigenpair share.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over passes) and the tracing
overhead.  BLAS threads are left at their default; the settings are printed
with the result.  The last stdout line is the JSON result; run files go to
.perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(calls: list[workloads.Call]) -> float | None:
    """Seconds to import travwave.cli and build the workload in a fresh
    interpreter, or None when the probe fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           *(f"{call.command}={call.config}" for call in calls)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return float(done.stdout.split()[-1])


class Run:
    """Passes of one workload, with the operation tally and reference digests."""

    def __init__(self, cli, calls: list[workloads.Call], run_dir: Path):
        self.cli = cli
        self.calls = calls
        self.run_dir = run_dir
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.eigen_residuals: list[float] = []
        self.walls: list[float] = []
        self.first_pass_rss_kib: int | None = None

    def record(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def one_pass(self, index: int) -> int:
        """Run every call once; returns the bytes the pass wrote."""
        pass_dir = self.run_dir / f"pass_{index:03d}"
        codes = []
        start = time.perf_counter()
        for call in self.calls:
            argv = [call.command, "--config", str(call.config), "--out", str(pass_dir / call.recipe)]
            try:
                codes.append(self.cli.main(argv))
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                codes.append(f"{type(exc).__name__}: {exc}")
        self.walls.append(time.perf_counter() - start)
        if self.first_pass_rss_kib is None:
            # a fresh process through one pass, as a user's CLI run; later
            # passes only add allocator fragmentation
            self.first_pass_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        for call, code in zip(self.calls, codes):
            out = pass_dir / call.recipe
            outcome = workloads.check_call(call, out, code, self.reference.get(call.recipe))
            self.reference.setdefault(call.recipe, outcome.digest)
            for op, ok in outcome.ops.items():
                self.record(f"pass {index} {call.recipe} {op}", ok)
            self.eigen_residuals.extend(outcome.eigen_residuals)
        written = sum(p.stat().st_size for p in pass_dir.rglob("*") if p.is_file())
        shutil.rmtree(pass_dir)
        return written


def end_to_end(run: Run, seconds: float) -> dict:
    probes = [probe_setup(run.calls) for _ in range(SETUP_PROBES)]
    for i, probe in enumerate(probes):
        run.record(f"set-up probe {i}", probe is not None)
    setups = [p for p in probes if p is not None]
    if not setups:
        raise RuntimeError("every set-up probe failed")

    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        run.one_pass(index)
        index += 1
    return {
        "wall_s": (statistics.median(run.walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run.first_pass_rss_kib / 1024.0, "MiB"),
        "verified_eigenpair_share": (workloads.verified_share(run.eigen_residuals), "share"),
    }


def per_layer(run: Run, seconds: float) -> tuple[dict, tracing.Tracer]:
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - start < seconds:
        if index % 2 == 0:
            run.one_pass(index)
            untraced.append(run.walls[-1])
        else:
            tracer.pass_id = index
            offset = len(tracer.spans)
            with tracer.installed():
                written = run.one_pass(index)
            traced.append(run.walls[-1])
            metrics = tracing.layer_metrics(tracer.spans[offset:], offset)
            metrics["cli.write.bytes"] = written
            layers.append(metrics)
        index += 1
    medians = tracing.median_metrics(layers)
    result = {name: (medians[name], unit) for name, unit in tracing.LAYER_METRICS}
    result["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return result, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "travwave" / "cli.py").is_file():
        print(f"travwave sources not found under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    calls = workloads.write_inputs(args.workload, SRC / "travwave" / "recipes", args.seed,
                                   run_dir / "inputs")

    sys.path.insert(0, str(SRC))
    import travwave.cli

    run = Run(travwave.cli, calls, run_dir)
    if args.trace:
        metrics, tracer = per_layer(run, args.seconds)
        tracer.write_csv(run_dir / "spans.csv")
    else:
        metrics = end_to_end(run, args.seconds)

    env = envinfo.collect(ROOT)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (run_dir / "environment.json").write_text(json.dumps(env, indent=2, sort_keys=True) + "\n")
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "wall_s_samples": run.walls, "failures": run.failures}, indent=2) + "\n")

    print("environment " + json.dumps(env, sort_keys=True))
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"{args.workload} seed={args.seed} passes={len(run.walls)} "
          f"failed_share={run.failed / run.attempted:.6g} ({run.failed}/{run.attempted} operations)")
    for name, (value, unit) in metrics.items():
        note = f"  (median of {len(run.walls)} passes)" if name == "wall_s" else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
