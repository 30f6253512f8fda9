import csv
import json
import math
import os
import select
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import travwave as tw
import travwave.cli
import travwave.diagnostics
from travwave.cli import (
    FLOAT_FMT,
    ConfigError,
    _profile_template,
    build_factor,
    build_iteration_config,
    build_problem,
    build_seed,
    load_recipe,
    main,
    make_parser,
    read_profile_csv,
    summary_payload,
    write_cross_sections,
    write_profile_csv,
    write_trace_csv,
)
from travwave.spectral import Field, Grid1D, Grid2D

RECIPES = ["table1_col12", "table1_col34", "table2", "fig2", "fig67"]
SPECTRUM_KEYS = {"eigenvalues", "moduli", "eigen_residuals", "near_unit_modulus", "dimension", "k",
                 "converged", "verified"}


def soliton_config(outdir, **overrides):
    cfg = {
        "problem": {
            "family": "nls_soliton",
            "grid": {"half_length": 30.0, "points": 128},
            "sigma": 1.0, "lambda1": 1.0, "lambda2": 1.0,
        },
        "factor": {"descriptor": "petviashvili:optimal"},
        "iteration": {"max_iterations": 100, "residual_tolerance": 1e-11},
        "seed": {"kind": "exact_perturbed", "eps1": 0.2, "eps2": 0.0},
        "output": {"directory": str(outdir)},
    }
    cfg.update(overrides)
    return cfg


def lump_config(outdir, points=64):
    l = 16 * math.pi
    return {
        "problem": {
            "family": "benjamin_lump",
            "grid": {"half_length_x": l, "points_x": points,
                     "half_length_z": l, "points_z": points},
            "Gamma": 0.0, "sound_speed": 1.0,
        },
        "factor": {"descriptor": "petviashvili:optimal"},
        "iteration": {"max_iterations": 500, "residual_tolerance": 1e-10},
        "seed": {"kind": "gaussian", "amplitude": 2.0, "width": 2.0},
        "continuation": {"values": [0.0, 0.1], "max_bisections": 2},
        "output": {"directory": str(outdir)},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def tree_bytes(root):
    """Every file under `root`, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSolve:
    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path, soliton_config(out))
        assert main(["solve", "--config", cfg_path]) == 0
        for name in ("trace.csv", "profile.csv", "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["final_residual"] <= 1e-11
        assert summary["p"] == 3.0
        assert summary["gamma"] == pytest.approx(1.5)
        assert summary["q"] == pytest.approx(-3.0)
        assert summary["factor"] == "petviashvili:1.5"
        assert summary["grid"] == {"half_length": 30.0, "points": 128}
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "residual", "factor_discrepancy", "norm"]
        assert len(rows) == summary["iterations"] + 2

    def test_divergence_is_exit_zero(self, tmp_path):
        out = tmp_path / "div"
        cfg = soliton_config(out)
        cfg["factor"] = {"descriptor": "petviashvili:1.8"}  # p+q = 0.6 but seed...
        cfg["seed"] = {"kind": "gaussian", "amplitude": 1e-4, "width": 1.0}
        cfg["iteration"] = {"max_iterations": 30, "residual_tolerance": 1e-13,
                            "divergence_guard": 1e6}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", cfg_path]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] in ("diverged", "max_iterations", "converged")

    def test_malformed_descriptor_exits_2(self, tmp_path, capsys):
        cfg = soliton_config(tmp_path / "x", factor={"descriptor": "wibble:1"})
        cfg_path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", cfg_path]) == 2
        assert "descriptor" in capsys.readouterr().err

    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = soliton_config(tmp_path / "x")
        del cfg["problem"]["sigma"]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", cfg_path]) == 2
        assert "sigma" in capsys.readouterr().err

    def test_unknown_config_file_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_out_flag_overrides_directory(self, tmp_path):
        out = tmp_path / "elsewhere"
        cfg_path = write_config(tmp_path, soliton_config(tmp_path / "ignored"))
        assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_deterministic_outputs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_path = write_config(tmp_path, soliton_config(tmp_path / "ignored"))
        assert main(["solve", "--config", cfg_path, "--out", str(out_a)]) == 0
        assert main(["solve", "--config", cfg_path, "--out", str(out_b)]) == 0
        for name in ("trace.csv", "profile.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_profile_seed_round_trip(self, tmp_path):
        out1 = tmp_path / "first"
        cfg_path = write_config(tmp_path, soliton_config(out1))
        assert main(["solve", "--config", cfg_path]) == 0
        cfg2 = soliton_config(tmp_path / "second",
                              seed={"kind": "file", "path": str(out1 / "profile.csv")})
        cfg2_path = write_config(tmp_path, cfg2, name="config2.json")
        assert main(["solve", "--config", cfg2_path]) == 0
        summary = json.loads((tmp_path / "second" / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["iterations"] <= 2  # seeded with a solution

    @pytest.mark.parametrize("eps", [{"eps1": "abc"}, {"eps2": None}])
    def test_non_numeric_perturbation_exits_2(self, tmp_path, capsys, eps):
        cfg = soliton_config(tmp_path / "x", seed={"kind": "exact_perturbed", **eps})
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        key, value = next(iter(eps.items()))
        assert f"seed.{key}: expected a number, got {value!r}" in capsys.readouterr().err

    def test_exact_perturbed_seed_needs_an_exact_solution(self, tmp_path, capsys):
        cfg = load_recipe("table1_col12")
        cfg["seed"] = {"kind": "exact_perturbed", "eps1": 0.1}
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")]) == 2
        assert "seed.kind: exact_perturbed requires a problem with an exact solution" in capsys.readouterr().err

    def test_exactly_singular_operator_exits_2_without_a_warning(self, tmp_path, capsys):
        """mu = 0 on the zero potential and a 2-point grid gives L = D^2 an
        exact zero pivot: a config error, and no LinAlgWarning."""
        cfg = load_recipe("table1_col12")
        cfg["problem"].update(potential={"kind": "zero"}, mu=0.0)
        cfg["problem"]["grid"]["points"] = 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem: ") and err.count("\n") == 1
        assert "numerically singular" in err

    def test_newton_engine_exits_2(self, tmp_path, capsys):
        out = tmp_path / "newton"
        cfg = soliton_config(out)
        cfg["iteration"]["engine"] = "newton"
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "iteration.engine" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_overflowing_operator_exits_2_without_a_warning(self, tmp_path, capsys):
        """V - mu beyond the float range is a config error that says so, not a
        RuntimeWarning or a singular operator."""
        cfg = load_recipe("table1_col12")
        cfg["problem"].update(potential={"kind": "sech2", "amplitude": 1e308}, mu=-1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: problem: ") and "overflows" in err

    def test_anderson_engine(self, tmp_path):
        out = tmp_path / "anderson"
        cfg = soliton_config(out)
        cfg["iteration"]["engine"] = "anderson"
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["iteration_config"]["engine"], summary["status"]) == ("anderson", "converged")

    @pytest.mark.parametrize("family", ["petviashvili", "inner:f=square", "inner:f=cube",
                                        "norm:1", "norm:2", "norm:inf"])
    def test_every_factor_family_converges_on_table2(self, tmp_path, family):
        cfg = load_recipe("table2")
        cfg["factor"] = {"descriptor": f"{family}:optimal"}
        cfg["seed"] = {"kind": "gaussian", "amplitude": 1.0, "width": 2.0}
        cfg["iteration"]["max_iterations"] = 200
        out = tmp_path / "run"
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"
        assert summary["final_residual"] <= 1e-12
        assert summary["factor"] == f"{family}:1.5"


class TestSpectrum:
    def test_exact_state_spectrum(self, tmp_path):
        out = tmp_path / "spec"
        cfg = soliton_config(out)
        cfg["problem"]["grid"] = {"half_length": 50.0, "points": 256}
        cfg["diagnostics"] = {"spectrum_k": 6, "state": "exact"}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfg_path]) == 0
        spec = json.loads((out / "spectrum_S.json").read_text())
        assert spec["moduli"][0] == pytest.approx(3.0, abs=5e-3)
        hyp = json.loads((out / "hypothesis_report.json").read_text())
        assert hyp["verdict"] == "hypotheses (i)-(ii) satisfied"
        assert hyp["spectrum_shift_check"]["ok"]
        assert (out / "spectrum_F.json").exists()

    def test_missing_state_file_exits_2(self, tmp_path, capsys):
        cfg = soliton_config(tmp_path / "x")
        cfg["diagnostics"] = {"state": "file", "state_path": str(tmp_path / "absent.csv")}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfg_path]) == 2
        assert "config error: diagnostics.state_path: profile file not found" in capsys.readouterr().err

    def test_table2_spectra_byte_identical_across_runs(self, tmp_path):
        for run in ("a", "b"):
            assert main(["spectrum", "--recipe", "table2", "--out", str(tmp_path / run)]) == 0
        for name in ("spectrum_S.json", "spectrum_F.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        spec = json.loads((tmp_path / "a" / "spectrum_S.json").read_text())
        assert set(spec) == SPECTRUM_KEYS
        assert spec["verified"] is True

    def test_perturbed_eigenvectors_are_reported_unverified(self, tmp_path, monkeypatch):
        arnoldi = travwave.diagnostics._krylov_schur

        def perturbed(*args, **kwargs):
            vals, vecs, converged = arnoldi(*args, **kwargs)
            return vals, vecs + 1e-3 * np.random.default_rng(1).standard_normal(vecs.shape), converged

        monkeypatch.setattr(travwave.diagnostics, "_krylov_schur", perturbed)
        out = tmp_path / "spec"
        assert main(["spectrum", "--recipe", "table2", "--out", str(out)]) == 0
        for name in ("spectrum_S.json", "spectrum_F.json"):
            spec = json.loads((out / name).read_text())
            assert spec["verified"] is False
            assert max(spec["eigen_residuals"]) > 1e-8
        hyp = json.loads((out / "hypothesis_report.json").read_text())
        assert hyp["eigenpairs_verified"] is False
        assert hyp["satisfied"] is False
        assert "unverified" in hyp["verdict"]
        assert "satisfied" not in hyp["verdict"]

    @staticmethod
    def stop_arnoldi_with(monkeypatch, pairs):
        """Arnoldi stops at its restart cap, with the first `pairs` of the pairs it finds."""
        arnoldi = travwave.diagnostics._krylov_schur

        def unconverged(*args, **kwargs):
            vals, vecs, _ = arnoldi(*args, **kwargs)
            return vals[:pairs], vecs[:, :pairs], False

        monkeypatch.setattr(travwave.diagnostics, "_krylov_schur", unconverged)

    def test_partly_converged_arnoldi_is_reported_unverified(self, tmp_path, monkeypatch):
        self.stop_arnoldi_with(monkeypatch, 3)  # of the 7 that spectrum_k = 6 asks for
        out = tmp_path / "spec"
        assert main(["spectrum", "--recipe", "table2", "--out", str(out)]) == 0
        for name in ("spectrum_S.json", "spectrum_F.json"):
            spec = json.loads((out / name).read_text())
            assert spec["converged"] is False and spec["verified"] is False
        hyp = json.loads((out / "hypothesis_report.json").read_text())
        assert hyp["verdict"] == "eigenpairs of S and F' unverified; hypotheses not judged"

    def test_arnoldi_without_a_converged_pair_exits_3(self, tmp_path, monkeypatch, capsys):
        self.stop_arnoldi_with(monkeypatch, 0)
        out = tmp_path / "spec"
        assert main(["spectrum", "--recipe", "table2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "runtime failure: RuntimeError: Arnoldi did not converge: none of the 7 eigenpairs" in err
        assert not (out / "spectrum_S.json").exists()

    @pytest.mark.parametrize("r", ["1", "2", "inf"])
    def test_norm_factor_spectra_verified_on_table2(self, tmp_path, r):
        """The norm factors' gradients are analytic, so F' passes the residual
        gate at the kinks of the 1- and sup-norms too."""
        cfg = load_recipe("table2")
        cfg["factor"]["descriptor"] = f"norm:{r}:optimal"
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        spec = json.loads((out / "spectrum_F.json").read_text())
        assert spec["verified"] is True
        assert max(spec["eigen_residuals"]) <= 1e-12
        hyp = json.loads((out / "hypothesis_report.json").read_text())
        assert hyp["verdict"] == "hypotheses (i)-(ii) satisfied"
        assert hyp["spectrum_shift_check"]["ok"]

    @pytest.mark.parametrize("state", ["exact", "file"])
    def test_malformed_seed_exits_2(self, tmp_path, capsys, state):
        cfg = soliton_config(tmp_path / "spec", seed={"kind": "bogus"})
        state_path = tmp_path / "state.csv"
        write_profile_csv(state_path, build_problem(cfg).exact_solution())
        cfg["diagnostics"] = {"spectrum_k": 4, "state": state, "state_path": str(state_path)}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 2
        assert "seed.kind" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, -1, "abc", 2.5])
    def test_bad_spectrum_k_exits_2(self, tmp_path, capsys, k):
        cfg = load_recipe("table2")
        cfg["diagnostics"]["spectrum_k"] = k
        cfg_path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "spec")]) == 2
        assert "spectrum_k" in capsys.readouterr().err

    def test_spectrum_k_at_arnoldi_limit_exits_2_before_the_solve(self, tmp_path, capsys):
        cfg = load_recipe("table1_col12")
        cfg["problem"]["grid"]["points"] = 64  # dimension 64: Arnoldi needs k < 63
        cfg["diagnostics"]["spectrum_k"] = 63
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "diagnostics.spectrum_k" in err and "dimension - 1 = 63" in err
        assert not (out / "summary.json").exists()

    def test_spectrum_k_leaving_no_spare_pair_exits_2(self, tmp_path, capsys):
        """S runs spectrum_k + 1 pairs for the F' report, so dimension - 2 is
        one too many, though Arnoldi alone would accept it."""
        cfg = load_recipe("table1_col12")
        cfg["problem"]["grid"]["points"] = 64
        cfg["diagnostics"]["spectrum_k"] = 62
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "1 <= spectrum_k < 62; got 62" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("descriptor", ["petviashvili:1.25", "inner:f=square:1.25",
                                            "norm:1:1.25", "norm:2:1.25", "norm:inf:1.25"])
    def test_resonant_factor_on_table2(self, tmp_path, descriptor):
        """p + q = 0.5 meets S's eigenvalue 0.5.  F' keeps that eigenvector
        only for the Petviashvili factor; for the others F' has a Jordan block
        there, which the report must flag instead of printing a number."""
        cfg = load_recipe("table2")
        cfg["factor"]["descriptor"] = descriptor
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
        spec = json.loads((out / "spectrum_F.json").read_text())
        hyp = json.loads((out / "hypothesis_report.json").read_text())
        assert sum(abs(complex(*z) - 0.5) <= 1e-9 for z in spec["eigenvalues"]) == 2
        assert json.loads((out / "spectrum_S.json").read_text())["verified"] is True
        assert hyp["spectrum_shift_check"]["ok"]
        if descriptor.startswith("petviashvili"):
            assert spec["verified"] is True
            assert hyp["eigenpairs_verified"] is True
            assert hyp["satisfied"] is True
            assert hyp["verdict"] == "hypotheses (i)-(ii) satisfied"
        else:
            assert spec["verified"] is False
            assert max(spec["eigen_residuals"]) > 1e-2
            assert hyp["eigenpairs_verified"] is False  # F' fails the gate, S passes it
            assert hyp["satisfied"] is False
            assert hyp["verdict"] == "eigenpairs of F' unverified; hypotheses not judged"

    def test_diverged_solve_is_not_judged(self, tmp_path):
        """A diverged state says nothing about a traveling wave: its spectra
        pass the residual gate, but F' u* = (p+q) u* fails, and the verdict
        says so instead of judging (ii); divergence still exits 0."""
        out = tmp_path / "div"
        cfg = soliton_config(out)
        cfg["factor"] = {"descriptor": "petviashvili:1.8"}
        cfg["seed"] = {"kind": "gaussian", "amplitude": 1e-4, "width": 1.0}
        cfg["iteration"] = {"max_iterations": 30, "residual_tolerance": 1e-13,
                            "divergence_guard": 1e6}
        cfg["diagnostics"] = {"state": "solve"}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 0
        assert json.loads((out / "summary.json").read_text())["status"] == "diverged"
        hyp = json.loads((out / "hypothesis_report.json").read_text())
        assert hyp["spectrum_shift_check"]["ok"] is False
        assert hyp["verdict"] == "spectrum shift check failed; hypotheses not judged"
        assert hyp["satisfied"] is False

    def test_non_finite_diverged_state_has_no_spectra(self, tmp_path):
        """N(u) of a 1e200 seed overflows: the run is written as diverged, and
        the spectrum step exits 3 naming the non-finite state, before ARPACK
        sees it and with no warning, under -W error."""
        cfg = load_recipe("table1_col12")
        cfg["seed"]["amplitude"] = 1e200
        out = tmp_path / "spec"
        src = str(Path(tw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "travwave.cli", "spectrum", "--config",
                               write_config(tmp_path, cfg), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == ("runtime failure: RuntimeError: the stabilized solve diverged to a non-finite "
                               "state (final residual inf); it has no spectra\n")
        assert json.loads((out / "summary.json").read_text())["status"] == "diverged"
        assert sorted(path.name for path in out.iterdir()) == ["profile.csv", "summary.json", "trace.csv"]

    def test_even_inner_factor_at_the_odd_state_exits_3(self, tmp_path, capsys):
        """<N(u*), u*^2> cancels to rounding at the antisymmetric state: the
        factor is 0/0 there, and the spectrum says so instead of a number."""
        cfg = load_recipe("table1_col34")
        cfg["factor"]["descriptor"] = "inner:f=square:optimal"
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "DegenerateDenominatorError" in err and "is degenerate for f = square" in err
        assert not (out / "spectrum_F.json").exists()

    def test_unknown_iteration_key_exits_2(self, tmp_path, capsys):
        cfg = load_recipe("table2")
        cfg["iteration"]["max_iteration"] = 3
        cfg_path = write_config(tmp_path, cfg)
        assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "spec")]) == 2
        err = capsys.readouterr().err
        assert "iteration" in err and "'max_iteration'" in err


class TestContinue:
    def test_two_stage_lump_run(self, tmp_path):
        out = tmp_path / "cont"
        cfg_path = write_config(tmp_path, lump_config(out))
        assert main(["continue", "--config", cfg_path]) == 0
        index = json.loads((out / "continuation.json").read_text())
        assert index["completed"]
        assert len(index["stages"]) == 2
        stage_dir = out / index["stages"][0]["directory"]
        for name in ("trace.csv", "profile.csv", "summary.json",
                     "profile_xcut.csv", "profile_zcut.csv"):
            assert (stage_dir / name).exists()

    def test_stage_summaries_record_their_seeds(self, tmp_path):
        out = tmp_path / "cont"
        cfg = lump_config(out)
        cfg["continuation"]["values"] = [0.0, 0.1, 0.2, 0.3]
        assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 0
        index = json.loads((out / "continuation.json").read_text())
        seeds = [json.loads((out / s["directory"] / "summary.json").read_text())["seed"]
                 for s in index["stages"]]
        assert seeds == [cfg["seed"], {"kind": "warm_start", "from_stage": 0.0},
                         {"kind": "extrapolated", "from_stages": [0.0, 0.1]},
                         {"kind": "extrapolated", "from_stages": [0.0, 0.1, 0.2]}]

    def test_wrong_family_exits_2(self, tmp_path, capsys):
        cfg = soliton_config(tmp_path / "x")
        cfg["continuation"] = {"values": [0.0, 0.1]}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["continue", "--config", cfg_path]) == 2
        assert "problem.family" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [{"values": [0.0, "abc"]}, {"max_bisections": None},
                                         {"max_bisections": 2.5}, {"max_bisection": 2}])
    def test_bad_continuation_block_exits_2(self, tmp_path, capsys, setting):
        cfg = lump_config(tmp_path / "cont")
        cfg["continuation"].update(setting)
        cfg_path = write_config(tmp_path, cfg)
        assert main(["continue", "--config", cfg_path]) == 2
        assert "continuation" in capsys.readouterr().err

    @pytest.mark.parametrize("block,setting", [("problem", {"sound_speed": "abc"}),
                                               ("problem", {"sound_speed": -1}),
                                               ("continuation", {"values": [0.1, -0.1]})])
    def test_bad_problem_value_exits_2_before_any_stage(self, tmp_path, capsys, block, setting):
        out = tmp_path / "cont"
        cfg = lump_config(out, points=32)
        cfg[block].update(setting)
        assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 2
        assert "problem" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("engine", ["newton", "nwton"])
    def test_engine_other_than_stabilized_or_anderson_exits_2(self, tmp_path, capsys, engine):
        cfg = lump_config(tmp_path / "cont", points=32)
        cfg["iteration"]["engine"] = engine
        assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 2
        assert "iteration.engine" in capsys.readouterr().err

    def test_anderson_engine_names_itself_in_every_stage(self, tmp_path):
        out = tmp_path / "cont"
        cfg = lump_config(out, points=32)
        cfg["iteration"]["engine"] = "anderson"
        assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 0
        index = json.loads((out / "continuation.json").read_text())
        assert index["completed"] and len(index["stages"]) == 2
        for entry in index["stages"]:
            summary = json.loads((out / entry["directory"] / "summary.json").read_text())
            assert (summary["iteration_config"]["engine"], summary["status"]) == ("anderson", "converged")

    def test_each_requested_stage_is_built_once(self, tmp_path, monkeypatch):
        builds = []
        original = tw.problems.benjamin_lump

        def counting(*args, **kwargs):
            builds.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tw.problems, "benjamin_lump", counting)
        assert main(["continue", "--recipe", "fig2", "--out", str(tmp_path / "fig2")]) == 0
        # the configured problem (family check and seed), then each of the 12 stages
        assert len(builds) == 1 + len(load_recipe("fig2")["continuation"]["values"]) == 13

    @pytest.mark.parametrize("descriptor", ["inner:f=quartic:optimal", "petviashvili:4"])
    def test_bad_descriptor_exits_2_before_any_stage(self, tmp_path, capsys, descriptor):
        out = tmp_path / "cont"
        cfg = lump_config(out, points=32)
        cfg["factor"]["descriptor"] = descriptor
        assert main(["continue", "--config", write_config(tmp_path, cfg)]) == 2
        assert "factor.descriptor" in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestOrbital:
    def test_experiments_written(self, tmp_path):
        out = tmp_path / "orb"
        cfg = soliton_config(out)
        cfg["problem"]["grid"] = {"half_length": 50.0, "points": 256}
        experiments = [{"eps1": 0.2, "eps2": 0.0}, {"eps1": 0.0, "eps2": 0.1}]
        cfg["orbital"] = {"experiments": experiments}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["orbital", "--config", cfg_path]) == 0
        index = json.loads((out / "orbital.json").read_text())
        run_dir = out / index["experiments"][0]["directory"]
        fit = json.loads((run_dir / "orbitfit.json").read_text())
        assert fit["slope"] == pytest.approx(0.5, abs=2e-3)
        assert fit["intercept_mod_2pi"] == pytest.approx(0.2, abs=2e-2)
        assert fit["x0"] == pytest.approx(0.0, abs=1e-6)
        seeds = [json.loads((out / run["directory"] / "summary.json").read_text())["seed"]
                 for run in index["experiments"]]
        assert seeds == [{"kind": "exact_perturbed", **experiment} for experiment in experiments]

    @pytest.mark.parametrize("blocks,message", [
        ({"seed": {"kind": "gaussian"}}, "missing field orbital"),
        ({}, "missing field orbital"),
        ({"orbital": {"experiments": []}}, "orbital.experiments: expected at least one experiment"),
    ], ids=["gaussian_seed_block", "no_seed_block", "empty_list"])
    def test_runs_come_from_experiments_only(self, tmp_path, capsys, blocks, message):
        cfg = load_recipe("fig67")
        del cfg["orbital"]
        cfg.update(blocks)
        out = tmp_path / "orb"
        assert main(["orbital", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(out.glob("run_*"))

    def test_wrong_family_exits_2(self, tmp_path):
        cfg = soliton_config(tmp_path / "x")
        cfg["problem"] = {"family": "nls_ground_state",
                          "grid": {"half_length": 30.0, "points": 128},
                          "potential": {"kind": "sech2"}, "mu": 1.3}
        cfg_path = write_config(tmp_path, cfg)
        assert main(["orbital", "--config", cfg_path]) == 2

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_max_iterations_exits_2(self, tmp_path, capsys, value):
        cfg = load_recipe("fig67")
        cfg["iteration"]["max_iterations"] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main(["orbital", "--config", cfg_path, "--out", str(tmp_path / "orb")]) == 2
        assert "max_iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", [{"eps1": "abc", "eps2": 0.0}, {"eps1": 0.2, "eps2": None}])
    def test_non_numeric_perturbation_exits_2(self, tmp_path, capsys, experiment):
        cfg = load_recipe("fig67")
        cfg["orbital"]["experiments"] = [experiment]
        cfg_path = write_config(tmp_path, cfg)
        assert main(["orbital", "--config", cfg_path, "--out", str(tmp_path / "orb")]) == 2
        key, value = next((k, v) for k, v in experiment.items() if not isinstance(v, float))
        assert f"orbital.experiments[0].{key}: expected a number, got {value!r}" in capsys.readouterr().err

    def test_bad_later_experiment_exits_2_before_any_run(self, tmp_path, capsys):
        cfg = load_recipe("fig67")
        cfg["orbital"]["experiments"][1]["eps2"] = "abc"
        out = tmp_path / "orb"
        assert main(["orbital", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert "orbital.experiments[1].eps2" in capsys.readouterr().err
        assert not list(out.glob("run_*"))

    def test_experiments_sharing_a_directory_exit_2_before_any_run(self, tmp_path, capsys):
        cfg = load_recipe("fig67")
        cfg["orbital"]["experiments"].append({"eps1": 0.2000001, "eps2": 0.0})  # "%g" prints 0.2
        out = tmp_path / "orb"
        assert main(["orbital", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "orbital.experiments[0] and orbital.experiments[2]" in err
        assert "run_eps1_0.2_eps2_0" in err
        assert not list(out.glob("run_*"))

    def test_unknown_engine_exits_2(self, tmp_path, capsys):
        cfg = load_recipe("fig67")
        cfg["iteration"]["engine"] = "nwton"
        cfg_path = write_config(tmp_path, cfg)
        assert main(["orbital", "--config", cfg_path, "--out", str(tmp_path / "orb")]) == 2
        assert "iteration.engine" in capsys.readouterr().err


class TestRunIndexes:
    """Each index entry names a run directory, and that run's summary agrees with it."""

    @staticmethod
    def summaries(out, entries):
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(e["directory"] for e in entries)
        pairs = [(e, json.loads((out / e["directory"] / "summary.json").read_text())) for e in entries]
        for entry, summary in pairs:
            assert summary["status"] == entry["status"]
        return pairs

    def test_continuation_index_matches_stage_summaries(self, tmp_path):
        out = tmp_path / "cont"
        assert main(["continue", "--config", write_config(tmp_path, lump_config(out, points=32))]) == 0
        pairs = self.summaries(out, json.loads((out / "continuation.json").read_text())["stages"])
        assert [entry["Gamma"] for entry, _ in pairs] == [0.0, 0.1]
        for entry, summary in pairs:
            assert summary["iterations"] == entry["iterations"]
            assert summary["final_residual"] == entry["final_residual"]
            assert summary["problem"]["Gamma"] == entry["Gamma"]

    def test_orbital_index_matches_run_summaries(self, tmp_path):
        out = tmp_path / "orb"
        assert main(["orbital", "--recipe", "fig67", "--out", str(out)]) == 0
        pairs = self.summaries(out, json.loads((out / "orbital.json").read_text())["experiments"])
        assert len(pairs) == len(load_recipe("fig67")["orbital"]["experiments"])
        for entry, summary in pairs:
            assert summary["seed"] == {"kind": "exact_perturbed", "eps1": entry["eps1"], "eps2": entry["eps2"]}


class TestRecipes:
    @pytest.mark.parametrize("name", RECIPES)
    def test_recipes_parse_and_build(self, name):
        cfg = load_recipe(name)
        problem = build_problem(cfg)
        build_factor(cfg, problem)
        build_iteration_config(cfg)

    @pytest.mark.parametrize("command,recipe,block,value,path", [
        ("orbital", "fig67", "orbital", {"experiments": [0.2]}, "orbital.experiments[0]"),
        ("spectrum", "table2", "iteration", [1], "iteration"),
        ("spectrum", "table2", "diagnostics", "exact", "diagnostics"),
    ])
    def test_block_that_is_not_an_object_exits_2(self, tmp_path, capsys, command, recipe, block,
                                                   value, path):
        cfg = load_recipe(recipe)
        cfg[block] = value
        cfg_path = write_config(tmp_path, cfg)
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "run")]) == 2
        assert f"config error: {path}: expected an object" in capsys.readouterr().err

    @pytest.mark.parametrize("command,recipe,keys,value,message", [
        ("spectrum", "table2", ["problem", "sigmaa"], 1.0, "problem: unknown keys ['sigmaa']"),
        ("spectrum", "table2", ["problem", "grid", "pointz"], 512,
         "problem.grid: unknown keys ['pointz']"),
        ("spectrum", "table2", ["seed", "eps3"], 0.1, "seed: unknown keys ['eps3']"),
        ("spectrum", "table2", ["diagnostics", "spectrum_kk"], 4,
         "diagnostics: unknown keys ['spectrum_kk']"),
        ("spectrum", "table2", ["factor", "gama"], 1.5, "factor: unknown keys ['gama']"),
        ("spectrum", "table2", ["iteraton"], {"max_iterations": 5}, "config: unknown keys ['iteraton']"),
        ("spectrum", "table2", ["seed", "phase"], "imaginary", "seed: unknown keys ['phase']"),
        ("spectrum", "table2", ["problem", "grid", "points"], 64.5,
         "problem.grid.points: expected an integer, got 64.5"),
        ("spectrum", "table1_col12", ["seed", "antisymmetric"], "false",
         "seed.antisymmetric: expected true or false, got 'false'"),
        ("spectrum", "table1_col12", ["iteration", "residual_tolerance"], True,
         "iteration.residual_tolerance: expected a number, got True"),
        ("solve", "table1_col12", ["iteration", "store_all"], "no",
         "iteration: unknown keys ['store_all']"),
        ("continue", "fig2", ["continuation", "values", 0], False,
         "continuation.values[0]: expected a number, got False"),
        ("orbital", "fig67", ["output", "directry"], "out", "output: unknown keys ['directry']"),
        # seed.phase is retired: the ground state is a real family with problem.sign
        ("solve", "fig2", ["seed", "phase"], "imaginary", "seed: unknown keys ['phase']"),
        ("solve", "fig2", ["seed", "phase"], 1.3, "seed: unknown keys ['phase']"),
        ("spectrum", "table1_col34", ["seed", "phase"], "real", "seed: unknown keys ['phase']"),
        ("spectrum", "table1_col12", ["problem", "sign"], 0, "problem: sign must be -1 or 1, got 0"),
        ("spectrum", "table1_col12", ["problem", "sign"], 2, "problem: sign must be -1 or 1, got 2"),
        ("spectrum", "table1_col34", ["problem", "sign"], 1.0,
         "problem.sign: expected an integer, got 1.0"),
        ("spectrum", "table1_col34", ["problem", "sign"], "real",
         "problem.sign: expected an integer, got 'real'"),
        ("spectrum", "table1_col34", ["problem", "sign"], True,
         "problem.sign: expected an integer, got True"),
        ("spectrum", "table2", ["problem", "sign"], -1, "problem: unknown keys ['sign']"),
        # the loop stops on residual_tolerance alone; the stop-rule keys are retired
        *(("solve", "table2", ["iteration", key], value,
           f"iteration: unknown keys [{key!r}]; allowed: "
           "['divergence_guard', 'engine', 'max_iterations', 'residual_tolerance']")
          for key, value in (("stop_rule", "residual"), ("factor_tolerance", 1e-13))),
    ])
    def test_ignored_or_mistyped_key_exits_2(self, tmp_path, capsys, command, recipe, keys, value,
                                             message):
        cfg = load_recipe(recipe)
        block = cfg
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        out = tmp_path / "run"
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not list(out.glob("*"))

    def test_unknown_recipe_exits_2(self, tmp_path):
        assert main(["solve", "--recipe", "not_a_recipe", "--out", str(tmp_path)]) == 2

    def test_table1_col12_recipe_runs(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["spectrum", "--recipe", "table1_col12", "--out", str(out)]) == 0
        spec = json.loads((out / "spectrum_S.json").read_text())
        assert spec["moduli"][0] == pytest.approx(2.9999, abs=1e-3)
        assert spec["moduli"][1] == pytest.approx(0.70640, abs=5e-3)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "converged"


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("path", ["iteration.residual_tolerance", "iteration.divergence_guard",
                                      "problem.grid.half_length", "seed.width"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, path, literal):
        """Python's json reads NaN and Infinity, and 1e400 as inf: each is a
        config error that names its key, raised before anything is solved."""
        cfg = load_recipe("table2")
        cfg["seed"] = {"kind": "gaussian", "amplitude": 1.0, "width": 2.0}
        *blocks, key = path.split(".")
        block = cfg
        for name in blocks:
            block = block[name]
        block[key] = "VALUE"
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg).replace('"VALUE"', literal))
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {path}: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace.csv").exists()


class TestStreamedWriter:
    """A continuation over enough node values streams its stages, as each is
    appended, to one forked writer process; the bytes are those of the
    one-process loop."""

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The calls of os.fork, on two CPUs whatever the host has, with
        every continuation streamed."""
        calls, fork = [], os.fork

        def counting():
            calls.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(travwave.cli, "SPLIT_NODE_VALUES", 0)
        return calls

    @staticmethod
    def bisected_config(out):
        """Four stages: the jump from Gamma 0 to 30 and its first half both
        leave the divergence guard (residuals up to 4.0e3 and 8.4e2), so
        bisection inserts Gamma 7.5 and 15 (residuals up to 178 and 15)."""
        cfg = lump_config(out, points=32)
        cfg["continuation"]["values"] = [0.0, 30.0]
        cfg["iteration"]["divergence_guard"] = 300.0
        return cfg

    STAGES = ["stage_000_gamma_0.000000", "stage_001_gamma_7.500000", "stage_002_gamma_15.000000",
              "stage_003_gamma_30.000000"]

    def test_two_and_one_cpu_trees_are_byte_identical(self, tmp_path, monkeypatch, forks):
        trees, fork_counts = {}, []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
            out = tmp_path / f"cpus_{len(cpus)}"
            assert main(["continue", "--config", write_config(tmp_path, self.bisected_config(out))]) == 0
            self.assert_no_child_left()
            fork_counts.append(len(forks))
            trees[len(cpus)] = tree_bytes(out)
        assert fork_counts == [1, 1]  # one fork on two CPUs, none on one
        stages = json.loads(trees[2][Path("continuation.json")])["stages"]
        assert [(s["directory"], s["requested"]) for s in stages] == list(zip(self.STAGES, [True, False, False, True]))
        assert len(trees[2]) == 4 * 5 + 1
        assert trees[2] == trees[1]

    @pytest.mark.parametrize("blocked", [3, 0], ids=["parent_run", "child_run"])
    def test_blocked_stage_directory_exits_3_and_names_it(self, tmp_path, monkeypatch, capfd, forks, blocked):
        out = tmp_path / "cont"
        out.mkdir()
        (out / self.STAGES[blocked]).write_text("not a directory")
        if blocked == 3:
            # the child takes no stage until the parent has tried one, so the
            # parent writes the last stage from the tail of its queue
            parent, (tried, told) = os.getpid(), os.pipe()
            write_run = travwave.cli._write_run

            def ordered(*args):
                if os.getpid() != parent:
                    select.select([tried], [], [], 30.0)
                    return write_run(*args)
                try:
                    return write_run(*args)
                finally:
                    os.write(told, b"\0")

            monkeypatch.setattr(travwave.cli, "_write_run", ordered)
        code = main(["continue", "--config", write_config(tmp_path, self.bisected_config(out))])
        self.assert_no_child_left()
        assert code == 3
        assert len(forks) == 1
        err = capfd.readouterr().err
        assert self.STAGES[blocked] in err and "FileExistsError" in err
        if blocked == 3:
            os.close(tried)
            os.close(told)
            # the child wrote the two stages it held
            assert all((out / name / "summary.json").is_file() for name in self.STAGES[:2])
        assert not (out / "continuation.json").exists()

    def test_failed_later_solve_exits_3_and_leaves_no_child(self, tmp_path, monkeypatch, capfd, forks):
        solve, calls = travwave.continuation.solve, []

        def failing_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ArithmeticError("stage solve failed")
            return solve(*args, **kwargs)

        monkeypatch.setattr(travwave.continuation, "solve", failing_second)
        out = tmp_path / "cont"
        assert main(["continue", "--config", write_config(tmp_path, lump_config(out, points=32))]) == 3
        self.assert_no_child_left()
        assert len(forks) == 1
        assert "stage solve failed" in capfd.readouterr().err
        # the writer finished the stage it was sent
        assert (out / "stage_000_gamma_0.000000" / "summary.json").is_file()
        assert not (out / "continuation.json").exists()

    def test_unresizable_pipe_writes_every_stage_here(self, tmp_path, monkeypatch, forks):
        """Where F_SETPIPE_SZ is refused (an unprivileged process may not grow
        a pipe past /proc/sys/fs/pipe-max-size), the command forks nothing,
        closes both pipes and writes the streamed tree itself."""
        import fcntl

        streamed = tmp_path / "streamed"
        assert main(["continue", "--config", write_config(tmp_path, self.bisected_config(streamed))]) == 0
        self.assert_no_child_left()
        assert len(forks) == 1

        def refused(fd, cmd, arg=0):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(fcntl, "fcntl", refused)
        fds = sorted(os.listdir("/proc/self/fd"))
        out = tmp_path / "here"
        assert main(["continue", "--config", write_config(tmp_path, self.bisected_config(out))]) == 0
        assert len(forks) == 1
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert tree_bytes(out) == tree_bytes(streamed)

    @pytest.mark.parametrize("command, recipe", [("solve", "fig2"), ("spectrum", "table2"), ("orbital", "fig67")])
    def test_single_and_small_runs_never_fork(self, tmp_path, monkeypatch, command, recipe):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert main([command, "--recipe", recipe, "--out", str(tmp_path / "out")]) == 0


class TestSummary:
    @staticmethod
    def legacy_iteration_config(cfg):
        """The block as written from the raw config with hard-coded defaults."""
        block = cfg.get("iteration", {})
        return {
            "max_iterations": block.get("max_iterations", 500),
            "residual_tolerance": block.get("residual_tolerance", 1e-12),
            "divergence_guard": block.get("divergence_guard", 1e8),
            "engine": block.get("engine", "stabilized"),
        }

    @pytest.mark.parametrize("name", RECIPES)
    def test_summary_bytes_unchanged_for_recipes(self, name):
        cfg = load_recipe(name)
        problem = build_problem(cfg)
        factor = build_factor(cfg, problem)
        seed = tw.gaussian_seed(problem.grid, 1.0, 2.0)
        result = tw.solve(problem, factor, problem.project_pinned(seed),
                          tw.IterationConfig(max_iterations=1))
        payload = summary_payload(cfg.get("seed"), factor, result, build_iteration_config(cfg))
        legacy = dict(payload, iteration_config=self.legacy_iteration_config(cfg))
        assert (json.dumps(payload, indent=2, sort_keys=True)
                == json.dumps(legacy, indent=2, sort_keys=True))

    @pytest.mark.parametrize("case", ["table1_col12", "table1_col34", "nls_soliton", "benjamin_lump"])
    def test_summary_reruns_the_case_byte_identically(self, tmp_path, case):
        cfg = {"nls_soliton": lambda: soliton_config(tmp_path / "unused"),
               "benjamin_lump": lambda: lump_config(tmp_path / "unused", points=32)}.get(
            case, lambda: load_recipe(case))()
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(first)]) == 0
        summary = json.loads((first / "summary.json").read_text())
        rerun = {"problem": {**summary["problem"], "grid": summary["grid"]},
                 "factor": {"descriptor": summary["factor"]},
                 "iteration": summary["iteration_config"],
                 "seed": summary["seed"]}
        assert main(["solve", "--config", write_config(tmp_path, rerun, "rerun.json"), "--out", str(again)]) == 0
        assert tree_bytes(first) == tree_bytes(again)

    def test_parsed_config_is_written(self, tmp_path):
        out = tmp_path / "run"
        cfg = soliton_config(out)
        cfg["iteration"] = {"max_iterations": 40, "residual_tolerance": 1e-11}
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["iteration_config"] == {
            "max_iterations": 40, "residual_tolerance": 1e-11, "divergence_guard": 1e8, "engine": "stabilized"}


class TestWriters:
    """The writers format one string; csv.writer row loops are the reference."""

    @staticmethod
    def reference_profile(path, field):
        vals = np.asarray(field.values)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            if vals.ndim == 1:
                w.writerow(["x", "re", "im"])
                for xj, vj in zip(field.grid.nodes, vals):
                    w.writerow([FLOAT_FMT % xj, FLOAT_FMT % vj.real, FLOAT_FMT % vj.imag])
            else:
                w.writerow(["x", "z", "re", "im"])
                X, Z = field.grid.mesh
                for xj, zj, vj in zip(X.ravel(), Z.ravel(), vals.ravel()):
                    w.writerow([FLOAT_FMT % xj, FLOAT_FMT % zj,
                                FLOAT_FMT % vj.real, FLOAT_FMT % vj.imag])

    @staticmethod
    def reference_rows(path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    def test_profile_matches_csv_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        g1 = Grid1D(7.3, 16)
        complex_1d = Field(g1, rng.normal(size=16) * 1e-7 + 1j * rng.normal(size=16))
        complex_1d.values[3] = -0.0 + 0.0j
        g2 = Grid2D(Grid1D(3.0, 8), Grid1D(np.pi, 6))
        real_2d = Field(g2, rng.normal(size=(8, 6)) * 10.0 ** rng.integers(-20, 20, size=(8, 6)))
        for field in (complex_1d, real_2d):
            write_profile_csv(tmp_path / "new.csv", field)
            self.reference_profile(tmp_path / "ref.csv", field)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_fields_sharing_a_grid_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(7)
        g2 = Grid2D(Grid1D(3.0, 8), Grid1D(np.pi, 6))
        fields = [Field(g2, rng.normal(size=(8, 6))), Field(g2, rng.normal(size=(8, 6))),
                  Field(g2, rng.normal(size=(8, 6)) + 1j * rng.normal(size=(8, 6))),
                  Field(g2, np.zeros((8, 6), dtype=complex))]
        for i, field in enumerate(fields):
            write_profile_csv(tmp_path / f"new{i}.csv", field)
        for i, field in enumerate(fields):
            self.reference_profile(tmp_path / "ref.csv", field)
            assert (tmp_path / f"new{i}.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_profile_template_cache_is_bounded(self):
        maxsize = _profile_template.cache_info().maxsize
        assert maxsize is not None and 1 <= maxsize <= 8

    def test_trace_and_cross_sections_match_csv_writer(self, tmp_path):
        res = np.array([1.0, 0.25, np.inf])
        disc = np.array([np.nan, 1 / 3, np.nan])
        norms = np.array([2.0, 1e300, np.inf])
        grid = Grid2D(Grid1D(3.0, 8), Grid1D(np.pi, 6))
        field = Field(grid, np.random.default_rng(6).normal(size=(8, 6)))
        trace = tw.IterationTrace(res, disc, norms, "diverged")
        write_trace_csv(tmp_path / "trace.csv", tw.SolveResult(field, trace))
        self.reference_rows(tmp_path / "ref_trace.csv", ["iter", "residual", "factor_discrepancy", "norm"],
                            [[n, FLOAT_FMT % res[n], FLOAT_FMT % disc[n], FLOAT_FMT % norms[n]]
                             for n in range(3)])
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref_trace.csv").read_bytes()

        write_cross_sections(tmp_path, field)
        i, j = np.unravel_index(np.argmax(np.abs(field.values)), field.values.shape)
        cuts = {"profile_xcut.csv": (["x", "value"], grid.grid_x.nodes, field.values[:, j]),
                "profile_zcut.csv": (["z", "value"], grid.grid_z.nodes, field.values[i, :])}
        for name, (header, nodes, values) in cuts.items():
            self.reference_rows(tmp_path / "ref.csv", header,
                                [[FLOAT_FMT % a, FLOAT_FMT % b] for a, b in zip(nodes, values)])
            assert (tmp_path / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestBadProfiles:
    @pytest.mark.parametrize("content", ["", "x,real,imag\r\n0,1,0\r\n"])
    def test_seed_profile_without_re_im_columns_exits_2(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        cfg = soliton_config(tmp_path / "x", seed={"kind": "file", "path": str(bad)})
        assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
        assert "'re' and 'im'" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ["", "x,value\r\n0,1\r\n"])
    def test_state_profile_without_re_im_columns_exits_2(self, tmp_path, content):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        cfg = soliton_config(tmp_path / "x")
        cfg["diagnostics"] = {"state": "file", "state_path": str(bad)}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 2


    def test_state_profile_error_names_state_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,value\r\n0,1\r\n")
        cfg = soliton_config(tmp_path / "x")
        cfg["diagnostics"] = {"state": "file", "state_path": str(bad)}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: diagnostics.state_path: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [("solve", "seed.path"), ("spectrum", "diagnostics.state_path")])
    def test_profile_from_another_grid_exits_2(self, tmp_path, capsys, command, key):
        """A table2 profile written at half_length 50 has the 512 nodes of a
        half_length 30 grid too, but not their coordinates."""
        cfg = load_recipe("table2")
        profile = tmp_path / "profile.csv"
        write_profile_csv(profile, build_problem(cfg).exact_solution())
        cfg["problem"]["grid"]["half_length"] = 30.0
        if command == "solve":
            cfg["seed"] = {"kind": "file", "path": str(profile)}
        else:
            cfg["diagnostics"] = {"state": "file", "state_path": str(profile)}
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key}: profile's x coordinates are not the nodes" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command, key", [("solve", "seed.path"), ("spectrum", "diagnostics.state_path")])
    def test_non_finite_profile_value_exits_2(self, tmp_path, capsys, command, key, value):
        """One non-finite 're' value is a config error naming the key and the
        path, not a seed check or an Arnoldi failure at run time."""
        cfg = load_recipe("table1_col12")
        profile = tmp_path / "profile.csv"
        write_profile_csv(profile, build_seed(cfg, build_problem(cfg)))
        lines = profile.read_text().splitlines()
        x, _, im = lines[256].split(",")
        lines[256] = f"{x},{value},{im}"
        profile.write_text("\r\n".join(lines) + "\r\n")
        if command == "solve":
            cfg["seed"] = {"kind": "file", "path": str(profile)}
        else:
            cfg["diagnostics"] = {"state": "file", "state_path": str(profile)}
        assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {key}: {profile} holds a non-finite 're' or 'im' value" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*"))

    def test_lump_profile_coordinates_checked_on_both_axes(self, tmp_path):
        cfg = lump_config(tmp_path / "x", points=8)
        field = tw.gaussian_seed(build_problem(cfg).grid, 2.0, 2.0)
        profile = tmp_path / "profile.csv"
        write_profile_csv(profile, field)
        assert np.array_equal(read_profile_csv(profile, build_problem(cfg)).values, field.values)
        cfg["problem"]["grid"]["half_length_z"] *= 2
        with pytest.raises(ConfigError, match="seed.path: profile's z coordinates are not the nodes"):
            read_profile_csv(profile, build_problem(cfg))

    def test_profile_without_coordinate_column_exits_2(self, tmp_path, capsys):
        cfg = load_recipe("table2")
        own = tmp_path / "profile.csv"
        write_profile_csv(own, build_problem(cfg).exact_solution())
        bare = tmp_path / "bare.csv"
        bare.write_text("".join(line.split(",", 1)[1] + "\r\n" for line in own.read_text().splitlines()))
        cfg["seed"] = {"kind": "file", "path": str(bare)}
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 2
        assert "is not a profile CSV with 'x', 're' and 'im' columns" in capsys.readouterr().err

    def test_ground_state_profile_layout(self, tmp_path, capsys):
        """The real ground state keeps its state in 're'.  A profile with the
        state in 'im' (re all 0), as the complex form wrote it, is a config
        error; the run's own profile reproduces its spectrum byte for byte."""
        cfg = load_recipe("table1_col12")
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "run")]) == 0
        own = tmp_path / "run" / "profile.csv"
        rows = list(csv.reader(own.read_text().splitlines()))
        assert rows[0] == ["x", "re", "im"] and all(row[2] == "0" for row in rows[1:])
        old = tmp_path / "old_layout.csv"
        old.write_text("x,re,im\r\n" + "".join(f"{x},0,{re}\r\n" for x, re, _ in rows[1:]))

        seeded = {**cfg, "seed": {"kind": "file", "path": str(old)}}
        assert main(["solve", "--config", write_config(tmp_path, seeded), "--out", str(tmp_path / "s")]) == 2
        assert "config error: seed.path: " in capsys.readouterr().err

        cfg["diagnostics"] = {"state": "file", "state_path": str(old)}
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "old")]) == 2
        assert "config error: diagnostics.state_path: " in capsys.readouterr().err

        cfg["diagnostics"]["state_path"] = str(own)
        assert main(["spectrum", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "own")]) == 0
        assert ((tmp_path / "own" / "spectrum_S.json").read_bytes()
                == (tmp_path / "run" / "spectrum_S.json").read_bytes())


class TestUnreadablePaths:
    """A path that names a directory or a file that is not UTF-8 is a config
    error (exit 2) naming the key and the path, not a runtime failure."""

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    @pytest.mark.parametrize("key", ["--config", "seed.path", "diagnostics.state_path"])
    def test_unreadable_path_exits_2(self, tmp_path, capsys, kind, key):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"x,re,im\r\n\xff\xfe,1,0\r\n")
        cfg = soliton_config(tmp_path / "out")
        if key == "seed.path":
            cfg["seed"] = {"kind": "file", "path": str(bad)}
        elif key == "diagnostics.state_path":
            cfg["diagnostics"] = {"state": "file", "state_path": str(bad)}
        config = str(bad) if key == "--config" else write_config(tmp_path, cfg)
        command = "solve" if key == "seed.path" else "spectrum"
        assert main([command, "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: cannot read" in err and str(bad) in err
        assert not list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under_a_file"])
    @pytest.mark.parametrize("key", ["--out", "output.directory"])
    def test_output_path_at_or_under_a_file_exits_2(self, tmp_path, capsys, key, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker / "out" if below else blocker
        cfg = soliton_config(out if key == "output.directory" else tmp_path / "unused")
        flags = ["--out", str(out)] if key == "--out" else []
        assert main(["solve", "--config", write_config(tmp_path, cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: cannot create directory {out}" in err
        assert blocker.read_text() == "not a directory"


class TestOverflow:
    @pytest.mark.parametrize("recipe, seed", [
        ("table1_col12", {"kind": "gaussian", "amplitude": 1e200, "width": 2.0}),
        ("fig67", {"kind": "gaussian", "amplitude": 1e120, "width": 2.0}),
    ])
    def test_overflowing_seed_is_a_divergence_written_as_strict_json(self, tmp_path, recipe, seed):
        """N(u) of the seed overflows: the run reports a divergence without a
        warning, and writes its non-finite residual as null."""
        cfg = {**load_recipe(recipe), "seed": seed}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["status"] == "diverged" and summary["final_residual"] is None


class TestCollapse:
    @staticmethod
    def collapsing_solve(problem, factor, u0, config):
        """A solve that ends on the trivial state u = 0 in one step."""
        first, last = problem.pair(u0), problem.pair(0.0 * u0)
        trace = tw.IterationTrace(np.array([first.residual, last.residual]), np.full(2, np.nan),
                                  np.array([first.norm(first.uc), 0.0]), "collapsed")
        return tw.SolveResult(last.u, trace)

    def test_collapse_to_zero_is_reported(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(travwave.cli, "solve", self.collapsing_solve)
        cfg_path = write_config(tmp_path, load_recipe("table1_col34"))
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "solve")]) == 0
        summary = json.loads((tmp_path / "solve" / "summary.json").read_text())
        assert summary["status"] == "collapsed"
        assert summary["final_residual"] <= 1e-12

        assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "spec")]) == 3
        assert "collapsed" in capsys.readouterr().err
        summary = json.loads((tmp_path / "spec" / "summary.json").read_text())
        assert summary["status"] == "collapsed"


FRESH_RUNS = """
import json, sys
from travwave.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

codes = [main([command, "--config", path])
         for command, path in zip(["continue", "solve", "orbital", "spectrum"], sys.argv[1:5])]
before = scipy_modules()
codes.append(main(["solve", "--config", sys.argv[5]]))
print(json.dumps({"codes": codes, "before": before, "after": scipy_modules()}))
"""


class TestColdStart:
    def test_fourier_runs_load_no_scipy(self, tmp_path):
        """continue, a stabilized Fourier solve, orbital and spectrum run on
        numpy alone; a ground-state solve, the control, shows the check sees
        a scipy import when one happens.  A fresh interpreter, since this one
        has loaded scipy already."""
        orbital_cfg = soliton_config(tmp_path / "orb", orbital={"experiments": [{"eps1": 0.2}]})
        spectrum_cfg = soliton_config(tmp_path / "spec")
        spectrum_cfg["diagnostics"] = {"spectrum_k": 6, "state": "exact"}
        ground_state_cfg = load_recipe("table1_col12")
        ground_state_cfg["output"]["directory"] = str(tmp_path / "ground")
        paths = [write_config(tmp_path, lump_config(tmp_path / "cont", points=32), "cont.json"),
                 write_config(tmp_path, soliton_config(tmp_path / "solve"), "solve.json"),
                 write_config(tmp_path, orbital_cfg, "orb.json"),
                 write_config(tmp_path, spectrum_cfg, "spec.json"),
                 write_config(tmp_path, ground_state_cfg, "ground.json")]
        src = str(Path(tw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", FRESH_RUNS, *paths], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [0, 0, 0, 0, 0]
        assert report["before"] == []
        assert "scipy.linalg" in report["after"]
        assert "scipy.optimize" not in report["after"]
        assert json.loads((tmp_path / "cont" / "continuation.json").read_text())["completed"]


class TestParser:
    """One parser serves every `main` call of a process."""

    def test_parser_is_built_once(self):
        assert make_parser() is make_parser()

    def test_consecutive_commands_parse_independently(self, tmp_path):
        # --out of the first call must not reach the second, which names no --out
        spectrum_out = tmp_path / "spectrum"
        assert main(["spectrum", "--recipe", "table2", "--out", str(spectrum_out)]) == 0
        solve_out = tmp_path / "solve"
        assert main(["solve", "--config", write_config(tmp_path, soliton_config(solve_out))]) == 0
        assert sorted(p.name for p in spectrum_out.iterdir()) == [
            "hypothesis_report.json", "spectrum_F.json", "spectrum_S.json"]
        assert (solve_out / "summary.json").exists()
        assert make_parser().parse_args(["solve", "--config", "c.json"]).out is None

    @pytest.mark.parametrize("argv", [[], ["spectrum"], ["nope", "--recipe", "table2"],
                                      ["spectrum", "--recipe", "table2", "--config", "c.json"]])
    def test_bad_argv_exits_2_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: travwave" in capsys.readouterr().err
        # the cached parser still serves the next call
        assert make_parser().parse_args(["spectrum", "--recipe", "table2"]).recipe == "table2"
