import json
from pathlib import Path

import pytest

import workloads

RECIPES = Path(__file__).resolve().parents[2] / "src" / "travwave" / "recipes"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_reproduces_the_recipes(workload, tmp_path):
    calls = workloads.write_inputs(workload, RECIPES, 0, tmp_path)
    assert [(c.command, c.recipe) for c in calls] == list(workloads.WORKLOADS[workload])
    for call in calls:
        assert json.loads(call.config.read_text()) == json.loads(
            (RECIPES / f"{call.recipe}.json").read_text())


SCALE, WIDER = workloads.SEED_SCALE, workloads.ANTISYMMETRIC_WIDTH_SCALE
SCALED = {
    "fig2": [("seed", "amplitude", SCALE), ("seed", "width", SCALE)],
    "table1_col12": [("seed", "amplitude", SCALE), ("seed", "width", SCALE)],
    "table1_col34": [("seed", "amplitude", SCALE), ("seed", "width", WIDER)],
    "table2": [],
}


@pytest.mark.parametrize("seed", [7, 1739974196])
@pytest.mark.parametrize("recipe", sorted(SCALED))
def test_other_seeds_scale_only_the_seed_amplitude_and_width(recipe, seed):
    base = json.loads((RECIPES / f"{recipe}.json").read_text())
    cfg = workloads.make_config(base, seed, recipe)
    assert cfg == workloads.make_config(base, seed, recipe)
    for block, key, (low, high) in SCALED[recipe]:
        ratio = cfg[block][key] / base[block][key]
        assert low <= ratio <= high
        assert ratio != 1.0
        cfg[block][key] = base[block][key]
    assert cfg == base


def test_other_seeds_scale_the_orbital_eps_values():
    base = json.loads((RECIPES / "fig67.json").read_text())
    cfg = workloads.make_config(base, 7, "fig67")
    for exp, ref in zip(cfg["orbital"]["experiments"], base["orbital"]["experiments"]):
        for key in ("eps1", "eps2"):
            if ref[key] == 0.0:
                assert exp[key] == 0.0
            else:
                assert workloads.SEED_SCALE[0] <= exp[key] / ref[key] <= workloads.SEED_SCALE[1]
    cfg["orbital"] = base["orbital"]
    assert cfg == base


def _table2_outputs(out: Path, s_eigenvalues, shift_ok=True):
    out.mkdir()
    for name, eigs in (("spectrum_S.json", s_eigenvalues), ("spectrum_F.json", [1, 1, 0.5])):
        (out / name).write_text(json.dumps({
            "eigenvalues": [[z, 0.0] for z in eigs], "k": len(eigs),
            "eigen_residuals": [1e-12] * len(eigs)}))
    (out / "hypothesis_report.json").write_text(
        json.dumps({"spectrum_shift_check": {"ok": shift_ok}}))


def test_table2_checks_catch_a_wrong_eigenvalue_and_a_failed_shift_check(tmp_path):
    (call,) = workloads.write_inputs("soliton_spectrum", RECIPES, 0, tmp_path / "in")
    good = list(workloads.TABLE2_S_EIGENVALUES)
    _table2_outputs(tmp_path / "good", good)
    outcome = workloads.check_call(call, tmp_path / "good", 0, None)
    assert outcome.failed == []
    assert workloads.verified_share(outcome.eigen_residuals) == 1.0

    _table2_outputs(tmp_path / "bad", good[:-1] + [0.31], shift_ok=False)
    outcome = workloads.check_call(call, tmp_path / "bad", 0, None)
    assert outcome.failed == ["spectrum_S", "spectrum_F"]

    # a different byte stream than the reference pass, or a failed exit
    assert workloads.check_call(call, tmp_path / "good", 0, "other").failed == ["cli"]
    assert workloads.check_call(call, tmp_path / "good", 3, None).failed == ["cli"]


def _ground_state_outputs(out: Path, amplitude: float):
    out.mkdir()
    (out / "summary.json").write_text(json.dumps({"status": "converged", "final_residual": 1e-15}))
    (out / "profile.csv").write_text(f"x,re,im\n-1,0,0\n0,{amplitude},0\n1,0,0\n")
    for name in ("spectrum_S.json", "spectrum_F.json"):
        (out / name).write_text(json.dumps({"eigenvalues": [[1.0, 0.0]], "k": 1,
                                            "eigen_residuals": [1e-12]}))


def test_a_solve_that_reaches_the_trivial_state_fails(tmp_path):
    call = workloads.write_inputs("ground_state_diagnostics", RECIPES, 0, tmp_path / "in")[1]
    assert call.recipe == "table1_col34"
    _ground_state_outputs(tmp_path / "good", 2.0)
    assert workloads.check_call(call, tmp_path / "good", 0, None).failed == []
    _ground_state_outputs(tmp_path / "zero", 1e-22)
    assert workloads.check_call(call, tmp_path / "zero", 0, None).failed == ["cli"]


def test_verified_share_counts_residuals_at_the_threshold():
    assert workloads.verified_share([1e-12, workloads.VERIFIED_RESIDUAL, 0.5, 3.0]) == 0.5
    assert workloads.verified_share([]) == 1.0
