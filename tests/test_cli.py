import json
import shutil
import subprocess

import numpy as np
import pytest

from rulefuse.cli import main
from rulefuse.combine import combine_linear
from rulefuse.fitting import LinearRule
from rulefuse.phantoms import PhantomSpec, generate_dataset
from rulefuse.volio import load_volume, save_volume
from rulefuse.volumes import LabelVolume, ProbabilityVolume


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    spec = PhantomSpec(dims=(16, 16, 16), n_lesions=1, radius_range=(3.0, 5.0))
    manifest_path, cases = generate_dataset(21, 6, spec, root)
    return manifest_path, cases, root


# --- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["fit", "--no-such-flag"]) == 1
    assert main(["fit"]) == 1  # no decision selector
    assert main(["fit", "--zone", "WG", "--rule-number", "3"]) == 1
    assert main(["fit", "--bits", "01"]) == 1
    assert main(["combine", "a", "b", "c", "--rule", "{bad json", "--out", "x"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_data_errors_exit_2(tmp_path, capsys):
    assert main(["search", str(tmp_path / "missing.json")]) == 2
    assert main(["evaluate", str(tmp_path / "a.u8"), str(tmp_path / "b.u8")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err


def test_misaligned_volumes_exit_2(tmp_path, capsys):
    a = save_volume(ProbabilityVolume(np.full((4, 4, 4), 0.5)), tmp_path / "a.f32le")
    b = save_volume(ProbabilityVolume(np.full((4, 4, 5), 0.5)), tmp_path / "b.f32le")
    rule = '{"model": "linear", "alpha": [0.5, 0.25, 0.25]}'
    code = main(["combine", str(a), str(b), str(a), "--rule", rule, "--out", str(tmp_path / "o.f32le")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


def assert_one_line_usage_error(capsys, argv, needle):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert needle in err
    assert "Traceback" not in err


def test_fit_divergence_is_usage_error(capsys):
    argv = ["fit", "--zone", "WG", "--lr", "1e6"]
    assert_one_line_usage_error(capsys, argv, "diverged after 1 iterations")


def test_sample_negative_eta_is_usage_error(capsys):
    assert_one_line_usage_error(capsys, ["sample", "--eta", "-1"], "eta must be positive")


def test_sample_uneven_grid_step_is_usage_error(capsys):
    argv = ["sample", "--model", "linear", "--grid-step", "0.3"]
    assert_one_line_usage_error(capsys, argv, "step must divide 1 evenly")


def test_phantom_zero_cases_is_usage_error(tmp_path, capsys):
    argv = ["phantom", "--n-cases", "0", "--out-dir", str(tmp_path / "ds")]
    assert_one_line_usage_error(capsys, argv, "n_cases")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(threads, capsys):
    argv = ["--threads", threads, "sample", "--n-rules", "2"]
    assert_one_line_usage_error(capsys, argv, f"--threads must be >= 1, got {threads}")


# --- fit ---------------------------------------------------------------------------


def test_fit_zone_prints_both_models(tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(["fit", "--zone", "WG", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("rule 63 (WG)")
    assert "0.454545" in text  # 5/11
    assert "stacking" in text
    doc = json.loads(out.read_text())
    assert set(doc) == {"linear", "stacking"}
    assert doc["linear"]["residual"] == pytest.approx(0.078125, abs=1e-6)


def test_fit_bits_selector(capsys):
    assert main(["fit", "--bits", "00011111", "--model", "linear"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rule 31")
    assert "stacking" not in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "linear"}))
    assert main(["--config", str(cfg), "fit", "--zone", "TZ"]) == 0
    out = capsys.readouterr().out
    assert "linear" in out and "stacking" not in out


# --- sample ------------------------------------------------------------------------


def test_sample_stacking_subset(tmp_path, capsys):
    out = tmp_path / "rules.json"
    assert main(["sample", "--model", "stacking", "--n-rules", "8", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["options"]["n_rules"] == 8
    numbers = [e["rule_number"] for e in doc["entries"]]
    assert numbers == sorted(numbers)
    assert "accepted" in capsys.readouterr().out


def test_sample_reports_the_number_of_rules_fitted(tmp_path, capsys):
    out = tmp_path / "rules.json"
    assert main(["sample", "--model", "stacking", "--n-rules", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("accepted 3 of 3 rules")


def test_sample_linear_dirichlet_and_grid(capsys):
    assert main(["--seed", "5", "sample", "--model", "linear", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rules"]) == 3
    for alpha in doc["rules"]:
        assert sum(alpha) == pytest.approx(1.0, abs=1e-6)

    assert main(["sample", "--model", "linear", "--grid-step", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rules"]) == 6


def test_sample_seed_changes_draws(capsys):
    main(["--seed", "1", "sample", "--model", "linear", "--n", "2"])
    a = capsys.readouterr().out
    main(["--seed", "2", "sample", "--model", "linear", "--n", "2"])
    b = capsys.readouterr().out
    assert a != b
    main(["--seed", "1", "sample", "--model", "linear", "--n", "2"])
    assert capsys.readouterr().out == a


# --- combine / evaluate --------------------------------------------------------------


def test_combine_matches_library(dataset, tmp_path, capsys):
    _, cases, root = dataset
    case = cases[0]
    paths = [str(root / case.case_id / f"{m.value}.f32le") for m in
             (case.modalities[0].modality, case.modalities[1].modality, case.modalities[2].modality)]
    out = tmp_path / "combined.f32le"
    mask_out = tmp_path / "mask.u8"
    rule = '{"model": "linear", "alpha": [0.5, 0.5, 0.0]}'
    code = main(["combine", *paths, "--rule", rule, "--out", str(out), "--mask-out", str(mask_out)])
    assert code == 0

    stored_mods = [load_volume(p) for p in paths]
    expected = combine_linear(stored_mods, LinearRule(np.array([0.5, 0.5, 0.0])))
    got = load_volume(out)
    np.testing.assert_allclose(got.values, expected.values, atol=1e-7)
    mask = load_volume(mask_out)
    assert isinstance(mask, LabelVolume)


def test_combine_vote_requires_masks(dataset, tmp_path, capsys):
    _, cases, root = dataset
    case = cases[0]
    p = str(root / case.case_id / "T2W.f32le")
    code = main(["combine", p, p, p, "--rule", '{"model": "vote"}', "--out", str(tmp_path / "o.u8")])
    assert code == 2
    assert "binary masks" in capsys.readouterr().err


def test_evaluate_perfect_prediction(dataset, tmp_path, capsys):
    _, cases, root = dataset
    truth_path = str(root / cases[0].case_id / "truth.u8")
    assert main(["evaluate", truth_path, truth_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dsc"] == 1.0
    assert doc["hd95_mm"] == 0.0


def test_evaluate_probability_pred_is_binarized(dataset, tmp_path, capsys):
    _, cases, root = dataset
    case = cases[0]
    pred = str(root / case.case_id / "T2W.f32le")
    truth = str(root / case.case_id / "truth.u8")
    assert main(["evaluate", pred, truth, "--threshold", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0.0 <= doc["dsc"] <= 1.0


def test_evaluate_csv_output(dataset, tmp_path, capsys):
    _, cases, root = dataset
    truth = str(root / cases[0].case_id / "truth.u8")
    csv_out = tmp_path / "m.csv"
    assert main(["evaluate", truth, truth, "--csv-out", str(csv_out)]) == 0
    capsys.readouterr()
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0].startswith("dsc,")
    assert len(lines) == 2


# --- search / availability / mc -------------------------------------------------------


def test_search_runs_and_reports_both_splits(dataset, tmp_path, capsys):
    manifest, _, _ = dataset
    out = tmp_path / "search.json"
    csv_out = tmp_path / "search.csv"
    heat = tmp_path / "heat.csv"
    code = main([
        "search", str(manifest), "--step", "0.5",
        "--out", str(out), "--csv-out", str(csv_out), "--heatmap-out", str(heat),
    ])
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert set(doc) == {"validation", "test"}
    assert len(doc["validation"]["rows"]) == 6
    assert csv_out.read_text().startswith("rank,model,alpha1")
    assert heat.read_text().startswith("alpha1,alpha2,dsc")


def test_search_byte_identical_across_runs_and_threads(dataset, tmp_path, capsys):
    manifest, _, _ = dataset
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.json"
        code = main(["--threads", threads, "search", str(manifest), "--step", "0.5", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]


def test_search_stacking_needs_rules(dataset, capsys):
    manifest, _, _ = dataset
    assert main(["search", str(manifest), "--model", "stacking"]) == 1
    assert "--rules" in capsys.readouterr().err


def test_availability_table(dataset, tmp_path, capsys):
    manifest, _, _ = dataset
    assert main(["availability", str(manifest), "--split", "train"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 7
    assert doc["rows"][-1]["subset"] == "T2W+DWI_hb+ADC"
    assert doc["rows"][-1]["delta_dsc"] == 0.0


def test_mc_uncertainty_point_mass(dataset, tmp_path, capsys):
    manifest, _, _ = dataset
    sampler = '{"kind": "fixed", "model": "linear", "rules": [[0.5, 0.5, 0.0]]}'
    vol_dir = tmp_path / "vols"
    code = main([
        "mc-uncertainty", str(manifest), "--sampler", sampler,
        "--draws", "4", "--split", "train", "--volumes-out", str(vol_dir),
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    for case in doc["cases"]:
        assert case["voxel_variance_max"] == 0.0
        assert case["dsc_variance"] == 0.0
    written = sorted(vol_dir.glob("*_variance.f32le"))
    assert len(written) == len(doc["cases"])
    assert float(load_volume(written[0]).values.max()) == 0.0


def test_mc_uncertainty_connectivity_flag_matches_config(dataset, tmp_path, capsys):
    manifest, _, _ = dataset
    argv = [
        "mc-uncertainty", str(manifest), "--split", "train", "--draws", "4",
        "--sampler", '{"kind": "dirichlet", "concentration": [4, 4, 1]}',
    ]
    config = tmp_path / "config.json"
    config.write_text('{"connectivity": 6}')
    assert main(["--config", str(config)] + argv) == 0
    from_config = capsys.readouterr().out
    assert main(argv + ["--connectivity", "6"]) == 0
    assert capsys.readouterr().out == from_config


def test_mc_uncertainty_requires_sampler(dataset, capsys):
    manifest, _, _ = dataset
    assert main(["mc-uncertainty", str(manifest)]) == 1
    assert "sampler" in capsys.readouterr().err


# --- phantom ---------------------------------------------------------------------------


def test_phantom_generates_dataset(tmp_path, capsys):
    spec = json.dumps({"dims": [16, 16, 16], "n_lesions": 1, "radius_range": [3.0, 5.0]})
    out_dir = tmp_path / "ds"
    code = main(["--seed", "3", "phantom", "--spec", spec, "--n-cases", "5", "--out-dir", str(out_dir)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_cases"] == 5
    assert sum(doc["splits"].values()) == 5
    assert (out_dir / "manifest.json").exists()


def test_phantom_bad_spec_exit_1(tmp_path, capsys):
    code = main(["phantom", "--spec", '{"dims": [2, 2, 2]}', "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_phantom_impossible_packing_exit_2(tmp_path, capsys):
    spec = json.dumps({"dims": [16, 16, 16], "n_lesions": 20, "radius_range": [6.0, 7.0]})
    code = main(["phantom", "--spec", spec, "--n-cases", "1", "--out-dir", str(tmp_path / "x")])
    assert code == 2


# --- console script ----------------------------------------------------------------------


def test_console_script_entry_point():
    exe = shutil.which("rulefuse")
    assert exe, "rulefuse console script not installed"
    proc = subprocess.run([exe, "fit", "--zone", "PZ", "--model", "linear"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("rule 119 (PZ)")
