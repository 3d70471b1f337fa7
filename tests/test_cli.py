import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import rulefuse
from rulefuse import cli, discovery, phantoms, sampling, volio
from rulefuse.cli import main
from rulefuse.combine import binarize, combine_linear
from rulefuse.errors import PackingError
from rulefuse.fitting import LinearRule
from rulefuse.metrics import MetricsConfig, evaluate
from rulefuse.phantoms import PhantomSpec, generate_cases, generate_dataset
from rulefuse.volio import load_volume, save_volume, write_report
from rulefuse.volumes import LabelVolume, ProbabilityVolume


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    spec = PhantomSpec(dims=(16, 16, 16), n_lesions=1, radius_range=(3.0, 5.0))
    manifest_path, _ = generate_dataset(21, 6, spec, root)
    return manifest_path, generate_cases(21, 6, spec), root


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


@pytest.mark.parametrize("argv, needle", [
    (["fit", "--zone", "WG", "--lr", "nan"], "learning_rate must be a positive finite number, got nan"),
    (["sample", "--n-rules", "2", "--lr", "inf"], "learning_rate must be a positive finite number, got inf"),
    (["sample", "--n-rules", "2", "--eta", "nan"], "eta must be positive with a finite square, got nan"),
    (["sample", "--n-rules", "2", "--eta", "1e400"], "eta must be positive with a finite square, got inf"),
    (["sample", "--model", "linear", "--concentration", "nan,1,1"],
     "concentration must be 3 positive finite reals"),
], ids=["fit-lr", "sample-lr", "eta-nan", "eta-inf", "concentration"])
def test_non_finite_option_is_one_usage_error_and_writes_nothing(argv, needle, capsys, tmp_path,
                                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert_one_line_usage_error(capsys, argv + ["--out", "o.json"], needle)
    assert list(tmp_path.iterdir()) == []


def test_sample_uneven_grid_step_is_usage_error(capsys):
    argv = ["sample", "--model", "linear", "--grid-step", "0.3"]
    assert_one_line_usage_error(capsys, argv, "step must divide 1 evenly")


@pytest.mark.parametrize("argv", [["sample", "--model", "linear", "--grid-step"],
                                  ["search", "missing.json", "--step"]], ids=["sample", "search"])
def test_grid_step_bound_is_checked_before_any_rule_or_load(argv, capsys, monkeypatch):
    # 1/step > 1000 would ask for more than 501 501 rules; 0.0001 asks for ~50 million
    built, loads = [], []
    make_rule = sampling.LinearRule

    def counted_rule(alpha):  # fails fast, at the parent too, instead of filling memory
        built.append(1)
        assert len(built) <= 501 * 502 // 2, "more rules built than step 0.001 makes"
        return make_rule(alpha)

    monkeypatch.setattr(sampling, "LinearRule", counted_rule)
    monkeypatch.setattr(volio, "case_sources", lambda *args, **kwargs: loads.append(args) or
                        (_ for _ in ()).throw(cli.DataError("manifest reached")))
    assert_one_line_usage_error(capsys, argv + ["0.0001"], "step must be at least 0.001")
    assert (built, loads) == ([], [])
    code = main(argv + ["0.002"])  # 125 751 rules, still allowed
    out, err = capsys.readouterr()
    if argv[0] == "sample":
        assert code == 0 and len(json.loads(out)["rules"]) == len(built) == 501 * 502 // 2
    else:
        assert (code, err, len(loads)) == (2, "data error: manifest reached\n", 1)


def test_phantom_zero_cases_is_usage_error(tmp_path, capsys):
    argv = ["phantom", "--n-cases", "0", "--out-dir", str(tmp_path / "ds")]
    assert_one_line_usage_error(capsys, argv, "n_cases")


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(threads, capsys):
    argv = ["--threads", threads, "sample", "--n-rules", "2"]
    assert_one_line_usage_error(capsys, argv, f"--threads must be >= 1, got {threads}")


def test_sampler_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    argv = ["mc-uncertainty", str(tmp_path / "m.json"), "--sampler", "[1, 2]"]
    assert_one_line_usage_error(capsys, argv, "sampler config must be a JSON object")


@pytest.mark.parametrize("entry", [{"threshold": [1]}, {"min_region": None},
                                   {"s_gt": {}}, {"connectivity": "six"}])
def test_ill_typed_config_value_is_usage_error(tmp_path, capsys, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    (name, value), = entry.items()
    argv = ["--config", str(cfg), "search", str(tmp_path / "m.json")]
    assert_one_line_usage_error(capsys, argv, f"option {name}: cannot read {value!r}")


def test_json_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"model": "\xff"}')
    assert main(["--config", str(cfg), "fit", "--zone", "WG"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: config file {cfg} is not valid JSON") and err.count("\n") == 1


BAD_BINARIZATION = [
    ("threshold", "--threshold", 1.5, "threshold must lie in (0, 1), got 1.5"),
    ("threshold", "--threshold", float("nan"), "threshold must lie in (0, 1), got nan"),
    ("min_region", "--min-region", -1, "min_region_voxels must be >= 0, got -1"),
]


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("name, flag, value, message", BAD_BINARIZATION,
                         ids=["threshold-1.5", "threshold-nan", "min-region-minus-1"])
@pytest.mark.parametrize("command", ["search", "availability", "mc-uncertainty"])
def test_bad_binarization_option_is_usage_error_before_any_load(
    dataset, tmp_path, capsys, monkeypatch, command, name, flag, value, message, given
):
    manifest, _, _ = dataset
    loads = []
    case_sources = volio.case_sources
    monkeypatch.setattr(volio, "case_sources",
                        lambda *args, **kwargs: loads.append(args) or case_sources(*args, **kwargs))
    argv = [command, str(manifest)]
    if command == "mc-uncertainty":
        argv += ["--sampler", '{"kind": "dirichlet"}']
    if given == "flag":
        argv += [flag, str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: value}))
        argv = ["--config", str(cfg)] + argv
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {message}\n")
    assert loads == []


def test_search_heatmap_for_stacking_writes_nothing(dataset, tmp_path, capsys, monkeypatch):
    manifest, _, _ = dataset
    rules = tmp_path / "rules.json"
    assert main(["sample", "--model", "stacking", "--n-rules", "16", "--out", str(rules)]) == 0
    capsys.readouterr()
    outputs = [tmp_path / name for name in ("h.csv", "s.json", "g.csv")]
    argv = ["search", str(manifest), "--model", "stacking", "--rules", str(rules),
            "--out", str(outputs[1]), "--csv-out", str(outputs[2])]
    assert main(argv + ["--heatmap-out", str(outputs[0])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --heatmap-out only applies to linear search\n"
    assert not any(path.exists() for path in outputs)
    # without the heatmap the search runs, reading the rule set once for both splits
    loads = []
    load = sampling.SampledRuleSet.load
    monkeypatch.setattr(sampling.SampledRuleSet, "load",
                        staticmethod(lambda path: loads.append(path) or load(path)))
    assert main(argv) == 0
    assert loads == [str(rules)] and outputs[1].exists() and outputs[2].exists()


def test_fit_bad_model_from_config_prints_nothing(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "bogus"}))
    assert main(["--config", str(cfg), "fit", "--zone", "WG"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --model must be linear, stacking or both, got 'bogus'\n"


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


def test_evaluate_non_finite_nifti_scaling_prints_one_data_error_line(tmp_path):
    # inf slope and -inf intercept make every scaled voxel nan; numpy must not
    # warn about it on stderr before the data error does
    from test_io import nifti1_bytes

    pred = tmp_path / "p.nii"
    pred.write_bytes(nifti1_bytes(np.full((4, 4, 4), 0.5), scl_slope=np.inf, scl_inter=-np.inf))
    truth = save_volume(LabelVolume(np.zeros((4, 4, 4), dtype=bool)), tmp_path / "t.u8")
    src = str(Path(rulefuse.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "rulefuse", "evaluate", str(pred), str(truth)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"data error: {pred}: ") and proc.stderr.count("\n") == 1, (
        proc.stderr)
    assert proc.stdout == ""


def test_binarization_honours_connectivity(tmp_path, capsys):
    # a diagonal line is one 30-voxel component at 26-connectivity and
    # thirty single voxels at 6-connectivity, all below --min-region 27
    values = np.zeros((30, 30, 30))
    values[np.arange(30), np.arange(30), np.arange(30)] = 0.9
    prob = ProbabilityVolume(values)
    truth = LabelVolume(values > 0.5)
    pred_path = save_volume(prob, tmp_path / "pred.f32le")
    truth_path = save_volume(truth, tmp_path / "truth.u8")
    expected_mask = binarize(prob, connectivity=6)
    assert expected_mask.count() == 0

    assert main(["evaluate", str(pred_path), str(truth_path), "--connectivity", "6"]) == 0
    got = json.loads(capsys.readouterr().out)
    expected = evaluate(expected_mask, truth, MetricsConfig(connectivity=6))
    assert got == json.loads(write_report(expected, "json"))

    mask_out = tmp_path / "mask.u8"
    argv = ["combine", str(pred_path), str(pred_path), str(pred_path), "--rule",
            '{"model": "linear", "alpha": [1, 0, 0]}', "--out", str(tmp_path / "c.f32le"),
            "--mask-out", str(mask_out), "--connectivity", "6"]
    assert main(argv) == 0
    capsys.readouterr()
    assert load_volume(mask_out).count() == 0


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
    # a 6-rule grid search, and availability's 8 rules on the train split
    manifest, _, _ = dataset
    for command in (["search", str(manifest), "--step", "0.5"],
                    ["availability", str(manifest), "--split", "train"]):
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{command[0]}-{name}.json"
            assert main(["--threads", threads, *command, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]


def test_mc_uncertainty_byte_identical_across_threads(dataset, tmp_path, capsys):
    manifest, _, _ = dataset
    sampler = json.dumps({"kind": "dirichlet", "concentration": [3, 2, 1]})
    outs = []
    for threads in ("1", "2", "4"):
        out, volumes = tmp_path / f"mc{threads}.json", tmp_path / f"vol{threads}"
        code = main(["--seed", "4", "--threads", threads, "mc-uncertainty", str(manifest),
                     "--split", "train", "--draws", "5", "--sampler", sampler,
                     "--volumes-out", str(volumes), "--out", str(out)])
        assert code == 0
        files = sorted(volumes.iterdir())
        assert len(files) == 2 * len(json.loads(out.read_text())["cases"]) > 2
        outs.append([out.read_bytes()] + [(f.name, f.read_bytes()) for f in files])
    capsys.readouterr()
    assert outs[0] == outs[1] == outs[2]


def test_search_stacking_needs_rules(dataset, capsys):
    manifest, _, _ = dataset
    assert main(["search", str(manifest), "--model", "stacking"]) == 1
    assert "--rules" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{}, {"entries": [{"rule_number": 3, "residual": 0.0}],
                                      "eta": 0.5, "rejected": []}])
def test_search_stacking_malformed_rules_is_data_error(dataset, tmp_path, capsys, doc):
    manifest, _, _ = dataset
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(doc))
    assert main(["search", str(manifest), "--model", "stacking", "--rules", str(rules)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: rule set {rules}") and err.count("\n") == 1


@pytest.mark.parametrize("rules", [0, 1.5, ""])
def test_rules_path_from_config_must_be_a_non_empty_string(dataset, tmp_path, capsys, rules):
    # 0 would read the rule set from standard input, 1.5 would end in a TypeError
    manifest, _, _ = dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rules": rules}))
    argv = ["--config", str(cfg), "search", str(manifest), "--model", "stacking"]
    assert_one_line_usage_error(capsys, argv, f"option rules: expected a non-empty path string, "
                                              f"got {rules!r}")


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


def test_phantom_generates_dataset(tmp_path, capsys, monkeypatch):
    loads = []
    load_volume = volio.load_volume
    monkeypatch.setattr(volio, "load_volume", lambda path: loads.append(path) or load_volume(path))
    spec = json.dumps({"dims": [16, 16, 16], "n_lesions": 1, "radius_range": [3.0, 5.0]})
    out_dir = tmp_path / "ds"
    code = main(["--seed", "3", "phantom", "--spec", spec, "--n-cases", "5", "--out-dir", str(out_dir)])
    assert code == 0
    assert loads == []  # the volumes just written are not read back
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_cases"] == 5
    manifest = json.loads((out_dir / "manifest.json").read_text())
    splits = [entry["split"] for entry in manifest["cases"]]
    assert doc["splits"] == {k: splits.count(k) for k in ("train", "validation", "test")}
    assert sum(doc["splits"].values()) == 5


def test_phantom_bad_spec_exit_1(tmp_path, capsys):
    code = main(["phantom", "--spec", '{"dims": [2, 2, 2]}', "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_phantom_impossible_packing_exit_2(tmp_path, capsys):
    spec = json.dumps({"dims": [16, 16, 16], "n_lesions": 20, "radius_range": [6.0, 7.0]})
    code = main(["phantom", "--spec", spec, "--n-cases", "1", "--out-dir", str(tmp_path / "x")])
    assert code == 2


def test_phantom_that_cannot_pack_a_later_case_writes_nothing(tmp_path, capsys):
    # with this seed and spec, cases 0, 1, 3 and 4 pack their lesions and case 2 cannot
    spec = {"dims": [16, 16, 16], "n_lesions": 3, "radius_range": [3.0, 4.0]}
    for i, packs in enumerate([True, True, False, True, True]):
        rng = np.random.default_rng([12, i])
        with contextlib.nullcontext() if packs else pytest.raises(PackingError):
            phantoms._place_lesions(rng, PhantomSpec.from_dict(spec))
    out_dir = tmp_path / "ds"
    argv = ["--seed", "12", "phantom", "--spec", json.dumps(spec), "--n-cases", "5",
            "--out-dir", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: could not place lesion") and err.count("\n") == 1, err
    assert not out_dir.exists() or not any(out_dir.rglob("*"))


# --- option layer: every argv ends in one line, and usage errors touch no volume ---------


@pytest.fixture(scope="module")
def argv_dataset(tmp_path_factory):
    """A 4-case 16³ phantom with zone boxes, two rule sets and a scratch root."""
    root = tmp_path_factory.mktemp("argv_ds")
    spec = PhantomSpec(dims=(16, 16, 16), n_lesions=1, radius_range=(3.0, 5.0), zone_boxes=True)
    manifest, _ = generate_dataset(5, 4, spec, root / "ds")
    rules = sampling.rejection_sample_stacking(n_rules=16, max_iters=2000)
    write_report(rules, "json", root / "rules.json")
    write_report(sampling.SampledRuleSet(entries=[], eta=0.5), "json", root / "empty_rules.json")
    case = root / "ds" / "case_0000"
    return root, {
        "{M}": str(manifest), "{RULES}": str(root / "rules.json"),
        "{EMPTY_RULES}": str(root / "empty_rules.json"), "{MISSING}": str(root / "missing"),
        "{T2W}": str(case / "T2W.f32le"), "{DWI}": str(case / "DWI_hb.f32le"),
        "{ADC}": str(case / "ADC.f32le"), "{TRUTH}": str(case / "truth.u8"),
        "{PZ}": str(case / "zone_PZ.u8"),
    }


USAGE_PROBES = [
    (["mc-uncertainty", "{M}", "--sampler", '{"kind": "dirichlet"}', "--volumes-out", "vo"],
     {"format": "xml"}, "--format must be json or csv, got 'xml'"),
    (["search", "{M}"], {"rank_by": "speed"},
     "--rank-by must be dsc, recall, precision or hd95, got 'speed'"),
    (["search", "{M}", "--step", "0.3"], None, "step must divide 1 evenly, got 0.3"),
    (["mc-uncertainty", "{M}", "--sampler", '{"kind": "dirichlet"}', "--draws", "1"], None,
     "n_draws must be >= 2, got 1"),
    (["availability", "{M}", "--base-rule", '{"model": "stacking", "rule_number": 3}'], None,
     "availability base rule must be linear"),
    (["availability", "{M}", "--base-rule", '{"model": "linear", "rule_number": [1]}'], None,
     "bad rule spec: rule_number must be an integer, got [1]"),
    (["combine", "{T2W}", "{DWI}", "{ADC}", "--rule", '{"model": "stacking", "beta": {"a": 1}}',
      "--out", "c.f32le"], None, "bad rule spec: beta must be a list of numbers, got {'a': 1}"),
    (["search", "{M}", "--model", "stacking", "--rules", "{EMPTY_RULES}"], None,
     "--rules {EMPTY_RULES} holds no accepted rules"),
    (["sample", "--model", "linear", "--n", "0"], None, "--n must be >= 1, got 0"),
    (["sample", "--model", "linear"], {"n": -2}, "--n must be >= 1, got -2"),
    (["sample", "--model", "linear"], {"n": 2.5}, "option n: cannot read 2.5 as int"),
    (["phantom", "--spec", "[1]", "--out-dir", "ds"], None,
     "bad phantom spec: a phantom spec must be a JSON object, got [1]"),
    (["phantom", "--spec", '{"dims": 5}', "--out-dir", "ds"], None,
     "bad phantom spec: dims must be 3 integers, got 5"),
    (["phantom", "--out-dir", "ds"], {"phantom_spec": {"n_lesions": "3"}},
     "bad phantom spec: n_lesions must be an integer, got '3'"),
    (["phantom", "--spec", '{"n_lesions": 2.5}', "--out-dir", "ds"], None,
     "bad phantom spec: n_lesions must be an integer, got 2.5"),
    (["phantom", "--spec", '{"noise_sd": null}', "--out-dir", "ds"], None,
     "bad phantom spec: noise_sd must be a finite number, got None"),
    (["phantom", "--spec", '{"min_region_voxels": -5}', "--out-dir", "ds"], None,
     "bad phantom spec: min_region_voxels must be >= 0, got -5"),
    (["--seed", "-1", "sample", "--model", "linear"], None, "--seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("argv, config, message", USAGE_PROBES)
def test_usage_error_reads_no_volume_and_writes_nothing(argv_dataset, tmp_path, monkeypatch,
                                                         capsys, argv, config, message):
    root, files = argv_dataset
    for placeholder, path in files.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
        message = message.replace(placeholder, path)
    if config is not None:
        argv = ["--config", json.dumps(config)] + argv
    loads = []
    load_volume = volio.load_volume
    monkeypatch.setattr(volio, "load_volume", lambda path: loads.append(path) or load_volume(path))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert loads == [] and list(tmp_path.iterdir()) == []


# the --config keys each subcommand honours
CONFIG_KEYS = {
    "fit": {"model", "lr", "iters"},
    "sample": {"model", "format", "eta", "lr", "iters", "n_rules", "grid_step", "n",
               "concentration"},
    "combine": {"threshold", "min_region", "connectivity"},
    "evaluate": {"threshold", "min_region", "connectivity", "s_gt", "s_pred", "format"},
    "search": {"threshold", "min_region", "connectivity", "s_gt", "s_pred", "zone", "model",
               "rank_by", "split", "eval_split", "step", "rules"},
    "availability": {"threshold", "min_region", "connectivity", "s_gt", "s_pred", "zone",
                     "format"},
    "mc-uncertainty": {"threshold", "min_region", "connectivity", "zone", "draws", "format",
                       "sampler"},
    "phantom": {"phantom_spec", "n_cases"},
}
# two values for every key, each valid wherever the key is honoured; the last
# keys name options or flags that no --config entry may set
CONFIG_PASSES = {
    "model": ("linear", "stacking"), "format": ("csv", "json"), "lr": (0.5, 0.25),
    "iters": (5, 7), "eta": (0.3, 0.4), "n_rules": (3, 4), "grid_step": (0.5, 0.25),
    "n": (3, 4), "concentration": ([2, 2, 2], [3, 3, 3]), "threshold": (0.3, 0.4),
    "min_region": (3, 4), "connectivity": (6, 18), "s_gt": (0.2, 0.3), "s_pred": (0.2, 0.3),
    "zone": ("PZ", "TZ"), "rank_by": ("hd95", "recall"), "split": ("train", "test"),
    "eval_split": ("train", "validation"), "step": (0.5, 0.25), "rules": ("a.json", "b.json"),
    "draws": (3, 5), "sampler": ({"kind": "dirichlet"}, {"kind": "fixed", "rules": [[1, 0, 0]]}),
    "phantom_spec": ({"n_lesions": 1}, {"n_lesions": 2}), "n_cases": (3, 4),
    "out": ("a", "b"), "csv_out": ("a", "b"), "seed": (1, 2), "threads": (2, 3),
    "rule_number": (3, 4), "bits": ("00111111", "00011111"), "rule": ("a", "b"),
    "base_rule": ("a", "b"), "mask_out": ("a", "b"), "zone_mask": ("a", "b"),
    "volumes_out": ("a", "b"), "heatmap_out": ("a", "b"), "out_dir": ("a", "b"),
    "spec": ("a", "b"), "manifest": ("a", "b"),
}
REQUIRED_ARGV = {
    "combine": ["a", "b", "c", "--rule", '{"model": "vote"}', "--out", "o"],
    "evaluate": ["p", "t"], "search": ["m"], "availability": ["m"], "mc-uncertainty": ["m"],
    "phantom": ["--out-dir", "d"],
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_keys_each_command_honours(command, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(vars(args)) or 0)
    honoured = set(CONFIG_PASSES)
    for index in range(2):
        config = {key: values[index] for key, values in CONFIG_PASSES.items()}
        argv = ["--config", json.dumps(config), command] + REQUIRED_ARGV.get(command, [])
        assert main(argv) == 0
        honoured = {key for key in honoured
                    if json.dumps(seen[-1].get(key)) == json.dumps(config[key])}
    assert honoured == CONFIG_KEYS[command]



FLOATS = ["0.5", "0.25", "1.5", "-1", "nan", "x"]
INTS = ["0", "1", "3", "-2", "2.5", "x"]
MASK = {"--threshold": FLOATS, "--min-region": INTS, "--connectivity": ["6", "26", "5", "x"]}
LESION = {"--s-gt": FLOATS, "--s-pred": FLOATS}
ZONE = {"--zone": ["PZ", "XX"]}
REPORT = {"--format": ["json", "csv", "xml"], "--out": ["r.json"], "--csv-out": ["r.csv"]}
RULE_SPECS = [
    '{"model": "linear", "alpha": [0.5, 0.5, 0]}', '{"model": "vote"}',
    '{"model": "stacking", "beta": [1, 1, 1, -1]}', '{"model": "linear", "rule_number": 3}',
    '{"model": "stacking", "rule_number": 3}', '{"model": "linear", "rule_number": [1]}',
    '{"model": "stacking", "beta": {"a": 1}}', '{"model": "linear", "alpha": [1, 0]}',
    '{"model": "x"}', '{"alpha": "abc"}', "[1]", "[0.5, 0.5, 0]", "{bad", "{MISSING}",
]
SAMPLERS = [
    '{"kind": "dirichlet"}', '{"kind": "fixed", "rules": [[0.5, 0.5, 0]]}',
    '{"kind": "stacking_set"}', '{"kind": "bogus"}', '{"kind": "dirichlet", "concentration": 5}',
    '{"kind": "dirichlet", "concentration": [NaN, 1, 1]}',
    "[1, 2]", "{bad", "{MISSING}",
]
PHANTOM_SPECS = [
    '{"dims": [16, 16, 16], "n_lesions": 1, "radius_range": [3, 5]}',
    '{"dims": [16, 16, 16], "n_lesions": 20, "radius_range": [6, 7]}',
    "[1]", '{"dims": 5}', '{"n_lesions": "3"}', '{"n_lesions": 2.5}', '{"noise_sd": null}',
    '{"min_region_voxels": -5}', '{"threshold": 1}', '{"planted_rule": {}}', "{bad",
]
SPLITS = ["train", "validation", "test", "bogus"]
# per command: the tokens always given (each a list of choices) and the optional flags
COMMANDS = {
    "fit": ([], {"--rule-number": ["3", "300", "x"], "--zone": ["WG", "PZ", "XX"],
                 "--bits": ["00111111", "01"], "--model": ["linear", "stacking", "both", "bogus"],
                 "--lr": ["1.0", "1e6", "-1", "nan", "inf", "x"], "--iters": ["50", "0", "x"],
                 "--out": ["fit.json"]}),
    "sample": ([["--n-rules"], ["0", "2", "300", "x"]],
               {"--model": ["linear", "stacking", "bogus"], "--eta": FLOATS + ["inf"],
                "--lr": ["1.0", "-1", "nan", "inf", "x"], "--iters": ["50", "0", "x"], "--n": INTS,
                "--concentration": ["1,1,1", "1,2", "a,b,c"],
                "--grid-step": ["0.5", "0.3", "0", "x"], "--format": ["json", "csv", "xml"],
                "--out": ["s.json"]}),
    "combine": ([["{T2W}", "{T2W}", "{TRUTH}", "{MISSING}"], ["{DWI}"], ["{ADC}"], ["--rule"], RULE_SPECS,
                 ["--out"], ["c.f32le"]], {"--mask-out": ["m.u8"], **MASK}),
    "evaluate": ([["{TRUTH}", "{T2W}", "{MISSING}"], ["{TRUTH}", "{T2W}"]],
                 {"--zone-mask": ["{PZ}", "{T2W}"], **MASK, **LESION, **REPORT}),
    "search": ([["{M}", "{M}", "{MISSING}"], ["--step"], ["0.5", "1", "0.3", "-0.1", "x"]],
               {**MASK, **LESION, **ZONE, "--model": ["linear", "stacking", "bogus"],
                "--rules": ["{RULES}", "{EMPTY_RULES}", "{MISSING}", ""],
                "--rank-by": ["dsc", "hd95", "speed"], "--split": SPLITS, "--eval-split": SPLITS,
                "--out": ["s.json"], "--csv-out": ["s.csv"], "--heatmap-out": ["h.csv"]}),
    "availability": ([["{M}"]], {**MASK, **LESION, **ZONE, **REPORT, "--split": SPLITS,
                                 "--base-rule": RULE_SPECS}),
    "mc-uncertainty": ([["{M}"], ["--sampler"], SAMPLERS],
                       {**MASK, **ZONE, **REPORT, "--draws": ["1", "2", "3", "x"],
                        "--rules": ["{RULES}", "{MISSING}"], "--split": SPLITS,
                        "--volumes-out": ["vo"]}),
    "phantom": ([["--spec"], PHANTOM_SPECS, ["--out-dir"], ["ds"]],
                {"--n-cases": ["0", "1", "2", "x"]}),
}
CONFIG_VALUES = [0.5, 3, -1, 2.5, True, None, "x", "csv", "xml", "linear", "speed", "PZ", [1], {},
                 {"kind": "dirichlet"}, "{bad"]
CONFIG_TEXTS = ["{bad", "[1]", "5", b'{"model": "\xff"}']


@st.composite
def argvs(draw):
    """A subcommand's argv, with {PLACEHOLDERS} for the dataset's files."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    fixed, optional = COMMANDS[command]
    argv = [command] + [draw(st.sampled_from(choices)) for choices in fixed]
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=4)):
        argv += [flag, draw(st.sampled_from(optional[flag]))]
    for flag, values in (("--seed", ["0", "3", "-1", "x"]), ("--threads", ["1", "2"])):
        if draw(st.booleans()):
            argv = [flag, draw(st.sampled_from(values))] + argv
    return argv


# a --config file's contents, half the time: an object of option values, or text that is not one
configs = st.one_of(st.none(), st.sampled_from(CONFIG_TEXTS) | st.dictionaries(
    st.sampled_from(sorted(CONFIG_PASSES)), st.sampled_from(CONFIG_VALUES), max_size=3))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), config=configs)
@example(argv=["mc-uncertainty", "{M}", "--sampler", '{"kind": "dirichlet"}',
               "--volumes-out", "vo"], config={"format": "xml"})
@example(argv=["search", "{M}"], config={"rank_by": "speed"})
@example(argv=["search", "{M}", "--step", "0.3"], config=None)
@example(argv=["mc-uncertainty", "{M}", "--sampler", '{"kind": "dirichlet"}', "--draws", "1"],
         config=None)
@example(argv=["availability", "{M}", "--base-rule", '{"model": "stacking", "rule_number": 3}'],
         config=None)
@example(argv=["combine", "{T2W}", "{DWI}", "{ADC}", "--rule",
               '{"model": "linear", "rule_number": [1]}', "--out", "c.f32le"], config=None)
@example(argv=["phantom", "--spec", '{"noise_sd": null}', "--out-dir", "ds"], config=None)
@example(argv=["sample", "--n-rules", "2", "--model", "linear", "--n", "0"], config=None)
@example(argv=["sample", "--n-rules", "2", "--eta", "nan"], config=None)
@example(argv=["sample", "--n-rules", "2", "--eta", "inf", "--out", "s.json"], config=None)
@example(argv=["sample", "--model", "linear", "--concentration", "1e308,1e308,1e308"], config=None)
@example(argv=["mc-uncertainty", "{M}", "--sampler",
               '{"kind": "dirichlet", "concentration": [1e308, 1e308, 1e308]}'], config=None)
def test_any_argv_exits_with_one_line_and_usage_errors_touch_nothing(argv_dataset, argv, config):
    root, files = argv_dataset
    for placeholder, path in files.items():
        argv = [arg.replace(placeholder, path) for arg in argv]
    work = Path(tempfile.mkdtemp(dir=root))  # the command's cwd, for its relative outputs
    if config is not None:
        cfg = Path(tempfile.mkdtemp(dir=root)) / "cfg.json"
        text = json.dumps(config) if isinstance(config, dict) else config
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = ["--config", str(cfg)] + argv
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(volio, "load_volume", wraps=volio.load_volume) as load, \
            contextlib.chdir(work), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, config, err)
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, config, err)
        assert "Traceback" not in err
    if code == 1:
        assert load.call_count == 0, (argv, config, err)
        assert list(work.iterdir()) == [], (argv, config, err)
    if code == 0 and {"fit", "sample"} & set(argv):
        # what a fit or sample run prints or writes as JSON is strict JSON: no NaN or Infinity
        texts = [stdout.getvalue()] + [f.read_text() for f in work.iterdir() if f.is_file()]
        for text in texts:
            if text.lstrip().startswith("{"):
                json.loads(text, parse_constant=_reject_constant)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "linear", "--concentration", "1e308,1e308,1e308"],
    ["mc-uncertainty", "{M}", "--sampler",
     '{"kind": "dirichlet", "concentration": [1e308, 1e308, 1e308]}'],
], ids=["sample", "mc-uncertainty"])
def test_a_concentration_too_large_to_draw_from_is_one_line_and_no_warning(
        argv, argv_dataset, capsys, tmp_path, monkeypatch):
    # numpy draws zeros at such a concentration; the 0/0 used to warn before the error
    argv = [arg.replace("{M}", argv_dataset[1]["{M}"]) for arg in argv] + ["--out", "o.json"]
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(volio, "load_volume", wraps=volio.load_volume) as load:
        warnings.simplefilter("always")
        assert_one_line_usage_error(capsys, argv, "usage error: concentration [1e+308, 1e+308, "
                                                  "1e+308] is too large to draw from")
    assert caught == [] and load.call_count == 0 and list(tmp_path.iterdir()) == []


# every output option of the dataset commands, and what else each run needs
DATASET_OUTPUTS = {
    "search": (["--step", "0.5"], ["--out", "--csv-out", "--heatmap-out"]),
    "availability": ([], ["--out", "--csv-out"]),
    "mc-uncertainty": (["--sampler", '{"kind": "dirichlet"}', "--draws", "2"],
                       ["--out", "--csv-out", "--volumes-out"]),
}
OUTPUT_PROBES = [(command, option, kind) for command, (_, options) in DATASET_OUTPUTS.items()
                 for option in options for kind in ("under a file", "of the other kind")]


@pytest.mark.parametrize("command, option, kind", OUTPUT_PROBES,
                         ids=[f"{c}{o}-{k.replace(' ', '-')}" for c, o, k in OUTPUT_PROBES])
def test_an_unusable_output_path_fails_before_any_read_or_write(command, option, kind,
                                                                argv_dataset):
    # one line naming the option and the path, with no volume read, nothing
    # printed and nothing written, not even the other outputs
    root, files = argv_dataset
    work = Path(tempfile.mkdtemp(dir=root))
    (work / "afile").write_text("a file")
    (work / "adir").mkdir()
    if kind == "under a file":
        bad = "afile/x.out"
    else:
        bad = "afile" if option == "--volumes-out" else "adir"
    extra, options = DATASET_OUTPUTS[command]
    argv = [command, files["{M}"], *extra]
    for name in options:
        argv += [name, bad if name == option else f"new/{name[2:]}"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(volio, "load_volume", wraps=volio.load_volume) as load, \
            contextlib.chdir(work), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code == 2 and err.count("\n") == 1, err
    assert err.startswith(f"data error: {option} {bad}: cannot write a "), err
    assert load.call_count == 0 and stdout.getvalue() == ""
    assert sorted(p.name for p in work.iterdir()) == ["adir", "afile"]
    assert not any((work / "adir").iterdir()) and (work / "afile").read_text() == "a file"


@pytest.mark.parametrize("probe", ["manifest", "sidecar", "out"])
def test_a_path_with_a_newline_prints_one_escaped_error_line(probe, argv_dataset, tmp_path,
                                                             capsys, monkeypatch):
    _, files = argv_dataset
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o\nut").mkdir()
    argv, needle = {
        "manifest": (["search", "bad\nname.json"], "manifest bad\\nname.json does not exist"),
        "sidecar": (["evaluate", "p\nq.u8", files["{TRUTH}"]], "missing sidecar p\\nq.u8.json"),
        "out": (["evaluate", files["{TRUTH}"], files["{TRUTH}"], "--out", "o\nut"],
                "--out o\\nut: cannot write a file there: it is a directory"),
    }[probe]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1 and needle in err, err


ALPHA_RULE = '{"alpha": [0.5, 0.5, 0.0]}'


@pytest.mark.parametrize("argv, option, path", [
    (["evaluate", "{TRUTH}", "{TRUTH}", "--out", "afile/x.json"], "--out", "afile/x.json"),
    (["evaluate", "{T2W}", "{TRUTH}", "--csv-out", "afile/x.csv"], "--csv-out", "afile/x.csv"),
    (["combine", "{T2W}", "{DWI}", "{ADC}", "--rule", ALPHA_RULE, "--out", "afile/c.f32le"],
     "--out", "afile/c.f32le"),
    (["combine", "{T2W}", "{DWI}", "{ADC}", "--rule", ALPHA_RULE, "--out", "c.f32le",
      "--mask-out", "afile/m.u8"], "--mask-out", "afile/m.u8"),
])
def test_evaluate_and_combine_check_their_outputs_before_reading(argv, option, path,
                                                                   argv_dataset, tmp_path,
                                                                   capsys, monkeypatch):
    # an output under a regular file is refused by name, before any volume is read
    _, files = argv_dataset
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("a file")
    reads = []
    load_any_volume = volio.load_any_volume
    monkeypatch.setattr(volio, "load_any_volume",
                        lambda p: reads.append(p) or load_any_volume(p))
    assert main([files.get(arg, arg) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err == (f"data error: {option} {path}: cannot write a file there: "
                   f"afile is not a directory\n")
    assert reads == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("argv, first, second, path", [
    (["search", "{M}", "--step", "0.5", "--out", "x", "--csv-out", "x", "--heatmap-out", "x"],
     "--out", "--csv-out", "x"),
    (["search", "{M}", "--step", "0.5", "--csv-out", "r.csv", "--heatmap-out", "./r.csv"],
     "--csv-out", "--heatmap-out", "./r.csv"),
    (["evaluate", "{TRUTH}", "{TRUTH}", "--out", "r", "--csv-out", "new/../r"],
     "--out", "--csv-out", "new/../r"),
    (["availability", "{M}", "--out", "r", "--csv-out", "r"], "--out", "--csv-out", "r"),
    (["combine", "{T2W}", "{DWI}", "{ADC}", "--rule", ALPHA_RULE, "--out", "c.f32le",
      "--mask-out", "c.f32le"], "--out", "--mask-out", "c.f32le"),
    (["combine", "{T2W}", "{DWI}", "{ADC}", "--rule", ALPHA_RULE, "--out", "c.f32le",
      "--mask-out", "c.f32le.json"], "--out", "--mask-out", "c.f32le"),
    (["combine", "{T2W}", "{DWI}", "{ADC}", "--rule", ALPHA_RULE, "--out", "c.u8.json",
      "--mask-out", "c.u8"], "--out", "--mask-out", "c.u8"),
    (["mc-uncertainty", "{M}", "--sampler", '{"kind": "dirichlet"}', "--draws", "2",
      "--volumes-out", "v", "--out", "v/case_0001_variance.f32le.json"],
     "--out", "--volumes-out", "v/case_0001_variance.f32le.json"),
    (["mc-uncertainty", "{M}", "--sampler", '{"kind": "dirichlet"}', "--draws", "2",
      "--volumes-out", "v", "--csv-out", "v/case_0003_variance.f32le"],
     "--csv-out", "--volumes-out", "v/case_0003_variance.f32le"),
], ids=["search-all-three", "search-csv-heatmap", "evaluate", "availability",
        "combine-payload", "combine-sidecar", "combine-payload-of-a-sidecar", "mc-sidecar",
        "mc-payload"])
def test_two_outputs_that_write_one_file_are_one_usage_line(argv, first, second, path,
                                                           argv_dataset, tmp_path, capsys,
                                                           monkeypatch):
    # they used to overwrite each other and exit 0; now the run stops with
    # one line naming both, before any volume is read or anything written
    _, files = argv_dataset
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(volio, "load_volume", wraps=volio.load_volume) as load:
        assert main([files.get(arg, arg) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert err == f"usage error: {first} and {second} both write {path}\n"
    assert out == "" and load.call_count == 0 and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["search", "{M}", "--step", "0.5", "--out", "d", "--heatmap-out", "d/h.csv"],
     "--heatmap-out writes d/h.csv inside d, which --out writes as a file"),
    (["search", "{M}", "--step", "0.5", "--csv-out", "d/e/r.csv", "--heatmap-out", "d/./e"],
     "--csv-out writes d/e/r.csv inside d/./e, which --heatmap-out writes as a file"),
    (["mc-uncertainty", "{M}", "--sampler", '{"kind": "dirichlet"}', "--draws", "2",
      "--volumes-out", "v", "--out", "v"],
     "--volumes-out writes v/case_0000_variance.f32le inside v, which --out writes as a file"),
], ids=["search-out-heatmap", "search-csv-heatmap", "mc-volumes-out"])
def test_an_output_file_another_output_needs_as_a_directory_is_one_usage_line(
        argv, message, argv_dataset, tmp_path, capsys, monkeypatch):
    # they used to run every split or draw, write what they could and exit 2
    # on the file that was in the way; now the run stops with one line naming
    # both, before any volume is read or anything written
    _, files = argv_dataset
    monkeypatch.chdir(tmp_path)
    with mock.patch.object(volio, "load_volume", wraps=volio.load_volume) as load:
        assert main([files.get(arg, arg) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert err == f"usage error: {message}\n"
    assert out == "" and load.call_count == 0 and list(tmp_path.iterdir()) == []


def test_ctrl_c_stops_a_two_worker_search_with_one_line(tmp_path):
    # SIGINT goes to the whole process group, as a terminal sends it, once
    # the search has forked its worker
    manifest, _ = generate_dataset(3, 24, PhantomSpec(dims=(24, 24, 24), n_lesions=1,
                                                      radius_range=(3.0, 5.0)), tmp_path / "ds")
    out = tmp_path / "search.json"
    src = str(Path(rulefuse.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "rulefuse", "--threads", "2", "search", str(manifest),
         "--split", "train", "--step", "0.02", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 60
        while proc.poll() is None and time.monotonic() < deadline:
            if not children.exists() or children.read_text().split():
                break
            time.sleep(0.01)
        if not children.exists():
            pytest.skip("no /proc children list to see the worker forked")
        assert proc.poll() is None, proc.communicate()
        time.sleep(0.2)  # past the fork's own bookkeeping, into the sweep
        os.killpg(proc.pid, signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, stderr, stdout) == (130, "interrupted\n", "")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process of the group is left
    assert not out.exists()


def test_ctrl_c_while_a_worker_is_forked_is_not_lost(tmp_path):
    # the interrupt is sent by an at-fork handler in the parent, as if it
    # landed while the fork ran its handlers; it must still stop the run
    manifest, _ = generate_dataset(3, 8, PhantomSpec(dims=(16, 16, 16), n_lesions=1,
                                                     radius_range=(3.0, 5.0)), tmp_path / "ds")
    out = tmp_path / "search.json"
    argv = ["--threads", "2", "search", str(manifest), "--split", "train", "--step", "0.5",
            "--out", str(out)]
    script = "\n".join([
        "import os, signal, sys",
        "from rulefuse import cli, discovery",
        "discovery._usable_cpus = lambda: 2",
        "os.register_at_fork(after_in_parent=lambda: os.kill(os.getpid(), signal.SIGINT))",
        f"sys.exit(cli.main({argv!r}))",
    ])
    src = str(Path(rulefuse.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (130, "interrupted\n", "")
    assert not out.exists()


def _zone_reads(argv, capsys, monkeypatch, every_zone=False):
    """(exit code, stdout, {zone name: volumes read}, cases read) of one run;
    with `every_zone` the manifest's every zone is read, as it was before
    only the configured one was."""
    reads = []
    load_volume, case_sources = volio.load_volume, volio.case_sources
    monkeypatch.setattr(volio, "load_volume",
                        lambda path: reads.append(Path(path).name) or load_volume(path))
    if every_zone:
        monkeypatch.setattr(volio, "case_sources",
                            lambda path, split=None, zones=None: case_sources(path, split))
    code = main(argv)
    monkeypatch.undo()
    out = capsys.readouterr().out
    zones = {name: reads.count(f"zone_{name}.u8") for name in ("PZ", "TZ")}
    return code, out, zones, reads.count("truth.u8")


@pytest.mark.parametrize("command", ["search", "availability", "mc-uncertainty"])
def test_only_the_configured_zone_is_read(command, argv_dataset, capsys, monkeypatch):
    _, files = argv_dataset
    argv = [command, files["{M}"]]
    if command == "mc-uncertainty":
        argv += ["--sampler", '{"kind": "dirichlet"}', "--draws", "3"]
    for zone_argv, read in (([], {"PZ": False, "TZ": False}),
                            (["--zone", "PZ"], {"PZ": True, "TZ": False})):
        code, out, zones, cases = _zone_reads(argv + zone_argv, capsys, monkeypatch)
        assert code == 0 and cases > 0
        assert zones == {name: cases if read[name] else 0 for name in zones}
        old_code, old_out, old_zones, _ = _zone_reads(argv + zone_argv, capsys, monkeypatch,
                                                      every_zone=True)
        assert (old_code, old_zones) == (0, {"PZ": cases, "TZ": cases})
        assert out.encode() == old_out.encode()


def test_a_bad_zone_file_fails_only_the_runs_that_ask_for_it(argv_dataset, tmp_path, capsys):
    ds = tmp_path / "ds"
    shutil.copytree(Path(argv_dataset[1]["{M}"]).parent, ds)
    for zone in ds.glob("*/zone_TZ.u8"):
        zone.write_bytes(b"\x07")
    manifest = str(ds / "manifest.json")
    assert main(["search", manifest]) == 0
    assert main(["search", manifest, "--zone", "PZ"]) == 0
    capsys.readouterr()
    assert main(["search", manifest, "--zone", "TZ"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1 and "zone_TZ.u8" in err, err


# --- streaming: a dataset command loads one case at a time ----------------------------


@pytest.fixture(scope="module")
def stream_dataset(tmp_path_factory):
    """A 12-case 16³ phantom (train 8, validation 2, test 2): (manifest, train case ids)."""
    root = tmp_path_factory.mktemp("stream_ds")
    spec = PhantomSpec(dims=(16, 16, 16), n_lesions=1, radius_range=(3.0, 5.0))
    manifest, _ = generate_dataset(9, 12, spec, root / "ds")
    entries = json.loads(manifest.read_text())["cases"]
    train = sorted(e["case_id"] for e in entries if e["split"] == "train")
    assert len(train) == 8
    return manifest, train


STREAM_COMMANDS = {
    "search": ["search", "{M}", "--split", "train", "--eval-split", "test", "--step", "0.25",
               "--csv-out", "{OUT}/ranked.csv", "--heatmap-out", "{OUT}/heatmap.csv"],
    "availability": ["availability", "{M}", "--split", "train", "--csv-out", "{OUT}/table.csv"],
    "mc-uncertainty": ["mc-uncertainty", "{M}", "--split", "train", "--draws", "3",
                       "--sampler", '{"kind": "dirichlet"}', "--volumes-out", "{OUT}/volumes"],
}


def _stream_argv(command, manifest, out_dir, threads="1"):
    argv = [arg.replace("{M}", str(manifest)).replace("{OUT}", str(out_dir))
            for arg in STREAM_COMMANDS[command]]
    return ["--threads", threads] + argv + ["--out", str(out_dir / "report.json")]


@pytest.mark.parametrize("command", sorted(STREAM_COMMANDS))
def test_a_dataset_command_holds_one_loaded_case_at_a_time(command, stream_dataset, tmp_path,
                                                         capsys, monkeypatch):
    manifest, train = stream_dataset
    made, live_at_make = [], []
    post_init = discovery.CaseRecord.__post_init__

    def counted(record):
        post_init(record)
        live_at_make.append(sum(ref() is not None for ref in made))
        made.append(weakref.ref(record))

    monkeypatch.setattr(discovery.CaseRecord, "__post_init__", counted)
    assert main(_stream_argv(command, manifest, tmp_path)) == 0, capsys.readouterr().err
    # search loads the train split, then the test split; the others only train
    assert len(made) == len(train) + (2 if command == "search" else 0)
    assert live_at_make == [0] * len(made)


@pytest.mark.parametrize("command", sorted(STREAM_COMMANDS))
def test_a_bad_volume_in_the_last_case_is_reported_when_reached_and_writes_nothing(
    command, stream_dataset, tmp_path, capsys, monkeypatch
):
    manifest, train = stream_dataset
    ds = tmp_path / "ds"
    shutil.copytree(Path(manifest).parent, ds)
    bad = ds / train[-1] / "DWI_hb.f32le"
    bad.write_bytes(bad.read_bytes()[:-4])
    set_up = []
    case_setup = discovery._case_setup
    monkeypatch.setattr(discovery, "_case_setup",
                        lambda case, config: set_up.append(case.case_id) or case_setup(case, config))
    errors = []
    for threads in ("1", "2"):
        out_dir = tmp_path / f"out{threads}"
        set_up.clear()
        assert main(_stream_argv(command, ds / "manifest.json", out_dir, threads)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: payload {bad}: expected ") and err.count("\n") == 1, err
        assert not out_dir.exists() or not any(out_dir.rglob("*"))
        errors.append(err)
        if threads == "1":  # every case before the bad one was scored before it was read
            assert set_up == train[:-1]
    assert errors[0] == errors[1]


# --- console script ----------------------------------------------------------------------


def test_console_script_entry_point():
    exe = shutil.which("rulefuse")
    assert exe, "rulefuse console script not installed"
    proc = subprocess.run([exe, "fit", "--zone", "PZ", "--model", "linear"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("rule 119 (PZ)")
