"""End-to-end gate: nine numbered checks, each printing one PASS/FAIL line.

Every check builds its reference values independently (closed forms, brute
force, or byte comparison) before touching the code under test, and enforces
the stated numeric tolerances and runtime budgets.
"""

import json
import time

import numpy as np

import oracles
from conftest import ACCEPTANCE_LINES
from rulefuse.cli import main as cli_main
from rulefuse.discovery import (
    assign_splits,
    evaluate_rule,
    grid_search_linear,
    monte_carlo_uncertainty,
    split_dataset,
)
from rulefuse.fitting import (
    LinearRule,
    fit_linear,
    fit_stacking,
    predict_decisions,
    t_statistics,
)
from rulefuse.metrics import (
    MetricsConfig,
    connected_components,
    dice,
    evaluate,
    hd95,
    lesion_precision_pred,
    lesion_recall_gt,
)
from rulefuse.phantoms import PhantomSpec, generate_cases
from rulefuse.rules import canonical_condition_matrix, decision_from_number
from rulefuse.sampling import rejection_sample_stacking
from rulefuse.volumes import LabelVolume, Modality, ProbabilityVolume


class _Criterion:
    """Emits `ACCEPTANCE n (name): PASS|FAIL` on exit."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        line = f"ACCEPTANCE {self.number} ({self.name}): {status}"
        if self.detail:
            line += f" — {self.detail}"
        if exc_type is not None:
            line += f" [{exc}]"
        print(line, flush=True)
        ACCEPTANCE_LINES.append(line)
        return False


R = canonical_condition_matrix()

TABLE_LINEAR = {
    63: ([0.4545, 0.4545, 0.0909], 0.0781),
    31: ([0.60, 0.20, 0.20], 0.0625),
    119: ([0.0909, 0.4545, 0.4545], 0.0781),
}


def test_criterion_1_linear_fits():
    with _Criterion(1, "table-2 linear fits") as c:
        fit_linear(R, decision_from_number(63))  # warm numpy paths before timing
        t0 = time.perf_counter()
        reports = {n: fit_linear(R, decision_from_number(n)) for n in TABLE_LINEAR}
        elapsed = time.perf_counter() - t0
        for n, (alpha, residual) in TABLE_LINEAR.items():
            got = reports[n]
            np.testing.assert_allclose(got.coefficients, alpha, atol=5e-4)
            assert abs(got.residual - residual) <= 5e-4, (n, got.residual)
        assert elapsed < 1e-3, f"linear fits took {elapsed * 1e3:.2f} ms"
        c.detail = f"3 fits in {elapsed * 1e6:.0f} µs"


def _t_stats_oracle(rule_number: int) -> np.ndarray:
    """Independent recomputation from the normal equations."""
    Rm = np.array([[float(b) for b in row] for row in R.entries])
    d = decision_from_number(rule_number).as_float()
    gram = Rm @ Rm.T
    x = np.linalg.solve(gram, Rm @ d)
    var_d = d.var(ddof=1)
    cov = var_d * np.linalg.inv(gram)
    return x / np.sqrt(np.diag(cov))


def test_criterion_2_t_statistics():
    with _Criterion(2, "table-2 t-statistics") as c:
        printed = {63: [2.2048, 2.2048, 0.4410], 31: [2.3664, 0.7888, 0.7888]}
        derived_pz = _t_stats_oracle(119)
        np.testing.assert_allclose(derived_pz, [0.4410, 2.2047, 2.2047], atol=1e-3)
        for n, expected in printed.items():
            report = fit_linear(R, decision_from_number(n))
            stats = t_statistics(report, decision_from_number(n))
            np.testing.assert_allclose(stats, expected, atol=1e-3)
            np.testing.assert_allclose(stats, _t_stats_oracle(n), atol=1e-9)
        report = fit_linear(R, decision_from_number(119))
        stats = t_statistics(report, decision_from_number(119))
        np.testing.assert_allclose(stats, derived_pz, atol=1e-9)
        c.detail = "WG/TZ vs printed values, PZ vs derived oracle"


TABLE_SIGNS = {  # None = |β| < 1 expected, sign not meaningful
    63: (1, 1, None, -1),
    31: (1, 1, 1, -1),
    119: (None, 1, 1, -1),
}


def test_criterion_3_stacking_fits():
    with _Criterion(3, "table-2 stacking fits") as c:
        fit_stacking(R, decision_from_number(0), max_iters=2)  # trigger the JIT once
        t0 = time.perf_counter()
        reports = {n: fit_stacking(R, decision_from_number(n)) for n in TABLE_SIGNS}
        elapsed = time.perf_counter() - t0
        for n, signs in TABLE_SIGNS.items():
            report = reports[n]
            assert report.residual <= 1e-5, (n, report.residual)
            bits = predict_decisions(R, report.stacking_rule())
            np.testing.assert_array_equal(bits, decision_from_number(n).bits)
            beta = report.coefficients
            for b, expected in zip(beta, signs):
                if abs(b) >= 1.0:
                    assert expected is not None and np.sign(b) == expected, (n, beta)
        assert elapsed < 5.0, f"stacking fits took {elapsed:.2f} s"
        c.detail = f"3 fits in {elapsed * 1e3:.0f} ms, residuals ≤ 1e-5"


def test_criterion_4_separability_sweep():
    with _Criterion(4, "separability sweep") as c:
        # oracle first: exhaustive threshold functions over the 8 conditions
        t0 = time.perf_counter()
        oracle = oracles.separable_rule_numbers()
        assert len(oracle) == 104, len(oracle)

        fit_stacking(R, decision_from_number(0), max_iters=2)
        result = rejection_sample_stacking(n_rules=256)
        elapsed = time.perf_counter() - t0

        accepted = set(result.rule_numbers())
        mismatches = sorted(accepted ^ oracle)
        assert len(mismatches) <= 4, f"{len(mismatches)} mismatches: {mismatches}"
        assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
        c.detail = (
            f"accepted {result.accepted_count}/256 vs oracle {len(oracle)}, "
            f"mismatches {mismatches if mismatches else 'none'}, {elapsed:.1f} s"
        )


def test_criterion_5_metrics_vs_brute_force():
    with _Criterion(5, "metrics vs brute force") as c:
        rng = np.random.default_rng(20250825)
        spacing = (1.0, 1.5, 2.0)
        config = MetricsConfig()
        t0 = time.perf_counter()
        for i in range(200):
            a, b = oracles.random_mask_pair(rng, (16, 16, 16))
            pred = LabelVolume(a, spacing=spacing)
            truth = LabelVolume(b, spacing=spacing)

            assert dice(pred, truth) == oracles.dice_bf(a, b)

            got_hd = hd95(pred, truth)
            want_hd = oracles.hd95_bf(a, b, spacing)
            if want_hd is None:
                assert got_hd is None
            else:
                assert abs(got_hd - want_hd) <= 1e-6, (i, got_hd, want_hd)

            got_comps = {
                frozenset(map(tuple, comp.indices))
                for comp in connected_components(pred).components
            }
            want_comps = {
                frozenset(comp) for comp in oracles.flood_fill_components(a, 26)
            }
            assert got_comps == want_comps, f"pair {i}: component mismatch"

            assert lesion_recall_gt(pred, truth) == oracles.lesion_recall_bf(a, b, 0.1)
            assert lesion_precision_pred(pred, truth) == oracles.lesion_precision_bf(a, b, 0.1)

            # the aggregate report must agree with the standalone functions
            report = evaluate(pred, truth, config)
            assert report.dsc == oracles.dice_bf(a, b)
            assert report.recall_gt == oracles.lesion_recall_bf(a, b, 0.1)
            assert report.precision_pred == oracles.lesion_precision_bf(a, b, 0.1)
            assert report.n_gt_lesions == len(oracles.flood_fill_components(b, 26))
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"200 pairs took {elapsed:.1f} s"
        c.detail = f"200 pairs, 16³, spacing {spacing}, {elapsed:.1f} s"


RECOVERY_ALPHA = [0.5, 0.5, 0.0]
RECOVERY_SPEC = PhantomSpec(
    dims=(48, 48, 48),
    n_lesions=3,
    radius_range=(4.5, 9.0),
    fidelity=(0.5, 0.5, 0.5),
    noise_sd=0.25,
    planted_rule=LinearRule(np.array(RECOVERY_ALPHA)),
)


def test_criterion_6_planted_rule_recovery():
    with _Criterion(6, "planted-rule recovery") as c:
        t0 = time.perf_counter()
        failures = []
        for seed in range(20):
            cases = generate_cases(seed, 50, RECOVERY_SPEC)
            splits = split_dataset(
                cases, assign_splits([case.case_id for case in cases], seed)
            )
            val = grid_search_linear(splits["validation"], step=0.1, threads=4)
            test = grid_search_linear(splits["test"], step=0.1, threads=4)
            val_rank = val.rank_of_linear(RECOVERY_ALPHA)
            test_rank = test.rank_of_linear(RECOVERY_ALPHA)
            if not (val_rank == 1 and test_rank is not None and test_rank <= 3):
                failures.append((seed, val_rank, test_rank))
        elapsed = time.perf_counter() - t0
        assert len(failures) <= 1, f"failing seeds (seed, val, test): {failures}"
        assert elapsed < 300.0, f"20 seeds took {elapsed:.0f} s"
        c.detail = f"{20 - len(failures)}/20 seeds, {elapsed:.0f} s" + (
            f", misses {failures}" if failures else ""
        )


def test_criterion_7_two_modality_adequacy():
    with _Criterion(7, "two-modality adequacy") as c:
        spec = PhantomSpec(
            dims=(32, 32, 32),
            n_lesions=2,
            radius_range=(4.0, 7.0),
            fidelity=(0.6, 0.6, 0.0),  # third modality carries no signal
            noise_sd=0.25,
        )
        cases = generate_cases(7, 20, spec)
        result = grid_search_linear(cases, step=0.1, threads=4)
        best = result.rows[0]
        target = evaluate_rule(cases, LinearRule(np.array([0.5, 0.5, 0.0])), threads=4)
        gap = best.mean_dsc - target.mean_dsc
        assert gap <= 0.01, f"gap {gap:.4f} (best {best.rule.as_tuple()})"
        # non-vacuity: the grid must actually spread, or the check proves nothing
        assert best.mean_dsc - result.rows[-1].mean_dsc > 0.1
        c.detail = (
            f"[0.5,0.5,0] DSC {target.mean_dsc:.4f} vs best "
            f"{best.rule.as_tuple()} {best.mean_dsc:.4f}, gap {gap:.2g}"
        )


def _random_case(rng, dims=(12, 12, 12)) -> "CaseRecord":
    from rulefuse.discovery import CaseRecord

    truth = np.zeros(dims, dtype=bool)
    truth[3:8, 3:8, 3:8] = True
    mods = tuple(
        ProbabilityVolume(rng.random(dims), modality=m)
        for m in (Modality.T2W, Modality.DWI_HB, Modality.ADC)
    )
    return CaseRecord(case_id="mc_case", modalities=mods, truth=LabelVolume(truth))


def test_criterion_8_mc_exactness():
    with _Criterion(8, "mc-uncertainty exactness") as c:
        rng = np.random.default_rng(42)
        case = _random_case(rng)

        point = monte_carlo_uncertainty(
            [case],
            {"kind": "fixed", "model": "linear", "rules": [[0.2, 0.5, 0.3]]},
            n_draws=8,
            seed=0,
        )
        assert float(point.cases[0].variance.max()) == 0.0
        assert point.cases[0].dsc_variance == 0.0

        a = case.modalities[0].values
        b = case.modalities[1].values
        two = monte_carlo_uncertainty(
            [case],
            {"kind": "fixed", "model": "linear", "rules": [[1, 0, 0], [0, 1, 0]]},
            n_draws=10,
            seed=0,
        )
        expected_var = ((a - b) / 2.0) ** 2
        err = float(np.abs(two.cases[0].variance - expected_var).max())
        assert err <= 1e-12, err
        mean_err = float(np.abs(two.cases[0].mean - (a + b) / 2.0).max())
        assert mean_err <= 1e-12, mean_err
        c.detail = f"point-mass exact 0, two-rule max err {err:.1e}"


def _run_cli(argv) -> None:
    code = cli_main([str(a) for a in argv])
    assert code == 0, f"CLI exited {code} for {argv}"


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with _Criterion(9, "cli determinism") as c:
        ds = tmp_path / "ds"
        spec = json.dumps({"dims": [16, 16, 16], "n_lesions": 1, "radius_range": [3.0, 5.0]})
        _run_cli(["--seed", "11", "phantom", "--spec", spec, "--n-cases", "8", "--out-dir", ds])
        manifest = ds / "manifest.json"
        case0 = json.loads(manifest.read_text())["cases"][0]
        t2w = ds / case0["modalities"]["T2W"]
        dwi = ds / case0["modalities"]["DWI_hb"]
        adc = ds / case0["modalities"]["ADC"]
        truth = ds / case0["truth"]
        rule = '{"model": "linear", "alpha": [0.5, 0.25, 0.25]}'
        sampler = '{"kind": "dirichlet", "concentration": [4, 4, 4]}'

        def run_all(tag: str, threads: str) -> dict[str, bytes]:
            out = tmp_path / tag
            _run_cli(["--threads", threads, "fit", "--zone", "WG", "--out", out / "fit.json"])
            _run_cli(["--threads", threads, "sample", "--model", "stacking",
                      "--n-rules", "48", "--out", out / "rules.json"])
            _run_cli(["--threads", threads, "combine", t2w, dwi, adc, "--rule", rule,
                      "--out", out / "comb.f32le", "--mask-out", out / "mask.u8"])
            _run_cli(["--threads", threads, "evaluate", t2w, truth,
                      "--out", out / "eval.json", "--csv-out", out / "eval.csv"])
            _run_cli(["--threads", threads, "search", ds / "manifest.json", "--step", "0.25",
                      "--out", out / "search.json", "--csv-out", out / "search.csv",
                      "--heatmap-out", out / "heat.csv"])
            _run_cli(["--threads", threads, "availability", ds / "manifest.json",
                      "--split", "train", "--out", out / "avail.json"])
            _run_cli(["--seed", "3", "--threads", threads, "mc-uncertainty", ds / "manifest.json",
                      "--sampler", sampler, "--draws", "6", "--split", "train",
                      "--out", out / "mc.json", "--volumes-out", out / "mcvols"])
            _run_cli(["--seed", "11", "--threads", threads, "phantom", "--spec", spec,
                      "--n-cases", "4", "--out-dir", out / "phantom"])
            files = {}
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    files[str(path.relative_to(out))] = path.read_bytes()
            return files

        first = run_all("run1", "1")
        again = run_all("run2", "1")
        threaded = run_all("run4", "4")
        capsys.readouterr()  # swallow the CLI chatter
        assert first.keys() == again.keys() == threaded.keys()
        diffs = [
            name
            for name in first
            if first[name] != again[name] or first[name] != threaded[name]
        ]
        assert not diffs, f"non-deterministic outputs: {diffs}"
        c.detail = f"{len(first)} artifacts byte-identical across runs and thread counts"
