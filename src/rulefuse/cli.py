"""Command-line surface.

Exit codes: 0 success, 1 usage error (bad flags, out-of-range option values,
malformed inline JSON, a diverging fit), 2 data error (missing/invalid files,
misaligned volumes, failed generation).
All output is deterministic for fixed seeds: reports round floats to 6
significant digits and contain no timestamps.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import discovery, phantoms, sampling, volio
from .combine import binarize, combine_linear, combine_stacking, combine_vote
from .errors import DataError, DivergenceError, PackingError, RuleFuseError
from .fitting import (
    DEFAULT_LEARNING_RATE,
    DEFAULT_MAX_ITERS,
    LinearRule,
    StackingRule,
    fit_linear,
    fit_stacking,
)
from .metrics import MetricsConfig, evaluate as evaluate_masks
from .rules import (
    PIRADS_RULE_NUMBERS,
    Zone,
    canonical_condition_matrix,
    decision_from_number,
    DecisionVector,
)
from .volumes import LabelVolume, ProbabilityVolume


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2 for data errors
        raise UsageError(message)


def _load_json_arg(text: str, what: str):
    """Accept inline JSON or a path to a JSON file."""
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            return json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise UsageError(f"invalid inline JSON for {what}: {exc}") from None
    path = Path(text)
    if not path.exists():
        raise DataError(f"{what} file {path} does not exist")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{what} file {path} is not valid JSON: {exc}") from None


def _opt(args, config: dict, name: str, default):
    """Layering: explicit flag > --config entry > built-in default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _opt_as(convert, args, config: dict, name: str, default):
    """`_opt` converted by `convert` (float or int); a UsageError naming the
    option when its value does not convert."""
    value = _opt(args, config, name, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise UsageError(f"option {name}: cannot read {value!r} as {convert.__name__}") from None


def _opt_path(args, config: dict, name: str):
    """`_opt` for a file path with no default: None when not given, else a
    non-empty string; a UsageError naming the option otherwise."""
    value = _opt(args, config, name, None)
    if value is not None and not (isinstance(value, str) and value):
        raise UsageError(f"option {name}: expected a non-empty path string, got {value!r}")
    return value


def _decision_for(args) -> DecisionVector:
    given = [args.rule_number is not None, args.zone is not None, args.bits is not None]
    if sum(given) != 1:
        raise UsageError("specify exactly one of --rule-number, --zone, --bits")
    if args.rule_number is not None:
        if not 0 <= args.rule_number <= 255:
            raise UsageError(f"--rule-number must be in [0, 255], got {args.rule_number}")
        return decision_from_number(args.rule_number)
    if args.zone is not None:
        zone = Zone(args.zone)
        return decision_from_number(PIRADS_RULE_NUMBERS[zone], zone=zone)
    bits = args.bits
    if len(bits) != 8 or set(bits) - {"0", "1"}:
        raise UsageError(f"--bits must be 8 characters of 0/1, got {bits!r}")
    return DecisionVector(np.array([int(b) for b in bits], dtype=bool))


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in values) + "]"


def cmd_fit(args, config) -> int:
    decision = _decision_for(args)
    R = canonical_condition_matrix()
    model = _opt(args, config, "model", "both")
    if model not in ("linear", "stacking", "both"):
        raise UsageError(f"--model must be linear, stacking or both, got {model!r}")
    lr = _opt_as(float, args, config, "lr", DEFAULT_LEARNING_RATE)
    iters = _opt_as(int, args, config, "iters", DEFAULT_MAX_ITERS)
    reports = {}
    label = f"rule {decision.number}" + (
        f" ({decision.zone.value})" if decision.zone != Zone.CUSTOM else ""
    )
    print(label)
    if model in ("linear", "both"):
        rep = fit_linear(R, decision)
        reports["linear"] = rep.to_dict()
        line = f"  linear    alpha = {_fmt_vec(rep.coefficients)}  residual = {rep.residual:.6g}"
        if rep.t_stats is not None:
            line += f"  T = {_fmt_vec(rep.t_stats)}"
        print(line)
    if model in ("stacking", "both"):
        rep = fit_stacking(R, decision, learning_rate=lr, max_iters=iters)
        reports["stacking"] = rep.to_dict()
        print(
            f"  stacking  beta = {_fmt_vec(rep.coefficients)}  "
            f"odds = {_fmt_vec(rep.odds_ratios)}  residual = {rep.residual:.6g}"
        )
    if args.out:
        volio.write_report(reports, "json", args.out)
    return 0


def cmd_sample(args, config) -> int:
    model = _opt(args, config, "model", "stacking")
    fmt = _opt(args, config, "format", "json")
    if model == "stacking":
        eta = _opt_as(float, args, config, "eta", sampling.DEFAULT_ETA)
        lr = _opt_as(float, args, config, "lr", DEFAULT_LEARNING_RATE)
        iters = _opt_as(int, args, config, "iters", DEFAULT_MAX_ITERS)
        n_rules = _opt_as(int, args, config, "n_rules", 256)
        ruleset = sampling.rejection_sample_stacking(
            n_rules=n_rules, eta=eta, learning_rate=lr, max_iters=iters
        )
        text = volio.write_report(ruleset, fmt, args.out)
        if not args.out:
            sys.stdout.write(text)
        else:
            print(f"accepted {ruleset.accepted_count} of {n_rules} rules (eta={eta:.6g}) -> {args.out}")
        return 0
    if model == "linear":
        if _opt(args, config, "grid_step", None) is not None:
            step = _opt_as(float, args, config, "grid_step", None)
            rules = sampling.simplex_grid(step)
            doc = {"model": "linear", "grid_step": step,
                   "rules": [list(r.as_tuple()) for r in rules]}
        else:
            n = _opt_as(int, args, config, "n", 10)
            conc = _opt(args, config, "concentration", (1.0, 1.0, 1.0))
            if isinstance(conc, str):
                conc = tuple(float(c) for c in conc.split(","))
            rules = [
                sampling.sample_dirichlet([args.seed, i], concentration=conc)
                for i in range(n)
            ]
            doc = {"model": "linear", "seed": args.seed, "concentration": list(conc),
                   "rules": [list(r.as_tuple()) for r in rules]}
        text = volio.write_report(doc, "json", args.out)
        if not args.out:
            sys.stdout.write(text)
        return 0
    raise UsageError(f"--model must be linear or stacking, got {model!r}")


def _rule_from_spec(spec: dict):
    """Rule spec: {"model": "linear"|"stacking"|"vote", and one of
    "alpha", "beta", or "rule_number" (fitted with default settings)."""
    if not isinstance(spec, dict):
        raise UsageError("rule spec must be a JSON object")
    model = spec.get("model", "linear")
    if model == "vote":
        return "vote", None
    if model == "linear":
        if "alpha" in spec:
            return "linear", LinearRule(np.asarray(spec["alpha"], dtype=np.float64))
        if "rule_number" in spec:
            rep = fit_linear(canonical_condition_matrix(), decision_from_number(int(spec["rule_number"])))
            return "linear", rep.linear_rule()
        raise UsageError("linear rule spec needs 'alpha' or 'rule_number'")
    if model == "stacking":
        if "beta" in spec:
            return "stacking", StackingRule(np.asarray(spec["beta"], dtype=np.float64))
        if "rule_number" in spec:
            rep = fit_stacking(canonical_condition_matrix(), decision_from_number(int(spec["rule_number"])))
            return "stacking", rep.stacking_rule()
        raise UsageError("stacking rule spec needs 'beta' or 'rule_number'")
    raise UsageError(f"unknown rule model {model!r}")


def cmd_combine(args, config) -> int:
    spec = _load_json_arg(args.rule, "rule spec")
    try:
        model, rule = _rule_from_spec(spec)
    except (ValueError, RuleFuseError) as exc:
        raise UsageError(f"bad rule spec: {exc}") from None
    eval_cfg = _eval_config(args, config) if args.mask_out else None
    volumes = [volio.load_any_volume(p) for p in (args.t2w, args.dwi_hb, args.adc)]

    if model == "vote":
        for path, vol in zip((args.t2w, args.dwi_hb, args.adc), volumes):
            if not isinstance(vol, LabelVolume):
                raise DataError(f"vote combining requires binary masks, {path} is not one")
        result = combine_vote(volumes)
        volio.save_volume(result, args.out)
        print(f"vote mask -> {args.out} ({result.count()} positive voxels)")
        return 0

    for path, vol in zip((args.t2w, args.dwi_hb, args.adc), volumes):
        if not isinstance(vol, ProbabilityVolume):
            raise DataError(f"{model} combining requires probability volumes, {path} is not one")
    combined = (combine_linear if model == "linear" else combine_stacking)(volumes, rule)
    volio.save_volume(combined, args.out)
    print(f"combined map -> {args.out}")
    if args.mask_out:
        mask = _as_mask(combined, eval_cfg, "combined map")
        volio.save_volume(mask, args.mask_out)
        print(f"binarized mask -> {args.mask_out} ({mask.count()} positive voxels)")
    return 0


def _as_mask(volume, eval_cfg: discovery.EvalConfig, what: str) -> LabelVolume:
    """A mask as is; a probability volume binarized as the dataset sweeps do."""
    if isinstance(volume, LabelVolume):
        return volume
    if isinstance(volume, ProbabilityVolume):
        return binarize(
            volume,
            threshold=eval_cfg.threshold,
            min_region_voxels=eval_cfg.min_region_voxels,
            connectivity=eval_cfg.metrics.connectivity,
        )
    raise DataError(f"{what} is neither a mask nor a probability volume")


def _write_reports(result, args, config) -> int:
    """Print the report in --format, also to --out, and write its CSV form to --csv-out."""
    sys.stdout.write(volio.write_report(result, _opt(args, config, "format", "json"), args.out))
    if args.csv_out:
        volio.write_report(result, "csv", args.csv_out)
    return 0


def cmd_evaluate(args, config) -> int:
    eval_cfg = _eval_config(args, config)
    pred = _as_mask(volio.load_any_volume(args.pred), eval_cfg, "pred")
    truth = volio.load_any_volume(args.truth)
    if not isinstance(truth, LabelVolume):
        raise DataError("truth must be a label volume")
    zone = None
    if args.zone_mask:
        zone = volio.load_any_volume(args.zone_mask)
        if not isinstance(zone, LabelVolume):
            raise DataError("zone mask must be a label volume")
    report = evaluate_masks(pred, truth, eval_cfg.metrics, zone=zone)
    return _write_reports(report, args, config)


def _eval_config(args, config) -> discovery.EvalConfig:
    return discovery.EvalConfig(
        threshold=_opt_as(float, args, config, "threshold", 0.5),
        min_region_voxels=_opt_as(int, args, config, "min_region", 27),
        metrics=MetricsConfig(
            s_gt=_opt_as(float, args, config, "s_gt", 0.1),
            s_pred=_opt_as(float, args, config, "s_pred", 0.1),
            connectivity=_opt_as(int, args, config, "connectivity", 26),
        ),
        zone=_opt(args, config, "zone", None),
    )


def cmd_search(args, config) -> int:
    model = _opt(args, config, "model", "linear")
    rank_by = _opt(args, config, "rank_by", "dsc")
    rank_split = _opt(args, config, "split", "validation")
    eval_split = _opt(args, config, "eval_split", "test")
    if model not in ("linear", "stacking"):
        raise UsageError(f"--model must be linear or stacking, got {model!r}")
    if args.heatmap_out and model != "linear":
        raise UsageError("--heatmap-out only applies to linear search")
    eval_cfg = _eval_config(args, config)
    ruleset = None
    if model == "linear":
        step = _opt_as(float, args, config, "step", 0.1)
    else:
        rules_path = _opt_path(args, config, "rules")
        if rules_path is None:
            raise UsageError("--rules (SampledRuleSet JSON) is required for stacking search")
        ruleset = sampling.SampledRuleSet.load(rules_path)

    def run_split(split: str) -> discovery.GridSearchResult:
        cases, _ = volio.load_manifest(args.manifest, split=split)
        options = dict(rank_by=rank_by, config=eval_cfg, split=split, threads=args.threads)
        if ruleset is None:
            return discovery.grid_search_linear(cases, step=step, **options)
        return discovery.grid_search_stacking(cases, ruleset, **options)

    ranked = run_split(rank_split)
    held_out = run_split(eval_split)
    doc = {rank_split: ranked.to_dict(), eval_split: held_out.to_dict()}
    text = volio.write_report(doc, "json", args.out)
    sys.stdout.write(text)
    if args.csv_out:
        volio.write_report(ranked, "csv", args.csv_out)
    if args.heatmap_out:
        Path(args.heatmap_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.heatmap_out).write_text(volio.heatmap_csv(ranked))
    return 0


def cmd_availability(args, config) -> int:
    eval_cfg = _eval_config(args, config)
    cases, _ = volio.load_manifest(args.manifest, split=args.split)
    base = None
    if args.base_rule:
        spec = _load_json_arg(args.base_rule, "base rule")
        model, rule = _rule_from_spec(spec if isinstance(spec, dict) else {"model": "linear", "alpha": spec})
        if model != "linear":
            raise UsageError("availability base rule must be linear")
        base = rule
    table = discovery.availability_analysis(
        cases, base_rule=base, config=eval_cfg, threads=args.threads
    )
    return _write_reports(table, args, config)


def cmd_mc_uncertainty(args, config) -> int:
    sampler_cfg = _load_json_arg(args.sampler, "sampler config") if args.sampler else config.get("sampler")
    if not sampler_cfg:
        raise UsageError("--sampler (inline JSON or path) is required")
    rule_set = None
    if args.rules:
        rule_set = sampling.SampledRuleSet.load(args.rules)
    try:
        sampler = discovery.RuleSampler(sampler_cfg, rule_set=rule_set)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    eval_cfg = _eval_config(args, config)
    n_draws = _opt_as(int, args, config, "draws", 16)
    cases, _ = volio.load_manifest(args.manifest, split=args.split)
    volume_paths = {}  # checked before the run, so a bad case id costs no draws
    if args.volumes_out:
        volume_paths = {
            case.case_id: volio.case_file(args.volumes_out, case.case_id, "_variance.f32le")
            for case in cases
        }
    result = discovery.monte_carlo_uncertainty(
        cases, sampler, n_draws=n_draws, seed=args.seed, config=eval_cfg,
        threads=args.threads,
    )
    for case in result.cases:
        if case.case_id in volume_paths:
            var = np.clip(case.variance, 0.0, 1.0)
            volio.save_volume(
                ProbabilityVolume(var, spacing=case.spacing), volume_paths[case.case_id]
            )
    return _write_reports(result, args, config)


def cmd_phantom(args, config) -> int:
    spec_doc = _load_json_arg(args.spec, "phantom spec") if args.spec else config.get("phantom_spec", {})
    try:
        spec = phantoms.PhantomSpec.from_dict(spec_doc)
    except ValueError as exc:
        raise UsageError(f"bad phantom spec: {exc}") from None
    n_cases = _opt_as(int, args, config, "n_cases", 10)
    try:
        manifest_path, cases = phantoms.generate_dataset(args.seed, n_cases, spec, args.out_dir)
    except PackingError as exc:
        raise DataError(str(exc)) from None
    counts: dict[str, int] = {}
    doc = json.loads(manifest_path.read_text())
    for entry in doc["cases"]:
        counts[entry["split"]] = counts.get(entry["split"], 0) + 1
    summary = {
        "manifest": str(manifest_path),
        "n_cases": len(cases),
        "splits": {k: counts.get(k, 0) for k in discovery.SPLIT_NAMES},
    }
    sys.stdout.write(volio.write_report(summary, "json", None))
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="rulefuse", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed (default 0)")
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker processes for dataset commands, this one included; capped at the "
             "usable CPUs, inline where fork is unavailable (default 1)",
    )
    parser.add_argument("--config", default=None, help="JSON file with option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit linear and stacking rules to a decision vector")
    p.add_argument("--rule-number", type=int, default=None)
    p.add_argument("--zone", choices=[z.value for z in PIRADS_RULE_NUMBERS], default=None)
    p.add_argument("--bits", default=None, help="8 decision bits, e.g. 00111111")
    p.add_argument("--model", choices=["linear", "stacking", "both"], default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--out", default=None, help="write FitReport JSON here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="sample rules (Dirichlet/grid or rejection-sampled stacking)")
    p.add_argument("--model", choices=["linear", "stacking"], default=None)
    p.add_argument("--eta", type=float, default=None, help="acceptance threshold (stacking)")
    p.add_argument("--n-rules", type=int, default=None, help="enumerate rules 0..N-1 (default 256)")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="number of Dirichlet draws (linear)")
    p.add_argument("--concentration", default=None, help="Dirichlet concentration a,b,c")
    p.add_argument("--grid-step", type=float, default=None, help="emit the simplex grid instead")
    p.add_argument("--format", choices=["json", "csv"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    # flags shared by several subcommands, each declared once
    mask_flags = Parser(add_help=False)
    mask_flags.add_argument("--threshold", type=float, default=None)
    mask_flags.add_argument("--min-region", type=int, default=None)
    mask_flags.add_argument("--connectivity", type=int, default=None)
    lesion_flags = Parser(add_help=False)
    lesion_flags.add_argument("--s-gt", type=float, default=None)
    lesion_flags.add_argument("--s-pred", type=float, default=None)
    zone_flag = Parser(add_help=False)
    zone_flag.add_argument("--zone", default=None)
    report_flags = Parser(add_help=False)
    report_flags.add_argument("--format", choices=["json", "csv"], default=None)
    report_flags.add_argument("--out", default=None)
    report_flags.add_argument("--csv-out", default=None)

    p = sub.add_parser("combine", help="apply a rule to three aligned volumes",
                       parents=[mask_flags])
    p.add_argument("t2w")
    p.add_argument("dwi_hb")
    p.add_argument("adc")
    p.add_argument("--rule", required=True, help="rule spec, inline JSON or path")
    p.add_argument("--out", required=True, help="output payload path")
    p.add_argument("--mask-out", default=None, help="also write the binarized mask here")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("evaluate", help="score a prediction against a truth mask",
                       parents=[mask_flags, lesion_flags, report_flags])
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--zone-mask", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("search", help="grid-search rules on one split, re-evaluate on another",
                       parents=[mask_flags, lesion_flags, zone_flag])
    p.add_argument("manifest")
    p.add_argument("--model", choices=["linear", "stacking"], default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--rules", default=None, help="SampledRuleSet JSON (stacking)")
    p.add_argument("--rank-by", choices=list(discovery.RANK_METRICS), default=None)
    p.add_argument("--split", default=None, help="ranking split (default validation)")
    p.add_argument("--eval-split", default=None, help="held-out split (default test)")
    p.add_argument("--out", default=None)
    p.add_argument("--csv-out", default=None)
    p.add_argument("--heatmap-out", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("availability", help="modality-subset analysis vs a base rule",
                       parents=[mask_flags, lesion_flags, zone_flag, report_flags])
    p.add_argument("manifest")
    p.add_argument("--split", default=None)
    p.add_argument("--base-rule", default=None, help="linear rule spec (default equal thirds)")
    p.set_defaults(func=cmd_availability)

    p = sub.add_parser("mc-uncertainty", help="Monte-Carlo variance over a rule distribution",
                       parents=[mask_flags, zone_flag, report_flags])
    p.add_argument("manifest")
    p.add_argument("--sampler", default=None, help="sampler config, inline JSON or path")
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--rules", default=None, help="SampledRuleSet JSON for stacking_set samplers")
    p.add_argument("--split", default=None)
    p.add_argument("--volumes-out", default=None, help="directory for per-case variance volumes")
    p.set_defaults(func=cmd_mc_uncertainty)

    p = sub.add_parser("phantom", help="generate a synthetic dataset with a manifest")
    p.add_argument("--spec", default=None, help="phantom spec, inline JSON or path")
    p.add_argument("--n-cases", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_phantom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        config = {}
        if args.config:
            config = _load_json_arg(args.config, "config")
            if not isinstance(config, dict):
                raise UsageError("--config must contain a JSON object")
        return args.func(args, config)
    except (UsageError, ValueError, DivergenceError) as exc:
        # out-of-range option values surface from the library as ValueError
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
