"""Command-line surface.

Exit codes: 0 success, 1 usage error (bad flags, out-of-range option values,
malformed inline JSON, a diverging fit), 2 data error (missing/invalid files,
misaligned volumes, failed generation, unusable output paths), 130 interrupted
(Ctrl-C).
All output is deterministic for fixed seeds: reports round floats to 6
significant digits and contain no timestamps.

Each option is declared once, in `build_parser`, with its type, choices and
default. A `Setting` option is taken from its flag, else from the `--config`
entry of its name (`_` for `-`), read through the same type and choices, else
from its default. Each command builds every library object its options
describe before it reads a file, so no usage error follows a volume read.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

from . import discovery, phantoms, sampling, volio
from .combine import binarize, combine_linear, combine_stacking, combine_vote
from .discovery import EvalConfig
from .errors import DataError, DivergenceError, RuleFuseError
from .fitting import (DEFAULT_LEARNING_RATE, DEFAULT_MAX_ITERS, LinearRule, StackingRule,
                      fit_linear, fit_stacking)
from .metrics import MetricsConfig, evaluate as evaluate_masks
from .rules import (PIRADS_RULE_NUMBERS, DecisionVector, Zone, canonical_condition_matrix,
                    decision_from_number)
from .volumes import LabelVolume, ProbabilityVolume


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2 for data errors
        raise UsageError(message)


class Setting(argparse.Action):
    """Stores an option that --config may also give, noting in `flags_given` that the flag was."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.flags_given = getattr(namespace, "flags_given", frozenset()) | {self.dest}


def _json(what: str):
    """Option type: inline JSON or a JSON file's path; a --config entry is JSON already."""
    def read(value):
        if not isinstance(value, str):
            return value
        if value.strip()[:1] in ("{", "["):
            try:
                return json.loads(value)
            except json.JSONDecodeError as exc:
                raise UsageError(f"invalid inline JSON for {what}: {exc}") from None
        path = Path(value)
        if not path.exists():
            raise DataError(f"{what} file {path} does not exist")
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataError(f"{what} file {path} is not valid JSON: {exc}") from None
    read.__name__ = what
    return read


def _path(value) -> str:
    """Option type: a non-empty path string."""
    if not (isinstance(value, str) and value):
        raise argparse.ArgumentTypeError(f"expected a non-empty path string, got {value!r}")
    return value


def _reals(value) -> tuple:
    """Option type: comma-separated reals, or a --config list of numbers, kept as given."""
    if isinstance(value, list) and all(type(v) in (int, float) for v in value):
        return tuple(value)
    try:
        return tuple(float(v) for v in value.split(","))
    except (AttributeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {value!r}") from None


def _default(func, name: str):
    """The library's own default for parameter `name` of `func`."""
    return inspect.signature(func).parameters[name].default


def _from_config(action: argparse.Action, value):
    """A --config entry read as the option's flag is: by its type, then its choices."""
    convert = action.type or str
    if value is None and action.default is None:
        return None  # null leaves an option that is off by default off
    try:
        if convert in (int, float) and isinstance(value, (int, float)):
            read = convert(json.dumps(value))  # a number's own text: true is no float, 2.5 no int
        elif convert in (int, float, str) and not isinstance(value, str):
            raise TypeError(value)
        else:
            read = convert(value)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"option {action.dest}: {exc}") from None
    except (TypeError, ValueError):
        raise UsageError(
            f"option {action.dest}: cannot read {value!r} as {convert.__name__}") from None
    if action.choices is not None and read not in action.choices:
        *others, last = action.choices
        raise UsageError(f"{action.option_strings[0]} must be {', '.join(others)} or {last}, "
                         f"got {read!r}")
    return read


def _apply_config(command: Parser, args) -> None:
    """Give each Setting whose flag was not given its --config entry, if any."""
    if not isinstance(args.config, dict):
        raise UsageError("--config must contain a JSON object")
    given = getattr(args, "flags_given", frozenset())
    for action in command._actions:
        if isinstance(action, Setting) and action.dest in args.config and action.dest not in given:
            setattr(args, action.dest, _from_config(action, args.config[action.dest]))


def _decision_for(args) -> DecisionVector:
    given = [args.rule_number is not None, args.zone is not None, args.bits is not None]
    if sum(given) != 1:
        raise UsageError("specify exactly one of --rule-number, --zone, --bits")
    if args.rule_number is not None:
        return decision_from_number(args.rule_number)  # ValueError outside [0, 255]
    if args.zone is not None:
        zone = Zone(args.zone)
        return decision_from_number(PIRADS_RULE_NUMBERS[zone], zone=zone)
    if len(args.bits) != 8 or set(args.bits) - {"0", "1"}:
        raise UsageError(f"--bits must be 8 characters of 0/1, got {args.bits!r}")
    return DecisionVector(np.array([int(b) for b in args.bits], dtype=bool))


def _fmt_vec(values) -> str:
    return "[" + ", ".join(f"{float(v):.6g}" for v in values) + "]"


def cmd_fit(args) -> int:
    decision = _decision_for(args)
    R = canonical_condition_matrix()
    reports = {}
    zone = f" ({decision.zone.value})" if decision.zone != Zone.CUSTOM else ""
    lines = [f"rule {decision.number}{zone}"]  # printed once every fit has succeeded
    if args.model in ("linear", "both"):
        rep = fit_linear(R, decision)
        reports["linear"] = rep.to_dict()
        line = f"  linear    alpha = {_fmt_vec(rep.coefficients)}  residual = {rep.residual:.6g}"
        if rep.t_stats is not None:
            line += f"  T = {_fmt_vec(rep.t_stats)}"
        lines.append(line)
    if args.model in ("stacking", "both"):
        rep = fit_stacking(R, decision, learning_rate=args.lr, max_iters=args.iters)
        reports["stacking"] = rep.to_dict()
        lines.append(f"  stacking  beta = {_fmt_vec(rep.coefficients)}  "
                     f"odds = {_fmt_vec(rep.odds_ratios)}  residual = {rep.residual:.6g}")
    print("\n".join(lines))
    if args.out:
        volio.write_report(reports, "json", args.out)
    return 0


def cmd_sample(args) -> int:
    if args.model == "stacking":
        ruleset = sampling.rejection_sample_stacking(
            n_rules=args.n_rules, eta=args.eta, learning_rate=args.lr, max_iters=args.iters
        )
        text = volio.write_report(ruleset, args.format, args.out)
        if not args.out:
            sys.stdout.write(text)
        else:
            print(f"accepted {ruleset.accepted_count} of {args.n_rules} rules "
                  f"(eta={args.eta:.6g}) -> {args.out}")
        return 0
    if args.grid_step is not None:
        rules = sampling.simplex_grid(args.grid_step)
        doc = {"model": "linear", "grid_step": args.grid_step}
    else:
        if args.n < 1:
            raise UsageError(f"--n must be >= 1, got {args.n}")
        rules = [sampling.sample_dirichlet([args.seed, i], concentration=args.concentration)
                 for i in range(args.n)]
        doc = {"model": "linear", "seed": args.seed, "concentration": list(args.concentration)}
    doc["rules"] = [list(r.as_tuple()) for r in rules]
    text = volio.write_report(doc, "json", args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


def _rule_from_spec(spec):
    """(model, rule) from a rule spec: {"model": "linear" (the default), "stacking"
    or "vote", and for the first two either the weights, "alpha" or "beta", or a
    "rule_number" fitted with default settings}; a UsageError for anything else."""
    if not isinstance(spec, dict):
        raise UsageError("bad rule spec: a rule spec must be a JSON object")
    model = spec.get("model", "linear")
    if model == "vote":
        return "vote", None
    if model not in ("linear", "stacking"):
        raise UsageError(f"bad rule spec: unknown rule model {model!r}")
    key, make, fit = ("alpha", LinearRule, fit_linear) if model == "linear" else (
        "beta", StackingRule, fit_stacking)
    try:
        if key in spec:
            weights = spec[key]
            if not (isinstance(weights, list) and all(type(w) in (int, float) for w in weights)):
                raise ValueError(f"{key} must be a list of numbers, got {weights!r}")
            return model, make(np.asarray(weights, dtype=np.float64))
        if "rule_number" in spec:
            number = spec["rule_number"]
            if type(number) is not int:
                raise ValueError(f"rule_number must be an integer, got {number!r}")
            rep = fit(canonical_condition_matrix(), decision_from_number(number))
            return model, rep.linear_rule() if model == "linear" else rep.stacking_rule()
        raise ValueError(f"{model} rule spec needs {key!r} or 'rule_number'")
    except (ValueError, OverflowError, RuleFuseError) as exc:
        raise UsageError(f"bad rule spec: {exc}") from None


def cmd_combine(args) -> int:
    model, rule = _rule_from_spec(args.rule)
    eval_cfg = _eval_config(args)
    _check_outputs(args, "--out", "--mask-out", volumes=("--out", "--mask-out"))
    paths = (args.t2w, args.dwi_hb, args.adc)
    volumes = [volio.load_any_volume(p) for p in paths]
    kind, kind_name = ((LabelVolume, "binary masks") if model == "vote"
                       else (ProbabilityVolume, "probability volumes"))
    for path, vol in zip(paths, volumes):
        if not isinstance(vol, kind):
            raise DataError(f"{model} combining requires {kind_name}, {path} is not one")
    if model == "vote":
        result = combine_vote(volumes)
        volio.save_volume(result, args.out)
        print(f"vote mask -> {args.out} ({result.count()} positive voxels)")
        return 0
    combined = (combine_linear if model == "linear" else combine_stacking)(volumes, rule)
    volio.save_volume(combined, args.out)
    print(f"combined map -> {args.out}")
    if args.mask_out:
        mask = _as_mask(combined, eval_cfg, "combined map")
        volio.save_volume(mask, args.mask_out)
        print(f"binarized mask -> {args.mask_out} ({mask.count()} positive voxels)")
    return 0


def _as_mask(volume, eval_cfg: EvalConfig, what: str) -> LabelVolume:
    """A mask as is; a probability volume binarized as the dataset sweeps do."""
    if isinstance(volume, LabelVolume):
        return volume
    if isinstance(volume, ProbabilityVolume):
        return binarize(volume, threshold=eval_cfg.threshold,
                        min_region_voxels=eval_cfg.min_region_voxels,
                        connectivity=eval_cfg.metrics.connectivity)
    raise DataError(f"{what} is neither a mask nor a probability volume")


def _write_reports(result, args) -> int:
    """Print the report in --format, also to --out, and write its CSV form to --csv-out."""
    sys.stdout.write(volio.write_report(result, args.format, args.out))
    if args.csv_out:
        volio.write_report(result, "csv", args.csv_out)
    return 0


def cmd_evaluate(args) -> int:
    eval_cfg = _eval_config(args)
    _check_outputs(args, "--out", "--csv-out")
    pred = _as_mask(volio.load_any_volume(args.pred), eval_cfg, "pred")
    truth = volio.load_any_volume(args.truth)
    if not isinstance(truth, LabelVolume):
        raise DataError("truth must be a label volume")
    zone = volio.load_any_volume(args.zone_mask) if args.zone_mask else None
    if zone is not None and not isinstance(zone, LabelVolume):
        raise DataError("zone mask must be a label volume")
    report = evaluate_masks(pred, truth, eval_cfg.metrics, zone=zone)
    return _write_reports(report, args)


def _eval_config(args) -> EvalConfig:
    """The binarization and scoring options; library defaults for those the command lacks."""
    options = vars(args)
    metrics = {key: options[key] for key in ("s_gt", "s_pred", "connectivity") if key in options}
    return EvalConfig(threshold=args.threshold, min_region_voxels=args.min_region,
                      metrics=MetricsConfig(**metrics), zone=options.get("zone"))


def _check_outputs(args, *options: str, volumes=(), written=None) -> None:
    """Check the files each output option given writes, before any volume is
    read: a UsageError naming two options that write one file, else each
    file as `volio.check_output` checks it. An option in `volumes` writes a
    volume's payload and sidecar; `written` maps more options to their files."""
    files = {}
    for option in options:
        path = getattr(args, option[2:].replace("-", "_"))
        if path is not None:
            files[option] = volio.volume_files(path) if option in volumes else (path,)
    files.update(written or {})
    owners = {}
    for option, paths in files.items():
        for path in paths:
            owner = owners.setdefault(Path(path).resolve(), option)
            if owner != option:
                raise UsageError(f"{owner} and {option} both write {path}")
    for option, paths in files.items():
        for path in paths:
            volio.check_output(path, option)


def _case_sources(args, split: str, eval_cfg: EvalConfig) -> list:
    """The sources of the manifest's cases in `split`, each to read only the
    configured zone's volumes; no volume is read until a sweep loads a case."""
    zones = [eval_cfg.zone] if eval_cfg.zone is not None else []
    return volio.case_sources(args.manifest, split=split, zones=zones)[0]


def cmd_search(args) -> int:
    if args.heatmap_out and args.model != "linear":
        raise UsageError("--heatmap-out only applies to linear search")
    eval_cfg = _eval_config(args)
    ruleset = None
    if args.model == "linear":
        sampling.simplex_grid(args.step)  # a step that does not divide 1 fails here
    else:
        if args.rules is None:
            raise UsageError("--rules (SampledRuleSet JSON) is required for stacking search")
        ruleset = sampling.SampledRuleSet.load(args.rules)
        if not ruleset.entries:
            raise UsageError(f"--rules {args.rules} holds no accepted rules")
    _check_outputs(args, "--out", "--csv-out", "--heatmap-out")

    def run_split(split: str) -> discovery.GridSearchResult:
        sources = _case_sources(args, split, eval_cfg)
        options = dict(rank_by=args.rank_by, config=eval_cfg, split=split, threads=args.threads)
        if ruleset is None:
            return discovery.grid_search_linear(sources, step=args.step, **options)
        return discovery.grid_search_stacking(sources, ruleset, **options)

    ranked = run_split(args.split)
    held_out = run_split(args.eval_split)
    doc = {args.split: ranked.to_dict(), args.eval_split: held_out.to_dict()}
    sys.stdout.write(volio.write_report(doc, "json", args.out))
    if args.csv_out:
        volio.write_report(ranked, "csv", args.csv_out)
    if args.heatmap_out:
        Path(args.heatmap_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.heatmap_out).write_text(volio.heatmap_csv(ranked))
    return 0


def cmd_availability(args) -> int:
    eval_cfg = _eval_config(args)
    base = None
    if args.base_rule is not None:
        spec = args.base_rule if isinstance(args.base_rule, dict) else {"alpha": args.base_rule}
        if spec.get("model", "linear") != "linear":
            raise UsageError("availability base rule must be linear")
        _, base = _rule_from_spec(spec)
    _check_outputs(args, "--out", "--csv-out")
    sources = _case_sources(args, args.split, eval_cfg)
    table = discovery.availability_analysis(sources, base_rule=base, config=eval_cfg,
                                            threads=args.threads)
    return _write_reports(table, args)


def cmd_mc_uncertainty(args) -> int:
    if not args.sampler:
        raise UsageError("--sampler (inline JSON or path) is required")
    rule_set = sampling.SampledRuleSet.load(args.rules) if args.rules else None
    try:
        sampler = discovery.RuleSampler(args.sampler, rule_set=rule_set)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    eval_cfg = _eval_config(args)
    discovery.check_draws(args.draws)
    _check_outputs(args, "--out", "--csv-out")
    if args.volumes_out is not None:
        volio.check_output(args.volumes_out, "--volumes-out", directory=True)
    sources = _case_sources(args, args.split, eval_cfg)
    # checked before the run, so a bad case id or file costs no draws
    volume_paths = {c.case_id: volio.case_file(args.volumes_out, c.case_id, "_variance.f32le")
                    for c in sources} if args.volumes_out else {}
    variance_files = [file for path in volume_paths.values()
                      for file in volio.volume_files(path)]
    _check_outputs(args, "--out", "--csv-out", written={"--volumes-out": variance_files})
    result = discovery.monte_carlo_uncertainty(
        sources, sampler, n_draws=args.draws, seed=args.seed, config=eval_cfg, threads=args.threads,
    )
    for case in result.cases:
        if case.case_id in volume_paths:
            var = ProbabilityVolume(np.clip(case.variance, 0.0, 1.0), spacing=case.spacing)
            volio.save_volume(var, volume_paths[case.case_id])
    return _write_reports(result, args)


def cmd_phantom(args) -> int:
    try:
        spec = phantoms.PhantomSpec.from_dict(args.phantom_spec)
    except ValueError as exc:
        raise UsageError(f"bad phantom spec: {exc}") from None
    manifest_path, entries = phantoms.generate_dataset(args.seed, args.n_cases, spec, args.out_dir)
    splits = [entry["split"] for entry in entries]
    summary = {"manifest": str(manifest_path), "n_cases": len(entries),
               "splits": {k: splits.count(k) for k in discovery.SPLIT_NAMES}}
    sys.stdout.write(volio.write_report(summary, "json", None))
    return 0


def build_parser() -> Parser:
    parser = Parser(prog="rulefuse", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed (default 0)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker processes for dataset commands, this one included; capped "
                             "at the usable CPUs and the cases, inline where fork is unavailable "
                             "(default 1)")
    parser.add_argument("--config", type=_json("config"), default={},
                        help="JSON object of option values, inline or a file's path")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def command(name: str, func, help: str, *parents: Parser) -> Parser:
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    # flags shared by several subcommands, each declared once
    descent_flags = Parser(add_help=False)
    descent_flags.add_argument("--lr", action=Setting, type=float, default=DEFAULT_LEARNING_RATE)
    descent_flags.add_argument("--iters", action=Setting, type=int, default=DEFAULT_MAX_ITERS)
    mask_flags = Parser(add_help=False)
    mask_flags.add_argument("--threshold", action=Setting, type=float, default=EvalConfig.threshold)
    mask_flags.add_argument("--min-region", action=Setting, type=int,
                            default=EvalConfig.min_region_voxels)
    mask_flags.add_argument("--connectivity", action=Setting, type=int,
                            default=MetricsConfig.connectivity)
    lesion_flags = Parser(add_help=False)
    lesion_flags.add_argument("--s-gt", action=Setting, type=float, default=MetricsConfig.s_gt)
    lesion_flags.add_argument("--s-pred", action=Setting, type=float, default=MetricsConfig.s_pred)
    zone_flag = Parser(add_help=False)
    zone_flag.add_argument("--zone", action=Setting, default=EvalConfig.zone)
    format_flag = Parser(add_help=False)
    format_flag.add_argument("--format", action=Setting, choices=("json", "csv"),
                             default=_default(volio.write_report, "fmt"))
    report_flags = Parser(add_help=False, parents=[format_flag])
    report_flags.add_argument("--out")
    report_flags.add_argument("--csv-out")

    p = command("fit", cmd_fit, "fit linear and stacking rules to a decision vector", descent_flags)
    p.add_argument("--rule-number", type=int)
    p.add_argument("--zone", choices=[z.value for z in PIRADS_RULE_NUMBERS])
    p.add_argument("--bits", help="8 decision bits, e.g. 00111111")
    p.add_argument("--model", action=Setting, choices=("linear", "stacking", "both"), default="both")
    p.add_argument("--out", help="write FitReport JSON here")

    p = command("sample", cmd_sample, "sample rules (Dirichlet/grid or rejection-sampled stacking)",
                descent_flags, format_flag)
    p.add_argument("--model", action=Setting, choices=("linear", "stacking"), default="stacking")
    p.add_argument("--eta", action=Setting, type=float, default=sampling.DEFAULT_ETA,
                   help="acceptance threshold (stacking)")
    p.add_argument("--n-rules", action=Setting, type=int, help="enumerate rules 0..N-1",
                   default=_default(sampling.rejection_sample_stacking, "n_rules"))
    p.add_argument("--n", action=Setting, type=int, default=10, help="Dirichlet draws (linear)")
    p.add_argument("--concentration", action=Setting, type=_reals, help="Dirichlet a,b,c",
                   default=_default(sampling.sample_dirichlet, "concentration"))
    p.add_argument("--grid-step", action=Setting, type=float, help="emit the simplex grid instead")
    p.add_argument("--out")

    p = command("combine", cmd_combine, "apply a rule to three aligned volumes", mask_flags)
    for name in ("t2w", "dwi_hb", "adc"):
        p.add_argument(name)
    p.add_argument("--rule", type=_json("rule spec"), required=True, help="inline JSON or path")
    p.add_argument("--out", required=True, help="output payload path")
    p.add_argument("--mask-out", help="also write the binarized mask here")

    p = command("evaluate", cmd_evaluate, "score a prediction against a truth mask",
                mask_flags, lesion_flags, report_flags)
    p.add_argument("pred")
    p.add_argument("truth")
    p.add_argument("--zone-mask")

    p = command("search", cmd_search, "grid-search rules on one split, re-evaluate on another",
                mask_flags, lesion_flags, zone_flag)
    p.add_argument("manifest")
    p.add_argument("--model", action=Setting, choices=("linear", "stacking"), default="linear")
    p.add_argument("--step", action=Setting, type=float,
                   default=_default(sampling.simplex_grid, "step"))
    p.add_argument("--rules", action=Setting, type=_path, help="SampledRuleSet JSON (stacking)")
    p.add_argument("--rank-by", action=Setting, choices=discovery.RANK_METRICS,
                   default=_default(discovery.grid_search_linear, "rank_by"))
    p.add_argument("--split", action=Setting, help="ranking split",
                   default=_default(discovery.grid_search_linear, "split"))
    p.add_argument("--eval-split", action=Setting, default="test", help="held-out split")
    for name in ("--out", "--csv-out", "--heatmap-out"):
        p.add_argument(name)

    p = command("availability", cmd_availability, "modality-subset analysis vs a base rule",
                mask_flags, lesion_flags, zone_flag, report_flags)
    p.add_argument("manifest")
    p.add_argument("--split")
    p.add_argument("--base-rule", type=_json("base rule"),
                   help="linear rule spec (default equal thirds)")

    p = command("mc-uncertainty", cmd_mc_uncertainty,
                "Monte-Carlo variance over a rule distribution", mask_flags, zone_flag, report_flags)
    p.add_argument("manifest")
    p.add_argument("--sampler", action=Setting, type=_json("sampler config"),
                   help="sampler config, inline JSON or path")
    p.add_argument("--draws", action=Setting, type=int, default=16)
    p.add_argument("--rules", type=_path, help="SampledRuleSet JSON for stacking_set samplers")
    p.add_argument("--split")
    p.add_argument("--volumes-out", help="directory for per-case variance volumes")

    p = command("phantom", cmd_phantom, "generate a synthetic dataset with a manifest")
    p.add_argument("--spec", dest="phantom_spec", action=Setting, type=_json("phantom spec"),
                   default={}, help="phantom spec, inline JSON or path")
    p.add_argument("--n-cases", action=Setting, type=int, default=10)
    p.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        _apply_config(parser.commands[args.command], args)
        return args.func(args)
    except (UsageError, ValueError, DivergenceError) as exc:
        # out-of-range option values surface from the library as ValueError
        error, code = f"usage error: {exc}", 1
    except (DataError, OSError) as exc:
        error, code = f"data error: {exc}", 2
    except KeyboardInterrupt:
        # a sweep's worker processes are killed and reaped before it gets here
        error, code = "interrupted", 130
    # one line whatever a path in it holds: unprintable characters are escaped
    print("".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
                  for c in error), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
