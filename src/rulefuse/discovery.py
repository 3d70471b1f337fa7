"""Dataset-level rule comparison: grid search, availability deltas, MC variance.

A dataset is a list of CaseRecords held in memory. Grid search, availability
and `evaluate_rule` are one sweep: every (rule, case) pair is scored, and
each rule's reports are reduced in sorted case_id order, so results are
independent of worker count and dataset ordering. The sweep is case-major: a
task is one case and a contiguous range of the rules, one range per worker,
and it builds that case's truth context and one set of volume buffers, which
it reuses for each of its rules. Monte-Carlo uncertainty runs one task per
case, over all its draws, the same way.

Every sweep runs its tasks on `_workers(threads, n_tasks)` worker processes:
the calling process is worker 0 and the others are forked children, which
inherit the dataset and send back only their results. Worker k runs tasks k,
k + w, k + 2w, ... in order; the failure earliest in task order is raised.
With one worker, where the platform cannot fork, or while other threads run,
the tasks run inline.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field

import numpy as np

# binarize is not called here; it stays bound in this module because
# perfbench/test_perfbench.py reaches it as `discovery.binarize`
from .combine import binarize, binarize_components, linear_map, stacking_map
from .errors import DataError
from .fitting import LinearRule, StackingRule
from .metrics import (
    LabelledMask, MetricsConfig, MetricsReport, TruthContext, dice, evaluate, in_zone, label_mask,
    truth_context,
)
from .sampling import SampledRuleSet
from .volumes import LabelVolume, ProbabilityVolume, validate_aligned

SPLIT_NAMES = ("train", "validation", "test")
DEFAULT_SPLIT_RATIOS = (0.66, 0.17, 0.17)


@dataclass(frozen=True)
class CaseRecord:
    """One subject: aligned (T2W, DWI_hb, ADC) probability maps plus truth."""

    case_id: str
    modalities: tuple[ProbabilityVolume, ProbabilityVolume, ProbabilityVolume]
    truth: LabelVolume
    zones: dict[str, LabelVolume] | None = None

    def __post_init__(self) -> None:
        modalities = tuple(self.modalities)
        if len(modalities) != 3:
            raise ValueError(f"case {self.case_id}: expected 3 modalities, got {len(modalities)}")
        object.__setattr__(self, "modalities", modalities)
        volumes = list(modalities) + [self.truth]
        names = [f"modality[{i}]" for i in range(3)] + ["truth"]
        if self.zones:
            for key in sorted(self.zones):
                volumes.append(self.zones[key])
                names.append(f"zone[{key}]")
        try:
            validate_aligned(volumes, names=names)
        except Exception as exc:
            raise type(exc)(f"case {self.case_id}: {exc}") from None


def assign_splits(case_ids, seed: int, ratios=DEFAULT_SPLIT_RATIOS) -> dict[str, str]:
    """Deterministic train/validation/test assignment.

    Cases are ordered by a salted sha256 of their id, then cut at quota
    boundaries (largest-remainder rounding), so counts always land within
    one case of the requested ratios.
    """
    case_ids = list(case_ids)
    if len(set(case_ids)) != len(case_ids):
        raise ValueError("case_ids must be unique")
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or min(ratios) < 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must be 3 non-negative reals summing to 1, got {ratios}")
    n = len(case_ids)
    targets = [r * n for r in ratios]
    counts = [math.floor(t) for t in targets]
    remainders = sorted(range(3), key=lambda i: (targets[i] - counts[i], -i), reverse=True)
    for i in range(n - sum(counts)):
        counts[remainders[i % 3]] += 1

    def sort_key(case_id: str) -> str:
        return hashlib.sha256(f"{seed}:{case_id}".encode()).hexdigest()

    ordered = sorted(case_ids, key=sort_key)
    assignment: dict[str, str] = {}
    start = 0
    for name, count in zip(SPLIT_NAMES, counts):
        for case_id in ordered[start : start + count]:
            assignment[case_id] = name
        start += count
    return assignment


def split_dataset(dataset, assignment) -> dict[str, list[CaseRecord]]:
    out: dict[str, list[CaseRecord]] = {name: [] for name in SPLIT_NAMES}
    for case in dataset:
        split = assignment.get(case.case_id)
        if split is None:
            raise DataError(f"case {case.case_id} missing from split assignment")
        out[split].append(case)
    return out


@dataclass(frozen=True)
class EvalConfig:
    threshold: float = 0.5
    min_region_voxels: int = 27
    metrics: MetricsConfig = field(default_factory=MetricsConfig)
    zone: str | None = None


def _mean_defined(values):
    """(mean over non-None entries, count defined); (None, 0) when all missing."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None, 0
    return float(np.mean(defined)), len(defined)


@dataclass(frozen=True)
class RuleEvaluation:
    """Aggregate metrics for one rule over one dataset split."""

    model: str  # "linear" | "stacking"
    rule: LinearRule | StackingRule
    rule_number: int | None
    n_cases: int
    mean_dsc: float
    sd_dsc: float
    mean_hd95: float | None
    n_hd95_defined: int
    mean_recall: float | None
    n_recall_defined: int
    mean_precision: float | None
    n_precision_defined: int
    per_case: tuple[tuple[str, MetricsReport], ...]

    def rule_key(self) -> tuple:
        """Lexicographic identity used as the final ranking tiebreak."""
        if self.model == "linear":
            return self.rule.as_tuple()
        return (self.rule_number if self.rule_number is not None else -1,) + tuple(
            float(b) for b in self.rule.beta
        )

    def to_dict(self, include_cases: bool = False) -> dict:
        out = {
            "model": self.model,
            "rule": [float(v) for v in (
                self.rule.alpha if self.model == "linear" else self.rule.beta
            )],
            "rule_number": self.rule_number,
            "n_cases": self.n_cases,
            "mean_dsc": self.mean_dsc,
            "sd_dsc": self.sd_dsc,
            "mean_hd95": self.mean_hd95,
            "n_hd95_defined": self.n_hd95_defined,
            "mean_recall": self.mean_recall,
            "n_recall_defined": self.n_recall_defined,
            "mean_precision": self.mean_precision,
            "n_precision_defined": self.n_precision_defined,
        }
        if include_cases:
            out["per_case"] = {cid: rep.to_dict() for cid, rep in self.per_case}
        return out


def _zone_for(case: CaseRecord, config: EvalConfig) -> LabelVolume | None:
    if config.zone is None:
        return None
    if not case.zones or config.zone not in case.zones:
        raise DataError(f"case {case.case_id}: zone mask {config.zone!r} not present")
    return case.zones[config.zone]


class _Buffers:
    """The volumes one task writes for each rule it runs on one case: the
    combined map, the scratch products, the mask and its labels; and the
    case's configured zone as a C-order flat mask (None without one), which
    the task only reads.

    Every array is C-ordered and sized to the case. A volume a rule's
    evaluation builds on them is valid only until the next rule runs.
    """

    def __init__(self, case: CaseRecord, config: EvalConfig):
        dims = case.truth.dims
        zone = _zone_for(case, config)
        self.map = np.empty(dims)
        self.product = np.empty(dims)
        self.mask = np.empty(dims, dtype=bool)
        self.labels = np.empty(dims, dtype=np.int32)
        self.zone = None if zone is None else np.ravel(zone.values)


def _predict(case: CaseRecord, model: str, rule, config: EvalConfig, buffers: _Buffers):
    """(combined map, binarized prediction) of one rule on one case; the
    prediction is a `metrics.LabelledMask` (see `combine.binarize_components`).

    The map, the mask and the labels are written into `buffers`. A linear map
    is left unclipped: its convex sums may round past [0, 1] in the last
    place, and for a threshold in (0, 1) the mask is the same as from the
    clipped map.
    """
    if model not in ("linear", "stacking"):
        raise ValueError(f"unknown model {model!r}")
    if model == "linear":
        combined = linear_map(case.modalities, rule.alpha, buffers.map, buffers.product)
    else:
        combined = stacking_map(case.modalities, rule, buffers.map, buffers.product)
    pred = binarize_components(
        combined,
        case.modalities[0].spacing,
        threshold=config.threshold,
        min_region_voxels=config.min_region_voxels,
        connectivity=config.metrics.connectivity,
        mask_out=buffers.mask,
        labels_out=buffers.labels,
    )
    return combined, pred


def _in_zone(pred: LabelledMask, buffers: _Buffers) -> LabelVolume:
    """The prediction `_predict` wrote into `buffers`, restricted to the zone
    there: its positives outside the zone are cleared in the mask buffer it
    views, so its support and components no longer describe it."""
    flat = pred.support.flat
    buffers.mask.flat[flat[~buffers.zone.take(flat)]] = False
    return pred.volume


def _evaluate_case(
    case: CaseRecord,
    model: str,
    rule,
    config: EvalConfig,
    truth_ctx: TruthContext,
    buffers: _Buffers,
) -> MetricsReport:
    _, pred = _predict(case, model, rule, config, buffers)
    if buffers.zone is not None:  # the restriction can split a component
        pred = label_mask(_in_zone(pred, buffers), config.metrics.connectivity, buffers.labels)
    return evaluate(pred, truth_ctx.mask.volume, config.metrics, truth_ctx=truth_ctx)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _workers(threads: int, n_tasks: int) -> int:
    """Worker processes for `n_tasks` tasks: at most `threads`, the usable
    CPUs and the tasks; one where the platform cannot fork, or while other
    threads run, as a forked child could deadlock on a lock one of them holds."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(threads, _usable_cpus(), n_tasks))


def _run_stripe(run, tasks, worker: int, workers: int, progress) -> list:
    """[(index, ok, run(task) or its exception)] for the tasks worker,
    worker + workers, ... in order, stopping at the first failure.
    `progress[worker]` holds the index of the task being run."""
    outcomes = []
    for index in range(worker, len(tasks), workers):
        progress[worker] = index
        try:
            outcomes.append((index, True, run(tasks[index])))
        except Exception as exc:
            outcomes.append((index, False, exc))
            break
    return outcomes


def _pickled(outcome) -> tuple:
    """(index, ok, pickled value); a value that will not make the trip to the
    parent, or an exception that will not unpickle there, becomes a
    DataError with its message."""
    index, ok, value = outcome
    try:
        blob = pickle.dumps(value)
        if not ok:
            pickle.loads(blob)
        return index, ok, blob
    except Exception as exc:
        return index, False, pickle.dumps(DataError(str(exc if ok else value)))


def _serve(run, tasks, worker: int, workers: int, progress, write_fd: int) -> None:
    """A forked child's work: run its stripe and pickle the outcomes to the pipe."""
    outcomes = _run_stripe(run, tasks, worker, workers, progress)
    with os.fdopen(write_fd, "wb") as pipe:
        pickle.dump([_pickled(outcome) for outcome in outcomes], pipe)


def _received(payload: bytes, status: int, index: int, name: str) -> list:
    """A child's outcomes from the bytes it piped back. A child that exited
    without them fails task `index`, named `name`, which it was running."""
    try:
        return [(i, ok, pickle.loads(blob)) for i, ok, blob in pickle.loads(payload)]
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        error = DataError(f"{name}: worker process {how} before returning its results")
        return [(index, False, error)]


def _run_tasks(run, tasks, threads: int, name) -> list:
    """[run(task) for task in tasks] on `_workers(threads, len(tasks))` worker
    processes; `name(task)` says which task a dead worker was running.

    The calling process is worker 0 and the others are forked children. A
    child inherits `run` and the tasks, and pipes back only its outcomes.
    Every worker stops at its first failure, and the failure earliest in task
    order is raised, so every task before it ran and succeeded. On any
    exception here the children are killed and reaped before it propagates.
    """
    workers = _workers(threads, len(tasks))
    if workers == 1:
        return [run(task) for task in tasks]
    # each worker's current task index, shared with the children
    progress = np.frombuffer(mmap.mmap(-1, 8 * workers), dtype=np.int64)
    progress[:] = np.arange(workers)
    children = {}  # pid -> (worker, read end of its pipe), until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipe = os.fdopen(read_fd, "rb")
            try:
                pid = os.fork()
            except BaseException:
                pipe.close()
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    _serve(run, tasks, worker, workers, progress, write_fd)
                    code = 0
                finally:
                    os._exit(code)  # never back into the caller's frames
            children[pid] = (worker, pipe)
            os.close(write_fd)
        outcomes = _run_stripe(run, tasks, 0, workers, progress)
        for pid, (worker, pipe) in list(children.items()):
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            pipe.close()
            index = int(progress[worker])
            outcomes += _received(payload, status, index, name(tasks[index]))
    except BaseException:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    failures = [(index, value) for index, ok, value in outcomes if not ok]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(tasks)
    for index, _, value in outcomes:
        results[index] = value
    return results


def _aggregate(model: str, rule, rule_number: int | None, rows) -> RuleEvaluation:
    dscs = np.array([rep.dsc for _, rep in rows])
    mean_hd95, n_hd = _mean_defined([rep.hd95_mm for _, rep in rows])
    mean_rec, n_rec = _mean_defined([rep.recall_gt for _, rep in rows])
    mean_pre, n_pre = _mean_defined([rep.precision_pred for _, rep in rows])
    return RuleEvaluation(
        model=model,
        rule=rule,
        rule_number=rule_number,
        n_cases=len(rows),
        mean_dsc=float(dscs.mean()),
        sd_dsc=float(dscs.std(ddof=1)) if len(rows) > 1 else 0.0,
        mean_hd95=mean_hd95,
        n_hd95_defined=n_hd,
        mean_recall=mean_rec,
        n_recall_defined=n_rec,
        mean_precision=mean_pre,
        n_precision_defined=n_pre,
        per_case=tuple(rows),
    )


def _sweep(
    dataset, rules, model: str, config: EvalConfig, threads: int, rule_numbers=None
) -> list[RuleEvaluation]:
    """Score every (rule, case) pair and aggregate one RuleEvaluation per rule.

    Each case's rules are cut into one contiguous range per worker, and each
    (case, range) is one task, in case-major order. A task builds its case's
    zone-restricted truth context and its buffers once and reuses them for
    each rule in its range.
    """
    cases = sorted(dataset, key=lambda c: c.case_id)  # fixed reduction order
    if not cases:
        raise ValueError("rule evaluation requires a non-empty dataset")
    rules = list(rules)
    parts = min(_workers(threads, len(cases) * len(rules)), len(rules))
    bounds = [len(rules) * j // parts for j in range(parts + 1)]
    tasks = [(case, rules[lo:hi]) for case in cases for lo, hi in zip(bounds, bounds[1:])]

    def run(task) -> list[MetricsReport]:
        case, task_rules = task
        try:
            # restricted to the zone as `evaluate` restricts the truth
            truth_ctx = truth_context(
                in_zone(case.truth, _zone_for(case, config)), config.metrics.connectivity
            )
            buffers = _Buffers(case, config)
            return [
                _evaluate_case(case, model, rule, config, truth_ctx, buffers)
                for rule in task_rules
            ]
        except DataError:
            raise
        except Exception as exc:
            raise DataError(f"case {case.case_id}: {exc}") from exc

    by_task = _run_tasks(run, tasks, threads, lambda task: f"case {task[0].case_id}")
    by_case = [sum(by_task[i : i + parts], []) for i in range(0, len(by_task), parts)]
    return [
        _aggregate(model, rule, number, [
            (case.case_id, reports[i]) for case, reports in zip(cases, by_case)
        ])
        for i, (rule, number) in enumerate(zip(rules, rule_numbers or [None] * len(rules)))
    ]


def evaluate_rule(
    dataset,
    rule,
    config: EvalConfig | None = None,
    model: str | None = None,
    rule_number: int | None = None,
    threads: int = 1,
) -> RuleEvaluation:
    """Combine, binarize and score every case; aggregate mean/sd per metric.

    Any per-case failure aborts the whole evaluation, tagged with the case id.
    """
    if model is None:
        model = "stacking" if isinstance(rule, StackingRule) else "linear"
    if not isinstance(rule, (LinearRule, StackingRule)):
        rule = StackingRule(rule) if model == "stacking" else LinearRule(rule)
    return _sweep(dataset, [rule], model, config or EvalConfig(), threads, [rule_number])[0]


RANK_METRICS = ("dsc", "recall", "precision", "hd95")


def _ranking_key(row: RuleEvaluation, rank_by: str) -> tuple:
    """Sort key: better first; HD95 breaks ties, rule identity breaks the rest."""
    if rank_by == "hd95":
        primary = row.mean_hd95 if row.mean_hd95 is not None else float("inf")
    else:
        value = {
            "dsc": row.mean_dsc,
            "recall": row.mean_recall,
            "precision": row.mean_precision,
        }[rank_by]
        primary = -(value if value is not None else float("-inf"))
    hd = row.mean_hd95 if row.mean_hd95 is not None else float("inf")
    return (primary, hd, row.rule_key())


@dataclass(frozen=True)
class GridSearchResult:
    rows: tuple[RuleEvaluation, ...]  # sorted, best first
    rank_by: str
    split: str
    options: dict

    def top(self, k: int = 5) -> tuple[RuleEvaluation, ...]:
        return self.rows[:k]

    def rank_of_linear(self, alpha, atol: float = 1e-9) -> int | None:
        """1-based rank of a linear rule in this result, or None if absent."""
        target = np.asarray(alpha, dtype=np.float64)
        for i, row in enumerate(self.rows, start=1):
            if row.model == "linear" and np.allclose(row.rule.alpha, target, atol=atol):
                return i
        return None

    def to_dict(self, include_cases: bool = False) -> dict:
        return {
            "rank_by": self.rank_by,
            "split": self.split,
            "options": self.options,
            "rows": [row.to_dict(include_cases) for row in self.rows],
        }

    def heatmap_rows(self, metric: str = "dsc"):
        """(α₁, α₂, value) triples for linear rows; α₃ is 1 − α₁ − α₂."""
        out = []
        for row in self.rows:
            if row.model != "linear":
                continue
            a = row.rule.as_tuple()
            value = {
                "dsc": row.mean_dsc,
                "recall": row.mean_recall,
                "precision": row.mean_precision,
                "hd95": row.mean_hd95,
            }[metric]
            out.append((a[0], a[1], value))
        out.sort(key=lambda r: (r[0], r[1]))
        return out


def _search(rows, rank_by: str, split: str, options: dict) -> GridSearchResult:
    if rank_by not in RANK_METRICS:
        raise ValueError(f"rank_by must be one of {RANK_METRICS}, got {rank_by!r}")
    ordered = sorted(rows, key=lambda row: _ranking_key(row, rank_by))
    return GridSearchResult(rows=tuple(ordered), rank_by=rank_by, split=split, options=options)


def grid_search_linear(
    dataset,
    step: float = 0.1,
    rank_by: str = "dsc",
    config: EvalConfig | None = None,
    split: str = "validation",
    threads: int = 1,
) -> GridSearchResult:
    """Evaluate every simplex-grid rule on the dataset and rank them."""
    from .sampling import simplex_grid

    rules = simplex_grid(step)
    rows = _sweep(dataset, rules, "linear", config or EvalConfig(), threads)
    return _search(rows, rank_by, split, {"step": step, "n_rules": len(rules)})


def grid_search_stacking(
    dataset,
    rules: SampledRuleSet,
    rank_by: str = "dsc",
    config: EvalConfig | None = None,
    split: str = "validation",
    threads: int = 1,
) -> GridSearchResult:
    """Evaluate every accepted sampled stacking rule on the dataset and rank them."""
    if not rules.entries:
        raise ValueError("grid_search_stacking requires a non-empty rule set")
    entries = rules.entries
    rows = _sweep(dataset, [e.rule for e in entries], "stacking", config or EvalConfig(), threads,
                  [e.rule_number for e in entries])
    return _search(rows, rank_by, split, {"n_rules": len(rules.entries), "eta": rules.eta})


AVAILABILITY_SUBSETS = (
    ("T2W", (1.0, 0.0, 0.0)),
    ("DWI_hb", (0.0, 1.0, 0.0)),
    ("ADC", (0.0, 0.0, 1.0)),
    ("T2W+DWI_hb", (0.5, 0.5, 0.0)),
    ("T2W+ADC", (0.5, 0.0, 0.5)),
    ("DWI_hb+ADC", (0.0, 0.5, 0.5)),
    ("T2W+DWI_hb+ADC", (1 / 3, 1 / 3, 1 / 3)),
)


@dataclass(frozen=True)
class AvailabilityRow:
    subset: str
    evaluation: RuleEvaluation
    delta_dsc: float
    delta_hd95: float | None

    def to_dict(self) -> dict:
        out = {"subset": self.subset, "delta_dsc": self.delta_dsc, "delta_hd95": self.delta_hd95}
        out.update(self.evaluation.to_dict())
        return out


@dataclass(frozen=True)
class AvailabilityTable:
    base: RuleEvaluation
    rows: tuple[AvailabilityRow, ...]

    def row(self, subset: str) -> AvailabilityRow:
        for row in self.rows:
            if row.subset == subset:
                return row
        raise KeyError(subset)

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
        }


def availability_analysis(
    dataset,
    base_rule: LinearRule | None = None,
    config: EvalConfig | None = None,
    threads: int = 1,
) -> AvailabilityTable:
    """Metrics for the 7 non-empty modality subsets, as deltas vs a base rule.

    Subsets use equal weights over their members; the base defaults to equal
    thirds over all modalities.
    """
    if base_rule is None:
        base_rule = LinearRule(np.full(3, 1.0 / 3.0))
    subsets = [LinearRule(np.array(alpha)) for _, alpha in AVAILABILITY_SUBSETS]
    base, *evaluations = _sweep(dataset, [base_rule, *subsets], "linear", config or EvalConfig(), threads)
    rows = []
    for (subset, _), ev in zip(AVAILABILITY_SUBSETS, evaluations):
        delta_hd = None
        if ev.mean_hd95 is not None and base.mean_hd95 is not None:
            delta_hd = ev.mean_hd95 - base.mean_hd95
        rows.append(
            AvailabilityRow(
                subset=subset,
                evaluation=ev,
                delta_dsc=ev.mean_dsc - base.mean_dsc,
                delta_hd95=delta_hd,
            )
        )
    return AvailabilityTable(base=base, rows=tuple(rows))


class RuleSampler:
    """Draws (model, rule) pairs for Monte-Carlo uncertainty.

    kinds: "dirichlet" (linear rules from a Dirichlet), "stacking_set"
    (uniform over a SampledRuleSet's accepted rules), "fixed" (cycles a given
    rule list deterministically — draw i returns rules[i mod len]).
    """

    def __init__(self, config: dict, rule_set: SampledRuleSet | None = None):
        self.kind = config.get("kind")
        if self.kind == "dirichlet":
            conc = config.get("concentration", (1.0, 1.0, 1.0))
            conc = tuple(float(c) for c in conc)
            if len(conc) != 3 or min(conc) <= 0:
                raise ValueError(f"concentration must be 3 positive reals, got {conc}")
            self.concentration = conc
            self.model = "linear"
        elif self.kind == "stacking_set":
            if rule_set is None:
                raise ValueError("stacking_set sampler requires a SampledRuleSet")
            if not rule_set.entries:
                raise ValueError("stacking_set sampler requires accepted rules")
            self.rule_set = rule_set
            self.model = "stacking"
        elif self.kind == "fixed":
            self.model = str(config.get("model", "linear"))
            rules = config.get("rules")
            if not rules:
                raise ValueError("fixed sampler requires a non-empty rule list")
            if self.model == "linear":
                self.rules = [r if isinstance(r, LinearRule) else LinearRule(np.asarray(r)) for r in rules]
            elif self.model == "stacking":
                self.rules = [r if isinstance(r, StackingRule) else StackingRule(np.asarray(r)) for r in rules]
            else:
                raise ValueError(f"fixed sampler model must be linear or stacking, got {self.model!r}")
        else:
            raise ValueError(f"unknown sampler kind {self.kind!r}")

    def draw(self, rng: np.random.Generator, index: int):
        if self.kind == "dirichlet":
            alpha = rng.dirichlet(self.concentration)
            alpha = alpha / alpha.sum()
            return LinearRule(alpha)
        if self.kind == "stacking_set":
            entry = self.rule_set.entries[int(rng.integers(len(self.rule_set.entries)))]
            return entry.rule
        return self.rules[index % len(self.rules)]


@dataclass(frozen=True)
class MCCaseResult:
    case_id: str
    mean: np.ndarray
    variance: np.ndarray
    spacing: tuple[float, float, float]
    dsc_mean: float
    dsc_variance: float

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "voxel_variance_max": float(self.variance.max()),
            "voxel_variance_mean": float(self.variance.mean()),
            "dsc_mean": self.dsc_mean,
            "dsc_variance": self.dsc_variance,
        }


@dataclass(frozen=True)
class MCResult:
    cases: tuple[MCCaseResult, ...]
    n_draws: int
    kind: str

    def case(self, case_id: str) -> MCCaseResult:
        for c in self.cases:
            if c.case_id == case_id:
                return c
        raise KeyError(case_id)

    def to_dict(self) -> dict:
        return {
            "n_draws": self.n_draws,
            "kind": self.kind,
            "cases": [c.to_dict() for c in self.cases],
        }


def _shifted_moments(values_iter, n: int):
    """Mean and ddof=0 variance via deviations from the first sample.

    Centring on the first draw makes a point-mass distribution produce an
    exactly zero variance instead of rounding residue. The first sample is
    copied; every later one is overwritten with its deviations, so a caller
    may hand in the same buffer each time.
    """
    first = None
    s1 = s2 = None
    for values in values_iter:
        if first is None:
            first = values.astype(np.float64, copy=True)
            s1 = np.zeros_like(first)
            s2 = np.zeros_like(first)
        else:
            dev = np.subtract(values, first, out=values)
            s1 += dev
            s2 += np.multiply(dev, dev, out=dev)
    mean = first + s1 / n
    variance = s2 / n - (s1 / n) ** 2
    np.maximum(variance, 0.0, out=variance)
    return mean, variance


def monte_carlo_uncertainty(
    dataset,
    sampler: RuleSampler | dict,
    n_draws: int,
    seed: int = 0,
    config: EvalConfig | None = None,
    rule_set: SampledRuleSet | None = None,
    threads: int = 1,
) -> MCResult:
    """Voxel-wise variance of the combined map over a rule distribution.

    The same drawn rule sequence is applied to every case; per-case DSC
    spread across draws is summarised alongside the variance volume. A
    configured zone restricts the DSC, as in `evaluate`; the variance volume
    covers the whole grid.

    The rules are drawn up front, and each case is one task, on up to
    `threads` worker processes, that reuses one set of buffers for all its
    draws, so the result does not depend on `threads`. Draws are not split
    across tasks, as that would change the summation order of the moments.
    """
    if n_draws < 2:
        raise ValueError(f"n_draws must be >= 2, got {n_draws}")
    dataset = list(dataset)
    if not dataset:
        raise ValueError("monte_carlo_uncertainty requires a non-empty dataset")
    if isinstance(sampler, dict):
        sampler = RuleSampler(sampler, rule_set=rule_set)
    config = config or EvalConfig()
    rng = np.random.default_rng(seed)
    rules = [sampler.draw(rng, i) for i in range(n_draws)]

    def run(case: CaseRecord) -> MCCaseResult:
        buffers = _Buffers(case, config)
        truth = label_mask(in_zone(case.truth, _zone_for(case, config)), config.metrics.connectivity)
        dscs = []

        def draws():
            for rule in rules:
                combined, pred = _predict(case, sampler.model, rule, config, buffers)
                if buffers.zone is not None:
                    pred = _in_zone(pred, buffers)
                dscs.append(dice(pred, truth))
                # as combine_linear clips; a stacking map already lies in [0, 1]
                yield np.clip(combined, 0.0, 1.0, out=combined)

        mean, variance = _shifted_moments(draws(), n_draws)
        darr = np.array(dscs)
        dev = darr - darr[0]
        dsc_var = float(np.mean(dev * dev) - np.mean(dev) ** 2)
        return MCCaseResult(
            case_id=case.case_id,
            mean=mean,
            variance=variance,
            spacing=case.truth.spacing,
            dsc_mean=float(darr[0] + np.mean(dev)),
            dsc_variance=max(dsc_var, 0.0),
        )

    cases = sorted(dataset, key=lambda c: c.case_id)
    return MCResult(
        cases=tuple(_run_tasks(run, cases, threads, lambda case: f"case {case.case_id}")),
        n_draws=n_draws,
        kind=sampler.kind,
    )
