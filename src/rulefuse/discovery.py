"""Dataset-level rule comparison: grid search, availability deltas, MC variance.

A dataset is an iterable of case sources, each a `case_id` and a `load()`
that returns the case's CaseRecord: CaseRecords held in memory load as
themselves, and `volio.CaseSource`s read their case's volumes when loaded.
Grid search, availability and `evaluate_rule` are one sweep: every (rule,
case) pair is scored, and each rule's reports are reduced in sorted case_id
order, so results are independent of worker count and dataset ordering.
Monte-Carlo uncertainty runs each of its drawn rules on every case.

Both run on one scheduler, `_run_cases`, where a task is one case and all
its rules or draws. The worker that runs a task loads its case, so each case
is read once per sweep and a worker holds about one case at a time, and sets
it up once, with `_case_setup`: the zone, the truth restricted to it and one
set of volume buffers, which every rule or draw on the case reuses.

A sweep is scored on one of two paths. A rule sweep of two or more linear
rules, on a case whose truth shares the modalities' spacing, finds the
case's `_Candidates` once: the voxels where some modality comes within
`_CANDIDATE_MARGIN` of the threshold, outside which no convex sum can exceed
it. Its rules are taken `_RULE_CHUNK` at a time: each sums and thresholds
only those voxels into a row of a (rules, candidates) boolean plane, whose
z-runs `backends.run_components` labels at once, each rule's small
components are cleared from it, and the rules are scored from the plane,
its runs and one flag word per candidate (`_Candidates.reports`, with
`metrics.CandidateHD95` for HD95): no volume, `evaluate` call or array of
one entry per positive, and a zone restricts the plane, whose runs are
labelled afresh. Everything else runs dense: a lone rule, stacking rules, a
truth off the modalities' grid and every draw of Monte-Carlo uncertainty
(which needs the whole map for its moments). Each such rule's whole map is
computed and thresholded, its mask is labelled on its own with
`backends.components`, which labels a sparse mask from its positives'
z-runs as a batch of one, and a rule sweep scores it with `_evaluate_case`.

The scheduler runs on `_workers(threads, n_cases)` worker processes: the
calling process is worker 0 and the others are forked children, which
inherit the dataset's sources, load their own cases and send back only their
results. Worker k runs cases k, k + w, k + 2w, ... in case_id order; the
failure earliest in that order is raised. With one worker, where the
platform cannot fork, or while other threads run, the cases run inline.
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

from . import backends
# binarize is not called here; it stays bound in this module because
# perfbench/test_perfbench.py reaches it as `discovery.binarize`
from .combine import (
    binarize, check_binarization, label_positives, linear_map, stacking_map, weighted_sum,
)
from .errors import DataError
from .fitting import _SIMPLEX_TOL, LinearRule, StackingRule
from .metrics import (
    CandidateHD95, LabelledMask, MetricsConfig, MetricsReport, TruthContext, batch_reports,
    boundary_surface, dice, evaluate, in_zone, label_mask, truth_context,
)
from .sampling import SampledRuleSet, dirichlet_rule, simplex_grid
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

    def load(self) -> "CaseRecord":
        """The record itself: a case in memory is its own case source (see
        `volio.CaseSource`)."""
        return self


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

    def __post_init__(self) -> None:
        check_binarization(self.threshold, self.min_region_voxels)


def _mean_defined(values):
    """(mean over non-None entries, count defined); (None, 0) when all missing."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None, 0
    return float(np.mean(defined)), len(defined)


@dataclass(frozen=True)
class RuleEvaluation:
    """Aggregate metrics for one rule over one dataset split."""

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

    @property
    def model(self) -> str:
        """The rule's model, "linear" or "stacking", as its type says."""
        return "linear" if isinstance(self.rule, LinearRule) else "stacking"

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
    combined map, the scratch products, the mask and its labels.

    Every array is C-ordered and sized to the case; the labels are a
    `backends.LabelBuffer`, cleared once here and then only where each
    labelling wrote. A volume a rule's evaluation builds on them is valid
    only until the next rule runs.
    """

    def __init__(self, dims):
        self.map = np.empty(dims)
        self.product = np.empty(dims)
        self.mask = np.empty(dims, dtype=bool)
        self.labels = backends.LabelBuffer(dims)


def _case_setup(case: CaseRecord, config: EvalConfig):
    """(zone, truth, buffers): what every sweep builds once for a case before
    its rules or draws run. `zone` is the configured zone mask (None without
    one), `truth` the case's truth restricted to it as a `LabelledMask` at the
    configured connectivity, and `buffers` a fresh `_Buffers`."""
    zone = _zone_for(case, config)
    truth = label_mask(in_zone(case.truth, zone), config.metrics.connectivity)
    return zone, truth, _Buffers(case.truth.dims)


# How far below the threshold t a voxel's largest modality y may lie while a
# linear rule's computed sum there still exceeds t. LinearRule accepts weights
# >= -tol whose computed sum is within tol of 1 (tol = _SIMPLEX_TOL), and
# clamps the negative ones to 0, so its weights are >= 0 and sum to at most
# 1 + 3·tol (plus an ulp or two from the rounded sum it checked). The sum of
# up to three products, each of a weight and a y in [0, 1], is rounded at
# most five times, which puts the computed sum at or below
# Σα·max y·(1 + u)³ <= max y·(1 + 3·tol)(1 + 4u), u = 2⁻⁵³. It exceeds t
# only if max y > t / ((1 + 3·tol)(1 + 4u)) > t - 3·tol - 1e-15 for t < 1.
# A margin of 4·tol therefore leaves every such voxel above the rounded
# t - margin, for every t in (0, 1), with a whole tol to spare.
_CANDIDATE_MARGIN = 4 * _SIMPLEX_TOL


# Rules a `_Candidates` scores at once. Measured on 2 CPUs over the `search`
# benchmark's 9 cases at 48³: chunks of 4 to 16 rules took about the same
# CPU time per sweep, and fewer paid more calls per rule.
_RULE_CHUNK = 8
# A candidate's flag word, a bit per rule of a chunk: `_RULE_CHUNK` bits, at most 64.
_WORD = np.min_scalar_type((1 << _RULE_CHUNK) - 1)
if _WORD.kind != "u":
    raise ValueError(f"_RULE_CHUNK is {_RULE_CHUNK}, wider than a 64-bit flag word")


class _Candidates:
    """The voxels of one case where a linear rule can exceed the configured
    threshold: `flat`, the ascending C-order flat indices where some modality
    exceeds threshold - `_CANDIDATE_MARGIN`, `values`, the three modalities
    there as one contiguous (3, n) float64 array, `positions`, their
    `backends.batch_positions` for `_RULE_CHUNK` masks, raveled, and `joins`,
    where consecutive ones continue a z-run. Rules are taken a chunk at a
    time (`_chunk`), as a (rules, candidates) boolean plane, and `reports`
    scores them from it, with no volume per rule.
    """

    def __init__(self, case: CaseRecord, config: EvalConfig):
        floor = config.threshold - _CANDIDATE_MARGIN
        y = [np.ravel(m.values) for m in case.modalities]
        some = y[0] > floor  # max y > floor, without a float64 pass for the max
        some |= y[1] > floor
        some |= y[2] > floor
        self.flat = np.flatnonzero(some)
        self.values = np.empty((3, self.flat.size))
        for row, values in zip(self.values, y):
            values.take(self.flat, out=row)
        self.dims, self.spacing = case.truth.dims, case.modalities[0].spacing
        self.positions = backends.batch_positions(self.flat, self.dims, _RULE_CHUNK).ravel()
        self.joins = np.diff(self.positions) == 1
        self.sum, self.product = np.empty((2, self.flat.size))
        self.fires = np.empty((_RULE_CHUNK, self.flat.size), dtype=bool)
        self.config = config

    def _runs(self, plane, min_voxels):
        """`backends.plane_runs` of a plane and their `run_components`."""
        starts, lengths, bounds = backends.plane_runs(plane, self.joins)
        return starts, lengths, bounds, *backends.run_components(
            self.positions.take(starts), lengths, bounds, self.dims,
            self.config.metrics.connectivity, min_voxels)

    def _chunk(self, rules):
        """(plane, runs) of at most `_RULE_CHUNK` rules: row i of the plane
        marks where rule i's sum exceeds the threshold in a component it
        keeps, and `runs` are the `_runs` of the plane before its small
        components were cleared. Each sum is `weighted_sum` over the values
        `linear_map` sums on the whole grid, so it is that map's bitwise.
        """
        plane = self.fires[:len(rules)]
        for row, rule in zip(plane, rules):
            sums = weighted_sum(self.values, rule.alpha, self.sum, self.product)
            np.greater(sums, self.config.threshold, out=row)
        runs = self._runs(plane, self.config.min_region_voxels)
        starts, lengths, _, slots, _, keep, _ = runs
        dropped = ~keep.take(slots)  # a few runs, mostly none
        for start, length in zip(starts[dropped].tolist(), lengths[dropped].tolist()):
            plane.reshape(-1)[start:start + length] = False
        return plane, runs

    def reports(self, rules, zone: LabelVolume | None, truth: LabelledMask,
                labels: backends.LabelBuffer):
        """Yield each linear rule's report in turn, as `_evaluate_case` makes
        it from the rule's prediction restricted to `zone` and `truth`, the
        case's truth restricted to it, labelled at the configured
        connectivity and on the candidates' grid and spacing. `labels` is
        the task's labels buffer, which `metrics.CandidateHD95` borrows, told
        how many rules it scores. Row j of `covered` counts, at candidate
        index c, the candidates before c at the truth's j-th kept label.
        """
        hd95s = CandidateHD95(boundary_surface(truth), self.flat, self.dims, self.spacing,
                              len(rules), labels)
        g_labels = truth.components[0].reshape(-1).take(self.flat)
        kept = np.flatnonzero(truth.components[2])
        covered = np.zeros((kept.size, self.flat.size + 1), np.min_scalar_type(self.flat.size))
        np.cumsum(g_labels == kept[:, None], axis=1, out=covered[:, 1:])
        zoned = None if zone is None else np.ravel(zone.values).take(self.flat)
        for start in range(0, len(rules), _RULE_CHUNK):
            yield from self._chunk_reports(self._chunk(rules[start:start + _RULE_CHUNK]), zoned,
                                           truth, covered, hd95s)

    def _chunk_reports(self, chunk, zoned, g, covered, hd95s) -> list[MetricsReport]:
        """The reports of one chunk from `_chunk` (see `reports`): from its
        kept runs, or from those of the plane restricted to the zone that
        `zoned` flags, labelled afresh. A run's candidates at each truth label
        are two gathers of `covered`, summed over each rule's runs and each
        component's for `metrics.batch_reports`. HD95 reads one flag word
        per candidate.
        """
        plane, (starts, lengths, bounds, slots, counts, keep, components) = chunk
        k, n = plane.shape
        if zoned is None:
            runs = np.flatnonzero(keep.take(slots))
            starts, lengths, slots = starts.take(runs), lengths.take(runs), slots.take(runs)
            bounds = runs.searchsorted(bounds)
        else:
            plane &= zoned
            starts, lengths, bounds, slots, counts, keep, components = self._runs(plane, 1)
        first = starts - np.repeat(np.arange(k) * n, np.diff(bounds))  # candidate indices
        hits = covered.take(first + lengths, axis=1) - covered.take(first, axis=1)
        # each rule's positives, then its positives at each kept truth label
        totals = np.zeros((1 + len(hits), starts.size + 1), dtype=np.intp)
        np.cumsum(np.vstack((lengths, hits)), axis=1, out=totals[:, 1:])
        sums = np.diff(totals.take(bounds, axis=1), axis=1)
        inside = np.bincount(slots, hits.sum(axis=0), counts.size)
        # bit i is row i, shifted: np.packbits along the rules' axis took 7x as long
        words = np.zeros(n + 1, dtype=_WORD)  # the last for none
        np.bitwise_or.reduce(plane.view(np.uint8) << np.arange(k, dtype=_WORD)[:, None], axis=0,
                             out=words[:-1])
        return batch_reports(g, sums[0], sums[1:].T, counts, keep, components, inside,
                             hd95s(k, words), self.config.metrics)


def _predict(case: CaseRecord, rule, config: EvalConfig, buffers: _Buffers):
    """(combined map, binarized prediction) of one rule on one case; the
    prediction is a `metrics.LabelledMask` (see `combine.label_positives`).

    The whole map is computed and thresholded, and its positives are found
    by a scan of the grid. The map, the mask and the labels are written into
    `buffers`. A linear map is left unclipped: its convex sums may round past
    [0, 1] in the last place, and for a threshold in (0, 1) the mask is the
    same as from the clipped map.
    """
    if isinstance(rule, LinearRule):
        combined = linear_map(case.modalities, rule.alpha, buffers.map, buffers.product)
    else:
        combined = stacking_map(case.modalities, rule, buffers.map, buffers.product)
    mask = np.greater(combined, config.threshold, out=buffers.mask)
    pred = label_positives(
        mask,
        backends.support_of(mask),
        case.modalities[0].spacing,
        config.min_region_voxels,
        config.metrics.connectivity,
        buffers.labels,
    )
    return combined, pred


def _evaluate_case(
    case: CaseRecord,
    rule,
    config: EvalConfig,
    zone: LabelVolume | None,
    truth_ctx: TruthContext,
    buffers: _Buffers,
) -> MetricsReport:
    """The report of one rule on one case, scored by `evaluate` from the
    prediction that `_predict` makes from the whole map, restricted to
    `zone`, against `truth_ctx`, the context of the truth restricted to it."""
    _, pred = _predict(case, rule, config, buffers)
    # a restricted prediction is labelled into the buffer its unrestricted
    # labels were in, which nothing reads any more
    pred = label_mask(in_zone(pred, zone), config.metrics.connectivity, buffers.labels)
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


def _run_cases(run, dataset, threads: int, config: EvalConfig) -> list:
    """[run(case, zone, truth, buffers) for each case of `dataset`], in
    case_id order, with (zone, truth, buffers) from `_case_setup`.

    `dataset` is any iterable of case sources; it is sorted by case_id once,
    which fixes the order results are reduced in, and an empty one is a
    ValueError. Each case is one task, run on `_workers(threads, n_cases)`
    worker processes: the worker that runs it loads the case and sets it up,
    so each case is read once whatever `threads` is.

    The calling process is worker 0 and the others are forked children. A
    child inherits `run` and the sources, and pipes back only its outcomes.
    Every worker stops at its first failure, and the failure earliest in case
    order is raised, so every case before it ran and succeeded; a worker that
    dies without its results fails the case it was running. On any exception
    here the children are killed and reaped before it propagates.
    """
    sources = sorted(dataset, key=lambda source: source.case_id)
    if not sources:
        raise ValueError("a dataset sweep requires a non-empty dataset")

    def task(source):
        case = source.load()
        return run(case, *_case_setup(case, config))

    workers = _workers(threads, len(sources))
    if workers == 1:
        return [task(source) for source in sources]
    # each worker's current task index, shared with the children
    progress = np.frombuffer(mmap.mmap(-1, 8 * workers), dtype=np.int64)
    progress[:] = np.arange(workers)
    children = {}  # pid -> (worker, read end of its pipe), until reaped
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipe = os.fdopen(read_fd, "rb")
            # an interrupt waits until the child is recorded: one raised in
            # the fork's at-fork handlers would be swallowed there, and one
            # before the record would leave the child unreaped
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
            except BaseException:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                pipe.close()
                os.close(write_fd)
                raise
            if pid == 0:
                code = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    _serve(task, sources, worker, workers, progress, write_fd)
                    code = 0
                finally:
                    os._exit(code)  # never back into the caller's frames
            children[pid] = (worker, pipe)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(write_fd)
        outcomes = _run_stripe(task, sources, 0, workers, progress)
        for pid, (worker, pipe) in list(children.items()):
            payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            pipe.close()
            index = int(progress[worker])
            outcomes += _received(payload, status, index, f"case {sources[index].case_id}")
    except BaseException:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    failures = [(index, value) for index, ok, value in outcomes if not ok]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(sources)
    for index, _, value in outcomes:
        results[index] = value
    return results


def _aggregate(rule, rule_number: int | None, rows) -> RuleEvaluation:
    dscs = np.array([rep.dsc for _, rep in rows])
    mean_hd95, n_hd = _mean_defined([rep.hd95_mm for _, rep in rows])
    mean_rec, n_rec = _mean_defined([rep.recall_gt for _, rep in rows])
    mean_pre, n_pre = _mean_defined([rep.precision_pred for _, rep in rows])
    return RuleEvaluation(
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
    dataset, rules, config: EvalConfig, threads: int, rule_numbers=None
) -> list[RuleEvaluation]:
    """Score every (rule, case) pair and aggregate one RuleEvaluation per rule.

    Each case is one task of `_run_cases`, which loads and sets it up in the
    worker that runs it. A sweep of two or more linear rules, on a case whose
    truth shares the modalities' spacing, finds the case's `_Candidates` and
    scores the rules there a chunk at a time. Any other sweep builds the
    restricted truth's context and scores each rule with `_evaluate_case`.
    A failing rule fails its case, with the case id in the message.
    """
    rules = list(rules)
    # building a candidate set costs about as much as one rule's dense map,
    # threshold and scan, so a lone rule runs dense
    linear = len(rules) > 1 and all(isinstance(r, LinearRule) for r in rules)

    def run(case, zone, truth, buffers) -> list[tuple[str, MetricsReport]]:
        try:
            if linear and case.modalities[0].spacing == truth.volume.spacing:
                reports = _Candidates(case, config).reports(rules, zone, truth, buffers.labels)
            else:
                truth_ctx = truth_context(truth, config.metrics.connectivity)
                reports = (_evaluate_case(case, rule, config, zone, truth_ctx, buffers)
                           for rule in rules)
            return [(case.case_id, report) for report in reports]
        except DataError:
            raise
        except Exception as exc:
            raise DataError(f"case {case.case_id}: {exc}") from exc

    by_case = _run_cases(run, dataset, threads, config)
    return [
        _aggregate(rule, number, [rows[i] for rows in by_case])
        for i, (rule, number) in enumerate(zip(rules, rule_numbers or [None] * len(rules)))
    ]


def evaluate_rule(
    dataset, rule, config: EvalConfig | None = None, threads: int = 1
) -> RuleEvaluation:
    """Combine, binarize and score every case; aggregate mean/sd per metric.

    Any per-case failure aborts the whole evaluation, tagged with the case id.
    A `rule` that is neither a LinearRule nor a StackingRule is a TypeError
    before any case is read.
    """
    if not isinstance(rule, (LinearRule, StackingRule)):
        raise TypeError(f"rule must be a LinearRule or StackingRule, got {type(rule).__name__}")
    return _sweep(dataset, [rule], config or EvalConfig(), threads)[0]


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

    def rank_of_linear(self, alpha, atol: float = 1e-9) -> int | None:
        """1-based rank of a linear rule in this result, or None if absent."""
        target = np.asarray(alpha, dtype=np.float64)
        for i, row in enumerate(self.rows, start=1):
            if row.model == "linear" and np.allclose(row.rule.alpha, target, rtol=0.0, atol=atol):
                return i
        return None

    def to_dict(self, include_cases: bool = False) -> dict:
        return {
            "rank_by": self.rank_by,
            "split": self.split,
            "options": self.options,
            "rows": [row.to_dict(include_cases) for row in self.rows],
        }

    def heatmap_rows(self):
        """(α₁, α₂, mean DSC) triples for linear rows; α₃ is 1 − α₁ − α₂."""
        rows = [(*row.rule.as_tuple()[:2], row.mean_dsc)
                for row in self.rows if row.model == "linear"]
        return sorted(rows, key=lambda r: r[:2])


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
    rules = simplex_grid(step)
    rows = _sweep(dataset, rules, config or EvalConfig(), threads)
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
    rows = _sweep(dataset, [e.rule for e in entries], config or EvalConfig(), threads,
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
    base, *evaluations = _sweep(dataset, [base_rule, *subsets], config or EvalConfig(), threads)
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
    """Draws rules for Monte-Carlo uncertainty.

    kinds: "dirichlet" (linear rules from a Dirichlet), "stacking_set"
    (uniform over a SampledRuleSet's accepted rules), "fixed" (cycles a given
    rule list deterministically — draw i returns rules[i mod len]).
    """

    def __init__(self, config: dict, rule_set: SampledRuleSet | None = None):
        if not isinstance(config, dict):
            raise ValueError(f"sampler config must be a JSON object, got {config!r}")
        self.kind = config.get("kind")
        if self.kind == "dirichlet":
            conc = config.get("concentration", (1.0, 1.0, 1.0))
            conc = tuple(float(c) for c in conc)
            if len(conc) != 3 or not all(c > 0 and math.isfinite(c) for c in conc):
                raise ValueError(f"concentration must be 3 positive finite reals, got {conc}")
            self.concentration = conc
        elif self.kind == "stacking_set":
            if rule_set is None:
                raise ValueError("stacking_set sampler requires a SampledRuleSet")
            if not rule_set.entries:
                raise ValueError("stacking_set sampler requires accepted rules")
            self.rule_set = rule_set
        elif self.kind == "fixed":
            model = str(config.get("model", "linear"))
            rules = config.get("rules")
            if not rules:
                raise ValueError("fixed sampler requires a non-empty rule list")
            if model == "linear":
                self.rules = [r if isinstance(r, LinearRule) else LinearRule(np.asarray(r)) for r in rules]
            elif model == "stacking":
                self.rules = [r if isinstance(r, StackingRule) else StackingRule(np.asarray(r)) for r in rules]
            else:
                raise ValueError(f"fixed sampler model must be linear or stacking, got {model!r}")
        else:
            raise ValueError(f"unknown sampler kind {self.kind!r}")

    def draw(self, rng: np.random.Generator, index: int):
        if self.kind == "dirichlet":
            return dirichlet_rule(rng, self.concentration)
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
    may hand in the same buffer each time. The mean is returned in the first
    sample's copy and the variance in the squares' sum: no volume is
    allocated past the three.
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
    # in place, the same IEEE operations as first + s1/n and s2/n - (s1/n)**2
    s1 /= n
    first += s1
    s2 /= n
    s2 -= np.multiply(s1, s1, out=s1)
    np.maximum(s2, 0.0, out=s2)
    return first, s2


def check_draws(n_draws: int) -> None:
    """Raise ValueError unless `n_draws` is at least 2, as a variance needs."""
    if n_draws < 2:
        raise ValueError(f"n_draws must be >= 2, got {n_draws}")


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

    `dataset` is as for `_run_cases`. The rules are drawn up front, and each
    case is one task, which runs all the draws on the buffers it was set up
    with. The result does not depend on `threads`. Draws are not split
    across tasks, as that would change the summation order of the moments.
    Each case's mean and variance volumes are returned whole.
    """
    check_draws(n_draws)
    if isinstance(sampler, dict):
        sampler = RuleSampler(sampler, rule_set=rule_set)
    config = config or EvalConfig()
    rng = np.random.default_rng(seed)
    rules = [sampler.draw(rng, i) for i in range(n_draws)]

    def run(case, zone, truth, buffers) -> MCCaseResult:
        dscs = []

        def draws():
            for rule in rules:
                combined, pred = _predict(case, rule, config, buffers)
                dscs.append(dice(in_zone(pred, zone), truth))
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

    return MCResult(
        cases=tuple(_run_cases(run, dataset, threads, config)),
        n_draws=n_draws,
        kind=sampler.kind,
    )
