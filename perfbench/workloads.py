"""The benchmark's three workloads, the checks on their outputs, and the layers
the traced run wraps.

Each workload has `setup()` (input generation and warm-up, repeated to time
it) and `run_pass(threads, tracer)`, which times one pass, checks its outputs
into the shared `Ledger` and returns its timings in seconds under "wall" (plus
one entry per CLI command for `pipeline`). The tracer, when given, is active
only inside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from itertools import product
from pathlib import Path

import numpy as np

import tracer as tracing

# Criterion 6's recovery phantoms: three lesions at 48³, a planted rule that
# reproduces the truth exactly, and modalities at half fidelity.
RECOVERY_ALPHA = (0.5, 0.5, 0.0)
RECOVERY_SPEC = {
    "dims": [48, 48, 48],
    "n_lesions": 3,
    "radius_range": [4.5, 9.0],
    "fidelity": [0.5, 0.5, 0.5],
    "noise_sd": 0.25,
    "planted_rule": list(RECOVERY_ALPHA),
}
# --seed n selects phantom seed n mod PHANTOM_SEEDS; reference.json holds
# the report digests of every one of them.
PHANTOM_SEEDS = 16
# Rules 0..15 of 256: short passes, so a run holds many of them, and a pass
# still takes tens of ms after a ~75x faster batched descent.
SWEEP_RULES = 16
SEARCH_POOL = 50  # criterion 6 draws 50 cases; its validation split (9) is searched
GRID_STEP = 0.1  # 66 rules
PIPELINE_CASES = 16  # splits 10 / 3 / 3
MC_DRAWS = 64
WARMUP_SPEC = {"dims": [16, 16, 16], "n_lesions": 1, "radius_range": [3.0, 5.0]}


class Ledger:
    """Checked outputs: every check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def check_report(self, what: str, text: str | None, expected: str | None) -> bool:
        digest = None if text is None else hashlib.sha256(text.encode()).hexdigest()
        return self.record(
            digest is not None and digest == expected,
            f"{what}: report sha256 {digest} differs from reference {expected}",
        )


# --- layers wrapped by the traced run ---------------------------------------


def _file_bytes(path) -> int:
    """Size of a file plus its `.json` sidecar, when either exists."""
    total = 0
    for candidate in (Path(path), Path(f"{path}.json")):
        if candidate.is_file():
            total += candidate.stat().st_size
    return total


def _count_iterations(tr, result, args, kwargs):
    tr.count("fitting.iterations", getattr(result, "iterations_used", None) or 0)


def _count_combined(tr, result, args, kwargs):
    # computed, not measured: 3 float64 inputs read and 1 written per voxel
    tr.count("combine.bytes_computed", 4 * 8 * result.values.size)


def _count_read(tr, result, args, kwargs):
    tr.count("volio.bytes_read", _file_bytes(args[0] if args else kwargs["path"]))


def _count_saved(tr, result, args, kwargs):
    tr.count("volio.bytes_written", _file_bytes(result))


def _count_report(tr, result, args, kwargs):
    path = args[2] if len(args) > 2 else kwargs.get("path")
    if path is not None:
        tr.count("volio.bytes_written", len(result.encode()))


LAYERS = {
    "fitting.fit_stacking": _count_iterations,
    "backends.fit_logistic": None,
    "combine.combine_linear": _count_combined,
    "combine.binarize": None,
    "backends.label_components": None,
    "metrics.evaluate": None,
    "metrics.hd95": None,
    "metrics.boundary_surface": None,
    "metrics.dice": None,
    "metrics.truth_context": None,
    "discovery.evaluate_rule": None,
    "discovery._evaluate_case": None,  # one (rule, case) evaluation
    "discovery.monte_carlo_uncertainty": None,
    "discovery.ThreadPoolExecutor": None,  # its calls count the pools created
    "volio.load_manifest": _count_read,
    "volio.load_volume": _count_read,
    "volio.save_volume": _count_saved,
    "volio.write_report": _count_report,
    "phantoms.generate_case": None,
    "cli.main": None,
}
POOL_SPAN = "discovery.ThreadPoolExecutor"
CASE_SPAN = "discovery._evaluate_case"


def traced(tr):
    if tr is None:
        return contextlib.nullcontext()
    return tracing.instrument(tr, "rulefuse", LAYERS)


# --- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    setup_repeats = 5
    # timed mode runs these in order each round; the first is reported as wall_s
    thread_counts = (1,)
    # Which timings are scaled by the host-speed probe (see hostspeed.py):
    # set-up, and passes at these thread counts. Only timings that follow
    # the probe are; README.md, "Host-speed scaling", gives the measurements.
    scale_setup = False
    scaled_threads: tuple[int, ...] = ()

    def __init__(self, rf, seed: int, nproc: int, ledger: Ledger, reference: dict, work_dir):
        self.rf = rf
        self.phantom_seed = seed % PHANTOM_SEEDS
        self.nproc = nproc
        self.ledger = ledger
        self.reference = reference.get(self.name, {}).get(str(self.phantom_seed), {})
        self.work_dir = Path(work_dir)
        self.reports: dict[str, str] = {}
        self.accept_ratio = 0.0  # accepted / fitted rules of the last sweep pass


def separable_rule_numbers(n_rules: int) -> set[int]:
    """Brute force: rule numbers of every threshold function [w·r > b].

    Integer weights in [-3, 3] and half-integer biases in [-3.5, 3.5] realise
    every threshold function of 3 Boolean inputs. Conditions are in canonical
    order k = 4·r1 + 2·r2 + r3, and the first condition is the most
    significant bit of the rule number.
    """
    found = set()
    for w in product(range(-3, 4), repeat=3):
        for b in (x / 2.0 for x in range(-7, 8)):
            number = 0
            for k in range(8):
                r = ((k >> 2) & 1, (k >> 1) & 1, k & 1)
                bit = w[0] * r[0] + w[1] * r[1] + w[2] * r[2] > b
                number = (number << 1) | int(bit)
            found.add(number)
    return {n for n in found if n < n_rules}


class Sweep(Workload):
    """Stacking separability sweep over the first SWEEP_RULES rule numbers."""

    name = "sweep"
    scale_setup = True
    scaled_threads = (1,)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle = separable_rule_numbers(SWEEP_RULES)

    def setup(self):
        rf = self.rf
        R = rf.rules.canonical_condition_matrix()
        rf.fitting.fit_stacking(R, rf.rules.decision_from_number(0))  # one full-budget fit

    def run_pass(self, threads, tr=None):
        with traced(tr):
            t0 = time.perf_counter()
            result = self.rf.sampling.rejection_sample_stacking(n_rules=SWEEP_RULES)
            wall = time.perf_counter() - t0
        accepted = set(result.rule_numbers())
        mismatches = sorted(accepted ^ self.oracle)
        self.ledger.record(
            len(mismatches) <= 4, f"sweep: {len(mismatches)} mismatches vs oracle: {mismatches}"
        )
        self.accept_ratio = len(accepted) / SWEEP_RULES
        return {"wall": wall}


class Search(Workload):
    """Linear grid search over criterion 6's validation split, held in memory."""

    name = "search"

    scaled_threads = (1,)

    @property
    def thread_counts(self):
        return (self.nproc, 1)

    def setup(self):
        rf = self.rf
        spec = rf.phantoms.PhantomSpec.from_dict(RECOVERY_SPEC)
        ids = [f"case_{i:04d}" for i in range(SEARCH_POOL)]
        split = rf.discovery.assign_splits(ids, self.phantom_seed)
        self.cases = [
            rf.phantoms.generate_case([self.phantom_seed, i], spec, case_id=case_id)
            for i, case_id in enumerate(ids)
            if split[case_id] == "validation"
        ]
        planted = rf.fitting.LinearRule(np.array(RECOVERY_ALPHA))
        rf.discovery.evaluate_rule(self.cases, planted, threads=self.nproc)

    def run_pass(self, threads, tr=None):
        rf = self.rf
        with traced(tr):
            t0 = time.perf_counter()
            result = rf.discovery.grid_search_linear(self.cases, step=GRID_STEP, threads=threads)
            wall = time.perf_counter() - t0
        text = rf.volio.write_report(result, "json")
        self.reports["search.json"] = text
        what = f"search (threads={threads})"
        self.ledger.check_report(what, text, self.reference.get("search.json"))
        rank = result.rank_of_linear(RECOVERY_ALPHA)
        self.ledger.record(rank == 1, f"{what}: planted rule ranks {rank}, not 1")
        return {"wall": wall}


class Pipeline(Workload):
    """The CLI in-process: phantom, search, availability, mc-uncertainty."""

    name = "pipeline"
    COMMANDS = ("phantom", "search", "availability", "mc")

    def _commands(self, out: Path, spec: dict, n_cases: int, draws: int):
        """(command, argv, report file or None) in run order."""
        seed = str(self.phantom_seed)
        manifest = str(out / "ds" / "manifest.json")
        sampler = json.dumps({"kind": "dirichlet"})
        return [
            ("phantom", ["--seed", seed, "--threads", "1", "phantom", "--spec", json.dumps(spec),
                         "--n-cases", str(n_cases), "--out-dir", str(out / "ds")], None),
            ("search", ["--threads", "1", "search", manifest, "--step", str(GRID_STEP),
                        "--out", str(out / "search.json")], "search.json"),
            ("availability", ["--threads", "1", "availability", manifest, "--split", "train",
                              "--out", str(out / "availability.json")], "availability.json"),
            ("mc", ["--seed", seed, "--threads", "1", "mc-uncertainty", manifest,
                    "--split", "test", "--sampler", sampler, "--draws", str(draws),
                    "--volumes-out", str(out / "mc_volumes"), "--out", str(out / "mc.json")],
             "mc.json"),
        ]

    def _cli(self, argv) -> tuple[int, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.rf.cli.main(argv)
        return code, stderr.getvalue().strip()

    def setup(self):
        out = self.work_dir / "warmup"
        shutil.rmtree(out, ignore_errors=True)
        try:
            for command, argv, _ in self._commands(out, WARMUP_SPEC, 4, 4):
                code, err = self._cli(argv)
                self.ledger.record(code == 0, f"pipeline warm-up {command}: exit {code}: {err}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, threads, tr=None):
        out = self.work_dir / "pass"
        shutil.rmtree(out, ignore_errors=True)
        times = {}
        commands = self._commands(out, RECOVERY_SPEC, PIPELINE_CASES, MC_DRAWS)
        try:
            for command, argv, report in commands:
                with traced(tr):
                    t0 = time.perf_counter()
                    code, err = self._cli(argv)
                    times[command] = time.perf_counter() - t0
                what = f"pipeline {command}"
                if report is None or code != 0:
                    self.ledger.record(code == 0, f"{what}: exit {code}: {err}")
                    continue
                text = (out / report).read_text()
                self.reports[report] = text
                self.ledger.check_report(what, text, self.reference.get(report))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        times["wall"] = sum(times.values())
        return times


WORKLOADS = {cls.name: cls for cls in (Sweep, Search, Pipeline)}
