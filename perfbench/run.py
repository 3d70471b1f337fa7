"""Run one workload of the rulefuse benchmark and print its metrics.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
Lines before the last are for people: the environment, any failed checks and
every metric by name and unit. The last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With ``--trace 0`` the metrics
are the end-to-end ones named in BENCHMARK.json, measured untraced, some
scaled to a reference host speed (see hostspeed.py); with
``--trace 1`` they are its per-layer ones, from traced passes run beside
untraced ones, and the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_program():
    """The checkout's own `rulefuse`, or None when the checkout has no source."""
    init = SRC / "rulefuse" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no program source at {init}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import rulefuse
    import rulefuse.cli  # noqa: F401  (imported so the tracer can wrap it)

    if Path(rulefuse.__file__).resolve() != init.resolve():
        print(f"perfbench: imported rulefuse from {rulefuse.__file__}, not {init}", file=sys.stderr)
        return None
    return rulefuse


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's .py files, which identifies it without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(rf, workload, seed: int, nproc: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "phantom_seed": workload.phantom_seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(rf, "BACKEND", "numpy"),
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
    }


def measure(seconds: float, step, ledger) -> list:
    """Results of `step` run for about `seconds`.

    It always runs once, then again while one more run, predicted to last as
    long as the last one, still ends in time. A run that raises counts as a
    failed operation and gives no result.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            results.append(step())
        except Exception:
            traceback.print_exc()
            ledger.record(False, f"pass raised {traceback.format_exc(limit=1).strip()}")
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def timed_metrics(workload, seconds: float, ledger) -> dict:
    """Medians of set-up and pass times.

    A set-up or pass that the workload has scaled (`scale_setup`,
    `scaled_threads`) sits between two host-speed probes, and its time is
    scaled by them; any other time is its wall time.
    """
    probes = []
    ready = []  # a probe time taken after the last timed action, if one was

    def timed(action, scaled: bool):
        """(wall, reported time) of `action`, which returns its wall time."""
        if not scaled:
            ready.clear()
            wall = action()
            return wall, wall
        if not ready:
            probes.append(hostspeed.probe())
        before = probes[-1]
        ready.clear()
        wall = action()
        probes.append(hostspeed.probe())
        ready.append(probes[-1])
        return wall, hostspeed.scale(wall, before, probes[-1])

    def setup():
        t0 = time.perf_counter()
        workload.setup()
        return time.perf_counter() - t0

    if workload.scale_setup or workload.scaled_threads:
        hostspeed.probe()  # warm-up
    setups = [timed(setup, workload.scale_setup) for _ in range(workload.setup_repeats)]
    counts = workload.thread_counts
    rounds = measure(
        seconds,
        lambda: {
            t: timed(lambda: workload.run_pass(t)["wall"], t in workload.scaled_threads)
            for t in counts
        },
        ledger,
    )
    samples = {
        "setup_s": setups,
        "wall_s": [r[counts[0]] for r in rounds],
        # the plain serial baseline; the same figure when the workload runs on one thread
        "wall_1t_s": [r[1] for r in rounds],
    }
    if probes:
        print(f"probe_s samples ({len(probes)}): " + " ".join(f"{v:.4f}" for v in probes))
    for name, pairs in samples.items():
        print(f"{name} samples ({len(pairs)}), wall/reported: "
              + " ".join(f"{wall:.4f}/{reported:.4f}" for wall, reported in pairs))
        print(f"  unscaled median {statistics.median(wall for wall, _ in pairs):.6g} s")
    return {
        **{name: statistics.median(r for _, r in pairs) for name, pairs in samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(workload, narrow, wide, threads: int) -> dict:
    """Per-layer figures from one cycle.

    `narrow` and `wide` are (untraced timings, traced timings, tracer) at one
    thread and at `threads`, the workload's widest thread count. Span figures
    come from the one-thread traced pass; pools and pool busy time need the
    wide one.
    """
    base, traced_times, tr = narrow
    summary = tr.summary()
    out = {}
    for name in wl.LAYERS:
        row = summary.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
    counters = tr.counters
    iterations = counters.get("fitting.iterations", 0)
    fitting_s = out["fitting.fit_stacking.self_s"] + out["backends.fit_logistic.self_s"]
    evals = out[f"{wl.CASE_SPAN}.calls"]
    out.update({
        "fitting.iterations": iterations,
        "fitting.step_us": fitting_s / iterations * 1e6 if iterations else 0.0,
        "sampling.accept_ratio": workload.accept_ratio,
        "combine.bytes_computed": counters.get("combine.bytes_computed", 0),
        "discovery.evals": evals,
        "discovery.label_calls_per_eval": (
            out["backends.label_components.calls"] / evals if evals else 0.0
        ),
        "volio.bytes_read": counters.get("volio.bytes_read", 0),
        "volio.bytes_written": counters.get("volio.bytes_written", 0),
        "trace.wall_s": traced_times["wall"],
        "trace.base_wall_s": base["wall"],
        "trace.overhead_frac": traced_times["wall"] / base["wall"] - 1.0,
        "trace.coverage": sum(row["self_s"] for row in summary.values()) / traced_times["wall"],
    })
    for command in wl.Pipeline.COMMANDS:
        out[f"cmd.{command}_s"] = base.get(command, 0.0)

    wide_base, wide_traced, wide_tr = wide
    wide_summary = wide_tr.summary()
    case_s = wide_summary.get(wl.CASE_SPAN, {}).get("total_s", 0.0)
    out["discovery.pools"] = wide_summary.get(wl.POOL_SPAN, {}).get("calls", 0)
    out["discovery.busy_frac"] = case_s / (wide_traced["wall"] * threads)
    out["discovery.scaling"] = base["wall"] / wide_base["wall"]
    return out


def traced_metrics(workload, seconds: float, ledger, env: dict) -> dict:
    workload.setup()
    widest = max(workload.thread_counts)
    passes = []

    def cycle():
        runs = {}
        for threads in sorted(set(workload.thread_counts)):
            base = workload.run_pass(threads)
            tr = Tracer()
            runs[threads] = (base, workload.run_pass(threads, tr), tr)
            passes.append({"threads": threads, "wall_s": runs[threads][1]["wall"], **tr.as_dict()})
        return runs

    cycles = measure(seconds, cycle, ledger)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{env['seed']}.json"
    trace_file.write_text(json.dumps({"env": env, "passes": passes}) + "\n")
    print(f"spans written to {trace_file.relative_to(ROOT)}")
    per_cycle = [layer_metrics(workload, c[1], c[widest], widest) for c in cycles]
    return {key: statistics.median(m[key] for m in per_cycle) for key in per_cycle[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "search", "pipeline"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    rf = import_program()
    if rf is None:
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    reference_file = HERE / "reference.json"
    reference = json.loads(reference_file.read_text()) if reference_file.is_file() else {}
    nproc = len(os.sched_getaffinity(0))
    ledger = wl.Ledger()
    work_dir = OUT / f"work-{os.getpid()}"
    workload = wl.WORKLOADS[args.workload](rf, args.seed, nproc, ledger, reference, work_dir)
    env = environment(rf, workload, args.seed, nproc)
    print("env " + json.dumps(env))

    try:
        if args.trace:
            values = traced_metrics(workload, args.seconds, ledger, env)
        else:
            values = timed_metrics(workload, args.seconds, ledger)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for failure in ledger.failures[:10]:
        print(f"FAILED {failure}")
    print(f"operations: {ledger.attempted} attempted, {ledger.failed} failed "
          f"(fail_frac {ledger.failed / max(ledger.attempted, 1):.6g})")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<40} {value:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed if ledger.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
