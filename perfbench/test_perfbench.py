"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest

import hostspeed
import run
import workloads as wl
from tracer import Tracer, instrument, self_times

rulefuse = run.import_program()


def test_self_time_subtracts_only_nested_children_of_the_same_thread():
    # thread 1: a [0, 100] holds b [10, 40] (which holds c [20, 25]) and d [50, 70].
    # thread 2: e [5, 95] overlaps a in time but is not its child; e holds f [30, 60].
    spans = [
        ["a", 0, 100, None, 1],
        ["b", 10, 40, 0, 1],
        ["e", 5, 95, None, 2],
        ["c", 20, 25, 1, 1],
        ["f", 30, 60, 2, 2],
        ["d", 50, 70, 0, 1],
    ]
    assert self_times(spans) == [50, 25, 60, 5, 30, 20]


def test_spans_nest_per_thread():
    clock = itertools.count()
    tr = Tracer(clock=lambda: next(clock))

    def worker():
        inner = tr.begin("inner")
        leaf = tr.begin("leaf")
        tr.end(leaf)
        tr.end(inner)

    outer = tr.begin("outer")  # t = 0
    thread = threading.Thread(target=worker)  # inner t = 1..4, leaf t = 2..3
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tr.end(outer)  # t = 5

    parents = {span[0]: span[3] for span in tr.spans}
    assert parents == {"outer": None, "inner": None, "leaf": 1}
    assert tr.spans[0][4] != tr.spans[1][4]
    summary = tr.summary()
    assert summary["outer"]["self_s"] == pytest.approx(5e-9)
    assert summary["inner"]["self_s"] == pytest.approx(2e-9)
    assert summary["leaf"]["self_s"] == pytest.approx(1e-9)


def _bindings():
    return {
        (name, key): value
        for name, module in sys.modules.items()
        if module is not None and name.split(".")[0] == "rulefuse"
        for key, value in vars(module).items()
    }


def test_instrument_wraps_every_alias_and_restores_them():
    before = _bindings()
    original = rulefuse.combine.binarize
    original_evaluate = rulefuse.metrics.evaluate
    volume = rulefuse.ProbabilityVolume(np.full((4, 4, 4), 0.7))
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with instrument(tr, "rulefuse", wl.LAYERS):
            for module in (rulefuse.combine, rulefuse.discovery, rulefuse.phantoms, rulefuse.cli):
                assert module.binarize is not original
            # the CLI imports evaluate under another name; one wrapper serves both
            assert rulefuse.cli.evaluate_masks is rulefuse.metrics.evaluate
            assert rulefuse.metrics.evaluate is not original_evaluate
            rulefuse.discovery.binarize(volume)
            raise RuntimeError("leave the block by an error")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert [span[0] for span in tr.spans] == ["combine.binarize", "backends.label_components"]
    assert tr.spans[1][3] == 0


def test_corrupted_report_is_a_failure():
    report = '{"rows": [{"mean_dsc": 0.912345}]}\n'
    expected = hashlib.sha256(report.encode()).hexdigest()
    ledger = wl.Ledger()
    assert ledger.check_report("intact", report, expected)
    corrupted = report.replace("0.912345", "0.912346")
    assert not ledger.check_report("corrupted", corrupted, expected)
    assert not ledger.check_report("missing reference", report, None)
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_separability_oracle_counts_threshold_functions():
    # 104 of the 256 Boolean functions of 3 inputs are linearly separable
    assert len(wl.separable_rule_numbers(256)) == 104
    assert wl.separable_rule_numbers(32) == {n for n in wl.separable_rule_numbers(256) if n < 32}


def test_scale_divides_out_the_probe_beside_a_pass():
    reference = hostspeed.PROBE_REFERENCE_S
    assert hostspeed.scale(3.0, reference, reference) == pytest.approx(3.0)
    # a host running the probe at half speed on average halves the reading
    assert hostspeed.scale(3.0, 1.5 * reference, 2.5 * reference) == pytest.approx(1.5)
