"""Record perfbench/reference.json: the report digests for every phantom seed.

    python3 perfbench/record_reference.py

The benchmark counts a report whose sha256 differs from these as a failed
operation. Record again only for a change that is meant to alter what the
reports say, and say so in that change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run
import workloads as wl


def main() -> int:
    rf = run.import_program()
    if rf is None:
        return 2
    work_dir = run.OUT / f"record-{os.getpid()}"
    reference = {}
    try:
        for seed in range(wl.PHANTOM_SEEDS):
            for cls in (wl.Search, wl.Pipeline):
                workload = cls(rf, seed, 1, wl.Ledger(), {}, work_dir)
                workload.setup()
                workload.run_pass(1)
                reference.setdefault(cls.name, {})[str(seed)] = {
                    name: hashlib.sha256(text.encode()).hexdigest()
                    for name, text in sorted(workload.reports.items())
                }
                print(f"{cls.name} phantom seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
