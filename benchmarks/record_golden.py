#!/usr/bin/env python3
"""Record golden digests for every input the workloads can draw.

    python3 benchmarks/record_golden.py

Runs every pool member of every workload once through the CLI and writes
golden.json: artifact digests per run unit, per sweep point and index.csv row,
and the index.csv header per workload.  The golden file defines what the
benchmark accepts as correct output, so it was recorded from the seed code;
a change that alters a digest must say why rather than re-record silently.
Takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import platform
import shutil
import sys

import run


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((run.SRC / "bregiter").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def main() -> int:
    run.import_program()
    import numpy as np

    import workloads as wl
    from refclock import RefClock

    clock = RefClock()
    work = run.WORK / "golden"
    shutil.rmtree(work, ignore_errors=True)
    golden = {
        "recorded_with": {
            "code_sha256": code_digest(), "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "runs": {}, "points": {}, "index_headers": {},
    }
    for workload in wl.WORKLOADS:
        input_dir, out_dir = work / workload / "inputs", work / workload / "out"
        units = wl.pool_units(workload)
        for unit in units:
            wl.write_config(input_dir / f"{unit.name}.json", unit.config)
            ops = wl.run_unit_ops(clock, unit, input_dir, out_dir)
            for op, want in zip(ops, (0, 0, unit.audit_exit)):
                if op.code != want:
                    run.fail(f"{op.phase} {unit.name} seed {unit.seed}: exit {op.code!r}, expected {want}")
            golden["runs"][unit.key] = wl.observe_unit(out_dir / unit.name, ops[1].stdout)
            shutil.rmtree(out_dir / unit.name)
        spec = wl.pool_sweep(workload)
        wl.write_config(input_dir / "sweep.json", spec.config)
        ops = wl.sweep_ops(clock, spec, input_dir, out_dir)
        seen = wl.observe_sweep(out_dir / "sweep1")
        if (any(op.code != 0 for op in ops)
                or [d for d, _ in seen["rows"]] != sorted(spec.point_digests())
                or any(wl.observe_sweep(out_dir / op.name)["index"] != seen["index"] for op in ops)):
            run.fail(f"{workload}: the pool sweep did not produce the expected points")
        golden["index_headers"][workload] = seen["header"]
        for d, row in seen["rows"]:
            golden["points"][d] = {"row": row, **seen["points"][d]}
        print(f"{workload}: {len(units)} run units, {spec.points} sweep points", file=sys.stderr)
    shutil.rmtree(work)
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
