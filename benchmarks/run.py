#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bregiter CLI.

    python3 benchmarks/run.py --workload long-clean --seed 1 --seconds 30 --trace 0

Runs the public CLI (``bregiter.cli.main``) in-process on one workload (see
workloads.py), repeating whole passes for about ``--seconds`` seconds and
reporting medians over passes.  Every operation is checked against the golden
digests; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced and reports the per-layer metrics.  Output goes to ``.bench_work/``
in the checkout.  Exits 2 without a result when the checkout lacks the
program or its configs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tr
import workloads as wl
from refclock import RefClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 9


def fail(message: str):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Put the checkout's src/ first on the path and make sure bregiter comes from it."""
    if not (SRC / "bregiter" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        fail(f"no bregiter sources and configs/ under {ROOT}")
    sys.path.insert(0, str(SRC))
    import bregiter
    if Path(bregiter.__file__).resolve().parent != (SRC / "bregiter").resolve():
        fail(f"bregiter was imported from {bregiter.__file__}, not from {SRC}")


def measure_setup(clock) -> tuple[float, float]:
    """Median (normalised, raw) time of a fresh interpreter that imports bregiter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import bregiter"]
    def start():
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)

    timings = [clock.time(start, pair=True)[1] for _ in range(SETUP_REPEATS)]
    return (statistics.median(t.norm for t in timings),
            statistics.median(t.wall for t in timings))


def run_pass(clock, plan, input_dir: Path, out_dir: Path, golden: dict) -> list:
    """One pass over the workload; digests are checked outside the timed calls."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops = []
    for unit in plan.units:
        clock.reset()
        unit_ops = wl.run_unit_ops(clock, unit, input_dir, out_dir)
        wl.check_unit(unit, unit_ops, out_dir, golden)
        ops += unit_ops
    clock.reset()
    sweeps = wl.sweep_ops(clock, plan.sweep, input_dir, out_dir)
    wl.check_sweeps(plan.sweep, sweeps, out_dir, golden)
    return ops + sweeps


def repeat_passes(clock, plan, input_dir, out_dir, golden, budget: float, tracer=None) -> list:
    """Run whole passes while the next one is expected to end within the budget."""
    passes = []
    t0 = perf_counter()
    while True:
        start = perf_counter()
        lo = tracer.begin_pass(len(passes)) if tracer else 0
        ops = run_pass(clock, plan, input_dir, out_dir, golden)
        extra = (lo, len(tracer.spans), tracer.counts.copy()) if tracer else None
        passes.append((ops, extra))
        if perf_counter() - t0 + (perf_counter() - start) > budget:
            return passes


def pass_figures(ops: list, raw: bool = False) -> dict:
    """End-to-end figures of one pass, from normalised (or raw) call times."""
    def of(phase):
        return [op for op in ops if op.phase == phase]

    def t(op_list):
        return sum(op.timing.wall if raw else op.timing.norm for op in op_list)

    def rate(phase, unit):
        return sum(getattr(op, unit) for op in of(phase)) / t(of(phase))

    return {
        "wall_s": t(ops),
        "run_steps_per_s": rate("run", "steps"),
        "audit_steps_per_s": rate("audit", "steps"),
        "sweep_points_per_s": rate("sweep1", "points"),
        "sweep_par2_points_per_s": rate("sweep2", "points"),
    }


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in wl.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}")
    golden = wl.load_golden()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    input_dir, out_dir = work / "inputs", work / "out"
    plan = wl.build_plan(args.workload, args.seed)
    wl.write_inputs(plan, input_dir)
    clock = RefClock()

    if args.trace:
        plain = repeat_passes(clock, plan, input_dir, out_dir, golden, args.seconds / 2)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced = repeat_passes(clock, plan, input_dir, out_dir, golden, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.json")
        passes = plain + traced
    else:
        setup = measure_setup(clock)
        passes = repeat_passes(clock, plan, input_dir, out_dir, golden, args.seconds)

    ops = [op for pass_ops, _ in passes for op in pass_ops]
    failed = [op for op in ops if op.errors]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, "
          f"{len(ops)} operations, {len(failed)} failed")
    for op in failed[:20]:
        print(f"  FAILED {op.phase} {op.name}: {'; '.join(op.errors)[:500]}")
    for unit in plan.units:
        if unit.expect_warning and not failed:
            summary = json.loads((out_dir / unit.name / "summary.json").read_text())
            print(f"  expected: {unit.name} (T={unit.iterations}) warns that the contraction "
                  f"hypothesis fails and ends at e_final = {summary['e_final']:.4g}, far above "
                  "1e-6: the standing failure of acceptance 6")
    print(f"  fail_ratio {len(failed) / len(ops):.6g} ratio ({len(failed)}/{len(ops)})")

    if args.trace:
        per_pass = [tr.layer_metrics(tracer.spans, lo, hi, counts) for _, (lo, hi, counts) in traced]
        metrics = {k: per_pass[0][k] if isinstance(per_pass[0][k], int)
                   else statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(pass_figures(p)["wall_s"] for p, _ in traced)
            - statistics.median(pass_figures(p)["wall_s"] for p, _ in plain))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"  {len(plain)} untraced and {len(traced)} traced passes; "
              f"{len(tracer.spans)} spans in {work / 'spans.json'}")
        _, (lo, hi, _) = traced[0]
        print("  self time by span, first traced pass:")
        for name, t in tr.self_times(tracer.spans, lo, hi).most_common(12):
            print(f"    {name:36s} {t:10.4f} s")
        for name, unit in units.items():
            print(f"  {name:28s} {metrics[name]:>14.6g} {unit}")
    else:
        metrics = medians([pass_figures(p) for p, _ in passes])
        raw = medians([pass_figures(p, raw=True) for p, _ in passes])
        metrics["setup_s"], raw["setup_s"] = setup
        metrics["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb()
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        print(f"  {'metric':28s} {'normalised':>14s} {'raw':>14s} unit")
        for name, unit in units.items():
            print(f"  {name:28s} {metrics[name]:>14.6g} {raw[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
