"""File-level harness: runs into directories, sweeps, audits, rate fits.

Every command works on explicit paths; no environment variables are read.
A run directory contains config.json (canonical form of the input), a
trace.csv with a fixed header, states.npz when retention is on,
summary.json, and manifest.json.  Trace floats are written with 17
significant digits so a re-run with the same config and seed reproduces the
file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import sys
import time
import warnings
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import __version__, analysis, config as cfgmod, engine
from .config import ConfigError
from .engine import EngineError
from .geometry import SquaredEuclidean

#: trace.csv columns in file order: header name, engine.Trace attribute, printf format
TRACE_COLUMNS = (
    ("t", "t", "%d"),
    ("e_t", "e", "%.16e"),
    ("a_t", "a", "%.16e"),
    ("alpha_t", "alpha", "%.16e"),
    ("delta_norm_sq", "delta_norm_sq", "%.16e"),
    ("eta_div", "eta_div", "%.16e"),
)
TRACE_HEADER = [name for name, _, _ in TRACE_COLUMNS]

#: trace rows formatted per write; formatting a whole long trace at once holds all its text in memory
WRITE_BLOCK = 4096

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NEEDS_STATES = 3

#: what a run writes into its directory, manifest.json listing the first four; a rerun removes them first
RUN_FILES = ("config.json", "trace.csv", "states.npz", "summary.json", "manifest.json", "audit.json",
             "state_dump.json")


def write_trace_csv(path: Path, trace: engine.Trace):
    """trace.csv of trace in the TRACE_COLUMNS formats, one %-format per WRITE_BLOCK rows."""
    cols = [getattr(trace, attr) for _, attr, _ in TRACE_COLUMNS]
    row_fmt = ",".join(fmt for _, _, fmt in TRACE_COLUMNS) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for lo in range(0, len(trace), WRITE_BLOCK):
            block = [c[lo:lo + WRITE_BLOCK].tolist() for c in cols]
            fh.write(row_fmt * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    """trace.csv columns by header name; any malformed file is a ConfigError naming the path."""
    with open(path, errors="replace") as fh:  # bytes that are no text fail below as fields that are no numbers
        header = fh.readline().rstrip("\n").split(",")
        if header != TRACE_HEADER:
            raise ConfigError(f"{path} has header {header}, expected {TRACE_HEADER}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: rejected below
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:  # a field that is no number, or a row whose field count differs
            raise ConfigError(f"{path} is not a valid trace: {exc}") from exc
    if rows.shape[0] == 0:
        raise ConfigError(f"{path} has a header but no rows")
    if rows.shape[1] != len(TRACE_COLUMNS):
        raise ConfigError(f"{path} has {rows.shape[1]} fields per row, expected {len(TRACE_COLUMNS)}")
    # contiguous copies: a BLAS dot product over a strided column can round differently
    cols = dict(zip(TRACE_HEADER, rows.T.copy()))
    t = cols["t"]
    bad = np.flatnonzero(~((np.floor(t) == t) & (np.abs(t) < 2.0**63)))  # nan, inf, fractions, past int64
    if bad.size:
        raise ConfigError(f"{path} line {bad[0] + 2} has t = {float(t[bad[0]])!r}, expected an integer")
    cols["t"] = t.astype(int)
    return cols


def load_run(run_dir: Path, cfg: cfgmod.RunConfig) -> engine.Trace:
    """The checked Trace that a run directory of cfg records.

    It reads trace.csv, states.npz if kept, and the start-up facts in
    summary.json.  Any fault is a ConfigError naming its file, checked in
    this order: trace.csv; summary.json being an object; states.npz as an
    archive, then T+1 states on cfg's domain and T finite etas, all of its
    dim; then summary.json's config_digest (cfg's), s_star (on the domain),
    gamma_hat (a finite number) and warnings (a list of strings).
    """
    run_dir, g = Path(run_dir), cfg.geometry
    summary_path, states_path = run_dir / "summary.json", run_dir / "states.npz"
    cols = read_trace_csv(run_dir / "trace.csv")
    trace = engine.Trace(**{attr: cols[name] for name, attr, _ in TRACE_COLUMNS})
    summary = json.loads(summary_path.read_text())
    if not isinstance(summary, dict):
        raise ConfigError(f"{summary_path} is not a JSON object")
    if states_path.exists():
        try:
            with np.load(states_path) as npz:
                trace.states, trace.etas = npz["states"], npz["etas"]
        except (KeyError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{states_path} is not a states archive: {exc}") from exc
        want = (trace.iterations + 1, g.dim), (trace.iterations, g.dim)
        try:
            if (trace.states.shape, trace.etas.shape) != want:
                raise ValueError(f"states of shape {trace.states.shape} and etas of shape {trace.etas.shape}, "
                                 f"expected {want[0]} and {want[1]}")
            g.check_point(trace.states, "states")
            SquaredEuclidean(g.dim).check_point(trace.etas, "etas")  # any finite rows of R^dim
        except ValueError as exc:  # also an array that holds no numbers
            raise ConfigError(f"{states_path}: {exc}") from exc
    digest, gamma_hat = summary.get("config_digest"), summary.get("gamma_hat")
    warns = summary.get("warnings", [])
    try:
        if digest != cfg.digest:
            raise ValueError(f"config_digest {digest!r} is not the config's digest {cfg.digest!r}")
        trace.s_star = g.check_point(summary.get("s_star"), "s_star")
        if isinstance(gamma_hat, bool) or not isinstance(gamma_hat, (int, float)) or not math.isfinite(gamma_hat):
            raise ValueError(f"gamma_hat must be a finite number, got {gamma_hat!r}")
        if not isinstance(warns, list) or not all(isinstance(w, str) for w in warns):
            raise ValueError(f"warnings must be a list of strings, got {warns!r}")
    except (TypeError, ValueError, OverflowError) as exc:  # also non-numbers in s_star, or a huge int
        raise ConfigError(f"{summary_path}: {exc}") from exc
    trace.gamma_hat, trace.warnings = float(gamma_hat), warns
    return trace


def write_json(path: Path, obj: dict):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _file_entry(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


@engine.QUIET
def summarize(trace: engine.Trace, cfg: cfgmod.RunConfig) -> dict:
    """Post-run metrics: rate fit, admissible beta, iterations to each eps; a_max, beta_max or M may be null."""
    bc = analysis.measure_constants(trace, cfg)
    beta_max, _ = analysis.audit_recursion(trace, bc)
    summary = {
        "config_digest": cfg.digest,
        "seed": cfg.seed,
        "gamma_hat": trace.gamma_hat,
        "s_star": trace.s_star.tolist(),
        "e0": float(trace.e[0]),
        "e_final": float(trace.e[-1]),
        "a_max": analysis.json_number(trace.a.max()),
        "beta_max": analysis.json_number(beta_max),
        "M": analysis.json_number(bc.M),
        "warnings": list(trace.warnings),
        "slope": None,
        "r2": None,
        "rate_window": None,
        "rate_truncated": None,
    }
    try:
        fit = analysis.fit_rate(trace, cfg.rate_window)
        summary.update(
            slope=fit.slope, r2=fit.r2, rate_window=[fit.t_lo, fit.t_hi],
            rate_truncated=fit.truncated,
        )
    except ValueError:
        pass  # short or degenerate run; slope stays null
    if cfg.perturbation.is_zero:
        passages = engine._passages(cfg, trace.s_star, trace.e, trace.final_state, cfg.eps_list)
        summary["iterations_to_eps"] = [
            {"eps": eps, "t": None if t == engine.CENSORED else t,
             "censored": t == engine.CENSORED}
            for eps, t in zip(cfg.eps_list, passages)
        ]
    else:
        summary["iterations_to_eps"] = [
            {"eps": eps, "t": None, "censored": False, "note": "noisy run; undefined"}
            for eps in cfg.eps_list
        ]
    return summary


def run_to_dir(cfg: cfgmod.RunConfig, out_dir: Path, shared: list | None = None) -> dict:
    """Run cfg and write one run directory; returns the summary dict.

    shared, kept by a sweep group whose points all have one loop_key, is
    empty until a point of the group completes the loop; it then holds that
    point's (Trace, trace.csv path), and later points reuse both and run only
    their own start-up and summary.
    """
    started = _utcnow()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True)
    except FileExistsError:  # an earlier run's files must not pass for this run's
        for name in RUN_FILES:
            (out_dir / name).unlink(missing_ok=True)
    like, shared_trace = shared[0] if shared else (None, None)
    trace = engine.run(cfg, like)

    (out_dir / "config.json").write_text(cfgmod.canonical_json(cfg.raw) + "\n")
    if shared_trace is None:
        write_trace_csv(out_dir / "trace.csv", trace)
        if shared is not None:
            for arr in vars(trace).values():  # later points of the group read these very arrays
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False
            shared.append((trace, out_dir / "trace.csv"))
    else:
        shutil.copyfile(shared_trace, out_dir / "trace.csv")
    if trace.states is not None:
        np.savez_compressed(out_dir / "states.npz", states=trace.states, etas=trace.etas)
    summary = summarize(trace, cfg)
    write_json(out_dir / "summary.json", summary)

    files = {}
    for name in RUN_FILES[:4]:
        p = out_dir / name
        if p.exists():
            files[name] = _file_entry(p)
    write_json(out_dir / "manifest.json", {
        "config_digest": cfg.digest, "tool_version": __version__,
        "started_utc": started, "finished_utc": _utcnow(), "files": files,
    })
    return summary


def cmd_run(config_path: str, out_dir: str, seed: int | None = None,
            overrides: list[str] | None = None) -> int:
    """Execute one run; exit 0 on success, 2 on config errors, 1 on run failures."""
    try:
        raw = cfgmod.load_config_file(config_path)
        if overrides:
            raw = cfgmod.apply_overrides(raw, list(overrides))
        if seed is not None:
            raw["seed"] = int(seed)
        summary = run_to_dir(cfgmod.from_dict(raw), Path(out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config is a ConfigError, so this is the output
        print(f"run: cannot write run directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineError as exc:
        dump = Path(out_dir) / "state_dump.json"  # run_to_dir made the directory before the run
        state = [analysis.json_number(x) for x in exc.state.tolist()]
        write_json(dump, {"error": str(exc), "t": exc.t, "state": state})
        print(f"run failed: {exc} (state dumped to {dump})", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps({
        "digest": summary["config_digest"], "e_final": summary["e_final"],
        "slope": summary["slope"], "warnings": summary["warnings"],
    }))
    return EXIT_OK


def expand_sweep(raw: dict) -> list[tuple[dict, dict]]:
    """Cartesian expansion of the sweep block into (axis values, point config)."""
    sweep = raw.get("sweep")
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("sweep command needs a non-empty sweep block of axis lists")
    axes = sorted(sweep)
    for axis in axes:
        if not isinstance(sweep[axis], list) or not sweep[axis]:
            raise ConfigError(f"sweep.{axis} must be a non-empty list of values")
    base = {k: v for k, v in raw.items() if k != "sweep"}
    points = []
    for combo in product(*(sweep[a] for a in axes)):
        overrides = [f"{a}={json.dumps(v)}" for a, v in zip(axes, combo)]
        point = cfgmod.apply_overrides(base, overrides)
        points.append((dict(zip(axes, combo)), point))
    return points


def _sweep_jobs(groups: list[list], parallel: int) -> list[list]:
    """The jobs of a sweep: one per loop group, the largest halved until each of parallel workers has one.

    Each half runs the loop once.  Halves stay in place, so the jobs list the
    points in group order at any parallel.
    """
    jobs = list(groups)
    while len(jobs) < parallel and max(map(len, jobs), default=0) > 1:
        i = max(range(len(jobs)), key=lambda j: len(jobs[j]))
        half = len(jobs[i]) // 2
        jobs[i:i + 1] = [jobs[i][:half], jobs[i][half:]]
    return jobs


def _sweep_group(points: list[tuple]) -> list[dict]:
    """Worker for the sweep points of one loop key: they share one loop and its trace.csv."""
    shared = []
    return [_sweep_point(point, shared) for point in points]


def _sweep_point(args: tuple, shared: list) -> dict:
    """One parsed sweep point; returns its index row without the axis values, never raises."""
    cfg, out_root = args
    digest = cfg.digest
    try:
        summary = run_to_dir(cfg, Path(out_root) / digest[:12], shared)
    except (EngineError, ValueError, OSError) as exc:
        return {"digest": digest, "status": f"error: {exc}"}
    eps_ts = {f"t_eps[{item['eps']:g}]": item["t"] for item in summary["iterations_to_eps"]}
    return dict(  # csv writes a None as an empty field
        digest=digest, status="ok", slope=summary["slope"], r2=summary["r2"], beta_max=summary["beta_max"],
        gamma_hat=summary["gamma_hat"], e_final=summary["e_final"], **eps_ts,
    )


def cmd_sweep(config_path: str, out_dir: str, parallel: int = 1) -> int:
    """Run the Cartesian sweep; per-point failures are recorded, not fatal.

    Output is independent of the parallelism level: each point runs under a
    digest-named subdirectory and index.csv rows are sorted by digest.  Points
    with one loop_key form one job, which runs their loop once.  A repeated
    point runs once and its row is repeated.  A point that does not parse
    gets its error row here and no job.
    """
    try:
        raw = cfgmod.load_config_file(config_path)
        cfgmod.from_dict(raw, allow_sweep=True)  # validate the base before fanning out
        points = expand_sweep(raw)
        if parallel < 1:
            raise ConfigError(f"--parallel must be >= 1, got {parallel}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_root = Path(out_dir)
    digests = [cfgmod.config_digest(point) for _, point in points]
    unique = dict(zip(digests, (point for _, point in points)))  # a repeated point runs once
    by_digest, groups = {}, {}
    for digest, point in unique.items():
        try:
            cfg = cfgmod.from_dict(point)
        except ConfigError as exc:
            by_digest[digest] = {"digest": digest, "status": f"error: {exc}"}
            continue
        groups.setdefault(cfg.loop_key, []).append((cfg, str(out_root)))
    jobs = _sweep_jobs(list(groups.values()), parallel)
    workers = min(parallel, len(jobs))  # a pool starts all its workers at once, busy or not
    if workers <= 1:
        done = [row for job in jobs for row in _sweep_group(job)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = [row for job_rows in pool.map(_sweep_group, jobs) for row in job_rows]

    by_digest.update((row["digest"], row) for row in done)
    rows = [{**by_digest[digest], **{f"axis:{k}": v for k, v in axis_values.items()}}
            for digest, (axis_values, _) in zip(digests, points)]
    rows.sort(key=lambda r: r["digest"])
    fields = sorted({k for row in rows for k in row})
    fields.sort(key=lambda k: (not k.startswith("axis:"), k != "digest", k))
    try:
        out_root.mkdir(parents=True, exist_ok=True)  # points make it too, but a sweep may run none
        with open(out_root / "index.csv", "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
            w.writeheader()
            w.writerows(rows)
    except OSError as exc:
        print(f"sweep: cannot write {out_root}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    n_err = sum(1 for row in rows if row["status"] != "ok")
    print(f"sweep: {len(rows)} points, {n_err} failed, index at {out_root / 'index.csv'}")
    return EXIT_OK


def cmd_audit(run_dir: str) -> int:
    """Audit a completed run directory; findings go to audit.json.

    Exit 0 even when checks fail (violations are findings); exit 3 when the
    state-dependent audits cannot run because states were not retained.
    """
    run_dir = Path(run_dir)
    try:
        cfg = cfgmod.from_dict(cfgmod.load_config_file(run_dir / "config.json"))
        if not (run_dir / "states.npz").exists():  # before trace.csv is parsed
            print(
                "audit: states.npz not found; descent and cross-term audits need "
                "retained states (rerun with retain_states=true)",
                file=sys.stderr,
            )
            return EXIT_NEEDS_STATES
        trace = load_run(run_dir, cfg)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"audit: cannot load run directory {run_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = analysis.build_audit_report(trace, cfg)
    write_json(run_dir / "audit.json", report.to_json_dict())
    for check in report.checks:
        status = "vacuous" if check.vacuous else ("pass" if check.passed else "FINDING")
        print(f"{check.name}: {status} (worst violation {check.worst_violation:.3e})")
    print(
        f"induction-step: {report.induction.n_violations}/{report.induction.n_total} "
        "grid cells violate the claimed inequality"
    )
    return EXIT_OK


def cmd_rate(trace_path: str, window: tuple[int, int] | None = None) -> int:
    """Fit the log-log rate of a trace file and print the result as JSON."""
    try:
        cols = read_trace_csv(Path(trace_path))
    except (ConfigError, OSError) as exc:
        print(f"rate: cannot read {trace_path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        fit = analysis.fit_rate(cols["e_t"], window)
    except ValueError as exc:
        print(f"rate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(asdict(fit)))
    return EXIT_OK
