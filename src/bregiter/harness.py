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
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__, analysis, config as cfgmod, engine
from .config import ConfigError
from .engine import EngineError

TRACE_HEADER = ["t", "e_t", "a_t", "alpha_t", "delta_norm_sq", "eta_div"]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NEEDS_STATES = 3


def _fmt(x: float) -> str:
    # fixed 17 significant digits, locale independent
    return format(float(x), ".16e")


def write_trace_csv(path: Path, trace: engine.Trace):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        for i in range(len(trace)):
            w.writerow([
                int(trace.t[i]),
                _fmt(trace.e[i]),
                _fmt(trace.a[i]),
                _fmt(trace.alpha[i]),
                _fmt(trace.delta_norm_sq[i]),
                _fmt(trace.eta_div[i]),
            ])


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header != TRACE_HEADER:
            raise ConfigError(f"{path} has header {header}, expected {TRACE_HEADER}")
        rows = [row for row in r]
    cols = {name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(TRACE_HEADER)}
    cols["t"] = cols["t"].astype(int)
    return cols


def write_json(path: Path, obj: dict):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run directory."""

    config_digest: str
    tool_version: str
    started_utc: str
    finished_utc: str
    files: dict

    def to_json_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "tool_version": self.tool_version,
            "started_utc": self.started_utc,
            "finished_utc": self.finished_utc,
            "files": self.files,
        }


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _file_entry(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _rebuild_trace(trace_cols: dict, run_dir: Path, meta: dict) -> engine.Trace:
    states = etas = None
    states_path = run_dir / "states.npz"
    if states_path.exists():
        with np.load(states_path) as npz:
            states = npz["states"]
            etas = npz["etas"]
    return engine.Trace(
        t=trace_cols["t"], e=trace_cols["e_t"], a=trace_cols["a_t"],
        alpha=trace_cols["alpha_t"], delta_norm_sq=trace_cols["delta_norm_sq"],
        eta_div=trace_cols["eta_div"], states=states, etas=etas, meta=meta,
    )


def summarize(trace: engine.Trace, cfg: cfgmod.RunConfig) -> dict:
    """Post-run metrics: rate fit, admissible beta, iterations to each eps."""
    bc = analysis.measure_constants(trace, cfg)
    beta_max, _ = analysis.audit_recursion(trace, bc)
    summary = {
        "config_digest": cfg.digest,
        "seed": cfg.seed,
        "gamma_hat": trace.meta["gamma_hat"],
        "s_star": trace.meta["s_star"],
        "e0": float(trace.e[0]),
        "e_final": float(trace.e[-1]),
        "a_max": float(trace.a.max()),
        "beta_max": None if not np.isfinite(beta_max) else float(beta_max),
        "M": None if not np.isfinite(bc.M) else float(bc.M),
        "warnings": list(trace.meta.get("warnings", [])),
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
        s_star = np.asarray(trace.meta["s_star"])
        passages = engine._passages(cfg, s_star, trace.e, trace.final_state, cfg.eps_list)
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


def run_to_dir(raw_config: dict, out_dir: Path) -> dict:
    """Validate, run, and write one run directory; returns the summary dict."""
    started = _utcnow()
    cfg = cfgmod.from_dict(raw_config)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = engine.run(cfg)

    (out_dir / "config.json").write_text(cfg.canonical_json() + "\n")
    write_trace_csv(out_dir / "trace.csv", trace)
    if trace.states is not None:
        np.savez_compressed(out_dir / "states.npz", states=trace.states, etas=trace.etas)
    summary = summarize(trace, cfg)
    write_json(out_dir / "summary.json", summary)

    files = {}
    for name in ("config.json", "trace.csv", "states.npz", "summary.json"):
        p = out_dir / name
        if p.exists():
            files[name] = _file_entry(p)
    manifest = RunManifest(
        config_digest=cfg.digest, tool_version=__version__,
        started_utc=started, finished_utc=_utcnow(), files=files,
    )
    write_json(out_dir / "manifest.json", manifest.to_json_dict())
    return summary


def cmd_run(config_path: str, out_dir: str, seed: int | None = None,
            overrides: list[str] | None = None, *, quiet: bool = False) -> int:
    """Execute one run; exit 0 on success, 2 on config errors, 1 on run failures."""
    try:
        raw = cfgmod.load_config_file(config_path)
        if overrides:
            raw = cfgmod.apply_overrides(raw, list(overrides))
        if seed is not None:
            raw["seed"] = int(seed)
        summary = run_to_dir(raw, Path(out_dir))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineError as exc:
        dump = Path(out_dir) / "state_dump.json"
        dump.parent.mkdir(parents=True, exist_ok=True)
        write_json(dump, {"error": str(exc), "t": exc.t, "state": exc.state.tolist()})
        print(f"run failed: {exc} (state dumped to {dump})", file=sys.stderr)
        return EXIT_RUNTIME
    if not quiet:
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


def _sweep_point(args: tuple) -> dict:
    """Worker for one sweep point; returns an index row, never raises."""
    axis_values, point_cfg, out_root = args
    row = {f"axis:{k}": v for k, v in axis_values.items()}
    digest = cfgmod.config_digest(point_cfg)
    try:
        sub = Path(out_root) / digest[:12]
        summary = run_to_dir(point_cfg, sub)
        eps_ts = {
            f"t_eps[{item['eps']:g}]": ("" if item["t"] is None else item["t"])
            for item in summary["iterations_to_eps"]
        }
        row.update(
            digest=digest, status="ok",
            slope="" if summary["slope"] is None else summary["slope"],
            r2="" if summary["r2"] is None else summary["r2"],
            beta_max="" if summary["beta_max"] is None else summary["beta_max"],
            gamma_hat=summary["gamma_hat"], e_final=summary["e_final"], **eps_ts,
        )
    except (ConfigError, EngineError, ValueError) as exc:
        row.update(digest=digest, status=f"error: {exc}")
    return row


def cmd_sweep(config_path: str, out_dir: str, parallel: int = 1, *, quiet: bool = False) -> int:
    """Run the Cartesian sweep; per-point failures are recorded, not fatal.

    Output is independent of the parallelism level: each point runs under a
    digest-named subdirectory and index.csv rows are sorted by digest.
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
    out_root.mkdir(parents=True, exist_ok=True)
    jobs = [(axis_values, point, str(out_root)) for axis_values, point in points]
    if parallel == 1:
        rows = [_sweep_point(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            rows = list(pool.map(_sweep_point, jobs))

    rows.sort(key=lambda r: r["digest"])
    fields = sorted({k for row in rows for k in row})
    fields.sort(key=lambda k: (not k.startswith("axis:"), k != "digest", k))
    with open(out_root / "index.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        w.writeheader()
        for row in rows:
            w.writerow(row)
    n_err = sum(1 for row in rows if row["status"] != "ok")
    if not quiet:
        print(f"sweep: {len(rows)} points, {n_err} failed, index at {out_root / 'index.csv'}")
    return EXIT_OK


def cmd_audit(run_dir: str, *, quiet: bool = False) -> int:
    """Audit a completed run directory; findings go to audit.json.

    Exit 0 even when checks fail (violations are findings); exit 3 when the
    state-dependent audits cannot run because states were not retained.
    """
    run_dir = Path(run_dir)
    try:
        raw = cfgmod.load_config_file(run_dir / "config.json")
        cfg = cfgmod.from_dict(raw)
        cols = read_trace_csv(run_dir / "trace.csv")
        summary = json.loads((run_dir / "summary.json").read_text())
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"audit: cannot load run directory {run_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    meta = {
        "config_digest": summary.get("config_digest"),
        "seed": summary.get("seed"),
        "gamma_hat": summary.get("gamma_hat"),
        "s_star": summary.get("s_star"),
        "warnings": summary.get("warnings", []),
    }
    trace = _rebuild_trace(cols, run_dir, meta)
    if trace.states is None:
        print(
            "audit: states.npz not found; descent and cross-term audits need "
            "retained states (rerun with retain_states=true)",
            file=sys.stderr,
        )
        return EXIT_NEEDS_STATES
    report = analysis.build_audit_report(trace, cfg)
    write_json(run_dir / "audit.json", report.to_json_dict())
    if not quiet:
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
    print(json.dumps(fit.to_json_dict()))
    return EXIT_OK
