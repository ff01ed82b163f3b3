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
import warnings
import zipfile
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import __version__, analysis, config as cfgmod, engine
from .config import ConfigError
from .engine import EngineError

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
    cols["t"] = cols["t"].astype(int)
    return cols


def load_run(run_dir: Path) -> engine.Trace:
    """The Trace a run directory records: trace.csv, states.npz if kept, and meta from summary.json."""
    run_dir = Path(run_dir)
    cols = read_trace_csv(run_dir / "trace.csv")
    summary = json.loads((run_dir / "summary.json").read_text())
    if not isinstance(summary, dict):
        raise ConfigError(f"{run_dir / 'summary.json'} is not a JSON object")
    states = etas = None
    if (run_dir / "states.npz").exists():
        try:
            with np.load(run_dir / "states.npz") as npz:
                states, etas = npz["states"], npz["etas"]
        except (KeyError, zipfile.BadZipFile) as exc:
            raise ConfigError(f"{run_dir / 'states.npz'} is not a states archive: {exc}") from exc
    meta = {key: summary.get(key) for key in ("config_digest", "seed", "gamma_hat", "s_star")}
    meta["warnings"] = summary.get("warnings", [])
    return engine.Trace(**{attr: cols[name] for name, attr, _ in TRACE_COLUMNS},
                        states=states, etas=etas, meta=meta)


def write_json(path: Path, obj: dict):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _file_entry(path: Path) -> dict:
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


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
    write_json(out_dir / "manifest.json", {
        "config_digest": cfg.digest, "tool_version": __version__,
        "started_utc": started, "finished_utc": _utcnow(), "files": files,
    })
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
        cfg = cfgmod.from_dict(cfgmod.load_config_file(run_dir / "config.json"))
        if not (run_dir / "states.npz").exists():  # before trace.csv is parsed
            print(
                "audit: states.npz not found; descent and cross-term audits need "
                "retained states (rerun with retain_states=true)",
                file=sys.stderr,
            )
            return EXIT_NEEDS_STATES
        trace = load_run(run_dir)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"audit: cannot load run directory {run_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
