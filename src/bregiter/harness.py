"""File-level harness: runs into directories, sweeps, audits, rate fits.

Every command works on explicit paths; no environment variables are read.
A run directory contains config.json (canonical form of the input), a
trace.csv with a fixed header, states.npz when retention is on,
summary.json, and manifest.json.  tracecsv makes and parses trace.csv's
bytes, so a re-run with the same config and seed reproduces the file byte
for byte; here are its files, manifest entries and errors.  A run's
states.npz compresses on a short-lived thread while trace.csv is written,
once its states reach STATES_THREAD_BYTES, and no thread outlives the run,
so a sweep may fork after runs in the same process.  A run that cannot
make trace.csv or states.npz for want of memory raises an ArtifactError
naming the file.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import pickle
import sys
import time
import warnings
import zipfile
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from itertools import groupby, product
from pathlib import Path

import numpy as np

from . import __version__, analysis, config as cfgmod, engine, tracecsv
from .config import ConfigError
from .engine import EngineError
from .geometry import SquaredEuclidean

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_NEEDS_STATES = 3

#: what a run writes into its directory, manifest.json listing the first four; a rerun removes them first
RUN_FILES = ("config.json", "trace.csv", "states.npz", "summary.json", "manifest.json", "audit.json",
             "state_dump.json")


#: bytes of retained states and etas from which states.npz compresses on a thread while trace.csv is written
#: (zlib's deflate releases the GIL).  run_to_dir at dim 2, in process on a 2-vCPU Xeon: the thread cost
#: 0.3-0.9 ms at 300-1000 rows, broke even near 1500 rows (48 KiB) and saved 1-8 ms at 2000-10000 rows
STATES_THREAD_BYTES = 48 * 2**10


class ArtifactError(RuntimeError):
    """A run file whose bytes could not be made for want of memory; the message names the file."""


@contextlib.contextmanager
def _naming(path: Path) -> Iterator[None]:
    """A MemoryError of the with block is raised as an ArtifactError that names path."""
    try:
        yield
    except MemoryError as exc:
        raise ArtifactError(f"cannot make {path}: out of memory") from exc


def write_trace_csv(path: Path, trace: engine.Trace) -> dict:
    """Write trace.csv of trace block by block; returns its manifest entry."""
    digest, size = hashlib.sha256(), 0
    with open(path, "wb") as fh:
        for data in tracecsv.blocks(trace):
            fh.write(data)
            digest.update(data)
            size += len(data)
    return {"bytes": size, "sha256": digest.hexdigest()}


def _loadtxt_trace(path: Path) -> np.ndarray:
    """The values of any trace.csv that np.loadtxt reads, one row per column; a file it cannot read is a ConfigError."""
    with open(path, errors="replace") as fh:  # bytes that are no text fail below as fields that are no numbers
        header = fh.readline().rstrip("\n").split(",")
        if header != tracecsv.TRACE_HEADER:
            raise ConfigError(f"{path} has header {header}, expected {tracecsv.TRACE_HEADER}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: rejected below
                rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:  # a field that is no number, or a row whose field count differs
            raise ConfigError(f"{path} is not a valid trace: {exc}") from exc
    if rows.shape[0] == 0:
        raise ConfigError(f"{path} has a header but no rows")
    if rows.shape[1] != len(tracecsv.TRACE_COLUMNS):
        raise ConfigError(f"{path} has {rows.shape[1]} fields per row, expected {len(tracecsv.TRACE_COLUMNS)}")
    # contiguous copies: a BLAS dot product over a strided column can round differently
    return rows.T.copy()


def read_trace_csv(path: Path) -> dict[str, np.ndarray]:
    """trace.csv columns by header name, with np.loadtxt's dtypes and bits; any malformed file is a ConfigError.

    A file in the writer's grammar is parsed from its bytes (tracecsv.parse);
    np.loadtxt reads any other, and names the path in its errors.
    """
    with open(path, "rb") as fh:
        values = tracecsv.parse(fh)
    cols = dict(zip(tracecsv.TRACE_HEADER, _loadtxt_trace(path) if values is None else values))
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
    this order: trace.csv; summary.json being a JSON object in UTF-8;
    states.npz as an archive, then T+1 states on cfg's domain and T finite
    etas, all of its dim; then summary.json's config_digest (cfg's), s_star
    (on the domain), gamma_hat (a finite number) and warnings (a list of
    strings).
    """
    run_dir, g = Path(run_dir), cfg.geometry
    summary_path, states_path = run_dir / "summary.json", run_dir / "states.npz"
    cols = read_trace_csv(run_dir / "trace.csv")
    trace = engine.Trace(**{attr: cols[name] for name, attr, _ in tracecsv.TRACE_COLUMNS})
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also bytes that are no UTF-8
        raise ConfigError(f"{summary_path} is not JSON: {exc}") from exc
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


def write_json(path: Path, obj: dict) -> dict:
    """obj as strict JSON, and its manifest entry: a non-finite number raises ValueError, as no JSON reader takes one."""
    return _write(path, (json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())


def _utcnow() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _entry(data: bytes) -> dict:
    """The manifest entry of a file that holds data."""
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _write(path: Path, data: bytes) -> dict:
    """Write data to path; returns its manifest entry, hashed from data."""
    path.write_bytes(data)
    return _entry(data)


def _npz(trace: engine.Trace) -> bytes:
    """The bytes of the states.npz of trace's retained states and etas."""
    npz = io.BytesIO()
    np.savez_compressed(npz, states=trace.states, etas=trace.etas)
    return npz.getvalue()


class Loop:
    """A loop that the runs of one loop_key share: its Trace from engine.loops, without start-up facts, or its fault.

    csv, the bytes of its trace.csv, and entry, their manifest entry, are
    made once, by the first run that writes them.  The Trace's arrays are read-only, as every run of the key
    reads them.  A failed loop's trace is the EngineError that each run of
    the key raises after its start-up.
    """

    def __init__(self, trace: engine.Trace | EngineError):
        for arr in vars(trace).values():
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        self.trace = trace

    @functools.cached_property
    def csv(self) -> bytes:
        return b"".join(tracecsv.blocks(self.trace))

    @functools.cached_property
    def entry(self) -> dict:
        return _entry(self.csv)


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
        "slope": None, "r2": None, "rate_window": None, "rate_truncated": None,
    }
    try:
        fit = analysis.fit_rate(trace, cfg.rate_window)
        summary.update(slope=fit.slope, r2=fit.r2, rate_window=[fit.t_lo, fit.t_hi], rate_truncated=fit.truncated)
    except ValueError:
        pass  # short or degenerate run; slope stays null
    if cfg.perturbation.is_zero:
        passages = engine._passages(cfg, trace.s_star, trace.e, trace.final_state, cfg.eps_list)
        summary["iterations_to_eps"] = [{"eps": eps, "t": None if t == engine.CENSORED else t,
                                         "censored": t == engine.CENSORED} for eps, t in zip(cfg.eps_list, passages)]
    else:
        summary["iterations_to_eps"] = [{"eps": eps, "t": None, "censored": False, "note": "noisy run; undefined"}
                                        for eps in cfg.eps_list]
    return summary


@contextlib.contextmanager
def _states_npz(trace: engine.Trace) -> Iterator[Callable[[], bytes] | None]:
    """None without retained states, else a function that returns the bytes of trace's states.npz.

    States of STATES_THREAD_BYTES or more compress on a thread started
    here, while the with block works; the block's end joins it, whether the
    block returns or raises, so no thread outlives the block.  A block that raises before it asks drops the
    thread's result, an error included, as the serial writer never made
    the bytes.  Smaller states, and any where no thread can start, compress
    inline when asked.
    """
    if trace.states is None:
        yield None
        return
    make = functools.partial(_npz, trace)
    if trace.states.nbytes + trace.etas.nbytes < STATES_THREAD_BYTES:
        yield make
        return
    with ThreadPoolExecutor(1, "states.npz") as pool:
        try:
            result = pool.submit(make).result
        except RuntimeError:  # no thread could start
            result = make
        yield result


def run_to_dir(cfg: cfgmod.RunConfig, out_dir: Path, loop: Loop | None = None) -> dict:
    """Run cfg and write one run directory; returns the summary dict.

    loop, the shared loop of cfg's loop_key, stands in for cfg's own: the
    run then makes only its start-up and its summary, and writes the loop's
    trace.csv bytes, or, after its start-up, raises the EngineError of a
    failed loop, as cfg's own loop would.  manifest.json hashes each file
    from the bytes written.

    The files are made in the order config.json, trace.csv, states.npz,
    summary.json, manifest.json.  Large states compress while trace.csv is
    written and summarize runs (_states_npz); states.npz is written even if
    summarize raises, an error of states.npz's replaces summarize's, and a
    run whose config.json or trace.csv fails writes no states.npz.  A
    MemoryError while making trace.csv or states.npz is an ArtifactError
    that names the file.
    """
    started = _utcnow()
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True)
    except FileExistsError:  # an earlier run's files must not pass for this run's
        for name in RUN_FILES:
            (out_dir / name).unlink(missing_ok=True)
    trace = engine.run(cfg) if loop is None else engine.with_start(cfg, loop.trace)

    with _states_npz(trace) as npz:
        files = {"config.json": _write(out_dir / "config.json", (cfgmod.canonical_json(cfg.raw) + "\n").encode())}
        with _naming(out_dir / "trace.csv"):
            if loop is None:
                files["trace.csv"] = write_trace_csv(out_dir / "trace.csv", trace)
            else:
                (out_dir / "trace.csv").write_bytes(loop.csv)
                files["trace.csv"] = loop.entry
        try:
            summary = summarize(trace, cfg)
        finally:
            if npz is not None:
                with _naming(out_dir / "states.npz"):
                    files["states.npz"] = _write(out_dir / "states.npz", npz())
    files["summary.json"] = write_json(out_dir / "summary.json", summary)
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
    except ArtifactError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except EngineError as exc:
        dump = Path(out_dir) / "state_dump.json"  # run_to_dir made the directory before the run
        state = [analysis.json_number(x) for x in exc.state.tolist()]
        write_json(dump, {"error": str(exc), "t": exc.t, "state": state})
        print(f"run failed: {exc} (state dumped to {dump})", file=sys.stderr)
        return EXIT_RUNTIME
    print(json.dumps({
        "digest": summary["config_digest"], "e_final": summary["e_final"],
        "slope": summary["slope"], "warnings": summary["warnings"],
    }, allow_nan=False))
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


def _sweep_jobs(passes: list[list], parallel: int) -> list[list]:
    """The jobs of a sweep: one per pass, the largest cut in two until each of parallel workers has one.

    The job of the most loop keys is cut first, of those the one of the most
    configs, at the key boundary nearest its middle, so each key steps in one
    job.  Only when every job has one key is the one of the most configs
    halved, and each half steps the key.  Halves stay in place, so the jobs
    list the configs in pass order at any parallel.
    """
    jobs = list(passes)
    while len(jobs) < parallel and max(map(len, jobs), default=0) > 1:
        cuts = [[c for c in range(1, len(job)) if job[c].loop_key != job[c - 1].loop_key] for job in jobs]
        i = max(range(len(jobs)), key=lambda j: (len(cuts[j]), len(jobs[j])))
        job = jobs[i]
        cut = min(cuts[i] or [len(job) // 2], key=lambda c: abs(2 * c - len(job)))
        jobs[i:i + 1] = [job[:cut], job[cut:]]
    return jobs


class WorkerLost(RuntimeError):
    """A sweep worker that ended without reporting its rows."""


def _fan_out(fn: Callable[[list], list], jobs: list, workers: int) -> list:
    """The rows of fn over every job: share k, jobs[k::workers], runs in forked child k, and share 0 here.

    Each child inherits the jobs and sends back its rows, or the exception of
    its share, pickled over a pipe.  Every child is reaped before this returns
    or raises; then a child's exception is raised here, and a child that
    ended without reporting raises WorkerLost.  With one worker every job
    runs here.
    """
    if workers <= 1:
        return [row for job in jobs for row in fn(job)]
    children = []
    try:
        for k in range(1, workers):
            children.append(_fork(fn, jobs[k::workers]))
        rows = [row for job in jobs[::workers] for row in fn(job)]
    finally:
        ends = [_reap(pid, fd) for pid, fd in children]
    for pid, code, report in ends:
        if code or not report:
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise WorkerLost(f"worker {pid} ended with {how} without reporting")
        ok, value = pickle.loads(report)
        if not ok:
            raise value
        rows += value
    return rows


def _fork(fn: Callable[[list], list], share: list) -> tuple[int, int]:
    """Fork a child that runs fn over the jobs of share; returns its pid and the read end of its pipe."""
    fd, out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(out)
        raise
    if pid:
        os.close(out)
        return pid, fd
    code = 1  # the child reports once and leaves through os._exit: no exit handler, no stdio flush
    try:
        os.close(fd)
        try:
            report = True, [row for job in share for row in fn(job)]
        except Exception as exc:
            report = False, exc
        with open(out, "wb") as fh:
            fh.write(pickle.dumps(report))
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, fd: int) -> tuple[int, int, bytes]:
    """The pid, exit code (minus the signal if a signal ended it) and report of a child of _fork."""
    with open(fd, "rb") as fh:
        report = fh.read()  # to the end before waiting: a child blocks on a full pipe
    return pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), report


def _sweep_group(out_root: Path, cfgs: list[cfgmod.RunConfig]) -> list[dict]:
    """Worker for the sweep points of one job: one engine.loops call steps the loop of each loop_key once.

    The configs of a key are adjacent and share one Loop, which formats their
    trace.csv once.  A failed loop's Loop holds the EngineError of its lone
    loop, so each row, ok or error, is that of a lone run, and no point
    steps its loop again.
    """
    traces = engine.loops(cfgs)
    rows = []
    for key, points in groupby(cfgs, key=lambda cfg: cfg.loop_key):
        loop = Loop(traces[key])
        rows += [_sweep_point(cfg, out_root, loop) for cfg in points]
    return rows


def _sweep_point(cfg: cfgmod.RunConfig, out_root: Path, loop: Loop | None) -> dict:
    """One parsed sweep point; returns its index row without the axis values, never raises."""
    digest = cfg.digest
    try:
        summary = run_to_dir(cfg, out_root / digest[:12], loop)
    except (EngineError, ArtifactError, ValueError, OSError) as exc:
        return {"digest": digest, "status": f"error: {exc}"}
    eps_ts = {f"t_eps[{item['eps']:g}]": item["t"] for item in summary["iterations_to_eps"]}
    return dict(  # csv writes a None as an empty field
        digest=digest, status="ok", slope=summary["slope"], r2=summary["r2"], beta_max=summary["beta_max"],
        gamma_hat=summary["gamma_hat"], e_final=summary["e_final"], **eps_ts,
    )


def cmd_sweep(config_path: str, out_dir: str, parallel: int = 1) -> int:
    """Run the Cartesian sweep; per-point failures are recorded, not fatal.

    Output is independent of the parallelism level: each point runs under a
    digest-named subdirectory and index.csv rows are sorted by digest.  Each
    pass of engine.passes, planned once here for every point, is one job,
    whose loops step in one stacked pass of engine.loops, a loop_key's loop
    once.  parallel counts this process: it runs a share of the jobs and
    forks a child for each other share (_fan_out), no more processes than
    jobs or than the CPUs it may use, and none where os.fork does not exist.
    A share that raises, or a worker lost or not forked, fails the sweep:
    exit 1, one line on stderr and no index.csv.  A repeated point runs once
    and its row is repeated.  A point that does not parse gets its error row
    here and no job.
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
    digests, by_digest, cfgs = [], {}, {}
    for _, point in points:
        try:
            cfg = cfgmod.from_dict(point)
        except ConfigError as exc:
            digest = cfgmod.config_digest(point)
            by_digest[digest] = {"digest": digest, "status": f"error: {exc}"}
        else:
            digest = cfg.digest
            cfgs[digest] = cfg
        digests.append(digest)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    parallel = min(parallel, cpus if hasattr(os, "fork") else 1)
    jobs = _sweep_jobs(engine.passes(cfgs.values()), parallel)
    try:
        done = _fan_out(functools.partial(_sweep_group, out_root), jobs, min(parallel, len(jobs)))
    except Exception as exc:  # a share that raised, a worker lost or not forked; _fan_out reaped every worker
        print(f"sweep: {exc if isinstance(exc, WorkerLost) else f'{type(exc).__name__}: {exc}'}", file=sys.stderr)
        return EXIT_RUNTIME

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
