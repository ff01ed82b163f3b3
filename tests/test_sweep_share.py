"""Sweep points that share a loop key share one loop and one trace.csv.

RunConfig.loop_key must hold everything engine.run's loop reads: a config
that differs only outside the key gets, from the loop of another, the bits
of its own fresh run and of the checked step-by-step loop, and a change to
any field inside the key changes the key.  The loop keys of a batch_key,
which differ only in the seed and in the operator's stackable params, share
one stacked pass of engine.loops, whose rows have the bits of lone loops.
A grouped sweep writes, for each point, the bytes a lone run of that point
writes, at any --parallel, block size and pass size.
"""

import csv
import hashlib
import json
import os
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config, engine
from bregiter.geometry import DomainError, NegativeEntropy
from bregiter.operators import AffineColinear
from bregiter.harness import RUN_FILES, _sweep_jobs, cmd_run, cmd_sweep, expand_sweep
from test_harness import CONFIGS, KAPPA0_OVERFLOW, OVERFLOW_CASES, OVERFLOW_ERROR, OVERFLOW_TARGET
from test_run_oracle import PAIRS, SCHEDULES, ZERO_BUDGET, draw_raw, failure, noisy_config, outcome, same_bits


def _scaled(v):
    return v * 0.5 if v else 0.5


def _geometry(raw):
    g = dict(raw["geometry"])
    if g["kind"] == "squared-euclidean":
        return {"kind": "quadratic", "dim": g["dim"], "params": {"a": (2.0 * np.eye(g["dim"])).tolist()}}
    if g["kind"] == "quadratic":
        return {**g, "params": {"a": (2.0 * np.asarray(g["params"]["a"])).tolist()}}
    return {**g, "params": {"rho": 1e-7}}


def _operator(raw):
    op = raw["operator"]
    name = next(k for k, v in sorted(op["params"].items()) if not isinstance(v, list))
    return {**op, "params": {**op["params"], name: _scaled(op["params"][name])}}


def _schedule(raw):
    kind, params = raw["schedule"]["kind"], raw["schedule"]["params"]
    if kind == "accelerated":
        return {"kind": "constant", "params": {"c": 0.5}}
    if kind == "constant":
        return {"kind": kind, "params": {"c": params["c"] * 0.5}}
    return {"kind": kind, "params": {**params, "p": params["p"] + 0.5}}


def _s0(raw):
    s0 = np.asarray(raw["s0"])
    if raw["geometry"]["kind"] == "negative-entropy":
        return (0.9 * s0 + 0.1 * np.eye(s0.size)[0]).tolist()
    return (s0 + 0.5).tolist()


def _perturbation(raw):
    pd = raw.get("perturbation")
    return {"mode": "zero"} if pd is None else {**pd, "delta0": pd["delta0"] + 0.01}


#: top-level key -> one valid change of it that the loop reads
INSIDE = {
    "geometry": _geometry,
    "operator": _operator,
    "schedule": _schedule,
    "perturbation": _perturbation,
    "s0": _s0,
    "iterations": lambda raw: raw["iterations"] + 1,
    "retain_states": lambda raw: not raw["retain_states"],
    "seed": lambda raw: raw["seed"] + 1,  # inside the key on a noisy config only
}

#: top-level key -> a change the loop does not read
OUTSIDE = {
    "eps_list": lambda raw: [1e-3, 1e-9, 0.5],
    "rate_window": lambda raw: [raw["iterations"] // 3, raw["iterations"]],
    "seed": lambda raw: raw["seed"] + 1,  # outside the key on a noise-free config only
}


def test_every_config_key_is_inside_or_outside_the_loop_key():
    assert {*INSIDE, *OUTSIDE, "sweep"} == config._TOP_REQUIRED | config._TOP_OPTIONAL
    assert set(INSIDE) & set(OUTSIDE) == {"seed"}


DRAWS = (st.integers(0, 2**32 - 1), st.sampled_from(PAIRS), st.sampled_from(sorted(SCHEDULES)),
         st.sampled_from(["zero", "random", "adversarial"]), st.sampled_from(["unscaled", "scaled"]),
         st.booleans(), st.integers(1, 300))


@settings(max_examples=80, deadline=None)
@given(*DRAWS)
def test_a_loop_serves_every_config_of_its_key(seed, pair, schedule, mode, injection, retain, iterations):
    raw = draw_raw(seed, pair, schedule, mode, injection, retain, iterations)
    cfg = config.from_dict(raw)
    other = raw
    for path, change in OUTSIDE.items():
        if path != "seed" or cfg.perturbation.is_zero:
            other = {**other, path: change(raw)}
    twin = config.from_dict(other)
    assert twin.loop_key == cfg.loop_key

    first, first_err = outcome(engine.run, cfg)
    fresh, fresh_err = outcome(engine.run, twin)
    want, want_err = outcome(oracles.run_loop, twin)
    assert fresh_err == want_err
    assert engine.passes([cfg, twin]) == [[cfg, twin]]
    loops = engine.loops([cfg])
    assert set(loops) == {cfg.loop_key}
    loop = loops[cfg.loop_key]
    if first is not None:
        assert isinstance(loop, engine.Trace)
    elif first_err[1] >= 0:  # a failed loop carries its fault; the twin's fails alike unless its start-up fails first
        assert (str(loop), loop.t) == first_err and (fresh_err == first_err or fresh_err[1] == -1)
    shared, shared_err = outcome(lambda c: engine.with_start(c, loop), twin)
    assert shared_err == fresh_err
    if fresh is None:
        return
    for name, ref in want.items():
        assert same_bits(getattr(shared, name), ref), name
    for name in ("t", "a", *want):
        assert same_bits(getattr(shared, name), getattr(fresh, name)), name
    assert same_bits(shared.s_star, fresh.s_star)
    assert (shared.gamma_hat, shared.warnings) == (fresh.gamma_hat, fresh.warnings)


@settings(max_examples=80, deadline=None)
@given(*DRAWS)
def test_every_change_inside_the_loop_key_changes_it(seed, pair, schedule, mode, injection, retain, iterations):
    raw = draw_raw(seed, pair, schedule, mode, injection, retain, iterations)
    cfg = config.from_dict(raw)
    for path, change in INSIDE.items():
        if path == "seed" and cfg.perturbation.is_zero:
            continue
        assert config.from_dict({**raw, path: change(raw)}).loop_key != cfg.loop_key, path


# ---------------------------------------------------------------------------
# grouped sweeps against lone runs

#: T(s) = s - 1e100 (s - b) from s0 = 0 on the accelerated schedule: D(s_2, s_star) overflows
BLOWUP = {"kind": "gradient-step", "params": {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0], "step": 1e100}}

SWEEP = {
    "geometry": {"kind": "squared-euclidean", "dim": 2},
    "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}},
    "schedule": {"kind": "accelerated"},
    "perturbation": {"mode": "random", "delta0": 0.0, "kappa": 0.0},
    "s0": [0.0, 0.0],
    "iterations": 150,
    "seed": 1,
    "retain_states": True,
    "eps_list": [1e-3, 1e-9],
    # noise-free points group by operator over the seeds; each noisy point is a group of its own,
    # and the repeated seed 3 gives every point a twin that shares its directory
    "sweep": {
        "operator": [{"kind": "affine-colinear", "params": {"gamma": g, "target": [2.0, -1.0]}}
                     for g in (0.25, 0.5)] + [BLOWUP],
        "perturbation.delta0": [0.0, 0.01],
        "seed": [1, 2, 3, 3],
    },
}


def test_grouped_sweep_points_equal_lone_runs(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP))
    points = expand_sweep(SWEEP)
    groups = {}
    for _, point in points:
        groups.setdefault(config.from_dict(point).loop_key, []).append(point)
    assert sorted(len(g) for g in groups.values()) == [1] * 6 + [2] * 3 + [4] * 3

    index = {}
    for parallel in (1, 2, 4):
        out = tmp_path / f"p{parallel}"
        assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
        index[parallel] = (out / "index.csv").read_bytes()
    assert index[1] == index[2] == index[4]

    with open(tmp_path / "p1" / "index.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(points)
    status = {row["digest"]: row["status"] for row in rows}
    for seed3, twin in zip(*(iter(r for r in rows if r["axis:seed"] == "3"),) * 2):
        assert seed3 == twin  # rows sort by digest, so twins are adjacent
    blowups = set()
    for i, (_, point) in enumerate(points):
        digest = config.config_digest(point)
        lone = tmp_path / f"lone{i}"
        (tmp_path / f"point{i}.json").write_text(json.dumps(point))
        code = cmd_run(str(tmp_path / f"point{i}.json"), str(lone))
        if code == 1:
            error = json.loads((lone / "state_dump.json").read_text())["error"]
            assert status[digest] == f"error: {error}"
            if point["operator"] == BLOWUP and point["perturbation"]["delta0"] == 0.0:
                blowups.add(status[digest])
            continue
        assert code == 0 and status[digest] == "ok"
        for parallel in (1, 2, 4):
            sub = tmp_path / f"p{parallel}" / digest[:12]
            for name in ("config.json", "trace.csv", "summary.json", "states.npz"):
                assert (sub / name).read_bytes() == (lone / name).read_bytes(), (parallel, name)
            files = json.loads((sub / "manifest.json").read_text())["files"]
            assert files == json.loads((lone / "manifest.json").read_text())["files"]
    assert blowups == {"error: non-finite divergence at iteration 2"}


def cut_jobs(passes, parallel):
    """The jobs of _sweep_jobs, as strings of loop keys, for passes of configs whose loop keys are letters."""
    passes = [[SimpleNamespace(loop_key=key, n=n) for n, key in enumerate(keys)] for keys in passes.split()]
    jobs = _sweep_jobs(passes, parallel)
    assert [cfg for job in jobs for cfg in job] == [cfg for keys in passes for cfg in keys]  # in place, in order
    return ["".join(cfg.loop_key for cfg in job) for job in jobs]


def test_sweep_jobs_halve_the_largest_group_until_every_worker_has_one():
    assert cut_jobs("abcde", 1) == ["abcde"]
    assert cut_jobs("abcde", 4) == ["a", "b", "c", "de"]
    assert cut_jobs("ab cde", 3) == ["ab", "c", "de"]
    assert cut_jobs("a b c", 4) == ["a", "b", "c"]
    assert cut_jobs("", 4) == []
    # a job of several loop keys is cut at the key boundary nearest its middle, a job of one key by configs
    assert cut_jobs("aabbccddee", 2) == ["aabb", "ccddee"]
    assert cut_jobs("aabbccddee", 4) == ["aa", "bb", "cc", "ddee"]
    assert cut_jobs("aaaaaaab", 2) == ["aaaaaaa", "b"]
    assert cut_jobs("aaaaaaab", 3) == ["aaa", "aaaa", "b"]
    assert cut_jobs("aaabbbccc dddd", 4) == ["aaa", "bbb", "ccc", "dddd"]
    assert cut_jobs("aaaaa", 4) == ["a", "a", "a", "aa"]
    # the job of the most keys is cut first; a one-key job is halved only when every job has one key
    assert cut_jobs("aaaaaa bc", 3) == ["aaaaaa", "b", "c"]
    assert cut_jobs("aaaa bbcc", 3) == ["aaaa", "bb", "cc"]
    assert cut_jobs("aaaa bbcc", 4) == ["aa", "aa", "bb", "cc"]


def test_a_sweep_steps_each_loop_key_in_one_job(tmp_path, monkeypatch):
    # five noisy seeds, each the loop key of two eps_list points: no cut falls inside a key
    raw = {**SWEEP, "perturbation": NOISY_PERTURBATIONS[2], "iterations": 120,
           "sweep": {"seed": [1, 2, 3, 4, 5], "eps_list": [[1e-3], [1e-4]]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    log, plain = tmp_path / "stepped.log", engine.loops

    def loops(cfgs):  # appends from every process of the sweep, in writes of one line
        with open(log, "a") as fh:
            fh.write(" ".join(sorted({str(cfg.seed) for cfg in cfgs})) + "\n")
        return plain(cfgs)

    monkeypatch.setattr(engine, "loops", loops)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    for parallel in (1, 2, 4):
        log.write_text("")
        assert cmd_sweep(str(path), str(tmp_path / f"p{parallel}"), parallel=parallel) == 0
        jobs = log.read_text().splitlines()
        assert len(jobs) == parallel and sorted(" ".join(jobs).split()) == ["1", "2", "3", "4", "5"], jobs
    assert_same_sweep(tmp_path / "p2", tmp_path / "p1")
    assert_same_sweep(tmp_path / "p4", tmp_path / "p1")


def test_a_sweep_of_one_loop_key_fans_out(tmp_path):
    raw = {**SWEEP, "sweep": {"seed": [1, 2, 3, 4, 5]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    assert len({config.from_dict(point).loop_key for _, point in expand_sweep(raw)}) == 1
    index = {}
    for parallel in (1, 2, 4):
        out = tmp_path / f"p{parallel}"
        assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
        index[parallel] = (out / "index.csv").read_bytes()
        for sub in sorted(out.iterdir()):
            if sub.is_dir():
                ref = tmp_path / "p1" / sub.name
                for name in ("config.json", "trace.csv", "summary.json", "states.npz"):
                    assert (sub / name).read_bytes() == (ref / name).read_bytes(), (parallel, name)
    assert index[1] == index[2] == index[4]
    assert index[1].count(b",ok,") == 5


# ---------------------------------------------------------------------------
# the seeds of a noisy key share one batched pass

def lone_loops(cfg, seeds):
    """The lone loop of cfg at each of seeds: its Trace, or the EngineError it fails with."""
    s_star, s, _ = engine._start(cfg)
    return [engine._loop(cfg, s_star, s, [seed])[0] for seed in seeds]


def fault_of(exc):
    """The message, t and state bytes of an EngineError, as failure gives them."""
    return str(exc), exc.t, exc.state.tobytes()


TRACE_ARRAYS = ("t", "e", "a", "alpha", "delta_norm_sq", "eta_div", "states", "etas", "final_state")


def assert_same_loop(got, want):
    """got has the bits of want, a lone loop's Trace, or the message, t and state bytes of its EngineError."""
    if isinstance(want, engine.EngineError):
        assert isinstance(got, engine.EngineError) and fault_of(got) == fault_of(want)
        return
    for name in TRACE_ARRAYS:
        assert same_bits(getattr(got, name), getattr(want, name)), name


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([p for p in PAIRS if p[0] != "negative-entropy"]),
       st.sampled_from(sorted(SCHEDULES)), st.sampled_from(["random", "adversarial"]),
       st.sampled_from(["unscaled", "scaled"]), st.booleans(), st.integers(1, 300),
       st.lists(st.integers(0, 2**31), min_size=2, max_size=5, unique=True), st.sampled_from([1, 7, engine.BLOCK]))
def test_a_batched_loop_equals_the_lone_loop_of_each_seed(seed, pair, schedule, mode, injection, retain,
                                                          iterations, seeds, block):
    cfg = config.from_dict(draw_raw(seed, pair, schedule, mode, injection, retain, iterations))
    try:
        s_star, s, _ = engine._start(cfg)
    except engine.EngineError:
        return
    with mock.patch.object(engine, "BLOCK", block):
        lone = lone_loops(cfg, seeds)
        got, err = outcome(lambda c: engine._loop(c, s_star, s, seeds), cfg)
    assert err is None and len(got) == len(seeds)
    for want, trace in zip(lone, got):
        assert_same_loop(trace, want)  # a failing row fails alone, with the fault of its lone loop
        if isinstance(want, engine.Trace):
            for name in TRACE_ARRAYS:
                assert getattr(trace, name) is None or getattr(trace, name).flags.c_contiguous, name


@pytest.mark.parametrize("block", [1, 7, engine.BLOCK])
@pytest.mark.parametrize("injection", ["unscaled", "scaled"])
def test_a_batch_rewinds_each_row_that_leaves_draws_unused(block, injection):
    # s0 is the fixed point and delta0 = 0, so row 0 and later rows that land on the fixed point have budget 0
    cfg = noisy_config(injection, **ZERO_BUDGET)
    s_star, s, _ = engine._start(cfg)
    seeds = [3, 4, 5]
    with mock.patch.object(engine, "BLOCK", block):
        got = engine._loop(cfg, s_star, s, seeds)
        lone = lone_loops(cfg, seeds)
    for want, trace in zip(lone, got):
        assert (want.eta_div == 0).sum() > 1
        for name in TRACE_ARRAYS:
            assert same_bits(getattr(trace, name), getattr(want, name)), name


#: a noisy sweep: each perturbation is a batch of five seeds, and each seed a loop key of two points
NOISY_PERTURBATIONS = [{"mode": "random", "delta0": 1e-3, "kappa": kappa, "injection": injection}
                       for kappa in (0.0, 0.1) for injection in ("unscaled", "scaled")]
NOISY_PERTURBATIONS += [{"mode": "adversarial", "delta0": 1e-3, "kappa": 0.1, "injection": "scaled"}]


def lone_run_dirs(tmp_path, raw):
    """Each point of the sweep raw run alone by cmd_run: {digest: (exit code, run directory)}."""
    out = {}
    for i, (_, point) in enumerate(expand_sweep(raw)):
        path = tmp_path / f"point{i}.json"
        path.write_text(json.dumps(point))
        lone = tmp_path / f"lone{i}"
        out[config.config_digest(point)] = cmd_run(str(path), str(lone)), lone
    return out


def assert_sweep_equals_lone_runs(sweep_dir, lone):
    with open(sweep_dir / "index.csv", newline="") as fh:
        status = {row["digest"]: row["status"] for row in csv.DictReader(fh)}
    assert set(status) == set(lone)
    for digest, (code, lone_dir) in lone.items():
        if code == 1:
            assert status[digest] == f"error: {json.loads((lone_dir / 'state_dump.json').read_text())['error']}"
            continue
        assert code == 0 and status[digest] == "ok"
        sub = sweep_dir / digest[:12]
        for name in ("config.json", "trace.csv", "summary.json", "states.npz"):
            assert (sub / name).read_bytes() == (lone_dir / name).read_bytes(), name
        files = json.loads((sub / "manifest.json").read_text())["files"]
        assert files == json.loads((lone_dir / "manifest.json").read_text())["files"]


def counting_passes(monkeypatch):
    """Record the rows of every pass of engine.loops made in this process, as (seed, gamma), and those that failed.

    A row is the first config of each distinct loop key of the pass, the one that engine.loops steps.  This
    process runs every pass of a serial sweep and share 0 of a parallel one; four CPUs are pinned, so the
    shares of a --parallel 4 sweep do not depend on the host.  Returns the passes and the fault of each
    failed row, as fault_of gives it.  From here on no point may step its loop again: engine.run raises, in
    forked workers too, and each engine.loops call steps one pass of engine._loop.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    passes, faults, stepped, plain, plain_loop = [], {}, [], engine.loops, engine._loop

    def row(cfg):
        return (cfg.seed, cfg.operator.gamma) if hasattr(cfg.operator, "gamma") else cfg.seed

    def loop(*args):
        stepped.append(1)
        return plain_loop(*args)

    def counted(cfgs):
        before = len(stepped)
        out = plain(cfgs)
        assert len(stepped) == before + 1
        rows = {}
        for cfg in cfgs:
            rows.setdefault(cfg.loop_key, row(cfg))
        failed = {r: fault_of(out[key]) for key, r in rows.items() if isinstance(out[key], engine.EngineError)}
        assert all(faults.get(r, f) == f for r, f in failed.items())  # a row fails alike in every pass
        faults.update(failed)
        passes.append((list(rows.values()), list(failed)))
        return out

    def run(cfg):
        raise AssertionError("a sweep point stepped its loop again")

    monkeypatch.setattr(engine, "_loop", loop)
    monkeypatch.setattr(engine, "loops", counted)
    monkeypatch.setattr(engine, "run", run)
    return passes, faults


@pytest.mark.parametrize("perturbation", NOISY_PERTURBATIONS,
                         ids=lambda p: f"{p['mode']}-{p['kappa']}-{p['injection']}")
def test_a_noisy_seed_sweep_writes_the_files_of_lone_runs(tmp_path, monkeypatch, perturbation):
    raw = {**SWEEP, "perturbation": perturbation, "iterations": 120,
           "sweep": {"seed": [1, 2, 3, 4, 5], "eps_list": [[1e-3], [1e-4]]}}
    points = [config.from_dict(point) for _, point in expand_sweep(raw)]
    assert len({cfg.batch_key for cfg in points}) == 1 and len({cfg.loop_key for cfg in points}) == 5
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    lone = lone_run_dirs(tmp_path, raw)
    passes, _ = counting_passes(monkeypatch)
    index = set()
    for block in (1, 7, engine.BLOCK):
        for parallel in (1, 2, 4):
            out = tmp_path / f"b{block}p{parallel}"
            with mock.patch.object(engine, "BLOCK", block):  # forked workers inherit it
                assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
            assert_sweep_equals_lone_runs(out, lone)
            index.add((out / "index.csv").read_bytes())
    assert len(index) == 1
    # per block, the serial sweep's one pass, then share 0 of --parallel 2 and of 4, jobs cut at loop keys
    assert passes == [([(seed, 0.5) for seed in (1, 2, 3, 4, 5)], []), ([(1, 0.5), (2, 0.5)], []),
                      ([(1, 0.5)], [])] * 3


def test_a_batch_with_failing_seeds_reruns_each_failing_point_alone(tmp_path, monkeypatch):
    # no point steps again: each failing row of the pass carries the fault of its lone run
    raw = {**KAPPA0_OVERFLOW, "iterations": 512,
           "perturbation": {"mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"},
           "sweep": {"seed": [1, 2, 3, 4, 5, 6, 7, 8]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    lone = lone_run_dirs(tmp_path, raw)
    codes = {point["seed"]: lone[config.config_digest(point)][0] for _, point in expand_sweep(raw)}
    assert codes == {1: 1, 2: 1, 3: 1, 4: 0, 5: 1, 6: 1, 7: 0, 8: 0}
    want = lone_faults(raw, lambda cfg: cfg.seed)
    passes, faults = counting_passes(monkeypatch)
    for parallel in (1, 2, 4):
        assert cmd_sweep(str(path), str(tmp_path / f"p{parallel}"), parallel=parallel) == 0
        assert_sweep_equals_lone_runs(tmp_path / f"p{parallel}", lone)
    # the serial sweep, whose failing rows fail alone, then share 0 of --parallel 2 and of 4
    assert passes == [([1, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 5, 6]), ([1, 2, 3, 4], [1, 2, 3]), ([1, 2], [1, 2])]
    assert faults == want


def lone_faults(raw, row):
    """The fault of the lone run of each failing point of the sweep raw, as fault_of gives it, by row(cfg)."""
    faults = {}
    for _, point in expand_sweep(raw):
        cfg = config.from_dict(point)
        try:
            engine.run(cfg)
        except engine.EngineError as exc:
            faults[row(cfg)] = fault_of(exc)
    return faults


# ---------------------------------------------------------------------------
# the gamma x seed rows of a job share one stacked pass

#: every perturbation a stacked pass steps: zero, random at kappa 0 and 0.1 with either injection, adversarial
STACKED_PERTURBATIONS = [{"mode": "zero"}] + NOISY_PERTURBATIONS + [
    {"mode": "adversarial", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"}]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["squared-euclidean", "quadratic"]),
       st.sampled_from(sorted(SCHEDULES)), st.sampled_from(STACKED_PERTURBATIONS), st.booleans(),
       st.integers(1, 200),
       st.lists(st.tuples(st.sampled_from([0.0, 0.3, 0.7, 0.95]), st.integers(0, 2**31), st.booleans()),
                min_size=2, max_size=6, unique_by=lambda row: (row[0], row[2])),
       st.sampled_from([1, 7, engine.BLOCK]))
def test_each_row_of_a_stacked_pass_equals_its_lone_loop(seed, gkind, schedule, perturbation, retain, iterations,
                                                         rows, block):
    raw = {**draw_raw(seed, (gkind, "affine-colinear"), schedule, "zero", "unscaled", retain, iterations),
           "perturbation": perturbation}
    target = raw["operator"]["params"]["target"]
    cfgs = [config.from_dict({**raw, "seed": row_seed, "operator": {"kind": "affine-colinear", "params": {
        "gamma": gamma, "target": [x + 1.0 for x in target] if shifted else target}}})
        for gamma, row_seed, shifted in rows]
    assert len({cfg.batch_key for cfg in cfgs}) == 1
    assert engine.passes(cfgs) == [cfgs]
    with mock.patch.object(engine, "BLOCK", block):
        got = engine.loops(cfgs)
        lone = {cfg.loop_key: lone_loops(cfg, [cfg.seed])[0] for cfg in cfgs}
    assert set(got) == set(lone)
    for key, want in lone.items():  # a row whose lone loop fails carries its fault
        assert_same_loop(got[key], want)


@pytest.mark.parametrize("block", [1, 7, engine.BLOCK])
@pytest.mark.parametrize("injection", ["unscaled", "scaled"])
def test_stacked_rows_rewind_each_row_that_leaves_draws_unused(block, injection):
    # s0 is every row's fixed point and delta0 = 0, so rows that sit on the fixed point have budget 0
    base = noisy_config(injection, **ZERO_BUDGET).raw
    cfgs = [config.from_dict({**base, "seed": seed, "operator": {**base["operator"], "params": {
        **base["operator"]["params"], "gamma": gamma}}}) for gamma in (0.3, 0.6, 0.9) for seed in (3, 4)]
    with mock.patch.object(engine, "BLOCK", block):
        got = engine.loops(cfgs)
        lone = {cfg.loop_key: lone_loops(cfg, [cfg.seed])[0] for cfg in cfgs}
    assert set(got) == set(lone) and len(lone) == 6
    for key, want in lone.items():
        assert (want.eta_div == 0).sum() > 1
        for name in TRACE_ARRAYS:
            assert same_bits(getattr(got[key], name), getattr(want, name)), name


#: kappa = 4 on the constant schedule c = 1: the divergence of every gamma = 0.9 row overflows before
#: t = 3000, as with KAPPA0_OVERFLOW, and that of no other row does
OVERFLOWING_GAMMA = {
    "geometry": {"kind": "squared-euclidean", "dim": 2},
    "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [1.0, 1.0]}},
    "schedule": {"kind": "constant", "params": {"c": 1.0}},
    "perturbation": {"mode": "random", "delta0": 1e-3, "kappa": 4.0, "injection": "unscaled"},
    "s0": [0.0, 0.0],
    "iterations": 3000,
    "seed": 1,
    "retain_states": True,
    "sweep": {"operator.params.gamma": [0.1, 0.5, 0.9], "seed": [1, 2, 3, 4]},
}


def test_a_stacked_batch_with_a_failing_gamma_reruns_each_failing_point_alone(tmp_path, monkeypatch):
    # no point steps again: each failing row of the pass carries the fault of its lone run, of either kind
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(OVERFLOWING_GAMMA))
    lone = lone_run_dirs(tmp_path, OVERFLOWING_GAMMA)
    points = [point for _, point in expand_sweep(OVERFLOWING_GAMMA)]
    codes = {(point["operator"]["params"]["gamma"], point["seed"]): lone[config.config_digest(point)][0]
             for point in points}
    assert codes == {(gamma, seed): int(gamma == 0.9) for gamma in (0.1, 0.5, 0.9) for seed in (1, 2, 3, 4)}
    for code, lone_dir in lone.values():
        if code:
            assert json.loads((lone_dir / "state_dump.json").read_text())["error"].startswith("non-finite ")
    want = lone_faults(OVERFLOWING_GAMMA, lambda cfg: (cfg.seed, cfg.operator.gamma))
    assert {message.split(" at ")[0] for message, _, _ in want.values()} == {
        "non-finite divergence", "non-finite state"}
    passes, faults = counting_passes(monkeypatch)
    for parallel in (1, 2, 4):
        assert cmd_sweep(str(path), str(tmp_path / f"p{parallel}"), parallel=parallel) == 0
        assert_sweep_equals_lone_runs(tmp_path / f"p{parallel}", lone)
    rows = [(point["seed"], point["operator"]["params"]["gamma"]) for point in points]
    # the serial sweep, then share 0 of --parallel 2 and of 4
    assert passes == [(rows, [(seed, 0.9) for seed in (1, 2, 3, 4)]), (rows[:6], []), (rows[:3], [])]
    assert faults == want


@pytest.mark.parametrize("perturbation", STACKED_PERTURBATIONS,
                         ids=lambda p: "-".join(str(v) for _, v in sorted(p.items())))
def test_a_gamma_seed_sweep_steps_one_pass_and_writes_the_files_of_lone_runs(tmp_path, monkeypatch, perturbation):
    raw = {**SWEEP, "perturbation": perturbation, "iterations": 120, "eps_list": [1e-3],
           "sweep": {"operator.params.gamma": [0.25, 0.5, 0.75], "seed": [1, 2, 3]}}
    cfgs = [config.from_dict(point) for _, point in expand_sweep(raw)]
    assert len({cfg.batch_key for cfg in cfgs}) == 1
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    lone = lone_run_dirs(tmp_path, raw)
    passes, _ = counting_passes(monkeypatch)
    index = set()
    for parallel in (1, 2, 4):
        out = tmp_path / f"p{parallel}"
        assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
        assert_sweep_equals_lone_runs(out, lone)
        index.add((out / "index.csv").read_bytes())
    assert len(index) == 1
    # the serial sweep, then share 0 of --parallel 2 and of 4: a key per gamma without noise, else one per point
    shares = {3: [3, 1, 1], 9: [9, 4, 2]}[len({cfg.loop_key for cfg in cfgs})]
    assert [(len(rows), failed) for rows, failed in passes] == [(n, []) for n in shares]


@pytest.mark.parametrize("geometry", OVERFLOW_CASES)
def test_a_row_that_fails_at_start_up_or_in_its_perturbation_fails_alone(geometry):
    raw = config.apply_overrides(json.loads((CONFIGS / "affine_adversarial_scaled.json").read_text()),
                                 [f"{k}={json.dumps(v)}" for k, v in OVERFLOW_CASES[geometry][0].items()])
    cfgs = [config.from_dict({**raw, "iterations": 40, "operator": {**raw["operator"], "params": {
        **raw["operator"]["params"], "target": target}}}) for target in ([2.0, -1.0], OVERFLOW_TARGET, [1.0, 0.5])]
    assert outcome(engine.run, cfgs[1])[1] == OVERFLOW_CASES[geometry][1]
    got = engine.loops(cfgs)
    assert set(got) == {cfg.loop_key for cfg in cfgs}
    assert fault_of(got[cfgs[1].loop_key]) == failure(engine.run, cfgs[1])  # its start-up's or its first step's
    for cfg in cfgs[::2]:
        assert_same_loop(got[cfg.loop_key], lone_loops(cfg, [cfg.seed])[0])


def test_revive_puts_each_row_past_a_lone_step_back_to_its_fixed_point():
    g = NegativeEntropy(3, rho=1e-6)
    s_star = np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]])
    s = np.array([[0.2, 0.3, 0.5 + 3e-10], [0.9, 0.4, -0.3], [np.inf, 0.0, 0.0], [0.5, 0.25, 0.25]])
    earlier = engine.EngineError("non-finite divergence at iteration 3", 3, s[3])
    faults = [None, None, None, earlier]
    got = engine._revive(g, s.copy(), s_star, 7, faults)
    assert [fault is not None for fault in faults] == [False, True, True, True]
    assert got.tobytes() == np.stack([g._project(s[0]), s_star[1], s_star[2], g._project(s[3])]).tobytes()
    # each new fault is that of the lone step 7 to the row, and a row's earlier fault stays
    with pytest.raises(DomainError) as escape:
        g._project(s[1])
    assert fault_of(faults[1]) == (f"domain escape at iteration 7: {escape.value}", 7, s[1].tobytes())
    assert fault_of(faults[2]) == ("non-finite state at iteration 7", 7, s[2].tobytes())
    assert faults[3] is earlier


#: T(s_t) of a negative-entropy row that leaves the simplex, by the kind of fault its drift repair reports
SIMPLEX_IMAGES = {"domain escape": [3.0, 0.5, -2.5], "non-finite state": [np.inf, 0.5, 0.5],
                  "non-finite state (nan)": [0.5, 0.5, np.nan]}


def failing_gammas(images):
    """Make T(s_t) of each affine-colinear row, lone or stacked, images[gamma][t] where images names them."""
    plain = AffineColinear._apply

    def apply(self, s, t=0):
        out = plain(self, s, t)
        for r, gamma in enumerate(np.ravel(self.gamma)):
            if np.ndim(t) == 0 and t in images.get(float(gamma), {}):
                out[r if out.ndim > 1 else ...] = images[float(gamma)][t]
        return out

    return mock.patch.object(AffineColinear, "_apply", apply)


def random_rows(data):
    """A seed batch of the KAPPA0_OVERFLOW run with random noise, whose divergence overflows near t = 511."""
    raw = {**KAPPA0_OVERFLOW, "iterations": 512, "retain_states": data.draw(st.booleans()),
           "perturbation": {"mode": "random", "delta0": 1e-3, "kappa": data.draw(st.sampled_from([0.0, 0.1])),
                            "injection": data.draw(st.sampled_from(["unscaled", "scaled"]))}}
    seeds = data.draw(st.lists(st.integers(1, 40), min_size=2, max_size=5, unique=True))
    return [{**raw, "seed": seed} for seed in seeds], {}


def adversarial_rows(data):
    """Stacked rows on quadratic A = 1e-3 I whose adversarial direction overflows at t = 0 at OVERFLOW_TARGET."""
    raw = config.apply_overrides(json.loads((CONFIGS / "affine_adversarial_scaled.json").read_text()),
                                 [f"{k}={json.dumps(v)}" for k, v in OVERFLOW_CASES["quadratic"][0].items()])
    rows = data.draw(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.9]), st.integers(0, 20),
                                        st.sampled_from([[2.0, -1.0], [1.0, 0.5], OVERFLOW_TARGET])),
                              min_size=2, max_size=5, unique_by=lambda row: (row[0], tuple(row[2]))))
    return [{**raw, "iterations": 40, "seed": seed, "operator": {"kind": "affine-colinear", "params": {
        "gamma": gamma, "target": target}}} for gamma, seed, target in rows], {}


def gamma_rows(data):
    """Stacked gamma x seed rows of OVERFLOWING_GAMMA: each gamma = 0.9 row overflows, in either way."""
    rows = data.draw(st.lists(st.tuples(st.sampled_from([0.5, 0.9]), st.integers(1, 6)), min_size=2, max_size=3,
                              unique=True))
    raw = {key: value for key, value in OVERFLOWING_GAMMA.items() if key != "sweep"}
    return [{**raw, "seed": seed, "operator": {"kind": "affine-colinear", "params": {
        "gamma": gamma, "target": [1.0, 1.0]}}} for gamma, seed in rows], {}


def simplex_rows(data):
    """Stacked gamma rows on negative entropy, each failing its drift repair at the steps that images names."""
    gammas = data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.8]), min_size=2, max_size=3, unique=True))
    images = {gamma: data.draw(st.dictionaries(st.integers(1, 30), st.sampled_from(sorted(SIMPLEX_IMAGES)),
                                               max_size=2)) for gamma in gammas}
    raw = {"geometry": {"kind": "negative-entropy", "dim": 3, "params": {"rho": 1e-6}},
           "schedule": {"kind": "accelerated"}, "s0": [0.6, 0.3, 0.1], "iterations": 30, "seed": 1}
    cfgs = [{**raw, "operator": {"kind": "affine-colinear", "params": {"gamma": gamma, "target": [0.2, 0.3, 0.5]}}}
            for gamma in gammas]
    return cfgs, {gamma: {t: SIMPLEX_IMAGES[kind] for t, kind in steps.items()} for gamma, steps in images.items()}


#: rows of one pass of engine.loops, some of which fail, and the kinds of fault that they may fail with
FAILING_PASSES = {
    "random": (random_rows, {"non-finite divergence", "non-finite state"}),
    "adversarial": (adversarial_rows, {"perturbation failed"}),
    "gamma": (gamma_rows, {"non-finite divergence", "non-finite state"}),
    "simplex": (simplex_rows, {"domain escape", "non-finite state"}),
}


@pytest.mark.parametrize("family", FAILING_PASSES)
@settings(max_examples=20, deadline=None)
@given(st.data(), st.sampled_from([1, 7, engine.BLOCK]))
def test_each_failed_row_of_a_pass_carries_the_fault_of_its_lone_loop(family, data, block):
    rows, kinds = FAILING_PASSES[family]
    raws, images = rows(data)
    cfgs = [config.from_dict(raw) for raw in raws]
    assert len({cfg.batch_key for cfg in cfgs}) == 1 and len({cfg.loop_key for cfg in cfgs}) == len(cfgs)
    with mock.patch.object(engine, "BLOCK", block), failing_gammas(images):
        got = engine.loops(cfgs)
        lone = {cfg.loop_key: lone_loops(cfg, [cfg.seed])[0] for cfg in cfgs}
    assert set(got) == set(lone)
    for key, want in lone.items():
        assert_same_loop(got[key], want)
        if isinstance(want, engine.EngineError):
            assert str(want).split(" at iteration ")[0] in kinds


def test_every_kind_of_fault_fails_its_row_of_a_pass():
    # the rows of each family above fail in each of its ways
    cases = {
        "random": [{**KAPPA0_OVERFLOW, "iterations": 512, "seed": seed, "perturbation": {
            "mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"}} for seed in (1, 4)],
        "adversarial": adversarial_rows(SimpleNamespace(draw=lambda s: [(0.5, 1, OVERFLOW_TARGET),
                                                                        (0.5, 1, [1.0, 0.5])]))[0],
        "gamma": gamma_rows(SimpleNamespace(draw=lambda s: [(0.9, 1), (0.9, 2)]))[0],
    }
    want = {"random": {"non-finite divergence at iteration 510", None},
            "adversarial": {OVERFLOW_ERROR, None},
            "gamma": {"non-finite divergence at iteration 2325", "non-finite state at iteration 2502"}}
    for family, raws in cases.items():
        got = engine.loops([config.from_dict(raw) for raw in raws])
        assert {str(v) if isinstance(v, engine.EngineError) else None for v in got.values()} == want[family], family
    images = {0.2: {4: SIMPLEX_IMAGES["domain escape"]}, 0.5: {6: SIMPLEX_IMAGES["non-finite state (nan)"]},
              0.8: {}}
    draws = iter([[0.2, 0.5, 0.8], {}, {}, {}])
    raws, _ = simplex_rows(SimpleNamespace(draw=lambda s: next(draws)))
    with failing_gammas(images):
        got = list(engine.loops([config.from_dict(raw) for raw in raws]).values())
    assert str(got[0]).startswith("domain escape at iteration 4: simplex drift exceeds repairable tolerance")
    assert str(got[1]) == "non-finite state at iteration 6" and isinstance(got[2], engine.Trace)


def assert_same_sweep(got, want):
    """Every file of the sweep directory got has the bytes of want's, and each manifest.json the same files."""
    names = sorted(p.relative_to(want) for p in want.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(got) for p in got.rglob("*") if p.is_file())
    for name in names:
        if name.name == "manifest.json":
            assert json.loads((got / name).read_text())["files"] == json.loads((want / name).read_text())["files"]
        else:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_the_byte_cap_splits_a_job_into_passes_with_unchanged_files(tmp_path, monkeypatch):
    raw = {**SWEEP, "perturbation": NOISY_PERTURBATIONS[2], "iterations": 120, "retain_states": True,
           "sweep": {"operator.params.gamma": [0.25, 0.5, 0.75], "seed": [1, 2, 3]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    assert cmd_sweep(str(path), str(tmp_path / "whole"), parallel=1) == 0
    row_bytes = 8 * (120 + 1) * (4 + 2 * 2)  # e, a, delta_norm_sq and eta_div, then states and etas of dim 2
    monkeypatch.setattr(engine, "PASS_BYTES", 2 * row_bytes + 1)
    passes, _ = counting_passes(monkeypatch)
    for parallel in (1, 2):
        out = tmp_path / f"capped{parallel}"
        assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
        assert_same_sweep(out, tmp_path / "whole")
    # the serial sweep, then share 0 of --parallel 2: its first, third and fifth pass
    assert [(len(rows), failed) for rows, failed in passes] == [(2, [])] * 4 + [(1, [])] + [(2, [])] * 2 + [(1, [])]


def test_a_capped_sweep_passes_whole_loop_keys_and_steps_each_once_per_job(tmp_path, monkeypatch):
    # noise-free, so the three seeds of a gamma share its loop key
    raw = {**SWEEP, "iterations": 120, "eps_list": [1e-3],
           "sweep": {"operator.params.gamma": [0.1, 0.2, 0.3, 0.4], "seed": [1, 2, 3]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    assert cmd_sweep(str(path), str(tmp_path / "whole"), parallel=1) == 0
    cfgs = [config.from_dict(point) for _, point in expand_sweep(raw)]  # gamma by gamma, seeds 1, 2, 3
    assert len({cfg.batch_key for cfg in cfgs}) == 1
    assert [len({cfg.loop_key for cfg in cfgs[lo:lo + 3]}) for lo in range(0, 12, 3)] == [1] * 4
    assert len({cfg.loop_key for cfg in cfgs}) == 4
    monkeypatch.setattr(engine, "PASS_BYTES", 3 * 8 * (120 + 1) * (4 + 2 * 2) + 1)  # three keys a pass
    assert engine.passes(cfgs) == [cfgs[:9], cfgs[9:]]
    assert engine.passes(cfgs[::3] + cfgs[1::3] + cfgs[2::3]) == [cfgs[:9], cfgs[9:]]  # seed by seed
    stepped, plain_loop, plain_loops = [], engine._loop, engine.loops

    def loop(cfg, s_star, s, seeds):
        stepped.append(len(seeds))
        return plain_loop(cfg, s_star, s, seeds)

    def loops(cfgs):  # in a worker too, where a failed check fails the sweep
        before = len(stepped)
        traces = plain_loops(cfgs)
        assert stepped[before:] == [len({cfg.loop_key for cfg in cfgs})]  # one pass of _loop, a row per key
        return traces

    monkeypatch.setattr(engine, "_loop", loop)
    monkeypatch.setattr(engine, "loops", loops)
    passes, _ = counting_passes(monkeypatch)
    for parallel in (1, 2, 4):  # at 4, the first pass is cut into one job per gamma
        out = tmp_path / f"capped{parallel}"
        assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
        assert_same_sweep(out, tmp_path / "whole")
    # the serial sweep, then share 0 of --parallel 2 and of 4
    assert passes == [([(1, 0.1), (1, 0.2), (1, 0.3)], []), ([(1, 0.4)], []), ([(1, 0.1), (1, 0.2), (1, 0.3)], []),
                      ([(1, 0.1)], [])]
    assert stepped == [3, 1, 3, 1]


def test_a_job_frees_each_pass_before_it_steps_the_next(tmp_path, monkeypatch):
    raw = {**SWEEP, "perturbation": NOISY_PERTURBATIONS[2], "iterations": 120, "retain_states": True,
           "sweep": {"operator.params.gamma": [0.25, 0.5, 0.75], "seed": [1, 2, 3]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(engine, "PASS_BYTES", 2 * 8 * (120 + 1) * (4 + 2 * 2) + 1)  # two rows a pass
    arrays, plain = [], engine.loops

    def loops(cfgs):
        assert [ref() for ref in arrays] == [None] * len(arrays)  # no array of an earlier pass is alive
        traces = plain(cfgs)
        arrays.extend(weakref.ref(getattr(trace, name).base) for trace in traces.values()
                      for name in ("e", "delta_norm_sq", "states", "etas"))
        return traces

    monkeypatch.setattr(engine, "loops", loops)
    assert cmd_sweep(str(path), str(tmp_path / "out"), parallel=1) == 0
    assert len(arrays) == 4 * 9


def test_a_gamma_seed_sweep_on_negative_entropy_equals_lone_runs(tmp_path, monkeypatch):
    raw = {
        "geometry": {"kind": "negative-entropy", "dim": 3, "params": {"rho": 1e-6}},
        "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [0.2, 0.3, 0.5]}},
        "schedule": {"kind": "accelerated"},
        "s0": [0.6, 0.3, 0.1],
        "iterations": 200,
        "seed": 1,
        "retain_states": True,
        "eps_list": [5e-3],  # met past the horizon
        "sweep": {"operator.params.gamma": [0.2, 0.5, 0.8], "seed": [1, 2]},
    }
    # negative entropy's drift repair runs row by row, so the three gammas step in one pass
    assert len({config.from_dict(point).batch_key for _, point in expand_sweep(raw)}) == 1
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    lone = lone_run_dirs(tmp_path, raw)
    passes, _ = counting_passes(monkeypatch)
    for parallel in (1, 2):
        assert cmd_sweep(str(path), str(tmp_path / f"p{parallel}"), parallel=parallel) == 0
        assert_sweep_equals_lone_runs(tmp_path / f"p{parallel}", lone)
    assert [(len(rows), failed) for rows, failed in passes] == [(3, []), (1, [])]  # serial, then share 0 of 2


def test_a_sweep_makes_each_point_digest_and_keys_once(tmp_path, monkeypatch):
    raw = {**SWEEP, "iterations": 50,
           "sweep": {"operator.params.gamma": [0.25, 0.5], "perturbation.delta0": [0.0, 0.01], "seed": [1, 2, 3]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    calls, plain = [], config.config_digest
    monkeypatch.setattr(config, "config_digest", lambda d: calls.append(1) or plain(d))
    assert cmd_sweep(str(path), str(tmp_path / "out"), parallel=1) == 0
    assert 0 < len(calls) <= 3 * len(expand_sweep(raw))  # its digest, loop_key and batch_key


def assert_manifest_hashes_the_files(run_dir):
    files = json.loads((run_dir / "manifest.json").read_text())["files"]
    assert set(files) == {name for name in RUN_FILES[:4] if (run_dir / name).exists()}
    for name, entry in files.items():
        data = (run_dir / name).read_bytes()
        assert entry == {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}, name


def test_each_manifest_entry_is_the_size_and_hash_of_its_file(tmp_path):
    # the noise-free points of a gamma share their loop's trace.csv; each noisy point has a loop of its own
    raw = {**SWEEP, "iterations": 60, "sweep": {"operator.params.gamma": [0.25, 0.5],
                                                "perturbation.delta0": [0.0, 0.01], "seed": [1, 2]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    point = expand_sweep(raw)[0][1]
    (tmp_path / "point.json").write_text(json.dumps(point))
    assert cmd_run(str(tmp_path / "point.json"), str(tmp_path / "run")) == 0
    assert_manifest_hashes_the_files(tmp_path / "run")
    cfgs = [config.from_dict(point) for _, point in expand_sweep(raw)]
    shares = {key: sum(cfg.loop_key == key for cfg in cfgs) for key in {cfg.loop_key for cfg in cfgs}}
    assert sorted(shares.values()) == [1, 1, 1, 1, 2, 2]
    for parallel in (1, 2):
        out = tmp_path / f"p{parallel}"
        assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
        for cfg in cfgs:
            assert_manifest_hashes_the_files(out / cfg.digest[:12])
