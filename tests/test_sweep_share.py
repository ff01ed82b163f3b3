"""Sweep points that share a loop key share one loop and one trace.csv.

RunConfig.loop_key must hold everything engine.run's loop reads: a config
that differs only outside the key gets, from the loop of another, the bits
of its own fresh run and of the checked step-by-step loop, and a change to
any field inside the key changes the key.  The loop keys of a batch_key,
the seeds of a noisy config, share one batched pass, whose rows have the
bits of lone loops.  A grouped sweep writes, for each point, the bytes a
lone run of that point writes, at any --parallel and block size.
"""

import csv
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config, engine
from bregiter.harness import _sweep_jobs, cmd_run, cmd_sweep, expand_sweep
from test_harness import KAPPA0_OVERFLOW
from test_run_oracle import PAIRS, SCHEDULES, ZERO_BUDGET, draw_raw, noisy_config, outcome, same_bits


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
    if first is None:
        if first_err[1] >= 0:  # a failed loop is not shared; the twin's fails alike unless its start-up fails first
            assert fresh_err == first_err or fresh_err[1] == -1
        return
    shared, shared_err = outcome(lambda c: engine.run(c, first), twin)
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


def test_sweep_jobs_halve_the_largest_group_until_every_worker_has_one():
    assert _sweep_jobs([[0, 1, 2, 3, 4]], 1) == [[0, 1, 2, 3, 4]]
    assert _sweep_jobs([[0, 1, 2, 3, 4]], 4) == [[0], [1], [2], [3, 4]]
    assert _sweep_jobs([[0, 1], [2, 3, 4]], 3) == [[0, 1], [2], [3, 4]]
    assert _sweep_jobs([[0], [1], [2]], 4) == [[0], [1], [2]]


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
    """The outcome of the lone loop of cfg at each of seeds: (Trace, None) or (None, (message, t))."""
    s_star, s, _ = engine._start(cfg)
    return [outcome(lambda c: engine._loop(c, s_star, s, [seed])[0], cfg) for seed in seeds]


TRACE_ARRAYS = ("t", "e", "a", "alpha", "delta_norm_sq", "eta_div", "states", "etas", "final_state")


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
    if any(trace is None for trace, _ in lone):
        assert err is not None  # a pass with a failing row fails
        return
    assert err is None and len(got) == len(seeds)
    for (want, _), trace in zip(lone, got):
        for name in TRACE_ARRAYS:
            assert same_bits(getattr(trace, name), getattr(want, name)), name
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
    for (want, _), trace in zip(lone, got):
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


def counting_run_seeds(monkeypatch):
    """Record the seeds of every engine.run_seeds pass made in this process, and whether it failed."""
    passes, plain = [], engine.run_seeds

    def run_seeds(cfg, seeds):
        passes.append((list(seeds), "failed"))
        out = plain(cfg, seeds)
        passes[-1] = (list(seeds), "ok")
        return out

    monkeypatch.setattr(engine, "run_seeds", run_seeds)
    return passes


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
    passes = counting_run_seeds(monkeypatch)
    index = set()
    for block in (1, 7, engine.BLOCK):
        for parallel in (1, 2, 4):
            out = tmp_path / f"b{block}p{parallel}"
            with mock.patch.object(engine, "BLOCK", block):  # forked workers inherit it
                assert cmd_sweep(str(path), str(out), parallel=parallel) == 0
            assert_sweep_equals_lone_runs(out, lone)
            index.add((out / "index.csv").read_bytes())
    assert len(index) == 1
    assert passes == [([1, 2, 3, 4, 5], "ok")] * 3  # the serial sweeps, one pass each


def test_a_batch_with_failing_seeds_reruns_each_point_alone(tmp_path, monkeypatch):
    raw = {**KAPPA0_OVERFLOW, "iterations": 512,
           "perturbation": {"mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"},
           "sweep": {"seed": [1, 2, 3, 4, 5, 6, 7, 8]}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(raw))
    lone = lone_run_dirs(tmp_path, raw)
    codes = {point["seed"]: lone[config.config_digest(point)][0] for _, point in expand_sweep(raw)}
    assert codes == {1: 1, 2: 1, 3: 1, 4: 0, 5: 1, 6: 1, 7: 0, 8: 0}
    passes = counting_run_seeds(monkeypatch)
    for parallel in (1, 2, 4):
        assert cmd_sweep(str(path), str(tmp_path / f"p{parallel}"), parallel=parallel) == 0
        assert_sweep_equals_lone_runs(tmp_path / f"p{parallel}", lone)
    assert passes == [([1, 2, 3, 4, 5, 6, 7, 8], "failed")]
