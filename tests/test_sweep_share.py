"""Sweep points that share a loop key share one loop and one trace.csv.

RunConfig.loop_key must hold everything engine.run's loop reads: a config
that differs only outside the key gets, from the loop of another, the bits
of its own fresh run and of the checked step-by-step loop, and a change to
any field inside the key changes the key.  A grouped sweep writes, for each
point, the bytes a lone run of that point writes, at any --parallel.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config, engine
from bregiter.harness import _sweep_jobs, cmd_run, cmd_sweep, expand_sweep
from test_run_oracle import PAIRS, SCHEDULES, draw_raw, outcome, same_bits


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

#: T(s) = s - 1e100 (s - b) overflows at iteration 3 from s0 = 0 on the accelerated schedule
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


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
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
    assert blowups == {"error: non-finite state at iteration 3"}


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
