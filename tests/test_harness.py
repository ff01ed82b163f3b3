import csv
import functools
import inspect
import json
import math
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bregiter import config as cfgmod, engine, harness
from bregiter.cli import main
from bregiter.config import ConfigError, apply_overrides, config_digest, from_dict
from bregiter.harness import (
    TRACE_HEADER,
    cmd_audit,
    cmd_rate,
    cmd_run,
    cmd_sweep,
    expand_sweep,
    read_trace_csv,
    run_to_dir,
)
from bregiter.engine import EngineError, run
from bregiter.geometry import DomainError, SquaredEuclidean
from bregiter.operators import AffineColinear, ExpGradientStep, FixedPointError
from bregiter.perturbation import PerturbationModel

BASE = {
    "geometry": {"kind": "squared-euclidean", "dim": 2},
    "operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}},
    "schedule": {"kind": "accelerated"},
    "s0": [0.0, 0.0],
    "iterations": 300,
    "seed": 1,
}


def base_config(**overrides):
    raw = json.loads(json.dumps(BASE))
    raw.update(overrides)
    return raw


def write_config(path, raw):
    path.write_text(json.dumps(raw))
    return str(path)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# config round trips and digests


def test_canonical_round_trip():
    cfg = from_dict(base_config())
    again = from_dict(json.loads(cfgmod.canonical_json(cfg.raw)))
    assert again.digest == cfg.digest


def test_digest_stable_under_key_reordering():
    a = base_config()
    b = dict(reversed(list(a.items())))
    b["geometry"] = dict(reversed(list(a["geometry"].items())))
    assert config_digest(a) == config_digest(b)


def test_digest_changes_with_content():
    assert config_digest(base_config()) != config_digest(base_config(seed=2))


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="bogus"):
        from_dict(base_config(bogus=1))
    bad = base_config()
    bad["geometry"] = {"kind": "squared-euclidean", "dim": 2, "curvature": 1}
    with pytest.raises(ConfigError, match="curvature"):
        from_dict(bad)
    for pert, name in (({"mode": "bogus"}, "mode"),
                       ({"mode": "random", "injection": "sideways"}, "injection")):
        with pytest.raises(ConfigError, match=f"perturbation: {name}"):
            from_dict(base_config(perturbation=pert))
    # numerical tolerances are library constants, not config keys
    for key, value in (("tolerances", {"fixed_point": 1e-14}), ("contraction_pairs", 256)):
        with pytest.raises(ConfigError, match=rf"^config has unknown key\(s\) \['{key}'\]"):
            from_dict(base_config(**{key: value}))


def test_missing_required_key_rejected():
    bad = base_config()
    del bad["seed"]
    with pytest.raises(ConfigError, match="seed"):
        from_dict(bad)


def test_dimension_mismatch_names_both_dims():
    bad = base_config(s0=[0.0, 0.0, 0.0])
    bad["geometry"] = {"kind": "squared-euclidean", "dim": 3}
    with pytest.raises(ConfigError) as err:
        from_dict(bad)
    assert "3" in str(err.value) and "2" in str(err.value)


def test_overrides_follow_dotted_paths():
    raw = apply_overrides(base_config(), ["operator.params.gamma=0.8", "seed=5"])
    assert raw["operator"]["params"]["gamma"] == 0.8
    assert raw["seed"] == 5
    assert base_config()["seed"] == 1  # original untouched


def test_noisy_negative_entropy_config_rejected():
    bad = base_config(
        perturbation={"mode": "random", "delta0": 1e-3, "kappa": 0.0, "injection": "unscaled"},
        s0=[1 / 3, 1 / 3, 1 / 3],
    )
    bad["geometry"] = {"kind": "negative-entropy", "dim": 3, "params": {"rho": 1e-6}}
    bad["operator"] = {"kind": "exp-gradient-step", "params": {"q": [0.5, 0.3, 0.2], "step": 0.5}}
    with pytest.raises(ConfigError, match="negative-entropy"):
        from_dict(bad)


def test_exp_gradient_off_simplex_geometry_exit_two(tmp_path, capsys):
    config = CONFIGS / "exp_gradient.json"
    overrides = ["geometry.kind=squared-euclidean", "geometry.params={}"]
    assert cmd_run(str(config), str(tmp_path / "out"), overrides=overrides) == 2
    err = capsys.readouterr().err
    assert "exp-gradient-step" in err and "negative-entropy" in err and "squared-euclidean" in err
    assert not (tmp_path / "out").exists()


def test_exp_gradient_step_three_run_exits_zero(tmp_path, capsys):
    # its contraction estimate used to map sampled pairs below rho
    overrides = ["operator.params.step=3", "iterations=10", "rate_window=null"]
    assert cmd_run(str(CONFIGS / "exp_gradient.json"), str(tmp_path / "out"), overrides=overrides) == 0
    assert json.loads(capsys.readouterr().out)["e_final"] < 1e-12


# ---------------------------------------------------------------------------
# the kind table


MDP = json.loads(json.dumps({"transitions": oracles.MDP_TRANSITIONS, "rewards": oracles.MDP_REWARDS, "discount": 0.9}))
BAD_BLOCKS = {
    # inputs of the deleted make_geometry, make_operator and make_schedule tests
    "unknown-geometry-kind": ("geometry", {"kind": "hyperbolic", "dim": 2},
                              r"geometry: unknown kind 'hyperbolic'; known: \["),
    "unknown-geometry-param": ("geometry", {"kind": "squared-euclidean", "dim": 2, "params": {"rho": 0.1}},
                               r"geometry: unknown params \['rho'\] for kind 'squared-euclidean'"),
    "missing-operator-param": ("operator", {"kind": "affine-colinear", "params": {"gamma": 0.5}},
                               r"operator: kind 'affine-colinear' requires params \['target'\]"),
    "unknown-operator-param": ("operator", {"kind": "affine-colinear",
                                            "params": {"gamma": 0.5, "target": [0.0], "extra": 1}},
                               r"operator: unknown params \['extra'\] for kind 'affine-colinear'; "
                               r"known: \['gamma', 'target'\]"),
    "unknown-operator-kind": ("operator", {"kind": "unknown-kind", "params": {}},
                              "operator: unknown kind 'unknown-kind'"),
    "accelerated-takes-no-params": ("schedule", {"kind": "accelerated", "params": {"c": 0.5}},
                                    r"schedule: unknown params \['c'\]"),
    # the rest of the table's checks
    "missing-geometry-param": ("geometry", {"kind": "quadratic", "dim": 2},
                               r"geometry: kind 'quadratic' requires params \['a'\]"),
    "kind-not-a-string": ("geometry", {"kind": ["quadratic"], "dim": 2}, r"geometry: unknown kind \['quadratic'\]"),
    "missing-dim": ("geometry", {"kind": "squared-euclidean"}, r"geometry is missing required key\(s\) \['dim'\]"),
    "float-dim": ("geometry", {"kind": "squared-euclidean", "dim": 2.0}, "geometry.dim must be an integer"),
    "list-rho": ("geometry", {"kind": "negative-entropy", "dim": 2, "params": {"rho": [1]}},
                 r"geometry.params.rho must be a number, got \[1\]"),
    "null-in-matrix": ("geometry", {"kind": "quadratic", "dim": 2, "params": {"a": [[1.0, None], [None, 1.0]]}},
                       "geometry.params.a must be a list of numbers"),
    "indefinite-matrix": ("geometry", {"kind": "quadratic", "dim": 2, "params": {"a": [[1.0, 2.0], [2.0, 1.0]]}},
                          "geometry: A must be positive definite"),
    "string-gamma": ("operator", {"kind": "affine-colinear", "params": {"gamma": "x", "target": [2.0, -1.0]}},
                     "operator.params.gamma must be a number, got 'x'"),
    "bool-gamma": ("operator", {"kind": "affine-colinear", "params": {"gamma": True, "target": [2.0, -1.0]}},
                   "operator.params.gamma must be a number"),
    "string-target": ("operator", {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": "2, -1"}},
                      "operator.params.target must be a list of numbers"),
    "ragged-target": ("operator", {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [[2.0], [-1.0, 0.0]]}},
                      "operator: "),
    "gamma-out-of-range": ("operator", {"kind": "affine-colinear", "params": {"gamma": 1.5, "target": [2.0, -1.0]}},
                           r"operator: gamma must lie in \[0, 1\)"),
    "number-context": ("operator", {"kind": "bellman", "params": MDP, "context_y": 3},
                       "operator.context_y must be a list of numbers"),
    "context-off-bellman": ("operator", {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]},
                                         "context_y": [[1.0, 2.0]]},
                            r"operator has unknown key\(s\) \['context_y'\]; known: \['kind', 'params'\]"),
    "overflowing-matrix": ("operator", {"kind": "gradient-step",
                                        "params": {"a": [[1.0, 1e308], [1e308, 1.0]], "b": [1.0, 1.0], "step": 0.1}},
                           "operator: A must be positive definite"),
    "unknown-schedule-kind": ("schedule", {"kind": "warmup"}, "schedule: unknown kind 'warmup'"),
    "missing-schedule-param": ("schedule", {"kind": "constant"}, r"schedule: kind 'constant' requires params \['c'\]"),
    "string-c": ("schedule", {"kind": "constant", "params": {"c": "0.5"}},
                 "schedule.params.c must be a number, got '0.5'"),
    "c-out-of-range": ("schedule", {"kind": "constant", "params": {"c": 1.5}},
                       r"schedule: schedule c must lie in \(0, 1\]"),
    "unknown-schedule-param": ("schedule", {"kind": "polynomial", "params": {"c": 0.5, "q": 1}},
                               r"schedule: unknown params \['q'\]"),
}


@pytest.mark.parametrize("block, value, match", BAD_BLOCKS.values(), ids=BAD_BLOCKS.keys())
def test_kind_table_rejects_bad_blocks(block, value, match):
    with pytest.raises(ConfigError, match=match):
        from_dict(base_config(**{block: value}))


GOOD_BLOCKS = {
    "squared-euclidean": ({"geometry": {"kind": "squared-euclidean", "dim": 2}}, lambda c: c.geometry.mu == 1.0),
    "quadratic": ({"geometry": {"kind": "quadratic", "dim": 2, "params": {"a": [[2.0, 0.0], [0.0, 1.0]]}}},
                  lambda c: (c.geometry.mu, c.geometry.L) == (1.0, 2.0)),
    "negative-entropy": ({"geometry": {"kind": "negative-entropy", "dim": 2}, "s0": [0.5, 0.5]},
                         lambda c: c.geometry.rho == 1e-6),
    "affine-colinear": ({"operator": {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0]}}},
                        lambda c: c.operator.gamma == 0.5),
    "affine-rotation": ({"operator": {"kind": "affine-rotation",
                                      "params": {"gamma": 0.5, "theta": 1, "target": [2.0, -1.0]}}},
                        lambda c: c.operator.theta == 1.0),
    "gradient-step": ({"operator": {"kind": "gradient-step", "params": {"a": [[2, 0], [0, 1]], "b": [1, 1], "step": 0.5}}},
                      lambda c: c.operator.step == 0.5),
    "exp-gradient-step": ({"geometry": {"kind": "negative-entropy", "dim": 3}, "s0": [0.5, 0.3, 0.2],
                           "operator": {"kind": "exp-gradient-step", "params": {"q": [0.5, 0.3, 0.2], "step": 0.5}}},
                          lambda c: c.operator.rho == 1e-6),
    "bellman": ({"operator": {"kind": "bellman", "params": MDP, "context_y": [[[0.0, 0.1], [0.0, 0.0]]]}},
                lambda c: c.operator.discount == 0.9 and len(c.operator.context_y) == 1),
    "accelerated": ({"schedule": {"kind": "accelerated"}}, lambda c: c.schedule.alpha(2) == 0.5),
    "constant": ({"schedule": {"kind": "constant", "params": {"c": 0.25}}}, lambda c: c.schedule.alpha(9) == 0.25),
    "polynomial-defaults": ({"schedule": {"kind": "polynomial"}},
                            lambda c: (c.schedule.c, c.schedule.p) == (1.0, 1.0)),
    "polynomial": ({"schedule": {"kind": "polynomial", "params": {"c": 0.5, "p": 2}}},
                   lambda c: c.schedule.alpha(1) == 0.125),
}


@pytest.mark.parametrize("blocks, check", GOOD_BLOCKS.values(), ids=GOOD_BLOCKS.keys())
def test_kind_table_builds_each_kind(blocks, check):
    cfg = from_dict(base_config(**json.loads(json.dumps(blocks))))
    for block in ("geometry", "operator", "schedule"):
        if block in blocks:
            assert getattr(cfg, block).kind == blocks[block]["kind"]
    assert check(cfg)


def _number_params():
    """(block, kind, name) of each kind param that takes a number, read from the constructor signatures."""
    return [(block, kind, name) for block, kinds in cfgmod.KINDS.items() for kind, make in kinds.items()
            for name, p in inspect.signature(make).parameters.items()
            if name not in cfgmod.BLOCK_KEYS and p.annotation != "ArrayLike"]


#: kind -> a block of that kind that builds
KIND_BLOCKS = {blocks[block]["kind"]: blocks[block] for blocks, _ in GOOD_BLOCKS.values()
               for block in ("geometry", "operator", "schedule") if block in blocks}


@pytest.mark.parametrize("block, kind, name", _number_params())
def test_integer_spelled_number_params_reach_the_kind_as_floats(monkeypatch, block, kind, name):
    make, seen = cfgmod.KINDS[block][kind], {}

    @functools.wraps(make)
    def spy(**kwargs):
        seen.update(kwargs)
        return make(**kwargs)

    monkeypatch.setitem(cfgmod.KINDS[block], kind, spy)
    d = json.loads(json.dumps(KIND_BLOCKS[kind]))
    d.setdefault("params", {})[name] = 1
    try:
        cfgmod._build(block, d)
    except ConfigError:  # 1 may lie outside the param's range; the constructor was still called
        pass
    assert type(seen[name]) is float and seen[name] == 1.0


def test_integer_spelled_polynomial_schedule_runs_as_floats(tmp_path):
    common = ["iterations=2000", "rate_window=null"]
    raw = apply_overrides(json.loads((CONFIGS / "gradient_step.json").read_text()),
                          ['schedule.params={"c":1,"p":100000}', *common])
    schedule = from_dict(raw).schedule
    assert type(schedule.c) is float and type(schedule.p) is float
    assert cmd_run(write_config(tmp_path / "int.json", raw), str(tmp_path / "int")) == 0
    assert cmd_run(str(CONFIGS / "gradient_step.json"), str(tmp_path / "float"),
                   overrides=['schedule.params={"c":1.0,"p":100000.0}', *common]) == 0
    assert (tmp_path / "int" / "trace.csv").read_bytes() == (tmp_path / "float" / "trace.csv").read_bytes()


@pytest.mark.parametrize("config, overrides, field", [
    ("affine_accel.json", ['operator.params.gamma="x"'], "operator.params.gamma"),
    ("affine_accel.json", ["schedule.kind=constant", 'schedule.params={"c":"0.5"}'], "schedule.params.c"),
    ("exp_gradient.json", ["geometry.params.rho=[1]"], "geometry.params.rho"),
    ("affine_random_noise.json", ["perturbation.delta0=NaN"], "perturbation.delta0"),
    ("affine_random_noise.json", ["perturbation.kappa=Infinity"], "perturbation.kappa"),
    ("affine_random_noise.json", ["perturbation.kappa=-1e400"], "perturbation.kappa"),
    ("affine_random_noise.json", ["perturbation.kappa=" + "9" * 400], "perturbation.kappa"),
])
def test_bad_param_types_and_non_finite_numbers_exit_two(tmp_path, capsys, config, overrides, field):
    out = tmp_path / "out"
    assert cmd_run(str(CONFIGS / config), str(out), overrides=overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field} must be ")
    assert not out.exists()


def test_non_finite_sweep_axis_exit_two(tmp_path, capsys):
    raw = json.loads((CONFIGS / "affine_random_noise.json").read_text())
    raw["sweep"] = {"perturbation.delta0": [0.001, math.nan]}
    out = tmp_path / "s"
    assert cmd_sweep(write_config(tmp_path / "c.json", raw), str(out)) == 2
    err = capsys.readouterr().err
    assert err == "config error: sweep.perturbation.delta0[1] must be a finite number, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("operator", [
    {"kind": "affine-rotation", "params": {"gamma": 0.0, "theta": 0.5, "target": [0.3, 0.7]}},
    {"kind": "affine-rotation", "params": {"gamma": 0.5, "theta": 0.0, "target": [0.3, 0.7]}},
    {"kind": "gradient-step", "params": {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [0.3, 0.7], "step": 0.5}},
], ids=["rotation-gamma-0", "rotation-theta-0", "gradient-step-identity"])
def test_simplex_corner_cases_of_euclidean_operators_run(tmp_path, operator):
    # these kinds are not simplex maps, yet these instances keep the simplex:
    # a kind-by-kind ban on negative-entropy would reject working configs
    raw = base_config(geometry={"kind": "negative-entropy", "dim": 2}, operator=operator, s0=[0.5, 0.5])
    assert cmd_run(write_config(tmp_path / "c.json", raw), str(tmp_path / "out")) == 0


def _override_paths():
    paths = []
    for path in sorted(CONFIGS.glob("*.json")):
        raw = json.loads(path.read_text())
        keys = [f"{block}.kind" for block in ("geometry", "operator", "schedule")]
        keys += [f"{block}.params.{name}" for block in ("geometry", "operator", "schedule")
                 for name in raw[block].get("params", {})]
        keys += [f"perturbation.{name}" for name in ("mode", "delta0", "kappa", "injection")]
        paths += [(path.name, key) for key in keys + ["s0"]]
    return paths


JSON_SCALARS = st.one_of(st.text(max_size=4), st.booleans(), st.none())
NON_NUMERIC = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
                        st.dictionaries(st.text(max_size=3), JSON_SCALARS, max_size=2))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: finite numbers whose squares, products or exponentials overflow; set as the first number of an array value
LARGE = st.sampled_from([1e154, -1e154, 1e200, -1e200, 1e300])


def _set_first_number(value, x):
    """value with its first number, depth first, set to x; x where value is no non-empty list."""
    return [_set_first_number(value[0], x), *value[1:]] if isinstance(value, list) and value else x


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_override_paths()), st.one_of(NON_NUMERIC, NON_FINITE, LARGE))
def test_config_faults_exit_cleanly(target, value):
    name, key = target
    raw = json.loads((CONFIGS / name).read_text())
    for drop in ("sweep", "eps_list", "rate_window"):
        raw.pop(drop, None)
    raw["iterations"] = 5
    if isinstance(value, float) and math.isfinite(value):
        old = functools.reduce(lambda d, k: d.get(k) if isinstance(d, dict) else None, key.split("."), raw)
        value = _set_first_number(old, value)
    raw = apply_overrides(raw, [f"{key}={json.dumps(value)}"])
    with tempfile.TemporaryDirectory() as tmp:
        code = cmd_run(write_config(Path(tmp) / "c.json", raw), str(Path(tmp) / "out"))
    assert code in (0, 1, 2)
    if isinstance(value, float) and not math.isfinite(value):
        assert code == 2


# ---------------------------------------------------------------------------
# cmd_run


def test_run_writes_all_artifacts(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config(retain_states=True))
    out = tmp_path / "out"
    assert cmd_run(cfg_path, str(out)) == 0
    for name in ("config.json", "trace.csv", "states.npz", "summary.json", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == {"config.json", "trace.csv", "states.npz", "summary.json"}
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_digest"] == manifest["config_digest"]
    assert summary["slope"] == pytest.approx(-2.0, abs=1e-3)


def test_trace_csv_schema_and_precision(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config(iterations=5))
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out))
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,e_t,a_t,alpha_t,delta_norm_sq,eta_div"
    assert len(lines) == 7  # header + 6 rows
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "2.5000000000000000e+00"  # 17 significant digits
    cols = read_trace_csv(out / "trace.csv")
    assert list(cols) == TRACE_HEADER
    assert cols["e_t"][0] == 2.5


def test_run_iterations_override_yields_two_rows(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    out = tmp_path / "out"
    assert cmd_run(cfg_path, str(out), overrides=["iterations=1"]) == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 3  # header + t=0, t=1


def test_run_rerun_is_bitwise_identical(tmp_path):
    raw = base_config(
        perturbation={"mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"}
    )
    cfg_path = write_config(tmp_path / "c.json", raw)
    cmd_run(cfg_path, str(tmp_path / "a"))
    cmd_run(cfg_path, str(tmp_path / "b"))
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_run_seed_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out), seed=9)
    assert json.loads((out / "config.json").read_text())["seed"] == 9


def test_run_config_error_exit_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config(bogus=1))
    assert cmd_run(cfg_path, str(tmp_path / "out")) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("config, seed", [("affine_random_noise.json", "-1"), ("affine_accel.json", "-5")])
def test_negative_seed_is_a_config_error(tmp_path, config, seed):
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "bregiter.cli", "run", "--config", str(CONFIGS / config),
                           "--out", str(out), "--seed", seed, "--set", "iterations=5", "--set", "rate_window=null"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"config error: seed must be >= 0, got {seed}\n"
    assert not out.exists()


def test_run_engine_error_exit_one_with_dump(tmp_path, capsys):
    raw = base_config(s0=[1 / 3, 1 / 3, 1 / 3])
    raw["geometry"] = {"kind": "negative-entropy", "dim": 3, "params": {"rho": 1e-6}}
    raw["operator"] = {"kind": "affine-colinear", "params": {"gamma": 0.5, "target": [2.0, -1.0, -0.5]}}
    cfg_path = write_config(tmp_path / "c.json", raw)
    out = tmp_path / "out"
    assert cmd_run(cfg_path, str(out)) == 1
    dump = json.loads((out / "state_dump.json").read_text())
    assert "domain" in dump["error"]
    assert dump["t"] == -1
    capsys.readouterr()


def test_fixed_point_failure_is_an_engine_error(tmp_path, monkeypatch, capsys):
    def no_fixed_point(self, geometry=None):
        raise FixedPointError("did not converge")

    monkeypatch.setattr(AffineColinear, "fixed_point", no_fixed_point)
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "c.json", base_config()), str(out)) == 1
    dump = json.loads((out / "state_dump.json").read_text())
    assert dump["t"] == -1 and "fixed point" in dump["error"]
    assert cmd_sweep(write_config(tmp_path / "s.json", sweep_config()), str(tmp_path / "s"),
                     parallel=1) == 0
    rows = (tmp_path / "s" / "index.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and all("error: fixed point not found" in row for row in rows)
    capsys.readouterr()


def test_all_degenerate_contraction_pairs_are_an_engine_error(tmp_path, monkeypatch, capsys):
    def one_point(self, rng, size=None):  # every sampled pair is a point and itself
        return np.ones(self.dim if size is None else (size, self.dim))

    monkeypatch.setattr(SquaredEuclidean, "sample_point", one_point)
    out = tmp_path / "out"
    overrides = ["iterations=5", "rate_window=null"]
    assert cmd_run(str(CONFIGS / "affine_accel.json"), str(out), overrides=overrides) == 1
    error = "start-up failed: all sampled pairs were degenerate; cannot estimate contraction"
    assert json.loads((out / "state_dump.json").read_text()) == {"error": error, "t": -1, "state": [0.0, 0.0]}
    assert capsys.readouterr().err.startswith(f"run failed: {error} (state dumped to")


def test_polynomial_alpha_past_the_float_range_runs(tmp_path):
    out = tmp_path / "out"
    overrides = ["schedule.params.p=1100", "iterations=5", "rate_window=null"]
    proc = subprocess.run([sys.executable, "-m", "bregiter.cli", "run", "--config", str(CONFIGS / "gradient_step.json"),
                           "--out", str(out), *(arg for o in overrides for arg in ("--set", o))],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    alpha = read_trace_csv(out / "trace.csv")["alpha_t"]
    assert np.isfinite(alpha).all() and (alpha >= 0).all()


def test_domain_error_formats_plain_floats(tmp_path, capsys):
    raw = base_config(s0=[0.5, 0.5])
    raw["geometry"] = {"kind": "negative-entropy", "dim": 2}
    raw["operator"] = {"kind": "affine-rotation", "params": {"gamma": 0.8, "theta": 0.5, "target": [0.5, 0.5]}}
    assert cmd_run(write_config(tmp_path / "c.json", raw), str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert "point must sum to 1 within 1e-12, got 0.902178318946436" in err
    assert "np.float64" not in err


def nan_on_rows(monkeypatch, rows):
    """Make AffineColinear map the given points (and only those) to nan."""
    bad = [np.asarray(r, dtype=float) for r in rows]
    plain = AffineColinear.apply

    def apply(self, s, t=0):
        s = np.asarray(s, dtype=float)
        hit = np.zeros(s.shape[:-1], dtype=bool)
        for r in bad:
            hit |= np.all(s == r, axis=-1)
        return np.where(hit[..., None], np.nan, plain(self, s, t))

    monkeypatch.setattr(AffineColinear, "apply", apply)


@pytest.mark.parametrize("bad_rows, culprit", [
    ((15, 20), "s_ref"),  # T(s') of pair 7 comes before T(s) of pair 10
    ((40, 41), "point"),  # T(s) before T(s') of the same pair
])
def test_contraction_fault_reports_first_pair_in_draw_order(tmp_path, monkeypatch, capsys, bad_rows, culprit):
    raw = base_config()
    cfg = from_dict(raw)
    pts = cfg.geometry.sample_point(np.random.default_rng(cfg.seed + 1), 2 * 256)
    nan_on_rows(monkeypatch, pts[list(bad_rows)])
    with pytest.raises(DomainError) as loop:
        oracles.contraction_loop(cfg.operator, cfg.geometry, 256, cfg.seed + 1, 1e-14)
    assert str(loop.value) == f"{culprit} contains non-finite entries"
    expected = f"operator is incompatible with the geometry's domain: {loop.value}"

    with pytest.raises(EngineError) as exc_info:
        run(cfg)
    assert str(exc_info.value) == expected and exc_info.value.t == -1
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "c.json", raw), str(out)) == 1
    assert json.loads((out / "state_dump.json").read_text()) == {"error": expected, "t": -1, "state": [0.0, 0.0]}
    capsys.readouterr()


def on_step(monkeypatch, cls, name, step, replace):
    """Make cls.name return replace(its plain result) at the one scalar step given."""
    plain = getattr(cls, name)

    def method(self, s, t=0):
        out = plain(self, s, t)
        return replace(out) if np.ndim(t) == 0 and t == step else out

    monkeypatch.setattr(cls, name, method)


def failed_run(tmp_path, capsys, config, t, what):
    """cmd_run of a shipped config that must stop at step t; returns the dumped error."""
    out = tmp_path / "out"
    assert cmd_run(str(CONFIGS / config), str(out), overrides=["iterations=20", "rate_window=null"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"run failed: {what} at iteration {t}")
    assert err.endswith(f"(state dumped to {out / 'state_dump.json'})\n")
    dump = json.loads((out / "state_dump.json").read_text())
    assert dump["t"] == t and err.startswith(f"run failed: {dump['error']} (")
    return dump["error"]


def test_nan_operator_image_stops_the_run(tmp_path, monkeypatch, capsys):
    on_step(monkeypatch, AffineColinear, "apply", 5, lambda out: np.full_like(out, np.nan))
    assert failed_run(tmp_path, capsys, "affine_accel.json", 5, "non-finite state") == \
        "non-finite state at iteration 5"


def test_off_simplex_operator_image_is_a_domain_escape(tmp_path, monkeypatch, capsys):
    on_step(monkeypatch, ExpGradientStep, "apply", 3, lambda out: 0.5 * out)
    error = failed_run(tmp_path, capsys, "exp_gradient.json", 3, "domain escape")
    assert error.startswith("domain escape at iteration 3: simplex drift exceeds repairable tolerance")


def test_infinite_perturbation_stops_the_run(tmp_path, monkeypatch, capsys):
    calls = []
    plain = PerturbationModel.draws

    def draws(self, dim, n, rng):  # a random-mode run draws the steps of a block at once
        calls.append(None)
        directions, u = plain(self, dim, n, rng)
        if len(calls) == 1:
            u[7] = np.inf  # the first block's draws, of rows 0..19: eta_7 = inf * direction
        return directions, u

    monkeypatch.setattr(PerturbationModel, "draws", draws)
    assert failed_run(tmp_path, capsys, "affine_random_noise.json", 7, "non-finite state") == \
        "non-finite state at iteration 7"


def test_a_random_run_that_never_draws_matches_the_checked_loop(tmp_path, capsys):
    # s0 is the fixed point and delta0 = 0: every budget is 0, so no step draws
    overrides = ["perturbation.delta0=0.0", "s0=[2.0,-1.0]", "iterations=50"]
    config, out = CONFIGS / "affine_random_noise.json", tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out),
                 *(arg for o in overrides for arg in ("--set", o))]) == 0
    assert json.loads(capsys.readouterr().out)["e_final"] == 0.0
    cfg = from_dict(apply_overrides(json.loads(config.read_text()), overrides))
    got, want = harness.load_run(out, cfg), oracles.run_loop(cfg)
    del want["final_state"]  # no artifact has it; it is the last of the states
    for name, ref in want.items():
        value = getattr(got, name)
        assert value.shape == ref.shape and value.tobytes() == ref.tobytes(), name


#: an adversarial target whose distance from s0 = 0 overflows
OVERFLOW_TARGET = [0.0, 1.3407807929942597e+154]
OVERFLOW_ERROR = ("perturbation failed at iteration 0: "
                  "||s_t - s_star|| overflows; the adversarial direction is undefined")
#: geometry overrides -> (error, t): on squared-euclidean e_0 overflows with the distance, and
#: start-up rejects s0; A = 1e-3 I keeps e_0 finite, so the first step's direction overflows
OVERFLOW_CASES = {
    "squared-euclidean": ({}, ("start-up failed: D(s0, s_star) = inf is not finite", -1)),
    "quadratic": ({"geometry.kind": "quadratic", "geometry.params.a": [[1e-3, 0.0], [0.0, 1e-3]]},
                  (OVERFLOW_ERROR, 0)),
}


@pytest.mark.parametrize("geometry", OVERFLOW_CASES)
def test_overflowing_adversarial_direction_stops_the_run(tmp_path, capsys, geometry):
    changes, (error, t) = OVERFLOW_CASES[geometry]
    out = tmp_path / "out"
    overrides = [f"{k}={json.dumps(v)}" for k, v in {**changes, "operator.params.target": OVERFLOW_TARGET}.items()]
    assert cmd_run(str(CONFIGS / "affine_adversarial_scaled.json"), str(out), overrides=overrides + ["iterations=5"]) == 1
    assert json.loads((out / "state_dump.json").read_text()) == {"error": error, "t": t, "state": [0.0, 0.0]}
    assert capsys.readouterr().err.startswith(f"run failed: {error} (state dumped to")


@pytest.mark.parametrize("geometry", OVERFLOW_CASES)
def test_sweep_records_an_overflowing_adversarial_direction(tmp_path, geometry):
    changes, (error, _) = OVERFLOW_CASES[geometry]
    raw = apply_overrides(json.loads((CONFIGS / "affine_adversarial_scaled.json").read_text()),
                          [f"{k}={json.dumps(v)}" for k, v in changes.items()])
    raw["iterations"] = 5
    raw["sweep"] = {"operator.params.target": [OVERFLOW_TARGET, [2.0, -1.0]]}
    assert cmd_sweep(write_config(tmp_path / "c.json", raw), str(tmp_path / "s")) == 0
    with open(tmp_path / "s" / "index.csv") as fh:
        status = {row["axis:operator.params.target"]: row["status"] for row in csv.DictReader(fh)}
    assert status == {json.dumps(OVERFLOW_TARGET): f"error: {error}", "[2.0, -1.0]": "ok"}


#: a finite s0 whose divergence from the fixed point [2, -1] overflows
HUGE_S0 = ["iterations=50", "rate_window=null", "s0=[1e200, 0.0]"]


@pytest.mark.parametrize("eps", [[], None], ids=["no-eps", "shipped-eps"])
def test_a_finite_s0_whose_divergence_overflows_fails_at_start_up(tmp_path, capsys, eps):
    out = tmp_path / "out"
    overrides = HUGE_S0 + ([] if eps is None else [f"eps_list={json.dumps(eps)}"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cmd_run(str(CONFIGS / "affine_accel.json"), str(out), overrides=overrides) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    error = "start-up failed: D(s0, s_star) = inf is not finite"
    assert json.loads((out / "state_dump.json").read_text()) == {"error": error, "t": -1, "state": [1e200, 0.0]}
    assert capsys.readouterr().err == f"run failed: {error} (state dumped to {out / 'state_dump.json'})\n"
    assert not (out / "summary.json").exists()


#: gradient steps of size 3 on ||s||^2 / 2 triple the distance to s_star = [1, 1] each step, so e_t
#: overflows at t = 512 while s_512 is finite; a_t = e_t (t+1)^2 overflows from t = 504 on
KAPPA0_OVERFLOW = {
    "geometry": {"kind": "squared-euclidean", "dim": 2},
    "operator": {"kind": "gradient-step", "params": {"a": [[1.0, 0.0], [0.0, 1.0]], "b": [1.0, 1.0], "step": 3.0}},
    "schedule": {"kind": "constant", "params": {"c": 1.0}},
    "s0": [0.5, 0.0],
    "iterations": 2000,
    "seed": 1,
    "retain_states": True,
}
#: the run fails at the row whose e_t overflows, before its step, and dumps the finite s_512
KAPPA0_DUMPS = {
    "random": '{\n  "error": "non-finite divergence at iteration 512",\n  "state": [\n    -6.712557786902622e+153,\n'
              '    -1.3434326095975617e+154\n  ],\n  "t": 512\n}\n',
    "adversarial": '{\n  "error": "non-finite divergence at iteration 512",\n  "state": [\n    -6.435747806372454e+153,\n'
                   '    -1.2871495612744908e+154\n  ],\n  "t": 512\n}\n',
}


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("mode", KAPPA0_DUMPS)
def test_an_overflowing_divergence_at_kappa_zero_fails_at_its_row_in_any_block(tmp_path, capsys, mode, block):
    raw = {**KAPPA0_OVERFLOW, "perturbation": {"mode": mode, "delta0": 1e-3, "kappa": 0.0, "injection": "unscaled"}}
    out = tmp_path / "out"
    with mock.patch.object(engine, "BLOCK", block):
        assert cmd_run(write_config(tmp_path / "c.json", raw), str(out)) == 1
    dump = (out / "state_dump.json").read_text()
    assert dump == KAPPA0_DUMPS[mode]
    error = strict_json(out / "state_dump.json")["error"]
    assert capsys.readouterr().err == f"run failed: {error} (state dumped to {out / 'state_dump.json'})\n"


@pytest.mark.parametrize("eps", [[], [1e-3]], ids=["no-eps", "eps-past-the-horizon"])
def test_a_clean_run_whose_divergence_overflows_fails_at_its_row(tmp_path, capsys, eps):
    overrides = ["iterations=520", "rate_window=null", f"eps_list={json.dumps(eps)}"]
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "c.json", KAPPA0_OVERFLOW), str(out), overrides=overrides) == 1
    dump = strict_json(out / "state_dump.json")
    assert (dump["error"], dump["t"]) == ("non-finite divergence at iteration 512", 512)
    assert all(math.isfinite(x) for x in dump["state"])
    assert capsys.readouterr().err.endswith(f"run failed: {dump['error']} (state dumped to {out / 'state_dump.json'})\n")
    assert not (out / "summary.json").exists()


def test_an_overflowing_a_t_is_written_as_null(tmp_path, capsys):
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "c.json", KAPPA0_OVERFLOW), str(out),
                   overrides=["iterations=510", "rate_window=null"]) == 0
    stdout = capsys.readouterr().out
    line = json.loads(stdout, parse_constant=lambda token: pytest.fail(f"run stdout holds {token}"))
    summary = strict_json(out / "summary.json")
    assert summary["a_max"] is None and summary["e_final"] == line["e_final"] > 1e306
    trace = harness.read_trace_csv(out / "trace.csv")
    assert np.isfinite(trace["e_t"]).all() and np.isinf(trace["a_t"][504:]).all()
    assert np.isfinite(trace["a_t"][:504]).all()


@pytest.mark.parametrize("where", ["file", "override"])
def test_integer_past_the_digit_limit_exit_two(tmp_path, capsys, where):
    huge = "1" + "0" * 5000
    text = (CONFIGS / "affine_accel.json").read_text()
    overrides = []
    if where == "file":
        text = text.replace('"iterations": 10000', f'"iterations": {huge}')
        assert huge in text
    else:
        overrides = [f"iterations={huge}"]
    path = tmp_path / "c.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert cmd_run(str(path), str(out), overrides=overrides) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not out.exists()


def test_long_override_value_is_cut_in_the_error(tmp_path, capsys):
    huge = "1" + "0" * 5000
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / "affine_accel.json"), "--out", str(out),
                 "--set", f"iterations={huge}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: iterations must be an integer, got '100")
    assert err.count("\n") == 1 and len(err) < 200
    assert "(5003 characters)" in err


def test_run_rejects_sweep_block(tmp_path):
    raw = base_config(sweep={"seed": [1, 2]})
    cfg_path = write_config(tmp_path / "c.json", raw)
    assert cmd_run(cfg_path, str(tmp_path / "out")) == 2


def test_summary_iteration_counts(tmp_path):
    # T = 300 and e0 = 2.5: eps >= e0 gives t = 0, 2.77e-5 is first met at
    # t = T, 5e-6 and 1e-6 lie past the horizon; one eps repeats and the list
    # is out of order.
    eps_list = [1e-6, 1e-4, 3.0, 2.77e-5, 5e-6, 1e-4, 2.5]
    raw = base_config(eps_list=eps_list)
    out = tmp_path / "out"
    cmd_run(write_config(tmp_path / "c.json", raw), str(out))
    summary = json.loads((out / "summary.json").read_text())
    got = [(item["eps"], item["t"], item["censored"]) for item in summary["iterations_to_eps"]]
    assert got == [(eps, oracles.iters_to_eps(2.5, eps), False) for eps in eps_list]
    assert oracles.iters_to_eps(2.5, 2.77e-5) == 300
    assert got[0][1] == oracles.ITERS_1E6 and got[1][1] == oracles.ITERS_1E4


def strict_json(path):
    """path's JSON, failing on the NaN and Infinity tokens that JSON does not have."""
    def refuse(token):
        raise ValueError(f"{path} holds {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def accel_run(out, *overrides):
    return cmd_run(str(CONFIGS / "affine_accel.json"), str(out),
                   overrides=["iterations=300", "rate_window=null", *overrides])


@pytest.fixture(scope="module")
def accel_dir(tmp_path_factory):
    """The 300-step affine_accel run with states, made once for the edits below."""
    out = tmp_path_factory.mktemp("accel") / "run"
    assert accel_run(out) == 0
    return out


def test_an_audited_non_finite_excess_is_written_as_null(tmp_path, capsys, accel_dir):
    run_dir = tmp_path / "run"
    shutil.copytree(accel_dir, run_dir)
    lines = (run_dir / "trace.csv").read_text().split("\n")
    fields = lines[101].split(",")
    fields[1] = "-inf"  # e_t of row 100
    lines[101] = ",".join(fields)
    (run_dir / "trace.csv").write_text("\n".join(lines))
    capsys.readouterr()
    assert cmd_audit(str(run_dir)) == 0
    assert "descent: FINDING (worst violation inf)" in capsys.readouterr().out
    descent = next(c for c in strict_json(run_dir / "audit.json")["checks"] if c["name"] == "descent")
    assert descent["worst_violation"] is None and not descent["passed"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "-1e308"])
@pytest.mark.parametrize("column", TRACE_HEADER[1:])
def test_audit_and_rate_of_a_trace_with_one_bad_field_exit_zero_or_two_with_strict_json(
        tmp_path, capsys, accel_dir, column, value):
    for row in (0, 10, 100, 300):
        run_dir = tmp_path / f"row{row}"
        shutil.copytree(accel_dir, run_dir)
        lines = (run_dir / "trace.csv").read_text().split("\n")
        fields = lines[row + 1].split(",")
        fields[TRACE_HEADER.index(column)] = value
        lines[row + 1] = ",".join(fields)
        (run_dir / "trace.csv").write_text("\n".join(lines))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            audit = cmd_audit(str(run_dir))
            rate = cmd_rate(str(run_dir / "trace.csv"))
        assert (audit, rate) in {(0, 0), (0, 2), (2, 0), (2, 2)}, row
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], row
        if (run_dir / "audit.json").exists():
            strict_json(run_dir / "audit.json")
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("{"):
                json.loads(line, parse_constant=lambda token: pytest.fail(f"row {row}: stdout holds {token}"))


def test_rerun_replaces_the_earlier_run_files(tmp_path, capsys):
    out = tmp_path / "X"
    assert accel_run(out) == 0 and cmd_audit(str(out)) == 0
    (out / "notes.txt").write_text("kept\n")
    # an eps of 1.0 is met inside the trace; the default 1e-6 would run on to the passage cap at gamma 0.9
    assert accel_run(out, "retain_states=false", "operator.params.gamma=0.9", "eps_list=[1.0]") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "manifest.json", "notes.txt", "summary.json", "trace.csv"]
    assert set(strict_json(out / "manifest.json")["files"]) == {"config.json", "trace.csv", "summary.json"}
    assert cmd_audit(str(out)) == 3
    capsys.readouterr()


def test_failed_rerun_leaves_only_its_state_dump(tmp_path, capsys):
    out = tmp_path / "X"
    assert accel_run(out, "retain_states=true") == 0 and cmd_audit(str(out)) == 0
    assert accel_run(out, "s0=[1e200, 0.0]") == 1  # D(s0, s_star) overflows: start-up fails
    assert [p.name for p in out.iterdir()] == ["state_dump.json"]
    capsys.readouterr()


def test_run_into_a_plain_file_exits_two(tmp_path):
    target = tmp_path / "F"
    target.touch()
    proc = subprocess.run([sys.executable, "-m", "bregiter.cli", "run", "--config", str(CONFIGS / "affine_accel.json"),
                           "--out", str(target), "--set", "iterations=20", "--set", "rate_window=null"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"run: cannot write run directory {target}: ") and "Traceback" not in proc.stderr
    assert target.read_bytes() == b""


# ---------------------------------------------------------------------------
# cmd_sweep


def sweep_config(**overrides):
    raw = base_config(iterations=200)
    raw["sweep"] = {"operator.params.gamma": [0.25, 0.5, 0.75], "seed": [1, 2]}
    raw.update(overrides)
    return raw


def test_sweep_expansion_counts():
    points = expand_sweep(sweep_config())
    assert len(points) == 6
    gammas = {p[0]["operator.params.gamma"] for p in points}
    assert gammas == {0.25, 0.5, 0.75}


def test_sweep_serial_and_parallel_agree(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", sweep_config())
    assert cmd_sweep(cfg_path, str(tmp_path / "s1"), parallel=1) == 0
    assert cmd_sweep(cfg_path, str(tmp_path / "s4"), parallel=4) == 0
    a = (tmp_path / "s1" / "index.csv").read_bytes()
    b = (tmp_path / "s4" / "index.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert len(lines) == 7  # header + 6 points
    assert lines[0].startswith("axis:operator.params.gamma,axis:seed,digest")


def test_sweep_runs_live_in_digest_directories(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", sweep_config())
    cmd_sweep(cfg_path, str(tmp_path / "s"), parallel=1)
    rows = (tmp_path / "s" / "index.csv").read_text().splitlines()[1:]
    header = (tmp_path / "s" / "index.csv").read_text().splitlines()[0].split(",")
    digest_col = header.index("digest")
    for row in rows:
        digest = row.split(",")[digest_col]
        sub = tmp_path / "s" / digest[:12]
        assert (sub / "trace.csv").exists()
        assert json.loads((sub / "config.json").read_text())  # canonical copy parses


def test_sweep_continues_past_point_failures(tmp_path):
    raw = sweep_config()
    # gamma = 1.5 is rejected at operator construction for that point only
    raw["sweep"] = {"operator.params.gamma": [0.5, 1.5]}
    cfg_path = write_config(tmp_path / "c.json", raw)
    assert cmd_sweep(cfg_path, str(tmp_path / "s"), parallel=1) == 0
    text = (tmp_path / "s" / "index.csv").read_text()
    assert len(text.splitlines()) == 3
    assert "ok" in text and "error" in text


UNKNOWN_PAIRS = ("error: config has unknown key(s) ['contraction_pairs']; known: ['eps_list', 'geometry', "
                 "'iterations', 'operator', 'perturbation', 'rate_window', 'retain_states', 's0', 'schedule', "
                 "'seed', 'sweep']")


@pytest.mark.parametrize("axis, statuses", [
    ("seed", {"-1": "error: seed must be >= 0, got -1", "1": "ok"}),
    ("contraction_pairs", {"16": UNKNOWN_PAIRS, "256": UNKNOWN_PAIRS}),  # a removed key, not a setting
])
def test_sweep_point_with_a_bad_value_gets_an_error_row(tmp_path, capsys, axis, statuses):
    raw = sweep_config()
    raw["sweep"] = {axis: [int(v) for v in statuses]}
    assert cmd_sweep(write_config(tmp_path / "c.json", raw), str(tmp_path / "s"), parallel=1) == 0
    with open(tmp_path / "s" / "index.csv", newline="") as fh:
        rows = {row[f"axis:{axis}"]: row["status"] for row in csv.DictReader(fh)}
    assert rows == statuses
    n_failed = sum(status != "ok" for status in statuses.values())
    assert capsys.readouterr().out.startswith(f"sweep: {len(statuses)} points, {n_failed} failed, ")


@pytest.mark.parametrize("gammas, parallel, pools", [([0.25, 0.5], 8, [2]), ([0.5], 4, [])])
def test_sweep_starts_no_more_workers_than_jobs(tmp_path, monkeypatch, gammas, parallel, pools):
    started = []

    class InProcessPool:
        """Records the workers a sweep asks for and maps its jobs in this process."""

        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    cfg_path = write_config(tmp_path / "c.json", sweep_config(sweep={"operator.params.gamma": gammas}))
    assert cmd_sweep(cfg_path, str(tmp_path / "s1"), parallel=1) == 0
    assert cmd_sweep(cfg_path, str(tmp_path / "sN"), parallel=parallel) == 0
    assert started == pools
    assert (tmp_path / "sN" / "index.csv").read_bytes() == (tmp_path / "s1" / "index.csv").read_bytes()


def test_sweep_point_that_does_not_parse_gets_no_job(tmp_path, monkeypatch):
    ran = []
    plain = harness._sweep_point
    monkeypatch.setattr(harness, "_sweep_point", lambda args, loop: ran.append(args) or plain(args, loop))
    raw = sweep_config()
    raw["sweep"] = {"operator.params.gamma": [0.5, 1.5]}
    assert cmd_sweep(write_config(tmp_path / "c.json", raw), str(tmp_path / "s"), parallel=1) == 0
    assert [cfg.operator.gamma for cfg, _ in ran] == [0.5]
    assert "error: operator: gamma" in (tmp_path / "s" / "index.csv").read_text()


@pytest.mark.parametrize("parallel", [1, 2])
def test_sweep_point_that_cannot_be_written_gets_an_error_row(tmp_path, parallel):
    out = tmp_path / "SW"
    assert cmd_sweep(str(CONFIGS / "sweep_gamma.json"), str(out)) == 0
    shutil.rmtree(out / "118af65de326")
    (out / "118af65de326").touch()
    proc = subprocess.run([sys.executable, "-m", "bregiter.cli", "sweep", "--config", str(CONFIGS / "sweep_gamma.json"),
                           "--out", str(out), "--parallel", str(parallel)], capture_output=True, text=True)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr
    assert proc.stdout == f"sweep: 6 points, 1 failed, index at {out / 'index.csv'}\n"
    with open(out / "index.csv", newline="") as fh:
        statuses = {row["digest"][:12]: row["status"] for row in csv.DictReader(fh)}
    assert statuses.pop("118af65de326").startswith("error: ")
    assert set(statuses.values()) == {"ok"}


@pytest.mark.parametrize("blocker", ["SW", "SW/index.csv/"])
def test_sweep_output_that_cannot_be_written_exits_two(tmp_path, blocker):
    out = tmp_path / "SW"
    (tmp_path / blocker).mkdir(parents=True) if blocker.endswith("/") else out.touch()
    proc = subprocess.run([sys.executable, "-m", "bregiter.cli", "sweep", "--config", str(CONFIGS / "sweep_gamma.json"),
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(f"sweep: cannot write {out}: ") and "Traceback" not in proc.stderr


def test_sweep_without_block_exit_two(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    assert cmd_sweep(cfg_path, str(tmp_path / "s")) == 2


def test_sweep_empty_block_exit_two(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config(sweep={}))
    assert cmd_sweep(cfg_path, str(tmp_path / "s")) == 2


# ---------------------------------------------------------------------------
# cmd_audit


def test_audit_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config(retain_states=True))
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out))
    assert cmd_audit(str(out)) == 0
    report = json.loads((out / "audit.json").read_text())
    names = {c["name"] for c in report["checks"]}
    assert {"three-point-identity", "descent", "cross-term", "recursion"} <= names
    assert report["fitted"]["beta_max"] == pytest.approx(0.75, abs=1e-9)
    assert report["induction"]["n_violations"] == oracles.DEFAULT_GRID_VIOLATIONS
    capsys.readouterr()


def test_audit_exit_three_without_states(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config(retain_states=False))
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out))
    assert cmd_audit(str(out)) == 3
    assert "retain_states" in capsys.readouterr().err


def test_audit_missing_directory_exit_two(tmp_path, capsys):
    assert cmd_audit(str(tmp_path / "nothing")) == 2
    capsys.readouterr()


MALFORMED_TRACES = {"non-number": b"0,abc,1,1,1,0\n", "short-row": b"0,1,1\n", "header-only": b"",
                    "not-text": b"0,\xff\xfe,1,1,1,0\n", "nan-t": b"nan,1,1,1,1,0\n",
                    "fractional-t": b"0,1,1,1,1,0\n1.5,1,1,1,1,0\n"}


def run_with_malformed_trace(tmp_path, body, retain_states=True):
    cfg_path = write_config(tmp_path / "c.json", base_config(retain_states=retain_states))
    out = tmp_path / "out"
    assert cmd_run(cfg_path, str(out)) == 0
    (out / "trace.csv").write_bytes(",".join(TRACE_HEADER).encode() + b"\n" + body)
    return out


@pytest.mark.parametrize("command", ["rate", "audit"])
@pytest.mark.parametrize("body", MALFORMED_TRACES.values(), ids=MALFORMED_TRACES)
def test_malformed_trace_exit_two(tmp_path, capsys, command, body):
    out = run_with_malformed_trace(tmp_path, body)
    trace = out / "trace.csv"
    argv = ["rate", "--trace", str(trace)] if command == "rate" else ["audit", "--dir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: cannot ") and str(trace) in err
    assert not (out / "audit.json").exists()


@pytest.mark.parametrize("bad_config, retain_states, code", [
    (True, False, 2),   # a config that does not load outranks missing states
    (False, True, 2),   # a malformed trace next to states.npz
    (False, False, 3),  # without states.npz the trace is never parsed
])
def test_audit_exit_precedence(tmp_path, capsys, bad_config, retain_states, code):
    out = run_with_malformed_trace(tmp_path, MALFORMED_TRACES["non-number"], retain_states)
    if bad_config:
        (out / "config.json").write_text("{")
    assert cmd_audit(str(out)) == code
    err = capsys.readouterr().err
    assert ("retain_states" in err) == (code == 3)


def rewrite_states(**change):
    """Damage that rewrites states.npz with the named arrays passed through change[name]."""
    def damage(out):
        with np.load(out / "states.npz") as npz:
            arrays = {name: change.get(name, np.asarray)(npz[name]) for name in npz.files}
        np.savez(out / "states.npz", **arrays)
    return damage


def nan_row(a, row=5):
    a = a.copy()
    a[row] = np.nan
    return a


def rewrite_summary(**change):
    """Damage that sets the named fields of summary.json to the values in change."""
    def damage(out):
        summary = json.loads((out / "summary.json").read_text())
        (out / "summary.json").write_text(json.dumps({**summary, **change}))
    return damage


DAMAGE = {
    "summary-not-object": lambda out: (out / "summary.json").write_text("[1, 2]"),
    "summary-not-json": lambda out: (out / "summary.json").write_text("{"),
    "summary-not-utf8": lambda out: (out / "summary.json").write_bytes(b"\xff\xfe{}"),
    "summary-digest-of-another-config": rewrite_summary(config_digest=config_digest(base_config(seed=2))),
    "summary-digest-number": rewrite_summary(config_digest=5),
    "summary-s-star-wrong-dim": rewrite_summary(s_star=[1.0]),
    "summary-s-star-nan": rewrite_summary(s_star=[float("nan"), 0.0]),
    "summary-s-star-no-numbers": rewrite_summary(s_star=["x", "y"]),
    "summary-gamma-hat-string": rewrite_summary(gamma_hat="x"),
    "summary-gamma-hat-null": rewrite_summary(gamma_hat=None),
    "summary-gamma-hat-infinite": rewrite_summary(gamma_hat=float("inf")),
    "summary-gamma-hat-huge-int": rewrite_summary(gamma_hat=10**400),
    "summary-warnings-number": rewrite_summary(warnings=5),
    "summary-warnings-string": rewrite_summary(warnings="abc"),
    "states-without-etas": lambda out: np.savez(out / "states.npz", states=np.zeros((301, 2))),
    "states-truncated": lambda out: (out / "states.npz").write_bytes((out / "states.npz").read_bytes()[:200]),
    "states-nan-row": rewrite_states(states=nan_row),
    "states-cut-to-10-rows": rewrite_states(states=lambda a: a[:10]),
    "states-wrong-dim": rewrite_states(states=lambda a: a[:, :1]),
    "etas-nan-row": rewrite_states(etas=nan_row),
    "etas-cut-to-10-rows": rewrite_states(etas=lambda a: a[:10]),
    "etas-no-numbers": rewrite_states(etas=lambda a: np.full(a.shape, "x")),
}


@pytest.mark.parametrize("damage", DAMAGE.values(), ids=DAMAGE)
def test_audit_damaged_run_files_exit_two(tmp_path, capsys, damage):
    cfg_path = write_config(tmp_path / "c.json", base_config(retain_states=True))
    out = tmp_path / "out"
    assert cmd_run(cfg_path, str(out)) == 0
    damage(out)
    assert cmd_audit(str(out)) == 2
    assert capsys.readouterr().err.startswith(f"audit: cannot load run directory {out}: {out}")


def edit_trace(out, t, column, value):
    """Set one field of trace.csv's row t to the text value."""
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    fields = lines[t + 1].rstrip("\n").split(",")
    fields[TRACE_HEADER.index(column)] = value
    lines[t + 1] = ",".join(fields) + "\n"
    (out / "trace.csv").write_text("".join(lines))


def test_audit_skips_a_nan_row_in_the_envelope_check(tmp_path, capsys):
    out = tmp_path / "R"
    assert accel_run(out) == 0
    edit_trace(out, 300, "e_t", "nan")
    capsys.readouterr()
    assert cmd_audit(str(out)) == 0
    assert "envelope-domination: pass (worst violation 0.000e+00)\n" in capsys.readouterr().out
    envelope = strict_json(out / "audit.json")["checks"][-1]
    assert envelope["name"] == "envelope-domination" and envelope["worst_violation"] == 0.0 and envelope["passed"]


def test_audit_writes_an_infinite_m_as_null_in_both_blocks(tmp_path, capsys):
    out = tmp_path / "R"
    assert accel_run(out) == 0
    edit_trace(out, 49, "delta_norm_sq", "1.0e+308")
    assert cmd_audit(str(out)) == 0
    report = strict_json(out / "audit.json")
    assert report["constants"]["M"] is None and report["fitted"] == {"beta_max": 0.75, "M": None}
    capsys.readouterr()


def test_audit_of_finite_states_that_overflow_exits_zero(tmp_path):
    out = tmp_path / "out"
    assert cmd_run(str(CONFIGS / "affine_random_noise.json"), str(out), overrides=["iterations=20"]) == 0

    def huge(a, row, value):
        a = a.copy()
        a[row] = [value, 0.0]
        return a
    rewrite_states(states=lambda a: huge(a, 5, 1.5e308), etas=lambda a: huge(a, 4, -1.5e308))(out)
    proc = subprocess.run([sys.executable, "-m", "bregiter.cli", "audit", "--dir", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert (out / "audit.json").exists()


# ---------------------------------------------------------------------------
# what run, sweep, audit and rate print


def test_run_prints_one_summary_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path / "c.json", base_config()), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    want = {"digest": summary["config_digest"], "e_final": summary["e_final"],
            "slope": summary["slope"], "warnings": summary["warnings"]}
    assert capsys.readouterr().out == json.dumps(want) + "\n"


def test_sweep_prints_its_point_count(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sweep", "--config", str(CONFIGS / "sweep_gamma.json"), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"sweep: 6 points, 0 failed, index at {out / 'index.csv'}\n"


def test_audit_prints_one_line_per_check(tmp_path, capsys):
    out = tmp_path / "out"
    cmd_run(write_config(tmp_path / "c.json", base_config(retain_states=True)), str(out))
    capsys.readouterr()
    assert main(["audit", "--dir", str(out)]) == 0
    report = json.loads((out / "audit.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == ["three-point-identity", "descent", "cross-term", "recursion", "envelope-domination"]
    statuses = ["pass", "pass", "vacuous", "pass", "pass"]
    want = [f"{c['name']}: {status} (worst violation {c['worst_violation']:.3e})"
            for c, status in zip(report["checks"], statuses)]
    want.append(f"induction-step: {oracles.DEFAULT_GRID_VIOLATIONS}/909 grid cells violate the claimed inequality")
    assert capsys.readouterr().out.splitlines() == want


def test_rate_prints_the_fit_on_one_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path / "c.json", base_config()), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["rate", "--trace", str(out / "trace.csv")]) == 0
    assert capsys.readouterr().out == (  # the recorded bytes, key order included
        '{"slope": -1.9999999999999265, "r2": 1.0, "t_lo": 30, "t_hi": 300, "n_points": 271, '
        '"truncated": false, "power_law": true}\n')


# ---------------------------------------------------------------------------
# cmd_rate


def test_rate_prints_json(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config(iterations=2000))
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out))
    capsys.readouterr()  # run's summary line
    assert cmd_rate(str(out / "trace.csv"), window=(100, 2000)) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] == pytest.approx(-2.0, abs=1e-3)
    assert fit["r2"] > 0.999


def test_rate_short_window_exit_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out))
    assert cmd_rate(str(out / "trace.csv"), window=(295, 299)) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("row, code", [(200, 0), (32, 2)])
def test_rate_window_stops_before_a_non_finite_row(tmp_path, capsys, value, row, code):
    # the default window of a 300-step run is [30, 300]: row 200 leaves 170 points, row 32 two
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "c.json", base_config()), str(out)) == 0
    capsys.readouterr()
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    t, _, rest = lines[row + 1].split(",", 2)
    lines[row + 1] = f"{t},{value},{rest}"
    (out / "trace.csv").write_text("".join(lines))
    proc = subprocess.run([sys.executable, "-m", "bregiter.cli", "rate", "--trace", str(out / "trace.csv")],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert "NaN" not in proc.stdout and "Infinity" not in proc.stdout
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    if code == 0:
        fit = json.loads(proc.stdout)
        assert fit["truncated"] and (fit["t_lo"], fit["t_hi"], fit["n_points"]) == (30, row - 1, row - 30)
    else:
        assert proc.stderr == f"rate: rate window [30, {row - 1}] has {row - 30} usable points, need 10\n"


# ---------------------------------------------------------------------------
# argument parsing and console entry


def test_cli_main_round_trip(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    assert main(["audit", "--dir", str(out)]) == 0
    assert main(["rate", "--trace", str(out / "trace.csv"), "--window", "30:300"]) == 0
    capsys.readouterr()


def test_cli_set_flag(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg_path, "--out", str(out),
                 "--set", "iterations=1", "--seed", "3"]) == 0
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["iterations"] == 1 and cfg["seed"] == 3
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config(iterations=20))
    proc = subprocess.run(
        [sys.executable, "-m", "bregiter.cli", "run", "--config", cfg_path,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "trace.csv").exists()


def test_run_to_dir_returns_summary(tmp_path):
    summary = run_to_dir(from_dict(base_config()), tmp_path / "out")
    assert summary["e0"] == 2.5
    assert summary["gamma_hat"] == pytest.approx(0.25, abs=1e-9)
