import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from bregiter import config as cfgmod
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
from bregiter.operators import AffineColinear, FixedPointError

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


# ---------------------------------------------------------------------------
# config round trips and digests


def test_canonical_round_trip():
    cfg = from_dict(base_config())
    again = from_dict(json.loads(cfg.canonical_json()))
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
    config = Path(__file__).resolve().parent.parent / "configs" / "exp_gradient.json"
    overrides = ["geometry.kind=squared-euclidean", "geometry.params={}"]
    assert cmd_run(str(config), str(tmp_path / "out"), overrides=overrides) == 2
    err = capsys.readouterr().err
    assert "exp-gradient-step" in err and "negative-entropy" in err and "squared-euclidean" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# cmd_run


def test_run_writes_all_artifacts(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config(retain_states=True))
    out = tmp_path / "out"
    assert cmd_run(cfg_path, str(out), quiet=True) == 0
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
    cmd_run(cfg_path, str(out), quiet=True)
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
    assert cmd_run(cfg_path, str(out), overrides=["iterations=1"], quiet=True) == 0
    assert len((out / "trace.csv").read_text().splitlines()) == 3  # header + t=0, t=1


def test_run_rerun_is_bitwise_identical(tmp_path):
    raw = base_config(
        perturbation={"mode": "random", "delta0": 1e-3, "kappa": 0.1, "injection": "unscaled"}
    )
    cfg_path = write_config(tmp_path / "c.json", raw)
    cmd_run(cfg_path, str(tmp_path / "a"), quiet=True)
    cmd_run(cfg_path, str(tmp_path / "b"), quiet=True)
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


def test_run_seed_flag_overrides_config(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out), seed=9, quiet=True)
    assert json.loads((out / "config.json").read_text())["seed"] == 9


def test_run_config_error_exit_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config(bogus=1))
    assert cmd_run(cfg_path, str(tmp_path / "out")) == 2
    assert "bogus" in capsys.readouterr().err


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
    def no_fixed_point(self, geometry=None, tol=1e-14, max_iter=10**6):
        raise FixedPointError("did not converge", 1.0)

    monkeypatch.setattr(AffineColinear, "fixed_point", no_fixed_point)
    out = tmp_path / "out"
    assert cmd_run(write_config(tmp_path / "c.json", base_config()), str(out)) == 1
    dump = json.loads((out / "state_dump.json").read_text())
    assert dump["t"] == -1 and "fixed point" in dump["error"]
    assert cmd_sweep(write_config(tmp_path / "s.json", sweep_config()), str(tmp_path / "s"),
                     parallel=1, quiet=True) == 0
    rows = (tmp_path / "s" / "index.csv").read_text().splitlines()[1:]
    assert len(rows) == 6 and all("error: fixed point not found" in row for row in rows)
    capsys.readouterr()


def test_run_rejects_sweep_block(tmp_path):
    raw = base_config(sweep={"seed": [1, 2]})
    cfg_path = write_config(tmp_path / "c.json", raw)
    assert cmd_run(cfg_path, str(tmp_path / "out"), quiet=True) == 2


def test_summary_iteration_counts(tmp_path):
    # T = 300 and e0 = 2.5: eps >= e0 gives t = 0, 2.77e-5 is first met at
    # t = T, 5e-6 and 1e-6 lie past the horizon; one eps repeats and the list
    # is out of order.
    eps_list = [1e-6, 1e-4, 3.0, 2.77e-5, 5e-6, 1e-4, 2.5]
    raw = base_config(eps_list=eps_list)
    out = tmp_path / "out"
    cmd_run(write_config(tmp_path / "c.json", raw), str(out), quiet=True)
    summary = json.loads((out / "summary.json").read_text())
    got = [(item["eps"], item["t"], item["censored"]) for item in summary["iterations_to_eps"]]
    assert got == [(eps, oracles.iters_to_eps(2.5, eps), False) for eps in eps_list]
    assert oracles.iters_to_eps(2.5, 2.77e-5) == 300
    assert got[0][1] == oracles.ITERS_1E6 and got[1][1] == oracles.ITERS_1E4


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
    assert cmd_sweep(cfg_path, str(tmp_path / "s1"), parallel=1, quiet=True) == 0
    assert cmd_sweep(cfg_path, str(tmp_path / "s4"), parallel=4, quiet=True) == 0
    a = (tmp_path / "s1" / "index.csv").read_bytes()
    b = (tmp_path / "s4" / "index.csv").read_bytes()
    assert a == b
    lines = a.decode().splitlines()
    assert len(lines) == 7  # header + 6 points
    assert lines[0].startswith("axis:operator.params.gamma,axis:seed,digest")


def test_sweep_runs_live_in_digest_directories(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", sweep_config())
    cmd_sweep(cfg_path, str(tmp_path / "s"), parallel=1, quiet=True)
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
    assert cmd_sweep(cfg_path, str(tmp_path / "s"), parallel=1, quiet=True) == 0
    text = (tmp_path / "s" / "index.csv").read_text()
    assert len(text.splitlines()) == 3
    assert "ok" in text and "error" in text


def test_sweep_without_block_exit_two(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    assert cmd_sweep(cfg_path, str(tmp_path / "s"), quiet=True) == 2


def test_sweep_empty_block_exit_two(tmp_path):
    cfg_path = write_config(tmp_path / "c.json", base_config(sweep={}))
    assert cmd_sweep(cfg_path, str(tmp_path / "s"), quiet=True) == 2


# ---------------------------------------------------------------------------
# cmd_audit


def test_audit_writes_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config(retain_states=True))
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out), quiet=True)
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
    cmd_run(cfg_path, str(out), quiet=True)
    assert cmd_audit(str(out)) == 3
    assert "retain_states" in capsys.readouterr().err


def test_audit_missing_directory_exit_two(tmp_path, capsys):
    assert cmd_audit(str(tmp_path / "nothing")) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# cmd_rate


def test_rate_prints_json(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config(iterations=2000))
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out), quiet=True)
    assert cmd_rate(str(out / "trace.csv"), window=(100, 2000)) == 0
    fit = json.loads(capsys.readouterr().out)
    assert fit["slope"] == pytest.approx(-2.0, abs=1e-3)
    assert fit["r2"] > 0.999


def test_rate_short_window_exit_two(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "c.json", base_config())
    out = tmp_path / "out"
    cmd_run(cfg_path, str(out), quiet=True)
    assert cmd_rate(str(out / "trace.csv"), window=(295, 299)) == 2
    capsys.readouterr()


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
    summary = run_to_dir(base_config(), tmp_path / "out")
    assert summary["e0"] == 2.5
    assert summary["gamma_hat"] == pytest.approx(0.25, abs=1e-9)
